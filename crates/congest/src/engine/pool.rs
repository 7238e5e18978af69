//! The work-stealing pool executor: long-lived worker threads created
//! once per run, balancing each round's frontier dynamically over chunks
//! instead of static id-range shards.
//!
//! # Protocol
//!
//! Each round the engine thread builds the global schedule (sorted union
//! of the wake and awake lists), carves the arrival arena over it, and
//! splits it into **chunks** of consecutive schedule positions. A chunk is
//! self-contained work: it carries its node ids, their algorithm states
//! (checked out of the [`NodeStore`] slab by `Option::take` — ownership
//! transfer is what makes concurrent stepping safe without `unsafe`),
//! their arrivals (the chunk's contiguous range of the carved arena, moved
//! out once and then read in place), and one outbox per node. Chunks are
//! distributed in contiguous blocks over one `Mutex<VecDeque>` **deque
//! per worker** (deque 0 belongs to the engine thread), and exactly the
//! workers whose deques received chunks are woken — a sparse round costs
//! wakes proportional to its frontier, never to the thread count.
//!
//! Every worker (the engine thread included) then runs the same drain
//! loop: pop a chunk from the front of its own deque; when that is empty,
//! **steal the back half** of the first non-empty victim deque (cyclic
//! scan). A stolen chunk keeps its `home` tag, so `stepped_by != home`
//! counts one steal. A worker only *steps* its chunk's nodes — rebuilding
//! the chunk-local awake list and folding termination votes — and sends
//! the chunk, outboxes filled, back to the engine over one shared results
//! channel.
//!
//! Determinism survives because nothing observable happens on a worker:
//! the engine thread collects all chunks and replays them **in
//! chunk-index order** — which is node-id order, because chunks are
//! consecutive slices of the sorted schedule — restoring states to the
//! slab, concatenating the chunk-local awake lists, and (in the commit
//! phase) committing every carried outbox through the same
//! [`Core::commit_outbox`] the serial executor calls. *Which worker*
//! stepped a chunk is the only timing-dependent fact, and it is exported
//! solely through `RunStats::steals`, which the equality contracts
//! deliberately exclude.
//!
//! Chunk size is `max(16, sched / (4 · workers))` per round, so every
//! worker has a few chunks' worth of slack to steal. All chunk containers
//! are recycled through a [`Scratch`] pool, so the steady state stays
//! allocation-free.
//!
//! The crate forbids `unsafe`, so workers are scoped threads: `run` wraps
//! the whole round loop in one `std::thread::scope`, and the executor's
//! kick senders drop when the loop ends, which makes each worker's `recv`
//! fail and the thread exit before the scope joins. A worker that panics
//! mid-chunk trips its [`PanicFuse`], so the engine fails loudly instead
//! of waiting forever for the lost chunk.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

use crate::algorithm::{NodeAlgorithm, Quiescence};
use crate::config::FaultPlan;
use crate::error::SimError;
use crate::node::{NodeId, Outbox, Port};
use crate::topology::Topology;

use super::store::{NodeStore, Scratch};
use super::{start_nodes, step_node, Core, Executor, QuiescenceState};

/// Total worker threads ever spawned by pool executors, process-wide.
/// Exists so tests and benches can pin the "threads are created once per
/// run, never once per round" property: the counter's delta across a run
/// must equal the spawned-thread count (`workers - 1`, the engine thread
/// working deque 0 itself), independent of how many rounds ran.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of pool worker threads spawned so far; see
/// [`pool_workers_spawned`](crate::pool_workers_spawned).
pub(crate) fn workers_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// One unit of stealable work: a consecutive slice of the round's
/// schedule, carrying everything needed to step it off-thread and
/// everything produced by doing so. All containers are recycled through
/// the executor's [`Scratch`] pool.
struct Chunk<A: NodeAlgorithm> {
    /// The round this chunk belongs to (chunks are self-contained, so a
    /// worker still draining when the next round is enqueued stays
    /// correct).
    round: u64,
    /// Position of this chunk's slice in the schedule — the engine's
    /// replay key: ascending `index` is ascending node id.
    index: u32,
    /// The deque this chunk was initially pushed onto.
    home: u32,
    /// The worker that actually stepped it; `!= home` counts one steal.
    stepped_by: u32,
    /// The chunk's node ids (consecutive schedule entries, ascending).
    ids: Vec<NodeId>,
    /// The nodes' algorithm states, checked out of the store slab
    /// (positional to `ids`); returned by the engine after the step.
    states: Vec<Option<A>>,
    /// All arrivals of the chunk, flat: the chunk's contiguous range of
    /// the carved arena. `ids[j]` owns
    /// `inbox_data[inbox_ends[j - 1]..inbox_ends[j]]` (from 0 for `j = 0`),
    /// in arrival order.
    inbox_data: Vec<(Port, A::Message)>,
    /// Per-node slice ends into `inbox_data`, positional to `ids`.
    inbox_ends: Vec<u32>,
    /// The nodes' outboxes, positional to `ids`; the engine thread commits
    /// (and so drains) them in order. Kept across recycling, so their
    /// buffers are reused.
    outboxes: Vec<Outbox<A::Message>>,
    /// Chunk-local awake list (ids reporting `is_active` post-step),
    /// ascending.
    awake: Vec<NodeId>,
    /// Chunk-local termination vote aggregate.
    votes: QuiescenceState,
}

impl<A: NodeAlgorithm> Default for Chunk<A> {
    fn default() -> Self {
        Chunk {
            round: 0,
            index: 0,
            home: 0,
            stepped_by: 0,
            ids: Vec::new(),
            states: Vec::new(),
            inbox_data: Vec::new(),
            inbox_ends: Vec::new(),
            outboxes: Vec::new(),
            awake: Vec::new(),
            votes: QuiescenceState::default(),
        }
    }
}

impl<A: NodeAlgorithm> Chunk<A> {
    /// Empties every container (keeping capacity) so the chunk can go
    /// back into the spare pool.
    fn recycle(&mut self) {
        self.ids.clear();
        self.states.clear();
        self.inbox_data.clear();
        self.inbox_ends.clear();
        self.awake.clear();
        debug_assert!(self.outboxes.iter().all(|o| o.items.is_empty()));
    }
}

/// One chunk deque per worker; index 0 is the engine thread's.
type Deques<A> = Vec<Mutex<VecDeque<Chunk<A>>>>;

/// Sent by a worker's [`PanicFuse`] when the worker unwinds: carries the
/// worker index so the engine can fail loudly instead of deadlocking on a
/// chunk that will never arrive.
struct WorkerPanic(usize);

/// What workers send back on the shared results channel.
type ChunkResult<A> = Result<Chunk<A>, WorkerPanic>;

/// Armed for a worker thread's whole life: if the thread unwinds (a node
/// algorithm or a debug assertion panicked mid-chunk), `Drop` runs during
/// the unwind and tells the engine, which re-panics on receipt. Normal
/// exit drops the fuse without `thread::panicking()` set, sending nothing.
struct PanicFuse<A: NodeAlgorithm> {
    me: usize,
    results: Sender<ChunkResult<A>>,
}

impl<A: NodeAlgorithm> Drop for PanicFuse<A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.results.send(Err(WorkerPanic(self.me)));
        }
    }
}

/// Pops one chunk for worker `me`: front of its own deque first, else the
/// first non-empty victim in cyclic order loses its back half (the chunks
/// the victim would reach last). The extra stolen chunks land on `me`'s
/// own deque — which is empty, or we would not be stealing.
fn grab<A: NodeAlgorithm>(deques: &Deques<A>, me: usize) -> Option<Chunk<A>> {
    if let Some(chunk) = deques[me].lock().expect("chunk deque poisoned").pop_front() {
        return Some(chunk);
    }
    let k = deques.len();
    for offset in 1..k {
        let victim = (me + offset) % k;
        let mut vq = deques[victim].lock().expect("chunk deque poisoned");
        let len = vq.len();
        if len == 0 {
            continue;
        }
        let mut stolen = vq.split_off(len / 2);
        drop(vq);
        let first = stolen.pop_front().expect("stole at least one chunk");
        if !stolen.is_empty() {
            deques[me]
                .lock()
                .expect("chunk deque poisoned")
                .append(&mut stolen);
        }
        return Some(first);
    }
    None
}

/// Steps one chunk in place: every node reads its slice of the flat
/// inbox data where it lies and fills its outbox; the chunk's awake list
/// and vote aggregate are rebuilt on the way. Shared verbatim by the
/// worker threads and the engine thread's own drain loop.
fn step_chunk<A: NodeAlgorithm>(
    topology: &Topology,
    n: usize,
    faults: &Option<FaultPlan>,
    chunk: &mut Chunk<A>,
    me: u32,
) {
    chunk.stepped_by = me;
    let Chunk {
        round,
        ids,
        states,
        inbox_data,
        inbox_ends,
        outboxes,
        awake,
        ..
    } = chunk;
    let round = *round;
    while outboxes.len() < ids.len() {
        outboxes.push(Outbox::new());
    }
    awake.clear();
    // Chunk-locally every vote starts vacuously true; the engine thread
    // vetoes the global `shutdown` bit unless every node in the network
    // was polled this round. Counts start at zero and add up when the
    // engine absorbs the chunks.
    let mut votes = QuiescenceState {
        passive: true,
        shutdown: true,
        ..QuiescenceState::default()
    };
    let mut lo = 0usize;
    for (j, &v) in ids.iter().enumerate() {
        let hi = inbox_ends[j] as usize;
        let arrivals = &mut inbox_data[lo..hi];
        lo = hi;
        // Same crash rule as the serial executor: a crashed node's state
        // freezes (it can only be scheduled through the awake list — sends
        // to it were dropped at the validation point) and its frozen state
        // keeps voting.
        if faults.as_ref().is_some_and(|f| f.crashed(round, v)) {
            debug_assert!(arrivals.is_empty(), "crashed node received a message");
        } else {
            step_node(
                topology,
                n,
                round,
                v,
                &mut states[j],
                arrivals,
                &mut outboxes[j],
            );
        }
        let node = states[j].as_ref().expect("node state present");
        if node.is_active() {
            awake.push(v);
        }
        votes.vote(node.quiescence());
    }
    chunk.votes = votes;
}

/// The body of one worker thread: sleep until kicked, then drain chunks
/// (own deque first, stealing when empty) until the whole round is dry,
/// sending each stepped chunk back to the engine. Exits when the kick
/// channel closes (executor dropped) or the engine stops receiving.
fn worker_loop<A: NodeAlgorithm>(
    topology: &Topology,
    n: usize,
    me: usize,
    faults: Option<FaultPlan>,
    deques: Arc<Deques<A>>,
    kick: Receiver<()>,
    results: Sender<ChunkResult<A>>,
) {
    let _fuse = PanicFuse {
        me,
        results: results.clone(),
    };
    while kick.recv().is_ok() {
        while let Some(mut chunk) = grab(&deques, me) {
            step_chunk(topology, n, &faults, &mut chunk, me as u32);
            if results.send(Ok(chunk)).is_err() {
                return; // engine gone (run aborted)
            }
        }
    }
}

/// The work-stealing pool executor. Lives inside the `thread::scope` that
/// `run` opens; dropping it (normally or on error) closes the kick
/// channels, which terminates every worker before the scope joins them.
pub(crate) struct PoolExecutor<'t, 'scope, A: NodeAlgorithm> {
    topology: &'t Topology,
    n: usize,
    faults: Option<FaultPlan>,
    /// All node state; chunks check states out per round and the engine
    /// checks them back in before the round's votes are read.
    store: NodeStore<A>,
    deques: Arc<Deques<A>>,
    /// One wake signal per spawned worker (`kicks[w - 1]` is deque `w`'s
    /// owner); only workers whose deques received chunks are kicked.
    kicks: Vec<Sender<()>>,
    results: Receiver<ChunkResult<A>>,
    _threads: Vec<ScopedJoinHandle<'scope, ()>>,
    /// Chunks enqueued for the round in flight.
    total_chunks: usize,
    /// The round's stepped chunks, keyed by chunk index — the replay
    /// order; filled by `step`, drained (and recycled) by `commit`.
    done: Vec<Option<Chunk<A>>>,
    /// Recycled chunk containers.
    spare: Scratch<Chunk<A>>,
    quiescence: QuiescenceState,
    /// Telemetry for the round in flight.
    round_chunks: u64,
    round_steals: u64,
}

impl<'t, 'scope, A> PoolExecutor<'t, 'scope, A>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
{
    /// Creates the deques (one per worker, clamped to `1..=n`) and spawns
    /// `workers - 1` threads — the engine thread works deque 0 itself.
    /// This is the only place the pool creates threads; rounds are pure
    /// deque pushes plus one wake per busy worker.
    pub(crate) fn new<'env>(
        scope: &'scope Scope<'scope, 'env>,
        topology: &'t Topology,
        faults: Option<FaultPlan>,
        store: NodeStore<A>,
        workers: usize,
    ) -> Self
    where
        't: 'scope,
        A: 'scope,
    {
        let n = store.len();
        let workers = workers.clamp(1, n.max(1));
        let deques: Arc<Deques<A>> =
            Arc::new((0..workers).map(|_| Mutex::new(VecDeque::new())).collect());
        let (results_tx, results_rx) = channel();
        let mut kicks = Vec::with_capacity(workers.saturating_sub(1));
        let mut threads = Vec::with_capacity(workers.saturating_sub(1));
        for me in 1..workers {
            let (kick_tx, kick_rx) = channel();
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            // Each worker owns its copy of the (static, read-only) plan
            // and a clone of the shared deques and results sender.
            let worker_faults = faults.clone();
            let worker_deques = Arc::clone(&deques);
            let worker_results = results_tx.clone();
            threads.push(scope.spawn(move || {
                worker_loop::<A>(
                    topology,
                    n,
                    me,
                    worker_faults,
                    worker_deques,
                    kick_rx,
                    worker_results,
                );
            }));
            kicks.push(kick_tx);
        }
        // The engine keeps no sender: once every worker exits, the results
        // channel closes and a blocked `recv` fails loudly instead of
        // hanging.
        drop(results_tx);
        PoolExecutor {
            topology,
            n,
            faults,
            store,
            deques,
            kicks,
            results: results_rx,
            _threads: threads,
            total_chunks: 0,
            done: Vec::new(),
            spare: Scratch::new(),
            quiescence: QuiescenceState::default(),
            round_chunks: 0,
            round_steals: 0,
        }
    }
}

impl<A> Executor<A> for PoolExecutor<'_, '_, A>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
{
    fn start(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError> {
        // Round 0 has no step phase to chunk: `on_start` and its commits
        // run on the engine thread, exactly as on the serial executor.
        self.quiescence = start_nodes(core, &mut self.store)?;
        Ok(())
    }

    fn schedule(&mut self, core: &mut Core<'_, A::Message>) -> u64 {
        let scheduled = self.store.build_schedule(core.sorted_wake());
        core.clear_wake();
        scheduled
    }

    fn deliver(&mut self, core: &mut Core<'_, A::Message>) {
        // Carve the arena, cut the schedule into chunks, check the chunk's
        // states out of the slab, and enqueue — then wake exactly the
        // workers whose deques got work. Workers begin stepping (and
        // stealing) immediately; the engine thread joins in during the
        // step phase.
        core.arrivals.carve(&self.store.schedule);
        self.round_chunks = 0;
        self.round_steals = 0;
        self.total_chunks = 0;
        let sched = self.store.schedule.len();
        if sched == 0 {
            return;
        }
        let k = self.deques.len();
        let size = sched.div_ceil(k * 4).max(16);
        let chunks = sched.div_ceil(size);
        let per_deque = chunks.div_ceil(k);
        self.total_chunks = chunks;
        if self.done.len() < chunks {
            self.done.resize_with(chunks, || None);
        }
        let round = core.round;
        // One front-to-back pass over the carved arena: chunks are
        // consecutive schedule ranges, so each takes the next contiguous
        // run of arrivals.
        let (mut carved, bounds) = core.arrivals.drain_carved();
        for index in 0..chunks {
            let lo = index * size;
            let hi = (lo + size).min(sched);
            let mut chunk = self.spare.get();
            chunk.round = round;
            chunk.index = index as u32;
            chunk.home = (index / per_deque) as u32;
            let base = bounds[lo];
            chunk
                .inbox_data
                .extend(carved.by_ref().take((bounds[hi] - base) as usize));
            for (pos, &v) in self.store.schedule[lo..hi].iter().enumerate() {
                chunk.ids.push(v);
                chunk.inbox_ends.push(bounds[lo + pos + 1] - base);
                chunk.states.push(self.store.slots[v as usize].take());
            }
            self.deques[chunk.home as usize]
                .lock()
                .expect("chunk deque poisoned")
                .push_back(chunk);
        }
        for (w, kick) in self.kicks.iter().enumerate() {
            let busy = !self.deques[w + 1]
                .lock()
                .expect("chunk deque poisoned")
                .is_empty();
            if busy {
                let _ = kick.send(());
            }
        }
    }

    fn step(&mut self, core: &mut Core<'_, A::Message>) {
        // Work deque 0 (and steal) on this thread until the round is dry,
        // then collect the remaining chunks from the workers and replay
        // everything in chunk-index order: states back into the slab,
        // awake lists concatenated (= globally sorted), votes folded,
        // telemetry booked. The outboxes stay parked in `done` for the
        // commit phase.
        let _ = core;
        let chunks = self.total_chunks;
        let mut local = 0usize;
        while let Some(mut chunk) = grab(&self.deques, 0) {
            step_chunk(self.topology, self.n, &self.faults, &mut chunk, 0);
            let at = chunk.index as usize;
            self.done[at] = Some(chunk);
            local += 1;
        }
        for _ in 0..chunks - local {
            match self.results.recv() {
                Ok(Ok(chunk)) => {
                    let at = chunk.index as usize;
                    self.done[at] = Some(chunk);
                }
                Ok(Err(WorkerPanic(w))) => {
                    panic!("pool worker {w} panicked while stepping a chunk")
                }
                Err(_) => panic!("pool worker disconnected (node panic?)"),
            }
        }
        let mut votes = QuiescenceState {
            passive: true,
            shutdown: true,
            ..QuiescenceState::default()
        };
        let NodeStore {
            slots, awake_next, ..
        } = &mut self.store;
        awake_next.clear();
        let mut polled = 0usize;
        for done in self.done[..chunks].iter_mut() {
            let chunk = done.as_mut().expect("chunk stepped");
            for (j, &v) in chunk.ids.iter().enumerate() {
                slots[v as usize] = chunk.states[j].take();
            }
            awake_next.extend_from_slice(&chunk.awake);
            votes.absorb(chunk.votes);
            polled += chunk.ids.len();
            if chunk.stepped_by != chunk.home {
                self.round_steals += 1;
            }
        }
        self.round_chunks = chunks as u64;
        // Unanimous shutdown requires every node's consent; nodes off the
        // schedule are necessarily `Passive`, which vetoes it.
        votes.shutdown &= polled == self.n;
        self.quiescence = votes;
        self.store.publish_awake();
    }

    fn commit(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError> {
        let handle = core.config.observer.clone();
        let mut observer = handle.as_ref().map(|h| h.lock());
        // Commit in chunk-index order — node-id order, since chunks are
        // consecutive slices of the sorted schedule — recycling each chunk
        // as it drains. An invalid send aborts exactly where the serial
        // commit would: after the accounting of every earlier item, with
        // later outboxes never booked.
        for index in 0..self.total_chunks {
            let mut chunk = self.done[index].take().expect("chunk stepped");
            for (j, &v) in chunk.ids.iter().enumerate() {
                core.commit_outbox(&mut observer, v, &mut chunk.outboxes[j].items)?;
            }
            chunk.recycle();
            self.spare.put(chunk);
        }
        Ok(())
    }

    fn quiescence(&self) -> QuiescenceState {
        self.quiescence
    }

    fn final_votes(&mut self) -> Vec<(NodeId, Quiescence)> {
        self.store.final_votes()
    }

    fn round_telemetry(&self) -> (u64, u64) {
        (self.round_chunks, self.round_steals)
    }

    fn into_outputs(self, final_round: u64) -> Vec<A::Output> {
        // Dropping `self` right after closes the kick channels; every
        // worker's `recv` then fails and the thread exits before the
        // enclosing scope joins it.
        self.store.into_outputs(self.topology, final_round)
    }
}
