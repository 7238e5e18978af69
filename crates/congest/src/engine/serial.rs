//! The single-threaded executor: every phase runs in place on the calling
//! thread, over the round's schedule only. Zero coordination overhead —
//! this stays the default.

use crate::algorithm::NodeAlgorithm;
use crate::error::SimError;
use crate::node::{NodeContext, NodeId, Outbox};
use crate::topology::Topology;

use super::commit::DupScratch;
use super::store::NodeStore;
use super::{step_node, Core, Executor, QuiescenceState};

/// Runs the pipeline phases in place over a [`NodeStore`]: the schedule is
/// the sorted union of the wake and awake lists, deliver carves the
/// arrival arena into schedule-ordered inbox slices, step sweeps the
/// state slab forward through them, and commit validates and books each
/// scheduled node's outbox immediately — ascending schedule order *is*
/// node-id order.
pub(crate) struct SerialExecutor<'t, A: NodeAlgorithm> {
    topology: &'t Topology,
    store: NodeStore<A>,
    /// Send buffers, positionally matched to the schedule; grown on demand
    /// and recycled (commit drains them in place).
    outboxes: Vec<Outbox<A::Message>>,
    scratch: DupScratch,
    quiescence: QuiescenceState,
}

impl<'t, A: NodeAlgorithm> SerialExecutor<'t, A> {
    pub(crate) fn new(topology: &'t Topology, store: NodeStore<A>) -> Self {
        SerialExecutor {
            topology,
            store,
            outboxes: Vec::new(),
            scratch: DupScratch::new(),
            quiescence: QuiescenceState::default(),
        }
    }
}

impl<A: NodeAlgorithm> Executor<A> for SerialExecutor<'_, A> {
    fn start(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError> {
        let n = self.store.len();
        let mut start_outbox = Outbox::new();
        {
            let handle = core.config.observer.clone();
            let mut observer = handle.as_ref().map(|h| h.lock());
            for v in 0..n {
                // A node already inside a crash window at round 0 never
                // boots; it runs `on_start` only conceptually, after
                // restarting (i.e. not at all — restarts resume the
                // frozen state).
                if core
                    .config
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.crashed(0, v as NodeId))
                {
                    continue;
                }
                let ctx = NodeContext {
                    node_id: v as NodeId,
                    num_nodes: n,
                    neighbor_ids: self.topology.neighbors(v as NodeId),
                    round: 0,
                };
                self.store
                    .state_mut(v as NodeId)
                    .on_start(&ctx, &mut start_outbox);
                core.commit_outbox(
                    &mut observer,
                    &mut self.scratch,
                    v as NodeId,
                    &mut start_outbox.items,
                )?;
            }
        }
        // Seed the awake list and the termination votes with one full
        // scan — the only O(n) sweep after construction. Crashed-at-0
        // nodes participate with their (frozen) initial state, exactly as
        // the dense reference engine polls them.
        self.quiescence = self.store.seed_awake_and_votes();
        Ok(())
    }

    fn schedule(&mut self, core: &mut Core<'_, A::Message>) -> u64 {
        let scheduled = self.store.build_schedule(core.sorted_wake());
        core.clear_wake();
        while self.outboxes.len() < self.store.schedule.len() {
            self.outboxes.push(Outbox::new());
        }
        scheduled
    }

    fn deliver(&mut self, core: &mut Core<'_, A::Message>) {
        core.arrivals.carve(&self.store.schedule);
    }

    fn step(&mut self, core: &mut Core<'_, A::Message>) {
        let n = self.store.len();
        // Split the core's borrows: the arrival arena is read in place
        // while the fault plan is consulted.
        let Core {
            config,
            arrivals,
            round,
            ..
        } = core;
        let round = *round;
        let faults = &config.faults;
        // Split the store's borrows: the schedule is read while the state
        // slab is stepped and the next awake list is rebuilt.
        let NodeStore {
            slots,
            schedule,
            awake_next,
            ..
        } = &mut self.store;
        awake_next.clear();
        let mut quiescence = QuiescenceState::fold_start(schedule.len(), n);
        for (i, &v) in schedule.iter().enumerate() {
            // Crashed nodes are not stepped: their state freezes until
            // the window ends. They can only be on the schedule through
            // the awake list (messages to them were discarded at the
            // validation point), and their frozen state keeps voting.
            if faults.as_ref().is_some_and(|f| f.crashed(round, v)) {
                debug_assert!(arrivals.len_at(i) == 0, "crashed node received a message");
            } else {
                step_node(
                    self.topology,
                    n,
                    round,
                    v,
                    &mut slots[v as usize],
                    arrivals.slot_mut(i),
                    &mut self.outboxes[i],
                );
            }
            let node = slots[v as usize].as_ref().expect("node state present");
            if node.is_active() {
                awake_next.push(v);
            }
            quiescence.vote(node.quiescence());
        }
        // Every arrival has been read where it lay; commit stages next
        // round's into the emptied arena.
        arrivals.clear();
        self.quiescence = quiescence;
        self.store.publish_awake();
    }

    fn commit(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError> {
        // One observer lock per commit phase; `None` when unobserved.
        let handle = core.config.observer.clone();
        let mut observer = handle.as_ref().map(|h| h.lock());
        for (i, &v) in self.store.schedule.iter().enumerate() {
            core.commit_outbox(
                &mut observer,
                &mut self.scratch,
                v,
                &mut self.outboxes[i].items,
            )?;
        }
        Ok(())
    }

    fn quiescence(&self) -> QuiescenceState {
        self.quiescence
    }

    fn final_votes(&mut self) -> Vec<(NodeId, crate::algorithm::Quiescence)> {
        self.store.final_votes()
    }

    fn into_outputs(self, final_round: u64) -> Vec<A::Output> {
        self.store.into_outputs(self.topology, final_round)
    }
}
