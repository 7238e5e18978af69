//! The original (pre-optimization) round engine, kept verbatim as the
//! oracle the equivalence tests compare against.
//!
//! [`ReferenceSimulator`] preserves the seed engine's behavior *and* its
//! allocation profile: `n` fresh inbox `Vec`s per round, a fresh [`Outbox`]
//! per node per round, and a fresh `vec![false; degree]` duplicate-send
//! check per commit. The optimized [`Simulator`](crate::Simulator) must
//! produce bit-for-bit identical reports (`tests/engine_equivalence.rs`).

use std::sync::Arc;

use crate::algorithm::NodeAlgorithm;
use crate::churn;
use crate::config::{Config, DropReason, TopologyEvent};
use crate::engine::store::NodeStore;
use crate::engine::{ChurnState, QuiescenceState, Report, TerminationCertificate};
use crate::error::SimError;
use crate::message::Message;
use crate::node::{Inbox, NodeContext, NodeId, Outbox};
use crate::obs::RoundTiming;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::TraceEvent;

/// The seed round engine: allocates per round, steps sequentially.
///
/// Exists solely as the baseline against which the optimized
/// [`Simulator`](crate::Simulator) is benchmarked and equivalence-tested;
/// use the optimized engine for real runs.
pub struct ReferenceSimulator<'t, A: NodeAlgorithm> {
    topology: &'t Topology,
    config: Config,
    /// The shared state slab: the reference engine steps the same
    /// [`NodeStore`] the optimized executors do (its schedule/awake lists
    /// stay unused — the dense engine visits every node).
    store: NodeStore<A>,
    /// `pending[v]` holds the messages to be delivered to `v` next round.
    pending: Vec<Vec<(u32, A::Message)>>,
    /// The live (possibly churned) topology plus the plan cursor; `None`
    /// when the run has no topology plan. Mirrors the optimized engine's
    /// churn state exactly — same choke point, same event batching.
    churn: Option<ChurnState>,
    in_flight: u64,
    round: u64,
    stats: RunStats,
    /// Pre-pass marks: `scheduled[v]` iff the active-set engine would
    /// schedule `v` this round. The reference engine still steps every
    /// node (that is what makes it the dense baseline), but it must book
    /// the same per-round scheduled counts and poll termination votes
    /// over the same set, or the two engines' reports would diverge.
    scheduled: Vec<bool>,
    quiescence: QuiescenceState,
}

impl<'t, A: NodeAlgorithm> ReferenceSimulator<'t, A> {
    /// Creates a reference simulator; same contract as
    /// [`Simulator::new`](crate::Simulator::new).
    pub fn new<F>(topology: &'t Topology, config: Config, mut init: F) -> Self
    where
        F: FnMut(&NodeContext<'_>) -> A,
    {
        let n = topology.num_nodes();
        let nodes = (0..n)
            .map(|v| {
                let ctx = NodeContext {
                    node_id: v as NodeId,
                    num_nodes: n,
                    neighbor_ids: topology.neighbors(v as NodeId),
                    round: 0,
                };
                Some(init(&ctx))
            })
            .collect();
        let churn = config
            .topology
            .as_ref()
            .filter(|plan| !plan.is_empty())
            .map(|_| ChurnState {
                topo: Arc::new(topology.clone()),
                next_event: 0,
            });
        ReferenceSimulator {
            topology,
            config,
            store: NodeStore::new(nodes),
            pending: (0..n).map(|_| Vec::new()).collect(),
            churn,
            in_flight: 0,
            round: 0,
            stats: RunStats::default(),
            scheduled: vec![false; n],
            quiescence: QuiescenceState::default(),
        }
    }

    /// Nodes that run `on_start` (everyone not crashed at round 0).
    fn started_nodes(&self) -> u64 {
        let n = self.store.len();
        match &self.config.faults {
            Some(f) if f.has_crashes() => {
                (0..n).filter(|&v| !f.crashed(0, v as NodeId)).count() as u64
            }
            _ => n as u64,
        }
    }

    fn commit_outbox(
        &mut self,
        v: NodeId,
        outbox: Outbox<A::Message>,
        send_round: u64,
    ) -> Result<(), SimError> {
        // An owned snapshot sidesteps the borrow of `self` the per-item
        // accounting below needs; within one commit the view is constant.
        let churn_topo = self.churn.as_ref().map(|c| Arc::clone(&c.topo));
        let topo: &Topology = churn_topo.as_deref().unwrap_or(self.topology);
        let degree = topo.degree(v);
        let mut used = vec![false; degree];
        let mut observer = self.config.observer.as_ref().map(|h| h.lock());
        for (port, msg) in outbox.items {
            if port as usize >= degree {
                return Err(SimError::InvalidPort {
                    node: v,
                    port,
                    degree,
                });
            }
            if used[port as usize] {
                return Err(SimError::DuplicateSend {
                    node: v,
                    port,
                    round: send_round,
                });
            }
            used[port as usize] = true;
            let bits = msg.bit_size();
            if bits > self.config.bandwidth_bits {
                return Err(SimError::BandwidthExceeded {
                    node: v,
                    port,
                    round: send_round,
                    message_bits: bits,
                    bandwidth_bits: self.config.bandwidth_bits,
                });
            }
            let to = topo.neighbor_at(v, port);
            // Removal wins over crash windows, as documented on
            // `CrashWindow`: the dead-port check precedes the fault plan.
            if !topo.port_live(v, port) {
                self.stats.dropped += 1;
                if let Some(obs) = observer.as_deref_mut() {
                    obs.on_event(&TraceEvent::Drop {
                        round: send_round,
                        from: v,
                        port,
                        reason: DropReason::TopologyChange,
                        tags: msg.trace_tags(),
                    });
                }
                continue;
            }
            if let Some(plan) = &self.config.faults {
                // Same decision order as the optimized engine's validate:
                // loss rules first, then the receiver's crash window at
                // delivery time (send_round + 1).
                let reason = if plan.drops(send_round, v, port) {
                    Some(DropReason::Loss)
                } else if plan.crashed(send_round + 1, to) {
                    Some(DropReason::ReceiverCrashed)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    self.stats.dropped += 1;
                    if let Some(obs) = observer.as_deref_mut() {
                        obs.on_event(&TraceEvent::Drop {
                            round: send_round,
                            from: v,
                            port,
                            reason,
                            tags: msg.trace_tags(),
                        });
                    }
                    continue;
                }
            }
            let to_port = topo.reverse_port(v, port);
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&TraceEvent::Message {
                    round: send_round,
                    from: v,
                    to,
                    to_port,
                    edge: topo.directed_edge_index(v, port),
                    reverse_edge: topo.directed_edge_index(to, to_port),
                    bits,
                    stream: msg.stream_id(),
                    tags: msg.trace_tags(),
                });
            }
            self.stats.messages += 1;
            self.stats.bits += u64::from(bits);
            self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
            self.pending[to as usize].push((to_port, msg));
            self.in_flight += 1;
        }
        Ok(())
    }

    fn start_all(&mut self) -> Result<(), SimError> {
        for v in 0..self.store.len() {
            // A node already inside a crash window at round 0 never boots.
            if self
                .config
                .faults
                .as_ref()
                .is_some_and(|f| f.crashed(0, v as NodeId))
            {
                continue;
            }
            let ctx = NodeContext {
                node_id: v as NodeId,
                num_nodes: self.store.len(),
                neighbor_ids: self.topology.neighbors(v as NodeId),
                round: 0,
            };
            let mut outbox = Outbox::new();
            self.store
                .state_mut(v as NodeId)
                .on_start(&ctx, &mut outbox);
            self.commit_outbox(v as NodeId, outbox, 0)?;
        }
        // Seed the termination votes with one full poll, exactly as the
        // optimized executors do after their `on_start` sweep (crashed-at-0
        // nodes participate with their frozen initial state).
        let n = self.store.len();
        let mut quiescence = QuiescenceState::fold_start(n, n);
        for node in &self.store.slots {
            quiescence.vote(node.as_ref().expect("node state present").quiescence());
        }
        self.quiescence = quiescence;
        Ok(())
    }

    /// True while the topology plan still has unapplied events: the run
    /// must keep stepping to reach them even through quiet stretches.
    fn churn_pending(&self) -> bool {
        matches!(
            (&self.churn, &self.config.topology),
            (Some(c), Some(p)) if c.next_event < p.events().len()
        )
    }

    /// Mirror of the optimized engine's choke point (same batching, same
    /// observer order, same drop stream): applies every plan event due by
    /// this round, purges pending deliveries that were crossing a killed
    /// link — per receiver ascending, entries in commit order, exactly the
    /// optimized engine's receiver-sorted purge — and notifies affected
    /// nodes through the shared [`NodeStore`].
    fn apply_churn(&mut self) -> Result<(), SimError> {
        let round = self.round;
        let (changes, batch_events) = {
            let (Some(churn), Some(plan)) = (self.churn.as_mut(), self.config.topology.as_ref())
            else {
                return Ok(());
            };
            let events = plan.events();
            let lo = churn.next_event;
            let mut hi = lo;
            while hi < events.len() && events[hi].0 <= round {
                hi += 1;
            }
            if hi == lo {
                return Ok(());
            }
            churn.next_event = hi;
            let batch_events: Vec<TopologyEvent> = events[lo..hi].iter().map(|&(_, e)| e).collect();
            let changes = churn::apply_events(Arc::make_mut(&mut churn.topo), &events[lo..hi])?;
            (changes, batch_events)
        };
        self.stats.topo_events += batch_events.len() as u64;
        if let Some(obs) = &self.config.observer {
            let mut obs = obs.lock();
            for &event in &batch_events {
                obs.on_event(&TraceEvent::TopologyChange { round, event });
            }
        }
        let topo = Arc::clone(&self.churn.as_ref().expect("churn state present").topo);
        let mut purged: u64 = 0;
        {
            let mut observer = self.config.observer.as_ref().map(|h| h.lock());
            for (v, queue) in self.pending.iter_mut().enumerate() {
                let v = v as NodeId;
                queue.retain(|&(port, ref msg)| {
                    let live = topo.port_live(v, port);
                    if !live {
                        purged += 1;
                        if let Some(obs) = observer.as_deref_mut() {
                            // Tombstoned ports still resolve sender and
                            // port; the message was sent last round.
                            obs.on_event(&TraceEvent::Drop {
                                round: round - 1,
                                from: topo.neighbor_at(v, port),
                                port: topo.reverse_port(v, port),
                                reason: DropReason::TopologyChange,
                                tags: msg.trace_tags(),
                            });
                        }
                    }
                    live
                });
            }
        }
        self.stats.dropped += purged;
        self.in_flight -= purged;
        let (repaired, recompute) =
            self.store
                .notify_topology(&topo, &self.config.faults, round, &changes);
        self.stats.repaired_node_rounds += repaired;
        self.stats.recompute_fallbacks += recompute;
        Ok(())
    }

    fn step(&mut self) -> Result<(), SimError> {
        self.round += 1;
        self.stats.rounds = self.round;
        // The topology choke point: identical position to the optimized
        // engine's (after the round stamp, before the in-flight peak is
        // booked — purged messages never count toward the peak).
        if self.churn.is_some() {
            self.apply_churn()?;
        }
        let churn_topo = self.churn.as_ref().map(|c| Arc::clone(&c.topo));
        let topo: &Topology = churn_topo.as_deref().unwrap_or(self.topology);
        self.stats.max_messages_per_round = self.stats.max_messages_per_round.max(self.in_flight);
        let delivered = self.in_flight;
        self.in_flight = 0;
        let n = self.store.len();
        // Pre-pass: mark the set the active-set engine would schedule —
        // nodes with arrivals waiting or reporting `is_active` after their
        // last step. The marks drive the scheduled-count metrics and the
        // post-step vote poll; the dense step loop below still visits
        // every node.
        let mut scheduled_count: u64 = 0;
        for v in 0..n {
            let active = self.store.state(v as NodeId).is_active();
            // Absent (removed) nodes are never scheduled: their arrivals
            // were purged at the choke point and the active-set engine
            // filters them out of its awake rebuild.
            let on = topo.node_present(v as NodeId) && (!self.pending[v].is_empty() || active);
            self.scheduled[v] = on;
            scheduled_count += u64::from(on);
        }
        self.stats.scheduled_node_rounds += scheduled_count;
        self.stats.max_scheduled_per_round =
            self.stats.max_scheduled_per_round.max(scheduled_count);
        let watch = self.config.observer.is_some();
        let mut timing = RoundTiming::default();
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&TraceEvent::RoundStart {
                round: self.round,
                delivered,
                scheduled: scheduled_count,
            });
        }
        // Crash bookkeeping sits between round start and delivery, exactly
        // where the optimized engine books it, so observers see identical
        // event orders from both engines.
        if let Some(plan) = &self.config.faults {
            if plan.has_crashes() {
                let down = plan.crashed_nodes(self.round);
                self.stats.crashed += down.len() as u64;
                if let Some(obs) = &self.config.observer {
                    let mut obs = obs.lock();
                    for &node in &down {
                        obs.on_event(&TraceEvent::Crash {
                            round: self.round,
                            node,
                        });
                    }
                }
            }
        }
        // The seed engine allocates n fresh inboxes per round — its
        // "deliver" time is real work, unlike the optimized engine's swap.
        let clock = watch.then(std::time::Instant::now);
        let mut inboxes: Vec<Vec<(u32, A::Message)>> =
            std::mem::replace(&mut self.pending, (0..n).map(|_| Vec::new()).collect());
        if let Some(t) = clock {
            timing.deliver = t.elapsed();
        }
        // Stepping and committing interleave per node here, so the split
        // accumulates per-node durations instead of bracketing two loops.
        #[allow(clippy::needless_range_loop)] // v doubles as the node id
        for v in 0..n {
            // Removed nodes are gone: no step, no commit, inboxes purged
            // at the choke point.
            if !topo.node_present(v as NodeId) {
                debug_assert!(inboxes[v].is_empty(), "absent node received a message");
                continue;
            }
            // Crashed nodes freeze: no step, no commit. Their inboxes are
            // empty by construction (deliveries into the window dropped).
            if self
                .config
                .faults
                .as_ref()
                .is_some_and(|f| f.crashed(self.round, v as NodeId))
            {
                debug_assert!(inboxes[v].is_empty(), "crashed node received a message");
                continue;
            }
            let clock = watch.then(std::time::Instant::now);
            inboxes[v].sort_by_key(|(p, _)| *p);
            let inbox = Inbox { items: &inboxes[v] };
            let ctx = NodeContext {
                node_id: v as NodeId,
                num_nodes: n,
                neighbor_ids: topo.neighbors(v as NodeId),
                round: self.round,
            };
            let mut outbox = Outbox::new();
            self.store
                .state_mut(v as NodeId)
                .on_round(&ctx, &inbox, &mut outbox);
            if let Some(t) = clock {
                timing.step += t.elapsed();
            }
            let clock = watch.then(std::time::Instant::now);
            self.commit_outbox(v as NodeId, outbox, self.round)?;
            if let Some(t) = clock {
                timing.commit += t.elapsed();
            }
        }
        if let Some(obs) = &self.config.observer {
            let mut obs = obs.lock();
            obs.on_round_timing(self.round, &timing);
            obs.on_event(&TraceEvent::RoundEnd { round: self.round });
        }
        // Poll termination votes over exactly the scheduled set: the
        // active-set engine only polls the nodes it stepped (off-schedule
        // nodes are inactive, hence at most `Passive` by contract), and a
        // mismatch in who votes could shift the termination round.
        let mut quiescence = QuiescenceState::fold_start(scheduled_count as usize, n);
        for v in 0..n {
            if self.scheduled[v] {
                quiescence.vote(self.store.state(v as NodeId).quiescence());
            }
        }
        self.quiescence = quiescence;
        // Vote decomposition, emitted after `RoundEnd` — the same
        // position the optimized pipeline uses, so streams stay identical.
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&quiescence.event(self.round));
        }
        Ok(())
    }

    /// Runs to quiescence; same contract as
    /// [`Simulator::run`](crate::Simulator::run) (minus the `Send` bounds —
    /// the reference engine is strictly sequential).
    ///
    /// # Errors
    ///
    /// Propagates any bandwidth/port violation committed by a node, and
    /// returns [`SimError::RoundLimitExceeded`] if the run does not quiesce
    /// within [`Config::max_rounds`].
    pub fn run(mut self) -> Result<Report<A::Output>, SimError> {
        let started = std::time::Instant::now();
        let started_nodes = self.started_nodes();
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&TraceEvent::RunStart {
                phase: self.config.phase.clone(),
                nodes: self.topology.num_nodes() as u64,
                edges: self.topology.num_directed_edges() as u64,
                started: started_nodes,
            });
        }
        self.start_all()?;
        // Round 0 schedules every started node (they all run `on_start`).
        self.stats.scheduled_node_rounds += started_nodes;
        self.stats.max_scheduled_per_round = self.stats.max_scheduled_per_round.max(started_nodes);
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&self.quiescence.event(0));
        }
        while self.churn_pending() || !self.quiescence.terminal(self.in_flight) {
            if self.round >= self.config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                });
            }
            self.step()?;
        }
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&TraceEvent::EarlyTermination {
                round: self.round,
                in_flight: self.in_flight,
            });
        }
        let certificate = Some(TerminationCertificate::from_votes(
            self.round,
            self.in_flight,
            self.quiescence,
            self.store.final_votes(),
        ));
        let churn_topo = self.churn.as_ref().map(|c| Arc::clone(&c.topo));
        let outputs = self
            .store
            .into_outputs(churn_topo.as_deref().unwrap_or(self.topology), self.round);
        self.stats.wall_time = started.elapsed();
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&TraceEvent::RunEnd {
                rounds: self.stats.rounds,
                messages: self.stats.messages,
            });
        }
        Ok(Report {
            outputs,
            stats: self.stats,
            certificate,
            sched: None,
        })
    }
}
