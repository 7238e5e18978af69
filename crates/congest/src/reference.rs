//! The oracle the equivalence tests hold [`Simulator`](crate::Simulator)
//! to: a naive, dense round loop sharing none of the code it checks. It
//! uses only the node API, [`Topology`]'s public reads and mutators,
//! [`Config`] and the report types (the test below enforces this), steps
//! every present, non-crashed node over freshly allocated queues, and
//! writes out its own churn deltas, dead-port purge, votes and certificate.

use std::borrow::Cow;

use crate::algorithm::{NodeAlgorithm, Quiescence, RepairAction, TopologyDelta};
use crate::config::{Config, DropReason, EdgeEvent, NodeEvent, TopologyEvent};
use crate::engine::{Report, TerminationCertificate, TerminationReason};
use crate::error::SimError;
use crate::message::{Message, TraceTags};
use crate::node::{Inbox, NodeContext, NodeId, Outbox, Port};
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::TraceEvent;

/// One node's `(port, message)` arrivals, in commit order.
type Queue<M> = Vec<(Port, M)>;

/// The dense oracle engine: [`Simulator`](crate::Simulator)'s reports from
/// none of its machinery. Use the optimized engine for real runs.
pub struct ReferenceSimulator<'t, A: NodeAlgorithm> {
    /// The live topology, copied on the first plan event.
    topo: Cow<'t, Topology>,
    config: Config,
    nodes: Vec<A>,
    queues: Vec<Queue<A::Message>>,
    /// `stats.rounds` is the round being run.
    stats: RunStats,
}

fn ctx(topo: &Topology, v: usize, round: u64) -> NodeContext<'_> {
    let (node_id, num_nodes) = (v as NodeId, topo.num_nodes());
    let neighbor_ids = topo.neighbors(node_id);
    NodeContext {
        node_id,
        num_nodes,
        neighbor_ids,
        round,
    }
}

impl<'t, A: NodeAlgorithm> ReferenceSimulator<'t, A> {
    /// Creates a reference simulator; same contract as
    /// [`Simulator::new`](crate::Simulator::new).
    pub fn new<F>(topology: &'t Topology, config: Config, mut init: F) -> Self
    where
        F: FnMut(&NodeContext<'_>) -> A,
    {
        let n = topology.num_nodes();
        ReferenceSimulator {
            topo: Cow::Borrowed(topology),
            config,
            nodes: (0..n).map(|v| init(&ctx(topology, v, 0))).collect(),
            queues: (0..n).map(|_| Vec::new()).collect(),
            stats: RunStats::default(),
        }
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(obs) = &self.config.observer {
            obs.lock().on_event(&event);
        }
    }

    fn crashed(&self, round: u64, v: usize) -> bool {
        let faults = self.config.faults.as_ref();
        faults.is_some_and(|f| f.crashed(round, v as NodeId))
    }

    fn in_flight(&self) -> u64 {
        self.queues.iter().map(Vec::len).sum::<usize>() as u64
    }

    fn drop_message(
        &mut self,
        round: u64,
        at: (NodeId, Port),
        reason: DropReason,
        tags: TraceTags,
    ) {
        let (from, port) = at;
        self.stats.dropped += 1;
        self.emit(TraceEvent::Drop {
            round,
            from,
            port,
            reason,
            tags,
        });
    }

    /// Polls the nodes `who` picks, tallied `[active, passive, shutdown]`.
    /// A skipped node is inactive, hence `Passive`: it vetoes a unanimous
    /// `Shutdown`.
    fn poll(&self, who: impl Fn(usize) -> bool) -> [u64; 3] {
        let mut votes = [0; 3];
        let polled = self.nodes.iter().enumerate().filter(|&(v, _)| who(v));
        polled.for_each(|(_, a)| votes[a.quiescence() as usize] += 1);
        let [active, passive, shutdown] = votes;
        let round = self.stats.rounds;
        self.emit(TraceEvent::QuiescenceVotes {
            round,
            active,
            passive,
            shutdown,
        });
        votes
    }

    /// Steps node `v` (`on_start` in round 0) and commits its sends.
    fn step(&mut self, v: usize, mut inbox: Queue<A::Message>) -> Result<(), SimError> {
        let round = self.stats.rounds;
        let (mut out, ctx) = (Outbox::new(), ctx(&self.topo, v, round));
        inbox.sort_by_key(|&(port, _)| port);
        match round {
            0 => self.nodes[v].on_start(&ctx, &mut out),
            _ => self.nodes[v].on_round(&ctx, &Inbox { items: &inbox }, &mut out),
        }
        let (node, degree, bandwidth_bits) =
            (v as NodeId, ctx.degree(), self.config.bandwidth_bits);
        let mut used = vec![false; degree];
        for (port, msg) in out.items {
            let (bits, tags) = (msg.bit_size(), msg.trace_tags());
            if port as usize >= degree {
                return Err(SimError::InvalidPort { node, port, degree });
            } else if std::mem::replace(&mut used[port as usize], true) {
                return Err(SimError::DuplicateSend { node, port, round });
            } else if bits > bandwidth_bits {
                return Err(SimError::BandwidthExceeded {
                    node,
                    port,
                    round,
                    message_bits: bits,
                    bandwidth_bits,
                });
            }
            // A dead port outranks the fault plan; loss outranks a crash window.
            let to = self.topo.neighbor_at(node, port);
            let faults = self.config.faults.as_ref();
            let reason = if !self.topo.port_live(node, port) {
                Some(DropReason::TopologyChange)
            } else if faults.is_some_and(|f| f.drops(round, node, port)) {
                Some(DropReason::Loss)
            } else if self.crashed(round + 1, to as usize) {
                Some(DropReason::ReceiverCrashed)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.drop_message(round, (node, port), reason, tags);
                continue;
            }
            let to_port = self.topo.reverse_port(node, port);
            let edge = self.topo.directed_edge_index(node, port);
            let reverse_edge = self.topo.directed_edge_index(to, to_port);
            self.stats.messages += 1;
            self.stats.bits += u64::from(bits);
            self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
            self.emit(TraceEvent::Message {
                round,
                from: node,
                to,
                to_port,
                edge,
                reverse_edge,
                bits,
                stream: msg.stream_id(),
                tags,
            });
            self.queues[to as usize].push((to_port, msg));
        }
        Ok(())
    }

    /// Applies one round's plan events, purges the queued messages whose
    /// link died, and notifies every present node, plus each node the batch
    /// removed, in id order. A node crashed and re-joined in one batch is
    /// told its net fate only.
    fn churn(&mut self, batch: &[(u64, TopologyEvent)]) -> Result<(), SimError> {
        let (n, round, topo) = (self.nodes.len(), self.stats.rounds, self.topo.to_mut());
        let (mut lost, mut gained): (Vec<Vec<Port>>, Vec<Vec<_>>) =
            (vec![vec![]; n], vec![vec![]; n]);
        for &(_, event) in batch {
            let halves = match event {
                TopologyEvent::Edge(EdgeEvent::Insert { u, v }) => {
                    let [(a, pa), (b, pb)] = topo.insert_edge(u, v)?;
                    gained[a as usize].push((pa, b));
                    gained[b as usize].push((pb, a));
                    vec![]
                }
                TopologyEvent::Edge(EdgeEvent::Remove { u, v }) => topo.remove_edge(u, v)?.to_vec(),
                TopologyEvent::Node(NodeEvent::Crash(v)) => topo.remove_node(v)?,
                TopologyEvent::Node(NodeEvent::Join(v)) => topo.join_node(v).map(|()| vec![])?,
            };
            for (w, p) in halves {
                lost[w as usize].push(p);
            }
        }
        // The batch size: every port half removed or inserted, plus one per node event.
        let halves = lost.iter().map(Vec::len).chain(gained.iter().map(Vec::len));
        let node_events = batch
            .iter()
            .filter(|(_, e)| matches!(e, TopologyEvent::Node(_)));
        let size = (halves.sum::<usize>() + node_events.count()) as u32;
        self.stats.topo_events += batch.len() as u64;
        for &(_, event) in batch {
            self.emit(TraceEvent::TopologyChange { round, event });
        }
        for v in 0..n as NodeId {
            for (port, msg) in std::mem::take(&mut self.queues[v as usize]) {
                let t = &self.topo;
                if t.port_live(v, port) {
                    self.queues[v as usize].push((port, msg));
                } else {
                    // Sent last round, from the far end of the dead port.
                    let at = (t.neighbor_at(v, port), t.reverse_port(v, port));
                    self.drop_message(round - 1, at, DropReason::TopologyChange, msg.trace_tags());
                }
            }
        }
        for v in 0..n {
            let (present, epoch) = (self.topo.node_present(v as NodeId), self.topo.epoch());
            let named = |e: NodeEvent| batch.iter().any(|&(_, b)| b == TopologyEvent::Node(e));
            let removed = !present && named(NodeEvent::Crash(v as NodeId));
            let joined = present && named(NodeEvent::Join(v as NodeId));
            if (present || removed) && !self.crashed(round, v) {
                let (removed_ports, inserted_ports) = (&lost[v][..], &gained[v][..]);
                let delta = TopologyDelta {
                    epoch,
                    batch: size,
                    removed_ports,
                    inserted_ports,
                    removed,
                    joined,
                };
                match self.nodes[v].on_topology(&ctx(&self.topo, v, round), &delta) {
                    RepairAction::Ignored => {}
                    RepairAction::Repaired => self.stats.repaired_node_rounds += 1,
                    RepairAction::Recompute => self.stats.recompute_fallbacks += 1,
                }
            }
        }
        Ok(())
    }

    /// Runs to quiescence; same contract as
    /// [`Simulator::run`](crate::Simulator::run), minus the `Send` bounds.
    ///
    /// # Errors
    ///
    /// The first bandwidth, port or plan violation, or
    /// [`SimError::RoundLimitExceeded`] past [`Config::max_rounds`].
    pub fn run(mut self) -> Result<Report<A::Output>, SimError> {
        let (started, n) = (std::time::Instant::now(), self.nodes.len());
        let plan = self.config.topology.clone().unwrap_or_default();
        let (events, mut applied) = (plan.events(), 0);
        let boots: Vec<usize> = (0..n).filter(|&v| !self.crashed(0, v)).collect();
        let started_nodes = boots.len() as u64;
        self.emit(TraceEvent::RunStart {
            phase: self.config.phase.clone(),
            nodes: n as u64,
            edges: self.topo.num_directed_edges() as u64,
            started: started_nodes,
        });
        for v in boots {
            self.step(v, vec![])?;
        }
        self.stats.scheduled_node_rounds = started_nodes;
        self.stats.max_scheduled_per_round = started_nodes;
        // Round 0 polls every node; one that never booted, in its initial state.
        let mut votes = self.poll(|_| true);
        // The engines' rule: a unanimous `Shutdown`, or no `Active` vote and silence.
        while applied < events.len()
            || !(votes[2] == n as u64 || votes[0] == 0 && self.in_flight() == 0)
        {
            if self.stats.rounds >= self.config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                });
            }
            self.stats.rounds += 1;
            let round = self.stats.rounds;
            let due = events.partition_point(|&(r, _)| r <= round);
            if due > applied {
                self.churn(&events[applied..due])?;
                applied = due;
            }
            // This round polls the present nodes with arrivals or awake.
            let awake = |v: usize| !self.queues[v].is_empty() || self.nodes[v].is_active();
            let polled: Vec<bool> = (0..n)
                .map(|v| self.topo.node_present(v as NodeId) && awake(v))
                .collect();
            let delivered = self.in_flight();
            let scheduled = polled.iter().filter(|&&p| p).count() as u64;
            let stats = &mut self.stats;
            stats.max_messages_per_round = stats.max_messages_per_round.max(delivered);
            stats.scheduled_node_rounds += scheduled;
            stats.max_scheduled_per_round = stats.max_scheduled_per_round.max(scheduled);
            self.emit(TraceEvent::RoundStart {
                round,
                delivered,
                scheduled,
            });
            for node in 0..n as NodeId {
                if self.crashed(round, node as usize) {
                    self.stats.crashed += 1;
                    self.emit(TraceEvent::Crash { round, node });
                }
            }
            let inboxes = std::mem::replace(&mut self.queues, (0..n).map(|_| vec![]).collect());
            for (v, inbox) in inboxes.into_iter().enumerate() {
                if self.topo.node_present(v as NodeId) && !self.crashed(round, v) {
                    self.step(v, inbox)?;
                }
            }
            self.emit(TraceEvent::RoundEnd { round });
            votes = self.poll(|v| polled[v]);
        }
        let (round, in_flight) = (self.stats.rounds, self.in_flight());
        self.emit(TraceEvent::EarlyTermination { round, in_flight });
        let node_votes: Vec<_> = (0..n)
            .map(|v| (v as NodeId, self.nodes[v].quiescence()))
            .collect();
        let count = |q| node_votes.iter().filter(|&&(_, vote)| vote == q).count() as u64;
        let certificate = Some(TerminationCertificate {
            round,
            in_flight,
            reason: if votes[2] == n as u64 {
                TerminationReason::ShutdownUnanimous
            } else {
                TerminationReason::PassiveDrained
            },
            votes_active: count(Quiescence::Active),
            votes_passive: count(Quiescence::Passive),
            votes_shutdown: count(Quiescence::Shutdown),
            node_votes,
        });
        let nodes = std::mem::take(&mut self.nodes).into_iter().enumerate();
        let outputs = nodes
            .map(|(v, a)| a.into_output(&ctx(&self.topo, v, round)))
            .collect();
        self.stats.wall_time = started.elapsed();
        let messages = self.stats.messages;
        self.emit(TraceEvent::RunEnd {
            rounds: round,
            messages,
        });
        Ok(Report {
            outputs,
            stats: self.stats,
            certificate,
            sched: None,
        })
    }
}

#[cfg(test)]
mod tests {
    /// The oracle shares nothing with the engines it checks: each
    /// `use crate::…` names the node API, the topology, the config or an
    /// output type, and no engine internal is named anywhere.
    #[test]
    fn imports_only_the_node_api_and_output_types() {
        let src = include_str!("reference.rs");
        let engine = "engine::{Report, TerminationCertificate, TerminationReason};";
        let allowed = "algorithm config error message node stats topology trace";
        for path in src
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("use crate::"))
        {
            let module = path.split_once("::").map_or(path, |(m, _)| m);
            let ok = path == engine || allowed.split(' ').any(|a| a == module);
            assert!(ok, "forbidden import: {path}");
        }
        // Spelled split, so that this test does not name what it forbids.
        let internals = "churn|:: store|:: Quiescence|State Churn|State from|_votes";
        for name in internals.split(' ').map(|s| s.replace('|', "")) {
            assert!(!src.contains(&name), "names an engine internal: {name}");
        }
    }
}
