//! The oracle the equivalence tests hold [`Simulator`](crate::Simulator)
//! to: a naive, dense round loop sharing none of the code it checks. It
//! uses only the node API, [`Topology`]'s public reads, [`Config`] and the
//! report types (the test below enforces this), steps every non-crashed
//! node over freshly allocated queues, and writes out its own votes and
//! certificate.

use crate::algorithm::{NodeAlgorithm, Quiescence};
use crate::config::{Config, DropReason};
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
    topo: &'t Topology,
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
            topo: topology,
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
        let (mut out, ctx) = (Outbox::new(), ctx(self.topo, v, round));
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
            // Loss outranks a crash window.
            let to = self.topo.neighbor_at(node, port);
            let faults = self.config.faults.as_ref();
            let reason = if faults.is_some_and(|f| f.drops(round, node, port)) {
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

    /// Runs to quiescence; same contract as
    /// [`Simulator::run`](crate::Simulator::run), minus the `Send` bounds.
    ///
    /// # Errors
    ///
    /// A fault plan that cannot apply to the network, the first bandwidth
    /// or port violation, or [`SimError::RoundLimitExceeded`] past
    /// [`Config::max_rounds`].
    pub fn run(mut self) -> Result<Report<A::Output>, SimError> {
        let (started, n) = (std::time::Instant::now(), self.nodes.len());
        if let Some(plan) = &self.config.faults {
            plan.check(n)?;
        }
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
        while !(votes[2] == n as u64 || votes[0] == 0 && self.in_flight() == 0) {
            if self.stats.rounds >= self.config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                });
            }
            self.stats.rounds += 1;
            let round = self.stats.rounds;
            // This round polls the nodes with arrivals or awake.
            let awake = |v: usize| !self.queues[v].is_empty() || self.nodes[v].is_active();
            let polled: Vec<bool> = (0..n).map(awake).collect();
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
                if !self.crashed(round, v) {
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
            .map(|(v, a)| a.into_output(&ctx(self.topo, v, round)))
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
