//! Round, message, and bit accounting.

use crate::obs::TransportSummary;

/// Aggregate statistics of a completed run.
///
/// Rounds are the CONGEST complexity measure; messages and bits let the
/// benchmarks reproduce the paper's §3.2 communication-volume comparisons
/// (e.g. S-SP exchanging `O((|S|+D)·m)` messages).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Number of synchronous communication rounds executed.
    pub rounds: u64,
    /// Total messages delivered over the whole run.
    pub messages: u64,
    /// Total payload bits delivered over the whole run.
    pub bits: u64,
    /// Largest single message observed, in bits (always `<= B` in a
    /// successful run — the simulator enforces it).
    pub max_message_bits: u32,
    /// Largest number of messages delivered in any single round.
    pub max_messages_per_round: u64,
    /// Messages dropped by fault injection — loss rules plus deliveries
    /// into crash windows (see [`FaultPlan`](crate::FaultPlan)); always 0
    /// without a fault plan.
    pub dropped: u64,
    /// Crashed node-rounds: how many times some node sat out a round
    /// inside a [`CrashWindow`](crate::CrashWindow); always 0 without
    /// scheduled crashes.
    pub crashed: u64,
    /// Events of the [`TopologyPlan`](crate::TopologyPlan) applied
    /// before the run (edge inserts/removes, node removals/joins; see
    /// [`churned_topology`](crate::churned_topology)); 0 for a run on an
    /// unchanged topology. The engine itself never changes the network.
    pub topo_events: u64,
    /// Always 0; read only by `benchmark/src/harness.rs:449-454`.
    pub repaired_node_rounds: u64,
    /// Always 0; read only by `benchmark/src/harness.rs:449-454`.
    pub recompute_fallbacks: u64,
    /// Scheduled node-rounds: total nodes placed on a round schedule
    /// (arrivals waiting or awake) over the whole run, with round 0
    /// counting every node that ran `on_start`. The dense engines step
    /// `rounds × n` node-rounds; the ratio against this counter is the
    /// sparseness the active-set engine exploits.
    pub scheduled_node_rounds: u64,
    /// Largest single-round scheduled count (round 0 included).
    pub max_scheduled_per_round: u64,
    /// Frontier chunks stepped by the pool executor's work-stealing
    /// scheduler over the whole run; always 0 on executors without a
    /// chunk scheduler. Like `wall_time`, this is scheduling telemetry —
    /// excluded from equality so serial and pool runs of the same
    /// simulation still compare equal.
    pub chunks_stepped: u64,
    /// Chunks executed by a worker other than their home worker (see
    /// [`PoolSched`](crate::PoolSched)). Timing-dependent run to run;
    /// excluded from equality alongside `chunks_stepped`.
    pub steals: u64,
    /// What the reliable transport did, summed over the phases that ran
    /// wrapped in it; all zero for a run over reliable links.
    /// Deterministic; participates in equality.
    pub transport: TransportSummary,
    /// Wall-clock time of the run, filled in by the simulator. Excluded
    /// from equality so determinism checks (`stats_a == stats_b`) compare
    /// only model-level quantities.
    pub wall_time: std::time::Duration,
}

/// Equality over the model-level counters only; `wall_time` and the
/// scheduler telemetry (`chunks_stepped`, `steals`) are ignored so that
/// two runs of the same deterministic simulation compare equal regardless
/// of executor and load balance.
impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.bits == other.bits
            && self.max_message_bits == other.max_message_bits
            && self.max_messages_per_round == other.max_messages_per_round
            && self.dropped == other.dropped
            && self.crashed == other.crashed
            && self.topo_events == other.topo_events
            && self.scheduled_node_rounds == other.scheduled_node_rounds
            && self.max_scheduled_per_round == other.max_scheduled_per_round
            && self.transport == other.transport
    }
}

impl Eq for RunStats {}

impl RunStats {
    /// The fraction of stepped chunks that were stolen (0 when no chunks
    /// were stepped, e.g. on the serial executor). A well-balanced
    /// frontier keeps this near 0; a hub-dominated frontier pushes it up
    /// as idle workers drain the hub chunks' home deque.
    pub fn steal_fraction(&self) -> f64 {
        if self.chunks_stepped == 0 {
            0.0
        } else {
            self.steals as f64 / self.chunks_stepped as f64
        }
    }

    /// Accumulates another run's statistics into this one, summing rounds
    /// and wall-clock time — used when an algorithm is composed of
    /// sequential phases.
    pub fn absorb_sequential(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.max_messages_per_round = self
            .max_messages_per_round
            .max(other.max_messages_per_round);
        self.dropped += other.dropped;
        self.crashed += other.crashed;
        self.topo_events += other.topo_events;
        self.scheduled_node_rounds += other.scheduled_node_rounds;
        self.max_scheduled_per_round = self
            .max_scheduled_per_round
            .max(other.max_scheduled_per_round);
        self.chunks_stepped += other.chunks_stepped;
        self.steals += other.steals;
        self.transport.absorb(&other.transport);
        self.wall_time += other.wall_time;
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits",
            self.rounds, self.messages, self.bits
        )?;
        if self.max_messages_per_round > 0 {
            write!(f, ", peak {}/round", self.max_messages_per_round)?;
        }
        if self.dropped > 0 {
            write!(f, ", {} dropped", self.dropped)?;
        }
        if self.crashed > 0 {
            write!(f, ", {} crashed node-rounds", self.crashed)?;
        }
        if self.topo_events > 0 {
            write!(f, ", {} topology events", self.topo_events)?;
        }
        if self.chunks_stepped > 0 {
            write!(
                f,
                ", {} chunks ({} stolen)",
                self.chunks_stepped, self.steals
            )?;
        }
        let t = &self.transport;
        if t.frames_sent > 0 {
            write!(
                f,
                ", {} simulated rounds, {} frames ({} resent), {} acks",
                t.sim_rounds, t.frames_sent, t.retransmissions, t.acks_sent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = RunStats {
            rounds: 10,
            messages: 100,
            bits: 1000,
            max_message_bits: 16,
            max_messages_per_round: 30,
            dropped: 1,
            crashed: 4,
            topo_events: 2,
            repaired_node_rounds: 0,
            recompute_fallbacks: 0,
            scheduled_node_rounds: 40,
            max_scheduled_per_round: 8,
            chunks_stepped: 6,
            steals: 2,
            transport: TransportSummary {
                sim_rounds: 7,
                frames_sent: 9,
                ..TransportSummary::default()
            },
            wall_time: std::time::Duration::from_millis(3),
        };
        let b = RunStats {
            rounds: 5,
            messages: 50,
            bits: 700,
            max_message_bits: 20,
            max_messages_per_round: 10,
            dropped: 2,
            crashed: 1,
            topo_events: 3,
            repaired_node_rounds: 0,
            recompute_fallbacks: 0,
            scheduled_node_rounds: 25,
            max_scheduled_per_round: 12,
            chunks_stepped: 3,
            steals: 1,
            transport: TransportSummary {
                sim_rounds: 4,
                frames_sent: 6,
                retransmissions: 1,
                acks_sent: 5,
                truncated_sends: 0,
            },
            wall_time: std::time::Duration::from_millis(4),
        };
        a.absorb_sequential(&b);
        assert_eq!(a.rounds, 15);
        assert_eq!(a.messages, 150);
        assert_eq!(a.bits, 1700);
        assert_eq!(a.max_message_bits, 20);
        assert_eq!(a.max_messages_per_round, 30);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.crashed, 5);
        assert_eq!(a.topo_events, 5);
        assert_eq!(a.scheduled_node_rounds, 65);
        assert_eq!(a.max_scheduled_per_round, 12);
        assert_eq!(a.chunks_stepped, 9);
        assert_eq!(a.steals, 3);
        // Sequential phases: simulated rounds add up like real ones.
        let t = a.transport;
        assert_eq!(
            (t.sim_rounds, t.frames_sent, t.retransmissions),
            (11, 15, 1)
        );
        assert_eq!((t.acks_sent, t.truncated_sends), (5, 0));
        assert_eq!(a.wall_time, std::time::Duration::from_millis(7));
    }

    #[test]
    fn equality_ignores_scheduler_telemetry() {
        let a = RunStats {
            rounds: 3,
            chunks_stepped: 12,
            steals: 4,
            ..RunStats::default()
        };
        let b = RunStats {
            rounds: 3,
            ..RunStats::default()
        };
        assert_eq!(a, b);
        assert!((a.steal_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(b.steal_fraction(), 0.0);
    }

    #[test]
    fn equality_ignores_wall_time() {
        let a = RunStats {
            rounds: 3,
            wall_time: std::time::Duration::from_secs(1),
            ..RunStats::default()
        };
        let b = RunStats {
            rounds: 3,
            wall_time: std::time::Duration::from_secs(9),
            ..RunStats::default()
        };
        assert_eq!(a, b);
        let c = RunStats {
            rounds: 4,
            ..RunStats::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn display_mentions_rounds() {
        let s = RunStats {
            rounds: 3,
            ..RunStats::default()
        };
        assert!(s.to_string().contains("3 rounds"));
        // Zero-valued optional counters stay out of the rendering.
        assert!(!s.to_string().contains("peak"));
        assert!(!s.to_string().contains("dropped"));
        assert!(!s.to_string().contains("frames"));
    }

    #[test]
    fn display_includes_drops_and_peak_when_nonzero() {
        let s = RunStats {
            rounds: 3,
            messages: 9,
            max_messages_per_round: 4,
            dropped: 2,
            crashed: 3,
            ..RunStats::default()
        };
        let rendered = s.to_string();
        assert!(rendered.contains("peak 4/round"), "{rendered}");
        assert!(rendered.contains("2 dropped"), "{rendered}");
        assert!(rendered.contains("3 crashed node-rounds"), "{rendered}");
        let mut reliable = s;
        (
            reliable.transport.sim_rounds,
            reliable.transport.frames_sent,
        ) = (5, 8);
        (
            reliable.transport.retransmissions,
            reliable.transport.acks_sent,
        ) = (2, 6);
        let rendered = reliable.to_string();
        let tail = ", 5 simulated rounds, 8 frames (2 resent), 6 acks";
        assert!(rendered.ends_with(tail), "{rendered}");
    }

    #[test]
    fn topology_events_participate_in_equality_and_display() {
        let churned = RunStats {
            rounds: 3,
            topo_events: 2,
            ..RunStats::default()
        };
        let quiet = RunStats {
            rounds: 3,
            ..RunStats::default()
        };
        assert_ne!(churned, quiet);
        let rendered = churned.to_string();
        assert!(rendered.ends_with("2 topology events"), "{rendered}");
        assert!(!quiet.to_string().contains("topology"));
    }
}
