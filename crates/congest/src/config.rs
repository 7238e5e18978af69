//! Simulation parameters.

use crate::error::SimError;
use crate::message::bits_for_id;
use crate::obs::ObserverHandle;

/// One deterministic loss pattern inside a [`FaultPlan`].
///
/// Every rule is a pure function of `(seed, round, sender, port)` — no
/// hidden RNG state — so the adversary is identical across executors,
/// thread counts, and reruns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossRule {
    /// Drop each delivery independently with `probability`.
    Uniform {
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Periodic interference: the loss probability applies only while
    /// `round % period < len`; outside the burst the rule drops nothing.
    Burst {
        /// Drop probability during a burst.
        probability: f64,
        /// Length of the repeating cycle, in rounds (`0` disables the rule).
        period: u64,
        /// How many rounds at the start of each cycle are lossy.
        len: u64,
    },
}

impl LossRule {
    /// The effective drop probability of this rule at `round`.
    fn probability_at(&self, round: u64) -> f64 {
        match *self {
            LossRule::Uniform { probability } => probability,
            LossRule::Burst {
                probability,
                period,
                len,
            } => {
                if period > 0 && round % period < len {
                    probability
                } else {
                    0.0
                }
            }
        }
    }
}

/// A scheduled crash: `node` is down for every round in
/// `from_round..until_round` and restarts (with its state intact, as under
/// crash-recovery with stable storage) at `until_round`.
///
/// While crashed, a node is not stepped at all and every message addressed
/// to it is discarded at delivery time; since the schedule is part of the
/// static plan, both facts are decided at the engine's single validation
/// point and the run stays bit-for-bit identical across executors.
///
/// A crash is *not* a topology change: a crashed node keeps its edges and
/// its neighbors keep their ports to it — sends into the window drop with
/// [`DropReason::ReceiverCrashed`] and the node resumes where it left off.
/// Contrast [`NodeEvent::Crash`] in a [`TopologyPlan`], which *removes*
/// the node, with its edges, before a run starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: u32,
    /// First round (inclusive) the node is down.
    pub from_round: u64,
    /// First round the node is up again (exclusive end of the window).
    pub until_round: u64,
}

/// A composable deterministic fault adversary: any number of loss rules
/// plus a schedule of node crash windows.
///
/// Each delivery's fate is a SplitMix64-style hash of `(seed, round,
/// sender, port)` compared against the rule's probability — reproducible
/// across runs. Loss rules compose as independent adversaries — a message
/// is dropped if *any* rule drops it — and each rule hashes with its own
/// salt so rules never correlate.
///
/// The paper's model assumes reliable synchronous links; fault plans exist
/// to *break* that assumption reproducibly, so the recovery layer
/// (`ReliableKernel` in `dapsp-core`) and the tests around it have a
/// deterministic adversary to run against.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of every drop decision.
    pub seed: u64,
    /// Loss rules, composed as independent adversaries.
    pub losses: Vec<LossRule>,
    /// Scheduled crash windows (may overlap; a node is down while any of
    /// its windows covers the round).
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// An empty plan (no loss, no crashes) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            losses: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Uniform loss with `probability`, no crashes.
    pub fn uniform_loss(probability: f64, seed: u64) -> Self {
        FaultPlan::new(seed).with_rule(LossRule::Uniform { probability })
    }

    /// Adds a loss rule.
    pub fn with_rule(mut self, rule: LossRule) -> Self {
        self.losses.push(rule);
        self
    }

    /// Schedules `node` to be crashed for `from_round..until_round`.
    pub fn with_crash(mut self, node: u32, from_round: u64, until_round: u64) -> Self {
        self.crashes.push(CrashWindow {
            node,
            from_round,
            until_round,
        });
        self
    }

    /// Whether the message sent by `node` on `port` in `round` is dropped
    /// by some loss rule. Crash-induced drops are separate (see
    /// [`FaultPlan::crashed`]).
    pub fn drops(&self, round: u64, node: u32, port: u32) -> bool {
        self.losses.iter().enumerate().any(|(i, rule)| {
            let probability = rule.probability_at(round);
            if probability <= 0.0 {
                return false;
            }
            if probability >= 1.0 {
                return true;
            }
            // Salt the seed per rule (rule 0 keeps the plain seed), then
            // SplitMix64-hash the coordinates.
            let salted = self
                .seed
                .wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let mut z = salted
                .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(u64::from(node) << 32)
                .wrapping_add(u64::from(port));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) < probability
        })
    }

    /// Whether `node` is down at `round`.
    pub fn crashed(&self, round: u64, node: u32) -> bool {
        self.crashes
            .iter()
            .any(|w| w.node == node && round >= w.from_round && round < w.until_round)
    }

    /// True if the plan schedules at least one crash window.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// The nodes down at `round`, deduplicated, in increasing id order —
    /// the deterministic order the engines emit
    /// [`TraceEvent::Crash`](crate::TraceEvent::Crash) in.
    pub fn crashed_nodes(&self, round: u64) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .crashes
            .iter()
            .filter(|w| round >= w.from_round && round < w.until_round)
            .map(|w| w.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Refuses a plan no run can honour: a loss probability that is NaN
    /// or outside `[0, 1]`, or a crash window naming a node outside the
    /// `num_nodes`-node network. Both engines call this before round 0.
    pub(crate) fn check(&self, num_nodes: usize) -> Result<(), SimError> {
        for rule in &self.losses {
            let (LossRule::Uniform { probability } | LossRule::Burst { probability, .. }) = *rule;
            if !(0.0..=1.0).contains(&probability) {
                return Err(SimError::InvalidFaultPlan(format!(
                    "loss probability {probability} is not in [0, 1]"
                )));
            }
        }
        match self.crashes.iter().find(|w| w.node as usize >= num_nodes) {
            Some(w) => Err(SimError::InvalidFaultPlan(format!(
                "a crash window names node {}, outside the {num_nodes}-node network",
                w.node
            ))),
            None => Ok(()),
        }
    }
}

/// Why the engine discarded a message (see
/// [`TraceEvent::Drop`](crate::TraceEvent::Drop)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A loss rule of the active [`FaultPlan`] dropped it in transit.
    Loss,
    /// The receiver is inside a [`CrashWindow`] at the delivery round.
    ReceiverCrashed,
}

/// An edge edit in a [`TopologyPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeEvent {
    /// Insert the undirected edge `u – v`.
    Insert {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Remove the edge `u – v`.
    Remove {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

/// A node edit in a [`TopologyPlan`].
///
/// `Crash` here means *removal from the network* — the node's edges go
/// with it, and it stays absent across later plans until a `Join` — which
/// is deliberately different from a [`CrashWindow`] fault, where the node
/// keeps its edges and recovers within the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeEvent {
    /// Remove the node and every edge incident to it; the id stays
    /// allocated (and may later [`NodeEvent::Join`] back, edgeless).
    Crash(u32),
    /// Re-join a removed node with no edges; follow with
    /// [`EdgeEvent::Insert`] entries to connect it.
    Join(u32),
}

/// One entry of a [`TopologyPlan`]: an edge or node mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyEvent {
    /// An edge insertion or removal.
    Edge(EdgeEvent),
    /// A node removal or (re-)join.
    Node(NodeEvent),
}

/// An edit batch of topology events, applied between runs by
/// [`churned_topology`](crate::churned_topology) — never inside one: the
/// CONGEST model's network is fixed for the length of a run.
///
/// Each event carries a round, which only orders the batch: events apply
/// by round and, within a round, in insertion order, so a plan whose
/// events all sit at round 1 applies the same way.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TopologyPlan {
    /// `(round, event)` entries, kept sorted by round (stable, so same-round
    /// entries keep their insertion order).
    events: Vec<(u64, TopologyEvent)>,
}

impl TopologyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        TopologyPlan::default()
    }

    /// Adds an event, ordered by `round`.
    pub fn at(mut self, round: u64, event: TopologyEvent) -> Self {
        let pos = self.events.partition_point(|&(r, _)| r <= round);
        self.events.insert(pos, (round, event));
        self
    }

    /// Adds the insertion of edge `u – v`, ordered by `round`.
    pub fn with_insert(self, round: u64, u: u32, v: u32) -> Self {
        self.at(round, TopologyEvent::Edge(EdgeEvent::Insert { u, v }))
    }

    /// Adds the removal of edge `u – v`, ordered by `round`.
    pub fn with_remove(self, round: u64, u: u32, v: u32) -> Self {
        self.at(round, TopologyEvent::Edge(EdgeEvent::Remove { u, v }))
    }

    /// Adds the removal of `node` (and all its edges), ordered by `round`.
    pub fn with_crash(self, round: u64, node: u32) -> Self {
        self.at(round, TopologyEvent::Node(NodeEvent::Crash(node)))
    }

    /// Adds the edgeless re-join of `node`, ordered by `round`.
    pub fn with_join(self, round: u64, node: u32) -> Self {
        self.at(round, TopologyEvent::Node(NodeEvent::Join(node)))
    }

    /// All entries, sorted by round.
    pub fn events(&self) -> &[(u64, TopologyEvent)] {
        &self.events
    }
}

/// Which executor drives the round pipeline in
/// [`Simulator::run`](crate::Simulator::run).
///
/// Every executor produces bit-for-bit identical runs — outputs,
/// statistics, and every observer event — because outboxes are always
/// validated and booked in node-id order. The choice only affects
/// wall-clock time (see `DESIGN.md` §"Phase pipeline").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Single-threaded, in-place pipeline: every phase runs on the calling
    /// thread with zero coordination overhead. The default.
    #[default]
    Serial,
    /// A persistent pool of worker threads created once per run (never per
    /// round). The round's schedule is cut into fixed-size chunks dealt
    /// into per-worker deques; an idle worker steals the back half of a
    /// loaded deque, so a high-degree frontier node cannot serialize its
    /// worker's whole share. Workers only step nodes: each chunk carries
    /// its nodes' outboxes back, and the calling thread commits them in
    /// schedule order through the serial executor's commit path, which
    /// keeps results bit-identical to serial no matter who stole what.
    /// The calling thread doubles as the first worker (it owns deque 0),
    /// so `workers` threads of compute spawn only `workers - 1` new
    /// threads. Chunks hold `max(16, schedule / (4 · workers))` nodes.
    Pool {
        /// Number of worker threads. Clamped at run time to
        /// `1..=num_nodes`, so oversubscribing a small network degrades to
        /// one node per worker rather than idle threads.
        workers: usize,
    },
}

/// Parameters of a simulation run.
///
/// Construct with [`Config::for_n`] for the paper's standard setting
/// (`B = Θ(log n)`), then adjust fields with the builder-style setters.
///
/// # Examples
///
/// ```
/// use dapsp_congest::Config;
///
/// let cfg = Config::for_n(1024).with_max_rounds(50_000);
/// assert_eq!(cfg.bandwidth_bits, 2 * 10 + 8);
/// ```
#[derive(Clone, Debug)]
pub struct Config {
    /// Per-edge, per-direction, per-round bandwidth `B` in bits.
    pub bandwidth_bits: u32,
    /// Hard cap on the number of rounds; exceeding it aborts the run with
    /// [`SimError::RoundLimitExceeded`](crate::SimError::RoundLimitExceeded).
    pub max_rounds: u64,
    /// Optional deterministic fault adversary (message loss + node
    /// crashes); see [`FaultPlan`].
    pub faults: Option<FaultPlan>,
    /// Which executor drives the round pipeline (default
    /// [`ExecutorKind::Serial`]). Any choice produces bit-for-bit identical
    /// runs: outboxes are always committed in node-id order, so outputs,
    /// statistics, traces, and round counts do not depend on this.
    pub executor: ExecutorKind,
    /// Optional observer receiving the run's events and round timings as
    /// it executes (see [`crate::obs`]). `None` — the default — keeps every
    /// emission site a single branch, so observation is free when disabled.
    pub observer: Option<ObserverHandle>,
    /// Label attached to this run's `RunStart` observer event; composite
    /// pipelines set one per phase (e.g. `"apsp:waves"`).
    pub phase: String,
}

/// Equality over the *simulation semantics* only: the `observer` handle is
/// ignored (two configs that simulate identically compare equal whether or
/// not someone is watching), mirroring how
/// [`RunStats`](crate::RunStats)' equality ignores wall time. The `phase`
/// label participates: it is part of what a run reports about itself.
impl PartialEq for Config {
    fn eq(&self, other: &Self) -> bool {
        self.bandwidth_bits == other.bandwidth_bits
            && self.max_rounds == other.max_rounds
            && self.faults == other.faults
            && self.executor == other.executor
            && self.phase == other.phase
    }
}

impl Config {
    /// The standard CONGEST setting for an `n`-node network:
    /// `B = 2·⌈log₂ n⌉ + 8` bits — enough for one node id, one hop count,
    /// and a small message tag, i.e. "a constant number of node or edge IDs
    /// per message" (§2 of the paper).
    ///
    /// The round limit defaults to `max(10_000, 64·n)`, far above any of the
    /// `O(n)` algorithms in this crate family, so hitting it indicates a
    /// bug (e.g. a message loop) rather than a slow algorithm.
    pub fn for_n(n: usize) -> Self {
        Config {
            bandwidth_bits: 2 * bits_for_id(n) + 8,
            max_rounds: 10_000u64.max(64 * n as u64),
            faults: None,
            executor: ExecutorKind::Serial,
            observer: None,
            phase: String::new(),
        }
    }

    /// Overrides the bandwidth `B` (bits per edge-direction per round).
    pub fn with_bandwidth_bits(mut self, bits: u32) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Overrides the round budget.
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Injects uniform deterministic message loss — shorthand for
    /// [`FaultPlan::uniform_loss`].
    pub fn with_loss(self, probability: f64, seed: u64) -> Self {
        self.with_faults(FaultPlan::uniform_loss(probability, seed))
    }

    /// Installs a composable fault adversary (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the round-pipeline executor (see [`ExecutorKind`]).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches an observer receiving live round/message/timing events
    /// (see [`crate::obs`]). Cloning a config shares the handle, so one
    /// observer can watch every phase of a composite pipeline.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Labels this run's observer events (e.g. `"ssp:growth"`).
    pub fn with_phase(mut self, phase: impl Into<String>) -> Self {
        self.phase = phase.into();
        self
    }
}

impl Default for Config {
    /// Equivalent to `Config::for_n(1 << 16)`: a 40-bit bandwidth suitable
    /// for networks of up to 65 536 nodes.
    fn default() -> Self {
        Config::for_n(1 << 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_scales_with_log_n() {
        assert_eq!(Config::for_n(2).bandwidth_bits, 2 + 8);
        assert_eq!(Config::for_n(1 << 10).bandwidth_bits, 20 + 8);
        assert!(Config::for_n(1 << 20).bandwidth_bits > Config::for_n(1 << 10).bandwidth_bits);
    }

    #[test]
    fn builder_setters() {
        let c = Config::for_n(8).with_bandwidth_bits(5).with_max_rounds(7);
        assert_eq!(c.bandwidth_bits, 5);
        assert_eq!(c.max_rounds, 7);
    }

    #[test]
    fn default_is_for_64k() {
        assert_eq!(Config::default(), Config::for_n(1 << 16));
    }

    #[test]
    fn with_executor_is_explicit_selection() {
        let c = Config::for_n(8).with_executor(ExecutorKind::Pool { workers: 3 });
        assert_eq!(c.executor, ExecutorKind::Pool { workers: 3 });
        assert_ne!(c, Config::for_n(8));
        assert_eq!(Config::for_n(8).executor, ExecutorKind::Serial);
        assert_eq!(ExecutorKind::default(), ExecutorKind::Serial);
    }

    #[test]
    fn equality_ignores_observer_but_not_phase() {
        use crate::obs::{PhaseProfiler, SharedObserver};
        let base = Config::for_n(8);
        let watched = base
            .clone()
            .with_observer(SharedObserver::new(PhaseProfiler::new()).observer());
        assert_eq!(base, watched);
        assert_ne!(base, base.clone().with_phase("bfs"));
    }

    /// Drop decisions are a pinned function of `(seed, round, node, port)`:
    /// the fingerprints of a uniform and a two-rule plan over 1 600
    /// coordinates move iff one decision does.
    #[test]
    fn drop_decisions_are_pinned() {
        let fingerprint = |plan: &FaultPlan| {
            let (mut hits, mut hash) = (0u32, 0u64);
            for round in 0..200 {
                for node in [0, 7] {
                    for port in 0..4 {
                        let drop = plan.drops(round, node, port);
                        hits += u32::from(drop);
                        hash = hash.wrapping_mul(31).wrapping_add(u64::from(drop));
                    }
                }
            }
            (hits, hash)
        };
        let uniform = FaultPlan::uniform_loss(0.3, 42);
        let composed = FaultPlan::uniform_loss(0.2, 7).with_rule(LossRule::Burst {
            probability: 0.5,
            period: 10,
            len: 4,
        });
        assert_eq!(fingerprint(&uniform), (474, 16_459_597_100_168_937_138));
        assert_eq!(fingerprint(&FaultPlan::uniform_loss(0.0, 7)).0, 0);
        assert_eq!(fingerprint(&FaultPlan::uniform_loss(1.0, 7)).0, 1_600);
        assert_eq!(fingerprint(&composed), (566, 14_611_977_859_473_556_324));
    }

    #[test]
    fn burst_rule_is_quiet_outside_its_window() {
        let plan = FaultPlan::new(9).with_rule(LossRule::Burst {
            probability: 1.0,
            period: 10,
            len: 3,
        });
        for round in 0..50u64 {
            let expect = round % 10 < 3;
            assert_eq!(plan.drops(round, 0, 0), expect, "round={round}");
        }
        // A zero period disables the rule instead of dividing by zero.
        let degenerate = FaultPlan::new(9).with_rule(LossRule::Burst {
            probability: 1.0,
            period: 0,
            len: 3,
        });
        assert!(!degenerate.drops(5, 0, 0));
    }

    #[test]
    fn composed_rules_drop_when_any_rule_drops() {
        let burst = LossRule::Burst {
            probability: 1.0,
            period: 7,
            len: 1,
        };
        let solo_uniform = FaultPlan::new(3).with_rule(LossRule::Uniform { probability: 0.2 });
        let composed = solo_uniform.clone().with_rule(burst);
        for round in 0..100u64 {
            let expect = solo_uniform.drops(round, 2, 1) || round % 7 == 0;
            assert_eq!(composed.drops(round, 2, 1), expect, "round={round}");
        }
    }

    #[test]
    fn crash_windows_cover_half_open_ranges() {
        let plan = FaultPlan::new(0)
            .with_crash(3, 5, 8)
            .with_crash(1, 6, 7)
            .with_crash(3, 20, 22);
        assert!(!plan.crashed(4, 3));
        assert!(plan.crashed(5, 3));
        assert!(plan.crashed(7, 3));
        assert!(!plan.crashed(8, 3)); // restarted
        assert!(plan.crashed(21, 3));
        assert!(!plan.crashed(6, 0));
        assert!(plan.has_crashes());
        assert!(!FaultPlan::new(0).has_crashes());
        assert_eq!(plan.crashed_nodes(6), vec![1, 3]);
        assert_eq!(plan.crashed_nodes(0), Vec::<u32>::new());
    }

    #[test]
    fn topology_plan_sorts_stably_by_round() {
        let plan = TopologyPlan::new()
            .with_remove(5, 0, 1)
            .with_insert(2, 2, 3)
            .with_crash(5, 4)
            .with_join(9, 4)
            .with_insert(5, 0, 2);
        let rounds: Vec<u64> = plan.events().iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![2, 5, 5, 5, 9]);
        // Same-round entries keep insertion order.
        assert_eq!(
            plan.events()[1..4],
            [
                (5, TopologyEvent::Edge(EdgeEvent::Remove { u: 0, v: 1 })),
                (5, TopologyEvent::Node(NodeEvent::Crash(4))),
                (5, TopologyEvent::Edge(EdgeEvent::Insert { u: 0, v: 2 })),
            ]
        );
        assert!(TopologyPlan::new().events().is_empty());
    }

    #[test]
    fn with_loss_builds_a_uniform_fault_plan() {
        let c = Config::for_n(8).with_loss(0.25, 11);
        assert_eq!(c.faults, Some(FaultPlan::uniform_loss(0.25, 11)));
        let crashy = Config::for_n(8).with_faults(FaultPlan::new(0).with_crash(2, 1, 4));
        assert!(crashy.faults.unwrap().crashed(2, 2));
    }
}
