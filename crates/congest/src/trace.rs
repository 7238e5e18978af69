//! The one event type of the observer layer, and the recorder that keeps it.
//!
//! The paper's bounds are statements about *rounds, messages and waves*.
//! Every engine reports a run as a sequence of typed [`TraceEvent`]s — run
//! and round boundaries, committed messages with their kernel tags, drops
//! with reasons, crashes, quiescence vote tallies and the
//! termination decision — handed to
//! [`Observer::on_event`] in the order that
//! trait documents. Events carry no wall-clock fields (timing has its own
//! hook), so the sequence is bit-identical across the serial executor, the
//! worker pool at any thread count, and the dense seed reference engine — a
//! contract the `engine_equivalence` proptests pin.
//!
//! [`TraceRecorder`] stores the events as received — one ring entry per
//! event, so one per message — into a bounded ring that keeps the
//! *first* and *last* events of an overflowing run and counts every event
//! exactly, and folds ring-independent aggregates beside it: per-kernel
//! traffic, per-edge loads and per-stream wave arrivals (what the Lemma 1
//! and Lemma 8 checks read).
//!
//! Exports:
//!
//! * [`TraceRecorder::events_jsonl`] — one deterministic JSON line per
//!   stored event (diffing two runs is a line diff);
//! * [`TraceRecorder::to_perfetto`] — Chrome-trace/Perfetto JSON with
//!   round-scaled synthetic timestamps, the runs of a pipeline laid end to
//!   end: a `rounds` track of round spans named by phase, a per-node (or
//!   per-kernel) track of send/drop/retransmit instants, a vote counter
//!   track, and one span per wave lifetime. Load it at `ui.perfetto.dev`
//!   or `chrome://tracing`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use crate::config::DropReason;
use crate::message::TraceTags;
use crate::node::{NodeId, Port};
use crate::obs::{Observer, TransportSummary};

/// One typed event of a run. Events carry rounds, node ids, bit counts and
/// kernel attribution — never wall-clock time — so two deterministic runs
/// produce equal event sequences and `derive(PartialEq, Eq)` is the whole
/// comparison story.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run began (one per engine `run()`; composite pipelines emit one
    /// per phase).
    RunStart {
        /// Phase label from [`Config::with_phase`](crate::Config), `""` if
        /// the run is unlabeled.
        phase: String,
        /// Nodes in the topology.
        nodes: u64,
        /// Directed edges (`2m`); [`TraceEvent::Message`] edge indices
        /// range over `0..edges`.
        edges: u64,
        /// Nodes that run `on_start` (everyone not crashed at round 0).
        started: u64,
    },
    /// Round `round` begins.
    RoundStart {
        /// The starting round.
        round: u64,
        /// Messages (sent in `round - 1`) about to be delivered.
        delivered: u64,
        /// Nodes on this round's schedule (arrivals waiting or awake — the
        /// set the active-set engine steps; the dense reference engine
        /// reports the same count while still stepping everyone).
        scheduled: u64,
    },
    /// A message passed validation and was accepted for delivery at
    /// `round + 1`.
    Message {
        /// The send round (`0` for sends queued in `on_start`).
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The receiver's port the message arrives on.
        to_port: Port,
        /// The directed edge crossed, as a flat index (see
        /// [`Topology::directed_edge_index`](crate::Topology)).
        edge: u32,
        /// The opposite direction of the same undirected edge;
        /// `min(edge, reverse_edge)` is a canonical undirected-edge key.
        reverse_edge: u32,
        /// Payload bits.
        bits: u32,
        /// Logical stream, if the message reports one via
        /// [`Message::stream_id`](crate::Message::stream_id) (e.g. the BFS
        /// root a wave announcement serves).
        stream: Option<u32>,
        /// Kernel mask and transport flags (see [`TraceTags`]).
        tags: TraceTags,
    },
    /// A message was discarded by the fault plan at commit.
    Drop {
        /// The send round.
        round: u64,
        /// The sender.
        from: NodeId,
        /// The sender's port.
        port: Port,
        /// Loss rule or receiver crash window.
        reason: DropReason,
        /// The dropped frame's kernel mask and transport flags.
        tags: TraceTags,
    },
    /// A node sits out `round` inside a
    /// [`CrashWindow`](crate::CrashWindow) (one per crashed node, in
    /// node-id order).
    Crash {
        /// The round.
        round: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// Round `round` finished committing.
    RoundEnd {
        /// The finished round.
        round: u64,
    },
    /// The round's quiescence poll tally (counts sum to the polled-node
    /// count: everyone at round 0, the scheduled set afterwards — crashed
    /// scheduled nodes vote with their frozen state).
    QuiescenceVotes {
        /// The polled round.
        round: u64,
        /// Nodes voting `Active`.
        active: u64,
        /// Nodes voting `Passive`.
        passive: u64,
        /// Nodes voting `Shutdown`.
        shutdown: u64,
    },
    /// The engine stopped: the quiescence votes became terminal after
    /// `round` — the per-node certificate lives on
    /// [`Report::certificate`](crate::Report). Never emitted when the
    /// round horizon aborts the run.
    EarlyTermination {
        /// The last executed round.
        round: u64,
        /// Undelivered messages at the decision (zero unless the vote was
        /// unanimous shutdown).
        in_flight: u64,
    },
    /// The run ended with these final totals.
    RunEnd {
        /// Rounds executed.
        rounds: u64,
        /// Messages committed.
        messages: u64,
    },
    /// A reliable-transport phase's telemetry, aggregated over nodes —
    /// emitted after that phase's `RunEnd`, outside the engine, by the
    /// runner that unwraps the transport state.
    Transport(TransportSummary),
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object (one JSONL
    /// line, sans newline). Equal event streams render to equal text, so
    /// diffing two exports is a plain line diff.
    pub fn to_json(&self) -> String {
        fn tagged(tags: &TraceTags) -> String {
            format!(
                "\"kernels\":{},\"retransmit\":{},\"ack\":{}",
                tags.kernels, tags.retransmit, tags.ack
            )
        }
        match self {
            TraceEvent::RunStart {
                phase,
                nodes,
                edges,
                started,
            } => format!(
                "{{\"ev\":\"run_start\",\"phase\":\"{}\",\"nodes\":{nodes},\"edges\":{edges},\"started\":{started}}}",
                escape(phase)
            ),
            TraceEvent::RoundStart {
                round,
                delivered,
                scheduled,
            } => format!(
                "{{\"ev\":\"round_start\",\"round\":{round},\"delivered\":{delivered},\"scheduled\":{scheduled}}}"
            ),
            TraceEvent::Message {
                round,
                from,
                to,
                to_port,
                edge,
                reverse_edge,
                bits,
                stream,
                tags,
            } => format!(
                "{{\"ev\":\"message\",\"round\":{round},\"from\":{from},\"to\":{to},\"to_port\":{to_port},\"edge\":{edge},\"reverse_edge\":{reverse_edge},\"bits\":{bits},\"stream\":{},{}}}",
                stream.map_or_else(|| "null".into(), |s| s.to_string()),
                tagged(tags)
            ),
            TraceEvent::Drop {
                round,
                from,
                port,
                reason,
                tags,
            } => format!(
                "{{\"ev\":\"drop\",\"round\":{round},\"from\":{from},\"port\":{port},\"reason\":\"{reason:?}\",{}}}",
                tagged(tags)
            ),
            TraceEvent::Crash { round, node } => {
                format!("{{\"ev\":\"crash\",\"round\":{round},\"node\":{node}}}")
            }
            TraceEvent::RoundEnd { round } => {
                format!("{{\"ev\":\"round_end\",\"round\":{round}}}")
            }
            TraceEvent::QuiescenceVotes {
                round,
                active,
                passive,
                shutdown,
            } => format!(
                "{{\"ev\":\"votes\",\"round\":{round},\"active\":{active},\"passive\":{passive},\"shutdown\":{shutdown}}}"
            ),
            TraceEvent::EarlyTermination { round, in_flight } => format!(
                "{{\"ev\":\"early_termination\",\"round\":{round},\"in_flight\":{in_flight}}}"
            ),
            TraceEvent::RunEnd { rounds, messages } => {
                format!("{{\"ev\":\"run_end\",\"rounds\":{rounds},\"messages\":{messages}}}")
            }
            TraceEvent::Transport(t) => format!(
                "{{\"ev\":\"transport\",\"sim_rounds\":{},\"frames_sent\":{},\"retransmissions\":{},\"acks_sent\":{},\"truncated_sends\":{}}}",
                t.sim_rounds, t.frames_sent, t.retransmissions, t.acks_sent, t.truncated_sends
            ),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the few free-text fields (phase labels).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A bounded event buffer that survives overflow gracefully: it pins the
/// first `prefix` items ever pushed and keeps a rolling window of the last
/// `tail` items, while counting every push exactly.
///
/// Under overflow a trace therefore still shows how the run *began* and
/// how it *ended* — the two ends a debugging session needs — and
/// `overflow` says exactly how many middle events fell out.
#[derive(Clone, Debug)]
struct Ring<T> {
    prefix: Vec<T>,
    tail: VecDeque<T>,
    prefix_cap: usize,
    tail_cap: usize,
    total: u64,
}

impl<T> Ring<T> {
    /// A ring pinning the first `prefix_cap` items and rolling the last
    /// `tail_cap`.
    fn new(prefix_cap: usize, tail_cap: usize) -> Self {
        Ring {
            prefix: Vec::new(),
            tail: VecDeque::new(),
            prefix_cap,
            tail_cap,
            total: 0,
        }
    }

    /// Pushes an item, evicting the oldest tail item when full. Always
    /// counts, even when both regions are at capacity.
    fn push(&mut self, item: T) {
        self.total += 1;
        if self.prefix.len() < self.prefix_cap {
            self.prefix.push(item);
        } else if self.tail_cap > 0 {
            if self.tail.len() == self.tail_cap {
                self.tail.pop_front();
            }
            self.tail.push_back(item);
        }
    }

    /// The stored items, oldest first: the pinned prefix, then (skipping
    /// any overflowed middle) the rolling tail.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.prefix.iter().chain(self.tail.iter())
    }

    /// Items pushed but no longer stored.
    fn overflow(&self) -> u64 {
        self.total - (self.prefix.len() + self.tail.len()) as u64
    }
}

/// Run-lifetime totals attributed to one kernel presence mask (see
/// [`TraceTags::kernels`]); bit *i* names kernel *i* of the node's
/// protocol, and a mask with several bits set is a merged frame those
/// kernels shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Messages committed.
    pub messages: u64,
    /// Payload bits committed.
    pub bits: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Committed or dropped frames marked as retransmissions.
    pub retransmits: u64,
    /// Committed or dropped frames carrying an ack.
    pub acks: u64,
}

/// Default pinned-prefix capacity of a [`TraceRecorder`].
const DEFAULT_PREFIX: usize = 1 << 16;
/// Default rolling-tail capacity of a [`TraceRecorder`].
const DEFAULT_TAIL: usize = 1 << 14;

/// An [`Observer`] that stores every event of every run it watches into a
/// bounded ring, as received, while keeping exact (ring-independent)
/// aggregate counters: per-kernel traffic breakdowns, per-undirected-edge
/// total loads, and per-stream wave start/arrival rounds.
///
/// The wave maps reset at each [`TraceEvent::RunStart`] (streams are
/// run-scoped), so after a pipeline they describe its last phase — the
/// wave phase of both `apsp` and `ssp`. The ring, kernel and edge
/// aggregates accumulate across runs, with `RunStart` events delimiting
/// runs in the stream.
pub struct TraceRecorder {
    ring: Ring<TraceEvent>,
    kernels: BTreeMap<u8, KernelCounters>,
    edge_load: BTreeMap<(NodeId, NodeId), u64>,
    /// Stream → (send round, sender) of its first committed message.
    wave_start: BTreeMap<u32, (u64, NodeId)>,
    /// (stream, node) → delivery round of the stream's first message to
    /// that node.
    wave_arrival: BTreeMap<(u32, NodeId), u64>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default ring capacities: the first 2¹⁶ events
    /// pinned, the last 2¹⁴ rolling.
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_PREFIX, DEFAULT_TAIL)
    }

    /// A recorder pinning the first `prefix` events and rolling the last
    /// `tail`.
    pub fn with_capacity(prefix: usize, tail: usize) -> Self {
        TraceRecorder {
            ring: Ring::new(prefix, tail),
            kernels: BTreeMap::new(),
            edge_load: BTreeMap::new(),
            wave_start: BTreeMap::new(),
            wave_arrival: BTreeMap::new(),
        }
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Total events ever recorded — exact even when the ring overflowed.
    pub fn total_events(&self) -> u64 {
        self.ring.total
    }

    /// Events recorded but no longer stored.
    pub fn overflow(&self) -> u64 {
        self.ring.overflow()
    }

    /// Per-kernel-mask traffic totals (deterministic order: ascending
    /// mask).
    pub fn kernels(&self) -> &BTreeMap<u8, KernelCounters> {
        &self.kernels
    }

    /// The `k` most loaded undirected edges, descending (ties broken by
    /// node pair, ascending — deterministic).
    pub fn top_edges(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        let mut edges: Vec<((NodeId, NodeId), u64)> =
            self.edge_load.iter().map(|(&e, &l)| (e, l)).collect();
        edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        edges.truncate(k);
        edges
    }

    /// Per-stream wave lifetimes for the current (last) run:
    /// `(stream, start_round, origin, last_arrival_round, nodes_reached)`.
    fn wave_spans(&self) -> Vec<(u32, u64, NodeId, u64, u64)> {
        self.wave_start
            .iter()
            .map(|(&stream, &(start, origin))| {
                let mut last = start;
                let mut reached = 0u64;
                for (_, &round) in self.wave_arrival.range((stream, 0)..=(stream, NodeId::MAX)) {
                    last = last.max(round);
                    reached += 1;
                }
                (stream, start, origin, last, reached)
            })
            .collect()
    }

    /// First-arrival delivery rounds per `(stream, node)` for the current
    /// (last) run.
    pub fn wave_arrivals(&self) -> &BTreeMap<(u32, NodeId), u64> {
        &self.wave_arrival
    }

    /// Nodes first reached by two distinct streams in the same round, as
    /// `(node, send_round, stream_a, stream_b)` with the send round of the
    /// arriving messages (delivery round − 1) — Lemma 1 says Algorithm 1's
    /// wave phase produces none.
    pub fn node_collisions(&self) -> Vec<(NodeId, u64, u32, u32)> {
        let mut first: BTreeMap<(NodeId, u64), u32> = BTreeMap::new();
        let mut collisions = Vec::new();
        for (&(stream, node), &round) in &self.wave_arrival {
            match first.entry((node, round - 1)) {
                Entry::Occupied(prev) => collisions.push((node, round - 1, *prev.get(), stream)),
                Entry::Vacant(slot) => {
                    slot.insert(stream);
                }
            }
        }
        collisions.sort_unstable();
        collisions
    }

    /// The largest observed wave delay: `send_round(stream, v) −
    /// dist(stream, v)` for the first message of `stream` to reach `v`
    /// (send round = delivery round − 1), maximized over the current run's
    /// arrivals, where `dist` maps `(stream, node)` to the ideal
    /// hop-distance schedule. `None` if nothing was recorded or `dist`
    /// knows none of the pairs. Lemma 8 bounds it by `|S|`.
    pub fn max_delay(&self, dist: impl Fn(u32, NodeId) -> Option<u64>) -> Option<i64> {
        self.wave_arrival
            .iter()
            .filter_map(|(&(stream, node), &round)| {
                dist(stream, node).map(|d| round as i64 - 1 - d as i64)
            })
            .max()
    }

    /// Histogram of wave *relative delays* for the current run: entry `d`
    /// counts `(stream, node)` first arrivals that happened `d` rounds
    /// after the stream's own start round. Against the S-SP bound, every
    /// delay must stay within `dist + |S|`.
    pub fn wave_delay_histogram(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        for (&(stream, _), &round) in &self.wave_arrival {
            let start = self.wave_start.get(&stream).map_or(0, |&(s, _)| s);
            let d = round.saturating_sub(start) as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    /// All stored events as deterministic JSONL (one
    /// [`TraceEvent::to_json`] line each). Equal streams produce equal
    /// text.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.ring.iter() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Exports the trace as Chrome-trace/Perfetto JSON with synthetic
    /// round-scaled timestamps (1 round = 1000 trace µs): round spans on a
    /// `rounds` track, named `"{phase} round {r}"`, per-node or per-kernel
    /// instants for sends/drops/retransmits/acks/crashes, a `votes`
    /// counter series stamped at the end of the round it polls, and one
    /// span per wave lifetime (of the last run, like the wave maps). Open
    /// at `ui.perfetto.dev` or `chrome://tracing`.
    ///
    /// The runs of a pipeline are laid end to end: each stored run starts
    /// where the runs before it ended (its `RunEnd.rounds + 1` after the
    /// previous run's start), so every track's timestamps are
    /// non-decreasing and no two phases' round spans overlap. (Should an
    /// overflowing ring drop a run's `RunEnd`, the next stored run starts
    /// at that run's base.)
    pub fn to_perfetto(&self, track_by: TrackBy) -> String {
        const US: u64 = 1000;
        let mut out: Vec<String> = vec![
            meta_process(0, "rounds"),
            meta_process(
                1,
                match track_by {
                    TrackBy::Node => "nodes",
                    TrackBy::Kernel => "kernels",
                },
            ),
            meta_process(2, "waves"),
        ];
        let tid = |node: NodeId, kernels: u8| -> u64 {
            match track_by {
                TrackBy::Node => u64::from(node),
                TrackBy::Kernel => u64::from(kernels),
            }
        };
        // `base` is the current run's round 0 in rounds; `next` the round
        // 0 of the run after it.
        let (mut base, mut next) = (0u64, 0u64);
        let mut label = String::new();
        for e in self.ring.iter() {
            let ts = |round: u64| (base + round) * US;
            let instant = |name: String, round: u64, tid: u64| {
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                    ts(round)
                )
            };
            match *e {
                TraceEvent::RunStart { ref phase, .. } => {
                    base = next;
                    label = if phase.is_empty() {
                        String::new()
                    } else {
                        format!("{} ", escape(phase))
                    };
                }
                TraceEvent::RunEnd { rounds, .. } => next = base + rounds + 1,
                TraceEvent::RoundStart { round, .. } => out.push(format!(
                    "{{\"name\":\"{label}round {round}\",\"ph\":\"B\",\"ts\":{},\"pid\":0,\"tid\":0}}",
                    ts(round)
                )),
                TraceEvent::RoundEnd { round } => out.push(format!(
                    "{{\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":0}}",
                    ts(round + 1)
                )),
                TraceEvent::Message {
                    round,
                    from,
                    to,
                    bits,
                    tags,
                    ..
                } => {
                    // Every instant of a frame lands on the track of its
                    // own kernel mask.
                    let track = tid(from, tags.kernels);
                    out.push(format!(
                        "{{\"name\":\"send {from}\\u2192{to} k={}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{track},\"args\":{{\"bits\":{bits}}}}}",
                        tags.kernels,
                        ts(round)
                    ));
                    if tags.retransmit {
                        out.push(instant(format!("retransmit \\u2192{to}"), round, track));
                    }
                    if tags.ack {
                        out.push(instant(format!("ack \\u2192{to}"), round, track));
                    }
                }
                TraceEvent::Drop {
                    round,
                    from,
                    reason,
                    tags,
                    ..
                } => out.push(instant(
                    format!("drop {reason:?}"),
                    round,
                    tid(from, tags.kernels),
                )),
                TraceEvent::Crash { round, node } => {
                    out.push(instant("crash".into(), round, tid(node, 1)))
                }
                TraceEvent::QuiescenceVotes {
                    round,
                    active,
                    passive,
                    shutdown,
                } => out.push(format!(
                    "{{\"name\":\"votes\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"active\":{active},\"passive\":{passive},\"shutdown\":{shutdown}}}}}",
                    ts(round + 1)
                )),
                TraceEvent::EarlyTermination { round, in_flight } => out.push(format!(
                    "{{\"name\":\"early termination\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"in_flight\":{in_flight}}}}}",
                    ts(round + 1)
                )),
                TraceEvent::Transport(_) => {}
            }
        }
        for (stream, start, origin, last, reached) in self.wave_spans() {
            out.push(format!(
                "{{\"name\":\"wave {stream}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{stream},\"args\":{{\"origin\":{origin},\"reached\":{reached}}}}}",
                (base + start) * US,
                (last - start + 1) * US
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            out.join(",\n")
        )
    }
}

/// Which Perfetto track the per-message instants land on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackBy {
    /// One track per sending node.
    Node,
    /// One track per kernel presence mask.
    Kernel,
}

fn meta_process(pid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

impl Observer for TraceRecorder {
    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::RunStart { .. } => {
                self.wave_start.clear();
                self.wave_arrival.clear();
            }
            TraceEvent::Message {
                round,
                from,
                to,
                bits,
                stream,
                tags,
                ..
            } => {
                let k = self.kernels.entry(tags.kernels).or_default();
                k.messages += 1;
                k.bits += u64::from(bits);
                k.retransmits += u64::from(tags.retransmit);
                k.acks += u64::from(tags.ack);
                *self
                    .edge_load
                    .entry((from.min(to), from.max(to)))
                    .or_default() += 1;
                if let Some(stream) = stream {
                    self.wave_start.entry(stream).or_insert((round, from));
                    self.wave_arrival.entry((stream, to)).or_insert(round + 1);
                }
            }
            TraceEvent::Drop { tags, .. } => {
                let k = self.kernels.entry(tags.kernels).or_default();
                k.dropped += 1;
                k.retransmits += u64::from(tags.retransmit);
                k.acks += u64::from(tags.ack);
            }
            _ => {}
        }
        self.ring.push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_preserves_counts_and_both_ends() {
        let mut ring = Ring::new(3, 2);
        for i in 0..10u32 {
            ring.push(i);
        }
        assert_eq!(ring.total, 10);
        assert_eq!(ring.overflow(), 5);
        let stored: Vec<u32> = ring.iter().copied().collect();
        // First three pinned, last two rolled.
        assert_eq!(stored, vec![0, 1, 2, 8, 9]);
    }

    #[test]
    fn ring_without_overflow_stores_everything_in_order() {
        let mut ring = Ring::new(4, 4);
        for i in 0..6u32 {
            ring.push(i);
        }
        assert_eq!(ring.overflow(), 0);
        let stored: Vec<u32> = ring.iter().copied().collect();
        assert_eq!(stored, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn ring_tailless_keeps_first_only() {
        let mut ring = Ring::new(2, 0);
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(ring.total, 5);
        assert_eq!(ring.overflow(), 3);
    }

    fn run_start(phase: &str) -> TraceEvent {
        TraceEvent::RunStart {
            phase: phase.into(),
            nodes: 4,
            edges: 6,
            started: 4,
        }
    }

    /// A committed message of `stream` from `from` to `to` carrying `tags`.
    fn frame(
        round: u64,
        from: NodeId,
        to: NodeId,
        stream: Option<u32>,
        tags: TraceTags,
    ) -> TraceEvent {
        TraceEvent::Message {
            round,
            from,
            to,
            to_port: 0,
            edge: from,
            reverse_edge: to,
            bits: 8,
            stream,
            tags,
        }
    }

    fn msg(round: u64, from: NodeId, to: NodeId, stream: Option<u32>) -> TraceEvent {
        frame(round, from, to, stream, TraceTags::default())
    }

    fn record(events: &[TraceEvent]) -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        for e in events {
            rec.on_event(e);
        }
        rec
    }

    #[test]
    fn recorder_stores_events_as_received_and_aggregates() {
        let retx = TraceTags {
            kernels: 1,
            retransmit: true,
            ack: false,
        };
        let ack_drop = TraceEvent::Drop {
            round: 1,
            from: 2,
            port: 0,
            reason: DropReason::Loss,
            tags: TraceTags {
                kernels: 2,
                retransmit: false,
                ack: true,
            },
        };
        let events = vec![
            run_start("demo"),
            msg(0, 0, 1, Some(7)),
            TraceEvent::RoundStart {
                round: 1,
                delivered: 1,
                scheduled: 2,
            },
            frame(1, 1, 2, Some(7), retx),
            ack_drop,
            TraceEvent::RoundEnd { round: 1 },
            TraceEvent::QuiescenceVotes {
                round: 1,
                active: 0,
                passive: 2,
                shutdown: 0,
            },
            TraceEvent::EarlyTermination {
                round: 1,
                in_flight: 0,
            },
            TraceEvent::RunEnd {
                rounds: 1,
                messages: 2,
            },
        ];
        let rec = record(&events);
        // One ring entry per event, in the order received.
        assert_eq!(rec.events().cloned().collect::<Vec<_>>(), events);
        assert_eq!(rec.total_events(), events.len() as u64);

        // Aggregates: mask 1 carried both deliveries, mask 2 the drop.
        assert_eq!(rec.kernels()[&1].messages, 2);
        assert_eq!(rec.kernels()[&1].retransmits, 1);
        assert_eq!(rec.kernels()[&2].dropped, 1);
        assert_eq!(rec.kernels()[&2].acks, 1);
        assert_eq!(rec.top_edges(1), vec![((0, 1), 1)]);
        assert_eq!(rec.wave_spans(), vec![(7, 0, 0, 2, 2)]);
        assert_eq!(rec.wave_delay_histogram(), vec![0, 1, 1]);
    }

    #[test]
    fn wave_maps_track_first_arrivals_collisions_and_delay() {
        let rec = record(&[
            run_start("old"),
            msg(0, 0, 3, Some(5)),
            // A new run forgets the previous run's waves.
            run_start(""),
            msg(1, 0, 1, Some(7)),
            msg(1, 0, 1, Some(7)), // repeat: not a new arrival
            msg(1, 2, 1, Some(9)), // second stream, same node + round
            msg(1, 0, 2, None),    // untagged: invisible
        ]);
        assert_eq!(rec.wave_arrivals().len(), 2);
        assert_eq!(rec.wave_arrivals()[&(7, 1)], 2, "delivery round");
        // Collisions and delays speak send rounds: delivery − 1.
        assert_eq!(rec.node_collisions(), vec![(1, 1, 7, 9)]);
        let delay = rec.max_delay(|s, v| (s == 7 && v == 1).then_some(1));
        assert_eq!(delay, Some(0));
        assert_eq!(rec.max_delay(|_, _| None), None);
    }

    #[test]
    fn jsonl_lines_are_deterministic_and_parseable_shape() {
        let summary = TransportSummary {
            sim_rounds: 9,
            frames_sent: 3,
            retransmissions: 1,
            acks_sent: 2,
            truncated_sends: 4,
        };
        let rec = record(&[
            run_start("p"),
            msg(0, 0, 1, None),
            TraceEvent::RunEnd {
                rounds: 0,
                messages: 1,
            },
            TraceEvent::Transport(summary),
        ]);
        let text = rec.events_jsonl();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"ev\":\"message\""));
        assert!(text.contains("\"stream\":null"));
        // The transport summary travels whole.
        assert!(text.contains("\"sim_rounds\":9"), "{text}");
        assert!(text.contains("\"truncated_sends\":4"), "{text}");
    }

    /// Balanced JSON on both track layouts; exported by kernel, a reliable
    /// run's retransmit / ack instants sit on the track of their own
    /// frame's mask — the wrapped protocol's mask for a resent payload, 0 for
    /// a bare ack — and by node on their sender's.
    #[test]
    fn perfetto_export_is_balanced_json() {
        let tags = |kernels, retransmit, ack| TraceTags {
            kernels,
            retransmit,
            ack,
        };
        let rec = record(&[
            run_start("p"),
            msg(0, 0, 1, Some(3)),
            TraceEvent::RoundStart {
                round: 1,
                delivered: 1,
                scheduled: 1,
            },
            frame(1, 0, 1, None, tags(6, true, false)),
            frame(1, 1, 0, None, tags(0, false, true)),
            TraceEvent::RoundEnd { round: 1 },
            TraceEvent::QuiescenceVotes {
                round: 1,
                active: 0,
                passive: 2,
                shutdown: 0,
            },
            TraceEvent::RunEnd {
                rounds: 1,
                messages: 3,
            },
        ]);
        // (retransmit track, ack track): by frame mask, or by sender.
        for (track, tids) in [(TrackBy::Node, (0, 1)), (TrackBy::Kernel, (6, 0))] {
            let json = rec.to_perfetto(track);
            assert!(json.contains("\"traceEvents\""));
            assert!(json.contains("\"ph\":\"C\""));
            assert!(json.contains("wave 3"));
            assert!(json.contains("\"name\":\"p round 1\""), "{json}");
            let open = json.matches(['{', '[']).count();
            let close = json.matches(['}', ']']).count();
            assert_eq!(open, close, "balanced brackets");
            assert!(!json.contains(",]") && !json.contains(",}"));
            let on = |name: &str, tid: u64| {
                let line = json.lines().find(|l| l.contains(name)).expect(name);
                line.contains(&format!("\"tid\":{tid}"))
            };
            assert!(
                on("\"retransmit ", tids.0) && on("\"ack ", tids.1),
                "{json}"
            );
        }
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
