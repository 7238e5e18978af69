//! Structured, causally-linked run tracing with per-kernel attribution.
//!
//! The paper's bounds are statements about *rounds, messages and waves*;
//! the per-round metric stream ([`MetricsRecorder`](crate::MetricsRecorder))
//! shows their column sums but not their story. This module records the
//! story as typed events — round boundaries, per-kernel sends and
//! receptions, drops with reasons, transport retransmits/acks, quiescence
//! vote tallies, wave starts/arrivals, and the early-termination decision —
//! into a bounded [`Ring`] that keeps the *first* and *last* events of an
//! overflowing run and counts every event exactly.
//!
//! [`TraceRecorder`] is an ordinary [`Observer`]: attach it
//! with [`Config::with_observer`](crate::Config) and detached runs keep
//! paying exactly one `Option` check. Because every event is derived from
//! the deterministic hook stream and stores **no wall-clock fields**, the
//! recorded event sequence is bit-identical across the serial executor, the
//! worker pool at any thread count, and the dense seed reference engine —
//! a contract the `engine_equivalence` proptests pin.
//!
//! Exports:
//!
//! * [`TraceRecorder::events_jsonl`] — one deterministic JSON line per
//!   stored event (diffing two runs is a line diff);
//! * [`TraceRecorder::to_perfetto`] — Chrome-trace/Perfetto JSON with
//!   round-scaled synthetic timestamps: a `rounds` track of round spans,
//!   a per-node (or per-kernel) track of send/drop/retransmit instants, a
//!   vote counter track, and one span per wave lifetime. Load it at
//!   `ui.perfetto.dev` or `chrome://tracing`.

use std::collections::{BTreeMap, VecDeque};

use crate::config::{DropReason, EdgeEvent, NodeEvent, TopologyEvent};
use crate::node::{NodeId, Port};
use crate::obs::{MessageEvent, Observer, RunInfo, TransportSummary};
use crate::stats::RunStats;

/// One typed trace event. Events carry rounds, node ids, bit counts and
/// kernel attribution — never wall-clock time — so two deterministic runs
/// produce equal event sequences and `derive(PartialEq, Eq)` is the whole
/// comparison story.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run began (phase label, topology size, round-0 scheduled count).
    RunStart {
        /// Phase label from [`Config::with_phase`](crate::Config).
        phase: String,
        /// Nodes in the topology.
        nodes: u64,
        /// Directed edges (`2m`).
        edges: u64,
        /// Nodes that ran `on_start`.
        started: u64,
    },
    /// Round `round` began.
    RoundStart {
        /// The starting round.
        round: u64,
        /// Messages (sent in `round - 1`) about to be delivered.
        delivered: u64,
        /// Nodes on this round's schedule.
        scheduled: u64,
    },
    /// Round `round` finished committing.
    RoundEnd {
        /// The finished round.
        round: u64,
    },
    /// A message was committed for delivery, attributed to the kernels
    /// whose components it carries.
    KernelSend {
        /// The send round.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload bits.
        bits: u32,
        /// Logical stream, if the message reports one.
        stream: Option<u32>,
        /// Kernel presence bitmask (see
        /// [`TraceTags`](crate::message::TraceTags)).
        kernels: u8,
    },
    /// The same committed message, viewed from the receiving side — it
    /// arrives one round after its [`TraceEvent::KernelSend`].
    KernelRecv {
        /// The delivery round (`send round + 1`).
        round: u64,
        /// Receiver.
        to: NodeId,
        /// The receiver's port it arrives on.
        to_port: Port,
        /// Sender.
        from: NodeId,
        /// Logical stream, if the message reports one.
        stream: Option<u32>,
        /// Kernel presence bitmask.
        kernels: u8,
    },
    /// A message was dropped by the fault plan at commit time.
    Drop {
        /// The send round the drop happened in.
        round: u64,
        /// The sender.
        from: NodeId,
        /// The sender's port.
        port: Port,
        /// Loss rule or receiver crash window.
        reason: DropReason,
        /// Kernel presence bitmask of the dropped frame.
        kernels: u8,
        /// The frame was a transport retransmission.
        retransmit: bool,
        /// The frame carried an ack.
        ack: bool,
    },
    /// A committed frame the transport layer marked as a retransmission.
    Retransmit {
        /// The send round.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A committed frame carrying an acknowledgement.
    Ack {
        /// The send round.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A [`TopologyPlan`](crate::TopologyPlan) event took effect at the
    /// churn choke point entering `round` — before the round's
    /// deliveries, after the previous round's commits (see
    /// [`Observer::on_topology`]).
    TopologyChange {
        /// The round the event takes effect in.
        round: u64,
        /// The applied plan event.
        event: TopologyEvent,
    },
    /// A node sat out this round inside a crash window.
    Crash {
        /// The round.
        round: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// The round's quiescence poll tally (counts sum to the polled-node
    /// count: everyone at round 0, the scheduled set afterwards).
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
    /// First committed message of a logical stream — the wave's birth.
    WaveStart {
        /// The stream (e.g. the BFS root id).
        stream: u32,
        /// The send round of the first message.
        round: u64,
        /// The originating sender.
        from: NodeId,
    },
    /// A logical stream first reached `node` (at the delivery round).
    WaveArrive {
        /// The stream.
        stream: u32,
        /// The newly reached node.
        node: NodeId,
        /// The delivery round of the first arrival.
        round: u64,
    },
    /// The engine stopped early: the quiescence votes became terminal
    /// after `round` — the per-node certificate lives on
    /// [`Report::certificate`](crate::Report).
    EarlyTermination {
        /// The last executed round.
        round: u64,
        /// Undelivered messages at the decision (zero unless the vote was
        /// unanimous shutdown).
        in_flight: u64,
    },
    /// A reliable-transport wrapper reported its end-of-run telemetry.
    Transport {
        /// Frames put on the wire.
        frames_sent: u64,
        /// Frames re-sent after an ack timeout.
        retransmissions: u64,
        /// Acks sent.
        acks_sent: u64,
        /// Node-links that gave up.
        gave_up: u64,
    },
    /// The run ended with these final totals.
    RunEnd {
        /// Rounds executed.
        rounds: u64,
        /// Messages committed.
        messages: u64,
    },
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object (one JSONL
    /// line, sans newline). Equal event streams render to equal text, so
    /// diffing two exports is a plain line diff.
    pub fn to_json(&self) -> String {
        fn opt(v: Option<u32>) -> String {
            v.map_or_else(|| "null".into(), |s| s.to_string())
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
            TraceEvent::RoundEnd { round } => {
                format!("{{\"ev\":\"round_end\",\"round\":{round}}}")
            }
            TraceEvent::KernelSend {
                round,
                from,
                to,
                bits,
                stream,
                kernels,
            } => format!(
                "{{\"ev\":\"send\",\"round\":{round},\"from\":{from},\"to\":{to},\"bits\":{bits},\"stream\":{},\"kernels\":{kernels}}}",
                opt(*stream)
            ),
            TraceEvent::KernelRecv {
                round,
                to,
                to_port,
                from,
                stream,
                kernels,
            } => format!(
                "{{\"ev\":\"recv\",\"round\":{round},\"to\":{to},\"to_port\":{to_port},\"from\":{from},\"stream\":{},\"kernels\":{kernels}}}",
                opt(*stream)
            ),
            TraceEvent::Drop {
                round,
                from,
                port,
                reason,
                kernels,
                retransmit,
                ack,
            } => format!(
                "{{\"ev\":\"drop\",\"round\":{round},\"from\":{from},\"port\":{port},\"reason\":\"{reason:?}\",\"kernels\":{kernels},\"retransmit\":{retransmit},\"ack\":{ack}}}"
            ),
            TraceEvent::Retransmit { round, from, to } => {
                format!("{{\"ev\":\"retransmit\",\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            TraceEvent::Ack { round, from, to } => {
                format!("{{\"ev\":\"ack\",\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            TraceEvent::TopologyChange { round, event } => {
                let (kind, u, v) = match *event {
                    TopologyEvent::Edge(EdgeEvent::Insert { u, v }) => ("insert", u, v),
                    TopologyEvent::Edge(EdgeEvent::Remove { u, v }) => ("remove", u, v),
                    TopologyEvent::Node(NodeEvent::Crash(n)) => ("crash", n, n),
                    TopologyEvent::Node(NodeEvent::Join(n)) => ("join", n, n),
                };
                format!(
                    "{{\"ev\":\"topology\",\"round\":{round},\"kind\":\"{kind}\",\"u\":{u},\"v\":{v}}}"
                )
            }
            TraceEvent::Crash { round, node } => {
                format!("{{\"ev\":\"crash\",\"round\":{round},\"node\":{node}}}")
            }
            TraceEvent::QuiescenceVotes {
                round,
                active,
                passive,
                shutdown,
            } => format!(
                "{{\"ev\":\"votes\",\"round\":{round},\"active\":{active},\"passive\":{passive},\"shutdown\":{shutdown}}}"
            ),
            TraceEvent::WaveStart {
                stream,
                round,
                from,
            } => format!(
                "{{\"ev\":\"wave_start\",\"stream\":{stream},\"round\":{round},\"from\":{from}}}"
            ),
            TraceEvent::WaveArrive {
                stream,
                node,
                round,
            } => format!(
                "{{\"ev\":\"wave_arrive\",\"stream\":{stream},\"node\":{node},\"round\":{round}}}"
            ),
            TraceEvent::EarlyTermination { round, in_flight } => format!(
                "{{\"ev\":\"early_termination\",\"round\":{round},\"in_flight\":{in_flight}}}"
            ),
            TraceEvent::Transport {
                frames_sent,
                retransmissions,
                acks_sent,
                gave_up,
            } => format!(
                "{{\"ev\":\"transport\",\"frames_sent\":{frames_sent},\"retransmissions\":{retransmissions},\"acks_sent\":{acks_sent},\"gave_up\":{gave_up}}}"
            ),
            TraceEvent::RunEnd { rounds, messages } => {
                format!("{{\"ev\":\"run_end\",\"rounds\":{rounds},\"messages\":{messages}}}")
            }
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
/// [`Ring::overflow`] says exactly how many middle events fell out.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    prefix: Vec<T>,
    tail: VecDeque<T>,
    prefix_cap: usize,
    tail_cap: usize,
    total: u64,
}

impl<T> Ring<T> {
    /// A ring pinning the first `prefix_cap` items and rolling the last
    /// `tail_cap`.
    pub fn new(prefix_cap: usize, tail_cap: usize) -> Self {
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
    pub fn push(&mut self, item: T) {
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
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.prefix.iter().chain(self.tail.iter())
    }

    /// Items currently stored.
    pub fn stored(&self) -> usize {
        self.prefix.len() + self.tail.len()
    }

    /// Total items ever pushed — exact even under overflow.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Items pushed but no longer stored.
    pub fn overflow(&self) -> u64 {
        self.total - self.stored() as u64
    }

    /// True when nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Run-lifetime totals attributed to one kernel presence mask (see
/// [`TraceTags::kernels`](crate::message::TraceTags)); bit *i* names
/// kernel *i* of the composed stack, and a mask with several bits set is a
/// merged frame those kernels shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Messages committed.
    pub messages: u64,
    /// Payload bits committed.
    pub bits: u64,
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Committed or dropped frames marked as retransmissions.
    pub retransmits: u64,
    /// Committed or dropped frames carrying an ack.
    pub acks: u64,
}

/// Default pinned-prefix capacity of a [`TraceRecorder`].
pub const DEFAULT_PREFIX: usize = 1 << 16;
/// Default rolling-tail capacity of a [`TraceRecorder`].
pub const DEFAULT_TAIL: usize = 1 << 14;

/// An [`Observer`] that records the typed event stream of every run it
/// watches into a [`Ring`], while keeping exact (ring-independent)
/// aggregate counters: per-kernel traffic breakdowns, per-undirected-edge
/// total loads, and per-stream wave start/arrival rounds.
///
/// The wave maps reset at each `on_run_start` (streams are run-scoped);
/// the ring, kernel and edge aggregates accumulate across runs, with
/// [`TraceEvent::RunStart`] events delimiting runs in the stream.
pub struct TraceRecorder {
    ring: Ring<TraceEvent>,
    kernels: BTreeMap<u8, KernelCounters>,
    edge_load: BTreeMap<(NodeId, NodeId), u64>,
    wave_start: BTreeMap<u32, (u64, NodeId)>,
    wave_arrival: BTreeMap<(u32, NodeId), u64>,
    /// Scheduler telemetry from [`Observer::on_sched`], kept as side
    /// counters and deliberately *not* pushed into the event ring: the
    /// ring (and [`TraceRecorder::events_jsonl`]) must stay bit-identical
    /// across executors, while chunk/steal counts are timing-dependent
    /// load-balance data.
    chunks_stepped: u64,
    steals: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default ring capacities
    /// ([`DEFAULT_PREFIX`] + [`DEFAULT_TAIL`]).
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
            chunks_stepped: 0,
            steals: 0,
        }
    }

    /// Accumulated scheduler telemetry `(chunks_stepped, steals)` across
    /// every observed run — side counters from [`Observer::on_sched`],
    /// never part of the event stream.
    pub fn sched_totals(&self) -> (u64, u64) {
        (self.chunks_stepped, self.steals)
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Total events ever recorded — exact even when the ring overflowed.
    pub fn total_events(&self) -> u64 {
        self.ring.total_pushed()
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

    /// Total per-undirected-edge message loads, keyed `(min, max)` node
    /// pair.
    pub fn edge_loads(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.edge_load
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
    pub fn wave_spans(&self) -> Vec<(u32, u64, NodeId, u64, u64)> {
        self.wave_start
            .iter()
            .map(|(&stream, &(start, origin))| {
                let mut last = start;
                let mut reached = 0u64;
                for (&(s, _), &round) in
                    self.wave_arrival.range((stream, 0)..=(stream, NodeId::MAX))
                {
                    debug_assert_eq!(s, stream);
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
    /// `rounds` track, per-node or per-kernel instants for
    /// sends/drops/retransmits/acks/crashes, a `votes` counter series, and
    /// one span per wave lifetime. Open at `ui.perfetto.dev` or
    /// `chrome://tracing`.
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
        for e in self.ring.iter() {
            match *e {
                TraceEvent::RoundStart { round, .. } => out.push(format!(
                    "{{\"name\":\"round {round}\",\"ph\":\"B\",\"ts\":{},\"pid\":0,\"tid\":0}}",
                    round * US
                )),
                TraceEvent::RoundEnd { round } => out.push(format!(
                    "{{\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":0}}",
                    (round + 1) * US
                )),
                TraceEvent::KernelSend {
                    round,
                    from,
                    to,
                    bits,
                    kernels,
                    ..
                } => out.push(format!(
                    "{{\"name\":\"send {from}\\u2192{to} k={kernels}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"bits\":{bits}}}}}",
                    round * US,
                    tid(from, kernels)
                )),
                TraceEvent::Drop {
                    round,
                    from,
                    reason,
                    kernels,
                    ..
                } => out.push(format!(
                    "{{\"name\":\"drop {reason:?}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    round * US,
                    tid(from, kernels)
                )),
                TraceEvent::Retransmit { round, from, to } => out.push(format!(
                    "{{\"name\":\"retransmit \\u2192{to}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    round * US,
                    tid(from, 1)
                )),
                TraceEvent::Ack { round, from, to } => out.push(format!(
                    "{{\"name\":\"ack \\u2192{to}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    round * US,
                    tid(from, 1)
                )),
                TraceEvent::Crash { round, node } => out.push(format!(
                    "{{\"name\":\"crash\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    round * US,
                    tid(node, 1)
                )),
                TraceEvent::QuiescenceVotes {
                    round,
                    active,
                    passive,
                    shutdown,
                } => out.push(format!(
                    "{{\"name\":\"votes\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"active\":{active},\"passive\":{passive},\"shutdown\":{shutdown}}}}}",
                    round * US
                )),
                TraceEvent::TopologyChange { round, event } => out.push(format!(
                    "{{\"name\":\"topology {event:?}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0}}",
                    round * US
                )),
                TraceEvent::EarlyTermination { round, in_flight } => out.push(format!(
                    "{{\"name\":\"early termination\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"in_flight\":{in_flight}}}}}",
                    (round + 1) * US
                )),
                _ => {}
            }
        }
        for (stream, start, origin, last, reached) in self.wave_spans() {
            out.push(format!(
                "{{\"name\":\"wave {stream}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{stream},\"args\":{{\"origin\":{origin},\"reached\":{reached}}}}}",
                start * US,
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
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.wave_start.clear();
        self.wave_arrival.clear();
        self.ring.push(TraceEvent::RunStart {
            phase: info.phase.to_string(),
            nodes: info.nodes as u64,
            edges: info.directed_edges as u64,
            started: info.started,
        });
    }

    fn on_round_start(&mut self, round: u64, delivered: u64, scheduled: u64) {
        self.ring.push(TraceEvent::RoundStart {
            round,
            delivered,
            scheduled,
        });
    }

    fn on_message(&mut self, ev: &MessageEvent) {
        let k = self.kernels.entry(ev.tags.kernels).or_default();
        k.messages += 1;
        k.bits += u64::from(ev.bits);
        k.retransmits += u64::from(ev.tags.retransmit);
        k.acks += u64::from(ev.tags.ack);
        let key = (ev.from.min(ev.to), ev.from.max(ev.to));
        *self.edge_load.entry(key).or_default() += 1;
        if let Some(stream) = ev.stream {
            if let std::collections::btree_map::Entry::Vacant(slot) = self.wave_start.entry(stream)
            {
                slot.insert((ev.send_round, ev.from));
                self.ring.push(TraceEvent::WaveStart {
                    stream,
                    round: ev.send_round,
                    from: ev.from,
                });
            }
        }
        self.ring.push(TraceEvent::KernelSend {
            round: ev.send_round,
            from: ev.from,
            to: ev.to,
            bits: ev.bits,
            stream: ev.stream,
            kernels: ev.tags.kernels,
        });
        self.ring.push(TraceEvent::KernelRecv {
            round: ev.send_round + 1,
            to: ev.to,
            to_port: ev.to_port,
            from: ev.from,
            stream: ev.stream,
            kernels: ev.tags.kernels,
        });
        if ev.tags.retransmit {
            self.ring.push(TraceEvent::Retransmit {
                round: ev.send_round,
                from: ev.from,
                to: ev.to,
            });
        }
        if ev.tags.ack {
            self.ring.push(TraceEvent::Ack {
                round: ev.send_round,
                from: ev.from,
                to: ev.to,
            });
        }
        if let Some(stream) = ev.stream {
            if let std::collections::btree_map::Entry::Vacant(slot) =
                self.wave_arrival.entry((stream, ev.to))
            {
                slot.insert(ev.send_round + 1);
                self.ring.push(TraceEvent::WaveArrive {
                    stream,
                    node: ev.to,
                    round: ev.send_round + 1,
                });
            }
        }
    }

    fn on_drop(
        &mut self,
        send_round: u64,
        from: NodeId,
        from_port: Port,
        reason: DropReason,
        tags: crate::message::TraceTags,
    ) {
        let k = self.kernels.entry(tags.kernels).or_default();
        k.dropped += 1;
        k.retransmits += u64::from(tags.retransmit);
        k.acks += u64::from(tags.ack);
        self.ring.push(TraceEvent::Drop {
            round: send_round,
            from,
            port: from_port,
            reason,
            kernels: tags.kernels,
            retransmit: tags.retransmit,
            ack: tags.ack,
        });
    }

    fn on_crash(&mut self, round: u64, node: NodeId) {
        self.ring.push(TraceEvent::Crash { round, node });
    }

    fn on_topology(&mut self, round: u64, event: &TopologyEvent) {
        self.ring.push(TraceEvent::TopologyChange {
            round,
            event: *event,
        });
    }

    fn on_sched(&mut self, _round: u64, chunks: u64, steals: u64) {
        // Side counters only — no ring event, so `events_jsonl` stays
        // bit-identical between serial and pool runs.
        self.chunks_stepped += chunks;
        self.steals += steals;
    }

    fn on_round_end(&mut self, round: u64, _timing: &crate::obs::RoundTiming) {
        self.ring.push(TraceEvent::RoundEnd { round });
    }

    fn on_quiescence(&mut self, round: u64, active: u64, passive: u64, shutdown: u64) {
        self.ring.push(TraceEvent::QuiescenceVotes {
            round,
            active,
            passive,
            shutdown,
        });
    }

    fn on_terminate(&mut self, round: u64, in_flight: u64) {
        self.ring
            .push(TraceEvent::EarlyTermination { round, in_flight });
    }

    fn on_transport(&mut self, summary: &TransportSummary) {
        self.ring.push(TraceEvent::Transport {
            frames_sent: summary.frames_sent,
            retransmissions: summary.retransmissions,
            acks_sent: summary.acks_sent,
            gave_up: summary.gave_up,
        });
    }

    fn on_run_end(&mut self, stats: &RunStats) {
        self.ring.push(TraceEvent::RunEnd {
            rounds: stats.rounds,
            messages: stats.messages,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TraceTags;

    #[test]
    fn ring_overflow_preserves_counts_and_both_ends() {
        let mut ring = Ring::new(3, 2);
        for i in 0..10u32 {
            ring.push(i);
        }
        assert_eq!(ring.total_pushed(), 10);
        assert_eq!(ring.stored(), 5);
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
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.overflow(), 3);
    }

    fn msg(send_round: u64, from: NodeId, to: NodeId, stream: Option<u32>) -> MessageEvent {
        MessageEvent {
            send_round,
            from,
            to,
            to_port: 0,
            edge: 0,
            reverse_edge: 1,
            bits: 8,
            stream,
            tags: TraceTags::default(),
        }
    }

    #[test]
    fn recorder_builds_causal_events_and_aggregates() {
        let mut rec = TraceRecorder::new();
        rec.on_run_start(&RunInfo {
            phase: "demo",
            nodes: 3,
            directed_edges: 4,
            started: 3,
        });
        rec.on_message(&msg(0, 0, 1, Some(7)));
        rec.on_round_start(1, 1, 2);
        let mut m = msg(1, 1, 2, Some(7));
        m.tags.retransmit = true;
        rec.on_message(&m);
        rec.on_drop(
            1,
            2,
            0,
            DropReason::Loss,
            TraceTags {
                kernels: 2,
                retransmit: false,
                ack: true,
            },
        );
        rec.on_round_end(1, &crate::obs::RoundTiming::default());
        rec.on_quiescence(1, 0, 2, 0);
        rec.on_terminate(1, 0);
        rec.on_run_end(&RunStats::default());

        let events: Vec<&TraceEvent> = rec.events().collect();
        assert!(matches!(events[0], TraceEvent::RunStart { phase, .. } if phase == "demo"));
        // First message: wave 7 starts, send + recv recorded, first arrival.
        assert!(matches!(
            events[1],
            TraceEvent::WaveStart {
                stream: 7,
                round: 0,
                from: 0
            }
        ));
        assert!(matches!(events[2], TraceEvent::KernelSend { round: 0, .. }));
        assert!(matches!(events[3], TraceEvent::KernelRecv { round: 1, .. }));
        assert!(matches!(
            events[4],
            TraceEvent::WaveArrive {
                stream: 7,
                node: 1,
                round: 1
            }
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Retransmit {
                round: 1,
                from: 1,
                to: 2
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Drop {
                reason: DropReason::Loss,
                kernels: 2,
                ack: true,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::QuiescenceVotes {
                round: 1,
                passive: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::EarlyTermination {
                round: 1,
                in_flight: 0
            }
        )));

        // Aggregates: mask 1 carried both deliveries, mask 2 the drop.
        assert_eq!(rec.kernels()[&1].messages, 2);
        assert_eq!(rec.kernels()[&1].retransmits, 1);
        assert_eq!(rec.kernels()[&2].dropped, 1);
        assert_eq!(rec.kernels()[&2].acks, 1);
        assert_eq!(rec.edge_loads()[&(0, 1)], 1);
        assert_eq!(rec.top_edges(1).len(), 1);
        let spans = rec.wave_spans();
        assert_eq!(spans, vec![(7, 0, 0, 2, 2)]);
        assert_eq!(rec.wave_delay_histogram(), vec![0, 1, 1]);
    }

    #[test]
    fn topology_events_render_kind_and_endpoints() {
        let mut rec = TraceRecorder::new();
        rec.on_run_start(&RunInfo {
            phase: "churn",
            nodes: 4,
            directed_edges: 6,
            started: 4,
        });
        rec.on_topology(2, &TopologyEvent::Edge(EdgeEvent::Remove { u: 1, v: 2 }));
        rec.on_topology(2, &TopologyEvent::Node(NodeEvent::Crash(3)));
        rec.on_topology(5, &TopologyEvent::Edge(EdgeEvent::Insert { u: 0, v: 3 }));
        rec.on_topology(5, &TopologyEvent::Node(NodeEvent::Join(3)));
        rec.on_run_end(&RunStats::default());
        let text = rec.events_jsonl();
        assert!(
            text.contains("{\"ev\":\"topology\",\"round\":2,\"kind\":\"remove\",\"u\":1,\"v\":2}"),
            "{text}"
        );
        assert!(
            text.contains("\"kind\":\"crash\",\"u\":3,\"v\":3"),
            "{text}"
        );
        assert!(
            text.contains("\"kind\":\"insert\",\"u\":0,\"v\":3"),
            "{text}"
        );
        assert!(text.contains("\"kind\":\"join\",\"u\":3,\"v\":3"), "{text}");
    }

    #[test]
    fn jsonl_lines_are_deterministic_and_parseable_shape() {
        let mut rec = TraceRecorder::new();
        rec.on_run_start(&RunInfo {
            phase: "p",
            nodes: 2,
            directed_edges: 2,
            started: 2,
        });
        rec.on_message(&msg(0, 0, 1, None));
        rec.on_run_end(&RunStats::default());
        let text = rec.events_jsonl();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"ev\":\"send\""));
        assert!(text.contains("\"stream\":null"));
    }

    #[test]
    fn perfetto_export_is_balanced_json() {
        let mut rec = TraceRecorder::new();
        rec.on_run_start(&RunInfo {
            phase: "p",
            nodes: 2,
            directed_edges: 2,
            started: 2,
        });
        rec.on_message(&msg(0, 0, 1, Some(3)));
        rec.on_round_start(1, 1, 1);
        rec.on_round_end(1, &crate::obs::RoundTiming::default());
        rec.on_quiescence(1, 0, 2, 0);
        rec.on_run_end(&RunStats::default());
        for track in [TrackBy::Node, TrackBy::Kernel] {
            let json = rec.to_perfetto(track);
            assert!(json.contains("\"traceEvents\""));
            assert!(json.contains("\"ph\":\"C\""));
            assert!(json.contains("wave 3"));
            let open = json.matches(['{', '[']).count();
            let close = json.matches(['}', ']']).count();
            assert_eq!(open, close, "balanced brackets");
            assert!(!json.contains(",]") && !json.contains(",}"));
        }
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
