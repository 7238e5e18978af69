//! The wave-kernel protocol layer: the paper's primitives as composable,
//! reusable per-node state machines.
//!
//! Every algorithm in the paper is assembled from a tiny toolbox — BFS
//! waves with start delays and ID priority (Algorithms 1–2), a pebble
//! walking a DFS of `T_1`, and convergecast/broadcast aggregation over
//! `T_1` (Lemmas 2–7). This module makes that composition explicit in the
//! code:
//!
//! * [`Protocol`] — the per-node interface kernels implement:
//!   `init` / `on_message` / `on_round_end` over a typed payload, plus a
//!   declared per-payload [`Width`](dapsp_congest::Width) so the engine's
//!   `B = O(log n)` budget check sees an honest bit count for every
//!   message.
//! * [`WaveKernel`] — BFS wave growth: single- or all-root, immediate
//!   forwarding (Claim 1) or per-port ID-priority queues (Algorithm 2),
//!   optional depth truncation (k-BFS, Definition 7), adoption
//!   announcements, wave-receipt counting, and Lemma 7 cycle-candidate
//!   recording.
//! * [`PebbleKernel`] — the DFS token over a known tree, with the paper's
//!   one-slot wait at first visits (line 5 of Algorithm 1) or the ablated
//!   immediate start.
//! * [`ConvergecastKernel`] — aggregate up `T_1`, broadcast the total
//!   down (Definition 6).
//! * [`RepairKernel`] — churn-tolerant distance growth: a synchronous
//!   distance-vector protocol with per-port neighbor caches that survives
//!   a [`TopologyPlan`](dapsp_congest::TopologyPlan) — affected-subtree
//!   invalidation and re-waves after removals, bounded relaxation waves
//!   after insertions, and a divergence-adaptive full recompute when the
//!   change batch is large.
//! * [`ReliableKernel`] — a bounded-horizon synchronizer giving any
//!   kernel (or stack of kernels) exact fault-free semantics over links a
//!   [`FaultPlan`](dapsp_congest::FaultPlan) adversary drops messages
//!   from, with per-link stop-and-wait retransmission and acks charged
//!   against the same `B`-bit budget.
//! * [`Stack`] / [`compose!`](crate::compose) — run several kernels on
//!   one node, multiplexing their payloads into one
//!   [`Envelope`](dapsp_congest::Envelope) per edge per round with a
//!   presence tag per kernel; a [`Coupling`] lets one kernel's events
//!   drive another (the pebble's release starting `BFS_v` is exactly such
//!   a coupling).
//!
//! The concrete algorithms (`bfs`, `apsp`, `ssp`, `aggregate`, …) are thin
//! shells over these kernels: input validation, phase labels, and
//! result-folding — no per-module message enums or state machines.
//!
//! # Hot-path discipline
//!
//! Algorithm 1 is ≈ n·2m single-payload messages, so whatever a kernel
//! does per send *is* the cost of a run. The wave path therefore allocates
//! per node, never per send or per round: [`Tx`] buffers, the arrival
//! list and [`Stack`]'s merge scratch are per-node vectors whose capacity
//! is reused, and state shared by all nodes of a run (the
//! [`SourceSlots`] map) is built once and reference-counted. Per-node
//! state is what the paper says a node stores — `n` distances for
//! Algorithm 1, `|S|` for Algorithm 2. `tests/alloc_budget.rs` fails when
//! a kernel starts allocating per send; tier-1's
//! `static_model_cost_is_pinned` fails when one changes a send.

mod convergecast;
mod pebble;
mod protocol;
mod reliable;
mod repair;
mod stack;
mod wave;

pub use convergecast::{CastMsg, ConvergecastKernel};
pub use pebble::{PebbleKernel, Token};
pub use protocol::{Protocol, ProtocolHost, Tx};
pub use reliable::{split_reliable_report, Frame, RelStats, ReliableKernel};
pub(crate) use repair::repair_threshold;
pub use repair::{RepairKernel, RepairMsg};
pub use stack::{Both, Coupling, Stack};
pub use wave::{SourceSlots, WaveKernel, WaveMsg, WaveState};

use dapsp_congest::{Config, NodeContext, Report, Topology};

use crate::error::CoreError;
use crate::runner::run_algorithm_on;

/// Runs a [`Protocol`] over every node of `topology` to quiescence,
/// wrapping each node's kernel in a [`ProtocolHost`] (which turns payloads
/// into width-checked [`Envelope`](dapsp_congest::Envelope)s).
///
/// # Errors
///
/// Same as [`run_algorithm_on`]: empty topologies are rejected and
/// simulator failures propagate as [`CoreError::Sim`].
pub fn run_protocol_on<P, F>(
    topology: &Topology,
    config: Config,
    mut init: F,
) -> Result<Report<P::Output>, CoreError>
where
    P: Protocol + Send,
    P::Payload: Send,
    F: FnMut(&NodeContext<'_>) -> P,
{
    run_algorithm_on(topology, config, |ctx| ProtocolHost::new(init(ctx)))
}
