//! A deterministic simulator for the synchronous **CONGEST** model of
//! distributed computing.
//!
//! The CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*) runs a network of processors connected by the edges of an
//! undirected graph. Computation proceeds in synchronous rounds; in each
//! round every node may send a message of at most `B` bits over each of its
//! incident edges (a *different* message per edge is allowed), receive the
//! messages its neighbors sent in the same round, and perform arbitrary free
//! local computation. The complexity of an algorithm is the number of rounds
//! it takes.
//!
//! This crate provides:
//!
//! * [`Topology`] — the communication graph (adjacency lists, validated),
//! * [`Message`] — a trait that makes every message account for its size in
//!   bits, so the simulator can *enforce* the bandwidth restriction instead
//!   of trusting the algorithm,
//! * [`NodeAlgorithm`] — the per-node state machine interface,
//! * [`Simulator`] — the synchronous round engine: an explicit
//!   `deliver → step → commit` phase pipeline over a pluggable executor
//!   ([`ExecutorKind`] — single-threaded, or a persistent worker pool with
//!   bit-for-bit identical results), which detects quiescence, enforces
//!   bandwidth, and collects [`RunStats`] (rounds, messages, bits),
//! * [`obs`] — live observers, the one way to watch a run (attach with
//!   [`Config::with_observer`]): the trace recorder and a wall-clock phase
//!   profiler, each a fold over the engines' one event type,
//! * [`trace`] — that event type ([`TraceEvent`]) and the recorder that
//!   keeps a bounded stream of it ([`TraceRecorder`]), for debugging and for
//!   testing algorithm invariants (e.g. that two BFS waves never congest an
//!   edge).
//!
//! # Example
//!
//! A two-node network where node 0 sends one greeting to node 1:
//!
//! ```
//! use dapsp_congest::{Config, Message, NodeAlgorithm, NodeContext, Inbox,
//!                     Outbox, Simulator, Topology};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Message for Ping {
//!     fn bit_size(&self) -> u32 { 1 }
//! }
//!
//! struct Greeter { heard: bool }
//! impl NodeAlgorithm for Greeter {
//!     type Message = Ping;
//!     type Output = bool;
//!     fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Ping>) {
//!         if ctx.node_id() == 0 {
//!             out.send(0, Ping);
//!         }
//!     }
//!     fn on_round(&mut self, _ctx: &NodeContext<'_>, inbox: &Inbox<Ping>,
//!                 _out: &mut Outbox<Ping>) {
//!         if !inbox.is_empty() { self.heard = true; }
//!     }
//!     fn into_output(self, _ctx: &NodeContext<'_>) -> bool { self.heard }
//! }
//!
//! # fn main() -> Result<(), dapsp_congest::SimError> {
//! let topo = Topology::from_adjacency(vec![vec![1], vec![0]])?;
//! let mut sim = Simulator::new(&topo, Config::for_n(2),
//!                              |_| Greeter { heard: false });
//! let report = sim.run()?;
//! assert_eq!(report.stats.rounds, 1);
//! assert_eq!(report.outputs, vec![false, true]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod churn;
mod config;
mod engine;
mod error;
mod message;
mod node;
mod reference;
mod stats;
mod topology;

pub mod obs;
pub mod trace;

pub use algorithm::{NodeAlgorithm, Quiescence};
pub use churn::churned_topology;
pub use config::{
    Config, CrashWindow, DropReason, EdgeEvent, ExecutorKind, FaultPlan, LossRule, NodeEvent,
    TopologyEvent, TopologyPlan,
};
pub use engine::pool_workers_spawned;
pub use engine::{Report, Simulator, TerminationCertificate, TerminationReason};
pub use error::SimError;
pub use message::{bits_for_count, bits_for_id, Envelope, Message, TraceTags, Width};
pub use node::{Inbox, NodeContext, NodeId, Outbox, Port};
pub use obs::{Observer, ObserverHandle, PhaseProfiler, SharedObserver, TransportSummary};
pub use reference::ReferenceSimulator;
pub use stats::RunStats;
pub use topology::Topology;
pub use trace::{TraceEvent, TraceRecorder, TrackBy};
