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
//! * [`WaveKernel`] — BFS wave forwarding (Claim 1): single- or all-root,
//!   optional depth truncation (k-BFS, Definition 7), adoption
//!   announcements, wave-receipt counting, and Lemma 7 cycle-candidate
//!   recording.
//! * [`GrowthKernel`] — Algorithm 2's simultaneous growth with per-edge
//!   `(dist, id)`-priority lists over a [`SourceSlots`] set, without
//!   `T_1`: S-SP's growth, and — every node a source, with a transmit
//!   filter — the distance vector run on the topology a
//!   [`TopologyPlan`](dapsp_congest::TopologyPlan) leaves behind
//!   (disconnected ones included).
//! * [`PebbleKernel`] — the DFS token over a known tree, with the paper's
//!   one-slot wait at first visits (line 5 of Algorithm 1) or the ablated
//!   immediate start.
//! * [`ConvergecastKernel`] — aggregate up `T_1`, broadcast the total
//!   down (Definition 6).
//! * [`ReliableKernel`] — a bounded-horizon synchronizer giving any
//!   protocol exact fault-free semantics over links a
//!   [`FaultPlan`](dapsp_congest::FaultPlan) adversary drops messages
//!   from, with per-link stop-and-wait retransmission and acks charged
//!   against the same `B`-bit budget.
//! * `PebbleWaves` — Algorithm 1's node, the one place two primitives
//!   share a node: the pebble's release starts the node's own wave, and
//!   both kernels' payloads ride in one
//!   [`Envelope`](dapsp_congest::Envelope) per edge per round with a
//!   presence tag each.
//!
//! Every algorithm of the crate meets the engine in one place, this
//! module's crate-private `run_phase`: it hosts a node's protocol, labels
//! and observes the phase, and wraps the protocol in a [`ReliableKernel`]
//! exactly when the run's [`Obs`] carries a fault plan.
//!
//! The concrete algorithms (`bfs`, `apsp`, `ssp`, `aggregate`, …) are thin
//! shells over these kernels: input validation, phase labels, and
//! result-folding.
//!
//! # Hot-path discipline
//!
//! Algorithm 1 is ≈ n·2m single-payload messages, so whatever a kernel
//! does per send *is* the cost of a run. The wave path therefore allocates
//! per node, never per send or per round: [`Tx`] buffers, the arrival
//! list and `PebbleWaves`' merge scratch are per-node vectors whose
//! capacity is reused, and state shared by all nodes of a run (the
//! [`SourceSlots`] map) is built once and reference-counted. What the
//! paper says a node stores — `n` distances and parents for Algorithm 1,
//! `|S|` for Algorithm 2 — is not the kernel's own: the pipeline allocates
//! the run's distance and parent-port [`Rows`] once, [`Deal`]s each node
//! its [`Row`] of them in its `init` closure, and reads the matrices as
//! the result when the run ends. A kernel owns `O(degree)` scratch and
//! nothing of size `n`. `tests/alloc_budget.rs` fails when a kernel starts
//! allocating per send, or a cold build starts holding more than its two
//! `n²` matrices; tier-1's `static_model_cost_is_pinned` fails when one
//! changes a send.

mod convergecast;
mod growth;
mod pebble;
mod pebble_waves;
mod protocol;
mod reliable;
mod rows;
mod wave;

pub use convergecast::{CastMsg, ConvergecastKernel};
pub use growth::{GrowthKernel, GrowthMsg};
pub use pebble::{PebbleKernel, Token};
pub(crate) use pebble_waves::PebbleWaves;
pub use protocol::{Protocol, ProtocolHost, Tx};
pub use reliable::{Frame, ReliableKernel};
pub use rows::{distance_rows, Deal, Row, Rows, SourceSlots};
pub use wave::{WaveKernel, WaveMsg, WaveState};

use dapsp_congest::{
    Config, NodeContext, Report, RunStats, Simulator, Topology, TraceEvent, TransportSummary,
};

use crate::error::CoreError;
use crate::observe::Obs;

/// Retransmissions allowed per frame per link when a phase runs over
/// faults. Loss decisions are an (effectively independent) hash per
/// attempt, so for any loss rate `p < 1` the chance of exhausting this is
/// `p^101` — unreachable; the bound exists so a totally severed link
/// (`p = 1`, or a crash window outlasting it) fails loudly instead of
/// spinning forever.
const MAX_RETRIES: u32 = 100;

/// Runs a [`Protocol`] over every node of `topology` to quiescence,
/// wrapping each node's kernel in a [`ProtocolHost`] (which turns payloads
/// into width-checked [`Envelope`](dapsp_congest::Envelope)s), and returns
/// the simulator's [`Report`].
///
/// # Errors
///
/// [`CoreError::EmptyGraph`] on an empty topology; simulator failures
/// propagate as [`CoreError::Sim`].
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
    if topology.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let sim = Simulator::new(topology, config, |ctx| ProtocolHost::new(init(ctx)));
    sim.run().map_err(CoreError::from)
}

/// Folds a [`Report`]'s per-node outputs into one host-side accumulator:
/// `fold(&mut acc, node_id, output)` runs once per node, in node-id order.
pub(crate) fn fold_outputs<O, S, F>(outputs: Vec<O>, seed: S, mut fold: F) -> S
where
    F: FnMut(&mut S, u32, O),
{
    let mut acc = seed;
    for (v, out) in outputs.into_iter().enumerate() {
        fold(&mut acc, v as u32, out);
    }
    acc
}

/// Runs one phase of a pipeline: `init`'s kernel on every node, with the
/// observer and executor `obs` selects, under the phase label `phase`.
///
/// When `obs` carries a fault plan — and only here — every node's kernel
/// runs inside a [`ReliableKernel`] of `horizon` simulated rounds (which
/// must cover its fault-free quiescence round), the phase reports as
/// `"{phase}:reliable"`, and the transport's counters, folded over nodes
/// (the slowest node's simulated rounds, the sum of the rest), land in
/// [`RunStats::transport`] and in one [`TraceEvent::Transport`] after the
/// phase's `RunEnd`. Without faults this is exactly [`run_protocol_on`].
///
/// # Errors
///
/// Same as [`run_protocol_on`]; under faults, a link no retransmission
/// budget gets a frame through ends the run in a round-limit
/// [`CoreError::Sim`], never in a wrong result.
pub(crate) fn run_phase<P, F>(
    topology: &Topology,
    obs: Obs<'_>,
    phase: &str,
    horizon: u64,
    mut init: F,
) -> Result<Report<P::Output>, CoreError>
where
    P: Protocol + Send,
    P::Payload: Send,
    F: FnMut(&NodeContext<'_>) -> P,
{
    let config = Config::for_n(topology.num_nodes());
    let Some(faults) = obs.faults() else {
        return run_protocol_on(topology, obs.apply(config, phase), init);
    };
    let config = obs
        .apply(config, &format!("{phase}:reliable"))
        .with_faults(faults.clone());
    let report = run_protocol_on(topology, config, |ctx| {
        ReliableKernel::new(init(ctx), horizon, MAX_RETRIES)
    })?;
    let mut transport = TransportSummary::default();
    let outputs = report
        .outputs
        .into_iter()
        .map(|(out, node)| {
            let sim_rounds = transport.sim_rounds.max(node.sim_rounds);
            transport.absorb(&node);
            transport.sim_rounds = sim_rounds;
            out
        })
        .collect();
    if let Some(handle) = obs.observer() {
        handle.lock().on_event(&TraceEvent::Transport(transport));
    }
    Ok(Report {
        outputs,
        stats: RunStats {
            transport,
            ..report.stats
        },
        certificate: report.certificate,
    })
}

#[cfg(test)]
mod tests {
    use dapsp_congest::{Config, FaultPlan, SimError, TopologyPlan};
    use dapsp_graph::{generators, reference, Graph};

    use super::{fold_outputs, run_protocol_on, PebbleKernel};
    use crate::error::CoreError;
    use crate::observe::Obs;
    use crate::{apsp, bfs, dominating};

    /// Fault-free, the transport's only cost is the ~2× lock-step
    /// overhead: zero retransmissions, rounds within 2·horizon + O(1).
    /// With or without loss, each phase stops at its wrapped kernel's
    /// quiescence round rather than at the padded horizon, so the phases
    /// together simulate fewer rounds than their horizons add up to. (The
    /// small-graph conformance sweep checks every answer under loss.)
    #[test]
    fn transport_costs_the_lockstep_and_stops_before_the_horizon() {
        let quiet = FaultPlan::new(1);
        let topo = generators::path(10).to_topology();
        let faulty = bfs::run_on_obs(&topo, 0, Obs::none().with_faults(&quiet)).unwrap();
        assert_eq!(faulty.stats.transport.retransmissions, 0);
        let horizon = 10 + 4;
        assert!(
            faulty.stats.rounds <= 2 * horizon + 4,
            "rounds={}",
            faulty.stats.rounds
        );
        let g = generators::grid(3, 4);
        for faults in [quiet, FaultPlan::uniform_loss(0.1, 7)] {
            let obs = Obs::none().with_faults(&faults);
            let faulty = apsp::run_on_obs(&g.to_topology(), obs).unwrap();
            assert_eq!(faulty.distances, reference::apsp(&g));
            let rel = faulty.stats.transport;
            let lossy = !faults.losses.is_empty();
            assert_eq!(faulty.stats.dropped > 0, lossy, "{faults:?}");
            assert_eq!(rel.retransmissions > 0, lossy, "{faults:?}");
            let horizons = (12 + 4) + (4 * 12 + 16);
            assert!(
                rel.sim_rounds > 0 && rel.sim_rounds < horizons,
                "{faults:?}: simulated {} rounds",
                rel.sim_rounds
            );
        }
    }

    /// A fully severed link can never be recovered; the bounded retry
    /// budget turns it into a loud round-limit error, not a wrong answer.
    #[test]
    fn reliable_bfs_fails_loudly_when_loss_is_total() {
        let faults = FaultPlan::uniform_loss(1.0, 2);
        let topo = generators::path(4).to_topology();
        let err = bfs::run_on_obs(&topo, 0, Obs::none().with_faults(&faults)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Sim(SimError::RoundLimitExceeded { .. })
        ));
    }

    /// The dominating set runs through `run_phase` like every other
    /// pipeline, so a fault plan gets it the reliable transport and the
    /// fault-free answer; so does the churned pipeline, whose plan applies
    /// before the run.
    #[test]
    fn dominating_composes_with_faults() {
        let g = generators::grid(3, 3);
        let topo = g.to_topology();
        let tree = bfs::run_on_obs(&topo, 0, Obs::none()).unwrap().tree;
        let faults = FaultPlan::uniform_loss(0.1, 4);
        let obs = Obs::none().with_faults(&faults);
        let lossy = dominating::run_on_obs(&topo, &tree, 2, obs).unwrap();
        let quiet = dominating::run_on_obs(&topo, &tree, 2, Obs::none()).unwrap();
        assert_eq!(lossy.members, quiet.members);
        assert!(lossy.stats.dropped > 0 && lossy.stats.transport.retransmissions > 0);
        let plan = TopologyPlan::new().with_remove(2, 0, 1);
        let lossy = apsp::run_churned_on(&topo, &plan, obs).unwrap();
        let quiet = apsp::run_churned_on(&topo, &plan, Obs::none()).unwrap();
        assert_eq!(lossy.dist, quiet.dist);
        assert_eq!(lossy.parent_port, quiet.parent_port);
        assert!(lossy.stats.dropped > 0 && lossy.stats.transport.retransmissions > 0);
        assert_eq!(lossy.stats.transport.truncated_sends, 0);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let topo = Graph::builder(0).build().to_topology();
        let run = run_protocol_on(&topo, Config::for_n(1), |_| -> PebbleKernel {
            unreachable!("an empty network has no node to initialise")
        });
        assert_eq!(run.unwrap_err(), CoreError::EmptyGraph);
    }

    #[test]
    fn fold_outputs_visits_every_node_in_order() {
        let visited = fold_outputs(vec![10u32, 20, 30], Vec::new(), |acc, v, out| {
            acc.push((v, out));
        });
        assert_eq!(visited, vec![(0, 10), (1, 20), (2, 30)]);
    }

    /// Wrapping a kernel in the reliable transport happens in one place,
    /// `run_phase`: outside this module no source file of the crate names
    /// the wrapper or installs a fault plan on a config, so no pipeline
    /// can grow a hand-wired faulty twin again. Nor does any shipped line
    /// (one before the file's `#[cfg(test)]`) reach the engine another
    /// way — through the simulator, a raw node algorithm, the public
    /// protocol runner or a config of its own — so every algorithm gets
    /// faults and observers from `run_phase`.
    #[test]
    fn only_the_kernel_layer_wraps_a_kernel() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            // `kernel/` is the crate's one module directory; reading a new
            // one fails here, so it cannot slip past the check.
            if path.ends_with("kernel") {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for name in ["ReliableKernel", ".with_faults("] {
                assert!(
                    !text.contains(name),
                    "{} names `{name}`: wrap kernels through `run_phase`",
                    path.display()
                );
            }
            let shipped = text.split("#[cfg(test)]").next().unwrap();
            for name in [
                "Simulator",
                "NodeAlgorithm",
                "run_protocol_on",
                "Config::for_n",
            ] {
                assert!(
                    !shipped.contains(name),
                    "{} names `{name}`: run the algorithm through `run_phase`",
                    path.display()
                );
            }
        }
    }
}
