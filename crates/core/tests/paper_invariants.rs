//! Paper-invariant probes: the observer layer watching the real algorithms
//! for the structural claims the proofs rest on.
//!
//! * **Lemma 1** (pebble-APSP): during the wave phase no node is first
//!   reached by two different waves in the same round, and each wave
//!   propagates at exactly speed 1, so per stream the quantity
//!   `first_arrival − distance` is a constant (the wave's start offset).
//!   The other half of Lemma 1 — no directed edge carries two messages in
//!   one round — is the engine's `DuplicateSend` rule, which aborts any run
//!   that breaks it.
//! * **Lemma 8 / Theorem 3** (S-SP): during the simultaneous growth of
//!   `|S|` BFS trees, a wave's first arrival at any node lags the ideal
//!   uncongested schedule by at most `|S|` rounds.
//! * **Fault model**: under a [`FaultPlan`] adversary carried in their
//!   [`Obs`], the pipelines (every phase on the reliable transport) stay
//!   *exact* for any loss rate below one, and even the unwrapped wave
//!   kernels can only lose
//!   information — a dropped message may leave a distance unknown or
//!   stale, never too small.

use std::collections::HashMap;

use dapsp_congest::{Config, FaultPlan, SharedObserver, TraceEvent, TraceRecorder};
use dapsp_core::kernel::{distance_rows, run_protocol_on, Deal, WaveKernel};
use dapsp_core::{apsp, ssp, Obs};
use dapsp_graph::{generators, reference, Graph, INFINITY};

/// The four topology families of the acceptance criteria. Cliques are kept
/// smaller: pebble-APSP traffic is cubic in `n` there.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(32)),
        ("tree", generators::random_tree(32, 12)),
        ("regular6", generators::watts_strogatz(32, 3, 0.1, 12)),
        ("clique", generators::complete(16)),
    ]
}

#[test]
fn lemma1_wave_phase_congestion_and_spacing() {
    for (family, g) in families() {
        // The recorder's wave maps describe the last run: the wave phase.
        let arrivals = SharedObserver::new(TraceRecorder::new());
        let handle = arrivals.observer();
        let result = apsp::run_on_obs(&g.to_topology(), Obs::watching(&handle)).expect("apsp runs");

        arrivals.with(|p| {
            let mut phase = String::new();
            let wave_messages = p
                .events()
                .filter(|ev| match ev {
                    TraceEvent::RunStart { phase: label, .. } => {
                        phase.clone_from(label);
                        false
                    }
                    TraceEvent::Message { .. } => phase == "apsp:waves",
                    _ => false,
                })
                .count();
            assert!(wave_messages > 0, "{family}: wave phase sent messages");
            assert!(
                !p.wave_arrivals().is_empty(),
                "{family}: wave arrivals were recorded"
            );
            let collisions = p.node_collisions();
            assert!(
                collisions.is_empty(),
                "{family}: waves first-reached a node in the same round: {collisions:?}"
            );
            // Speed-1 propagation: within one wave, arrival − distance is
            // the same for every node (the wave's start offset). The root
            // itself is excluded — it only hears its own wave echoed back.
            let mut offsets: HashMap<u32, u64> = HashMap::new();
            for (&(stream, node), &round) in p.wave_arrivals() {
                if node == stream {
                    continue;
                }
                let d = u64::from(
                    result
                        .distances
                        .get(stream, node)
                        .unwrap_or_else(|| panic!("{family}: d({stream}, {node}) known")),
                );
                let offset = round
                    .checked_sub(d)
                    .unwrap_or_else(|| panic!("{family}: wave {stream} outran distance"));
                let prev = offsets.entry(stream).or_insert(offset);
                assert_eq!(
                    *prev, offset,
                    "{family}: wave {stream} did not propagate at speed 1 (node {node})"
                );
            }
        });
    }
}

#[test]
fn ssp_wave_delay_is_at_most_the_source_count() {
    for (family, g) in families() {
        let n = g.num_nodes();
        for set_size in [1usize, 3, 8] {
            let step = (n / set_size).max(1);
            let sources: Vec<u32> = (0..n as u32).step_by(step).take(set_size).collect();
            // The recorder's wave maps describe the last run: the growth.
            let arrivals = SharedObserver::new(TraceRecorder::new());
            let handle = arrivals.observer();
            let result = ssp::run_on_obs(&g.to_topology(), &sources, Obs::watching(&handle))
                .expect("ssp runs");

            let index: HashMap<u32, usize> = result
                .sources
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, i))
                .collect();
            let dist = |stream: u32, v: u32| -> Option<u64> {
                let i = *index.get(&stream)?;
                let d = result.dist[v as usize][i];
                (d != INFINITY).then_some(u64::from(d))
            };
            let max_delay = arrivals
                .with(|p| p.max_delay(dist))
                .expect("growth arrivals were recorded");
            assert!(
                max_delay >= 0,
                "{family}/|S|={}: a wave outran the BFS schedule ({max_delay})",
                sources.len()
            );
            assert!(
                max_delay <= sources.len() as i64,
                "{family}/|S|={}: wave delay {max_delay} exceeds |S|",
                sources.len()
            );
        }
    }
}

#[test]
fn reliable_apsp_equals_oracle_on_random_graphs_under_any_loss_below_one() {
    // The reliable transport's exactness claim, probed across random topologies
    // and loss rates up to 50% (where barely a quarter of frame/ack round
    // trips survive): the distance matrix must equal the sequential oracle
    // bit-for-bit, with the adversary verifiably active.
    for seed in 0..4 {
        let g = generators::erdos_renyi_connected(16, 0.18, seed);
        let oracle = reference::apsp(&g);
        for loss in [0.05, 0.25, 0.5] {
            let plan = FaultPlan::uniform_loss(loss, seed.wrapping_mul(31) + 7);
            let r = apsp::run_on_obs(&g.to_topology(), Obs::none().with_faults(&plan))
                .unwrap_or_else(|e| panic!("seed {seed} loss {loss}: {e}"));
            assert_eq!(
                r.distances, oracle,
                "seed {seed} loss {loss}: wrong distances"
            );
            assert!(
                r.stats.dropped > 0,
                "seed {seed} loss {loss}: adversary never fired"
            );
        }
    }
}

#[test]
fn reliable_ssp_equals_oracle_on_random_graphs_under_loss() {
    for seed in 0..3 {
        let g = generators::erdos_renyi_connected(16, 0.18, seed);
        let sources: Vec<u32> = (0..16).step_by(3).collect();
        let oracle = reference::s_shortest_paths(&g, &sources);
        let plan = FaultPlan::uniform_loss(0.2, 1000 + seed);
        let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none().with_faults(&plan))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (i, dists) in oracle.iter().enumerate() {
            for (v, &d) in dists.iter().enumerate() {
                assert_eq!(r.dist[v][i], d, "seed {seed}: d({v}, source {i}) wrong");
            }
        }
        assert!(r.stats.dropped > 0, "seed {seed}");
    }
}

#[test]
fn lossy_waves_without_the_synchronizer_never_underestimate() {
    // The fault layer's delivery semantics, probed on the raw wave kernel:
    // a drop can only *remove* information. Whatever distance a node ends
    // up claiming was carried by some real path, so it is never below the
    // true distance — unreached stays INFINITY, never wrong.
    for seed in 0..6 {
        let g = generators::erdos_renyi_connected(20, 0.15, seed);
        let topo = g.to_topology();
        let oracle = reference::bfs(&g, 0);
        for loss in [0.1, 0.4, 0.8] {
            let config = Config::for_n(20).with_faults(FaultPlan::uniform_loss(loss, 500 + seed));
            let (mut dist, mut parent) = distance_rows(20, 1);
            let mut deal = Deal::new(&mut dist, &mut parent);
            run_protocol_on(&topo, config, |ctx| {
                WaveKernel::single_root(ctx, 0, deal.row(ctx))
            })
            .expect("lossy wave still terminates");
            for (v, &d) in dist.cells().iter().enumerate() {
                assert!(
                    d == INFINITY || d >= oracle[v],
                    "seed {seed} loss {loss}: node {v} claims {d} < true {}",
                    oracle[v]
                );
            }
            // The root always knows itself exactly.
            assert_eq!(dist[0][0], 0);
        }
    }
}
