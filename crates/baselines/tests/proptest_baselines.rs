//! Property tests: every baseline computes the oracle's distances on
//! random connected graphs, and the cost relationships the paper predicts
//! hold.

use proptest::prelude::*;

use dapsp_baselines::{distance_vector, distance_vector_eager, link_state, sequential_bfs};
use dapsp_core::{apsp, Obs};
use dapsp_graph::{generators, reference, Graph};

fn connected(n: usize, p: f64, seed: u64) -> Graph {
    generators::erdos_renyi_connected(n, p, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Five independent implementations, one truth.
    #[test]
    fn all_implementations_agree_with_the_oracle(n in 2usize..22, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = connected(n, p, seed);
        let truth = reference::apsp(&g);
        prop_assert_eq!(apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp").distances, truth.clone());
        prop_assert_eq!(sequential_bfs(&g).expect("seq").distances, truth.clone());
        prop_assert_eq!(distance_vector_eager(&g).expect("eager").distances, truth.clone());
        prop_assert_eq!(distance_vector(&g).expect("rr").distances, truth.clone());
        prop_assert_eq!(link_state(&g).expect("ls").distances, truth);
    }

    /// The pipelined algorithm never loses to the sequential schedule by
    /// more than the constant phase overhead.
    #[test]
    fn pipelining_never_loses(n in 3usize..26, seed in any::<u64>()) {
        let g = connected(n, 0.15, seed);
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        let s = sequential_bfs(&g).expect("seq");
        prop_assert!(a.stats.rounds <= s.stats.rounds + 12,
                     "pebbled {} vs sequential {}", a.stats.rounds, s.stats.rounds);
    }

    /// Link-state delivers the complete edge set to every node, which is
    /// why its message count is Θ(m²)-ish: at least m·(n-1)/something and
    /// bounded by 2·m² plus the announcements.
    #[test]
    fn link_state_message_volume(n in 3usize..20, seed in any::<u64>()) {
        let g = connected(n, 0.2, seed);
        let m = g.num_edges() as u64;
        let r = link_state(&g).expect("ls");
        prop_assert!(r.stats.messages <= 2 * m * m + 2 * m);
    }
}
