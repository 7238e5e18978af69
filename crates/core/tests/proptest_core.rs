//! Property tests for the paper's algorithms: exactness against the
//! centralized oracle, round bounds, and approximation guarantees, all on
//! randomized connected graphs.
#![allow(clippy::needless_range_loop)] // index loops mirror the matrix notation

use proptest::prelude::*;

use dapsp_core::{
    aggregate, approx, apsp, bfs, dominating, girth, girth_approx, metrics, routing, ssp,
    ssp_paper, Obs,
};
use dapsp_graph::{generators, reference, Graph, INFINITY};

fn connected(n: usize, p: f64, seed: u64) -> Graph {
    generators::erdos_renyi_connected(n, p, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 1: Algorithm 1 computes exactly the oracle's distances, in
    /// at most ~4n rounds — and completing at all certifies Lemma 1, since
    /// the simulator rejects any two waves sharing an edge-round.
    #[test]
    fn apsp_is_exact_and_linear(n in 2usize..36, p in 0.0f64..0.35, seed in any::<u64>()) {
        let g = connected(n, p, seed);
        let r = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        prop_assert_eq!(r.distances, reference::apsp(&g));
        prop_assert!(r.stats.rounds <= 4 * n as u64 + 10, "rounds={}", r.stats.rounds);
    }

    /// Next-hop tables always describe shortest paths.
    #[test]
    fn apsp_paths_are_shortest(n in 2usize..20, seed in any::<u64>()) {
        let g = connected(n, 0.2, seed);
        let oracle = reference::apsp(&g);
        let table = routing::RouteTable::from_apsp(apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp"), 0);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let path = table.path(u, v).expect("connected");
                prop_assert_eq!(path.len() as u32 - 1, oracle.get(u, v).unwrap());
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// Theorem 3: S-SP matches the oracle for arbitrary source sets, and
    /// its measured main-loop rounds respect the O(|S| + D) shape.
    #[test]
    fn ssp_is_exact(n in 2usize..32, p in 0.0f64..0.3, seed in any::<u64>(), nsrc in 1usize..10) {
        let g = connected(n, p, seed);
        let count = nsrc.min(n);
        // Spread sources deterministically over the id space.
        let sources: Vec<u32> = (0..count).map(|i| (i * n / count) as u32).collect();
        let mut sources = sources;
        sources.dedup();
        let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
        let oracle = reference::s_shortest_paths(&g, &sources);
        for (i, _) in sources.iter().enumerate() {
            for v in 0..n {
                prop_assert_eq!(r.dist[v][i], oracle[i][v]);
            }
        }
        // Whole-pipeline bound: two O(D) phases plus the growth; D0 = 2·ecc(1).
        let bound = 4 * u64::from(r.d0) + r.budget + 16;
        prop_assert!(r.stats.rounds <= bound, "rounds={} bound={}", r.stats.rounds, bound);
    }

    /// The verbatim Algorithm 2 against the kernel-based production S-SP
    /// and the oracle: the kernel growth is exact, and every entry the
    /// verbatim schedule resolves is a real walk length — an overestimate
    /// at worst (the documented DESIGN.md §5 deviation), never an
    /// underestimate — with the unresolved count bookkept correctly.
    #[test]
    fn ssp_paper_never_underestimates_and_kernel_is_exact(
        n in 2usize..26, p in 0.0f64..0.3, seed in any::<u64>(), nsrc in 1usize..6
    ) {
        let g = connected(n, p, seed);
        let count = nsrc.min(n);
        let mut sources: Vec<u32> = (0..count).map(|i| (i * n / count) as u32).collect();
        sources.dedup();
        let paper = ssp_paper::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp_paper");
        let kernel = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
        let oracle = reference::s_shortest_paths(&g, &sources);
        let mut unresolved = 0u64;
        for (i, _) in sources.iter().enumerate() {
            for v in 0..n {
                prop_assert_eq!(kernel.dist[v][i], oracle[i][v], "kernel v={} source#{}", v, i);
                let got = paper.dist[v][i];
                if got == INFINITY {
                    unresolved += 1;
                } else {
                    prop_assert!(got >= oracle[i][v], "v={} source#{}: {} < oracle {}",
                                 v, i, got, oracle[i][v]);
                }
            }
        }
        prop_assert_eq!(unresolved, paper.unresolved);
    }

    /// BFS: distances, tree structure, and Claim 1 agree with the oracle.
    #[test]
    fn bfs_matches_oracle(n in 1usize..32, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = connected(n, p, seed);
        let root = (seed % n as u64) as u32;
        let r = bfs::run_on_obs(&g.to_topology(), root, Obs::none()).expect("bfs");
        prop_assert_eq!(&r.dist, &reference::bfs(&g, root));
        prop_assert_eq!(r.cycle_detected, !reference::is_tree(&g));
        let parents = r.tree.parent_ids(&g);
        for v in 0..n as u32 {
            if v != root {
                let p = parents[v as usize].unwrap();
                prop_assert_eq!(r.dist[p as usize] + 1, r.dist[v as usize]);
            }
        }
    }

    /// Aggregation computes the same fold as the host would, for every op.
    /// (Values are kept small enough that even the Sum fits the B-bit
    /// bandwidth at the smallest n, per the aggregate contract.)
    #[test]
    fn aggregation_matches_host_fold(n in 1usize..28, seed in any::<u64>(), values in proptest::collection::vec(0u64..16, 1..28)) {
        let n = n.min(values.len());
        let values = &values[..n];
        let g = connected(n, 0.2, seed);
        let t = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).expect("bfs").tree;
        use aggregate::AggOp::*;
        for (op, want) in [
            (Max, values.iter().copied().max().unwrap()),
            (Min, values.iter().copied().min().unwrap()),
            (Sum, values.iter().copied().sum()),
            (Or, u64::from(values.iter().any(|&v| v & 1 == 1))),
        ] {
            let input: Vec<u64> = if matches!(op, Or) {
                values.iter().map(|v| v & 1).collect()
            } else {
                values.to_vec()
            };
            let got = aggregate::run_on_obs(&g.to_topology(), &t, &input, op, Obs::none()).expect("aggregate").value;
            prop_assert_eq!(got, want, "op {:?}", op);
        }
    }

    /// Lemma 10 substitute: the k-dominating set covers and respects the
    /// Kutten–Peleg size bound for every k.
    #[test]
    fn dominating_set_properties(n in 1usize..36, p in 0.0f64..0.3, seed in any::<u64>(), k in 0u32..8) {
        let g = connected(n, p, seed);
        let t = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).expect("bfs").tree;
        let dom = dominating::run_on_obs(&g.to_topology(), &t, k, Obs::none()).expect("dominating");
        let ids = dom.member_ids();
        prop_assert!(reference::is_k_dominating_set(&g, &ids, k));
        prop_assert!(dom.size <= 1u64.max(n as u64 / (u64::from(k) + 1)),
                     "size {} n {} k {}", dom.size, n, k);
    }

    /// Lemmas 2–6 as one bundle: all five metrics match the oracle.
    #[test]
    fn metric_bundle_matches_oracle(n in 2usize..28, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = connected(n, p, seed);
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        let b = metrics::from_apsp(&g, &a).expect("metrics");
        prop_assert_eq!(Some(b.diameter), reference::diameter(&g));
        prop_assert_eq!(Some(b.radius), reference::radius(&g));
        prop_assert_eq!(Some(b.eccentricities.clone()), reference::eccentricities(&g));
        let center: Vec<u32> = (0..n as u32).filter(|&v| b.center[v as usize]).collect();
        prop_assert_eq!(Some(center), reference::center(&g));
        let periph: Vec<u32> = (0..n as u32).filter(|&v| b.peripheral[v as usize]).collect();
        prop_assert_eq!(Some(periph), reference::peripheral_vertices(&g));
    }

    /// Lemma 7: distributed girth equals the oracle girth.
    #[test]
    fn girth_matches_oracle(n in 3usize..26, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = connected(n, p, seed);
        prop_assert_eq!(girth::run(&g).expect("girth").girth, reference::girth(&g));
    }

    /// Theorem 4: the eccentricity estimates satisfy
    /// ecc <= estimate <= (1+ε)·ecc for random ε.
    #[test]
    fn approx_ecc_guarantee(n in 2usize..28, seed in any::<u64>(), eps in 0.05f64..2.0) {
        let g = connected(n, 0.1, seed);
        let r = approx::eccentricities(&g, eps).expect("approx");
        let exact = reference::eccentricities(&g).unwrap();
        for v in 0..n {
            prop_assert!(exact[v] <= r.estimates[v]);
            prop_assert!(f64::from(r.estimates[v]) <= (1.0 + eps) * f64::from(exact[v]) + 1e-9,
                         "v={} est={} exact={} eps={}", v, r.estimates[v], exact[v], eps);
        }
    }

    /// Theorem 5: the girth estimate satisfies g <= est <= (1+ε)·g.
    #[test]
    fn approx_girth_guarantee(n in 4usize..24, seed in any::<u64>(), eps in 0.1f64..1.5) {
        let g = connected(n, 0.15, seed);
        let r = girth_approx::run(&g, eps).expect("approx girth");
        match reference::girth(&g) {
            None => prop_assert_eq!(r.estimate, None),
            Some(truth) => {
                let est = r.estimate.unwrap();
                prop_assert!(est >= truth);
                prop_assert!(f64::from(est) <= (1.0 + eps) * f64::from(truth) + 1e-9);
            }
        }
    }


    /// k-BFS truncation is exactly the distance-filtered APSP, and the
    /// census matches the oracle's neighborhood counts.
    #[test]
    fn kbfs_is_filtered_apsp(n in 2usize..26, seed in any::<u64>(), k in 0u32..5) {
        let g = connected(n, 0.15, seed);
        let oracle = reference::apsp(&g);
        let r = apsp::run_truncated(&g, k).expect("kbfs");
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    r.distances.get(u, v),
                    oracle.get(u, v).filter(|&d| d <= k)
                );
            }
        }
        let counts = r.neighborhood_sizes();
        for v in 0..n as u32 {
            let want = (0..n as u32)
                .filter(|&u| oracle.get(v, u).is_some_and(|d| d <= k))
                .count() as u32;
            prop_assert_eq!(counts[v as usize], want);
        }
        prop_assert_eq!(
            r.covers_everything(),
            reference::diameter(&g).unwrap() <= k
        );
    }

    /// Corollary 4 memberships: approximate center/peripheral contain the
    /// exact sets.
    #[test]
    fn approx_membership_supersets(n in 2usize..24, seed in any::<u64>()) {
        let g = connected(n, 0.12, seed);
        let ecc = approx::eccentricities(&g, 0.5).expect("estimates");
        let b = approx::from_estimates(&g, &ecc).expect("bundle");
        for v in reference::center(&g).unwrap() {
            prop_assert!(b.center[v as usize], "center {} missing", v);
        }
        for v in reference::peripheral_vertices(&g).unwrap() {
            prop_assert!(b.peripheral[v as usize], "peripheral {} missing", v);
        }
    }
}
