//! Graph families used as experiment workloads.
//!
//! Deterministic families are pure functions of their parameters; random
//! families take an explicit `seed` and are reproducible across runs and
//! platforms (seeded ChaCha stream).
//!
//! Several families exist to *control one parameter while holding others
//! fixed*, which the paper's bounds require:
//!
//! * [`double_broom`] — `n` nodes with diameter **exactly** `d` (used to
//!   sweep `D` in the `O(n/D + D)` approximation experiments),
//! * [`tadpole`] — `n` nodes with girth exactly `g`,
//! * [`barbell`] — low diameter with two dense clusters.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::graph::Graph;

/// The path `0 – 1 – … – n-1`. Diameter `n-1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one node");
    let mut b = Graph::builder(n);
    for v in 1..n as u32 {
        b.add_edge(v - 1, v).expect("valid edge");
    }
    b.build()
}

/// The cycle on `n >= 3` nodes. Diameter `⌊n/2⌋`, girth `n`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut b = Graph::builder(n);
    for v in 0..n as u32 {
        b.add_edge(v, (v + 1) % n as u32).expect("valid edge");
    }
    b.build()
}

/// The star: node 0 adjacent to nodes `1..n`. Diameter 2 (for `n >= 3`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star needs at least one node");
    let mut b = Graph::builder(n);
    for v in 1..n as u32 {
        b.add_edge(0, v).expect("valid edge");
    }
    b.build()
}

/// The complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph needs at least one node");
    let mut b = Graph::builder(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v).expect("valid edge");
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}`: nodes `0..a` on one side,
/// `a..a+b` on the other.
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a > 0 && b > 0, "both sides must be nonempty");
    let mut builder = Graph::builder(a + b);
    for u in 0..a as u32 {
        for v in a as u32..(a + b) as u32 {
            builder.add_edge(u, v).expect("valid edge");
        }
    }
    builder.build()
}

/// The `rows × cols` grid. Diameter `rows + cols - 2`.
///
/// # Panics
///
/// Panics if either dimension is 0.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut b = Graph::builder(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1)).expect("valid edge");
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c)).expect("valid edge");
            }
        }
    }
    b.build()
}

/// The `dim`-dimensional hypercube on `2^dim` nodes. Diameter `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 20`.
pub fn hypercube(dim: u32) -> Graph {
    assert!(
        dim > 0 && dim <= 20,
        "hypercube dimension must be in 1..=20"
    );
    let n = 1usize << dim;
    let mut b = Graph::builder(n);
    for v in 0..n as u32 {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v, u).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 is a single
/// node).
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity > 0, "arity must be positive");
    // Count nodes: 1 + arity + arity^2 + ... + arity^depth.
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= arity;
        n += level;
    }
    let mut b = Graph::builder(n);
    // Children of node v are arity*v + 1 ..= arity*v + arity.
    for v in 0..n {
        for c in 1..=arity {
            let child = arity * v + c;
            if child < n {
                b.add_edge(v as u32, child as u32).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A uniform random-attachment tree: node `i > 0` attaches to a uniformly
/// random earlier node. Always connected.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "tree needs at least one node");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v) as u32;
        b.add_edge(parent, v as u32).expect("valid edge");
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: each pair is an edge independently with
/// probability `p`. May be disconnected.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                b.add_edge(u, v).expect("valid edge");
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` forced connected by unioning a seeded random
/// spanning tree. For `p` well above `ln n / n` the tree edges are a
/// vanishing fraction and the model is indistinguishable from conditioned
/// `G(n, p)` for our purposes.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v) as u32;
        b.add_edge(parent, v as u32).expect("valid edge");
    }
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                b.add_edge(u, v).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A tree on `n` nodes with diameter **exactly** `d`: a path `v_0 … v_d`
/// with the remaining `n - d - 1` nodes attached as leaves alternately to
/// `v_1` and `v_{d-1}`.
///
/// This is the workhorse for sweeping `D` at fixed `n` in the
/// `O(n/D + D)` experiments.
///
/// # Panics
///
/// Panics unless `2 <= d <= n - 1`.
pub fn double_broom(n: usize, d: usize) -> Graph {
    assert!(d >= 2, "double_broom needs diameter >= 2");
    assert!(d < n, "diameter {d} impossible with {n} nodes");
    let mut b = Graph::builder(n);
    for v in 1..=d as u32 {
        b.add_edge(v - 1, v).expect("valid edge");
    }
    for (i, leaf) in ((d + 1) as u32..n as u32).enumerate() {
        let anchor = if i % 2 == 0 { 1 } else { d as u32 - 1 };
        b.add_edge(anchor, leaf).expect("valid edge");
    }
    b.build()
}

/// The tadpole (a.k.a. lollipop with a cycle head): a `g`-cycle with an
/// `(n - g)`-node path attached. Girth exactly `g`.
///
/// # Panics
///
/// Panics unless `3 <= g <= n`.
pub fn tadpole(g: usize, n: usize) -> Graph {
    assert!(g >= 3, "girth must be at least 3");
    assert!(g <= n, "girth {g} impossible with {n} nodes");
    let mut b = Graph::builder(n);
    for v in 0..g as u32 {
        b.add_edge(v, (v + 1) % g as u32).expect("valid edge");
    }
    for v in g as u32..n as u32 {
        let prev = if v == g as u32 { 0 } else { v - 1 };
        b.add_edge(prev, v).expect("valid edge");
    }
    b.build()
}

/// A hairy cycle: a `g`-cycle with the remaining `n - g` nodes attached as
/// pendant leaves, distributed round-robin over the cycle. Girth exactly
/// `g`, diameter ≈ `g/2 + 2` — the family where the girth approximation's
/// `O(n/g + D·log(D/g))` bound beats the exact `O(n)` computation.
///
/// # Panics
///
/// Panics unless `3 <= g <= n`.
pub fn hairy_cycle(g: usize, n: usize) -> Graph {
    assert!(g >= 3, "girth must be at least 3");
    assert!(g <= n, "girth {g} impossible with {n} nodes");
    let mut b = Graph::builder(n);
    for v in 0..g as u32 {
        b.add_edge(v, (v + 1) % g as u32).expect("valid edge");
    }
    for (i, leaf) in (g as u32..n as u32).enumerate() {
        b.add_edge((i % g) as u32, leaf).expect("valid edge");
    }
    b.build()
}

/// A lollipop: a `head`-node cycle plus a `tail`-node path. Total
/// `head + tail` nodes; equivalent to [`tadpole`]`(head, head + tail)`.
///
/// # Panics
///
/// Panics if `head < 3`.
pub fn lollipop(head: usize, tail: usize) -> Graph {
    tadpole(head, head + tail)
}

/// A barbell: two `k`-cliques joined by a path with `bridge` intermediate
/// nodes. Total `2k + bridge` nodes.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 1, "cliques need at least one node");
    let n = 2 * k + bridge;
    let mut b = Graph::builder(n);
    let clique = |b: &mut crate::graph::GraphBuilder, lo: u32, hi: u32| {
        for u in lo..hi {
            for v in (u + 1)..hi {
                b.add_edge(u, v).expect("valid edge");
            }
        }
    };
    clique(&mut b, 0, k as u32);
    clique(&mut b, (k + bridge) as u32, n as u32);
    // The bridge path from node k-1 through bridge nodes to node k+bridge.
    let mut prev = (k - 1) as u32;
    for v in k as u32..(k + bridge + 1) as u32 {
        if (v as usize) < n {
            b.add_edge(prev, v).expect("valid edge");
            prev = v;
        }
    }
    b.build()
}

/// A caterpillar: a `spine`-node path with `legs` leaves on every spine
/// node. Total `spine · (1 + legs)` nodes.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar needs a spine");
    let n = spine * (1 + legs);
    let mut b = Graph::builder(n);
    for s in 1..spine as u32 {
        b.add_edge(s - 1, s).expect("valid edge");
    }
    for s in 0..spine as u32 {
        for l in 0..legs as u32 {
            let leaf = spine as u32 + s * legs as u32 + l;
            b.add_edge(s, leaf).expect("valid edge");
        }
    }
    b.build()
}

/// A Watts–Strogatz small-world graph: a ring lattice where each node
/// connects to its `k` nearest neighbors on each side, with every lattice
/// edge rewired to a random endpoint with probability `beta`. Connectivity
/// is restored (if rewiring disconnected the ring) by adding the plain
/// ring back is *not* done — instead pass moderate `beta`; the function
/// keeps the ring edges `(v, v+1)` fixed so the result is always
/// connected.
///
/// # Panics
///
/// Panics unless `n >= 4`, `1 <= k < n/2`, and `beta` is a probability.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(n >= 4, "small-world graphs need n >= 4");
    assert!(k >= 1 && 2 * k < n, "need 1 <= k < n/2");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    for v in 0..n {
        for d in 1..=k {
            let u = (v + d) % n;
            // The immediate ring (d == 1) stays fixed for connectivity;
            // farther lattice edges may be rewired.
            if d > 1 && rng.gen_bool(beta) {
                let mut w = rng.gen_range(0..n);
                let mut tries = 0;
                while (w == v || b.has_edge(v as u32, w as u32)) && tries < 16 {
                    w = rng.gen_range(0..n);
                    tries += 1;
                }
                if w != v {
                    b.add_edge(v as u32, w as u32).expect("valid edge");
                    continue;
                }
            }
            b.add_edge(v as u32, u as u32).expect("valid edge");
        }
    }
    b.build()
}

/// A Barabási–Albert preferential-attachment graph: nodes arrive one at a
/// time and attach `m` edges to existing nodes chosen proportionally to
/// their degree. Produces the heavy-tailed degree distributions typical of
/// social networks; always connected.
///
/// # Panics
///
/// Panics unless `1 <= m < n`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "each newcomer needs at least one edge");
    assert!(m < n, "m must be below n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<u32> = Vec::new();
    // Seed clique on the first m+1 nodes.
    let core = (m + 1).min(n);
    for u in 0..core as u32 {
        for v in (u + 1)..core as u32 {
            b.add_edge(u, v).expect("valid edge");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in core..n {
        let mut chosen = std::collections::BTreeSet::new();
        let mut guard = 0;
        while chosen.len() < m && guard < 64 * m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            chosen.insert(t);
            guard += 1;
        }
        // Fallback for pathological sampling: attach to lowest-degree ids.
        let mut fill = 0u32;
        while chosen.len() < m {
            if (fill as usize) < v && !chosen.contains(&fill) {
                chosen.insert(fill);
            }
            fill += 1;
        }
        for &t in &chosen {
            b.add_edge(v as u32, t).expect("valid edge");
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(reference::diameter(&g), Some(4));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(reference::diameter(&g), Some(4));
        assert_eq!(reference::girth(&g), Some(8));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 5);
        assert_eq!(reference::diameter(&g), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(reference::diameter(&g), Some(1));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(reference::diameter(&g), Some(2));
        assert_eq!(reference::girth(&g), Some(4));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 4 * 4 + 3 * 5);
        assert_eq!(reference::diameter(&g), Some(7));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 32);
        assert_eq!(reference::diameter(&g), Some(4));
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.num_nodes(), 15);
        assert!(reference::is_tree(&g));
        assert_eq!(reference::diameter(&g), Some(6));
        // depth 0 is a single node
        assert_eq!(balanced_tree(3, 0).num_nodes(), 1);
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(40, seed);
            assert!(reference::is_tree(&g), "seed={seed}");
        }
    }

    #[test]
    fn random_generators_are_deterministic_in_seed() {
        assert_eq!(erdos_renyi(30, 0.2, 9), erdos_renyi(30, 0.2, 9));
        assert_ne!(erdos_renyi(30, 0.2, 9), erdos_renyi(30, 0.2, 10));
        assert_eq!(random_tree(30, 4), random_tree(30, 4));
    }

    #[test]
    fn erdos_renyi_connected_is_connected() {
        for seed in 0..5 {
            assert!(reference::is_connected(&erdos_renyi_connected(
                50, 0.02, seed
            )));
        }
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let g0 = erdos_renyi(10, 0.0, 1);
        assert_eq!(g0.num_edges(), 0);
        let g1 = erdos_renyi(10, 1.0, 1);
        assert_eq!(g1.num_edges(), 45);
    }

    #[test]
    fn double_broom_has_exact_diameter() {
        for (n, d) in [(20, 2), (20, 5), (20, 10), (20, 19), (7, 3)] {
            let g = double_broom(n, d);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(reference::diameter(&g), Some(d as u32), "n={n} d={d}");
            assert!(reference::is_tree(&g));
        }
    }

    #[test]
    fn tadpole_has_exact_girth() {
        for (g_target, n) in [(3, 10), (5, 12), (7, 7), (4, 20)] {
            let g = tadpole(g_target, n);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(reference::girth(&g), Some(g_target as u32));
        }
    }

    #[test]
    fn watts_strogatz_shape() {
        for seed in 0..4 {
            let g = watts_strogatz(40, 3, 0.2, seed);
            assert_eq!(g.num_nodes(), 40);
            assert!(reference::is_connected(&g), "seed={seed}");
            // Ring edges are preserved.
            for v in 0..40u32 {
                assert!(g.has_edge(v, (v + 1) % 40));
            }
        }
        assert_eq!(watts_strogatz(30, 2, 0.3, 5), watts_strogatz(30, 2, 0.3, 5));
    }

    #[test]
    fn barabasi_albert_shape() {
        for seed in 0..4 {
            let g = barabasi_albert(60, 2, seed);
            assert_eq!(g.num_nodes(), 60);
            assert!(reference::is_connected(&g), "seed={seed}");
            // Preferential attachment produces a hub: max degree well above m.
            let max_deg = (0..60u32).map(|v| g.degree(v)).max().unwrap();
            assert!(max_deg >= 6, "max degree {max_deg}");
            // Every latecomer has degree >= m.
            for v in 3..60u32 {
                assert!(g.degree(v) >= 2);
            }
        }
        assert_eq!(barabasi_albert(40, 2, 9), barabasi_albert(40, 2, 9));
    }

    #[test]
    fn hairy_cycle_shape() {
        for (g_target, n) in [(6, 30), (8, 8), (12, 100)] {
            let g = hairy_cycle(g_target, n);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(reference::girth(&g), Some(g_target as u32));
            // Diameter stays near g/2 (+2 for the two pendant hops).
            let d = reference::diameter(&g).unwrap() as usize;
            assert!(d <= g_target / 2 + 2, "d={d}");
        }
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 3);
        assert_eq!(g.num_nodes(), 11);
        assert!(reference::is_connected(&g));
        // clique – 4 bridge hops – clique, plus one hop inside each clique
        assert_eq!(reference::diameter(&g), Some(6));
        assert_eq!(reference::girth(&g), Some(3));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.num_nodes(), 12);
        assert!(reference::is_tree(&g));
        assert_eq!(reference::diameter(&g), Some(5));
    }
}
