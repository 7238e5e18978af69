//! Structural graph statistics and predicates.
//!
//! Used by the benchmark harness to characterize workloads and by tests to
//! validate generators.

use crate::graph::Graph;

/// Summary statistics of a graph's degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
}

/// Computes min/max/mean degree.
///
/// # Panics
///
/// Panics on an empty graph.
///
/// # Examples
///
/// ```
/// use dapsp_graph::{generators, properties};
///
/// let s = properties::degree_stats(&generators::star(5));
/// assert_eq!((s.min, s.max), (1, 4));
/// assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
/// ```
pub fn degree_stats(g: &Graph) -> DegreeStats {
    assert!(g.num_nodes() > 0, "degree stats of an empty graph");
    let degrees: Vec<usize> = (0..g.num_nodes() as u32).map(|v| g.degree(v)).collect();
    DegreeStats {
        min: *degrees.iter().min().expect("nonempty"),
        max: *degrees.iter().max().expect("nonempty"),
        mean: 2.0 * g.num_edges() as f64 / g.num_nodes() as f64,
    }
}

/// Edge density `m / (n·(n-1)/2)`; 0 for graphs with fewer than two nodes.
pub fn density(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0.0;
    }
    g.num_edges() as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
}

/// True if the graph is bipartite (2-colorable). Vacuously true when
/// empty.
///
/// # Examples
///
/// ```
/// use dapsp_graph::{generators, properties};
///
/// assert!(properties::is_bipartite(&generators::grid(3, 4)));
/// assert!(!properties::is_bipartite(&generators::cycle(5)));
/// ```
pub fn is_bipartite(g: &Graph) -> bool {
    let n = g.num_nodes();
    let mut color = vec![u8::MAX; n];
    for start in 0..n as u32 {
        if color[start as usize] != u8::MAX {
            continue;
        }
        color[start as usize] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if color[v as usize] == u8::MAX {
                    color[v as usize] = 1 - color[u as usize];
                    queue.push_back(v);
                } else if color[v as usize] == color[u as usize] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_stats_on_regular_graphs() {
        let s = degree_stats(&generators::cycle(10));
        assert_eq!((s.min, s.max), (2, 2));
        assert!((s.mean - 2.0).abs() < 1e-12);
        let s = degree_stats(&generators::complete(7));
        assert_eq!((s.min, s.max), (6, 6));
    }

    #[test]
    fn density_extremes() {
        assert!((density(&generators::complete(6)) - 1.0).abs() < 1e-12);
        let path_density = density(&generators::path(6));
        assert!(path_density < 0.34 && path_density > 0.3);
        assert_eq!(density(&Graph::builder(1).build()), 0.0);
    }

    #[test]
    fn bipartite_classification() {
        assert!(is_bipartite(&generators::path(9)));
        assert!(is_bipartite(&generators::hypercube(4)));
        assert!(is_bipartite(&generators::cycle(8)));
        assert!(!is_bipartite(&generators::cycle(9)));
        assert!(!is_bipartite(&generators::complete(3)));
        assert!(is_bipartite(&generators::complete_bipartite(4, 5)));
        assert!(is_bipartite(&Graph::builder(0).build()));
    }

    use crate::Graph;
}
