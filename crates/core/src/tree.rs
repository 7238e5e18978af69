//! Node-local knowledge of a rooted spanning tree.

use dapsp_congest::{Port, Topology};
use dapsp_graph::Graph;

use crate::error::CoreError;

/// What every node knows about a rooted spanning tree (such as the paper's
/// `T_1`) after a BFS: its parent port and its children ports.
///
/// This is deliberately *port-based* — it is exactly the local knowledge a
/// node acquires distributedly, and it is what the tree-based algorithms
/// (pebble traversal, convergecast/broadcast aggregation, the k-dominating
/// set rule) consume as their starting state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeKnowledge {
    /// The root node's id.
    pub root: u32,
    /// `parent_port[v]` is the port at `v` toward its parent (`None` at the
    /// root and at nodes outside the tree).
    pub parent_port: Vec<Option<Port>>,
    /// `children_ports[v]` lists the ports at `v` toward its children.
    pub children_ports: Vec<Vec<Port>>,
}

impl TreeKnowledge {
    /// Resolves parent ports to parent node ids using the graph.
    pub fn parent_ids(&self, graph: &Graph) -> Vec<Option<u32>> {
        self.parent_port
            .iter()
            .enumerate()
            .map(|(v, p)| p.map(|p| graph.neighbors(v as u32)[p as usize]))
            .collect()
    }

    /// Resolves children ports to children node ids using the graph.
    pub fn children_ids(&self, graph: &Graph) -> Vec<Vec<u32>> {
        self.children_ports
            .iter()
            .enumerate()
            .map(|(v, ports)| {
                ports
                    .iter()
                    .map(|&p| graph.neighbors(v as u32)[p as usize])
                    .collect()
            })
            .collect()
    }

    /// Number of nodes the structure covers (the graph size, not the tree
    /// size).
    pub fn num_nodes(&self) -> usize {
        self.parent_port.len()
    }

    /// Rejects a tree that is not a rooted spanning tree *of `topology`*:
    /// walking down from the root, every child port must be in range and
    /// lead to a node whose parent port leads back, and the walk must reach
    /// each of the `n` nodes exactly once. A tree taken from another graph
    /// fails here rather than running a tree algorithm over ports that mean
    /// something else (`O(n)` on the host).
    pub(crate) fn check_spans(&self, topology: &Topology) -> Result<(), CoreError> {
        let n = topology.num_nodes();
        let invalid =
            || CoreError::InvalidParameter("tree is not a spanning tree of the graph".into());
        let root = self.root as usize;
        if self.num_nodes() != n
            || self.children_ports.len() != n
            || root >= n
            || self.parent_port[root].is_some()
        {
            return Err(invalid());
        }
        let across = |v: u32, p: u32| topology.neighbors(v).get(p as usize).copied();
        let mut seen = vec![false; n];
        seen[root] = true;
        let mut stack = vec![self.root];
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            for &c in &self.children_ports[v as usize] {
                let w = across(v, c).ok_or_else(invalid)?;
                let back = self.parent_port[w as usize].and_then(|p| across(w, p));
                if back != Some(v) || seen[w as usize] {
                    return Err(invalid());
                }
                seen[w as usize] = true;
                reached += 1;
                stack.push(w);
            }
        }
        if reached != n {
            return Err(invalid());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{bfs, Obs};
    use dapsp_graph::generators;

    #[test]
    fn ids_resolve_consistently() {
        let g = generators::grid(3, 3);
        let r = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let parents = r.tree.parent_ids(&g);
        let children = r.tree.children_ids(&g);
        let mut edge_count = 0;
        for v in 0..9u32 {
            for &c in &children[v as usize] {
                assert_eq!(parents[c as usize], Some(v));
                edge_count += 1;
            }
        }
        // A spanning tree on 9 nodes has 8 edges.
        assert_eq!(edge_count, 8);
        assert!(r.tree.check_spans(&g.to_topology()).is_ok());
        assert_eq!(r.tree.num_nodes(), 9);
    }

    #[test]
    fn a_tree_of_a_disconnected_graph_does_not_span() {
        let mut b = dapsp_graph::Graph::builder(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let r = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        assert!(r.tree.check_spans(&g.to_topology()).is_err());
    }
}
