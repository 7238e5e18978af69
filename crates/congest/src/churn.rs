//! A [`TopologyPlan`] as an edit batch applied between runs:
//! [`churned_topology`] folds the plan's events into a fresh, immutable
//! [`Topology`] on the host, and a run then sees that topology only. No
//! engine changes the network mid-run.

use crate::config::{EdgeEvent, NodeEvent, TopologyEvent, TopologyPlan};
use crate::error::SimError;
use crate::node::NodeId;
use crate::topology::Topology;

/// The topology `base` ends up as after *every* event of `plan`, applied
/// in round order and, within a round, in plan order. The result is a
/// fresh CSR topology:
///
/// * a surviving edge keeps its place in each endpoint's port order, and
///   an inserted edge takes the place that keeps a sorted list sorted — so
///   a topology built from sorted adjacency lists (as every
///   `dapsp_graph::Graph` builds one) stays the one its churned graph
///   would build;
/// * a removed node keeps its id as an isolated, absent vertex
///   ([`Topology::node_present`]); only a later join makes it present
///   again, still edgeless.
///
/// The rounds of a plan only order its events: a plan with every event at
/// round 1 yields the same topology.
///
/// # Errors
///
/// [`SimError::InvalidTopology`] for the first event that does not apply:
/// an endpoint out of range, a self-loop, an insertion of an existing edge
/// or at an absent node, a removal of a missing edge, a crash of an absent
/// node or a join of a present one.
pub fn churned_topology(base: &Topology, plan: &TopologyPlan) -> Result<Topology, SimError> {
    let n = base.num_nodes();
    let mut adj = base.to_adjacency();
    let mut absent: Vec<bool> = (0..n as NodeId).map(|v| !base.node_present(v)).collect();
    let check = |v: NodeId| {
        if (v as usize) < n {
            Ok(v as usize)
        } else {
            Err(SimError::InvalidTopology(format!(
                "topology event names node {v}, but there are only {n} nodes"
            )))
        }
    };
    for &(_, event) in plan.events() {
        match event {
            TopologyEvent::Edge(EdgeEvent::Insert { u, v }) => {
                let (iu, iv) = (check(u)?, check(v)?);
                if u == v {
                    return Err(SimError::InvalidTopology(format!(
                        "cannot insert self-loop at node {u}"
                    )));
                }
                if let Some(w) = [u, v].into_iter().find(|&w| absent[w as usize]) {
                    return Err(SimError::InvalidTopology(format!(
                        "cannot insert edge {u}-{v}: node {w} is absent"
                    )));
                }
                if adj[iu].contains(&v) {
                    return Err(SimError::InvalidTopology(format!(
                        "edge {u}-{v} already exists"
                    )));
                }
                insert_sorted(&mut adj[iu], v);
                insert_sorted(&mut adj[iv], u);
            }
            TopologyEvent::Edge(EdgeEvent::Remove { u, v }) => {
                let (iu, iv) = (check(u)?, check(v)?);
                if !adj[iu].contains(&v) {
                    return Err(SimError::InvalidTopology(format!(
                        "cannot remove edge {u}-{v}: no such live edge"
                    )));
                }
                adj[iu].retain(|&w| w != v);
                adj[iv].retain(|&w| w != u);
            }
            TopologyEvent::Node(NodeEvent::Crash(v)) => {
                let iv = check(v)?;
                if absent[iv] {
                    return Err(SimError::InvalidTopology(format!(
                        "cannot remove node {v}: already absent"
                    )));
                }
                for w in std::mem::take(&mut adj[iv]) {
                    adj[w as usize].retain(|&x| x != v);
                }
                absent[iv] = true;
            }
            TopologyEvent::Node(NodeEvent::Join(v)) => {
                let iv = check(v)?;
                if !absent[iv] {
                    return Err(SimError::InvalidTopology(format!(
                        "cannot join node {v}: already present"
                    )));
                }
                absent[iv] = false;
            }
        }
    }
    Ok(Topology::from_adjacency(adj)?.with_absent(absent))
}

/// Inserts `v` where it keeps a sorted `list` sorted.
fn insert_sorted(list: &mut Vec<NodeId>, v: NodeId) {
    let at = list.partition_point(|&w| w < v);
    list.insert(at, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Topology {
        Topology::from_adjacency(vec![vec![1], vec![0, 2], vec![1, 3], vec![2]]).unwrap()
    }

    #[test]
    fn every_event_kind_folds_into_a_fresh_topology() {
        let plan = TopologyPlan::new()
            .with_remove(3, 1, 2)
            .with_insert(3, 0, 3)
            .with_crash(3, 2);
        let t = churned_topology(&path4(), &plan).unwrap();
        assert_eq!(t.to_adjacency(), vec![vec![1, 3], vec![0], vec![], vec![0]]);
        assert_eq!(t.num_edges(), 2);
        assert!(!t.node_present(2) && t.node_present(3));
        // The rounds only order the events.
        let at_one = TopologyPlan::new()
            .with_remove(1, 1, 2)
            .with_insert(1, 0, 3)
            .with_crash(1, 2);
        assert_eq!(churned_topology(&path4(), &at_one).unwrap(), t);
        // A re-joined node is present and edgeless until an insertion.
        let back = TopologyPlan::new().with_join(1, 2).with_insert(2, 1, 2);
        let t = churned_topology(&t, &back).unwrap();
        assert_eq!(
            t,
            Topology::from_adjacency(vec![vec![1, 3], vec![0, 2], vec![1], vec![0]]).unwrap()
        );
    }

    #[test]
    fn an_empty_plan_is_the_identity_and_insertions_keep_lists_sorted() {
        let t = path4();
        assert_eq!(churned_topology(&t, &TopologyPlan::new()).unwrap(), t);
        let plan = TopologyPlan::new()
            .with_remove(1, 1, 2)
            .with_insert(2, 2, 1);
        assert_eq!(churned_topology(&t, &plan).unwrap(), t);
    }

    #[test]
    fn invalid_events_error_out() {
        for bad in [
            TopologyPlan::new().with_remove(1, 0, 3),
            TopologyPlan::new().with_insert(1, 0, 1),
            TopologyPlan::new().with_insert(1, 2, 2),
            TopologyPlan::new().with_insert(1, 0, 9),
            TopologyPlan::new().with_join(1, 0),
            TopologyPlan::new().with_crash(1, 3).with_crash(2, 3),
            TopologyPlan::new().with_crash(1, 3).with_insert(2, 0, 3),
        ] {
            assert!(
                matches!(
                    churned_topology(&path4(), &bad),
                    Err(SimError::InvalidTopology(_))
                ),
                "{bad:?}"
            );
        }
    }
}
