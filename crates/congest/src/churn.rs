//! Shared churn application: turning a round's [`TopologyPlan`] batch into
//! topology mutations plus the per-node change summary every engine hands
//! to [`NodeAlgorithm::on_topology`](crate::NodeAlgorithm::on_topology).
//!
//! Both executors funnel their round's events through [`apply_events`] at
//! the same choke point, so the mutation order, the resulting epoch, and
//! the per-node deltas are identical by construction — the churn analogue
//! of the single outbox-validation point that keeps fault injection
//! bit-identical. The [`ReferenceSimulator`](crate::ReferenceSimulator)
//! oracle applies churn with its own code, so the equivalence tests check
//! this module instead of sharing it.

use std::collections::BTreeMap;

use crate::algorithm::TopologyDelta;
use crate::config::{EdgeEvent, NodeEvent, TopologyEvent};
use crate::error::SimError;
use crate::node::{NodeId, Port};
use crate::topology::Topology;

/// The digest of one round's applied churn batch: which ports each node
/// lost/gained and which nodes were removed or re-joined, plus the global
/// batch size ([`TopologyDelta::batch`]) and the post-batch epoch.
#[derive(Debug, Default)]
pub(crate) struct RoundChanges {
    pub epoch: u64,
    /// Directed port halves removed + inserted, plus one per node event.
    pub batch: u32,
    pub removed_ports: BTreeMap<NodeId, Vec<Port>>,
    pub inserted_ports: BTreeMap<NodeId, Vec<(Port, NodeId)>>,
    /// Sorted, deduplicated.
    pub removed_nodes: Vec<NodeId>,
    /// Sorted, deduplicated.
    pub joined_nodes: Vec<NodeId>,
}

impl RoundChanges {
    /// The node-local view of this batch for `v`.
    pub(crate) fn delta_for(&self, v: NodeId) -> TopologyDelta<'_> {
        static NO_PORTS: [Port; 0] = [];
        static NO_INSERTS: [(Port, NodeId); 0] = [];
        TopologyDelta {
            epoch: self.epoch,
            batch: self.batch,
            removed_ports: self
                .removed_ports
                .get(&v)
                .map(Vec::as_slice)
                .unwrap_or(&NO_PORTS),
            inserted_ports: self
                .inserted_ports
                .get(&v)
                .map(Vec::as_slice)
                .unwrap_or(&NO_INSERTS),
            removed: self.removed_nodes.binary_search(&v).is_ok(),
            joined: self.joined_nodes.binary_search(&v).is_ok(),
        }
    }
}

/// Applies one round's batch of events to `topo` in plan order, returning
/// the digest. On error the topology may be partially mutated — the
/// engines surface the error and abort the run, so the partial state is
/// never observed by algorithm code.
pub(crate) fn apply_events(
    topo: &mut Topology,
    events: &[(u64, TopologyEvent)],
) -> Result<RoundChanges, SimError> {
    let mut ch = RoundChanges::default();
    for &(_, event) in events {
        match event {
            TopologyEvent::Edge(EdgeEvent::Insert { u, v }) => {
                let [(u, pu), (v, pv)] = topo.insert_edge(u, v)?;
                ch.inserted_ports.entry(u).or_default().push((pu, v));
                ch.inserted_ports.entry(v).or_default().push((pv, u));
                ch.batch += 2;
            }
            TopologyEvent::Edge(EdgeEvent::Remove { u, v }) => {
                let halves = topo.remove_edge(u, v)?;
                for (w, p) in halves {
                    ch.removed_ports.entry(w).or_default().push(p);
                    ch.batch += 1;
                }
            }
            TopologyEvent::Node(NodeEvent::Crash(v)) => {
                let halves = topo.remove_node(v)?;
                ch.batch += halves.len() as u32 + 1;
                for (w, p) in halves {
                    ch.removed_ports.entry(w).or_default().push(p);
                }
                ch.removed_nodes.push(v);
            }
            TopologyEvent::Node(NodeEvent::Join(v)) => {
                topo.join_node(v)?;
                ch.joined_nodes.push(v);
                ch.batch += 1;
            }
        }
    }
    // A node the batch both crashed and re-joined is told its net fate
    // only — the two flags together would not say which came last.
    ch.removed_nodes.retain(|&v| !topo.node_present(v));
    ch.joined_nodes.retain(|&v| topo.node_present(v));
    ch.removed_nodes.sort_unstable();
    ch.removed_nodes.dedup();
    ch.joined_nodes.sort_unstable();
    ch.joined_nodes.dedup();
    ch.epoch = topo.epoch();
    Ok(ch)
}

/// The topology `base` ends up as after *every* event of `plan` has been
/// applied — the oracle-side helper: recompute reference answers on the
/// post-churn graph (via [`Topology::to_adjacency`]) and compare them to a
/// churned run's repaired outputs.
///
/// # Errors
///
/// Propagates the same validation errors a running engine would hit at its
/// choke point (removing a missing edge, inserting a duplicate, …).
pub fn churned_topology(
    base: &Topology,
    plan: &crate::config::TopologyPlan,
) -> Result<Topology, SimError> {
    let mut topo = base.clone();
    apply_events(&mut topo, plan.events())?;
    Ok(topo)
}

/// The nodes that get an `on_topology` notification for this batch, in
/// id order: every present node, plus the nodes the batch itself removed
/// (their final notification).
pub(crate) fn notify_order(topo: &Topology, changes: &RoundChanges) -> Vec<NodeId> {
    (0..topo.num_nodes() as NodeId)
        .filter(|&v| topo.node_present(v) || changes.removed_nodes.binary_search(&v).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyPlan;

    fn path4() -> Topology {
        Topology::from_adjacency(vec![vec![1], vec![0, 2], vec![1, 3], vec![2]]).unwrap()
    }

    #[test]
    fn batch_digest_covers_all_event_kinds() {
        let mut topo = path4();
        let plan = TopologyPlan::new()
            .with_remove(3, 1, 2)
            .with_insert(3, 0, 3)
            .with_crash(3, 2);
        let ch = apply_events(&mut topo, plan.events_at(3)).unwrap();
        assert_eq!(ch.epoch, 3);
        // remove(1,2): 2 halves; insert(0,3): 2 halves; crash(2): one
        // remaining edge (2-3) = 2 halves + 1 node event.
        assert_eq!(ch.batch, 2 + 2 + 3);
        assert_eq!(ch.removed_nodes, vec![2]);
        assert!(ch.joined_nodes.is_empty());
        let d1 = ch.delta_for(1);
        assert_eq!(d1.removed_ports, &[1]);
        assert!(d1.inserted_ports.is_empty());
        assert!(!d1.removed && !d1.joined);
        let d2 = ch.delta_for(2);
        assert!(d2.removed);
        assert_eq!(d2.removed_ports, &[0, 1]);
        let d0 = ch.delta_for(0);
        assert_eq!(d0.inserted_ports, &[(1, 3)]);
        let d3 = ch.delta_for(3);
        assert_eq!(d3.inserted_ports, &[(1, 0)]);
        assert_eq!(d3.removed_ports, &[0]);
        // Removed node 2 still gets its final notification.
        assert_eq!(notify_order(&topo, &ch), vec![0, 1, 2, 3]);
        // A later batch no longer notifies it.
        let later = apply_events(
            &mut topo,
            TopologyPlan::new().with_remove(4, 0, 1).events_at(4),
        )
        .unwrap();
        assert_eq!(notify_order(&topo, &later), vec![0, 1, 3]);
    }

    #[test]
    fn a_crash_and_a_join_in_one_batch_report_the_net_fate() {
        // Crash then join: present again, edgeless — `joined` only, yet the
        // ports the crash tombstoned are still reported, at both ends.
        let mut topo = path4();
        let plan = TopologyPlan::new().with_crash(2, 3).with_join(2, 3);
        let ch = apply_events(&mut topo, plan.events_at(2)).unwrap();
        let d3 = ch.delta_for(3);
        assert!(d3.joined && !d3.removed);
        assert_eq!(d3.removed_ports, &[0]);
        assert_eq!(ch.delta_for(2).removed_ports, &[1]);
        assert_eq!(ch.batch, 2 + 1 + 1);
        assert_eq!(notify_order(&topo, &ch), vec![0, 1, 2, 3]);
        // Join then crash (of a node that was absent): absent again —
        // `removed` only, its final notification.
        let plan = TopologyPlan::new()
            .with_crash(3, 3)
            .with_join(4, 3)
            .with_crash(4, 3);
        apply_events(&mut topo, plan.events_at(3)).unwrap();
        let ch = apply_events(&mut topo, plan.events_at(4)).unwrap();
        let d3 = ch.delta_for(3);
        assert!(d3.removed && !d3.joined);
        assert_eq!(notify_order(&topo, &ch), vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalid_events_error_out() {
        let mut topo = path4();
        let bad = TopologyPlan::new().with_remove(1, 0, 3);
        assert!(apply_events(&mut topo, bad.events_at(1)).is_err());
        let bad = TopologyPlan::new().with_insert(1, 0, 1);
        assert!(apply_events(&mut topo, bad.events_at(1)).is_err());
        let bad = TopologyPlan::new().with_join(1, 0);
        assert!(apply_events(&mut topo, bad.events_at(1)).is_err());
    }
}
