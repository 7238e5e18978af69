//! Distributed k-dominating set construction (the paper's Lemma 10).
//!
//! The paper uses Kutten & Peleg's `Diam_DOM` as a black box with two
//! guarantees: the set has size at most `max{1, ⌊n/(k+1)⌋}` and costs
//! `O(D + k)` rounds. This module provides the same interface via the
//! classical bottom-up tree rule on the BFS tree `T_1` (see DESIGN.md for
//! the substitution note):
//!
//! Every node convergecasts a pair `(need, cover)` — the furthest
//! not-yet-dominated node in its subtree and the nearest chosen dominator
//! in its subtree. A node whose `need` reaches `k` joins the set (its whole
//! pending chain of `k+1` nodes is then covered), and the root joins if
//! anything is left pending. One convergecast = `O(depth(T_1)) = O(D)`
//! rounds, and nothing after it: no census of `|DOM|` is run.
//!
//! Every dominator placed below the root absorbs a private chain of `k+1`
//! nodes, which yields the Kutten–Peleg size bound. Every node knows `n`
//! and `k`, so it computes that bound locally in zero rounds and takes it
//! as the `|S|` of the DOM-SP's `|S| + D₀` horizon.

use dapsp_congest::{NodeContext, Port, RunStats, Topology, Width};

use crate::error::CoreError;
use crate::kernel::{run_phase, Protocol, Tx};
use crate::observe::Obs;
use crate::tree::TreeKnowledge;

/// Convergecast payload: the subtree summary `(need + 1, cover)`, both in
/// `0..=k+1`.
#[derive(Clone, Debug)]
struct DomMsg {
    /// `need + 1` where `need` is the max distance to a pending node
    /// (`0` encodes "nothing pending").
    need_plus_one: u32,
    /// Min distance to a chosen dominator, capped at `k + 1` (= "too far").
    cover: u32,
}

/// One node of the selection convergecast: it reports its subtree's
/// summary to its parent once every child has reported.
struct DomNode {
    k: u32,
    parent_port: Option<Port>,
    missing_children: usize,
    /// Accumulated over children: max pending depth (+1 encoding), min
    /// dominator distance.
    acc_need_plus_one: u32,
    acc_cover: u32,
    is_dominator: bool,
    done: bool,
}

impl DomNode {
    /// Node `v` of `tree`, selecting a `k`-dominating set.
    fn new(k: u32, tree: &TreeKnowledge, v: usize) -> Self {
        DomNode {
            k,
            parent_port: tree.parent_port[v],
            missing_children: tree.children_ports[v].len(),
            acc_need_plus_one: 0,
            acc_cover: k + 1,
            is_dominator: false,
            done: false,
        }
    }

    /// Combines children summaries with this node itself and applies the
    /// join rule; returns the summary to report upward.
    fn resolve(&mut self, is_root: bool) -> DomMsg {
        let k = self.k;
        // Children's pending nodes are one hop further from us; same for
        // their dominators.
        let mut need_plus_one = if self.acc_need_plus_one == 0 {
            0
        } else {
            self.acc_need_plus_one + 1
        };
        let mut cover = (self.acc_cover + 1).min(k + 1);
        // This node itself: pending unless a subtree dominator covers it.
        if cover > k {
            need_plus_one = need_plus_one.max(1);
        }
        // Cross-subtree coverage: if the furthest pending node can reach
        // the nearest dominator within k, everything pending is covered.
        if need_plus_one > 0 && need_plus_one - 1 + cover <= k {
            need_plus_one = 0;
        }
        // Join rule: a pending chain of depth k must be absorbed now —
        // waiting one more level would strand its deepest node.
        if need_plus_one == k + 1 || (is_root && need_plus_one > 0) {
            self.is_dominator = true;
            need_plus_one = 0;
            cover = 0;
        }
        DomMsg {
            need_plus_one,
            cover,
        }
    }

    /// Once every child has reported, resolves this node and reports its
    /// summary to its parent (the root has none).
    fn report(&mut self, tx: &mut Tx<DomMsg>) {
        if !self.done && self.missing_children == 0 {
            let summary = self.resolve(self.parent_port.is_none());
            self.done = true;
            if let Some(p) = self.parent_port {
                tx.send(p, summary);
            }
        }
    }
}

impl Protocol for DomNode {
    type Payload = DomMsg;
    type Output = bool;

    fn init(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<DomMsg>) {
        self.report(tx);
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        _port: Port,
        msg: DomMsg,
        _tx: &mut Tx<DomMsg>,
    ) {
        self.acc_need_plus_one = self.acc_need_plus_one.max(msg.need_plus_one);
        self.acc_cover = self.acc_cover.min(msg.cover);
        self.missing_children -= 1;
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<DomMsg>) {
        self.report(tx);
    }

    fn width(&self, _msg: &DomMsg) -> Width {
        // Both fields are fixed-width over `0..=k+1`; charging by the
        // current values would under-count (a decoder cannot parse two
        // concatenated variable-width fields without delimiters).
        let domain = self.k as usize + 1;
        Width::ZERO.count(domain).count(domain)
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> bool {
        self.is_dominator
    }
}

/// The constructed k-dominating set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DominatingResult {
    /// `members[v]` is true iff `v` was chosen.
    pub members: Vec<bool>,
    /// `|DOM|`, counted by the host; no node learns it.
    pub size: u64,
    /// The parameter `k` used, at most `n − 1`.
    pub k: u32,
    /// Round/message statistics of the selection convergecast.
    pub stats: RunStats,
}

impl DominatingResult {
    /// The chosen node ids, ascending.
    pub fn member_ids(&self) -> Vec<u32> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(v, _)| v as u32)
            .collect()
    }
}

/// Builds a k-dominating set of size at most `max{1, ⌊n/(k+1)⌋}` over the
/// spanning tree `tree` of `topology` in one `O(D)`-round convergecast,
/// which an attached observer sees under the phase label `"dom:select"`.
/// A `k` above `n − 1` runs as `n − 1`, which selects the same set.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] on an empty graph.
/// * [`CoreError::InvalidParameter`] if `tree` is not a rooted spanning
///   tree of the graph (e.g. a tree taken from another graph).
/// * [`CoreError::Sim`] on simulator failures; under a fault plan, a link
///   no retransmission budget gets a frame through ends the run in a
///   round-limit error, never in a wrong set.
///
/// # Examples
///
/// ```
/// use dapsp_core::{bfs, dominating, Obs};
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(12);
/// let topology = g.to_topology();
/// let t1 = bfs::run_on_obs(&topology, 0, Obs::none())?;
/// let dom = dominating::run_on_obs(&topology, &t1.tree, 2, Obs::none())?;
/// assert!(reference::is_k_dominating_set(&g, &dom.member_ids(), 2));
/// assert!(dom.size <= 12 / 3);
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(
    topology: &Topology,
    tree: &TreeKnowledge,
    k: u32,
    obs: Obs<'_>,
) -> Result<DominatingResult, CoreError> {
    let n = topology.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    tree.check_spans(topology)?;
    // Every node is within n − 1 hops of every other, so any larger k
    // selects the same set; clamping keeps `k + 1` and the message width
    // bounded.
    let k = k.min(n as u32 - 1);
    // One convergecast: depth(T_1) + 1 rounds, padded for the reliable
    // horizon.
    let report = run_phase(topology, obs, "dom:select", n as u64 + 4, |ctx| {
        DomNode::new(k, tree, ctx.node_id() as usize)
    })?;
    let members = report.outputs;
    Ok(DominatingResult {
        size: members.iter().filter(|&&m| m).count() as u64,
        members,
        k,
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use dapsp_graph::{generators, reference, Graph};

    fn run(g: &Graph, tree: &TreeKnowledge, k: u32) -> Result<DominatingResult, CoreError> {
        run_on_obs(&g.to_topology(), tree, k, Obs::none())
    }

    fn check(g: &Graph, k: u32) -> DominatingResult {
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let dom = run(g, &t1.tree, k).unwrap();
        let ids = dom.member_ids();
        assert!(
            reference::is_k_dominating_set(g, &ids, k),
            "not {k}-dominating: {ids:?}"
        );
        assert_eq!(dom.size as usize, ids.len());
        let n = g.num_nodes() as u64;
        let bound = 1u64.max(n / (u64::from(k) + 1));
        assert!(
            dom.size <= bound,
            "size {} exceeds Kutten–Peleg bound {bound} (n={n}, k={k})",
            dom.size
        );
        dom
    }

    #[test]
    fn covers_and_respects_size_bound_on_zoo() {
        for k in [0u32, 1, 2, 3, 5] {
            check(&generators::path(17), k);
            check(&generators::cycle(12), k);
            check(&generators::star(9), k);
            check(&generators::grid(4, 5), k);
            check(&generators::balanced_tree(2, 4), k);
            check(&generators::complete(6), k);
            check(&generators::double_broom(20, 9), k);
        }
    }

    #[test]
    fn covers_random_graphs_and_trees() {
        for seed in 0..6 {
            check(&generators::random_tree(30, seed), 2);
            check(&generators::erdos_renyi_connected(28, 0.1, seed), 3);
        }
    }

    #[test]
    fn k_zero_selects_everyone() {
        let g = generators::path(5);
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let dom = run(&g, &t1.tree, 0).unwrap();
        assert_eq!(dom.size, 5);
    }

    #[test]
    fn huge_k_selects_single_node() {
        let g = generators::grid(3, 3);
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let dom = run(&g, &t1.tree, 100).unwrap();
        assert_eq!(dom.size, 1);
    }

    /// Any k past n − 1 runs as n − 1: the root alone, in messages as wide
    /// as `k = n − 1` needs, and no `k + 1` overflow at `u32::MAX`.
    #[test]
    fn k_beyond_n_is_clamped() {
        for g in [
            generators::path(5),
            generators::path(40),
            generators::grid(3, 3),
        ] {
            let n = g.num_nodes() as u32;
            let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
            let at_limit = run(&g, &t1.tree, n - 1).unwrap();
            for k in [n, 4 * n, u32::MAX] {
                let dom = run(&g, &t1.tree, k).unwrap();
                assert_eq!(dom.member_ids(), vec![0], "k = {k}");
                assert_eq!(dom.k, n - 1);
                assert_eq!(dom.stats, at_limit.stats, "k = {k}");
            }
        }
    }

    #[test]
    fn rounds_are_linear_in_depth() {
        let g = generators::path(40);
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let dom = run(&g, &t1.tree, 3).unwrap();
        // One convergecast sweep and nothing after it: a census of |DOM|
        // would add two more.
        let depth = u64::from(*t1.dist.iter().max().unwrap());
        assert!(dom.stats.rounds <= depth + 2, "rounds={}", dom.stats.rounds);
    }

    /// A tree of another graph is rejected, not run over ports that mean
    /// something else. Unchecked, the star's `T_1` on a path returned an
    /// empty set, the cycle's returned `{5}`, which does not 1-dominate the
    /// path, and a smaller path's tree indexed out of bounds.
    #[test]
    fn a_tree_of_another_graph_is_rejected() {
        for (tree_of, root, g) in [
            (generators::star(4), 0, generators::path(4)),
            (generators::cycle(8), 3, generators::path(8)),
            (generators::path(3), 0, generators::path(6)),
        ] {
            let tree = bfs::run_on_obs(&tree_of.to_topology(), root, Obs::none())
                .unwrap()
                .tree;
            assert!(matches!(
                run(&g, &tree, 1).unwrap_err(),
                CoreError::InvalidParameter(_)
            ));
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::builder(1).build();
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        let dom = run(&g, &t1.tree, 4).unwrap();
        assert_eq!(dom.member_ids(), vec![0]);
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// Worst-case summaries fit the bandwidth `B = 2⌈log₂ n⌉ + 8` even for
    /// `k = n`, and the width is fixed by the domain `0..=k+1`, not by the
    /// current field values.
    #[test]
    fn worst_case_width_fits_the_budget() {
        let tree = TreeKnowledge {
            root: 0,
            parent_port: vec![None],
            children_ports: vec![Vec::new()],
        };
        for n in [4usize, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let node = DomNode::new(n as u32, &tree, 0);
            let worst = DomMsg {
                need_plus_one: n as u32 + 1,
                cover: n as u32 + 1,
            };
            assert!(node.width(&worst).bits() <= budget, "n={n}");
            let idle = DomMsg {
                need_plus_one: 0,
                cover: 0,
            };
            assert_eq!(
                node.width(&idle),
                node.width(&worst),
                "width must be domain-fixed"
            );
        }
    }
}
