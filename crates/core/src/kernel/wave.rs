//! [`WaveKernel`]: BFS wave forwarding — the one state machine behind the
//! single-root BFS (Claim 1) and Algorithm 1's per-node waves.
//!
//! A kernel writes its distances and parent ports into the [`Row`] its
//! pipeline lends it: the node's rows of the run's matrices. Both modes
//! forward on arrival and keep no queue at all; Algorithm 2's queued
//! growth is the [`GrowthKernel`](super::GrowthKernel).

use dapsp_congest::{NodeContext, Port, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::rows::Row;

/// Which nodes root a wave, and which slot of a node's rows each root
/// owns. A single root's BFS announces adoptions; all roots' waves carry
/// their root's id and stream.
#[derive(Clone, Debug)]
enum Roots {
    /// One wave, rooted at the given node; the rows are a single slot.
    Single(u32),
    /// Every node roots its own wave (Algorithm 1); slot = root id.
    All,
}

impl Roots {
    /// The slot of root `id`, `None` for a node that roots nothing here.
    fn slot(&self, id: u32) -> Option<usize> {
        match self {
            Roots::Single(root) => (id == *root).then_some(0),
            Roots::All => Some(id as usize),
        }
    }
}

/// Messages of a wave kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveMsg {
    /// "You are at distance `dist` from `root` (if you adopt me)."
    Wave {
        /// The id of the wave's root.
        root: u32,
        /// The distance the receiver would be at.
        dist: u32,
    },
    /// "I adopted you as my parent" (sent only when adoption announcements
    /// are enabled, i.e. in the tree-building single-root BFS).
    Adopt,
}

/// What a node knows when a wave kernel quiesces, besides its rows.
#[derive(Clone, Debug)]
pub struct WaveState {
    /// Ports toward this node's children (populated only when adoption
    /// announcements are enabled).
    pub children_ports: Vec<Port>,
    /// How many wave messages reached this node — the Claim 1 cycle
    /// witness (`> 1` on some node iff the graph is not a tree, for a
    /// single-root wave).
    pub receipts: u32,
    /// The smallest cycle candidate observed (Lemma 7), [`INFINITY`] if
    /// none.
    pub girth_candidate: u32,
    /// How often a known distance was improved by a later arrival
    /// (Algorithm 2's growth only; see `ssp`'s module docs).
    pub relaxations: u64,
}

impl WaveState {
    pub(super) fn new() -> Self {
        WaveState {
            children_ports: Vec::new(),
            receipts: 0,
            girth_candidate: INFINITY,
            relaxations: 0,
        }
    }
}

/// BFS wave forwarding over one or many roots.
///
/// Both of the paper's forwarding wave protocols are configurations of
/// this one kernel:
///
/// * [`single_root`](WaveKernel::single_root) — the tree-building BFS of
///   Claim 1: starts at `init`, forwards on arrival, announces adoptions
///   so parents learn their children.
/// * [`all_roots`](WaveKernel::all_roots) — Algorithm 1's `BFS_v` waves:
///   every node roots a wave, started externally
///   ([`schedule_start`](WaveKernel::schedule_start), driven by the
///   pebble's release), optionally truncated at depth `k` (Definition 7).
///
/// Each writes its distance and parent port per root slot into the
/// [`Row`] it is given — one slot for a single root, `n` indexed by root
/// id for all roots — and owns nothing of size `n` itself: what it holds
/// is per-port scratch.
pub struct WaveKernel<'a> {
    n: u32,
    roots: Roots,
    /// Waves stop expanding at this depth (`u32::MAX` = full BFS).
    max_depth: u32,
    /// A wave start scheduled for this node's own root, fired at the next
    /// round end (set by [`schedule_start`](WaveKernel::schedule_start)).
    start_pending: bool,
    /// Wave arrivals buffered during the delivery step: `(root, dist,
    /// port)`, settled in sorted order at the round end.
    arrivals: Vec<(u32, u32, Port)>,
    /// Distance per root slot, this node's row of the run's matrix.
    dist: &'a mut [u32],
    /// Parent port per root slot (`u32::MAX` = none).
    parent: &'a mut [Port],
    state: WaveState,
}

impl<'a> WaveKernel<'a> {
    fn base(n: usize, roots: Roots, row: Row<'a>) -> Self {
        WaveKernel {
            n: n as u32,
            roots,
            max_depth: u32::MAX,
            start_pending: false,
            arrivals: Vec::new(),
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    /// The single-root tree-building BFS (Claim 1): the root starts its
    /// wave at `init`; adoptions are announced so every node learns its
    /// children. `row` has one slot.
    pub fn single_root(ctx: &NodeContext<'_>, root: u32, row: Row<'a>) -> Self {
        debug_assert_eq!(row.dist.len(), 1);
        Self::base(ctx.num_nodes(), Roots::Single(root), row)
    }

    /// Algorithm 1's waves: every node roots its own `BFS_v`, started via
    /// [`schedule_start`](WaveKernel::schedule_start) (the pebble's
    /// release), truncated at `max_depth` for the k-BFS variant. `row`
    /// has `n` slots, indexed by root id.
    pub fn all_roots(ctx: &NodeContext<'_>, max_depth: u32, row: Row<'a>) -> Self {
        let n = ctx.num_nodes();
        debug_assert_eq!(row.dist.len(), n);
        let mut k = Self::base(n, Roots::All, row);
        k.max_depth = max_depth;
        k.dist[ctx.node_id() as usize] = 0;
        k
    }

    /// Schedules this node's own wave to start at the next round end —
    /// the hook the pebble's release uses to drive Algorithm 1's staggered
    /// starts.
    pub fn schedule_start(&mut self) {
        self.start_pending = true;
    }

    /// The row slot of `root`.
    fn slot(&self, root: u32) -> usize {
        self.roots.slot(root).expect("only roots send waves")
    }

    /// A repeated arrival of a known root closes a walk through it: the
    /// Lemma 7 cycle-candidate bookkeeping.
    fn record_candidate(&mut self, port: Port, root: u32, dist: u32) {
        let r = self.slot(root);
        if self.dist[r] == INFINITY || dist == 0 {
            return;
        }
        let sender_dist = dist - 1;
        if port != self.parent[r] && sender_dist <= self.dist[r] {
            self.state.girth_candidate = self
                .state
                .girth_candidate
                .min(self.dist[r] + sender_dist + 1);
        }
    }

    /// Starts this node's own wave: distance-1 announcements on every port
    /// (suppressed entirely by a zero depth bound, as in k-BFS with
    /// `k = 0`).
    fn emit_own_wave(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        if self.max_depth >= 1 {
            let me = ctx.node_id();
            for p in 0..ctx.degree() as Port {
                tx.send(p, WaveMsg::Wave { root: me, dist: 1 });
            }
        }
    }

    /// Claim 1 contention: settle the round's arrivals in `(root, dist,
    /// port)` order — groups of simultaneous arrivals per root adopt the
    /// lowest port, forward to every port that did not deliver the wave,
    /// and count the rest as cycle evidence. Deliveries come in port
    /// order, so a round that brought one wave — all Lemma 1 allows per
    /// edge, and the common case per node — is already sorted and skips
    /// the sort.
    fn settle_forward(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        if !arrivals.is_sorted() {
            arrivals.sort_unstable();
        }
        let mut i = 0;
        while i < arrivals.len() {
            let root = arrivals[i].0;
            let mut j = i;
            while j < arrivals.len() && arrivals[j].0 == root {
                j += 1;
            }
            let group = &arrivals[i..j];
            let r = self.slot(root);
            if self.dist[r] == INFINITY {
                // Adopt: all simultaneous arrivals of one wave carry the
                // same distance (synchronous BFS), one per port, so the
                // sort leaves the group in port order, lowest first.
                debug_assert!(group
                    .windows(2)
                    .all(|w| w[0].1 == w[1].1 && w[0].2 < w[1].2));
                let (_, d, first_port) = group[0];
                self.dist[r] = d;
                self.parent[r] = first_port;
                if d < self.max_depth {
                    let mut delivering = group.iter().map(|&(_, _, p)| p).peekable();
                    for p in 0..ctx.degree() as Port {
                        if delivering.next_if_eq(&p).is_none() {
                            tx.send(p, WaveMsg::Wave { root, dist: d + 1 });
                        }
                    }
                }
                if let Roots::Single(_) = self.roots {
                    tx.send(first_port, WaveMsg::Adopt);
                }
            }
            for &(_, d, port) in group {
                self.record_candidate(port, root, d);
            }
            i = j;
        }
        self.arrivals = arrivals;
        self.arrivals.clear();
    }
}

impl Protocol for WaveKernel<'_> {
    type Payload = WaveMsg;
    type Output = WaveState;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        if let Roots::Single(root) = self.roots {
            if ctx.node_id() == root {
                self.dist[0] = 0;
                self.emit_own_wave(ctx, tx);
            }
        }
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        payload: WaveMsg,
        _tx: &mut Tx<WaveMsg>,
    ) {
        match payload {
            WaveMsg::Wave { root, dist } => {
                self.state.receipts += 1;
                self.arrivals.push((root, dist, port));
            }
            WaveMsg::Adopt => self.state.children_ports.push(port),
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        // A scheduled start fires first (the wave the pebble released last
        // round), then the round's arrivals settle.
        if self.start_pending {
            self.start_pending = false;
            self.emit_own_wave(ctx, tx);
        }
        self.settle_forward(ctx, tx);
    }

    fn is_active(&self) -> bool {
        self.start_pending
    }

    fn width(&self, payload: &WaveMsg) -> Width {
        match payload {
            WaveMsg::Wave { .. } => {
                // The Adopt/Wave discriminant costs a bit only where both
                // variants are in play (the announcing single-root BFS);
                // only many roots' waves name their root.
                let w = match self.roots {
                    Roots::Single(_) => Width::ZERO.tag(),
                    Roots::All => Width::ZERO.id(self.n as usize),
                };
                // The distance field is fixed-width over its domain
                // `0..=n` — charging by the current value would be a
                // variable-width encoding with no delimiter.
                w.count(self.n as usize)
            }
            WaveMsg::Adopt => Width::ZERO.tag(),
        }
    }

    fn stream(&self, payload: &WaveMsg) -> Option<u32> {
        match payload {
            WaveMsg::Wave { root, .. } if matches!(self.roots, Roots::All) => Some(*root),
            _ => None,
        }
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> WaveState {
        self.state
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    fn worst_wave(n: usize) -> WaveMsg {
        WaveMsg::Wave {
            root: n as u32 - 1,
            dist: n as u32,
        }
    }

    /// `f` on a kernel of `roots` in an `n`-node network (widths do not
    /// depend on the row, so it has one slot).
    fn with_kernel(n: usize, roots: Roots, f: impl FnOnce(&mut WaveKernel<'_>)) {
        let (mut dist, mut parent) = ([INFINITY], [u32::MAX]);
        let row = Row {
            dist: &mut dist,
            parent: &mut parent,
        };
        f(&mut WaveKernel::base(n, roots, row));
    }

    /// Every wave configuration's worst-case message fits the bandwidth
    /// `B = 2⌈log₂ n⌉ + 8`; the Algorithm 1 waves must fit even with the
    /// two presence tags Algorithm 1's node adds on the wire.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            // Single-root announcing BFS: discriminant tag + distance.
            with_kernel(n, Roots::Single(0), |k| {
                assert!(k.width(&worst_wave(n)).bits() <= budget, "bfs wave, n={n}");
                assert!(k.width(&WaveMsg::Adopt).bits() <= budget, "adopt, n={n}");
            });
            // Algorithm 1 waves: root id + distance, plus the node's two
            // presence tags.
            with_kernel(n, Roots::All, |k| {
                assert!(
                    k.width(&worst_wave(n)).bits() + 2 <= budget,
                    "apsp wave beside the pebble, n={n}"
                );
            });
        }
    }

    /// The distance field is fixed-width over its domain: a distance-1
    /// wave costs exactly as many bits as a distance-`n` wave, so the
    /// width never under-counts the decodable encoding.
    #[test]
    fn width_is_fixed_by_domain_not_value() {
        with_kernel(100, Roots::All, |k| {
            let near = WaveMsg::Wave { root: 0, dist: 1 };
            assert_eq!(k.width(&near).bits(), k.width(&worst_wave(100)).bits());
        });
    }
}
