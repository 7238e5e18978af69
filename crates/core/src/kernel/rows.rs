//! [`Rows`]: the run-level matrices the distance kernels write into.
//!
//! At the end of Algorithm 1 every node holds its own row, `d(v, ·)` and
//! its parent per root (Theorem 1); the APSP table is those rows side by
//! side. So a pipeline allocates each matrix once, `n` rows of `width`
//! cells, and lends every node's kernel its rows for the run
//! ([`Deal`]); when the run ends the matrix already *is* the result, and
//! no fold copies a row.

use std::iter::Zip;
use std::slice::ChunksExactMut;
use std::sync::Arc;

use dapsp_congest::{NodeContext, Port, Topology};
use dapsp_graph::INFINITY;

use crate::error::CoreError;

/// An `n × width` matrix in one row-major allocation, read like the vector
/// of per-node rows it replaces: `rows[v]` is node `v`'s row as a slice
/// (so `rows[v][i]` is one cell), [`len`](Rows::len) counts rows and
/// [`iter`](Rows::iter) walks them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rows<T> {
    cells: Vec<T>,
    /// Cells per row, at least one.
    width: usize,
}

impl<T> Rows<T> {
    /// The number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Row `v`, `None` past the last row.
    pub fn get(&self, v: usize) -> Option<&[T]> {
        self.iter().nth(v)
    }

    /// The rows in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, T> {
        self.cells.chunks_exact(self.width)
    }

    /// All cells, row after row.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// Consumes the matrix into its row-major buffer.
    pub(crate) fn into_cells(self) -> Vec<T> {
        self.cells
    }
}

impl Rows<Port> {
    /// A parent-port matrix turned, in place, into next hops: each port of
    /// row `v` becomes the id of `v`'s neighbour behind it in `topology`
    /// (`u32::MAX`, no parent, stays none).
    pub(crate) fn into_next_hops(mut self, topology: &Topology) -> Rows<u32> {
        for (v, row) in self.cells.chunks_exact_mut(self.width).enumerate() {
            for hop in row.iter_mut().filter(|p| **p != u32::MAX) {
                *hop = topology.neighbor_at(v as u32, *hop);
            }
        }
        self
    }
}

impl<T> std::ops::Index<usize> for Rows<T> {
    type Output = [T];

    /// Row `v`.
    ///
    /// # Panics
    ///
    /// If `v` is not a row; [`Rows::get`] is the checked read.
    fn index(&self, v: usize) -> &[T] {
        &self.cells[v * self.width..][..self.width]
    }
}

/// A run's distance matrix ([`INFINITY`] = unreached) and parent-port
/// matrix (`u32::MAX` = none), `width` root slots per node.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn distance_rows(n: usize, width: usize) -> (Rows<u32>, Rows<Port>) {
    assert!(width > 0, "a row has at least one cell");
    let filled = |fill| Rows {
        cells: vec![fill; n * width],
        width,
    };
    (filled(INFINITY), filled(u32::MAX))
}

/// The run-wide id → slot map of a validated source set `S`: the sources
/// own slots `0..|S|` in increasing id order, so a node stores `|S|`
/// distances (what Theorem 3 says it needs) instead of `n`, and the
/// `(dist, slot)` order of a queue is Algorithm 2's `(dist, id)`. One map
/// is shared by every node's kernel. It is a representation of the
/// simulator, not knowledge of the protocol: a node only ever looks up its
/// own id or one it received in a message, and nothing on the wire depends
/// on it. A result handed to the caller puts its columns back in the order
/// the sources were given, and reads them through the map
/// `into_given_order` returns.
#[derive(Clone, Debug)]
pub struct SourceSlots {
    /// `slot_of[id]`, [`NO_SLOT`] for a non-source.
    slot_of: Arc<[u32]>,
    /// The inverse, `ids[slot]`: the sources in slot order.
    ids: Arc<[u32]>,
    /// `column[slot]`: the source's place in the list as given; empty when
    /// slots already follow that order.
    column: Arc<[u32]>,
}

const NO_SLOT: u32 = u32::MAX;

impl SourceSlots {
    /// Maps `sources` to slots `0..sources.len()` in increasing id order.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySourceSet`] for an empty set,
    /// [`CoreError::InvalidNode`] for a source outside the `n`-node
    /// network, [`CoreError::InvalidParameter`] for a duplicated source.
    pub fn new(n: usize, sources: &[u32]) -> Result<Self, CoreError> {
        if sources.is_empty() {
            return Err(CoreError::EmptySourceSet);
        }
        // First each source's place in the list, then, walking the ids
        // upwards, its slot.
        let mut slot_of = vec![NO_SLOT; n];
        for (i, &s) in sources.iter().enumerate() {
            let entry = slot_of.get_mut(s as usize).ok_or(CoreError::InvalidNode {
                node: s,
                num_nodes: n,
            })?;
            if *entry != NO_SLOT {
                return Err(CoreError::InvalidParameter(format!(
                    "source {s} listed twice"
                )));
            }
            *entry = i as u32;
        }
        let sorted = sources.is_sorted();
        let (mut ids, mut column) = (Vec::with_capacity(sources.len()), Vec::new());
        for (id, entry) in slot_of.iter_mut().enumerate() {
            if *entry != NO_SLOT {
                if !sorted {
                    column.push(*entry);
                }
                *entry = ids.len() as u32;
                ids.push(id as u32);
            }
        }
        Ok(SourceSlots {
            slot_of: slot_of.into(),
            ids: ids.into(),
            column: column.into(),
        })
    }

    /// The slot of source `id`, `None` for a non-source (an id outside the
    /// network included).
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        let slot = *self.slot_of.get(id as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The sources in slot order — increasing id order, except in a map
    /// from [`into_given_order`](Self::into_given_order) — `ids()[slot]`
    /// owning `slot`.
    #[inline]
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Moves every row of `rows` from slot order to the order the sources
    /// were given, in place — slot `s`'s cell lands in the column of its
    /// source's place in the list — and returns the map those columns
    /// follow: slot `i` for the `i`-th source as given. A list given in id
    /// order is left as it is.
    pub(crate) fn into_given_order<T: Copy>(self, rows: &mut [&mut Rows<T>]) -> SourceSlots {
        if self.column.is_empty() {
            return self;
        }
        let mut by_slot = Vec::with_capacity(self.ids.len());
        for rows in rows {
            for row in rows.cells.chunks_exact_mut(rows.width) {
                by_slot.clear();
                by_slot.extend_from_slice(row);
                for (&cell, &c) in by_slot.iter().zip(self.column.iter()) {
                    row[c as usize] = cell;
                }
            }
        }
        let (mut slot_of, mut ids) = (self.slot_of.to_vec(), self.ids.to_vec());
        for (&id, &c) in self.ids.iter().zip(self.column.iter()) {
            ids[c as usize] = id;
            slot_of[id as usize] = c;
        }
        SourceSlots {
            slot_of: slot_of.into(),
            ids: ids.into(),
            column: Vec::new().into(),
        }
    }
}

/// One node's rows, borrowed from its run's matrices: distance and parent
/// port per root slot, written by the node's kernel and by nothing else.
pub struct Row<'a> {
    /// Distance per root slot ([`INFINITY`] = unreached).
    pub(crate) dist: &'a mut [u32],
    /// Parent port per root slot (`u32::MAX` = none).
    pub(crate) parent: &'a mut [Port],
}

/// Deals the rows of a run's two matrices out to its nodes, one node at a
/// time, from a kernel constructor inside the run's `init` closure.
pub struct Deal<'a> {
    rows: Zip<ChunksExactMut<'a, u32>, ChunksExactMut<'a, Port>>,
    next: u32,
}

impl<'a> Deal<'a> {
    /// Deals the rows of `dist` and `parent`.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices differ in shape.
    pub fn new(dist: &'a mut Rows<u32>, parent: &'a mut Rows<Port>) -> Self {
        assert_eq!(dist.width, parent.width, "matrix widths differ");
        assert_eq!(dist.cells.len(), parent.cells.len(), "row counts differ");
        let width = dist.width;
        Deal {
            rows: dist
                .cells
                .chunks_exact_mut(width)
                .zip(parent.cells.chunks_exact_mut(width)),
            next: 0,
        }
    }

    /// Node `ctx.node_id()`'s rows.
    ///
    /// # Panics
    ///
    /// Panics unless the nodes ask in id order, once each — the order
    /// [`Simulator::new`](dapsp_congest::Simulator::new) calls a run's
    /// `init` in — or if the matrices have no row left.
    pub fn row(&mut self, ctx: &NodeContext<'_>) -> Row<'a> {
        assert_eq!(ctx.node_id(), self.next, "rows are dealt in node-id order");
        self.next += 1;
        let (dist, parent) = self.rows.next().expect("one row per node");
        Row { dist, parent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ProtocolHost, WaveKernel};
    use dapsp_congest::{Config, Simulator};
    use dapsp_graph::generators;
    use std::panic;

    /// `Rows` reads like the nested vectors it replaced, and its checked
    /// read answers `None` where indexing would panic.
    #[test]
    fn rows_read_like_nested_vectors() {
        let rows = Rows {
            cells: vec![0, 1, 10, 11, 20, 21],
            width: 2,
        };
        assert_eq!((rows.len(), rows.is_empty(), rows.width()), (3, false, 2));
        assert_eq!(rows[2], [20, 21]);
        assert_eq!(rows[1][0], 10);
        let nested: Vec<&[u32]> = rows.iter().collect();
        assert_eq!(nested, [[0, 1], [10, 11], [20, 21]]);
        assert_eq!(rows.get(2), Some(&[20, 21][..]));
        assert_eq!(rows.get(3), None);
        assert_eq!(rows.get(usize::MAX), None);
        assert!(distance_rows(0, 2).0.is_empty());
    }

    /// Each node gets its own rows, in id order — a BFS from node 0 of a
    /// path writes `d(v, 0) = v` into row `v` — and a node asking twice is
    /// a dealing bug that panics rather than lend out another node's row.
    #[test]
    fn rows_are_dealt_in_node_id_order() {
        let topology = generators::path(3).to_topology();
        let (mut dist, mut parent) = distance_rows(3, 1);
        let mut deal = Deal::new(&mut dist, &mut parent);
        let mut asked_twice = false;
        let sim = Simulator::new(&topology, Config::for_n(3), |ctx| {
            let row = deal.row(ctx);
            if ctx.node_id() == 1 {
                let again = panic::catch_unwind(panic::AssertUnwindSafe(|| deal.row(ctx).dist[0]));
                asked_twice = again.is_err();
            }
            ProtocolHost::new(WaveKernel::single_root(ctx, 0, row))
        });
        sim.run().expect("a path quiesces");
        assert!(asked_twice);
        assert_eq!(dist.cells(), [0, 1, 2]);
        assert_eq!(parent.cells(), [u32::MAX, 0, 0]);
    }
}
