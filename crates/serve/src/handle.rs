//! The read side: a cloneable handle that loads the current snapshot
//! with one brief read-lock and answers every query lock-free after that.

use std::sync::{Arc, PoisonError, RwLock};

use dapsp_core::routing::RouteTable;

/// A cloneable, thread-safe handle onto the currently published
/// [`RouteTable`].
///
/// Hand one clone to each reader thread. [`load`](Self::load) takes a
/// read lock just long enough to clone an `Arc` (no reader ever blocks on
/// a recompute — the control plane builds the next table entirely outside
/// the lock and swaps a pointer); everything after `load` runs against an
/// immutable snapshot with no synchronization at all. Readers holding an
/// old snapshot keep it alive and internally consistent until they drop
/// it — a swap can never tear a table out from under a query. The lock
/// guards a single always-valid `Arc`, so a thread that panics while
/// holding it cannot leave anything half-written: poisoning is ignored and
/// the last published snapshot keeps serving.
///
/// The convenience forwarders ([`dist`](Self::dist),
/// [`next_hop`](Self::next_hop), …) load per call; batch work should
/// `load()` once — or use [`dist_batch`](Self::dist_batch), which
/// amortizes the pointer load over the whole batch.
#[derive(Clone, Debug)]
pub struct ServeHandle {
    inner: Arc<RwLock<Arc<RouteTable>>>,
}

impl ServeHandle {
    /// Wraps `table` as the first published snapshot.
    pub(crate) fn new(table: Arc<RouteTable>) -> ServeHandle {
        ServeHandle {
            inner: Arc::new(RwLock::new(table)),
        }
    }

    /// The currently published snapshot: one brief read-lock to clone the
    /// pointer. Queries against the returned `Arc` are lock-free and see
    /// exactly one epoch.
    pub fn load(&self) -> Arc<RouteTable> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the published snapshot; in-flight readers keep
    /// the snapshot they loaded.
    pub(crate) fn publish(&self, table: Arc<RouteTable>) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = table;
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Hop distance on the current snapshot; see [`RouteTable::dist`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn dist(&self, s: u32, d: u32) -> Option<u32> {
        self.load().dist(s, d)
    }

    /// Next hop on the current snapshot; see [`RouteTable::next_hop`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn next_hop(&self, s: u32, d: u32) -> Option<u32> {
        self.load().next_hop(s, d)
    }

    /// Full path on the current snapshot; see [`RouteTable::path`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn path(&self, s: u32, d: u32) -> Option<Vec<u32>> {
        self.load().path(s, d)
    }

    /// Batched distances against one consistent snapshot — a single
    /// pointer load no matter how many pairs; see
    /// [`RouteTable::dist_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any pair is out of range.
    pub fn dist_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<u32>> {
        self.load().dist_batch(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_core::{apsp, Obs};
    use dapsp_graph::generators;

    fn table(epoch: u64) -> Arc<RouteTable> {
        let run = apsp::run_on_obs(&generators::cycle(5).to_topology(), Obs::none()).unwrap();
        Arc::new(RouteTable::from_apsp(run, epoch))
    }

    #[test]
    fn a_panicking_writer_does_not_take_readers_down() {
        let handle = ServeHandle::new(table(0));
        let writer = handle.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = writer.inner.write().unwrap();
            panic!("publisher dies holding the write lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(handle.inner.is_poisoned());
        // Readers still get the last snapshot, intact…
        let snapshot = handle.load();
        assert_eq!(snapshot.epoch(), 0);
        assert!(snapshot.verify());
        assert_eq!(handle.dist(0, 2), Some(2));
        // …and a later publish still goes through.
        handle.publish(table(1));
        assert_eq!(handle.epoch(), 1);
    }
}
