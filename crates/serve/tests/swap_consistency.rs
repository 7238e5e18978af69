//! Concurrency stress for the snapshot-swap serving layer: reader
//! threads hammer queries while the background control plane republishes
//! the table repeatedly. Every loaded snapshot must be internally
//! consistent with exactly one epoch — checked three ways: the payload
//! checksum verifies, the answers match the *epoch's own* graph (the
//! churn schedule is deterministic, so each epoch has a closed-form
//! oracle), and observed epochs never go backwards on any one handle.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dapsp_congest::TopologyPlan;
use dapsp_graph::generators;
use dapsp_serve::{RouteService, ServeHandle};

const N: u32 = 12;
const REPUBLISHES: u64 = 8;
const READERS: usize = 4;

/// The deterministic churn schedule: odd epochs have the chord (0, 6)
/// inserted, even epochs are the plain 12-cycle. Each epoch's oracle is
/// closed-form either way.
fn plan_for(epoch: u64) -> TopologyPlan {
    if epoch % 2 == 1 {
        TopologyPlan::new().with_insert(1, 0, 6)
    } else {
        TopologyPlan::new().with_remove(1, 0, 6)
    }
}

/// Hop distance on the 12-cycle.
fn cycle_dist(s: u32, d: u32) -> u32 {
    let around = (s as i64 - d as i64).unsigned_abs() as u32;
    around.min(N - around)
}

/// Hop distance on the 12-cycle plus the (0, 6) chord.
fn chord_dist(s: u32, d: u32) -> u32 {
    cycle_dist(s, d)
        .min(cycle_dist(s, 0) + 1 + cycle_dist(6, d))
        .min(cycle_dist(s, 6) + 1 + cycle_dist(0, d))
}

/// The exact distance oracle for the graph of `epoch`.
fn oracle(epoch: u64, s: u32, d: u32) -> u32 {
    if epoch % 2 == 1 {
        chord_dist(s, d)
    } else {
        cycle_dist(s, d)
    }
}

/// One reader: load → verify → query until `done`, counting itself into
/// `live` after its first load. Returns (loads seen, distinct epochs seen).
fn reader(handle: &ServeHandle, live: &AtomicUsize, done: &AtomicBool) -> (u64, Vec<u64>) {
    let mut loads = 0u64;
    let mut epochs: Vec<u64> = Vec::new();
    let mut last_epoch = 0u64;
    while !done.load(Ordering::Acquire) {
        let snap = handle.load();
        loads += 1;
        if loads == 1 {
            live.fetch_add(1, Ordering::AcqRel);
        }
        let epoch = snap.epoch();
        assert!(
            epoch >= last_epoch,
            "epoch went backwards: {last_epoch} -> {epoch}"
        );
        last_epoch = epoch;
        if epochs.last() != Some(&epoch) {
            epochs.push(epoch);
        }
        assert!(snap.verify(), "snapshot checksum failed at epoch {epoch}");

        // Every answer must match this epoch's graph exactly — a torn or
        // stale-mixed table would disagree somewhere on this sweep.
        for s in 0..N {
            for d in 0..N {
                let want = oracle(epoch, s, d);
                assert_eq!(snap.dist(s, d), Some(want), "d({s}, {d}) at epoch {epoch}");
                let path = snap.path(s, d).expect("cycle stays connected");
                assert_eq!(path.len() as u32, want + 1, "path({s}, {d}) at {epoch}");
            }
        }
        // Batches answer from the same single snapshot.
        let pairs: Vec<(u32, u32)> = (0..N).map(|s| (s, (s + 5) % N)).collect();
        for (i, got) in snap.dist_batch(&pairs).into_iter().enumerate() {
            let (s, d) = pairs[i];
            assert_eq!(got, Some(oracle(epoch, s, d)));
        }
    }
    (loads, epochs)
}

#[test]
fn readers_always_see_exactly_one_epoch() {
    let g = generators::cycle(N as usize);
    let service = RouteService::build(&g).unwrap();
    let controller = service.spawn();
    let live = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..READERS {
            let handle = controller.handle();
            let (live, done) = (&live, &done);
            joins.push(scope.spawn(move || reader(&handle, live, done)));
        }

        // The republishes of a 12-cycle take microseconds: start them only
        // once every reader is querying, so each one overlaps them.
        while live.load(Ordering::Acquire) < READERS {
            std::thread::yield_now();
        }
        for epoch in 1..=REPUBLISHES {
            let published = controller.apply_wait(plan_for(epoch)).unwrap();
            assert_eq!(published, epoch);
        }
        done.store(true, Ordering::Release);

        for join in joins {
            let (loads, epochs) = join.join().unwrap();
            assert!(loads > 0, "reader never got to load a snapshot");
            assert!(
                epochs.windows(2).all(|w| w[0] < w[1]),
                "epochs observed out of order: {epochs:?}"
            );
        }
    });

    // After the writer is done every handle settles on the final epoch.
    let handle = controller.handle();
    assert_eq!(handle.epoch(), REPUBLISHES);
    let service = controller.shutdown().unwrap();
    assert_eq!(service.epoch(), REPUBLISHES);
    assert!(service.handle().load().verify());
}

#[test]
fn a_reader_mid_batch_is_never_torn() {
    // A single reader holds one snapshot across many republishes; its
    // answers must stay frozen at the old epoch the whole time.
    let g = generators::cycle(N as usize);
    let service = RouteService::build(&g).unwrap();
    let controller = service.spawn();
    let held = controller.handle().load();
    assert_eq!(held.epoch(), 0);

    for epoch in 1..=4 {
        controller.apply_wait(plan_for(epoch)).unwrap();
        // The held snapshot still answers with epoch-0 distances.
        for s in 0..N {
            for d in 0..N {
                assert_eq!(held.dist(s, d), Some(cycle_dist(s, d)));
            }
        }
        assert_eq!(held.epoch(), 0);
        assert!(held.verify());
        // While a fresh load sees the new epoch.
        assert_eq!(controller.handle().epoch(), epoch);
    }
    controller.shutdown().unwrap();
}
