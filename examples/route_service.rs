//! Routing tables as a service: one distributed computation, many
//! concurrent readers, zero read locks.
//!
//! The serve layer splits the system into the classic two planes. The
//! **data plane** is a [`RouteTable`] — the converged APSP run compacted
//! into one flat array of `hops | next hop` cells plus the derived metrics
//! (eccentricities, centers, girth) and the engine's termination
//! certificate. The **control plane** is a [`RouteService`] on a
//! background thread: hand it a [`TopologyPlan`] and it applies the change
//! to the network, reruns the computation on the result, then publishes
//! the new table by an atomic snapshot swap. Readers keep their `ServeHandle` clones
//! through any number of republishes; a reader mid-batch keeps the
//! snapshot it loaded — never torn, never blocked.
//!
//! This example runs a small-world ISP-ish network, spins up reader
//! threads that route traffic continuously, and fails over a link while
//! they run.
//!
//! ```text
//! cargo run --release --example route_service
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use dapsp::congest::TopologyPlan;
use dapsp::graph::generators;
use dapsp::serve::RouteService;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = generators::watts_strogatz(96, 3, 0.05, 7);
    let n = network.num_nodes() as u32;

    // One distributed computation; epoch-0 table published on return.
    let service = RouteService::with_threads(&network, 2)?;
    let table = service.handle().load();
    println!(
        "built epoch {} for {} nodes: diameter {:?}, radius {:?}, girth {:?}, policy {}",
        table.epoch(),
        n,
        table.diameter(),
        table.radius(),
        table.girth(),
        table.policy().name(),
    );
    let cert = table.certificate().expect("run carries its certificate");
    println!(
        "termination certificate: round {}, reason {:?}\n",
        cert.round, cert.reason
    );

    // Point lookups and full path reconstruction, lock-free on a snapshot.
    let (s, d) = (0u32, n / 2);
    let path = table.path(s, d).expect("small worlds are connected");
    println!("route {s} -> {d}: {} hops via {:?}", path.len() - 1, path);

    // Move the control plane to a background thread and start readers.
    let controller = service.spawn();
    let done = AtomicBool::new(false);
    let queries_per_reader: Vec<u64> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let handle = controller.handle();
                let done = &done;
                scope.spawn(move || {
                    let mut queries = 0u64;
                    let mut x = 0x9e37_79b9_u64.wrapping_mul(r + 1);
                    while !done.load(Ordering::Acquire) {
                        // A fresh snapshot per batch; the swap below never
                        // tears one out from under us.
                        let snap = handle.load();
                        assert!(snap.verify(), "snapshot checksum");
                        for _ in 0..256 {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let s = (x >> 33) as u32 % n;
                            let d = (x >> 13) as u32 % n;
                            let hops = snap.dist(s, d).expect("connected");
                            if let Some(h) = snap.next_hop(s, d) {
                                // The hop makes geodesic progress on the
                                // same snapshot — internal consistency.
                                assert_eq!(snap.dist(h, d), Some(hops - 1));
                            }
                            queries += 1;
                        }
                    }
                    queries
                })
            })
            .collect();

        // Fail a link over and reroute, while the readers hammer away.
        let t0 = std::time::Instant::now();
        let epoch = controller
            .apply_wait(TopologyPlan::new().with_remove(1, 0, 1))
            .expect("republish");
        println!(
            "republished epoch {epoch} after a link failure in {:?} (readers never paused)",
            t0.elapsed()
        );
        let t1 = std::time::Instant::now();
        let epoch = controller
            .apply_wait(TopologyPlan::new().with_insert(1, 0, n / 2))
            .expect("republish");
        println!(
            "republished epoch {epoch} after a link install in {:?}",
            t1.elapsed()
        );

        done.store(true, Ordering::Release);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    let total: u64 = queries_per_reader.iter().sum();
    println!(
        "\n4 readers answered {total} queries across the two republishes \
         ({queries_per_reader:?})"
    );

    let final_table = controller.handle().load();
    println!(
        "final snapshot: epoch {}, policy {}, girth {:?}",
        final_table.epoch(),
        final_table.policy().name(),
        final_table.girth(),
    );
    let service = controller.shutdown()?;
    assert_eq!(service.epoch(), 2);
    println!(
        "control plane handed the service back at epoch {}",
        service.epoch()
    );
    Ok(())
}
