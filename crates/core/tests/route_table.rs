//! The packed `RouteTable` through its public API: what the cell layout
//! promises a caller that no per-graph conformance sweep can show — the
//! payload size, the size limit, the range check of every lookup, and the
//! checksum's definition. (Pair-for-pair equality with the producing run
//! is swept exhaustively in `conformance_small_graphs.rs`; bit flips, which
//! need the private cells, in `routing.rs`.)

use dapsp_congest::{churned_topology, FaultPlan, TopologyPlan};
use dapsp_core::routing::RouteTable;
use dapsp_core::{apsp, CoreError, Obs};
use dapsp_graph::{enumerate, generators, Graph};

fn table(g: &Graph) -> RouteTable {
    RouteTable::from_apsp(apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap(), 0)
}

#[test]
fn payload_is_one_cell_per_pair() {
    for n in [1usize, 4, 9] {
        assert_eq!(
            table(&generators::path(n)).payload_bytes(),
            4 * n * n + 5 * n
        );
    }
}

/// No nodes, or one node past what a cell can name: every all-pairs entry
/// point refuses up front — no BFS over 65 536 nodes, no 17 GB matrix.
#[test]
fn apsp_rejects_sizes_no_table_can_cover() {
    for (g, want) in [
        (Graph::builder(0).build(), CoreError::EmptyGraph),
        (
            generators::path(65_536),
            CoreError::TableTooLarge { num_nodes: 65_536 },
        ),
    ] {
        assert_eq!(
            apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap_err(),
            want
        );
        assert_eq!(apsp::run_without_wait(&g).unwrap_err(), want);
        assert_eq!(apsp::run_truncated(&g, 2).unwrap_err(), want);
        let faults = FaultPlan::new(1);
        let faulty = Obs::none().with_faults(&faults);
        assert_eq!(
            apsp::run_on_obs(&g.to_topology(), faulty).unwrap_err(),
            want
        );
        assert_eq!(
            apsp::run_churned_on(&g.to_topology(), &TopologyPlan::new(), Obs::none()).unwrap_err(),
            want
        );
    }
    let e = CoreError::TableTooLarge { num_nodes: 65_536 };
    assert!(e.to_string().contains("65535-node limit"));
}

// An out-of-range `d` with `s * n + d < n²` used to answer for the pair
// `(s + 1, d - n)`.
#[test]
#[should_panic(expected = "out of range")]
fn dist_rejects_an_out_of_range_destination() {
    table(&generators::path(4)).dist(0, 4);
}

// An out-of-range source reads past the last row.
#[test]
#[should_panic(expected = "out of bounds")]
fn dist_rejects_an_out_of_range_source() {
    table(&generators::path(4)).dist(4, 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn next_hop_rejects_an_out_of_range_destination() {
    table(&generators::path(4)).next_hop(0, 4);
}

#[test]
#[should_panic(expected = "out of range")]
fn path_rejects_an_out_of_range_destination() {
    table(&generators::path(4)).path(0, 4);
}

#[test]
#[should_panic(expected = "out of range")]
fn dist_batch_rejects_an_out_of_range_destination() {
    table(&generators::path(4)).dist_batch(&[(1, 2), (0, 4)]);
}

/// The checksum's definition, re-derived from the public reads alone (no
/// access to the cells, digests or hashing code of the table): a scalar
/// walk of the documented fold. Word `k` of row `s` is cells `2k`, `2k + 1`
/// of that row (low cell in the low half), mixed into lane `k % 8`; each
/// lane starts at `mix(mix(BASIS, s), lane)`; the row digest folds the
/// lanes in order onto `mix(BASIS, s)`, then an odd last cell alone; the
/// stamp folds epoch, `n`, the row digests, presence, eccentricities
/// (`u32::MAX` for none), centers and girth (`u64::MAX` for none).
fn spec_checksum(t: &RouteTable) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const LANES: usize = 8;
    fn mix(h: u64, x: u64) -> u64 {
        let v = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        v ^ (v >> 31)
    }
    let n = t.num_nodes();
    let cell = |s: usize, d: usize| {
        let (s, d) = (s as u32, d as u32);
        let hops = t.dist(s, d).unwrap_or(0xFFFF);
        let next = t.next_hop(s, d).unwrap_or(0xFFFF);
        u64::from(hops << 16 | next)
    };
    let mut h = mix(mix(BASIS, t.epoch()), n as u64);
    for s in 0..n {
        let seed = mix(BASIS, s as u64);
        let mut lanes: Vec<u64> = (0..LANES).map(|i| mix(seed, i as u64)).collect();
        for k in 0..n / 2 {
            let word = cell(s, 2 * k) | cell(s, 2 * k + 1) << 32;
            lanes[k % LANES] = mix(lanes[k % LANES], word);
        }
        let mut digest = seed;
        for lane in lanes {
            digest = mix(digest, lane);
        }
        if n % 2 == 1 {
            digest = mix(digest, cell(s, n - 1));
        }
        h = mix(h, digest);
    }
    for v in 0..n as u32 {
        h = mix(h, u64::from(t.is_present(v)));
    }
    for v in 0..n as u32 {
        h = mix(h, u64::from(t.eccentricity(v).unwrap_or(u32::MAX)));
    }
    for &c in t.centers() {
        h = mix(h, u64::from(c));
    }
    mix(h, t.girth().map_or(u64::MAX, u64::from))
}

/// The churned table the golden pins: grid(4,4) loses edge 0–1 and gains
/// 0–15, served as epoch 1.
fn churned_grid() -> RouteTable {
    let g = generators::grid(4, 4);
    let plan = TopologyPlan::new()
        .with_remove(2, 0, 1)
        .with_insert(3, 0, 15);
    let repaired = apsp::run_churned_on(&g.to_topology(), &plan, Obs::none()).unwrap();
    let final_topo = churned_topology(&g.to_topology(), &plan).unwrap();
    RouteTable::from_churned(&repaired, &final_topo, 1).unwrap()
}

#[test]
fn checksum_matches_its_scalar_spec() {
    for n in 1..=6 {
        for (i, g) in enumerate::connected_graphs(n).into_iter().enumerate() {
            let t = RouteTable::from_apsp(
                apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap(),
                i as u64,
            );
            assert_eq!(t.checksum(), spec_checksum(&t), "{n}-node graph {g:?}");
        }
    }
    // ws(64): four whole lane blocks a row; path(33): two and the odd cell.
    for g in [
        generators::watts_strogatz(64, 3, 0.05, 7),
        generators::path(33),
    ] {
        let t = table(&g);
        assert_eq!(t.checksum(), spec_checksum(&t), "{} nodes", g.num_nodes());
    }
    let churned = churned_grid();
    assert_eq!(churned.checksum(), spec_checksum(&churned), "churned grid");
}

/// The checksum's definition (field order, per-row lane digests, the odd
/// cell alone) is part of what a snapshot promises its auditors: two fixed
/// tables pin it, and [`spec_checksum`] re-derives both. A kernel that
/// breaks next-hop ties differently moves these too — tier-1's model-cost
/// goldens move first.
#[test]
fn checksum_definition_is_pinned() {
    let cycle = table(&generators::cycle(6));
    assert_eq!(cycle.checksum(), spec_checksum(&cycle));
    assert_eq!(
        cycle.checksum(),
        16_072_187_815_352_240_347,
        "cycle(6), epoch 0"
    );
    let churned = churned_grid();
    assert_eq!(churned.checksum(), spec_checksum(&churned));
    assert_eq!(
        churned.checksum(),
        2_060_910_758_275_229_578,
        "grid(4,4) churned, epoch 1"
    );
}
