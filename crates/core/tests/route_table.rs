//! The packed `RouteTable` through its public API: what the cell layout
//! promises a caller that no per-graph conformance sweep can show — the
//! payload size, the size limit, the range check of every lookup, and the
//! checksum's definition. (Pair-for-pair equality with the producing run
//! is swept exhaustively in `conformance_small_graphs.rs`; bit flips, which
//! need the private cells, in `routing.rs`.)

use dapsp_congest::{churned_topology, FaultPlan, TopologyPlan};
use dapsp_core::routing::RouteTable;
use dapsp_core::{apsp, CoreError};
use dapsp_graph::{generators, Graph};

fn table(g: &Graph) -> RouteTable {
    RouteTable::from_apsp(apsp::run(g).unwrap(), 0)
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
        assert_eq!(apsp::run_on(&g.to_topology()).unwrap_err(), want);
        assert_eq!(apsp::run_without_wait(&g).unwrap_err(), want);
        assert_eq!(apsp::run_truncated(&g, 2).unwrap_err(), want);
        assert_eq!(apsp::run_faulty(&g, FaultPlan::new(1)).unwrap_err(), want);
        assert_eq!(
            apsp::run_churned(&g, &TopologyPlan::new()).unwrap_err(),
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

/// The checksum's definition (field order, two cells per step, the tail
/// cell alone) is part of what a snapshot promises its auditors: two fixed
/// tables pin it. A kernel that breaks next-hop ties differently moves
/// these too — tier-1's model-cost goldens move first.
#[test]
fn checksum_definition_is_pinned() {
    assert_eq!(
        table(&generators::cycle(6)).checksum(),
        4_692_257_418_144_398_125,
        "cycle(6), epoch 0"
    );
    let g = generators::grid(4, 4);
    let plan = TopologyPlan::new()
        .with_remove(2, 0, 1)
        .with_insert(3, 0, 15);
    let repaired = apsp::run_churned(&g, &plan).unwrap();
    let final_topo = churned_topology(&g.to_topology(), &plan).unwrap();
    assert_eq!(
        RouteTable::from_churned(&repaired, &final_topo, 1)
            .unwrap()
            .checksum(),
        14_570_202_628_295_798_282,
        "grid(4,4) churned, epoch 1"
    );
}
