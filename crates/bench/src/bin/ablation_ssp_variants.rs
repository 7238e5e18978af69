//! Ablation — Algorithm 2 as written vs. the repaired implementation.
//!
//! DESIGN.md §5 documents that the paper's drop-and-retry rule with bare-id
//! priority can adopt non-shortest distances and outlast its own
//! `|S| + D₀` budget. This binary quantifies it: for each instance it runs
//! the verbatim transcription (`dapsp_core::ssp_paper`) and the production
//! implementation (`dapsp_core::ssp`), counting unresolved pairs, wrong
//! distances (vs. the oracle), and rounds.

use dapsp_bench::print_table;
use dapsp_core::{ssp, ssp_paper};
use dapsp_graph::{generators, reference, Graph, INFINITY};

/// `(wrong, unresolved)` cells of per-node distance rows against the oracle.
fn wrong_count<'a>(
    rows: impl Iterator<Item = &'a [u32]>,
    sources: &[u32],
    g: &Graph,
) -> (u64, u64) {
    let oracle = reference::s_shortest_paths(g, sources);
    let mut wrong = 0;
    let mut unresolved = 0;
    for (v, row) in rows.enumerate() {
        for (i, &d) in row.iter().enumerate() {
            if d == INFINITY {
                unresolved += 1;
            } else if d != oracle[i][v] {
                wrong += 1;
            }
        }
    }
    (wrong, unresolved)
}

fn main() {
    println!("# Ablation: Algorithm 2 verbatim vs repaired (DESIGN.md §5)\n");
    let instances: Vec<(String, Graph, Vec<u32>)> = vec![
        (
            "path n=24, |S|=4".into(),
            generators::path(24),
            (0..4).collect(),
        ),
        (
            "complete n=16, |S|=8".into(),
            generators::complete(16),
            (0..8).collect(),
        ),
        (
            "ER n=48 p=0.25, |S|=24".into(),
            generators::erdos_renyi_connected(48, 0.25, 3),
            (0..24).collect(),
        ),
        (
            "BA n=64 m=3, |S|=32".into(),
            generators::barabasi_albert(64, 3, 5),
            (0..32).collect(),
        ),
        (
            "grid 8x8, |S|=16".into(),
            generators::grid(8, 8),
            (0..16).collect(),
        ),
        (
            "small world n=64, |S|=64".into(),
            generators::watts_strogatz(64, 3, 0.2, 9),
            (0..64).collect(),
        ),
    ];
    let mut rows = Vec::new();
    let mut total_paper_defects = 0;
    for (label, g, sources) in &instances {
        let paper = ssp_paper::run(g, sources).expect("verbatim");
        let fixed = ssp::run(g, sources).expect("repaired");
        let (paper_wrong, paper_unresolved) =
            wrong_count(paper.dist.iter().map(Vec::as_slice), sources, g);
        let (fixed_wrong, fixed_unresolved) = wrong_count(fixed.dist.iter(), sources, g);
        assert_eq!(
            fixed_wrong + fixed_unresolved,
            0,
            "{label}: repaired must be exact"
        );
        total_paper_defects += paper_wrong + paper_unresolved;
        rows.push(vec![
            label.clone(),
            paper.budget.to_string(),
            paper.stats.rounds.to_string(),
            paper_wrong.to_string(),
            paper_unresolved.to_string(),
            fixed.stats.rounds.to_string(),
            fixed.relaxations.to_string(),
        ]);
    }
    print_table(
        "verbatim (id-priority, drop/retry, fixed schedule) vs repaired ((dist,id)-priority, accept-all, quiescence)",
        &[
            "instance",
            "|S|+D0",
            "verbatim rounds",
            "verbatim wrong",
            "verbatim unresolved",
            "repaired rounds",
            "repaired relaxations",
        ],
        &rows,
    );
    assert!(
        total_paper_defects > 0,
        "the ablation should exhibit at least one verbatim defect"
    );
    println!(
        "verbatim defects across instances: {total_paper_defects}; repaired: 0 everywhere.\n\
         The repair keeps the O(|S| + D) shape (see E2) while restoring exactness."
    );
}
