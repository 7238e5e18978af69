//! The model-cost census: every connected graph on at most six nodes (143
//! graphs), run through each algorithm below, one line per `(graph,
//! algorithm)` in `artifacts/census.txt`.
//!
//! A line holds the run's rounds, messages, bits and scheduled node-rounds,
//! the termination reason where the result carries a certificate (`-`
//! where it does not), and, for Algorithm 2 and the churned distance
//! vector, an FNV-1a digest of outputs no other golden pins: S-SP's
//! `dist`, `next_hop`, `local_girth_candidates` and `relaxations`, and the
//! churned run's `dist` and `parent_port`. A change to one message's width,
//! one vote, one wave's start round or one tie-break therefore moves
//! exactly the lines of the runs it touches, and the failure names the
//! first of them.
//!
//! Re-pin after a deliberate model-cost change with
//!
//! ```text
//! CENSUS_REPIN=1 cargo test --test census
//! ```
//!
//! (without the variable the test only compares, whatever else is run with
//! it) and review `git diff artifacts/census.txt`: it shows which rows moved.

use std::fmt::Write as _;

use dapsp::congest::{FaultPlan, RunStats, TerminationCertificate, TopologyPlan};
use dapsp::core::{approx, apsp, bfs, girth, ssp, two_vs_four, Obs};
use dapsp::graph::{enumerate, Graph};

/// The largest graphs the census walks.
const MAX_N: usize = 6;

/// The golden, relative to the crate root.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/artifacts/census.txt");

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv(h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(h, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// `u v` edge list of `g`, compact: `01.02.12`.
fn edges(g: &Graph) -> String {
    let list: Vec<String> = g.edges().map(|(u, v)| format!("{u}{v}")).collect();
    if list.is_empty() {
        "-".into()
    } else {
        list.join(".")
    }
}

/// One census line's cost columns.
fn cost(s: &RunStats, certificate: Option<&TerminationCertificate>) -> String {
    let reason = certificate.map_or("-".to_string(), |c| format!("{:?}", c.reason));
    format!(
        "rounds={} msgs={} bits={} sched={} stop={reason}",
        s.rounds, s.messages, s.bits, s.scheduled_node_rounds
    )
}

/// The one seeded single-edge plan of graph `index` on `n` nodes: the pair
/// a small LCG picks among all `n(n-1)/2` pairs is removed if it is an
/// edge and inserted otherwise; a one-node graph gets the empty plan.
fn single_edge_plan(g: &Graph, index: usize) -> TopologyPlan {
    let n = g.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|v| (0..v).map(move |u| (u, v))).collect();
    if pairs.is_empty() {
        return TopologyPlan::new();
    }
    let pick = (index as u64)
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
        >> 33;
    let (u, v) = pairs[pick as usize % pairs.len()];
    if g.has_edge(u, v) {
        TopologyPlan::new().with_remove(1, u, v)
    } else {
        TopologyPlan::new().with_insert(1, u, v)
    }
}

/// The census lines of one graph, `index` counting graphs across all `n`.
fn census_of(g: &Graph, index: usize, out: &mut String) {
    let n = g.num_nodes();
    let topo = g.to_topology();
    let head = format!("n={n} g={} ", edges(g));
    let mut line = |alg: &str, rest: String| {
        writeln!(out, "{head}{alg} {rest}").expect("writing to a string");
    };

    let b = bfs::run_on_obs(&topo, 0, Obs::none()).expect("bfs");
    line("bfs", cost(&b.stats, None));

    let a = apsp::run_on_obs(&topo, Obs::none()).expect("apsp");
    line("apsp", cost(&a.stats, a.certificate.as_ref()));

    let sources: Vec<u32> = (0..n.div_ceil(2) as u32).collect();
    let s = ssp::run_on_obs(&topo, &sources, Obs::none()).expect("ssp");
    let digest = fnv(FNV_BASIS, s.dist.cells().iter().copied());
    let digest = fnv(digest, s.next_hop.cells().iter().copied());
    let digest = fnv(digest, s.local_girth_candidates.iter().copied());
    let digest = fnv(digest, [s.relaxations as u32, (s.relaxations >> 32) as u32]);
    line(
        "ssp",
        format!("{} digest={digest:016x}", cost(&s.stats, None)),
    );

    let gi = girth::run(g).expect("girth");
    line("girth", cost(&gi.stats, None));

    let e = approx::eccentricities(g, 0.5).expect("eccentricities");
    line("ecc", cost(&e.stats, None));

    let t = two_vs_four::run(g, index as u64).expect("two vs four");
    line("2vs4", cost(&t.stats, None));

    let plan = single_edge_plan(g, index);
    let c = apsp::run_churned_on(&topo, &plan, Obs::none()).expect("churned apsp");
    let digest = fnv(FNV_BASIS, c.dist.cells().iter().copied());
    let digest = fnv(digest, c.parent_port.cells().iter().copied());
    line(
        "churned",
        format!(
            "{} digest={digest:016x}",
            cost(&c.stats, c.certificate.as_ref())
        ),
    );

    let faults = FaultPlan::uniform_loss(0.1, index as u64);
    let f = apsp::run_on_obs(&topo, Obs::none().with_faults(&faults)).expect("faulty apsp");
    line("faulty", cost(&f.stats, f.certificate.as_ref()));
}

/// The whole census, as the golden holds it.
fn census() -> String {
    let mut out = String::new();
    let mut index = 0;
    for n in 1..=MAX_N {
        for g in enumerate::connected_graphs(n) {
            census_of(&g, index, &mut out);
            index += 1;
        }
    }
    assert_eq!(index, 143, "connected graphs on at most six nodes");
    out
}

/// The census equals the golden line for line; the failure names the
/// first `(graph, algorithm)` whose model cost or outputs moved. With
/// `CENSUS_REPIN` set, the golden is rewritten from the current code
/// instead.
#[test]
fn census_matches_the_golden() {
    let fresh = census();
    if std::env::var_os("CENSUS_REPIN").is_some() {
        std::fs::write(GOLDEN, fresh).expect("writing artifacts/census.txt");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("artifacts/census.txt is committed");
    for (i, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "census line {} moved (re-pin: CENSUS_REPIN=1 cargo test --test census)",
            i + 1
        );
    }
    assert_eq!(
        fresh.lines().count(),
        golden.lines().count(),
        "census line count"
    );
}
