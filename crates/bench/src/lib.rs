//! Experiment harness regenerating the paper's Table 1 measurements.
//!
//! The paper is a theory paper whose single table (Table 1) is a matrix of
//! round-complexity bounds. "Reproducing the evaluation" therefore means
//! measuring round counts for every claimed bound and checking the *growth
//! shapes*: who wins, by what factor, and where crossovers fall. Each
//! experiment Eⁱ from DESIGN.md is one section of [`SECTIONS`], which
//! asserts its shapes inline; [`render`] runs them all into the text that
//! `dapsp-paper` prints to `artifacts/table1.txt`, and `tests/table1.rs`
//! pins every section against that file. Nothing here measures wall time —
//! that is the job of the repo benchmark (`benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dapsp_congest::{Config, MetricsRecorder, SharedObserver, SimError};
use dapsp_core::three_halves::{self, Branch};
use dapsp_core::{approx, apsp, girth, girth_approx, metrics, ssp, ssp_paper, two_vs_four};
use dapsp_core::{CoreError, Obs};
use dapsp_graph::{generators, lowerbound, reference, Graph, INFINITY};

/// An experiment: appends its section body, panicking on a failed shape
/// assertion.
pub type Section = fn(&mut String);

/// Every section of the artifact, in print order: its name (the
/// `===== name =====` header) and the experiment that writes its body.
pub const SECTIONS: &[(&str, Section)] = &[
    ("table1_apsp", table1_apsp),
    ("table1_ssp", table1_ssp),
    ("table1_exact_apps", table1_exact_apps),
    ("table1_girth", table1_girth),
    ("table1_lower_bounds", table1_lower_bounds),
    ("table1_approx_diameter", table1_approx_diameter),
    ("table1_approx_girth", table1_approx_girth),
    ("table1_two_vs_four", table1_two_vs_four),
    ("table1_cor1_crossover", table1_cor1_crossover),
    ("table1_bits", table1_bits),
    ("ablation_ssp_variants", ablation_ssp_variants),
    ("ablation_pebble_wait", ablation_pebble_wait),
    ("table1_summary", table1_summary),
    ("figure_wave_pipeline", figure_wave_pipeline),
];

/// The line closing the artifact once every section has rendered.
pub const FOOTER: &str =
    "\nAll Table 1 experiments completed with their shape assertions passing.\n";

/// The `===== name =====` line (with its surrounding blank lines) that
/// opens a section.
pub fn header(name: &str) -> String {
    format!("\n===== {name} =====\n\n")
}

/// Runs every section in [`SECTIONS`] order under its [`header`], then the
/// [`FOOTER`]: the whole of `artifacts/table1.txt`.
///
/// # Panics
///
/// Panics when an experiment's shape assertion fails.
pub fn render() -> String {
    let mut out = String::new();
    for &(name, section) in SECTIONS {
        out.push_str(&header(name));
        section(&mut out);
    }
    out.push_str(FOOTER);
    out
}

/// Renders an aligned text table.
fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Prints a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(title, headers, rows));
}

/// Appends a table and a blank line to a section; `headers` separates its
/// column names with ` | `, as the rendered header row does.
fn table(out: &mut String, title: &str, headers: &str, rows: &[Vec<String>]) {
    let headers: Vec<&str> = headers.split(" | ").collect();
    *out += &render_table(title, &headers, rows);
    *out += "\n";
}

/// Least-squares slope of `log y` against `log x` — the empirical growth
/// exponent (`~1` for linear algorithms, `~2` for quadratic ones).
///
/// # Panics
///
/// Panics if fewer than two points, if all `x` values coincide, or if any
/// coordinate is non-positive.
fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need >= 2 points");
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "log-log fit needs positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(
        var > 0.0,
        "log-log fit needs at least two distinct x values"
    );
    cov / var
}

fn apsp_families(n: usize) -> Vec<(String, Graph)> {
    vec![
        (format!("path n={n}"), generators::path(n)),
        (format!("cycle n={n}"), generators::cycle(n)),
        (
            format!("broom(D=√n) n={n}"),
            generators::double_broom(n, (n as f64).sqrt() as usize),
        ),
        (
            format!("ER(8/n) n={n}"),
            generators::erdos_renyi_connected(n, 8.0 / n as f64, 12),
        ),
        (format!("tree n={n}"), generators::random_tree(n, 12)),
    ]
}

/// E1 — APSP round complexity (Theorem 1) versus the serialized baselines
/// of §3.1. Algorithm 1 is `Θ(n)` on every family; the unpipelined
/// BFS-per-node schedule and the round-robin distance vector are `Θ(n·D)`
/// (quadratic on paths); link-state is `Θ(m + D)` rounds with `Θ(m²)`
/// messages.
fn table1_apsp(out: &mut String) {
    *out += "# E1: APSP in O(n) rounds (Theorem 1) vs serialized baselines\n\n";
    let ns = [32usize, 64, 128, 256];

    let mut rows = Vec::new();
    let mut apsp_path: Vec<(f64, f64)> = Vec::new();
    let mut seq_path: Vec<(f64, f64)> = Vec::new();
    let mut dv_path: Vec<(f64, f64)> = Vec::new();
    for &n in &ns {
        for (label, g) in apsp_families(n) {
            let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
            let seq = dapsp_baselines::sequential_bfs(&g).expect("sequential");
            let eager = dapsp_baselines::distance_vector_eager(&g).expect("eager dv");
            // The round-robin protocol is Θ(n·D); cap it to keep runtimes sane.
            let dv = if n <= 128 {
                Some(dapsp_baselines::distance_vector(&g).expect("dv"))
            } else {
                None
            };
            let ls = if g.num_edges() <= 2000 {
                Some(dapsp_baselines::link_state(&g).expect("link state"))
            } else {
                None
            };
            if label.starts_with("path") {
                apsp_path.push((n as f64, a.stats.rounds as f64));
                seq_path.push((n as f64, seq.stats.rounds as f64));
                if let Some(d) = &dv {
                    dv_path.push((n as f64, d.rounds_to_converge as f64));
                }
            }
            rows.push(vec![
                label,
                a.stats.rounds.to_string(),
                seq.stats.rounds.to_string(),
                eager.rounds_to_converge.to_string(),
                dv.map_or("-".into(), |d| d.rounds_to_converge.to_string()),
                ls.map_or("-".into(), |l| l.rounds_to_converge.to_string()),
            ]);
        }
    }
    table(
        out,
        "rounds by algorithm",
        "instance | Alg.1 APSP | seq. BFS (n·D) | eager DV | round-robin DV | link-state",
        &rows,
    );

    let slope = |pts: &[(f64, f64)]| -> f64 {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        loglog_slope(&xs, &ys)
    };
    let apsp_slope = slope(&apsp_path);
    let seq_slope = slope(&seq_path);
    let dv_slope = slope(&dv_path);
    table(
        out,
        "empirical growth exponents on paths (rounds ~ n^slope)",
        "algorithm | paper bound | measured slope",
        &[
            vec![
                "Alg.1 APSP".into(),
                "Θ(n) → 1".into(),
                format!("{apsp_slope:.2}"),
            ],
            vec![
                "sequential BFS".into(),
                "Θ(n·D) → 2 on paths".into(),
                format!("{seq_slope:.2}"),
            ],
            vec![
                "round-robin DV".into(),
                "Θ(n·D) → 2 on paths".into(),
                format!("{dv_slope:.2}"),
            ],
        ],
    );
    assert!(
        apsp_slope < 1.25,
        "APSP must scale ~linearly, got {apsp_slope:.2}"
    );
    assert!(
        seq_slope > 1.7,
        "sequential BFS must be ~quadratic on paths"
    );
    assert!(dv_slope > 1.7, "round-robin DV must be ~quadratic on paths");
    *out += "OK: shapes match the paper (APSP linear; naive baselines quadratic on paths).\n";
}

/// E2 — S-SP in `O(|S| + D)` rounds (Theorem 3). Two sweeps isolate the
/// two terms: `|S|` varies at fixed `D` (rounds grow ≈ 1 per source after
/// the `O(D)` offset), and `D` varies at fixed `|S|` via double brooms
/// (rounds grow linearly in `D`).
fn table1_ssp(out: &mut String) {
    *out += "# E2: S-SP in O(|S| + D) rounds (Theorem 3)\n\n";

    // Sweep |S| at fixed n and D (ER graph, D stays ~4).
    let n = 192;
    let g = generators::erdos_renyi_connected(n, 10.0 / n as f64, 5);
    let mut rows = Vec::new();
    let mut prev: Option<(usize, u64)> = None;
    let mut increments = Vec::new();
    for s_count in [4usize, 16, 48, 96, 160] {
        let sources: Vec<u32> = (0..s_count as u32).collect();
        let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
        if let Some((ps, pr)) = prev {
            increments.push((r.stats.rounds - pr) as f64 / (s_count - ps) as f64);
        }
        rows.push(vec![
            format!("ER n={n}, |S|={s_count}"),
            r.d0.to_string(),
            r.stats.rounds.to_string(),
            (s_count as u64 + u64::from(r.d0)).to_string(),
            r.relaxations.to_string(),
        ]);
        prev = Some((s_count, r.stats.rounds));
    }
    table(
        out,
        "sweep |S| at fixed D",
        "instance | D0 | rounds | |S|+D0 budget | relaxations",
        &rows,
    );
    let avg_inc = increments.iter().sum::<f64>() / increments.len() as f64;
    *out += &format!("marginal rounds per extra source: {avg_inc:.2} (theory: ~1)\n\n");
    assert!(
        avg_inc < 2.0,
        "rounds must grow ~1 per source, got {avg_inc:.2}"
    );

    // Sweep D at fixed |S| and n (double brooms).
    let mut rows = Vec::new();
    for d in [8usize, 16, 32, 64, 120] {
        let g = generators::double_broom(128, d);
        let sources: Vec<u32> = (0..8).collect();
        let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
        let per_d = r.stats.rounds as f64 / d as f64;
        assert!(
            per_d < 4.5,
            "D={d}: rounds/D must stay below 4.5, got {per_d:.2}"
        );
        rows.push(vec![
            format!("broom n=128 D={d}, |S|=8"),
            r.stats.rounds.to_string(),
            format!("{per_d:.2}"),
            r.relaxations.to_string(),
        ]);
    }
    table(
        out,
        "sweep D at fixed |S| (rounds/D should approach a constant)",
        "instance | rounds | rounds / D | relaxations",
        &rows,
    );
    *out += "OK: rounds grow additively in |S| and D, as Theorem 3 predicts.\n";
}

/// E3 — the `O(n)` applications of APSP (Lemmas 2–6): eccentricities,
/// diameter, radius, center, peripheral vertices, each checked against the
/// centralized oracle, with end-to-end rounds (APSP + `O(D)`
/// aggregations) below `8n`.
fn table1_exact_apps(out: &mut String) {
    *out += "# E3: exact applications in O(n) rounds (Lemmas 2-6)\n\n";
    let instances: Vec<(String, Graph)> = vec![
        ("path n=96".into(), generators::path(96)),
        ("cycle n=96".into(), generators::cycle(96)),
        ("grid 10x10".into(), generators::grid(10, 10)),
        ("broom n=96 D=24".into(), generators::double_broom(96, 24)),
        (
            "ER n=96 p=8/n".into(),
            generators::erdos_renyi_connected(96, 8.0 / 96.0, 3),
        ),
        ("tree n=96".into(), generators::random_tree(96, 3)),
    ];
    let mut rows = Vec::new();
    for (label, g) in &instances {
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        let bundle = metrics::from_apsp(g, &a).expect("metrics");
        assert_eq!(Some(bundle.diameter), reference::diameter(g), "{label}");
        assert_eq!(Some(bundle.radius), reference::radius(g), "{label}");
        assert_eq!(
            Some(bundle.eccentricities.clone()),
            reference::eccentricities(g),
            "{label}"
        );
        let center: Vec<u32> = bundle
            .center
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(v, _)| v as u32)
            .collect();
        assert_eq!(Some(center.clone()), reference::center(g), "{label}");
        let periph_count = bundle.peripheral.iter().filter(|&&p| p).count();
        let per_n = bundle.stats.rounds as f64 / g.num_nodes() as f64;
        assert!(
            per_n < 8.0,
            "{label}: rounds/n must stay below 8, got {per_n:.2}"
        );
        rows.push(vec![
            label.clone(),
            bundle.diameter.to_string(),
            bundle.radius.to_string(),
            center.len().to_string(),
            periph_count.to_string(),
            a.stats.rounds.to_string(),
            bundle.stats.rounds.to_string(),
            format!("{per_n:.2}"),
        ]);
    }
    table(
        out,
        "all metrics verified against the oracle",
        "instance | D | rad | |center| | |periph| | APSP rounds | total rounds | rounds/n",
        &rows,
    );
    *out += "OK: every metric exact; total rounds stay a small multiple of n.\n";
}

/// E4 — exact girth in `O(n)` rounds (Lemma 7 + Claim 1). Trees
/// short-circuit after the `O(D)` Claim 1 test (below `4D` rounds);
/// everything else pays one APSP plus a min-aggregation. All values are
/// oracle-checked.
fn table1_girth(out: &mut String) {
    *out += "# E4: exact girth in O(n) rounds (Lemma 7, Claim 1)\n\n";
    let instances: Vec<(String, Graph)> = vec![
        ("cycle n=64 (g=64)".into(), generators::cycle(64)),
        ("tadpole g=5 n=64".into(), generators::tadpole(5, 64)),
        ("tadpole g=17 n=64".into(), generators::tadpole(17, 64)),
        ("grid 8x8 (g=4)".into(), generators::grid(8, 8)),
        ("hypercube d=6 (g=4)".into(), generators::hypercube(6)),
        ("complete n=24 (g=3)".into(), generators::complete(24)),
        (
            "ER n=64 p=6/n".into(),
            generators::erdos_renyi_connected(64, 6.0 / 64.0, 11),
        ),
        ("path n=64 (tree)".into(), generators::path(64)),
        ("random tree n=64".into(), generators::random_tree(64, 11)),
    ];
    let mut rows = Vec::new();
    for (label, g) in &instances {
        let r = girth::run(g).expect("girth");
        assert_eq!(r.girth, reference::girth(g), "{label}");
        if r.girth.is_none() {
            let d = u64::from(reference::diameter(g).expect("connected"));
            assert!(r.stats.rounds < 4 * d, "{label}: a tree must exit in O(D)");
        }
        rows.push(vec![
            label.clone(),
            r.girth.map_or("∞".into(), |v| v.to_string()),
            r.stats.rounds.to_string(),
            format!("{:.2}", r.stats.rounds as f64 / g.num_nodes() as f64),
        ]);
    }
    table(
        out,
        "girth, oracle-verified",
        "instance | girth | rounds | rounds/n",
        &rows,
    );
    *out += "OK: exact girth everywhere; trees exit after the O(D) Claim 1 test.\n";
}

/// E5 — the lower-bound families (Theorems 2, 6, 8) and their certified
/// round bounds, compared against measured upper bounds. A lower bound
/// cannot be "run", but its construction can: build the disjointness
/// gadgets, verify their diameter dichotomy, compute the certified bound
/// `Ω(input_bits / (B·cut))` + `Ω(D)`, and set it under the rounds the
/// exact and approximate algorithms actually take.
fn table1_lower_bounds(out: &mut String) {
    *out += "# E5: lower-bound families and certificates (Theorems 2, 6, 8)\n\n";

    // Theorem 6: diameter 2-vs-3 takes Ω(n/B) rounds.
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut certified = Vec::new();
    let mut measured = Vec::new();
    for k in [8usize, 16, 32, 64, 128] {
        for intersecting in [false, true] {
            let (a, b) = lowerbound::canonical_inputs(k, intersecting);
            let inst = lowerbound::two_vs_three(k, &a, &b);
            let n = inst.graph.num_nodes();
            assert_eq!(
                reference::diameter(&inst.graph),
                Some(inst.expected_diameter),
                "dichotomy must hold"
            );
            let bandwidth = Config::for_n(n).bandwidth_bits;
            let lb = inst.bound.rounds(bandwidth);
            // The theorem holds for every B >= 1; at B = 1 the
            // communication term dominates and the linear-in-n shape shows.
            let lb_b1 = inst.bound.rounds(1);
            let exact = metrics::diameter(&inst.graph).expect("exact diameter");
            assert_eq!(exact.value, inst.expected_diameter);
            if intersecting {
                xs.push(n as f64);
                certified.push(lb_b1 as f64);
                measured.push(exact.stats.rounds as f64);
            }
            rows.push(vec![
                format!(
                    "2-vs-3 k={k} ({})",
                    if intersecting { "D=3" } else { "D=2" }
                ),
                n.to_string(),
                inst.expected_diameter.to_string(),
                inst.bound.input_bits.to_string(),
                inst.bound.cut_edges.to_string(),
                lb.to_string(),
                lb_b1.to_string(),
                exact.stats.rounds.to_string(),
            ]);
        }
    }
    table(
        out,
        "Theorem 6 family: certified Ω(n/B) vs measured exact-diameter rounds",
        "instance | n | D | input bits | cut | LB @ B=log n | LB @ B=1 | measured rounds",
        &rows,
    );
    let lb_slope = loglog_slope(&xs, &certified);
    let ub_slope = loglog_slope(&xs, &measured);
    *out += &format!("certified-LB(B=1) growth exponent: {lb_slope:.2} (theory 1.0); measured-UB exponent: {ub_slope:.2}\n\n");
    assert!(
        lb_slope > 0.75,
        "the B=1 certificate must grow ~linearly in n, got {lb_slope:.2}"
    );

    // Theorem 2 shape: the diameter-gap family certifies Ω(n/(B·D)).
    let mut rows = Vec::new();
    for (k, h) in [(24usize, 1usize), (24, 3), (24, 6), (24, 12)] {
        let (a, b) = lowerbound::canonical_inputs(k, true);
        let inst = lowerbound::diameter_gap(k, h, &a, &b);
        let n = inst.graph.num_nodes();
        assert_eq!(
            reference::diameter(&inst.graph),
            Some(inst.expected_diameter)
        );
        let bw = Config::for_n(n).bandwidth_bits;
        rows.push(vec![
            format!("gap k={k} h={h}"),
            n.to_string(),
            inst.expected_diameter.to_string(),
            inst.bound.rounds(bw).to_string(),
            inst.bound.rounds(1).to_string(),
            format!("{:.2}", n as f64 / f64::from(inst.expected_diameter)),
        ]);
    }
    table(
        out,
        "Theorem 2 family: certified bound vs the n/(B·D) + D shape",
        "instance | n | D | LB @ B=log n | LB @ B=1 | n/D",
        &rows,
    );

    // Theorem 8: the girth-3 family also forces Ω(n/B) for all 2-BFS trees.
    // We *measure* the all-2-BFS computation (Algorithm 1 truncated at
    // depth 2, §8's upper bound) against the certificate, and contrast with
    // Algorithm 3 answering the easier 2-vs-4 promise.
    let mut rows = Vec::new();
    for k in [16usize, 32, 64] {
        let (a, b) = lowerbound::canonical_inputs(k, false);
        let inst = lowerbound::girth3_two_bfs_hard(k, &a, &b);
        assert_eq!(reference::girth(&inst.graph), Some(3));
        let n = inst.graph.num_nodes();
        let bw = Config::for_n(n).bandwidth_bits;
        let kbfs = apsp::run_truncated(&inst.graph, 2).expect("all 2-BFS trees");
        // The §8 predicate decides the dichotomy.
        assert_eq!(kbfs.covers_everything(), inst.expected_diameter <= 2);
        let fast = two_vs_four::run(&inst.graph, 7).expect("algorithm 3");
        rows.push(vec![
            format!("girth3 2-BFS-hard k={k}"),
            n.to_string(),
            inst.bound.rounds(bw).to_string(),
            inst.bound.rounds(1).to_string(),
            kbfs.stats.rounds.to_string(),
            fast.claimed_diameter.to_string(),
            fast.stats.rounds.to_string(),
        ]);
    }
    table(
        out,
        "Theorem 8 family (girth 3): all-2-BFS measured (Alg.1 truncated) vs certificate, and Algorithm 3 on the 2-vs-4 promise",
        "instance | n | LB @ B=log n | LB @ B=1 | all-2-BFS rounds | Alg.3 answer | Alg.3 rounds",
        &rows,
    );
    *out += "OK: dichotomies verified; no measured run undercuts its certificate.\n";
}

/// E6 — the `(×, 1+ε)` approximations in `O(n/D + D)` rounds (Theorem 4,
/// Corollary 4). Sweep `D` at fixed `n` via double brooms: exact stays
/// ≈ `c·n` while the approximation pays its `O(D)` term, so the speedup
/// (≈ `n/D`) is largest for small `D` and falls as `D` grows. A second
/// sweep varies `ε`.
fn table1_approx_diameter(out: &mut String) {
    *out += "# E6: (1+eps)-approx diameter/eccentricities in O(n/D + D) (Thm 4, Cor 4)\n\n";
    let n = 384;
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for d in [12usize, 24, 48, 96, 192] {
        let g = generators::double_broom(n, d);
        let exact = metrics::diameter(&g).expect("exact");
        let apx = approx::diameter(&g, 0.5).expect("approx");
        assert!(apx.value >= exact.value);
        assert!(f64::from(apx.value) <= 1.5 * f64::from(exact.value));
        speedups.push(exact.stats.rounds as f64 / apx.stats.rounds as f64);
        rows.push(vec![
            format!("broom n={n} D={d}"),
            exact.value.to_string(),
            apx.value.to_string(),
            apx.k.to_string(),
            apx.dom_size.to_string(),
            exact.stats.rounds.to_string(),
            apx.stats.rounds.to_string(),
            format!("{:.2}", speedups[speedups.len() - 1]),
        ]);
    }
    table(
        out,
        "sweep D at fixed n (eps = 0.5)",
        "instance | D exact | D approx | k | |DOM| | exact rounds | approx rounds | speedup",
        &rows,
    );
    assert!(
        speedups.windows(2).all(|w| w[1] < w[0]),
        "the speedup must fall monotonically as D grows: {speedups:.2?}"
    );

    let mut rows = Vec::new();
    let g = generators::double_broom(n, 96);
    for eps in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let apx = approx::diameter(&g, eps).expect("approx");
        let ecc = approx::eccentricities(&g, eps).expect("ecc approx");
        rows.push(vec![
            format!("eps={eps}"),
            apx.value.to_string(),
            format!("{:.3}", f64::from(apx.value) / 96.0),
            apx.dom_size.to_string(),
            apx.stats.rounds.to_string(),
            ecc.stats.rounds.to_string(),
        ]);
    }
    table(
        out,
        "sweep eps on broom n=384 D=96 (true D = 96)",
        "eps | estimate | estimate/D | |DOM| | diam rounds | ecc rounds",
        &rows,
    );
    *out += "OK: speedup falls monotonically as D grows; accuracy degrades gracefully with eps.\n";
}

/// E7 — the `(×, 1+ε)` girth approximation in
/// `O(min{n/g + D·log(D/g), n})` rounds (Theorem 5). Sweep the girth at
/// fixed `n`: the estimate stays within `(1+ε)·g` while the refinement
/// needs only `O(log(D/g))` iterations, and where `D` is small the
/// approximation beats the exact `O(n)` computation.
fn table1_approx_girth(out: &mut String) {
    *out += "# E7: (1+eps)-approx girth (Theorem 5)\n\n";
    let n = 192;
    let eps = 0.5;
    // Hairy cycles: girth g with diameter ~g/2, the regime where
    // O(n/g + D·log(D/g)) beats O(n).
    let mut rows = Vec::new();
    let mut best_speedup: f64 = 0.0;
    for g_target in [6usize, 12, 24, 48, 96] {
        let g = generators::hairy_cycle(g_target, n);
        let truth = reference::girth(&g).expect("has a cycle");
        assert_eq!(truth as usize, g_target);
        let exact = girth::run(&g).expect("exact girth");
        let apx = girth_approx::run(&g, eps).expect("approx girth");
        let est = apx.estimate.expect("cycle exists");
        assert!(est >= truth);
        assert!(f64::from(est) <= (1.0 + eps) * f64::from(truth) + 1e-9);
        let speedup = exact.stats.rounds as f64 / apx.stats.rounds as f64;
        best_speedup = best_speedup.max(speedup);
        rows.push(vec![
            format!("hairy g={g_target} n={n}"),
            truth.to_string(),
            est.to_string(),
            apx.iterations.to_string(),
            exact.stats.rounds.to_string(),
            apx.stats.rounds.to_string(),
            format!("{speedup:.2}"),
        ]);
    }
    table(
        out,
        "hairy cycles: sweep girth at fixed n, D ~ g/2 (eps = 0.5)",
        "instance | g | estimate | iterations | exact rounds | approx rounds | speedup",
        &rows,
    );
    assert!(
        best_speedup > 1.0,
        "the approximation must beat exact somewhere in its favourable regime"
    );

    // Tadpoles have D ~ n, the regime where the theorem's min{·, n} branch
    // says nothing can be saved — reported for honesty.
    let mut rows = Vec::new();
    for g_target in [8usize, 32, 128] {
        let g = generators::tadpole(g_target, n);
        let truth = reference::girth(&g).expect("has a cycle");
        let exact = girth::run(&g).expect("exact girth");
        let apx = girth_approx::run(&g, eps).expect("approx girth");
        let est = apx.estimate.expect("cycle exists");
        assert!(est >= truth);
        assert!(f64::from(est) <= (1.0 + eps) * f64::from(truth) + 1e-9);
        rows.push(vec![
            format!("tadpole g={g_target} n={n}"),
            truth.to_string(),
            est.to_string(),
            apx.iterations.to_string(),
            exact.stats.rounds.to_string(),
            apx.stats.rounds.to_string(),
        ]);
    }
    table(
        out,
        "tadpoles: D ~ n, the min{·, n} regime (no speedup expected)",
        "instance | g | estimate | iterations | exact rounds | approx rounds",
        &rows,
    );
    *out += "OK: estimates within (1+eps)·g everywhere; speedup in the small-D regime.\n";
}

/// E8 — Algorithm 3 distinguishes diameter 2 from 4 in `O(√(n·log n))`
/// rounds (Theorem 7), while 2-vs-3 is certified `Ω(n/B)` (Theorem 6):
/// on promise instances Algorithm 3's rounds grow sublinearly while the
/// exact computation and the Theorem 6 certificate grow linearly — the
/// contrast the paper highlights in §7.
fn table1_two_vs_four(out: &mut String) {
    *out += "# E8: 2-vs-4 in O(sqrt(n log n)) (Theorem 7) vs 2-vs-3 hardness (Theorem 6)\n\n";
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut alg3 = Vec::new();
    let mut exact_rounds = Vec::new();
    for k in [16usize, 32, 64, 128] {
        // Promise D=2 instance: the disjoint branch of the hard family
        // (dense, all pairwise distances <= 2).
        let (a, b) = lowerbound::canonical_inputs(k, false);
        let inst = lowerbound::two_vs_three(k, &a, &b);
        let n = inst.graph.num_nodes();
        assert_eq!(reference::diameter(&inst.graph), Some(2));
        let fast = two_vs_four::run(&inst.graph, 3).expect("algorithm 3");
        assert_eq!(fast.claimed_diameter, 2);
        let exact = metrics::diameter(&inst.graph).expect("exact");
        let bw = Config::for_n(n).bandwidth_bits;
        let lb23 = inst.bound.rounds(bw);
        xs.push(n as f64);
        alg3.push(fast.stats.rounds as f64);
        exact_rounds.push(exact.stats.rounds as f64);
        rows.push(vec![
            format!("2-vs-3 family (D=2), k={k}"),
            n.to_string(),
            fast.probed_sources.to_string(),
            fast.stats.rounds.to_string(),
            exact.stats.rounds.to_string(),
            lb23.to_string(),
        ]);
    }
    // Promise D=4 instances.
    for n in [64usize, 128, 256] {
        let g = generators::double_broom(n, 4);
        let fast = two_vs_four::run(&g, 3).expect("algorithm 3");
        assert_eq!(fast.claimed_diameter, 4);
        rows.push(vec![
            format!("broom D=4, n={n}"),
            n.to_string(),
            fast.probed_sources.to_string(),
            fast.stats.rounds.to_string(),
            "-".into(),
            "-".into(),
        ]);
    }
    // Dense promise instances with no low-degree node: the sampled branch
    // fires and the probe count grows like √(n·log n).
    let mut dense_xs = Vec::new();
    let mut dense_probes = Vec::new();
    for half in [32usize, 64, 128] {
        let g = generators::complete_bipartite(half, half);
        let n = 2 * half;
        let fast = two_vs_four::run(&g, 3).expect("algorithm 3");
        assert_eq!(fast.claimed_diameter, 2);
        dense_xs.push(n as f64);
        dense_probes.push(fast.probed_sources as f64);
        rows.push(vec![
            format!("K_{{{half},{half}}} (D=2)"),
            n.to_string(),
            fast.probed_sources.to_string(),
            fast.stats.rounds.to_string(),
            "-".into(),
            "-".into(),
        ]);
    }
    table(
        out,
        "Algorithm 3 on promise instances",
        "instance | n | probes | Alg.3 rounds | exact rounds | 2-vs-3 certified LB",
        &rows,
    );
    let fast_slope = loglog_slope(&xs, &alg3);
    let exact_slope = loglog_slope(&xs, &exact_rounds);
    let probe_slope = loglog_slope(&dense_xs, &dense_probes);
    *out += &format!("Alg.3 rounds exponent on the hard family: {fast_slope:.2}; exact: {exact_slope:.2} (theory 1.0)\n");
    *out += &format!(
        "Alg.3 probe-count exponent on dense promise graphs: {probe_slope:.2} (theory ~0.5)\n"
    );
    assert!(
        fast_slope < exact_slope,
        "Algorithm 3 must scale strictly better than exact diameter"
    );
    assert!(
        probe_slope > 0.3 && probe_slope < 0.8,
        "probe count must grow ~sqrt(n), got {probe_slope:.2}"
    );
    *out += "OK: 2-vs-4 is genuinely sublinear while 2-vs-3 is certified linear.\n";
}

/// E9 — Corollary 1: the `(×, 3/2)` diameter approximation in
/// `O(min{D·√n, n/D + D})` rounds, i.e. `O(n^{3/4} + D)`. Sweep `D` at
/// fixed `n`: the branch chooser switches from the sampled estimator
/// (small `D`) to the dominating-set approximation (large `D`) around
/// `D ≈ n^{1/4}`, and the estimate stays in `[D, 3D/2]` (modulo rounding).
fn table1_cor1_crossover(out: &mut String) {
    *out += "# E9: Corollary 1 crossover, O(min{D*sqrt(n), n/D + D})\n\n";
    let n = 256;
    *out += &format!(
        "n = {n}, so the theoretical crossover sits near D ≈ n^(1/4) = {:.1}\n\n",
        (n as f64).powf(0.25)
    );
    let mut rows = Vec::new();
    let mut seen_sampled = false;
    let mut seen_domset = false;
    for d in [2usize, 4, 8, 16, 32, 64, 128] {
        let g = generators::double_broom(n, d);
        let truth = reference::diameter(&g).unwrap();
        assert_eq!(truth as usize, d);
        let r = three_halves::run(&g, 9).expect("corollary 1");
        assert!(r.estimate >= truth, "estimate below D");
        assert!(
            f64::from(r.estimate) <= 1.5 * f64::from(truth) + 2.0,
            "estimate {} above 1.5·{truth}+2",
            r.estimate
        );
        match r.branch {
            Branch::Sampled => seen_sampled = true,
            Branch::DominatingSet => seen_domset = true,
        }
        rows.push(vec![
            format!("broom n={n} D={d}"),
            truth.to_string(),
            r.estimate.to_string(),
            format!("{:?}", r.branch),
            r.stats.rounds.to_string(),
        ]);
    }
    table(
        out,
        "branch choice and accuracy across D",
        "instance | D | estimate | branch | rounds",
        &rows,
    );
    assert!(
        seen_sampled && seen_domset,
        "both branches must fire across the sweep (crossover exists)"
    );
    *out += "OK: crossover observed; estimates within the (×,3/2) band throughout.\n";
}

/// E10 — communication volume (§3.2): S-SP exchanges `O((|S|+D)·m)`
/// messages / `O((|S|+D)·m·log n)` bits. Sweep `|S|` and `m`
/// independently: messages normalized by `(|S|+D)·m` stay below 2, the
/// comparison the paper makes against Elkin and Khan et al. in §3.2.
fn table1_bits(out: &mut String) {
    *out += "# E10: S-SP communication volume O((|S|+D)·m) (§3.2)\n\n";
    let mut rows = Vec::new();
    let mut max_ratio: f64 = 0.0;
    for (label, g) in [
        (
            "ER n=128 p=6/n",
            generators::erdos_renyi_connected(128, 6.0 / 128.0, 2),
        ),
        (
            "ER n=128 p=16/n",
            generators::erdos_renyi_connected(128, 16.0 / 128.0, 2),
        ),
        (
            "ER n=128 p=32/n",
            generators::erdos_renyi_connected(128, 32.0 / 128.0, 2),
        ),
        ("grid 16x8", generators::grid(16, 8)),
        ("cycle n=128", generators::cycle(128)),
    ] {
        for s_count in [4usize, 16, 64] {
            let sources: Vec<u32> = (0..s_count as u32).collect();
            let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
            let m = g.num_edges() as f64;
            let ratio = r.stats.messages as f64 / ((s_count as f64 + f64::from(r.d0)) * m);
            max_ratio = max_ratio.max(ratio);
            rows.push(vec![
                format!("{label}, |S|={s_count}"),
                g.num_edges().to_string(),
                r.d0.to_string(),
                r.stats.messages.to_string(),
                r.stats.bits.to_string(),
                format!("{ratio:.3}"),
            ]);
        }
    }
    table(
        out,
        "messages vs the (|S|+D)·m budget",
        "instance | m | D0 | messages | bits | msgs/((|S|+D0)·m)",
        &rows,
    );
    assert!(
        max_ratio < 2.0,
        "msgs/((|S|+D0)·m) must stay below 2, got {max_ratio:.3}"
    );
    *out += "OK: the normalized ratio stays below a small constant — the O((|S|+D)·m) claim.\n";
}

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

/// Ablation — Algorithm 2 as written vs. the repaired implementation.
/// DESIGN.md §5 documents that the paper's drop-and-retry rule with
/// bare-id priority can adopt non-shortest distances and outlast its own
/// `|S| + D₀` budget. For each instance this runs the verbatim
/// transcription (`dapsp_core::ssp_paper`) and the production
/// implementation (`dapsp_core::ssp`), counting unresolved pairs, wrong
/// distances (vs. the oracle), and rounds.
fn ablation_ssp_variants(out: &mut String) {
    *out += "# Ablation: Algorithm 2 verbatim vs repaired (DESIGN.md §5)\n\n";
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
        let paper =
            ssp_paper::run_on_obs(&g.to_topology(), sources, Obs::none()).expect("verbatim");
        let fixed = ssp::run_on_obs(&g.to_topology(), sources, Obs::none()).expect("repaired");
        let (paper_wrong, paper_unresolved) = wrong_count(paper.dist.iter(), sources, g);
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
    table(
        out,
        "verbatim (id-priority, drop/retry, fixed schedule) vs repaired ((dist,id)-priority, accept-all, quiescence)",
        "instance | |S|+D0 | verbatim rounds | verbatim wrong | verbatim unresolved | repaired rounds | repaired relaxations",
        &rows,
    );
    assert!(
        total_paper_defects > 0,
        "the ablation should exhibit at least one verbatim defect"
    );
    *out += &format!(
        "verbatim defects across instances: {total_paper_defects}; repaired: 0 everywhere.\n\
         The repair keeps the O(|S| + D) shape (see E2) while restoring exactness.\n"
    );
}

/// Ablation — Algorithm 1's one-slot wait (paper line 5) is load-bearing.
/// Lemma 1's proof needs `t_v >= t_u + d(u, v) + 1` between consecutive
/// BFS starts; the `+1` comes exactly from the wait. Without it, the
/// simulator's bandwidth discipline must catch a wave collision on every
/// family; the table shows where the first one happens.
fn ablation_pebble_wait(out: &mut String) {
    *out += "# Ablation: Algorithm 1 without the one-slot wait (Lemma 1)\n\n";
    let instances: Vec<(String, Graph)> = vec![
        ("path n=24".into(), generators::path(24)),
        ("cycle n=24".into(), generators::cycle(24)),
        ("grid 5x5".into(), generators::grid(5, 5)),
        ("tree n=31".into(), generators::balanced_tree(2, 4)),
        (
            "ER n=32 p=0.2".into(),
            generators::erdos_renyi_connected(32, 0.2, 7),
        ),
        ("hypercube d=5".into(), generators::hypercube(5)),
    ];
    let mut rows = Vec::new();
    for (label, g) in &instances {
        let with_wait = apsp::run_on_obs(&g.to_topology(), Obs::none())
            .expect("with the wait everything is clean");
        let outcome = apsp::run_without_wait(g);
        let Err(CoreError::Sim(SimError::DuplicateSend { node, round, .. })) = outcome else {
            let rounds = outcome.map(|r| r.stats.rounds);
            panic!("{label}: without the wait the waves must collide, got rounds = {rounds:?}");
        };
        rows.push(vec![
            label.clone(),
            with_wait.stats.rounds.to_string(),
            format!("collision at node {node}, round {round}"),
        ]);
    }
    table(
        out,
        "the wait removed: the simulator detects Lemma 1 violations",
        "instance | rounds (with wait) | without wait",
        &rows,
    );
    *out += "The one-slot wait costs n rounds total and buys congestion-freedom for all n waves.\n";
}

/// Table 1 of the paper, one row per problem, one ` | `-separated cell per
/// approximation ratio. Upper bounds (`O(...)`) are implemented algorithms
/// whose round counts the sections above measure; lower bounds (`Ω(...)`)
/// are certified by the hard families in `dapsp_graph::lowerbound`; `—`
/// marks cells the paper itself leaves open.
const TABLE1: &str = "\
APSP | Θ̃(n) — core::apsp (E1) | Ω(n/(D·B))+D — lowerbound::diameter_gap (E5) | Ω(n/B) — Lemma 11 via Thm 6 family (E5) | — | — | —
eccentricity | Θ̃(n) — core::metrics (E3) | Ω(n/(D·B))+D — same family (E5) | Ω(√n/B)+D — cited [22] | — | O(n/D + D) — core::approx (E6) | Θ(D) — approx::diameter_times_two (Rem. 1)
diameter | Θ̃(n) — core::metrics (E1/E3) | Ω(n/(D·B))+D — Thm 2 family (E5) | O(n¾+D) — core::three_halves (E9); Ω(√n/B)+D cited [22] | O(n¾+D) — Corollary 1 (E9) | O(n/D + D) — core::approx (E6) | Θ(D) — approx::diameter_times_two
radius | O(n) — core::metrics (E3) | — | — | — | O(n/D + D) — approx::from_estimates | Θ(D) — approx::diameter_times_two (Rem. 1)
center | Θ̃(n) — core::metrics (E3) | Ω(n/(D·B))+D — Lemma 9 | Ω(√n/B)+D — Lemma 9 | — | O(n/D + D) — approx::from_estimates (E6) | 0 — V itself (Rem. 2)
p. vertices | Θ̃(n) — core::metrics (E3) | Ω(n/(D·B))+D — Lemma 8 | Ω(√n/B)+D — Lemma 8 | — | O(n/D + D) — approx::from_estimates (E6) | 0 — V itself (Rem. 2)
girth | O(n) — core::girth (E4) | — | — | — | O(n/g + D·log(D/g)) — core::girth_approx (E7) | (×,2−1/g): girth_approx::corollary2 (Cor. 2)
";

/// The capstone index: the paper's Table 1, cell by cell, mapped to what
/// this repository implements, measures, or certifies.
fn table1_summary(out: &mut String) {
    *out += "# Table 1 of the paper, mapped to this repository\n\n";
    let rows: Vec<Vec<String>> = TABLE1
        .lines()
        .map(|line| line.split(" | ").map(String::from).collect())
        .collect();
    table(
        out,
        "problem × approximation ratio → bound, module, experiment",
        "problem | exact | (+, 1) | (×, 3/2−ε) / (×, 3/2) | (×, 3/2) combined | (×, 1+ε) | (×, 2)",
        &rows,
    );
    *out += "Supporting results: S-SP in O(|S|+D) — core::ssp (E2, E10);\n";
    *out += "2-vs-4 in O(√(n log n)) — core::two_vs_four (E8); 2-vs-3 hardness — Thm 6 family (E5, E8);\n";
    *out += "all k-BFS trees (§8) — apsp::run_truncated, measured against the Thm 8 family (E5).\n";
    *out += "\nThe measured tables behind every cell are the other sections of this file.\n";
}

fn sparkline(profile: &[u64], buckets: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if profile.is_empty() {
        return String::new();
    }
    let max = *profile.iter().max().expect("nonempty") as f64;
    let chunk = profile.len().div_ceil(buckets);
    profile
        .chunks(chunk)
        .map(|c| {
            let avg = c.iter().sum::<u64>() as f64 / c.len() as f64;
            let idx = ((avg / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx]
        })
        .collect()
}

/// A "figure": the per-round message activity of Algorithm 1's wave phase
/// as a text profile. Lemma 1's point is that all `n` BFS waves overlap
/// without congestion: the network sustains high delivery volume for the
/// whole traversal instead of running one wave at a time — a long plateau
/// near the maximum, then a short tail as the last waves finish.
fn figure_wave_pipeline(out: &mut String) {
    *out += "# Figure: per-round message activity of Algorithm 1's wave phase\n\n";
    let mut rows = Vec::new();
    for (label, g) in [
        ("cycle n=96", generators::cycle(96)),
        ("grid 10x10", generators::grid(10, 10)),
        (
            "ER n=96 p=8/n",
            generators::erdos_renyi_connected(96, 8.0 / 96.0, 3),
        ),
        ("tree n=96", generators::random_tree(96, 3)),
    ] {
        let recorder = SharedObserver::new(MetricsRecorder::new());
        let handle = recorder.observer();
        let result = apsp::run_on_obs(&g.to_topology(), Obs::watching(&handle)).expect("apsp");
        // Row r of the wave phase's metric stream counts the messages sent
        // in round r — the deliveries of round r + 1. The phase's last row
        // is its final round, which sends nothing further.
        let mut profile: Vec<u64> = recorder.with(|rec| {
            rec.stream()
                .iter()
                .filter(|row| &*row.phase == "apsp:waves")
                .map(|row| row.messages)
                .collect()
        });
        assert_eq!(
            profile.pop(),
            Some(0),
            "a drained run ends on a silent round"
        );
        let m = g.num_edges() as f64;
        let peak = *profile.iter().max().unwrap_or(&0);
        let mean = profile.iter().sum::<u64>() as f64 / profile.len().max(1) as f64;
        rows.push(vec![
            label.to_string(),
            result.stats.rounds.to_string(),
            peak.to_string(),
            format!("{:.1}%", 100.0 * peak as f64 / (2.0 * m)),
            format!("{:.1}%", 100.0 * mean / (2.0 * m)),
            sparkline(&profile, 48),
        ]);
    }
    table(
        out,
        "wave-phase activity (utilization = deliveries / 2m edge-slots)",
        "instance | rounds | peak msgs/round | peak util | mean util | activity over time",
        &rows,
    );
    *out += "The sustained plateau is Lemma 1 at work: n overlapping BFS waves keep\n\
         a large fraction of all 2m directed edge-slots busy every round, which\n\
         is how n searches finish in O(n) instead of O(n·D) rounds.\n";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_detects_quadratic_growth() {
        let xs = [4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        assert!((loglog_slope(&xs, &ys) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_tolerates_constants_and_noise() {
        let xs = [16.0, 32.0, 64.0, 128.0];
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x + 20.0).collect();
        let s = loglog_slope(&xs, &ys);
        assert!(s > 0.85 && s < 1.1, "slope {s}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn slope_rejects_zeros() {
        loglog_slope(&[1.0, 2.0], &[0.0, 1.0]);
    }

    #[test]
    fn table_renders_all_cells() {
        let t = render_table("t", &["a", "b"], &[vec!["1".into(), "22".into()]]);
        assert!(t.contains("| 1 |"));
        assert!(t.contains("22"));
    }
}
