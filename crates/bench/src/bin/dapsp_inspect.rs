//! `dapsp-inspect` — run a workload under the structured trace recorder and
//! inspect the result.
//!
//! Subcommands:
//!
//! * `summary` — run a workload with a [`TraceRecorder`] attached and print
//!   the per-kernel traffic breakdown, the most congested undirected edges,
//!   the wave-delay histogram, and the termination story.
//! * `diff` — run the same workload on the serial executor and the worker
//!   pool and line-diff the two JSONL event streams (they must be
//!   bit-identical; any divergence prints the first differing line).
//! * `perfetto` — export the trace as Chrome-trace/Perfetto JSON
//!   (`ui.perfetto.dev` / `chrome://tracing`).
//! * `--smoke` — self-check every subcommand on tiny instances.
//!
//! Workload flags:
//! `[--workload apsp|bfs|ssp] [--family FAM] [--n N] [--loss P]
//! [--threads T] [--seed S] [--churn K]`; `--churn K` applies a
//! [`TopologyPlan`] removing `K` edges and inserting one to the graph
//! before any workload runs — churn happens between runs, so the trace is
//! the static trace of the changed graph. With `apsp` the run is churned
//! APSP (`apsp::run_churned_on`, what a serving republish runs).
//! `perfetto` adds `[--out PATH] [--by node|kernel]`.

use std::process::ExitCode;

use dapsp_bench::print_table;
use dapsp_congest::{
    churned_topology, ExecutorKind, FaultPlan, SharedObserver, TopologyPlan, TraceEvent,
    TraceRecorder, TrackBy,
};
use dapsp_core::{apsp, bfs, churned_graph, ssp, Obs};
use dapsp_graph::{generators, Graph};

/// Builds the `n`-node member of `family` (deterministic seeds).
fn family_graph(family: &str, n: usize) -> Graph {
    match family {
        "path" => generators::path(n),
        "tree" => generators::random_tree(n, 12),
        // Near-regular random graph: a Watts–Strogatz rewired ring, every
        // degree 6 before rewiring and 6 on average after.
        "regular6" => generators::watts_strogatz(n, 3, 0.1, 12),
        "clique" => generators::complete(n),
        // A high-degree hub inside a small world: a Watts–Strogatz ring
        // with a star overlay from node 0 to every 8th node. The hub's
        // per-round work dwarfs its peers', which makes static per-worker
        // schedule splits lopsided — the imbalance the pool executor's
        // work stealing exists to absorb.
        "hub" => {
            let base = generators::watts_strogatz(n, 3, 0.1, 7);
            let mut b = Graph::builder(n);
            for (u, v) in base.edges() {
                b.add_edge(u, v).expect("valid edge");
            }
            for v in (8..n as u32).step_by(8) {
                b.add_edge(0, v).expect("valid edge");
            }
            b.build()
        }
        "ws" => generators::watts_strogatz(n, 3, 0.02, 42),
        "ba" => generators::barabasi_albert(n, 3, 42),
        other => panic!("unknown family {other}; expected path|tree|regular6|clique|hub|ws|ba"),
    }
}

/// The executor `--threads T` selects: serial for `T <= 1`, else the pool
/// with `T` workers.
fn executor_for(threads: usize) -> ExecutorKind {
    if threads <= 1 {
        ExecutorKind::Serial
    } else {
        ExecutorKind::Pool { workers: threads }
    }
}

/// One traced workload configuration.
#[derive(Clone, Debug)]
struct RunOpts {
    workload: String,
    family: String,
    n: usize,
    loss: f64,
    threads: usize,
    seed: u64,
    churn: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            workload: "apsp".into(),
            family: "regular6".into(),
            n: 48,
            loss: 0.0,
            threads: 1,
            seed: 7,
            churn: 0,
        }
    }
}

impl RunOpts {
    fn describe(&self) -> String {
        format!(
            "{}/{}/n={} loss={} threads={} churn={}",
            self.workload, self.family, self.n, self.loss, self.threads, self.churn
        )
    }

    /// The churn plan `--churn K` stands for: `K` edge removals
    /// (deterministic spread picks), then the first available non-edge
    /// inserted; empty without `--churn`.
    fn churn_plan(&self, graph: &dapsp_graph::Graph) -> TopologyPlan {
        let mut plan = TopologyPlan::new();
        if self.churn == 0 {
            return plan;
        }
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        let stride = (edges.len() / self.churn.max(1)).max(1);
        for i in 0..self.churn.min(edges.len()) {
            let (u, v) = edges[(i * stride) % edges.len()];
            plan = plan.with_remove(2, u, v);
        }
        'outer: for u in 0..self.n as u32 {
            for v in (u + 1)..self.n as u32 {
                if !edges.contains(&(u, v)) && !edges.contains(&(v, u)) {
                    plan = plan.with_insert(3, u, v);
                    break 'outer;
                }
            }
        }
        plan
    }
}

/// Runs the configured workload with a fresh [`TraceRecorder`] attached and
/// returns the recorder.
fn run_traced(opts: &RunOpts) -> SharedObserver<TraceRecorder> {
    let graph = family_graph(&opts.family, opts.n);
    let base = graph.to_topology();
    // `--churn` edits the graph before the run; the run sees one network.
    let plan = opts.churn_plan(&graph);
    let topology = churned_topology(&base, &plan)
        .unwrap_or_else(|e| panic!("{}: the churn plan fails: {e}", opts.describe()));
    let shared = SharedObserver::new(TraceRecorder::new());
    let handle = shared.observer();
    let obs = Obs::watching(&handle).with_executor(executor_for(opts.threads));
    let sources: Vec<u32> = vec![0, (opts.n / 2) as u32];
    // Loss rides in `obs`: every phase then runs on the reliable
    // transport and reports as `"<phase>:reliable"`.
    let faults = FaultPlan::uniform_loss(opts.loss, opts.seed);
    let obs = if opts.loss > 0.0 {
        obs.with_faults(&faults)
    } else {
        obs
    };
    let outcome = match opts.workload.as_str() {
        "bfs" => bfs::run_on_obs(&topology, 0, obs).map(|_| ()),
        "ssp" => ssp::run_on_obs(&topology, &sources, obs).map(|_| ()),
        "apsp" if opts.churn > 0 => apsp::run_churned_on(&base, &plan, obs).map(|_| ()),
        "apsp" => apsp::run_on_obs(&topology, obs).map(|_| ()),
        other => panic!("unknown workload {other}; expected apsp|bfs|ssp"),
    };
    outcome.unwrap_or_else(|e| panic!("{}: workload failed: {e}", opts.describe()));
    shared
}

fn cmd_summary(opts: &RunOpts) -> ExitCode {
    let shared = run_traced(opts);
    shared.with(|rec| {
        println!(
            "# trace summary: {} — {} events recorded, {} stored, {} overflowed\n",
            opts.describe(),
            rec.total_events(),
            rec.total_events() - rec.overflow(),
            rec.overflow()
        );
        let kernel_rows: Vec<Vec<String>> = rec
            .kernels()
            .iter()
            .map(|(mask, k)| {
                vec![
                    format!("{mask:#010b}"),
                    k.messages.to_string(),
                    k.bits.to_string(),
                    k.dropped.to_string(),
                    k.retransmits.to_string(),
                    k.acks.to_string(),
                ]
            })
            .collect();
        print_table(
            "per-kernel traffic (mask bit i = kernel i of the stack)",
            &["mask", "messages", "bits", "dropped", "retransmits", "acks"],
            &kernel_rows,
        );
        let edge_rows: Vec<Vec<String>> = rec
            .top_edges(10)
            .iter()
            .map(|((u, v), load)| vec![format!("{u}-{v}"), load.to_string()])
            .collect();
        print_table("top congested edges", &["edge", "messages"], &edge_rows);
        let hist = rec.wave_delay_histogram();
        let hist_rows: Vec<Vec<String>> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| vec![d.to_string(), c.to_string()])
            .collect();
        print_table(
            "wave-delay histogram (rounds after wave start)",
            &["delay", "arrivals"],
            &hist_rows,
        );
        let mut term_rows: Vec<Vec<String>> = Vec::new();
        for e in rec.events() {
            match e {
                TraceEvent::QuiescenceVotes {
                    round,
                    active,
                    passive,
                    shutdown,
                } => {
                    term_rows.push(vec![
                        format!("votes@{round}"),
                        format!("active={active} passive={passive} shutdown={shutdown}"),
                    ]);
                }
                TraceEvent::EarlyTermination { round, in_flight } => {
                    term_rows.push(vec![
                        format!("terminate@{round}"),
                        format!("in_flight={in_flight}"),
                    ]);
                }
                TraceEvent::Transport(t) => {
                    term_rows.push(vec![
                        "transport".into(),
                        format!(
                            "sim_rounds={} frames={} retransmits={} acks={} truncated={}",
                            t.sim_rounds,
                            t.frames_sent,
                            t.retransmissions,
                            t.acks_sent,
                            t.truncated_sends
                        ),
                    ]);
                }
                _ => {}
            }
        }
        // The full per-round vote series would swamp the table; keep the
        // first and last three vote rows around the termination story.
        if term_rows.len() > 8 {
            let tail = term_rows.split_off(term_rows.len() - 5);
            term_rows.truncate(3);
            term_rows.push(vec!["...".into(), "...".into()]);
            term_rows.extend(tail);
        }
        print_table("termination story", &["event", "detail"], &term_rows);
    });
    ExitCode::SUCCESS
}

fn cmd_diff(opts: &RunOpts) -> ExitCode {
    let serial = RunOpts {
        threads: 1,
        ..opts.clone()
    };
    let pool = RunOpts {
        threads: opts.threads.max(2),
        ..opts.clone()
    };
    let a = run_traced(&serial).with(|r| r.events_jsonl());
    let b = run_traced(&pool).with(|r| r.events_jsonl());
    diff_streams(
        &format!("serial ({})", serial.describe()),
        &a,
        &format!("pool ({})", pool.describe()),
        &b,
    )
}

/// Line-diffs two JSONL event streams; identical streams succeed.
fn diff_streams(label_a: &str, a: &str, label_b: &str, b: &str) -> ExitCode {
    if a == b {
        println!(
            "identical: {} events — {label_a} == {label_b}",
            a.lines().count()
        );
        return ExitCode::SUCCESS;
    }
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            println!("streams diverge at event {i}:");
            println!("  {label_a}: {la}");
            println!("  {label_b}: {lb}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "streams diverge in length: {label_a} has {} events, {label_b} has {}",
        a.lines().count(),
        b.lines().count()
    );
    ExitCode::FAILURE
}

fn cmd_perfetto(opts: &RunOpts, out: Option<&str>, by: TrackBy) -> ExitCode {
    let default_out = format!(
        "{}/../../target/TRACE_perfetto.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = out.unwrap_or(&default_out);
    let shared = run_traced(opts);
    let (json, events) = shared.with(|rec| (rec.to_perfetto(by), rec.total_events()));
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "wrote {out}: {} bytes from {events} events ({})",
        json.len(),
        opts.describe()
    );
    ExitCode::SUCCESS
}

/// Self-check: every subcommand on tiny instances; panics on failure.
fn cmd_smoke() -> ExitCode {
    // summary path: a lossy BFS records kernel masks, drops and waves.
    let opts = RunOpts {
        workload: "bfs".into(),
        family: "path".into(),
        n: 16,
        loss: 0.2,
        ..RunOpts::default()
    };
    let shared = run_traced(&opts);
    shared.with(|rec| {
        assert!(rec.total_events() > 0, "smoke: trace recorded no events");
        assert!(
            !rec.kernels().is_empty(),
            "smoke: no kernel attribution recorded"
        );
        assert!(
            rec.events().any(|e| matches!(e, TraceEvent::Transport(_))),
            "smoke: reliable run reported no transport summary"
        );
    });
    println!("smoke: summary recorded traced events with kernel attribution");

    // churned path: the plan applies before the run, so the churned trace
    // is the static trace of the changed graph — event for event, with no
    // message dropped.
    let opts = RunOpts {
        workload: "apsp".into(),
        family: "regular6".into(),
        n: 12,
        churn: 1,
        ..RunOpts::default()
    };
    let churned = run_traced(&opts).with(|r| r.events_jsonl());
    let graph = family_graph(&opts.family, opts.n);
    let after = churned_graph(&graph, &opts.churn_plan(&graph)).expect("smoke: the plan applies");
    let shared = SharedObserver::new(TraceRecorder::new());
    let handle = shared.observer();
    apsp::run_churned_on(
        &after.to_topology(),
        &TopologyPlan::new(),
        Obs::watching(&handle),
    )
    .expect("smoke: static run on the churned graph");
    let fixed = shared.with(|r| r.events_jsonl());
    assert_eq!(
        churned.lines().count(),
        fixed.lines().count(),
        "smoke: churned trace length differs from the churned graph's static trace"
    );
    assert!(
        churned == fixed,
        "smoke: churned trace differs from the churned graph's static trace"
    );
    assert!(
        !churned.contains("\"ev\":\"drop\""),
        "smoke: a churned run dropped a message"
    );
    assert!(
        cmd_summary(&opts) == ExitCode::SUCCESS,
        "smoke: churned summary failed"
    );
    println!("smoke: churned trace is the changed graph's static trace, no drops");

    // diff path: serial vs pool event streams must be bit-identical.
    let opts = RunOpts {
        workload: "apsp".into(),
        family: "path".into(),
        n: 12,
        loss: 0.15,
        threads: 2,
        ..RunOpts::default()
    };
    assert!(
        cmd_diff(&opts) == ExitCode::SUCCESS,
        "smoke: serial/pool trace streams diverged"
    );

    // perfetto path: the two-phase apsp run (the `T_1` BFS, then the
    // waves) exports balanced JSON whose every track runs forward in time,
    // so the waves are drawn after the BFS, not on top of it.
    let opts = RunOpts {
        workload: "apsp".into(),
        family: "tree".into(),
        n: 16,
        ..RunOpts::default()
    };
    let out = format!(
        "{}/../../target/TRACE_perfetto_smoke.json",
        env!("CARGO_MANIFEST_DIR")
    );
    assert!(cmd_perfetto(&opts, Some(&out), TrackBy::Kernel) == ExitCode::SUCCESS);
    let json = std::fs::read_to_string(&out).expect("smoke perfetto output");
    assert_eq!(
        json.matches(['{', '[']).count(),
        json.matches(['}', ']']).count(),
        "smoke: unbalanced perfetto JSON"
    );
    // Each exported event sits on its own line; metadata lines have no `ts`.
    let number = |line: &str, key: &str| -> Option<u64> {
        let at = line.find(key)? + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    let mut last: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
    for line in json.lines() {
        let Some(ts) = number(line, "\"ts\":") else {
            continue;
        };
        let track = (
            number(line, "\"pid\":").expect("pid"),
            number(line, "\"tid\":").expect("tid"),
        );
        let prev = last.insert(track, ts).unwrap_or(0);
        assert!(
            prev <= ts,
            "smoke: perfetto track {track:?} goes back from {prev} to {ts}: {line}"
        );
    }
    for phase in ["bfs round 1", "apsp:waves round 1"] {
        assert!(
            json.contains(&format!("\"name\":\"{phase}\"")),
            "smoke: no {phase} span"
        );
    }
    println!("smoke: the two-phase perfetto export runs forward on every track");
    println!("smoke: all inspect self-checks passed");
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: dapsp-inspect <summary|diff|perfetto|--smoke> \
[--workload apsp|bfs|ssp] [--family FAM] [--n N] [--loss P] [--threads T] [--seed S] \
[--churn K] [--out PATH] [--by node|kernel]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut opts = RunOpts::default();
    let mut out: Option<String> = None;
    let mut by = TrackBy::Node;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value; {USAGE}"))
                .clone()
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload"),
            "--family" => opts.family = value("--family"),
            "--n" => opts.n = value("--n").parse().expect("--n"),
            "--loss" => opts.loss = value("--loss").parse().expect("--loss"),
            "--threads" => opts.threads = value("--threads").parse().expect("--threads"),
            "--seed" => opts.seed = value("--seed").parse().expect("--seed"),
            "--churn" => opts.churn = value("--churn").parse().expect("--churn"),
            "--out" => out = Some(value("--out")),
            "--by" => {
                by = match value("--by").as_str() {
                    "node" => TrackBy::Node,
                    "kernel" => TrackBy::Kernel,
                    other => panic!("--by {other}: expected node|kernel"),
                }
            }
            other => panic!("unknown argument {other}; {USAGE}"),
        }
    }
    match cmd.as_str() {
        "summary" => cmd_summary(&opts),
        "diff" => cmd_diff(&opts),
        "perfetto" => cmd_perfetto(&opts, out.as_deref(), by),
        "--smoke" | "smoke" => cmd_smoke(),
        other => {
            eprintln!("unknown subcommand {other}; {USAGE}");
            ExitCode::FAILURE
        }
    }
}
