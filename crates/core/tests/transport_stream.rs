//! Integration checks tying the transport layer's end-of-run counters to
//! the observer stream: the retransmit and ack tags of the `Message` and
//! `Drop` events a [`TraceRecorder`] folds into [`TraceRecorder::kernels`]
//! must sum exactly to the `stats.transport` totals a pipeline run over
//! faults returns — every transmitted frame is either committed or dropped
//! at the engine's choke point, and both paths carry the frame's
//! [`TraceTags`](dapsp_congest::TraceTags). The traced
//! [`TraceEvent::Transport`] events carry each phase's summary whole.

use dapsp_congest::{
    FaultPlan, ObserverHandle, SharedObserver, TraceEvent, TraceRecorder, TrackBy, TransportSummary,
};
use dapsp_core::{apsp, bfs, dominating, Obs};
use dapsp_graph::generators;

/// A trace recorder watching one pipeline.
struct Watch {
    trace: SharedObserver<TraceRecorder>,
    handle: ObserverHandle,
}

fn watch() -> Watch {
    let trace = SharedObserver::new(TraceRecorder::new());
    let handle = trace.observer();
    Watch { trace, handle }
}

/// The digits that follow `key` in one exported Perfetto line.
fn field(line: &str, key: &str) -> String {
    let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect()
}

/// Runs a lossy reliable pipeline and asserts the stream's transport tags
/// reproduce the returned `stats.transport` exactly — and that the trace
/// carries the per-phase summaries whole, one `Transport` event per
/// reliable phase, right after its `RunEnd`.
fn assert_tags_match(watch: &Watch, rel: &TransportSummary, expected_phases: &[&str], tag: &str) {
    let traced: Vec<(String, TransportSummary)> = watch.trace.with(|t| {
        let (mut phase, mut prev) = (String::new(), None);
        let mut traced = Vec::new();
        for ev in t.events() {
            match ev {
                TraceEvent::RunStart { phase: p, .. } => phase = p.clone(),
                TraceEvent::Transport(summary) => {
                    assert!(
                        matches!(prev, Some(&TraceEvent::RunEnd { .. })),
                        "{tag}: Transport must follow its phase's RunEnd"
                    );
                    traced.push((phase.clone(), *summary));
                }
                _ => {}
            }
            prev = Some(ev);
        }
        traced
    });
    // Summed like sequential phases, the traced summaries are the
    // returned counters — all five fields, `sim_rounds` and
    // `truncated_sends` included.
    let folded = traced
        .iter()
        .fold(TransportSummary::default(), |acc, (_, t)| {
            TransportSummary {
                sim_rounds: acc.sim_rounds + t.sim_rounds,
                frames_sent: acc.frames_sent + t.frames_sent,
                retransmissions: acc.retransmissions + t.retransmissions,
                acks_sent: acc.acks_sent + t.acks_sent,
                truncated_sends: acc.truncated_sends + t.truncated_sends,
            }
        });
    assert_eq!(folded, *rel, "{tag}: traced Transport events");
    assert!(
        folded.sim_rounds > 0,
        "{tag}: sim_rounds travels in the trace"
    );
    watch.trace.with(|rec| {
        let retransmits: u64 = rec.kernels().values().map(|k| k.retransmits).sum();
        let acks: u64 = rec.kernels().values().map(|k| k.acks).sum();
        assert_eq!(
            retransmits, rel.retransmissions,
            "{tag}: retransmit tag sum != stats.transport total"
        );
        assert_eq!(
            acks, rel.acks_sent,
            "{tag}: ack tag sum != stats.transport total"
        );
    });
    // Each reliable phase reported one transport summary, labeled with its
    // phase.
    let phases: Vec<&str> = traced.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(phases, expected_phases, "{tag}: transport phase labels");
}

#[test]
fn bfs_transport_columns_sum_to_the_transport_stats() {
    let g = generators::watts_strogatz(24, 2, 0.1, 5);
    let watch = watch();
    let faults = FaultPlan::uniform_loss(0.25, 11);
    let obs = Obs::watching(&watch.handle).with_faults(&faults);
    let result = bfs::run_on_obs(&g.to_topology(), 0, obs).expect("reliable BFS survives 25% loss");
    let rel = result.stats.transport;
    assert!(result.reached_all(), "BFS must still reach everyone");
    assert!(
        rel.retransmissions > 0,
        "25% loss must force at least one retransmission"
    );
    assert!(rel.acks_sent > 0, "reliable BFS sends acks");
    assert_tags_match(&watch, &rel, &["bfs:reliable"], "bfs");
}

#[test]
fn apsp_pipeline_transport_columns_sum_across_phases() {
    let g = generators::watts_strogatz(16, 2, 0.1, 9);
    let watch = watch();
    let faults = FaultPlan::uniform_loss(0.2, 13);
    let obs = Obs::watching(&watch.handle).with_faults(&faults);
    let result = apsp::run_on_obs(&g.to_topology(), obs).expect("reliable APSP survives 20% loss");
    let rel = result.stats.transport;
    assert_eq!(result.next_hop.num_nodes(), 16, "full routing table");
    assert!(rel.retransmissions > 0, "loss must force retransmissions");
    // Two reliable phases (the T_1 BFS, then the wave phase), each
    // reporting its own transport summary; the `stats.transport` the
    // pipeline returns is their sum, and so are the stream's tags.
    assert_tags_match(
        &watch,
        &rel,
        &["bfs:reliable", "apsp:waves:reliable"],
        "apsp",
    );
    // Exported by kernel, each retransmit instant sits on the track of its
    // own frame's mask: the `k=` of the send it annotates.
    let json = watch.trace.with(|t| t.to_perfetto(TrackBy::Kernel));
    let (mut send_mask, mut tracks) = (String::new(), std::collections::BTreeSet::new());
    for line in json.lines() {
        if line.contains("\"name\":\"send ") {
            send_mask = field(line, " k=");
        } else if line.contains("\"name\":\"retransmit ") {
            assert_eq!(
                field(line, "\"tid\":"),
                send_mask,
                "retransmit track: {line}"
            );
            tracks.insert(send_mask.clone());
        }
    }
    assert!(
        tracks.len() > 1,
        "retransmits span several masks: {tracks:?}"
    );
}

#[test]
fn fault_free_reliable_run_reports_zero_retransmits() {
    let g = generators::path(12);
    let watch = watch();
    let faults = FaultPlan::new(3);
    let obs = Obs::watching(&watch.handle).with_faults(&faults);
    let rel = bfs::run_on_obs(&g.to_topology(), 0, obs)
        .expect("fault-free reliable BFS")
        .stats
        .transport;
    assert_eq!(rel.retransmissions, 0, "no loss, no retransmissions");
    assert_tags_match(&watch, &rel, &["bfs:reliable"], "fault-free");
}

/// FNV-1a over a recorded trace's JSON lines: the whole event stream —
/// every send's round, edge, bits, stream and kernel mask, every vote and
/// certificate — folded into one number.
fn trace_digest(run: impl FnOnce(Obs<'_>)) -> (u64, usize) {
    let trace = SharedObserver::new(TraceRecorder::with_capacity(1 << 20, 0));
    let handle = trace.observer();
    run(Obs::watching(&handle));
    trace.with(|t| {
        assert_eq!(t.overflow(), 0, "the digest covers every event");
        let jsonl = t.events_jsonl();
        let digest = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (digest, jsonl.lines().count())
    })
}

/// The event streams of Algorithm 1 and of the dominating-set convergecast
/// are pinned whole, so a change to how a kernel is hosted — its wire
/// format, emission order, kernel mask or votes — cannot pass unseen.
#[test]
fn trace_streams_are_pinned() {
    let apsp = trace_digest(|obs| {
        apsp::run_on_obs(&generators::grid(5, 5).to_topology(), obs).unwrap();
    });
    let dom = trace_digest(|obs| {
        let topology = generators::path(12).to_topology();
        let tree = bfs::run_on_obs(&topology, 0, Obs::none()).unwrap().tree;
        dominating::run_on_obs(&topology, &tree, 2, obs).unwrap();
    });
    assert_eq!(apsp, (8495813189937672484, 1334), "apsp on grid(5, 5)");
    assert_eq!(
        dom,
        (17299584788794231981, 48),
        "dominating k = 2 on path(12)"
    );
}

/// A two-phase apsp export (the `T_1` BFS, then the waves) lays its
/// phases end to end: the `rounds` track's timestamps never go back, and
/// the two phases' round spans do not overlap.
#[test]
fn multi_phase_perfetto_export_lays_phases_end_to_end() {
    let watch = watch();
    apsp::run_on_obs(
        &generators::path(8).to_topology(),
        Obs::watching(&watch.handle),
    )
    .unwrap();
    let json = watch.trace.with(|t| t.to_perfetto(TrackBy::Node));
    let mut last = 0u64;
    // Per phase, the first span start and the last span end.
    let mut spans: Vec<(String, u64, u64)> = Vec::new();
    for line in json
        .lines()
        .filter(|l| l.contains("\"ts\":") && l.contains("\"pid\":0,"))
    {
        let ts: u64 = field(line, "\"ts\":").parse().unwrap();
        assert!(
            ts >= last,
            "rounds track goes back from {last} to {ts}: {line}"
        );
        last = ts;
        if line.contains("\"ph\":\"B\"") {
            let name = line["{\"name\":\"".len()..]
                .split(" round ")
                .next()
                .unwrap();
            match spans.last_mut() {
                Some((phase, ..)) if phase == name => {}
                _ => spans.push((name.to_string(), ts, ts)),
            }
        } else if line.contains("\"ph\":\"E\"") {
            spans.last_mut().expect("a span is open").2 = ts;
        }
    }
    let phases: Vec<&str> = spans.iter().map(|(p, ..)| p.as_str()).collect();
    assert_eq!(phases, ["bfs", "apsp:waves"]);
    assert!(
        spans[0].2 <= spans[1].1,
        "bfs spans end at {} after the waves start at {}",
        spans[0].2,
        spans[1].1
    );
}
