//! Cross-crate integration tests: the paper's algorithms, the baselines,
//! the hard instances, and the simulator working together end to end.

use dapsp::baselines;
use dapsp::congest::Config;
use dapsp::core::{approx, apsp, metrics, ssp, three_halves, two_vs_four, Obs};
use dapsp::graph::{generators, lowerbound, reference, Graph};

fn zoo() -> Vec<(String, Graph)> {
    vec![
        ("path".into(), generators::path(18)),
        ("cycle".into(), generators::cycle(15)),
        ("grid".into(), generators::grid(4, 4)),
        ("complete".into(), generators::complete(8)),
        ("tree".into(), generators::balanced_tree(2, 3)),
        ("tadpole".into(), generators::tadpole(5, 14)),
        ("er".into(), generators::erdos_renyi_connected(22, 0.15, 3)),
        ("barbell".into(), generators::barbell(5, 3)),
    ]
}

/// Four fully independent implementations (Algorithm 1, sequential BFS,
/// two distance-vector variants, link-state) agree with each other and the
/// oracle on every distance.
#[test]
fn all_apsp_implementations_agree() {
    for (name, g) in zoo() {
        let oracle = reference::apsp(&g);
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        assert_eq!(a.distances, oracle, "{name}: algorithm 1");
        let seq = baselines::sequential_bfs(&g).expect("sequential");
        assert_eq!(seq.distances, oracle, "{name}: sequential");
        let eager = baselines::distance_vector_eager(&g).expect("eager");
        assert_eq!(eager.distances, oracle, "{name}: eager dv");
        let rr = baselines::distance_vector(&g).expect("round robin");
        assert_eq!(rr.distances, oracle, "{name}: round-robin dv");
        let ls = baselines::link_state(&g).expect("link state");
        assert_eq!(ls.distances, oracle, "{name}: link state");
    }
}

/// Algorithm 1 never loses to the unpipelined schedule, and wins big when
/// the diameter is large.
#[test]
fn pipelining_dominates_sequential_schedule() {
    for (name, g) in zoo() {
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        let seq = baselines::sequential_bfs(&g).expect("sequential");
        assert!(
            a.stats.rounds <= seq.stats.rounds + 10,
            "{name}: pebbled {} vs sequential {}",
            a.stats.rounds,
            seq.stats.rounds
        );
    }
    let long = generators::path(60);
    let a = apsp::run_on_obs(&long.to_topology(), Obs::none()).expect("apsp");
    let seq = baselines::sequential_bfs(&long).expect("sequential");
    assert!(a.stats.rounds * 5 < seq.stats.rounds);
}

/// The full approximation stack stays consistent with the exact stack.
#[test]
fn approx_stack_brackets_exact_stack() {
    for (name, g) in zoo() {
        let exact = metrics::diameter(&g).expect("exact diameter");
        for eps in [0.25, 1.0] {
            let apx = approx::diameter(&g, eps).expect("approx diameter");
            assert!(apx.value >= exact.value, "{name} eps={eps}");
            assert!(
                f64::from(apx.value) <= (1.0 + eps) * f64::from(exact.value) + 1e-9,
                "{name} eps={eps}: {} vs {}",
                apx.value,
                exact.value
            );
        }
        let th = three_halves::run(&g, 5).expect("3/2 approx");
        assert!(th.estimate >= exact.value, "{name}");
        assert!(
            f64::from(th.estimate) <= 1.5 * f64::from(exact.value) + 2.0,
            "{name}: {} vs {}",
            th.estimate,
            exact.value
        );
    }
}

/// S-SP answers are a sub-matrix of APSP answers, at a fraction of the
/// rounds for small source sets.
#[test]
fn ssp_is_a_cheap_submatrix_of_apsp() {
    let g = generators::grid(8, 8);
    let sources = vec![0u32, 27, 63];
    let full = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
    let part = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
    for v in 0..g.num_nodes() as u32 {
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(Some(part.dist[v as usize][i]), full.distances.get(v, s));
        }
    }
    assert!(part.stats.rounds * 2 < full.stats.rounds);
}

/// The hard instances from the lower-bound module flow through the whole
/// stack: oracle, exact distributed diameter, Algorithm 3, and the
/// certificate all tell one consistent story.
#[test]
fn lower_bound_instances_via_full_stack() {
    for k in [8usize, 20] {
        for intersecting in [false, true] {
            let (a, b) = lowerbound::canonical_inputs(k, intersecting);
            let inst = lowerbound::two_vs_three(k, &a, &b);
            let d = inst.expected_diameter;
            assert_eq!(reference::diameter(&inst.graph), Some(d));
            let exact = metrics::diameter(&inst.graph).expect("exact");
            assert_eq!(exact.value, d);
            let fast = two_vs_four::run(&inst.graph, 11).expect("algorithm 3");
            // Under the promise reading, diameter-2 instances must answer 2;
            // diameter-3 instances are outside the promise but must answer 4
            // (some probed tree has depth 3 > 2).
            assert_eq!(fast.claimed_diameter, if d == 2 { 2 } else { 4 });
            let n = inst.graph.num_nodes();
            let bw = Config::for_n(n).bandwidth_bits;
            assert!(exact.stats.rounds >= inst.bound.rounds(bw));
        }
    }
}

/// Disconnected graphs are rejected uniformly across the stack.
#[test]
fn disconnected_inputs_rejected_everywhere() {
    let mut b = Graph::builder(6);
    b.add_edge(0, 1).unwrap();
    b.add_edge(2, 3).unwrap();
    b.add_edge(4, 5).unwrap();
    let g = b.build();
    use dapsp::core::CoreError;
    assert_eq!(
        apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap_err(),
        CoreError::Disconnected
    );
    assert_eq!(
        ssp::run_on_obs(&g.to_topology(), &[0], Obs::none()).unwrap_err(),
        CoreError::Disconnected
    );
    assert_eq!(metrics::diameter(&g).unwrap_err(), CoreError::Disconnected);
    assert_eq!(
        approx::diameter(&g, 0.5).unwrap_err(),
        CoreError::Disconnected
    );
    assert_eq!(
        baselines::sequential_bfs(&g).unwrap_err(),
        CoreError::Disconnected
    );
    assert_eq!(
        baselines::link_state(&g).unwrap_err(),
        CoreError::Disconnected
    );
}

/// Message accounting: Algorithm 1's volume is Θ(n·m) while the exact
/// values it produces match — the "stored distributedly" reading of the
/// paper (each node holds its own row).
#[test]
fn apsp_message_volume_accounting() {
    let g = generators::erdos_renyi_connected(48, 0.12, 9);
    let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
    let r = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
    // Each of the n waves crosses each edge at most twice (once per
    // direction), plus pebble and T1 overhead.
    assert!(r.stats.messages <= 2 * n * m + 4 * n + 4 * m);
    // And at least once per edge for the wave part.
    assert!(r.stats.messages >= n * m / 2);
}

/// The serve layer end to end: build, apply one edge removal, and hold every
/// pair of the republished snapshot to the oracle on the mutated graph —
/// while the retained epoch-0 snapshot stays intact.
#[test]
fn route_service_republishes_the_mutated_oracle() {
    use dapsp::congest::TopologyPlan;
    use dapsp::core::churned_graph;
    use dapsp::serve::RouteService;
    let g = generators::grid(4, 4);
    let mut service = RouteService::build(&g).expect("build");
    let handle = service.handle();
    let epoch0 = handle.load();
    let plan = TopologyPlan::new().with_remove(2, 5, 6);
    service.apply(&plan).expect("apply");
    assert_eq!(handle.epoch(), 1);
    let oracle = reference::apsp(&churned_graph(&g, &plan).expect("plan applies"));
    for s in 0..16u32 {
        for d in 0..16u32 {
            assert_eq!(handle.dist(s, d), oracle.get(s, d), "d({s}, {d})");
            let path = handle.path(s, d).expect("still connected");
            assert_eq!(path.len() as u32 - 1, oracle.get(s, d).unwrap());
            assert!(!path
                .windows(2)
                .any(|w| (w[0], w[1]) == (5, 6) || (w[0], w[1]) == (6, 5)));
        }
    }
    assert!(handle.load().verify());
    assert_eq!(epoch0.epoch(), 0);
    assert!(epoch0.verify());
    assert_eq!(epoch0.dist(5, 6), Some(1));
}

/// What the churn goldens pin of a run: `(rounds, messages, bits,
/// scheduled_node_rounds, topo_events, dropped)`.
type ChurnCost = (u64, u64, u64, u64, u64, u64);

fn churn_cost(s: &dapsp::congest::RunStats) -> ChurnCost {
    (
        s.rounds,
        s.messages,
        s.bits,
        s.scheduled_node_rounds,
        s.topo_events,
        s.dropped,
    )
}

/// ws(64) with no change: the static distance vector every churned run
/// is, on whatever graph its plan leaves behind.
const QUIET: ChurnCost = (63, 15939, 207207, 3448, 0, 0);

/// The model cost of churned APSP is pinned: on ws(64) every change shape
/// — quiet, remove, insert, the same remove late in the plan, crash, an
/// eight-edge batch — must report exactly these counters (the plan
/// applies before the run, so each is the static distance vector on the
/// post-change graph, and the remove costs the same at round 1 and round
/// 80), every table equals the oracle on the mutated graph, and the
/// parent ports — the next hops a republished table serves — hash to
/// exactly these FNV-1a digests, so a tie-break drift cannot pass as
/// "another valid next hop".
#[test]
fn churned_apsp_model_cost_is_pinned() {
    use dapsp::congest::TopologyPlan;
    use dapsp::core::churned_graph;
    use dapsp::graph::INFINITY;
    let g = generators::watts_strogatz(64, 3, 0.05, 7);
    assert!(g.has_edge(0, 1) && !g.has_edge(0, 4));
    let batch = (0..8).fold(TopologyPlan::new(), |plan, x| {
        assert!(g.has_edge(x, x + 1));
        plan.with_remove(80, x, x + 1)
    });
    let golden: [(TopologyPlan, ChurnCost, u64); 6] = [
        (TopologyPlan::new(), QUIET, 934717125428986514),
        (
            TopologyPlan::new().with_remove(1, 0, 1),
            (63, 15845, 205985, 3445, 1, 0),
            14411273942866568309,
        ),
        (
            TopologyPlan::new().with_insert(1, 0, 4),
            (63, 16098, 209274, 3476, 1, 0),
            18212649916316317422,
        ),
        (
            TopologyPlan::new().with_remove(80, 0, 1),
            (63, 15845, 205985, 3445, 1, 0),
            14411273942866568309,
        ),
        (
            TopologyPlan::new().with_crash(80, 5),
            (62, 15201, 197613, 3318, 1, 0),
            1627541545139565945,
        ),
        (batch, (63, 15096, 196248, 3364, 8, 0), 14522964168363000271),
    ];
    for (plan, want, want_ports) in golden {
        let r = apsp::run_churned_on(&g.to_topology(), &plan, Obs::none()).expect("churned apsp");
        assert_eq!(churn_cost(&r.stats), want, "model cost under {plan:?}");
        let ports = r
            .parent_port
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &p| {
                p.to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            });
        assert_eq!(ports, want_ports, "parent-port digest under {plan:?}");
        let oracle = reference::apsp(&churned_graph(&g, &plan).expect("plan applies"));
        for v in (0..64u32).filter(|&v| r.present[v as usize]) {
            for root in 0..64u32 {
                assert_eq!(
                    r.dist_to(v, root),
                    oracle.get(v, root).or(Some(INFINITY)),
                    "d({v}, {root}) under {plan:?}"
                );
            }
        }
    }
}

/// The model cost of the event kind the APSP golden misses: crash →
/// re-join → re-insert-every-edge. The plan ends on the original graph,
/// so the run is the quiet row's, event count aside, and every result
/// equals the original graph's oracle. The name is this tier-1 golden's
/// id; churn runs only through APSP, whose `conformance_small_graphs`
/// sweeps check every root a churned BFS or source set could name.
#[test]
fn churned_bfs_ssp_and_rejoin_model_cost_is_pinned() {
    use dapsp::congest::TopologyPlan;
    use dapsp::core::churned_graph;
    let g = generators::watts_strogatz(64, 3, 0.05, 7);
    assert_eq!(g.neighbors(5), &[2, 3, 4, 6, 7, 8]);
    let plan = g.neighbors(5).iter().fold(
        TopologyPlan::new().with_crash(80, 5).with_join(120, 5),
        |plan, &x| plan.with_insert(121, 5, x),
    );
    let r = apsp::run_churned_on(&g.to_topology(), &plan, Obs::none()).expect("churned apsp");
    let (rounds, messages, bits, scheduled, _, dropped) = QUIET;
    assert_eq!(
        churn_cost(&r.stats),
        (rounds, messages, bits, scheduled, 8, dropped),
        "model cost under {plan:?}"
    );
    assert_eq!(r.present, vec![true; 64]);
    assert_eq!(churned_graph(&g, &plan).expect("plan applies"), g);
    let oracle = reference::apsp(&g);
    for v in 0..64u32 {
        for root in 0..64u32 {
            assert_eq!(
                r.dist_to(v, root),
                oracle.get(v, root),
                "d({v}, {root}) under {plan:?}"
            );
        }
    }
}

/// The model cost of the reliable stack is pinned: `bfs`, `ssp` and `apsp`
/// `run_on_obs` with an `Obs` carrying each of three
/// [`FaultPlan`](dapsp::congest::FaultPlan)s — quiet, lossy, and lossy with
/// a crash window — on two small graphs. Per cell the engine counters
/// `(rounds, messages, bits, dropped)` and the transport counters
/// `(frames_sent, retransmissions, acks_sent)` are exact, the horizon
/// truncated nothing,
/// every distance equals its sequential oracle, and the 2-worker pool
/// reproduces the serial run.
#[test]
fn faulty_model_cost_is_pinned() {
    use dapsp::congest::{ExecutorKind, FaultPlan, RunStats};
    use dapsp::core::{bfs, Obs};
    type FaultyCost = ((u64, u64, u64, u64), (u64, u64, u64));
    fn cost(what: &str, s: &RunStats) -> FaultyCost {
        let rel = &s.transport;
        assert_eq!(rel.truncated_sends, 0, "{what}: horizon too short");
        (
            (s.rounds, s.messages, s.bits, s.dropped),
            (rel.frames_sent, rel.retransmissions, rel.acks_sent),
        )
    }
    let plans = [
        FaultPlan::uniform_loss(0.0, 5),
        FaultPlan::uniform_loss(0.1, 5),
        FaultPlan::uniform_loss(0.1, 5).with_crash(4, 6, 14),
    ];
    // Per graph, per plan: bfs from 0, ssp from `sources`, apsp.
    let golden = [
        (
            "ws",
            generators::watts_strogatz(20, 2, 0.1, 7),
            [2, 9, 17],
            [
                [
                    ((12, 1040, 4017, 0), (560, 0, 480)),
                    ((48, 4080, 16711, 0), (2160, 0, 1920)),
                    ((136, 11040, 51929, 0), (5600, 0, 5440)),
                ],
                [
                    ((24, 1008, 4280, 116), (725, 136, 641)),
                    ((96, 3869, 17663, 437), (2805, 518, 2476)),
                    ((250, 9294, 51799, 1011), (7040, 1312, 6325)),
                ],
                [
                    ((29, 997, 4205, 145), (731, 168, 618)),
                    ((108, 3740, 17164, 525), (2768, 619, 2356)),
                    ((259, 9197, 51423, 1063), (6996, 1374, 6232)),
                ],
            ],
        ),
        (
            "grid",
            generators::grid(4, 4),
            [0, 5, 15],
            [
                [
                    ((14, 720, 2703, 0), (384, 0, 336)),
                    ((54, 2736, 10815, 0), (1440, 0, 1296)),
                    ((112, 5472, 23589, 0), (2784, 0, 2688)),
                ],
                [
                    ((24, 590, 2571, 69), (477, 91, 414)),
                    ((91, 2128, 10083, 249), (1772, 355, 1542)),
                    ((194, 3872, 21542, 436), (3452, 674, 3065)),
                ],
                [
                    ((25, 536, 2329, 80), (442, 102, 364)),
                    ((103, 2196, 10257, 313), (1821, 415, 1544)),
                    ((195, 3837, 21320, 461), (3413, 681, 3006)),
                ],
            ],
        ),
    ];
    for (name, g, sources, want) in &golden {
        let topo = g.to_topology();
        let bfs_oracle = reference::bfs(g, 0);
        let ssp_oracle = reference::s_shortest_paths(g, sources);
        let apsp_oracle = reference::apsp(g);
        for (plan, want) in plans.iter().zip(want) {
            let run = |executor| {
                let obs = Obs::none().with_executor(executor).with_faults(plan);
                let what = format!("{name} under {plan:?} on {executor:?}");
                let b = bfs::run_on_obs(&topo, 0, obs).expect("bfs");
                assert_eq!(b.dist, bfs_oracle, "bfs, {what}");
                let s = ssp::run_on_obs(&topo, sources, obs).expect("ssp");
                for (v, row) in s.dist.iter().enumerate() {
                    for (i, &d) in row.iter().enumerate() {
                        assert_eq!(d, ssp_oracle[i][v], "ssp d({v}, {}), {what}", sources[i]);
                    }
                }
                let a = apsp::run_on_obs(&topo, obs).expect("apsp");
                assert_eq!(a.distances, apsp_oracle, "apsp, {what}");
                let pinned = [
                    cost(&what, &b.stats),
                    cost(&what, &s.stats),
                    cost(&what, &a.stats),
                ];
                // Everything else a run reports — the full transport
                // counters ride in `stats` — for serial ≡ pool.
                let rest = (
                    [b.stats, s.stats, a.stats],
                    (s.next_hop, s.d0, a.next_hop, a.girth_candidate),
                );
                (pinned, rest)
            };
            let serial = run(ExecutorKind::Serial);
            assert_eq!(&serial.0, want, "{name} under {plan:?}");
            assert_eq!(
                run(ExecutorKind::Pool { workers: 2 }),
                serial,
                "{name}: pool"
            );
        }
    }
}

/// The model cost of the static algorithms is pinned: Algorithm 1,
/// Algorithm 2, the `(×, 1+ε)` eccentricities and the single-root BFS must
/// report exactly these counters on a near-regular, a hub and a grid graph
/// (the kernel may change how it finds the next send, never which one is
/// sent), and every result equals its sequential oracle.
#[test]
fn static_model_cost_is_pinned() {
    use dapsp::congest::RunStats;
    use dapsp::core::{bfs, dominating};
    type Cost = (u64, u64, u64, u64, u64);
    fn cost(s: &RunStats) -> Cost {
        (
            s.rounds,
            s.messages,
            s.bits,
            s.max_messages_per_round,
            s.scheduled_node_rounds,
        )
    }
    /// Two runs back to back: counts add, the per-round peak is the larger.
    fn oplus(a: Cost, b: Cost) -> Cost {
        (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3.max(b.3), a.4 + b.4)
    }
    let sources = [3u32, 17, 18, 40, 63];
    // Per graph: apsp, ssp (+ relaxations), eccentricities (+ dom_size), bfs.
    let golden = [
        (
            "ws",
            generators::watts_strogatz(64, 3, 0.05, 7),
            (209, 17371, 257665, 171, 7493),
            ((40, 2053, 23551, 258, 941), 3),
            ((50, 2121, 23994, 237, 1077), 5),
            (10, 329, 2191, 74, 222),
        ),
        (
            "ba",
            generators::barabasi_albert(64, 3, 7),
            (196, 16662, 247141, 224, 7611),
            ((19, 2050, 23309, 325, 834), 18),
            ((32, 5845, 72077, 368, 1619), 17),
            (4, 328, 2183, 224, 201),
        ),
        (
            "grid",
            generators::grid(8, 8),
            (212, 7350, 108493, 64, 4350),
            ((59, 1106, 12047, 98, 881), 0),
            ((73, 1652, 18830, 164, 1127), 8),
            (15, 175, 959, 22, 183),
        ),
    ];
    for (name, g, want_apsp, want_ssp, want_ecc, want_bfs) in golden {
        let a = apsp::run_on_obs(&g.to_topology(), Obs::none()).expect("apsp");
        assert_eq!(cost(&a.stats), want_apsp, "{name}: apsp model cost");
        assert_eq!(a.distances, reference::apsp(&g), "{name}: apsp");

        let s = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none()).expect("ssp");
        assert_eq!(
            (cost(&s.stats), s.relaxations),
            want_ssp,
            "{name}: ssp model cost"
        );
        let oracle = reference::s_shortest_paths(&g, &sources);
        for (v, row) in s.dist.iter().enumerate() {
            for (i, &d) in row.iter().enumerate() {
                assert_eq!(d, oracle[i][v], "{name}: d({v}, {})", sources[i]);
            }
        }

        let e = approx::eccentricities(&g, 1.0).expect("eccentricities");
        // Theorem 4's pipeline is the dominating set over T_1 followed by
        // a DOM-SP whose T_1 and D₀ are that same preamble, so it costs
        // exactly what the two standalone runs cost together.
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).expect("T_1");
        let dom = dominating::run_on_obs(&g.to_topology(), &t1.tree, e.k, Obs::none())
            .expect("dominating set");
        let dom_sp =
            ssp::run_on_obs(&g.to_topology(), &dom.member_ids(), Obs::none()).expect("DOM-SP");
        assert_eq!(
            (cost(&e.stats), e.dom_size),
            (oplus(cost(&dom.stats), cost(&dom_sp.stats)), dom.size),
            "{name}: eccentricities = dominating set ⊕ DOM-SP"
        );
        assert_eq!(
            (cost(&e.stats), e.dom_size),
            want_ecc,
            "{name}: eccentricities model cost"
        );
        let exact = reference::eccentricities(&g).expect("connected");
        for (v, (&est, &ecc)) in e.estimates.iter().zip(&exact).enumerate() {
            assert!(ecc <= est && est <= 2 * ecc, "{name}: ecc({v})");
        }

        let b = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).expect("bfs");
        assert_eq!(cost(&b.stats), want_bfs, "{name}: bfs model cost");
        assert_eq!(b.dist, reference::bfs(&g, 0), "{name}: bfs");
    }
}

/// The composites build `T_1` (and, where Algorithm 2 follows, `D₀`) once
/// and run Algorithm 1's waves or Algorithm 2's growth over it. Each is
/// pinned at its cost from when every S-SP and APSP call built its own:
/// the cost now is that minus the `BFS_1` and depth max-aggregation runs
/// it no longer repeats, both measured live here.
#[test]
fn composites_charge_t1_and_d0_once() {
    use dapsp::congest::RunStats;
    use dapsp::core::aggregate::{self, AggOp};
    use dapsp::core::{bfs, girth, girth_approx};
    type Composite = (&'static str, fn(&Graph) -> RunStats);
    let composites: [Composite; 4] = [
        ("girth", |g| girth::run(g).expect("girth").stats),
        ("girth_approx", |g| {
            girth_approx::run(g, 0.5).expect("girth_approx").stats
        }),
        ("three_halves", |g| {
            three_halves::run(g, 5).expect("three_halves").stats
        }),
        ("two_vs_four", |g| {
            two_vs_four::run(g, 7).expect("two_vs_four").stats
        }),
    ];
    // Per graph and composite: (rounds, messages) before, then how many
    // BFS_1, max-aggregation and |DOM| sum-aggregation runs were dropped.
    // - girth: Algorithm 1 reuses the Claim 1 BFS (no D₀ involved);
    // - girth_approx: every probe's DOM-SP (2 probes on ws, 3 on grid),
    //   and every probe's |DOM| census; on the star, a tree, the D₀
    //   aggregation now runs before the tree test where it used to be
    //   skipped: −1 dropped;
    // - three_halves: the dominating-set branch on ws and grid (its
    //   Corollary 4 and DOM-SP preambles, and its |DOM| census), the
    //   sampled branch on the star (its own T_1 and both S-SP preambles);
    // - two_vs_four: the probes' S-SP reuses T_1 and charges its D₀ once.
    type Row = ((u64, u64), (i64, i64, i64));
    let golden: [(&str, Graph, [Row; 4]); 3] = [
        (
            "ws",
            generators::watts_strogatz(64, 3, 0.05, 7),
            [
                ((255, 17952), (1, 0, 0)),
                ((268, 23443), (2, 2, 2)),
                ((144, 4931), (2, 2, 1)),
                ((90, 3275), (1, 0, 0)),
            ],
        ),
        (
            "grid",
            generators::grid(8, 8),
            [
                ((283, 7777), (1, 0, 0)),
                ((512, 16625), (3, 3, 3)),
                ((215, 2828), (2, 2, 1)),
                ((131, 1211), (1, 0, 0)),
            ],
        ),
        (
            "star",
            generators::star(64),
            [
                ((4, 252), (0, 0, 0)),
                ((4, 252), (0, -1, 0)),
                ((44, 2646), (3, 2, 0)),
                ((13, 756), (1, 0, 0)),
            ],
        ),
    ];
    for (name, g, rows) in &golden {
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).expect("T_1");
        let depths: Vec<u64> = t1.dist.iter().map(|&d| u64::from(d)).collect();
        let d0 =
            aggregate::run_on_obs(&g.to_topology(), &t1.tree, &depths, AggOp::Max, Obs::none())
                .expect("D₀");
        let flags = vec![1; g.num_nodes()];
        let census =
            aggregate::run_on_obs(&g.to_topology(), &t1.tree, &flags, AggOp::Sum, Obs::none())
                .expect("|DOM| census");
        let unit = |s: &RunStats| (s.rounds as i64, s.messages as i64);
        let (bfs, max, sum) = (unit(&t1.stats), unit(&d0.stats), unit(&census.stats));
        for ((composite, run), &((rounds, messages), (bfs_runs, max_runs, sum_runs))) in
            composites.iter().zip(rows)
        {
            let want = (
                rounds as i64 - bfs_runs * bfs.0 - max_runs * max.0 - sum_runs * sum.0,
                messages as i64 - bfs_runs * bfs.1 - max_runs * max.1 - sum_runs * sum.1,
            );
            assert_eq!(unit(&run(g)), want, "{name}: {composite}");
        }
    }
    let branches: Vec<three_halves::Branch> = golden
        .iter()
        .map(|(_, g, _)| three_halves::run(g, 5).expect("three_halves").branch)
        .collect();
    use three_halves::Branch::{DominatingSet, Sampled};
    assert_eq!(branches, [DominatingSet, DominatingSet, Sampled]);
}

/// §8 end to end: the k-BFS census decides diameter <= k, cross-checked
/// against the oracle on mixed instances.
#[test]
fn kbfs_census_decides_bounded_diameter() {
    for (g, k) in [
        (generators::star(12), 2u32),
        (generators::grid(3, 3), 3),
        (generators::cycle(9), 4),
        (generators::path(7), 3),
    ] {
        let truth = reference::diameter(&g).unwrap();
        let r = apsp::run_truncated(&g, k).expect("kbfs");
        assert_eq!(r.covers_everything(), truth <= k, "k={k} D={truth}");
    }
}
