//! The message path between `Outbox::send` and `Inbox::iter`, pinned on
//! all three engines (serial, pool, reference): a message is moved, never
//! cloned; an inbox reads in port order even when the arrivals reached the
//! arena out of it; and an outbox with two faults still reports the one
//! the validation order puts first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dapsp_congest::{
    Config, ExecutorKind, Inbox, Message, NodeAlgorithm, NodeContext, NodeId, Outbox, Port,
    ReferenceSimulator, SimError, Simulator, Topology,
};

#[derive(Clone, Copy, Debug)]
enum Engine {
    Serial,
    Pool,
    Reference,
}

const ENGINES: [Engine; 3] = [Engine::Serial, Engine::Pool, Engine::Reference];

/// Runs `init`'s algorithm over `topo` on `engine` (the pool with two
/// workers).
fn run_on<A>(
    engine: Engine,
    topo: &Topology,
    config: Config,
    init: impl FnMut(&NodeContext<'_>) -> A,
) -> Result<Vec<A::Output>, SimError>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
{
    let report = match engine {
        Engine::Serial => Simulator::new(topo, config, init).run(),
        Engine::Pool => {
            let config = config.with_executor(ExecutorKind::Pool { workers: 2 });
            Simulator::new(topo, config, init).run()
        }
        Engine::Reference => ReferenceSimulator::new(topo, config, init).run(),
    };
    report.map(|r| r.outputs)
}

fn path(n: usize) -> Topology {
    let adj = (0..n as NodeId)
        .map(|v| {
            let mut a = vec![];
            if v > 0 {
                a.push(v - 1);
            }
            if (v as usize) + 1 < n {
                a.push(v + 1);
            }
            a
        })
        .collect();
    Topology::from_adjacency(adj).unwrap()
}

/// A message that counts how often it is cloned.
#[derive(Debug)]
struct Counted {
    clones: Arc<AtomicUsize>,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted {
            clones: Arc::clone(&self.clones),
        }
    }
}

impl Message for Counted {
    fn bit_size(&self) -> u32 {
        1
    }
}

/// One wave from node 0; every send builds a fresh message (`send_to_all`
/// would clone by contract), every receipt reads the message by reference.
struct CountedFlood {
    clones: Arc<AtomicUsize>,
    reached: bool,
    received: usize,
}

impl CountedFlood {
    fn forward(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Counted>) {
        self.reached = true;
        for port in 0..ctx.degree() as Port {
            let clones = Arc::clone(&self.clones);
            out.send(port, Counted { clones });
        }
    }
}

impl NodeAlgorithm for CountedFlood {
    type Message = Counted;
    type Output = usize;
    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Counted>) {
        if ctx.node_id() == 0 {
            self.forward(ctx, out);
        }
    }
    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<Counted>,
        out: &mut Outbox<Counted>,
    ) {
        self.received += inbox.iter().count();
        if !self.reached && !inbox.is_empty() {
            self.forward(ctx, out);
        }
    }
    fn into_output(self, _: &NodeContext<'_>) -> usize {
        self.received
    }
}

/// The engines move a message from the sender's outbox to the receiver's
/// inbox; none of them clones it on the way.
#[test]
fn engines_move_messages_and_never_clone_them() {
    let topo = path(200);
    for engine in ENGINES {
        let clones = Arc::new(AtomicUsize::new(0));
        let received = run_on(engine, &topo, Config::for_n(200), |_| CountedFlood {
            clones: Arc::clone(&clones),
            reached: false,
            received: 0,
        })
        .unwrap();
        // Every node forwards once on each of its ports: 2m messages.
        assert_eq!(received.iter().sum::<usize>(), 2 * 199, "{engine:?}");
        assert_eq!(clones.load(Ordering::Relaxed), 0, "{engine:?}");
    }
}

/// A message carrying its sender's id.
#[derive(Clone, Debug, PartialEq)]
struct From(NodeId);

impl Message for From {
    fn bit_size(&self) -> u32 {
        8
    }
}

/// Every node announces its id on every port for three rounds and logs
/// each round's inbox exactly as `iter` yields it, cross-checking
/// `from_port` and `len` against the same view.
struct Roll {
    log: Vec<(u64, Vec<(Port, NodeId)>)>,
}

impl NodeAlgorithm for Roll {
    type Message = From;
    type Output = Vec<(u64, Vec<(Port, NodeId)>)>;
    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<From>, out: &mut Outbox<From>) {
        let seen: Vec<(Port, NodeId)> = inbox.iter().map(|(p, m)| (p, m.0)).collect();
        assert_eq!(seen.len(), inbox.len());
        for port in 0..ctx.degree() as Port {
            let listed = seen.iter().find(|&&(p, _)| p == port).map(|&(_, id)| id);
            assert_eq!(inbox.from_port(port).map(|m| m.0), listed);
        }
        if !seen.is_empty() {
            self.log.push((ctx.round(), seen));
        }
        if ctx.round() <= 3 {
            for port in 0..ctx.degree() as Port {
                out.send(port, From(ctx.node_id()));
            }
        }
    }
    fn is_active(&self) -> bool {
        self.log.len() < 3
    }
    fn into_output(self, _: &NodeContext<'_>) -> Self::Output {
        self.log
    }
}

/// A path with the edge 4–0 listed last at both ends gives node 4 its
/// highest port (2) to its lowest-id neighbour. Commits run in sender-id
/// order, so node 4's arrivals reach the arena as ports `[2, 0, 1]` — and
/// its inbox must still read `[0, 1, 2]`, each port naming the neighbour
/// behind it. Forty nodes, all scheduled every round, are three pool
/// chunks, each carrying its own range of the arrival arena.
#[test]
fn inbox_reads_in_port_order_when_arrivals_are_not() {
    let mut adj = path(40).to_adjacency();
    adj[4].push(0);
    adj[0].push(4);
    let topo = Topology::from_adjacency(adj).unwrap();
    let mut logs = vec![];
    for engine in ENGINES {
        let config = Config::for_n(40).with_max_rounds(8);
        let outputs = run_on(engine, &topo, config, |_| Roll { log: vec![] }).unwrap();
        let hub = &outputs[4];
        assert!(!hub.is_empty(), "{engine:?}: node 4 heard nothing");
        for (round, seen) in hub {
            assert_eq!(
                seen,
                &[(0, 3), (1, 5), (2, 0)],
                "{engine:?}, round {round}: node 4's inbox"
            );
        }
        // Node 0 gained port 1 towards node 4.
        assert!(outputs[0].iter().all(|(_, seen)| seen == &[(0, 1), (1, 4)]));
        logs.push(outputs);
    }
    assert_eq!(logs[0], logs[1], "serial vs pool");
    assert_eq!(logs[0], logs[2], "serial vs reference");
}

/// A message of a chosen size.
#[derive(Clone, Debug)]
struct Sized(u32);

impl Message for Sized {
    fn bit_size(&self) -> u32 {
        self.0
    }
}

/// Node 1 of a 3-path queues a fixed list of sends in round 1.
struct Faulty {
    sends: Vec<(Port, u32)>,
}

impl NodeAlgorithm for Faulty {
    type Message = Sized;
    type Output = ();
    fn on_round(&mut self, ctx: &NodeContext<'_>, _: &Inbox<Sized>, out: &mut Outbox<Sized>) {
        if ctx.node_id() == 1 && ctx.round() == 1 {
            for &(port, bits) in &self.sends {
                out.send(port, Sized(bits));
            }
        }
    }
    fn is_active(&self) -> bool {
        true // keep the clock running to round 1
    }
    fn into_output(self, _: &NodeContext<'_>) {}
}

/// An outbox with two faults reports the one the validation order puts
/// first — port range, then duplicate, then bandwidth, item by item —
/// identically on every engine.
#[test]
fn doubly_faulty_outbox_reports_the_first_error() {
    const FAT: u32 = 10_000;
    let bad_port = |port| SimError::InvalidPort {
        node: 1,
        port,
        degree: 2,
    };
    let duplicate = |port| SimError::DuplicateSend {
        node: 1,
        port,
        round: 1,
    };
    let cases: [(&[(Port, u32)], SimError); 5] = [
        // One item, bad port *and* oversized: the port range comes first.
        (&[(9, FAT)], bad_port(9)),
        // A repeated bad port never reaches the duplicate check.
        (&[(9, 1), (9, 1)], bad_port(9)),
        // Second item duplicate *and* oversized: duplicate comes first.
        (&[(0, 1), (0, FAT)], duplicate(0)),
        // Bad port queued before the duplicate: item order decides.
        (&[(0, 1), (7, 1), (0, 1)], bad_port(7)),
        // Duplicate queued before the bad port.
        (&[(1, 1), (1, 1), (7, 1)], duplicate(1)),
    ];
    let topo = path(3);
    for (sends, expected) in cases {
        for engine in ENGINES {
            let err = run_on(engine, &topo, Config::for_n(3), |_| Faulty {
                sends: sends.to_vec(),
            })
            .unwrap_err();
            assert_eq!(err, expected, "{engine:?}: {sends:?}");
        }
    }
}
