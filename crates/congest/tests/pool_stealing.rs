//! Regression tests for the pool executor's frontier work stealing.
//!
//! A star topology makes the hub's chunk far heavier than every spoke's:
//! the hub hears every spoke each round. With the star's whole frontier
//! scheduled every round, the adaptive chunk size cuts it into several
//! chunks per deque, so a worker that drains its own deque steals to stay
//! busy. These tests pin down that (a) stealing actually happens on such
//! a frontier, read from `RunStats::steals`, and (b) none of it perturbs
//! results: outputs and model-level stats stay bit-identical to the
//! serial engine.

use dapsp_congest::{
    Config, ExecutorKind, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port, Report,
    Simulator, Topology,
};

/// A gossip token (origin, hops); 32 bits like a real CONGEST message.
#[derive(Clone, Debug)]
struct Token {
    origin: u32,
    hops: u32,
}
impl Message for Token {
    fn bit_size(&self) -> u32 {
        32
    }
}

/// All-pairs gossip: adopt the first arrival per origin, re-flood one
/// adopted origin per round. Keeps the hub node active (and its chunk
/// heavy) for many consecutive rounds.
struct Gossip {
    dist: Vec<u32>,
    queue: std::collections::VecDeque<Token>,
}
impl NodeAlgorithm for Gossip {
    type Message = Token;
    type Output = Vec<u32>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
        self.dist[ctx.node_id() as usize] = 0;
        out.send_to_all(
            0..ctx.degree() as Port,
            Token {
                origin: ctx.node_id(),
                hops: 1,
            },
        );
    }

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
        for (_, m) in inbox.iter() {
            if self.dist[m.origin as usize] == u32::MAX {
                self.dist[m.origin as usize] = m.hops;
                self.queue.push_back(Token {
                    origin: m.origin,
                    hops: m.hops + 1,
                });
            }
        }
        if let Some(t) = self.queue.pop_front() {
            out.send_to_all(0..ctx.degree() as Port, t);
        }
    }

    fn is_active(&self) -> bool {
        !self.queue.is_empty()
    }

    fn into_output(self, _: &NodeContext<'_>) -> Vec<u32> {
        self.dist
    }
}

/// A star: node 0 adjacent to every other node.
fn star_topology(n: usize) -> Topology {
    let mut adj = vec![Vec::new(); n];
    for v in 1..n as u32 {
        adj[0].push(v);
        adj[v as usize].push(0);
    }
    Topology::from_adjacency(adj).expect("valid star")
}

fn run(topo: &Topology, config: Config) -> Report<Vec<u32>> {
    let n = topo.num_nodes();
    Simulator::new(topo, config, |_| Gossip {
        dist: vec![u32::MAX; n],
        queue: std::collections::VecDeque::new(),
    })
    .run()
    .expect("run succeeds")
}

fn config(n: usize) -> Config {
    let base = Config::for_n(n);
    let bw = base.bandwidth_bits.max(32);
    base.with_bandwidth_bits(bw)
}

fn pool(workers: usize) -> ExecutorKind {
    ExecutorKind::Pool { workers }
}

#[test]
fn star_frontier_records_steals() {
    // 256 scheduled nodes are chunks of 32 at two workers: four per deque.
    let n = 256;
    let topo = star_topology(n);
    let serial = run(&topo, config(n));
    assert_eq!(serial.stats.chunks_stepped, 0);
    assert_eq!(serial.stats.steals, 0);

    // Steals are timing-dependent: a single run may (very rarely) finish
    // with every chunk stepped at home. At least one of the attempts must
    // observe a steal — over hundreds of hub-heavy rounds that is all but
    // certain.
    let mut stolen = 0u64;
    for _ in 0..20 {
        let pool = run(&topo, config(n).with_executor(pool(2)));
        assert_eq!(pool.outputs, serial.outputs, "outputs bit-identical");
        assert_eq!(pool.stats, serial.stats, "model-level stats identical");
        assert!(pool.stats.chunks_stepped > 0, "pool runs step chunks");
        assert!(pool.stats.steals <= pool.stats.chunks_stepped);
        stolen += pool.stats.steals;
        if stolen > 0 {
            break;
        }
    }
    assert!(stolen > 0, "no steal observed in 20 star runs at 2 workers");
}

#[test]
fn adaptive_chunks_stay_identical_at_higher_worker_counts() {
    let n = 96;
    let topo = star_topology(n);
    let serial = run(&topo, config(n));
    for workers in [2usize, 4] {
        let pool = run(&topo, config(n).with_executor(pool(workers)));
        assert_eq!(pool.outputs, serial.outputs, "workers={workers}: outputs");
        assert_eq!(pool.stats, serial.stats, "workers={workers}: stats");
        assert!(pool.stats.chunks_stepped >= pool.stats.rounds);
    }
}
