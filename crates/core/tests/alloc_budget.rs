//! The allocation budget of the kernel layer's hot path.
//!
//! Algorithm 1 sends ≈ n·2m single-payload messages, so a kernel that
//! allocates per send (or per scheduled node-round) makes the allocation
//! count grow with the *message* count; one that reuses per-node scratch
//! allocates per node. Likewise Algorithm 2 needs `|S|` distances per node,
//! not `n`, and one allocation for all its port lists, not one per list
//! that fills; a churned run's queues and neighbour table are per-node
//! state, not per-round, and the table keeps one byte per (slot, port),
//! not two distances; and a cold build holds the run's two `n²` matrices,
//! which the kernels write their rows into and the result and the table
//! take over — not per-node row vectors next to a folded copy. This
//! binary installs a counting global allocator, which also tracks the
//! live heap's high-water mark, and holds all six to a budget. The
//! counters are process-wide, hence a single `#[test]` that measures
//! serially.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dapsp_congest::TopologyPlan;
use dapsp_core::routing::RouteTable;
use dapsp_core::{apsp, bfs, ssp, Obs};
use dapsp_graph::{generators, Graph};

// Statistics only: they publish no other data, so `Relaxed` suffices.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and their high-water mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    grow(bytes);
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the fresh allocation plus the free it stands for: the
        // two buffers of a copying realloc are both live for a moment.
        count(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`; passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How far above its level at the call the live heap rose while `f` ran.
fn peak_live<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// `(allocation calls, bytes requested)` made while `f` ran.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
        out,
    )
}

#[test]
fn kernel_hot_path_stays_within_its_allocation_budget() {
    // Algorithm 1: allocation calls per node, not per message. The three
    // graphs send 543, 1 209 and 1 987 messages per node. A kernel stack
    // that allocates once per flush or per adoption costs 276, 309 and
    // 2 060 calls per node on them; one that reuses its scratch 22, 30 and
    // 15 — 18, 23 and 13 once the host lends the kernels the engine's
    // outbox buffer instead of keeping one of its own and the stack's merge
    // scratch is only touched by rounds that need it, 16, 21 and 11 once a
    // forwarding wave kernel (two per node here: `T_1`'s and Algorithm
    // 1's) no longer allocates port queues it can never use, and 12, 17
    // and 7 now that both write into rows lent by the pipeline instead of
    // allocating a distance and a parent vector each. The budget of 64
    // separates the first two on every graph.
    let graphs: [(&str, Graph); 3] = [
        ("ws(128,3)", generators::watts_strogatz(128, 3, 0.05, 7)),
        ("ws(128,6)", generators::watts_strogatz(128, 6, 0.05, 7)),
        ("grid(32,32)", generators::grid(32, 32)),
    ];
    for (name, g) in &graphs {
        let n = g.num_nodes() as u64;
        let topology = g.to_topology();
        let (calls, _, result) = measure(|| apsp::run_on_obs(&topology, Obs::none()));
        let result = result.expect("apsp");
        println!(
            "{name}: {calls} calls = {} per node, {} messages",
            calls / n,
            result.stats.messages
        );
        assert!(
            calls <= 64 * n,
            "{name}: apsp::run_on made {calls} allocation calls for {} messages, \
             {} per node (budget 64)",
            result.stats.messages,
            calls / n
        );
    }

    // The single-root BFS behind every `T_1`: 4 173 calls on grid(32,32)
    // (4.1 per node) while each node's kernel allocated a one-cell
    // distance and a one-cell parent vector, 2 126 (2.1) with both cells in
    // the run's one-column matrices. The budget of 3 sits between.
    let (name, g) = &graphs[2];
    let n = g.num_nodes() as u64;
    let topology = g.to_topology();
    let (calls, _, result) = measure(|| bfs::run_on_obs(&topology, 0, Obs::none()));
    let messages = result.expect("bfs").stats.messages;
    println!(
        "bfs {name}: {calls} calls = {:.1} per node, {messages} messages",
        calls as f64 / n as f64
    );
    assert!(
        calls <= 3 * n,
        "{name}: bfs::run_on made {calls} allocation calls, {:.1} per node (budget 3)",
        calls as f64 / n as f64
    );

    // The host side of a cold build: the run's result plus its compaction
    // into a table, in bytes requested per pair. A nested
    // `Vec<Vec<Option<u32>>>` next-hop result flattened into a second
    // array requested 904 268 bytes (55.2 per pair), one flat matrix packed
    // in place 770 124 (47.0) — 702 048 (42.8) without the host's and the
    // serial executor's own message buffers, 674 440 (41.2) without the
    // forwarding kernels' unused port queues — and 534 688 (32.6) since the
    // kernels write into the matrices the result is made of, so no per-node
    // rows are allocated beside them. The budget of 36 sits between the
    // last two.
    let (name, g) = &graphs[0];
    let n = g.num_nodes() as u64;
    let topology = g.to_topology();
    let (_, bytes, table) = measure(|| {
        apsp::run_on_obs(&topology, Obs::none()).map(|result| RouteTable::from_apsp(result, 0))
    });
    table.expect("apsp");
    println!(
        "build {name}: {bytes} bytes = {:.1} n²",
        bytes as f64 / (n * n) as f64
    );
    assert!(
        bytes <= 36 * n * n,
        "{name}: apsp::run_on + from_apsp requested {bytes} bytes, {:.1} per pair (budget 36)",
        bytes as f64 / (n * n) as f64
    );

    // What a cold build holds at once: the live heap's high-water mark over
    // the same two calls, in `n²` words (4 bytes per pair). While the
    // kernels kept their own rows and the fold copied them into fresh
    // matrices, four `n²` tables were live at the fold: 1 148 144 bytes on
    // ws(256,3), 4.38 n² words. With the rows dealt out of the two matrices
    // the result then owns, the peak is 893 556 bytes, 3.41 n² words — two
    // tables plus `O(n·Δ)` run state (≈ 1.4 KB per node; 2.71 n² words on
    // ws(512,3), 2.35 on ws(1024,3)). The budget of 4 n² words sits
    // between.
    let g = generators::watts_strogatz(256, 3, 0.05, 7);
    let n = g.num_nodes() as u64;
    let topology = g.to_topology();
    let (peak, table) = peak_live(|| {
        apsp::run_on_obs(&topology, Obs::none()).map(|result| RouteTable::from_apsp(result, 0))
    });
    table.expect("apsp");
    println!(
        "cold build ws(256,3): peak {peak} live bytes = {:.2} n² words",
        peak as f64 / (4 * n * n) as f64
    );
    assert!(
        peak <= 4 * 4 * n * n,
        "ws(256,3): apsp::run_on + from_apsp held {peak} bytes at once, {:.2} n² words \
         (budget 4)",
        peak as f64 / (4 * n * n) as f64
    );

    // Algorithm 2: |S| state slots per node — with n slots per node the
    // growth alone requests 8·n² bytes; |S| = 8 measures 1 420 688
    // (1 880 436 with a `BTreeSet` per port, 2 295 476 while the host and
    // the executor also re-buffered messages, 1 587 532 while every node
    // allocated its own rows and the fold copied them) — and one queue
    // allocation per node. The
    // lists `L_i` as a set per port allocate a leaf whenever an empty list
    // gets its first id: 15 and 17 calls per node for the three phases
    // together, against 9 and 10 with the port-major bitset and 5 and 6
    // with the rows dealt out of the run's matrices. The budget of 8 sits
    // between the last two.
    const SSP_CALLS: u64 = 8;
    let g = &graphs[2].1;
    let n = g.num_nodes() as u64;
    let topology = g.to_topology();
    for count in [8u64, 48] {
        let sources: Vec<u32> = (0..count).map(|i| (i * n / count) as u32).collect();
        let (calls, bytes, result) = measure(|| ssp::run_on_obs(&topology, &sources, Obs::none()));
        let messages = result.expect("ssp").stats.messages;
        println!(
            "ssp grid(32,32) |S| = {count}: {calls} calls = {} per node, {bytes} bytes, \
             4·n² = {}, {messages} messages",
            calls / n,
            4 * n * n
        );
        assert!(
            bytes < 4 * n * n,
            "ssp::run_on with |S| = {count} on grid(32,32) requested {bytes} bytes \
             (budget 4·n² = {})",
            4 * n * n
        );
        assert!(
            calls <= SSP_CALLS * n,
            "ssp::run_on with |S| = {count} on grid(32,32) made {calls} allocation calls for \
             {messages} messages, {} per node (budget {SSP_CALLS})",
            calls / n
        );
    }

    // The churned path: a single-edge republish plan (remove an edge, put
    // it back), applied before the distance-vector run, allocates per node
    // too — the level index and the neighbour table are sized once and
    // recycled. Per-port level lists and per-port cache
    // rows cost 43, 45 and 36 calls per node on these graphs; the shared
    // index 24, 26, 27 (22, 24, 26 on the one-buffer send path, 18, 20, 22
    // with the rows dealt out of the run's matrices, 17, 19, 21 once the
    // plan stopped landing mid-run).
    let repair = |g: &Graph| {
        let (u, v) = g.edges().nth(5).expect("six edges");
        let plan = TopologyPlan::new()
            .with_remove(1, u, v)
            .with_insert(40, u, v);
        let topology = g.to_topology();
        let (calls, bytes, result) =
            measure(|| apsp::run_churned_on(&topology, &plan, Obs::none()));
        (calls, bytes, result.expect("churned apsp").stats.messages)
    };
    for (name, g) in [
        ("ws(128,3)", generators::watts_strogatz(128, 3, 0.05, 7)),
        ("ws(256,3)", generators::watts_strogatz(256, 3, 0.05, 7)),
        ("grid(16,16)", generators::grid(16, 16)),
    ] {
        let n = g.num_nodes() as u64;
        let (calls, bytes, messages) = repair(&g);
        println!(
            "repair {name}: {calls} calls = {} per node, {bytes} bytes, {messages} messages",
            calls / n
        );
        assert!(
            calls <= 32 * n,
            "{name}: apsp::run_churned_on made {calls} allocation calls for {messages} \
             messages, {} per node (budget 32)",
            calls / n
        );
    }

    // What a churned run holds at once, in `n²` words like the cold build
    // above. Each node's neighbour table keeps a row per slot: two `u32`s
    // per port (the last distance heard and the last one told) held
    // 4 008 120 bytes at the peak on ws(256,3), 15.29 n² words — 2·deg
    // rows per node beside its distance and parent rows. One byte per port
    // (the peer's clamped gap and a told bit) holds 1 255 608, 4.79 n²
    // words. The budget of 6 sits between.
    let g = generators::watts_strogatz(256, 3, 0.05, 7);
    let n = g.num_nodes() as u64;
    let topology = g.to_topology();
    let (peak, result) =
        peak_live(|| apsp::run_churned_on(&topology, &TopologyPlan::new(), Obs::none()));
    result.expect("churned apsp");
    println!(
        "churned ws(256,3): peak {peak} live bytes = {:.2} n² words",
        peak as f64 / (4 * n * n) as f64
    );
    assert!(
        peak <= 6 * 4 * n * n,
        "ws(256,3): apsp::run_churned_on held {peak} bytes at once, {:.2} n² words (budget 6)",
        peak as f64 / (4 * n * n) as f64
    );

    // A hub must not pay for sharing: the star's centre keeps one
    // 129-port block per live level. With per-port queues and rows the run
    // requested 924 838 bytes (7.1 KB per node); the budget is that plus
    // 10 % (measured: 897 922; 642 194 with the rows dealt out of the
    // run's matrices; 564 736 once the plan stopped landing mid-run;
    // 327 016 with one byte per neighbour cell).
    const PER_PORT_QUEUES: u64 = 924_838;
    let (calls, bytes, messages) = repair(&generators::star(130));
    println!("repair star(130): {calls} calls, {bytes} bytes, {messages} messages");
    assert!(
        bytes <= PER_PORT_QUEUES * 11 / 10,
        "star(130): apsp::run_churned_on requested {bytes} bytes (budget {})",
        PER_PORT_QUEUES * 11 / 10
    );
}
