#!/usr/bin/env bash
# Full local verification: build, test, lint, docs, and a smoke run of the
# engine phase profiler. All offline — the workspace vendors its few
# dependencies under vendor/, so no registry is needed.
#
# Note: the workspace root is itself a package, so a bare `cargo test`
# would only run the root crate; every invocation below passes
# --workspace explicitly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> executor parity suites (serial vs pool vs reference)"
# Redundant with the workspace run above, but named explicitly so a log
# reader can see the determinism suites ran: the four-way engine
# equivalence proptests (including the sparse-vs-dense active-set
# workloads and the idle-protocol quiescence regressions), the pool
# lifecycle/stamp regressions, and the observer-stream decomposition
# invariants over the scheduled-nodes column.
cargo test --offline -q -p dapsp-congest --test engine_equivalence --test engine_pipeline --test obs_stream

echo "==> forced-stealing parity (DAPSP_POOL_CHUNK=1)"
# Reruns the four-way equivalence proptests and the stealing regressions
# with the work-stealing chunk size forced to a single node, the
# maximum-contention regime: every scheduled node is its own chunk, so
# workers steal constantly and the bit-for-bit determinism contract is
# exercised under the scheduler's worst case rather than its default
# adaptive chunking.
DAPSP_POOL_CHUNK=1 cargo test --offline -q -p dapsp-congest \
    --test engine_equivalence --test pool_stealing

echo "==> dapsp-inspect diff on the hub family (serial vs pool)"
# The hub family embeds a high-degree star in a Watts-Strogatz ring — the
# load-imbalance workload work stealing exists for. The diff runs APSP on
# the serial executor and the 2-thread pool with unit chunks and
# line-diffs the two trace JSONL event streams; any scheduler-induced
# divergence prints the first differing event and fails this step.
DAPSP_POOL_CHUNK=1 cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    diff --workload apsp --family hub --n 64 --threads 2

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> engine_profile --smoke --threads 1,2"
# Exercises the observer-instrumented engines end to end, including the
# worker-pool executor: pool rows assert threads spawn once per run, so a
# spawn-per-round regression fails this step. Writes to
# target/BENCH_profile_smoke.json, never the committed BENCH_profile.json.
cargo run --offline --release -p dapsp-bench --bin engine_profile -- --smoke --threads 1,2

echo "==> message-budget smoke (debug build, threads 1,2)"
# Same smoke in a debug build: debug_assertions arm the engine's
# per-message `bit_size() <= message_budget` check on both executors, so
# any overweight message type aborts this step (release builds compile
# the check out, which is why the run above does not cover it).
cargo run --offline -p dapsp-bench --bin engine_profile -- --smoke --threads 1,2

echo "==> small-graph conformance suite + kernel send-path gates"
# Redundant with the workspace run, named so the log shows they ran: every
# algorithm vs the sequential oracles on all 996 connected graphs with
# <= 7 nodes; the allocation budget (fails when a kernel — the wave stack
# or the repair kernel — allocates per send or per round instead of per
# node); and tier-1's golden model cost of the static algorithms (fails
# when a kernel changes which message it sends).
cargo test --offline -q -p dapsp-core --test conformance_small_graphs
cargo test --offline -q -p dapsp-core --test alloc_budget
cargo test --offline -q -p dapsp --test cross_crate static_model_cost_is_pinned

echo "==> engine_throughput --smoke --threads 1,2,4"
# Active-set scheduler end to end at scale: CI-sized instances of every
# family plus one 100k-node Watts-Strogatz scaling row, where the dense
# seed baseline and the sparse frontier engine must agree bit-for-bit
# on outputs and RunStats (the binary asserts it). Threads 4 is included
# so the smoke emits the same label|engine|executor|threads keys as the
# committed baseline's pool rows, for the gate below. Writes to
# target/BENCH_engine_smoke.json, never the committed BENCH_engine.json.
cargo run --offline --release -p dapsp-bench --bin engine_throughput -- --smoke --threads 1,2,4

echo "==> bench-regression gate vs committed BENCH_engine.json"
# Compares the smoke rows just written against the committed baseline on
# matching label|engine|executor|threads keys: any round- or
# message-count mismatch is a determinism break and fails outright; a
# msgs/s ratio worse than 3x fails as a performance regression (the
# margin absorbs CI-machine noise but catches an accidental return to
# dense per-node scheduling, which costs ~10x on the scaling row).
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- bench-gate BENCH_engine.json target/BENCH_engine_smoke.json

echo "==> dapsp-inspect --smoke"
# Self-check of the trace subsystem end to end: a lossy traced BFS
# records kernel-attributed events, a serial-vs-pool stream diff under
# 15% loss is bit-identical, the Perfetto export is well-formed, and the
# bench gate provably passes on identical rows and catches both an
# injected 10x regression and a round-count mismatch.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- --smoke

echo "==> fault_sweep --smoke --threads 1,2"
# Fault-injection smoke: reliable APSP/S-SP under a live FaultPlan
# adversary on the serial and pool executors. The binary itself asserts
# oracle exactness and cross-executor bit-identity, so a fault-layer or
# synchronizer regression fails this step. Writes to
# target/BENCH_faults_smoke.json, never the committed BENCH_faults.json.
cargo run --offline --release -p dapsp-bench --bin fault_sweep -- --smoke --threads 1,2

echo "==> churn conformance suite"
# Redundant with the workspace run, named so the log shows the churn
# gates ran. The sweeps: every connected graph with <= 6 nodes gets a
# mid-run edge delete (+ insert where one fits), and every one with <= 5
# nodes gets every node crashed, re-joined and re-connected; the repaired
# BFS/S-SP/APSP must equal the sequential oracle on the resulting graph,
# serial vs pool bit-identical. The repair queues: the shared level index
# against the per-port set + min-scan it replaced, as a differential
# proptest with ports growing past 64. Tier-1's goldens: the exact model
# cost of churned apsp/bfs/ssp under quiet, remove, insert, crash and
# re-join plans (fails when a repair-queue change alters a send).
cargo test --offline -q -p dapsp-core --test conformance_small_graphs -- \
    churned_runs_match_oracles_on_every_small_connected_graph \
    rejoined_nodes_are_repaired_back_on_every_small_connected_graph
cargo test --offline -q -p dapsp-core --lib kernel::repair::queue_tests
cargo test --offline -q -p dapsp --test cross_crate churned_

echo "==> churn_repair --threads 1,2 (DAPSP_POOL_CHUNK=1) vs committed BENCH_churn.json"
# The full churn-repair bench (0.2 s) under the forced-stealing regime:
# repaired APSP on the ws family is recomputed at 1 and 2 threads with
# unit chunks and asserted bit-identical, checked against the post-churn
# oracle, and the repair-vs-recompute and adaptive-fallback claims are
# asserted per row. Then a determinism gate: the rows, minus the host_*
# fields, must equal the committed BENCH_churn.json — every rounds_*,
# messages, repaired_node_rounds and recompute_fallbacks column. Writes
# to target/BENCH_churn_check.json, never the committed file.
DAPSP_POOL_CHUNK=1 cargo run --offline --release -p dapsp-bench --bin churn_repair -- \
    --threads 1,2 target/BENCH_churn_check.json
diff <(sed -E 's/,"host_[a-z_]+":[^,}]+//g' BENCH_churn.json) \
    <(sed -E 's/,"host_[a-z_]+":[^,}]+//g' target/BENCH_churn_check.json)

echo "==> serve conformance suite"
# Redundant with the workspace run, named so the log shows the serving
# layer's oracle check ran: the published RouteTable vs Floyd–Warshall
# on all 996 connected graphs with <= 7 nodes — every next-hop chain
# walked to its destination — then every graph churned and the
# republished epoch-1 snapshot held to the mutated-graph oracle.
cargo test --offline -q -p dapsp-serve --test serve_conformance

echo "==> serve swap-consistency stress (plain + DAPSP_POOL_CHUNK=1)"
# Reader threads hammer a ServeHandle while the background control
# plane republishes under them: every loaded snapshot must
# checksum-verify and answer exactly per its own epoch's graph, epochs
# monotone per handle. The second pass forces unit work-stealing chunks
# so the control plane's pool recomputes run in their most interleaved
# regime.
cargo test --offline -q -p dapsp-serve --test swap_consistency
DAPSP_POOL_CHUNK=1 cargo test --offline -q -p dapsp-serve --test swap_consistency

echo "==> serve_qps --smoke"
# Serving-layer throughput smoke: readers query during live
# recompute+swap windows, every answer oracle-checked per epoch (the
# binary asserts wrong == 0). Same instance and row keys as the
# committed baseline, fewer republishes. Writes to
# target/BENCH_serve_smoke.json, never the committed BENCH_serve.json.
cargo run --offline --release -p dapsp-bench --bin serve_qps -- --smoke

echo "==> bench-regression gate vs committed BENCH_serve.json"
# Gates the serve smoke rows against the committed baseline: a nonzero
# wrong count or correct != queries fails absolutely; a qps ratio worse
# than 3x fails same-host and warns cross-host.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- bench-gate BENCH_serve.json target/BENCH_serve_smoke.json

echo "==> dapsp-inspect summary over a churned trace"
# A churned APSP run under the trace recorder: the summary must render
# the plan's TopologyChange events (the inspect --smoke above asserts
# they are present and kernel attribution survives churn; this pass
# shows them in a full-size summary).
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    summary --workload apsp --family regular6 --n 32 --churn 2 --threads 2

echo "==> benchmark/run.sh --smoke"
# The repo benchmark (BENCHMARK.json) end to end on quarter-size graphs,
# about 7 s: its own out-of-workspace package builds against the public
# APIs of crates/{graph,congest,core,serve}, all five workloads run, and
# every built or published table is compared in full with the oracle.
bash benchmark/run.sh --smoke

echo "OK: fmt + build + tests + clippy + docs + profile, budget, conformance, throughput, bench-gate, inspect, fault, churn & serve smokes + benchmark smoke all green"
