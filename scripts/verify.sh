#!/usr/bin/env bash
# Full local verification: format, build, every test suite, lints, docs,
# the trace CLI's self-checks and the repo benchmark's smoke run. All
# offline — the workspace vendors its few dependencies under vendor/, so no
# registry is needed.
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
# Debug build, so the engine's per-message `bit_size() <= message_budget`
# assertion is live in every suite (crates/core/tests/message_budget.rs
# runs every algorithm for exactly that). Includes tier-1's golden model
# costs (static, churned, faulty), the small-graph conformance sweeps, the
# four-way engine equivalence proptests and the allocation budget. Also
# the Table 1 golden (crates/bench/tests/table1.rs): every section of
# artifacts/table1.txt re-run and compared, about 24 s of this step in
# debug on 2 vCPUs, dominated by E1's round-robin distance vector.
cargo test --offline --workspace -q

echo "==> forced-stealing parity (DAPSP_POOL_CHUNK=1)"
# The only suites whose behaviour the chunk size can change, rerun with
# the work-stealing chunk forced to a single node — every scheduled node is
# its own chunk, so workers steal constantly and the bit-for-bit
# determinism contract is exercised under the scheduler's worst case: the
# engine equivalence proptests, the stealing regressions, and the serve
# layer's readers-vs-republish stress (its control plane runs on the pool).
DAPSP_POOL_CHUNK=1 cargo test --offline -q -p dapsp-congest \
    --test engine_equivalence --test pool_stealing
DAPSP_POOL_CHUNK=1 cargo test --offline -q -p dapsp-serve --test swap_consistency

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

echo "==> dapsp-inspect --smoke"
# Self-check of the trace subsystem end to end: a lossy traced BFS
# records kernel-attributed events, a churned trace carries its
# TopologyChange events, a serial-vs-pool stream diff under 15% loss is
# bit-identical, and the Perfetto export is well-formed.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- --smoke

echo "==> dapsp-inspect summary over a churned trace"
# A churned APSP run under the trace recorder: the summary must render
# the plan's TopologyChange events in a full-size summary.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    summary --workload apsp --family regular6 --n 32 --churn 2 --threads 2

echo "==> benchmark/run.sh --smoke"
# The repo benchmark (BENCHMARK.json) end to end on quarter-size graphs,
# about 7 s: its own out-of-workspace package builds against the public
# APIs of crates/{graph,congest,core,serve}, all five workloads run, and
# every built or published table is compared in full with the oracle.
# It is the only thing in the repository that measures wall time.
bash benchmark/run.sh --smoke

# ROADMAP's source-line metric, printed (not gated) so the line budget is
# visible on every run.
src_lines=$(find crates/*/src src -name '*.rs' | xargs cat | wc -l)
echo "OK: fmt + build + tests + forced-stealing parity + clippy + docs + inspect smokes + benchmark smoke all green; source lines: $src_lines"
