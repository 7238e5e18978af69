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
# Debug build, so every `debug_assert!` is live. The engine refuses a
# message wider than the bandwidth `B` with `SimError::BandwidthExceeded`
# in every profile (crates/core/tests/message_budget.rs runs every
# algorithm for exactly that). Includes tier-1's golden model
# costs (static, churned, faulty), the small-graph conformance sweeps, the
# four-way engine equivalence proptests and the allocation budget. Also
# the Table 1 golden (crates/bench/tests/table1.rs): every section of
# artifacts/table1.txt re-run and compared, about 24 s of this step in
# debug on 2 vCPUs, dominated by E1's round-robin distance vector.
cargo test --offline --workspace -q

echo "==> dapsp-inspect diff on the hub family (serial vs pool)"
# The hub family embeds a high-degree star in a Watts-Strogatz ring — the
# load-imbalance workload work stealing exists for. The diff runs APSP on
# the serial executor and the 2-thread pool and line-diffs the two trace
# JSONL event streams; any scheduler-induced divergence prints the first
# differing event and fails this step.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    diff --workload apsp --family hub --n 64 --threads 2

echo "==> dapsp-inspect diff of a churned run on the hub family"
# The same diff for the churned distance vector (the `GrowthKernel`'s
# distance-vector rule, the run behind every republish) on a 128-node hub
# whose star has degree 22: `--churn 2` applies its plan to the graph
# first, then the serial and 2-thread pool event streams must be
# identical. About 0.2 s.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    diff --workload apsp --family hub --n 128 --churn 2 --threads 2

echo "==> dapsp-inspect diff of an S-SP run on the hub family"
# The `GrowthKernel`'s S-SP rule on the same hub, serial against the
# 2-thread pool. Under 10 ms.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    diff --workload ssp --family hub --n 128 --threads 2

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> dapsp-inspect --smoke"
# Self-check of the trace subsystem end to end: a lossy traced BFS
# records kernel-attributed events, a churned APSP trace equals the static
# trace of the churned graph (same event count, no drops: the plan applies
# before the run), a serial-vs-pool stream diff under 15% loss is
# bit-identical, and the two-phase APSP Perfetto export is balanced JSON
# whose every track runs forward in time (the waves drawn after the BFS).
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- --smoke

echo "==> dapsp-inspect summary over a churned trace"
# A churned APSP run under the trace recorder, full size: `--churn 2`
# applies its plan to the graph before the run, on the pool executor.
cargo run --offline --release -p dapsp-bench --bin dapsp-inspect -- \
    summary --workload apsp --family regular6 --n 32 --churn 2 --threads 2

echo "==> benchmark/run.sh --smoke"
# The repo benchmark (BENCHMARK.json) end to end on quarter-size graphs,
# about 7 s: its own out-of-workspace package builds against the public
# APIs of crates/{graph,congest,core,serve}, all five workloads run, and
# every built or published table is compared in full with the oracle.
# It is the only thing in the repository that measures wall time.
bash benchmark/run.sh --smoke

# ROADMAP's two source-line metrics, printed (not gated) so the line budget
# is visible on every run: every line of crates/*/src and src, and the
# shipped lines, which leave out the in-source `#[cfg(test)]` modules (each
# runs from its column-0 attribute to the module's closing `}` at column 0).
# Beside them, the public surface: every `pub fn` of crates/*/src and src,
# and the `pub fn run*` entry points of crates/core/src.
src_lines=$(find crates/*/src src -name '*.rs' | xargs cat | wc -l)
shipped_lines=$(find crates/*/src src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]$/ { skip = 1 }
    !skip { n++ }
    skip && /^}$/ { skip = 0 }
    END { print n }')
pub_fns=$(grep -rE '^\s*pub fn' crates/*/src src | wc -l)
core_runs=$(grep -rE '^\s*pub fn run' crates/core/src | wc -l)
echo "OK: fmt + build + tests + clippy + docs + inspect smokes + benchmark smoke all green; source lines: $src_lines (shipped, without #[cfg(test)] modules: $shipped_lines); pub fn: $pub_fns (core pub fn run*: $core_runs)"
