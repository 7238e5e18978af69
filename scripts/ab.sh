#!/usr/bin/env bash
# A/B of two checkouts on the benchmark's workloads — the protocol every
# perf PR runs before it claims (or rules out) a change:
#
#   scripts/ab.sh PARENT_TREE CHANGE_TREE [--workload W|all] [--seed S] [--pairs K]
#                 [--claim METRIC]
#
# Builds benchmark/ in both trees, then runs
# `benchmark/run.sh --workload W --seed S --trace 0` K times per tree,
# alternately, flipping which tree goes first every pair (the host's speed
# drifts within minutes; pairing cancels the drift). `--workload all` does
# so for every workload of BENCHMARK.json in turn. For every end-to-end
# metric it prints both medians and quartiles, the change's difference with
# the parent's median as base, how many pairs the change won (ties count
# for neither side), and `ok` / `worse` against the metric's bound, then
# one `RESULT:` line over everything run. Exit status 1 if any metric of
# any workload is `worse` or a run failed operations. Writes nothing inside
# either tree except cargo's build output under benchmark/target.
#
# `--claim METRIC` also judges a claimed gain on METRIC (a metric of
# BENCHMARK.json) on every workload run: the change must win at least 9 in
# 10 of the pairs (ties count for neither side) AND beat the parent's
# median by more than the parent's quartile distance (q3 - q1). It prints
# `claim met` or `claim not met` with both numbers; the exit status stays
# the `ok` / `worse` one above.
set -euo pipefail

usage() {
    sed -n '2,6p' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workload=apsp_dense
seed=1
pairs=10
claim=
while [[ $# -gt 0 ]]; do
    case $1 in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --pairs) pairs=$2 ;;
        --claim) claim=$2 ;;
        *) usage ;;
    esac
    shift 2
done
command -v jq >/dev/null || { echo "ab.sh: jq is required" >&2; exit 2; }
if [[ -n $claim ]] && ! jq -e --arg m "$claim" '[.end_to_end[], .per_layer[]] | any(.name == $m)' \
    "$change/BENCHMARK.json" >/dev/null; then
    echo "ab.sh: no metric $claim in BENCHMARK.json" >&2
    exit 2
fi
workloads=("$workload")
if [[ $workload == all ]]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' "$change/BENCHMARK.json")
fi

# Each tree builds into its own benchmark/target, whatever the caller's
# environment says, so the two binaries can never be mixed up.
run_tree() {
    CARGO_TARGET_DIR="$1/benchmark/target" bash "$1/benchmark/run.sh" \
        --workload "$2" --seed "$seed" --trace 0
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for tree in "$parent" "$change"; do
    echo "building $tree/benchmark" >&2
    CARGO_TARGET_DIR="$tree/benchmark/target" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" >&2
done
for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            # The last stdout line of a single-workload run is its result.
            run_tree "${!side}" "$workload" 2>/dev/null | tail -n 1 >>"$out/$workload.$side.jsonl"
        done
        echo "$workload: pair $((pair + 1))/$pairs done" >&2
    done
done

# One workload's rows; exit status 1 if it is worse than the parent.
report() {
    echo "$1, seed $seed, $pairs alternating pairs (base: parent)"
    jq -n -r --slurpfile p "$out/$1.parent.jsonl" --slurpfile c "$out/$1.change.jsonl" \
        --slurpfile manifest "$change/BENCHMARK.json" --arg claim "$claim" '
    def quantile($f): sort | .[((length - 1) * $f | round)];
    def fmt: . * 1000 | round / 1000 | tostring;
    def row($name; $v): "\($name)  median \($v | quantile(0.5) | fmt)  quartiles \($v | quantile(0.25) | fmt) .. \($v | quantile(0.75) | fmt)";
    ($p | map(.failed) | add) as $pfailed
    | ($c | map(.failed) | add) as $cfailed
    | [ $manifest[0].end_to_end[]
        | . as $m
        | ($p | map(.metrics[$m.name].value)) as $pv
        | ($c | map(.metrics[$m.name].value)) as $cv
        | (if $m.better == "lower" then 1 else -1 end) as $sign
        | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign < 0)] | length) as $won
        | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign > 0)] | length) as $lost
        | ($pv | quantile(0.5)) as $pm
        | ($cv | quantile(0.5)) as $cm
        | (if $pm == 0 then 0 else ($cm - $pm) / ($pm | fabs) end) as $rel
        | { name: $m.name, unit: $m.unit, $pv, $cv, $won, $lost, $rel,
            verdict: (if $rel * $sign > $m.bound then "worse" else "ok" end), bound: $m.bound }
      ] as $rows
    | ( $rows[]
        | "\(.name) [\(.unit)]",
          row("  parent"; .pv), row("  change"; .cv),
          "  change vs parent \(.rel * 100 | fmt) %  (bound \(.bound * 100) %)  pairs won \(.won), lost \(.lost) of \(.pv | length)  -> \(.verdict)" ),
      "failed operations: parent \($pfailed), change \($cfailed)",
      (if $claim == "" then empty else
        ([$manifest[0].end_to_end[], $manifest[0].per_layer[] | select(.name == $claim)][0]) as $m
        | ($p | map(.metrics[$claim].value)) as $pv
        | ($c | map(.metrics[$claim].value)) as $cv
        | (if $m.better == "lower" then 1 else -1 end) as $sign
        | ($pv | length) as $k
        | ([range(0; $k) | select(($cv[.] - $pv[.]) * $sign < 0)] | length) as $won
        | ($k * 9 / 10 | ceil) as $need
        | ((($pv | quantile(0.5)) - ($cv | quantile(0.5))) * $sign) as $gain
        | (($pv | quantile(0.75)) - ($pv | quantile(0.25))) as $iqr
        | "claim \($claim): pairs won \($won) of \($k) (need \($need)), median gain \($gain | fmt) \($m.unit) vs parent quartile distance \($iqr | fmt) \($m.unit)  -> claim \(if $won >= $need and $gain > $iqr then "met" else "not met" end)"
      end),
      (if ($rows | any(.verdict == "worse")) or $cfailed > $pfailed then "  worse than the parent\n" | halt_error(1) else empty end)
'
}

result=ok
for workload in "${workloads[@]}"; do
    report "$workload" || result=worse
done
echo "RESULT: $result"
[[ $result == ok ]]
