#!/usr/bin/env bash
# Grades the last JSON line of one short traced bench/ run per workload:
#
#   for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
#     bash bench/run.sh --workload "$w" --seed 1 --seconds 3 --trace 1 | tail -n 1 > "/tmp/bench/$w.json"
#   done
#   bash scripts/bench_gates.sh /tmp/bench
#
# Every workload in BENCHMARK.json must report correct = true and
# failed = 0. The archive workloads below must also run no materialized
# transpose (grid.permute_count = 0) and decode entropy within a ceiling.
set -euo pipefail

dir=${1:?usage: bench_gates.sh <directory of <workload>.json lines>}
root=$(cd "$(dirname "$0")/.." && pwd)

# entropy.decode_ms_per_mb ceilings: twice the largest of five 3 s traced
# runs at seed 1 on a shared 2-CPU Xeon (go1.24).
declare -A ceiling=(
	[ssh-periodic-masked]=5.18
	[cesm-smooth-large]=4.30
	[hurricane-tight]=9.55
)

fail=0
check() { # workload, jq condition on its last line, message
	if ! jq -e -s "length > 0 and (last | $2)" "$dir/$1.json" >/dev/null 2>&1; then
		echo "FAIL $1: $3" >&2
		fail=1
	fi
}
for w in $(jq -r '.workloads[].name' "$root/BENCHMARK.json"); do
	check "$w" '.correct == true and .failed == 0' "incorrect or failed operations"
	echo "$w: $(jq -c '{correct, attempted, failed}' "$dir/$w.json" 2>/dev/null || echo 'no result')"
done
for w in "${!ceiling[@]}"; do
	check "$w" '.metrics["grid.permute_count"].value == 0' "grid.permute_count is not 0"
	check "$w" ".metrics[\"entropy.decode_ms_per_mb\"].value | type == \"number\" and . <= ${ceiling[$w]}" \
		"entropy.decode_ms_per_mb over the ${ceiling[$w]} ms/MB ceiling"
	echo "$w: permute_count $(jq '.metrics["grid.permute_count"].value' "$dir/$w.json" 2>/dev/null)," \
		"entropy.decode_ms_per_mb $(jq '.metrics["entropy.decode_ms_per_mb"].value' "$dir/$w.json" 2>/dev/null) (ceiling ${ceiling[$w]})"
done
exit "$fail"
