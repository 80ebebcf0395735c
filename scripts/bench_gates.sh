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
# transpose (grid.permute_count = 0), encode and decode entropy within a
# ceiling, and allocate within a ceiling on each side of the round trip.
set -euo pipefail

dir=${1:?usage: bench_gates.sh <directory of <workload>.json lines>}
root=$(cd "$(dirname "$0")/.." && pwd)

# entropy.decode_ms_per_mb and entropy.encode_ms_per_mb ceilings from the
# largest of five 3 s traced runs at seed 1 on a shared 2-CPU Xeon
# (go1.24): 1.5x it for ssh and cesm, 2x for hurricane, whose entropy
# times are the noisiest. cesm's encode ceiling is 1.37x its largest run
# (0.79): it keeps the 1.08 an earlier set of five runs gave, tighter than
# the 1.18 the rule gives now.
declare -A ceiling=(
	[ssh-periodic-masked]=2.44
	[cesm-smooth-large]=0.60
	[hurricane-tight]=5.59
)
declare -A encode_ceiling=(
	[ssh-periodic-masked]=1.44
	[cesm-smooth-large]=1.08
	[hurricane-tight]=3.72
)
# core.compress_alloc_b_per_pt and core.decompress_alloc_b_per_pt ceilings:
# the largest of the same five runs plus 1 B/pt. Allocation does not depend
# on the machine's speed, only on the seed (and, by a few tenths, on which
# pooled buffers survive a GC), so a full-volume copy of 4 B/pt fails them.
declare -A compress_alloc=(
	[ssh-periodic-masked]=12.08
	[cesm-smooth-large]=9.21
	[hurricane-tight]=15.57
)
declare -A decompress_alloc=(
	[ssh-periodic-masked]=10.68
	[cesm-smooth-large]=9.27
	[hurricane-tight]=9.58
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
	check "$w" ".metrics[\"entropy.encode_ms_per_mb\"].value | type == \"number\" and . <= ${encode_ceiling[$w]}" \
		"entropy.encode_ms_per_mb over the ${encode_ceiling[$w]} ms/MB ceiling"
	for side in compress decompress; do
		declare -n alloc=${side}_alloc
		check "$w" ".metrics[\"core.${side}_alloc_b_per_pt\"].value | type == \"number\" and . <= ${alloc[$w]}" \
			"core.${side}_alloc_b_per_pt over the ${alloc[$w]} B/pt ceiling"
	done
	echo "$w: permute_count $(jq '.metrics["grid.permute_count"].value' "$dir/$w.json" 2>/dev/null)," \
		"entropy.decode_ms_per_mb $(jq '.metrics["entropy.decode_ms_per_mb"].value' "$dir/$w.json" 2>/dev/null) (ceiling ${ceiling[$w]})," \
		"entropy.encode_ms_per_mb $(jq '.metrics["entropy.encode_ms_per_mb"].value' "$dir/$w.json" 2>/dev/null) (ceiling ${encode_ceiling[$w]})," \
		"alloc B/pt $(jq '.metrics["core.compress_alloc_b_per_pt"].value' "$dir/$w.json" 2>/dev/null)" \
		"/ $(jq '.metrics["core.decompress_alloc_b_per_pt"].value' "$dir/$w.json" 2>/dev/null)" \
		"(ceilings ${compress_alloc[$w]} / ${decompress_alloc[$w]})"
done
exit "$fail"
