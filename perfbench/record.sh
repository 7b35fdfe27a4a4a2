#!/usr/bin/env bash
# Records a result set: every workload over a list of seeds, untraced, plus
# traced runs, each run's result line stored where benchdiff looks for it:
#
#   OUT/<workload>/seed-<n>.json          --trace 0
#   OUT/traced/<workload>/seed-<n>.json   --trace 1
#
#   bash perfbench/record.sh OUT
#
# Every run lasts 30 s, BENCHMARK.json's run_seconds; seeds 1-10 run
# untraced and seed 1 traced, the seeds pinned in digests.json. Runs
# alternate workloads seed by seed, so slow drift on the machine spreads
# over all of them. The exit code is 1 when any run failed its checks.
set -uo pipefail
out=${1:?usage: record.sh OUT}
secs=30
seeds="1 2 3 4 5 6 7 8 9 10"
trace_seeds=1
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
workloads="tune-bayesian tune-deeptune serve"
status=0

one() { # one DIR WORKLOAD SEED TRACE
	mkdir -p "$1/$2"
	local log="$1/$2/seed-$3.log"
	if ! bash "$here/run.sh" --workload "$2" --seed "$3" --seconds "$secs" --trace "$4" >"$log" 2>&1; then
		echo "record: $2 seed $3 trace $4 failed; see $log" >&2
		status=1
	fi
	grep '^{' "$log" | tail -n 1 >"$1/$2/seed-$3.json"
}

for s in $seeds; do
	for w in $workloads; do one "$out" "$w" "$s" 0; done
done
for s in $trace_seeds; do
	for w in $workloads; do one "$out/traced" "$w" "$s" 1; done
done
exit $status
