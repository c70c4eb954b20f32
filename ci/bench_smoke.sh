#!/usr/bin/env bash
# A short benchmark run of every workload, none of which may report a failed
# operation. The benchmark calls the library, so CLI is not used; perfbench
# keeps its own files in .perfbench-cache/ of the repository.
#   bash ci/bench_smoke.sh WORK CLI...    (see ci/common.bash)
. "$(dirname "$0")/common.bash"
cd "$ci/.."
for workload in train-seq eval-seq baselines; do
  out=$(python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 2)
  echo "$out"
  # the last line is the JSON result; it must report no failed operation
  tail -n 1 <<< "$out" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'
done
