#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark (BENCHMARK.json) between a
# parent revision and the working tree:
#
#   scripts/ab.sh PARENT_REV WORKLOAD PAIRS
#
# Extracts PARENT_REV with `git archive` into a temporary directory
# outside the repository, and copies the working tree there once as
# well: its tracked files and its untracked files that are not ignored,
# as they are when the script starts. `perfbench/run.py` builds before
# every run, so a side run from the live tree would measure whatever
# the tree holds at that moment; an edit made while the script runs
# cannot reach the measured change side this way. It then runs
# `python3 perfbench/run.py --workload WORKLOAD --seed i --seconds S --trace 0`
# (S is BENCHMARK.json's `run_seconds`) for i = 1..PAIRS, alternating parent and
# working tree and swapping which goes first on every other pair, so
# slow drift of the host hits both sides alike.
#
# For each end-to-end metric it prints the median and interquartile
# range of both sides, change/parent, and on how many pairs the change
# was better. A metric whose change median is worse than the parent
# median by more than its BENCHMARK.json bound is flagged `WORSE`. A
# metric whose spread (the larger side's IQR divided by the parent
# median) is wider than its bound is flagged `UNRESOLVED`: the runs
# cannot tell a change of that size from noise. The one exception is a
# metric on which every change run beats every parent run. A side with
# a failed or incorrect run is reported. The script exits 1 if any
# metric is flagged `WORSE` or `UNRESOLVED` or any run failed, and 0
# otherwise.
#
# Both sides build and run inside the temporary directory, removed on
# exit, so nothing is written to the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
  echo "usage: scripts/ab.sh PARENT_REV WORKLOAD PAIRS" >&2
  exit 2
fi
PARENT_REV=$1 WORKLOAD=$2 PAIRS=$3
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

TMP=$(mktemp -d "${TMPDIR:-/tmp}/idr-ab.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent" "$TMP/change"
git archive "$PARENT_REV" | tar -x -C "$TMP/parent"
# A tracked file deleted in the working tree is listed but not copied.
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar --null -T - -cf - | tar -x -C "$TMP/change"

# One run: side name, source root, target dir, seed. Appends the result
# line (the last stdout line of run.py) to $TMP/<side>.jsonl, or a
# failure marker.
run() {
  local side=$1 dir=$2 target=$3 seed=$4 out
  echo "ab: $side seed $seed" >&2
  if out=$(cd "$dir" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
      --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 |
      tail -n 1); then
    echo "$out" >&2
    echo "$out" >>"$TMP/$side.jsonl"
  else
    echo "ab: $side seed $seed failed" >&2
    echo '{"correct": false}' >>"$TMP/$side.jsonl"
  fi
}

for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2)); then
    run parent "$TMP/parent" "$TMP/parent/.bench_build" "$i"
    run change "$TMP/change" "$TMP/change/.bench_build" "$i"
  else
    run change "$TMP/change" "$TMP/change/.bench_build" "$i"
    run parent "$TMP/parent" "$TMP/parent/.bench_build" "$i"
  fi
done

python3 - "$TMP/change/BENCHMARK.json" "$TMP/parent.jsonl" "$TMP/change.jsonl" "$PARENT_REV" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

bench, parent_path, change_path, rev, workload = sys.argv[1:]
spec = json.load(open(bench))["end_to_end"]


def load(path):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    bad = sum(1 for r in runs if not r.get("correct") or r.get("failed", 0))
    return runs, bad


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


parent, parent_bad = load(parent_path)
change, change_bad = load(change_path)
print(f"ab: {workload}, parent {rev} vs working tree, {len(parent)} pair(s)")
print(f"{'metric':<22}{'parent median':>15}{'IQR':>10}{'change median':>15}{'IQR':>10}"
      f"{'change/parent':>15}{'pairs better':>14}")
worse, unresolved = [], []
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change)
             if name in p.get("metrics", {}) and name in c.get("metrics", {})]
    if not pairs:
        print(f"{name:<22}  no data")
        continue
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    pq, cq = quartiles(ps), quartiles(cs)
    ratio = cq[1] / pq[1] if pq[1] else float("inf")
    better = sum(1 for p, c in pairs if (c < p if lower else c > p))
    worse_by = (ratio - 1) if lower else (1 - ratio)
    spread = max(pq[2] - pq[0], cq[2] - cq[0]) / pq[1] if pq[1] else float("inf")
    separated = max(cs) < min(ps) if lower else min(cs) > max(ps)
    flag = ""
    if worse_by > m["bound"]:
        flag += "  WORSE (bound {:.0%})".format(m["bound"])
        worse.append(name)
    if spread > m["bound"] and not separated:
        flag += "  UNRESOLVED (spread {:.0%})".format(spread)
        unresolved.append(name)
    print(f"{name:<22}{pq[1]:>15.4g}{pq[2] - pq[0]:>10.3g}{cq[1]:>15.4g}{cq[2] - cq[0]:>10.3g}"
          f"{ratio:>15.3f}{better:>9}/{len(pairs)}{flag}")
if parent_bad or change_bad:
    print(f"ab: failed or incorrect runs: parent {parent_bad}, change {change_bad}")
if worse:
    print(f"ab: worse than the parent past the bound: {', '.join(worse)}")
if unresolved:
    print(f"ab: spread wider than the bound: {', '.join(unresolved)}")
sys.exit(1 if worse or unresolved or parent_bad or change_bad else 0)
EOF
