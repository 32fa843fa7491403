#!/usr/bin/env bash
# Byte-identical gate for the fuzz arms and the replication scenarios:
# runs every CI fuzz arm (scripts/ci-fuzz-arms.txt), with its seed,
# case count and flags, and `idr sync` and `idr sync --wire` on every
# examples/scenarios/*.txt, on the `idr` binary of a parent revision and
# on the working tree's, and compares each arm's stdout and exit code:
#
#   scripts/fuzzdiff.sh PARENT_REV
#
# Extracts PARENT_REV with `git archive` into a temporary directory
# outside the repository (as scripts/ab.sh does) and builds both
# binaries in release mode. The fuzz arms are read from the list
# (through `scripts/fuzz-arm.sh --list-ci`), so the gate follows CI:
# each `<step name><TAB>NAME FLAGS...` line is one arm,
# `idr fuzz FLAGS --metrics target/fuzz-metrics/NAME.json` as
# scripts/fuzz-arm.sh runs it, named by its step name. The scenario arms run
# the working tree's scenario files on both binaries. Every run gets a
# fresh working directory, so the relative `--out` and `--metrics`
# paths resolve alike on both sides and nothing is written to the
# repository.
#
# The parent runs each arm twice. An arm whose two parent runs differ
# in stdout or exit code is reported `nondeterministic` and is not
# compared. Every other arm is `identical` or `DIFFERS`; for the latter
# the script prints the exit codes and the first lines of the stdout
# diff. Stderr (progress and timing) is not compared.
#
# Exits 1 if any arm differs, 2 on bad usage, and 0 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/fuzzdiff.sh PARENT_REV" >&2
  exit 2
fi
PARENT_REV=$1
ROOT=$PWD

TMP=$(mktemp -d "${TMPDIR:-/tmp}/idr-fuzzdiff.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent"
git archive "$PARENT_REV" | tar -x -C "$TMP/parent"

echo "fuzzdiff: building the parent ($PARENT_REV)" >&2
(cd "$TMP/parent" && CARGO_TARGET_DIR="$TMP/parent/target" cargo build --release --quiet --bin idr)
echo "fuzzdiff: building the working tree" >&2
CARGO_TARGET_DIR="$ROOT/target" cargo build --release --quiet --bin idr
cp "$TMP/parent/target/release/idr" "$TMP/idr-parent"
cp "$ROOT/target/release/idr" "$TMP/idr-change"

# One line per arm: `<step name><TAB><idr arguments>`.
ci_steps=$(scripts/fuzz-arm.sh --list-ci) || exit 2
ARMS=()
while IFS=$'\t' read -r name step; do
  read -r arm flags <<<"$step"
  ARMS+=("$name"$'\t'"fuzz $flags --metrics target/fuzz-metrics/$arm.json")
done <<<"$ci_steps"
for scenario in examples/scenarios/*.txt; do
  ARMS+=("sync $scenario"$'\t'"sync $ROOT/$scenario")
  ARMS+=("sync --wire $scenario"$'\t'"sync --wire $ROOT/$scenario")
done

# One run: binary, arguments, output prefix. Writes <prefix>.out (stdout)
# and <prefix>.code (exit code).
run() {
  local bin=$1 args=$2 prefix=$3 code=0
  local -a argv
  read -ra argv <<<"$args"
  mkdir -p "$prefix.dir/target/fuzz-metrics"
  (cd "$prefix.dir" && "$bin" "${argv[@]}") >"$prefix.out" 2>/dev/null || code=$?
  echo "$code" >"$prefix.code"
}

same() {
  cmp -s "$1.out" "$2.out" && cmp -s "$1.code" "$2.code"
}

differs=() nondeterministic=()
for k in "${!ARMS[@]}"; do
  name=${ARMS[$k]%%$'\t'*}
  args=${ARMS[$k]#*$'\t'}
  echo "fuzzdiff: [$name] idr $args" >&2
  run "$TMP/idr-parent" "$args" "$TMP/$k.parent1"
  run "$TMP/idr-parent" "$args" "$TMP/$k.parent2"
  run "$TMP/idr-change" "$args" "$TMP/$k.change"
  if ! same "$TMP/$k.parent1" "$TMP/$k.parent2"; then
    echo "nondeterministic  $name (two parent runs differ; not compared)"
    nondeterministic+=("$name")
  elif same "$TMP/$k.parent1" "$TMP/$k.change"; then
    echo "identical         $name (exit $(cat "$TMP/$k.change.code"))"
  else
    echo "DIFFERS           $name (exit: parent $(cat "$TMP/$k.parent1.code"), change $(cat "$TMP/$k.change.code"))"
    diff "$TMP/$k.parent1.out" "$TMP/$k.change.out" | head -n 20 || true
    differs+=("$name")
  fi
done

if [ ${#nondeterministic[@]} -gt 0 ]; then
  echo "fuzzdiff: nondeterministic at the parent, not compared: $(IFS=,; echo "${nondeterministic[*]}")"
fi
if [ ${#differs[@]} -gt 0 ]; then
  echo "fuzzdiff: differs from the parent: $(IFS=,; echo "${differs[*]}")"
  exit 1
fi
echo "fuzzdiff: $((${#ARMS[@]} - ${#nondeterministic[@]})) of ${#ARMS[@]} arm(s) compared, none differs from $PARENT_REV"
