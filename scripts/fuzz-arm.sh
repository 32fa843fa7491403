#!/usr/bin/env bash
# Runs one `idr fuzz` arm and gates its engine-metrics snapshot:
#
#   scripts/fuzz-arm.sh NAME [IDR FUZZ FLAGS...]
#   scripts/fuzz-arm.sh --list-ci
#
# Runs `./target/release/idr fuzz FLAGS --metrics target/fuzz-metrics/NAME.json`
# from the repository root (build the binary first). Fails when the arm
# fails (exit 8 on any divergence) and when the snapshot's "counters"
# object is empty, which means the arm stopped reporting into --metrics.
# scripts/verify.sh runs every arm, its own and CI's, through this
# script.
#
# --list-ci prints CI's fuzz arms, one line each, from the checked-in
# list scripts/ci-fuzz-arms.txt: `<step name><TAB>NAME FLAGS...`.
# scripts/verify.sh (which CI runs) and scripts/fuzzdiff.sh read CI's
# arms through it; it fails when the list holds no arm.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = --list-ci ]; then
  if ! grep -v -e '^#' -e '^$' scripts/ci-fuzz-arms.txt; then
    echo "no fuzz arm listed in scripts/ci-fuzz-arms.txt" >&2
    exit 1
  fi
  exit
fi
if [ $# -lt 1 ]; then
  echo "usage: scripts/fuzz-arm.sh NAME [IDR FUZZ FLAGS...]" >&2
  exit 2
fi
name=$1
shift
metrics="target/fuzz-metrics/$name.json"
mkdir -p target/fuzz-metrics
./target/release/idr fuzz "$@" --metrics "$metrics"
if grep -q '"counters":{}' "$metrics"; then
  echo "fuzz $name: its --metrics snapshot holds no counters" >&2
  exit 1
fi
