#!/usr/bin/env bash
# Runs one `idr fuzz` arm and gates its engine-metrics snapshot:
#
#   scripts/fuzz-arm.sh NAME [IDR FUZZ FLAGS...]
#
# Runs `./target/release/idr fuzz FLAGS --metrics target/fuzz-metrics/NAME.json`
# from the repository root (build the binary first). Fails when the arm
# fails (exit 8 on any divergence) and when the snapshot's "counters"
# object is empty, which means the arm stopped reporting into --metrics.
# scripts/verify.sh and every fuzz step of .github/workflows/ci.yml run
# their arms through this script; scripts/fuzzdiff.sh reads the CI steps'
# NAME and flags back out of ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

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
