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
# scripts/verify.sh and every fuzz step of .github/workflows/ci.yml run
# their arms through this script.
#
# --list-ci prints the fuzz steps of .github/workflows/ci.yml, one line
# per `run: ./scripts/fuzz-arm.sh NAME FLAGS...` step:
# `<step name><TAB>NAME FLAGS...`, the step name taken from the step's
# `- name:` line. scripts/verify.sh and scripts/fuzzdiff.sh read CI's
# arms through it; it fails when ci.yml has no such step.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = --list-ci ]; then
  awk '
    /^ *- name: / { sub(/^ *- name: /, ""); name = $0 }
    /^ *run: \.\/scripts\/fuzz-arm\.sh / {
      sub(/^ *run: \.\/scripts\/fuzz-arm\.sh /, "")
      print name "\t" $0
      found = 1
    }
    END { if (!found) { print "no fuzz-arm.sh step found in .github/workflows/ci.yml" > "/dev/stderr"; exit 1 } }
  ' .github/workflows/ci.yml
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
