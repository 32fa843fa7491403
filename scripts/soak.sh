#!/usr/bin/env bash
# Long-running fuzz soak: every oracle arm at 1000 cases.
#
# verify.sh runs each arm bounded (50–200 cases) as a smoke gate; this
# script is the pre-release / overnight version. All eight arms ride
# seven CLI invocations — the default run covers arms 1–4 (parallel
# session, serial session, naive chase, Theorem 4.1 expressions, diffed
# in lockstep), then one invocation per later arm: crash-point
# recovery, replication convergence (simulated, then over loopback
# sockets), concurrent serving, group-commit crash cuts, and
# batch-vs-serial equivalence. Each arm is seed-deterministic, so a red
# run reproduces from the per-case seed it prints.
#
# Budget roughly tens of minutes; pass a case count to scale it
# (default 1000).
set -euo pipefail
cd "$(dirname "$0")/.."

CASES="${1:-1000}"
SEED="${SOAK_SEED:-20260808}"

cargo build --release
echo "soak: $CASES case(s) per arm from seed $SEED"

echo "--- arms 1-4: differential (parallel / serial / naive chase / Thm 4.1) ---"
./target/release/idr fuzz --seed "$SEED" --cases "$CASES" --shrink --out target/soak-failures

echo "--- arm 5: crash-point recovery ---"
./target/release/idr fuzz --crash --seed "$SEED" --cases "$CASES"

echo "--- arm 6: replication convergence ---"
./target/release/idr fuzz --sync --seed "$SEED" --cases "$CASES" --out target/soak-failures

echo "--- arm 6b: replication convergence over loopback sockets ---"
./target/release/idr fuzz --sync --wire --seed "$SEED" --cases "$CASES" --out target/soak-failures

echo "--- arm 7: concurrent serving ---"
./target/release/idr fuzz --concurrent --seed "$SEED" --cases "$CASES"

echo "--- arm 7b: group-commit crash cuts ---"
./target/release/idr fuzz --crash --concurrent --seed "$SEED" --cases "$CASES"

echo "--- arm 8: batch-vs-serial equivalence ---"
./target/release/idr fuzz --batch --seed "$SEED" --cases "$CASES"

echo "soak: all arms clean at $CASES case(s)"
