#!/usr/bin/env bash
# Full offline verification: build, test, lint. The default workspace has
# zero registry dependencies, so this runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
# The end-to-end benchmark is a package of its own (perfbench/); it
# compiles against the public API, so removing a name it uses fails here.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every public item is documented (the crates opt into
# missing_docs) and no broken intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Markdown doc gate: every intra-repo reference in the tracked docs —
# markdown links to .md files, backticked repo paths, and backticked
# top-level file names such as `BENCH_pr3.json` — must resolve to a file
# that exists, so specs like docs/WIRE.md and the benchmark outputs that
# EXPERIMENTS.md quotes cannot silently drift away from the pages that
# cite them.
docs_ok=1
while read -r ref; do
  ref="${ref%%#*}"
  if [ ! -e "$ref" ]; then
    echo "broken doc reference: $ref" >&2
    docs_ok=0
  fi
done < <(
  {
    grep -ohE '\]\([A-Za-z0-9_./-]+\.md(#[A-Za-z0-9_-]+)?\)' \
      README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md |
      sed -E 's/^\]\(//; s/\)$//'
    grep -ohE '`(docs|examples|scripts|tests|src|crates)/[A-Za-z0-9_./-]+`' \
      README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md | tr -d '`'
    grep -ohE '`[A-Za-z0-9_.-]+\.(json|txt|toml|sh|py)`' \
      README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md | tr -d '`'
  } | sort -u
)
[ "$docs_ok" = 1 ] || exit 1

# Every fuzz arm below runs through scripts/fuzz-arm.sh, as CI's own fuzz
# steps do: it dumps the arm's engine-metrics snapshot under
# target/fuzz-metrics/ and fails on one without counters (an arm that
# stopped reporting into --metrics).

# Bounded differential-fuzzing smoke run: 100 seed-deterministic cases
# replayed against four oracles in lockstep (parallel session, serial
# session, naive chase, Theorem 4.1 expressions). Exits 8 and writes
# repro fixtures to target/fuzz-failures on any divergence.
scripts/fuzz-arm.sh differential --seed 42 --cases 100 --shrink

# Crash-point recovery fuzzing: 200 durable op streams, the WAL cut at
# every byte boundary, each cut recovered and diffed against a
# never-crashed oracle (tens of thousands of crash points). Exits 8 on
# any recovery divergence.
scripts/fuzz-arm.sh crash --crash --seed 20260806 --cases 200

# Replication-convergence fuzzing: 200 random op streams partitioned
# across 2–4 simulated replicas under random fault plans (drop, delay,
# duplication, partition + heal, crash mid-sync). Every replica's
# converged state must match a never-partitioned baseline byte for byte;
# failures shrink to replayable scenario files. Exits 8 on any miss.
scripts/fuzz-arm.sh sync --sync --seed 42 --cases 200

# Concurrent-serving fuzzing: 100 random op schedules run through the
# hub under racing client threads, the final state diffed against a
# serial replay of the committed WAL order (Thm 4.2: cross-block ops
# commute, so the two must agree byte for byte). Exits 8 on any miss.
scripts/fuzz-arm.sh concurrent --concurrent --seed 42 --cases 100

# Mid-batch crash cuts on the group-commit WAL: concurrent durable
# streams, the log truncated inside coalesced batches, each cut
# recovered and checked against the committed-prefix oracle.
scripts/fuzz-arm.sh crash-concurrent --crash --concurrent --seed 20260806 --cases 100

# Batch-vs-serial equivalence fuzzing: framed op groups applied through
# apply_batch over a real durable store, diffed per-op against serial
# application (verdicts, state, consistency, probe answers), then the
# data dir recovered and diffed again. Exits 8 on any divergence.
scripts/fuzz-arm.sh batch --batch --seed 42 --cases 50

# Wire-transport replication fuzzing (docs/WIRE.md): the same scripted
# fault plans run over real loopback sockets, each replica holding
# durable journal files on disk; every replica's state, verdict and
# probe answer diffed byte-for-byte against the never-partitioned
# baseline. Exits 8 on any miss.
scripts/fuzz-arm.sh wire --sync --wire --seed 42 --cases 50

# CI's own fuzz steps run each arm at other seeds (and --batch at another
# case count). Run every `./scripts/fuzz-arm.sh` step of
# .github/workflows/ci.yml as written there (`fuzz-arm.sh --list-ci`
# reads them, as for scripts/fuzzdiff.sh), so a green local run covers
# CI's exact fuzz steps too.
ci_steps=$(scripts/fuzz-arm.sh --list-ci)
while IFS=$'\t' read -r _ arm; do
  read -ra argv <<<"$arm"
  scripts/fuzz-arm.sh "${argv[@]}"
done <<<"$ci_steps"

# The checked-in scenarios must converge (and exercise the CLI
# round-trace path end to end) — on the simulator and over sockets:
# the partition-and-heal demo, and a crash at every protocol step.
for scenario in examples/scenarios/partition-heal.txt examples/scenarios/crash-every-step.txt; do
  ./target/release/idr sync "$scenario" > /dev/null
  ./target/release/idr sync --wire "$scenario" > /dev/null
done

# Two-process loopback convergence smoke: two real `idr serve` peers on
# ephemeral ports (published via DIR/listen.addr), one client op each,
# a partition via SIGSTOP and a heal via SIGCONT, then byte-identical
# digests within a bounded wall time. Exit codes must be clean.
smoke="$(mktemp -d "${TMPDIR:-/tmp}/idr-wire-smoke.XXXXXX")"
pa='' pb=''
cleanup_smoke() {
  [ -n "$pb" ] && { kill -CONT "$pb" 2>/dev/null || true; }
  [ -n "$pa" ] && { kill "$pa" 2>/dev/null || true; }
  [ -n "$pb" ] && { kill "$pb" 2>/dev/null || true; }
  rm -rf "$smoke"
}
trap cleanup_smoke EXIT

./target/release/idr init "$smoke/a" examples/schemes/university.scm > /dev/null
./target/release/idr init "$smoke/b" examples/schemes/university.scm > /dev/null
mkfifo "$smoke/a.in" "$smoke/b.in"

./target/release/idr serve --data-dir "$smoke/a" --listen 127.0.0.1:0 \
  --origin 0 --origins 2 --sync-interval-ms 25 \
  < "$smoke/a.in" > "$smoke/a.out" 2>&1 &
pa=$!
exec 3> "$smoke/a.in"

wait_addr() {
  for _ in $(seq 1 200); do
    if [ -s "$1/listen.addr" ]; then tr -d '\n' < "$1/listen.addr"; return 0; fi
    sleep 0.05
  done
  echo "serve never published $1/listen.addr" >&2
  return 1
}
addr_a="$(wait_addr "$smoke/a")"

./target/release/idr serve --data-dir "$smoke/b" --listen 127.0.0.1:0 \
  --peer "$addr_a" --origin 1 --origins 2 --sync-interval-ms 25 \
  < "$smoke/b.in" > "$smoke/b.out" 2>&1 &
pb=$!
exec 4> "$smoke/b.in"
wait_addr "$smoke/b" > /dev/null

echo "insert R1: H=h1 R=r1 C=c1" >&3

# Partition: freeze B, journal an op at A it cannot see, then heal.
kill -STOP "$pb"
echo "insert R2: H=h1 T=t1 R=r1" >&3
sleep 0.3
kill -CONT "$pb"
echo "insert R4: C=c1 S=s1 G=g1" >&4

deadline=$((SECONDS + 30))
converged=0
while [ "$SECONDS" -lt "$deadline" ]; do
  printf '.digest\n' >&3
  printf '.digest\n' >&4
  sleep 0.2
  da="$(grep '^digest ' "$smoke/a.out" | tail -n 1 || true)"
  db="$(grep '^digest ' "$smoke/b.out" | tail -n 1 || true)"
  if [ -n "$da" ] && [ "$da" = "$db" ] && ! printf '%s' "$da" | grep -q '0/00000000'; then
    converged=1
    break
  fi
done
if [ "$converged" != 1 ]; then
  echo "wire smoke: no convergence within 30s" >&2
  echo "--- A ---" >&2; cat "$smoke/a.out" >&2
  echo "--- B ---" >&2; cat "$smoke/b.out" >&2
  exit 1
fi

echo quit >&3
echo quit >&4
exec 3>&- 4>&-
wait "$pa"
wait "$pb"
pa='' pb=''
echo "wire smoke: converged at $da"
