#!/usr/bin/env bash
# Seeded offline benchmark (no registry dependencies, no network): builds
# the `bench` package (crates/bench-smoke), runs it, writes the output
# JSON (default BENCH_pr17.json, override with the first argument), and
# asserts:
#
#   * the PR 2 headline — the indexed incremental engine beats the naive
#     whole-state chase on the largest family, full chase and insert
#     stream alike;
#   * the PR 3 headline — the dormant (no-op-tracer) instrumentation
#     costs < 5% on the largest family against the checked-in
#     BENCH_pr3.json baseline (plus a small absolute epsilon so sub-ms
#     timer noise cannot fail the build);
#   * the PR 6 headline — three replicas running the largest family's
#     insert stream converge under all three fault plans (clean, lossy,
#     partition + crash), with deterministic rounds-to-convergence and
#     ops-shipped counts in the `sync` section;
#   * the PR 7 headline — the concurrent hub over the group-commit WAL
#     serves a fixed durable op budget faster with 4 clients than with 1
#     (clients ride shared commit barriers), and grouping cuts
#     fsyncs-per-op below the classic one-fsync-per-op discipline;
#   * the PR 9 headline — the chase_scale section carries absolute-ms
#     numbers for ≥10^6-tuple bulk streams, and the durable bulk load of
#     one million tuples through framed batch groups (one WAL batch, one
#     fsync per group) beats the per-op serving discipline (one fsync
#     per op) by ≥5x;
#   * the trajectory gate — the 4-client serving throughput of this
#     build must stay within a generous tolerance of the checked-in
#     BENCH_pr8.json, so neither the batch plumbing nor new
#     instrumentation can silently halve the serving path;
#   * the paper's scaling claims (EXPERIMENTS.md §3.1–3.6, the
#     `paper_claims` section), each gated by its shape: what stays flat,
#     what grows, who wins and whether the gap widens.
#
# The durable bulk-load section fsyncs one million per-op commits, so a
# full run takes a few minutes on ordinary disks.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr17.json}"

cargo build -p bench --release
./target/release/bench-smoke > "$OUT"
echo "wrote $(pwd)/$OUT"

OUT="$OUT" python3 - <<'EOF'
import json, os

with open(os.environ["OUT"]) as f:
    doc = json.load(f)

largest = doc["families"][-1]
full = largest["full_chase_ms"]
stream = largest["insert_stream_ms"]
print(f"largest family: {largest['name']} ({largest['tuples']} tuples)")
print(f"  full chase : naive {full['naive']:.3f} ms  vs  incremental {full['incremental']:.3f} ms")
print(f"  insert x{stream['inserts']}: naive re-chase {stream['naive_rechase']:.3f} ms  vs  "
      f"hub stream {stream['hub_stream']:.3f} ms  ({stream['speedup']:.1f}x)")

assert full["incremental"] < full["naive"], "incremental chase must beat the naive chase"
assert stream["hub_stream"] < stream["naive_rechase"], \
    "hub insert stream must beat re-chase-from-scratch"
print("OK: incremental engine beats the naive chase on the largest family")

for fam in doc["families"]:
    m = fam["metrics"]
    assert m["counters"]["session.builds"] >= 1, f"{fam['name']}: no session build metered"
    assert m["counters"]["chase.rule_applications"] >= 0
print("OK: every family carries a metrics snapshot")

oh = doc["trace_overhead"]
print(f"trace overhead on {oh['family']}: "
      f"incremental noop {oh['incremental_noop_ms']:.3f} ms, traced {oh['incremental_traced_ms']:.3f} ms; "
      f"stream noop {oh['stream_noop_ms']:.3f} ms, traced {oh['stream_traced_ms']:.3f} ms")

# Dormant-instrumentation regression gate: the no-op-tracer numbers of
# this build vs the PR 3 baseline (itself gated against PR 2). 5%
# relative, with 0.15 ms absolute slack for scheduler jitter on sub-ms
# medians — the replication layer must stay out of the single-node path.
#
# The baseline's milliseconds were recorded on a different day's machine
# conditions, so the budget is first corrected for environment drift,
# anchored on the reference chase timed in the same run. `chase` is the
# oracle, not on the serving path, and its dormant trace sites predate
# the BENCH_pr3.json baseline, so its time moves with the machine but not
# with instrumentation added to the engines the gate watches. Two
# families give two estimates of the drift (the smallest family's
# sub-millisecond chase is too noisy to use). A burst of interference
# only ever lengthens a timing, so the smaller estimate is the better
# one, and it never loosens the budget beyond the largest family's own
# anchor.
if os.path.exists("BENCH_pr3.json"):
    with open("BENCH_pr3.json") as f:
        base = json.load(f)
    pairs = list(zip(doc["families"], base["families"]))[1:]
    for fam, b in pairs:
        assert fam["name"] == b["name"], "families must match the PR3 baseline"
    drift = min(fam["full_chase_ms"]["naive"] / b["full_chase_ms"]["naive"]
                for fam, b in pairs)
    base_noop = base["trace_overhead"]["incremental_noop_ms"]
    budget = base_noop * drift * 1.05 + 0.15
    got = oh["incremental_noop_ms"]
    assert got <= budget, \
        f"no-op tracer overhead: incremental {got:.3f} ms exceeds 5% over the " \
        f"drift-corrected PR3 baseline ({budget:.3f} ms = {base_noop:.3f} x {drift:.3f} x 1.05 + 0.15)"
    print(f"OK: no-op tracer within 5% of the PR3 baseline "
          f"({got:.3f} <= {budget:.3f} ms, drift x{drift:.3f})")
else:
    print("note: BENCH_pr3.json baseline missing; skipping the overhead gate")

# Replication section: three replicas, three adversaries, all converged
# (the binary asserts convergence itself; re-check and show the shape).
sync = doc["sync"]
assert len(sync["plans"]) == 3, "sync section must carry three fault plans"
for p in sync["plans"]:
    assert p["rounds_to_convergence"] > 0, f"{p['plan']}: no rounds recorded"
    assert p["ops_shipped"] > 0, f"{p['plan']}: nothing shipped"
    print(f"sync {p['plan']}: {p['rounds_to_convergence']} round(s), "
          f"{p['ops_shipped']} op(s) shipped, {p['messages_sent']} message(s), "
          f"{p['dropped']} dropped, {p['crashes']} crash(es)")
clean = sync["plans"][0]
faulty = sync["plans"][2]
assert faulty["rounds_to_convergence"] >= clean["rounds_to_convergence"], \
    "partition+crash should not converge faster than the clean network"
print("OK: replicas converge under clean, lossy and partition+crash plans")

# Serving section: the durable hub under 1/2/4/8 client threads, plus
# the group-commit fsync accounting. Commit latency (window + fsync)
# dominates per-op cost, so more clients per batch must mean more
# throughput — even on a single core.
serve = doc["serve"]
by_clients = {c["clients"]: c for c in serve["clients"]}
for c in serve["clients"]:
    print(f"serve {c['clients']} client(s): {c['inserts']} insert(s) + {c['queries']} quer(ies) "
          f"in {c['wall_ms']:.1f} ms = {c['ops_per_sec']:.0f} ops/s")
assert by_clients[4]["ops_per_sec"] > by_clients[1]["ops_per_sec"], \
    "4 concurrent clients must out-serve 1 (group commit amortises the barrier)"
print("OK: 4-client throughput beats 1-client on the durable serving path")

gc = {g["mode"]: g for g in serve["group_commit"]}
for mode in ("per_op", "grouped"):
    g = gc[mode]
    print(f"group_commit {mode}: {g['clients']} client(s), window {g['window_us']} us, "
          f"{g['fsyncs']} fsync(s) / {g['inserts']} op(s) = {g['fsyncs_per_op']:.3f} fsyncs/op")
assert gc["per_op"]["fsyncs_per_op"] >= 1.0, \
    "zero-window single-writer WAL must fsync every op"
assert gc["grouped"]["fsyncs_per_op"] < gc["per_op"]["fsyncs_per_op"], \
    "group commit must reduce fsyncs-per-op below the per-op discipline"
print("OK: group commit measurably reduces fsyncs-per-op")

# Absolute-throughput trajectory gate: 4-client serving ops/s against the
# PR 8 baseline. The tolerance is deliberately generous (half the
# baseline) — fsync-bound medians jitter hard on shared runners — but a
# hot-path regression from the batch plumbing (an accidental lock or
# clone per op, say) costs well over 2x and will trip it.
if os.path.exists("BENCH_pr8.json") and os.path.abspath("BENCH_pr8.json") != \
        os.path.abspath(os.environ["OUT"]):
    with open("BENCH_pr8.json") as f:
        base = json.load(f)
    base_rate = {c["clients"]: c["ops_per_sec"] for c in base["serve"]["clients"]}[4]
    got_rate = by_clients[4]["ops_per_sec"]
    floor = base_rate * 0.5
    assert got_rate >= floor, \
        f"serve trajectory: 4-client {got_rate:.0f} ops/s fell below half the " \
        f"PR8 baseline ({base_rate:.0f} ops/s)"
    print(f"OK: 4-client serve throughput {got_rate:.0f} ops/s holds the PR8 "
          f"trajectory (baseline {base_rate:.0f}, floor {floor:.0f})")
else:
    print("note: BENCH_pr8.json baseline missing; skipping the serve trajectory gate")

# Chase-scale section: honest absolute-ms numbers at 10^5-10^6 tuples.
# The gate is existence + sanity (a ≥10^6-tuple family with real
# timings); absolute wall-clock is machine-dependent, so no ms ceiling.
cs = doc["chase_scale"]
big = [f for f in cs["families"] if f["tuples"] >= 1_000_000]
assert big, "chase_scale must include a >=10^6-tuple family"
for f in cs["families"]:
    print(f"chase_scale {f['name']} x{f['tuples']}: gen {f['gen_ms']:.0f} ms, "
          f"hub per-op {f['hub_per_op_ms']:.0f} ms, hub batch {f['hub_batch_ms']:.0f} ms")
    assert f["hub_batch_ms"] > 0 and f["hub_per_op_ms"] > 0
print(f"OK: chase_scale carries {len(big)} family run(s) at >=10^6 tuples")

# Durable bulk-load headline: framed batch groups (one WAL batch + one
# fsync per group) vs the per-op serving discipline (one fsync per op)
# on a >=10^6-tuple family. This is the batch pipeline's reason to
# exist; gate it at 5x.
bl = doc["durable_bulk_load"]
print(f"durable_bulk_load {bl['family']} x{bl['tuples']} (groups of {bl['group_size']}): "
      f"per-op {bl['per_op_ms']:.0f} ms / {bl['per_op_fsyncs']} fsyncs  vs  "
      f"batch {bl['batch_ms']:.0f} ms / {bl['batch_fsyncs']} fsyncs  "
      f"= {bl['speedup']:.1f}x")
assert bl["tuples"] >= 1_000_000, "bulk-load headline must run at >=10^6 tuples"
assert bl["per_op_fsyncs"] >= bl["tuples"], \
    "per-op discipline must fsync every op"
assert bl["batch_fsyncs"] <= bl["tuples"] // bl["group_size"] + 1, \
    "batch groups must commit one fsync per group"
assert bl["speedup"] >= 5.0, \
    f"batch bulk load must beat the per-op loop by >=5x (got {bl['speedup']:.1f}x)"
print("OK: batched bulk load beats the per-op serving discipline by >=5x")

# Paper claims (EXPERIMENTS.md §3.1-3.6): every claim is gated by its
# shape, never by a millisecond ceiling. Thresholds carry a margin over
# four runs on a 2-vCPU VM (observed range in brackets):
#   FLAT    max/min over the axis <= 3.0   [Alg. 5 1.01-1.84, Alg. 2 1.02-1.08]
#   GROWS   last/first >= the x ratio, i.e. at least linear [re-chase 14.6-18.5
#           at x4, EX2 134-315 at x16]; split-witness chase >= x ratio / 4 [15.0-15.4 at x16]
#   WIDENS  speedup at the largest size >= 2x the smallest's
#           [Thm 4.1 4.8-8.3x, Alg. 1 3.2-4.2x]
#   POLY    log-log slope first->last <= 3.0 [recognition 1.78-2.16, split test 1.41-1.89]
#   WINS    the faster arm at every size [naive/indexed closure 0.10-0.19; gamma
#           reduction/search on chains 0.15-0.34]. The reduction's lead over the
#           search also widens with n, but by only 1.13-1.82x, too little to gate.
import math
pc = doc["paper_claims"]

def axis(claim):
    return next(iter(pc[claim].values()))

def show(claim):
    c = pc[claim]
    keys = list(c)
    print(f"paper_claims {claim} ({keys[0]} {c[keys[0]]}): " +
          "; ".join(f"{k} {c[k]}" for k in keys[1:]))

def flat(claim, series, bound=3.0):
    ys = pc[claim][series]
    assert max(ys) / min(ys) <= bound, \
        f"{claim}.{series} should be flat (max/min <= {bound}): {ys}"

def grows(claim, series, factor):
    ys = pc[claim][series]
    assert ys[-1] / ys[0] >= factor, \
        f"{claim}.{series} should grow >= {factor:.0f}x over the axis: {ys}"

def wins_and_widens(claim, fast, slow, widen):
    a, b = pc[claim][fast], pc[claim][slow]
    gap = [y / x for x, y in zip(a, b)]
    assert all(g > 1 for g in gap), f"{claim}: {fast} must beat {slow} at every size: {gap}"
    assert gap[-1] >= widen * gap[0], \
        f"{claim}: the {fast}/{slow} gap must widen >= {widen}x: {gap}"

def polynomial(claim, series, degree=3.0):
    xs, ys = axis(claim), pc[claim][series]
    slope = math.log(ys[-1] / ys[0]) / math.log(xs[-1] / xs[0])
    assert slope <= degree, f"{claim}.{series}: log-log slope {slope:.2f} > {degree}"
    return slope

for claim in pc:
    show(claim)

x = axis("maintenance")
flat("maintenance", "algorithm5_us")
flat("maintenance", "algorithm2_us")
x_rechase = axis("rechase")
grows("rechase", "rechase_ms", x_rechase[-1] / x_rechase[0])
print(f"OK: Alg. 5 and Alg. 2 stay flat from {x[0]} to {x[-1]} entities "
      f"while the re-chase baseline grows (Thm 3.3, Thm 3.2)")

x = axis("split_witness")
flat("split_witness", "algorithm2_us")
grows("split_witness", "chase_us", x[-1] / x[0] / 4)
print("OK: on the Thm 3.4 split witness the chase decision grows, Alg. 2 stays flat")

wins_and_widens("total_projection", "expression_ms", "chase_ms", 2.0)
print("OK: the Thm 4.1 expression beats chase-and-project at every size, gap widening")

x = axis("example2")
grows("example2", "decision_ms", x[-1] / x[0])
print("OK: the Example 2 decision grows at least linearly with the chain")

slopes = [polynomial(c, s) for c, s in [("recognition_cycle", "recognize_us"),
                                        ("recognition_block_chain", "recognize_us"),
                                        ("split_test", "split_free_us")]]
print("OK: recognition and the split test stay polynomial (log-log slopes "
      + ", ".join(f"{v:.2f}" for v in slopes) + ", Cor 5.4)")

fc = pc["fd_closure"]
assert all(n < i for n, i in zip(fc["naive_us"], fc["indexed_us"])), \
    f"fd_closure: the naive scan should beat the indexed closure on chain fds: {fc}"
wins_and_widens("representative_instance", "algorithm1_ms", "chase_ms", 2.0)
ac = pc["acyclicity"]
assert all(r < s for r, s in zip(ac["reduction_chain_us"], ac["cycle_search_chain_us"])), \
    f"acyclicity: the gamma reduction should beat the cycle search on chains: {ac}"
print("OK: ablations keep their shape (closure, Alg. 1 vs chase, gamma reduction vs search)")
EOF
