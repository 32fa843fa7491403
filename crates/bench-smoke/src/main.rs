//! Seeded, offline benchmark: the chase engines, the serving and sync
//! layers, and the paper's scaling claims.
//!
//! Emits one JSON document on stdout comparing, per synthetic family:
//!
//! * **full-state chase** — the reference fixpoint [`idr_chase::chase`]
//!   vs the union-find engine [`IncrementalChase`];
//! * **insert stream** — re-chasing the whole state after every insert
//!   (the pre-engine discipline) vs hub [`WriteHandle`] inserts, which
//!   chase only the dirty rows of the affected block.
//!
//! Everything is seeded and dependency-free, so the numbers are noisy but
//! reproducible in shape: the incremental engine must beat the naive chase
//! on the largest family (asserted by `scripts/bench.sh`).
//!
//! Since the observability PR each family also carries the engine's
//! [`MetricsRegistry`] snapshot for its insert stream, and the document
//! ends with a `trace_overhead` section timing the largest family's
//! incremental chase and insert stream with a live [`EventLog`] tracer
//! attached — `scripts/bench.sh` checks the no-op-tracer numbers against
//! the checked-in `BENCH_pr3.json` baseline (<5% regression).
//!
//! Since the replication PR the document also carries a `sync` section:
//! the same scripted insert stream spread over three simulated replicas
//! under three fault plans (clean network, lossy network, partition plus
//! a mid-push crash), reporting rounds-to-convergence and ops shipped.
//! The simulator is fully deterministic, so these are exact integers,
//! not timings.
//!
//! Since the serving PR the document ends with a `serve` section: the
//! concurrent hub ([`WriteHandle`]/read views) over a real group-commit
//! WAL (`idr_store::SharedStore`, fsync on), driven by 1/2/4/8 client
//! threads splitting a fixed op budget. Commit latency is dominated by
//! the commit window plus the fsync, so concurrent clients riding one
//! batch raise throughput even on a single core — `scripts/bench.sh`
//! asserts 4 clients beat 1, and that grouping cuts fsyncs-per-op
//! against the classic one-fsync-per-op discipline.
//!
//! Since the batch PR the document adds a `chase_scale` section —
//! absolute wall-clock of 10^5–10^6-tuple bulk streams through the
//! in-memory hub, batch vs per-op, each the median of three runs with
//! their min and max — and
//! a `durable_bulk_load` headline: one million tuples into a real
//! fsync-on store, once per-op (one WAL record + one fsync each, the
//! PR 7–8 serving discipline) and once as framed batch groups (one WAL
//! batch + one fsync per group). `scripts/bench.sh` gates the batch
//! path at ≥5x over per-op on that family.
//!
//! The `paper_claims` section ([`paper_claims`]) times the experiments
//! of EXPERIMENTS.md §3.1–3.6: maintenance, the split witness, bounded
//! `[X]`, Example 2, recognition and the ablations.

mod paper_claims;

use std::sync::Arc;
use std::time::{Duration, Instant};

use idr_chase::{chase, IncrementalChase, Tableau};
use idr_core::engine::{Engine, Observability};
use idr_core::exec::Guard;
use idr_core::WriteHandle;
use idr_fd::KeyDeps;
use idr_obs::{EventLog, MetricsRegistry, TraceHandle};
use idr_relation::parse::render_tuple_line;
use idr_relation::{DatabaseScheme, DatabaseState, SymbolTable, Tuple};
use idr_store::{tempdir::TempDir, SharedStore, Store};
use idr_sync::{
    CrashPoint, CrashStep, FaultPlan, Partition, Scenario, ScriptedOp, SyncPolicy, Transport,
};
use idr_core::serving::BatchOp;
use idr_workload::generators::block_chain_scheme;
use idr_workload::scale::{bulk_families, bulk_inserts};
use idr_workload::states::{generate, WorkloadConfig};

const SEED: u64 = 0x1DB5_CE11;
const ITERS: u32 = 5;

/// Wall-time in milliseconds of a single run of `f` — the chase-scale
/// section measures 10^5–10^6-tuple loads where a median-of-5 would cost
/// minutes; at these op counts the per-run jitter is a rounding error.
fn time_once<F: FnOnce()>(f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall-time in milliseconds of `ITERS` runs of `f`.
fn time_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct FamilyReport {
    name: String,
    tuples: usize,
    inserts: usize,
    naive_chase_ms: f64,
    incremental_chase_ms: f64,
    naive_rechase_stream_ms: f64,
    hub_stream_ms: f64,
    /// Engine metrics snapshot (single-line JSON) from one metered
    /// hub-build + insert-stream run.
    metrics_json: String,
}

fn bench_family(name: &str, db: &DatabaseScheme, entities: usize, inserts: usize) -> FamilyReport {
    let kd = KeyDeps::of(db);
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities,
            fragment_pct: 60,
            inserts,
            corrupt_pct: 0,
            seed: SEED,
        },
    );
    let g = Guard::unlimited();

    // Full-state chase: the same state through both engines.
    let naive_chase_ms = time_ms(|| {
        let mut t = Tableau::of_state(db, &w.state);
        chase(&mut t, kd.full(), &g).expect("consistent");
    });
    let incremental_chase_ms = time_ms(|| {
        let mut ic = IncrementalChase::of_state(db, &w.state, kd.full()).expect("in capacity");
        ic.run(&g).expect("consistent");
    });

    // Insert stream: the pre-engine discipline re-chases the whole state
    // after every accepted insert; the hub's write lanes chase dirty rows.
    let naive_rechase_stream_ms = time_ms(|| {
        let mut state: DatabaseState = w.state.clone();
        for (i, t) in &w.inserts {
            let mut candidate = state.clone();
            candidate.insert(*i, t.clone()).expect("tuple fits scheme");
            if idr_chase::is_consistent(db, &candidate, kd.full(), &g).expect("within budget") {
                state = candidate;
            }
        }
    });
    let engine = Engine::new(db.clone());
    let hub_stream_ms = time_ms(|| {
        let hub = engine.hub(&w.state, &g).expect("within budget");
        let writer = hub.write_handle();
        for (i, t) in &w.inserts {
            writer.insert(*i, t.clone(), &g).expect("within budget");
        }
    });

    // One unmetered-by-time, metered-by-registry pass for the snapshot.
    let registry = Arc::new(MetricsRegistry::new());
    let metered = Engine::new(db.clone()).with_observability(Observability {
        metrics: Some(Arc::clone(&registry)),
        ..Observability::default()
    });
    let hub = metered.hub(&w.state, &g).expect("within budget");
    let writer = hub.write_handle();
    for (i, t) in &w.inserts {
        writer.insert(*i, t.clone(), &g).expect("within budget");
    }

    FamilyReport {
        name: name.to_string(),
        tuples: w.state.total_tuples(),
        inserts: w.inserts.len(),
        naive_chase_ms,
        incremental_chase_ms,
        naive_rechase_stream_ms,
        hub_stream_ms,
        metrics_json: registry.snapshot().to_json(),
    }
}

/// Wall-clock of the largest family's hot paths with a live ring-buffer
/// tracer attached, against the no-op-handle numbers measured above. The
/// gap between `*_noop` here and the PR 2 baseline is the cost of the
/// dormant instrumentation (asserted <5% by `scripts/bench.sh`); the gap
/// to `*_traced` is the cost of actually recording events.
struct OverheadReport {
    family: String,
    incremental_noop_ms: f64,
    incremental_traced_ms: f64,
    stream_noop_ms: f64,
    stream_traced_ms: f64,
}

fn bench_overhead(
    name: &str,
    db: &DatabaseScheme,
    entities: usize,
    inserts: usize,
    noop: &FamilyReport,
) -> OverheadReport {
    let kd = KeyDeps::of(db);
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities,
            fragment_pct: 60,
            inserts,
            corrupt_pct: 0,
            seed: SEED,
        },
    );
    let g = Guard::unlimited();
    let log = Arc::new(EventLog::new(1 << 16));
    let incremental_traced_ms = time_ms(|| {
        let mut ic = IncrementalChase::of_state(db, &w.state, kd.full())
            .expect("in capacity")
            .with_observability(TraceHandle::to_log(Arc::clone(&log)), None, "bench");
        ic.run(&g).expect("consistent");
        log.drain();
    });
    let traced_engine = Engine::new(db.clone()).with_observability(Observability {
        tracer: TraceHandle::to_log(Arc::clone(&log)),
        ..Observability::default()
    });
    let stream_traced_ms = time_ms(|| {
        let hub = traced_engine.hub(&w.state, &g).expect("within budget");
        let writer = hub.write_handle();
        for (i, t) in &w.inserts {
            writer.insert(*i, t.clone(), &g).expect("within budget");
        }
        log.drain();
    });
    OverheadReport {
        family: name.to_string(),
        incremental_noop_ms: noop.incremental_chase_ms,
        incremental_traced_ms,
        stream_noop_ms: noop.hub_stream_ms,
        stream_traced_ms,
    }
}

/// Rounds-to-convergence and ops shipped for one fault plan — exact
/// deterministic integers from the replication simulator, not timings.
struct SyncBenchReport {
    plan: String,
    rounds: usize,
    ops_shipped: usize,
    messages_sent: usize,
    dropped: usize,
    crashes: usize,
}

/// The same generated insert stream, spread round-robin over three
/// replicas (one op per replica per round), synced to convergence under
/// each of three adversaries. Convergence itself is asserted — a plan
/// that stops converging fails the bench run, not just the gate script.
fn bench_sync(db: &DatabaseScheme, entities: usize, inserts: usize) -> Vec<SyncBenchReport> {
    let replicas = 3;
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities,
            fragment_pct: 60,
            inserts,
            corrupt_pct: 0,
            seed: SEED,
        },
    );
    let ops: Vec<ScriptedOp> = w
        .inserts
        .iter()
        .enumerate()
        .map(|(k, (i, t))| ScriptedOp {
            round: k / replicas,
            replica: k % replicas,
            line: format!("insert {}", render_tuple_line(db, &sym, *i, t)),
        })
        .collect();
    let lossy = FaultPlan {
        drop_pct: 20,
        dup_pct: 10,
        delay_pct: 20,
        max_delay: 2,
        ..FaultPlan::clean()
    };
    let partition_crash = FaultPlan {
        drop_pct: 10,
        partitions: vec![Partition {
            from_round: 2,
            to_round: 10,
            groups: vec![vec![0, 1], vec![2]],
        }],
        crashes: vec![CrashPoint {
            round: 3,
            replica: 1,
            step: CrashStep::OpsPush,
        }],
        ..FaultPlan::clean()
    };
    [
        ("clean", FaultPlan::clean()),
        ("lossy", lossy),
        ("partition_crash", partition_crash),
    ]
    .into_iter()
    .map(|(name, plan)| {
        let scenario = Scenario {
            db: db.clone(),
            replicas,
            seed: SEED,
            max_rounds: 256,
            policy: SyncPolicy::default(),
            plan,
            ops: ops.clone(),
            transport: Transport::Sim,
        };
        let (report, _) = scenario
            .run(TraceHandle::none(), None)
            .expect("sync bench within budget");
        assert!(
            report.converged && report.diverged.is_none(),
            "sync bench plan {name:?} failed to converge"
        );
        SyncBenchReport {
            plan: name.to_string(),
            rounds: report.rounds,
            ops_shipped: report.ops_shipped,
            messages_sent: report.messages_sent,
            dropped: report.dropped,
            crashes: report.crashes,
        }
    })
    .collect()
}

/// The commit window every serve-throughput run uses: long enough that
/// commit latency (window + fsync) dominates per-op cost, so the benefit
/// of concurrent clients sharing one batch is visible even on one core.
const SERVE_WINDOW_US: u64 = 200;
/// Each client opens a fresh `ReadView` and runs one projection after
/// this many inserts.
const QUERY_EVERY: usize = 8;

/// Throughput of the durable serving stack at one client count.
struct ServeReport {
    clients: usize,
    inserts: usize,
    queries: usize,
    wall_ms: f64,
    ops_per_sec: f64,
}

/// fsync accounting for one group-commit configuration.
struct GroupCommitReport {
    clients: usize,
    window_us: u64,
    inserts: usize,
    batches: u64,
    fsyncs: u64,
}

/// Pre-interned per-block insert streams for `blocks` blocks of
/// `rels_per_block` chained relations ([`block_chain_scheme`] layout:
/// block `b` owns relations `b*rels_per_block ..`). Every tuple carries
/// fresh symbols, so every insert is accepted and does real chase work.
fn serve_ops(
    db: &DatabaseScheme,
    sym: &mut SymbolTable,
    blocks: usize,
    rels_per_block: usize,
    per_block: usize,
) -> Vec<Vec<(usize, Tuple)>> {
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|k| {
                    let i = b * rels_per_block + k % rels_per_block;
                    let t = Tuple::from_pairs(db.scheme(i).attrs().iter().map(|a| {
                        (a, sym.intern(&format!("{}_b{b}k{k}", db.universe().name(a))))
                    }));
                    (i, t)
                })
                .collect()
        })
        .collect()
}

/// Runs the per-block op streams through one hub over a fresh durable
/// store: `clients` threads split the blocks round-robin, each insert
/// commits through the group WAL (fsync on, `window_us` commit window),
/// and every [`QUERY_EVERY`]-th insert opens an epoch-stamped read view
/// and runs a projection over the block's first relation. Returns the
/// store so callers can read batch/fsync counters.
fn serve_run(
    engine: &Engine,
    db: &DatabaseScheme,
    sym: &SymbolTable,
    ops: &[Vec<(usize, Tuple)>],
    clients: usize,
    window_us: u64,
    label: &str,
) -> Arc<SharedStore> {
    let g = Guard::unlimited();
    let dir = TempDir::new(label);
    let store = Store::init(dir.path(), db)
        .expect("bench store init")
        .with_sync(true);
    let shared = Arc::new(
        SharedStore::new(store).with_group_window(Duration::from_micros(window_us)),
    );
    shared
        .symbols()
        .lock()
        .expect("fresh store symbol table")
        .clone_from(sym);
    let hub = engine
        .hub_with(&DatabaseState::empty(db), &g, shared.clone())
        .expect("empty state is consistent");
    let writer = hub.write_handle();
    std::thread::scope(|s| {
        for c in 0..clients {
            let writer: WriteHandle = writer.clone();
            let g = &g;
            s.spawn(move || {
                for b in (c..ops.len()).step_by(clients) {
                    let x = db.scheme(ops[b][0].0).attrs();
                    for (k, (i, t)) in ops[b].iter().enumerate() {
                        writer.insert(*i, t.clone(), g).expect("serve insert");
                        if (k + 1) % QUERY_EVERY == 0 {
                            writer
                                .read_view()
                                .total_projection(x, g)
                                .expect("within budget")
                                .expect("state stays consistent");
                        }
                    }
                }
            });
        }
    });
    shared
}

/// Client-scaling sweep: the same fixed op budget served by 1/2/4/8
/// client threads. Per-block write lanes plus group commit mean more
/// clients ride each commit barrier, so throughput must rise with the
/// client count (asserted for 4 vs 1 by `scripts/bench.sh`).
fn bench_serve(
    engine: &Engine,
    db: &DatabaseScheme,
    sym: &SymbolTable,
    ops: &[Vec<(usize, Tuple)>],
) -> Vec<ServeReport> {
    let inserts: usize = ops.iter().map(Vec::len).sum();
    let queries: usize = ops.iter().map(|o| o.len() / QUERY_EVERY).sum();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|clients| {
            let wall_ms = time_ms(|| {
                serve_run(engine, db, sym, ops, clients, SERVE_WINDOW_US, "bench-serve");
            });
            ServeReport {
                clients,
                inserts,
                queries,
                wall_ms,
                ops_per_sec: (inserts + queries) as f64 / (wall_ms / 1e3).max(1e-9),
            }
        })
        .collect()
}

/// fsyncs-per-op with and without group commit: the classic discipline
/// (one client, zero window — every append is its own batch and its own
/// fsync) against four clients sharing a commit window.
fn bench_group_commit(
    engine: &Engine,
    db: &DatabaseScheme,
    sym: &SymbolTable,
    ops: &[Vec<(usize, Tuple)>],
) -> Vec<GroupCommitReport> {
    let inserts: usize = ops.iter().map(Vec::len).sum();
    [(1usize, 0u64), (4, 300)]
        .into_iter()
        .map(|(clients, window_us)| {
            let shared = serve_run(engine, db, sym, ops, clients, window_us, "bench-group");
            let wal = shared.group_wal();
            GroupCommitReport {
                clients,
                window_us,
                inserts,
                batches: wal.batches(),
                fsyncs: wal.fsyncs(),
            }
        })
        .collect()
}

/// Absolute wall-clock of a bulk insert stream through the in-memory
/// hub, batch vs per-op. These are the honest chase-path numbers at
/// 10^5–10^6 tuples the toy families cannot produce. Each mode runs
/// [`SCALE_ITERS`] times on a fresh hub; a single run swung by up to
/// 1.8x between builds that did not touch the chase.
struct ScaleReport {
    family: String,
    tuples: usize,
    gen_ms: f64,
    hub_per_op_ms: Spread,
    hub_batch_ms: Spread,
}

/// Runs per mode and size in the `chase_scale` section.
const SCALE_ITERS: usize = 3;

/// Median, min and max of a handful of wall-clock samples, in ms.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(|a, b| a.total_cmp(b));
        Spread {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

fn bench_chase_scale(name: &str, db: &DatabaseScheme, tuples: usize) -> ScaleReport {
    let g = Guard::unlimited();
    let mut sym = SymbolTable::new();
    let mut ops = Vec::new();
    let gen_ms = time_once(|| ops = bulk_inserts(db, &mut sym, tuples));
    let engine = Engine::new(db.clone());
    let empty = DatabaseState::empty(db);
    let group: Vec<BatchOp> = ops
        .iter()
        .map(|(i, t)| BatchOp::Insert { rel: *i, t: t.clone() })
        .collect();

    let (mut per_op, mut batch) = (Vec::new(), Vec::new());
    for _ in 0..SCALE_ITERS {
        let hub = engine.hub(&empty, &g).expect("empty state is consistent");
        let writer = hub.write_handle();
        per_op.push(time_once(|| {
            for (i, t) in &ops {
                writer.insert(*i, t.clone(), &g).expect("bulk insert");
            }
        }));
        drop((writer, hub));

        let hub = engine.hub(&empty, &g).expect("empty state is consistent");
        let writer = hub.write_handle();
        batch.push(time_once(|| {
            let verdicts = writer.apply_batch(&group, &g).expect("bulk batch");
            assert!(verdicts.iter().all(|&v| v), "bulk stream must be accepted");
        }));
    }

    ScaleReport {
        family: name.to_string(),
        tuples,
        gen_ms,
        hub_per_op_ms: Spread::of(per_op),
        hub_batch_ms: Spread::of(batch),
    }
}

/// The headline of the batch pipeline: loading a ≥10^6-tuple family into
/// a real durable store (fsync on, zero commit window), once through the
/// per-op serving discipline of PRs 7–8 — every insert renders, frames
/// and fsyncs its own WAL record — and once as framed batch groups, each
/// committing one WAL batch with one fsync. `scripts/bench.sh` gates the
/// speedup at ≥5x.
struct BulkLoadReport {
    family: String,
    tuples: usize,
    group_size: usize,
    per_op_ms: f64,
    per_op_fsyncs: u64,
    batch_ms: f64,
    batch_fsyncs: u64,
}

fn bench_durable_bulk_load(
    name: &str,
    db: &DatabaseScheme,
    tuples: usize,
    group_size: usize,
) -> BulkLoadReport {
    let g = Guard::unlimited();
    let engine = Engine::new(db.clone());
    let mut sym = SymbolTable::new();
    let ops = bulk_inserts(db, &mut sym, tuples);

    let durable_hub = |label: &str| {
        let dir = TempDir::new(label);
        let store = Store::init(dir.path(), db)
            .expect("bench store init")
            .with_sync(true);
        let shared = Arc::new(SharedStore::new(store).with_group_window(Duration::ZERO));
        shared
            .symbols()
            .lock()
            .expect("fresh store symbol table")
            .clone_from(&sym);
        let hub = engine
            .hub_with(&DatabaseState::empty(db), &g, shared.clone())
            .expect("empty state is consistent");
        (dir, shared, hub)
    };

    eprintln!("  per-op durable load of {tuples} tuples (one fsync per op; this is the slow one) ...");
    let (_dir_a, shared_a, hub_a) = durable_hub("bulk-per-op");
    let writer = hub_a.write_handle();
    let per_op_ms = time_once(|| {
        for (i, t) in &ops {
            writer.insert(*i, t.clone(), &g).expect("durable insert");
        }
    });
    let per_op_fsyncs = shared_a.group_wal().fsyncs();
    drop(hub_a);

    eprintln!("  batched durable load of {tuples} tuples ({group_size}-op framed groups) ...");
    let (_dir_b, shared_b, hub_b) = durable_hub("bulk-batch");
    let writer = hub_b.write_handle();
    let batch_ms = time_once(|| {
        for chunk in ops.chunks(group_size) {
            let group: Vec<BatchOp> = chunk
                .iter()
                .map(|(i, t)| BatchOp::Insert { rel: *i, t: t.clone() })
                .collect();
            let verdicts = writer.apply_batch(&group, &g).expect("durable batch");
            assert!(verdicts.iter().all(|&v| v), "bulk stream must be accepted");
        }
    });
    let batch_fsyncs = shared_b.group_wal().fsyncs();

    BulkLoadReport {
        family: name.to_string(),
        tuples,
        group_size,
        per_op_ms,
        per_op_fsyncs,
        batch_ms,
        batch_fsyncs,
    }
}

fn main() {
    let families = [
        ("block_chain(2,3)", block_chain_scheme(2, 3), 12, 24),
        ("block_chain(4,3)", block_chain_scheme(4, 3), 18, 36),
        ("block_chain(6,4)", block_chain_scheme(6, 4), 24, 48),
    ];
    let reports: Vec<FamilyReport> = families
        .iter()
        .map(|(name, db, entities, inserts)| {
            eprintln!("benchmarking {name} ...");
            bench_family(name, db, *entities, *inserts)
        })
        .collect();
    let (name, db, entities, inserts) = &families[families.len() - 1];
    eprintln!("benchmarking {name} with live tracer ...");
    let overhead = bench_overhead(name, db, *entities, *inserts, reports.last().expect("families"));
    eprintln!("benchmarking {name} replication sync ...");
    let sync = bench_sync(db, *entities, *inserts);

    let serve_family = "block_chain(8,3)";
    let serve_db = block_chain_scheme(8, 3);
    let serve_engine = Engine::new(serve_db.clone());
    let mut serve_sym = SymbolTable::new();
    let serve_stream = serve_ops(&serve_db, &mut serve_sym, 8, 3, 30);
    eprintln!("benchmarking {serve_family} durable serving (1/2/4/8 clients) ...");
    let serve = bench_serve(&serve_engine, &serve_db, &serve_sym, &serve_stream);
    eprintln!("benchmarking {serve_family} group-commit fsync accounting ...");
    let group = bench_group_commit(&serve_engine, &serve_db, &serve_sym, &serve_stream);

    let claims = paper_claims::run();

    // Chase-path absolute numbers at 10^5–10^6 tuples, then the durable
    // bulk-load headline.
    let mut scale = Vec::new();
    for (fam_name, fam_db) in bulk_families() {
        for n in [100_000usize, 1_000_000] {
            eprintln!("benchmarking {fam_name} bulk stream at {n} tuples ...");
            scale.push(bench_chase_scale(fam_name, &fam_db, n));
        }
    }
    let bulk_family_name = "block_chain(4,4)";
    let bulk_db = bulk_families()
        .into_iter()
        .find(|(n, _)| *n == bulk_family_name)
        .expect("family exists")
        .1;
    eprintln!("benchmarking {bulk_family_name} durable bulk load at 1000000 tuples ...");
    let bulk = bench_durable_bulk_load(bulk_family_name, &bulk_db, 1_000_000, 10_000);

    // Hand-rolled JSON: the workspace is hermetic (no serde).
    println!("{{");
    println!("  \"bench\": \"pr16-smoke\",");
    println!("  \"seed\": {SEED},");
    println!("  \"iters\": {ITERS},");
    println!("  \"families\": [");
    for (k, r) in reports.iter().enumerate() {
        let comma = if k + 1 < reports.len() { "," } else { "" };
        println!("    {{");
        println!("      \"name\": \"{}\",", r.name);
        println!("      \"tuples\": {},", r.tuples);
        println!("      \"full_chase_ms\": {{");
        println!("        \"naive\": {:.3},", r.naive_chase_ms);
        println!("        \"incremental\": {:.3}", r.incremental_chase_ms);
        println!("      }},");
        println!("      \"insert_stream_ms\": {{");
        println!("        \"inserts\": {},", r.inserts);
        println!("        \"naive_rechase\": {:.3},", r.naive_rechase_stream_ms);
        println!("        \"hub_stream\": {:.3},", r.hub_stream_ms);
        println!(
            "        \"speedup\": {:.2}",
            r.naive_rechase_stream_ms / r.hub_stream_ms.max(1e-9)
        );
        println!("      }},");
        println!("      \"metrics\": {}", r.metrics_json);
        println!("    }}{comma}");
    }
    println!("  ],");
    println!("  \"trace_overhead\": {{");
    println!("    \"family\": \"{}\",", overhead.family);
    println!("    \"incremental_noop_ms\": {:.3},", overhead.incremental_noop_ms);
    println!("    \"incremental_traced_ms\": {:.3},", overhead.incremental_traced_ms);
    println!("    \"stream_noop_ms\": {:.3},", overhead.stream_noop_ms);
    println!("    \"stream_traced_ms\": {:.3}", overhead.stream_traced_ms);
    println!("  }},");
    println!("  \"sync\": {{");
    println!("    \"family\": \"{name}\",");
    println!("    \"replicas\": 3,");
    println!("    \"plans\": [");
    for (k, s) in sync.iter().enumerate() {
        let comma = if k + 1 < sync.len() { "," } else { "" };
        println!("      {{");
        println!("        \"plan\": \"{}\",", s.plan);
        println!("        \"rounds_to_convergence\": {},", s.rounds);
        println!("        \"ops_shipped\": {},", s.ops_shipped);
        println!("        \"messages_sent\": {},", s.messages_sent);
        println!("        \"dropped\": {},", s.dropped);
        println!("        \"crashes\": {}", s.crashes);
        println!("      }}{comma}");
    }
    println!("    ]");
    println!("  }},");
    println!("  \"serve\": {{");
    println!("    \"family\": \"{serve_family}\",");
    println!("    \"window_us\": {SERVE_WINDOW_US},");
    println!("    \"query_every\": {QUERY_EVERY},");
    println!("    \"clients\": [");
    for (k, s) in serve.iter().enumerate() {
        let comma = if k + 1 < serve.len() { "," } else { "" };
        println!("      {{");
        println!("        \"clients\": {},", s.clients);
        println!("        \"inserts\": {},", s.inserts);
        println!("        \"queries\": {},", s.queries);
        println!("        \"wall_ms\": {:.3},", s.wall_ms);
        println!("        \"ops_per_sec\": {:.1}", s.ops_per_sec);
        println!("      }}{comma}");
    }
    println!("    ],");
    println!("    \"group_commit\": [");
    for (k, gc) in group.iter().enumerate() {
        let comma = if k + 1 < group.len() { "," } else { "" };
        println!("      {{");
        println!("        \"mode\": \"{}\",", if gc.window_us == 0 { "per_op" } else { "grouped" });
        println!("        \"clients\": {},", gc.clients);
        println!("        \"window_us\": {},", gc.window_us);
        println!("        \"inserts\": {},", gc.inserts);
        println!("        \"batches\": {},", gc.batches);
        println!("        \"fsyncs\": {},", gc.fsyncs);
        println!(
            "        \"fsyncs_per_op\": {:.3}",
            gc.fsyncs as f64 / gc.inserts as f64
        );
        println!("      }}{comma}");
    }
    println!("    ]");
    println!("  }},");
    println!("  \"chase_scale\": {{");
    println!("    \"iters\": {SCALE_ITERS},");
    println!("    \"families\": [");
    for (k, s) in scale.iter().enumerate() {
        let comma = if k + 1 < scale.len() { "," } else { "" };
        let (p, b) = (&s.hub_per_op_ms, &s.hub_batch_ms);
        println!("      {{");
        println!("        \"name\": \"{}\",", s.family);
        println!("        \"tuples\": {},", s.tuples);
        println!("        \"gen_ms\": {:.1},", s.gen_ms);
        println!("        \"hub_per_op_ms\": {:.1},", p.median);
        println!("        \"hub_per_op_min_ms\": {:.1},", p.min);
        println!("        \"hub_per_op_max_ms\": {:.1},", p.max);
        println!("        \"hub_batch_ms\": {:.1},", b.median);
        println!("        \"hub_batch_min_ms\": {:.1},", b.min);
        println!("        \"hub_batch_max_ms\": {:.1}", b.max);
        println!("      }}{comma}");
    }
    println!("    ]");
    println!("  }},");
    println!("  \"durable_bulk_load\": {{");
    println!("    \"family\": \"{}\",", bulk.family);
    println!("    \"tuples\": {},", bulk.tuples);
    println!("    \"group_size\": {},", bulk.group_size);
    println!("    \"sync\": true,");
    println!("    \"window_us\": 0,");
    println!("    \"per_op_ms\": {:.1},", bulk.per_op_ms);
    println!("    \"per_op_fsyncs\": {},", bulk.per_op_fsyncs);
    println!("    \"batch_ms\": {:.1},", bulk.batch_ms);
    println!("    \"batch_fsyncs\": {},", bulk.batch_fsyncs);
    println!(
        "    \"speedup\": {:.2}",
        bulk.per_op_ms / bulk.batch_ms.max(1e-9)
    );
    println!("  }},");
    println!("  \"paper_claims\": {}", paper_claims::to_json(&claims));
    println!("}}");
}
