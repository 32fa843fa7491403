//! Crash-point differential fuzzing for the durability layer.
//!
//! For each seeded case the fuzzer runs a stream of durable write ops
//! against a real data dir, then simulates a crash at **every byte
//! boundary of the write-ahead log**: the WAL is truncated to each
//! prefix length in turn, [`idr_store::recover()`] rebuilds the state
//! from the surviving bytes, and the recovered state, consistency
//! verdict and a query answer are differentially checked against an
//! in-memory oracle that replayed exactly the ops whose records
//! survived the cut. A torn final record must be tolerated (truncated),
//! never misread — any byte offset that recovers to the wrong state is
//! a reported failure.
//!
//! Cases vary the scheme family (the same IR/non-IR spread as
//! [`gen`](crate::gen)), the op mix (accepted inserts, rejected
//! inserts, deletes of present and absent tuples) and the snapshot
//! cadence, so cuts land both in a fresh epoch-0 log and in a log tail
//! after snapshot rotation + compaction.
//!
//! Every op is exactly one WAL record, so `k` surviving records ⇔ the
//! first `k` ops — the mapping the differential check relies on. The
//! write path logs a unit only once its verdicts are earned and logs
//! nothing for a unit it rolls back, so no record ever needs undoing;
//! `tests/durability.rs` pins that a guard-tripped op leaves no record.

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use idr_core::{Engine, Observability};
use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::{render_answer_lines, render_state_lines, render_tuple_line};
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable, Tuple};
use idr_store::tempdir::TempDir;
use idr_store::{recover, snapshot, wal, SharedStore, Store};
use idr_workload::generators::{
    block_chain_scheme, chain_scheme, cycle_scheme, example2_scheme, split_scheme, star_scheme,
};

use crate::gen::{corrupt_tuple, entity_tuple};
use crate::{Campaign, Counters, Failure, Site, Summary};

/// The crash arms' tallies.
#[derive(Clone, Debug, Default)]
pub struct CrashCounters {
    /// Crash points (byte boundaries) recovered from.
    pub crash_points: usize,
    /// Ops executed across the live (never-crashed) runs.
    pub ops_run: usize,
}

impl fmt::Display for CrashCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} crash point(s) recovered, {} op(s) replayed",
            self.crash_points, self.ops_run
        )
    }
}

impl Counters for CrashCounters {}

/// The per-prefix expectation computed by the in-memory oracle: the
/// state after the first `k` ops, rendered; its verdict; the rendered
/// probe-query answer.
struct MirrorPoint {
    state_lines: Vec<String>,
    consistent: bool,
    answer: Option<Vec<String>>,
}

/// A scheme drawn from the same families the main fuzzer covers,
/// including the non-IR Example 2 (a one-block hub). Shared with the
/// other arms.
pub(crate) fn gen_scheme(rng: &mut SplitMix64) -> DatabaseScheme {
    match rng.gen_range(0, 6) {
        0 => chain_scheme(rng.gen_range_inclusive(2, 4)),
        1 => cycle_scheme(rng.gen_range_inclusive(3, 4)),
        2 => split_scheme(2),
        3 => star_scheme(rng.gen_range_inclusive(2, 3)),
        4 => block_chain_scheme(2, 3),
        _ => example2_scheme(),
    }
}

/// One durable op: `(is_insert, relation, tuple)`. Shared with the
/// concurrent arm ([`crate::concurrent`]).
pub(crate) type CrashOp = (bool, usize, Tuple);

/// Generates the op stream for one case. Inserts dominate (they grow
/// the WAL and the state); deletes hit both present and absent tuples;
/// corrupt inserts produce in-log *rejected* records whose replay must
/// re-reject.
pub(crate) fn gen_ops(
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
    rng: &mut SplitMix64,
) -> Vec<CrashOp> {
    let entities = rng.gen_range_inclusive(2, 3);
    let nops = rng.gen_range_inclusive(4, 8);
    let mut pool: Vec<(usize, Tuple)> = Vec::new();
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        let i = rng.gen_range(0, db.len());
        let op: CrashOp = match rng.gen_range(0, 100) {
            // Delete a previously inserted tuple (or an absent one).
            0..=19 if !pool.is_empty() => {
                let (rel, t) = pool[rng.gen_range(0, pool.len())].clone();
                (false, rel, t)
            }
            0..=24 => {
                let id = rng.gen_range(0, entities);
                (false, i, entity_tuple(db, symbols, id).project(db.scheme(i).attrs()))
            }
            // A key-violating insert: logged, rejected, replay re-rejects.
            25..=39 => (true, i, corrupt_tuple(db, symbols, i, 0, 1)),
            // A fragment of an entity (usually accepted).
            _ => {
                let id = rng.gen_range(0, entities + 1);
                let t = entity_tuple(db, symbols, id).project(db.scheme(i).attrs());
                pool.push((i, t.clone()));
                (true, i, t)
            }
        };
        ops.push(op);
    }
    ops
}

/// Renders one op as a replay line (`insert R1: A=a B=b`), the form a
/// write-ahead log record takes.
pub(crate) fn op_line(
    db: &DatabaseScheme,
    symbols: &SymbolTable,
    is_insert: bool,
    rel: usize,
    t: &Tuple,
) -> String {
    let verb = if is_insert { "insert" } else { "delete" };
    format!("{verb} {}", render_tuple_line(db, symbols, rel, t))
}

/// Replays op lines (a case's ops, or the committed WAL order of a
/// concurrent run) through a purely in-memory hub, recording the
/// expected state/verdict/answer after every prefix length — the
/// mirror the WAL cuts are checked against.
fn build_mirror(
    engine: &Engine,
    lines: &[String],
    probe: AttrSet,
) -> Result<Vec<MirrorPoint>, String> {
    let db = engine.scheme();
    let guard = Guard::unlimited();
    let mut symbols = SymbolTable::new();
    let hub = engine
        .hub(&DatabaseState::empty(db), &guard)
        .map_err(|e| format!("mirror hub: {e}"))?;
    let writer = hub.write_handle();
    let mut mirror = Vec::with_capacity(lines.len() + 1);
    for k in 0..=lines.len() {
        if k > 0 {
            writer
                .replay_op(&lines[k - 1], &mut symbols, &guard)
                .map_err(|e| format!("mirror replay of {:?}: {e}", lines[k - 1]))?;
        }
        let view = hub.read_view();
        let answer = view
            .total_projection(probe, &guard)
            .map_err(|e| format!("mirror query: {e}"))?
            .map(|ts| render_answer_lines(db, &ts, &symbols));
        mirror.push(MirrorPoint {
            state_lines: render_state_lines(db, view.state(), &symbols),
            consistent: view.is_consistent(),
            answer,
        });
    }
    Ok(mirror)
}

/// Copies the live data dir's immutable files into the crash-scratch
/// dir once per case (the per-cut loop rewrites only the WAL).
fn stage_scratch(live: &Path, scratch: &Path, epoch: u64) -> std::io::Result<()> {
    for name in [snapshot::SCHEME_FILE, snapshot::SNAPSHOT_FILE] {
        std::fs::copy(live.join(name), scratch.join(name))?;
    }
    // Make sure no stale WAL from a previous case lingers.
    let _ = std::fs::remove_file(snapshot::wal_path(scratch, epoch));
    Ok(())
}

/// The store of a case's live run, over a fresh data dir: unsynced (the
/// crashes are simulated, not suffered), seeded with the case's
/// symbols, reporting into `metrics`. Shared with the batch arm.
pub(crate) fn live_store(
    dir: &Path,
    db: &DatabaseScheme,
    symbols: &SymbolTable,
    metrics: Option<&Arc<MetricsRegistry>>,
    snapshot_every: Option<u64>,
    group_window: Duration,
) -> Result<Arc<SharedStore>, String> {
    let store = Store::init(dir, db)
        .map_err(|e| format!("init: {e}"))?
        .with_sync(false)
        .with_snapshot_every(snapshot_every)
        .with_observability(TraceHandle::none(), metrics.cloned());
    let store = Arc::new(SharedStore::new(store).with_group_window(group_window));
    store
        .symbols()
        .lock()
        .expect("fresh store symbol lock")
        .clone_from(symbols);
    Ok(store)
}

/// A crash arm's failure at WAL cut `at`.
fn cut_failure(seed: u64, at: u64, kind: &str, detail: String) -> Failure {
    Failure {
        site: Site::Cut(at),
        ..Failure::new(seed, kind, detail)
    }
}

/// The engine a case's live run uses: `engine` reporting into
/// `metrics`. Oracle-side hubs (mirrors, serial replays, per-cut
/// answers) stay on plain engines, so the snapshot counts the work
/// under test once. Shared with the batch and concurrent arms.
pub(crate) fn live_engine(engine: &Engine, metrics: Option<&Arc<MetricsRegistry>>) -> Engine {
    engine.clone().with_observability(Observability {
        metrics: metrics.cloned(),
        ..Observability::default()
    })
}

/// Runs one case: live durable run, then a recovery + differential
/// check at every WAL byte boundary.
fn run_case(
    seed: u64,
    counters: &mut CrashCounters,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Vec<Failure> {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut case_symbols = SymbolTable::new();
    let ops = gen_ops(&db, &mut case_symbols, &mut rng);
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    let snapshot_every = if rng.gen_pct(35) {
        Some(rng.gen_range_inclusive(2, 3) as u64)
    } else {
        None
    };
    let setup = |detail: String| vec![cut_failure(seed, 0, "setup", detail)];

    // --- Live durable run -------------------------------------------------
    let live_dir = TempDir::new("crash-live");
    let store = match live_store(
        live_dir.path(),
        &db,
        &case_symbols,
        metrics,
        snapshot_every,
        Duration::ZERO,
    ) {
        Ok(s) => s,
        Err(e) => return setup(e),
    };
    // `ops_at_epoch_start` counts the ops that predate the open epoch's
    // WAL — the offset that maps surviving records back to op counts
    // after a snapshot rotation.
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let mut ops_at_epoch_start = 0usize;
    {
        let base = DatabaseState::empty(&db);
        let hub = match live_engine(&engine, metrics).hub_with(&base, &guard, store.clone()) {
            Ok(h) => h,
            Err(e) => return setup(format!("live hub: {e}")),
        };
        let writer = hub.write_handle();
        for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
            let r = if *is_insert {
                writer.insert(*rel, t.clone(), &guard).map(|_| ())
            } else {
                writer.delete(*rel, t, &guard).map(|_| ())
            };
            if let Err(e) = r {
                return setup(format!("live op {k}: {e}"));
            }
            counters.ops_run += 1;
        }
    }
    let final_epoch = store.lock().epoch();
    if snapshot_every.is_some() {
        // Ops predating the open epoch's WAL are exactly those not
        // reflected as records in it.
        ops_at_epoch_start = ops.len() - store.lock().wal_records() as usize;
    }
    drop(store); // "kill -9": nothing flushed beyond what each op wrote

    // --- The in-memory oracle --------------------------------------------
    let lines: Vec<String> = ops
        .iter()
        .map(|(is_insert, rel, t)| op_line(&db, &case_symbols, *is_insert, *rel, t))
        .collect();
    let mirror = match build_mirror(&engine, &lines, probe) {
        Ok(m) => m,
        Err(e) => return setup(e),
    };

    // --- Crash at every WAL byte boundary ---------------------------------
    check_all_cuts(
        seed,
        &engine,
        probe,
        &mirror,
        ops_at_epoch_start,
        live_dir.path(),
        final_epoch,
        counters,
        metrics,
    )
}

/// The cut loop shared by the sequential and concurrent crash arms:
/// truncates the live WAL at every byte boundary, recovers each prefix
/// in a scratch dir (reporting into `metrics`), and differentially
/// checks state, verdict and a probe-query answer against
/// `mirror[ops_at_epoch_start + survivors]`. The answer comes from a
/// hub over the recovered state, built on the case's plain `engine`.
#[allow(clippy::too_many_arguments)]
fn check_all_cuts(
    seed: u64,
    engine: &Engine,
    probe: AttrSet,
    mirror: &[MirrorPoint],
    ops_at_epoch_start: usize,
    live_dir: &Path,
    final_epoch: u64,
    counters: &mut CrashCounters,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Vec<Failure> {
    let db = engine.scheme();
    let guard = Guard::unlimited();
    let mut failures = Vec::new();
    let mut fail = |at: usize, kind: &str, detail: String| {
        failures.push(cut_failure(seed, at as u64, kind, detail));
    };
    let wal_path_live = snapshot::wal_path(live_dir, final_epoch);
    let wal_bytes = match std::fs::read(&wal_path_live) {
        Ok(b) => b,
        Err(e) => {
            fail(0, "setup", format!("read live wal: {e}"));
            return failures;
        }
    };
    let scratch = TempDir::new("crash-cut");
    if let Err(e) = stage_scratch(live_dir, scratch.path(), final_epoch) {
        fail(0, "setup", format!("stage scratch dir: {e}"));
        return failures;
    }
    let scratch_wal = snapshot::wal_path(scratch.path(), final_epoch);
    for cut in 0..=wal_bytes.len() {
        counters.crash_points += 1;
        if std::fs::write(&scratch_wal, &wal_bytes[..cut]).is_err() {
            fail(cut, "setup", "cannot write truncated wal".to_string());
            continue;
        }
        let survivors = match wal::scan_bytes(&wal_bytes[..cut], &scratch_wal) {
            Ok(scan) => scan.records.len(),
            Err(e) => {
                fail(cut, "setup", format!("prefix scan: {e}"));
                continue;
            }
        };
        let expected = &mirror[ops_at_epoch_start + survivors];
        let recovered =
            match recover::recover_with(scratch.path(), TraceHandle::none(), metrics.cloned()) {
                Ok(r) => r,
                Err(e) => {
                    fail(cut, "recovery_error", e.to_string());
                    continue;
                }
            };
        let rec_symbols = recovered.store.symbols();
        let rec_symbols = rec_symbols.lock().expect("recovered symbol lock");
        let got_lines = render_state_lines(db, &recovered.state, &rec_symbols);
        if got_lines != expected.state_lines {
            fail(
                cut,
                "state",
                format!(
                    "recovered [{}] != oracle [{}] after {} surviving ops",
                    got_lines.join("; "),
                    expected.state_lines.join("; "),
                    ops_at_epoch_start + survivors
                ),
            );
            continue;
        }
        if recovered.consistent != expected.consistent {
            fail(
                cut,
                "verdict",
                format!(
                    "recovered consistent={} oracle={}",
                    recovered.consistent, expected.consistent
                ),
            );
            continue;
        }
        // Differential query answer through a fresh hub over the
        // recovered state.
        let got_answer = engine
            .hub(&recovered.state, &guard)
            .and_then(|h| h.read_view().total_projection(probe, &guard))
            .map(|o| o.map(|ts| render_answer_lines(db, &ts, &rec_symbols)));
        match got_answer {
            Ok(got) => {
                if got != expected.answer {
                    fail(
                        cut,
                        "answer",
                        format!("recovered {:?} != oracle {:?}", got, expected.answer),
                    );
                }
            }
            Err(e) => fail(cut, "answer", format!("recovered query failed: {e}")),
        }
    }
    failures
}

/// The crash arm (`idr fuzz --crash`): each case's durable op stream,
/// its WAL cut at every byte and each cut recovered and checked against
/// the mirror.
pub fn crash_fuzz(campaign: Campaign<'_>) -> Summary<CrashCounters> {
    campaign.run("crash fuzz", CrashCounters::default(), run_case)
}

/// One concurrent crash case: several writer threads drive a
/// group-commit [`SharedStore`] (non-zero window, so appends coalesce
/// into multi-record batches), then the WAL is cut at every byte —
/// including mid-batch — and each prefix's recovery is checked against
/// a serial replay of the surviving committed order. The full-length
/// cut is additionally checked against the live concurrent final state,
/// closing the serial==concurrent loop end to end.
fn run_concurrent_case(
    seed: u64,
    counters: &mut CrashCounters,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Vec<Failure> {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut case_symbols = SymbolTable::new();
    let clients = rng.gen_range_inclusive(2, 3);
    let client_ops: Vec<Vec<CrashOp>> = (0..clients)
        .map(|_| gen_ops(&db, &mut case_symbols, &mut rng))
        .collect();
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    let setup = |detail: String| vec![cut_failure(seed, 0, "setup", detail)];

    // --- Live concurrent run over a group-commit store --------------------
    let live_dir = TempDir::new("crash-conc-live");
    let window = Duration::from_micros(300);
    let store = match live_store(live_dir.path(), &db, &case_symbols, metrics, None, window) {
        Ok(s) => s,
        Err(e) => return setup(e),
    };
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let (conc_lines, conc_consistent) = {
        let base = DatabaseState::empty(&db);
        let hub = match live_engine(&engine, metrics).hub_with(&base, &guard, store.clone()) {
            Ok(h) => h,
            Err(e) => return setup(format!("live hub: {e}")),
        };
        let errors = std::sync::Mutex::new(Vec::<String>::new());
        std::thread::scope(|s| {
            for (c, ops) in client_ops.iter().enumerate() {
                let writer = hub.write_handle();
                let errors = &errors;
                let guard = &guard;
                s.spawn(move || {
                    for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
                        let r = if *is_insert {
                            writer.insert(*rel, t.clone(), guard).map(|_| ())
                        } else {
                            writer.delete(*rel, t, guard).map(|_| ())
                        };
                        if let Err(e) = r {
                            errors
                                .lock()
                                .expect("error list lock")
                                .push(format!("client {c} op {k}: {e}"));
                            return;
                        }
                    }
                });
            }
        });
        let errors = errors.into_inner().expect("error list lock");
        if !errors.is_empty() {
            return setup(format!("live ops failed: {}", errors.join("; ")));
        }
        counters.ops_run += client_ops.iter().map(Vec::len).sum::<usize>();
        let view = hub.read_view();
        (
            render_state_lines(&db, view.state(), &case_symbols),
            view.is_consistent(),
        )
    };
    let final_epoch = store.lock().epoch();
    drop(store); // "kill -9"

    // --- Mirror: serial replay of the committed (WAL) order ---------------
    let wal_path_live = snapshot::wal_path(live_dir.path(), final_epoch);
    let wal_bytes = match std::fs::read(&wal_path_live) {
        Ok(b) => b,
        Err(e) => return setup(format!("read live wal: {e}")),
    };
    let committed: Vec<String> = match wal::scan_bytes(&wal_bytes, &wal_path_live) {
        Ok(scan) => scan.records,
        Err(e) => return setup(format!("scan live wal: {e}")),
    };
    let mirror = match build_mirror(&engine, &committed, probe) {
        Ok(m) => m,
        Err(e) => return setup(e),
    };
    // Theorem 4.2 end to end: a serial replay of the full committed
    // order must reproduce the concurrent final state and verdict.
    let mut failures = Vec::new();
    let last = mirror.last().expect("mirror has a point per prefix");
    if last.state_lines != conc_lines || last.consistent != conc_consistent {
        failures.push(cut_failure(
            seed,
            wal_bytes.len() as u64,
            "serial_vs_concurrent",
            format!(
                "serial replay of {} committed op(s) gives [{}] consistent={} \
                 but the concurrent run finished at [{}] consistent={}",
                committed.len(),
                last.state_lines.join("; "),
                last.consistent,
                conc_lines.join("; "),
                conc_consistent
            ),
        ));
    }

    // --- Crash at every WAL byte boundary (mid-batch cuts included) -------
    failures.extend(check_all_cuts(
        seed,
        &engine,
        probe,
        &mirror,
        0,
        live_dir.path(),
        final_epoch,
        counters,
        metrics,
    ));
    failures
}

/// The concurrent crash arm (`idr fuzz --crash --concurrent`):
/// multi-writer group-commit runs whose WAL is cut at every byte,
/// including mid-batch.
pub fn concurrent_crash_fuzz(campaign: Campaign<'_>) -> Summary<CrashCounters> {
    campaign.run("concurrent crash fuzz", CrashCounters::default(), run_concurrent_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process equivalent of the CI crash-fuzz smoke step.
    #[test]
    fn bounded_crash_fuzz_is_clean() {
        let summary = crash_fuzz(Campaign::new(42, 12));
        assert_eq!(summary.cases, 12);
        assert!(summary.counters.crash_points > 100, "{}", summary.counters.crash_points);
        assert!(
            summary.is_clean(),
            "failures: {}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    /// Group-commit WALs cut mid-batch must recover to the serial
    /// replay of the surviving committed prefix, and the full log must
    /// replay to the concurrent final state.
    #[test]
    fn bounded_concurrent_crash_fuzz_is_clean() {
        let summary = concurrent_crash_fuzz(Campaign::new(42, 6));
        assert_eq!(summary.cases, 6);
        assert!(summary.counters.crash_points > 100, "{}", summary.counters.crash_points);
        assert!(
            summary.is_clean(),
            "failures: {}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    #[test]
    fn crash_fuzz_is_deterministic() {
        let a = crash_fuzz(Campaign::new(7, 4));
        let b = crash_fuzz(Campaign::new(7, 4));
        assert_eq!(a.to_string(), b.to_string());
    }
}
