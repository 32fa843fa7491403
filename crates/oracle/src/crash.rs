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

use std::path::Path;
use std::sync::Arc;

use idr_core::Engine;
use idr_relation::exec::Guard;
use idr_relation::parse::render_tuple_line;
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable, Tuple};
use idr_store::tempdir::TempDir;
use idr_store::{recover, snapshot, wal, SharedStore, Store};
use idr_workload::generators::{
    block_chain_scheme, chain_scheme, cycle_scheme, example2_scheme, split_scheme, star_scheme,
};

use crate::gen::{corrupt_tuple, entity_tuple};

/// One crash point whose recovery disagreed with the in-memory oracle
/// (or failed when it should have succeeded).
#[derive(Clone, Debug)]
pub struct CrashFailure {
    /// The per-case seed (reproduces the whole case).
    pub seed: u64,
    /// The WAL byte length the crash truncated to.
    pub crash_point: u64,
    /// What disagreed (`state`, `verdict`, `answer`, `recovery_error`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} crash@{} [{}]: {}",
            self.seed, self.crash_point, self.kind, self.detail
        )
    }
}

/// Outcome of a crash-fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct CrashFuzzSummary {
    /// Cases (op streams × data dirs) executed.
    pub cases: usize,
    /// Total crash points (byte boundaries) recovered from.
    pub crash_points: usize,
    /// Total ops executed across the live (never-crashed) runs.
    pub ops_run: usize,
    /// Disagreements, in discovery order.
    pub failures: Vec<CrashFailure>,
}

impl CrashFuzzSummary {
    /// Whether every crash point recovered to the oracle's state.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The per-prefix expectation computed by the in-memory oracle: the
/// state after the first `k` ops, rendered; its verdict; the rendered
/// probe-query answer.
struct MirrorPoint {
    state_lines: Vec<String>,
    consistent: bool,
    answer: Option<Vec<String>>,
}

/// A scheme drawn from the same families the main fuzzer covers,
/// including the non-IR Example 2 (whole-state backend). Shared with
/// the sync arm ([`crate::sync_fuzz`]).
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

/// Renders a state as sorted fixture lines — the cross-symbol-table
/// fingerprint (recovery re-interns values in its own order, so raw
/// `Value` comparisons would be meaningless).
pub(crate) fn state_lines(db: &DatabaseScheme, state: &DatabaseState, symbols: &SymbolTable) -> Vec<String> {
    let mut lines: Vec<String> = state
        .iter_all()
        .map(|(i, t)| render_tuple_line(db, symbols, i, t))
        .collect();
    lines.sort();
    lines
}

/// Renders a query answer's tuples as sorted `attr=value` lines.
pub(crate) fn answer_lines(
    db: &DatabaseScheme,
    tuples: &[Tuple],
    symbols: &SymbolTable,
) -> Vec<String> {
    let u = db.universe();
    let mut lines: Vec<String> = tuples
        .iter()
        .map(|t| {
            t.iter()
                .map(|(a, v)| format!("{}={}", u.name(a), symbols.resolve(v)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    lines.sort();
    lines.dedup();
    lines
}

/// Replays `ops` prefixes through a purely in-memory hub, recording
/// the expected state/verdict/answer after every prefix length.
fn build_mirror(
    engine: &Engine,
    ops: &[CrashOp],
    probe: AttrSet,
    symbols: &SymbolTable,
) -> Result<Vec<MirrorPoint>, String> {
    let db = engine.scheme();
    let guard = Guard::unlimited();
    let hub = engine
        .hub(&DatabaseState::empty(db), &guard)
        .map_err(|e| format!("mirror hub: {e}"))?;
    let writer = hub.write_handle();
    let point = || -> Result<MirrorPoint, String> {
        let view = hub.read_view();
        let answer = view
            .total_projection(probe, &guard)
            .map_err(|e| format!("mirror query: {e}"))?
            .map(|ts| answer_lines(db, &ts, symbols));
        Ok(MirrorPoint {
            state_lines: state_lines(db, view.state(), symbols),
            consistent: view.is_consistent(),
            answer,
        })
    };
    let mut mirror = vec![point()?];
    for (is_insert, rel, t) in ops {
        if *is_insert {
            writer
                .insert(*rel, t.clone(), &guard)
                .map_err(|e| format!("mirror insert: {e}"))?;
        } else {
            writer
                .delete(*rel, t, &guard)
                .map_err(|e| format!("mirror delete: {e}"))?;
        }
        mirror.push(point()?);
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

/// Runs one case: live durable run, then a recovery + differential
/// check at every WAL byte boundary. Returns the crash points checked
/// and any failures.
fn run_case(seed: u64, summary: &mut CrashFuzzSummary) {
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
    let mut fail = |crash_point: u64, kind: &str, detail: String| {
        summary.failures.push(CrashFailure {
            seed,
            crash_point,
            kind: kind.to_string(),
            detail,
        });
    };

    // --- Live durable run -------------------------------------------------
    let live_dir = TempDir::new("crash-live");
    let store = match Store::init(live_dir.path(), &db) {
        Ok(s) => s.with_sync(false).with_snapshot_every(snapshot_every),
        Err(e) => return fail(0, "setup", format!("init: {e}")),
    };
    let store = Arc::new(SharedStore::new(store));
    {
        let shared = store.symbols();
        shared
            .lock()
            .expect("fresh store symbol lock")
            .clone_from(&case_symbols);
    }
    // `ops_before_epoch[..]` tracks, for the epoch open *after* op k,
    // how many ops predate its WAL — the offset that maps surviving
    // records back to op counts after a snapshot rotation.
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let mut ops_at_epoch_start = 0usize;
    {
        let base = DatabaseState::empty(&db);
        let hub = match engine.hub_with(&base, &guard, store.clone()) {
            Ok(h) => h,
            Err(e) => return fail(0, "setup", format!("live hub: {e}")),
        };
        let writer = hub.write_handle();
        for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
            let r = if *is_insert {
                writer.insert(*rel, t.clone(), &guard).map(|_| ())
            } else {
                writer.delete(*rel, t, &guard).map(|_| ())
            };
            if let Err(e) = r {
                return fail(0, "setup", format!("live op {k}: {e}"));
            }
            summary.ops_run += 1;
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
    let mirror = match build_mirror(&engine, &ops, probe, &case_symbols) {
        Ok(m) => m,
        Err(e) => return fail(0, "setup", e),
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
        summary,
    );
}

/// The cut loop shared by the sequential and concurrent crash arms:
/// truncates the live WAL at every byte boundary, recovers each prefix
/// in a scratch dir, and differentially checks state, verdict and a
/// probe-query answer against `mirror[ops_at_epoch_start + survivors]`.
/// The answer comes from a hub over the recovered state, built on the
/// case's `engine`.
#[allow(clippy::too_many_arguments)]
fn check_all_cuts(
    seed: u64,
    engine: &Engine,
    probe: AttrSet,
    mirror: &[MirrorPoint],
    ops_at_epoch_start: usize,
    live_dir: &Path,
    final_epoch: u64,
    summary: &mut CrashFuzzSummary,
) {
    let db = engine.scheme();
    let guard = Guard::unlimited();
    let mut fail = |crash_point: u64, kind: &str, detail: String| {
        summary.failures.push(CrashFailure {
            seed,
            crash_point,
            kind: kind.to_string(),
            detail,
        });
    };
    let wal_path_live = snapshot::wal_path(live_dir, final_epoch);
    let wal_bytes = match std::fs::read(&wal_path_live) {
        Ok(b) => b,
        Err(e) => return fail(0, "setup", format!("read live wal: {e}")),
    };
    let scratch = TempDir::new("crash-cut");
    if let Err(e) = stage_scratch(live_dir, scratch.path(), final_epoch) {
        return fail(0, "setup", format!("stage scratch dir: {e}"));
    }
    let scratch_wal = snapshot::wal_path(scratch.path(), final_epoch);
    for cut in 0..=wal_bytes.len() {
        summary.crash_points += 1;
        if std::fs::write(&scratch_wal, &wal_bytes[..cut]).is_err() {
            fail(cut as u64, "setup", "cannot write truncated wal".to_string());
            continue;
        }
        let survivors = match wal::scan_bytes(&wal_bytes[..cut], &scratch_wal) {
            Ok(scan) => scan.records.len(),
            Err(e) => {
                fail(cut as u64, "setup", format!("prefix scan: {e}"));
                continue;
            }
        };
        let expected = &mirror[ops_at_epoch_start + survivors];
        let recovered = match recover::recover(scratch.path()) {
            Ok(r) => r,
            Err(e) => {
                fail(cut as u64, "recovery_error", e.to_string());
                continue;
            }
        };
        let rec_symbols = recovered.store.symbols();
        let rec_symbols = rec_symbols.lock().expect("recovered symbol lock");
        let got_lines = state_lines(db, &recovered.state, &rec_symbols);
        if got_lines != expected.state_lines {
            fail(
                cut as u64,
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
                cut as u64,
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
            .map(|o| o.map(|ts| answer_lines(db, &ts, &rec_symbols)));
        match got_answer {
            Ok(got) => {
                if got != expected.answer {
                    fail(
                        cut as u64,
                        "answer",
                        format!("recovered {:?} != oracle {:?}", got, expected.answer),
                    );
                }
            }
            Err(e) => fail(cut as u64, "answer", format!("recovered query failed: {e}")),
        }
    }
}

/// Runs `cases` crash cases from master seed `seed`; per-case seeds are
/// drawn from the master stream (same convention as [`crate::fuzz`]).
/// `progress` is called after each case with `(index, failures so
/// far)`.
pub fn crash_fuzz(
    seed: u64,
    cases: usize,
    mut progress: Option<&mut dyn FnMut(usize, usize)>,
) -> CrashFuzzSummary {
    let mut master = SplitMix64::new(seed);
    let mut summary = CrashFuzzSummary::default();
    for k in 0..cases {
        let case_seed = master.next_u64();
        summary.cases += 1;
        run_case(case_seed, &mut summary);
        if let Some(p) = progress.as_deref_mut() {
            p(k + 1, summary.failures.len());
        }
    }
    summary
}

/// Replays already-rendered op lines (the committed WAL order of a
/// concurrent run) through a purely in-memory hub, recording the
/// expected state/verdict/answer after every prefix length — the mirror
/// the concurrent crash arm cuts against.
fn build_mirror_from_lines(
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
            .map(|ts| answer_lines(db, &ts, &symbols));
        mirror.push(MirrorPoint {
            state_lines: state_lines(db, view.state(), &symbols),
            consistent: view.is_consistent(),
            answer,
        });
    }
    Ok(mirror)
}

/// One concurrent crash case: several writer threads drive a
/// group-commit [`SharedStore`] (non-zero window, so appends coalesce
/// into multi-record batches), then the WAL is cut at every byte —
/// including mid-batch — and each prefix's recovery is checked against
/// a serial replay of the surviving committed order. The full-length
/// cut is additionally checked against the live concurrent final state,
/// closing the serial==concurrent loop end to end.
fn run_concurrent_case(seed: u64, summary: &mut CrashFuzzSummary) {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut case_symbols = SymbolTable::new();
    let clients = rng.gen_range_inclusive(2, 3);
    let client_ops: Vec<Vec<CrashOp>> = (0..clients)
        .map(|_| gen_ops(&db, &mut case_symbols, &mut rng))
        .collect();
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    let mut fail = |crash_point: u64, kind: &str, detail: String| {
        summary.failures.push(CrashFailure {
            seed,
            crash_point,
            kind: kind.to_string(),
            detail,
        });
    };

    // --- Live concurrent run over a group-commit store --------------------
    let live_dir = TempDir::new("crash-conc-live");
    let store = match Store::init(live_dir.path(), &db) {
        Ok(s) => s.with_sync(false),
        Err(e) => return fail(0, "setup", format!("init: {e}")),
    };
    let store = Arc::new(
        SharedStore::new(store).with_group_window(std::time::Duration::from_micros(300)),
    );
    {
        let shared = store.symbols();
        shared
            .lock()
            .expect("fresh store symbol lock")
            .clone_from(&case_symbols);
    }
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let (conc_lines, conc_consistent) = {
        let base = DatabaseState::empty(&db);
        let hub = match engine.hub_with(&base, &guard, store.clone()) {
            Ok(h) => h,
            Err(e) => return fail(0, "setup", format!("live hub: {e}")),
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
            return fail(0, "setup", format!("live ops failed: {}", errors.join("; ")));
        }
        summary.ops_run += client_ops.iter().map(Vec::len).sum::<usize>();
        let view = hub.read_view();
        (
            state_lines(&db, view.state(), &case_symbols),
            view.is_consistent(),
        )
    };
    let final_epoch = store.lock().epoch();
    drop(store); // "kill -9"

    // --- Mirror: serial replay of the committed (WAL) order ---------------
    let wal_path_live = snapshot::wal_path(live_dir.path(), final_epoch);
    let wal_bytes = match std::fs::read(&wal_path_live) {
        Ok(b) => b,
        Err(e) => return fail(0, "setup", format!("read live wal: {e}")),
    };
    let committed: Vec<String> = match wal::scan_bytes(&wal_bytes, &wal_path_live) {
        Ok(scan) => scan.records,
        Err(e) => return fail(0, "setup", format!("scan live wal: {e}")),
    };
    let mirror = match build_mirror_from_lines(&engine, &committed, probe) {
        Ok(m) => m,
        Err(e) => return fail(0, "setup", e),
    };
    // Theorem 4.2 end to end: a serial replay of the full committed
    // order must reproduce the concurrent final state and verdict.
    let last = mirror.last().expect("mirror has a point per prefix");
    if last.state_lines != conc_lines || last.consistent != conc_consistent {
        fail(
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
        );
    }

    // --- Crash at every WAL byte boundary (mid-batch cuts included) -------
    check_all_cuts(
        seed,
        &engine,
        probe,
        &mirror,
        0,
        live_dir.path(),
        final_epoch,
        summary,
    );
}

/// Runs `cases` **concurrent** crash cases from master seed `seed`:
/// multi-writer group-commit runs whose WAL is cut at every byte,
/// including mid-batch. Same summary shape and seeding convention as
/// [`crash_fuzz`] (`idr fuzz --crash --concurrent`).
pub fn concurrent_crash_fuzz(
    seed: u64,
    cases: usize,
    mut progress: Option<&mut dyn FnMut(usize, usize)>,
) -> CrashFuzzSummary {
    let mut master = SplitMix64::new(seed);
    let mut summary = CrashFuzzSummary::default();
    for k in 0..cases {
        let case_seed = master.next_u64();
        summary.cases += 1;
        run_concurrent_case(case_seed, &mut summary);
        if let Some(p) = progress.as_deref_mut() {
            p(k + 1, summary.failures.len());
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process equivalent of the CI crash-fuzz smoke step.
    #[test]
    fn bounded_crash_fuzz_is_clean() {
        let summary = crash_fuzz(42, 12, None);
        assert_eq!(summary.cases, 12);
        assert!(summary.crash_points > 100, "{}", summary.crash_points);
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
        let summary = concurrent_crash_fuzz(42, 6, None);
        assert_eq!(summary.cases, 6);
        assert!(summary.crash_points > 100, "{}", summary.crash_points);
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
        let a = crash_fuzz(7, 4, None);
        let b = crash_fuzz(7, 4, None);
        assert_eq!(a.crash_points, b.crash_points);
        assert_eq!(a.ops_run, b.ops_run);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
