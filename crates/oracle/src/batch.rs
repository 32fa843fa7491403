//! Batch-vs-serial differential fuzzing for the batch write pipeline.
//!
//! The eighth oracle arm (`idr fuzz --batch`). The batch path's whole
//! contract is *observational equivalence*: applying a framed op group
//! through [`WriteHandle::apply_batch`](idr_core::WriteHandle) must be
//! indistinguishable from applying its ops one by one — same per-op
//! verdicts, same final state, same consistency verdict, same query
//! answers. The chase makes that a theorem (Church–Rosser confluence
//! for pure-insert groups, explicit per-op replay for the rest), and
//! this arm checks it differentially:
//!
//! * the same generated op stream as the crash arm (accepted and
//!   rejected inserts, deletes of present and absent tuples) is cut
//!   into random frames — single ops, small mixed groups, and one big
//!   pure-insert prefix now and then — and applied through
//!   `apply_batch` over a **real durable store**;
//! * a second, purely in-memory hub applies the identical stream per
//!   op; verdicts are compared position by position, then state lines,
//!   verdict, and a probe projection;
//! * finally the batch run's data dir is recovered and its replayed
//!   state is diffed again — a logged batch must replay to exactly the
//!   state it applied (the batch WAL protocol logs *after* verdicts and
//!   *before* memory mutation, so log == memory is the invariant under
//!   test).
//!
//! Ops run under unlimited guards: a typed error from either side is
//! itself a failure, not a skip.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use idr_core::serving::BatchOp;
use idr_core::Engine;
use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::{render_answer_lines, render_state_lines};
use idr_relation::rng::SplitMix64;
use idr_relation::{DatabaseState, SymbolTable};
use idr_store::recover;
use idr_store::tempdir::TempDir;

use crate::crash::{gen_ops, gen_scheme, live_engine, live_store, CrashOp};
use crate::{Campaign, Counters, Failure, Summary};

/// The batch arm's tallies.
#[derive(Clone, Debug, Default)]
pub struct BatchCounters {
    /// Framed groups committed.
    pub groups: usize,
    /// Ops applied through the batch side.
    pub ops_run: usize,
}

impl fmt::Display for BatchCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} framed group(s) committed, {} op(s) applied",
            self.groups, self.ops_run
        )
    }
}

impl Counters for BatchCounters {}

/// Cuts `n` ops into frame sizes. Mostly small mixed frames (1–4 ops);
/// one case in four opens with a single large frame so the pure-insert
/// fast path sees group sizes the small frames never produce.
fn gen_frames(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut frames = Vec::new();
    let mut left = n;
    if rng.gen_pct(25) && n > 4 {
        let big = rng.gen_range_inclusive(4, n);
        frames.push(big);
        left -= big;
    }
    while left > 0 {
        let sz = rng.gen_range_inclusive(1, left.min(4));
        frames.push(sz);
        left -= sz;
    }
    frames
}

/// One case: the framed stream through `apply_batch` over a durable
/// store (the side that reports into `metrics`), the same stream per op
/// in memory, the differential checks, then the store's recovery.
/// `Err((kind, detail))` on the first disagreement.
fn run_case(
    seed: u64,
    counters: &mut BatchCounters,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<(), (&'static str, String)> {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut case_symbols = SymbolTable::new();
    let ops = gen_ops(&db, &mut case_symbols, &mut rng);
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    let frames = gen_frames(ops.len(), &mut rng);
    let guard = Guard::unlimited();

    // --- Batch side: framed groups over a real durable store -------------
    let live_dir = TempDir::new("batch-live");
    let store = live_store(
        live_dir.path(),
        &db,
        &case_symbols,
        metrics,
        None,
        Duration::ZERO,
    )
    .map_err(|e| ("setup", e))?;
    let engine = live_engine(&Engine::new(db.clone()), metrics);
    let mut batch_verdicts: Vec<bool> = Vec::with_capacity(ops.len());
    let batch_final;
    let batch_consistent;
    let batch_answer;
    {
        let base = DatabaseState::empty(&db);
        let hub = engine
            .hub_with(&base, &guard, store.clone())
            .map_err(|e| ("setup", format!("batch hub: {e}")))?;
        let writer = hub.write_handle();
        let mut next = 0usize;
        for &sz in &frames {
            let group: Vec<BatchOp> = ops[next..next + sz]
                .iter()
                .map(|(is_insert, rel, t): &CrashOp| {
                    if *is_insert {
                        BatchOp::Insert {
                            rel: *rel,
                            t: t.clone(),
                        }
                    } else {
                        BatchOp::Delete {
                            rel: *rel,
                            t: t.clone(),
                        }
                    }
                })
                .collect();
            next += sz;
            let vs = writer
                .apply_batch(&group, &guard)
                .map_err(|e| ("batch_error", format!("group of {sz}: {e}")))?;
            batch_verdicts.extend(vs);
            counters.groups += 1;
            counters.ops_run += sz;
        }
        let view = hub.read_view();
        batch_final = render_state_lines(&db, view.state(), &case_symbols);
        batch_consistent = view.is_consistent();
        batch_answer = view
            .total_projection(probe, &guard)
            .map_err(|e| ("batch_error", format!("batch probe: {e}")))?
            .map(|ts| render_answer_lines(&db, &ts, &case_symbols));
    }
    drop(store);

    // --- Serial side: the same stream, one op at a time, in memory -------
    let serial_engine = Engine::new(db.clone());
    let hub = serial_engine
        .hub(&DatabaseState::empty(&db), &guard)
        .map_err(|e| ("setup", format!("serial hub: {e}")))?;
    let writer = hub.write_handle();
    let mut serial_verdicts: Vec<bool> = Vec::with_capacity(ops.len());
    for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
        let r = if *is_insert {
            writer.insert(*rel, t.clone(), &guard)
        } else {
            writer.delete(*rel, t, &guard)
        };
        serial_verdicts.push(r.map_err(|e| ("setup", format!("serial op {k}: {e}")))?);
    }
    let view = hub.read_view();

    // --- Differential checks ----------------------------------------------
    if batch_verdicts != serial_verdicts {
        return Err((
            "verdict",
            format!("batch {batch_verdicts:?} != serial {serial_verdicts:?} (frames {frames:?})"),
        ));
    }
    let serial_final = render_state_lines(&db, view.state(), &case_symbols);
    if batch_final != serial_final {
        return Err((
            "state",
            format!(
                "batch [{}] != serial [{}] (frames {frames:?})",
                batch_final.join("; "),
                serial_final.join("; ")
            ),
        ));
    }
    if batch_consistent != view.is_consistent() {
        return Err((
            "consistency",
            format!(
                "batch consistent={batch_consistent} serial={}",
                view.is_consistent()
            ),
        ));
    }
    let serial_answer = view
        .total_projection(probe, &guard)
        .map_err(|e| ("setup", format!("serial probe: {e}")))?
        .map(|ts| render_answer_lines(&db, &ts, &case_symbols));
    if batch_answer != serial_answer {
        return Err((
            "answer",
            format!("batch {batch_answer:?} != serial {serial_answer:?}"),
        ));
    }

    // --- Recovery: the logged batches must replay to the applied state ---
    let recovered = recover::recover_with(live_dir.path(), TraceHandle::none(), metrics.cloned())
        .map_err(|e| ("recovery", format!("recover: {e}")))?;
    let rec_symbols = recovered.store.symbols();
    let rec_symbols = rec_symbols.lock().expect("recovered symbol lock");
    let rec_lines = render_state_lines(&db, &recovered.state, &rec_symbols);
    if rec_lines != batch_final {
        return Err((
            "recovery",
            format!(
                "recovered [{}] != applied [{}] (frames {frames:?})",
                rec_lines.join("; "),
                batch_final.join("; ")
            ),
        ));
    }
    if recovered.consistent != batch_consistent {
        return Err((
            "recovery",
            format!(
                "recovered consistent={} applied={batch_consistent}",
                recovered.consistent
            ),
        ));
    }
    Ok(())
}

/// The batch arm (`idr fuzz --batch`): each case's framed stream
/// through `apply_batch` against per-op serial application and against
/// the store's recovery.
pub fn batch_fuzz(campaign: Campaign<'_>) -> Summary<BatchCounters> {
    campaign.run(
        "batch fuzz",
        BatchCounters::default(),
        |seed, counters, metrics| {
            run_case(seed, counters, metrics)
                .err()
                .map(|(kind, detail)| Failure::new(seed, kind, detail))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_fuzz_smoke_is_clean() {
        let summary = batch_fuzz(Campaign::new(0xBA7C4, 25));
        assert_eq!(summary.cases, 25);
        assert!(summary.counters.groups > 0 && summary.counters.ops_run > 0);
        assert!(
            summary.is_clean(),
            "batch != serial: {:?}",
            summary.failures
        );
    }

    #[test]
    fn frames_partition_exactly() {
        let mut rng = SplitMix64::new(7);
        for n in 1..40 {
            let frames = gen_frames(n, &mut rng);
            assert_eq!(frames.iter().sum::<usize>(), n);
            assert!(frames.iter().all(|&f| f > 0));
        }
    }
}
