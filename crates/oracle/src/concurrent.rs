//! Concurrent differential fuzzing for the serving layer — the
//! oracle's seventh arm.
//!
//! Theorem 4.2 makes a sharp concurrency claim: on an
//! independence-reducible scheme, per-block write serialization plus
//! cross-block commutativity mean that **a serial replay of the
//! committed op order reproduces the concurrent final state**. This arm
//! tests exactly that. Each seeded case spawns 2–4 client threads over
//! one [`Hub`](idr_core::serving::Hub) wired to a `RecordingSink`
//! (an in-memory [`DurabilitySink`] that captures the committed op
//! order — the same order a group-commit WAL would persist). After the
//! threads join, a fresh single-threaded hub replays the recorded order
//! and the rendered final state, the consistency verdict, and a
//! probe-query answer are compared byte for byte.
//!
//! The interleaving — and therefore the committed order and the final
//! state — varies run to run; what must *never* vary is the
//! serial==concurrent equivalence. A divergence is shrunk greedily
//! against the captured concurrent state (which is plain data, so the
//! shrink is deterministic even though the run was not) and written out
//! as a self-describing fixture: the scheme, the committed op lines,
//! and the concurrent state they failed to replay to.
//!
//! Crash-point coverage for the same concurrent shape (group-commit
//! WAL cut mid-batch) lives in [`crate::crash::concurrent_crash_fuzz`].

use std::fmt;
use std::sync::{Arc, Mutex};

use idr_core::durability::{DurabilitySink, DurableOp};
use idr_core::Engine;
use idr_obs::{MetricsRegistry, OpTimeline, Phase};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::parse::{render_answer_lines, render_scheme_file, render_state_lines};
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable};

use crate::crash::{gen_ops, gen_scheme, live_engine, op_line, CrashOp};
use crate::{Campaign, Counters, Failure, Summary};

/// The concurrent arm's tallies.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentCounters {
    /// Client threads spawned.
    pub clients: usize,
    /// Ops committed.
    pub ops_run: usize,
}

impl fmt::Display for ConcurrentCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} client thread(s) raced, {} op(s) committed",
            self.clients, self.ops_run
        )
    }
}

impl Counters for ConcurrentCounters {}

/// An in-memory [`DurabilitySink`] that records the committed op order:
/// each `log_ops` call renders its unit's ops as canonical replay lines
/// (`insert R1: A=a B=b`) under the sink's internal lock, so the
/// recorded order is exactly the order a WAL would have persisted.
/// Values are resolved against the case's pre-interned symbol table
/// (clients never intern during the run).
#[derive(Debug)]
struct RecordingSink {
    db: DatabaseScheme,
    symbols: SymbolTable,
    committed: Mutex<Vec<String>>,
}

impl RecordingSink {
    fn new(db: DatabaseScheme, symbols: SymbolTable) -> Self {
        RecordingSink {
            db,
            symbols,
            committed: Mutex::new(Vec::new()),
        }
    }
}

impl DurabilitySink for RecordingSink {
    fn log_ops(&self, ops: &[DurableOp<'_>]) -> Result<(), ExecError> {
        let mut committed = self
            .committed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for &op in ops {
            let (is_insert, rel, t) = match op {
                DurableOp::Insert { rel, t } => (true, rel, t),
                DurableOp::Delete { rel, t } => (false, rel, t),
            };
            committed.push(op_line(&self.db, &self.symbols, is_insert, rel, t));
        }
        Ok(())
    }

    fn op_finished(&self, _ops: usize) -> Result<bool, ExecError> {
        Ok(false)
    }

    fn write_snapshot(&self, _state: &DatabaseState) -> Result<(), ExecError> {
        Ok(())
    }
}

/// What the concurrent run left behind: the committed order and the
/// rendered observation the serial replay must reproduce.
struct Observed {
    committed: Vec<String>,
    state_lines: Vec<String>,
    consistent: bool,
    answer: Option<Vec<String>>,
}

/// The serial replay's rendering of one run: state lines, verdict,
/// probe answer — the triple compared against [`Observed`].
type Replayed = (Vec<String>, bool, Option<Vec<String>>);

/// Serially replays `lines` through a fresh hub and renders the same
/// three observations the concurrent run produced.
fn serial_replay(db: &DatabaseScheme, lines: &[String], probe: AttrSet) -> Result<Replayed, String> {
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let mut symbols = SymbolTable::new();
    let hub = engine
        .hub(&DatabaseState::empty(db), &guard)
        .map_err(|e| format!("serial hub: {e}"))?;
    let writer = hub.write_handle();
    for line in lines {
        writer
            .replay_op(line, &mut symbols, &guard)
            .map_err(|e| format!("serial replay of {line:?}: {e}"))?;
    }
    let view = hub.read_view();
    let answer = view
        .total_projection(probe, &guard)
        .map_err(|e| format!("serial query: {e}"))?
        .map(|ts| render_answer_lines(db, &ts, &symbols));
    Ok((
        render_state_lines(db, view.state(), &symbols),
        view.is_consistent(),
        answer,
    ))
}

/// Classifies the serial-vs-concurrent disagreement for `lines`
/// (`None` when they agree) — the predicate the shrinker preserves.
fn divergence_kind(
    db: &DatabaseScheme,
    lines: &[String],
    probe: AttrSet,
    observed: &Observed,
) -> Option<(&'static str, String)> {
    let (got_lines, got_consistent, got_answer) = match serial_replay(db, lines, probe) {
        Ok(r) => r,
        Err(e) => return Some(("setup", e)),
    };
    if got_lines != observed.state_lines {
        return Some((
            "state",
            format!(
                "serial [{}] != concurrent [{}]",
                got_lines.join("; "),
                observed.state_lines.join("; ")
            ),
        ));
    }
    if got_consistent != observed.consistent {
        return Some((
            "verdict",
            format!(
                "serial consistent={got_consistent} concurrent={}",
                observed.consistent
            ),
        ));
    }
    if got_answer != observed.answer {
        return Some((
            "answer",
            format!("serial {:?} != concurrent {:?}", got_answer, observed.answer),
        ));
    }
    None
}

/// Greedily drops committed op lines while the same-kind divergence
/// against the captured concurrent observation persists. Deterministic:
/// the concurrent side is fixed data by the time shrinking starts.
fn shrink_committed(
    db: &DatabaseScheme,
    lines: &[String],
    probe: AttrSet,
    observed: &Observed,
    kind: &str,
) -> Vec<String> {
    let mut kept: Vec<String> = lines.to_vec();
    let mut k = 0;
    while k < kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(k);
        match divergence_kind(db, &candidate, probe, observed) {
            Some((ck, _)) if ck == kind => kept = candidate,
            _ => k += 1,
        }
    }
    kept
}

/// Renders the self-describing repro fixture a failure carries.
fn render_fixture(
    seed: u64,
    db: &DatabaseScheme,
    lines: &[String],
    observed: &Observed,
    kind: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# idr concurrent-fuzz repro (seed {seed}, kind {kind})\n\
         # A serial replay of the committed op order below must reproduce\n\
         # the concurrent final state — it does not.\n"
    ));
    out.push_str("scheme:\n");
    out.push_str(&render_scheme_file(db));
    out.push_str("committed ops (serial replay order):\n");
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "concurrent final state (consistent={}):\n",
        observed.consistent
    ));
    for line in &observed.state_lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Runs one case: generate per-client op streams, run them from
/// concurrent threads over one hub + recording sink, then serially
/// replay the committed order and compare.
fn run_case(
    seed: u64,
    counters: &mut ConcurrentCounters,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Option<Failure> {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut symbols = SymbolTable::new();
    let clients = rng.gen_range_inclusive(2, 4);
    let client_ops: Vec<Vec<CrashOp>> = (0..clients)
        .map(|_| gen_ops(&db, &mut symbols, &mut rng))
        .collect();
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    counters.clients += clients;

    // --- Concurrent run ---------------------------------------------------
    // Only the concurrent arm feeds the registry: the serial replay
    // below re-runs the same ops, and double-counting would make the
    // dumped snapshot lie about how much work the fuzz run drove.
    let engine = live_engine(&Engine::new(db.clone()), metrics);
    let guard = Guard::unlimited();
    let sink = Arc::new(RecordingSink::new(db.clone(), symbols.clone()));
    let base = DatabaseState::empty(&db);
    let fail = |kind: &str, detail: String, repro: Option<String>| {
        Some(Failure {
            repro,
            ..Failure::new(seed, kind, detail)
        })
    };
    let hub = match engine.hub_with(&base, &guard, sink.clone()) {
        Ok(h) => h,
        Err(e) => return fail("setup", format!("hub: {e}"), None),
    };
    let errors = Mutex::new(Vec::<String>::new());
    std::thread::scope(|s| {
        for (c, ops) in client_ops.iter().enumerate() {
            let writer = hub.write_handle();
            let errors = &errors;
            let guard = &guard;
            s.spawn(move || {
                for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
                    // Drive the timed pipeline so every completed op
                    // carries a timeline we can assert invariants on.
                    let tl = Arc::new(OpTimeline::new());
                    tl.stamp(Phase::Enqueue);
                    let r = if *is_insert {
                        writer.insert_timed(*rel, t.clone(), guard, &tl).map(|_| ())
                    } else {
                        writer.delete_timed(*rel, t, guard, &tl).map(|_| ())
                    };
                    if let Err(e) = r {
                        errors
                            .lock()
                            .expect("error list lock")
                            .push(format!("client {c} op {k}: {e}"));
                        return;
                    }
                    // Completed ops must have stamped every phase the
                    // in-memory pipeline reaches (the recording sink has
                    // no group commit, so batch-wait/fsync may be unset)
                    // and the stamps must never run backwards.
                    if !tl.is_monotone() {
                        errors.lock().expect("error list lock").push(format!(
                            "client {c} op {k}: timeline not monotone: {:?}",
                            tl.phase_durations()
                        ));
                        return;
                    }
                    let required = [
                        Phase::Enqueue,
                        Phase::LaneAcquire,
                        Phase::WalAppend,
                        Phase::Apply,
                        Phase::Publish,
                    ];
                    if !tl.covers(&required) {
                        errors.lock().expect("error list lock").push(format!(
                            "client {c} op {k}: timeline missing phases, got {:?}",
                            tl.phase_durations()
                        ));
                        return;
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().expect("error list lock");
    if !errors.is_empty() {
        return fail("client_error", errors.join("; "), None);
    }
    let view = hub.read_view();
    let observed = Observed {
        committed: sink
            .committed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone(),
        state_lines: render_state_lines(&db, view.state(), &symbols),
        consistent: view.is_consistent(),
        answer: view
            .total_projection(probe, &guard)
            .ok()
            .flatten()
            .map(|ts| render_answer_lines(&db, &ts, &symbols)),
    };
    counters.ops_run += observed.committed.len();
    let total_ops: usize = client_ops.iter().map(Vec::len).sum();
    if observed.committed.len() != total_ops {
        let fixture = render_fixture(seed, &db, &observed.committed, &observed, "setup");
        return fail(
            "setup",
            format!(
                "{} op(s) ran but {} were committed",
                total_ops,
                observed.committed.len()
            ),
            Some(fixture),
        );
    }

    // --- Serial replay of the committed order -----------------------------
    if let Some((kind, detail)) = divergence_kind(&db, &observed.committed, probe, &observed) {
        let shrunk = shrink_committed(&db, &observed.committed, probe, &observed, kind);
        let fixture = render_fixture(seed, &db, &shrunk, &observed, kind);
        return fail(kind, detail, Some(fixture));
    }
    None
}

/// The concurrent arm (`idr fuzz --concurrent`): each case's client
/// threads raced over one hub, the committed order replayed serially.
/// Every concurrent hub feeds the campaign's registry (session
/// verdicts, per-block lane ops, pipeline-phase latencies).
pub fn concurrent_fuzz(campaign: Campaign<'_>) -> Summary<ConcurrentCounters> {
    campaign.run("concurrent fuzz", ConcurrentCounters::default(), run_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process equivalent of the CI concurrent-fuzz smoke step:
    /// serial replay of the committed order always reproduces the
    /// concurrent run.
    #[test]
    fn bounded_concurrent_fuzz_is_clean() {
        let summary = concurrent_fuzz(Campaign::new(42, 24));
        assert_eq!(summary.cases, 24);
        assert!(summary.counters.clients >= 48, "{}", summary.counters.clients);
        assert!(summary.counters.ops_run > 0);
        assert!(
            summary.is_clean(),
            "failures: {}",
            summary
                .failures
                .iter()
                .map(|f| format!("{f}\n{}", f.repro.as_deref().unwrap_or_default()))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    /// Case structure (not interleavings) is seed-deterministic: the
    /// same master seed always runs the same schemes and op counts.
    #[test]
    fn concurrent_fuzz_case_structure_is_deterministic() {
        let a = concurrent_fuzz(Campaign::new(7, 8));
        let b = concurrent_fuzz(Campaign::new(7, 8));
        assert_eq!(a.to_string(), b.to_string());
    }

    /// The shrinker drops ops that do not matter to a (synthetic)
    /// state divergence and keeps the divergence kind.
    #[test]
    fn shrink_preserves_the_divergence() {
        let db = idr_workload::generators::chain_scheme(2);
        let mut symbols = SymbolTable::new();
        let t0 = crate::gen::entity_tuple(&db, &mut symbols, 0).project(db.scheme(0).attrs());
        let t1 = crate::gen::entity_tuple(&db, &mut symbols, 1).project(db.scheme(1).attrs());
        let lines = vec![
            op_line(&db, &symbols, true, 0, &t0),
            op_line(&db, &symbols, true, 1, &t1),
        ];
        let probe = db.scheme(0).attrs();
        // Pretend the concurrent run finished empty: both inserts now
        // "diverge", but only dropping both keeps the state divergence
        // minimal — the shrinker must land on a single op.
        let observed = Observed {
            committed: lines.clone(),
            state_lines: Vec::new(),
            consistent: true,
            answer: Some(Vec::new()),
        };
        let (kind, _) = divergence_kind(&db, &lines, probe, &observed).expect("diverges");
        assert_eq!(kind, "state");
        let shrunk = shrink_committed(&db, &lines, probe, &observed, kind);
        assert_eq!(shrunk.len(), 1, "shrunk to one op: {shrunk:?}");
        assert!(divergence_kind(&db, &shrunk, probe, &observed).is_some());
    }
}
