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

use std::sync::{Arc, Mutex};

use idr_core::durability::{DurabilitySink, DurableOp};
use idr_core::{Engine, Observability};
use idr_obs::{MetricsRegistry, OpTimeline, Phase};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::parse::{render_scheme_file, render_tuple_line};
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable};

use crate::crash::{answer_lines, gen_ops, gen_scheme, state_lines, CrashOp};

/// One case whose serial replay of the committed order disagreed with
/// the concurrent run (or whose setup failed).
#[derive(Clone, Debug)]
pub struct ConcurrentFailure {
    /// The per-case seed (regenerates the scheme and op streams; the
    /// interleaving itself is not replayable, which is why the fixture
    /// captures the committed order and the observed state).
    pub seed: u64,
    /// What disagreed (`state`, `verdict`, `answer`, `client_error`,
    /// `setup`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// A self-describing repro: scheme, (shrunk) committed op order,
    /// and the concurrent state it fails to replay to.
    pub fixture: String,
}

impl std::fmt::Display for ConcurrentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} [{}]: {}", self.seed, self.kind, self.detail)
    }
}

/// Outcome of a concurrent-fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentFuzzSummary {
    /// Cases executed.
    pub cases: usize,
    /// Client threads spawned across all cases.
    pub clients: usize,
    /// Ops committed across all cases.
    pub ops_run: usize,
    /// Serial/concurrent disagreements, in discovery order.
    pub failures: Vec<ConcurrentFailure>,
}

impl ConcurrentFuzzSummary {
    /// Whether every case's serial replay matched its concurrent run.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

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
            let (verb, rel, t) = match op {
                DurableOp::Insert { rel, t } => ("insert", rel, t),
                DurableOp::Delete { rel, t } => ("delete", rel, t),
            };
            committed.push(format!(
                "{verb} {}",
                render_tuple_line(&self.db, &self.symbols, rel, t)
            ));
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
        .map(|ts| answer_lines(db, &ts, &symbols));
    Ok((
        state_lines(db, view.state(), &symbols),
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
fn run_case(seed: u64, summary: &mut ConcurrentFuzzSummary, metrics: Option<Arc<MetricsRegistry>>) {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut symbols = SymbolTable::new();
    let clients = rng.gen_range_inclusive(2, 4);
    let client_ops: Vec<Vec<CrashOp>> = (0..clients)
        .map(|_| gen_ops(&db, &mut symbols, &mut rng))
        .collect();
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    summary.clients += clients;

    // --- Concurrent run ---------------------------------------------------
    // Only the concurrent arm feeds the registry: the serial replay
    // below re-runs the same ops, and double-counting would make the
    // dumped snapshot lie about how much work the fuzz run drove.
    let engine = Engine::new(db.clone()).with_observability(Observability {
        metrics,
        ..Observability::default()
    });
    let guard = Guard::unlimited();
    let sink = Arc::new(RecordingSink::new(db.clone(), symbols.clone()));
    let base = DatabaseState::empty(&db);
    let mut fail = |kind: &str, detail: String, fixture: String| {
        summary.failures.push(ConcurrentFailure {
            seed,
            kind: kind.to_string(),
            detail,
            fixture,
        });
    };
    let hub = match engine.hub_with(&base, &guard, sink.clone()) {
        Ok(h) => h,
        Err(e) => return fail("setup", format!("hub: {e}"), String::new()),
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
        return fail("client_error", errors.join("; "), String::new());
    }
    let view = hub.read_view();
    let observed = Observed {
        committed: sink
            .committed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone(),
        state_lines: state_lines(&db, view.state(), &symbols),
        consistent: view.is_consistent(),
        answer: view
            .total_projection(probe, &guard)
            .ok()
            .flatten()
            .map(|ts| answer_lines(&db, &ts, &symbols)),
    };
    summary.ops_run += observed.committed.len();
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
            fixture,
        );
    }

    // --- Serial replay of the committed order -----------------------------
    if let Some((kind, detail)) = divergence_kind(&db, &observed.committed, probe, &observed) {
        let shrunk = shrink_committed(&db, &observed.committed, probe, &observed, kind);
        let fixture = render_fixture(seed, &db, &shrunk, &observed, kind);
        fail(kind, detail, fixture);
    }
}

/// Runs `cases` concurrent cases from master seed `seed`; per-case
/// seeds are drawn from the master stream (same convention as
/// [`crate::fuzz`]). `progress` is called after each case with
/// `(index, failures so far)`.
pub fn concurrent_fuzz(
    seed: u64,
    cases: usize,
    progress: Option<&mut dyn FnMut(usize, usize)>,
) -> ConcurrentFuzzSummary {
    concurrent_fuzz_with(seed, cases, progress, None)
}

/// [`concurrent_fuzz`] with an optional metrics registry: every
/// concurrent hub feeds it (session verdicts, per-block lane ops,
/// pipeline-phase latencies), so a CI run can dump one snapshot
/// covering the whole campaign alongside any failure fixtures.
pub fn concurrent_fuzz_with(
    seed: u64,
    cases: usize,
    mut progress: Option<&mut dyn FnMut(usize, usize)>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> ConcurrentFuzzSummary {
    let mut master = SplitMix64::new(seed);
    let mut summary = ConcurrentFuzzSummary::default();
    for k in 0..cases {
        let case_seed = master.next_u64();
        summary.cases += 1;
        run_case(case_seed, &mut summary, metrics.clone());
        if let Some(p) = progress.as_deref_mut() {
            p(k + 1, summary.failures.len());
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process equivalent of the CI concurrent-fuzz smoke step:
    /// serial replay of the committed order always reproduces the
    /// concurrent run.
    #[test]
    fn bounded_concurrent_fuzz_is_clean() {
        let summary = concurrent_fuzz(42, 24, None);
        assert_eq!(summary.cases, 24);
        assert!(summary.clients >= 48, "{}", summary.clients);
        assert!(summary.ops_run > 0);
        assert!(
            summary.is_clean(),
            "failures: {}",
            summary
                .failures
                .iter()
                .map(|f| format!("{f}\n{}", f.fixture))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    /// Case structure (not interleavings) is seed-deterministic: the
    /// same master seed always runs the same schemes and op counts.
    #[test]
    fn concurrent_fuzz_case_structure_is_deterministic() {
        let a = concurrent_fuzz(7, 8, None);
        let b = concurrent_fuzz(7, 8, None);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.ops_run, b.ops_run);
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
            format!("insert {}", render_tuple_line(&db, &symbols, 0, &t0)),
            format!("insert {}", render_tuple_line(&db, &symbols, 1, &t1)),
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
