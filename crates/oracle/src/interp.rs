//! The lockstep interpreter: one case, four oracles, per-step invariants.
//!
//! Every case runs against:
//!
//! 1. **Hub (parallel)** — the production path: block-parallel
//!    evaluation, incremental inserts through a [`WriteHandle`], cached
//!    Theorem 4.1 expressions, snapshot queries through a `ReadView`.
//! 2. **Hub (serial)** — the same engine with parallelism off;
//!    must be *indistinguishable* from (1), including error classes.
//! 3. **Naive chase, from scratch** — a mirror of the base state is
//!    maintained by the interpreter and re-chased per step with
//!    [`idr_chase::is_consistent`]/[`idr_chase::total_projection`];
//!    verdicts and
//!    answers are ground truth.
//! 4. **Theorem 4.1 expressions vs. chase answers** — on IR schemes the
//!    hubs answer queries through cached expressions over the base
//!    state while oracle (3) chases; their agreement *is* the paper's
//!    boundedness claim. Explain probes cross-check the trace class: a
//!    tuple is in the answer iff some chased tableau row witnesses it.
//!
//! After any `Err` the interpreter additionally asserts the post-fault
//! invariants: the base state equals the mirror (failed ops are atomic)
//! and the witness probe still matches answer membership (no speculative
//! tableau rows keep answering).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use idr_core::engine::{Engine, Observability};
use idr_core::serving::{Hub, WriteHandle};
use idr_core::exec::{FaultInjector, FaultPlan};
use idr_core::maintain::algorithm2;
use idr_core::maintain::IrMaintainer;
use idr_fd::KeyDeps;
use idr_obs::MetricsRegistry;
use idr_relation::exec::{Budget, ExecError, FaultKind, Guard, RetryPolicy};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, Tuple};

use crate::ops::{Case, Op};

/// A confirmed disagreement between oracles (or a broken invariant).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// 0-based index of the op that diverged; `None` for the initial
    /// hub build.
    pub step: Option<usize>,
    /// Rendering of the offending op.
    pub op: Option<String>,
    /// Stable classification (`"answer"`, `"verdict"`, `"state"`,
    /// `"class"`, `"probe"`, `"explain"`, `"poison"`, `"maintain"`,
    /// `"panic"`, `"internal"`); the shrinker only accepts reductions
    /// that reproduce the same kind.
    pub kind: String,
    /// Human-readable description of what disagreed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.step, &self.op) {
            (Some(k), Some(op)) => {
                write!(f, "[{}] step {k} ({op}): {}", self.kind, self.detail)
            }
            _ => write!(f, "[{}] hub build: {}", self.kind, self.detail),
        }
    }
}

/// Summary of a clean (divergence-free) run.
#[derive(Clone, Copy, Debug)]
pub struct CaseReport {
    /// Ops executed.
    pub ops_run: usize,
    /// Final consistency verdict.
    pub final_consistent: bool,
}

fn diverge(
    step: Option<usize>,
    op: Option<&str>,
    kind: &str,
    detail: String,
) -> Divergence {
    Divergence {
        step,
        op: op.map(str::to_string),
        kind: kind.to_string(),
        detail,
    }
}

/// Canonical, comparable image of a state (DatabaseState has set
/// semantics but no `PartialEq`).
fn fingerprint(state: &DatabaseState) -> Vec<Vec<Tuple>> {
    state.relations().iter().map(|r| r.sorted_tuples()).collect()
}

fn err_class(e: &ExecError) -> &'static str {
    match e {
        ExecError::BudgetExceeded { .. } => "budget",
        ExecError::TimedOut { .. } => "timeout",
        ExecError::Cancelled => "cancelled",
        ExecError::Faulted { .. } => "fault",
        ExecError::Inconsistent { .. } => "inconsistent",
        ExecError::CapacityExceeded { .. } => "capacity",
    }
}

fn class_of<T: std::fmt::Debug>(r: &Result<T, ExecError>) -> String {
    match r {
        Ok(v) => format!("ok({v:?})"),
        Err(e) => format!("err({})", err_class(e)),
    }
}

fn naive_consistent(db: &DatabaseScheme, kd: &KeyDeps, state: &DatabaseState) -> bool {
    idr_chase::is_consistent(db, state, kd.full(), &Guard::unlimited())
        .expect("unlimited naive chase cannot trip")
}

fn naive_projection(
    db: &DatabaseScheme,
    kd: &KeyDeps,
    state: &DatabaseState,
    x: AttrSet,
) -> Option<Vec<Tuple>> {
    idr_chase::total_projection(db, state, kd.full(), x, &Guard::unlimited())
        .expect("unlimited naive chase cannot trip")
}

/// Budget allowing `steps` chase steps and nothing-else-limited.
fn step_guard(steps: u64) -> Guard {
    Guard::new(Budget::unlimited().with_max_chase_steps(steps))
}

/// Runs one case against all four oracles in lockstep; both hubs
/// report into `metrics` when given.
pub fn run_case(case: &Case, metrics: Option<&Arc<MetricsRegistry>>) -> Result<CaseReport, Divergence> {
    let db = &case.db;
    let kd = KeyDeps::of(db);
    let unl = Guard::unlimited();
    // Two engines, not two clones of one: each hub needs its own
    // expression cache for the poison probes to be independent.
    let engine = || {
        Engine::new(db.clone()).with_observability(Observability {
            metrics: metrics.cloned(),
            ..Observability::default()
        })
    };
    let sp = engine()
        .with_parallel(true)
        .hub(&case.state, &unl)
        .map_err(|e| diverge(None, None, "internal", format!("parallel build: {e}")))?;
    let ss = engine()
        .with_parallel(false)
        .hub(&case.state, &unl)
        .map_err(|e| diverge(None, None, "internal", format!("serial build: {e}")))?;
    let (wp, ws) = (sp.write_handle(), ss.write_handle());
    let mut mirror = case.state.clone();
    check_sync(None, None, &sp, &ss, &mirror, db, &kd)?;

    for (step, op) in case.ops.iter().enumerate() {
        let op_str = op.render(db, &case.symbols);
        let ctx = (Some(step), Some(op_str.as_str()));
        match op {
            Op::Insert { rel, t } => {
                apply_insert(ctx, (&sp, &wp), (&ss, &ws), &mut mirror, db, &kd, *rel, t, None)?;
            }
            Op::BudgetInsert { steps, rel, t } => {
                apply_insert(ctx, (&sp, &wp), (&ss, &ws), &mut mirror, db, &kd, *rel, t, Some(*steps))?;
            }
            Op::Delete { rel, t } => {
                apply_delete(ctx, (&sp, &wp), (&ss, &ws), &mut mirror, *rel, t, None)?;
            }
            Op::BudgetDelete { steps, rel, t } => {
                apply_delete(ctx, (&sp, &wp), (&ss, &ws), &mut mirror, *rel, t, Some(*steps))?;
            }
            Op::Query { x } => {
                run_query(ctx, &sp, &ss, &mirror, db, &kd, *x, None)?;
            }
            Op::BudgetQuery { steps, x } => {
                run_query(ctx, &sp, &ss, &mirror, db, &kd, *x, Some(*steps))?;
            }
            Op::Explain { x } => {
                run_explain(ctx, &sp, &ss, *x)?;
            }
            Op::Poison => {
                run_poison(ctx, &sp, &ss, &mirror, db, &kd)?;
            }
            Op::FaultInsert { nth, kind, rel, t } => {
                run_fault_insert(ctx, &sp, &mirror, db, &kd, *nth, *kind, *rel, t)?;
            }
        }
        check_sync(Some(step), Some(&op_str), &sp, &ss, &mirror, db, &kd)?;
    }
    Ok(CaseReport {
        ops_run: case.ops.len(),
        final_consistent: sp.is_consistent(),
    })
}

/// After every op: both hubs' published snapshot states equal the
/// mirror, and all three oracles agree on the consistency verdict.
fn check_sync(
    step: Option<usize>,
    op: Option<&str>,
    sp: &Hub,
    ss: &Hub,
    mirror: &DatabaseState,
    db: &DatabaseScheme,
    kd: &KeyDeps,
) -> Result<(), Divergence> {
    let want = fingerprint(mirror);
    for (label, s) in [("parallel", sp), ("serial", ss)] {
        let view = s.read_view();
        if fingerprint(view.state()) != want {
            return Err(diverge(
                step,
                op,
                "state",
                format!("{label} hub snapshot state differs from the interpreter mirror"),
            ));
        }
    }
    let naive = naive_consistent(db, kd, mirror);
    for (label, s) in [("parallel", sp), ("serial", ss)] {
        if s.is_consistent() != naive {
            return Err(diverge(
                step,
                op,
                "verdict",
                format!(
                    "{label} hub says consistent={}, naive chase says {}",
                    s.is_consistent(),
                    naive
                ),
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_insert(
    (step, op): (Option<usize>, Option<&str>),
    (sp, wp): (&Hub, &WriteHandle),
    (ss, ws): (&Hub, &WriteHandle),
    mirror: &mut DatabaseState,
    db: &DatabaseScheme,
    kd: &KeyDeps,
    rel: usize,
    t: &Tuple,
    steps: Option<u64>,
) -> Result<(), Divergence> {
    let pre_consistent = naive_consistent(db, kd, mirror);
    let guard = || steps.map_or_else(Guard::unlimited, step_guard);
    let rp = wp.insert(rel, t.clone(), &guard());
    let rs = ws.insert(rel, t.clone(), &guard());
    if class_of(&rp) != class_of(&rs) {
        return Err(diverge(
            step,
            op,
            "class",
            format!("parallel {} vs serial {}", class_of(&rp), class_of(&rs)),
        ));
    }
    match &rp {
        Ok(accepted) => {
            if pre_consistent {
                // Oracle 3: the session verdict must match a from-scratch
                // chase of mirror ∪ {t}.
                let mut cand = mirror.clone();
                let _ = cand.insert(rel, t.clone()).map_err(|e| {
                    diverge(step, op, "internal", format!("mirror insert: {e}"))
                })?;
                let expected = naive_consistent(db, kd, &cand);
                if *accepted != expected {
                    return Err(diverge(
                        step,
                        op,
                        "verdict",
                        format!(
                            "sessions {} the insert, naive chase says consistent={expected}",
                            if *accepted { "accepted" } else { "rejected" }
                        ),
                    ));
                }
                if *accepted {
                    *mirror = cand;
                }
            } else if *accepted {
                let _ = mirror.insert(rel, t.clone());
            }
        }
        Err(_) => {
            // Failed inserts must be atomic; the explain-probe invariant
            // additionally pins the tableau to the base state.
            probe_after_err((step, op), sp, "parallel", t)?;
            probe_after_err((step, op), ss, "serial", t)?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_delete(
    (step, op): (Option<usize>, Option<&str>),
    (sp, wp): (&Hub, &WriteHandle),
    (ss, ws): (&Hub, &WriteHandle),
    mirror: &mut DatabaseState,
    rel: usize,
    t: &Tuple,
    steps: Option<u64>,
) -> Result<(), Divergence> {
    let present = mirror.relation(rel).contains(t);
    let guard = || steps.map_or_else(Guard::unlimited, step_guard);
    let rp = wp.delete(rel, t, &guard());
    let rs = ws.delete(rel, t, &guard());
    if class_of(&rp) != class_of(&rs) {
        return Err(diverge(
            step,
            op,
            "class",
            format!("parallel {} vs serial {}", class_of(&rp), class_of(&rs)),
        ));
    }
    match &rp {
        Ok(removed) => {
            if *removed != present {
                return Err(diverge(
                    step,
                    op,
                    "verdict",
                    format!("delete returned {removed} but mirror presence was {present}"),
                ));
            }
            if *removed {
                let _ = mirror.remove(rel, t);
            }
        }
        Err(_) => {
            // Atomicity is asserted by check_sync (state == mirror); the
            // probe pins the tableau as well.
            probe_after_err((step, op), sp, "parallel", t)?;
            probe_after_err((step, op), ss, "serial", t)?;
        }
    }
    Ok(())
}

/// After a failed insert/delete: a tuple is witnessed by the chased
/// tableau iff it is in the answer of its own-attribute projection. A
/// speculative row left behind by a non-atomic op breaks this in one
/// direction; a dropped base tuple breaks it in the other.
fn probe_after_err(
    (step, op): (Option<usize>, Option<&str>),
    s: &Hub,
    label: &str,
    t: &Tuple,
) -> Result<(), Divergence> {
    if !s.is_consistent() {
        return Ok(());
    }
    let x = t.attrs();
    let Ok(Some(answer)) = s.read_view().total_projection(x, &Guard::unlimited()) else {
        return Ok(());
    };
    let member = answer.contains(t);
    let witnessed = s.explain(x, t).is_some();
    if member != witnessed {
        return Err(diverge(
            step,
            op,
            "probe",
            format!(
                "{label} hub after Err: answer membership {member} but tableau witness {witnessed}"
            ),
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_query(
    (step, op): (Option<usize>, Option<&str>),
    sp: &Hub,
    ss: &Hub,
    mirror: &DatabaseState,
    db: &DatabaseScheme,
    kd: &KeyDeps,
    x: AttrSet,
    steps: Option<u64>,
) -> Result<(), Divergence> {
    let guard = || steps.map_or_else(Guard::unlimited, step_guard);
    let rp = sp.read_view().total_projection(x, &guard());
    let rs = ss.read_view().total_projection(x, &guard());
    if class_of(&rp) != class_of(&rs) {
        return Err(diverge(
            step,
            op,
            "class",
            format!("parallel {} vs serial {}", class_of(&rp), class_of(&rs)),
        ));
    }
    if let (Ok(ap), Ok(as_)) = (&rp, &rs) {
        if ap != as_ {
            return Err(diverge(
                step,
                op,
                "answer",
                format!(
                    "parallel and serial answers differ ({:?} vs {:?} tuples)",
                    ap.as_ref().map(Vec::len),
                    as_.as_ref().map(Vec::len)
                ),
            ));
        }
        // Oracles 3+4: the (possibly expression-computed) session answer
        // must equal a from-scratch naive chase of the mirror.
        let naive = naive_projection(db, kd, mirror, x);
        if *ap != naive {
            return Err(diverge(
                step,
                op,
                "answer",
                format!(
                    "hub answer {:?} tuples vs naive chase {:?} tuples",
                    ap.as_ref().map(Vec::len),
                    naive.as_ref().map(Vec::len)
                ),
            ));
        }
    }
    Ok(())
}

fn run_explain(
    (step, op): (Option<usize>, Option<&str>),
    sp: &Hub,
    ss: &Hub,
    x: AttrSet,
) -> Result<(), Divergence> {
    if !sp.is_consistent() {
        return Ok(());
    }
    let Ok(Some(answer)) = sp.read_view().total_projection(x, &Guard::unlimited()) else {
        return Ok(());
    };
    for t in &answer {
        let wp = sp.explain(x, t).is_some();
        let ws = ss.explain(x, t).is_some();
        if wp != ws {
            return Err(diverge(
                step,
                op,
                "explain",
                format!("witness presence differs: parallel {wp} vs serial {ws}"),
            ));
        }
    }
    Ok(())
}

/// Poisons both hubs' expression caches, then asserts the documented
/// recovery contract: the next query surfaces `Err(Faulted)` (not a
/// panic), and the one after answers exactly like the naive chase.
fn run_poison(
    (step, op): (Option<usize>, Option<&str>),
    sp: &Hub,
    ss: &Hub,
    mirror: &DatabaseState,
    db: &DatabaseScheme,
    kd: &KeyDeps,
) -> Result<(), Divergence> {
    // Non-IR schemes have no Theorem 4.1 expressions and never touch
    // the expression cache; an inconsistent state short-circuits
    // before the cache. Both make the op a no-op.
    if sp.engine().ir().is_none() || !sp.is_consistent() {
        return Ok(());
    }
    let x = db.scheme(0).attrs();
    sp.engine().inject_expr_cache_panic();
    ss.engine().inject_expr_cache_panic();
    for (label, s) in [("parallel", sp), ("serial", ss)] {
        let probed = catch_unwind(AssertUnwindSafe(|| {
            s.read_view().total_projection(x, &Guard::unlimited())
        }));
        match probed {
            Err(_) => {
                return Err(diverge(
                    step,
                    op,
                    "panic",
                    format!("{label} hub panicked on the first query after poisoning"),
                ));
            }
            Ok(Err(ExecError::Faulted { .. })) => {}
            Ok(other) => {
                return Err(diverge(
                    step,
                    op,
                    "poison",
                    format!(
                        "{label} hub returned {} instead of a typed fault",
                        class_of(&other)
                    ),
                ));
            }
        }
        // Recovery: the cache was cleared, the next query recomputes and
        // must agree with the naive chase.
        let recovered = s.read_view().total_projection(x, &Guard::unlimited()).map_err(|e| {
            diverge(
                step,
                op,
                "poison",
                format!("{label} hub still failing after recovery: {e}"),
            )
        })?;
        let naive = naive_projection(db, kd, mirror, x);
        if recovered != naive {
            return Err(diverge(
                step,
                op,
                "poison",
                format!(
                    "{label} recovered answer {:?} tuples vs naive {:?} tuples",
                    recovered.as_ref().map(Vec::len),
                    naive.as_ref().map(Vec::len)
                ),
            ));
        }
    }
    Ok(())
}

/// Runs Algorithm 2 for `(rel, t)` fault-free and under a
/// [`FaultInjector`], checking the maintenance verdict against the naive
/// chase and the fault contract against the baseline. Read-only.
#[allow(clippy::too_many_arguments)]
fn run_fault_insert(
    (step, op): (Option<usize>, Option<&str>),
    sp: &Hub,
    mirror: &DatabaseState,
    db: &DatabaseScheme,
    kd: &KeyDeps,
    nth: u64,
    kind: FaultKind,
    rel: usize,
    t: &Tuple,
) -> Result<(), Divergence> {
    let Some(ir) = sp.engine().ir() else {
        return Ok(());
    };
    if !sp.is_consistent() {
        return Ok(());
    }
    let unl = Guard::unlimited();
    let m = IrMaintainer::new(db, ir, mirror, &unl).map_err(|e| {
        diverge(step, op, "internal", format!("maintainer build on a consistent state: {e}"))
    })?;
    let rep = &m.reps()[ir.block_of[rel]];
    let (baseline, _) = algorithm2(db, rep, rel, t, &unl, &RetryPolicy::none())
        .map_err(|e| diverge(step, op, "internal", format!("fault-free algorithm2: {e}")))?;

    // Oracle 3: maintenance verdict vs from-scratch chase.
    let mut cand = mirror.clone();
    let _ = cand.insert(rel, t.clone());
    let expected = naive_consistent(db, kd, &cand);
    if baseline.is_consistent() != expected {
        return Err(diverge(
            step,
            op,
            "maintain",
            format!(
                "algorithm2 verdict consistent={} vs naive chase consistent={expected}",
                baseline.is_consistent()
            ),
        ));
    }

    // Fault contract: transient faults are retried to the fault-free
    // outcome; permanent faults surface as Err(Faulted) iff one fired.
    let inj = FaultInjector::new(rep, FaultPlan::nth(nth, kind));
    let injected = algorithm2(db, &inj, rel, t, &unl, &RetryPolicy::retries(3));
    let fired = inj.faults_injected() > 0;
    match (&injected, kind, fired) {
        (Ok((outcome, _)), _, _) if *outcome == baseline => Ok(()),
        (Err(ExecError::Faulted { kind: FaultKind::Permanent, .. }), FaultKind::Permanent, true) => {
            Ok(())
        }
        _ => Err(diverge(
            step,
            op,
            "maintain",
            format!(
                "injected run (fired={fired}, kind={kind:?}) returned {} vs baseline {:?}",
                class_of(&injected),
                baseline
            ),
        )),
    }
}
