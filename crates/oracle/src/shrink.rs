//! Greedy minimisation of failing cases.
//!
//! A raw divergence from the fuzzer usually carries a lot of freight:
//! ops that never ran, state tuples the failing chase never touched,
//! whole relations nothing references. The shrinker runs a greedy
//! fixpoint over three reduction passes — drop an op, drop a state
//! tuple, drop an unreferenced relation scheme — keeping a candidate
//! only when it still diverges *with the same kind* (so a shrink cannot
//! silently slide from one bug onto a different one). Relation drops
//! revalidate the invariants generation guarantees: the remaining
//! schemes must still cover the universe and satisfy the standing
//! assumption (declared keys = candidate keys under the induced fds).
//!
//! Each pass is deterministic, so a shrunken fixture is as replayable
//! as the seed that produced it.

use idr_fd::keys::candidate_keys;
use idr_fd::KeyDeps;
use idr_relation::{DatabaseScheme, DatabaseState};

use crate::interp::Divergence;
use crate::ops::{Case, Op};
use crate::run_case_guarded;

/// Whether `case` still fails with the same divergence kind.
fn still_fails(case: &Case, kind: &str) -> bool {
    matches!(run_case_guarded(case, None), Err(d) if d.kind == kind)
}

/// Candidate with op `i` removed.
fn drop_op(case: &Case, i: usize) -> Case {
    let mut c = case.clone();
    c.ops.remove(i);
    c
}

/// Candidate with the `j`-th tuple of relation `rel` removed from the
/// initial state.
fn drop_state_tuple(case: &Case, rel: usize, j: usize) -> Case {
    let mut c = case.clone();
    let t = c.state.relation(rel).sorted_tuples()[j].clone();
    let _ = c.state.remove(rel, &t);
    c
}

/// Candidate with relation scheme `i` dropped entirely (state rebuilt,
/// op indices remapped). `None` when an op references it, the remaining
/// schemes no longer cover the universe, or the standing assumption
/// breaks.
fn drop_relation(case: &Case, i: usize) -> Option<Case> {
    if case.db.len() <= 1 || case.ops.iter().any(|op| op.rel() == Some(i)) {
        return None;
    }
    let schemes = case
        .db
        .schemes()
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, s)| s.clone())
        .collect();
    let db = DatabaseScheme::new(case.db.universe().clone(), schemes).ok()?;
    let kd = KeyDeps::of(&db);
    for j in 0..db.len() {
        if candidate_keys(kd.full(), db.scheme(j).attrs()) != db.scheme(j).keys() {
            return None;
        }
    }
    let mut state = DatabaseState::empty(&db);
    for (j, t) in case.state.iter_all() {
        if j != i {
            let _ = state.insert(if j > i { j - 1 } else { j }, t.clone());
        }
    }
    let remap = |r: usize| if r > i { r - 1 } else { r };
    let ops = case
        .ops
        .iter()
        .map(|op| match op.clone() {
            Op::Insert { rel, t } => Op::Insert { rel: remap(rel), t },
            Op::Delete { rel, t } => Op::Delete { rel: remap(rel), t },
            Op::BudgetInsert { steps, rel, t } => {
                Op::BudgetInsert { steps, rel: remap(rel), t }
            }
            Op::BudgetDelete { steps, rel, t } => {
                Op::BudgetDelete { steps, rel: remap(rel), t }
            }
            Op::FaultInsert { nth, kind, rel, t } => {
                Op::FaultInsert { nth, kind, rel: remap(rel), t }
            }
            other => other,
        })
        .collect();
    Some(Case {
        seed: case.seed,
        db,
        symbols: case.symbols.clone(),
        state,
        ops,
    })
}

/// Greedily minimises `case`, preserving the divergence `kind` of the
/// original failure. Returns the smallest case found and the divergence
/// it still produces.
pub fn shrink(case: &Case, original: &Divergence) -> (Case, Divergence) {
    let kind = original.kind.clone();
    let mut best = case.clone();
    loop {
        let mut improved = false;

        // Pass 1: drop ops, scanning from the end so indices stay valid.
        let mut i = best.ops.len();
        while i > 0 {
            i -= 1;
            let cand = drop_op(&best, i);
            if still_fails(&cand, &kind) {
                best = cand;
                improved = true;
            }
        }

        // Pass 2: drop initial-state tuples.
        for rel in 0..best.db.len() {
            let mut j = best.state.relation(rel).len();
            while j > 0 {
                j -= 1;
                let cand = drop_state_tuple(&best, rel, j);
                if still_fails(&cand, &kind) {
                    best = cand;
                    improved = true;
                }
            }
        }

        // Pass 3: drop unreferenced relation schemes.
        let mut rel = best.db.len();
        while rel > 0 {
            rel -= 1;
            if let Some(cand) = drop_relation(&best, rel) {
                if still_fails(&cand, &kind) {
                    best = cand;
                    improved = true;
                }
            }
        }

        if !improved {
            break;
        }
    }
    let d = run_case_guarded(&best, None)
        .expect_err("shrink invariant: the minimised case still diverges");
    (best, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn op_and_tuple_drops_strictly_reduce() {
        let case = gen_case(3);
        assert!(!case.ops.is_empty());
        assert_eq!(drop_op(&case, 0).ops.len(), case.ops.len() - 1);
        let rel = (0..case.db.len())
            .find(|&i| !case.state.relation(i).is_empty())
            .expect("generated states are nonempty");
        let cand = drop_state_tuple(&case, rel, 0);
        assert_eq!(
            cand.state.relation(rel).len(),
            case.state.relation(rel).len() - 1
        );
    }

    /// `drop_relation` must remap op indices into range and keep the
    /// reduced scheme valid (universe cover + standing assumption); the
    /// reduced case must still be runnable by the interpreter.
    #[test]
    fn relation_drops_remap_and_revalidate() {
        let mut dropped = 0;
        for seed in 0..120u64 {
            let case = gen_case(seed);
            for i in 0..case.db.len() {
                let Some(cand) = drop_relation(&case, i) else {
                    continue;
                };
                dropped += 1;
                assert_eq!(cand.db.len(), case.db.len() - 1, "seed {seed}");
                assert_eq!(cand.ops.len(), case.ops.len(), "seed {seed}");
                for op in &cand.ops {
                    if let Some(r) = op.rel() {
                        assert!(r < cand.db.len(), "seed {seed}: op out of range");
                    }
                }
                let kd = KeyDeps::of(&cand.db);
                for j in 0..cand.db.len() {
                    assert_eq!(
                        candidate_keys(kd.full(), cand.db.scheme(j).attrs()),
                        cand.db.scheme(j).keys().to_vec(),
                        "seed {seed}: standing assumption broken"
                    );
                }
                // The reduced case must replay without harness errors
                // (divergence-free, since the engine under test is sound).
                assert!(run_case_guarded(&cand, None).is_ok(), "seed {seed}");
            }
            if dropped >= 3 {
                return;
            }
        }
        panic!("no droppable relation in 120 seeds");
    }
}
