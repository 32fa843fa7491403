//! Theorem 3.2's literal construction: algebraic maintenance *without* a
//! materialised representative instance.
//!
//! The paper proves key-equivalent schemes algebraic-maintainable by
//! exhibiting, for a key value `t[K]`, the family of single-tuple
//! conjunctive selections `σ_{K='k'}(E_j)` over the joins `E_j` of
//! lossless subsets covering `K`; the *greatest* nonempty one (the one
//! whose subset union contains all others') returns the unique total
//! tuple of the representative instance containing `'k'` (by Lemma 3.2(c)
//! and Corollary 3.1(b)). Feeding those tuples to Algorithm 2's join loop
//! decides the maintenance problem with expressions whose number and size
//! depend only on `R` and `F`.
//!
//! [`algorithm2_algebraic`] implements exactly that; the differential
//! tests check it agrees with the `KeRep`-based [`crate::maintain::algorithm2`]
//! and with the chase. It is slower per insert (it evaluates joins over
//! base relations) but needs no auxiliary structure — the trade-off the
//! paper's "incremental via predetermined relational expressions" phrase
//! describes.

use idr_fd::KeyDeps;
use idr_relation::algebra::Expr;
use idr_relation::exec::{ExecError, Guard};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, Tuple};

use crate::maintain::{MaintenanceOutcome, MaintenanceStats};
use crate::query::all_lossless_covers;

/// The precompiled selection plan for one key: the lossless-cover joins
/// `E_1, …, E_m` covering `K`, each paired with its output attribute set
/// (used to pick the greatest nonempty selection).
#[derive(Clone, Debug)]
pub struct KeyPlan {
    /// The key `K`.
    pub key: AttrSet,
    /// `(join expression, union of its subset)` per lossless cover of `K`.
    pub covers: Vec<(Expr, AttrSet)>,
}

/// The full plan for a key-equivalent block: one [`KeyPlan`] per key
/// embedded in the block. Its size depends only on `R` and `F` —
/// the "predetermined" part of Theorem 3.2.
#[derive(Clone, Debug)]
pub struct AlgebraicPlan {
    block: Vec<usize>,
    plans: Vec<KeyPlan>,
}

impl AlgebraicPlan {
    /// Compiles the plan for a key-equivalent block. The lossless-cover
    /// enumerations are charged against `guard`'s enumeration budget.
    pub fn compile(
        scheme: &DatabaseScheme,
        kd: &KeyDeps,
        block: &[usize],
        guard: &Guard,
    ) -> Result<Self, ExecError> {
        let family: Vec<AttrSet> = block.iter().map(|&i| scheme.scheme(i).attrs()).collect();
        let fds = kd.for_subset(block);
        let mut keys: Vec<AttrSet> = block
            .iter()
            .flat_map(|&i| scheme.scheme(i).keys().iter().copied())
            .collect();
        keys.sort();
        keys.dedup();
        let mut plans = Vec::with_capacity(keys.len());
        for &k in &keys {
            let covers = all_lossless_covers(&family, &fds, k, guard)?
                .into_iter()
                .map(|members| {
                    let indices: Vec<usize> = members.iter().map(|&m| block[m]).collect();
                    let union = members
                        .iter()
                        .fold(AttrSet::empty(), |acc, &m| acc | family[m]);
                    (Expr::sequential(&indices), union)
                })
                .collect();
            plans.push(KeyPlan { key: k, covers });
        }
        Ok(AlgebraicPlan {
            block: block.to_vec(),
            plans,
        })
    }

    /// The plans, for inspection.
    pub fn plans(&self) -> &[KeyPlan] {
        &self.plans
    }

    fn plan_for(&self, k: AttrSet) -> Option<&KeyPlan> {
        self.plans.iter().find(|p| p.key == k)
    }

    /// Retrieves the unique representative-instance tuple agreeing with
    /// `probe` on key `k` — via `σ_{K=probe[K]}(E_j)`, greatest nonempty
    /// `E_j`. Returns `None` when no expression matches (the key value is
    /// unknown to the state).
    fn lookup(
        &self,
        state: &DatabaseState,
        k: AttrSet,
        probe: &Tuple,
        stats: &mut MaintenanceStats,
        guard: &Guard,
    ) -> Result<Option<Tuple>, ExecError> {
        let Some(plan) = self.plan_for(k) else {
            return Ok(None);
        };
        let formula: Vec<_> = k.iter().map(|a| (a, probe.value(a))).collect();
        let mut best: Option<(Tuple, AttrSet)> = None;
        for (expr, union) in &plan.covers {
            stats.lookups += 1;
            guard.lookup()?;
            let selected = expr
                .clone()
                .select(formula.clone())
                .eval(state)
                .expect("plan expressions are well-formed");
            debug_assert!(
                selected.len() <= 1,
                "σ_K=k over a lossless join must be single-tuple on a consistent state"
            );
            let first = selected.iter().next().cloned();
            if let Some(t) = first {
                let better = match &best {
                    None => true,
                    Some((_, u)) => u.is_subset(*union) && *u != *union,
                };
                if better {
                    best = Some((t, *union));
                }
            }
        }
        Ok(best.map(|(t, _)| t))
    }
}

/// Algorithm 2 driven by the Theorem 3.2 expression plan instead of a
/// materialised representative instance. Every selection is charged
/// against `guard`.
pub fn algorithm2_algebraic(
    scheme: &DatabaseScheme,
    plan: &AlgebraicPlan,
    state: &DatabaseState,
    si: usize,
    t: &Tuple,
    guard: &Guard,
) -> Result<(MaintenanceOutcome, MaintenanceStats), ExecError> {
    let mut stats = MaintenanceStats::default();
    let mut closure = scheme.scheme(si).attrs();
    let mut q = t.clone();
    let mut processed: Vec<AttrSet> = Vec::new();
    let mut unprocessed: Vec<AttrSet> = scheme.scheme(si).keys().to_vec();
    let block_keys: Vec<AttrSet> = plan.plans.iter().map(|p| p.key).collect();

    while let Some(k) = unprocessed.pop() {
        stats.keys_processed += 1;
        let v: Tuple = match plan.lookup(state, k, &q, &mut stats, guard)? {
            Some(p) => p,
            None => q.project(k),
        };
        let c = v.attrs();
        match q.join(&v) {
            Some(joined) => q = joined,
            None => return Ok((MaintenanceOutcome::Inconsistent, stats)),
        }
        closure |= c;
        processed.push(k);
        for &nk in &block_keys {
            if nk.is_subset(closure) && !processed.contains(&nk) && !unprocessed.contains(&nk) {
                unprocessed.push(nk);
            }
        }
    }
    // The paper's construction retrieves per-key maximal tuples; joining
    // them can under-approximate the merged representative-instance tuple
    // only when a key value is entirely absent from the state, in which
    // case nothing constrains it anyway.
    let _ = plan.block.len();
    Ok((MaintenanceOutcome::Consistent(q), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::algorithm2;
    use crate::recognition::recognize;
    use crate::rep::KeRep;
    use idr_relation::SchemeBuilder;
    use idr_workload::states::{generate, WorkloadConfig};

    fn example4() -> DatabaseScheme {
        SchemeBuilder::new("ABCDE")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "AC", ["A"])
            .scheme("R3", "AE", ["A", "E"])
            .scheme("R4", "EB", ["E"])
            .scheme("R5", "EC", ["E"])
            .scheme("R6", "BCD", ["BC", "D"])
            .scheme("R7", "DA", ["D", "A"])
            .build()
            .unwrap()
    }

    #[test]
    fn plan_sizes_depend_only_on_the_scheme() {
        let db = example4();
        let kd = KeyDeps::of(&db);
        let block: Vec<usize> = (0..db.len()).collect();
        let plan = AlgebraicPlan::compile(&db, &kd, &block, &Guard::unlimited()).unwrap();
        // Keys A, E, BC, D: four plans, each with at least one cover.
        assert_eq!(plan.plans().len(), 4);
        for p in plan.plans() {
            assert!(!p.covers.is_empty(), "key {:?} has no cover", p.key);
        }
    }

    #[test]
    fn algebraic_engine_matches_rep_engine() {
        for (db, seeds) in [
            (example4(), 0..6u64),
            (
                SchemeBuilder::new("ABC")
                    .scheme("S1", "AB", ["A", "B"])
                    .scheme("S2", "BC", ["B", "C"])
                    .scheme("S3", "AC", ["A", "C"])
                    .build()
                    .unwrap(),
                0..6u64,
            ),
        ] {
            let kd = KeyDeps::of(&db);
            let ir = recognize(&db, &kd).accepted().unwrap();
            assert_eq!(ir.len(), 1);
            let block = ir.partition[0].clone();
            let g = Guard::unlimited();
            let rp = idr_relation::exec::RetryPolicy::none();
            let plan = AlgebraicPlan::compile(&db, &kd, &block, &g).unwrap();
            for seed in seeds {
                let mut sym = idr_relation::SymbolTable::new();
                let w = generate(
                    &db,
                    &mut sym,
                    WorkloadConfig {
                        entities: 15,
                        fragment_pct: 55,
                        inserts: 12,
                        corrupt_pct: 40,
                        seed,
                    },
                );
                let keys: Vec<AttrSet> = ir.block_keys[0].clone();
                let rep = KeRep::build(
                    &keys,
                    w.state.iter_all().map(|(_, t)| t.clone()),
                    &g,
                )
                .unwrap();
                for (i, t) in &w.inserts {
                    let (via_rep, _) = algorithm2(&db, &rep, *i, t, &g, &rp).unwrap();
                    let (via_alg, _) =
                        algorithm2_algebraic(&db, &plan, &w.state, *i, t, &g).unwrap();
                    assert_eq!(
                        via_rep.is_consistent(),
                        via_alg.is_consistent(),
                        "engines disagree on {t:?} into {i} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn example7_selection_returns_the_paper_tuple() {
        // Example 7: σ_{A='a'}(R1 ⋈ R2 ⋈ (R4 ⋈ R5)) returns <a, b, c, e1>.
        let db = example4();
        let kd = KeyDeps::of(&db);
        let block: Vec<usize> = (0..db.len()).collect();
        let plan = AlgebraicPlan::compile(&db, &kd, &block, &Guard::unlimited()).unwrap();
        let mut sym = idr_relation::SymbolTable::new();
        let state = idr_relation::state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("A", "a"), ("C", "c")]),
                ("R4", &[("E", "e1"), ("B", "b")]),
                ("R5", &[("E", "e1"), ("C", "c")]),
            ],
        )
        .unwrap();
        let u = db.universe();
        let probe = Tuple::from_pairs([(u.attr_of("A"), sym.intern("a"))]);
        let mut stats = MaintenanceStats::default();
        let got = plan
            .lookup(&state, u.set_of("A"), &probe, &mut stats, &Guard::unlimited())
            .unwrap()
            .expect("the greatest nonempty selection");
        assert_eq!(got.attrs(), u.set_of("ABCE"));
        assert_eq!(got.value(u.attr_of("E")), sym.intern("e1"));
    }
}
