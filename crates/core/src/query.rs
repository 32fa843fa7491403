//! Boundedness: predetermined relational expressions for X-total
//! projections (Corollary 3.1(b) and Theorem 4.1).
//!
//! For a key-equivalent scheme, `[X]` is *exactly* the union of
//! projections onto `X` of the joins of lossless subsets covering `X`
//! (Corollary 3.1(b)); since a join over a superset produces a subset of
//! the tuples, the union over *inclusion-minimal* lossless covering
//! subsets suffices. For an independence-reducible scheme, Theorem 4.1
//! lifts this to two levels: enumerate lossless covering families of
//! *blocks*, compute each block's `[Yⱼ]` by the key-equivalent expression,
//! and join.
//!
//! Losslessness of a subset is decided by the all-dv-row chase criterion
//! with the scheme's key dependencies (§2.3). Note the chase may route
//! equalities through attributes *outside* the subset's union (the paper's
//! own Example 4 needs `BC→D, D→A` to justify `π_AE(AB ⋈ AC ⋈ BE ⋈ CE)`),
//! so the test chases over the full universe rather than projecting the
//! dependencies.
//!
//! Every entry point takes an execution context (`&Guard`): the `2ⁿ`
//! subset enumeration is charged against the guard's enumeration budget up
//! front (with [`DEFAULT_MAX_ENUMERATION`] as the backstop when the budget
//! is unlimited), and deadline/cancellation is checked per candidate
//! subset. [`Guard::unlimited`] is the easy default.

use idr_chase::lossless::dv_closures;
use idr_fd::{FdSet, KeyDeps};
use idr_relation::algebra::Expr;
use idr_relation::exec::{ExecError, FaultKind, Guard, Resource, DEFAULT_MAX_ENUMERATION};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, Relation};

use crate::recognition::IrScheme;

/// Size bound historically enforced by assertion; families beyond it now
/// trip the guard's enumeration budget instead.
pub const MAX_COVER_FAMILY: usize = 16;

/// Enumerates the inclusion-minimal subsets of `family` that cover `x` and
/// are lossless with respect to `fds` (chase all-dv criterion over the
/// subset's union). Returned as index lists into `family`, in a canonical
/// order (by size, then lexicographically).
pub fn minimal_lossless_covers(
    family: &[AttrSet],
    fds: &FdSet,
    x: AttrSet,
    guard: &Guard,
) -> Result<Vec<Vec<usize>>, ExecError> {
    charge_family(family.len(), guard)?;
    covers_impl(family, fds, x, true, guard)
}

/// Enumerates *all* subsets of `family` that cover `x` and are lossless —
/// no minimality filter. Theorem 3.2's maintenance construction selects
/// over every such join and keeps the greatest nonempty one, so the full
/// family is needed (for query answering, [`minimal_lossless_covers`]
/// suffices since larger joins produce subsets of smaller joins' tuples).
pub fn all_lossless_covers(
    family: &[AttrSet],
    fds: &FdSet,
    x: AttrSet,
    guard: &Guard,
) -> Result<Vec<Vec<usize>>, ExecError> {
    charge_family(family.len(), guard)?;
    covers_impl(family, fds, x, false, guard)
}

/// Charges the `2ⁿ` cover enumeration to the guard, rejecting families too
/// large for the `u32` mask representation outright.
fn charge_family(n: usize, guard: &Guard) -> Result<(), ExecError> {
    if n > 31 {
        return Err(ExecError::BudgetExceeded {
            resource: Resource::Enumeration,
            limit: guard
                .budget()
                .max_enumeration
                .unwrap_or(DEFAULT_MAX_ENUMERATION),
            spent: u64::MAX,
        });
    }
    guard.enumeration(1u64 << n)
}

/// Shared enumeration body. `minimal` selects the inclusion-minimal search
/// (size-ordered masks, superset skip); the guard is checked per candidate
/// subset for deadline/cancellation.
fn covers_impl(
    family: &[AttrSet],
    fds: &FdSet,
    x: AttrSet,
    minimal: bool,
    guard: &Guard,
) -> Result<Vec<Vec<usize>>, ExecError> {
    let n = family.len();
    let mut masks: Vec<u32> = (1u32..(1 << n)).collect();
    if minimal {
        masks.sort_by_key(|m| (m.count_ones(), *m));
    }
    let mut accepted: Vec<u32> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    'next: for mask in masks {
        guard.checkpoint()?;
        // Skip supersets of already-accepted (minimal) covers.
        for &a in &accepted {
            if a & mask == a {
                continue 'next;
            }
        }
        let members: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let union = members
            .iter()
            .fold(AttrSet::empty(), |acc, &i| acc | family[i]);
        if !x.is_subset(union) {
            continue;
        }
        let subset: Vec<AttrSet> = members.iter().map(|&i| family[i]).collect();
        let dv = dv_closures(&subset, fds);
        if dv.iter().any(|&c| union.is_subset(c)) {
            if minimal {
                accepted.push(mask);
            }
            out.push(members);
        }
    }
    Ok(out)
}

/// Corollary 3.1(b): the relational expression computing the X-total
/// projection `[X]` over a *key-equivalent* subset of the database scheme
/// (`block`, by scheme indices). Returns `Ok(None)` when no lossless
/// subset covers `X`, in which case `[X]` is empty on every consistent
/// state.
pub fn ke_total_projection_expr(
    scheme: &DatabaseScheme,
    kd: &KeyDeps,
    block: &[usize],
    x: AttrSet,
    guard: &Guard,
) -> Result<Option<Expr>, ExecError> {
    if x.is_empty() {
        return Ok(None);
    }
    let family: Vec<AttrSet> = block.iter().map(|&i| scheme.scheme(i).attrs()).collect();
    let fds = kd.for_subset(block);
    let covers = minimal_lossless_covers(&family, &fds, x, guard)?;
    if covers.is_empty() {
        return Ok(None);
    }
    let exprs: Vec<Expr> = covers
        .iter()
        .map(|members| {
            let indices: Vec<usize> = members.iter().map(|&m| block[m]).collect();
            Expr::sequential(&indices).project(x)
        })
        .collect();
    Ok(Some(Expr::union_all(exprs)))
}

/// Theorem 4.1: the relational expression computing `[X]` over an
/// independence-reducible scheme. Enumerates minimal lossless covering
/// families of blocks; within each family, block `j` contributes its
/// `Yⱼ`-total projection where
/// `Yⱼ = Dⱼ ∩ (D₁ ∪ … ∪ Dⱼ₋₁ ∪ Dⱼ₊₁ ∪ … ∪ X)`,
/// computed by the key-equivalent expression. Returns `Ok(None)` when
/// `[X]` is empty on every consistent state.
pub fn ir_total_projection_expr(
    scheme: &DatabaseScheme,
    kd: &KeyDeps,
    ir: &IrScheme,
    x: AttrSet,
    guard: &Guard,
) -> Result<Option<Expr>, ExecError> {
    if x.is_empty() {
        return Ok(None);
    }
    // Block-level embedded cover: every block key maps to its block union.
    let block_fds = (0..ir.len())
        .map(|b| crate::recognition::block_key_fds(ir, b))
        .fold(FdSet::new(), |acc, f| acc.union(&f));
    let covers = minimal_lossless_covers(&ir.block_attrs, &block_fds, x, guard)?;
    if covers.is_empty() {
        return Ok(None);
    }
    let mut alternatives: Vec<Expr> = Vec::new();
    'covers: for v in &covers {
        let mut sub_exprs: Vec<Expr> = Vec::new();
        for (pos, &b) in v.iter().enumerate() {
            let mut others = x;
            for (pos2, &b2) in v.iter().enumerate() {
                if pos2 != pos {
                    others |= ir.block_attrs[b2];
                }
            }
            let y_j = ir.block_attrs[b] & others;
            if y_j.is_empty() {
                // A block sharing nothing with the query or the other
                // blocks contributes no join attributes; the cover cannot
                // have been minimal-and-connected, skip it defensively.
                continue 'covers;
            }
            let sub = ke_total_projection_expr(scheme, kd, &ir.partition[b], y_j, guard)?
                .expect("a key-equivalent block always covers subsets of its union");
            sub_exprs.push(sub);
        }
        let mut joined = sub_exprs.remove(0);
        for e in sub_exprs {
            joined = joined.join(e);
        }
        alternatives.push(joined.project(x));
    }
    if alternatives.is_empty() {
        return Ok(None);
    }
    Ok(Some(Expr::union_all(alternatives)))
}

/// Evaluates the Theorem 4.1 expression over a state: the bounded,
/// chase-free computation of `[X]`. Returns an empty relation over `x`
/// when no expression exists. An evaluation error (an internally malformed
/// expression — never expected from this module's own construction)
/// surfaces as a permanent [`ExecError::Faulted`].
pub fn ir_total_projection(
    scheme: &DatabaseScheme,
    kd: &KeyDeps,
    ir: &IrScheme,
    state: &DatabaseState,
    x: AttrSet,
    guard: &Guard,
) -> Result<Relation, ExecError> {
    match ir_total_projection_expr(scheme, kd, ir, x, guard)? {
        Some(expr) => expr.eval(state).map_err(|e| ExecError::Faulted {
            kind: FaultKind::Permanent,
            operation: format!("relational expression evaluation: {e}"),
            attempts: 1,
        }),
        None => Ok(Relation::new(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognition::recognize;
    use idr_relation::{state_of, SchemeBuilder, SymbolTable};

    /// Example 4/7's scheme.
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
    fn example4_ae_projection_structure() {
        // [AE] = R3 ∪ π_AE(AB ⋈ AC ⋈ (BE ⋈ CE)) — i.e. exactly two
        // minimal lossless covers of AE: {R3} and {R1, R2, R4, R5}.
        let db = example4();
        let kd = KeyDeps::of(&db);
        let block: Vec<usize> = (0..7).collect();
        let family: Vec<AttrSet> = block.iter().map(|&i| db.scheme(i).attrs()).collect();
        let covers = minimal_lossless_covers(
            &family,
            kd.full(),
            db.universe().set_of("AE"),
            &Guard::unlimited(),
        )
        .unwrap();
        assert!(covers.contains(&vec![2]), "R3 alone covers AE: {covers:?}");
        assert!(
            covers.contains(&vec![0, 1, 3, 4]),
            "AB ⋈ AC ⋈ BE ⋈ CE is the second cover: {covers:?}"
        );
    }

    #[test]
    fn example4_ae_projection_semantics() {
        // On a state exercising the second cover, the expression agrees
        // with the chase.
        let db = example4();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        assert_eq!(ir.len(), 1);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("A", "a"), ("C", "c")]),
                ("R4", &[("E", "e"), ("B", "b")]),
                ("R5", &[("E", "e"), ("C", "c")]),
            ],
        )
        .unwrap();
        let x = db.universe().set_of("AE");
        let g = Guard::unlimited();
        let fast = ir_total_projection(&db, &kd, &ir, &state, x, &g).unwrap();
        let oracle = idr_chase::total_projection(&db, &state, kd.full(), x, &g)
            .unwrap()
            .unwrap();
        assert_eq!(fast.sorted_tuples(), oracle);
        assert_eq!(fast.len(), 1, "derives <a, e> through keys BC and A");
    }

    #[test]
    fn example12_acg_projection() {
        // Example 12: D = {D1(ABCD), D2(DEFG)}; the ACG expression is
        // π_ACG((π_ACD(R1⋈R2⋈R4) ∪ π_ACD(R3⋈R4)) ⋈ π_DG(R6)).
        let db = SchemeBuilder::new("ABCDEFG")
            .scheme("R1", "AB", ["A", "B"])
            .scheme("R2", "BC", ["B", "C"])
            .scheme("R3", "AC", ["A", "C"])
            .scheme("R4", "AD", ["A"])
            .scheme("R5", "DEF", ["D"])
            .scheme("R6", "DEG", ["D"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let u = db.universe();
        let x = u.set_of("ACG");
        let g = Guard::unlimited();

        // Block-level: the only minimal lossless cover of ACG is {D1, D2}.
        let block_fds = (0..ir.len())
            .map(|b| crate::recognition::block_key_fds(&ir, b))
            .fold(idr_fd::FdSet::new(), |acc, f| acc.union(&f));
        let covers = minimal_lossless_covers(&ir.block_attrs, &block_fds, x, &g).unwrap();
        assert_eq!(covers, vec![vec![0, 1]]);

        // Y1 = ACD within block 1 has exactly the two covers of the paper.
        let y1 = u.set_of("ACD");
        let family: Vec<AttrSet> = ir.partition[0]
            .iter()
            .map(|&i| db.scheme(i).attrs())
            .collect();
        let b_covers = minimal_lossless_covers(&family, &ir.block_fds[0], y1, &g).unwrap();
        assert!(b_covers.contains(&vec![2, 3]), "{b_covers:?}"); // R3 ⋈ R4
        assert!(b_covers.contains(&vec![0, 1, 3]), "{b_covers:?}"); // R1⋈R2⋈R4

        // Semantics against the chase on a populated state.
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
                ("R4", &[("A", "a"), ("D", "d")]),
                ("R6", &[("D", "d"), ("E", "e"), ("G", "g")]),
            ],
        )
        .unwrap();
        let fast = ir_total_projection(&db, &kd, &ir, &state, x, &g).unwrap();
        let oracle = idr_chase::total_projection(&db, &state, kd.full(), x, &g)
            .unwrap()
            .unwrap();
        assert_eq!(fast.sorted_tuples(), oracle);
        assert_eq!(fast.len(), 1, "derives <a, c, g>");
    }

    #[test]
    fn uncoverable_projection_is_empty() {
        // Two disconnected independent blocks: no lossless cover spans
        // them, so [AC] is always empty.
        let db = SchemeBuilder::new("ABCD")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "CD", ["C"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let x = db.universe().set_of("AC");
        let g = Guard::unlimited();
        assert!(ir_total_projection_expr(&db, &kd, &ir, x, &g)
            .unwrap()
            .is_none());
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("C", "c"), ("D", "d")]),
            ],
        )
        .unwrap();
        let oracle = idr_chase::total_projection(&db, &state, kd.full(), x, &g)
            .unwrap()
            .unwrap();
        assert!(oracle.is_empty());
    }

    #[test]
    fn single_scheme_projection() {
        let db = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let x = db.universe().set_of("B");
        let expr = ir_total_projection_expr(&db, &kd, &ir, x, &Guard::unlimited())
            .unwrap()
            .unwrap();
        assert_eq!(expr.output_scheme(&db).unwrap(), x);
        assert_eq!(expr.rel_refs(), 1);
    }
}
