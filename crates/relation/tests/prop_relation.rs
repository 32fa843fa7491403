//! Randomized property tests for the relational substrate: AttrSet is a
//! Boolean algebra, Tuple::join is a partial commutative/associative
//! operation, and the expression evaluator satisfies the algebraic laws
//! and agrees with a nested-loop reference on random expressions.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these run seeded [`SplitMix64`] loops — every case is
//! deterministic and a failure message pinpoints the case index.

use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, Attribute, SymbolTable, Tuple};

const CASES: usize = 256;

/// A random attribute set over attributes `0..max`.
fn rand_attrset(rng: &mut SplitMix64, max: usize) -> AttrSet {
    let n = rng.gen_range(0, max);
    AttrSet::from_iter((0..n).map(|_| Attribute::from_index(rng.gen_range(0, max))))
}

#[test]
fn union_is_commutative() {
    let mut master = SplitMix64::new(0xA001);
    for case in 0..CASES {
        let mut rng = master.split();
        let (a, b) = (rand_attrset(&mut rng, 40), rand_attrset(&mut rng, 40));
        assert_eq!(a | b, b | a, "case {case}");
    }
}

#[test]
fn intersection_distributes_over_union() {
    let mut master = SplitMix64::new(0xA002);
    for case in 0..CASES {
        let mut rng = master.split();
        let a = rand_attrset(&mut rng, 40);
        let b = rand_attrset(&mut rng, 40);
        let c = rand_attrset(&mut rng, 40);
        assert_eq!(a & (b | c), (a & b) | (a & c), "case {case}");
    }
}

#[test]
fn difference_then_union_restores_subset() {
    let mut master = SplitMix64::new(0xA003);
    for case in 0..CASES {
        let mut rng = master.split();
        let (a, b) = (rand_attrset(&mut rng, 40), rand_attrset(&mut rng, 40));
        let d = a - b;
        assert!(d.is_subset(a), "case {case}");
        assert!(d.is_disjoint(b), "case {case}");
        assert_eq!(d | (a & b), a, "case {case}");
    }
}

#[test]
fn subset_iff_union_absorbs() {
    let mut master = SplitMix64::new(0xA004);
    for case in 0..CASES {
        let mut rng = master.split();
        let (a, b) = (rand_attrset(&mut rng, 40), rand_attrset(&mut rng, 40));
        assert_eq!(a.is_subset(b), (a | b) == b, "case {case}");
    }
}

#[test]
fn iteration_matches_membership() {
    let mut master = SplitMix64::new(0xA005);
    for case in 0..CASES {
        let mut rng = master.split();
        let a = rand_attrset(&mut rng, 200);
        let collected: Vec<Attribute> = a.iter().collect();
        assert_eq!(collected.len(), a.len(), "case {case}");
        for attr in &collected {
            assert!(a.contains(*attr), "case {case}");
        }
        let mut sorted = collected.clone();
        sorted.sort();
        assert_eq!(collected, sorted, "case {case}");
    }
}

/// Random tuples over a tiny universe and a tiny value pool, so joins hit
/// both agreeing and conflicting cases.
fn rand_tuple(rng: &mut SplitMix64, sym: &mut SymbolTable) -> Tuple {
    let n = rng.gen_range(0, 6);
    Tuple::from_pairs((0..n).map(|_| {
        let a = rng.gen_range(0, 6);
        let v = rng.gen_range(0, 3);
        (Attribute::from_index(a), sym.intern(&format!("{a}:{v}")))
    }))
}

#[test]
fn tuple_join_is_commutative() {
    let mut master = SplitMix64::new(0xB001);
    for case in 0..CASES {
        let mut rng = master.split();
        let mut sym = SymbolTable::new();
        let ta = rand_tuple(&mut rng, &mut sym);
        let tb = rand_tuple(&mut rng, &mut sym);
        assert_eq!(ta.join(&tb), tb.join(&ta), "case {case}");
    }
}

#[test]
fn tuple_join_is_associative() {
    let mut master = SplitMix64::new(0xB002);
    for case in 0..CASES {
        let mut rng = master.split();
        let mut sym = SymbolTable::new();
        let ta = rand_tuple(&mut rng, &mut sym);
        let tb = rand_tuple(&mut rng, &mut sym);
        let tc = rand_tuple(&mut rng, &mut sym);
        let left = ta.join(&tb).and_then(|j| j.join(&tc));
        let right = tb.join(&tc).and_then(|j| ta.join(&j));
        // Associativity can differ when an intermediate join fails but the
        // other grouping sidesteps the conflict — in that case both sides
        // must still agree whenever both are defined.
        if let (Some(l), Some(r)) = (&left, &right) {
            assert_eq!(l, r, "case {case}");
        }
    }
}

#[test]
fn join_projections_recover_inputs() {
    let mut master = SplitMix64::new(0xB003);
    for case in 0..CASES {
        let mut rng = master.split();
        let mut sym = SymbolTable::new();
        let ta = rand_tuple(&mut rng, &mut sym);
        let tb = rand_tuple(&mut rng, &mut sym);
        if let Some(j) = ta.join(&tb) {
            assert_eq!(j.project(ta.attrs()), ta, "case {case}");
            assert_eq!(j.project(tb.attrs()), tb, "case {case}");
        }
    }
}

/// Algebraic laws of the expression evaluator on random tiny states.
mod algebra_laws {
    use idr_relation::algebra::Expr;
    use idr_relation::rng::SplitMix64;
    use idr_relation::{state_of, DatabaseState, SchemeBuilder, SymbolTable};

    const CASES: usize = 128;

    fn rand_rows(rng: &mut SplitMix64) -> Vec<(usize, usize)> {
        (0..rng.gen_range(0, 5))
            .map(|_| (rng.gen_range(0, 3), rng.gen_range(0, 3)))
            .collect()
    }

    fn setup(
        rows: &[(usize, usize)],
        rows2: &[(usize, usize)],
    ) -> (idr_relation::DatabaseScheme, SymbolTable, DatabaseState) {
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["AB"])
            .scheme("R2", "BC", ["BC"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let mut spec: Vec<(&str, Vec<(&str, String)>)> = Vec::new();
        for &(a, b) in rows {
            spec.push(("R1", vec![("A", format!("a{a}")), ("B", format!("b{b}"))]));
        }
        for &(b, c) in rows2 {
            spec.push(("R2", vec![("B", format!("b{b}")), ("C", format!("c{c}"))]));
        }
        let borrowed: Vec<(&str, Vec<(&str, &str)>)> = spec
            .iter()
            .map(|(n, ps)| (*n, ps.iter().map(|(a, v)| (*a, v.as_str())).collect()))
            .collect();
        let as_slices: Vec<(&str, &[(&str, &str)])> =
            borrowed.iter().map(|(n, ps)| (*n, ps.as_slice())).collect();
        let state = state_of(&scheme, &mut sym, &as_slices).unwrap();
        (scheme, sym, state)
    }

    #[test]
    fn projection_composes() {
        let mut master = SplitMix64::new(0xC001);
        for case in 0..CASES {
            let mut rng = master.split();
            let (rows, rows2) = (rand_rows(&mut rng), rand_rows(&mut rng));
            let (scheme, _sym, state) = setup(&rows, &rows2);
            let u = scheme.universe();
            let e = Expr::rel(0).join(Expr::rel(1));
            // π_A(π_AB(e)) = π_A(e).
            let lhs = e
                .clone()
                .project(u.set_of("AB"))
                .project(u.set_of("A"))
                .eval(&state)
                .unwrap();
            let rhs = e.project(u.set_of("A")).eval(&state).unwrap();
            assert!(lhs.set_eq(&rhs), "case {case}");
        }
    }

    #[test]
    fn join_is_commutative_as_sets() {
        let mut master = SplitMix64::new(0xC002);
        for case in 0..CASES {
            let mut rng = master.split();
            let (rows, rows2) = (rand_rows(&mut rng), rand_rows(&mut rng));
            let (_scheme, _sym, state) = setup(&rows, &rows2);
            let l = Expr::rel(0).join(Expr::rel(1)).eval(&state).unwrap();
            let r = Expr::rel(1).join(Expr::rel(0)).eval(&state).unwrap();
            assert!(l.set_eq(&r), "case {case}");
        }
    }

    #[test]
    fn selection_commutes_with_join_on_own_side() {
        let mut master = SplitMix64::new(0xC003);
        for case in 0..CASES {
            let mut rng = master.split();
            let (rows, rows2) = (rand_rows(&mut rng), rand_rows(&mut rng));
            let (scheme, mut sym, state) = setup(&rows, &rows2);
            let u = scheme.universe();
            let v = sym.intern("a0");
            let formula = vec![(u.attr_of("A"), v)];
            // σ_A=a0(R1 ⋈ R2) = σ_A=a0(R1) ⋈ R2.
            let l = Expr::rel(0)
                .join(Expr::rel(1))
                .select(formula.clone())
                .eval(&state)
                .unwrap();
            let r = Expr::rel(0)
                .select(formula)
                .join(Expr::rel(1))
                .eval(&state)
                .unwrap();
            assert!(l.set_eq(&r), "case {case}");
        }
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let mut master = SplitMix64::new(0xC004);
        for case in 0..CASES {
            let mut rng = master.split();
            let (rows, rows2) = (rand_rows(&mut rng), rand_rows(&mut rng));
            let (scheme, _sym, state) = setup(&rows, &rows2);
            let u = scheme.universe();
            let a = Expr::rel(0).project(u.set_of("B"));
            let b = Expr::rel(1).project(u.set_of("B"));
            let ab = a.clone().union(b.clone()).eval(&state).unwrap();
            let ba = b.clone().union(a.clone()).eval(&state).unwrap();
            assert!(ab.set_eq(&ba), "case {case}");
            let aa = a.clone().union(a.clone()).eval(&state).unwrap();
            let just_a = a.eval(&state).unwrap();
            assert!(aa.set_eq(&just_a), "case {case}");
        }
    }
}

/// The evaluator against a nested-loop reference over random schemes,
/// states and expression trees.
mod differential {
    use std::collections::BTreeSet;

    use idr_relation::algebra::Expr;
    use idr_relation::rng::SplitMix64;
    use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SchemeBuilder, SymbolTable, Tuple};

    const CASES: usize = 512;
    const ATTRS: &str = "ABCDE";

    /// 2–4 relation schemes of 1–3 attributes over `ABCDE`; the last one
    /// takes every attribute the others miss, so the scheme covers the
    /// universe. Two schemes may share no attribute (a cartesian join).
    fn rand_scheme(rng: &mut SplitMix64) -> DatabaseScheme {
        let k = rng.gen_range_inclusive(2, 4);
        let mut covered = BTreeSet::new();
        let mut b = SchemeBuilder::new(ATTRS);
        for i in 0..k {
            let mut attrs: BTreeSet<char> = (0..rng.gen_range_inclusive(1, 3))
                .map(|_| ATTRS.as_bytes()[rng.gen_range(0, ATTRS.len())] as char)
                .collect();
            if i + 1 == k {
                attrs.extend(ATTRS.chars().filter(|c| !covered.contains(c)));
            }
            covered.extend(attrs.iter().copied());
            let attrs: String = attrs.into_iter().collect();
            b = b.scheme(&format!("R{i}"), &attrs, [attrs.as_str()]);
        }
        b.build().unwrap()
    }

    /// A value of attribute `a` from a pool of three, so joins and
    /// selections both hit and miss.
    fn rand_value(rng: &mut SplitMix64, sym: &mut SymbolTable, a: usize) -> idr_relation::Value {
        sym.intern(&format!("{a}:{}", rng.gen_range(0, 3)))
    }

    /// 0–5 random tuples per relation (some relations stay empty).
    fn rand_state(
        rng: &mut SplitMix64,
        db: &DatabaseScheme,
        sym: &mut SymbolTable,
    ) -> DatabaseState {
        let mut state = DatabaseState::empty(db);
        for (i, s) in db.schemes().iter().enumerate() {
            for _ in 0..rng.gen_range(0, 6) {
                let t = Tuple::from_pairs(
                    s.attrs()
                        .iter()
                        .map(|a| (a, rand_value(rng, sym, a.index())))
                        .collect::<Vec<_>>(),
                );
                state.insert(i, t).unwrap();
            }
        }
        state
    }

    /// A random subset of `s` (possibly empty).
    fn rand_subset(rng: &mut SplitMix64, s: AttrSet) -> AttrSet {
        AttrSet::from_iter(s.iter().filter(|_| rng.gen_pct(50)))
    }

    /// A random well-formed expression and its output attributes.
    fn rand_expr(
        rng: &mut SplitMix64,
        db: &DatabaseScheme,
        sym: &mut SymbolTable,
        depth: usize,
    ) -> (Expr, AttrSet) {
        if depth == 0 || rng.gen_pct(25) {
            let i = rng.gen_range(0, db.len());
            return (Expr::rel(i), db.scheme(i).attrs());
        }
        match rng.gen_range(0, 4) {
            0 => {
                let (e, s) = rand_expr(rng, db, sym, depth - 1);
                let x = rand_subset(rng, s);
                (e.project(x), x)
            }
            1 => {
                let (e, s) = rand_expr(rng, db, sym, depth - 1);
                let attrs: Vec<_> = s.iter().collect();
                if attrs.is_empty() {
                    return (e, s);
                }
                // One to three conjuncts, possibly two on one attribute.
                let formula = (0..rng.gen_range_inclusive(1, 3))
                    .map(|_| {
                        let a = attrs[rng.gen_range(0, attrs.len())];
                        (a, rand_value(rng, sym, a.index()))
                    })
                    .collect();
                (e.select(formula), s)
            }
            2 => {
                let (l, ls) = rand_expr(rng, db, sym, depth - 1);
                let (r, rs) = rand_expr(rng, db, sym, depth - 1);
                (l.join(r), ls | rs)
            }
            _ => {
                // Project both sides onto their common attributes (maybe
                // none) so the union is well-formed.
                let (l, ls) = rand_expr(rng, db, sym, depth - 1);
                let (r, rs) = rand_expr(rng, db, sym, depth - 1);
                let x = ls & rs;
                (l.project(x).union(r.project(x)), x)
            }
        }
    }

    /// Nested-loop semantics straight from the definitions (§2.1, §2.7).
    fn reference(e: &Expr, state: &DatabaseState) -> BTreeSet<Tuple> {
        match e {
            Expr::Rel(i) => state.relation(*i).iter().cloned().collect(),
            Expr::Project(x, e) => reference(e, state).iter().map(|t| t.project(*x)).collect(),
            Expr::Select(formula, e) => reference(e, state)
                .into_iter()
                .filter(|t| formula.iter().all(|&(a, v)| t.value(a) == v))
                .collect(),
            Expr::Join(l, r) => {
                let (l, r) = (reference(l, state), reference(r, state));
                let mut out = BTreeSet::new();
                for a in &l {
                    for b in &r {
                        if let Some(j) = a.join(b) {
                            out.insert(j);
                        }
                    }
                }
                out
            }
            Expr::Union(l, r) => {
                let mut out = reference(l, state);
                out.extend(reference(r, state));
                out
            }
        }
    }

    #[test]
    fn evaluator_agrees_with_nested_loops() {
        let mut master = SplitMix64::new(0xD001);
        for case in 0..CASES {
            let mut rng = master.split();
            let db = rand_scheme(&mut rng);
            let mut sym = SymbolTable::new();
            let state = rand_state(&mut rng, &db, &mut sym);
            let (e, attrs) = rand_expr(&mut rng, &db, &mut sym, 4);
            let want: Vec<Tuple> = reference(&e, &state).into_iter().collect();
            let got = e.eval_sorted(&state).unwrap();
            assert_eq!(got, want, "case {case}: {}", e.render(&db));
            let rel = e.eval(&state).unwrap();
            assert_eq!(rel.attrs(), attrs, "case {case}");
            assert_eq!(e.output_scheme(&db).unwrap(), attrs, "case {case}");
            assert_eq!(rel.sorted_tuples(), want, "case {case}");
        }
    }
}
