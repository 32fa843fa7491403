//! Relational-algebra expressions (§2.6–§2.7 of the paper).
//!
//! The boundedness results of the paper (Corollary 3.1(b), Theorem 4.1) are
//! statements about *predetermined relational expressions*: unions of
//! projections of joins of relation schemes. This module provides a small
//! AST for exactly that fragment — relation references, natural join,
//! projection, conjunctive selection, union — plus constructors for the
//! paper's *extension joins* and *sequential joins*, and an evaluator over
//! [`DatabaseState`]s that hash-joins borrowed relations.

use std::fmt;

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::DatabaseScheme;
use crate::state::DatabaseState;
use crate::symbol::Value;
use crate::tuple::Tuple;
use crate::universe::Attribute;

/// A relational-algebra expression over a database scheme.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A base relation, by scheme index.
    Rel(usize),
    /// Projection `π_X(e)`.
    Project(AttrSet, Box<Expr>),
    /// Conjunctive selection `σ_{A1=c1 ∧ …}(e)` (§2.7).
    Select(Vec<(Attribute, Value)>, Box<Expr>),
    /// Natural join `e1 ⋈ e2`.
    Join(Box<Expr>, Box<Expr>),
    /// Union `e1 ∪ e2` (both sides must have the same output scheme).
    Union(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A base-relation reference.
    pub fn rel(i: usize) -> Expr {
        Expr::Rel(i)
    }

    /// Projection.
    pub fn project(self, x: AttrSet) -> Expr {
        Expr::Project(x, Box::new(self))
    }

    /// Conjunctive selection.
    pub fn select(self, formula: Vec<(Attribute, Value)>) -> Expr {
        Expr::Select(formula, Box::new(self))
    }

    /// Natural join.
    pub fn join(self, other: Expr) -> Expr {
        Expr::Join(Box::new(self), Box::new(other))
    }

    /// Union.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// The *sequential join* `((Ri1 ⋈ Ri2) ⋈ …) ⋈ Rim` over scheme indices
    /// (§2.6). Panics on an empty sequence.
    pub fn sequential(indices: &[usize]) -> Expr {
        assert!(!indices.is_empty(), "sequential join of nothing");
        let mut e = Expr::rel(indices[0]);
        for &i in &indices[1..] {
            e = e.join(Expr::rel(i));
        }
        e
    }

    /// A union over a nonempty list of expressions.
    pub fn union_all(mut exprs: Vec<Expr>) -> Expr {
        assert!(!exprs.is_empty(), "union of nothing");
        let mut e = exprs.remove(0);
        for x in exprs {
            e = e.union(x);
        }
        e
    }

    /// Computes the output attribute set of the expression and validates it
    /// (projections contained, selections contained, unions compatible).
    pub fn output_scheme(&self, scheme: &DatabaseScheme) -> Result<AttrSet, RelationError> {
        match self {
            Expr::Rel(i) => scheme
                .schemes()
                .get(*i)
                .map(|s| s.attrs())
                .ok_or(RelationError::UnknownRelation(*i)),
            Expr::Project(x, e) => {
                let inner = e.output_scheme(scheme)?;
                if !x.is_subset(inner) {
                    return Err(RelationError::ProjectionNotContained);
                }
                Ok(*x)
            }
            Expr::Select(formula, e) => {
                let inner = e.output_scheme(scheme)?;
                for &(a, _) in formula {
                    if !inner.contains(a) {
                        return Err(RelationError::SelectionNotContained);
                    }
                }
                Ok(inner)
            }
            Expr::Join(l, r) => Ok(l.output_scheme(scheme)? | r.output_scheme(scheme)?),
            Expr::Union(l, r) => {
                let ls = l.output_scheme(scheme)?;
                let rs = r.output_scheme(scheme)?;
                if ls != rs {
                    return Err(RelationError::UnionSchemeMismatch);
                }
                Ok(ls)
            }
        }
    }

    /// Evaluates the expression over a database state. Base relations
    /// are read in place; see [`Expr::eval_sorted`] for the answer as a
    /// sorted `Vec` without building a [`Relation`].
    ///
    /// # Errors
    ///
    /// [`RelationError::UnknownRelation`], [`RelationError::ProjectionNotContained`],
    /// [`RelationError::SelectionNotContained`] or
    /// [`RelationError::UnionSchemeMismatch`] for a malformed expression,
    /// the first one met evaluating inputs left to right.
    pub fn eval(&self, state: &DatabaseState) -> Result<Relation, RelationError> {
        let (attrs, tuples) = crate::eval::eval_sorted(self, state)?;
        Relation::from_tuples(attrs, tuples)
    }

    /// Evaluates the expression over a database state into its distinct
    /// tuples in ascending order — what [`Relation::sorted_tuples`] of
    /// [`Expr::eval`]'s result would give, without the relation.
    ///
    /// # Errors
    ///
    /// As [`Expr::eval`].
    pub fn eval_sorted(&self, state: &DatabaseState) -> Result<Vec<Tuple>, RelationError> {
        crate::eval::eval_sorted(self, state).map(|(_, tuples)| tuples)
    }

    /// Counts base-relation references — a proxy for expression size used
    /// in the boundedness experiments.
    pub fn rel_refs(&self) -> usize {
        match self {
            Expr::Rel(_) => 1,
            Expr::Project(_, e) | Expr::Select(_, e) => e.rel_refs(),
            Expr::Join(l, r) | Expr::Union(l, r) => l.rel_refs() + r.rel_refs(),
        }
    }

    /// Renders the expression with scheme names for display.
    pub fn render(&self, scheme: &DatabaseScheme) -> String {
        struct D<'a>(&'a Expr, &'a DatabaseScheme);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Expr::Rel(i) => write!(f, "{}", self.1.scheme(*i).name()),
                    Expr::Project(x, e) => {
                        write!(
                            f,
                            "π[{}]({})",
                            self.1.universe().render(*x),
                            D(e, self.1)
                        )
                    }
                    Expr::Select(formula, e) => {
                        write!(f, "σ[")?;
                        for (i, (a, v)) in formula.iter().enumerate() {
                            if i > 0 {
                                write!(f, "∧")?;
                            }
                            write!(f, "{}=v{}", self.1.universe().name(*a), v.index())?;
                        }
                        write!(f, "]({})", D(e, self.1))
                    }
                    Expr::Join(l, r) => write!(f, "({} ⋈ {})", D(l, self.1), D(r, self.1)),
                    Expr::Union(l, r) => write!(f, "({} ∪ {})", D(l, self.1), D(r, self.1)),
                }
            }
        }
        format!("{}", D(self, scheme))
    }
}

/// Checks whether `e1 ⋈ e2` is an *extension join* (§2.6): there is
/// `Y ⊆ R2 − R1` with `R2 ∩ R1 → Y ∈ F⁺` — i.e. the join extends tuples of
/// `e1` by functionally determined new attributes. The FD check is supplied
/// as a closure so this crate stays independent of the FD crate.
pub fn is_extension_join<F>(r1: AttrSet, r2: AttrSet, implies: F) -> bool
where
    F: Fn(AttrSet, AttrSet) -> bool,
{
    let common = r1 & r2;
    let new = r2 - r1;
    !new.is_empty() && implies(common, new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemeBuilder;
    use crate::state::state_of;
    use crate::symbol::SymbolTable;

    fn setup() -> (DatabaseScheme, SymbolTable, DatabaseState) {
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a1"), ("B", "b1")]),
                ("R1", &[("A", "a2"), ("B", "b2")]),
                ("R2", &[("B", "b1"), ("C", "c1")]),
            ],
        )
        .unwrap();
        (scheme, sym, state)
    }

    #[test]
    fn join_project_eval() {
        let (scheme, _sym, state) = setup();
        let x = scheme.universe().set_of("AC");
        let e = Expr::rel(0).join(Expr::rel(1)).project(x);
        assert_eq!(e.output_scheme(&scheme).unwrap(), x);
        let r = e.eval(&state).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_eval() {
        let (scheme, mut sym, state) = setup();
        let e = Expr::rel(0).select(vec![(scheme.universe().attr_of("A"), sym.intern("a1"))]);
        let r = e.eval(&state).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_scheme_mismatch_detected() {
        let (scheme, _sym, _state) = setup();
        let e = Expr::rel(0).union(Expr::rel(1));
        assert!(matches!(
            e.output_scheme(&scheme),
            Err(RelationError::UnionSchemeMismatch)
        ));
    }

    #[test]
    fn projection_must_be_contained() {
        let (scheme, _sym, _state) = setup();
        let e = Expr::rel(0).project(scheme.universe().set_of("C"));
        assert!(matches!(
            e.output_scheme(&scheme),
            Err(RelationError::ProjectionNotContained)
        ));
    }

    #[test]
    fn sequential_join_builds_left_deep() {
        let (scheme, _sym, state) = setup();
        let e = Expr::sequential(&[0, 1]);
        assert_eq!(e.rel_refs(), 2);
        let r = e.eval(&state).unwrap();
        assert_eq!(r.attrs(), scheme.universe().set_of("ABC"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_all_folds() {
        let (_scheme, _sym, state) = setup();
        let e = Expr::union_all(vec![Expr::rel(0), Expr::rel(0)]);
        let r = e.eval(&state).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn join_matches_on_common_attributes_either_way_round() {
        let (scheme, mut sym, state) = setup();
        let lr = Expr::rel(0).join(Expr::rel(1)).eval_sorted(&state).unwrap();
        let rl = Expr::rel(1).join(Expr::rel(0)).eval_sorted(&state).unwrap();
        assert_eq!(lr, rl);
        let u = scheme.universe();
        let want = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a1")),
            (u.attr_of("B"), sym.intern("b1")),
            (u.attr_of("C"), sym.intern("c1")),
        ]);
        assert_eq!(lr, vec![want]);
    }

    #[test]
    fn join_without_common_attributes_is_cartesian() {
        let scheme = SchemeBuilder::new("AB")
            .scheme("R1", "A", ["A"])
            .scheme("R2", "B", ["B"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a1")]),
                ("R1", &[("A", "a2")]),
                ("R2", &[("B", "b1")]),
                ("R2", &[("B", "b2")]),
            ],
        )
        .unwrap();
        let r = Expr::rel(0)
            .join(Expr::rel(1))
            .eval(&state)
            .unwrap();
        assert_eq!(r.attrs(), scheme.universe().set_of("AB"));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn projection_drops_duplicates_and_union_is_idempotent() {
        let (scheme, mut sym, mut state) = setup();
        let u = scheme.universe();
        // A second R1 tuple with B = b1: π_B(R1) has two values, not three.
        let t = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a3")),
            (u.attr_of("B"), sym.intern("b1")),
        ]);
        state.insert(0, t).unwrap();
        let p = Expr::rel(0).project(u.set_of("B"));
        let once = p.eval_sorted(&state).unwrap();
        assert_eq!(once.len(), 2);
        assert_eq!(p.clone().union(p).eval_sorted(&state).unwrap(), once);
        // Onto no attribute: the empty tuple, or nothing for an empty input.
        let unit = Expr::rel(0).project(AttrSet::empty()).eval_sorted(&state);
        assert_eq!(unit.unwrap(), vec![Tuple::unit()]);
        let none = Expr::rel(1)
            .select(vec![(u.attr_of("B"), sym.intern("b2"))])
            .project(AttrSet::empty())
            .eval(&state)
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn selection_filters_every_conjunct() {
        let (scheme, mut sym, state) = setup();
        let u = scheme.universe();
        let (a, b) = (u.attr_of("A"), u.attr_of("B"));
        let hit = vec![(a, sym.intern("a1")), (b, sym.intern("b1"))];
        assert_eq!(
            Expr::rel(0)
                .select(hit)
                .eval(&state)
                .unwrap()
                .len(),
            1
        );
        let miss = vec![(a, sym.intern("a1")), (b, sym.intern("b2"))];
        assert!(Expr::rel(0)
            .select(miss)
            .eval(&state)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn eval_reports_each_malformed_expression() {
        let (scheme, mut sym, state) = setup();
        let u = scheme.universe();
        let cases = [
            (Expr::rel(2), RelationError::UnknownRelation(2)),
            (
                Expr::rel(0).join(Expr::rel(7)),
                RelationError::UnknownRelation(7),
            ),
            (
                Expr::rel(0).project(u.set_of("C")),
                RelationError::ProjectionNotContained,
            ),
            (
                Expr::rel(1).select(vec![(u.attr_of("A"), sym.intern("a1"))]),
                RelationError::SelectionNotContained,
            ),
            (
                Expr::rel(0).union(Expr::rel(1)),
                RelationError::UnionSchemeMismatch,
            ),
            // The inputs' errors come first, left to right.
            (
                Expr::rel(0).union(Expr::rel(1).project(u.set_of("A"))),
                RelationError::ProjectionNotContained,
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.eval(&state).unwrap_err(), want, "{e:?}");
            assert_eq!(e.eval_sorted(&state).unwrap_err(), want, "{e:?}");
        }
    }

    #[test]
    fn extension_join_predicate() {
        let (scheme, _, _) = setup();
        let u = scheme.universe();
        // R1(AB) ⋈ R2(BC) with B→C: an extension join.
        let yes = is_extension_join(u.set_of("AB"), u.set_of("BC"), |lhs, rhs| {
            lhs == u.set_of("B") && rhs == u.set_of("C")
        });
        assert!(yes);
        // Without the FD it is not.
        let no = is_extension_join(u.set_of("AB"), u.set_of("BC"), |_, _| false);
        assert!(!no);
    }

    #[test]
    fn render_mentions_names() {
        let (scheme, _sym, _state) = setup();
        let e = Expr::rel(0).join(Expr::rel(1)).project(scheme.universe().set_of("A"));
        let s = e.render(&scheme);
        assert!(s.contains("R1"));
        assert!(s.contains("R2"));
        assert!(s.contains("π"));
    }
}
