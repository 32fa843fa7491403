use std::fmt;
use std::sync::Arc;

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::symbol::Value;
use crate::universe::{Attribute, Universe};

/// A total tuple over an attribute set `C`.
///
/// The paper constantly manipulates "total tuples on C" where `C` is not a
/// relation scheme — e.g. the accumulating tuple `q` of Algorithm 2, the
/// extended tuple `t'` of Algorithm 4, or the constant components of a
/// partially chased tableau row. A `Tuple` is exactly that object: a map
/// from an [`AttrSet`] to values, stored densely in ascending attribute
/// order.
///
/// Natural join of two such tuples ([`Tuple::join`]) succeeds iff they agree
/// on their common attributes, which is the `q := q ⋈ v` step the
/// maintenance algorithms are built from.
///
/// The values are shared, not owned: cloning a tuple bumps a reference
/// count, so a relation's rows and the index keyed by those values point
/// at one allocation per tuple.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    attrs: AttrSet,
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple over `attrs` from values given in ascending
    /// attribute order.
    ///
    /// # Errors
    ///
    /// Fails if the number of values differs from `attrs.len()`.
    pub fn new(attrs: AttrSet, values: Vec<Value>) -> Result<Self, RelationError> {
        if attrs.len() != values.len() {
            return Err(RelationError::TupleArity {
                expected: attrs.len(),
                got: values.len(),
            });
        }
        Ok(Tuple {
            attrs,
            values: values.into(),
        })
    }

    /// A tuple over `attrs` holding a copy of `values`, which has one
    /// value per attribute in ascending attribute order.
    pub(crate) fn from_row(attrs: AttrSet, values: &[Value]) -> Self {
        debug_assert_eq!(attrs.len(), values.len());
        Tuple {
            attrs,
            values: values.into(),
        }
    }

    /// Creates a tuple from explicit (attribute, value) pairs in any order.
    pub fn from_pairs<I: IntoIterator<Item = (Attribute, Value)>>(pairs: I) -> Self {
        let mut pairs: Vec<(Attribute, Value)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(a, _)| a);
        pairs.dedup_by_key(|&mut (a, _)| a);
        let attrs = AttrSet::from_iter(pairs.iter().map(|&(a, _)| a));
        let values = pairs.iter().map(|&(_, v)| v).collect();
        Tuple { attrs, values }
    }

    /// The empty tuple (over the empty attribute set). Joining with it is
    /// the identity; it is the natural `q` seed when nothing is known yet.
    pub fn unit() -> Self {
        Tuple {
            attrs: AttrSet::empty(),
            values: Arc::new([]),
        }
    }

    /// The attribute set this tuple is total on.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// The value at attribute `a`, or `None` if `a` is outside the tuple's
    /// attribute set.
    #[inline]
    pub fn get(&self, a: Attribute) -> Option<Value> {
        if !self.attrs.contains(a) {
            return None;
        }
        Some(self.values[self.rank(a)])
    }

    /// The value at attribute `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside the tuple's attribute set; use [`Tuple::get`]
    /// for the fallible variant.
    #[inline]
    pub fn value(&self, a: Attribute) -> Value {
        self.get(a)
            .unwrap_or_else(|| panic!("attribute {:?} not in tuple", a))
    }

    /// Values in ascending attribute order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The shared allocation behind [`values`](Tuple::values).
    #[inline]
    pub(crate) fn shared_values(&self) -> &Arc<[Value]> {
        &self.values
    }

    /// Iterates `(attribute, value)` pairs in ascending attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (Attribute, Value)> + '_ {
        self.attrs.iter().zip(self.values.iter().copied())
    }

    /// The restriction `t[X]` (§2.1). `X` is intersected with the tuple's
    /// attribute set, so restriction by a superset is the identity.
    pub fn project(&self, x: AttrSet) -> Tuple {
        let keep = self.attrs & x;
        if keep == self.attrs {
            return self.clone();
        }
        let values = self
            .iter()
            .filter(|&(a, _)| keep.contains(a))
            .map(|(_, v)| v)
            .collect();
        Tuple { attrs: keep, values }
    }

    /// Whether the two tuples agree on every attribute of `x`.
    ///
    /// Both tuples must be total on `x` for agreement; an attribute missing
    /// on either side counts as disagreement (in tableau terms the missing
    /// position holds a unique nondistinguished variable).
    pub fn agrees_on(&self, other: &Tuple, x: AttrSet) -> bool {
        if !x.is_subset(self.attrs) || !x.is_subset(other.attrs) {
            return false;
        }
        x.iter().all(|a| self.value(a) == other.value(a))
    }

    /// Natural join `self ⋈ other`.
    ///
    /// Returns `None` when the tuples conflict on a common attribute — the
    /// "q is empty" rejection branch of Algorithms 2 and 5.
    pub fn join(&self, other: &Tuple) -> Option<Tuple> {
        let common = self.attrs & other.attrs;
        for a in common.iter() {
            if self.value(a) != other.value(a) {
                return None;
            }
        }
        if other.attrs.is_subset(self.attrs) {
            return Some(self.clone());
        }
        if self.attrs.is_subset(other.attrs) {
            return Some(other.clone());
        }
        let attrs = self.attrs | other.attrs;
        let values = attrs
            .iter()
            .map(|a| self.get(a).unwrap_or_else(|| other.value(a)))
            .collect();
        Some(Tuple { attrs, values })
    }

    /// The set of constants appearing in the tuple — `CST(t)` from §2.7,
    /// used to define when a sequence of selections is admissible for a
    /// constant-time-maintenance algorithm.
    pub fn constants(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.values.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Renders the tuple with a universe and symbol table, e.g.
    /// `<A=a, B=b>`.
    pub fn render(&self, universe: &Universe, symbols: &crate::SymbolTable) -> String {
        let mut out = String::new();
        self.render_into(&mut out, universe, symbols);
        out
    }

    /// Appends [`Tuple::render`]'s text to `out`, so a caller rendering
    /// many tuples fills one buffer.
    pub fn render_into(&self, out: &mut String, universe: &Universe, symbols: &crate::SymbolTable) {
        out.push('<');
        let mut first = true;
        for (a, v) in self.iter() {
            if !first {
                out.push_str(", ");
            }
            out.push_str(universe.name(a));
            out.push('=');
            out.push_str(symbols.resolve(v));
            first = false;
        }
        out.push('>');
    }

    #[inline]
    fn rank(&self, a: Attribute) -> usize {
        // Position of `a` among the set bits below it.
        self.attrs
            .iter()
            .position(|b| b == a)
            .expect("rank: attribute present by contract")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple[")?;
        let mut first = true;
        for (a, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", a.index(), v.index())?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn fixture() -> (Universe, SymbolTable) {
        (Universe::of_chars("ABCDE"), SymbolTable::new())
    }

    fn tup(u: &Universe, s: &mut SymbolTable, pairs: &[(&str, &str)]) -> Tuple {
        Tuple::from_pairs(
            pairs
                .iter()
                .map(|&(a, v)| (u.attr_of(a), s.intern(v))),
        )
    }

    #[test]
    fn new_checks_arity() {
        let (u, mut s) = fixture();
        let attrs = u.set_of("AB");
        let v = vec![s.intern("x")];
        assert!(matches!(
            Tuple::new(attrs, v),
            Err(RelationError::TupleArity { .. })
        ));
    }

    #[test]
    fn get_and_value() {
        let (u, mut s) = fixture();
        let t = tup(&u, &mut s, &[("A", "a"), ("C", "c")]);
        assert_eq!(t.get(u.attr_of("A")), Some(s.intern("a")));
        assert_eq!(t.get(u.attr_of("B")), None);
        assert_eq!(t.attrs(), u.set_of("AC"));
    }

    #[test]
    fn project_restricts() {
        let (u, mut s) = fixture();
        let t = tup(&u, &mut s, &[("A", "a"), ("B", "b"), ("C", "c")]);
        let p = t.project(u.set_of("AC"));
        assert_eq!(p.attrs(), u.set_of("AC"));
        assert_eq!(p.value(u.attr_of("C")), s.intern("c"));
        // Restriction by a superset is the identity.
        assert_eq!(t.project(u.set_of("ABCDE")), t);
    }

    #[test]
    fn join_agreeing_tuples() {
        let (u, mut s) = fixture();
        let t1 = tup(&u, &mut s, &[("A", "a"), ("B", "b")]);
        let t2 = tup(&u, &mut s, &[("B", "b"), ("C", "c")]);
        let j = t1.join(&t2).unwrap();
        assert_eq!(j.attrs(), u.set_of("ABC"));
        assert_eq!(j.value(u.attr_of("C")), s.intern("c"));
    }

    #[test]
    fn join_conflicting_tuples_is_empty() {
        let (u, mut s) = fixture();
        let t1 = tup(&u, &mut s, &[("A", "a"), ("B", "b")]);
        let t2 = tup(&u, &mut s, &[("B", "b2"), ("C", "c")]);
        assert!(t1.join(&t2).is_none());
    }

    #[test]
    fn join_with_unit_is_identity() {
        let (u, mut s) = fixture();
        let t = tup(&u, &mut s, &[("A", "a")]);
        assert_eq!(Tuple::unit().join(&t).unwrap(), t);
        assert_eq!(t.join(&Tuple::unit()).unwrap(), t);
    }

    #[test]
    fn join_disjoint_tuples_concatenates() {
        let (u, mut s) = fixture();
        let t1 = tup(&u, &mut s, &[("A", "a")]);
        let t2 = tup(&u, &mut s, &[("D", "d")]);
        let j = t1.join(&t2).unwrap();
        assert_eq!(j.attrs(), u.set_of("AD"));
    }

    #[test]
    fn agrees_on_requires_totality() {
        let (u, mut s) = fixture();
        let t1 = tup(&u, &mut s, &[("A", "a"), ("B", "b")]);
        let t2 = tup(&u, &mut s, &[("A", "a")]);
        assert!(t1.agrees_on(&t2, u.set_of("A")));
        assert!(!t1.agrees_on(&t2, u.set_of("AB")));
    }

    #[test]
    fn constants_are_deduped() {
        let (u, mut s) = fixture();
        let t = tup(&u, &mut s, &[("A", "x"), ("B", "x"), ("C", "y")]);
        assert_eq!(t.constants().len(), 2);
    }

    #[test]
    fn render_is_readable() {
        let (u, mut s) = fixture();
        let t = tup(&u, &mut s, &[("A", "a"), ("B", "b")]);
        assert_eq!(t.render(&u, &s), "<A=a, B=b>");
    }
}
