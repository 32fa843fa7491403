use std::collections::HashSet;

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::tuple::Tuple;

/// A relation: a set of total tuples over a common attribute set (§2.1).
///
/// Set semantics are maintained on insertion (duplicates are ignored), and
/// tuple order is insertion order, which keeps every downstream algorithm
/// deterministic.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    attrs: AttrSet,
    tuples: Vec<Tuple>,
    seen: HashSet<Tuple>,
}

impl Relation {
    /// Creates an empty relation over `attrs`.
    pub fn new(attrs: AttrSet) -> Self {
        Relation {
            attrs,
            tuples: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The relation's attribute set.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Errors
    ///
    /// Fails if the tuple's attribute set differs from the relation's.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, RelationError> {
        if t.attrs() != self.attrs {
            return Err(RelationError::SchemeMismatch);
        }
        if self.seen.contains(&t) {
            return Ok(false);
        }
        self.seen.insert(t.clone());
        self.tuples.push(t);
        Ok(true)
    }

    /// Removes a tuple; returns `true` if it was present. Insertion order
    /// of the remaining tuples is preserved.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if !self.seen.remove(t) {
            return false;
        }
        if let Some(pos) = self.tuples.iter().position(|u| u == t) {
            self.tuples.remove(pos);
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.seen.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Builds a relation from an iterator of tuples (deduplicating).
    ///
    /// # Errors
    ///
    /// Fails if any tuple has a mismatching attribute set.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(
        attrs: AttrSet,
        tuples: I,
    ) -> Result<Self, RelationError> {
        let mut r = Relation::new(attrs);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Collects the tuples into a sorted `Vec` — convenient for
    /// order-insensitive comparisons in tests.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v = self.tuples.clone();
        v.sort();
        v
    }

    /// Structural equality as *sets* of tuples.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && self.len() == other.len()
            && self.tuples.iter().all(|t| other.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;
    use crate::universe::Universe;

    fn tup(u: &Universe, s: &mut SymbolTable, pairs: &[(&str, &str)]) -> Tuple {
        Tuple::from_pairs(pairs.iter().map(|&(a, v)| (u.attr_of(a), s.intern(v))))
    }

    #[test]
    fn insert_dedups() {
        let u = Universe::of_chars("AB");
        let mut s = SymbolTable::new();
        let mut r = Relation::new(u.set_of("AB"));
        let t = tup(&u, &mut s, &[("A", "a"), ("B", "b")]);
        assert!(r.insert(t.clone()).unwrap());
        assert!(!r.insert(t).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_rejects_wrong_scheme() {
        let u = Universe::of_chars("AB");
        let mut s = SymbolTable::new();
        let mut r = Relation::new(u.set_of("AB"));
        let t = tup(&u, &mut s, &[("A", "a")]);
        assert!(matches!(r.insert(t), Err(RelationError::SchemeMismatch)));
    }
}
