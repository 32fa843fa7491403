use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::DatabaseScheme;
use crate::symbol::SymbolTable;
use crate::tuple::Tuple;

/// A database state `r = <r1, …, rk>` (§2.1): one relation per relation
/// scheme, in scheme order.
#[derive(Clone, Debug)]
pub struct DatabaseState {
    relations: Vec<Relation>,
}

impl DatabaseState {
    /// Creates the empty state for a database scheme.
    pub fn empty(scheme: &DatabaseScheme) -> Self {
        DatabaseState {
            relations: scheme
                .schemes()
                .iter()
                .map(|s| Relation::new(s.attrs()))
                .collect(),
        }
    }

    /// The relation for scheme index `i`.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.relations[i]
    }

    /// Relation `i`, for edits beyond [`insert`](DatabaseState::insert)
    /// and [`remove`](DatabaseState::remove).
    pub fn relation_mut(&mut self, i: usize) -> &mut Relation {
        &mut self.relations[i]
    }

    /// All relations, in scheme order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Inserts a tuple into relation `i`; returns `true` if it was new.
    pub fn insert(&mut self, i: usize, t: Tuple) -> Result<bool, RelationError> {
        self.relations
            .get_mut(i)
            .ok_or(RelationError::UnknownRelation(i))?
            .insert(t)
    }

    /// Removes a tuple from relation `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize, t: &Tuple) -> Result<bool, RelationError> {
        Ok(self
            .relations
            .get_mut(i)
            .ok_or(RelationError::UnknownRelation(i))?
            .remove(t))
    }

    /// Total number of tuples in the state.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Whether every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Relation::is_empty)
    }

    /// Iterates `(scheme index, tuple)` over all tuples.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, &Tuple)> {
        self.relations
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.iter().map(move |t| (i, t)))
    }

    /// Restricts the state to the relations of a subset of schemes,
    /// preserving the given index order. Used to form block substates in
    /// Sections 4–5.
    pub fn substate(&self, indices: &[usize]) -> DatabaseState {
        DatabaseState {
            relations: indices.iter().map(|&i| self.relations[i].clone()).collect(),
        }
    }

    /// Replaces relation `i` with a clone of `src`'s relation `i`, which
    /// shares its chunks: no tuple is copied, and the clone keeps `src`'s
    /// insertion order.
    ///
    /// # Errors
    ///
    /// [`RelationError::UnknownRelation`] if either state lacks relation
    /// `i`; [`RelationError::SchemeMismatch`] if the two relations differ
    /// in attributes.
    pub fn copy_relation(&mut self, i: usize, src: &DatabaseState) -> Result<(), RelationError> {
        let from = src.relations.get(i).ok_or(RelationError::UnknownRelation(i))?;
        let to = self
            .relations
            .get_mut(i)
            .ok_or(RelationError::UnknownRelation(i))?;
        if to.attrs() != from.attrs() {
            return Err(RelationError::SchemeMismatch);
        }
        to.clone_from(from);
        Ok(())
    }

    /// Pretty-prints the state for examples and debugging.
    pub fn render(&self, scheme: &DatabaseScheme, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        for (i, r) in self.relations.iter().enumerate() {
            out.push_str(scheme.scheme(i).name());
            out.push('(');
            out.push_str(&scheme.universe().render(r.attrs()));
            out.push_str("):");
            if r.is_empty() {
                out.push_str(" ∅\n");
                continue;
            }
            out.push('\n');
            for t in r.iter() {
                out.push_str("  ");
                out.push_str(&t.render(scheme.universe(), symbols));
                out.push('\n');
            }
        }
        out
    }
}

/// Convenience for building states in fixtures: tuples given as
/// `(scheme name, [(attr, value)])` in single-character attribute notation.
pub fn state_of(
    scheme: &DatabaseScheme,
    symbols: &mut SymbolTable,
    rows: &[(&str, &[(&str, &str)])],
) -> Result<DatabaseState, RelationError> {
    let mut state = DatabaseState::empty(scheme);
    for (name, pairs) in rows {
        let i = scheme
            .index_of(name)
            .ok_or(RelationError::UnknownRelation(usize::MAX))?;
        let t = Tuple::from_pairs(
            pairs
                .iter()
                .map(|&(a, v)| (scheme.universe().attr_of(a), symbols.intern(v))),
        );
        state.insert(i, t)?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemeBuilder;

    fn db() -> DatabaseScheme {
        SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .build()
            .unwrap()
    }

    #[test]
    fn empty_state_has_right_shape() {
        let scheme = db();
        let s = DatabaseState::empty(&scheme);
        assert_eq!(s.relations().len(), 2);
        assert!(s.is_empty());
        assert_eq!(s.total_tuples(), 0);
    }

    #[test]
    fn state_of_builds_and_inserts() {
        let scheme = db();
        let mut sym = SymbolTable::new();
        let s = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        assert_eq!(s.total_tuples(), 2);
        assert_eq!(s.relation(0).len(), 1);
        let all: Vec<_> = s.iter_all().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn substate_selects_relations() {
        let scheme = db();
        let mut sym = SymbolTable::new();
        let s = state_of(&scheme, &mut sym, &[("R2", &[("B", "b"), ("C", "c")])]).unwrap();
        let sub = s.substate(&[1]);
        assert_eq!(sub.relations().len(), 1);
        assert_eq!(sub.relation(0).len(), 1);
    }

    #[test]
    fn copy_relation_clones_whole_in_order() {
        let scheme = db();
        let mut sym = SymbolTable::new();
        let src = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a2"), ("B", "b")]),
                ("R1", &[("A", "a1"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let mut dst = DatabaseState::empty(&scheme);
        dst.copy_relation(0, &src).unwrap();
        let order = |s: &DatabaseState| s.relation(0).iter().cloned().collect::<Vec<_>>();
        assert_eq!(order(&dst), order(&src));
        assert!(dst.relation(1).is_empty());
        assert!(matches!(
            dst.copy_relation(2, &src),
            Err(RelationError::UnknownRelation(2))
        ));
        let other = DatabaseState::empty(
            &SchemeBuilder::new("ABC")
                .scheme("R1", "AC", ["A"])
                .scheme("R2", "B", ["B"])
                .build()
                .unwrap(),
        );
        assert!(matches!(
            dst.copy_relation(0, &other),
            Err(RelationError::SchemeMismatch)
        ));
    }
}
