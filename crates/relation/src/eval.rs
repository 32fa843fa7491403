//! The evaluator behind [`Expr::eval`] — the one place relational
//! operators live.
//!
//! Base relations are read in place, never copied. Every intermediate
//! result is a row-major buffer of [`Value`]s, each row in ascending
//! attribute order (a [`Tuple`]'s layout), so no operator allocates per
//! row or per key:
//!
//! - a join hashes the smaller input's common-attribute values into a
//!   chained table of row references and probes it with the larger input
//!   (with no common attribute every row shares one chain: the cartesian
//!   product);
//! - a selection copies the rows that pass;
//! - projections and unions sort their rows and drop duplicates — the
//!   only operators that can produce one, since a join or a selection of
//!   sets is a set.
//!
//! [`Tuple`]s are built once, for the final, sorted answer.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::algebra::Expr;
use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::relation::Relation;
use crate::state::DatabaseState;
use crate::symbol::Value;
use crate::tuple::Tuple;
use crate::universe::Attribute;

/// Evaluates `expr` over `state`: the output attribute set and its tuples,
/// sorted and distinct.
///
/// # Errors
///
/// The errors of a malformed expression, checked after a node's inputs in
/// left-to-right order: an out-of-range relation index, a projection or
/// selection outside its input's attributes, a union of different
/// attribute sets.
pub(crate) fn eval_sorted(
    expr: &Expr,
    state: &DatabaseState,
) -> Result<(AttrSet, Vec<Tuple>), RelationError> {
    let rows = eval(expr, state)?.into_sorted();
    let mut out = Vec::with_capacity(rows.len());
    rows.for_each(|row| out.push(Tuple::from_row(rows.attrs, row)));
    Ok((rows.attrs, out))
}

fn eval<'s>(expr: &Expr, state: &'s DatabaseState) -> Result<Rows<'s>, RelationError> {
    match expr {
        Expr::Rel(i) => {
            let rel = state
                .relations()
                .get(*i)
                .ok_or(RelationError::UnknownRelation(*i))?;
            Ok(Rows {
                attrs: rel.attrs(),
                body: Body::Base(rel),
            })
        }
        Expr::Project(x, e) => {
            let input = eval(e, state)?;
            if !x.is_subset(input.attrs) {
                return Err(RelationError::ProjectionNotContained);
            }
            Ok(project(input, *x))
        }
        Expr::Select(formula, e) => {
            let input = eval(e, state)?;
            let mut tests = Vec::with_capacity(formula.len());
            for &(a, v) in formula {
                let c = column(input.attrs, a).ok_or(RelationError::SelectionNotContained)?;
                tests.push((c, v));
            }
            Ok(select(&input, &tests))
        }
        Expr::Join(l, r) => {
            let l = eval(l, state)?;
            let r = eval(r, state)?;
            Ok(join(&l, &r))
        }
        Expr::Union(l, r) => {
            let l = eval(l, state)?;
            let r = eval(r, state)?;
            if l.attrs != r.attrs {
                return Err(RelationError::UnionSchemeMismatch);
            }
            let mut vals = Vec::with_capacity((l.len() + r.len()) * l.attrs.len());
            l.for_each(|row| vals.extend_from_slice(row));
            r.for_each(|row| vals.extend_from_slice(row));
            Ok(Rows::distinct(l.attrs, vals, l.len() + r.len()))
        }
    }
}

/// A set of rows over `attrs`.
struct Rows<'s> {
    attrs: AttrSet,
    body: Body<'s>,
}

enum Body<'s> {
    /// A base relation, borrowed from the state (insertion order).
    Base(&'s Relation),
    /// `len` rows of `attrs.len()` values each, row-major. `len` is kept
    /// apart so rows over the empty attribute set can be counted.
    Flat { vals: Vec<Value>, len: usize },
}

impl<'s> Rows<'s> {
    fn flat(attrs: AttrSet, vals: Vec<Value>, len: usize) -> Rows<'s> {
        Rows {
            attrs,
            body: Body::Flat { vals, len },
        }
    }

    /// The set of the `len` rows in `vals`: sorted, duplicates dropped.
    fn distinct(attrs: AttrSet, vals: Vec<Value>, len: usize) -> Rows<'s> {
        let width = attrs.len();
        let row = |i: usize| &vals[i * width..(i + 1) * width];
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let mut out = Vec::with_capacity(order.len() * width);
        for &i in &order {
            out.extend_from_slice(row(i));
        }
        Rows::flat(attrs, out, order.len())
    }

    fn len(&self) -> usize {
        match &self.body {
            Body::Base(rel) => rel.len(),
            Body::Flat { len, .. } => *len,
        }
    }

    /// Calls `f` on every row, in order.
    fn for_each<'r>(&'r self, mut f: impl FnMut(&'r [Value])) {
        match &self.body {
            Body::Base(rel) => rel.iter().for_each(|t| f(t.values())),
            Body::Flat { vals, len } => {
                let width = self.attrs.len();
                (0..*len).for_each(|i| f(&vals[i * width..(i + 1) * width]));
            }
        }
    }

    /// The same set, its rows in ascending order.
    fn into_sorted(self) -> Rows<'s> {
        let mut vals = Vec::with_capacity(self.len() * self.attrs.len());
        self.for_each(|row| vals.extend_from_slice(row));
        Rows::distinct(self.attrs, vals, self.len())
    }
}

/// The position of `a` in a row over `attrs`.
fn column(attrs: AttrSet, a: Attribute) -> Option<usize> {
    attrs.iter().position(|b| b == a)
}

/// `π_x(input)`; `x` is a subset of the input's attributes.
fn project(input: Rows<'_>, x: AttrSet) -> Rows<'_> {
    if x == input.attrs {
        return input;
    }
    let cols: Vec<usize> = x
        .iter()
        .map(|a| column(input.attrs, a).expect("projection attributes are checked"))
        .collect();
    let mut vals = Vec::with_capacity(input.len() * cols.len());
    input.for_each(|row| vals.extend(cols.iter().map(|&c| row[c])));
    Rows::distinct(x, vals, input.len())
}

/// `σ(input)` for the conjunction of `row[c] = v` over `tests`.
fn select<'s>(input: &Rows<'_>, tests: &[(usize, Value)]) -> Rows<'s> {
    let mut vals = Vec::new();
    let mut len = 0;
    input.for_each(|row| {
        if tests.iter().all(|&(c, v)| row[c] == v) {
            vals.extend_from_slice(row);
            len += 1;
        }
    });
    Rows::flat(input.attrs, vals, len)
}

/// The natural join `l ⋈ r`: builds a hash table over the smaller
/// input's common-attribute values and probes it with every row of the
/// larger one.
fn join<'s>(l: &Rows<'_>, r: &Rows<'_>) -> Rows<'s> {
    let attrs = l.attrs | r.attrs;
    let common = l.attrs & r.attrs;
    let (build, probe) = if l.len() <= r.len() { (l, r) } else { (r, l) };
    let key = |side: &Rows<'_>| -> Vec<usize> {
        common
            .iter()
            .map(|a| column(side.attrs, a).expect("common attributes are on both sides"))
            .collect()
    };
    let (build_key, probe_key) = (key(build), key(probe));
    // Output column j is the probe row's column `c`, or (for an attribute
    // only the build side has) the build row's.
    let pick: Vec<(bool, usize)> = attrs
        .iter()
        .map(|a| match column(probe.attrs, a) {
            Some(c) => (false, c),
            None => (
                true,
                column(build.attrs, a).expect("an output attribute is on one side"),
            ),
        })
        .collect();

    let mut rows: Vec<&[Value]> = Vec::with_capacity(build.len());
    build.for_each(|row| rows.push(row));
    let table = HashTable::new(&rows, &build_key);

    let mut vals = Vec::new();
    let mut len = 0;
    probe.for_each(|p| {
        let mut at = table.head(p, &probe_key);
        while at != NONE {
            let b = rows[at];
            if build_key
                .iter()
                .zip(&probe_key)
                .all(|(&bc, &pc)| b[bc] == p[pc])
            {
                vals.extend(
                    pick.iter()
                        .map(|&(from_build, c)| if from_build { b[c] } else { p[c] }),
                );
                len += 1;
            }
            at = table.next[at];
        }
    });
    Rows::flat(attrs, vals, len)
}

const NONE: usize = usize::MAX;

/// A chained hash table of row indices, keyed by the values at `key`
/// columns.
///
/// The hash is an in-repo one, much cheaper than the standard library's
/// SipHash: a multiply per column, then a 64-bit finalizer (MurmurHash3's
/// `fmix64`) whose top bits pick the bucket. It starts from a random
/// seed drawn once per process from the standard library's randomly
/// keyed hasher, so which values share a bucket is not a function of the
/// values alone: a client that controls the order in which values are
/// interned cannot line its keys up in one chain without the seed.
struct HashTable {
    /// First row of each bucket's chain.
    heads: Vec<usize>,
    /// The next row in the same bucket's chain, per row.
    next: Vec<usize>,
    shift: u32,
    seed: u64,
}

impl HashTable {
    fn new(rows: &[&[Value]], key: &[usize]) -> HashTable {
        HashTable::with_seed(rows, key, process_seed())
    }

    fn with_seed(rows: &[&[Value]], key: &[usize], seed: u64) -> HashTable {
        let bits = (rows.len() * 2).next_power_of_two().trailing_zeros().max(1);
        let mut table = HashTable {
            heads: vec![NONE; 1 << bits],
            next: vec![NONE; rows.len()],
            shift: 64 - bits,
            seed,
        };
        for (i, row) in rows.iter().enumerate() {
            let b = table.bucket(row, key);
            table.next[i] = table.heads[b];
            table.heads[b] = i;
        }
        table
    }

    /// The bucket of the values at `cols`.
    fn bucket(&self, row: &[Value], cols: &[usize]) -> usize {
        (hash(self.seed, row, cols) >> self.shift) as usize
    }

    /// The first row of the chain of the values at `cols`.
    fn head(&self, row: &[Value], cols: &[usize]) -> usize {
        self.heads[self.bucket(row, cols)]
    }
}

/// Hashes the values at `cols`, starting from `seed`.
fn hash(seed: u64, row: &[Value], cols: &[usize]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = cols.iter().fold(seed, |h, &c| {
        (h.rotate_left(5) ^ u64::from(row[c].0)).wrapping_mul(K)
    });
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// This process's hash seed.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().build_hasher().finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn longest_chain(table: &HashTable) -> usize {
        table
            .heads
            .iter()
            .map(|&head| {
                let (mut at, mut n) = (head, 0);
                while at != NONE {
                    (at, n) = (table.next[at], n + 1);
                }
                n
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn keys_colliding_under_a_known_seed_spread_under_the_process_seed() {
        // 64 one-column keys that all land in bucket 0 of a 128-bucket
        // table under seed 0 — what a client could line up if the seed
        // were known.
        let colliding: Vec<[Value; 1]> = (0u32..)
            .map(|v| [Value(v)])
            .filter(|row| hash(0, row, &[0]) >> (64 - 7) == 0)
            .take(64)
            .collect();
        let rows: Vec<&[Value]> = colliding.iter().map(|r| &r[..]).collect();
        assert_eq!(longest_chain(&HashTable::with_seed(&rows, &[0], 0)), 64);

        let table = HashTable::new(&rows, &[0]);
        assert!(longest_chain(&table) < 16, "chain of {}", longest_chain(&table));
        // Every row is still found on its own key's chain.
        for (i, row) in rows.iter().enumerate() {
            let mut at = table.head(row, &[0]);
            while at != NONE && at != i {
                at = table.next[at];
            }
            assert_eq!(at, i);
        }
    }
}
