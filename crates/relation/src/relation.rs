use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::attrset::AttrSet;
use crate::error::RelationError;
use crate::symbol::Value;
use crate::tuple::Tuple;

/// Rows per storage chunk ([`Relation::CHUNK_ROWS`]).
const CHUNK: usize = 256;

/// One fixed-capacity run of rows in insertion order; `None` is the
/// tombstone of a removed tuple.
type Chunk = Vec<Option<Tuple>>;

thread_local! {
    /// Rows this thread copied out of shared chunks.
    static COPIED: Cell<u64> = const { Cell::new(0) };
}

/// A relation: a set of total tuples over a common attribute set (§2.1).
///
/// Set semantics are maintained on insertion (duplicates are ignored), and
/// tuple order is insertion order, which keeps every downstream algorithm
/// deterministic.
///
/// Rows live in reference-counted chunks of [`Relation::CHUNK_ROWS`], in
/// insertion order; a removed row leaves a tombstone until tombstones
/// outnumber the live rows, when the chunks are compacted (order kept).
/// A clone shares every chunk, so it costs O(#chunks) and copies no
/// tuple; the first write to a shared chunk copies that chunk alone.
/// Membership goes through an index from each tuple's values to its
/// row, built on the first call that needs it — a clone does not copy
/// it.
#[derive(Default)]
pub struct Relation {
    attrs: AttrSet,
    chunks: Vec<Arc<Chunk>>,
    live: usize,
    index: OnceLock<HashMap<Arc<[Value]>, usize>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            attrs: self.attrs,
            chunks: self.chunks.clone(),
            live: self.live,
            index: OnceLock::new(),
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("attrs", &self.attrs)
            .field("tuples", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The chunk behind `c`, unshared first: a shared chunk is copied (and
/// the copy counted) so the write lands in this relation alone.
fn chunk_mut(c: &mut Arc<Chunk>) -> &mut Chunk {
    if Arc::get_mut(c).is_none() {
        let mut copy = Vec::with_capacity(CHUNK);
        copy.extend(c.iter().cloned());
        COPIED.with(|n| n.set(n.get() + copy.len() as u64));
        *c = Arc::new(copy);
    }
    Arc::get_mut(c).expect("the chunk was just unshared")
}

impl Relation {
    /// Rows per storage chunk. A share of a relation costs one refcount
    /// per chunk, and the first write after a share copies one chunk.
    pub const CHUNK_ROWS: usize = CHUNK;

    /// Creates an empty relation over `attrs`.
    pub fn new(attrs: AttrSet) -> Self {
        Relation {
            attrs,
            ..Relation::default()
        }
    }

    /// The relation's attribute set.
    #[inline]
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// The rows this thread has copied out of shared chunks so far —
    /// the whole copy-on-write cost, since a clone copies none. Per
    /// thread, so concurrent callers do not mix their counts.
    pub fn copied_on_write() -> u64 {
        COPIED.with(Cell::get)
    }

    /// Adds `rows` to this thread's [`copied_on_write`](Relation::copied_on_write)
    /// count: how a fan-out hands its workers' copies to the thread that
    /// waits for them.
    pub fn add_copied_on_write(rows: u64) {
        COPIED.with(|n| n.set(n.get() + rows));
    }

    fn rows(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    fn index(&self) -> &HashMap<Arc<[Value]>, usize> {
        self.index.get_or_init(|| {
            let mut index = HashMap::with_capacity(self.live);
            for (ci, c) in self.chunks.iter().enumerate() {
                for (off, t) in c.iter().enumerate() {
                    if let Some(t) = t {
                        index.insert(Arc::clone(t.shared_values()), ci * CHUNK + off);
                    }
                }
            }
            index
        })
    }

    fn index_mut(&mut self) -> &mut HashMap<Arc<[Value]>, usize> {
        self.index();
        self.index.get_mut().expect("the index was just built")
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
        let row = self.rows();
        match self.index_mut().entry(Arc::clone(t.shared_values())) {
            Entry::Occupied(_) => return Ok(false),
            Entry::Vacant(v) => v.insert(row),
        };
        if row.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        chunk_mut(self.chunks.last_mut().expect("a chunk has room")).push(Some(t));
        self.live += 1;
        Ok(true)
    }

    /// Removes a tuple; returns `true` if it was present. Insertion order
    /// of the remaining tuples is preserved.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let hit = self.tombstone(t).is_some();
        self.compact_if_sparse();
        hit
    }

    /// Removes `t` and leaves a tombstone in its row, whose position it
    /// returns; `None` when `t` is absent. Never compacts, so the
    /// position stays valid for [`restore`](Relation::restore) until the
    /// next [`remove`](Relation::remove) or
    /// [`compact_if_sparse`](Relation::compact_if_sparse).
    pub fn tombstone(&mut self, t: &Tuple) -> Option<usize> {
        if t.attrs() != self.attrs {
            return None;
        }
        let row = self.index_mut().remove(t.values())?;
        chunk_mut(&mut self.chunks[row / CHUNK])[row % CHUNK] = None;
        self.live -= 1;
        Some(row)
    }

    /// Puts `t` back into the tombstone at `row` — the undo of the
    /// [`tombstone`](Relation::tombstone) that returned `row`, so the
    /// tuple regains its place in insertion order.
    ///
    /// # Panics
    ///
    /// If `row` is not a tombstone.
    pub fn restore(&mut self, row: usize, t: Tuple) {
        let slot = &mut chunk_mut(&mut self.chunks[row / CHUNK])[row % CHUNK];
        assert!(slot.is_none(), "restoring into a live row");
        let values = Arc::clone(t.shared_values());
        *slot = Some(t);
        self.index_mut().insert(values, row);
        self.live += 1;
    }

    /// Drops the last row and returns its tuple — the undo of the
    /// [`insert`](Relation::insert) that appended it. `None` (and nothing
    /// dropped) when the last row is a tombstone or there is no row.
    pub fn pop(&mut self) -> Option<Tuple> {
        let last = self.chunks.last_mut()?;
        if !matches!(last.last(), Some(Some(_))) {
            return None;
        }
        let t = chunk_mut(last)
            .pop()
            .flatten()
            .expect("the last row is live");
        if last.is_empty() {
            self.chunks.pop();
        }
        self.index_mut().remove(t.values());
        self.live -= 1;
        Some(t)
    }

    /// Rewrites the rows without their tombstones, in order, once
    /// tombstones outnumber live rows — so removes cost O(1) amortized
    /// and storage stays within twice the live rows.
    pub fn compact_if_sparse(&mut self) {
        if self.rows() - self.live <= self.live {
            return;
        }
        let live: Vec<Tuple> = self.iter().cloned().collect();
        self.chunks.clear();
        self.index = OnceLock::new();
        self.live = 0;
        for t in live {
            self.insert(t)
                .expect("a compacted tuple matches its relation");
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        t.attrs() == self.attrs && self.index().contains_key(t.values())
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.chunks.iter().flat_map(|c| c.iter().flatten())
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
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Structural equality as *sets* of tuples.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
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

    /// `n` distinct tuples over `AB`, in the order made.
    fn tuples(n: usize) -> (Universe, Vec<Tuple>) {
        let u = Universe::of_chars("AB");
        let mut s = SymbolTable::new();
        let ts = (0..n)
            .map(|i| tup(&u, &mut s, &[("A", &format!("a{i}")), ("B", "b")]))
            .collect();
        (u, ts)
    }

    #[test]
    fn removes_keep_order_across_chunks_and_compaction() {
        let n = 3 * CHUNK + 5;
        let (u, ts) = tuples(n);
        let mut r = Relation::from_tuples(u.set_of("AB"), ts.clone()).unwrap();
        let mut want = ts.clone();
        // Every other tuple, so compaction fires on the way.
        for t in ts.iter().step_by(2) {
            assert!(r.remove(t));
            assert!(!r.remove(t));
            want.retain(|w| w != t);
            assert_eq!(r.len(), want.len());
        }
        assert!(r.iter().eq(want.iter()));
        assert!(want.iter().all(|t| r.contains(t)));
        assert!(ts.iter().step_by(2).all(|t| !r.contains(t)));
        // Re-inserts append in order.
        assert!(r.insert(ts[0].clone()).unwrap());
        want.push(ts[0].clone());
        assert!(r.iter().eq(want.iter()));
    }

    #[test]
    fn tombstone_restore_and_pop_undo_in_place() {
        let (u, ts) = tuples(CHUNK + 2);
        let mut r = Relation::from_tuples(u.set_of("AB"), ts.clone()).unwrap();
        let shared = r.clone();
        let row = r.tombstone(&ts[1]).unwrap();
        assert!(r.tombstone(&ts[1]).is_none());
        assert!(r.insert(ts[1].clone()).unwrap());
        // Undo in reverse: the appended copy, then the tombstone.
        assert_eq!(r.pop().as_ref(), Some(&ts[1]));
        r.restore(row, ts[1].clone());
        assert!(r.iter().eq(ts.iter()));
        assert!(r.set_eq(&shared) && r.contains(&ts[1]));
        // The share never saw any of it.
        assert!(shared.iter().eq(ts.iter()));
        // Popping the tail drops its chunk once empty.
        assert_eq!(r.pop().as_ref(), ts.last());
        assert_eq!(r.pop().as_ref(), ts.get(CHUNK));
        assert_eq!(r.len(), CHUNK);
        assert_eq!(r.chunks.len(), 1);
        assert!(r.tombstone(&ts[CHUNK - 1]).is_some());
        assert_eq!(r.pop(), None, "a tombstone is not popped");
    }

    #[test]
    fn writes_after_a_share_copy_one_chunk() {
        let (u, ts) = tuples(4 * CHUNK);
        let mut r =
            Relation::from_tuples(u.set_of("AB"), ts[..4 * CHUNK - 1].iter().cloned()).unwrap();
        let shared = r.clone();
        let before = Relation::copied_on_write();
        assert!(r.insert(ts[4 * CHUNK - 1].clone()).unwrap());
        assert_eq!(Relation::copied_on_write() - before, CHUNK as u64 - 1);
        let before = Relation::copied_on_write();
        assert!(r.remove(&ts[0]));
        assert_eq!(Relation::copied_on_write() - before, CHUNK as u64);
        assert_eq!(shared.len(), 4 * CHUNK - 1);
        assert!(shared.contains(&ts[0]) && !r.contains(&ts[0]));
    }
}
