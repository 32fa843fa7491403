//! Memory-shape pins for [`idr_relation::Relation`]'s chunked storage,
//! counted with a per-thread counting allocator (bytes and calls, never
//! time):
//!
//! * sharing a relation allocates its chunk list and nothing else;
//! * the first insert after a share allocates at most one chunk;
//! * a remove allocates nothing and moves no other row;
//! * storage per tuple stays within the layout the relation used to
//!   have — an insertion-order `Vec<Tuple>` beside a `HashSet<Tuple>`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use idr_relation::{Relation, SymbolTable, Tuple, Universe};

struct CountingAlloc;

thread_local! {
    /// Allocation calls, bytes allocated and bytes freed on this thread.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn bump(calls: u64, alloc: usize, free: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, a, f) = c.get();
        c.set((n + calls, a + alloc as u64, f + free as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counting beside it neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, layout.size(), 0);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 0, layout.size());
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result, with what it allocated on this thread: calls, bytes
/// allocated, and net bytes still held.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64, i64) {
    let (n0, a0, f0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, a1, f1) = COUNTS.with(Cell::get);
    (out, n1 - n0, a1 - a0, (a1 - a0) as i64 - (f1 - f0) as i64)
}

/// `n` distinct two-attribute tuples, materialised before any count.
fn tuples(n: usize) -> (Universe, Vec<Tuple>) {
    let u = Universe::of_chars("AB");
    let mut sym = SymbolTable::new();
    let ts = (0..n)
        .map(|i| {
            Tuple::from_pairs([
                (u.attr_of("A"), sym.intern(&format!("a{i}"))),
                (u.attr_of("B"), sym.intern("b")),
            ])
        })
        .collect();
    (u, ts)
}

fn chunk_bytes() -> u64 {
    (Relation::CHUNK_ROWS * std::mem::size_of::<Option<Tuple>>()) as u64
}

#[test]
fn sharing_allocates_only_the_chunk_list() {
    let n = 40 * Relation::CHUNK_ROWS + 3;
    let (u, ts) = tuples(n);
    let r = Relation::from_tuples(u.set_of("AB"), ts).unwrap();
    let chunks = n.div_ceil(Relation::CHUNK_ROWS);
    let (shared, calls, bytes, _) = measure(|| r.clone());
    assert_eq!(calls, 1, "one chunk list");
    assert_eq!(bytes, (chunks * std::mem::size_of::<usize>()) as u64);
    assert!(shared.iter().eq(r.iter()));
}

#[test]
fn one_insert_after_a_share_allocates_at_most_one_chunk() {
    // 4 chunks less one row: the tail chunk has room, and the index
    // (2,048 buckets for 1,023 tuples) does not grow on the insert.
    let n = 4 * Relation::CHUNK_ROWS;
    let (u, ts) = tuples(n);
    let mut r = Relation::from_tuples(u.set_of("AB"), ts[..n - 1].iter().cloned()).unwrap();
    let shared = r.clone();
    let last = ts[n - 1].clone();
    let (fresh, calls, bytes, _) = measure(|| r.insert(last).unwrap());
    assert!(fresh);
    // The copied tail chunk: its row buffer and its reference count.
    assert!(calls <= 2, "{calls} allocations");
    assert!(bytes <= chunk_bytes() + 64, "{bytes} bytes for one insert");
    let (_, _, bytes, _) = measure(|| r.insert(ts[0].clone()).unwrap());
    assert_eq!(bytes, 0, "a duplicate allocates nothing");
    assert_eq!(shared.len(), n - 1);
    assert_eq!(r.len(), n);
}

#[test]
fn a_remove_allocates_nothing_and_moves_no_other_row() {
    let n = 8 * Relation::CHUNK_ROWS;
    let (u, ts) = tuples(n);
    let mut r = Relation::from_tuples(u.set_of("AB"), ts.iter().cloned()).unwrap();
    let rows = |r: &Relation| r.iter().map(|t| t as *const Tuple).collect::<Vec<_>>();
    let mut want = rows(&r);
    for k in [0, n / 2, n - 1, 1] {
        let gone = r.iter().position(|t| *t == ts[k]).unwrap();
        let copied = Relation::copied_on_write();
        let (hit, calls, _, _) = measure(|| r.remove(&ts[k]));
        assert!(hit);
        assert_eq!(calls, 0, "removing tuple {k} allocated");
        assert_eq!(
            Relation::copied_on_write(),
            copied,
            "removing tuple {k} copied rows"
        );
        // Every other row stays where it was: a tombstone, not a shift.
        want.remove(gone);
        assert_eq!(rows(&r), want);
    }
}

#[test]
fn storage_per_tuple_stays_within_the_vec_and_hash_set_layout() {
    for n in [1_000, 7_000, 20_000, 50_000] {
        let (u, ts) = tuples(n);
        let (r, _, _, chunked) =
            measure(|| Relation::from_tuples(u.set_of("AB"), ts.iter().cloned()).unwrap());
        let (old, _, _, vec_and_set) = measure(|| {
            let mut tuples = Vec::new();
            let mut seen = HashSet::new();
            for t in &ts {
                seen.insert(t.clone());
                tuples.push(t.clone());
            }
            (tuples, seen)
        });
        assert_eq!(r.len(), old.0.len());
        assert!(
            chunked <= vec_and_set,
            "{n} tuples: chunks + index hold {:.1} B/tuple, Vec + HashSet {:.1}",
            chunked as f64 / n as f64,
            vec_and_set as f64 / n as f64
        );
    }
}
