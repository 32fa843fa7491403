//! Memory-shape pins for a block tableau: an [`IncrementalChase`] over
//! one block of a wider universe carries only the block's columns.
//! Counted with a per-thread counting allocator (bytes, never time):
//!
//! * a row is exactly as wide as the block (the cell and membership
//!   arenas hold one entry per column per row);
//! * a row allocates an ndv only for the block columns its tuple lacks;
//! * the chased block tableau holds fewer bytes per row than the same
//!   rows in a universe-width engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use idr_chase::IncrementalChase;
use idr_fd::FdSet;
use idr_relation::exec::Guard;
use idr_relation::{SymbolTable, Tuple, Universe};

struct CountingAlloc;

thread_local! {
    /// Bytes allocated and bytes freed on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn bump(alloc: usize, free: usize) {
    let _ = COUNTS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + alloc as u64, f + free as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counting beside it neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size(), 0);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, layout.size());
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result, with the net bytes it left allocated on this thread.
fn held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let (a0, f0) = COUNTS.with(Cell::get);
    let out = f();
    let (a1, f1) = COUNTS.with(Cell::get);
    (out, (a1 - a0) as i64 - (f1 - f0) as i64)
}

const BLOCK: &str = "ABCDE";

/// A 16-attribute universe, the key dependencies of a 5-attribute block
/// `ABCDE` in it, and `n` two-attribute `AB` tuples with distinct keys —
/// materialised before any count.
fn fixture(n: usize) -> (Universe, FdSet, Vec<Tuple>) {
    let u = Universe::of_chars("ABCDEFGHIJKLMNOP");
    let fds = FdSet::parse(&u, "A->B, A->C, C->D, C->E");
    let mut sym = SymbolTable::new();
    let b = sym.intern("b");
    let ts = (0..n)
        .map(|i| {
            Tuple::from_pairs([
                (u.attr_of("A"), sym.intern(&format!("a{i}"))),
                (u.attr_of("B"), b),
            ])
        })
        .collect();
    (u, fds, ts)
}

fn chased(mut e: IncrementalChase, ts: &[Tuple]) -> IncrementalChase {
    for t in ts {
        e.push_tuple(t, Some(0)).unwrap();
    }
    e.run(&Guard::unlimited()).unwrap();
    e
}

#[test]
fn a_block_row_carries_only_the_blocks_columns() {
    let n = 5_000;
    let (u, fds, ts) = fixture(n);
    let e = chased(IncrementalChase::over(u.len(), u.set_of(BLOCK), &fds), &ts);
    assert_eq!(e.width(), BLOCK.len());
    assert_eq!(e.len(), n);
    let lens = e.arena_lens();
    // C, D and E are undefined: three ndvs a row, and the constants.
    assert_eq!(lens.ndvs, 3 * n);
    assert_eq!(lens.nodes, 3 * n + n + 1);
    // Outputs stay in universe attributes.
    assert_eq!(e.total_projection(u.set_of("AB")).len(), n);
    assert!(e.total_projection(u.set_of("AF")).is_empty());
    assert_eq!(e.to_tableau().width(), u.len());
}

#[test]
fn a_block_tableau_holds_fewer_bytes_per_row_than_a_universe_wide_one() {
    for n in [1_000, 20_000] {
        let (u, fds, ts) = fixture(n);
        let (block, block_bytes) =
            held(|| chased(IncrementalChase::over(u.len(), u.set_of(BLOCK), &fds), &ts));
        let (wide, wide_bytes) = held(|| chased(IncrementalChase::new(u.len(), &fds), &ts));
        assert_eq!(wide.width(), u.len());
        assert_eq!(
            block.total_projection(u.set_of(BLOCK)),
            wide.total_projection(u.set_of(BLOCK))
        );
        let per_row = |b: i64| b as f64 / n as f64;
        assert!(
            block_bytes < wide_bytes,
            "{n} rows: block tableau {:.1} B/row, universe-wide {:.1} B/row",
            per_row(block_bytes),
            per_row(wide_bytes)
        );
    }
}
