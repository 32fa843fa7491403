//! Concurrency stress suite for the serving layer (DESIGN.md §14): many
//! writer threads and many reader threads over one [`Hub`] backed by the
//! group-commit [`SharedStore`].
//!
//! The load-bearing claim is Theorem 4.2 read as a concurrency theorem:
//! per-block WAL order equals per-block apply order (the writer holds
//! the block's lock across *chase → apply → log*), and ops on different
//! blocks commute — so **a serial replay of the committed WAL order must
//! reproduce the concurrent final state byte for byte**, no matter how
//! the scheduler interleaved the clients. The tests here check exactly
//! that, plus the reader-side guarantees (snapshot isolation, monotone
//! epochs) and crash recovery from a WAL cut mid-group-commit-batch at
//! every byte boundary.
//!
//! The unbounded, seed-randomised version of these checks is the
//! oracle's seventh arm (`idr fuzz --concurrent` and
//! `idr fuzz --crash --concurrent`); this file is the deterministic
//! always-on tier-1 slice of it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use independence_reducible::prelude::{
    DatabaseScheme, DatabaseState, Engine, Guard, Hub, SymbolTable, Tuple,
};
use independence_reducible::relation::parse::render_tuple_line;
use independence_reducible::store::{recover, snapshot, wal, SharedStore, Store, TempDir};
use independence_reducible::workload::generators::block_chain_scheme;

/// Relations per block in [`block_chain_scheme`] as used here.
const RELS_PER_BLOCK: usize = 3;

/// Pre-interned insert streams, one per block: `per_block` tuples with
/// fresh values each (so every insert is accepted and chases), cycling
/// through the block's relations. Block `b` of `block_chain_scheme(n,
/// RELS_PER_BLOCK)` owns relations `b*RELS_PER_BLOCK ..`.
fn block_streams(
    db: &DatabaseScheme,
    sym: &mut SymbolTable,
    blocks: usize,
    per_block: usize,
) -> Vec<Vec<(usize, Tuple)>> {
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|k| {
                    let i = b * RELS_PER_BLOCK + k % RELS_PER_BLOCK;
                    let t = Tuple::from_pairs(db.scheme(i).attrs().iter().map(|a| {
                        (a, sym.intern(&format!("{}_b{b}k{k}", db.universe().name(a))))
                    }));
                    (i, t)
                })
                .collect()
        })
        .collect()
}

/// Canonical rendering of a state: every tuple of every relation as its
/// fixture line, sorted. Two states rendered through *different* symbol
/// tables compare correctly — the lines are plain strings.
fn rendered_state(db: &DatabaseScheme, sym: &SymbolTable, state: &DatabaseState) -> Vec<String> {
    let mut lines: Vec<String> = (0..db.len())
        .flat_map(|i| {
            state
                .relation(i)
                .iter()
                .map(move |t| render_tuple_line(db, sym, i, t))
        })
        .collect();
    lines.sort();
    lines
}

/// Serial oracle: replays `lines` (committed WAL order) one by one
/// through a fresh single hub and returns the rendered final state plus
/// the consistency verdict.
fn serial_replay(db: &DatabaseScheme, lines: &[String]) -> (Vec<String>, bool) {
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let mut sym = SymbolTable::new();
    let hub = engine
        .hub(&DatabaseState::empty(db), &guard)
        .expect("empty state is consistent");
    let writer = hub.write_handle();
    for line in lines {
        writer
            .replay_op(line, &mut sym, &guard)
            .expect("committed op replays");
    }
    let view = hub.read_view();
    (rendered_state(db, &sym, view.state()), view.is_consistent())
}

/// N writers + M readers over one durable hub. Writers split the blocks;
/// readers continuously open read views, asserting snapshot isolation
/// invariants while the writes race. Afterwards the committed WAL order
/// replayed serially must reproduce the concurrent state byte for byte.
#[test]
fn concurrent_final_state_equals_serial_replay_of_the_wal() {
    const BLOCKS: usize = 6;
    const WRITERS: usize = 6;
    const READERS: usize = 3;
    const PER_BLOCK: usize = 12;

    let db = block_chain_scheme(BLOCKS, RELS_PER_BLOCK);
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();

    let dir = TempDir::new("stress-serial-replay");
    let store = Store::init(dir.path(), &db)
        .expect("store init")
        .with_sync(false);
    let shared = Arc::new(
        SharedStore::new(store).with_group_window(Duration::from_micros(300)),
    );
    let symbols = shared.symbols();
    let streams = block_streams(
        &db,
        &mut symbols.lock().expect("fresh symbol table"),
        BLOCKS,
        PER_BLOCK,
    );

    let hub = engine
        .hub_with(&DatabaseState::empty(&db), &guard, shared.clone())
        .expect("empty state is consistent");
    let writer = hub.write_handle();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for c in 0..WRITERS {
            let writer = writer.clone();
            let streams = &streams;
            let guard = &guard;
            s.spawn(move || {
                for b in (c..streams.len()).step_by(WRITERS) {
                    for (i, t) in &streams[b] {
                        assert!(
                            writer.insert(*i, t.clone(), guard).expect("within budget"),
                            "fresh-valued insert must be accepted"
                        );
                    }
                }
            });
        }
        for _ in 0..READERS {
            let hub = &hub;
            let done = &done;
            let db = &db;
            let guard = &guard;
            s.spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_tuples = 0usize;
                while !done.load(Ordering::Acquire) {
                    let view = hub.read_view();
                    // Writers only add fresh-valued tuples: every
                    // published epoch is consistent, epochs and tuple
                    // counts never go backwards for one reader.
                    assert!(view.is_consistent(), "epoch {} inconsistent", view.epoch());
                    assert!(view.epoch() >= last_epoch, "epoch went backwards");
                    let tuples = view.state().total_tuples();
                    assert!(tuples >= last_tuples, "published state lost tuples");
                    let x = db.scheme(0).attrs();
                    let answer = view
                        .total_projection(x, guard)
                        .expect("within budget")
                        .expect("consistent epoch answers");
                    assert!(answer.len() <= tuples);
                    last_epoch = view.epoch();
                    last_tuples = tuples;
                    std::thread::yield_now();
                }
            });
        }
        // The writer scope ends only when all writers finish; flag the
        // readers down from a watcher thread joined by the same scope.
        let writer_probe = writer.clone();
        let done = &done;
        let streams = &streams;
        s.spawn(move || {
            let total: usize = streams.iter().map(Vec::len).sum();
            loop {
                let tuples = writer_probe.read_view().state().total_tuples();
                if tuples == total {
                    break;
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    let total_ops: usize = streams.iter().map(Vec::len).sum();
    let final_epoch = shared.lock().epoch();
    assert_eq!(shared.lock().wal_records(), total_ops as u64);
    let grouped_batches = shared.group_wal().batches();
    let live_lines = rendered_state(
        &db,
        &symbols.lock().expect("store symbol table"),
        hub.read_view().state(),
    );
    drop(hub);
    drop(shared);

    // The committed order is what the WAL persisted.
    let wal_path = snapshot::wal_path(dir.path(), final_epoch);
    let scan = wal::scan_file(&wal_path).expect("clean shutdown leaves a clean WAL");
    assert_eq!(scan.torn_bytes, 0);
    assert_eq!(scan.records.len(), total_ops);
    assert!(
        grouped_batches <= scan.records.len() as u64,
        "batches can never exceed appends"
    );

    // Theorem 4.2 as a concurrency invariant: serial replay of the
    // committed order reproduces the racy final state byte for byte —
    // and recovery from the same WAL agrees with both.
    let (serial_lines, serial_consistent) = serial_replay(&db, &scan.records);
    assert!(serial_consistent);
    assert_eq!(
        serial_lines, live_lines,
        "serial replay of the committed WAL order must equal the concurrent final state"
    );
    let recovered = recover(dir.path()).expect("recovery succeeds");
    let recovered_lines = rendered_state(
        &db,
        &recovered.store.symbols().lock().expect("recovered table"),
        &recovered.state,
    );
    assert!(recovered.consistent);
    assert_eq!(
        serial_lines, recovered_lines,
        "recovery must replay to the same state"
    );
    assert_eq!(serial_lines.len(), total_ops);
}

/// Cuts the WAL of a finished concurrent group-commit run at **every**
/// byte boundary — including mid-record and mid-batch — and checks that
/// each cut recovers to exactly the state of some prefix of the
/// committed op order (the surviving complete records).
#[test]
fn crash_cut_mid_group_commit_batch_recovers_to_a_committed_prefix() {
    const BLOCKS: usize = 4;
    const WRITERS: usize = 4;
    const PER_BLOCK: usize = 6;

    let db = block_chain_scheme(BLOCKS, RELS_PER_BLOCK);
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();

    let live = TempDir::new("stress-crash-live");
    let store = Store::init(live.path(), &db)
        .expect("store init")
        .with_sync(false);
    let shared = Arc::new(
        SharedStore::new(store).with_group_window(Duration::from_micros(400)),
    );
    let symbols = shared.symbols();
    let streams = block_streams(
        &db,
        &mut symbols.lock().expect("fresh symbol table"),
        BLOCKS,
        PER_BLOCK,
    );
    {
        let hub = engine
            .hub_with(&DatabaseState::empty(&db), &guard, shared.clone())
            .expect("empty state is consistent");
        let writer = hub.write_handle();
        std::thread::scope(|s| {
            for c in 0..WRITERS {
                let writer = writer.clone();
                let streams = &streams;
                let guard = &guard;
                s.spawn(move || {
                    for (i, t) in &streams[c] {
                        assert!(writer.insert(*i, t.clone(), guard).expect("within budget"));
                    }
                });
            }
        });
    }
    let final_epoch = shared.lock().epoch();
    drop(shared);

    let wal_path = snapshot::wal_path(live.path(), final_epoch);
    let wal_bytes = std::fs::read(&wal_path).expect("WAL readable");
    let committed = wal::scan_file(&wal_path).expect("clean WAL").records;
    assert_eq!(committed.len(), BLOCKS * PER_BLOCK);

    // Serial-replay oracle per prefix, built incrementally once.
    let oracle_engine = Engine::new(db.clone());
    let oracle_hub = oracle_engine
        .hub(&DatabaseState::empty(&db), &guard)
        .expect("empty state is consistent");
    let mut oracle_sym = SymbolTable::new();
    let mut prefix_lines: Vec<Vec<String>> = Vec::with_capacity(committed.len() + 1);
    prefix_lines.push(rendered_state(
        &db,
        &oracle_sym,
        oracle_hub.read_view().state(),
    ));
    for line in &committed {
        oracle_hub
            .write_handle()
            .replay_op(line, &mut oracle_sym, &guard)
            .expect("committed op replays");
        prefix_lines.push(rendered_state(
            &db,
            &oracle_sym,
            oracle_hub.read_view().state(),
        ));
    }

    let scratch = TempDir::new("stress-crash-scratch");
    for f in std::fs::read_dir(live.path()).expect("live dir readable") {
        let f = f.expect("dir entry");
        std::fs::copy(f.path(), scratch.path().join(f.file_name())).expect("stage copy");
    }
    let scratch_wal = snapshot::wal_path(scratch.path(), final_epoch);

    // Every byte is a crash point: a cut inside a framed record loses
    // that record (torn tail), a cut between records of one group batch
    // keeps the earlier riders — either way the survivors are a prefix.
    let mut cuts = 0usize;
    for cut in 0..=wal_bytes.len() {
        std::fs::write(&scratch_wal, &wal_bytes[..cut]).expect("write truncated WAL");
        let survivors = wal::scan_bytes(&wal_bytes[..cut], &scratch_wal)
            .expect("prefix of a clean WAL scans")
            .records
            .len();
        let recovered = recover(scratch.path()).expect("every cut recovers");
        assert_eq!(
            recovered.stats.replayed, survivors,
            "cut {cut}: recovery must replay exactly the surviving records"
        );
        assert!(recovered.consistent, "cut {cut}: prefix states are consistent");
        let got = rendered_state(
            &db,
            &recovered.store.symbols().lock().expect("recovered table"),
            &recovered.state,
        );
        assert_eq!(
            got, prefix_lines[survivors],
            "cut {cut}: recovered state must equal the {survivors}-op serial prefix"
        );
        cuts += 1;
    }
    assert_eq!(cuts, wal_bytes.len() + 1);
}

/// Snapshot isolation under load: a view taken mid-run never changes,
/// even while writers keep publishing newer epochs.
#[test]
fn read_views_stay_frozen_while_writers_advance() {
    const BLOCKS: usize = 4;
    let db = block_chain_scheme(BLOCKS, RELS_PER_BLOCK);
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let mut sym = SymbolTable::new();
    let streams = block_streams(&db, &mut sym, BLOCKS, 8);
    let hub = engine
        .hub(&DatabaseState::empty(&db), &guard)
        .expect("empty state is consistent");
    let writer = hub.write_handle();

    // Half the ops, then freeze a view.
    for stream in &streams {
        for (i, t) in &stream[..4] {
            assert!(writer.insert(*i, t.clone(), &guard).expect("within budget"));
        }
    }
    let frozen = hub.read_view();
    let frozen_epoch = frozen.epoch();
    let frozen_lines = rendered_state(&db, &sym, frozen.state());

    // The rest of the ops race from four threads.
    std::thread::scope(|s| {
        for c in 0..BLOCKS {
            let writer = writer.clone();
            let streams = &streams;
            let guard = &guard;
            s.spawn(move || {
                for (i, t) in &streams[c][4..] {
                    assert!(writer.insert(*i, t.clone(), guard).expect("within budget"));
                }
            });
        }
    });

    // The frozen view is bit-for-bit what it was; a fresh view moved on.
    assert_eq!(frozen.epoch(), frozen_epoch);
    assert_eq!(rendered_state(&db, &sym, frozen.state()), frozen_lines);
    assert_eq!(frozen.state().total_tuples(), BLOCKS * 4);
    let fresh = hub.read_view();
    assert!(fresh.epoch() > frozen_epoch);
    assert_eq!(fresh.state().total_tuples(), BLOCKS * 8);
    assert!(fresh.is_consistent());
}

/// Builds an engine in a local and returns only the hub over it: the hub
/// owns a clone of its engine, so it outlives the scope that built it.
fn hub_over_empty_state(db: DatabaseScheme) -> Hub {
    let engine = Engine::new(db);
    let empty = DatabaseState::empty(engine.scheme());
    engine
        .hub(&empty, &Guard::unlimited())
        .expect("an empty state builds under an unlimited guard")
}

#[test]
fn a_returned_hub_outlives_its_engine_and_serves_spawned_writers() {
    let db = block_chain_scheme(2, RELS_PER_BLOCK);
    let hub = hub_over_empty_state(db.clone());
    let mut sym = SymbolTable::new();
    let streams = block_streams(&db, &mut sym, 2, 4);
    let writer = hub.write_handle();
    // Handles borrow nothing, so they move into plain spawned threads.
    let threads: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            let w = writer.clone();
            std::thread::spawn(move || {
                for (i, t) in stream {
                    assert!(w.insert(i, t, &Guard::unlimited()).unwrap());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }

    let view = hub.read_view();
    assert!(view.is_consistent());
    assert_eq!(view.state().total_tuples(), 8);
    let g = Guard::unlimited();
    let x = db.scheme(0).attrs();
    let answer = view.total_projection(x, &g).unwrap().expect("consistent epoch");
    assert!(!answer.is_empty());
    let one_shot = Engine::new(db).total_projection(view.state(), x, &g).unwrap();
    assert_eq!(Some(answer), one_shot);
}
