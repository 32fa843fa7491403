//! Durability suite for the `idr-store` layer (DESIGN.md §12): the
//! write-ahead log, snapshot rotation and crash recovery must together
//! guarantee that a recovered process is observationally equal to the
//! one that died — same state, same re-earned consistency verdict, same
//! query answers.
//!
//! Every test writes through the one write path: a hub over a
//! [`SharedStore`] sink, where each write unit earns its verdicts and is
//! then logged in one call.
//!
//! * Round trip: durable ops survive a drop/recover cycle, including
//!   automatic snapshot rotation mid-stream; the rotation cadence counts
//!   ops, so framed groups advance it by their size.
//! * Torn tail: a crash mid-append leaves an incomplete final record;
//!   recovery truncates it, and a second recovery sees a clean log.
//! * Corruption: a *complete* record with a bad checksum is a typed
//!   [`StoreError::Corrupt`], never silently repaired.
//! * Guard trips: a guard-tripped insert or delete is undone in memory
//!   and logs no record, so recovery equals memory (the crash fuzzer
//!   itself never trips guards mid-op). A legacy `abort` record fails
//!   recovery with a typed [`StoreError::Replay`].
//! * Re-earned verdicts: a logged-but-rejected insert re-rejects on
//!   replay; the verdict comes from re-execution, not from the log.
//! * A bounded run of the crash-point fuzzer (`idr-oracle`), which cuts
//!   the WAL at every byte boundary and diffs recovery against a
//!   never-crashed oracle.
//! * Checkpoint on quit: an `idr serve` session that logged writes
//!   leaves a fresh snapshot and an empty WAL; one that logged nothing
//!   leaves the data dir byte for byte as it found it.
//! * Start-up builds one hub: `idr serve` and `idr recover` replay the
//!   WAL tail into the hub they answer from, so a start-up counts one
//!   `session.builds`, earns the same verdict as `idr recover`, and
//!   logs no replayed record again (the sink attaches after replay, and
//!   attaches once).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use independence_reducible::exec::{Budget, Guard};
use independence_reducible::oracle::{crash_fuzz, Campaign};
use independence_reducible::prelude::*;
use independence_reducible::relation::parse::{parse_scheme, parse_tuple_line, render_state_lines};
use independence_reducible::store::{
    open, recover, replay, wal, Opened, SharedStore, Store, StoreError, TempDir,
};

/// The doc-example scheme: two independent single-key relations, enough
/// to exercise accepts, rejects and deletes without chase surprises.
fn scheme() -> DatabaseScheme {
    parse_scheme(
        "universe: A B C D\n\
         scheme R1: A B keys A\n\
         scheme R2: C D keys C\n",
    )
    .unwrap()
}

/// Runs `ops` (fixture lines, `+` insert / `-` delete) through a durable
/// hub on `store` starting from the empty state, returning each op's
/// outcome.
fn run_ops(store: &Arc<SharedStore>, ops: &[(char, &str)]) -> Vec<bool> {
    let empty = DatabaseState::empty(store.lock().scheme());
    run_ops_on_state(store, &empty, ops)
}

/// Parses one fixture line through the store's symbol table.
fn tuple(store: &SharedStore, line: &str) -> (usize, Tuple) {
    let db = store.lock().scheme().clone();
    let symbols = store.symbols();
    let mut sym = symbols.lock().unwrap();
    parse_tuple_line(line, &db, &mut sym).unwrap()
}

/// Wraps a fresh data dir's store as the shared durability sink.
fn shared(store: Store) -> Arc<SharedStore> {
    Arc::new(SharedStore::new(store))
}

#[test]
fn snapshot_rotation_and_replay_round_trip() {
    let dir = TempDir::new("roundtrip");
    let db = scheme();
    let store = shared(
        Store::init(dir.path(), &db)
            .unwrap()
            .with_snapshot_every(Some(2)),
    );
    let ops: &[(char, &str)] = &[
        ('+', "R1: A=a1 B=b1"),
        ('+', "R2: C=c1 D=d1"), // op 2 → snapshot, rotate to epoch 1
        ('+', "R1: A=a2 B=b2"),
        ('-', "R2: C=c1 D=d1"),
    ];
    let outcomes = run_ops(&store, ops);
    assert_eq!(outcomes, vec![true, true, true, true]);
    // The rotation happened mid-stream: two snapshots were cut (after
    // op 2 and op 4), so the live WAL is empty again.
    assert_eq!(store.lock().epoch(), 2);
    assert_eq!(store.lock().wal_records(), 0);
    drop(store); // simulate process death

    let rec = recover(dir.path()).unwrap();
    assert!(rec.consistent);
    assert_eq!(rec.stats.epoch, 2);
    assert_eq!(rec.stats.snapshot_tuples, 2);
    assert_eq!(rec.stats.wal_records, 0);
    assert_eq!(rec.stats.replayed, 0);
    let symbols = rec.store.symbols();
    let lines = render_state_lines(rec.store.scheme(), &rec.state, &symbols.lock().unwrap());
    assert_eq!(lines, vec!["R1: A=a1 B=b1", "R1: A=a2 B=b2"]);

    // The recovered store appends where the old one left off: one more
    // durable op, one more recovery.
    let store = shared(rec.store);
    run_ops_on_state(&store, &rec.state, &[('+', "R2: C=c9 D=d9")]);
    drop(store);
    let rec = recover(dir.path()).unwrap();
    assert!(rec.consistent);
    assert_eq!(rec.stats.replayed, 1);
    assert_eq!(rec.state.total_tuples(), 3);
}

/// Like [`run_ops`] but resuming from an existing (recovered) state.
fn run_ops_on_state(
    store: &Arc<SharedStore>,
    base: &DatabaseState,
    ops: &[(char, &str)],
) -> Vec<bool> {
    let engine = Engine::new(store.lock().scheme().clone());
    let guard = Guard::unlimited();
    let hub = engine.hub_with(base, &guard, store.clone()).unwrap();
    let w = hub.write_handle();
    ops.iter()
        .map(|&(kind, line)| {
            let (rel, t) = tuple(store, line);
            match kind {
                '+' => w.insert(rel, t, &guard).unwrap(),
                '-' => w.delete(rel, &t, &guard).unwrap(),
                _ => unreachable!("op kind is '+' or '-'"),
            }
        })
        .collect()
}

#[test]
fn snapshot_cadence_counts_ops_not_groups() {
    // Two framed groups of three inserts under a cadence of four: the
    // second group crosses the threshold (6 ops ≥ 4) and rotates.
    let dir = TempDir::new("cadence");
    let db = scheme();
    let store = shared(
        Store::init(dir.path(), &db)
            .unwrap()
            .with_snapshot_every(Some(4)),
    );
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let hub = engine
        .hub_with(&DatabaseState::empty(&db), &guard, store.clone())
        .unwrap();
    let w = hub.write_handle();
    for g in 0..2 {
        let group: Vec<BatchOp> = (0..3)
            .map(|k| {
                let (rel, t) = tuple(&store, &format!("R1: A=a{g}{k} B=b"));
                BatchOp::Insert { rel, t }
            })
            .collect();
        assert_eq!(w.apply_batch(&group, &guard).unwrap(), vec![true; 3]);
    }
    assert_eq!(
        store.lock().epoch(),
        1,
        "six logged ops reach a cadence of four"
    );
    assert_eq!(store.lock().wal_records(), 0);

    // Single ops count one each: three under a cadence of two rotate once.
    let dir = TempDir::new("cadence-per-op");
    let store = shared(
        Store::init(dir.path(), &db)
            .unwrap()
            .with_snapshot_every(Some(2)),
    );
    let ops: Vec<(char, String)> = (0..3).map(|k| ('+', format!("R2: C=c{k} D=d"))).collect();
    let ops: Vec<(char, &str)> = ops.iter().map(|(c, l)| (*c, l.as_str())).collect();
    assert_eq!(run_ops(&store, &ops), vec![true; 3]);
    assert_eq!(store.lock().epoch(), 1);
    assert_eq!(store.lock().wal_records(), 1);
}

#[test]
fn torn_final_record_is_truncated_and_tolerated() {
    let dir = TempDir::new("torn");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    run_ops(&store, &[('+', "R1: A=a1 B=b1"), ('+', "R2: C=c1 D=d1")]);
    drop(store);

    // Crash mid-append: a partial header at the tail of the live WAL.
    let wal = dir.path().join("wal-0.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x2a, 0x00, 0x00]); // 3 of 8 header bytes
    std::fs::write(&wal, &bytes).unwrap();

    let rec = recover(dir.path()).unwrap();
    assert_eq!(rec.stats.torn_bytes, 3);
    assert_eq!(rec.stats.wal_records, 2);
    assert_eq!(rec.stats.replayed, 2);
    assert!(rec.consistent);
    assert_eq!(rec.state.total_tuples(), 2);
    drop(rec);

    // The first recovery truncated the tail on disk: a second recovery
    // sees a clean log and the same state.
    let rec = recover(dir.path()).unwrap();
    assert_eq!(rec.stats.torn_bytes, 0);
    assert_eq!(rec.stats.replayed, 2);
    assert_eq!(rec.state.total_tuples(), 2);
}

#[test]
fn complete_record_with_bad_checksum_is_a_typed_corruption_error() {
    let dir = TempDir::new("corrupt");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    run_ops(&store, &[('+', "R1: A=a1 B=b1")]);
    drop(store);

    // Flip the last payload byte: the record is structurally complete,
    // so this is storage corruption, not a crash-torn tail.
    let wal = dir.path().join("wal-0.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&wal, &bytes).unwrap();

    match recover(dir.path()) {
        Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
        other => panic!("expected StoreError::Corrupt, got {other:?}"),
    }
}

/// Asserts the recovered state of `dir` equals `memory` (rendered
/// through the live store's table) and returns the recovery.
fn assert_recovery_equals_memory(
    dir: &TempDir,
    memory: Vec<String>,
) -> independence_reducible::store::Recovered {
    let rec = recover(dir.path()).unwrap();
    let symbols = rec.store.symbols();
    let lines = render_state_lines(rec.store.scheme(), &rec.state, &symbols.lock().unwrap());
    assert_eq!(lines, memory, "recovery equals memory");
    rec
}

#[test]
fn guard_tripped_insert_logs_no_record() {
    let dir = TempDir::new("trip-insert");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    let memory = {
        let engine = Engine::new(db.clone());
        let guard = Guard::unlimited();
        let hub = engine
            .hub_with(&DatabaseState::empty(&db), &guard, store.clone())
            .unwrap();
        let w = hub.write_handle();
        let (rel, t) = tuple(&store, "R1: A=a1 B=b1");
        assert!(w.insert(rel, t, &guard).unwrap());
        let before = store.lock().wal_records();
        // An already-expired deadline trips the chase before the unit
        // reaches the log: memory is undone and nothing is written.
        let tripped = Guard::new(Budget::unlimited().with_timeout(Duration::ZERO));
        let (rel, t) = tuple(&store, "R1: A=a2 B=b2");
        assert!(w.insert(rel, t, &tripped).is_err());
        assert_eq!(
            store.lock().wal_records(),
            before,
            "a tripped insert logs nothing"
        );
        // The hub stays usable after the rollback.
        assert!(hub.is_consistent());
        let symbols = store.symbols();
        let lines = render_state_lines(&db, hub.read_view().state(), &symbols.lock().unwrap());
        lines
    };
    assert_eq!(memory, vec!["R1: A=a1 B=b1"]);
    drop(store);

    let rec = assert_recovery_equals_memory(&dir, memory);
    assert_eq!(rec.stats.wal_records, 1);
    assert_eq!(rec.stats.replayed, 1);
    assert!(rec.consistent);
}

#[test]
fn guard_tripped_delete_logs_no_record() {
    let dir = TempDir::new("trip-delete");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    let memory = {
        let engine = Engine::new(db.clone());
        let guard = Guard::unlimited();
        let hub = engine
            .hub_with(&DatabaseState::empty(&db), &guard, store.clone())
            .unwrap();
        let w = hub.write_handle();
        let (rel, t) = tuple(&store, "R1: A=a1 B=b1");
        assert!(w.insert(rel, t.clone(), &guard).unwrap());
        let (rel2, t2) = tuple(&store, "R1: A=a2 B=b2");
        assert!(w.insert(rel2, t2, &guard).unwrap());
        let before = store.lock().wal_records();
        // Delete rebuilds the touched block under the caller's guard; an
        // expired deadline trips the rebuild (the surviving tuple keeps
        // it non-trivial), so the removed tuple is restored and the
        // delete never reaches the log — delete is all-or-nothing.
        let tripped = Guard::new(Budget::unlimited().with_timeout(Duration::ZERO));
        assert!(w.delete(rel, &t, &tripped).is_err());
        assert_eq!(
            store.lock().wal_records(),
            before,
            "a tripped delete logs nothing"
        );
        assert!(hub.is_consistent());
        let symbols = store.symbols();
        let lines = render_state_lines(&db, hub.read_view().state(), &symbols.lock().unwrap());
        lines
    };
    assert_eq!(memory.len(), 2);
    drop(store);

    let rec = assert_recovery_equals_memory(&dir, memory);
    assert_eq!(rec.stats.replayed, 2);
    assert!(rec.consistent);
}

#[test]
fn legacy_abort_record_fails_recovery_with_a_typed_error() {
    // Older logs appended an `abort` record after a rolled-back op. The
    // write path no longer writes one, and recovery no longer filters
    // them: such a log is reported, not silently reinterpreted.
    let dir = TempDir::new("legacy-abort");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    run_ops(&store, &[('+', "R1: A=a1 B=b1")]);
    drop(store);

    let path = dir.path().join("wal-0.log");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&wal::encode_record("abort"));
    std::fs::write(&path, &bytes).unwrap();

    match recover(dir.path()) {
        Err(StoreError::Replay { detail }) => assert!(detail.contains("abort"), "{detail}"),
        other => panic!("expected StoreError::Replay, got {other:?}"),
    }
}

#[test]
fn rejected_insert_is_replayed_and_rejected_again() {
    let dir = TempDir::new("reject");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    let outcomes = run_ops(
        &store,
        &[
            ('+', "R1: A=a1 B=b1"),
            ('+', "R1: A=a1 B=b2"), // key A violation — rejected
            ('+', "R2: C=c1 D=d1"),
        ],
    );
    assert_eq!(outcomes, vec![true, false, true]);
    // Rejected ops stay in the log; replay re-derives the verdict.
    assert_eq!(store.lock().wal_records(), 3);
    drop(store);

    let rec = recover(dir.path()).unwrap();
    assert_eq!(rec.stats.replayed, 3);
    assert_eq!(rec.stats.rejected, 1);
    assert!(rec.consistent);
    let symbols = rec.store.symbols();
    let lines = render_state_lines(rec.store.scheme(), &rec.state, &symbols.lock().unwrap());
    assert_eq!(lines, vec!["R1: A=a1 B=b1", "R2: C=c1 D=d1"]);
}

#[test]
fn crash_point_fuzzer_smoke() {
    // CI runs the full 200-case sweep via the CLI (`idr fuzz --crash`);
    // this is the in-tree smoke version of the same oracle.
    let summary = crash_fuzz(Campaign::new(0xD00D, 4));
    assert!(summary.counters.crash_points > 0);
    assert!(
        summary.is_clean(),
        "crash-recovery divergence: {:?}",
        summary.failures
    );
}

/// Runs `idr ARGS` with `input` on stdin; its stdout, after asserting
/// a zero exit.
fn idr(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_idr"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn idr");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("idr exits");
    assert!(out.status.success(), "idr {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Every file in `dir` with its size, sorted by name.
fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), e.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn serve_checkpoints_on_quit_after_logging_writes() {
    let tmp = TempDir::new("serve-checkpoint");
    let d = tmp.path().to_str().unwrap();
    // A data dir whose WAL holds two records, as a killed session
    // leaves it.
    let store = shared(Store::init(tmp.path(), &scheme()).unwrap());
    assert_eq!(run_ops(&store, &[('+', "R1: A=a B=b"), ('+', "R2: C=c D=d")]), [true, true]);
    drop(store);

    // A session that only reads rewrites nothing.
    let before = listing(tmp.path());
    let served = idr(&["serve", "--data-dir", d], "query A B\nquit\n");
    assert!(served.contains("store epoch 0, 2 WAL record(s)"), "{served:?}");
    assert_eq!(listing(tmp.path()), before);

    // A session that writes folds the whole log into a snapshot.
    let served = idr(&["serve", "--data-dir", d], "delete R2: C=c D=d\nquit\n");
    assert!(
        served.contains("store epoch 1, 0 WAL record(s)"),
        "no checkpoint in {served:?}"
    );
    let wals: Vec<_> = listing(tmp.path())
        .into_iter()
        .filter(|(name, _)| name.starts_with("wal-"))
        .collect();
    assert_eq!(wals, [("wal-1.log".to_string(), 0)]);
    let recovered = idr(&["recover", "--data-dir", d], "");
    assert!(
        recovered.contains("1 snapshot tuple(s) + 0 WAL record(s)"),
        "{recovered}"
    );
}

/// A data dir as a killed session leaves it: a two-tuple snapshot at
/// epoch 1, then a WAL tail of two accepted inserts, a rejected insert,
/// a delete, and a torn final record.
fn dir_with_snapshot_and_tail(name: &str) -> TempDir {
    let tmp = TempDir::new(name);
    let store = shared(
        Store::init(tmp.path(), &scheme())
            .unwrap()
            .with_snapshot_every(Some(2)),
    );
    assert_eq!(run_ops(&store, &[('+', "R1: A=a1 B=b1"), ('+', "R2: C=c1 D=d1")]), [true, true]);
    drop(store);
    let rec = recover(tmp.path()).unwrap();
    assert_eq!((rec.stats.epoch, rec.stats.wal_records), (1, 0));
    let store = shared(rec.store);
    let tail = [
        ('+', "R1: A=a2 B=b2"),
        ('+', "R2: C=c2 D=d2"),
        ('+', "R1: A=a2 B=b9"), // key A violation — rejected
        ('-', "R2: C=c1 D=d1"),
    ];
    assert_eq!(run_ops_on_state(&store, &rec.state, &tail), [true, true, false, true]);
    drop(store);
    let mut wal = OpenOptions::new()
        .append(true)
        .open(tmp.path().join("wal-1.log"))
        .unwrap();
    wal.write_all(&[0x2a, 0x00, 0x00]).unwrap(); // 3 of 8 header bytes
    tmp
}

/// The value of counter `name` in a `--metrics` JSON file.
fn metrics_counter(path: &Path, name: &str) -> u64 {
    let json = std::fs::read_to_string(path).unwrap();
    let key = format!("\"{name}\":");
    let at = json.find(&key).unwrap_or_else(|| panic!("no {name} in {json}")) + key.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// The `state: N tuple(s), VERDICT` line of a recovery banner.
fn state_line(out: &str) -> &str {
    out.lines()
        .find(|l| l.starts_with("state: "))
        .unwrap_or_else(|| panic!("no state line in {out:?}"))
}

#[test]
fn serve_start_up_builds_one_hub_and_logs_no_replayed_record() {
    let tmp = dir_with_snapshot_and_tail("serve-one-hub");
    let d = tmp.path().to_str().unwrap();
    let out = TempDir::new("serve-one-hub-metrics");
    let metrics = out.path().join("serve.json");
    let wal = tmp.path().join("wal-1.log");
    let logged = std::fs::metadata(&wal).unwrap().len() - 3;

    let served = idr(
        &["--metrics", metrics.to_str().unwrap(), "serve", "--data-dir", d],
        "query A B\nquit\n",
    );
    assert!(
        served.contains(
            "2 snapshot tuple(s) + 4 WAL record(s) (4 replayed, 1 re-rejected, 3 torn byte(s) truncated)"
        ),
        "{served:?}"
    );
    assert_eq!(state_line(&served), "state: 3 tuple(s), consistent");
    assert_eq!(metrics_counter(&metrics, "session.builds"), 1);
    // The torn tail is gone and the replayed records were not logged
    // again: the WAL holds exactly the records it held before.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), logged);

    // `idr recover` earns the same count and verdict, from one hub too.
    let metrics = out.path().join("recover.json");
    let recovered = idr(
        &["--metrics", metrics.to_str().unwrap(), "recover", "--data-dir", d, "A", "B"],
        "",
    );
    assert_eq!(state_line(&recovered), state_line(&served));
    assert!(recovered.contains("[AB]: 2 tuple(s)"), "{recovered:?}");
    assert_eq!(metrics_counter(&metrics, "session.builds"), 1);
}

#[test]
fn a_hub_attaches_its_sink_once_and_logs_only_after_it() {
    let dir = TempDir::new("attach-once");
    let db = scheme();
    let store = shared(Store::init(dir.path(), &db).unwrap());
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let hub = engine.hub(&DatabaseState::empty(&db), &guard).unwrap();
    let w = hub.write_handle();
    let (rel, t) = tuple(&store, "R1: A=a1 B=b1");
    assert!(w.insert(rel, t, &guard).unwrap());
    hub.attach_sink(store.clone()).unwrap();
    let (rel, t) = tuple(&store, "R2: C=c1 D=d1");
    assert!(w.insert(rel, t, &guard).unwrap());
    assert_eq!(store.lock().wal_records(), 1, "only the write after the attach");
    assert!(hub.attach_sink(store.clone()).is_err(), "a second sink");

    let durable = engine
        .hub_with(&DatabaseState::empty(&db), &guard, store.clone())
        .unwrap();
    assert!(durable.attach_sink(store.clone()).is_err());
}

/// `store::replay` into a hub whose sink is already attached applies
/// nothing and fails typed. Through the store's own `SharedStore` it
/// would otherwise hang: the caller holds the store's symbol table for
/// the replay, and logging the first unit locks that table again. The
/// body runs on its own thread, joined with a timeout, so a regression
/// fails instead of hanging the suite.
#[test]
fn replay_into_a_hub_with_its_sink_attached_fails_typed() {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let dir = TempDir::new("replay-after-attach");
        let db = scheme();
        // Two logged writes, then a crash: the WAL tail holds both.
        let store = shared(Store::init(dir.path(), &db).unwrap());
        let verdicts = run_ops(&store, &[('+', "R1: A=a1 B=b1"), ('+', "R2: C=c1 D=d1")]);
        assert_eq!(verdicts, vec![true, true]);
        drop(store);

        let Opened {
            store,
            snapshot,
            records,
            mut stats,
        } = open(dir.path(), TraceHandle::none(), None).unwrap();
        let engine = Engine::new(db);
        let guard = Guard::unlimited();
        let hub = engine.hub(&snapshot, &guard).unwrap();
        let store = shared(store);
        hub.attach_sink(store.clone()).unwrap();
        let result = {
            let symbols = store.symbols();
            let mut symbols = symbols.lock().unwrap();
            replay(&hub.write_handle(), &mut symbols, &records, &mut stats)
        };
        let tuples = hub.read_view().state().total_tuples();
        let wal_records = store.lock().wal_records();
        let _ = tx.send((result, tuples, wal_records, stats.replayed));
    });
    let got = rx.recv_timeout(Duration::from_secs(60));
    assert!(
        !matches!(got, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "replay into a sink-attached hub hung"
    );
    worker.join().expect("the replay thread panicked");
    let (result, tuples, wal_records, replayed) = got.expect("the replay thread sent its result");
    assert!(
        matches!(result, Err(StoreError::Replay { .. })),
        "{result:?}"
    );
    assert_eq!((tuples, replayed), (0, 0), "nothing applied");
    assert_eq!(wal_records, 2, "nothing logged again");
}
