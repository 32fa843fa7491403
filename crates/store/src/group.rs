//! Group commit: coalescing concurrent writers' WAL appends into one
//! framed batch and one fsync.
//!
//! [`GroupWal`] wraps the open [`WalWriter`] behind a leader/follower
//! protocol. Every append enqueues its payloads — one write unit's
//! records, contiguously — and then either
//!
//! * finds its record already durable (a concurrent leader's batch
//!   carried it) and returns, or
//! * becomes the **leader**: it optionally sleeps for the commit window,
//!   drains the whole pending queue, writes the batch and pays **one**
//!   fsync for all of it — while followers whose records ride in the
//!   batch block on a condvar until the leader publishes durability.
//!
//! The queue assigns sequence numbers in arrival order and the leader
//! writes the drained batch in that order, so the on-disk record order
//! equals enqueue order — per-writer (and therefore per-block) WAL order
//! is preserved, which is what keeps serial replay of the log equal to
//! the concurrent execution (Theorem 4.2).
//!
//! With a zero window and a single caller, every append is its own
//! leader and its own batch: byte-for-byte the classic one-fsync-per-op
//! WAL. Under concurrency batching emerges naturally even at window
//! zero, because appends arriving while the leader is inside `fsync`
//! pile up for the next batch.
//!
//! A failed batch write/fsync is **sticky**: the error is broadcast to
//! every waiter and every later append — a WAL that may have lost a
//! committed-ack'd record must not accept new ops.
//!
//! [`SharedStore`] layers the rest of the store contract on top: it
//! implements the engine's [`DurabilitySink`] (the `&self`, many-writer
//! shape) by rendering each write unit's ops under a short store lock,
//! appending them as one contiguous run through the group WAL *without*
//! holding the store lock, and cutting quiesced snapshots when the
//! cadence says one is due.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use idr_core::durability::{DurabilitySink, DurableOp};
use idr_obs::timeline::{self, Phase};
use idr_obs::{Counter, Histogram, MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::exec::ExecError;
use idr_relation::DatabaseState;

use crate::error::StoreError;
use crate::store::Store;
use crate::wal::WalWriter;

/// The append queue the leader drains. Sequence numbers are assigned at
/// enqueue; `durable_seq` advances only when a batch's fsync returns.
#[derive(Debug, Default)]
struct Queue {
    pending: VecDeque<String>,
    /// Seq of the most recently enqueued record (first record is 1).
    next_seq: u64,
    /// Seq of the last record drained into a batch.
    taken_seq: u64,
    /// Seq of the last record known durable.
    durable_seq: u64,
    /// A leader is currently writing a batch.
    leader_active: bool,
    /// Sticky batch failure: set once, broadcast to every waiter and
    /// every later append.
    failed: Option<StoreError>,
}

/// Pre-resolved handles for every metric the commit path touches. The
/// registry's name lookup (a map lock) happens once, when grouping is
/// enabled — the leader's per-batch bookkeeping is then pure atomics,
/// so a concurrent registry snapshot can never stall a commit.
#[derive(Debug)]
struct GroupMetrics {
    batches: Arc<Counter>,
    ops: Arc<Counter>,
    fsyncs: Arc<Counter>,
    commit_us: Arc<Histogram>,
    /// Records per committed batch, on a 1-2-5 count scale.
    batch_size: Arc<Histogram>,
    /// Raw fsync syscall latency per batch.
    fsync_us: Arc<Histogram>,
}

impl GroupMetrics {
    fn new(m: &MetricsRegistry) -> GroupMetrics {
        GroupMetrics {
            batches: m.counter("store.group_batches"),
            ops: m.counter("store.group_ops"),
            fsyncs: m.counter("store.fsyncs"),
            commit_us: m.latency_histogram("store.group_commit_us"),
            batch_size: m.histogram("store.batch_size", &[1, 2, 5, 10, 20, 50, 100, 200, 500]),
            fsync_us: m.latency_histogram("store.fsync_us"),
        }
    }
}

/// Grouping configuration + observability, settable after construction.
#[derive(Debug, Default)]
struct GroupCfg {
    /// How long a leader lingers before draining the queue, to let
    /// concurrent appends pile into its batch. Zero: drain immediately.
    window: Duration,
    tracer: TraceHandle,
    metrics: Option<Arc<GroupMetrics>>,
}

/// The group-commit WAL: an open [`WalWriter`] behind the
/// leader/follower batching protocol (see the module docs).
#[derive(Debug)]
pub struct GroupWal {
    writer: Mutex<WalWriter>,
    queue: Mutex<Queue>,
    cond: Condvar,
    cfg: Mutex<GroupCfg>,
    batches: AtomicU64,
    fsyncs: AtomicU64,
}

fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl GroupWal {
    /// Wraps an open writer with a zero commit window and no tracer or
    /// metrics; [`SharedStore::new`] attaches the store's.
    pub fn new(writer: WalWriter) -> GroupWal {
        GroupWal {
            writer: Mutex::new(writer),
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            cfg: Mutex::new(GroupCfg::default()),
            batches: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    /// Turns on group observability (events + metrics) and sets the
    /// commit window.
    pub(crate) fn enable_grouping(
        &self,
        window: Duration,
        tracer: TraceHandle,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        *relock(&self.cfg) = GroupCfg {
            window,
            tracer,
            metrics: metrics.map(|m| Arc::new(GroupMetrics::new(&m))),
        };
    }

    /// Changes the commit window (leader linger time).
    pub fn set_window(&self, window: Duration) {
        relock(&self.cfg).window = window;
    }

    /// Changes the fsync-per-batch policy on the underlying writer.
    pub(crate) fn set_sync(&self, sync: bool) {
        relock(&self.writer).set_sync(sync);
    }

    /// Swaps in a fresh writer (snapshot rotation). The caller must have
    /// quiesced appends — the store only rotates from a safe point with
    /// no op in flight.
    pub(crate) fn swap_writer(&self, new: WalWriter) {
        let q = relock(&self.queue);
        debug_assert!(
            q.pending.is_empty() && !q.leader_active,
            "WAL rotation with appends in flight"
        );
        drop(q);
        *relock(&self.writer) = new;
    }

    /// Batches committed so far (each batch = one commit barrier, one
    /// fsync when the sync policy is on).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// fsyncs actually issued for batches (0 when the sync policy is
    /// off; then [`batches`](GroupWal::batches) still counts barriers).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Appends `payloads` as one contiguous run through the group-commit
    /// protocol and returns once the *last* of them is durable. All
    /// records are enqueued under a single queue lock, so no concurrent
    /// writer's record can interleave between them and the whole run
    /// rides one commit barrier — one write pass, one fsync — no matter
    /// how large the batch is. Returns the total framed size in bytes.
    ///
    /// Record order on disk equals the arrival order of calls, so
    /// callers that serialize their own writes (the per-block write
    /// lanes) keep their WAL order.
    pub fn append_batch(&self, payloads: &[String]) -> Result<usize, StoreError> {
        if payloads.is_empty() {
            return Ok(0);
        }
        let framed = payloads
            .iter()
            .map(|p| crate::wal::RECORD_HEADER_LEN + p.len())
            .sum();
        let mut q = relock(&self.queue);
        if let Some(e) = &q.failed {
            return Err(e.clone());
        }
        for p in payloads {
            q.next_seq += 1;
            q.pending.push_back(p.clone());
        }
        let my_seq = q.next_seq;
        // The unit's records are queued for the commit writer: wal-append
        // is done from the writer's point of view; what follows is waiting.
        timeline::stamp_current(Phase::WalAppend);
        // Waiting on the last record's seq covers the whole run: the
        // queue is drained in seq order, so a batch that carries the
        // last record carried (or followed) every earlier one.
        self.commit_from(q, my_seq, framed)
    }

    /// The tail of [`append_batch`](GroupWal::append_batch): wait until
    /// `my_seq` is durable (a concurrent leader's batch carried it) or
    /// become the leader and commit everything pending.
    fn commit_from<'a>(
        &'a self,
        mut q: MutexGuard<'a, Queue>,
        my_seq: u64,
        framed: usize,
    ) -> Result<usize, StoreError> {
        loop {
            if let Some(e) = &q.failed {
                return Err(e.clone());
            }
            if q.durable_seq >= my_seq {
                // Follower whose record rode a leader's batch: the wait
                // and the durability point collapse into this wakeup.
                timeline::stamp_current(Phase::BatchWait);
                timeline::stamp_current(Phase::Fsync);
                return Ok(framed);
            }
            if !q.leader_active {
                q.leader_active = true;
                break;
            }
            q = self
                .cond
                .wait(q)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        // Leader. Linger for the window so concurrent appends can pile
        // into this batch, then drain everything pending.
        let window = relock(&self.cfg).window;
        if !window.is_zero() {
            drop(q);
            std::thread::sleep(window);
            q = relock(&self.queue);
        }
        let batch: Vec<String> = q.pending.drain(..).collect();
        let batch_end = q.taken_seq + batch.len() as u64;
        q.taken_seq = batch_end;
        drop(q);
        // Leader's batch-wait = its linger + drain; the write + fsync
        // that follow are accounted to the fsync phase.
        timeline::stamp_current(Phase::BatchWait);

        // One write pass + one fsync for the whole batch, outside the
        // queue lock so followers can keep enqueuing for the next batch.
        let t0 = Instant::now();
        let wrote: Result<(usize, Option<Duration>), StoreError> = (|| {
            let mut w = relock(&self.writer);
            let mut bytes = 0usize;
            for p in &batch {
                bytes += w.append_unsynced(p)?;
            }
            let fsync = w.sync_now()?;
            Ok((bytes, fsync))
        })();

        let mut q = relock(&self.queue);
        q.leader_active = false;
        let out = match wrote {
            Ok((bytes, fsync)) => {
                q.durable_seq = batch_end;
                timeline::stamp_current(Phase::Fsync);
                self.batches.fetch_add(1, Ordering::Relaxed);
                if fsync.is_some() {
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                let cfg = relock(&self.cfg);
                let ops = batch.len();
                cfg.tracer
                    .emit_with(|| TraceEvent::GroupCommitted { ops, bytes });
                if let Some(m) = &cfg.metrics {
                    m.batches.inc();
                    m.ops.add(ops as u64);
                    m.batch_size.observe(ops as u64);
                    if let Some(d) = fsync {
                        m.fsyncs.inc();
                        m.fsync_us.observe_duration(d);
                    }
                    m.commit_us.observe_duration(t0.elapsed());
                }
                Ok(framed)
            }
            Err(e) => {
                // Sticky: a batch that may have half-landed must fail
                // every rider and every later append.
                q.failed = Some(e.clone());
                Err(e)
            }
        };
        drop(q);
        self.cond.notify_all();
        out
    }
}

/// A [`Store`] shared by concurrent writers: the engine's owned
/// [`DurabilitySink`], with group-commit WAL appends.
///
/// The store proper (symbol table, counters, snapshot rotation) sits
/// behind a mutex that is only held for short render/bookkeeping
/// sections; the WAL append — the slow, fsyncing part — goes through the
/// lock-free-to-enqueue [`GroupWal`], so writers on different blocks
/// overlap their commits into shared batches.
///
/// ```
/// use std::sync::Arc;
/// use idr_core::Engine;
/// use idr_relation::exec::Guard;
/// use idr_relation::parse::{parse_scheme, parse_tuple_line};
/// use idr_store::{SharedStore, Store};
///
/// let db = parse_scheme(
///     "universe: A B C D\n\
///      scheme R1: A B keys A\n\
///      scheme R2: C D keys C\n",
/// )
/// .unwrap();
/// let dir = idr_store::tempdir::TempDir::new("shared-doc");
/// let shared = Arc::new(SharedStore::new(Store::init(dir.path(), &db).unwrap()));
///
/// let engine = Engine::new(db.clone());
/// let guard = Guard::unlimited();
/// let state = idr_relation::DatabaseState::empty(&db);
/// let hub = engine.hub_with(&state, &guard, shared.clone()).unwrap();
/// let symbols = shared.symbols();
/// let (rel, t) = parse_tuple_line("R1: A=a B=b", &db, &mut symbols.lock().unwrap()).unwrap();
/// assert!(hub.write_handle().insert(rel, t, &guard).unwrap());
/// assert_eq!(shared.lock().wal_records(), 1);
/// ```
#[derive(Debug)]
pub struct SharedStore {
    inner: Mutex<Store>,
    wal: Arc<GroupWal>,
    /// Pre-resolved `store.commit_us` handle: the per-op commit path
    /// must not pay a registry name lookup.
    commit_us: Option<Arc<Histogram>>,
}

impl SharedStore {
    /// Wraps a store for concurrent use, enabling group commit with a
    /// zero window (batching still emerges under concurrency; see
    /// [`with_group_window`](SharedStore::with_group_window)).
    pub fn new(store: Store) -> SharedStore {
        let wal = store.group_wal();
        wal.enable_grouping(Duration::ZERO, store.tracer(), store.metrics());
        let commit_us = store
            .metrics()
            .map(|m| m.latency_histogram("store.commit_us"));
        SharedStore {
            inner: Mutex::new(store),
            wal,
            commit_us,
        }
    }

    /// Sets the group-commit window: how long a commit leader lingers to
    /// let concurrent writers join its batch. Zero (the default) trades
    /// no latency; a few hundred microseconds buys bigger batches under
    /// load.
    pub fn with_group_window(self, window: Duration) -> Self {
        self.wal.set_window(window);
        self
    }

    /// Locks the underlying store (snapshot cutting, counters, epoch —
    /// the bookkeeping surface). Never held across an append.
    pub fn lock(&self) -> MutexGuard<'_, Store> {
        relock(&self.inner)
    }

    /// The canonical symbol table of the data dir (see
    /// [`Store::symbols`]).
    pub fn symbols(&self) -> Arc<Mutex<idr_relation::SymbolTable>> {
        self.lock().symbols()
    }

    /// The group WAL, for batch/fsync counters.
    pub fn group_wal(&self) -> Arc<GroupWal> {
        Arc::clone(&self.wal)
    }
}

impl DurabilitySink for SharedStore {
    fn log_ops(&self, ops: &[DurableOp<'_>]) -> Result<(), ExecError> {
        if ops.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let mut verbs = Vec::with_capacity(ops.len());
        let mut payloads = Vec::with_capacity(ops.len());
        {
            // One store lock for all the renders, released before the
            // slow batched write + fsync so concurrent renders and
            // bookkeeping proceed.
            let store = self.lock();
            for &op in ops {
                let (verb, payload) = store.render_op(op)?;
                verbs.push(verb);
                payloads.push(payload);
            }
        }
        self.wal.append_batch(&payloads)?;
        let mut store = self.lock();
        for (verb, payload) in verbs.iter().zip(&payloads) {
            store.note_append(verb, crate::wal::RECORD_HEADER_LEN + payload.len());
        }
        if let Some(h) = &self.commit_us {
            h.observe_duration(t0.elapsed());
        }
        Ok(())
    }

    fn op_finished(&self, ops: usize) -> Result<bool, ExecError> {
        Ok(self.lock().snapshot_due(ops))
    }

    fn write_snapshot(&self, state: &DatabaseState) -> Result<(), ExecError> {
        self.lock().snapshot(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::wal;

    fn writer(dir: &TempDir, sync: bool) -> WalWriter {
        WalWriter::create(&dir.path().join("wal-0.log"), sync).unwrap()
    }

    /// A one-record append: a write unit of one.
    fn append(g: &GroupWal, payload: &str) -> Result<usize, StoreError> {
        g.append_batch(&[payload.to_string()])
    }

    #[test]
    fn single_threaded_zero_window_is_one_batch_per_op() {
        let dir = TempDir::new("group-serial");
        let g = GroupWal::new(writer(&dir, false));
        for i in 0..5 {
            append(&g, &format!("insert R1: A=a{i} B=b")).unwrap();
        }
        assert_eq!(g.batches(), 5, "no concurrency, no batching");
        let scan = wal::scan_file(&dir.path().join("wal-0.log")).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[3], "insert R1: A=a3 B=b");
    }

    #[test]
    fn concurrent_appends_all_land_in_arrival_order_with_fewer_batches() {
        let dir = TempDir::new("group-concurrent");
        let g = Arc::new(GroupWal::new(writer(&dir, false)));
        g.set_window(Duration::from_micros(300));
        const WRITERS: usize = 4;
        const EACH: usize = 25;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for i in 0..EACH {
                        append(&g, &format!("insert R{w}: A=w{w}i{i} B=b")).unwrap();
                    }
                });
            }
        });
        let scan = wal::scan_file(&dir.path().join("wal-0.log")).unwrap();
        assert_eq!(scan.records.len(), WRITERS * EACH, "no record lost");
        // Per-writer order is preserved even though batches interleave.
        for w in 0..WRITERS {
            let mine: Vec<&String> = scan
                .records
                .iter()
                .filter(|r| r.contains(&format!("A=w{w}i")))
                .collect();
            assert_eq!(mine.len(), EACH);
            for (i, r) in mine.iter().enumerate() {
                assert!(r.contains(&format!("A=w{w}i{i} ")), "writer {w} out of order: {r}");
            }
        }
        assert!(
            g.batches() <= (WRITERS * EACH) as u64,
            "batches never exceed appends"
        );
    }

    #[test]
    fn append_batch_is_one_barrier_and_preserves_order() {
        let dir = TempDir::new("group-batch");
        let g = GroupWal::new(writer(&dir, false));
        let payloads: Vec<String> = (0..50)
            .map(|i| format!("insert R1: A=a{i} B=b"))
            .collect();
        g.append_batch(&payloads).unwrap();
        assert_eq!(g.batches(), 1, "a whole batch rides one commit barrier");
        append(&g, "insert R1: A=tail B=b").unwrap();
        let scan = wal::scan_file(&dir.path().join("wal-0.log")).unwrap();
        assert_eq!(scan.records.len(), 51);
        for (i, r) in scan.records[..50].iter().enumerate() {
            assert_eq!(r, &format!("insert R1: A=a{i} B=b"), "batch order kept");
        }
        assert_eq!(scan.records[50], "insert R1: A=tail B=b");
    }

    #[test]
    fn append_batch_interleaves_whole_against_concurrent_appends() {
        // A batch enqueued under one queue lock is contiguous on disk no
        // matter how many single appends race with it.
        let dir = TempDir::new("group-batch-race");
        let g = Arc::new(GroupWal::new(writer(&dir, false)));
        g.set_window(Duration::from_micros(200));
        std::thread::scope(|s| {
            let gb = Arc::clone(&g);
            s.spawn(move || {
                for b in 0..20 {
                    let batch: Vec<String> =
                        (0..10).map(|i| format!("insert R1: A=b{b}x{i} B=b")).collect();
                    gb.append_batch(&batch).unwrap();
                }
            });
            let ga = Arc::clone(&g);
            s.spawn(move || {
                for i in 0..50 {
                    append(&ga, &format!("insert R2: C=s{i} D=d")).unwrap();
                }
            });
        });
        let scan = wal::scan_file(&dir.path().join("wal-0.log")).unwrap();
        assert_eq!(scan.records.len(), 20 * 10 + 50, "no record lost");
        // Each batch's 10 records are contiguous and in order.
        for b in 0..20 {
            let pos: Vec<usize> = scan
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&format!("A=b{b}x")))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(pos.len(), 10);
            for w in pos.windows(2) {
                assert_eq!(w[1], w[0] + 1, "batch {b} torn apart on disk");
            }
        }
    }

    #[test]
    fn batch_failure_is_sticky_and_broadcast() {
        let dir = TempDir::new("group-fail");
        let g = GroupWal::new(writer(&dir, false));
        append(&g, "insert R1: A=a B=b").unwrap();
        // Poison the queue the way a failed batch would.
        relock(&g.queue).failed = Some(StoreError::Replay {
            detail: "injected batch failure".to_string(),
        });
        let err = append(&g, "insert R1: A=a2 B=b").unwrap_err();
        assert!(matches!(err, StoreError::Replay { .. }), "{err:?}");
        // Still failing: no recovery without reopening the store.
        assert!(append(&g, "insert R1: A=a3 B=b").is_err());
    }
}
