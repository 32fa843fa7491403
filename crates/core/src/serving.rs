//! The concurrent serving layer: one [`Hub`] per bound state, many
//! [`WriteHandle`]s and [`ReadView`]s over it.
//!
//! Theorem 4.2 is a concurrency structure in disguise: on an
//! independence-reducible scheme the blocks of the IR partition chase
//! *independently*, so per-block consistency is global consistency — and
//! therefore ops on different blocks commute. The hub turns that into a
//! serving discipline:
//!
//! * **writes** go through [`WriteHandle`]: each block has its own write
//!   lock, a writer holds it across *chase → apply → log*, so the WAL
//!   order of any one block equals its apply order while writers on
//!   different blocks proceed in parallel. Every write — a single insert
//!   or delete, or a framed group — is one unit through one path: its
//!   verdicts are earned first, then it is logged in one sink call;
//! * **reads** go through [`ReadView`]: an epoch-stamped immutable
//!   snapshot, published lazily from a consistent cut of every block.
//!   Readers never block writers and never see a half-applied op;
//! * **durability** is an owned, shared [`DurabilitySink`] — under
//!   concurrency the sink can coalesce the WAL appends of overlapping
//!   writers into one fsync (group commit, `idr_store::SharedStore`);
//! * **the engine** is owned too: the hub keeps a clone of its
//!   [`Engine`] (one refcount), so no handle borrows anything and a hub
//!   may outlive the scope that built its engine.
//!
//! Because per-block log order equals per-block apply order and
//! cross-block ops commute, **a serial replay of the log reproduces the
//! concurrent final state** — the invariant the concurrency stress suite
//! and the `idr fuzz --concurrent` oracle arm check end to end.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use idr_core::Engine;
//! use idr_relation::exec::Guard;
//! use idr_relation::{parse, DatabaseState, SymbolTable};
//!
//! let db = parse::parse_scheme(
//!     "universe: A B C D\n\
//!      scheme R1: A B keys A\n\
//!      scheme R2: C D keys C\n",
//! )
//! .unwrap();
//! let engine = Engine::new(db);
//! let guard = Guard::unlimited();
//! let symbols = Arc::new(std::sync::Mutex::new(SymbolTable::new()));
//!
//! let state = DatabaseState::empty(engine.scheme());
//! let hub = engine.hub(&state, &guard).unwrap();
//! let writer = hub.write_handle();
//!
//! // Two writer threads, one per block — concurrent, serialized per block.
//! // A handle owns its share of the hub, engine included, so it moves
//! // into a plain spawned thread.
//! let threads: Vec<_> = (0..2)
//!     .map(|rel| {
//!         let w = writer.clone();
//!         let symbols = Arc::clone(&symbols);
//!         std::thread::spawn(move || {
//!             let line = ["R1: A=a B=b", "R2: C=c D=d"][rel];
//!             let (i, t) = {
//!                 let mut sym = symbols.lock().unwrap();
//!                 parse::parse_tuple_line(line, w.engine().scheme(), &mut sym).unwrap()
//!             };
//!             assert!(w.insert(i, t, &Guard::unlimited()).unwrap());
//!         })
//!     })
//!     .collect();
//! for t in threads {
//!     t.join().unwrap();
//! }
//!
//! // A read view is an immutable epoch: consistent, stamped, shareable.
//! let view = hub.read_view();
//! assert!(view.is_consistent());
//! assert_eq!(view.state().total_tuples(), 2);
//! let x = engine.scheme().universe().set_of("AB");
//! assert_eq!(view.total_projection(x, &guard).unwrap().unwrap().len(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use idr_chase::{ChaseStats, IncrementalChase, RejectionExplanation, TupleExplanation};
use idr_obs::timeline::{self, OpTimeline, Phase};
use idr_obs::{Counter, Gauge, Histogram, MetricsRegistry, ShardedLog, TraceEvent, TraceHandle};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::{AttrSet, DatabaseState, Tuple};

use crate::durability::{DurabilitySink, DurableOp};
use crate::engine::{evaluate_blocks, Engine, SHARD_CAPACITY};

/// An immutable, epoch-stamped cut of the hub's state. Cheap to share
/// (`Arc`ed by [`ReadView`]); queries over it are wait-free with respect
/// to writers.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    state: DatabaseState,
    consistent: bool,
}

/// One block's serialized write lane: the chased tableau plus the slice
/// of the base state the block owns (full-width [`DatabaseState`], only
/// this block's relations populated — blocks partition the relations, so
/// the union over slots is the whole state).
#[derive(Debug)]
struct Slot {
    chase: IncrementalChase,
    state: DatabaseState,
    /// Chase work of the tableaux this slot's rebuilds replaced, so
    /// [`Hub::chase_stats`] only ever grows.
    retired: ChaseStats,
}

/// One slot's part in a write unit: what its rollback point must revert,
/// and the provenance of its last rejected insert.
#[derive(Debug)]
struct Share {
    si: usize,
    /// Unit positions of the ops whose substate edit changed the state,
    /// in apply order; a delete carries the row its tombstone holds.
    edits: Vec<(usize, Option<usize>)>,
    /// The tableau was mutated and must be rebuilt on rollback.
    tableau: bool,
    why: Option<RejectionExplanation>,
}

impl Share {
    fn new(si: usize) -> Share {
        Share {
            si,
            edits: Vec::new(),
            tableau: false,
            why: None,
        }
    }
}

/// State shared by every handle of one hub, and the write path over it.
#[derive(Debug)]
struct HubShared {
    /// The engine this hub serves, owned: every handle reaches it here.
    engine: Engine,
    slots: Vec<Mutex<Slot>>,
    /// The most recently published snapshot. Lock order: `publish`
    /// before any slot, slots in index order; writers never take
    /// `publish`.
    publish: Mutex<Arc<Snapshot>>,
    epoch: AtomicU64,
    /// Set by writers after mutating a slot; cleared (before the slot
    /// scan) by the publisher. A spurious republish is harmless, a lost
    /// update is not — see [`HubShared::publish_snapshot`].
    stale: AtomicBool,
    /// Owned durability sink for the concurrent write pipeline,
    /// attached at most once (see [`Hub::attach_sink`]).
    sink: OnceLock<Arc<dyn DurabilitySink>>,
    /// Provenance of the most recent rejected insert across all writers.
    last_rejection: Mutex<Option<RejectionExplanation>>,
    /// Pre-resolved metric handles (None when metrics are off). The
    /// write pipeline must never pay a registry name lookup — the
    /// registry's maps are the locks a periodic snapshot takes.
    metrics: Option<HubMetrics>,
}

/// Every metric the per-op serving path touches, resolved once at hub
/// build. Incrementing is then pure relaxed atomics, so writer lanes
/// never contend with `MetricsRegistry::snapshot` (the `--stats-every`
/// path) on the registry's map locks.
#[derive(Debug)]
struct HubMetrics {
    inserts_accepted: Arc<Counter>,
    inserts_rejected: Arc<Counter>,
    deletes: Arc<Counter>,
    insert_us: Arc<Histogram>,
    epochs_published: Arc<Counter>,
    epoch: Arc<Gauge>,
    publish_us: Arc<Histogram>,
    /// Ops applied since the last published epoch — how far readers of
    /// the current snapshot trail the write frontier.
    epoch_lag: Arc<Gauge>,
    /// Per-block op counts: `hub.lane_ops{block=B}`. Thm 4.2 read
    /// operationally — independent blocks predict near-uniform lanes.
    lane_ops: Vec<Arc<Counter>>,
    /// Per-block microseconds spent holding the block lock:
    /// `hub.lane_busy_us{block=B}` — the utilization numerator.
    lane_busy_us: Vec<Arc<Counter>>,
    /// Per-phase pipeline latency: `pipeline.us{phase=P}`.
    phase_us: [Arc<Histogram>; 7],
    guard_chase_steps: Arc<Gauge>,
    guard_lookups: Arc<Gauge>,
    guard_enumeration: Arc<Gauge>,
    /// Full block-tableau rebuilds: `hub.block_rebuilds`.
    block_rebuilds: Arc<Counter>,
    /// Surviving rows re-chased by component-local repairs:
    /// `hub.repaired_rows`.
    repaired_rows: Arc<Counter>,
}

impl HubMetrics {
    fn new(m: &MetricsRegistry, blocks: usize) -> HubMetrics {
        HubMetrics {
            inserts_accepted: m.counter("session.inserts_accepted"),
            inserts_rejected: m.counter("session.inserts_rejected"),
            deletes: m.counter("session.deletes"),
            insert_us: m.latency_histogram("session.insert_us"),
            epochs_published: m.counter("hub.epochs_published"),
            epoch: m.gauge("hub.epoch"),
            publish_us: m.latency_histogram("hub.publish_us"),
            epoch_lag: m.gauge("hub.epoch_lag"),
            lane_ops: (0..blocks)
                .map(|b| m.counter(&format!("hub.lane_ops{{block={b}}}")))
                .collect(),
            lane_busy_us: (0..blocks)
                .map(|b| m.counter(&format!("hub.lane_busy_us{{block={b}}}")))
                .collect(),
            phase_us: Phase::ALL
                .map(|p| m.latency_histogram(&format!("pipeline.us{{phase={}}}", p.as_str()))),
            guard_chase_steps: m.gauge("guard.chase_steps"),
            guard_lookups: m.gauge("guard.lookups"),
            guard_enumeration: m.gauge("guard.enumeration"),
            block_rebuilds: m.counter("hub.block_rebuilds"),
            repaired_rows: m.counter("hub.repaired_rows"),
        }
    }

    /// The pre-resolved equivalent of [`Engine::record_guard_metrics`].
    fn record_guard(&self, guard: &Guard) {
        let s = guard.snapshot();
        self.guard_chase_steps.set(s.chase_steps);
        self.guard_lookups.set(s.lookups);
        self.guard_enumeration.set(s.enumeration);
    }

    /// Folds a completed op's timeline into the per-phase histograms.
    fn record_timeline(&self, tl: &OpTimeline) {
        for (p, d) in tl.phase_durations() {
            self.phase_us[p as usize].observe(d);
        }
    }
}

/// Recovers a slot lock from poison: a writer panicking mid-op is
/// rebuilt away by the rollback paths, and the chase engines themselves
/// never leave a slot half-mutated across an unwind point we own.
fn lock_slot(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An [`Engine`] bound to one evolving state for concurrent service.
///
/// The hub owns the per-block tableaux and the published snapshot; it
/// hands out cloneable [`WriteHandle`]s (serialized per block, parallel
/// across blocks) and epoch-stamped [`ReadView`]s. Built by
/// [`Engine::hub`] / [`Engine::hub_with`]; a durability sink attaches
/// once, after the build ([`Hub::attach_sink`]). The hub owns a clone of
/// its engine, so it may outlive the engine it was built from.
#[derive(Debug)]
pub struct Hub {
    shared: Arc<HubShared>,
}

/// A cloneable writer over a [`Hub`]: routes each insert/delete to its
/// block's serialized write lane. Many handles (threads) may write
/// concurrently; ops on the same block serialize, ops on different
/// blocks run in parallel (Theorem 4.2).
#[derive(Clone, Debug)]
pub struct WriteHandle {
    shared: Arc<HubShared>,
}

/// An immutable reader over one published epoch. Opening a view
/// publishes the latest consistent cut if writers dirtied the state
/// since the last publication; the view itself then never changes —
/// snapshot isolation, not read-your-latest.
#[derive(Clone, Debug)]
pub struct ReadView {
    engine: Engine,
    snap: Arc<Snapshot>,
}

/// One op of a framed batch group, applied through
/// [`WriteHandle::apply_batch`]. The verdict contract per op matches the
/// single-op paths: an insert's verdict is *accepted*, a delete's is
/// *removed*.
#[derive(Clone, Debug)]
pub enum BatchOp {
    /// Insert `t` into relation `rel`.
    Insert {
        /// Target relation index.
        rel: usize,
        /// The tuple being inserted.
        t: Tuple,
    },
    /// Delete `t` from relation `rel`.
    Delete {
        /// Target relation index.
        rel: usize,
        /// The tuple being deleted.
        t: Tuple,
    },
}

impl BatchOp {
    /// The op's target relation.
    pub fn rel(&self) -> usize {
        match self {
            BatchOp::Insert { rel, .. } | BatchOp::Delete { rel, .. } => *rel,
        }
    }

    fn as_durable(&self) -> DurableOp<'_> {
        match self {
            BatchOp::Insert { rel, t } => DurableOp::Insert { rel: *rel, t },
            BatchOp::Delete { rel, t } => DurableOp::Delete { rel: *rel, t },
        }
    }
}

impl Hub {
    /// Builds the hub: chases every block (in parallel when the engine
    /// enables it), carves the state into per-block slots, and publishes
    /// epoch 0. Emits the `session_built` event and `session.build*`
    /// metrics.
    pub(crate) fn build(
        engine: Engine,
        state: &DatabaseState,
        guard: &Guard,
    ) -> Result<Hub, ExecError> {
        let t0 = Instant::now();
        let obs = engine.observability();
        let blocks = engine.blocks().len();
        // One private shard per block: workers never contend on the
        // sink, and draining the shards in block order at the barrier
        // makes the merged stream identical whether the blocks ran
        // serially or in parallel. A single block (every non-IR scheme)
        // emits straight into the sink, so no shard capacity bounds it.
        let shards = (obs.tracer.enabled() && blocks > 1)
            .then(|| ShardedLog::new(blocks, SHARD_CAPACITY));
        let built = evaluate_blocks(blocks, engine.parallel_enabled(), |b| {
            let trace = match &shards {
                Some(sh) => TraceHandle::to_log(Arc::clone(sh.shard(b))),
                None => obs.tracer.clone(),
            };
            engine.chase_block(b, state, guard, trace)
        });
        if let Some(sh) = &shards {
            sh.merge_into_handle(&obs.tracer);
        }
        let mut slots = Vec::with_capacity(built.len());
        for (b, r) in built.into_iter().enumerate() {
            let mut chase = r?;
            // The shards are drained; point incremental work straight
            // at the hub's sink.
            chase.retarget_trace(obs.tracer.clone());
            let mut sub = DatabaseState::empty(engine.scheme());
            copy_owned(&engine, b, state, &mut sub);
            slots.push(Mutex::new(Slot {
                chase,
                state: sub,
                retired: ChaseStats::default(),
            }));
        }
        let consistent = slots
            .iter()
            .all(|s| lock_slot(s).chase.failure().is_none());
        let metrics = obs
            .metrics
            .as_ref()
            .map(|m| HubMetrics::new(m, slots.len()));
        let hub = Hub {
            shared: Arc::new(HubShared {
                engine,
                publish: Mutex::new(Arc::new(Snapshot {
                    epoch: 0,
                    state: state.clone(),
                    consistent,
                })),
                epoch: AtomicU64::new(0),
                stale: AtomicBool::new(false),
                sink: OnceLock::new(),
                last_rejection: Mutex::new(None),
                metrics,
                slots,
            }),
        };
        let obs = hub.engine().observability();
        obs.tracer.emit_with(|| TraceEvent::SessionBuilt {
            blocks: hub.shared.slots.len(),
            consistent,
        });
        if let Some(m) = &obs.metrics {
            m.counter("session.builds").inc();
            m.latency_histogram("session.build_us")
                .observe_duration(t0.elapsed());
            let stats = hub.chase_stats();
            m.counter("chase.rule_applications")
                .add(stats.rule_applications as u64);
            m.counter("chase.passes").add(stats.passes as u64);
            hub.engine().record_guard_metrics(guard);
        }
        Ok(hub)
    }

    /// The engine this hub serves.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Attaches the write-ahead durability sink: from now on every write
    /// unit is logged through it once its verdicts are earned, and
    /// counts toward its snapshot cadence. Units applied before the
    /// attach are not logged — recovery replays the WAL tail into the
    /// hub first, so replayed records are never logged twice. Attach
    /// before handing out writers. Returns the sink back if one is
    /// already attached.
    pub fn attach_sink(
        &self,
        sink: Arc<dyn DurabilitySink>,
    ) -> Result<(), Arc<dyn DurabilitySink>> {
        self.shared.sink.set(sink)
    }

    /// A new writer over this hub. Cloneable and `Send` — hand one to
    /// each client thread.
    pub fn write_handle(&self) -> WriteHandle {
        WriteHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// An epoch-stamped read view. If writers dirtied the state since
    /// the last publication this first publishes a fresh consistent cut
    /// (briefly locking each block in turn); the returned view is then
    /// immutable.
    pub fn read_view(&self) -> ReadView {
        self.shared.read_view()
    }

    /// Whether every block's current substate is consistent.
    pub fn is_consistent(&self) -> bool {
        self.shared.is_consistent()
    }

    /// Block indexes whose substate is inconsistent (always `[0]` or
    /// `[]` for a non-IR scheme's single block).
    pub fn inconsistent_blocks(&self) -> Vec<usize> {
        self.shared
            .slots
            .iter()
            .enumerate()
            .filter_map(|(b, s)| lock_slot(s).chase.failure().map(|_| b))
            .collect()
    }

    /// Provenance for a derived tuple: searches the live block tableaux
    /// (in block order) for a row witnessing `t` total on `x` and returns
    /// its per-column fd-firing chains. Chains are empty unless the
    /// engine was built with [`Observability::provenance`](crate::Observability::provenance)
    /// set. `None` when no row witnesses `t`.
    pub fn explain(&self, x: AttrSet, t: &Tuple) -> Option<TupleExplanation> {
        self.shared
            .slots
            .iter()
            .find_map(|s| lock_slot(s).chase.explain_tuple(x, t))
    }

    /// Provenance of the most recent rejected insert across all writers
    /// (cloned out of the hub — under concurrency a borrow would race).
    pub fn explain_rejection(&self) -> Option<RejectionExplanation> {
        self.shared.explain_rejection()
    }

    /// Each block tableau's column count, in block order.
    pub fn block_widths(&self) -> Vec<usize> {
        self.shared
            .slots
            .iter()
            .map(|s| lock_slot(s).chase.width())
            .collect()
    }

    /// Aggregated chase work across every block tableau since the hub
    /// was built, the work of tableaux replaced by rebuilds included —
    /// monotone, so the difference across a write is that write's work.
    pub fn chase_stats(&self) -> ChaseStats {
        let mut total = ChaseStats::default();
        for s in &self.shared.slots {
            let slot = lock_slot(s);
            for stats in [slot.chase.stats(), slot.retired] {
                total.passes += stats.passes;
                total.rule_applications += stats.rule_applications;
            }
        }
        total
    }
}

impl HubShared {
    fn read_view(&self) -> ReadView {
        ReadView {
            engine: self.engine.clone(),
            snap: self.publish_snapshot(),
        }
    }

    fn is_consistent(&self) -> bool {
        self.slots
            .iter()
            .all(|s| lock_slot(s).chase.failure().is_none())
    }

    fn explain_rejection(&self) -> Option<RejectionExplanation> {
        self.last_rejection
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Routes relation `i` to its slot index.
    fn slot_of(&self, i: usize) -> usize {
        assert!(i < self.engine.scheme().len(), "relation index out of range");
        self.engine.blocks().block_of[i]
    }

    /// The one write path: applies `ops` as one unit across every block
    /// they touch. A per-op insert or delete is a unit of one; see
    /// [`WriteHandle::apply_batch`] for the contract. Returns the per-op
    /// verdicts (in op order) and the number of blocks touched.
    ///
    /// Every involved block lock is held across *chase → apply → log*.
    /// Each op earns its verdict by mutating its slot's tableau and
    /// substate **in place**, recording every substate edit that
    /// actually changed the state; then the whole unit is logged in one
    /// [`DurabilitySink::log_ops`] call. A typed error before that call
    /// returns is the unit's **single rollback point**: the recorded
    /// edits are undone in reverse and each mutated tableau is rebuilt
    /// once, so nothing was logged and nothing was applied — log ==
    /// memory without abort records (DESIGN.md §16).
    pub(crate) fn batch_op(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
    ) -> Result<(Vec<bool>, usize), ExecError> {
        if ops.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let mut by_slot: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (k, op) in ops.iter().enumerate() {
            by_slot.entry(self.slot_of(op.rel())).or_default().push(k);
        }
        // Every involved block lock, acquired in index order — so units
        // touching overlapping blocks cannot deadlock, and holding all of
        // them across chase → log keeps per-block WAL order equal to
        // apply order.
        let mut guards: Vec<MutexGuard<'_, Slot>> = by_slot
            .keys()
            .map(|&si| lock_slot(&self.slots[si]))
            .collect();
        timeline::stamp_current(Phase::LaneAcquire);
        let lane_t0 = Instant::now();
        // Phase 1 — earn every verdict, editing slots in place.
        let mut verdicts = vec![false; ops.len()];
        let mut shares: Vec<Share> = Vec::with_capacity(guards.len());
        let mut failure: Option<ExecError> = None;
        for (slot, (&si, idxs)) in guards.iter_mut().zip(&by_slot) {
            shares.push(Share::new(si));
            let share = shares.last_mut().expect("just pushed");
            if let Err(e) = self.apply_share(slot, share, ops, idxs, &mut verdicts, guard) {
                failure = Some(e);
                break;
            }
        }
        if failure.is_none() {
            timeline::stamp_current(Phase::Apply);
            // Phase 2 — write-ahead for the whole unit: one sink call,
            // one group-commit barrier, one fsync.
            if let Some(d) = self.sink.get() {
                let records: Vec<DurableOp<'_>> = ops.iter().map(BatchOp::as_durable).collect();
                if let Err(e) = d.log_ops(&records) {
                    failure = Some(e);
                }
            }
        }
        if let Some(e) = failure {
            for (slot, share) in guards.iter_mut().zip(&shares) {
                self.undo_share(slot, share, ops);
            }
            return Err(e);
        }
        // In-memory sinks log nothing; stamp wal-append here (first
        // write wins, so a durable sink's own stamp stands).
        timeline::stamp_current(Phase::WalAppend);
        // Past the rollback point, tombstones may be compacted away.
        for (slot, share) in guards.iter_mut().zip(&shares) {
            for &(k, row) in &share.edits {
                if row.is_some() {
                    slot.state.relation_mut(ops[k].rel()).compact_if_sparse();
                }
            }
        }
        let applied = verdicts.iter().filter(|&&v| v).count() as u64;
        if applied > 0 {
            self.stale.store(true, Ordering::Release);
        }
        if let Some(hm) = &self.metrics {
            let lane_us = lane_t0.elapsed().as_micros() as u64;
            for (&si, idxs) in &by_slot {
                hm.lane_ops[si].add(idxs.len() as u64);
                hm.lane_busy_us[si].add(lane_us);
            }
            hm.epoch_lag.add(applied);
        }
        drop(guards);
        if let Some(why) = shares.into_iter().filter_map(|s| s.why).next_back() {
            *self
                .last_rejection
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(why);
        }
        Ok((verdicts, by_slot.len()))
    }

    /// Earns one slot's share of a unit's verdicts in place, filling
    /// `verdicts` at the ops' unit positions and recording in `share`
    /// what the rollback point must revert.
    ///
    /// A delete edits the substate and retracts the deleted tuple's rows
    /// from the tableau at once, charged to the unit's guard (see
    /// [`repair`](HubShared::repair)). Each maximal run of inserts is chased
    /// into the live tableau as one combined run (see
    /// [`chase_inserts`](HubShared::chase_inserts)); only when a run of several
    /// turns inconsistent — the combined run cannot name its culprit —
    /// are its inserts re-chased one at a time, in place, to earn their
    /// serial verdicts. An insert that meets a poisoned tableau fails the
    /// unit, exactly as the same insert would fail on its own; a delete
    /// into a poisoned block proceeds, since it may restore consistency.
    /// A poisoned chase stopped part-way, so its deletes are not
    /// retracted: the block is rebuilt once from the substate, at the
    /// next insert run or at the end of the share, charged to the guard.
    fn apply_share(
        &self,
        slot: &mut Slot,
        share: &mut Share,
        ops: &[BatchOp],
        idxs: &[usize],
        verdicts: &mut [bool],
        guard: &Guard,
    ) -> Result<(), ExecError> {
        // `true` while a poisoned tableau trails the substate by a delete.
        let mut stale = false;
        let mut pos = 0;
        while pos < idxs.len() {
            if let BatchOp::Delete { rel, t } = &ops[idxs[pos]] {
                if let Some(row) = slot.state.relation_mut(*rel).tombstone(t) {
                    verdicts[idxs[pos]] = true;
                    share.edits.push((idxs[pos], Some(row)));
                    share.tableau = true;
                    if slot.chase.failure().is_some() {
                        stale = true;
                    } else {
                        let rows = slot.chase.rows_of(t, Some(*rel));
                        assert!(!rows.is_empty(), "every substate tuple has a live row");
                        self.repair(slot, share.si, &rows, guard)?;
                    }
                }
                pos += 1;
                continue;
            }
            let run_len = idxs[pos..]
                .iter()
                .position(|&k| matches!(ops[k], BatchOp::Delete { .. }))
                .unwrap_or(idxs.len() - pos);
            let run = &idxs[pos..pos + run_len];
            pos += run_len;
            if stale {
                self.rebuild(slot, share.si, guard)?;
                stale = false;
            }
            if let Some(f) = slot.chase.failure() {
                return Err(f.clone().into());
            }
            if !self.chase_inserts(slot, share, ops, run, verdicts, guard)? && run.len() > 1 {
                for k in run {
                    let one = std::slice::from_ref(k);
                    self.chase_inserts(slot, share, ops, one, verdicts, guard)?;
                }
            }
        }
        if stale {
            self.rebuild(slot, share.si, guard)?;
        }
        Ok(())
    }

    /// Chases the inserts at unit positions `run` into the slot's live
    /// tableau as one combined run and reports whether it stayed
    /// consistent. Church–Rosser makes a consistent combined run
    /// identical to serial application, and monotonicity makes every
    /// serial verdict *accepted*: each tuple joins the substate, every
    /// edit that changed it recorded in `share`. An inconsistent run
    /// accepts nothing, records its provenance in `share` and retracts
    /// the rows it pushed, which restores the pre-run fixpoint — a
    /// repair of a consistent substate, so not charged. Any other error
    /// leaves the tableau speculative for the rollback point to rebuild.
    fn chase_inserts(
        &self,
        slot: &mut Slot,
        share: &mut Share,
        ops: &[BatchOp],
        run: &[usize],
        verdicts: &mut [bool],
        guard: &Guard,
    ) -> Result<bool, ExecError> {
        share.tableau = true;
        let first = slot.chase.len();
        let rows = run.iter().map(|&k| match &ops[k] {
            BatchOp::Insert { rel, t } => (t, Some(*rel)),
            BatchOp::Delete { .. } => unreachable!("runs hold inserts only"),
        });
        match slot.chase.insert_batch(rows, guard) {
            Ok(_) => {
                for &k in run {
                    let BatchOp::Insert { rel, t } = &ops[k] else {
                        unreachable!("runs hold inserts only")
                    };
                    if slot
                        .state
                        .insert(*rel, t.clone())
                        .expect("tuple was chased against scheme rel, so it matches")
                    {
                        share.edits.push((k, None));
                    }
                    verdicts[k] = true;
                }
                Ok(true)
            }
            Err(ExecError::Inconsistent { .. }) => {
                // Capture provenance before the repair clears the
                // failure that names the violation.
                share.why = slot.chase.explain_rejection().or(share.why.take());
                let pushed: Vec<usize> = (first..slot.chase.len()).collect();
                self.repair(slot, share.si, &pushed, &Guard::unlimited())
                    .expect("repairing a consistent substate cannot fail");
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Retracts `rows` from the slot's tableau, re-chasing only their
    /// component (O(component), not O(block)), and compacts with a
    /// rebuild once tombstones outnumber live rows.
    fn repair(
        &self,
        slot: &mut Slot,
        si: usize,
        rows: &[usize],
        guard: &Guard,
    ) -> Result<(), ExecError> {
        let repaired = slot.chase.retract(rows, guard)?;
        if let Some(hm) = &self.metrics {
            hm.repaired_rows.add(repaired as u64);
        }
        if slot.chase.dead_len() > slot.chase.live_len() {
            return self.rebuild(slot, si, guard);
        }
        Ok(())
    }

    /// The rollback point for one slot: reverts the recorded substate
    /// edits in reverse order, then rebuilds the tableau once if the
    /// share mutated it. A rebuild, not a sequence of retractions: a
    /// failed unit may leave a run mid-chase, and the path is cold.
    ///
    /// An insert is undone by dropping the row it appended and a delete
    /// by refilling its tombstone, so every relation gets back its
    /// pre-unit insertion order — part of log == memory, since `render`
    /// and the fingerprints show it.
    fn undo_share(&self, slot: &mut Slot, share: &Share, ops: &[BatchOp]) {
        for &(k, row) in share.edits.iter().rev() {
            match (&ops[k], row) {
                (BatchOp::Insert { rel, t }, None) => {
                    let last = slot.state.relation_mut(*rel).pop();
                    assert_eq!(last.as_ref(), Some(t), "undoing the unit's last append");
                }
                (BatchOp::Delete { rel, t }, Some(row)) => {
                    slot.state.relation_mut(*rel).restore(row, t.clone());
                }
                _ => unreachable!("an insert edit has no row, a delete edit has one"),
            }
        }
        if share.tableau {
            self.rebuild(slot, share.si, &Guard::unlimited())
                .expect("rebuilding the pre-unit substate cannot fail");
        }
    }

    /// Replaces slot `si`'s tableau with a fresh chase of its substate,
    /// emitting into the hub's live tracer — the cold path behind a
    /// poisoned block, compaction and the rollback point. The replaced
    /// tableau's work is kept in `retired`.
    fn rebuild(&self, slot: &mut Slot, si: usize, guard: &Guard) -> Result<(), ExecError> {
        let tracer = self.engine.observability().tracer.clone();
        let fresh = self.engine.chase_block(si, &slot.state, guard, tracer)?;
        let old = std::mem::replace(&mut slot.chase, fresh).stats();
        slot.retired.passes += old.passes;
        slot.retired.rule_applications += old.rule_applications;
        if let Some(hm) = &self.metrics {
            hm.block_rebuilds.inc();
        }
        Ok(())
    }

    /// After a logged unit of `ops` ops: asks the sink whether a
    /// snapshot is due and, if so, quiesces every block and hands over a
    /// consistent cut. Called with no slot lock held.
    fn sink_op_finished(&self, ops: usize) -> Result<(), ExecError> {
        let Some(sink) = self.sink.get() else {
            return Ok(());
        };
        if !sink.op_finished(ops)? {
            return Ok(());
        }
        // Quiesce: publish-lock first (lock order), then every block in
        // index order. Holding all block locks means no writer is inside
        // a unit, so the assembled state covers exactly the logged
        // prefix — the rotation the sink performs is safe.
        let _publish = self
            .publish
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slots: Vec<_> = self.slots.iter().map(lock_slot).collect();
        let mut state = DatabaseState::empty(self.engine.scheme());
        for (si, s) in slots.iter().enumerate() {
            copy_owned(&self.engine, si, &s.state, &mut state);
        }
        sink.write_snapshot(&state)
    }

    /// Returns the current snapshot, republishing first when writers
    /// dirtied the state. The stale flag is cleared *before* the slot
    /// scan: a writer landing mid-scan re-marks it and the next view
    /// republishes — at worst a spurious republication, never a lost
    /// update.
    fn publish_snapshot(&self) -> Arc<Snapshot> {
        if !self.stale.load(Ordering::Acquire) {
            return Arc::clone(
                &self
                    .publish
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        let mut published = self
            .publish
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.stale.swap(false, Ordering::AcqRel) {
            let t0 = Instant::now();
            let mut state = DatabaseState::empty(self.engine.scheme());
            let mut consistent = true;
            for (si, s) in self.slots.iter().enumerate() {
                let slot = lock_slot(s);
                consistent &= slot.chase.failure().is_none();
                copy_owned(&self.engine, si, &slot.state, &mut state);
            }
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            let tuples = state.total_tuples();
            self.engine
                .observability()
                .tracer
                .emit_with(|| TraceEvent::EpochPublished {
                    epoch,
                    tuples,
                    consistent,
                });
            if let Some(hm) = &self.metrics {
                hm.epochs_published.inc();
                hm.epoch.set(epoch);
                hm.epoch_lag.set(0);
            }
            let replaced = std::mem::replace(
                &mut *published,
                Arc::new(Snapshot {
                    epoch,
                    state,
                    consistent,
                }),
            );
            let snap = Arc::clone(&published);
            // Release the replaced epoch outside the lock; the publish's
            // time covers it.
            drop(published);
            drop(replaced);
            if let Some(hm) = &self.metrics {
                hm.publish_us.observe_duration(t0.elapsed());
            }
            return snap;
        }
        Arc::clone(&published)
    }
}

impl WriteHandle {
    /// The engine behind this handle.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Whether the hub has a durability sink attached
    /// ([`Hub::attach_sink`]), so that this handle's writes are logged.
    pub fn has_sink(&self) -> bool {
        self.shared.sink.get().is_some()
    }

    /// Runs `ops` as one unit through [`HubShared::batch_op`] with `tl`
    /// installed as the thread's current op, so every pipeline layer
    /// (block lock, WAL, group commit) stamps its phase; then offers the
    /// sink its snapshot point and stamps [`Phase::Publish`].
    fn commit(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<(Vec<bool>, usize), ExecError> {
        let _cur = timeline::set_current(tl);
        let out = self.shared.batch_op(ops, guard)?;
        self.shared.sink_op_finished(ops.len())?;
        // Publish = the visibility handoff: the unit's effect is marked
        // for the next epoch cut and any due snapshot has been taken.
        tl.stamp(Phase::Publish);
        Ok(out)
    }

    /// Inserts `t` into relation `i` through the block's serialized
    /// write lane — a write unit of one. `Ok(true)` accepted,
    /// `Ok(false)` rejected (state unchanged), `Err(Inconsistent)` when
    /// the block is already poisoned; other `Err`s are guard trips or
    /// storage failures, with nothing applied and nothing logged.
    pub fn insert(&self, i: usize, t: Tuple, guard: &Guard) -> Result<bool, ExecError> {
        self.insert_timed(i, t, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`insert`](WriteHandle::insert) with a caller-owned
    /// [`OpTimeline`]: the caller stamps [`Phase::Enqueue`] when it
    /// queues the op; every pipeline layer stamps its phase, and the
    /// completed timeline is folded into the per-phase histograms.
    pub fn insert_timed(
        &self,
        i: usize,
        t: Tuple,
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<bool, ExecError> {
        let t0 = Instant::now();
        let (verdicts, _) = self.commit(&[BatchOp::Insert { rel: i, t }], guard, tl)?;
        let accepted = verdicts[0];
        self.engine()
            .observability()
            .tracer
            .emit_with(|| TraceEvent::InsertApplied {
                relation: Arc::from(self.engine().scheme().scheme(i).name()),
                accepted,
            });
        if let Some(hm) = &self.shared.metrics {
            if accepted {
                hm.inserts_accepted.inc();
            } else {
                hm.inserts_rejected.inc();
            }
            hm.insert_us.observe_duration(t0.elapsed());
            hm.record_guard(guard);
            hm.record_timeline(tl);
        }
        Ok(accepted)
    }

    /// Removes `t` from relation `i` — a write unit of one. `Ok(false)`
    /// when absent; on `Err` (a guard trip during the tableau repair, a
    /// storage failure) the delete did not happen and nothing was
    /// logged.
    pub fn delete(&self, i: usize, t: &Tuple, guard: &Guard) -> Result<bool, ExecError> {
        self.delete_timed(i, t, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`delete`](WriteHandle::delete) with a caller-owned
    /// [`OpTimeline`] — see [`insert_timed`](WriteHandle::insert_timed).
    pub fn delete_timed(
        &self,
        i: usize,
        t: &Tuple,
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<bool, ExecError> {
        let op = BatchOp::Delete {
            rel: i,
            t: t.clone(),
        };
        let (verdicts, _) = self.commit(std::slice::from_ref(&op), guard, tl)?;
        let removed = verdicts[0];
        self.engine()
            .observability()
            .tracer
            .emit_with(|| TraceEvent::DeleteApplied {
                relation: Arc::from(self.engine().scheme().scheme(i).name()),
                removed,
            });
        if let Some(hm) = &self.shared.metrics {
            hm.deletes.inc();
            hm.record_guard(guard);
            hm.record_timeline(tl);
        }
        Ok(removed)
    }

    /// Applies a framed group of ops as **one unit**: one write-lock
    /// acquisition and one dirty-row chase seeding per involved block,
    /// one WAL batch (one group-commit barrier, one fsync), one
    /// aggregated [`TraceEvent::BatchApplied`] event. Returns the per-op
    /// verdicts in op order — observationally identical to applying the
    /// ops one by one through [`insert`](WriteHandle::insert) /
    /// [`delete`](WriteHandle::delete) (the `idr fuzz --batch` oracle arm
    /// pins this).
    ///
    /// On a typed error (an insert into a poisoned block, a guard trip or
    /// a capacity trip, a storage failure) the **whole group** is rolled
    /// back: no op of the batch is applied and nothing is logged — the
    /// unit's single rollback point sits before its WAL append, so
    /// log == memory holds without abort records (DESIGN.md §16).
    pub fn apply_batch(&self, ops: &[BatchOp], guard: &Guard) -> Result<Vec<bool>, ExecError> {
        self.apply_batch_timed(ops, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`apply_batch`](WriteHandle::apply_batch) with a caller-owned
    /// [`OpTimeline`] — see [`insert_timed`](WriteHandle::insert_timed).
    pub fn apply_batch_timed(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<Vec<bool>, ExecError> {
        let (verdicts, blocks) = self.commit(ops, guard, tl)?;
        let applied = verdicts.iter().filter(|&&v| v).count();
        let obs = self.engine().observability();
        obs.tracer.emit_with(|| TraceEvent::BatchApplied {
            ops: ops.len(),
            applied,
            blocks,
        });
        if let Some(hm) = &self.shared.metrics {
            let (mut accepted, mut rejected, mut deletes) = (0u64, 0u64, 0u64);
            for (op, &v) in ops.iter().zip(&verdicts) {
                match op {
                    BatchOp::Insert { .. } if v => accepted += 1,
                    BatchOp::Insert { .. } => rejected += 1,
                    BatchOp::Delete { .. } => deletes += 1,
                }
            }
            hm.inserts_accepted.add(accepted);
            hm.inserts_rejected.add(rejected);
            hm.deletes.add(deletes);
            hm.record_guard(guard);
            hm.record_timeline(tl);
        }
        Ok(verdicts)
    }

    /// An epoch-stamped read view (see [`Hub::read_view`]) — gives every
    /// writer thread snapshot-isolated queries without a hub reference.
    pub fn read_view(&self) -> ReadView {
        self.shared.read_view()
    }

    /// Whether every block's current substate is consistent.
    pub fn is_consistent(&self) -> bool {
        self.shared.is_consistent()
    }

    /// Provenance of the most recent rejected insert across all writers.
    pub fn explain_rejection(&self) -> Option<RejectionExplanation> {
        self.shared.explain_rejection()
    }
}

impl Snapshot {
    /// The epoch number this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl ReadView {
    /// The engine behind this view.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The epoch this view reads — monotone across publications of one
    /// hub.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The epoch's consistency verdict (O(1), decided at publication).
    pub fn is_consistent(&self) -> bool {
        self.snap.consistent
    }

    /// The epoch's base state.
    pub fn state(&self) -> &DatabaseState {
        &self.snap.state
    }

    /// The X-total projection `[x]` of this epoch. `Ok(None)` when the
    /// epoch is inconsistent. On IR schemes this is chase-free (the
    /// cached Theorem 4.1 expression over the snapshot state); non-IR
    /// schemes, and IR queries no bounded expression covers, chase the
    /// snapshot — never the live tableaux, so the answer is stable no
    /// matter what writers do meanwhile.
    pub fn total_projection(
        &self,
        x: AttrSet,
        guard: &Guard,
    ) -> Result<Option<Vec<Tuple>>, ExecError> {
        let t0 = Instant::now();
        if !self.snap.consistent {
            return Ok(None);
        }
        let (result, method) = match self.engine.total_projection_expr(x, guard)? {
            Some(expr) => {
                let tuples = expr
                    .eval_sorted(&self.snap.state)
                    .expect("cached projection expressions are well-formed");
                (Ok(Some(tuples)), "expr")
            }
            None => (chase_projection(&self.engine, &self.snap.state, x, guard), "chase"),
        };
        emit_query(&self.engine, x, method, &result, t0, guard);
        result
    }
}

type ProjectionResult = Result<Option<Vec<Tuple>>, ExecError>;

/// `[x]` by the hub's own chase engine: an untraced tableau of `state`
/// chased under the full key dependencies.
fn chase_projection(engine: &Engine, state: &DatabaseState, x: AttrSet, guard: &Guard) -> ProjectionResult {
    let mut chase = IncrementalChase::of_state(engine.scheme(), state, engine.key_deps().full())?;
    match chase.run(guard) {
        Ok(_) => Ok(Some(chase.total_projection(x))),
        Err(ExecError::Inconsistent { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The `query_answered` event + metrics every query path shares.
fn emit_query(
    engine: &Engine,
    x: AttrSet,
    method: &'static str,
    result: &ProjectionResult,
    t0: Instant,
    guard: &Guard,
) {
    if let Ok(Some(tuples)) = result {
        let obs = engine.observability();
        obs.tracer.emit_with(|| TraceEvent::QueryAnswered {
            attrs: Arc::from(engine.scheme().universe().render(x).as_str()),
            method: Arc::from(method),
            tuples: tuples.len(),
        });
        if let Some(m) = &obs.metrics {
            m.counter("session.queries").inc();
            m.counter(if method == "expr" {
                "session.queries_expr"
            } else {
                "session.queries_chase"
            })
            .inc();
            m.latency_histogram("session.query_us")
                .observe_duration(t0.elapsed());
            engine.record_guard_metrics(guard);
        }
    }
}

/// Shares every relation slot `si` owns from `src` into `dst` — how the
/// hub carves its slots out of a state and assembles a published or
/// durable cut from them. A relation clone shares its chunks, so this
/// costs O(#chunks) and copies no tuple, and it keeps each relation's
/// insertion order, which `render` and the fingerprints compare.
fn copy_owned(engine: &Engine, si: usize, src: &DatabaseState, dst: &mut DatabaseState) {
    for &i in &engine.blocks().members[si] {
        dst.copy_relation(i, src)
            .expect("hub states share the engine's scheme");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::exec::Budget;
    use idr_relation::{state_of, Relation, SchemeBuilder, SymbolTable};
    use idr_workload::generators::block_chain_scheme;

    fn two_block_scheme() -> idr_relation::DatabaseScheme {
        SchemeBuilder::new("ABCD")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "CD", ["C"])
            .build()
            .unwrap()
    }

    #[test]
    fn read_views_are_snapshot_isolated_and_epoch_stamped() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let hub = engine.hub(&state, &g).unwrap();

        let v0 = hub.read_view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v0.state().total_tuples(), 1);

        let w = hub.write_handle();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("C"), sym.intern("c")),
            (u.attr_of("D"), sym.intern("d")),
        ]);
        assert!(w.insert(1, t, &g).unwrap());

        // The old view still reads epoch 0; a new view sees the insert.
        assert_eq!(v0.state().total_tuples(), 1);
        let v1 = hub.read_view();
        assert!(v1.epoch() > v0.epoch());
        assert_eq!(v1.state().total_tuples(), 2);
        // No writes since: the same epoch is re-served, not republished.
        assert_eq!(hub.read_view().epoch(), v1.epoch());
    }

    #[test]
    fn concurrent_block_writers_commute() {
        let db = block_chain_scheme(4, 3);
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&DatabaseState::empty(&db), &g).unwrap();
        let symbols = std::sync::Mutex::new(SymbolTable::new());
        let w = hub.write_handle();
        std::thread::scope(|s| {
            for k in 0..4usize {
                let w = w.clone();
                let symbols = &symbols;
                let db = &db;
                let g = &g;
                s.spawn(move || {
                    for e in 0..3usize {
                        let i = k * 3; // first relation of block k
                        let t = {
                            let mut sym = symbols.lock().unwrap();
                            Tuple::from_pairs(db.scheme(i).attrs().iter().map(|a| {
                                (
                                    a,
                                    sym.intern(&format!(
                                        "{}_{e}",
                                        db.universe().name(a)
                                    )),
                                )
                            }))
                        };
                        assert!(w.insert(i, t, g).unwrap());
                    }
                });
            }
        });
        let v = hub.read_view();
        assert!(v.is_consistent());
        assert_eq!(v.state().total_tuples(), 12);
    }

    #[test]
    fn rejected_insert_leaves_the_epoch_unchanged() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let bad = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b2")),
        ]);
        let before = hub.read_view().epoch();
        assert!(!w.insert(0, bad, &g).unwrap());
        assert!(w.explain_rejection().is_some());
        let v = hub.read_view();
        assert_eq!(v.epoch(), before, "a rejected insert publishes nothing");
        assert_eq!(v.state().total_tuples(), 1);
        assert!(v.is_consistent());
    }

    #[test]
    fn guard_trip_rolls_back_and_aborts_nothing_visible() {
        // star(3) with a shared hub value: any rebuild fires fd rules, so
        // max_chase_steps(0) trips mid-insert.
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k"), ("A0", "x0")]),
                ("R1", &[("K", "k"), ("A1", "x1")]),
                ("R2", &[("K", "k"), ("A2", "x2")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("K"), sym.intern("k")),
            (u.attr_of("A2"), sym.intern("x2b")),
        ]);
        let tight = Guard::new(Budget::unlimited().with_max_chase_steps(0));
        let err = w.insert(2, t.clone(), &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
        let v = hub.read_view();
        assert!(!v.state().relation(2).contains(&t));
        assert!(v.is_consistent());
        let x = AttrSet::from_iter([u.attr_of("K"), u.attr_of("A2")]);
        assert!(hub.explain(x, &t).is_none(), "speculative row leaked");
    }

    #[test]
    fn rolled_back_unit_keeps_insertion_order() {
        // One block (star(3)): the unit deletes a tuple that is not last
        // in R0, then trips the guard on an insert that joins k2's rows.
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k1"), ("A0", "x1")]),
                ("R0", &[("K", "k2"), ("A0", "x2")]),
                ("R1", &[("K", "k2"), ("A1", "y2")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let hub = engine.hub(&state, &Guard::unlimited()).unwrap();
        let before = insert_loop_cut(&hub).render(&db, &sym);
        let u = db.universe();
        let mut kv = |a: &str, k: &str, v: &str| {
            Tuple::from_pairs([(u.attr_of("K"), sym.intern(k)), (u.attr_of(a), sym.intern(v))])
        };
        let ops = [
            BatchOp::Delete {
                rel: 0,
                t: kv("A0", "k1", "x1"),
            },
            BatchOp::Insert {
                rel: 2,
                t: kv("A2", "k2", "z2"),
            },
        ];
        let tight = Guard::new(Budget::unlimited().with_max_chase_steps(0));
        let err = hub.write_handle().apply_batch(&ops, &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
        // Nothing of the unit was logged, so memory must read exactly as
        // before it: the same tuples in the same insertion order.
        assert_eq!(insert_loop_cut(&hub).render(&db, &sym), before);
    }

    #[test]
    fn apply_batch_matches_per_op_application() {
        // Mixed inserts and deletes across two blocks, including a
        // rejected insert and a delete of an absent tuple: the batch
        // verdicts and final state must equal per-op serial application.
        let db = two_block_scheme();
        let engine_a = Engine::new(db.clone());
        let engine_b = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let u = db.universe();
        let pair = |x: &str, xv: &str, y: &str, yv: &str, sym: &mut SymbolTable| {
            Tuple::from_pairs([(u.attr_of(x), sym.intern(xv)), (u.attr_of(y), sym.intern(yv))])
        };
        let ops = vec![
            BatchOp::Insert {
                rel: 1,
                t: pair("C", "c", "D", "d", &mut sym),
            },
            BatchOp::Insert {
                rel: 0,
                t: pair("A", "a2", "B", "b2", &mut sym),
            },
            // Rejected: clashes with the seeded (a, b) on key A.
            BatchOp::Insert {
                rel: 0,
                t: pair("A", "a", "B", "bX", &mut sym),
            },
            BatchOp::Delete {
                rel: 0,
                t: pair("A", "a", "B", "b", &mut sym),
            },
            // Absent: was never inserted.
            BatchOp::Delete {
                rel: 1,
                t: pair("C", "cX", "D", "dX", &mut sym),
            },
            // Accepted: the clashing (a, b) is gone by now.
            BatchOp::Insert {
                rel: 0,
                t: pair("A", "a", "B", "bX", &mut sym),
            },
        ];

        let hub_a = engine_a.hub(&state, &g).unwrap();
        let batch_verdicts = hub_a.write_handle().apply_batch(&ops, &g).unwrap();

        let hub_b = engine_b.hub(&state, &g).unwrap();
        let wb = hub_b.write_handle();
        let serial_verdicts: Vec<bool> = ops
            .iter()
            .map(|op| match op {
                BatchOp::Insert { rel, t } => wb.insert(*rel, t.clone(), &g).unwrap(),
                BatchOp::Delete { rel, t } => wb.delete(*rel, t, &g).unwrap(),
            })
            .collect();

        assert_eq!(batch_verdicts, serial_verdicts);
        assert_eq!(batch_verdicts, vec![true, true, false, true, false, true]);
        let va = hub_a.read_view();
        let vb = hub_b.read_view();
        assert_eq!(va.is_consistent(), vb.is_consistent());
        let dump = |v: &ReadView| {
            let mut all: Vec<(usize, Tuple)> =
                v.state().iter_all().map(|(i, t)| (i, t.clone())).collect();
            all.sort();
            all
        };
        assert_eq!(dump(&va), dump(&vb));
        assert!(hub_a.explain_rejection().is_some(), "rejection provenance kept");
    }

    #[test]
    fn apply_batch_rolls_back_whole_group_on_guard_trip() {
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k"), ("A0", "x0")]),
                ("R1", &[("K", "k"), ("A1", "x1")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("K"), sym.intern("k")),
            (u.attr_of("A2"), sym.intern("x2")),
        ]);
        let ops = vec![BatchOp::Insert { rel: 2, t: t.clone() }];
        let tight = Guard::new(Budget::unlimited().with_max_chase_steps(0));
        let err = w.apply_batch(&ops, &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
        let v = hub.read_view();
        assert!(v.is_consistent());
        assert!(!v.state().relation(2).contains(&t), "speculative op leaked");
        // The hub is fully usable afterwards: the same batch under a
        // real guard applies.
        assert_eq!(w.apply_batch(&ops, &g).unwrap(), vec![true]);
        assert!(hub.read_view().state().relation(2).contains(&t));
    }

    #[test]
    fn whole_state_backend_serves_reads_and_writes() {
        // Example 2: rejected by Algorithm 6 — one whole-state slot.
        let db = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .scheme("R3", "AC", ["A"])
            .build()
            .unwrap();
        let engine = Engine::new(db.clone());
        assert!(engine.ir().is_none());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let hub = engine.hub(&state, &g).unwrap();
        let v = hub.read_view();
        assert!(v.is_consistent());
        // [AC] is derivable through the chase even with no AC relation —
        // and the snapshot path must agree with the one-shot engine path.
        let x = db.universe().set_of("AC");
        let via_view = v.total_projection(x, &g).unwrap().unwrap();
        let via_engine = engine.total_projection(&state, x, &g).unwrap().unwrap();
        assert_eq!(via_view, via_engine);
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a2")),
            (u.attr_of("B"), sym.intern("b2")),
        ]);
        assert!(hub.write_handle().insert(0, t, &g).unwrap());
        assert_eq!(hub.read_view().state().total_tuples(), 3);
    }

    /// `R1(a_e, b_e)` and `R2(c_e, d_e)` of [`two_block_scheme`] for
    /// entity `e`.
    fn entity(
        db: &idr_relation::DatabaseScheme,
        sym: &mut SymbolTable,
        rel: usize,
        e: usize,
    ) -> Tuple {
        Tuple::from_pairs(
            db.scheme(rel)
                .attrs()
                .iter()
                .map(|a| (a, sym.intern(&format!("{}{e}", db.universe().name(a))))),
        )
    }

    /// A hub over `n` entities in both relations of [`two_block_scheme`],
    /// so each relation spans several chunks.
    fn chunked_hub(n: usize) -> (idr_relation::DatabaseScheme, SymbolTable, Hub) {
        let db = two_block_scheme();
        let mut sym = SymbolTable::new();
        let mut state = DatabaseState::empty(&db);
        for e in 0..n {
            for rel in 0..2 {
                state.insert(rel, entity(&db, &mut sym, rel, e)).unwrap();
            }
        }
        let hub = Engine::new(db.clone()).hub(&state, &Guard::unlimited()).unwrap();
        (db, sym, hub)
    }

    #[test]
    fn a_publish_after_one_write_copies_at_most_one_chunk_per_dirty_relation() {
        let chunk = Relation::CHUNK_ROWS;
        let n = 4 * chunk;
        let (db, mut sym, hub) = chunked_hub(n);
        let g = Guard::unlimited();
        let w = hub.write_handle();
        for round in 0..3 {
            let shared = hub.read_view();
            let before = Relation::copied_on_write();
            // One write per relation: an append to R1, and a delete from
            // the middle of R2, each landing in a chunk the view shares.
            assert!(w.insert(0, entity(&db, &mut sym, 0, n + round), &g).unwrap());
            assert!(w.delete(1, &entity(&db, &mut sym, 1, round * chunk + 7), &g).unwrap());
            let published = hub.read_view();
            let copied = Relation::copied_on_write() - before;
            assert!(
                copied <= 2 * chunk as u64,
                "round {round}: two dirty relations copied {copied} tuples"
            );
            assert!(published.epoch() > shared.epoch());
            assert_eq!(shared.state().total_tuples(), 2 * n);
            assert_eq!(published.state().total_tuples(), 2 * n);
        }
    }

    /// A sink that logs nothing and asks for a cut after every unit.
    #[derive(Debug, Default)]
    struct CutEveryUnit {
        cuts: Mutex<Vec<usize>>,
    }

    impl DurabilitySink for CutEveryUnit {
        fn log_ops(&self, _ops: &[DurableOp<'_>]) -> Result<(), ExecError> {
            Ok(())
        }

        fn op_finished(&self, _ops: usize) -> Result<bool, ExecError> {
            Ok(true)
        }

        fn write_snapshot(&self, state: &DatabaseState) -> Result<(), ExecError> {
            self.cuts.lock().unwrap().push(state.total_tuples());
            Ok(())
        }
    }

    #[test]
    fn a_quiesced_cut_copies_no_tuple() {
        let n = 4 * Relation::CHUNK_ROWS;
        let (db, mut sym, hub) = chunked_hub(n);
        let sink = Arc::new(CutEveryUnit::default());
        hub.attach_sink(Arc::clone(&sink) as Arc<dyn DurabilitySink>).unwrap();
        let g = Guard::unlimited();
        let w = hub.write_handle();
        // The first append copies R1's tail chunk away from epoch 0.
        assert!(w.insert(0, entity(&db, &mut sym, 0, n), &g).unwrap());
        let before = Relation::copied_on_write();
        assert!(w.insert(0, entity(&db, &mut sym, 0, n + 1), &g).unwrap());
        assert_eq!(Relation::copied_on_write() - before, 0, "the cut copied tuples");
        assert_eq!(*sink.cuts.lock().unwrap(), [2 * n + 1, 2 * n + 2]);
    }

    /// The slots' substates, cut tuple by tuple: the oracle for the
    /// shared cuts.
    fn insert_loop_cut(hub: &Hub) -> DatabaseState {
        let mut state = DatabaseState::empty(hub.engine().scheme());
        for s in &hub.shared.slots {
            for (i, t) in lock_slot(s).state.iter_all() {
                state.insert(i, t.clone()).unwrap();
            }
        }
        state
    }

    #[test]
    fn published_views_equal_the_slot_substates_in_insertion_order() {
        let db = block_chain_scheme(4, 3);
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        // Entity `e`'s fragment of relation `i`, entities in descending
        // order so insertion order is not sorted order.
        let fragment = |sym: &mut SymbolTable, i: usize, e: usize| {
            Tuple::from_pairs(
                db.scheme(i)
                    .attrs()
                    .iter()
                    .map(|a| (a, sym.intern(&format!("{}_{e}", db.universe().name(a)))))
                    .collect::<Vec<_>>(),
            )
        };
        let mut state = DatabaseState::empty(&db);
        for e in (0..4).rev() {
            for i in 0..db.len() {
                state.insert(i, fragment(&mut sym, i, e)).unwrap();
            }
        }
        let hub = engine.hub(&state, &g).unwrap();
        let renders = |s: &DatabaseState, sym: &SymbolTable| s.render(&db, sym);
        let want = renders(&state, &sym);
        assert_eq!(renders(&insert_loop_cut(&hub), &sym), want, "carved slots");
        assert_eq!(renders(hub.read_view().state(), &sym), want, "epoch 0");

        let w = hub.write_handle();
        for i in 0..db.len() {
            assert!(w.insert(i, fragment(&mut sym, i, 9 - i % 3), &g).unwrap());
            if i % 2 == 0 {
                assert!(w.delete(i, &fragment(&mut sym, i, 2), &g).unwrap());
            }
        }
        let view = hub.read_view();
        assert!(view.epoch() > 0);
        let want = insert_loop_cut(&hub);
        for (i, (got, want)) in view.state().relations().iter().zip(want.relations()).enumerate() {
            let order = |r: &Relation| r.iter().cloned().collect::<Vec<_>>();
            assert_eq!(order(got), order(want), "relation {i}");
        }
        assert_eq!(renders(view.state(), &sym), renders(&want, &sym));
    }
}
