//! The [`Store`]: a data directory plus an open WAL — the bookkeeping
//! half of the engine's durability sink.
//!
//! A store owns the canonical [`SymbolTable`] for its data dir (behind
//! an `Arc<Mutex<…>>` so callers can keep interning while a hub writes
//! through the store) and renders every logged op through it, in the
//! same fixture syntax the CLI parses. Writes reach it wrapped in a
//! [`SharedStore`](crate::SharedStore), the engine's
//! [`DurabilitySink`](idr_core::DurabilitySink): each write unit arrives
//! once its verdicts are earned, as one run of records, so the log holds
//! exactly the ops memory applied — never an op to undo. Snapshot
//! cadence is opt-in: with [`with_snapshot_every`](Store::with_snapshot_every)
//! set, every `n` logged ops cut a snapshot and rotate the WAL to the
//! next epoch.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use idr_core::durability::DurableOp;
use idr_obs::{MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::parse::{render_scheme_file, render_tuple_line};
use idr_relation::{DatabaseScheme, DatabaseState, SymbolTable, Tuple};

use crate::error::StoreError;
use crate::group::GroupWal;
use crate::snapshot::{self, SCHEME_FILE};
use crate::wal::WalWriter;

/// An initialised data directory with an open write-ahead log.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    db: DatabaseScheme,
    symbols: Arc<Mutex<SymbolTable>>,
    wal: Arc<GroupWal>,
    epoch: u64,
    wal_records: u64,
    ops_since_snapshot: u64,
    snapshot_every: Option<u64>,
    sync: bool,
    tracer: TraceHandle,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Store {
    /// Initialises `dir` as a fresh data directory: writes the scheme
    /// file, an empty epoch-0 snapshot and an empty `wal-0.log`. Errors
    /// if `dir` already holds a store.
    pub fn init(dir: &Path, db: &DatabaseScheme) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create data dir", dir, e))?;
        let scheme_path = dir.join(SCHEME_FILE);
        if scheme_path.exists() {
            return Err(StoreError::Format {
                path: scheme_path,
                detail: "data dir is already initialised (scheme.idr exists)".to_string(),
            });
        }
        std::fs::write(&scheme_path, render_scheme_file(db))
            .map_err(|e| StoreError::io("write scheme file", &scheme_path, e))?;
        let symbols = SymbolTable::new();
        snapshot::write_snapshot(dir, 0, db, &DatabaseState::empty(db), &symbols, true)?;
        let wal = WalWriter::create(&snapshot::wal_path(dir, 0), true)?;
        snapshot::fsync_dir(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            db: db.clone(),
            symbols: Arc::new(Mutex::new(symbols)),
            wal: Arc::new(GroupWal::new(wal)),
            epoch: 0,
            wal_records: 0,
            ops_since_snapshot: 0,
            snapshot_every: None,
            sync: true,
            tracer: TraceHandle::none(),
            metrics: None,
        })
    }

    /// Used by recovery to assemble a store positioned at the end of the
    /// (truncated) WAL.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_recovery(
        dir: PathBuf,
        db: DatabaseScheme,
        symbols: SymbolTable,
        wal: WalWriter,
        epoch: u64,
        wal_records: u64,
        ops_since_snapshot: u64,
    ) -> Store {
        Store {
            dir,
            db,
            symbols: Arc::new(Mutex::new(symbols)),
            wal: Arc::new(GroupWal::new(wal)),
            epoch,
            wal_records,
            ops_since_snapshot,
            snapshot_every: None,
            sync: true,
            tracer: TraceHandle::none(),
            metrics: None,
        }
    }

    /// Cuts a snapshot once `n` ops have been logged since the last one
    /// (rotating the WAL); a framed group counts each of its ops.
    /// `None` (the default) disables automatic snapshots; call
    /// [`snapshot`](Store::snapshot) manually.
    pub fn with_snapshot_every(mut self, n: Option<u64>) -> Self {
        self.snapshot_every = n.filter(|&n| n > 0);
        self
    }

    /// Whether appends and snapshots fsync before returning (the commit
    /// guarantee; on by default). The in-process crash fuzzer disables
    /// it — simulated crashes truncate files rather than lose caches —
    /// to keep tens of thousands of recoveries fast.
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self.wal.set_sync(sync);
        self
    }

    /// Attaches a trace sink and metrics registry: appends emit
    /// `wal_appended`, snapshots `snapshot_written`, and counters under
    /// `store.*` track log and snapshot activity.
    pub fn with_observability(
        mut self,
        tracer: TraceHandle,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        self.tracer = tracer;
        self.metrics = metrics;
        self
    }

    /// The scheme this data dir was initialised with.
    pub fn scheme(&self) -> &DatabaseScheme {
        &self.db
    }

    /// The canonical symbol table for this data dir. Every tuple handed
    /// to a durable hub must be interned through it (the CLI and
    /// the fuzzer lock it around `parse_tuple_line`).
    pub fn symbols(&self) -> Arc<Mutex<SymbolTable>> {
        Arc::clone(&self.symbols)
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot epoch (`wal-<epoch>.log` is the open WAL).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Op records in the open WAL.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Cuts an epoch-`e+1` snapshot of `state` and rotates the WAL: the
    /// snapshot is installed by atomic rename, a fresh empty WAL is
    /// created for the new epoch, and the old epoch's WAL is deleted
    /// (compaction). A crash between those steps is safe — recovery
    /// reads the snapshot's epoch and treats its missing WAL as empty.
    pub fn snapshot(&mut self, state: &DatabaseState) -> Result<(), StoreError> {
        let next = self.epoch + 1;
        let tuples = {
            let symbols = self.lock_symbols();
            snapshot::write_snapshot(&self.dir, next, &self.db, state, &symbols, self.sync)?
        };
        let old_wal = snapshot::wal_path(&self.dir, self.epoch);
        self.wal
            .swap_writer(WalWriter::create(&snapshot::wal_path(&self.dir, next), self.sync)?);
        if self.sync {
            snapshot::fsync_dir(&self.dir)?;
        }
        // Compaction. Best effort: a leftover old WAL is ignored by
        // recovery (it reads only the snapshot's epoch) and removed on
        // the next rotation — but the skip is surfaced, not swallowed.
        if let Err(e) = std::fs::remove_file(&old_wal) {
            if e.kind() != std::io::ErrorKind::NotFound {
                self.tracer.emit_with(|| TraceEvent::CompactionSkipped {
                    path: Arc::from(old_wal.display().to_string().as_str()),
                    error: Arc::from(e.to_string().as_str()),
                });
                if let Some(m) = &self.metrics {
                    m.counter("store.compactions_skipped").inc();
                }
            }
        }
        self.epoch = next;
        self.wal_records = 0;
        self.ops_since_snapshot = 0;
        self.tracer
            .emit_with(|| TraceEvent::SnapshotWritten { epoch: next, tuples });
        if let Some(m) = &self.metrics {
            m.counter("store.snapshots").inc();
            m.gauge("store.epoch").set(next);
        }
        Ok(())
    }

    /// Locks the symbol table, recovering from a poisoned lock (the
    /// table is plain data; a panicked inter-thread user cannot leave it
    /// logically half-written for our purposes).
    fn lock_symbols(&self) -> std::sync::MutexGuard<'_, SymbolTable> {
        self.symbols
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Renders `op` as a WAL payload (`insert R1: A=a B=b`). Fails if a
    /// tuple value was not interned through this store's table.
    pub(crate) fn render_op(&self, op: DurableOp<'_>) -> Result<(&'static str, String), StoreError> {
        let (verb, rel, t): (&'static str, usize, &Tuple) = match op {
            DurableOp::Insert { rel, t } => ("insert", rel, t),
            DurableOp::Delete { rel, t } => ("delete", rel, t),
        };
        let symbols = self.lock_symbols();
        for (_, v) in t.iter() {
            if v.index() >= symbols.len() {
                return Err(StoreError::Replay {
                    detail: format!(
                        "tuple value #{} is not interned in the store's symbol table; \
                         intern through Store::symbols()",
                        v.index()
                    ),
                });
            }
        }
        Ok((verb, format!("{verb} {}", render_tuple_line(&self.db, &symbols, rel, t))))
    }

    /// Bookkeeping for one appended record: the record counter, the
    /// `wal_appended` event and the `store.wal_*` metrics.
    /// [`crate::SharedStore`] runs the group-commit append *outside* the
    /// store lock and accounts for it here afterwards.
    pub(crate) fn note_append(&mut self, verb: &'static str, bytes: usize) {
        self.wal_records += 1;
        self.tracer.emit_with(|| TraceEvent::WalAppended {
            verb: std::sync::Arc::from(verb),
            bytes,
        });
        if let Some(m) = &self.metrics {
            m.counter("store.wal_appends").inc();
            m.counter("store.wal_bytes").add(bytes as u64);
        }
    }

    /// Counts the `ops` ops of one logged write unit against the
    /// snapshot cadence and reports whether a snapshot is now due.
    pub(crate) fn snapshot_due(&mut self, ops: usize) -> bool {
        self.ops_since_snapshot += ops as u64;
        self.snapshot_every
            .is_some_and(|n| self.ops_since_snapshot >= n)
    }

    /// The group-commit WAL shared with [`crate::SharedStore`].
    pub(crate) fn group_wal(&self) -> Arc<GroupWal> {
        Arc::clone(&self.wal)
    }

    /// The attached trace sink.
    pub(crate) fn tracer(&self) -> TraceHandle {
        self.tracer.clone()
    }

    /// The attached metrics registry.
    pub(crate) fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }
}
