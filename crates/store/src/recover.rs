//! Crash recovery: latest valid snapshot + WAL tail, replayed through
//! the normal guarded [`WriteHandle`] path.
//!
//! Recovery never trusts the log's word for a verdict: every surviving
//! op is re-executed through the same engine code that ran it the first
//! time, so the recovered state **re-earns** its consistency verdict
//! (Honeyman's weak-instance consistency, the invariant the paper's
//! maintenance theorems preserve). The sequence:
//!
//! 1. parse `scheme.idr`;
//! 2. load `snapshot.state` (epoch `N`) — the atomic-rename install
//!    guarantees it is either the old or the new complete snapshot;
//! 3. scan `wal-N.log`: a torn final record (crash mid-append) is
//!    truncated and counted; a checksum-mismatched *complete* record is
//!    a typed [`StoreError::Corrupt`] — corruption is surfaced, never
//!    repaired silently;
//! 4. replay every record into a hub built over the snapshot, through
//!    its `WriteHandle` under an unlimited guard — rejected inserts
//!    re-reject deterministically, re-deriving the same state and
//!    verdict the process held before it died. Contiguous records apply
//!    as one `apply_batch` unit of at most
//!    [`REPLAY_UNIT`](idr_core::REPLAY_UNIT) records; while a block is
//!    poisoned, and for a unit that fails with a typed error, the unit
//!    replays op by op instead, which re-rejects exactly as one-record
//!    units do. The WAL's record order is the committed op order even
//!    when the log was written by concurrent writers under group commit:
//!    per-block order is preserved by the per-block write lanes, and
//!    cross-block ops commute (Theorem 4.2), so this serial replay
//!    reproduces the concurrent final state.
//!
//! Steps 1–3 are [`open`], step 4 is [`replay`]. The split lets a server
//! build the one hub it serves from over the snapshot, replay into it,
//! and only then attach its durability sink
//! ([`Hub::attach_sink`](idr_core::Hub::attach_sink)): start-up chases
//! the state once, and replayed records are never logged again.
//! [`recover_with`] composes the three for callers that want the
//! recovered state rather than a hub.
//!
//! Every record is an op to replay: the write path logs a unit only
//! after its verdicts are earned and logs nothing for a unit it rolls
//! back, so there is nothing to filter. A record that is not an op —
//! such as the `abort` marker older logs appended after a rolled-back
//! op — fails recovery with a typed [`StoreError::Replay`].

use std::path::Path;
use std::sync::{Arc, PoisonError};

use idr_core::{Engine, Observability, ReplayError, ReplayOutcome, WriteHandle};
use idr_obs::{MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::parse_scheme;
use idr_relation::{DatabaseState, SymbolTable};

use crate::error::StoreError;
use crate::snapshot::{self, SCHEME_FILE};
use crate::store::Store;
use crate::wal::{self, WalWriter};

/// What recovery found and did, for logs and the `recovery_replayed`
/// trace event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The snapshot epoch recovery started from.
    pub epoch: u64,
    /// Tuples loaded from the snapshot.
    pub snapshot_tuples: usize,
    /// Complete, checksum-valid records found in the WAL.
    pub wal_records: usize,
    /// Bytes of torn final record truncated from the WAL.
    pub torn_bytes: u64,
    /// Ops replayed through the write pipeline (every WAL record).
    pub replayed: usize,
    /// Replayed inserts the engine rejected (again) as inconsistent.
    pub rejected: usize,
}

/// A recovered data dir: the store (positioned to append), the replayed
/// state, its re-earned consistency verdict, and the recovery stats.
#[derive(Debug)]
pub struct Recovered {
    /// The store, open at the recovered epoch with the torn tail (if
    /// any) truncated.
    pub store: Store,
    /// The state after snapshot + WAL replay.
    pub state: DatabaseState,
    /// The replayed state's consistency verdict, re-earned through the
    /// guarded write path.
    pub consistent: bool,
    /// What recovery found and did.
    pub stats: RecoveryStats,
}

/// An opened data dir, ready for a hub: the store positioned to append,
/// the snapshot state, and the WAL tail still to be replayed into the
/// hub with [`replay`].
#[derive(Debug)]
pub struct Opened {
    /// The store, open at the snapshot epoch with the torn tail (if
    /// any) truncated.
    pub store: Store,
    /// The snapshot state — the base the WAL tail replays onto.
    pub snapshot: DatabaseState,
    /// The WAL tail: every complete, checksum-valid record, in log
    /// order.
    pub records: Vec<String>,
    /// What opening found; [`replay`] fills in `replayed` and
    /// `rejected`.
    pub stats: RecoveryStats,
}

/// Recovers `dir` silently (no tracing). See [`recover_with`].
pub fn recover(dir: &Path) -> Result<Recovered, StoreError> {
    recover_with(dir, TraceHandle::none(), None)
}

/// Recovers `dir` — [`open`], a hub over the snapshot, [`replay`] —
/// emitting a `recovery_replayed` event and `store.*` recovery metrics,
/// and attaching `tracer`/`metrics` to the returned store. The hub
/// reports to `tracer`/`metrics` too (its `session_built` event and
/// `session.builds`, say), and is dropped once the state is read out.
pub fn recover_with(
    dir: &Path,
    tracer: TraceHandle,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<Recovered, StoreError> {
    let Opened {
        store,
        snapshot,
        records,
        mut stats,
    } = open(dir, tracer.clone(), metrics.clone())?;
    let engine = Engine::new(store.scheme().clone()).with_observability(Observability {
        tracer,
        metrics,
        provenance: false,
    });
    let hub = engine
        .hub(&snapshot, &Guard::unlimited())
        .map_err(|e| StoreError::Replay {
            detail: format!("cannot bind a hub to the snapshot state: {e}"),
        })?;
    // The hub holds its own copy of the snapshot state.
    drop(snapshot);
    {
        let symbols = store.symbols();
        let mut symbols = symbols.lock().unwrap_or_else(PoisonError::into_inner);
        replay(&hub.write_handle(), &mut symbols, &records, &mut stats)?;
    }
    let view = hub.read_view();
    Ok(Recovered {
        store,
        state: view.state().clone(),
        consistent: view.is_consistent(),
        stats,
    })
}

/// Opens `dir` for recovery (steps 1–3 of the module doc): loads the
/// snapshot, scans the WAL, truncates a torn tail, sweeps stale WALs and
/// returns the store positioned to append, with `tracer`/`metrics`
/// attached and `store.*` recovery metrics recorded. Builds no hub: the
/// caller builds one over [`Opened::snapshot`] and [`replay`]s
/// [`Opened::records`] into it.
pub fn open(
    dir: &Path,
    tracer: TraceHandle,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<Opened, StoreError> {
    let scheme_path = dir.join(SCHEME_FILE);
    let db = parse_scheme(&wal::read_file(&scheme_path, "read scheme file")?).map_err(|e| {
        StoreError::Format {
            path: scheme_path,
            detail: e,
        }
    })?;
    let mut symbols = SymbolTable::new();
    let (epoch, snapshot) = snapshot::load_snapshot(dir, &db, &mut symbols)?;
    let wal_path = snapshot::wal_path(dir, epoch);
    let scan = wal::scan_file(&wal_path)?;
    let stats = RecoveryStats {
        epoch,
        snapshot_tuples: snapshot.total_tuples(),
        wal_records: scan.records.len(),
        torn_bytes: scan.torn_bytes,
        ..RecoveryStats::default()
    };

    // Truncate the torn tail and open for appends; sweep stale WALs
    // left by a crash between snapshot rename and compaction.
    let writer = WalWriter::open_at(&wal_path, scan.valid_len, true)?;
    sweep_stale_wals(dir, epoch);

    if let Some(m) = &metrics {
        m.counter("store.recoveries").inc();
        m.counter("store.recovered_records")
            .add(stats.wal_records as u64);
        if stats.torn_bytes > 0 {
            m.counter("store.torn_tails_truncated").inc();
        }
        m.gauge("store.epoch").set(epoch);
    }

    // Every record is replayed, so every one counts toward the snapshot
    // cadence.
    let records = scan.records.len() as u64;
    let store = Store::from_recovery(
        dir.to_path_buf(),
        db,
        symbols,
        writer,
        epoch,
        records,
        records,
    )
    .with_observability(tracer, metrics);
    Ok(Opened {
        store,
        snapshot,
        records: scan.records,
        stats,
    })
}

/// Replays the WAL tail `records` through `writer` (step 4 of the module
/// doc) under an unlimited guard, counting every replayed and re-rejected
/// record into `stats`, then emits `recovery_replayed` on the writer's
/// engine tracer. `symbols` must be the store's table, the one the hub's
/// state was loaded with.
///
/// Replay is [`WriteHandle::replay`]: contiguous records apply as
/// batches of at most [`REPLAY_UNIT`](idr_core::REPLAY_UNIT). Attach
/// the durability sink only afterwards, so replayed records are neither
/// logged again nor counted toward the snapshot cadence twice.
///
/// # Errors
///
/// A writer whose hub already has a sink attached is refused with
/// [`StoreError::Replay`] before any record applies: the sink would log
/// the records again, and when it is this store's
/// [`SharedStore`](crate::SharedStore), logging locks the symbol table
/// the caller holds for `symbols` and never returns.
pub fn replay(
    writer: &WriteHandle,
    symbols: &mut SymbolTable,
    records: &[String],
    stats: &mut RecoveryStats,
) -> Result<(), StoreError> {
    if writer.has_sink() {
        return Err(StoreError::Replay {
            detail: "the hub already has a durability sink; replay before attaching it".to_string(),
        });
    }
    let guard = Guard::unlimited();
    writer.replay(
        records.iter().map(String::as_str),
        symbols,
        &guard,
        |line, r| {
            match r {
                Ok(ReplayOutcome::Rejected) => stats.rejected += 1,
                Ok(_) => {}
                Err(ReplayError::Malformed { detail, .. }) => {
                    return Err(StoreError::Replay {
                        detail: format!("bad wal record {line:?}: {detail}"),
                    })
                }
                Err(ReplayError::Exec(e)) => {
                    return Err(StoreError::Replay {
                        detail: format!("replaying {line:?} failed: {e}"),
                    })
                }
            }
            stats.replayed += 1;
            Ok(())
        },
    )?;
    let s = &*stats;
    writer
        .engine()
        .observability()
        .tracer
        .emit_with(|| TraceEvent::RecoveryReplayed {
            epoch: s.epoch,
            records: s.wal_records,
            replayed: s.replayed,
            torn_bytes: s.torn_bytes as usize,
        });
    Ok(())
}

/// Deletes `wal-K.log` for every `K != epoch` (best effort): stale logs
/// a crash prevented the rotation from compacting. Their ops are all in
/// the current snapshot, so they are dead weight.
fn sweep_stale_wals(dir: &Path, epoch: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            if num.parse::<u64>().map(|k| k != epoch).unwrap_or(false) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}
