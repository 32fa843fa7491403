//! Crash recovery: latest valid snapshot + WAL tail, replayed through
//! the normal guarded [`WriteHandle`](idr_core::WriteHandle) path.
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
//! 4. replay every record through `Engine::hub` + a `WriteHandle`
//!    under an unlimited guard — rejected inserts re-reject
//!    deterministically, re-deriving the same state and verdict the
//!    process held before it died. The WAL's record order is the
//!    committed op order even when the log was written by concurrent
//!    writers under group commit: per-block order is preserved by the
//!    per-block write lanes, and cross-block ops commute (Theorem 4.2),
//!    so this serial replay reproduces the concurrent final state.
//!
//! Every record is an op to replay: the write path logs a unit only
//! after its verdicts are earned and logs nothing for a unit it rolls
//! back, so there is nothing to filter. A record that is not an op —
//! such as the `abort` marker older logs appended after a rolled-back
//! op — fails recovery with a typed [`StoreError::Replay`].

use std::path::Path;
use std::sync::Arc;

use idr_core::{Engine, ReplayError, ReplayOutcome};
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

/// Recovers `dir` silently (no tracing). See [`recover_with`].
pub fn recover(dir: &Path) -> Result<Recovered, StoreError> {
    recover_with(dir, TraceHandle::none(), None)
}

/// Recovers `dir`, emitting a `recovery_replayed` event and `store.*`
/// recovery metrics, and attaching `tracer`/`metrics` to the returned
/// store.
pub fn recover_with(
    dir: &Path,
    tracer: TraceHandle,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<Recovered, StoreError> {
    let scheme_path = dir.join(SCHEME_FILE);
    let db = parse_scheme(&wal::read_file(&scheme_path, "read scheme file")?).map_err(|e| {
        StoreError::Format {
            path: scheme_path,
            detail: e,
        }
    })?;
    let mut symbols = SymbolTable::new();
    let (epoch, snap_state) = snapshot::load_snapshot(dir, &db, &mut symbols)?;
    let wal_path = snapshot::wal_path(dir, epoch);
    let scan = wal::scan_file(&wal_path)?;

    let mut stats = RecoveryStats {
        epoch,
        snapshot_tuples: snap_state.total_tuples(),
        wal_records: scan.records.len(),
        torn_bytes: scan.torn_bytes,
        ..RecoveryStats::default()
    };

    // Replay through the normal guarded write pipeline.
    let engine = Engine::new(db.clone());
    let guard = Guard::unlimited();
    let (state, consistent) = {
        let hub = engine.hub(&snap_state, &guard).map_err(|e| {
            StoreError::Replay {
                detail: format!("cannot bind a hub to the snapshot state: {e}"),
            }
        })?;
        // The hub holds its own copy of the snapshot state.
        drop(snap_state);
        let writer = hub.write_handle();
        for line in &scan.records {
            // The shared replay entry re-earns each op's verdict: a
            // rejected insert re-rejects (including inserts into a block
            // an earlier replayed op already poisoned) — the
            // deterministic re-run of what the op did originally.
            match writer.replay_op(line, &mut symbols, &guard) {
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
        }
        let view = hub.read_view();
        (view.state().clone(), view.is_consistent())
    };

    // Truncate the torn tail and open for appends; sweep stale WALs
    // left by a crash between snapshot rename and compaction.
    let writer = WalWriter::open_at(&wal_path, scan.valid_len, true)?;
    sweep_stale_wals(dir, epoch);

    tracer.emit_with(|| TraceEvent::RecoveryReplayed {
        epoch,
        records: stats.wal_records,
        replayed: stats.replayed,
        torn_bytes: stats.torn_bytes as usize,
    });
    if let Some(m) = &metrics {
        m.counter("store.recoveries").inc();
        m.counter("store.recovered_records").add(stats.wal_records as u64);
        if stats.torn_bytes > 0 {
            m.counter("store.torn_tails_truncated").inc();
        }
        m.gauge("store.epoch").set(epoch);
    }

    let store = Store::from_recovery(
        dir.to_path_buf(),
        db,
        symbols,
        writer,
        epoch,
        stats.wal_records as u64,
        stats.replayed as u64,
    )
    .with_observability(tracer, metrics);
    Ok(Recovered {
        store,
        state,
        consistent,
        stats,
    })
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
        if let Some(num) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".log")) {
            if num.parse::<u64>().map(|k| k != epoch).unwrap_or(false) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}
