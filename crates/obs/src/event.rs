//! The typed trace-event taxonomy.
//!
//! Events are small copyable records. Human-facing fields (`fd`,
//! `column`, `scope`, …) are `Arc<str>` labels **pre-rendered by the
//! emitter at setup time**, so constructing an event on the hot path
//! clones a pointer instead of formatting a string. Row references are
//! tableau row indexes; `tag` fields are the originating relation index
//! of a row when known (the `TAG` column of the paper's figures).
//!
//! Each event renders two ways: [`render_text`](TraceEvent::render_text)
//! — one `key=value` line for `--trace=text` — and
//! [`to_json`](TraceEvent::to_json) — one single-line JSON object with a
//! `"type"` discriminator for `--trace=json` and the golden-trace suite.
//! Neither rendering includes clocks, addresses or other
//! run-dependent data, so traces are byte-stable across runs.

use std::sync::Arc;

use crate::json::JsonWriter;

/// A structured trace record. See the module docs for conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A chase run began (one per `run` call on an engine; `scope`
    /// identifies the tableau, e.g. `whole` or `T1`).
    ChaseStarted {
        /// Which tableau is being chased.
        scope: Arc<str>,
        /// Rows in the tableau at run start.
        rows: usize,
        /// Dependencies being chased with.
        fds: usize,
    },
    /// A symbol-equating fd-rule application (one class merge).
    FdRuleFired {
        /// The applied dependency, rendered (`HR→C`).
        fd: Arc<str>,
        /// The column whose classes merged, rendered (`C`).
        column: Arc<str>,
        /// The two rows the rule was applied to (representative, probed).
        rows: (u32, u32),
        /// Rows whose visible symbol changed and were re-enqueued.
        dirtied: usize,
    },
    /// Total rows re-enqueued by symbol changes over one chase run.
    RowsDirtied {
        /// The run's scope (matches its [`TraceEvent::ChaseStarted`]).
        scope: Arc<str>,
        /// Total worklist pushes caused by class merges.
        count: usize,
    },
    /// One IR block finished evaluating (per-block session verdict).
    BlockEvaluated {
        /// Block index (0-based).
        block: usize,
        /// Whether the block's substate chased to a fixpoint.
        consistent: bool,
        /// Worklist pops / scan passes spent.
        passes: usize,
        /// Rule applications spent.
        rule_applications: usize,
    },
    /// A guard stopped the computation (budget, deadline or
    /// cancellation).
    BudgetTrip {
        /// Rendered description of the trip (resource, spent, limit).
        detail: Arc<str>,
    },
    /// The chase tried to equate two distinct constants: the state (or a
    /// speculative insert) is inconsistent.
    StateRejected {
        /// The violated dependency, rendered.
        violating_fd: Arc<str>,
        /// The column on which constants clashed, rendered.
        column: Arc<str>,
        /// The two witnessing rows.
        witness_rows: (u32, u32),
    },
    /// A session finished binding an engine to a state.
    SessionBuilt {
        /// Block tableaux built (1 for the whole-state backend).
        blocks: usize,
        /// The session's consistency verdict.
        consistent: bool,
    },
    /// An incremental insert was applied (or rejected).
    InsertApplied {
        /// Target relation name.
        relation: Arc<str>,
        /// Whether the insert kept the state consistent.
        accepted: bool,
    },
    /// A delete was applied.
    DeleteApplied {
        /// Target relation name.
        relation: Arc<str>,
        /// Whether the tuple was present.
        removed: bool,
    },
    /// An X-total projection was answered.
    QueryAnswered {
        /// The projection attributes, rendered.
        attrs: Arc<str>,
        /// `expr` (chase-free Theorem 4.1 expression) or `chase`
        /// (whole-state fallback).
        method: Arc<str>,
        /// Result cardinality.
        tuples: usize,
    },
    /// Algorithm 6 finished.
    RecognitionDone {
        /// Whether the scheme is independence-reducible.
        accepted: bool,
        /// Blocks in the IR partition (0 when rejected).
        blocks: usize,
    },
    /// The key-equivalent partition (§5.1) was computed.
    KepComputed {
        /// Number of blocks.
        blocks: usize,
        /// Size of the largest block.
        largest: usize,
    },
    /// A single-tuple selection of Algorithm 4/5 (§2.7).
    SelectionPerformed {
        /// The relation selected against.
        relation: Arc<str>,
        /// Whether a matching tuple was found.
        found: bool,
    },
    /// A record was committed to the write-ahead log (before the
    /// corresponding in-memory mutation).
    WalAppended {
        /// The record's verb (`insert`, `delete` or `abort`).
        verb: Arc<str>,
        /// Framed record size in bytes (header + payload).
        bytes: usize,
    },
    /// A snapshot was installed by atomic rename and the WAL rotated to
    /// a new epoch.
    SnapshotWritten {
        /// The new snapshot's epoch.
        epoch: u64,
        /// Tuples in the snapshotted state.
        tuples: usize,
    },
    /// Snapshot rotation could not delete an old WAL log; the stale file
    /// is harmless (recovery reads only the snapshot's epoch) but the
    /// failure is surfaced instead of swallowed.
    CompactionSkipped {
        /// The WAL file that survived deletion.
        path: Arc<str>,
        /// The rendered `io::Error`.
        error: Arc<str>,
    },
    /// An anti-entropy exchange shipped a missing op range to a peer
    /// replica.
    SyncOpsShipped {
        /// The shipping replica.
        src: usize,
        /// The receiving replica.
        dst: usize,
        /// The origin replica whose journal the range extends.
        origin: usize,
        /// First shipped sequence number (0-based) in the origin's log.
        from: u64,
        /// Ops in the shipped range.
        count: usize,
    },
    /// One simulator round finished (messages delivered, client ops
    /// issued, anti-entropy ticked).
    SyncRoundCompleted {
        /// The 0-based round index.
        round: usize,
        /// Messages delivered this round.
        messages: usize,
        /// Whether every replica's digest matched at round end.
        in_sync: bool,
    },
    /// A replica crashed mid-sync (scripted fault); its in-flight
    /// transfer was cut and its session state discarded.
    SyncReplicaCrashed {
        /// The crashed replica.
        replica: usize,
        /// The protocol step interrupted (`digest_pull`, `ops_push`, …).
        step: Arc<str>,
    },
    /// Every replica converged to the same digest with no messages in
    /// flight.
    SyncConverged {
        /// Rounds it took.
        rounds: usize,
        /// Total ops shipped between replicas over the run.
        ops_shipped: usize,
    },
    /// Crash recovery finished replaying a WAL tail through the guarded
    /// write path.
    RecoveryReplayed {
        /// The snapshot epoch recovery started from.
        epoch: u64,
        /// Complete, checksum-valid records found in the WAL.
        records: usize,
        /// Ops replayed.
        replayed: usize,
        /// Bytes of crash-torn final record truncated.
        torn_bytes: usize,
    },
    /// A consistent tableau epoch was published for readers: the serving
    /// hub cut a snapshot spanning every block, so read views opened from
    /// now on answer against this epoch without blocking writers.
    EpochPublished {
        /// The published epoch number (monotone per hub).
        epoch: u64,
        /// Tuples in the published state.
        tuples: usize,
        /// The epoch's consistency verdict.
        consistent: bool,
    },
    /// A group-commit leader flushed the coalesced WAL records of
    /// concurrent writers as one framed batch with a single fsync.
    GroupCommitted {
        /// Records in the batch (1 when no writer overlapped).
        ops: usize,
        /// Framed bytes written.
        bytes: usize,
    },
    /// A framed op group went through the batch write path as one unit:
    /// one dirty-row seeding per involved block, one WAL batch, one
    /// fsync. The per-op `insert_applied`/`delete_applied` events are
    /// *not* emitted for the group's ops — this single aggregate stands
    /// for all of them.
    BatchApplied {
        /// Ops in the group.
        ops: usize,
        /// Ops whose verdict was positive (insert accepted / tuple
        /// removed).
        applied: usize,
        /// Distinct blocks the group touched.
        blocks: usize,
    },
    /// One write op's trip through the serving pipeline, broken into
    /// per-phase durations (microseconds attributed to each phase; 0
    /// for phases the op did not reach). The only event carrying wall
    /// time — emitted solely from serve-mode timed paths, never from
    /// the deterministic engine paths the golden-trace suite pins.
    OpTimeline {
        /// The op verb (`insert` / `delete`).
        verb: Arc<str>,
        /// The op's sequence number in its session.
        op: u64,
        /// End-to-end pipeline time.
        total_us: u64,
        /// Time queued before a writer lane picked the op up.
        enqueue_us: u64,
        /// Time to acquire the block lock.
        lane_acquire_us: u64,
        /// Time to render and queue the WAL record.
        wal_append_us: u64,
        /// Time waiting on the group-commit batch.
        batch_wait_us: u64,
        /// Time to make the batch durable.
        fsync_us: u64,
        /// Time in the chase + state mutation.
        apply_us: u64,
        /// Time to hand the op off for reader visibility.
        publish_us: u64,
    },
}

impl TraceEvent {
    /// The snake-case discriminator used by both renderings.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ChaseStarted { .. } => "chase_started",
            TraceEvent::FdRuleFired { .. } => "fd_rule_fired",
            TraceEvent::RowsDirtied { .. } => "rows_dirtied",
            TraceEvent::BlockEvaluated { .. } => "block_evaluated",
            TraceEvent::BudgetTrip { .. } => "budget_trip",
            TraceEvent::StateRejected { .. } => "state_rejected",
            TraceEvent::SessionBuilt { .. } => "session_built",
            TraceEvent::InsertApplied { .. } => "insert_applied",
            TraceEvent::DeleteApplied { .. } => "delete_applied",
            TraceEvent::QueryAnswered { .. } => "query_answered",
            TraceEvent::RecognitionDone { .. } => "recognition_done",
            TraceEvent::KepComputed { .. } => "kep_computed",
            TraceEvent::SelectionPerformed { .. } => "selection_performed",
            TraceEvent::WalAppended { .. } => "wal_appended",
            TraceEvent::SnapshotWritten { .. } => "snapshot_written",
            TraceEvent::CompactionSkipped { .. } => "compaction_skipped",
            TraceEvent::SyncOpsShipped { .. } => "sync_ops_shipped",
            TraceEvent::SyncRoundCompleted { .. } => "sync_round_completed",
            TraceEvent::SyncReplicaCrashed { .. } => "sync_replica_crashed",
            TraceEvent::SyncConverged { .. } => "sync_converged",
            TraceEvent::RecoveryReplayed { .. } => "recovery_replayed",
            TraceEvent::EpochPublished { .. } => "epoch_published",
            TraceEvent::GroupCommitted { .. } => "group_committed",
            TraceEvent::BatchApplied { .. } => "batch_applied",
            TraceEvent::OpTimeline { .. } => "op_timeline",
        }
    }

    /// One `kind key=value ...` line for `--trace=text`.
    pub fn render_text(&self) -> String {
        match self {
            TraceEvent::ChaseStarted { scope, rows, fds } => {
                format!("chase_started scope={scope} rows={rows} fds={fds}")
            }
            TraceEvent::FdRuleFired {
                fd,
                column,
                rows,
                dirtied,
            } => format!(
                "fd_rule_fired fd={fd} column={column} rows=({},{}) dirtied={dirtied}",
                rows.0, rows.1
            ),
            TraceEvent::RowsDirtied { scope, count } => {
                format!("rows_dirtied scope={scope} count={count}")
            }
            TraceEvent::BlockEvaluated {
                block,
                consistent,
                passes,
                rule_applications,
            } => format!(
                "block_evaluated block={block} consistent={consistent} passes={passes} rule_applications={rule_applications}"
            ),
            TraceEvent::BudgetTrip { detail } => format!("budget_trip detail={detail:?}"),
            TraceEvent::StateRejected {
                violating_fd,
                column,
                witness_rows,
            } => format!(
                "state_rejected violating_fd={violating_fd} column={column} witness_rows=({},{})",
                witness_rows.0, witness_rows.1
            ),
            TraceEvent::SessionBuilt { blocks, consistent } => {
                format!("session_built blocks={blocks} consistent={consistent}")
            }
            TraceEvent::InsertApplied { relation, accepted } => {
                format!("insert_applied relation={relation} accepted={accepted}")
            }
            TraceEvent::DeleteApplied { relation, removed } => {
                format!("delete_applied relation={relation} removed={removed}")
            }
            TraceEvent::QueryAnswered {
                attrs,
                method,
                tuples,
            } => format!("query_answered attrs={attrs} method={method} tuples={tuples}"),
            TraceEvent::RecognitionDone { accepted, blocks } => {
                format!("recognition_done accepted={accepted} blocks={blocks}")
            }
            TraceEvent::KepComputed { blocks, largest } => {
                format!("kep_computed blocks={blocks} largest={largest}")
            }
            TraceEvent::SelectionPerformed { relation, found } => {
                format!("selection_performed relation={relation} found={found}")
            }
            TraceEvent::WalAppended { verb, bytes } => {
                format!("wal_appended verb={verb} bytes={bytes}")
            }
            TraceEvent::SnapshotWritten { epoch, tuples } => {
                format!("snapshot_written epoch={epoch} tuples={tuples}")
            }
            TraceEvent::CompactionSkipped { path, error } => {
                format!("compaction_skipped path={path} error={error:?}")
            }
            TraceEvent::SyncOpsShipped {
                src,
                dst,
                origin,
                from,
                count,
            } => format!(
                "sync_ops_shipped src={src} dst={dst} origin={origin} from={from} count={count}"
            ),
            TraceEvent::SyncRoundCompleted {
                round,
                messages,
                in_sync,
            } => format!("sync_round_completed round={round} messages={messages} in_sync={in_sync}"),
            TraceEvent::SyncReplicaCrashed { replica, step } => {
                format!("sync_replica_crashed replica={replica} step={step}")
            }
            TraceEvent::SyncConverged { rounds, ops_shipped } => {
                format!("sync_converged rounds={rounds} ops_shipped={ops_shipped}")
            }
            TraceEvent::RecoveryReplayed {
                epoch,
                records,
                replayed,
                torn_bytes,
            } => format!(
                "recovery_replayed epoch={epoch} records={records} replayed={replayed} torn_bytes={torn_bytes}"
            ),
            TraceEvent::EpochPublished {
                epoch,
                tuples,
                consistent,
            } => format!("epoch_published epoch={epoch} tuples={tuples} consistent={consistent}"),
            TraceEvent::GroupCommitted { ops, bytes } => {
                format!("group_committed ops={ops} bytes={bytes}")
            }
            TraceEvent::BatchApplied {
                ops,
                applied,
                blocks,
            } => format!("batch_applied ops={ops} applied={applied} blocks={blocks}"),
            TraceEvent::OpTimeline {
                verb,
                op,
                total_us,
                enqueue_us,
                lane_acquire_us,
                wal_append_us,
                batch_wait_us,
                fsync_us,
                apply_us,
                publish_us,
            } => format!(
                "op_timeline verb={verb} op={op} total_us={total_us} enqueue_us={enqueue_us} lane_acquire_us={lane_acquire_us} wal_append_us={wal_append_us} batch_wait_us={batch_wait_us} fsync_us={fsync_us} apply_us={apply_us} publish_us={publish_us}"
            ),
        }
    }

    /// One single-line JSON object with a `"type"` discriminator.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("type").string(self.kind());
        match self {
            TraceEvent::ChaseStarted { scope, rows, fds } => {
                w.key("scope")
                    .string(scope)
                    .key("rows")
                    .u64(*rows as u64)
                    .key("fds")
                    .u64(*fds as u64);
            }
            TraceEvent::FdRuleFired {
                fd,
                column,
                rows,
                dirtied,
            } => {
                w.key("fd").string(fd).key("column").string(column);
                w.key("rows")
                    .begin_array()
                    .u64(rows.0 as u64)
                    .u64(rows.1 as u64)
                    .end_array();
                w.key("dirtied").u64(*dirtied as u64);
            }
            TraceEvent::RowsDirtied { scope, count } => {
                w.key("scope")
                    .string(scope)
                    .key("count")
                    .u64(*count as u64);
            }
            TraceEvent::BlockEvaluated {
                block,
                consistent,
                passes,
                rule_applications,
            } => {
                w.key("block")
                    .u64(*block as u64)
                    .key("consistent")
                    .bool(*consistent)
                    .key("passes")
                    .u64(*passes as u64)
                    .key("rule_applications")
                    .u64(*rule_applications as u64);
            }
            TraceEvent::BudgetTrip { detail } => {
                w.key("detail").string(detail);
            }
            TraceEvent::StateRejected {
                violating_fd,
                column,
                witness_rows,
            } => {
                w.key("violating_fd")
                    .string(violating_fd)
                    .key("column")
                    .string(column);
                w.key("witness_rows")
                    .begin_array()
                    .u64(witness_rows.0 as u64)
                    .u64(witness_rows.1 as u64)
                    .end_array();
            }
            TraceEvent::SessionBuilt { blocks, consistent } => {
                w.key("blocks")
                    .u64(*blocks as u64)
                    .key("consistent")
                    .bool(*consistent);
            }
            TraceEvent::InsertApplied { relation, accepted } => {
                w.key("relation")
                    .string(relation)
                    .key("accepted")
                    .bool(*accepted);
            }
            TraceEvent::DeleteApplied { relation, removed } => {
                w.key("relation")
                    .string(relation)
                    .key("removed")
                    .bool(*removed);
            }
            TraceEvent::QueryAnswered {
                attrs,
                method,
                tuples,
            } => {
                w.key("attrs")
                    .string(attrs)
                    .key("method")
                    .string(method)
                    .key("tuples")
                    .u64(*tuples as u64);
            }
            TraceEvent::RecognitionDone { accepted, blocks } => {
                w.key("accepted")
                    .bool(*accepted)
                    .key("blocks")
                    .u64(*blocks as u64);
            }
            TraceEvent::KepComputed { blocks, largest } => {
                w.key("blocks")
                    .u64(*blocks as u64)
                    .key("largest")
                    .u64(*largest as u64);
            }
            TraceEvent::SelectionPerformed { relation, found } => {
                w.key("relation")
                    .string(relation)
                    .key("found")
                    .bool(*found);
            }
            TraceEvent::WalAppended { verb, bytes } => {
                w.key("verb").string(verb).key("bytes").u64(*bytes as u64);
            }
            TraceEvent::SnapshotWritten { epoch, tuples } => {
                w.key("epoch").u64(*epoch).key("tuples").u64(*tuples as u64);
            }
            TraceEvent::CompactionSkipped { path, error } => {
                w.key("path").string(path).key("error").string(error);
            }
            TraceEvent::SyncOpsShipped {
                src,
                dst,
                origin,
                from,
                count,
            } => {
                w.key("src")
                    .u64(*src as u64)
                    .key("dst")
                    .u64(*dst as u64)
                    .key("origin")
                    .u64(*origin as u64)
                    .key("from")
                    .u64(*from)
                    .key("count")
                    .u64(*count as u64);
            }
            TraceEvent::SyncRoundCompleted {
                round,
                messages,
                in_sync,
            } => {
                w.key("round")
                    .u64(*round as u64)
                    .key("messages")
                    .u64(*messages as u64)
                    .key("in_sync")
                    .bool(*in_sync);
            }
            TraceEvent::SyncReplicaCrashed { replica, step } => {
                w.key("replica").u64(*replica as u64).key("step").string(step);
            }
            TraceEvent::SyncConverged { rounds, ops_shipped } => {
                w.key("rounds")
                    .u64(*rounds as u64)
                    .key("ops_shipped")
                    .u64(*ops_shipped as u64);
            }
            TraceEvent::RecoveryReplayed {
                epoch,
                records,
                replayed,
                torn_bytes,
            } => {
                w.key("epoch")
                    .u64(*epoch)
                    .key("records")
                    .u64(*records as u64)
                    .key("replayed")
                    .u64(*replayed as u64)
                    .key("torn_bytes")
                    .u64(*torn_bytes as u64);
            }
            TraceEvent::EpochPublished {
                epoch,
                tuples,
                consistent,
            } => {
                w.key("epoch")
                    .u64(*epoch)
                    .key("tuples")
                    .u64(*tuples as u64)
                    .key("consistent")
                    .bool(*consistent);
            }
            TraceEvent::GroupCommitted { ops, bytes } => {
                w.key("ops").u64(*ops as u64).key("bytes").u64(*bytes as u64);
            }
            TraceEvent::BatchApplied {
                ops,
                applied,
                blocks,
            } => {
                w.key("ops")
                    .u64(*ops as u64)
                    .key("applied")
                    .u64(*applied as u64)
                    .key("blocks")
                    .u64(*blocks as u64);
            }
            TraceEvent::OpTimeline {
                verb,
                op,
                total_us,
                enqueue_us,
                lane_acquire_us,
                wal_append_us,
                batch_wait_us,
                fsync_us,
                apply_us,
                publish_us,
            } => {
                w.key("verb")
                    .string(verb)
                    .key("op")
                    .u64(*op)
                    .key("total_us")
                    .u64(*total_us)
                    .key("enqueue_us")
                    .u64(*enqueue_us)
                    .key("lane_acquire_us")
                    .u64(*lane_acquire_us)
                    .key("wal_append_us")
                    .u64(*wal_append_us)
                    .key("batch_wait_us")
                    .u64(*batch_wait_us)
                    .key("fsync_us")
                    .u64(*fsync_us)
                    .key("apply_us")
                    .u64(*apply_us)
                    .key("publish_us")
                    .u64(*publish_us);
            }
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_text_render_every_variant() {
        let label: Arc<str> = Arc::from("A→B");
        let events = [
            TraceEvent::ChaseStarted {
                scope: label.clone(),
                rows: 2,
                fds: 1,
            },
            TraceEvent::FdRuleFired {
                fd: label.clone(),
                column: label.clone(),
                rows: (0, 1),
                dirtied: 3,
            },
            TraceEvent::RowsDirtied {
                scope: label.clone(),
                count: 3,
            },
            TraceEvent::BlockEvaluated {
                block: 0,
                consistent: true,
                passes: 4,
                rule_applications: 2,
            },
            TraceEvent::BudgetTrip {
                detail: label.clone(),
            },
            TraceEvent::StateRejected {
                violating_fd: label.clone(),
                column: label.clone(),
                witness_rows: (1, 2),
            },
            TraceEvent::SessionBuilt {
                blocks: 2,
                consistent: false,
            },
            TraceEvent::InsertApplied {
                relation: label.clone(),
                accepted: true,
            },
            TraceEvent::DeleteApplied {
                relation: label.clone(),
                removed: false,
            },
            TraceEvent::QueryAnswered {
                attrs: label.clone(),
                method: label.clone(),
                tuples: 9,
            },
            TraceEvent::RecognitionDone {
                accepted: true,
                blocks: 2,
            },
            TraceEvent::KepComputed {
                blocks: 3,
                largest: 4,
            },
            TraceEvent::SelectionPerformed {
                relation: label.clone(),
                found: true,
            },
            TraceEvent::WalAppended {
                verb: label.clone(),
                bytes: 26,
            },
            TraceEvent::SnapshotWritten {
                epoch: 3,
                tuples: 12,
            },
            TraceEvent::CompactionSkipped {
                path: label.clone(),
                error: label.clone(),
            },
            TraceEvent::SyncOpsShipped {
                src: 0,
                dst: 1,
                origin: 0,
                from: 4,
                count: 2,
            },
            TraceEvent::SyncRoundCompleted {
                round: 5,
                messages: 3,
                in_sync: false,
            },
            TraceEvent::SyncReplicaCrashed {
                replica: 1,
                step: label.clone(),
            },
            TraceEvent::SyncConverged {
                rounds: 9,
                ops_shipped: 14,
            },
            TraceEvent::RecoveryReplayed {
                epoch: 3,
                records: 7,
                replayed: 7,
                torn_bytes: 11,
            },
            TraceEvent::EpochPublished {
                epoch: 4,
                tuples: 20,
                consistent: true,
            },
            TraceEvent::GroupCommitted { ops: 3, bytes: 96 },
            TraceEvent::BatchApplied {
                ops: 6,
                applied: 5,
                blocks: 2,
            },
            TraceEvent::OpTimeline {
                verb: Arc::from("insert"),
                op: 12,
                total_us: 480,
                enqueue_us: 30,
                lane_acquire_us: 5,
                wal_append_us: 40,
                batch_wait_us: 180,
                fsync_us: 150,
                apply_us: 60,
                publish_us: 15,
            },
        ];
        for e in &events {
            let json = e.to_json();
            assert!(json.starts_with(&format!("{{\"type\":\"{}\"", e.kind())), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert!(e.render_text().starts_with(e.kind()));
        }
    }

    #[test]
    fn fd_rule_fired_json_shape() {
        let e = TraceEvent::FdRuleFired {
            fd: Arc::from("HR→C"),
            column: Arc::from("C"),
            rows: (0, 1),
            dirtied: 2,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"fd_rule_fired","fd":"HR→C","column":"C","rows":[0,1],"dirtied":2}"#
        );
    }
}
