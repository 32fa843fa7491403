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
//! Both are loops over one per-variant list of `(name, value)` fields,
//! so a variant's shape is written once. Neither rendering includes
//! clocks, addresses or other run-dependent data, so traces are
//! byte-stable across runs.

use std::fmt::Write as _;
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

/// One field value of a [`TraceEvent`], as both renderings see it.
#[derive(Clone, Copy, Debug)]
enum Field<'a> {
    /// A pre-rendered label, bare in text (`relation=R1`).
    Label(&'a str),
    /// Free text (a rendered trip or OS error), quoted with `{:?}` in
    /// text.
    Text(&'a str),
    /// A count, index, epoch or duration.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// Two row indexes: `(a,b)` in text, `[a,b]` in JSON.
    Pair(u32, u32),
}

/// A `usize` count as a field value.
fn n(v: usize) -> Field<'static> {
    Field::U64(v as u64)
}

impl TraceEvent {
    /// The event's kind and its `(name, value)` fields in rendering
    /// order: the one place each variant's shape is written down.
    fn describe(&self) -> (&'static str, Vec<(&'static str, Field<'_>)>) {
        use Field::{Bool, Label, Pair, Text, U64};
        match self {
            TraceEvent::ChaseStarted { scope, rows, fds } => (
                "chase_started",
                vec![
                    ("scope", Label(scope)),
                    ("rows", n(*rows)),
                    ("fds", n(*fds)),
                ],
            ),
            TraceEvent::FdRuleFired {
                fd,
                column,
                rows,
                dirtied,
            } => (
                "fd_rule_fired",
                vec![
                    ("fd", Label(fd)),
                    ("column", Label(column)),
                    ("rows", Pair(rows.0, rows.1)),
                    ("dirtied", n(*dirtied)),
                ],
            ),
            TraceEvent::RowsDirtied { scope, count } => (
                "rows_dirtied",
                vec![("scope", Label(scope)), ("count", n(*count))],
            ),
            TraceEvent::BlockEvaluated {
                block,
                consistent,
                passes,
                rule_applications,
            } => (
                "block_evaluated",
                vec![
                    ("block", n(*block)),
                    ("consistent", Bool(*consistent)),
                    ("passes", n(*passes)),
                    ("rule_applications", n(*rule_applications)),
                ],
            ),
            TraceEvent::BudgetTrip { detail } => ("budget_trip", vec![("detail", Text(detail))]),
            TraceEvent::StateRejected {
                violating_fd,
                column,
                witness_rows,
            } => (
                "state_rejected",
                vec![
                    ("violating_fd", Label(violating_fd)),
                    ("column", Label(column)),
                    ("witness_rows", Pair(witness_rows.0, witness_rows.1)),
                ],
            ),
            TraceEvent::SessionBuilt { blocks, consistent } => (
                "session_built",
                vec![("blocks", n(*blocks)), ("consistent", Bool(*consistent))],
            ),
            TraceEvent::InsertApplied { relation, accepted } => (
                "insert_applied",
                vec![("relation", Label(relation)), ("accepted", Bool(*accepted))],
            ),
            TraceEvent::DeleteApplied { relation, removed } => (
                "delete_applied",
                vec![("relation", Label(relation)), ("removed", Bool(*removed))],
            ),
            TraceEvent::QueryAnswered {
                attrs,
                method,
                tuples,
            } => (
                "query_answered",
                vec![
                    ("attrs", Label(attrs)),
                    ("method", Label(method)),
                    ("tuples", n(*tuples)),
                ],
            ),
            TraceEvent::RecognitionDone { accepted, blocks } => (
                "recognition_done",
                vec![("accepted", Bool(*accepted)), ("blocks", n(*blocks))],
            ),
            TraceEvent::KepComputed { blocks, largest } => (
                "kep_computed",
                vec![("blocks", n(*blocks)), ("largest", n(*largest))],
            ),
            TraceEvent::SelectionPerformed { relation, found } => (
                "selection_performed",
                vec![("relation", Label(relation)), ("found", Bool(*found))],
            ),
            TraceEvent::WalAppended { verb, bytes } => (
                "wal_appended",
                vec![("verb", Label(verb)), ("bytes", n(*bytes))],
            ),
            TraceEvent::SnapshotWritten { epoch, tuples } => (
                "snapshot_written",
                vec![("epoch", U64(*epoch)), ("tuples", n(*tuples))],
            ),
            TraceEvent::CompactionSkipped { path, error } => (
                "compaction_skipped",
                vec![("path", Label(path)), ("error", Text(error))],
            ),
            TraceEvent::SyncOpsShipped {
                src,
                dst,
                origin,
                from,
                count,
            } => (
                "sync_ops_shipped",
                vec![
                    ("src", n(*src)),
                    ("dst", n(*dst)),
                    ("origin", n(*origin)),
                    ("from", U64(*from)),
                    ("count", n(*count)),
                ],
            ),
            TraceEvent::SyncRoundCompleted {
                round,
                messages,
                in_sync,
            } => (
                "sync_round_completed",
                vec![
                    ("round", n(*round)),
                    ("messages", n(*messages)),
                    ("in_sync", Bool(*in_sync)),
                ],
            ),
            TraceEvent::SyncReplicaCrashed { replica, step } => (
                "sync_replica_crashed",
                vec![("replica", n(*replica)), ("step", Label(step))],
            ),
            TraceEvent::SyncConverged {
                rounds,
                ops_shipped,
            } => (
                "sync_converged",
                vec![("rounds", n(*rounds)), ("ops_shipped", n(*ops_shipped))],
            ),
            TraceEvent::RecoveryReplayed {
                epoch,
                records,
                replayed,
                torn_bytes,
            } => (
                "recovery_replayed",
                vec![
                    ("epoch", U64(*epoch)),
                    ("records", n(*records)),
                    ("replayed", n(*replayed)),
                    ("torn_bytes", n(*torn_bytes)),
                ],
            ),
            TraceEvent::EpochPublished {
                epoch,
                tuples,
                consistent,
            } => (
                "epoch_published",
                vec![
                    ("epoch", U64(*epoch)),
                    ("tuples", n(*tuples)),
                    ("consistent", Bool(*consistent)),
                ],
            ),
            TraceEvent::GroupCommitted { ops, bytes } => (
                "group_committed",
                vec![("ops", n(*ops)), ("bytes", n(*bytes))],
            ),
            TraceEvent::BatchApplied {
                ops,
                applied,
                blocks,
            } => (
                "batch_applied",
                vec![
                    ("ops", n(*ops)),
                    ("applied", n(*applied)),
                    ("blocks", n(*blocks)),
                ],
            ),
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
            } => (
                "op_timeline",
                vec![
                    ("verb", Label(verb)),
                    ("op", U64(*op)),
                    ("total_us", U64(*total_us)),
                    ("enqueue_us", U64(*enqueue_us)),
                    ("lane_acquire_us", U64(*lane_acquire_us)),
                    ("wal_append_us", U64(*wal_append_us)),
                    ("batch_wait_us", U64(*batch_wait_us)),
                    ("fsync_us", U64(*fsync_us)),
                    ("apply_us", U64(*apply_us)),
                    ("publish_us", U64(*publish_us)),
                ],
            ),
        }
    }

    /// The snake-case discriminator used by both renderings.
    pub fn kind(&self) -> &'static str {
        self.describe().0
    }

    /// One `kind key=value ...` line for `--trace=text`.
    pub fn render_text(&self) -> String {
        let (kind, fields) = self.describe();
        let mut out = String::from(kind);
        for (name, value) in fields {
            let _ = match value {
                Field::Label(s) => write!(out, " {name}={s}"),
                Field::Text(s) => write!(out, " {name}={s:?}"),
                Field::U64(v) => write!(out, " {name}={v}"),
                Field::Bool(b) => write!(out, " {name}={b}"),
                Field::Pair(a, b) => write!(out, " {name}=({a},{b})"),
            };
        }
        out
    }

    /// One single-line JSON object with a `"type"` discriminator.
    pub fn to_json(&self) -> String {
        let (kind, fields) = self.describe();
        let mut w = JsonWriter::new();
        w.begin_object().key("type").string(kind);
        for (name, value) in fields {
            w.key(name);
            match value {
                Field::Label(s) | Field::Text(s) => w.string(s),
                Field::U64(v) => w.u64(v),
                Field::Bool(b) => w.bool(b),
                Field::Pair(a, b) => w.begin_array().u64(a.into()).u64(b.into()).end_array(),
            };
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact `--trace=text` and `--trace=json` lines of each event
    /// of [`every_variant`], in order.
    const GOLDEN: [(&str, &str); 27] = [
        (
            r#"chase_started scope=A→B rows=2 fds=1"#,
            r#"{"type":"chase_started","scope":"A→B","rows":2,"fds":1}"#,
        ),
        (
            r#"fd_rule_fired fd=A→B column=A→B rows=(0,1) dirtied=3"#,
            r#"{"type":"fd_rule_fired","fd":"A→B","column":"A→B","rows":[0,1],"dirtied":3}"#,
        ),
        (
            r#"rows_dirtied scope=A→B count=3"#,
            r#"{"type":"rows_dirtied","scope":"A→B","count":3}"#,
        ),
        (
            r#"block_evaluated block=0 consistent=true passes=4 rule_applications=2"#,
            r#"{"type":"block_evaluated","block":0,"consistent":true,"passes":4,"rule_applications":2}"#,
        ),
        (
            r#"budget_trip detail="A→B""#,
            r#"{"type":"budget_trip","detail":"A→B"}"#,
        ),
        (
            r#"state_rejected violating_fd=A→B column=A→B witness_rows=(1,2)"#,
            r#"{"type":"state_rejected","violating_fd":"A→B","column":"A→B","witness_rows":[1,2]}"#,
        ),
        (
            r#"session_built blocks=2 consistent=false"#,
            r#"{"type":"session_built","blocks":2,"consistent":false}"#,
        ),
        (
            r#"insert_applied relation=A→B accepted=true"#,
            r#"{"type":"insert_applied","relation":"A→B","accepted":true}"#,
        ),
        (
            r#"delete_applied relation=A→B removed=false"#,
            r#"{"type":"delete_applied","relation":"A→B","removed":false}"#,
        ),
        (
            r#"query_answered attrs=A→B method=A→B tuples=9"#,
            r#"{"type":"query_answered","attrs":"A→B","method":"A→B","tuples":9}"#,
        ),
        (
            r#"recognition_done accepted=true blocks=2"#,
            r#"{"type":"recognition_done","accepted":true,"blocks":2}"#,
        ),
        (
            r#"kep_computed blocks=3 largest=4"#,
            r#"{"type":"kep_computed","blocks":3,"largest":4}"#,
        ),
        (
            r#"selection_performed relation=A→B found=true"#,
            r#"{"type":"selection_performed","relation":"A→B","found":true}"#,
        ),
        (
            r#"wal_appended verb=A→B bytes=26"#,
            r#"{"type":"wal_appended","verb":"A→B","bytes":26}"#,
        ),
        (
            r#"snapshot_written epoch=3 tuples=12"#,
            r#"{"type":"snapshot_written","epoch":3,"tuples":12}"#,
        ),
        (
            r#"compaction_skipped path=A→B error="A→B""#,
            r#"{"type":"compaction_skipped","path":"A→B","error":"A→B"}"#,
        ),
        (
            r#"sync_ops_shipped src=0 dst=1 origin=0 from=4 count=2"#,
            r#"{"type":"sync_ops_shipped","src":0,"dst":1,"origin":0,"from":4,"count":2}"#,
        ),
        (
            r#"sync_round_completed round=5 messages=3 in_sync=false"#,
            r#"{"type":"sync_round_completed","round":5,"messages":3,"in_sync":false}"#,
        ),
        (
            r#"sync_replica_crashed replica=1 step=A→B"#,
            r#"{"type":"sync_replica_crashed","replica":1,"step":"A→B"}"#,
        ),
        (
            r#"sync_converged rounds=9 ops_shipped=14"#,
            r#"{"type":"sync_converged","rounds":9,"ops_shipped":14}"#,
        ),
        (
            r#"recovery_replayed epoch=3 records=7 replayed=7 torn_bytes=11"#,
            r#"{"type":"recovery_replayed","epoch":3,"records":7,"replayed":7,"torn_bytes":11}"#,
        ),
        (
            r#"epoch_published epoch=4 tuples=20 consistent=true"#,
            r#"{"type":"epoch_published","epoch":4,"tuples":20,"consistent":true}"#,
        ),
        (
            r#"group_committed ops=3 bytes=96"#,
            r#"{"type":"group_committed","ops":3,"bytes":96}"#,
        ),
        (
            r#"batch_applied ops=6 applied=5 blocks=2"#,
            r#"{"type":"batch_applied","ops":6,"applied":5,"blocks":2}"#,
        ),
        (
            r#"op_timeline verb=insert op=12 total_us=480 enqueue_us=30 lane_acquire_us=5 wal_append_us=40 batch_wait_us=180 fsync_us=150 apply_us=60 publish_us=15"#,
            r#"{"type":"op_timeline","verb":"insert","op":12,"total_us":480,"enqueue_us":30,"lane_acquire_us":5,"wal_append_us":40,"batch_wait_us":180,"fsync_us":150,"apply_us":60,"publish_us":15}"#,
        ),
        (
            r#"budget_trip detail="lookups: spent 3 > limit \"2\"\n""#,
            r#"{"type":"budget_trip","detail":"lookups: spent 3 > limit \"2\"\n"}"#,
        ),
        (
            r#"compaction_skipped path=d/wal-0.log error="No such file\t(os error 2)""#,
            r#"{"type":"compaction_skipped","path":"d/wal-0.log","error":"No such file\t(os error 2)"}"#,
        ),
    ];

    /// One event of every variant (free-text fields twice: plain and
    /// with characters that need escaping).
    fn every_variant() -> Vec<TraceEvent> {
        let label: Arc<str> = Arc::from("A→B");
        vec![
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
            // Free text is quoted and escaped in both renderings.
            TraceEvent::BudgetTrip {
                detail: Arc::from("lookups: spent 3 > limit \"2\"\n"),
            },
            TraceEvent::CompactionSkipped {
                path: Arc::from("d/wal-0.log"),
                error: Arc::from("No such file\t(os error 2)"),
            },
        ]
    }

    #[test]
    fn json_and_text_render_every_variant() {
        let events = every_variant();
        assert_eq!(events.len(), GOLDEN.len());
        for (e, (text, json)) in events.iter().zip(GOLDEN) {
            assert_eq!(e.render_text(), text);
            assert_eq!(e.to_json(), json);
            assert!(
                json.starts_with(&format!("{{\"type\":\"{}\"", e.kind())),
                "{json}"
            );
            assert!(json.ends_with('}'), "{json}");
            assert!(e.render_text().starts_with(e.kind()));
        }
    }

    /// Every variant's JSON keys and value types, in order, equal its
    /// line in `scripts/obs-schema.json` (one event per line there), and
    /// the schema lists no event the taxonomy lacks.
    #[test]
    fn every_variant_matches_the_checked_in_schema() {
        let schema = include_str!("../../../scripts/obs-schema.json");
        let events = schema
            .split("\"events\": {")
            .nth(1)
            .and_then(|rest| rest.split("\n  }").next())
            .expect("schema has an events section");
        let mut kinds = Vec::new();
        for e in every_variant() {
            let (kind, fields) = e.describe();
            kinds.push(kind);
            let prefix = format!("\"{kind}\": {{");
            let line = events
                .lines()
                .map(str::trim)
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{kind} is missing from obs-schema.json"));
            let body = line[prefix.len()..]
                .trim_end_matches(',')
                .trim_end_matches('}');
            let want: Vec<String> = body.split(", ").map(str::to_string).collect();
            let got: Vec<String> = fields
                .iter()
                .map(|(name, value)| {
                    let ty = match value {
                        Field::Label(_) | Field::Text(_) => "string",
                        Field::U64(_) => "integer",
                        Field::Bool(_) => "boolean",
                        Field::Pair(..) => "array",
                    };
                    format!("\"{name}\": \"{ty}\"")
                })
                .collect();
            assert_eq!(got, want, "{kind}");
        }
        for line in events.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let kind = line.split('"').nth(1).unwrap_or_default();
            assert!(kinds.contains(&kind), "schema event {kind} has no variant");
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
