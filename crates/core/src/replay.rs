//! Replaying logged op lines through a [`WriteHandle`] — the shared
//! entry point for crash recovery and replication.
//!
//! Both the durability layer (WAL replay after a crash) and the
//! replication layer (applying op ranges shipped from a peer replica)
//! re-execute the same canonical text records: one line per op in the
//! fixture syntax (`insert R1: A=a B=b`, `delete R2: C=c D=d`). The
//! invariant they share is that a replayed op **re-earns its verdict**
//! through the normal guarded write path — a rejected insert re-rejects
//! deterministically, a delete of an absent tuple reports absence —
//! instead of trusting whatever the log's producer concluded. This
//! module centralises that discipline so the two layers cannot drift:
//! [`WriteHandle::replay`] is the one replay loop both run.
//!
//! The loop applies each run of contiguous well-formed records as one
//! [`apply_batch`](WriteHandle::apply_batch) unit of at most
//! [`REPLAY_UNIT`] records. A unit of k records earns the same verdicts
//! as k units of one (the `idr fuzz --batch` arm pins this), so batching
//! changes the cost of a replay, not its outcome. Where batch and per-op
//! differ — an insert into a poisoned block fails a whole batch but is
//! re-rejected on its own, and a typed error must name its record — the
//! unit is replayed op by op instead.

use idr_relation::exec::{ExecError, Guard};
use idr_relation::parse::parse_tuple_line;
use idr_relation::SymbolTable;

use crate::serving::{BatchOp, WriteHandle};

/// The most records one replay unit applies. A fixed cap, so that a
/// long log replays as many bounded batches rather than one huge one.
pub const REPLAY_UNIT: usize = 1024;

/// What a replayed op did, mirroring the `Ok` shapes of
/// [`WriteHandle::insert`] / [`WriteHandle::delete`] plus the
/// re-rejection case recovery tolerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// An insert was accepted and applied.
    Accepted,
    /// An insert was rejected (either `Ok(false)` or an
    /// [`ExecError::Inconsistent`] from a block already poisoned by an
    /// earlier replayed op) — the deterministic re-run of what the op did
    /// originally.
    Rejected,
    /// A delete removed a present tuple.
    Removed,
    /// A delete found its tuple absent.
    Absent,
}

impl ReplayOutcome {
    /// Whether the op mutated the state.
    pub fn mutated(self) -> bool {
        matches!(self, ReplayOutcome::Accepted | ReplayOutcome::Removed)
    }
}

/// Why a replay stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The line is not a well-formed op record (unknown verb, bad tuple
    /// syntax, wrong relation arity). The log producer and consumer
    /// disagree on the format — nothing was applied.
    Malformed {
        /// The offending line.
        line: String,
        /// What failed to parse.
        detail: String,
    },
    /// The engine failed with a typed error that is not a consistency
    /// verdict (guard trip, fault). Nothing was applied or logged.
    Exec(ExecError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Malformed { line, detail } => {
                write!(f, "malformed op record {line:?}: {detail}")
            }
            ReplayError::Exec(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses `insert R1: A=a B=b` / `delete R1: A=a B=b` into a typed op,
/// interning values through `symbols` — the one format recovery and
/// replication replay.
fn parse_op_line(
    line: &str,
    db: &idr_relation::DatabaseScheme,
    symbols: &mut SymbolTable,
) -> Result<BatchOp, ReplayError> {
    let (verb, rest) = line.split_once(' ').ok_or_else(|| ReplayError::Malformed {
        line: line.to_string(),
        detail: "expected 'insert <tuple>' or 'delete <tuple>'".to_string(),
    })?;
    let (rel, t) = parse_tuple_line(rest, db, symbols).map_err(|detail| ReplayError::Malformed {
        line: line.to_string(),
        detail,
    })?;
    match verb {
        "insert" => Ok(BatchOp::Insert { rel, t }),
        "delete" => Ok(BatchOp::Delete { rel, t }),
        other => Err(ReplayError::Malformed {
            line: line.to_string(),
            detail: format!("unknown verb {other:?}"),
        }),
    }
}

/// Maps an insert result to its replay outcome (re-rejection included).
fn insert_outcome(r: Result<bool, ExecError>) -> Result<ReplayOutcome, ReplayError> {
    match r {
        Ok(true) => Ok(ReplayOutcome::Accepted),
        Ok(false) | Err(ExecError::Inconsistent { .. }) => Ok(ReplayOutcome::Rejected),
        Err(e) => Err(ReplayError::Exec(e)),
    }
}

/// Maps a delete result to its replay outcome.
fn delete_outcome(r: Result<bool, ExecError>) -> Result<ReplayOutcome, ReplayError> {
    match r {
        Ok(true) => Ok(ReplayOutcome::Removed),
        Ok(false) => Ok(ReplayOutcome::Absent),
        Err(e) => Err(ReplayError::Exec(e)),
    }
}

impl WriteHandle {
    /// Replays one logged op line (`insert R1: A=a B=b` /
    /// `delete R1: A=a B=b`) through the write pipeline, re-earning its
    /// verdict. Tuple values are interned through `symbols`, which must
    /// be the table the hub's state was built with.
    ///
    /// An insert into a block an earlier replayed op already poisoned
    /// reports [`ReplayOutcome::Rejected`] (the deterministic re-run of
    /// the original rejection); any other [`ExecError`] is surfaced as
    /// [`ReplayError::Exec`] with nothing applied.
    pub fn replay_op(
        &self,
        line: &str,
        symbols: &mut SymbolTable,
        guard: &Guard,
    ) -> Result<ReplayOutcome, ReplayError> {
        let op = parse_op_line(line, self.engine().scheme(), symbols)?;
        self.replay_one(op, guard)
    }

    /// Replays `lines` in order, re-earning every verdict, and hands
    /// `each` every line with what [`replay_op`](WriteHandle::replay_op)
    /// would have returned for it; an `Err` from `each` stops the replay
    /// and is returned.
    ///
    /// Contiguous well-formed lines are applied as one
    /// [`apply_batch`](WriteHandle::apply_batch) unit of at most
    /// [`REPLAY_UNIT`] records, and `each` sees their outcomes once the
    /// unit has applied. A malformed line ends the unit before it, so
    /// stopping on it leaves exactly the lines before it applied. A unit
    /// of one line is a plain per-op write. While any block is poisoned,
    /// and for a unit that fails with a typed error, the unit is
    /// replayed op by op: an insert into a poisoned block re-rejects, and
    /// a guard trip stops at the record it names.
    pub fn replay<'l, E>(
        &self,
        lines: impl IntoIterator<Item = &'l str>,
        symbols: &mut SymbolTable,
        guard: &Guard,
        mut each: impl FnMut(&'l str, Result<ReplayOutcome, ReplayError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let db = self.engine().scheme();
        let mut unit: Vec<&'l str> = Vec::new();
        let mut ops: Vec<BatchOp> = Vec::new();
        for line in lines {
            match parse_op_line(line, db, symbols) {
                Ok(op) => {
                    unit.push(line);
                    ops.push(op);
                    if ops.len() == REPLAY_UNIT {
                        self.replay_unit(&mut unit, &mut ops, guard, &mut each)?;
                    }
                }
                Err(e) => {
                    self.replay_unit(&mut unit, &mut ops, guard, &mut each)?;
                    each(line, Err(e))?;
                }
            }
        }
        self.replay_unit(&mut unit, &mut ops, guard, &mut each)
    }

    /// Applies one replay unit (see [`replay`](WriteHandle::replay)),
    /// reports each line's outcome to `each` and empties the unit.
    fn replay_unit<'l, E>(
        &self,
        unit: &mut Vec<&'l str>,
        ops: &mut Vec<BatchOp>,
        guard: &Guard,
        each: &mut impl FnMut(&'l str, Result<ReplayOutcome, ReplayError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let batched = match ops.len() {
            0 => return Ok(()),
            1 => None,
            _ if !self.is_consistent() => None,
            _ => self.apply_batch(ops, guard).ok(),
        };
        match batched {
            Some(verdicts) => {
                for ((line, op), accepted) in unit.drain(..).zip(ops.drain(..)).zip(verdicts) {
                    let outcome = match (op, accepted) {
                        (BatchOp::Insert { .. }, true) => ReplayOutcome::Accepted,
                        (BatchOp::Insert { .. }, false) => ReplayOutcome::Rejected,
                        (BatchOp::Delete { .. }, true) => ReplayOutcome::Removed,
                        (BatchOp::Delete { .. }, false) => ReplayOutcome::Absent,
                    };
                    each(line, Ok(outcome))?;
                }
            }
            None => {
                for (line, op) in unit.drain(..).zip(ops.drain(..)) {
                    each(line, self.replay_one(op, guard))?;
                }
            }
        }
        Ok(())
    }

    /// Applies one parsed op as a unit of one, mapping its result to a
    /// replay outcome.
    fn replay_one(&self, op: BatchOp, guard: &Guard) -> Result<ReplayOutcome, ReplayError> {
        match op {
            BatchOp::Insert { rel, t } => insert_outcome(self.insert(rel, t, guard)),
            BatchOp::Delete { rel, t } => delete_outcome(self.delete(rel, &t, guard)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use idr_relation::parse::parse_scheme;
    use idr_relation::DatabaseState;

    fn engine() -> Engine {
        let db = parse_scheme("universe: A B C\nscheme R1: A B keys A\nscheme R2: B C keys B\n")
            .unwrap();
        Engine::new(db)
    }

    #[test]
    fn replay_re_earns_each_verdict() {
        let engine = engine();
        let guard = Guard::unlimited();
        let mut symbols = SymbolTable::new();
        let hub = engine
            .hub(&DatabaseState::empty(engine.scheme()), &guard)
            .unwrap();
        let w = hub.write_handle();
        for (line, want) in [
            ("insert R1: A=a B=b", ReplayOutcome::Accepted),
            // A key-violating second tuple re-rejects.
            ("insert R1: A=a B=z", ReplayOutcome::Rejected),
            ("delete R1: A=a B=b", ReplayOutcome::Removed),
            ("delete R1: A=a B=b", ReplayOutcome::Absent),
        ] {
            assert_eq!(
                w.replay_op(line, &mut symbols, &guard).unwrap(),
                want,
                "{line}"
            );
        }
        assert_eq!(hub.read_view().state().total_tuples(), 0);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let engine = engine();
        let guard = Guard::unlimited();
        let mut symbols = SymbolTable::new();
        let hub = engine
            .hub(&DatabaseState::empty(engine.scheme()), &guard)
            .unwrap();
        let w = hub.write_handle();
        // `abort` is the record the old log-then-abort path wrote after a
        // rolled-back op; nothing writes it any more, so it is malformed.
        for bad in [
            "frobnicate",
            "abort",
            "upsert R1: A=a B=b",
            "insert R9: A=a",
        ] {
            let err = w.replay_op(bad, &mut symbols, &guard).unwrap_err();
            assert!(matches!(err, ReplayError::Malformed { .. }), "{bad}: {err}");
        }
        assert_eq!(hub.read_view().state().total_tuples(), 0);
    }
}
