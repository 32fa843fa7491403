//! The durability hook the write pipeline calls once per write unit.
//!
//! The paper's maintenance theorems (4.1/4.2) reduce state evolution to a
//! sequence of small insert/delete steps, which is exactly the shape of a
//! write-ahead log. This module defines the *interface* the
//! [`Hub`](crate::Hub) write path calls; the implementation — an
//! append-only checksummed WAL with group commit, snapshots and crash
//! recovery — lives in `idr-store` (`idr_store::SharedStore`), keeping
//! this crate free of filesystem concerns.
//!
//! ## Contract: verdicts first, one log call, nothing to undo
//!
//! Every write — a per-op [`insert`](crate::WriteHandle::insert) or
//! [`delete`](crate::WriteHandle::delete) is a group of one — runs as one
//! unit under its blocks' write locks:
//!
//! 1. every op **earns its verdict** first (Theorem 4.2 makes a verdict
//!    a property of one block's chase), editing the block's substate in
//!    place;
//! 2. the whole unit is handed to [`DurabilitySink::log_ops`] in **one**
//!    call — accepted *and* rejected inserts, present *and* absent
//!    deletes; replaying them through the same path re-earns the same
//!    verdicts deterministically;
//! 3. a typed error anywhere before `log_ops` returns (a guard trip, a
//!    poisoned block, a storage failure) undoes the unit's substate
//!    edits and logs nothing.
//!
//! So a logged unit always applied and an unlogged one never did: log ==
//! memory holds with no abort records to write or filter.
//!
//! After every unit the hub calls [`DurabilitySink::op_finished`] with
//! the unit's op count; when the sink reports a snapshot due, the hub
//! quiesces every block and hands over a consistent cut
//! ([`DurabilitySink::write_snapshot`]).

use idr_relation::exec::ExecError;
use idr_relation::{DatabaseState, Tuple};

/// One loggable mutation, borrowed from the caller at the write-ahead
/// point (after its verdict is known, before the unit is acknowledged).
#[derive(Clone, Copy, Debug)]
pub enum DurableOp<'a> {
    /// An insert of `t` into relation `rel` — logged whether the insert
    /// was accepted or rejected; replay re-derives the verdict.
    Insert {
        /// Target relation index.
        rel: usize,
        /// The tuple being inserted.
        t: &'a Tuple,
    },
    /// A delete of `t` from relation `rel`, present or absent.
    Delete {
        /// Target relation index.
        rel: usize,
        /// The tuple being deleted.
        t: &'a Tuple,
    },
}

/// A write-ahead durability sink shared by concurrent writers: `&self`
/// methods, so many [`WriteHandle`](crate::WriteHandle)s can log at
/// once. Implementations serialise (or group-commit) internally;
/// `idr_store::SharedStore` is the canonical one.
///
/// Errors are surfaced as [`ExecError`] (storage failures map to
/// [`ExecError::Faulted`]). The write pipeline calls
/// [`log_ops`](DurabilitySink::log_ops) while holding every involved
/// block's write lock, so the log order of any one block equals its
/// apply order — which, per Theorem 4.2 block independence, makes a
/// serial replay of the whole log reproduce the concurrent final state.
pub trait DurabilitySink: std::fmt::Debug + Send + Sync {
    /// Appends (and makes durable) the records of one write unit, in
    /// order, as one durability unit. Called once per unit, *after*
    /// every op's verdict is known; on `Err` the hub undoes the unit, so
    /// a failed call must leave no record of it behind.
    ///
    /// `idr_store::SharedStore` rides the whole unit on one group-commit
    /// barrier — one write pass, one fsync.
    fn log_ops(&self, ops: &[DurableOp<'_>]) -> Result<(), ExecError>;

    /// Called after every logged unit with its op count. Returns `true`
    /// when the sink wants a snapshot — the caller then quiesces every
    /// block and calls [`write_snapshot`](DurabilitySink::write_snapshot)
    /// with the resulting consistent state.
    fn op_finished(&self, ops: usize) -> Result<bool, ExecError>;

    /// Cuts a snapshot of `state` and rotates the log. Only called with
    /// a quiesced, consistent cut (no in-flight `log_ops` anywhere).
    fn write_snapshot(&self, state: &DatabaseState) -> Result<(), ExecError>;
}
