//! `idr-sync` — WAL-shipping replication with digest-based
//! anti-entropy for the independence-reducible engine.
//!
//! The paper's maintenance algorithms (Theorems 4.1/4.2 of Chan &
//! Hernández 1988) reduce updates to a stream of small, individually
//! checkable ops; `idr-store` makes that stream durable; this crate
//! makes it **replicated**. A replica group converges by shipping op
//! ranges, not states:
//!
//! * every replica is the single writer of its own append-only
//!   [`journal::Journal`] of op lines (the WAL payload format);
//! * replicas summarise journals as chained digest vectors
//!   ([`digest::JournalDigest`]: per-origin length + rolling chained
//!   CRC32) and classify a peer per origin as
//!   in-sync/ahead/behind/diverged ([`digest::DigestStatus`]);
//! * reconciliation ships missing ranges in the store's WAL record
//!   framing ([`proto`]), so a transfer cut at any byte boundary —
//!   a crash mid-sync — degrades to a shorter valid range;
//! * shipped ops are replayed through the normal guarded
//!   [`WriteHandle`](idr_core::WriteHandle) path in a **canonical total
//!   order** (`(seq, origin)`), re-earning every verdict
//!   ([`replica::Replica`]); converged replicas are byte-identical in
//!   rendered state, consistency verdict, and query answers.
//!
//! A [`Scenario`] (with a replayable text format, [`scenario`]) drives
//! N replicas through a scripted fault plan ([`fault::FaultPlan`]:
//! drop, delay/reorder, duplication, partition with heal, crash at any
//! protocol step) deterministically from one seed. [`Scenario::run`] is
//! the one way to run it: one round loop ([`sim`]) whose messages move
//! by one of two transports — the in-process simulator's message queue
//! (the model) or real loopback sockets between replicas with journal
//! files ([`net`], the implementation under test). The convergence
//! oracle (`idr fuzz --sync [--wire]`) asserts replicas under random
//! faults converge to a never-partitioned baseline.
//!
//! Replication sits *outside* the paper's results: the paper
//! guarantees cheap local maintenance; this layer only transports the
//! resulting op streams. Nothing here touches the chase or the
//! recognition algorithms.

#![warn(missing_docs)]

pub mod digest;
pub mod fault;
pub mod journal;
pub mod net;
pub mod proto;
pub mod replica;
pub mod scenario;
pub mod sim;

pub use digest::{DigestStatus, JournalDigest, OriginDigest};
pub use fault::{CrashPoint, CrashStep, FaultPlan, Partition, SyncPolicy};
pub use journal::{AttachError, Journal};
pub use net::{
    connect, connect_with_retry, handshake, initiate_exchange, respond_exchange, scheme_digest,
    ExchangeFaults, ExchangeOutcome, FramedConn, Hello, WireError, WireMsg, MAX_WIRE_FRAME,
    WIRE_VERSION,
};
pub use proto::Message;
pub use replica::Replica;
pub use scenario::{parse_scenario, render_scenario, Scenario, Transport};
pub use sim::{ScriptedOp, SyncReport};
