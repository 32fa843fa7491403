//! `idr-store` — durable state for the independence-reducible engine.
//!
//! The paper reduces maintenance to a stream of small insert/delete
//! steps (Theorems 4.1/4.2); this crate makes that stream survive
//! process death. Three pieces, all dependency-free:
//!
//! * **WAL** ([`wal`]): an append-only log of write ops — one text
//!   line per record in the CLI's fixture syntax, framed as
//!   `[len][crc32][payload]` with a vendored [`crc32`](crc32::crc32).
//!   A write unit's records are fsynced before the unit is acknowledged
//!   (write-ahead), so the log never lags the state.
//! * **Snapshots** ([`snapshot`]): the full state in the state-file
//!   format, installed by `write temp + fsync + rename` and paired with
//!   an epoch-numbered WAL; rotation compacts old logs.
//! * **Recovery** ([`recover`](mod@recover)): loads the latest snapshot,
//!   truncates a crash-torn final WAL record (a checksum-mismatched
//!   *complete* record is instead a typed [`StoreError::Corrupt`]),
//!   and replays every record through the normal guarded
//!   [`WriteHandle`](idr_core::WriteHandle) path, in batches — the
//!   recovered state *re-earns* its consistency verdict rather than
//!   trusting the log. [`open`] and [`replay`] split it so that a server
//!   replays into the one hub it then serves from.
//!
//! [`SharedStore`] wraps a [`Store`] as the engine's owned
//! [`DurabilitySink`](idr_core::DurabilitySink): hand one to
//! [`Engine::hub_with`](idr_core::Engine::hub_with), or attach it to a
//! built hub with [`Hub::attach_sink`](idr_core::Hub::attach_sink), and
//! every write unit from every [`WriteHandle`](idr_core::WriteHandle) — a single
//! insert or delete, or a framed group — is logged in one call once its
//! verdicts are earned. A unit that fails before that call is undone in
//! memory and leaves no record, so the log holds exactly the applied
//! ops. Concurrent writers' appends are coalesced by [`GroupWal`] into
//! one framed batch and **one fsync** (group commit).
//!
//! # Examples
//!
//! Initialise a data dir, mutate durably through a hub, "crash" (drop
//! everything), recover, and observe the same state:
//!
//! ```
//! use std::sync::Arc;
//! use idr_core::Engine;
//! use idr_relation::exec::Guard;
//! use idr_relation::parse::{parse_scheme, parse_tuple_line};
//! use idr_store::{recover, SharedStore, Store};
//!
//! let db = parse_scheme(
//!     "universe: A B C D\n\
//!      scheme R1: A B keys A\n\
//!      scheme R2: C D keys C\n",
//! )
//! .unwrap();
//! let dir = idr_store::tempdir::TempDir::new("doc-example");
//!
//! let store = Arc::new(SharedStore::new(Store::init(dir.path(), &db).unwrap()));
//! let engine = Engine::new(db.clone());
//! let guard = Guard::unlimited();
//! {
//!     let symbols = store.symbols();
//!     let (rel, t) = parse_tuple_line(
//!         "R1: A=a B=b",
//!         &db,
//!         &mut symbols.lock().unwrap(),
//!     )
//!     .unwrap();
//!     let state = idr_relation::DatabaseState::empty(&db);
//!     let hub = engine.hub_with(&state, &guard, store.clone()).unwrap();
//!     assert!(hub.write_handle().insert(rel, t, &guard).unwrap());
//! }
//! drop(store); // simulate process death
//!
//! let recovered = recover::recover(dir.path()).unwrap();
//! assert!(recovered.consistent);
//! assert_eq!(recovered.state.total_tuples(), 1);
//! assert_eq!(recovered.stats.replayed, 1);
//! ```

#![warn(missing_docs)]

pub mod crc32;
pub mod error;
pub mod group;
pub mod journal;
pub mod recover;
pub mod snapshot;
pub mod store;
pub mod tempdir;
pub mod wal;

pub use error::StoreError;
pub use group::{GroupWal, SharedStore};
pub use journal::{JournalFile, JournalRecovery};
pub use recover::{open, recover, recover_with, replay, Opened, Recovered, RecoveryStats};
pub use store::Store;
pub use tempdir::TempDir;
pub use wal::{WalScan, WalWriter};
