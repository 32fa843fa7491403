//! # independence-reducible
//!
//! A from-scratch Rust reproduction of
//!
//! > E.P.F. Chan and H.J. Hernández, *Independence-reducible Database
//! > Schemes*, Proc. 7th ACM Symposium on Principles of Database Systems
//! > (PODS), Austin, 1988, pp. 163–173.
//!
//! The paper identifies a class of database schemes — the
//! **independence-reducible** schemes — that behave well for the two
//! problems classical dependency theory cares about:
//!
//! * **Query answering**: the schemes are *bounded*, so the X-total
//!   projection of the representative instance is computable by a
//!   predetermined relational expression instead of a chase
//!   ([`core::query`]).
//! * **Constraint enforcement**: the schemes are *algebraic-maintainable*
//!   (Algorithm 2), and exactly the *split-free* ones are
//!   *constant-time-maintainable* (Algorithm 5) —
//!   see [`core::maintain`] and [`core::split`].
//!
//! The recogniser ([`core::recognition::recognize`], the paper's
//! Algorithm 6) accepts exactly this class in polynomial time, and the
//! class strictly contains both previously known well-behaved classes:
//! Sagiv's independent schemes and the γ-acyclic cover-embedding BCNF
//! schemes ([`core::baselines`]).
//!
//! ## Quick start
//!
//! ```
//! use independence_reducible::prelude::*;
//!
//! // Example 1 of the paper: the university database.
//! let db = SchemeBuilder::new("CTHRSG")
//!     .scheme("R1", "HRC", ["HR"])
//!     .scheme("R2", "HTR", ["HT", "HR"])
//!     .scheme("R3", "HTC", ["HT"])
//!     .scheme("R4", "CSG", ["CS"])
//!     .scheme("R5", "HSR", ["HS"])
//!     .build()
//!     .unwrap();
//!
//! // Build the engine once: recognition, classification and the
//! // bounded-query expressions are computed up front or cached.
//! let engine = Engine::new(db);
//! let c = engine.classification();
//! assert!(!c.independent);           // not Sagiv-independent
//! assert!(!c.gamma_acyclic);         // not γ-acyclic
//! assert!(c.independence_reducible.is_some()); // but accepted!
//! assert_eq!(c.ctm, Some(true));     // and constant-time-maintainable
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`relation`] | universe, attribute bitsets, tuples, relations, states, relational algebra |
//! | [`fd`] | functional dependencies, closures, covers, keys, BCNF, uniqueness condition |
//! | [`chase`] | tableaux, the chase, weak instances, total projections, losslessness |
//! | [`hypergraph`] | connectivity, Bachman closure, u.m.c., α/γ-acyclicity |
//! | [`core`] | the paper: key-equivalence, Algorithms 1–6, KEP, splitness, recognition, maintenance, boundedness |
//! | [`workload`] | the paper's 13 worked examples as fixtures; synthetic scaling families |
//! | [`obs`] | dependency-free structured tracing, metrics and the chase-provenance event taxonomy |
//! | [`store`] | durable state: checksummed write-ahead log with group commit, atomic snapshots, crash recovery |
//! | [`sync`] | replication: WAL-shipping anti-entropy over chained digests, deterministic fault-scripted simulator, scenario files |
//! | [`oracle`] | seed-deterministic differential fuzzing: generators, six oracle arms (lockstep interpreters, crash-point recovery, replication convergence), shrinkers, corpus fixtures |
//!
//! The paper-to-code map — every numbered definition, lemma, theorem,
//! algorithm and example of the paper with the module and test that
//! realises it — lives in `docs/PAPER_MAP.md`.

#![warn(missing_docs)]

pub use idr_chase as chase;
pub use idr_core as core;
pub use idr_fd as fd;
pub use idr_hypergraph as hypergraph;
pub use idr_obs as obs;
pub use idr_oracle as oracle;
pub use idr_relation as relation;
pub use idr_store as store;
pub use idr_sync as sync;
pub use idr_workload as workload;

/// Budgeted, fault-tolerant execution: budgets, guards, the typed
/// [`ExecError`](exec::ExecError) taxonomy, retry policies and fault
/// injection. See DESIGN.md §"Failure model".
pub mod exec {
    pub use idr_core::exec::{
        Budget, CancelToken, ExecError, Fault, FaultInjector, FaultKind, FaultPlan, Guard,
        GuardSnapshot, RepAccess, Resource, RetryPolicy, SelectionRecorder, StateAccess,
        DEFAULT_MAX_ENUMERATION,
    };
}

/// The most common imports for working with the library.
///
/// Every fallible entry point takes a [`Guard`](idr_relation::exec::Guard)
/// (pass [`Guard::unlimited`](idr_relation::exec::Guard::unlimited) for an
/// unbounded run). The pre-0.2 `*_bounded` twins were removed in 0.5 —
/// calls migrate by dropping the suffix and passing a `Guard`.
pub mod prelude {
    pub use idr_chase::{chase, is_consistent, representative_instance, total_projection};
    pub use idr_core::classify::{classify, Classification};
    pub use idr_core::durability::{DurabilitySink, DurableOp};
    pub use idr_core::engine::{Engine, Observability};
    pub use idr_core::serving::{BatchOp, Hub, ReadView, Snapshot, WriteHandle};
    pub use idr_core::exec::{Budget, ExecError, Guard, GuardSnapshot, RetryPolicy};
    pub use idr_core::maintain::{CtmMaintainer, IrMaintainer, MaintenanceOutcome};
    pub use idr_obs::{EventLog, MetricsRegistry, TraceEvent, TraceHandle};
    pub use idr_core::query::{ir_total_projection, ir_total_projection_expr};
    pub use idr_core::recognition::{recognize, IrScheme, Recognition};
    pub use idr_fd::{Fd, FdParseError, FdSet, KeyDeps};
    pub use idr_relation::{
        state_of, AttrSet, Attribute, DatabaseScheme, DatabaseState, Relation, RelationScheme,
        SchemeBuilder, SymbolTable, Tuple, Universe, Value,
    };
}
