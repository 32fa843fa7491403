//! Tableaux and the chase (§2.2–§2.5 of Chan & Hernández, PODS 1988).
//!
//! This crate is the *semantic ground truth* of the reproduction. Every
//! specialised fast path in `idr-core` — Algorithm 1's whole-tuple chase,
//! the maintenance algorithms, the boundedness expressions — is verified
//! against the generic machinery here:
//!
//! * [`Tableau`] — rows over the universe whose entries are constants,
//!   distinguished variables (dv) or nondistinguished variables (ndv),
//!   with origin tags (the `TAG` column of the paper's figures).
//! * [`chase`] — exhaustive fd-rule application (`CHASE_F(T)`, \[MMS]),
//!   returning the chased tableau or detecting an inconsistency.
//! * [`IncrementalChase`] — the union-find engine with incremental insert
//!   and retract support that backs the `Engine` facade; [`chase`] is its
//!   oracle.
//! * State tableaux `T_r` ([`Tableau::of_state`]) and scheme tableaux
//!   `T_R` ([`Tableau::of_scheme`]).
//! * The weak instance model (§2.5): [`is_consistent`],
//!   [`representative_instance`], and X-total projections
//!   ([`total_projection`]).
//! * Lossless-subset tests via the all-dv-row criterion
//!   ([`lossless::is_lossless`]).
//! * Tableau equivalence up to ndv renaming ([`equivalence`]), the notion
//!   Lemma 4.2 is stated in.
//!
//! Every chase entry point takes an execution context (`&Guard`);
//! [`Guard::unlimited`](idr_relation::exec::Guard::unlimited) is the easy
//! default. (The pre-collapse `*_bounded` twins were removed in 0.5 —
//! drop the suffix and pass a `Guard`.)

#![warn(missing_docs)]
mod chase_engine;
pub mod equivalence;
pub mod incremental;
pub mod lossless;
mod tableau;
mod weak;

pub use chase_engine::{chase, chase_traced, ChaseOutcome, ChaseStats, Inconsistent};
pub use incremental::{
    chase_incremental, CellTrace, FiringInfo, IncrementalChase, RejectionExplanation,
    TupleExplanation,
};
pub use tableau::{ChaseSym, Row, Tableau};
pub use weak::{is_consistent, representative_instance, total_projection, RepInstance};
