//! Independence-reducible database schemes — the primary contribution of
//! Chan & Hernández, *Independence-reducible Database Schemes*, PODS 1988.
//!
//! Given a database scheme `R` with a cover of the functional dependencies
//! embedded as key dependencies, this crate implements every definition
//! and algorithm of Sections 3–5 of the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | key-equivalence (§3) | [`key_equiv::is_key_equivalent`] |
//! | Algorithm 1 (rep. instance) | [`rep::KeRep::build`] |
//! | Algorithm 2 (algebraic maintenance) | [`maintain::algorithm2`] |
//! | Algorithm 3 (scheme closure) | [`key_equiv::algorithm3_closure`] |
//! | splitness + Lemma 3.8 | [`split`] |
//! | Algorithm 4 (tuple extension) | [`maintain::algorithm4`] |
//! | Algorithm 5 (ctm maintenance) | [`maintain::algorithm5`] |
//! | KEP (§5.1) | [`kep::key_equivalent_partition`] |
//! | Algorithm 6 (recognition) | [`recognition::recognize`] |
//! | boundedness expressions (Cor 3.1(b), Thm 4.1) | [`query`] |
//! | augmentation AUG (Thm 4.3) | [`augment`] |
//! | ctm characterisation (Cor 3.3, Thm 5.5) | [`mod@classify`] |
//! | baselines: independence, γ-acyclic BCNF | [`baselines`] |
//! | Theorem 3.4's adversarial construction | [`ctm_witness`] |
//!
//! The generic chase (`idr-chase`) is used as the semantic oracle in the
//! test suites; the algorithms here never call it on the fast path.
//!
//! Every hot entry point takes a [`exec::Guard`] and meters its work
//! against the guard's [`exec::Budget`], returning a typed
//! [`exec::ExecError`] instead of panicking or looping past its limits;
//! see [`exec`] for the failure model.
//!
//! The recommended entry point is [`engine::Engine`]: build it once from
//! a scheme and it caches recognition, classification and the Theorem 4.1
//! projection expressions. Bind it to a state with [`engine::Engine::hub`]
//! and serve many clients at once through the split
//! [`serving::WriteHandle`] / [`serving::ReadView`] API — per-block
//! serialized writes (Theorem 4.2 block independence makes cross-block
//! ops commute) and epoch-stamped snapshot reads. Every write — one
//! insert, one delete or a framed group — takes the same path: verdicts
//! first, then one log call.


#![warn(missing_docs)]
pub mod algebraic;
pub mod augment;
pub mod baselines;
pub mod classify;
pub mod ctm_witness;
pub mod durability;
pub mod engine;
pub mod exec;
pub mod kep;
pub mod key_equiv;
pub mod maintain;
pub mod query;
pub mod recognition;
pub mod replay;
pub mod semantic;
pub mod rep;
pub mod serving;
pub mod split;

pub use classify::{classify, Classification};
pub use durability::{DurabilitySink, DurableOp};
pub use engine::{Engine, Observability};
pub use replay::{ReplayError, ReplayOutcome, REPLAY_UNIT};
pub use serving::{BatchOp, Hub, ReadView, Snapshot, WriteHandle};
pub use exec::{
    Budget, CancelToken, ExecError, Fault, FaultInjector, FaultKind, FaultPlan, Guard,
    GuardSnapshot, RepAccess, Resource, RetryPolicy, SelectionRecorder, StateAccess,
};
pub use kep::key_equivalent_partition;
pub use maintain::{MaintenanceOutcome, StateIndex};
pub use recognition::{recognize, IrScheme, Recognition, RejectReason};
pub use rep::KeRep;
