//! Budgeted, fault-injectable execution for the maintenance layer.
//!
//! The primitives — [`Budget`], [`Guard`], [`ExecError`], [`RetryPolicy`]
//! — live in `idr_relation::exec` (re-exported here) so that every crate
//! in the workspace meters against the same counters. This module adds
//! the pieces specific to maintenance:
//!
//! * [`RepAccess`] / [`StateAccess`] — traits abstracting the
//!   single-tuple selections Algorithms 2 and 4/5 issue against a block's
//!   representative instance ([`KeRep`]) or raw state
//!   ([`StateIndex`](crate::maintain::StateIndex)). A selection may fail
//!   with a [`Fault`], modelling a flaky storage backend; the in-memory
//!   implementations never do.
//! * [`FaultInjector`] — a deterministic wrapper implementing both traits
//!   that fails chosen selections, for testing the retry path without a
//!   real flaky backend.
//! * [`SelectionRecorder`] — a [`StateAccess`] wrapper that records each
//!   completed selection as a [`SelectionStep`]: the §2.7 selection trace
//!   of a real Algorithm 5 run.
//!
//! The maintainers in [`crate::maintain`] are generic over
//! these traits: production code passes the concrete in-memory stores,
//! tests pass a [`FaultInjector`] around them and assert that transient
//! faults are retried to the fault-free answer while permanent faults
//! surface as [`ExecError::Faulted`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, Tuple};

pub use idr_relation::exec::{
    Budget, CancelToken, ExecError, Fault, FaultKind, Guard, GuardSnapshot, Resource,
    RetryPolicy, DEFAULT_MAX_ENUMERATION,
};

use crate::maintain::SelectionStep;
use crate::rep::KeRep;

/// Single-tuple selection against a block's representative instance — the
/// access path of Algorithm 2. Implemented infallibly by [`KeRep`]; a
/// storage-backed implementation may return [`Fault`]s, which the bounded
/// maintainers run through their [`RetryPolicy`].
pub trait RepAccess {
    /// The block's embedded keys.
    fn keys(&self) -> &[AttrSet];

    /// The unique tuple agreeing with `probe` on key `k`, if any
    /// (uniqueness is Lemma 3.2(c)).
    fn select(&self, k: AttrSet, probe: &Tuple) -> Result<Option<Tuple>, Fault>;
}

impl RepAccess for KeRep {
    fn keys(&self) -> &[AttrSet] {
        KeRep::keys(self)
    }

    fn select(&self, k: AttrSet, probe: &Tuple) -> Result<Option<Tuple>, Fault> {
        Ok(self.lookup(k, probe).cloned())
    }
}

/// Single-tuple selection against a block substate — the `σ_Φ(π_X(Sᵢ))`
/// access path of Algorithms 4 and 5. Implemented infallibly by
/// [`StateIndex`](crate::maintain::StateIndex).
pub trait StateAccess {
    /// `(database-scheme index, attrs, keys)` per member scheme.
    fn members(&self) -> &[(usize, AttrSet, Vec<AttrSet>)];

    /// The unique tuple of member `pos` agreeing with `probe` on the
    /// member's `kpos`-th key, if any.
    fn select(&self, pos: usize, kpos: usize, probe: &Tuple) -> Result<Option<Tuple>, Fault>;
}

/// When a [`FaultInjector`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Fail calls `n, n+1, …, n+times−1` (1-based call numbering). With
    /// `times = 1` and a transient kind, a retry immediately succeeds —
    /// the retried result must equal the fault-free one.
    Nth {
        /// First failing call (1-based).
        n: u64,
        /// Number of consecutive failing calls.
        times: u64,
        /// Transient or permanent.
        kind: FaultKind,
    },
    /// Fail each call independently with probability `pct`/100, derived
    /// deterministically from `seed` and the call number — reproducible
    /// "flaky backend" runs.
    Seeded {
        /// Stream seed.
        seed: u64,
        /// Per-call failure probability in percent.
        pct: u32,
        /// Transient or permanent.
        kind: FaultKind,
    },
}

impl FaultPlan {
    /// Fails only the `n`-th call (transient or permanent).
    pub fn nth(n: u64, kind: FaultKind) -> Self {
        FaultPlan::Nth { n, times: 1, kind }
    }

    fn fires(&self, call: u64) -> Option<FaultKind> {
        match *self {
            FaultPlan::Nth { n, times, kind } => {
                (call >= n && call - n < times).then_some(kind)
            }
            FaultPlan::Seeded { seed, pct, kind } => {
                // One independent draw per call number: mix the call index
                // into the seed, then take the generator's first output.
                let mut r = SplitMix64::new(seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                r.gen_pct(pct).then_some(kind)
            }
        }
    }
}

/// Wraps a [`RepAccess`] or [`StateAccess`] implementation and injects
/// faults per a [`FaultPlan`]. Call numbering is shared across both trait
/// surfaces and increments on every `select`, including failed ones — so
/// a retried selection is a *new* call and (under [`FaultPlan::Nth`] with
/// `times = 1`) succeeds.
#[derive(Debug)]
pub struct FaultInjector<'a, S> {
    inner: &'a S,
    plan: FaultPlan,
    calls: AtomicU64,
    faults: AtomicU64,
}

impl<'a, S> FaultInjector<'a, S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: &'a S, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            calls: AtomicU64::new(0),
            faults: AtomicU64::new(0),
        }
    }

    /// Total `select` calls observed (including faulted ones).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    fn check(&self, operation: &str) -> Result<(), Fault> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(kind) = self.plan.fires(call) {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(Fault {
                kind,
                operation: format!("{operation} (call #{call})"),
            });
        }
        Ok(())
    }
}

impl<S: RepAccess> RepAccess for FaultInjector<'_, S> {
    fn keys(&self) -> &[AttrSet] {
        self.inner.keys()
    }

    fn select(&self, k: AttrSet, probe: &Tuple) -> Result<Option<Tuple>, Fault> {
        self.check("representative-instance selection")?;
        self.inner.select(k, probe)
    }
}

impl<S: StateAccess> StateAccess for FaultInjector<'_, S> {
    fn members(&self) -> &[(usize, AttrSet, Vec<AttrSet>)] {
        self.inner.members()
    }

    fn select(&self, pos: usize, kpos: usize, probe: &Tuple) -> Result<Option<Tuple>, Fault> {
        self.check("state selection")?;
        self.inner.select(pos, kpos, probe)
    }
}

/// Wraps a [`StateAccess`] implementation and records every selection
/// that completes as a [`SelectionStep`], in call order. A faulted call
/// records nothing, so a transient fault retried to success records
/// once. For a run that returns `Ok`, the log has one step per charged
/// lookup; a run that fails after charging a lookup logs no step for it.
#[derive(Debug)]
pub struct SelectionRecorder<'a, S> {
    inner: &'a S,
    steps: RefCell<Vec<SelectionStep>>,
}

impl<'a, S> SelectionRecorder<'a, S> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: &'a S) -> Self {
        SelectionRecorder {
            inner,
            steps: RefCell::new(Vec::new()),
        }
    }

    /// The recorded selections, in call order.
    pub fn into_steps(self) -> Vec<SelectionStep> {
        self.steps.into_inner()
    }
}

impl<S: StateAccess> StateAccess for SelectionRecorder<'_, S> {
    fn members(&self) -> &[(usize, AttrSet, Vec<AttrSet>)] {
        self.inner.members()
    }

    fn select(&self, pos: usize, kpos: usize, probe: &Tuple) -> Result<Option<Tuple>, Fault> {
        let result = self.inner.select(pos, kpos, probe)?;
        let (scheme, _, ref keys) = self.inner.members()[pos];
        let key = keys[kpos];
        self.steps.borrow_mut().push(SelectionStep {
            scheme,
            key,
            values: key.iter().map(|a| probe.value(a)).collect(),
            result: result.clone(),
        });
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::{SymbolTable, Universe};

    #[test]
    fn nth_plan_fires_exactly_once() {
        let plan = FaultPlan::nth(3, FaultKind::Transient);
        let fired: Vec<u64> = (1..=6).filter(|&c| plan.fires(c).is_some()).collect();
        assert_eq!(fired, vec![3]);
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let plan = FaultPlan::Seeded {
            seed: 7,
            pct: 50,
            kind: FaultKind::Transient,
        };
        let a: Vec<bool> = (1..=32).map(|c| plan.fires(c).is_some()).collect();
        let b: Vec<bool> = (1..=32).map(|c| plan.fires(c).is_some()).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn injector_counts_and_faults() {
        let u = Universe::of_chars("AB");
        let mut s = SymbolTable::new();
        let rep = KeRep::build(
            &[u.set_of("A")],
            [Tuple::from_pairs([
                (u.attr_of("A"), s.intern("a")),
                (u.attr_of("B"), s.intern("b")),
            ])],
            &idr_relation::exec::Guard::unlimited(),
        )
        .unwrap();
        let inj = FaultInjector::new(&rep, FaultPlan::nth(2, FaultKind::Permanent));
        let probe = Tuple::from_pairs([(u.attr_of("A"), s.intern("a"))]);
        assert!(RepAccess::select(&inj, u.set_of("A"), &probe).is_ok());
        let err = RepAccess::select(&inj, u.set_of("A"), &probe).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permanent);
        assert!(RepAccess::select(&inj, u.set_of("A"), &probe).is_ok());
        assert_eq!(inj.calls(), 3);
        assert_eq!(inj.faults_injected(), 1);
    }
}
