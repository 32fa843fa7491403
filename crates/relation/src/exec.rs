//! Budgeted, cancellable execution: resource budgets, work metering and
//! the typed failure taxonomy shared by every crate in the workspace.
//!
//! The paper's central results are *cost bounds*: boundedness counts chase
//! rule applications (Alg. 1, Cor. 3.1) and constant-time maintainability
//! counts single-tuple selections (Alg. 5, Thm. 3.4). This module turns
//! those cost models into enforced runtime contracts. A [`Budget`] states
//! how much of each resource a computation may spend; a [`Guard`] meters
//! the work as it happens; and every guard-taking entry point in the
//! workspace returns a typed [`ExecError`] — never a panic — when the
//! budget is exhausted, the deadline passes, the caller cancels, or an
//! injected storage fault proves permanent.
//!
//! The three metered resources mirror the paper's cost model exactly:
//!
//! * [`Resource::ChaseSteps`] — symbol-equating fd-rule applications, the
//!   unit in which boundedness is stated (§2.3, §3.1).
//! * [`Resource::Lookups`] — single-tuple selections against the state,
//!   the unit of Algorithm 4/5's constant-time claim (§2.7, §3.3).
//! * [`Resource::Enumeration`] — candidate subsets examined by the
//!   inherently exponential procedures (lossless-cover enumeration, FD
//!   projection); these were previously guarded by `assert!` and now fail
//!   typed.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard ceiling on subset enumeration used when a budget leaves
/// [`Budget::max_enumeration`] unset. Enumeration is exponential in its
/// input width, so unlike chase steps and lookups it is *never* unlimited:
/// an unbounded default would turn an adversarial 64-scheme family into a
/// non-terminating loop rather than a typed error.
pub const DEFAULT_MAX_ENUMERATION: u64 = 1 << 22;

/// The metered resource classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Symbol-equating fd-rule applications of the chase.
    ChaseSteps,
    /// Single-tuple selections issued against a state or representative
    /// instance.
    Lookups,
    /// Candidate subsets examined by exponential enumeration.
    Enumeration,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::ChaseSteps => write!(f, "chase steps"),
            Resource::Lookups => write!(f, "lookups"),
            Resource::Enumeration => write!(f, "enumeration"),
        }
    }
}

/// Whether an injected or observed fault is worth retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Retrying the same operation may succeed (e.g. a timed-out page
    /// read). The maintainers retry these under a [`RetryPolicy`].
    Transient,
    /// Retrying cannot help (e.g. checksum mismatch); surfaces immediately
    /// as [`ExecError::Faulted`].
    Permanent,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Permanent => write!(f, "permanent"),
        }
    }
}

/// A single storage-level failure reported by a state-access
/// implementation (see `idr_core::exec::StateAccess`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Transient (retryable) or permanent.
    pub kind: FaultKind,
    /// Human-readable description of the failed operation.
    pub operation: String,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fault during {}", self.kind, self.operation)
    }
}

impl std::error::Error for Fault {}

/// Why a bounded entry point stopped without producing its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A resource budget was exhausted. `limit` is the configured ceiling,
    /// `spent` the amount consumed when the guard tripped (`spent` may
    /// exceed `limit` when a single operation charges several units).
    BudgetExceeded {
        /// Which resource ran out.
        resource: Resource,
        /// The configured ceiling.
        limit: u64,
        /// Units consumed when the guard tripped.
        spent: u64,
    },
    /// The wall-clock deadline passed.
    TimedOut {
        /// Milliseconds elapsed since the guard was created.
        elapsed_ms: u64,
        /// The configured timeout in milliseconds.
        limit_ms: u64,
    },
    /// The caller cancelled via [`CancelToken::cancel`].
    Cancelled,
    /// A storage fault persisted through the retry policy (or was
    /// permanent to begin with).
    Faulted {
        /// The kind of the final fault.
        kind: FaultKind,
        /// Description of the failed operation.
        operation: String,
        /// Number of attempts made (1 = no retries).
        attempts: u32,
    },
    /// The computation itself found the state inconsistent — wraps the
    /// chase's `Inconsistent` and Algorithm 1's `KeInconsistent` so that
    /// callers of bounded entry points handle exactly one error type.
    Inconsistent {
        /// Rendered description of the violated dependency.
        detail: String,
    },
    /// A fixed-width identifier space ran out (e.g. the chase's `u32`
    /// node ids or the symbol table's `u32` intern ids). Unlike
    /// [`ExecError::BudgetExceeded`] this is not resumable: retrying with
    /// a larger budget cannot help, the structure is full.
    CapacityExceeded {
        /// Which identifier space ran out.
        what: &'static str,
        /// The hard ceiling that was hit.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded {
                resource,
                limit,
                spent,
            } => write!(
                f,
                "budget exceeded: {spent} {resource} spent, limit {limit}"
            ),
            ExecError::TimedOut {
                elapsed_ms,
                limit_ms,
            } => write!(f, "timed out after {elapsed_ms} ms (limit {limit_ms} ms)"),
            ExecError::Cancelled => write!(f, "cancelled"),
            ExecError::Faulted {
                kind,
                operation,
                attempts,
            } => write!(
                f,
                "{kind} fault during {operation} after {attempts} attempt(s)"
            ),
            ExecError::Inconsistent { detail } => {
                write!(f, "state inconsistent: {detail}")
            }
            ExecError::CapacityExceeded { what, limit } => {
                write!(f, "capacity exceeded: {what} full at {limit}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// Whether the error is a resource/deadline/cancellation failure (as
    /// opposed to a semantic inconsistency or a fault).
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            ExecError::BudgetExceeded { .. } | ExecError::TimedOut { .. } | ExecError::Cancelled
        )
    }
}

/// Resource limits for one bounded computation. `None` means unlimited
/// (except enumeration — see [`DEFAULT_MAX_ENUMERATION`]).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use idr_relation::exec::Budget;
///
/// let b = Budget::unlimited()
///     .with_max_chase_steps(10_000)
///     .with_max_lookups(500)
///     .with_timeout(Duration::from_millis(50));
/// assert_eq!(b.max_chase_steps, Some(10_000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Ceiling on chase fd-rule applications.
    pub max_chase_steps: Option<u64>,
    /// Ceiling on single-tuple selections.
    pub max_lookups: Option<u64>,
    /// Ceiling on enumeration units (candidate subsets examined).
    pub max_enumeration: Option<u64>,
    /// Wall-clock timeout, measured from [`Guard::new`].
    pub timeout: Option<Duration>,
}

impl Budget {
    /// No limits (enumeration still capped at
    /// [`DEFAULT_MAX_ENUMERATION`]).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the chase-step ceiling.
    pub fn with_max_chase_steps(mut self, n: u64) -> Self {
        self.max_chase_steps = Some(n);
        self
    }

    /// Sets the lookup ceiling.
    pub fn with_max_lookups(mut self, n: u64) -> Self {
        self.max_lookups = Some(n);
        self
    }

    /// Sets the enumeration ceiling.
    pub fn with_max_enumeration(mut self, n: u64) -> Self {
        self.max_enumeration = Some(n);
        self
    }

    /// Sets the wall-clock timeout.
    pub fn with_timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }
}

/// A handle that cancels the computation guarded by the [`Guard`] it was
/// obtained from. Cloneable and sendable to other threads.
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Requests cancellation; the guarded computation returns
    /// [`ExecError::Cancelled`] at its next metering point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Guard`]'s work counters, read with one
/// call ([`Guard::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardSnapshot {
    /// Chase steps (fd-rule applications) spent.
    pub chase_steps: u64,
    /// Index/hash lookups spent.
    pub lookups: u64,
    /// Enumeration units (tuples materialised) spent.
    pub enumeration: u64,
}

/// Meters the work of one bounded computation against a [`Budget`].
///
/// A guard is shared by reference across every stage of a pipeline (chase,
/// maintenance, query evaluation), so the budget applies to the *whole*
/// request, not to each stage separately. Counters are atomic; a guard may
/// be probed from several threads.
#[derive(Debug)]
pub struct Guard {
    budget: Budget,
    started: Instant,
    deadline: Option<Instant>,
    chase_steps: AtomicU64,
    lookups: AtomicU64,
    enumeration: AtomicU64,
    cancelled: Arc<AtomicBool>,
}

impl Guard {
    /// Creates a guard; the deadline clock starts now.
    pub fn new(budget: Budget) -> Self {
        let started = Instant::now();
        Guard {
            deadline: budget.timeout.map(|t| started + t),
            budget,
            started,
            chase_steps: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            enumeration: AtomicU64::new(0),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A guard with no limits — bounded entry points called with it behave
    /// exactly like their unbudgeted originals (modulo the enumeration
    /// backstop).
    pub fn unlimited() -> Self {
        Guard::new(Budget::unlimited())
    }

    /// The budget this guard enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// A token that cancels this guard's computation.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancelled),
        }
    }

    /// A point-in-time copy of all three work counters — the one read
    /// for reporting surfaces (metrics gauges, CLI summaries, bench
    /// reports).
    pub fn snapshot(&self) -> GuardSnapshot {
        GuardSnapshot {
            chase_steps: self.chase_steps.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            enumeration: self.enumeration.load(Ordering::Relaxed),
        }
    }

    /// Checks deadline and cancellation without charging any resource.
    /// Cheap enough for per-pass use in inner loops.
    pub fn checkpoint(&self) -> Result<(), ExecError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(ExecError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(ExecError::TimedOut {
                    elapsed_ms: now.duration_since(self.started).as_millis() as u64,
                    limit_ms: self
                        .budget
                        .timeout
                        .map(|t| t.as_millis() as u64)
                        .unwrap_or(0),
                });
            }
        }
        Ok(())
    }

    /// Charges one chase rule application.
    pub fn chase_step(&self) -> Result<(), ExecError> {
        self.charge(
            Resource::ChaseSteps,
            &self.chase_steps,
            self.budget.max_chase_steps,
            1,
        )
    }

    /// Charges one single-tuple selection.
    pub fn lookup(&self) -> Result<(), ExecError> {
        self.charge(Resource::Lookups, &self.lookups, self.budget.max_lookups, 1)
    }

    /// Charges `n` enumeration units. Unlike the other resources,
    /// enumeration is always finite: an unset budget falls back to
    /// [`DEFAULT_MAX_ENUMERATION`].
    pub fn enumeration(&self, n: u64) -> Result<(), ExecError> {
        let limit = self
            .budget
            .max_enumeration
            .unwrap_or(DEFAULT_MAX_ENUMERATION);
        self.charge(Resource::Enumeration, &self.enumeration, Some(limit), n)
    }

    fn charge(
        &self,
        resource: Resource,
        counter: &AtomicU64,
        limit: Option<u64>,
        n: u64,
    ) -> Result<(), ExecError> {
        self.checkpoint()?;
        let spent = counter.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if let Some(limit) = limit {
            if spent > limit {
                return Err(ExecError::BudgetExceeded {
                    resource,
                    limit,
                    spent,
                });
            }
        }
        Ok(())
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::unlimited()
    }
}

/// Bounded retry with exponential backoff, applied by the maintainers to
/// transient storage faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = fail on first fault).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles each retry. `ZERO` disables
    /// sleeping (the right setting for tests and for in-memory backends).
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: every fault, transient or not, surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
        }
    }

    /// `max_retries` retries with no backoff sleep.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
        }
    }

    /// Sets the base backoff duration.
    pub fn with_base_backoff(mut self, d: Duration) -> Self {
        self.base_backoff = d;
        self
    }

    /// Runs `op`, retrying transient faults up to `max_retries` times with
    /// exponential backoff. Permanent faults and exhausted retries map to
    /// [`ExecError::Faulted`]; the guard's deadline and cancellation are
    /// honoured between attempts.
    pub fn run<T>(
        &self,
        guard: &Guard,
        mut op: impl FnMut() -> Result<T, Fault>,
    ) -> Result<T, ExecError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match op() {
                Ok(v) => return Ok(v),
                Err(fault) => {
                    let retryable =
                        fault.kind == FaultKind::Transient && attempts <= self.max_retries;
                    if !retryable {
                        return Err(ExecError::Faulted {
                            kind: fault.kind,
                            operation: fault.operation,
                            attempts,
                        });
                    }
                    if !self.base_backoff.is_zero() {
                        // Exponential backoff capped at 2^10 × base.
                        let factor = 1u32 << (attempts - 1).min(10);
                        std::thread::sleep(self.base_backoff * factor);
                    }
                    guard.checkpoint()?;
                }
            }
        }
    }
}

impl Default for RetryPolicy {
    /// Three retries, 1 ms base backoff — degrades gracefully on flaky
    /// backends without stalling an interactive caller.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_trips_typed() {
        let g = Guard::new(Budget::unlimited().with_max_lookups(2));
        assert!(g.lookup().is_ok());
        assert!(g.lookup().is_ok());
        let err = g.lookup().unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Lookups,
                limit: 2,
                spent: 3
            }
        );
    }

    #[test]
    fn enumeration_has_a_backstop() {
        let g = Guard::unlimited();
        let err = g.enumeration(DEFAULT_MAX_ENUMERATION + 1).unwrap_err();
        assert!(matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Enumeration,
                ..
            }
        ));
    }

    #[test]
    fn deadline_fires() {
        let g = Guard::new(Budget::unlimited().with_timeout(Duration::ZERO));
        assert!(matches!(g.checkpoint(), Err(ExecError::TimedOut { .. })));
    }

    #[test]
    fn cancellation_fires() {
        let g = Guard::unlimited();
        let token = g.cancel_token();
        assert!(g.checkpoint().is_ok());
        token.cancel();
        assert_eq!(g.checkpoint(), Err(ExecError::Cancelled));
        assert_eq!(g.chase_step(), Err(ExecError::Cancelled));
    }

    #[test]
    fn retry_policy_retries_transients() {
        let g = Guard::unlimited();
        let mut failures_left = 2;
        let out = RetryPolicy::retries(3).run(&g, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(Fault {
                    kind: FaultKind::Transient,
                    operation: "lookup".into(),
                })
            } else {
                Ok(41)
            }
        });
        assert_eq!(out.unwrap(), 41);
    }

    #[test]
    fn retry_policy_fails_permanents_immediately() {
        let g = Guard::unlimited();
        let mut calls = 0;
        let out: Result<(), ExecError> = RetryPolicy::retries(5).run(&g, || {
            calls += 1;
            Err(Fault {
                kind: FaultKind::Permanent,
                operation: "lookup".into(),
            })
        });
        assert_eq!(calls, 1);
        assert!(matches!(
            out,
            Err(ExecError::Faulted {
                kind: FaultKind::Permanent,
                attempts: 1,
                ..
            })
        ));
    }

    #[test]
    fn retry_policy_exhausts_into_faulted() {
        let g = Guard::unlimited();
        let out: Result<(), ExecError> = RetryPolicy::retries(2).run(&g, || {
            Err(Fault {
                kind: FaultKind::Transient,
                operation: "lookup".into(),
            })
        });
        assert!(matches!(
            out,
            Err(ExecError::Faulted {
                kind: FaultKind::Transient,
                attempts: 3,
                ..
            })
        ));
    }

    #[test]
    fn errors_render() {
        let e = ExecError::BudgetExceeded {
            resource: Resource::ChaseSteps,
            limit: 10,
            spent: 11,
        };
        assert!(e.to_string().contains("chase steps"));
        assert!(e.is_resource_exhaustion());
        let f = ExecError::Faulted {
            kind: FaultKind::Permanent,
            operation: "select".into(),
            attempts: 1,
        };
        assert!(!f.is_resource_exhaustion());
        assert!(f.to_string().contains("permanent"));
    }
}
