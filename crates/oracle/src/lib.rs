//! `idr-oracle` — seed-deterministic differential fuzzing for the
//! independence-reducible engine.
//!
//! The paper proves that on independence-reducible schemes three very
//! different evaluation strategies must agree: Theorem 4.1's chase-free
//! projection expressions, Theorem 4.2's block-parallel evaluation, and
//! the naive from-scratch chase they both shortcut. That redundancy is a
//! free test oracle, and this crate weaponises it:
//!
//! * [`gen::gen_case`] derives a complete `(scheme, state, ops)` case
//!   from a single `u64` seed through the vendored SplitMix64 — no
//!   external randomness, no flaky reruns;
//! * [`interp::run_case`] replays the ops against four oracles in
//!   lockstep (parallel session, serial session, naive chase, Theorem
//!   4.1 expressions) and checks verdict/answer/trace agreement plus
//!   post-`Err` atomicity invariants after budget trips and injected
//!   faults;
//! * [`shrink::shrink`] greedily minimises a failing case while
//!   preserving its divergence kind;
//! * [`ops::Case`] renders to/parses from a line-oriented fixture format
//!   so every failure is a replayable file under `tests/corpus/`.
//!
//! # One harness, many arms
//!
//! Every arm of `idr fuzz` runs through one case loop,
//! [`Campaign::run`]: it draws each case's seed from a master
//! SplitMix64 stream (so a failure reproduces from its per-case seed
//! alone), shields the case from panics (a panicking case is a `panic`
//! failure, not a fuzzer crash), hands the case the campaign's metrics
//! registry and reports progress. An arm is then just a case function
//! plus its own [`Counters`], which render the middle of the arm's
//! [`Summary`] line; every failure is one [`Failure`]. The arms:
//!
//! * [`fuzz`] — the four-oracle lockstep run above (`idr fuzz`);
//! * [`crash_fuzz`] — durable op streams whose write-ahead log is cut
//!   at every byte boundary, each cut recovered and checked against a
//!   run that never crashed (`idr fuzz --crash`); its concurrent twin
//!   [`concurrent_crash_fuzz`] cuts a group-commit WAL mid-batch
//!   (`idr fuzz --crash --concurrent`);
//! * [`sync_fuzz()`] — random op streams partitioned across replicas
//!   under random fault plans, every replica checked against a
//!   never-partitioned baseline, in the simulator or over loopback
//!   sockets (`idr fuzz --sync [--wire]`);
//! * [`concurrent_fuzz`] — client threads racing over one hub, the
//!   committed order replayed serially and compared byte for byte —
//!   Theorem 4.2's commutation claim under real threads
//!   (`idr fuzz --concurrent`);
//! * [`batch_fuzz`] — framed groups through `WriteHandle::apply_batch`
//!   over a durable store, diffed against per-op application and
//!   against the store's own recovery (`idr fuzz --batch`).

#![warn(missing_docs)]
pub mod batch;
pub mod concurrent;
pub mod crash;
pub mod gen;
pub mod interp;
pub mod ops;
pub mod shrink;
pub mod sync_fuzz;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use idr_obs::MetricsRegistry;
use idr_relation::rng::SplitMix64;

pub use batch::{batch_fuzz, BatchCounters};
pub use concurrent::{concurrent_fuzz, ConcurrentCounters};
pub use crash::{concurrent_crash_fuzz, crash_fuzz, CrashCounters};
pub use interp::{CaseReport, Divergence};
pub use ops::Case;
pub use sync_fuzz::{sync_fuzz, SyncCounters};

/// Runs `f`, turning a panic into its message.
fn shielded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// [`interp::run_case`] with a panic shield: an oracle (or the engine
/// under test) panicking is itself a reportable divergence. Used by the
/// lockstep arm, the shrinker and fixture replay; `metrics` (when
/// given) receives the lockstep hubs' counters.
pub fn run_case_guarded(
    case: &Case,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<CaseReport, Divergence> {
    shielded(|| interp::run_case(case, metrics)).unwrap_or_else(|msg| {
        Err(Divergence {
            step: None,
            op: None,
            kind: "panic".to_string(),
            detail: format!("case panicked: {msg}"),
        })
    })
}

/// Where inside its case a [`Failure`] happened; it decides how the
/// failure line reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Site {
    /// The case as a whole.
    Case,
    /// The crash arms: the write-ahead log cut to this many bytes.
    Cut(u64),
    /// The lockstep arm: the op at this index, and its rendering.
    Step(usize, String),
    /// The lockstep arm: the hub build, before any op.
    HubBuild,
}

/// One failing case of any arm.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The per-case seed (regenerates the case).
    pub seed: u64,
    /// Where inside the case it failed.
    pub site: Site,
    /// What disagreed: a stable class such as `state`, `verdict`,
    /// `answer`, `setup` or `panic`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// A further line of explanation (the lockstep shrinker's result).
    pub note: Option<String>,
    /// A replayable repro file's text, for arms that produce one.
    pub repro: Option<String>,
}

impl Failure {
    /// A failure of the whole case, with no note and no repro.
    pub fn new(seed: u64, kind: &str, detail: String) -> Failure {
        Failure {
            seed,
            site: Site::Case,
            kind: kind.to_string(),
            detail,
            note: None,
            repro: None,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (seed, kind, detail) = (self.seed, &self.kind, &self.detail);
        match &self.site {
            Site::Case => write!(f, "seed {seed} [{kind}]: {detail}"),
            Site::Cut(at) => write!(f, "seed {seed} crash@{at} [{kind}]: {detail}"),
            Site::Step(k, op) => write!(f, "seed {seed}: [{kind}] step {k} ({op}): {detail}"),
            Site::HubBuild => write!(f, "seed {seed}: [{kind}] hub build: {detail}"),
        }
    }
}

/// An arm's own tallies across a campaign. Their `Display` renders the
/// middle of the arm's [`Summary`] line.
pub trait Counters: fmt::Display {
    /// What the summary line calls a failed case.
    const FAILURE: &'static str = "failure";
}

/// Outcome of one campaign of one arm.
#[derive(Clone, Debug)]
pub struct Summary<C> {
    /// The arm's name on the summary line (`crash fuzz`, …).
    pub label: &'static str,
    /// The master seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: usize,
    /// The arm's own tallies.
    pub counters: C,
    /// Failures, in discovery order.
    pub failures: Vec<Failure>,
}

impl<C> Summary<C> {
    /// Whether no case failed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl<C: Counters> fmt::Display for Summary<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} case(s) from seed {}, {}, {} {}(s)",
            self.label,
            self.cases,
            self.seed,
            self.counters,
            self.failures.len(),
            C::FAILURE
        )
    }
}

/// A fuzz campaign: how many cases, from which master seed, and where
/// they report.
pub struct Campaign<'a> {
    /// Master seed; each case's seed is the next draw of its SplitMix64
    /// stream.
    pub seed: u64,
    /// Cases to run.
    pub cases: usize,
    /// Registry that every case's engines, stores and simulators report
    /// into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Called after every case with the arm's label, the cases done and
    /// the failures so far.
    pub progress: Option<Progress<'a>>,
}

/// A campaign's progress callback: `(arm label, cases done, failures so
/// far)`.
pub type Progress<'a> = &'a mut dyn FnMut(&str, usize, usize);

impl Campaign<'_> {
    /// `cases` cases from master seed `seed`, with no metrics and no
    /// progress reports.
    pub fn new(seed: u64, cases: usize) -> Campaign<'static> {
        Campaign {
            seed,
            cases,
            metrics: None,
            progress: None,
        }
    }

    /// The one case loop every arm runs through: for each case, draws
    /// its seed, runs `case(seed, counters, metrics)` behind a panic
    /// shield and collects the failures it returns. A panicking case is
    /// one `panic` failure.
    pub fn run<C, F, I>(self, label: &'static str, counters: C, mut case: F) -> Summary<C>
    where
        F: FnMut(u64, &mut C, Option<&Arc<MetricsRegistry>>) -> I,
        I: IntoIterator<Item = Failure>,
    {
        let Campaign {
            seed,
            cases,
            metrics,
            mut progress,
        } = self;
        let mut master = SplitMix64::new(seed);
        let mut summary = Summary {
            label,
            seed,
            cases,
            counters,
            failures: Vec::new(),
        };
        for k in 0..cases {
            let case_seed = master.next_u64();
            let counters = &mut summary.counters;
            match shielded(|| case(case_seed, counters, metrics.as_ref())) {
                Ok(failures) => summary.failures.extend(failures),
                Err(msg) => summary.failures.push(Failure::new(
                    case_seed,
                    "panic",
                    format!("case panicked: {msg}"),
                )),
            }
            if let Some(p) = progress.as_deref_mut() {
                p(label, k + 1, summary.failures.len());
            }
        }
        summary
    }
}

/// The lockstep arm's tallies.
#[derive(Clone, Debug, Default)]
pub struct LockstepCounters {
    /// Ops executed across clean cases.
    pub ops_run: usize,
    /// Clean cases whose final state was consistent.
    pub consistent: usize,
}

impl fmt::Display for LockstepCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} op(s) executed, {} final state(s) consistent",
            self.ops_run, self.consistent
        )
    }
}

impl Counters for LockstepCounters {
    const FAILURE: &'static str = "divergence";
}

/// The lockstep arm (`idr fuzz`): generates each case from its seed and
/// runs it against the four oracles. A divergent case's repro is the
/// rendered case fixture; with `shrink` it is first greedily minimised.
pub fn fuzz(campaign: Campaign<'_>, shrink: bool) -> Summary<LockstepCounters> {
    campaign.run("fuzz", LockstepCounters::default(), |seed, counters, metrics| {
        let case = gen::gen_case(seed);
        let d = match run_case_guarded(&case, metrics) {
            Ok(report) => {
                counters.ops_run += report.ops_run;
                counters.consistent += usize::from(report.final_consistent);
                return None;
            }
            Err(d) => d,
        };
        let (repro, note) = if shrink {
            let (small, still) = shrink::shrink(&case, &d);
            let note = format!("shrunk to {} op(s), still: {still}", small.ops.len());
            (small.render(), Some(note))
        } else {
            (case.render(), None)
        };
        let site = match (d.step, d.op) {
            (Some(k), Some(op)) => Site::Step(k, op),
            _ => Site::HubBuild,
        };
        Some(Failure {
            site,
            note,
            repro: Some(repro),
            ..Failure::new(seed, &d.kind, d.detail)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded end-to-end run over the real engine must be divergence
    /// free — this is the in-process version of the CI smoke run.
    #[test]
    fn bounded_fuzz_run_is_clean() {
        let summary = fuzz(Campaign::new(42, 60), false);
        assert_eq!(summary.cases, 60);
        assert!(
            summary.is_clean(),
            "divergences: {}",
            summary
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(summary.counters.ops_run > 0);
    }

    /// Same master seed, same run — byte-for-byte. (The shrinker's
    /// behaviour on real failures is pinned by the corpus fixtures in
    /// tests/corpus_replay.rs, which were produced by it.)
    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz(Campaign::new(7, 25), false);
        let b = fuzz(Campaign::new(7, 25), false);
        assert_eq!(a.to_string(), b.to_string());
    }

    /// The failure lines and summary lines every arm prints, as the
    /// per-arm renderers they replaced printed them.
    #[test]
    fn failure_and_summary_lines_are_pinned() {
        let f = |site, kind: &str, detail: &str, seed| Failure {
            site,
            ..Failure::new(seed, kind, detail.into())
        };
        let lines = [
            (
                f(Site::Step(3, "insert R1: A=a1 B=b1".into()), "answer", "hub [] != chase [A=a1]", 11),
                "seed 11: [answer] step 3 (insert R1: A=a1 B=b1): hub [] != chase [A=a1]",
            ),
            (
                f(Site::HubBuild, "panic", "case panicked: boom", 12),
                "seed 12: [panic] hub build: case panicked: boom",
            ),
            (
                f(Site::Case, "verdict", "batch [true] != serial [false] (frames [1])", 13),
                "seed 13 [verdict]: batch [true] != serial [false] (frames [1])",
            ),
            (
                f(Site::Cut(57), "state", "recovered [] != oracle [R1: A=a] after 1 surviving ops", 14),
                "seed 14 crash@57 [state]: recovered [] != oracle [R1: A=a] after 1 surviving ops",
            ),
            (
                f(Site::Case, "liveness", "no convergence within 96 rounds; last: r", 15),
                "seed 15 [liveness]: no convergence within 96 rounds; last: r",
            ),
            (
                f(Site::Case, "state", "serial [] != concurrent [R1: A=a]", 16),
                "seed 16 [state]: serial [] != concurrent [R1: A=a]",
            ),
        ];
        for (failure, line) in lines {
            assert_eq!(failure.to_string(), line);
        }
        fn summary<C: Counters>(label: &'static str, counters: C) -> Summary<C> {
            Summary {
                label,
                seed: 5,
                cases: 3,
                counters,
                failures: Vec::new(),
            }
        }
        assert_eq!(
            summary("fuzz", LockstepCounters { ops_run: 21, consistent: 1 }).to_string(),
            "fuzz: 3 case(s) from seed 5, 21 op(s) executed, 1 final state(s) consistent, 0 divergence(s)"
        );
        assert_eq!(
            summary("batch fuzz", BatchCounters { groups: 6, ops_run: 19 }).to_string(),
            "batch fuzz: 3 case(s) from seed 5, 6 framed group(s) committed, 19 op(s) applied, 0 failure(s)"
        );
        assert_eq!(
            summary("crash fuzz", CrashCounters { crash_points: 310, ops_run: 19 }).to_string(),
            "crash fuzz: 3 case(s) from seed 5, 310 crash point(s) recovered, 19 op(s) replayed, 0 failure(s)"
        );
        assert_eq!(
            summary("concurrent fuzz", ConcurrentCounters { clients: 8, ops_run: 48 }).to_string(),
            "concurrent fuzz: 3 case(s) from seed 5, 8 client thread(s) raced, 48 op(s) committed, 0 failure(s)"
        );
        let sync = |wire, rounds, ops_shipped| SyncCounters {
            wire,
            rounds,
            ops_shipped,
            crashes: 4,
        };
        assert_eq!(
            summary("sync fuzz", sync(false, 28, 72)).to_string(),
            "sync fuzz: 3 case(s) from seed 5, 28 round(s) simulated, 72 op(s) shipped, 4 crash(es) fired, 0 failure(s)"
        );
        assert_eq!(
            summary("wire sync fuzz", sync(true, 20, 23)).to_string(),
            "wire sync fuzz: 3 case(s) from seed 5, 20 round(s) run on loopback sockets, 23 op(s) shipped, 4 crash(es) fired, 0 failure(s)"
        );
    }
}
