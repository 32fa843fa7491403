//! Per-op pipeline timelines: monotonic phase stamps for the serving
//! write path.
//!
//! An [`OpTimeline`] records when each pipeline phase of one write op
//! *completed*, as microseconds since the timeline's creation. The
//! phases follow the serving pipeline in order:
//!
//! ```text
//! enqueue → lane-acquire → apply → wal-append → batch-wait → fsync → publish
//! ```
//!
//! Every write earns its verdicts before it is logged, so `apply` — the
//! chase and the in-place state edit under the block locks — precedes
//! the WAL phases for single ops and framed groups alike.
//!
//! Stamps are first-write-wins atomics, so independent layers (the CLI
//! dispatcher, the hub's writer lane, the group-commit WAL) can each
//! stamp the phases they own without coordinating; a phase a layer does
//! not reach simply stays unset. [`OpTimeline::is_monotone`] checks the
//! recorded stamps never run backwards in pipeline order — the invariant
//! the concurrent fuzz arm asserts per op.
//!
//! **This module reads the clock.** It is the deliberate exception to
//! the crate's determinism contract: timelines never feed the trace
//! *golden* paths (serial/parallel byte-equality is over engine events,
//! which stay clock-free); they feed the serve-mode operator surface,
//! where wall time is the point. Tests that need determinism use
//! [`OpTimeline::record`], which bypasses the clock entirely.
//!
//! Because the durability trait has fixed signatures, the WAL layer
//! cannot receive a timeline parameter; instead the writer lane
//! installs its op's timeline in a thread-local ([`set_current`]) for
//! the duration of the synchronous chase→apply→log pipeline, and deeper
//! layers stamp through [`stamp_current`]. The install is RAII-scoped,
//! so a panic or early return cannot leak one op's timeline into the
//! next.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::TraceEvent;

/// One phase of the serving write pipeline, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Op accepted by the dispatcher and queued for a writer lane.
    Enqueue,
    /// Writer lane acquired its block lock.
    LaneAcquire,
    /// Verdicts earned: chase run and state edited under the block lock.
    Apply,
    /// Op's WAL record queued for the group-commit writer.
    WalAppend,
    /// Group-commit wait over (leader finished its linger + drain, or
    /// follower woken by a durable batch).
    BatchWait,
    /// Op durable: its batch's fsync completed.
    Fsync,
    /// Op visible: snapshot handoff (stale flag / snapshot cut) done.
    Publish,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Enqueue,
        Phase::LaneAcquire,
        Phase::Apply,
        Phase::WalAppend,
        Phase::BatchWait,
        Phase::Fsync,
        Phase::Publish,
    ];

    /// Stable snake_case name, used in events and stats output.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Enqueue => "enqueue",
            Phase::LaneAcquire => "lane_acquire",
            Phase::Apply => "apply",
            Phase::WalAppend => "wal_append",
            Phase::BatchWait => "batch_wait",
            Phase::Fsync => "fsync",
            Phase::Publish => "publish",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Completion stamps for one op's trip through the serving pipeline.
///
/// Stamps are stored as `elapsed_us + 1` (0 means "not reached"), so a
/// phase completing within the timeline's first microsecond is still
/// distinguishable from an unreached one.
#[derive(Debug)]
pub struct OpTimeline {
    start: Instant,
    stamps: [AtomicU64; 7],
}

impl Default for OpTimeline {
    fn default() -> Self {
        OpTimeline::new()
    }
}

impl OpTimeline {
    /// A fresh timeline; the clock starts now.
    pub fn new() -> Self {
        OpTimeline {
            start: Instant::now(),
            stamps: Default::default(),
        }
    }

    /// Stamps `phase` as completed now. First write wins: re-stamping a
    /// phase (e.g. a generic fallback after a specific layer already
    /// stamped it) is a no-op.
    pub fn stamp(&self, phase: Phase) {
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128 - 1) as u64;
        self.record(phase, us);
    }

    /// Stamps `phase` at an explicit offset of `us` microseconds,
    /// bypassing the clock (first write wins). Lets tests drive a fake
    /// clock deterministically.
    pub fn record(&self, phase: Phase, us: u64) {
        let _ = self.stamps[phase.index()].compare_exchange(
            0,
            us.saturating_add(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Microseconds from creation to `phase`'s completion, if stamped.
    pub fn get(&self, phase: Phase) -> Option<u64> {
        match self.stamps[phase.index()].load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// The latest recorded stamp — the op's total pipeline time.
    pub fn total_us(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter_map(|&p| self.get(p))
            .max()
            .unwrap_or(0)
    }

    /// True when recorded stamps are non-decreasing in pipeline order.
    /// Unreached phases are skipped: `enqueue=2, apply=5` is monotone
    /// even with everything between them unset.
    pub fn is_monotone(&self) -> bool {
        let mut last = 0u64;
        for &p in &Phase::ALL {
            if let Some(us) = self.get(p) {
                if us < last {
                    return false;
                }
                last = us;
            }
        }
        true
    }

    /// True when every phase in `phases` has been stamped.
    pub fn covers(&self, phases: &[Phase]) -> bool {
        phases.iter().all(|&p| self.get(p).is_some())
    }

    /// `(phase, duration_us)` for each recorded phase: the gap between
    /// its stamp and the previous recorded stamp (the first recorded
    /// phase's duration is its own offset).
    pub fn phase_durations(&self) -> Vec<(Phase, u64)> {
        let mut out = Vec::new();
        let mut last = 0u64;
        for &p in &Phase::ALL {
            if let Some(us) = self.get(p) {
                out.push((p, us.saturating_sub(last)));
                last = us;
            }
        }
        out
    }

    /// The per-phase duration attributed to `phase` (0 if unreached).
    pub fn duration_of(&self, phase: Phase) -> u64 {
        self.phase_durations()
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, d)| *d)
            .unwrap_or(0)
    }

    /// Renders this timeline as a [`TraceEvent::OpTimeline`] with
    /// per-phase duration attribution.
    pub fn to_event(&self, verb: Arc<str>, op: u64) -> TraceEvent {
        let mut by_phase = [0u64; 7];
        for (p, d) in self.phase_durations() {
            by_phase[p.index()] = d;
        }
        TraceEvent::OpTimeline {
            verb,
            op,
            total_us: self.total_us(),
            enqueue_us: by_phase[Phase::Enqueue.index()],
            lane_acquire_us: by_phase[Phase::LaneAcquire.index()],
            wal_append_us: by_phase[Phase::WalAppend.index()],
            batch_wait_us: by_phase[Phase::BatchWait.index()],
            fsync_us: by_phase[Phase::Fsync.index()],
            apply_us: by_phase[Phase::Apply.index()],
            publish_us: by_phase[Phase::Publish.index()],
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<OpTimeline>>> = const { RefCell::new(None) };
}

/// RAII guard for a thread's current-op timeline; dropping it restores
/// the previous one (usually `None`).
#[derive(Debug)]
pub struct CurrentOp {
    prev: Option<Arc<OpTimeline>>,
}

impl Drop for CurrentOp {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `timeline` as this thread's current op for the guard's
/// lifetime, so layers below a fixed trait boundary (the durability
/// sinks, the group-commit WAL) can stamp it via [`stamp_current`].
pub fn set_current(timeline: &Arc<OpTimeline>) -> CurrentOp {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(timeline)));
    CurrentOp { prev }
}

/// Stamps `phase` on this thread's current-op timeline, if one is
/// installed; a single thread-local read otherwise.
pub fn stamp_current(phase: Phase) {
    CURRENT.with(|c| {
        if let Some(tl) = c.borrow().as_deref() {
            tl.stamp(phase);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_first_write_wins() {
        let tl = OpTimeline::new();
        tl.record(Phase::Apply, 10);
        tl.record(Phase::Apply, 99);
        assert_eq!(tl.get(Phase::Apply), Some(10));
    }

    #[test]
    fn zero_offset_is_distinguishable_from_unset() {
        let tl = OpTimeline::new();
        assert_eq!(tl.get(Phase::Enqueue), None);
        tl.record(Phase::Enqueue, 0);
        assert_eq!(tl.get(Phase::Enqueue), Some(0));
    }

    #[test]
    fn monotonicity_skips_unreached_phases() {
        let tl = OpTimeline::new();
        tl.record(Phase::Enqueue, 2);
        tl.record(Phase::Apply, 5);
        assert!(tl.is_monotone());
        tl.record(Phase::Publish, 4); // runs backwards from apply=5
        assert!(!tl.is_monotone());
    }

    #[test]
    fn durations_are_gaps_between_recorded_stamps() {
        let tl = OpTimeline::new();
        tl.record(Phase::Enqueue, 1);
        tl.record(Phase::LaneAcquire, 4);
        tl.record(Phase::Apply, 10);
        assert_eq!(
            tl.phase_durations(),
            vec![
                (Phase::Enqueue, 1),
                (Phase::LaneAcquire, 3),
                (Phase::Apply, 6)
            ]
        );
        assert_eq!(tl.total_us(), 10);
        assert!(tl.covers(&[Phase::Enqueue, Phase::Apply]));
        assert!(!tl.covers(&[Phase::Fsync]));
    }

    #[test]
    fn real_clock_stamps_are_monotone() {
        let tl = OpTimeline::new();
        for &p in &Phase::ALL {
            tl.stamp(p);
        }
        assert!(tl.is_monotone());
        assert!(tl.covers(&Phase::ALL));
    }

    #[test]
    fn thread_local_current_op_stamps_and_restores() {
        let tl = Arc::new(OpTimeline::new());
        stamp_current(Phase::Fsync); // no current op: no-op
        assert_eq!(tl.get(Phase::Fsync), None);
        {
            let _cur = set_current(&tl);
            stamp_current(Phase::Fsync);
        }
        assert!(tl.get(Phase::Fsync).is_some());
        stamp_current(Phase::Publish); // guard dropped: no-op again
        assert_eq!(tl.get(Phase::Publish), None);
    }

    #[test]
    fn nested_installs_restore_the_outer_timeline() {
        let outer = Arc::new(OpTimeline::new());
        let inner = Arc::new(OpTimeline::new());
        let _a = set_current(&outer);
        {
            let _b = set_current(&inner);
            stamp_current(Phase::Apply);
        }
        stamp_current(Phase::Publish);
        assert!(inner.get(Phase::Apply).is_some());
        assert_eq!(inner.get(Phase::Publish), None);
        assert!(outer.get(Phase::Publish).is_some());
        assert_eq!(outer.get(Phase::Apply), None);
    }
}
