//! In-process fuzzing smoke runs. The lockstep run is the test-suite
//! twin of the CI step `idr fuzz --seed 42 --cases 100`: a bounded
//! number of generated cases must replay with zero divergences across
//! the four oracles (parallel session, serial session, naive chase,
//! Theorem 4.1 expressions). The metrics run pins that every arm
//! reports into the campaign's registry, which is what `idr fuzz
//! --metrics` dumps.

use std::sync::Arc;

use independence_reducible::obs::MetricsRegistry;
use independence_reducible::oracle::{
    batch_fuzz, concurrent_crash_fuzz, concurrent_fuzz, crash_fuzz, fuzz, sync_fuzz, Campaign,
};
use independence_reducible::sync::Transport;

#[test]
fn bounded_fuzz_is_divergence_free() {
    let summary = fuzz(Campaign::new(42, 100), false);
    assert_eq!(summary.cases, 100);
    assert!(summary.counters.ops_run > 0, "no ops executed");
    assert!(
        summary.is_clean(),
        "divergences:\n{}",
        summary
            .failures
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Runs one arm's campaign and returns its failure count.
type Arm = fn(Campaign<'static>) -> usize;

#[test]
fn every_arm_leaves_counters_in_its_registry() {
    let arms: [(&str, Arm); 7] = [
        ("lockstep", |c| fuzz(c, false).failures.len()),
        ("batch", |c| batch_fuzz(c).failures.len()),
        ("crash", |c| crash_fuzz(c).failures.len()),
        ("concurrent crash", |c| {
            concurrent_crash_fuzz(c).failures.len()
        }),
        ("sync", |c| sync_fuzz(c, Transport::Sim).failures.len()),
        ("wire sync", |c| {
            sync_fuzz(c, Transport::Wire).failures.len()
        }),
        ("concurrent", |c| concurrent_fuzz(c).failures.len()),
    ];
    for (name, run) in arms {
        let registry = Arc::new(MetricsRegistry::new());
        let failures = run(Campaign {
            metrics: Some(Arc::clone(&registry)),
            ..Campaign::new(11, 2)
        });
        assert_eq!(failures, 0, "{name}");
        let snapshot = registry.snapshot();
        assert!(
            snapshot.counters.iter().any(|(_, v)| *v > 0),
            "{name} left no counter: {}",
            snapshot.to_json()
        );
    }
}
