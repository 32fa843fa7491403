//! Batched replay equals per-op replay.
//!
//! Recovery and replication replay a log through
//! [`WriteHandle::replay`], which applies contiguous records as
//! `apply_batch` units of at most [`REPLAY_UNIT`] records. Its contract
//! is observational equivalence with a loop of one-record
//! [`WriteHandle::replay_op`] calls: same per-record outcomes, same
//! rendered state, same re-rejection count ([`RecoveryStats::rejected`])
//! and same consistency verdict. These tests pin it over tails longer
//! than the unit cap, from a consistent snapshot and from one whose
//! block is poisoned (inserts into it re-reject until a delete restores
//! consistency), and with a malformed record mid-unit.

use std::sync::Arc;

use independence_reducible::core::{ReplayError, ReplayOutcome, REPLAY_UNIT};
use independence_reducible::exec::Guard;
use independence_reducible::prelude::*;
use independence_reducible::relation::parse::{parse_scheme, parse_state, render_tuple_line};
use independence_reducible::relation::rng::SplitMix64;
use independence_reducible::store::{self, RecoveryStats};

/// Two independent single-key relations: two IR blocks.
fn scheme() -> DatabaseScheme {
    parse_scheme(
        "universe: A B C D\n\
         scheme R1: A B keys A\n\
         scheme R2: C D keys C\n",
    )
    .unwrap()
}

/// `n` deterministic op records over a small key space, so inserts
/// collide on keys (rejections), deletes hit present and absent
/// tuples, and both blocks see runs of each.
fn tail(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let verb = if rng.gen_pct(25) { "delete" } else { "insert" };
            let (k, v) = (rng.gen_range(0, 40), rng.gen_range(0, 3));
            if rng.gen_pct(50) {
                format!("{verb} R1: A=a{k} B=b{v}")
            } else {
                format!("{verb} R2: C=c{k} D=d{v}")
            }
        })
        .collect()
}

/// One replay's observable result: per-record outcomes (`None` for a
/// malformed record), sorted rendered state, consistency.
type Observed = (Vec<Option<ReplayOutcome>>, Vec<String>, bool);

/// Builds a hub over `snapshot` and hands its writer and symbol table to
/// `run`; returns what `run` observed plus the final state and verdict.
fn replay_with(
    snapshot: &str,
    run: impl FnOnce(&WriteHandle, &mut SymbolTable) -> Vec<Option<ReplayOutcome>>,
) -> Observed {
    let db = scheme();
    let mut symbols = SymbolTable::new();
    let state = parse_state(snapshot, &db, &mut symbols).unwrap();
    let engine = Engine::new(db.clone());
    let hub = engine.hub(&state, &Guard::unlimited()).unwrap();
    let outcomes = run(&hub.write_handle(), &mut symbols);
    let view = hub.read_view();
    let mut lines: Vec<String> = view
        .state()
        .iter_all()
        .map(|(i, t)| render_tuple_line(&db, &symbols, i, t))
        .collect();
    lines.sort();
    (outcomes, lines, view.is_consistent())
}

/// The reference: one `replay_op` per record.
fn per_op(snapshot: &str, records: &[String]) -> Observed {
    replay_with(snapshot, |w, symbols| {
        let g = Guard::unlimited();
        records
            .iter()
            .map(|line| match w.replay_op(line, symbols, &g) {
                Ok(o) => Some(o),
                Err(ReplayError::Malformed { .. }) => None,
                Err(e) => panic!("{line}: {e}"),
            })
            .collect()
    })
}

/// The batched loop, collecting every record's outcome.
fn batched(snapshot: &str, records: &[String]) -> Observed {
    replay_with(snapshot, |w, symbols| {
        let mut outcomes = Vec::new();
        w.replay(
            records.iter().map(String::as_str),
            symbols,
            &Guard::unlimited(),
            |line, r| {
                outcomes.push(match r {
                    Ok(o) => Some(o),
                    Err(ReplayError::Malformed { .. }) => None,
                    Err(e) => panic!("{line}: {e}"),
                });
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        outcomes
    })
}

/// Recovery's replay, which counts re-rejections into its stats.
fn recovery_stats(snapshot: &str, records: &[String]) -> (RecoveryStats, Observed) {
    let mut stats = RecoveryStats::default();
    let observed = replay_with(snapshot, |w, symbols| {
        store::replay(w, symbols, records, &mut stats).unwrap();
        Vec::new()
    });
    (stats, observed)
}

/// Asserts all three replays agree, and returns the reference.
fn assert_equivalent(snapshot: &str, records: &[String]) -> Observed {
    let reference = per_op(snapshot, records);
    assert_eq!(batched(snapshot, records), reference);
    let (stats, (_, lines, consistent)) = recovery_stats(snapshot, records);
    let rejected = reference
        .0
        .iter()
        .filter(|o| **o == Some(ReplayOutcome::Rejected))
        .count();
    assert_eq!(stats.replayed, records.len());
    assert_eq!(stats.rejected, rejected);
    assert_eq!((lines, consistent), (reference.1.clone(), reference.2));
    reference
}

#[test]
fn batched_replay_equals_per_op_past_the_unit_cap() {
    for seed in [1, 2, 3] {
        let records = tail(seed, 2 * REPLAY_UNIT + 517);
        let (outcomes, lines, consistent) = assert_equivalent("", &records);
        assert!(consistent);
        assert!(!lines.is_empty());
        assert!(
            outcomes.contains(&Some(ReplayOutcome::Rejected)),
            "seed {seed}: the tail exercises re-rejection"
        );
    }
}

#[test]
fn a_consistent_tail_replays_in_units_of_the_cap() {
    // Each write unit folds one timeline into the per-phase histograms,
    // so the `apply` observations count the units replay made.
    let records = tail(4, 2 * REPLAY_UNIT + 517);
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(scheme()).with_observability(Observability {
        metrics: Some(Arc::clone(&registry)),
        ..Observability::none()
    });
    let hub = engine
        .hub(&DatabaseState::empty(engine.scheme()), &Guard::unlimited())
        .unwrap();
    let mut stats = RecoveryStats::default();
    store::replay(
        &hub.write_handle(),
        &mut SymbolTable::new(),
        &records,
        &mut stats,
    )
    .unwrap();
    assert_eq!(stats.replayed, records.len());
    let units = registry
        .latency_histogram("pipeline.us{phase=apply}")
        .count();
    assert_eq!(
        units,
        3,
        "{} records in units of {REPLAY_UNIT}",
        records.len()
    );
}

#[test]
fn batched_replay_equals_per_op_over_a_poisoned_block() {
    // Block T1 starts poisoned: two R1 tuples clash on key A. Its inserts
    // re-reject until the delete at position REPLAY_UNIT + 300 removes
    // the clash; from there on the tail replays in batches again.
    let snapshot = "R1: A=a B=b1\nR1: A=a B=b2\nR2: C=c D=d\n";
    let mut records = tail(7, 2 * REPLAY_UNIT + 100);
    records.insert(REPLAY_UNIT + 300, "delete R1: A=a B=b2".to_string());
    let (outcomes, _, consistent) = assert_equivalent(snapshot, &records);
    assert!(consistent, "the delete restored consistency");
    let r1_insert_before_fix = records[..REPLAY_UNIT + 300]
        .iter()
        .position(|l| l.starts_with("insert R1"))
        .unwrap();
    assert_eq!(
        outcomes[r1_insert_before_fix],
        Some(ReplayOutcome::Rejected),
        "an insert into the poisoned block re-rejects"
    );

    // Without the fix the block stays poisoned through the whole tail.
    let records = tail(8, REPLAY_UNIT + 40);
    let (_, _, consistent) = assert_equivalent(snapshot, &records);
    assert!(!consistent);
}

#[test]
fn a_malformed_record_splits_the_unit_around_it() {
    let mut records = tail(9, 600);
    records.insert(250, "upsert R1: A=a B=b".to_string());
    let (outcomes, _, _) = per_op("", &records);
    assert_eq!(outcomes[250], None);
    assert_eq!(batched("", &records), per_op("", &records));

    // Stopping at the malformed record leaves exactly the records before
    // it applied.
    let (_, stopped, _) = replay_with("", |w, symbols| {
        let r = w.replay(
            records.iter().map(String::as_str),
            symbols,
            &Guard::unlimited(),
            |line, r| match r {
                Ok(_) => Ok(()),
                Err(_) => Err(line.to_string()),
            },
        );
        assert_eq!(r, Err("upsert R1: A=a B=b".to_string()));
        Vec::new()
    });
    assert_eq!(stopped, per_op("", &records[..250]).1);
}
