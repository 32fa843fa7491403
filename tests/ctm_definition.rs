//! The formal ctm definition of §2.7, checked against the shipped
//! Algorithm 5 (`maintain::algorithm5`), whose selections a
//! `SelectionRecorder` logs as it runs:
//!
//! 1. **Single-tuple**: every selection Algorithm 5 issues returns at most
//!    one tuple (it uses key-equality lookups over locally consistent
//!    relations).
//! 2. **Definedness**: each selection's constants come from the inserted
//!    tuple or from tuples returned by earlier selections
//!    (`CST(Φᵢ) ⊆ CST({t} ∪ σ_{Φ1}(…) ∪ … ∪ σ_{Φi−1}(…))`).
//! 3. **Constancy**: the number of selections depends only on `R` and `F`
//!    — across states of wildly different sizes the trace length for a
//!    given (scheme, insert-shape) stays within a fixed bound.

use std::collections::HashSet;

use independence_reducible::core::maintain::{
    algorithm5, MaintenanceStats, SelectionStep, StateIndex,
};
use independence_reducible::core::recognition::recognize;
use independence_reducible::exec::SelectionRecorder;
use independence_reducible::prelude::*;
use independence_reducible::workload::generators;
use independence_reducible::workload::states::{generate, WorkloadConfig};

/// Inserts `t` into scheme `si` with Algorithm 5 over `idx` (unlimited
/// guard, no retries) and returns its stats and selection trace.
fn recorded_algorithm5(
    db: &DatabaseScheme,
    idx: &StateIndex,
    si: usize,
    t: &Tuple,
) -> (MaintenanceStats, Vec<SelectionStep>) {
    let recorder = SelectionRecorder::new(idx);
    let (_, stats) = algorithm5(
        db,
        &recorder,
        si,
        t,
        &Guard::unlimited(),
        &RetryPolicy::none(),
    )
    .unwrap();
    (stats, recorder.into_steps())
}

fn split_free_families() -> Vec<DatabaseScheme> {
    vec![
        generators::chain_scheme(6),
        generators::cycle_scheme(5),
        generators::star_scheme(4),
        generators::block_chain_scheme(2, 4),
    ]
}

#[test]
fn selection_sequences_are_defined_on_the_instance() {
    for db in split_free_families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let w = generate(
            &db,
            &mut sym,
            WorkloadConfig {
                entities: 40,
                fragment_pct: 60,
                inserts: 25,
                corrupt_pct: 40,
                seed: 99,
            },
        );
        for (i, t) in &w.inserts {
            let b = ir.block_of[*i];
            let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
            let (_, trace) = recorded_algorithm5(&db, &idx, *i, t);
            // Known constants start as CST(t) and grow with each result.
            let mut known: HashSet<Value> = t.constants().into_iter().collect();
            for (step_no, step) in trace.iter().enumerate() {
                for v in &step.values {
                    assert!(
                        known.contains(v),
                        "step {step_no} of the trace uses a constant not yet retrieved"
                    );
                }
                if let Some(p) = &step.result {
                    known.extend(p.constants());
                }
            }
        }
    }
}

#[test]
fn trace_length_is_independent_of_state_size() {
    for db in split_free_families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        // For each scheme, insert a fresh-entity tuple into states of
        // growing size and record the trace length.
        let mut lengths_per_scheme: Vec<HashSet<usize>> = vec![HashSet::new(); db.len()];
        for entities in [10usize, 100, 1000] {
            let mut sym = SymbolTable::new();
            let w = generate(
                &db,
                &mut sym,
                WorkloadConfig {
                    entities,
                    fragment_pct: 60,
                    inserts: 0,
                    corrupt_pct: 0,
                    seed: 5,
                },
            );
            for (i, lens) in lengths_per_scheme.iter_mut().enumerate() {
                let t = independence_reducible::workload::states::entity_tuple(
                    &db,
                    &mut sym,
                    entities + 1,
                )
                .project(db.scheme(i).attrs());
                let b = ir.block_of[i];
                let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
                let (stats, trace) = recorded_algorithm5(&db, &idx, i, &t);
                assert_eq!(stats.lookups, trace.len());
                lens.insert(trace.len());
            }
        }
        // A fresh-entity insert sees the same misses regardless of how big
        // the state is: the trace length is a function of (R, F, scheme).
        for (i, lens) in lengths_per_scheme.iter().enumerate() {
            assert_eq!(
                lens.len(),
                1,
                "scheme {i}: trace length varied with state size: {lens:?}"
            );
        }
    }
}

#[test]
fn selections_are_single_tuple() {
    // StateIndex lookups return at most one tuple by construction; this
    // asserts the *observable* contract on a workload with heavy key
    // sharing.
    let db = generators::cycle_scheme(4);
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let mut sym = SymbolTable::new();
    let w = generate(
        &db,
        &mut sym,
        WorkloadConfig {
            entities: 60,
            fragment_pct: 90,
            inserts: 15,
            corrupt_pct: 0,
            seed: 123,
        },
    );
    for (i, t) in &w.inserts {
        let b = ir.block_of[*i];
        let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
        let (_, trace) = recorded_algorithm5(&db, &idx, *i, t);
        for step in trace {
            if let Some(p) = step.result {
                // The returned tuple really matches the formula.
                for (a, v) in step.key.iter().zip(step.values.iter()) {
                    assert_eq!(p.value(a), *v);
                }
            }
        }
    }
}
