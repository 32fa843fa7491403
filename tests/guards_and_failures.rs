//! Failure-model tests: the library must fail loudly, *typedly*, and
//! recoverably at its documented limits — never by unwinding through the
//! caller — and degrade correctly on malformed or adversarial inputs.
//!
//! Three families:
//!
//! * **Budget guards** — the exponential enumerations (cover families,
//!   FD projection, subset iteration) charge the guard up front and
//!   return [`ExecError::BudgetExceeded`] instead of panicking.
//! * **Fault injection** — Algorithms 2 and 5 run their single-tuple
//!   selections through a retry policy: transient faults are retried to
//!   the fault-free answer, permanent ones surface as
//!   [`ExecError::Faulted`], and exhausted budgets as `BudgetExceeded` —
//!   never a panic, never a half-updated maintainer.
//! * **Cross-surface agreement** — the facade, the maintainers and the
//!   reference chase must agree on verdicts and answers over the paper's
//!   fixtures and random workloads.

use std::time::Duration;

use independence_reducible::core::maintain::{algorithm2, algorithm5, StateIndex};
use independence_reducible::core::query::minimal_lossless_covers;
use independence_reducible::exec::{
    Budget, ExecError, FaultInjector, FaultKind, FaultPlan, Guard, Resource, RetryPolicy,
};
use independence_reducible::prelude::*;
use independence_reducible::relation::rng::SplitMix64;
use independence_reducible::relation::RelationError;

// ---------------------------------------------------------------------------
// Budget guards: typed errors at the documented limits.
// ---------------------------------------------------------------------------

#[test]
fn cover_family_guard_returns_typed_error() {
    let u = Universe::of_chars("AB");
    let fds = FdSet::new();
    // A family beyond the u32-mask representation fails immediately —
    // typed, not a panic or a hang.
    let family = vec![u.set_of("AB"); 40];
    let err =
        minimal_lossless_covers(&family, &fds, u.set_of("A"), &Guard::unlimited()).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Enumeration,
                ..
            }
        ),
        "{err}"
    );
    // A representable family that exceeds the default enumeration backstop
    // (2^25 > DEFAULT_MAX_ENUMERATION = 2^22) also fails typed, up front.
    let family = vec![u.set_of("AB"); 25];
    let err =
        minimal_lossless_covers(&family, &fds, u.set_of("A"), &Guard::unlimited()).unwrap_err();
    assert!(err.is_resource_exhaustion(), "{err}");
    // And an explicit tiny budget trips with limit/spent observability.
    let family = vec![u.set_of("AB"); 5];
    let guard = Guard::new(Budget::unlimited().with_max_enumeration(10));
    match minimal_lossless_covers(&family, &fds, u.set_of("A"), &guard).unwrap_err() {
        ExecError::BudgetExceeded {
            resource: Resource::Enumeration,
            limit: 10,
            spent,
        } => assert_eq!(spent, 32, "2^5 charged up front"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn fd_projection_width_guard_returns_typed_error() {
    let mut u = Universe::new();
    for i in 0..25 {
        u.add(&format!("A{i}")).unwrap();
    }
    let f = FdSet::new();
    // 2^25 subsets exceed the default enumeration backstop.
    let err = independence_reducible::fd::project_fds_bounded(&f, u.all(), &Guard::unlimited())
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Enumeration,
                ..
            }
        ),
        "{err}"
    );
    // With an explicitly raised budget the same projection succeeds and
    // agrees with the panicking-guard implementation on a narrow scheme.
    let narrow = AttrSet::from_iter(u.all().iter().take(6));
    let guard = Guard::new(Budget::unlimited().with_max_enumeration(1 << 10));
    let bounded = independence_reducible::fd::project_fds_bounded(&f, narrow, &guard).unwrap();
    let reference = independence_reducible::fd::project::project_fds(&f, narrow);
    assert!(bounded.equivalent(&reference));
}

#[test]
fn subsets_guard_returns_typed_error() {
    let mut u = Universe::new();
    for i in 0..30 {
        u.add(&format!("A{i}")).unwrap();
    }
    // 2^30 > DEFAULT_MAX_ENUMERATION: typed refusal even on an unlimited
    // guard.
    let err = u.all().try_subsets(&Guard::unlimited()).err().unwrap();
    assert!(err.is_resource_exhaustion(), "{err}");
    // Small sets enumerate fully under a sufficient budget.
    let small = AttrSet::from_iter(u.all().iter().take(4));
    let guard = Guard::new(Budget::unlimited().with_max_enumeration(16));
    assert_eq!(small.try_subsets(&guard).unwrap().count(), 16);
    let snap = guard.snapshot();
    assert_eq!(snap.enumeration, 16);
}

#[test]
fn chase_honours_deadline_and_budget() {
    let db = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "AC", ["A"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&db);
    let mut sym = SymbolTable::new();
    // Two fragments sharing the key value: the chase must equate their
    // null columns, so at least one rule application is required.
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R1", &[("A", "a"), ("B", "b")]),
            ("R2", &[("A", "a"), ("C", "c")]),
        ],
    )
    .unwrap();
    // Zero-step budget: the chase must trip before applying any rule.
    let guard = Guard::new(Budget::unlimited().with_max_chase_steps(0));
    let mut t = independence_reducible::chase::Tableau::of_state(&db, &state);
    let err = chase(&mut t, kd.full(), &guard).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::ChaseSteps,
                ..
            }
        ),
        "{err}"
    );
    // Expired deadline: typed timeout.
    let guard = Guard::new(Budget::unlimited().with_timeout(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(2));
    let mut t = independence_reducible::chase::Tableau::of_state(&db, &state);
    let err = chase(&mut t, kd.full(), &guard).unwrap_err();
    assert!(matches!(err, ExecError::TimedOut { .. }), "{err}");
    // Cancellation: typed, checked at the same checkpoints.
    let guard = Guard::unlimited();
    guard.cancel_token().cancel();
    let mut t = independence_reducible::chase::Tableau::of_state(&db, &state);
    let err = chase(&mut t, kd.full(), &guard).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled), "{err}");
}

// ---------------------------------------------------------------------------
// Malformed inputs stay typed.
// ---------------------------------------------------------------------------

#[test]
fn fd_parse_errors_are_typed() {
    let u = Universe::of_chars("ABC");
    let err = FdSet::try_parse(&u, "AB>C").unwrap_err();
    assert!(format!("{err}").contains("expected `LHS->RHS`"));
    let err = FdSet::try_parse(&u, "AB->Z").unwrap_err();
    assert!(format!("{err}").contains("unknown attribute 'Z'"), "{err}");
    let err = FdSet::try_parse(&u, "->C").unwrap_err();
    assert!(format!("{err}").contains("empty"), "{err}");
    // The typed path agrees with the legacy panicking path on good input.
    let ok = FdSet::try_parse(&u, "AB->C, C->A").unwrap();
    assert!(ok.equivalent(&FdSet::parse(&u, "AB->C, C->A")));
}

#[test]
fn scheme_validation_errors_are_typed() {
    // Incomplete cover.
    let err = SchemeBuilder::new("ABC").scheme("R1", "AB", ["A"]).build();
    assert!(matches!(err, Err(RelationError::IncompleteCover)));
    // Key outside the scheme.
    let u = Universe::of_chars("AB");
    let err = RelationScheme::new("R", u.set_of("A"), vec![u.set_of("B")]);
    assert!(matches!(err, Err(RelationError::KeyNotEmbedded { .. })));
    // Errors render human-readably.
    let msg = format!("{}", err.unwrap_err());
    assert!(msg.contains("key"));
}

#[test]
fn maintainer_reports_inconsistent_base_state_block() {
    // IrMaintainer::new must refuse an inconsistent base state and name
    // the offending block in the typed error.
    let db = SchemeBuilder::new("ABCD")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "CD", ["C"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let mut sym = SymbolTable::new();
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R2", &[("C", "c"), ("D", "d1")]),
            ("R2", &[("C", "c"), ("D", "d2")]), // C→D violated
        ],
    )
    .unwrap();
    let err = IrMaintainer::new(&db, &ir, &state, &Guard::unlimited()).unwrap_err();
    // R2 is its own (singleton) block; blocks are ordered like schemes.
    match err {
        ExecError::Inconsistent { detail } => {
            assert!(detail.contains("block 1"), "{detail}")
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(ir.partition[1], vec![1]);
    // The engine facade treats the same state as a verdict, not an error,
    // and points at the same block.
    let engine = Engine::new(db);
    let hub = engine.hub(&state, &Guard::unlimited()).unwrap();
    assert!(!hub.is_consistent());
    assert_eq!(hub.inconsistent_blocks(), vec![1]);
}

// ---------------------------------------------------------------------------
// Fault-injection matrix for Algorithms 2 and 5.
// ---------------------------------------------------------------------------

/// A triangle of two-attribute schemes — one key-equivalent, split-free
/// block, so both Algorithm 2 (via the rep) and Algorithm 5 (via the
/// state index) apply, and inserts issue several selections.
fn triangle() -> (DatabaseScheme, KeyDeps, IrScheme, DatabaseState, SymbolTable) {
    let db = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A", "B"])
        .scheme("R2", "BC", ["B", "C"])
        .scheme("R3", "AC", ["A", "C"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let mut sym = SymbolTable::new();
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R1", &[("A", "a"), ("B", "b")]),
            ("R2", &[("B", "b"), ("C", "c")]),
        ],
    )
    .unwrap();
    (db, kd, ir, state, sym)
}

#[test]
fn algorithm2_fault_matrix() {
    let (db, _kd, ir, state, mut sym) = triangle();
    let g = Guard::unlimited();
    let rp = RetryPolicy::none();
    let m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
    let rep = &m.reps()[0];
    let t = Tuple::from_pairs([
        (db.universe().attr_of("A"), sym.intern("a")),
        (db.universe().attr_of("C"), sym.intern("c")),
    ]);
    let baseline = algorithm2(&db, rep, 2, &t, &g, &rp).unwrap().0;
    assert!(baseline.is_consistent());

    // Transient fault, retried: identical to the fault-free run.
    let inj = FaultInjector::new(rep, FaultPlan::nth(1, FaultKind::Transient));
    let (outcome, _) =
        algorithm2(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::retries(2)).unwrap();
    assert_eq!(outcome, baseline, "retried result must equal fault-free");
    assert_eq!(inj.faults_injected(), 1);

    // Transient fault, no retry budget: surfaces as Faulted{Transient}.
    let inj = FaultInjector::new(rep, FaultPlan::nth(1, FaultKind::Transient));
    let err =
        algorithm2(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::none()).unwrap_err();
    match err {
        ExecError::Faulted {
            kind: FaultKind::Transient,
            attempts: 1,
            ..
        } => {}
        other => panic!("wrong error: {other}"),
    }

    // Permanent fault: never retried, surfaces immediately even with a
    // generous retry policy.
    let inj = FaultInjector::new(rep, FaultPlan::nth(1, FaultKind::Permanent));
    let err =
        algorithm2(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::retries(5)).unwrap_err();
    match err {
        ExecError::Faulted {
            kind: FaultKind::Permanent,
            attempts: 1,
            ref operation,
        } => assert!(operation.contains("selection"), "{operation}"),
        ref other => panic!("wrong error: {other}"),
    }
    assert_eq!(inj.calls(), 1, "no retries after a permanent fault");

    // Exhausted lookup budget: typed BudgetExceeded, never a panic.
    let guard = Guard::new(Budget::unlimited().with_max_lookups(0));
    let err = algorithm2(&db, rep, 2, &t, &guard, &RetryPolicy::none()).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Lookups,
                ..
            }
        ),
        "{err}"
    );

    // Seeded flaky backend with retries: still converges to the baseline
    // (deterministically — the plan derives faults from the call number).
    let inj = FaultInjector::new(
        rep,
        FaultPlan::Seeded {
            seed: 0xFEED,
            pct: 40,
            kind: FaultKind::Transient,
        },
    );
    let (outcome, _) =
        algorithm2(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::retries(10)).unwrap();
    assert_eq!(outcome, baseline);
}

#[test]
fn algorithm5_fault_matrix() {
    let (db, _kd, ir, state, mut sym) = triangle();
    let g = Guard::unlimited();
    let idx = StateIndex::build(&db, &ir.partition[0], &state).unwrap();
    let t = Tuple::from_pairs([
        (db.universe().attr_of("A"), sym.intern("a")),
        (db.universe().attr_of("C"), sym.intern("c")),
    ]);
    let baseline = algorithm5(&db, &idx, 2, &t, &g, &RetryPolicy::none()).unwrap().0;
    assert!(baseline.is_consistent());

    // Transient + retry: identical outcome.
    let inj = FaultInjector::new(&idx, FaultPlan::nth(1, FaultKind::Transient));
    let (outcome, _) =
        algorithm5(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::retries(2)).unwrap();
    assert_eq!(outcome, baseline);
    assert_eq!(inj.faults_injected(), 1);

    // Permanent: typed Faulted.
    let inj = FaultInjector::new(&idx, FaultPlan::nth(1, FaultKind::Permanent));
    let err =
        algorithm5(&db, &inj, 2, &t, &Guard::unlimited(), &RetryPolicy::retries(5)).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::Faulted {
                kind: FaultKind::Permanent,
                ..
            }
        ),
        "{err}"
    );

    // Budget exhaustion: typed, never a panic.
    let guard = Guard::new(Budget::unlimited().with_max_lookups(0));
    let err = algorithm5(&db, &idx, 2, &t, &guard, &RetryPolicy::none()).unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BudgetExceeded {
                resource: Resource::Lookups,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn failed_insert_leaves_maintainer_unchanged() {
    let (db, kd, ir, state, mut sym) = triangle();
    let g = Guard::unlimited();
    let rp = RetryPolicy::none();
    let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
    let before: Vec<Tuple> = m.reps()[0].iter().cloned().collect();
    let t = Tuple::from_pairs([
        (db.universe().attr_of("A"), sym.intern("a")),
        (db.universe().attr_of("C"), sym.intern("c")),
    ]);
    // Decision phase trips the budget: nothing may have been applied.
    let guard = Guard::new(Budget::unlimited().with_max_lookups(0));
    let err = m.insert(2, t.clone(), &guard, &rp).unwrap_err();
    assert!(err.is_resource_exhaustion(), "{err}");
    let after: Vec<Tuple> = m.reps()[0].iter().cloned().collect();
    assert_eq!(before, after, "failed decision must not mutate the rep");
    // With an ample budget the same insert succeeds and matches a fresh
    // maintainer fed the same tuple.
    let mut m2 = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
    let (o1, _) = m.insert(2, t.clone(), &g, &rp).unwrap();
    let (o2, _) = m2.insert(2, t, &g, &rp).unwrap();
    assert_eq!(o1, o2);
    assert_eq!(
        m.total_projection(&kd, db.universe().set_of("AC"), &g).unwrap(),
        m2.total_projection(&kd, db.universe().set_of("AC"), &g).unwrap()
    );
}

#[test]
fn query_and_maintenance_agree_with_the_engine_on_random_workloads() {
    let mut master = SplitMix64::new(0xABCD);
    let mut exercised = 0;
    for case in 0..60 {
        let mut rng = master.split();
        let width = rng.gen_range_inclusive(3, 6);
        let n = rng.gen_range_inclusive(2, 5);
        let Some(db) =
            independence_reducible::workload::generators::random_scheme(&mut rng, width, n)
        else {
            continue;
        };
        let kd = KeyDeps::of(&db);
        let Some(ir) = recognize(&db, &kd).accepted() else {
            continue;
        };
        let mut sym = SymbolTable::new();
        let w = independence_reducible::workload::states::generate(
            &db,
            &mut sym,
            independence_reducible::workload::states::WorkloadConfig {
                entities: 8,
                fragment_pct: 50,
                inserts: 4,
                corrupt_pct: 40,
                seed: rng.next_u64(),
            },
        );
        exercised += 1;
        let guard = Guard::unlimited();
        // Query path: the Theorem 4.1 expressions against the engine's
        // session (which serves the same query through its expr cache).
        let x = db.scheme(rng.gen_range(0, db.len())).attrs();
        let direct = ir_total_projection(&db, &kd, &ir, &w.state, x, &guard).unwrap();
        let engine = Engine::new(db.clone());
        let via_engine = engine.total_projection(&w.state, x, &guard).unwrap();
        let consistent = is_consistent(&db, &w.state, kd.full(), &guard).unwrap();
        match via_engine {
            Some(rows) => {
                assert!(consistent, "case {case}");
                assert_eq!(rows, direct.sorted_tuples(), "case {case}: X = {x:?}");
            }
            None => assert!(!consistent, "case {case}"),
        }
        // Maintenance path: two maintainers fed the same stream agree.
        if consistent {
            let mut m1 = IrMaintainer::new(&db, &ir, &w.state, &guard).unwrap();
            let mut m2 = IrMaintainer::new(&db, &ir, &w.state, &guard).unwrap();
            for (i, t) in &w.inserts {
                let (o1, s1) = m1.insert(*i, t.clone(), &guard, &RetryPolicy::none()).unwrap();
                let (o2, s2) = m2
                    .insert(*i, t.clone(), &guard, &RetryPolicy::retries(3))
                    .unwrap();
                assert_eq!(o1, o2, "case {case}: insert {t:?} into {i}");
                assert_eq!(s1.lookups, s2.lookups, "case {case}: metering parity");
            }
        }
    }
    assert!(exercised > 10, "too few accepted schemes exercised ({exercised})");
}

#[test]
fn empty_state_everything_degrades_gracefully() {
    let db = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A", "B"])
        .scheme("R2", "BC", ["B", "C"])
        .scheme("R3", "AC", ["A", "C"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let empty = DatabaseState::empty(&db);
    let g = Guard::unlimited();
    let mut m = IrMaintainer::new(&db, &ir, &empty, &g).unwrap();
    // Queries on the empty state are empty.
    assert!(m
        .total_projection(&kd, db.universe().set_of("AC"), &g)
        .unwrap()
        .is_empty());
    // So is the engine's answer.
    let engine = Engine::new(db.clone());
    assert_eq!(
        engine
            .total_projection(&empty, db.universe().set_of("AC"), &g)
            .unwrap(),
        Some(Vec::new())
    );
    // The first insert into the empty state is always consistent.
    let mut sym = SymbolTable::new();
    let t = Tuple::from_pairs([
        (db.universe().attr_of("A"), sym.intern("a")),
        (db.universe().attr_of("B"), sym.intern("b")),
    ]);
    assert!(m
        .insert(0, t, &g, &RetryPolicy::none())
        .unwrap()
        .0
        .is_consistent());
}

#[test]
fn duplicate_insert_is_consistent_and_idempotent() {
    let db = SchemeBuilder::new("AB")
        .scheme("R1", "AB", ["A"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let mut sym = SymbolTable::new();
    let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
    let g = Guard::unlimited();
    let rp = RetryPolicy::none();
    let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
    let t = Tuple::from_pairs([
        (db.universe().attr_of("A"), sym.intern("a")),
        (db.universe().attr_of("B"), sym.intern("b")),
    ]);
    assert!(m.insert(0, t.clone(), &g, &rp).unwrap().0.is_consistent());
    assert!(m.insert(0, t, &g, &rp).unwrap().0.is_consistent());
    assert_eq!(m.reps()[0].len(), 1);
}

/// Theorem 5.4 directly: AUG of the baseline classes is accepted.
#[test]
fn theorem_5_4_augmented_baselines_accepted() {
    use independence_reducible::core::augment::augment;
    // AUG of an independent scheme (Example 1's S).
    let s = SchemeBuilder::new("CTHRSG")
        .scheme("S1", "HRCT", ["HR", "HT"])
        .scheme("S2", "CSG", ["CS"])
        .scheme("S3", "HSR", ["HS"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&s);
    let aug = augment(&s, &kd, "A1", s.universe().set_of("HR"));
    let kd2 = KeyDeps::of(&aug);
    assert!(recognize(&aug, &kd2).is_accepted());

    // AUG of a γ-acyclic BCNF chain.
    let c = SchemeBuilder::new("ABCD")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "BC", ["B"])
        .scheme("R3", "CD", ["C"])
        .build()
        .unwrap();
    let kd = KeyDeps::of(&c);
    assert!(independence_reducible::core::baselines::is_gamma_acyclic_bcnf(&c, &kd));
    let aug = augment(&c, &kd, "A1", c.universe().set_of("B"));
    let kd2 = KeyDeps::of(&aug);
    assert!(recognize(&aug, &kd2).is_accepted());
    // The augmentation itself is no longer γ-acyclic-relevant — the class
    // membership is preserved by Theorem 4.3, not by re-testing acyclicity.
}
