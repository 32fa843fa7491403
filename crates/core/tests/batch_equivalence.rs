//! Tier-1 batch==per-op equivalence.
//!
//! The batch pipeline's contract is observational equivalence with
//! per-op serial application: same per-op verdicts, same final state,
//! same consistency verdict. The fuzzing arm (`idr fuzz --batch`)
//! checks this over random schemes; these tests pin it over every
//! scheme the paper actually names — all thirteen worked examples,
//! accepted and rejected inserts, deletes of present and absent tuples,
//! frames of mixed sizes — plus one 10^5-tuple bulk family, and a
//! structural pin that a rejected insert or a delete repairs only the
//! rows it touched.

use std::sync::Arc;

use idr_core::exec::Guard;
use idr_core::serving::BatchOp;
use idr_core::{Engine, Observability};
use idr_obs::MetricsRegistry;
use idr_relation::rng::SplitMix64;
use idr_relation::{DatabaseState, SymbolTable, Tuple};
use idr_workload::paper_examples;
use idr_workload::scale::{bulk_families, bulk_inserts};
use idr_workload::states::{generate, WorkloadConfig};

/// Sorted relation/tuple dump — `DatabaseState` has no `PartialEq`, and
/// order must not matter anyway.
fn dump(state: &DatabaseState) -> Vec<(usize, Tuple)> {
    let mut all: Vec<(usize, Tuple)> = state.iter_all().map(|(i, t)| (i, t.clone())).collect();
    all.sort();
    all
}

/// Cuts `ops` into deterministic frames of cycling sizes (1, 3, 2, 5,
/// 4, ...) and applies them through `apply_batch`; returns the
/// concatenated verdicts and the hub's final state + verdict.
fn apply_framed(
    engine: &Engine,
    state: &DatabaseState,
    ops: &[BatchOp],
    g: &Guard,
) -> (Vec<bool>, Vec<(usize, Tuple)>, bool) {
    let hub = engine.hub(state, g).expect("consistent base state");
    let writer = hub.write_handle();
    let mut verdicts = Vec::with_capacity(ops.len());
    let sizes = [1usize, 3, 2, 5, 4];
    let mut next = 0;
    let mut k = 0;
    while next < ops.len() {
        let sz = sizes[k % sizes.len()].min(ops.len() - next);
        k += 1;
        let group = &ops[next..next + sz];
        next += sz;
        verdicts.extend(writer.apply_batch(group, g).expect("batch within budget"));
    }
    let view = hub.read_view();
    let final_state = dump(view.state());
    let consistent = view.is_consistent();
    (verdicts, final_state, consistent)
}

/// The same ops one at a time.
fn apply_serial(
    engine: &Engine,
    state: &DatabaseState,
    ops: &[BatchOp],
    g: &Guard,
) -> (Vec<bool>, Vec<(usize, Tuple)>, bool) {
    let hub = engine.hub(state, g).expect("consistent base state");
    let writer = hub.write_handle();
    let verdicts: Vec<bool> = ops
        .iter()
        .map(|op| match op {
            BatchOp::Insert { rel, t } => writer.insert(*rel, t.clone(), g).expect("insert"),
            BatchOp::Delete { rel, t } => writer.delete(*rel, t, g).expect("delete"),
        })
        .collect();
    let view = hub.read_view();
    let final_state = dump(view.state());
    let consistent = view.is_consistent();
    (verdicts, final_state, consistent)
}

#[test]
fn batch_equals_per_op_on_every_paper_fixture() {
    let g = Guard::unlimited();
    for fixture in paper_examples() {
        let db = fixture.scheme;
        let mut sym = SymbolTable::new();
        // A consistent seeded state plus a mixed insert stream: fresh
        // entities (accepted) and corrupted cross-entity tuples (mostly
        // rejected).
        let w = generate(
            &db,
            &mut sym,
            WorkloadConfig {
                entities: 12,
                fragment_pct: 60,
                inserts: 24,
                corrupt_pct: 40,
                seed: 0x9A7C4 ^ fixture.name.len() as u64,
            },
        );
        // Interleave deletes: every fourth op deletes an earlier insert's
        // tuple (present if that insert was accepted and not yet deleted,
        // absent otherwise) — both delete verdicts get exercised.
        let mut ops: Vec<BatchOp> = Vec::new();
        let mut rng = SplitMix64::new(0xDE1E7E);
        for (k, (i, t)) in w.inserts.iter().enumerate() {
            ops.push(BatchOp::Insert {
                rel: *i,
                t: t.clone(),
            });
            if k % 4 == 3 {
                let (j, tj) = &w.inserts[rng.gen_range(0, k + 1)];
                ops.push(BatchOp::Delete {
                    rel: *j,
                    t: tj.clone(),
                });
            }
        }
        let engine = Engine::new(db.clone());
        let batch = apply_framed(&engine, &w.state, &ops, &g);
        let serial = apply_serial(&engine, &w.state, &ops, &g);
        assert_eq!(
            batch.0, serial.0,
            "{}: batch verdicts != per-op verdicts",
            fixture.name
        );
        assert_eq!(
            batch.1, serial.1,
            "{}: batch final state != per-op final state",
            fixture.name
        );
        assert_eq!(batch.2, serial.2, "{}: consistency differs", fixture.name);
    }
}

#[test]
fn batch_equals_per_op_on_a_100k_tuple_family() {
    let g = Guard::unlimited();
    let (name, db) = bulk_families()
        .into_iter()
        .find(|(n, _)| *n == "block_chain(4,4)")
        .expect("family exists");
    let mut sym = SymbolTable::new();
    let ops: Vec<BatchOp> = bulk_inserts(&db, &mut sym, 100_000)
        .into_iter()
        .map(|(i, t)| BatchOp::Insert { rel: i, t })
        .collect();
    let engine = Engine::new(db.clone());
    let empty = DatabaseState::empty(&db);

    let hub = engine.hub(&empty, &g).expect("empty state");
    let batch_verdicts = hub
        .write_handle()
        .apply_batch(&ops, &g)
        .expect("bulk batch");
    assert!(
        batch_verdicts.iter().all(|&v| v),
        "{name}: bulk stream must be accepted wholesale"
    );

    let hub2 = engine.hub(&empty, &g).expect("empty state");
    let writer = hub2.write_handle();
    for op in &ops {
        let BatchOp::Insert { rel, t } = op else {
            unreachable!()
        };
        assert!(writer.insert(*rel, t.clone(), &g).expect("insert"));
    }

    assert_eq!(
        dump(hub.read_view().state()),
        dump(hub2.read_view().state()),
        "{name}: batch and per-op states diverge at 10^5 tuples"
    );
    assert!(hub.read_view().is_consistent());
}

/// Parses `lines` into the state and `ops` (`+`/`-` prefixed tuple
/// lines) of a two-block scheme `R1: A B keys A`, `R2: C D keys C`.
fn two_block_case(lines: &str, ops: &[&str]) -> (Engine, DatabaseState, Vec<BatchOp>) {
    use idr_relation::parse::{parse_scheme, parse_state, parse_tuple_line};
    let db =
        parse_scheme("universe: A B C D\nscheme R1: A B keys A\nscheme R2: C D keys C\n").unwrap();
    let mut sym = SymbolTable::new();
    let state = parse_state(lines, &db, &mut sym).unwrap();
    let ops = ops
        .iter()
        .map(|op| {
            let (rel, t) = parse_tuple_line(&op[1..], &db, &mut sym).unwrap();
            match &op[..1] {
                "+" => BatchOp::Insert { rel, t },
                _ => BatchOp::Delete { rel, t },
            }
        })
        .collect();
    (Engine::new(db), state, ops)
}

#[test]
fn batch_equals_per_op_on_a_poisoned_block() {
    // Block T1 starts inconsistent (two R1 tuples clash on key A).
    // Serially, deleting the offender restores consistency; the same
    // delete as a group must do the same, not refuse the group because
    // the block was poisoned when it started.
    let g = Guard::unlimited();
    let base = "R1: A=a B=b1\nR1: A=a B=b2\nR2: C=c D=d\n";
    let (engine, state, ops) = two_block_case(base, &["-R1: A=a B=b2"]);
    let batch_hub = engine.hub(&state, &g).unwrap();
    assert!(!batch_hub.is_consistent());
    assert_eq!(
        batch_hub.write_handle().apply_batch(&ops, &g).unwrap(),
        vec![true]
    );
    assert!(batch_hub.is_consistent());
    assert_eq!(apply_serial(&engine, &state, &ops, &g), {
        let v = batch_hub.read_view();
        (vec![true], dump(v.state()), v.is_consistent())
    });

    // A delete then an insert in one group: the insert meets the tableau
    // the delete's rebuild restored, so it is accepted, as serially.
    let (engine, state, ops) = two_block_case(base, &["-R1: A=a B=b2", "+R1: A=a2 B=b"]);
    let serial = apply_serial(&engine, &state, &ops, &g);
    assert_eq!(serial.0, vec![true, true]);
    let hub = engine.hub(&state, &g).unwrap();
    assert_eq!(hub.write_handle().apply_batch(&ops, &g).unwrap(), serial.0);
    assert_eq!(dump(hub.read_view().state()), serial.1);
}

#[test]
fn a_group_of_deletes_in_a_poisoned_block_rebuilds_it_once() {
    // A poisoned chase stopped part-way, so its deletes are not
    // retracted: the block is rebuilt from the substate once per group,
    // however many deletes the group holds — here three, the middle one
    // removing the clash.
    let g = Guard::unlimited();
    let base = "R1: A=a B=b1\nR1: A=a B=b2\nR1: A=x B=y\nR1: A=z B=w\nR2: C=c D=d\n";
    let deletes = ["-R1: A=x B=y", "-R1: A=a B=b2", "-R1: A=z B=w"];
    let (engine, state, ops) = two_block_case(base, &deletes);
    let serial = apply_serial(&engine, &state, &ops, &g);
    assert_eq!(serial.0, vec![true, true, true]);
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = engine.with_observability(Observability {
        metrics: Some(Arc::clone(&metrics)),
        ..Observability::none()
    });
    let hub = engine.hub(&state, &g).unwrap();
    assert!(!hub.is_consistent());
    let verdicts = hub.write_handle().apply_batch(&ops, &g).unwrap();
    let v = hub.read_view();
    assert_eq!((verdicts, dump(v.state()), v.is_consistent()), serial);
    assert_eq!(metrics.counter("hub.block_rebuilds").get(), 1);
}

#[test]
fn an_insert_into_a_poisoned_block_fails_the_whole_group() {
    // Block T2 is poisoned. The group first edits T1 (an accepted insert
    // and a delete), then inserts into T2: that insert fails exactly as
    // it fails on its own, and the T1 edits are undone — a failed group
    // applies nothing.
    let g = Guard::unlimited();
    let base = "R1: A=a B=b\nR2: C=c D=d1\nR2: C=c D=d2\n";
    let (engine, state, ops) =
        two_block_case(base, &["+R1: A=a2 B=b", "-R1: A=a B=b", "+R2: C=c9 D=d"]);
    let hub = engine.hub(&state, &g).unwrap();
    let w = hub.write_handle();
    let err = w.apply_batch(&ops, &g).unwrap_err();
    assert!(
        matches!(err, idr_core::ExecError::Inconsistent { .. }),
        "{err:?}"
    );
    assert_eq!(
        dump(hub.read_view().state()),
        dump(&state),
        "nothing applied"
    );
    let BatchOp::Insert { rel, t } = &ops[2] else {
        unreachable!()
    };
    assert!(matches!(
        w.insert(*rel, t.clone(), &g),
        Err(idr_core::ExecError::Inconsistent { .. })
    ));
    // The undone T1 tableau still serves: the same T1 ops apply alone.
    assert_eq!(w.apply_batch(&ops[..2], &g).unwrap(), vec![true, true]);
}

/// A `block_chain(4,4)` hub over `tuples` bulk fragments (entity `e`'s
/// fragments share values, distinct entities share nothing), with a
/// metrics registry attached.
fn block_chain_hub_case(
    tuples: usize,
) -> (Engine, DatabaseState, SymbolTable, Arc<MetricsRegistry>) {
    let (_, db) = bulk_families()
        .into_iter()
        .find(|(n, _)| *n == "block_chain(4,4)")
        .expect("family exists");
    let mut sym = SymbolTable::new();
    let mut state = DatabaseState::empty(&db);
    for (i, t) in bulk_inserts(&db, &mut sym, tuples) {
        state.insert(i, t).unwrap();
    }
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(db).with_observability(Observability {
        metrics: Some(Arc::clone(&metrics)),
        ..Observability::none()
    });
    (engine, state, sym, metrics)
}

/// `t` with its value on the scheme's second attribute replaced by a
/// fresh one — on `block_chain`, where both attributes of a relation
/// are keys, a violation of the first attribute's key.
fn violating(engine: &Engine, rel: usize, t: &Tuple, sym: &mut SymbolTable) -> Tuple {
    let second = engine.scheme().scheme(rel).attrs().iter().nth(1).unwrap();
    let fresh = sym.intern("fresh#violation");
    Tuple::from_pairs(
        t.iter()
            .map(|(a, v)| (a, if a == second { fresh } else { v })),
    )
}

#[test]
fn a_reject_or_a_delete_re_chases_its_component_not_its_block() {
    // ~10^4 tuples, ~2,500 rows per block. A rejected insert and a delete
    // each touch one entity's handful of fragments, so each may add only
    // a small constant to the chase's pass count — a block rebuild would
    // add one pass per row of the block.
    let g = Guard::unlimited();
    let (engine, state, mut sym, metrics) = block_chain_hub_case(10_000);
    let hub = engine.hub(&state, &g).unwrap();
    let w = hub.write_handle();
    let (rel, t) = state
        .iter_all()
        .find(|(i, _)| engine.scheme().scheme(*i).name() == "R1_2")
        .map(|(i, t)| (i, t.clone()))
        .unwrap();

    let passes = hub.chase_stats().passes;
    let bad = violating(&engine, rel, &t, &mut sym);
    assert!(
        !w.insert(rel, bad, &g).unwrap(),
        "key violation is rejected"
    );
    let after_reject = hub.chase_stats().passes;
    assert!(
        after_reject - passes <= 64,
        "a rejected insert cost {} passes",
        after_reject - passes
    );

    assert!(w.delete(rel, &t, &g).unwrap());
    let after_delete = hub.chase_stats().passes;
    assert!(
        after_delete - after_reject <= 64,
        "a delete cost {} passes",
        after_delete - after_reject
    );
    assert_eq!(metrics.counter("hub.block_rebuilds").get(), 0);
    assert!(metrics.counter("hub.repaired_rows").get() > 0);
    assert!(!hub.read_view().state().relation(rel).contains(&t));
    assert!(hub.is_consistent());
}

#[test]
fn a_group_of_deletes_and_a_reject_around_an_insert_equals_serial() {
    // delete, insert, key-violating insert, delete — in one group, on
    // overlapping entities: the insert puts the deleted fragment back
    // into the component its delete just repaired, the violation targets
    // another entity, and the last delete removes a fragment from the
    // component the rejection was just repaired in.
    let g = Guard::unlimited();
    let (engine, state, mut sym, _) = block_chain_hub_case(2_000);
    let frag = |name: &str, nth: usize| {
        state
            .iter_all()
            .filter(|(i, _)| engine.scheme().scheme(*i).name() == name)
            .nth(nth)
            .map(|(i, t)| (i, t.clone()))
            .unwrap()
    };
    let (r1, t1) = frag("R0_1", 3);
    let (r2, t2) = frag("R0_2", 5);
    let (r3, t3) = frag("R0_3", 5);
    let ops = vec![
        BatchOp::Delete {
            rel: r1,
            t: t1.clone(),
        },
        BatchOp::Insert { rel: r1, t: t1 },
        BatchOp::Insert {
            rel: r2,
            t: violating(&engine, r2, &t2, &mut sym),
        },
        BatchOp::Delete { rel: r3, t: t3 },
    ];
    let serial = apply_serial(&engine, &state, &ops, &g);
    assert_eq!(serial.0, vec![true, true, false, true]);
    let hub = engine.hub(&state, &g).unwrap();
    let verdicts = hub.write_handle().apply_batch(&ops, &g).unwrap();
    let v = hub.read_view();
    assert_eq!((verdicts, dump(v.state()), v.is_consistent()), serial);
}
