//! Seed-deterministic case generation.
//!
//! Everything derives from one `u64` through the vendored SplitMix64, so
//! a case is fully reproduced by its seed alone. Schemes are drawn from
//! the workload families the paper's claims cover — key-equivalent
//! chains/cycles/stars, split schemes, independence-reducible block
//! chains, γ-acyclic-adjacent random covers-embedded schemes — plus two
//! adversarial biases: Example 2 (rejected by Algorithm 6, exercising the
//! single-block non-IR hub) and *near-miss* mutants of the structured
//! families ([`mutate_one_key`]), which sit on the class boundary where
//! classifier and oracle disagreements are most likely.
//!
//! States are entity projections (consistent by construction) with an
//! optional corrupt tuple mixing two entities across a key, and op
//! streams interleave inserts/deletes/queries/explains with budget-
//! tripped variants, expression-cache poisoning and `FaultInjector`
//! faults — every session-atomicity edge the engine has.

use idr_relation::exec::FaultKind;
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable, Tuple};
use idr_workload::generators::{
    block_chain_scheme, chain_scheme, cycle_scheme, example2_scheme, mutate_one_key,
    random_scheme, split_scheme, star_scheme,
};

use crate::ops::{Case, Op};

/// One of the structured families (everything but `random_scheme`), used
/// both directly and as near-miss mutation bases.
fn structured_scheme(rng: &mut SplitMix64) -> DatabaseScheme {
    match rng.gen_range(0, 5) {
        0 => chain_scheme(rng.gen_range_inclusive(2, 5)),
        1 => cycle_scheme(rng.gen_range_inclusive(3, 5)),
        2 => split_scheme(rng.gen_range_inclusive(2, 3)),
        3 => star_scheme(rng.gen_range_inclusive(2, 4)),
        _ => block_chain_scheme(rng.gen_range_inclusive(2, 3), 3),
    }
}

/// Draws a scheme: structured families, the non-IR Example 2, random
/// covers-embedded schemes, and near-miss single-fd mutants.
fn gen_scheme(rng: &mut SplitMix64) -> DatabaseScheme {
    loop {
        match rng.gen_range(0, 10) {
            // 0–4: the structured families themselves.
            0..=4 => return structured_scheme(rng),
            // 5: Example 2 — rejected by Algorithm 6, one-block hub.
            5 => return example2_scheme(),
            // 6–7: random covers-embedded schemes.
            6 | 7 => {
                let width = rng.gen_range_inclusive(4, 6);
                let n = rng.gen_range_inclusive(3, 5);
                if let Some(db) = random_scheme(rng, width, n) {
                    return db;
                }
            }
            // 8–9: near-miss mutants (fall back to the base on failure).
            _ => {
                let base = structured_scheme(rng);
                return mutate_one_key(&base, rng).unwrap_or(base);
            }
        }
    }
}

/// The corpus-safe universal tuple of entity `id`: values are
/// `<attr>_<id>` (no `#`, which starts a comment in the fixture format).
pub(crate) fn entity_tuple(
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
    id: usize,
) -> Tuple {
    let u = db.universe();
    Tuple::from_pairs(
        u.iter()
            .map(|a| (a, symbols.intern(&format!("{}_{id}", u.name(a))))),
    )
}

/// A corrupt tuple for relation `i`: key values from entity `id_a`,
/// non-key values from entity `id_b` — inconsistent whenever `id_a`'s
/// fragments elsewhere pin the corrupted attributes.
pub(crate) fn corrupt_tuple(
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
    i: usize,
    id_a: usize,
    id_b: usize,
) -> Tuple {
    let ta = entity_tuple(db, symbols, id_a);
    let tb = entity_tuple(db, symbols, id_b);
    let key = db.scheme(i).keys()[0];
    Tuple::from_pairs(db.scheme(i).attrs().iter().map(|a| {
        (a, if key.contains(a) { ta.value(a) } else { tb.value(a) })
    }))
}

/// Projects `entities` entities onto random schemes; with `corrupt`, one
/// extra mixed tuple lands in the state (often making it inconsistent).
fn gen_state(
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
    rng: &mut SplitMix64,
    entities: usize,
    fragment_pct: u32,
    corrupt: bool,
) -> DatabaseState {
    let mut state = DatabaseState::empty(db);
    for id in 0..entities {
        let universal = entity_tuple(db, symbols, id);
        let mut placed = false;
        for i in 0..db.len() {
            if rng.gen_pct(fragment_pct) {
                let _ = state.insert(i, universal.project(db.scheme(i).attrs()));
                placed = true;
            }
        }
        if !placed {
            let _ = state.insert(0, universal.project(db.scheme(0).attrs()));
        }
    }
    if corrupt && entities >= 2 {
        let i = rng.gen_range(0, db.len());
        let a = rng.gen_range(0, entities);
        let b = (a + 1 + rng.gen_range(0, entities - 1)) % entities;
        let _ = state.insert(i, corrupt_tuple(db, symbols, i, a, b));
    }
    state
}

/// A tuple for an op: a fragment of an existing or fresh entity, a
/// corrupt two-entity mix, or a replay of a tuple already in the pool.
fn gen_tuple(
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
    rng: &mut SplitMix64,
    entities: usize,
    pool: &[(usize, Tuple)],
) -> (usize, Tuple) {
    if !pool.is_empty() && rng.gen_pct(40) {
        return pool[rng.gen_range(0, pool.len())].clone();
    }
    let i = rng.gen_range(0, db.len());
    let t = if entities >= 2 && rng.gen_pct(35) {
        let a = rng.gen_range(0, entities);
        let b = (a + 1 + rng.gen_range(0, entities - 1)) % entities;
        corrupt_tuple(db, symbols, i, a, b)
    } else {
        // Mostly existing entities (interesting chases), sometimes fresh.
        let id = rng.gen_range(0, entities + 2);
        entity_tuple(db, symbols, id).project(db.scheme(i).attrs())
    };
    (i, t)
}

/// A projection attribute set: a relation's own attributes (always
/// expressible) or a random 1–3 attribute subset (exercises extension
/// joins and the `None`-expression fallback).
fn gen_attrs(db: &DatabaseScheme, rng: &mut SplitMix64) -> AttrSet {
    if rng.gen_pct(50) {
        return db.scheme(rng.gen_range(0, db.len())).attrs();
    }
    let all: Vec<_> = db.universe().iter().collect();
    let k = rng.gen_range_inclusive(1, 3.min(all.len()));
    let mut x = AttrSet::empty();
    while x.len() < k {
        x.insert(all[rng.gen_range(0, all.len())]);
    }
    x
}

/// Generates the complete case for `seed`. Deterministic: the same seed
/// always produces the same case.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut symbols = SymbolTable::new();
    let entities = rng.gen_range_inclusive(2, 6);
    let fragment_pct = 40 + 10 * rng.gen_range(0, 6) as u32;
    let corrupt = rng.gen_pct(30);
    let state = gen_state(&db, &mut symbols, &mut rng, entities, fragment_pct, corrupt);

    // Pool of deletable/replayable tuples, fed by the state and by
    // generated inserts.
    let mut pool: Vec<(usize, Tuple)> =
        state.iter_all().map(|(i, t)| (i, t.clone())).collect();
    let nops = rng.gen_range_inclusive(3, 10);
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        let op = match rng.gen_range(0, 100) {
            0..=24 => {
                let (rel, t) = gen_tuple(&db, &mut symbols, &mut rng, entities, &pool);
                pool.push((rel, t.clone()));
                Op::Insert { rel, t }
            }
            25..=39 => {
                let (rel, t) = gen_tuple(&db, &mut symbols, &mut rng, entities, &pool);
                Op::Delete { rel, t }
            }
            40..=59 => Op::Query { x: gen_attrs(&db, &mut rng) },
            60..=69 => {
                let (rel, t) = gen_tuple(&db, &mut symbols, &mut rng, entities, &pool);
                pool.push((rel, t.clone()));
                Op::BudgetInsert { steps: rng.gen_range(0, 3) as u64, rel, t }
            }
            70..=77 => {
                let (rel, t) = gen_tuple(&db, &mut symbols, &mut rng, entities, &pool);
                Op::BudgetDelete { steps: rng.gen_range(0, 3) as u64, rel, t }
            }
            78..=83 => Op::BudgetQuery {
                steps: rng.gen_range(0, 3) as u64,
                x: gen_attrs(&db, &mut rng),
            },
            84..=89 => Op::Explain { x: gen_attrs(&db, &mut rng) },
            90..=94 => Op::Poison,
            _ => {
                let (rel, t) = gen_tuple(&db, &mut symbols, &mut rng, entities, &pool);
                Op::FaultInsert {
                    nth: 1 + rng.gen_range(0, 4) as u64,
                    kind: if rng.gen_pct(50) {
                        FaultKind::Transient
                    } else {
                        FaultKind::Permanent
                    },
                    rel,
                    t,
                }
            }
        };
        ops.push(op);
    }
    Case {
        seed,
        db,
        symbols,
        state,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = gen_case(seed);
            let b = gen_case(seed);
            assert_eq!(a.render(), b.render(), "seed {seed}");
        }
    }

    #[test]
    fn generated_cases_round_trip_through_the_fixture_format() {
        for seed in 0..50u64 {
            let case = gen_case(seed);
            let text = case.render();
            let back = Case::parse(&text).unwrap_or_else(|e| {
                panic!("seed {seed}: fixture does not parse: {e}\n{text}")
            });
            assert_eq!(back.render(), text, "seed {seed}");
        }
    }

    #[test]
    fn generation_covers_the_op_and_scheme_space() {
        let mut kinds = [false; 9];
        let mut non_ir = false;
        for seed in 0..300u64 {
            let case = gen_case(seed);
            non_ir |= !idr_core::recognition::recognize(
                &case.db,
                &idr_fd::KeyDeps::of(&case.db),
            )
            .is_accepted();
            for op in &case.ops {
                let k = match op {
                    Op::Insert { .. } => 0,
                    Op::Delete { .. } => 1,
                    Op::Query { .. } => 2,
                    Op::Explain { .. } => 3,
                    Op::BudgetInsert { .. } => 4,
                    Op::BudgetDelete { .. } => 5,
                    Op::BudgetQuery { .. } => 6,
                    Op::Poison => 7,
                    Op::FaultInsert { .. } => 8,
                };
                kinds[k] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "unexercised op kind: {kinds:?}");
        assert!(non_ir, "no non-IR scheme in 300 seeds");
    }
}
