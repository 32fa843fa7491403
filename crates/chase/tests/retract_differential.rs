//! Differential test for component-local repair: an
//! [`IncrementalChase`] driven by seeded streams of inserts, key-violating
//! inserts and deletes — rejected rows and deleted rows leave through
//! [`IncrementalChase::retract`] — must agree after every op with a fresh
//! chase of its live rows: on the consistency verdict, on every total
//! projection `πt_X` (X ⊆ U), and on the tableau itself up to ndv
//! renaming. Provenance must never name a retracted row. Seeded
//! [`SplitMix64`] streams — deterministic, offline.

use idr_chase::equivalence::equivalent_up_to_ndv_renaming;
use idr_chase::IncrementalChase;
use idr_fd::{Fd, FdSet, KeyDeps};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, DatabaseScheme, SchemeBuilder, SymbolTable, Tuple};

const SEEDS: u64 = 120;
const OPS: usize = 40;
/// Live rows above which the stream only deletes (keeps the renaming
/// oracle's backtracking small).
const MAX_LIVE: usize = 10;

/// One fixture: a scheme, its fds, and the value pool size per column.
struct Fixture {
    name: &'static str,
    scheme: DatabaseScheme,
    fds: FdSet,
    pools: Vec<usize>,
}

fn fixtures() -> Vec<Fixture> {
    let keyed = |name, scheme: DatabaseScheme, pools: Vec<usize>| {
        let fds = KeyDeps::of(&scheme).full().clone();
        Fixture {
            name,
            scheme,
            fds,
            pools,
        }
    };
    let chain = SchemeBuilder::new("ABCD")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "BC", ["B"])
        .scheme("R3", "CD", ["C"])
        .build()
        .unwrap();
    let star = SchemeBuilder::new("KABC")
        .scheme("R1", "KA", ["K"])
        .scheme("R2", "KB", ["K"])
        .scheme("R3", "KC", ["K"])
        .build()
        .unwrap();
    // A cycle with two keys per relation, as in the block_chain family:
    // merges cascade around the cycle.
    let cycle = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A", "B"])
        .scheme("R2", "BC", ["B", "C"])
        .scheme("R3", "CA", ["C", "A"])
        .build()
        .unwrap();
    // Column C has a single value: every R2 row holds the same interned
    // constant, so one component spans the whole tableau.
    let shared = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "AC", ["A"])
        .build()
        .unwrap();
    // An fd with an empty left-hand side pairs every two rows, whether
    // or not they share a value.
    let global = SchemeBuilder::new("ABC")
        .scheme("R1", "AB", ["A"])
        .scheme("R2", "AC", ["A"])
        .build()
        .unwrap();
    let mut global_fds = KeyDeps::of(&global).full().clone();
    global_fds.add(Fd::new(AttrSet::empty(), global.universe().set_of("C")));
    vec![
        keyed("chain", chain, vec![3, 3, 3, 3]),
        keyed("star", star, vec![3, 2, 2, 2]),
        keyed("cycle", cycle, vec![3, 3, 3]),
        keyed("shared", shared, vec![4, 3, 1]),
        Fixture {
            name: "global",
            scheme: global,
            fds: global_fds,
            pools: vec![3, 2, 1],
        },
    ]
}

/// The engine under test plus the live rows it should hold, in row order.
struct Run<'f> {
    fx: &'f Fixture,
    engine: IncrementalChase,
    live: Vec<(usize, usize, Tuple)>,
}

impl Run<'_> {
    fn push(&mut self, rel: usize, t: Tuple) -> Result<usize, ExecError> {
        let row = self.engine.push_tuple(&t, Some(rel))?;
        self.live.push((row, rel, t));
        Ok(row)
    }

    fn retract(&mut self, rows: &[usize]) {
        let repaired = self.engine.retract(rows, &Guard::unlimited());
        match repaired {
            Ok(_) | Err(ExecError::Inconsistent { .. }) => {}
            other => panic!("{}: retract returned {other:?}", self.fx.name),
        }
        self.live.retain(|(r, _, _)| !rows.contains(r));
        for &r in rows {
            assert!(self.engine.is_dead(r));
        }
    }

    /// A fresh chase of exactly the live rows.
    fn oracle(&self) -> IncrementalChase {
        let width = self.fx.scheme.universe().len();
        let mut e = IncrementalChase::new(width, &self.fx.fds);
        for (_, rel, t) in &self.live {
            e.push_tuple(t, Some(*rel)).unwrap();
        }
        let _ = e.run(&Guard::unlimited());
        e
    }

    fn check(&self, step: &str) {
        let ctx = format!("{} after {step}", self.fx.name);
        let oracle = self.oracle();
        assert_eq!(self.engine.live_len(), self.live.len(), "{ctx}: live rows");
        assert_eq!(
            self.engine.failure().is_some(),
            oracle.failure().is_some(),
            "{ctx}: consistency verdict"
        );
        if oracle.failure().is_some() {
            return;
        }
        let u = self.fx.scheme.universe();
        for bits in 0u32..(1 << u.len()) {
            let x = AttrSet::from_iter(
                (0..u.len())
                    .filter(|c| bits & (1 << c) != 0)
                    .map(idr_relation::Attribute::from_index),
            );
            let got = self.engine.total_projection(x);
            assert_eq!(got, oracle.total_projection(x), "{ctx}: [{bits:b}]");
            for t in &got {
                let why = self
                    .engine
                    .explain_tuple(x, t)
                    .expect("projected tuple is witnessed");
                assert!(
                    !self.engine.is_dead(why.row),
                    "{ctx}: explain names dead row"
                );
                for cell in &why.cells {
                    for f in &cell.chain {
                        assert!(
                            !self.engine.is_dead(f.rows.0) && !self.engine.is_dead(f.rows.1),
                            "{ctx}: firing chain names a dead row"
                        );
                    }
                }
            }
        }
        // No cell's firing chain (total or not) reaches a retracted row.
        for &(row, _, _) in &self.live {
            for c in 0..u.len() {
                let chain = self
                    .engine
                    .explain_cell(row, idr_relation::Attribute::from_index(c));
                assert!(
                    chain
                        .iter()
                        .all(|f| !self.engine.is_dead(f.rows.0) && !self.engine.is_dead(f.rows.1)),
                    "{ctx}: cell chain names a dead row"
                );
            }
        }
        assert!(
            equivalent_up_to_ndv_renaming(&self.engine.to_tableau(), &oracle.to_tableau()),
            "{ctx}: tableaux differ"
        );
    }
}

fn random_tuple(rng: &mut SplitMix64, fx: &Fixture, sym: &mut SymbolTable) -> (usize, Tuple) {
    let rel = rng.gen_range(0, fx.scheme.len());
    let t = Tuple::from_pairs(fx.scheme.scheme(rel).attrs().iter().map(|a| {
        let k = rng.gen_range(0, fx.pools[a.index()]);
        (
            a,
            sym.intern(&format!("{}{k}", fx.scheme.universe().name(a))),
        )
    }));
    (rel, t)
}

/// A copy of a live tuple with one non-key value replaced by a fresh
/// one: a key violation against its origin row.
fn violating_tuple(
    rng: &mut SplitMix64,
    fx: &Fixture,
    run: &Run<'_>,
    sym: &mut SymbolTable,
    fresh: &mut usize,
) -> Option<(usize, Tuple)> {
    let (_, rel, t) = &run.live[rng.gen_range(0, run.live.len())];
    let rs = fx.scheme.scheme(*rel);
    let key = rs.keys()[0];
    let free: Vec<_> = (rs.attrs() - key).iter().collect();
    if free.is_empty() {
        return None;
    }
    let bad = free[rng.gen_range(0, free.len())];
    *fresh += 1;
    let v = sym.intern(&format!("fresh{fresh}"));
    Some((
        *rel,
        Tuple::from_pairs(t.iter().map(|(a, x)| (a, if a == bad { v } else { x }))),
    ))
}

fn run_stream(fx: &Fixture, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut sym = SymbolTable::new();
    let mut fresh = 0;
    let width = fx.scheme.universe().len();
    let mut run = Run {
        fx,
        engine: IncrementalChase::new(width, &fx.fds).with_provenance(true),
        live: Vec::new(),
    };
    for step in 0..OPS {
        let roll = rng.gen_range(0, 100);
        let label;
        if run.live.len() >= MAX_LIVE || (roll < 25 && !run.live.is_empty()) {
            // Delete one live tuple: every row pushed for it leaves.
            let (_, rel, t) = run.live[rng.gen_range(0, run.live.len())].clone();
            let rows = run.engine.rows_of(&t, Some(rel));
            let expect: Vec<usize> = run
                .live
                .iter()
                .filter(|(_, r, u)| *r == rel && *u == t)
                .map(|(row, _, _)| *row)
                .collect();
            assert_eq!(rows, expect, "{}: rows_of", fx.name);
            run.retract(&rows);
            label = format!("delete {rows:?} (step {step})");
        } else if roll < 40 && !run.live.is_empty() {
            // A key-violating insert; usually retracted like a rejected
            // insert, sometimes kept so the engine stays poisoned and a
            // later delete has to repair a failed chase.
            let Some((rel, t)) = violating_tuple(&mut rng, fx, &run, &mut sym, &mut fresh) else {
                continue;
            };
            let row = run.push(rel, t).unwrap();
            if run.engine.run(&Guard::unlimited()).is_err() && rng.gen_pct(80) {
                run.retract(&[row]);
                label = format!("rejected violation (step {step})");
            } else {
                label = format!("kept violation (step {step})");
            }
        } else if roll < 55 {
            // A batch of random inserts, retracted as one on rejection.
            let first = run.engine.len();
            let n = rng.gen_range_inclusive(2, 3);
            let batch: Vec<(usize, Tuple)> = (0..n)
                .map(|_| random_tuple(&mut rng, fx, &mut sym))
                .collect();
            let res = run.engine.insert_batch(
                batch.iter().map(|(r, t)| (t, Some(*r))),
                &Guard::unlimited(),
            );
            let pushed = run.engine.len() - first;
            for (i, (rel, t)) in batch.into_iter().take(pushed).enumerate() {
                run.live.push((first + i, rel, t));
            }
            if res.is_err() {
                let pushed: Vec<usize> = (first..run.engine.len()).collect();
                run.retract(&pushed);
                label = format!("rejected batch (step {step})");
            } else {
                label = format!("batch (step {step})");
            }
        } else {
            let (rel, t) = random_tuple(&mut rng, fx, &mut sym);
            let row = run.push(rel, t).unwrap();
            if run.engine.run(&Guard::unlimited()).is_err() {
                run.retract(&[row]);
                label = format!("rejected insert (step {step})");
            } else {
                label = format!("insert (step {step})");
            }
        }
        run.check(&label);
    }
}

#[test]
fn retract_agrees_with_a_fresh_chase_of_the_live_rows() {
    for fx in &fixtures() {
        for seed in 0..SEEDS {
            run_stream(fx, seed);
        }
    }
}
