//! Block-width tableaux. A hub chases each block of an
//! independence-reducible scheme in a tableau with one column per
//! attribute of the block's union (its key dependencies lie inside it,
//! Lemma 4.2), and a non-IR scheme's single `whole` block at universe
//! width. The differential runs one op stream per block on a block-width
//! and a universe-width engine and requires the same verdicts, answers
//! and provenance, all in universe attributes.

use independence_reducible::chase::{IncrementalChase, RejectionExplanation};
use independence_reducible::oracle::gen::gen_case;
use independence_reducible::oracle::ops::Op;
use independence_reducible::prelude::*;
use independence_reducible::workload::fixtures;
use independence_reducible::workload::generators::block_chain_scheme;

#[test]
fn block_chain_slots_are_as_wide_as_their_blocks() {
    let db = block_chain_scheme(4, 4);
    assert_eq!(db.universe().len(), 16);
    let engine = Engine::new(db);
    let ir = engine.ir().expect("block_chain is independence-reducible");
    let hub = engine
        .hub(&DatabaseState::empty(engine.scheme()), &Guard::unlimited())
        .unwrap();
    assert_eq!(hub.block_widths(), vec![5, 5, 5, 4]);
    let unions: Vec<usize> = ir.block_attrs.iter().map(AttrSet::len).collect();
    assert_eq!(hub.block_widths(), unions);
}

#[test]
fn a_non_ir_scheme_keeps_one_universe_wide_block() {
    let db = fixtures::example2().scheme;
    let engine = Engine::new(db.clone());
    assert!(engine.ir().is_none());
    let hub = engine
        .hub(&DatabaseState::empty(&db), &Guard::unlimited())
        .unwrap();
    assert_eq!(hub.block_widths(), vec![db.universe().len()]);
}

/// One block's engine pair: `narrow` over the block's union, `wide` over
/// the universe, fed the same ops.
struct Pair {
    narrow: IncrementalChase,
    wide: IncrementalChase,
}

impl Pair {
    fn new(db: &DatabaseScheme, attrs: AttrSet, fds: &FdSet) -> Pair {
        let n = db.universe().len();
        Pair {
            narrow: IncrementalChase::over(n, attrs, fds).with_provenance(true),
            wide: IncrementalChase::new(n, fds).with_provenance(true),
        }
    }

    /// Both engines in a fixed order, so each op runs identically on each.
    fn both(&mut self) -> [&mut IncrementalChase; 2] {
        [&mut self.narrow, &mut self.wide]
    }

    /// Inserts `t` into relation `rel` as a hub lane does: push, chase,
    /// and on a key violation retract the row. Returns whether it was
    /// accepted, with the rejection's provenance.
    fn insert(&mut self, rel: usize, t: &Tuple) -> (bool, Option<RejectionExplanation>) {
        let g = Guard::unlimited();
        let [a, b] = self.both().map(|e| {
            let row = e.push_tuple(t, Some(rel)).unwrap();
            match e.run(&g) {
                Ok(_) => (true, None),
                Err(ExecError::Inconsistent { .. }) => {
                    let why = e.explain_rejection();
                    e.retract(&[row], &g).unwrap();
                    (false, why)
                }
                Err(err) => panic!("{err}"),
            }
        });
        assert_eq!(a, b, "insert verdict and rejection provenance");
        a
    }

    /// Deletes every row of `t` in relation `rel`; whether any existed.
    fn delete(&mut self, rel: usize, t: &Tuple) -> bool {
        let g = Guard::unlimited();
        let [a, b] = self.both().map(|e| {
            let rows = e.rows_of(t, Some(rel));
            e.retract(&rows, &g).unwrap();
            rows
        });
        assert_eq!(a, b, "rows deleted");
        !a.is_empty()
    }

    /// Total projections on every `x`, and the explanation of each
    /// derived tuple, agree.
    fn compare(&self, xs: &[AttrSet]) {
        for &x in xs {
            let answer = self.narrow.total_projection(x);
            assert_eq!(answer, self.wide.total_projection(x), "[{x:?}]");
            for t in &answer {
                let why = self.narrow.explain_tuple(x, t).expect("derived tuple");
                assert!(why.cells.iter().map(|c| c.column).eq(x.iter()));
                assert_eq!(Some(why), self.wide.explain_tuple(x, t));
            }
        }
    }
}

/// `t` with the value of non-key attribute `a` replaced by a fresh
/// symbol: a key violation against `t`.
fn rival(t: &Tuple, a: Attribute, symbols: &mut SymbolTable) -> Tuple {
    let fresh = symbols.intern(&format!("rival-{}", symbols.len()));
    Tuple::from_pairs(t.iter().map(|(b, v)| (b, if b == a { fresh } else { v })))
}

#[test]
fn block_width_and_universe_width_engines_agree_on_oracle_op_streams() {
    let mut cases = 0;
    let mut narrowed = 0;
    for seed in 0..400u64 {
        let mut case = gen_case(seed);
        let db = case.db.clone();
        let kd = KeyDeps::of(&db);
        let Some(ir) = recognize(&db, &kd).accepted() else {
            continue;
        };
        // Only a relation with a non-key attribute can violate its key.
        if (0..db.len()).all(|i| {
            db.scheme(i)
                .keys()
                .iter()
                .all(|&k| k == db.scheme(i).attrs())
        }) {
            continue;
        }
        cases += 1;
        let mut queries: Vec<AttrSet> = ir.block_attrs.clone();
        queries.push(db.universe().all());
        queries.extend(case.ops.iter().filter_map(|op| match op {
            Op::Query { x } | Op::BudgetQuery { x, .. } | Op::Explain { x } => Some(*x),
            _ => None,
        }));
        let (mut rejects, mut deletes) = (0, 0);
        for (b, members) in ir.partition.iter().enumerate() {
            let attrs = ir.block_attrs[b];
            narrowed += usize::from(attrs.len() < db.universe().len());
            let mut pair = Pair::new(&db, attrs, &ir.block_fds[b]);
            let mut accepted: Vec<(usize, Tuple)> = Vec::new();
            let state = case
                .state
                .iter_all()
                .map(|(rel, t)| Op::Insert { rel, t: t.clone() });
            let stream: Vec<Op> = state.chain(case.ops.iter().cloned()).collect();
            for op in &stream {
                match op {
                    Op::Insert { rel, t }
                    | Op::BudgetInsert { rel, t, .. }
                    | Op::FaultInsert { rel, t, .. }
                        if members.contains(rel) =>
                    {
                        let (ok, why) = pair.insert(*rel, t);
                        assert_eq!(ok, why.is_none(), "seed {seed}: a rejection is explained");
                        rejects += usize::from(!ok);
                        if ok {
                            accepted.push((*rel, t.clone()));
                        }
                    }
                    Op::Delete { rel, t } | Op::BudgetDelete { rel, t, .. }
                        if members.contains(rel) =>
                    {
                        deletes += usize::from(pair.delete(*rel, t));
                        accepted.retain(|(r, u)| (r, u) != (rel, t));
                    }
                    _ => {}
                }
                pair.compare(&queries);
            }
            // One sure key violation per block, an accepted tuple with one
            // non-key value changed, then one sure delete.
            let violation = accepted.iter().find_map(|(rel, t)| {
                let s = db.scheme(*rel);
                let key = s.keys().first().copied()?;
                (s.attrs() - key)
                    .first()
                    .map(|a| (*rel, rival(t, a, &mut case.symbols)))
            });
            if let Some((rel, t)) = violation {
                let (ok, why) = pair.insert(rel, &t);
                assert!(!ok && why.is_some(), "seed {seed}: the rival is rejected");
                rejects += 1;
            }
            if let Some((rel, t)) = accepted.first() {
                deletes += usize::from(pair.delete(*rel, t));
                pair.compare(&queries);
            }
        }
        assert!(
            rejects >= 1 && deletes >= 1,
            "seed {seed}: {rejects} rejects, {deletes} deletes"
        );
    }
    assert!(cases >= 40, "only {cases} independence-reducible cases");
    assert!(
        narrowed >= 40,
        "only {narrowed} blocks narrower than the universe"
    );
}
