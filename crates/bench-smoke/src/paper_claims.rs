//! The paper's scaling claims (EXPERIMENTS.md §3.1–3.6), measured offline.
//!
//! Each [`Claim`] is one experiment: an x axis (state size, chain length,
//! scheme count) and one or more timed series over it. The numbers are
//! medians of [`time_ms`]; µs-scale calls are timed as a loop of calls
//! ([`per_call_us`]). `scripts/bench.sh` gates every claim by its *shape*
//! (flat, growing, who wins, how fast the gap widens), never by a
//! millisecond ceiling.
//!
//! Every experiment that times a decision first checks its verdict, so a
//! series cannot silently measure the wrong outcome.

use std::hint::black_box;
use std::time::Instant;

use idr_chase::{is_consistent, representative_instance, total_projection};
use idr_core::ctm_witness::non_ctm_witness;
use idr_core::exec::{Guard, RetryPolicy};
use idr_core::maintain::{algorithm2, algorithm5, IrMaintainer, MaintenanceOutcome, StateIndex};
use idr_core::query::ir_total_projection_expr;
use idr_core::recognition::recognize;
use idr_core::split::is_split_free;
use idr_core::KeRep;
use idr_fd::{naive, KeyDeps};
use idr_hypergraph::{gamma, gyo, Hypergraph};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable, Tuple};
use idr_workload::generators;
use idr_workload::states::{entity_tuple, generate, WorkloadConfig};

use crate::time_ms;

/// One experiment: named series of timings over a shared x axis.
pub struct Claim {
    name: &'static str,
    x_label: &'static str,
    xs: Vec<usize>,
    series: Vec<(&'static str, Vec<f64>)>,
}

impl Claim {
    fn new(name: &'static str, x_label: &'static str, xs: &[usize]) -> Self {
        Claim {
            name,
            x_label,
            xs: xs.to_vec(),
            series: Vec::new(),
        }
    }

    /// Measures `f(x)` at every x of the axis as the series `label`.
    fn series(mut self, label: &'static str, mut f: impl FnMut(usize) -> f64) -> Self {
        let ys = self.xs.iter().map(|&x| f(x)).collect();
        self.series.push((label, ys));
        self
    }

    /// The claim as one JSON member: `"name": {"x_label": [...], ...}`.
    fn to_json(&self) -> String {
        let list = |v: Vec<String>| format!("[{}]", v.join(", "));
        let mut fields = vec![format!(
            "\"{}\": {}",
            self.x_label,
            list(self.xs.iter().map(usize::to_string).collect())
        )];
        for (label, ys) in &self.series {
            fields.push(format!(
                "\"{label}\": {}",
                list(ys.iter().map(|y| format!("{y:.4}")).collect())
            ));
        }
        format!("\"{}\": {{{}}}", self.name, fields.join(", "))
    }
}

/// Median per-call wall time of `f` in µs. One untimed call sizes the
/// loop so that each timed sample runs for about a millisecond; slower
/// calls are timed one at a time.
fn per_call_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_secs_f64();
    let calls = ((1e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    time_ms(|| {
        for _ in 0..calls {
            black_box(f());
        }
    }) * 1e3
        / calls as f64
}

/// A consistent generated state of `entities` entities (60% fragments),
/// with the symbol table it was interned in.
fn instance(db: &DatabaseScheme, entities: usize, seed: u64) -> (DatabaseState, SymbolTable) {
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities,
            fragment_pct: 60,
            inserts: 0,
            corrupt_pct: 0,
            seed,
        },
    );
    (w.state, sym)
}

/// The projection of entity 0 onto the first relation scheme: an insert
/// every generated state accepts.
fn probe(db: &DatabaseScheme, sym: &mut SymbolTable) -> Tuple {
    entity_tuple(db, sym, 0).project(db.scheme(0).attrs())
}

fn all_keys(db: &DatabaseScheme) -> Vec<AttrSet> {
    db.schemes()
        .iter()
        .flat_map(|s| s.keys().iter().copied())
        .collect()
}

fn accepted(r: (MaintenanceOutcome, idr_core::maintain::MaintenanceStats)) -> bool {
    matches!(r.0, MaintenanceOutcome::Consistent(_))
}

/// Runs every experiment of EXPERIMENTS.md §3.1–3.6.
pub fn run() -> Vec<Claim> {
    let g = Guard::unlimited();
    let retry = RetryPolicy::none();
    let mut claims = Vec::new();

    // §3.1 TH-CTM: per-insert decision cost against state size. Algorithm
    // 5 over a state index on the split-free cycle(5) (Thm 3.3) and
    // Algorithm 2 over a prebuilt representative instance on split(3)
    // (Thm 3.2) stay flat; re-chasing the updated state does not.
    eprintln!("paper claims: maintenance (Alg. 5, Alg. 2, re-chase) ...");
    claims.push(
        Claim::new("maintenance", "entities", &[100, 400, 1600, 6400])
            .series("algorithm5_us", |n| {
                let db = generators::cycle_scheme(5);
                let (state, mut sym) = instance(&db, n, 7);
                let members: Vec<usize> = (0..db.len()).collect();
                let idx = StateIndex::build(&db, &members, &state).expect("consistent");
                let t = probe(&db, &mut sym);
                let run = || algorithm5(&db, &idx, 0, &t, &g, &retry).expect("unlimited");
                assert!(accepted(run()), "Algorithm 5 must accept a known entity");
                per_call_us(run)
            })
            .series("algorithm2_us", |n| {
                let db = generators::split_scheme(3);
                let (state, mut sym) = instance(&db, n, 7);
                let ir = recognize(&db, &KeyDeps::of(&db))
                    .accepted()
                    .expect("split(3) is IR");
                let m = IrMaintainer::new(&db, &ir, &state, &g).expect("consistent");
                let t = probe(&db, &mut sym);
                let run = || algorithm2(&db, &m.reps()[0], 0, &t, &g, &retry).expect("unlimited");
                assert!(accepted(run()), "Algorithm 2 must accept a known entity");
                per_call_us(run)
            }),
    );
    claims.push(
        Claim::new("rechase", "entities", &[50, 100, 200]).series("rechase_ms", |n| {
            let db = generators::cycle_scheme(5);
            let (mut state, mut sym) = instance(&db, n, 7);
            state
                .insert(0, probe(&db, &mut sym))
                .expect("fits the scheme");
            let kd = KeyDeps::of(&db);
            let run = || is_consistent(&db, &state, kd.full(), &g).expect("unlimited");
            assert!(run(), "the re-chase baseline must accept a known entity");
            per_call_us(run) / 1e3
        }),
    );

    // §3.2 Thm 3.4: Lemma 3.7's split witness inflated with n decoy
    // fragments per relation. The chase decision grows with the state;
    // Algorithm 2 over the prebuilt representative instance does not.
    eprintln!("paper claims: split witness ...");
    let witness = |n: usize| {
        let db = generators::split_scheme(3);
        let kd = KeyDeps::of(&db);
        let block: Vec<usize> = (0..db.len()).collect();
        let mut sym = SymbolTable::new();
        let w = non_ctm_witness(&db, &kd, &block, &mut sym).expect("split(3) splits");
        let inflated = w.inflate(&db, &mut sym, n);
        (db, kd, w, inflated)
    };
    claims.push(
        Claim::new("split_witness", "decoys", &[10, 40, 160])
            .series("chase_us", |n| {
                let (db, kd, w, mut bad) = witness(n);
                bad.insert(w.probe_scheme, w.probe.clone())
                    .expect("fits the scheme");
                let run = || is_consistent(&db, &bad, kd.full(), &g).expect("unlimited");
                assert!(!run(), "the chase must refute the witness probe");
                per_call_us(run)
            })
            .series("algorithm2_us", |n| {
                let (db, _, w, inflated) = witness(n);
                let tuples = inflated.iter_all().map(|(_, t)| t.clone());
                let rep = KeRep::build(&all_keys(&db), tuples, &g).expect("consistent");
                let run = || {
                    algorithm2(&db, &rep, w.probe_scheme, &w.probe, &g, &retry).expect("unlimited")
                };
                assert!(
                    !accepted(run()),
                    "Algorithm 2 must refute the witness probe"
                );
                per_call_us(run)
            }),
    );

    // §3.3 TH-BOUND: a cross-block [X] on block_chain(2,4) through the
    // Thm 4.1 expression (compiled once per scheme) vs chase-and-project.
    eprintln!("paper claims: bounded total projection ...");
    let cross_block = |entities: usize, blocks: usize, rels: usize| {
        let db = generators::block_chain_scheme(blocks, rels);
        let (state, _) = instance(&db, entities, 21);
        let kd = KeyDeps::of(&db);
        let u = db.universe();
        let x = AttrSet::from_iter([u.attr_of("X0_1"), u.attr_of(&format!("X{}_1", blocks - 1))]);
        (db, state, kd, x)
    };
    claims.push(
        Claim::new("total_projection", "entities", &[50, 100, 250])
            .series("expression_ms", |n| {
                let (db, state, kd, x) = cross_block(n, 2, 4);
                let ir = recognize(&db, &kd).accepted().expect("block chains are IR");
                let expr = ir_total_projection_expr(&db, &kd, &ir, x, &g)
                    .expect("unlimited")
                    .expect("coverable through the bridge");
                let mut got: Vec<Tuple> = expr
                    .eval(&state)
                    .expect("evaluates")
                    .iter()
                    .cloned()
                    .collect();
                let mut want = total_projection(&db, &state, kd.full(), x, &g)
                    .unwrap()
                    .expect("consistent");
                got.sort();
                want.sort();
                assert_eq!(got, want, "the Thm 4.1 expression must answer [X] exactly");
                per_call_us(|| expr.eval(&state).expect("evaluates").len()) / 1e3
            })
            .series("chase_ms", |n| {
                let (db, state, kd, x) = cross_block(n, 2, 4);
                per_call_us(|| total_projection(&db, &state, kd.full(), x, &g).unwrap()) / 1e3
            }),
    );
    claims.push(
        Claim::new("expression_compilation", "blocks", &[2, 3, 4]).series("compile_us", |b| {
            let (db, _, kd, x) = cross_block(10, b, 3);
            let ir = recognize(&db, &kd).accepted().expect("block chains are IR");
            per_call_us(|| ir_total_projection_expr(&db, &kd, &ir, x, &g).expect("unlimited"))
        }),
    );

    // §3.4 EX2: outside the class, refuting the insert <a_n, c1> must walk
    // the whole Example 2 chain.
    eprintln!("paper claims: Example 2 chain ...");
    claims.push(
        Claim::new("example2", "chain", &[25, 100, 400]).series("decision_ms", |n| {
            let db = generators::example2_scheme();
            let kd = KeyDeps::of(&db);
            let mut sym = SymbolTable::new();
            let (mut state, bad) = generators::example2_adversarial_state(&db, &mut sym, n);
            state.insert(2, bad).expect("fits the scheme");
            let run = || is_consistent(&db, &state, kd.full(), &g).expect("unlimited");
            assert!(!run(), "the Example 2 insert must be refuted");
            per_call_us(run) / 1e3
        }),
    );

    // §3.5 TH-RECOG: Algorithm 6 (with KeyDeps) is polynomial (Cor 5.4),
    // on one giant block, on many small blocks, and the splitness test.
    eprintln!("paper claims: recognition ...");
    let recognition_us = |db: &DatabaseScheme| {
        let run = || recognize(db, &KeyDeps::of(db)).is_accepted();
        assert!(run(), "cycles and block chains are independence-reducible");
        per_call_us(run)
    };
    claims.push(
        Claim::new("recognition_cycle", "schemes", &[8, 16, 32, 64]).series("recognize_us", |n| {
            recognition_us(&generators::cycle_scheme(n))
        }),
    );
    claims.push(
        Claim::new("recognition_block_chain", "blocks", &[2, 4, 8, 16])
            .series("recognize_us", |b| {
                recognition_us(&generators::block_chain_scheme(b, 4))
            }),
    );
    claims.push(
        Claim::new("split_test", "m", &[2, 4, 8]).series("split_free_us", |m| {
            let db = generators::split_scheme(m);
            let kd = KeyDeps::of(&db);
            let all: Vec<usize> = (0..db.len()).collect();
            assert!(!is_split_free(&db, &kd, &all), "split(m) must split");
            per_call_us(|| is_split_free(&db, &kd, &all))
        }),
    );

    // §3.6 ablations. Attribute closure on chain(n)'s key dependencies:
    // the indexed `FdSet::closure` vs the textbook scan it is tested
    // against.
    eprintln!("paper claims: ablations ...");
    let chain_closure = |n: usize| {
        let db = generators::chain_scheme(n);
        let fds = KeyDeps::of(&db).full().clone();
        let start = db.scheme(0).attrs();
        assert_eq!(fds.closure(start), naive::closure_naive(&fds, start));
        (fds, start)
    };
    claims.push(
        Claim::new("fd_closure", "chain", &[8, 16, 32, 64])
            .series("indexed_us", |n| {
                let (fds, start) = chain_closure(n);
                per_call_us(|| fds.closure(start))
            })
            .series("naive_us", |n| {
                let (fds, start) = chain_closure(n);
                per_call_us(|| naive::closure_naive(&fds, start))
            }),
    );
    // Representative instance of a key-equivalent state: Algorithm 1's
    // whole-tuple merge (`KeRep`) vs the generic chase.
    claims.push(
        Claim::new("representative_instance", "entities", &[50, 100, 200])
            .series("algorithm1_ms", |n| {
                let db = generators::cycle_scheme(5);
                let (state, _) = instance(&db, n, 42);
                let keys = all_keys(&db);
                per_call_us(|| {
                    let tuples = state.iter_all().map(|(_, t)| t.clone());
                    KeRep::build(&keys, tuples, &g).expect("consistent").len()
                }) / 1e3
            })
            .series("chase_ms", |n| {
                let db = generators::cycle_scheme(5);
                let (state, _) = instance(&db, n, 42);
                let kd = KeyDeps::of(&db);
                per_call_us(|| {
                    let ri = representative_instance(&db, &state, kd.full(), &g).unwrap();
                    ri.expect("consistent").tableau.len()
                }) / 1e3
            }),
    );
    // γ-acyclicity: the reduction-based test vs the exponential γ-cycle
    // search, on acyclic chains and on cycles; GYO (α) for scale.
    let chain = |n: usize| {
        let h = Hypergraph::of_scheme(&generators::chain_scheme(n));
        assert!(gamma::is_gamma_acyclic(&h) && gamma::is_gamma_acyclic_oracle(&h));
        h
    };
    let cycle = |n: usize| {
        let h = Hypergraph::of_scheme(&generators::cycle_scheme(n));
        assert!(!gamma::is_gamma_acyclic(&h) && !gamma::is_gamma_acyclic_oracle(&h));
        h
    };
    claims.push(
        Claim::new("acyclicity", "n", &[4, 8, 12])
            .series("reduction_chain_us", |n| {
                let h = chain(n);
                per_call_us(|| gamma::is_gamma_acyclic(&h))
            })
            .series("cycle_search_chain_us", |n| {
                let h = chain(n);
                per_call_us(|| gamma::is_gamma_acyclic_oracle(&h))
            })
            .series("reduction_cycle_us", |n| {
                let h = cycle(n);
                per_call_us(|| gamma::is_gamma_acyclic(&h))
            })
            .series("cycle_search_cycle_us", |n| {
                let h = cycle(n);
                per_call_us(|| gamma::is_gamma_acyclic_oracle(&h))
            })
            .series("gyo_chain_us", |n| {
                let h = chain(n);
                per_call_us(|| gyo::is_alpha_acyclic(&h))
            }),
    );
    claims
}

/// The `paper_claims` section of the bench document.
pub fn to_json(claims: &[Claim]) -> String {
    let members: Vec<String> = claims
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect();
    format!("{{\n{}\n  }}", members.join(",\n"))
}
