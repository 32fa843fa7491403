//! Key-equivalence (§3) and Algorithm 3 (scheme closures).

use idr_fd::KeyDeps;
use idr_relation::{AttrSet, DatabaseScheme};

/// Algorithm 3: the closure `Sⱼ⁺` of a scheme within a subset `S` of the
/// database scheme, computed over schemes — start from `Sⱼ` and repeatedly
/// absorb any `Sᵢ ∈ S` whose key is included in the running closure.
///
/// This is exactly the attribute closure of `Sⱼ` with respect to the key
/// dependencies embedded in `S`; the scheme-level formulation matters for
/// the *splitness* analysis (§3.3), which inspects which scheme completes
/// which key. Returns the closure and the order in which schemes were
/// absorbed (the "computation").
pub fn algorithm3_closure(
    scheme: &DatabaseScheme,
    subset: &[usize],
    start: usize,
) -> (AttrSet, Vec<usize>) {
    debug_assert!(subset.contains(&start));
    let mut closure = scheme.scheme(start).attrs();
    let mut absorbed = vec![start];
    let mut remaining: Vec<usize> = subset.iter().copied().filter(|&i| i != start).collect();
    loop {
        let mut progressed = false;
        remaining.retain(|&i| {
            let s = scheme.scheme(i);
            if s.attrs().is_subset(closure) {
                // Scheme adds nothing; it still counts as absorbable but
                // never changes the closure, so drop it silently.
                return false;
            }
            if s.keys().iter().any(|k| k.is_subset(closure)) {
                closure |= s.attrs();
                absorbed.push(i);
                progressed = true;
                false
            } else {
                true
            }
        });
        if !progressed {
            return (closure, absorbed);
        }
    }
}

/// Whether the subset of schemes (by index) is *key-equivalent* wrt the key
/// dependencies embedded in it: `Sᵢ⁺ = ∪S` for every member (§3).
pub fn is_key_equivalent(scheme: &DatabaseScheme, kd: &KeyDeps, subset: &[usize]) -> bool {
    let union = scheme.union_of(subset);
    let fds = kd.for_subset(subset);
    subset
        .iter()
        .all(|&i| fds.closure(scheme.scheme(i).attrs()) == union)
}

/// Whether the *whole* database scheme is key-equivalent.
pub fn whole_scheme_key_equivalent(scheme: &DatabaseScheme, kd: &KeyDeps) -> bool {
    let all: Vec<usize> = (0..scheme.len()).collect();
    is_key_equivalent(scheme, kd, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::SchemeBuilder;

    fn example3() -> DatabaseScheme {
        SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A", "B"])
            .scheme("R2", "BC", ["B", "C"])
            .scheme("R3", "AC", ["A", "C"])
            .build()
            .unwrap()
    }

    #[test]
    fn example3_is_key_equivalent() {
        let db = example3();
        let kd = KeyDeps::of(&db);
        assert!(whole_scheme_key_equivalent(&db, &kd));
    }

    #[test]
    fn example4_is_key_equivalent() {
        // Example 4: R = {AB, AC, AE, EB, EC, BCD, DA}, keys A/E/BC/D all
        // mutually determining.
        let db = SchemeBuilder::new("ABCDE")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "AC", ["A"])
            .scheme("R3", "AE", ["A", "E"])
            .scheme("R4", "EB", ["E"])
            .scheme("R5", "EC", ["E"])
            .scheme("R6", "BCD", ["BC", "D"])
            .scheme("R7", "DA", ["D", "A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        assert!(whole_scheme_key_equivalent(&db, &kd));
    }

    #[test]
    fn non_key_equivalent_pair() {
        // R1(AB) key A, R2(CD) key C: closures stay local.
        let db = SchemeBuilder::new("ABCD")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "CD", ["C"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        assert!(!whole_scheme_key_equivalent(&db, &kd));
        assert!(is_key_equivalent(&db, &kd, &[0]));
        assert!(is_key_equivalent(&db, &kd, &[1]));
    }

    #[test]
    fn algorithm3_matches_fd_closure() {
        let db = example3();
        let kd = KeyDeps::of(&db);
        let subset = [0usize, 1, 2];
        for start in 0..3 {
            let (cl, _) = algorithm3_closure(&db, &subset, start);
            assert_eq!(
                cl,
                kd.for_subset(&subset)
                    .closure(db.scheme(start).attrs())
            );
        }
    }

    #[test]
    fn algorithm3_records_computation_order() {
        let db = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .build()
            .unwrap();
        let (cl, order) = algorithm3_closure(&db, &[0, 1], 0);
        assert_eq!(cl, db.universe().set_of("ABC"));
        assert_eq!(order, vec![0, 1]);
        // From R2, R1's key A is never reached.
        let (cl, order) = algorithm3_closure(&db, &[0, 1], 1);
        assert_eq!(cl, db.universe().set_of("BC"));
        assert_eq!(order, vec![1]);
    }
}
