//! Covers and minimal covers (§2.3).

use idr_relation::AttrSet;

use crate::fd::{Fd, FdSet};

/// Computes a *minimal cover* of `f`: singleton right-hand sides, no
/// extraneous left-hand-side attributes, no redundant dependencies.
///
/// The result is equivalent to the input (`G⁺ = F⁺`); the classic
/// three-phase algorithm is used.
pub fn minimal_cover(f: &FdSet) -> FdSet {
    // Phase 1: split right-hand sides into singletons, dropping trivial
    // parts.
    let mut fds: Vec<Fd> = Vec::new();
    for fd in f.fds() {
        for a in (fd.rhs - fd.lhs).iter() {
            fds.push(Fd::new(fd.lhs, AttrSet::singleton(a)));
        }
    }
    fds.sort();
    fds.dedup();

    // Phase 2: remove extraneous lhs attributes. An attribute B ∈ X is
    // extraneous in X→A when (X−B)⁺ still contains A (wrt the full set).
    let full = FdSet::from_fds(fds.iter().copied());
    let mut reduced: Vec<Fd> = Vec::new();
    for fd in &fds {
        let mut lhs = fd.lhs;
        loop {
            let mut shrunk = false;
            for b in lhs.iter() {
                let mut candidate = lhs;
                candidate.remove(b);
                if fd.rhs.is_subset(full.closure(candidate)) {
                    lhs = candidate;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                break;
            }
        }
        reduced.push(Fd::new(lhs, fd.rhs));
    }
    reduced.sort();
    reduced.dedup();

    // Phase 3: drop redundant fds.
    let mut keep: Vec<bool> = vec![true; reduced.len()];
    for i in 0..reduced.len() {
        keep[i] = false;
        let rest = FdSet::from_fds(
            reduced
                .iter()
                .zip(keep.iter())
                .filter(|&(_, &k)| k)
                .map(|(&fd, _)| fd),
        );
        if !rest.implies(reduced[i]) {
            keep[i] = true;
        }
    }
    FdSet::from_fds(
        reduced
            .iter()
            .zip(keep.iter())
            .filter(|&(_, &k)| k)
            .map(|(&fd, _)| fd),
    )
}

/// Whether database scheme members `schemes` *cover-embed* `f`: some cover
/// of `f` has every dependency embedded in some scheme (§2.3).
///
/// We use the standard sufficient-and-necessary test for fd covers: `f` is
/// cover embedded iff the union over schemes of the semantically projected
/// dependencies `F⁺|Rᵢ` is a cover of `f`. (The projections are computed by
/// [`crate::project::project_fds`], exact but exponential in scheme width;
/// schemes in this domain are narrow.)
pub fn is_cover_embedding(schemes: &[AttrSet], f: &FdSet) -> bool {
    let mut union = FdSet::new();
    for &r in schemes {
        union = union.union(&crate::project::project_fds(f, r));
    }
    union.equivalent(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::Universe;

    #[test]
    fn minimal_cover_is_equivalent_and_small() {
        let u = Universe::of_chars("ABCD");
        let f = FdSet::parse(&u, "A->BC, B->C, A->B, AB->C, AB->D");
        let m = minimal_cover(&f);
        assert!(m.equivalent(&f));
        // A->B, B->C, A->D suffice (AB->D reduces to A->D since A->B).
        assert_eq!(m.len(), 3);
        for fd in m.fds() {
            assert_eq!(fd.rhs.len(), 1);
            assert!(!fd.is_trivial());
        }
    }

    #[test]
    fn minimal_cover_of_empty_is_empty() {
        let m = minimal_cover(&FdSet::new());
        assert!(m.is_empty());
    }

    #[test]
    fn minimal_cover_drops_trivial() {
        let u = Universe::of_chars("AB");
        let f = FdSet::parse(&u, "AB->A");
        assert!(minimal_cover(&f).is_empty());
    }

    #[test]
    fn cover_embedding_positive() {
        let u = Universe::of_chars("ABC");
        // F = {A->B, B->C} embeds in {AB, BC}.
        let f = FdSet::parse(&u, "A->B, B->C");
        assert!(is_cover_embedding(&[u.set_of("AB"), u.set_of("BC")], &f));
    }

    #[test]
    fn cover_embedding_negative() {
        let u = Universe::of_chars("ABC");
        // AB->C cannot be embedded in two-attribute schemes.
        let f = FdSet::parse(&u, "AB->C");
        assert!(!is_cover_embedding(
            &[u.set_of("AB"), u.set_of("BC"), u.set_of("AC")],
            &f
        ));
    }

    #[test]
    fn transitive_consequence_keeps_cover_embedding() {
        let u = Universe::of_chars("ABC");
        // A->C follows from embedded A->B, B->C; scheme {AB, BC} still
        // cover-embeds {A->B, B->C, A->C}.
        let f = FdSet::parse(&u, "A->B, B->C, A->C");
        assert!(is_cover_embedding(&[u.set_of("AB"), u.set_of("BC")], &f));
    }
}
