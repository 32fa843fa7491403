//! Naive reference implementations kept for differential testing and for
//! the data-structure ablation benchmark (DESIGN.md §7.1).

use idr_relation::AttrSet;

use crate::fd::FdSet;

/// Textbook quadratic attribute closure: scan all fds until a full pass
/// adds nothing. Semantically identical to [`FdSet::closure`].
pub fn closure_naive(fds: &FdSet, x: AttrSet) -> AttrSet {
    let mut closure = x;
    loop {
        let mut changed = false;
        for fd in fds.fds() {
            if fd.lhs.is_subset(closure) && !fd.rhs.is_subset(closure) {
                closure |= fd.rhs;
                changed = true;
            }
        }
        if !changed {
            return closure;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::Universe;

    #[test]
    fn naive_matches_indexed() {
        let u = Universe::of_chars("ABCDEF");
        let f = FdSet::parse(&u, "A->B, BC->D, D->E, AE->F");
        for start in ["A", "AC", "BC", "F", ""] {
            let x = u.set_of(start);
            assert_eq!(closure_naive(&f, x), f.closure(x), "start {start}");
        }
    }
}
