//! Example 1 in depth: the university database R versus its merged
//! variant S.
//!
//! The paper's opening observation: R and S embed the *same* key
//! dependencies, S is independent while R is not — yet R inherits all of
//! S's good behaviour because R is *independence-reducible*: its block
//! {R1, R2, R3} plays the role of S1(HRCT), with each R-relation a
//! null-free fragment of S1.
//!
//! Run with: `cargo run --example university`

use independence_reducible::prelude::*;

fn classify_and_print(name: &str, db: &DatabaseScheme) {
    let c = classify(db);
    println!("{name}: {}", c.summary());
}

fn main() {
    let r = SchemeBuilder::new("CTHRSG")
        .scheme("R1", "HRC", ["HR"])
        .scheme("R2", "HTR", ["HT", "HR"])
        .scheme("R3", "HTC", ["HT"])
        .scheme("R4", "CSG", ["CS"])
        .scheme("R5", "HSR", ["HS"])
        .build()
        .unwrap();
    let s = SchemeBuilder::new("CTHRSG")
        .scheme("S1", "HRCT", ["HR", "HT"])
        .scheme("S2", "CSG", ["CS"])
        .scheme("S3", "HSR", ["HS"])
        .build()
        .unwrap();

    println!("== The two schemes of Example 1 ==");
    classify_and_print("R", &r);
    classify_and_print("S", &s);
    println!();

    // The recognition witness: R's partition merges {R1, R2, R3}, whose
    // union HRCT is exactly S1. The induced scheme D *is* S.
    let kd_r = KeyDeps::of(&r);
    let ir = recognize(&r, &kd_r).accepted().expect("R is accepted");
    let d = independence_reducible::core::recognition::induced_scheme(&r, &ir);
    println!("induced scheme D of R:");
    for ds in d.schemes() {
        let keys: Vec<String> = ds
            .keys()
            .iter()
            .map(|&k| d.universe().render(k))
            .collect();
        println!(
            "  {}({})  keys {{{}}}",
            ds.name(),
            d.universe().render(ds.attrs()),
            keys.join(", ")
        );
    }
    let kd_d = KeyDeps::of(&d);
    assert!(independence_reducible::core::baselines::is_independent(
        &d, &kd_d
    ));
    println!("D is independent — R reduces to Example 1's S.\n");

    // A term's worth of data.
    let mut sym = SymbolTable::new();
    let state = state_of(
        &r,
        &mut sym,
        &[
            // Two teachers sharing course "db" at different hours.
            ("R1", &[("H", "mon9"), ("R", "r101"), ("C", "db")]),
            ("R2", &[("H", "mon9"), ("T", "chan"), ("R", "r101")]),
            ("R1", &[("H", "tue2"), ("R", "r204"), ("C", "db")]),
            ("R2", &[("H", "tue2"), ("T", "hdez"), ("R", "r204")]),
            // Grades and attendance.
            ("R4", &[("C", "db"), ("S", "sue"), ("G", "A")]),
            ("R4", &[("C", "os"), ("S", "sue"), ("G", "B")]),
            ("R5", &[("H", "mon9"), ("S", "sue"), ("R", "r101")]),
        ],
    )
    .unwrap();
    let g = Guard::unlimited();
    let mut m = IrMaintainer::new(&r, &ir, &state, &g).expect("consistent");

    println!("== Incremental maintenance on R ==");
    let u = r.universe();
    let inserts: Vec<(&str, Vec<(&str, &str)>)> = vec![
        // New fact, consistent: chan also teaches at tue2? No - tue2 is
        // hdez's slot in r204; HT is free, HR must agree.
        ("R3", vec![("H", "mon9"), ("T", "chan"), ("C", "db")]),
        // Key violation: hour mon9 room r101 already hosts "db".
        ("R1", vec![("H", "mon9"), ("R", "r101"), ("C", "os")]),
        // Fine: a different room at the same hour.
        ("R1", vec![("H", "mon9"), ("R", "r305"), ("C", "os")]),
        // Student key violation: sue is in r101 at mon9 already.
        ("R5", vec![("H", "mon9"), ("S", "sue"), ("R", "r305")]),
    ];
    for (scheme_name, pairs) in inserts {
        let i = r.index_of(scheme_name).unwrap();
        let t = Tuple::from_pairs(
            pairs
                .iter()
                .map(|&(a, v)| (u.attr_of(a), sym.intern(v))),
        );
        let shown = t.render(u, &sym);
        let (outcome, stats) = m.insert(i, t, &g, &RetryPolicy::none()).unwrap();
        println!(
            "  insert {shown} into {scheme_name}: {} ({} lookups)",
            if outcome.is_consistent() { "accepted" } else { "REJECTED" },
            stats.lookups
        );
    }

    println!("\n== Bounded query answering ==");
    for target in ["TC", "TR", "CSG", "HSC"] {
        let x = u.set_of(target);
        match ir_total_projection_expr(&r, &kd_r, &ir, x, &g).unwrap() {
            Some(expr) => {
                let rel = expr.eval(&state).unwrap();
                println!("[{}] = {}", target, expr.render(&r));
                for t in rel.iter() {
                    println!("    {}", t.render(u, &sym));
                }
            }
            None => println!("[{target}] is empty on every consistent state"),
        }
    }
}
