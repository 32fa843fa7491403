//! Bounded query answering — the expressions of Examples 4 and 12.
//!
//! For an independence-reducible scheme, the X-total projection `[X]` of
//! the representative instance is computed by a *predetermined* relational
//! expression (a union of projections of joins over base relations), so a
//! query processor never needs to chase. This example prints the paper's
//! two worked expressions and verifies them against the chase.
//!
//! Run with: `cargo run --example query_answering`

use independence_reducible::prelude::*;

fn main() {
    example4_ae();
    example12_acg();
}

/// Example 4: [AE] = R3 ∪ π_AE(AB ⋈ AC ⋈ (BE ⋈ CE)).
fn example4_ae() {
    println!("== Example 4: [AE] over the key-equivalent 7-scheme R ==");
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
    let engine = Engine::new(db);
    let db = engine.scheme();
    let g = Guard::unlimited();
    let u = db.universe();
    let x = u.set_of("AE");
    let expr = engine
        .total_projection_expr(x, &g)
        .unwrap()
        .expect("AE is coverable");
    println!("  [AE] = {}", expr.render(db));

    // A state where the answer is only derivable through the second
    // disjunct (the four fragment relations).
    let mut sym = SymbolTable::new();
    let state = state_of(
        db,
        &mut sym,
        &[
            ("R1", &[("A", "a"), ("B", "b")]),
            ("R2", &[("A", "a"), ("C", "c")]),
            ("R4", &[("E", "e"), ("B", "b")]),
            ("R5", &[("E", "e"), ("C", "c")]),
        ],
    )
    .unwrap();
    let fast = expr.eval(&state).unwrap();
    println!("  on r = fragments only (no R3 tuple):");
    for t in fast.iter() {
        println!("    {}", t.render(u, &sym));
    }
    let oracle = total_projection(db, &state, engine.key_deps().full(), x, &g)
        .unwrap()
        .expect("consistent");
    assert_eq!(fast.sorted_tuples(), oracle);
    println!("  chase agrees ({} tuple).\n", oracle.len());
}

/// Example 12: [ACG] = π_ACG((π_ACD(R1⋈R2⋈R4) ∪ π_ACD(R3⋈R4)) ⋈ π_DG(R6)).
fn example12_acg() {
    println!("== Example 12: [ACG] over the two-block scheme ==");
    let db = SchemeBuilder::new("ABCDEFG")
        .scheme("R1", "AB", ["A", "B"])
        .scheme("R2", "BC", ["B", "C"])
        .scheme("R3", "AC", ["A", "C"])
        .scheme("R4", "AD", ["A"])
        .scheme("R5", "DEF", ["D"])
        .scheme("R6", "DEG", ["D"])
        .build()
        .unwrap();
    let engine = Engine::new(db);
    let db = engine.scheme();
    let g = Guard::unlimited();
    let ir = engine.ir().unwrap();
    let u = db.universe();
    println!(
        "  blocks: D1 = {}, D2 = {}",
        u.render(ir.block_attrs[0]),
        u.render(ir.block_attrs[1])
    );
    let x = u.set_of("ACG");
    let expr = engine
        .total_projection_expr(x, &g)
        .unwrap()
        .expect("ACG is coverable");
    println!("  [ACG] = {}", expr.render(db));
    println!("  (paper: π_ACG((π_ACD(R1⋈R2⋈R4) ∪ π_ACD(R3⋈R4)) ⋈ π_DG(R6)))");

    // The answer <a, c, g> needs both blocks: A determines D in block 1,
    // D determines G in block 2.
    let mut sym = SymbolTable::new();
    let state = state_of(
        db,
        &mut sym,
        &[
            ("R1", &[("A", "a"), ("B", "b")]),
            ("R2", &[("B", "b"), ("C", "c")]),
            ("R4", &[("A", "a"), ("D", "d")]),
            ("R6", &[("D", "d"), ("E", "e"), ("G", "g")]),
        ],
    )
    .unwrap();
    let fast = expr.eval(&state).unwrap();
    for t in fast.iter() {
        println!("    {}", t.render(u, &sym));
    }
    let oracle = total_projection(db, &state, engine.key_deps().full(), x, &g)
        .unwrap()
        .expect("consistent");
    assert_eq!(fast.sorted_tuples(), oracle);
    println!("  chase agrees ({} tuple).", oracle.len());

    // Expression sizes stay fixed as the state grows — that is what
    // boundedness buys.
    println!(
        "  expression size: {} base-relation references, independent of |r|",
        expr.rel_refs()
    );
}
