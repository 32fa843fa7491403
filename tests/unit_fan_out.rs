//! Serial ≡ parallel for write units (Thm 4.2): a unit's per-block
//! shares run on their own workers under `with_parallel(true)` and one
//! after another under `with_parallel(false)`, and nothing observable
//! tells the two apart — verdicts, state lines and insertion order,
//! rejection provenance, the rendered trace, and the error and full
//! rollback of a unit that trips its guard.

use std::sync::Arc;

use independence_reducible::prelude::*;
use independence_reducible::relation::parse;

/// Three blocks: `{R1, R2}` keyed on `A`, `{R3}` keyed on `D`, `{R4}`
/// keyed on `F`.
const SCHEME: &str = "universe: A B C D E F G\n\
                      scheme R1: A B keys A\n\
                      scheme R2: A C keys A\n\
                      scheme R3: D E keys D\n\
                      scheme R4: F G keys F\n";

/// Block `{R4}` starts poisoned: two `R4` tuples share the key `f9`.
const STATE: &str = "R1: A=a0 B=b0\n\
                     R3: D=d0 E=e0\n\
                     R4: F=f9 G=g1\n\
                     R4: F=f9 G=g2\n";

/// Each unit is a list of `insert|delete REL: A=v ...` lines.
const UNITS: &[&[&str]] = &[
    // A delete into the poisoned block restores it; the block is
    // rebuilt once at the end of its share.
    &[
        "delete R4: F=f9 G=g2",
        "insert R1: A=a1 B=b1",
        "insert R3: D=d1 E=e1",
    ],
    // Accepted inserts in every block, some firing the key rule.
    &[
        "insert R1: A=a2 B=b2",
        "insert R2: A=a1 C=c1",
        "insert R3: D=d2 E=e2",
        "insert R4: F=f1 G=g1",
        "insert R2: A=a2 C=c2",
        "insert R4: F=f2 G=g2",
    ],
    // A run that turns inconsistent (`a1` already maps to `b1`) and is
    // re-chased per op, next to accepted inserts in two other blocks.
    &[
        "insert R1: A=a3 B=b3",
        "insert R1: A=a1 B=bX",
        "insert R2: A=a3 C=c3",
        "insert R3: D=d3 E=e3",
        "insert R4: F=f1 G=gX",
        "insert R4: F=f3 G=g3",
    ],
    // Deletes, one of an absent tuple, between inserts.
    &[
        "delete R3: D=d1 E=e1",
        "insert R1: A=a4 B=b4",
        "delete R2: A=a9 C=c9",
        "delete R1: A=a0 B=b0",
        "insert R3: D=d1 E=e5",
    ],
];

/// A unit that trips `max_chase_steps(0)` in block `{R1, R2}` only, and
/// late: its share first pushes `n` inserts that fire no rule, so the
/// shares of the other blocks, which fire none either, run meanwhile.
fn trip(n: usize) -> Vec<String> {
    let mut lines: Vec<String> = (0..n).map(|i| format!("insert R1: A=t{i} B=b5")).collect();
    lines.push("insert R2: A=t0 C=c5".into());
    lines.push("insert R3: D=d5 E=e5".into());
    lines.push("insert R4: F=f5 G=g5".into());
    lines.push("insert R4: F=f1 G=g1".into());
    lines
}

/// Everything a caller can observe of one run.
#[derive(Debug, PartialEq)]
struct Run {
    verdicts: Vec<Vec<bool>>,
    states: Vec<String>,
    rejections: Vec<String>,
    trip: String,
    after_trip: String,
    trace: Vec<String>,
    fanned_out: u64,
}

fn ops_of<S: AsRef<str>>(lines: &[S], db: &DatabaseScheme, sym: &mut SymbolTable) -> Vec<BatchOp> {
    lines
        .iter()
        .map(|line| {
            let (verb, rest) = line.as_ref().split_once(' ').expect("verb and tuple");
            let (rel, t) = parse::parse_tuple_line(rest, db, sym).expect("well-formed tuple");
            match verb {
                "insert" => BatchOp::Insert { rel, t },
                "delete" => BatchOp::Delete { rel, t },
                _ => unreachable!("unknown verb {verb}"),
            }
        })
        .collect()
}

fn run(parallel: bool) -> Run {
    let db = parse::parse_scheme(SCHEME).expect("scheme parses");
    let mut sym = SymbolTable::new();
    let state = parse::parse_state(STATE, &db, &mut sym).expect("state parses");
    let log = Arc::new(EventLog::new(1 << 18));
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(db.clone())
        .with_parallel(parallel)
        .with_observability(Observability {
            tracer: TraceHandle::to_log(Arc::clone(&log)),
            metrics: Some(Arc::clone(&metrics)),
            provenance: true,
        });
    assert_eq!(engine.ir().map(|ir| ir.len()), Some(3), "three blocks");
    let g = Guard::unlimited();
    let hub = engine.hub(&state, &g).expect("unlimited guard");
    assert_eq!(
        hub.inconsistent_blocks(),
        vec![2],
        "R4's block starts poisoned"
    );
    let w = hub.write_handle();
    let mut out = Run {
        verdicts: Vec::new(),
        states: Vec::new(),
        rejections: Vec::new(),
        trip: String::new(),
        after_trip: String::new(),
        trace: Vec::new(),
        fanned_out: 0,
    };
    for unit in UNITS {
        let ops = ops_of(unit, &db, &mut sym);
        out.verdicts
            .push(w.apply_batch(&ops, &g).expect("unlimited guard"));
        out.states.push(hub.read_view().state().render(&db, &sym));
        out.rejections
            .push(format!("{:?}", hub.explain_rejection()));
    }
    let before = hub.read_view().state().render(&db, &sym);
    let ops = ops_of(&trip(2_000), &db, &mut sym);
    let tight = Guard::new(Budget::unlimited().with_max_chase_steps(0));
    let err = w.apply_batch(&ops, &tight).expect_err("the key rule fires");
    // The spend a trip reports depends on how the shares interleaved on
    // the shared guard; the variant, resource and limit do not.
    let ExecError::BudgetExceeded {
        resource, limit, ..
    } = err
    else {
        panic!("a chase-step trip, not {err:?}");
    };
    out.trip = format!("{resource:?} {limit}");
    assert_eq!(
        hub.read_view().state().render(&db, &sym),
        before,
        "full rollback"
    );
    // The rolled-back hub takes the same unit under a real guard.
    out.verdicts
        .push(w.apply_batch(&ops, &g).expect("unlimited guard"));
    out.after_trip = hub.read_view().state().render(&db, &sym);
    out.trace = log.drain().iter().map(|e| e.to_json()).collect();
    assert_eq!(log.dropped(), 0);
    out.fanned_out = metrics.counter("hub.units_fanned_out").get();
    out
}

#[test]
fn fanned_out_units_are_indistinguishable_from_serial_ones() {
    let serial = run(false);
    let parallel = run(true);
    assert_eq!(
        serial.verdicts,
        vec![
            vec![true, true, true],
            vec![true; 6],
            vec![true, false, true, true, false, true],
            vec![true, true, false, true, true],
            vec![true; 2_004],
        ]
    );
    assert!(
        serial.rejections[2].contains("Some"),
        "the run's rejection is explained"
    );
    assert!(!serial.trace.is_empty());
    assert_eq!(serial.fanned_out, 0, "a serial engine never fans out");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        // Every unit spans two blocks or more, the trip and its retry too.
        assert_eq!(parallel.fanned_out, UNITS.len() as u64 + 2);
    }
    assert_eq!(
        Run {
            fanned_out: 0,
            ..parallel
        },
        serial
    );
}
