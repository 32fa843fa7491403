//! Replication suite for the `idr-sync` layer (DESIGN.md §13): WAL
//! ranges shipped under digest anti-entropy must drive every replica to
//! a byte-identical state — same tuples, same re-earned consistency
//! verdict — no matter what the scripted adversary does to the network.
//!
//! * The checked-in demo scenario (partition + crash + drops on the
//!   paper's Example 1) converges, and its key-violating insert is
//!   rejected identically everywhere.
//! * Scenario files round-trip through `render ∘ parse`.
//! * The simulator is deterministic: same scenario, same seed — same
//!   trace, same shipped-op count, byte for byte.
//! * A partition that never heals prevents convergence inside the round
//!   budget (the liveness failure the fuzzer classifies), and the same
//!   plan with the partition healed converges.
//! * A crash at every protocol step fires on both transports, simulated
//!   and loopback sockets, and every replica still ends at the
//!   never-partitioned baseline.
//! * A bounded run of the replication-convergence fuzzer (the oracle's
//!   sixth arm) is clean.

use independence_reducible::oracle::{sync_fuzz, Campaign};
use independence_reducible::prelude::*;
use independence_reducible::relation::parse::parse_scheme;
use independence_reducible::sync::{
    parse_scenario, render_scenario, FaultPlan, Partition, Replica, Scenario, ScriptedOp,
    SyncPolicy, SyncReport, Transport,
};

const EXAMPLE1: &str = "
universe: C T H R S G
scheme R1: H R C  keys H R
scheme R2: H T R  keys H T | H R
scheme R3: H T C  keys H T
scheme R4: C S G  keys C S
scheme R5: H S R  keys H S
";

fn ops(script: &[(usize, usize, &str)]) -> Vec<ScriptedOp> {
    script
        .iter()
        .map(|&(round, replica, line)| ScriptedOp {
            round,
            replica,
            line: line.to_string(),
        })
        .collect()
}

/// A simulated scenario over the paper's Example 1.
fn scenario(
    replicas: usize,
    script: &[(usize, usize, &str)],
    plan: FaultPlan,
    seed: u64,
    max_rounds: usize,
) -> Scenario {
    Scenario {
        db: parse_scheme(EXAMPLE1).unwrap(),
        replicas,
        seed,
        max_rounds,
        policy: SyncPolicy::default(),
        plan,
        ops: ops(script),
        transport: Transport::Sim,
    }
}

fn run(s: &Scenario) -> (SyncReport, Vec<Replica>) {
    s.run(TraceHandle::default(), None).expect("within budget")
}

/// The group's obligation: one replica holding every op at its true
/// origin, in the runner's application order (round, then script
/// order).
fn baseline(s: &Scenario) -> Replica {
    let guard = Guard::unlimited();
    let mut base = Replica::new(0, s.replicas, &s.db);
    let last = s.ops.iter().map(|o| o.round).max().unwrap_or(0);
    for round in 0..=last {
        for op in s.ops.iter().filter(|o| o.round == round) {
            base.adopt_op(op.replica, &op.line, &guard).expect("baseline op");
        }
    }
    base
}

/// The demo scenario shipped in the repo is the walkthrough the README
/// narrates: it must keep converging, and the duplicate-key insert for
/// hour h1 / room r1 must be rejected on every replica (5 tuples, not
/// 6, and the surviving course is c1).
#[test]
fn shipped_demo_scenario_converges_and_rejects_the_conflicting_insert() {
    let text = std::fs::read_to_string("examples/scenarios/partition-heal.txt")
        .expect("demo scenario file");
    let scenario = parse_scenario(&text).expect("demo scenario parses");
    let (report, _) = run(&scenario);
    assert!(report.converged, "demo scenario must converge");
    assert_eq!(report.diverged, None);
    assert!(report.consistent, "converged state must be consistent");
    assert_eq!(report.state_lines.len(), 5, "{:?}", report.state_lines);
    assert!(
        report.state_lines.iter().any(|l| l.contains("C=c1")),
        "the first R1 insert must survive"
    );
    assert!(
        !report.state_lines.iter().any(|l| l.contains("C=c9")),
        "the key-violating R1 insert must be rejected everywhere"
    );
    assert!(report.crashes >= 1, "the scripted crash must fire");
}

#[test]
fn scenario_files_round_trip_through_render_and_parse() {
    let text = std::fs::read_to_string("examples/scenarios/partition-heal.txt")
        .expect("demo scenario file");
    let a = parse_scenario(&text).expect("parses");
    let b = parse_scenario(&render_scenario(&a)).expect("rendered form parses");
    assert_eq!(render_scenario(&a), render_scenario(&b));
    assert_eq!(a.replicas, b.replicas);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.ops.len(), b.ops.len());

    // The wire-transport directive survives the same round trip, so a
    // shrunk `fuzz --sync --wire` failure replays on the right runner.
    assert_eq!(a.transport, Transport::Sim, "demo scenario is sim");
    let mut wired = a;
    wired.transport = Transport::Wire;
    let rendered = render_scenario(&wired);
    assert!(rendered.contains("transport: wire\n"), "{rendered}");
    let back = parse_scenario(&rendered).expect("wire form parses");
    assert_eq!(back.transport, Transport::Wire);
    assert_eq!(render_scenario(&back), rendered);
}

/// Same scheme, same script, same seed: the whole run — every round's
/// digest trace line and every counter — replays byte for byte.
#[test]
fn simulator_is_deterministic() {
    let plan = FaultPlan {
        drop_pct: 25,
        dup_pct: 10,
        delay_pct: 20,
        max_delay: 2,
        ..FaultPlan::clean()
    };
    let s = scenario(
        3,
        &[
            (0, 0, "insert R1: H=h1 R=r1 C=c1"),
            (1, 1, "insert R4: C=c1 S=s1 G=g1"),
            (2, 2, "insert R1: H=h1 R=r1 C=c9"),
        ],
        plan,
        9,
        64,
    );
    let (a, b) = (run(&s).0, run(&s).0);
    assert!(a.converged);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.ops_shipped, b.ops_shipped);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.state_lines, b.state_lines);
}

/// After convergence the digests are only a summary — the suite's core
/// claim is that every replica's *rendered state and verdict* agree,
/// which the runner asserts internally and we re-check here against
/// replica 0's report.
#[test]
fn all_replicas_end_byte_identical_under_faults() {
    let plan = FaultPlan {
        drop_pct: 15,
        delay_pct: 15,
        max_delay: 2,
        ..FaultPlan::clean()
    };
    let s = scenario(
        4,
        &[
            (0, 0, "insert R2: H=h1 T=t1 R=r1"),
            (0, 1, "insert R3: H=h1 T=t1 C=c1"),
            (1, 2, "insert R1: H=h1 R=r1 C=c1"),
            (3, 1, "delete R3: H=h1 T=t1 C=c1"),
        ],
        plan,
        3,
        96,
    );
    let (report, replicas) = run(&s);
    assert!(report.converged, "trace:\n{}", report.trace.join("\n"));
    for r in &replicas {
        assert_eq!(r.state_lines(), report.state_lines);
        assert_eq!(r.is_consistent(), report.consistent);
    }
}

/// An eternal partition starves one replica of anti-entropy: the run
/// must *not* report convergence (that would be a false positive for
/// the oracle) — and healing the same partition restores it.
#[test]
fn unhealed_partition_prevents_convergence_and_healing_restores_it() {
    let script = [(0, 0, "insert R1: H=h1 R=r1 C=c1")];
    let eternal = FaultPlan {
        partitions: vec![Partition {
            from_round: 0,
            to_round: usize::MAX,
            groups: vec![vec![0], vec![1]],
        }],
        ..FaultPlan::clean()
    };
    let (report, _) = run(&scenario(2, &script, eternal, 5, 32));
    assert!(!report.converged, "partitioned replicas cannot converge");
    assert_eq!(report.diverged, None, "non-convergence is not divergence");

    let healing = FaultPlan {
        partitions: vec![Partition {
            from_round: 0,
            to_round: 8,
            groups: vec![vec![0], vec![1]],
        }],
        ..FaultPlan::clean()
    };
    let (report, _) = run(&scenario(2, &script, healing, 5, 64));
    assert!(report.converged, "healed partition must converge");
    assert_eq!(report.state_lines.len(), 1);
}

/// A crash pinned to every protocol step — start of round, digest
/// request, digest reply, ops push — fires once on each transport, and
/// the group still converges to the never-partitioned baseline: same
/// state lines and verdict on every replica.
#[test]
fn a_crash_at_every_step_converges_on_both_transports() {
    let text = std::fs::read_to_string("examples/scenarios/crash-every-step.txt")
        .expect("crash scenario file");
    let mut s = parse_scenario(&text).expect("crash scenario parses");
    let base = baseline(&s);
    for transport in [Transport::Sim, Transport::Wire] {
        s.transport = transport;
        let (report, replicas) = run(&s);
        let name = transport.name();
        assert_eq!(report.crashes, 4, "{name}: every crash point fires once");
        assert!(report.converged, "{name}: trace:\n{}", report.trace.join("\n"));
        assert_eq!(report.diverged, None, "{name}");
        assert_eq!(report.state_lines, base.state_lines(), "{name}");
        assert_eq!(report.consistent, base.is_consistent(), "{name}");
        for r in &replicas {
            assert_eq!(r.state_lines(), base.state_lines(), "{name}: replica {}", r.id());
            assert_eq!(r.is_consistent(), base.is_consistent(), "{name}: replica {}", r.id());
        }
    }
}

/// Bounded in-process run of the oracle's sixth arm — the `cargo test`
/// version of the CI `idr fuzz --sync` step.
#[test]
fn bounded_sync_fuzz_run_is_clean() {
    let summary = sync_fuzz(Campaign::new(42, 40), Transport::Sim);
    assert_eq!(summary.cases, 40);
    assert!(
        summary.is_clean(),
        "failures: {}",
        summary
            .failures
            .iter()
            .map(|f| format!("{f}\n--- scenario ---\n{}", f.repro.as_deref().unwrap_or_default()))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(summary.counters.ops_shipped > 0);
}
