//! Convergence differential fuzzing for the replication layer — the
//! oracle's sixth arm.
//!
//! Each seeded case draws a scheme (the same IR/non-IR family spread as
//! the other arms), partitions a random op stream across 2–4 replicas
//! at random rounds, and runs the scenario — on the deterministic
//! simulator, or with `--wire` over loopback sockets — under a random
//! fault plan (drop, delay/reorder, duplication, partition with heal,
//! crash mid-sync at a random protocol step) and a random retry/backoff
//! policy. After quiescence it asserts, on either transport and for
//! **every** replica, that the rendered state, the consistency verdict,
//! and a probe-query answer are byte-identical to a **never-partitioned
//! baseline**: one replica that held every op at its true origin from
//! the start, so canonical-order replay yields the group's obligation.
//!
//! Failures carry a full scenario file (see [`idr_sync::scenario`])
//! shrunk greedily — ops, then crashes, then partitions, then the
//! probabilistic knobs — so every red case replays standalone under
//! `idr sync <fixture>`.

use std::fmt;
use std::sync::Arc;

use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::render_tuple_line;
use idr_relation::rng::SplitMix64;
use idr_relation::{AttrSet, SymbolTable};
use idr_sync::{render_scenario, FaultPlan, Replica, Scenario, ScriptedOp, SyncPolicy, Transport};

use crate::crash::gen_scheme;
use crate::gen::{corrupt_tuple, entity_tuple};
use crate::{Campaign, Counters, Failure, Summary};

/// The sync arm's tallies.
#[derive(Clone, Debug, Default)]
pub struct SyncCounters {
    /// Whether the cases ran over loopback sockets (`--wire`) rather
    /// than in the simulator.
    pub wire: bool,
    /// Rounds run.
    pub rounds: usize,
    /// Ops shipped in ranges (retransmissions count).
    pub ops_shipped: usize,
    /// Crashes fired.
    pub crashes: usize,
}

impl fmt::Display for SyncCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} round(s) {}, {} op(s) shipped, {} crash(es) fired",
            self.rounds,
            if self.wire { "run on loopback sockets" } else { "simulated" },
            self.ops_shipped,
            self.crashes
        )
    }
}

impl Counters for SyncCounters {}

/// Draws one scenario: scheme, replica count, partitioned op stream,
/// fault plan, policy.
fn gen_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut symbols = SymbolTable::new();
    let replicas = rng.gen_range_inclusive(2, 4);
    let op_horizon = rng.gen_range_inclusive(1, 6);
    let nops = rng.gen_range_inclusive(3, 8);
    let entities = rng.gen_range_inclusive(2, 3);

    let mut pool: Vec<String> = Vec::new();
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        let i = rng.gen_range(0, db.len());
        let line = match rng.gen_range(0, 100) {
            // Delete something previously inserted (contended when the
            // replicas that issued the two ops differ).
            0..=19 if !pool.is_empty() => {
                let rendered = pool[rng.gen_range(0, pool.len())].clone();
                format!("delete {rendered}")
            }
            // A key-violating insert: the canonical order decides its
            // verdict identically everywhere.
            20..=39 => {
                let t = corrupt_tuple(&db, &mut symbols, i, 0, 1);
                format!("insert {}", render_tuple_line(&db, &symbols, i, &t))
            }
            _ => {
                let id = rng.gen_range(0, entities + 1);
                let t = entity_tuple(&db, &mut symbols, id).project(db.scheme(i).attrs());
                let rendered = render_tuple_line(&db, &symbols, i, &t);
                pool.push(rendered.clone());
                format!("insert {rendered}")
            }
        };
        ops.push(ScriptedOp {
            round: rng.gen_range(0, op_horizon),
            replica: rng.gen_range(0, replicas),
            line,
        });
    }

    Scenario {
        db,
        replicas,
        seed: rng.next_u64(),
        max_rounds: 96,
        policy: SyncPolicy {
            max_retries: rng.gen_range_inclusive(1, 4) as u32,
            backoff_rounds: rng.gen_range_inclusive(0, 3) as u32,
            round_timeout: rng.gen_range_inclusive(1, 4) as u32,
        },
        plan: FaultPlan::random(&mut rng, replicas, 8),
        ops,
        transport: Transport::Sim,
    }
}

/// The baseline the group must converge to: one replica holding every
/// op at its true origin, in the sim's application order (round, then
/// script order).
fn baseline(s: &Scenario, guard: &Guard) -> Result<Replica, String> {
    let mut base = Replica::new(0, s.replicas, &s.db);
    let last = s.ops.iter().map(|o| o.round).max().unwrap_or(0);
    for round in 0..=last {
        for op in s.ops.iter().filter(|o| o.round == round) {
            base.adopt_op(op.replica, &op.line, guard)
                .map_err(|e| format!("baseline op: {e}"))?;
        }
    }
    Ok(base)
}

/// A scenario check's outcome: the run's `(rounds, ops shipped,
/// crashes)`, or the failure's `(kind, detail)`.
type Checked = Result<(usize, usize, usize), (String, String)>;

fn setup(detail: String) -> (String, String) {
    ("setup".to_string(), detail)
}

/// Runs a scenario on its transport (reporting its rounds into
/// `metrics`) and checks that it settled — no replica diverged, the
/// group converged within the round budget — and that every replica's
/// rendered state, verdict and probe answer equal the baseline's.
fn check_scenario(s: &Scenario, metrics: Option<&Arc<MetricsRegistry>>) -> Checked {
    let guard = Guard::unlimited();
    let base = baseline(s, &guard).map_err(setup)?;
    let probe: AttrSet = {
        // Derived from the scenario seed so shrinking preserves it.
        let mut rng = SplitMix64::new(s.seed);
        s.db.scheme(rng.gen_range(0, s.db.len())).attrs()
    };
    let base_answer = base
        .answer(probe, &guard)
        .map_err(|e| setup(format!("baseline query: {e}")))?;

    let (report, replicas) = s
        .run(TraceHandle::none(), metrics.cloned())
        .map_err(|e| setup(format!("{}: {e}", s.transport.name())))?;
    if let Some(d) = &report.diverged {
        return Err(("diverged".to_string(), d.clone()));
    }
    if !report.converged {
        return Err((
            "liveness".to_string(),
            format!(
                "no convergence within {} rounds; last: {}",
                s.max_rounds,
                report.trace.last().cloned().unwrap_or_default()
            ),
        ));
    }
    for r in &replicas {
        if r.state_lines() != base.state_lines() {
            return Err((
                "state".to_string(),
                format!(
                    "replica {} [{}] != baseline [{}]",
                    r.id(),
                    r.state_lines().join("; "),
                    base.state_lines().join("; ")
                ),
            ));
        }
        if r.is_consistent() != base.is_consistent() {
            return Err((
                "verdict".to_string(),
                format!(
                    "replica {} consistent={} baseline={}",
                    r.id(),
                    r.is_consistent(),
                    base.is_consistent()
                ),
            ));
        }
        let got = r
            .answer(probe, &guard)
            .map_err(|e| setup(format!("replica {} query: {e}", r.id())))?;
        if got != base_answer {
            return Err((
                "answer".to_string(),
                format!("replica {} {:?} != baseline {:?}", r.id(), got, base_answer),
            ));
        }
    }
    Ok((report.rounds, report.ops_shipped, report.crashes))
}

/// Greedy shrink: drop ops, then crashes, then partitions, then zero
/// the probabilistic knobs — keeping each removal only if the scenario
/// still fails with the **same kind**.
fn shrink(mut s: Scenario, kind: &str) -> Scenario {
    let still_fails = |s: &Scenario| matches!(&check_scenario(s, None), Err((k, _)) if k == kind);
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = 0;
        while i < s.ops.len() {
            let mut candidate = s.clone();
            candidate.ops.remove(i);
            if still_fails(&candidate) {
                s = candidate;
                progress = true;
            } else {
                i += 1;
            }
        }
    }
    let mut i = 0;
    while i < s.plan.crashes.len() {
        let mut candidate = s.clone();
        candidate.plan.crashes.remove(i);
        if still_fails(&candidate) {
            s = candidate;
        } else {
            i += 1;
        }
    }
    let mut i = 0;
    while i < s.plan.partitions.len() {
        let mut candidate = s.clone();
        candidate.plan.partitions.remove(i);
        if still_fails(&candidate) {
            s = candidate;
        } else {
            i += 1;
        }
    }
    for knob in 0..3 {
        let mut candidate = s.clone();
        match knob {
            0 => candidate.plan.drop_pct = 0,
            1 => candidate.plan.dup_pct = 0,
            _ => candidate.plan.delay_pct = 0,
        }
        if still_fails(&candidate) {
            s = candidate;
        }
    }
    s
}

/// The sync arm (`idr fuzz --sync [--wire]`): each case's scenario run
/// on `transport` and every replica checked against the baseline; a
/// failure's repro is its shrunk scenario, replayable with `idr sync`.
pub fn sync_fuzz(campaign: Campaign<'_>, transport: Transport) -> Summary<SyncCounters> {
    let (label, wire) = match transport {
        Transport::Sim => ("sync fuzz", false),
        Transport::Wire => ("wire sync fuzz", true),
    };
    let counters = SyncCounters {
        wire,
        ..SyncCounters::default()
    };
    campaign.run(label, counters, |seed, counters, metrics| {
        let mut scenario = gen_scenario(seed);
        scenario.transport = transport;
        let (kind, detail) = match check_scenario(&scenario, metrics) {
            Ok((rounds, shipped, crashes)) => {
                counters.rounds += rounds;
                counters.ops_shipped += shipped;
                counters.crashes += crashes;
                return None;
            }
            Err(e) => e,
        };
        let shrunk = shrink(scenario, &kind);
        Some(Failure {
            repro: Some(render_scenario(&shrunk)),
            ..Failure::new(seed, &kind, detail)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process equivalent of the CI sync-fuzz smoke step.
    #[test]
    fn bounded_sync_fuzz_is_clean() {
        let summary = sync_fuzz(Campaign::new(42, 25), Transport::Sim);
        assert_eq!(summary.cases, 25);
        assert!(summary.counters.rounds > 0);
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
    }

    /// The wire arm: the same scripted fault plans replayed over real
    /// loopback sockets against durable journals (bounded here; CI runs
    /// 50 cases via `idr fuzz --sync --wire`).
    #[test]
    fn bounded_wire_fuzz_is_clean() {
        let summary = sync_fuzz(Campaign::new(42, 8), Transport::Wire);
        assert_eq!(summary.cases, 8);
        assert!(summary.counters.rounds > 0);
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
    }

    #[test]
    fn sync_fuzz_is_deterministic() {
        let a = sync_fuzz(Campaign::new(7, 6), Transport::Sim);
        let b = sync_fuzz(Campaign::new(7, 6), Transport::Sim);
        assert_eq!(a.to_string(), b.to_string());
    }

    /// A scripted liveness failure (a partition that never heals within
    /// the round budget) is caught, and the shrinker keeps it failing.
    #[test]
    fn eternal_partition_is_a_liveness_failure() {
        let mut s = gen_scenario(3);
        s.plan = FaultPlan::clean();
        s.plan.partitions.push(idr_sync::Partition {
            from_round: 0,
            to_round: usize::MAX,
            groups: (0..s.replicas).map(|r| vec![r]).collect(),
        });
        // Ops on at least two replicas so isolation actually matters.
        s.ops = vec![
            ScriptedOp {
                round: 0,
                replica: 0,
                line: s.ops[0].line.clone(),
            },
            ScriptedOp {
                round: 0,
                replica: 1,
                line: s.ops[s.ops.len() - 1].line.clone(),
            },
        ];
        match check_scenario(&s, None) {
            Err((kind, _)) => assert_eq!(kind, "liveness"),
            Ok(_) => panic!("an eternally partitioned group cannot converge"),
        }
    }
}
