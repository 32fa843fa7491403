//! Fault plans and sync policy — the scripted adversary and the
//! injectable knobs the simulator runs under.
//!
//! A [`FaultPlan`] describes everything the network and the processes
//! may do wrong: probabilistic message drop, delay (which reorders),
//! duplication, link partitions with a scripted heal round, and crashes
//! pinned to a `(round, replica, protocol step)` triple. Crashes reuse
//! the store's cut-at-every-byte discipline for in-flight range
//! transfers: a replica crashing on an `ops_push` keeps only the
//! complete-record prefix of the frame that reached its journal.
//!
//! [`SyncPolicy`] is the replica-side counterpart: how long an
//! initiator waits for a digest reply, how many consecutive timeouts it
//! tolerates before backing off, and for how many rounds it backs off.

use idr_relation::rng::SplitMix64;

/// Retry/backoff/timeout knobs for the anti-entropy initiator. The
/// simulator enforces these **outside** the replica, so the policy is
/// injectable without touching protocol logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncPolicy {
    /// Consecutive reply timeouts tolerated before backing off.
    pub max_retries: u32,
    /// Rounds to stay silent towards a peer after `max_retries`
    /// timeouts.
    pub backoff_rounds: u32,
    /// Rounds an initiator waits for a digest reply before counting a
    /// timeout.
    pub round_timeout: u32,
}

impl Default for SyncPolicy {
    /// Three retries, two-round backoff, three-round timeout.
    fn default() -> SyncPolicy {
        SyncPolicy {
            max_retries: 3,
            backoff_rounds: 2,
            round_timeout: 3,
        }
    }
}

/// A link partition: between `from_round` (inclusive) and `to_round`
/// (exclusive) only replicas in the same group can exchange messages.
/// Replicas not listed in any group are isolated singletons.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First round the partition is in force.
    pub from_round: usize,
    /// First round after the heal.
    pub to_round: usize,
    /// The connectivity groups.
    pub groups: Vec<Vec<usize>>,
}

impl Partition {
    /// Whether `a` and `b` can talk at `round` under this partition.
    pub fn allows(&self, round: usize, a: usize, b: usize) -> bool {
        if round < self.from_round || round >= self.to_round {
            return true;
        }
        self.groups
            .iter()
            .any(|g| g.contains(&a) && g.contains(&b))
    }
}

/// The protocol step a scripted crash fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashStep {
    /// Crash at the start of the round, before any processing.
    StartOfRound,
    /// Crash while processing an incoming digest request.
    DigestRequest,
    /// Crash while processing an incoming digest reply.
    DigestReply,
    /// Crash while receiving an ops range: the in-flight frame is cut
    /// at a random byte boundary and only its complete-record prefix
    /// reaches the journal.
    OpsPush,
}

impl CrashStep {
    /// The step's scenario-file name.
    pub fn name(self) -> &'static str {
        match self {
            CrashStep::StartOfRound => "start",
            CrashStep::DigestRequest => "digest_request",
            CrashStep::DigestReply => "digest_reply",
            CrashStep::OpsPush => "ops_push",
        }
    }

    /// Parses a scenario-file step name.
    pub fn parse(s: &str) -> Result<CrashStep, String> {
        match s {
            "start" => Ok(CrashStep::StartOfRound),
            "digest_request" => Ok(CrashStep::DigestRequest),
            "digest_reply" => Ok(CrashStep::DigestReply),
            "ops_push" => Ok(CrashStep::OpsPush),
            other => Err(format!(
                "unknown crash step {other:?} (want start|digest_request|digest_reply|ops_push)"
            )),
        }
    }
}

/// A scripted crash: replica `replica` crashes the first time `step`
/// occurs for it at or after `round`. Fires at most once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Earliest round the crash can fire.
    pub round: usize,
    /// The replica that crashes.
    pub replica: usize,
    /// The protocol step it crashes on.
    pub step: CrashStep,
}

/// Everything the adversary is scripted to do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Percent of messages dropped in flight.
    pub drop_pct: u32,
    /// Percent of messages duplicated.
    pub dup_pct: u32,
    /// Percent of messages delayed by `1..=max_delay` extra rounds
    /// (delay reorders: undelayed later messages overtake).
    pub delay_pct: u32,
    /// Maximum extra rounds a delayed message waits.
    pub max_delay: usize,
    /// Scripted link partitions.
    pub partitions: Vec<Partition>,
    /// Scripted crashes.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any active partition blocks `a`–`b` at `round`.
    pub fn blocked(&self, round: usize, a: usize, b: usize) -> bool {
        self.partitions
            .iter()
            .any(|p| !p.allows(round, a, b))
    }

    /// The last round at which this plan still does anything: after it,
    /// the network is clean except for the probabilistic faults (which
    /// never end). Convergence checks wait this round out.
    pub fn last_scripted_round(&self) -> usize {
        let heal = self.partitions.iter().map(|p| p.to_round).max().unwrap_or(0);
        let crash = self.crashes.iter().map(|c| c.round + 1).max().unwrap_or(0);
        heal.max(crash)
    }

    /// Draws a random plan for `n` replicas whose scripted faults all
    /// end by `horizon` — the oracle's adversary generator. Probability
    /// knobs are moderate so convergence stays reachable.
    pub fn random(rng: &mut SplitMix64, n: usize, horizon: usize) -> FaultPlan {
        let mut plan = FaultPlan {
            drop_pct: rng.gen_range_inclusive(0, 30) as u32,
            dup_pct: rng.gen_range_inclusive(0, 20) as u32,
            delay_pct: rng.gen_range_inclusive(0, 30) as u32,
            max_delay: rng.gen_range_inclusive(1, 3),
            partitions: Vec::new(),
            crashes: Vec::new(),
        };
        if n >= 2 && rng.gen_pct(50) {
            let from = rng.gen_range(0, horizon.saturating_sub(2).max(1));
            let to = (from + rng.gen_range_inclusive(1, 4)).min(horizon);
            // A random two-group split; replicas left out are isolated.
            let mut members: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut members);
            let cut = rng.gen_range_inclusive(1, n - 1);
            plan.partitions.push(Partition {
                from_round: from,
                to_round: to,
                groups: vec![members[..cut].to_vec(), members[cut..].to_vec()],
            });
        }
        for _ in 0..rng.gen_range_inclusive(0, 2) {
            plan.crashes.push(CrashPoint {
                round: rng.gen_range(0, horizon),
                replica: rng.gen_range(0, n),
                step: match rng.gen_range(0, 4) {
                    0 => CrashStep::StartOfRound,
                    1 => CrashStep::DigestRequest,
                    2 => CrashStep::DigestReply,
                    _ => CrashStep::OpsPush,
                },
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_block_only_in_window_and_across_groups() {
        let p = Partition {
            from_round: 2,
            to_round: 5,
            groups: vec![vec![0, 1], vec![2]],
        };
        assert!(p.allows(1, 0, 2), "before the window");
        assert!(p.allows(5, 0, 2), "after the heal");
        assert!(p.allows(3, 0, 1), "same group");
        assert!(!p.allows(3, 0, 2), "across groups");
        assert!(!p.allows(3, 1, 3), "unlisted replicas are isolated");
    }

    #[test]
    fn random_plans_end_by_their_horizon() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let plan = FaultPlan::random(&mut rng, 3, 10);
            assert!(plan.last_scripted_round() <= 10, "{plan:?}");
        }
    }
}
