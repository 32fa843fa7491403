//! The replication scenario runner: N replicas, synchronous rounds, and
//! the network as a transport of the one round loop.
//!
//! A [`Scenario`] runs through [`Scenario::run`], which picks the
//! transport and hands it to this module's loop. Everything a round
//! does except moving messages is the loop's, so both transports share
//! the crash-point book, the restart, the trace, the convergence check
//! and the [`SyncReport`]:
//!
//! * **sim** (`SimNet`): the deterministic in-process simulator — a
//!   message queue under the scripted drop, duplication, delay and
//!   partition faults, with the [`SyncPolicy`] timeouts and backoff. It
//!   is the model.
//! * **wire** ([`crate::net`]): one real loopback socket exchange per
//!   ordered pair over durable journals. It is the implementation under
//!   test.
//!
//! Everything is driven by one vendored [`SplitMix64`] stream per run
//! and deterministic iteration orders, so a `(scenario, seed)` pair
//! replays the exact same execution — the property the convergence
//! oracle's shrinker and the `idr sync` CLI rely on.
//!
//! # Round structure
//!
//! 1. scripted crashes with step `start` fire;
//! 2. scripted client ops for the round apply at their replicas;
//! 3. the transport's exchange step moves the round's messages;
//!    scripted crashes pinned to a protocol step fire as the crashing
//!    replica receives that step (an in-flight ops range is cut at a
//!    byte boundary the transport picks, its complete-record prefix
//!    reaches the journal, and the replica restarts from its journals).
//!    The simulator opens a digest exchange from every replica to every
//!    peer it is not backing off from, then delivers every message due
//!    this round in `(dst, id)` order; the wire transport runs one
//!    socket exchange per ordered pair;
//! 4. the round is traced (one digest line, `sync_round_completed`,
//!    the `sync.rounds`/`sync.round_us` metrics);
//! 5. convergence is checked: scripted faults and ops all in the past,
//!    every digest equal, every rendered state and verdict
//!    byte-identical.
//!
//! In the simulator, messages sent in round `r` are never delivered
//! before `r + 1`, so a full mesh converges in a handful of rounds on a
//! clean network and the per-round trace reads as a causal history.

use std::sync::{Arc, Mutex};

use idr_obs::{MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::rng::SplitMix64;

use crate::fault::{CrashStep, FaultPlan, SyncPolicy};
use crate::proto::{self, Message};
use crate::replica::{Outgoing, Replica};
use crate::scenario::Scenario;

/// A scripted client op: `line` arrives at `replica` in `round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptedOp {
    /// The round the op arrives in.
    pub round: usize,
    /// The replica it arrives at (its origin).
    pub replica: usize,
    /// The op line (`insert R1: A=a B=b` / `delete …`).
    pub line: String,
}

/// What a scenario run did and concluded.
#[derive(Clone, Debug, Default)]
pub struct SyncReport {
    /// Whether the group converged (digest-equal, byte-identical
    /// states) before the round budget ran out.
    pub converged: bool,
    /// Whether any replica observed divergence (chain contradiction or
    /// malformed shipped data) — should never happen and fails the
    /// oracle.
    pub diverged: Option<String>,
    /// Rounds executed (the convergence round when `converged`).
    pub rounds: usize,
    /// Total ops shipped in `OpsPush` frames (retransmissions count).
    pub ops_shipped: usize,
    /// Messages offered to the network.
    pub messages_sent: usize,
    /// Messages the adversary dropped (including partition blocks).
    pub dropped: usize,
    /// Messages the adversary duplicated.
    pub duplicated: usize,
    /// Messages the adversary delayed.
    pub delayed: usize,
    /// Crashes that fired.
    pub crashes: usize,
    /// The converged consistency verdict (replica 0's when not
    /// converged).
    pub consistent: bool,
    /// The converged rendered state (replica 0's when not converged).
    pub state_lines: Vec<String>,
    /// Round-by-round digest trace lines.
    pub trace: Vec<String>,
}

/// How one round's messages move between the replicas: step 3 of the
/// round loop. Everything else a round does is the loop's.
pub(crate) trait Network {
    /// Moves this round's messages between `group`'s replicas, firing
    /// crash points pinned to protocol steps through [`Group::crash`].
    /// Returns the messages delivered.
    fn exchange(&mut self, round: usize, group: &mut Group<'_>) -> Result<usize, ExecError>;

    /// Forgets what `replica` had pending when it crashed in `round`.
    fn forget(&mut self, _round: usize, _replica: usize) {}

    /// Messages still in flight at the end of a round.
    fn in_flight(&self) -> usize {
        0
    }
}

/// The replica group a transport acts on, with the run's crash-point
/// book and report.
pub(crate) struct Group<'s> {
    /// The replicas, each behind a lock so the wire transport can lend
    /// two of them to an exchange's threads.
    pub(crate) replicas: Vec<Mutex<Replica>>,
    pub(crate) report: SyncReport,
    pub(crate) tracer: TraceHandle,
    pub(crate) guard: Guard,
    plan: &'s FaultPlan,
    /// Which of `plan.crashes` have fired.
    fired: Vec<bool>,
}

impl Group<'_> {
    /// Replica `k`, with the run's guard.
    fn replica(&mut self, k: usize) -> (&mut Replica, &Guard) {
        (
            self.replicas[k]
                .get_mut()
                .expect("replica lock poisoned by a panicked exchange"),
            &self.guard,
        )
    }

    /// Hands `msg` from `src` to replica `dst`.
    fn receive(&mut self, dst: usize, src: usize, msg: &Message) -> Result<Outgoing, ExecError> {
        let (r, guard) = self.replica(dst);
        r.receive(src, msg, guard)
    }

    /// The first unfired crash point at `step` due by `round`: of
    /// `replica`, or of any replica when `None`.
    fn due(&self, round: usize, step: CrashStep, replica: Option<usize>) -> Option<usize> {
        self.plan
            .crashes
            .iter()
            .zip(&self.fired)
            .position(|(c, &fired)| {
                !fired
                    && c.step == step
                    && round >= c.round
                    && replica.is_none_or(|r| r == c.replica)
            })
    }

    /// Fires the first unfired crash point at `step` due by `round` (of
    /// `replica`, when given), returning the replica it crashes.
    fn fire(&mut self, round: usize, step: CrashStep, replica: Option<usize>) -> Option<usize> {
        let k = self.due(round, step, replica)?;
        self.fired[k] = true;
        Some(self.plan.crashes[k].replica)
    }

    /// Whether a crash point of `replica` at `step` is due by `round`.
    pub(crate) fn crash_due(&self, round: usize, replica: usize, step: CrashStep) -> bool {
        self.due(round, step, Some(replica)).is_some()
    }

    /// `replica` crashes receiving `step`: the due crash point fires and
    /// the replica restarts.
    pub(crate) fn crash(
        &mut self,
        round: usize,
        replica: usize,
        step: CrashStep,
    ) -> Result<(), ExecError> {
        self.fire(round, step, Some(replica));
        self.restart(replica, step)
    }

    /// Crash-and-restart: the state is rebuilt from the journals (from
    /// the journal files, for a durable replica).
    fn restart(&mut self, replica: usize, step: CrashStep) -> Result<(), ExecError> {
        self.report.crashes += 1;
        let (r, guard) = self.replica(replica);
        r.reopen(guard)?;
        self.tracer.emit_with(|| TraceEvent::SyncReplicaCrashed {
            replica,
            step: Arc::from(step.name()),
        });
        Ok(())
    }
}

/// Emits `sync_ops_shipped` when `msg`, sent by `src` to `dst`, is an
/// ops push, and returns the ops it carries (0 for a digest).
pub(crate) fn trace_push(tracer: &TraceHandle, src: usize, dst: usize, msg: &Message) -> usize {
    let Message::OpsPush {
        origin,
        from,
        frame,
        ..
    } = msg
    else {
        return 0;
    };
    let count = proto::frame_record_count(frame);
    tracer.emit_with(|| TraceEvent::SyncOpsShipped {
        src,
        dst,
        origin: *origin,
        from: *from,
        count,
    });
    count
}

/// Runs `s` over `net` until convergence or the round budget, whichever
/// comes first. Returns the report and the final replicas.
pub(crate) fn run(
    s: &Scenario,
    mut net: impl Network,
    replicas: Vec<Replica>,
    tracer: TraceHandle,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<(SyncReport, Vec<Replica>), ExecError> {
    let mut g = Group {
        replicas: replicas.into_iter().map(Mutex::new).collect(),
        report: SyncReport::default(),
        tracer,
        guard: Guard::unlimited(),
        plan: &s.plan,
        fired: vec![false; s.plan.crashes.len()],
    };
    // Round wall times are the one clock-dependent output; every
    // `sync_*` trace event stays clock-free.
    let round_metrics = metrics.map(|m| {
        (
            m.counter("sync.rounds"),
            m.latency_histogram("sync.round_us"),
        )
    });
    let last_op = s.ops.iter().map(|o| o.round).max().unwrap_or(0);
    let quiet_after = s.plan.last_scripted_round().max(last_op);

    for round in 0..s.max_rounds {
        g.report.rounds = round + 1;
        let t0 = std::time::Instant::now();

        // 1. Scripted start-of-round crashes, in plan order.
        while let Some(replica) = g.fire(round, CrashStep::StartOfRound, None) {
            net.forget(round, replica);
            g.restart(replica, CrashStep::StartOfRound)?;
        }

        // 2. Scripted client ops.
        for op in s.ops.iter().filter(|o| o.round == round) {
            let (r, guard) = g.replica(op.replica);
            r.client_op(&op.line, guard)?;
        }

        // 3. The transport moves the round's messages.
        let delivered = net.exchange(round, &mut g)?;

        // 4. Trace the round.
        let digests: Vec<_> = (0..g.replicas.len())
            .map(|k| g.replica(k).0.digest())
            .collect();
        let in_sync = digests.iter().all(|d| *d == digests[0]);
        let rendered: Vec<String> = digests
            .iter()
            .enumerate()
            .map(|(k, d)| format!("r{k}={}", d.render()))
            .collect();
        g.report.trace.push(format!(
            "round {round}: {} in-flight={} {}",
            rendered.join(" "),
            net.in_flight(),
            if in_sync { "in-sync" } else { "syncing" }
        ));
        g.tracer.emit_with(|| TraceEvent::SyncRoundCompleted {
            round,
            messages: delivered,
            in_sync,
        });
        if let Some((rounds, round_us)) = &round_metrics {
            rounds.inc();
            round_us.observe_duration(t0.elapsed());
        }

        // 5. Convergence: every scripted fault and op is in the past and
        // digests are equal — stable even with stale messages still in
        // flight, because attaches are idempotent (a push computed from
        // any earlier journal re-attaches and appends nothing). The
        // rendered states are then verified byte-identical (a digest
        // match with differing states would be a canonical-order bug,
        // reported as divergence).
        if round >= quiet_after && in_sync {
            let first = g.replica(0).0;
            let (lines, verdict) = (first.state_lines(), first.is_consistent());
            let differs = (1..g.replicas.len()).find(|&k| {
                let r = g.replica(k).0;
                r.state_lines() != lines || r.is_consistent() != verdict
            });
            match differs {
                Some(k) => {
                    g.report.diverged = Some(format!(
                        "digests equal but replica {k} state differs from replica 0"
                    ))
                }
                None => g.report.converged = true,
            }
            break;
        }
    }

    let replicas: Vec<Replica> = g
        .replicas
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("replica lock poisoned by a panicked exchange")
        })
        .collect();
    let mut report = g.report;
    report.consistent = replicas[0].is_consistent();
    report.state_lines = replicas[0].state_lines();
    if report.diverged.is_none() {
        report.diverged = replicas
            .iter()
            .find_map(|r| r.diverged().map(|d| format!("replica {}: {d}", r.id())));
    }
    if report.converged {
        g.tracer.emit_with(|| TraceEvent::SyncConverged {
            rounds: report.rounds,
            ops_shipped: report.ops_shipped,
        });
    }
    Ok((report, replicas))
}

/// An in-flight message.
#[derive(Clone, Debug)]
struct Envelope {
    id: u64,
    deliver: usize,
    src: usize,
    dst: usize,
    msg: Message,
}

/// Per ordered pair `(initiator, peer)` retry bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct PeerSync {
    /// Round the awaited reply times out at, if awaiting one.
    deadline: Option<usize>,
    /// Consecutive timeouts so far.
    timeouts: u32,
    /// Earliest round the next exchange may open.
    next: usize,
}

/// The simulator's transport: a message queue under the scripted
/// faults. The simulator, not the replica, owns the retry, backoff and
/// timeout bookkeeping, so the [`SyncPolicy`] is injectable.
pub(crate) struct SimNet {
    plan: FaultPlan,
    policy: SyncPolicy,
    rng: SplitMix64,
    queue: Vec<Envelope>,
    next_id: u64,
    pairs: Vec<Vec<PeerSync>>,
}

impl SimNet {
    pub(crate) fn new(s: &Scenario) -> SimNet {
        SimNet {
            plan: s.plan.clone(),
            policy: s.policy,
            rng: SplitMix64::new(s.seed),
            queue: Vec::new(),
            next_id: 0,
            pairs: (0..s.replicas)
                .map(|_| vec![PeerSync::default(); s.replicas])
                .collect(),
        }
    }

    /// Offers a message to the faulty network.
    fn send(
        &mut self,
        report: &mut SyncReport,
        round: usize,
        src: usize,
        dst: usize,
        msg: Message,
    ) {
        report.messages_sent += 1;
        if self.plan.blocked(round, src, dst) || self.rng.gen_pct(self.plan.drop_pct) {
            report.dropped += 1;
            return;
        }
        let mut delay = 0;
        if self.plan.delay_pct > 0 && self.rng.gen_pct(self.plan.delay_pct) {
            delay = self.rng.gen_range_inclusive(1, self.plan.max_delay.max(1));
            report.delayed += 1;
        }
        let copies = if self.rng.gen_pct(self.plan.dup_pct) {
            report.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let id = self.next_id;
            self.next_id += 1;
            self.queue.push(Envelope {
                id,
                deliver: round + 1 + delay,
                src,
                dst,
                msg: msg.clone(),
            });
        }
    }
}

impl Network for SimNet {
    fn exchange(&mut self, round: usize, g: &mut Group<'_>) -> Result<usize, ExecError> {
        // Anti-entropy initiation under the injectable policy.
        let n = self.pairs.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let p = &mut self.pairs[i][j];
                if let Some(deadline) = p.deadline {
                    if round >= deadline {
                        // The awaited reply never came: a timeout.
                        p.deadline = None;
                        p.timeouts += 1;
                        if p.timeouts > self.policy.max_retries {
                            p.next = round + self.policy.backoff_rounds as usize;
                            p.timeouts = 0;
                        }
                    }
                }
                let p = self.pairs[i][j];
                if p.deadline.is_none() && round >= p.next {
                    let msg = Message::Digest {
                        digest: g.replica(i).0.digest(),
                        want_reply: true,
                    };
                    self.send(&mut g.report, round, i, j, msg);
                    let p = &mut self.pairs[i][j];
                    p.deadline = Some(round + self.policy.round_timeout.max(1) as usize);
                    p.next = round + 1;
                }
            }
        }

        // Delivery, in deterministic (dst, id) order. A replica that
        // crashes mid-round loses the rest of this round's deliveries
        // (they died in its socket buffer).
        let mut due: Vec<Envelope> = Vec::new();
        self.queue.retain(|e| {
            if e.deliver <= round {
                due.push(e.clone());
                false
            } else {
                true
            }
        });
        due.sort_by_key(|e| (e.dst, e.id));
        let mut crashed_this_round = vec![false; n];
        let mut delivered = 0usize;
        for env in due {
            if crashed_this_round[env.dst] {
                continue;
            }
            let step = env.msg.step();
            if g.crash_due(round, env.dst, step) {
                crashed_this_round[env.dst] = true;
                if let Some(torn) = env.msg.torn(|len| self.rng.gen_range_inclusive(0, len)) {
                    // The surviving prefix hits the journal; the
                    // replica's outgoing reaction dies with it.
                    g.receive(env.dst, env.src, &torn)?;
                }
                self.forget(round, env.dst);
                g.crash(round, env.dst, step)?;
                continue;
            }
            delivered += 1;
            if let Message::Digest {
                want_reply: false, ..
            } = env.msg
            {
                // The reply the initiator was waiting for.
                let p = &mut self.pairs[env.dst][env.src];
                p.deadline = None;
                p.timeouts = 0;
            }
            let out = g.receive(env.dst, env.src, &env.msg)?;
            for (dst, msg) in out.messages {
                g.report.ops_shipped += trace_push(&g.tracer, env.dst, dst, &msg);
                self.send(&mut g.report, round, env.dst, dst, msg);
            }
        }
        Ok(delivered)
    }

    /// Queued deliveries for this round die and awaited replies are
    /// forgotten.
    fn forget(&mut self, round: usize, replica: usize) {
        self.queue
            .retain(|e| !(e.dst == replica && e.deliver <= round));
        for p in &mut self.pairs[replica] {
            *p = PeerSync::default();
        }
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Transport;
    use idr_relation::parse::parse_scheme;

    fn scenario(plan: FaultPlan, seed: u64) -> Scenario {
        Scenario {
            db: parse_scheme("universe: A B C\nscheme R1: A B keys A\nscheme R2: B C keys B\n")
                .unwrap(),
            replicas: 3,
            seed,
            max_rounds: 64,
            policy: SyncPolicy::default(),
            plan,
            ops: (0..6)
                .map(|i| ScriptedOp {
                    round: i % 3,
                    replica: i % 3,
                    line: format!("insert R1: A=a{i} B=b{i}"),
                })
                .collect(),
            transport: Transport::Sim,
        }
    }

    #[test]
    fn clean_network_converges_quickly() {
        let mut s = scenario(FaultPlan::clean(), 1);
        s.max_rounds = 32;
        let (report, _) = s.run(TraceHandle::none(), None).unwrap();
        assert!(report.converged, "{:?}", report.trace);
        assert!(report.diverged.is_none());
        assert_eq!(report.state_lines.len(), 6);
        assert!(report.rounds <= 8, "clean mesh should converge fast");
        assert_eq!(report.dropped + report.duplicated + report.delayed, 0);
    }

    #[test]
    fn faulty_network_still_converges_deterministically() {
        let plan = FaultPlan {
            drop_pct: 25,
            dup_pct: 15,
            delay_pct: 25,
            max_delay: 2,
            partitions: vec![crate::fault::Partition {
                from_round: 1,
                to_round: 5,
                groups: vec![vec![0], vec![1, 2]],
            }],
            crashes: vec![crate::fault::CrashPoint {
                round: 2,
                replica: 1,
                step: CrashStep::OpsPush,
            }],
        };
        let run = |seed| {
            scenario(plan.clone(), seed)
                .run(TraceHandle::none(), None)
                .unwrap()
                .0
        };
        let a = run(42);
        let b = run(42);
        assert!(a.converged, "{:?}", a.trace);
        assert!(a.diverged.is_none());
        assert_eq!(a.state_lines, b.state_lines);
        assert_eq!(a.trace, b.trace, "same seed must replay identically");
        assert_eq!(a.ops_shipped, b.ops_shipped);
        assert!(a.crashes >= 1, "the scripted crash fired");
    }
}
