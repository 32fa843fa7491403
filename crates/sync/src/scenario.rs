//! Scripted sync scenarios: a line-oriented text format the `idr sync`
//! CLI runs and the convergence oracle writes its shrunk failures in.
//!
//! ```text
//! # two replicas, a lossy link, one crash mid-transfer
//! replicas: 2
//! seed: 42
//! max-rounds: 64
//! policy: retries=3 backoff=2 timeout=3
//! drop: 20
//! dup: 10
//! delay: 20 max 2
//! partition: 1..4 0 | 1
//! crash: 2 1 ops_push
//! scheme {
//! universe: A B C
//! scheme R1: A B keys A
//! scheme R2: B C keys B
//! }
//! op: 0 0 insert R1: A=a B=b
//! op: 1 1 insert R2: B=b C=c
//! ```
//!
//! Every knob has a default (`seed: 0`, `max-rounds: 64`, the default
//! [`SyncPolicy`], a clean network), so a minimal scenario is just
//! `replicas:`, a `scheme { … }` block and some `op:` lines. The format
//! round-trips through [`render_scenario`], which is how failing fuzz
//! cases become replayable fixture files.

use std::sync::Arc;

use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::ExecError;
use idr_relation::parse::{parse_scheme, render_scheme_file};
use idr_relation::DatabaseScheme;

use crate::fault::{CrashPoint, CrashStep, FaultPlan, Partition, SyncPolicy};
use crate::net::WireNet;
use crate::replica::Replica;
use crate::sim::{self, ScriptedOp, SimNet, SyncReport};

/// How a scenario's messages move between its replicas: the transport
/// of the one round loop ([`crate::sim`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The deterministic in-process simulator's message queue (the
    /// model).
    #[default]
    Sim,
    /// Real loopback sockets between replicas with durable journals
    /// ([`crate::net`] — the implementation under test).
    Wire,
}

impl Transport {
    /// The directive token (`sim` / `wire`).
    pub fn name(self) -> &'static str {
        match self {
            Transport::Sim => "sim",
            Transport::Wire => "wire",
        }
    }
}

/// A parsed scenario: everything a run needs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scheme the replicas serve.
    pub db: DatabaseScheme,
    /// Replica count.
    pub replicas: usize,
    /// The adversary's seed.
    pub seed: u64,
    /// Round budget.
    pub max_rounds: usize,
    /// Retry/backoff/timeout policy.
    pub policy: SyncPolicy,
    /// The scripted adversary.
    pub plan: FaultPlan,
    /// The scripted client ops.
    pub ops: Vec<ScriptedOp>,
    /// How its messages move (`transport:` directive, default sim).
    pub transport: Transport,
}

impl Scenario {
    /// Runs the scenario until its replicas converge or `max_rounds`
    /// run out, whichever comes first: `tracer` receives the
    /// deterministic `sync_*` events, `metrics` the wall-clock round
    /// timings (`sync.round_us` / `sync.rounds`). Returns the report
    /// and the final replicas. A wire run's journal files are removed
    /// when it ends; its replicas keep their journals and state in
    /// memory.
    pub fn run(
        &self,
        tracer: TraceHandle,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<(SyncReport, Vec<Replica>), ExecError> {
        match self.transport {
            Transport::Sim => {
                let replicas = (0..self.replicas)
                    .map(|k| Replica::new(k, self.replicas, &self.db))
                    .collect();
                sim::run(self, SimNet::new(self), replicas, tracer, metrics)
            }
            Transport::Wire => {
                let (net, replicas) = WireNet::open(self)?;
                sim::run(self, net, replicas, tracer, metrics)
            }
        }
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("{what}: expected a number, got {s:?}"))
}

/// Parses `key=N` out of a policy clause.
fn policy_field(clause: &str, key: &str) -> Result<Option<u32>, String> {
    match clause.split_once('=') {
        Some((k, v)) if k.trim() == key => v
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| format!("policy {key}: bad number {v:?}")),
        _ => Ok(None),
    }
}

/// Parses scenario text. Unknown directives are errors (a typo in a
/// fault line silently weakening the adversary would be worse).
pub fn parse_scenario(text: &str) -> Result<Scenario, String> {
    let mut replicas = None;
    let mut seed = 0u64;
    let mut max_rounds = 64usize;
    let mut policy = SyncPolicy::default();
    let mut plan = FaultPlan::clean();
    let mut transport = Transport::default();
    let mut ops = Vec::new();
    let mut scheme_text: Option<String> = None;
    let mut lines = text.lines().enumerate();
    while let Some((n, raw)) = lines.next() {
        let line = raw.trim();
        let at = |detail: String| format!("line {}: {detail}", n + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "scheme {" {
            let mut body = String::new();
            let mut closed = false;
            for (_, raw) in lines.by_ref() {
                if raw.trim() == "}" {
                    closed = true;
                    break;
                }
                body.push_str(raw);
                body.push('\n');
            }
            if !closed {
                return Err(at("unterminated scheme { block".to_string()));
            }
            scheme_text = Some(body);
            continue;
        }
        let (key, rest) = line
            .split_once(':')
            .ok_or_else(|| at(format!("expected 'directive: …', got {line:?}")))?;
        let rest = rest.trim();
        match key.trim() {
            "replicas" => replicas = Some(parse_usize(rest, "replicas").map_err(&at)?),
            "seed" => {
                seed = rest
                    .parse()
                    .map_err(|_| at(format!("seed: bad number {rest:?}")))?
            }
            "max-rounds" => max_rounds = parse_usize(rest, "max-rounds").map_err(&at)?,
            "transport" => {
                transport = match rest {
                    "sim" => Transport::Sim,
                    "wire" => Transport::Wire,
                    other => {
                        return Err(at(format!(
                            "transport: want 'sim' or 'wire', got {other:?}"
                        )))
                    }
                }
            }
            "policy" => {
                for clause in rest.split_whitespace() {
                    let mut known = false;
                    if let Some(v) = policy_field(clause, "retries").map_err(&at)? {
                        policy.max_retries = v;
                        known = true;
                    }
                    if let Some(v) = policy_field(clause, "backoff").map_err(&at)? {
                        policy.backoff_rounds = v;
                        known = true;
                    }
                    if let Some(v) = policy_field(clause, "timeout").map_err(&at)? {
                        policy.round_timeout = v;
                        known = true;
                    }
                    if !known {
                        return Err(at(format!(
                            "policy: unknown clause {clause:?} (want retries=N backoff=N timeout=N)"
                        )));
                    }
                }
            }
            "drop" => plan.drop_pct = parse_usize(rest, "drop").map_err(&at)? as u32,
            "dup" => plan.dup_pct = parse_usize(rest, "dup").map_err(&at)? as u32,
            "delay" => {
                // `delay: PCT [max N]`
                let mut parts = rest.split_whitespace();
                plan.delay_pct =
                    parse_usize(parts.next().unwrap_or(""), "delay pct").map_err(&at)? as u32;
                match (parts.next(), parts.next()) {
                    (None, _) => plan.max_delay = plan.max_delay.max(1),
                    (Some("max"), Some(v)) => {
                        plan.max_delay = parse_usize(v, "delay max").map_err(&at)?
                    }
                    _ => return Err(at(format!("delay: want 'PCT [max N]', got {rest:?}"))),
                }
            }
            "partition" => {
                // `partition: FROM..TO a b | c d`
                let (window, groups) = rest
                    .split_once(' ')
                    .ok_or_else(|| at(format!("partition: want 'FROM..TO groups', got {rest:?}")))?;
                let (from, to) = window
                    .split_once("..")
                    .ok_or_else(|| at(format!("partition window: want FROM..TO, got {window:?}")))?;
                let groups = groups
                    .split('|')
                    .map(|g| {
                        g.split_whitespace()
                            .map(|r| parse_usize(r, "partition member"))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(&at)?;
                plan.partitions.push(Partition {
                    from_round: parse_usize(from, "partition from").map_err(&at)?,
                    to_round: parse_usize(to, "partition to").map_err(&at)?,
                    groups,
                });
            }
            "crash" => {
                // `crash: ROUND REPLICA STEP`
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [round, replica, step] = parts[..] else {
                    return Err(at(format!("crash: want 'ROUND REPLICA STEP', got {rest:?}")));
                };
                plan.crashes.push(CrashPoint {
                    round: parse_usize(round, "crash round").map_err(&at)?,
                    replica: parse_usize(replica, "crash replica").map_err(&at)?,
                    step: CrashStep::parse(step).map_err(&at)?,
                });
            }
            "op" => {
                // `op: ROUND REPLICA insert R1: A=a B=b`
                let parts: Vec<&str> = rest.splitn(3, ' ').collect();
                let [round, replica, line] = parts[..] else {
                    return Err(at(format!("op: want 'ROUND REPLICA OP-LINE', got {rest:?}")));
                };
                ops.push(ScriptedOp {
                    round: parse_usize(round, "op round")?,
                    replica: parse_usize(replica, "op replica")?,
                    line: line.to_string(),
                });
            }
            other => return Err(at(format!("unknown directive {other:?}"))),
        }
    }
    let replicas = replicas.ok_or("missing 'replicas:' directive")?;
    if replicas == 0 {
        return Err("replicas must be at least 1".to_string());
    }
    let scheme_text = scheme_text.ok_or("missing 'scheme { … }' block")?;
    let db = parse_scheme(&scheme_text).map_err(|e| format!("scheme block: {e}"))?;
    for op in &ops {
        if op.replica >= replicas {
            return Err(format!(
                "op targets replica {} but there are only {replicas}",
                op.replica
            ));
        }
    }
    for c in &plan.crashes {
        if c.replica >= replicas {
            return Err(format!(
                "crash targets replica {} but there are only {replicas}",
                c.replica
            ));
        }
    }
    Ok(Scenario {
        db,
        replicas,
        seed,
        max_rounds,
        policy,
        plan,
        ops,
        transport,
    })
}

/// Renders a scenario back to its file format (parse ∘ render is the
/// identity on the semantic content).
pub fn render_scenario(s: &Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!("replicas: {}\n", s.replicas));
    out.push_str(&format!("seed: {}\n", s.seed));
    out.push_str(&format!("max-rounds: {}\n", s.max_rounds));
    if s.transport != Transport::Sim {
        out.push_str(&format!("transport: {}\n", s.transport.name()));
    }
    out.push_str(&format!(
        "policy: retries={} backoff={} timeout={}\n",
        s.policy.max_retries, s.policy.backoff_rounds, s.policy.round_timeout
    ));
    if s.plan.drop_pct > 0 {
        out.push_str(&format!("drop: {}\n", s.plan.drop_pct));
    }
    if s.plan.dup_pct > 0 {
        out.push_str(&format!("dup: {}\n", s.plan.dup_pct));
    }
    if s.plan.delay_pct > 0 {
        out.push_str(&format!(
            "delay: {} max {}\n",
            s.plan.delay_pct, s.plan.max_delay
        ));
    }
    for p in &s.plan.partitions {
        let groups = p
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!(
            "partition: {}..{} {}\n",
            p.from_round, p.to_round, groups
        ));
    }
    for c in &s.plan.crashes {
        out.push_str(&format!(
            "crash: {} {} {}\n",
            c.round,
            c.replica,
            c.step.name()
        ));
    }
    out.push_str("scheme {\n");
    out.push_str(&render_scheme_file(&s.db));
    out.push_str("}\n");
    for op in &s.ops {
        out.push_str(&format!("op: {} {} {}\n", op.round, op.replica, op.line));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# comment
replicas: 3
seed: 7
max-rounds: 40
policy: retries=2 backoff=1 timeout=2
drop: 15
dup: 5
delay: 10 max 2
partition: 1..4 0 1 | 2
crash: 2 1 ops_push
scheme {
universe: A B C
scheme R1: A B keys A
scheme R2: B C keys B
}
op: 0 0 insert R1: A=a B=b
op: 1 2 insert R2: B=b C=c
";

    #[test]
    fn parses_and_round_trips() {
        let s = parse_scenario(EXAMPLE).unwrap();
        assert_eq!(s.replicas, 3);
        assert_eq!(s.seed, 7);
        assert_eq!(s.policy.max_retries, 2);
        assert_eq!(s.plan.drop_pct, 15);
        assert_eq!(s.plan.partitions.len(), 1);
        assert_eq!(s.plan.crashes.len(), 1);
        assert_eq!(s.ops.len(), 2);
        let rendered = render_scenario(&s);
        let s2 = parse_scenario(&rendered).unwrap();
        assert_eq!(s2.replicas, s.replicas);
        assert_eq!(s2.plan, s.plan);
        assert_eq!(s2.ops, s.ops);
        assert_eq!(s2.policy, s.policy);
    }

    #[test]
    fn runs_to_convergence() {
        let s = parse_scenario(EXAMPLE).unwrap();
        let (report, _) = s.run(TraceHandle::none(), None).unwrap();
        assert!(report.converged, "{:?}", report.trace);
        assert!(report.diverged.is_none());
        assert_eq!(report.state_lines.len(), 2);
    }

    #[test]
    fn transport_directive_round_trips() {
        let s = parse_scenario(EXAMPLE).unwrap();
        assert_eq!(s.transport, Transport::Sim, "sim is the default");
        assert!(
            !render_scenario(&s).contains("transport:"),
            "the default transport renders implicitly"
        );
        let mut wire = s.clone();
        wire.transport = Transport::Wire;
        let rendered = render_scenario(&wire);
        assert!(rendered.contains("transport: wire\n"), "{rendered}");
        let back = parse_scenario(&rendered).unwrap();
        assert_eq!(back.transport, Transport::Wire);
        assert_eq!(back.plan, wire.plan);
        assert_eq!(back.ops, wire.ops);
        // And an explicit `transport: sim` parses too.
        let explicit = parse_scenario(&format!("transport: sim\n{EXAMPLE}")).unwrap();
        assert_eq!(explicit.transport, Transport::Sim);
    }

    #[test]
    fn rejects_malformed_directives() {
        for (bad, want) in [
            ("replicas: x\n", "expected a number"),
            ("bogus: 1\n", "unknown directive"),
            ("crash: 1 0 explode\nreplicas: 1\n", "unknown crash step"),
            ("transport: carrier-pigeon\nreplicas: 1\n", "transport: want"),
            ("replicas: 1\n", "missing 'scheme"),
        ] {
            let err = parse_scenario(bad).unwrap_err();
            assert!(err.contains(want), "{bad:?} -> {err}");
        }
    }
}
