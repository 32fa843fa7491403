//! `idr` — command-line scheme analyser for the PODS'88 reproduction.
//!
//! Every subcommand goes through the [`Engine`] facade: the scheme is
//! parsed once, Algorithm 6 runs once, and classification, bounded-query
//! expressions and chases are served from the engine's caches.
//!
//! ## Scheme file format
//!
//! ```text
//! # comments and blank lines are ignored
//! universe: H R C T S G
//! scheme R1: H R C  keys H R
//! scheme R2: H T R  keys H T | H R
//! scheme R3: H T C  keys H T
//! scheme R4: C S G  keys C S
//! scheme R5: H S R  keys H S
//! ```
//!
//! Attribute names are whitespace-separated tokens; alternative keys are
//! separated by `|`.
//!
//! ## State file format
//!
//! One tuple per line: the relation name, a colon, then `ATTR=value`
//! pairs covering exactly the relation's attributes.
//!
//! ```text
//! R1: H=h1 R=r1 C=c1
//! R4: C=c1 S=s1 G=g1
//! ```
//!
//! ## Usage
//!
//! ```text
//! idr classify <scheme-file>
//! idr project  <scheme-file> <ATTR> [<ATTR> ...]
//! idr chase    <scheme-file> <state-file>
//! idr query    <scheme-file> <state-file> <ATTR> [<ATTR> ...]
//! idr maintain <scheme-file> <state-file> <TUPLE> [<TUPLE> ...]
//! idr explain  <scheme-file> <state-file> <ATTR> [<ATTR> ...]
//! idr explain  <scheme-file> <state-file> --insert <TUPLE>
//! idr closure  <UNIVERSE> <FDS> <X>   # e.g. idr closure ABCD "AB->C, C->D" AB
//! idr fuzz     [--seed N] [--cases K] [--shrink] [--out DIR]
//! idr fuzz     --replay <fixture-file>
//! idr fuzz     --crash [--concurrent] [--seed N] [--cases K]
//! idr fuzz     --sync [--wire] [--seed N] [--cases K] [--out DIR]
//! idr fuzz     --concurrent [--seed N] [--cases K] [--out DIR]
//! idr fuzz     --batch [--seed N] [--cases K]
//! idr init     <data-dir> <scheme-file>
//! idr serve    --data-dir <dir> [--snapshot-every N] [--clients N] [--group-commit-window US] [--stats-every N] [--slow-op-us T]
//! idr serve    --data-dir <dir> --listen ADDR [--peer ADDR]... --origin K --origins N
//! idr recover  --data-dir <dir> [<ATTR> ...]
//! idr sync     [--wire] <scenario-file>   # scripted replication scenario
//! idr demo                            # runs on the paper's Example 1
//! ```
//!
//! `<TUPLE>` is one state-file line, quoted: `"R1: H=h2 R=r2 C=c9"`.
//!
//! ## Durable mode
//!
//! `idr init` creates a data directory: a copy of the scheme, an empty
//! epoch-0 snapshot and an empty write-ahead log. `idr serve` recovers
//! the directory and reads one op per stdin line — `insert R1: A=a B=b`,
//! `delete R1: A=a B=b`, `query A B`, `quit` — logging every mutation to
//! the WAL *before* applying it in memory, and (with `--snapshot-every`)
//! cutting a snapshot and rotating the log every N completed ops. A
//! clean `quit` after a session that logged writes checkpoints the same
//! way, so the data dir it leaves holds no log to replay.
//! `--clients N` serves mutations through N concurrent writer lanes over
//! one shared hub (responses are tagged `[op K]` and may interleave);
//! `--group-commit-window US` lets a commit leader linger US
//! microseconds so concurrent lanes share one WAL batch and one fsync.
//! Queries answer from an epoch-stamped snapshot and never block the
//! lanes.
//! A `begin` line opens a framed op group: subsequent mutations buffer
//! until `commit` applies them as **one batch** — one dirty-row chase
//! seeding per touched block, one WAL batch, one fsync — with per-op
//! verdicts reported under the commit's `[op K]` tag. A typed error
//! rolls the whole group back (nothing applied, nothing logged). This
//! is the bulk-load fast path: see the README walkthrough for a
//! million-tuple transcript.
//! `idr recover` replays snapshot + WAL tail through the guarded engine,
//! reports what it found (records replayed, inserts re-rejected, torn
//! bytes truncated) and the re-earned consistency verdict; trailing attribute
//! names run one query against the recovered state. `idr fuzz --crash`
//! is the matching oracle: it cuts the WAL at every byte boundary,
//! recovers, and differentially compares state, verdict and answers
//! against a run that never crashed (exit 8 on any mismatch); with
//! `--concurrent` the live run is multi-writer over a group-commit
//! store, so the cuts land mid-batch and each prefix is checked
//! against a serial replay of the surviving committed order.
//!
//! `idr fuzz --concurrent` is the serving-layer oracle: client threads
//! race over one hub while the durability sink records the committed
//! op order, and a serial replay of that order must reproduce the
//! concurrent final state, verdict and query answers byte for byte
//! (Theorem 4.2's commutation claim under real threads). Divergences
//! shrink greedily and land as self-describing fixtures under `--out`.
//!
//! `idr fuzz` runs the differential oracle of the `idr-oracle` crate:
//! seed-deterministic generated cases replayed against four oracles in
//! lockstep (parallel session, serial session, from-scratch naive chase,
//! Theorem 4.1 expressions). Any divergence is written as a replayable
//! fixture under `--out` (default `target/fuzz-failures`) and the run
//! exits with code 8; `--shrink` minimises failures first, and
//! `--replay` re-runs one fixture file.
//!
//! ## Replication
//!
//! `idr sync <scenario-file>` runs one scripted replication scenario
//! through the deterministic simulator of the `idr-sync` crate: N
//! replicas ship write-ahead-log ranges to each other under digest-based
//! anti-entropy while a scripted adversary drops, delays, duplicates,
//! partitions and crashes. The round-by-round digest trace is printed,
//! then the converged state; a scenario that fails to converge inside
//! its round budget (or diverges outright) exits 8. The scenario format
//! is documented in `idr_sync::scenario` and demonstrated under
//! `examples/`. A scenario with `transport: wire` (or the `--wire`
//! flag) moves its messages over real loopback sockets between
//! replicas with journal files on disk instead of through the
//! simulator's message queue — same round loop, same fault plan, same
//! convergence check. `idr fuzz --sync` is the matching oracle:
//! random op streams partitioned across replicas under random fault
//! plans, with every replica's converged state checked byte-for-byte
//! against a never-partitioned baseline; failures shrink to replayable
//! scenario files under `--out`. `idr fuzz --sync --wire` runs the
//! same scripted fault plans, and the same per-replica checks, over
//! loopback sockets.
//!
//! `idr serve --listen ADDR --peer ADDR --origin K --origins N` is the
//! real thing: replicas as separate processes exchanging the same
//! protocol frames over TCP, per-origin journals durable under
//! `DIR/sync/`. The wire contract — framing, handshake, digest-chain
//! verification, torn-frame semantics — is written down in
//! `docs/WIRE.md`.
//!
//! `idr maintain` routes each tuple through the paper's maintenance
//! algorithms (Algorithm 5 on constant-time-maintainable schemes,
//! Algorithm 2 otherwise) and reports the verdict plus selection counts.
//! Transient-fault handling is configurable: `--retries N` retries
//! injected transient faults up to N times and `--backoff-ms M` sets the
//! base of the exponential backoff between attempts (default: no
//! retries — every fault surfaces immediately).
//! `idr explain` reports chase provenance: for a query, the fd-firing
//! chain behind every derived cell of the X-total projection; with
//! `--insert`, why the tuple was rejected (the violated key dependency,
//! the witness rows, and the chains under which their key values came to
//! agree).
//!
//! Budget flags (accepted anywhere on the command line; every metered
//! computation is charged against the one [`Budget`] they build):
//!
//! * `--max-steps N` — cap on metered work units (chase steps, selections
//!   and enumerated subsets all count against it).
//! * `--timeout-ms N` — wall-clock deadline.
//! * `--serial` — disable block-parallel evaluation (results are
//!   identical; this only changes wall-clock).
//! * `--retries N` / `--backoff-ms M` — retry policy for transient
//!   faults in the maintenance path (see `idr maintain` above).
//!
//! Observability flags (also accepted anywhere):
//!
//! * `--trace[=text|json]` — emit the structured event stream to stderr
//!   after the command finishes (`text` is the default form). Traces are
//!   deterministic: `--serial` and parallel runs print identical streams.
//! * `--metrics PATH` — write a [`MetricsRegistry`] snapshot as
//!   single-line JSON to `PATH`.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | state is inconsistent |
//! | 2 | usage error |
//! | 3 | parse error (scheme file, state file or FD spec) |
//! | 4 | scheme is not independence-reducible |
//! | 5 | budget exceeded (`--max-steps`) |
//! | 6 | timed out (`--timeout-ms`) |
//! | 7 | fault, cancellation, or a rejected replication handshake |
//! | 8 | differential fuzzing found a divergence (`idr fuzz`), or replicas failed to converge (`idr sync`) |

use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use independence_reducible::chase::{FiringInfo, RejectionExplanation};
use independence_reducible::core::split::split_keys;
use independence_reducible::exec::{Budget, ExecError, Guard, RetryPolicy};
use independence_reducible::obs;
use independence_reducible::prelude::*;
use independence_reducible::relation::parse::{parse_scheme, parse_state, parse_tuple_line};
use independence_reducible::store::{self, Store};

const EXIT_INCONSISTENT: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_PARSE: u8 = 3;
const EXIT_NOT_IR: u8 = 4;
const EXIT_BUDGET: u8 = 5;
const EXIT_TIMEOUT: u8 = 6;
const EXIT_FAULT: u8 = 7;
const EXIT_DIVERGENCE: u8 = 8;

/// Rendering requested by `--trace[=text|json]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    Text,
    Json,
}

/// The command line after stripping global flags.
struct CliOpts {
    args: Vec<String>,
    budget: Budget,
    parallel: bool,
    trace: Option<TraceFormat>,
    metrics: Option<String>,
    retry: RetryPolicy,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_flags(&raw) {
        Ok(opts) => opts,
        Err(e) => return usage(&e),
    };
    let CliOpts {
        args,
        budget,
        parallel,
        trace,
        metrics,
        retry,
    } = opts;
    // The explain subcommand needs the merge forest even without --trace.
    let provenance =
        trace.is_some() || args.first().map(String::as_str) == Some("explain");
    let log = trace.map(|_| Arc::new(EventLog::new(1 << 20)));
    let registry = metrics.as_ref().map(|_| Arc::new(MetricsRegistry::new()));
    let obs = Observability {
        tracer: log
            .as_ref()
            .map(|l| TraceHandle::to_log(Arc::clone(l)))
            .unwrap_or_default(),
        metrics: registry.clone(),
        provenance,
    };
    let engine_for = |path: &str| -> Result<Engine, String> {
        Ok(Engine::new(load(path)?)
            .with_parallel(parallel)
            .with_observability(obs.clone()))
    };
    let code = match args.first().map(String::as_str) {
        Some("classify") if args.len() == 2 => match engine_for(&args[1]) {
            Ok(engine) => {
                report(&engine);
                ExitCode::SUCCESS
            }
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("project") if args.len() >= 3 => match engine_for(&args[1]) {
            Ok(engine) => project(&engine, &args[2..], budget),
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("chase") if args.len() == 3 => match engine_for(&args[1]) {
            Ok(engine) => chase_cmd(&engine, &args[2], budget),
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("query") if args.len() >= 4 => match engine_for(&args[1]) {
            Ok(engine) => query_cmd(&engine, &args[2], &args[3..], budget),
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("maintain") if args.len() >= 4 => match engine_for(&args[1]) {
            Ok(engine) => maintain_cmd(&engine, &args[2], &args[3..], budget, &retry),
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("explain") if args.len() >= 4 => match engine_for(&args[1]) {
            Ok(engine) => explain_cmd(&engine, &args[2], &args[3..], budget),
            Err(e) => fail(EXIT_PARSE, &e),
        },
        Some("closure") if args.len() == 4 => closure(&args[1], &args[2], &args[3]),
        Some("fuzz") => fuzz_cmd(&args[1..], &obs),
        Some("init") if args.len() == 3 => init_cmd(&args[1], &args[2]),
        Some("serve") => serve_cmd(&args[1..], budget, &obs, parallel, &retry),
        Some("recover") => recover_cmd(&args[1..], budget, &obs, parallel),
        Some("sync") if args.len() >= 2 => sync_cmd(&args[1..], &obs),
        Some("demo") => {
            let db = SchemeBuilder::new("CTHRSG")
                .scheme("R1", "HRC", ["HR"])
                .scheme("R2", "HTR", ["HT", "HR"])
                .scheme("R3", "HTC", ["HT"])
                .scheme("R4", "CSG", ["CS"])
                .scheme("R5", "HSR", ["HS"])
                .build()
                .expect("demo scheme");
            report(
                &Engine::new(db)
                    .with_parallel(parallel)
                    .with_observability(obs.clone()),
            );
            ExitCode::SUCCESS
        }
        _ => usage("see the subcommand list"),
    };
    flush_obs(log.as_deref(), trace, registry.as_deref(), metrics.as_deref());
    code
}

/// Drains the trace ring to stderr and writes the metrics snapshot, as
/// requested by `--trace` / `--metrics`. Runs after the subcommand so
/// event emission never interleaves with result output.
fn flush_obs(
    log: Option<&EventLog>,
    format: Option<TraceFormat>,
    registry: Option<&MetricsRegistry>,
    metrics_path: Option<&str>,
) {
    if let (Some(log), Some(format)) = (log, format) {
        for e in log.drain() {
            match format {
                TraceFormat::Text => eprintln!("{}", e.render_text()),
                TraceFormat::Json => eprintln!("{}", e.to_json()),
            }
        }
        if log.dropped() > 0 {
            eprintln!("trace: {} event(s) dropped (ring full)", log.dropped());
        }
    }
    if let (Some(m), Some(path)) = (registry, metrics_path) {
        let snap = m.snapshot();
        // A `.prom` extension selects the text exposition format; any
        // other path gets the pinned JSON snapshot.
        let body = if path.ends_with(".prom") {
            obs::render_prometheus(&snap)
        } else {
            let mut json = snap.to_json();
            json.push('\n');
            json
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write metrics to {path}: {e}");
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "usage ({msg}):\n  idr classify <scheme-file>\n  idr project <scheme-file> <ATTR>...\n  idr chase <scheme-file> <state-file>\n  idr query <scheme-file> <state-file> <ATTR>...\n  idr maintain <scheme-file> <state-file> <TUPLE>...\n  idr explain <scheme-file> <state-file> <ATTR>... | --insert <TUPLE>\n  idr closure <UNIVERSE> <FDS> <X>\n  idr fuzz [--seed N] [--cases K] [--shrink] [--out DIR] | --replay FILE | --crash [--concurrent] | --sync [--wire] | --concurrent | --batch\n  idr init <data-dir> <scheme-file>\n  idr serve --data-dir DIR [--snapshot-every N] [--clients N] [--group-commit-window US] [--stats-every N] [--slow-op-us T]   (ops from stdin; `.stats` prints live stats)\n  idr serve --data-dir DIR --listen ADDR [--peer ADDR]... --origin K --origins N [--sync-interval-ms MS]   (networked replication; see docs/WIRE.md)\n  idr recover --data-dir DIR [<ATTR>...]\n  idr sync [--wire] <scenario-file>\n  idr demo\noptions: --max-steps N, --timeout-ms N, --serial, --retries N, --backoff-ms M, --trace[=text|json], --metrics PATH (.prom extension selects text exposition)\n<TUPLE> is a quoted state line, e.g. \"R1: H=h2 R=r2 C=c9\""
    );
    ExitCode::from(EXIT_USAGE)
}

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(code)
}

/// Strips the global flags out of the argument list: `--max-steps N` /
/// `--timeout-ms N` fold into one [`Budget`] (`--max-steps` caps every
/// metered resource — chase steps, single-tuple selections and enumerated
/// subsets — since from the command line they are all just "work");
/// `--serial`, `--trace[=text|json]` and `--metrics PATH` set their
/// respective [`CliOpts`] fields; `--retries N` and `--backoff-ms M`
/// build the transient-fault [`RetryPolicy`] used by `idr maintain`
/// (default: no retries).
fn parse_flags(raw: &[String]) -> Result<CliOpts, String> {
    let mut args = Vec::new();
    let mut budget = Budget::unlimited();
    let mut parallel = true;
    let mut trace = None;
    let mut metrics = None;
    let mut retries = 0u32;
    let mut backoff_ms = None;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let numeric = |flag: &str| -> Result<u64, String> {
            it.clone()
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an unsigned integer"))
        };
        match a.as_str() {
            "--max-steps" => {
                let n = numeric("--max-steps")?;
                it.next();
                budget = budget
                    .with_max_chase_steps(n)
                    .with_max_lookups(n)
                    .with_max_enumeration(n);
            }
            "--timeout-ms" => {
                let ms = numeric("--timeout-ms")?;
                it.next();
                budget = budget.with_timeout(std::time::Duration::from_millis(ms));
            }
            "--serial" => parallel = false,
            "--retries" => {
                let n = numeric("--retries")?;
                it.next();
                retries = u32::try_from(n)
                    .map_err(|_| "--retries needs a value that fits in u32".to_string())?;
            }
            "--backoff-ms" => {
                let ms = numeric("--backoff-ms")?;
                it.next();
                backoff_ms = Some(ms);
            }
            "--trace" | "--trace=text" => trace = Some(TraceFormat::Text),
            "--trace=json" => trace = Some(TraceFormat::Json),
            "--metrics" => {
                metrics = Some(
                    it.next()
                        .ok_or_else(|| "--metrics needs a path".to_string())?
                        .clone(),
                );
            }
            other if other.starts_with("--trace=") => {
                return Err(format!(
                    "unknown trace format {:?} (expected text or json)",
                    &other["--trace=".len()..]
                ));
            }
            _ => args.push(a.clone()),
        }
    }
    if backoff_ms.is_some() && retries == 0 {
        return Err("--backoff-ms only applies together with --retries".to_string());
    }
    let mut retry = RetryPolicy::retries(retries);
    if let Some(ms) = backoff_ms {
        retry = retry.with_base_backoff(std::time::Duration::from_millis(ms));
    }
    Ok(CliOpts {
        args,
        budget,
        parallel,
        trace,
        metrics,
        retry,
    })
}

/// Maps a typed execution error to its documented exit code.
fn exec_exit(e: &ExecError) -> u8 {
    match e {
        ExecError::BudgetExceeded { .. } => EXIT_BUDGET,
        ExecError::TimedOut { .. } => EXIT_TIMEOUT,
        ExecError::Cancelled | ExecError::Faulted { .. } => EXIT_FAULT,
        ExecError::Inconsistent { .. } => EXIT_INCONSISTENT,
        // Not resumable — retrying with a larger budget cannot help, so
        // it is a fault, not a budget trip.
        ExecError::CapacityExceeded { .. } => EXIT_FAULT,
    }
}

/// Maps a durability-layer error to its documented exit code. Every
/// [`store::StoreError`] variant is a fault (exit 7); the match is
/// exhaustive so adding a variant forces an explicit decision here.
fn store_exit(e: &store::StoreError) -> u8 {
    match e {
        store::StoreError::Io { .. }
        | store::StoreError::Corrupt { .. }
        | store::StoreError::Format { .. }
        | store::StoreError::Replay { .. } => EXIT_FAULT,
    }
}

fn load(path: &str) -> Result<DatabaseScheme, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_scheme(&text)
}

fn load_state(
    path: &str,
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
) -> Result<DatabaseState, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_state(&text, db, symbols)
}

fn report(engine: &Engine) {
    let db = engine.scheme();
    let kd = engine.key_deps();
    let u = db.universe();
    println!("schemes:");
    for s in db.schemes() {
        let keys: Vec<String> = s.keys().iter().map(|&k| u.render(k)).collect();
        println!(
            "  {}({})  keys {{{}}}",
            s.name(),
            u.render(s.attrs()),
            keys.join(", ")
        );
    }
    println!("embedded key dependencies: {}", kd.full().render(u));
    let c = engine.classification();
    println!("classification: {}", c.summary());
    match &c.independence_reducible {
        Some(ir) => {
            println!("independence-reducible partition:");
            for (b, block) in ir.partition.iter().enumerate() {
                let names: Vec<&str> =
                    block.iter().map(|&i| db.scheme(i).name()).collect();
                println!(
                    "  T{} = {{{}}}   ∪T{} = {}",
                    b + 1,
                    names.join(", "),
                    b + 1,
                    u.render(ir.block_attrs[b])
                );
                let splits = split_keys(db, kd, block);
                for s in splits {
                    let places: Vec<&str> =
                        s.split_in.iter().map(|&i| db.scheme(i).name()).collect();
                    println!(
                        "    split key {} (in the closures of {})",
                        u.render(s.key),
                        places.join(", ")
                    );
                }
            }
            if c.ctm == Some(true) {
                println!("maintenance: constant-time (Algorithm 5 applies)");
            } else {
                println!("maintenance: algebraic (Algorithm 2 applies; not ctm — split keys above)");
            }
        }
        None => {
            println!("rejected by Algorithm 6: not independence-reducible.");
            println!("(boundedness/maintainability are not established for this scheme)");
        }
    }
}

/// Parses `attrs` against the engine's universe.
fn parse_attrs(engine: &Engine, attrs: &[String]) -> Result<AttrSet, String> {
    let mut x = AttrSet::empty();
    for tok in attrs {
        match engine.scheme().universe().attr(tok) {
            Some(a) => {
                x.insert(a);
            }
            None => return Err(format!("unknown attribute {tok:?}")),
        }
    }
    Ok(x)
}

fn project(engine: &Engine, attrs: &[String], budget: Budget) -> ExitCode {
    let x = match parse_attrs(engine, attrs) {
        Ok(x) => x,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    if engine.ir().is_none() {
        return fail(
            EXIT_NOT_IR,
            "scheme is not independence-reducible; no bounded expression exists",
        );
    }
    let guard = Guard::new(budget);
    let u = engine.scheme().universe();
    match engine.total_projection_expr(x, &guard) {
        Ok(Some(expr)) => {
            println!("[{}] = {}", u.render(x), expr.render(engine.scheme()));
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!(
                "[{}] is empty on every consistent state (no lossless cover)",
                u.render(x)
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(exec_exit(&e), &format!("{e}")),
    }
}

/// `idr chase <scheme-file> <state-file>`: chases the state (per block,
/// in parallel unless `--serial`) and reports the consistency verdict.
fn chase_cmd(engine: &Engine, state_path: &str, budget: Budget) -> ExitCode {
    let mut symbols = SymbolTable::new();
    let state = match load_state(state_path, engine.scheme(), &mut symbols) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    let guard = Guard::new(budget);
    match engine.hub(&state, &guard) {
        Ok(hub) => {
            let stats = hub.chase_stats();
            if hub.is_consistent() {
                println!(
                    "consistent ({} tuples, {} chase passes, {} rule applications)",
                    state.total_tuples(),
                    stats.passes,
                    stats.rule_applications
                );
                ExitCode::SUCCESS
            } else {
                let blocks: Vec<String> = hub
                    .inconsistent_blocks()
                    .iter()
                    .map(|b| format!("T{}", b + 1))
                    .collect();
                println!("inconsistent (blocks: {})", blocks.join(", "));
                ExitCode::from(EXIT_INCONSISTENT)
            }
        }
        Err(e) => fail(exec_exit(&e), &format!("{e}")),
    }
}

/// `idr query <scheme-file> <state-file> <ATTR>...`: the X-total
/// projection of the state's representative instance — chase-free on
/// independence-reducible schemes.
fn query_cmd(engine: &Engine, state_path: &str, attrs: &[String], budget: Budget) -> ExitCode {
    let x = match parse_attrs(engine, attrs) {
        Ok(x) => x,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    let mut symbols = SymbolTable::new();
    let state = match load_state(state_path, engine.scheme(), &mut symbols) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    let guard = Guard::new(budget);
    let u = engine.scheme().universe();
    match engine.total_projection(&state, x, &guard) {
        Ok(Some(tuples)) => {
            println!("[{}]: {} tuple(s)", u.render(x), tuples.len());
            for t in &tuples {
                println!("  {}", t.render(u, &symbols));
            }
            ExitCode::SUCCESS
        }
        Ok(None) => fail(EXIT_INCONSISTENT, "state is inconsistent"),
        Err(e) => fail(exec_exit(&e), &format!("{e}")),
    }
}

/// Renders one fd-firing chain (oldest first); `given` when the cell was
/// born with its symbol.
fn render_chain(db: &DatabaseScheme, chain: &[FiringInfo]) -> String {
    if chain.is_empty() {
        return "given".to_string();
    }
    let u = db.universe();
    chain
        .iter()
        .map(|f| {
            format!(
                "{} equated {} of rows {} ({}) and {} ({})",
                f.fd.render(u),
                u.name(f.column),
                f.rows.0,
                tag_name(db, f.tags.0),
                f.rows.1,
                tag_name(db, f.tags.1),
            )
        })
        .collect::<Vec<_>>()
        .join("; then ")
}

/// The relation a tableau row came from, when tagged.
fn tag_name(db: &DatabaseScheme, tag: Option<usize>) -> String {
    match tag {
        Some(i) => db.scheme(i).name().to_string(),
        None => "untagged".to_string(),
    }
}

/// `idr maintain <scheme-file> <state-file> <TUPLE>...`: routes each
/// insertion through Algorithm 5 (on constant-time-maintainable schemes)
/// or Algorithm 2, reporting the verdict and the selection counts of the
/// paper's cost model.
fn maintain_cmd(
    engine: &Engine,
    state_path: &str,
    tuples: &[String],
    budget: Budget,
    retry: &RetryPolicy,
) -> ExitCode {
    let Some(ir) = engine.ir() else {
        return fail(
            EXIT_NOT_IR,
            "scheme is not independence-reducible; the maintenance algorithms do not apply",
        );
    };
    let db = engine.scheme();
    let u = db.universe();
    let mut symbols = SymbolTable::new();
    let state = match load_state(state_path, db, &mut symbols) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    let guard = Guard::new(budget);
    let tracer = engine.observability().tracer.clone();
    let ctm = engine.classification().ctm == Some(true);
    enum Maintainer {
        Ctm(CtmMaintainer),
        Ir(IrMaintainer),
    }
    let mut m = if ctm {
        match CtmMaintainer::new(db, ir, &state, &guard) {
            Ok(m) => Maintainer::Ctm(m.with_tracer(tracer)),
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        }
    } else {
        match IrMaintainer::new(db, ir, &state, &guard) {
            Ok(m) => Maintainer::Ir(m.with_tracer(tracer)),
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        }
    };
    println!(
        "maintenance: {}",
        if ctm {
            "Algorithm 5 (constant-time)"
        } else {
            "Algorithm 2 (algebraic)"
        }
    );
    let mut all_accepted = true;
    for spec in tuples {
        let (i, t) = match parse_tuple_line(spec, db, &mut symbols) {
            Ok(p) => p,
            Err(e) => return fail(EXIT_PARSE, &e),
        };
        let result = match &mut m {
            Maintainer::Ctm(m) => m.insert(i, t.clone(), &guard, retry),
            Maintainer::Ir(m) => m.insert(i, t.clone(), &guard, retry),
        };
        match result {
            Ok((outcome, stats)) => {
                let verdict = if outcome.is_consistent() {
                    "consistent"
                } else {
                    "inconsistent — rejected"
                };
                println!(
                    "  {} + {}: {verdict}  ({} selection(s), {} key(s))",
                    db.scheme(i).name(),
                    t.render(u, &symbols),
                    stats.lookups,
                    stats.keys_processed
                );
                all_accepted &= outcome.is_consistent();
            }
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        }
    }
    if all_accepted {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCONSISTENT)
    }
}

/// Prints the full provenance of a rejected insert: the violated key
/// dependency, the clash column, the witness rows, and the fd-firing
/// chains under which their left-hand sides came to agree (the Lemma 3.8
/// witness structure).
fn render_rejection(db: &DatabaseScheme, r: &RejectionExplanation) {
    let u = db.universe();
    println!("  violated key dependency: {}", r.fd.render(u));
    println!(
        "  clash column {}, witness rows {} (from {}) and {} (from {})",
        u.name(r.column),
        r.rows.0,
        tag_name(db, r.tags.0),
        r.rows.1,
        tag_name(db, r.tags.1)
    );
    for (a, left, right) in &r.lhs {
        println!("  agreement on {}:", u.name(*a));
        println!("    row {}: {}", r.rows.0, render_chain(db, left));
        println!("    row {}: {}", r.rows.1, render_chain(db, right));
    }
    println!("  clash on {}:", u.name(r.column));
    println!("    row {}: {}", r.rows.0, render_chain(db, &r.clash.0));
    println!("    row {}: {}", r.rows.1, render_chain(db, &r.clash.1));
}

/// `idr explain <scheme-file> <state-file> <ATTR>...` — chase provenance
/// for every tuple of the X-total projection — or
/// `idr explain <scheme-file> <state-file> --insert <TUPLE>` — why an
/// insert is rejected.
fn explain_cmd(
    engine: &Engine,
    state_path: &str,
    rest: &[String],
    budget: Budget,
) -> ExitCode {
    let db = engine.scheme();
    let u = db.universe();
    let mut symbols = SymbolTable::new();
    let state = match load_state(state_path, db, &mut symbols) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    let guard = Guard::new(budget);
    if rest[0] == "--insert" {
        if rest.len() != 2 {
            return usage("--insert takes exactly one quoted tuple");
        }
        let (i, t) = match parse_tuple_line(&rest[1], db, &mut symbols) {
            Ok(p) => p,
            Err(e) => return fail(EXIT_PARSE, &e),
        };
        let hub = match engine.hub(&state, &guard) {
            Ok(h) => h,
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        };
        if !hub.is_consistent() {
            return fail(EXIT_INCONSISTENT, "initial state is already inconsistent");
        }
        let writer = hub.write_handle();
        match writer.insert(i, t.clone(), &guard) {
            Ok(true) => {
                println!(
                    "insert accepted: {}: {} (state stays consistent — nothing to explain)",
                    db.scheme(i).name(),
                    t.render(u, &symbols)
                );
                ExitCode::SUCCESS
            }
            Ok(false) => {
                println!(
                    "insert rejected: {}: {}",
                    db.scheme(i).name(),
                    t.render(u, &symbols)
                );
                match writer.explain_rejection() {
                    Some(r) => render_rejection(db, &r),
                    None => println!("  (no rejection record)"),
                }
                ExitCode::from(EXIT_INCONSISTENT)
            }
            Err(e) => fail(exec_exit(&e), &format!("{e}")),
        }
    } else {
        let x = match parse_attrs(engine, rest) {
            Ok(x) => x,
            Err(e) => return fail(EXIT_PARSE, &e),
        };
        let hub = match engine.hub(&state, &guard) {
            Ok(h) => h,
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        };
        let tuples = match hub.read_view().total_projection(x, &guard) {
            Ok(Some(ts)) => ts,
            Ok(None) => return fail(EXIT_INCONSISTENT, "state is inconsistent"),
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        };
        println!("[{}]: {} tuple(s)", u.render(x), tuples.len());
        for t in &tuples {
            println!("  {}", t.render(u, &symbols));
            match hub.explain(x, t) {
                Some(exp) => {
                    println!(
                        "    witness: tableau row {} (from {})",
                        exp.row,
                        tag_name(db, exp.tag)
                    );
                    for cell in &exp.cells {
                        println!(
                            "      {}: {}",
                            u.name(cell.column),
                            render_chain(db, &cell.chain)
                        );
                    }
                }
                None => println!("    (no witness row found)"),
            }
        }
        ExitCode::SUCCESS
    }
}

/// The `idr fuzz` arm a command line selects.
#[derive(Debug, PartialEq)]
enum FuzzArm {
    /// The four-oracle lockstep run (the default); `--shrink` minimises
    /// failures before writing them out.
    Lockstep { shrink: bool },
    /// `--replay FILE`: re-runs one lockstep fixture.
    Replay(String),
    /// `--crash`.
    Crash,
    /// `--crash --concurrent`.
    ConcurrentCrash,
    /// `--sync [--wire]`.
    Sync(independence_reducible::sync::Transport),
    /// `--concurrent`.
    Concurrent,
    /// `--batch`.
    Batch,
}

impl FuzzArm {
    /// A failure repro's file-name prefix under `--out`, and what the
    /// report says replays it.
    fn repro(&self) -> (&'static str, &'static str) {
        match self {
            FuzzArm::Sync(_) => ("sync", " (replay with idr sync)"),
            FuzzArm::Concurrent => ("concurrent", ""),
            _ => ("case", ""),
        }
    }
}

/// Fuzz-specific options (after global flag stripping).
struct FuzzOpts {
    seed: u64,
    cases: usize,
    out: String,
    arm: FuzzArm,
}

fn parse_fuzz_flags(rest: &[String]) -> Result<FuzzOpts, String> {
    use independence_reducible::sync::Transport;
    let (mut seed, mut cases, mut out) = (42, 100, "target/fuzz-failures".to_string());
    let (mut shrink, mut replay, mut arm_flags) = (false, None, Vec::new());
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--cases" => {
                cases = value("--cases")?
                    .parse()
                    .map_err(|_| "--cases needs an unsigned integer".to_string())?;
            }
            "--shrink" => shrink = true,
            "--out" => out = value("--out")?,
            "--replay" => replay = Some(value("--replay")?),
            flag @ ("--crash" | "--sync" | "--wire" | "--concurrent" | "--batch") => {
                arm_flags.push(flag)
            }
            other => return Err(format!("unknown fuzz option {other:?}")),
        }
    }
    // The one combination check: the arm flags must name one arm, and
    // --replay and --shrink belong to the lockstep arm.
    let conflict = || {
        "conflicting fuzz flags: pick at most one of --crash [--concurrent], --sync [--wire], \
         --concurrent and --batch; --replay and --shrink go with none of them"
            .to_string()
    };
    arm_flags.sort_unstable();
    arm_flags.dedup();
    let arm = match arm_flags[..] {
        [] => match replay {
            Some(path) => FuzzArm::Replay(path),
            None => FuzzArm::Lockstep { shrink },
        },
        _ if shrink || replay.is_some() => return Err(conflict()),
        ["--crash"] => FuzzArm::Crash,
        ["--concurrent", "--crash"] => FuzzArm::ConcurrentCrash,
        ["--sync"] => FuzzArm::Sync(Transport::Sim),
        ["--sync", "--wire"] => FuzzArm::Sync(Transport::Wire),
        ["--concurrent"] => FuzzArm::Concurrent,
        ["--batch"] => FuzzArm::Batch,
        _ => return Err(conflict()),
    };
    Ok(FuzzOpts {
        seed,
        cases,
        out,
        arm,
    })
}

/// Failure lines a fuzz report prints at most; its summary line counts
/// every failure.
const MAX_FAILURE_LINES: usize = 10;

/// `idr fuzz`: differential fuzzing against the oracles of the
/// `idr-oracle` crate — the four-oracle lockstep run by default, the
/// crash-recovery arm with `--crash` (multi-writer group-commit cuts
/// with `--crash --concurrent`), the replication-convergence arm with
/// `--sync`, the serial==concurrent serving-layer arm with
/// `--concurrent`, and the batch==per-op pipeline arm with `--batch`.
/// Every arm's engines report into `--metrics`. Divergences become
/// replayable fixtures under `--out` and the run exits with
/// [`EXIT_DIVERGENCE`].
fn fuzz_cmd(rest: &[String], obs: &Observability) -> ExitCode {
    use independence_reducible::oracle::{self, Campaign};
    let opts = match parse_fuzz_flags(rest) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut progress = |label: &str, done: usize, failures: usize| {
        if done.is_multiple_of(50) {
            eprintln!("{label}: {done}/{} cases, {failures} failure(s)", opts.cases);
        }
    };
    let campaign = Campaign {
        seed: opts.seed,
        cases: opts.cases,
        metrics: obs.metrics.clone(),
        progress: Some(&mut progress),
    };
    match &opts.arm {
        FuzzArm::Replay(path) => replay_fixture(path),
        FuzzArm::Lockstep { shrink } => report_fuzz(&opts, oracle::fuzz(campaign, *shrink)),
        FuzzArm::Crash => report_fuzz(&opts, oracle::crash_fuzz(campaign)),
        FuzzArm::ConcurrentCrash => report_fuzz(&opts, oracle::concurrent_crash_fuzz(campaign)),
        FuzzArm::Sync(transport) => report_fuzz(&opts, oracle::sync_fuzz(campaign, *transport)),
        FuzzArm::Concurrent => report_fuzz(&opts, oracle::concurrent_fuzz(campaign)),
        FuzzArm::Batch => report_fuzz(&opts, oracle::batch_fuzz(campaign)),
    }
}

/// The one fuzz reporter: the summary line, then the first
/// [`MAX_FAILURE_LINES`] failures, each with its note and its repro
/// file under `--out`. Exits [`EXIT_DIVERGENCE`] on any failure.
fn report_fuzz<C: independence_reducible::oracle::Counters>(
    opts: &FuzzOpts,
    summary: independence_reducible::oracle::Summary<C>,
) -> ExitCode {
    println!("{summary}");
    if summary.is_clean() {
        return ExitCode::SUCCESS;
    }
    if summary.failures.iter().any(|f| f.repro.is_some()) {
        if let Err(e) = std::fs::create_dir_all(&opts.out) {
            return fail(EXIT_PARSE, &format!("cannot create {}: {e}", opts.out));
        }
    }
    let (prefix, replay_hint) = opts.arm.repro();
    for f in summary.failures.iter().take(MAX_FAILURE_LINES) {
        println!("  {f}");
        if let Some(note) = &f.note {
            println!("    {note}");
        }
        if let Some(text) = &f.repro {
            let path = format!("{}/{prefix}-{}.txt", opts.out, f.seed);
            match std::fs::write(&path, text) {
                Ok(()) => println!("    repro written to {path}{replay_hint}"),
                Err(e) => eprintln!("    cannot write {path}: {e}"),
            }
        }
    }
    ExitCode::from(EXIT_DIVERGENCE)
}

/// `idr fuzz --replay FILE`: re-runs one lockstep fixture.
fn replay_fixture(path: &str) -> ExitCode {
    use independence_reducible::oracle;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(EXIT_PARSE, &format!("cannot read {path}: {e}")),
    };
    let case = match oracle::Case::parse(&text) {
        Ok(c) => c,
        Err(e) => return fail(EXIT_PARSE, &format!("{path}: {e}")),
    };
    match oracle::run_case_guarded(&case, None) {
        Ok(report) => {
            println!(
                "replay ok: {} op(s), all oracles agree (final state {})",
                report.ops_run,
                if report.final_consistent {
                    "consistent"
                } else {
                    "inconsistent"
                }
            );
            ExitCode::SUCCESS
        }
        Err(d) => {
            println!("replay diverges: {d}");
            ExitCode::from(EXIT_DIVERGENCE)
        }
    }
}

/// `idr sync [--wire] <scenario-file>`: runs one scripted replication
/// scenario and prints the round-by-round digest trace. The scenario's
/// own `transport:` directive picks the deterministic in-process
/// simulator (the default) or loopback sockets; `--wire` forces the
/// sockets regardless. Exit 0 when the
/// replicas converge to a byte-identical state inside the round
/// budget, [`EXIT_DIVERGENCE`] otherwise, [`EXIT_PARSE`] on a
/// malformed scenario file.
fn sync_cmd(rest: &[String], obs: &Observability) -> ExitCode {
    use independence_reducible::sync;
    let mut path = None;
    let mut wire = false;
    for a in rest {
        match a.as_str() {
            "--wire" => wire = true,
            _ if path.is_none() => path = Some(a.as_str()),
            other => return usage(&format!("sync takes one scenario file, got extra {other:?}")),
        }
    }
    let Some(path) = path else {
        return usage("sync needs a scenario file");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(EXIT_PARSE, &format!("cannot read {path}: {e}")),
    };
    let mut scenario = match sync::parse_scenario(&text) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_PARSE, &format!("{path}: {e}")),
    };
    if wire {
        scenario.transport = sync::Transport::Wire;
    }
    let report = match scenario.run(obs.tracer.clone(), obs.metrics.clone()) {
        Ok((report, _)) => report,
        Err(e) => return fail(exec_exit(&e), &format!("{e}")),
    };
    for line in &report.trace {
        println!("{line}");
    }
    println!(
        "sync: {} replica(s), {} round(s), {} op(s) shipped, {} message(s) sent ({} dropped, {} duplicated, {} delayed), {} crash(es)",
        scenario.replicas,
        report.rounds,
        report.ops_shipped,
        report.messages_sent,
        report.dropped,
        report.duplicated,
        report.delayed,
        report.crashes
    );
    if let Some(d) = &report.diverged {
        return fail(EXIT_DIVERGENCE, &format!("replicas diverged: {d}"));
    }
    if !report.converged {
        return fail(
            EXIT_DIVERGENCE,
            &format!("replicas did not converge within {} round(s)", scenario.max_rounds),
        );
    }
    println!(
        "converged: {} tuple(s), {}",
        report.state_lines.len(),
        if report.consistent {
            "consistent"
        } else {
            "inconsistent"
        }
    );
    for l in &report.state_lines {
        println!("  {l}");
    }
    ExitCode::SUCCESS
}

/// `idr closure <UNIVERSE> <FDS> <X>`: parses the FD list with the typed
/// parser and prints the attribute closure `X⁺`.
fn closure(universe_chars: &str, fd_spec: &str, x_chars: &str) -> ExitCode {
    let universe = Universe::of_chars(universe_chars);
    let fds = match FdSet::try_parse(&universe, fd_spec) {
        Ok(f) => f,
        Err(e) => return fail(EXIT_PARSE, &format!("{e}")),
    };
    let x = match universe.try_set_of(x_chars) {
        Ok(x) => x,
        Err(c) => return fail(EXIT_PARSE, &format!("unknown attribute {c:?} in {x_chars:?}")),
    };
    println!(
        "{}+ = {}   (under {})",
        universe.render(x),
        universe.render(fds.closure(x)),
        fds.render(&universe)
    );
    ExitCode::SUCCESS
}

/// `idr init <data-dir> <scheme-file>`: creates a fresh durable data
/// directory — a copy of the scheme, an empty epoch-0 snapshot and an
/// empty write-ahead log.
fn init_cmd(dir: &str, scheme_path: &str) -> ExitCode {
    let db = match load(scheme_path) {
        Ok(db) => db,
        Err(e) => return fail(EXIT_PARSE, &e),
    };
    match Store::init(Path::new(dir), &db) {
        Ok(store) => {
            println!(
                "initialised {dir}: {} scheme(s), epoch {}",
                db.schemes().len(),
                store.epoch()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(store_exit(&e), &format!("{e}")),
    }
}

/// Durable-mode flags shared by `serve` and `recover`: `--data-dir DIR`
/// (required); `--snapshot-every N`, `--clients N` and
/// `--group-commit-window US` (serve only); plus whatever positional
/// arguments remain.
struct StoreOpts {
    dir: String,
    snapshot_every: Option<u64>,
    clients: Option<usize>,
    group_commit_window_us: Option<u64>,
    /// Print a one-line stats summary every N completed ops.
    stats_every: Option<u64>,
    /// Emit a structured slow-op record to stderr for ops at or above
    /// this many microseconds end to end.
    slow_op_us: Option<u64>,
    /// Networked replication (serve only): the address to accept
    /// anti-entropy exchanges on. Presence of `--listen` selects peer
    /// mode; port 0 binds an ephemeral port, written to
    /// `DIR/listen.addr` either way.
    listen: Option<String>,
    /// Peer addresses to initiate periodic exchanges with (repeatable).
    peers: Vec<String>,
    /// This node's origin id within the replica group.
    origin: Option<usize>,
    /// The replica-group size.
    origins: Option<usize>,
    /// Milliseconds between exchange rounds with each peer.
    sync_interval_ms: Option<u64>,
    rest: Vec<String>,
}

fn parse_store_flags(rest: &[String]) -> Result<StoreOpts, String> {
    let mut dir = None;
    let mut snapshot_every = None;
    let mut clients = None;
    let mut group_commit_window_us = None;
    let mut stats_every = None;
    let mut slow_op_us = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut origin = None;
    let mut origins = None;
    let mut sync_interval_ms = None;
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut numeric = |flag: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an unsigned integer"))
        };
        match a.as_str() {
            "--data-dir" => {
                dir = Some(
                    it.next()
                        .ok_or_else(|| "--data-dir needs a path".to_string())?
                        .clone(),
                );
            }
            "--snapshot-every" => snapshot_every = Some(numeric("--snapshot-every")?),
            "--clients" => {
                let n = numeric("--clients")?;
                if n == 0 {
                    return Err("--clients needs at least 1".to_string());
                }
                clients = Some(n as usize);
            }
            "--group-commit-window" => {
                group_commit_window_us = Some(numeric("--group-commit-window")?);
            }
            "--stats-every" => {
                let n = numeric("--stats-every")?;
                if n == 0 {
                    return Err("--stats-every needs at least 1".to_string());
                }
                stats_every = Some(n);
            }
            "--slow-op-us" => slow_op_us = Some(numeric("--slow-op-us")?),
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| "--listen needs an address".to_string())?
                        .clone(),
                );
            }
            "--peer" => {
                peers.push(
                    it.next()
                        .ok_or_else(|| "--peer needs an address".to_string())?
                        .clone(),
                );
            }
            "--origin" => origin = Some(numeric("--origin")? as usize),
            "--origins" => {
                let n = numeric("--origins")?;
                if n < 2 {
                    return Err("--origins needs a group of at least 2".to_string());
                }
                origins = Some(n as usize);
            }
            "--sync-interval-ms" => sync_interval_ms = Some(numeric("--sync-interval-ms")?),
            _ => out.push(a.clone()),
        }
    }
    let peer_mode = listen.is_some() || !peers.is_empty();
    if peer_mode && (origin.is_none() || origins.is_none()) {
        return Err("--listen/--peer need --origin N and --origins N".to_string());
    }
    if !peer_mode && (origin.is_some() || origins.is_some() || sync_interval_ms.is_some()) {
        return Err("--origin/--origins/--sync-interval-ms only apply with --listen/--peer".to_string());
    }
    if let (Some(o), Some(n)) = (origin, origins) {
        if o >= n {
            return Err(format!("--origin {o} is outside the group 0..{n}"));
        }
    }
    Ok(StoreOpts {
        dir: dir.ok_or_else(|| "--data-dir is required".to_string())?,
        snapshot_every,
        clients,
        group_commit_window_us,
        stats_every,
        slow_op_us,
        listen,
        peers,
        origin,
        origins,
        sync_interval_ms,
        rest: out,
    })
}

/// Renders the recovery stats line shared by `serve` and `recover`.
fn report_recovery(dir: &str, s: &store::RecoveryStats, tuples: usize, consistent: bool) {
    let torn = if s.torn_bytes > 0 {
        format!(", {} torn byte(s) truncated", s.torn_bytes)
    } else {
        String::new()
    };
    println!(
        "recovered {dir} at epoch {}: {} snapshot tuple(s) + {} WAL record(s) ({} replayed, {} re-rejected{torn})",
        s.epoch, s.snapshot_tuples, s.wal_records, s.replayed, s.rejected
    );
    println!(
        "state: {tuples} tuple(s), {}",
        if consistent {
            "consistent"
        } else {
            "inconsistent"
        }
    );
}

/// Opens the data dir `dir` for `serve` and `recover`, attaching the
/// command's tracer and metrics to the store. Prints the failure and
/// returns its exit code on error.
fn open_store(dir: &str, obs: &Observability) -> Result<store::Opened, ExitCode> {
    store::open(Path::new(dir), obs.tracer.clone(), obs.metrics.clone())
        .map_err(|e| fail(store_exit(&e), &format!("{e}")))
}

/// Start-up: builds the one hub `engine` serves over the opened
/// snapshot under `guard`, drops the snapshot, replays the WAL tail
/// into the hub (under an unlimited guard) and prints the recovery
/// banner with the verdict that hub earned. Returns the hub and the
/// store, which has no sink attached yet; on error, prints it and
/// returns its exit code.
fn recover_into(
    engine: &Engine,
    dir: &str,
    opened: store::Opened,
    guard: &Guard,
) -> Result<(Hub, Store), ExitCode> {
    let store::Opened {
        store,
        snapshot,
        records,
        mut stats,
    } = opened;
    let hub = engine
        .hub(&snapshot, guard)
        .map_err(|e| fail(exec_exit(&e), &format!("{e}")))?;
    // The hub holds its own copy: release the loaded one.
    drop(snapshot);
    {
        let symbols = store.symbols();
        let mut symbols = symbols.lock().unwrap_or_else(|p| p.into_inner());
        store::replay(&hub.write_handle(), &mut symbols, &records, &mut stats)
            .map_err(|e| fail(store_exit(&e), &format!("{e}")))?;
    }
    let view = hub.read_view();
    report_recovery(dir, &stats, view.state().total_tuples(), view.is_consistent());
    Ok((hub, store))
}

/// `idr recover --data-dir DIR [<ATTR>...]`: replays snapshot + WAL
/// through the guarded engine, reports what recovery found and the
/// re-earned consistency verdict; trailing attribute names run one
/// X-total projection against the recovered state.
fn recover_cmd(rest: &[String], budget: Budget, obs: &Observability, parallel: bool) -> ExitCode {
    let opts = match parse_store_flags(rest) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    if opts.snapshot_every.is_some()
        || opts.clients.is_some()
        || opts.group_commit_window_us.is_some()
        || opts.stats_every.is_some()
        || opts.slow_op_us.is_some()
        || opts.listen.is_some()
        || !opts.peers.is_empty()
    {
        return usage(
            "--snapshot-every/--clients/--group-commit-window/--stats-every/--slow-op-us/--listen/--peer only apply to idr serve",
        );
    }
    let opened = match open_store(&opts.dir, obs) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let engine = Engine::new(opened.store.scheme().clone())
        .with_parallel(parallel)
        .with_observability(obs.clone());
    let guard = Guard::new(budget);
    let (hub, store) = match recover_into(&engine, &opts.dir, opened, &guard) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let view = hub.read_view();
    if !opts.rest.is_empty() {
        let x = match parse_attrs(&engine, &opts.rest) {
            Ok(x) => x,
            Err(e) => return fail(EXIT_PARSE, &e),
        };
        let u = engine.scheme().universe();
        match view.total_projection(x, &guard) {
            Ok(Some(tuples)) => {
                let symbols = store.symbols();
                let sym = symbols.lock().unwrap_or_else(|p| p.into_inner());
                println!("[{}]: {} tuple(s)", u.render(x), tuples.len());
                for t in &tuples {
                    println!("  {}", t.render(u, &sym));
                }
            }
            Ok(None) => return fail(EXIT_INCONSISTENT, "state is inconsistent"),
            Err(e) => return fail(exec_exit(&e), &format!("{e}")),
        }
    }
    if view.is_consistent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCONSISTENT)
    }
}

/// A mutation dispatched to a serve worker lane.
enum ServeJob {
    /// One insert or delete: the op number, whether it is an insert, and
    /// the parsed target.
    One {
        op: usize,
        insert: bool,
        rel: usize,
        t: Tuple,
        /// The op's pipeline timeline; `enqueue` is stamped at dispatch.
        tl: Arc<obs::OpTimeline>,
    },
    /// A `begin`/`commit` framed op group, applied as one unit (one WAL
    /// batch, one fsync) under the `commit` line's op number.
    Batch {
        op: usize,
        ops: Vec<BatchOp>,
        tl: Arc<obs::OpTimeline>,
    },
}

/// One tagged response line bundle: the op number, the rendered body
/// (may be multi-line), and the exit code if the op failed fatally.
type ServeResponse = (usize, String, Option<u8>);

/// The live stats surface behind `.stats` and `--stats-every`: the
/// serve registry plus the windowed throughput rate. The printer thread
/// records completions; the dispatcher renders on demand. Reads go
/// through `MetricsRegistry::snapshot`, whose lock spans are bounded to
/// Arc clones — writer lanes only ever touch pre-resolved atomics.
struct ServeStats {
    registry: Arc<MetricsRegistry>,
    start: std::time::Instant,
    rate: std::sync::Mutex<obs::WindowedRate>,
    /// Ops dispatched to a lane but not yet completed.
    queue_depth: Arc<obs::Gauge>,
}

impl ServeStats {
    fn new(registry: Arc<MetricsRegistry>) -> ServeStats {
        ServeStats {
            queue_depth: registry.gauge("serve.queue_depth"),
            registry,
            start: std::time::Instant::now(),
            // Trailing 1s window in 100ms slots: responsive without
            // jitter from single slow batches.
            rate: std::sync::Mutex::new(obs::WindowedRate::new(1_000_000, 10)),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Called by the printer per completed response.
    fn note_done(&self) {
        let now = self.now_us();
        self.rate
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(now, 1);
    }

    fn rate_per_sec(&self) -> f64 {
        let now = self.now_us();
        self.rate
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .per_sec(now)
    }

    /// The periodic one-line summary (`--stats-every`).
    fn render_line(&self, done: u64) -> String {
        let snap = self.registry.snapshot();
        let gauge = |n: &str| lookup_gauge(&snap, n);
        format!(
            "[stats] ops={done} rate={:.1}/s queue={} epoch={} lag={} insert_us={} fsync_us={} batch_mean={:.1} lanes=[{}]",
            self.rate_per_sec(),
            gauge("serve.queue_depth"),
            gauge("hub.epoch"),
            gauge("hub.epoch_lag"),
            render_pctls(lookup_hist(&snap, "session.insert_us")),
            render_pctls(lookup_hist(&snap, "store.fsync_us")),
            lookup_hist(&snap, "store.batch_size").map_or(0.0, |h| h.mean()),
            lane_counts(&snap, "hub.lane_ops")
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// The full `.stats` breakdown (multi-line).
    fn render_full(&self, dispatched: usize, clients: usize) -> String {
        let snap = self.registry.snapshot();
        let gauge = |n: &str| lookup_gauge(&snap, n);
        let mut body = format!(
            "server stats: {dispatched} op(s) dispatched over {clients} client lane(s), {:.1} op/s (trailing 1s)\nqueue depth {}, read epoch {} (lag {} op(s) unpublished)",
            self.rate_per_sec(),
            gauge("serve.queue_depth"),
            gauge("hub.epoch"),
            gauge("hub.epoch_lag"),
        );
        body.push_str("\npipeline phase latencies (us):");
        for p in obs::Phase::ALL {
            let h = lookup_hist(&snap, &format!("pipeline.us{{phase={}}}", p.as_str()));
            if h.is_some_and(|h| h.count > 0) {
                body.push_str(&format!(
                    "\n  {:<12} {}",
                    p.as_str(),
                    render_pctls(h)
                ));
            }
        }
        let batches = lookup_hist(&snap, "store.batch_size");
        body.push_str(&format!(
            "\ngroup commit: {} batch(es), mean size {:.1}, batch {}, fsync_us {}",
            batches.map_or(0, |h| h.count),
            batches.map_or(0.0, |h| h.mean()),
            render_pctls(batches),
            render_pctls(lookup_hist(&snap, "store.fsync_us")),
        ));
        let ops = lane_counts(&snap, "hub.lane_ops");
        let busy = lane_counts(&snap, "hub.lane_busy_us");
        let elapsed = self.now_us().max(1);
        body.push_str("\nlanes:");
        for (b, n) in ops.iter().enumerate() {
            let pct = busy.get(b).map_or(0.0, |&u| u as f64 * 100.0 / elapsed as f64);
            body.push_str(&format!("\n  block {b}: {n} op(s), {pct:.1}% busy"));
        }
        body
    }
}

fn lookup_gauge(snap: &obs::MetricsSnapshot, name: &str) -> u64 {
    snap.gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn lookup_hist<'a>(
    snap: &'a obs::MetricsSnapshot,
    name: &str,
) -> Option<&'a obs::HistogramSnapshot> {
    snap.histograms.iter().find(|h| h.name == name)
}

/// Values of `prefix{block=0..}` counters in block order.
fn lane_counts(snap: &obs::MetricsSnapshot, prefix: &str) -> Vec<u64> {
    let mut out: Vec<(usize, u64)> = snap
        .counters
        .iter()
        .filter_map(|(n, v)| {
            let rest = n.strip_prefix(prefix)?.strip_prefix("{block=")?;
            rest.strip_suffix('}')?.parse().ok().map(|b: usize| (b, *v))
        })
        .collect();
    out.sort_unstable();
    out.into_iter().map(|(_, v)| v).collect()
}

/// `p50/p95/p99=a/b/c` from bucket-estimated percentiles; `-` when the
/// histogram is empty and `>10s` when a rank lands above the top bound.
fn render_pctls(h: Option<&obs::HistogramSnapshot>) -> String {
    let fmt = |v: Option<u64>| match v {
        None => "-".to_string(),
        Some(u64::MAX) => ">10s".to_string(),
        Some(v) => v.to_string(),
    };
    match h {
        Some(h) if h.count > 0 => format!(
            "p50/p95/p99={}/{}/{}",
            fmt(h.p50()),
            fmt(h.p95()),
            fmt(h.p99())
        ),
        _ => "p50/p95/p99=-".to_string(),
    }
}

/// The structured slow-op record (`--slow-op-us`): one JSON line on
/// stderr with the full per-phase breakdown, schema-checked by
/// `scripts/obs-schema.json` as the `slow_op` shape.
fn slow_op_json(verb: &str, op: usize, threshold_us: u64, tl: &obs::OpTimeline) -> String {
    use obs::Phase;
    let mut w = obs::json::JsonWriter::new();
    w.begin_object();
    w.key("type").string("slow_op");
    w.key("verb").string(verb);
    w.key("op").u64(op as u64);
    w.key("threshold_us").u64(threshold_us);
    w.key("total_us").u64(tl.total_us());
    for p in Phase::ALL {
        w.key(&format!("{}_us", p.as_str())).u64(tl.duration_of(p));
    }
    w.end_object();
    w.finish()
}

/// `idr serve --data-dir DIR --listen ADDR [--peer ADDR]... --origin K
/// --origins N`: the networked replication mode. The node is one
/// origin of an N-replica group; its per-origin journals live as
/// WAL-framed segments under `DIR/sync/` and survive restarts. A
/// listener thread answers anti-entropy exchanges from peers
/// (`respond_exchange`), and one thread per `--peer` address initiates
/// an exchange every `--sync-interval-ms` (default 200), reconnecting
/// under the global `--retries`/`--backoff-ms` policy. The wire
/// contract is specified in `docs/WIRE.md`.
///
/// Stdin drives the node: `insert R1: A=a B=b` / `delete …` journal a
/// client op at this origin (the verdict is provisional until the
/// group converges), `query A B` answers from the materialised state,
/// `.digest` prints the digest vector (byte-identical across
/// converged peers), `.state` prints the sorted state fixture lines,
/// `quit` or EOF shuts down. As in plain serve, unreadable stdin (say,
/// a non-UTF-8 line) prints an `error: stdin:` line, stops reading and
/// exits [`EXIT_FAULT`]. The bound listen address is written to
/// `DIR/listen.addr` so scripts can use `--listen 127.0.0.1:0`.
///
/// A handshake rejection from a peer — wrong protocol version, wrong
/// scheme digest, wrong group shape — is a configuration error, not a
/// transient fault: the process exits with [`EXIT_FAULT`].
fn peer_serve_cmd(
    opts: &StoreOpts,
    budget: Budget,
    obs: &Observability,
    retry: &RetryPolicy,
) -> ExitCode {
    use independence_reducible::sync::{
        connect_with_retry, initiate_exchange, respond_exchange, ExchangeFaults, Replica,
        WireError,
    };
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let origin = opts.origin.expect("peer mode validated --origin");
    let origins = opts.origins.expect("peer mode validated --origins");
    let scheme_path = Path::new(&opts.dir).join("scheme.idr");
    let text = match std::fs::read_to_string(&scheme_path) {
        Ok(t) => t,
        Err(e) => {
            return fail(
                EXIT_PARSE,
                &format!("cannot read {} (run idr init first): {e}", scheme_path.display()),
            )
        }
    };
    let db = match parse_scheme(&text) {
        Ok(db) => db,
        Err(e) => return fail(EXIT_PARSE, &format!("{}: {e}", scheme_path.display())),
    };
    let guard = Guard::new(budget);
    let sync_dir = Path::new(&opts.dir).join("sync");
    let replica = match Replica::open_durable(origin, origins, &db, &sync_dir, true, &guard) {
        Ok(r) => r,
        Err(e) => return fail(exec_exit(&e), &format!("{e}")),
    };
    println!(
        "origin {origin}/{origins} recovered from {}: {} op(s) held, digest {}",
        sync_dir.display(),
        replica.ops_held(),
        replica.digest().render()
    );
    let engine = Engine::new(db.clone()).with_observability(obs.clone());
    let hello = independence_reducible::sync::Hello::new(origin, origins, &db);
    let replica = Mutex::new(replica);
    let timeout = Duration::from_secs(5);
    let interval = Duration::from_millis(opts.sync_interval_ms.unwrap_or(200));
    let shutdown = AtomicBool::new(false);
    // A fatal condition observed by a background thread: the worst exit
    // code plus its message, reported once the node drains.
    let fatal: Mutex<Option<(u8, String)>> = Mutex::new(None);
    let listener = match opts.listen.as_deref() {
        None => None,
        Some(addr) => match TcpListener::bind(addr) {
            Ok(l) => Some(l),
            Err(e) => return fail(EXIT_FAULT, &format!("cannot listen on {addr}: {e}")),
        },
    };
    if let Some(l) = &listener {
        let bound = match l.local_addr() {
            Ok(a) => a,
            Err(e) => return fail(EXIT_FAULT, &format!("listener has no local address: {e}")),
        };
        // The actual bound address (resolves `--listen 127.0.0.1:0`),
        // published for scripts that wire processes together.
        let addr_file = Path::new(&opts.dir).join("listen.addr");
        if let Err(e) = std::fs::write(&addr_file, format!("{bound}\n")) {
            return fail(EXIT_FAULT, &format!("cannot write {}: {e}", addr_file.display()));
        }
        println!("listening on {bound}");
        if let Err(e) = l.set_nonblocking(true) {
            return fail(EXIT_FAULT, &format!("listener set_nonblocking: {e}"));
        }
    }
    let _ = std::io::stdout().flush();
    // One bootstrap exchange per peer on the main thread: a handshake
    // rejection here (or later, in the periodic threads) is a
    // misconfigured group and must fail loudly, not spin.
    for addr in &opts.peers {
        let res = connect_with_retry(addr, timeout, retry.max_retries, retry.base_backoff)
            .and_then(|stream| {
                initiate_exchange(
                    stream,
                    &hello,
                    &replica,
                    &ExchangeFaults::none(),
                    timeout,
                    &guard,
                    &obs.tracer,
                )
            });
        match res {
            Ok(out) => {
                let r = replica.lock().unwrap_or_else(|p| p.into_inner());
                println!(
                    "peer {addr}: shipped {}, appended {}, digest {}",
                    out.shipped,
                    out.appended,
                    r.digest().render()
                );
            }
            Err(WireError::Handshake { detail }) => {
                return fail(EXIT_FAULT, &format!("peer {addr} rejected us: {detail}"));
            }
            Err(e) => eprintln!("peer {addr} unreachable, will keep trying: {e}"),
        }
    }
    let _ = std::io::stdout().flush();
    let sleep_watching = |total: Duration| {
        let mut left = total;
        while !shutdown.load(Ordering::Relaxed) && !left.is_zero() {
            let step = left.min(Duration::from_millis(25));
            std::thread::sleep(step);
            left -= step;
        }
    };
    let stdin_faulted = std::thread::scope(|s| {
        if let Some(l) = &listener {
            let replica = &replica;
            let guard = &guard;
            let shutdown = &shutdown;
            let hello = &hello;
            let tracer = &obs.tracer;
            s.spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match l.accept() {
                        Ok((stream, from)) => {
                            // The listener polls, but each accepted
                            // exchange blocks with a read deadline.
                            let _ = stream.set_nonblocking(false);
                            match respond_exchange(
                                stream,
                                hello,
                                replica,
                                &ExchangeFaults::none(),
                                timeout,
                                guard,
                                tracer,
                            ) {
                                Ok(_) => {}
                                Err(e) => eprintln!("exchange from {from}: {e}"),
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(e) => {
                            eprintln!("accept: {e}");
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                }
            });
        }
        for addr in &opts.peers {
            let replica = &replica;
            let guard = &guard;
            let shutdown = &shutdown;
            let fatal = &fatal;
            let hello = &hello;
            let tracer = &obs.tracer;
            let sleep_watching = &sleep_watching;
            let metrics = obs.metrics.clone();
            // Ahead-of-peer op count, updated after every exchange from
            // the two digest vectors: how much this peer still lags us.
            let lag = metrics.as_ref().map(|m| {
                m.gauge(&format!(
                    "sync.peer_lag.{}",
                    addr.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
                ))
            });
            s.spawn(move || loop {
                sleep_watching(interval);
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let res =
                    connect_with_retry(addr, timeout, retry.max_retries, retry.base_backoff)
                        .and_then(|stream| {
                            initiate_exchange(
                                stream,
                                hello,
                                replica,
                                &ExchangeFaults::none(),
                                timeout,
                                guard,
                                tracer,
                            )
                        });
                match res {
                    Ok(out) => {
                        if let (Some(lag), Some(theirs)) = (&lag, &out.peer_digest) {
                            let ours = {
                                let r = replica.lock().unwrap_or_else(|p| p.into_inner());
                                r.digest()
                            };
                            let behind: u64 = ours
                                .origins
                                .iter()
                                .zip(&theirs.origins)
                                .map(|(a, b)| a.len.saturating_sub(b.len))
                                .sum();
                            lag.set(behind);
                        }
                    }
                    Err(WireError::Handshake { detail }) => {
                        let mut f = fatal.lock().unwrap_or_else(|p| p.into_inner());
                        if f.is_none() {
                            *f = Some((
                                EXIT_FAULT,
                                format!("peer {addr} rejected us: {detail}"),
                            ));
                        }
                        shutdown.store(true, Ordering::Relaxed);
                        break;
                    }
                    Err(WireError::Exec(e)) => {
                        let mut f = fatal.lock().unwrap_or_else(|p| p.into_inner());
                        if f.is_none() {
                            *f = Some((exec_exit(&e), format!("exchange with {addr}: {e}")));
                        }
                        shutdown.store(true, Ordering::Relaxed);
                        break;
                    }
                    // Connection-level trouble is the network's
                    // business: anti-entropy retries forever.
                    Err(_) => {}
                }
            });
        }
        // Stdin drives the node from the main thread.
        let stdin = std::io::stdin();
        let mut stdin_faulted = false;
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    println!("{}", stdin_error(&e));
                    stdin_faulted = true;
                    break;
                }
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            let (verb, tail) = match line.split_once(char::is_whitespace) {
                Some((v, t)) => (v, t.trim()),
                None => (line, ""),
            };
            match verb {
                "quit" | "exit" => break,
                "insert" | "delete" => {
                    // Validate before journalling: a malformed line in a
                    // journal would replicate as divergence, not error.
                    let parsed = {
                        let mut scratch = SymbolTable::new();
                        parse_tuple_line(tail, &db, &mut scratch).map(|_| ())
                    };
                    match parsed {
                        Err(e) => println!("error: {e}"),
                        Ok(()) => {
                            let mut r = replica.lock().unwrap_or_else(|p| p.into_inner());
                            match r.client_op(line, &guard) {
                                Ok(()) => println!(
                                    "journalled at origin {origin}: {} op(s) held, digest {}",
                                    r.ops_held(),
                                    r.digest().render()
                                ),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                    }
                }
                "query" => {
                    match query_attrs(&engine, tail) {
                        Err(e) => println!("{e}"),
                        Ok(x) => {
                            let r = replica.lock().unwrap_or_else(|p| p.into_inner());
                            match r.answer(x, &guard) {
                                Ok(Some(lines)) => {
                                    let mut body = format!(
                                        "[{}]: {} tuple(s)",
                                        db.universe().render(x),
                                        lines.len()
                                    );
                                    for l in &lines {
                                        body.push_str("\n  ");
                                        body.push_str(l);
                                    }
                                    print_lines("", &body);
                                }
                                Ok(None) => println!("state is inconsistent"),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                    }
                }
                ".digest" => {
                    let r = replica.lock().unwrap_or_else(|p| p.into_inner());
                    println!("digest {}", r.digest().render());
                }
                ".state" => {
                    let r = replica.lock().unwrap_or_else(|p| p.into_inner());
                    let lines = r.state_lines();
                    let mut body = format!(
                        "state: {} tuple(s), {}",
                        lines.len(),
                        if r.is_consistent() { "consistent" } else { "inconsistent" }
                    );
                    for l in &lines {
                        body.push_str("\n  ");
                        body.push_str(l);
                    }
                    print_lines("", &body);
                }
                other => println!(
                    "error: unknown op {other:?} (insert/delete/query/.digest/.state/quit)"
                ),
            }
            let _ = std::io::stdout().flush();
        }
        shutdown.store(true, Ordering::Relaxed);
        stdin_faulted
    });
    if let Some((code, msg)) = fatal.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return fail(code, &msg);
    }
    let r = replica.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(d) = r.diverged() {
        return fail(EXIT_DIVERGENCE, &format!("replica diverged: {d}"));
    }
    let consistent = r.is_consistent();
    println!(
        "served {} as origin {origin}/{origins}: {} op(s) held, digest {}, {}",
        opts.dir,
        r.ops_held(),
        r.digest().render(),
        if consistent { "consistent" } else { "inconsistent" }
    );
    if stdin_faulted {
        ExitCode::from(EXIT_FAULT)
    } else if consistent {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCONSISTENT)
    }
}

/// `idr serve --data-dir DIR [--snapshot-every N] [--clients N]
/// [--group-commit-window US]`: recovers the data dir and serves ops
/// from stdin through `--clients` concurrent writer lanes over one
/// shared hub — every mutation is committed to the group-commit WAL
/// before it touches memory, so killing the process at any point loses
/// nothing acknowledged.
///
/// Ops: `insert R1: A=a B=b`, `delete R1: A=a B=b`, `query A B`,
/// `quit`. Blank lines and `#` comments are ignored; malformed lines
/// get a tagged `error:` response and the loop continues. Every
/// response line is prefixed `[op K]` with K the op's 1-based position
/// in the input, so interleaved lane output stays attributable.
/// Mutations round-robin across the lanes and may complete out of
/// order; queries run against an epoch-stamped [`ReadView`] snapshot
/// (they never block writers and report the epoch they read). `quit`
/// or EOF drains: queued mutations finish, a session that logged writes
/// checkpoints (cuts a snapshot and rotates the WAL away), then the
/// summary prints.
fn serve_cmd(
    rest: &[String],
    budget: Budget,
    obs: &Observability,
    parallel: bool,
    retry: &RetryPolicy,
) -> ExitCode {
    use std::sync::mpsc;
    let opts = match parse_store_flags(rest) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    if let Some(extra) = opts.rest.first() {
        return usage(&format!("serve takes no positional argument {extra:?}"));
    }
    if opts.listen.is_some() || !opts.peers.is_empty() {
        if opts.snapshot_every.is_some()
            || opts.clients.is_some()
            || opts.group_commit_window_us.is_some()
            || opts.stats_every.is_some()
            || opts.slow_op_us.is_some()
        {
            return usage(
                "peer mode (--listen/--peer) replicates journals, not client lanes: --snapshot-every/--clients/--group-commit-window/--stats-every/--slow-op-us do not apply",
            );
        }
        return peer_serve_cmd(&opts, budget, obs, retry);
    }
    // Serve mode always runs with a registry: `.stats`, `--stats-every`
    // and `--slow-op-us` all read from it, and pre-resolved handles make
    // its hot-path cost a handful of relaxed atomics either way.
    let registry = obs
        .metrics
        .clone()
        .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
    let obs = {
        let mut o = obs.clone();
        o.metrics = Some(registry.clone());
        o
    };
    let obs = &obs;
    let opened = match open_store(&opts.dir, obs) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let db = opened.store.scheme().clone();
    let engine = Engine::new(db.clone())
        .with_parallel(parallel)
        .with_observability(obs.clone());
    let guard = Guard::new(budget);
    let (hub, store) = match recover_into(&engine, &opts.dir, opened, &guard) {
        Ok(r) => r,
        Err(code) => return code,
    };
    // The sink attaches after replay: replayed records are not logged
    // again and do not count toward `--snapshot-every` twice.
    let window = std::time::Duration::from_micros(opts.group_commit_window_us.unwrap_or(0));
    let shared = Arc::new(
        store::SharedStore::new(store.with_snapshot_every(opts.snapshot_every))
            .with_group_window(window),
    );
    hub.attach_sink(shared.clone())
        .expect("a freshly built hub has no sink");
    let symbols = shared.symbols();
    let clients = opts.clients.unwrap_or(1);
    let stats = Arc::new(ServeStats::new(registry.clone()));
    let stats_every = opts.stats_every;
    let slow_op_us = opts.slow_op_us;
    let mut ops = 0usize;
    let worst = std::thread::scope(|s| {
        let (res_tx, res_rx) = mpsc::channel::<ServeResponse>();
        // The printer serializes all lane output; it owns the worst
        // fatal exit code seen, the completion count, and (because it
        // already holds the output stream) the `--stats-every` cadence.
        let printer = {
            let stats = stats.clone();
            s.spawn(move || {
                let mut worst = 0u8;
                let mut done = 0u64;
                for (op, body, code) in res_rx {
                    print_lines(&format!("[op {op}] "), &body);
                    done += 1;
                    stats.note_done();
                    if stats_every.is_some_and(|n| done.is_multiple_of(n)) {
                        println!("{}", stats.render_line(done));
                    }
                    let _ = std::io::stdout().flush();
                    worst = worst.max(code.unwrap_or(0));
                }
                worst
            })
        };
        let lanes: Vec<mpsc::Sender<ServeJob>> = (0..clients)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<ServeJob>();
                let writer = hub.write_handle();
                let res = res_tx.clone();
                let guard = &guard;
                let stats = stats.clone();
                let tracer = obs.tracer.clone();
                s.spawn(move || {
                    for job in rx {
                        let (op, verb, tl, body, code) = match job {
                            ServeJob::One { op, insert, rel, t, tl } => {
                                let verb = if insert { "insert" } else { "delete" };
                                let (body, code) = if insert {
                                    match writer.insert_timed(rel, t, guard, &tl) {
                                        Ok(true) => ("accepted".to_string(), None),
                                        Ok(false) => {
                                            ("rejected (state unchanged)".to_string(), None)
                                        }
                                        Err(e) => (format!("error: {e}"), Some(exec_exit(&e))),
                                    }
                                } else {
                                    match writer.delete_timed(rel, &t, guard, &tl) {
                                        Ok(true) => ("removed".to_string(), None),
                                        Ok(false) => ("absent (state unchanged)".to_string(), None),
                                        Err(e) => (format!("error: {e}"), Some(exec_exit(&e))),
                                    }
                                };
                                (op, verb, tl, body, code)
                            }
                            ServeJob::Batch { op, ops: group, tl } => {
                                let (body, code) =
                                    match writer.apply_batch_timed(&group, guard, &tl) {
                                        Ok(verdicts) => {
                                            let applied =
                                                verdicts.iter().filter(|&&v| v).count();
                                            let mut body = format!(
                                                "committed {} op(s), {} applied",
                                                group.len(),
                                                applied
                                            );
                                            for (j, (o, v)) in
                                                group.iter().zip(&verdicts).enumerate()
                                            {
                                                let verdict = match (o, v) {
                                                    (BatchOp::Insert { .. }, true) => "accepted",
                                                    (BatchOp::Insert { .. }, false) => "rejected",
                                                    (BatchOp::Delete { .. }, true) => "removed",
                                                    (BatchOp::Delete { .. }, false) => "absent",
                                                };
                                                body.push_str(&format!("\n  [{j}] {verdict}"));
                                            }
                                            (body, None)
                                        }
                                        Err(e) => (
                                            format!(
                                                "error: batch rolled back, nothing applied: {e}"
                                            ),
                                            Some(exec_exit(&e)),
                                        ),
                                    };
                                (op, "batch", tl, body, code)
                            }
                        };
                        stats.queue_depth.sub(1);
                        tracer.emit_with(|| tl.to_event(Arc::from(verb), op as u64));
                        if let Some(th) = slow_op_us {
                            if tl.total_us() >= th {
                                eprintln!("{}", slow_op_json(verb, op, th, &tl));
                            }
                        }
                        if res.send((op, body, code)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        let stdin = std::io::stdin();
        // `begin` opens a framed op group: mutations buffer here until
        // `commit` dispatches them as one batch job (reads run
        // immediately — they never join a group).
        let mut pending_batch: Option<Vec<BatchOp>> = None;
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    let _ = res_tx.send((ops, stdin_error(&e), Some(EXIT_FAULT)));
                    break;
                }
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (verb, tail) = match line.split_once(char::is_whitespace) {
                Some((v, t)) => (v, t.trim()),
                None => (line, ""),
            };
            if matches!(verb, "quit" | "exit") {
                if pending_batch.take().is_some() {
                    let _ = res_tx.send((
                        ops,
                        "error: open batch discarded (quit before commit)".to_string(),
                        None,
                    ));
                }
                break;
            }
            ops += 1;
            let op = ops;
            match verb {
                "insert" | "delete" => {
                    // Intern under the store's canonical symbol table —
                    // and release the lock before dispatch, because
                    // logging the op re-locks it to render the WAL
                    // payload.
                    let parsed = {
                        let mut sym = symbols.lock().unwrap_or_else(|p| p.into_inner());
                        parse_tuple_line(tail, &db, &mut sym)
                    };
                    match parsed {
                        Ok((rel, t)) => {
                            if let Some(batch) = &mut pending_batch {
                                batch.push(if verb == "insert" {
                                    BatchOp::Insert { rel, t }
                                } else {
                                    BatchOp::Delete { rel, t }
                                });
                                continue;
                            }
                            let tl = Arc::new(obs::OpTimeline::new());
                            tl.stamp(obs::Phase::Enqueue);
                            stats.queue_depth.add(1);
                            let job = ServeJob::One {
                                op,
                                insert: verb == "insert",
                                rel,
                                t,
                                tl,
                            };
                            let _ = lanes[(op - 1) % clients].send(job);
                        }
                        Err(e) => {
                            let _ = res_tx.send((op, format!("error: {e}"), None));
                        }
                    }
                }
                "begin" => {
                    let body = if pending_batch.is_some() {
                        "error: batch already begun (commit it first)"
                    } else {
                        pending_batch = Some(Vec::new());
                        "batch begun"
                    };
                    let _ = res_tx.send((op, body.to_string(), None));
                }
                "commit" => match pending_batch.take() {
                    None => {
                        let _ = res_tx.send((op, "error: no batch begun".to_string(), None));
                    }
                    Some(group) => {
                        let tl = Arc::new(obs::OpTimeline::new());
                        tl.stamp(obs::Phase::Enqueue);
                        stats.queue_depth.add(1);
                        let job = ServeJob::Batch { op, ops: group, tl };
                        let _ = lanes[(op - 1) % clients].send(job);
                    }
                },
                "query" => {
                    let body = serve_query(&hub, &engine, tail, &symbols, &guard);
                    let _ = res_tx.send((op, body.0, body.1));
                }
                ".stats" => {
                    let _ = res_tx.send((op, stats.render_full(ops, clients), None));
                }
                other => {
                    let _ = res_tx.send((
                        op,
                        format!(
                            "error: unknown op {other:?} (insert/delete/begin/commit/query/.stats/quit)"
                        ),
                        None,
                    ));
                }
            }
        }
        // Graceful drain: close the lanes so queued mutations finish,
        // then close the response channel so the printer flushes.
        drop(lanes);
        drop(res_tx);
        printer.join().unwrap_or(EXIT_FAULT)
    });
    let consistent = hub.is_consistent();
    let view = hub.read_view();
    let gw = shared.group_wal();
    // Checkpoint: a session that logged writes folds its WAL into a fresh
    // snapshot on the way out, so the data dir holds each live tuple once
    // and the next start replays no log. A session that logged nothing
    // leaves the data dir as it found it; an inconsistent state keeps its
    // log for `idr recover` to re-earn the verdict from.
    if worst == 0 && consistent && gw.batches() > 0 && shared.lock().wal_records() > 0 {
        if let Err(e) = shared.lock().snapshot(view.state()) {
            return fail(store_exit(&e), &format!("checkpoint: {e}"));
        }
    }
    let epoch_now = view.epoch();
    let (epoch, records) = {
        let st = shared.lock();
        (st.epoch(), st.wal_records())
    };
    println!(
        "served {}: {} op(s) over {} client lane(s), final state {} at read epoch {}, store epoch {}, {} WAL record(s), {} group batch(es), {} fsync(s)",
        opts.dir,
        ops,
        clients,
        if consistent { "consistent" } else { "inconsistent" },
        epoch_now,
        epoch,
        records,
        gw.batches(),
        gw.fsyncs()
    );
    if worst != 0 {
        ExitCode::from(worst)
    } else if consistent {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCONSISTENT)
    }
}

/// The response both serve loops give a stdin read error (non-UTF-8
/// input, say). Reading stops there and the process exits
/// [`EXIT_FAULT`].
fn stdin_error(e: &std::io::Error) -> String {
    format!("error: stdin: {e}")
}

/// Writes every line of `body` to stdout, each prefixed by `prefix`, in
/// one write: stdout is line-buffered, so printing a query answer line
/// by line would cost one `write(2)` per tuple.
fn print_lines(prefix: &str, body: &str) {
    let mut buf = String::with_capacity(body.len() + 64);
    for line in body.lines() {
        buf.push_str(prefix);
        buf.push_str(line);
        buf.push('\n');
    }
    // A failed write panics, as the `println!` this replaces did.
    if let Err(e) = std::io::stdout().lock().write_all(buf.as_bytes()) {
        panic!("failed printing to stdout: {e}");
    }
}

/// Parses the tail of a `query A B` op. Both serve loops answer an empty
/// or unknown attribute list with the `error:` line returned here.
fn query_attrs(engine: &Engine, tail: &str) -> Result<AttrSet, String> {
    let attrs: Vec<String> = tail.split_whitespace().map(str::to_string).collect();
    if attrs.is_empty() {
        return Err("error: query needs at least one attribute".to_string());
    }
    parse_attrs(engine, &attrs).map_err(|e| format!("error: {e}"))
}

/// Runs one `query A B` op against a fresh epoch-stamped snapshot and
/// renders the tagged response body (never blocks the writer lanes).
fn serve_query(
    hub: &Hub,
    engine: &Engine,
    tail: &str,
    symbols: &Arc<std::sync::Mutex<SymbolTable>>,
    guard: &Guard,
) -> (String, Option<u8>) {
    let x = match query_attrs(engine, tail) {
        Ok(x) => x,
        Err(e) => return (e, None),
    };
    let view = hub.read_view();
    let u = engine.scheme().universe();
    match view.total_projection(x, guard) {
        Ok(Some(tuples)) => {
            let sym = symbols.lock().unwrap_or_else(|p| p.into_inner());
            let mut body = format!(
                "[{}]: {} tuple(s) @epoch {}",
                u.render(x),
                tuples.len(),
                view.epoch()
            );
            for t in &tuples {
                body.push_str("\n  ");
                t.render_into(&mut body, u, &sym);
            }
            (body, None)
        }
        Ok(None) => (
            format!("state is inconsistent @epoch {}", view.epoch()),
            None,
        ),
        Err(e) => (format!("error: {e}"), Some(exec_exit(&e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = "
# Example 1 of the paper
universe: C T H R S G
scheme R1: H R C  keys H R
scheme R2: H T R  keys H T | H R
scheme R3: H T C  keys H T
scheme R4: C S G  keys C S
scheme R5: H S R  keys H S
";

    #[test]
    fn parsed_example1_is_independence_reducible() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let engine = Engine::new(db);
        assert!(engine.is_independence_reducible());
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn budget_flags_are_stripped_anywhere() {
        let opts =
            parse_flags(&strs(&["project", "--max-steps", "7", "f", "A", "--timeout-ms", "50"]))
                .unwrap();
        assert_eq!(opts.args, strs(&["project", "f", "A"]));
        assert!(opts.parallel);
        assert_eq!(opts.budget.max_chase_steps, Some(7));
        assert_eq!(opts.budget.max_lookups, Some(7));
        assert_eq!(opts.budget.max_enumeration, Some(7));
        assert_eq!(opts.budget.timeout, Some(std::time::Duration::from_millis(50)));
        assert_eq!(opts.trace, None);
        assert_eq!(opts.metrics, None);
    }

    #[test]
    fn serial_flag_disables_parallelism() {
        let opts = parse_flags(&strs(&["chase", "f", "s", "--serial"])).unwrap();
        assert_eq!(opts.args, strs(&["chase", "f", "s"]));
        assert!(!opts.parallel);
    }

    #[test]
    fn budget_flags_reject_garbage() {
        assert!(parse_flags(&strs(&["--max-steps"])).is_err());
        assert!(parse_flags(&strs(&["--timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let opts =
            parse_flags(&strs(&["chase", "--trace", "f", "s", "--metrics", "m.json"])).unwrap();
        assert_eq!(opts.args, strs(&["chase", "f", "s"]));
        assert_eq!(opts.trace, Some(TraceFormat::Text));
        assert_eq!(opts.metrics.as_deref(), Some("m.json"));
        let opts = parse_flags(&strs(&["query", "--trace=json", "f", "s", "A"])).unwrap();
        assert_eq!(opts.trace, Some(TraceFormat::Json));
        assert_eq!(
            parse_flags(&strs(&["--trace=text", "x"])).unwrap().trace,
            Some(TraceFormat::Text)
        );
        assert!(parse_flags(&strs(&["--trace=xml"])).is_err());
        assert!(parse_flags(&strs(&["--metrics"])).is_err());
    }

    #[test]
    fn tuple_lines_parse_standalone() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let mut sym = SymbolTable::new();
        let (i, t) = parse_tuple_line("R4: C=c1 S=s1 G=g1", &db, &mut sym).unwrap();
        assert_eq!(i, 3);
        assert_eq!(t.attrs(), db.scheme(3).attrs());
        assert!(parse_tuple_line("R4: C=c1", &db, &mut sym).is_err());
    }

    #[test]
    fn fuzz_flags_parse() {
        use independence_reducible::sync::Transport;
        let opts = parse_fuzz_flags(&strs(&["--seed", "7", "--cases", "250", "--shrink"])).unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.cases, 250);
        assert_eq!(opts.arm, FuzzArm::Lockstep { shrink: true });
        assert_eq!(opts.out, "target/fuzz-failures");
        let opts = parse_fuzz_flags(&strs(&["--replay", "case.txt", "--out", "d"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::Replay("case.txt".to_string()));
        assert_eq!(opts.out, "d");
        let opts = parse_fuzz_flags(&strs(&["--concurrent", "--cases", "8"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::Concurrent);
        assert_eq!(opts.cases, 8);

        let opts = parse_fuzz_flags(&strs(&["--crash", "--concurrent"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::ConcurrentCrash);

        let opts = parse_fuzz_flags(&strs(&["--sync", "--seed", "9"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::Sync(Transport::Sim));
        assert_eq!(opts.seed, 9);
        let opts = parse_fuzz_flags(&strs(&["--sync", "--wire", "--cases", "50"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::Sync(Transport::Wire));
        assert_eq!(opts.cases, 50);
        let opts = parse_fuzz_flags(&strs(&["--batch"])).unwrap();
        assert_eq!(opts.arm, FuzzArm::Batch);
        for conflict in [
            &["--wire"][..],
            &["--batch", "--crash"],
            &["--sync", "--concurrent"],
            &["--crash", "--shrink"],
            &["--concurrent", "--replay", "f"],
        ] {
            assert!(parse_fuzz_flags(&strs(conflict)).is_err(), "{conflict:?}");
        }
        assert!(parse_fuzz_flags(&strs(&["--seed"])).is_err());
        assert!(parse_fuzz_flags(&strs(&["--cases", "many"])).is_err());
        assert!(parse_fuzz_flags(&strs(&["--frobnicate"])).is_err());
    }

    /// A case that panics, in any arm, is a failure the reporter turns
    /// into exit 8 — not a process abort.
    #[test]
    fn a_panicking_fuzz_case_exits_with_divergence() {
        use independence_reducible::oracle::{Campaign, Failure, LockstepCounters};
        let summary = Campaign::new(1, 2).run(
            "fuzz",
            LockstepCounters::default(),
            |_, _, _| -> Option<Failure> { std::panic::resume_unwind(Box::new("injected case panic")) },
        );
        assert_eq!(summary.failures.len(), 2, "the loop goes on past a panic");
        for f in &summary.failures {
            assert_eq!(f.to_string(), format!("seed {} [panic]: case panicked: injected case panic", f.seed));
        }
        let opts = parse_fuzz_flags(&[]).unwrap();
        assert_eq!(report_fuzz(&opts, summary), ExitCode::from(EXIT_DIVERGENCE));
    }

    #[test]
    fn peer_serve_flags_parse() {
        let opts = parse_store_flags(&strs(&[
            "--data-dir",
            "d",
            "--listen",
            "127.0.0.1:0",
            "--peer",
            "127.0.0.1:4001",
            "--peer",
            "127.0.0.1:4002",
            "--origin",
            "0",
            "--origins",
            "3",
            "--sync-interval-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.peers, strs(&["127.0.0.1:4001", "127.0.0.1:4002"]));
        assert_eq!(opts.origin, Some(0));
        assert_eq!(opts.origins, Some(3));
        assert_eq!(opts.sync_interval_ms, Some(50));
        // Peer mode needs the group shape...
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--listen", ":0"])).is_err());
        // ...the origin must be inside it...
        assert!(parse_store_flags(&strs(&[
            "--data-dir", "d", "--listen", ":0", "--origin", "2", "--origins", "2",
        ]))
        .is_err());
        // ...a group of one replicates nothing...
        assert!(parse_store_flags(&strs(&[
            "--data-dir", "d", "--listen", ":0", "--origin", "0", "--origins", "1",
        ]))
        .is_err());
        // ...and the group flags are meaningless outside peer mode.
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--origin", "0"])).is_err());
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--sync-interval-ms", "50"])).is_err());
    }

    #[test]
    fn retry_flags_build_the_maintenance_policy() {
        let opts = parse_flags(&strs(&["maintain", "--retries", "3", "--backoff-ms", "10", "f"]))
            .unwrap();
        assert_eq!(opts.args, strs(&["maintain", "f"]));
        assert_eq!(opts.retry.max_retries, 3);
        assert_eq!(
            opts.retry.base_backoff,
            std::time::Duration::from_millis(10)
        );
        // Default: no retries, no backoff — the pre-flag behaviour.
        let opts = parse_flags(&strs(&["maintain", "f"])).unwrap();
        assert_eq!(opts.retry.max_retries, 0);
        assert_eq!(opts.retry.base_backoff, std::time::Duration::ZERO);
        assert!(parse_flags(&strs(&["--retries"])).is_err());
        assert!(parse_flags(&strs(&["--retries", "soon"])).is_err());
        // Backoff without retries would silently do nothing — reject it.
        assert!(parse_flags(&strs(&["--backoff-ms", "10"])).is_err());
    }

    #[test]
    fn serve_stats_flags_parse() {
        let opts = parse_store_flags(&strs(&[
            "--data-dir",
            "d",
            "--stats-every",
            "25",
            "--slow-op-us",
            "1500",
        ]))
        .unwrap();
        assert_eq!(opts.stats_every, Some(25));
        assert_eq!(opts.slow_op_us, Some(1500));
        // Defaults: both surfaces off.
        let opts = parse_store_flags(&strs(&["--data-dir", "d"])).unwrap();
        assert_eq!(opts.stats_every, None);
        assert_eq!(opts.slow_op_us, None);
        // `--slow-op-us 0` journals every op (handy for schema checks);
        // `--stats-every 0` would never fire and is rejected instead.
        assert_eq!(
            parse_store_flags(&strs(&["--data-dir", "d", "--slow-op-us", "0"]))
                .unwrap()
                .slow_op_us,
            Some(0)
        );
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--stats-every", "0"])).is_err());
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--stats-every"])).is_err());
        assert!(parse_store_flags(&strs(&["--data-dir", "d", "--slow-op-us", "x"])).is_err());
    }

    /// The slow-op journal record is consumed by scripts: pin its shape
    /// (field order and the `_us` suffix per phase) so
    /// `scripts/obs-schema.json` and the record never drift apart.
    #[test]
    fn slow_op_record_shape_is_pinned() {
        let tl = obs::OpTimeline::new();
        tl.record(obs::Phase::Enqueue, 0);
        tl.record(obs::Phase::LaneAcquire, 40);
        tl.record(obs::Phase::Apply, 90);
        tl.record(obs::Phase::WalAppend, 105);
        tl.record(obs::Phase::BatchWait, 950);
        tl.record(obs::Phase::Fsync, 1250);
        tl.record(obs::Phase::Publish, 1260);
        assert_eq!(
            slow_op_json("insert", 7, 1000, &tl),
            "{\"type\":\"slow_op\",\"verb\":\"insert\",\"op\":7,\"threshold_us\":1000,\
             \"total_us\":1260,\"enqueue_us\":0,\"lane_acquire_us\":40,\"apply_us\":50,\
             \"wal_append_us\":15,\"batch_wait_us\":845,\"fsync_us\":300,\"publish_us\":10}"
        );
    }

    /// Satellite contract: every [`store::StoreError`] variant maps to
    /// exit 7 through the CLI (both directly and via the engine's fault
    /// taxonomy), and its rendering is pinned so scripts can match on
    /// stderr.
    #[test]
    fn every_store_error_variant_exits_fault_with_a_stable_rendering() {
        use independence_reducible::store::StoreError;
        use std::path::PathBuf;
        let table = [
            (
                StoreError::Io {
                    operation: "append wal record".to_string(),
                    path: PathBuf::from("/data/wal-0.log"),
                    message: "disk full".to_string(),
                },
                "io error during append wal record on /data/wal-0.log: disk full",
            ),
            (
                StoreError::Corrupt {
                    path: PathBuf::from("/data/wal-0.log"),
                    offset: 16,
                    detail: "stored crc 1 != computed 2".to_string(),
                },
                "corrupt wal record in /data/wal-0.log at offset 16: stored crc 1 != computed 2",
            ),
            (
                StoreError::Format {
                    path: PathBuf::from("/data/scheme.txt"),
                    detail: "unknown attribute \"Z\"".to_string(),
                },
                "malformed store file /data/scheme.txt: unknown attribute \"Z\"",
            ),
            (
                StoreError::Replay {
                    detail: "bad wal record".to_string(),
                },
                "wal replay failed: bad wal record",
            ),
        ];
        for (e, rendered) in table {
            assert_eq!(e.to_string(), rendered);
            assert_eq!(store_exit(&e), EXIT_FAULT);
            // A store error that crosses into the engine keeps exit 7.
            assert_eq!(exec_exit(&ExecError::from(e)), EXIT_FAULT);
        }
    }

    #[test]
    fn exec_errors_map_to_distinct_exit_codes() {
        use independence_reducible::exec::Resource;
        let codes = [
            exec_exit(&ExecError::BudgetExceeded {
                resource: Resource::ChaseSteps,
                limit: 1,
                spent: 2,
            }),
            exec_exit(&ExecError::TimedOut {
                elapsed_ms: 2,
                limit_ms: 1,
            }),
            exec_exit(&ExecError::Cancelled),
        ];
        assert_eq!(codes, [EXIT_BUDGET, EXIT_TIMEOUT, EXIT_FAULT]);
    }

    #[test]
    fn chase_and_query_agree_with_the_oracle() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let mut sym = SymbolTable::new();
        let state = parse_state(
            "R1: H=h1 R=r1 C=c1\nR2: H=h1 T=t1 R=r1\nR3: H=h1 T=t1 C=c1\n",
            &db,
            &mut sym,
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let kd = KeyDeps::of(&db);
        assert_eq!(
            engine.is_consistent(&state, &g).unwrap(),
            is_consistent(&db, &state, kd.full(), &g).unwrap()
        );
        let x = db.universe().set_of("HC");
        assert_eq!(
            engine.total_projection(&state, x, &g).unwrap(),
            total_projection(&db, &state, kd.full(), x, &g).unwrap()
        );
    }
}
