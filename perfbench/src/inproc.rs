//! The traced run: the same op streams as the end-to-end run, driven
//! in-process through the public calls `serve_cmd` / `peer_serve_cmd`
//! make, with one span around each call.
//!
//! A span is (name, start, end, parent, op id); op 0 is set-up. Spans
//! live in memory and are written out once the run ends. With spans off
//! the same calls run untimed, and the difference in wall time between
//! the two runs is the tracing overhead. Nothing inside the crates is
//! instrumented: serving phases come from the `OpTimeline` the
//! `*_timed` calls already fill, counters from public getters.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use independence_reducible::core::{BatchOp, Engine, Hub, Observability};
use independence_reducible::obs::{MetricsRegistry, OpTimeline, Phase, TraceHandle};
use independence_reducible::relation::exec::Guard;
use independence_reducible::relation::parse::{parse_scheme, parse_tuple_line};
use independence_reducible::relation::{AttrSet, DatabaseScheme, SymbolTable, Tuple};
use independence_reducible::store::{self, snapshot, wal, SharedStore};
use independence_reducible::sync::{
    connect, initiate_exchange, respond_exchange, ExchangeFaults, Hello, Replica,
};

use crate::gen::{self, Expect, Kind, Op, Scheme, BRIDGE_ATTRS, CHAIN_ATTRS};
use crate::proc::proc_status_kb;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span log. When off, `begin`/`end` do nothing.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, renaming it (a call's outcome can pick the name).
    fn end_as(&mut self, id: usize, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed();
        let s = &mut self.spans[id];
        s.end = now;
        s.name = name;
        self.open.pop();
    }

    fn end(&mut self, id: usize) {
        if self.on {
            let name = self.spans[id].name;
            self.end_as(id, name);
        }
    }

    fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// (count, total seconds) of the spans called `name`.
    fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| {
                (n + 1, t + (s.end - s.start).as_secs_f64())
            })
    }

    fn mean_ms(&self, name: &str) -> f64 {
        let (n, t) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t * 1e3 / n as f64
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let f =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"op\": {}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}

fn rss() -> u64 {
    proc_status_kb("/proc/self/status", "VmRSS:").map_or(0, |kb| kb * 1024)
}

/// Per-op-kind sums of the serving phases an `OpTimeline` recorded.
#[derive(Default)]
struct PhaseSums {
    ops: usize,
    us: [u64; 6],
}

const PHASES: [Phase; 6] = [
    Phase::LaneAcquire,
    Phase::WalAppend,
    Phase::BatchWait,
    Phase::Fsync,
    Phase::Apply,
    Phase::Publish,
];

impl PhaseSums {
    fn add(&mut self, tl: &OpTimeline) {
        self.ops += 1;
        for (sum, p) in self.us.iter_mut().zip(PHASES) {
            *sum += tl.duration_of(p);
        }
    }
}

/// Everything a traced run reports, by metric name, plus the figures
/// the parent needs: timed wall, span-covered time and op count.
pub type Values = BTreeMap<String, f64>;

struct Run {
    spans: Spans,
    out: Out,
    ops: usize,
    wall: Duration,
}

/// Values measured outside spans, and phase sums by op kind.
#[derive(Default)]
struct Out {
    v: Values,
    phases: BTreeMap<&'static str, PhaseSums>,
}

impl Out {
    fn set(&mut self, name: &str, value: f64) {
        self.v.insert(name.to_string(), value);
    }
}

fn attrs(db: &DatabaseScheme, names: [&str; 2]) -> AttrSet {
    let u = db.universe();
    AttrSet::from_iter(names.iter().map(|n| u.attr(n).expect("probe attribute")))
}

fn parse(
    spans: &mut Spans,
    op: u64,
    tail: &str,
    db: &DatabaseScheme,
    sym: &Mutex<SymbolTable>,
) -> Result<(usize, Tuple), String> {
    spans.time("relation.parse_tuple_line", op, || {
        let mut sym = sym.lock().expect("symbol table");
        parse_tuple_line(tail, db, &mut sym)
    })
}

/// The durable serve path over `dir`: recovery, hub build, then the
/// workload's client ops. `ops` is how many client ops (tuples for
/// `ingest`) the end-to-end run completed.
fn serve(
    run: &mut Run,
    dir: &Path,
    workload: &str,
    seed: u64,
    ops: usize,
    s: &Scheme,
) -> Result<(), String> {
    let db = parse_scheme(
        &std::fs::read_to_string(dir.join(snapshot::SCHEME_FILE)).map_err(|e| e.to_string())?,
    )?;
    let sp = &mut run.spans;
    // The separate load and scan calls only time recovery's first two
    // steps; `recover_with` repeats them.
    let epoch = {
        let mut sym = SymbolTable::new();
        let (epoch, _) = sp
            .time("store.load_snapshot", 0, || {
                snapshot::load_snapshot(dir, &db, &mut sym)
            })
            .map_err(|e| e.to_string())?;
        epoch
    };
    sp.time("store.wal_scan_file", 0, || {
        wal::scan_file(&snapshot::wal_path(dir, epoch))
    })
    .map_err(|e| e.to_string())?;
    let m0 = rss();
    let rec = sp
        .time("store.recover_with", 0, || {
            store::recover_with(dir, TraceHandle::none(), None)
        })
        .map_err(|e| e.to_string())?;
    let m1 = rss();
    let live0 = rec.state.total_tuples();
    let out = &mut run.out;
    out.set("store.replayed_records", rec.stats.replayed as f64);
    out.set(
        "mem.recovered_bytes_per_tuple",
        (m1 as f64 - m0 as f64) / live0 as f64,
    );

    let shared = Arc::new(SharedStore::new(rec.store).with_group_window(Duration::ZERO));
    let symbols = shared.symbols();
    // `idr serve` always serves with a metrics registry attached.
    let obs = Observability {
        metrics: Some(Arc::new(MetricsRegistry::new())),
        ..Observability::none()
    };
    let engine = Engine::new(db.clone()).with_observability(obs);
    let guard = Guard::unlimited();
    let hub = sp
        .time("serving.hub_with", 0, || {
            engine.hub_with(&rec.state, &guard, shared.clone())
        })
        .map_err(|e| e.to_string())?;
    let m2 = rss();
    out.set(
        "mem.hub_bytes_per_tuple",
        (m2 as f64 - m1 as f64) / live0 as f64,
    );

    let writer = hub.write_handle();
    let wal_file = snapshot::wal_path(dir, epoch);
    let wal0 = std::fs::metadata(&wal_file).map_or(0, |m| m.len());
    let fsync0 = shared.group_wal().fsyncs();
    let chase0 = hub.chase_stats().rule_applications;

    let t0 = Instant::now();
    let client_ops = match workload {
        "ingest" => {
            let plan = gen::ingest(seed);
            let groups = ops / gen::INGEST_GROUP;
            for (g, frags) in plan.groups.iter().take(groups).enumerate() {
                let op = g as u64 + 1;
                let top = sp.begin("client.group", op);
                let mut batch = Vec::with_capacity(frags.len());
                for &(e, r) in frags {
                    let (rel, t) = parse(sp, op, &s.fragment(e, r), &db, &symbols)?;
                    batch.push(BatchOp::Insert { rel, t });
                }
                let tl = Arc::new(OpTimeline::new());
                tl.stamp(Phase::Enqueue);
                let verdicts = sp
                    .time("serving.apply_batch_timed", op, || {
                        writer.apply_batch_timed(&batch, &guard, &tl)
                    })
                    .map_err(|e| e.to_string())?;
                sp.end(top);
                if verdicts.iter().any(|v| !v) {
                    return Err(format!("group {g}: an insert was not accepted"));
                }
                out.phases.entry("batch").or_default().add(&tl);
            }
            groups * gen::INGEST_GROUP
        }
        "mixed" => {
            let plan = gen::mixed(s, seed);
            let n = ops.min(plan.ops.len());
            mixed_ops(sp, out, &hub, &db, &symbols, &guard, &plan.ops[..n])?;
            n
        }
        w => return Err(format!("serve path has no workload {w:?}")),
    };
    run.wall = t0.elapsed();
    run.ops = client_ops;
    let n = client_ops.max(1) as f64;
    let wal1 = std::fs::metadata(&wal_file).map_or(0, |m| m.len());
    let out = &mut run.out;
    out.set(
        "store.fsyncs_per_op",
        (shared.group_wal().fsyncs() - fsync0) as f64 / n,
    );
    out.set("store.wal_bytes_per_op", (wal1 - wal0) as f64 / n);
    out.set(
        "chase.rule_applications_per_op",
        (hub.chase_stats().rule_applications - chase0) as f64 / n,
    );
    Ok(())
}

fn mixed_ops(
    sp: &mut Spans,
    out: &mut Out,
    hub: &Hub,
    db: &DatabaseScheme,
    symbols: &Mutex<SymbolTable>,
    guard: &Guard,
    ops: &[Op],
) -> Result<(), String> {
    let writer = hub.write_handle();
    let (bridge, chain) = (attrs(db, BRIDGE_ATTRS), attrs(db, CHAIN_ATTRS));
    let u = db.universe();
    let mut epoch = hub.read_view().epoch();
    // (queries, tuples answered) per probe.
    let (mut tuples_bridge, mut tuples_chain) = ((0usize, 0usize), (0usize, 0usize));
    for (k, o) in ops.iter().enumerate() {
        let op = k as u64 + 1;
        let top = sp.begin("client.op", op);
        match o.kind {
            Kind::Query { chain: is_chain } => {
                // Memory is sampled around the first publish only, and
                // outside its span.
                let m0 = (epoch == 0).then(rss);
                let id = sp.begin("serving.read_view", op);
                let view = hub.read_view();
                let advanced = view.epoch() != epoch;
                sp.end_as(
                    id,
                    if advanced {
                        "serving.read_view.publish"
                    } else {
                        "serving.read_view.hit"
                    },
                );
                if let (true, Some(m0)) = (advanced, m0) {
                    out.set(
                        "mem.snapshot_bytes_per_tuple",
                        (rss() as f64 - m0 as f64) / view.state().total_tuples() as f64,
                    );
                }
                epoch = view.epoch();
                let x = if is_chain { chain } else { bridge };
                let name = if is_chain {
                    "query.total_projection.chain"
                } else {
                    "query.total_projection.bridge"
                };
                let tuples = sp
                    .time(name, op, || view.total_projection(x, guard))
                    .map_err(|e| e.to_string())?
                    .ok_or("state is inconsistent")?;
                let body = sp.time("query.render", op, || {
                    let sym = symbols.lock().expect("symbol table");
                    let mut body = format!(
                        "[{}]: {} tuple(s) @epoch {}",
                        u.render(x),
                        tuples.len(),
                        view.epoch()
                    );
                    for t in &tuples {
                        body.push_str("\n  ");
                        body.push_str(&t.render(u, &sym));
                    }
                    body
                });
                std::hint::black_box(body);
                if o.expect != Expect::Tuples(tuples.len()) {
                    return Err(format!(
                        "{}: {} tuples, expected {:?}",
                        o.line,
                        tuples.len(),
                        o.expect
                    ));
                }
                let acc = if is_chain {
                    &mut tuples_chain
                } else {
                    &mut tuples_bridge
                };
                acc.0 += 1;
                acc.1 += tuples.len();
            }
            kind => {
                let (verb, tail) = o.line.split_once(' ').expect("verb and tuple");
                let (rel, t) = parse(sp, op, tail, db, symbols)?;
                let tl = Arc::new(OpTimeline::new());
                tl.stamp(Phase::Enqueue);
                let (ok, key) = if verb == "insert" {
                    let v = sp.time("serving.insert_timed", op, || {
                        writer.insert_timed(rel, t, guard, &tl)
                    });
                    let v = v.map_err(|e| e.to_string())?;
                    (
                        v == (kind == Kind::Insert),
                        if kind == Kind::Insert {
                            "insert"
                        } else {
                            "reject"
                        },
                    )
                } else {
                    let v = sp.time("serving.delete_timed", op, || {
                        writer.delete_timed(rel, &t, guard, &tl)
                    });
                    (v.map_err(|e| e.to_string())?, "delete")
                };
                if !ok {
                    return Err(format!(
                        "{}: wrong verdict, expected {:?}",
                        o.line, o.expect
                    ));
                }
                out.phases.entry(key).or_default().add(&tl);
            }
        }
        sp.end(top);
    }
    let mean = |(n, t): (usize, usize)| if n == 0 { 0.0 } else { t as f64 / n as f64 };
    out.set("query.result_tuples.bridge", mean(tuples_bridge));
    out.set("query.result_tuples.chain", mean(tuples_chain));
    Ok(())
}

/// The peer-mode path, in the order of the end-to-end run: open A's
/// journals, bootstrap an empty B from A over loopback, then take the
/// client inserts on A.
fn peer(run: &mut Run, dirs: &Path, seed: u64, ops: usize, s: &Scheme) -> Result<(), String> {
    let a_dir = dirs.join("a");
    let db = parse_scheme(
        &std::fs::read_to_string(a_dir.join(snapshot::SCHEME_FILE)).map_err(|e| e.to_string())?,
    )?;
    let guard = Guard::unlimited();
    let sp = &mut run.spans;
    let m0 = rss();
    let a = sp
        .time("sync.open_durable", 0, || {
            Replica::open_durable(0, 2, &db, &a_dir.join("sync"), true, &guard)
        })
        .map_err(|e| e.to_string())?;
    let held = a.ops_held();
    run.out.set(
        "mem.replica_bytes_per_tuple",
        (rss() as f64 - m0 as f64) / held as f64,
    );
    let a = Mutex::new(a);

    let b = Mutex::new(
        Replica::open_durable(1, 2, &db, &dirs.join("b/sync"), true, &guard)
            .map_err(|e| e.to_string())?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let timeout = Duration::from_secs(30);
    let (hello_a, hello_b) = (Hello::new(0, 2, &db), Hello::new(1, 2, &db));
    let (resp, init) = std::thread::scope(|scope| {
        let responder = scope.spawn(|| {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            respond_exchange(
                stream,
                &hello_a,
                &a,
                &ExchangeFaults::none(),
                timeout,
                &guard,
                &TraceHandle::none(),
            )
            .map_err(|e| e.to_string())
        });
        let init = sp.time("sync.initiate_exchange", 0, || {
            connect(&addr, timeout).and_then(|stream| {
                initiate_exchange(
                    stream,
                    &hello_b,
                    &b,
                    &ExchangeFaults::none(),
                    timeout,
                    &guard,
                    &TraceHandle::none(),
                )
            })
        });
        (
            responder.join().expect("responder thread"),
            init.map_err(|e| e.to_string()),
        )
    });
    let (resp, init) = (resp?, init?);
    let (da, dbg) = (
        a.lock().expect("a").digest().render(),
        b.lock().expect("b").digest().render(),
    );
    if da != dbg {
        return Err(format!("digests differ after the exchange: {da} vs {dbg}"));
    }
    run.out
        .set("sync.ops_shipped", (resp.shipped + init.shipped) as f64);
    run.out.set(
        "sync.frames_sent",
        (resp.frames_sent + init.frames_sent) as f64,
    );

    let plan = gen::replicate(seed);
    let t0 = Instant::now();
    for (k, &(e, r)) in plan.inserts.iter().take(ops).enumerate() {
        let op = k as u64 + 1;
        let top = sp.begin("client.op", op);
        let tail = s.fragment(e, r);
        // `peer_serve_cmd` validates each line against a throwaway symbol table
        // before journalling it.
        sp.time("relation.parse_tuple_line", op, || {
            parse_tuple_line(&tail, &db, &mut SymbolTable::new())
        })?;
        let line = format!("insert {tail}");
        let mut r = a.lock().expect("replica lock");
        sp.time("sync.client_op", op, || r.client_op(&line, &guard))
            .map_err(|e| e.to_string())?;
        sp.end(top);
    }
    run.wall = t0.elapsed();
    run.ops = ops.min(plan.inserts.len());

    Ok(())
}

/// Runs one traced (or untraced) in-process pass over a fresh copy of
/// the prepared dirs in `dir`; returns the per-layer values.
pub fn run(
    workload: &str,
    seed: u64,
    dir: &Path,
    ops: usize,
    spans_on: bool,
    spans_out: &Path,
) -> Result<Values, String> {
    let s = Scheme::new();
    let mut run = Run {
        spans: Spans::new(spans_on),
        out: Out::default(),
        ops: 0,
        wall: Duration::ZERO,
    };
    match workload {
        "ingest" | "mixed" => serve(&mut run, &dir.join("data"), workload, seed, ops, &s)?,
        "replicate" => peer(&mut run, dir, seed, ops, &s)?,
        w => return Err(format!("unknown workload {w:?}")),
    }
    let sp = &run.spans;
    let mut v = run.out.v.clone();
    v.insert("inproc.wall_s".into(), run.wall.as_secs_f64());
    v.insert("inproc.ops".into(), run.ops as f64);
    if spans_on {
        let covered = sp.total("client.op").1 + sp.total("client.group").1;
        v.insert("inproc.covered_s".into(), covered);
        v.insert(
            "relation.parse_us_per_op".into(),
            sp.mean_ms("relation.parse_tuple_line") * 1e3,
        );
        let load = sp.total("store.load_snapshot").1 * 1e3;
        let scan = sp.total("store.wal_scan_file").1 * 1e3;
        let recover = sp.total("store.recover_with").1 * 1e3;
        v.insert("store.snapshot_load_ms".into(), load);
        v.insert("store.wal_scan_ms".into(), scan);
        v.insert("store.replay_ms".into(), recover - load - scan);
        v.insert(
            "serving.hub_build_ms".into(),
            sp.total("serving.hub_with").1 * 1e3,
        );
        let (published, hits) = (
            sp.total("serving.read_view.publish").0,
            sp.total("serving.read_view.hit").0,
        );
        v.insert(
            "serving.publish_ms".into(),
            sp.mean_ms("serving.read_view.publish"),
        );
        v.insert(
            "serving.snapshot_hit_ratio".into(),
            if published + hits == 0 {
                0.0
            } else {
                hits as f64 / (published + hits) as f64
            },
        );
        v.insert(
            "query.eval_ms.bridge".into(),
            sp.mean_ms("query.total_projection.bridge"),
        );
        v.insert(
            "query.eval_ms.chain".into(),
            sp.mean_ms("query.total_projection.chain"),
        );
        v.insert("query.render_ms".into(), sp.mean_ms("query.render"));
        v.insert("sync.open_ms".into(), sp.total("sync.open_durable").1 * 1e3);
        v.insert("sync.client_op_ms".into(), sp.mean_ms("sync.client_op"));
        v.insert(
            "sync.exchange_ms".into(),
            sp.total("sync.initiate_exchange").1 * 1e3,
        );
        for kind in ["insert", "reject", "delete", "batch"] {
            let sums = run.out.phases.get(kind);
            for (i, p) in PHASES.iter().enumerate() {
                let mean = sums.map_or(0.0, |s| s.us[i] as f64 / s.ops.max(1) as f64);
                v.insert(format!("serving.{kind}.{}_us", p.as_str()), mean);
            }
        }
        sp.write(spans_out)?;
    }
    Ok(v)
}
