//! `perfbench --workload W --seed N --seconds S --trace 0|1 --idr PATH`
//!
//! Drives the release `idr` binary through one workload and prints the
//! result as the last stdout line (see README.md). Run it through
//! `perfbench/run.py`, which builds both binaries first.
//!
//! With `--trace 1` the run makes one end-to-end pass (for the wall the
//! spans must cover) and then two in-process passes over the same ops,
//! spans off and on, each in a child process of its own so memory
//! growth is measured from a clean heap:
//! `perfbench inproc --workload W --seed N --dir D --ops N --spans 0|1 --out FILE`.

mod e2e;
mod gen;
mod inproc;
mod prep;
mod proc;
mod report;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Metric;

/// The end-to-end metrics every untraced run reports, in this order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "request_p50_ms",
    "request_p90_ms",
    "rss_bytes_per_tuple",
    "disk_bytes_per_tuple",
];

/// The per-layer metrics every traced run reports, with their units.
/// A layer a workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cli.unattributed_share", "ratio"),
    ("relation.parse_us_per_op", "us"),
    ("store.snapshot_load_ms", "ms"),
    ("store.wal_scan_ms", "ms"),
    ("store.replay_ms", "ms"),
    ("store.replayed_records", "count"),
    ("store.fsyncs_per_op", "count"),
    ("store.wal_bytes_per_op", "B"),
    ("serving.hub_build_ms", "ms"),
    ("serving.insert.lane_acquire_us", "us"),
    ("serving.insert.wal_append_us", "us"),
    ("serving.insert.batch_wait_us", "us"),
    ("serving.insert.fsync_us", "us"),
    ("serving.insert.apply_us", "us"),
    ("serving.insert.publish_us", "us"),
    ("serving.reject.lane_acquire_us", "us"),
    ("serving.reject.wal_append_us", "us"),
    ("serving.reject.batch_wait_us", "us"),
    ("serving.reject.fsync_us", "us"),
    ("serving.reject.apply_us", "us"),
    ("serving.reject.publish_us", "us"),
    ("serving.delete.lane_acquire_us", "us"),
    ("serving.delete.wal_append_us", "us"),
    ("serving.delete.batch_wait_us", "us"),
    ("serving.delete.fsync_us", "us"),
    ("serving.delete.apply_us", "us"),
    ("serving.delete.publish_us", "us"),
    ("serving.batch.lane_acquire_us", "us"),
    ("serving.batch.wal_append_us", "us"),
    ("serving.batch.batch_wait_us", "us"),
    ("serving.batch.fsync_us", "us"),
    ("serving.batch.apply_us", "us"),
    ("serving.batch.publish_us", "us"),
    ("serving.publish_ms", "ms"),
    ("serving.snapshot_hit_ratio", "ratio"),
    ("query.eval_ms.bridge", "ms"),
    ("query.eval_ms.chain", "ms"),
    ("query.result_tuples.bridge", "count"),
    ("query.result_tuples.chain", "count"),
    ("query.render_ms", "ms"),
    ("chase.rule_applications_per_op", "count"),
    ("sync.open_ms", "ms"),
    ("sync.client_op_ms", "ms"),
    ("sync.exchange_ms", "ms"),
    ("sync.ops_shipped", "count"),
    ("sync.frames_sent", "count"),
    ("mem.recovered_bytes_per_tuple", "B/tuple"),
    ("mem.hub_bytes_per_tuple", "B/tuple"),
    ("mem.snapshot_bytes_per_tuple", "B/tuple"),
    ("mem.replica_bytes_per_tuple", "B/tuple"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    inproc: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    idr: Option<PathBuf>,
    data: PathBuf,
    dir: Option<PathBuf>,
    ops: usize,
    spans: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let inproc = it.next_if_eq("inproc").is_some();
    let mut a = Args {
        inproc,
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        idr: None,
        data: PathBuf::from(".bench_data"),
        dir: None,
        ops: 0,
        spans: false,
        out: None,
    };
    let (mut workload, mut seed, mut seconds) = (false, false, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => (a.workload, workload) = (val, true),
            "--seed" => (a.seed, seed) = (num(&val)?, true),
            "--seconds" => (a.seconds, seconds) = (num(&val)? as f64, true),
            "--trace" => a.trace = num(&val)? != 0,
            "--idr" => a.idr = Some(PathBuf::from(val)),
            "--data" => a.data = PathBuf::from(val),
            "--dir" => a.dir = Some(PathBuf::from(val)),
            "--ops" => a.ops = num(&val)? as usize,
            "--spans" => a.spans = num(&val)? != 0,
            "--out" => a.out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload || !seed || (!a.inproc && !seconds) {
        return Err("--workload, --seed and --seconds are required".to_string());
    }
    Ok(a)
}

/// One in-process pass in a child process; returns its values.
fn inproc_child(
    a: &Args,
    dir: &Path,
    ops: usize,
    spans: bool,
    out: &Path,
) -> Result<inproc::Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let ops = ops.to_string();
    let seed = a.seed.to_string();
    let child = Command::new(exe)
        .args([
            "inproc",
            "--workload",
            &a.workload,
            "--seed",
            &seed,
            "--ops",
            &ops,
        ])
        .args(["--spans", if spans { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("spawn in-process pass: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "in-process pass exited with {}: {}",
            child.status,
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    let mut v = inproc::Values::new();
    for line in String::from_utf8_lossy(&child.stdout).lines() {
        if let Some((k, x)) = line.split_once(' ') {
            v.insert(
                k.to_string(),
                x.parse().map_err(|_| format!("bad value line {line:?}"))?,
            );
        }
    }
    Ok(v)
}

/// The run: end-to-end metrics, or with `--trace 1` per-layer ones.
fn run(a: &Args, idr: &Path) -> Result<(usize, Vec<Metric>, Vec<Metric>), String> {
    let scheme = gen::Scheme::new();
    let run_dir = a.data.join("run");
    let _ = std::fs::remove_dir_all(&run_dir);
    let prepared = run_dir.join("prepared");
    prep::prepare(&prepared, &a.workload, a.seed, &scheme)?;
    let c = e2e::Ctx {
        idr,
        scheme: &scheme,
        prepared: prepared.clone(),
        run_dir: run_dir.clone(),
        seconds: a.seconds,
        traced: a.trace,
    };
    let o = match a.workload.as_str() {
        "ingest" => e2e::ingest(&c, a.seed),
        "mixed" => e2e::mixed(&c, a.seed),
        "replicate" => e2e::replicate(&c, a.seed),
        w => Err(format!("unknown workload {w:?}")),
    }?;
    if !a.trace {
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        if names != END_TO_END {
            return Err(format!("reported {names:?}, expected {END_TO_END:?}"));
        }
        return Ok((o.attempted, o.metrics, o.info));
    }
    let trace_dir = a.data.join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let mut passes = Vec::new();
    for spans in [false, true] {
        let dir = run_dir.join(if spans { "inproc-on" } else { "inproc-off" });
        prep::copy_tree(&prepared, &dir)?;
        let out = trace_dir.join(format!("{}-seed{}.spans.jsonl", a.workload, a.seed));
        passes.push(inproc_child(a, &dir, o.client_ops, spans, &out)?);
    }
    let (off, on) = (&passes[0], &passes[1]);
    if on["inproc.ops"] as usize != o.client_ops {
        return Err(format!(
            "in-process pass did {} ops, end-to-end {}",
            on["inproc.ops"], o.client_ops
        ));
    }
    let e2e_wall = o.timed_wall.as_secs_f64();
    let mut v = on.clone();
    v.insert(
        "cli.unattributed_share".into(),
        (e2e_wall - on["inproc.covered_s"]) / e2e_wall,
    );
    v.insert(
        "trace.overhead_share".into(),
        (on["inproc.wall_s"] - off["inproc.wall_s"]) / off["inproc.wall_s"],
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, v.get(name).copied().unwrap_or(0.0), 1))
        .collect();
    Ok((o.attempted + 2 * o.client_ops, metrics, Vec::new()))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.inproc {
        let (Some(dir), Some(out)) = (&a.dir, &a.out) else {
            eprintln!("perfbench inproc: --dir and --out are required");
            return ExitCode::from(2);
        };
        return match inproc::run(&a.workload, a.seed, dir, a.ops, a.spans, out) {
            Ok(v) => {
                for (k, x) in v {
                    println!("{k} {x}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench inproc: {}: {e}", a.workload);
                ExitCode::from(1)
            }
        };
    }
    let Some(idr) = a.idr.as_deref().filter(|p| p.is_file()) else {
        eprintln!("perfbench: --idr must name the built idr binary");
        return ExitCode::from(2);
    };
    match run(&a, idr) {
        Ok((attempted, metrics, info)) => {
            report::print_table(&metrics, &info);
            println!("{}", report::result_line(true, attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            println!("{}", report::result_line(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}
