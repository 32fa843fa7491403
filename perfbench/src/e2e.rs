//! The end-to-end runs: the release `idr` binary driven from this one
//! client process, in a closed loop, with fsync on.
//!
//! `setup_s` is measured from spawning the server to its first answered
//! request (not to the recovery banner, which `idr serve` prints before
//! the hub is built), and reported as the median of at least `SETUPS`
//! starts on the prepared dir. Starts that only sample set-up are split
//! between the beginning and the end of the run, so they see the same
//! machine as the timed phase. On `replicate` a start brings up the
//! replicated pair: A on its journal, then an empty B that bootstraps
//! from it; `setup_s` is the sum of the two.
//!
//! `request_p50_ms`/`request_p90_ms` time the request each workload is
//! about: a framed group on `ingest`, a query on `mixed`, a client insert
//! on `replicate`. On the two round-based workloads each percentile is
//! the median over rounds of that round's percentile. The per-kind
//! latencies that only one workload has (`write_*` and
//! `reject`/`delete_p50_ms` on `mixed`, `catchup_s` on `replicate`) are
//! printed but not reported.
//!
//! `ingest` and `replicate` repeat a fixed round of work (each from a
//! fresh copy) until `--seconds` of timed work have been done; `mixed`
//! runs its op stream for `--seconds`. Every op line is rendered before
//! the clock starts, and every answer is checked against the generator.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{self, Expect, Kind, Scheme};
use crate::prep;
use crate::proc::{self, Server};
use crate::report::{Metric, Outcome, Rounds, Samples, Windows};

/// Server starts per run; the median is `setup_s`.
pub const SETUPS: usize = 5;
/// Set-up-only starts made before the timed phase; the rest follow it.
const SETUPS_BEFORE: usize = 2;
/// `ops_per_s` windows: 10 groups on `ingest`, one 150-op period of the
/// mix on `mixed`, 10 client inserts on `replicate`.
const INGEST_WINDOW: usize = 10 * gen::INGEST_GROUP;
const MIXED_WINDOW: usize = 5 * (gen::MIXED_WRITE_RUN + gen::MIXED_BURST);
const REPL_WINDOW: usize = 10;
/// A server that lives longer than this is killed (a hang fails the run).
const DEADLINE: Duration = Duration::from_secs(150);

pub struct Ctx<'a> {
    pub idr: &'a Path,
    pub scheme: &'a Scheme,
    pub prepared: PathBuf,
    pub run_dir: PathBuf,
    pub seconds: f64,
    /// A traced run: one round, no set-up-only starts.
    pub traced: bool,
}

fn arg(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Spawns `idr serve` on `dir`, sends `.stats` and waits for its first
/// answer line. Checks the recovery banner's tuple count on the way.
fn start_serve(c: &Ctx, dir: &Path, live: usize) -> Result<(Server, f64), String> {
    let mut s = Server::spawn(c.idr, &["serve", "--data-dir", arg(dir)], DEADLINE)?;
    s.send(".stats\n")?;
    let state = s.line_starting("state: ")?;
    let want = format!("state: {live} tuple(s), consistent");
    if state != want {
        return Err(format!("recovery banner {state:?}, expected {want:?}"));
    }
    s.line_starting("[op 1] ")?;
    let setup = s.spawned.elapsed().as_secs_f64();
    Ok((s, setup))
}

/// Set-up-only starts on a pristine copy of `what`, until `setup`
/// holds `target` samples.
fn sample_setups<F>(
    c: &Ctx,
    what: &str,
    setup: &mut Samples,
    target: usize,
    start: F,
) -> Result<(), String>
where
    F: Fn(&Path) -> Result<(Server, f64), String>,
{
    if c.traced || setup.len() >= target {
        return Ok(());
    }
    let dir = c.run_dir.join("setup").join(what);
    if !dir.exists() {
        prep::copy_tree(&c.prepared.join(what), &dir)?;
    }
    while setup.len() < target {
        let (s, t) = start(&dir)?;
        setup.push(t);
        s.quit()?;
    }
    Ok(())
}

/// Whether another fixed round is due after `timed` seconds of work.
fn more_rounds(c: &Ctx, timed: Duration) -> bool {
    !c.traced && timed.as_secs_f64() < c.seconds
}

/// Reads the tagged answer to op `op`: returns its first body line and
/// checks that every further line of the same answer arrives. Lines of
/// earlier ops (the rest of the `.stats` answer) are skipped.
fn answer(s: &mut Server, op: usize) -> Result<String, String> {
    let tag = format!("[op {op}] ");
    let first = loop {
        let l = s.line()?;
        if let Some(body) = l.strip_prefix(&tag) {
            break body.to_string();
        }
        let earlier = l
            .strip_prefix("[op ")
            .and_then(|r| r.split(']').next())
            .and_then(|n| n.parse::<usize>().ok())
            .is_some_and(|n| n < op);
        if !earlier {
            return Err(format!("unexpected line {l:?} while waiting for op {op}"));
        }
    };
    let more = if first.contains(" tuple(s) @epoch ") {
        count_after(&first, "]: ", " tuple(s)")?
    } else if first.starts_with("committed ") {
        count_after(&first, "committed ", " op(s)")?
    } else {
        0
    };
    for _ in 0..more {
        let l = s.line()?;
        let body = l
            .strip_prefix(&tag)
            .ok_or_else(|| format!("answer to op {op} cut by {l:?}"))?;
        if first.starts_with("committed ") && !body.ends_with("] accepted") {
            return Err(format!(
                "op {op}: group verdict {body:?}, expected accepted"
            ));
        }
    }
    Ok(first)
}

fn count_after(s: &str, start: &str, end: &str) -> Result<usize, String> {
    s.split_once(start)
        .and_then(|(_, r)| r.split_once(end))
        .and_then(|(n, _)| n.trim().parse().ok())
        .ok_or_else(|| format!("no count in {s:?}"))
}

/// `idr recover` after a clean `quit` must find every acknowledged tuple.
fn check_recover(c: &Ctx, dir: &Path, live: usize) -> Result<(), String> {
    let out = proc::run(c.idr, &["recover", "--data-dir", arg(dir)])?;
    let want = format!("state: {live} tuple(s), consistent");
    if out.lines().any(|l| l == want) {
        Ok(())
    } else {
        Err(format!("idr recover did not report {want:?}:\n{out}"))
    }
}

/// The numbers after `label` in the `served ...` summary line.
fn served_count(tail: &[String], label: &str) -> Result<u64, String> {
    let line = tail
        .iter()
        .find(|l| l.starts_with("served "))
        .ok_or("no served summary after quit")?;
    line.split(", ")
        .find_map(|part| part.strip_suffix(label))
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("no {label:?} in {line:?}"))
}

/// Bytes in a data dir after a clean quit; an empty dir means it is gone.
fn disk_bytes(dir: &Path) -> Result<u64, String> {
    match prep::tree_bytes(dir) {
        0 => Err(format!("{} is empty after quit", dir.display())),
        n => Ok(n),
    }
}

fn fresh_copy(c: &Ctx, what: &str) -> Result<PathBuf, String> {
    let dir = c.run_dir.join(what);
    let _ = std::fs::remove_dir_all(&dir);
    prep::copy_tree(&c.prepared.join(what), &dir)?;
    Ok(dir)
}

pub fn ingest(c: &Ctx, seed: u64) -> Result<Outcome, String> {
    let plan = gen::ingest(seed);
    let frag = |&(e, r): &(u32, u8)| format!("insert {}\n", c.scheme.fragment(e, r));
    let groups: Vec<String> = plan
        .groups
        .iter()
        .map(|g| format!("begin\n{}commit\n", g.iter().map(frag).collect::<String>()))
        .collect();
    let base = plan.snapshot.len();
    let live = base + gen::INGEST_GROUP * gen::INGEST_GROUPS;
    let start = |dir: &Path| start_serve(c, dir, base);
    let mut setup = Samples::default();
    sample_setups(c, "data", &mut setup, SETUPS_BEFORE, start)?;

    // A round: a fresh copy, one start, every group, a clean quit.
    let (mut commit, mut timed, mut peak, mut rounds) = (Rounds::default(), Duration::ZERO, 0, 0);
    let mut rate = Windows::new(INGEST_WINDOW);
    let dir = loop {
        let dir = fresh_copy(c, "data")?;
        let (mut s, t) = start(&dir)?;
        setup.push(t);
        let mut op = 1; // `.stats` was op 1
        commit.start();
        let t0 = Instant::now();
        rate.restart();
        for (g, text) in groups.iter().enumerate() {
            let t = Instant::now();
            s.send(text)?;
            let begun = answer(&mut s, op + 1)?;
            let committed = answer(&mut s, op + 2 + gen::INGEST_GROUP)?;
            commit.push_ms(t.elapsed());
            let want = format!("committed {n} op(s), {n} applied", n = gen::INGEST_GROUP);
            if begun != "batch begun" || committed != want {
                return Err(format!(
                    "group {g}: {begun:?} / {committed:?}, expected {want:?}"
                ));
            }
            op += 2 + gen::INGEST_GROUP;
            rate.tick(gen::INGEST_GROUP);
        }
        timed += t0.elapsed();
        rounds += 1;
        peak = peak.max(s.peak_rss()?);
        let fsyncs = served_count(&s.quit()?, " fsync(s)")?;
        if fsyncs != groups.len() as u64 {
            return Err(format!("{fsyncs} fsyncs for {} groups", groups.len()));
        }
        if !more_rounds(c, timed) {
            break dir;
        }
    };
    sample_setups(c, "data", &mut setup, SETUPS, start)?;
    let disk = disk_bytes(&dir)?;
    check_recover(c, &dir, live)?;
    let tuples = rounds * gen::INGEST_GROUP * gen::INGEST_GROUPS;
    Ok(Outcome {
        attempted: tuples,
        client_ops: tuples,
        timed_wall: timed,
        metrics: vec![
            setup.median_metric("setup_s", "s"),
            rate.metric(),
            commit.pct_metric("request_p50_ms", "ms", 0.5),
            commit.pct_metric("request_p90_ms", "ms", 0.9),
            Metric::new(
                "rss_bytes_per_tuple",
                "B/tuple",
                peak as f64 / live as f64,
                rounds,
            ),
            Metric::new(
                "disk_bytes_per_tuple",
                "B/tuple",
                disk as f64 / live as f64,
                1,
            ),
        ],
        info: Vec::new(),
    })
}

pub fn mixed(c: &Ctx, seed: u64) -> Result<Outcome, String> {
    let plan = gen::mixed(c.scheme, seed);
    let lines: Vec<String> = plan.ops.iter().map(|o| format!("{}\n", o.line)).collect();
    let base = plan.snapshot.len() + plan.tail.len();
    let start = |dir: &Path| start_serve(c, dir, base);
    let mut setup = Samples::default();
    sample_setups(c, "data", &mut setup, SETUPS_BEFORE, start)?;
    let dir = fresh_copy(c, "data")?;
    let (mut s, t) = start(&dir)?;
    setup.push(t);

    let (mut write, mut reject, mut delete, mut read) = Default::default();
    let mut done = 0;
    let mut rate = Windows::new(MIXED_WINDOW);
    let t0 = Instant::now();
    rate.restart();
    while done < plan.ops.len() && t0.elapsed().as_secs_f64() < c.seconds {
        let o = &plan.ops[done];
        let t = Instant::now();
        s.send(&lines[done])?;
        let got = answer(&mut s, done + 2)?;
        let dt = t.elapsed();
        let ok = match o.expect {
            Expect::Accepted => got == "accepted",
            Expect::Rejected => got == "rejected (state unchanged)",
            Expect::Removed => got == "removed",
            Expect::Tuples(n) => count_after(&got, "]: ", " tuple(s)")? == n,
        };
        if !ok {
            return Err(format!(
                "op {:?}: got {got:?}, expected {:?}",
                o.line, o.expect
            ));
        }
        let bucket: &mut Samples = match o.kind {
            Kind::Insert => &mut write,
            Kind::Reject => &mut reject,
            Kind::Delete => &mut delete,
            Kind::Query { .. } => &mut read,
        };
        bucket.push_ms(dt);
        done += 1;
        rate.tick(1);
    }
    let wall = t0.elapsed();
    let live = if done == 0 {
        base
    } else {
        plan.ops[done - 1].live_after
    };
    let peak = s.peak_rss()?;
    s.quit()?;
    sample_setups(c, "data", &mut setup, SETUPS, start)?;
    let disk = disk_bytes(&dir)?;
    check_recover(c, &dir, live)?;
    Ok(Outcome {
        attempted: done,
        client_ops: done,
        timed_wall: wall,
        metrics: vec![
            setup.median_metric("setup_s", "s"),
            rate.metric(),
            read.pct_metric("request_p50_ms", "ms", 0.5),
            read.pct_metric("request_p90_ms", "ms", 0.9),
            Metric::new(
                "rss_bytes_per_tuple",
                "B/tuple",
                peak as f64 / live as f64,
                1,
            ),
            Metric::new(
                "disk_bytes_per_tuple",
                "B/tuple",
                disk as f64 / live as f64,
                1,
            ),
        ],
        info: vec![
            write.pct_metric("write_p50_ms", "ms", 0.5),
            write.pct_metric("write_p90_ms", "ms", 0.9),
            reject.pct_metric("reject_p50_ms", "ms", 0.5),
            delete.pct_metric("delete_p50_ms", "ms", 0.5),
        ],
    })
}

/// Starts peer A (origin 0 of 2, ephemeral listen port) and waits for
/// the answer to `.digest`. Returns the server, its setup time and its
/// bound address.
fn start_peer_a(c: &Ctx, dir: &Path, held: usize) -> Result<(Server, f64, String), String> {
    let args = [
        "serve",
        "--data-dir",
        arg(dir),
        "--listen",
        "127.0.0.1:0",
        "--origin",
        "0",
        "--origins",
        "2",
    ];
    let mut s = Server::spawn(c.idr, &args, DEADLINE)?;
    s.send(".digest\n")?;
    let banner = s.line_starting("origin 0/2 recovered")?;
    if count_after(&banner, ": ", " op(s) held")? != held {
        return Err(format!("peer A banner {banner:?}, expected {held} ops"));
    }
    let addr = s.line_starting("listening on ")?["listening on ".len()..].to_string();
    s.line_starting("digest ")?;
    let setup = s.spawned.elapsed().as_secs_f64();
    Ok((s, setup, addr))
}

/// Bootstraps an empty peer B from A at `addr`. Checks that B took all
/// `held` ops and ends with A's digest. Returns B's set-up time (spawn
/// to its first answered request, which it answers only after the
/// bootstrap) and its catch-up time (spawn to its bootstrap line).
fn catch_up(c: &Ctx, a: &mut Server, addr: &str, held: usize) -> Result<(f64, f64), String> {
    let b_dir = fresh_copy(c, "b")?;
    // B's periodic exchanges are pushed past the end of the run, so only
    // the bootstrap exchange is measured.
    let b_args = [
        "serve",
        "--data-dir",
        arg(&b_dir),
        "--peer",
        addr,
        "--origin",
        "1",
        "--origins",
        "2",
        "--sync-interval-ms",
        "3600000",
    ];
    let mut b = Server::spawn(c.idr, &b_args, DEADLINE)?;
    b.send(".digest\n")?;
    let boot = b.line_starting("peer ")?;
    let catchup = b.spawned.elapsed().as_secs_f64();
    let want = format!("peer {addr}: shipped 0, appended {held},");
    if !boot.starts_with(&want) {
        return Err(format!("peer B bootstrap {boot:?}, expected {want:?}"));
    }
    let db = b.line_starting("digest ")?;
    let setup = b.spawned.elapsed().as_secs_f64();
    a.send(".digest\n")?;
    let da = a.line_starting("digest ")?;
    if da != db {
        return Err(format!("digests differ after catch-up: A {da:?}, B {db:?}"));
    }
    b.quit()?;
    Ok((setup, catchup))
}

/// Brings up the replicated pair: A on the journal in `a_dir`, then an
/// empty B that bootstraps from it and quits. Returns A, the pair's
/// set-up time (A's plus B's) and B's catch-up time.
fn start_pair(c: &Ctx, a_dir: &Path, held: usize) -> Result<(Server, f64, f64), String> {
    let (mut a, t_a, addr) = start_peer_a(c, a_dir, held)?;
    let (t_b, catchup) = catch_up(c, &mut a, &addr, held)?;
    Ok((a, t_a + t_b, catchup))
}

pub fn replicate(c: &Ctx, seed: u64) -> Result<Outcome, String> {
    let plan = gen::replicate(seed);
    let lines: Vec<String> = plan
        .inserts
        .iter()
        .map(|&(e, r)| format!("insert {}\n", c.scheme.fragment(e, r)))
        .collect();
    let held = plan.journal.len();
    let total = held + lines.len();
    let start = |dir: &Path| start_pair(c, dir, held).map(|(a, t, _)| (a, t));
    let mut setup = Samples::default();
    sample_setups(c, "a", &mut setup, SETUPS_BEFORE, start)?;

    // A round: a fresh pair, then every client insert on A.
    let (mut write, mut catchup, mut timed, mut peak, mut rounds) =
        (Rounds::default(), Samples::default(), Duration::ZERO, 0, 0);
    let mut rate = Windows::new(REPL_WINDOW);
    let a_dir = loop {
        let a_dir = fresh_copy(c, "a")?;
        let (mut a, t, cu) = start_pair(c, &a_dir, held)?;
        setup.push(t);
        catchup.push(cu);
        write.start();
        let t0 = Instant::now();
        rate.restart();
        for (k, line) in lines.iter().enumerate() {
            let t = Instant::now();
            a.send(line)?;
            let got = a.line()?;
            write.push_ms(t.elapsed());
            let want = format!("journalled at origin 0: {} op(s) held", held + k + 1);
            if !got.starts_with(&want) {
                return Err(format!("insert {k}: got {got:?}, expected {want:?}"));
            }
            rate.tick(1);
        }
        timed += t0.elapsed();
        rounds += 1;
        peak = peak.max(a.peak_rss()?);
        a.quit()?;
        if !more_rounds(c, timed) {
            break a_dir;
        }
    };
    sample_setups(c, "a", &mut setup, SETUPS, start)?;
    let disk = disk_bytes(&a_dir)?;
    let inserts = rounds * lines.len();
    Ok(Outcome {
        attempted: inserts + catchup.len(),
        client_ops: inserts,
        timed_wall: timed,
        metrics: vec![
            setup.median_metric("setup_s", "s"),
            rate.metric(),
            write.pct_metric("request_p50_ms", "ms", 0.5),
            write.pct_metric("request_p90_ms", "ms", 0.9),
            Metric::new(
                "rss_bytes_per_tuple",
                "B/tuple",
                peak as f64 / total as f64,
                rounds,
            ),
            Metric::new(
                "disk_bytes_per_tuple",
                "B/tuple",
                disk as f64 / total as f64,
                1,
            ),
        ],
        info: vec![catchup.median_metric("catchup_s", "s")],
    })
}
