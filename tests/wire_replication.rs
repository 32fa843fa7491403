//! Networked replication suite (docs/WIRE.md): real `idr serve`
//! processes exchanging protocol frames over loopback TCP.
//!
//! * The worked byte-level example in docs/WIRE.md §7 must match the
//!   encoder bit for bit — the spec is executable.
//! * Two separate `idr serve --peer` processes, each journalling its
//!   own client ops, converge to byte-identical digests and state.
//! * A peer serving a different scheme is rejected at the handshake
//!   and the initiating process exits with code 7, before any op
//!   crosses the wire.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use independence_reducible::relation::parse::parse_scheme;
use independence_reducible::store::TempDir;
use independence_reducible::sync::{scheme_digest, Hello, WireMsg};

const IDR: &str = env!("CARGO_BIN_EXE_idr");

const UNIVERSITY: &str = include_str!("../examples/schemes/university.scm");

/// docs/WIRE.md promises its worked example is checked against the
/// encoder. This is that check: extract the hex block under "Full
/// frame" in §7 and compare with the bytes `Hello::new(0, 2, …)`
/// actually produces for the Example 1 scheme.
#[test]
fn wire_md_worked_example_matches_the_encoder() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/WIRE.md"))
        .expect("docs/WIRE.md");
    let after = spec
        .split_once("Full frame (8-byte header + payload), as hex:")
        .expect("WIRE.md §7 hex block heading")
        .1;
    let block = after
        .split_once("```text")
        .expect("hex fence opens")
        .1
        .split_once("```")
        .expect("hex fence closes")
        .0;
    let hex: String = block.chars().filter(|c| c.is_ascii_hexdigit()).collect();
    let documented: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();

    let db = parse_scheme(UNIVERSITY).expect("example scheme parses");
    assert_eq!(
        scheme_digest(&db),
        0x3616_ce1e,
        "scheme digest documented in WIRE.md §7"
    );
    let frame = WireMsg::Hello(Hello::new(0, 2, &db)).encode_frame();
    assert_eq!(
        documented, frame,
        "WIRE.md §7 worked example drifted from the encoder"
    );
}

/// One spawned `idr serve` peer process with line-buffered stdio.
struct Peer {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Peer {
    fn spawn(dir: &std::path::Path, args: &[&str]) -> Peer {
        let mut child = Command::new(IDR)
            .arg("serve")
            .arg("--data-dir")
            .arg(dir)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn idr serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Peer { child, stdin, stdout }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("peer stdin");
        self.stdin.flush().expect("peer stdin flush");
    }

    /// Reads lines until one starts with `prefix`, returning it.
    fn read_until(&mut self, prefix: &str) -> String {
        loop {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).expect("peer stdout");
            assert!(n > 0, "peer closed stdout awaiting {prefix:?}");
            if line.starts_with(prefix) {
                return line.trim_end().to_string();
            }
        }
    }

    fn quit_ok(mut self) {
        self.send("quit");
        drop(self.stdin);
        let status = self.child.wait().expect("peer exit");
        assert!(status.success(), "peer exited with {status:?}");
    }
}

fn init_dir(label: &str, scheme: &str) -> TempDir {
    let dir = TempDir::new(label);
    let scheme_file = dir.path().join("input.scm");
    std::fs::write(&scheme_file, scheme).unwrap();
    let status = Command::new(IDR)
        .arg("init")
        .arg(dir.path())
        .arg(&scheme_file)
        .stdout(Stdio::null())
        .status()
        .expect("idr init");
    assert!(status.success(), "idr init failed");
    dir
}

/// Polls `DIR/listen.addr` until the spawned process publishes its
/// bound ephemeral port.
fn wait_listen_addr(dir: &std::path::Path) -> String {
    let path = dir.join("listen.addr");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(s) = std::fs::read_to_string(&path) {
            let s = s.trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
        assert!(Instant::now() < deadline, "no listen.addr within 10s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The acceptance walkthrough as a test: two processes, one client op
/// each, anti-entropy over real loopback sockets until `.digest` and
/// `.state` agree byte for byte.
#[test]
fn two_processes_converge_over_loopback() {
    let dir_a = init_dir("wire-proc-a", UNIVERSITY);
    let dir_b = init_dir("wire-proc-b", UNIVERSITY);

    let mut a = Peer::spawn(
        dir_a.path(),
        &[
            "--listen", "127.0.0.1:0",
            "--origin", "0",
            "--origins", "2",
            "--sync-interval-ms", "25",
        ],
    );
    a.read_until("listening on ");
    let addr_a = wait_listen_addr(dir_a.path());

    let mut b = Peer::spawn(
        dir_b.path(),
        &[
            "--listen", "127.0.0.1:0",
            "--peer", &addr_a,
            "--origin", "1",
            "--origins", "2",
            "--sync-interval-ms", "25",
        ],
    );
    b.read_until("listening on ");

    a.send("insert R1: H=h1 R=r1 C=c1");
    a.read_until("journalled at origin 0");
    b.send("insert R4: C=c1 S=s1 G=g1");
    b.read_until("journalled at origin 1");
    // A key-violating insert: must converge to *rejected* on both.
    b.send("insert R1: H=h1 R=r1 C=c9");
    b.read_until("journalled at origin 1");

    let deadline = Instant::now() + Duration::from_secs(20);
    let (da, db) = loop {
        a.send(".digest");
        b.send(".digest");
        let da = a.read_until("digest ");
        let db = b.read_until("digest ");
        // Converged means identical digests that cover all three ops.
        if da == db && !da.contains("0/00000000") {
            break (da, db);
        }
        assert!(
            Instant::now() < deadline,
            "no convergence within 20s: a={da} b={db}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(da, db);

    a.send(".state");
    b.send(".state");
    let head_a = a.read_until("state: ");
    let head_b = b.read_until("state: ");
    assert_eq!(head_a, head_b);
    assert_eq!(head_a, "state: 2 tuple(s), consistent");
    let mut lines_a = Vec::new();
    let mut lines_b = Vec::new();
    for _ in 0..2 {
        lines_a.push(a.read_until("  "));
        lines_b.push(b.read_until("  "));
    }
    assert_eq!(lines_a, lines_b, "converged states must be byte-identical");
    assert!(
        lines_a.iter().any(|l| l.contains("C=c1")),
        "first R1 insert survives: {lines_a:?}"
    );
    assert!(
        !lines_a.iter().any(|l| l.contains("C=c9")),
        "key-violating insert rejected everywhere: {lines_a:?}"
    );

    a.quit_ok();
    b.quit_ok();
}

/// Handshake contract (docs/WIRE.md §3): a scheme-digest mismatch is a
/// typed rejection and the initiating process exits 7 — no op crosses.
#[test]
fn scheme_mismatch_is_rejected_with_exit_7() {
    const OTHER: &str = "
universe: A B C
scheme R1: A B  keys A
scheme R2: B C  keys B
";
    let dir_a = init_dir("wire-mismatch-a", UNIVERSITY);
    let dir_b = init_dir("wire-mismatch-b", OTHER);

    let mut a = Peer::spawn(
        dir_a.path(),
        &["--listen", "127.0.0.1:0", "--origin", "0", "--origins", "2"],
    );
    a.read_until("listening on ");
    let addr_a = wait_listen_addr(dir_a.path());

    // The mismatched initiator: its bootstrap exchange must die on the
    // handshake before stdin is even read.
    let child = Command::new(IDR)
        .arg("serve")
        .arg("--data-dir")
        .arg(dir_b.path())
        .args(["--peer", &addr_a, "--origin", "1", "--origins", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn mismatched peer");
    assert_eq!(
        child.status.code(),
        Some(7),
        "stderr: {}",
        String::from_utf8_lossy(&child.stderr)
    );
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(
        stderr.contains("scheme digest mismatch"),
        "typed handshake detail expected, got: {stderr}"
    );

    // The responder survives a bad peer: it still answers commands.
    a.send(".digest");
    a.read_until("digest ");
    a.quit_ok();
}

/// Peer mode answers a `query` with no attributes the way plain serve
/// does, with an `error:` line, and keeps serving.
#[test]
fn peer_mode_rejects_an_empty_query() {
    let dir = init_dir("wire-empty-query", UNIVERSITY);
    let mut a = Peer::spawn(
        dir.path(),
        &["--listen", "127.0.0.1:0", "--origin", "0", "--origins", "2"],
    );
    a.read_until("listening on ");
    a.send("query");
    a.send(".digest");
    let mut line = String::new();
    a.stdout.read_line(&mut line).expect("peer stdout");
    assert_eq!(line.trim_end(), "error: query needs at least one attribute");
    a.read_until("digest ");
    a.quit_ok();
}

/// A non-UTF-8 stdin line in peer mode is a fault, as in plain serve:
/// an `error: stdin:` line, no later line served, exit code 7.
#[test]
fn peer_mode_fails_on_non_utf8_stdin() {
    let dir = init_dir("wire-bad-stdin", UNIVERSITY);
    let mut a = Peer::spawn(
        dir.path(),
        &["--listen", "127.0.0.1:0", "--origin", "0", "--origins", "2"],
    );
    a.read_until("listening on ");
    a.stdin.write_all(b"insert R1: H=\xff R=r1 C=c1\n").expect("peer stdin");
    a.send("insert R1: H=h1 R=r1 C=c1");
    drop(a.stdin);
    let status = a.child.wait().expect("peer exit");
    let mut out = String::new();
    std::io::Read::read_to_string(&mut a.stdout, &mut out).expect("peer stdout");
    assert!(
        out.contains("error: stdin: stream did not contain valid UTF-8"),
        "stdout: {out}"
    );
    assert!(!out.contains("journalled"), "a line after the fault was served: {out}");
    assert_eq!(status.code(), Some(7), "stdout: {out}");
}
