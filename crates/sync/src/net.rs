//! Real-socket transport for the anti-entropy protocol.
//!
//! The protocol itself ([`crate::proto`]) is transport-agnostic: two
//! message kinds, both plain byte frames. This module puts them on TCP:
//!
//! * **Framing** ([`FramedConn`]): every wire message travels as
//!   `[payload len: u32 LE][crc32(payload): u32 LE][payload]` — the
//!   store's WAL record header ([`idr_store::wal`]) reused verbatim,
//!   except the payload may be binary (an ops push nests a whole
//!   WAL-framed op range) and the size cap is [`MAX_WIRE_FRAME`]. A
//!   connection cut mid-frame loses at most the torn frame; everything
//!   before it was already CRC-verified.
//! * **Handshake** ([`Hello`], [`handshake`]): both sides lead with a
//!   `hello` frame carrying the wire version, their origin id, the
//!   group size, and a CRC32 digest of the rendered scheme. Any
//!   mismatch is a typed [`WireError::Handshake`] — a peer serving a
//!   different scheme is rejected before a single op crosses.
//! * **Exchange** ([`initiate_exchange`], [`respond_exchange`]): one
//!   short-lived connection per anti-entropy round. The initiator sends
//!   its digest with `want_reply`; the responder ships ranges for every
//!   origin it is ahead on, then its own digest; the initiator ships
//!   back ranges for origins *it* is ahead on and closes. Both sides
//!   feed received messages through [`Replica::receive`] — ops re-enter
//!   the engine via the guarded `WriteHandle` replay path, verdicts
//!   re-earned, never trusted off the wire.
//! * **Model-checked transport** (`transport: wire` in a
//!   [`Scenario`]): the wire transport of the one scenario runner
//!   ([`crate::sim`]). It shares the simulator's round loop — the
//!   scripted [`FaultPlan`], crash-point book, trace and convergence
//!   check; only the exchange step differs: one real loopback socket
//!   exchange per ordered pair, against durable journals. Partition
//!   and drop become connection kills, crash-mid-transfer cuts the ops
//!   frame at a scripted byte and restarts the node from its journal
//!   files. The simulator is the model; this transport puts the wire
//!   implementation under the same convergence oracle.
//!
//! The byte layout is specified normatively in `docs/WIRE.md`; the
//! handshake tests assert the spec's worked example matches these
//! encoders bit for bit.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use idr_obs::TraceHandle;
use idr_relation::exec::{ExecError, Guard};
use idr_relation::parse::render_scheme_file;
use idr_relation::rng::SplitMix64;
use idr_relation::DatabaseScheme;
use idr_store::crc32::crc32;

use crate::digest::{DigestStatus, JournalDigest, OriginDigest};
use crate::fault::{CrashStep, FaultPlan};
use crate::proto::Message;
use crate::replica::Replica;
use crate::scenario::Scenario;
use crate::sim::{trace_push, Group, Network};

/// The wire protocol version both sides must speak.
pub const WIRE_VERSION: u32 = 1;

/// Wire frames share the WAL record header layout but may carry a whole
/// nested ops range, so the cap is larger than one WAL record's.
pub const MAX_WIRE_FRAME: usize = 1 << 26;

/// Bytes of wire-frame header: payload length then payload CRC32, both
/// little-endian `u32` — identical to the WAL record header.
pub const WIRE_HEADER_LEN: usize = 8;

/// Why a wire operation failed.
#[derive(Clone, Debug)]
pub enum WireError {
    /// A socket-level failure (connect, read, write, accept).
    Io {
        /// What was being attempted.
        operation: String,
        /// The rendered OS error.
        detail: String,
    },
    /// A read deadline passed with the peer silent.
    Timeout {
        /// What was being awaited.
        operation: String,
        /// The configured deadline in milliseconds.
        after_ms: u64,
    },
    /// A structurally bad frame: oversized length, CRC mismatch, or an
    /// unparseable header line.
    Frame {
        /// What disagreed.
        detail: String,
    },
    /// The peer's hello is incompatible (version, scheme digest, origin
    /// identity, or group size). The connection is refused before any
    /// op crosses.
    Handshake {
        /// Which field disagreed and how.
        detail: String,
    },
    /// Applying received ops through the guarded engine failed — not a
    /// transport problem; carries the engine error.
    Exec(ExecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { operation, detail } => write!(f, "wire i/o ({operation}): {detail}"),
            WireError::Timeout {
                operation,
                after_ms,
            } => write!(f, "wire timeout awaiting {operation} after {after_ms} ms"),
            WireError::Frame { detail } => write!(f, "bad wire frame: {detail}"),
            WireError::Handshake { detail } => write!(f, "handshake rejected: {detail}"),
            WireError::Exec(e) => write!(f, "apply failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The CRC32 scheme digest both sides compare during the handshake:
/// computed over the canonical rendered scheme file, so two processes
/// agree iff their schemes render identically.
pub fn scheme_digest(db: &DatabaseScheme) -> u32 {
    crc32(render_scheme_file(db).as_bytes())
}

/// The handshake announcement each side sends first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Wire protocol version ([`WIRE_VERSION`]).
    pub version: u32,
    /// The sender's origin id.
    pub origin: usize,
    /// The replica-group size the sender is configured for.
    pub origins: usize,
    /// [`scheme_digest`] of the sender's scheme.
    pub scheme: u32,
}

impl Hello {
    /// The hello for origin `origin` in a group of `origins` over `db`.
    pub fn new(origin: usize, origins: usize, db: &DatabaseScheme) -> Hello {
        Hello {
            version: WIRE_VERSION,
            origin,
            origins,
            scheme: scheme_digest(db),
        }
    }
}

/// A decoded wire message: the handshake announcement or a protocol
/// message.
#[derive(Clone, Debug)]
pub enum WireMsg {
    /// The handshake announcement.
    Hello(Hello),
    /// An anti-entropy protocol message.
    Msg(Message),
}

impl WireMsg {
    /// Encodes the message payload: a UTF-8 header line terminated by
    /// `\n`, followed for ops pushes by the binary op-range frame.
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            WireMsg::Hello(h) => format!(
                "hello v{} origin={} origins={} scheme={:08x}\n",
                h.version, h.origin, h.origins, h.scheme
            )
            .into_bytes(),
            WireMsg::Msg(Message::Digest { digest, want_reply }) => {
                let mut line = format!("digest want_reply={}", u8::from(*want_reply));
                for o in &digest.origins {
                    line.push_str(&format!(" {}/{:08x}", o.len, o.chain));
                }
                line.push('\n');
                line.into_bytes()
            }
            WireMsg::Msg(Message::OpsPush {
                origin,
                from,
                base_chain,
                frame,
            }) => {
                let mut out =
                    format!("ops origin={origin} from={from} base={base_chain:08x}\n").into_bytes();
                out.extend_from_slice(frame);
                out
            }
        }
    }

    /// Decodes a payload produced by [`WireMsg::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<WireMsg, WireError> {
        let nl = payload
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| WireError::Frame {
                detail: "missing header line terminator".to_string(),
            })?;
        let header = std::str::from_utf8(&payload[..nl]).map_err(|_| WireError::Frame {
            detail: "header line is not UTF-8".to_string(),
        })?;
        let body = &payload[nl + 1..];
        let mut words = header.split_whitespace();
        let kind = words.next().unwrap_or("");
        let bad = |detail: String| WireError::Frame { detail };
        let field = |w: Option<&str>, key: &str| -> Result<String, WireError> {
            let w = w.ok_or_else(|| bad(format!("missing {key}= field")))?;
            match w.split_once('=') {
                Some((k, v)) if k == key => Ok(v.to_string()),
                _ => Err(bad(format!("expected {key}=…, got {w:?}"))),
            }
        };
        match kind {
            "hello" => {
                let v = words.next().unwrap_or("");
                let version: u32 = v
                    .strip_prefix('v')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("bad version token {v:?}")))?;
                let origin = field(words.next(), "origin")?
                    .parse()
                    .map_err(|_| bad("bad origin".to_string()))?;
                let origins = field(words.next(), "origins")?
                    .parse()
                    .map_err(|_| bad("bad origins".to_string()))?;
                let scheme = u32::from_str_radix(&field(words.next(), "scheme")?, 16)
                    .map_err(|_| bad("bad scheme digest".to_string()))?;
                Ok(WireMsg::Hello(Hello {
                    version,
                    origin,
                    origins,
                    scheme,
                }))
            }
            "digest" => {
                let want_reply = match field(words.next(), "want_reply")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(format!("bad want_reply {other:?}"))),
                };
                let mut origins = Vec::new();
                for w in words {
                    let (len, chain) = w
                        .split_once('/')
                        .ok_or_else(|| bad(format!("bad origin digest {w:?}")))?;
                    origins.push(OriginDigest {
                        len: len
                            .parse()
                            .map_err(|_| bad(format!("bad digest length {len:?}")))?,
                        chain: u32::from_str_radix(chain, 16)
                            .map_err(|_| bad(format!("bad digest chain {chain:?}")))?,
                    });
                }
                Ok(WireMsg::Msg(Message::Digest {
                    digest: JournalDigest { origins },
                    want_reply,
                }))
            }
            "ops" => {
                let origin = field(words.next(), "origin")?
                    .parse()
                    .map_err(|_| bad("bad ops origin".to_string()))?;
                let from = field(words.next(), "from")?
                    .parse()
                    .map_err(|_| bad("bad ops from".to_string()))?;
                let base_chain = u32::from_str_radix(&field(words.next(), "base")?, 16)
                    .map_err(|_| bad("bad ops base chain".to_string()))?;
                Ok(WireMsg::Msg(Message::OpsPush {
                    origin,
                    from,
                    base_chain,
                    frame: body.to_vec(),
                }))
            }
            other => Err(bad(format!("unknown message kind {other:?}"))),
        }
    }

    /// Encodes the full wire frame: header (`[len][crc32]`) + payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(WIRE_HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

fn io_err(operation: &str, e: &std::io::Error) -> WireError {
    WireError::Io {
        operation: operation.to_string(),
        detail: e.to_string(),
    }
}

/// A length-prefixed framed reader/writer over one TCP connection, with
/// a read deadline on every frame.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    timeout: Duration,
}

impl FramedConn {
    /// Wraps `stream`, arming `timeout` as the per-read deadline.
    pub fn new(stream: TcpStream, timeout: Duration) -> Result<FramedConn, WireError> {
        stream.set_nodelay(true).map_err(|e| io_err("set nodelay", &e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| io_err("set read timeout", &e))?;
        Ok(FramedConn { stream, timeout })
    }

    /// The underlying stream (for shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one message as a single frame.
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), WireError> {
        let frame = msg.encode_frame();
        self.stream
            .write_all(&frame)
            .map_err(|e| io_err("send frame", &e))
    }

    /// Receives the next frame. `Ok(None)` is a clean close at a frame
    /// boundary; a cut mid-frame, a deadline, or a corrupt frame is an
    /// error.
    pub fn recv(&mut self) -> Result<Option<WireMsg>, WireError> {
        let mut header = [0u8; WIRE_HEADER_LEN];
        match self.stream.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => self
                .read_exact(&mut header[n..], "frame header")
                .map_err(|e| self.classify(e, "frame header"))?,
            Err(e) => return Err(self.classify(e, "frame header")),
        }
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_WIRE_FRAME {
            return Err(WireError::Frame {
                detail: format!("frame length {len} exceeds cap {MAX_WIRE_FRAME}"),
            });
        }
        let mut payload = vec![0u8; len];
        self.read_exact(&mut payload, "frame payload")
            .map_err(|e| self.classify(e, "frame payload"))?;
        let computed = crc32(&payload);
        if computed != stored_crc {
            return Err(WireError::Frame {
                detail: format!("stored crc {stored_crc:08x} != computed {computed:08x}"),
            });
        }
        WireMsg::decode_payload(&payload).map(Some)
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &str) -> std::io::Result<()> {
        self.stream.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection cut mid-{what}"),
                )
            } else {
                e
            }
        })
    }

    fn classify(&self, e: std::io::Error, operation: &str) -> WireError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout {
                operation: operation.to_string(),
                after_ms: self.timeout.as_millis() as u64,
            },
            _ => io_err(operation, &e),
        }
    }
}

/// Runs the symmetric handshake: sends `mine`, reads the peer's hello,
/// and validates compatibility. Any disagreement is a typed
/// [`WireError::Handshake`] naming the field.
pub fn handshake(conn: &mut FramedConn, mine: &Hello) -> Result<Hello, WireError> {
    conn.send(&WireMsg::Hello(*mine))?;
    let theirs = match conn.recv()? {
        Some(WireMsg::Hello(h)) => h,
        Some(_) => {
            return Err(WireError::Handshake {
                detail: "peer sent a protocol message before hello".to_string(),
            })
        }
        None => {
            return Err(WireError::Handshake {
                detail: "peer closed before hello".to_string(),
            })
        }
    };
    let reject = |detail: String| Err(WireError::Handshake { detail });
    if theirs.version != mine.version {
        return reject(format!(
            "wire version mismatch: ours v{}, theirs v{}",
            mine.version, theirs.version
        ));
    }
    if theirs.scheme != mine.scheme {
        return reject(format!(
            "scheme digest mismatch: ours {:08x}, theirs {:08x}",
            mine.scheme, theirs.scheme
        ));
    }
    if theirs.origins != mine.origins {
        return reject(format!(
            "group size mismatch: ours {}, theirs {}",
            mine.origins, theirs.origins
        ));
    }
    if theirs.origin >= theirs.origins {
        return reject(format!(
            "peer origin {} out of range for group of {}",
            theirs.origin, theirs.origins
        ));
    }
    if theirs.origin == mine.origin {
        return reject(format!("peer claims our own origin id {}", mine.origin));
    }
    Ok(theirs)
}

/// Scripted misbehaviour one exchange side executes — how the wire
/// transport realises a [`FaultPlan`] with real sockets.
#[derive(Clone, Debug, Default)]
pub struct ExchangeFaults {
    /// Kill the connection right after the handshake (a partition: the
    /// link is up, the protocol never runs).
    pub kill_after_handshake: bool,
    /// Kill the connection on receiving the digest request, before
    /// processing it (a dropped message).
    pub kill_before_reply: bool,
    /// Protocol steps at which this side crashes on receipt; the first
    /// one encountered fires. An ops push is cut at a byte derived from
    /// `cut_at` first, so its surviving prefix reaches the durable
    /// journal — crash-mid-transfer.
    pub armed_crashes: Vec<CrashStep>,
    /// Raw entropy for the cut point.
    pub cut_at: u64,
}

impl ExchangeFaults {
    /// A well-behaved side.
    pub fn none() -> ExchangeFaults {
        ExchangeFaults::default()
    }
}

/// What one side of an exchange did.
#[derive(Clone, Debug, Default)]
pub struct ExchangeOutcome {
    /// Ops this side shipped in pushes.
    pub shipped: usize,
    /// Ops this side appended from received pushes.
    pub appended: u64,
    /// Protocol frames this side sent (hello excluded).
    pub frames_sent: usize,
    /// The peer's digest, when one was seen.
    pub peer_digest: Option<JournalDigest>,
    /// Whether every origin classified in-sync against the peer digest.
    pub in_sync: bool,
    /// The scripted crash step that fired on this side, if any. The
    /// caller restarts the node from its journals.
    pub crashed: Option<CrashStep>,
    /// Whether this side deliberately killed the connection.
    pub killed: bool,
}

/// Handles one received message through the replica, honouring armed
/// crash faults. Returns `false` when the exchange must stop (a crash
/// fired).
#[allow(clippy::too_many_arguments)]
fn deliver(
    msg: &Message,
    peer: usize,
    replica: &Mutex<Replica>,
    conn: &mut FramedConn,
    faults: &ExchangeFaults,
    outcome: &mut ExchangeOutcome,
    guard: &Guard,
    tracer: &TraceHandle,
) -> Result<bool, WireError> {
    let step = msg.step();
    if faults.armed_crashes.contains(&step) {
        // Crash on receipt: an ops push is cut at a scripted byte and
        // its surviving prefix still reaches the durable journal; then
        // the process dies.
        if let Some(torn) = msg.torn(|len| (faults.cut_at % (len as u64 + 1)) as usize) {
            let mut r = replica.lock().unwrap();
            r.receive(peer, &torn, guard).map_err(WireError::Exec)?;
        }
        outcome.crashed = Some(step);
        let _ = conn.stream().shutdown(Shutdown::Both);
        return Ok(false);
    }
    let (out, src) = {
        let mut r = replica.lock().unwrap();
        (r.receive(peer, msg, guard).map_err(WireError::Exec)?, r.id())
    };
    outcome.appended += out.appended;
    if let Message::Digest { digest, .. } = msg {
        outcome.peer_digest = Some(digest.clone());
        outcome.in_sync = !out.statuses.is_empty()
            && out.statuses.iter().all(|(_, s)| *s == DigestStatus::InSync);
    }
    for (_, reply) in &out.messages {
        outcome.shipped += trace_push(tracer, src, peer, reply);
        conn.send(&WireMsg::Msg(reply.clone()))?;
        outcome.frames_sent += 1;
    }
    Ok(true)
}

/// Responder side of one exchange over an accepted connection:
/// handshake, then serve the initiator's digest request (pushes for
/// every origin we are ahead on, our digest last), then attach the
/// initiator's pushes until it closes.
pub fn respond_exchange(
    stream: TcpStream,
    mine: &Hello,
    replica: &Mutex<Replica>,
    faults: &ExchangeFaults,
    timeout: Duration,
    guard: &Guard,
    tracer: &TraceHandle,
) -> Result<ExchangeOutcome, WireError> {
    let mut conn = FramedConn::new(stream, timeout)?;
    let theirs = handshake(&mut conn, mine)?;
    let mut outcome = ExchangeOutcome::default();
    if faults.kill_after_handshake {
        outcome.killed = true;
        let _ = conn.stream().shutdown(Shutdown::Both);
        return Ok(outcome);
    }
    loop {
        let msg = match conn.recv() {
            Ok(Some(WireMsg::Msg(m))) => m,
            Ok(Some(WireMsg::Hello(_))) => {
                return Err(WireError::Frame {
                    detail: "unexpected second hello".to_string(),
                })
            }
            Ok(None) => break,
            // A connection cut mid-exchange is the network's business,
            // not a local failure: stop, keep what was attached.
            Err(WireError::Exec(e)) => return Err(WireError::Exec(e)),
            Err(_) => break,
        };
        if matches!(
            &msg,
            Message::Digest {
                want_reply: true,
                ..
            }
        ) && faults.kill_before_reply
        {
            outcome.killed = true;
            let _ = conn.stream().shutdown(Shutdown::Both);
            break;
        }
        if !deliver(
            &msg,
            theirs.origin,
            replica,
            &mut conn,
            faults,
            &mut outcome,
            guard,
            tracer,
        )? {
            break;
        }
    }
    Ok(outcome)
}

/// Initiator side of one exchange over a connected stream: handshake,
/// send our digest with `want_reply`, attach the responder's pushes,
/// and on its digest reply ship back every origin we are ahead on.
pub fn initiate_exchange(
    stream: TcpStream,
    mine: &Hello,
    replica: &Mutex<Replica>,
    faults: &ExchangeFaults,
    timeout: Duration,
    guard: &Guard,
    tracer: &TraceHandle,
) -> Result<ExchangeOutcome, WireError> {
    let mut conn = FramedConn::new(stream, timeout)?;
    let theirs = handshake(&mut conn, mine)?;
    let mut outcome = ExchangeOutcome::default();
    let request = {
        let r = replica.lock().unwrap();
        Message::Digest {
            digest: r.digest(),
            want_reply: true,
        }
    };
    conn.send(&WireMsg::Msg(request))?;
    outcome.frames_sent += 1;
    loop {
        let msg = match conn.recv() {
            Ok(Some(WireMsg::Msg(m))) => m,
            Ok(Some(WireMsg::Hello(_))) => {
                return Err(WireError::Frame {
                    detail: "unexpected second hello".to_string(),
                })
            }
            Ok(None) => break,
            Err(WireError::Exec(e)) => return Err(WireError::Exec(e)),
            Err(_) => break,
        };
        let is_reply = matches!(
            &msg,
            Message::Digest {
                want_reply: false,
                ..
            }
        );
        if !deliver(
            &msg,
            theirs.origin,
            replica,
            &mut conn,
            faults,
            &mut outcome,
            guard,
            tracer,
        )? {
            break;
        }
        if is_reply {
            // The reply is the responder's last frame; our pushes (if
            // any) went out in `deliver`. Close our write side so the
            // responder sees a clean end of exchange.
            let _ = conn.stream().shutdown(Shutdown::Write);
            break;
        }
    }
    Ok(outcome)
}

/// Resolves and connects to `addr` within `timeout`.
pub fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, WireError> {
    let sock: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| io_err(&format!("resolve {addr}"), &e))?
        .next()
        .ok_or_else(|| WireError::Io {
            operation: format!("resolve {addr}"),
            detail: "no addresses".to_string(),
        })?;
    TcpStream::connect_timeout(&sock, timeout).map_err(|e| io_err(&format!("connect {addr}"), &e))
}

/// Connects with the CLI retry policy: up to `retries` reconnect
/// attempts after the first failure, sleeping `backoff × attempt`
/// between tries — the socket-world reading of `--retries` /
/// `--backoff-ms`.
pub fn connect_with_retry(
    addr: &str,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
) -> Result<TcpStream, WireError> {
    let mut last = None;
    for attempt in 0..=retries {
        match connect(addr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt < retries {
            std::thread::sleep(backoff * (attempt + 1));
        }
    }
    Err(last.unwrap())
}

/// Per-exchange read deadline of the wire transport. Loopback
/// exchanges complete in microseconds; the deadline only bounds hangs.
const RUNNER_TIMEOUT: Duration = Duration::from_secs(5);

/// The wire transport of the scenario runner ([`crate::sim`]): one
/// real loopback socket exchange per ordered pair and round, between
/// replicas whose journals are files.
///
/// Fault realisation differs from the simulator where the transport
/// does: partition and drop become connection kills (after the
/// handshake and before the digest reply respectively), `dup`/`delay`
/// have no wire analogue on a synchronous connection and are ignored,
/// and a crash restarts the node **from its journal files** rather
/// than from in-memory journals.
pub(crate) struct WireNet {
    /// Holds the replicas' journal files for the run.
    _dir: idr_store::TempDir,
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    hellos: Vec<Hello>,
    plan: FaultPlan,
    rng: SplitMix64,
}

impl WireNet {
    /// Opens a durable replica and a loopback listener per node of `s`.
    pub(crate) fn open(s: &Scenario) -> Result<(WireNet, Vec<Replica>), ExecError> {
        let guard = Guard::unlimited();
        let n = s.replicas;
        let dir = idr_store::TempDir::new("wire-run");
        let replicas = (0..n)
            .map(|k| {
                let path = dir.path().join(format!("node-{k}"));
                Replica::open_durable(k, n, &s.db, &path, false, &guard)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for k in 0..n {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| {
                ExecError::from(idr_store::StoreError::Io {
                    operation: format!("bind loopback listener for node {k}"),
                    path: std::path::PathBuf::new(),
                    message: e.to_string(),
                })
            })?;
            addrs.push(l.local_addr().expect("listener has a local addr"));
            listeners.push(l);
        }
        let net = WireNet {
            _dir: dir,
            listeners,
            addrs,
            hellos: (0..n).map(|k| Hello::new(k, n, &s.db)).collect(),
            plan: s.plan.clone(),
            rng: SplitMix64::new(s.seed),
        };
        Ok((net, replicas))
    }
}

impl Network for WireNet {
    /// One socket exchange per ordered pair. Every fault decision is
    /// drawn on this thread before the sockets move, so the scripted
    /// behaviour is deterministic in the seed.
    fn exchange(&mut self, round: usize, g: &mut Group<'_>) -> Result<usize, ExecError> {
        let n = self.hellos.len();
        let mut delivered = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let blocked = self.plan.blocked(round, i, j);
                let drop_roll = self.rng.gen_pct(self.plan.drop_pct);
                let resp_cut = self.rng.next_u64();
                let init_cut = self.rng.next_u64();
                let armed = |replica: usize, steps: [CrashStep; 2]| {
                    steps
                        .into_iter()
                        .filter(|&step| g.crash_due(round, replica, step))
                        .collect()
                };
                let resp_faults = ExchangeFaults {
                    kill_after_handshake: blocked,
                    kill_before_reply: !blocked && drop_roll,
                    armed_crashes: armed(j, [CrashStep::DigestRequest, CrashStep::OpsPush]),
                    cut_at: resp_cut,
                };
                let init_faults = ExchangeFaults {
                    armed_crashes: armed(i, [CrashStep::DigestReply, CrashStep::OpsPush]),
                    cut_at: init_cut,
                    ..ExchangeFaults::none()
                };
                let Ok(stream) = connect(&self.addrs[j].to_string(), RUNNER_TIMEOUT) else {
                    g.report.dropped += 1;
                    continue;
                };
                let (resp_out, init_out) = std::thread::scope(|scope| {
                    let responder = scope.spawn(|| {
                        let (accepted, _) = self.listeners[j]
                            .accept()
                            .map_err(|e| io_err(&format!("accept at node {j}"), &e))?;
                        respond_exchange(
                            accepted,
                            &self.hellos[j],
                            &g.replicas[j],
                            &resp_faults,
                            RUNNER_TIMEOUT,
                            &g.guard,
                            &g.tracer,
                        )
                    });
                    let init_out = initiate_exchange(
                        stream,
                        &self.hellos[i],
                        &g.replicas[i],
                        &init_faults,
                        RUNNER_TIMEOUT,
                        &g.guard,
                        &g.tracer,
                    );
                    (responder.join().expect("responder thread"), init_out)
                });
                for (side, out) in [(j, resp_out), (i, init_out)] {
                    match out {
                        Ok(o) => {
                            g.report.ops_shipped += o.shipped;
                            g.report.messages_sent += o.frames_sent;
                            delivered += o.frames_sent;
                            if o.killed {
                                g.report.dropped += 1;
                            }
                            if let Some(step) = o.crashed {
                                g.crash(round, side, step)?;
                            }
                        }
                        Err(WireError::Exec(e)) => return Err(e),
                        Err(_) => g.report.dropped += 1,
                    }
                }
            }
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashPoint, Partition, SyncPolicy};
    use crate::proto;
    use crate::sim::ScriptedOp;
    use idr_relation::parse::parse_scheme;

    fn db() -> DatabaseScheme {
        parse_scheme("universe: A B C\nscheme R1: A B keys A\nscheme R2: B C keys B\n").unwrap()
    }

    #[test]
    fn payloads_round_trip() {
        let msgs = [
            WireMsg::Hello(Hello::new(1, 3, &db())),
            WireMsg::Msg(Message::Digest {
                digest: JournalDigest {
                    origins: vec![
                        OriginDigest { len: 3, chain: 0x9f2a_11c0 },
                        OriginDigest::EMPTY,
                    ],
                },
                want_reply: true,
            }),
            WireMsg::Msg(Message::OpsPush {
                origin: 2,
                from: 7,
                base_chain: 0xdead_beef,
                frame: proto::encode_frame(["insert R1: A=a B=b", "delete R1: A=a B=b"]),
            }),
        ];
        for msg in &msgs {
            let payload = msg.encode_payload();
            let decoded = WireMsg::decode_payload(&payload).unwrap();
            assert_eq!(
                msg.encode_payload(),
                decoded.encode_payload(),
                "round trip must be stable"
            );
        }
    }

    #[test]
    fn frame_header_matches_wal_record_layout() {
        let msg = WireMsg::Hello(Hello::new(0, 2, &db()));
        let frame = msg.encode_frame();
        let payload = msg.encode_payload();
        assert_eq!(WIRE_HEADER_LEN, idr_store::wal::RECORD_HEADER_LEN);
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(
            u32::from_le_bytes(frame[4..8].try_into().unwrap()),
            crc32(&payload)
        );
        assert_eq!(&frame[8..], &payload[..]);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(matches!(
            WireMsg::decode_payload(b"bogus kind\n"),
            Err(WireError::Frame { .. })
        ));
        assert!(matches!(
            WireMsg::decode_payload(b"no newline"),
            Err(WireError::Frame { .. })
        ));
    }

    #[test]
    fn handshake_rejects_mismatched_scheme() {
        let db_a = db();
        let db_b =
            parse_scheme("universe: A B\nscheme R1: A B keys A\n").unwrap();
        assert_ne!(scheme_digest(&db_a), scheme_digest(&db_b));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::new(stream, Duration::from_secs(5)).unwrap();
            handshake(&mut conn, &Hello::new(1, 2, &db_b))
        });
        let stream = connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let mut conn = FramedConn::new(stream, Duration::from_secs(5)).unwrap();
        let client = handshake(&mut conn, &Hello::new(0, 2, &db_a));
        let server = server.join().unwrap();
        for side in [client, server] {
            match side {
                Err(WireError::Handshake { detail }) => {
                    assert!(detail.contains("scheme digest mismatch"), "{detail}")
                }
                other => panic!("expected handshake rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn two_nodes_converge_over_loopback() {
        let s = Scenario {
            db: db(),
            replicas: 2,
            seed: 9,
            max_rounds: 16,
            policy: SyncPolicy::default(),
            plan: FaultPlan::clean(),
            transport: crate::scenario::Transport::Wire,
            ops: vec![
                ScriptedOp {
                    round: 0,
                    replica: 0,
                    line: "insert R1: A=a B=b".to_string(),
                },
                ScriptedOp {
                    round: 0,
                    replica: 1,
                    line: "insert R2: B=b C=c".to_string(),
                },
                ScriptedOp {
                    round: 1,
                    replica: 1,
                    line: "insert R2: B=b C=zzz".to_string(),
                },
            ],
        };
        let (report, _) = s.run(TraceHandle::none(), None).unwrap();
        assert!(report.converged, "{:?}", report.trace);
        assert!(report.diverged.is_none());
        assert_eq!(report.state_lines.len(), 2);
        assert!(report.ops_shipped >= 3);
    }

    #[test]
    fn partition_crash_and_drop_still_converge_on_the_wire() {
        let plan = FaultPlan {
            drop_pct: 20,
            dup_pct: 0,
            delay_pct: 0,
            max_delay: 0,
            partitions: vec![Partition {
                from_round: 0,
                to_round: 3,
                groups: vec![vec![0], vec![1, 2]],
            }],
            crashes: vec![CrashPoint {
                round: 1,
                replica: 1,
                step: CrashStep::OpsPush,
            }],
        };
        let ops = (0..5)
            .map(|k| ScriptedOp {
                round: k % 2,
                replica: k % 3,
                line: format!("insert R1: A=a{k} B=b{k}"),
            })
            .collect();
        let s = Scenario {
            db: db(),
            replicas: 3,
            seed: 42,
            max_rounds: 48,
            policy: SyncPolicy::default(),
            plan,
            ops,
            transport: crate::scenario::Transport::Wire,
        };
        let (report, _) = s.run(TraceHandle::none(), None).unwrap();
        assert!(report.converged, "{:?}", report.trace);
        assert!(report.diverged.is_none());
        assert_eq!(report.state_lines.len(), 5);
        assert!(report.dropped > 0, "partition must kill connections");
    }
}
