//! A replica: per-origin journals plus a state materialised through the
//! guarded engine.
//!
//! # Convergence model
//!
//! Op order matters here: an insert's verdict depends on the state it
//! meets (a key-violating insert is *rejected*, and replay re-earns
//! that rejection), so two replicas applying the same op **set** in
//! different orders could disagree. Replication therefore fixes a
//! **canonical total order** over ops — sort by `(seq, origin)`, where
//! `seq` is the op's index in its origin journal — and every replica
//! materialises its state as the canonical-order replay of all ops it
//! has. Two replicas with equal journals are then byte-identical in
//! rendered state, verdict, and query answers, which is exactly what
//! the convergence oracle asserts against a never-partitioned baseline.
//!
//! Receiving ops can splice *into* the canonical order (a peer's ops
//! with low `seq` sort before our own later ops), so a replica applies
//! incrementally only when the new order extends what it already
//! applied, and otherwise rebuilds from empty through the normal
//! guarded [`WriteHandle`](idr_core::WriteHandle) path — verdicts are
//! re-earned, never trusted, the same discipline crash recovery uses.
//!
//! A crash wipes the materialised state but not the journals (the
//! durable log); [`Replica::reopen`] rebuilds exactly as a restarted
//! process would.

use std::path::{Path, PathBuf};

use idr_core::{Engine, ReplayError};
use idr_relation::exec::{ExecError, FaultKind, Guard};
use idr_relation::parse::{render_answer_lines, render_state_lines};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable};

use crate::digest::{DigestStatus, JournalDigest};
use crate::journal::{AttachError, Journal};
use crate::proto::{self, Message};

/// An op's position in the canonical total order: `(seq, origin)`,
/// compared lexicographically.
pub type OpId = (u64, usize);

/// What [`Replica::receive`] wants sent back, plus bookkeeping for the
/// round trace.
#[derive(Debug, Default)]
pub struct Outgoing {
    /// Messages to send, in order, as `(destination, message)`.
    pub messages: Vec<(usize, Message)>,
    /// Ops newly appended to journals by this receive.
    pub appended: u64,
    /// Per-origin digest statuses computed while classifying a digest
    /// message, as `(origin, status)` — empty for ops pushes.
    pub statuses: Vec<(usize, DigestStatus)>,
}

/// One replica of the group.
#[derive(Debug)]
pub struct Replica {
    id: usize,
    engine: Engine,
    symbols: SymbolTable,
    state: DatabaseState,
    consistent: bool,
    journals: Vec<Journal>,
    applied: Vec<OpId>,
    diverged: Option<String>,
    rebuilds: u64,
    /// When durable: the directory holding the per-origin journal
    /// segments, plus whether appends fsync.
    durable: Option<(PathBuf, bool)>,
}

impl Replica {
    /// A fresh in-memory replica `id` in a group of `n`, over `db`.
    pub fn new(id: usize, n: usize, db: &DatabaseScheme) -> Replica {
        Replica {
            id,
            engine: Engine::new(db.clone()),
            symbols: SymbolTable::new(),
            state: DatabaseState::empty(db),
            consistent: true,
            journals: (0..n).map(|_| Journal::new()).collect(),
            applied: Vec::new(),
            diverged: None,
            rebuilds: 0,
            durable: None,
        }
    }

    /// Opens a durable replica whose per-origin journals are backed by
    /// WAL-framed segments `origin-K.log` under `dir` (created if
    /// missing). Recovery re-earns the materialised state by
    /// canonical-order replay of the recovered journals — the same
    /// discipline [`Replica::reopen`] exercises in memory. `sync_writes`
    /// selects whether appends fsync before acknowledging.
    pub fn open_durable(
        id: usize,
        n: usize,
        db: &DatabaseScheme,
        dir: &Path,
        sync_writes: bool,
        guard: &Guard,
    ) -> Result<Replica, ExecError> {
        let mut r = Replica::new(id, n, db);
        r.durable = Some((dir.to_path_buf(), sync_writes));
        r.reopen(guard)?;
        Ok(r)
    }

    /// Crash-and-restart: the materialised state is lost, the journals
    /// (the durable log) survive, and the state is rebuilt by
    /// canonical-order replay — re-earning every verdict, exactly as
    /// crash recovery does. A durable replica first reloads its journals
    /// from their segment files, as a restarted process would; an
    /// in-memory one keeps the journals it holds.
    pub fn reopen(&mut self, guard: &Guard) -> Result<(), ExecError> {
        if let Some((dir, sync_writes)) = &self.durable {
            self.journals = (0..self.journals.len())
                .map(|k| {
                    let path = dir.join(format!("origin-{k}.log"));
                    Journal::open_durable(&path, *sync_writes).map(|(j, _torn)| j)
                })
                .collect::<Result<_, _>>()?;
        }
        self.applied.clear();
        self.state = DatabaseState::empty(self.engine.scheme());
        self.consistent = true;
        self.refresh(guard)
    }

    /// This replica's id (also its origin id).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sticky divergence detail, if any chain contradiction or
    /// malformed shipped op has been observed.
    pub fn diverged(&self) -> Option<&str> {
        self.diverged.as_deref()
    }

    /// Full rebuilds performed (vs incremental suffix applications).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The replica's current digest vector.
    pub fn digest(&self) -> JournalDigest {
        JournalDigest {
            origins: self.journals.iter().map(Journal::digest).collect(),
        }
    }

    /// Total ops across all journals this replica holds.
    pub fn ops_held(&self) -> u64 {
        self.journals.iter().map(Journal::len).sum()
    }

    /// Applies one client op (`insert R1: A=a B=b` / `delete …`) at
    /// this replica: appends to its own origin journal, then refreshes
    /// the state. The local application is **provisional** — the op's
    /// final verdict is whatever canonical-order replay decides once
    /// all journals converge.
    pub fn client_op(&mut self, line: &str, guard: &Guard) -> Result<(), ExecError> {
        self.journals[self.id].append(line.to_string())?;
        self.refresh(guard)
    }

    /// Oracle hook: appends an op directly to an arbitrary origin's
    /// journal, as if replication had already delivered it. The
    /// convergence oracle uses this to build its never-partitioned
    /// baseline — one replica holding every op at its true origin, so
    /// canonical-order replay yields the state the group must converge
    /// to.
    pub fn adopt_op(&mut self, origin: usize, line: &str, guard: &Guard) -> Result<(), ExecError> {
        self.journals[origin].append(line.to_string())?;
        self.refresh(guard)
    }

    /// Handles one incoming protocol message, returning what to send
    /// back. Digest handling pushes ranges for every origin we are
    /// ahead on and (for requests) replies with our own digest; ops
    /// pushes attach, then refresh the state if anything was new.
    pub fn receive(
        &mut self,
        from: usize,
        msg: &Message,
        guard: &Guard,
    ) -> Result<Outgoing, ExecError> {
        let mut out = Outgoing::default();
        match msg {
            Message::Digest { digest, want_reply } => {
                for (origin, theirs) in digest.origins.iter().enumerate() {
                    if origin >= self.journals.len() {
                        self.mark_diverged(format!(
                            "peer {from} digests unknown origin {origin}"
                        ));
                        continue;
                    }
                    let status = self.journals[origin].classify(*theirs);
                    out.statuses.push((origin, status));
                    match status {
                        DigestStatus::Ahead => {
                            let j = &self.journals[origin];
                            out.messages.push((
                                from,
                                Message::OpsPush {
                                    origin,
                                    from: theirs.len,
                                    base_chain: theirs.chain,
                                    frame: proto::encode_frame(
                                        j.ops_from(theirs.len).iter().map(String::as_str),
                                    ),
                                },
                            ));
                        }
                        DigestStatus::Diverged => {
                            self.mark_diverged(format!(
                                "origin {origin}: peer {from} digest contradicts ours"
                            ));
                        }
                        DigestStatus::InSync | DigestStatus::Behind => {}
                    }
                }
                if *want_reply {
                    out.messages.push((
                        from,
                        Message::Digest {
                            digest: self.digest(),
                            want_reply: false,
                        },
                    ));
                }
            }
            Message::OpsPush {
                origin,
                from: range_from,
                base_chain,
                frame,
            } => {
                out.appended = self.attach_frame(*origin, *range_from, *base_chain, frame)?;
                if out.appended > 0 {
                    self.refresh(guard)?;
                }
            }
        }
        Ok(out)
    }

    /// Attaches a shipped frame to the `origin` journal, returning how
    /// many ops were appended. Gaps are tolerated (a later round
    /// re-ships); chain contradictions and undecodable frames mark the
    /// replica diverged; a durable-backing write failure is a storage
    /// fault and propagates as an error.
    fn attach_frame(
        &mut self,
        origin: usize,
        from: u64,
        base_chain: u32,
        frame: &[u8],
    ) -> Result<u64, ExecError> {
        if origin >= self.journals.len() {
            self.mark_diverged(format!("ops push for unknown origin {origin}"));
            return Ok(0);
        }
        let records = match proto::decode_frame(frame) {
            Ok((records, _torn)) => records,
            Err(detail) => {
                self.mark_diverged(format!("origin {origin}: bad frame: {detail}"));
                return Ok(0);
            }
        };
        match self.journals[origin].attach(from, base_chain, &records) {
            Ok(n) => Ok(n),
            Err(AttachError::Gap { .. }) => Ok(0),
            Err(e @ AttachError::Diverged { .. }) => {
                self.mark_diverged(format!("origin {origin}: {e}"));
                Ok(0)
            }
            Err(AttachError::Storage { detail }) => Err(ExecError::Faulted {
                kind: FaultKind::Permanent,
                operation: format!("journal attach (origin {origin}): {detail}"),
                attempts: 1,
            }),
        }
    }

    /// The canonical total order over every op this replica holds.
    fn canonical_order(&self) -> Vec<OpId> {
        let mut order: Vec<OpId> = Vec::with_capacity(self.ops_held() as usize);
        for (origin, j) in self.journals.iter().enumerate() {
            order.extend((0..j.len()).map(|seq| (seq, origin)));
        }
        order.sort_unstable();
        order
    }

    /// Re-materialises the state to match the journals: incremental
    /// suffix application when the new canonical order extends what is
    /// already applied, full rebuild from empty otherwise.
    fn refresh(&mut self, guard: &Guard) -> Result<(), ExecError> {
        let order = self.canonical_order();
        let extends = order.len() >= self.applied.len() && order[..self.applied.len()] == self.applied[..];
        let (base, todo_from) = if extends {
            (self.state.clone(), self.applied.len())
        } else {
            self.rebuilds += 1;
            (DatabaseState::empty(self.engine.scheme()), 0)
        };
        let hub = self.engine.hub(&base, guard)?;
        // The hub shares the base state's chunks; this handle is spare.
        drop(base);
        let lines = order[todo_from..]
            .iter()
            .map(|&(seq, origin)| self.journals[origin].op(seq));
        let diverged = &mut self.diverged;
        hub.write_handle().replay(lines, &mut self.symbols, guard, |_, r| match r {
            Ok(_) => Ok(()),
            Err(ReplayError::Malformed { line, detail }) => {
                // A malformed journal entry means the peers disagree
                // on the op format — divergence, not a crash.
                if diverged.is_none() {
                    *diverged = Some(format!("malformed journal op {line:?}: {detail}"));
                }
                Ok(())
            }
            Err(ReplayError::Exec(e)) => Err(e),
        })?;
        let view = hub.read_view();
        self.state = view.state().clone();
        self.consistent = view.is_consistent();
        self.applied = order;
        Ok(())
    }

    fn mark_diverged(&mut self, detail: String) {
        if self.diverged.is_none() {
            self.diverged = Some(detail);
        }
    }

    /// The replica's consistency verdict, re-earned by replay.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// The materialised state, rendered as sorted fixture lines — the
    /// cross-replica fingerprint (each replica interns values in its
    /// own order, so raw `Value` comparison would be meaningless).
    pub fn state_lines(&self) -> Vec<String> {
        render_state_lines(self.engine.scheme(), &self.state, &self.symbols)
    }

    /// Answers a total-projection probe over the current state,
    /// rendered as sorted `attr=value` lines (`None` when the state is
    /// inconsistent and the query has no defined answer).
    pub fn answer(&self, probe: AttrSet, guard: &Guard) -> Result<Option<Vec<String>>, ExecError> {
        let hub = self.engine.hub(&self.state, guard)?;
        Ok(hub
            .read_view()
            .total_projection(probe, guard)?
            .map(|tuples| render_answer_lines(self.engine.scheme(), &tuples, &self.symbols)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::parse::parse_scheme;

    fn db() -> DatabaseScheme {
        parse_scheme("universe: A B C\nscheme R1: A B keys A\nscheme R2: B C keys B\n").unwrap()
    }

    /// Runs one full anti-entropy exchange a→b (request, reply, pushes)
    /// with a perfect network.
    fn exchange(a: &mut Replica, b: &mut Replica, guard: &Guard) {
        let req = Message::Digest {
            digest: a.digest(),
            want_reply: true,
        };
        let out_b = b.receive(a.id(), &req, guard).unwrap();
        for (dst, msg) in out_b.messages {
            assert_eq!(dst, a.id());
            let out_a = a.receive(b.id(), &msg, guard).unwrap();
            for (dst2, msg2) in out_a.messages {
                assert_eq!(dst2, b.id());
                let out = b.receive(a.id(), &msg2, guard).unwrap();
                assert!(out.messages.is_empty());
            }
        }
    }

    #[test]
    fn two_replicas_converge_bytewise_after_exchange() {
        let db = db();
        let guard = Guard::unlimited();
        let mut a = Replica::new(0, 2, &db);
        let mut b = Replica::new(1, 2, &db);
        a.client_op("insert R1: A=a B=b", &guard).unwrap();
        b.client_op("insert R2: B=b C=c", &guard).unwrap();
        // A key-violating insert at b: journalled, rejected on replay.
        b.client_op("insert R2: B=b C=zzz", &guard).unwrap();
        assert_ne!(a.digest(), b.digest());

        exchange(&mut a, &mut b, &guard);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.state_lines(), b.state_lines());
        assert_eq!(a.is_consistent(), b.is_consistent());
        assert!(a.diverged().is_none() && b.diverged().is_none());
        // The rejected insert converged to *rejected* on both sides.
        assert_eq!(a.state_lines().len(), 2);
    }

    #[test]
    fn crash_rebuilds_identical_state_from_journals() {
        let db = db();
        let guard = Guard::unlimited();
        let mut a = Replica::new(0, 2, &db);
        let mut b = Replica::new(1, 2, &db);
        for i in 0..4 {
            a.client_op(&format!("insert R1: A=a{i} B=b{i}"), &guard).unwrap();
            b.client_op(&format!("insert R2: B=b{i} C=c{i}"), &guard).unwrap();
        }
        exchange(&mut a, &mut b, &guard);
        let before = a.state_lines();
        a.reopen(&guard).unwrap();
        assert_eq!(a.state_lines(), before);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn interleaved_origins_rebuild_to_canonical_order() {
        let db = db();
        let guard = Guard::unlimited();
        let mut a = Replica::new(0, 2, &db);
        let mut b = Replica::new(1, 2, &db);
        // Conflicting writes to the same key at both origins: canonical
        // order (seq, origin) decides the winner identically everywhere.
        a.client_op("insert R1: A=k B=from_a", &guard).unwrap();
        b.client_op("insert R1: A=k B=from_b", &guard).unwrap();
        exchange(&mut a, &mut b, &guard);
        assert_eq!(a.state_lines(), b.state_lines());
        // (0, origin 0) sorts first, so origin 0's tuple won and the
        // other re-rejected on both replicas.
        assert_eq!(a.state_lines(), vec!["R1: A=k B=from_a".to_string()]);
        assert!(b.rebuilds() >= 1, "b spliced an earlier op and must rebuild");
    }

    #[test]
    fn durable_replica_recovers_state_and_digest_across_reopen() {
        let db = db();
        let guard = Guard::unlimited();
        let dir = idr_store::TempDir::new("replica-durable");
        let mut mem = Replica::new(1, 2, &db);
        mem.client_op("insert R2: B=b C=c", &guard).unwrap();

        let (digest, lines) = {
            let mut a = Replica::open_durable(0, 2, &db, dir.path(), false, &guard).unwrap();
            a.client_op("insert R1: A=a B=b", &guard).unwrap();
            // Receive a push from the in-memory peer so a non-own
            // origin journal also hits disk.
            let req = Message::Digest {
                digest: a.digest(),
                want_reply: true,
            };
            let out = mem.receive(0, &req, &guard).unwrap();
            for (_, msg) in out.messages {
                a.receive(1, &msg, &guard).unwrap();
            }
            assert_eq!(a.ops_held(), 2);
            (a.digest(), a.state_lines())
        };
        // A brand-new process over the same dir recovers everything.
        let b = Replica::open_durable(0, 2, &db, dir.path(), false, &guard).unwrap();
        assert_eq!(b.digest(), digest);
        assert_eq!(b.state_lines(), lines);
        assert!(b.is_consistent());
    }
}
