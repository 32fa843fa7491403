//! The anti-entropy wire protocol: two message kinds and a framed
//! byte format for op ranges.
//!
//! * [`Message::Digest`] carries a replica's full [`JournalDigest`];
//!   `want_reply` distinguishes the opening request (the receiver
//!   answers with its own digest) from the reply.
//! * [`Message::OpsPush`] ships one origin's journal suffix as a
//!   *frame*: the ops concatenated in the store's WAL record framing
//!   (`[len][crc32][payload]`, see [`idr_store::wal`]), plus the
//!   sender's chain value at the range's base so the receiver can
//!   verify attachment in O(1).
//!
//! Reusing the WAL framing is what gives in-flight transfers the same
//! crash discipline as the on-disk log: a transfer cut at **any** byte
//! boundary decodes to a complete prefix of its records (the torn tail
//! is discarded), so a replica that crashes mid-receive keeps exactly
//! the ops that made it into its durable journal and re-requests the
//! rest on the next round.

use std::path::Path;

use idr_store::wal::{self, RECORD_HEADER_LEN};

use crate::digest::JournalDigest;
use crate::fault::CrashStep;

/// An anti-entropy protocol message.
#[derive(Clone, Debug)]
pub enum Message {
    /// A digest exchange: the sender's full summary. With `want_reply`
    /// the receiver answers with its own digest (the opening of a sync
    /// round); without, it is the reply closing the exchange.
    Digest {
        /// The sender's per-origin digest vector.
        digest: JournalDigest,
        /// Whether the receiver should answer with its own digest.
        want_reply: bool,
    },
    /// A shipped journal suffix for one origin.
    OpsPush {
        /// The origin whose journal the range extends.
        origin: usize,
        /// The index of the first op in the frame.
        from: u64,
        /// The sender's chain value before op `from` — the receiver
        /// attaches only if its own chain at `from` matches.
        base_chain: u32,
        /// The ops, framed as WAL records.
        frame: Vec<u8>,
    },
}

impl Message {
    /// The protocol step receiving this message is, for traces and crash
    /// scripting.
    pub fn step(&self) -> CrashStep {
        match self {
            Message::Digest {
                want_reply: true, ..
            } => CrashStep::DigestRequest,
            Message::Digest { .. } => CrashStep::DigestReply,
            Message::OpsPush { .. } => CrashStep::OpsPush,
        }
    }

    /// What of this message reaches a replica that crashes receiving it:
    /// an ops push cut at byte `cut(frame length)` (in `0..=len`), whose
    /// complete-record prefix still attaches — the WAL framing's
    /// torn-tail discipline. `None` for a digest, which dies whole.
    pub fn torn(&self, cut: impl FnOnce(usize) -> usize) -> Option<Message> {
        let Message::OpsPush {
            origin,
            from,
            base_chain,
            frame,
        } = self
        else {
            return None;
        };
        Some(Message::OpsPush {
            origin: *origin,
            from: *from,
            base_chain: *base_chain,
            frame: frame[..cut(frame.len())].to_vec(),
        })
    }
}

/// Frames `ops` as concatenated WAL records, ready to ship.
pub fn encode_frame<'a, I: IntoIterator<Item = &'a str>>(ops: I) -> Vec<u8> {
    let mut frame = Vec::new();
    for op in ops {
        frame.extend_from_slice(&wal::encode_record(op));
    }
    frame
}

/// Decodes a frame back into op payloads: the complete-record prefix.
/// A torn tail (a transfer cut mid-record) is tolerated and reported as
/// the second component; a *complete* record with a bad checksum is
/// corruption and surfaces as `Err` with the store's diagnostic.
pub fn decode_frame(frame: &[u8]) -> Result<(Vec<String>, u64), String> {
    let scan =
        wal::scan_bytes(frame, Path::new("<ops-frame>")).map_err(|e| e.to_string())?;
    Ok((scan.records, scan.torn_bytes))
}

/// Counts the records a frame will decode to, without allocating their
/// payloads — used when tracing shipped-op counts at send time.
pub fn frame_record_count(frame: &[u8]) -> usize {
    let mut count = 0;
    let mut at = 0usize;
    while frame.len() - at >= RECORD_HEADER_LEN {
        let len = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
        if frame.len() - at - RECORD_HEADER_LEN < len {
            break;
        }
        at += RECORD_HEADER_LEN + len;
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_and_tolerates_cuts() {
        let ops = ["insert R1: A=a B=b", "delete R1: A=a B=b", "abort"];
        let frame = encode_frame(ops.iter().copied());
        assert_eq!(frame_record_count(&frame), 3);
        let (decoded, torn) = decode_frame(&frame).unwrap();
        assert_eq!(decoded, ops);
        assert_eq!(torn, 0);
        // Every proper prefix decodes to a complete-record prefix.
        for cut in 0..frame.len() {
            let (decoded, _) = decode_frame(&frame[..cut]).unwrap();
            assert!(decoded.len() <= 3);
            assert_eq!(decoded, ops[..decoded.len()], "cut at {cut}");
            assert_eq!(frame_record_count(&frame[..cut]), decoded.len());
        }
    }
}
