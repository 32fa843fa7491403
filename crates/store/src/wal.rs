//! The append-only write-ahead log.
//!
//! A WAL file is a sequence of length-prefixed, checksummed records:
//!
//! ```text
//! [payload length: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! Payloads are single text lines in the CLI's fixture syntax
//! (`insert R1: A=a B=b`, `delete R2: C=c D=d`), so a WAL is
//! inspectable with nothing but `strings`. The framing makes two failure
//! shapes distinguishable when scanning:
//!
//! * the file ends before a record completes → a **torn tail**, the
//!   expected aftermath of a crash mid-append; the scan reports the
//!   valid prefix length and recovery truncates to it;
//! * a complete record whose checksum mismatches → **corruption**,
//!   reported as a typed [`StoreError::Corrupt`] and never repaired
//!   silently.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::error::StoreError;

/// Upper bound on one record's payload. Real records are one state line
/// (tens of bytes); a length field beyond this is corruption, not a
/// plausible record, and the scanner says so instead of allocating it.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing preceding every payload (length + checksum).
pub const RECORD_HEADER_LEN: usize = 8;

/// Frames `payload` as one record (header + bytes), ready to append.
pub fn encode_record(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Folds one record payload into a rolling chain value: the CRC32 of the
/// previous chain's little-endian bytes followed by the payload. Chained
/// folding commits each value to the entire payload prefix, which is what
/// lets anti-entropy verify a range extension with one `u32` compare.
pub fn fold_chain(chain: u32, payload: &str) -> u32 {
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&chain.to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    crc32(&bytes)
}

/// The chain value of a whole payload sequence, folded from `seed`.
pub fn chain_of<'a, I: IntoIterator<Item = &'a str>>(seed: u32, payloads: I) -> u32 {
    payloads.into_iter().fold(seed, fold_chain)
}

/// The result of scanning a WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// The decoded payloads of every complete, checksum-valid record, in
    /// append order.
    pub records: Vec<String>,
    /// Length of the valid prefix: the scan position after the last
    /// complete record.
    pub valid_len: u64,
    /// Bytes past the valid prefix that do not form a complete record —
    /// nonzero exactly when the file has a torn tail.
    pub torn_bytes: u64,
}

/// Scans `bytes` (the contents of a WAL file at `path`; `path` is used
/// only for error context). Complete records with bad checksums are
/// corruption errors; an incomplete final record is reported as a torn
/// tail, not an error.
pub fn scan_bytes(bytes: &[u8], path: &Path) -> Result<WalScan, StoreError> {
    let mut scan = WalScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_LEN {
            scan.torn_bytes = remaining as u64;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"),
            });
        }
        let total = RECORD_HEADER_LEN + len as usize;
        if remaining < total {
            scan.torn_bytes = remaining as u64;
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + total];
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                detail: format!("stored crc {stored_crc:#010x} != computed {computed:#010x}"),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|e| StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: pos as u64,
            detail: format!("payload is not utf-8 despite a valid checksum: {e}"),
        })?;
        scan.records.push(text.to_string());
        pos += total;
        scan.valid_len = pos as u64;
    }
    Ok(scan)
}

/// Reads and scans the WAL file at `path`. A missing file scans as
/// empty (a fresh epoch whose first append never happened).
pub fn scan_file(path: &Path) -> Result<WalScan, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(StoreError::io("read wal", path, e)),
    };
    scan_bytes(&bytes, path)
}

/// An open WAL file positioned for appends.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// fsync after every append (write-ahead commit point). Disabled
    /// only by tests that simulate crashes in-process.
    sync: bool,
}

impl WalWriter {
    /// Creates a new, empty WAL file (truncating any previous one).
    pub fn create(path: &Path, sync: bool) -> Result<Self, StoreError> {
        let file = File::create(path).map_err(|e| StoreError::io("create wal", path, e))?;
        if sync {
            file.sync_all().map_err(|e| StoreError::io("sync new wal", path, e))?;
        }
        Ok(WalWriter { file, path: path.to_path_buf(), sync })
    }

    /// Opens an existing WAL for appends after recovery, truncating the
    /// torn tail (if any) at `valid_len` first. A missing file is
    /// created empty.
    pub fn open_at(path: &Path, valid_len: u64, sync: bool) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io("open wal", path, e))?;
        file.set_len(valid_len)
            .map_err(|e| StoreError::io("truncate torn wal tail", path, e))?;
        let mut w = WalWriter { file, path: path.to_path_buf(), sync };
        if sync {
            w.file
                .sync_all()
                .map_err(|e| StoreError::io("sync truncated wal", path, e))?;
        }
        use std::io::Seek;
        w.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek wal end", path, e))?;
        Ok(w)
    }

    /// Appends one record and (when `sync`) fsyncs — the commit point
    /// the engine relies on before mutating memory. Returns the framed
    /// record's size in bytes.
    pub fn append(&mut self, payload: &str) -> Result<usize, StoreError> {
        let bytes = self.append_unsynced(payload)?;
        self.sync_now()?;
        Ok(bytes)
    }

    /// Appends one record *without* syncing — the group-commit building
    /// block: a leader appends a whole batch unsynced, then pays one
    /// [`sync_now`](WalWriter::sync_now) for all of it. Returns the
    /// framed record's size in bytes.
    pub fn append_unsynced(&mut self, payload: &str) -> Result<usize, StoreError> {
        let record = encode_record(payload);
        self.file
            .write_all(&record)
            .map_err(|e| StoreError::io("append wal record", &self.path, e))?;
        Ok(record.len())
    }

    /// Makes every append so far durable (when the sync policy is on;
    /// a no-op otherwise). Returns how long the fsync syscall took —
    /// measured here, at the syscall, so the group-commit layer can
    /// histogram raw device latency — or `None` when the sync policy is
    /// off and no fsync was issued.
    pub fn sync_now(&mut self) -> Result<Option<std::time::Duration>, StoreError> {
        if !self.sync {
            return Ok(None);
        }
        let t0 = std::time::Instant::now();
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync wal append", &self.path, e))?;
        Ok(Some(t0.elapsed()))
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Changes the fsync-per-append policy (see [`Store::with_sync`]).
    ///
    /// [`Store::with_sync`]: crate::Store::with_sync
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Re-reads the file and returns its current byte length.
    pub fn len(&self) -> Result<u64, StoreError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| StoreError::io("stat wal", &self.path, e))
    }

    /// Whether no record has been appended yet.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
}

/// Reads a whole file, mapping I/O failures to [`StoreError::Io`].
pub fn read_file(path: &Path, what: &str) -> Result<String, StoreError> {
    let mut s = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut s))
        .map_err(|e| StoreError::io(what, path, e))?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn append_then_scan_round_trips() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal-0.log");
        let mut w = WalWriter::create(&path, true).unwrap();
        for payload in ["insert R1: A=a B=b", "abort", "delete R1: A=a B=b"] {
            w.append(payload).unwrap();
        }
        let scan = scan_file(&path).unwrap();
        assert_eq!(
            scan.records,
            vec!["insert R1: A=a B=b", "abort", "delete R1: A=a B=b"]
        );
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_len, w.len().unwrap());
    }

    #[test]
    fn every_truncation_is_a_clean_prefix_or_a_torn_tail() {
        let payloads = ["insert R1: A=a B=b", "delete R2: C=c D=d", "abort"];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        for p in payloads {
            bytes.extend_from_slice(&encode_record(p));
            boundaries.push(bytes.len() as u64);
        }
        let path = Path::new("synthetic.log");
        for cut in 0..=bytes.len() {
            let scan = scan_bytes(&bytes[..cut], path).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(scan.records.len(), complete, "cut {cut}");
            assert_eq!(scan.valid_len, boundaries[complete], "cut {cut}");
            assert_eq!(scan.torn_bytes, cut as u64 - boundaries[complete], "cut {cut}");
            assert_eq!(
                scan.records,
                payloads[..complete].to_vec(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_payload_is_a_typed_error_not_a_torn_tail() {
        let mut bytes = encode_record("insert R1: A=a B=b");
        let flip = RECORD_HEADER_LEN + 3;
        bytes[flip] ^= 0x40;
        let err = scan_bytes(&bytes, Path::new("bad.log")).unwrap_err();
        match err {
            StoreError::Corrupt { offset, detail, .. } => {
                assert_eq!(offset, 0);
                assert!(detail.contains("crc"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_field_is_corruption() {
        let mut bytes = encode_record("x");
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = scan_bytes(&bytes, Path::new("bad.log")).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn open_at_truncates_the_torn_tail() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal-0.log");
        let mut w = WalWriter::create(&path, false).unwrap();
        w.append("insert R1: A=a B=b").unwrap();
        let valid = w.len().unwrap();
        drop(w);
        // Simulate a crash mid-append: half a record after the valid one.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = encode_record("delete R1: A=a B=b");
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
        let mut w = WalWriter::open_at(&path, scan.valid_len, false).unwrap();
        assert_eq!(w.len().unwrap(), valid);
        w.append("abort").unwrap();
        let rescan = scan_file(&path).unwrap();
        assert_eq!(rescan.records, vec!["insert R1: A=a B=b", "abort"]);
        assert_eq!(rescan.torn_bytes, 0);
    }
}
