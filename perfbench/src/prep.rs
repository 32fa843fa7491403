//! Data dirs, prepared once per run through public store calls and
//! copied fresh for every server start.
//!
//! Snapshots are cut with [`Store::snapshot`] rather than by serving
//! framed groups under `--snapshot-every`: framed groups never advance
//! the snapshot epoch, so that route would leave everything in the WAL.

use std::path::Path;

use independence_reducible::relation::parse::parse_tuple_line;
use independence_reducible::relation::DatabaseState;
use independence_reducible::store::{snapshot, JournalFile, Store, WalWriter};

use crate::gen::{self, Scheme};

/// Builds the data dirs of `workload` for `seed` in `dir`, replacing
/// whatever was there.
pub fn prepare(dir: &Path, workload: &str, seed: u64, s: &Scheme) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match workload {
        "ingest" => store_dir(&dir.join("data"), s, &gen::ingest(seed).snapshot, &[])?,
        "mixed" => {
            let m = gen::mixed(s, seed);
            store_dir(&dir.join("data"), s, &m.snapshot, &m.tail)?
        }
        "replicate" => {
            let r = gen::replicate(seed);
            Store::init(&dir.join("a"), &s.db).map_err(|e| e.to_string())?;
            Store::init(&dir.join("b"), &s.db).map_err(|e| e.to_string())?;
            let lines: Vec<String> = r
                .journal
                .iter()
                .map(|&(e, r)| format!("insert {}", s.fragment(e, r)))
                .collect();
            let mut j = JournalFile::open(&dir.join("a/sync/origin-0.log"), true)
                .map_err(|e| e.to_string())?
                .file;
            j.append_batch(lines.iter().map(String::as_str))
                .map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}

/// An initialised store whose epoch-1 snapshot holds `snap` and whose
/// WAL holds one insert record per `tail` fragment.
fn store_dir(dir: &Path, s: &Scheme, snap: &[(u32, u8)], tail: &[(u32, u8)]) -> Result<(), String> {
    let mut store = Store::init(dir, &s.db).map_err(|e| e.to_string())?;
    let mut state = DatabaseState::empty(&s.db);
    {
        let symbols = store.symbols();
        let mut sym = symbols.lock().expect("fresh symbol table");
        for &(e, r) in snap {
            let (rel, t) = parse_tuple_line(&s.fragment(e, r), &s.db, &mut sym)?;
            state.insert(rel, t).map_err(|e| e.to_string())?;
        }
    }
    store.snapshot(&state).map_err(|e| e.to_string())?;
    let epoch = store.epoch();
    drop(store);
    if !tail.is_empty() {
        let mut w = WalWriter::open_at(&snapshot::wal_path(dir, epoch), 0, true)
            .map_err(|e| e.to_string())?;
        for &(e, r) in tail {
            w.append_unsynced(&format!("insert {}", s.fragment(e, r)))
                .map_err(|e| e.to_string())?;
        }
        w.sync_now().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Copies the tree at `from` to `to` (regular files and dirs only).
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}
