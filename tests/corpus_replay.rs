//! Replays every fixture under `tests/corpus/` through the differential
//! oracle's four-way lockstep interpreter.
//!
//! Each fixture is a shrunken reproduction of a bug that once lived in
//! the engine (see the comment at the top of each file); replaying them
//! here pins the fixes forever. Reverting a fix makes exactly its
//! fixture fail again with the divergence kind named in the file.

use independence_reducible::oracle::{run_case_guarded, Case};

#[test]
fn every_corpus_fixture_replays_cleanly() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 3,
        "expected at least the three bugfix fixtures, found {}",
        paths.len()
    );
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let case = Case::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match run_case_guarded(&case, None) {
            Ok(report) => assert!(
                report.ops_run == case.ops.len(),
                "{}: ran {} of {} ops",
                path.display(),
                report.ops_run,
                case.ops.len()
            ),
            Err(d) => panic!("{}: oracles diverge: {d}", path.display()),
        }
    }
}
