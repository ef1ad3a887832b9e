//! Golden-file snapshot tests for the `mba_simplify` CLI.
//!
//! `tests/golden/inputs.txt` holds ten fixed expressions spanning the
//! linear / polynomial / non-polynomial categories;
//! `expected.txt` and `expected_verbose.txt` pin the exact bytes the
//! CLI must print for them. Any intentional output change should
//! regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mba-solver --test golden_simplify
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_cli(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mba_simplify"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary finishes");
    assert!(out.status.success(), "mba_simplify {args:?} failed");
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn check_snapshot(args: &[&str], snapshot: &str) {
    let dir = golden_dir();
    let inputs = std::fs::read_to_string(dir.join("inputs.txt")).expect("inputs.txt");
    assert_eq!(
        inputs.lines().filter(|l| !l.trim().is_empty()).count(),
        10,
        "the golden corpus is pinned at ten expressions"
    );
    let got = run_cli(args, &inputs);
    let path = dir.join(snapshot);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("update snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "`mba_simplify {}` drifted from {} — if intentional, \
         regenerate with UPDATE_GOLDEN=1",
        args.join(" "),
        path.display()
    );
}

#[test]
fn golden_plain_output() {
    check_snapshot(&[], "expected.txt");
}

#[test]
fn golden_verbose_output() {
    check_snapshot(&["--verbose"], "expected_verbose.txt");
}

#[test]
fn golden_output_is_stable_under_jobs_and_no_cache() {
    // The snapshots also pin the batch and cache-off paths: every flag
    // combination must reproduce the same bytes as the plain run.
    check_snapshot(&["--jobs", "4"], "expected.txt");
    check_snapshot(&["--no-cache"], "expected.txt");
    check_snapshot(&["--jobs", "2", "--no-cache"], "expected.txt");
    check_snapshot(&["--verbose", "--jobs", "4"], "expected_verbose.txt");
}
