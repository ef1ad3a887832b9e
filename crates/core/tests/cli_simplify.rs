//! Integration tests for the `mba_simplify` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mba_simplify"))
}

#[test]
fn simplifies_arguments() {
    let out = bin()
        .arg("2*(x|y) - (~x&y) - (x&~y)")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "x+y");
}

#[test]
fn verbose_reports_category_and_alternation() {
    let out = bin()
        .arg("--verbose")
        .arg("(x&~y)*(~x&y) + (x&y)*(x|y)")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("x*y"), "got: {text}");
    assert!(text.contains("[poly, alternation 2 -> 0"), "got: {text}");
    assert!(text.contains("tier poly]"), "got: {text}");
}

#[test]
fn reads_stdin_line_per_expression() {
    let mut child = bin()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"x + y - 2*(x&y)\n~(x - 1)\n")
        .expect("write");
    let out = child.wait_with_output().expect("binary finishes");
    assert!(out.status.success());
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("utf8")
        .lines()
        .collect();
    assert_eq!(lines, ["x^y", "-x"]);
}

#[test]
fn parse_errors_exit_nonzero_but_process_the_rest() {
    let out = bin()
        .arg("((broken")
        .arg("x + 0")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "x");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

#[test]
fn line_sized_deep_inputs_are_parse_errors_not_aborts() {
    // 60 KB lines, each far past the parser's depth budget: nested
    // parentheses, a left-associative product chain and a unary chain.
    for probe in [
        format!("{}x{}", "(".repeat(30_000), ")".repeat(30_000)),
        format!("x{}", "*x".repeat(30_000)),
        format!("{}x", "-~".repeat(30_000)),
    ] {
        let mut child = bin()
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stdin = child.stdin.take().expect("stdin piped");
        stdin.write_all(probe.as_bytes()).expect("write");
        stdin.write_all(b"\nx + 0\n").expect("write");
        drop(stdin);
        let out = child.wait_with_output().expect("binary finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A stack overflow kills the process by signal: no exit code.
        assert_eq!(out.status.code(), Some(1), "`{}…`: {stderr}", &probe[..8]);
        assert!(stderr.contains("deeper than 256 levels"), "{stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "x");
    }
}

#[test]
fn help_flag_succeeds() {
    let out = bin().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stderr);
    assert!(help.contains("usage"));
    assert!(help.contains("--jobs"), "help must document --jobs: {help}");
    assert!(
        help.contains("--no-cache"),
        "help must document --no-cache: {help}"
    );
}

#[test]
fn jobs_and_no_cache_flags_do_not_change_output() {
    let exprs = [
        "2*(x|y) - (~x&y) - (x&~y)",
        "x + y - 2*(x&y)",
        "~(x - 1)",
        "(x*y | z) + (x*y & z)",
    ];
    let baseline = bin().args(exprs).output().expect("binary runs");
    assert!(baseline.status.success());
    for extra in [&["--jobs", "3"][..], &["--no-cache"][..]] {
        let out = bin().args(extra).args(exprs).output().expect("binary runs");
        assert!(out.status.success(), "{extra:?} failed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&baseline.stdout),
            "output drifted under {extra:?}"
        );
    }
}

#[test]
fn jobs_rejects_non_positive_values() {
    for bad in [&["--jobs", "0"][..], &["--jobs", "abc"][..], &["--jobs"][..]] {
        let out = bin().args(bad).arg("x").output().expect("binary runs");
        assert!(!out.status.success(), "{bad:?} must be rejected");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
    }
}
