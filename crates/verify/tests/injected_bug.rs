//! Fault-injection self-tests: the whole verification subsystem is
//! worthless if it cannot catch a deliberately broken simplifier. Each
//! [`InjectedBug`] variant corrupts the simplifier output behind a
//! test-only config flag; the fuzzer must (a) flag a discrepancy,
//! (b) attribute it to unsoundness (not path divergence — the bug is
//! applied identically on every path), and (c) shrink it to a
//! reproducer of at most 3 AST nodes.

use mba_solver::InjectedBug;
use mba_verify::{DiscrepancyKind, FuzzConfig, Fuzzer};

fn fuzz_with_bug(bug: InjectedBug) -> mba_verify::FuzzReport {
    let mut config = FuzzConfig {
        iterations: 200,
        jobs: 2,
        max_discrepancies: 3,
        ..FuzzConfig::default()
    };
    config.simplify.injected_bug = Some(bug);
    Fuzzer::new(config).run()
}

fn assert_caught_and_shrunk(bug: InjectedBug, max_nodes: usize) {
    let report = fuzz_with_bug(bug);
    assert!(
        !report.discrepancies.is_empty(),
        "{bug:?}: fuzzer failed to catch the injected bug"
    );
    for d in &report.discrepancies {
        assert!(
            matches!(d.kind, DiscrepancyKind::Unsound(_)),
            "{bug:?}: expected an unsoundness verdict, got {}",
            d.kind
        );
        assert!(
            d.shrunk.node_count() <= max_nodes,
            "{bug:?}: reproducer `{}` has {} nodes, expected <= {max_nodes}",
            d.shrunk,
            d.shrunk.node_count()
        );
    }
}

#[test]
fn off_by_one_is_caught_and_shrinks_to_one_node() {
    // `e + 1` is wrong on *every* input, so shrinking bottoms out at a
    // single leaf.
    assert_caught_and_shrunk(InjectedBug::OffByOne, 1);
}

#[test]
fn or_to_xor_is_caught_and_shrinks_to_three_nodes() {
    // Wrong exactly when both operands share a set bit: minimal
    // reproducer is a bare `a | b` (or smaller if the simplifier
    // *introduces* an `|`).
    assert_caught_and_shrunk(InjectedBug::OrToXor, 3);
}

#[test]
fn add_to_or_is_caught_and_shrinks_to_three_nodes() {
    // Wrong exactly when the addition carries: minimal reproducer is a
    // bare `a + b`.
    assert_caught_and_shrunk(InjectedBug::AddToOr, 3);
}

#[test]
fn simba_coeff_flip_is_caught_and_shrinks_to_three_nodes() {
    // Zeroes the first recovered basis coefficient inside the SiMBA
    // linear fast path, *after* the probe verification — exactly the
    // failure mode a broken Möbius transform would produce. Wrong on
    // every linear input with a nonzero coefficient, so shrinking
    // bottoms out at a bare variable.
    assert_caught_and_shrunk(InjectedBug::SimbaCoeffFlip, 3);
}

#[test]
fn arena_stale_id_is_caught_and_shrinks_to_three_nodes() {
    // Swaps a freshly-interned id for its first child's inside the
    // arena-keyed pipeline — the observable effect of an intern table
    // returning an entry a rewrite had invalidated. Wrong on any
    // composite whose value differs from its first child's, so shrinking
    // bottoms out at the smallest composite node (e.g. `a + b` or `~a`).
    assert_caught_and_shrunk(InjectedBug::ArenaStaleId, 3);
}

#[test]
fn bdd_complement_flip_is_caught_and_shrunk() {
    // Flips the complement bit on the ROBDD root between build and
    // extraction — the canonical "forgot to normalize the complement
    // edge" bug, which renders the *negation* of every canonicalized
    // subterm. The tier only fires on pure-bitwise skeletons wider
    // than the truth-table cap, so drive the fuzzer on the
    // wide-bitwise stream exclusively. The corruption needs at least
    // 13 live variables to survive the rounds-loop score guard, so
    // the reproducer cannot shrink below a wide chain.
    let mut config = FuzzConfig {
        iterations: 64,
        jobs: 2,
        max_discrepancies: 3,
        ..FuzzConfig::default()
    };
    config.simplify.injected_bug = Some(InjectedBug::BddComplementFlip);
    config.case.wide_bitwise_fraction = 1.0;
    let report = Fuzzer::new(config).run();
    assert!(
        !report.discrepancies.is_empty(),
        "BddComplementFlip: fuzzer failed to catch the injected bug"
    );
    for d in &report.discrepancies {
        assert!(
            matches!(d.kind, DiscrepancyKind::Unsound(_)),
            "BddComplementFlip: expected an unsoundness verdict, got {}",
            d.kind
        );
        assert!(
            d.shrunk.node_count() <= 64,
            "reproducer `{}` has {} nodes, expected <= 64",
            d.shrunk,
            d.shrunk.node_count()
        );
    }
}

#[test]
fn injected_bug_discrepancies_are_deterministic() {
    let a = fuzz_with_bug(InjectedBug::OffByOne);
    let b = fuzz_with_bug(InjectedBug::OffByOne);
    let key = |r: &mba_verify::FuzzReport| {
        r.discrepancies
            .iter()
            .map(|d| (d.iteration, d.shrunk.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn clean_simplifier_stays_clean_on_the_same_stream() {
    // Control: the identical case stream with no bug injected must be
    // discrepancy-free, so the assertions above measure the bug, not
    // the harness.
    let config = FuzzConfig {
        iterations: 200,
        jobs: 2,
        max_discrepancies: 3,
        ..FuzzConfig::default()
    };
    let report = Fuzzer::new(config).run();
    assert!(
        report.is_clean(),
        "clean control run found: {:?}",
        report.discrepancies
    );
}
