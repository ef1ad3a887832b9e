//! Deterministic fuzz-case generation.
//!
//! Two complementary sources feed the fuzzer:
//!
//! * **Structural random ASTs** ([`mba_gen::random_expr`]) — arbitrary
//!   trees over the full MBA grammar with no known ground truth. These
//!   exercise the simplifier on inputs *outside* the obfuscators'
//!   image, where normalization bugs hide.
//! * **Obfuscator cases** ([`mba_gen::Obfuscator`]) — a small ground
//!   truth is obfuscated into the linear / polynomial / non-polynomial
//!   categories. These exercise exactly the paper's workload, and the
//!   known ground truth gives the harness a free extra oracle: the
//!   simplified output must also agree with the target.
//! * **Wide-bitwise cases** — a pure-bitwise chain over 13–16
//!   variables, inflated with semantics-preserving redundancy
//!   (idempotence, absorption, double negation). These sit past the
//!   truth-table tiers' variable cap, so they are the only stream
//!   traffic that reaches the BDD canonicalization tier and the BDD
//!   equivalence-oracle tier; structural random ASTs at default
//!   settings essentially never do.
//!
//! Every case is a pure function of `(seed, index)` — the worker that
//! happens to pick up iteration `i` has no influence on what case `i`
//! is, so `--jobs` never changes the case stream.

use mba_expr::Expr;
use mba_gen::{random_expr, ObfuscationKind, Obfuscator, RandomExprConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a fuzz case was constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseKind {
    /// Structural random AST, no ground truth.
    RandomAst,
    /// Linear MBA obfuscation of a known target.
    Linear,
    /// Semi-linear MBA obfuscation (constants in the bitwise layer) of
    /// a known target.
    SemiLinear,
    /// Polynomial MBA obfuscation of a known target.
    Polynomial,
    /// Non-polynomial MBA obfuscation of a known target.
    NonPolynomial,
    /// Residual obfuscation of a known target: parity opaque zeros the
    /// algebraic pipeline cannot cancel, so outputs stay non-linear.
    Residual,
    /// Redundancy-inflated pure-bitwise chain over 13–16 variables,
    /// past the truth-table caps: exercises the BDD tiers.
    WideBitwise,
}

impl std::fmt::Display for CaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CaseKind::RandomAst => "random-ast",
            CaseKind::Linear => "linear",
            CaseKind::SemiLinear => "semi-linear",
            CaseKind::Polynomial => "poly",
            CaseKind::NonPolynomial => "non-poly",
            CaseKind::Residual => "residual",
            CaseKind::WideBitwise => "wide-bitwise",
        })
    }
}

/// Tuning knobs for case generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Structural random-AST generator settings.
    pub random: RandomExprConfig,
    /// Fraction of cases built by the obfuscator instead of the
    /// structural generator (obfuscator kinds rotate evenly).
    pub obfuscated_fraction: f64,
    /// Maximum depth of obfuscation ground truths (kept small so the
    /// obfuscated result stays within oracle reach).
    pub target_depth: usize,
    /// Fraction of cases built as wide (13–16 variable) redundant
    /// pure-bitwise chains, the only stream traffic past the
    /// truth-table tiers' variable cap.
    pub wide_bitwise_fraction: f64,
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            random: RandomExprConfig::default(),
            obfuscated_fraction: 0.4,
            target_depth: 2,
            wide_bitwise_fraction: 0.05,
        }
    }
}

/// One generated fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Iteration index the case belongs to.
    pub index: u64,
    /// Construction category.
    pub kind: CaseKind,
    /// The expression under test.
    pub expr: Expr,
    /// Ground truth (obfuscator cases only): `expr ≡ target` holds by
    /// construction, so the simplified output must match it too.
    pub target: Option<Expr>,
}

/// Splits `(seed, index)` into an independent per-case RNG stream.
///
/// A plain `seed + index` would make adjacent seeds share most of
/// their case streams; the 64-bit finalizer decorrelates them.
pub fn case_rng(seed: u64, index: u64) -> StdRng {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Builds a wide-bitwise case: a pure-bitwise chain over `t ∈ 13..=16`
/// variables *in variable order* (so its BDD stays a bounded-width
/// band regardless of `t`), optionally complemented, then inflated
/// with semantics-preserving redundancy. The pre-inflation chain is
/// the ground truth.
fn wide_bitwise_case(rng: &mut StdRng) -> (Expr, Expr) {
    use mba_expr::{BinOp, UnOp};
    let t = rng.gen_range(13..=16usize);
    let names: Vec<String> = (0..t).map(|i| ((b'a' + i as u8) as char).to_string()).collect();
    let mut base = Expr::var(names[0].as_str());
    for name in &names[1..] {
        let op = match rng.gen_range(0..3) {
            0 => BinOp::And,
            1 => BinOp::Or,
            _ => BinOp::Xor,
        };
        base = Expr::binary(op, base, Expr::var(name.as_str()));
    }
    if rng.gen_bool(0.5) {
        base = Expr::unary(UnOp::Not, base);
    }
    let target = base.clone();
    let mut e = base;
    for _ in 0..rng.gen_range(2..=4) {
        if e.node_count() > 96 {
            break;
        }
        e = match rng.gen_range(0..5) {
            0 => Expr::binary(BinOp::And, e.clone(), e),
            1 => Expr::binary(BinOp::Or, e.clone(), e),
            2 => Expr::unary(UnOp::Not, Expr::unary(UnOp::Not, e)),
            3 => {
                let v = Expr::var(names[rng.gen_range(0..t)].as_str());
                Expr::binary(BinOp::Or, e.clone(), Expr::binary(BinOp::And, e, v))
            }
            _ => {
                let v = Expr::var(names[rng.gen_range(0..t)].as_str());
                Expr::binary(BinOp::And, e.clone(), Expr::binary(BinOp::Or, e, v))
            }
        };
    }
    (e, target)
}

/// Generates case `index` of the stream rooted at `seed`.
pub fn generate_case(seed: u64, index: u64, config: &CaseConfig) -> FuzzCase {
    let mut rng = case_rng(seed, index);
    if rng.gen_bool(config.wide_bitwise_fraction.clamp(0.0, 1.0)) {
        let (expr, target) = wide_bitwise_case(&mut rng);
        return FuzzCase {
            index,
            kind: CaseKind::WideBitwise,
            expr,
            target: Some(target),
        };
    }
    if rng.gen_bool(config.obfuscated_fraction.clamp(0.0, 1.0)) {
        let kind = match index % 5 {
            0 => ObfuscationKind::Linear,
            1 => ObfuscationKind::SemiLinear,
            2 => ObfuscationKind::Polynomial,
            3 => ObfuscationKind::NonPolynomial,
            _ => ObfuscationKind::Residual,
        };
        let target_config = RandomExprConfig {
            max_depth: config.target_depth,
            ..config.random.clone()
        };
        let target = random_expr(&mut rng, &target_config);
        let expr = Obfuscator::new().obfuscate(&target, kind, &mut rng);
        FuzzCase {
            index,
            kind: match kind {
                ObfuscationKind::Linear => CaseKind::Linear,
                ObfuscationKind::SemiLinear => CaseKind::SemiLinear,
                ObfuscationKind::Polynomial => CaseKind::Polynomial,
                ObfuscationKind::NonPolynomial => CaseKind::NonPolynomial,
                ObfuscationKind::Residual => CaseKind::Residual,
            },
            expr,
            target: Some(target),
        }
    } else {
        FuzzCase {
            index,
            kind: CaseKind::RandomAst,
            expr: random_expr(&mut rng, &config.random),
            target: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    #[test]
    fn cases_are_deterministic_in_seed_and_index() {
        let config = CaseConfig::default();
        for i in 0..32 {
            let a = generate_case(42, i, &config);
            let b = generate_case(42, i, &config);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_indices_give_different_cases() {
        let config = CaseConfig::default();
        let distinct: std::collections::BTreeSet<String> = (0..64)
            .map(|i| generate_case(7, i, &config).expr.to_string())
            .collect();
        assert!(distinct.len() > 48, "case stream should not repeat");
    }

    #[test]
    fn adjacent_seeds_do_not_share_streams() {
        let config = CaseConfig::default();
        let same = (0..64)
            .filter(|&i| {
                generate_case(1, i, &config).expr == generate_case(2, i, &config).expr
            })
            .count();
        assert!(same < 8, "seeds 1 and 2 share {same}/64 cases");
    }

    #[test]
    fn obfuscated_cases_carry_a_faithful_ground_truth() {
        let config = CaseConfig {
            obfuscated_fraction: 1.0,
            wide_bitwise_fraction: 0.0,
            ..CaseConfig::default()
        };
        let mut seen_kinds = std::collections::BTreeSet::new();
        for i in 0..32 {
            let case = generate_case(11, i, &config);
            seen_kinds.insert(case.kind);
            let target = case.target.expect("obfuscated case has a target");
            let mut rng = case_rng(99, i);
            for _ in 0..16 {
                let v: Valuation = case
                    .expr
                    .vars()
                    .into_iter()
                    .chain(target.vars())
                    .map(|x| (x, rng.gen()))
                    .collect();
                for width in [8, 64] {
                    assert_eq!(
                        case.expr.eval(&v, width),
                        target.eval(&v, width),
                        "case {i} expr `{}` disagrees with target `{target}`",
                        case.expr,
                    );
                }
            }
        }
        assert_eq!(seen_kinds.len(), 5, "all five obfuscation kinds appear");
    }

    #[test]
    fn random_ast_cases_have_no_target() {
        let config = CaseConfig {
            obfuscated_fraction: 0.0,
            wide_bitwise_fraction: 0.0,
            ..CaseConfig::default()
        };
        for i in 0..16 {
            let case = generate_case(5, i, &config);
            assert_eq!(case.kind, CaseKind::RandomAst);
            assert!(case.target.is_none());
        }
    }

    #[test]
    fn wide_bitwise_cases_are_wide_redundant_and_faithful() {
        let config = CaseConfig {
            wide_bitwise_fraction: 1.0,
            ..CaseConfig::default()
        };
        for i in 0..32 {
            let case = generate_case(3, i, &config);
            assert_eq!(case.kind, CaseKind::WideBitwise);
            let target = case.target.expect("wide case has a target");
            let nvars = case.expr.vars().len();
            assert!(
                (13..=16).contains(&nvars),
                "case {i} has {nvars} vars: `{}`",
                case.expr
            );
            assert_eq!(case.expr.vars(), target.vars());
            assert!(
                case.expr.node_count() > target.node_count(),
                "case {i} carries no redundancy"
            );
            let mut rng = case_rng(77, i);
            for _ in 0..16 {
                let v: Valuation = case
                    .expr
                    .vars()
                    .into_iter()
                    .map(|x| (x, rng.gen()))
                    .collect();
                for width in [8, 64] {
                    assert_eq!(case.expr.eval(&v, width), target.eval(&v, width));
                }
            }
        }
    }
}
