//! The correctness gate: an evaluation oracle independent of the
//! simplifier and the solver, and the rules that turn solver verdicts
//! and server responses into decided / undecided / failed.
//!
//! Budget exhaustion is undecided, never failed. An output that differs
//! from the ground truth in bytes is not a failure; only a semantic
//! disagreement, a refuted identity, an error response or a missing
//! response is.

use std::collections::BTreeSet;

use mba_expr::{mask, Expr, Ident, Valuation};
use mba_serve::Response;
use mba_smt::CheckOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random valuations per width, on top of the corner valuations.
const RANDOM_VALUATIONS: usize = 24;

/// Checks that `output` agrees with `input` under [`Expr::eval`] on
/// corner and seeded random valuations over the union of both variable
/// sets, at every width in `widths`.
///
/// # Errors
///
/// Describes the first valuation on which the two disagree, or an
/// evaluation error.
pub fn eval_agrees(input: &Expr, output: &Expr, widths: &[u32], seed: u64) -> Result<(), String> {
    let vars: Vec<Ident> = input
        .vars()
        .into_iter()
        .chain(output.vars())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for &width in widths {
        for valuation in valuations(&vars, width, &mut rng) {
            let lhs = input
                .eval_checked(&valuation, width)
                .map_err(|e| e.to_string())?;
            let rhs = output
                .eval_checked(&valuation, width)
                .map_err(|e| e.to_string())?;
            if lhs != rhs {
                let at: Vec<String> = valuation.iter().map(|(v, x)| format!("{v}={x}")).collect();
                return Err(format!(
                    "eval disagrees at width {width} on {{{}}}: input {lhs}, output {rhs}",
                    at.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// Corner valuations (every variable 0, 1, all ones, the top bit; each
/// variable alone 1 or all ones) followed by seeded random ones.
fn valuations(vars: &[Ident], width: u32, rng: &mut StdRng) -> Vec<Valuation> {
    let ones = mask(u64::MAX, width);
    let top = 1u64 << (width - 1);
    let uniform = |x: u64| {
        let mut v = Valuation::new();
        for name in vars {
            v.set(name.clone(), x);
        }
        v
    };
    let mut out: Vec<Valuation> = [0, 1, ones, top].into_iter().map(uniform).collect();
    for (i, _) in vars.iter().enumerate() {
        for x in [1, ones] {
            let mut v = Valuation::new();
            for (j, name) in vars.iter().enumerate() {
                v.set(name.clone(), if i == j { x } else { 0 });
            }
            out.push(v);
        }
    }
    for _ in 0..RANDOM_VALUATIONS {
        let mut v = Valuation::new();
        for name in vars {
            v.set(name.clone(), mask(rng.gen::<u64>(), width));
        }
        out.push(v);
    }
    out
}

/// What one query contributed to the verdict counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equivalent within the budget.
    Decided,
    /// The conflict budget ran out.
    Undecided,
    /// The query failed; the string says why.
    Failed(String),
}

/// Classifies a solver verdict on a pair known to be equivalent.
pub fn check_verdict(outcome: &CheckOutcome) -> Verdict {
    match outcome {
        CheckOutcome::Equivalent => Verdict::Decided,
        CheckOutcome::Timeout => Verdict::Undecided,
        CheckOutcome::NotEquivalent(cex) => {
            Verdict::Failed(format!("solver refuted a known identity at {cex}"))
        }
    }
}

/// Classifies one server reply to request `id`: the simplified text,
/// or why the request failed (transport error, missing response, error
/// response, id mismatch, missing field).
///
/// # Errors
///
/// The failure reason.
pub fn response_output(id: u64, reply: std::io::Result<Response>) -> Result<String, String> {
    let reply = reply.map_err(|e| format!("no response: {e}"))?;
    if let Some(code) = reply.error() {
        return Err(format!("error response `{code}`: {}", reply.raw));
    }
    if reply.id() != Some(id) {
        return Err(format!("id mismatch: sent {id}, got {}", reply.raw));
    }
    reply
        .str_field("simplified")
        .map(str::to_string)
        .ok_or_else(|| format!("response without `simplified`: {}", reply.raw))
}

/// Failed queries against attempted ones.
#[derive(Debug, Default)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// One line per failed query.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records a failed query.
    pub fn fail(&mut self, query: &str, why: impl std::fmt::Display) {
        self.failures.push(format!("{query}: {why}"));
    }

    /// Failed queries.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed over attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_serve::parse_json;
    use mba_smt::{MiterBudget, SmtSolver, SolverProfile};

    fn expr(s: &str) -> Expr {
        s.parse().unwrap()
    }

    fn reply(raw: &str) -> std::io::Result<Response> {
        Ok(Response {
            raw: raw.to_string(),
            json: parse_json(raw).unwrap(),
        })
    }

    #[test]
    fn planted_wrong_output_is_rejected_and_counted() {
        let mut tally = Tally {
            attempted: 2,
            ..Tally::default()
        };
        let input = expr("2*(x|y) - (~x&y) - (x&~y)");
        assert_eq!(eval_agrees(&input, &expr("x+y"), &[64, 8, 1], 7), Ok(()));
        let wrong = eval_agrees(&input, &expr("x-y"), &[64, 8, 1], 7);
        assert!(wrong.is_err());
        tally.fail("x+y", wrong.unwrap_err());
        assert_eq!(tally.failed(), 1);
        assert_eq!(tally.failed_share(), 0.5);
    }

    #[test]
    fn byte_different_but_equal_output_passes() {
        assert_eq!(
            eval_agrees(&expr("x+y-z+w"), &expr("w+x+y-z"), &[16, 8, 1], 3),
            Ok(())
        );
    }

    #[test]
    fn a_variable_only_the_output_uses_is_bound_and_caught() {
        assert!(eval_agrees(&expr("x"), &expr("x+(y&1)"), &[8], 1).is_err());
    }

    #[test]
    fn error_and_missing_responses_fail() {
        let ok = reply(r#"{"id":4,"simplified":"x+y"}"#);
        assert_eq!(response_output(4, ok), Ok("x+y".to_string()));
        let error = reply(r#"{"id":4,"error":"overloaded","detail":"queue full"}"#);
        assert!(response_output(4, error).is_err());
        let missing = Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
        assert!(response_output(4, missing).is_err());
        let other = reply(r#"{"id":5,"simplified":"x+y"}"#);
        assert!(response_output(4, other).is_err());
    }

    #[test]
    fn budget_exhaustion_is_undecided() {
        let solver = SmtSolver::new(SolverProfile::z3_style());
        let lhs = expr("x*y");
        let rhs = expr("(x&~y)*(~x&y) + (x&y)*(x|y)");
        let r = solver.check_equivalence_budgeted(&lhs, &rhs, 8, &MiterBudget::conflicts(2));
        assert_eq!(check_verdict(&r.outcome), Verdict::Undecided);
        let r =
            solver.check_equivalence_budgeted(&lhs, &expr("x+y"), 8, &MiterBudget::conflicts(2000));
        assert!(matches!(check_verdict(&r.outcome), Verdict::Failed(_)));
        let r = solver.check_equivalence_budgeted(&lhs, &lhs, 8, &MiterBudget::conflicts(2));
        assert_eq!(check_verdict(&r.outcome), Verdict::Decided);
    }
}
