//! `mba-simplify`: command-line MBA simplification.
//!
//! Reads MBA expressions (arguments, or stdin one per line) and prints
//! the simplified form. With `--verbose`, also prints the category, the
//! alternation reduction, and the tier that produced the result
//! (`linear`, `semi-linear`, `poly`, or `unchanged`).
//!
//! ```text
//! $ mba_simplify '2*(x|y) - (~x&y) - (x&~y)'
//! x+y
//! $ echo '(x&~y)*(~x&y) + (x&y)*(x|y)' | mba_simplify --verbose
//! x*y    [poly, alternation 2 -> 0, 1 rounds, tier poly]
//! ```

use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use mba_expr::Expr;
use mba_solver::{Simplifier, SimplifyConfig};

fn main() -> ExitCode {
    let mut verbose = false;
    let mut jobs: Option<usize> = None;
    let mut use_cache = true;
    let mut inputs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--jobs" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n > 0 => jobs = Some(n),
                    _ => {
                        eprintln!("mba_simplify: --jobs requires a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--no-cache" => use_cache = false,
            "--help" | "-h" => {
                eprintln!("usage: mba_simplify [--verbose] [--jobs N] [--no-cache] [EXPR ...]");
                eprintln!("reads expressions from stdin when no EXPR is given");
                eprintln!("  --jobs N         simplify inputs on N parallel workers");
                eprintln!("  --no-cache       disable the lookup table and signature cache");
                return ExitCode::SUCCESS;
            }
            other => inputs.push(other.to_string()),
        }
    }
    if inputs.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if !l.trim().is_empty() => inputs.push(l),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("mba_simplify: read error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let simplifier = Simplifier::with_config(SimplifyConfig {
        use_cache,
        ..SimplifyConfig::default()
    });
    // Parse everything first (reporting failures as they appear), then
    // simplify the parseable inputs as one batch so `--jobs` can fan
    // out; stdout order still follows input order.
    let mut failed = false;
    let mut exprs: Vec<Expr> = Vec::new();
    for input in &inputs {
        match input.parse::<Expr>() {
            Ok(e) => exprs.push(e),
            Err(err) => {
                eprintln!("mba_simplify: cannot parse `{input}`: {err}");
                failed = true;
            }
        }
    }
    let results = match jobs {
        Some(n) => simplifier.simplify_batch_with_jobs(&exprs, n),
        None => simplifier.simplify_batch(&exprs),
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for d in &results {
        if verbose {
            let _ = writeln!(
                out,
                "{}    [{}, alternation {} -> {}, {} rounds, tier {}]",
                d.output,
                d.input_metrics.class,
                d.input_metrics.alternation,
                d.output_metrics.alternation,
                d.rounds,
                d.tier
            );
        } else {
            let _ = writeln!(out, "{}", d.output);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
