//! Inputs at the parser's depth budget simplify on a serve worker's
//! default 2 MiB thread stack (one level more is a parse error, pinned
//! by the parser's own tests).

use mba_expr::{Expr, MAX_DEPTH};
use mba_solver::Simplifier;

/// Trees of depth exactly `depth`: parentheses around a right-leaning
/// sum, a unary chain, a left-associative product chain, and a mix of
/// all three.
fn shapes(depth: usize) -> Vec<String> {
    let mut mixed = "x".to_string();
    for i in 1..depth {
        mixed = match i % 4 {
            0 => format!("(y^{mixed})"),
            1 => format!("~({mixed})"),
            2 => format!("({mixed})-y"),
            _ => format!("x*({mixed})"),
        };
    }
    vec![
        format!("{}x{}", "(x+".repeat(depth - 1), ")".repeat(depth - 1)),
        format!("{}x", "-~".repeat(depth).split_at(depth - 1).0),
        format!("x{}", "*x".repeat(depth - 1)),
        mixed,
    ]
}

#[test]
fn max_depth_inputs_simplify_on_a_two_mib_stack() {
    // 2 MiB is the standard library's default thread stack, the size
    // `mba_serve` workers get.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let s = Simplifier::new();
            for src in shapes(MAX_DEPTH) {
                let e: Expr = src.parse().unwrap();
                assert_eq!(e.depth(), MAX_DEPTH, "`{}…`", &src[..12]);
                let out = s.simplify(&e);
                // The output is printable and re-parses.
                let _: Expr = out.to_string().parse().unwrap();
            }
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow");
}
