//! Recursive-descent parser for the concrete MBA syntax.
//!
//! The grammar follows the Python-style precedence used by the MBA corpora
//! in the literature (Eyrolles' datasets, the Syntia samples, and the
//! paper's own Figure 1 are all written against Python's `BitVec`
//! operators):
//!
//! ```text
//! or     := xor  ( '|' xor  )*          -- loosest
//! xor    := and  ( '^' and  )*
//! and    := sum  ( '&' sum  )*
//! sum    := prod ( ('+'|'-') prod )*
//! prod   := unary ( '*' unary )*
//! unary  := ('-' | '~')* atom           -- tightest
//! atom   := NUMBER | IDENT | '(' or ')'
//! ```
//!
//! so `x & y + 1` parses as `x & (y + 1)`, exactly as it would in Python.
//! Numbers may be decimal or hexadecimal (`0x1f`). Identifiers are
//! `[A-Za-z_][A-Za-z0-9_]*`.
//!
//! Every later stage (printer, evaluator, simplifier, drop) walks the
//! tree recursively, so the parser refuses to build a tree deeper than
//! [`MAX_DEPTH`] — whether the depth comes from parentheses, unary
//! chains or left-associative operator chains. The check runs while the
//! tree is built, so an over-deep input costs one parse error, never a
//! stack overflow.

use std::fmt;
use std::str::FromStr;

use crate::ast::{BinOp, Expr, UnOp};

/// Deepest tree (a leaf has depth 1, as in [`Expr::depth`]) and deepest
/// parenthesis nesting the parser accepts. Benchmark inputs and outputs
/// stay under depth 40; a depth-1000 tree still simplifies on a 2 MiB
/// thread stack, so 256 leaves headroom on both sides.
pub const MAX_DEPTH: usize = 256;

/// An error produced when parsing an MBA expression.
///
/// Carries the byte offset of the offending token and a human-readable
/// description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    position: usize,
    message: String,
}

impl ParseExprError {
    fn new(position: usize, message: impl Into<String>) -> Self {
        ParseExprError {
            position,
            message: message.into(),
        }
    }

    /// Byte offset in the input where the error occurred.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for ParseExprError {}

/// Parses an MBA expression from its textual form.
///
/// This is the function behind [`Expr`]'s [`FromStr`] impl; prefer
/// `input.parse::<Expr>()` in application code.
///
/// # Errors
///
/// Returns [`ParseExprError`] on empty input, unbalanced parentheses,
/// malformed numbers, trailing garbage, or a tree deeper than
/// [`MAX_DEPTH`].
///
/// ```
/// use mba_expr::parse;
/// let e = parse("(x ^ y) + 2*(x & y)")?;
/// assert_eq!(e.to_string(), "(x^y)+2*(x&y)");
/// assert!(parse("x +").is_err());
/// # Ok::<(), mba_expr::ParseExprError>(())
/// ```
pub fn parse(input: &str) -> Result<Expr, ParseExprError> {
    let mut p = Parser::new(input);
    let (e, _) = p.parse_or()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(ParseExprError::new(
            p.pos,
            format!("unexpected character `{}`", p.peek_char()),
        ));
    }
    Ok(e)
}

impl FromStr for Expr {
    type Err = ParseExprError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

/// A subtree and its depth.
type Built = (Expr, usize);

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Open parentheses around the current position.
    parens: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            parens: 0,
        }
    }

    /// Checks a depth against [`MAX_DEPTH`] before the node is built.
    fn budget(&self, depth: usize) -> Result<usize, ParseExprError> {
        if depth > MAX_DEPTH {
            Err(ParseExprError::new(
                self.pos,
                format!("expression nests deeper than {MAX_DEPTH} levels"),
            ))
        } else {
            Ok(depth)
        }
    }

    /// Builds `lhs op rhs`, refusing a result deeper than [`MAX_DEPTH`].
    fn binary(&self, op: BinOp, (a, da): Built, (b, db): Built) -> Result<Built, ParseExprError> {
        let depth = self.budget(1 + da.max(db))?;
        Ok((Expr::binary(op, a, b), depth))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_char(&self) -> char {
        self.bytes.get(self.pos).map(|&b| b as char).unwrap_or('?')
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` if it is the next non-whitespace byte.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Built, ParseExprError> {
        let mut lhs = self.parse_xor()?;
        while self.eat(b'|') {
            let rhs = self.parse_xor()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Built, ParseExprError> {
        let mut lhs = self.parse_and()?;
        while self.eat(b'^') {
            let rhs = self.parse_and()?;
            lhs = self.binary(BinOp::Xor, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Built, ParseExprError> {
        let mut lhs = self.parse_sum()?;
        while self.eat(b'&') {
            let rhs = self.parse_sum()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_sum(&mut self) -> Result<Built, ParseExprError> {
        let mut lhs = self.parse_prod()?;
        loop {
            self.skip_ws();
            let op = match self.peek() {
                Some(b'+') => BinOp::Add,
                Some(b'-') => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.parse_prod()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
    }

    fn parse_prod(&mut self) -> Result<Built, ParseExprError> {
        let mut lhs = self.parse_unary()?;
        while self.eat(b'*') {
            let rhs = self.parse_unary()?;
            lhs = self.binary(BinOp::Mul, lhs, rhs)?;
        }
        Ok(lhs)
    }

    /// A prefix chain is read in a loop, not by recursion, then applied
    /// innermost first so the depth check sees each node before it is
    /// built.
    fn parse_unary(&mut self) -> Result<Built, ParseExprError> {
        let mut ops = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'-') => ops.push(UnOp::Neg),
                Some(b'~') => ops.push(UnOp::Not),
                _ => break,
            }
            self.pos += 1;
        }
        let (mut e, mut depth) = self.parse_atom()?;
        for op in ops.into_iter().rev() {
            e = match (op, e) {
                // Fold `-CONST` into a negative literal so that
                // round-tripping preserves the tree shape.
                (UnOp::Neg, Expr::Const(c)) => Expr::Const(-c),
                (op, inner) => {
                    depth = self.budget(depth + 1)?;
                    Expr::unary(op, inner)
                }
            };
        }
        Ok((e, depth))
    }

    fn parse_atom(&mut self) -> Result<Built, ParseExprError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.budget(self.parens + 1)?;
                self.pos += 1;
                self.parens += 1;
                let inner = self.parse_or()?;
                self.parens -= 1;
                if !self.eat(b')') {
                    return Err(ParseExprError::new(self.pos, "expected `)`"));
                }
                Ok(inner)
            }
            Some(b) if b.is_ascii_digit() => Ok((self.parse_number()?, 1)),
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => Ok((self.parse_ident(), 1)),
            Some(_) => Err(ParseExprError::new(
                self.pos,
                format!("expected expression, found `{}`", self.peek_char()),
            )),
            None => Err(ParseExprError::new(self.pos, "unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Expr, ParseExprError> {
        let start = self.pos;
        let radix = if self.bytes[self.pos..].starts_with(b"0x")
            || self.bytes[self.pos..].starts_with(b"0X")
        {
            self.pos += 2;
            16
        } else {
            10
        };
        let digits_start = self.pos;
        while let Some(b) = self.peek() {
            if (b as char).is_digit(radix) || (radix == 16 && b.is_ascii_hexdigit()) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == digits_start {
            return Err(ParseExprError::new(start, "malformed number literal"));
        }
        let text = std::str::from_utf8(&self.bytes[digits_start..self.pos]).expect("ascii");
        let value = i128::from_str_radix(text, radix)
            .map_err(|e| ParseExprError::new(start, format!("number out of range: {e}")))?;
        Ok(Expr::Const(value))
    }

    fn parse_ident(&mut self) -> Expr {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Expr::var(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::Expr;

    fn roundtrip(src: &str) -> String {
        src.parse::<Expr>().unwrap().to_string()
    }

    #[test]
    fn parses_figure_1_example() {
        let e: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        assert_eq!(e.to_string(), "(x&~y)*(~x&y)+(x&y)*(x|y)");
    }

    #[test]
    fn python_precedence_and_binds_looser_than_plus() {
        let e: Expr = "x & y + 1".parse().unwrap();
        assert_eq!(e, "x & (y + 1)".parse().unwrap());
    }

    #[test]
    fn precedence_chain_or_xor_and() {
        let e: Expr = "a | b ^ c & d".parse().unwrap();
        assert_eq!(e, "a | (b ^ (c & d))".parse().unwrap());
    }

    #[test]
    fn left_associativity_of_sub() {
        let e: Expr = "a - b - c".parse().unwrap();
        assert_eq!(e, "(a - b) - c".parse().unwrap());
    }

    #[test]
    fn unary_stacking() {
        assert_eq!(roundtrip("~~x"), "~~x");
        assert_eq!(roundtrip("-~x"), "-~x");
        assert_eq!(roundtrip("~-x"), "~-x");
    }

    #[test]
    fn negative_literal_folding() {
        assert_eq!("-5".parse::<Expr>().unwrap(), Expr::Const(-5));
        assert_eq!("--5".parse::<Expr>().unwrap(), Expr::Const(5));
    }

    #[test]
    fn hex_literals() {
        assert_eq!("0xff".parse::<Expr>().unwrap(), Expr::Const(255));
        assert_eq!("0X10".parse::<Expr>().unwrap(), Expr::Const(16));
    }

    #[test]
    fn identifiers_with_underscores_and_digits() {
        assert_eq!(roundtrip("foo_1 + _bar"), "foo_1+_bar");
    }

    #[test]
    fn error_on_trailing_garbage() {
        let err = "x + y )".parse::<Expr>().unwrap_err();
        assert!(err.to_string().contains(")"));
    }

    #[test]
    fn error_on_empty_input() {
        assert!("".parse::<Expr>().is_err());
        assert!("   ".parse::<Expr>().is_err());
    }

    #[test]
    fn error_on_unbalanced_parens() {
        assert!("(x + y".parse::<Expr>().is_err());
        assert!("x + (y *".parse::<Expr>().is_err());
    }

    #[test]
    fn error_positions_point_at_offender() {
        let err = "x @ y".parse::<Expr>().unwrap_err();
        assert_eq!(err.position(), 2);
    }

    /// Inputs of tree depth exactly `depth`, one per way of nesting:
    /// parentheses around a right-leaning sum, a unary chain, a
    /// left-associative product chain, and redundant parentheses.
    fn nested(depth: usize) -> [String; 4] {
        [
            format!("{}x{}", "(x+".repeat(depth - 1), ")".repeat(depth - 1)),
            format!("{}x", "-~".repeat(depth).split_at(depth - 1).0),
            format!("x{}", "*x".repeat(depth - 1)),
            format!("{}x{}", "(".repeat(depth), ")".repeat(depth)),
        ]
    }

    #[test]
    fn depth_budget_admits_max_depth() {
        for src in nested(super::MAX_DEPTH) {
            let e: Expr = src.parse().unwrap();
            assert!(e.depth() <= super::MAX_DEPTH, "`{}…`", &src[..8]);
        }
        // The first three shapes hit the budget exactly.
        for src in &nested(super::MAX_DEPTH)[..3] {
            assert_eq!(src.parse::<Expr>().unwrap().depth(), super::MAX_DEPTH);
        }
    }

    #[test]
    fn depth_budget_rejects_one_more_level() {
        for src in nested(super::MAX_DEPTH + 1) {
            let err = src.parse::<Expr>().unwrap_err();
            assert!(
                err.to_string().contains("deeper than 256 levels"),
                "`{}…`: {err}",
                &src[..8]
            );
        }
    }

    #[test]
    fn depth_budget_rejects_line_sized_inputs_without_recursing() {
        // 60 KB lines, well past any stack a recursive walk could
        // survive; each must come back as a plain error.
        for src in [
            format!("{}x{}", "(".repeat(30_000), ")".repeat(30_000)),
            format!("x{}", "*x".repeat(30_000)),
            format!("{}x", "-~".repeat(30_000)),
            format!("{}x", "~".repeat(60_000)),
        ] {
            assert!(src.parse::<Expr>().is_err(), "`{}…` parsed", &src[..8]);
        }
    }

    #[test]
    fn negation_chains_of_constants_fold_without_depth() {
        let src = format!("{}5", "-".repeat(10_000));
        assert_eq!(src.parse::<Expr>().unwrap(), Expr::Const(5));
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            " x\t+\n y ".parse::<Expr>().unwrap(),
            "x+y".parse::<Expr>().unwrap()
        );
    }
}
