//! Compiled batch evaluation: an [`Expr`] flattened once into a
//! post-order instruction tape, then run many times without touching
//! the tree.
//!
//! The signature pipeline's hottest loop evaluates the same expression
//! at thousands of points: `2^t` boolean rows for a truth table, and
//! dozens of corner/random valuations per width in the verify oracles.
//! Walking the AST per point pays pointer-chasing, match dispatch, and
//! a `BTreeMap` lookup per variable *per point*. [`EvalProgram`]
//! hoists all of that out of the loop:
//!
//! * **compile once** — one post-order walk records the instruction
//!   tape and resolves every variable to a dense slot index;
//! * **bit-parallel boolean evaluation** ([`EvalProgram::eval_bits`]) —
//!   each variable is bound to a 64-lane pattern word and one tape pass
//!   computes 64 truth-table rows at width 1. Width-1 arithmetic is
//!   carry-free (`+`/`-` are `^`, `*` is `&`, unary `-` is the
//!   identity), so every MBA operator maps to one word-wide bitwise op;
//! * **SoA chunked batch evaluation** ([`EvalProgram::eval_batch`]) —
//!   one tape pass evaluates a whole column of full-width valuations,
//!   chunked so the operand stack stays cache-resident.
//!
//! Binding variables from [`Valuation`]s is *strict*
//! ([`EvalProgram::bind`] errors on unbound variables) — batch
//! evaluation exists to compare expressions, where the lenient
//! read-as-0 default can make inequivalent expressions agree.
//!
//! The module keeps process-global monotonic counters
//! ([`engine_stats`]) so observability layers can report tape compiles
//! and rows-per-pass without threading a registry through every
//! call site.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{ExprArena, Node, NodeId};
use crate::ast::{BinOp, Expr, Ident, UnOp};
use crate::eval::{mask, UnboundVariableError, Valuation};

/// Lanes per chunk of a batch evaluation pass: small enough that
/// `max_stack` chunk-wide slots stay in L1, large enough to amortize
/// the tape dispatch and keep the per-op inner loops vectorizable.
const CHUNK: usize = 64;

/// One instruction of the flat post-order tape (a stack machine:
/// leaves push, unary ops rewrite the top, binary ops pop one and
/// rewrite the new top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push a constant (reduced to the evaluation width at run time).
    Const(i128),
    /// Push variable slot `n`.
    Var(u32),
    /// Apply a unary operator to the top of stack.
    Unary(UnOp),
    /// Pop the right operand, combine into the new top of stack.
    Binary(BinOp),
}

// Process-global engine counters; `Relaxed` — telemetry must never
// synchronize the code it observes (same rule as `mba-obs`).
static TAPE_COMPILES: AtomicU64 = AtomicU64::new(0);
static BIT_PASSES: AtomicU64 = AtomicU64::new(0);
static BIT_ROWS: AtomicU64 = AtomicU64::new(0);
static BATCH_PASSES: AtomicU64 = AtomicU64::new(0);
static BATCH_ROWS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide counters of the batch evaluation engine,
/// captured at one instant by [`engine_stats`]. Counters never reset;
/// report deltas between snapshots for per-run telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Expressions compiled to tapes.
    pub tape_compiles: u64,
    /// Bit-parallel tape passes (each computes 64 boolean rows).
    pub bit_parallel_passes: u64,
    /// Boolean rows computed bit-parallel (64 × passes).
    pub bit_parallel_rows: u64,
    /// SoA batch tape passes (one per chunk of lanes).
    pub batch_passes: u64,
    /// Full-width lanes evaluated by batch passes.
    pub batch_rows: u64,
}

/// Reads the process-global [`EngineStats`] counters.
pub fn engine_stats() -> EngineStats {
    EngineStats {
        tape_compiles: TAPE_COMPILES.load(Ordering::Relaxed),
        bit_parallel_passes: BIT_PASSES.load(Ordering::Relaxed),
        bit_parallel_rows: BIT_ROWS.load(Ordering::Relaxed),
        batch_passes: BATCH_PASSES.load(Ordering::Relaxed),
        batch_rows: BATCH_ROWS.load(Ordering::Relaxed),
    }
}

/// An [`Expr`] compiled to a flat post-order instruction tape for
/// repeated evaluation.
///
/// ```
/// use mba_expr::{EvalProgram, Expr, Valuation};
///
/// let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
/// let program = EvalProgram::compile(&e);
/// let points = [
///     Valuation::new().with("x", 13).with("y", 7),
///     Valuation::new().with("x", 250).with("y", 9),
/// ];
/// // One tape pass evaluates every valuation; results are per-lane.
/// assert_eq!(program.eval_valuations(&points, 8).unwrap(), [20, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalProgram {
    ops: Vec<Op>,
    /// Variable slots in name order (the order of [`Expr::vars`]);
    /// `Op::Var(n)` reads slot `n`.
    vars: Vec<Ident>,
    /// Peak operand-stack depth of one tape run.
    max_stack: usize,
}

impl EvalProgram {
    /// Compiles `e` into a tape. One tree walk; every later evaluation
    /// is a linear scan of the tape.
    pub fn compile(e: &Expr) -> EvalProgram {
        let vars: Vec<Ident> = e.vars().into_iter().collect();
        let mut program = EvalProgram {
            ops: Vec::with_capacity(e.node_count()),
            vars,
            max_stack: 0,
        };
        let mut depth = 0usize;
        program.emit(e, &mut depth);
        debug_assert_eq!(depth, 1, "a well-formed tape leaves one result");
        TAPE_COMPILES.fetch_add(1, Ordering::Relaxed);
        program
    }

    /// Compiles an interned subtree into a tape **byte-identical** to
    /// `EvalProgram::compile(&arena.extract(id))`: same post-order,
    /// same name-ordered variable slots, same peak stack. Shared
    /// subtrees in the id-DAG are duplicated into the tape exactly as
    /// the extracted tree would duplicate them, so every downstream
    /// consumer (truth tables, corner signatures, batch oracles) sees
    /// identical results whichever representation compiled the tape.
    pub fn compile_arena(arena: &ExprArena, id: NodeId) -> EvalProgram {
        let inner = arena.read_inner();
        let mut program = EvalProgram {
            ops: Vec::with_capacity(inner.node_count_of(id)),
            vars: inner.vars_of(id),
            max_stack: 0,
        };
        let mut depth = 0usize;
        program.emit_arena(&inner, id, &mut depth);
        debug_assert_eq!(depth, 1, "a well-formed tape leaves one result");
        TAPE_COMPILES.fetch_add(1, Ordering::Relaxed);
        program
    }

    fn emit_arena(&mut self, inner: &crate::arena::ArenaInner, id: NodeId, depth: &mut usize) {
        match inner.node(id) {
            Node::Const(c) => {
                self.ops.push(Op::Const(c));
                *depth += 1;
            }
            Node::Var(i) => {
                let slot = self
                    .vars
                    .binary_search(inner.ident(i))
                    .expect("compile_arena collected every variable");
                self.ops.push(Op::Var(slot as u32));
                *depth += 1;
            }
            Node::Unary(op, a) => {
                self.emit_arena(inner, a, depth);
                self.ops.push(Op::Unary(op));
            }
            Node::Binary(op, a, b) => {
                self.emit_arena(inner, a, depth);
                self.emit_arena(inner, b, depth);
                self.ops.push(Op::Binary(op));
                *depth -= 1;
            }
        }
        self.max_stack = self.max_stack.max(*depth);
    }

    fn emit(&mut self, e: &Expr, depth: &mut usize) {
        match e {
            Expr::Const(c) => {
                self.ops.push(Op::Const(*c));
                *depth += 1;
            }
            Expr::Var(v) => {
                let slot = self
                    .vars
                    .binary_search(v)
                    .expect("compile collected every variable");
                self.ops.push(Op::Var(slot as u32));
                *depth += 1;
            }
            Expr::Unary(op, a) => {
                self.emit(a, depth);
                self.ops.push(Op::Unary(*op));
            }
            Expr::Binary(op, a, b) => {
                self.emit(a, depth);
                self.emit(b, depth);
                self.ops.push(Op::Binary(*op));
                *depth -= 1;
            }
        }
        self.max_stack = self.max_stack.max(*depth);
    }

    /// The variable slots, in name order. Slot `n` of every binding API
    /// corresponds to `vars()[n]`.
    pub fn vars(&self) -> &[Ident] {
        &self.vars
    }

    /// Number of tape instructions (equals the expression's node count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (never true for a compiled program).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// **Bit-parallel boolean evaluation**: one tape pass computes the
    /// expression at width 1 on 64 independent lanes.
    ///
    /// `var_words[n]` packs 64 boolean samples of variable `vars()[n]`,
    /// one per bit; bit `i` of the result is the width-1 value of the
    /// expression on lane `i`. Width-1 modular arithmetic is carry-free,
    /// so the lanes never interact: `+` and `-` are XOR, `*` is AND,
    /// unary `-` is the identity, and a constant broadcasts its low bit.
    ///
    /// # Panics
    ///
    /// Panics if `var_words.len() != self.vars().len()`.
    pub fn eval_bits(&self, var_words: &[u64]) -> u64 {
        assert_eq!(
            var_words.len(),
            self.vars.len(),
            "one pattern word per variable slot"
        );
        let mut stack = vec![0u64; self.max_stack];
        let mut top = 0usize; // next free slot
        for op in &self.ops {
            match op {
                Op::Const(c) => {
                    stack[top] = if c & 1 == 1 { u64::MAX } else { 0 };
                    top += 1;
                }
                Op::Var(n) => {
                    stack[top] = var_words[*n as usize];
                    top += 1;
                }
                Op::Unary(op) => {
                    let x = stack[top - 1];
                    stack[top - 1] = match op {
                        UnOp::Neg => x, // -x ≡ x (mod 2)
                        UnOp::Not => !x,
                    };
                }
                Op::Binary(op) => {
                    let y = stack[top - 1];
                    let x = stack[top - 2];
                    top -= 1;
                    stack[top - 1] = match op {
                        BinOp::Add | BinOp::Sub | BinOp::Xor => x ^ y,
                        BinOp::Mul | BinOp::And => x & y,
                        BinOp::Or => x | y,
                    };
                }
            }
        }
        BIT_PASSES.fetch_add(1, Ordering::Relaxed);
        BIT_ROWS.fetch_add(64, Ordering::Relaxed);
        stack[0]
    }

    /// **SoA chunked batch evaluation**: evaluates the expression on
    /// `lanes` full-width points per tape pass.
    ///
    /// `columns[n]` holds the value of variable `vars()[n]` on every
    /// lane (structure-of-arrays layout); the result is one `u64` per
    /// lane, masked to `width`. Lanes are processed in cache-sized
    /// chunks, each chunk sharing one pass over the tape, so the
    /// per-node cost (dispatch, variable lookup) is paid once per chunk
    /// instead of once per point.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`, `columns.len()` differs
    /// from `self.vars().len()`, or any column's length differs from
    /// `lanes`.
    pub fn eval_batch(&self, lanes: usize, columns: &[Vec<u64>], width: u32) -> Vec<u64> {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        assert_eq!(
            columns.len(),
            self.vars.len(),
            "one column per variable slot"
        );
        for (slot, column) in columns.iter().enumerate() {
            assert_eq!(
                column.len(),
                lanes,
                "column for `{}` must have one value per lane",
                self.vars[slot]
            );
        }
        let mut out = Vec::with_capacity(lanes);
        // Intermediate ops wrap on u64 and the result is masked once at
        // the end — identical to `Expr::eval` (truncation commutes with
        // every MBA operator).
        let mut stack = vec![0u64; self.max_stack * CHUNK];
        for base in (0..lanes).step_by(CHUNK) {
            let n = CHUNK.min(lanes - base);
            let mut top = 0usize;
            for op in &self.ops {
                match op {
                    Op::Const(c) => {
                        let v = *c as u64; // masked with the final result
                        stack[top * CHUNK..top * CHUNK + n].fill(v);
                        top += 1;
                    }
                    Op::Var(slot) => {
                        let column = &columns[*slot as usize][base..base + n];
                        stack[top * CHUNK..top * CHUNK + n].copy_from_slice(column);
                        top += 1;
                    }
                    Op::Unary(op) => {
                        let x = &mut stack[(top - 1) * CHUNK..(top - 1) * CHUNK + n];
                        match op {
                            UnOp::Neg => x.iter_mut().for_each(|v| *v = v.wrapping_neg()),
                            UnOp::Not => x.iter_mut().for_each(|v| *v = !*v),
                        }
                    }
                    Op::Binary(op) => {
                        let (xs, ys) = stack.split_at_mut((top - 1) * CHUNK);
                        let x = &mut xs[(top - 2) * CHUNK..(top - 2) * CHUNK + n];
                        let y = &ys[..n];
                        match op {
                            BinOp::Add => binop(x, y, u64::wrapping_add),
                            BinOp::Sub => binop(x, y, u64::wrapping_sub),
                            BinOp::Mul => binop(x, y, u64::wrapping_mul),
                            BinOp::And => binop(x, y, |a, b| a & b),
                            BinOp::Or => binop(x, y, |a, b| a | b),
                            BinOp::Xor => binop(x, y, |a, b| a ^ b),
                        }
                        top -= 1;
                    }
                }
            }
            out.extend(stack[..n].iter().map(|&v| mask(v, width)));
            BATCH_PASSES.fetch_add(1, Ordering::Relaxed);
        }
        BATCH_ROWS.fetch_add(lanes as u64, Ordering::Relaxed);
        out
    }

    /// Binds the program's variables from `valuations` into SoA columns
    /// for [`EvalProgram::eval_batch`], **strictly**: a valuation that
    /// does not bind every program variable is an error, never a silent
    /// 0 (see [`UnboundVariableError`]).
    ///
    /// # Errors
    ///
    /// Returns the first unbound variable found.
    pub fn bind(&self, valuations: &[Valuation]) -> Result<Vec<Vec<u64>>, UnboundVariableError> {
        let mut columns = Vec::with_capacity(self.vars.len());
        for var in &self.vars {
            let mut column = Vec::with_capacity(valuations.len());
            for v in valuations {
                column.push(v.get_checked(var)?);
            }
            columns.push(column);
        }
        Ok(columns)
    }

    /// [`EvalProgram::bind`] followed by [`EvalProgram::eval_batch`]:
    /// one result per valuation, masked to `width`.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVariableError`] when any valuation misses a
    /// program variable.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    pub fn eval_valuations(
        &self,
        valuations: &[Valuation],
        width: u32,
    ) -> Result<Vec<u64>, UnboundVariableError> {
        let columns = self.bind(valuations)?;
        Ok(self.eval_batch(valuations.len(), &columns, width))
    }
}

#[inline]
fn binop(x: &mut [u64], y: &[u64], f: impl Fn(u64, u64) -> u64) {
    for (a, b) in x.iter_mut().zip(y) {
        *a = f(*a, *b);
    }
}

/// The 64-row pattern word of row-index bit `p` for block `block`
/// (rows `64·block .. 64·block + 64`): bit `i` of the result is
/// `((64·block + i) >> p) & 1`. This is how truth-table extraction
/// binds each variable for [`EvalProgram::eval_bits`] — variable bits
/// with period `< 64` are fixed alternating masks, wider ones are
/// constant within a block.
pub fn row_bit_pattern(p: u32, block: usize) -> u64 {
    /// `MAGIC[p]` has bit `i` set iff `(i >> p) & 1 == 1`.
    const MAGIC: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    if p < 6 {
        MAGIC[p as usize]
    } else if (block as u64 * 64) >> p & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(&str, u64)]) -> Valuation {
        pairs.iter().map(|&(n, x)| (Ident::new(n), x)).collect()
    }

    #[test]
    fn compile_resolves_slots_in_name_order() {
        let e: Expr = "z + (a & b) * z".parse().unwrap();
        let p = EvalProgram::compile(&e);
        let names: Vec<&str> = p.vars().iter().map(Ident::as_str).collect();
        assert_eq!(names, ["a", "b", "z"]);
        assert_eq!(p.len(), e.node_count());
        assert!(!p.is_empty());
    }

    #[test]
    fn batch_matches_scalar_eval() {
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        let p = EvalProgram::compile(&e);
        let points: Vec<Valuation> = [(0u64, 0u64), (13, 7), (255, 1), (u64::MAX, 42)]
            .iter()
            .map(|&(x, y)| v(&[("x", x), ("y", y)]))
            .collect();
        for width in [1, 7, 8, 63, 64] {
            let batch = p.eval_valuations(&points, width).unwrap();
            let scalar: Vec<u64> = points.iter().map(|pt| e.eval(pt, width)).collect();
            assert_eq!(batch, scalar, "width {width}");
        }
    }

    #[test]
    fn batch_crosses_chunk_boundaries() {
        let e: Expr = "x * x + 1".parse().unwrap();
        let p = EvalProgram::compile(&e);
        let lanes = CHUNK * 2 + 17;
        let columns = vec![(0..lanes as u64).collect::<Vec<u64>>()];
        let got = p.eval_batch(lanes, &columns, 32);
        for (i, &r) in got.iter().enumerate() {
            let i = i as u64;
            assert_eq!(r, mask(i.wrapping_mul(i).wrapping_add(1), 32), "lane {i}");
        }
    }

    #[test]
    fn strict_binding_rejects_unbound_variables() {
        let e: Expr = "x + y".parse().unwrap();
        let p = EvalProgram::compile(&e);
        let err = p
            .eval_valuations(&[v(&[("x", 1)])], 8)
            .unwrap_err();
        assert_eq!(err.name().as_str(), "y");
    }

    #[test]
    fn variable_free_programs_evaluate_constants() {
        let e: Expr = "~0 + 3".parse().unwrap();
        let p = EvalProgram::compile(&e);
        assert!(p.vars().is_empty());
        assert_eq!(p.eval_valuations(&[Valuation::new()], 8).unwrap(), [2]);
        // Lenient scalar eval agrees — variable-free needs no bindings.
        assert_eq!(e.eval(&Valuation::new(), 8), 2);
    }

    #[test]
    fn bit_parallel_matches_width_1_eval() {
        // Arithmetic included: width-1 semantics is carry-free.
        let e: Expr = "(x & ~y) + y - 2*(x | z) * ~z".parse().unwrap();
        let p = EvalProgram::compile(&e);
        // Lane i: (x, y, z) = bits of i.
        let x_word = row_bit_pattern(2, 0);
        let y_word = row_bit_pattern(1, 0);
        let z_word = row_bit_pattern(0, 0);
        let word = p.eval_bits(&[x_word, y_word, z_word]);
        for lane in 0..8u64 {
            let val = v(&[
                ("x", (lane >> 2) & 1),
                ("y", (lane >> 1) & 1),
                ("z", lane & 1),
            ]);
            assert_eq!((word >> lane) & 1, e.eval(&val, 1), "lane {lane}");
        }
    }

    #[test]
    fn row_bit_patterns() {
        // p < 6: fixed alternating masks.
        assert_eq!(row_bit_pattern(0, 0), 0xaaaa_aaaa_aaaa_aaaa);
        assert_eq!(row_bit_pattern(5, 7), 0xffff_ffff_0000_0000);
        // p >= 6: constant per block.
        assert_eq!(row_bit_pattern(6, 0), 0);
        assert_eq!(row_bit_pattern(6, 1), u64::MAX);
        assert_eq!(row_bit_pattern(6, 2), 0);
        assert_eq!(row_bit_pattern(8, 3), 0);
        assert_eq!(row_bit_pattern(8, 4), u64::MAX);
        // Exhaustive spot-check against the definition.
        for p in 0..10u32 {
            for block in 0..8usize {
                let w = row_bit_pattern(p, block);
                for i in 0..64u64 {
                    let expected = ((block as u64 * 64 + i) >> p) & 1;
                    assert_eq!((w >> i) & 1, expected, "p={p} block={block} i={i}");
                }
            }
        }
    }

    #[test]
    fn arena_tape_is_byte_identical_to_tree_tape() {
        let arena = ExprArena::new();
        for src in [
            "x",
            "42",
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x & y) + (x & y) * (x & y)", // shared subtree, duplicated in the tape
            "z + (a & b) * z",
            "~0 + 3",
            "-(x ^ y) * 3 - ~z",
        ] {
            let e: Expr = src.parse().unwrap();
            let id = arena.intern(&e);
            let from_tree = EvalProgram::compile(&arena.extract(id));
            let from_arena = EvalProgram::compile_arena(&arena, id);
            assert_eq!(from_arena, from_tree, "tape divergence for `{src}`");
        }
    }

    #[test]
    fn compile_arena_advances_tape_counter() {
        let arena = ExprArena::new();
        let id = arena.intern(&"x ^ y".parse().unwrap());
        let before = engine_stats().tape_compiles;
        EvalProgram::compile_arena(&arena, id);
        assert!(engine_stats().tape_compiles > before);
    }

    #[test]
    fn engine_counters_advance() {
        let before = engine_stats();
        let p = EvalProgram::compile(&"x ^ y".parse().unwrap());
        p.eval_bits(&[0, u64::MAX]);
        p.eval_valuations(&[v(&[("x", 1), ("y", 2)])], 8).unwrap();
        let after = engine_stats();
        assert!(after.tape_compiles > before.tape_compiles);
        assert!(after.bit_parallel_passes > before.bit_parallel_passes);
        assert!(after.bit_parallel_rows >= before.bit_parallel_rows + 64);
        assert!(after.batch_passes > before.batch_passes);
        assert!(after.batch_rows > before.batch_rows);
    }
}
