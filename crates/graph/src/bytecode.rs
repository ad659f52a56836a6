//! A linear bytecode tier for lowered work functions.
//!
//! The paper's premise is that stream programs reward compilation — yet
//! the slot-resolved bodies of [`crate::lower`] were still *tree-walked*
//! per firing: every expression a `Box` dereference, every statement a
//! recursive call and a per-node `match`. This module flattens the
//! [`RStmt`]/[`RExpr`] tree **once at lowering** into a flat instruction
//! vector with resolved slot operands ([`ByteCode`]), executed by a tight
//! dispatch loop ([`exec`]) over the same two `Vec<Cell>` arrays — no
//! recursion, no pointer chasing, no per-node dispatch beyond one `match`
//! per opcode.
//!
//! Semantics are **bit-identical** to [`crate::lower::SlotInterp`] by
//! construction:
//!
//! * all arithmetic delegates to the shared [`bin_op`]/[`un_op`]/
//!   [`MathFn::call`] kernels, in the same evaluation order (right-hand
//!   sides before assignment indices, interleaved index conversion,
//!   short-circuit `&&`/`||`, single index evaluation for compound
//!   assignment and `++`/`--`);
//! * FLOP tallies fire through the same [`Host`] counting hooks with the
//!   same runtime values, so Measured and Fast modes agree with the
//!   tree-walker to the count;
//! * the fuel discipline is replicated exactly — one `Op::Spend` per
//!   statement plus one per loop-iteration check — so a program that
//!   exhausts its fuel budget does so at the same logical point.
//!
//! The executor is generic over [`Host`], so the runtime monomorphizes it
//! per tape discipline exactly as it does the tree-walker: certified
//! phases run with the unchecked window host, uncertified phases with the
//! fully checked one. `tests/interp_differential.rs` and
//! `tests/graph_fuzz.rs` pin the equivalence across the nine paper
//! benchmarks and fuzzed graphs, with the runtime's per-run interpreter
//! tier keeping the tree-walker available as the differential reference.
//!
//! On top of the linear opcodes the compiler fuses the benchmarks'
//! dominant firing pattern — the inner-product loop
//! `for (int v = lo; v < hi; v++) acc += a * b` of every windowed-sinc
//! FIR, matched filter and autocorrelation — into a single `Op::Dot`
//! superinstruction that runs the whole loop natively over the array
//! storage and the tape host. Recognition is structural; every
//! value-dependent precondition (int bounds, float accumulator,
//! in-range array accesses, fuel headroom) is re-checked at entry, and
//! a miss falls through to the generic bytecode for the same loop, so
//! the fusion is observationally invisible: same values, same tallies,
//! same fuel, same errors, same partial state on failure.

use streamlin_lang::ast::{BinOp, DataType, UnOp};

use crate::exec::{Flow, Host, IndexBuf};
use crate::lower::{RExpr, RLValue, RStmt, Slot, SlotStore};
use crate::value::{bin_op, un_op, ArrayVal, Cell, EvalError, MathFn, Value};

/// One instruction of the flat work-function program. Operands are fully
/// resolved (slots, constants, relative-free jump targets); the operand
/// stack holds plain [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Spend one unit of fuel (statement entry, loop-iteration check).
    Spend,
    /// Push a constant.
    Const(Value),
    /// Push the scalar at a slot.
    LoadVar(Slot),
    /// Pop `rank` indices, push the array element.
    LoadIndex(Slot, u32),
    /// Pop a value, store it into a scalar slot (coercing).
    StoreVar(Slot),
    /// Pop `rank` indices then the value beneath them, store the element.
    StoreIndex(Slot, u32),
    /// Pop the rhs, read-modify-write a scalar slot, push the old value.
    RmwVar(Slot, BinOp),
    /// Statement form of [`Op::RmwVar`]: discards the old value.
    RmwVarS(Slot, BinOp),
    /// Pop `rank` indices then the rhs, read-modify-write the element
    /// (single index evaluation), push the old value.
    RmwIndex(Slot, BinOp, u32),
    /// Statement form of [`Op::RmwIndex`].
    RmwIndexS(Slot, BinOp, u32),
    /// Install a fresh zeroed scalar in a frame slot.
    DeclScalar(u32, DataType),
    /// Pop `rank` dimension sizes, install a fresh zeroed array.
    DeclArray(u32, DataType, u32),
    /// Pop a value, apply it as a declaration initializer (coercing).
    DeclInit(u32),
    /// Pop a value, validate it as an index, push it back.
    ToIndex,
    /// Pop a value, validate it as a boolean, push it back.
    AsBool,
    /// Pop a value, apply a unary operator, push the result.
    Unary(UnOp),
    /// Pop two values, apply a (non-short-circuit) binary operator.
    Binary(BinOp),
    /// Pop the index, push `peek(i)`.
    Peek,
    /// Push `pop()`.
    PopTape,
    /// Pop a value, `push(v)` it, push `Int(0)` (the expression value).
    PushTape,
    /// Statement form of [`Op::PushTape`]: no expression value.
    PushTapeS,
    /// Pop `argc` arguments, apply a math intrinsic, push the result.
    Math(MathFn, u32),
    /// Pop a value, print it, push `Int(0)` (the expression value).
    Print(bool),
    /// Statement form of [`Op::Print`].
    PrintS(bool),
    /// Unconditional jump.
    Jump(u32),
    /// Pop a boolean; jump when false.
    BranchFalse(u32),
    /// Short-circuit `&&`: pop a boolean; when false, push
    /// `Bool(false)` and jump past the right operand.
    AndSC(u32),
    /// Short-circuit `||`: pop a boolean; when true, push `Bool(true)`
    /// and jump past the right operand.
    OrSC(u32),
    /// Pop and discard one value (expression statements).
    Discard,
    /// `return;` — end the firing with [`Flow::Return`].
    Return,
    /// Fused dot-product loop (index into [`ByteCode::dots`]). Falls
    /// through into the generic loop bytecode when a runtime
    /// precondition fails; jumps to [`DotSpec::exit`] when it ran.
    Dot(u32),
}

/// A bound of a fused dot-product loop: a literal or an int scalar read.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DotBound {
    /// Integer literal.
    Lit(i64),
    /// Scalar slot (must hold an `Int` at runtime, else fall back).
    Var(Slot),
}

/// One multiplicand of a fused dot-product loop body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DotOperand {
    /// `arr[v]` — a one-dimensional float array indexed by the counter.
    Arr(Slot),
    /// `peek(v)` — the tape at the counter.
    PeekIv,
    /// `peek(s)` — the tape at a loop-invariant int scalar (the loop
    /// writes only the counter and the accumulator, which cannot alias
    /// an int slot, so one read at entry is exact).
    PeekVar(Slot),
}

/// The shape of a fused inner-product loop,
/// `for (int v = lo; v < hi; v++) acc += a * b` — the dominant firing
/// pattern of the paper's benchmarks (every windowed-sinc FIR, every
/// matched filter, Vocoder's autocorrelation). Recognized structurally
/// at compile time; all value-dependent preconditions (int bounds,
/// float accumulator, array type/length, fuel headroom) are checked at
/// entry, with the generic bytecode for the same loop as the fallback.
#[derive(Debug, Clone, PartialEq)]
struct DotSpec {
    /// Frame slot of the counter (declared by the loop's own `init`).
    iv: u32,
    /// Initial counter value.
    lo: DotBound,
    /// Exclusive upper bound.
    hi: DotBound,
    /// Accumulator slot (must hold a float scalar at runtime).
    acc: Slot,
    /// Left multiplicand.
    a: DotOperand,
    /// Right multiplicand.
    b: DotOperand,
    /// Jump target past the generic fallback after a fast-path run.
    exit: u32,
}

/// A compiled work phase: the flat instruction vector plus the operand
/// stack high-water mark (so the executor allocates exactly once).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ByteCode {
    ops: Vec<Op>,
    max_stack: usize,
    /// Side table for [`Op::Dot`] (kept out of [`Op`] to keep the
    /// dispatch array's elements small).
    dots: Vec<DotSpec>,
}

impl ByteCode {
    /// Number of instructions (cost-model/debugging aid).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the phase compiled to no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Flattens a lowered body into bytecode. Infallible: every construct of
/// the resolved tree has a direct instruction sequence, and all static
/// errors were reported at lowering.
pub fn compile(body: &[RStmt]) -> ByteCode {
    let mut c = Compiler {
        ops: Vec::new(),
        depth: 0,
        max: 0,
        dots: Vec::new(),
    };
    for s in body {
        c.stmt(s);
    }
    debug_assert_eq!(c.depth, 0, "statements must be stack-neutral");
    ByteCode {
        ops: c.ops,
        max_stack: c.max,
        dots: c.dots,
    }
}

struct Compiler {
    ops: Vec<Op>,
    /// Operand-stack depth along the fall-through path.
    depth: usize,
    max: usize,
    dots: Vec<DotSpec>,
}

impl Compiler {
    fn emit(&mut self, op: Op, pops: usize, pushes: usize) {
        debug_assert!(self.depth >= pops, "operand stack underflow in {op:?}");
        self.depth = self.depth - pops + pushes;
        self.max = self.max.max(self.depth);
        self.ops.push(op);
    }

    /// Emits a branch with a placeholder target; returns its index for
    /// [`Compiler::patch`].
    fn hole(&mut self, op: Op, pops: usize, pushes: usize) -> usize {
        self.emit(op, pops, pushes);
        self.ops.len() - 1
    }

    /// Points the branch at `at` to the next instruction to be emitted.
    fn patch(&mut self, at: usize) {
        let target = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump(t) | Op::BranchFalse(t) | Op::AndSC(t) | Op::OrSC(t) => *t = target,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    fn stmt(&mut self, s: &RStmt) {
        if let Some(spec) = dot_candidate(s) {
            // Fused fast path first; the generic bytecode for the same
            // loop follows as its fall-through fallback, so any runtime
            // precondition miss (non-int bound, non-float accumulator,
            // short array, low fuel) re-runs with exact semantics.
            let d = self.dots.len();
            self.dots.push(spec);
            self.emit(Op::Dot(d as u32), 0, 0);
            self.generic_stmt(s);
            self.dots[d].exit = self.ops.len() as u32;
            return;
        }
        self.generic_stmt(s);
    }

    fn generic_stmt(&mut self, s: &RStmt) {
        // One fuel unit per statement, mirroring `SlotInterp::exec_stmt`.
        self.emit(Op::Spend, 0, 0);
        match s {
            RStmt::Decl {
                slot,
                base,
                dims,
                init,
                ..
            } => {
                if dims.is_empty() {
                    self.emit(Op::DeclScalar(*slot, *base), 0, 0);
                } else {
                    // Dimension evaluation interleaves with index
                    // validation, exactly as the tree-walker's
                    // `eval(d)?.as_index()?` loop.
                    for d in dims {
                        self.expr(d);
                        self.emit(Op::ToIndex, 1, 1);
                    }
                    self.emit(
                        Op::DeclArray(*slot, *base, dims.len() as u32),
                        dims.len(),
                        0,
                    );
                }
                if let Some(e) = init {
                    self.expr(e);
                    self.emit(Op::DeclInit(*slot), 1, 0);
                }
            }
            RStmt::Assign {
                target, op, value, ..
            } => {
                // The rhs evaluates before any lvalue index expressions.
                self.expr(value);
                match (op, target) {
                    (None, RLValue::Var(slot)) => self.emit(Op::StoreVar(*slot), 1, 0),
                    (None, RLValue::Index(slot, idx)) => {
                        self.indices(idx);
                        self.emit(Op::StoreIndex(*slot, idx.len() as u32), idx.len() + 1, 0);
                    }
                    (Some(op), RLValue::Var(slot)) => self.emit(Op::RmwVarS(*slot, *op), 1, 0),
                    (Some(op), RLValue::Index(slot, idx)) => {
                        self.indices(idx);
                        self.emit(
                            Op::RmwIndexS(*slot, *op, idx.len() as u32),
                            idx.len() + 1,
                            0,
                        );
                    }
                }
            }
            RStmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.expr(cond);
                let to_else = self.hole(Op::BranchFalse(0), 1, 0);
                for s in then_blk {
                    self.stmt(s);
                }
                match else_blk {
                    None => self.patch(to_else),
                    Some(else_blk) => {
                        let to_end = self.hole(Op::Jump(0), 0, 0);
                        self.patch(to_else);
                        for s in else_blk {
                            self.stmt(s);
                        }
                        self.patch(to_end);
                    }
                }
            }
            RStmt::While { cond, body, .. } => {
                let top = self.ops.len() as u32;
                // One fuel unit per iteration check, before the condition.
                self.emit(Op::Spend, 0, 0);
                self.expr(cond);
                let to_end = self.hole(Op::BranchFalse(0), 1, 0);
                for s in body {
                    self.stmt(s);
                }
                self.emit(Op::Jump(top), 0, 0);
                self.patch(to_end);
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let top = self.ops.len() as u32;
                self.emit(Op::Spend, 0, 0);
                let to_end = match cond {
                    Some(c) => {
                        self.expr(c);
                        Some(self.hole(Op::BranchFalse(0), 1, 0))
                    }
                    None => None,
                };
                for s in body {
                    self.stmt(s);
                }
                if let Some(s) = step {
                    self.stmt(s);
                }
                self.emit(Op::Jump(top), 0, 0);
                if let Some(h) = to_end {
                    self.patch(h);
                }
            }
            RStmt::Expr(e, _) => self.expr_stmt(e),
            RStmt::Return => self.emit(Op::Return, 0, 0),
        }
    }

    /// Compiles an expression whose value is discarded, fusing the
    /// discard into the producing opcode where one exists.
    fn expr_stmt(&mut self, e: &RExpr) {
        match e {
            RExpr::Push(v) => {
                self.expr(v);
                self.emit(Op::PushTapeS, 1, 0);
            }
            RExpr::Print { newline, arg } => {
                self.expr(arg);
                self.emit(Op::PrintS(*newline), 1, 0);
            }
            RExpr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                self.emit(Op::Const(Value::Int(1)), 0, 1);
                match target {
                    RLValue::Var(slot) => self.emit(Op::RmwVarS(*slot, op), 1, 0),
                    RLValue::Index(slot, idx) => {
                        self.indices(idx);
                        self.emit(Op::RmwIndexS(*slot, op, idx.len() as u32), idx.len() + 1, 0);
                    }
                }
            }
            other => {
                self.expr(other);
                self.emit(Op::Discard, 1, 0);
            }
        }
    }

    /// Compiles index expressions, validating each as it is produced
    /// (the tree-walker's interleaved `eval(e)?.as_index()?`).
    fn indices(&mut self, idx: &[RExpr]) {
        for e in idx {
            self.expr(e);
            self.emit(Op::ToIndex, 1, 1);
        }
    }

    /// Compiles an expression that leaves exactly one value on the stack.
    fn expr(&mut self, e: &RExpr) {
        match e {
            RExpr::Int(v) => self.emit(Op::Const(Value::Int(*v)), 0, 1),
            RExpr::Float(v) => self.emit(Op::Const(Value::Float(*v)), 0, 1),
            RExpr::Bool(v) => self.emit(Op::Const(Value::Bool(*v)), 0, 1),
            RExpr::Var(slot) => self.emit(Op::LoadVar(*slot), 0, 1),
            RExpr::Index(slot, idx) => {
                self.indices(idx);
                self.emit(Op::LoadIndex(*slot, idx.len() as u32), idx.len(), 1);
            }
            RExpr::Unary(op, e) => {
                self.expr(e);
                self.emit(Op::Unary(*op), 1, 1);
            }
            RExpr::Binary(BinOp::And, a, b) => {
                self.expr(a);
                // The taken path pushes Bool(false) and jumps; both paths
                // reach the merge with one value on the stack.
                let end = self.hole(Op::AndSC(0), 1, 0);
                self.expr(b);
                self.emit(Op::AsBool, 1, 1);
                self.patch(end);
            }
            RExpr::Binary(BinOp::Or, a, b) => {
                self.expr(a);
                let end = self.hole(Op::OrSC(0), 1, 0);
                self.expr(b);
                self.emit(Op::AsBool, 1, 1);
                self.patch(end);
            }
            RExpr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Op::Binary(*op), 2, 1);
            }
            RExpr::Peek(i) => {
                self.expr(i);
                self.emit(Op::Peek, 1, 1);
            }
            RExpr::Pop => self.emit(Op::PopTape, 0, 1),
            RExpr::Push(v) => {
                self.expr(v);
                self.emit(Op::PushTape, 1, 1);
            }
            RExpr::Math(f, args) => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Op::Math(*f, args.len() as u32), args.len(), 1);
            }
            RExpr::Print { newline, arg } => {
                self.expr(arg);
                self.emit(Op::Print(*newline), 1, 1);
            }
            RExpr::PostIncDec { target, inc } => {
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                self.emit(Op::Const(Value::Int(1)), 0, 1);
                match target {
                    RLValue::Var(slot) => self.emit(Op::RmwVar(*slot, op), 1, 1),
                    RLValue::Index(slot, idx) => {
                        self.indices(idx);
                        self.emit(Op::RmwIndex(*slot, op, idx.len() as u32), idx.len() + 1, 1);
                    }
                }
            }
        }
    }
}

/// Structurally matches `for (int v = lo; v < hi; v++) acc += a * b`
/// where `lo`/`hi` are literals or variables other than `v`, and `a`/`b`
/// are each `arr[v]`, `peek(v)` or `peek(s)`. Value-level preconditions
/// are left to runtime; this only guarantees the *shape* (in particular
/// that the loop writes nothing but `v` and `acc`, making single reads
/// of the bounds and any `peek(s)` index exact).
fn dot_candidate(s: &RStmt) -> Option<DotSpec> {
    let RStmt::For {
        init: Some(init),
        cond: Some(cond),
        step: Some(step),
        body,
        ..
    } = s
    else {
        return None;
    };
    let RStmt::Decl {
        slot: iv,
        base: DataType::Int,
        dims,
        init: Some(lo),
        ..
    } = &**init
    else {
        return None;
    };
    if !dims.is_empty() {
        return None;
    }
    let lo = dot_bound(lo, *iv)?;
    let RExpr::Binary(BinOp::Lt, cl, ch) = cond else {
        return None;
    };
    if **cl != RExpr::Var(Slot::Frame(*iv)) {
        return None;
    }
    let hi = dot_bound(ch, *iv)?;
    let counter = RLValue::Var(Slot::Frame(*iv));
    match &**step {
        RStmt::Expr(RExpr::PostIncDec { target, inc: true }, _) if *target == counter => {}
        RStmt::Assign {
            target,
            op: Some(BinOp::Add),
            value: RExpr::Int(1),
            ..
        } if *target == counter => {}
        _ => return None,
    }
    let [RStmt::Assign {
        target: RLValue::Var(acc),
        op: Some(BinOp::Add),
        value: RExpr::Binary(BinOp::Mul, a, b),
        ..
    }] = body.as_slice()
    else {
        return None;
    };
    if *acc == Slot::Frame(*iv) {
        return None;
    }
    Some(DotSpec {
        iv: *iv,
        lo,
        hi,
        acc: *acc,
        a: dot_operand(a, *iv)?,
        b: dot_operand(b, *iv)?,
        exit: 0, // patched once the generic fallback is laid out
    })
}

fn dot_bound(e: &RExpr, iv: u32) -> Option<DotBound> {
    match e {
        RExpr::Int(k) => Some(DotBound::Lit(*k)),
        // The counter's own (freshly declared) slot is excluded: its
        // value changes every iteration.
        RExpr::Var(s) if *s != Slot::Frame(iv) => Some(DotBound::Var(*s)),
        _ => None,
    }
}

fn dot_operand(e: &RExpr, iv: u32) -> Option<DotOperand> {
    match e {
        RExpr::Index(slot, idx) => match idx.as_slice() {
            [RExpr::Var(s)] if *s == Slot::Frame(iv) => Some(DotOperand::Arr(*slot)),
            _ => None,
        },
        RExpr::Peek(i) => match &**i {
            RExpr::Var(s) if *s == Slot::Frame(iv) => Some(DotOperand::PeekIv),
            RExpr::Var(s) => Some(DotOperand::PeekVar(*s)),
            _ => None,
        },
        _ => None,
    }
}

// ---- execution --------------------------------------------------------------

/// The FLOP-accounting rule of the tree-walker, verbatim: only operations
/// touching a float value count, bucketed by operator family.
#[inline]
fn count_binop<H: Host>(host: &mut H, op: BinOp, a: Value, b: Value) {
    if !(a.is_float() || b.is_float()) {
        return; // integer/boolean ops are not FP instructions
    }
    match op {
        BinOp::Add | BinOp::Sub => host.count_add(),
        BinOp::Mul => host.count_mul(),
        BinOp::Div => host.count_div(),
        BinOp::Rem => host.count_other(),               // fprem
        op if op.is_comparison() => host.count_other(), // fcom
        _ => {}
    }
}

/// Pops `rank` validated indices off the stack top into an index buffer.
#[inline]
fn take_indices(stack: &mut Vec<Value>, rank: usize) -> Result<IndexBuf, EvalError> {
    let start = stack.len() - rank;
    let mut idx = IndexBuf::default();
    for v in &stack[start..] {
        idx.push(v.as_index()?);
    }
    stack.truncate(start);
    Ok(idx)
}

#[inline]
fn array_cell_mut<'a>(
    store: &'a mut SlotStore<'_>,
    slot: Slot,
) -> Result<&'a mut ArrayVal, EvalError> {
    match store.cell_mut(slot) {
        Cell::Array(a) => Ok(a),
        Cell::Scalar(..) => Err(EvalError::new("variable is a scalar, not an array")),
    }
}

/// Shared-borrow cell read (the fused dot loop holds several at once).
#[inline]
fn cell_ref<'a>(store: &'a SlotStore<'_>, slot: Slot) -> &'a Cell {
    match slot {
        Slot::Global(i) => &store.globals[i as usize],
        Slot::Frame(i) => &store.frame[i as usize],
    }
}

/// Reads a loop bound; `None` (non-int value) falls back.
#[inline]
fn dot_bound_val(store: &SlotStore<'_>, b: DotBound) -> Option<i64> {
    match b {
        DotBound::Lit(k) => Some(k),
        DotBound::Var(s) => match cell_ref(store, s) {
            Cell::Scalar(_, Value::Int(v)) => Some(*v),
            _ => None,
        },
    }
}

/// A resolved multiplicand: borrowed array contents or a tape index.
enum DotSrc<'a> {
    Arr(&'a [Value]),
    PeekIv,
    PeekAt(usize),
}

/// Resolves an operand, proving every access the loop will make is one
/// the tree-walker would also accept (in-range counter indices for
/// arrays, a non-negative invariant index for `peek(s)`); `None` falls
/// back to the generic bytecode, which reproduces the exact error.
fn dot_src<'a>(store: &'a SlotStore<'_>, op: DotOperand, lo: i64, hi: i64) -> Option<DotSrc<'a>> {
    match op {
        DotOperand::Arr(slot) => match cell_ref(store, slot) {
            Cell::Array(a) if a.elem == DataType::Float && a.dims.len() == 1 => {
                if lo < hi && (lo < 0 || hi as u64 > a.data.len() as u64) {
                    return None;
                }
                Some(DotSrc::Arr(&a.data))
            }
            _ => None,
        },
        DotOperand::PeekIv => {
            if lo < hi && lo < 0 {
                return None; // as_index would reject a negative counter
            }
            Some(DotSrc::PeekIv)
        }
        DotOperand::PeekVar(s) => match cell_ref(store, s) {
            Cell::Scalar(_, Value::Int(v)) if *v >= 0 => Some(DotSrc::PeekAt(*v as usize)),
            _ => None,
        },
    }
}

#[inline(always)]
fn dot_read<H: Host>(src: &DotSrc<'_>, i: i64, host: &mut H) -> Result<f64, EvalError> {
    match *src {
        DotSrc::Arr(data) => match data[i as usize] {
            Value::Float(f) => Ok(f),
            // Float arrays hold floats by construction; mirror the
            // tree-walker's promotion for completeness.
            v => v.as_f64(),
        },
        DotSrc::PeekIv => host.peek(i as usize),
        DotSrc::PeekAt(j) => host.peek(j),
    }
}

/// Runs a fused dot-product loop. `Ok(Some(fuel))` means the fast path
/// ran to completion (counter and accumulator written back, fuel
/// charged exactly as the generic shape would); `Ok(None)` means a
/// precondition failed and the generic bytecode should run instead —
/// in that case **no** state was touched. A tape error mid-loop writes
/// back the partial accumulator and counter first, matching the
/// tree-walker's state at the same failure point.
fn run_dot<H: Host>(
    spec: &DotSpec,
    store: &mut SlotStore<'_>,
    host: &mut H,
    fuel: u64,
) -> Result<Option<u64>, EvalError> {
    let Some(lo) = dot_bound_val(store, spec.lo) else {
        return Ok(None);
    };
    let Some(hi) = dot_bound_val(store, spec.hi) else {
        return Ok(None);
    };
    let n = if hi > lo { (hi - lo) as u64 } else { 0 };
    // Fuel mirror of the generic shape: the `for` statement, the counter
    // declaration, one check + one body + one step per iteration, and
    // the final failed check.
    let Some(need) = n.checked_mul(3).and_then(|f| f.checked_add(3)) else {
        return Ok(None);
    };
    if fuel < need {
        return Ok(None); // let the generic loop exhaust fuel precisely
    }
    let mut acc = match cell_ref(store, spec.acc) {
        Cell::Scalar(DataType::Float, Value::Float(v)) => *v,
        _ => return Ok(None),
    };
    let mut i = lo;
    let end: Result<Option<()>, EvalError> = {
        match (
            dot_src(store, spec.a, lo, hi),
            dot_src(store, spec.b, lo, hi),
        ) {
            (Some(a), Some(b)) => loop {
                if i >= hi {
                    break Ok(Some(()));
                }
                let x = match dot_read(&a, i, host) {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                };
                let y = match dot_read(&b, i, host) {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                };
                host.count_mul();
                host.count_add();
                acc += x * y;
                i += 1;
            },
            _ => Ok(None),
        }
    };
    match end {
        Ok(None) => Ok(None),
        Ok(Some(())) => {
            write_dot_state(store, spec, acc, i);
            Ok(Some(fuel - need))
        }
        Err(e) => {
            write_dot_state(store, spec, acc, i);
            Err(e)
        }
    }
}

/// Writes the counter (fresh declaration semantics) and accumulator
/// back to their slots.
fn write_dot_state(store: &mut SlotStore<'_>, spec: &DotSpec, acc: f64, i: i64) {
    store.frame[spec.iv as usize] = Cell::Scalar(DataType::Int, Value::Int(i));
    match store.cell_mut(spec.acc) {
        Cell::Scalar(_, v) => *v = Value::Float(acc),
        Cell::Array(_) => unreachable!("checked float scalar at loop entry"),
    }
}

/// Executes a compiled work phase over slot storage, driving the same
/// [`Host`] protocol (tape access, printing, FLOP tallies) and the same
/// fuel discipline as [`crate::lower::SlotInterp::exec_work`].
///
/// # Errors
///
/// Propagates any [`EvalError`], with messages identical to the
/// tree-walker's (the differential suites compare failure text too).
pub fn exec<H: Host>(
    code: &ByteCode,
    store: &mut SlotStore<'_>,
    host: &mut H,
    mut fuel: u64,
) -> Result<Flow, EvalError> {
    let mut stack: Vec<Value> = Vec::with_capacity(code.max_stack);
    let ops = code.ops.as_slice();
    let mut pc = 0usize;
    while let Some(op) = ops.get(pc) {
        pc += 1;
        match op {
            Op::Spend => {
                if fuel == 0 {
                    return Err(EvalError::new(
                        "execution fuel exhausted (possible infinite loop)",
                    ));
                }
                fuel -= 1;
            }
            Op::Const(v) => stack.push(*v),
            Op::LoadVar(slot) => match store.cell_mut(*slot) {
                Cell::Scalar(_, v) => stack.push(*v),
                Cell::Array(_) => {
                    return Err(EvalError::new(
                        "variable is an array; index it to read an element",
                    ))
                }
            },
            Op::LoadIndex(slot, rank) => {
                let idx = take_indices(&mut stack, *rank as usize)?;
                let a = array_cell_mut(store, *slot)?;
                stack.push(a.get(idx.as_slice())?);
            }
            Op::StoreVar(slot) => {
                let v = stack.pop().expect("stack sized at compile time");
                match store.cell_mut(*slot) {
                    Cell::Scalar(ty, cur) => *cur = v.coerce_to(*ty)?,
                    Cell::Array(_) => {
                        return Err(EvalError::new("cannot assign a scalar to an array"))
                    }
                }
            }
            Op::StoreIndex(slot, rank) => {
                let idx = take_indices(&mut stack, *rank as usize)?;
                let v = stack.pop().expect("stack sized at compile time");
                let a = array_cell_mut(store, *slot)?;
                a.set(idx.as_slice(), v)?;
            }
            Op::RmwVar(slot, op) => {
                let rhs = stack.pop().expect("stack sized at compile time");
                let cur = rmw_var(store, host, *slot, *op, rhs)?;
                stack.push(cur);
            }
            Op::RmwVarS(slot, op) => {
                let rhs = stack.pop().expect("stack sized at compile time");
                rmw_var(store, host, *slot, *op, rhs)?;
            }
            Op::RmwIndex(slot, op, rank) => {
                let idx = take_indices(&mut stack, *rank as usize)?;
                let rhs = stack.pop().expect("stack sized at compile time");
                let cur = rmw_index(store, host, *slot, *op, &idx, rhs)?;
                stack.push(cur);
            }
            Op::RmwIndexS(slot, op, rank) => {
                let idx = take_indices(&mut stack, *rank as usize)?;
                let rhs = stack.pop().expect("stack sized at compile time");
                rmw_index(store, host, *slot, *op, &idx, rhs)?;
            }
            Op::DeclScalar(slot, base) => {
                store.frame[*slot as usize] = Cell::Scalar(*base, Value::zero_of(*base));
            }
            Op::DeclArray(slot, base, rank) => {
                let start = stack.len() - *rank as usize;
                let mut sizes = Vec::with_capacity(*rank as usize);
                for v in &stack[start..] {
                    sizes.push(v.as_index()?);
                }
                stack.truncate(start);
                store.frame[*slot as usize] = Cell::Array(ArrayVal::zeros(*base, sizes));
            }
            Op::DeclInit(slot) => {
                let v = stack.pop().expect("stack sized at compile time");
                match &mut store.frame[*slot as usize] {
                    Cell::Scalar(ty, cur) => *cur = v.coerce_to(*ty)?,
                    Cell::Array(_) => {
                        return Err(EvalError::new("cannot assign a scalar to an array"))
                    }
                }
            }
            Op::ToIndex => {
                let v = stack.pop().expect("stack sized at compile time");
                stack.push(Value::Int(v.as_index()? as i64));
            }
            Op::AsBool => {
                let v = stack.pop().expect("stack sized at compile time");
                stack.push(Value::Bool(v.as_bool()?));
            }
            Op::Unary(op) => {
                let v = stack.pop().expect("stack sized at compile time");
                if *op == UnOp::Neg && v.is_float() {
                    host.count_other(); // fchs
                }
                stack.push(un_op(*op, v)?);
            }
            Op::Binary(op) => {
                let y = stack.pop().expect("stack sized at compile time");
                let x = stack.pop().expect("stack sized at compile time");
                count_binop(host, *op, x, y);
                stack.push(bin_op(*op, x, y)?);
            }
            Op::Peek => {
                let i = stack.pop().expect("stack sized at compile time");
                stack.push(Value::Float(host.peek(i.as_index()?)?));
            }
            Op::PopTape => stack.push(Value::Float(host.pop()?)),
            Op::PushTape => {
                let v = stack.pop().expect("stack sized at compile time");
                host.push(v.as_f64()?)?;
                // `push` has no value; Int(0) keeps it harmless in
                // expression position.
                stack.push(Value::Int(0));
            }
            Op::PushTapeS => {
                let v = stack.pop().expect("stack sized at compile time");
                host.push(v.as_f64()?)?;
            }
            Op::Math(f, argc) => {
                // Arity was validated at lowering and never exceeds 2.
                let argc = *argc as usize;
                let start = stack.len() - argc;
                let mut vals = [Value::Int(0); 2];
                vals[..argc].copy_from_slice(&stack[start..]);
                stack.truncate(start);
                let r = f.call(&vals[..argc])?;
                if r.is_float() {
                    host.count_other(); // transcendental FP instruction
                }
                stack.push(r);
            }
            Op::Print(newline) => {
                let v = stack.pop().expect("stack sized at compile time");
                host.print(v, *newline)?;
                stack.push(Value::Int(0));
            }
            Op::PrintS(newline) => {
                let v = stack.pop().expect("stack sized at compile time");
                host.print(v, *newline)?;
            }
            Op::Jump(t) => pc = *t as usize,
            Op::BranchFalse(t) => {
                let v = stack.pop().expect("stack sized at compile time");
                if !v.as_bool()? {
                    pc = *t as usize;
                }
            }
            Op::AndSC(t) => {
                let v = stack.pop().expect("stack sized at compile time");
                if !v.as_bool()? {
                    stack.push(Value::Bool(false));
                    pc = *t as usize;
                }
            }
            Op::OrSC(t) => {
                let v = stack.pop().expect("stack sized at compile time");
                if v.as_bool()? {
                    stack.push(Value::Bool(true));
                    pc = *t as usize;
                }
            }
            Op::Discard => {
                stack.pop().expect("stack sized at compile time");
            }
            Op::Return => return Ok(Flow::Return),
            Op::Dot(d) => {
                let spec = &code.dots[*d as usize];
                // `None` falls through into the generic loop laid after
                // this op, which re-runs the statement from scratch.
                if let Some(left) = run_dot(spec, store, host, fuel)? {
                    fuel = left;
                    pc = spec.exit as usize;
                }
            }
        }
    }
    Ok(Flow::Normal)
}

/// Compound assignment / `++`/`--` on a scalar slot; returns the prior
/// value (the expression value of `PostIncDec`).
#[inline(always)]
fn rmw_var<H: Host>(
    store: &mut SlotStore<'_>,
    host: &mut H,
    slot: Slot,
    op: BinOp,
    rhs: Value,
) -> Result<Value, EvalError> {
    let cur = match store.cell_mut(slot) {
        Cell::Scalar(_, v) => *v,
        Cell::Array(_) => {
            return Err(EvalError::new(
                "variable is an array; index it to read an element",
            ))
        }
    };
    count_binop(host, op, cur, rhs);
    let next = bin_op(op, cur, rhs)?;
    match store.cell_mut(slot) {
        Cell::Scalar(ty, cell) => *cell = next.coerce_to(*ty)?,
        Cell::Array(_) => unreachable!("checked scalar above"),
    }
    Ok(cur)
}

/// Compound assignment / `++`/`--` on an array element (single index
/// evaluation); returns the prior value.
#[inline(always)]
fn rmw_index<H: Host>(
    store: &mut SlotStore<'_>,
    host: &mut H,
    slot: Slot,
    op: BinOp,
    idx: &IndexBuf,
    rhs: Value,
) -> Result<Value, EvalError> {
    let a = array_cell_mut(store, slot)?;
    let cur = a.get(idx.as_slice())?;
    count_binop(host, op, cur, rhs);
    let next = bin_op(op, cur, rhs)?;
    a.set(idx.as_slice(), next)?;
    Ok(cur)
}
