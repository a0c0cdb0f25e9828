//! Flat register-style bytecode produced by [`crate::compile`] and executed
//! by [`crate::vm`].
//!
//! Each function (kernel or helper) lowers to a linear instruction stream
//! over an unbounded virtual register file.  Registers hold [`Value`]s; named
//! variables get a fixed register for their whole scope, expression
//! temporaries get fresh registers.  Control flow is explicit jumps, so the
//! VM's inner loop is a tight `match` over instructions instead of an AST
//! walk — this is what makes work-item batching in the inner loop cheap.
//!
//! Builtins are resolved at lowering time: work-item queries carry a
//! [`WorkItemFn`] tag, atomics an [`AtomicOp`], and `barrier()` becomes the
//! explicit [`Inst::Barrier`] instruction that the VM uses to suspend and
//! resume work-items in phases.

use crate::ast::{BinOp, UnOp};
use crate::error::Location;
use crate::types::{ScalarType, Type};
use crate::value::{Pointer, Scalar, Value};

/// A virtual register index within the current frame.
pub(crate) type Reg = u32;

/// Work-item query builtins, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkItemFn {
    GlobalId,
    LocalId,
    GroupId,
    GlobalSize,
    LocalSize,
    NumGroups,
    GlobalOffset,
    WorkDim,
}

/// Atomic read-modify-write builtins, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtomicOp {
    Add,
    Sub,
    Xchg,
    Min,
    Max,
}

/// One bytecode instruction.
///
/// Conventions: `dst` registers are always written, operand registers are
/// only read.  Memory operands are `Value::Ptr` registers; `index` scales by
/// the pointee size exactly like the interpreter's place resolution.
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// `dst = value` (literals and resolved builtin constants).
    Const { dst: Reg, value: Value },
    /// `dst = src` (register copy).
    Move { dst: Reg, src: Reg },
    /// `dst = (ty)src` — C-style conversion via `Value::convert_to`.
    Convert { dst: Reg, src: Reg, ty: Type },
    /// `dst = lhs op rhs` with the interpreter's promotion rules.
    Binary { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg },
    /// `dst = op src`.
    Unary { op: UnOp, dst: Reg, src: Reg },
    /// `dst = int(bool(src))` — normalises logical-operator results.
    Bool { dst: Reg, src: Reg },
    /// `dst = ptr[index]` (or `*ptr` when `index` is `None`).
    Load { dst: Reg, ptr: Reg, index: Option<Reg> },
    /// `ptr[index] = src` (or `*ptr = src`).
    Store { ptr: Reg, index: Option<Reg>, src: Reg },
    /// `dst = src.<lanes>` — vector component read / swizzle.
    Swizzle { dst: Reg, src: Reg, lanes: Vec<usize> },
    /// `dst.<lane> = src` — component write into a named vector register.
    SetLane { dst: Reg, lane: usize, src: Reg },
    /// `dst = (ty<width>)(args...)` — vector constructor with splat rules.
    VecCtor { dst: Reg, ty: ScalarType, width: u8, args: Vec<Reg> },
    /// Call a user function by compiled-function index.
    CallUser { dst: Reg, func: usize, args: Vec<Reg> },
    /// Call a pure math builtin by name.
    CallMath { dst: Reg, name: String, args: Vec<Reg> },
    /// `dst = get_*([dim])` work-item query.
    WorkItem { dst: Reg, which: WorkItemFn, dim: Option<Reg> },
    /// Atomic read-modify-write through a pointer; `dst` receives the old
    /// value.  `operand` defaults to `int 1` (the `atomic_inc` family).
    Atomic { op: AtomicOp, dst: Reg, ptr: Reg, operand: Option<Reg> },
    /// Work-group barrier: suspend this work-item until every item in the
    /// group reaches the same barrier.
    Barrier,
    /// Unconditional jump to instruction index `target`.
    Jump { target: usize },
    /// Jump to `target` when `cond` is falsy.
    JumpIfFalse { cond: Reg, target: usize },
    /// Jump to `target` when `cond` is truthy.
    JumpIfTrue { cond: Reg, target: usize },
    /// Return from the current frame (kernels always return `None`).
    Return { src: Option<Reg> },
}

// ---------------------------------------------------------------------------
// Quickened execution format
// ---------------------------------------------------------------------------
//
// [`Inst`] is the architectural bytecode: readable, debuggable, with inline
// heap payloads (constant `Value`s, lane lists, argument lists).  Executing
// it directly makes every dispatch drag those payloads along and every
// register write pay `Value`'s clone/drop glue.  `quicken` therefore decodes
// the stream **once per build** into fixed-size `Copy` instructions
// ([`QInst`], one per `Inst`, same indices — so jump targets and the
// per-instruction source-location table carry over unchanged) over a `Copy`
// register representation ([`Slot`]), with the rare heap payloads moved into
// side pools.  The VM executes only the quickened form; launches never pay
// for decoding.

/// Sentinel for "no register" in optional operand fields ([`QInst::Load`]
/// index, [`QInst::Return`] source, ...).
pub(crate) const NO_REG: Reg = Reg::MAX;

/// A `Copy` register slot.  Scalars and pointers are stored inline; vector
/// values live out of line in the frame's vector arena, where each register
/// owns the arena entry of its own index (`Slot::Vector` in register `r`
/// means "the lanes are in `vecs[r]`").  Keeping slots `Copy` is what makes
/// register moves plain 24-byte stores instead of clone + drop-glue calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// A typed scalar, stored inline.
    Scalar(ScalarType, Scalar),
    /// A pointer into a buffer, stored inline.
    Ptr(Pointer),
    /// A vector whose lanes live in the frame arena at this register's index.
    Vector,
    /// The absence of a value (`void` returns, uninitialised registers).
    Void,
}

/// One quickened instruction.  Fixed-size and `Copy`; anything that would
/// need a heap payload refers into the [`QuickFunction`] pools instead.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QInst {
    /// `dst = slot` — scalar / pointer / void constants, inline.
    Const { dst: Reg, slot: Slot },
    /// `dst = vec_consts[pool]` — vector-valued constants (cold).
    ConstVec { dst: Reg, pool: u32 },
    /// `dst = src`.
    Move { dst: Reg, src: Reg },
    /// `dst = (ty)src` for scalar targets — the hot conversion (every
    /// variable assignment emits one).
    ConvertScalar { dst: Reg, src: Reg, ty: ScalarType },
    /// `dst = (types[pool])src` for vector / pointer targets.
    Convert { dst: Reg, src: Reg, pool: u32 },
    /// `dst = lhs op rhs`.
    Binary { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg },
    /// `dst = op src`.
    Unary { op: UnOp, dst: Reg, src: Reg },
    /// `dst = int(bool(src))`.
    Bool { dst: Reg, src: Reg },
    /// `dst = ptr[index]` (`index == NO_REG` means `*ptr`).
    Load { dst: Reg, ptr: Reg, index: Reg },
    /// `ptr[index] = src` (`index == NO_REG` means `*ptr`).
    Store { ptr: Reg, index: Reg, src: Reg },
    /// `dst = src.<lane>` — single-component read, the hot swizzle.
    Lane { dst: Reg, src: Reg, lane: u32 },
    /// `dst = src.<lane_lists[pool]>` — multi-component swizzle.
    Swizzle { dst: Reg, src: Reg, pool: u32 },
    /// `dst.<lane> = src`.
    SetLane { dst: Reg, lane: u32, src: Reg },
    /// `dst = (ty<width>)(reg_lists[pool]...)`.
    VecCtor { dst: Reg, ty: ScalarType, width: u8, pool: u32 },
    /// Call helper function `func` with arguments `reg_lists[pool]`.
    CallUser { dst: Reg, func: u32, pool: u32 },
    /// Call the math builtin described by `math_calls[pool]`.
    CallMath { dst: Reg, pool: u32 },
    /// `dst = get_*([dim])` (`dim == NO_REG` means no dimension argument).
    WorkItem { dst: Reg, which: WorkItemFn, dim: Reg },
    /// Atomic read-modify-write (`operand == NO_REG` means the implicit 1).
    Atomic { op: AtomicOp, dst: Reg, ptr: Reg, operand: Reg },
    /// Work-group barrier.
    Barrier,
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump when `cond` is falsy.
    JumpIfFalse { cond: Reg, target: u32 },
    /// Jump when `cond` is truthy.
    JumpIfTrue { cond: Reg, target: u32 },
    /// Return from the frame (`src == NO_REG` means no value).
    Return { src: Reg },
    /// Padding left behind by [`fuse`]; never executed (the preceding fused
    /// instruction advances `pc` past it), only keeps indices aligned with
    /// the location table and jump targets.
    Nop,
    /// Fused `Const` + `Binary` with the constant on the right:
    /// `cdst = imms[imm]; dst = lhs op cdst`.  The constant lives in the
    /// [`QuickFunction::imms`] pool so this variant does not grow [`QInst`].
    BinaryImmR { op: BinOp, dst: Reg, lhs: Reg, cdst: Reg, imm: u32 },
    /// Fused `Const` + `Binary` with the constant on the left:
    /// `cdst = imms[imm]; dst = cdst op rhs`.
    BinaryImmL { op: BinOp, dst: Reg, cdst: Reg, rhs: Reg, imm: u32 },
    /// Fused `Binary` + `JumpIfFalse` on its result.
    BinaryJf { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg, target: u32 },
    /// Fused `Binary` + `JumpIfTrue` on its result.
    BinaryJt { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg, target: u32 },
    /// Fused `Binary` + `ConvertScalar` of its result: `dst = lhs op rhs;
    /// cdst = (ty)dst`.
    BinaryCvt { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg, cdst: Reg, ty: ScalarType },
    /// Fused `Mul` + `Mul` + `Add`/`Sub` over the two products:
    /// `t1 = a * b; t2 = c * d; dst = t1 op t2`.  Both temporaries are still
    /// written, so the fusion is invisible to any other reader and every
    /// error surfaces at its original instruction's location.
    MulMulOp { op: BinOp, dst: Reg, t1: Reg, a: Reg, b: Reg, t2: Reg, c: Reg, d: Reg },
    /// Fused `Const` + `Binary` + `JumpIfFalse` on the result:
    /// `cdst = imms[imm]; dst = lhs op cdst; if !dst jump target`.
    BinaryImmJf { op: BinOp, dst: Reg, lhs: Reg, cdst: Reg, imm: u32, target: u32 },
    /// Fused `Const` + `Binary` + `ConvertScalar` of the result:
    /// `cdst = imms[imm]; dst = lhs op cdst; vdst = (ty)dst`.
    BinaryImmCvt { op: BinOp, dst: Reg, lhs: Reg, cdst: Reg, imm: u32, vdst: Reg, ty: ScalarType },
}

/// A quickened function body: the `Copy` instruction stream plus the side
/// pools its instructions index into.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuickFunction {
    /// Quickened stream, index-for-index parallel to [`CompiledFunction::insts`].
    pub insts: Vec<QInst>,
    /// Vector-valued constants ([`QInst::ConstVec`]).
    pub vec_consts: Vec<Value>,
    /// Conversion targets that are not plain scalars ([`QInst::Convert`]).
    pub types: Vec<Type>,
    /// Multi-component swizzle lane lists ([`QInst::Swizzle`]).
    pub lane_lists: Vec<Vec<usize>>,
    /// Argument registers for calls and vector constructors.
    pub reg_lists: Vec<Vec<Reg>>,
    /// Math-builtin calls: name and argument registers ([`QInst::CallMath`]).
    pub math_calls: Vec<(String, Vec<Reg>)>,
    /// Immediate operands of fused instructions ([`QInst::BinaryImmR`] /
    /// [`QInst::BinaryImmL`]).
    pub imms: Vec<Slot>,
}

/// Decode an [`Inst`] stream into its quickened form.  Runs once per
/// [`crate::Program::build`]; the mapping is 1:1 so jump targets and the
/// location table stay valid without rewriting.
pub(crate) fn quicken(insts: &[Inst]) -> QuickFunction {
    let mut q = QuickFunction { insts: Vec::with_capacity(insts.len()), ..Default::default() };
    for inst in insts {
        let qi = match inst {
            Inst::Const { dst, value } => match value {
                Value::Scalar(t, s) => QInst::Const { dst: *dst, slot: Slot::Scalar(*t, *s) },
                Value::Ptr(p) => QInst::Const { dst: *dst, slot: Slot::Ptr(*p) },
                Value::Void => QInst::Const { dst: *dst, slot: Slot::Void },
                Value::Vector(..) => {
                    q.vec_consts.push(value.clone());
                    QInst::ConstVec { dst: *dst, pool: (q.vec_consts.len() - 1) as u32 }
                }
            },
            Inst::Move { dst, src } => QInst::Move { dst: *dst, src: *src },
            Inst::Convert { dst, src, ty } => match ty {
                Type::Scalar(st) => QInst::ConvertScalar { dst: *dst, src: *src, ty: *st },
                other => {
                    q.types.push(other.clone());
                    QInst::Convert { dst: *dst, src: *src, pool: (q.types.len() - 1) as u32 }
                }
            },
            Inst::Binary { op, dst, lhs, rhs } => {
                QInst::Binary { op: *op, dst: *dst, lhs: *lhs, rhs: *rhs }
            }
            Inst::Unary { op, dst, src } => QInst::Unary { op: *op, dst: *dst, src: *src },
            Inst::Bool { dst, src } => QInst::Bool { dst: *dst, src: *src },
            Inst::Load { dst, ptr, index } => {
                QInst::Load { dst: *dst, ptr: *ptr, index: index.unwrap_or(NO_REG) }
            }
            Inst::Store { ptr, index, src } => {
                QInst::Store { ptr: *ptr, index: index.unwrap_or(NO_REG), src: *src }
            }
            Inst::Swizzle { dst, src, lanes } if lanes.len() == 1 => {
                QInst::Lane { dst: *dst, src: *src, lane: lanes[0] as u32 }
            }
            Inst::Swizzle { dst, src, lanes } => {
                q.lane_lists.push(lanes.clone());
                QInst::Swizzle { dst: *dst, src: *src, pool: (q.lane_lists.len() - 1) as u32 }
            }
            Inst::SetLane { dst, lane, src } => {
                QInst::SetLane { dst: *dst, lane: *lane as u32, src: *src }
            }
            Inst::VecCtor { dst, ty, width, args } => {
                q.reg_lists.push(args.clone());
                QInst::VecCtor {
                    dst: *dst,
                    ty: *ty,
                    width: *width,
                    pool: (q.reg_lists.len() - 1) as u32,
                }
            }
            Inst::CallUser { dst, func, args } => {
                q.reg_lists.push(args.clone());
                QInst::CallUser {
                    dst: *dst,
                    func: *func as u32,
                    pool: (q.reg_lists.len() - 1) as u32,
                }
            }
            Inst::CallMath { dst, name, args } => {
                q.math_calls.push((name.clone(), args.clone()));
                QInst::CallMath { dst: *dst, pool: (q.math_calls.len() - 1) as u32 }
            }
            Inst::WorkItem { dst, which, dim } => {
                QInst::WorkItem { dst: *dst, which: *which, dim: dim.unwrap_or(NO_REG) }
            }
            Inst::Atomic { op, dst, ptr, operand } => {
                QInst::Atomic { op: *op, dst: *dst, ptr: *ptr, operand: operand.unwrap_or(NO_REG) }
            }
            Inst::Barrier => QInst::Barrier,
            Inst::Jump { target } => QInst::Jump { target: *target as u32 },
            Inst::JumpIfFalse { cond, target } => {
                QInst::JumpIfFalse { cond: *cond, target: *target as u32 }
            }
            Inst::JumpIfTrue { cond, target } => {
                QInst::JumpIfTrue { cond: *cond, target: *target as u32 }
            }
            Inst::Return { src } => QInst::Return { src: src.unwrap_or(NO_REG) },
        };
        q.insts.push(qi);
    }
    fuse(&mut q);
    q
}

/// Superinstruction pass: greedily fuse adjacent triples and pairs into one
/// dispatch, replacing the consumed instructions with [`QInst::Nop`] so
/// every index (and with it the location table and all jump targets) stays
/// put.  A group is only fused when none of its trailing instructions is a
/// jump target — a fused instruction advances `pc` past its padding, so
/// control must never be able to land on it.  Every fused form still writes
/// all the intermediate registers the original sequence wrote and evaluates
/// in the original order, so fusion is invisible to other readers and to
/// error reporting.
fn fuse(q: &mut QuickFunction) {
    let QuickFunction { insts, imms, .. } = q;
    let mut is_target = vec![false; insts.len()];
    for inst in insts.iter() {
        let t = match *inst {
            QInst::Jump { target }
            | QInst::JumpIfFalse { target, .. }
            | QInst::JumpIfTrue { target, .. } => target,
            _ => continue,
        };
        if let Some(flag) = is_target.get_mut(t as usize) {
            *flag = true;
        }
    }

    let mut i = 0;
    while i + 1 < insts.len() {
        if is_target[i + 1] {
            i += 1;
            continue;
        }
        // Triples first, so a pair rule does not eat the head of a longer
        // pattern.
        if i + 2 < insts.len() && !is_target[i + 2] {
            let fused3 = match (insts[i], insts[i + 1], insts[i + 2]) {
                // `t1 = a * b; t2 = c * d; dst = t1 op t2` — the polynomial
                // step shape (`zr*zr + zi*zi`, dot products, ...).
                (
                    QInst::Binary { op: BinOp::Mul, dst: t1, lhs: a, rhs: b },
                    QInst::Binary { op: BinOp::Mul, dst: t2, lhs: c, rhs: d },
                    QInst::Binary { op, dst, lhs, rhs },
                ) if (op == BinOp::Add || op == BinOp::Sub)
                    && lhs == t1
                    && rhs == t2
                    && t1 != t2
                    && c != t1
                    && d != t1 =>
                {
                    Some(QInst::MulMulOp { op, dst, t1, a, b, t2, c, d })
                }
                // Constant compared / combined and immediately branched on
                // (`while (x <= 4.0f)` loop headers).
                (
                    QInst::Const { dst: c, slot },
                    QInst::Binary { op, dst, lhs, rhs },
                    QInst::JumpIfFalse { cond, target },
                ) if rhs == c && lhs != c && cond == dst => {
                    imms.push(slot);
                    Some(QInst::BinaryImmJf {
                        op,
                        dst,
                        lhs,
                        cdst: c,
                        imm: (imms.len() - 1) as u32,
                        target,
                    })
                }
                // Constant combined and the result converted into a typed
                // variable (`iter = iter + 1` counter updates).
                (
                    QInst::Const { dst: c, slot },
                    QInst::Binary { op, dst, lhs, rhs },
                    QInst::ConvertScalar { dst: vdst, src, ty },
                ) if rhs == c && lhs != c && src == dst => {
                    imms.push(slot);
                    Some(QInst::BinaryImmCvt {
                        op,
                        dst,
                        lhs,
                        cdst: c,
                        imm: (imms.len() - 1) as u32,
                        vdst,
                        ty,
                    })
                }
                _ => None,
            };
            if let Some(f) = fused3 {
                insts[i] = f;
                insts[i + 1] = QInst::Nop;
                insts[i + 2] = QInst::Nop;
                i += 3;
                continue;
            }
        }
        let fused = match (insts[i], insts[i + 1]) {
            // A constant feeding the next binary op becomes an immediate
            // operand; the constant register is still written, so any other
            // (unexpected) reader stays correct.
            (QInst::Const { dst: c, slot }, QInst::Binary { op, dst, lhs, rhs })
                if rhs == c && lhs != c =>
            {
                imms.push(slot);
                Some(QInst::BinaryImmR { op, dst, lhs, cdst: c, imm: (imms.len() - 1) as u32 })
            }
            (QInst::Const { dst: c, slot }, QInst::Binary { op, dst, lhs, rhs })
                if lhs == c && rhs != c =>
            {
                imms.push(slot);
                Some(QInst::BinaryImmL { op, dst, cdst: c, rhs, imm: (imms.len() - 1) as u32 })
            }
            // A binary op whose result is immediately branched on (loop and
            // `if` conditions after short-circuit lowering).
            (QInst::Binary { op, dst, lhs, rhs }, QInst::JumpIfFalse { cond, target })
                if cond == dst =>
            {
                Some(QInst::BinaryJf { op, dst, lhs, rhs, target })
            }
            (QInst::Binary { op, dst, lhs, rhs }, QInst::JumpIfTrue { cond, target })
                if cond == dst =>
            {
                Some(QInst::BinaryJt { op, dst, lhs, rhs, target })
            }
            // A binary op whose result is immediately converted (every
            // arithmetic assignment lowers to this shape).
            (QInst::Binary { op, dst, lhs, rhs }, QInst::ConvertScalar { dst: cd, src, ty })
                if src == dst =>
            {
                Some(QInst::BinaryCvt { op, dst, lhs, rhs, cdst: cd, ty })
            }
            _ => None,
        };
        match fused {
            Some(f) => {
                insts[i] = f;
                insts[i + 1] = QInst::Nop;
                i += 2;
            }
            None => i += 1,
        }
    }
}

/// A lowered function body: instructions plus per-instruction source
/// locations (used only on error paths) and frame metadata.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFunction {
    /// Function name (for diagnostics).
    pub name: String,
    /// Quickened stream the VM executes, decoded once at build from the
    /// architectural [`Inst`] form (see [`quicken`]).
    pub quick: QuickFunction,
    /// Source location per instruction, attached to runtime errors.
    pub locs: Vec<Location>,
    /// Size of the register file a frame needs.
    pub num_regs: usize,
    /// Declared parameter types; arguments are converted on call.
    pub param_types: Vec<Type>,
    /// Declared parameter names (for argument-binding diagnostics).
    pub param_names: Vec<String>,
    /// Declared return type; return values are converted on return.
    pub return_type: Type,
}

/// A lowered kernel: the function body plus the launch-relevant facts the
/// driver needs to pick an execution strategy.
#[derive(Debug, Clone)]
pub(crate) struct CompiledKernel {
    /// The kernel body (and `param_types` for argument binding).
    pub func: CompiledFunction,
    /// The kernel (or a helper it calls) executes `barrier()`.
    pub has_barrier: bool,
    /// The kernel observes work-group shape (`get_local_id`,
    /// `get_local_size`, `get_group_id`, `get_num_groups`), so the driver
    /// must not re-chunk an unspecified local size.
    pub observes_group_shape: bool,
    /// The lane executor's typing of the kernel, when it is eligible
    /// ([`crate::lanes::analyze`]); `None` keeps it on the per-item path.
    pub lanes: Option<crate::lanes::LaneKernel>,
    /// The most VM steps one work-item can take ([`step_bound`]); `None`
    /// when the kernel, or a helper it calls, may loop.
    pub step_bound: Option<u64>,
}

/// All lowered functions of a translation unit.  Kernels are keyed by their
/// [`crate::ast::FunctionIndex`] position; helpers by their compiled index
/// (referenced from [`Inst::CallUser`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledUnit {
    /// Non-kernel helper functions, indexed by `Inst::CallUser::func`.
    pub functions: Vec<CompiledFunction>,
    /// Kernels keyed by AST function index.
    pub kernels: std::collections::HashMap<usize, CompiledKernel>,
}

/// Prove the invariants the VM's dispatch loop relies on to skip bounds
/// checks (see the `trusted` helpers in [`crate::vm`]):
///
/// * every register operand is `< num_regs` (or the `NO_REG` sentinel where
///   the instruction allows one), including registers inside pooled lists;
/// * every pool index is in bounds for its pool;
/// * every jump target is in bounds and never lands on [`QInst::Nop`]
///   padding;
/// * every fused instruction is followed by its [`QInst::Nop`] pad, so a
///   `pc += 2` advance stays on real instructions;
/// * the stream ends with [`QInst::Return`], so sequential fall-through can
///   never run past the end.
///
/// Lowering establishes all of these by construction; this pass re-checks
/// them once per build so a lowering bug surfaces as a build error instead
/// of undefined behaviour at launch time.
pub(crate) fn verify(q: &QuickFunction, num_regs: usize) -> Result<(), String> {
    let len = q.insts.len();
    let reg = |r: Reg| -> Result<(), String> {
        if (r as usize) < num_regs {
            Ok(())
        } else {
            Err(format!("register r{r} out of range (frame has {num_regs})"))
        }
    };
    let opt_reg = |r: Reg| if r == NO_REG { Ok(()) } else { reg(r) };
    let target = |t: u32| -> Result<(), String> {
        match q.insts.get(t as usize) {
            Some(QInst::Nop) => Err(format!("jump target {t} lands on fusion padding")),
            Some(_) => Ok(()),
            None => Err(format!("jump target {t} out of range (stream has {len})")),
        }
    };
    let pool = |p: u32, len: usize, name: &str| -> Result<(), String> {
        if (p as usize) < len {
            Ok(())
        } else {
            Err(format!("{name} pool index {p} out of range ({len})"))
        }
    };
    match q.insts.last() {
        Some(QInst::Return { .. }) => {}
        _ => return Err("instruction stream does not end with Return".into()),
    }
    for (i, inst) in q.insts.iter().enumerate() {
        match *inst {
            QInst::Const { dst, .. } => reg(dst)?,
            QInst::ConstVec { dst, pool: p } => {
                reg(dst)?;
                pool(p, q.vec_consts.len(), "vec_consts")?;
            }
            QInst::Move { dst, src }
            | QInst::ConvertScalar { dst, src, .. }
            | QInst::Unary { dst, src, .. }
            | QInst::Bool { dst, src }
            | QInst::Lane { dst, src, .. }
            | QInst::SetLane { dst, src, .. } => {
                reg(dst)?;
                reg(src)?;
            }
            QInst::Convert { dst, src, pool: p } => {
                reg(dst)?;
                reg(src)?;
                pool(p, q.types.len(), "types")?;
            }
            QInst::Binary { dst, lhs, rhs, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(rhs)?;
            }
            QInst::Load { dst, ptr, index } => {
                reg(dst)?;
                reg(ptr)?;
                opt_reg(index)?;
            }
            QInst::Store { ptr, index, src } => {
                reg(ptr)?;
                opt_reg(index)?;
                reg(src)?;
            }
            QInst::Swizzle { dst, src, pool: p } => {
                reg(dst)?;
                reg(src)?;
                pool(p, q.lane_lists.len(), "lane_lists")?;
            }
            QInst::VecCtor { dst, pool: p, .. } | QInst::CallUser { dst, pool: p, .. } => {
                reg(dst)?;
                pool(p, q.reg_lists.len(), "reg_lists")?;
                for &a in &q.reg_lists[p as usize] {
                    reg(a)?;
                }
            }
            QInst::CallMath { dst, pool: p } => {
                reg(dst)?;
                pool(p, q.math_calls.len(), "math_calls")?;
                for &a in &q.math_calls[p as usize].1 {
                    reg(a)?;
                }
            }
            QInst::WorkItem { dst, dim, .. } => {
                reg(dst)?;
                opt_reg(dim)?;
            }
            QInst::Atomic { dst, ptr, operand, .. } => {
                reg(dst)?;
                reg(ptr)?;
                opt_reg(operand)?;
            }
            QInst::Barrier | QInst::Nop => {}
            QInst::Jump { target: t } => target(t)?,
            QInst::JumpIfFalse { cond, target: t } | QInst::JumpIfTrue { cond, target: t } => {
                reg(cond)?;
                target(t)?;
            }
            QInst::Return { src } => opt_reg(src)?,
            QInst::BinaryImmR { dst, lhs, cdst, imm, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(cdst)?;
                pool(imm, q.imms.len(), "imms")?;
            }
            QInst::BinaryImmL { dst, cdst, rhs, imm, .. } => {
                reg(dst)?;
                reg(cdst)?;
                reg(rhs)?;
                pool(imm, q.imms.len(), "imms")?;
            }
            QInst::BinaryJf { dst, lhs, rhs, target: t, .. }
            | QInst::BinaryJt { dst, lhs, rhs, target: t, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(rhs)?;
                target(t)?;
            }
            QInst::BinaryCvt { dst, lhs, rhs, cdst, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(rhs)?;
                reg(cdst)?;
            }
            QInst::MulMulOp { dst, t1, a, b, t2, c, d, .. } => {
                reg(dst)?;
                reg(t1)?;
                reg(a)?;
                reg(b)?;
                reg(t2)?;
                reg(c)?;
                reg(d)?;
            }
            QInst::BinaryImmJf { dst, lhs, cdst, imm, target: t, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(cdst)?;
                pool(imm, q.imms.len(), "imms")?;
                target(t)?;
            }
            QInst::BinaryImmCvt { dst, lhs, cdst, imm, vdst, .. } => {
                reg(dst)?;
                reg(lhs)?;
                reg(cdst)?;
                pool(imm, q.imms.len(), "imms")?;
                reg(vdst)?;
            }
        }
        // A fused instruction advances `pc` past its padding; every padding
        // slot must exist and actually be padding.
        let pads = match inst {
            QInst::BinaryImmR { .. }
            | QInst::BinaryImmL { .. }
            | QInst::BinaryJf { .. }
            | QInst::BinaryJt { .. }
            | QInst::BinaryCvt { .. } => 1,
            QInst::MulMulOp { .. } | QInst::BinaryImmJf { .. } | QInst::BinaryImmCvt { .. } => 2,
            _ => 0,
        };
        for pad in 1..=pads {
            if !matches!(q.insts.get(i + pad), Some(QInst::Nop)) {
                return Err(format!(
                    "fused instruction at {i} is missing Nop padding at {}",
                    i + pad
                ));
            }
        }
    }
    Ok(())
}

/// The instruction a jump (plain or fused) may continue at.
fn jump_target(inst: &QInst) -> Option<u32> {
    match *inst {
        QInst::Jump { target }
        | QInst::JumpIfFalse { target, .. }
        | QInst::JumpIfTrue { target, .. }
        | QInst::BinaryJf { target, .. }
        | QInst::BinaryJt { target, .. }
        | QInst::BinaryImmJf { target, .. } => Some(target),
        _ => None,
    }
}

/// The most VM steps one call of `q` can take, given the bounds of the
/// helpers it may call (`helpers`, by compiled index): its stream length
/// plus, per call site, the callee's bound.  Every dispatch counts one
/// step, and a frame whose stream never jumps backward dispatches each
/// instruction at most once.  `None` when `q` jumps backward (to the jump
/// itself or an earlier instruction), when a callee's bound is `None`, or
/// on overflow.
pub(crate) fn step_bound(q: &QuickFunction, helpers: &[Option<u64>]) -> Option<u64> {
    let mut steps = q.insts.len() as u64;
    for (i, inst) in q.insts.iter().enumerate() {
        if let QInst::CallUser { func, .. } = *inst {
            steps = steps.checked_add((*helpers.get(func as usize)?)?)?;
        } else if jump_target(inst).is_some_and(|t| t as usize <= i) {
            return None;
        }
    }
    Some(steps)
}

/// [`step_bound`] of every helper, by compiled index.  Each pass bounds the
/// helpers whose callees the previous pass bounded, until a pass changes
/// nothing; a helper on a call cycle (recursion) stays `None`.
pub(crate) fn helper_step_bounds(functions: &[CompiledFunction]) -> Vec<Option<u64>> {
    let mut bounds = vec![None; functions.len()];
    loop {
        let next: Vec<_> = functions.iter().map(|f| step_bound(&f.quick, &bounds)).collect();
        if next == bounds {
            return bounds;
        }
        bounds = next;
    }
}
