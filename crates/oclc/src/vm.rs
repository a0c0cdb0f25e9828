//! Bytecode VM executing kernels one work-group at a time.
//!
//! The unit of parallelism is the *work-group*: a work-stealing driver fans
//! groups out across host threads, every group gets its own `__local`
//! arenas, and global buffers are shared by all groups.  Inside a group, a
//! kernel that [`crate::lanes`] accepted at build time runs 16 work-items at
//! a time in lockstep; every other kernel runs its items one after another
//! in a tight instruction loop, the *scalar path* (also the lane executor's
//! fallback for a batch that faults).  There a [`Inst::Barrier`] suspends
//! the current item (its frame stack stays intact) and the group resumes
//! every item in phases, which is what makes barrier-separated
//! local-memory reductions bit-correct instead of silently wrong.
//!
//! Work-items that disagree about which barrier they reached (or whether
//! they reached one at all) are reported as a "barrier divergence" error —
//! that is undefined behaviour in OpenCL C, so an error beats a hang.
//!
//! Semantics mirror the tree-walking interpreter (`crate::interp`)
//! instruction by instruction; the differential test suite keeps the two in
//! lockstep.  Counter *magnitudes* differ (the VM counts instructions where
//! the interpreter counts statements), but `work_items`, `loads` and
//! `stores` agree.

use crate::ast::{BinOp, UnOp};
use crate::builtins;
use crate::bytecode::*;
use crate::error::{CompileError, Location};
use crate::interp::{
    eval_binary, eval_binary_ptr, eval_binary_scalars, eval_unary, BufferBinding, KernelArgValue,
    NdRange, WorkItemCounters,
};
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{convert_scalar, load_scalar, store_scalar, Pointer, Scalar, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum user-function call depth (same limit as the interpreter).
const MAX_CALL_DEPTH: usize = 64;

/// Maximum instructions per work-item.  The interpreter counts statements,
/// the VM counts instructions (roughly 4× finer), so the cap is scaled to
/// trip at about the same amount of work.
pub(crate) const MAX_STEPS_PER_ITEM: u64 = 8_000_000;

/// Bounds-check-free access for the dispatch loop's hottest paths.
///
/// [`crate::bytecode::verify`] proves, once per build, that every register
/// operand is in bounds for its frame, every jump target is in bounds and
/// off padding, fused instructions are followed by their `Nop` pad, and the
/// stream ends with `Return` — so `pc` and every `Reg` reaching these
/// helpers is already known valid.  The `debug_assert!`s re-state the
/// invariant in debug builds.
#[allow(unsafe_code)]
mod trusted {
    use crate::bytecode::{QInst, Slot};

    /// Read register `i`.
    #[inline(always)]
    pub(super) fn reg(regs: &[Slot], i: u32) -> Slot {
        debug_assert!((i as usize) < regs.len());
        // SAFETY: the bytecode verifier bounds every register operand.
        unsafe { *regs.get_unchecked(i as usize) }
    }

    /// Write register `i`.
    #[inline(always)]
    pub(super) fn set_reg(regs: &mut [Slot], i: u32, v: Slot) {
        debug_assert!((i as usize) < regs.len());
        // SAFETY: the bytecode verifier bounds every register operand.
        unsafe { *regs.get_unchecked_mut(i as usize) = v }
    }

    /// Fetch the instruction at `pc`.
    #[inline(always)]
    pub(super) fn inst(code: &[QInst], pc: usize) -> QInst {
        debug_assert!(pc < code.len());
        // SAFETY: the verifier bounds every jump target and proves the
        // stream ends with a terminator, so sequential advance stays in
        // range.
        unsafe { *code.get_unchecked(pc) }
    }
}

/// Shared, unsynchronised view of the launch's global buffers.
///
/// Work-groups run on different threads but address disjoint elements in
/// well-formed kernels (cross-group conflicts must go through atomics, which
/// the VM serialises with a lock).  Kernels with genuine cross-group races
/// get racy bytes, exactly like real OpenCL devices.
#[allow(unsafe_code)]
mod shared {
    use std::marker::PhantomData;

    struct RawBuf {
        ptr: *mut u8,
        len: usize,
    }

    /// Raw-pointer view over the bound buffers, shareable across the
    /// work-group worker threads for the duration of one launch.  `'m` is
    /// the `&mut` borrow of the bindings, so the bindings stay untouchable
    /// while the view exists.
    pub(crate) struct SharedBufs<'m> {
        bufs: Vec<RawBuf>,
        _marker: PhantomData<&'m mut [u8]>,
    }

    // SAFETY: the view lives strictly inside `execute_kernel`, which holds
    // the unique `&mut` borrow of every buffer for the whole launch; scoped
    // threads cannot outlive it.
    unsafe impl Send for SharedBufs<'_> {}
    unsafe impl Sync for SharedBufs<'_> {}

    impl<'m> SharedBufs<'m> {
        pub(super) fn new(bufs: &'m mut [super::BufferBinding<'_>]) -> Self {
            SharedBufs {
                bufs: bufs
                    .iter_mut()
                    .map(|b| {
                        let bytes = b.bytes_mut();
                        RawBuf { ptr: bytes.as_mut_ptr(), len: bytes.len() }
                    })
                    .collect(),
                _marker: PhantomData,
            }
        }

        pub(super) fn len(&self) -> usize {
            self.bufs.len()
        }

        /// Bounds-checked byte view of buffer `i` (checked by the caller's
        /// `load_scalar` / `store_scalar`, which also produce the canonical
        /// out-of-bounds diagnostics).
        pub(super) fn bytes(&self, i: usize) -> &[u8] {
            let b = &self.bufs[i];
            // SAFETY: ptr/len come from a live `&mut [u8]` held by
            // `execute_kernel`; see the Send/Sync justification above.
            unsafe { std::slice::from_raw_parts(b.ptr, b.len) }
        }

        /// Mutable byte view of buffer `i`.
        #[allow(clippy::mut_from_ref)]
        pub(super) fn bytes_mut(&self, i: usize) -> &mut [u8] {
            let b = &self.bufs[i];
            // SAFETY: as above; disjointness across threads is the kernel's
            // contract (matching real device behaviour for racy kernels).
            unsafe { std::slice::from_raw_parts_mut(b.ptr, b.len) }
        }
    }
}

use shared::SharedBufs;

/// Identity of one work-item (same fields the interpreter tracks).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkItem {
    global_id: [usize; 3],
    global_size: [usize; 3],
    local_id: [usize; 3],
    local_size: [usize; 3],
    group_id: [usize; 3],
    num_groups: [usize; 3],
    offset: [usize; 3],
    work_dim: u8,
}

impl WorkItem {
    /// Work-item query `which` in dimension `d` (0..=2).
    pub(crate) fn query(&self, which: WorkItemFn, d: usize) -> usize {
        match which {
            WorkItemFn::GlobalId => self.global_id[d],
            WorkItemFn::LocalId => self.local_id[d],
            WorkItemFn::GroupId => self.group_id[d],
            WorkItemFn::GlobalSize => self.global_size[d],
            WorkItemFn::LocalSize => self.local_size[d],
            WorkItemFn::NumGroups => self.num_groups[d],
            WorkItemFn::GlobalOffset => self.offset[d],
            WorkItemFn::WorkDim => self.work_dim as usize,
        }
    }
}

/// Which compiled function a frame executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuncId {
    Kernel,
    Helper(usize),
}

/// A vector register's out-of-line payload (see [`Slot::Vector`]: register
/// `r` holding a vector keeps its lanes in the frame arena at index `r`).
#[derive(Debug, Clone)]
struct VecVal {
    ty: ScalarType,
    lanes: Vec<Scalar>,
}

impl Default for VecVal {
    fn default() -> Self {
        VecVal { ty: ScalarType::Int, lanes: Vec::new() }
    }
}

/// One call frame: its register file, vector arena and resume point.
#[derive(Clone)]
struct Frame {
    func: FuncId,
    pc: usize,
    /// `Copy` register slots — writes are plain stores, no clone/drop glue.
    regs: Vec<Slot>,
    /// Vector arena, indexed by register.  Lazily sized; scalar-only
    /// kernels never allocate it.
    vecs: Vec<VecVal>,
    /// Caller register receiving the (converted) return value.
    ret_dst: Option<Reg>,
}

/// Rebuild the full [`Value`] of register `idx` (vector lanes are cloned).
/// Cold paths and diagnostics only; hot arms stay on [`Slot`]s.
fn slot_to_value(slot: Slot, idx: usize, vecs: &[VecVal]) -> Value {
    match slot {
        Slot::Scalar(t, s) => Value::Scalar(t, s),
        Slot::Ptr(p) => Value::Ptr(p),
        Slot::Vector => {
            let v = &vecs[idx];
            Value::Vector(v.ty, v.lanes.clone())
        }
        Slot::Void => Value::Void,
    }
}

/// Store `lanes` as the vector value of register `dst`, growing the arena on
/// first use.
fn write_vec(
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: usize,
    ty: ScalarType,
    lanes: Vec<Scalar>,
) {
    if vecs.len() < regs.len() {
        vecs.resize_with(regs.len(), VecVal::default);
    }
    vecs[dst] = VecVal { ty, lanes };
    regs[dst] = Slot::Vector;
}

/// Store a full [`Value`] into register `dst`.
fn write_value(regs: &mut [Slot], vecs: &mut Vec<VecVal>, dst: usize, value: Value) {
    match value {
        Value::Scalar(t, s) => regs[dst] = Slot::Scalar(t, s),
        Value::Ptr(p) => regs[dst] = Slot::Ptr(p),
        Value::Void => regs[dst] = Slot::Void,
        Value::Vector(t, lanes) => write_vec(regs, vecs, dst, t, lanes),
    }
}

/// Rare opcodes live out of line (`#[inline(never)]`) so the dispatch
/// loop's hot function stays small enough for the optimiser to keep `pc`,
/// the instruction pointer and the register file base in machine registers.
/// Errors are returned without a location; the dispatch loop's `at!` macro
/// attaches the faulting instruction's source location.
#[inline(never)]
fn op_const_vec(
    quick: &QuickFunction,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    pool: u32,
) {
    let v = quick.vec_consts[pool as usize].clone();
    write_value(regs, vecs, dst as usize, v);
}

#[inline(never)]
fn op_convert(
    quick: &QuickFunction,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    src: Reg,
    pool: u32,
) -> Result<(), CompileError> {
    let v = slot_to_value(regs[src as usize], src as usize, vecs);
    let c = v.convert_to(&quick.types[pool as usize])?;
    write_value(regs, vecs, dst as usize, c);
    Ok(())
}

#[inline(never)]
fn op_unary(
    op: UnOp,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    src: Reg,
) -> Result<(), CompileError> {
    let v = slot_to_value(regs[src as usize], src as usize, vecs);
    let out = eval_unary(op, &v)?;
    write_value(regs, vecs, dst as usize, out);
    Ok(())
}

#[inline(never)]
fn op_lane(
    regs: &mut [Slot],
    vecs: &[VecVal],
    dst: Reg,
    src: Reg,
    lane: u32,
) -> Result<(), CompileError> {
    match regs[src as usize] {
        Slot::Vector => {
            let v = &vecs[src as usize];
            if lane as usize >= v.lanes.len() {
                return Err(CompileError::new("vector component out of range"));
            }
            regs[dst as usize] = Slot::Scalar(v.ty, v.lanes[lane as usize]);
            Ok(())
        }
        other => {
            let ty = slot_to_value(other, src as usize, vecs).ty();
            Err(CompileError::new(format!("cannot access a component of type {ty}")))
        }
    }
}

#[inline(never)]
fn op_swizzle(
    quick: &QuickFunction,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    src: Reg,
    pool: u32,
) -> Result<(), CompileError> {
    let lane_idx = &quick.lane_lists[pool as usize];
    match regs[src as usize] {
        Slot::Vector => {
            let v = &vecs[src as usize];
            if lane_idx.iter().any(|&i| i >= v.lanes.len()) {
                return Err(CompileError::new("vector component out of range"));
            }
            let ty = v.ty;
            let gathered: Vec<Scalar> = lane_idx.iter().map(|&i| v.lanes[i]).collect();
            write_vec(regs, vecs, dst as usize, ty, gathered);
            Ok(())
        }
        other => {
            let ty = slot_to_value(other, src as usize, vecs).ty();
            Err(CompileError::new(format!("cannot access a component of type {ty}")))
        }
    }
}

#[inline(never)]
fn op_set_lane(
    regs: &mut [Slot],
    vecs: &mut [VecVal],
    dst: Reg,
    lane: u32,
    src: Reg,
) -> Result<(), CompileError> {
    let s = match regs[src as usize] {
        Slot::Scalar(_, s) => s,
        other => slot_to_value(other, src as usize, vecs).scalar()?,
    };
    match regs[dst as usize] {
        Slot::Vector => {
            let v = &mut vecs[dst as usize];
            if lane as usize >= v.lanes.len() {
                return Err(CompileError::new("vector component out of range"));
            }
            let t = v.ty;
            v.lanes[lane as usize] = convert_scalar(s, t);
            Ok(())
        }
        other => {
            let ty = slot_to_value(other, dst as usize, vecs).ty();
            Err(CompileError::new(format!("cannot access a component of type {ty}")))
        }
    }
}

#[inline(never)]
fn op_vec_ctor(
    quick: &QuickFunction,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    ty: ScalarType,
    width: u8,
    pool: u32,
) -> Result<(), CompileError> {
    let args = &quick.reg_lists[pool as usize];
    let mut lanes = Vec::with_capacity(width as usize);
    for a in args {
        match regs[*a as usize] {
            Slot::Scalar(_, s) => lanes.push(convert_scalar(s, ty)),
            Slot::Vector => {
                lanes.extend(vecs[*a as usize].lanes.iter().map(|s| convert_scalar(*s, ty)))
            }
            other => {
                let vt = slot_to_value(other, *a as usize, vecs).ty();
                return Err(CompileError::new(format!("cannot build a vector from {vt}")));
            }
        }
    }
    if lanes.len() == 1 {
        lanes = vec![lanes[0]; width as usize];
    }
    if lanes.len() != width as usize {
        return Err(CompileError::new(format!(
            "vector literal has {} element(s), expected {width}",
            lanes.len()
        )));
    }
    write_vec(regs, vecs, dst as usize, ty, lanes);
    Ok(())
}

#[inline(never)]
fn op_call_math(
    quick: &QuickFunction,
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    dst: Reg,
    pool: u32,
) -> Result<(), CompileError> {
    let (name, args) = &quick.math_calls[pool as usize];
    let values: Vec<Value> =
        args.iter().map(|a| slot_to_value(regs[*a as usize], *a as usize, vecs)).collect();
    let v = builtins::eval_math(name, &values)?;
    write_value(regs, vecs, dst as usize, v);
    Ok(())
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn op_atomic(
    ctx: &LaunchCtx<'_, '_>,
    locals: &mut [Vec<u8>],
    counters: &mut WorkItemCounters,
    regs: &mut [Slot],
    vecs: &[VecVal],
    op: AtomicOp,
    dst: Reg,
    ptr: Reg,
    operand: Reg,
) -> Result<(), CompileError> {
    let p = match regs[ptr as usize] {
        Slot::Ptr(p) => p,
        other => {
            let ty = slot_to_value(other, ptr as usize, vecs).ty();
            return Err(CompileError::new(format!("cannot dereference a value of type {ty}")));
        }
    };
    if p.byte_offset < 0 {
        return Err(CompileError::new("negative pointer offset"));
    }
    let operand = if operand == NO_REG {
        Value::int(1)
    } else {
        slot_to_value(regs[operand as usize], operand as usize, vecs)
    };
    // Global-buffer atomics serialise across groups; `__local` arenas are
    // group-private and a group runs on one thread, so local atomics need
    // no lock.
    let _guard = if (p.buffer as usize) < ctx.shared.len() {
        Some(ctx.atomic_lock.lock().unwrap())
    } else {
        None
    };
    counters.loads += 1;
    let old_s = mem_load(ctx.shared, locals, p.buffer as usize, p.byte_offset as usize, p.pointee)?;
    let old = Value::Scalar(p.pointee, old_s);
    let new = match op {
        AtomicOp::Add => eval_binary(BinOp::Add, &old, &operand)?,
        AtomicOp::Sub => eval_binary(BinOp::Sub, &old, &operand)?,
        AtomicOp::Xchg => operand,
        AtomicOp::Min => builtins::eval_math("min", &[old.clone(), operand])?,
        AtomicOp::Max => builtins::eval_math("max", &[old.clone(), operand])?,
    };
    let new_s = new.scalar()?;
    counters.stores += 1;
    mem_store(ctx.shared, locals, p.buffer as usize, p.byte_offset as usize, p.pointee, new_s)?;
    regs[dst as usize] = Slot::Scalar(p.pointee, old_s);
    Ok(())
}

/// Everything [`binary_fast`] declines: mixed scalar shapes, pointer
/// arithmetic, vector operands, and every error case.  Kept out of line so
/// the dispatch loop inlines only the fast path at each fused arm.
#[inline(never)]
fn binary_slow(
    regs: &mut [Slot],
    vecs: &mut Vec<VecVal>,
    op: BinOp,
    dst: usize,
    lhs: usize,
    rhs: usize,
) -> Result<(), CompileError> {
    match (regs[lhs], regs[rhs]) {
        (Slot::Scalar(lt, ls), Slot::Scalar(rt, rs)) => {
            let (t, s) = eval_binary_scalars(op, lt, ls, rt, rs)?;
            regs[dst] = Slot::Scalar(t, s);
        }
        (Slot::Ptr(p), Slot::Scalar(_, s)) => {
            regs[dst] = Slot::Ptr(eval_binary_ptr(op, &p, s)?);
        }
        (l, r) => {
            let lv = slot_to_value(l, lhs, vecs);
            let rv = slot_to_value(r, rhs, vecs);
            let v = eval_binary(op, &lv, &rv)?;
            write_value(regs, vecs, dst, v);
        }
    }
    Ok(())
}

/// Fast paths for the dominant same-type scalar operand pairs, mirroring
/// `eval_binary_scalars` bit for bit (the differential suite holds the two
/// together).  `None` falls back to the shared, semantically authoritative
/// implementation — including every error case, so this function is total.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a <= b)` ≠ `a > b` for NaN; the negation is the point
fn binary_fast(op: BinOp, lt: ScalarType, ls: Scalar, rt: ScalarType, rs: Scalar) -> Option<Slot> {
    let int = |v: bool| Some(Slot::Scalar(ScalarType::Int, Scalar::I(i64::from(v))));
    match (lt, ls, rt, rs) {
        (ScalarType::Float, Scalar::F(a), ScalarType::Float, Scalar::F(b)) => {
            let f = |v: f64| Some(Slot::Scalar(ScalarType::Float, Scalar::F(v as f32 as f64)));
            match op {
                BinOp::Add => f(a + b),
                BinOp::Sub => f(a - b),
                BinOp::Mul => f(a * b),
                BinOp::Div => f(a / b),
                // NaN orderings mirror `partial_cmp(..).unwrap_or(Greater)`:
                // Gt/Ge are true for NaN operands, the rest follow IEEE.
                BinOp::Lt => int(a < b),
                BinOp::Le => int(a <= b),
                BinOp::Gt => int(!(a <= b)),
                BinOp::Ge => int(!(a < b)),
                BinOp::Eq => int(a == b),
                BinOp::Ne => int(a != b),
                _ => None,
            }
        }
        (ScalarType::Int, Scalar::I(a), ScalarType::Int, Scalar::I(b)) => int_ops(op, a, b),
        // `promote` is lhs-biased at equal integer rank, so uint⊕int stays
        // unsigned while int⊕uint stays signed — each mixed arm converts the
        // other operand exactly like `Scalar::as_u64`/`as_i64` would.
        (ScalarType::UInt, Scalar::U(a), ScalarType::UInt, Scalar::U(b)) => uint_ops(op, a, b),
        (ScalarType::UInt, Scalar::U(a), ScalarType::Int, Scalar::I(b)) => {
            uint_ops(op, a, b as u64)
        }
        (ScalarType::Int, Scalar::I(a), ScalarType::UInt, Scalar::U(b)) => int_ops(op, a, b as i64),
        _ => None,
    }
}

/// Unsigned-int fast ops for [`binary_fast`] (result type `uint`).
#[inline(always)]
fn uint_ops(op: BinOp, a: u64, b: u64) -> Option<Slot> {
    let int = |v: bool| Some(Slot::Scalar(ScalarType::Int, Scalar::I(i64::from(v))));
    let u = |v: u64| Some(Slot::Scalar(ScalarType::UInt, Scalar::U(v as u32 as u64)));
    match op {
        BinOp::Add => u(a.wrapping_add(b)),
        BinOp::Sub => u(a.wrapping_sub(b)),
        BinOp::Mul => u(a.wrapping_mul(b)),
        BinOp::Lt => int(a < b),
        BinOp::Le => int(a <= b),
        BinOp::Gt => int(a > b),
        BinOp::Ge => int(a >= b),
        BinOp::Eq => int(a == b),
        BinOp::Ne => int(a != b),
        _ => None,
    }
}

/// Signed-int fast ops for [`binary_fast`] (result type `int`).
#[inline(always)]
fn int_ops(op: BinOp, a: i64, b: i64) -> Option<Slot> {
    let int = |v: bool| Some(Slot::Scalar(ScalarType::Int, Scalar::I(i64::from(v))));
    let i = |v: i64| Some(Slot::Scalar(ScalarType::Int, Scalar::I(v as i32 as i64)));
    match op {
        BinOp::Add => i(a.wrapping_add(b)),
        BinOp::Sub => i(a.wrapping_sub(b)),
        BinOp::Mul => i(a.wrapping_mul(b)),
        BinOp::Lt => int(a < b),
        BinOp::Le => int(a <= b),
        BinOp::Gt => int(a > b),
        BinOp::Ge => int(a >= b),
        BinOp::Eq => int(a == b),
        BinOp::Ne => int(a != b),
        _ => None,
    }
}

/// Why `exec_frames` stopped.
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    /// The kernel frame returned.
    Done,
    /// A barrier was reached; the frame stack is parked mid-kernel.
    Barrier,
}

/// Everything a group executor needs, shared across worker threads.
pub(crate) struct LaunchCtx<'a, 'v> {
    unit: &'a CompiledUnit,
    pub(crate) kernel: &'a CompiledKernel,
    pub(crate) shared: &'a SharedBufs<'v>,
    /// Serialises atomics on global buffers across groups.
    atomic_lock: &'a Mutex<()>,
    pub(crate) bound_args: &'a [Value],
    /// The lane executor, if the kernel is eligible and this launch `fits`.
    lanes: Option<&'a crate::lanes::LaneKernel>,
    local_sizes: &'a [usize],
    local: [usize; 3],
    global: [usize; 3],
    num_groups: [usize; 3],
    offset: [usize; 3],
    work_dim: u8,
}

impl LaunchCtx<'_, '_> {
    fn resolve(&self, id: FuncId) -> &CompiledFunction {
        match id {
            FuncId::Kernel => &self.kernel.func,
            FuncId::Helper(i) => &self.unit.functions[i],
        }
    }
}

/// Execute the compiled kernel keyed by AST function index `index` over
/// `range`, fanning work-groups across up to `threads` host threads.
pub(crate) fn execute_kernel(
    unit: &CompiledUnit,
    index: usize,
    range: &NdRange,
    args: &[KernelArgValue],
    buffers: &mut [BufferBinding<'_>],
    threads: usize,
) -> Result<WorkItemCounters, CompileError> {
    let kernel =
        unit.kernels.get(&index).ok_or_else(|| CompileError::new("invalid kernel index"))?;
    if args.len() != kernel.func.param_types.len() {
        return Err(CompileError::new(format!(
            "kernel '{}' expects {} argument(s), got {}",
            kernel.func.name,
            kernel.func.param_types.len(),
            args.len()
        )));
    }

    // Bind arguments once; pointer values are shared by every work-item.
    let n_bufs = buffers.len();
    let mut bound_args = Vec::with_capacity(args.len());
    let mut local_sizes: Vec<usize> = Vec::new();
    for ((name, ty), arg) in kernel.func.param_names.iter().zip(&kernel.func.param_types).zip(args)
    {
        bound_args.push(bind_argument(name, ty, arg, n_bufs, &mut local_sizes)?);
    }

    let threads = threads.max(1);
    let global = [range.global[0].max(1), range.global[1].max(1), range.global[2].max(1)];
    let mut local = range.local_size();
    local = [local[0].max(1), local[1].max(1), local[2].max(1)];

    let lanes = kernel.lanes.as_ref().filter(|l| l.fits(&bound_args));
    // Implicit chunking: when the caller left the group size unspecified and
    // the kernel can't tell groups apart (no barrier, no group-shape
    // queries, no `__local` args), split dimension 0 so groups can fan out
    // across threads.  Otherwise the default group shape is kept identical
    // to the interpreter's.
    if range.local.is_none()
        && threads > 1
        && !kernel.has_barrier
        && !kernel.observes_group_shape
        && local_sizes.is_empty()
    {
        local[0] = implicit_chunk(global[0], threads, lanes.is_some());
    }

    let num_groups =
        [global[0].div_ceil(local[0]), global[1].div_ceil(local[1]), global[2].div_ceil(local[2])];
    let total_groups = num_groups[0] * num_groups[1] * num_groups[2];

    let shared = SharedBufs::new(buffers);
    let atomic_lock = Mutex::new(());
    let ctx = LaunchCtx {
        unit,
        kernel,
        shared: &shared,
        atomic_lock: &atomic_lock,
        bound_args: &bound_args,
        lanes,
        local_sizes: &local_sizes,
        local,
        global,
        num_groups,
        offset: range.offset,
        work_dim: range.work_dim,
    };

    if threads == 1 || total_groups == 1 {
        let mut counters = WorkItemCounters::default();
        for g in 0..total_groups {
            run_group(&ctx, g, &mut counters)?;
        }
        return Ok(counters);
    }

    // Work-stealing fan-out: workers claim the next unprocessed group from a
    // shared counter, so fast groups never wait on slow ones.
    let next_group = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<CompileError>> = Mutex::new(None);
    let total: Mutex<WorkItemCounters> = Mutex::new(WorkItemCounters::default());
    std::thread::scope(|s| {
        for _ in 0..threads.min(total_groups) {
            s.spawn(|| {
                let mut counters = WorkItemCounters::default();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let g = next_group.fetch_add(1, Ordering::Relaxed);
                    if g >= total_groups {
                        break;
                    }
                    if let Err(e) = run_group(&ctx, g, &mut counters) {
                        let mut slot = first_error.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                *total.lock().unwrap() += counters;
            });
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }
    Ok(total.into_inner().unwrap())
}

/// Dimension 0's group size when the VM re-chunks a launch of
/// `global0` work-items for `threads` threads: about `threads * 4` groups,
/// each a whole number of lane batches when the kernel runs in `lanes`, so
/// only the range's last batch can run part-empty.
pub(crate) fn implicit_chunk(global0: usize, threads: usize, lanes: bool) -> usize {
    let chunk = global0.div_ceil(threads * 4).max(1);
    if lanes {
        chunk.next_multiple_of(crate::lanes::LANES)
    } else {
        chunk
    }
}

fn bind_argument(
    name: &str,
    ty: &Type,
    arg: &KernelArgValue,
    n_bufs: usize,
    local_sizes: &mut Vec<usize>,
) -> Result<Value, CompileError> {
    match (arg, ty) {
        (KernelArgValue::Buffer(idx), Type::Pointer { pointee, space, .. }) => {
            if *idx >= n_bufs {
                return Err(CompileError::new(format!(
                    "argument '{name}' references buffer binding {idx}, but only {n_bufs} are bound"
                )));
            }
            let pointee = pointee.element_scalar().ok_or_else(|| {
                CompileError::new("only pointers to scalar element types are supported")
            })?;
            Ok(Value::Ptr(Pointer { buffer: *idx as u32, byte_offset: 0, pointee, space: *space }))
        }
        (KernelArgValue::Local(bytes), Type::Pointer { pointee, .. }) => {
            let pointee = pointee.element_scalar().ok_or_else(|| {
                CompileError::new("only pointers to scalar element types are supported")
            })?;
            local_sizes.push(*bytes);
            Ok(Value::Ptr(Pointer {
                buffer: (n_bufs + local_sizes.len() - 1) as u32,
                byte_offset: 0,
                pointee,
                space: AddressSpace::Local,
            }))
        }
        (KernelArgValue::Scalar(v), ty) => v.convert_to(ty),
        (arg, ty) => Err(CompileError::new(format!(
            "argument '{name}' of type {ty} cannot be bound from {arg:?}"
        ))),
    }
}

/// Execute every work-item of group `g` (linear index over the group grid).
fn run_group(
    ctx: &LaunchCtx<'_, '_>,
    g: usize,
    counters: &mut WorkItemCounters,
) -> Result<(), CompileError> {
    let [ng0, ng1, _] = ctx.num_groups;
    let group_id = [g % ng0, (g / ng0) % ng1, g / (ng0 * ng1)];

    // Per-group `__local` arenas, zeroed like freshly mapped device memory.
    let mut locals: Vec<Vec<u8>> = ctx.local_sizes.iter().map(|n| vec![0u8; *n]).collect();

    // Enumerate this group's work-items (edge groups may be partial).
    let mut items: Vec<WorkItem> = Vec::new();
    for lz in 0..ctx.local[2] {
        let z = group_id[2] * ctx.local[2] + lz;
        if z >= ctx.global[2] {
            break;
        }
        for ly in 0..ctx.local[1] {
            let y = group_id[1] * ctx.local[1] + ly;
            if y >= ctx.global[1] {
                break;
            }
            for lx in 0..ctx.local[0] {
                let x = group_id[0] * ctx.local[0] + lx;
                if x >= ctx.global[0] {
                    break;
                }
                items.push(WorkItem {
                    global_id: [x + ctx.offset[0], y + ctx.offset[1], z + ctx.offset[2]],
                    global_size: ctx.global,
                    local_id: [lx, ly, lz],
                    local_size: ctx.local,
                    group_id,
                    num_groups: ctx.num_groups,
                    offset: ctx.offset,
                    work_dim: ctx.work_dim,
                });
            }
        }
    }

    if !ctx.kernel.has_barrier {
        return match ctx.lanes {
            Some(lanes) => lanes.run_items(ctx, &mut locals, &items, counters),
            None => run_serial(ctx, &mut locals, &items, counters),
        };
    }

    // Barrier path: every item keeps its own parked frame stack; the group
    // advances in phases until all items retire.
    struct ItemRun {
        item: WorkItem,
        frames: Vec<Frame>,
        steps: u64,
        done: bool,
    }
    let seed = kernel_frame(ctx);
    let mut runs: Vec<ItemRun> = items
        .into_iter()
        .map(|item| ItemRun { item, frames: vec![seed.clone()], steps: 0, done: false })
        .collect();

    loop {
        // One phase: run every live item to its next barrier or to the end.
        let mut at_barrier = 0usize;
        let mut finished = 0usize;
        let mut signature: Option<(FuncId, usize, usize)> = None;
        for run in runs.iter_mut().filter(|r| !r.done) {
            let stop = exec_frames(
                ctx,
                &mut locals,
                &run.item,
                &mut run.frames,
                counters,
                &mut run.steps,
            )?;
            match stop {
                Stop::Done => {
                    run.done = true;
                    counters.work_items += 1;
                    finished += 1;
                }
                Stop::Barrier => {
                    at_barrier += 1;
                    let top = run.frames.last().expect("parked item has a frame");
                    let sig = (top.func, top.pc, run.frames.len());
                    match &signature {
                        None => signature = Some(sig),
                        Some(s) if *s != sig => {
                            return Err(CompileError::new(
                                "barrier divergence: work-items in the same group reached \
                                 different barriers",
                            ))
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        if at_barrier == 0 {
            return Ok(());
        }
        if finished > 0 {
            return Err(CompileError::new(
                "barrier divergence: not all work-items in the group reached the barrier",
            ));
        }
    }
}

/// A kernel frame at its first instruction with the arguments bound.
fn kernel_frame(ctx: &LaunchCtx<'_, '_>) -> Frame {
    let mut regs = vec![Slot::Void; ctx.kernel.func.num_regs];
    let mut vecs: Vec<VecVal> = Vec::new();
    for (i, v) in ctx.bound_args.iter().enumerate() {
        write_value(&mut regs, &mut vecs, i, v.clone());
    }
    Frame { func: FuncId::Kernel, pc: 0, regs, vecs, ret_dst: None }
}

/// Run barrier-free `items` one after another, reusing one register file:
/// registers are written before read, so stale values never leak.
pub(crate) fn run_serial(
    ctx: &LaunchCtx<'_, '_>,
    locals: &mut [Vec<u8>],
    items: &[WorkItem],
    counters: &mut WorkItemCounters,
) -> Result<(), CompileError> {
    let seed = kernel_frame(ctx);
    let nargs = ctx.bound_args.len();
    let (mut regs, mut vecs) = (seed.regs.clone(), seed.vecs.clone());
    let mut frames: Vec<Frame> = Vec::new();
    for item in items {
        regs[..nargs].copy_from_slice(&seed.regs[..nargs]);
        if !seed.vecs.is_empty() {
            vecs.clone_from(&seed.vecs);
        }
        frames.clear();
        frames.push(Frame { func: FuncId::Kernel, pc: 0, regs, vecs, ret_dst: None });
        let mut steps = 0u64;
        let stop = exec_frames(ctx, locals, item, &mut frames, counters, &mut steps);
        // Reclaim the register file for the next item before `?`.
        let f = frames.pop().expect("exec_frames keeps the kernel frame");
        (regs, vecs) = (f.regs, f.vecs);
        match stop? {
            Stop::Done => counters.work_items += 1,
            Stop::Barrier => {
                return Err(CompileError::new(
                    "internal error: barrier reached in a kernel analysed as barrier-free",
                ))
            }
        }
    }
    Ok(())
}

/// Run the item's frame stack until it returns from the kernel frame or
/// parks at a barrier.
fn exec_frames(
    ctx: &LaunchCtx<'_, '_>,
    locals: &mut [Vec<u8>],
    item: &WorkItem,
    frames: &mut Vec<Frame>,
    counters: &mut WorkItemCounters,
    steps: &mut u64,
) -> Result<Stop, CompileError> {
    // Counter accounting lives in locals so the dispatch loop pays register
    // increments instead of memory read-modify-writes; everything is flushed
    // back at every exit (returns and the error macros below).
    let entry_steps = *steps;
    let mut nsteps = *steps;
    let mut nops: u64 = 0;
    let mut nloads: u64 = 0;
    let mut nstores: u64 = 0;

    macro_rules! flush_steps {
        () => {{
            counters.steps += nsteps - entry_steps;
            *steps = nsteps;
            counters.ops += nops;
            counters.loads += nloads;
            counters.stores += nstores;
        }};
    }

    'frames: loop {
        let depth = frames.len() - 1;
        let func_id = frames[depth].func;
        let func = ctx.resolve(func_id);
        let quick = &func.quick;
        let code = &quick.insts[..];

        macro_rules! fail {
            ($pc:expr, $($arg:tt)*) => {{
                let mut e = CompileError::new(format!($($arg)*));
                e.location = func.locs.get($pc).copied().unwrap_or_default();
                flush_steps!();
                return Err(e);
            }};
        }
        // Attach the instruction's source location to helper errors that
        // carry none of their own.
        macro_rules! at {
            ($pc:expr, $res:expr) => {
                match $res {
                    Ok(v) => v,
                    Err(mut e) => {
                        if e.location == Location::default() {
                            e.location = func.locs.get($pc).copied().unwrap_or_default();
                        }
                        flush_steps!();
                        return Err(e);
                    }
                }
            };
        }

        // One frame borrow for the whole dispatch loop; `CallUser`/`Return`
        // finish with `fr` before touching `frames` and re-enter `'frames`,
        // which rebinds it.
        let fr = &mut frames[depth];
        let mut pc = fr.pc;

        // Shared body of `Binary` and the fused variants; `$pc` is the index
        // whose source location a failure should carry.
        macro_rules! binop {
            ($op:expr, $dst:expr, $lhs:expr, $rhs:expr, $pc:expr) => {
                match (trusted::reg(&fr.regs, $lhs), trusted::reg(&fr.regs, $rhs)) {
                    (Slot::Scalar(lt, ls), Slot::Scalar(rt, rs))
                        if let Some(slot) = binary_fast($op, lt, ls, rt, rs) =>
                    {
                        trusted::set_reg(&mut fr.regs, $dst, slot);
                    }
                    _ => at!(
                        $pc,
                        binary_slow(
                            &mut fr.regs,
                            &mut fr.vecs,
                            $op,
                            $dst as usize,
                            $lhs as usize,
                            $rhs as usize,
                        )
                    ),
                }
            };
        }

        // Any infinite loop must take some jump infinitely often, so the
        // step-limit check runs at taken jumps (and nowhere on the
        // straight-line path, which is bounded by the stream length).
        macro_rules! check_steps {
            () => {
                if nsteps > MAX_STEPS_PER_ITEM {
                    flush_steps!();
                    return Err(CompileError::new(
                        "work-item exceeded the interpreter step limit (possible infinite loop)",
                    ));
                }
            };
        }

        loop {
            nsteps += 1;
            match trusted::inst(code, pc) {
                QInst::Const { dst, slot } => {
                    trusted::set_reg(&mut fr.regs, dst, slot);
                }
                QInst::ConstVec { dst, pool } => {
                    op_const_vec(quick, &mut fr.regs, &mut fr.vecs, dst, pool);
                }
                QInst::Move { dst, src } => match trusted::reg(&fr.regs, src) {
                    Slot::Vector => {
                        let v = fr.vecs[src as usize].clone();
                        write_vec(&mut fr.regs, &mut fr.vecs, dst as usize, v.ty, v.lanes);
                    }
                    s => trusted::set_reg(&mut fr.regs, dst, s),
                },
                QInst::ConvertScalar { dst, src, ty } => {
                    let s = match trusted::reg(&fr.regs, src) {
                        Slot::Scalar(_, s) => s,
                        other => {
                            at!(pc, slot_to_value(other, src as usize, &fr.vecs).scalar())
                        }
                    };
                    trusted::set_reg(&mut fr.regs, dst, Slot::Scalar(ty, convert_scalar(s, ty)));
                }
                QInst::Convert { dst, src, pool } => {
                    at!(pc, op_convert(quick, &mut fr.regs, &mut fr.vecs, dst, src, pool));
                }
                QInst::Binary { op, dst, lhs, rhs } => {
                    nops += 1;
                    binop!(op, dst, lhs, rhs, pc);
                }
                QInst::Nop => {}
                QInst::BinaryImmR { op, dst, lhs, cdst, imm } => {
                    nops += 1;
                    trusted::set_reg(&mut fr.regs, cdst, quick.imms[imm as usize]);
                    binop!(op, dst, lhs, cdst, pc + 1);
                    pc += 2;
                    continue;
                }
                QInst::BinaryImmL { op, dst, cdst, rhs, imm } => {
                    nops += 1;
                    trusted::set_reg(&mut fr.regs, cdst, quick.imms[imm as usize]);
                    binop!(op, dst, cdst, rhs, pc + 1);
                    pc += 2;
                    continue;
                }
                QInst::BinaryJf { op, dst, lhs, rhs, target } => {
                    nops += 1;
                    binop!(op, dst, lhs, rhs, pc);
                    let b = match trusted::reg(&fr.regs, dst) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc + 1, slot_to_value(other, dst as usize, &fr.vecs).as_bool())
                        }
                    };
                    if b {
                        pc += 2;
                    } else {
                        check_steps!();
                        pc = target as usize;
                    }
                    continue;
                }
                QInst::BinaryJt { op, dst, lhs, rhs, target } => {
                    nops += 1;
                    binop!(op, dst, lhs, rhs, pc);
                    let b = match trusted::reg(&fr.regs, dst) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc + 1, slot_to_value(other, dst as usize, &fr.vecs).as_bool())
                        }
                    };
                    if b {
                        check_steps!();
                        pc = target as usize;
                    } else {
                        pc += 2;
                    }
                    continue;
                }
                QInst::BinaryCvt { op, dst, lhs, rhs, cdst, ty } => {
                    nops += 1;
                    binop!(op, dst, lhs, rhs, pc);
                    let s = match trusted::reg(&fr.regs, dst) {
                        Slot::Scalar(_, s) => s,
                        other => {
                            at!(pc + 1, slot_to_value(other, dst as usize, &fr.vecs).scalar())
                        }
                    };
                    trusted::set_reg(&mut fr.regs, cdst, Slot::Scalar(ty, convert_scalar(s, ty)));
                    pc += 2;
                    continue;
                }
                QInst::MulMulOp { op, dst, t1, a, b, t2, c, d } => {
                    nops += 3;
                    binop!(BinOp::Mul, t1, a, b, pc);
                    binop!(BinOp::Mul, t2, c, d, pc + 1);
                    binop!(op, dst, t1, t2, pc + 2);
                    pc += 3;
                    continue;
                }
                QInst::BinaryImmJf { op, dst, lhs, cdst, imm, target } => {
                    nops += 1;
                    trusted::set_reg(&mut fr.regs, cdst, quick.imms[imm as usize]);
                    binop!(op, dst, lhs, cdst, pc + 1);
                    let b = match trusted::reg(&fr.regs, dst) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc + 2, slot_to_value(other, dst as usize, &fr.vecs).as_bool())
                        }
                    };
                    if b {
                        pc += 3;
                    } else {
                        check_steps!();
                        pc = target as usize;
                    }
                    continue;
                }
                QInst::BinaryImmCvt { op, dst, lhs, cdst, imm, vdst, ty } => {
                    nops += 1;
                    trusted::set_reg(&mut fr.regs, cdst, quick.imms[imm as usize]);
                    binop!(op, dst, lhs, cdst, pc + 1);
                    let s = match trusted::reg(&fr.regs, dst) {
                        Slot::Scalar(_, s) => s,
                        other => {
                            at!(pc + 2, slot_to_value(other, dst as usize, &fr.vecs).scalar())
                        }
                    };
                    trusted::set_reg(&mut fr.regs, vdst, Slot::Scalar(ty, convert_scalar(s, ty)));
                    pc += 3;
                    continue;
                }
                QInst::Unary { op, dst, src } => {
                    nops += 1;
                    at!(pc, op_unary(op, &mut fr.regs, &mut fr.vecs, dst, src));
                }
                QInst::Bool { dst, src } => {
                    nops += 1;
                    let b = match trusted::reg(&fr.regs, src) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc, slot_to_value(other, src as usize, &fr.vecs).as_bool())
                        }
                    };
                    trusted::set_reg(
                        &mut fr.regs,
                        dst,
                        Slot::Scalar(ScalarType::Int, Scalar::I(i64::from(b))),
                    );
                }
                QInst::Load { dst, ptr, index } => {
                    let p = match trusted::reg(&fr.regs, ptr) {
                        Slot::Ptr(p) => p,
                        other => {
                            let ty = slot_to_value(other, ptr as usize, &fr.vecs).ty();
                            if index != NO_REG {
                                fail!(pc, "cannot index a value of type {}", ty)
                            } else {
                                fail!(pc, "cannot dereference a value of type {}", ty)
                            }
                        }
                    };
                    let offset = if index != NO_REG {
                        let idx = match trusted::reg(&fr.regs, index) {
                            Slot::Scalar(_, s) => s.as_i64(),
                            other => {
                                at!(pc, slot_to_value(other, index as usize, &fr.vecs).as_i64())
                            }
                        };
                        p.byte_offset + idx * p.pointee.size() as i64
                    } else {
                        p.byte_offset
                    };
                    if offset < 0 {
                        fail!(pc, "negative pointer offset");
                    }
                    nloads += 1;
                    let s = at!(
                        pc,
                        mem_load(ctx.shared, locals, p.buffer as usize, offset as usize, p.pointee)
                    );
                    trusted::set_reg(&mut fr.regs, dst, Slot::Scalar(p.pointee, s));
                }
                QInst::Store { ptr, index, src } => {
                    let p = match trusted::reg(&fr.regs, ptr) {
                        Slot::Ptr(p) => p,
                        other => {
                            let ty = slot_to_value(other, ptr as usize, &fr.vecs).ty();
                            if index != NO_REG {
                                fail!(pc, "cannot index a value of type {}", ty)
                            } else {
                                fail!(pc, "cannot dereference a value of type {}", ty)
                            }
                        }
                    };
                    let offset = if index != NO_REG {
                        let idx = match trusted::reg(&fr.regs, index) {
                            Slot::Scalar(_, s) => s.as_i64(),
                            other => {
                                at!(pc, slot_to_value(other, index as usize, &fr.vecs).as_i64())
                            }
                        };
                        p.byte_offset + idx * p.pointee.size() as i64
                    } else {
                        p.byte_offset
                    };
                    if offset < 0 {
                        fail!(pc, "negative pointer offset");
                    }
                    let s = match trusted::reg(&fr.regs, src) {
                        Slot::Scalar(_, s) => s,
                        other => {
                            at!(pc, slot_to_value(other, src as usize, &fr.vecs).scalar())
                        }
                    };
                    nstores += 1;
                    at!(
                        pc,
                        mem_store(
                            ctx.shared,
                            locals,
                            p.buffer as usize,
                            offset as usize,
                            p.pointee,
                            s
                        )
                    );
                }
                QInst::Lane { dst, src, lane } => {
                    at!(pc, op_lane(&mut fr.regs, &fr.vecs, dst, src, lane));
                }
                QInst::Swizzle { dst, src, pool } => {
                    at!(pc, op_swizzle(quick, &mut fr.regs, &mut fr.vecs, dst, src, pool));
                }
                QInst::SetLane { dst, lane, src } => {
                    at!(pc, op_set_lane(&mut fr.regs, &mut fr.vecs, dst, lane, src));
                }
                QInst::VecCtor { dst, ty, width, pool } => {
                    at!(pc, op_vec_ctor(quick, &mut fr.regs, &mut fr.vecs, dst, ty, width, pool));
                }
                QInst::CallMath { dst, pool } => {
                    nops += 1;
                    at!(pc, op_call_math(quick, &mut fr.regs, &mut fr.vecs, dst, pool));
                }
                QInst::WorkItem { dst, which, dim } => {
                    let d = if dim == NO_REG {
                        0
                    } else {
                        match trusted::reg(&fr.regs, dim) {
                            Slot::Scalar(_, s) => (s.as_u64() as usize).min(2),
                            other => {
                                at!(pc, slot_to_value(other, dim as usize, &fr.vecs).as_usize())
                                    .min(2)
                            }
                        }
                    };
                    let v = Slot::Scalar(ScalarType::SizeT, Scalar::U(item.query(which, d) as u64));
                    trusted::set_reg(&mut fr.regs, dst, v);
                }
                QInst::Atomic { op, dst, ptr, operand } => {
                    at!(
                        pc,
                        op_atomic(
                            ctx,
                            locals,
                            counters,
                            &mut fr.regs,
                            &fr.vecs,
                            op,
                            dst,
                            ptr,
                            operand,
                        )
                    );
                }
                QInst::Jump { target } => {
                    check_steps!();
                    pc = target as usize;
                    continue;
                }
                QInst::JumpIfFalse { cond, target } => {
                    let b = match trusted::reg(&fr.regs, cond) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc, slot_to_value(other, cond as usize, &fr.vecs).as_bool())
                        }
                    };
                    if !b {
                        check_steps!();
                        pc = target as usize;
                        continue;
                    }
                }
                QInst::JumpIfTrue { cond, target } => {
                    let b = match trusted::reg(&fr.regs, cond) {
                        Slot::Scalar(_, s) => s.as_bool(),
                        other => {
                            at!(pc, slot_to_value(other, cond as usize, &fr.vecs).as_bool())
                        }
                    };
                    if b {
                        check_steps!();
                        pc = target as usize;
                        continue;
                    }
                }
                QInst::Barrier => {
                    fr.pc = pc + 1;
                    flush_steps!();
                    return Ok(Stop::Barrier);
                }
                QInst::CallUser { dst, func: f, pool } => {
                    if depth + 1 > MAX_CALL_DEPTH {
                        fail!(pc, "maximum call depth exceeded");
                    }
                    let callee = &ctx.unit.functions[f as usize];
                    let args = &quick.reg_lists[pool as usize];
                    let mut callee_regs = vec![Slot::Void; callee.num_regs];
                    let mut callee_vecs: Vec<VecVal> = Vec::new();
                    for (i, (a, ty)) in args.iter().zip(&callee.param_types).enumerate() {
                        let v = slot_to_value(fr.regs[*a as usize], *a as usize, &fr.vecs);
                        let c = at!(pc, v.convert_to(ty));
                        write_value(&mut callee_regs, &mut callee_vecs, i, c);
                    }
                    fr.pc = pc + 1;
                    frames.push(Frame {
                        func: FuncId::Helper(f as usize),
                        pc: 0,
                        regs: callee_regs,
                        vecs: callee_vecs,
                        ret_dst: Some(dst),
                    });
                    continue 'frames;
                }
                QInst::Return { src } => {
                    let ret = if func.return_type == Type::Void {
                        Value::Void
                    } else if src == NO_REG {
                        fail!(pc, "function '{}' ended without returning a value", func.name)
                    } else {
                        let v = slot_to_value(fr.regs[src as usize], src as usize, &fr.vecs);
                        at!(pc, v.convert_to(&func.return_type))
                    };
                    if depth == 0 {
                        // Keep the kernel frame so callers can reclaim its
                        // register file between work-items.
                        flush_steps!();
                        return Ok(Stop::Done);
                    }
                    let finished = frames.pop().expect("returning frame exists");
                    if let Some(dst) = finished.ret_dst {
                        let caller = &mut frames[depth - 1];
                        write_value(&mut caller.regs, &mut caller.vecs, dst as usize, ret);
                    }
                    continue 'frames;
                }
            }
            pc += 1;
        }
    }
}

pub(crate) fn mem_load(
    shared: &SharedBufs<'_>,
    locals: &[Vec<u8>],
    buffer: usize,
    offset: usize,
    ty: ScalarType,
) -> Result<Scalar, CompileError> {
    if buffer < shared.len() {
        load_scalar(shared.bytes(buffer), offset, ty)
    } else {
        load_scalar(&locals[buffer - shared.len()], offset, ty)
    }
}

pub(crate) fn mem_store(
    shared: &SharedBufs<'_>,
    locals: &mut [Vec<u8>],
    buffer: usize,
    offset: usize,
    ty: ScalarType,
    value: Scalar,
) -> Result<(), CompileError> {
    if buffer < shared.len() {
        store_scalar(shared.bytes_mut(buffer), offset, ty, value)
    } else {
        store_scalar(&mut locals[buffer - shared.len()], offset, ty, value)
    }
}
