//! Lane executor: up to [`LANES`] work-items of one work-group run in
//! lockstep over the kernel's quickened stream, so each instruction's decode
//! and dispatch is paid once per batch instead of once per work-item (pocl's
//! work-group functions, without the compiler).
//!
//! * **Registers** live in a struct-of-arrays file: register `r` is one
//!   `[u64; LANES]`, lane `l` holding work-item `l`'s value as raw bits (an
//!   `I` payload as `i64`, `U` as `u64`, `F` as `f64` bits, a pointer as its
//!   byte offset).  Which of those a register holds is fixed per kernel by
//!   [`analyze`], so the hot arms never test a type at run time.
//! * **Divergence** is an execution mask: the lanes whose next instruction is
//!   the current `pc` run it, the others wait at their own `pc`.  After a
//!   split the group at the *lowest* waiting `pc` runs first.  `compile.rs`
//!   lays structured control flow out in source order (loop bodies before
//!   their exit, `then` before `else` before the join), so lanes that left a
//!   loop or finished a branch wait at the join until the rest arrive there,
//!   and merge.
//! * **Arithmetic** mirrors the scalar VM's `binary_fast` bit for bit for the
//!   same operand pairs (typed `float` lanes compute in `f64` and round, as
//!   it does) and calls the shared `eval_binary_scalars` / `eval_unary` per
//!   lane for everything else, so there is one definition of each operation.
//! * **Counters** count per active lane: a dispatch adds one step per lane
//!   running it, so `steps`, `ops`, `loads` and `stores` equal the scalar
//!   path's, which matters because `vocl` models an interpreted kernel's time
//!   from them.
//! * **Faults** are not reported here.  A batch that faults (out-of-bounds
//!   access, integer division by zero, ...) or runs past the step limit is
//!   abandoned and re-run on the scalar path, which returns exactly the
//!   scalar VM's error and source location.  That is safe because an
//!   eligible kernel never stores to a buffer it loads from, so re-running
//!   stores the same values again.
//!
//! Lockstep changes one ordering: stores of different work-items of one
//! batch land instruction by instruction rather than item by item, which is
//! visible only through write–write races between those work-items — left
//! undefined by OpenCL C.

use crate::ast::BinOp;
use crate::bytecode::{CompiledFunction, QInst, Reg, Slot, NO_REG};
use crate::error::CompileError;
use crate::interp::{eval_binary_scalars, eval_unary, WorkItemCounters};
use crate::types::{ScalarType, Type};
use crate::value::{convert_scalar, Scalar, Value};
use crate::vm::{mem_load, mem_store, run_serial, LaunchCtx, WorkItem, MAX_STEPS_PER_ITEM};

/// Work-items per batch (one bit each in a [`Mask`]).
pub(crate) const LANES: usize = 16;

/// One register across the lanes of a batch.
type Lane = [u64; LANES];

/// A set of lanes, bit `l` for lane `l`.
type Mask = u32;

/// Every lane.
const ALL: Mask = (1 << LANES) - 1;

/// The lanes an instruction runs for, and the lanes whose registers it may
/// write: those plus the lanes that have returned, whose registers are dead
/// (the next batch writes every register before reading it).  Writing
/// whole registers when no lane waits saves the per-lane select.
#[derive(Clone, Copy)]
struct Active {
    run: Mask,
    write: Mask,
}

/// The `pc` of a lane that has returned (or of a lane past the batch's end).
const DONE: u32 = u32::MAX;

/// Which [`Scalar`] payload a scalar type's values carry.  Every value the
/// scalar VM computes for a type has the payload `convert_scalar` gives it,
/// which is what lets a lane hold bare bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    I,
    U,
    F,
}

fn kind(t: ScalarType) -> Kind {
    match t {
        ScalarType::Float | ScalarType::Double => Kind::F,
        ScalarType::Char | ScalarType::Short | ScalarType::Int | ScalarType::Long => Kind::I,
        _ => Kind::U,
    }
}

fn kind_of(s: Scalar) -> Kind {
    match s {
        Scalar::I(_) => Kind::I,
        Scalar::U(_) => Kind::U,
        Scalar::F(_) => Kind::F,
    }
}

fn bits(s: Scalar) -> u64 {
    match s {
        Scalar::I(v) => v as u64,
        Scalar::U(v) => v,
        Scalar::F(v) => v.to_bits(),
    }
}

fn scalar(t: ScalarType, b: u64) -> Scalar {
    match kind(t) {
        Kind::I => Scalar::I(b as i64),
        Kind::U => Scalar::U(b),
        Kind::F => Scalar::F(f64::from_bits(b)),
    }
}

/// The static type of a register of a lane kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LType {
    /// Not written before this point of the stream.
    Unset,
    /// `void`: written (by `barrier`-free sync builtins), never read.
    Void,
    /// A scalar of this type, with its canonical payload.
    Scalar(ScalarType),
    /// A pointer derived from kernel parameter `param`; lanes hold its byte
    /// offset, the buffer is the parameter's.
    Ptr { param: u32, pointee: ScalarType },
}

/// A kernel the lane executor can run, with its per-register types and the
/// parameters it loads through and stores through (disjoint sets).
#[derive(Debug, Clone)]
pub(crate) struct LaneKernel {
    tys: Vec<LType>,
    loaded: Vec<u32>,
    stored: Vec<u32>,
}

/// Static typing of a kernel's stream in stream order.  Every method
/// returns `None` when the kernel does not qualify.
struct Typing {
    tys: Vec<LType>,
    loaded: Vec<u32>,
    stored: Vec<u32>,
}

impl Typing {
    fn write(&mut self, r: Reg, t: LType) -> Option<()> {
        let slot = &mut self.tys[r as usize];
        match *slot {
            LType::Unset => *slot = t,
            old if old != t => return None,
            _ => {}
        }
        Some(())
    }

    fn read(&self, r: Reg) -> Option<LType> {
        match self.tys[r as usize] {
            LType::Unset | LType::Void => None,
            t => Some(t),
        }
    }

    fn scalar(&self, r: Reg) -> Option<ScalarType> {
        match self.read(r)? {
            LType::Scalar(t) => Some(t),
            _ => None,
        }
    }

    fn constant(&mut self, dst: Reg, slot: Slot) -> Option<()> {
        match slot {
            Slot::Scalar(t, s) if kind_of(s) == kind(t) => self.write(dst, LType::Scalar(t)),
            Slot::Void => self.write(dst, LType::Void),
            _ => None,
        }
    }

    /// The result type of `lhs op rhs`, from the shared evaluator itself: it
    /// depends only on the operand types, and an operation that fails for
    /// every value (bitwise on `float`) disqualifies the kernel.
    fn binary(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) -> Option<()> {
        let t = match (self.read(lhs)?, self.read(rhs)?) {
            (LType::Scalar(lt), LType::Scalar(rt)) => {
                let one = convert_scalar(Scalar::I(1), rt);
                let (t, s) = eval_binary_scalars(op, lt, scalar(lt, 0), rt, one).ok()?;
                (kind_of(s) == kind(t)).then_some(LType::Scalar(t))?
            }
            (p @ LType::Ptr { .. }, LType::Scalar(_)) if matches!(op, BinOp::Add | BinOp::Sub) => p,
            _ => return None,
        };
        self.write(dst, t)
    }

    fn convert(&mut self, dst: Reg, src: Reg, ty: ScalarType) -> Option<()> {
        self.scalar(src)?;
        self.write(dst, LType::Scalar(ty))
    }

    /// The parameter and element type of a memory access.
    fn mem(&self, ptr: Reg, index: Reg) -> Option<(u32, ScalarType)> {
        if index != NO_REG {
            self.scalar(index)?;
        }
        match self.read(ptr)? {
            LType::Ptr { param, pointee } => Some((param, pointee)),
            _ => None,
        }
    }
}

/// Decide at build time whether `kernel` runs in lanes: no barrier, helper
/// call, atomic or vector value, one static scalar or pointer type per
/// register, and no parameter both loaded and stored through.
pub(crate) fn analyze(kernel: &CompiledFunction) -> Option<LaneKernel> {
    if kernel.return_type != Type::Void {
        return None;
    }
    let mut a = Typing { tys: vec![LType::Unset; kernel.num_regs], loaded: vec![], stored: vec![] };
    for (i, ty) in kernel.param_types.iter().enumerate() {
        a.tys[i] = match ty {
            Type::Scalar(t) => LType::Scalar(*t),
            Type::Pointer { pointee, .. } => {
                LType::Ptr { param: i as u32, pointee: pointee.element_scalar()? }
            }
            _ => return None,
        };
    }
    let q = &kernel.quick;
    for inst in &q.insts {
        match *inst {
            QInst::Const { dst, slot } => a.constant(dst, slot)?,
            QInst::Move { dst, src } => a.write(dst, a.read(src)?)?,
            QInst::ConvertScalar { dst, src, ty } => a.convert(dst, src, ty)?,
            QInst::Convert { dst, src, pool } => match (a.read(src)?, &q.types[pool as usize]) {
                (LType::Ptr { param, .. }, Type::Pointer { pointee, .. }) => {
                    a.write(dst, LType::Ptr { param, pointee: pointee.element_scalar()? })?
                }
                _ => return None,
            },
            QInst::Binary { op, dst, lhs, rhs } => a.binary(op, dst, lhs, rhs)?,
            QInst::Unary { op, dst, src } => {
                let t = a.scalar(src)?;
                match eval_unary(op, &Value::Scalar(t, scalar(t, 0))).ok()? {
                    Value::Scalar(rt, s) if kind_of(s) == kind(rt) => {
                        a.write(dst, LType::Scalar(rt))?
                    }
                    _ => return None,
                }
            }
            QInst::Bool { dst, src } => a.convert(dst, src, ScalarType::Int)?,
            QInst::Load { dst, ptr, index } => {
                let (param, pointee) = a.mem(ptr, index)?;
                a.loaded.push(param);
                a.write(dst, LType::Scalar(pointee))?;
            }
            QInst::Store { ptr, index, src } => {
                let (param, _) = a.mem(ptr, index)?;
                a.scalar(src)?;
                a.stored.push(param);
            }
            QInst::WorkItem { dst, dim, .. } => {
                if dim != NO_REG {
                    a.scalar(dim)?;
                }
                a.write(dst, LType::Scalar(ScalarType::SizeT))?;
            }
            QInst::JumpIfFalse { cond, .. } | QInst::JumpIfTrue { cond, .. } => {
                a.scalar(cond)?;
            }
            QInst::Jump { .. } | QInst::Return { .. } | QInst::Nop => {}
            QInst::BinaryImmR { op, dst, lhs, cdst, imm } => {
                a.constant(cdst, q.imms[imm as usize])?;
                a.binary(op, dst, lhs, cdst)?;
            }
            QInst::BinaryImmL { op, dst, cdst, rhs, imm } => {
                a.constant(cdst, q.imms[imm as usize])?;
                a.binary(op, dst, cdst, rhs)?;
            }
            QInst::BinaryJf { op, dst, lhs, rhs, .. }
            | QInst::BinaryJt { op, dst, lhs, rhs, .. } => {
                a.binary(op, dst, lhs, rhs)?;
                a.scalar(dst)?;
            }
            QInst::BinaryCvt { op, dst, lhs, rhs, cdst, ty } => {
                a.binary(op, dst, lhs, rhs)?;
                a.convert(cdst, dst, ty)?;
            }
            QInst::MulMulOp { op, dst, t1, a: x, b, t2, c, d } => {
                a.binary(BinOp::Mul, t1, x, b)?;
                a.binary(BinOp::Mul, t2, c, d)?;
                a.binary(op, dst, t1, t2)?;
            }
            QInst::BinaryImmJf { op, dst, lhs, cdst, imm, .. } => {
                a.constant(cdst, q.imms[imm as usize])?;
                a.binary(op, dst, lhs, cdst)?;
                a.scalar(dst)?;
            }
            QInst::BinaryImmCvt { op, dst, lhs, cdst, imm, vdst, ty } => {
                a.constant(cdst, q.imms[imm as usize])?;
                a.binary(op, dst, lhs, cdst)?;
                a.convert(vdst, dst, ty)?;
            }
            QInst::ConstVec { .. }
            | QInst::Lane { .. }
            | QInst::Swizzle { .. }
            | QInst::SetLane { .. }
            | QInst::VecCtor { .. }
            | QInst::CallUser { .. }
            | QInst::CallMath { .. }
            | QInst::Atomic { .. }
            | QInst::Barrier => return None,
        }
    }
    for set in [&mut a.loaded, &mut a.stored] {
        set.sort_unstable();
        set.dedup();
    }
    if a.loaded.iter().any(|p| a.stored.contains(p)) {
        return None;
    }
    Some(LaneKernel { tys: a.tys, loaded: a.loaded, stored: a.stored })
}

/// A batch gave up; the caller re-runs it on the scalar path.
struct Bail;

impl From<CompileError> for Bail {
    fn from(_: CompileError) -> Bail {
        Bail
    }
}

impl LaneKernel {
    /// Whether this launch binds the loaded and the stored parameters to
    /// different buffers (two pointer parameters may share one).
    pub(crate) fn fits(&self, bound_args: &[Value]) -> bool {
        let buffer = |p: &u32| match &bound_args[*p as usize] {
            Value::Ptr(ptr) => ptr.buffer,
            v => unreachable!("pointer parameter bound to {v:?}"),
        };
        self.loaded.iter().all(|l| self.stored.iter().all(|s| buffer(l) != buffer(s)))
    }

    /// Run one work-group's `items` in batches of [`LANES`]; a batch that
    /// gives up is re-run on the scalar path, whose error (if any) is the
    /// launch's.
    pub(crate) fn run_items(
        &self,
        ctx: &LaunchCtx<'_, '_>,
        locals: &mut [Vec<u8>],
        items: &[WorkItem],
        counters: &mut WorkItemCounters,
    ) -> Result<(), CompileError> {
        let mut seed: Vec<Lane> = Vec::with_capacity(ctx.bound_args.len());
        let mut bufs: Vec<usize> = Vec::with_capacity(ctx.bound_args.len());
        for v in ctx.bound_args {
            let (b, buf) = match v {
                Value::Scalar(_, s) => (bits(*s), 0),
                Value::Ptr(p) => (p.byte_offset as u64, p.buffer as usize),
                _ => unreachable!("lane kernels take scalar and pointer arguments only"),
            };
            seed.push([b; LANES]);
            bufs.push(buf);
        }
        let mut regs = vec![[0u64; LANES]; self.tys.len()];
        for batch in items.chunks(LANES) {
            regs[..seed.len()].copy_from_slice(&seed);
            let mut c = WorkItemCounters::default();
            match self.run_batch(ctx, locals, batch, &bufs, &mut regs, &mut c) {
                Ok(()) => *counters += c,
                Err(Bail) => run_serial(ctx, locals, batch, counters)?,
            }
        }
        Ok(())
    }

    fn scalar_ty(&self, r: Reg) -> ScalarType {
        match self.tys[r as usize] {
            LType::Scalar(t) => t,
            t => unreachable!("register r{r} analysed as {t:?}, read as a scalar"),
        }
    }

    fn ptr_ty(&self, r: Reg) -> (usize, ScalarType) {
        match self.tys[r as usize] {
            LType::Ptr { param, pointee } => (param as usize, pointee),
            t => unreachable!("register r{r} analysed as {t:?}, read as a pointer"),
        }
    }

    /// The lanes of `mask` that `cond` holds for (C truthiness).
    fn truth(&self, regs: &[Lane], cond: Reg, mask: Mask) -> Mask {
        let v = &regs[cond as usize];
        let mut m = 0;
        if kind(self.scalar_ty(cond)) == Kind::F {
            for (l, &x) in v.iter().enumerate() {
                m |= Mask::from(f64::from_bits(x) != 0.0) << l;
            }
        } else {
            for (l, &x) in v.iter().enumerate() {
                m |= Mask::from(x != 0) << l;
            }
        }
        m & mask
    }

    /// `dst = lhs op rhs` on the lanes of `mask`.
    #[inline(always)]
    fn binary(
        &self,
        regs: &mut [Lane],
        act: Active,
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    ) -> Result<(), Bail> {
        let (a, b) = (&regs[lhs as usize], &regs[rhs as usize]);
        let lt = self.tys[lhs as usize];
        let rt = self.tys[rhs as usize];
        let v = match (lt, rt) {
            (LType::Scalar(ScalarType::Float), LType::Scalar(ScalarType::Float)) => {
                float_ops(op, a, b)
            }
            (LType::Scalar(ScalarType::Int), LType::Scalar(ScalarType::Int | ScalarType::UInt)) => {
                int_ops(op, a, b)
            }
            (
                LType::Scalar(ScalarType::UInt),
                LType::Scalar(ScalarType::Int | ScalarType::UInt),
            ) => uint_ops(op, a, b),
            (LType::Ptr { pointee, .. }, LType::Scalar(t)) => {
                let size = pointee.size() as i64;
                Some(if op == BinOp::Sub {
                    map2(a, b, |p, s| {
                        p.wrapping_sub(scalar(t, s).as_i64().wrapping_mul(size) as u64)
                    })
                } else {
                    map2(a, b, |p, s| {
                        p.wrapping_add(scalar(t, s).as_i64().wrapping_mul(size) as u64)
                    })
                })
            }
            _ => None,
        };
        let v = match v {
            Some(v) => v,
            None => self.binary_generic(a, b, act.run, op, lt, rt, self.tys[dst as usize])?,
        };
        blend(&mut regs[dst as usize], &v, act.write);
        Ok(())
    }

    /// Every pair the fast arms decline, through the shared evaluator.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn binary_generic(
        &self,
        a: &Lane,
        b: &Lane,
        mask: Mask,
        op: BinOp,
        lt: LType,
        rt: LType,
        dt: LType,
    ) -> Result<Lane, Bail> {
        let (LType::Scalar(lt), LType::Scalar(rt)) = (lt, rt) else {
            unreachable!("pointer operands are handled by the fast arms")
        };
        let mut out = [0; LANES];
        for l in lanes(mask) {
            let (t, s) = eval_binary_scalars(op, lt, scalar(lt, a[l]), rt, scalar(rt, b[l]))?;
            debug_assert_eq!(LType::Scalar(t), dt);
            out[l] = bits(s);
        }
        Ok(out)
    }

    /// `dst = (ty)src` on the lanes of `mask`.
    fn convert(&self, regs: &mut [Lane], act: Active, dst: Reg, src: Reg, ty: ScalarType) {
        let from = self.scalar_ty(src);
        let v = &regs[src as usize];
        let out = match (kind(from), ty) {
            (Kind::F, ScalarType::Float) => map1(v, |x| f32r(f64::from_bits(x))),
            (Kind::F, ScalarType::Double)
            | (Kind::U, ScalarType::ULong | ScalarType::SizeT)
            | (Kind::I, ScalarType::Long) => *v,
            (Kind::U, ScalarType::UInt) => map1(v, |x| x as u32 as u64),
            (Kind::I, ScalarType::Int) => map1(v, |x| x as i32 as i64 as u64),
            _ => map1(v, |x| bits(convert_scalar(scalar(from, x), ty))),
        };
        blend(&mut regs[dst as usize], &out, act.write);
    }

    /// The byte offset lane `l` of a `ptr[index]` access addresses.
    fn offset(&self, regs: &[Lane], l: usize, ptr: Reg, index: Reg) -> Result<usize, Bail> {
        let (_, pointee) = self.ptr_ty(ptr);
        let base = regs[ptr as usize][l] as i64;
        let offset = if index != NO_REG {
            let idx = scalar(self.scalar_ty(index), regs[index as usize][l]).as_i64();
            base + idx * pointee.size() as i64
        } else {
            base
        };
        usize::try_from(offset).map_err(|_| Bail)
    }

    /// Run one batch to completion, or give up on it.
    fn run_batch(
        &self,
        ctx: &LaunchCtx<'_, '_>,
        locals: &mut [Vec<u8>],
        items: &[WorkItem],
        bufs: &[usize],
        regs: &mut [Lane],
        counters: &mut WorkItemCounters,
    ) -> Result<(), Bail> {
        let quick = &ctx.kernel.func.quick;
        let code = &quick.insts[..];
        let mut s = Sched { pc: [DONE; LANES], mask: 0, done: 0, nactive: 0, next_wait: DONE };
        s.pc[..items.len()].fill(0);
        let mut pc = s.select().expect("a batch has at least one work-item");
        let (mut dispatches, mut steps, mut ops, mut loads, mut stores) = (0u64, 0, 0, 0, 0);

        loop {
            dispatches += 1;
            steps += s.nactive;
            let mask = s.mask;
            let act = Active { run: mask, write: mask | s.done };
            // What the active lanes do next: fall through `k` instructions,
            // or branch (`taken` lanes to `target`, the rest fall through).
            let (k, taken, target) = match code[pc] {
                QInst::Const { dst, slot } => {
                    set_const(&mut regs[dst as usize], slot, act.write);
                    (1, 0, 0)
                }
                QInst::Move { dst, src } | QInst::Convert { dst, src, .. } => {
                    let v = regs[src as usize];
                    blend(&mut regs[dst as usize], &v, act.write);
                    (1, 0, 0)
                }
                QInst::ConvertScalar { dst, src, ty } => {
                    self.convert(regs, act, dst, src, ty);
                    (1, 0, 0)
                }
                QInst::Binary { op, dst, lhs, rhs } => {
                    ops += s.nactive;
                    self.binary(regs, act, op, dst, lhs, rhs)?;
                    (1, 0, 0)
                }
                QInst::Unary { op, dst, src } => {
                    ops += s.nactive;
                    let t = self.scalar_ty(src);
                    let mut out = regs[dst as usize];
                    for l in lanes(mask) {
                        let v =
                            eval_unary(op, &Value::Scalar(t, scalar(t, regs[src as usize][l])))?;
                        out[l] = bits(v.scalar()?);
                    }
                    regs[dst as usize] = out;
                    (1, 0, 0)
                }
                QInst::Bool { dst, src } => {
                    ops += s.nactive;
                    let t = self.truth(regs, src, mask);
                    let out = std::array::from_fn(|l| u64::from(t >> l & 1 != 0));
                    blend(&mut regs[dst as usize], &out, act.write);
                    (1, 0, 0)
                }
                QInst::Load { dst, ptr, index } => {
                    loads += s.nactive;
                    let (param, pointee) = self.ptr_ty(ptr);
                    let mut out = regs[dst as usize];
                    for l in lanes(mask) {
                        let at = self.offset(regs, l, ptr, index)?;
                        out[l] = bits(mem_load(ctx.shared, locals, bufs[param], at, pointee)?);
                    }
                    regs[dst as usize] = out;
                    (1, 0, 0)
                }
                QInst::Store { ptr, index, src } => {
                    stores += s.nactive;
                    let (param, pointee) = self.ptr_ty(ptr);
                    let t = self.scalar_ty(src);
                    for l in lanes(mask) {
                        let at = self.offset(regs, l, ptr, index)?;
                        let v = scalar(t, regs[src as usize][l]);
                        mem_store(ctx.shared, locals, bufs[param], at, pointee, v)?;
                    }
                    (1, 0, 0)
                }
                QInst::WorkItem { dst, which, dim } => {
                    let mut out = regs[dst as usize];
                    for l in lanes(mask) {
                        let d = match dim {
                            NO_REG => 0,
                            r => (scalar(self.scalar_ty(r), regs[r as usize][l]).as_u64() as usize)
                                .min(2),
                        };
                        out[l] = items[l].query(which, d) as u64;
                    }
                    regs[dst as usize] = out;
                    (1, 0, 0)
                }
                QInst::Jump { target } => (1, mask, target),
                QInst::JumpIfFalse { cond, target } => {
                    (1, mask & !self.truth(regs, cond, mask), target)
                }
                QInst::JumpIfTrue { cond, target } => (1, self.truth(regs, cond, mask), target),
                QInst::Return { .. } => {
                    counters.work_items += s.nactive;
                    s.park(mask, DONE);
                    match s.select() {
                        Some(next) => {
                            pc = next;
                            continue;
                        }
                        None => break,
                    }
                }
                QInst::BinaryImmR { op, dst, lhs, cdst, imm } => {
                    ops += s.nactive;
                    set_const(&mut regs[cdst as usize], quick.imms[imm as usize], act.write);
                    self.binary(regs, act, op, dst, lhs, cdst)?;
                    (2, 0, 0)
                }
                QInst::BinaryImmL { op, dst, cdst, rhs, imm } => {
                    ops += s.nactive;
                    set_const(&mut regs[cdst as usize], quick.imms[imm as usize], act.write);
                    self.binary(regs, act, op, dst, cdst, rhs)?;
                    (2, 0, 0)
                }
                QInst::BinaryJf { op, dst, lhs, rhs, target } => {
                    ops += s.nactive;
                    self.binary(regs, act, op, dst, lhs, rhs)?;
                    (2, mask & !self.truth(regs, dst, mask), target)
                }
                QInst::BinaryJt { op, dst, lhs, rhs, target } => {
                    ops += s.nactive;
                    self.binary(regs, act, op, dst, lhs, rhs)?;
                    (2, self.truth(regs, dst, mask), target)
                }
                QInst::BinaryCvt { op, dst, lhs, rhs, cdst, ty } => {
                    ops += s.nactive;
                    self.binary(regs, act, op, dst, lhs, rhs)?;
                    self.convert(regs, act, cdst, dst, ty);
                    (2, 0, 0)
                }
                QInst::MulMulOp { op, dst, t1, a, b, t2, c, d } => {
                    ops += 3 * s.nactive;
                    self.binary(regs, act, BinOp::Mul, t1, a, b)?;
                    self.binary(regs, act, BinOp::Mul, t2, c, d)?;
                    self.binary(regs, act, op, dst, t1, t2)?;
                    (3, 0, 0)
                }
                QInst::BinaryImmJf { op, dst, lhs, cdst, imm, target } => {
                    ops += s.nactive;
                    set_const(&mut regs[cdst as usize], quick.imms[imm as usize], act.write);
                    self.binary(regs, act, op, dst, lhs, cdst)?;
                    (3, mask & !self.truth(regs, dst, mask), target)
                }
                QInst::BinaryImmCvt { op, dst, lhs, cdst, imm, vdst, ty } => {
                    ops += s.nactive;
                    set_const(&mut regs[cdst as usize], quick.imms[imm as usize], act.write);
                    self.binary(regs, act, op, dst, lhs, cdst)?;
                    self.convert(regs, act, vdst, dst, ty);
                    (3, 0, 0)
                }
                other => unreachable!("{other:?} in a kernel analysed as lane-eligible"),
            };
            let fall = pc + k;
            pc = if taken == 0 {
                s.goto(fall)
            } else {
                // Any endless loop takes some jump endlessly; the batch's
                // dispatch count bounds every lane's step count.
                if dispatches > MAX_STEPS_PER_ITEM {
                    return Err(Bail);
                }
                if taken == mask {
                    s.goto(target as usize)
                } else {
                    s.park(taken, target);
                    s.park(mask & !taken, fall as u32);
                    s.select().expect("the lanes just parked are live")
                }
            };
        }
        counters.ops += ops;
        counters.loads += loads;
        counters.stores += stores;
        counters.steps += steps;
        Ok(())
    }
}

/// Which lanes run the current instruction and where the others wait.
struct Sched {
    /// Where each waiting lane resumes; [`DONE`] for lanes that returned.
    /// Stale for the active lanes, which are at the current `pc`.
    pc: [u32; LANES],
    /// The lanes at the current `pc`.
    mask: Mask,
    /// The lanes that have returned.
    done: Mask,
    /// Lanes in `mask`.
    nactive: u64,
    /// The lowest `pc` a waiting lane resumes at ([`DONE`] if none waits).
    next_wait: u32,
}

impl Sched {
    fn park(&mut self, mask: Mask, at: u32) {
        for l in lanes(mask) {
            self.pc[l] = at;
        }
    }

    /// Activate the lanes waiting at the lowest `pc` and return it; `None`
    /// once every lane has returned.
    fn select(&mut self) -> Option<usize> {
        let min = *self.pc.iter().min().expect("LANES > 0");
        if min == DONE {
            return None;
        }
        let (mut mask, mut done, mut next) = (0, 0, DONE);
        for (l, &p) in self.pc.iter().enumerate() {
            if p == min {
                mask |= 1 << l;
            } else if p == DONE {
                done |= 1 << l;
            } else {
                next = next.min(p);
            }
        }
        self.mask = mask;
        self.done = done;
        self.nactive = u64::from(mask.count_ones());
        self.next_wait = next;
        Some(min as usize)
    }

    /// Move the active lanes to `to`: they keep running unless a waiting
    /// group is at or below it, which then runs (merged with them if equal).
    #[inline(always)]
    fn goto(&mut self, to: usize) -> usize {
        if (to as u32) < self.next_wait {
            return to;
        }
        self.park(self.mask, to as u32);
        self.select().expect("the lanes just parked are live")
    }
}

fn lanes(mask: Mask) -> impl Iterator<Item = usize> {
    (0..LANES).filter(move |l| mask >> l & 1 != 0)
}

/// `dst[l] = v[l]` for the lanes of `mask`; the others keep their values.
#[inline(always)]
fn blend(dst: &mut Lane, v: &Lane, mask: Mask) {
    if mask == ALL {
        *dst = *v;
        return;
    }
    for (l, (d, &x)) in dst.iter_mut().zip(v).enumerate() {
        *d = if mask >> l & 1 != 0 { x } else { *d };
    }
}

#[inline(always)]
fn set_const(dst: &mut Lane, slot: Slot, mask: Mask) {
    let b = match slot {
        Slot::Scalar(_, s) => bits(s),
        _ => 0,
    };
    blend(dst, &[b; LANES], mask);
}

#[inline(always)]
fn map1(a: &Lane, f: impl Fn(u64) -> u64) -> Lane {
    std::array::from_fn(|l| f(a[l]))
}

#[inline(always)]
fn map2(a: &Lane, b: &Lane, f: impl Fn(u64, u64) -> u64) -> Lane {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// Round to `float` precision, as `binary_fast` and `convert_scalar` do.
#[inline(always)]
fn f32r(v: f64) -> u64 {
    (v as f32 as f64).to_bits()
}

/// An `int` 0/1 comparison result.
#[inline(always)]
fn flag(v: bool) -> u64 {
    u64::from(v)
}

/// `float ⊕ float`, mirroring `binary_fast`; `None` for the generic path.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(a <= b)` ≠ `a > b` for NaN; the negation is the point
fn float_ops(op: BinOp, a: &Lane, b: &Lane) -> Option<Lane> {
    let f = f64::from_bits;
    Some(match op {
        BinOp::Add => map2(a, b, |x, y| f32r(f(x) + f(y))),
        BinOp::Sub => map2(a, b, |x, y| f32r(f(x) - f(y))),
        BinOp::Mul => map2(a, b, |x, y| f32r(f(x) * f(y))),
        BinOp::Div => map2(a, b, |x, y| f32r(f(x) / f(y))),
        BinOp::Lt => map2(a, b, |x, y| flag(f(x) < f(y))),
        BinOp::Le => map2(a, b, |x, y| flag(f(x) <= f(y))),
        BinOp::Gt => map2(a, b, |x, y| flag(!(f(x) <= f(y)))),
        BinOp::Ge => map2(a, b, |x, y| flag(!(f(x) < f(y)))),
        BinOp::Eq => map2(a, b, |x, y| flag(f(x) == f(y))),
        BinOp::Ne => map2(a, b, |x, y| flag(f(x) != f(y))),
        _ => return None,
    })
}

/// `int ⊕ int|uint` (result `int`), mirroring `binary_fast`'s `int_ops`.
#[inline(always)]
fn int_ops(op: BinOp, a: &Lane, b: &Lane) -> Option<Lane> {
    let i = |v: i64| v as i32 as i64 as u64;
    Some(match op {
        BinOp::Add => map2(a, b, |x, y| i((x as i64).wrapping_add(y as i64))),
        BinOp::Sub => map2(a, b, |x, y| i((x as i64).wrapping_sub(y as i64))),
        BinOp::Mul => map2(a, b, |x, y| i((x as i64).wrapping_mul(y as i64))),
        BinOp::Lt => map2(a, b, |x, y| flag((x as i64) < (y as i64))),
        BinOp::Le => map2(a, b, |x, y| flag((x as i64) <= (y as i64))),
        BinOp::Gt => map2(a, b, |x, y| flag((x as i64) > (y as i64))),
        BinOp::Ge => map2(a, b, |x, y| flag((x as i64) >= (y as i64))),
        BinOp::Eq => map2(a, b, |x, y| flag(x == y)),
        BinOp::Ne => map2(a, b, |x, y| flag(x != y)),
        _ => return None,
    })
}

/// `uint ⊕ int|uint` (result `uint`), mirroring `binary_fast`'s `uint_ops`.
#[inline(always)]
fn uint_ops(op: BinOp, a: &Lane, b: &Lane) -> Option<Lane> {
    let u = |v: u64| v as u32 as u64;
    Some(match op {
        BinOp::Add => map2(a, b, |x, y| u(x.wrapping_add(y))),
        BinOp::Sub => map2(a, b, |x, y| u(x.wrapping_sub(y))),
        BinOp::Mul => map2(a, b, |x, y| u(x.wrapping_mul(y))),
        BinOp::Lt => map2(a, b, |x, y| flag(x < y)),
        BinOp::Le => map2(a, b, |x, y| flag(x <= y)),
        BinOp::Gt => map2(a, b, |x, y| flag(x > y)),
        BinOp::Ge => map2(a, b, |x, y| flag(x >= y)),
        BinOp::Eq => map2(a, b, |x, y| flag(x == y)),
        BinOp::Ne => map2(a, b, |x, y| flag(x != y)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::CompiledUnit;
    use crate::error::Location;
    use crate::{BufferBinding, KernelArgValue, NdRange, Program};

    /// With more than one VM thread the VM cuts dimension 0 into
    /// chunks of whole lane batches, and the result is the one thread's,
    /// byte for byte and counter for counter.
    #[test]
    fn implicit_lane_chunks_are_whole_batches() {
        for threads in [2, 3, 4] {
            for global in [1, 15, 16, 17, 1_000, 4_099] {
                let chunk = crate::vm::implicit_chunk(global, threads, true);
                assert_eq!(chunk % LANES, 0, "{global} items on {threads} threads");
                assert!(chunk >= crate::vm::implicit_chunk(global, threads, false));
            }
        }
        let kernel = Program::build(INDEX2D).unwrap().kernel("index2d").unwrap();
        assert!(kernel.runs_in_lanes());
        let n = 1_000;
        let args = [KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(n as u64))];
        let run = |threads| {
            let mut out = vec![0u8; n * 4];
            let mut bindings = vec![BufferBinding::new(&mut out)];
            let range = NdRange::linear(n);
            let counters =
                kernel.execute_vm_with_threads(&range, &args, &mut bindings, threads).unwrap();
            (out, counters)
        };
        assert_eq!(run(2), run(1));
    }

    /// `workloads::mandelbrot::KERNEL_SOURCE` (the paper's Fig. 4 kernel).
    const MANDELBROT: &str = r#"
        __kernel void mandelbrot_rows(__global uint* out, uint width, uint rows,
                                      float x_min, float y_min, float dx, float dy,
                                      uint row_offset, uint max_iter) {
            size_t gx = get_global_id(0);
            size_t gy = get_global_id(1);
            if (gx >= width || gy >= rows) return;
            float cr = x_min + dx * (float)gx;
            float ci = y_min + dy * (float)(gy + row_offset);
            float zr = 0.0f;
            float zi = 0.0f;
            uint iter = 0;
            while (zr * zr + zi * zi <= 4.0f && iter < max_iter) {
                float t = zr * zr - zi * zi + cr;
                zi = 2.0f * zr * zi + ci;
                zr = t;
                iter = iter + 1;
            }
            out[gy * width + gx] = iter;
        }
    "#;

    /// The lane-eligible kernels of `tests/tests/kernel_vm.rs`.
    const INDEX2D: &str = r#"
        __kernel void index2d(__global uint* out, uint width) {
            size_t x = get_global_id(0);
            size_t y = get_global_id(1);
            out[y * width + x] = (uint)(y * 100 + x);
        }
    "#;
    const ITERATE: &str = r#"
        __kernel void iterate(__global uint* out, float cr, float ci, uint max_iter) {
            size_t gid = get_global_id(0);
            float zr = 0.0f;
            float zi = 0.0f;
            uint iter = 0;
            while (zr * zr + zi * zi <= 4.0f && iter < max_iter) {
                float t = zr * zr - zi * zi + cr;
                zi = 2.0f * zr * zi + ci;
                zr = t;
                iter++;
            }
            out[gid] = iter;
        }
    "#;
    const CONTROL_FLOW: &str = r#"
        __kernel void f(__global int* out, int n) {
            int total = 0;
            for (int i = 0; i < 1000; i++) {
                if (i >= n) break;
                if (i % 2 == 1) continue;
                total += i;
            }
            out[0] = total > 10 ? total : -total;
            int j = 0;
            do { j++; } while (j < n);
            out[1] = j;
        }
    "#;
    const MIXED_SIGNEDNESS: &str = r#"
        __kernel void f(__global int* out, uint n) {
            int i = -1;
            out[0] = i < n ? 1 : 0;
            out[1] = (int)(i++);
            out[2] = ++i;
        }
    "#;
    const OOB: &str = r#"
        __kernel void oob(__global int* out) {
            out[1000] = 1;
        }
    "#;
    /// Divergence in every shape the lowering produces: early return,
    /// `if`/`else`, `break`/`continue`, short-circuit conditions and
    /// ternaries, per-lane trip counts, loads through a second buffer,
    /// pointer arithmetic and the shared evaluator's operand pairs.
    const DIVERGENT: &str = r#"
        __kernel void d(__global const float* in, __global int* out, uint n, uint width) {
            size_t x = get_global_id(0);
            size_t y = get_global_id(1);
            if (x >= width) return;
            size_t i = y * width + x;
            __global const float* row = in + y * width;
            int acc = 0;
            for (uint k = 0; k < (uint)(x % 7u) * 3u; k++) {
                if (k % 3u == 1u) continue;
                if (acc > 40 && (x & 1u) == 0u) break;
                acc += (int)k * (x % 2u == 0u ? 1 : -2);
            }
            long wide = (long)acc << 3;
            float v = row[x] * 0.5f - (float)(i % 5u);
            if (v > 1.0f || acc < -5) {
                out[i] = (int)(wide / 3) + (int)v;
            } else {
                out[i] = -acc ^ (int)(i >> 1);
            }
            out[n + i] = (int)(~x) & 255;
        }
    "#;

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    type Outcome = Result<(Vec<Vec<u8>>, WorkItemCounters), (CompileError, Vec<Vec<u8>>)>;

    /// The program's units with and without the lane executor.
    fn units(src: &str, name: &str) -> (CompiledUnit, CompiledUnit, usize) {
        let program = Program::build(src).expect("build");
        let index = program.kernels[name].0;
        let lanes = (*program.compiled).clone();
        assert!(lanes.kernels[&index].lanes.is_some(), "{name} should run in lanes");
        let mut scalar = lanes.clone();
        scalar.kernels.values_mut().for_each(|k| k.lanes = None);
        (lanes, scalar, index)
    }

    fn run(
        unit: &CompiledUnit,
        index: usize,
        range: &NdRange,
        args: &[KernelArgValue],
        mut bufs: Vec<Vec<u8>>,
        threads: usize,
    ) -> Outcome {
        let result = {
            let mut bindings: Vec<BufferBinding<'_>> =
                bufs.iter_mut().map(|b| BufferBinding::new(b)).collect();
            crate::vm::execute_kernel(unit, index, range, args, &mut bindings, threads)
        };
        match result {
            Ok(c) => Ok((bufs, c)),
            Err(e) => Err((e, bufs)),
        }
    }

    /// Run `src` on both paths and assert equal bytes and counters (or
    /// equal errors); returns the lane path's outcome.
    fn same_on_both_paths(
        src: &str,
        name: &str,
        range: &NdRange,
        args: &[KernelArgValue],
        bufs: Vec<Vec<u8>>,
        threads: usize,
    ) -> Outcome {
        let (lanes, scalar, index) = units(src, name);
        let expect = run(&scalar, index, range, args, bufs.clone(), threads);
        let got = run(&lanes, index, range, args, bufs, threads);
        match (&expect, &got) {
            (Ok(e), Ok(g)) => {
                assert_eq!(e.1, g.1, "{name} {range:?} at {threads} thread(s): counters differ");
                assert!(e.0 == g.0, "{name} {range:?} at {threads} thread(s): bytes differ");
            }
            (Err(e), Err(g)) => assert_eq!(e.0, g.0, "{name} {range:?}: errors differ"),
            _ => panic!("{name} {range:?}: one path failed: {expect:?} vs {got:?}"),
        }
        got
    }

    /// A random 1-D or 2-D range: global sizes mostly not a multiple of
    /// [`LANES`], a nonzero offset half the time, an explicit local size
    /// (1..=300 items) two times in three.
    fn random_range(rng: &mut Rng, two_d: bool) -> NdRange {
        let mut range = if two_d {
            NdRange::two_d(1 + rng.below(40), 1 + rng.below(9))
        } else {
            NdRange::linear(1 + rng.below(120))
        };
        if rng.below(2) == 0 {
            range = range.with_offset([rng.below(20), if two_d { rng.below(5) } else { 0 }, 0]);
        }
        match (rng.below(3), two_d) {
            (0, _) => {}
            (_, false) => range = range.with_local([1 + rng.below(300), 1, 1]),
            (_, true) => range = range.with_local([1 + rng.below(60), 1 + rng.below(5), 1]),
        }
        range
    }

    fn u(v: u64) -> KernelArgValue {
        KernelArgValue::Scalar(Value::uint(v))
    }

    fn f(v: f32) -> KernelArgValue {
        KernelArgValue::Scalar(Value::float(v))
    }

    #[test]
    fn lanes_match_the_scalar_path_on_random_ranges() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..24 {
            let threads = 1 + case % 2;
            let two_d = case % 3 != 0;
            let range = random_range(&mut rng, two_d);
            let (gw, gh) = (range.global[0] + range.offset[0], range.global[1] + range.offset[1]);
            let pixels = gw * gh;

            // Mandelbrot over a window that clips some lanes (early return).
            let (width, rows) = (gw - rng.below(3).min(gw - 1), gh);
            let args = [
                KernelArgValue::Buffer(0),
                u(width as u64),
                u(rows as u64),
                f(-2.0),
                f(-1.1),
                f(2.6 / gw as f32),
                f(2.2 / gh as f32),
                u(rng.below(4) as u64),
                u(1 + rng.below(80) as u64),
            ];
            let out = same_on_both_paths(
                MANDELBROT,
                "mandelbrot_rows",
                &range,
                &args,
                vec![vec![0; pixels * 4]],
                threads,
            );
            assert!(out.is_ok(), "mandelbrot {range:?} failed");

            let args = [KernelArgValue::Buffer(0), u(gw as u64)];
            let out = same_on_both_paths(
                INDEX2D,
                "index2d",
                &range,
                &args,
                vec![vec![0; pixels * 4]],
                threads,
            );
            assert!(out.is_ok(), "index2d {range:?} failed");

            let input: Vec<u8> =
                (0..pixels).flat_map(|i| (i as f32 * 0.75).to_le_bytes()).collect();
            let args = [
                KernelArgValue::Buffer(0),
                KernelArgValue::Buffer(1),
                u(pixels as u64),
                u(gw as u64),
            ];
            let out = same_on_both_paths(
                DIVERGENT,
                "d",
                &range,
                &args,
                vec![input, vec![0; 2 * pixels * 4]],
                threads,
            );
            assert!(out.is_ok(), "divergent kernel {range:?} failed");

            let items = range.total_items() + range.offset[0];
            let args = [KernelArgValue::Buffer(0), f(-0.75), f(0.1), u(rng.below(300) as u64)];
            same_on_both_paths(
                ITERATE,
                "iterate",
                &range,
                &args,
                vec![vec![0; items * 4]],
                threads,
            )
            .expect("iterate");
            let n = KernelArgValue::Scalar(Value::int(rng.below(30) as i64 - 5));
            let args = [KernelArgValue::Buffer(0), n];
            same_on_both_paths(CONTROL_FLOW, "f", &range, &args, vec![vec![0; 8]], threads)
                .expect("control flow");
            let args = [KernelArgValue::Buffer(0), u(rng.below(8) as u64)];
            same_on_both_paths(MIXED_SIGNEDNESS, "f", &range, &args, vec![vec![0; 12]], threads)
                .expect("mixed signedness");
            let err = same_on_both_paths(
                OOB,
                "oob",
                &range,
                &[KernelArgValue::Buffer(0)],
                vec![vec![0; 8]],
                threads,
            )
            .expect_err("out of bounds");
            assert!(err.0.message.contains("out-of-bounds"));
        }
    }

    #[test]
    fn a_store_fault_in_lane_5_reports_the_scalar_error() {
        let src = r#"
            __kernel void k(__global int* out) {
                size_t i = get_global_id(0);
                out[i] = (int)i + 1;
            }
        "#;
        let range = NdRange::linear(16);
        let (err, bufs) = same_on_both_paths(
            src,
            "k",
            &range,
            &[KernelArgValue::Buffer(0)],
            vec![vec![0; 5 * 4]],
            1,
        )
        .expect_err("lane 5 stores out of bounds");
        assert_eq!(err.message, "out-of-bounds write of 4 bytes at offset 20 (buffer is 20 bytes)");
        assert_eq!(err.location, Location::new(4, 24));
        let stored: Vec<i32> =
            bufs[0].chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(stored, [1, 2, 3, 4, 5], "lanes 0-4 stored before lane 5 faulted");
    }

    #[test]
    fn an_endless_loop_in_one_lane_ends_at_the_step_limit() {
        let src = r#"
            __kernel void k(__global int* out) {
                size_t i = get_global_id(0);
                int spin = i == 3;
                while (spin) { }
                out[i] = 1;
            }
        "#;
        let (err, _) = same_on_both_paths(
            src,
            "k",
            &NdRange::linear(8),
            &[KernelArgValue::Buffer(0)],
            vec![vec![0; 8 * 4]],
            1,
        )
        .expect_err("lane 3 never finishes");
        assert!(err.message.contains("step limit"), "got: {}", err.message);
    }

    /// Results cannot show the schedule (each lane follows its own path
    /// under any order), so the reconvergence policy is pinned here.
    #[test]
    fn the_lowest_waiting_pc_runs_first_and_lanes_merge_there() {
        let mut s = Sched { pc: [DONE; LANES], mask: 0, done: 0, nactive: 0, next_wait: DONE };
        s.pc[..4].copy_from_slice(&[9, 5, 9, DONE]);
        s.pc[4] = 5;
        assert_eq!(s.select(), Some(5));
        assert_eq!((s.mask, s.nactive, s.next_wait), (0b10010, 2, 9));
        assert_eq!(s.done, ALL & !0b10111);
        // Running on to 7 keeps the lanes; reaching 9 merges the waiters.
        assert_eq!(s.goto(7), 7);
        assert_eq!(s.goto(9), 9);
        assert_eq!((s.mask, s.nactive, s.next_wait), (0b10111, 4, DONE));
        // A jump past a waiting group runs that group first.
        s.park(0b00011, 12);
        s.park(0b10100, 3);
        assert_eq!(s.select(), Some(3));
        assert_eq!(s.goto(20), 12);
        assert_eq!(s.mask, 0b00011);
        s.park(s.mask, DONE);
        assert_eq!(s.select(), Some(20));
        s.park(s.mask, DONE);
        assert_eq!(s.select(), None);
    }

    #[test]
    fn a_buffer_bound_to_a_load_and_a_store_runs_item_by_item() {
        let src = r#"
            __kernel void shift(__global const int* a, __global int* b) {
                size_t i = get_global_id(0);
                b[i + 1] = a[i] + 1;
            }
        "#;
        let args = [KernelArgValue::Buffer(0), KernelArgValue::Buffer(0)];
        let (bufs, _) =
            same_on_both_paths(src, "shift", &NdRange::linear(8), &args, vec![vec![0; 9 * 4]], 1)
                .expect("shift");
        // Each item reads what the one before it stored; lockstep would
        // load every `a[i]` before any store.
        let ints: Vec<i32> =
            bufs[0].chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(ints, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
