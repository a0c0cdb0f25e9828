//! Tree-walking interpreter executing kernels over an NDRange.
//!
//! This is the *legacy* executor, kept as the differential-testing oracle
//! for the bytecode VM (`crate::vm`) and reachable at runtime via the
//! `DCL_INTERP=tree` escape hatch.  It executes work-items sequentially, one
//! at a time, inside the calling thread.
//!
//! Because work-items run strictly one after another, work-group barriers
//! cannot be given their real semantics here: each `barrier()` call is a
//! no-op.  That is sound only for kernels that never communicate through
//! `__local` memory across a barrier, so [`execute_kernel`] *rejects*
//! kernels that combine `barrier()` with `__local`-memory writes (a clear
//! error instead of silently wrong results).  The VM executes such kernels
//! correctly by suspending and resuming the group's work-items in phases.

use crate::ast::*;
use crate::builtins::{self, BuiltinKind};
use crate::error::CompileError;
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{convert_scalar, load_scalar, store_scalar, Pointer, Scalar, Value};
use std::collections::HashMap;

/// Maximum user-function call depth (guards against runaway recursion).
const MAX_CALL_DEPTH: usize = 64;

/// Maximum number of interpreted statements per work-item (guards against
/// infinite loops taking the whole process down).
const MAX_STEPS_PER_ITEM: u64 = 2_000_000;

/// The index space a kernel is launched over (`clEnqueueNDRangeKernel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdRange {
    /// Global work size per dimension (unused dimensions are 1).
    pub global: [usize; 3],
    /// Optional work-group size per dimension.
    pub local: Option<[usize; 3]>,
    /// Global offset per dimension.
    pub offset: [usize; 3],
    /// Number of dimensions actually used (1–3).
    pub work_dim: u8,
}

impl NdRange {
    /// 1-dimensional range of `n` work-items.
    pub fn linear(n: usize) -> Self {
        NdRange { global: [n, 1, 1], local: None, offset: [0, 0, 0], work_dim: 1 }
    }

    /// 2-dimensional range.
    pub fn two_d(width: usize, height: usize) -> Self {
        NdRange { global: [width, height, 1], local: None, offset: [0, 0, 0], work_dim: 2 }
    }

    /// 3-dimensional range.
    pub fn three_d(x: usize, y: usize, z: usize) -> Self {
        NdRange { global: [x, y, z], local: None, offset: [0, 0, 0], work_dim: 3 }
    }

    /// Set the work-group size.
    pub fn with_local(mut self, local: [usize; 3]) -> Self {
        self.local = Some(local);
        self
    }

    /// Set the global offset.
    pub fn with_offset(mut self, offset: [usize; 3]) -> Self {
        self.offset = offset;
        self
    }

    /// Total number of work-items in the range.
    pub fn total_items(&self) -> usize {
        self.global[0].max(1) * self.global[1].max(1) * self.global[2].max(1)
    }

    /// The effective work-group size (defaults to the whole range in dim 0
    /// and 1 elsewhere when unspecified).
    pub fn local_size(&self) -> [usize; 3] {
        self.local.unwrap_or([self.global[0].max(1), 1, 1])
    }
}

/// A kernel argument value as set by `clSetKernelArg`.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelArgValue {
    /// A scalar (or vector) value passed by value.
    Scalar(Value),
    /// An index into the buffer bindings passed to
    /// [`crate::KernelHandle::execute`].
    Buffer(usize),
    /// `__local` memory of the given size in bytes (allocated per launch).
    Local(usize),
}

/// Mutable view of a buffer the kernel may read and write.
#[derive(Debug)]
pub struct BufferBinding<'a> {
    data: &'a mut [u8],
}

impl<'a> BufferBinding<'a> {
    /// Bind a byte slice as kernel-accessible memory.
    pub fn new(data: &'a mut [u8]) -> Self {
        BufferBinding { data }
    }

    /// Size of the bound buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shared access to the bound bytes (used by built-in native kernels).
    pub fn bytes(&self) -> &[u8] {
        self.data
    }

    /// Mutable access to the bound bytes (used by built-in native kernels).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.data
    }
}

/// Operation counters accumulated over a launch; the device model converts
/// these into modelled execution time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkItemCounters {
    /// Number of work-items executed.
    pub work_items: u64,
    /// Number of arithmetic/logic operations evaluated.
    pub ops: u64,
    /// Number of scalar loads from buffers.
    pub loads: u64,
    /// Number of scalar stores to buffers.
    pub stores: u64,
    /// Number of interpreted statements (a proxy for instruction count).
    pub steps: u64,
}

impl std::ops::AddAssign for WorkItemCounters {
    fn add_assign(&mut self, other: WorkItemCounters) {
        self.work_items += other.work_items;
        self.ops += other.ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.steps += other.steps;
    }
}

/// Identity of the currently executing work-item.
#[derive(Debug, Clone, Copy, Default)]
struct WorkItem {
    global_id: [usize; 3],
    global_size: [usize; 3],
    local_id: [usize; 3],
    local_size: [usize; 3],
    group_id: [usize; 3],
    num_groups: [usize; 3],
    offset: [usize; 3],
    work_dim: u8,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Where an assignment lands.
enum Place {
    Var(String),
    VarLane(String, usize),
    Mem { buffer: usize, offset: usize, ty: ScalarType },
}

struct Interp<'u, 'b, 'd> {
    unit: &'u TranslationUnit,
    bufs: &'b mut [BufferBinding<'d>],
    locals: Vec<Vec<u8>>,
    counters: WorkItemCounters,
    item: WorkItem,
    call_depth: usize,
    steps_this_item: u64,
}

/// Execute the kernel at `index` over `range`.
pub fn execute_kernel(
    unit: &TranslationUnit,
    index: FunctionIndex,
    range: &NdRange,
    args: &[KernelArgValue],
    buffers: &mut [BufferBinding<'_>],
) -> Result<WorkItemCounters, CompileError> {
    let function =
        unit.functions.get(index.0).ok_or_else(|| CompileError::new("invalid kernel index"))?;
    if !function.is_kernel {
        return Err(CompileError::new(format!("'{}' is not a kernel", function.name)));
    }
    if args.len() != function.params.len() {
        return Err(CompileError::new(format!(
            "kernel '{}' expects {} argument(s), got {}",
            function.name,
            function.params.len(),
            args.len()
        )));
    }

    // The serial tree walker treats barriers as no-ops, which silently
    // miscomputes kernels that synchronise `__local`-memory writes across a
    // barrier.  Reject those up front; the bytecode VM runs them correctly.
    let barrier_use = crate::compile::analyze_kernel(unit, index);
    if barrier_use.has_barrier && barrier_use.writes_local {
        return Err(CompileError::new(format!(
            "kernel '{}' uses barrier() together with __local memory writes, which the \
             tree-walking interpreter cannot execute correctly; use the bytecode VM \
             (unset DCL_INTERP)",
            function.name
        )));
    }

    let mut interp = Interp {
        unit,
        bufs: buffers,
        locals: Vec::new(),
        counters: WorkItemCounters::default(),
        item: WorkItem::default(),
        call_depth: 0,
        steps_this_item: 0,
    };

    // Bind arguments once; pointers are re-used for every work-item.
    let mut bound_args = Vec::with_capacity(args.len());
    for (param, arg) in function.params.iter().zip(args) {
        let value = interp.bind_argument(param, arg)?;
        bound_args.push((param.name.clone(), value));
    }

    let local = range.local_size();
    let num_groups = [
        range.global[0].max(1).div_ceil(local[0].max(1)),
        range.global[1].max(1).div_ceil(local[1].max(1)),
        range.global[2].max(1).div_ceil(local[2].max(1)),
    ];

    for z in 0..range.global[2].max(1) {
        for y in 0..range.global[1].max(1) {
            for x in 0..range.global[0].max(1) {
                interp.item = WorkItem {
                    global_id: [x + range.offset[0], y + range.offset[1], z + range.offset[2]],
                    global_size: [
                        range.global[0].max(1),
                        range.global[1].max(1),
                        range.global[2].max(1),
                    ],
                    local_id: [x % local[0].max(1), y % local[1].max(1), z % local[2].max(1)],
                    local_size: local,
                    group_id: [x / local[0].max(1), y / local[1].max(1), z / local[2].max(1)],
                    num_groups,
                    offset: range.offset,
                    work_dim: range.work_dim,
                };
                interp.steps_this_item = 0;
                let mut env = vec![HashMap::new()];
                for (name, value) in &bound_args {
                    env[0].insert(name.clone(), value.clone());
                }
                interp.exec_block(&function.body, &mut env)?;
                interp.counters.work_items += 1;
            }
        }
    }
    Ok(interp.counters)
}

impl<'u, 'b, 'd> Interp<'u, 'b, 'd> {
    fn bind_argument(
        &mut self,
        param: &Param,
        arg: &KernelArgValue,
    ) -> Result<Value, CompileError> {
        match (arg, &param.ty) {
            (KernelArgValue::Buffer(idx), Type::Pointer { pointee, space, .. }) => {
                if *idx >= self.bufs.len() {
                    return Err(CompileError::new(format!(
                        "argument '{}' references buffer binding {idx}, but only {} are bound",
                        param.name,
                        self.bufs.len()
                    )));
                }
                let pointee = pointee.element_scalar().ok_or_else(|| {
                    CompileError::new("only pointers to scalar element types are supported")
                })?;
                Ok(Value::Ptr(Pointer {
                    buffer: *idx as u32,
                    byte_offset: 0,
                    pointee,
                    space: *space,
                }))
            }
            (KernelArgValue::Local(bytes), Type::Pointer { pointee, .. }) => {
                let pointee = pointee.element_scalar().ok_or_else(|| {
                    CompileError::new("only pointers to scalar element types are supported")
                })?;
                self.locals.push(vec![0u8; *bytes]);
                Ok(Value::Ptr(Pointer {
                    buffer: (self.bufs.len() + self.locals.len() - 1) as u32,
                    byte_offset: 0,
                    pointee,
                    space: AddressSpace::Local,
                }))
            }
            (KernelArgValue::Scalar(v), ty) => v.convert_to(ty),
            (arg, ty) => Err(CompileError::new(format!(
                "argument '{}' of type {ty} cannot be bound from {arg:?}",
                param.name
            ))),
        }
    }

    fn mem_load(
        &mut self,
        buffer: usize,
        offset: usize,
        ty: ScalarType,
    ) -> Result<Scalar, CompileError> {
        self.counters.loads += 1;
        if buffer < self.bufs.len() {
            load_scalar(self.bufs[buffer].data, offset, ty)
        } else {
            load_scalar(&self.locals[buffer - self.bufs.len()], offset, ty)
        }
    }

    fn mem_store(
        &mut self,
        buffer: usize,
        offset: usize,
        ty: ScalarType,
        value: Scalar,
    ) -> Result<(), CompileError> {
        self.counters.stores += 1;
        if buffer < self.bufs.len() {
            store_scalar(self.bufs[buffer].data, offset, ty, value)
        } else {
            store_scalar(&mut self.locals[buffer - self.bufs.len()], offset, ty, value)
        }
    }

    fn step(&mut self) -> Result<(), CompileError> {
        self.counters.steps += 1;
        self.steps_this_item += 1;
        if self.steps_this_item > MAX_STEPS_PER_ITEM {
            return Err(CompileError::new(
                "work-item exceeded the interpreter step limit (possible infinite loop)",
            ));
        }
        Ok(())
    }

    // ----- statements -----------------------------------------------------

    fn exec_block(
        &mut self,
        block: &Block,
        env: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Flow, CompileError> {
        env.push(HashMap::new());
        let mut flow = Flow::Normal;
        for stmt in &block.statements {
            flow = self.exec_stmt(stmt, env)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        env.pop();
        Ok(flow)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Flow, CompileError> {
        self.step()?;
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let value = match init {
                    Some(e) => self.eval(e, env)?.convert_to(ty)?,
                    None => default_value(ty)?,
                };
                env.last_mut().unwrap().insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_block, else_block } => {
                if self.eval(cond, env)?.as_bool()? {
                    self.exec_block(then_block, env)
                } else if let Some(b) = else_block {
                    self.exec_block(b, env)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, env)?.as_bool()? {
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.step()?;
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond, env)?.as_bool()? {
                        break;
                    }
                    self.step()?;
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body } => {
                env.push(HashMap::new());
                if let Some(s) = init {
                    self.exec_stmt(s, env)?;
                }
                let result = loop {
                    if let Some(c) = cond {
                        if !self.eval(c, env)?.as_bool()? {
                            break Flow::Normal;
                        }
                    }
                    match self.exec_block(body, env)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(s) = step {
                        self.eval(s, env)?;
                    }
                    self.step()?;
                };
                env.pop();
                Ok(result)
            }
            Stmt::Return(e) => {
                let value = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(value))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b, env),
        }
    }

    // ----- expressions -----------------------------------------------------

    fn lookup<'e>(env: &'e [HashMap<String, Value>], name: &str) -> Option<&'e Value> {
        env.iter().rev().find_map(|scope| scope.get(name))
    }

    fn assign_var(
        env: &mut [HashMap<String, Value>],
        name: &str,
        value: Value,
    ) -> Result<(), CompileError> {
        for scope in env.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                // Preserve the declared type of the variable.
                let converted = match slot {
                    Value::Scalar(t, _) => value.convert_to_scalar(*t)?,
                    Value::Vector(t, lanes) => {
                        value.convert_to(&Type::Vector(*t, lanes.len() as u8))?
                    }
                    Value::Ptr(_) | Value::Void => value,
                };
                *slot = converted;
                return Ok(());
            }
        }
        Err(CompileError::new(format!("assignment to undeclared variable '{name}'")))
    }

    fn resolve_place(
        &mut self,
        expr: &Expr,
        env: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Place, CompileError> {
        match &expr.kind {
            ExprKind::Ident(name) => Ok(Place::Var(name.clone())),
            ExprKind::Member { base, member } => {
                if let ExprKind::Ident(name) = &base.kind {
                    let lane = component_index(member).ok_or_else(|| {
                        CompileError::at(
                            expr.location,
                            format!("unknown vector component '{member}'"),
                        )
                    })?;
                    Ok(Place::VarLane(name.clone(), lane))
                } else {
                    Err(CompileError::at(
                        expr.location,
                        "vector component assignment requires a named variable",
                    ))
                }
            }
            ExprKind::Index { base, index } => {
                let base_val = self.eval(base, env)?;
                let idx = self.eval(index, env)?.as_i64()?;
                match base_val {
                    Value::Ptr(p) => {
                        let offset = p.byte_offset + idx * p.pointee.size() as i64;
                        if offset < 0 {
                            return Err(CompileError::at(expr.location, "negative pointer offset"));
                        }
                        Ok(Place::Mem {
                            buffer: p.buffer as usize,
                            offset: offset as usize,
                            ty: p.pointee,
                        })
                    }
                    other => Err(CompileError::at(
                        expr.location,
                        format!("cannot index a value of type {}", other.ty()),
                    )),
                }
            }
            ExprKind::Unary { op: UnOp::Deref, expr: inner } => {
                let v = self.eval(inner, env)?;
                match v {
                    Value::Ptr(p) => {
                        if p.byte_offset < 0 {
                            return Err(CompileError::at(expr.location, "negative pointer offset"));
                        }
                        Ok(Place::Mem {
                            buffer: p.buffer as usize,
                            offset: p.byte_offset as usize,
                            ty: p.pointee,
                        })
                    }
                    other => Err(CompileError::at(
                        expr.location,
                        format!("cannot dereference a value of type {}", other.ty()),
                    )),
                }
            }
            _ => Err(CompileError::at(expr.location, "expression is not assignable")),
        }
    }

    fn read_place(
        &mut self,
        place: &Place,
        env: &[HashMap<String, Value>],
    ) -> Result<Value, CompileError> {
        match place {
            Place::Var(name) => Self::lookup(env, name)
                .cloned()
                .ok_or_else(|| CompileError::new(format!("undeclared variable '{name}'"))),
            Place::VarLane(name, lane) => {
                let v = Self::lookup(env, name)
                    .cloned()
                    .ok_or_else(|| CompileError::new(format!("undeclared variable '{name}'")))?;
                match v {
                    Value::Vector(t, lanes) => lanes
                        .get(*lane)
                        .map(|s| Value::Scalar(t, *s))
                        .ok_or_else(|| CompileError::new("vector component out of range")),
                    other => Err(CompileError::new(format!(
                        "cannot access a component of type {}",
                        other.ty()
                    ))),
                }
            }
            Place::Mem { buffer, offset, ty } => {
                Ok(Value::Scalar(*ty, self.mem_load(*buffer, *offset, *ty)?))
            }
        }
    }

    fn write_place(
        &mut self,
        place: &Place,
        value: Value,
        env: &mut [HashMap<String, Value>],
    ) -> Result<(), CompileError> {
        match place {
            Place::Var(name) => Self::assign_var(env, name, value),
            Place::VarLane(name, lane) => {
                let scalar = value.scalar()?;
                for scope in env.iter_mut().rev() {
                    if let Some(Value::Vector(t, lanes)) = scope.get_mut(name) {
                        if *lane >= lanes.len() {
                            return Err(CompileError::new("vector component out of range"));
                        }
                        lanes[*lane] = convert_scalar(scalar, *t);
                        return Ok(());
                    }
                }
                Err(CompileError::new(format!("assignment to undeclared vector '{name}'")))
            }
            Place::Mem { buffer, offset, ty } => {
                self.mem_store(*buffer, *offset, *ty, value.scalar()?)
            }
        }
    }

    fn eval(
        &mut self,
        expr: &Expr,
        env: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Value, CompileError> {
        match &expr.kind {
            ExprKind::IntLit(v, unsigned) => {
                if *unsigned {
                    Ok(Value::Scalar(ScalarType::UInt, Scalar::U(*v)))
                } else if *v <= i32::MAX as u64 {
                    Ok(Value::Scalar(ScalarType::Int, Scalar::I(*v as i64)))
                } else {
                    Ok(Value::Scalar(ScalarType::Long, Scalar::I(*v as i64)))
                }
            }
            ExprKind::FloatLit(v) => Ok(Value::Scalar(ScalarType::Float, Scalar::F(*v))),
            ExprKind::BoolLit(v) => Ok(Value::boolean(*v)),
            ExprKind::Ident(name) => {
                if let Some(v) = Self::lookup(env, name) {
                    Ok(v.clone())
                } else if let Some(v) = builtins::builtin_constant(name) {
                    Ok(v)
                } else {
                    Err(CompileError::at(
                        expr.location,
                        format!("use of undeclared identifier '{name}'"),
                    ))
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.counters.ops += 1;
                match op {
                    BinOp::LogicalAnd => {
                        let l = self.eval(lhs, env)?.as_bool()?;
                        if !l {
                            return Ok(Value::int(0));
                        }
                        Ok(Value::int(i64::from(self.eval(rhs, env)?.as_bool()?)))
                    }
                    BinOp::LogicalOr => {
                        let l = self.eval(lhs, env)?.as_bool()?;
                        if l {
                            return Ok(Value::int(1));
                        }
                        Ok(Value::int(i64::from(self.eval(rhs, env)?.as_bool()?)))
                    }
                    _ => {
                        let l = self.eval(lhs, env)?;
                        let r = self.eval(rhs, env)?;
                        eval_binary(*op, &l, &r)
                            .map_err(|e| CompileError::at(expr.location, e.message))
                    }
                }
            }
            ExprKind::Unary { op, expr: inner } => {
                self.counters.ops += 1;
                match op {
                    UnOp::Deref => {
                        let place = self.resolve_place(expr, env)?;
                        self.read_place(&place, env)
                    }
                    _ => {
                        let v = self.eval(inner, env)?;
                        eval_unary(*op, &v).map_err(|e| CompileError::at(expr.location, e.message))
                    }
                }
            }
            ExprKind::Assign { op, target, value } => {
                let place = self.resolve_place(target, env)?;
                let rhs = self.eval(value, env)?;
                let new_value = match op {
                    None => rhs,
                    Some(op) => {
                        let current = self.read_place(&place, env)?;
                        eval_binary(*op, &current, &rhs)
                            .map_err(|e| CompileError::at(expr.location, e.message))?
                    }
                };
                self.write_place(&place, new_value.clone(), env)?;
                Ok(new_value)
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                if self.eval(cond, env)?.as_bool()? {
                    self.eval(then_expr, env)
                } else {
                    self.eval(else_expr, env)
                }
            }
            ExprKind::Call { name, args } => self.eval_call(expr, name, args, env),
            ExprKind::Index { .. } => {
                let place = self.resolve_place(expr, env)?;
                self.read_place(&place, env)
            }
            ExprKind::Member { base, member } => {
                let v = self.eval(base, env)?;
                match v {
                    Value::Vector(t, lanes) => {
                        let indices = swizzle_indices(member).ok_or_else(|| {
                            CompileError::at(
                                expr.location,
                                format!("unknown vector component '{member}'"),
                            )
                        })?;
                        if indices.iter().any(|&i| i >= lanes.len()) {
                            return Err(CompileError::at(
                                expr.location,
                                "vector component out of range",
                            ));
                        }
                        if indices.len() == 1 {
                            Ok(Value::Scalar(t, lanes[indices[0]]))
                        } else {
                            Ok(Value::Vector(t, indices.iter().map(|&i| lanes[i]).collect()))
                        }
                    }
                    other => Err(CompileError::at(
                        expr.location,
                        format!("cannot access member '{member}' of type {}", other.ty()),
                    )),
                }
            }
            ExprKind::Cast { ty, expr: inner } => {
                let v = self.eval(inner, env)?;
                v.convert_to(ty).map_err(|e| CompileError::at(expr.location, e.message))
            }
            ExprKind::PostIncDec { target, inc } => {
                let place = self.resolve_place(target, env)?;
                let old = self.read_place(&place, env)?;
                let delta = Value::int(if *inc { 1 } else { -1 });
                let new = eval_binary(BinOp::Add, &old, &delta)
                    .map_err(|e| CompileError::at(expr.location, e.message))?;
                self.write_place(&place, new, env)?;
                Ok(old)
            }
            ExprKind::PreIncDec { target, inc } => {
                let place = self.resolve_place(target, env)?;
                let old = self.read_place(&place, env)?;
                let delta = Value::int(if *inc { 1 } else { -1 });
                let new = eval_binary(BinOp::Add, &old, &delta)
                    .map_err(|e| CompileError::at(expr.location, e.message))?;
                self.write_place(&place, new.clone(), env)?;
                Ok(new)
            }
        }
    }

    fn eval_call(
        &mut self,
        expr: &Expr,
        name: &str,
        args: &[Expr],
        env: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Value, CompileError> {
        // User-defined functions take precedence over built-ins of the same
        // name (matching OpenCL C shadowing behaviour is not needed here, but
        // this order keeps helper functions predictable).
        if let Some((idx, function)) = self.unit.function_by_name(name) {
            if function.is_kernel {
                return Err(CompileError::at(
                    expr.location,
                    format!("kernel '{name}' cannot be called from device code"),
                ));
            }
            if self.call_depth >= MAX_CALL_DEPTH {
                return Err(CompileError::at(expr.location, "maximum call depth exceeded"));
            }
            let function = &self.unit.functions[idx.0];
            let mut frame = HashMap::new();
            for (param, arg) in function.params.iter().zip(args) {
                let v = self.eval(arg, env)?.convert_to(&param.ty)?;
                frame.insert(param.name.clone(), v);
            }
            let mut callee_env = vec![frame];
            self.call_depth += 1;
            let flow = self.exec_block(&function.body, &mut callee_env)?;
            self.call_depth -= 1;
            return match flow {
                Flow::Return(v) => {
                    if function.return_type == Type::Void {
                        Ok(Value::Void)
                    } else {
                        v.convert_to(&function.return_type)
                    }
                }
                _ => {
                    if function.return_type == Type::Void {
                        Ok(Value::Void)
                    } else {
                        Err(CompileError::at(
                            expr.location,
                            format!("function '{name}' ended without returning a value"),
                        ))
                    }
                }
            };
        }

        let kind = builtins::classify(name).ok_or_else(|| {
            CompileError::at(expr.location, format!("call to unknown function '{name}'"))
        })?;
        match kind {
            BuiltinKind::WorkItem => {
                let dim = if args.is_empty() { 0 } else { self.eval(&args[0], env)?.as_usize()? };
                let d = dim.min(2);
                let v = match name {
                    "get_global_id" => self.item.global_id[d],
                    "get_local_id" => self.item.local_id[d],
                    "get_group_id" => self.item.group_id[d],
                    "get_global_size" => self.item.global_size[d],
                    "get_local_size" => self.item.local_size[d],
                    "get_num_groups" => self.item.num_groups[d],
                    "get_global_offset" => self.item.offset[d],
                    "get_work_dim" => self.item.work_dim as usize,
                    _ => unreachable!("classified as work-item builtin"),
                };
                Ok(Value::size_t(v as u64))
            }
            BuiltinKind::Sync => {
                // Evaluate arguments for their side effects, then ignore.
                for a in args {
                    self.eval(a, env)?;
                }
                Ok(Value::Void)
            }
            BuiltinKind::Atomic => {
                if args.is_empty() {
                    return Err(CompileError::at(
                        expr.location,
                        format!("{name}: missing pointer"),
                    ));
                }
                let place = self.resolve_place(&unary_deref(&args[0]), env)?;
                let old = self.read_place(&place, env)?;
                let operand =
                    if args.len() > 1 { self.eval(&args[1], env)? } else { Value::int(1) };
                let new = match name {
                    "atomic_add" | "atom_add" | "atomic_inc" | "atom_inc" => {
                        eval_binary(BinOp::Add, &old, &operand)?
                    }
                    "atomic_sub" | "atomic_dec" => eval_binary(BinOp::Sub, &old, &operand)?,
                    "atomic_xchg" => operand,
                    "atomic_min" => builtins::eval_math("min", &[old.clone(), operand])?,
                    "atomic_max" => builtins::eval_math("max", &[old.clone(), operand])?,
                    _ => unreachable!("classified as atomic builtin"),
                };
                self.write_place(&place, new, env)?;
                Ok(old)
            }
            BuiltinKind::VectorCtor => {
                let ty_name = name.trim_start_matches("__vec_");
                let ty = Type::from_name(ty_name).ok_or_else(|| {
                    CompileError::at(expr.location, format!("unknown vector type '{ty_name}'"))
                })?;
                let Type::Vector(scalar, width) = ty else {
                    return Err(CompileError::at(expr.location, "not a vector type"));
                };
                let mut lanes = Vec::new();
                for a in args {
                    match self.eval(a, env)? {
                        Value::Scalar(_, s) => lanes.push(convert_scalar(s, scalar)),
                        Value::Vector(_, more) => {
                            lanes.extend(more.iter().map(|s| convert_scalar(*s, scalar)))
                        }
                        other => {
                            return Err(CompileError::at(
                                expr.location,
                                format!("cannot build a vector from {}", other.ty()),
                            ))
                        }
                    }
                }
                if lanes.len() == 1 {
                    lanes = vec![lanes[0]; width as usize];
                }
                if lanes.len() != width as usize {
                    return Err(CompileError::at(
                        expr.location,
                        format!("vector literal has {} element(s), expected {width}", lanes.len()),
                    ));
                }
                Ok(Value::Vector(scalar, lanes))
            }
            BuiltinKind::Math => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env)?);
                }
                self.counters.ops += 1;
                builtins::eval_math(name, &values)
                    .map_err(|e| CompileError::at(expr.location, e.message))
            }
        }
    }
}

/// Wrap an expression in a synthetic dereference so that `atomic_add(p, v)`
/// resolves `*p` as its place.
fn unary_deref(expr: &Expr) -> Expr {
    Expr::new(ExprKind::Unary { op: UnOp::Deref, expr: Box::new(expr.clone()) }, expr.location)
}

pub(crate) fn default_value(ty: &Type) -> Result<Value, CompileError> {
    Ok(match ty {
        Type::Scalar(t) => {
            if t.is_float() {
                Value::Scalar(*t, Scalar::F(0.0))
            } else if t.is_signed() {
                Value::Scalar(*t, Scalar::I(0))
            } else {
                Value::Scalar(*t, Scalar::U(0))
            }
        }
        Type::Vector(t, n) => Value::Vector(
            *t,
            vec![if t.is_float() { Scalar::F(0.0) } else { Scalar::I(0) }; *n as usize],
        ),
        Type::Pointer { .. } => {
            return Err(CompileError::new(
                "pointer variables must be initialised from a kernel argument",
            ))
        }
        Type::Void => Value::Void,
    })
}

pub(crate) fn component_index(name: &str) -> Option<usize> {
    let indices = swizzle_indices(name)?;
    if indices.len() == 1 {
        Some(indices[0])
    } else {
        None
    }
}

pub(crate) fn swizzle_indices(name: &str) -> Option<Vec<usize>> {
    if let Some(rest) = name.strip_prefix('s').or_else(|| name.strip_prefix('S')) {
        if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_hexdigit()) {
            return rest
                .chars()
                .map(|c| c.to_digit(16).map(|d| d as usize))
                .collect::<Option<Vec<_>>>();
        }
    }
    let mut out = Vec::with_capacity(name.len());
    for c in name.chars() {
        out.push(match c {
            'x' => 0,
            'y' => 1,
            'z' => 2,
            'w' => 3,
            _ => return None,
        });
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn integer_rank(t: ScalarType) -> u8 {
    match t {
        ScalarType::Bool => 0,
        ScalarType::Char | ScalarType::UChar => 1,
        ScalarType::Short | ScalarType::UShort => 2,
        ScalarType::Int | ScalarType::UInt => 3,
        ScalarType::Long | ScalarType::ULong | ScalarType::SizeT => 4,
        ScalarType::Float | ScalarType::Double => 5,
    }
}

fn promote(a: ScalarType, b: ScalarType) -> ScalarType {
    if a == ScalarType::Double || b == ScalarType::Double {
        return ScalarType::Double;
    }
    if a == ScalarType::Float || b == ScalarType::Float {
        return ScalarType::Float;
    }
    // Simplified C integer-promotion rules: the result takes the
    // higher-ranked operand's type, signedness included.
    let (hi, _lo) = if integer_rank(a) >= integer_rank(b) { (a, b) } else { (b, a) };
    hi
}

/// Pointer ± integer arithmetic, scaled by the pointee size.  Shared by the
/// tree walker and the VM's inline fast path so the two executors cannot
/// drift apart.
#[inline]
pub(crate) fn eval_binary_ptr(op: BinOp, p: &Pointer, s: Scalar) -> Result<Pointer, CompileError> {
    match op {
        BinOp::Add => {
            Ok(Pointer { byte_offset: p.byte_offset + s.as_i64() * p.pointee.size() as i64, ..*p })
        }
        BinOp::Sub => {
            Ok(Pointer { byte_offset: p.byte_offset - s.as_i64() * p.pointee.size() as i64, ..*p })
        }
        _ => Err(CompileError::new("unsupported pointer operation")),
    }
}

/// Scalar ∘ scalar core of [`eval_binary`]: promotion, the operation itself
/// and the result conversion.  Kept `#[inline]` because the VM calls it
/// straight from its instruction loop — this *is* the hot ALU.
#[inline]
pub(crate) fn eval_binary_scalars(
    op: BinOp,
    lt: ScalarType,
    ls: Scalar,
    rt: ScalarType,
    rs: Scalar,
) -> Result<(ScalarType, Scalar), CompileError> {
    let result_type = promote(lt, rt);

    // Comparisons produce int 0/1.
    let cmp = |ordering: std::cmp::Ordering, op: BinOp| -> bool {
        use std::cmp::Ordering::*;
        match op {
            BinOp::Eq => ordering == Equal,
            BinOp::Ne => ordering != Equal,
            BinOp::Lt => ordering == Less,
            BinOp::Le => ordering != Greater,
            BinOp::Gt => ordering == Greater,
            BinOp::Ge => ordering != Less,
            _ => unreachable!(),
        }
    };

    match op {
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ordering = if result_type.is_float() {
                ls.as_f64().partial_cmp(&rs.as_f64()).unwrap_or(std::cmp::Ordering::Greater)
            } else if result_type.is_signed() {
                ls.as_i64().cmp(&rs.as_i64())
            } else if lt.is_signed() && ls.as_i64() < 0 {
                // Signed negative compared against unsigned: keep the
                // mathematical ordering instead of C's wrapping surprise —
                // kernels in the wild rely on `i < n` with `int i`/`uint n`.
                std::cmp::Ordering::Less
            } else {
                ls.as_u64().cmp(&rs.as_u64())
            };
            Ok((ScalarType::Int, Scalar::I(i64::from(cmp(ordering, op)))))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if result_type.is_float() {
                let a = ls.as_f64();
                let b = rs.as_f64();
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Ok((result_type, convert_scalar(Scalar::F(v), result_type)))
            } else if result_type.is_signed() {
                let a = ls.as_i64();
                let b = rs.as_i64();
                if matches!(op, BinOp::Div | BinOp::Rem) && b == 0 {
                    return Err(CompileError::new("integer division by zero"));
                }
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a.wrapping_div(b),
                    BinOp::Rem => a.wrapping_rem(b),
                    _ => unreachable!(),
                };
                Ok((result_type, convert_scalar(Scalar::I(v), result_type)))
            } else {
                let a = ls.as_u64();
                let b = rs.as_u64();
                if matches!(op, BinOp::Div | BinOp::Rem) && b == 0 {
                    return Err(CompileError::new("integer division by zero"));
                }
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Ok((result_type, convert_scalar(Scalar::U(v), result_type)))
            }
        }
        BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => {
            if result_type.is_float() {
                return Err(CompileError::new("bitwise operation on floating-point operands"));
            }
            let a = ls.as_u64();
            let b = rs.as_u64();
            let v = match op {
                BinOp::BitAnd => a & b,
                BinOp::BitOr => a | b,
                BinOp::BitXor => a ^ b,
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => {
                    if result_type.is_signed() {
                        (ls.as_i64().wrapping_shr(b as u32)) as u64
                    } else {
                        a.wrapping_shr(b as u32)
                    }
                }
                _ => unreachable!(),
            };
            let scalar = if result_type.is_signed() { Scalar::I(v as i64) } else { Scalar::U(v) };
            Ok((result_type, convert_scalar(scalar, result_type)))
        }
        BinOp::LogicalAnd | BinOp::LogicalOr => {
            // Handled with short-circuiting by the caller; provide a
            // non-short-circuit fallback for completeness.
            let a = ls.as_bool();
            let b = rs.as_bool();
            let v = if op == BinOp::LogicalAnd { a && b } else { a || b };
            Ok((ScalarType::Int, Scalar::I(i64::from(v))))
        }
    }
}

/// Evaluate a binary operation on two values (public for reuse in tests).
pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, CompileError> {
    // Vector handling: componentwise with scalar broadcast.
    match (l, r) {
        (Value::Vector(t, a), Value::Vector(_, b)) => {
            if a.len() != b.len() {
                return Err(CompileError::new("vector length mismatch in binary operation"));
            }
            let lanes: Result<Vec<Scalar>, CompileError> = a
                .iter()
                .zip(b)
                .map(|(x, y)| {
                    eval_binary(op, &Value::Scalar(*t, *x), &Value::Scalar(*t, *y))?.scalar()
                })
                .collect();
            return Ok(Value::Vector(*t, lanes?));
        }
        (Value::Vector(t, a), Value::Scalar(..)) => {
            let lanes: Result<Vec<Scalar>, CompileError> =
                a.iter().map(|x| eval_binary(op, &Value::Scalar(*t, *x), r)?.scalar()).collect();
            return Ok(Value::Vector(*t, lanes?));
        }
        (Value::Scalar(..), Value::Vector(t, b)) => {
            let lanes: Result<Vec<Scalar>, CompileError> =
                b.iter().map(|y| eval_binary(op, l, &Value::Scalar(*t, *y))?.scalar()).collect();
            return Ok(Value::Vector(*t, lanes?));
        }
        _ => {}
    }

    // Pointer arithmetic.
    if let (Value::Ptr(p), Value::Scalar(_, s)) = (l, r) {
        return Ok(Value::Ptr(eval_binary_ptr(op, p, *s)?));
    }

    let (lt, ls) = match l {
        Value::Scalar(t, s) => (*t, *s),
        other => return Err(CompileError::new(format!("invalid operand of type {}", other.ty()))),
    };
    let (rt, rs) = match r {
        Value::Scalar(t, s) => (*t, *s),
        other => return Err(CompileError::new(format!("invalid operand of type {}", other.ty()))),
    };
    let (t, s) = eval_binary_scalars(op, lt, ls, rt, rs)?;
    Ok(Value::Scalar(t, s))
}

pub(crate) fn eval_unary(op: UnOp, v: &Value) -> Result<Value, CompileError> {
    match op {
        UnOp::Plus => Ok(v.clone()),
        UnOp::Neg => match v {
            Value::Scalar(t, s) => {
                if t.is_float() {
                    Ok(Value::Scalar(*t, Scalar::F(-s.as_f64())))
                } else {
                    Ok(Value::Scalar(
                        if t.is_signed() { *t } else { ScalarType::Long },
                        Scalar::I(-s.as_i64()),
                    ))
                }
            }
            Value::Vector(t, lanes) => {
                let lanes =
                    lanes
                        .iter()
                        .map(|s| {
                            if t.is_float() {
                                Scalar::F(-s.as_f64())
                            } else {
                                Scalar::I(-s.as_i64())
                            }
                        })
                        .collect();
                Ok(Value::Vector(*t, lanes))
            }
            other => Err(CompileError::new(format!("cannot negate {}", other.ty()))),
        },
        UnOp::Not => Ok(Value::int(i64::from(!v.as_bool()?))),
        UnOp::BitNot => match v {
            Value::Scalar(t, s) if t.is_integer() => {
                Ok(Value::Scalar(*t, convert_scalar(Scalar::U(!s.as_u64()), *t)))
            }
            other => Err(CompileError::new(format!("cannot bit-complement {}", other.ty()))),
        },
        UnOp::Deref => Err(CompileError::new("dereference outside of interpreter context")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn run_kernel(
        src: &str,
        kernel: &str,
        range: NdRange,
        args: Vec<KernelArgValue>,
        buffers: Vec<Vec<u8>>,
    ) -> (Vec<Vec<u8>>, WorkItemCounters) {
        let program = Program::build(src).expect("build");
        let k = program.kernel(kernel).expect("kernel");
        let mut buffers = buffers;
        let counters = {
            let mut bindings: Vec<BufferBinding<'_>> =
                buffers.iter_mut().map(|b| BufferBinding::new(b)).collect();
            k.execute(&range, &args, &mut bindings).expect("execute")
        };
        (buffers, counters)
    }

    fn f32s(bytes: &[u8]) -> Vec<f32> {
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    fn u32s(bytes: &[u8]) -> Vec<u32> {
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    #[test]
    fn scale_kernel_writes_expected_values() {
        let src = r#"
            __kernel void scale(__global float* data, float factor, uint n) {
                size_t i = get_global_id(0);
                if (i >= n) return;
                data[i] = data[i] * factor;
            }
        "#;
        let n = 16;
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let (buffers, counters) = run_kernel(
            src,
            "scale",
            NdRange::linear(n),
            vec![
                KernelArgValue::Buffer(0),
                KernelArgValue::Scalar(Value::float(2.0)),
                KernelArgValue::Scalar(Value::uint(n as u64)),
            ],
            vec![data],
        );
        assert_eq!(counters.work_items, n as u64);
        assert!(counters.loads >= n as u64);
        assert!(counters.stores >= n as u64);
        let out = f32s(&buffers[0]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as f32) * 2.0);
        }
    }

    #[test]
    fn two_dimensional_ids() {
        let src = r#"
            __kernel void index2d(__global uint* out, uint width) {
                size_t x = get_global_id(0);
                size_t y = get_global_id(1);
                out[y * width + x] = (uint)(y * 100 + x);
            }
        "#;
        let (w, h) = (8usize, 4usize);
        let (buffers, counters) = run_kernel(
            src,
            "index2d",
            NdRange::two_d(w, h),
            vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(w as u64))],
            vec![vec![0u8; w * h * 4]],
        );
        assert_eq!(counters.work_items, (w * h) as u64);
        let out = u32s(&buffers[0]);
        assert_eq!(out[0], 0);
        assert_eq!(out[1], 1);
        assert_eq!(out[w], 100);
        assert_eq!(out[3 * w + 7], 307);
    }

    #[test]
    fn for_loop_and_helper_function() {
        let src = r#"
            float accumulate(float base, uint count) {
                float total = base;
                for (uint i = 0; i < count; i++) {
                    total += 1.0f;
                }
                return total;
            }
            __kernel void k(__global float* out, uint count) {
                size_t gid = get_global_id(0);
                out[gid] = accumulate(0.0f, count);
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "k",
            NdRange::linear(4),
            vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(10))],
            vec![vec![0u8; 16]],
        );
        assert_eq!(f32s(&buffers[0]), vec![10.0; 4]);
    }

    #[test]
    fn while_loop_mandelbrot_style() {
        let src = r#"
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
        // c = 0 stays bounded -> hits max_iter; c = 2 escapes quickly.
        let (buffers, _) = run_kernel(
            src,
            "iterate",
            NdRange::linear(1),
            vec![
                KernelArgValue::Buffer(0),
                KernelArgValue::Scalar(Value::float(0.0)),
                KernelArgValue::Scalar(Value::float(0.0)),
                KernelArgValue::Scalar(Value::uint(50)),
            ],
            vec![vec![0u8; 4]],
        );
        assert_eq!(u32s(&buffers[0])[0], 50);
        let (buffers, _) = run_kernel(
            src,
            "iterate",
            NdRange::linear(1),
            vec![
                KernelArgValue::Buffer(0),
                KernelArgValue::Scalar(Value::float(2.0)),
                KernelArgValue::Scalar(Value::float(2.0)),
                KernelArgValue::Scalar(Value::uint(50)),
            ],
            vec![vec![0u8; 4]],
        );
        assert!(u32s(&buffers[0])[0] < 5);
    }

    #[test]
    fn vectors_and_swizzles() {
        let src = r#"
            __kernel void v(__global float* out) {
                float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                float4 b = a * 2.0f;
                float2 hi = b.zw;
                out[0] = dot(a, b);
                out[1] = hi.x + hi.y;
                out[2] = length((float2)(3.0f, 4.0f));
                b.x = 10.0f;
                out[3] = b.x;
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "v",
            NdRange::linear(1),
            vec![KernelArgValue::Buffer(0)],
            vec![vec![0u8; 16]],
        );
        let out = f32s(&buffers[0]);
        assert_eq!(out[0], 60.0); // 1*2 + 2*4 + 3*6 + 4*8
        assert_eq!(out[1], 14.0); // 6 + 8
        assert_eq!(out[2], 5.0);
        assert_eq!(out[3], 10.0);
    }

    #[test]
    fn atomic_add_accumulates_across_work_items() {
        let src = r#"
            __kernel void count(__global int* counter) {
                atomic_add(counter, 1);
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "count",
            NdRange::linear(100),
            vec![KernelArgValue::Buffer(0)],
            vec![vec![0u8; 4]],
        );
        assert_eq!(u32s(&buffers[0])[0], 100);
    }

    #[test]
    fn local_memory_argument_with_barrier() {
        // Every item publishes into `__local` scratch, the barrier makes
        // those writes visible group-wide, then each item reads its
        // neighbour's slot — only correct with real barrier semantics.
        let src = r#"
            __kernel void uses_local(__global int* out, __local int* scratch) {
                size_t lid = get_local_id(0);
                size_t n = get_local_size(0);
                scratch[lid] = (int)(lid * 10);
                barrier(CLK_LOCAL_MEM_FENCE);
                out[get_global_id(0)] = scratch[(lid + 1) % n];
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "uses_local",
            NdRange::linear(4),
            vec![KernelArgValue::Buffer(0), KernelArgValue::Local(64)],
            vec![vec![0u8; 16]],
        );
        assert_eq!(u32s(&buffers[0]), vec![10, 20, 30, 0]);
    }

    #[test]
    fn tree_walker_rejects_barrier_with_local_writes() {
        // The serial tree walker cannot execute barrier-synchronised
        // `__local` traffic; it must fail loudly, not return wrong data.
        let src = r#"
            __kernel void uses_local(__global int* out, __local int* scratch) {
                size_t lid = get_local_id(0);
                scratch[lid] = (int)lid;
                barrier(CLK_LOCAL_MEM_FENCE);
                out[lid] = scratch[lid];
            }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("uses_local").unwrap();
        let mut buffer = vec![0u8; 16];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute_tree(
                &NdRange::linear(4),
                &[KernelArgValue::Buffer(0), KernelArgValue::Local(64)],
                &mut bindings,
            )
            .unwrap_err();
        assert!(err.message.contains("barrier"));
        assert!(err.message.contains("__local"));
    }

    #[test]
    fn tree_walker_still_runs_barrier_free_local_writes() {
        // No barrier: per-item local scratch without synchronisation stays
        // on the legacy path.
        let src = r#"
            __kernel void scratchpad(__global int* out, __local int* scratch) {
                size_t gid = get_global_id(0);
                scratch[gid] = (int)(gid * 2);
                out[gid] = scratch[gid] + 1;
            }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("scratchpad").unwrap();
        let mut buffer = vec![0u8; 16];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        k.execute_tree(
            &NdRange::linear(4),
            &[KernelArgValue::Buffer(0), KernelArgValue::Local(64)],
            &mut bindings,
        )
        .expect("barrier-free local use works on the tree walker");
        assert_eq!(u32s(&buffer), vec![1, 3, 5, 7]);
    }

    #[test]
    fn ternary_break_continue_and_modulo() {
        let src = r#"
            __kernel void f(__global int* out, int n) {
                int total = 0;
                for (int i = 0; i < 1000; i++) {
                    if (i >= n) break;
                    if (i % 2 == 1) continue;
                    total += i;
                }
                out[0] = total > 10 ? total : -total;
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "f",
            NdRange::linear(1),
            vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::int(10))],
            vec![vec![0u8; 4]],
        );
        // 0+2+4+6+8 = 20
        assert_eq!(u32s(&buffers[0])[0], 20);
    }

    #[test]
    fn out_of_bounds_store_reports_error() {
        let src = r#"
            __kernel void oob(__global int* out) {
                out[1000] = 1;
            }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("oob").unwrap();
        let mut buffer = vec![0u8; 8];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute(&NdRange::linear(1), &[KernelArgValue::Buffer(0)], &mut bindings)
            .unwrap_err();
        assert!(err.message.contains("out-of-bounds"));
    }

    #[test]
    fn division_by_zero_reports_error() {
        let src = r#"
            __kernel void div(__global int* out, int d) {
                out[0] = 10 / d;
            }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("div").unwrap();
        let mut buffer = vec![0u8; 4];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute(
                &NdRange::linear(1),
                &[KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::int(0))],
                &mut bindings,
            )
            .unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn wrong_argument_count_is_rejected() {
        let src = "__kernel void f(__global int* a, int b) { a[0] = b; }";
        let program = Program::build(src).unwrap();
        let k = program.kernel("f").unwrap();
        let mut buffer = vec![0u8; 4];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute(&NdRange::linear(1), &[KernelArgValue::Buffer(0)], &mut bindings)
            .unwrap_err();
        assert!(err.message.contains("expects 2 argument"));
    }

    #[test]
    fn infinite_loop_is_bounded() {
        let src = r#"
            __kernel void spin(__global int* out) {
                while (true) { out[0] = out[0]; }
            }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("spin").unwrap();
        let mut buffer = vec![0u8; 4];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute(&NdRange::linear(1), &[KernelArgValue::Buffer(0)], &mut bindings)
            .unwrap_err();
        assert!(err.message.contains("step limit"));
    }

    #[test]
    fn recursion_is_bounded() {
        let src = r#"
            int rec(int n) { return rec(n + 1); }
            __kernel void f(__global int* out) { out[0] = rec(0); }
        "#;
        let program = Program::build(src).unwrap();
        let k = program.kernel("f").unwrap();
        let mut buffer = vec![0u8; 4];
        let mut bindings = vec![BufferBinding::new(&mut buffer)];
        let err = k
            .execute(&NdRange::linear(1), &[KernelArgValue::Buffer(0)], &mut bindings)
            .unwrap_err();
        assert!(err.message.contains("call depth"));
    }

    #[test]
    fn signed_negative_index_guard_comparison() {
        // `int i` compared against `uint n` must not wrap.
        let src = r#"
            __kernel void f(__global int* out, uint n) {
                int i = -1;
                out[0] = i < n ? 1 : 0;
            }
        "#;
        let (buffers, _) = run_kernel(
            src,
            "f",
            NdRange::linear(1),
            vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(4))],
            vec![vec![0u8; 4]],
        );
        assert_eq!(u32s(&buffers[0])[0], 1);
    }

    #[test]
    fn ndrange_helpers() {
        assert_eq!(NdRange::linear(10).total_items(), 10);
        assert_eq!(NdRange::two_d(4, 5).total_items(), 20);
        assert_eq!(NdRange::three_d(2, 3, 4).total_items(), 24);
        let r = NdRange::linear(16).with_local([4, 1, 1]).with_offset([2, 0, 0]);
        assert_eq!(r.local_size(), [4, 1, 1]);
        assert_eq!(r.offset[0], 2);
    }
}
