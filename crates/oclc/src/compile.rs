//! Lowering pass: sema-checked AST → flat register bytecode.
//!
//! Runs once per [`crate::Program::build`]; launches only execute the cached
//! [`CompiledUnit`].  The lowering mirrors the tree-walking interpreter's
//! semantics instruction by instruction (literal typing, C-style conversion
//! on declaration/assignment, place resolution order, short-circuit logical
//! operators) so the two paths stay differentially testable.
//!
//! This module also hosts [`analyze_kernel`], the syntactic barrier /
//! `__local`-write analysis.  The VM uses it to pick an execution strategy;
//! the legacy tree-walker uses it to *reject* kernels it would silently
//! miscompile (work-items synchronising through local memory).

use crate::ast::*;
use crate::builtins::{self, BuiltinKind};
use crate::bytecode::*;
use crate::error::{CompileError, Location};
use crate::interp::{component_index, default_value, swizzle_indices};
use crate::types::{AddressSpace, Type};
use crate::value::{Scalar, Value};
use std::collections::{HashMap, HashSet};

/// What a kernel does with barriers and `__local` memory (conservative,
/// purely syntactic, transitive through helper calls).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BarrierUse {
    /// Reaches a `barrier()` call.
    pub has_barrier: bool,
    /// May store through a `__local` pointer (over-approximated: passing a
    /// local pointer to a helper counts as a potential write).
    pub writes_local: bool,
    /// Observes the work-group shape (`get_local_id`, `get_local_size`,
    /// `get_group_id`, `get_num_groups`).
    pub observes_group_shape: bool,
}

/// Per-function facts gathered in one AST pass, before transitive closure.
#[derive(Debug, Default)]
struct DirectUse {
    barrier: bool,
    writes_local: bool,
    observes: bool,
    callees: Vec<usize>,
}

fn collect_idents(expr: &Expr, out: &mut Vec<String>) {
    match &expr.kind {
        ExprKind::Ident(name) => out.push(name.clone()),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_idents(lhs, out);
            collect_idents(rhs, out);
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => collect_idents(expr, out),
        ExprKind::Assign { target, value, .. } => {
            collect_idents(target, out);
            collect_idents(value, out);
        }
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            collect_idents(cond, out);
            collect_idents(then_expr, out);
            collect_idents(else_expr, out);
        }
        ExprKind::Call { args, .. } => args.iter().for_each(|a| collect_idents(a, out)),
        ExprKind::Index { base, index } => {
            collect_idents(base, out);
            collect_idents(index, out);
        }
        ExprKind::Member { base, .. } => collect_idents(base, out),
        ExprKind::PostIncDec { target, .. } | ExprKind::PreIncDec { target, .. } => {
            collect_idents(target, out)
        }
        ExprKind::IntLit(..) | ExprKind::FloatLit(..) | ExprKind::BoolLit(..) => {}
    }
}

fn is_local_ptr(ty: &Type) -> bool {
    matches!(ty, Type::Pointer { space: AddressSpace::Local, .. })
}

/// Gather direct facts about one function.  `local_names` tracks names that
/// (may) alias `__local` memory: local-pointer params, local-pointer
/// declarations, and pointer declarations initialised from such a name.
fn direct_use(unit: &TranslationUnit, function: &Function) -> DirectUse {
    let mut d = DirectUse::default();
    let mut local_names: HashSet<String> =
        function.params.iter().filter(|p| is_local_ptr(&p.ty)).map(|p| p.name.clone()).collect();

    fn mentions_local(expr: &Expr, local_names: &HashSet<String>) -> bool {
        let mut idents = Vec::new();
        collect_idents(expr, &mut idents);
        idents.iter().any(|n| local_names.contains(n))
    }

    fn visit_expr(
        expr: &Expr,
        unit: &TranslationUnit,
        local_names: &HashSet<String>,
        d: &mut DirectUse,
    ) {
        match &expr.kind {
            ExprKind::Assign { target, value, .. } => {
                if let ExprKind::Index { base, .. } | ExprKind::Unary { expr: base, .. } =
                    &target.kind
                {
                    if mentions_local(base, local_names) {
                        d.writes_local = true;
                    }
                }
                visit_expr(target, unit, local_names, d);
                visit_expr(value, unit, local_names, d);
            }
            ExprKind::PostIncDec { target, .. } | ExprKind::PreIncDec { target, .. } => {
                if let ExprKind::Index { base, .. } | ExprKind::Unary { expr: base, .. } =
                    &target.kind
                {
                    if mentions_local(base, local_names) {
                        d.writes_local = true;
                    }
                }
                visit_expr(target, unit, local_names, d);
            }
            ExprKind::Call { name, args } => {
                if let Some((idx, f)) = unit.function_by_name(name) {
                    if !f.is_kernel {
                        d.callees.push(idx.0);
                        // A helper receiving a local pointer may write it.
                        if args.iter().any(|a| mentions_local(a, local_names)) {
                            d.writes_local = true;
                        }
                    }
                } else {
                    match name.as_str() {
                        "barrier" => d.barrier = true,
                        "get_local_id" | "get_local_size" | "get_group_id" | "get_num_groups" => {
                            d.observes = true
                        }
                        _ if matches!(builtins::classify(name), Some(BuiltinKind::Atomic)) => {
                            if let Some(ptr) = args.first() {
                                if mentions_local(ptr, local_names) {
                                    d.writes_local = true;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                args.iter().for_each(|a| visit_expr(a, unit, local_names, d));
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                visit_expr(lhs, unit, local_names, d);
                visit_expr(rhs, unit, local_names, d);
            }
            ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
                visit_expr(expr, unit, local_names, d)
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                visit_expr(cond, unit, local_names, d);
                visit_expr(then_expr, unit, local_names, d);
                visit_expr(else_expr, unit, local_names, d);
            }
            ExprKind::Index { base, index } => {
                visit_expr(base, unit, local_names, d);
                visit_expr(index, unit, local_names, d);
            }
            ExprKind::Member { base, .. } => visit_expr(base, unit, local_names, d),
            ExprKind::IntLit(..)
            | ExprKind::FloatLit(..)
            | ExprKind::BoolLit(..)
            | ExprKind::Ident(..) => {}
        }
    }

    fn visit_block(
        block: &Block,
        unit: &TranslationUnit,
        local_names: &mut HashSet<String>,
        d: &mut DirectUse,
    ) {
        for stmt in &block.statements {
            visit_stmt(stmt, unit, local_names, d);
        }
    }

    fn visit_stmt(
        stmt: &Stmt,
        unit: &TranslationUnit,
        local_names: &mut HashSet<String>,
        d: &mut DirectUse,
    ) {
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                if let Some(e) = init {
                    visit_expr(e, unit, local_names, d);
                    // `__local int* p = scratch;` style aliasing.
                    if ty.is_pointer() {
                        let mut idents = Vec::new();
                        collect_idents(e, &mut idents);
                        if is_local_ptr(ty) || idents.iter().any(|n| local_names.contains(n)) {
                            local_names.insert(name.clone());
                        }
                    }
                } else if is_local_ptr(ty) {
                    local_names.insert(name.clone());
                }
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => visit_expr(e, unit, local_names, d),
            Stmt::If { cond, then_block, else_block } => {
                visit_expr(cond, unit, local_names, d);
                visit_block(then_block, unit, local_names, d);
                if let Some(b) = else_block {
                    visit_block(b, unit, local_names, d);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                visit_expr(cond, unit, local_names, d);
                visit_block(body, unit, local_names, d);
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(s) = init {
                    visit_stmt(s, unit, local_names, d);
                }
                if let Some(c) = cond {
                    visit_expr(c, unit, local_names, d);
                }
                if let Some(s) = step {
                    visit_expr(s, unit, local_names, d);
                }
                visit_block(body, unit, local_names, d);
            }
            Stmt::Block(b) => visit_block(b, unit, local_names, d),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }

    visit_block(&function.body, unit, &mut local_names, &mut d);
    d
}

/// Analyse what the kernel at `index` does with barriers, `__local` memory
/// and group-shape queries, transitively through helper calls.
pub(crate) fn analyze_kernel(unit: &TranslationUnit, index: FunctionIndex) -> BarrierUse {
    let directs: Vec<DirectUse> = unit.functions.iter().map(|f| direct_use(unit, f)).collect();
    let mut use_ = BarrierUse::default();
    let mut seen = HashSet::new();
    let mut stack = vec![index.0];
    while let Some(i) = stack.pop() {
        if !seen.insert(i) {
            continue;
        }
        let Some(d) = directs.get(i) else { continue };
        use_.has_barrier |= d.barrier;
        use_.writes_local |= d.writes_local;
        use_.observes_group_shape |= d.observes;
        stack.extend(d.callees.iter().copied());
    }
    use_
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Lower every function of a sema-checked translation unit.
pub(crate) fn lower_unit(unit: &TranslationUnit) -> Result<CompiledUnit, CompileError> {
    // Helper functions first; CallUser refers to their compiled index.
    let mut helper_index: HashMap<usize, usize> = HashMap::new();
    for (i, f) in unit.functions.iter().enumerate() {
        if !f.is_kernel {
            let next = helper_index.len();
            helper_index.insert(i, next);
        }
    }

    let mut compiled = CompiledUnit::default();
    for f in unit.functions.iter().filter(|f| !f.is_kernel) {
        compiled.functions.push(lower_function(unit, &helper_index, f)?);
    }
    let helper_bounds = helper_step_bounds(&compiled.functions);
    for (i, f) in unit.functions.iter().enumerate() {
        if f.is_kernel {
            let func = lower_function(unit, &helper_index, f)?;
            let use_ = analyze_kernel(unit, FunctionIndex(i));
            let lanes = crate::lanes::analyze(&func);
            let step_bound = step_bound(&func.quick, &helper_bounds);
            compiled.kernels.insert(
                i,
                CompiledKernel {
                    func,
                    has_barrier: use_.has_barrier,
                    observes_group_shape: use_.observes_group_shape,
                    lanes,
                    step_bound,
                },
            );
        }
    }
    Ok(compiled)
}

/// The lowered location of an assignable expression.
enum Place {
    /// A named variable: its register and declared type (conversions on
    /// write preserve the declared type, like the interpreter does).
    Var(Reg, Type),
    /// A lane of a named vector variable.
    VarLane(Reg, usize),
    /// Memory through a pointer register, optionally indexed.
    Mem { ptr: Reg, index: Option<Reg> },
}

struct Lowerer<'a> {
    unit: &'a TranslationUnit,
    helper_index: &'a HashMap<usize, usize>,
    insts: Vec<Inst>,
    locs: Vec<Location>,
    scopes: Vec<Vec<(String, Reg, Type)>>,
    next_reg: Reg,
    /// Break / continue jump indices per enclosing loop, patched at loop end.
    loops: Vec<(Vec<usize>, Vec<usize>)>,
}

fn lower_function(
    unit: &TranslationUnit,
    helper_index: &HashMap<usize, usize>,
    function: &Function,
) -> Result<CompiledFunction, CompileError> {
    let mut l = Lowerer {
        unit,
        helper_index,
        insts: Vec::new(),
        locs: Vec::new(),
        scopes: vec![Vec::new()],
        next_reg: 0,
        loops: Vec::new(),
    };
    // Parameters occupy registers 0..N; the VM binds converted argument
    // values into them before the first instruction runs.
    for p in &function.params {
        let reg = l.alloc();
        l.scopes[0].push((p.name.clone(), reg, p.ty.clone()));
    }
    l.lower_block(&function.body)?;
    // Implicit return; the VM reports "ended without returning a value" for
    // non-void functions that fall off the end.
    l.emit(Inst::Return { src: None }, function.location);
    // Decode into the VM's fixed-size execution format once, here, so
    // launches never pay for it.  The verifier proves the bounds invariants
    // the VM's unchecked hot path relies on; a failure here is a lowering
    // bug, surfaced at build time instead of as undefined behaviour.
    let quick = quicken(&l.insts);
    crate::bytecode::verify(&quick, l.next_reg as usize).map_err(|msg| {
        CompileError::at(
            function.location,
            format!("internal error: bytecode verification failed for '{}': {msg}", function.name),
        )
    })?;
    Ok(CompiledFunction {
        name: function.name.clone(),
        quick,
        locs: l.locs,
        num_regs: l.next_reg as usize,
        param_types: function.params.iter().map(|p| p.ty.clone()).collect(),
        param_names: function.params.iter().map(|p| p.name.clone()).collect(),
        return_type: function.return_type.clone(),
    })
}

impl<'a> Lowerer<'a> {
    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, inst: Inst, loc: Location) -> usize {
        self.insts.push(inst);
        self.locs.push(loc);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.insts[at] {
            Inst::Jump { target: t }
            | Inst::JumpIfFalse { target: t, .. }
            | Inst::JumpIfTrue { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    fn lookup(&self, name: &str) -> Option<(Reg, Type)> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, ..)| n == name))
            .map(|(_, r, t)| (*r, t.clone()))
    }

    fn bind(&mut self, name: &str, reg: Reg, ty: Type) {
        self.scopes.last_mut().unwrap().push((name.to_string(), reg, ty));
    }

    // ----- statements ------------------------------------------------------

    fn lower_block(&mut self, block: &Block) -> Result<(), CompileError> {
        self.scopes.push(Vec::new());
        for stmt in &block.statements {
            self.lower_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Decl { name, ty, init, location } => {
                let dst = self.alloc();
                match init {
                    Some(e) => {
                        let src = self.lower_expr(e)?;
                        self.emit(Inst::Convert { dst, src, ty: ty.clone() }, *location);
                    }
                    None => {
                        let value = default_value(ty).map_err(|mut e| {
                            e.location = *location;
                            e
                        })?;
                        self.emit(Inst::Const { dst, value }, *location);
                    }
                }
                self.bind(name, dst, ty.clone());
                Ok(())
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::If { cond, then_block, else_block } => {
                let jfs = self.lower_cond_jump(cond, true)?;
                self.lower_block(then_block)?;
                match else_block {
                    Some(b) => {
                        let jend = self.emit(Inst::Jump { target: 0 }, cond.location);
                        let else_start = self.here();
                        for jf in jfs {
                            self.patch(jf, else_start);
                        }
                        self.lower_block(b)?;
                        let end = self.here();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.here();
                        for jf in jfs {
                            self.patch(jf, end);
                        }
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                let jfs = self.lower_cond_jump(cond, true)?;
                self.loops.push((Vec::new(), Vec::new()));
                self.lower_block(body)?;
                self.emit(Inst::Jump { target: start }, cond.location);
                let end = self.here();
                for jf in jfs {
                    self.patch(jf, end);
                }
                let (breaks, continues) = self.loops.pop().unwrap();
                for b in breaks {
                    self.patch(b, end);
                }
                for c in continues {
                    self.patch(c, start);
                }
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let start = self.here();
                self.loops.push((Vec::new(), Vec::new()));
                self.lower_block(body)?;
                let cond_label = self.here();
                let jts = self.lower_cond_jump(cond, false)?;
                for jt in jts {
                    self.patch(jt, start);
                }
                let end = self.here();
                let (breaks, continues) = self.loops.pop().unwrap();
                for b in breaks {
                    self.patch(b, end);
                }
                for c in continues {
                    self.patch(c, cond_label);
                }
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(Vec::new());
                if let Some(s) = init {
                    self.lower_stmt(s)?;
                }
                let cond_label = self.here();
                let jfs = match cond {
                    Some(c) => self.lower_cond_jump(c, true)?,
                    None => Vec::new(),
                };
                self.loops.push((Vec::new(), Vec::new()));
                self.lower_block(body)?;
                let step_label = self.here();
                if let Some(s) = step {
                    self.lower_expr(s)?;
                }
                self.emit(Inst::Jump { target: cond_label }, Location::default());
                let end = self.here();
                for jf in jfs {
                    self.patch(jf, end);
                }
                let (breaks, continues) = self.loops.pop().unwrap();
                for b in breaks {
                    self.patch(b, end);
                }
                for c in continues {
                    self.patch(c, step_label);
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e) => {
                let src = match e {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.emit(Inst::Return { src }, Location::default());
                Ok(())
            }
            Stmt::Break => {
                let j = self.emit(Inst::Jump { target: 0 }, Location::default());
                match self.loops.last_mut() {
                    Some((breaks, _)) => breaks.push(j),
                    None => return Err(CompileError::new("'break' outside of a loop")),
                }
                Ok(())
            }
            Stmt::Continue => {
                let j = self.emit(Inst::Jump { target: 0 }, Location::default());
                match self.loops.last_mut() {
                    Some((_, continues)) => continues.push(j),
                    None => return Err(CompileError::new("'continue' outside of a loop")),
                }
                Ok(())
            }
            Stmt::Block(b) => self.lower_block(b),
        }
    }

    // ----- places ----------------------------------------------------------

    fn lower_place(&mut self, expr: &Expr) -> Result<Place, CompileError> {
        match &expr.kind {
            ExprKind::Ident(name) => {
                let (reg, ty) = self.lookup(name).ok_or_else(|| {
                    CompileError::at(
                        expr.location,
                        format!("assignment to undeclared variable '{name}'"),
                    )
                })?;
                Ok(Place::Var(reg, ty))
            }
            ExprKind::Member { base, member } => {
                if let ExprKind::Ident(name) = &base.kind {
                    let lane = component_index(member).ok_or_else(|| {
                        CompileError::at(
                            expr.location,
                            format!("unknown vector component '{member}'"),
                        )
                    })?;
                    let (reg, _) = self.lookup(name).ok_or_else(|| {
                        CompileError::at(
                            expr.location,
                            format!("assignment to undeclared vector '{name}'"),
                        )
                    })?;
                    Ok(Place::VarLane(reg, lane))
                } else {
                    Err(CompileError::at(
                        expr.location,
                        "vector component assignment requires a named variable",
                    ))
                }
            }
            ExprKind::Index { base, index } => {
                let ptr = self.lower_expr(base)?;
                let idx = self.lower_expr(index)?;
                Ok(Place::Mem { ptr, index: Some(idx) })
            }
            ExprKind::Unary { op: UnOp::Deref, expr: inner } => {
                let ptr = self.lower_expr(inner)?;
                Ok(Place::Mem { ptr, index: None })
            }
            _ => Err(CompileError::at(expr.location, "expression is not assignable")),
        }
    }

    /// Read a place's current value.  `Var` reads alias the variable's
    /// register (no copy); callers needing a stable snapshot use
    /// [`Self::read_place_fresh`].
    fn read_place(&mut self, place: &Place, loc: Location) -> Reg {
        match place {
            Place::Var(reg, _) => *reg,
            Place::VarLane(reg, lane) => {
                let dst = self.alloc();
                self.emit(Inst::Swizzle { dst, src: *reg, lanes: vec![*lane] }, loc);
                dst
            }
            Place::Mem { ptr, index } => {
                let dst = self.alloc();
                self.emit(Inst::Load { dst, ptr: *ptr, index: *index }, loc);
                dst
            }
        }
    }

    /// Read a place into a fresh register (survives a later write).
    fn read_place_fresh(&mut self, place: &Place, loc: Location) -> Reg {
        match place {
            Place::Var(reg, _) => {
                let dst = self.alloc();
                self.emit(Inst::Move { dst, src: *reg }, loc);
                dst
            }
            _ => self.read_place(place, loc),
        }
    }

    fn write_place(&mut self, place: &Place, src: Reg, loc: Location) {
        match place {
            // Writes preserve the declared variable type (the interpreter
            // converts on assignment); pointer variables assign unchanged.
            Place::Var(reg, ty) => {
                if ty.is_pointer() {
                    self.emit(Inst::Move { dst: *reg, src }, loc);
                } else {
                    self.emit(Inst::Convert { dst: *reg, src, ty: ty.clone() }, loc);
                }
            }
            Place::VarLane(reg, lane) => {
                self.emit(Inst::SetLane { dst: *reg, lane: *lane, src }, loc);
            }
            Place::Mem { ptr, index } => {
                self.emit(Inst::Store { ptr: *ptr, index: *index, src }, loc);
            }
        }
    }

    // ----- expressions -----------------------------------------------------

    /// Lower a branch condition directly to conditional jumps, short-
    /// circuiting `&&`/`||` as control flow instead of materialising a 0/1
    /// register (which costs a `Bool`, a `Const` and an extra jump per
    /// operator on the hot path of every loop).  Returns the unpatched jump
    /// sites; they all branch when the condition is false (`jump_if_false`)
    /// or true (otherwise) and fall through in the other case.
    fn lower_cond_jump(
        &mut self,
        e: &Expr,
        jump_if_false: bool,
    ) -> Result<Vec<usize>, CompileError> {
        match &e.kind {
            ExprKind::Binary { op: BinOp::LogicalAnd, lhs, rhs } if jump_if_false => {
                // `A && B` is false if either side is.
                let mut sites = self.lower_cond_jump(lhs, true)?;
                sites.extend(self.lower_cond_jump(rhs, true)?);
                Ok(sites)
            }
            ExprKind::Binary { op: BinOp::LogicalOr, lhs, rhs } if !jump_if_false => {
                // `A || B` is true if either side is.
                let mut sites = self.lower_cond_jump(lhs, false)?;
                sites.extend(self.lower_cond_jump(rhs, false)?);
                Ok(sites)
            }
            ExprKind::Binary { op: BinOp::LogicalAnd, lhs, rhs } => {
                // Jump when `A && B` is true: a false `A` skips past `B`.
                let skips = self.lower_cond_jump(lhs, true)?;
                let sites = self.lower_cond_jump(rhs, false)?;
                let fall = self.here();
                for s in skips {
                    self.patch(s, fall);
                }
                Ok(sites)
            }
            ExprKind::Binary { op: BinOp::LogicalOr, lhs, rhs } => {
                // Jump when `A || B` is false: a true `A` skips past `B`.
                let skips = self.lower_cond_jump(lhs, false)?;
                let sites = self.lower_cond_jump(rhs, true)?;
                let fall = self.here();
                for s in skips {
                    self.patch(s, fall);
                }
                Ok(sites)
            }
            _ => {
                let c = self.lower_expr(e)?;
                let site = if jump_if_false {
                    self.emit(Inst::JumpIfFalse { cond: c, target: 0 }, e.location)
                } else {
                    self.emit(Inst::JumpIfTrue { cond: c, target: 0 }, e.location)
                };
                Ok(vec![site])
            }
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<Reg, CompileError> {
        let loc = expr.location;
        match &expr.kind {
            ExprKind::IntLit(v, unsigned) => {
                // Literal typing matches the interpreter exactly.
                let value = if *unsigned {
                    Value::uint(*v)
                } else if *v <= i32::MAX as u64 {
                    Value::int(*v as i64)
                } else {
                    Value::long(*v as i64)
                };
                let dst = self.alloc();
                self.emit(Inst::Const { dst, value }, loc);
                Ok(dst)
            }
            ExprKind::FloatLit(v) => {
                let dst = self.alloc();
                self.emit(
                    Inst::Const {
                        dst,
                        value: Value::Scalar(crate::types::ScalarType::Float, Scalar::F(*v)),
                    },
                    loc,
                );
                Ok(dst)
            }
            ExprKind::BoolLit(v) => {
                let dst = self.alloc();
                self.emit(Inst::Const { dst, value: Value::boolean(*v) }, loc);
                Ok(dst)
            }
            ExprKind::Ident(name) => {
                if let Some((reg, _)) = self.lookup(name) {
                    Ok(reg)
                } else if let Some(value) = builtins::builtin_constant(name) {
                    let dst = self.alloc();
                    self.emit(Inst::Const { dst, value }, loc);
                    Ok(dst)
                } else {
                    Err(CompileError::at(loc, format!("use of undeclared identifier '{name}'")))
                }
            }
            ExprKind::Binary { op: BinOp::LogicalAnd, lhs, rhs } => {
                let dst = self.alloc();
                let l = self.lower_expr(lhs)?;
                let jf = self.emit(Inst::JumpIfFalse { cond: l, target: 0 }, loc);
                let r = self.lower_expr(rhs)?;
                self.emit(Inst::Bool { dst, src: r }, loc);
                let jend = self.emit(Inst::Jump { target: 0 }, loc);
                let short = self.here();
                self.patch(jf, short);
                self.emit(Inst::Const { dst, value: Value::int(0) }, loc);
                let end = self.here();
                self.patch(jend, end);
                Ok(dst)
            }
            ExprKind::Binary { op: BinOp::LogicalOr, lhs, rhs } => {
                let dst = self.alloc();
                let l = self.lower_expr(lhs)?;
                let jt = self.emit(Inst::JumpIfTrue { cond: l, target: 0 }, loc);
                let r = self.lower_expr(rhs)?;
                self.emit(Inst::Bool { dst, src: r }, loc);
                let jend = self.emit(Inst::Jump { target: 0 }, loc);
                let short = self.here();
                self.patch(jt, short);
                self.emit(Inst::Const { dst, value: Value::int(1) }, loc);
                let end = self.here();
                self.patch(jend, end);
                Ok(dst)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                let dst = self.alloc();
                self.emit(Inst::Binary { op: *op, dst, lhs: l, rhs: r }, loc);
                Ok(dst)
            }
            ExprKind::Unary { op: UnOp::Deref, .. } => {
                let place = self.lower_place(expr)?;
                Ok(self.read_place(&place, loc))
            }
            ExprKind::Unary { op, expr: inner } => {
                let src = self.lower_expr(inner)?;
                let dst = self.alloc();
                self.emit(Inst::Unary { op: *op, dst, src }, loc);
                Ok(dst)
            }
            ExprKind::Assign { op, target, value } => {
                // Place operands evaluate before the right-hand side, exactly
                // like the interpreter's resolve-then-eval order.
                let place = self.lower_place(target)?;
                let rhs = self.lower_expr(value)?;
                let result = match op {
                    None => rhs,
                    Some(op) => {
                        let current = self.read_place(&place, loc);
                        let dst = self.alloc();
                        self.emit(Inst::Binary { op: *op, dst, lhs: current, rhs }, loc);
                        dst
                    }
                };
                self.write_place(&place, result, loc);
                Ok(result)
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                let dst = self.alloc();
                let c = self.lower_expr(cond)?;
                let jf = self.emit(Inst::JumpIfFalse { cond: c, target: 0 }, loc);
                let t = self.lower_expr(then_expr)?;
                self.emit(Inst::Move { dst, src: t }, loc);
                let jend = self.emit(Inst::Jump { target: 0 }, loc);
                let else_start = self.here();
                self.patch(jf, else_start);
                let e = self.lower_expr(else_expr)?;
                self.emit(Inst::Move { dst, src: e }, loc);
                let end = self.here();
                self.patch(jend, end);
                Ok(dst)
            }
            ExprKind::Call { name, args } => self.lower_call(expr, name, args),
            ExprKind::Index { .. } => {
                let place = self.lower_place(expr)?;
                Ok(self.read_place(&place, loc))
            }
            ExprKind::Member { base, member } => {
                let src = self.lower_expr(base)?;
                let lanes = swizzle_indices(member).ok_or_else(|| {
                    CompileError::at(loc, format!("unknown vector component '{member}'"))
                })?;
                let dst = self.alloc();
                self.emit(Inst::Swizzle { dst, src, lanes }, loc);
                Ok(dst)
            }
            ExprKind::Cast { ty, expr: inner } => {
                let src = self.lower_expr(inner)?;
                let dst = self.alloc();
                self.emit(Inst::Convert { dst, src, ty: ty.clone() }, loc);
                Ok(dst)
            }
            ExprKind::PostIncDec { target, inc } => {
                let place = self.lower_place(target)?;
                let old = self.read_place_fresh(&place, loc);
                let one = self.alloc();
                self.emit(
                    Inst::Const { dst: one, value: Value::int(if *inc { 1 } else { -1 }) },
                    loc,
                );
                let new = self.alloc();
                self.emit(Inst::Binary { op: BinOp::Add, dst: new, lhs: old, rhs: one }, loc);
                self.write_place(&place, new, loc);
                Ok(old)
            }
            ExprKind::PreIncDec { target, inc } => {
                let place = self.lower_place(target)?;
                let old = self.read_place_fresh(&place, loc);
                let one = self.alloc();
                self.emit(
                    Inst::Const { dst: one, value: Value::int(if *inc { 1 } else { -1 }) },
                    loc,
                );
                let new = self.alloc();
                self.emit(Inst::Binary { op: BinOp::Add, dst: new, lhs: old, rhs: one }, loc);
                self.write_place(&place, new, loc);
                Ok(new)
            }
        }
    }

    fn lower_call(&mut self, expr: &Expr, name: &str, args: &[Expr]) -> Result<Reg, CompileError> {
        let loc = expr.location;
        // User-defined functions shadow builtins, like the interpreter.
        if let Some((idx, function)) = self.unit.function_by_name(name) {
            if function.is_kernel {
                return Err(CompileError::at(
                    loc,
                    format!("kernel '{name}' cannot be called from device code"),
                ));
            }
            let mut arg_regs = Vec::with_capacity(args.len());
            for a in args {
                arg_regs.push(self.lower_expr(a)?);
            }
            let dst = self.alloc();
            let func = self.helper_index[&idx.0];
            self.emit(Inst::CallUser { dst, func, args: arg_regs }, loc);
            return Ok(dst);
        }

        let kind = builtins::classify(name)
            .ok_or_else(|| CompileError::at(loc, format!("call to unknown function '{name}'")))?;
        match kind {
            BuiltinKind::WorkItem => {
                let dim = match args.first() {
                    Some(a) => Some(self.lower_expr(a)?),
                    None => None,
                };
                let which = match name {
                    "get_global_id" => WorkItemFn::GlobalId,
                    "get_local_id" => WorkItemFn::LocalId,
                    "get_group_id" => WorkItemFn::GroupId,
                    "get_global_size" => WorkItemFn::GlobalSize,
                    "get_local_size" => WorkItemFn::LocalSize,
                    "get_num_groups" => WorkItemFn::NumGroups,
                    "get_global_offset" => WorkItemFn::GlobalOffset,
                    "get_work_dim" => WorkItemFn::WorkDim,
                    _ => unreachable!("classified as work-item builtin"),
                };
                let dst = self.alloc();
                self.emit(Inst::WorkItem { dst, which, dim }, loc);
                Ok(dst)
            }
            BuiltinKind::Sync => {
                // Arguments evaluate for their side effects.
                for a in args {
                    self.lower_expr(a)?;
                }
                let dst = self.alloc();
                if name == "barrier" {
                    self.emit(Inst::Barrier, loc);
                }
                self.emit(Inst::Const { dst, value: Value::Void }, loc);
                Ok(dst)
            }
            BuiltinKind::Atomic => {
                let ptr_expr = args
                    .first()
                    .ok_or_else(|| CompileError::at(loc, format!("{name}: missing pointer")))?;
                let ptr = self.lower_expr(ptr_expr)?;
                let operand = match args.get(1) {
                    Some(a) => Some(self.lower_expr(a)?),
                    None => None,
                };
                let op = match name {
                    "atomic_add" | "atom_add" | "atomic_inc" | "atom_inc" => AtomicOp::Add,
                    "atomic_sub" | "atomic_dec" => AtomicOp::Sub,
                    "atomic_xchg" => AtomicOp::Xchg,
                    "atomic_min" => AtomicOp::Min,
                    "atomic_max" => AtomicOp::Max,
                    _ => unreachable!("classified as atomic builtin"),
                };
                let dst = self.alloc();
                self.emit(Inst::Atomic { op, dst, ptr, operand }, loc);
                Ok(dst)
            }
            BuiltinKind::VectorCtor => {
                let ty_name = name.trim_start_matches("__vec_");
                let ty = Type::from_name(ty_name).ok_or_else(|| {
                    CompileError::at(loc, format!("unknown vector type '{ty_name}'"))
                })?;
                let Type::Vector(scalar, width) = ty else {
                    return Err(CompileError::at(loc, "not a vector type"));
                };
                let mut arg_regs = Vec::with_capacity(args.len());
                for a in args {
                    arg_regs.push(self.lower_expr(a)?);
                }
                let dst = self.alloc();
                self.emit(Inst::VecCtor { dst, ty: scalar, width, args: arg_regs }, loc);
                Ok(dst)
            }
            BuiltinKind::Math => {
                let mut arg_regs = Vec::with_capacity(args.len());
                for a in args {
                    arg_regs.push(self.lower_expr(a)?);
                }
                let dst = self.alloc();
                self.emit(Inst::CallMath { dst, name: name.to_string(), args: arg_regs }, loc);
                Ok(dst)
            }
        }
    }
}
