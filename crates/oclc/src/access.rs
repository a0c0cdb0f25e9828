//! Static kernel-argument access analysis (parse-only, no code generation).
//!
//! The dOpenCL client uses this to *derive* coherence launch hints: a
//! `__global` pointer argument that a kernel provably never writes needs no
//! post-launch dirtying (`reads_only`), and one whose every access is
//! indexed by `get_global_id(0)` touches exactly the byte slice implied by
//! a 1-D NDRange (`writes_slice`).  Explicit hints given by the caller
//! always take precedence — the analysis only fills the gaps.
//!
//! The analysis is deliberately conservative: any aliasing (the pointer
//! escapes into a call or another variable), pointer arithmetic, or an
//! index expression it cannot prove to be the linear global id demotes the
//! argument to [`ArgAccess::WrittenWhole`], which reproduces today's
//! whole-buffer treatment.  It runs on the *parsed* AST only — no semantic
//! analysis or lowering — so using it never compiles anything.

use crate::ast::{Block, Expr, ExprKind, Function, Param, Stmt, TranslationUnit};
use crate::error::CompileError;
use crate::types::{AddressSpace, Type};
use std::collections::HashSet;

/// How a kernel accesses one of its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgAccess {
    /// Not a `__global` buffer argument (scalar, `__local`, `__private`):
    /// the coherence protocol does not track it.
    NotTracked,
    /// The kernel never writes through this pointer (declared `const` /
    /// `__constant`, or proven write-free): launches may skip dirtying it.
    ReadOnly,
    /// Every read and write through this pointer is indexed by exactly
    /// `get_global_id(0)` (directly or via a variable initialized to it and
    /// never reassigned): a 1-D launch touches only the byte slice
    /// `[offset * elem_bytes, (offset + size) * elem_bytes)`.
    WrittenLinear {
        /// Size in bytes of the pointee element.
        elem_bytes: usize,
    },
    /// The kernel may write anywhere in the buffer (or the analysis could
    /// not prove otherwise): conservative whole-buffer treatment.
    WrittenWhole,
}

/// Access classification of every parameter of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAccess {
    /// The kernel function's name.
    pub name: String,
    /// Per-parameter access, in declaration order (the same order as
    /// `clSetKernelArg` indices).
    pub args: Vec<ArgAccess>,
}

/// Analyze `source` and classify every parameter of every `__kernel`
/// function.  Only the lexer and parser run; sources the parser rejects
/// return the parse error.
pub fn analyze(source: &str) -> Result<Vec<KernelAccess>, CompileError> {
    let tokens = crate::lexer::lex(source)?;
    let unit = crate::parser::parse(&tokens)?;
    Ok(analyze_unit(&unit))
}

/// Classify every kernel of an already-parsed translation unit.
pub fn analyze_unit(unit: &TranslationUnit) -> Vec<KernelAccess> {
    unit.functions
        .iter()
        .filter(|f| f.is_kernel)
        .map(|f| KernelAccess {
            name: f.name.clone(),
            args: f.params.iter().map(|p| classify_param(f, p)).collect(),
        })
        .collect()
}

fn classify_param(function: &Function, param: &Param) -> ArgAccess {
    let Type::Pointer { pointee, space, is_const } = &param.ty else {
        return ArgAccess::NotTracked;
    };
    match space {
        AddressSpace::Constant => return ArgAccess::ReadOnly,
        AddressSpace::Global => {}
        // `__local` / `__private` pointers are not coherence-tracked
        // buffers.
        _ => return ArgAccess::NotTracked,
    }
    if *is_const {
        return ArgAccess::ReadOnly;
    }

    let gid_vars = linear_gid_variables(&function.body);
    let mut facts = Facts::default();
    scan_block(&function.body, &param.name, &gid_vars, &mut facts);

    if facts.escapes {
        return ArgAccess::WrittenWhole;
    }
    if !facts.written {
        return ArgAccess::ReadOnly;
    }
    if facts.all_accesses_linear {
        ArgAccess::WrittenLinear { elem_bytes: pointee.size().max(1) }
    } else {
        ArgAccess::WrittenWhole
    }
}

/// Accumulated knowledge about one pointer parameter.
#[derive(Debug)]
struct Facts {
    /// A write through the pointer was seen.
    written: bool,
    /// Every index expression (reads *and* writes — a stale read outside
    /// the declared slice would be just as wrong) is the linear global id.
    all_accesses_linear: bool,
    /// The pointer escapes: passed to a call, copied into a variable,
    /// dereferenced without an index, reassigned, or used in arithmetic.
    escapes: bool,
}

impl Default for Facts {
    fn default() -> Self {
        Facts { written: false, all_accesses_linear: true, escapes: false }
    }
}

/// Names of variables provably equal to `get_global_id(0)` for the whole
/// function: declared with that initializer and never reassigned.
fn linear_gid_variables(body: &Block) -> HashSet<String> {
    let mut candidates = HashSet::new();
    let mut reassigned = HashSet::new();
    collect_gid_candidates(body, &mut candidates, &mut reassigned);
    candidates.retain(|name| !reassigned.contains(name));
    candidates
}

fn collect_gid_candidates(
    block: &Block,
    candidates: &mut HashSet<String>,
    reassigned: &mut HashSet<String>,
) {
    for stmt in &block.statements {
        collect_gid_candidates_stmt(stmt, candidates, reassigned);
    }
}

fn collect_gid_candidates_stmt(
    stmt: &Stmt,
    candidates: &mut HashSet<String>,
    reassigned: &mut HashSet<String>,
) {
    match stmt {
        Stmt::Decl { name, init, .. } => {
            if init.as_ref().is_some_and(is_gid0_call) {
                candidates.insert(name.clone());
            } else {
                // A same-named declaration with another initializer shadows
                // (the subset has one scope per function in practice; be
                // conservative either way).
                reassigned.insert(name.clone());
            }
        }
        Stmt::Expr(e) => collect_reassignments(e, reassigned),
        Stmt::If { cond, then_block, else_block } => {
            collect_reassignments(cond, reassigned);
            collect_gid_candidates(then_block, candidates, reassigned);
            if let Some(b) = else_block {
                collect_gid_candidates(b, candidates, reassigned);
            }
        }
        Stmt::While { cond, body } => {
            collect_reassignments(cond, reassigned);
            collect_gid_candidates(body, candidates, reassigned);
        }
        Stmt::DoWhile { body, cond } => {
            collect_gid_candidates(body, candidates, reassigned);
            collect_reassignments(cond, reassigned);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(s) = init {
                collect_gid_candidates_stmt(s, candidates, reassigned);
            }
            if let Some(c) = cond {
                collect_reassignments(c, reassigned);
            }
            if let Some(s) = step {
                collect_reassignments(s, reassigned);
            }
            collect_gid_candidates(body, candidates, reassigned);
        }
        Stmt::Return(Some(e)) => collect_reassignments(e, reassigned),
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        Stmt::Block(b) => collect_gid_candidates(b, candidates, reassigned),
    }
}

/// Record every variable an expression assigns to (plain, compound, or
/// increment/decrement).
fn collect_reassignments(expr: &Expr, reassigned: &mut HashSet<String>) {
    match &expr.kind {
        ExprKind::Assign { target, value, .. } => {
            if let ExprKind::Ident(name) = &target.kind {
                reassigned.insert(name.clone());
            }
            collect_reassignments(target, reassigned);
            collect_reassignments(value, reassigned);
        }
        ExprKind::PostIncDec { target, .. } | ExprKind::PreIncDec { target, .. } => {
            if let ExprKind::Ident(name) = &target.kind {
                reassigned.insert(name.clone());
            }
            collect_reassignments(target, reassigned);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_reassignments(lhs, reassigned);
            collect_reassignments(rhs, reassigned);
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
            collect_reassignments(expr, reassigned)
        }
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            collect_reassignments(cond, reassigned);
            collect_reassignments(then_expr, reassigned);
            collect_reassignments(else_expr, reassigned);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_reassignments(a, reassigned);
            }
        }
        ExprKind::Index { base, index } => {
            collect_reassignments(base, reassigned);
            collect_reassignments(index, reassigned);
        }
        ExprKind::Member { base, .. } => collect_reassignments(base, reassigned),
        ExprKind::IntLit(..)
        | ExprKind::FloatLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Ident(_) => {}
    }
}

/// `get_global_id(0)` — the only work-item query the linear proof accepts.
fn is_gid0_call(expr: &Expr) -> bool {
    match &expr.kind {
        ExprKind::Call { name, args } => {
            name == "get_global_id"
                && args.len() == 1
                && matches!(args[0].kind, ExprKind::IntLit(0, _))
        }
        // `int i = (int)get_global_id(0);` is idiomatic.
        ExprKind::Cast { expr, .. } => is_gid0_call(expr),
        _ => false,
    }
}

fn is_linear_index(expr: &Expr, gid_vars: &HashSet<String>) -> bool {
    if is_gid0_call(expr) {
        return true;
    }
    match &expr.kind {
        ExprKind::Ident(name) => gid_vars.contains(name),
        ExprKind::Cast { expr, .. } => is_linear_index(expr, gid_vars),
        _ => false,
    }
}

fn scan_block(block: &Block, param: &str, gid_vars: &HashSet<String>, facts: &mut Facts) {
    for stmt in &block.statements {
        scan_stmt(stmt, param, gid_vars, facts);
    }
}

fn scan_stmt(stmt: &Stmt, param: &str, gid_vars: &HashSet<String>, facts: &mut Facts) {
    match stmt {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                scan_expr(e, param, gid_vars, facts);
            }
        }
        Stmt::Expr(e) => scan_expr(e, param, gid_vars, facts),
        Stmt::If { cond, then_block, else_block } => {
            scan_expr(cond, param, gid_vars, facts);
            scan_block(then_block, param, gid_vars, facts);
            if let Some(b) = else_block {
                scan_block(b, param, gid_vars, facts);
            }
        }
        Stmt::While { cond, body } => {
            scan_expr(cond, param, gid_vars, facts);
            scan_block(body, param, gid_vars, facts);
        }
        Stmt::DoWhile { body, cond } => {
            scan_block(body, param, gid_vars, facts);
            scan_expr(cond, param, gid_vars, facts);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(s) = init {
                scan_stmt(s, param, gid_vars, facts);
            }
            if let Some(c) = cond {
                scan_expr(c, param, gid_vars, facts);
            }
            if let Some(s) = step {
                scan_expr(s, param, gid_vars, facts);
            }
            scan_block(body, param, gid_vars, facts);
        }
        Stmt::Return(Some(e)) => scan_expr(e, param, gid_vars, facts),
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        Stmt::Block(b) => scan_block(b, param, gid_vars, facts),
    }
}

fn scan_expr(expr: &Expr, param: &str, gid_vars: &HashSet<String>, facts: &mut Facts) {
    match &expr.kind {
        // A bare mention of the pointer outside an index base is an escape
        // (argument to a call, copied into a variable, arithmetic, ...).
        ExprKind::Ident(name) => {
            if name == param {
                facts.escapes = true;
            }
        }
        ExprKind::Index { base, index } => {
            if matches!(&base.kind, ExprKind::Ident(name) if name == param) {
                if !is_linear_index(index, gid_vars) {
                    facts.all_accesses_linear = false;
                }
            } else {
                scan_expr(base, param, gid_vars, facts);
            }
            scan_expr(index, param, gid_vars, facts);
        }
        ExprKind::Assign { target, value, .. } => {
            if let ExprKind::Index { base, index } = &target.kind {
                if matches!(&base.kind, ExprKind::Ident(name) if name == param) {
                    facts.written = true;
                    if !is_linear_index(index, gid_vars) {
                        facts.all_accesses_linear = false;
                    }
                    scan_expr(index, param, gid_vars, facts);
                    scan_expr(value, param, gid_vars, facts);
                    return;
                }
            }
            // `*p = x` or `p = ...`: unindexed write / pointer reassignment.
            if unindexed_param_lvalue(target, param) {
                facts.written = true;
                facts.escapes = true;
            }
            scan_expr(target, param, gid_vars, facts);
            scan_expr(value, param, gid_vars, facts);
        }
        ExprKind::PostIncDec { target, .. } | ExprKind::PreIncDec { target, .. } => {
            if let ExprKind::Index { base, index } = &target.kind {
                if matches!(&base.kind, ExprKind::Ident(name) if name == param) {
                    facts.written = true;
                    if !is_linear_index(index, gid_vars) {
                        facts.all_accesses_linear = false;
                    }
                    scan_expr(index, param, gid_vars, facts);
                    return;
                }
            }
            if unindexed_param_lvalue(target, param) {
                facts.written = true;
                facts.escapes = true;
            }
            scan_expr(target, param, gid_vars, facts);
        }
        ExprKind::Unary { expr: inner, .. } => {
            // Covers `*p` reads (deref without index): the bare-ident rule
            // below flags the escape.
            scan_expr(inner, param, gid_vars, facts);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            scan_expr(lhs, param, gid_vars, facts);
            scan_expr(rhs, param, gid_vars, facts);
        }
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            scan_expr(cond, param, gid_vars, facts);
            scan_expr(then_expr, param, gid_vars, facts);
            scan_expr(else_expr, param, gid_vars, facts);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                scan_expr(a, param, gid_vars, facts);
            }
        }
        ExprKind::Member { base, .. } | ExprKind::Cast { expr: base, .. } => {
            scan_expr(base, param, gid_vars, facts)
        }
        ExprKind::IntLit(..) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) => {}
    }
}

/// `p` or `*p` as an assignment target, where `p` is the parameter.
fn unindexed_param_lvalue(target: &Expr, param: &str) -> bool {
    match &target.kind {
        ExprKind::Ident(name) => name == param,
        ExprKind::Unary { expr, .. } => unindexed_param_lvalue(expr, param),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access_of(source: &str, kernel: &str) -> Vec<ArgAccess> {
        let all = analyze(source).expect("source parses");
        all.into_iter().find(|k| k.name == kernel).expect("kernel present").args
    }

    #[test]
    fn const_and_constant_pointers_are_read_only() {
        let args = access_of(
            r#"__kernel void k(__global const float* in, __constant float* lut,
                              __global float* out) {
                int i = get_global_id(0);
                out[i] = in[i] + lut[0];
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::ReadOnly);
        assert_eq!(args[1], ArgAccess::ReadOnly);
        assert_eq!(args[2], ArgAccess::WrittenLinear { elem_bytes: 4 });
    }

    #[test]
    fn unwritten_global_pointer_is_read_only() {
        let args = access_of(
            r#"__kernel void k(__global float* in, __global float* out) {
                int i = get_global_id(0);
                out[i] = in[i] * 2.0f;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::ReadOnly);
        assert_eq!(args[1], ArgAccess::WrittenLinear { elem_bytes: 4 });
    }

    #[test]
    fn direct_gid_index_and_casts_stay_linear() {
        let args = access_of(
            r#"__kernel void k(__global uint* out) {
                out[get_global_id(0)] = 1u;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenLinear { elem_bytes: 4 });
        let args = access_of(
            r#"__kernel void k(__global double* out) {
                int i = (int)get_global_id(0);
                out[i] = 0.5;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenLinear { elem_bytes: 8 });
    }

    #[test]
    fn nonlinear_index_or_reassigned_gid_demotes_to_whole() {
        // Index arithmetic is not provably linear.
        let args = access_of(
            r#"__kernel void k(__global float* out) {
                int i = get_global_id(0);
                out[i * 2] = 1.0f;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenWhole);
        // The gid variable is reassigned before use.
        let args = access_of(
            r#"__kernel void k(__global float* out) {
                int i = get_global_id(0);
                i = i + 1;
                out[i] = 1.0f;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenWhole);
    }

    #[test]
    fn nonlinear_read_demotes_even_a_linear_writer() {
        // Writes land on gid, but a *read* ranges over the whole buffer:
        // slicing validation to the gid element would read stale bytes.
        let args = access_of(
            r#"__kernel void k(__global float* data, uint n) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (uint j = 0u; j < n; j++) { acc = acc + data[j]; }
                data[i] = acc;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenWhole);
    }

    #[test]
    fn escapes_are_conservative() {
        // Passed to a helper: the callee may write anywhere.
        let args = access_of(
            r#"void helper(__global float* p) { p[3] = 1.0f; }
               __kernel void k(__global float* out) { helper(out); }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenWhole);
        // Aliased into a local variable.
        let args = access_of(
            r#"__kernel void k(__global float* out) {
                __global float* q = out;
                q[0] = 1.0f;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenWhole);
    }

    #[test]
    fn scalars_and_local_pointers_are_not_tracked() {
        let args = access_of(
            r#"__kernel void k(__global float* out, __local float* tmp, uint n) {
                int i = get_global_id(0);
                tmp[0] = 1.0f;
                out[i] = tmp[0] + (float)n;
            }"#,
            "k",
        );
        assert_eq!(args[0], ArgAccess::WrittenLinear { elem_bytes: 4 });
        assert_eq!(args[1], ArgAccess::NotTracked);
        assert_eq!(args[2], ArgAccess::NotTracked);
    }

    #[test]
    fn analysis_runs_on_the_parse_tree_only() {
        // Parses, but semantic analysis rejects it: the analysis must not
        // run (or depend on) the compiler's later stages.
        let source = r#"__kernel void k(__global float* out) {
            out[get_global_id(0)] = undeclared;
        }"#;
        assert!(crate::Program::build(source).is_err());
        assert_eq!(access_of(source, "k"), vec![ArgAccess::WrittenLinear { elem_bytes: 4 }]);
    }

    #[test]
    fn helper_functions_are_skipped_and_parse_errors_surface() {
        let all = analyze("float f(float x) { return x; }").unwrap();
        assert!(all.is_empty());
        assert!(analyze("__kernel void broken(").is_err());
    }
}
