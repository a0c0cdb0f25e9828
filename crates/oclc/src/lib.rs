//! # oclc — an OpenCL C subset compiler and work-group-parallel VM
//!
//! OpenCL programs ship their device code as *source strings* which the
//! runtime compiles per device (`clCreateProgramWithSource` +
//! `clBuildProgram`).  dOpenCL forwards those strings over the network and
//! lets the server's native implementation build them.  To reproduce that
//! path without a vendor compiler, this crate implements a practical subset
//! of OpenCL C:
//!
//! * scalar types (`bool`, `char`, `uchar`, `short`, `ushort`, `int`, `uint`,
//!   `long`, `ulong`, `size_t`, `float`, `double`) and small vector types
//!   (`float2`, `float4`, `int2`, `int4`, ...),
//! * `__global` / `__local` / `__constant` pointer kernel arguments,
//! * the usual expression grammar (arithmetic, comparison, logical, bitwise,
//!   ternary, casts, calls, indexing, vector component access),
//! * statements: declarations, assignment (including compound assignment),
//!   `if`/`else`, `for`, `while`, `do`, `return`, `break`, `continue`,
//! * work-item built-ins (`get_global_id`, `get_local_id`, `get_group_id`,
//!   `get_global_size`, `get_local_size`, `get_work_dim`) and a set of math
//!   built-ins (`sqrt`, `exp`, `log`, `fabs`, `pow`, `min`, `max`, `clamp`,
//!   `floor`, `ceil`, `sin`, `cos`, `native_*` aliases, ...),
//! * helper (non-kernel) functions callable from kernels,
//! * work-group `barrier(CLK_LOCAL_MEM_FENCE)` with coherent `__local`
//!   memory (see below).
//!
//! ## Compile pipeline
//!
//! [`Program::build`] corresponds to `clBuildProgram` and runs the full
//! pipeline **once**: [`lexer`] → [`parser`] → [`sema`] → lowering to a flat
//! register-style bytecode.  The bytecode is cached inside the [`Program`]
//! (and shared by every [`KernelHandle`] via `Arc`), so launching a kernel
//! never re-parses or re-lowers source — `execute` only runs the VM.
//!
//! ## Execution model and the barrier guarantee
//!
//! The VM executes one *work-group* at a time: a work-stealing driver fans
//! groups out across host threads (as many as the host's available
//! parallelism, or the count passed to
//! [`KernelHandle::execute_vm_with_threads`]), global buffers are shared,
//! and each group gets its own zeroed `__local` arenas.
//!
//! Within a group, a kernel runs on one of two paths, chosen once by
//! [`Program::build`] from the kernel alone
//! ([`KernelHandle::runs_in_lanes`]):
//!
//! * **Lanes.**  A kernel with no barrier, helper call, atomic, math
//!   builtin or vector value, with one static scalar or pointer type per
//!   register, and with no buffer parameter both loaded and stored through,
//!   runs 16 work-items at a time in lockstep: one decode and dispatch per
//!   instruction for the whole batch, an execution mask for divergent
//!   branches and loops, and reconvergence by running the lanes waiting at
//!   the lowest instruction index first.  Results and operation counters
//!   equal the per-item path's; the only ordering difference is between
//!   racing stores of work-items of one batch, which OpenCL C leaves
//!   undefined.  A batch that faults is re-run item by item, which reports
//!   the error.
//! * **Item by item.**  Every other kernel runs its work-items one after
//!   another in a tight bytecode loop; `barrier()` suspends each work-item
//!   (its frame stack is parked) and the group resumes all items in phases.
//!
//! The phases make the classic barrier-separated local-memory
//! reduction bit-correct — all local-memory writes that precede the barrier
//! are visible to every work-item of the group after it.  Work-items of the
//! same group that reach *different* barriers (or only some of them reach
//! one) are reported as a "barrier divergence" error rather than hanging.
//!
//! ## `DCL_INTERP` escape hatch
//!
//! Setting `DCL_INTERP=tree` routes [`KernelHandle::execute`] through the
//! legacy tree-walking interpreter ([`interp`]), which remains the
//! differential-testing oracle (see [`KernelHandle::execute_tree`] /
//! [`KernelHandle::execute_vm`] for explicit selection).  The tree walker
//! runs work-items strictly one after another, so it *cannot* implement
//! barrier semantics; kernels that combine `barrier()` with `__local`-memory
//! writes are rejected with a clear error instead of silently producing
//! wrong results.  The variable is read when a kernel handle is created.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod ast;
pub mod builtins;
mod bytecode;
mod compile;
pub mod error;
pub mod interp;
mod lanes;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;
pub mod types;
pub mod value;
mod vm;

pub use error::{BuildLog, CompileError};
pub use interp::{BufferBinding, KernelArgValue, NdRange, WorkItemCounters};
pub use types::{AddressSpace, ScalarType, Type};
pub use value::{Scalar, Value};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Which executor [`KernelHandle::execute`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The bytecode VM with work-group parallelism (the default).
    Vm,
    /// The legacy tree-walking interpreter (`DCL_INTERP=tree`).
    Tree,
}

impl ExecMode {
    /// Parse a `DCL_INTERP` value; anything other than `"tree"` (case
    /// insensitive) selects the VM.
    pub fn parse(value: Option<&str>) -> ExecMode {
        match value {
            Some(v) if v.eq_ignore_ascii_case("tree") => ExecMode::Tree,
            _ => ExecMode::Vm,
        }
    }

    /// Read the mode from the `DCL_INTERP` environment variable.
    pub fn from_env() -> ExecMode {
        ExecMode::parse(std::env::var("DCL_INTERP").ok().as_deref())
    }
}

/// Worker-thread count for the VM: the host's available parallelism,
/// measured once per process because on Linux each measurement reads
/// cgroup files (tens of µs).
fn default_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A successfully built program: the analysed AST, its kernel index, and the
/// lowered bytecode (compiled once, executed per launch).
#[derive(Debug, Clone)]
pub struct Program {
    source: String,
    unit: Arc<ast::TranslationUnit>,
    compiled: Arc<bytecode::CompiledUnit>,
    kernels: BTreeMap<String, ast::FunctionIndex>,
}

impl Program {
    /// Build (lex, parse, analyse, lower) OpenCL C `source`.
    ///
    /// Mirrors `clBuildProgram`: on failure the returned [`BuildLog`]
    /// contains every diagnostic collected.  The bytecode produced here is
    /// cached; kernel launches only execute it.
    pub fn build(source: &str) -> Result<Program, BuildLog> {
        let tokens = lexer::lex(source).map_err(BuildLog::from_single)?;
        let unit = parser::parse(&tokens).map_err(BuildLog::from_single)?;
        sema::check(&unit).map_err(BuildLog::from_errors)?;
        let compiled = compile::lower_unit(&unit).map_err(BuildLog::from_single)?;
        let mut kernels = BTreeMap::new();
        for (idx, f) in unit.functions.iter().enumerate() {
            if f.is_kernel {
                kernels.insert(f.name.clone(), ast::FunctionIndex(idx));
            }
        }
        Ok(Program {
            source: source.to_string(),
            unit: Arc::new(unit),
            compiled: Arc::new(compiled),
            kernels,
        })
    }

    /// The original source string.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Names of all `__kernel` functions in the program.
    pub fn kernel_names(&self) -> Vec<String> {
        self.kernels.keys().cloned().collect()
    }

    /// Look up a kernel by name.  The handle's executor (`DCL_INTERP`) and
    /// VM worker-thread count (the host's available parallelism) are
    /// resolved here, once, not on every launch.
    pub fn kernel(&self, name: &str) -> Option<KernelHandle> {
        self.kernels.get(name).map(|idx| KernelHandle {
            unit: Arc::clone(&self.unit),
            compiled: Arc::clone(&self.compiled),
            index: *idx,
            name: name.to_string(),
            mode: ExecMode::from_env(),
            threads: default_threads(),
        })
    }

    /// The parsed translation unit (for inspection by tests and tools).
    pub fn unit(&self) -> &ast::TranslationUnit {
        &self.unit
    }
}

/// A kernel extracted from a built [`Program`] (`clCreateKernel`).  Carries
/// shared references to both the AST (for the tree-walking oracle) and the
/// cached bytecode, so cloning a handle never recompiles anything.
#[derive(Debug, Clone)]
pub struct KernelHandle {
    unit: Arc<ast::TranslationUnit>,
    compiled: Arc<bytecode::CompiledUnit>,
    index: ast::FunctionIndex,
    name: String,
    /// Executor for [`KernelHandle::execute`].
    mode: ExecMode,
    /// VM worker threads for [`KernelHandle::execute_vm`].
    threads: usize,
}

impl KernelHandle {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel's declared parameters.
    pub fn params(&self) -> &[ast::Param] {
        &self.unit.functions[self.index.0].params
    }

    /// Number of declared parameters (`CL_KERNEL_NUM_ARGS`).
    pub fn num_args(&self) -> usize {
        self.params().len()
    }

    /// Whether [`Program::build`] chose the lane executor for this kernel,
    /// so VM launches run its work-items 16 at a time in lockstep (see the
    /// crate docs' execution model).  A launch that binds one buffer to a
    /// loaded and a stored parameter still runs item by item.
    pub fn runs_in_lanes(&self) -> bool {
        self.compiled.kernels[&self.index.0].lanes.is_some()
    }

    /// The most bytecode VM steps one work-item of this kernel can take,
    /// bounded by [`Program::build`]: `Some` only when neither the kernel
    /// nor any helper it calls can jump backward, so no instruction runs
    /// twice in a frame (the kernel's stream length plus its callees'
    /// bounds, summed per call site).  `None` for a kernel that may loop.
    pub fn step_bound(&self) -> Option<u64> {
        self.compiled.kernels[&self.index.0].step_bound
    }

    /// Execute the kernel over `range`, reading and writing the supplied
    /// argument values and buffer bindings.
    ///
    /// Dispatches to the bytecode VM unless `DCL_INTERP=tree` selected the
    /// legacy tree-walking interpreter when [`Program::kernel`] created this
    /// handle.  Returns per-work-item operation counters which the device
    /// model uses to derive modelled execution time.
    pub fn execute(
        &self,
        range: &NdRange,
        args: &[KernelArgValue],
        buffers: &mut [BufferBinding<'_>],
    ) -> Result<WorkItemCounters, CompileError> {
        match self.mode {
            ExecMode::Vm => self.execute_vm(range, args, buffers),
            ExecMode::Tree => self.execute_tree(range, args, buffers),
        }
    }

    /// Execute on the legacy tree-walking interpreter (the differential
    /// oracle).  Rejects kernels that combine `barrier()` with
    /// `__local`-memory writes, which the serial walker would miscompute.
    pub fn execute_tree(
        &self,
        range: &NdRange,
        args: &[KernelArgValue],
        buffers: &mut [BufferBinding<'_>],
    ) -> Result<WorkItemCounters, CompileError> {
        interp::execute_kernel(&self.unit, self.index, range, args, buffers)
    }

    /// Execute on the bytecode VM with the default worker-thread count
    /// (the host's available parallelism), resolved when
    /// [`Program::kernel`] created this handle.
    pub fn execute_vm(
        &self,
        range: &NdRange,
        args: &[KernelArgValue],
        buffers: &mut [BufferBinding<'_>],
    ) -> Result<WorkItemCounters, CompileError> {
        self.execute_vm_with_threads(range, args, buffers, self.threads)
    }

    /// Execute on the bytecode VM fanning work-groups across up to
    /// `threads` host threads.
    pub fn execute_vm_with_threads(
        &self,
        range: &NdRange,
        args: &[KernelArgValue],
        buffers: &mut [BufferBinding<'_>],
        threads: usize,
    ) -> Result<WorkItemCounters, CompileError> {
        vm::execute_kernel(&self.compiled, self.index.0, range, args, buffers, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VEC_ADD: &str = r#"
        __kernel void vec_add(__global const float* a,
                              __global const float* b,
                              __global float* out,
                              uint n) {
            size_t i = get_global_id(0);
            if (i < n) {
                out[i] = a[i] + b[i];
            }
        }
    "#;

    #[test]
    fn build_and_list_kernels() {
        let program = Program::build(VEC_ADD).expect("build");
        assert_eq!(program.kernel_names(), vec!["vec_add".to_string()]);
        let kernel = program.kernel("vec_add").unwrap();
        assert_eq!(kernel.num_args(), 4);
        assert!(program.kernel("missing").is_none());
    }

    #[test]
    fn build_error_produces_log() {
        let log = Program::build("__kernel void broken( {").unwrap_err();
        assert!(!log.messages.is_empty());
        assert!(log.to_string().contains("error"));
    }

    #[test]
    fn kernel_handles_share_the_compiled_program() {
        let program = Program::build(VEC_ADD).unwrap();
        // Handle creation and cloning never recompile: every handle points
        // at the bytecode the one build produced.
        let k1 = program.kernel("vec_add").unwrap();
        let k2 = k1.clone();
        assert!(Arc::ptr_eq(&k1.compiled, &program.compiled));
        assert!(Arc::ptr_eq(&k2.compiled, &program.compiled));
        assert!(Arc::ptr_eq(&k2.unit, &program.unit));
    }

    #[test]
    fn exec_mode_parsing() {
        assert_eq!(ExecMode::parse(None), ExecMode::Vm);
        assert_eq!(ExecMode::parse(Some("vm")), ExecMode::Vm);
        assert_eq!(ExecMode::parse(Some("anything")), ExecMode::Vm);
        assert_eq!(ExecMode::parse(Some("tree")), ExecMode::Tree);
        assert_eq!(ExecMode::parse(Some("TREE")), ExecMode::Tree);
    }

    fn run_vec_add(
        run: impl Fn(
            &KernelHandle,
            &NdRange,
            &[KernelArgValue],
            &mut [BufferBinding<'_>],
        ) -> Result<WorkItemCounters, CompileError>,
    ) {
        let program = Program::build(VEC_ADD).unwrap();
        let kernel = program.kernel("vec_add").unwrap();
        let n = 128usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let mut a_bytes: Vec<u8> = a.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut b_bytes: Vec<u8> = b.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut out_bytes = vec![0u8; n * 4];
        let range = NdRange::linear(n);
        let args = vec![
            KernelArgValue::Buffer(0),
            KernelArgValue::Buffer(1),
            KernelArgValue::Buffer(2),
            KernelArgValue::Scalar(Value::uint(n as u64)),
        ];
        let mut bindings = vec![
            BufferBinding::new(&mut a_bytes),
            BufferBinding::new(&mut b_bytes),
            BufferBinding::new(&mut out_bytes),
        ];
        let counters = run(&kernel, &range, &args, &mut bindings).expect("execute");
        assert_eq!(counters.work_items, n as u64);
        for i in 0..n {
            let v = f32::from_le_bytes(out_bytes[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, (i + 2 * i) as f32);
        }
    }

    /// Straight-line kernels get a step bound that covers what the VM
    /// counts; a loop in the kernel or in a helper it calls, or recursion,
    /// gets none.
    #[test]
    fn step_bound_covers_straight_line_kernels_and_refuses_loops() {
        const INC: &str = "__kernel void inc(__global uint* c, uint k) { c[0] = c[0] + k; }";
        const TOUCH: &str = "__kernel void touch(__global const uchar* s, __global uint* out, \
                             uint at) { out[0] = s[at]; }";
        const CLIP: &str = "int twice(int v) { return v < 0 ? 0 : 2 * v; } \
            __kernel void clip(__global int* a) { size_t i = get_global_id(0); \
            if (a[i] > 3) { a[i] = twice(a[i]) + twice(1); } else { a[i] = -a[i]; } }";
        let loops = [
            "__kernel void k(__global int* a) { for (int i = 0; i < 4; i++) { a[i] = i; } }",
            "__kernel void k(__global int* a) { int i = 0; while (i < 4) { a[i] = i; i++; } }",
            "__kernel void k(__global int* a) { int i = 0; do { a[i] = i; i++; } while (i < 4); }",
            "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; } \
             __kernel void k(__global int* a) { a[0] = sum(a[1]); }",
            "int inner(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; } \
             int outer(int n) { return inner(n) + 1; } \
             __kernel void k(__global int* a) { a[0] = outer(a[1]); }",
            "int down(int n) { return n > 0 ? down(n - 1) : 0; } \
             __kernel void k(__global int* a) { a[0] = down(a[1]); }",
        ];
        for source in loops {
            let program = Program::build(source).unwrap();
            assert_eq!(program.kernel("k").unwrap().step_bound(), None, "{source}");
        }

        // The bound times the work-items is at least what the VM counts.
        let check = |source: &str, name: &str, n: usize, args: Vec<KernelArgValue>| {
            let kernel = Program::build(source).unwrap().kernel(name).unwrap();
            let bound = kernel.step_bound().unwrap_or_else(|| panic!("{name}: no bound"));
            let mut a: Vec<u8> = (0..n as i32).flat_map(|v| (v - 8).to_le_bytes()).collect();
            let mut b = vec![7u8; 4];
            let mut bindings = vec![BufferBinding::new(&mut a), BufferBinding::new(&mut b)];
            let counters = kernel.execute_vm(&NdRange::linear(n), &args, &mut bindings).unwrap();
            assert!(counters.steps > 0, "{name}");
            assert!(bound * n as u64 >= counters.steps, "{name}: {bound} x {n} < {counters:?}");
        };
        check(
            INC,
            "inc",
            1,
            vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(3))],
        );
        let touch = vec![
            KernelArgValue::Buffer(1),
            KernelArgValue::Buffer(0),
            KernelArgValue::Scalar(Value::uint(2)),
        ];
        check(TOUCH, "touch", 1, touch);
        check(CLIP, "clip", 64, vec![KernelArgValue::Buffer(0)]);
    }

    #[test]
    fn vec_add_executes() {
        run_vec_add(|k, r, a, b| k.execute(r, a, b));
    }

    #[test]
    fn vec_add_executes_on_tree_walker() {
        run_vec_add(|k, r, a, b| k.execute_tree(r, a, b));
    }

    #[test]
    fn vec_add_executes_on_parallel_vm() {
        run_vec_add(|k, r, a, b| k.execute_vm_with_threads(r, a, b, 4));
    }
}
