//! Kernel objects and the kernel execution path shared by command queues.

use crate::buffer::Buffer;
use crate::error::{ClError, Result};
use crate::program::{built_in_kernel, Program};
use oclc::{BufferBinding, KernelArgValue, NdRange, Value, WorkItemCounters};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// A kernel argument as set by `clSetKernelArg`.
#[derive(Debug, Clone)]
pub enum KernelArg {
    /// A scalar or vector passed by value.
    Scalar(Value),
    /// A buffer memory object.
    Buffer(Arc<Buffer>),
    /// `__local` memory of the given size in bytes.
    Local(usize),
}

/// A kernel object (`cl_kernel`).
pub struct Kernel {
    id: u64,
    program: Arc<Program>,
    name: String,
    /// Compiled handle resolved once at `clCreateKernel` time (source
    /// programs only).  Launches execute through this cached handle, so they
    /// never re-parse, re-sema, or re-lower the program source.
    handle: Option<oclc::KernelHandle>,
    declared_args: Option<usize>,
    args: Mutex<Vec<Option<KernelArg>>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl Kernel {
    pub(crate) fn new(
        program: Arc<Program>,
        name: &str,
        handle: Option<oclc::KernelHandle>,
    ) -> Arc<Kernel> {
        let declared_args = handle.as_ref().map(|h| h.num_args());
        Arc::new(Kernel {
            id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
            program,
            name: name.to_string(),
            handle,
            declared_args,
            args: Mutex::new(match declared_args {
                Some(n) => vec![None; n],
                None => Vec::new(),
            }),
        })
    }

    /// Unique kernel id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Kernel function name (`CL_KERNEL_FUNCTION_NAME`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Declared argument count (`CL_KERNEL_NUM_ARGS`), if known.
    pub fn num_args(&self) -> Option<usize> {
        self.declared_args
    }

    /// `clSetKernelArg`.
    pub fn set_arg(&self, index: usize, arg: KernelArg) -> Result<()> {
        let mut args = self.args.lock();
        if let Some(n) = self.declared_args {
            if index >= n {
                return Err(ClError::InvalidValue(format!(
                    "argument index {index} out of range (kernel '{}' has {n} arguments)",
                    self.name
                )));
            }
        } else if index >= args.len() {
            args.resize(index + 1, None);
        }
        args[index] = Some(arg);
        Ok(())
    }

    /// Snapshot of the currently set arguments; errors if any is missing.
    pub fn args_snapshot(&self) -> Result<Vec<KernelArg>> {
        let args = self.args.lock();
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            match a {
                Some(a) => out.push(a.clone()),
                None => {
                    return Err(ClError::InvalidKernelArgs(format!(
                        "argument {i} of kernel '{}' has not been set",
                        self.name
                    )))
                }
            }
        }
        Ok(out)
    }

    /// The most VM steps a launch over `range` can take, when its build
    /// bounded them ([`oclc::KernelHandle::step_bound`]): the bound of one
    /// work-item times the work-items.  `None` for a built-in kernel, a
    /// kernel that may loop, or a product past `u64`.
    pub fn step_bound(&self, range: &NdRange) -> Option<u64> {
        let per_item = self.handle.as_ref()?.step_bound()?;
        range.global.iter().try_fold(per_item, |steps, &g| steps.checked_mul(g.max(1) as u64))
    }

    /// Execute the kernel over `range` on the calling thread.
    ///
    /// Returns the work-item counters and whether the interpreted path was
    /// used (`true`) or a built-in native kernel (`false`); the caller uses
    /// this to pick the right compute model.
    pub fn execute(&self, range: &NdRange) -> Result<(WorkItemCounters, bool)> {
        let args = self.args_snapshot()?;

        // Deduplicate buffers so that a buffer bound to two arguments is only
        // locked once (locking the same buffer twice would deadlock).
        let mut unique: Vec<Arc<Buffer>> = Vec::new();
        let mut arg_values: Vec<KernelArgValue> = Vec::with_capacity(args.len());
        for arg in &args {
            match arg {
                KernelArg::Scalar(v) => arg_values.push(KernelArgValue::Scalar(v.clone())),
                KernelArg::Local(bytes) => arg_values.push(KernelArgValue::Local(*bytes)),
                KernelArg::Buffer(b) => {
                    let idx = unique.iter().position(|u| Arc::ptr_eq(u, b)).unwrap_or_else(|| {
                        unique.push(Arc::clone(b));
                        unique.len() - 1
                    });
                    arg_values.push(KernelArgValue::Buffer(idx));
                }
            }
        }

        let mut guards: Vec<_> = unique.iter().map(|b| b.lock_data()).collect();
        let mut bindings: Vec<BufferBinding<'_>> =
            guards.iter_mut().map(|g| BufferBinding::new(g)).collect();

        if self.program.is_built_in() {
            let f = built_in_kernel(&self.name).ok_or_else(|| {
                ClError::InvalidKernelName(format!("built-in kernel '{}' vanished", self.name))
            })?;
            let counters =
                f(range, &arg_values, &mut bindings).map_err(ClError::ExecutionFailure)?;
            Ok((counters, false))
        } else {
            let handle = self
                .handle
                .as_ref()
                .ok_or_else(|| ClError::InvalidOperation("program is not built".into()))?;
            let counters = handle
                .execute(range, &arg_values, &mut bindings)
                .map_err(|e| ClError::ExecutionFailure(e.to_string()))?;
            Ok((counters, true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::context::Context;
    use crate::device::{Device, DeviceType};
    use crate::profile::DeviceProfile;
    use crate::program::register_built_in_kernel;

    fn ctx() -> Arc<Context> {
        Context::new(vec![Device::new(DeviceType::Cpu, DeviceProfile::test_device("d"))]).unwrap()
    }

    #[test]
    fn interpreted_kernel_executes_with_buffers() {
        let context = ctx();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void fill(__global int* out, int v) { out[get_global_id(0)] = v; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("fill").unwrap();
        let buffer = Buffer::new(Arc::clone(&context), 4 * 8, MemFlags::READ_WRITE, None).unwrap();
        kernel.set_arg(0, KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        kernel.set_arg(1, KernelArg::Scalar(Value::int(7))).unwrap();
        let per_item = kernel.step_bound(&NdRange::linear(1)).unwrap();
        assert_eq!(kernel.step_bound(&NdRange::two_d(8, 3)), Some(per_item * 24));
        assert_eq!(kernel.step_bound(&NdRange::two_d(usize::MAX, usize::MAX)), None);
        let (counters, interpreted) = kernel.execute(&NdRange::linear(8)).unwrap();
        assert!(interpreted);
        assert_eq!(counters.work_items, 8);
        let bytes = buffer.read(0, 32).unwrap();
        for chunk in bytes.chunks_exact(4) {
            assert_eq!(i32::from_le_bytes(chunk.try_into().unwrap()), 7);
        }
    }

    #[test]
    fn missing_argument_is_reported() {
        let context = ctx();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void fill(__global int* out, int v) { out[get_global_id(0)] = v; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("fill").unwrap();
        let err = kernel.execute(&NdRange::linear(1)).unwrap_err();
        assert!(matches!(err, ClError::InvalidKernelArgs(_)));
    }

    #[test]
    fn arg_index_out_of_range_is_rejected() {
        let context = ctx();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void one(__global int* out) { out[0] = 1; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("one").unwrap();
        assert!(kernel.set_arg(5, KernelArg::Local(16)).is_err());
        assert_eq!(kernel.num_args(), Some(1));
    }

    #[test]
    fn same_buffer_bound_twice_does_not_deadlock() {
        let context = ctx();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void addself(__global int* a, __global int* b) { size_t i = get_global_id(0); a[i] = a[i] + b[i]; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("addself").unwrap();
        let buffer = Buffer::new(
            Arc::clone(&context),
            16,
            MemFlags::READ_WRITE,
            Some(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0]),
        )
        .unwrap();
        kernel.set_arg(0, KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        kernel.set_arg(1, KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        kernel.execute(&NdRange::linear(4)).unwrap();
        let out = buffer.read(0, 16).unwrap();
        let values: Vec<i32> =
            out.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(values, vec![2, 4, 6, 8]);
    }

    #[test]
    fn built_in_kernel_executes_natively() {
        register_built_in_kernel(
            "unit_test_double",
            Arc::new(|range, args, bufs| {
                let KernelArgValue::Buffer(idx) = args[0] else {
                    return Err("expected buffer".into());
                };
                let n = range.total_items();
                // Interpret the binding as i32 and double each element.
                let _ = idx;
                let buf = &mut bufs[0];
                let len = buf.len();
                let _ = len;
                // BufferBinding has no direct accessor; use a scratch kernel
                // counters result only — the real workloads mutate through
                // load/store helpers in their own crates.
                Ok(WorkItemCounters {
                    work_items: n as u64,
                    ops: (n * 2) as u64,
                    ..Default::default()
                })
            }),
        );
        let context = ctx();
        let program =
            Program::with_built_in_kernels(Arc::clone(&context), "unit_test_double").unwrap();
        let kernel = program.create_kernel("unit_test_double").unwrap();
        let buffer = Buffer::new(Arc::clone(&context), 16, MemFlags::READ_WRITE, None).unwrap();
        kernel.set_arg(0, KernelArg::Buffer(buffer)).unwrap();
        assert_eq!(kernel.step_bound(&NdRange::linear(4)), None, "a built-in kernel is unbounded");
        let (counters, interpreted) = kernel.execute(&NdRange::linear(4)).unwrap();
        assert!(!interpreted);
        assert_eq!(counters.work_items, 4);
        assert_eq!(counters.ops, 8);
    }
}
