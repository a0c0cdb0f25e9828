//! # vocl — a virtual OpenCL runtime
//!
//! dOpenCL is a *meta-implementation* of OpenCL: the daemon on every server
//! forwards the client's API calls to the server's **native OpenCL
//! implementation** (AMD APP, NVIDIA CUDA, ...).  This crate is that native
//! implementation for the reproduction: a from-scratch OpenCL-style runtime
//! exposing the same object model —
//!
//! * [`Platform`] → [`Device`] (with performance profiles standing in for
//!   the paper's hardware),
//! * [`Context`], [`Buffer`] memory objects, [`Program`]s built from OpenCL C
//!   source (via the `oclc` interpreter) or from registered *built-in*
//!   native kernels, [`Kernel`]s with `clSetKernelArg`-style argument
//!   binding,
//! * in-order [`CommandQueue`]s with one worker thread per queue,
//! * [`Event`]s with statuses, wait lists, completion callbacks and user
//!   events (the building blocks of dOpenCL's consistency protocols).
//!
//! Every completed event reports a **modelled duration** derived from the
//! device's [`profile::ComputeModel`] and [`profile::BusModel`], so that the
//! evaluation harnesses reproduce the *shape* of the paper's measurements on
//! any machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod context;
pub mod device;
pub mod error;
pub mod event;
pub mod kernel;
pub mod platform;
pub mod profile;
pub mod program;
pub mod queue;

pub use buffer::{Buffer, MemFlags};
pub use context::Context;
pub use device::{Device, DeviceInfoParam, DeviceInfoValue, DeviceType};
pub use error::{ClError, Result};
pub use event::{wait_for_events, CommandType, Event, EventStatus};
pub use kernel::{Kernel, KernelArg};
pub use platform::Platform;
pub use profile::{BusModel, ComputeModel, DeviceProfile};
pub use program::{
    built_in_kernel, built_in_kernel_names, register_built_in_kernel, BuiltInKernelFn, Program,
};
pub use queue::{CommandQueue, QueueProperties, ReadSink, Work, WriteSource};

// Re-export the kernel-language types that appear in this crate's public API.
pub use oclc::{BufferBinding, KernelArgValue, NdRange, Value, WorkItemCounters};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// End-to-end smoke test exercising the whole runtime stack the way an
    /// OpenCL application would.
    #[test]
    fn end_to_end_saxpy() {
        let platform = Platform::test_platform(1);
        let device = Arc::clone(&platform.devices()[0]);
        let context = Context::new(vec![Arc::clone(&device)]).unwrap();
        let queue =
            CommandQueue::new(Arc::clone(&context), device, QueueProperties::default()).unwrap();

        let n = 256usize;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        let x_bytes: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
        let y_bytes: Vec<u8> = y.iter().flat_map(|v| v.to_le_bytes()).collect();

        let bx = Buffer::new(Arc::clone(&context), n * 4, MemFlags::READ_ONLY, None).unwrap();
        let by = Buffer::new(Arc::clone(&context), n * 4, MemFlags::READ_WRITE, None).unwrap();
        queue.enqueue_write_buffer(&bx, 0, x_bytes, Vec::new()).unwrap();
        queue.enqueue_write_buffer(&by, 0, y_bytes, Vec::new()).unwrap();

        let program = Program::with_source(
            Arc::clone(&context),
            r#"
            __kernel void saxpy(float a, __global const float* x, __global float* y, uint n) {
                size_t i = get_global_id(0);
                if (i < n) {
                    y[i] = a * x[i] + y[i];
                }
            }
            "#,
        );
        program.build().unwrap();
        let kernel = program.create_kernel("saxpy").unwrap();
        kernel.set_arg(0, KernelArg::Scalar(Value::float(2.0))).unwrap();
        kernel.set_arg(1, KernelArg::Buffer(Arc::clone(&bx))).unwrap();
        kernel.set_arg(2, KernelArg::Buffer(Arc::clone(&by))).unwrap();
        kernel.set_arg(3, KernelArg::Scalar(Value::uint(n as u64))).unwrap();

        let launch =
            queue.enqueue_nd_range_kernel(&kernel, NdRange::linear(n), Vec::new()).unwrap();
        launch.wait().unwrap();

        let out = queue.read_buffer_blocking(&by, 0, n * 4).unwrap();
        for (i, chunk) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, 2.0 * x[i] + y[i]);
        }
    }
}
