//! The handful of OpenCL operations the workloads issue, over two
//! implementations: the dOpenCL client driver (through daemons over TCP)
//! and `vocl` called directly, the zero-middleware reference.  Each
//! workload's round is written once against [`Api`], so both runners issue
//! exactly the same operation sequence.
//!
//! Every call is wrapped in a span named after the crate it enters
//! (`client.*` or `vocl.*`); spans cost nothing unless the run is traced.

use crate::trace::span;
use std::sync::Arc;
use vocl::NdRange;

pub type Res<T> = Result<T, String>;

pub trait Api {
    type Queue;
    type Buffer;
    type Kernel;
    type Event;

    /// Blocking write of `data` at `offset`.
    fn write(q: &Self::Queue, b: &Self::Buffer, offset: usize, data: &[u8]) -> Res<()>;
    /// Blocking read of the whole buffer.
    fn read(q: &Self::Queue, b: &Self::Buffer) -> Res<Vec<u8>>;
    /// Asynchronous launch; `reads_only` names a buffer the kernel only
    /// reads (a coherence hint the reference ignores).
    fn launch(
        q: &Self::Queue,
        k: &Self::Kernel,
        range: NdRange,
        reads_only: Option<&Self::Buffer>,
    ) -> Res<Self::Event>;
    /// Block until every event completed.
    fn wait(events: &[Self::Event]) -> Res<()>;
    /// Block until everything enqueued on `q` completed.
    fn finish(q: &Self::Queue) -> Res<()>;
}

/// The dOpenCL client driver.
pub struct Dcl;

impl Api for Dcl {
    type Queue = dopencl::CommandQueue;
    type Buffer = dopencl::Buffer;
    type Kernel = dopencl::Kernel;
    type Event = dopencl::Event;

    fn write(q: &Self::Queue, b: &Self::Buffer, offset: usize, data: &[u8]) -> Res<()> {
        span("client.write", || q.write_buffer(b, data).at_offset(offset).blocking().submit())
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn read(q: &Self::Queue, b: &Self::Buffer) -> Res<Vec<u8>> {
        span("client.read", || q.read_buffer(b).submit())
            .map(|(data, _)| data)
            .map_err(|e| e.to_string())
    }

    fn launch(
        q: &Self::Queue,
        k: &Self::Kernel,
        range: NdRange,
        reads_only: Option<&Self::Buffer>,
    ) -> Res<Self::Event> {
        span("client.submit", || match reads_only {
            Some(b) => q.launch(k, range).reads_only(b).submit(),
            None => q.launch(k, range).submit(),
        })
        .map_err(|e| e.to_string())
    }

    fn wait(events: &[Self::Event]) -> Res<()> {
        span("client.finish", || dopencl::Event::wait_all(events)).map_err(|e| e.to_string())
    }

    fn finish(q: &Self::Queue) -> Res<()> {
        span("client.finish", || q.finish()).map_err(|e| e.to_string())
    }
}

/// `vocl` called directly.
pub struct Vocl;

impl Api for Vocl {
    type Queue = Arc<vocl::CommandQueue>;
    type Buffer = Arc<vocl::Buffer>;
    type Kernel = Arc<vocl::Kernel>;
    type Event = Arc<vocl::Event>;

    fn write(q: &Self::Queue, b: &Self::Buffer, offset: usize, data: &[u8]) -> Res<()> {
        span("vocl.write", || q.enqueue_write_buffer(b, offset, data.to_vec(), Vec::new())?.wait())
            .map_err(|e| e.to_string())
    }

    fn read(q: &Self::Queue, b: &Self::Buffer) -> Res<Vec<u8>> {
        span("vocl.read", || q.read_buffer_blocking(b, 0, b.size())).map_err(|e| e.to_string())
    }

    fn launch(
        q: &Self::Queue,
        k: &Self::Kernel,
        range: NdRange,
        _reads_only: Option<&Self::Buffer>,
    ) -> Res<Self::Event> {
        span("vocl.submit", || q.enqueue_nd_range_kernel(k, range, Vec::new()))
            .map_err(|e| e.to_string())
    }

    fn wait(events: &[Self::Event]) -> Res<()> {
        span("vocl.finish", || vocl::wait_for_events(events)).map_err(|e| e.to_string())
    }

    fn finish(q: &Self::Queue) -> Res<()> {
        span("vocl.finish", || q.finish()).map_err(|e| e.to_string())
    }
}

/// Build `source` on `vocl` and create one kernel `name` per argument list.
pub fn vocl_kernels(
    context: &Arc<vocl::Context>,
    source: &str,
    name: &str,
    args: Vec<Vec<vocl::KernelArg>>,
) -> Res<Vec<Arc<vocl::Kernel>>> {
    let program = vocl::Program::with_source(Arc::clone(context), source);
    program.build().map_err(|e| e.to_string())?;
    args.into_iter()
        .map(|args| {
            let kernel = program.create_kernel(name).map_err(|e| e.to_string())?;
            for (i, arg) in args.into_iter().enumerate() {
                kernel.set_arg(i, arg).map_err(|e| e.to_string())?;
            }
            Ok(kernel)
        })
        .collect()
}

/// Build `source` through dOpenCL and create one kernel `name` per
/// argument list.
pub fn dcl_kernels(
    context: &dopencl::Context,
    source: &str,
    name: &str,
    args: Vec<Vec<dopencl::Arg>>,
) -> Res<Vec<dopencl::Kernel>> {
    let program = context.create_program_with_source(source).map_err(|e| e.to_string())?;
    program.build().map_err(|e| e.to_string())?;
    args.into_iter()
        .map(|args| {
            let kernel = program.create_kernel(name).map_err(|e| e.to_string())?;
            for (i, arg) in args.into_iter().enumerate() {
                kernel.set_arg(i as u32, arg).map_err(|e| e.to_string())?;
            }
            Ok(kernel)
        })
        .collect()
}

/// A fresh `vocl` context over `devices` test devices, with one queue per
/// device.
pub fn vocl_context(devices: usize) -> Res<(Arc<vocl::Context>, Vec<Arc<vocl::CommandQueue>>)> {
    let platform = vocl::Platform::test_platform(devices);
    let context = vocl::Context::new(platform.devices().to_vec()).map_err(|e| e.to_string())?;
    let queues = platform
        .devices()
        .iter()
        .map(|d| {
            vocl::CommandQueue::new(
                Arc::clone(&context),
                Arc::clone(d),
                vocl::QueueProperties::default(),
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Res<Vec<_>>>()?;
    Ok((context, queues))
}

/// A `vocl` read-write buffer of `size` bytes.
pub fn vocl_buffer(context: &Arc<vocl::Context>, size: usize) -> Res<Arc<vocl::Buffer>> {
    vocl::Buffer::new(Arc::clone(context), size, vocl::MemFlags::READ_WRITE, None)
        .map_err(|e| e.to_string())
}
