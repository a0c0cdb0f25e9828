//! In-order command queues with a worker thread per queue.
//!
//! Commands (`clEnqueue*`) execute in submission order, honouring
//! per-command wait lists, and complete their events.  They are pushed to a
//! per-queue worker thread, except a command submitted through
//! [`CommandQueue::enqueue`] with `inline` that finds nothing ahead of it:
//! that one runs on the calling thread, through the same executor, before
//! the enqueue returns.  Which commands are cheap enough to run that way is
//! the caller's choice.
//!
//! A read hands its bytes to a [`ReadSink`] in place, under the buffer's
//! data lock, before its event turns terminal; a read with no sink keeps a
//! copy as the event's result.  A write takes its bytes the same way, from
//! a [`WriteSource`] that fills the destination range in place.
//!
//! Every completed event carries the *modelled* duration of its command
//! (derived from the device's compute and bus models) so the dOpenCL layer
//! and the figure harnesses can account simulated time without depending
//! on wall-clock speed of the machine running the reproduction.

use crate::buffer::Buffer;
use crate::context::Context;
use crate::device::Device;
use crate::error::{ClError, Result};
use crate::event::{CommandType, Event, EventStatus};
use crate::kernel::Kernel;
use crossbeam_channel::{unbounded, Sender};
use oclc::NdRange;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

static NEXT_QUEUE_ID: AtomicU64 = AtomicU64::new(1);

/// Where a read's bytes go: called once with the bytes read, while the
/// buffer's data lock is held and before the read's event turns terminal.
/// A read that fails does not call it.
pub type ReadSink = Box<dyn FnOnce(&[u8]) + Send>;

/// Where a write's bytes come from: called once with the destination
/// range, while the buffer's data lock is held and before the write's
/// event turns terminal; an error it returns fails the write.  A write out
/// of bounds does not call it.  It is dropped with the command, once the
/// event is terminal, so what it owns is freed then.
pub type WriteSource = Box<dyn FnMut(&mut [u8]) -> Result<()> + Send>;

/// Properties of a command queue (`CL_QUEUE_PROPERTIES`), reduced to the
/// flags relevant here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueProperties {
    /// `CL_QUEUE_PROFILING_ENABLE`: record modelled durations on events.
    /// Always honoured; kept for API fidelity.
    pub profiling: bool,
    /// `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE`: accepted but executed
    /// in-order (allowed by the OpenCL specification).
    pub out_of_order: bool,
}

/// What one command does, as [`CommandQueue::enqueue`] takes it.
pub enum Work {
    /// `clEnqueueWriteBuffer`: fill `len` bytes of `buffer` at `offset`
    /// from `source` ([`Work::write`] copies a `Vec`).
    Write {
        /// The buffer written.
        buffer: Arc<Buffer>,
        /// Byte offset of the write.
        offset: usize,
        /// Bytes written.
        len: usize,
        /// Where the bytes come from.
        source: WriteSource,
    },
    /// `clEnqueueReadBuffer`: hand `len` bytes of `buffer` at `offset` to
    /// `sink`, or with none, keep a copy as the event's result
    /// ([`Event::take_result`]).
    Read {
        /// The buffer read.
        buffer: Arc<Buffer>,
        /// Byte offset of the read.
        offset: usize,
        /// Bytes read.
        len: usize,
        /// Where the bytes go.
        sink: Option<ReadSink>,
    },
    /// `clEnqueueCopyBuffer`.
    Copy {
        /// The buffer read.
        src: Arc<Buffer>,
        /// The buffer written.
        dst: Arc<Buffer>,
        /// Byte offset in `src`.
        src_offset: usize,
        /// Byte offset in `dst`.
        dst_offset: usize,
        /// Bytes copied.
        len: usize,
    },
    /// `clEnqueueNDRangeKernel`.
    NdRange {
        /// The kernel launched, with the arguments it holds at execution.
        kernel: Arc<Kernel>,
        /// The index space.
        range: NdRange,
    },
    /// `clEnqueueMarkerWithWaitList`: completes once its wait list has,
    /// doing no work.
    Marker,
}

impl Work {
    /// A write of `data` into `buffer` at `offset`.
    pub fn write(buffer: Arc<Buffer>, offset: usize, data: Vec<u8>) -> Work {
        let len = data.len();
        let source = Box::new(move |dest: &mut [u8]| {
            dest.copy_from_slice(&data);
            Ok(())
        });
        Work::Write { buffer, offset, len, source }
    }

    fn command_type(&self) -> CommandType {
        match self {
            Work::Write { .. } => CommandType::WriteBuffer,
            Work::Read { .. } => CommandType::ReadBuffer,
            Work::Copy { .. } => CommandType::CopyBuffer,
            Work::NdRange { .. } => CommandType::NdRangeKernel,
            Work::Marker => CommandType::Marker,
        }
    }
}

/// A submitted command: its work, what it waits on, and its event.
struct Command {
    work: Work,
    wait_list: Vec<Arc<Event>>,
    event: Arc<Event>,
}

/// An in-order command queue (`cl_command_queue`).
pub struct CommandQueue {
    id: u64,
    device: Arc<Device>,
    context: Arc<Context>,
    properties: QueueProperties,
    /// Commands for the worker; `None` shuts it down.
    tx: Sender<Option<Command>>,
    depth: Arc<AtomicUsize>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// The event of the last submitted command.  Its lock is the submit
    /// lock: it covers an inline submission's idle check and its run, so no
    /// concurrent submission can overtake the command.
    last: Mutex<Option<Arc<Event>>>,
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandQueue")
            .field("id", &self.id)
            .field("device", &self.device.name())
            .finish()
    }
}

impl CommandQueue {
    /// `clCreateCommandQueue`.
    pub fn new(
        context: Arc<Context>,
        device: Arc<Device>,
        properties: QueueProperties,
    ) -> Result<Arc<CommandQueue>> {
        if !context.contains_device(&device) {
            return Err(ClError::InvalidContext(format!(
                "device '{}' is not part of the context",
                device.name()
            )));
        }
        let (tx, rx) = unbounded::<Option<Command>>();
        let depth = Arc::new(AtomicUsize::new(0));
        let worker_device = Arc::clone(&device);
        let worker_depth = Arc::clone(&depth);
        let worker = std::thread::Builder::new()
            .name(format!("vocl-queue-{}", device.name()))
            .spawn(move || {
                while let Ok(Some(command)) = rx.recv() {
                    worker_depth.fetch_sub(1, Ordering::AcqRel);
                    execute_command(&worker_device, command);
                }
            })
            .map_err(|e| ClError::OutOfResources(format!("cannot spawn queue worker: {e}")))?;
        Ok(Arc::new(CommandQueue {
            id: NEXT_QUEUE_ID.fetch_add(1, Ordering::Relaxed),
            device,
            context,
            properties,
            tx,
            depth,
            worker: Mutex::new(Some(worker)),
            last: Mutex::new(None),
        }))
    }

    /// Unique queue id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The device this queue feeds.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<Context> {
        &self.context
    }

    /// The queue properties it was created with.
    pub fn properties(&self) -> QueueProperties {
        self.properties
    }

    /// Submit `work` to run once every event of `wait_list` has completed,
    /// and return its event.  It goes to the queue's worker, unless
    /// `inline` is set and it finds the queue idle (the last submitted
    /// command is terminal) and every wait-list event `Complete`: then it
    /// runs on the calling thread, and its event is terminal when this
    /// returns.  An `inline` command that finds work ahead of it, or a
    /// wait-list event pending or failed, is queued behind that work as
    /// usual.
    pub fn enqueue(
        &self,
        work: Work,
        wait_list: Vec<Arc<Event>>,
        inline: bool,
    ) -> Result<Arc<Event>> {
        let event = Event::new(work.command_type());
        let command = Command { work, wait_list, event: Arc::clone(&event) };
        let mut last = self.last.lock();
        event.set_status(EventStatus::Submitted);
        if inline && ready_for(&last, &command.wait_list) {
            execute_command(&self.device, command);
        } else {
            self.depth.fetch_add(1, Ordering::AcqRel);
            if self.tx.send(Some(command)).is_err() {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                return Err(ClError::QueueShutDown);
            }
        }
        *last = Some(Arc::clone(&event));
        Ok(event)
    }

    /// Run `work` on the calling thread, as an `inline` [`enqueue`] does,
    /// if it finds the queue idle and every event of `wait_list` `Complete`,
    /// and return its terminal event; else hand `work` back unsubmitted.
    /// The check and the run hold the queue's submission lock throughout,
    /// so no other submission comes between them.
    ///
    /// [`enqueue`]: CommandQueue::enqueue
    pub fn try_inline(
        &self,
        work: Work,
        wait_list: &[Arc<Event>],
    ) -> std::result::Result<Arc<Event>, Work> {
        let mut last = self.last.lock();
        if !ready_for(&last, wait_list) {
            return Err(work);
        }
        let event = Event::new(work.command_type());
        event.set_status(EventStatus::Submitted);
        let wait_list = wait_list.to_vec();
        execute_command(&self.device, Command { work, wait_list, event: Arc::clone(&event) });
        *last = Some(Arc::clone(&event));
        Ok(event)
    }

    /// `clEnqueueWriteBuffer` (non-blocking; the returned event completes
    /// when the data has been copied to the buffer).
    pub fn enqueue_write_buffer(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        data: Vec<u8>,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        self.enqueue(Work::write(Arc::clone(buffer), offset, data), wait_list, false)
    }

    /// `clEnqueueReadBuffer` (non-blocking; the data is available from
    /// [`Event::take_result`] once the event completes).
    pub fn enqueue_read_buffer(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        let work = Work::Read { buffer: Arc::clone(buffer), offset, len, sink: None };
        self.enqueue(work, wait_list, false)
    }

    /// Blocking read helper: enqueue, wait, return the data.
    pub fn read_buffer_blocking(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>> {
        let event = self.enqueue_read_buffer(buffer, offset, len, Vec::new())?;
        event.wait()?;
        event
            .take_result()
            .ok_or_else(|| ClError::InvalidOperation("read event carried no data".into()))
    }

    /// `clEnqueueCopyBuffer`.
    pub fn enqueue_copy_buffer(
        &self,
        src: &Arc<Buffer>,
        dst: &Arc<Buffer>,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        let (src, dst) = (Arc::clone(src), Arc::clone(dst));
        self.enqueue(Work::Copy { src, dst, src_offset, dst_offset, len }, wait_list, false)
    }

    /// `clEnqueueNDRangeKernel`.
    pub fn enqueue_nd_range_kernel(
        &self,
        kernel: &Arc<Kernel>,
        range: NdRange,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        self.enqueue(Work::NdRange { kernel: Arc::clone(kernel), range }, wait_list, false)
    }

    /// `clEnqueueMarkerWithWaitList`.
    pub fn enqueue_marker(&self, wait_list: Vec<Arc<Event>>) -> Result<Arc<Event>> {
        self.enqueue(Work::Marker, wait_list, false)
    }

    /// `clFlush` (a no-op: commands are handed to the worker immediately).
    ///
    /// Client-side batching lives a layer above: the dOpenCL client driver
    /// accumulates commands and ships them as one `EnqueueBatch` request;
    /// by the time the daemon replays them here they are already "flushed"
    /// in the OpenCL sense and only queue-depth remains.
    pub fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Number of commands handed to the queue but not yet picked up by the
    /// worker thread (a lower bound on outstanding work: the command the
    /// worker is currently executing or blocking on is not counted).
    pub fn pending_commands(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// `clFinish`: block until every previously enqueued command completes.
    pub fn finish(&self) -> Result<()> {
        let marker = self.enqueue_marker(Vec::new())?;
        marker.wait()
    }
}

impl Drop for CommandQueue {
    fn drop(&mut self) {
        let _ = self.tx.send(None);
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Whether the queue whose last submitted command is `last` is idle and
/// every event of `wait_list` `Complete` (see [`CommandQueue::enqueue`]).
fn ready_for(last: &Option<Arc<Event>>, wait_list: &[Arc<Event>]) -> bool {
    last.as_ref().is_none_or(|e| e.status().is_terminal())
        && wait_list.iter().all(|e| e.status() == EventStatus::Complete)
}

fn wait_for_list(wait_list: &[Arc<Event>]) -> std::result::Result<(), i32> {
    for e in wait_list {
        match e.wait() {
            Ok(()) => {}
            Err(_) => return Err(EventStatus::Error(-14).code()),
        }
    }
    Ok(())
}

/// Run `command` once its wait list has completed, and complete its event
/// with the work's modelled duration, or fail it.
fn execute_command(device: &Arc<Device>, command: Command) {
    // The work is borrowed, so what it owns (a write's data) is freed only
    // once the event is terminal: freeing 128 MiB costs milliseconds.
    let Command { mut work, wait_list, event } = command;
    if let Err(code) = wait_for_list(&wait_list) {
        event.set_error(code);
        return;
    }
    event.set_status(EventStatus::Running);
    let bus = &device.profile().bus;
    let modeled = match &mut work {
        Work::Write { buffer, offset, len, source } => {
            buffer.write_with(*offset, *len, source).map(|()| bus.write_time(*len as u64))
        }
        Work::Read { buffer, offset, len, sink } => {
            let sink = sink.take().unwrap_or_else(|| {
                let result = Arc::clone(&event);
                Box::new(move |bytes| result.set_result(bytes.to_vec()))
            });
            buffer.read_with(*offset, *len, sink).map(|()| bus.read_time(*len as u64))
        }
        Work::Copy { src, dst, src_offset, dst_offset, len } => {
            // A device-internal copy moves data once over the bus.
            let copied = src.read(*src_offset, *len).and_then(|data| dst.write(*dst_offset, &data));
            copied.map(|()| bus.write_time(*len as u64))
        }
        Work::NdRange { kernel, range } => kernel.execute(range).map(|(counters, interpreted)| {
            let compute = &device.profile().compute;
            let modeled: Duration = if interpreted {
                compute.interp_time(counters.steps)
            } else {
                compute.native_time(counters.ops as f64)
            };
            event.set_counters(counters);
            modeled
        }),
        Work::Marker => Ok(Duration::ZERO),
    };
    match modeled {
        Ok(modeled) => {
            event.set_modeled(modeled);
            event.set_complete();
        }
        Err(e) => event.set_error(e.code()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::device::DeviceType;
    use crate::kernel::KernelArg;
    use crate::profile::DeviceProfile;
    use crate::program::Program;

    fn setup() -> (Arc<Context>, Arc<Device>, Arc<CommandQueue>) {
        let device = Device::new(DeviceType::Cpu, DeviceProfile::test_device("q"));
        let context = Context::new(vec![Arc::clone(&device)]).unwrap();
        let queue = CommandQueue::new(
            Arc::clone(&context),
            Arc::clone(&device),
            QueueProperties::default(),
        )
        .unwrap();
        (context, device, queue)
    }

    /// A sink that keeps the bytes it is handed, and where it keeps them.
    fn kept() -> (ReadSink, Arc<Mutex<Option<Vec<u8>>>>) {
        let kept = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&kept);
        (Box::new(move |bytes: &[u8]| *sink.lock() = Some(bytes.to_vec())), kept)
    }

    /// A write of `data` at the start of `buffer`.
    fn write(buffer: &Arc<Buffer>, data: Vec<u8>) -> Work {
        Work::write(Arc::clone(buffer), 0, data)
    }

    /// A read of `len` bytes of `buffer` at `offset` into `sink`.
    fn read_to(buffer: &Arc<Buffer>, offset: usize, len: usize, sink: ReadSink) -> Work {
        Work::Read { buffer: Arc::clone(buffer), offset, len, sink: Some(sink) }
    }

    #[test]
    fn queue_requires_device_in_context() {
        let device = Device::new(DeviceType::Cpu, DeviceProfile::test_device("a"));
        let other = Device::new(DeviceType::Cpu, DeviceProfile::test_device("b"));
        let context = Context::new(vec![device]).unwrap();
        assert!(CommandQueue::new(context, other, QueueProperties::default()).is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 8, MemFlags::READ_WRITE, None).unwrap();
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let w = queue.enqueue_write_buffer(&buffer, 0, data.clone(), Vec::new()).unwrap();
        w.wait().unwrap();
        assert!(w.modeled_duration() > Duration::ZERO);
        let back = queue.read_buffer_blocking(&buffer, 0, 8).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn kernel_launch_completes_and_reports_modeled_time() {
        let (context, _, queue) = setup();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("inc").unwrap();
        let buffer = Buffer::new(Arc::clone(&context), 16, MemFlags::READ_WRITE, None).unwrap();
        kernel.set_arg(0, KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        let e = queue.enqueue_nd_range_kernel(&kernel, NdRange::linear(4), Vec::new()).unwrap();
        e.wait().unwrap();
        assert!(e.modeled_duration() > Duration::ZERO);
        assert_eq!(e.counters().unwrap().work_items, 4);
        let out = queue.read_buffer_blocking(&buffer, 0, 16).unwrap();
        assert!(out.chunks_exact(4).all(|c| i32::from_le_bytes(c.try_into().unwrap()) == 1));
    }

    #[test]
    fn commands_execute_in_order() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        // Three writes in a row; the last one must win.
        for v in 1u8..=3 {
            queue.enqueue_write_buffer(&buffer, 0, vec![v, v, v, v], Vec::new()).unwrap();
        }
        queue.finish().unwrap();
        assert_eq!(buffer.read(0, 4).unwrap(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn wait_list_defers_execution_until_user_event_completes() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let write = queue
            .enqueue_write_buffer(&buffer, 0, vec![9, 9, 9, 9], vec![Arc::clone(&gate)])
            .unwrap();
        assert!(!write.wait_timeout(Duration::from_millis(50)).unwrap());
        gate.set_complete();
        write.wait().unwrap();
        assert_eq!(buffer.read(0, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn failed_wait_list_propagates_error() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        gate.set_error(-5);
        let write = queue.enqueue_write_buffer(&buffer, 0, vec![1, 1, 1, 1], vec![gate]).unwrap();
        assert!(write.wait().is_err());
    }

    #[test]
    fn out_of_bounds_write_fails_the_event() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let e = queue.enqueue_write_buffer(&buffer, 2, vec![0; 4], Vec::new()).unwrap();
        assert!(e.wait().is_err());
    }

    #[test]
    fn copy_buffer_moves_data() {
        let (context, _, queue) = setup();
        let src = Buffer::new(
            Arc::clone(&context),
            8,
            MemFlags::READ_WRITE,
            Some(&[1, 2, 3, 4, 5, 6, 7, 8]),
        )
        .unwrap();
        let dst = Buffer::new(Arc::clone(&context), 8, MemFlags::READ_WRITE, None).unwrap();
        let e = queue.enqueue_copy_buffer(&src, &dst, 4, 0, 4, Vec::new()).unwrap();
        e.wait().unwrap();
        assert_eq!(dst.read(0, 4).unwrap(), vec![5, 6, 7, 8]);
    }

    #[test]
    fn finish_drains_the_queue() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 1024, MemFlags::READ_WRITE, None).unwrap();
        for _ in 0..50 {
            queue.enqueue_write_buffer(&buffer, 0, vec![7u8; 1024], Vec::new()).unwrap();
        }
        queue.finish().unwrap();
        assert_eq!(buffer.read(0, 1).unwrap(), vec![7]);
    }

    #[test]
    fn inline_transfers_on_an_idle_queue_are_terminal_on_return() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let done = Event::user();
        done.set_complete();
        let write = queue.enqueue(write(&buffer, vec![4; 4]), vec![done], true).unwrap();
        assert_eq!(write.status(), EventStatus::Complete);
        assert!(write.modeled_duration() > Duration::ZERO);
        let (sink, kept) = kept();
        let read = queue.enqueue(read_to(&buffer, 0, 4, sink), vec![write], true).unwrap();
        assert_eq!(read.status(), EventStatus::Complete);
        assert_eq!(kept.lock().take(), Some(vec![4; 4]));
        assert_eq!(read.take_result(), None, "a sink's bytes are not the event's result");
        assert_eq!(queue.pending_commands(), 0);
    }

    #[test]
    fn inline_launches_and_markers_on_an_idle_queue_are_terminal_on_return() {
        let (context, _, queue) = setup();
        let program = Program::with_source(
            Arc::clone(&context),
            "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }",
        );
        program.build().unwrap();
        let kernel = program.create_kernel("inc").unwrap();
        let buffer = Buffer::new(Arc::clone(&context), 16, MemFlags::READ_WRITE, None).unwrap();
        kernel.set_arg(0, KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        let launch = Work::NdRange { kernel, range: NdRange::linear(4) };
        let launch = queue.enqueue(launch, Vec::new(), true).unwrap();
        assert_eq!(launch.status(), EventStatus::Complete);
        assert_eq!(launch.counters().unwrap().work_items, 4);
        assert!(launch.modeled_duration() > Duration::ZERO);
        let marker = queue.enqueue(Work::Marker, vec![launch], true).unwrap();
        assert_eq!(marker.status(), EventStatus::Complete);
        assert_eq!(queue.pending_commands(), 0);
        let out = buffer.read(0, 16).unwrap();
        assert!(out.chunks_exact(4).all(|c| i32::from_le_bytes(c.try_into().unwrap()) == 1));
    }

    #[test]
    fn inline_transfer_behind_pending_work_is_queued_in_order() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let gated =
            queue.enqueue_write_buffer(&buffer, 0, vec![1; 4], vec![Arc::clone(&gate)]).unwrap();
        // Nothing in its own wait list, but the gated write is ahead of it.
        let (sink, kept) = kept();
        let read = queue.enqueue(read_to(&buffer, 0, 4, sink), Vec::new(), true).unwrap();
        assert!(!read.status().is_terminal());
        gate.set_complete();
        read.wait().unwrap();
        assert!(gated.status().is_terminal());
        assert_eq!(kept.lock().take(), Some(vec![1; 4]), "the read overtook the write");
    }

    #[test]
    fn inline_transfer_with_an_incomplete_wait_list_is_queued() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let write = queue.enqueue(write(&buffer, vec![2; 4]), vec![Arc::clone(&gate)], true);
        let write = write.unwrap();
        assert!(!write.status().is_terminal());
        gate.set_complete();
        write.wait().unwrap();
        assert_eq!(buffer.read(0, 4).unwrap(), vec![2; 4]);
        // A failed wait-list event does not count as complete either: the
        // worker fails the command with the wait-list error.
        let failed = Event::user();
        failed.set_error(-5);
        let (sink, kept) = kept();
        let read = queue.enqueue(read_to(&buffer, 0, 4, sink), vec![failed], true).unwrap();
        assert!(read.wait().is_err());
        assert_eq!(read.status(), EventStatus::Error(-14));
        assert_eq!(*kept.lock(), None, "a failed read called its sink");
    }

    /// A read hands its range to the sink in place, before its event turns
    /// terminal; a read out of bounds fails without calling it.
    #[test]
    fn a_read_sink_gets_its_range_before_the_event_turns_terminal() {
        let (context, _, queue) = setup();
        let buffer =
            Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, Some(&[1, 2, 3, 4]))
                .unwrap();
        let gate = Event::user();
        let read_event: Arc<Mutex<Option<Arc<Event>>>> = Arc::default();
        let seen = Arc::new(Mutex::new(None));
        let (event_in_sink, seen_in_sink) = (Arc::clone(&read_event), Arc::clone(&seen));
        let sink: ReadSink = Box::new(move |bytes| {
            let status = event_in_sink.lock().as_ref().map(|e| e.status());
            *seen_in_sink.lock() = Some((bytes.to_vec(), status));
        });
        let read = queue.enqueue(read_to(&buffer, 1, 2, sink), vec![Arc::clone(&gate)], false);
        let read = read.unwrap();
        *read_event.lock() = Some(Arc::clone(&read));
        gate.set_complete();
        read.wait().unwrap();
        assert_eq!(*seen.lock(), Some((vec![2, 3], Some(EventStatus::Running))));
        assert!(read.modeled_duration() > Duration::ZERO);

        let (sink, kept) = kept();
        let out_of_bounds = queue.enqueue(read_to(&buffer, 2, 4, sink), Vec::new(), false).unwrap();
        assert!(out_of_bounds.wait().is_err());
        assert_eq!(*kept.lock(), None);
    }

    /// A write's source fills its range in place, before its event turns
    /// terminal; an error it returns fails the write, and a write out of
    /// bounds fails without calling it.
    #[test]
    fn a_write_source_fills_its_range_before_the_event_turns_terminal() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let write_event: Arc<Mutex<Option<Arc<Event>>>> = Arc::default();
        let seen = Arc::clone(&write_event);
        let source: WriteSource = Box::new(move |dest| {
            assert_eq!(seen.lock().as_ref().map(|e| e.status()), Some(EventStatus::Running));
            dest.copy_from_slice(&[5, 6]);
            Ok(())
        });
        let gate = Event::user();
        let work = Work::Write { buffer: Arc::clone(&buffer), offset: 1, len: 2, source };
        let write = queue.enqueue(work, vec![Arc::clone(&gate)], false).unwrap();
        *write_event.lock() = Some(Arc::clone(&write));
        gate.set_complete();
        write.wait().unwrap();
        assert_eq!(buffer.read(0, 4).unwrap(), vec![0, 5, 6, 0]);

        let failing: WriteSource = Box::new(|_| Err(ClError::InvalidValue("cut".into())));
        let work = Work::Write { buffer: Arc::clone(&buffer), offset: 0, len: 4, source: failing };
        let failed = queue.enqueue(work, Vec::new(), true).unwrap();
        assert_eq!(failed.status(), EventStatus::Error(-30));
        let called = Arc::new(Mutex::new(false));
        let flag = Arc::clone(&called);
        let source: WriteSource = Box::new(move |_| {
            *flag.lock() = true;
            Ok(())
        });
        let work = Work::Write { buffer: Arc::clone(&buffer), offset: 3, len: 2, source };
        assert!(queue.enqueue(work, Vec::new(), true).unwrap().wait().is_err());
        assert!(!*called.lock(), "a write out of bounds called its source");
    }

    /// `try_inline` runs a command on an idle queue whose wait list is
    /// complete, and hands it back when work is queued ahead of it or a
    /// wait-list event is pending.
    #[test]
    fn try_inline_runs_only_on_an_idle_queue() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 2, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let gated = queue.enqueue(write(&buffer, vec![1, 1]), vec![Arc::clone(&gate)], false);
        let work = queue.try_inline(write(&buffer, vec![2, 2]), &[]).map(|_| ());
        assert!(work.is_err(), "it ran with work queued ahead");
        gate.set_complete();
        gated.unwrap().wait().unwrap();
        let pending = Event::user();
        assert!(queue.try_inline(write(&buffer, vec![3, 3]), &[pending]).is_err());
        let event = queue.try_inline(write(&buffer, vec![4, 4]), &[gate]).ok().unwrap();
        assert_eq!(event.status(), EventStatus::Complete);
        assert_eq!(buffer.read(0, 2).unwrap(), vec![4, 4]);
    }

    #[test]
    fn pending_commands_tracks_queue_depth() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        // The gated write blocks the worker; everything behind it piles up.
        queue.enqueue_write_buffer(&buffer, 0, vec![1; 4], vec![Arc::clone(&gate)]).unwrap();
        queue.enqueue_write_buffer(&buffer, 0, vec![2; 4], Vec::new()).unwrap();
        queue.enqueue_write_buffer(&buffer, 0, vec![3; 4], Vec::new()).unwrap();
        // The worker may or may not have popped the gated write yet.
        let depth = queue.pending_commands();
        assert!((2..=3).contains(&depth), "queue depth {depth}");
        gate.set_complete();
        queue.finish().unwrap();
        assert_eq!(queue.pending_commands(), 0);
    }
}
