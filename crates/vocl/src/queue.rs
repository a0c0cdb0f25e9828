//! In-order command queues with a worker thread per queue.
//!
//! Commands (`clEnqueue*`) execute in submission order, honouring
//! per-command wait lists, and complete their events.  They are pushed to a
//! per-queue worker thread, except a transfer submitted through
//! [`CommandQueue::enqueue_write_buffer_inline`] or
//! [`CommandQueue::enqueue_read_buffer_inline`] that finds nothing ahead of
//! it: that one runs on the calling thread, through the same executor,
//! before the enqueue returns.  Every completed event carries the *modelled*
//! duration of its command (derived from the device's compute and bus
//! models) so the dOpenCL layer and the figure harnesses can account
//! simulated time without depending on wall-clock speed of the machine
//! running the reproduction.

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

enum Command {
    Write {
        buffer: Arc<Buffer>,
        offset: usize,
        data: Vec<u8>,
        wait_list: Vec<Arc<Event>>,
        event: Arc<Event>,
    },
    Read {
        buffer: Arc<Buffer>,
        offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
        event: Arc<Event>,
    },
    Copy {
        src: Arc<Buffer>,
        dst: Arc<Buffer>,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
        event: Arc<Event>,
    },
    NdRange {
        kernel: Arc<Kernel>,
        range: NdRange,
        wait_list: Vec<Arc<Event>>,
        event: Arc<Event>,
    },
    Marker {
        wait_list: Vec<Arc<Event>>,
        event: Arc<Event>,
    },
    Shutdown,
}

impl Command {
    fn wait_list(&self) -> &[Arc<Event>] {
        match self {
            Command::Write { wait_list, .. }
            | Command::Read { wait_list, .. }
            | Command::Copy { wait_list, .. }
            | Command::NdRange { wait_list, .. }
            | Command::Marker { wait_list, .. } => wait_list,
            Command::Shutdown => &[],
        }
    }
}

/// An in-order command queue (`cl_command_queue`).
pub struct CommandQueue {
    id: u64,
    device: Arc<Device>,
    context: Arc<Context>,
    properties: QueueProperties,
    tx: Sender<Command>,
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
        let (tx, rx) = unbounded::<Command>();
        let depth = Arc::new(AtomicUsize::new(0));
        let worker_device = Arc::clone(&device);
        let worker_depth = Arc::clone(&depth);
        let worker = std::thread::Builder::new()
            .name(format!("vocl-queue-{}", device.name()))
            .spawn(move || {
                while let Ok(command) = rx.recv() {
                    match command {
                        Command::Shutdown => break,
                        other => {
                            worker_depth.fetch_sub(1, Ordering::AcqRel);
                            execute_command(&worker_device, other);
                        }
                    }
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

    /// Hand `command` to the worker.  With `inline`, a command that finds
    /// the queue idle and every wait-list event `Complete` runs on the
    /// calling thread instead, so its event is terminal when this returns.
    fn submit(&self, command: Command, event: &Arc<Event>, inline: bool) -> Result<Arc<Event>> {
        let mut last = self.last.lock();
        event.set_status(EventStatus::Submitted);
        if inline
            && last.as_ref().is_none_or(|e| e.status().is_terminal())
            && command.wait_list().iter().all(|e| e.status() == EventStatus::Complete)
        {
            execute_command(&self.device, command);
        } else {
            self.depth.fetch_add(1, Ordering::AcqRel);
            if self.tx.send(command).is_err() {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                return Err(ClError::QueueShutDown);
            }
        }
        *last = Some(Arc::clone(event));
        Ok(Arc::clone(event))
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
        self.write(buffer, offset, data, wait_list, false)
    }

    /// [`CommandQueue::enqueue_write_buffer`], but run on the calling thread
    /// when the queue is idle and every wait-list event is complete.
    /// Otherwise it is queued behind the work ahead of it as usual.
    pub fn enqueue_write_buffer_inline(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        data: Vec<u8>,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        self.write(buffer, offset, data, wait_list, true)
    }

    fn write(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        data: Vec<u8>,
        wait_list: Vec<Arc<Event>>,
        inline: bool,
    ) -> Result<Arc<Event>> {
        let event = Event::new(CommandType::WriteBuffer);
        self.submit(
            Command::Write {
                buffer: Arc::clone(buffer),
                offset,
                data,
                wait_list,
                event: Arc::clone(&event),
            },
            &event,
            inline,
        )
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
        self.read(buffer, offset, len, wait_list, false)
    }

    /// [`CommandQueue::enqueue_read_buffer`], but run on the calling thread
    /// when the queue is idle and every wait-list event is complete.
    /// Otherwise it is queued behind the work ahead of it as usual.
    pub fn enqueue_read_buffer_inline(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        self.read(buffer, offset, len, wait_list, true)
    }

    fn read(
        &self,
        buffer: &Arc<Buffer>,
        offset: usize,
        len: usize,
        wait_list: Vec<Arc<Event>>,
        inline: bool,
    ) -> Result<Arc<Event>> {
        let event = Event::new(CommandType::ReadBuffer);
        self.submit(
            Command::Read {
                buffer: Arc::clone(buffer),
                offset,
                len,
                wait_list,
                event: Arc::clone(&event),
            },
            &event,
            inline,
        )
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
        let event = Event::new(CommandType::CopyBuffer);
        self.submit(
            Command::Copy {
                src: Arc::clone(src),
                dst: Arc::clone(dst),
                src_offset,
                dst_offset,
                len,
                wait_list,
                event: Arc::clone(&event),
            },
            &event,
            false,
        )
    }

    /// `clEnqueueNDRangeKernel`.
    pub fn enqueue_nd_range_kernel(
        &self,
        kernel: &Arc<Kernel>,
        range: NdRange,
        wait_list: Vec<Arc<Event>>,
    ) -> Result<Arc<Event>> {
        let event = Event::new(CommandType::NdRangeKernel);
        self.submit(
            Command::NdRange {
                kernel: Arc::clone(kernel),
                range,
                wait_list,
                event: Arc::clone(&event),
            },
            &event,
            false,
        )
    }

    /// `clEnqueueMarkerWithWaitList`.
    pub fn enqueue_marker(&self, wait_list: Vec<Arc<Event>>) -> Result<Arc<Event>> {
        let event = Event::new(CommandType::Marker);
        self.submit(Command::Marker { wait_list, event: Arc::clone(&event) }, &event, false)
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
        let _ = self.tx.send(Command::Shutdown);
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
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

fn execute_command(device: &Arc<Device>, command: Command) {
    match command {
        Command::Shutdown => {}
        Command::Write { buffer, offset, data, wait_list, event } => {
            if let Err(code) = wait_for_list(&wait_list) {
                event.set_error(code);
                return;
            }
            event.set_status(EventStatus::Running);
            let bytes = data.len() as u64;
            match buffer.write(offset, &data) {
                Ok(()) => {
                    event.set_modeled(device.profile().bus.write_time(bytes));
                    event.set_complete();
                }
                Err(e) => event.set_error(e.code()),
            }
        }
        Command::Read { buffer, offset, len, wait_list, event } => {
            if let Err(code) = wait_for_list(&wait_list) {
                event.set_error(code);
                return;
            }
            event.set_status(EventStatus::Running);
            match buffer.read(offset, len) {
                Ok(data) => {
                    event.set_modeled(device.profile().bus.read_time(len as u64));
                    event.set_result(data);
                    event.set_complete();
                }
                Err(e) => event.set_error(e.code()),
            }
        }
        Command::Copy { src, dst, src_offset, dst_offset, len, wait_list, event } => {
            if let Err(code) = wait_for_list(&wait_list) {
                event.set_error(code);
                return;
            }
            event.set_status(EventStatus::Running);
            let result = src.read(src_offset, len).and_then(|data| dst.write(dst_offset, &data));
            match result {
                Ok(()) => {
                    // A device-internal copy moves data once over the bus.
                    event.set_modeled(device.profile().bus.write_time(len as u64));
                    event.set_complete();
                }
                Err(e) => event.set_error(e.code()),
            }
        }
        Command::NdRange { kernel, range, wait_list, event } => {
            if let Err(code) = wait_for_list(&wait_list) {
                event.set_error(code);
                return;
            }
            event.set_status(EventStatus::Running);
            match kernel.execute(&range) {
                Ok((counters, interpreted)) => {
                    let compute = &device.profile().compute;
                    let modeled: Duration = if interpreted {
                        compute.interp_time(counters.steps)
                    } else {
                        compute.native_time(counters.ops as f64)
                    };
                    event.set_counters(counters);
                    event.set_modeled(modeled);
                    event.set_complete();
                }
                Err(e) => event.set_error(e.code()),
            }
        }
        Command::Marker { wait_list, event } => {
            if let Err(code) = wait_for_list(&wait_list) {
                event.set_error(code);
                return;
            }
            event.set_complete();
        }
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
        let write = queue.enqueue_write_buffer_inline(&buffer, 0, vec![4; 4], vec![done]).unwrap();
        assert_eq!(write.status(), EventStatus::Complete);
        assert!(write.modeled_duration() > Duration::ZERO);
        let read = queue.enqueue_read_buffer_inline(&buffer, 0, 4, vec![write]).unwrap();
        assert_eq!(read.status(), EventStatus::Complete);
        assert_eq!(read.take_result(), Some(vec![4; 4]));
        assert_eq!(queue.pending_commands(), 0);
    }

    #[test]
    fn inline_transfer_behind_pending_work_is_queued_in_order() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let gated =
            queue.enqueue_write_buffer(&buffer, 0, vec![1; 4], vec![Arc::clone(&gate)]).unwrap();
        // Nothing in its own wait list, but the gated write is ahead of it.
        let read = queue.enqueue_read_buffer_inline(&buffer, 0, 4, Vec::new()).unwrap();
        assert!(!read.status().is_terminal());
        gate.set_complete();
        read.wait().unwrap();
        assert!(gated.status().is_terminal());
        assert_eq!(read.take_result(), Some(vec![1; 4]), "the read overtook the write");
    }

    #[test]
    fn inline_transfer_with_an_incomplete_wait_list_is_queued() {
        let (context, _, queue) = setup();
        let buffer = Buffer::new(Arc::clone(&context), 4, MemFlags::READ_WRITE, None).unwrap();
        let gate = Event::user();
        let write =
            queue.enqueue_write_buffer_inline(&buffer, 0, vec![2; 4], vec![Arc::clone(&gate)]);
        let write = write.unwrap();
        assert!(!write.status().is_terminal());
        gate.set_complete();
        write.wait().unwrap();
        assert_eq!(buffer.read(0, 4).unwrap(), vec![2; 4]);
        // A failed wait-list event does not count as complete either: the
        // worker fails the command with the wait-list error.
        let failed = Event::user();
        failed.set_error(-5);
        let read = queue.enqueue_read_buffer_inline(&buffer, 0, 4, vec![failed]).unwrap();
        assert!(read.wait().is_err());
        assert_eq!(read.status(), EventStatus::Error(-14));
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
