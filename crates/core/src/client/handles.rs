//! Handles and op builders: the stubs the application holds (devices,
//! contexts, buffers, programs, kernels, queues) and the enqueue builders
//! that submit through a queue.  A handle is data plus a weak reference to
//! the client; every operation on it goes to [`ClientInner`].

use super::{Client, ClientInner, Event};
use crate::coherence::{BufferDirectory, ByteRange};
use crate::error::{DclError, Result};
use crate::protocol::{BatchCommand, DeviceDescriptor, ObjectId};
use gcf::simtime::Phase;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;
use vocl::{NdRange, Value};

/// Identifies a connected server within one client (index into the server
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerId(pub usize);

/// `CL_DEVICE_TYPE_*` as seen through the dOpenCL platform.
///
/// Parse daemon-reported descriptor strings with [`DeviceType::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// `CL_DEVICE_TYPE_CPU`
    Cpu,
    /// `CL_DEVICE_TYPE_GPU`
    Gpu,
    /// `CL_DEVICE_TYPE_ACCELERATOR`
    Accelerator,
    /// `CL_DEVICE_TYPE_CUSTOM` — anything a daemon reports that is not one
    /// of the three standard kinds.
    Custom,
}

impl DeviceType {
    /// Parse a descriptor string (`"CPU"`, `"GPU"`, `"ACCELERATOR"`, case
    /// insensitive); anything else maps to [`DeviceType::Custom`].
    pub fn parse(s: &str) -> DeviceType {
        match s.to_ascii_uppercase().as_str() {
            "CPU" => DeviceType::Cpu,
            "GPU" => DeviceType::Gpu,
            "ACCELERATOR" => DeviceType::Accelerator,
            _ => DeviceType::Custom,
        }
    }

    /// The canonical descriptor spelling (`"CPU"`, `"GPU"`, ...).
    pub fn as_str(&self) -> &'static str {
        match self {
            DeviceType::Cpu => "CPU",
            DeviceType::Gpu => "GPU",
            DeviceType::Accelerator => "ACCELERATOR",
            DeviceType::Custom => "CUSTOM",
        }
    }
}

impl std::fmt::Display for DeviceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A remote device stub (simple stub: owned by exactly one server).
#[derive(Debug, Clone)]
pub struct Device {
    pub(super) server: usize,
    pub(super) descriptor: DeviceDescriptor,
}

impl Device {
    /// The server this device lives on.
    pub fn server(&self) -> ServerId {
        ServerId(self.server)
    }

    /// Daemon-local device id.
    pub fn remote_id(&self) -> ObjectId {
        self.descriptor.remote_id
    }

    /// `CL_DEVICE_NAME`.
    pub fn name(&self) -> &str {
        &self.descriptor.name
    }

    /// `CL_DEVICE_VENDOR`.
    pub fn vendor(&self) -> &str {
        &self.descriptor.vendor
    }

    /// `CL_DEVICE_TYPE`.
    pub fn kind(&self) -> DeviceType {
        DeviceType::parse(&self.descriptor.device_type)
    }

    /// `CL_DEVICE_MAX_COMPUTE_UNITS`.
    pub fn compute_units(&self) -> u32 {
        self.descriptor.compute_units
    }

    /// `CL_DEVICE_GLOBAL_MEM_SIZE`.
    pub fn global_mem_bytes(&self) -> u64 {
        self.descriptor.global_mem_bytes
    }
}

/// A context stub (compound stub spanning every server that hosts one of its
/// devices).  Created with [`Context::new`]; owns buffer, queue and program
/// creation.
#[derive(Debug, Clone)]
pub struct Context {
    pub(super) client: Weak<ClientInner>,
    pub(super) id: ObjectId,
    pub(super) devices: Vec<Device>,
    pub(super) servers: Vec<usize>,
}

impl Context {
    /// `clCreateContext` over any mix of devices from any servers of
    /// `client`.
    pub fn new(client: &Client, devices: &[Device]) -> Result<Context> {
        client.inner.create_context(devices)
    }

    /// The context's devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The servers participating in this context.
    pub fn servers(&self) -> Vec<ServerId> {
        self.servers.iter().copied().map(ServerId).collect()
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// `clCreateCommandQueue` for `device` (which must be part of this
    /// context).
    pub fn create_command_queue(&self, device: &Device) -> Result<CommandQueue> {
        self.inner()?.create_command_queue(self, device)
    }

    /// `clCreateBuffer` of `size` bytes, replicated on every participating
    /// server and kept consistent by the MSI directory.
    pub fn create_buffer(&self, size: usize) -> Result<Buffer> {
        self.inner()?.create_buffer(self, size)
    }

    /// `clCreateProgramWithSource`: ship `source` to every participating
    /// server.
    pub fn create_program_with_source(&self, source: &str) -> Result<Program> {
        self.inner()?.create_program_with_source(self, source)
    }

    /// `clCreateProgramWithBuiltInKernels` (OpenCL 1.2-style), used by the
    /// evaluation workloads for their throughput-critical kernels.
    pub fn create_program_with_built_in_kernels(&self, names: &str) -> Result<Program> {
        self.inner()?.create_program_with_built_in_kernels(self, names)
    }

    fn inner(&self) -> Result<Arc<ClientInner>> {
        upgrade(&self.client)
    }
}

/// A buffer stub (compound stub with an MSI coherence directory).
///
/// Buffers are pure data handles: every operation on their contents goes
/// through a [`CommandQueue`], which carries the client back-reference, so
/// the buffer itself does not need one.
#[derive(Debug, Clone)]
pub struct Buffer {
    pub(super) id: ObjectId,
    pub(super) size: usize,
    pub(super) directory: Arc<Mutex<BufferDirectory>>,
}

impl Buffer {
    /// Buffer size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Coalesced byte ranges of this buffer that are valid on `server` (for
    /// tests and diagnostics).
    pub fn valid_ranges(&self, server: ServerId) -> Vec<ByteRange> {
        self.directory.lock().valid_ranges(server.0)
    }

    /// Coalesced byte ranges of this buffer that are stale on `server` (for
    /// tests and diagnostics).
    pub fn stale_ranges(&self, server: ServerId) -> Vec<ByteRange> {
        self.directory.lock().stale_ranges(server.0)
    }

    /// Number of interval-map segments in the coherence directory — a
    /// fragmentation diagnostic.
    pub fn segment_count(&self) -> usize {
        self.directory.lock().segment_count()
    }
}

/// A program stub (compound stub).  Owns building and kernel creation.
#[derive(Debug, Clone)]
pub struct Program {
    pub(super) client: Weak<ClientInner>,
    pub(super) id: ObjectId,
    pub(super) servers: Vec<usize>,
    /// Parse-only kernel-argument access analysis of the program source
    /// (empty for built-in kernels or unparsable sources).  Kernels created
    /// from this program use it to *derive* coherence launch hints when the
    /// caller gives none.
    pub(super) access: Arc<Vec<oclc::access::KernelAccess>>,
}

impl Program {
    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// `clBuildProgram` on every participating server.  On failure the
    /// first server's build log is appended to the error.
    pub fn build(&self) -> Result<()> {
        upgrade(&self.client)?.build_program(self)
    }

    /// `clGetProgramBuildInfo(CL_PROGRAM_BUILD_LOG)` from the first server.
    pub fn build_log(&self) -> Result<String> {
        upgrade(&self.client)?.get_build_log(self)
    }

    /// `clCreateKernel`.
    pub fn create_kernel(&self, name: &str) -> Result<Kernel> {
        upgrade(&self.client)?.create_kernel(self, name)
    }
}

/// A kernel argument, as accepted by [`Kernel::set_arg`].
///
/// Scalars and buffers convert implicitly (`kernel.set_arg(0, &buffer)?`,
/// `kernel.set_arg(1, Value::uint(42))?`); `__local` memory is requested
/// explicitly with [`Arg::local`].
#[derive(Debug, Clone)]
pub enum Arg {
    /// A by-value scalar argument.
    Scalar(Value),
    /// A memory-object argument.
    Buffer(Buffer),
    /// A `__local` memory allocation of the given size in bytes.
    Local(usize),
}

impl Arg {
    /// A `__local` memory argument of `bytes` bytes.
    pub fn local(bytes: usize) -> Arg {
        Arg::Local(bytes)
    }
}

impl From<Value> for Arg {
    fn from(value: Value) -> Arg {
        Arg::Scalar(value)
    }
}

impl From<&Buffer> for Arg {
    fn from(buffer: &Buffer) -> Arg {
        Arg::Buffer(buffer.clone())
    }
}

impl From<Buffer> for Arg {
    fn from(buffer: Buffer) -> Arg {
        Arg::Buffer(buffer)
    }
}

/// A kernel stub (compound stub).  Remembers which arguments are buffers so
/// kernel launches can run the coherence protocol for them.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(super) client: Weak<ClientInner>,
    pub(super) id: ObjectId,
    pub(super) name: String,
    pub(super) servers: Vec<usize>,
    pub(super) buffer_args: Arc<Mutex<HashMap<u32, Buffer>>>,
    /// Per-argument access derived from the program source (declaration
    /// order = `clSetKernelArg` indices); empty when nothing was derivable.
    pub(super) derived_access: Arc<Vec<oclc::access::ArgAccess>>,
}

impl Kernel {
    /// The statically derived access classification of argument `index`
    /// (diagnostics; [`ArgAccess::WrittenWhole`] when unknown is the
    /// conservative answer launches fall back to).
    ///
    /// [`ArgAccess::WrittenWhole`]: oclc::access::ArgAccess::WrittenWhole
    pub fn derived_access(&self, index: u32) -> oclc::access::ArgAccess {
        self.derived_access
            .get(index as usize)
            .copied()
            .unwrap_or(oclc::access::ArgAccess::WrittenWhole)
    }

    /// Kernel function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// `clSetKernelArg`: set argument `index` to `arg` on every
    /// participating server.
    pub fn set_arg(&self, index: u32, arg: impl Into<Arg>) -> Result<()> {
        upgrade(&self.client)?.set_kernel_arg(self, index, arg.into())
    }
}

/// A command queue stub (simple stub: tied to one device on one server).
/// Owns the enqueue builders.
///
/// Commands accumulate client-side, with those of the other queues on the
/// same server, and ship as one batched request; see the
/// [module docs](crate::client#batching--flush-semantics) for when the batch
/// is flushed.
#[derive(Debug, Clone)]
pub struct CommandQueue {
    pub(super) client: Weak<ClientInner>,
    pub(super) id: ObjectId,
    pub(super) server: usize,
    pub(super) device: Device,
    // RAII guard: flushes the pending batch when the last clone drops.
    pub(super) _flusher: Arc<QueueFlusher>,
}

/// Flushes the server's pending batch when the last clone of a queue stub
/// is dropped, so nothing enqueued is ever silently discarded.
#[derive(Debug)]
pub(super) struct QueueFlusher {
    pub(super) client: Weak<ClientInner>,
    pub(super) server: usize,
}

impl Drop for QueueFlusher {
    fn drop(&mut self) {
        if let Some(inner) = self.client.upgrade() {
            let _ = inner.flush_server(self.server);
        }
    }
}

impl CommandQueue {
    /// The device this queue feeds.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The server the queue lives on.
    pub fn server(&self) -> ServerId {
        ServerId(self.server)
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// `clEnqueueWriteBuffer`: build an upload of `data` into `buffer`.
    ///
    /// Defaults: offset 0, empty wait list, non-blocking.  Finish with
    /// [`WriteBufferOp::submit`].
    pub fn write_buffer<'a>(&'a self, buffer: &'a Buffer, data: &'a [u8]) -> WriteBufferOp<'a> {
        WriteBufferOp { queue: self, buffer, data, offset: 0, wait: Vec::new(), blocking: false }
    }

    /// `clEnqueueReadBuffer` (blocking): build a download from `buffer`.
    ///
    /// Defaults: offset 0, the whole buffer, empty wait list.  Finish with
    /// [`ReadBufferOp::submit`].
    pub fn read_buffer<'a>(&'a self, buffer: &'a Buffer) -> ReadBufferOp<'a> {
        ReadBufferOp { queue: self, buffer, offset: 0, len: None, wait: Vec::new() }
    }

    /// `clEnqueueNDRangeKernel`: build a launch of `kernel` over `range`.
    ///
    /// Defaults: empty wait list.  Finish with [`LaunchOp::submit`].
    pub fn launch<'a>(&'a self, kernel: &'a Kernel, range: NdRange) -> LaunchOp<'a> {
        LaunchOp { queue: self, kernel, range, wait: Vec::new(), access: Vec::new() }
    }

    /// `clEnqueueMarkerWithWaitList`: build a marker command.
    pub fn marker(&self) -> MarkerOp<'_> {
        MarkerOp { queue: self, wait: Vec::new() }
    }

    /// `clFlush`: ship the pending batch of this queue's server — this
    /// queue's commands and those of every other queue there, in enqueue
    /// order — and return once the daemon has acknowledged it.  Event
    /// releases still waiting for a batch to that server go with it — on
    /// their own, as one one-way notification, if nothing is pending.
    pub fn flush(&self) -> Result<()> {
        let inner = self.inner()?;
        inner.flush_server(self.server)?;
        inner.flush_releases(self.server);
        Ok(())
    }

    /// Number of this queue's commands accumulated client-side and not yet
    /// shipped.
    pub fn pending_commands(&self) -> usize {
        self.inner().map(|inner| inner.pending_commands(self.server, self.id)).unwrap_or(0)
    }

    /// `clFinish`: block until every command previously enqueued on this
    /// queue has completed.
    pub fn finish(&self) -> Result<()> {
        let marker = self.marker().submit()?;
        marker.wait()
    }

    fn inner(&self) -> Result<Arc<ClientInner>> {
        upgrade(&self.client)
    }
}

/// Builder for `clEnqueueWriteBuffer` (see [`CommandQueue::write_buffer`]).
#[must_use = "the write is not enqueued until submit() is called"]
#[derive(Debug)]
pub struct WriteBufferOp<'a> {
    queue: &'a CommandQueue,
    buffer: &'a Buffer,
    data: &'a [u8],
    offset: usize,
    wait: Vec<Event>,
    blocking: bool,
}

impl WriteBufferOp<'_> {
    /// Write starting at `offset` bytes into the buffer (default 0).
    pub fn at_offset(mut self, offset: usize) -> Self {
        self.offset = offset;
        self
    }

    /// Wait for `events` before executing (appends to the wait list).
    pub fn after(mut self, events: &[Event]) -> Self {
        self.wait.extend_from_slice(events);
        self
    }

    /// Block until the upload completes before returning (the returned
    /// event is then already terminal), mirroring `blocking_write = CL_TRUE`.
    pub fn blocking(mut self) -> Self {
        self.blocking = true;
        self
    }

    /// Enqueue the write; returns its completion event.
    pub fn submit(self) -> Result<Event> {
        let inner = self.queue.inner()?;
        let event =
            inner.enqueue_write(self.queue, self.buffer, self.offset, self.data, &self.wait)?;
        if self.blocking {
            event.wait()?;
        }
        Ok(event)
    }
}

/// Builder for `clEnqueueReadBuffer` (see [`CommandQueue::read_buffer`]).
///
/// [`ReadBufferOp::submit`] mirrors a blocking read (`blocking_read =
/// CL_TRUE`); [`ReadBufferOp::submit_async`] enqueues without blocking and
/// returns a [`PendingRead`] resolved at wait time.
#[must_use = "the read is not enqueued until submit() is called"]
#[derive(Debug)]
pub struct ReadBufferOp<'a> {
    queue: &'a CommandQueue,
    buffer: &'a Buffer,
    offset: usize,
    len: Option<usize>,
    wait: Vec<Event>,
}

impl ReadBufferOp<'_> {
    /// Read starting at `offset` bytes into the buffer (default 0).
    pub fn at_offset(mut self, offset: usize) -> Self {
        self.offset = offset;
        self
    }

    /// Read `len` bytes (default: the whole buffer from the offset on).
    pub fn len(mut self, len: usize) -> Self {
        self.len = Some(len);
        self
    }

    /// Wait for `events` before executing (appends to the wait list).
    pub fn after(mut self, events: &[Event]) -> Self {
        self.wait.extend_from_slice(events);
        self
    }

    /// Enqueue the read and block for the data; returns it together with
    /// the (already terminal) completion event, mirroring a blocking
    /// `clEnqueueReadBuffer`.  Flushes the queue's pending batch.
    pub fn submit(self) -> Result<(Vec<u8>, Event)> {
        self.submit_async()?.wait()
    }

    /// Enqueue the read without blocking (`blocking_read = CL_FALSE`): the
    /// command joins the queue's pending batch and the returned
    /// [`PendingRead`] yields the data once awaited.
    pub fn submit_async(self) -> Result<PendingRead> {
        let inner = self.queue.inner()?;
        let len = self.len.unwrap_or_else(|| self.buffer.size().saturating_sub(self.offset));
        inner.enqueue_read_async(self.queue, self.buffer, self.offset, len, &self.wait)
    }
}

/// A non-blocking buffer read in flight (see [`ReadBufferOp::submit_async`]).
///
/// The daemon streams the data to the client when the command executes;
/// [`PendingRead::wait`] flushes the owning queue's batch (via the event),
/// blocks for completion, and collects the stream.  Dropping it uncollected
/// discards the stream as it arrives.
#[must_use = "the data is not received until wait() is called"]
#[derive(Debug)]
pub struct PendingRead {
    pub(super) client: Weak<ClientInner>,
    pub(super) server: usize,
    pub(super) stream_id: u64,
    pub(super) offset: usize,
    pub(super) len: usize,
    pub(super) buffer: Buffer,
    pub(super) event: Event,
    pub(super) collected: bool,
}

impl PendingRead {
    /// The read command's completion event (not yet terminal until the
    /// batch is flushed and the daemon executes the command).
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Block until the read completes and return the data together with the
    /// (now terminal) completion event.
    pub fn wait(mut self) -> Result<(Vec<u8>, Event)> {
        self.event.wait()?;
        let inner = upgrade(&self.client)?;
        let conn = inner.server(self.server)?;
        let data = conn.endpoint.wait_bulk(self.stream_id, Duration::from_secs(300))?;
        self.collected = true;
        // Stream-based communication back to the client.
        inner.clock.charge(Phase::DataTransfer, inner.link.transfer_time(self.len as u64));
        let range = ByteRange::new(self.offset, self.offset + self.len);
        self.buffer.directory.lock().record_received(self.server, &[range], &data);
        Ok((data, self.event.clone()))
    }
}

impl Drop for PendingRead {
    fn drop(&mut self) {
        if self.collected {
            return;
        }
        // The daemon streams the data anyway, unless the read failed: no stream follows a status.
        if let Some(conn) = self.client.upgrade().and_then(|inner| inner.server(self.server).ok()) {
            conn.endpoint.discard_bulk(self.stream_id, !self.event.failed());
        }
    }
}

/// Builder for `clEnqueueNDRangeKernel` (see [`CommandQueue::launch`]).
#[must_use = "the launch is not enqueued until submit() is called"]
#[derive(Debug)]
pub struct LaunchOp<'a> {
    queue: &'a CommandQueue,
    kernel: &'a Kernel,
    range: NdRange,
    wait: Vec<Event>,
    access: Vec<(ObjectId, AccessHint)>,
}

/// A launch's declared access to one buffer argument (see
/// [`LaunchOp::writes_slice`] / [`LaunchOp::reads_only`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum AccessHint {
    /// The kernel reads and writes only this byte range of the buffer.
    Touches(ByteRange),
    /// The kernel only reads the buffer; it dirties nothing.
    ReadsOnly,
}

impl LaunchOp<'_> {
    /// Wait for `events` before executing (appends to the wait list).
    pub fn after(mut self, events: &[Event]) -> Self {
        self.wait.extend_from_slice(events);
        self
    }

    /// Declare that this launch accesses (reads *and* writes) only
    /// `[offset, offset + len)` of `buffer` — typically the output slice
    /// implied by the NDRange, e.g. the rows a `mandelbrot_rows` launch
    /// renders.  The coherence protocol then validates and dirties only
    /// that range, so a buffer partitioned across daemons stays put: each
    /// device remains the owner of its own slice and no full-buffer round
    /// trips occur.
    ///
    /// The declaration is a contract: bytes the kernel touches outside the
    /// slice are silently stale.  Without a declaration the launch falls
    /// back to the conservative whole-buffer treatment.
    pub fn writes_slice(mut self, buffer: &Buffer, offset: usize, len: usize) -> Self {
        let range = ByteRange::new(offset, offset.saturating_add(len)).clamp_to(buffer.size());
        self.access.push((buffer.id, AccessHint::Touches(range)));
        self
    }

    /// Declare that this launch only *reads* `buffer`: the whole buffer is
    /// still validated on the target server, but nothing is marked dirty
    /// afterwards, so other copies stay valid.
    pub fn reads_only(mut self, buffer: &Buffer) -> Self {
        self.access.push((buffer.id, AccessHint::ReadsOnly));
        self
    }

    /// Enqueue the kernel launch; returns its completion event.
    pub fn submit(self) -> Result<Event> {
        let inner = self.queue.inner()?;
        inner.enqueue_launch(self.queue, self.kernel, self.range, &self.wait, &self.access)
    }
}

/// Builder for `clEnqueueMarkerWithWaitList` (see [`CommandQueue::marker`]).
#[must_use = "the marker is not enqueued until submit() is called"]
#[derive(Debug)]
pub struct MarkerOp<'a> {
    queue: &'a CommandQueue,
    wait: Vec<Event>,
}

impl MarkerOp<'_> {
    /// Wait for `events` before completing (appends to the wait list).
    pub fn after(mut self, events: &[Event]) -> Self {
        self.wait.extend_from_slice(events);
        self
    }

    /// Enqueue the marker; returns its completion event.  Ships the
    /// server's pending batch so the marker observes every command enqueued
    /// before it.
    pub fn submit(self) -> Result<Event> {
        let inner = self.queue.inner()?;
        let event =
            inner.enqueue(self.queue, Phase::Execution, BatchCommand::Marker, &self.wait, None)?;
        inner.flush_server(self.queue.server)?;
        Ok(event)
    }
}

pub(super) fn upgrade(client: &Weak<ClientInner>) -> Result<Arc<ClientInner>> {
    client.upgrade().ok_or(DclError::ClientDropped)
}
