//! The dOpenCL client driver: handle-based object API.
//!
//! The client driver is the library an OpenCL application links against
//! (Section III-B of the paper).  It presents all devices of every connected
//! server as if they were installed locally (the *dOpenCL platform*,
//! Section III-E), intercepts API calls, and forwards them to the daemons
//! owning the referenced remote objects.
//!
//! # The object model
//!
//! [`Client`] owns the connection state (server roster, event registry,
//! simulation clock) and exposes only *platform-level* operations: server
//! management (the WWU extension of [`crate::ext`]) and device enumeration.
//! Everything else lives on the object that owns the operation, exactly like
//! a native OpenCL binding:
//!
//! ```text
//! Client ──► Context::new(&client, &devices)
//!               │
//!               ├─ context.create_command_queue(&device) ──► CommandQueue
//!               ├─ context.create_buffer(size)           ──► Buffer
//!               └─ context.create_program_with_source(s) ──► Program
//!                     ├─ program.build()
//!                     └─ program.create_kernel(name)     ──► Kernel
//!                           └─ kernel.set_arg(i, arg)
//! ```
//!
//! Enqueue operations are builders on [`CommandQueue`], so new options
//! (batching, async submission) can be added without signature churn:
//!
//! ```text
//! queue.write_buffer(&buf, &data).at_offset(64).after(&[e]).submit()?;
//! let (bytes, event) = queue.read_buffer(&buf).submit()?;
//! queue.launch(&kernel, NdRange::linear(1024)).after(&[e]).submit()?;
//! queue.marker().submit()?;
//! queue.finish()?;
//! ```
//!
//! Every stub holds a weak reference to the client's internals: once the
//! last [`Client`] clone is dropped, using a surviving stub fails with
//! [`DclError::ClientDropped`] instead of panicking or hanging.
//!
//! # Batching & flush semantics
//!
//! Enqueue operations do **not** cross the network one by one.  Each
//! [`CommandQueue`] accumulates its commands client-side and ships the whole
//! run as a single `EnqueueBatch` request — one round trip for N commands
//! instead of N round trips, which is the dominant cost on a
//! gigabit-Ethernet link (Section V of the paper measures exactly this
//! overhead).  Completion comes back in bulk: a small transfer that ran
//! while the daemon handled the batch reports its status in that response,
//! and the others are reported as they finish, a run of commands to one
//! `EventsCompleted` notification, to resolve the client-side [`Event`]s
//! (`ARCHITECTURE.md`, "Completion reporting").
//!
//! A queue's pending batch is flushed by:
//!
//! * a **blocking operation** — `write_buffer(..).blocking()`, the blocking
//!   [`ReadBufferOp::submit`], or [`CommandQueue::finish`];
//! * **waiting on an event** — [`Event::wait`], [`Event::wait_timeout`],
//!   [`Event::wait_all`] flush every pending batch of the client first;
//! * a **marker** — [`CommandQueue::marker`] ships the batch so the marker
//!   observes everything enqueued before it;
//! * an explicit [`CommandQueue::flush`] (`clFlush`);
//! * **dropping** the last clone of the queue (nothing enqueued is ever
//!   silently discarded);
//! * coherence traffic that must observe queued commands: validating a
//!   buffer on another server flushes the source/target servers first, and
//!   [`Client::disconnect_server`] flushes the server being disconnected.
//!
//! Ordering within a batch is preserved, and the daemon chains each entry
//! on its queue predecessor, so an entry that fails mid-batch fails every
//! later entry of that queue (wait-list error, status `-14`) while earlier
//! entries stay completed.  Non-blocking reads are available through
//! [`ReadBufferOp::submit_async`], which returns a [`PendingRead`] whose
//! data is collected at [`PendingRead::wait`] time.  [`Client::set_batching`]
//! disables accumulation (every command ships as a batch of one) for A/B
//! measurements, and [`Client::traffic_stats`] exposes the wire-message
//! counters the `fig7`/`fig8` harnesses record.
//!
//! # Consistency protocols
//!
//! *Compound stubs* (contexts, programs, kernels, buffers, events) replicate
//! calls to every participating server and keep the copies consistent:
//!
//! * memory objects through the directory-based MSI protocol in
//!   [`crate::coherence`], and
//! * events through *replacement* user events, created only where a wait
//!   list crosses servers.  When a command bound for server S waits on an
//!   event owned by another server, the batch carrying the command to S
//!   first creates the replacement there — already terminal, with the
//!   event's status, if the event has finished.  Otherwise, when the owning
//!   daemon reports the completion to the client, the client forwards the
//!   status (success or the error code) to every server holding a
//!   replacement as a one-way notification, so a failed event fails its
//!   dependants there with the wait-list error (`-14`).  Once the
//!   application has dropped every handle to a finished event, its id
//!   rides the next batch to each server that knows it, which then forgets
//!   the event.  Contexts whose wait lists never cross servers pay nothing
//!   for any of this.  `ARCHITECTURE.md` walks through the lifecycle.
//!
//! ## Range coherence
//!
//! The buffer directory tracks validity per **byte range** (an interval map
//! of `range → per-server state`; see the [`crate::coherence`] module docs
//! for the full semantics).  Before a command reads a buffer on a server,
//! the driver asks the directory for a [`crate::coherence::DeltaPlan`] and
//! moves *only the stale ranges*: it downloads the ranges its own copy
//! lacks from their current owners (`DownloadBufferRange`), then uploads
//! the server's stale ranges, all in one `UploadBufferRange`.  Host writes dirty
//! exactly the written range; kernel launches dirty the whole buffer unless
//! the launch declares its access slice with [`LaunchOp::writes_slice`]
//! (or opts out of dirtying entirely with [`LaunchOp::reads_only`]) — which
//! is what lets a buffer be partitioned across daemons, each device owning
//! the slice its launches touch.  When a plan would fragment into more wire
//! operations than the directory's fragmentation cap, it collapses to a
//! whole-buffer transfer.
//!
//! Setting `DCL_COHERENCE=whole` (or [`Client::set_coherence_mode`])
//! puts the same directory under the paper's whole-buffer policy: a kernel
//! launch dirties the whole buffer and every validation ships the whole
//! buffer.  fig7 measures it as the paper baseline against range
//! transfers.  After a failover to a restarted daemon, the supervisor
//! invalidates only that server's ranges, so re-validation traffic is
//! limited to the ranges that were actually lost.
//!
//! All modelled costs (network transfer times from the [`LinkModel`],
//! remote PCIe/bus and kernel execution times reported by the daemons) are
//! charged to the client's [`SimClock`], split into the initialization /
//! execution / data-transfer phases the paper's figures use.
//!
//! # Failure semantics
//!
//! A server connection can die at any moment (daemon crash, network
//! partition, process kill).  The client driver recovers as follows
//! (Section IV-C of the paper describes the daemon-side half).  All it
//! keeps per server (connection, session epoch, setup log, waiting event
//! traffic, counters of retired endpoints) lives in that server's slot of
//! the roster, which outlives every connection to it.
//!
//! * **Detection** — every endpoint's receiver thread reports its own death
//!   through a supervisor callback; callers additionally detect death
//!   through failed calls.  Both paths converge on one single-flight
//!   recovery routine per server, so concurrent detections reconnect once.
//! * **Reconnect** — governed by the client's [`FailoverPolicy`]: the
//!   supervisor redials the server's address with exponential backoff
//!   ([`gcf::retry_with_backoff`]) and re-handshakes with a bumped *session
//!   epoch*.  The daemon parks session state by client identity; a `Hello`
//!   with `epoch > 0` adopts the parked state (`resumed = true`) so every
//!   remote object — and the command dedup window — survives the
//!   connection.
//! * **Re-creation** — when the daemon does *not* resume the session (the
//!   daemon process itself was restarted), the client replays its recorded
//!   setup log (context / queue / buffer / program / kernel creation and
//!   kernel-argument calls) against the fresh daemon, then invalidates the
//!   server's buffer copies in the MSI directory.  The next command that
//!   reads a buffer there re-validates it from a surviving copy through the
//!   normal [`crate::coherence::DeltaPlan`] machinery, re-uploading only
//!   the ranges that are stale there (the whole buffer under the
//!   whole-buffer policy).
//! * **Exactly-once replay** — every batch entry carries a client-generated
//!   `command_id`.  A batch whose response was lost is re-sent verbatim
//!   after the reconnect; the daemon's bounded dedup window recognises ids
//!   it already executed and suppresses re-execution.  The replay needs no
//!   status of its own: a daemon that hands back the parked session reports
//!   again every finished command the client has not released, so a status
//!   lost with the old connection still arrives, and a command still
//!   running reports to the adopting connection when it finishes.
//! * **Giving up** — if redialling exhausts the backoff budget and
//!   [`FailoverPolicy::drop_lost_servers`] is set, the server leaves the
//!   roster through the same routine as an explicit `clDisconnectServerWWU`
//!   ([`Client::disconnect_server`]): its pending batches are discarded,
//!   its outstanding events fail with the wait-list error (`-14`), which is
//!   forwarded to every server holding a replacement so dependants there
//!   fail too, its buffer copies are invalidated (a range only it held
//!   degrades to the client's last copy), its traffic stays counted, and
//!   the application continues on the surviving servers.  Otherwise the
//!   failure surfaces as [`DclError::ServerUnavailable`].
//!
//! Bulk transfers that were *in flight* across the failure are not
//! replayed: a write's stream data and a read's reply stream die with the
//! connection, so the affected events fail (`-14`) and the operation must
//! be re-issued by the application.  Everything request/response-shaped —
//! including whole command batches — is retried transparently.

use crate::coherence::{BufferDirectory, ByteRange, CoherenceMode};
use crate::config;
use crate::error::{DclError, Result};
use crate::protocol::{
    BatchCommand, BatchEntry, ClientNotification, DeviceDescriptor, EventCompletion, Notification,
    ObjectId, Request, Response, ServerInfo, SessionInfo, WireNdRange, WireValue,
};
use gcf::retry::{retry_with_backoff, Backoff};
use gcf::rpc::{Endpoint, EndpointHandler, TrafficStats};
use gcf::simtime::{Phase, SimClock};
use gcf::transport::Transport;
use gcf::wire::{Decode, Encode};
use gcf::LinkModel;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    server: usize,
    descriptor: DeviceDescriptor,
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
    client: Weak<ClientInner>,
    id: ObjectId,
    devices: Vec<Device>,
    servers: Vec<usize>,
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
    id: ObjectId,
    size: usize,
    directory: Arc<Mutex<BufferDirectory>>,
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

    /// Current coherence state of the copy on `server` (for tests and
    /// diagnostics), summarised over the whole buffer: the uniform state if
    /// every range agrees, `Invalid` otherwise.
    pub fn coherence_state(&self, server: ServerId) -> crate::coherence::CoherenceState {
        self.directory.lock().server_state(server.0)
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
    client: Weak<ClientInner>,
    id: ObjectId,
    servers: Vec<usize>,
    /// Parse-only kernel-argument access analysis of the program source
    /// (empty for built-in kernels or unparsable sources).  Kernels created
    /// from this program use it to *derive* coherence launch hints when the
    /// caller gives none.
    access: Arc<Vec<oclc::access::KernelAccess>>,
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
    client: Weak<ClientInner>,
    id: ObjectId,
    name: String,
    servers: Vec<usize>,
    buffer_args: Arc<Mutex<HashMap<u32, Buffer>>>,
    /// Per-argument access derived from the program source (declaration
    /// order = `clSetKernelArg` indices); empty when nothing was derivable.
    derived_access: Arc<Vec<oclc::access::ArgAccess>>,
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
}

impl Kernel {
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
/// Commands accumulate client-side and ship as one batched request; see the
/// [module docs](self#batching--flush-semantics) for when the batch is
/// flushed.
#[derive(Debug, Clone)]
pub struct CommandQueue {
    client: Weak<ClientInner>,
    id: ObjectId,
    server: usize,
    device: Device,
    // RAII guard: flushes the pending batch when the last clone drops.
    _flusher: Arc<QueueFlusher>,
}

/// Flushes a queue's pending batch when the last clone of the queue stub is
/// dropped, so nothing enqueued is ever silently discarded.
#[derive(Debug)]
struct QueueFlusher {
    client: Weak<ClientInner>,
    queue_id: ObjectId,
}

impl Drop for QueueFlusher {
    fn drop(&mut self) {
        if let Some(inner) = self.client.upgrade() {
            let _ = inner.flush_queue(self.queue_id);
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

    /// `clFlush`: ship this queue's pending batch to its server without
    /// waiting for completion.  Event releases still waiting for a batch to
    /// that server go with it — on their own, as one one-way notification,
    /// if nothing is pending.
    pub fn flush(&self) -> Result<()> {
        let inner = self.inner()?;
        inner.flush_queue(self.id)?;
        inner.flush_releases(self.server);
        Ok(())
    }

    /// Number of commands accumulated client-side and not yet shipped.
    pub fn pending_commands(&self) -> usize {
        self.inner().map(|inner| inner.pending_commands(self.id)).unwrap_or(0)
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
    client: Weak<ClientInner>,
    server: usize,
    stream_id: u64,
    offset: usize,
    len: usize,
    buffer: Buffer,
    event: Event,
    collected: bool,
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
        self.buffer.directory.lock().record_host_read(self.server, self.offset, &data);
        Ok((data, self.event.clone()))
    }
}

impl Drop for PendingRead {
    fn drop(&mut self) {
        if self.collected {
            return;
        }
        // The daemon streams the data whether or not anyone waits for it.
        if let Some(conn) = self.client.upgrade().and_then(|inner| inner.server(self.server).ok()) {
            conn.endpoint.discard_bulk(self.stream_id);
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
enum AccessHint {
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

    /// Enqueue the marker; returns its completion event.  Ships the queue's
    /// pending batch so the marker observes every command enqueued before
    /// it.
    pub fn submit(self) -> Result<Event> {
        let inner = self.queue.inner()?;
        let event =
            inner.enqueue(self.queue, Phase::Execution, BatchCommand::Marker, &self.wait)?;
        inner.flush_queue(self.queue.id)?;
        Ok(event)
    }
}

/// Client-side state of one event, shared by its [`Event`] handles and —
/// until the event is terminal — the client's event table.
struct EventRecord {
    // Back-reference so that waiting on an event can flush the pending
    // batches the event's command may still be sitting in.
    client: Weak<ClientInner>,
    id: ObjectId,
    owner: usize,
    phase: Phase,
    state: Mutex<EventState>,
    cond: Condvar,
}

#[derive(Default)]
struct EventState {
    /// Terminal status, once the owning server reported it (or the client
    /// failed the command locally).
    status: Option<i32>,
    modeled: Duration,
    /// Servers holding a replacement for this event: a command bound there
    /// waits on it.  Those added while `status` is `None` get the status
    /// forwarded; all of them get the release.
    replicas: Vec<usize>,
    /// The status is known and forwarded; waiters see the event terminal
    /// from here on.
    settled: bool,
    /// The last [`Event`] handle is gone.
    unreferenced: bool,
}

impl EventRecord {
    fn new(client: Weak<ClientInner>, id: ObjectId, owner: usize, phase: Phase) -> Arc<Self> {
        Arc::new(EventRecord {
            client,
            id,
            owner,
            phase,
            state: Mutex::new(EventState::default()),
            cond: Condvar::new(),
        })
    }

    /// Record that `server` gets a replacement for this event and return the
    /// status to create it with: the terminal status if it is known, else
    /// `None`, and the completion will be forwarded to `server`.  One lock
    /// covers the check and the insert, so no completion slips in between.
    fn replicate_on(&self, server: usize) -> Option<i32> {
        let mut state = self.state.lock();
        if !state.replicas.contains(&server) {
            state.replicas.push(server);
        }
        state.status
    }

    /// The last handle dropped: release the event once it is settled (now,
    /// if it already is).
    fn unreference(&self) {
        let settled = {
            let mut state = self.state.lock();
            state.unreferenced = true;
            state.settled
        };
        if settled {
            if let Some(inner) = self.client.upgrade() {
                inner.release_event(self);
            }
        }
    }
}

/// The application's share of an [`EventRecord`]: dropping the last one
/// releases the event.  Pending batches hold one for every event their
/// commands wait on, so a dependency outlives the commands waiting on it.
struct EventHandle(Arc<EventRecord>);

impl Drop for EventHandle {
    fn drop(&mut self) {
        self.0.unreference();
    }
}

/// An event stub (compound stub).  The original event lives on the owning
/// server.  A server whose command waits on it holds a replacement user
/// event, created by that command's batch and completed by the client's
/// status forward.  Dropping the last clone releases the event on every
/// server that knows it (see the [module docs](self#consistency-protocols)).
#[derive(Clone)]
pub struct Event {
    handle: Arc<EventHandle>,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id())
            .field("status", &self.record().state.lock().status)
            .finish()
    }
}

impl Event {
    fn record(&self) -> &Arc<EventRecord> {
        &self.handle.0
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.record().id
    }

    /// The server owning the original event.
    pub fn owner(&self) -> ServerId {
        ServerId(self.record().owner)
    }

    /// Whether the event reached a terminal state: its status is known.
    /// [`Event::wait`] returns only once the status has also been forwarded
    /// to the servers holding a replacement, but a dependant there can
    /// finish in between, and its own wait must not find this event
    /// pending.
    pub fn is_terminal(&self) -> bool {
        self.record().state.lock().status.is_some()
    }

    /// Block until the command completes; errors if the command failed.
    ///
    /// Flushes every pending command batch of the client first: the command
    /// this event belongs to (or one it transitively waits on) may not have
    /// been shipped yet.
    pub fn wait(&self) -> Result<()> {
        self.flush_if_pending();
        let record = self.record();
        let mut state = record.state.lock();
        while !state.settled {
            record.cond.wait(&mut state);
        }
        outcome(state.status)
    }

    /// Wait with a timeout; `Ok(false)` means it expired.  Flushes pending
    /// batches like [`Event::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<bool> {
        self.flush_if_pending();
        let record = self.record();
        let mut state = record.state.lock();
        let deadline = std::time::Instant::now() + timeout;
        while !state.settled {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            record.cond.wait_for(&mut state, deadline - now);
        }
        outcome(state.status).map(|()| true)
    }

    /// `clWaitForEvents`: wait for every event in `events`.
    pub fn wait_all(events: &[Event]) -> Result<()> {
        for e in events {
            e.wait()?;
        }
        Ok(())
    }

    /// Modelled duration reported by the owning server (kernel execution or
    /// PCIe transfer time).
    pub fn modeled_duration(&self) -> Duration {
        self.record().state.lock().modeled
    }

    /// Ship every pending batch if this event is not terminal yet (its
    /// command, or a dependency, may still be accumulating client-side).
    /// Transport failures surface through the event status, not here.
    fn flush_if_pending(&self) {
        if !self.is_terminal() {
            if let Some(inner) = self.record().client.upgrade() {
                inner.flush_all();
            }
        }
    }
}

/// The result of a settled event's status.
fn outcome(status: Option<i32>) -> Result<()> {
    match status {
        Some(0) => Ok(()),
        code => Err(DclError::Cl(vocl::ClError::ExecutionFailure(format!(
            "remote command failed with status {}",
            code.unwrap_or(-14)
        )))),
    }
}

fn ids(events: &[Event]) -> Vec<ObjectId> {
    events.iter().map(Event::id).collect()
}

/// A batch entry that carries event bookkeeping rather than a command.
fn bookkeeping_entry(event_id: ObjectId, command: BatchCommand) -> BatchEntry {
    BatchEntry { command_id: 0, queue_id: 0, event_id, wait_events: Vec::new(), command }
}

/// The client's own verdict on a command that never ran: status `code`, no
/// modelled time.
fn failed_completion(event_id: ObjectId, code: i32) -> EventCompletion {
    EventCompletion { event_id, status: code, modeled_nanos: 0, work_items: 0 }
}

fn upgrade(client: &Weak<ClientInner>) -> Result<Arc<ClientInner>> {
    client.upgrade().ok_or(DclError::ClientDropped)
}

/// How the client reacts to a dead server connection (see the
/// [module docs](self#failure-semantics)).
#[derive(Debug, Clone, Copy)]
pub struct FailoverPolicy {
    /// Attempt to reconnect at all.  With `false` a dead connection
    /// immediately surfaces as [`DclError::ServerUnavailable`].
    pub reconnect: bool,
    /// Redial schedule (exponential backoff with deterministic jitter).
    pub backoff: Backoff,
    /// When redialling gives up, drop the server like an explicit
    /// disconnect and continue on the survivors instead of erroring every
    /// subsequent operation.
    pub drop_lost_servers: bool,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy { reconnect: true, backoff: Backoff::default(), drop_lost_servers: false }
    }
}

impl FailoverPolicy {
    /// No recovery at all: any connection failure is immediately fatal for
    /// the affected server (the pre-fault-tolerance behaviour).
    pub fn fail_fast() -> Self {
        FailoverPolicy { reconnect: false, backoff: Backoff::default(), drop_lost_servers: false }
    }
}

/// One server's record in the client's roster: everything the client
/// keeps per server, from `connect_server` until the server leaves.  Slots
/// are never removed, so a [`ServerId`] stays an index into the roster.
#[derive(Default)]
struct ServerSlot {
    /// The connection; `None` once the server has left.  While the server
    /// is reconnecting it is the dead one, whose name is the address to
    /// redial.
    conn: Option<Arc<ServerConn>>,
    /// Session epoch of the current connection; bumped on every reconnect
    /// so the daemon can tell a revival from a fresh client.
    epoch: u64,
    /// Initialization-phase requests replayed verbatim when the daemon did
    /// not park our session (it was restarted): re-creates every remote
    /// object in original order.
    setup_log: Vec<Request>,
    /// A reconnect is in flight; other detections wait on `recovery_cond`.
    reconnecting: bool,
    /// Redialling gave up under [`FailoverPolicy::drop_lost_servers`].
    lost: bool,
    /// Event traffic waiting to travel.  Its lock is held across the sends,
    /// so forwards and releases reach the server in order, and is never
    /// taken while the roster lock is held.
    outbox: Arc<Mutex<Outbox>>,
    /// Counters of the server's replaced or closed endpoints, plus its
    /// reconnects and retries; `traffic_stats` adds the live endpoint's.
    retired: TrafficStats,
}

struct ServerConn {
    /// The address dialled.
    name: String,
    endpoint: Arc<Endpoint>,
    devices: Vec<DeviceDescriptor>,
}

/// A queue's accumulated, not-yet-shipped commands.
struct PendingBatch {
    server: usize,
    entries: Vec<BatchEntry>,
    /// Replacements the entries need on `server`: `(event id, status to
    /// create it with)`, each event once.
    replacements: Vec<(ObjectId, Option<i32>)>,
    /// Handles of every event the entries wait on, held until the batch has
    /// shipped so none of them is released while a command waits on it.
    waits: Vec<Event>,
}

/// Event traffic for one server that waits for a chance to travel.
#[derive(Default)]
struct Outbox {
    /// Status forwards whose notification failed (the server is
    /// reconnecting); re-sent once it is back, before any release.
    forwards: Vec<(ObjectId, i32)>,
    /// Released event ids; they ride the next batch to the server.
    released: Vec<ObjectId>,
}

/// Release-list length at which the list stops waiting for a batch and
/// travels on its own, as one notification.
const RELEASE_NOTIFY_AT: usize = 512;

/// Client-side command accumulation across all queues.
///
/// `event_queue` maps each pending entry's event to the queue holding it, so
/// a wait list referencing an event of *another* queue can flush that queue
/// first (the daemon resolves wait lists at enqueue time).
#[derive(Default)]
struct BatchState {
    queues: HashMap<ObjectId, PendingBatch>,
    event_queue: HashMap<ObjectId, ObjectId>,
}

struct ClientInner {
    name: String,
    // Needed to hand batches and event records a weak back-reference.
    self_weak: Weak<ClientInner>,
    transport: Arc<dyn Transport>,
    link: LinkModel,
    clock: SimClock,
    next_id: AtomicU64,
    /// The roster: one slot per server ever connected, indexed by
    /// [`ServerId`].  No network write happens while its lock is held.
    servers: Mutex<Vec<ServerSlot>>,
    /// Events not yet terminal, by id, for the completion reports.
    events: Mutex<HashMap<ObjectId, Arc<EventRecord>>>,
    batches: Mutex<BatchState>,
    batching: AtomicBool,
    auth_id: Mutex<Option<String>>,
    /// Signalled, with the roster lock, when a reconnect attempt (any
    /// server) finishes.
    recovery_cond: Condvar,
    failover: Mutex<FailoverPolicy>,
    /// Directories of every live buffer, so a reconnect to a restarted
    /// daemon can invalidate that server's copies.
    buffer_dirs: Mutex<Vec<Weak<Mutex<BufferDirectory>>>>,
    /// Coherence policy for buffers created from now on (initialised from
    /// `DCL_COHERENCE`; see [`crate::coherence::CoherenceMode`]).
    coherence_mode: Mutex<CoherenceMode>,
}

impl ClientInner {
    fn server(&self, index: usize) -> Result<Arc<ServerConn>> {
        self.servers
            .lock()
            .get(index)
            .and_then(|slot| slot.conn.clone())
            .ok_or_else(|| DclError::ServerUnavailable(format!("server #{index}")))
    }

    /// Every connected server, by roster index.
    fn connected(&self) -> Vec<(usize, Arc<ServerConn>)> {
        let servers = self.servers.lock();
        servers.iter().enumerate().filter_map(|(i, slot)| Some((i, slot.conn.clone()?))).collect()
    }

    /// `server`'s outbox, or `None` once the server has left: its event
    /// traffic has nowhere to go.
    fn outbox(&self, server: usize) -> Option<Arc<Mutex<Outbox>>> {
        let servers = self.servers.lock();
        let slot = servers.get(server)?;
        slot.conn.as_ref().map(|_| Arc::clone(&slot.outbox))
    }

    fn allocate_id(&self) -> ObjectId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Apply the completions of one frame or response, in order: take their
    /// records out of the event table under one lock, then store, forward
    /// and settle each.  Ids the table no longer holds (already settled, or
    /// reported twice across a reconnect) are skipped.
    fn complete_events(&self, completions: &[EventCompletion]) {
        let records: Vec<(Arc<EventRecord>, &EventCompletion)> = {
            let mut events = self.events.lock();
            completions.iter().filter_map(|c| Some((events.remove(&c.event_id)?, c))).collect()
        };
        for (record, completion) in records {
            self.settle(&record, completion.status, completion.modeled_nanos);
        }
    }

    /// Store `status` on an event taken out of the event table, forward it,
    /// then wake the event's waiters.
    fn settle(&self, record: &Arc<EventRecord>, status: i32, modeled_nanos: u64) {
        let event_id = record.id;
        let modeled = Duration::from_nanos(modeled_nanos);
        self.clock.charge(record.phase, modeled);
        // Event consistency: forward the status to every server holding a
        // replacement.  From here on `replicate_on` sees the status, so a
        // replacement requested later is created terminal instead.
        let replicas = {
            let mut state = record.state.lock();
            state.status = Some(status);
            state.modeled = modeled;
            state.replicas.clone()
        };
        for server in replicas {
            self.forward_status(server, event_id, status);
        }
        // Waiters wake only now: once `wait` returns, the forwards are out.
        let unreferenced = {
            let mut state = record.state.lock();
            state.settled = true;
            record.cond.notify_all();
            state.unreferenced
        };
        if unreferenced {
            self.release_event(record);
        }
    }

    /// Send `status` for `event_id` to `server`'s replacement as a one-way
    /// notification.  If the server is reconnecting the forward waits in its
    /// outbox and goes out once `recover_server` succeeds.
    fn forward_status(&self, server: usize, event_id: ObjectId, status: i32) {
        let Some(outbox) = self.outbox(server) else { return };
        let mut outbox = outbox.lock();
        outbox.forwards.push((event_id, status));
        self.send_forwards(server, &mut outbox);
    }

    /// Send `server`'s waiting forwards, in order, until one fails.
    fn send_forwards(&self, server: usize, outbox: &mut Outbox) {
        if outbox.forwards.is_empty() {
            return;
        }
        let Ok(conn) = self.server(server) else { return };
        let mut sent = 0;
        for &(event_id, status) in &outbox.forwards {
            let forward = ClientNotification::EventStatus { event_id, status };
            if conn.endpoint.notify(forward.to_bytes()).is_err() {
                break;
            }
            sent += 1;
        }
        outbox.forwards.drain(..sent);
    }

    /// Queue `record`'s id for release on its owner and on every server
    /// holding a replacement for it.  Called once the event is settled and
    /// its last handle is gone, so no command waits on it any more.
    fn release_event(&self, record: &EventRecord) {
        let replicas = std::mem::take(&mut record.state.lock().replicas);
        for server in std::iter::once(record.owner).chain(replicas) {
            let Some(outbox) = self.outbox(server) else { continue };
            let mut outbox = outbox.lock();
            outbox.released.push(record.id);
            if outbox.released.len() >= RELEASE_NOTIFY_AT {
                self.send_releases(server, &mut outbox);
            }
        }
    }

    /// Take `server`'s release list for the batch about to ship there.  Empty
    /// while a status forward to the server is still waiting: a release must
    /// not overtake the forward to the replacement it releases.
    fn take_releases(&self, server: usize) -> Vec<ObjectId> {
        let Some(outbox) = self.outbox(server) else { return Vec::new() };
        let mut outbox = outbox.lock();
        self.send_forwards(server, &mut outbox);
        if outbox.forwards.is_empty() {
            std::mem::take(&mut outbox.released)
        } else {
            Vec::new()
        }
    }

    /// Ship `server`'s release list on its own, as one notification (same
    /// ordering rule as [`ClientInner::take_releases`]).  A list whose send
    /// fails is dropped with its connection.
    fn send_releases(&self, server: usize, outbox: &mut Outbox) {
        self.send_forwards(server, outbox);
        if outbox.released.is_empty() || !outbox.forwards.is_empty() {
            return;
        }
        let event_ids = std::mem::take(&mut outbox.released);
        if let Ok(conn) = self.server(server) {
            let release = ClientNotification::ReleaseEvents { event_ids };
            let _ = conn.endpoint.notify(release.to_bytes());
        }
    }

    fn flush_releases(&self, server: usize) {
        if let Some(outbox) = self.outbox(server) {
            self.send_releases(server, &mut outbox.lock());
        }
    }

    // ----- object creation (compound stubs) --------------------------------

    fn create_context(self: &Arc<Self>, devices: &[Device]) -> Result<Context> {
        if devices.is_empty() {
            return Err(DclError::InvalidArgument("a context needs at least one device".into()));
        }
        let id = self.allocate_id();
        let mut per_server: HashMap<usize, Vec<ObjectId>> = HashMap::new();
        for d in devices {
            per_server.entry(d.server).or_default().push(d.descriptor.remote_id);
        }
        let mut servers: Vec<usize> = per_server.keys().copied().collect();
        servers.sort_unstable();
        for (&server, device_ids) in &per_server {
            self.call_server(
                server,
                Request::CreateContext { context_id: id, devices: device_ids.clone() },
                Phase::Initialization,
            )?;
        }
        Ok(Context { client: Arc::downgrade(self), id, devices: devices.to_vec(), servers })
    }

    fn create_command_queue(
        self: &Arc<Self>,
        context: &Context,
        device: &Device,
    ) -> Result<CommandQueue> {
        if !context.devices.iter().any(|d| {
            d.server == device.server && d.descriptor.remote_id == device.descriptor.remote_id
        }) {
            return Err(DclError::InvalidArgument("the device is not part of the context".into()));
        }
        let id = self.allocate_id();
        self.call_server(
            device.server,
            Request::CreateCommandQueue {
                queue_id: id,
                context_id: context.id,
                device: device.descriptor.remote_id,
            },
            Phase::Initialization,
        )?;
        Ok(CommandQueue {
            client: Arc::downgrade(self),
            id,
            server: device.server,
            device: device.clone(),
            _flusher: Arc::new(QueueFlusher { client: Arc::downgrade(self), queue_id: id }),
        })
    }

    fn create_buffer(self: &Arc<Self>, context: &Context, size: usize) -> Result<Buffer> {
        if size == 0 {
            return Err(DclError::InvalidArgument("buffer size must be non-zero".into()));
        }
        let id = self.allocate_id();
        for &server in &context.servers {
            self.call_server(
                server,
                Request::CreateBuffer {
                    buffer_id: id,
                    context_id: context.id,
                    size: size as u64,
                    readable: true,
                    writable: true,
                },
                Phase::Initialization,
            )?;
        }
        let directory = Arc::new(Mutex::new(BufferDirectory::new_with_mode(
            context.servers.iter().copied(),
            size,
            *self.coherence_mode.lock(),
        )));
        // Track the directory so a reconnect to a restarted daemon can
        // invalidate that server's copies.
        self.buffer_dirs.lock().push(Arc::downgrade(&directory));
        Ok(Buffer { id, size, directory })
    }

    fn create_program_with_source(
        self: &Arc<Self>,
        context: &Context,
        source: &str,
    ) -> Result<Program> {
        let id = self.allocate_id();
        for &server in &context.servers {
            // Program code is shipped to every server: charge the transfer.
            self.clock.charge(Phase::Initialization, self.link.transfer_time(source.len() as u64));
            self.call_server(
                server,
                Request::CreateProgramWithSource {
                    program_id: id,
                    context_id: context.id,
                    source: source.to_string(),
                },
                Phase::Initialization,
            )?;
        }
        Ok(Program {
            client: Arc::downgrade(self),
            id,
            servers: context.servers.clone(),
            // Parse-only (never bumps the build counter); a source the
            // parser rejects simply derives no hints — the build on the
            // daemon reports the real error.
            access: Arc::new(oclc::access::analyze(source).unwrap_or_default()),
        })
    }

    fn create_program_with_built_in_kernels(
        self: &Arc<Self>,
        context: &Context,
        names: &str,
    ) -> Result<Program> {
        let id = self.allocate_id();
        for &server in &context.servers {
            self.call_server(
                server,
                Request::CreateProgramWithBuiltInKernels {
                    program_id: id,
                    context_id: context.id,
                    names: names.to_string(),
                },
                Phase::Initialization,
            )?;
        }
        Ok(Program {
            client: Arc::downgrade(self),
            id,
            servers: context.servers.clone(),
            access: Arc::new(Vec::new()),
        })
    }

    fn build_program(&self, program: &Program) -> Result<()> {
        for &server in &program.servers {
            match self.call_server(
                server,
                Request::BuildProgram { program_id: program.id },
                Phase::Initialization,
            ) {
                Ok(_) => {}
                Err(e) => {
                    let log = self.get_build_log(program).unwrap_or_default();
                    return Err(DclError::Cl(vocl::ClError::BuildProgramFailure(format!(
                        "{e}\n{log}"
                    ))));
                }
            }
        }
        Ok(())
    }

    fn get_build_log(&self, program: &Program) -> Result<String> {
        let server = *program
            .servers
            .first()
            .ok_or_else(|| DclError::InvalidArgument("program has no servers".into()))?;
        match self.call_server(
            server,
            Request::GetBuildLog { program_id: program.id },
            Phase::Initialization,
        )? {
            Response::BuildLog { log } => Ok(log),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    fn create_kernel(self: &Arc<Self>, program: &Program, name: &str) -> Result<Kernel> {
        let id = self.allocate_id();
        for &server in &program.servers {
            self.call_server(
                server,
                Request::CreateKernel {
                    kernel_id: id,
                    program_id: program.id,
                    name: name.to_string(),
                },
                Phase::Initialization,
            )?;
        }
        let derived_access = program
            .access
            .iter()
            .find(|k| k.name == name)
            .map(|k| Arc::new(k.args.clone()))
            .unwrap_or_default();
        Ok(Kernel {
            client: Arc::downgrade(self),
            id,
            name: name.to_string(),
            servers: program.servers.clone(),
            buffer_args: Arc::new(Mutex::new(HashMap::new())),
            derived_access,
        })
    }

    fn set_kernel_arg(&self, kernel: &Kernel, index: u32, arg: Arg) -> Result<()> {
        match arg {
            Arg::Scalar(value) => {
                kernel.buffer_args.lock().remove(&index);
                for &server in &kernel.servers {
                    self.call_server(
                        server,
                        Request::SetKernelArgScalar {
                            kernel_id: kernel.id,
                            index,
                            value: WireValue(value.clone()),
                        },
                        Phase::Initialization,
                    )?;
                }
            }
            Arg::Buffer(buffer) => {
                for &server in &kernel.servers {
                    self.call_server(
                        server,
                        Request::SetKernelArgBuffer {
                            kernel_id: kernel.id,
                            index,
                            buffer_id: buffer.id,
                        },
                        Phase::Initialization,
                    )?;
                }
                kernel.buffer_args.lock().insert(index, buffer);
            }
            Arg::Local(bytes) => {
                kernel.buffer_args.lock().remove(&index);
                for &server in &kernel.servers {
                    self.call_server(
                        server,
                        Request::SetKernelArgLocal {
                            kernel_id: kernel.id,
                            index,
                            bytes: bytes as u64,
                        },
                        Phase::Initialization,
                    )?;
                }
            }
        }
        Ok(())
    }

    // ----- command batching -------------------------------------------------

    /// Append an entry, which waits on `wait`, to its queue's pending batch.
    ///
    /// If the entry waits on events whose commands are still pending in
    /// *other* queues, those queues are flushed first: the daemon resolves
    /// wait lists at enqueue time, so every dependency must be on its server
    /// before this entry arrives.  A wait-list event owned by another server
    /// gets a replacement on this one, created by the same batch (event
    /// consistency, Section III-D).  With batching disabled the entry ships
    /// immediately as a batch of one (the pre-batching wire behaviour).
    fn push_batch_entry(&self, server: usize, entry: BatchEntry, wait: &[Event]) -> Result<()> {
        let queue_id = entry.queue_id;
        let cross_queues: Vec<ObjectId> = {
            let state = self.batches.lock();
            wait.iter()
                .filter_map(|event| state.event_queue.get(&event.id()).copied())
                .filter(|q| *q != queue_id)
                .collect()
        };
        for q in cross_queues {
            self.flush_queue(q)?;
        }
        let replacements: Vec<(ObjectId, Option<i32>)> = wait
            .iter()
            .filter(|event| event.record().owner != server)
            .map(|event| (event.id(), event.record().replicate_on(server)))
            .collect();
        {
            let mut state = self.batches.lock();
            state.event_queue.insert(entry.event_id, queue_id);
            let batch = state.queues.entry(queue_id).or_insert_with(|| PendingBatch {
                server,
                entries: Vec::new(),
                replacements: Vec::new(),
                waits: Vec::new(),
            });
            for replacement in replacements {
                if !batch.replacements.iter().any(|(id, _)| *id == replacement.0) {
                    batch.replacements.push(replacement);
                }
            }
            batch.waits.extend_from_slice(wait);
            batch.entries.push(entry);
        }
        if !self.batching.load(Ordering::Relaxed) {
            self.flush_queue(queue_id)?;
        }
        Ok(())
    }

    /// Ship a queue's pending batch as one `EnqueueBatch` request.  A no-op
    /// if the queue has nothing pending.
    fn flush_queue(&self, queue_id: ObjectId) -> Result<()> {
        let batch = {
            let mut state = self.batches.lock();
            let Some(batch) = state.queues.remove(&queue_id) else { return Ok(()) };
            for entry in &batch.entries {
                state.event_queue.remove(&entry.event_id);
            }
            batch
        };
        self.ship_batch(batch)
    }

    /// Ship every pending batch of `server` (used before coherence traffic
    /// and disconnects that must observe queued commands).
    fn flush_server(&self, server: usize) -> Result<()> {
        loop {
            let queue_id = {
                let state = self.batches.lock();
                state.queues.iter().find(|(_, b)| b.server == server).map(|(id, _)| *id)
            };
            match queue_id {
                Some(q) => self.flush_queue(q)?,
                None => return Ok(()),
            }
        }
    }

    /// Ship every pending batch, best effort: transport failures fail the
    /// affected events locally and are not propagated.
    fn flush_all(&self) {
        loop {
            let queue_id = { self.batches.lock().queues.keys().next().copied() };
            match queue_id {
                Some(q) => {
                    let _ = self.flush_queue(q);
                }
                None => return,
            }
        }
    }

    fn pending_commands(&self, queue_id: ObjectId) -> usize {
        self.batches.lock().queues.get(&queue_id).map_or(0, |b| b.entries.len())
    }

    /// Ship `batch` as one `EnqueueBatch`: the server's release list first,
    /// then the replacements the commands need, then the commands.  The
    /// batch's wait-list handles drop when this returns.
    fn ship_batch(&self, batch: PendingBatch) -> Result<()> {
        if batch.entries.is_empty() {
            return Ok(());
        }
        let event_ids: Vec<ObjectId> = batch.entries.iter().map(|e| e.event_id).collect();
        let has_transfer = batch.entries.iter().any(|e| {
            matches!(e.command, BatchCommand::WriteBuffer { .. } | BatchCommand::ReadBuffer { .. })
        });
        let phase = if has_transfer { Phase::DataTransfer } else { Phase::Execution };
        if let Err(e) = self.server(batch.server) {
            self.fail_events(&event_ids, -14);
            return Err(e);
        }
        let released = self.take_releases(batch.server);
        let mut entries = Vec::with_capacity(batch.entries.len() + batch.replacements.len() + 1);
        if !released.is_empty() {
            entries.push(bookkeeping_entry(0, BatchCommand::Release { event_ids: released }));
        }
        for &(event_id, status) in &batch.replacements {
            entries.push(bookkeeping_entry(event_id, BatchCommand::Replacement { status }));
        }
        let first_command = entries.len();
        entries.extend(batch.entries);
        let request = Request::EnqueueBatch { entries };
        // One round trip for the whole batch — the point of accumulating.
        // Goes through the recovery path: if the connection dies mid-call
        // the batch is re-sent verbatim after the reconnect, and the
        // daemon's dedup window (keyed by the entries' command ids) makes
        // the replay execute exactly once.
        let payload = self.encode_charged(phase, &request);
        let response = match self.call_with_recovery(batch.server, &payload) {
            Ok(response) => response,
            Err(e) => {
                self.fail_events(&event_ids, -14);
                return Err(e);
            }
        };
        let (statuses, mut completed) = match response {
            Response::BatchEnqueued { statuses, completed } => (statuses, completed),
            Response::Error { code, message } => {
                self.fail_events(&event_ids, code);
                return Err(DclError::Protocol(format!("server error {code}: {message}")));
            }
            other => {
                self.fail_events(&event_ids, -14);
                return Err(DclError::Protocol(format!("unexpected response {other:?}")));
            }
        };
        // The daemon stops at the first entry that fails to *enqueue*; its
        // status carries the error, entries past it were never attempted and
        // fail with the wait-list error code.  The failures settle after the
        // completions the response carries.
        let mut first_error = None;
        for (index, &event_id) in event_ids.iter().enumerate() {
            let code = match statuses.get(first_command + index) {
                Some(status) if status.code == 0 => continue,
                Some(status) => {
                    first_error.get_or_insert_with(|| {
                        DclError::Protocol(format!(
                            "batch entry {index} failed: {} (code {})",
                            status.message, status.code
                        ))
                    });
                    status.code
                }
                None => -14,
            };
            completed.push(failed_completion(event_id, code));
        }
        self.complete_events(&completed);
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn fail_events(&self, event_ids: &[ObjectId], code: i32) {
        let failed: Vec<EventCompletion> =
            event_ids.iter().map(|&event_id| failed_completion(event_id, code)).collect();
        self.complete_events(&failed);
    }

    // ----- command execution -----------------------------------------------

    fn enqueue_write(
        &self,
        queue: &CommandQueue,
        buffer: &Buffer,
        offset: usize,
        data: &[u8],
        wait: &[Event],
    ) -> Result<Event> {
        if offset.checked_add(data.len()).is_none_or(|end| end > buffer.size) {
            return Err(DclError::InvalidArgument(format!(
                "write of {} bytes at offset {offset} exceeds buffer size {}",
                data.len(),
                buffer.size
            )));
        }
        let server = queue.server;
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();

        // Stream-based communication: the payload crosses the network now;
        // FIFO ordering guarantees it reaches the daemon ahead of the
        // batched request that references it.
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        let sent = conn.endpoint.send_bulk(stream_id, data).map_err(DclError::from);
        self.recover_after_bulk(server, sent)?;

        let command = BatchCommand::WriteBuffer {
            buffer_id: buffer.id,
            offset: offset as u64,
            size: data.len() as u64,
            stream_id,
        };
        let event = self.enqueue(queue, Phase::DataTransfer, command, wait)?;
        buffer.directory.lock().record_host_write(server, offset, data);
        Ok(event)
    }

    fn enqueue_read_async(
        &self,
        queue: &CommandQueue,
        buffer: &Buffer,
        offset: usize,
        len: usize,
        wait: &[Event],
    ) -> Result<PendingRead> {
        if offset.checked_add(len).is_none_or(|end| end > buffer.size) {
            return Err(DclError::InvalidArgument(format!(
                "read of {len} bytes at offset {offset} exceeds buffer size {}",
                buffer.size
            )));
        }
        let server = queue.server;
        self.ensure_valid_range_on(server, buffer, None)?;
        let stream_id = self.server(server)?.endpoint.allocate_id();
        let command = BatchCommand::ReadBuffer {
            buffer_id: buffer.id,
            offset: offset as u64,
            size: len as u64,
            stream_id,
        };
        let event = self.enqueue(queue, Phase::DataTransfer, command, wait)?;
        Ok(PendingRead {
            client: self.self_weak.clone(),
            server,
            stream_id,
            offset,
            len,
            buffer: buffer.clone(),
            event,
            collected: false,
        })
    }

    fn enqueue_launch(
        &self,
        queue: &CommandQueue,
        kernel: &Kernel,
        range: NdRange,
        wait: &[Event],
        access: &[(ObjectId, AccessHint)],
    ) -> Result<Event> {
        let server = queue.server;
        let explicit = |id: ObjectId| access.iter().rev().find(|(b, _)| *b == id).map(|(_, h)| *h);
        // Derived hints: where the caller gave no explicit hint, fall back
        // to the parse-time access analysis of the kernel source.  A
        // provably read-only argument skips dirtying; an argument whose
        // every access is indexed by the linear global id touches exactly
        // the byte slice a 1-D launch implies.
        let (work_dim, offset0, global0) = (range.work_dim, range.offset[0], range.global[0]);
        let derived = move |index: u32, buffer: &Buffer| -> Option<AccessHint> {
            match kernel.derived_access.get(index as usize)? {
                oclc::access::ArgAccess::ReadOnly => Some(AccessHint::ReadsOnly),
                oclc::access::ArgAccess::WrittenLinear { elem_bytes } if work_dim == 1 => {
                    let start = offset0.saturating_mul(*elem_bytes);
                    let end = offset0.saturating_add(global0).saturating_mul(*elem_bytes);
                    Some(AccessHint::Touches(ByteRange::new(start, end).clamp_to(buffer.size)))
                }
                _ => None,
            }
        };
        let hint_for =
            |index: u32, buffer: &Buffer| explicit(buffer.id).or_else(|| derived(index, buffer));
        // Memory consistency: the target server needs a valid copy of every
        // memory object the kernel may read — only the declared slice for
        // launches carrying an access hint.
        let buffer_args: Vec<(u32, Buffer)> =
            kernel.buffer_args.lock().iter().map(|(i, b)| (*i, b.clone())).collect();
        for (index, buffer) in &buffer_args {
            match hint_for(*index, buffer) {
                Some(AccessHint::Touches(slice)) => {
                    self.ensure_valid_range_on(server, buffer, Some(slice))?
                }
                _ => self.ensure_valid_range_on(server, buffer, None)?,
            }
        }
        let command = BatchCommand::NdRange { kernel_id: kernel.id, range: WireNdRange(range) };
        let event = self.enqueue(queue, Phase::Execution, command, wait)?;
        // The kernel may have written any of its buffer arguments — only
        // the declared (or derived) slice when the launch carries an access
        // hint, and nothing at all for read-only arguments.
        for (index, buffer) in &buffer_args {
            match hint_for(*index, buffer) {
                Some(AccessHint::ReadsOnly) => {}
                Some(AccessHint::Touches(slice)) => {
                    buffer.directory.lock().record_device_write_range(server, slice)
                }
                None => buffer.directory.lock().record_device_write(server),
            }
        }
        Ok(event)
    }

    // ----- internals --------------------------------------------------------

    /// Track a new event for `command` and append the command, waiting on
    /// `wait`, to `queue`'s pending batch; if it cannot be queued, the event
    /// fails with the wait-list error.  No server hears of the event until
    /// the command ships; replacements elsewhere are created only when a
    /// command bound for another server waits on it (see
    /// `push_batch_entry`).
    fn enqueue(
        &self,
        queue: &CommandQueue,
        phase: Phase,
        command: BatchCommand,
        wait: &[Event],
    ) -> Result<Event> {
        let event_id = self.allocate_id();
        let record = EventRecord::new(self.self_weak.clone(), event_id, queue.server, phase);
        self.events.lock().insert(event_id, Arc::clone(&record));
        let event = Event { handle: Arc::new(EventHandle(record)) };
        let command_id = self.allocate_id();
        let wait_events = ids(wait);
        let entry = BatchEntry { command_id, queue_id: queue.id, event_id, wait_events, command };
        if let Err(e) = self.push_batch_entry(queue.server, entry, wait) {
            self.fail_events(&[event_id], -14);
            return Err(e);
        }
        Ok(event)
    }

    /// Run the coherence delta plan so that `server` holds a valid copy of
    /// `range` of `buffer` (`None` = the whole buffer): download the ranges
    /// the client copy lacks from their owners, then upload exactly the
    /// server's stale ranges.
    ///
    /// Coherence traffic bypasses the command queues, so any pending batch
    /// on a server whose copy participates (the fetch sources, the upload
    /// target) is flushed first — the queued commands logically precede this
    /// validation and must reach the daemon before it.
    fn ensure_valid_range_on(
        &self,
        server: usize,
        buffer: &Buffer,
        range: Option<ByteRange>,
    ) -> Result<()> {
        let plan = {
            let dir = buffer.directory.lock();
            match range {
                Some(r) => dir.plan_delta_range(server, r),
                None => dir.plan_delta(server),
            }
        };
        if plan.is_noop() {
            return Ok(());
        }
        self.flush_server(server)?;
        for fetch in &plan.fetches {
            if fetch.source != server {
                self.flush_server(fetch.source)?;
            }
        }
        for fetch in &plan.fetches {
            let fetched = self.download_buffer_range(fetch.source, buffer, fetch.span);
            let data = self.recover_after_bulk(fetch.source, fetched)?;
            buffer.directory.lock().record_client_fetch_ranges(
                fetch.source,
                fetch.span,
                &fetch.apply,
                &data,
            );
        }
        let data = {
            let dir = buffer.directory.lock();
            match plan.uploads.as_slice() {
                [one] => dir.client_data_range(*one),
                many => many.iter().map(|r| dir.client_data_range(*r)).collect::<Vec<_>>().concat(),
            }
        };
        let uploaded = self.upload_buffer_ranges(server, buffer, &plan.uploads, &data);
        self.recover_after_bulk(server, uploaded)?;
        let mut dir = buffer.directory.lock();
        for upload in &plan.uploads {
            dir.record_upload_range(server, *upload);
        }
        Ok(())
    }

    /// Upload `ranges` of `buffer` to `server` in one `UploadBufferRange`
    /// request, `data` holding them back to back.  A whole-buffer upload is
    /// the one range `[0, size)`.
    fn upload_buffer_ranges(
        &self,
        server: usize,
        buffer: &Buffer,
        ranges: &[ByteRange],
        data: &[u8],
    ) -> Result<()> {
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        conn.endpoint.send_bulk(stream_id, data)?;
        let request = Request::UploadBufferRange {
            buffer_id: buffer.id,
            ranges: ranges.iter().map(|r| (r.start as u64, r.len() as u64)).collect(),
            stream_id,
        };
        if let Response::OkTimed { modeled_nanos } =
            self.call_server_on(&conn, &request, Phase::DataTransfer)?
        {
            self.clock.charge(Phase::DataTransfer, Duration::from_nanos(modeled_nanos));
        }
        Ok(())
    }

    /// Download `range` of `buffer` from `server` in one
    /// `DownloadBufferRange` request.
    fn download_buffer_range(
        &self,
        server: usize,
        buffer: &Buffer,
        range: ByteRange,
    ) -> Result<Vec<u8>> {
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        let request = Request::DownloadBufferRange {
            buffer_id: buffer.id,
            offset: range.start as u64,
            size: range.len() as u64,
            stream_id,
        };
        if let Response::OkTimed { modeled_nanos } =
            self.call_server_on(&conn, &request, Phase::DataTransfer)?
        {
            self.clock.charge(Phase::DataTransfer, Duration::from_nanos(modeled_nanos));
        }
        let data = conn.endpoint.wait_bulk(stream_id, Duration::from_secs(300))?;
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        Ok(data)
    }

    /// Pass `result` of a bulk-path step on `server` through; on a transport
    /// failure, first run the single-flight `recover_server`, so a dead
    /// server is reconnected — or dropped under `drop_lost_servers` — now,
    /// not whenever another request happens to probe it.  The step itself is
    /// not retried: its stream died with the connection.
    fn recover_after_bulk<T>(&self, server: usize, result: Result<T>) -> Result<T> {
        if let Err(DclError::Network(_) | DclError::ServerUnavailable(_)) = &result {
            let _ = self.recover_server(server);
        }
        result
    }

    /// Encode `request` once and charge its modelled round trip on the
    /// link; the returned bytes are what goes on the wire.
    fn encode_charged(&self, phase: Phase, request: &Request) -> Vec<u8> {
        let payload = request.to_bytes();
        self.clock.charge(phase, self.link.round_trip_time(payload.len() as u64, 64));
        payload
    }

    fn call_server(&self, server: usize, request: Request, phase: Phase) -> Result<Response> {
        let payload = self.encode_charged(phase, &request);
        let response = self.call_with_recovery(server, &payload)?.into_result()?;
        // Record setup requests so a reconnect to a restarted daemon can
        // re-create the remote objects (see the recovery path).
        if Self::is_setup_request(&request) {
            if let Some(slot) = self.servers.lock().get_mut(server) {
                slot.setup_log.push(request);
            }
        }
        Ok(response)
    }

    // ----- connection supervision & failover --------------------------------

    /// Requests replayed on a fresh daemon to rebuild the session: object
    /// creation and kernel-argument state, in original order.
    fn is_setup_request(request: &Request) -> bool {
        matches!(
            request,
            Request::CreateContext { .. }
                | Request::CreateCommandQueue { .. }
                | Request::CreateBuffer { .. }
                | Request::CreateProgramWithSource { .. }
                | Request::CreateProgramWithBuiltInKernels { .. }
                | Request::BuildProgram { .. }
                | Request::CreateKernel { .. }
                | Request::SetKernelArgScalar { .. }
                | Request::SetKernelArgBuffer { .. }
                | Request::SetKernelArgLocal { .. }
        )
    }

    /// Call the encoded request `payload` on `server`, transparently
    /// reconnecting and re-sending the same bytes when the connection dies
    /// mid-call.  Safe because every request the protocol retries this way
    /// is idempotent — batches through their command ids, creation calls
    /// because they overwrite the same object id.  (Bulk-transfer requests
    /// bypass this path; their stream dies with the connection.)
    fn call_with_recovery(&self, server: usize, payload: &[u8]) -> Result<Response> {
        let mut recoveries = 0u32;
        loop {
            let conn = self.server(server)?;
            match conn.endpoint.call(payload.to_vec()) {
                Ok(bytes) => {
                    return Response::from_bytes(&bytes)
                        .map_err(|e| DclError::Protocol(e.to_string()))
                }
                Err(e) if e.is_retryable() && recoveries < 3 => {
                    recoveries += 1;
                    self.servers.lock()[server].retired.retries += 1;
                    self.recover_server(server)
                        .map_err(|_| DclError::ServerUnavailable(format!("{}: {e}", conn.name)))?;
                }
                Err(e) => return Err(DclError::ServerUnavailable(format!("{}: {e}", conn.name))),
            }
        }
    }

    /// Single-flight reconnect for `server`: the first caller redials, all
    /// concurrent detections (supervisor callback, failing calls) wait for
    /// its outcome.  Returns once the slot holds a live connection again.
    fn recover_server(&self, index: usize) -> Result<()> {
        if !self.failover.lock().reconnect {
            return Err(DclError::ServerUnavailable(format!(
                "server #{index} disconnected (failover disabled)"
            )));
        }
        let unavailable =
            |why: &str| Err(DclError::ServerUnavailable(format!("server #{index}{why}")));
        let (address, epoch, log) = {
            let mut servers = self.servers.lock();
            loop {
                let Some(slot) = servers.get_mut(index) else { return unavailable("") };
                let address = match &slot.conn {
                    _ if slot.lost => return unavailable(" is permanently lost"),
                    None => return unavailable(" was dropped"),
                    Some(conn) if conn.endpoint.is_open() => return Ok(()),
                    Some(conn) => conn.name.clone(),
                };
                if !slot.reconnecting {
                    slot.reconnecting = true;
                    break (address, slot.epoch + 1, slot.setup_log.clone());
                }
                self.recovery_cond.wait(&mut servers);
            }
        };
        let result = self.reconnect_attempt(index, &address, epoch, &log);
        let lost = result.is_err() && self.failover.lock().drop_lost_servers;
        {
            let slot = &mut self.servers.lock()[index];
            slot.reconnecting = false;
            if result.is_ok() {
                slot.epoch = epoch;
            }
            slot.lost |= lost;
        }
        // Drop the lost server *before* waking waiters: a caller that
        // blocked on this recovery must observe the updated roster (and
        // invalidated directory entries) when its call returns.
        if lost {
            self.drop_server(index);
        }
        self.recovery_cond.notify_all();
        result
    }

    /// One full redial: retire the dead endpoint, reconnect with backoff,
    /// re-handshake with the bumped epoch, and — if the daemon did not park
    /// our session — replay the setup log and invalidate the server's
    /// buffer copies.
    fn reconnect_attempt(
        &self,
        index: usize,
        address: &str,
        epoch: u64,
        log: &[Request],
    ) -> Result<()> {
        // Close the dead endpoint but leave it in its slot: its traffic
        // counters are retired exactly once, when the slot lets go of it
        // (replaced below on success, or by `drop_server` on permanent
        // loss) — retiring here too would double-count.
        if let Ok(old) = self.server(index) {
            old.endpoint.close();
        }
        let backoff = self.failover.lock().backoff;
        let (endpoint, devices, resumed) = retry_with_backoff(&backoff, |_attempt| {
            self.handshake(address, epoch).map_err(|e| match e {
                DclError::Network(g) => g,
                other => gcf::GcfError::Disconnected(other.to_string()),
            })
        })
        .map_err(DclError::Network)?;
        self.servers.lock()[index].retired.reconnects += 1;
        if !resumed {
            // The daemon lost our session (restart): rebuild every remote
            // object, then mark this server's buffer copies stale so the
            // MSI directory re-validates them from a surviving copy.
            for request in log {
                self.exchange(&endpoint, request, Phase::Initialization)?;
            }
            self.invalidate_copies(index);
        }
        let conn = Arc::new(ServerConn {
            name: address.to_string(),
            endpoint: Arc::clone(&endpoint),
            devices,
        });
        {
            let slot = &mut self.servers.lock()[index];
            if let Some(old) = slot.conn.replace(conn) {
                slot.retired += old.endpoint.stats();
            }
        }
        self.install_supervisor(index, &endpoint);
        // Status forwards that failed while the server was away go out now,
        // ahead of any batch the caller re-sends.
        if let Some(outbox) = self.outbox(index) {
            self.send_forwards(index, &mut outbox.lock());
        }
        Ok(())
    }

    /// Dial `address`, handshake (`Hello` with `epoch`), fetch the device
    /// list.  Shared by first connect and reconnect.
    fn handshake(
        &self,
        address: &str,
        epoch: u64,
    ) -> Result<(Arc<Endpoint>, Vec<DeviceDescriptor>, bool)> {
        let conn = self.transport.connect(address)?;
        let handler = Arc::new(ClientHandler { inner: self.self_weak.clone() });
        let endpoint = Endpoint::new(conn, handler, format!("client-{}", self.name));

        let hello = Request::Hello {
            client_name: self.name.clone(),
            auth_id: self.auth_id.lock().clone(),
            epoch,
        };
        let resumed = match self.exchange(&endpoint, &hello, Phase::Initialization)? {
            Response::SessionInfo(info) => info.resumed,
            _ => false,
        };
        let devices =
            match self.exchange(&endpoint, &Request::GetDeviceList, Phase::Initialization)? {
                Response::DeviceList { devices } => devices,
                other => return Err(DclError::Protocol(format!("unexpected response {other:?}"))),
            };
        Ok((endpoint, devices, resumed))
    }

    /// Wire the endpoint's death notification to the recovery routine.  The
    /// callback runs on the dying endpoint's receiver thread, so the actual
    /// redial is pushed to a fresh thread.
    fn install_supervisor(&self, index: usize, endpoint: &Arc<Endpoint>) {
        let weak = self.self_weak.clone();
        endpoint.set_supervisor(Arc::new(move |_reason: &str| {
            let Some(inner) = weak.upgrade() else { return };
            std::thread::Builder::new()
                .name("dcl-reconnect".to_string())
                .spawn(move || {
                    let _ = inner.recover_server(index);
                })
                .ok();
        }));
    }

    /// The one way a server leaves the roster, for an explicit disconnect
    /// (and so for `sync_servers`) and for failover giving up: retire and
    /// close its endpoint, fail its pending batches and outstanding events
    /// with the wait-list error (forwarding the failures to the servers
    /// holding replacements), drop its waiting event traffic, and
    /// invalidate its buffer copies.  The client keeps going on the
    /// survivors.
    fn drop_server(&self, index: usize) {
        let conn = {
            let slot = &mut self.servers.lock()[index];
            // Forwards and releases for the server have nowhere to go.
            slot.outbox = Arc::default();
            let conn = slot.conn.take();
            if let Some(conn) = &conn {
                slot.retired += conn.endpoint.stats();
            }
            conn
        };
        if let Some(conn) = conn {
            conn.endpoint.close();
        }
        // Its pending batches are discarded, and their events fail below
        // with its other outstanding ones.  The batches drop (with their
        // wait-list handles) outside the lock.
        let doomed: Vec<PendingBatch> = {
            let mut state = self.batches.lock();
            let BatchState { queues, event_queue } = &mut *state;
            let doomed: Vec<_> =
                queues.extract_if(|_, b| b.server == index).map(|(_, b)| b).collect();
            for entry in doomed.iter().flat_map(|b| &b.entries) {
                event_queue.remove(&entry.event_id);
            }
            doomed
        };
        drop(doomed);
        // The event table holds only events that are not terminal yet.
        let orphaned: Vec<ObjectId> = self
            .events
            .lock()
            .iter()
            .filter(|(_, r)| r.owner == index)
            .map(|(id, _)| *id)
            .collect();
        self.fail_events(&orphaned, -14);
        // The server's buffer copies are gone with it: delta plans
        // re-validate from the surviving copies — in range mode moving only
        // the ranges that actually lived there.
        self.invalidate_copies(index);
    }

    /// Mark `server`'s copy of every live buffer invalid.
    fn invalidate_copies(&self, server: usize) {
        let mut dirs = self.buffer_dirs.lock();
        dirs.retain(|d| d.strong_count() > 0);
        for dir in dirs.iter().filter_map(Weak::upgrade) {
            dir.lock().invalidate_server(server);
        }
    }

    fn call_server_on(
        &self,
        conn: &ServerConn,
        request: &Request,
        phase: Phase,
    ) -> Result<Response> {
        self.exchange(&conn.endpoint, request, phase).map_err(|e| match e {
            DclError::Network(e) => DclError::ServerUnavailable(format!("{}: {e}", conn.name)),
            other => other,
        })
    }

    /// Send `request` on `endpoint`, charging its round trip, and decode the
    /// answer; an `Error` response becomes `Err`.  No recovery.
    fn exchange(&self, endpoint: &Endpoint, request: &Request, phase: Phase) -> Result<Response> {
        let bytes = endpoint.call(self.encode_charged(phase, request))?;
        Response::from_bytes(&bytes).map_err(|e| DclError::Protocol(e.to_string()))?.into_result()
    }
}

struct ClientHandler {
    inner: Weak<ClientInner>,
}

impl EndpointHandler for ClientHandler {
    fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
        // Daemons never issue requests to the client in the current
        // protocol; answer with an empty payload.
        Vec::new()
    }

    fn handle_notification(&self, payload: &[u8]) {
        let Some(inner) = self.inner.upgrade() else { return };
        let Ok(notification) = Notification::from_bytes(payload) else { return };
        match notification {
            Notification::EventsCompleted { events } => inner.complete_events(&events),
        }
    }
}

/// The dOpenCL client driver: the application-facing entry point.
///
/// `Client` owns platform- and server-level state; object-level operations
/// live on the stubs it hands out (see the [module docs](self) for the full
/// object model and the migration table from the pre-0.2 god-object API).
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("name", &self.inner.name)
            .field("servers", &self.inner.connected().len())
            .finish()
    }
}

impl Client {
    /// Create a client driver that reaches its servers through `transport`
    /// over a network modelled by `link`, charging modelled time to `clock`.
    pub fn new(
        name: impl Into<String>,
        transport: Arc<dyn Transport>,
        link: LinkModel,
        clock: SimClock,
    ) -> Client {
        let name = name.into();
        Client {
            inner: Arc::new_cyclic(|self_weak| ClientInner {
                name,
                self_weak: self_weak.clone(),
                transport,
                link,
                clock,
                next_id: AtomicU64::new(1),
                servers: Mutex::new(Vec::new()),
                events: Mutex::new(HashMap::new()),
                batches: Mutex::new(BatchState::default()),
                batching: AtomicBool::new(true),
                auth_id: Mutex::new(None),
                recovery_cond: Condvar::new(),
                failover: Mutex::new(FailoverPolicy::default()),
                buffer_dirs: Mutex::new(Vec::new()),
                coherence_mode: Mutex::new(CoherenceMode::from_env()),
            }),
        }
    }

    /// The dOpenCL platform name (`CL_PLATFORM_NAME` of the uniform platform
    /// of Section III-E).
    pub fn platform_name(&self) -> &'static str {
        "dOpenCL"
    }

    /// The dOpenCL platform vendor.
    pub fn platform_vendor(&self) -> &'static str {
        "University of Muenster (reproduction)"
    }

    /// The simulation clock this client charges modelled time to.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.clone()
    }

    /// The link model used between this client and its servers.
    pub fn link(&self) -> LinkModel {
        self.inner.link.clone()
    }

    /// Set the lease authentication id obtained from the device manager
    /// (presented to every server connected afterwards).
    pub fn set_auth_id(&self, auth_id: Option<String>) {
        *self.inner.auth_id.lock() = auth_id;
    }

    /// Enable or disable client-side command batching (enabled by default).
    ///
    /// With batching off every enqueue ships immediately as a batch of one —
    /// the per-command round-trip behaviour the figure harnesses use as the
    /// "before" measurement.  Disabling flushes everything pending.
    pub fn set_batching(&self, enabled: bool) {
        self.inner.batching.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.inner.flush_all();
        }
    }

    /// Coherence policy for buffers created from now on: delta transfers
    /// of the stale ranges ([`CoherenceMode::Range`], the default) or the
    /// paper's whole-buffer policy ([`CoherenceMode::Whole`], also
    /// selectable with `DCL_COHERENCE=whole`).  Existing buffers keep the
    /// policy they were created with.
    pub fn set_coherence_mode(&self, mode: CoherenceMode) {
        *self.inner.coherence_mode.lock() = mode;
    }

    /// The coherence mode buffers are currently created with.
    pub fn coherence_mode(&self) -> CoherenceMode {
        *self.inner.coherence_mode.lock()
    }

    /// Aggregated wire-traffic counters over every server ever connected
    /// (requests, notifications, bulk stream bytes).  Each slot's retired
    /// counters keep the totals monotonic across reconnects and departures.
    pub fn traffic_stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for slot in self.inner.servers.lock().iter() {
            total += slot.retired;
            if let Some(conn) = &slot.conn {
                total += conn.endpoint.stats();
            }
        }
        total
    }

    /// Number of events the client still tracks: those not terminal yet.  A
    /// leak check for tests — once every command has completed it is 0.
    pub fn tracked_events(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Set how this client reacts to dead server connections (see the
    /// [module docs](self#failure-semantics)).
    pub fn set_failover_policy(&self, policy: FailoverPolicy) {
        *self.inner.failover.lock() = policy;
    }

    /// The current failover policy.
    pub fn failover_policy(&self) -> FailoverPolicy {
        *self.inner.failover.lock()
    }

    /// Query the daemon-side session of `server`: epoch, identity and the
    /// dedup-window counters (exactly-once bookkeeping).
    pub fn session_info(&self, server: ServerId) -> Result<SessionInfo> {
        let response =
            self.inner.call_server(server.0, Request::GetSessionInfo, Phase::Initialization)?;
        match response {
            Response::SessionInfo(info) => Ok(info),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    // ----- server management (Listing 1: the WWU API extension) -----------

    /// `clConnectServerWWU`: connect to the daemon at `address`, adding its
    /// devices to the application's device list.
    pub fn connect_server(&self, address: &str) -> Result<ServerId> {
        let (endpoint, devices, _resumed) = self.inner.handshake(address, 0)?;
        let conn =
            ServerConn { name: address.to_string(), endpoint: Arc::clone(&endpoint), devices };
        let index = {
            let mut servers = self.inner.servers.lock();
            servers.push(ServerSlot { conn: Some(Arc::new(conn)), ..ServerSlot::default() });
            servers.len() - 1
        };
        self.inner.install_supervisor(index, &endpoint);
        Ok(ServerId(index))
    }

    /// Connect to every server listed in a configuration file's contents
    /// (Listing 2), as the automatic connection mechanism does during
    /// application initialization.
    pub fn connect_from_config(&self, contents: &str) -> Result<Vec<ServerId>> {
        let mut ids = Vec::new();
        for entry in config::parse_server_list(contents)? {
            ids.push(self.connect_server(&entry.address())?);
        }
        Ok(ids)
    }

    /// `clDisconnectServerWWU`: disconnect a server; its devices become
    /// unavailable.  Pending command batches for the server are flushed
    /// first and the daemon is told, best effort; then the server leaves
    /// exactly as a lost one does under
    /// [`FailoverPolicy::drop_lost_servers`] (see the
    /// [module docs](self#failure-semantics)): commands still outstanding
    /// there fail with the wait-list error (`-14`), as do their dependants
    /// on other servers, its buffer copies become invalid, and its traffic
    /// stays counted in [`Client::traffic_stats`].
    pub fn disconnect_server(&self, server: ServerId) -> Result<()> {
        let _ = self.inner.flush_server(server.0);
        let conn = self.inner.server(server.0)?;
        let payload = self.inner.encode_charged(Phase::Initialization, &Request::Disconnect);
        let _ = conn.endpoint.call(payload);
        self.inner.drop_server(server.0);
        Ok(())
    }

    /// `clGetServerInfoWWU`: query information about a connected server.
    pub fn server_info(&self, server: ServerId) -> Result<ServerInfo> {
        let response =
            self.inner.call_server(server.0, Request::GetServerInfo, Phase::Initialization)?;
        match response {
            Response::ServerInfo(info) => Ok(info),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Ids of the currently connected servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.inner.connected().into_iter().map(|(i, _)| ServerId(i)).collect()
    }

    /// The id of the connected server at `address`, if any.
    pub fn server_by_address(&self, address: &str) -> Option<ServerId> {
        self.inner
            .connected()
            .into_iter()
            .find(|(_, conn)| conn.name == address)
            .map(|(i, _)| ServerId(i))
    }

    /// Reconcile the connected-server set with a lease's current server
    /// list — the client half of a resource-manager `LeaseChanged` notice
    /// (migration, preemption, failover).  Servers in `addresses` that are
    /// not yet connected are connected; connected servers *not* in the list
    /// are disconnected through [`Client::disconnect_server`], which fails
    /// their outstanding commands and invalidates their buffer copies, so
    /// the coherence directory re-validates from the survivors on next use.
    /// Returns the ids now backing the lease, in `addresses` order.
    pub fn sync_servers(&self, addresses: &[String]) -> Result<Vec<ServerId>> {
        let mut ids = Vec::new();
        for address in addresses {
            match self.server_by_address(address) {
                Some(id) => ids.push(id),
                None => ids.push(self.connect_server(address)?),
            }
        }
        for (index, conn) in self.inner.connected() {
            if !addresses.contains(&conn.name) {
                let _ = self.disconnect_server(ServerId(index));
            }
        }
        Ok(ids)
    }

    /// All devices of all connected servers, merged into the single device
    /// list of the dOpenCL platform.
    pub fn devices(&self) -> Vec<Device> {
        let mut out = Vec::new();
        for (index, conn) in self.inner.connected() {
            for d in &conn.devices {
                out.push(Device { server: index, descriptor: d.clone() });
            }
        }
        out
    }

    /// Devices of the given [`DeviceType`].
    pub fn devices_of(&self, kind: DeviceType) -> Vec<Device> {
        self.devices().into_iter().filter(|d| d.kind() == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Context, LocalCluster};
    use gcf::LinkModel;
    use vocl::Platform;

    #[test]
    fn dropped_pending_read_leaves_no_stream_behind() {
        let mut cluster = LocalCluster::new(LinkModel::ideal());
        cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
        let client = cluster.client("dropped-read").unwrap();
        let devices = client.devices();
        let context = Context::new(&client, &devices).unwrap();
        let queue = context.create_command_queue(&devices[0]).unwrap();
        let buffer = context.create_buffer(256 << 10).unwrap();
        // Dropped before the stream arrives, and after.
        let early = queue.read_buffer(&buffer).submit_async().unwrap();
        let early_event = early.event().clone();
        drop(early);
        early_event.wait().unwrap();
        let late = queue.read_buffer(&buffer).submit_async().unwrap();
        late.event().wait().unwrap();
        drop(late);
        // A collected read behind them on the FIFO connection: both dropped
        // streams have fully arrived by the time its data has.
        let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
        assert_eq!(data.len(), 256 << 10);
        let endpoint = &client.inner.server(0).unwrap().endpoint;
        assert_eq!(endpoint.bulk_streams_held(), 0);
    }
}
