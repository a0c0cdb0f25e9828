//! The execution side of a daemon: one [`DaemonSession`] per connection
//! replays the client's requests against the native runtime, and the
//! session's [`CompletionBuffer`] reports command statuses back.

use super::{AccessPolicy, DaemonStats, DedupWindow, SessionRegistry};
use crate::protocol::{
    BatchCommand, BatchEntry, BatchEntryStatus, ClientNotification, DeviceDescriptor,
    EventCompletion, Notification, ObjectId, Request, Response, ServerInfo, SessionInfo,
};
use gcf::rpc::{Endpoint, EndpointHandler, STREAM_CHUNK};
use gcf::wire::{Decode, Encode};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use vocl::profile::BusModel;
use vocl::{
    Buffer, ClError, CommandQueue, CommandType, Context, Device, DeviceInfoParam, DeviceInfoValue,
    Event, EventStatus, KernelArg, MemFlags, Program, QueueProperties,
};

/// Statuses the buffer holds at most: the one that makes this many
/// pending sends them all.
const COMPLETIONS_SEND_AT: usize = 64;

/// How long a status waits for company at most: the first status appended
/// after the oldest pending one has waited this long sends them all, so a
/// command another server waits on is not held back by a run of long
/// kernels queued behind it.
const COMPLETIONS_HELD_AT_MOST: Duration = Duration::from_millis(10);

/// A session's completion statuses not yet reported to the client.
///
/// A command that did not run inline appends its status here from its
/// completion callback.  Pending statuses leave as one
/// [`Notification::EventsCompleted`] when the status appended ends its
/// queue's run in the batch (see [`report_points`]), when
/// [`COMPLETIONS_SEND_AT`] are pending, or when the oldest has waited
/// [`COMPLETIONS_HELD_AT_MOST`].  The first two follow from the batches
/// alone, so the frames a client hears do not depend on how threads
/// interleave.  The buffer lives in the session state, so the callbacks of
/// a parked session reach the connection that adopts it.
#[derive(Default)]
struct CompletionBuffer {
    pending: Mutex<PendingCompletions>,
}

#[derive(Default)]
struct PendingCompletions {
    /// The connection of the session: reports go there, and so do its bulk
    /// transfers.  Set when the connection is accepted, and re-pointed by
    /// the `Hello` of a connection that adopts the session.
    endpoint: Weak<Endpoint>,
    events: Vec<EventCompletion>,
    /// When the first of `events` was appended.
    since: Option<Instant>,
}

impl PendingCompletions {
    /// Send everything pending as one frame.  A send that fails drops the
    /// frame: a client that comes back hears those statuses again when it
    /// adopts the session (see the `Hello` arm of [`DaemonSession::handle`]).
    fn send(&mut self) {
        self.since = None;
        if self.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.events);
        if let Some(endpoint) = self.endpoint.upgrade() {
            let _ = endpoint.notify(Notification::EventsCompleted { events }.to_bytes());
        }
    }
}

impl CompletionBuffer {
    fn attach(&self, endpoint: &Arc<Endpoint>) {
        self.pending.lock().endpoint = Arc::downgrade(endpoint);
    }

    fn endpoint(&self) -> Option<Arc<Endpoint>> {
        self.pending.lock().endpoint.upgrade()
    }

    /// Append `completion`, then send everything pending if `send_now`
    /// says so (asked under the buffer's lock) or a bound is reached.
    fn push(&self, completion: EventCompletion, send_now: impl FnOnce() -> bool) {
        let mut pending = self.pending.lock();
        let since = *pending.since.get_or_insert_with(Instant::now);
        pending.events.push(completion);
        if send_now()
            || pending.events.len() >= COMPLETIONS_SEND_AT
            || since.elapsed() >= COMPLETIONS_HELD_AT_MOST
        {
            pending.send();
        }
    }

    /// Send everything pending as one frame.  The lock is held across the
    /// send, so frames leave in completion order.
    fn flush(&self) {
        self.pending.lock().send();
    }

    /// Append `event`'s status once it completes, and send everything
    /// pending then if it is a report point or its batch was `cut`.
    fn report_on_completion(
        self: &Arc<Self>,
        event_id: ObjectId,
        event: &Arc<Event>,
        report_point: bool,
        cut: &Arc<AtomicBool>,
    ) {
        let completions = Arc::clone(self);
        let cut = Arc::clone(cut);
        let weak_event = Arc::downgrade(event);
        event.on_complete(Box::new(move |status| {
            if let Some(event) = weak_event.upgrade() {
                completions.push(completion_of(event_id, &event, status), || {
                    report_point || cut.load(Ordering::SeqCst)
                });
            }
        }));
    }
}

/// For each entry of a batch, whether it is a *report point*: the last
/// command entry of its queue in the batch, or one whose successor there
/// has a wait list.  A report point's completion sends the statuses held
/// for the commands before it.  The commands between two report points
/// wait on nothing but their predecessor, so a held status never waits on
/// a command that waits on another server, a user event or the host.
pub(super) fn report_points(entries: &[BatchEntry]) -> Vec<bool> {
    let mut next_waits: HashMap<ObjectId, bool> = HashMap::new();
    let mut points = vec![false; entries.len()];
    for (point, entry) in points.iter_mut().zip(entries).rev() {
        if let BatchCommand::Release { .. } | BatchCommand::Replacement { .. } = entry.command {
            continue; // Event bookkeeping joins no queue.
        }
        *point = next_waits.insert(entry.queue_id, !entry.wait_events.is_empty()).unwrap_or(true);
    }
    points
}

/// Whether `command` may run inline, on the dispatch thread, when its
/// queue is idle: a transfer small enough to travel in one stream chunk.
fn may_run_inline(command: &BatchCommand) -> bool {
    match command {
        BatchCommand::WriteBuffer { size, .. } | BatchCommand::ReadBuffer { size, .. } => {
            *size <= STREAM_CHUNK as u64
        }
        _ => false,
    }
}

fn completion_of(event_id: ObjectId, event: &Event, status: EventStatus) -> EventCompletion {
    EventCompletion {
        event_id,
        status: status.code(),
        modeled_nanos: event.modeled_duration().as_nanos() as u64,
        work_items: event.counters().map(|c| c.work_items).unwrap_or(0),
    }
}

/// The total size of a coherence request's `(offset, size)` ranges, once
/// they are sorted, disjoint and inside a buffer of `limit` bytes; else the
/// error answering the request, before it has copied any byte.
fn checked_total(ranges: &[(u64, u64)], limit: usize) -> Reply<usize> {
    let mut end = 0u64;
    for &(offset, size) in ranges {
        let next = offset.checked_add(size).filter(|&e| offset >= end && e <= limit as u64);
        let Some(next) = next else {
            return Err(Response::Error {
                code: -30,
                message: format!(
                    "range {offset}+{size} is out of order, overlaps, or exceeds buffer size \
                     {limit}"
                ),
            });
        };
        end = next;
    }
    Ok(ranges.iter().map(|&(_, size)| size as usize).sum())
}

/// The modelled bus time, in nanoseconds, of moving `ranges` of `buffer`
/// with `time`: each range is its own transfer and pays its own cost.
fn bus_nanos(buffer: &Buffer, ranges: &[(u64, u64)], time: fn(&BusModel, u64) -> Duration) -> u64 {
    let Some(device) = buffer.context().devices().first() else { return 0 };
    let total: Duration = ranges.iter().map(|&(_, size)| time(&device.profile().bus, size)).sum();
    total.as_nanos() as u64
}

/// A request's answer, or the error response that cut it short.
type Reply<T = Response> = std::result::Result<T, Response>;

impl From<ClError> for Response {
    fn from(e: ClError) -> Response {
        Response::Error { code: e.code(), message: e.to_string() }
    }
}

/// The object `id` of `table`, or the error answering an unknown id.
fn lookup<T>(table: &HashMap<ObjectId, Arc<T>>, kind: &str, id: ObjectId) -> Reply<Arc<T>> {
    table
        .get(&id)
        .cloned()
        .ok_or_else(|| Response::Error { code: -34, message: format!("unknown {kind} id {id}") })
}

/// Per-connection session: the id → remote-object tables plus the handler
/// that dispatches requests onto the native runtime.
pub struct DaemonSession {
    daemon_name: String,
    all_devices: Vec<Arc<Device>>,
    policy: Arc<dyn AccessPolicy>,
    stats: Arc<Mutex<DaemonStats>>,
    /// The session state.  Shared through the daemon's [`SessionRegistry`]
    /// so a reconnecting client (re-`Hello` with a bumped epoch) finds its
    /// remote objects and dedup window again; the indirection lets `Hello`
    /// swap in parked state.
    state: Mutex<Arc<Mutex<SessionState>>>,
    /// The epoch this session adopted the state at (from its `Hello`); the
    /// drop guard skips lease release when a newer session took over.
    my_epoch: AtomicU64,
    registry: Arc<Mutex<SessionRegistry>>,
}

#[derive(Default)]
pub(super) struct SessionState {
    client_name: String,
    auth_id: Option<String>,
    epoch: u64,
    contexts: HashMap<ObjectId, Arc<Context>>,
    queues: HashMap<ObjectId, Arc<CommandQueue>>,
    buffers: HashMap<ObjectId, Arc<Buffer>>,
    programs: HashMap<ObjectId, Arc<Program>>,
    kernels: HashMap<ObjectId, Arc<vocl::Kernel>>,
    events: HashMap<ObjectId, Arc<Event>>,
    dedup: DedupWindow,
    completions: Arc<CompletionBuffer>,
    disconnected: bool,
}

impl SessionState {
    /// Number of events (originals and replacements) the session tracks.
    pub(super) fn events_held(&self) -> usize {
        self.events.len()
    }
}

impl DaemonSession {
    pub(super) fn new(
        daemon_name: String,
        all_devices: Vec<Arc<Device>>,
        policy: Arc<dyn AccessPolicy>,
        stats: Arc<Mutex<DaemonStats>>,
        registry: Arc<Mutex<SessionRegistry>>,
    ) -> Self {
        DaemonSession {
            daemon_name,
            all_devices,
            policy,
            stats,
            state: Mutex::new(Arc::new(Mutex::new(SessionState::default()))),
            my_epoch: AtomicU64::new(0),
            registry,
        }
    }

    pub(super) fn set_endpoint(&self, endpoint: &Arc<Endpoint>) {
        self.completions().attach(endpoint);
    }

    /// The (possibly adopted) session state's completion buffer.
    fn completions(&self) -> Arc<CompletionBuffer> {
        Arc::clone(&self.state().lock().completions)
    }

    /// The (possibly adopted) session state.
    fn state(&self) -> Arc<Mutex<SessionState>> {
        Arc::clone(&self.state.lock())
    }

    /// This connection's endpoint; none once a newer connection has
    /// adopted the session state (and with it the endpoint reference).
    fn endpoint(&self) -> Reply<Arc<Endpoint>> {
        let shared = self.state();
        let state = shared.lock();
        let current = state.epoch == self.my_epoch.load(Ordering::Acquire);
        let endpoint = if current { state.completions.endpoint() } else { None };
        endpoint.ok_or_else(|| Response::Error { code: -36, message: "no endpoint".into() })
    }

    fn visible_devices(&self) -> Vec<Arc<Device>> {
        let auth = self.state().lock().auth_id.clone();
        self.policy.visible_devices(auth.as_deref(), &self.all_devices)
    }

    fn device_by_id(&self, id: ObjectId) -> std::result::Result<Arc<Device>, ClError> {
        self.visible_devices().into_iter().find(|d| d.id() == id).ok_or(ClError::DeviceNotFound)
    }

    /// Resolve queue + wait list for an enqueue; `chain` is the implicit
    /// extra dependency batch entries carry on their queue's previous entry,
    /// so that an execution-time failure of entry *k* fails entries
    /// *k+1..N* of the same queue (wait-list error propagation, code -14).
    fn resolve_enqueue(
        &self,
        queue_id: ObjectId,
        wait_events: &[ObjectId],
        chain: Option<&Arc<Event>>,
    ) -> Reply<(Arc<CommandQueue>, Vec<Arc<Event>>)> {
        let shared = self.state();
        let state = shared.lock();
        let queue = lookup(&state.queues, "queue", queue_id)?;
        let mut wait = wait_events
            .iter()
            .map(|id| lookup(&state.events, "event", *id))
            .collect::<Reply<Vec<_>>>()?;
        wait.extend(chain.cloned());
        Ok((queue, wait))
    }

    /// Record a freshly enqueued command: admit its id to the dedup window
    /// and remember its event for later wait lists.
    fn track_event(&self, command_id: u64, event_id: ObjectId, event: &Arc<Event>) {
        let shared = self.state();
        let mut state = shared.lock();
        state.dedup.admit(command_id, event_id);
        state.events.insert(event_id, Arc::clone(event));
    }

    /// The payload of an upload, bulk stream `stream_id`.  The client sends
    /// it before the request that names it, so the stream has already been
    /// reassembled.
    fn upload_stream(&self, stream_id: u64) -> Reply<Vec<u8>> {
        self.endpoint()?.wait_bulk(stream_id, Duration::from_secs(120)).map_err(|e| {
            Response::Error { code: -30, message: format!("missing upload stream: {e}") }
        })
    }

    /// Enqueue the command of one [`Request::EnqueueBatch`] entry; with
    /// `inline`, a command that [`may_run_inline`] runs on this thread if
    /// its queue is idle.
    fn enqueue_entry(
        &self,
        entry: BatchEntry,
        chain: Option<&Arc<Event>>,
        inline: bool,
    ) -> Reply<Arc<Event>> {
        let BatchEntry { queue_id, wait_events, command, .. } = entry;
        let resolve = || self.resolve_enqueue(queue_id, &wait_events, chain);
        let event = match command {
            BatchCommand::WriteBuffer { buffer_id, offset, size, stream_id } => {
                let data = self.upload_stream(stream_id)?;
                if data.len() as u64 != size {
                    return Err(Response::Error {
                        code: -30,
                        message: format!(
                            "upload size mismatch: expected {size}, got {}",
                            data.len()
                        ),
                    });
                }
                self.stats.lock().bytes_uploaded += size;
                let (queue, wait) = resolve()?;
                let buffer = lookup(&self.state().lock().buffers, "buffer", buffer_id)?;
                let offset = offset as usize;
                if inline {
                    queue.enqueue_write_buffer_inline(&buffer, offset, data, wait)?
                } else {
                    queue.enqueue_write_buffer(&buffer, offset, data, wait)?
                }
            }
            BatchCommand::ReadBuffer { buffer_id, offset, size, stream_id } => {
                let (queue, wait) = resolve()?;
                let buffer = lookup(&self.state().lock().buffers, "buffer", buffer_id)?;
                let (offset, len) = (offset as usize, size as usize);
                let event = if inline {
                    queue.enqueue_read_buffer_inline(&buffer, offset, len, wait)?
                } else {
                    queue.enqueue_read_buffer(&buffer, offset, len, wait)?
                };
                // When the read completes, ship the data to the client as a
                // bulk stream; the completion is reported after it (FIFO), so
                // by the time the client's event resolves the data is en route.
                // A read that ran inline is complete already: the callback
                // fires here, and the stream leaves before the batch's
                // response, which carries the completion.
                let endpoint = self.endpoint().ok().map(|e| Arc::downgrade(&e));
                let weak_event = Arc::downgrade(&event);
                let stats = Arc::clone(&self.stats);
                event.on_complete(Box::new(move |status| {
                    let Some(endpoint) = endpoint.as_ref().and_then(Weak::upgrade) else {
                        return;
                    };
                    if status == EventStatus::Complete {
                        if let Some(event) = weak_event.upgrade() {
                            if let Some(data) = event.take_result() {
                                stats.lock().bytes_downloaded += data.len() as u64;
                                let _ = endpoint.send_bulk(stream_id, &data);
                            }
                        }
                    }
                }));
                event
            }
            BatchCommand::NdRange { kernel_id, range } => {
                let (queue, wait) = resolve()?;
                let kernel = lookup(&self.state().lock().kernels, "kernel", kernel_id)?;
                self.stats.lock().kernel_launches += 1;
                queue.enqueue_nd_range_kernel(&kernel, range.0, wait)?
            }
            BatchCommand::Marker => {
                let (queue, wait) = resolve()?;
                queue.enqueue_marker(wait)?
            }
            BatchCommand::Release { .. } | BatchCommand::Replacement { .. } => {
                unreachable!("bookkeeping entries are handled by the batch loop")
            }
        };
        Ok(event)
    }

    /// Create the replacement event for `event_id` if this session holds
    /// none yet, then apply `status` if it is terminal.  An idempotent
    /// upsert: a forward may overtake the batch that creates the
    /// replacement, and a replayed batch repeats it.  Only user events take
    /// a forwarded status — a command's own event is never completed from
    /// outside.
    fn upsert_replacement(&self, event_id: ObjectId, status: Option<i32>) {
        let event = {
            let shared = self.state();
            let mut state = shared.lock();
            Arc::clone(state.events.entry(event_id).or_insert_with(Event::user))
        };
        match status {
            Some(_) if event.command_type() != CommandType::User => {}
            Some(0) => event.set_complete(),
            Some(code) => event.set_error(code),
            None => {}
        }
    }

    /// Forget events the client released.  A queued command keeps its own
    /// reference to any event it still waits on.
    fn release_events(&self, event_ids: &[ObjectId]) {
        let shared = self.state();
        let mut state = shared.lock();
        for event_id in event_ids {
            state.events.remove(event_id);
        }
    }

    fn handle(&self, request: Request) -> Reply {
        self.stats.lock().requests += 1;
        let response = match request {
            Request::Hello { client_name, auth_id, epoch } => {
                // A client identifies itself by auth id when it has one (the
                // device manager hands those out), otherwise by name.  A
                // reconnecting client re-sends Hello with a bumped epoch and
                // adopts the state its previous connection parked in the
                // daemon's registry — remote objects and dedup window
                // survive the connection, per Section IV-C.
                //
                // Statuses sent to the dead connection may never have arrived,
                // in a frame or in a response, so an adopting connection hears
                // every finished command the client has not released again;
                // the client skips the ones it has already settled.
                let identity = auth_id.clone().unwrap_or_else(|| client_name.clone());
                let endpoint = self.endpoint().ok();
                let fresh = self.state();
                let (shared, resumed) =
                    self.registry.lock().adopt_or_register(&identity, epoch, &fresh);
                *self.state.lock() = Arc::clone(&shared);
                self.my_epoch.store(epoch, Ordering::Release);
                let mut state = shared.lock();
                state.client_name = client_name;
                state.auth_id = auth_id.clone();
                state.epoch = epoch;
                state.disconnected = false;
                if let Some(endpoint) = endpoint {
                    state.completions.attach(&endpoint);
                }
                if resumed {
                    for (&event_id, event) in &state.events {
                        let status = event.status();
                        if event.command_type() != CommandType::User && status.is_terminal() {
                            state
                                .completions
                                .push(completion_of(event_id, event, status), || false);
                        }
                    }
                    state.completions.flush();
                }
                Response::SessionInfo(SessionInfo {
                    auth_id,
                    epoch,
                    resumed,
                    dedup_admitted: state.dedup.admitted,
                    dedup_replayed: state.dedup.replayed,
                })
            }
            Request::GetSessionInfo => {
                let shared = self.state();
                let state = shared.lock();
                Response::SessionInfo(SessionInfo {
                    auth_id: state.auth_id.clone(),
                    epoch: state.epoch,
                    resumed: false,
                    dedup_admitted: state.dedup.admitted,
                    dedup_replayed: state.dedup.replayed,
                })
            }
            Request::GetDeviceList => {
                let devices = self
                    .visible_devices()
                    .iter()
                    .map(|d| DeviceDescriptor {
                        remote_id: d.id(),
                        name: d.name().to_string(),
                        vendor: d.vendor().to_string(),
                        device_type: d.device_type().to_string(),
                        compute_units: match d.info(DeviceInfoParam::MaxComputeUnits) {
                            DeviceInfoValue::UInt(v) => v as u32,
                            _ => 0,
                        },
                        global_mem_bytes: d.profile().global_mem_bytes,
                        max_alloc_bytes: d.profile().max_alloc_bytes,
                    })
                    .collect();
                Response::DeviceList { devices }
            }
            Request::GetServerInfo => Response::ServerInfo(ServerInfo {
                name: self.daemon_name.clone(),
                device_count: self.visible_devices().len() as u32,
                managed: self.policy.managed(),
            }),
            Request::CreateContext { context_id, devices } => {
                let devices = devices
                    .into_iter()
                    .map(|id| self.device_by_id(id))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let context = Context::new(devices)?;
                self.state().lock().contexts.insert(context_id, context);
                Response::Ok
            }
            Request::ReleaseContext { context_id } => {
                self.state().lock().contexts.remove(&context_id);
                Response::Ok
            }
            Request::CreateCommandQueue { queue_id, context_id, device } => {
                let context = lookup(&self.state().lock().contexts, "context", context_id)?;
                let device = self.device_by_id(device)?;
                let properties = QueueProperties { profiling: true, out_of_order: false };
                let queue = CommandQueue::new(context, device, properties)?;
                self.state().lock().queues.insert(queue_id, queue);
                Response::Ok
            }
            Request::ReleaseCommandQueue { queue_id } => {
                self.state().lock().queues.remove(&queue_id);
                Response::Ok
            }
            Request::CreateBuffer { buffer_id, context_id, size, readable, writable } => {
                let context = lookup(&self.state().lock().contexts, "context", context_id)?;
                let flags = MemFlags { readable, writable };
                let buffer = Buffer::new(context, size as usize, flags, None)?;
                self.state().lock().buffers.insert(buffer_id, buffer);
                Response::Ok
            }
            Request::ReleaseBuffer { buffer_id } => {
                self.state().lock().buffers.remove(&buffer_id);
                Response::Ok
            }
            Request::CreateProgramWithSource { program_id, context_id, source } => {
                let context = lookup(&self.state().lock().contexts, "context", context_id)?;
                let program = Program::with_source(context, source);
                self.state().lock().programs.insert(program_id, program);
                Response::Ok
            }
            Request::CreateProgramWithBuiltInKernels { program_id, context_id, names } => {
                let context = lookup(&self.state().lock().contexts, "context", context_id)?;
                let program = Program::with_built_in_kernels(context, &names)?;
                self.state().lock().programs.insert(program_id, program);
                Response::Ok
            }
            Request::BuildProgram { program_id } => {
                lookup(&self.state().lock().programs, "program", program_id)?.build()?;
                Response::Ok
            }
            Request::GetBuildLog { program_id } => {
                let program = lookup(&self.state().lock().programs, "program", program_id)?;
                Response::BuildLog { log: program.build_log() }
            }
            Request::CreateKernel { kernel_id, program_id, name } => {
                let program = lookup(&self.state().lock().programs, "program", program_id)?;
                let kernel = program.create_kernel(&name)?;
                self.state().lock().kernels.insert(kernel_id, kernel);
                Response::Ok
            }
            Request::SetKernelArgScalar { kernel_id, index, value } => {
                let kernel = lookup(&self.state().lock().kernels, "kernel", kernel_id)?;
                kernel.set_arg(index as usize, KernelArg::Scalar(value.0))?;
                Response::Ok
            }
            Request::SetKernelArgBuffer { kernel_id, index, buffer_id } => {
                let (kernel, buffer) = {
                    let shared = self.state();
                    let state = shared.lock();
                    let kernel = lookup(&state.kernels, "kernel", kernel_id)?;
                    (kernel, lookup(&state.buffers, "buffer", buffer_id)?)
                };
                kernel.set_arg(index as usize, KernelArg::Buffer(buffer))?;
                Response::Ok
            }
            Request::SetKernelArgLocal { kernel_id, index, bytes } => {
                let kernel = lookup(&self.state().lock().kernels, "kernel", kernel_id)?;
                kernel.set_arg(index as usize, KernelArg::Local(bytes as usize))?;
                Response::Ok
            }
            Request::EnqueueBatch { entries } => self.enqueue_batch(entries),
            Request::GetEventStatus { event_id } => {
                let event = lookup(&self.state().lock().events, "event", event_id)?;
                Response::EventStatus { status: event.status().code() }
            }
            Request::UploadBufferRange { buffer_id, ranges, stream_id } => {
                let data = self.upload_stream(stream_id)?;
                let buffer = lookup(&self.state().lock().buffers, "buffer", buffer_id)?;
                if checked_total(&ranges, buffer.size())? != data.len() {
                    return Err(Response::Error {
                        code: -30,
                        message: format!(
                            "range upload stream holds {} bytes, not the ranges' total",
                            data.len()
                        ),
                    });
                }
                self.stats.lock().bytes_uploaded += data.len() as u64;
                let mut at = 0;
                for &(offset, size) in &ranges {
                    let size = size as usize;
                    buffer.write(offset as usize, &data[at..at + size])?;
                    at += size;
                }
                Response::OkTimed {
                    modeled_nanos: bus_nanos(&buffer, &ranges, BusModel::write_time),
                }
            }
            Request::DownloadBufferRange { buffer_id, ranges, stream_id } => {
                let endpoint = self.endpoint()?;
                let buffer = lookup(&self.state().lock().buffers, "buffer", buffer_id)?;
                let mut data = Vec::with_capacity(checked_total(&ranges, buffer.size())?);
                buffer.with_data(|bytes| {
                    for &(offset, size) in &ranges {
                        data.extend_from_slice(&bytes[offset as usize..(offset + size) as usize]);
                    }
                });
                self.stats.lock().bytes_downloaded += data.len() as u64;
                let _ = endpoint.send_bulk(stream_id, &data);
                Response::OkTimed {
                    modeled_nanos: bus_nanos(&buffer, &ranges, BusModel::read_time),
                }
            }
            Request::Disconnect => {
                let auth = {
                    let shared = self.state();
                    let mut state = shared.lock();
                    state.disconnected = true;
                    state.auth_id.clone()
                };
                self.policy.client_disconnected(auth.as_deref());
                Response::Ok
            }
        };
        Ok(response)
    }

    /// Enqueue the entries of one [`Request::EnqueueBatch`] in order.
    fn enqueue_batch(&self, entries: Vec<BatchEntry>) -> Response {
        // Entries are enqueued strictly in order.  Each entry gains an
        // implicit dependency on the previous entry of the *same*
        // queue, so an execution-time failure cascades down the rest
        // of the batch (wait-list error, -14) while completed entries
        // stay completed.  Enqueue-time failures stop the batch: the
        // failing entry's status carries the error and unattempted
        // entries get no status at all (the client fails their events
        // locally).
        //
        // A command that ran inline reports its status in
        // `completed`.  The others report through the completion
        // buffer, which a report point empties.  Only an entry whose
        // queue has had no entry of this batch sent to the worker
        // tries to run inline, so which carrier a status takes does
        // not depend on how fast the worker is.  A batch that does
        // not run as planned (an entry fails to enqueue, or is a
        // replay) is `cut`: the statuses of its commands leave as
        // they are appended, since a report point they wait for may
        // never come.
        let completions = self.completions();
        let report_points = report_points(&entries);
        let cut = Arc::new(AtomicBool::new(false));
        let mut completed = Vec::new();
        let mut statuses = Vec::with_capacity(entries.len());
        let mut prev: HashMap<ObjectId, Arc<Event>> = HashMap::new();
        let mut queued: HashSet<ObjectId> = HashSet::new();
        for (entry, report_point) in entries.into_iter().zip(report_points) {
            // Event bookkeeping: always succeeds, joins no chain.
            let bookkeeping = match &entry.command {
                BatchCommand::Release { event_ids } => {
                    self.release_events(event_ids);
                    true
                }
                BatchCommand::Replacement { status } => {
                    self.upsert_replacement(entry.event_id, *status);
                    true
                }
                _ => false,
            };
            if bookkeeping {
                statuses.push(BatchEntryStatus::ok());
                continue;
            }
            // Idempotent replay (client-generated command ids): a
            // command already executed under this session state is
            // recognised by the dedup window and NOT re-enqueued.  A
            // client replays only after it reconnected, and the
            // adopting `Hello` has reported every finished command
            // again; one still running reports when it finishes.
            let hit = {
                let shared = self.state();
                let mut state = shared.lock();
                state
                    .dedup
                    .replay_hit(entry.command_id)
                    .map(|orig| state.events.get(&orig).cloned())
            };
            if let Some(event) = hit {
                statuses.push(BatchEntryStatus::ok());
                if let Some(event) = event {
                    prev.insert(entry.queue_id, event);
                }
                cut.store(true, Ordering::SeqCst);
                completions.flush();
                continue;
            }
            let chain = prev.get(&entry.queue_id).cloned();
            let (command_id, event_id, queue_id) =
                (entry.command_id, entry.event_id, entry.queue_id);
            let inline = may_run_inline(&entry.command) && !queued.contains(&queue_id);
            match self.enqueue_entry(entry, chain.as_ref(), inline) {
                Ok(event) => {
                    statuses.push(BatchEntryStatus::ok());
                    self.track_event(command_id, event_id, &event);
                    let status = event.status();
                    if inline && status.is_terminal() {
                        completed.push(completion_of(event_id, &event, status));
                    } else {
                        queued.insert(queue_id);
                        completions.report_on_completion(event_id, &event, report_point, &cut);
                    }
                    prev.insert(queue_id, event);
                }
                Err(resp) => {
                    let (code, message) = match resp {
                        Response::Error { code, message } => (code, message),
                        other => (-30, format!("unexpected enqueue failure: {other:?}")),
                    };
                    statuses.push(BatchEntryStatus { code, message });
                    cut.store(true, Ordering::SeqCst);
                    completions.flush();
                    break;
                }
            }
        }
        Response::BatchEnqueued { statuses, completed }
    }
}

impl EndpointHandler for DaemonSession {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        let response = match Request::from_bytes(payload) {
            Ok(request) => self.handle(request).unwrap_or_else(|error| error),
            Err(e) => Response::Error { code: -30, message: format!("malformed request: {e}") },
        };
        response.to_bytes()
    }

    /// Client notifications run on the receiver thread in arrival order,
    /// interleaved with the requests of the same connection.
    fn handle_notification(&self, payload: &[u8]) {
        match ClientNotification::from_bytes(payload) {
            Ok(ClientNotification::EventStatus { event_id, status }) => {
                self.upsert_replacement(event_id, Some(status))
            }
            Ok(ClientNotification::ReleaseEvents { event_ids }) => self.release_events(&event_ids),
            Err(_) => {}
        }
    }
}

impl Drop for DaemonSession {
    fn drop(&mut self) {
        let shared = Arc::clone(self.state.get_mut());
        let state = shared.lock();
        // Abnormal termination releases the lease (Section IV-C) — but only
        // when no newer session has adopted this state.  A reconnected
        // client bumps the epoch in its Hello; the stale session of the dead
        // connection then drops silently and the lease stays held.
        let my_epoch = *self.my_epoch.get_mut();
        if !state.disconnected && state.epoch == my_epoch {
            self.policy.client_disconnected(state.auth_id.as_deref());
        }
    }
}
