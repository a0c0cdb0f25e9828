//! The dOpenCL daemon.
//!
//! A daemon runs on every server of the distributed system.  It accepts
//! connections from client drivers, receives forwarded OpenCL API calls
//! ([`crate::protocol::Request`]) and replays them against the server's
//! native OpenCL implementation (the `vocl` runtime).  For every remote
//! object the client refers to by id, the daemon keeps the id → object
//! mapping in a per-connection session table, exactly as described in
//! Section III-D of the paper ("the daemon replaces these IDs by the
//! associated remote objects and calls the corresponding function of its
//! standard OpenCL implementation").
//!
//! In *managed mode* (Section IV-A) the daemon only exposes devices that the
//! device manager has associated with the client's lease authentication id;
//! this is abstracted behind the [`AccessPolicy`] trait so that the device
//! manager crate can plug in without a dependency cycle.

use crate::protocol::{
    BatchCommand, BatchEntry, BatchEntryStatus, ClientNotification, DeviceDescriptor, Notification,
    ObjectId, Request, Response, ServerInfo, SessionInfo,
};
use crate::Result;
use gcf::rpc::{Endpoint, EndpointHandler};
use gcf::transport::{Listener, Transport};
use gcf::wire::{Decode, Encode};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use vocl::{
    Buffer, ClError, CommandQueue, CommandType, Context, Device, DeviceInfoParam, DeviceInfoValue,
    Event, EventStatus, Kernel, KernelArg, MemFlags, Platform, Program, QueueProperties,
};

/// Controls which devices a connecting client may see and use.
///
/// The default [`OpenAccess`] policy exposes every device.  The device
/// manager installs a lease-checking policy on daemons running in managed
/// mode.
pub trait AccessPolicy: Send + Sync {
    /// The devices (out of `all`) visible to a client presenting `auth_id`.
    fn visible_devices(&self, auth_id: Option<&str>, all: &[Arc<Device>]) -> Vec<Arc<Device>>;

    /// Whether this daemon runs in managed mode.
    fn managed(&self) -> bool {
        false
    }

    /// Called when a client disconnects (normally or abnormally); managed
    /// daemons report the invalidated authentication id to the device
    /// manager so its devices return to the free set.
    fn client_disconnected(&self, _auth_id: Option<&str>) {}
}

/// The default policy: every client sees every device.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpenAccess;

impl AccessPolicy for OpenAccess {
    fn visible_devices(&self, _auth_id: Option<&str>, all: &[Arc<Device>]) -> Vec<Arc<Device>> {
        all.to_vec()
    }
}

/// Counters of daemon activity, useful for tests and ablation benches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Number of requests handled (all sessions).
    pub requests: u64,
    /// Number of kernel launches executed.
    pub kernel_launches: u64,
    /// Bytes received through buffer uploads.
    pub bytes_uploaded: u64,
    /// Bytes sent through buffer downloads.
    pub bytes_downloaded: u64,
    /// Number of client sessions accepted.
    pub sessions: u64,
}

/// A dOpenCL daemon serving the devices of one node.
pub struct Daemon {
    name: String,
    address: String,
    devices: Vec<Arc<Device>>,
    policy: Arc<dyn AccessPolicy>,
    stats: Arc<Mutex<DaemonStats>>,
    shutdown: Arc<AtomicBool>,
    /// Endpoints of the accepted client sessions.  The daemon keeps them
    /// alive; each endpoint owns its [`DaemonSession`] handler.
    sessions: Arc<Mutex<Vec<Arc<Endpoint>>>>,
    /// The listener, kept so [`Daemon::kill`] can unblock the accept loop.
    listener: Mutex<Option<Arc<dyn Listener>>>,
    /// Parked/live session state keyed by client identity, so a client that
    /// reconnects after a connection failure finds its remote objects and
    /// its command dedup window again.
    registry: Arc<Mutex<SessionRegistry>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("name", &self.name)
            .field("address", &self.address)
            .field("devices", &self.devices.len())
            .finish()
    }
}

impl Daemon {
    /// Start a daemon for `platform`, listening at `address` on `transport`.
    pub fn start(
        name: impl Into<String>,
        platform: &Platform,
        transport: Arc<dyn Transport>,
        address: &str,
        policy: Arc<dyn AccessPolicy>,
    ) -> Result<Arc<Daemon>> {
        let name = name.into();
        let listener: Arc<dyn Listener> = Arc::from(transport.listen(address)?);
        let bound = listener.local_addr();
        let daemon = Arc::new(Daemon {
            name: name.clone(),
            address: bound,
            devices: platform.devices().to_vec(),
            policy,
            stats: Arc::new(Mutex::new(DaemonStats::default())),
            shutdown: Arc::new(AtomicBool::new(false)),
            sessions: Arc::new(Mutex::new(Vec::new())),
            listener: Mutex::new(Some(Arc::clone(&listener))),
            registry: Arc::new(Mutex::new(SessionRegistry::default())),
        });
        let accept_daemon = Arc::downgrade(&daemon);
        std::thread::Builder::new()
            .name(format!("dcl-daemon-{name}"))
            .spawn(move || Self::accept_loop(accept_daemon, listener))
            .map_err(|e| {
                crate::DclError::Protocol(format!("cannot spawn daemon accept thread: {e}"))
            })?;
        Ok(daemon)
    }

    fn accept_loop(daemon: Weak<Daemon>, listener: Arc<dyn Listener>) {
        loop {
            let Some(strong) = daemon.upgrade() else { break };
            if strong.shutdown.load(Ordering::Acquire) {
                break;
            }
            drop(strong);
            let Ok(conn) = listener.accept() else { break };
            let Some(strong) = daemon.upgrade() else { break };
            strong.stats.lock().sessions += 1;
            let session = Arc::new(DaemonSession::new(
                strong.name.clone(),
                strong.devices.clone(),
                Arc::clone(&strong.policy),
                Arc::clone(&strong.stats),
                Arc::clone(&strong.registry),
            ));
            // The session must learn its endpoint before the receiver
            // thread dispatches the first request — a bulk download handled
            // earlier would find no endpoint to stream on.
            let endpoint = Endpoint::new_init(
                conn,
                Arc::clone(&session) as Arc<dyn EndpointHandler>,
                format!("daemon-{}", strong.name),
                |ep| session.set_endpoint(ep),
            );
            let mut sessions = strong.sessions.lock();
            // Prune endpoints whose connection died; their sessions drop
            // here, releasing leases for clients that never came back
            // (Section IV-C) — unless a reconnected session adopted the
            // state (the drop guard checks the epoch).
            sessions.retain(|ep| ep.is_open());
            sessions.push(endpoint);
        }
    }

    /// The node name of this daemon.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The address the daemon is reachable at (resolvable by the client's
    /// transport).
    pub fn address(&self) -> &str {
        &self.address
    }

    /// The devices this daemon manages (unfiltered).
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Activity counters.
    pub fn stats(&self) -> DaemonStats {
        *self.stats.lock()
    }

    /// Stop accepting new connections.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Simulate a crash: stop accepting, unblock the accept loop, and sever
    /// every client connection *without* a goodbye — clients discover the
    /// death through receive errors, exactly like a killed process.
    pub fn kill(&self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(listener) = self.listener.lock().take() {
            listener.shutdown();
        }
        let sessions: Vec<Arc<Endpoint>> = self.sessions.lock().drain(..).collect();
        for endpoint in sessions {
            endpoint.abort();
        }
    }

    /// Simulate a network partition: sever every client connection without
    /// a goodbye, but keep accepting new ones.  Clients reconnect and
    /// resume their parked sessions (the crash-recovery path without the
    /// daemon restart).
    pub fn drop_connections(&self) {
        let sessions: Vec<Arc<Endpoint>> = self.sessions.lock().drain(..).collect();
        for endpoint in sessions {
            endpoint.abort();
        }
    }

    /// Number of events (originals and replacements) the session for
    /// `identity` still tracks — a leak check for tests: once the client has
    /// released every event, this is 0.
    pub fn events_held(&self, identity: &str) -> Option<usize> {
        let state = Arc::clone(self.registry.lock().by_identity.get(identity)?);
        let held = state.lock().events.len();
        Some(held)
    }
}

/// Bounded identity → session-state map enabling reconnect revival.
#[derive(Default)]
struct SessionRegistry {
    order: VecDeque<String>,
    by_identity: HashMap<String, Arc<Mutex<SessionState>>>,
}

/// How many distinct client identities a daemon parks state for.
const MAX_PARKED_SESSIONS: usize = 64;

impl SessionRegistry {
    /// Register `fresh` under `identity`, or — when `epoch > 0` and the
    /// identity is known — hand back the existing (parked) state instead.
    fn adopt_or_register(
        &mut self,
        identity: &str,
        epoch: u64,
        fresh: &Arc<Mutex<SessionState>>,
    ) -> (Arc<Mutex<SessionState>>, bool) {
        if epoch > 0 {
            if let Some(existing) = self.by_identity.get(identity) {
                return (Arc::clone(existing), true);
            }
        }
        if !self.by_identity.contains_key(identity) {
            self.order.push_back(identity.to_string());
            while self.order.len() > MAX_PARKED_SESSIONS {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_identity.remove(&evicted);
                }
            }
        }
        self.by_identity.insert(identity.to_string(), Arc::clone(fresh));
        (Arc::clone(fresh), false)
    }
}

/// Bounded window of recently executed command ids (client-generated,
/// idempotent): a batch replayed after a reconnect is recognised here and
/// executes exactly once.
struct DedupWindow {
    capacity: usize,
    order: VecDeque<u64>,
    /// command id → completion event id of the already-executed command.
    seen: HashMap<u64, ObjectId>,
    /// Commands executed for the first time.
    admitted: u64,
    /// Replayed commands suppressed by the window.
    replayed: u64,
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow {
            capacity: 4096,
            order: VecDeque::new(),
            seen: HashMap::new(),
            admitted: 0,
            replayed: 0,
        }
    }
}

impl DedupWindow {
    /// If `command_id` was executed before, count the replay and return the
    /// original completion event id.
    fn replay_hit(&mut self, command_id: u64) -> Option<ObjectId> {
        if command_id == 0 {
            return None;
        }
        let event_id = self.seen.get(&command_id).copied()?;
        self.replayed += 1;
        Some(event_id)
    }

    /// Record a command executed for the first time.
    fn admit(&mut self, command_id: u64, event_id: ObjectId) {
        if command_id == 0 {
            return;
        }
        self.admitted += 1;
        self.order.push_back(command_id);
        self.seen.insert(command_id, event_id);
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
    }
}

/// Per-connection session: the id → remote-object tables plus the handler
/// that dispatches requests onto the native runtime.
pub struct DaemonSession {
    daemon_name: String,
    all_devices: Vec<Arc<Device>>,
    policy: Arc<dyn AccessPolicy>,
    stats: Arc<Mutex<DaemonStats>>,
    endpoint: Mutex<Option<Weak<Endpoint>>>,
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
struct SessionState {
    client_name: String,
    auth_id: Option<String>,
    epoch: u64,
    contexts: HashMap<ObjectId, Arc<Context>>,
    queues: HashMap<ObjectId, Arc<CommandQueue>>,
    buffers: HashMap<ObjectId, Arc<Buffer>>,
    programs: HashMap<ObjectId, Arc<Program>>,
    kernels: HashMap<ObjectId, Arc<Kernel>>,
    events: HashMap<ObjectId, Arc<Event>>,
    dedup: DedupWindow,
    disconnected: bool,
}

impl DaemonSession {
    fn new(
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
            endpoint: Mutex::new(None),
            state: Mutex::new(Arc::new(Mutex::new(SessionState::default()))),
            my_epoch: AtomicU64::new(0),
            registry,
        }
    }

    fn set_endpoint(&self, endpoint: &Arc<Endpoint>) {
        *self.endpoint.lock() = Some(Arc::downgrade(endpoint));
    }

    /// The (possibly adopted) session state.
    fn state(&self) -> Arc<Mutex<SessionState>> {
        Arc::clone(&self.state.lock())
    }

    fn endpoint(&self) -> Option<Arc<Endpoint>> {
        self.endpoint.lock().as_ref().and_then(Weak::upgrade)
    }

    fn visible_devices(&self) -> Vec<Arc<Device>> {
        let auth = self.state().lock().auth_id.clone();
        self.policy.visible_devices(auth.as_deref(), &self.all_devices)
    }

    fn device_by_id(&self, id: ObjectId) -> std::result::Result<Arc<Device>, ClError> {
        self.visible_devices().into_iter().find(|d| d.id() == id).ok_or(ClError::DeviceNotFound)
    }

    fn cl_error(e: &ClError) -> Response {
        Response::Error { code: e.code(), message: e.to_string() }
    }

    /// Drain every queue of `buffer`'s context before coherence traffic
    /// touches the buffer directly (not through a queue): a kernel that was
    /// enqueued earlier may still be writing it, and the MSI protocol
    /// assumes the copy it moves reflects all previously submitted commands.
    ///
    /// The wait is bounded: this runs on the session's receiver thread, and
    /// a queued command could be gated on a replacement event whose status
    /// forward ([`ClientNotification::EventStatus`]) arrives over that very
    /// thread — an unbounded `finish()` would then deadlock.  A queue in
    /// that state stalls the transfer for the full timeout and the data is
    /// read as-is (the pre-quiesce behaviour); the timeout is kept short so
    /// that worst case is a bounded delay, while the common case — a busy
    /// but ungated queue — drains in microseconds.  Command failures surface
    /// through their own events, so they are ignored here.
    fn quiesce_buffer_queues(&self, buffer: &Buffer) {
        let queues: Vec<Arc<CommandQueue>> = {
            let shared = self.state();
            let state = shared.lock();
            state
                .queues
                .values()
                .filter(|q| q.context().id() == buffer.context().id())
                .cloned()
                .collect()
        };
        for queue in queues {
            if let Ok(marker) = queue.enqueue_marker(Vec::new()) {
                let _ = marker.wait_timeout(Duration::from_millis(500));
            }
        }
    }

    fn missing(kind: &str, id: ObjectId) -> Response {
        Response::Error { code: -34, message: format!("unknown {kind} id {id}") }
    }

    /// Register a completion callback on `event` that reports completion to
    /// the client as a notification.
    fn notify_on_completion(&self, event_id: ObjectId, event: &Arc<Event>) {
        let endpoint = self.endpoint.lock().clone();
        let weak_event = Arc::downgrade(event);
        event.on_complete(Box::new(move |status| {
            let Some(endpoint) = endpoint.as_ref().and_then(Weak::upgrade) else { return };
            let Some(event) = weak_event.upgrade() else { return };
            let (modeled_nanos, work_items) = (
                event.modeled_duration().as_nanos() as u64,
                event.counters().map(|c| c.work_items).unwrap_or(0),
            );
            let status_code = match status {
                EventStatus::Complete => 0,
                EventStatus::Error(code) => code,
                other => other.code(),
            };
            let notification = Notification::EventCompleted {
                event_id,
                status: status_code,
                modeled_nanos,
                work_items,
            };
            let _ = endpoint.notify(notification.to_bytes());
        }));
    }

    fn resolve_wait_list(
        state: &SessionState,
        wait_events: &[ObjectId],
    ) -> std::result::Result<Vec<Arc<Event>>, Response> {
        let mut out = Vec::with_capacity(wait_events.len());
        for id in wait_events {
            match state.events.get(id) {
                Some(e) => out.push(Arc::clone(e)),
                None => return Err(Self::missing("event", *id)),
            }
        }
        Ok(out)
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
    ) -> std::result::Result<(Arc<CommandQueue>, Vec<Arc<Event>>), Response> {
        let shared = self.state();
        let state = shared.lock();
        let queue = match state.queues.get(&queue_id) {
            Some(q) => Arc::clone(q),
            None => return Err(Self::missing("queue", queue_id)),
        };
        let mut wait = Self::resolve_wait_list(&state, wait_events)?;
        if let Some(prev) = chain {
            wait.push(Arc::clone(prev));
        }
        Ok((queue, wait))
    }

    fn buffer_by_id(&self, buffer_id: ObjectId) -> std::result::Result<Arc<Buffer>, Response> {
        match self.state().lock().buffers.get(&buffer_id) {
            Some(b) => Ok(Arc::clone(b)),
            None => Err(Self::missing("buffer", buffer_id)),
        }
    }

    /// Record a freshly enqueued command's event: push its completion to the
    /// client and remember it for later wait lists.
    fn track_event(&self, event_id: ObjectId, event: &Arc<Event>) {
        self.notify_on_completion(event_id, event);
        self.state().lock().events.insert(event_id, Arc::clone(event));
    }

    /// The payload of an upload, bulk stream `stream_id`.  The client sends
    /// it before the request that names it, so the stream has already been
    /// reassembled.
    fn upload_stream(&self, stream_id: u64) -> std::result::Result<Vec<u8>, Response> {
        let Some(endpoint) = self.endpoint() else {
            return Err(Response::Error { code: -36, message: "no endpoint".into() });
        };
        endpoint.wait_bulk(stream_id, Duration::from_secs(120)).map_err(|e| Response::Error {
            code: -30,
            message: format!("missing upload stream: {e}"),
        })
    }

    /// Enqueue the command of one [`Request::EnqueueBatch`] entry and track
    /// its event.
    fn enqueue_entry(
        &self,
        entry: BatchEntry,
        chain: Option<&Arc<Event>>,
    ) -> std::result::Result<Arc<Event>, Response> {
        let event = match entry.command {
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
                let (queue, wait) =
                    self.resolve_enqueue(entry.queue_id, &entry.wait_events, chain)?;
                let buffer = self.buffer_by_id(buffer_id)?;
                queue
                    .enqueue_write_buffer(&buffer, offset as usize, data, wait)
                    .map_err(|e| Self::cl_error(&e))?
            }
            BatchCommand::ReadBuffer { buffer_id, offset, size, stream_id } => {
                let (queue, wait) =
                    self.resolve_enqueue(entry.queue_id, &entry.wait_events, chain)?;
                let buffer = self.buffer_by_id(buffer_id)?;
                let event = queue
                    .enqueue_read_buffer(&buffer, offset as usize, size as usize, wait)
                    .map_err(|e| Self::cl_error(&e))?;
                // When the read completes, ship the data to the client as a
                // bulk stream; the completion notification follows (FIFO), so
                // by the time the client's event resolves the data is en route.
                let endpoint = self.endpoint.lock().clone();
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
                let (queue, wait) =
                    self.resolve_enqueue(entry.queue_id, &entry.wait_events, chain)?;
                let kernel = match self.state().lock().kernels.get(&kernel_id) {
                    Some(k) => Arc::clone(k),
                    None => return Err(Self::missing("kernel", kernel_id)),
                };
                self.stats.lock().kernel_launches += 1;
                queue
                    .enqueue_nd_range_kernel(&kernel, range.0, wait)
                    .map_err(|e| Self::cl_error(&e))?
            }
            BatchCommand::Marker => {
                let (queue, wait) =
                    self.resolve_enqueue(entry.queue_id, &entry.wait_events, chain)?;
                queue.enqueue_marker(wait).map_err(|e| Self::cl_error(&e))?
            }
            BatchCommand::Release { .. } | BatchCommand::Replacement { .. } => {
                unreachable!("bookkeeping entries are handled by the batch loop")
            }
        };
        self.track_event(entry.event_id, &event);
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

    fn handle(&self, request: Request) -> Response {
        self.stats.lock().requests += 1;
        match request {
            Request::Hello { client_name, auth_id, epoch } => {
                // A client identifies itself by auth id when it has one (the
                // device manager hands those out), otherwise by name.  A
                // reconnecting client re-sends Hello with a bumped epoch and
                // adopts the state its previous connection parked in the
                // daemon's registry — remote objects and dedup window
                // survive the connection, per Section IV-C.
                let identity = auth_id.clone().unwrap_or_else(|| client_name.clone());
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
                let mut resolved = Vec::with_capacity(devices.len());
                for id in devices {
                    match self.device_by_id(id) {
                        Ok(d) => resolved.push(d),
                        Err(e) => return Self::cl_error(&e),
                    }
                }
                match Context::new(resolved) {
                    Ok(ctx) => {
                        self.state().lock().contexts.insert(context_id, ctx);
                        Response::Ok
                    }
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::ReleaseContext { context_id } => {
                self.state().lock().contexts.remove(&context_id);
                Response::Ok
            }
            Request::CreateCommandQueue { queue_id, context_id, device } => {
                let context = match self.state().lock().contexts.get(&context_id) {
                    Some(c) => Arc::clone(c),
                    None => return Self::missing("context", context_id),
                };
                let device = match self.device_by_id(device) {
                    Ok(d) => d,
                    Err(e) => return Self::cl_error(&e),
                };
                match CommandQueue::new(
                    context,
                    device,
                    QueueProperties { profiling: true, out_of_order: false },
                ) {
                    Ok(q) => {
                        self.state().lock().queues.insert(queue_id, q);
                        Response::Ok
                    }
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::ReleaseCommandQueue { queue_id } => {
                self.state().lock().queues.remove(&queue_id);
                Response::Ok
            }
            Request::CreateBuffer { buffer_id, context_id, size, readable, writable } => {
                let context = match self.state().lock().contexts.get(&context_id) {
                    Some(c) => Arc::clone(c),
                    None => return Self::missing("context", context_id),
                };
                let flags = MemFlags { readable, writable };
                match Buffer::new(context, size as usize, flags, None) {
                    Ok(b) => {
                        self.state().lock().buffers.insert(buffer_id, b);
                        Response::Ok
                    }
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::ReleaseBuffer { buffer_id } => {
                self.state().lock().buffers.remove(&buffer_id);
                Response::Ok
            }
            Request::CreateProgramWithSource { program_id, context_id, source } => {
                let context = match self.state().lock().contexts.get(&context_id) {
                    Some(c) => Arc::clone(c),
                    None => return Self::missing("context", context_id),
                };
                let program = Program::with_source(context, source);
                self.state().lock().programs.insert(program_id, program);
                Response::Ok
            }
            Request::CreateProgramWithBuiltInKernels { program_id, context_id, names } => {
                let context = match self.state().lock().contexts.get(&context_id) {
                    Some(c) => Arc::clone(c),
                    None => return Self::missing("context", context_id),
                };
                match Program::with_built_in_kernels(context, &names) {
                    Ok(program) => {
                        self.state().lock().programs.insert(program_id, program);
                        Response::Ok
                    }
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::BuildProgram { program_id } => {
                let program = match self.state().lock().programs.get(&program_id) {
                    Some(p) => Arc::clone(p),
                    None => return Self::missing("program", program_id),
                };
                match program.build() {
                    Ok(()) => Response::Ok,
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::GetBuildLog { program_id } => {
                let program = match self.state().lock().programs.get(&program_id) {
                    Some(p) => Arc::clone(p),
                    None => return Self::missing("program", program_id),
                };
                Response::BuildLog { log: program.build_log() }
            }
            Request::CreateKernel { kernel_id, program_id, name } => {
                let program = match self.state().lock().programs.get(&program_id) {
                    Some(p) => Arc::clone(p),
                    None => return Self::missing("program", program_id),
                };
                match program.create_kernel(&name) {
                    Ok(k) => {
                        self.state().lock().kernels.insert(kernel_id, k);
                        Response::Ok
                    }
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::SetKernelArgScalar { kernel_id, index, value } => {
                let kernel = match self.state().lock().kernels.get(&kernel_id) {
                    Some(k) => Arc::clone(k),
                    None => return Self::missing("kernel", kernel_id),
                };
                match kernel.set_arg(index as usize, KernelArg::Scalar(value.0)) {
                    Ok(()) => Response::Ok,
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::SetKernelArgBuffer { kernel_id, index, buffer_id } => {
                let (kernel, buffer) = {
                    let shared = self.state();
                    let state = shared.lock();
                    let kernel = match state.kernels.get(&kernel_id) {
                        Some(k) => Arc::clone(k),
                        None => return Self::missing("kernel", kernel_id),
                    };
                    let buffer = match state.buffers.get(&buffer_id) {
                        Some(b) => Arc::clone(b),
                        None => return Self::missing("buffer", buffer_id),
                    };
                    (kernel, buffer)
                };
                match kernel.set_arg(index as usize, KernelArg::Buffer(buffer)) {
                    Ok(()) => Response::Ok,
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::SetKernelArgLocal { kernel_id, index, bytes } => {
                let kernel = match self.state().lock().kernels.get(&kernel_id) {
                    Some(k) => Arc::clone(k),
                    None => return Self::missing("kernel", kernel_id),
                };
                match kernel.set_arg(index as usize, KernelArg::Local(bytes as usize)) {
                    Ok(()) => Response::Ok,
                    Err(e) => Self::cl_error(&e),
                }
            }
            Request::EnqueueBatch { entries } => {
                // Entries are enqueued strictly in order.  Each entry gains an
                // implicit dependency on the previous entry of the *same*
                // queue, so an execution-time failure cascades down the rest
                // of the batch (wait-list error, -14) while completed entries
                // stay completed.  Enqueue-time failures stop the batch: the
                // failing entry's status carries the error and unattempted
                // entries get no status at all (the client fails their events
                // locally).
                let mut statuses = Vec::with_capacity(entries.len());
                let mut prev: HashMap<ObjectId, Arc<Event>> = HashMap::new();
                for entry in entries {
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
                    // recognised by the dedup window and NOT re-enqueued.
                    // The completion notification is re-armed instead, so a
                    // client that missed it across a reconnect hears it
                    // again (`on_complete` fires immediately on terminal
                    // events).
                    let hit = {
                        let shared = self.state();
                        let mut state = shared.lock();
                        state
                            .dedup
                            .replay_hit(entry.command_id)
                            .map(|orig| (orig, state.events.get(&orig).cloned()))
                    };
                    if let Some((orig_event, event)) = hit {
                        statuses.push(BatchEntryStatus::ok());
                        if let Some(event) = event {
                            self.notify_on_completion(orig_event, &event);
                            prev.insert(entry.queue_id, event);
                        }
                        continue;
                    }
                    let chain = prev.get(&entry.queue_id).cloned();
                    let (command_id, event_id, queue_id) =
                        (entry.command_id, entry.event_id, entry.queue_id);
                    let result = self.enqueue_entry(entry, chain.as_ref());
                    match result {
                        Ok(event) => {
                            statuses.push(BatchEntryStatus::ok());
                            self.state().lock().dedup.admit(command_id, event_id);
                            prev.insert(queue_id, event);
                        }
                        Err(resp) => {
                            let (code, message) = match resp {
                                Response::Error { code, message } => (code, message),
                                other => (-30, format!("unexpected enqueue failure: {other:?}")),
                            };
                            statuses.push(BatchEntryStatus { code, message });
                            break;
                        }
                    }
                }
                Response::BatchEnqueued { statuses }
            }
            Request::GetEventStatus { event_id } => {
                let event = match self.state().lock().events.get(&event_id) {
                    Some(e) => Arc::clone(e),
                    None => return Self::missing("event", event_id),
                };
                Response::EventStatus { status: event.status().code() }
            }
            Request::UploadBufferRange { buffer_id, ranges, stream_id } => {
                let data = match self.upload_stream(stream_id) {
                    Ok(d) => d,
                    Err(resp) => return resp,
                };
                let total = ranges.iter().try_fold(0u64, |sum, &(_, size)| sum.checked_add(size));
                if total != Some(data.len() as u64) {
                    return Response::Error {
                        code: -30,
                        message: format!(
                            "range upload stream holds {} bytes, not the ranges' total",
                            data.len()
                        ),
                    };
                }
                let buffer = match self.buffer_by_id(buffer_id) {
                    Ok(b) => b,
                    Err(resp) => return resp,
                };
                let limit = buffer.size() as u64;
                if let Some((offset, size)) =
                    ranges.iter().find(|(offset, size)| offset.saturating_add(*size) > limit)
                {
                    return Response::Error {
                        code: -30,
                        message: format!(
                            "range upload {offset}+{size} exceeds buffer size {limit}"
                        ),
                    };
                }
                self.quiesce_buffer_queues(&buffer);
                self.stats.lock().bytes_uploaded += data.len() as u64;
                // Each range is its own device write and pays its own bus cost.
                let devices = buffer.context().devices();
                let mut bus_time = Duration::ZERO;
                let mut at = 0;
                for &(offset, size) in &ranges {
                    let size = size as usize;
                    if let Err(e) = buffer.write(offset as usize, &data[at..at + size]) {
                        return Self::cl_error(&e);
                    }
                    at += size;
                    bus_time += devices
                        .first()
                        .map(|d| d.profile().bus.write_time(size as u64))
                        .unwrap_or_default();
                }
                Response::OkTimed { modeled_nanos: bus_time.as_nanos() as u64 }
            }
            Request::DownloadBufferRange { buffer_id, offset, size, stream_id } => {
                let Some(endpoint) = self.endpoint() else {
                    return Response::Error { code: -36, message: "no endpoint".into() };
                };
                let buffer = match self.buffer_by_id(buffer_id) {
                    Ok(b) => b,
                    Err(resp) => return resp,
                };
                if offset.saturating_add(size) > buffer.size() as u64 {
                    return Response::Error {
                        code: -30,
                        message: format!(
                            "range download {offset}+{size} exceeds buffer size {}",
                            buffer.size()
                        ),
                    };
                }
                self.quiesce_buffer_queues(&buffer);
                let data = match buffer.read(offset as usize, size as usize) {
                    Ok(d) => d,
                    Err(e) => return Self::cl_error(&e),
                };
                self.stats.lock().bytes_downloaded += data.len() as u64;
                let bus_time = buffer
                    .context()
                    .devices()
                    .first()
                    .map(|d| d.profile().bus.read_time(data.len() as u64))
                    .unwrap_or_default();
                let _ = endpoint.send_bulk(stream_id, &data);
                Response::OkTimed { modeled_nanos: bus_time.as_nanos() as u64 }
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
        }
    }
}

impl EndpointHandler for DaemonSession {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        let response = match Request::from_bytes(payload) {
            Ok(request) => self.handle(request),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireNdRange;
    use gcf::rpc::NullHandler;
    use gcf::transport::inproc::InprocTransport;

    fn start_test_daemon() -> (Arc<Daemon>, Arc<Endpoint>, InprocTransport) {
        let transport = InprocTransport::new();
        let platform = Platform::test_platform(2);
        let daemon = Daemon::start(
            "node0",
            &platform,
            Arc::new(transport.clone()),
            "node0",
            Arc::new(OpenAccess),
        )
        .unwrap();
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "test-client");
        (daemon, endpoint, transport)
    }

    fn call(endpoint: &Arc<Endpoint>, request: Request) -> Response {
        let bytes = endpoint.call(request.to_bytes()).unwrap();
        Response::from_bytes(&bytes).unwrap()
    }

    /// A batch of the one command `command` on queue 2, completing as
    /// event `event_id` once `wait_events` have.
    fn single_command(
        event_id: ObjectId,
        wait_events: Vec<ObjectId>,
        command: BatchCommand,
    ) -> Request {
        let entry = BatchEntry { command_id: 0, queue_id: 2, event_id, wait_events, command };
        Request::EnqueueBatch { entries: vec![entry] }
    }

    /// Whole-buffer download of buffer 3 (`size` bytes) on `stream_id`.
    fn download_all(endpoint: &Arc<Endpoint>, size: u64, stream_id: u64) -> Vec<u8> {
        let resp = call(
            endpoint,
            Request::DownloadBufferRange { buffer_id: 3, offset: 0, size, stream_id },
        );
        assert!(matches!(resp, Response::OkTimed { .. }), "{resp:?}");
        endpoint.wait_bulk(stream_id, Duration::from_secs(5)).unwrap()
    }

    /// The session's `(dedup_admitted, dedup_replayed)` counters.
    fn dedup_window_counts(endpoint: &Arc<Endpoint>) -> (u64, u64) {
        let Response::SessionInfo(info) = call(endpoint, Request::GetSessionInfo) else {
            panic!("expected session info")
        };
        (info.dedup_admitted, info.dedup_replayed)
    }

    #[test]
    fn device_list_and_server_info() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "test".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!("expected device list")
        };
        assert_eq!(devices.len(), 2);
        let Response::ServerInfo(info) = call(&endpoint, Request::GetServerInfo) else {
            panic!("expected server info")
        };
        assert_eq!(info.name, "node0");
        assert_eq!(info.device_count, 2);
        assert!(!info.managed);
    }

    #[test]
    fn full_remote_kernel_round_trip() {
        let (daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "test".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        let dev = devices[0].remote_id;
        assert!(matches!(
            call(&endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] }),
            Response::Ok
        ));
        assert!(matches!(
            call(
                &endpoint,
                Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev }
            ),
            Response::Ok
        ));
        assert!(matches!(
            call(
                &endpoint,
                Request::CreateBuffer {
                    buffer_id: 3,
                    context_id: 1,
                    size: 64,
                    readable: true,
                    writable: true
                }
            ),
            Response::Ok
        ));
        assert!(matches!(
            call(
                &endpoint,
                Request::CreateProgramWithSource {
                    program_id: 4,
                    context_id: 1,
                    source: "__kernel void fill(__global int* out, int v) { out[get_global_id(0)] = v; }"
                        .into()
                }
            ),
            Response::Ok
        ));
        assert!(matches!(call(&endpoint, Request::BuildProgram { program_id: 4 }), Response::Ok));
        assert!(matches!(
            call(
                &endpoint,
                Request::CreateKernel { kernel_id: 5, program_id: 4, name: "fill".into() }
            ),
            Response::Ok
        ));
        assert!(matches!(
            call(&endpoint, Request::SetKernelArgBuffer { kernel_id: 5, index: 0, buffer_id: 3 }),
            Response::Ok
        ));
        assert!(matches!(
            call(
                &endpoint,
                Request::SetKernelArgScalar {
                    kernel_id: 5,
                    index: 1,
                    value: crate::protocol::WireValue(vocl::Value::int(7))
                }
            ),
            Response::Ok
        ));
        let launch =
            BatchCommand::NdRange { kernel_id: 5, range: WireNdRange(vocl::NdRange::linear(16)) };
        let resp = call(&endpoint, single_command(6, vec![], launch));
        assert_eq!(resp, Response::BatchEnqueued { statuses: vec![BatchEntryStatus::ok()] });
        // Download the buffer through the coherence path and check contents.
        let data = download_all(&endpoint, 64, 777);
        assert_eq!(data.len(), 64);
        for chunk in data.chunks_exact(4) {
            assert_eq!(i32::from_le_bytes(chunk.try_into().unwrap()), 7);
        }
        assert!(daemon.stats().kernel_launches == 1);
    }

    #[test]
    fn upload_stream_then_request_roundtrip() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "c".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        let dev = devices[0].remote_id;
        call(&endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
        call(&endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
        call(
            &endpoint,
            Request::CreateBuffer {
                buffer_id: 3,
                context_id: 1,
                size: 8,
                readable: true,
                writable: true,
            },
        );
        // Send the payload first (stream-based communication), then the
        // request (message-based communication).
        endpoint.send_bulk(42, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let write = BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: 8, stream_id: 42 };
        let resp = call(&endpoint, single_command(10, vec![], write));
        assert_eq!(resp, Response::BatchEnqueued { statuses: vec![BatchEntryStatus::ok()] });
        // Read it back.
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 8, stream_id: 43 };
        let resp = call(&endpoint, single_command(11, vec![10], read));
        assert_eq!(resp, Response::BatchEnqueued { statuses: vec![BatchEntryStatus::ok()] });
        let data = endpoint.wait_bulk(43, Duration::from_secs(5)).unwrap();
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn range_upload_writes_every_range_or_nothing() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "c".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        call(
            &endpoint,
            Request::CreateContext { context_id: 1, devices: vec![devices[0].remote_id] },
        );
        let create = Request::CreateBuffer {
            buffer_id: 3,
            context_id: 1,
            size: 64,
            readable: true,
            writable: true,
        };
        call(&endpoint, create);
        let upload = |stream_id: u64, ranges: Vec<(u64, u64)>, data: &[u8]| {
            endpoint.send_bulk(stream_id, data).unwrap();
            call(&endpoint, Request::UploadBufferRange { buffer_id: 3, ranges, stream_id })
        };
        let contents = |stream_id: u64| download_all(&endpoint, 64, stream_id);
        // A whole-buffer upload is the one range `[(0, size)]`.
        let original: Vec<u8> = (0..64).collect();
        let resp = upload(40, vec![(0, 64)], &original);
        assert!(matches!(resp, Response::OkTimed { .. }), "{resp:?}");
        // A stream one byte short of its ranges, a range past the end, and a
        // range whose end overflows: each is refused before any write.
        let refused = [
            (vec![(4, 4), (40, 8)], 11),
            (vec![(4, 4), (60, 8)], 12),
            (vec![(4, 4), (u64::MAX, 1)], 5),
        ];
        for (i, (ranges, len)) in refused.into_iter().enumerate() {
            let resp = upload(50 + i as u64, ranges, &vec![0xee; len]);
            assert!(matches!(resp, Response::Error { code: -30, .. }), "{resp:?}");
        }
        assert_eq!(contents(60), original, "a refused upload wrote bytes");
        // A good one writes each range from its part of the stream.
        let resp = upload(61, vec![(4, 4), (40, 8)], &[[0xaa; 4].as_slice(), &[0xbb; 8]].concat());
        assert!(matches!(resp, Response::OkTimed { .. }), "{resp:?}");
        let mut expect = original.clone();
        expect[4..8].fill(0xaa);
        expect[40..48].fill(0xbb);
        assert_eq!(contents(62), expect);
    }

    /// Session with context 1, queue 2 and a 4-byte buffer 3.
    fn build_write_session(endpoint: &Arc<Endpoint>) {
        call(endpoint, Request::Hello { client_name: "c".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(endpoint, Request::GetDeviceList) else {
            panic!()
        };
        let dev = devices[0].remote_id;
        call(endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
        call(endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
        call(
            endpoint,
            Request::CreateBuffer {
                buffer_id: 3,
                context_id: 1,
                size: 4,
                readable: true,
                writable: true,
            },
        );
    }

    /// A batch whose one entry writes `[9; 4]` (bulk stream `stream_id`,
    /// sent first) into buffer 3 as event `event_id` once the replacement
    /// for event 100 — created by the same batch — completes.
    fn gated_write(endpoint: &Arc<Endpoint>, command_id: u64, event_id: ObjectId, stream_id: u64) {
        endpoint.send_bulk(stream_id, &[9, 9, 9, 9]).unwrap();
        let entry = |command_id, event_id, wait_events, command| BatchEntry {
            command_id,
            queue_id: 2,
            event_id,
            wait_events,
            command,
        };
        let request = Request::EnqueueBatch {
            entries: vec![
                entry(0, 100, vec![], BatchCommand::Replacement { status: None }),
                entry(
                    command_id,
                    event_id,
                    vec![100],
                    BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: 4, stream_id },
                ),
            ],
        };
        let Response::BatchEnqueued { statuses } = call(endpoint, request) else { panic!() };
        assert_eq!(statuses, vec![BatchEntryStatus::ok(); 2]);
    }

    fn forward(endpoint: &Arc<Endpoint>, event_id: ObjectId, status: i32) {
        let notification = ClientNotification::EventStatus { event_id, status };
        endpoint.notify(notification.to_bytes()).unwrap();
    }

    fn event_status(endpoint: &Arc<Endpoint>, event_id: ObjectId) -> i32 {
        let Response::EventStatus { status } = call(endpoint, Request::GetEventStatus { event_id })
        else {
            panic!("expected event status")
        };
        status
    }

    /// Poll until `event_id` is terminal and return its status.
    fn terminal_status(endpoint: &Arc<Endpoint>, event_id: ObjectId) -> i32 {
        for _ in 0..500 {
            let status = event_status(endpoint, event_id);
            if status <= 0 {
                return status;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("event {event_id} never reached a terminal state")
    }

    fn buffer_contents(endpoint: &Arc<Endpoint>, stream_id: u64) -> Vec<u8> {
        download_all(endpoint, 4, stream_id)
    }

    #[test]
    fn user_events_gate_execution() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        gated_write(&endpoint, 1, 101, 50);
        // The write is gated by the replacement: its status stays submitted.
        std::thread::sleep(Duration::from_millis(50));
        let status = event_status(&endpoint, 101);
        assert!(status > 0, "write must not have completed yet, status {status}");
        forward(&endpoint, 100, 0);
        // Now it completes.
        assert_eq!(terminal_status(&endpoint, 101), 0, "gated write never completed");
        assert_eq!(buffer_contents(&endpoint, 51), vec![9; 4]);
    }

    #[test]
    fn status_forward_overtaking_its_replacement_still_releases_the_command() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        // The forward arrives first and creates the replacement terminal;
        // the batch's upsert then finds it and changes nothing.
        forward(&endpoint, 100, 0);
        gated_write(&endpoint, 1, 101, 50);
        assert_eq!(terminal_status(&endpoint, 101), 0);
        // Repeating the forward (even with another status), and replaying
        // the batch, are no-ops.
        forward(&endpoint, 100, -5);
        assert_eq!(event_status(&endpoint, 100), 0);
        gated_write(&endpoint, 1, 101, 52);
        assert_eq!(dedup_window_counts(&endpoint), (1, 1));
        assert_eq!(event_status(&endpoint, 100), 0);
        assert_eq!(buffer_contents(&endpoint, 51), vec![9; 4]);
    }

    #[test]
    fn failed_forward_fails_the_gated_command_and_leaves_its_buffer() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        gated_write(&endpoint, 1, 101, 50);
        forward(&endpoint, 100, -5);
        assert_eq!(terminal_status(&endpoint, 101), -14, "wait-list error expected");
        assert_eq!(buffer_contents(&endpoint, 51), vec![0; 4], "the gated write must not run");
        // A forward never completes a command's own event.
        forward(&endpoint, 101, 0);
        assert_eq!(event_status(&endpoint, 101), -14);
    }

    #[test]
    fn released_events_leave_the_event_table() {
        let (daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        gated_write(&endpoint, 1, 101, 50);
        forward(&endpoint, 100, 0);
        assert_eq!(terminal_status(&endpoint, 101), 0);
        assert_eq!(daemon.events_held("c"), Some(2));
        // A release rides the next batch (here one of nothing else) ...
        let release = Request::EnqueueBatch {
            entries: vec![BatchEntry {
                command_id: 0,
                queue_id: 2,
                event_id: 0,
                wait_events: vec![],
                command: BatchCommand::Release { event_ids: vec![101] },
            }],
        };
        assert!(matches!(call(&endpoint, release), Response::BatchEnqueued { .. }));
        assert_eq!(daemon.events_held("c"), Some(1));
        // ... or travels on its own; ids the daemon does not hold are skipped.
        let notification = ClientNotification::ReleaseEvents { event_ids: vec![100, 7] };
        endpoint.notify(notification.to_bytes()).unwrap();
        call(&endpoint, Request::GetSessionInfo);
        assert_eq!(daemon.events_held("c"), Some(0));
    }

    #[test]
    fn errors_for_unknown_objects_and_malformed_requests() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        let resp = call(&endpoint, Request::BuildProgram { program_id: 999 });
        assert!(matches!(resp, Response::Error { .. }));
        let resp = call(&endpoint, Request::CreateContext { context_id: 1, devices: vec![12345] });
        assert!(matches!(resp, Response::Error { .. }));
        // Malformed payload.
        let bytes = endpoint.call(vec![255, 255]).unwrap();
        let resp = Response::from_bytes(&bytes).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn access_policy_filters_devices() {
        struct OnlyFirst;
        impl AccessPolicy for OnlyFirst {
            fn visible_devices(
                &self,
                auth_id: Option<&str>,
                all: &[Arc<Device>],
            ) -> Vec<Arc<Device>> {
                if auth_id == Some("lease") {
                    all.iter().take(1).cloned().collect()
                } else {
                    Vec::new()
                }
            }
            fn managed(&self) -> bool {
                true
            }
        }
        let transport = InprocTransport::new();
        let platform = Platform::test_platform(3);
        let daemon = Daemon::start(
            "managed-node",
            &platform,
            Arc::new(transport.clone()),
            "managed-node",
            Arc::new(OnlyFirst),
        )
        .unwrap();
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "client");
        // Without the right auth id: no devices.
        call(&endpoint, Request::Hello { client_name: "c".into(), auth_id: None, epoch: 0 });
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        assert!(devices.is_empty());
        // With it: one device.
        call(
            &endpoint,
            Request::Hello { client_name: "c".into(), auth_id: Some("lease".into()), epoch: 0 },
        );
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        assert_eq!(devices.len(), 1);
    }

    /// Build the session up to a runnable `fill` kernel: context 1,
    /// queue 2, buffer 3 (64 bytes), program 4, kernel 5 with the buffer
    /// and the value 7 bound.
    fn build_fill_session(endpoint: &Arc<Endpoint>) {
        let Response::DeviceList { devices } = call(endpoint, Request::GetDeviceList) else {
            panic!("expected device list")
        };
        let dev = devices[0].remote_id;
        call(endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
        call(endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
        call(
            endpoint,
            Request::CreateBuffer {
                buffer_id: 3,
                context_id: 1,
                size: 64,
                readable: true,
                writable: true,
            },
        );
        call(
            endpoint,
            Request::CreateProgramWithSource {
                program_id: 4,
                context_id: 1,
                source:
                    "__kernel void fill(__global int* out, int v) { out[get_global_id(0)] = v; }"
                        .into(),
            },
        );
        call(endpoint, Request::BuildProgram { program_id: 4 });
        call(endpoint, Request::CreateKernel { kernel_id: 5, program_id: 4, name: "fill".into() });
        call(endpoint, Request::SetKernelArgBuffer { kernel_id: 5, index: 0, buffer_id: 3 });
        call(
            endpoint,
            Request::SetKernelArgScalar {
                kernel_id: 5,
                index: 1,
                value: crate::protocol::WireValue(vocl::Value::int(7)),
            },
        );
    }

    fn fill_batch(command_id: u64, event_id: ObjectId) -> Request {
        Request::EnqueueBatch {
            entries: vec![crate::protocol::BatchEntry {
                command_id,
                queue_id: 2,
                event_id,
                wait_events: vec![],
                command: BatchCommand::NdRange {
                    kernel_id: 5,
                    range: WireNdRange(vocl::NdRange::linear(16)),
                },
            }],
        }
    }

    #[test]
    fn hello_returns_session_info_and_reconnect_resumes_state() {
        let (daemon, endpoint, transport) = start_test_daemon();
        let Response::SessionInfo(info) =
            call(&endpoint, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 0 })
        else {
            panic!("expected session info")
        };
        assert!(!info.resumed);
        assert_eq!(info.epoch, 0);
        build_fill_session(&endpoint);

        // Simulate a connection failure: the client redials and re-Hellos
        // with a bumped epoch; the daemon hands back the parked state.
        endpoint.abort();
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint2 = Endpoint::new(conn, Arc::new(NullHandler), "test-client-2");
        let Response::SessionInfo(info) =
            call(&endpoint2, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 1 })
        else {
            panic!("expected session info")
        };
        assert!(info.resumed, "epoch > 0 with a known identity must adopt the parked session");
        assert_eq!(info.epoch, 1);
        // The remote objects survived: the kernel enqueues without any
        // re-creation.
        let Response::BatchEnqueued { statuses } = call(&endpoint2, fill_batch(500, 90)) else {
            panic!("expected batch response")
        };
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].code, 0);
        let Response::SessionInfo(info) = call(&endpoint2, Request::GetSessionInfo) else {
            panic!("expected session info")
        };
        assert_eq!(info.epoch, 1);
        assert_eq!(info.dedup_admitted, 1);
    }

    #[test]
    fn fresh_epoch_zero_hello_does_not_resume() {
        let (daemon, endpoint, transport) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 0 });
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint2 = Endpoint::new(conn, Arc::new(NullHandler), "test-client-2");
        let Response::SessionInfo(info) =
            call(&endpoint2, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 0 })
        else {
            panic!("expected session info")
        };
        assert!(!info.resumed, "epoch 0 always starts a fresh session");
    }

    #[test]
    fn replayed_batch_executes_exactly_once() {
        let (daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 0 });
        build_fill_session(&endpoint);

        let Response::BatchEnqueued { statuses } = call(&endpoint, fill_batch(77, 10)) else {
            panic!("expected batch response")
        };
        assert_eq!(statuses[0].code, 0);
        let launches_after_first = daemon.stats().kernel_launches;
        assert_eq!(launches_after_first, 1);

        // The client lost the response and replays the identical batch:
        // the dedup window recognises command id 77 and does NOT launch
        // the kernel again.
        let Response::BatchEnqueued { statuses } = call(&endpoint, fill_batch(77, 10)) else {
            panic!("expected batch response")
        };
        assert_eq!(statuses[0].code, 0, "a replayed entry still reports success");
        assert_eq!(daemon.stats().kernel_launches, 1, "replay must not re-execute");
        assert_eq!(dedup_window_counts(&endpoint), (1, 1));

        // Command id 0 opts out of deduplication (legacy clients).
        for _ in 0..2 {
            let Response::BatchEnqueued { statuses } = call(&endpoint, fill_batch(0, 11)) else {
                panic!("expected batch response")
            };
            assert_eq!(statuses[0].code, 0);
        }
        assert_eq!(daemon.stats().kernel_launches, 3, "id 0 executes every time");
        assert_eq!(dedup_window_counts(&endpoint), (1, 1));
    }

    #[test]
    fn kill_severs_sessions_without_goodbye() {
        let (daemon, endpoint, transport) = start_test_daemon();
        call(&endpoint, Request::Hello { client_name: "app".into(), auth_id: None, epoch: 0 });
        daemon.kill();
        // Wait for the abort to propagate to this endpoint.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while endpoint.is_open() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(endpoint.call(Request::GetServerInfo.to_bytes()).is_err());
        // New connections are refused (the listener is shut down).
        assert!(transport.connect(daemon.address()).is_err());
    }
}
