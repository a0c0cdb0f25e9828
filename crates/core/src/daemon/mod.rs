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
//!
//! This module is the registry side: the [`Daemon`] and its accept loop,
//! and the session state parked across reconnects.  The execution side,
//! one [`DaemonSession`] per connection, is in `session.rs`.

mod session;

pub use session::DaemonSession;

use crate::protocol::ObjectId;
use crate::Result;
use gcf::rpc::{Endpoint, EndpointHandler};
use gcf::transport::{Listener, Transport};
use parking_lot::Mutex;
use session::SessionState;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use vocl::{Device, Platform};

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
        let state = Arc::clone(&self.registry.lock().by_identity.get(identity)?.1);
        let held = state.lock().events_held();
        Some(held)
    }
}

/// Bounded identity → (creation epoch, session state) map enabling
/// reconnect revival.
#[derive(Default)]
struct SessionRegistry {
    order: VecDeque<String>,
    by_identity: HashMap<String, (u64, Arc<Mutex<SessionState>>)>,
}

/// How many distinct client identities a daemon parks state for.
const MAX_PARKED_SESSIONS: usize = 64;

impl SessionRegistry {
    /// Register `fresh` under `identity` as created at `epoch`, or — when
    /// `epoch > 0` and the identity's state was created at `session_start`,
    /// the session the client built whole — hand that state back instead.
    fn adopt_or_register(
        &mut self,
        identity: &str,
        epoch: u64,
        session_start: u64,
        fresh: &Arc<Mutex<SessionState>>,
    ) -> (Arc<Mutex<SessionState>>, bool) {
        if let Some((created, existing)) = self.by_identity.get(identity) {
            if epoch > 0 && *created == session_start {
                return (Arc::clone(existing), true);
            }
        } else {
            self.order.push_back(identity.to_string());
            let excess = self.order.len().saturating_sub(MAX_PARKED_SESSIONS);
            for evicted in self.order.drain(..excess) {
                self.by_identity.remove(&evicted);
            }
        }
        self.by_identity.insert(identity.to_string(), (epoch, Arc::clone(fresh)));
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

#[cfg(test)]
mod tests {
    use super::session::{report_points, INLINE_STEPS};
    use super::*;
    use crate::protocol::{
        BatchCommand, BatchEntry, BatchEntryStatus, ClientNotification, Notification, Request,
        Response, WireNdRange,
    };
    use gcf::rpc::NullHandler;
    use gcf::rpc::STREAM_CHUNK;
    use gcf::transport::inproc::InprocTransport;
    use gcf::wire::{Decode, Encode};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn start_test_daemon() -> (Arc<Daemon>, Arc<Endpoint>, InprocTransport) {
        start_test_daemon_with(Arc::new(NullHandler))
    }

    /// A test daemon whose client endpoint hands notifications to `handler`.
    fn start_test_daemon_with(
        handler: Arc<dyn EndpointHandler>,
    ) -> (Arc<Daemon>, Arc<Endpoint>, InprocTransport) {
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
        let endpoint = Endpoint::new(conn, handler, "test-client");
        (daemon, endpoint, transport)
    }

    /// Records every completion an `EventsCompleted` frame carries as
    /// `(event_id, status)`, and counts the frames.
    #[derive(Default)]
    struct CompletionLog {
        completions: Mutex<Vec<(ObjectId, i32)>>,
        frames: AtomicU64,
    }

    impl CompletionLog {
        fn completions(&self) -> Vec<(ObjectId, i32)> {
            self.completions.lock().clone()
        }
    }

    impl EndpointHandler for CompletionLog {
        fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
            Vec::new()
        }
        fn handle_notification(&self, payload: &[u8]) {
            let Notification::EventsCompleted { events } =
                Notification::from_bytes(payload).unwrap();
            self.frames.fetch_add(1, Ordering::SeqCst);
            self.completions.lock().extend(events.iter().map(|c| (c.event_id, c.status)));
        }
    }

    /// A batch response's per-entry statuses, and its completions as
    /// `(event_id, status)`.
    fn batch_outcome(resp: Response) -> (Vec<BatchEntryStatus>, Vec<(ObjectId, i32)>) {
        let Response::BatchEnqueued { statuses, completed } = resp else {
            panic!("expected a batch response, got {resp:?}")
        };
        (statuses, completed.iter().map(|c| (c.event_id, c.status)).collect())
    }

    /// A first connect's `Hello` from client `name`.
    fn hello(name: &str) -> Request {
        Request::Hello { client_name: name.into(), auth_id: None, epoch: 0, session_start: 0 }
    }

    fn call(endpoint: &Arc<Endpoint>, request: Request) -> Response {
        let bytes = endpoint.call(request.to_bytes()).unwrap();
        Response::from_bytes(&bytes).unwrap()
    }

    /// [`call`], stream `stream_id` (`data`) following the request.
    fn call_then_stream(
        endpoint: &Arc<Endpoint>,
        request: Request,
        stream_id: u64,
        data: &[u8],
    ) -> Response {
        let bytes = endpoint.call_with_stream(request.to_bytes(), Some((stream_id, data))).unwrap();
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
            Request::DownloadBufferRange { buffer_id: 3, ranges: vec![(0, size)], stream_id },
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
        call(&endpoint, hello("test"));
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
        call(&endpoint, hello("test"));
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
        assert_eq!(batch_outcome(resp).0, vec![BatchEntryStatus::ok()]);
        // Download the buffer through the coherence path and check contents.
        // A coherence move does not wait for queued commands: the client
        // sends it once the commands it must follow have finished.
        assert_eq!(terminal_status(&endpoint, 6), 0);
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
        call(&endpoint, hello("c"));
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
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![(10, 0)]));
        // Read it back.
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 8, stream_id: 43 };
        let resp = call(&endpoint, single_command(11, vec![10], read));
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![(11, 0)]));
        let data = endpoint.wait_bulk(43, Duration::from_secs(5)).unwrap();
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn range_upload_writes_every_range_or_nothing() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, hello("c"));
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

    #[test]
    fn range_download_sends_every_range_or_nothing() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, hello("c"));
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
        let original: Vec<u8> = (0..64).collect();
        endpoint.send_bulk(40, &original).unwrap();
        call(
            &endpoint,
            Request::UploadBufferRange { buffer_id: 3, ranges: vec![(0, 64)], stream_id: 40 },
        );
        let download = |stream_id: u64, ranges: Vec<(u64, u64)>| {
            call(&endpoint, Request::DownloadBufferRange { buffer_id: 3, ranges, stream_id })
        };
        // Unsorted, overlapping, past the end, and overflowing lists: each
        // is refused before any byte is sent.
        let refused = [
            vec![(40, 8), (4, 4)],
            vec![(4, 8), (8, 4)],
            vec![(4, 4), (60, 8)],
            vec![(4, 4), (u64::MAX, 1)],
        ];
        for (i, ranges) in refused.into_iter().enumerate() {
            let resp = download(50 + i as u64, ranges);
            assert!(matches!(resp, Response::Error { code: -30, .. }), "{resp:?}");
        }
        // A good one sends its ranges back to back; the refused ones' streams
        // would have arrived ahead of it on the FIFO connection.
        let resp = download(60, vec![(4, 4), (8, 0), (40, 8)]);
        assert!(matches!(resp, Response::OkTimed { .. }), "{resp:?}");
        let data = endpoint.wait_bulk(60, Duration::from_secs(5)).unwrap();
        assert_eq!(data, [&original[4..8], &original[40..48]].concat());
        assert_eq!(endpoint.bulk_streams_held(), 0, "a refused download sent a stream");
    }

    /// Session with context 1, queue 2 and a 4-byte buffer 3.
    fn build_write_session(endpoint: &Arc<Endpoint>) {
        call(endpoint, hello("c"));
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
        let (statuses, _) = batch_outcome(call(endpoint, request));
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
    fn small_transfers_on_an_idle_queue_complete_before_the_response() {
        let log = Arc::new(CompletionLog::default());
        let (_daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_write_session(&endpoint);
        // A worker thread could beat the response now and then; running
        // inline, the stream always precedes the response, and the response
        // carries the status.
        for i in 0..100u8 {
            let (write_id, read_id) = (10 + 2 * u64::from(i), 11 + 2 * u64::from(i));
            endpoint.send_bulk(write_id, &[i; 4]).unwrap();
            let write =
                BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: write_id };
            let resp = call(&endpoint, single_command(write_id, vec![], write));
            let ok = vec![BatchEntryStatus::ok()];
            assert_eq!(batch_outcome(resp), (ok.clone(), vec![(write_id, 0)]), "write status");
            let read =
                BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: read_id };
            let resp = call(&endpoint, single_command(read_id, vec![write_id], read));
            assert_eq!(batch_outcome(resp), (ok, vec![(read_id, 0)]), "read status");
            assert_eq!(endpoint.try_take_bulk(read_id), Some(vec![i; 4]), "read streamed late");
        }
        assert_eq!(log.completions(), vec![], "a status also travelled in a frame");
    }

    /// A read that fails on the daemon sends no stream: a client that
    /// expected one and gives it up holds none.
    #[test]
    fn an_out_of_bounds_read_sends_no_stream() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        endpoint.expect_bulk(62, 4);
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 2, size: 4, stream_id: 62 };
        let resp = call(&endpoint, single_command(102, vec![], read));
        // It ran inline, so a stream would have come before the response.
        let ok = vec![BatchEntryStatus::ok()];
        assert_eq!(batch_outcome(resp), (ok, vec![(102, -30)]));
        assert_eq!(endpoint.bulk_streams_held(), 1, "more than the expectation is held");
        endpoint.discard_bulk(62, false);
        assert_eq!(endpoint.bulk_streams_held(), 0);
        assert_eq!(buffer_contents(&endpoint, 63), vec![0; 4]);
    }

    #[test]
    fn small_read_behind_a_gated_write_waits_for_the_forward() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        gated_write(&endpoint, 1, 101, 50);
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: 60 };
        let resp = call(&endpoint, single_command(102, vec![], read));
        assert_eq!(batch_outcome(resp).0, vec![BatchEntryStatus::ok()]);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(endpoint.try_take_bulk(60), None, "the read overtook the gated write");
        assert!(event_status(&endpoint, 102) > 0);
        forward(&endpoint, 100, 0);
        assert_eq!(endpoint.wait_bulk(60, Duration::from_secs(5)).unwrap(), vec![9; 4]);
        assert_eq!(terminal_status(&endpoint, 102), 0);
    }

    #[test]
    fn small_read_waiting_on_a_failed_replacement_fails() {
        let log = Arc::new(CompletionLog::default());
        let (_daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_write_session(&endpoint);
        let entry = |event_id, wait_events, command| BatchEntry {
            command_id: 0,
            queue_id: 2,
            event_id,
            wait_events,
            command,
        };
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: 61 };
        let request = Request::EnqueueBatch {
            entries: vec![
                entry(100, vec![], BatchCommand::Replacement { status: Some(-5) }),
                entry(101, vec![100], read),
            ],
        };
        let (statuses, mut completed) = batch_outcome(call(&endpoint, request));
        assert_eq!(statuses, vec![BatchEntryStatus::ok(); 2]);
        assert_eq!(terminal_status(&endpoint, 101), -14, "wait-list error expected");
        // The read waits on a failed replacement, so it runs on the worker,
        // which fails it; its status rides a frame, or the response when the
        // worker failed it before the daemon tracked it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while completed.is_empty()
            && log.completions().is_empty()
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        completed.extend(log.completions());
        assert_eq!(completed, vec![(101, -14)]);
        assert_eq!(endpoint.try_take_bulk(61), None, "a failed read sent data");
    }

    /// Poll until `log` holds at least `n` completions, then return them.
    fn completions_after(log: &CompletionLog, n: usize) -> Vec<(ObjectId, i32)> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while log.completions().len() < n && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        log.completions()
    }

    /// A command entry on `queue_id` as event `event_id`.
    fn on_queue(
        queue_id: ObjectId,
        event_id: ObjectId,
        wait_events: Vec<ObjectId>,
        command: BatchCommand,
    ) -> BatchEntry {
        BatchEntry { command_id: 0, queue_id, event_id, wait_events, command }
    }

    #[test]
    fn report_points_end_each_queues_runs() {
        let bookkeeping = |command| BatchEntry {
            command_id: 0,
            queue_id: 0,
            event_id: 0,
            wait_events: vec![],
            command,
        };
        let entries = vec![
            bookkeeping(BatchCommand::Release { event_ids: vec![1] }),
            on_queue(2, 10, vec![], BatchCommand::Marker),
            on_queue(2, 11, vec![], BatchCommand::Marker),
            on_queue(5, 12, vec![], BatchCommand::Marker),
            on_queue(2, 13, vec![7], BatchCommand::Marker),
            on_queue(2, 14, vec![], BatchCommand::Marker),
            bookkeeping(BatchCommand::Replacement { status: None }),
            on_queue(5, 15, vec![], BatchCommand::Marker),
        ];
        // 11 comes before an entry with a wait list, 14 and 15 end their
        // queues' runs.
        let expected = vec![false, false, true, false, false, true, false, true];
        assert_eq!(report_points(&entries), expected);
    }

    /// A launch of kernel 6, `inc` on buffer 3 of the session
    /// [`build_write_session`] made, over more work-items than
    /// [`INLINE_STEPS`] allows: it always goes to the queue's worker.
    fn worker_bound_launch(endpoint: &Arc<Endpoint>) -> BatchCommand {
        let source = "__kernel void inc(__global uint* c) { c[0] = c[0] + 1u; }".to_string();
        call(endpoint, Request::CreateProgramWithSource { program_id: 4, context_id: 1, source });
        assert!(matches!(call(endpoint, Request::BuildProgram { program_id: 4 }), Response::Ok));
        call(endpoint, Request::CreateKernel { kernel_id: 6, program_id: 4, name: "inc".into() });
        call(endpoint, Request::SetKernelArgBuffer { kernel_id: 6, index: 0, buffer_id: 3 });
        let range = WireNdRange(vocl::NdRange::linear(INLINE_STEPS as usize));
        BatchCommand::NdRange { kernel_id: 6, range }
    }

    /// A launch whose kernel loops has no step bound, so even one
    /// work-item on an idle queue runs on the worker: the session answers
    /// while it runs, and its status leaves in a completion frame.  A
    /// straight-line launch and a marker on the idle queue then complete
    /// inside their batch's response, unless the launch's bound times its
    /// work-items exceeds [`INLINE_STEPS`].
    #[test]
    fn a_looping_launch_runs_on_the_worker_and_a_straight_line_one_inline() {
        const SOURCE: &str = "__kernel void spin(__global uint* out, uint rounds) { \
            uint x = 1u; for (uint i = 0u; i < rounds; i++) { x = x * 1664525u + 1013904223u; } \
            out[0] = x; } \
            __kernel void inc(__global uint* c) { c[0] = c[0] + 1u; }";
        let log = Arc::new(CompletionLog::default());
        let (_daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_write_session(&endpoint);
        let source = SOURCE.to_string();
        call(&endpoint, Request::CreateProgramWithSource { program_id: 4, context_id: 1, source });
        assert!(matches!(call(&endpoint, Request::BuildProgram { program_id: 4 }), Response::Ok));
        for (kernel_id, name) in [(5, "spin"), (6, "inc")] {
            let name = name.to_string();
            call(&endpoint, Request::CreateKernel { kernel_id, program_id: 4, name });
            call(&endpoint, Request::SetKernelArgBuffer { kernel_id, index: 0, buffer_id: 3 });
        }
        let rounds = crate::protocol::WireValue(vocl::Value::uint(100_000));
        call(&endpoint, Request::SetKernelArgScalar { kernel_id: 5, index: 1, value: rounds });
        let launch = |kernel_id, items| BatchCommand::NdRange {
            kernel_id,
            range: WireNdRange(vocl::NdRange::linear(items)),
        };

        let resp = call(&endpoint, single_command(10, vec![], launch(5, 1)));
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![]));
        assert!(event_status(&endpoint, 10) > 0, "the spin ended before the session answered");
        assert_eq!(terminal_status(&endpoint, 10), 0);
        assert_eq!(completions_after(&log, 1), vec![(10, 0)]);

        let request = Request::EnqueueBatch {
            entries: vec![
                on_queue(2, 11, vec![], launch(6, 1)),
                on_queue(2, 12, vec![], BatchCommand::Marker),
            ],
        };
        let ok = vec![BatchEntryStatus::ok(); 2];
        assert_eq!(batch_outcome(call(&endpoint, request)), (ok, vec![(11, 0), (12, 0)]));
        assert_eq!(log.completions(), vec![(10, 0)], "an inline status also left in a frame");

        // Over more work-items than its bound allows, the same straight-line
        // kernel goes to the worker.
        let wide = launch(6, INLINE_STEPS as usize);
        let resp = call(&endpoint, single_command(13, vec![], wide));
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![]));
        assert_eq!(completions_after(&log, 2), vec![(10, 0), (13, 0)]);
    }

    #[test]
    fn a_status_before_an_entry_with_a_wait_list_leaves_while_it_waits() {
        let log = Arc::new(CompletionLog::default());
        let (_daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_write_session(&endpoint);
        let launch = worker_bound_launch(&endpoint);
        let request = Request::EnqueueBatch {
            entries: vec![
                on_queue(0, 100, vec![], BatchCommand::Replacement { status: None }),
                on_queue(2, 10, vec![], launch),
                on_queue(2, 11, vec![100], BatchCommand::Marker),
            ],
        };
        let outcome = batch_outcome(call(&endpoint, request));
        assert_eq!(outcome, (vec![BatchEntryStatus::ok(); 3], vec![]));
        assert_eq!(completions_after(&log, 1), vec![(10, 0)], "10 was held back");
        assert!(event_status(&endpoint, 11) > 0);
        forward(&endpoint, 100, 0);
        assert_eq!(completions_after(&log, 2), vec![(10, 0), (11, 0)]);
    }

    #[test]
    fn statuses_of_a_batch_cut_short_still_leave() {
        let log = Arc::new(CompletionLog::default());
        let (_daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_write_session(&endpoint);
        // The read names a buffer the session lacks, so the batch stops
        // there, and neither the launch nor the marker behind it on the
        // worker is the last entry of its queue.
        let launch = worker_bound_launch(&endpoint);
        let read = BatchCommand::ReadBuffer { buffer_id: 99, offset: 0, size: 4, stream_id: 60 };
        let request = Request::EnqueueBatch {
            entries: vec![
                on_queue(2, 10, vec![], launch),
                on_queue(2, 11, vec![], BatchCommand::Marker),
                on_queue(2, 12, vec![], read),
            ],
        };
        let (statuses, completed) = batch_outcome(call(&endpoint, request));
        assert_eq!(statuses[..2], [BatchEntryStatus::ok(), BatchEntryStatus::ok()]);
        assert_eq!(statuses[2].code, -34);
        assert_eq!(completed, vec![]);
        assert_eq!(completions_after(&log, 2), vec![(10, 0), (11, 0)]);
    }

    #[test]
    fn read_larger_than_one_stream_chunk_arrives_whole() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, hello("c"));
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        let dev = devices[0].remote_id;
        call(&endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
        call(&endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
        let size = 2 * STREAM_CHUNK + 3;
        let create = Request::CreateBuffer {
            buffer_id: 3,
            context_id: 1,
            size: size as u64,
            readable: true,
            writable: true,
        };
        call(&endpoint, create);
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let size = size as u64;
        let write = BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size, stream_id: 42 };
        let read = BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size, stream_id: 43 };
        let resp = call_then_stream(&endpoint, single_command(10, vec![], write), 42, &data);
        assert_eq!(batch_outcome(resp).0, vec![BatchEntryStatus::ok()]);
        let resp = call(&endpoint, single_command(11, vec![10], read));
        assert_eq!(batch_outcome(resp).0, vec![BatchEntryStatus::ok()]);
        assert!(endpoint.wait_bulk(43, Duration::from_secs(5)).unwrap() == data);
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
        call(&endpoint, hello("c"));
        let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList) else {
            panic!()
        };
        assert!(devices.is_empty());
        // With it: one device.
        call(
            &endpoint,
            Request::Hello {
                client_name: "c".into(),
                auth_id: Some("lease".into()),
                epoch: 0,
                session_start: 0,
            },
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
        let Response::SessionInfo(info) = call(&endpoint, hello("app")) else {
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
        let Response::SessionInfo(info) = call(
            &endpoint2,
            Request::Hello { client_name: "app".into(), auth_id: None, epoch: 1, session_start: 0 },
        ) else {
            panic!("expected session info")
        };
        assert!(info.resumed, "epoch > 0 with a known identity must adopt the parked session");
        assert_eq!(info.epoch, 1);
        // The remote objects survived: the kernel enqueues without any
        // re-creation.
        let Response::BatchEnqueued { statuses, .. } = call(&endpoint2, fill_batch(500, 90)) else {
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

    /// A reconnect resumes only the session the client finished building,
    /// the one created at its `session_start`; a parked session created at
    /// any other epoch (one whose setup-log replay failed part way) gives
    /// way to a fresh one.
    #[test]
    fn reconnect_resumes_only_the_session_created_at_session_start() {
        let (daemon, _endpoint, transport) = start_test_daemon();
        let hello = |epoch, session_start| {
            let conn = transport.connect(daemon.address()).unwrap();
            let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "redial");
            let hello =
                Request::Hello { client_name: "app".into(), auth_id: None, epoch, session_start };
            let Response::SessionInfo(info) = call(&endpoint, hello) else {
                panic!("expected session info")
            };
            info.resumed
        };
        assert!(!hello(0, 0));
        assert!(hello(1, 0), "the session created at epoch 0");
        // The client says its session started at epoch 1: not this one.
        assert!(!hello(2, 1));
        // Nor is the epoch-2 session the client's epoch-0 one.
        assert!(!hello(3, 0));
        assert!(hello(4, 3), "the session created at epoch 3");
    }

    #[test]
    fn fresh_epoch_zero_hello_does_not_resume() {
        let (daemon, endpoint, transport) = start_test_daemon();
        call(&endpoint, hello("app"));
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint2 = Endpoint::new(conn, Arc::new(NullHandler), "test-client-2");
        let Response::SessionInfo(info) = call(&endpoint2, hello("app")) else {
            panic!("expected session info")
        };
        assert!(!info.resumed, "epoch 0 always starts a fresh session");
    }

    #[test]
    fn replayed_batch_executes_exactly_once() {
        let (daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, hello("app"));
        build_fill_session(&endpoint);

        let Response::BatchEnqueued { statuses, .. } = call(&endpoint, fill_batch(77, 10)) else {
            panic!("expected batch response")
        };
        assert_eq!(statuses[0].code, 0);
        let launches_after_first = daemon.stats().kernel_launches;
        assert_eq!(launches_after_first, 1);

        // The client lost the response and replays the identical batch:
        // the dedup window recognises command id 77 and does NOT launch
        // the kernel again.
        let Response::BatchEnqueued { statuses, .. } = call(&endpoint, fill_batch(77, 10)) else {
            panic!("expected batch response")
        };
        assert_eq!(statuses[0].code, 0, "a replayed entry still reports success");
        assert_eq!(daemon.stats().kernel_launches, 1, "replay must not re-execute");
        assert_eq!(dedup_window_counts(&endpoint), (1, 1));

        // Command id 0 opts out of deduplication (legacy clients).
        for _ in 0..2 {
            let Response::BatchEnqueued { statuses, .. } = call(&endpoint, fill_batch(0, 11))
            else {
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
        call(&endpoint, hello("app"));
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

    /// A small write's stream precedes its request on the same connection,
    /// so one the daemon does not hold was lost: the entry fails at once,
    /// and the connection serves the next request.
    #[test]
    fn a_write_naming_a_stream_never_sent_fails_fast() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_write_session(&endpoint);
        let write = BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: 99 };
        let start = std::time::Instant::now();
        let (statuses, completed) =
            batch_outcome(call(&endpoint, single_command(10, vec![], write)));
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        assert_eq!(statuses[0].code, -30, "{statuses:?}");
        assert_eq!(completed, vec![]);
        assert!(matches!(call(&endpoint, Request::GetServerInfo), Response::ServerInfo(_)));
    }

    /// A kernel launch that names an unknown queue is not counted.
    #[test]
    fn a_launch_that_fails_to_enqueue_is_not_counted() {
        let (daemon, endpoint, _t) = start_test_daemon();
        call(&endpoint, hello("c"));
        build_fill_session(&endpoint);
        let launch =
            BatchCommand::NdRange { kernel_id: 5, range: WireNdRange(vocl::NdRange::linear(16)) };
        let entry = BatchEntry {
            command_id: 0,
            queue_id: 77,
            event_id: 10,
            wait_events: vec![],
            command: launch,
        };
        let (statuses, _) =
            batch_outcome(call(&endpoint, Request::EnqueueBatch { entries: vec![entry] }));
        assert_eq!(statuses[0].code, -34, "{statuses:?}");
        assert_eq!(daemon.stats().kernel_launches, 0);
        call(&endpoint, fill_batch(0, 11));
        assert_eq!(daemon.stats().kernel_launches, 1);
    }

    /// Bytes of a write over one stream chunk, and its size.
    const LARGE: usize = 2 * STREAM_CHUNK + 3;

    fn large_data(seed: u8) -> Vec<u8> {
        (0..LARGE).map(|i| (i % 251) as u8 ^ seed).collect()
    }

    /// Session with context 1, queue 2 and a [`LARGE`]-byte buffer 3.
    fn build_large_session(endpoint: &Arc<Endpoint>) {
        call(endpoint, hello("c"));
        let Response::DeviceList { devices } = call(endpoint, Request::GetDeviceList) else {
            panic!()
        };
        let dev = devices[0].remote_id;
        call(endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
        call(endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
        let create = Request::CreateBuffer {
            buffer_id: 3,
            context_id: 1,
            size: LARGE as u64,
            readable: true,
            writable: true,
        };
        assert!(matches!(call(endpoint, create), Response::Ok));
    }

    /// A write of all of buffer 3 from bulk stream `stream_id`.
    fn large_write(stream_id: u64) -> BatchCommand {
        BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: LARGE as u64, stream_id }
    }

    /// The daemon's end of its one client connection.
    fn daemon_endpoint(daemon: &Daemon) -> Arc<Endpoint> {
        Arc::clone(&daemon.sessions.lock()[0])
    }

    /// A large write on an idle queue runs while the daemon handles its
    /// batch, its stream received into the buffer, and its status rides
    /// the response.
    #[test]
    fn a_large_write_on_an_idle_queue_lands_in_the_buffer() {
        let log = Arc::new(CompletionLog::default());
        let (daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_large_session(&endpoint);
        let data = large_data(1);
        let resp =
            call_then_stream(&endpoint, single_command(10, vec![], large_write(40)), 40, &data);
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![(10, 0)]));
        assert!(download_all(&endpoint, LARGE as u64, 41) == data);
        assert_eq!(log.completions(), vec![], "the status also left in a frame");
        assert_eq!(daemon.stats().bytes_uploaded, LARGE as u64);
        assert_eq!(daemon_endpoint(&daemon).bulk_streams_held(), 0);
    }

    /// A request that arrives while a large write's stream is received
    /// runs once the stream is in: here a small write, whose own stream
    /// came in between too.
    #[test]
    fn frames_amid_a_large_write_run_after_it_in_order() {
        let (_daemon, endpoint, _t) = start_test_daemon();
        build_large_session(&endpoint);
        let data = large_data(2);
        let request = single_command(10, vec![], large_write(40)).to_bytes();
        // The large write's request, then the small write's stream and
        // request, then the large write's stream.
        let caller = {
            let endpoint = Arc::clone(&endpoint);
            std::thread::spawn(move || endpoint.call(request).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        endpoint.send_bulk(50, &[5; 4]).unwrap();
        let small = BatchCommand::WriteBuffer { buffer_id: 3, offset: 8, size: 4, stream_id: 50 };
        let request = on_queue(2, 11, vec![], small);
        let small_caller = {
            let endpoint = Arc::clone(&endpoint);
            let request = Request::EnqueueBatch { entries: vec![request] }.to_bytes();
            std::thread::spawn(move || endpoint.call(request).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!small_caller.is_finished(), "the small write ran amid the large one");
        endpoint.send_bulk(40, &data).unwrap();
        let resp = Response::from_bytes(&caller.join().unwrap()).unwrap();
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![(10, 0)]));
        let resp = Response::from_bytes(&small_caller.join().unwrap()).unwrap();
        assert_eq!(batch_outcome(resp), (vec![BatchEntryStatus::ok()], vec![(11, 0)]));
        let mut expect = data;
        expect[8..12].fill(5);
        assert!(download_all(&endpoint, LARGE as u64, 41) == expect, "wrong order");
    }

    /// A large write behind an entry that fails to enqueue, and one whose
    /// command the dedup window knows, do not run: their streams are read
    /// and dropped, and the connection stays in sync.
    #[test]
    fn a_large_write_that_does_not_run_drops_its_stream() {
        let (daemon, endpoint, _t) = start_test_daemon();
        build_large_session(&endpoint);
        let connection = daemon_endpoint(&daemon);
        let first = large_data(3);
        let bad_read =
            BatchCommand::ReadBuffer { buffer_id: 99, offset: 0, size: 4, stream_id: 30 };
        let request = Request::EnqueueBatch {
            entries: vec![
                on_queue(2, 10, vec![], bad_read),
                on_queue(2, 11, vec![], large_write(40)),
            ],
        };
        let (statuses, _) = batch_outcome(call_then_stream(&endpoint, request, 40, &first));
        assert_eq!(statuses.len(), 1, "{statuses:?}");
        assert_eq!(statuses[0].code, -34);
        call(&endpoint, Request::GetServerInfo);
        assert_eq!(connection.bulk_streams_held(), 0, "the dropped stream was kept");

        let write = |command_id, data: &[u8]| {
            let entry = BatchEntry {
                command_id,
                queue_id: 2,
                event_id: 12,
                wait_events: vec![],
                command: large_write(41),
            };
            call_then_stream(&endpoint, Request::EnqueueBatch { entries: vec![entry] }, 41, data)
        };
        assert_eq!(batch_outcome(write(7, &first)).0, vec![BatchEntryStatus::ok()]);
        // The replay's bytes differ, so a replay that ran would show.
        let (statuses, completed) = batch_outcome(write(7, &large_data(4)));
        assert_eq!((statuses, completed), (vec![BatchEntryStatus::ok()], vec![]));
        call(&endpoint, Request::GetServerInfo);
        assert_eq!(connection.bulk_streams_held(), 0, "the replay's stream was kept");
        assert_eq!(dedup_window_counts(&endpoint), (1, 1));
        assert!(download_all(&endpoint, LARGE as u64, 42) == first);
    }

    /// A large write on a busy queue lands in one `Vec` while the daemon
    /// handles its batch; the worker copies it once the write ahead of it
    /// has run, and its status leaves in a frame.
    #[test]
    fn a_large_write_on_a_busy_queue_lands_and_completes_in_order() {
        let log = Arc::new(CompletionLog::default());
        let (daemon, endpoint, _t) = start_test_daemon_with(Arc::clone(&log) as _);
        build_large_session(&endpoint);
        // A small write gated by replacement 100 keeps the queue busy.
        endpoint.send_bulk(50, &[9; 4]).unwrap();
        let small = BatchCommand::WriteBuffer { buffer_id: 3, offset: 0, size: 4, stream_id: 50 };
        let data = large_data(5);
        let request = Request::EnqueueBatch {
            entries: vec![
                on_queue(0, 100, vec![], BatchCommand::Replacement { status: None }),
                on_queue(2, 10, vec![100], small),
                on_queue(2, 11, vec![], large_write(40)),
            ],
        };
        let (statuses, completed) = batch_outcome(call_then_stream(&endpoint, request, 40, &data));
        assert_eq!((statuses, completed), (vec![BatchEntryStatus::ok(); 3], vec![]));
        assert_eq!(daemon_endpoint(&daemon).bulk_streams_held(), 0);
        assert!(event_status(&endpoint, 11) > 0, "the large write overtook the gated one");
        forward(&endpoint, 100, 0);
        assert_eq!(completions_after(&log, 2), vec![(10, 0), (11, 0)]);
        assert!(download_all(&endpoint, LARGE as u64, 41) == data, "the writes ran out of order");
    }

    /// A large write whose stream the connection cuts short fails without
    /// entering the dedup window: replayed on the next connection, with its
    /// stream, it runs.
    #[test]
    fn a_large_write_cut_short_is_not_admitted() {
        use gcf::transport::faulty::ChaosPolicy;
        let policy = ChaosPolicy { fail_after_stream_chunks: 1, ..ChaosPolicy::none() };
        replay_after_a_failed_landing(policy, None);
    }

    /// A large write whose stream stalls part-way, on a connection that
    /// stays open, holds its queue only until the daemon's call timeout:
    /// then the receive fails and closes the connection, and the write,
    /// kept out of the dedup window, runs when the next connection replays
    /// it.
    #[test]
    fn a_large_write_whose_stream_stalls_gives_way_to_its_replay() {
        use gcf::transport::faulty::ChaosPolicy;
        // Hello, the batch, and three chunks: the last one is lost.
        let policy = ChaosPolicy { drop_every: 5, ..ChaosPolicy::none() };
        replay_after_a_failed_landing(policy, Some(Duration::from_millis(300)));
    }

    /// Send a large write on a connection dialled with `policy`, whose
    /// stream must then fail to land, with the daemon's end of that
    /// connection given the call timeout `stall` if any; then replay it on
    /// a new connection, where it must run.
    fn replay_after_a_failed_landing(
        policy: gcf::transport::faulty::ChaosPolicy,
        stall: Option<Duration>,
    ) {
        use gcf::transport::faulty::{ChaosPolicy, FaultyConnection};
        use gcf::transport::Transport;
        let (daemon, endpoint, transport) = start_test_daemon();
        build_large_session(&endpoint);
        endpoint.close();
        let dial = |epoch, policy| {
            let conn =
                FaultyConnection::with_policy(transport.connect(daemon.address()).unwrap(), policy);
            let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "redial");
            let hello =
                Request::Hello { client_name: "c".into(), auth_id: None, epoch, session_start: 0 };
            assert!(matches!(call(&endpoint, hello), Response::SessionInfo(info) if info.resumed));
            endpoint
        };
        let data = Arc::new(large_data(6));
        let batch = || {
            let entry = BatchEntry {
                command_id: 7,
                queue_id: 2,
                event_id: 10,
                wait_events: vec![],
                command: large_write(40),
            };
            Request::EnqueueBatch { entries: vec![entry] }.to_bytes()
        };
        let failing = dial(1, policy);
        let daemon_end = daemon.sessions.lock().last().cloned().unwrap();
        if let Some(timeout) = stall {
            daemon_end.set_call_timeout(timeout);
        }
        let first = {
            let (data, request) = (Arc::clone(&data), batch());
            std::thread::spawn(move || failing.call_with_stream(request, Some((40, &data))))
        };
        if stall.is_some() {
            // The replay's batch must arrive while the stalled one holds the
            // queue: once two chunks are in, the daemon is receiving them.
            while daemon_end.stats().stream_chunks_received < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let endpoint = dial(2, ChaosPolicy::none());
        let start = std::time::Instant::now();
        let bytes = endpoint.call_with_stream(batch(), Some((40, &data))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
        let (statuses, completed) = batch_outcome(Response::from_bytes(&bytes).unwrap());
        assert_eq!((statuses, completed), (vec![BatchEntryStatus::ok()], vec![(10, 0)]));
        assert_eq!(dedup_window_counts(&endpoint), (1, 0));
        assert!(download_all(&endpoint, LARGE as u64, 41) == *data);
        assert!(first.join().unwrap().is_err(), "the failed landing was answered");
    }
}
