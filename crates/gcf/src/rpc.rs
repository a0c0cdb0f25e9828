//! Request/response endpoint with notifications and bulk streams.
//!
//! [`Endpoint`] implements the two communication patterns dOpenCL needs on
//! top of a raw [`Connection`]:
//!
//! * **message-based** — [`Endpoint::call`] sends a request and blocks until
//!   the matching response arrives; [`Endpoint::notify`] sends a one-way
//!   notification; incoming requests and notifications are delivered to an
//!   [`EndpointHandler`],
//! * **stream-based** — [`Endpoint::send_bulk`] ships raw data in chunks and
//!   [`Endpoint::wait_bulk`] blocks until a complete bulk transfer for a
//!   given stream id has arrived.
//!
//! A background receiver thread owns the demultiplexing, so calls, streams
//! and notifications may be issued concurrently from any thread.

use crate::error::{GcfError, Result};
use crate::message::{Envelope, MessageKind};
use crate::transport::Connection;
use crossbeam_channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Chunk size used for bulk (stream-based) transfers.
pub const STREAM_CHUNK: usize = 1 << 20;

/// Default timeout for synchronous calls.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Handles frames initiated by the peer.
pub trait EndpointHandler: Send + Sync {
    /// Handle a request and produce the response payload.
    fn handle_request(&self, payload: &[u8]) -> Vec<u8>;

    /// Handle a one-way notification.
    fn handle_notification(&self, _payload: &[u8]) {}
}

/// A handler that rejects every request; suitable for pure-client endpoints
/// that only expect notifications they also ignore.
pub struct NullHandler;

impl EndpointHandler for NullHandler {
    fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

/// Traffic counters, useful for tests and for charging link models.
///
/// The *sent* counters are bumped by [`Endpoint::call`], [`Endpoint::notify`]
/// and [`Endpoint::send_bulk`]; the *received* counters by the receiver
/// thread as frames are dispatched.  Snapshots can be subtracted
/// ([`TrafficStats::delta`]) to measure a region of interest, and added
/// (`+` / `+=`) to aggregate several endpoints — this is how the bench
/// harnesses turn "fewer round trips" into a recorded number.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    /// Number of request frames sent.
    pub requests_sent: u64,
    /// Number of notification frames sent.
    pub notifications_sent: u64,
    /// Number of request frames received (and dispatched to the handler).
    pub requests_received: u64,
    /// Number of notification frames received.
    pub notifications_received: u64,
    /// Number of bulk stream chunk frames received.
    pub stream_chunks_received: u64,
    /// Total message payload bytes sent (requests + notifications + responses).
    pub message_bytes_sent: u64,
    /// Total bulk payload bytes sent.
    pub stream_bytes_sent: u64,
    /// Total bulk payload bytes received.
    pub stream_bytes_received: u64,
    /// Number of times a connection was re-established after a failure
    /// (bumped by connection supervisors, not by the endpoint itself).
    pub reconnects: u64,
    /// Number of request retries after a transient failure (bumped by
    /// retrying callers, not by the endpoint itself).
    pub retries: u64,
    /// Number of in-flight requests that failed without a response: calls
    /// whose send failed or timed out, plus calls pending when the
    /// connection died.
    pub failed_requests: u64,
}

impl TrafficStats {
    /// Total wire messages this endpoint initiated (requests +
    /// notifications); responses and stream chunks are not counted.
    pub fn messages_sent(&self) -> u64 {
        self.requests_sent + self.notifications_sent
    }

    /// Counter-wise difference against an `earlier` snapshot (saturating, so
    /// mismatched snapshots never panic).
    pub fn delta(&self, earlier: &TrafficStats) -> TrafficStats {
        TrafficStats {
            requests_sent: self.requests_sent.saturating_sub(earlier.requests_sent),
            notifications_sent: self.notifications_sent.saturating_sub(earlier.notifications_sent),
            requests_received: self.requests_received.saturating_sub(earlier.requests_received),
            notifications_received: self
                .notifications_received
                .saturating_sub(earlier.notifications_received),
            stream_chunks_received: self
                .stream_chunks_received
                .saturating_sub(earlier.stream_chunks_received),
            message_bytes_sent: self.message_bytes_sent.saturating_sub(earlier.message_bytes_sent),
            stream_bytes_sent: self.stream_bytes_sent.saturating_sub(earlier.stream_bytes_sent),
            stream_bytes_received: self
                .stream_bytes_received
                .saturating_sub(earlier.stream_bytes_received),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
            retries: self.retries.saturating_sub(earlier.retries),
            failed_requests: self.failed_requests.saturating_sub(earlier.failed_requests),
        }
    }
}

impl std::ops::Add for TrafficStats {
    type Output = TrafficStats;

    fn add(self, rhs: TrafficStats) -> TrafficStats {
        TrafficStats {
            requests_sent: self.requests_sent + rhs.requests_sent,
            notifications_sent: self.notifications_sent + rhs.notifications_sent,
            requests_received: self.requests_received + rhs.requests_received,
            notifications_received: self.notifications_received + rhs.notifications_received,
            stream_chunks_received: self.stream_chunks_received + rhs.stream_chunks_received,
            message_bytes_sent: self.message_bytes_sent + rhs.message_bytes_sent,
            stream_bytes_sent: self.stream_bytes_sent + rhs.stream_bytes_sent,
            stream_bytes_received: self.stream_bytes_received + rhs.stream_bytes_received,
            reconnects: self.reconnects + rhs.reconnects,
            retries: self.retries + rhs.retries,
            failed_requests: self.failed_requests + rhs.failed_requests,
        }
    }
}

impl std::ops::AddAssign for TrafficStats {
    fn add_assign(&mut self, rhs: TrafficStats) {
        *self = *self + rhs;
    }
}

struct BulkBuffers {
    /// Partially received streams, keyed by stream id.
    partial: HashMap<u64, Vec<u8>>,
    /// Completed streams waiting to be claimed.
    complete: HashMap<u64, Vec<u8>>,
    /// Streams nobody will claim: their chunks are dropped on arrival.
    discarded: HashSet<u64>,
}

/// Callback invoked (once per connection loss) when the endpoint dies, so a
/// supervisor can schedule a reconnect.
pub type SupervisorCallback = Arc<dyn Fn(&str) + Send + Sync>;

/// Bidirectional RPC endpoint over a connection.
pub struct Endpoint {
    conn: Arc<dyn Connection>,
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, Sender<Vec<u8>>>>,
    bulk: Mutex<BulkBuffers>,
    bulk_cond: Condvar,
    stats: Mutex<TrafficStats>,
    call_timeout: Mutex<Duration>,
    closed: AtomicBool,
    name: String,
    supervisor: Mutex<Option<SupervisorCallback>>,
    supervisor_fired: AtomicBool,
}

impl Endpoint {
    /// Create an endpoint over `conn`, dispatching peer-initiated frames to
    /// `handler`.  Spawns the receiver thread.
    pub fn new(
        conn: Arc<dyn Connection>,
        handler: Arc<dyn EndpointHandler>,
        name: impl Into<String>,
    ) -> Arc<Self> {
        Self::new_init(conn, handler, name, |_| {})
    }

    /// Like [`Endpoint::new`], but runs `init` on the endpoint *before* the
    /// receiver thread starts.  Accept loops use this to hand the session
    /// handler a reference to its own endpoint: with [`Endpoint::new`] the
    /// first request can be dispatched before the caller has stored the
    /// endpoint anywhere, and a handler that replies "who asks? nobody yet"
    /// corrupts whatever that first request set up.
    pub fn new_init(
        conn: Arc<dyn Connection>,
        handler: Arc<dyn EndpointHandler>,
        name: impl Into<String>,
        init: impl FnOnce(&Arc<Endpoint>),
    ) -> Arc<Self> {
        let endpoint = Arc::new(Endpoint {
            conn,
            next_id: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            bulk: Mutex::new(BulkBuffers {
                partial: HashMap::new(),
                complete: HashMap::new(),
                discarded: HashSet::new(),
            }),
            bulk_cond: Condvar::new(),
            stats: Mutex::new(TrafficStats::default()),
            call_timeout: Mutex::new(DEFAULT_CALL_TIMEOUT),
            closed: AtomicBool::new(false),
            name: name.into(),
            supervisor: Mutex::new(None),
            supervisor_fired: AtomicBool::new(false),
        });
        init(&endpoint);
        let weak = Arc::downgrade(&endpoint);
        let thread_name = format!("gcf-endpoint-{}", endpoint.name);
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || loop {
                let Some(ep) = weak.upgrade() else { break };
                if ep.closed.load(Ordering::Acquire) {
                    break;
                }
                let frame = match ep.conn.recv_timeout(Duration::from_millis(200)) {
                    Ok(frame) => frame,
                    Err(GcfError::Timeout(_)) => continue,
                    Err(e) => {
                        // The connection died under us: mark the endpoint
                        // closed so callers fail fast, wake every waiter,
                        // and tell the supervisor (if any) about the death.
                        ep.closed.store(true, Ordering::Release);
                        ep.fail_all_pending();
                        ep.fire_supervisor(&e.to_string());
                        break;
                    }
                };
                ep.dispatch(frame, &handler);
            })
            .expect("spawn endpoint receiver thread");
        endpoint
    }

    /// The peer's description.
    pub fn peer(&self) -> String {
        self.conn.peer()
    }

    /// The local endpoint name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the synchronous call timeout.
    pub fn set_call_timeout(&self, timeout: Duration) {
        *self.call_timeout.lock() = timeout;
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> TrafficStats {
        *self.stats.lock()
    }

    /// Whether the endpoint (and its connection) is still usable.
    pub fn is_open(&self) -> bool {
        !self.closed.load(Ordering::Acquire) && self.conn.is_open()
    }

    fn dispatch(self: &Arc<Self>, frame: Envelope, handler: &Arc<dyn EndpointHandler>) {
        match frame.kind {
            MessageKind::Response => {
                let waiter = self.pending.lock().remove(&frame.id);
                if let Some(tx) = waiter {
                    let _ = tx.send(frame.payload);
                }
            }
            MessageKind::Request => {
                self.stats.lock().requests_received += 1;
                let response = handler.handle_request(&frame.payload);
                self.stats.lock().message_bytes_sent += response.len() as u64;
                let _ = self.conn.send(Envelope::response(frame.id, response));
            }
            MessageKind::Notification => {
                self.stats.lock().notifications_received += 1;
                handler.handle_notification(&frame.payload);
            }
            MessageKind::StreamData => {
                self.stats.lock().stream_chunks_received += 1;
                self.accept_stream_chunk(frame.id, frame.payload);
            }
            MessageKind::Hello => {
                // Handshake frames carry no state we need to track here.
            }
            MessageKind::Bye => {
                self.closed.store(true, Ordering::Release);
                self.fail_all_pending();
                self.fire_supervisor("peer sent Bye");
            }
        }
    }

    fn accept_stream_chunk(&self, stream_id: u64, payload: Vec<u8>) {
        // Chunk layout: [last: u8][data...]
        if payload.is_empty() {
            return;
        }
        let last = payload[0] == 1;
        let data = &payload[1..];
        let mut bulk = self.bulk.lock();
        self.stats.lock().stream_bytes_received += data.len() as u64;
        if bulk.discarded.contains(&stream_id) {
            if last {
                bulk.discarded.remove(&stream_id);
            }
            return;
        }
        bulk.partial.entry(stream_id).or_default().extend_from_slice(data);
        if last {
            let complete = bulk.partial.remove(&stream_id).unwrap_or_default();
            bulk.complete.insert(stream_id, complete);
            self.bulk_cond.notify_all();
        }
    }

    fn fail_all_pending(&self) {
        let abandoned = {
            let mut pending = self.pending.lock();
            let n = pending.len() as u64;
            pending.clear();
            // Dropping the senders wakes every caller with a RecvError.
            n
        };
        if abandoned > 0 {
            self.stats.lock().failed_requests += abandoned;
        }
        // Wake bulk waiters too, so they observe the closed endpoint instead
        // of sleeping out their full timeout.
        let _bulk = self.bulk.lock();
        self.bulk_cond.notify_all();
    }

    /// Install a callback fired (at most once) when the connection dies
    /// under the endpoint: the receiver thread hits a non-timeout error, or
    /// the peer says Bye.  A local [`Endpoint::close`] does not fire it.
    /// The callback receives a short reason string and runs on the receiver
    /// thread — it must not block on calls through this same endpoint.
    pub fn set_supervisor(&self, callback: Arc<dyn Fn(&str) + Send + Sync>) {
        *self.supervisor.lock() = Some(callback);
    }

    fn fire_supervisor(&self, reason: &str) {
        if self.supervisor_fired.swap(true, Ordering::AcqRel) {
            return;
        }
        let callback = self.supervisor.lock().clone();
        if let Some(cb) = callback {
            cb(reason);
        }
    }

    /// Allocate a fresh correlation / stream id.
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Send a request and block for its response payload.
    pub fn call(&self, payload: Vec<u8>) -> Result<Vec<u8>> {
        if !self.is_open() {
            self.stats.lock().failed_requests += 1;
            return Err(GcfError::Disconnected(self.conn.peer()));
        }
        let id = self.allocate_id();
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(id, tx);
        {
            let mut stats = self.stats.lock();
            stats.requests_sent += 1;
            stats.message_bytes_sent += payload.len() as u64;
        }
        if let Err(e) = self.conn.send(Envelope::request(id, payload)) {
            self.pending.lock().remove(&id);
            self.stats.lock().failed_requests += 1;
            return Err(e);
        }
        let timeout = *self.call_timeout.lock();
        match rx.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                self.pending.lock().remove(&id);
                self.stats.lock().failed_requests += 1;
                Err(GcfError::Timeout(format!("call to {}", self.conn.peer())))
            }
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                Err(GcfError::Disconnected(self.conn.peer()))
            }
        }
    }

    /// Send a one-way notification.
    pub fn notify(&self, payload: Vec<u8>) -> Result<()> {
        if !self.is_open() {
            return Err(GcfError::Disconnected(self.conn.peer()));
        }
        {
            let mut stats = self.stats.lock();
            stats.notifications_sent += 1;
            stats.message_bytes_sent += payload.len() as u64;
        }
        self.conn.send(Envelope::notification(self.allocate_id(), payload))
    }

    /// Send a bulk payload on stream `stream_id` (chunked; the receiver
    /// reassembles it and makes it available via [`Endpoint::wait_bulk`]).
    ///
    /// Each chunk of up to [`STREAM_CHUNK`] bytes goes out through
    /// [`Connection::send_stream`]; over TCP that sends it straight from
    /// `data`, without copying it.
    pub fn send_bulk(&self, stream_id: u64, data: &[u8]) -> Result<()> {
        if !self.is_open() {
            return Err(GcfError::Disconnected(self.conn.peer()));
        }
        self.stats.lock().stream_bytes_sent += data.len() as u64;
        if data.is_empty() {
            return self.conn.send_stream(stream_id, true, &[]);
        }
        let last = (data.len() - 1) / STREAM_CHUNK;
        for (i, chunk) in data.chunks(STREAM_CHUNK).enumerate() {
            self.conn.send_stream(stream_id, i == last, chunk)?;
        }
        Ok(())
    }

    /// Block until a complete bulk transfer for `stream_id` has arrived and
    /// return its data.
    pub fn wait_bulk(&self, stream_id: u64, timeout: Duration) -> Result<Vec<u8>> {
        let mut bulk = self.bulk.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(data) = bulk.complete.remove(&stream_id) {
                return Ok(data);
            }
            if !self.is_open() {
                return Err(GcfError::Disconnected(self.conn.peer()));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(GcfError::Timeout(format!("bulk stream {stream_id}")));
            }
            let wait = (deadline - now).min(Duration::from_millis(100));
            self.bulk_cond.wait_for(&mut bulk, wait);
        }
    }

    /// Non-blocking check whether a bulk transfer has completed.
    pub fn try_take_bulk(&self, stream_id: u64) -> Option<Vec<u8>> {
        self.bulk.lock().complete.remove(&stream_id)
    }

    /// Give up on stream `stream_id`: free it if it has arrived, otherwise
    /// drop its chunks (those already here and those still to come) as they
    /// arrive, so an unclaimed stream does not stay buffered until disconnect.
    pub fn discard_bulk(&self, stream_id: u64) {
        let mut bulk = self.bulk.lock();
        if bulk.complete.remove(&stream_id).is_none() {
            bulk.partial.remove(&stream_id);
            bulk.discarded.insert(stream_id);
        }
    }

    /// Number of streams buffered here, complete or partial (a leak check
    /// for tests).
    pub fn bulk_streams_held(&self) -> usize {
        let bulk = self.bulk.lock();
        bulk.partial.len() + bulk.complete.len()
    }

    /// Abruptly sever the connection *without* telling the peer (no Bye
    /// frame).  The peer's receiver thread discovers the death through a
    /// receive error, exactly as if this process had crashed — used by the
    /// chaos harness to simulate daemon crashes.
    pub fn abort(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.conn.close();
        self.fail_all_pending();
    }

    /// Close the endpoint: notify the peer and shut the connection down.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = self.conn.send(Envelope { kind: MessageKind::Bye, id: 0, payload: Vec::new() });
        self.conn.close();
        self.fail_all_pending();
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            self.conn.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::inproc::InprocTransport;
    use crate::transport::tcp::TcpTransport;
    use crate::transport::Transport;

    struct EchoHandler;
    impl EndpointHandler for EchoHandler {
        fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
            let mut out = payload.to_vec();
            out.reverse();
            out
        }
    }

    struct RecordingHandler {
        notes: Mutex<Vec<Vec<u8>>>,
    }
    impl EndpointHandler for RecordingHandler {
        fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
            payload.to_vec()
        }
        fn handle_notification(&self, payload: &[u8]) {
            self.notes.lock().push(payload.to_vec());
        }
    }

    fn endpoint_pair(
        client_handler: Arc<dyn EndpointHandler>,
        server_handler: Arc<dyn EndpointHandler>,
    ) -> (Arc<Endpoint>, Arc<Endpoint>) {
        endpoint_pair_over(&InprocTransport::new(), "srv", client_handler, server_handler)
    }

    fn endpoint_pair_over(
        transport: &dyn Transport,
        addr: &str,
        client_handler: Arc<dyn EndpointHandler>,
        server_handler: Arc<dyn EndpointHandler>,
    ) -> (Arc<Endpoint>, Arc<Endpoint>) {
        let listener = transport.listen(addr).unwrap();
        let bound = listener.local_addr();
        let h = std::thread::spawn(move || listener.accept().unwrap());
        let client_conn = transport.connect(&bound).unwrap();
        let server_conn = h.join().unwrap();
        let client = Endpoint::new(client_conn, client_handler, "client");
        let server = Endpoint::new(server_conn, server_handler, "server");
        (client, server)
    }

    /// A client/server pair over each transport: in-process, then TCP on
    /// loopback.
    fn endpoint_pairs() -> Vec<(&'static str, Arc<Endpoint>, Arc<Endpoint>)> {
        let pair = |t: &dyn Transport, addr| {
            let (client, server) =
                endpoint_pair_over(t, addr, Arc::new(NullHandler), Arc::new(NullHandler));
            (t.name(), client, server)
        };
        vec![pair(&InprocTransport::new(), "srv"), pair(&TcpTransport::new(), "127.0.0.1:0")]
    }

    /// A handler that needs a reference to its own endpoint (the accept-loop
    /// pattern) must see it even when the peer's first request is already in
    /// flight when the endpoint is created — the race behind leases being
    /// registered with no endpoint to push to.
    #[test]
    fn init_runs_before_the_first_dispatch() {
        use std::sync::Weak;
        struct SelfAware {
            endpoint: Mutex<Option<Weak<Endpoint>>>,
        }
        impl EndpointHandler for SelfAware {
            fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
                vec![self.endpoint.lock().is_some() as u8]
            }
        }
        for _ in 0..50 {
            let t = InprocTransport::new();
            let listener = t.listen("srv").unwrap();
            let client_conn = t.connect("srv").unwrap();
            let client = Endpoint::new(client_conn, Arc::new(NullHandler), "client");
            // The request is on the wire before the server endpoint exists.
            let caller = std::thread::spawn(move || client.call(vec![42]).unwrap());
            let server_conn = listener.accept().unwrap();
            let handler = Arc::new(SelfAware { endpoint: Mutex::new(None) });
            let stored = Arc::clone(&handler);
            let _server = Endpoint::new_init(server_conn, handler, "server", move |ep| {
                *stored.endpoint.lock() = Some(Arc::downgrade(ep));
            });
            assert_eq!(caller.join().unwrap(), vec![1], "handler dispatched before init ran");
        }
    }

    #[test]
    fn call_gets_matching_response() {
        let (client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        let resp = client.call(vec![1, 2, 3]).unwrap();
        assert_eq!(resp, vec![3, 2, 1]);
        assert_eq!(client.stats().requests_sent, 1);
        assert_eq!(client.stats().messages_sent(), 1);
        assert_eq!(server.stats().requests_received, 1);
    }

    #[test]
    fn stats_snapshots_subtract_and_aggregate() {
        let (client, _server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        let before = client.stats();
        client.call(vec![1]).unwrap();
        client.call(vec![2]).unwrap();
        let delta = client.stats().delta(&before);
        assert_eq!(delta.requests_sent, 2);
        assert_eq!((delta + delta).requests_sent, 4);
        let mut sum = TrafficStats::default();
        sum += delta;
        assert_eq!(sum, delta);
        // Saturating: subtracting a *later* snapshot yields zeros, not a panic.
        assert_eq!(before.delta(&client.stats()).requests_sent, 0);
    }

    #[test]
    fn concurrent_calls_are_matched_by_id() {
        let (client, _server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        let client = Arc::clone(&client);
        let mut handles = Vec::new();
        for i in 0..16u8 {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                let resp = c.call(vec![i, i + 1, i + 2]).unwrap();
                assert_eq!(resp, vec![i + 2, i + 1, i]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn notifications_reach_the_handler() {
        let recorder = Arc::new(RecordingHandler { notes: Mutex::new(Vec::new()) });
        let (client, server) = endpoint_pair(Arc::clone(&recorder) as _, Arc::new(EchoHandler));
        let _ = client; // keep alive
        server.notify(vec![42]).unwrap();
        // Wait for async delivery.
        for _ in 0..100 {
            if !recorder.notes.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(recorder.notes.lock().as_slice(), &[vec![42]]);
    }

    #[test]
    fn bulk_transfer_roundtrip_multi_chunk() {
        let sizes = [
            STREAM_CHUNK - 1,
            STREAM_CHUNK,
            STREAM_CHUNK + 1,
            3 * STREAM_CHUNK,
            3 * STREAM_CHUNK + 123,
        ];
        for (transport, client, server) in endpoint_pairs() {
            for (stream_id, &size) in (1..).zip(&sizes) {
                let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                client.send_bulk(stream_id, &data).unwrap();
                let received = server.wait_bulk(stream_id, Duration::from_secs(5)).unwrap();
                assert!(received == data, "{transport}: {size}-byte transfer corrupted");
            }
            let total: usize = sizes.iter().sum();
            assert_eq!(client.stats().stream_bytes_sent, total as u64, "{transport}");
            assert_eq!(server.stats().stream_bytes_received, total as u64, "{transport}");
        }
    }

    #[test]
    fn discarded_streams_are_not_kept() {
        for (transport, client, server) in endpoint_pairs() {
            // Each connection is FIFO: once a stream sent after another has
            // arrived, so has all of the earlier one.
            let sync = |stream_id: u64| {
                client.send_bulk(stream_id, &[1]).unwrap();
                assert_eq!(server.wait_bulk(stream_id, Duration::from_secs(5)).unwrap(), vec![1]);
            };
            // Arrived before the discard.
            client.send_bulk(1, &[7; 100]).unwrap();
            sync(10);
            assert_eq!(server.bulk_streams_held(), 1, "{transport}");
            server.discard_bulk(1);
            assert_eq!(server.bulk_streams_held(), 0, "{transport}: complete stream kept");
            // Discarded before any chunk arrives.
            server.discard_bulk(2);
            client.send_bulk(2, &vec![9; 3 * STREAM_CHUNK]).unwrap();
            sync(11);
            // Discarded half way through.
            server.accept_stream_chunk(4, vec![0, 1, 2]);
            server.discard_bulk(4);
            server.accept_stream_chunk(4, vec![1, 3]);
            assert_eq!(server.bulk_streams_held(), 0, "{transport}: stream kept");
            assert!(server.bulk.lock().discarded.is_empty(), "{transport}: ids kept");
        }
    }

    #[test]
    fn empty_bulk_transfer_completes() {
        for (transport, client, server) in endpoint_pairs() {
            client.send_bulk(3, &[]).unwrap();
            let received = server.wait_bulk(3, Duration::from_secs(5)).unwrap();
            assert!(received.is_empty(), "{transport}");
        }
    }

    #[test]
    fn wait_bulk_times_out() {
        let (_client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(NullHandler));
        let err = server.wait_bulk(99, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, GcfError::Timeout(_)));
    }

    #[test]
    fn call_after_close_fails() {
        let (client, _server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        client.close();
        assert!(client.call(vec![1]).is_err());
    }

    #[test]
    fn supervisor_fires_once_on_peer_death() {
        let (client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        let fired = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&fired);
        client.set_supervisor(Arc::new(move |reason: &str| {
            sink.lock().push(reason.to_string());
        }));
        server.close();
        for _ in 0..100 {
            if !fired.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fired.lock().len(), 1);
        assert!(!client.is_open());
    }

    #[test]
    fn local_close_does_not_fire_supervisor() {
        let (client, _server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        let fired = Arc::new(Mutex::new(0u32));
        let sink = Arc::clone(&fired);
        client.set_supervisor(Arc::new(move |_| *sink.lock() += 1));
        client.close();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(*fired.lock(), 0);
    }

    #[test]
    fn wait_bulk_fails_fast_when_peer_dies() {
        let (client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(NullHandler));
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let result = client.wait_bulk(5, Duration::from_secs(30));
            (result, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        server.close();
        let (result, elapsed) = waiter.join().unwrap();
        assert!(matches!(result.unwrap_err(), GcfError::Disconnected(_)));
        assert!(elapsed < Duration::from_secs(5), "waiter should not sleep out its timeout");
    }

    #[test]
    fn dead_connection_counts_failed_requests() {
        let (client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        server.close();
        std::thread::sleep(Duration::from_millis(50));
        client.set_call_timeout(Duration::from_millis(100));
        assert!(client.call(vec![1]).is_err());
        assert!(client.stats().failed_requests >= 1);
    }

    #[test]
    fn call_when_peer_closed_fails() {
        let (client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(EchoHandler));
        server.close();
        // Allow the Bye to propagate.
        std::thread::sleep(Duration::from_millis(50));
        client.set_call_timeout(Duration::from_millis(200));
        assert!(client.call(vec![1]).is_err());
    }
}
