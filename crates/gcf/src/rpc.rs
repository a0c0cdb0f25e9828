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
//! and notifications may be issued concurrently from any thread.  It blocks
//! in its connection's receive holding the connection, not the endpoint;
//! closing or dropping the endpoint shuts the connection down, which wakes
//! it.
//!
//! # Streams in place
//!
//! A receiver that knows a stream's length registers it before the stream
//! can arrive ([`Endpoint::expect_bulk`]): the stream then lands in one
//! pre-sized `Vec`, which [`Endpoint::wait_bulk`] hands over as it is.  Over
//! TCP each chunk is read from the socket straight into it; a transport
//! that hands over whole frames has the chunk appended.  A stream that runs
//! past, or ends short of, the length expected fails: its waiter gets an
//! error, and no byte is written past the destination.  A stream nobody
//! expects is reassembled as its chunks arrive.
//!
//! # Streams that follow a request
//!
//! A caller may send a stream right after its request, inside the same
//! call ([`Endpoint::call_with_stream`]).  The handler then receives it
//! while it handles the request, on the receiver thread, straight into a
//! slice it holds ([`Endpoint::receive_stream_into`]).  Chunks of other
//! streams land as usual meanwhile; any other frame that arrives is kept
//! and dispatched once the handler has returned, in arrival order, so no
//! handler ever runs inside another.

use crate::error::{GcfError, Result};
use crate::message::{Envelope, MessageKind};
use crate::transport::{Connection, Destination, Received, StreamLanding};
use crossbeam_channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

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

/// One bulk stream an endpoint receives.
enum Stream {
    /// Arriving with no expectation: the chunks so far, appended.
    Partial(Vec<u8>),
    /// Registered by [`Endpoint::expect_bulk`]: the pre-sized destination,
    /// out of the table while a chunk is read into it, and the length
    /// expected.
    Expected { dest: Option<Vec<u8>>, len: usize },
    /// Arrived whole, waiting to be claimed.
    Complete(Vec<u8>),
    /// Ran past, or ended short of, the length expected; `ended` once its
    /// last chunk has arrived.
    Failed { reason: String, ended: bool },
    /// Given up by [`Endpoint::discard_bulk`]: chunks are dropped on arrival
    /// until the last one.
    Discarded,
}

/// The streams an endpoint receives, shared with its receiver thread.
#[derive(Default)]
struct Streams {
    table: Mutex<HashMap<u64, Stream>>,
    /// Signalled when a stream completes or fails, and when the endpoint
    /// dies.
    settled: Condvar,
}

impl StreamLanding for Streams {
    fn claim(&self, id: u64, len: usize) -> Option<Destination<'_>> {
        let mut table = self.table.lock();
        let stream = table.get_mut(&id)?;
        let Stream::Expected { dest, len: expected } = stream else { return None };
        let received = dest.as_ref().map_or(0, Vec::len);
        if received + len <= *expected {
            return dest.take().map(Destination::Append);
        }
        let reason = format!("bulk stream {id} runs past the {expected} bytes expected");
        *stream = Stream::Failed { reason, ended: false };
        self.settled.notify_all();
        None
    }
}

impl Streams {
    /// Take a chunk of stream `id` that arrived as a whole frame.
    fn accept(&self, id: u64, last: bool, data: &[u8]) {
        if let Some(Destination::Append(mut dest)) = self.claim(id, data.len()) {
            dest.extend_from_slice(data);
            return self.land(id, last, dest);
        }
        let mut table = self.table.lock();
        let stream = table.entry(id).or_insert(Stream::Partial(Vec::new()));
        match stream {
            Stream::Partial(bytes) => {
                bytes.extend_from_slice(data);
                if last {
                    *stream = Stream::Complete(std::mem::take(bytes));
                    self.settled.notify_all();
                }
            }
            Stream::Failed { ended, .. } => *ended |= last,
            Stream::Discarded if last => drop(table.remove(&id)),
            // A chunk of a stream that has completed already: a repeated
            // id, dropped.
            _ => {}
        }
    }

    /// Put back `dest`, a destination [`StreamLanding::claim`] gave out for
    /// stream `id`, with the chunk appended; `last` ends the stream.
    fn land(&self, id: u64, last: bool, dest: Vec<u8>) {
        let mut table = self.table.lock();
        let Entry::Occupied(mut slot) = table.entry(id) else { return };
        match slot.get_mut() {
            Stream::Expected { dest: out, .. } if !last => *out = Some(dest),
            Stream::Expected { len, .. } => {
                let settled = if dest.len() == *len {
                    Stream::Complete(dest)
                } else {
                    let reason = format!(
                        "bulk stream {id} ended at {} of the {len} bytes expected",
                        dest.len()
                    );
                    Stream::Failed { reason, ended: true }
                };
                slot.insert(settled);
                self.settled.notify_all();
            }
            Stream::Discarded if last => drop(slot.remove()),
            _ => {}
        }
    }
}

/// The landing of a stream a handler receives into a slice
/// ([`Endpoint::receive_stream_into`]): each chunk of stream `id` fills the
/// next part of the slice; chunks of other streams land as the endpoint's
/// own streams do.
struct InPlace<'a> {
    id: u64,
    /// The part of the slice not filled yet; `None` once a chunk ran past
    /// it, which fails the stream: no later chunk of it is written.
    rest: Cell<Option<&'a mut [u8]>>,
    streams: &'a Streams,
}

impl StreamLanding for InPlace<'_> {
    fn claim(&self, id: u64, len: usize) -> Option<Destination<'_>> {
        if id != self.id {
            return self.streams.claim(id, len);
        }
        let rest = self.rest.take()?;
        if len > rest.len() {
            return None;
        }
        let (head, tail) = rest.split_at_mut(len);
        self.rest.set(Some(tail));
        Some(Destination::Fill(head))
    }
}

/// Callback invoked (once per connection loss) when the endpoint dies, so a
/// supervisor can schedule a reconnect.
pub type SupervisorCallback = Arc<dyn Fn(&str) + Send + Sync>;

/// Bidirectional RPC endpoint over a connection.
pub struct Endpoint {
    conn: Arc<dyn Connection>,
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, Sender<Vec<u8>>>>,
    streams: Arc<Streams>,
    /// Frames a handler received while it took a stream that follows its
    /// request; the receiver thread dispatches them next, in order.
    deferred: Arc<Mutex<VecDeque<Envelope>>>,
    /// The receiver thread, the one thread that may receive beside it.
    receiver: OnceLock<ThreadId>,
    /// Held while a request and the stream that follows it are sent, so no
    /// other such pair comes between them on the wire: the peer's handler
    /// receives the next stream it expects, not another's.
    following: Mutex<()>,
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
        Self::start(conn, handler, name, init).0
    }

    /// [`Endpoint::new_init`], returning the receiver thread's handle too.
    fn start(
        conn: Arc<dyn Connection>,
        handler: Arc<dyn EndpointHandler>,
        name: impl Into<String>,
        init: impl FnOnce(&Arc<Endpoint>),
    ) -> (Arc<Self>, JoinHandle<()>) {
        let endpoint = Arc::new(Endpoint {
            conn,
            next_id: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            streams: Arc::default(),
            deferred: Arc::default(),
            receiver: OnceLock::new(),
            following: Mutex::new(()),
            stats: Mutex::new(TrafficStats::default()),
            call_timeout: Mutex::new(DEFAULT_CALL_TIMEOUT),
            closed: AtomicBool::new(false),
            name: name.into(),
            supervisor: Mutex::new(None),
            supervisor_fired: AtomicBool::new(false),
        });
        init(&endpoint);
        let weak = Arc::downgrade(&endpoint);
        let conn = Arc::clone(&endpoint.conn);
        let streams = Arc::clone(&endpoint.streams);
        let deferred = Arc::clone(&endpoint.deferred);
        let thread_name = format!("gcf-endpoint-{}", endpoint.name);
        let receiver = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || loop {
                // Blocks holding the connection only: dropping the endpoint
                // closes it, which ends the receive.
                let next = deferred.lock().pop_front();
                let received = match next {
                    Some(frame) => Ok(Received::Frame(frame)),
                    None => conn.recv_landing(&*streams, None),
                };
                let Some(ep) = weak.upgrade() else { break };
                ep.receiver.get_or_init(|| std::thread::current().id());
                match received {
                    Ok(received) => ep.dispatch(received, &handler),
                    // The connection died under us, unless a local close or
                    // abort ended the receive: mark the endpoint closed so
                    // callers fail fast, wake every waiter, and tell the
                    // supervisor (if any) about the death.
                    Err(e) => {
                        if !ep.closed.swap(true, Ordering::AcqRel) {
                            ep.fail_all_pending();
                            ep.fire_supervisor(&e.to_string());
                        }
                        break;
                    }
                }
                if ep.closed.load(Ordering::Acquire) {
                    break;
                }
            })
            .expect("spawn endpoint receiver thread");
        (endpoint, receiver)
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

    fn dispatch(self: &Arc<Self>, received: Received, handler: &Arc<dyn EndpointHandler>) {
        let frame = match received {
            Received::Frame(frame) => frame,
            Received::Landed { id, last, len, dest } => {
                self.count_chunk(len);
                return self.streams.land(id, last, dest);
            }
            // The endpoint's own streams never hand out a slice.
            Received::Filled { len, .. } => return self.count_chunk(len),
        };
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
            MessageKind::StreamData => self.accept_stream_chunk(frame.id, frame.payload),
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

    /// Take a stream chunk that arrived as a whole frame.
    fn accept_stream_chunk(&self, stream_id: u64, payload: Vec<u8>) {
        // Chunk layout: [last: u8][data...]
        let Some((&last, data)) = payload.split_first() else {
            self.stats.lock().stream_chunks_received += 1;
            return;
        };
        self.count_chunk(data.len());
        self.streams.accept(stream_id, last == 1, data);
    }

    fn count_chunk(&self, len: usize) {
        let mut stats = self.stats.lock();
        stats.stream_chunks_received += 1;
        stats.stream_bytes_received += len as u64;
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
        let _table = self.streams.table.lock();
        self.streams.settled.notify_all();
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
        self.call_with_stream(payload, None)
    }

    /// [`Endpoint::call`], sending `stream` (`(stream id, bytes)`) right
    /// after the request, before waiting for the response: the peer's
    /// handler receives it while it handles the request (see the
    /// [module docs](self)).  A stream that cannot be sent fails the call
    /// and closes the connection, whose peer would wait for the rest.
    pub fn call_with_stream(
        &self,
        payload: Vec<u8>,
        stream: Option<(u64, &[u8])>,
    ) -> Result<Vec<u8>> {
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
        let sent = {
            let _pair = stream.map(|_| self.following.lock());
            self.conn.send(Envelope::request(id, payload)).and_then(|()| match stream {
                Some((stream_id, data)) => {
                    self.send_bulk(stream_id, data).inspect_err(|_| self.conn.close())
                }
                None => Ok(()),
            })
        };
        if let Err(e) = sent {
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

    /// Expect stream `stream_id` to bring exactly `len` bytes: they land in
    /// one `Vec` allocated now, which [`Endpoint::wait_bulk`] returns.  Call
    /// it before the stream can arrive, that is before asking the peer for
    /// it; a stream of any other length fails (see the
    /// [module docs](self)).
    pub fn expect_bulk(&self, stream_id: u64, len: usize) {
        let dest = Some(Vec::with_capacity(len));
        self.streams.table.lock().insert(stream_id, Stream::Expected { dest, len });
    }

    /// Receive stream `stream_id`, which the peer sends right after the
    /// request being handled ([`Endpoint::call_with_stream`]), straight into
    /// `dest`.  Only a handler may call it, on the receiver thread.  Chunks
    /// of other streams land meanwhile; other frames are dispatched after
    /// the handler returns, in arrival order.  A stream longer or shorter
    /// than `dest` fails once its last chunk is in, with no byte written
    /// past `dest`; a connection that dies fails it at once.  One whose
    /// chunks came before this call fails at once too, its chunks dropped.
    /// If no frame arrives for the call timeout, the peer stalled
    /// mid-stream: the receive fails and closes the connection, which could
    /// not be kept in step with the rest of the stream.
    pub fn receive_stream_into(&self, stream_id: u64, dest: &mut [u8]) -> Result<()> {
        if self.receiver.get() != Some(&std::thread::current().id()) {
            let name = &self.name;
            return Err(GcfError::Protocol(format!(
                "{name}: stream taken off its receiver thread"
            )));
        }
        if self.streams.table.lock().contains_key(&stream_id) {
            self.discard_bulk(stream_id, true);
            return Err(GcfError::Protocol(format!(
                "bulk stream {stream_id} arrived ahead of the request it follows"
            )));
        }
        let len = dest.len();
        let landing =
            InPlace { id: stream_id, rest: Cell::new(Some(dest)), streams: &self.streams };
        let timeout = *self.call_timeout.lock();
        loop {
            let received = self.conn.recv_landing(&landing, Some(timeout));
            let last = match received.inspect_err(|_| self.conn.close())? {
                // Only this stream is filled in place.
                Received::Filled { last, len, .. } => {
                    self.count_chunk(len);
                    last
                }
                Received::Landed { id, last, len, dest } => {
                    self.count_chunk(len);
                    self.streams.land(id, last, dest);
                    continue;
                }
                Received::Frame(frame)
                    if frame.kind == MessageKind::StreamData && frame.id == stream_id =>
                {
                    let Some((&last, data)) = frame.payload.split_first() else { continue };
                    self.count_chunk(data.len());
                    if let Some(Destination::Fill(dest)) = landing.claim(stream_id, data.len()) {
                        dest.copy_from_slice(data);
                    }
                    last == 1
                }
                Received::Frame(frame) if frame.kind == MessageKind::StreamData => {
                    self.accept_stream_chunk(frame.id, frame.payload);
                    continue;
                }
                Received::Frame(frame) => {
                    self.deferred.lock().push_back(frame);
                    continue;
                }
            };
            if last {
                break;
            }
        }
        if landing.rest.take().is_none_or(|rest| !rest.is_empty()) {
            return Err(GcfError::Codec(format!(
                "bulk stream {stream_id} did not bring the {len} bytes expected"
            )));
        }
        Ok(())
    }

    /// Block until a complete bulk transfer for `stream_id` has arrived and
    /// return its data.  Its arrival, its failure, the endpoint's death or
    /// the `timeout` ends the wait.
    pub fn wait_bulk(&self, stream_id: u64, timeout: Duration) -> Result<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut table = self.streams.table.lock();
        loop {
            match table.remove(&stream_id) {
                Some(Stream::Complete(data)) => return Ok(data),
                Some(Stream::Failed { reason, ended }) => {
                    if !ended {
                        table.insert(stream_id, Stream::Discarded);
                    }
                    return Err(GcfError::Codec(reason));
                }
                Some(arriving) => {
                    table.insert(stream_id, arriving);
                }
                None => {}
            }
            if !self.is_open() {
                return Err(GcfError::Disconnected(self.conn.peer()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(GcfError::Timeout(format!("bulk stream {stream_id}")));
            }
            self.streams.settled.wait_for(&mut table, deadline - now);
        }
    }

    /// Non-blocking check whether a bulk transfer has completed.
    pub fn try_take_bulk(&self, stream_id: u64) -> Option<Vec<u8>> {
        let mut table = self.streams.table.lock();
        match table.remove(&stream_id)? {
            Stream::Complete(data) => Some(data),
            other => {
                table.insert(stream_id, other);
                None
            }
        }
    }

    /// Give up on stream `stream_id`: free what has arrived of it, and
    /// while more `may_arrive`, drop its chunks as they come, up to the last
    /// one, so an unclaimed stream does not stay buffered until disconnect.
    /// A stream the peer will never send (a failed read sends none) leaves
    /// no entry behind.
    pub fn discard_bulk(&self, stream_id: u64, may_arrive: bool) {
        let mut table = self.streams.table.lock();
        let ended = matches!(
            table.remove(&stream_id),
            Some(Stream::Complete(_) | Stream::Failed { ended: true, .. })
        );
        if may_arrive && !ended {
            table.insert(stream_id, Stream::Discarded);
        }
    }

    /// Number of streams held here: expected, arriving, complete, failed,
    /// or discarded while more of it may arrive (a leak check for tests).
    pub fn bulk_streams_held(&self) -> usize {
        self.streams.table.lock().len()
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
    use crate::transport::faulty::{ChaosPolicy, FaultyConnection};
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
            server.discard_bulk(1, true);
            assert_eq!(server.bulk_streams_held(), 0, "{transport}: complete stream kept");
            // Discarded before any chunk arrives.
            server.discard_bulk(2, true);
            client.send_bulk(2, &vec![9; 3 * STREAM_CHUNK]).unwrap();
            sync(11);
            // Discarded half way through.
            server.accept_stream_chunk(4, vec![0, 1, 2]);
            server.discard_bulk(4, true);
            server.accept_stream_chunk(4, vec![1, 3]);
            assert_eq!(server.bulk_streams_held(), 0, "{transport}: stream kept");
            assert!(server.streams.table.lock().is_empty(), "{transport}: ids kept");
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

    /// A stream sent after others has arrived only once they have: each
    /// connection is FIFO.
    fn sync(client: &Endpoint, server: &Endpoint, stream_id: u64) {
        client.send_bulk(stream_id, &[1]).unwrap();
        assert_eq!(server.wait_bulk(stream_id, Duration::from_secs(5)).unwrap(), vec![1]);
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// An expected stream lands in the one allocation `expect_bulk` made.
    #[test]
    fn expected_streams_land_in_their_destination() {
        let sizes = [0, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1];
        for (transport, client, server) in endpoint_pairs() {
            for (stream_id, &size) in (1..).zip(&sizes) {
                server.expect_bulk(stream_id, size);
                let data = pattern(size);
                client.send_bulk(stream_id, &data).unwrap();
                let received = server.wait_bulk(stream_id, Duration::from_secs(5)).unwrap();
                assert!(received == data, "{transport}: {size} bytes corrupted");
                assert_eq!(received.capacity(), size, "{transport}: {size} bytes reallocated");
            }
            assert_eq!(server.bulk_streams_held(), 0, "{transport}");
            let stats = server.stats();
            assert_eq!(stats.stream_bytes_received, sizes.iter().sum::<usize>() as u64);
            assert_eq!(stats.stream_chunks_received, 5, "{transport}");
        }
    }

    #[test]
    fn discarded_expected_streams_are_not_kept() {
        for (transport, client, server) in endpoint_pairs() {
            let data = pattern(2 * STREAM_CHUNK + 5);
            // Discarded before any chunk arrives.
            server.expect_bulk(1, data.len());
            server.discard_bulk(1, true);
            client.send_bulk(1, &data).unwrap();
            sync(&client, &server, 100);
            assert!(server.streams.table.lock().is_empty(), "{transport}: discarded before");
            // Discarded once its first chunk has landed.
            server.expect_bulk(2, data.len());
            client.conn.send_stream(2, false, &data[..STREAM_CHUNK]).unwrap();
            sync(&client, &server, 101);
            server.discard_bulk(2, true);
            // Its entry stays until the last chunk, which may still come.
            assert_eq!(server.bulk_streams_held(), 1, "{transport}: discarded mid-way");
            client.conn.send_stream(2, false, &data[STREAM_CHUNK..2 * STREAM_CHUNK]).unwrap();
            client.conn.send_stream(2, true, &data[2 * STREAM_CHUNK..]).unwrap();
            sync(&client, &server, 102);
            assert!(server.streams.table.lock().is_empty(), "{transport}: discarded mid-way");
            // Discarded once complete.
            server.expect_bulk(3, data.len());
            client.send_bulk(3, &data).unwrap();
            sync(&client, &server, 103);
            assert_eq!(server.bulk_streams_held(), 1, "{transport}");
            server.discard_bulk(3, true);
            assert!(server.streams.table.lock().is_empty(), "{transport}: discarded after");
        }
    }

    /// A stream longer than expected fails its waiter and leaves the
    /// connection in sync; so does one that ends short.  A chunk that would
    /// run past the destination is refused before a byte of it is written.
    #[test]
    fn a_stream_longer_or_shorter_than_expected_fails() {
        let cases = [
            (10, 11),
            (STREAM_CHUNK + 1, 2 * STREAM_CHUNK + 1),
            (10, 5),
            (STREAM_CHUNK + 1, STREAM_CHUNK),
            (0, 1),
        ];
        for (transport, client, server) in endpoint_pairs() {
            for (stream_id, (expected, sent)) in (1..).zip(cases) {
                server.expect_bulk(stream_id, expected);
                client.send_bulk(stream_id, &pattern(sent)).unwrap();
                let err = server.wait_bulk(stream_id, Duration::from_secs(5)).unwrap_err();
                let case = format!("{transport}: {sent} bytes for {expected}");
                assert!(matches!(err, GcfError::Codec(_)), "{case}: {err:?}");
                sync(&client, &server, 100 + stream_id);
                assert!(server.is_open(), "{case}: connection closed");
                assert!(server.streams.table.lock().is_empty(), "{case}: stream left");
            }
            server.expect_bulk(50, 4);
            assert!(server.streams.claim(50, 5).is_none(), "{transport}: handed out");
            let err = server.wait_bulk(50, Duration::from_secs(5)).unwrap_err();
            assert!(matches!(err, GcfError::Codec(_)), "{transport}: {err:?}");
        }
    }

    /// Takes the stream that follows each request.  A request is the
    /// stream's id and length, 8 bytes each; the answer is the bytes
    /// received, or `[0xee]` if the receive failed.  Logs what it handled,
    /// in order.
    #[derive(Default)]
    struct StreamTaker {
        endpoint: OnceLock<std::sync::Weak<Endpoint>>,
        log: Mutex<Vec<String>>,
    }

    impl EndpointHandler for StreamTaker {
        fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
            let field = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let (id, len) = (field(0), field(8) as usize);
            self.log.lock().push(format!("request {id}"));
            let endpoint = self.endpoint.get().and_then(std::sync::Weak::upgrade).unwrap();
            let mut dest = vec![0u8; len];
            endpoint.receive_stream_into(id, &mut dest).map_or_else(|_| vec![0xee], |()| dest)
        }

        fn handle_notification(&self, payload: &[u8]) {
            self.log.lock().push(format!("notification {}", payload[0]));
        }
    }

    /// A transport's name, a client, a server, and the server's handler.
    type TakerPair = (&'static str, Arc<Endpoint>, Arc<Endpoint>, Arc<StreamTaker>);

    /// A client, and a server whose handler is a [`StreamTaker`], over
    /// each transport.
    fn taker_pairs() -> Vec<TakerPair> {
        taker_pairs_with(ChaosPolicy::none())
    }

    /// [`taker_pairs`], the client's connection misbehaving by `policy`.
    fn taker_pairs_with(policy: ChaosPolicy) -> Vec<TakerPair> {
        let inproc = InprocTransport::new();
        let tcp = TcpTransport::new();
        [(&inproc as &dyn Transport, "srv"), (&tcp, "127.0.0.1:0")]
            .into_iter()
            .map(|(transport, addr)| {
                let listener = transport.listen(addr).unwrap();
                let bound = listener.local_addr();
                let accept = std::thread::spawn(move || listener.accept().unwrap());
                let client_conn =
                    FaultyConnection::with_policy(transport.connect(&bound).unwrap(), policy);
                let taker = Arc::new(StreamTaker::default());
                let handler = Arc::clone(&taker);
                let server = Endpoint::new_init(accept.join().unwrap(), handler, "server", |ep| {
                    let _ = taker.endpoint.set(Arc::downgrade(ep));
                });
                let client = Endpoint::new(client_conn, Arc::new(NullHandler), "client");
                (transport.name(), client, server, taker)
            })
            .collect()
    }

    fn take_request(id: u64, len: usize) -> Vec<u8> {
        [id.to_le_bytes(), (len as u64).to_le_bytes()].concat()
    }

    /// A stream that follows its request reaches the handler whole; one
    /// longer or shorter than expected fails once its last chunk is in, and
    /// the connection stays in sync.
    #[test]
    fn a_handler_receives_the_stream_that_follows_its_request() {
        let sizes = [0, 1, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 5];
        let wrong =
            [(10, 11), (STREAM_CHUNK + 1, 2 * STREAM_CHUNK + 1), (STREAM_CHUNK + 1, 5), (5, 0)];
        for (transport, client, server, _) in taker_pairs() {
            for (id, &size) in (1..).zip(&sizes) {
                let data = pattern(size);
                let got =
                    client.call_with_stream(take_request(id, size), Some((id, &data))).unwrap();
                assert!(got == data, "{transport}: {size} bytes");
            }
            for (id, (expected, sent)) in (10..).zip(wrong) {
                let request = take_request(id, expected);
                let got = client.call_with_stream(request, Some((id, &pattern(sent)))).unwrap();
                assert_eq!(got, [0xee], "{transport}: {sent} bytes for {expected}");
            }
            sync(&client, &server, 1000);
            assert!(server.is_open(), "{transport}");
            assert_eq!(server.bulk_streams_held(), 0, "{transport}");
        }
    }

    /// Frames that arrive while a handler receives its stream are
    /// dispatched after it returns, in arrival order; a chunk of another
    /// stream lands at once.
    #[test]
    fn frames_amid_a_following_stream_are_dispatched_after_it() {
        for (transport, client, server, taker) in taker_pairs() {
            let data = pattern(2 * STREAM_CHUNK);
            let caller = {
                let client = Arc::clone(&client);
                std::thread::spawn(move || client.call(take_request(7, 2 * STREAM_CHUNK)))
            };
            while taker.log.lock().is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
            client.notify(vec![1]).unwrap();
            client.send_bulk(8, &[3; 5]).unwrap();
            client.notify(vec![2]).unwrap();
            client.send_bulk(7, &data).unwrap();
            assert!(caller.join().unwrap().unwrap() == data, "{transport}");
            assert_eq!(server.wait_bulk(8, Duration::from_secs(5)).unwrap(), [3; 5]);
            sync(&client, &server, 9);
            let log = taker.log.lock().clone();
            assert_eq!(log, ["request 7", "notification 1", "notification 2"], "{transport}");
        }
    }

    /// Requests with a following stream, sent by two threads at once, each
    /// reach the handler with their own stream right behind them.
    #[test]
    fn following_streams_of_concurrent_calls_do_not_interleave() {
        const CALLS: u64 = 6;
        for (transport, client, server, _) in taker_pairs() {
            let callers: Vec<_> = (0..2u64)
                .map(|thread| {
                    let client = Arc::clone(&client);
                    std::thread::spawn(move || {
                        (0..CALLS).all(|call| {
                            let id = 100 * (thread + 1) + call;
                            let data = pattern(2 * STREAM_CHUNK + id as usize);
                            let request = take_request(id, data.len());
                            client.call_with_stream(request, Some((id, &data))).unwrap() == data
                        })
                    })
                })
                .collect();
            for caller in callers {
                assert!(caller.join().unwrap(), "{transport}: a stream came out wrong");
            }
            sync(&client, &server, 1000);
            assert_eq!(server.bulk_streams_held(), 0, "{transport}");
        }
    }

    /// A stream whose chunks came before the request it should follow
    /// fails at once, its chunks dropped, and the connection stays in sync.
    #[test]
    fn a_following_stream_that_came_ahead_fails_at_once() {
        for (transport, client, server, _) in taker_pairs() {
            client.send_bulk(5, &pattern(STREAM_CHUNK + 1)).unwrap();
            let got = client.call(take_request(5, STREAM_CHUNK + 1)).unwrap();
            assert_eq!(got, [0xee], "{transport}");
            let data = pattern(STREAM_CHUNK + 2);
            let got = client.call_with_stream(take_request(6, data.len()), Some((6, &data)));
            assert!(got.unwrap() == data, "{transport}");
            assert_eq!(server.bulk_streams_held(), 0, "{transport}");
        }
    }

    /// A following stream that stalls part-way, its connection left open,
    /// fails the receive after the call timeout and closes the connection.
    #[test]
    fn a_following_stream_that_stalls_closes_the_connection() {
        // The request, then three chunks: the last one is lost.
        let policy = ChaosPolicy { drop_every: 4, ..ChaosPolicy::none() };
        for (transport, client, server, _) in taker_pairs_with(policy) {
            server.set_call_timeout(Duration::from_millis(200));
            let data = pattern(2 * STREAM_CHUNK + 1);
            let start = Instant::now();
            let got = client.call_with_stream(take_request(5, data.len()), Some((5, &data)));
            assert!(got.is_err(), "{transport}: {got:?}");
            assert!(start.elapsed() < Duration::from_secs(5), "{transport}: {:?}", start.elapsed());
            assert!(!server.is_open(), "{transport}");
        }
    }

    /// Only a handler, on the receiver thread, may take a following stream.
    #[test]
    fn a_following_stream_is_received_on_the_receiver_thread_only() {
        let (_client, server) = endpoint_pair(Arc::new(NullHandler), Arc::new(NullHandler));
        let err = server.receive_stream_into(1, &mut [0; 4]).unwrap_err();
        assert!(matches!(err, GcfError::Protocol(_)), "{err:?}");
    }

    /// A local close, or dropping the endpoint, wakes its receiver thread
    /// out of the connection's receive, and the thread ends.
    #[test]
    fn closing_or_dropping_an_endpoint_ends_its_receiver_thread() {
        let inproc = InprocTransport::new();
        let tcp = TcpTransport::new();
        for (transport, addr) in [(&inproc as &dyn Transport, "srv"), (&tcp, "127.0.0.1:0")] {
            for close in [true, false] {
                let listener = transport.listen(addr).unwrap();
                let bound = listener.local_addr();
                let accept = std::thread::spawn(move || listener.accept().unwrap());
                let conn = transport.connect(&bound).unwrap();
                let _server_conn = accept.join().unwrap();
                let (client, receiver) =
                    Endpoint::start(conn, Arc::new(NullHandler), "client", |_| {});
                if close {
                    client.close();
                } else {
                    drop(client);
                }
                receiver.join().unwrap();
            }
        }
    }
}
