//! The connection side of the client driver: the roster of servers, the
//! handshake, connection supervision and recovery, and the one routine by
//! which a server leaves (`ARCHITECTURE.md`, "Server connections").  Only
//! this module touches a slot's fields.

use super::batch::Outgoing;
use super::ClientInner;
use crate::error::{DclError, Result};
use crate::protocol::{DeviceDescriptor, EventCompletion, Notification, Request, Response};
use gcf::retry::{retry_with_backoff, Backoff};
use gcf::rpc::{Endpoint, EndpointHandler, TrafficStats};
use gcf::simtime::Phase;
use gcf::wire::{Decode, Encode};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// How the client reacts to a dead server connection (see the
/// [module docs](crate::client#failure-semantics)).
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

/// One server's record in the client's roster: everything the client
/// keeps per server, from `connect_server` until the server leaves.  Slots
/// are never removed, so a [`super::ServerId`] stays an index into the
/// roster.
#[derive(Default)]
pub(super) struct ServerSlot {
    /// The connection; `None` once the server has left.  While the server
    /// is reconnecting it is the dead one, whose name is the address to
    /// redial.
    conn: Option<Arc<ServerConn>>,
    /// Epoch of the connection that opened the daemon's current session;
    /// commands accepted on an earlier connection died with theirs.
    session_start: u64,
    /// Initialization-phase requests replayed verbatim when the daemon did
    /// not park our session (it was restarted): re-creates every remote
    /// object in original order.
    setup_log: Vec<Request>,
    /// A reconnect is in flight; other detections wait on `recovery_cond`.
    reconnecting: bool,
    /// Redialling gave up under [`FailoverPolicy::drop_lost_servers`].
    lost: bool,
    /// Commands and event traffic waiting to travel (see [`Outgoing`]).
    outgoing: Arc<Mutex<Outgoing>>,
    /// Counters of the server's replaced or closed endpoints, plus its
    /// reconnects and retries; `traffic_stats` adds the live endpoint's.
    retired: TrafficStats,
}

pub(super) struct ServerConn {
    /// The address dialled.
    pub(super) name: String,
    pub(super) endpoint: Arc<Endpoint>,
    pub(super) devices: Vec<DeviceDescriptor>,
    /// Session epoch the handshake presented; bumped on every reconnect so
    /// the daemon can tell a revival from a fresh client.
    pub(super) epoch: u64,
}

impl ClientInner {
    pub(super) fn server(&self, index: usize) -> Result<Arc<ServerConn>> {
        self.servers
            .lock()
            .get(index)
            .and_then(|slot| slot.conn.clone())
            .ok_or_else(|| DclError::ServerUnavailable(format!("server #{index}")))
    }

    /// Epoch of the connection that opened `server`'s current daemon session.
    pub(super) fn session_start(&self, server: usize) -> u64 {
        self.servers.lock().get(server).map_or(0, |slot| slot.session_start)
    }

    /// Every connected server, by roster index.
    pub(super) fn connected(&self) -> Vec<(usize, Arc<ServerConn>)> {
        let servers = self.servers.lock();
        servers.iter().enumerate().filter_map(|(i, slot)| Some((i, slot.conn.clone()?))).collect()
    }

    /// `server`'s outgoing record, or `None` once the server has left: its
    /// traffic has nowhere to go.
    pub(super) fn outgoing(&self, server: usize) -> Option<Arc<Mutex<Outgoing>>> {
        let servers = self.servers.lock();
        let slot = servers.get(server)?;
        slot.conn.as_ref().map(|_| Arc::clone(&slot.outgoing))
    }

    /// Wire-traffic counters over every server ever connected: each slot's
    /// retired counters plus its live endpoint's.
    pub(super) fn traffic_stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for slot in self.servers.lock().iter() {
            total += slot.retired;
            if let Some(conn) = &slot.conn {
                total += conn.endpoint.stats();
            }
        }
        total
    }

    /// Connect to the daemon at `address` and add it to the roster.
    pub(super) fn add_server(&self, address: &str) -> Result<usize> {
        let (conn, handler, _resumed) = self.handshake(address, 0)?;
        let endpoint = Arc::clone(&conn.endpoint);
        let index = {
            let mut servers = self.servers.lock();
            servers.push(ServerSlot { conn: Some(Arc::new(conn)), ..ServerSlot::default() });
            servers.len() - 1
        };
        handler.release();
        self.install_supervisor(index, &endpoint);
        Ok(index)
    }

    /// Pass `result` of a bulk-path step on `server` through; on a transport
    /// failure, first run the single-flight `recover_server`, so a dead
    /// server is reconnected — or dropped under `drop_lost_servers` — now,
    /// not whenever another request happens to probe it.  The step itself is
    /// not retried: its stream died with the connection.
    pub(super) fn recover_after_bulk<T>(&self, server: usize, result: Result<T>) -> Result<T> {
        if let Err(DclError::Network(_) | DclError::ServerUnavailable(_)) = &result {
            let _ = self.recover_server(server);
        }
        result
    }

    /// Encode `request` once and charge its modelled round trip on the
    /// link; the returned bytes are what goes on the wire.
    pub(super) fn encode_charged(&self, phase: Phase, request: &Request) -> Vec<u8> {
        let payload = request.to_bytes();
        self.clock.charge(phase, self.link.round_trip_time(payload.len() as u64, 64));
        payload
    }

    pub(super) fn call_server(
        &self,
        server: usize,
        request: Request,
        phase: Phase,
    ) -> Result<Response> {
        let payload = self.encode_charged(phase, &request);
        let response = self.call_with_recovery(server, &payload)?.0.into_result()?;
        // Record setup requests so a reconnect to a restarted daemon can
        // re-create the remote objects (see the recovery path).  A kernel
        // argument keeps only its latest setting, moved to the end of the
        // log: the objects it names were all created before it.
        if Self::is_setup_request(&request) {
            if let Some(slot) = self.servers.lock().get_mut(server) {
                if let Some(arg) = kernel_arg(&request) {
                    slot.setup_log.retain(|earlier| kernel_arg(earlier) != Some(arg));
                }
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
    /// mid-call; returns the answer and the epoch of the connection that
    /// gave it.  Safe because every request the protocol retries this way
    /// is idempotent — batches through their command ids, creation calls
    /// because they overwrite the same object id.  (Bulk-transfer requests
    /// bypass this path; their stream dies with the connection.)
    pub(super) fn call_with_recovery(
        &self,
        server: usize,
        payload: &[u8],
    ) -> Result<(Response, u64)> {
        let mut recoveries = 0u32;
        loop {
            let conn = self.server(server)?;
            match conn.endpoint.call(payload.to_vec()) {
                Ok(bytes) => {
                    return Response::from_bytes(&bytes)
                        .map(|response| (response, conn.epoch))
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
    pub(super) fn recover_server(&self, index: usize) -> Result<()> {
        if !self.failover.lock().reconnect {
            return Err(DclError::ServerUnavailable(format!(
                "server #{index} disconnected (failover disabled)"
            )));
        }
        let unavailable =
            |why: &str| Err(DclError::ServerUnavailable(format!("server #{index}{why}")));
        let (dead, log) = {
            let mut servers = self.servers.lock();
            loop {
                let Some(slot) = servers.get_mut(index) else { return unavailable("") };
                let dead = match &slot.conn {
                    _ if slot.lost => return unavailable(" is permanently lost"),
                    None => return unavailable(" was dropped"),
                    Some(conn) if conn.endpoint.is_open() => return Ok(()),
                    Some(conn) => Arc::clone(conn),
                };
                if !slot.reconnecting {
                    slot.reconnecting = true;
                    break (dead, slot.setup_log.clone());
                }
                self.recovery_cond.wait(&mut servers);
            }
        };
        let result = self.reconnect_attempt(index, &dead, &log);
        let lost = result.is_err() && self.failover.lock().drop_lost_servers;
        {
            let slot = &mut self.servers.lock()[index];
            slot.reconnecting = false;
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

    /// One full redial of the `dead` connection: close it, reconnect with
    /// backoff, re-handshake with the bumped epoch, and — if the daemon did
    /// not park our session — replay the setup log, invalidate the
    /// server's buffer copies and fail the commands the lost session had
    /// accepted.  The reconnect counts once the new connection is in its
    /// slot, and only then do the statuses the daemon re-reported during
    /// the handshake settle.
    fn reconnect_attempt(&self, index: usize, dead: &ServerConn, log: &[Request]) -> Result<()> {
        // Close the dead endpoint but leave it in its slot: its traffic
        // counters are retired exactly once, when the slot lets go of it
        // (replaced below on success, or by `drop_server` on permanent
        // loss) — retiring here too would double-count.
        dead.endpoint.close();
        let epoch = dead.epoch + 1;
        let backoff = self.failover.lock().backoff;
        let (conn, handler, resumed) = retry_with_backoff(&backoff, |_attempt| {
            self.handshake(&dead.name, epoch).map_err(|e| match e {
                DclError::Network(g) => g,
                other => gcf::GcfError::Disconnected(other.to_string()),
            })
        })
        .map_err(DclError::Network)?;
        if !resumed {
            // The daemon lost our session (restart): rebuild every remote
            // object, then mark this server's buffer copies stale so the
            // MSI directory re-validates them from a surviving copy.
            for request in log {
                self.exchange(&conn.endpoint, request, Phase::Initialization)?;
            }
            self.invalidate_copies(index);
        }
        let endpoint = Arc::clone(&conn.endpoint);
        {
            let slot = &mut self.servers.lock()[index];
            if let Some(old) = slot.conn.replace(Arc::new(conn)) {
                slot.retired += old.endpoint.stats();
            }
            slot.retired.reconnects += 1;
            slot.session_start = if resumed { slot.session_start } else { epoch };
        }
        if !resumed {
            // The lost session's commands never report; a re-sent batch is
            // accepted anew, on this connection.
            self.fail_events_owned_by(index, Some(epoch));
        }
        handler.release();
        self.install_supervisor(index, &endpoint);
        // Status forwards that failed while the server was away go out now,
        // ahead of any batch the caller re-sends.
        self.send_waiting_forwards(index);
        Ok(())
    }

    /// Dial `address`, handshake (`Hello` with `epoch`), fetch the device
    /// list.  Shared by first connect and reconnect.  The connection's
    /// completions are held until the caller releases its handler.
    fn handshake(
        &self,
        address: &str,
        epoch: u64,
    ) -> Result<(ServerConn, Arc<ClientHandler>, bool)> {
        let conn = self.transport.connect(address)?;
        let handler = Arc::new(ClientHandler {
            inner: self.self_weak.clone(),
            held: Mutex::new(Some(Vec::new())),
        });
        let endpoint = Endpoint::new(
            conn,
            Arc::clone(&handler) as Arc<dyn EndpointHandler>,
            format!("client-{}", self.name),
        );

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
        Ok((ServerConn { name: address.to_string(), endpoint, devices, epoch }, handler, resumed))
    }

    /// Wire the endpoint's death notification to the recovery routine, and
    /// wake the waits on the server's outstanding events so they can join
    /// it.  The callback runs on the dying endpoint's receiver thread, so
    /// the actual redial is pushed to a fresh thread.
    fn install_supervisor(&self, index: usize, endpoint: &Arc<Endpoint>) {
        let weak = self.self_weak.clone();
        endpoint.set_supervisor(Arc::new(move |_reason: &str| {
            let Some(inner) = weak.upgrade() else { return };
            inner.wake_waiters_on(index);
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
    /// close its endpoint, close its outgoing record (discarding its
    /// pending batch and event traffic), fail its outstanding events with
    /// the wait-list error (forwarding the failures to the servers holding
    /// replacements), and invalidate its buffer copies.  The client keeps
    /// going on the survivors.
    pub(super) fn drop_server(&self, index: usize) {
        let (conn, outgoing) = {
            let slot = &mut self.servers.lock()[index];
            let conn = slot.conn.take();
            if let Some(conn) = &conn {
                slot.retired += conn.endpoint.stats();
            }
            (conn, Arc::clone(&slot.outgoing))
        };
        if let Some(conn) = conn {
            conn.endpoint.close();
        }
        // What was waiting drops (with its wait-list handles) outside the
        // lock; its events fail below with the server's other outstanding
        // ones.
        let abandoned = outgoing.lock().close();
        drop(abandoned);
        self.fail_events_owned_by(index, None);
        // The server's buffer copies are gone with it: delta plans
        // re-validate from the surviving copies — in range mode moving only
        // the ranges that actually lived there.
        self.invalidate_copies(index);
    }

    pub(super) fn call_server_on(
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

/// The `(kernel_id, index)` a `SetKernelArg*` request sets.
fn kernel_arg(request: &Request) -> Option<(u64, u32)> {
    match *request {
        Request::SetKernelArgScalar { kernel_id, index, .. }
        | Request::SetKernelArgBuffer { kernel_id, index, .. }
        | Request::SetKernelArgLocal { kernel_id, index, .. } => Some((kernel_id, index)),
        _ => None,
    }
}

/// Receives one connection's notifications.  Completions are held until
/// the handshake that opened the connection has succeeded and the
/// connection is in its slot: a status re-reported to a reconnecting
/// client then settles only after the reconnect is counted, and one heard
/// by an attempt that fails is dropped with it (the next attempt hears it
/// again).
struct ClientHandler {
    inner: Weak<ClientInner>,
    /// Completions held back; `None` once released.
    held: Mutex<Option<Vec<EventCompletion>>>,
}

impl ClientHandler {
    /// Apply the held completions and stop holding.  The lock is held
    /// across, so a frame arriving meanwhile settles after them.
    fn release(&self) {
        let mut held = self.held.lock();
        if let (Some(completions), Some(inner)) = (held.take(), self.inner.upgrade()) {
            inner.complete_events(&completions);
        }
    }
}

impl EndpointHandler for ClientHandler {
    fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
        // Daemons never issue requests to the client in the current
        // protocol; answer with an empty payload.
        Vec::new()
    }

    fn handle_notification(&self, payload: &[u8]) {
        let Some(inner) = self.inner.upgrade() else { return };
        let Ok(Notification::EventsCompleted { events }) = Notification::from_bytes(payload) else {
            return;
        };
        let mut held = self.held.lock();
        match held.as_mut() {
            Some(held) => held.extend(events),
            None => {
                drop(held);
                inner.complete_events(&events);
            }
        }
    }
}

#[cfg(test)]
impl ClientInner {
    /// `server`'s setup log, as a restarted daemon would get it replayed.
    pub(super) fn setup_log(&self, server: usize) -> Vec<Request> {
        self.servers.lock()[server].setup_log.clone()
    }
}
