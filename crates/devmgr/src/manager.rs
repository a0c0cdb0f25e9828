//! The central device manager, grown into a cluster **resource manager**
//! (Section IV of the paper, extended).
//!
//! The original device manager handed out whole-device leases.  This module
//! now manages *fractional virtual devices* ([`crate::vdev::VirtualDevice`]):
//! each physical device is carved into compute shares (millis of a device)
//! and memory quotas, placed by a pluggable scheduling policy
//! ([`crate::Strategy`]) with admission control, weighted-fair rebalancing
//! and priority preemption.  Node lifecycle is first-class: servers join by
//! registration, prove liveness through heartbeats, can be drained before
//! leaving, and shares of crashed or removed nodes are migrated to
//! survivors — watching clients learn about every change through
//! [`crate::protocol::DmNotification::LeaseChanged`] pushes.
//!
//! The placement state machine lives in the private `placement` module;
//! this one holds it under one lock and does its I/O: every public method
//! locks the state, runs one transition, unlocks, and only then sends the
//! pushes the transition planned.

use crate::error::{DevMgrError, Result};
use crate::placement::{ManagerState, PushPlan};
use crate::protocol::{DmDevice, DmGrant, DmRequest, DmResponse};
use crate::vdev::{allocated_millis, ShareRequest, VirtualDevice};
use gcf::rpc::{Endpoint, EndpointHandler};
use gcf::transport::{Listener, Transport};
use gcf::wire::{Decode, Encode};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

pub use crate::sched::Strategy;
pub use crate::vdev::FULL_COMPUTE_MILLIS;

/// A granted lease: an authentication id plus the fractional shares backing
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The unique authentication id.
    pub auth_id: String,
    /// The requesting client's name.
    pub client_name: String,
    /// Scheduling priority (used by [`Strategy::Priority`]; doubles as the
    /// weight under [`Strategy::Fair`]).
    pub priority: u32,
    /// The fractional shares granted to this lease.
    pub virtual_devices: Vec<VirtualDevice>,
}

impl Lease {
    /// The physical devices backing this lease, as
    /// (server index, daemon-local device id), deduplicated in grant order.
    pub fn physical_devices(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = Vec::new();
        for vd in &self.virtual_devices {
            if !out.contains(&(vd.server, vd.device)) {
                out.push((vd.server, vd.device));
            }
        }
        out
    }

    /// Σ compute millis currently granted to this lease.
    pub fn granted_millis(&self) -> u32 {
        allocated_millis(&self.virtual_devices)
    }
}

/// Outcome of failing one lease over after its server was marked down,
/// drained, or removed (Section IV-C, extended to fractional shares).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseFailover {
    /// The affected lease.
    pub auth_id: String,
    /// Replacement placements on healthy servers, as
    /// (server index, device id).
    pub moved: Vec<(usize, u64)>,
    /// The lease lost shares that could not be replaced (no capacity of
    /// the same device type on a healthy server); it continues on its
    /// survivors — or was released entirely if none remain.
    pub degraded: bool,
}

/// Send every planned push in order.  Returns whether every call was
/// answered `Ok`; other failures are ignored (a dead daemon is handled by
/// the health path, a gone client by lease release).
fn send(plan: PushPlan) -> bool {
    let mut acked = true;
    for push in plan.pushes {
        if push.acked {
            let reply = push.endpoint.call(push.payload);
            acked &= matches!(reply.map(|b| DmResponse::from_bytes(&b)), Ok(Ok(DmResponse::Ok)));
        } else {
            let _ = push.endpoint.notify(push.payload);
        }
    }
    acked
}

/// Guard for a running background health sweep
/// ([`DeviceManager::start_health_monitor`]); dropping it stops the sweep
/// promptly (the background thread is woken and joined).
#[derive(Debug)]
pub struct HealthMonitor {
    stop: std::sync::mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The cluster resource manager's registry and scheduling logic
/// (transport-agnostic).
pub struct DeviceManager {
    strategy: Strategy,
    state: Mutex<ManagerState>,
}

impl DeviceManager {
    /// Create an empty device manager.
    pub fn new(strategy: Strategy) -> Arc<DeviceManager> {
        Arc::new(DeviceManager { strategy, state: Mutex::new(ManagerState::default()) })
    }

    /// The active scheduling policy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    // ----- node lifecycle ---------------------------------------------------

    /// Register (or re-register) a server and its devices; returns the
    /// server index.  Registration is how a node *joins* the cluster; a
    /// restarted daemon re-registers and its unallocated capacity becomes
    /// schedulable again.
    pub fn register_server(
        &self,
        name: &str,
        address: &str,
        devices: Vec<DmDevice>,
        endpoint: Option<Weak<Endpoint>>,
    ) -> usize {
        self.state.lock().register(name, address, devices, endpoint)
    }

    /// Record a liveness beacon from `server_name`.  Returns `false` for an
    /// unknown server.  A beat from a server previously marked down brings
    /// it back up (its unallocated capacity is schedulable again).
    pub fn heartbeat(&self, server_name: &str) -> bool {
        self.state.lock().heartbeat(server_name)
    }

    /// Advance the logical health clock by one tick and return the new
    /// value.  Callers pair this with [`DeviceManager::check_health`].
    pub fn tick(&self) -> u64 {
        self.state.lock().tick()
    }

    /// Start a background sweep that advances the health clock and runs
    /// [`DeviceManager::check_health`] every `interval` until the returned
    /// [`HealthMonitor`] is dropped.
    ///
    /// A server whose heartbeat timer beats faster than `interval` is never
    /// marked down; one that goes silent is failed over after roughly
    /// `max_missed + 1` intervals.  Tests that need determinism keep driving
    /// [`DeviceManager::tick`] / [`DeviceManager::check_health`] by hand
    /// instead of starting a monitor.
    pub fn start_health_monitor(
        self: &Arc<Self>,
        interval: std::time::Duration,
        max_missed: u64,
    ) -> HealthMonitor {
        let manager = Arc::clone(self);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("devmgr-health".into())
            .spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        manager.tick();
                        // Failover side effects (lease pushes) happen inside
                        // check_health; the event list is for callers that
                        // sweep manually.
                        let _ = manager.check_health(max_missed);
                    }
                    _ => return,
                }
            })
            .expect("spawn health monitor thread");
        HealthMonitor { stop: stop_tx, handle: Some(handle) }
    }

    /// Health of every registered server as (name, up).
    pub fn server_health(&self) -> Vec<(String, bool)> {
        self.state.lock().servers.iter().map(|s| (s.name.clone(), !s.down)).collect()
    }

    /// Σ compute millis currently allocated on `server_name`'s devices, or
    /// `None` for an unknown server.  `Some(0)` means the server is idle
    /// and safe to remove after a drain.
    pub fn server_load(&self, server_name: &str) -> Option<u32> {
        let state = self.state.lock();
        let index = state.server_index(server_name).ok()?;
        let shares = state.leases.values().flat_map(|l| l.virtual_devices.iter());
        Some(shares.filter(|vd| vd.server == index).map(|vd| vd.compute_millis).sum())
    }

    /// Mark every server that missed more than `max_missed` ticks since its
    /// last heartbeat as down and fail its shares over to healthy servers
    /// (Section IV-C).  A server *already* marked down never re-triggers
    /// failover: its shares were reassigned when it first went down, so
    /// subsequent sweeps see nothing left to move.  Leases that cannot be
    /// made whole continue degraded on their surviving shares, or are
    /// released when nothing survives.
    pub fn check_health(&self, max_missed: u64) -> Vec<LeaseFailover> {
        let (events, plan) = self.state.lock().check_health(self.strategy, max_missed);
        send(plan);
        events
    }

    /// Gracefully drain `server_name`: mark it non-schedulable and migrate
    /// as many of its shares as the surviving capacity allows.  Shares with
    /// nowhere to go *stay on the draining server* (it is still up); call
    /// [`DeviceManager::server_load`] to see whether the drain completed,
    /// and [`DeviceManager::remove_server`] to force the leave.
    pub fn drain_server(&self, server_name: &str) -> Result<Vec<LeaseFailover>> {
        let (events, plan) = self.state.lock().drain(self.strategy, server_name)?;
        send(plan);
        Ok(events)
    }

    /// Remove `server_name` from the cluster (the second half of a
    /// graceful leave, or an administrative eviction).  Shares still on it
    /// are failed over like a crash — leases that cannot be made whole
    /// degrade or are released.
    pub fn remove_server(&self, server_name: &str) -> Result<Vec<LeaseFailover>> {
        let (events, plan) = self.state.lock().remove(self.strategy, server_name)?;
        send(plan);
        Ok(events)
    }

    /// Revoke the placement of `auth_id` and move every one of its shares
    /// to a *different* server (administrative migration; also the
    /// mechanism behind priority preemption).  The victim's daemons drop
    /// the auth id, the receiving daemons learn it, and watching clients
    /// get a [`crate::protocol::DmNotification::LeaseChanged`] push so
    /// they can reconnect and re-validate their buffers through the
    /// coherence directory.
    pub fn migrate_lease(&self, auth_id: &str) -> Result<LeaseFailover> {
        let (event, plan) = self.state.lock().migrate_lease(self.strategy, auth_id)?;
        send(plan);
        Ok(event)
    }

    // ----- diagnostics ------------------------------------------------------

    /// Number of devices (on up servers) without any allocated share.
    pub fn free_device_count(&self) -> usize {
        self.state.lock().free_devices()
    }

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.state.lock().leases.len()
    }

    /// Currently active leases.
    pub fn leases(&self) -> Vec<Lease> {
        self.state.lock().leases.values().cloned().collect()
    }

    /// A single lease by auth id.
    pub fn lease(&self, auth_id: &str) -> Option<Lease> {
        self.state.lock().leases.get(auth_id).cloned()
    }

    /// Diagnostics counters: (free devices, devices with ≥ 1 share, leases).
    pub fn status(&self) -> (u32, u32, u32) {
        self.state.lock().status()
    }

    /// The current grants of a lease in wire form (server addresses
    /// resolved), or `None` for an unknown lease.
    pub fn lease_grants(&self, auth_id: &str) -> Option<Vec<DmGrant>> {
        let state = self.state.lock();
        let lease = state.leases.get(auth_id)?;
        let grant = |vd: &VirtualDevice| DmGrant {
            server: state.servers[vd.server].address.clone(),
            device_id: vd.device,
            compute_millis: vd.compute_millis,
            mem_bytes: vd.mem_bytes,
        };
        Some(lease.virtual_devices.iter().map(grant).collect())
    }

    // ----- assignment -------------------------------------------------------

    /// Handle a fractional assignment request: place each share under the
    /// active policy, build a lease, push the quotas to the involved
    /// daemons, and return the authentication id plus server addresses.
    ///
    /// Admission control: when matching devices exist but no policy move
    /// can produce every share's floor, the request is rejected with
    /// [`DevMgrError::Saturated`].
    pub fn assign_shares(
        &self,
        client_name: &str,
        requests: &[ShareRequest],
        priority: u32,
    ) -> Result<(Lease, Vec<String>)> {
        let admission = self.state.lock().place(self.strategy, client_name, requests, priority)?;
        // The daemons must know the lease before the client (who connects
        // the moment it has the auth id) presents it, so the install is
        // acknowledged.
        if !send(admission.install) {
            // A daemon that never learned the auth id would show the client
            // zero devices; hand back an error instead of a lease that
            // cannot be used.  Revoking at a daemon that never acked is
            // harmless.  (Saturation moves applied on the way here stay
            // applied — they are valid allocations either way.)
            let auth_id = admission.lease.auth_id;
            let revoke = self.state.lock().release(&auth_id).unwrap_or_default();
            send(revoke);
            send(admission.effects);
            return Err(DevMgrError::Protocol(format!(
                "a daemon did not acknowledge lease {auth_id}"
            )));
        }
        // Quota shrinks and watcher notices from saturation moves go out
        // only after the new lease is fully installed.
        send(admission.effects);
        Ok((admission.lease, admission.servers))
    }

    /// Subscribe `endpoint` to lease-change pushes for `auth_id`.
    pub fn watch_lease(&self, auth_id: &str, endpoint: Weak<Endpoint>) -> Result<()> {
        self.state.lock().watch(auth_id, endpoint)
    }

    /// Release a lease: its shares return to the pool and the involved
    /// daemons are told to discard the authentication id.
    pub fn release(&self, auth_id: &str) -> Result<()> {
        let plan = self.state.lock().release(auth_id)?;
        // Revocation stays fire-and-forget: release() may run on a daemon
        // session's own receiver thread (ReportDisconnect), where a
        // synchronous call back over that endpoint could never see its
        // reply.  The reporting daemon drops the auth id locally anyway;
        // the allocation bookkeeping above is what must be (and is) atomic.
        send(plan);
        Ok(())
    }
}

/// The network front end of the device manager: accepts connections from
/// daemons and clients and serves the [`DmRequest`] protocol.
pub struct DeviceManagerServer {
    manager: Arc<DeviceManager>,
    address: String,
    shutdown: Arc<AtomicBool>,
    sessions: Arc<Mutex<Vec<Arc<Endpoint>>>>,
}

impl DeviceManagerServer {
    /// Start the device manager listening at `address`.
    pub fn start(
        manager: Arc<DeviceManager>,
        transport: Arc<dyn Transport>,
        address: &str,
    ) -> Result<Arc<DeviceManagerServer>> {
        let listener = transport.listen(address)?;
        let bound = listener.local_addr();
        let server = Arc::new(DeviceManagerServer {
            manager,
            address: bound,
            shutdown: Arc::new(AtomicBool::new(false)),
            sessions: Arc::new(Mutex::new(Vec::new())),
        });
        let weak = Arc::downgrade(&server);
        std::thread::Builder::new()
            .name("devmgr-accept".to_string())
            .spawn(move || Self::accept_loop(weak, listener))
            .map_err(|e| DevMgrError::Protocol(format!("cannot spawn accept thread: {e}")))?;
        Ok(server)
    }

    fn accept_loop(server: Weak<DeviceManagerServer>, listener: Box<dyn Listener>) {
        loop {
            let Some(strong) = server.upgrade() else { break };
            if strong.shutdown.load(Ordering::Acquire) {
                break;
            }
            drop(strong);
            let Ok(conn) = listener.accept() else { break };
            let Some(strong) = server.upgrade() else { break };
            let session = Arc::new(DmSession {
                manager: Arc::clone(&strong.manager),
                endpoint: Mutex::new(None),
            });
            // The session must know its endpoint before the receiver thread
            // dispatches the first request: a daemon's RegisterServer
            // arriving earlier would register with no endpoint, and every
            // lease install to that server would be silently skipped.
            let endpoint = Endpoint::new_init(
                conn,
                Arc::clone(&session) as Arc<dyn EndpointHandler>,
                "devmgr",
                |ep| *session.endpoint.lock() = Some(Arc::downgrade(ep)),
            );
            strong.sessions.lock().push(endpoint);
        }
    }

    /// The address the device manager listens at.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// The underlying registry (for inspection).
    pub fn manager(&self) -> &Arc<DeviceManager> {
        &self.manager
    }

    /// Stop accepting connections.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

struct DmSession {
    manager: Arc<DeviceManager>,
    endpoint: Mutex<Option<Weak<Endpoint>>>,
}

impl DmSession {
    fn handle(&self, request: DmRequest) -> DmResponse {
        match request {
            DmRequest::RegisterServer { server_name, address, devices } => {
                let endpoint = self.endpoint.lock().clone();
                self.manager.register_server(&server_name, &address, devices, endpoint);
                DmResponse::Ok
            }
            DmRequest::RequestShares { client_name, priority, shares } => {
                let requests: Vec<ShareRequest> = shares.iter().map(ShareRequest::from).collect();
                match self.manager.assign_shares(&client_name, &requests, priority) {
                    Ok((lease, servers)) => {
                        DmResponse::Assignment { auth_id: lease.auth_id, servers }
                    }
                    Err(e) => DmResponse::Error { message: e.to_string() },
                }
            }
            DmRequest::ReleaseLease { auth_id } | DmRequest::ReportDisconnect { auth_id } => {
                match self.manager.release(&auth_id) {
                    Ok(()) => DmResponse::Ok,
                    Err(e) => DmResponse::Error { message: e.to_string() },
                }
            }
            DmRequest::GetStatus => {
                let (free_devices, assigned_devices, leases) = self.manager.status();
                DmResponse::Status { free_devices, assigned_devices, leases }
            }
            DmRequest::Heartbeat { server_name } => {
                if self.manager.heartbeat(&server_name) {
                    DmResponse::Ok
                } else {
                    DmResponse::Error { message: format!("unknown server '{server_name}'") }
                }
            }
            DmRequest::DrainServer { server_name } => {
                match self.manager.drain_server(&server_name) {
                    Ok(_) => DmResponse::Ok,
                    Err(e) => DmResponse::Error { message: e.to_string() },
                }
            }
            DmRequest::RemoveServer { server_name } => {
                match self.manager.remove_server(&server_name) {
                    Ok(_) => DmResponse::Ok,
                    Err(e) => DmResponse::Error { message: e.to_string() },
                }
            }
            DmRequest::GetLease { auth_id } => match self.manager.lease_grants(&auth_id) {
                Some(grants) => DmResponse::LeaseInfo { auth_id, grants },
                None => DmResponse::Error { message: format!("unknown lease: {auth_id}") },
            },
            DmRequest::WatchLease { auth_id } => {
                let endpoint = self.endpoint.lock().clone();
                match endpoint {
                    Some(weak) => match self.manager.watch_lease(&auth_id, weak) {
                        Ok(()) => DmResponse::Ok,
                        Err(e) => DmResponse::Error { message: e.to_string() },
                    },
                    None => DmResponse::Error { message: "session has no endpoint".into() },
                }
            }
        }
    }
}

impl EndpointHandler for DmSession {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        let response = match DmRequest::from_bytes(payload) {
            Ok(request) => self.handle(request),
            Err(e) => DmResponse::Error { message: format!("malformed request: {e}") },
        };
        response.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(id: u64) -> DmDevice {
        DmDevice {
            remote_id: id,
            name: format!("GPU {id}"),
            vendor: "NVIDIA".into(),
            device_type: "GPU".into(),
            compute_units: 30,
            global_mem_bytes: 4 << 30,
        }
    }

    fn cpu(id: u64) -> DmDevice {
        DmDevice {
            remote_id: id,
            name: format!("CPU {id}"),
            vendor: "Intel".into(),
            device_type: "CPU".into(),
            compute_units: 8,
            global_mem_bytes: 16 << 30,
        }
    }

    fn gpu_requirement() -> ShareRequest {
        ShareRequest::whole_device(1, vec![("TYPE".into(), "GPU".into())])
    }

    fn gpu_share(desired: u32, min: u32) -> ShareRequest {
        ShareRequest {
            count: 1,
            attributes: vec![("TYPE".into(), "GPU".into())],
            compute_millis: desired,
            min_millis: min,
            mem_bytes: 0,
        }
    }

    #[test]
    fn assignment_creates_lease_and_removes_from_free_set() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("srv", "srv-addr", vec![gpu(1), gpu(2), cpu(3)], None);
        assert_eq!(dm.free_device_count(), 3);
        let (lease, servers) = dm.assign_shares("client-a", &[gpu_requirement()], 0).unwrap();
        assert_eq!(servers, vec!["srv-addr".to_string()]);
        assert_eq!(lease.physical_devices().len(), 1);
        assert_eq!(lease.granted_millis(), FULL_COMPUTE_MILLIS);
        assert_eq!(dm.free_device_count(), 2);
        assert_eq!(dm.lease_count(), 1);
        dm.release(&lease.auth_id).unwrap();
        assert_eq!(dm.free_device_count(), 3);
        assert_eq!(dm.lease_count(), 0);
        assert!(dm.release(&lease.auth_id).is_err());
    }

    #[test]
    fn concurrent_clients_get_distinct_devices() {
        // The Figure 6 scenario: four clients each requesting one GPU of a
        // 4-GPU server must end up on four different devices.
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("gpuserver", "gpuserver", vec![gpu(1), gpu(2), gpu(3), gpu(4)], None);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            let (lease, _) =
                dm.assign_shares(&format!("client-{i}"), &[gpu_requirement()], 0).unwrap();
            for d in lease.physical_devices() {
                assert!(seen.insert(d), "device {d:?} assigned twice");
            }
        }
        // A fifth whole-device client is rejected by admission control.
        assert!(matches!(
            dm.assign_shares("client-4", &[gpu_requirement()], 0),
            Err(DevMgrError::Saturated(_))
        ));
    }

    #[test]
    fn attribute_constraints_are_respected() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("srv", "srv", vec![gpu(1), cpu(2)], None);
        let req = ShareRequest::whole_device(
            1,
            vec![("TYPE".into(), "CPU".into()), ("VENDOR".into(), "Intel".into())],
        );
        let (lease, _) = dm.assign_shares("c", &[req], 0).unwrap();
        assert_eq!(lease.physical_devices(), vec![(0, 2)]);
        // Requesting 2 CPUs now fails (only one existed and it is taken).
        let req = ShareRequest::whole_device(2, vec![("TYPE".into(), "CPU".into())]);
        assert!(dm.assign_shares("c2", &[req], 0).is_err());
    }

    #[test]
    fn round_robin_spreads_across_servers() {
        let dm = DeviceManager::new(Strategy::RoundRobin);
        dm.register_server("a", "a", vec![gpu(1), gpu(2)], None);
        dm.register_server("b", "b", vec![gpu(10), gpu(11)], None);
        let (l1, _) = dm.assign_shares("c1", &[gpu_requirement()], 0).unwrap();
        let (l2, _) = dm.assign_shares("c2", &[gpu_requirement()], 0).unwrap();
        assert_ne!(
            l1.physical_devices()[0],
            l2.physical_devices()[0],
            "round robin must not reuse the same device"
        );
    }

    #[test]
    fn multi_server_lease_lists_all_servers() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "addr-a", vec![gpu(1)], None);
        dm.register_server("b", "addr-b", vec![gpu(2)], None);
        let req = ShareRequest::whole_device(2, vec![("TYPE".into(), "GPU".into())]);
        let (lease, servers) = dm.assign_shares("c", &[req], 0).unwrap();
        assert_eq!(lease.physical_devices().len(), 2);
        assert_eq!(servers, vec!["addr-a".to_string(), "addr-b".to_string()]);
    }

    #[test]
    fn reregistration_keeps_assignments() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "addr-a", vec![gpu(1)], None);
        let (lease, _) = dm.assign_shares("c", &[gpu_requirement()], 0).unwrap();
        // Daemon restarts and re-registers: device stays assigned.
        dm.register_server("a", "addr-a2", vec![gpu(1)], None);
        assert_eq!(dm.free_device_count(), 0);
        dm.release(&lease.auth_id).unwrap();
        assert_eq!(dm.free_device_count(), 1);
    }

    #[test]
    fn empty_request_is_rejected() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        assert!(dm.assign_shares("c", &[], 0).is_err());
    }

    #[test]
    fn status_counts() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1), gpu(2)], None);
        dm.assign_shares("c", &[gpu_requirement()], 0).unwrap();
        assert_eq!(dm.status(), (1, 1, 1));
    }

    // ----- fractional shares ------------------------------------------------

    #[test]
    fn fractional_shares_pack_onto_one_device() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        let (l1, _) = dm.assign_shares("c1", &[gpu_share(400, 100)], 0).unwrap();
        let (l2, _) = dm.assign_shares("c2", &[gpu_share(400, 100)], 0).unwrap();
        assert_eq!(l1.granted_millis(), 400);
        assert_eq!(l2.granted_millis(), 400);
        // Both shares live on the same physical device; the sum never
        // exceeds 100%.
        assert_eq!(l1.physical_devices(), l2.physical_devices());
        // A third client still fits (200 left), a fourth does not.
        let (l3, _) = dm.assign_shares("c3", &[gpu_share(400, 100)], 0).unwrap();
        assert_eq!(l3.granted_millis(), 200, "grant capped by remaining capacity");
        assert!(matches!(
            dm.assign_shares("c4", &[gpu_share(400, 100)], 0),
            Err(DevMgrError::Saturated(_))
        ));
    }

    #[test]
    fn memory_quotas_gate_admission() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        let mut req = gpu_share(100, 100);
        req.mem_bytes = 3 << 30;
        dm.assign_shares("c1", &[req.clone()], 0).unwrap();
        // 4 GiB device, 3 GiB taken: a second 3 GiB quota cannot fit even
        // though compute is plentiful.
        assert!(matches!(dm.assign_shares("c2", &[req], 0), Err(DevMgrError::Saturated(_))));
    }

    #[test]
    fn fair_rebalances_existing_grants_to_admit_newcomers() {
        let dm = DeviceManager::new(Strategy::Fair);
        dm.register_server("a", "a", vec![gpu(1)], None);
        let (l1, _) = dm.assign_shares("c1", &[gpu_share(1000, 100)], 0).unwrap();
        assert_eq!(l1.granted_millis(), 1000);
        // The device is full; a fair newcomer shrinks c1 instead of being
        // rejected.
        let (l2, _) = dm.assign_shares("c2", &[gpu_share(1000, 100)], 0).unwrap();
        let g1 = dm.lease(&l1.auth_id).unwrap().granted_millis();
        let g2 = l2.granted_millis();
        assert_eq!(g1 + g2, 1000, "shares still sum to the device");
        let (max, min) = (g1.max(g2) as f64, g1.min(g2) as f64);
        assert!(max / min <= 2.0, "fair split was {g1}/{g2}");
        // Floors are honoured: tenants with high floors eventually saturate.
        let mut leases = vec![l1.auth_id.clone(), l2.auth_id];
        for i in 3..=10 {
            match dm.assign_shares(&format!("c{i}"), &[gpu_share(1000, 100)], 0) {
                Ok((l, _)) => leases.push(l.auth_id),
                Err(DevMgrError::Saturated(_)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let total: u32 =
            leases.iter().filter_map(|id| dm.lease(id)).map(|l| l.granted_millis()).sum();
        assert!(total <= 1000, "oversubscribed: {total}");
    }

    #[test]
    fn priority_preempts_lower_priority_leases() {
        let dm = DeviceManager::new(Strategy::Priority);
        dm.register_server("a", "a", vec![gpu(1)], None);
        dm.register_server("b", "b", vec![gpu(2)], None);
        // A low-priority tenant fills device 1 (FirstFit placement).
        let (low, _) = dm.assign_shares("low", &[gpu_share(1000, 200)], 0).unwrap();
        assert_eq!(low.granted_millis(), 1000);
        // A high-priority tenant wanting a whole device shrinks the victim
        // to its floor — and the victim's share survives at 200 on some
        // device.
        let (high, _) = dm.assign_shares("high", &[gpu_share(800, 800)], 5).unwrap();
        assert_eq!(high.granted_millis(), 800);
        let low_now = dm.lease(&low.auth_id).unwrap();
        assert!(low_now.granted_millis() >= 200, "victim shrunk below its floor");
        // Total allocation on device 1 stays within capacity.
        let total: u32 = dm
            .leases()
            .iter()
            .flat_map(|l| l.virtual_devices.clone())
            .filter(|vd| vd.server == 0 && vd.device == 1)
            .map(|vd| vd.compute_millis)
            .sum();
        assert!(total <= 1000, "device 1 oversubscribed: {total}");
        // An equal-priority newcomer cannot preempt the high tenant once
        // everything is full.
        let (_, _) = dm.assign_shares("mid", &[gpu_share(1000, 1000)], 5).unwrap();
        assert!(matches!(
            dm.assign_shares("late", &[gpu_share(1000, 1000)], 5),
            Err(DevMgrError::Saturated(_))
        ));
    }

    #[test]
    fn drain_migrates_shares_and_empties_the_server() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        dm.register_server("b", "b", vec![gpu(2)], None);
        let (lease, _) = dm.assign_shares("c", &[gpu_share(500, 100)], 0).unwrap();
        assert_eq!(lease.physical_devices(), vec![(0, 1)]);
        let events = dm.drain_server("a").unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].moved, vec![(1, 2)]);
        assert!(!events[0].degraded);
        assert_eq!(dm.server_load("a"), Some(0), "drained server is empty");
        assert_eq!(dm.lease(&lease.auth_id).unwrap().physical_devices(), vec![(1, 2)]);
        // No new placements land on a draining server.
        let (l2, _) = dm.assign_shares("c2", &[gpu_share(100, 100)], 0).unwrap();
        assert_eq!(l2.physical_devices()[0].0, 1);
        dm.remove_server("a").unwrap();
        assert_eq!(dm.server_health()[0], ("a".to_string(), false));
    }

    #[test]
    fn drain_without_capacity_keeps_shares_in_place() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        let (lease, _) = dm.assign_shares("c", &[gpu_share(500, 100)], 0).unwrap();
        let events = dm.drain_server("a").unwrap();
        // Nowhere to go: the share stays, the drain reports it.
        assert_eq!(events.len(), 1);
        assert!(events[0].moved.is_empty());
        assert!(events[0].degraded);
        assert_eq!(dm.server_load("a"), Some(500));
        assert_eq!(dm.lease(&lease.auth_id).unwrap().physical_devices(), vec![(0, 1)]);
    }

    #[test]
    fn migrate_lease_moves_to_another_node() {
        let dm = DeviceManager::new(Strategy::FirstFit);
        dm.register_server("a", "a", vec![gpu(1)], None);
        dm.register_server("b", "b", vec![gpu(2)], None);
        let (lease, _) = dm.assign_shares("c", &[gpu_share(600, 100)], 0).unwrap();
        assert_eq!(lease.physical_devices(), vec![(0, 1)]);
        let event = dm.migrate_lease(&lease.auth_id).unwrap();
        assert_eq!(event.moved, vec![(1, 2)]);
        assert_eq!(dm.lease(&lease.auth_id).unwrap().physical_devices(), vec![(1, 2)]);
        // With no other node, migration is refused (not silently dropped).
        let dm2 = DeviceManager::new(Strategy::FirstFit);
        dm2.register_server("only", "only", vec![gpu(1)], None);
        let (l2, _) = dm2.assign_shares("c", &[gpu_share(600, 100)], 0).unwrap();
        assert!(matches!(dm2.migrate_lease(&l2.auth_id), Err(DevMgrError::Saturated(_))));
    }
}
