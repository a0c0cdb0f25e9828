//! Managed mode: the daemon-side integration with the device manager
//! (Section IV-A of the paper).
//!
//! A daemon started in managed mode connects to the device manager,
//! registers its devices, and from then on only returns those devices to a
//! client that the device manager has associated with the client's lease
//! authentication id.  When a client disconnects (normally or abnormally),
//! the daemon reports the invalidated authentication id so the devices
//! return to the free set (Section IV-C).

use crate::error::Result;
use crate::protocol::{DmDevice, DmNotification, DmRequest, DmResponse};
use dopencl::daemon::AccessPolicy;
use gcf::rpc::{Endpoint, EndpointHandler};
use gcf::transport::Transport;
use gcf::wire::{Decode, Encode};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vocl::{Device, DeviceInfoParam, DeviceInfoValue};

/// Convert a `vocl` device into its device-manager registration record.
pub fn describe_device(device: &Device) -> DmDevice {
    let compute_units = match device.info(DeviceInfoParam::MaxComputeUnits) {
        DeviceInfoValue::UInt(v) => v as u32,
        _ => 0,
    };
    DmDevice {
        remote_id: device.id(),
        name: device.name().to_string(),
        vendor: device.vendor().to_string(),
        device_type: device.device_type().to_string(),
        compute_units,
        global_mem_bytes: device.profile().global_mem_bytes,
    }
}

/// The quota a lease holds on one local device: (compute millis, memory
/// bytes).  A whole device is (1000, 0).
pub type DeviceQuota = (u32, u64);

struct LeaseTable {
    /// auth id → device id → quota this lease may use on this server.
    assignments: HashMap<String, HashMap<u64, DeviceQuota>>,
}

struct PolicyNotificationHandler {
    table: Arc<Mutex<LeaseTable>>,
}

impl PolicyNotificationHandler {
    fn apply(&self, payload: &[u8]) -> bool {
        let Ok(notification) = DmNotification::from_bytes(payload) else { return false };
        let mut table = self.table.lock();
        match notification {
            DmNotification::AssignShares { auth_id, shares } => {
                let entry = table.assignments.entry(auth_id).or_default();
                for quota in shares {
                    entry.insert(quota.device_id, (quota.compute_millis, quota.mem_bytes));
                }
            }
            DmNotification::UpdateQuota { auth_id, quotas } => {
                let entry = table.assignments.entry(auth_id.clone()).or_default();
                for quota in quotas {
                    if quota.compute_millis == 0 {
                        entry.remove(&quota.device_id);
                    } else {
                        entry.insert(quota.device_id, (quota.compute_millis, quota.mem_bytes));
                    }
                }
                if table.assignments.get(&auth_id).map(|e| e.is_empty()).unwrap_or(false) {
                    table.assignments.remove(&auth_id);
                }
            }
            DmNotification::RevokeLease { auth_id } => {
                table.assignments.remove(&auth_id);
            }
            // Lease-change notices are addressed to watching *clients*; a
            // daemon can see one when it shares an endpoint in tests —
            // nothing to update locally (the quota pushes carry the facts).
            DmNotification::LeaseChanged { .. } => {}
        }
        true
    }
}

impl EndpointHandler for PolicyNotificationHandler {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        // The device manager pushes lease installs as *calls* so that the
        // client cannot observe a daemon that does not yet know its auth id
        // (the reply acknowledges that the table is updated).
        if self.apply(payload) {
            DmResponse::Ok.to_bytes()
        } else {
            DmResponse::Error { message: "malformed lease update".into() }.to_bytes()
        }
    }

    fn handle_notification(&self, payload: &[u8]) {
        // Quota updates and revocations arrive as one-way notifications:
        // they need no acknowledgement, and a revocation may be sent from
        // this daemon's own session receiver thread (ReportDisconnect),
        // where a call could never see its reply.
        self.apply(payload);
    }
}

/// A handle to the managed-mode machinery of one daemon: the policy to pass
/// to [`dopencl::Daemon::start`] plus the connection to the device manager.
pub struct ManagedDaemon {
    policy: Arc<ManagedPolicyShared>,
}

/// Internal shared state between [`ManagedDaemon`] and the policy handed to
/// the daemon.
struct ManagedPolicyShared {
    table: Arc<Mutex<LeaseTable>>,
    endpoint: Arc<Endpoint>,
    server_name: String,
}

impl AccessPolicy for ManagedPolicyShared {
    fn visible_devices(&self, auth_id: Option<&str>, all: &[Arc<Device>]) -> Vec<Arc<Device>> {
        let Some(auth_id) = auth_id else { return Vec::new() };
        let table = self.table.lock();
        let Some(allowed) = table.assignments.get(auth_id) else { return Vec::new() };
        all.iter().filter(|d| allowed.contains_key(&d.id())).cloned().collect()
    }

    fn managed(&self) -> bool {
        true
    }

    fn client_disconnected(&self, auth_id: Option<&str>) {
        if let Some(auth_id) = auth_id {
            // Only report leases this daemon still hosts.  After a
            // migration the client legitimately disconnects from the old
            // node — whose quota entry the manager already cleared — and
            // reporting that would release the lease out from under the
            // new node.
            if self.table.lock().assignments.remove(auth_id).is_none() {
                return;
            }
            let request = DmRequest::ReportDisconnect { auth_id: auth_id.to_string() };
            let _ = self.endpoint.call(request.to_bytes());
        }
    }
}

impl ManagedDaemon {
    /// Connect to the device manager at `dm_address`, register this server's
    /// `devices`, and return the managed-mode handle.
    ///
    /// `server_address` is the address *clients* should use to reach the
    /// daemon (what the device manager returns in a lease's server list).
    pub fn connect(
        transport: Arc<dyn Transport>,
        dm_address: &str,
        server_name: &str,
        server_address: &str,
        devices: &[Arc<Device>],
    ) -> Result<ManagedDaemon> {
        let table = Arc::new(Mutex::new(LeaseTable { assignments: HashMap::new() }));
        let conn = transport.connect(dm_address)?;
        let handler = Arc::new(PolicyNotificationHandler { table: Arc::clone(&table) });
        let endpoint = Endpoint::new(conn, handler, format!("managed-{server_name}"));

        let request = DmRequest::RegisterServer {
            server_name: server_name.to_string(),
            address: server_address.to_string(),
            devices: devices.iter().map(|d| describe_device(d)).collect(),
        };
        let response = DmResponse::from_bytes(&endpoint.call(request.to_bytes())?)
            .map_err(|e| crate::DevMgrError::Protocol(e.to_string()))?;
        match response {
            DmResponse::Ok => {}
            DmResponse::Error { message } => return Err(crate::DevMgrError::Protocol(message)),
            other => {
                return Err(crate::DevMgrError::Protocol(format!("unexpected response {other:?}")))
            }
        }
        Ok(ManagedDaemon {
            policy: Arc::new(ManagedPolicyShared {
                table,
                endpoint,
                server_name: server_name.to_string(),
            }),
        })
    }

    /// The access policy to pass to [`dopencl::Daemon::start`].
    pub fn policy(&self) -> Arc<dyn AccessPolicy> {
        Arc::clone(&self.policy) as Arc<dyn AccessPolicy>
    }

    /// The quota (compute millis, memory bytes) `auth_id` currently holds
    /// on local device `device_id`, or `None` when the lease has no share
    /// there.  This is how a daemon enforces fractional shares: the compute
    /// part throttles scheduling, the memory part caps allocations.
    pub fn lease_quota(&self, auth_id: &str, device_id: u64) -> Option<DeviceQuota> {
        self.policy.table.lock().assignments.get(auth_id)?.get(&device_id).copied()
    }

    /// Send one liveness beacon to the device manager (Section IV-C).  The
    /// manager marks this server down — and fails its leases over — after
    /// too many missed beats.  Most callers want the periodic
    /// [`ManagedDaemon::start_heartbeat`] timer instead; this single-shot
    /// form remains for tests that drive the health clock by hand.
    pub fn send_heartbeat(&self) -> Result<()> {
        beat(&self.policy)
    }

    /// Start a background timer that sends a heartbeat every `interval`
    /// until the returned [`HeartbeatTimer`] is dropped.
    ///
    /// This is what a daemon main loop installs right after
    /// [`ManagedDaemon::connect`]: with the timer running, the device
    /// manager's [`crate::DeviceManager::check_health`] sweeps never mark a
    /// live daemon down, without anyone hand-feeding `send_heartbeat`.
    /// Send failures are ignored — a device manager that restarts sees the
    /// next beat after this server re-registers.
    pub fn start_heartbeat(&self, interval: std::time::Duration) -> HeartbeatTimer {
        let policy = Arc::clone(&self.policy);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name(format!("heartbeat-{}", self.policy.server_name))
            .spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let _ = beat(&policy);
                    }
                    _ => return,
                }
            })
            .expect("spawn heartbeat thread");
        HeartbeatTimer { stop: stop_tx, handle: Some(handle) }
    }
}

fn beat(policy: &ManagedPolicyShared) -> Result<()> {
    let request = DmRequest::Heartbeat { server_name: policy.server_name.clone() };
    let response = DmResponse::from_bytes(&policy.endpoint.call(request.to_bytes())?)
        .map_err(|e| crate::DevMgrError::Protocol(e.to_string()))?;
    match response {
        DmResponse::Ok => Ok(()),
        DmResponse::Error { message } => Err(crate::DevMgrError::Protocol(message)),
        other => Err(crate::DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// Guard for a running heartbeat timer; dropping it stops the beats
/// promptly (the background thread is woken and joined).
#[derive(Debug)]
pub struct HeartbeatTimer {
    stop: std::sync::mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HeartbeatTimer {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{DeviceManager, DeviceManagerServer, Strategy};
    use crate::vdev::ShareRequest;
    use gcf::transport::inproc::InprocTransport;
    use vocl::{DeviceProfile, DeviceType, Platform};

    #[test]
    fn managed_policy_filters_by_lease() {
        let transport = InprocTransport::new();
        let dm = DeviceManager::new(Strategy::FirstFit);
        let dm_server =
            DeviceManagerServer::start(Arc::clone(&dm), Arc::new(transport.clone()), "devmngr")
                .unwrap();

        let platform = Platform::gpu_server();
        let managed = ManagedDaemon::connect(
            Arc::new(transport.clone()),
            dm_server.address(),
            "gpuserver",
            "gpuserver",
            platform.devices(),
        )
        .unwrap();
        let policy = managed.policy();
        assert!(policy.managed());
        assert_eq!(dm.free_device_count(), 5);

        // Without a lease nothing is visible.
        assert!(policy.visible_devices(None, platform.devices()).is_empty());
        assert!(policy.visible_devices(Some("bogus"), platform.devices()).is_empty());

        // Assign one GPU; the notification updates the policy's table.
        let (lease, servers) = dm
            .assign_shares(
                "client-a",
                &[ShareRequest::whole_device(1, vec![("TYPE".into(), "GPU".into())])],
                0,
            )
            .unwrap();
        assert_eq!(servers, vec!["gpuserver".to_string()]);
        // The lease push is synchronous: once assign_shares() returns, the daemon
        // knows the auth id.
        let visible = policy.visible_devices(Some(&lease.auth_id), platform.devices());
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].device_type(), DeviceType::Gpu);

        // Abnormal disconnect: the policy reports it and the device frees up.
        policy.client_disconnected(Some(&lease.auth_id));
        assert_eq!(dm.free_device_count(), 5);
        assert!(policy.visible_devices(Some(&lease.auth_id), platform.devices()).is_empty());
    }

    /// With the periodic heartbeat timer installed, a live daemon survives
    /// the device manager's background health sweeps indefinitely; once the
    /// timer is dropped, the sweeps mark the silent server down.  No test
    /// code feeds `send_heartbeat` or `tick` by hand.
    #[test]
    fn heartbeat_timer_keeps_a_live_daemon_healthy() {
        use std::time::Duration;

        let transport = InprocTransport::new();
        let dm = DeviceManager::new(Strategy::FirstFit);
        let dm_server =
            DeviceManagerServer::start(Arc::clone(&dm), Arc::new(transport.clone()), "devmngr")
                .unwrap();
        let platform = Platform::gpu_server();
        let managed = ManagedDaemon::connect(
            Arc::new(transport.clone()),
            dm_server.address(),
            "gpuserver",
            "gpuserver",
            platform.devices(),
        )
        .unwrap();

        // Beats come much faster than sweeps, with a generous miss budget,
        // so scheduling jitter cannot produce a false "down".
        let beats = managed.start_heartbeat(Duration::from_millis(2));
        let _monitor = dm.start_health_monitor(Duration::from_millis(10), 20);

        // A live daemon is never marked down: poll health across many sweep
        // intervals.
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(dm.server_health(), vec![("gpuserver".to_string(), true)]);
        }

        // Silence the daemon; the monitor must eventually mark it down.
        drop(beats);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if dm.server_health() == vec![("gpuserver".to_string(), false)] {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server was never marked down after its heartbeat timer stopped"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn fractional_shares_reach_the_daemon_quota_table() {
        use crate::vdev::ShareRequest;

        let transport = InprocTransport::new();
        let dm = DeviceManager::new(Strategy::FirstFit);
        let dm_server =
            DeviceManagerServer::start(Arc::clone(&dm), Arc::new(transport.clone()), "devmngr")
                .unwrap();
        let platform = Platform::gpu_server();
        let managed = ManagedDaemon::connect(
            Arc::new(transport.clone()),
            dm_server.address(),
            "gpuserver",
            "gpuserver",
            platform.devices(),
        )
        .unwrap();

        let share = ShareRequest {
            count: 1,
            attributes: vec![("TYPE".into(), "GPU".into())],
            compute_millis: 400,
            min_millis: 100,
            mem_bytes: 1 << 20,
        };
        let (lease, _) = dm.assign_shares("client-a", &[share], 0).unwrap();
        let (_, device_id) = lease.physical_devices()[0];
        // The install is a synchronous call: once assign_shares() returns,
        // the daemon knows the quota.
        assert_eq!(managed.lease_quota(&lease.auth_id, device_id), Some((400, 1 << 20)));
        // The fractional device is still visible to this lease only.
        let visible = managed.policy().visible_devices(Some(&lease.auth_id), platform.devices());
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].id(), device_id);

        dm.release(&lease.auth_id).unwrap();
        // Revocation is fire-and-forget; poll until the daemon drops it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while managed.lease_quota(&lease.auth_id, device_id).is_some() {
            assert!(std::time::Instant::now() < deadline, "revocation never arrived");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn describe_device_extracts_attributes() {
        let device = vocl::Device::new(DeviceType::Cpu, DeviceProfile::cpu_dual_westmere());
        let described = describe_device(&device);
        assert_eq!(described.device_type, "CPU");
        assert_eq!(described.compute_units, 24);
        assert!(described.vendor.contains("Intel"));
        assert_eq!(described.remote_id, device.id());
    }
}
