//! Client-side helpers: requesting devices from the device manager and
//! wiring the assignment into a dOpenCL client (Section IV-B, Figure 2).

use crate::config::{DeviceRequestConfig, DeviceRequirement};
use crate::error::{DevMgrError, Result};
use crate::protocol::{
    DmGrant, DmNotification, DmRequest, DmResponse, DmShareRequest, LeaseChangeReason,
};
use crate::vdev::FULL_COMPUTE_MILLIS;
use dopencl::Client;
use gcf::rpc::{Endpoint, EndpointHandler, NullHandler};
use gcf::transport::Transport;
use gcf::wire::{Decode, Encode};
use std::sync::Arc;

/// The result of an assignment request: the lease's authentication id plus
/// the servers the client should connect to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Lease authentication id to present to the daemons.
    pub auth_id: String,
    /// Addresses of the servers owning the assigned devices.
    pub servers: Vec<String>,
    /// The device-manager address (needed later to release the lease).
    pub device_manager: String,
}

fn dm_endpoint(transport: &Arc<dyn Transport>, dm_address: &str) -> Result<Arc<Endpoint>> {
    let conn = transport.connect(dm_address)?;
    Ok(Endpoint::new(conn, Arc::new(NullHandler), "devmgr-client"))
}

fn dm_call(endpoint: &Arc<Endpoint>, request: DmRequest) -> Result<DmResponse> {
    let bytes = endpoint.call(request.to_bytes())?;
    DmResponse::from_bytes(&bytes).map_err(|e| DevMgrError::Protocol(e.to_string()))
}

/// Reconstruct the typed error a remote device manager reported (the wire
/// carries only a message; the [`DevMgrError`] Display prefixes
/// disambiguate).
fn remote_error(message: String) -> DevMgrError {
    if let Some(m) = message.strip_prefix("cluster saturated: ") {
        DevMgrError::Saturated(m.to_string())
    } else if let Some(m) = message.strip_prefix("unknown lease: ") {
        DevMgrError::UnknownLease(m.to_string())
    } else if let Some(m) = message.strip_prefix("no matching devices: ") {
        DevMgrError::NoMatchingDevices(m.to_string())
    } else {
        DevMgrError::NoMatchingDevices(message)
    }
}

/// Step 1 + 3a of Figure 2: request whole devices and return the lease.
/// Each requirement asks for `count` whole-device shares (1000 millis,
/// floor 1000, no memory quota) at priority 0.
pub fn request_assignment(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    client_name: &str,
    requirements: &[DeviceRequirement],
) -> Result<Assignment> {
    let shares: Vec<DmShareRequest> = requirements
        .iter()
        .map(|d| DmShareRequest {
            count: d.count,
            attributes: d.attributes.clone(),
            compute_millis: FULL_COMPUTE_MILLIS,
            min_millis: FULL_COMPUTE_MILLIS,
            mem_bytes: 0,
        })
        .collect();
    request_shares(transport, dm_address, client_name, 0, &shares)
}

/// Request *fractional* shares from the resource manager: each
/// [`DmShareRequest`] names attribute constraints plus a compute share in
/// millis (with a floor) and a memory quota.  `priority` orders leases
/// under [`crate::Strategy::Priority`] and weights them under
/// [`crate::Strategy::Fair`].
pub fn request_shares(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    client_name: &str,
    priority: u32,
    shares: &[DmShareRequest],
) -> Result<Assignment> {
    let endpoint = dm_endpoint(transport, dm_address)?;
    let response = dm_call(
        &endpoint,
        DmRequest::RequestShares {
            client_name: client_name.to_string(),
            priority,
            shares: shares.to_vec(),
        },
    )?;
    endpoint.close();
    match response {
        DmResponse::Assignment { auth_id, servers } => {
            Ok(Assignment { auth_id, servers, device_manager: dm_address.to_string() })
        }
        DmResponse::Error { message } => Err(remote_error(message)),
        other => Err(DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// Fetch the current grants of a lease (server address, device, quotas) —
/// how a client observes migrations and shrinks when polling rather than
/// watching.
pub fn get_lease(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    auth_id: &str,
) -> Result<Vec<DmGrant>> {
    let endpoint = dm_endpoint(transport, dm_address)?;
    let response = dm_call(&endpoint, DmRequest::GetLease { auth_id: auth_id.to_string() })?;
    endpoint.close();
    match response {
        DmResponse::LeaseInfo { grants, .. } => Ok(grants),
        DmResponse::Error { message } => Err(remote_error(message)),
        other => Err(DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// A lease-change notice pushed to a watching client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseChangeNotice {
    /// The affected lease.
    pub auth_id: String,
    /// The lease's server addresses *after* the change (empty when the
    /// lease was released/revoked entirely).
    pub servers: Vec<String>,
    /// Why the lease changed.
    pub reason: LeaseChangeReason,
}

struct WatchHandler {
    callback: Box<dyn Fn(LeaseChangeNotice) + Send + Sync>,
}

impl WatchHandler {
    fn apply(&self, payload: &[u8]) {
        if let Ok(DmNotification::LeaseChanged { auth_id, servers, reason }) =
            DmNotification::from_bytes(payload)
        {
            (self.callback)(LeaseChangeNotice { auth_id, servers, reason });
        }
    }
}

impl EndpointHandler for WatchHandler {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        self.apply(payload);
        DmResponse::Ok.to_bytes()
    }

    fn handle_notification(&self, payload: &[u8]) {
        self.apply(payload);
    }
}

/// A live lease watch; dropping it closes the connection and stops the
/// callbacks.
pub struct LeaseWatch {
    endpoint: Arc<Endpoint>,
}

impl Drop for LeaseWatch {
    fn drop(&mut self) {
        self.endpoint.close();
    }
}

/// Subscribe to lease-change pushes for `auth_id`: `callback` runs (on the
/// watch connection's receiver thread) every time the resource manager
/// migrates, shrinks, or revokes the lease.  Clients use this to reconnect
/// to the lease's new servers and re-validate buffers through the
/// coherence directory.  Keep the returned [`LeaseWatch`] alive for as
/// long as the subscription should last.
pub fn watch_lease(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    auth_id: &str,
    callback: impl Fn(LeaseChangeNotice) + Send + Sync + 'static,
) -> Result<LeaseWatch> {
    let conn = transport.connect(dm_address)?;
    let handler = Arc::new(WatchHandler { callback: Box::new(callback) });
    let endpoint = Endpoint::new(conn, handler, "devmgr-watch");
    let response = dm_call(&endpoint, DmRequest::WatchLease { auth_id: auth_id.to_string() })?;
    match response {
        DmResponse::Ok => Ok(LeaseWatch { endpoint }),
        DmResponse::Error { message } => {
            endpoint.close();
            Err(remote_error(message))
        }
        other => {
            endpoint.close();
            Err(DevMgrError::Protocol(format!("unexpected response {other:?}")))
        }
    }
}

/// Administrative: drain a server (no new placements; shares migrate off
/// as capacity allows) ahead of a graceful leave.
pub fn drain_server(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    server_name: &str,
) -> Result<()> {
    admin_call(transport, dm_address, DmRequest::DrainServer { server_name: server_name.into() })
}

/// Administrative: remove a server from the cluster; remaining shares are
/// failed over like a crash.
pub fn remove_server(
    transport: &Arc<dyn Transport>,
    dm_address: &str,
    server_name: &str,
) -> Result<()> {
    admin_call(transport, dm_address, DmRequest::RemoveServer { server_name: server_name.into() })
}

fn admin_call(transport: &Arc<dyn Transport>, dm_address: &str, request: DmRequest) -> Result<()> {
    let endpoint = dm_endpoint(transport, dm_address)?;
    let response = dm_call(&endpoint, request)?;
    endpoint.close();
    match response {
        DmResponse::Ok => Ok(()),
        DmResponse::Error { message } => Err(DevMgrError::Protocol(message)),
        other => Err(DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// Release a lease (sent by the client when its application finishes).
pub fn release_assignment(transport: &Arc<dyn Transport>, assignment: &Assignment) -> Result<()> {
    let endpoint = dm_endpoint(transport, &assignment.device_manager)?;
    let response =
        dm_call(&endpoint, DmRequest::ReleaseLease { auth_id: assignment.auth_id.clone() })?;
    endpoint.close();
    match response {
        DmResponse::Ok => Ok(()),
        DmResponse::Error { message } => Err(DevMgrError::UnknownLease(message)),
        other => Err(DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

/// The automatic device request mechanism (Section IV-B): parse the XML
/// configuration, request the devices, present the authentication id, and
/// connect the client to the assigned servers (steps 4–5 of Figure 2).
///
/// Returns the assignment so the caller can later release it.
pub fn connect_via_device_manager(
    client: &Client,
    transport: &Arc<dyn Transport>,
    config: &DeviceRequestConfig,
) -> Result<Assignment> {
    let assignment =
        request_assignment(transport, &config.device_manager, "dopencl-client", &config.devices)?;
    client.set_auth_id(Some(assignment.auth_id.clone()));
    for server in &assignment.servers {
        client.connect_server(server)?;
    }
    Ok(assignment)
}

/// Query the device manager's status counters (diagnostics).
pub fn query_status(transport: &Arc<dyn Transport>, dm_address: &str) -> Result<(u32, u32, u32)> {
    let endpoint = dm_endpoint(transport, dm_address)?;
    let response = dm_call(&endpoint, DmRequest::GetStatus)?;
    endpoint.close();
    match response {
        DmResponse::Status { free_devices, assigned_devices, leases } => {
            Ok((free_devices, assigned_devices, leases))
        }
        other => Err(DevMgrError::Protocol(format!("unexpected response {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_device_request;
    use crate::managed::ManagedDaemon;
    use crate::manager::{DeviceManager, DeviceManagerServer, Strategy};
    use dopencl::LocalCluster;
    use gcf::LinkModel;
    use vocl::Platform;

    /// Full Figure 2 flow: daemon registers with the device manager, the
    /// client requests a GPU through the XML config, connects with the lease
    /// id, and only sees its assigned device.
    #[test]
    fn end_to_end_device_manager_flow() {
        let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
        let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());

        // Device manager.
        let dm = DeviceManager::new(Strategy::FirstFit);
        let dm_server =
            DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();

        // GPU server daemon in managed mode.
        let platform = Platform::gpu_server();
        let managed = ManagedDaemon::connect(
            Arc::clone(&transport),
            dm_server.address(),
            "gpuserver",
            "gpuserver",
            platform.devices(),
        )
        .unwrap();
        cluster.add_node_with_policy("gpuserver", &platform, managed.policy()).unwrap();

        // Client requests one GPU via the XML configuration file.
        let xml = r#"
            <devmngr>devmngr</devmngr>
            <devices>
              <device>
                <attribute name="TYPE">GPU</attribute>
              </device>
            </devices>
        "#;
        let config = parse_device_request(xml).unwrap();
        let client = cluster.detached_client("app", gcf::SimClock::new());
        let assignment = connect_via_device_manager(&client, &transport, &config).unwrap();
        assert_eq!(assignment.servers, vec!["gpuserver".to_string()]);

        // Only the single assigned GPU is visible, not all five devices.
        let devices = client.devices();
        assert_eq!(devices.len(), 1);
        assert_eq!(devices[0].kind(), dopencl::DeviceType::Gpu);

        // The manager shows one lease; after release everything is free.
        assert_eq!(query_status(&transport, dm_server.address()).unwrap(), (4, 1, 1));
        release_assignment(&transport, &assignment).unwrap();
        assert_eq!(query_status(&transport, dm_server.address()).unwrap(), (5, 0, 0));
    }

    #[test]
    fn assignment_failure_when_nothing_matches() {
        let transport: Arc<dyn gcf::Transport> =
            Arc::new(gcf::transport::inproc::InprocTransport::new());
        let dm = DeviceManager::new(Strategy::FirstFit);
        let dm_server = DeviceManagerServer::start(dm, Arc::clone(&transport), "devmngr").unwrap();
        let result = request_assignment(
            &transport,
            dm_server.address(),
            "client",
            &[DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }],
        );
        assert!(matches!(result, Err(DevMgrError::NoMatchingDevices(_))));
    }
}
