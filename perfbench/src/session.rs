//! Real daemons started in-process behind TCP loopback, and the client
//! connected to them — either directly or through a device-manager lease
//! (the Section IV flow).

use crate::api::Res;
use devmgr::{Assignment, DeviceManager, DeviceManagerServer, DeviceRequirement, ManagedDaemon};
use dopencl::{AccessPolicy, Client, Daemon, DaemonStats, LinkModel, OpenAccess, SimClock};
use gcf::rpc::TrafficStats;
use gcf::transport::tcp::TcpTransport;
use gcf::Transport;
use std::sync::{Arc, OnceLock};
use vocl::{Device, Platform};

pub fn tcp() -> Arc<dyn Transport> {
    Arc::new(TcpTransport::new())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A client plus the daemons it talks to.
pub struct Session {
    pub client: Client,
    pub daemons: Vec<Arc<Daemon>>,
    managed: Option<Managed>,
}

struct Managed {
    server: Arc<DeviceManagerServer>,
    _daemons: Vec<ManagedDaemon>,
    assignment: Assignment,
}

fn start_daemon(
    name: &str,
    platform: &Platform,
    policy: Arc<dyn AccessPolicy>,
) -> Res<Arc<Daemon>> {
    Daemon::start(name, platform, tcp(), "127.0.0.1:0", policy).map_err(err)
}

fn new_client() -> Client {
    Client::new("perfbench", tcp(), LinkModel::gigabit_ethernet(), SimClock::new())
}

impl Session {
    /// Start `daemons` open-access daemons, each serving one test device,
    /// and connect a client to all of them.
    pub fn open(daemons: usize) -> Res<Session> {
        let daemons = (0..daemons)
            .map(|i| {
                start_daemon(&format!("node{i}"), &Platform::test_platform(1), Arc::new(OpenAccess))
            })
            .collect::<Res<Vec<_>>>()?;
        let client = new_client();
        for d in &daemons {
            client.connect_server(d.address()).map_err(err)?;
        }
        Ok(Session { client, daemons, managed: None })
    }

    /// Start a device manager and `daemons` managed daemons with one CPU
    /// device each, lease that many CPU devices and connect to the leased
    /// servers: `devmgr::connect_via_device_manager`,
    /// unrolled into its two steps (the same calls).
    pub fn open_managed(daemons: usize) -> Res<Session> {
        let transport = tcp();
        let manager = DeviceManager::new(devmgr::Strategy::FirstFit);
        let server = DeviceManagerServer::start(manager, Arc::clone(&transport), "127.0.0.1:0")
            .map_err(err)?;
        let mut started = Vec::new();
        let mut managed = Vec::new();
        for i in 0..daemons {
            let name = format!("node{i}");
            let platform = Platform::test_platform(1);
            // The daemon's address is only known once it listens, and the
            // device manager wants it at registration: start the daemon
            // behind a policy that is filled in right after.
            let policy = Arc::new(LatePolicy(OnceLock::new()));
            let daemon = start_daemon(&name, &platform, Arc::clone(&policy) as _)?;
            let handle = ManagedDaemon::connect(
                Arc::clone(&transport),
                server.address(),
                &name,
                daemon.address(),
                platform.devices(),
            )
            .map_err(err)?;
            let _ = policy.0.set(handle.policy());
            started.push(daemon);
            managed.push(handle);
        }
        let client = new_client();
        let requirement = DeviceRequirement {
            count: daemons as u32,
            attributes: vec![("TYPE".to_string(), "CPU".to_string())],
        };
        let assignment =
            devmgr::request_assignment(&transport, server.address(), "perfbench", &[requirement])
                .map_err(err)?;
        client.set_auth_id(Some(assignment.auth_id.clone()));
        for address in &assignment.servers {
            client.connect_server(address).map_err(err)?;
        }
        let session = Session {
            client,
            daemons: started,
            managed: Some(Managed { server, _daemons: managed, assignment }),
        };
        Ok(session)
    }

    /// Client-side wire counters summed over every server connection.
    pub fn traffic(&self) -> TrafficStats {
        self.client.traffic_stats()
    }

    /// Daemon activity counters summed over all daemons.
    pub fn daemon_stats(&self) -> DaemonStats {
        let mut sum = DaemonStats::default();
        for d in &self.daemons {
            let s = d.stats();
            sum.requests += s.requests;
            sum.kernel_launches += s.kernel_launches;
            sum.bytes_uploaded += s.bytes_uploaded;
            sum.bytes_downloaded += s.bytes_downloaded;
            sum.sessions += s.sessions;
        }
        sum
    }

    /// Release the lease (if any), drop the client and stop the daemons.
    pub fn close(self) -> Res<()> {
        if let Some(m) = &self.managed {
            devmgr::release_assignment(&tcp(), &m.assignment).map_err(err)?;
            m.server.shutdown();
        }
        drop(self.client);
        for d in &self.daemons {
            d.kill();
        }
        Ok(())
    }
}

/// An access policy installed after the daemon started.
struct LatePolicy(OnceLock<Arc<dyn AccessPolicy>>);

impl AccessPolicy for LatePolicy {
    fn visible_devices(&self, auth_id: Option<&str>, all: &[Arc<Device>]) -> Vec<Arc<Device>> {
        self.0.get().map(|p| p.visible_devices(auth_id, all)).unwrap_or_default()
    }

    fn managed(&self) -> bool {
        true
    }

    fn client_disconnected(&self, auth_id: Option<&str>) {
        if let Some(p) = self.0.get() {
            p.client_disconnected(auth_id);
        }
    }
}

/// Difference of two daemon-counter snapshots.
pub fn daemon_delta(after: DaemonStats, before: DaemonStats) -> DaemonStats {
    DaemonStats {
        requests: after.requests - before.requests,
        kernel_launches: after.kernel_launches - before.kernel_launches,
        bytes_uploaded: after.bytes_uploaded - before.bytes_uploaded,
        bytes_downloaded: after.bytes_downloaded - before.bytes_downloaded,
        sessions: after.sessions - before.sessions,
    }
}
