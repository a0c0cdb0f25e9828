//! Integration tests of the configuration files (Listings 2 and 3) and the
//! device-manager flow, including abnormal client termination.

use devmgr::{DeviceManager, DeviceManagerServer, DeviceRequirement, ManagedDaemon, Strategy};
use dopencl::{LinkModel, LocalCluster, SimClock};
use std::sync::Arc;
use vocl::Platform;

#[test]
fn server_config_file_connects_all_listed_servers() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("gpuserver.example.com", &Platform::test_platform(1)).unwrap();
    cluster.add_node("128.129.1.1", &Platform::test_platform(2)).unwrap();
    // The generated file mirrors Listing 2 of the paper.
    let config = cluster.server_config();
    assert!(config.contains("gpuserver.example.com"));
    let client = cluster.detached_client("configured", SimClock::new());
    let servers = client.connect_from_config(&config).unwrap();
    assert_eq!(servers.len(), 2);
    assert_eq!(client.devices().len(), 3);
}

#[test]
fn malformed_config_files_are_rejected() {
    assert!(dopencl::config::parse_server_list("bad entry with spaces").is_err());
    assert!(devmgr::parse_device_request("<devices></devices>").is_err());
}

#[test]
fn four_clients_get_four_distinct_gpus_and_a_fifth_is_rejected() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(Strategy::FirstFit);
    let dm_server =
        DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();
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

    let gpu_req =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let mut seen_devices = std::collections::HashSet::new();
    let mut assignments = Vec::new();
    // The clients must stay alive: dropping one closes its connection, the
    // daemon reports the abnormal disconnect, and the lease's GPU would
    // return to the free set before the fifth request below.
    let mut clients = Vec::new();
    for i in 0..4 {
        let client = cluster.detached_client(&format!("client-{i}"), SimClock::new());
        let assignment = devmgr::request_assignment(
            &transport,
            dm_server.address(),
            &format!("client-{i}"),
            &gpu_req,
        )
        .unwrap();
        client.set_auth_id(Some(assignment.auth_id.clone()));
        for server in &assignment.servers {
            client.connect_server(server).unwrap();
        }
        let devices = client.devices();
        assert_eq!(devices.len(), 1, "each lease exposes exactly one GPU");
        assert!(
            seen_devices.insert(devices[0].remote_id()),
            "device {} assigned twice",
            devices[0].remote_id()
        );
        assignments.push(assignment);
        clients.push(client);
    }
    // The server only has four GPUs: a fifth request must fail.
    let err = devmgr::request_assignment(&transport, dm_server.address(), "client-4", &gpu_req);
    assert!(err.is_err());

    // Releasing a lease frees its GPU for the next client.
    devmgr::release_assignment(&transport, &assignments[0]).unwrap();
    let again = devmgr::request_assignment(&transport, dm_server.address(), "client-5", &gpu_req);
    assert!(again.is_ok());
}

#[test]
fn abnormal_disconnect_returns_devices_to_the_free_set() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(Strategy::FirstFit);
    let dm_server =
        DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();
    let platform = Platform::gpu_server();
    let managed = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpuserver",
        "gpuserver",
        platform.devices(),
    )
    .unwrap();
    let policy = managed.policy();
    cluster.add_node_with_policy("gpuserver", &platform, Arc::clone(&policy)).unwrap();

    let gpu_req =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let assignment =
        devmgr::request_assignment(&transport, dm_server.address(), "crashy", &gpu_req).unwrap();
    assert_eq!(dm.free_device_count(), 4);

    // The client never sends a release message (abnormal termination); the
    // daemon reports the invalidated authentication id instead
    // (Section IV-C).
    policy.client_disconnected(Some(&assignment.auth_id));
    assert_eq!(dm.free_device_count(), 5);
    assert_eq!(dm.lease_count(), 0);
}
