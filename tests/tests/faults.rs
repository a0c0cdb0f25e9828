//! Fault-tolerance integration tests: retry/backoff bounds, idempotent
//! replay against the daemon's dedup window, transparent client reconnects,
//! device-manager lease failover after missed heartbeats, and the headline
//! chaos scenarios — an OSEM reconstruction that survives a daemon
//! partition (exactly-once replay) and a daemon crash (failover to the
//! surviving server, bit-correct result).

use dopencl::coherence::CoherenceMode;
use dopencl::protocol::{BatchCommand, BatchEntry, Request, Response, WireNdRange};
use dopencl::{
    Buffer, Client, CommandQueue, Context, Event, FailoverPolicy, Kernel, LinkModel, LocalCluster,
    NdRange, SimClock, Value,
};
use gcf::retry::Backoff;
use gcf::rpc::{Endpoint, NullHandler};
use gcf::transport::faulty::ChaosTransport;
use gcf::transport::Transport;
use gcf::wire::{Decode, Encode};
use integration_tests::as_f32s;
use std::sync::Arc;
use std::time::Duration;
use vocl::Platform;
use workloads::osem::{self, OsemParams, BUILTIN_KERNEL, FLOATS_PER_EVENT};

// ---------------------------------------------------------------------------
// Retry / backoff
// ---------------------------------------------------------------------------

/// The supervisor's redial schedule grows exponentially and its jitter is
/// bounded: every delay lies in `[nominal, nominal * (1 + jitter))`, and the
/// sequence is deterministic for a given seed (no flaky sleeps in CI).
#[test]
fn backoff_delays_stay_within_jitter_bounds() {
    let policy = Backoff {
        base: Duration::from_millis(5),
        max_delay: Duration::from_secs(1),
        multiplier: 2.0,
        jitter: 0.25,
        max_attempts: 8,
        seed: 0xfa_11,
    };
    for attempt in 0..6u32 {
        let nominal = 5.0e-3 * 2.0f64.powi(attempt as i32);
        let d = policy.delay_for(attempt).as_secs_f64();
        assert!(d >= nominal, "attempt {attempt}: {d} below nominal {nominal}");
        assert!(d < nominal * 1.25, "attempt {attempt}: {d} above jitter bound");
        assert_eq!(policy.delay_for(attempt), policy.delay_for(attempt), "must be deterministic");
    }
    // Far attempts are capped at max_delay (pre-jitter).
    assert!(policy.delay_for(30).as_secs_f64() < 1.0 * 1.25);
}

// ---------------------------------------------------------------------------
// Idempotent replay at the protocol level
// ---------------------------------------------------------------------------

fn raw_call(endpoint: &Arc<Endpoint>, request: Request) -> Response {
    let bytes = endpoint.call(request.to_bytes()).unwrap();
    Response::from_bytes(&bytes).unwrap()
}

/// A client that loses the *response* to an `EnqueueBatch` reconnects and
/// replays the identical batch over a brand-new connection.  The daemon's
/// per-session dedup window recognises the command id and reports success
/// without executing the kernel a second time — exactly-once semantics
/// across connections.
#[test]
fn dedup_window_rejects_replayed_ids_across_reconnect() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let daemon = cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    let transport = cluster.transport();

    let connect = |epoch: u64| -> (Arc<Endpoint>, bool) {
        let conn = transport.connect(daemon.address()).unwrap();
        let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "raw-client");
        let Response::SessionInfo(info) = raw_call(
            &endpoint,
            Request::Hello { client_name: "replayer".into(), auth_id: None, epoch },
        ) else {
            panic!("expected session info")
        };
        (endpoint, info.resumed)
    };
    let (endpoint, resumed) = connect(0);
    assert!(!resumed);

    let Response::DeviceList { devices } = raw_call(&endpoint, Request::GetDeviceList) else {
        panic!("expected device list")
    };
    let dev = devices[0].remote_id;
    raw_call(&endpoint, Request::CreateContext { context_id: 1, devices: vec![dev] });
    raw_call(&endpoint, Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: dev });
    raw_call(
        &endpoint,
        Request::CreateProgramWithSource {
            program_id: 3,
            context_id: 1,
            source: "__kernel void noop() { }".into(),
        },
    );
    raw_call(&endpoint, Request::BuildProgram { program_id: 3 });
    raw_call(&endpoint, Request::CreateKernel { kernel_id: 4, program_id: 3, name: "noop".into() });

    let batch = || Request::EnqueueBatch {
        entries: vec![BatchEntry {
            command_id: 42,
            queue_id: 2,
            event_id: 10,
            wait_events: vec![],
            command: BatchCommand::NdRange { kernel_id: 4, range: WireNdRange(NdRange::linear(8)) },
        }],
    };
    let Response::BatchEnqueued { statuses, .. } = raw_call(&endpoint, batch()) else {
        panic!("expected batch response")
    };
    assert_eq!(statuses[0].code, 0);
    assert_eq!(daemon.stats().kernel_launches, 1);

    // The response was "lost": redial, resume the session, replay verbatim.
    endpoint.abort();
    let (endpoint2, resumed) = connect(1);
    assert!(resumed, "the daemon must hand back the parked session");
    let Response::BatchEnqueued { statuses, .. } = raw_call(&endpoint2, batch()) else {
        panic!("expected batch response")
    };
    assert_eq!(statuses[0].code, 0, "a replayed entry still reports success");
    assert_eq!(daemon.stats().kernel_launches, 1, "replay must not re-execute");
    let Response::SessionInfo(info) = raw_call(&endpoint2, Request::GetSessionInfo) else {
        panic!("expected session info")
    };
    assert_eq!((info.dedup_admitted, info.dedup_replayed), (1, 1));
}

// ---------------------------------------------------------------------------
// Client reconnect / re-handshake
// ---------------------------------------------------------------------------

/// When the daemon drops every connection (network partition), the client's
/// connection supervisor re-dials, re-handshakes with a bumped session epoch
/// and the same authentication id, and in-progress work continues without
/// the application noticing.
#[test]
fn reconnect_rehandshake_restores_auth_id_and_bumps_epoch() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let daemon = cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    let client = cluster.detached_client("rejoiner", SimClock::new());
    client.set_auth_id(Some("lease-77".into()));
    let server = client.connect_server(daemon.address()).unwrap();

    let info = client.session_info(server).unwrap();
    assert_eq!(info.auth_id.as_deref(), Some("lease-77"));
    assert_eq!(info.epoch, 0);

    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    queue.write_buffer(&buffer, &[7u8; 64]).blocking().submit().unwrap();

    daemon.drop_connections();

    // The next operations ride through the supervisor's reconnect; the
    // remote objects survived inside the daemon's parked session.
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, vec![7u8; 64]);

    let info = client.session_info(server).unwrap();
    assert_eq!(info.auth_id.as_deref(), Some("lease-77"), "auth id survives the re-handshake");
    assert!(info.epoch >= 1, "reconnecting must bump the session epoch");
    assert!(client.traffic_stats().reconnects >= 1);
}

// ---------------------------------------------------------------------------
// Device-manager heartbeats and lease failover
// ---------------------------------------------------------------------------

/// A managed server that stops sending heartbeats is marked down and its
/// leased devices fail over to same-type devices on a healthy server
/// (Section IV-C); a later heartbeat revives the server and its unassigned
/// devices rejoin the free set.
#[test]
fn devmgr_reclaims_leases_after_missed_heartbeats() {
    use devmgr::{DeviceManager, DeviceManagerServer, DeviceRequirement, ManagedDaemon};

    let transport: Arc<dyn Transport> = Arc::new(gcf::transport::inproc::InprocTransport::new());
    let dm = DeviceManager::new(devmgr::Strategy::FirstFit);
    let dm_server =
        DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();
    let platform_a = Platform::gpu_server();
    let platform_b = Platform::gpu_server();
    let _managed_a = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpu-a",
        "gpu-a",
        platform_a.devices(),
    )
    .unwrap();
    let managed_b = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpu-b",
        "gpu-b",
        platform_b.devices(),
    )
    .unwrap();

    let gpu_req =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let assignment =
        devmgr::request_assignment(&transport, dm_server.address(), "patient", &gpu_req).unwrap();
    // FirstFit lands the lease on server 0 (gpu-a); each gpu_server
    // platform registers 4 GPUs + 1 CPU, so 9 of the 10 devices stay free.
    assert_eq!(dm.leases()[0].physical_devices()[0].0, 0);
    assert_eq!(dm.free_device_count(), 9);

    // gpu-b keeps beating, gpu-a goes silent for three ticks.
    for _ in 0..3 {
        dm.tick();
        managed_b.send_heartbeat().unwrap();
    }
    let events = dm.check_health(1);
    assert_eq!(events.len(), 1, "exactly one lease fails over");
    assert_eq!(events[0].auth_id, assignment.auth_id);
    assert!(!events[0].degraded, "gpu-b has a free GPU of the same type");
    assert_eq!(events[0].moved, vec![(1, events[0].moved[0].1)]);
    assert_eq!(dm.server_health(), vec![("gpu-a".to_string(), false), ("gpu-b".to_string(), true)]);
    // The lease now lives entirely on gpu-b; gpu-a's devices left the free
    // set with it.
    let leases = dm.leases();
    assert_eq!(leases.len(), 1);
    assert!(leases[0].physical_devices().iter().all(|(server, _)| *server == 1));
    assert_eq!(dm.free_device_count(), 4);

    // A second sweep is idempotent: nothing newly down, nothing moves.
    assert!(dm.check_health(1).is_empty());

    // gpu-a comes back: its (now unleased) devices rejoin the free set.
    assert!(dm.heartbeat("gpu-a"));
    assert_eq!(dm.server_health(), vec![("gpu-a".to_string(), true), ("gpu-b".to_string(), true)]);
    assert_eq!(dm.free_device_count(), 9);
}

/// The degraded failover path: when the dead node's lease has no same-type
/// replacement anywhere, the lease is revoked rather than moved — and a
/// server already marked down never re-triggers failover on later sweeps,
/// no matter how many health ticks pass.
#[test]
fn down_server_never_retriggers_failover_and_degraded_leases_are_revoked() {
    use devmgr::{DeviceManager, DmDevice, ShareRequest};

    let device = |id: u64, device_type: &str| DmDevice {
        remote_id: id,
        name: format!("{device_type} {id}"),
        vendor: "ACME".into(),
        device_type: device_type.into(),
        compute_units: 16,
        global_mem_bytes: 4 << 30,
    };
    let dm = DeviceManager::new(devmgr::Strategy::FirstFit);
    dm.register_server("gpu-node", "gpu-node", vec![device(0, "GPU")], None);
    dm.register_server("cpu-node", "cpu-node", vec![device(1, "CPU")], None);
    let (lease, _) = dm
        .assign_shares(
            "tenant",
            &[ShareRequest::whole_device(1, vec![("TYPE".into(), "GPU".into())])],
            1,
        )
        .unwrap();

    // The GPU node goes silent; the CPU-only node keeps beating.
    for _ in 0..3 {
        dm.tick();
        dm.heartbeat("cpu-node");
    }
    let events = dm.check_health(1);
    assert_eq!(events.len(), 1);
    assert!(events[0].degraded, "no same-type replacement device exists");
    assert!(events[0].moved.is_empty(), "nothing to move the share to");
    assert!(dm.lease(&lease.auth_id).is_none(), "the unmovable lease is revoked");

    // However long the server stays down, it never fails over again.
    for _ in 0..5 {
        dm.tick();
        dm.heartbeat("cpu-node");
        assert!(dm.check_health(1).is_empty(), "an already-down server re-triggered failover");
    }
    assert_eq!(
        dm.server_health(),
        vec![("gpu-node".to_string(), false), ("cpu-node".to_string(), true)]
    );
}

/// Administrative revocation: removing the only server a lease lives on
/// revokes the lease outright — the watcher is pushed a `Revoked` notice
/// with an empty server list, the daemon's quota table drops the auth id,
/// and the lease is gone from the manager.
#[test]
fn removed_server_revokes_leases_and_notifies_watchers() {
    use devmgr::{DeviceManager, DeviceManagerServer, DeviceRequirement, ManagedDaemon};

    let transport: Arc<dyn Transport> = Arc::new(gcf::transport::inproc::InprocTransport::new());
    let dm = DeviceManager::new(devmgr::Strategy::FirstFit);
    let dm_server =
        DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();
    let platform = Platform::gpu_server();
    let managed = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "solo",
        "solo",
        platform.devices(),
    )
    .unwrap();

    let gpu_req =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let assignment =
        devmgr::request_assignment(&transport, dm_server.address(), "tenant", &gpu_req).unwrap();
    let device_id = dm.lease_grants(&assignment.auth_id).unwrap()[0].device_id;
    assert!(managed.lease_quota(&assignment.auth_id, device_id).is_some());

    let notices = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&notices);
    let _watch = devmgr::watch_lease(&transport, dm_server.address(), &assignment.auth_id, {
        move |notice| sink.lock().unwrap().push(notice)
    })
    .unwrap();

    devmgr::remove_server(&transport, dm_server.address(), "solo").unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let notice = loop {
        if let Some(n) = notices.lock().unwrap().first().cloned() {
            break n;
        }
        assert!(std::time::Instant::now() < deadline, "no revocation push arrived");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(notice.reason, devmgr::LeaseChangeReason::Revoked);
    assert!(notice.servers.is_empty(), "a revoked lease has no servers left");
    assert!(devmgr::get_lease(&transport, dm_server.address(), &assignment.auth_id).is_err());
    // The RevokeLease push empties the daemon's quota table.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while managed.lease_quota(&assignment.auth_id, device_id).is_some() {
        assert!(std::time::Instant::now() < deadline, "daemon quota never revoked");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A lease is revoked from a draining node mid-computation and migrated to
/// the other node: the watching client follows the `LeaseChanged` push,
/// reconciles its server roster with `sync_servers`, and the workload's
/// second half — computed on the new node — stitches bit-correct against
/// the single-node reference.
#[test]
fn drained_node_lease_migrates_and_finishes_bit_correct() {
    use devmgr::{DeviceManager, DeviceManagerServer, DeviceRequirement, ManagedDaemon};

    const UINTS_PER_HALF: usize = 128;
    const STAMP: &str = r#"
        __kernel void stamp(__global uint* out, uint base) {
            size_t i = get_global_id(0);
            out[i] = ((uint)i + base) * 97u + 5u;
        }
    "#;

    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(devmgr::Strategy::FirstFit);
    let dm_server =
        DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr").unwrap();
    let mut managed = Vec::new();
    for name in ["node-a", "node-b"] {
        let platform = Platform::test_platform(1);
        let daemon = ManagedDaemon::connect(
            Arc::clone(&transport),
            dm_server.address(),
            name,
            name,
            platform.devices(),
        )
        .unwrap();
        cluster.add_node_with_policy(name, &platform, daemon.policy()).unwrap();
        managed.push(daemon);
    }

    let any_device = vec![DeviceRequirement { count: 1, attributes: Vec::new() }];
    let assignment =
        devmgr::request_assignment(&transport, dm_server.address(), "migrator", &any_device)
            .unwrap();
    assert_eq!(assignment.servers, vec!["node-a".to_string()]);

    let notices = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&notices);
    let _watch = devmgr::watch_lease(&transport, dm_server.address(), &assignment.auth_id, {
        move |notice| sink.lock().unwrap().push(notice)
    })
    .unwrap();

    let client = cluster.detached_client("migrator", SimClock::new());
    client.set_auth_id(Some(assignment.auth_id.clone()));
    client.connect_server(&assignment.servers[0]).unwrap();

    // Each half is self-contained (own context, queue and buffer) on
    // whatever device the lease currently exposes.
    let stamp_half = |base: usize| -> Vec<u32> {
        let device = client.devices()[0].clone();
        let context = Context::new(&client, std::slice::from_ref(&device)).unwrap();
        let queue = context.create_command_queue(&device).unwrap();
        let program = context.create_program_with_source(STAMP).unwrap();
        program.build().unwrap();
        let buffer = context.create_buffer(UINTS_PER_HALF * 4).unwrap();
        let kernel = program.create_kernel("stamp").unwrap();
        kernel.set_arg(0, &buffer).unwrap();
        kernel.set_arg(1, Value::uint(base as u64)).unwrap();
        queue.launch(&kernel, NdRange::linear(UINTS_PER_HALF)).submit().unwrap().wait().unwrap();
        let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
        data.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect()
    };
    let mut image = stamp_half(0);

    // Drain the node the lease lives on: its share is revoked there and
    // migrated; the watcher learns the new server set.
    devmgr::drain_server(&transport, dm_server.address(), "node-a").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let notice = loop {
        if let Some(n) = notices.lock().unwrap().first().cloned() {
            break n;
        }
        assert!(std::time::Instant::now() < deadline, "no LeaseChanged push arrived");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(notice.reason, devmgr::LeaseChangeReason::Migrated);
    assert_eq!(notice.servers, vec!["node-b".to_string()]);
    client.sync_servers(&notice.servers).unwrap();
    assert!(client.server_by_address("node-a").is_none(), "the drained node is disconnected");

    image.extend(stamp_half(UINTS_PER_HALF));

    let expected: Vec<u32> = (0..2 * UINTS_PER_HALF).map(|i| (i as u32) * 97 + 5).collect();
    assert_eq!(image, expected, "the migrated workload must stay bit-correct");
    // The drain completed: nothing is allocated on node-a any more, while
    // the lease itself lives on.
    assert_eq!(dm.server_load("node-a"), Some(0));
    assert_eq!(dm.lease_count(), 1);
}

// ---------------------------------------------------------------------------
// Bulk transfers fail fast
// ---------------------------------------------------------------------------

/// `wait_bulk` must not sit out its full timeout when the peer dies: the
/// receiver notices the closed connection and fails every waiter promptly.
#[test]
fn wait_bulk_fails_fast_when_the_peer_dies() {
    let transport = gcf::transport::inproc::InprocTransport::new();
    let listener = transport.listen("bulk-peer").unwrap();
    let accept = std::thread::spawn(move || listener.accept().unwrap());
    let conn = transport.connect("bulk-peer").unwrap();
    let server_conn = accept.join().unwrap();
    let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "bulk-client");

    let waiter = {
        let endpoint = Arc::clone(&endpoint);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let result = endpoint.wait_bulk(99, Duration::from_secs(30));
            (result, started.elapsed())
        })
    };
    // Give the waiter a moment to block, then kill the peer.
    std::thread::sleep(Duration::from_millis(50));
    server_conn.close();
    let (result, elapsed) = waiter.join().unwrap();
    assert!(result.is_err(), "the waiter must observe the dead peer");
    assert!(elapsed < Duration::from_secs(10), "failed after {elapsed:?}, not fast");
}

// ---------------------------------------------------------------------------
// Chaos: OSEM under daemon failures
// ---------------------------------------------------------------------------

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Run one OSEM subset on `device`, self-contained (own context, buffers and
/// queue), returning the correction volume bytes.
fn run_subset(
    client: &dopencl::Client,
    device: &dopencl::Device,
    params: &OsemParams,
    chunk: &[f32],
    image: &[f32],
) -> dopencl::Result<Vec<u8>> {
    let per_subset = chunk.len() / FLOATS_PER_EVENT;
    let context = Context::new(client, std::slice::from_ref(device))?;
    let queue = context.create_command_queue(device)?;
    let events_buf = context.create_buffer(chunk.len() * 4)?;
    let image_buf = context.create_buffer(image.len() * 4)?;
    let corr_buf = context.create_buffer(params.num_voxels * 4)?;
    let program = context.create_program_with_built_in_kernels(BUILTIN_KERNEL)?;
    program.build()?;
    let kernel = program.create_kernel(BUILTIN_KERNEL)?;
    queue.write_buffer(&events_buf, &f32_bytes(chunk)).blocking().submit()?;
    queue.write_buffer(&image_buf, &f32_bytes(image)).blocking().submit()?;
    kernel.set_arg(0, &events_buf)?;
    kernel.set_arg(1, &image_buf)?;
    kernel.set_arg(2, &corr_buf)?;
    kernel.set_arg(3, Value::uint(per_subset as u64))?;
    kernel.set_arg(4, Value::uint(params.ray_steps as u64))?;
    kernel.set_arg(5, Value::uint(params.num_voxels as u64))?;
    queue.launch(&kernel, NdRange::linear(per_subset)).submit()?.wait()?;
    let (data, _) = queue.read_buffer(&corr_buf).submit()?;
    Ok(data)
}

fn osem_fixture() -> (OsemParams, Vec<f32>, Vec<f32>, Vec<Vec<f32>>) {
    workloads::register_all_built_in_kernels();
    let params = OsemParams::small();
    let events = osem::generate_events(&params, 11);
    let image = vec![0.5f32; params.num_voxels];
    let chunk_len = params.events_per_subset() * FLOATS_PER_EVENT;
    let references: Vec<Vec<f32>> = events
        .chunks_exact(chunk_len)
        .map(|chunk| osem::reference_subset_update(&params, chunk, &image))
        .collect();
    (params, events, image, references)
}

/// Headline chaos scenario (a): a daemon drops every connection in the
/// middle of an OSEM iteration.  The client reconnects, resumes its session
/// (all remote objects intact), replays idempotently, and the iteration
/// finishes **bit-correct** with every kernel launched **exactly once**.
#[test]
fn osem_iteration_survives_daemon_partition_with_exactly_once_replay() {
    let (params, events, image, references) = osem_fixture();
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client_with_clock("osem-partition", SimClock::new()).unwrap();
    let devices = client.devices();
    assert_eq!(devices.len(), 2);

    let chunk_len = params.events_per_subset() * FLOATS_PER_EVENT;
    let chunks: Vec<&[f32]> = events.chunks_exact(chunk_len).collect();
    let mut corrections = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        if i == params.subsets / 2 {
            // Partition node0 between subsets: every connection drops, the
            // daemon itself stays up and keeps accepting.
            cluster.daemons()[0].drop_connections();
        }
        let device = &devices[i % devices.len()];
        corrections.push(run_subset(&client, device, &params, chunk, &image).unwrap());
    }

    for (i, (computed, reference)) in corrections.iter().zip(&references).enumerate() {
        assert_eq!(as_f32s(computed), *reference, "subset {i} must be bit-correct");
    }

    // Exactly-once: one launch per subset across the whole cluster, no
    // double execution despite the replayed traffic.
    let launches: u64 = cluster.daemons().iter().map(|d| d.stats().kernel_launches).sum();
    assert_eq!(launches, params.subsets as u64);
    let info = client.session_info(client.servers()[0]).unwrap();
    let (admitted, replayed) = (info.dedup_admitted, info.dedup_replayed);
    assert!(admitted > 0, "node0 executed commands after the partition");
    assert_eq!(
        launches, params.subsets as u64,
        "dedup window (admitted {admitted}, replayed {replayed}) kept execution exactly-once"
    );
    assert!(info.epoch >= 1, "the client re-handshook with node0");
    assert!(client.traffic_stats().reconnects >= 1);
}

/// Headline chaos scenario (b): a daemon is killed outright mid-iteration.
/// With `drop_lost_servers` the client gives the dead server up after the
/// redial budget, fails its work fast, and the application re-runs the lost
/// subsets on the survivor — final result still bit-correct.
#[test]
fn osem_iteration_fails_over_to_survivor_after_daemon_crash() {
    let (params, events, image, references) = osem_fixture();
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client_with_clock("osem-crash", SimClock::new()).unwrap();
    client.set_failover_policy(FailoverPolicy {
        reconnect: true,
        backoff: Backoff::fast(),
        drop_lost_servers: true,
    });
    let devices = client.devices();
    let survivor = devices[1].clone();

    let chunk_len = params.events_per_subset() * FLOATS_PER_EVENT;
    let chunks: Vec<&[f32]> = events.chunks_exact(chunk_len).collect();
    let mut corrections: Vec<Option<Vec<u8>>> = vec![None; chunks.len()];
    let mut lost = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        if i == params.subsets / 2 {
            cluster.daemons()[0].kill();
        }
        let device = &devices[i % devices.len()];
        match run_subset(&client, device, &params, chunk, &image) {
            Ok(data) => corrections[i] = Some(data),
            Err(_) => lost.push(i),
        }
    }
    assert!(!lost.is_empty(), "killing node0 must cost at least one subset");

    // The dead server was dropped from the roster; re-run the lost subsets
    // on the survivor.
    assert_eq!(client.servers().len(), 1);
    for i in lost {
        corrections[i] = Some(run_subset(&client, &survivor, &params, chunks[i], &image).unwrap());
    }

    for (i, (computed, reference)) in corrections.iter().zip(&references).enumerate() {
        let computed = computed.as_ref().expect("every subset completed");
        assert_eq!(as_f32s(computed), *reference, "subset {i} must be bit-correct");
    }
    let stats = client.traffic_stats();
    assert!(stats.failed_requests >= 1 || stats.retries >= 1);
}

// ---------------------------------------------------------------------------
// Chaos: daemon crash in the middle of a delta-coherence exchange
// ---------------------------------------------------------------------------

/// Headline chaos scenario (c), range coherence under failover: a buffer is
/// shared across two daemons, node1 has received *one* delta upload (the
/// slice a hinted kernel then overwrote) when node0 is killed.  The
/// remaining ranges are still pending — the survivor must be re-validated
/// from the client's copy, moving **only the stale ranges**, and the final
/// read is bit-correct.  Losing node0 afterwards drops it from the roster
/// and invalidates exactly its directory entries.
#[test]
fn crash_between_delta_uploads_revalidates_only_stale_ranges_on_survivor() {
    const SIZE: usize = 4096; // 1024 uints
    const SLICE_OFFSET: usize = 1024; // uints [256, 512)
    const SLICE_LEN: usize = 1024;
    const STAMP: &str = r#"
        __kernel void stamp(__global uint* out, uint base) {
            size_t i = get_global_id(0);
            out[base + i] = ((uint)i + base) * 97u + 5u;
        }
    "#;

    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client_with_clock("delta-crash", SimClock::new()).unwrap();
    client.set_coherence_mode(CoherenceMode::Range);
    client.set_failover_policy(FailoverPolicy {
        reconnect: true,
        backoff: Backoff::fast(),
        drop_lost_servers: true,
    });
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(SIZE).unwrap();

    // Base image lives on node0 (and in the client's cache).
    let base: Vec<u8> = (0..SIZE).map(|i| (i % 241) as u8).collect();
    q0.write_buffer(&buffer, &base).blocking().submit().unwrap();

    // A hinted kernel on node1 declares it writes only `[1024, 2048)`: the
    // delta plan uploads exactly that slice to node1 before the launch.
    let program = context.create_program_with_source(STAMP).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("stamp").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    kernel.set_arg(1, Value::uint((SLICE_OFFSET / 4) as u64)).unwrap();
    q1.launch(&kernel, NdRange::linear(SLICE_LEN / 4))
        .writes_slice(&buffer, SLICE_OFFSET, SLICE_LEN)
        .submit()
        .unwrap()
        .wait()
        .unwrap();

    // Crash node0 before the remaining ranges ever reached node1.
    cluster.daemons()[0].kill();

    let mut expected = base.clone();
    for i in 0..SLICE_LEN / 4 {
        let value = ((i + SLICE_OFFSET / 4) * 97 + 5) as u32;
        let at = SLICE_OFFSET + i * 4;
        expected[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    // Reading through the survivor re-validates only the stale ranges —
    // the client uploads the 3072 bytes node1 never saw, not the whole
    // buffer, and never needs the dead node.
    let uploaded_before = cluster.daemons()[1].stats().bytes_uploaded;
    let before = client.traffic_stats();
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, expected, "survivor read must be bit-correct after the crash");
    let stale_bytes = (SIZE - SLICE_LEN) as u64;
    assert_eq!(
        cluster.daemons()[1].stats().bytes_uploaded - uploaded_before,
        stale_bytes,
        "only the stale ranges are re-uploaded to the survivor"
    );
    assert_eq!(client.traffic_stats().delta(&before).stream_bytes_sent, stale_bytes);

    // The dead node is dropped from the roster and its directory entries
    // invalidated; work routed at it fails fast, the survivor keeps
    // serving the (already fully valid) buffer without further transfers.
    assert!(q0.read_buffer(&buffer).submit().is_err(), "the dead node's queue must fail");
    assert_eq!(client.servers().len(), 1);
    assert!(buffer.valid_ranges(devices[0].server()).is_empty());
    assert_eq!(buffer.stale_ranges(devices[1].server()), vec![]);
    let uploaded_before = cluster.daemons()[1].stats().bytes_uploaded;
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, expected);
    assert_eq!(cluster.daemons()[1].stats().bytes_uploaded, uploaded_before);
}

/// A launch of about a second and a half on node0 of a two-node cluster,
/// writing `buffer`: node0 is still running it when a test kills it.
/// `node0` is its platform, for a daemon restarted in its place to offer
/// the same devices.
struct SlowLaunch {
    cluster: LocalCluster,
    node0: Platform,
    client: Client,
    q1: CommandQueue,
    buffer: Buffer,
    slow: Event,
    _keep: (CommandQueue, Kernel),
}

fn slow_launch_on_node0(name: &str, policy: FailoverPolicy) -> SlowLaunch {
    const SPIN: &str = r#"
        __kernel void spin(__global uint* out, uint rounds) {
            uint x = 1u;
            for (uint i = 0u; i < rounds; i++) {
                x = x * 1664525u + 1013904223u;
            }
            out[get_global_id(0)] = x;
        }
    "#;
    const MAX_ITEMS: usize = 4096;
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let node0 = Platform::test_platform(1);
    cluster.add_node("node0", &node0).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client_with_clock(name, SimClock::new()).unwrap();
    client.set_failover_policy(policy);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(MAX_ITEMS * 4).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    kernel.set_arg(1, Value::uint(1_000_000)).unwrap();

    // Time one work-item, then launch enough of them for about a second
    // and a half.
    let start = std::time::Instant::now();
    q0.launch(&kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    let items = (1.5 / start.elapsed().as_secs_f64()).ceil().clamp(1.0, MAX_ITEMS as f64);
    let slow = q0.launch(&kernel, NdRange::linear(items as usize)).submit().unwrap();
    q0.flush().unwrap();
    SlowLaunch { cluster, node0, client, q1, buffer, slow, _keep: (q0, kernel) }
}

/// A command on a survivor waits on an event whose owner is killed while
/// running it.  Under `drop_lost_servers` the owner's pending events fail
/// with the wait-list error, the failure is forwarded to the survivor's
/// replacement, and the dependent command fails with -14 instead of
/// hanging.
#[test]
fn dependant_of_an_event_on_a_killed_server_fails_instead_of_hanging() {
    let policy =
        FailoverPolicy { reconnect: true, backoff: Backoff::fast(), drop_lost_servers: true };
    let SlowLaunch { cluster, client, q1, slow, .. } = slow_launch_on_node0("killed-owner", policy);
    let dependent = q1.marker().after(std::slice::from_ref(&slow)).submit().unwrap();
    assert!(!slow.is_terminal(), "the launch must outlast the dependant's submission");

    cluster.daemons()[0].kill();
    let err = dependent.wait().unwrap_err();
    assert!(err.to_string().contains("status -14"), "{err}");
    let err = slow.wait().unwrap_err();
    assert!(err.to_string().contains("status -14"), "{err}");
    assert_eq!(client.servers().len(), 1);
}

/// A launch the daemon has acknowledged, still running when its connection
/// drops and finishing while the client cannot redial, completes its event
/// once the client is back: the daemon reports it to the connection that
/// adopts the session.  Guarded by `wait_timeout`, so a lost status fails
/// the test instead of hanging it.
#[test]
fn completion_while_the_client_is_away_reaches_it_after_the_reconnect() {
    const SPIN: &str = r#"
        __kernel void spin(__global uint* out, uint rounds) {
            uint x = 1u;
            for (uint i = 0u; i < rounds; i++) {
                x = x * 1664525u + 1013904223u;
            }
            out[get_global_id(0)] = x;
        }
    "#;
    const MAX_ITEMS: usize = 4096;
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let daemon = cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    let chaos = ChaosTransport::new(Arc::new(cluster.transport()));
    let client = Client::new(
        "away",
        Arc::clone(&chaos) as _,
        LinkModel::gigabit_ethernet(),
        SimClock::new(),
    );
    client.set_failover_policy(FailoverPolicy {
        reconnect: true,
        backoff: Backoff {
            base: Duration::from_millis(20),
            max_delay: Duration::from_millis(50),
            max_attempts: 400,
            ..Backoff::default()
        },
        drop_lost_servers: false,
    });
    let server = client.connect_server(daemon.address()).unwrap();
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(MAX_ITEMS * 4).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    kernel.set_arg(1, Value::uint(1_000_000)).unwrap();

    // Size the launch to run for about a third of a second, timing one
    // work-item after a warm-up launch.
    queue.launch(&kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    let start = std::time::Instant::now();
    queue.launch(&kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    let one = start.elapsed();
    let items = (0.3 / one.as_secs_f64()).ceil().clamp(1.0, MAX_ITEMS as f64);
    let slow = queue.launch(&kernel, NdRange::linear(items as usize)).submit().unwrap();
    // The flush returns once the daemon has acknowledged the batch.
    queue.flush().unwrap();
    assert!(!slow.is_terminal(), "the launch must outlast its acknowledgement");

    // Cut the connection and refuse redials until the launch has finished.
    chaos.kill(daemon.address());
    std::thread::sleep(one.mul_f64(items) * 3 + Duration::from_millis(200));
    chaos.revive(daemon.address());

    assert!(
        slow.wait_timeout(Duration::from_secs(20)).unwrap(),
        "the launch's status was lost with the connection"
    );
    assert!(client.traffic_stats().reconnects >= 1);
    let epoch = client.session_info(server).unwrap().epoch;
    assert!(epoch >= 1, "the status must have come through a reconnect");
}

/// Read all of `buffer` through `queue` on a thread of its own, and hand
/// back the receiver of its outcome, so a hang fails the test instead.
fn read_in_background(
    queue: CommandQueue,
    buffer: Buffer,
) -> std::sync::mpsc::Receiver<dopencl::Result<()>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(queue.read_buffer(&buffer).submit().map(|_| ()));
    });
    rx
}

/// A coherence move waits for the commands still running on its source;
/// when the source is killed meanwhile, the move fails with
/// `ServerUnavailable` once redialling gives up, instead of waiting for
/// those commands forever (no `drop_lost_servers` here, so their events
/// stay outstanding).
#[test]
fn a_fetch_from_a_killed_server_fails_instead_of_hanging() {
    let policy =
        FailoverPolicy { reconnect: true, backoff: Backoff::fast(), drop_lost_servers: false };
    let SlowLaunch { cluster, client: _client, q1, buffer, slow, .. } =
        slow_launch_on_node0("killed-source", policy);
    assert!(!slow.is_terminal());
    let outcome = read_in_background(q1, buffer);
    // Kill node0 while the read waits for the launch (about 1.5 s).
    std::thread::sleep(Duration::from_millis(300));
    assert!(!slow.is_terminal(), "the launch must outlast the kill");
    cluster.daemons()[0].kill();
    let result = outcome.recv_timeout(Duration::from_secs(20)).expect("the fetch hung");
    let err = result.unwrap_err();
    assert!(matches!(err, dopencl::DclError::ServerUnavailable(_)), "{err}");
}

/// As above, but a new daemon comes up at the killed one's address, so the
/// reconnect succeeds without resuming the session.  The commands that
/// session had accepted fail with the wait-list error, and the move waiting
/// for them goes on instead of hanging.
#[test]
fn a_fetch_from_a_restarted_server_does_not_hang() {
    // Redial long enough for the new daemon to come up.
    let backoff =
        Backoff { max_delay: Duration::from_millis(50), max_attempts: 400, ..Backoff::fast() };
    let policy = FailoverPolicy { reconnect: true, backoff, drop_lost_servers: false };
    let SlowLaunch { mut cluster, node0, client, q1, buffer, slow, .. } =
        slow_launch_on_node0("restarted-source", policy);
    assert!(!slow.is_terminal());
    let outcome = read_in_background(q1, buffer);
    std::thread::sleep(Duration::from_millis(300));
    assert!(!slow.is_terminal(), "the launch must outlast the kill");
    cluster.daemons()[0].kill();
    cluster.add_node("node0", &node0).unwrap();
    outcome.recv_timeout(Duration::from_secs(20)).expect("the fetch hung").unwrap();
    let err = slow.wait().unwrap_err();
    assert!(err.to_string().contains("status -14"), "{err}");
    assert!(!client.session_info(dopencl::ServerId(0)).unwrap().resumed);
}
