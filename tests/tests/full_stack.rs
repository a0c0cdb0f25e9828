//! End-to-end integration tests spanning every crate: client driver, daemon,
//! virtual OpenCL runtime, kernel interpreter, coherence and event
//! consistency — over both transports.  Exercises the handle-based object
//! API throughout.

use dopencl::{Client, Context, LinkModel, LocalCluster, NdRange, SimClock, Value};
use gcf::rpc::TrafficStats;
use gcf::transport::tcp::TcpTransport;
use integration_tests::{as_i32s, test_cluster};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vocl::Platform;

const INC_KERNEL: &str =
    "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }";

#[test]
fn kernel_round_trip_over_inproc_transport() {
    let (_cluster, client, _clock) = test_cluster(1, 2);
    let devices = client.devices();
    assert_eq!(devices.len(), 2);
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    for _ in 0..3 {
        queue.launch(&kernel, NdRange::linear(16)).submit().unwrap();
    }
    queue.finish().unwrap();
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert!(as_i32s(&data).iter().all(|v| *v == 3));
}

/// The same protocol runs over real TCP sockets: daemon and client talk
/// through localhost.
#[test]
fn kernel_round_trip_over_tcp_transport() {
    let transport: Arc<dyn gcf::Transport> = Arc::new(TcpTransport::new());
    let daemon = dopencl::Daemon::start(
        "tcp-node",
        &Platform::test_platform(1),
        Arc::clone(&transport),
        "127.0.0.1:0",
        Arc::new(dopencl::OpenAccess),
    )
    .unwrap();
    let client =
        Client::new("tcp-client", transport, LinkModel::gigabit_ethernet(), SimClock::new());
    client.connect_server(daemon.address()).unwrap();
    let devices = client.devices();
    assert_eq!(devices.len(), 1);
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(4096).unwrap();
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    queue.write_buffer(&buffer, &payload).blocking().submit().unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    queue.launch(&kernel, NdRange::linear(1024)).submit().unwrap().wait().unwrap();
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    let expected_first = i32::from_le_bytes(payload[0..4].try_into().unwrap()) + 1;
    assert_eq!(as_i32s(&data)[0], expected_first);
}

/// Two threads each make blocking 4 MiB writes to their own buffer on one
/// TCP daemon at once.  Each write's stream follows its batch's request,
/// and the daemon receives it into the buffer: the requests and streams of
/// the two must not interleave on the wire, and each buffer reads back the
/// bytes written to it.
#[test]
fn concurrent_large_writes_over_tcp_land_whole() {
    const LEN: usize = 4 << 20;
    let transport: Arc<dyn gcf::Transport> = Arc::new(TcpTransport::new());
    let daemon = dopencl::Daemon::start(
        "tcp-node",
        &Platform::test_platform(1),
        Arc::clone(&transport),
        "127.0.0.1:0",
        Arc::new(dopencl::OpenAccess),
    )
    .unwrap();
    let client = Client::new("tcp-client", transport, LinkModel::ideal(), SimClock::new());
    client.connect_server(daemon.address()).unwrap();
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Arc::new(std::sync::Barrier::new(2));
    for seed in 0..2u8 {
        let queue = context.create_command_queue(&devices[0]).unwrap();
        let buffer = context.create_buffer(LEN).unwrap();
        let (tx, start) = (tx.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            let data: Vec<Vec<u8>> = (0..4u8)
                .map(|round| (0..LEN).map(|i| (i % 251) as u8 ^ seed ^ (round << 2)).collect())
                .collect();
            start.wait();
            let written = data.iter().try_for_each(|data| {
                queue.write_buffer(&buffer, data).blocking().submit().map(|_| ())
            });
            let read = written.and_then(|()| queue.read_buffer(&buffer).submit());
            let _ = tx.send(read.map(|(read, _)| read == data[3]));
        });
    }
    for _ in 0..2 {
        let landed = rx.recv_timeout(Duration::from_secs(60)).expect("a write hung").unwrap();
        assert!(landed, "a buffer read back other bytes");
    }
}

#[test]
fn buffer_stays_consistent_across_three_servers() {
    let (_cluster, client, clock) = test_cluster(3, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queues: Vec<_> = devices.iter().map(|d| context.create_command_queue(d).unwrap()).collect();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    // Walk the kernel across all three servers twice; the MSI directory has
    // to migrate the buffer through the client each time.
    for _round in 0..2 {
        for queue in &queues {
            let e = queue.launch(&kernel, NdRange::linear(4)).submit().unwrap();
            e.wait().unwrap();
        }
    }
    let (data, _) = queues[0].read_buffer(&buffer).submit().unwrap();
    assert_eq!(as_i32s(&data), vec![6, 6, 6, 6]);
    assert!(clock.breakdown().data_transfer > std::time::Duration::ZERO);
}

#[test]
fn events_synchronise_commands_across_servers() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    // Launch on server 0, then launch on server 1 *waiting on* the first
    // event: the wait list crosses servers through the user-event protocol.
    let first = q0.launch(&kernel, NdRange::linear(4)).submit().unwrap();
    let second = q1
        .launch(&kernel, NdRange::linear(4))
        .after(std::slice::from_ref(&first))
        .submit()
        .unwrap();
    second.wait().unwrap();
    assert!(first.is_terminal(), "the dependency must have completed first");
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(as_i32s(&data), vec![2, 2, 2, 2]);
}

#[test]
fn interpreted_and_builtin_kernels_agree_through_the_middleware() {
    workloads::register_all_built_in_kernels();
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let params = workloads::mandelbrot::MandelbrotParams {
        width: 48,
        height: 32,
        max_iter: 64,
        ..workloads::mandelbrot::MandelbrotParams::small()
    };

    let run = |use_builtin: bool| -> Vec<u8> {
        let buffer = context.create_buffer(params.pixels() * 4).unwrap();
        let program = if use_builtin {
            context
                .create_program_with_built_in_kernels(workloads::mandelbrot::BUILTIN_KERNEL)
                .unwrap()
        } else {
            context.create_program_with_source(workloads::mandelbrot::KERNEL_SOURCE).unwrap()
        };
        program.build().unwrap();
        let kernel = program.create_kernel("mandelbrot_rows").unwrap();
        kernel.set_arg(0, &buffer).unwrap();
        kernel.set_arg(1, Value::uint(params.width as u64)).unwrap();
        kernel.set_arg(2, Value::uint(params.height as u64)).unwrap();
        kernel.set_arg(3, Value::double(params.x_min)).unwrap();
        kernel.set_arg(4, Value::double(params.y_min)).unwrap();
        kernel.set_arg(5, Value::double(params.dx())).unwrap();
        kernel.set_arg(6, Value::double(params.dy())).unwrap();
        kernel.set_arg(7, Value::uint(0)).unwrap();
        kernel.set_arg(8, Value::uint(params.max_iter as u64)).unwrap();
        queue
            .launch(&kernel, NdRange::two_d(params.width, params.height))
            .submit()
            .unwrap()
            .wait()
            .unwrap();
        let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
        data
    };

    let interpreted = run(false);
    let builtin = run(true);
    // f32 (interpreter) vs f64 (built-in) escape-time rounding may differ on
    // a handful of boundary pixels.
    let matching =
        interpreted.chunks_exact(4).zip(builtin.chunks_exact(4)).filter(|(a, b)| a == b).count();
    assert!(matching as f64 / params.pixels() as f64 > 0.97);
}

#[test]
fn disconnecting_a_server_removes_its_devices_but_others_keep_working() {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("a", &Platform::test_platform(1)).unwrap();
    cluster.add_node("b", &Platform::test_platform(1)).unwrap();
    let client = cluster.client("app").unwrap();
    assert_eq!(client.devices().len(), 2);
    let servers = client.servers();
    client.disconnect_server(servers[0]).unwrap();
    let devices = client.devices();
    assert_eq!(devices.len(), 1);

    // The remaining server still executes work.
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    queue.write_buffer(&buffer, &[7u8; 16]).blocking().submit().unwrap();
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, vec![7u8; 16]);
}

/// The disconnected server's traffic stays counted: no counter of
/// `traffic_stats` falls across `disconnect_server`.
#[test]
fn disconnecting_a_server_keeps_its_traffic_counted() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    q0.write_buffer(&buffer, &[3u8; 16]).blocking().submit().unwrap();
    let before = client.traffic_stats();
    client.disconnect_server(devices[0].server()).unwrap();
    let after = client.traffic_stats();
    // `delta` saturates, so it is all zeroes only if no counter fell.
    assert_eq!(before.delta(&after), TrafficStats::default(), "{before:?} -> {after:?}");
}

/// A kernel that runs for `rounds` iterations per work-item.
const SPIN: &str = "__kernel void spin(__global uint* out, uint rounds) {
    uint x = 1u;
    for (uint i = 0u; i < rounds; i++) { x = x * 1664525u + 1013904223u; }
    out[get_global_id(0)] = x;
}";
const MAX_ITEMS: usize = 4096;

/// A launch still running on a server that is disconnected, and a command
/// on another server that waits on it, both fail with the wait-list error
/// instead of hanging, and the client stops tracking them.
#[test]
fn disconnecting_a_server_fails_its_running_work_and_dependants() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    kernel.set_arg(0, context.create_buffer(MAX_ITEMS * 4).unwrap()).unwrap();
    kernel.set_arg(1, Value::uint(1_000_000)).unwrap();
    // Time one work-item, then launch enough of them for about a second and
    // a half, so server 0 is still running the launch at the disconnect.
    let start = Instant::now();
    q0.launch(&kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    let items = (1.5 / start.elapsed().as_secs_f64()).ceil().clamp(1.0, MAX_ITEMS as f64);
    let slow = q0.launch(&kernel, NdRange::linear(items as usize)).submit().unwrap();
    q0.flush().unwrap();
    let dependent = q1.marker().after(std::slice::from_ref(&slow)).submit().unwrap();
    assert!(!slow.is_terminal(), "the launch must outlast the dependant's submission");

    client.disconnect_server(devices[0].server()).unwrap();
    // The timeout only guards against a hang.
    for event in [&slow, &dependent] {
        let err = event.wait_timeout(Duration::from_secs(10)).unwrap_err();
        assert!(err.to_string().contains("status -14"), "{err}");
    }
    drop((slow, dependent));
    assert_eq!(client.tracked_events(), 0);
}

/// After a disconnect, the data a kernel wrote on the disconnected server
/// is gone, as when a lost server is dropped: a read on the survivor no
/// longer reaches for it, and serves the client's last copy instead.
#[test]
fn disconnecting_a_server_invalidates_its_buffer_copies() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    q0.write_buffer(&buffer, &[5u8; 16]).blocking().submit().unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    q0.launch(&kernel, NdRange::linear(4)).submit().unwrap().wait().unwrap();

    let s0 = devices[0].server();
    client.disconnect_server(s0).unwrap();
    assert!(buffer.valid_ranges(s0).is_empty());
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, vec![5u8; 16], "the lost range degrades to the client's copy");
    assert_eq!(buffer.stale_ranges(devices[1].server()), vec![]);
}

/// A command on server 1 that waits on an event server 0 has already
/// finished costs server 1 exactly one request — the batch, which creates
/// the replacement already complete — and server 0 none.
#[test]
fn waiting_on_a_finished_event_of_another_server_costs_only_the_batch() {
    let (cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let done = q0.marker().submit().unwrap();
    done.wait().unwrap();

    let requests =
        || -> Vec<u64> { cluster.daemons().iter().map(|d| d.stats().requests).collect() };
    let before = requests();
    let write = q1.write_buffer(&buffer, &[7u8; 16]).after(std::slice::from_ref(&done)).submit();
    write.unwrap().wait().unwrap();
    let after = requests();
    assert_eq!(after[1] - before[1], 1, "server 1 gets the batch and nothing else");
    assert_eq!(after[0] - before[0], 0, "server 0 hears nothing of it");
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, vec![7u8; 16]);
}

/// A failed event fails its dependants on another server with the
/// wait-list error, whether it had already failed when the dependant was
/// enqueued (its replacement is created failed) or fails afterwards (the
/// failure is forwarded); the dependent write never touches the buffer.
#[test]
fn a_failed_event_fails_its_dependants_on_another_server() {
    const SPIN: &str = "__kernel void spin(__global uint* out, uint rounds) {
        uint x = 1u;
        for (uint i = 0u; i < rounds; i++) { x = x * 1664525u + 1013904223u; }
        out[0] = x;
    }";
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    q1.write_buffer(&buffer, &[5u8; 16]).blocking().submit().unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    // A kernel whose argument is never set: its launch fails at execution.
    let unbound = program.create_kernel("inc").unwrap();
    // A million-round loop ahead of it on q0 keeps the failure pending
    // while the dependant is enqueued, so the failure reaches server 1 as
    // a forward.
    let spin_program = context.create_program_with_source(SPIN).unwrap();
    spin_program.build().unwrap();
    let spin = spin_program.create_kernel("spin").unwrap();
    spin.set_arg(0, context.create_buffer(4).unwrap()).unwrap();
    spin.set_arg(1, Value::uint(1_000_000)).unwrap();

    for failed_first in [true, false] {
        if !failed_first {
            q0.launch(&spin, NdRange::linear(1)).submit().unwrap();
        }
        let failed = q0.launch(&unbound, NdRange::linear(4)).submit().unwrap();
        if failed_first {
            assert!(failed.wait().is_err());
        }
        let dependent =
            q1.write_buffer(&buffer, &[9u8; 16]).after(std::slice::from_ref(&failed)).submit();
        assert_eq!(failed.is_terminal(), failed_first);
        let err = dependent.unwrap().wait().unwrap_err();
        assert!(err.to_string().contains("status -14"), "{err}");
        assert!(failed.wait().is_err());
        let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
        assert_eq!(data, vec![5u8; 16], "the dependent write must not run");
    }
}

/// Once every event has been waited for and every handle dropped, the
/// client tracks no event and neither daemon holds one: the releases rode
/// to each server that knew the event (here on their own, through the
/// explicit flush of an idle queue).
#[test]
fn event_tables_empty_once_every_handle_is_dropped() {
    let (cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    {
        let first = q0.launch(&kernel, NdRange::linear(4)).submit().unwrap();
        let second =
            q1.launch(&kernel, NdRange::linear(4)).after(std::slice::from_ref(&first)).submit();
        let second = second.unwrap();
        let third = q0.marker().after(std::slice::from_ref(&second)).submit().unwrap();
        let (data, read) =
            q1.read_buffer(&buffer).after(std::slice::from_ref(&third)).submit().unwrap();
        assert_eq!(as_i32s(&data), vec![2, 2, 2, 2]);
        dopencl::Event::wait_all(&[first, second, third, read]).unwrap();
    }
    assert_eq!(client.tracked_events(), 0);
    q0.flush().unwrap();
    q1.flush().unwrap();
    // A request behind each release on the same connection: once it is
    // answered, the daemon has handled the release.
    for server in client.servers() {
        client.server_info(server).unwrap();
    }
    for daemon in cluster.daemons() {
        assert_eq!(daemon.events_held("integration"), Some(0), "{}", daemon.name());
    }
}

/// A chain that crosses servers and comes back: a slow launch X on server
/// 0, a marker E on server 1 waiting on X, and a marker Y on server 0
/// waiting on E, shipped while X still runs.  Server 0's worker starts Y
/// straight after X.  X ends its batch, so its status must leave when X
/// completes; held until Y completes, it would wait behind Y, Y on E, and
/// E on X.  The timeout turns that deadlock into a failure.
#[test]
fn a_chain_back_to_a_busy_server_completes() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    kernel.set_arg(0, context.create_buffer(MAX_ITEMS * 4).unwrap()).unwrap();
    kernel.set_arg(1, Value::uint(1_000_000)).unwrap();
    // About half a second, so server 0 is still running X when Y arrives.
    let items = items_for(&q0, &kernel, 0.5);
    let x = q0.launch(&kernel, NdRange::linear(items)).submit().unwrap();
    let e = q1.marker().after(std::slice::from_ref(&x)).submit().unwrap();
    let y = q0.marker().after(std::slice::from_ref(&e)).submit().unwrap();
    q0.flush().unwrap();
    q1.flush().unwrap();
    assert!(!x.is_terminal(), "X must still run when Y reaches server 0");
    assert!(y.wait_timeout(Duration::from_secs(20)).unwrap(), "the chain deadlocked");
    assert!(x.is_terminal() && e.is_terminal());
}

/// Launches `items` work-items of `kernel` take about `seconds`, timed on
/// one work-item (after a warm-up launch) on `queue`.
fn items_for(queue: &dopencl::CommandQueue, kernel: &dopencl::Kernel, seconds: f64) -> usize {
    queue.launch(kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    let start = Instant::now();
    queue.launch(kernel, NdRange::linear(1)).submit().unwrap().wait().unwrap();
    (seconds / start.elapsed().as_secs_f64()).ceil().clamp(1.0, MAX_ITEMS as f64) as usize
}

/// A status is held back at most a bounded time, not until the run of
/// commands it belongs to ends: a launch X on server 0 is followed, in the
/// same batch, by three more like it, and a marker E on server 1 waits on
/// X.  E must finish while the last of the launches still runs.  All four
/// write the same slice, so no coherence traffic splits the batch.
#[test]
fn a_dependant_is_not_held_back_by_long_kernels_behind_its_dependency() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    kernel.set_arg(0, context.create_buffer(MAX_ITEMS * 4).unwrap()).unwrap();
    kernel.set_arg(1, Value::uint(1_000_000)).unwrap();
    let items = items_for(&q0, &kernel, 0.3);
    let x = q0.launch(&kernel, NdRange::linear(items)).submit().unwrap();
    let long: Vec<_> =
        (0..3).map(|_| q0.launch(&kernel, NdRange::linear(items)).submit().unwrap()).collect();
    // E waits on X, so X's batch (X and the long launches) ships first.
    let e = q1.marker().after(std::slice::from_ref(&x)).submit().unwrap();
    assert!(e.wait_timeout(Duration::from_secs(20)).unwrap(), "E never completed");
    assert!(x.is_terminal());
    assert!(!long[2].is_terminal(), "E waited for the last long launch");
    for launch in &long {
        launch.wait().unwrap();
    }
}

/// A coherence fetch comes after every command already submitted to its
/// source: a read on server 1 that waits on a kernel of server 0 gets that
/// kernel's output, however long the launches ahead of it run.  The kernel
/// sits behind a launch of about a second on the same queue, so it has not
/// started when the fetch is planned (a running kernel holds its buffers'
/// locks, so a copy taken during it would wait for it anyway).
#[test]
fn a_fetch_waits_for_the_kernel_that_writes_its_range() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let program = context.create_program_with_source(SPIN).unwrap();
    program.build().unwrap();
    let slow = program.create_kernel("spin").unwrap();
    slow.set_arg(0, context.create_buffer(MAX_ITEMS * 4).unwrap()).unwrap();
    slow.set_arg(1, Value::uint(1_000_000)).unwrap();
    let items = items_for(&q0, &slow, 1.0);
    // Server 0 holds the output buffer already, so the writer's launch
    // moves nothing.
    let out = context.create_buffer(16).unwrap();
    q0.write_buffer(&out, &[0u8; 16]).blocking().submit().unwrap();
    let writer = program.create_kernel("spin").unwrap();
    writer.set_arg(0, &out).unwrap();
    writer.set_arg(1, Value::uint(1)).unwrap();

    q0.launch(&slow, NdRange::linear(items)).submit().unwrap();
    let k = q0.launch(&writer, NdRange::linear(4)).submit().unwrap();
    let (data, _) = q1.read_buffer(&out).after(std::slice::from_ref(&k)).submit().unwrap();
    let x = 1664525u32.wrapping_add(1013904223);
    assert_eq!(data, x.to_le_bytes().repeat(4), "the read relayed bytes from before the kernel");
}

/// A plan that needs several ranges from one daemon fetches them in one
/// request: server 0 writes two disjoint slices, and validating server 1
/// for a read costs one download from server 0, one upload to server 1 and
/// the read's batch.
#[test]
fn a_plan_fetches_all_its_ranges_from_one_daemon_in_one_request() {
    let (cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    q0.write_buffer(&buffer, &[1u8; 64]).blocking().submit().unwrap();
    let (primed, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(primed, vec![1u8; 64]);
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    for first in [0, 8] {
        let range = NdRange::linear(4).with_offset([first, 0, 0]);
        q0.launch(&kernel, range).writes_slice(&buffer, first * 4, 16).submit().unwrap();
    }
    q0.finish().unwrap();
    assert_eq!(buffer.stale_ranges(devices[1].server()).len(), 2);

    let requests =
        || -> Vec<u64> { cluster.daemons().iter().map(|d| d.stats().requests).collect() };
    let (before, sent_before) = (requests(), client.traffic_stats().requests_sent);
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    let after = requests();
    assert_eq!(after[0] - before[0], 1, "one download from server 0");
    assert_eq!(client.traffic_stats().requests_sent - sent_before, 3);
    let expected: Vec<i32> = (0..16)
        .map(|i| if i < 4 || (8..12).contains(&i) { 0x0101_0102 } else { 0x0101_0101 })
        .collect();
    assert_eq!(as_i32s(&data), expected);
}

/// A read validates only the range it reads: server 0's kernel wrote one
/// half of the buffer, and a read of the other half through server 1 moves
/// none of server 0's bytes.
#[test]
fn a_partial_read_validates_only_its_range() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    q1.write_buffer(&buffer, &[1u8; 64]).blocking().submit().unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    q0.launch(&kernel, NdRange::linear(8)).submit().unwrap().wait().unwrap();
    assert_eq!(
        buffer.valid_ranges(devices[0].server()),
        vec![dopencl::coherence::ByteRange::new(0, 32)]
    );

    let before = client.traffic_stats();
    let (data, _) = q1.read_buffer(&buffer).at_offset(32).len(32).submit().unwrap();
    assert_eq!(data, vec![1u8; 32]);
    assert_eq!(client.traffic_stats().delta(&before).stream_bytes_received, 32);
}

/// A launch validates the slice of an argument the analysis derives as
/// written linearly, because such a kernel may skip some of its elements:
/// here a store guarded by `i % 2 == 0`.  The odd elements keep the bytes
/// the host wrote through the other server.
#[test]
fn a_conditionally_written_slice_keeps_the_bytes_it_skips() {
    const EVENS: &str = "__kernel void evens(__global int* out) {
        size_t i = get_global_id(0);
        if (i % 2 == 0) { out[i] = 7; }
    }";
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    let host: Vec<u8> = (0..16i32).flat_map(|v| (100 + v).to_le_bytes()).collect();
    q0.write_buffer(&buffer, &host).blocking().submit().unwrap();
    let program = context.create_program_with_source(EVENS).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("evens").unwrap();
    assert!(matches!(kernel.derived_access(0), oclc::access::ArgAccess::WrittenLinear { .. }));
    kernel.set_arg(0, &buffer).unwrap();
    q1.launch(&kernel, NdRange::linear(16)).submit().unwrap();
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    let expected: Vec<i32> = (0..16).map(|i| if i % 2 == 0 { 7 } else { 100 + i }).collect();
    assert_eq!(as_i32s(&data), expected);
}
