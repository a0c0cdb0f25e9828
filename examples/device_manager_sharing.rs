//! The Section IV / Figure 6 scenario: two independent applications share
//! the GPU server through the central device manager, each getting its own
//! GPU.
//!
//! ```text
//! cargo run -p dopencl-examples --bin device_manager_sharing
//! ```

use devmgr::{
    connect_via_device_manager, parse_device_request, release_assignment, DeviceManager,
    DeviceManagerServer, ManagedDaemon, Strategy,
};
use dopencl::{Context, LinkModel, LocalCluster, NdRange, SimClock, Value};
use std::sync::Arc;
use vocl::Platform;
use workloads::mandelbrot::{MandelbrotParams, BUILTIN_KERNEL};

fn run_instance(client: &dopencl::Client, name: &str) -> dopencl::Result<()> {
    let params =
        MandelbrotParams { width: 96, height: 64, max_iter: 128, ..MandelbrotParams::small() };
    let devices = client.devices();
    println!("[{name}] sees {} device(s): {}", devices.len(), devices[0].name());
    let context = Context::new(client, &devices)?;
    let queue = context.create_command_queue(&devices[0])?;
    let buffer = context.create_buffer(params.pixels() * 4)?;
    let program = context.create_program_with_built_in_kernels(BUILTIN_KERNEL)?;
    program.build()?;
    let kernel = program.create_kernel(BUILTIN_KERNEL)?;
    kernel.set_arg(0, &buffer)?;
    kernel.set_arg(1, Value::uint(params.width as u64))?;
    kernel.set_arg(2, Value::uint(params.height as u64))?;
    kernel.set_arg(3, Value::double(params.x_min))?;
    kernel.set_arg(4, Value::double(params.y_min))?;
    kernel.set_arg(5, Value::double(params.dx()))?;
    kernel.set_arg(6, Value::double(params.dy()))?;
    kernel.set_arg(7, Value::uint(0))?;
    kernel.set_arg(8, Value::uint(params.max_iter as u64))?;
    let event = queue.launch(&kernel, NdRange::two_d(params.width, params.height)).submit()?;
    event.wait()?;
    println!("[{name}] kernel finished, modelled execution time {:?}", event.modeled_duration());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    workloads::register_all_built_in_kernels();

    // Infrastructure: GPU server daemon (managed mode) + device manager.
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(Strategy::FirstFit);
    let dm_server = DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr")?;
    let platform = Platform::gpu_server();
    let managed = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpuserver",
        "gpuserver",
        platform.devices(),
    )?;
    cluster.add_node_with_policy("gpuserver", &platform, managed.policy())?;
    // Liveness: the daemon beats on a timer, the manager sweeps on one;
    // a daemon that dies is failed over without anyone polling by hand.
    let _heartbeats = managed.start_heartbeat(std::time::Duration::from_millis(50));
    let _health = dm.start_health_monitor(std::time::Duration::from_millis(200), 5);
    println!(
        "device manager at '{}', {} devices free",
        dm_server.address(),
        dm.free_device_count()
    );

    // Each application ships the XML configuration file of Listing 3.
    let xml = r#"
        <devmngr>devmngr</devmngr>
        <devices>
          <device>
            <attribute name="TYPE">GPU</attribute>
          </device>
        </devices>
    "#;
    let config = parse_device_request(xml)?;

    // Keep each application's client alive until its lease is released:
    // a dropped client is an abnormal termination, and the daemon reports
    // it so the device manager reclaims the lease (Section IV-C).
    let mut applications = Vec::new();
    for name in ["application-A", "application-B"] {
        let client = cluster.detached_client(name, SimClock::new());
        let assignment = connect_via_device_manager(&client, &transport, &config)?;
        println!("[{name}] lease {} on servers {:?}", assignment.auth_id, assignment.servers);
        run_instance(&client, name)?;
        applications.push((client, assignment));
    }
    println!(
        "\nleases active: {}, devices still free: {}",
        dm.lease_count(),
        dm.free_device_count()
    );

    for (_client, assignment) in &applications {
        release_assignment(&transport, assignment)?;
    }
    println!("after release: {} devices free", dm.free_device_count());
    Ok(())
}
