//! Figure 6: average runtime of the Mandelbrot application when 1–4
//! application instances share the GPU server concurrently, with and without
//! the device manager.
//!
//! Beyond the paper's figure, this module also benchmarks the *cluster
//! resource manager* that grew out of the device manager:
//!
//! * [`cluster_contention`] — ≥ 200 concurrent clients requesting fractional
//!   GPU shares from a 2-node cluster, recording per-policy assignment tail
//!   latency (p50/p95/p99) and the per-client completed-work spread
//!   ([`devmgr::Strategy::Fair`] keeps max/min ≤ 2× while `FirstFit` starves
//!   latecomers outright).
//! * [`migration_bit_correctness`] — a lease is revoked from a draining node
//!   mid-computation and migrated; the client follows the
//!   [`devmgr::watch_lease`] push, reconnects via
//!   [`dopencl::Client::sync_servers`], and finishes the workload
//!   bit-correct on the new node.

use crate::report::Percentiles;
use devmgr::{
    DeviceManager, DeviceManagerServer, DeviceRequirement, DmShareRequest, ManagedDaemon,
    SchedulingStrategy,
};
use dopencl::{Context, DeviceType, LocalCluster, PhaseBreakdown, SimClock, Value};
use gcf::LinkModel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vocl::{NdRange, Platform};
use workloads::mandelbrot::{compute_rows, MandelbrotParams, BUILTIN_KERNEL};

/// One bar of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Number of concurrently running application instances.
    pub clients: usize,
    /// Whether the device manager mediated device assignment.
    pub with_device_manager: bool,
    /// Average modelled runtime of a single application instance.
    pub breakdown: PhaseBreakdown,
}

fn scale(b: PhaseBreakdown, work_scale: f64) -> PhaseBreakdown {
    PhaseBreakdown {
        initialization: b.initialization,
        execution: Duration::from_secs_f64(b.execution.as_secs_f64() * work_scale),
        data_transfer: Duration::from_secs_f64(b.data_transfer.as_secs_f64() * work_scale),
    }
}

/// Run one client's Mandelbrot instance on the single GPU device it sees and
/// return its unscaled breakdown.
fn run_instance(
    client: &dopencl::Client,
    clock: &SimClock,
    func: &MandelbrotParams,
) -> dopencl::Result<PhaseBreakdown> {
    let devices = client.devices();
    let device = devices
        .first()
        .ok_or_else(|| dopencl::DclError::InvalidArgument("client has no device".into()))?;
    let context = Context::new(client, std::slice::from_ref(device))?;
    let queue = context.create_command_queue(device)?;
    let program = context.create_program_with_built_in_kernels(BUILTIN_KERNEL)?;
    program.build()?;
    let buffer = context.create_buffer(func.pixels() * 4)?;
    let kernel = program.create_kernel(BUILTIN_KERNEL)?;
    kernel.set_arg(0, &buffer)?;
    kernel.set_arg(1, Value::uint(func.width as u64))?;
    kernel.set_arg(2, Value::uint(func.height as u64))?;
    kernel.set_arg(3, Value::double(func.x_min))?;
    kernel.set_arg(4, Value::double(func.y_min))?;
    kernel.set_arg(5, Value::double(func.dx()))?;
    kernel.set_arg(6, Value::double(func.dy()))?;
    kernel.set_arg(7, Value::uint(0))?;
    kernel.set_arg(8, Value::uint(func.max_iter as u64))?;
    let event = queue.launch(&kernel, NdRange::two_d(func.width, func.height)).submit()?;
    event.wait()?;
    let (_data, read) = queue.read_buffer(&buffer).submit()?;
    read.wait()?;
    let measured = clock.breakdown();
    Ok(PhaseBreakdown {
        initialization: measured.initialization,
        execution: event.modeled_duration(),
        data_transfer: measured.data_transfer,
    })
}

/// Average runtime of one instance when `clients` run concurrently **with**
/// the device manager: each client is assigned its own GPU, so execution
/// stays flat; the shared Gigabit Ethernet link is divided between them.
pub fn with_device_manager(clients: usize, functional_scale: usize) -> dopencl::Result<Fig6Row> {
    workloads::register_all_built_in_kernels();
    let paper = MandelbrotParams::paper();
    let func = paper.downscaled(functional_scale);
    let work_scale = paper.pixels() as f64 / func.pixels() as f64;

    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(SchedulingStrategy::FirstFit);
    let dm_server = DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr")
        .map_err(|e| dopencl::DclError::Protocol(e.to_string()))?;
    let platform = Platform::gpu_server();
    let managed = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpuserver",
        "gpuserver",
        platform.devices(),
    )
    .map_err(|e| dopencl::DclError::Protocol(e.to_string()))?;
    cluster.add_node_with_policy("gpuserver", &platform, managed.policy())?;

    let requirement =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let mut breakdowns = Vec::new();
    for i in 0..clients {
        let clock = SimClock::new();
        let client = cluster.detached_client(&format!("instance-{i}"), clock.clone());
        let assignment = devmgr::request_assignment(
            &transport,
            dm_server.address(),
            &format!("instance-{i}"),
            &requirement,
        )
        .map_err(|e| dopencl::DclError::Protocol(e.to_string()))?;
        client.set_auth_id(Some(assignment.auth_id.clone()));
        for server in &assignment.servers {
            client.connect_server(server)?;
        }
        // Each client sees exactly the one GPU of its lease.
        assert_eq!(client.devices().len(), 1);
        breakdowns.push(run_instance(&client, &clock, &func)?);
    }

    // Average, then apply the shared-link effect: the server's network
    // bandwidth is divided among the concurrent instances, and the server
    // needs slightly longer to create the additional management objects.
    let avg = average(&breakdowns);
    let contended = PhaseBreakdown {
        initialization: avg.initialization.mul_f64(1.0 + 0.15 * (clients as f64 - 1.0)),
        execution: avg.execution,
        data_transfer: avg.data_transfer.mul_f64(clients as f64),
    };
    Ok(Fig6Row { clients, with_device_manager: true, breakdown: scale(contended, work_scale) })
}

/// Average runtime **without** the device manager: every instance picks the
/// first device of the server, so all kernels serialize on GPU 0.
pub fn without_device_manager(clients: usize, functional_scale: usize) -> dopencl::Result<Fig6Row> {
    workloads::register_all_built_in_kernels();
    let paper = MandelbrotParams::paper();
    let func = paper.downscaled(functional_scale);
    let work_scale = paper.pixels() as f64 / func.pixels() as f64;

    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("gpuserver", &Platform::gpu_server())?;

    let mut breakdowns = Vec::new();
    for i in 0..clients {
        let clock = SimClock::new();
        let client = cluster.client_with_clock(&format!("instance-{i}"), clock.clone())?;
        // Without the device manager every instance freely chooses a device
        // — and they all pick the first GPU (the paper's observed worst
        // case).
        let gpus = client.devices_of(DeviceType::Gpu);
        let first = gpus[0].clone();
        let context = Context::new(&client, std::slice::from_ref(&first))?;
        drop(context);
        breakdowns.push(run_instance(&client, &clock, &func)?);
    }
    let avg = average(&breakdowns);
    // All instances share one device: kernel executions are arbitrarily
    // interleaved and effectively serialized, so a single instance observes
    // up to `clients`× its own execution time (Section V-C).
    let contended = PhaseBreakdown {
        initialization: avg.initialization,
        execution: avg.execution.mul_f64(clients as f64),
        data_transfer: avg.data_transfer.mul_f64(clients as f64),
    };
    Ok(Fig6Row { clients, with_device_manager: false, breakdown: scale(contended, work_scale) })
}

fn average(breakdowns: &[PhaseBreakdown]) -> PhaseBreakdown {
    let n = breakdowns.len().max(1) as u32;
    let sum = PhaseBreakdown::serial_over(breakdowns.iter().copied());
    PhaseBreakdown {
        initialization: sum.initialization / n,
        execution: sum.execution / n,
        data_transfer: sum.data_transfer / n,
    }
}

/// Run the full Figure 6 sweep.
pub fn run(client_counts: &[usize], functional_scale: usize) -> dopencl::Result<Vec<Fig6Row>> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        rows.push(without_device_manager(clients, functional_scale)?);
        rows.push(with_device_manager(clients, functional_scale)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Cluster resource manager: contention and migration benchmarks
// ---------------------------------------------------------------------------

/// One policy's results from the cluster-contention benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionRow {
    /// Scheduling policy under test.
    pub policy: SchedulingStrategy,
    /// Number of concurrent clients driven at the manager.
    pub clients: usize,
    /// Clients whose share request was admitted.
    pub admitted: usize,
    /// Clients turned away with `Saturated`.
    pub rejected: usize,
    /// Wall-clock `request_shares` latency percentiles in milliseconds.
    pub latency_ms: Percentiles,
    /// Smallest per-client completed work (steady-state granted compute
    /// millis; 0 for a rejected client).
    pub min_work: u64,
    /// Largest per-client completed work.
    pub max_work: u64,
}

impl ContentionRow {
    /// Max/min completed-work ratio across all clients; `None` when at least
    /// one client completed nothing (the FirstFit starvation case).
    pub fn work_ratio(&self) -> Option<f64> {
        if self.min_work == 0 {
            None
        } else {
            Some(self.max_work as f64 / self.min_work as f64)
        }
    }
}

/// Drive `clients` concurrent threads at a 2-node cluster (2 × 4 GPUs), each
/// requesting a fractional GPU share (desired: a whole device, floor: 1% of
/// one), and record assignment latency plus the final per-client share once
/// the dust settles.  Under [`SchedulingStrategy::Fair`] every client is
/// admitted and rebalancing equalises the shares; under `FirstFit` the first
/// eight clients take whole devices and everyone else starves.
pub fn cluster_contention(
    policy: SchedulingStrategy,
    clients: usize,
) -> devmgr::Result<ContentionRow> {
    let transport: Arc<dyn gcf::Transport> =
        Arc::new(gcf::transport::inproc::InprocTransport::new());
    let dm = DeviceManager::new(policy);
    let dm_server = DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr")?;
    let platform_a = Platform::gpu_server();
    let platform_b = Platform::gpu_server();
    let _node_a = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpu-a",
        "gpu-a",
        platform_a.devices(),
    )?;
    let _node_b = ManagedDaemon::connect(
        Arc::clone(&transport),
        dm_server.address(),
        "gpu-b",
        "gpu-b",
        platform_b.devices(),
    )?;

    let share = DmShareRequest {
        count: 1,
        attributes: vec![("TYPE".into(), "GPU".into())],
        compute_millis: devmgr::FULL_COMPUTE_MILLIS,
        min_millis: 10,
        mem_bytes: 0,
    };
    let dm_address = dm_server.address().to_string();
    let mut outcomes: Vec<(f64, Option<String>)> = Vec::with_capacity(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let transport = Arc::clone(&transport);
                let dm_address = dm_address.clone();
                let share = share.clone();
                scope.spawn(move || {
                    let started = Instant::now();
                    let result = devmgr::request_shares(
                        &transport,
                        &dm_address,
                        &format!("client-{i}"),
                        1,
                        std::slice::from_ref(&share),
                    );
                    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                    (latency_ms, result.ok().map(|a| a.auth_id))
                })
            })
            .collect();
        for handle in handles {
            outcomes.push(handle.join().expect("contention client thread"));
        }
    });

    // Steady-state completed work per client: the compute millis the lease
    // ended up with after every admission (and any Fair rebalance) landed.
    // A client that was never admitted completed no work at all.
    let mut work = Vec::with_capacity(clients);
    for (_, auth_id) in &outcomes {
        let millis = match auth_id {
            Some(id) => devmgr::get_lease(&transport, &dm_address, id)?
                .iter()
                .map(|g| g.compute_millis as u64)
                .sum(),
            None => 0,
        };
        work.push(millis);
    }
    let latencies: Vec<f64> = outcomes.iter().map(|(ms, _)| *ms).collect();
    let admitted = outcomes.iter().filter(|(_, id)| id.is_some()).count();
    Ok(ContentionRow {
        policy,
        clients,
        admitted,
        rejected: clients - admitted,
        latency_ms: Percentiles::of(&latencies),
        min_work: work.iter().copied().min().unwrap_or(0),
        max_work: work.iter().copied().max().unwrap_or(0),
    })
}

/// The outcome of the drain-and-migrate bit-correctness scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRow {
    /// Server the lease started on.
    pub from_server: String,
    /// Server the lease finished on.
    pub to_server: String,
    /// Row bands computed before the migration.
    pub bands_before: usize,
    /// Row bands computed after the migration.
    pub bands_after: usize,
    /// Whether the stitched image matches the single-node reference exactly.
    pub bit_correct: bool,
}

/// Compute one band of Mandelbrot rows on `device`, self-contained (own
/// context, queue and buffer), returning the per-pixel iteration counts.
fn run_band(
    client: &dopencl::Client,
    device: &dopencl::Device,
    params: &MandelbrotParams,
    row_offset: usize,
    rows: usize,
) -> dopencl::Result<Vec<u32>> {
    let context = Context::new(client, std::slice::from_ref(device))?;
    let queue = context.create_command_queue(device)?;
    let program = context.create_program_with_built_in_kernels(BUILTIN_KERNEL)?;
    program.build()?;
    let buffer = context.create_buffer(params.width * rows * 4)?;
    let kernel = program.create_kernel(BUILTIN_KERNEL)?;
    kernel.set_arg(0, &buffer)?;
    kernel.set_arg(1, Value::uint(params.width as u64))?;
    kernel.set_arg(2, Value::uint(rows as u64))?;
    kernel.set_arg(3, Value::double(params.x_min))?;
    kernel.set_arg(4, Value::double(params.y_min))?;
    kernel.set_arg(5, Value::double(params.dx()))?;
    kernel.set_arg(6, Value::double(params.dy()))?;
    kernel.set_arg(7, Value::uint(row_offset as u64))?;
    kernel.set_arg(8, Value::uint(params.max_iter as u64))?;
    queue.launch(&kernel, NdRange::two_d(params.width, rows)).submit()?.wait()?;
    let (data, _) = queue.read_buffer(&buffer).submit()?;
    Ok(data.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
}

/// Drain-and-migrate scenario: a client computes a Mandelbrot image in row
/// bands on its leased GPU while the node it runs on is drained for
/// maintenance.  The resource manager revokes the share, migrates the lease
/// to the second node and pushes a `LeaseChanged` notice; the client syncs
/// its server roster and finishes the remaining bands there.  The stitched
/// image must be bit-identical to the single-node reference.
pub fn migration_bit_correctness() -> dopencl::Result<MigrationRow> {
    workloads::register_all_built_in_kernels();
    let params = MandelbrotParams::small();
    let band_rows = params.height / 8;
    let protocol = |e: devmgr::DevMgrError| dopencl::DclError::Protocol(e.to_string());

    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    let transport: Arc<dyn gcf::Transport> = Arc::new(cluster.transport());
    let dm = DeviceManager::new(SchedulingStrategy::FirstFit);
    let dm_server = DeviceManagerServer::start(Arc::clone(&dm), Arc::clone(&transport), "devmngr")
        .map_err(protocol)?;
    for name in ["gpu-a", "gpu-b"] {
        let platform = Platform::gpu_server();
        let managed = ManagedDaemon::connect(
            Arc::clone(&transport),
            dm_server.address(),
            name,
            name,
            platform.devices(),
        )
        .map_err(protocol)?;
        cluster.add_node_with_policy(name, &platform, managed.policy())?;
    }

    let requirement =
        vec![DeviceRequirement { count: 1, attributes: vec![("TYPE".into(), "GPU".into())] }];
    let assignment =
        devmgr::request_assignment(&transport, dm_server.address(), "migrator", &requirement)
            .map_err(protocol)?;
    let from_server = assignment.servers[0].clone();

    let notices = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&notices);
    let _watch = devmgr::watch_lease(&transport, dm_server.address(), &assignment.auth_id, {
        move |notice| sink.lock().unwrap().push(notice)
    })
    .map_err(protocol)?;

    let client = cluster.detached_client("migrator", SimClock::new());
    client.set_auth_id(Some(assignment.auth_id.clone()));
    for server in &assignment.servers {
        client.connect_server(server)?;
    }

    // First half of the image on the original node.
    let mut image = Vec::with_capacity(params.pixels());
    let bands_before = 4;
    for band in 0..bands_before {
        let device = client.devices()[0].clone();
        image.extend(run_band(&client, &device, &params, band * band_rows, band_rows)?);
    }

    // Drain the node the lease lives on: the manager revokes the share,
    // re-places it on the other node and pushes LeaseChanged{Migrated}.
    devmgr::drain_server(&transport, dm_server.address(), &from_server).map_err(protocol)?;
    // Generous: the notice arrives in milliseconds on an idle machine, but
    // CI boxes run this while compiling or testing in parallel.
    let deadline = Instant::now() + Duration::from_secs(30);
    let servers = loop {
        if let Some(notice) = notices.lock().unwrap().first() {
            break notice.servers.clone();
        }
        if Instant::now() > deadline {
            return Err(dopencl::DclError::Protocol("no LeaseChanged notice".into()));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let to_server = servers[0].clone();
    client.sync_servers(&servers)?;

    // Remaining bands on the migrated lease's new node.
    let total_bands = params.height / band_rows;
    for band in bands_before..total_bands {
        let device = client.devices()[0].clone();
        image.extend(run_band(&client, &device, &params, band * band_rows, band_rows)?);
    }

    let (reference, _) = compute_rows(&params, 0, params.height);
    Ok(MigrationRow {
        from_server,
        to_server,
        bands_before,
        bands_after: total_bands - bands_before,
        bit_correct: image == reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_manager_keeps_execution_flat_under_contention() {
        let rows = run(&[1, 3], 24).unwrap();
        let without_1 = &rows[0];
        let with_1 = &rows[1];
        let without_3 = &rows[2];
        let with_3 = &rows[3];
        // With the device manager, per-instance execution time does not grow
        // with the number of concurrent instances.
        let exec_growth =
            with_3.breakdown.execution.as_secs_f64() / with_1.breakdown.execution.as_secs_f64();
        assert!((0.8..1.2).contains(&exec_growth), "execution grew by {exec_growth}");
        // Without it, instances serialize on one device.
        let serial_growth = without_3.breakdown.execution.as_secs_f64()
            / without_1.breakdown.execution.as_secs_f64();
        assert!(serial_growth > 2.0, "expected ~3x serialization, got {serial_growth}");
        // And the overall runtime with the manager is clearly better at 3
        // concurrent clients.
        assert!(with_3.breakdown.total() < without_3.breakdown.total());
    }

    #[test]
    fn fair_spreads_work_while_first_fit_starves() {
        let fair = cluster_contention(SchedulingStrategy::Fair, 40).unwrap();
        assert_eq!(fair.rejected, 0, "Fair admits everyone via rebalancing");
        let ratio = fair.work_ratio().expect("every client completed work");
        assert!(ratio <= 2.0, "fair max/min completed-work ratio {ratio} > 2");
        assert!(fair.latency_ms.p50 <= fair.latency_ms.p99);

        let first_fit = cluster_contention(SchedulingStrategy::FirstFit, 40).unwrap();
        assert_eq!(first_fit.admitted, 8, "one whole device per early client");
        assert_eq!(first_fit.min_work, 0, "latecomers starve under FirstFit");
        assert!(first_fit.work_ratio().is_none());
    }

    #[test]
    fn drained_lease_finishes_bit_correct_on_the_new_node() {
        let row = migration_bit_correctness().unwrap();
        assert_ne!(row.from_server, row.to_server);
        assert!(row.bands_after > 0);
        assert!(row.bit_correct, "stitched image must match the reference");
    }
}
