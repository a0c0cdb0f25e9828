//! Layer probes: each times one crate's public entry points in isolation,
//! so a per-layer number exists for every layer the workloads cross.
//! They run identically in every traced run, untraced: each is timed
//! directly, so no span overhead lands in its figure.

use crate::api::{dcl_kernels, vocl_buffer, vocl_context, vocl_kernels, Api, Dcl, Res, Vocl};
use crate::session::{tcp, Session};
use crate::stats::Samples;
use dopencl::protocol::{BatchCommand, BatchEntry, Request, WireNdRange};
use dopencl::{Context, Value};
use gcf::rpc::{Endpoint, EndpointHandler, NullHandler};
use gcf::wire::{Decode, Encode};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vocl::{KernelArg, NdRange};
use workloads::mandelbrot::{MandelbrotParams, KERNEL_SOURCE};

pub type LayerMetric = (&'static str, f64, &'static str);

/// The one-work-item kernel the launch round-trip probes run.
pub const INC_SOURCE: &str = "__kernel void inc(__global uint* c, uint k) { c[0] = c[0] + k; }";

/// Time `f` until `budget` is spent (at least `min` calls); seconds per call.
fn time_calls(budget: Duration, min: usize, mut f: impl FnMut() -> Res<()>) -> Res<Samples> {
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.len() < min || start.elapsed() < budget {
        let t = Instant::now();
        f()?;
        samples.push(0, t.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// Run every probe; `transfer_bytes` sizes the bulk and memcpy probes.
pub fn run(transfer_bytes: usize, small: bool) -> Res<Vec<LayerMetric>> {
    let budget = Duration::from_millis(if small { 20 } else { 300 });
    let mut out = Vec::new();

    let (encode, decode) = codec(budget)?;
    out.push(("protocol.encode_batch64_us", encode * 1e6, "us"));
    out.push(("protocol.decode_batch64_us", decode * 1e6, "us"));

    let (call_rtt, bulk) = gcf_endpoint(budget, transfer_bytes)?;
    let mib = transfer_bytes as f64 / (1024.0 * 1024.0);
    out.push(("gcf.call_rtt_us.p50", call_rtt * 1e6, "us"));
    out.push(("gcf.bulk_mib_s", mib / bulk, "MiB/s"));
    out.push(("host.memcpy_mib_s", mib / memcpy(budget, transfer_bytes)?, "MiB/s"));

    let dcl_rtt = dcl_launch_rtt(budget)?;
    let vocl_rtt = vocl_launch_rtt(budget)?;
    out.push(("client.launch_rtt_us.p50", dcl_rtt * 1e6, "us"));
    out.push(("vocl.launch_rtt_us.p50", vocl_rtt * 1e6, "us"));
    out.push(("overhead.launch_rtt", dcl_rtt / vocl_rtt, "ratio"));
    // Derived, not measured: what the launch round trip costs beyond one
    // bare gcf call and the launch itself on vocl.
    out.push(("daemon.self_us_per_launch", (dcl_rtt - call_rtt - vocl_rtt) * 1e6, "us"));

    let (build, vm) = oclc_probe(budget, small)?;
    out.push(("oclc.build_ms", build * 1e3, "ms"));
    out.push(("oclc.vm_mpix_s", vm, "Mpix/s"));

    let (assign, release) = devmgr_probe(budget)?;
    out.push(("devmgr.assign_ms", assign * 1e3, "ms"));
    out.push(("devmgr.release_ms", release * 1e3, "ms"));
    Ok(out)
}

/// `Request::EnqueueBatch` of 64 one-work-item launches: seconds per
/// `to_bytes` and per `from_bytes`.
fn codec(budget: Duration) -> Res<(f64, f64)> {
    let entries = (0..64u64)
        .map(|i| BatchEntry {
            command_id: 1000 + i,
            queue_id: 7,
            event_id: 2000 + i,
            wait_events: Vec::new(),
            command: BatchCommand::NdRange { kernel_id: 9, range: WireNdRange(NdRange::linear(1)) },
        })
        .collect();
    let request = Request::EnqueueBatch { entries };
    let bytes = request.to_bytes();
    let encode = time_calls(budget, 100, || {
        black_box(black_box(&request).to_bytes());
        Ok(())
    })?;
    let decode = time_calls(budget, 100, || match Request::from_bytes(black_box(&bytes)) {
        Ok(r) if r == request => Ok(()),
        Ok(_) => Err("EnqueueBatch did not decode to what was encoded".to_string()),
        Err(e) => Err(e.to_string()),
    })?;
    Ok((encode.median(), decode.median()))
}

struct Echo;

impl EndpointHandler for Echo {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }
}

/// Two `gcf` endpoints over TCP loopback: seconds per echo `call`, and per
/// `send_bulk` → `wait_bulk` of `bytes`.
fn gcf_endpoint(budget: Duration, bytes: usize) -> Res<(f64, f64)> {
    let transport = tcp();
    let listener = transport.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
    let address = listener.local_addr();
    let (client_conn, server_conn) = std::thread::scope(|s| {
        let accepted = s.spawn(|| listener.accept());
        let client = transport.connect(&address);
        let server = accepted.join().expect("accept thread panicked");
        (client, server)
    });
    let server =
        Endpoint::new(server_conn.map_err(|e| e.to_string())?, Arc::new(Echo), "probe-echo");
    let client =
        Endpoint::new(client_conn.map_err(|e| e.to_string())?, Arc::new(NullHandler), "probe");

    let payload = vec![0x42u8; 64];
    let call = time_calls(budget, 200, || {
        let reply = client.call(payload.clone()).map_err(|e| e.to_string())?;
        if reply == payload {
            Ok(())
        } else {
            Err("echo call returned other bytes".to_string())
        }
    })?;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    let bulk = time_calls(budget, 3, || {
        let id = client.allocate_id();
        client.send_bulk(id, &data).map_err(|e| e.to_string())?;
        let received = server.wait_bulk(id, Duration::from_secs(60)).map_err(|e| e.to_string())?;
        if received == data {
            Ok(())
        } else {
            Err("bulk stream arrived altered".to_string())
        }
    })?;
    client.close();
    server.close();
    Ok((call.median(), bulk.median()))
}

/// Seconds per host-to-host copy of `bytes`: the ceiling for any transfer.
fn memcpy(budget: Duration, bytes: usize) -> Res<f64> {
    let src = vec![0x17u8; bytes];
    let mut dst = vec![0u8; bytes];
    let s = time_calls(budget, 3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        Ok(())
    })?;
    Ok(s.median())
}

/// Seconds per blocking one-work-item launch through a daemon over TCP.
fn dcl_launch_rtt(budget: Duration) -> Res<f64> {
    let session = Session::open(1)?;
    let devices = session.client.devices();
    let context = Context::new(&session.client, &devices).map_err(|e| e.to_string())?;
    let queue = context.create_command_queue(&devices[0]).map_err(|e| e.to_string())?;
    let counter = context.create_buffer(4).map_err(|e| e.to_string())?;
    let kernel = dcl_kernels(
        &context,
        INC_SOURCE,
        "inc",
        vec![vec![(&counter).into(), Value::uint(1).into()]],
    )?
    .remove(0);
    let s = time_calls(budget, 200, || {
        let e = Dcl::launch(&queue, &kernel, NdRange::linear(1), None)?;
        Dcl::wait(&[e])
    })?;
    session.close()?;
    Ok(s.median())
}

/// Seconds per blocking one-work-item launch directly on vocl.
fn vocl_launch_rtt(budget: Duration) -> Res<f64> {
    let (context, queues) = vocl_context(1)?;
    let counter = vocl_buffer(&context, 4)?;
    let kernel = vocl_kernels(
        &context,
        INC_SOURCE,
        "inc",
        vec![vec![KernelArg::Buffer(counter), KernelArg::Scalar(Value::uint(1))]],
    )?
    .remove(0);
    let s = time_calls(budget, 200, || {
        let e = Vocl::launch(&queues[0], &kernel, NdRange::linear(1), None)?;
        Vocl::wait(&[e])
    })?;
    Ok(s.median())
}

/// `oclc`: milliseconds per build of the Mandelbrot source, and VM
/// throughput (million pixels per second) of one frame executed through
/// `vocl::Kernel::execute`.
fn oclc_probe(budget: Duration, small: bool) -> Res<(f64, f64)> {
    let build = time_calls(budget, 5, || {
        oclc::Program::build(KERNEL_SOURCE).map(drop).map_err(|e| e.to_string())
    })?;
    let params = frame_params(small);
    let (context, _) = vocl_context(1)?;
    let out = vocl_buffer(&context, params.pixels() * 4)?;
    let kernel = vocl_kernels(
        &context,
        KERNEL_SOURCE,
        "mandelbrot_rows",
        vec![frame_args(&params, out, 0, params.height)],
    )?
    .remove(0);
    let range = NdRange::two_d(params.width, params.height);
    let exec =
        time_calls(budget, 3, || kernel.execute(&range).map(drop).map_err(|e| e.to_string()))?;
    Ok((build.median(), params.pixels() as f64 / exec.median() / 1e6))
}

/// Seconds per lease assignment and per release, against a device manager
/// over TCP with one registered daemon.
fn devmgr_probe(budget: Duration) -> Res<(f64, f64)> {
    let transport = tcp();
    let manager = devmgr::DeviceManager::new(devmgr::Strategy::FirstFit);
    let server = devmgr::DeviceManagerServer::start(manager, Arc::clone(&transport), "127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    let platform = vocl::Platform::test_platform(1);
    let _daemon = devmgr::ManagedDaemon::connect(
        Arc::clone(&transport),
        server.address(),
        "probe-node",
        "probe-node:0",
        platform.devices(),
    )
    .map_err(|e| e.to_string())?;
    let requirement = devmgr::DeviceRequirement {
        count: 1,
        attributes: vec![("TYPE".to_string(), "CPU".to_string())],
    };
    let mut assign = Samples::default();
    let release = time_calls(budget, 20, || {
        let t = Instant::now();
        let lease = devmgr::request_assignment(
            &transport,
            server.address(),
            "probe",
            std::slice::from_ref(&requirement),
        )
        .map_err(|e| e.to_string())?;
        assign.push(0, t.elapsed().as_secs_f64());
        devmgr::release_assignment(&transport, &lease).map_err(|e| e.to_string())
    })?;
    server.shutdown();
    // `release` timed assignment + release together; take the release part.
    Ok((assign.median(), (release.median() - assign.median()).max(0.0)))
}

/// The Mandelbrot frame the workload and the probes render.
pub fn frame_params(small: bool) -> MandelbrotParams {
    if small {
        MandelbrotParams { width: 64, height: 32, max_iter: 64, ..MandelbrotParams::small() }
    } else {
        MandelbrotParams { width: 256, height: 128, max_iter: 256, ..MandelbrotParams::small() }
    }
}

/// Arguments of `mandelbrot_rows` rendering `rows` rows from `row_offset`
/// into `out`.
pub fn frame_args(
    p: &MandelbrotParams,
    out: Arc<vocl::Buffer>,
    row_offset: usize,
    rows: usize,
) -> Vec<KernelArg> {
    let mut args = vec![KernelArg::Buffer(out)];
    args.extend(frame_scalars(p, row_offset, rows).into_iter().map(KernelArg::Scalar));
    args
}

/// The scalar arguments (1..) of `mandelbrot_rows`.
pub fn frame_scalars(p: &MandelbrotParams, row_offset: usize, rows: usize) -> Vec<Value> {
    vec![
        Value::uint(p.width as u64),
        Value::uint(rows as u64),
        Value::float(p.x_min as f32),
        Value::float(p.y_min as f32),
        Value::float(p.dx() as f32),
        Value::float(p.dy() as f32),
        Value::uint(row_offset as u64),
        Value::uint(p.max_iter as u64),
    ]
}
