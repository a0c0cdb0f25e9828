//! Micro-benchmarks of the dOpenCL wire protocol: message encode/decode cost
//! and the round-trip latency of a forwarded API call over the in-process
//! transport (the fixed per-call overhead the paper attributes to
//! message-based communication).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dopencl::LocalCluster;
use gcf::LinkModel;
use vocl::Platform;

fn protocol_benches(c: &mut Criterion) {
    // Encode + decode a representative request.
    c.bench_function("protocol/encode_decode_enqueue_nd_range", |b| {
        use dopencl::protocol::{Request, WireNdRange};
        use gcf::wire::{Decode, Encode};
        let request = Request::EnqueueNdRange {
            queue_id: 2,
            kernel_id: 5,
            event_id: 9,
            range: WireNdRange(vocl::NdRange::two_d(4800, 3200)),
            wait_events: vec![7, 8],
        };
        b.iter(|| {
            let bytes = request.to_bytes();
            let back = Request::from_bytes(&bytes).unwrap();
            std::hint::black_box(back);
        });
    });

    // Full client→daemon→client round trip of a cheap API call.
    let mut cluster = LocalCluster::new(LinkModel::ideal());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    let client = cluster.client("bench").unwrap();
    let devices = client.devices();
    c.bench_function("protocol/create_release_context_round_trip", |b| {
        b.iter_batched(
            || devices.clone(),
            |devices| {
                let context = dopencl::Context::new(&client, &devices).unwrap();
                std::hint::black_box(context);
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, protocol_benches);
criterion_main!(benches);
