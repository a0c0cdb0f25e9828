//! Micro-benchmarks of the MSI coherence protocol: the cost of moving a
//! shared buffer between devices on different servers through the client
//! (the write-invalidate path of Section III-D), and the client-side cost of
//! the range directory's bookkeeping alone.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dopencl::coherence::{BufferDirectory, ByteRange, CoherenceMode};
use dopencl::{Context, LocalCluster, NdRange, Value};
use gcf::LinkModel;
use vocl::Platform;

fn coherence_benches(c: &mut Criterion) {
    let mut cluster = LocalCluster::new(LinkModel::ideal());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client("coherence-bench").unwrap();
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let size = 1 << 20;
    let buffer = context.create_buffer(size).unwrap();
    let program = context
        .create_program_with_source("__kernel void touch(__global int* a) { a[0] = a[0] + 1; }")
        .unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("touch").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    let mut group = c.benchmark_group("coherence");
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function("ping_pong_1MiB_between_servers", |b| {
        b.iter(|| {
            // Alternating launches on the two servers force the MSI
            // directory to move the buffer through the client every time.
            let e0 = q0.launch(&kernel, NdRange::linear(1)).submit().unwrap();
            e0.wait().unwrap();
            let e1 = q1.launch(&kernel, NdRange::linear(1)).submit().unwrap();
            e1.wait().unwrap();
        });
    });
    group.bench_function("repeated_launch_same_server_no_traffic", |b| {
        // Baseline: staying on one server needs no coherence transfers after
        // the first validation.
        let _ = kernel.set_arg(0, Value::int(0)).is_err();
        kernel.set_arg(0, &buffer).unwrap();
        b.iter(|| {
            let e0 = q0.launch(&kernel, NdRange::linear(1)).submit().unwrap();
            e0.wait().unwrap();
        });
    });
    group.finish();
}

/// Slots of the sparse-round directory bench, patches written per round, and
/// the shared buffer's size: perfbench's `bulk_transfer` layout.
const SLOTS: usize = 2048;
const PATCHES: usize = 16;
const SHARED_BYTES: usize = 32 << 20;

/// Seeded, non-overlapping (offset, size) slots of 64 B to 4 KiB, one per
/// `SHARED_BYTES / SLOTS` stride, in a seeded order.
fn slots() -> Vec<(usize, usize)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let stride = SHARED_BYTES / SLOTS;
    let mut slots: Vec<(usize, usize)> = (0..SLOTS)
        .map(|k| {
            let size = 64 + next(4096 - 64);
            (k * stride + next(stride - size), size)
        })
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, next(i + 1));
    }
    slots
}

/// One `bulk_transfer` sparse round on the client's directory alone: 16
/// host writes through server 0, the delta plan for server 1, and its 16
/// upload records, on a directory that every slot written once has split
/// into 4 097 segments.
fn directory_benches(c: &mut Criterion) {
    let slots = slots();
    let patch = vec![0xa5u8; 4096];
    let mut dir = BufferDirectory::new_with_mode([0, 1], SHARED_BYTES, CoherenceMode::Range);
    for &(offset, size) in &slots {
        dir.record_host_write(0, offset, &patch[..size]);
    }
    dir.record_upload(1, ByteRange::new(0, SHARED_BYTES));
    assert_eq!(dir.segment_count(), 2 * SLOTS + 1);
    let mut written = 0;
    let mut group = c.benchmark_group("coherence");
    group.bench_function("directory_sparse_round_4096_segments", |b| {
        b.iter(|| {
            for _ in 0..PATCHES {
                let (offset, size) = slots[written % SLOTS];
                written += 1;
                dir.record_host_write(0, offset, &patch[..size]);
            }
            let plan = dir.plan_delta(1, dir.full_range());
            assert_eq!(plan.uploads.len(), PATCHES);
            for upload in &plan.uploads {
                dir.record_upload(1, *upload);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, directory_benches, coherence_benches);
criterion_main!(benches);
