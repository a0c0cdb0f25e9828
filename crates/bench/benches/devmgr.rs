//! Micro-benchmarks of the device manager: assignment-request throughput
//! under the two scheduling strategies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use devmgr::{DeviceManager, DmDevice, ShareRequest, Strategy};

fn registry(dm: &DeviceManager, servers: usize, gpus_per_server: usize) {
    for s in 0..servers {
        let devices: Vec<DmDevice> = (0..gpus_per_server)
            .map(|g| DmDevice {
                remote_id: (s * 100 + g) as u64,
                name: format!("GPU {s}-{g}"),
                vendor: "NVIDIA".into(),
                device_type: "GPU".into(),
                compute_units: 30,
                global_mem_bytes: 4 << 30,
            })
            .collect();
        dm.register_server(&format!("server{s}"), &format!("server{s}"), devices, None);
    }
}

fn devmgr_benches(c: &mut Criterion) {
    let requirement = [ShareRequest::whole_device(1, vec![("TYPE".into(), "GPU".into())])];
    for strategy in [Strategy::FirstFit, Strategy::RoundRobin] {
        let name = format!("devmgr/assign_release_{strategy:?}");
        c.bench_function(&name, |b| {
            b.iter_batched(
                || {
                    let dm = DeviceManager::new(strategy);
                    registry(&dm, 8, 4);
                    dm
                },
                |dm| {
                    // Assign every device, then release every lease.
                    let mut leases = Vec::new();
                    for i in 0..32 {
                        let (lease, _) =
                            dm.assign_shares(&format!("client-{i}"), &requirement, 0).unwrap();
                        leases.push(lease.auth_id);
                    }
                    for auth in leases {
                        dm.release(&auth).unwrap();
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, devmgr_benches);
criterion_main!(benches);
