//! Property tests of the cluster scheduler: the weighted fair division
//! never starves a tenant below its floor, and no sequence of fractional
//! assignments, releases and node-lifecycle operations — under any
//! policy — ever oversubscribes a physical device beyond 100% of its
//! compute millis or its memory.

use devmgr::sched::fair_shares;
use devmgr::{
    DevMgrError, DeviceManager, DmDevice, Lease, ShareRequest, Strategy, FULL_COMPUTE_MILLIS,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn gpu(id: u64) -> DmDevice {
    DmDevice {
        remote_id: id,
        name: format!("GPU {id}"),
        vendor: "ACME".into(),
        device_type: "GPU".into(),
        compute_units: 32,
        global_mem_bytes: 4 << 30,
    }
}

fn gpu_share(desired: u32, floor: u32) -> ShareRequest {
    ShareRequest {
        count: 1,
        attributes: vec![("TYPE".into(), "GPU".into())],
        compute_millis: desired,
        min_millis: floor,
        mem_bytes: 0,
    }
}

/// Every lease with its shares in `vd_id` order, leases in auth-id order.
fn sorted_leases(dm: &DeviceManager) -> Vec<Lease> {
    let mut leases = dm.leases();
    for lease in &mut leases {
        lease.virtual_devices.sort_by_key(|vd| vd.vd_id);
    }
    leases.sort_by(|a, b| a.auth_id.cmp(&b.auth_id));
    leases
}

proptest! {
    /// `fair_shares` is safe for arbitrary demand sets: every tenant
    /// receives at least its (desired-capped) floor — no starvation — at
    /// most its desired share, and the division never hands out more than
    /// the capacity (unless the floors alone oversubscribe it, which
    /// admission control prevents upstream).
    #[test]
    fn fair_shares_honour_floors_caps_and_capacity(
        capacity in 0u32..=4_000,
        demands in proptest::collection::vec((0u32..=8, 0u32..=500, 0u32..=1_500), 0..12),
    ) {
        let grants = fair_shares(capacity, &demands);
        prop_assert_eq!(grants.len(), demands.len());
        for (grant, &(_, floor, desired)) in grants.iter().zip(&demands) {
            prop_assert!(*grant <= desired, "grant {grant} above desired {desired}");
            prop_assert!(
                *grant >= floor.min(desired),
                "grant {grant} starves the floor {floor} (desired {desired})"
            );
        }
        let floors: u32 = demands.iter().map(|&(_, floor, desired)| floor.min(desired)).sum();
        let total: u32 = grants.iter().sum();
        prop_assert!(
            total <= capacity.max(floors),
            "division hands out {total} of {capacity} (floors {floors})"
        );
    }

    /// Equal-weight unsatisfied tenants end up with equal shares (±1 crumb
    /// from integer rounding): the no-starvation half of weighted fairness.
    #[test]
    fn fair_shares_equalize_equal_weights(
        capacity in 1u32..=4_000,
        tenants in 1usize..=16,
    ) {
        let demands: Vec<(u32, u32, u32)> = vec![(1, 0, u32::MAX); tenants];
        let grants = fair_shares(capacity, &demands);
        let min = *grants.iter().min().unwrap();
        let max = *grants.iter().max().unwrap();
        prop_assert!(max - min <= 1, "equal weights diverged: min {min}, max {max}");
    }

    /// Drive a random sequence of fractional requests of 1–3 shares,
    /// releases and node-lifecycle operations (drain, forced removal,
    /// lease migration, a health sweep that silences one server,
    /// re-registration) at a live 3-node manager under every policy.  After
    /// every operation, no device's shares may sum past 100% of its compute
    /// millis or past its memory, no admitted lease may ever sit below its
    /// floor (Fair/Priority shrink grants during rebalancing and
    /// preemption, but never through the floor), no lease is empty or
    /// hosted on a down server, a newly admitted lease never lands on a
    /// draining or down server, and a rejected request leaves every lease
    /// as it was.
    #[test]
    fn no_policy_oversubscribes_or_starves(
        strategy_index in 0usize..4,
        ops in proptest::collection::vec(
            (
                (1u32..=1_000, 1u32..=150, 1u32..=4, any::<bool>()),
                (0u32..10, 0usize..3, 0u64..=3, 1usize..=3),
            ),
            1..32,
        ),
    ) {
        let strategy = [Strategy::FirstFit, Strategy::RoundRobin, Strategy::Fair, Strategy::Priority]
            [strategy_index];
        let dm = DeviceManager::new(strategy);
        let servers: [(&str, Vec<DmDevice>); 3] = [
            ("srv-a", (0..4).map(gpu).collect()),
            ("srv-b", (4..8).map(gpu).collect()),
            ("srv-c", (8..12).map(gpu).collect()),
        ];
        for (name, devices) in &servers {
            dm.register_server(name, name, devices.clone(), None);
        }
        let device_mem: HashMap<(usize, u64), u64> = servers
            .iter()
            .enumerate()
            .flat_map(|(s, (_, devices))| {
                devices.iter().map(move |d| ((s, d.remote_id), d.global_mem_bytes))
            })
            .collect();
        // Servers drained or removed since their last registration: no new
        // placement may land on them.
        let mut draining = [false; 3];

        let mut held: Vec<String> = Vec::new();
        for (i, &((desired, floor, weight, release_one), (lifecycle, target, mem_gib, shares))) in
            ops.iter().enumerate()
        {
            let (name, devices) = &servers[target];
            match lifecycle {
                0 => {
                    dm.drain_server(name).unwrap();
                    draining[target] = true;
                }
                1 => {
                    dm.remove_server(name).unwrap();
                    draining[target] = true;
                }
                2 if !held.is_empty() => {
                    // The lease may be gone (preempted, or degraded to
                    // nothing), or have nowhere else to go.
                    match dm.migrate_lease(&held[i % held.len()]) {
                        Ok(_)
                        | Err(DevMgrError::UnknownLease(_))
                        | Err(DevMgrError::Saturated(_)) => {}
                        Err(e) => prop_assert!(false, "unexpected migration error: {e}"),
                    }
                }
                3 => {
                    // One health sweep in which every server but `target`
                    // beats: `target` goes down and its shares fail over.
                    dm.tick();
                    for (other, _) in servers.iter().filter(|(n, _)| n != name) {
                        prop_assert!(dm.heartbeat(other));
                    }
                    dm.check_health(0);
                }
                4 => {
                    dm.register_server(name, name, devices.clone(), None);
                    draining[target] = false;
                }
                _ => {}
            }
            if release_one && !held.is_empty() {
                // Preemption under Priority may already have released the
                // lease; a stale id is fine.
                let _ = dm.release(&held.remove(i % held.len()));
            }
            let floor = floor.min(desired);
            let mut share = gpu_share(desired, floor);
            share.mem_bytes = mem_gib << 30;
            let up: Vec<bool> = dm.server_health().into_iter().map(|(_, up)| up).collect();
            let before = sorted_leases(&dm);
            let assigned = dm.assign_shares(&format!("client-{i}"), &vec![share; shares], weight);
            if assigned.is_err() {
                // A rejected request changes nothing, not even through a
                // saturation move made on its way.
                prop_assert_eq!(sorted_leases(&dm), before, "a rejected request moved shares");
            }
            match assigned {
                Ok((lease, _)) => {
                    for vd in &lease.virtual_devices {
                        prop_assert!(
                            up[vd.server] && !draining[vd.server],
                            "lease {} admitted onto down or draining server {}",
                            lease.auth_id,
                            vd.server
                        );
                    }
                    held.push(lease.auth_id);
                }
                Err(DevMgrError::Saturated(_)) => {}
                // Every server of the cluster can be down at once.
                Err(DevMgrError::NoMatchingDevices(_)) if up.iter().all(|up| !up) => {}
                Err(e) => prop_assert!(false, "unexpected assignment error: {e}"),
            }

            let up: Vec<bool> = dm.server_health().into_iter().map(|(_, up)| up).collect();
            let mut per_device: HashMap<(usize, u64), (u32, u64)> = HashMap::new();
            let mut vd_ids = HashSet::new();
            let leases = dm.leases();
            for lease in &leases {
                prop_assert!(!lease.virtual_devices.is_empty(), "lease {} is empty", lease.auth_id);
                for vd in &lease.virtual_devices {
                    prop_assert!(
                        vd.compute_millis >= vd.min_millis && vd.compute_millis > 0,
                        "lease {} starved: {} millis under a floor of {}",
                        lease.auth_id,
                        vd.compute_millis,
                        vd.min_millis
                    );
                    prop_assert!(vd_ids.insert(vd.vd_id), "vd_id {} granted twice", vd.vd_id);
                    prop_assert!(
                        up[vd.server],
                        "lease {} keeps a share on down server {}",
                        lease.auth_id,
                        vd.server
                    );
                    let slot = per_device.entry((vd.server, vd.device)).or_default();
                    slot.0 += vd.compute_millis;
                    slot.1 += vd.mem_bytes;
                }
            }
            for (&(server, device), &(total, mem)) in &per_device {
                prop_assert!(
                    total <= FULL_COMPUTE_MILLIS,
                    "device {device} on server {server} oversubscribed: {total} millis"
                );
                let capacity = device_mem[&(server, device)];
                prop_assert!(
                    mem <= capacity,
                    "device {device} on server {server} oversubscribed: {mem} of {capacity} bytes"
                );
            }
            let (free, assigned, lease_count) = dm.status();
            prop_assert_eq!(lease_count as usize, dm.lease_count());
            prop_assert_eq!(lease_count as usize, leases.len());
            prop_assert_eq!(free as usize, dm.free_device_count());
            prop_assert_eq!(assigned as usize, per_device.len());
        }
    }
}
