//! The device manager's placement state machine: the registry of servers
//! and leases, and every transition on it (place, rebalance, preempt, move
//! a share, evacuate, drain, release).
//!
//! It is pure bookkeeping.  No transition takes a lock or sends anything:
//! each updates the state and returns the pushes it implies as a
//! [`PushPlan`], which `manager::DeviceManager` sends once it has released
//! the state lock.  Daemon replies arrive on the manager's session receiver
//! threads, and those must stay free to take the lock.

use crate::error::{DevMgrError, Result};
use crate::manager::{Lease, LeaseFailover};
use crate::protocol::{DmDevice, DmNotification, DmQuota, LeaseChangeReason};
use crate::sched::{self, CandidateDevice, Placement, Strategy};
use crate::vdev::{ShareRequest, VirtualDevice, FULL_COMPUTE_MILLIS};
use gcf::rpc::Endpoint;
use gcf::wire::Encode;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};

/// One registered daemon.
pub(crate) struct RegisteredServer {
    pub(crate) name: String,
    pub(crate) address: String,
    devices: Vec<DmDevice>,
    endpoint: Option<Weak<Endpoint>>,
    /// Logical tick of the last heartbeat received from this server.
    last_beat: u64,
    /// The server missed too many beats (or was removed) and no longer
    /// hosts new shares; its existing shares were failed over.
    pub(crate) down: bool,
    /// The server is leaving gracefully: existing shares keep running but
    /// no new placements land on it.
    draining: bool,
}

/// One planned wire push.
pub(crate) struct Push {
    pub(crate) endpoint: Arc<Endpoint>,
    pub(crate) payload: Vec<u8>,
    /// Acknowledged call (lease installs) vs one-way notify (quota updates,
    /// revocations, watcher notices).
    pub(crate) acked: bool,
}

/// The pushes a transition implies, in the order they must be sent.
#[derive(Default)]
pub(crate) struct PushPlan {
    pub(crate) pushes: Vec<Push>,
}

impl PushPlan {
    /// Plan `note` to `endpoint`; a server without a live endpoint (or a
    /// gone watcher) gets nothing.
    fn push(&mut self, endpoint: Option<Arc<Endpoint>>, note: &DmNotification, acked: bool) {
        if let Some(endpoint) = endpoint {
            self.pushes.push(Push { endpoint, payload: note.to_bytes(), acked });
        }
    }
}

/// A share of a lease: (auth id, share id).
type ShareId = (String, u64);

/// The failover events of an evacuation and the pushes it implies.
type Evacuation = (Vec<LeaseFailover>, PushPlan);

/// An admitted lease and the pushes it implies: the acknowledged install
/// on its daemons, and the side effects of saturation moves (fair shrinks,
/// preemptions), which go out after the install.
pub(crate) struct Admission {
    pub(crate) lease: Lease,
    /// The addresses of the servers hosting the lease, sorted.
    pub(crate) servers: Vec<String>,
    pub(crate) install: PushPlan,
    pub(crate) effects: PushPlan,
}

/// The registry: servers, leases, their watchers, and the counters only
/// ever touched alongside them.
#[derive(Default)]
pub(crate) struct ManagerState {
    pub(crate) servers: Vec<RegisteredServer>,
    pub(crate) leases: BTreeMap<String, Lease>,
    /// auth id → client endpoints subscribed to lease-change pushes.
    watchers: HashMap<String, Vec<Weak<Endpoint>>>,
    round_robin_cursor: usize,
    /// The last lease number and share id issued (both start at 1).
    last_lease: u64,
    last_vd: u64,
    /// Logical health clock: heartbeats stamp it, `tick` advances it.
    /// Deterministic by design — tests drive time explicitly.
    health_tick: u64,
}

impl ManagerState {
    // ----- node lifecycle ---------------------------------------------------

    pub(crate) fn server_index(&self, name: &str) -> Result<usize> {
        self.servers
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| DevMgrError::Protocol(format!("unknown server '{name}'")))
    }

    /// Register a server, or re-register it: a re-registration replaces its
    /// address, devices and endpoint but keeps its allocations, and the
    /// server comes back up with a fresh beat.
    pub(crate) fn register(
        &mut self,
        name: &str,
        address: &str,
        devices: Vec<DmDevice>,
        endpoint: Option<Weak<Endpoint>>,
    ) -> usize {
        let server = RegisteredServer {
            name: name.to_string(),
            address: address.to_string(),
            devices,
            endpoint,
            last_beat: self.health_tick,
            down: false,
            draining: false,
        };
        match self.server_index(name) {
            Ok(index) => {
                self.servers[index] = server;
                index
            }
            Err(_) => {
                self.servers.push(server);
                self.servers.len() - 1
            }
        }
    }

    pub(crate) fn heartbeat(&mut self, name: &str) -> bool {
        let Ok(index) = self.server_index(name) else { return false };
        self.servers[index].last_beat = self.health_tick;
        self.servers[index].down = false;
        true
    }

    pub(crate) fn tick(&mut self) -> u64 {
        self.health_tick += 1;
        self.health_tick
    }

    /// Mark every up server that missed more than `max_missed` ticks down
    /// and fail its shares over.
    pub(crate) fn check_health(&mut self, strategy: Strategy, max_missed: u64) -> Evacuation {
        let now = self.health_tick;
        let newly_down: Vec<usize> = (0..self.servers.len())
            .filter(|&i| {
                let s = &self.servers[i];
                !s.down && now.saturating_sub(s.last_beat) > max_missed
            })
            .collect();
        for &i in &newly_down {
            self.servers[i].down = true;
        }
        self.evacuate(strategy, &newly_down, true)
    }

    /// Stop placing on `name` and move its shares off where capacity
    /// allows; the rest stay.
    pub(crate) fn drain(&mut self, strategy: Strategy, name: &str) -> Result<Evacuation> {
        let index = self.server_index(name)?;
        self.servers[index].draining = true;
        Ok(self.evacuate(strategy, &[index], false))
    }

    /// Take `name` out of the cluster and fail its shares over like a
    /// crash.
    pub(crate) fn remove(&mut self, strategy: Strategy, name: &str) -> Result<Evacuation> {
        let index = self.server_index(name)?;
        self.servers[index].down = true;
        self.servers[index].draining = true;
        let evacuated = self.evacuate(strategy, &[index], true);
        // Detach the endpoint only after planning, so the departing daemon
        // still receives the final RevokeLease/UpdateQuota pushes.
        self.servers[index].endpoint = None;
        Ok(evacuated)
    }

    // ----- capacity bookkeeping --------------------------------------------

    /// Every share on one physical device, with its lease, in lease order.
    fn tenants(
        &self,
        server: usize,
        device: u64,
    ) -> impl Iterator<Item = (&Lease, &VirtualDevice)> {
        self.leases.values().flat_map(move |l| {
            l.virtual_devices
                .iter()
                .filter(move |vd| vd.server == server && vd.device == device)
                .map(move |vd| (l, vd))
        })
    }

    /// Σ (compute millis, memory) allocated on one physical device.
    fn allocated_on(&self, server: usize, device: u64) -> (u32, u64) {
        self.tenants(server, device)
            .fold((0, 0), |(millis, mem), (_, vd)| (millis + vd.compute_millis, mem + vd.mem_bytes))
    }

    fn free_millis(&self, server: usize, device: u64) -> u32 {
        FULL_COMPUTE_MILLIS.saturating_sub(self.allocated_on(server, device).0)
    }

    /// Schedulable candidate devices matching `attributes`, in registration
    /// order, excluding `exclude` (devices already picked for the request
    /// in flight — each share of a request lands on a distinct device).
    fn candidates(
        &self,
        attributes: &[(String, String)],
        exclude: &[(usize, u64)],
    ) -> Vec<CandidateDevice> {
        let mut out = Vec::new();
        for (index, server) in self.servers.iter().enumerate() {
            if server.down || server.draining {
                continue;
            }
            for device in &server.devices {
                if exclude.contains(&(index, device.remote_id))
                    || !attributes.iter().all(|(k, v)| device.satisfies(k, v))
                {
                    continue;
                }
                let (millis, mem) = self.allocated_on(index, device.remote_id);
                out.push(CandidateDevice {
                    server: index,
                    device: device.remote_id,
                    free_millis: FULL_COMPUTE_MILLIS.saturating_sub(millis),
                    free_mem: device.global_mem_bytes.saturating_sub(mem),
                });
            }
        }
        out
    }

    fn any_matching_device(&self, attributes: &[(String, String)]) -> bool {
        self.servers.iter().any(|s| {
            !s.down && s.devices.iter().any(|d| attributes.iter().all(|(k, v)| d.satisfies(k, v)))
        })
    }

    /// Number of devices (on up servers) without any allocated share.
    pub(crate) fn free_devices(&self) -> usize {
        self.devices()
            .filter(|&(i, d)| !self.servers[i].down && self.allocated_on(i, d).0 == 0)
            .count()
    }

    /// Diagnostics counters: (free devices, devices with ≥ 1 share, leases).
    pub(crate) fn status(&self) -> (u32, u32, u32) {
        let assigned = self.devices().filter(|&(i, d)| self.allocated_on(i, d).0 > 0).count();
        (self.free_devices() as u32, assigned as u32, self.leases.len() as u32)
    }

    /// Every registered device as (server index, device id).
    fn devices(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.servers
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.devices.iter().map(move |d| (i, d.remote_id)))
    }

    fn share(&self, auth_id: &str, vd_id: u64) -> Option<VirtualDevice> {
        self.leases.get(auth_id)?.virtual_devices.iter().find(|vd| vd.vd_id == vd_id).cloned()
    }

    fn share_mut(&mut self, auth_id: &str, vd_id: u64) -> Option<&mut VirtualDevice> {
        self.leases.get_mut(auth_id)?.virtual_devices.iter_mut().find(|vd| vd.vd_id == vd_id)
    }

    // ----- assignment -------------------------------------------------------

    /// Admit a lease: place each share under `strategy` (applying the
    /// policy's saturation move when nothing fits), record the lease, and
    /// plan its install on every daemon hosting a share.  A rejected
    /// request changes nothing: the saturation moves made on its way are
    /// undone, and their pushes dropped.
    pub(crate) fn place(
        &mut self,
        strategy: Strategy,
        client_name: &str,
        requests: &[ShareRequest],
        priority: u32,
    ) -> Result<Admission> {
        let saved = (self.leases.clone(), self.watchers.clone(), self.last_vd);
        let admitted = self.admit(strategy, client_name, requests, priority);
        if admitted.is_err() {
            (self.leases, self.watchers, self.last_vd) = saved;
        }
        admitted
    }

    fn admit(
        &mut self,
        strategy: Strategy,
        client_name: &str,
        requests: &[ShareRequest],
        priority: u32,
    ) -> Result<Admission> {
        if requests.is_empty() {
            return Err(DevMgrError::NoMatchingDevices("empty assignment request".into()));
        }
        let mut picked: Vec<VirtualDevice> = Vec::new();
        let mut taken: Vec<(usize, u64)> = Vec::new();
        let mut effects = PushPlan::default();
        for request in requests {
            for _ in 0..request.count.max(1) {
                let candidates = self.candidates(&request.attributes, &taken);
                let placement = sched::place(
                    strategy,
                    &candidates,
                    request.compute_millis,
                    request.floor(),
                    request.mem_bytes,
                    self.round_robin_cursor,
                );
                let placement = match placement {
                    Some(p) => p,
                    None if !self.any_matching_device(&request.attributes) => {
                        return Err(DevMgrError::NoMatchingDevices(format!(
                            "no device satisfies {:?} for client '{client_name}'",
                            request.attributes
                        )))
                    }
                    None => match strategy {
                        Strategy::Fair => {
                            self.rebalance_for(request, priority, &taken, &mut effects)
                        }
                        Strategy::Priority => {
                            self.preempt_for(strategy, request, priority, &taken, &mut effects)
                        }
                        _ => None,
                    }
                    .ok_or_else(|| {
                        DevMgrError::Saturated(format!(
                            "no capacity for a {} milli share (floor {}) of {:?} \
                             for client '{client_name}'",
                            request.compute_millis,
                            request.floor(),
                            request.attributes
                        ))
                    })?,
                };
                taken.push((placement.server, placement.device));
                self.last_vd += 1;
                picked.push(VirtualDevice {
                    vd_id: self.last_vd,
                    server: placement.server,
                    device: placement.device,
                    compute_millis: placement.millis,
                    min_millis: request.floor(),
                    mem_bytes: request.mem_bytes,
                });
            }
        }

        if strategy == Strategy::RoundRobin {
            self.round_robin_cursor = self.round_robin_cursor.wrapping_add(1);
        }
        self.last_lease += 1;
        let lease = Lease {
            auth_id: format!("lease-{}", self.last_lease),
            client_name: client_name.to_string(),
            priority,
            virtual_devices: picked,
        };
        self.leases.insert(lease.auth_id.clone(), lease.clone());
        // Step 3b: each involved daemon learns the lease's quotas on its
        // devices.
        let mut install = PushPlan::default();
        let mut servers = Vec::new();
        for server in hosting_servers(&lease.virtual_devices) {
            self.plan_assign(&lease.auth_id, server, &mut install);
            servers.push(self.servers[server].address.clone());
        }
        servers.sort();
        Ok(Admission { lease, servers, install, effects })
    }

    /// The weighted fair division of one device among its tenants plus a
    /// `newcomer` demand (last), with each tenant's share; `None` when the
    /// floors alone exceed the device.
    fn fair_division(
        &self,
        server: usize,
        device: u64,
        newcomer: (u32, u32, u32),
    ) -> Option<(Vec<ShareId>, Vec<u32>)> {
        let (slots, mut demands): (Vec<ShareId>, Vec<_>) = self
            .tenants(server, device)
            .map(|(l, vd)| {
                (
                    (l.auth_id.clone(), vd.vd_id),
                    (l.priority.max(1), vd.min_millis, vd.compute_millis),
                )
            })
            .unzip();
        demands.push(newcomer);
        if demands.iter().map(|d| d.1).sum::<u32>() > FULL_COMPUTE_MILLIS {
            return None;
        }
        Some((slots, sched::fair_shares(FULL_COMPUTE_MILLIS, &demands)))
    }

    /// Fair-policy saturation move: find the device where shrinking every
    /// tenant toward its weighted fair share frees the most room for the
    /// newcomer, apply those shrinks, and return the newcomer's placement.
    fn rebalance_for(
        &mut self,
        request: &ShareRequest,
        priority: u32,
        exclude: &[(usize, u64)],
        plan: &mut PushPlan,
    ) -> Option<Placement> {
        let floor = request.floor();
        let newcomer = (priority.max(1), floor, request.compute_millis);
        let mut best: Option<(u32, usize, u64)> = None;
        for cand in self.candidates(&request.attributes, exclude) {
            if cand.free_mem < request.mem_bytes {
                continue;
            }
            let Some((_, grants)) = self.fair_division(cand.server, cand.device, newcomer) else {
                continue;
            };
            let granted = *grants.last().expect("newcomer demand present");
            if granted >= floor && best.map(|(g, _, _)| granted > g).unwrap_or(true) {
                best = Some((granted, cand.server, cand.device));
            }
        }
        let (_, server, device) = best?;

        // Apply the division on the chosen device (only ever shrink —
        // growing other tenants here would oscillate).
        let (slots, grants) = self.fair_division(server, device, newcomer)?;
        let mut shrunk: Vec<String> = Vec::new();
        for ((auth, vd_id), grant) in slots.into_iter().zip(grants) {
            let vd = self.share_mut(&auth, vd_id).expect("tenant listed");
            if grant < vd.compute_millis {
                vd.compute_millis = grant;
                shrunk.push(auth);
            }
        }
        let free = self.free_millis(server, device);
        if free < floor {
            return None; // arithmetic safety net; floors were checked above
        }
        for auth in shrunk {
            self.plan_quota_update(&auth, server, plan);
            self.plan_lease_changed(&auth, LeaseChangeReason::Shrunk, plan);
        }
        Some(Placement { server, device, millis: request.compute_millis.min(free) })
    }

    /// Priority-policy saturation move: on the best matching device, shrink
    /// shares of strictly lower-priority leases to their floors, then — if
    /// still short — revoke them entirely, moving each victim share to
    /// another device where capacity allows.
    fn preempt_for(
        &mut self,
        strategy: Strategy,
        request: &ShareRequest,
        priority: u32,
        exclude: &[(usize, u64)],
        plan: &mut PushPlan,
    ) -> Option<Placement> {
        let floor = request.floor();
        // Pick the device where lower-priority tenants hold the most
        // reclaimable capacity.
        let mut best: Option<(u32, usize, u64)> = None;
        for cand in self.candidates(&request.attributes, exclude) {
            if cand.free_mem < request.mem_bytes {
                continue;
            }
            let reclaimable: u32 = self
                .tenants(cand.server, cand.device)
                .filter(|(l, _)| l.priority < priority)
                .map(|(_, vd)| vd.compute_millis)
                .sum();
            let potential = cand.free_millis + reclaimable;
            if potential >= floor && best.map(|(p, _, _)| potential > p).unwrap_or(true) {
                best = Some((potential, cand.server, cand.device));
            }
        }
        let (_, server, device) = best?;

        // Victims on the chosen device, lowest priority first.
        let mut victims: Vec<(u32, String, u64)> = self
            .tenants(server, device)
            .filter(|(l, _)| l.priority < priority)
            .map(|(l, vd)| (l.priority, l.auth_id.clone(), vd.vd_id))
            .collect();
        victims.sort_by_key(|(prio, _, _)| *prio);

        // Stage 1: shrink victims to their floors.
        for (_, auth, vd_id) in &victims {
            if self.free_millis(server, device) >= floor {
                break;
            }
            let Some(vd) = self.share_mut(auth, *vd_id) else { continue };
            if vd.compute_millis > vd.min_millis {
                vd.compute_millis = vd.min_millis;
                self.plan_quota_update(auth, server, plan);
                self.plan_lease_changed(auth, LeaseChangeReason::Shrunk, plan);
            }
        }
        // Stage 2: evict the remaining victims, moving each share to
        // another device of its type where capacity allows; a lease left
        // with nothing ends.
        for (_, auth, vd_id) in &victims {
            if self.free_millis(server, device) >= floor {
                break;
            }
            let Some(vd) = self.share(auth, *vd_id) else { continue };
            // Never onto a device an earlier share of this request took:
            // that share is not in the state yet, so its capacity looks free.
            let away: Vec<_> = exclude.iter().copied().chain([(vd.server, vd.device)]).collect();
            let moved = self.move_share(strategy, auth, *vd_id, &away, true, plan);
            self.plan_quota_update(auth, vd.server, plan);
            if self.leases[auth.as_str()].virtual_devices.is_empty() {
                self.end_lease(auth, plan);
            } else {
                let reason = match moved {
                    Some(_) => LeaseChangeReason::Migrated,
                    None => LeaseChangeReason::Revoked,
                };
                self.plan_lease_changed(auth, reason, plan);
            }
        }
        let available = self.free_millis(server, device);
        (available >= floor).then(|| Placement {
            server,
            device,
            millis: request.compute_millis.min(available),
        })
    }

    // ----- moving shares ----------------------------------------------------

    /// The one way a share moves: re-place share `vd_id` of `auth_id` under
    /// `strategy` on a device of its type outside `exclude`.  When one fits,
    /// the share is rewritten in place and its install planned; when none
    /// does, it is dropped from the lease if `drop_if_stuck`, and otherwise
    /// stays where it is.  Returns where the share went.
    fn move_share(
        &mut self,
        strategy: Strategy,
        auth_id: &str,
        vd_id: u64,
        exclude: &[(usize, u64)],
        drop_if_stuck: bool,
        plan: &mut PushPlan,
    ) -> Option<(usize, u64)> {
        let vd = self.share(auth_id, vd_id)?;
        let attributes: Vec<(String, String)> = self.servers[vd.server]
            .devices
            .iter()
            .find(|d| d.remote_id == vd.device)
            .map(|d| vec![("TYPE".to_string(), d.device_type.clone())])
            .unwrap_or_default();
        let candidates = self.candidates(&attributes, exclude);
        let placement = sched::place(
            strategy,
            &candidates,
            vd.compute_millis,
            vd.min_millis.max(1),
            vd.mem_bytes,
            0,
        );
        let Some(p) = placement else {
            if drop_if_stuck {
                let lease = self.leases.get_mut(auth_id).expect("lease present");
                lease.virtual_devices.retain(|v| v.vd_id != vd_id);
            }
            return None;
        };
        let slot = self.share_mut(auth_id, vd_id).expect("share present");
        (slot.server, slot.device, slot.compute_millis) = (p.server, p.device, p.millis);
        self.plan_assign(auth_id, p.server, plan);
        Some((p.server, p.device))
    }

    /// Move every share off the given servers where capacity allows, one
    /// failover event per affected lease.  With `forced` the shares that
    /// cannot move are dropped (crash/remove semantics); without it they
    /// stay (drain semantics).
    fn evacuate(&mut self, strategy: Strategy, servers: &[usize], forced: bool) -> Evacuation {
        let mut plan = PushPlan::default();
        let mut events: Vec<LeaseFailover> = Vec::new();
        for &server in servers {
            let lease_ids: Vec<String> = self.leases.keys().cloned().collect();
            for auth_id in lease_ids {
                let affected: Vec<u64> = self.leases[&auth_id]
                    .virtual_devices
                    .iter()
                    .filter(|vd| vd.server == server)
                    .map(|vd| vd.vd_id)
                    .collect();
                if affected.is_empty() {
                    continue;
                }
                let mut moved = Vec::new();
                for &vd_id in &affected {
                    let to = self.move_share(strategy, &auth_id, vd_id, &[], forced, &mut plan);
                    moved.extend(to);
                }
                let degraded = moved.len() < affected.len();
                if self.leases[&auth_id].virtual_devices.is_empty() {
                    self.end_lease(&auth_id, &mut plan);
                } else if !moved.is_empty() || forced {
                    // The vacated daemon must drop its quota entry, or it
                    // would later report a (legitimate) client disconnect
                    // and release the lease out from under the node it
                    // migrated to.
                    self.plan_quota_update(&auth_id, server, &mut plan);
                    let reason = if moved.is_empty() {
                        LeaseChangeReason::Revoked
                    } else {
                        LeaseChangeReason::Migrated
                    };
                    self.plan_lease_changed(&auth_id, reason, &mut plan);
                }
                match events.iter_mut().find(|e| e.auth_id == auth_id) {
                    Some(event) => {
                        event.moved.extend(moved);
                        event.degraded |= degraded;
                    }
                    None => events.push(LeaseFailover { auth_id, moved, degraded }),
                }
            }
        }
        (events, plan)
    }

    /// Move every share of `auth_id` to another server.
    pub(crate) fn migrate_lease(
        &mut self,
        strategy: Strategy,
        auth_id: &str,
    ) -> Result<(LeaseFailover, PushPlan)> {
        let shares = match self.leases.get(auth_id) {
            Some(lease) => lease.virtual_devices.clone(),
            None => return Err(DevMgrError::UnknownLease(auth_id.to_string())),
        };
        let mut plan = PushPlan::default();
        let mut moved = Vec::new();
        for vd in &shares {
            // Migration means *another node*: exclude every device of the
            // share's current server.
            let exclude: Vec<(usize, u64)> =
                self.servers[vd.server].devices.iter().map(|d| (vd.server, d.remote_id)).collect();
            moved.extend(self.move_share(strategy, auth_id, vd.vd_id, &exclude, false, &mut plan));
        }
        if moved.is_empty() {
            return Err(DevMgrError::Saturated(format!(
                "no capacity on other nodes to migrate lease {auth_id}"
            )));
        }
        for server in hosting_servers(&shares) {
            self.plan_quota_update(auth_id, server, &mut plan);
        }
        self.plan_lease_changed(auth_id, LeaseChangeReason::Migrated, &mut plan);
        let degraded = moved.len() < shares.len();
        Ok((LeaseFailover { auth_id: auth_id.to_string(), moved, degraded }, plan))
    }

    // ----- watching and release ---------------------------------------------

    pub(crate) fn watch(&mut self, auth_id: &str, endpoint: Weak<Endpoint>) -> Result<()> {
        if !self.leases.contains_key(auth_id) {
            return Err(DevMgrError::UnknownLease(auth_id.to_string()));
        }
        self.watchers.entry(auth_id.to_string()).or_default().push(endpoint);
        Ok(())
    }

    pub(crate) fn release(&mut self, auth_id: &str) -> Result<PushPlan> {
        if !self.leases.contains_key(auth_id) {
            return Err(DevMgrError::UnknownLease(auth_id.to_string()));
        }
        let mut plan = PushPlan::default();
        self.end_lease(auth_id, &mut plan);
        Ok(plan)
    }

    /// End `auth_id`: revoke it at the daemons hosting it, tell its
    /// watchers it is gone, and forget it.
    fn end_lease(&mut self, auth_id: &str, plan: &mut PushPlan) {
        // When the lease's shares were already stripped (forced eviction)
        // the hosting set is unknown here — notify every daemon; revoking
        // an auth id a daemon never held is harmless.
        let involved: Vec<usize> = match self.leases.remove(auth_id) {
            Some(l) if !l.virtual_devices.is_empty() => hosting_servers(&l.virtual_devices),
            _ => (0..self.servers.len()).collect(),
        };
        let revoke = DmNotification::RevokeLease { auth_id: auth_id.to_string() };
        for server in involved {
            plan.push(self.endpoint(server), &revoke, false);
        }
        let gone = DmNotification::LeaseChanged {
            auth_id: auth_id.to_string(),
            servers: Vec::new(),
            reason: LeaseChangeReason::Revoked,
        };
        for watcher in self.watchers.remove(auth_id).unwrap_or_default() {
            plan.push(watcher.upgrade(), &gone, false);
        }
    }

    // ----- push planning ----------------------------------------------------

    fn endpoint(&self, server: usize) -> Option<Arc<Endpoint>> {
        self.servers[server].endpoint.as_ref().and_then(Weak::upgrade)
    }

    /// `auth_id`'s quotas on `server`'s devices, in grant order.
    fn quotas(&self, auth_id: &str, server: usize) -> Vec<DmQuota> {
        self.leases
            .get(auth_id)
            .into_iter()
            .flat_map(|l| &l.virtual_devices)
            .filter(|vd| vd.server == server)
            .map(|vd| DmQuota {
                device_id: vd.device,
                compute_millis: vd.compute_millis,
                mem_bytes: vd.mem_bytes,
            })
            .collect()
    }

    /// Plan an acknowledged AssignShares install of `auth_id`'s current
    /// quotas on `server` (the daemon must know the lease before the client
    /// presents it).
    fn plan_assign(&self, auth_id: &str, server: usize, plan: &mut PushPlan) {
        let shares = self.quotas(auth_id, server);
        if !shares.is_empty() {
            let note = DmNotification::AssignShares { auth_id: auth_id.to_string(), shares };
            plan.push(self.endpoint(server), &note, true);
        }
    }

    /// Plan a one-way quota refresh of `auth_id` on `server`: devices the
    /// lease no longer uses there are zeroed out.
    fn plan_quota_update(&self, auth_id: &str, server: usize, plan: &mut PushPlan) {
        let mut quotas = self.quotas(auth_id, server);
        for device in &self.servers[server].devices {
            let device_id = device.remote_id;
            if !quotas.iter().any(|q| q.device_id == device_id) {
                quotas.push(DmQuota { device_id, compute_millis: 0, mem_bytes: 0 });
            }
        }
        let note = DmNotification::UpdateQuota { auth_id: auth_id.to_string(), quotas };
        plan.push(self.endpoint(server), &note, false);
    }

    /// Plan LeaseChanged notices to every watcher of `auth_id`.
    fn plan_lease_changed(&self, auth_id: &str, reason: LeaseChangeReason, plan: &mut PushPlan) {
        let Some(watchers) = self.watchers.get(auth_id) else { return };
        let shares = self.leases.get(auth_id).map(|l| &l.virtual_devices[..]).unwrap_or_default();
        let mut servers: Vec<String> =
            hosting_servers(shares).into_iter().map(|s| self.servers[s].address.clone()).collect();
        servers.sort();
        servers.dedup();
        let note = DmNotification::LeaseChanged { auth_id: auth_id.to_string(), servers, reason };
        for watcher in watchers {
            plan.push(watcher.upgrade(), &note, false);
        }
    }
}

/// The indices of the servers hosting `shares`, ascending.
fn hosting_servers(shares: &[VirtualDevice]) -> Vec<usize> {
    let mut servers: Vec<usize> = shares.iter().map(|vd| vd.server).collect();
    servers.sort_unstable();
    servers.dedup();
    servers
}
