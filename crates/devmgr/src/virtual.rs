//! Fractional **virtual devices**: the unit of allocation of the cluster
//! resource manager.
//!
//! A physical device registered by a daemon is carved into fractional
//! shares: each lease holds [`VirtualDevice`]s naming a physical device
//! plus a *compute quota* (in millis of one device, so a full device is
//! [`FULL_COMPUTE_MILLIS`]) and a *memory quota* in bytes.  The manager
//! maintains the invariant that the shares allocated on one physical
//! device never exceed its capacity — Σ `compute_millis` ≤ 1000 and
//! Σ `mem_bytes` ≤ the device's global memory.
//!
//! A share also carries a *floor* (`min_millis`): rebalancing under the
//! [`crate::Strategy::Fair`] policy and preemption under
//! [`crate::Strategy::Priority`] may shrink a grant, but never below its
//! floor — below that the client would rather be told the cluster is
//! saturated ([`crate::DevMgrError::Saturated`]) than receive an unusable
//! sliver.

use crate::protocol::DmShareRequest;

/// Compute capacity of one whole physical device, in millis.
pub const FULL_COMPUTE_MILLIS: u32 = 1000;

/// A fractional slice of one physical device, granted to one lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualDevice {
    /// Unique id of this virtual device (stable across migrations of the
    /// *lease*; a migration that moves the share to another physical device
    /// keeps the id).
    pub vd_id: u64,
    /// Index of the owning server in the manager's registration order.
    pub server: usize,
    /// Daemon-local id of the physical device the share is carved from.
    pub device: u64,
    /// Granted compute share in millis (1000 = the whole device).
    pub compute_millis: u32,
    /// Floor below which rebalancing/preemption may not shrink the grant.
    pub min_millis: u32,
    /// Granted device-memory quota in bytes (0 = unlimited/unspecified).
    pub mem_bytes: u64,
}

/// What a client asks the scheduler for (one entry of an assignment
/// request; `count` identical shares are placed on distinct devices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareRequest {
    /// Number of shares with these parameters, each on a distinct device.
    pub count: u32,
    /// Attribute constraints on the physical device (`TYPE`, `VENDOR`, ...,
    /// as in [`crate::DmDevice::satisfies`]).
    pub attributes: Vec<(String, String)>,
    /// Desired compute share in millis; the grant is capped by what is
    /// free (but never below `min_millis`).
    pub compute_millis: u32,
    /// Smallest acceptable grant.  0 is normalized to `compute_millis`
    /// (all-or-nothing).
    pub min_millis: u32,
    /// Required device-memory quota in bytes (0 = no requirement).
    pub mem_bytes: u64,
}

impl ShareRequest {
    /// A whole-device request (what [`crate::request_assignment`] asks
    /// for): 1000 millis, all-or-nothing, no memory quota.
    pub fn whole_device(count: u32, attributes: Vec<(String, String)>) -> ShareRequest {
        ShareRequest {
            count,
            attributes,
            compute_millis: FULL_COMPUTE_MILLIS,
            min_millis: FULL_COMPUTE_MILLIS,
            mem_bytes: 0,
        }
    }

    /// The effective floor: `min_millis`, or the full desired share when no
    /// floor was given.
    pub fn floor(&self) -> u32 {
        if self.min_millis == 0 {
            self.compute_millis
        } else {
            self.min_millis.min(self.compute_millis)
        }
    }
}

impl From<&DmShareRequest> for ShareRequest {
    fn from(w: &DmShareRequest) -> ShareRequest {
        ShareRequest {
            count: w.count,
            attributes: w.attributes.clone(),
            compute_millis: w.compute_millis,
            min_millis: w.min_millis,
            mem_bytes: w.mem_bytes,
        }
    }
}

/// Σ compute millis of the shares in `allocs`.
pub fn allocated_millis<'a>(allocs: impl IntoIterator<Item = &'a VirtualDevice>) -> u32 {
    allocs.into_iter().map(|vd| vd.compute_millis).sum()
}

/// Σ memory quota of the shares in `allocs`.
pub fn allocated_mem<'a>(allocs: impl IntoIterator<Item = &'a VirtualDevice>) -> u64 {
    allocs.into_iter().map(|vd| vd.mem_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_device_request_shape() {
        let r = ShareRequest::whole_device(2, vec![("TYPE".into(), "GPU".into())]);
        assert_eq!(r.count, 2);
        assert_eq!(r.compute_millis, FULL_COMPUTE_MILLIS);
        assert_eq!(r.floor(), FULL_COMPUTE_MILLIS);
    }

    #[test]
    fn floor_normalization() {
        let mut r = ShareRequest::whole_device(1, vec![]);
        r.compute_millis = 400;
        r.min_millis = 0;
        assert_eq!(r.floor(), 400, "no floor means all-or-nothing");
        r.min_millis = 100;
        assert_eq!(r.floor(), 100);
        r.min_millis = 900;
        assert_eq!(r.floor(), 400, "floor is capped by the desired share");
    }

    #[test]
    fn allocation_sums() {
        let vds = [
            VirtualDevice {
                vd_id: 1,
                server: 0,
                device: 0,
                compute_millis: 300,
                min_millis: 100,
                mem_bytes: 64,
            },
            VirtualDevice {
                vd_id: 2,
                server: 0,
                device: 0,
                compute_millis: 500,
                min_millis: 100,
                mem_bytes: 32,
            },
        ];
        assert_eq!(allocated_millis(&vds), 800);
        assert_eq!(allocated_mem(&vds), 96);
    }
}
