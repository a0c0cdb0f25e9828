//! Pluggable scheduling policies of the cluster resource manager.
//!
//! The scheduler answers one question: *which physical device should host
//! the next fractional share, and how big should the grant be?*  The
//! manager builds a [`CandidateDevice`] view of every schedulable device
//! (up, not draining, attribute-matching, with its remaining capacity) and
//! the policy picks:
//!
//! * [`Strategy::FirstFit`] — registration order, first device with room;
//!   greedy, no rebalancing.  Early clients get their full ask, late
//!   clients get the scraps — the skew the fig6 harness demonstrates.
//! * [`Strategy::RoundRobin`] — like FirstFit but rotating the starting
//!   device, so concurrent whole-device clients spread out.
//! * [`Strategy::Fair`] — weighted fair queuing: place on the device with
//!   the most remaining capacity, and when the cluster saturates, shrink
//!   existing grants toward their weighted fair share
//!   ([`fair_shares`]) to admit newcomers — never below any share's floor.
//! * [`Strategy::Priority`] — like FirstFit until saturated, then shrink
//!   (and, if need be, revoke and migrate) shares of strictly
//!   lower-priority leases to make room.
//!
//! Admission control is the flip side: when no policy move can produce a
//! grant of at least the request's floor, the request is rejected with
//! [`crate::DevMgrError::Saturated`] instead of degrading every tenant.

/// How shares are placed on (and rebalanced across) physical devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Walk devices in registration order and take the first with room.
    #[default]
    FirstFit,
    /// Spread placements across devices round-robin (the behaviour the
    /// paper's Figure 6 relies on for whole-device leases).
    RoundRobin,
    /// Weighted fair queuing with rebalancing: saturation shrinks existing
    /// grants toward their fair share to admit newcomers.
    Fair,
    /// Strict priorities: saturation preempts (shrinks, then revokes and
    /// migrates) shares of lower-priority leases.
    Priority,
}

/// The scheduler's view of one schedulable physical device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateDevice {
    /// Server index in registration order.
    pub server: usize,
    /// Daemon-local device id.
    pub device: u64,
    /// Compute millis not yet allocated.
    pub free_millis: u32,
    /// Device memory not yet promised to any share.
    pub free_mem: u64,
}

/// A placement decision: where the share goes and how much it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Server index.
    pub server: usize,
    /// Daemon-local device id.
    pub device: u64,
    /// Granted compute millis (between the request's floor and its desired
    /// share).
    pub millis: u32,
}

/// Pick a device for a share wanting `desired` millis (floor `floor`) and
/// `mem_bytes` of memory.  `candidates` must already be filtered to
/// attribute-matching devices on schedulable servers; `cursor` seeds the
/// round-robin rotation.  Returns `None` when no candidate has room — the
/// caller then applies the policy's saturation move (rebalance, preempt)
/// or rejects.
pub fn place(
    strategy: Strategy,
    candidates: &[CandidateDevice],
    desired: u32,
    floor: u32,
    mem_bytes: u64,
    cursor: usize,
) -> Option<Placement> {
    let fits = |c: &CandidateDevice| c.free_millis >= floor && c.free_mem >= mem_bytes;
    let grant = |c: &CandidateDevice| Placement {
        server: c.server,
        device: c.device,
        millis: desired.min(c.free_millis),
    };
    match strategy {
        Strategy::FirstFit | Strategy::Priority => candidates.iter().find(|c| fits(c)).map(grant),
        Strategy::RoundRobin => {
            if candidates.is_empty() {
                return None;
            }
            let n = candidates.len();
            let start = cursor % n;
            (0..n).map(|i| &candidates[(start + i) % n]).find(|c| fits(c)).map(grant)
        }
        // Fair: the device with the most free capacity first, so equal
        // requests spread out and each lands where rebalancing will bite
        // last.  The grant is what every policy grants.
        Strategy::Fair => candidates
            .iter()
            .filter(|c| fits(c))
            .max_by_key(|c| (c.free_millis, c.free_mem))
            .map(grant),
    }
}

/// Weighted max–min fair division ("water filling") of `capacity` millis
/// among tenants with `(weight, floor, desired)` demands.
///
/// Every tenant first receives its floor (floors are honoured even if they
/// oversubscribe — the caller's admission control prevents that), then the
/// remaining capacity is filled in proportion to weight, capped at each
/// tenant's desired share; capacity freed by capped tenants is
/// redistributed among the rest.  The result is the canonical WFQ
/// allocation: `max/min ≤ max-weight/min-weight` for unsatisfied tenants.
pub fn fair_shares(capacity: u32, demands: &[(u32, u32, u32)]) -> Vec<u32> {
    let n = demands.len();
    let mut grant: Vec<u32> =
        demands.iter().map(|&(_, floor, desired)| floor.min(desired)).collect();
    let mut remaining = capacity.saturating_sub(grant.iter().sum::<u32>());
    let mut open: Vec<usize> = (0..n).filter(|&i| grant[i] < demands[i].2).collect();
    while remaining > 0 && !open.is_empty() {
        let total_weight: u64 = open.iter().map(|&i| demands[i].0.max(1) as u64).sum();
        let mut distributed = 0u32;
        let mut still_open = Vec::new();
        for &i in &open {
            let weight = demands[i].0.max(1) as u64;
            let slice = ((remaining as u64 * weight) / total_weight) as u32;
            let room = demands[i].2 - grant[i];
            let take = slice.min(room);
            grant[i] += take;
            distributed += take;
            if grant[i] < demands[i].2 {
                still_open.push(i);
            }
        }
        if distributed == 0 {
            // Integer rounding left crumbs: hand them out one by one,
            // heaviest weight first, until everyone is satisfied or the
            // crumbs run out.
            let mut order = open.clone();
            order.sort_by_key(|&i| std::cmp::Reverse(demands[i].0));
            for &i in &order {
                if remaining == 0 {
                    break;
                }
                if grant[i] < demands[i].2 {
                    grant[i] += 1;
                    remaining -= 1;
                }
            }
            break;
        }
        remaining -= distributed;
        open = still_open;
    }
    grant
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(server: usize, device: u64, free_millis: u32, free_mem: u64) -> CandidateDevice {
        CandidateDevice { server, device, free_millis, free_mem }
    }

    #[test]
    fn first_fit_takes_registration_order() {
        let c = [dev(0, 0, 200, 1000), dev(0, 1, 1000, 1000), dev(1, 0, 1000, 1000)];
        let p = place(Strategy::FirstFit, &c, 500, 100, 0, 0).unwrap();
        assert_eq!((p.server, p.device, p.millis), (0, 0, 200));
    }

    #[test]
    fn fair_picks_least_loaded() {
        let c = [dev(0, 0, 200, 1000), dev(0, 1, 900, 1000), dev(1, 0, 600, 1000)];
        let p = place(Strategy::Fair, &c, 500, 100, 0, 0).unwrap();
        assert_eq!((p.server, p.device, p.millis), (0, 1, 500));
    }

    #[test]
    fn round_robin_rotates_with_cursor() {
        let c = [dev(0, 0, 1000, 0), dev(1, 0, 1000, 0)];
        let p0 = place(Strategy::RoundRobin, &c, 1000, 1000, 0, 0).unwrap();
        let p1 = place(Strategy::RoundRobin, &c, 1000, 1000, 0, 1).unwrap();
        assert_ne!((p0.server, p0.device), (p1.server, p1.device));
    }

    #[test]
    fn floor_and_memory_act_as_admission_filters() {
        let c = [dev(0, 0, 80, 1000)];
        assert!(place(Strategy::FirstFit, &c, 500, 100, 0, 0).is_none(), "below floor");
        assert!(place(Strategy::FirstFit, &c, 80, 80, 2000, 0).is_none(), "not enough memory");
        let p = place(Strategy::FirstFit, &c, 500, 80, 500, 0).unwrap();
        assert_eq!(p.millis, 80);
    }

    #[test]
    fn fair_shares_equal_demands_split_evenly() {
        let g = fair_shares(1000, &[(1, 10, 1000), (1, 10, 1000), (1, 10, 1000), (1, 10, 1000)]);
        assert_eq!(g.iter().sum::<u32>(), 1000);
        let max = *g.iter().max().unwrap();
        let min = *g.iter().min().unwrap();
        assert!(max - min <= 1, "equal tenants must converge to equal shares, got {g:?}");
    }

    #[test]
    fn fair_shares_respect_floors_caps_and_weights() {
        // A capped tenant frees capacity for the others.
        let g = fair_shares(1000, &[(1, 0, 100), (1, 0, 1000)]);
        assert_eq!(g, vec![100, 900]);
        // Weights tilt the split 2:1 (within rounding).
        let g = fair_shares(900, &[(2, 0, 900), (1, 0, 900)]);
        assert!(g[0] >= 2 * g[1] - 2, "weighted split was {g:?}");
        assert_eq!(g.iter().sum::<u32>(), 900);
        // Floors are always honoured.
        let g = fair_shares(300, &[(1, 250, 1000), (1, 250, 1000)]);
        assert_eq!(g, vec![250, 250]);
    }

    #[test]
    fn fair_shares_never_exceed_capacity_when_floors_fit() {
        for tenants in 1..20u32 {
            let demands: Vec<(u32, u32, u32)> =
                (0..tenants).map(|i| (1 + i % 3, 10, 100 + 37 * i)).collect();
            let g = fair_shares(1000, &demands);
            if demands.iter().map(|d| d.1).sum::<u32>() <= 1000 {
                assert!(
                    g.iter().sum::<u32>() <= 1000.max(demands.iter().map(|d| d.1).sum()),
                    "overcommitted: {g:?}"
                );
            }
        }
    }
}
