//! # devmgr — the dOpenCL cluster resource manager
//!
//! Section IV of the paper extends dOpenCL with a central, network-accessible
//! **device manager** so that multiple applications can share the devices of
//! a distributed system without stepping on each other.  This crate grows
//! that device manager into a full cluster *resource* manager:
//!
//! **Virtual devices.**  The unit of allocation is no longer a whole
//! physical device but a fractional [`VirtualDevice`]
//! ([`vdev`]): a compute share in millis of one device
//! ([`FULL_COMPUTE_MILLIS`] = the whole device) plus a device-memory quota
//! in bytes.  The manager guarantees Σ shares ≤ 100% per physical device.
//! Whole-device requests ([`request_assignment`]) are all-or-nothing
//! 1000-milli shares.
//!
//! **Pluggable scheduling** ([`sched`]).  [`Strategy::FirstFit`] and
//! [`Strategy::RoundRobin`] reproduce the original placement behaviour;
//! [`Strategy::Fair`] adds weighted fair queuing — when the cluster
//! saturates, existing grants are shrunk toward their weighted fair share
//! (never below each share's floor) to admit newcomers; and
//! [`Strategy::Priority`] preempts lower-priority leases (shrink to floor,
//! then revoke and migrate).  When no policy move can produce the
//! requested floor, admission control rejects with
//! [`DevMgrError::Saturated`].
//!
//! **Node lifecycle.**  Servers *join* via registration, prove liveness
//! with heartbeats, can be *drained* (no new placements; existing shares
//! migrate off as capacity allows) before *leaving*
//! ([`DeviceManager::remove_server`]), and a crashed node's shares are
//! failed over to survivors by the health sweep.  Clients that
//! [`client::watch_lease`] their lease receive `LeaseChanged` pushes on
//! every migration, shrink, or revocation so they can reconnect and
//! re-validate buffers through the coherence directory.
//!
//! The pieces:
//!
//! * [`vdev`] — fractional virtual devices and share requests,
//! * [`sched`] — the scheduling policies and the weighted fair division,
//! * `placement` — the placement state machine: servers, leases, and every
//!   transition on them (place, rebalance, preempt, move a share, evacuate,
//!   drain, release), each returning the pushes it implies,
//! * [`manager::DeviceManager`] — that state under one lock, sending each
//!   transition's pushes after unlocking; [`manager::DeviceManagerServer`]
//!   is its network front end,
//! * [`managed::ManagedDaemon`] — the daemon-side integration ("managed
//!   mode"): registers the server's devices, heartbeats, and installs an
//!   [`dopencl::AccessPolicy`] that only exposes devices (and quotas)
//!   assigned to the client's lease,
//! * [`client`] — the application-side helpers: request whole devices or
//!   fractional shares, connect with the lease's authentication id, watch
//!   for lease changes, release,
//! * [`config`] — the XML device-request configuration file (Listing 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod error;
pub mod managed;
pub mod manager;
mod placement;
pub mod protocol;
pub mod sched;
// `virtual` is a reserved Rust keyword, so the module is mounted as `vdev`
// while keeping the file name the architecture docs use.
#[path = "virtual.rs"]
pub mod vdev;

pub use client::{
    connect_via_device_manager, drain_server, get_lease, release_assignment, remove_server,
    request_assignment, request_shares, watch_lease, Assignment, LeaseChangeNotice, LeaseWatch,
};
pub use config::{parse_device_request, DeviceRequestConfig, DeviceRequirement};
pub use error::{DevMgrError, Result};
pub use managed::{HeartbeatTimer, ManagedDaemon};
pub use manager::{DeviceManager, DeviceManagerServer, HealthMonitor, Lease, LeaseFailover};
pub use protocol::{DmDevice, DmGrant, DmQuota, DmShareRequest, LeaseChangeReason};
pub use sched::Strategy;
pub use vdev::{ShareRequest, VirtualDevice, FULL_COMPUTE_MILLIS};
