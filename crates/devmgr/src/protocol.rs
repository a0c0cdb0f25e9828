//! Wire protocol of the central device manager (Section IV, Figure 2).
//!
//! Three parties use it:
//!
//! * **daemons** in managed mode register their devices
//!   ([`DmRequest::RegisterServer`]) and receive each lease's quotas on
//!   them ([`DmNotification::AssignShares`], step 3b in Figure 2),
//! * **clients** send assignment requests ([`DmRequest::RequestShares`],
//!   step 1) and receive the lease's authentication id plus server list
//!   ([`DmResponse::Assignment`], step 3a),
//! * both report lease termination ([`DmRequest::ReleaseLease`] from the
//!   client, [`DmRequest::ReportDisconnect`] from a daemon that lost its
//!   client, Section IV-C).

gcf::wire_message! {
    /// A device as registered by a daemon with the device manager.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DmDevice {
        /// The daemon-local device id (what the dOpenCL protocol calls the
        /// remote device id).
        pub remote_id: u64,
        /// `CL_DEVICE_NAME`.
        pub name: String,
        /// `CL_DEVICE_VENDOR`.
        pub vendor: String,
        /// `CL_DEVICE_TYPE` as a string (`CPU`, `GPU`, ...).
        pub device_type: String,
        /// `CL_DEVICE_MAX_COMPUTE_UNITS`.
        pub compute_units: u32,
        /// `CL_DEVICE_GLOBAL_MEM_SIZE`.
        pub global_mem_bytes: u64,
    }
}

impl DmDevice {
    /// Whether this device satisfies an attribute constraint from a device
    /// request (`TYPE`, `VENDOR`, `NAME`, `MAX_COMPUTE_UNITS`,
    /// `GLOBAL_MEM_SIZE`).  Numeric attributes are minimum requirements.
    pub fn satisfies(&self, name: &str, value: &str) -> bool {
        match name.to_ascii_uppercase().as_str() {
            "TYPE" => self.device_type.eq_ignore_ascii_case(value.trim()),
            "VENDOR" => {
                self.vendor.to_ascii_lowercase().contains(&value.trim().to_ascii_lowercase())
            }
            "NAME" => self.name.to_ascii_lowercase().contains(&value.trim().to_ascii_lowercase()),
            "MAX_COMPUTE_UNITS" => {
                value.trim().parse::<u32>().map(|want| self.compute_units >= want).unwrap_or(false)
            }
            "GLOBAL_MEM_SIZE" => value
                .trim()
                .parse::<u64>()
                .map(|want| self.global_mem_bytes >= want)
                .unwrap_or(false),
            _ => false,
        }
    }
}

gcf::wire_message! {
    /// One fractional-share requirement of an assignment request: device
    /// attributes plus compute/memory quotas.  A whole device is 1000 millis
    /// with a floor of 1000.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DmShareRequest {
        /// Number of shares with these parameters, each on a distinct device.
        pub count: u32,
        /// Attribute constraints on the physical device.
        pub attributes: Vec<(String, String)>,
        /// Desired compute share in millis (1000 = a whole device).
        pub compute_millis: u32,
        /// Smallest acceptable grant (0 = all-or-nothing).
        pub min_millis: u32,
        /// Required device-memory quota in bytes (0 = no requirement).
        pub mem_bytes: u64,
    }
}

gcf::wire_message! {
    /// A per-device quota, as pushed to daemons and reported to clients.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DmQuota {
        /// Daemon-local device id.
        pub device_id: u64,
        /// Granted compute share in millis.
        pub compute_millis: u32,
        /// Granted memory quota in bytes (0 = unlimited).
        pub mem_bytes: u64,
    }
}

gcf::wire_message! {
    /// One grant of a lease, as reported to clients by
    /// [`DmResponse::LeaseInfo`]: which server/device hosts the share and its
    /// current quotas.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DmGrant {
        /// Address of the server hosting the share.
        pub server: String,
        /// Daemon-local device id.
        pub device_id: u64,
        /// Current compute share in millis.
        pub compute_millis: u32,
        /// Current memory quota in bytes.
        pub mem_bytes: u64,
    }
}

gcf::wire_message! {
    /// Why a lease changed underneath its client
    /// ([`DmNotification::LeaseChanged`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LeaseChangeReason {
        /// One or more shares moved to another server (failover, drain, or
        /// preemption-driven migration); re-read the lease and reconcile
        /// connections.
        0 => Migrated,
        /// Quotas were shrunk by fair-share rebalancing.
        1 => Shrunk,
        /// One or more shares were revoked without replacement.
        2 => Revoked,
    }
}

gcf::wire_message! {
    /// Requests understood by the device manager.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DmRequest {
        /// A daemon in managed mode announces itself and its devices.
        0 => RegisterServer {
            /// The daemon's node name.
            server_name: String,
            /// The address clients should connect to.
            address: String,
            /// The devices the daemon owns.
            devices: Vec<DmDevice>,
        },
        /// The client is done with its lease.
        2 => ReleaseLease {
            /// The lease's authentication id.
            auth_id: String,
        },
        /// A daemon reports that the client holding `auth_id` disconnected
        /// (abnormal termination, Section IV-C).
        3 => ReportDisconnect {
            /// The invalidated authentication id.
            auth_id: String,
        },
        /// Diagnostics: free/assigned device counts.
        4 => GetStatus,
        /// A daemon's liveness beacon (Section IV-C): the manager marks servers
        /// down — and fails their leases over — after too many missed beats.
        5 => Heartbeat {
            /// The reporting daemon's node name.
            server_name: String,
        },
        /// A client asks for devices (step 1 in Figure 2), as fractional
        /// shares.  Tag 1 is retired: it was a whole-device request, now a
        /// share of 1000 millis with a floor of 1000.
        6 => RequestShares {
            /// The requesting client's name.
            client_name: String,
            /// Scheduling priority (only meaningful under the Priority policy;
            /// higher wins).
            priority: u32,
            /// The requested shares.
            shares: Vec<DmShareRequest>,
        },
        /// Administratively drain a server: no new placements land on it and
        /// its shares are migrated to other nodes where capacity allows
        /// (graceful leave, first half).
        7 => DrainServer {
            /// The node name to drain.
            server_name: String,
        },
        /// Remove a (typically drained) server from the cluster; shares still
        /// on it are failed over like a crash.
        8 => RemoveServer {
            /// The node name to remove.
            server_name: String,
        },
        /// Query the current grants of a lease.
        9 => GetLease {
            /// The lease's authentication id.
            auth_id: String,
        },
        /// Subscribe this connection to [`DmNotification::LeaseChanged`] pushes
        /// for a lease (clients call this to learn about migrations,
        /// rebalancing shrinks and revocations).
        10 => WatchLease {
            /// The lease's authentication id.
            auth_id: String,
        },
    }
}

gcf::wire_message! {
    /// Responses of the device manager.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DmResponse {
        /// Success without payload.
        0 => Ok,
        /// Failure (e.g. no matching devices available).
        1 => Error {
            /// Description.
            message: String,
        },
        /// A granted lease (step 3a in Figure 2).
        2 => Assignment {
            /// The lease's authentication id.
            auth_id: String,
            /// Addresses of the servers owning the assigned devices.
            servers: Vec<String>,
        },
        /// Diagnostics.
        3 => Status {
            /// Devices not assigned to any lease.
            free_devices: u32,
            /// Devices currently assigned.
            assigned_devices: u32,
            /// Active leases.
            leases: u32,
        },
        /// The current grants of a lease ([`DmRequest::GetLease`]).
        4 => LeaseInfo {
            /// The lease's authentication id.
            auth_id: String,
            /// Per-device grants with their current quotas.
            grants: Vec<DmGrant>,
        },
    }
}

gcf::wire_message! {
    /// Notifications pushed by the device manager to registered daemons.
    /// Tag 0 is retired: it assigned whole devices, which
    /// [`DmNotification::AssignShares`] does with full-device quotas.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DmNotification {
        /// Discard the authentication id; its devices are free again.
        1 => RevokeLease {
            /// The lease's authentication id.
            auth_id: String,
        },
        /// Associate fractional shares with the authentication id (step
        /// 3b).
        2 => AssignShares {
            /// The lease's authentication id.
            auth_id: String,
            /// Per-device quotas the lease may use on this server.
            shares: Vec<DmQuota>,
        },
        /// Replace the lease's quotas on this server (rebalancing shrink or
        /// grow).  A quota of 0 compute millis removes the device from the
        /// lease.
        3 => UpdateQuota {
            /// The lease's authentication id.
            auth_id: String,
            /// The new per-device quotas.
            quotas: Vec<DmQuota>,
        },
        /// Pushed to watching clients ([`DmRequest::WatchLease`]): the lease's
        /// placement or quotas changed; re-read it with
        /// [`DmRequest::GetLease`] and reconcile server connections.
        4 => LeaseChanged {
            /// The lease's authentication id.
            auth_id: String,
            /// Current addresses of the servers hosting the lease's shares.
            servers: Vec<String>,
            /// What happened.
            reason: LeaseChangeReason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcf::wire::{Decode, Encode};

    /// Pins the wire format: `msg` encodes to exactly the bytes `golden`
    /// (hex), decodes back to itself, and every strict prefix of its
    /// encoding is rejected with an error rather than a panic.
    fn check<T: Encode + Decode + PartialEq + std::fmt::Debug>(msg: T, golden: &str) {
        let bytes = msg.to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden, "wire format of {msg:?} changed");
        assert_eq!(T::from_bytes(&bytes).unwrap(), msg);
        for n in 0..bytes.len() {
            assert!(T::from_bytes(&bytes[..n]).is_err(), "{n}-byte prefix of {msg:?} decoded");
        }
    }

    fn device() -> DmDevice {
        DmDevice {
            remote_id: 7,
            name: "NVIDIA Tesla S1070".into(),
            vendor: "NVIDIA Corporation".into(),
            device_type: "GPU".into(),
            compute_units: 30,
            global_mem_bytes: 4 << 30,
        }
    }

    #[test]
    fn requests_roundtrip() {
        for (req, golden) in [
            (
                DmRequest::RegisterServer {
                    server_name: "gpuserver".into(),
                    address: "gpuserver:7079".into(),
                    devices: vec![device()],
                },
                "00090000006770757365727665720e0000006770757365727665723a37303739\
                    010000000700000000000000120000004e5649444941205465736c6120533130\
                    3730120000004e564944494120436f72706f726174696f6e030000004750551e\
                    0000000000000001000000",
            ),
            (DmRequest::ReleaseLease { auth_id: "lease-1".into() }, "02070000006c656173652d31"),
            (DmRequest::ReportDisconnect { auth_id: "lease-1".into() }, "03070000006c656173652d31"),
            (DmRequest::GetStatus, "04"),
            (
                DmRequest::Heartbeat { server_name: "gpuserver".into() },
                "0509000000677075736572766572",
            ),
            (
                DmRequest::RequestShares {
                    client_name: "desktop".into(),
                    priority: 7,
                    shares: vec![DmShareRequest {
                        count: 2,
                        attributes: vec![("TYPE".into(), "GPU".into())],
                        compute_millis: 250,
                        min_millis: 50,
                        mem_bytes: 1 << 20,
                    }],
                },
                "06070000006465736b746f700700000001000000020000000100000004000000\
                    5459504503000000475055fa000000320000000000100000000000",
            ),
            (
                DmRequest::DrainServer { server_name: "gpuserver".into() },
                "0709000000677075736572766572",
            ),
            (
                DmRequest::RemoveServer { server_name: "gpuserver".into() },
                "0809000000677075736572766572",
            ),
            (DmRequest::GetLease { auth_id: "lease-1".into() }, "09070000006c656173652d31"),
            (DmRequest::WatchLease { auth_id: "lease-1".into() }, "0a070000006c656173652d31"),
        ] {
            check(req, golden);
        }
    }

    #[test]
    fn responses_and_notifications_roundtrip() {
        for (resp, golden) in [
            (DmResponse::Ok, "00"),
            (DmResponse::Error { message: "no device".into() }, "01090000006e6f20646576696365"),
            (
                DmResponse::Assignment {
                    auth_id: "lease-2".into(),
                    servers: vec!["a".into(), "b".into()],
                },
                "02070000006c656173652d320200000001000000610100000062",
            ),
            (
                DmResponse::Status { free_devices: 3, assigned_devices: 1, leases: 1 },
                "03030000000100000001000000",
            ),
            (
                DmResponse::LeaseInfo {
                    auth_id: "lease-2".into(),
                    grants: vec![DmGrant {
                        server: "gpuserver".into(),
                        device_id: 3,
                        compute_millis: 250,
                        mem_bytes: 1 << 20,
                    }],
                },
                "04070000006c656173652d320100000009000000677075736572766572030000\
                    0000000000fa0000000000100000000000",
            ),
        ] {
            check(resp, golden);
        }
        for (n, golden) in [
            (DmNotification::RevokeLease { auth_id: "lease-2".into() }, "01070000006c656173652d32"),
            (
                DmNotification::AssignShares {
                    auth_id: "lease-2".into(),
                    shares: vec![DmQuota { device_id: 1, compute_millis: 500, mem_bytes: 0 }],
                },
                "02070000006c656173652d32010000000100000000000000f401000000000000\
                    00000000",
            ),
            (
                DmNotification::UpdateQuota {
                    auth_id: "lease-2".into(),
                    quotas: vec![DmQuota { device_id: 1, compute_millis: 250, mem_bytes: 0 }],
                },
                "03070000006c656173652d32010000000100000000000000fa00000000000000\
                    00000000",
            ),
            (
                DmNotification::LeaseChanged {
                    auth_id: "lease-2".into(),
                    servers: vec!["a".into(), "b".into()],
                    reason: LeaseChangeReason::Migrated,
                },
                "04070000006c656173652d32020000000100000061010000006200",
            ),
        ] {
            check(n, golden);
        }
    }

    #[test]
    fn retired_tags_are_rejected() {
        // Each retired message's last encoding, tag first: the tag stays
        // unused, so the bytes fail to decode however well-formed the rest.
        let bytes = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        // Request 1: whole-device assignment request (two CPUs).
        let request = "01070000006465736b746f700100000002000000010000000400000054595045\
                       03000000435055";
        assert!(DmRequest::from_bytes(&bytes(request)).is_err(), "retired request decoded");
        // Notification 0: whole-device assignment push (devices 1 and 2).
        let note = "00070000006c656173652d320200000001000000000000000200000000000000";
        assert!(DmNotification::from_bytes(&bytes(note)).is_err(), "retired notification decoded");
    }

    #[test]
    fn attribute_matching() {
        let d = device();
        assert!(d.satisfies("TYPE", "GPU"));
        assert!(d.satisfies("TYPE", "gpu"));
        assert!(!d.satisfies("TYPE", "CPU"));
        assert!(d.satisfies("VENDOR", "nvidia"));
        assert!(d.satisfies("NAME", "Tesla"));
        assert!(d.satisfies("MAX_COMPUTE_UNITS", "16"));
        assert!(!d.satisfies("MAX_COMPUTE_UNITS", "64"));
        assert!(d.satisfies("GLOBAL_MEM_SIZE", "1073741824"));
        assert!(!d.satisfies("UNKNOWN_ATTR", "x"));
        assert!(!d.satisfies("MAX_COMPUTE_UNITS", "not-a-number"));
    }

    #[test]
    fn corrupted_messages_rejected() {
        assert!(DmRequest::from_bytes(&[9]).is_err());
        assert!(DmResponse::from_bytes(&[9]).is_err());
        assert!(DmNotification::from_bytes(&[9]).is_err());
    }
}
