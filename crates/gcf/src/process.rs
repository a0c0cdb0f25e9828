//! Process descriptors.
//!
//! GCF represents the communicating parties — the dOpenCL client and the
//! servers — as *process objects*.  This module provides the lightweight
//! descriptor type used by the session harness and the device manager to
//! identify nodes of the (simulated or real) distributed system.

crate::wire_message! {
    /// The role a process plays in the distributed system.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Role {
        /// The host system running the OpenCL application plus the dOpenCL
        /// client driver.
        0 => Client,
        /// A node running a dOpenCL daemon in front of its native OpenCL
        /// implementation.
        1 => Server,
        /// The central device manager (Section IV of the paper).
        2 => DeviceManager,
    }
}

crate::wire_message! {
    /// Identity of a process in the distributed system.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct ProcessDescriptor {
        /// Human-readable node name (e.g. `gpuserver.example.com`).
        pub name: String,
        /// Transport address the process listens on (empty for clients).
        pub address: String,
        /// The process role.
        pub role: Role,
    }
}

impl ProcessDescriptor {
    /// Descriptor for a client process.
    pub fn client(name: impl Into<String>) -> Self {
        ProcessDescriptor { name: name.into(), address: String::new(), role: Role::Client }
    }

    /// Descriptor for a server process listening at `address`.
    pub fn server(name: impl Into<String>, address: impl Into<String>) -> Self {
        ProcessDescriptor { name: name.into(), address: address.into(), role: Role::Server }
    }

    /// Descriptor for the device manager listening at `address`.
    pub fn device_manager(name: impl Into<String>, address: impl Into<String>) -> Self {
        ProcessDescriptor { name: name.into(), address: address.into(), role: Role::DeviceManager }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decode, Encode};

    #[test]
    fn descriptor_roundtrip() {
        for (d, golden) in [
            (
                ProcessDescriptor::server("gpuserver", "inproc://gpuserver"),
                "0900000067707573657276657212000000696e70726f633a2f2f67707573657276657201",
            ),
            (ProcessDescriptor::client("desktop"), "070000006465736b746f700000000000"),
            (
                ProcessDescriptor::device_manager("devmngr", "inproc://devmngr"),
                "070000006465766d6e677210000000696e70726f633a2f2f6465766d6e677202",
            ),
        ] {
            let bytes = d.to_bytes();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "wire format of {d:?} changed");
            assert_eq!(ProcessDescriptor::from_bytes(&bytes).unwrap(), d);
            for n in 0..bytes.len() {
                assert!(ProcessDescriptor::from_bytes(&bytes[..n]).is_err());
            }
        }
    }

    #[test]
    fn invalid_role_rejected() {
        let mut bytes = ProcessDescriptor::client("x").to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 77;
        assert!(ProcessDescriptor::from_bytes(&bytes).is_err());
    }
}
