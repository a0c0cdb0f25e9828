//! # dopencl — distributed OpenCL middleware (the paper's contribution)
//!
//! This crate reproduces **dOpenCL** (Kegel, Steuwer, Gorlatch, IPDPSW
//! 2012): a middleware that makes the OpenCL devices installed on any node
//! of a distributed system usable by a single application as if they were
//! local.
//!
//! # The handle-based object API
//!
//! The public API mirrors the object model of a native OpenCL binding:
//! operations live on the object that owns them, not on a central
//! god-object.  A [`Client`] only manages servers and enumerates devices;
//! everything else hangs off the handles it creates:
//!
//! ```no_run
//! use dopencl::{Client, Context, DeviceType, Event, NdRange, Value};
//! # fn run(client: Client) -> dopencl::Result<()> {
//! let gpus = client.devices_of(DeviceType::Gpu);
//! let context = Context::new(&client, &gpus)?;
//! let queue = context.create_command_queue(&gpus[0])?;
//! let buffer = context.create_buffer(4096)?;
//! let program = context.create_program_with_source("__kernel void f() {}")?;
//! program.build()?;
//! let kernel = program.create_kernel("f")?;
//! kernel.set_arg(0, &buffer)?;
//! kernel.set_arg(1, Value::uint(42))?;
//!
//! let written = queue.write_buffer(&buffer, &[0u8; 4096]).submit()?;
//! let ran = queue.launch(&kernel, NdRange::linear(1024)).after(&[written]).submit()?;
//! let (bytes, _read) = queue.read_buffer(&buffer).after(&[ran]).submit()?;
//! queue.finish()?;
//! # let _ = bytes; Ok(())
//! # }
//! ```
//!
//! Handles stay valid as long as *any* clone of their [`Client`] lives;
//! afterwards operations return [`DclError::ClientDropped`].  The enqueue
//! builders ([`client::WriteBufferOp`], [`client::ReadBufferOp`],
//! [`client::LaunchOp`], [`client::MarkerOp`]) carry offset / wait-list /
//! blocking options so future capabilities (batching, async submission) can
//! be added without changing any signatures.
//!
//! # Mapping to the paper
//!
//! | Paper concept (section) | Module |
//! |---|---|
//! | Client driver, dOpenCL platform, stubs & compound stubs (III-B, III-D, III-E) | [`client`] |
//! | Daemon forwarding calls to the native OpenCL implementation (III-B) | [`daemon`] |
//! | Message-based / stream-based communication (III-B) | [`protocol`] over [`gcf`] |
//! | Directory-based MSI consistency of memory objects (III-D) | [`coherence`] |
//! | Event consistency via user events + completion callbacks (III-D) | [`client`] + [`daemon`] |
//! | Server configuration file & automatic connection (III-C, Listing 2) | [`config`] |
//! | `clConnectServerWWU` / `clDisconnectServerWWU` / `clGetServerInfoWWU` (Listing 1) | [`ext`] |
//! | Device manager integration hooks (IV) | [`daemon::AccessPolicy`] (implemented by the `devmgr` crate) |
//!
//! The [`cluster`] module provides an in-process harness that assembles
//! clients and daemons into the three hardware setups of the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod coherence;
pub mod config;
pub mod daemon;
pub mod error;
pub mod ext;
pub mod protocol;

pub use client::{
    Arg, Buffer, Client, CommandQueue, Context, Device, DeviceType, Event, FailoverPolicy, Kernel,
    LaunchOp, MarkerOp, PendingRead, Program, ReadBufferOp, ServerId, WriteBufferOp,
};
pub use cluster::{desktop_and_gpu_server, infiniband_cpu_cluster, LocalCluster};
pub use daemon::{AccessPolicy, Daemon, DaemonStats, OpenAccess};
pub use error::{DclError, Result};
pub use protocol::{DeviceDescriptor, ObjectId, ServerInfo, SessionInfo};

// Re-export the types that appear in the public API so that applications
// only need this crate plus `vocl` for device-side values.
pub use gcf::simtime::{Phase, PhaseBreakdown, SimClock};
pub use gcf::LinkModel;
pub use vocl::{NdRange, Value};
