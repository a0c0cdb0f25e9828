//! # gcf — Generic Communication Framework substrate
//!
//! The dOpenCL paper builds its middleware on top of the *Generic
//! Communication Framework* (GCF), a part of the Real-Time Framework, which
//! provides two communication patterns between a client and its servers:
//!
//! * **message-based communication** — request/response exchanges used to
//!   execute OpenCL functions remotely and asynchronous notifications (e.g.
//!   event status updates), and
//! * **stream-based communication** — raw bulk data transfers (buffer uploads
//!   and downloads of up to several gigabytes).
//!
//! This crate is a from-scratch reimplementation of that substrate:
//!
//! * [`wire`] — a hand-written binary codec ([`wire::Encode`] /
//!   [`wire::Decode`]) used by every protocol message in the workspace,
//! * [`message`] — the frame/envelope format multiplexing requests,
//!   responses, notifications and bulk stream chunks over one connection,
//! * [`transport`] — the [`transport::Transport`] abstraction with an
//!   in-process implementation (deterministic, used by tests and benches) and
//!   a real TCP implementation (length-prefixed frames over sockets),
//! * [`rpc`] — an [`rpc::Endpoint`] providing synchronous calls, asynchronous
//!   notifications and bulk streams on top of a connection,
//! * [`retry`] — exponential backoff with deterministic jitter
//!   ([`retry::retry_with_backoff`]) used by the client driver's connection
//!   supervisor to reconnect after a daemon crash,
//! * [`linkmodel`] — parameterised bandwidth/latency models (Gigabit
//!   Ethernet, Infiniband, PCI Express, ideal) used to account *modelled*
//!   transfer time, and
//! * [`simtime`] — the simulation-time ledger (initialization / execution /
//!   data-transfer phases) that the figure harnesses report.
//!
//! The dOpenCL client driver and daemon only ever talk to each other through
//! the traits defined here, so the same protocol code runs unchanged over the
//! in-process transport and over TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod linkmodel;
pub mod message;
pub mod retry;
pub mod rpc;
pub mod simtime;
pub mod transport;
pub mod wire;

pub use error::{GcfError, Result};
pub use linkmodel::LinkModel;
pub use message::{Envelope, MessageKind};
pub use retry::{retry_with_backoff, Backoff};
pub use rpc::Endpoint;
pub use simtime::{PhaseBreakdown, SimClock};
pub use transport::{Connection, Listener, Transport};
