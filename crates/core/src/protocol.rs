//! Wire protocol between the dOpenCL client driver and the daemons.
//!
//! Every OpenCL API call that needs a server is turned into a [`Request`]
//! message; the daemon answers with a [`Response`].  Event completions, the
//! heart of the event consistency protocol of Section III-D, travel as
//! [`EventCompletion`] records in bulk: inside the batch's
//! [`Response::BatchEnqueued`] for a command that ran while the daemon
//! handled the batch, otherwise in a [`Notification::EventsCompleted`], one
//! per run of commands.  The
//! client forwards a completion to the servers holding a replacement for the
//! event as a [`ClientNotification`].  Bulk
//! data (buffer uploads/downloads, i.e. *stream-based communication*) does
//! not appear here: it is shipped through [`gcf::Endpoint::send_bulk`]
//! streams identified by a `stream_id` carried in the corresponding request.
//!
//! ## Ordering requirement
//!
//! Both gcf transports are FIFO per connection.  The client always sends the
//! bulk data of an upload *before* the request that references it (an
//! [`Request::EnqueueBatch`] carrying a [`BatchCommand::WriteBuffer`], or an
//! [`Request::UploadBufferRange`]), so by the time the daemon handles the
//! request the stream has fully arrived and the daemon never blocks its
//! receive loop.
//!
//! ## Wire format
//!
//! Every message type is declared once with [`gcf::wire_message!`]: each
//! variant's literal tag and field list is the single source of truth for
//! its bytes (the tag byte, then each field in declaration order).  Tags are
//! never reused or renumbered.  Only [`WireValue`] and [`WireNdRange`],
//! whose layouts are not a plain field sequence, have hand-written codecs.

use crate::error::{DclError, Result};
use gcf::wire::{Decode, Encode, Reader};
use gcf::GcfError;
use oclc::{NdRange, Scalar, ScalarType, Value};

/// Identifier the client driver assigns to every stub; the daemon maps it to
/// its local (remote) object.
pub type ObjectId = u64;

fn codec_err(msg: impl Into<String>) -> GcfError {
    GcfError::Codec(msg.into())
}

// ---------------------------------------------------------------------------
// Scalar / value encoding
// ---------------------------------------------------------------------------

fn scalar_type_to_byte(t: ScalarType) -> u8 {
    match t {
        ScalarType::Bool => 0,
        ScalarType::Char => 1,
        ScalarType::UChar => 2,
        ScalarType::Short => 3,
        ScalarType::UShort => 4,
        ScalarType::Int => 5,
        ScalarType::UInt => 6,
        ScalarType::Long => 7,
        ScalarType::ULong => 8,
        ScalarType::SizeT => 9,
        ScalarType::Float => 10,
        ScalarType::Double => 11,
    }
}

fn scalar_type_from_byte(b: u8) -> std::result::Result<ScalarType, GcfError> {
    Ok(match b {
        0 => ScalarType::Bool,
        1 => ScalarType::Char,
        2 => ScalarType::UChar,
        3 => ScalarType::Short,
        4 => ScalarType::UShort,
        5 => ScalarType::Int,
        6 => ScalarType::UInt,
        7 => ScalarType::Long,
        8 => ScalarType::ULong,
        9 => ScalarType::SizeT,
        10 => ScalarType::Float,
        11 => ScalarType::Double,
        other => return Err(codec_err(format!("invalid scalar type byte {other}"))),
    })
}

fn encode_scalar(s: &Scalar, buf: &mut Vec<u8>) {
    match s {
        Scalar::I(v) => {
            buf.push(0);
            v.encode(buf);
        }
        Scalar::U(v) => {
            buf.push(1);
            v.encode(buf);
        }
        Scalar::F(v) => {
            buf.push(2);
            v.encode(buf);
        }
    }
}

fn decode_scalar(r: &mut Reader<'_>) -> std::result::Result<Scalar, GcfError> {
    Ok(match u8::decode(r)? {
        0 => Scalar::I(i64::decode(r)?),
        1 => Scalar::U(u64::decode(r)?),
        2 => Scalar::F(f64::decode(r)?),
        other => return Err(codec_err(format!("invalid scalar payload tag {other}"))),
    })
}

/// A kernel argument value that can travel over the wire (scalars and
/// vectors; buffers and local memory are referenced by id / size instead).
#[derive(Debug, Clone, PartialEq)]
pub struct WireValue(pub Value);

impl Encode for WireValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match &self.0 {
            Value::Scalar(t, s) => {
                buf.push(0);
                buf.push(scalar_type_to_byte(*t));
                encode_scalar(s, buf);
            }
            Value::Vector(t, lanes) => {
                buf.push(1);
                buf.push(scalar_type_to_byte(*t));
                (lanes.len() as u32).encode(buf);
                for l in lanes {
                    encode_scalar(l, buf);
                }
            }
            Value::Ptr(_) | Value::Void => {
                // Pointers never travel over the wire; encode as void.
                buf.push(2);
            }
        }
    }
}

impl Decode for WireValue {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, GcfError> {
        Ok(WireValue(match u8::decode(r)? {
            0 => {
                let t = scalar_type_from_byte(u8::decode(r)?)?;
                Value::Scalar(t, decode_scalar(r)?)
            }
            1 => {
                let t = scalar_type_from_byte(u8::decode(r)?)?;
                let n = u32::decode(r)? as usize;
                let mut lanes = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    lanes.push(decode_scalar(r)?);
                }
                Value::Vector(t, lanes)
            }
            2 => Value::Void,
            other => return Err(codec_err(format!("invalid value tag {other}"))),
        }))
    }
}

/// NDRange as transmitted with [`BatchCommand::NdRange`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireNdRange(pub NdRange);

impl Encode for WireNdRange {
    fn encode(&self, buf: &mut Vec<u8>) {
        let r = &self.0;
        buf.push(r.work_dim);
        for d in 0..3 {
            (r.global[d] as u64).encode(buf);
        }
        for d in 0..3 {
            (r.offset[d] as u64).encode(buf);
        }
        match r.local {
            None => buf.push(0),
            Some(local) => {
                buf.push(1);
                for v in local {
                    (v as u64).encode(buf);
                }
            }
        }
    }
}

impl Decode for WireNdRange {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, GcfError> {
        let work_dim = u8::decode(r)?;
        let mut global = [0usize; 3];
        for g in &mut global {
            *g = u64::decode(r)? as usize;
        }
        let mut offset = [0usize; 3];
        for o in &mut offset {
            *o = u64::decode(r)? as usize;
        }
        let local = match u8::decode(r)? {
            0 => None,
            1 => {
                let mut l = [0usize; 3];
                for v in &mut l {
                    *v = u64::decode(r)? as usize;
                }
                Some(l)
            }
            other => return Err(codec_err(format!("invalid local tag {other}"))),
        };
        Ok(WireNdRange(NdRange { global, local, offset, work_dim }))
    }
}

gcf::wire_message! {
    /// Description of a remote device as reported by a daemon.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeviceDescriptor {
        /// The daemon-local device id used in later requests.
        pub remote_id: ObjectId,
        /// `CL_DEVICE_NAME`.
        pub name: String,
        /// `CL_DEVICE_VENDOR`.
        pub vendor: String,
        /// `CL_DEVICE_TYPE` as its display string (`CPU`, `GPU`, ...).
        pub device_type: String,
        /// `CL_DEVICE_MAX_COMPUTE_UNITS`.
        pub compute_units: u32,
        /// `CL_DEVICE_GLOBAL_MEM_SIZE`.
        pub global_mem_bytes: u64,
        /// `CL_DEVICE_MAX_MEM_ALLOC_SIZE`.
        pub max_alloc_bytes: u64,
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

gcf::wire_message! {
    /// A request from the client driver to a daemon.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Handshake: announce the client and (in managed mode) the lease
        /// authentication id obtained from the device manager.
        ///
        /// The daemon answers with [`Response::SessionInfo`].  A client that
        /// reconnects after a connection failure re-handshakes with the same
        /// identity and a bumped `epoch`; the daemon then revives the parked
        /// session state (including the command dedup window) so replayed
        /// batches execute exactly once.
        0 => Hello {
            /// Client host name.
            client_name: String,
            /// Lease authentication id, if the client got its devices from the
            /// device manager.
            auth_id: Option<String>,
            /// Session epoch: 0 on first connect, incremented by the client on
            /// every reconnect to the same daemon.
            epoch: u64,
        },
        /// List the devices this daemon exposes (filtered by lease in managed
        /// mode).
        1 => GetDeviceList,
        /// Create a remote context over the given remote device ids.
        2 => CreateContext {
            /// Client-assigned id for the context stub.
            context_id: ObjectId,
            /// Daemon-local device ids participating on this server.
            devices: Vec<ObjectId>,
        },
        /// Release a remote context.
        3 => ReleaseContext {
            /// Context id.
            context_id: ObjectId,
        },
        /// Create a command queue for `device` in `context`.
        4 => CreateCommandQueue {
            /// Client-assigned id for the queue stub.
            queue_id: ObjectId,
            /// Owning context id.
            context_id: ObjectId,
            /// Daemon-local device id.
            device: ObjectId,
        },
        /// Release a command queue.
        5 => ReleaseCommandQueue {
            /// Queue id.
            queue_id: ObjectId,
        },
        /// Create a buffer of `size` bytes in `context`.
        6 => CreateBuffer {
            /// Client-assigned id for the buffer stub.
            buffer_id: ObjectId,
            /// Owning context id.
            context_id: ObjectId,
            /// Size in bytes.
            size: u64,
            /// Whether kernels may read the buffer.
            readable: bool,
            /// Whether kernels may write the buffer.
            writable: bool,
        },
        /// Release a buffer.
        7 => ReleaseBuffer {
            /// Buffer id.
            buffer_id: ObjectId,
        },
        /// Create a program from OpenCL C source.
        8 => CreateProgramWithSource {
            /// Client-assigned id for the program stub.
            program_id: ObjectId,
            /// Owning context id.
            context_id: ObjectId,
            /// The source text.
            source: String,
        },
        /// Create a program from registered built-in kernels.
        9 => CreateProgramWithBuiltInKernels {
            /// Client-assigned id for the program stub.
            program_id: ObjectId,
            /// Owning context id.
            context_id: ObjectId,
            /// Semicolon-separated kernel names.
            names: String,
        },
        /// Build a program.
        10 => BuildProgram {
            /// Program id.
            program_id: ObjectId,
        },
        /// Fetch the build log of a program.
        11 => GetBuildLog {
            /// Program id.
            program_id: ObjectId,
        },
        /// Create a kernel from a program.
        12 => CreateKernel {
            /// Client-assigned id for the kernel stub.
            kernel_id: ObjectId,
            /// Owning program id.
            program_id: ObjectId,
            /// Kernel function name.
            name: String,
        },
        /// Set a by-value kernel argument.
        13 => SetKernelArgScalar {
            /// Kernel id.
            kernel_id: ObjectId,
            /// Argument index.
            index: u32,
            /// The value.
            value: WireValue,
        },
        /// Set a buffer kernel argument.
        14 => SetKernelArgBuffer {
            /// Kernel id.
            kernel_id: ObjectId,
            /// Argument index.
            index: u32,
            /// Buffer id.
            buffer_id: ObjectId,
        },
        /// Set a `__local` memory kernel argument.
        15 => SetKernelArgLocal {
            /// Kernel id.
            kernel_id: ObjectId,
            /// Argument index.
            index: u32,
            /// Size in bytes.
            bytes: u64,
        },
        // Tags 16-19 (the single-command enqueues) are retired: every
        // command rides [`Request::EnqueueBatch`], a lone one as a batch of
        // one.  Tags 20 and 21 (eager user-event creation and completion) are
        // retired too: replacements ride `EnqueueBatch`, completions travel
        // as [`ClientNotification::EventStatus`].
        /// Query the status of an event.
        22 => GetEventStatus {
            /// Event id.
            event_id: ObjectId,
        },
        /// Query server information (`clGetServerInfoWWU`).
        23 => GetServerInfo,
        /// Orderly disconnect (`clDisconnectServerWWU` or application exit).
        24 => Disconnect,
        // Tags 25 and 26 (whole-buffer coherence upload and download) are
        // retired: a whole-buffer move is the one-range case `[(0, size)]`
        // of `UploadBufferRange` / `DownloadBufferRange`.
        /// A batch of enqueue commands accumulated client-side and shipped in a
        /// single round trip (the batched command pipeline).  Entries are
        /// enqueued strictly in order; each entry's completion is reported as
        /// an [`EventCompletion`], in a [`Response::BatchEnqueued`] or a
        /// [`Notification::EventsCompleted`].  Event bookkeeping
        /// rides along as entries too: [`BatchCommand::Release`] and
        /// [`BatchCommand::Replacement`] ahead of the commands.
        27 => EnqueueBatch {
            /// The entries, in submission order.
            entries: Vec<BatchEntry>,
        },
        /// Query the daemon's view of this session (used by the fault-tolerance
        /// tests and the client supervisor after a reconnect).
        28 => GetSessionInfo,
        /// Coherence upload: overwrite each `(offset, size)` range of the
        /// remote buffer, in order, with the next `size` bytes of bulk stream
        /// `stream_id` (sent before this request), whose length is the sum of
        /// the sizes.  The daemon checks that the ranges are sorted, disjoint
        /// and inside the buffer, and the stream length, before it writes
        /// anything, and answers with [`Response::OkTimed`].
        ///
        /// The coherence directory's only upload: one request carries a whole
        /// delta plan's uploads, and a whole-buffer upload is the one range
        /// `[(0, size)]`.
        29 => UploadBufferRange {
            /// Buffer id.
            buffer_id: ObjectId,
            /// `(offset, size)` of each range to overwrite.
            ranges: Vec<(u64, u64)>,
            /// Bulk stream carrying the concatenated payload.
            stream_id: u64,
        },
        // Tag 30 (a download of one range) is retired: a plan's fetch from
        // one source is one `DownloadBufferRange` of all its ranges.
        /// Coherence download: send each `(offset, size)` range of the remote
        /// buffer, in order and back to back, to the client on bulk stream
        /// `stream_id`.  The daemon checks that the ranges are sorted,
        /// disjoint and inside the buffer before it sends anything, and
        /// answers with [`Response::OkTimed`].  The mirror of
        /// [`Request::UploadBufferRange`]: a whole-buffer download is the one
        /// range `[(0, size)]`.
        31 => DownloadBufferRange {
            /// Buffer id.
            buffer_id: ObjectId,
            /// `(offset, size)` of each range to send.
            ranges: Vec<(u64, u64)>,
            /// Bulk stream the daemon sends the data on.
            stream_id: u64,
        },
    }
}

gcf::wire_message! {
    /// One command of a [`Request::EnqueueBatch`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchEntry {
        /// Client-generated idempotency id, unique per command for the lifetime
        /// of the session.  The daemon keeps a bounded window of recently seen
        /// ids so a batch replayed after a reconnect executes each command
        /// exactly once.
        pub command_id: u64,
        /// Queue the command targets.
        pub queue_id: ObjectId,
        /// Client-assigned id for the completion event.
        pub event_id: ObjectId,
        /// Events that must complete before the command executes.
        pub wait_events: Vec<ObjectId>,
        /// The command itself.
        pub command: BatchCommand,
    }
}

gcf::wire_message! {
    /// The command payload of a [`BatchEntry`].
    ///
    /// Bulk data still travels as streams: a `WriteBuffer` entry's payload is
    /// sent *before* the batch request (FIFO ordering guarantees it has arrived),
    /// and a `ReadBuffer` entry's data is sent back on `stream_id` when the read
    /// completes.  A transfer of at most one stream chunk that finds its queue
    /// idle and its wait list complete runs while the daemon handles the batch,
    /// so its stream leaves before the [`Response::BatchEnqueued`] that carries
    /// its completion; any other transfer completes later.
    #[derive(Debug, Clone, PartialEq)]
    pub enum BatchCommand {
        /// `clEnqueueWriteBuffer`; payload arrives on bulk stream `stream_id`.
        0 => WriteBuffer {
            /// Buffer id.
            buffer_id: ObjectId,
            /// Destination offset in bytes.
            offset: u64,
            /// Payload size in bytes.
            size: u64,
            /// Bulk stream carrying the payload.
            stream_id: u64,
        },
        /// `clEnqueueReadBuffer`; the daemon sends the data on `stream_id` when
        /// the read completes, which for a small read on an idle queue is
        /// before the batch's response.
        1 => ReadBuffer {
            /// Buffer id.
            buffer_id: ObjectId,
            /// Source offset in bytes.
            offset: u64,
            /// Size in bytes.
            size: u64,
            /// Bulk stream the daemon will send the data on.
            stream_id: u64,
        },
        /// `clEnqueueNDRangeKernel`.
        2 => NdRange {
            /// Kernel id.
            kernel_id: ObjectId,
            /// The index space.
            range: WireNdRange,
        },
        /// `clEnqueueMarkerWithWaitList`.
        3 => Marker,
        /// Not a command: the replacement event of the event-consistency
        /// protocol (Section III-D) for the entry's `event_id`, an event owned
        /// by another server that a later entry of the batch waits on.
        ///
        /// An idempotent upsert keyed by `event_id`: the daemon creates the
        /// user event if it holds none yet, then applies `status` if it is
        /// terminal.  A status forward
        /// ([`ClientNotification::EventStatus`]) that overtook the batch has
        /// already created it, and a replayed batch changes nothing.  The
        /// entry's `command_id` is 0 and its queue and wait list are unused.
        4 => Replacement {
            /// `None` while the original is pending; its terminal status (0 =
            /// complete, negative = error) if it had finished when the batch
            /// was built.
            status: Option<i32>,
        },
        /// Not a command: the client holds no handle to these events any
        /// more, so the daemon drops them from its event table (a queued
        /// command keeps its own reference to what it waits on).  The entry's
        /// `command_id` and `event_id` are 0 and its queue and wait list are
        /// unused.
        5 => Release {
            /// Event ids to forget; ids the daemon does not hold are skipped.
            event_ids: Vec<ObjectId>,
        },
    }
}

gcf::wire_message! {
    /// Per-entry enqueue outcome of a [`Request::EnqueueBatch`], reported in
    /// [`Response::BatchEnqueued`].  Code 0 means the entry was enqueued; a
    /// negative code is the OpenCL error that rejected it at enqueue time
    /// (execution-time failures are reported through the entry's event instead).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BatchEntryStatus {
        /// 0 on success, a negative OpenCL error code otherwise.
        pub code: i32,
        /// Human-readable description (empty on success).
        pub message: String,
    }
}

gcf::wire_message! {
    /// A command's event reached a terminal state on the daemon.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct EventCompletion {
        /// The client-assigned event id.
        pub event_id: ObjectId,
        /// Final OpenCL status (0 = complete, negative = error).
        pub status: i32,
        /// Modelled duration of the command in nanoseconds.
        pub modeled_nanos: u64,
        /// Number of work-items executed (kernel commands only).
        pub work_items: u64,
    }
}

impl BatchEntryStatus {
    /// The success status.
    pub fn ok() -> BatchEntryStatus {
        BatchEntryStatus { code: 0, message: String::new() }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

gcf::wire_message! {
    /// Server information returned by [`Request::GetServerInfo`]
    /// (`clGetServerInfoWWU`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServerInfo {
        /// The daemon's node name.
        pub name: String,
        /// Number of devices currently visible to this client.
        pub device_count: u32,
        /// Whether the daemon runs in managed mode (Section IV-A).
        pub managed: bool,
    }
}

gcf::wire_message! {
    /// The daemon's view of a client session, returned as the answer to
    /// [`Request::Hello`] and [`Request::GetSessionInfo`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SessionInfo {
        /// Lease authentication id the session presented, if any.
        pub auth_id: Option<String>,
        /// The session epoch from the most recent `Hello`.
        pub epoch: u64,
        /// Whether this session was revived from parked state after a reconnect
        /// (its remote objects and dedup window survived).
        pub resumed: bool,
        /// Commands admitted (executed for the first time) by the dedup window.
        pub dedup_admitted: u64,
        /// Replayed commands the dedup window suppressed.
        pub dedup_replayed: u64,
    }
}

gcf::wire_message! {
    /// A daemon's answer to a [`Request`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The request succeeded and carries no payload.
        0 => Ok,
        /// The request failed.
        1 => Error {
            /// OpenCL error code (negative) or protocol error.
            code: i32,
            /// Human-readable description.
            message: String,
        },
        /// Device list for [`Request::GetDeviceList`].
        2 => DeviceList {
            /// Devices visible to the requesting client.
            devices: Vec<DeviceDescriptor>,
        },
        /// Build log for [`Request::GetBuildLog`].
        3 => BuildLog {
            /// The log text (empty on success).
            log: String,
        },
        /// Event status for [`Request::GetEventStatus`].
        4 => EventStatus {
            /// Numeric OpenCL event status.
            status: i32,
        },
        /// Server information for [`Request::GetServerInfo`].
        5 => ServerInfo(ServerInfo),
        /// Acknowledgement carrying the modelled duration of a completed
        /// synchronous operation, in nanoseconds (a coherence upload or
        /// download).
        6 => OkTimed {
            /// Modelled duration in nanoseconds.
            modeled_nanos: u64,
        },
        /// Per-entry enqueue outcome of a [`Request::EnqueueBatch`].
        ///
        /// `statuses[k]` is the outcome of entry `k`.  The daemon stops at the
        /// first entry that fails to *enqueue*, so `statuses` may be shorter
        /// than the batch; the client fails the remaining entries' events
        /// locally.
        7 => BatchEnqueued {
            /// Outcomes of the attempted entries, in batch order.
            statuses: Vec<BatchEntryStatus>,
            /// The completions of this batch's entries that ran while the
            /// daemon handled it (small transfers on an idle queue).  Every
            /// other entry reports in a [`Notification::EventsCompleted`].
            completed: Vec<EventCompletion>,
        },
        /// Session state for [`Request::Hello`] / [`Request::GetSessionInfo`].
        8 => SessionInfo(SessionInfo),
        // Tag 9 (the range download's echo of its offset and size) is
        // retired: a range download answers `OkTimed` like the upload.
    }
}

impl Response {
    /// Convert an error response into a [`DclError`]; `Ok`/payload responses
    /// pass through.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { code, message } => {
                Err(DclError::Protocol(format!("server error {code}: {message}")))
            }
            other => Ok(other),
        }
    }
}

// ---------------------------------------------------------------------------
// Notifications
// ---------------------------------------------------------------------------

gcf::wire_message! {
    /// Asynchronous notifications sent by a daemon to the client.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Notification {
        // Tag 0 (`EventCompleted`, one frame per event) is retired:
        // completions travel in bulk.
        /// Events on this server reached a terminal state, in the order they
        /// did.  Sent when a command that ends its queue's run in a batch
        /// completes, or when enough completions have piled up or waited
        /// long enough, with everything not reported yet.
        1 => EventsCompleted {
            /// The completions, oldest first.
            events: Vec<EventCompletion>,
        },
    }
}

gcf::wire_message! {
    /// One-way notifications sent by the client driver to a daemon.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClientNotification {
        /// An event owned by another server reached a terminal state: set this
        /// daemon's replacement for it to `status`, creating the replacement
        /// already terminal if the batch that creates it has not arrived yet.
        /// Idempotent: a terminal replacement ignores further statuses.
        0 => EventStatus {
            /// The client-assigned event id.
            event_id: ObjectId,
            /// Final OpenCL status (0 = complete, negative = error).
            status: i32,
        },
        /// The client released these events: [`BatchCommand::Release`] sent on
        /// its own, when no batch is going to the daemon soon enough.
        1 => ReleaseEvents {
            /// Event ids to drop from the daemon's event table.
            event_ids: Vec<ObjectId>,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn all_requests_roundtrip() {
        check(
            Request::Hello { client_name: "pc".into(), auth_id: Some("lease-1".into()), epoch: 3 },
            "0002000000706301070000006c656173652d310300000000000000",
        );
        check(Request::GetDeviceList, "01");
        check(
            Request::CreateContext { context_id: 1, devices: vec![10, 11] },
            "020100000000000000020000000a000000000000000b00000000000000",
        );
        check(Request::ReleaseContext { context_id: 1 }, "030100000000000000");
        check(
            Request::CreateCommandQueue { queue_id: 2, context_id: 1, device: 10 },
            "04020000000000000001000000000000000a00000000000000",
        );
        check(Request::ReleaseCommandQueue { queue_id: 2 }, "050200000000000000");
        check(
            Request::CreateBuffer {
                buffer_id: 3,
                context_id: 1,
                size: 4096,
                readable: true,
                writable: false,
            },
            "060300000000000000010000000000000000100000000000000100",
        );
        check(Request::ReleaseBuffer { buffer_id: 3 }, "070300000000000000");
        check(
            Request::CreateProgramWithSource {
                program_id: 4,
                context_id: 1,
                source: "__kernel void k() {}".into(),
            },
            "0804000000000000000100000000000000140000005f5f6b65726e656c20766f\
                6964206b2829207b7d",
        );
        check(
            Request::CreateProgramWithBuiltInKernels {
                program_id: 4,
                context_id: 1,
                names: "mandelbrot;osem".into(),
            },
            "09040000000000000001000000000000000f0000006d616e64656c62726f743b\
                6f73656d",
        );
        check(Request::BuildProgram { program_id: 4 }, "0a0400000000000000");
        check(Request::GetBuildLog { program_id: 4 }, "0b0400000000000000");
        check(
            Request::CreateKernel { kernel_id: 5, program_id: 4, name: "k".into() },
            "0c05000000000000000400000000000000010000006b",
        );
        check(
            Request::SetKernelArgScalar {
                kernel_id: 5,
                index: 0,
                value: WireValue(Value::float(1.5)),
            },
            "0d050000000000000000000000000a02000000000000f83f",
        );
        check(
            Request::SetKernelArgBuffer { kernel_id: 5, index: 1, buffer_id: 3 },
            "0e0500000000000000010000000300000000000000",
        );
        check(
            Request::SetKernelArgLocal { kernel_id: 5, index: 2, bytes: 256 },
            "0f0500000000000000020000000001000000000000",
        );
        check(Request::GetEventStatus { event_id: 9 }, "160900000000000000");
        check(Request::GetServerInfo, "17");
        check(Request::Disconnect, "18");
        check(
            Request::EnqueueBatch {
                entries: vec![
                    BatchEntry {
                        command_id: 900,
                        queue_id: 2,
                        event_id: 20,
                        wait_events: vec![6, 7],
                        command: BatchCommand::WriteBuffer {
                            buffer_id: 3,
                            offset: 8,
                            size: 64,
                            stream_id: 200,
                        },
                    },
                    BatchEntry {
                        command_id: 901,
                        queue_id: 2,
                        event_id: 21,
                        wait_events: vec![],
                        command: BatchCommand::ReadBuffer {
                            buffer_id: 3,
                            offset: 0,
                            size: 16,
                            stream_id: 201,
                        },
                    },
                    BatchEntry {
                        command_id: 902,
                        queue_id: 2,
                        event_id: 22,
                        wait_events: vec![20],
                        command: BatchCommand::NdRange {
                            kernel_id: 5,
                            range: WireNdRange(NdRange::linear(128)),
                        },
                    },
                    BatchEntry {
                        command_id: 903,
                        queue_id: 2,
                        event_id: 23,
                        wait_events: vec![],
                        command: BatchCommand::Marker,
                    },
                    BatchEntry {
                        command_id: 0,
                        queue_id: 2,
                        event_id: 6,
                        wait_events: vec![],
                        command: BatchCommand::Replacement { status: None },
                    },
                    BatchEntry {
                        command_id: 0,
                        queue_id: 2,
                        event_id: 7,
                        wait_events: vec![],
                        command: BatchCommand::Replacement { status: Some(-5) },
                    },
                    BatchEntry {
                        command_id: 0,
                        queue_id: 2,
                        event_id: 0,
                        wait_events: vec![],
                        command: BatchCommand::Release { event_ids: vec![4, 5] },
                    },
                ],
            },
            "1b07000000840300000000000002000000000000001400000000000000020000\
                0006000000000000000700000000000000000300000000000000080000000000\
                00004000000000000000c8000000000000008503000000000000020000000000\
                0000150000000000000000000000010300000000000000000000000000000010\
                00000000000000c9000000000000008603000000000000020000000000000016\
                0000000000000001000000140000000000000002050000000000000001800000\
                0000000000010000000000000001000000000000000000000000000000000000\
                0000000000000000000000000000870300000000000002000000000000001700\
                0000000000000000000003000000000000000002000000000000000600000000\
                0000000000000004000000000000000000020000000000000007000000000000\
                00000000000401fbffffff000000000000000002000000000000000000000000\
                00000000000000050200000004000000000000000500000000000000",
        );
        check(Request::GetSessionInfo, "1c");
        check(
            Request::UploadBufferRange {
                buffer_id: 3,
                ranges: vec![(4096, 512), (8192, 64)],
                stream_id: 14,
            },
            "1d03000000000000000200000000100000000000000002000000000000002000\
                000000000040000000000000000e00000000000000",
        );
        check(
            Request::DownloadBufferRange {
                buffer_id: 3,
                ranges: vec![(128, 64), (4096, 32)],
                stream_id: 15,
            },
            "1f03000000000000000200000080000000000000004000000000000000001000\
                000000000020000000000000000f00000000000000",
        );
    }

    #[test]
    fn all_responses_roundtrip() {
        check(Response::Ok, "00");
        check(
            Response::Error { code: -30, message: "CL_INVALID_VALUE".into() },
            "01e2ffffff10000000434c5f494e56414c49445f56414c5545",
        );
        check(
            Response::DeviceList {
                devices: vec![DeviceDescriptor {
                    remote_id: 1,
                    name: "Tesla".into(),
                    vendor: "NVIDIA".into(),
                    device_type: "GPU".into(),
                    compute_units: 30,
                    global_mem_bytes: 4 << 30,
                    max_alloc_bytes: 1 << 30,
                }],
            },
            "02010000000100000000000000050000005465736c61060000004e5649444941\
                030000004750551e00000000000000010000000000004000000000",
        );
        check(
            Response::BuildLog { log: "error at 1:1".into() },
            "030c0000006572726f7220617420313a31",
        );
        check(Response::EventStatus { status: 0 }, "0400000000");
        check(
            Response::ServerInfo(ServerInfo {
                name: "gpuserver".into(),
                device_count: 4,
                managed: true,
            }),
            "05090000006770757365727665720400000001",
        );
        check(Response::OkTimed { modeled_nanos: 123_456 }, "0640e2010000000000");
        check(
            Response::BatchEnqueued {
                statuses: vec![
                    BatchEntryStatus::ok(),
                    BatchEntryStatus { code: -34, message: "unknown event id 9".into() },
                ],
                completed: vec![EventCompletion {
                    event_id: 20,
                    status: 0,
                    modeled_nanos: 4_096,
                    work_items: 0,
                }],
            },
            "07020000000000000000000000deffffff12000000756e6b6e6f776e20657665\
                6e74206964203901000000140000000000000000000000001000000000000000\
                00000000000000",
        );
        check(
            Response::BatchEnqueued { statuses: vec![BatchEntryStatus::ok()], completed: vec![] },
            "0701000000000000000000000000000000",
        );
        check(
            Response::SessionInfo(SessionInfo {
                auth_id: Some("lease-1".into()),
                epoch: 2,
                resumed: true,
                dedup_admitted: 17,
                dedup_replayed: 3,
            }),
            "0801070000006c656173652d3102000000000000000111000000000000000300\
                000000000000",
        );
    }

    #[test]
    fn notification_roundtrip() {
        check(
            Notification::EventsCompleted {
                events: vec![
                    EventCompletion {
                        event_id: 42,
                        status: 0,
                        modeled_nanos: 5_000_000,
                        work_items: 1024,
                    },
                    EventCompletion { event_id: 43, status: -14, modeled_nanos: 0, work_items: 0 },
                ],
            },
            "01020000002a0000000000000000000000404b4c000000000000040000000000\
                002b00000000000000f2ffffff00000000000000000000000000000000",
        );
        check(Notification::EventsCompleted { events: vec![] }, "0100000000");
    }

    #[test]
    fn client_notification_roundtrip() {
        check(
            ClientNotification::EventStatus { event_id: 42, status: -14 },
            "002a00000000000000f2ffffff",
        );
        check(
            ClientNotification::ReleaseEvents { event_ids: vec![42, 43] },
            "01020000002a000000000000002b00000000000000",
        );
    }

    #[test]
    fn retired_tags_are_rejected() {
        // Each retired message's last encoding, tag first: the tag stays
        // unused, so the bytes fail to decode however well-formed the rest.
        let requests = [
            // 16-19: single-command enqueues (write, read, NDRange, marker).
            "1002000000000000000300000000000000000000000000000000100000000000\
                0007000000000000006300000000000000010000000600000000000000",
            "1102000000000000000300000000000000100000000000000040000000000000\
                000800000000000000640000000000000000000000",
            "1202000000000000000500000000000000090000000000000002400000000000\
                0000200000000000000001000000000000000000000000000000000000000000\
                0000000000000000000001080000000000000008000000000000000100000000\
                0000000200000007000000000000000800000000000000",
            "1302000000000000000a00000000000000010000000900000000000000",
            // 20, 21: eager user-event creation and completion.
            "140b00000000000000",
            "150b00000000000000",
            // 25, 26: whole-buffer coherence upload and download.
            "1903000000000000000c000000000000004000000000000000",
            "1a03000000000000000d00000000000000",
            // 30: a download of one range.
            "1e0300000000000000800000000000000040000000000000000f000000000000\
                00",
        ];
        // 9: the range download's echo of its offset and size.
        let responses = ["0900100000000000000002000000000000db03000000000000"];
        // 0: one event's completion per frame.
        let notifications = ["002a0000000000000000000000404b4c00000000000004000000000000"];
        let bytes = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        for hex in requests {
            assert!(Request::from_bytes(&bytes(hex)).is_err(), "retired request {hex} decoded");
        }
        for hex in responses {
            assert!(Response::from_bytes(&bytes(hex)).is_err(), "retired response {hex} decoded");
        }
        for hex in notifications {
            let decoded = Notification::from_bytes(&bytes(hex));
            assert!(decoded.is_err(), "retired notification {hex} decoded");
        }
    }

    #[test]
    fn wire_values_roundtrip() {
        for (v, golden) in [
            (Value::int(-3), "000500fdffffffffffffff"),
            (Value::uint(7), "0006010700000000000000"),
            (Value::float(2.5), "000a020000000000000440"),
            (Value::double(-1.25), "000b02000000000000f4bf"),
            (Value::size_t(1 << 40), "0009010000000000010000"),
            (Value::boolean(true), "0000010100000000000000"),
            (
                Value::Vector(ScalarType::Float, vec![Scalar::F(1.0), Scalar::F(2.0)]),
                "010a0200000002000000000000f03f020000000000000040",
            ),
            (Value::Void, "02"),
        ] {
            check(WireValue(v), golden);
        }
    }

    #[test]
    fn error_response_converts_to_dcl_error() {
        let r = Response::Error { code: -5, message: "boom".into() };
        assert!(r.into_result().is_err());
        assert!(Response::Ok.into_result().is_ok());
    }

    #[test]
    fn range_upload_with_an_overlong_range_list_is_rejected() {
        let msg = Request::UploadBufferRange { buffer_id: 3, ranges: vec![(0, 8)], stream_id: 1 };
        let mut bytes = msg.to_bytes();
        // Claim 2^32 - 1 ranges where one follows: truncated, not a huge
        // allocation.
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::from_bytes(&bytes).is_err());
        let empty = Request::UploadBufferRange { buffer_id: 3, ranges: vec![], stream_id: 1 };
        assert_eq!(Request::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        assert!(Request::from_bytes(&[200]).is_err());
        assert!(Response::from_bytes(&[99]).is_err());
        assert!(Notification::from_bytes(&[7]).is_err());
        assert!(ClientNotification::from_bytes(&[7]).is_err());
    }
}
