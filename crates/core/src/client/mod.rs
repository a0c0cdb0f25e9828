//! The dOpenCL client driver: handle-based object API.
//!
//! The client driver is the library an OpenCL application links against
//! (Section III-B of the paper).  It presents all devices of every connected
//! server as if they were installed locally (the *dOpenCL platform*,
//! Section III-E), intercepts API calls, and forwards them to the daemons
//! owning the referenced remote objects.
//!
//! # The object model
//!
//! [`Client`] owns the connection state (server roster, event registry,
//! simulation clock) and exposes only *platform-level* operations: server
//! management (the WWU extension of [`crate::ext`]) and device enumeration.
//! Everything else lives on the object that owns the operation, exactly like
//! a native OpenCL binding:
//!
//! ```text
//! Client ──► Context::new(&client, &devices)
//!               │
//!               ├─ context.create_command_queue(&device) ──► CommandQueue
//!               ├─ context.create_buffer(size)           ──► Buffer
//!               └─ context.create_program_with_source(s) ──► Program
//!                     ├─ program.build()
//!                     └─ program.create_kernel(name)     ──► Kernel
//!                           └─ kernel.set_arg(i, arg)
//! ```
//!
//! Enqueue operations are builders on [`CommandQueue`], so new options
//! (batching, async submission) can be added without signature churn:
//!
//! ```text
//! queue.write_buffer(&buf, &data).at_offset(64).after(&[e]).submit()?;
//! let (bytes, event) = queue.read_buffer(&buf).submit()?;
//! queue.launch(&kernel, NdRange::linear(1024)).after(&[e]).submit()?;
//! queue.marker().submit()?;
//! queue.finish()?;
//! ```
//!
//! Every stub holds a weak reference to the client's internals: once the
//! last [`Client`] clone is dropped, using a surviving stub fails with
//! [`DclError::ClientDropped`] instead of panicking or hanging.
//!
//! # Batching & flush semantics
//!
//! Enqueue operations do **not** cross the network one by one.  The client
//! accumulates the commands bound for each server — those of every queue
//! on it, in enqueue order — and ships the whole run as a single
//! `EnqueueBatch` request: one round trip for N commands
//! instead of N round trips, which is the dominant cost on a
//! gigabit-Ethernet link (Section V of the paper measures exactly this
//! overhead).  Completion comes back in bulk: a small transfer that ran
//! while the daemon handled the batch reports its status in that response,
//! and the others are reported as they finish, a run of commands to one
//! `EventsCompleted` notification, to resolve the client-side [`Event`]s
//! (`ARCHITECTURE.md`, "Completion reporting").
//!
//! A server's pending batch is flushed by:
//!
//! * a **blocking operation** — `write_buffer(..).blocking()`, the blocking
//!   [`ReadBufferOp::submit`], or [`CommandQueue::finish`];
//! * **waiting on an event** — [`Event::wait`], [`Event::wait_timeout`],
//!   [`Event::wait_all`] flush every pending batch of the client first;
//! * a **marker** — [`CommandQueue::marker`] ships its server's batch so
//!   the marker observes everything enqueued before it;
//! * an explicit [`CommandQueue::flush`] (`clFlush`);
//! * **dropping** the last clone of a queue (nothing enqueued is ever
//!   silently discarded);
//! * a command that **waits on an event still pending for another
//!   server**: that server's batch ships first, since a daemon resolves
//!   wait lists at enqueue time;
//! * coherence traffic that must observe queued commands: validating a
//!   buffer on another server flushes the source/target servers first (and
//!   then waits for the commands they still owe, see "Range coherence"),
//!   and [`Client::disconnect_server`] flushes the server being
//!   disconnected.
//!
//! Ordering within a batch is preserved, and the daemon chains each entry
//! on its queue predecessor, so an entry that fails mid-batch fails every
//! later entry of that queue (wait-list error, status `-14`) while earlier
//! entries stay completed.  Non-blocking reads are available through
//! [`ReadBufferOp::submit_async`], which returns a [`PendingRead`] whose
//! data is collected at [`PendingRead::wait`] time.  [`Client::set_batching`]
//! disables accumulation (every command ships as a batch of one) for A/B
//! measurements, and [`Client::traffic_stats`] exposes the wire-message
//! counters the `fig7`/`fig8` harnesses record.
//!
//! # Consistency protocols
//!
//! *Compound stubs* (contexts, programs, kernels, buffers, events) replicate
//! calls to every participating server and keep the copies consistent:
//!
//! * memory objects through the directory-based MSI protocol in
//!   [`crate::coherence`], and
//! * events through *replacement* user events, created only where a wait
//!   list crosses servers.  When a command bound for server S waits on an
//!   event owned by another server, the batch carrying the command to S
//!   first creates the replacement there — already terminal, with the
//!   event's status, if the event has finished.  Otherwise, when the owning
//!   daemon reports the completion to the client, the client forwards the
//!   status (success or the error code) to every server holding a
//!   replacement as a one-way notification, so a failed event fails its
//!   dependants there with the wait-list error (`-14`).  Once the
//!   application has dropped every handle to a finished event, its id
//!   rides the next batch to each server that knows it, which then forgets
//!   the event.  Contexts whose wait lists never cross servers pay nothing
//!   for any of this.  `ARCHITECTURE.md` walks through the lifecycle.
//!
//! ## Range coherence
//!
//! The buffer directory tracks validity per **byte range** (an interval map
//! of `range → per-server state`; see the [`crate::coherence`] module docs
//! for the full semantics).  Before a command reads a buffer on a server,
//! the driver asks the directory for a [`crate::coherence::DeltaPlan`] and
//! moves *only the stale ranges*: it downloads the ranges its own copy
//! lacks from their current owners (one `DownloadBufferRange` per owner),
//! then uploads the server's stale ranges, all in one `UploadBufferRange`.
//! A read validates only the range it reads.  Before it moves a byte, the
//! driver waits for every command the target and the owners still owe it
//! (its own outstanding events), so a move never overtakes a command
//! submitted before it.  Host writes dirty
//! exactly the written range; kernel launches dirty the whole buffer unless
//! the launch declares its access slice with [`LaunchOp::writes_slice`]
//! (or opts out of dirtying entirely with [`LaunchOp::reads_only`]) — which
//! is what lets a buffer be partitioned across daemons, each device owning
//! the slice its launches touch.  When a plan would fragment into more
//! ranges than the directory's fragmentation cap, it collapses to a
//! whole-buffer upload.
//!
//! Setting `DCL_COHERENCE=whole` (or [`Client::set_coherence_mode`])
//! puts the same directory under the paper's whole-buffer policy: a kernel
//! launch dirties the whole buffer and every validation ships the whole
//! buffer.  fig7 measures it as the paper baseline against range
//! transfers.  After a failover to a restarted daemon, the supervisor
//! invalidates only that server's ranges, so re-validation traffic is
//! limited to the ranges that were actually lost.
//!
//! All modelled costs (network transfer times from the [`LinkModel`],
//! remote PCIe/bus and kernel execution times reported by the daemons) are
//! charged to the client's [`SimClock`], split into the initialization /
//! execution / data-transfer phases the paper's figures use.
//!
//! # Failure semantics
//!
//! A server connection can die at any moment (daemon crash, network
//! partition, process kill).  The client driver recovers as follows
//! (Section IV-C of the paper describes the daemon-side half).  All it
//! keeps per server (connection, session epoch, setup log, waiting event
//! traffic, counters of retired endpoints) lives in that server's slot of
//! the roster, which outlives every connection to it.
//!
//! * **Detection** — every endpoint's receiver thread reports its own death
//!   through a supervisor callback; callers additionally detect death
//!   through failed calls.  Both paths converge on one single-flight
//!   recovery routine per server, so concurrent detections reconnect once.
//! * **Reconnect** — governed by the client's [`FailoverPolicy`]: the
//!   supervisor redials the server's address with exponential backoff
//!   ([`gcf::retry_with_backoff`]) and re-handshakes with a bumped *session
//!   epoch*.  The daemon parks session state by client identity; a `Hello`
//!   with `epoch > 0` adopts the parked state (`resumed = true`) so every
//!   remote object — and the command dedup window — survives the
//!   connection.
//! * **Re-creation** — when the daemon does *not* resume the session (the
//!   daemon process itself was restarted), the client replays its recorded
//!   setup log (context / queue / buffer / program / kernel creation and
//!   kernel-argument calls) against the fresh daemon, then invalidates the
//!   server's buffer copies in the MSI directory.  The next command that
//!   reads a buffer there re-validates it from a surviving copy through the
//!   normal [`crate::coherence::DeltaPlan`] machinery, re-uploading only
//!   the ranges that are stale there (the whole buffer under the
//!   whole-buffer policy).  The commands the lost session had accepted
//!   will never report, so their events fail with the wait-list error.
//! * **Exactly-once replay** — every batch entry carries a client-generated
//!   `command_id`.  A batch whose response was lost is re-sent verbatim
//!   after the reconnect; the daemon's bounded dedup window recognises ids
//!   it already executed and suppresses re-execution.  The replay needs no
//!   status of its own: a daemon that hands back the parked session reports
//!   again every finished command the client has not released, so a status
//!   lost with the old connection still arrives, and a command still
//!   running reports to the adopting connection when it finishes.  The
//!   statuses a new connection hears settle only once its handshake has
//!   succeeded and it is back in its slot, after the reconnect is counted.
//! * **Giving up** — if redialling exhausts the backoff budget and
//!   [`FailoverPolicy::drop_lost_servers`] is set, the server leaves the
//!   roster through the same routine as an explicit `clDisconnectServerWWU`
//!   ([`Client::disconnect_server`]): its pending batches are discarded,
//!   its outstanding events fail with the wait-list error (`-14`), which is
//!   forwarded to every server holding a replacement so dependants there
//!   fail too, its buffer copies are invalidated (a range only it held
//!   degrades to the client's last copy), its traffic stays counted, and
//!   the application continues on the surviving servers.  Otherwise the
//!   failure surfaces as [`DclError::ServerUnavailable`].
//!
//! Bulk transfers that were *in flight* across the failure are not
//! replayed: a write's stream data and a read's reply stream die with the
//! connection, so the affected events fail (`-14`) and the operation must
//! be re-issued by the application.  Everything request/response-shaped —
//! including whole command batches — is retried transparently.

mod batch;
mod conn;
mod events;
mod handles;
mod validation;

pub use conn::FailoverPolicy;
pub use events::Event;
pub use handles::{
    Arg, Buffer, CommandQueue, Context, Device, DeviceType, Kernel, LaunchOp, MarkerOp,
    PendingRead, Program, ReadBufferOp, ServerId, WriteBufferOp,
};

use crate::coherence::{BufferDirectory, CoherenceMode};
use crate::config;
use crate::error::{DclError, Result};
use crate::protocol::{ObjectId, Request, Response, ServerInfo, SessionInfo, WireValue};
use gcf::rpc::TrafficStats;
use gcf::simtime::{Phase, SimClock};
use gcf::transport::Transport;
use gcf::LinkModel;
use handles::{AccessHint, QueueFlusher};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

struct ClientInner {
    name: String,
    // Needed to hand batches and event records a weak back-reference.
    self_weak: Weak<ClientInner>,
    transport: Arc<dyn Transport>,
    link: LinkModel,
    clock: SimClock,
    next_id: AtomicU64,
    /// The roster: one slot per server ever connected, indexed by
    /// [`ServerId`].  No network write happens while its lock is held.
    servers: Mutex<Vec<conn::ServerSlot>>,
    /// Events not yet terminal, by id, for the completion reports.
    events: Mutex<HashMap<ObjectId, Arc<events::EventRecord>>>,
    batching: AtomicBool,
    auth_id: Mutex<Option<String>>,
    /// Signalled, with the roster lock, when a reconnect attempt (any
    /// server) finishes.
    recovery_cond: Condvar,
    failover: Mutex<FailoverPolicy>,
    /// Directories of every live buffer, so a reconnect to a restarted
    /// daemon can invalidate that server's copies.
    buffer_dirs: Mutex<Vec<Weak<Mutex<BufferDirectory>>>>,
    /// Coherence policy for buffers created from now on (initialised from
    /// `DCL_COHERENCE`; see [`crate::coherence::CoherenceMode`]).
    coherence_mode: Mutex<CoherenceMode>,
}

impl ClientInner {
    fn allocate_id(&self) -> ObjectId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    // ----- object creation (compound stubs) --------------------------------

    fn create_context(self: &Arc<Self>, devices: &[Device]) -> Result<Context> {
        if devices.is_empty() {
            return Err(DclError::InvalidArgument("a context needs at least one device".into()));
        }
        let id = self.allocate_id();
        let mut per_server: HashMap<usize, Vec<ObjectId>> = HashMap::new();
        for d in devices {
            per_server.entry(d.server).or_default().push(d.descriptor.remote_id);
        }
        let mut servers: Vec<usize> = per_server.keys().copied().collect();
        servers.sort_unstable();
        for (&server, device_ids) in &per_server {
            self.call_server(
                server,
                Request::CreateContext { context_id: id, devices: device_ids.clone() },
                Phase::Initialization,
            )?;
        }
        Ok(Context { client: Arc::downgrade(self), id, devices: devices.to_vec(), servers })
    }

    fn create_command_queue(
        self: &Arc<Self>,
        context: &Context,
        device: &Device,
    ) -> Result<CommandQueue> {
        if !context.devices.iter().any(|d| {
            d.server == device.server && d.descriptor.remote_id == device.descriptor.remote_id
        }) {
            return Err(DclError::InvalidArgument("the device is not part of the context".into()));
        }
        let id = self.allocate_id();
        self.call_server(
            device.server,
            Request::CreateCommandQueue {
                queue_id: id,
                context_id: context.id,
                device: device.descriptor.remote_id,
            },
            Phase::Initialization,
        )?;
        Ok(CommandQueue {
            client: Arc::downgrade(self),
            id,
            server: device.server,
            device: device.clone(),
            _flusher: Arc::new(QueueFlusher {
                client: Arc::downgrade(self),
                server: device.server,
            }),
        })
    }

    fn create_buffer(self: &Arc<Self>, context: &Context, size: usize) -> Result<Buffer> {
        if size == 0 {
            return Err(DclError::InvalidArgument("buffer size must be non-zero".into()));
        }
        let id = self.allocate_id();
        self.setup_on(&context.servers, || Request::CreateBuffer {
            buffer_id: id,
            context_id: context.id,
            size: size as u64,
            readable: true,
            writable: true,
        })?;
        let directory = self.new_directory(&context.servers, size);
        Ok(Buffer { id, size, directory })
    }

    fn create_program_with_source(
        self: &Arc<Self>,
        context: &Context,
        source: &str,
    ) -> Result<Program> {
        // Parse-only (never bumps the build counter); a source the parser
        // rejects simply derives no hints — the build on the daemon
        // reports the real error.
        let access = oclc::access::analyze(source).unwrap_or_default();
        self.create_program(context, access, |program_id| {
            // Program code is shipped to every server: charge the transfer.
            self.clock.charge(Phase::Initialization, self.link.transfer_time(source.len() as u64));
            let source = source.to_string();
            Request::CreateProgramWithSource { program_id, context_id: context.id, source }
        })
    }

    fn create_program_with_built_in_kernels(
        self: &Arc<Self>,
        context: &Context,
        names: &str,
    ) -> Result<Program> {
        self.create_program(context, Vec::new(), |program_id| {
            let names = names.to_string();
            Request::CreateProgramWithBuiltInKernels { program_id, context_id: context.id, names }
        })
    }

    /// Create a program on every server of `context` with the request
    /// `create` makes for its id.
    fn create_program(
        self: &Arc<Self>,
        context: &Context,
        access: Vec<oclc::access::KernelAccess>,
        create: impl Fn(ObjectId) -> Request,
    ) -> Result<Program> {
        let id = self.allocate_id();
        self.setup_on(&context.servers, || create(id))?;
        let servers = context.servers.clone();
        Ok(Program { client: Arc::downgrade(self), id, servers, access: Arc::new(access) })
    }

    fn build_program(&self, program: &Program) -> Result<()> {
        let build = || Request::BuildProgram { program_id: program.id };
        self.setup_on(&program.servers, build).map_err(|e| {
            let log = self.get_build_log(program).unwrap_or_default();
            DclError::Cl(vocl::ClError::BuildProgramFailure(format!("{e}\n{log}")))
        })
    }

    fn get_build_log(&self, program: &Program) -> Result<String> {
        let server = *program
            .servers
            .first()
            .ok_or_else(|| DclError::InvalidArgument("program has no servers".into()))?;
        match self.call_server(
            server,
            Request::GetBuildLog { program_id: program.id },
            Phase::Initialization,
        )? {
            Response::BuildLog { log } => Ok(log),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    fn create_kernel(self: &Arc<Self>, program: &Program, name: &str) -> Result<Kernel> {
        let id = self.allocate_id();
        self.setup_on(&program.servers, || Request::CreateKernel {
            kernel_id: id,
            program_id: program.id,
            name: name.to_string(),
        })?;
        let derived_access = program
            .access
            .iter()
            .find(|k| k.name == name)
            .map(|k| Arc::new(k.args.clone()))
            .unwrap_or_default();
        Ok(Kernel {
            client: Arc::downgrade(self),
            id,
            name: name.to_string(),
            servers: program.servers.clone(),
            buffer_args: Arc::new(Mutex::new(HashMap::new())),
            derived_access,
        })
    }

    fn set_kernel_arg(&self, kernel: &Kernel, index: u32, arg: Arg) -> Result<()> {
        if !matches!(arg, Arg::Buffer(_)) {
            kernel.buffer_args.lock().remove(&index);
        }
        let kernel_id = kernel.id;
        self.setup_on(&kernel.servers, || match &arg {
            Arg::Scalar(value) => {
                Request::SetKernelArgScalar { kernel_id, index, value: WireValue(value.clone()) }
            }
            Arg::Buffer(buffer) => {
                Request::SetKernelArgBuffer { kernel_id, index, buffer_id: buffer.id }
            }
            Arg::Local(bytes) => {
                Request::SetKernelArgLocal { kernel_id, index, bytes: *bytes as u64 }
            }
        })?;
        if let Arg::Buffer(buffer) = arg {
            kernel.buffer_args.lock().insert(index, buffer);
        }
        Ok(())
    }

    /// Send the setup request `request` makes to each of `servers` in turn,
    /// stopping at the first failure.
    fn setup_on(&self, servers: &[usize], request: impl Fn() -> Request) -> Result<()> {
        for &server in servers {
            self.call_server(server, request(), Phase::Initialization)?;
        }
        Ok(())
    }
}

/// The dOpenCL client driver: the application-facing entry point.
///
/// `Client` owns platform- and server-level state; object-level operations
/// live on the stubs it hands out (see the [module docs](self) for the full
/// object model and the migration table from the pre-0.2 god-object API).
#[derive(Clone)]
pub struct Client {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("name", &self.inner.name)
            .field("servers", &self.inner.connected().len())
            .finish()
    }
}

impl Client {
    /// Create a client driver that reaches its servers through `transport`
    /// over a network modelled by `link`, charging modelled time to `clock`.
    pub fn new(
        name: impl Into<String>,
        transport: Arc<dyn Transport>,
        link: LinkModel,
        clock: SimClock,
    ) -> Client {
        let name = name.into();
        Client {
            inner: Arc::new_cyclic(|self_weak| ClientInner {
                name,
                self_weak: self_weak.clone(),
                transport,
                link,
                clock,
                next_id: AtomicU64::new(1),
                servers: Mutex::new(Vec::new()),
                events: Mutex::new(HashMap::new()),
                batching: AtomicBool::new(true),
                auth_id: Mutex::new(None),
                recovery_cond: Condvar::new(),
                failover: Mutex::new(FailoverPolicy::default()),
                buffer_dirs: Mutex::new(Vec::new()),
                coherence_mode: Mutex::new(CoherenceMode::from_env()),
            }),
        }
    }

    /// The dOpenCL platform name (`CL_PLATFORM_NAME` of the uniform platform
    /// of Section III-E).
    pub fn platform_name(&self) -> &'static str {
        "dOpenCL"
    }

    /// The dOpenCL platform vendor.
    pub fn platform_vendor(&self) -> &'static str {
        "University of Muenster (reproduction)"
    }

    /// The simulation clock this client charges modelled time to.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.clone()
    }

    /// The link model used between this client and its servers.
    pub fn link(&self) -> LinkModel {
        self.inner.link.clone()
    }

    /// Set the lease authentication id obtained from the device manager
    /// (presented to every server connected afterwards).
    pub fn set_auth_id(&self, auth_id: Option<String>) {
        *self.inner.auth_id.lock() = auth_id;
    }

    /// Enable or disable client-side command batching (enabled by default).
    ///
    /// With batching off every enqueue ships immediately as a batch of one —
    /// the per-command round-trip behaviour the figure harnesses use as the
    /// "before" measurement.  Disabling flushes everything pending.
    pub fn set_batching(&self, enabled: bool) {
        self.inner.batching.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.inner.flush_all();
        }
    }

    /// Coherence policy for buffers created from now on: delta transfers
    /// of the stale ranges ([`CoherenceMode::Range`], the default) or the
    /// paper's whole-buffer policy ([`CoherenceMode::Whole`], also
    /// selectable with `DCL_COHERENCE=whole`).  Existing buffers keep the
    /// policy they were created with.
    pub fn set_coherence_mode(&self, mode: CoherenceMode) {
        *self.inner.coherence_mode.lock() = mode;
    }

    /// The coherence mode buffers are currently created with.
    pub fn coherence_mode(&self) -> CoherenceMode {
        *self.inner.coherence_mode.lock()
    }

    /// Aggregated wire-traffic counters over every server ever connected
    /// (requests, notifications, bulk stream bytes).  Each slot's retired
    /// counters keep the totals monotonic across reconnects and departures.
    pub fn traffic_stats(&self) -> TrafficStats {
        self.inner.traffic_stats()
    }

    /// Number of events the client still tracks: those not terminal yet.  A
    /// leak check for tests — once every command has completed it is 0.
    pub fn tracked_events(&self) -> usize {
        self.inner.tracked_events()
    }

    /// Set how this client reacts to dead server connections (see the
    /// [module docs](self#failure-semantics)).
    pub fn set_failover_policy(&self, policy: FailoverPolicy) {
        *self.inner.failover.lock() = policy;
    }

    /// Query the daemon-side session of `server`: epoch, identity and the
    /// dedup-window counters (exactly-once bookkeeping).
    pub fn session_info(&self, server: ServerId) -> Result<SessionInfo> {
        let response =
            self.inner.call_server(server.0, Request::GetSessionInfo, Phase::Initialization)?;
        match response {
            Response::SessionInfo(info) => Ok(info),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    // ----- server management (Listing 1: the WWU API extension) -----------

    /// `clConnectServerWWU`: connect to the daemon at `address`, adding its
    /// devices to the application's device list.
    pub fn connect_server(&self, address: &str) -> Result<ServerId> {
        self.inner.add_server(address).map(ServerId)
    }

    /// Connect to every server listed in a configuration file's contents
    /// (Listing 2), as the automatic connection mechanism does during
    /// application initialization.
    pub fn connect_from_config(&self, contents: &str) -> Result<Vec<ServerId>> {
        let mut ids = Vec::new();
        for entry in config::parse_server_list(contents)? {
            ids.push(self.connect_server(&entry.address())?);
        }
        Ok(ids)
    }

    /// `clDisconnectServerWWU`: disconnect a server; its devices become
    /// unavailable.  The server's pending command batch is flushed
    /// first and the daemon is told, best effort; then the server leaves
    /// exactly as a lost one does under
    /// [`FailoverPolicy::drop_lost_servers`] (see the
    /// [module docs](self#failure-semantics)): commands still outstanding
    /// there fail with the wait-list error (`-14`), as do their dependants
    /// on other servers, its buffer copies become invalid, and its traffic
    /// stays counted in [`Client::traffic_stats`].
    pub fn disconnect_server(&self, server: ServerId) -> Result<()> {
        let _ = self.inner.flush_server(server.0);
        let conn = self.inner.server(server.0)?;
        let payload = self.inner.encode_charged(Phase::Initialization, &Request::Disconnect);
        let _ = conn.endpoint.call(payload);
        self.inner.drop_server(server.0);
        Ok(())
    }

    /// `clGetServerInfoWWU`: query information about a connected server.
    pub fn server_info(&self, server: ServerId) -> Result<ServerInfo> {
        let response =
            self.inner.call_server(server.0, Request::GetServerInfo, Phase::Initialization)?;
        match response {
            Response::ServerInfo(info) => Ok(info),
            other => Err(DclError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Ids of the currently connected servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.inner.connected().into_iter().map(|(i, _)| ServerId(i)).collect()
    }

    /// The id of the connected server at `address`, if any.
    pub fn server_by_address(&self, address: &str) -> Option<ServerId> {
        self.inner
            .connected()
            .into_iter()
            .find(|(_, conn)| conn.name == address)
            .map(|(i, _)| ServerId(i))
    }

    /// Reconcile the connected-server set with a lease's current server
    /// list — the client half of a resource-manager `LeaseChanged` notice
    /// (migration, preemption, failover).  Servers in `addresses` that are
    /// not yet connected are connected; connected servers *not* in the list
    /// are disconnected through [`Client::disconnect_server`], which fails
    /// their outstanding commands and invalidates their buffer copies, so
    /// the coherence directory re-validates from the survivors on next use.
    /// Returns the ids now backing the lease, in `addresses` order.
    pub fn sync_servers(&self, addresses: &[String]) -> Result<Vec<ServerId>> {
        let mut ids = Vec::new();
        for address in addresses {
            match self.server_by_address(address) {
                Some(id) => ids.push(id),
                None => ids.push(self.connect_server(address)?),
            }
        }
        for (index, conn) in self.inner.connected() {
            if !addresses.contains(&conn.name) {
                let _ = self.disconnect_server(ServerId(index));
            }
        }
        Ok(ids)
    }

    /// All devices of all connected servers, merged into the single device
    /// list of the dOpenCL platform.
    pub fn devices(&self) -> Vec<Device> {
        let mut out = Vec::new();
        for (index, conn) in self.inner.connected() {
            for d in &conn.devices {
                out.push(Device { server: index, descriptor: d.clone() });
            }
        }
        out
    }

    /// Devices of the given [`DeviceType`].
    pub fn devices_of(&self, kind: DeviceType) -> Vec<Device> {
        self.devices().into_iter().filter(|d| d.kind() == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::protocol::{Request, WireValue};
    use crate::{Context, LocalCluster, Value};
    use gcf::LinkModel;
    use vocl::Platform;

    const SCALE: &str = "__kernel void scale(__global int* a, int k) { a[get_global_id(0)] *= k; }";

    #[test]
    fn dropped_pending_read_leaves_no_stream_behind() {
        let mut cluster = LocalCluster::new(LinkModel::ideal());
        cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
        let client = cluster.client("dropped-read").unwrap();
        let devices = client.devices();
        let context = Context::new(&client, &devices).unwrap();
        let queue = context.create_command_queue(&devices[0]).unwrap();
        let buffer = context.create_buffer(256 << 10).unwrap();
        // Dropped before the stream arrives, and after.
        let early = queue.read_buffer(&buffer).submit_async().unwrap();
        let early_event = early.event().clone();
        drop(early);
        early_event.wait().unwrap();
        let late = queue.read_buffer(&buffer).submit_async().unwrap();
        late.event().wait().unwrap();
        drop(late);
        // A collected read behind them on the FIFO connection: both dropped
        // streams have fully arrived by the time its data has.
        let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
        assert_eq!(data.len(), 256 << 10);
        let endpoint = &client.inner.server(0).unwrap().endpoint;
        assert_eq!(endpoint.bulk_streams_held(), 0);
    }

    #[test]
    fn setup_log_keeps_one_entry_per_kernel_argument() {
        let mut cluster = LocalCluster::new(LinkModel::ideal());
        cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
        let client = cluster.client("arg-log").unwrap();
        let devices = client.devices();
        let context = Context::new(&client, &devices).unwrap();
        let buffer = context.create_buffer(64).unwrap();
        let program = context.create_program_with_source(SCALE).unwrap();
        program.build().unwrap();
        let kernel = program.create_kernel("scale").unwrap();
        kernel.set_arg(0, &buffer).unwrap();
        let before = client.inner.setup_log(0).len();
        for i in 0..1_000 {
            kernel.set_arg(1, Value::int(i)).unwrap();
        }
        let log = client.inner.setup_log(0);
        assert_eq!(log.len(), before + 1, "one entry for argument 1");
        assert!(matches!(
            log.last(),
            Some(Request::SetKernelArgScalar { index: 1, value, .. }) if *value == WireValue(Value::int(999))
        ));
        // Resetting argument 0 moves its entry to the end, after argument 1.
        kernel.set_arg(0, &buffer).unwrap();
        let log = client.inner.setup_log(0);
        assert_eq!(log.len(), before + 1);
        assert!(matches!(log.last(), Some(Request::SetKernelArgBuffer { index: 0, .. })));
    }
}
