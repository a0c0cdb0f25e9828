//! The per-connection batcher.  Everything waiting to travel to one server
//! sits in that server's [`Outgoing`] record: the commands of every queue
//! there in enqueue order, the replacements they need, the handles of the
//! events they wait on, and the event traffic (status forwards, released
//! ids).  A flush takes the record's contents under its lock and ships
//! them as one `EnqueueBatch` after letting go of it.

use super::events::failed_completion;
use super::{AccessHint, Buffer, ClientInner, CommandQueue, Event, Kernel, PendingRead};
use crate::coherence::ByteRange;
use crate::error::{DclError, Result};
use crate::protocol::{
    BatchCommand, BatchEntry, ClientNotification, ObjectId, Request, Response, WireNdRange,
};
use gcf::rpc::STREAM_CHUNK;
use gcf::simtime::Phase;
use gcf::wire::Encode;
use std::sync::atomic::Ordering;
use vocl::NdRange;

/// Everything waiting to travel to one server.  One per roster slot.  Its
/// lock is held across the one-way sends that drain it (forwards, a
/// release list), so they reach the server in order, but never across a
/// batch's round trip; it is never taken while the roster lock is held.
#[derive(Default)]
pub(super) struct Outgoing {
    /// Commands of every queue on the server, in enqueue order.
    entries: Vec<BatchEntry>,
    /// Replacements the entries need on the server: `(event id, status to
    /// create it with)`, each event once.
    replacements: Vec<(ObjectId, Option<i32>)>,
    /// Handles of every event the entries wait on, held until the batch has
    /// shipped so none of them is released while a command waits on it.
    waits: Vec<Event>,
    /// Status forwards whose notification failed (the server is
    /// reconnecting); re-sent once it is back, before any release.
    forwards: Vec<(ObjectId, i32)>,
    /// Released event ids; they ride the next batch to the server.
    released: Vec<ObjectId>,
    /// The server has left: nothing more is accepted.
    closed: bool,
}

impl Outgoing {
    /// Refuse everything from now on and hand back what was waiting, to be
    /// dropped outside the lock.
    pub(super) fn close(&mut self) -> Outgoing {
        let abandoned = std::mem::take(self);
        self.closed = true;
        abandoned
    }
}

/// Release-list length at which the list stops waiting for a batch and
/// travels on its own, as one notification.
const RELEASE_NOTIFY_AT: usize = 512;

/// A batch entry that carries event bookkeeping rather than a command.
fn bookkeeping_entry(event_id: ObjectId, command: BatchCommand) -> BatchEntry {
    BatchEntry { command_id: 0, queue_id: 0, event_id, wait_events: Vec::new(), command }
}

impl ClientInner {
    /// Append an entry, which waits on `wait`, to `server`'s pending batch.
    ///
    /// A wait-list event whose command is still pending for *another*
    /// server is shipped there first: the daemon resolves wait lists at
    /// enqueue time, so the original must exist before the replacement is
    /// waited on.  Such an event gets a replacement on this server, created
    /// by the same batch (event consistency, Section III-D).  With batching
    /// disabled the entry ships immediately as a batch of one (the
    /// pre-batching wire behaviour).
    ///
    /// An entry with a `following` stream (`(stream id, bytes)`, a write of
    /// more than one stream chunk) ships at once with the batch it ends: the
    /// batch is taken under the same outgoing lock that appends it, so no
    /// other flush can ship the entry without its bytes, and the stream
    /// follows the batch's request inside the same call.
    fn push_batch_entry(
        &self,
        server: usize,
        entry: BatchEntry,
        wait: &[Event],
        following: Option<(u64, &[u8])>,
    ) -> Result<()> {
        for event in wait {
            let owner = event.owner().0;
            if owner != server && self.holds_pending(owner, event.id()) {
                self.flush_server(owner)?;
            }
        }
        let replacements: Vec<(ObjectId, Option<i32>)> = wait
            .iter()
            .filter(|event| event.owner().0 != server)
            .map(|event| (event.id(), event.replicate_on(server)))
            .collect();
        let left = || DclError::ServerUnavailable(format!("server #{server} has left"));
        let outgoing = self.outgoing(server).ok_or_else(left)?;
        let taken = {
            let mut out = outgoing.lock();
            if out.closed {
                return Err(left());
            }
            for replacement in replacements {
                if !out.replacements.iter().any(|(id, _)| *id == replacement.0) {
                    out.replacements.push(replacement);
                }
            }
            out.waits.extend_from_slice(wait);
            out.entries.push(entry);
            following.and_then(|_| self.take_batch(server, &mut out))
        };
        if let Some((entries, first_command, _waits)) = taken {
            return self.ship_batch(server, entries, first_command, following);
        }
        if !self.batching.load(Ordering::Relaxed) {
            self.flush_server(server)?;
        }
        Ok(())
    }

    /// Whether `server`'s pending batch holds the command of `event_id`.
    fn holds_pending(&self, server: usize, event_id: ObjectId) -> bool {
        self.outgoing(server)
            .is_some_and(|o| o.lock().entries.iter().any(|e| e.event_id == event_id))
    }

    /// Number of `queue_id`'s commands in `server`'s pending batch.
    pub(super) fn pending_commands(&self, server: usize, queue_id: ObjectId) -> usize {
        self.outgoing(server)
            .map_or(0, |o| o.lock().entries.iter().filter(|e| e.queue_id == queue_id).count())
    }

    /// Ship `server`'s pending batch as one `EnqueueBatch`: the server's
    /// release list first (unless a status forward to it is still waiting:
    /// a release must not overtake the forward to the replacement it
    /// releases), then the replacements the commands need, then the
    /// commands.  A no-op if no command is pending.  The batch's wait-list
    /// handles drop when this returns.
    pub(super) fn flush_server(&self, server: usize) -> Result<()> {
        let Some(outgoing) = self.outgoing(server) else { return Ok(()) };
        let taken = self.take_batch(server, &mut outgoing.lock());
        let Some((entries, first_command, _waits)) = taken else { return Ok(()) };
        self.ship_batch(server, entries, first_command, None)
    }

    /// Take `server`'s pending batch out of its outgoing record `out`, as
    /// `flush_server` ships it: the entries, the index of the first
    /// command, and the wait-list handles to hold until it has shipped.
    /// `None` if no command is pending.
    fn take_batch(
        &self,
        server: usize,
        out: &mut Outgoing,
    ) -> Option<(Vec<BatchEntry>, usize, Vec<Event>)> {
        if out.entries.is_empty() {
            return None;
        }
        self.send_forwards(server, out);
        let mut entries = Vec::with_capacity(out.entries.len() + out.replacements.len() + 1);
        if out.forwards.is_empty() && !out.released.is_empty() {
            let event_ids = std::mem::take(&mut out.released);
            entries.push(bookkeeping_entry(0, BatchCommand::Release { event_ids }));
        }
        for (event_id, status) in out.replacements.drain(..) {
            entries.push(bookkeeping_entry(event_id, BatchCommand::Replacement { status }));
        }
        let first_command = entries.len();
        entries.append(&mut out.entries);
        Some((entries, first_command, std::mem::take(&mut out.waits)))
    }

    /// Ship every pending batch, best effort: transport failures fail the
    /// affected events locally and are not propagated.
    pub(super) fn flush_all(&self) {
        for (server, _) in self.connected() {
            let _ = self.flush_server(server);
        }
    }

    /// Send `status` for `event_id` to `server`'s replacement as a one-way
    /// notification.  If the server is reconnecting the forward waits in its
    /// outgoing record and goes out once `recover_server` succeeds.
    pub(super) fn forward_status(&self, server: usize, event_id: ObjectId, status: i32) {
        let Some(outgoing) = self.outgoing(server) else { return };
        let mut out = outgoing.lock();
        out.forwards.push((event_id, status));
        self.send_forwards(server, &mut out);
    }

    /// Send the forwards waiting for `server`, as after a reconnect.
    pub(super) fn send_waiting_forwards(&self, server: usize) {
        if let Some(outgoing) = self.outgoing(server) {
            self.send_forwards(server, &mut outgoing.lock());
        }
    }

    /// Send `server`'s waiting forwards, in order, until one fails.
    fn send_forwards(&self, server: usize, out: &mut Outgoing) {
        if out.forwards.is_empty() {
            return;
        }
        let Ok(conn) = self.server(server) else { return };
        let mut sent = 0;
        for &(event_id, status) in &out.forwards {
            let forward = ClientNotification::EventStatus { event_id, status };
            if conn.endpoint.notify(forward.to_bytes()).is_err() {
                break;
            }
            sent += 1;
        }
        out.forwards.drain(..sent);
    }

    /// Queue `event_id` for release on `server`; it rides the next batch
    /// there, or travels on its own once the list is long.
    pub(super) fn queue_release(&self, server: usize, event_id: ObjectId) {
        let Some(outgoing) = self.outgoing(server) else { return };
        let mut out = outgoing.lock();
        out.released.push(event_id);
        if out.released.len() >= RELEASE_NOTIFY_AT {
            self.send_releases(server, &mut out);
        }
    }

    /// Ship `server`'s release list on its own, as one notification (same
    /// ordering rule as a batch: not ahead of a waiting forward).  A list
    /// whose send fails is dropped with its connection.
    fn send_releases(&self, server: usize, out: &mut Outgoing) {
        self.send_forwards(server, out);
        if out.released.is_empty() || !out.forwards.is_empty() {
            return;
        }
        let event_ids = std::mem::take(&mut out.released);
        if let Ok(conn) = self.server(server) {
            let release = ClientNotification::ReleaseEvents { event_ids };
            let _ = conn.endpoint.notify(release.to_bytes());
        }
    }

    pub(super) fn flush_releases(&self, server: usize) {
        if let Some(outgoing) = self.outgoing(server) {
            self.send_releases(server, &mut outgoing.lock());
        }
    }

    /// Ship `entries`, a batch taken out of `server`'s outgoing record whose
    /// commands start at `first_command`, in one round trip, with the
    /// `following` stream of its last write, if any, right after the
    /// request; and settle what the response reports.
    fn ship_batch(
        &self,
        server: usize,
        entries: Vec<BatchEntry>,
        first_command: usize,
        following: Option<(u64, &[u8])>,
    ) -> Result<()> {
        let commands = &entries[first_command..];
        let event_ids: Vec<ObjectId> = commands.iter().map(|e| e.event_id).collect();
        let has_transfer = commands.iter().any(|e| {
            matches!(e.command, BatchCommand::WriteBuffer { .. } | BatchCommand::ReadBuffer { .. })
        });
        let phase = if has_transfer { Phase::DataTransfer } else { Phase::Execution };
        let request = Request::EnqueueBatch { entries };
        // One round trip for the whole batch — the point of accumulating.
        // Goes through the recovery path: if the connection dies mid-call
        // the batch, and the stream that follows it, are re-sent verbatim
        // after the reconnect, and the daemon's dedup window (keyed by the
        // entries' command ids) makes the replay execute exactly once.
        let payload = self.encode_charged(phase, &request);
        let (response, epoch) = match self.call_with_recovery(server, &payload, following) {
            Ok(answer) => answer,
            Err(e) => {
                self.fail_events(&event_ids, -14);
                return Err(e);
            }
        };
        let (statuses, mut completed) = match response {
            Response::BatchEnqueued { statuses, completed } => (statuses, completed),
            Response::Error { code, message } => {
                self.fail_events(&event_ids, code);
                return Err(DclError::Protocol(format!("server error {code}: {message}")));
            }
            other => {
                self.fail_events(&event_ids, -14);
                return Err(DclError::Protocol(format!("unexpected response {other:?}")));
            }
        };
        // The daemon stops at the first entry that fails to *enqueue*; its
        // status carries the error, entries past it were never attempted and
        // fail with the wait-list error code.  The failures settle after the
        // completions the response carries.
        let mut first_error = None;
        for (index, &event_id) in event_ids.iter().enumerate() {
            let code = match statuses.get(first_command + index) {
                Some(status) if status.code == 0 => continue,
                Some(status) => {
                    first_error.get_or_insert_with(|| {
                        DclError::Protocol(format!(
                            "batch entry {index} failed: {} (code {})",
                            status.message, status.code
                        ))
                    });
                    status.code
                }
                None => -14,
            };
            completed.push(failed_completion(event_id, code));
        }
        self.complete_events(&completed);
        self.accept_events(server, &event_ids, epoch);
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ----- command execution -----------------------------------------------

    pub(super) fn enqueue_write(
        &self,
        queue: &CommandQueue,
        buffer: &Buffer,
        offset: usize,
        data: &[u8],
        wait: &[Event],
    ) -> Result<Event> {
        if offset.checked_add(data.len()).is_none_or(|end| end > buffer.size) {
            return Err(DclError::InvalidArgument(format!(
                "write of {} bytes at offset {offset} exceeds buffer size {}",
                data.len(),
                buffer.size
            )));
        }
        let server = queue.server;
        // Client-wide, like every stream id the client sends on, so a
        // stream re-sent on a new connection cannot meet another of its id.
        let stream_id = self.allocate_id();
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        let command = BatchCommand::WriteBuffer {
            buffer_id: buffer.id,
            offset: offset as u64,
            size: data.len() as u64,
            stream_id,
        };
        // Stream-based communication.  A write of at most one chunk sends
        // its payload now, and FIFO ordering brings it to the daemon ahead
        // of the batched request that references it.  A larger one follows
        // its request, so the daemon can receive it into its destination.
        let following = (data.len() > STREAM_CHUNK).then_some((stream_id, data));
        if following.is_none() {
            let conn = self.server(server)?;
            let sent = conn.endpoint.send_bulk(stream_id, data).map_err(DclError::from);
            self.recover_after_bulk(server, sent)?;
        }
        let event = self.enqueue(queue, Phase::DataTransfer, command, wait, following)?;
        buffer.directory.lock().record_host_write(server, offset, data);
        Ok(event)
    }

    pub(super) fn enqueue_read_async(
        &self,
        queue: &CommandQueue,
        buffer: &Buffer,
        offset: usize,
        len: usize,
        wait: &[Event],
    ) -> Result<PendingRead> {
        if offset.checked_add(len).is_none_or(|end| end > buffer.size) {
            return Err(DclError::InvalidArgument(format!(
                "read of {len} bytes at offset {offset} exceeds buffer size {}",
                buffer.size
            )));
        }
        let server = queue.server;
        self.ensure_valid_range_on(server, buffer, ByteRange::new(offset, offset + len))?;
        // The bytes land in place: in the Vec `PendingRead::wait` returns.
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        conn.endpoint.expect_bulk(stream_id, len);
        let command = BatchCommand::ReadBuffer {
            buffer_id: buffer.id,
            offset: offset as u64,
            size: len as u64,
            stream_id,
        };
        let event = self
            .enqueue(queue, Phase::DataTransfer, command, wait, None)
            .inspect_err(|_| conn.endpoint.discard_bulk(stream_id, true))?;
        Ok(PendingRead {
            client: self.self_weak.clone(),
            server,
            stream_id,
            offset,
            len,
            buffer: buffer.clone(),
            event,
            collected: false,
        })
    }

    pub(super) fn enqueue_launch(
        &self,
        queue: &CommandQueue,
        kernel: &Kernel,
        range: NdRange,
        wait: &[Event],
        access: &[(ObjectId, AccessHint)],
    ) -> Result<Event> {
        let server = queue.server;
        let explicit = |id: ObjectId| access.iter().rev().find(|(b, _)| *b == id).map(|(_, h)| *h);
        // Derived hints: where the caller gave no explicit hint, fall back
        // to the parse-time access analysis of the kernel source.  A
        // provably read-only argument skips dirtying; an argument whose
        // every access is indexed by the linear global id touches exactly
        // the byte slice a 1-D launch implies.
        let (work_dim, offset0, global0) = (range.work_dim, range.offset[0], range.global[0]);
        let derived = move |index: u32, buffer: &Buffer| -> Option<AccessHint> {
            match kernel.derived_access.get(index as usize)? {
                oclc::access::ArgAccess::ReadOnly => Some(AccessHint::ReadsOnly),
                oclc::access::ArgAccess::WrittenLinear { elem_bytes } if work_dim == 1 => {
                    let start = offset0.saturating_mul(*elem_bytes);
                    let end = offset0.saturating_add(global0).saturating_mul(*elem_bytes);
                    Some(AccessHint::Touches(ByteRange::new(start, end).clamp_to(buffer.size)))
                }
                _ => None,
            }
        };
        // Memory consistency: the target server needs a valid copy of every
        // memory object the kernel may read — only the declared slice for
        // launches carrying an access hint — and afterwards the kernel may
        // have written that range of it, unless the argument is read-only.
        let buffer_args: Vec<(Buffer, ByteRange, bool)> = kernel
            .buffer_args
            .lock()
            .iter()
            .map(|(&index, buffer)| {
                let hint = explicit(buffer.id).or_else(|| derived(index, buffer));
                let range = match hint {
                    Some(AccessHint::Touches(slice)) => slice,
                    _ => ByteRange::new(0, buffer.size),
                };
                (buffer.clone(), range, hint != Some(AccessHint::ReadsOnly))
            })
            .collect();
        for (buffer, range, _) in &buffer_args {
            self.ensure_valid_range_on(server, buffer, *range)?;
        }
        let command = BatchCommand::NdRange { kernel_id: kernel.id, range: WireNdRange(range) };
        let event = self.enqueue(queue, Phase::Execution, command, wait, None)?;
        for (buffer, range, _) in buffer_args.iter().filter(|(_, _, writes)| *writes) {
            buffer.directory.lock().record_device_write(server, *range);
        }
        Ok(event)
    }

    // ----- internals --------------------------------------------------------

    /// Track a new event for `command` and append the command, waiting on
    /// `wait`, to the pending batch of `queue`'s server; if it cannot be queued, the event
    /// fails with the wait-list error.  No server hears of the event until
    /// the command ships; replacements elsewhere are created only when a
    /// command bound for another server waits on it (see
    /// `push_batch_entry`, which also ships a `following` stream).
    pub(super) fn enqueue(
        &self,
        queue: &CommandQueue,
        phase: Phase,
        command: BatchCommand,
        wait: &[Event],
        following: Option<(u64, &[u8])>,
    ) -> Result<Event> {
        let event = self.track_event(queue.server, phase);
        let event_id = event.id();
        let command_id = self.allocate_id();
        let wait_events = wait.iter().map(Event::id).collect();
        let entry = BatchEntry { command_id, queue_id: queue.id, event_id, wait_events, command };
        if let Err(e) = self.push_batch_entry(queue.server, entry, wait, following) {
            self.fail_events(&[event_id], -14);
            return Err(e);
        }
        Ok(event)
    }
}
