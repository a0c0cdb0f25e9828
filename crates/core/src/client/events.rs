//! The event table: the client-side record of every event, settled when
//! the owning server reports its status, forwarded to every server holding
//! a replacement, and released once the application has dropped it
//! (`ARCHITECTURE.md`, "Event lifecycle").  Only this module touches the
//! table and the records.

use super::{ClientInner, ServerId};
use crate::error::{DclError, Result};
use crate::protocol::{EventCompletion, ObjectId};
use gcf::simtime::Phase;
use parking_lot::{Condvar, Mutex};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Client-side state of one event, shared by its [`Event`] handles and —
/// until the event is terminal — the client's event table.
pub(super) struct EventRecord {
    // Back-reference so that waiting on an event can flush the pending
    // batches the event's command may still be sitting in.
    client: Weak<ClientInner>,
    id: ObjectId,
    owner: usize,
    phase: Phase,
    state: Mutex<EventState>,
    cond: Condvar,
}

#[derive(Default)]
struct EventState {
    /// Terminal status, once the owning server reported it (or the client
    /// failed the command locally).
    status: Option<i32>,
    modeled: Duration,
    /// Servers holding a replacement for this event: a command bound there
    /// waits on it.  Those added while `status` is `None` get the status
    /// forwarded; all of them get the release.
    replicas: Vec<usize>,
    /// The status is known and forwarded; waiters see the event terminal
    /// from here on.
    settled: bool,
    /// The last [`Event`] handle is gone.
    unreferenced: bool,
}

impl EventRecord {
    fn new(client: Weak<ClientInner>, id: ObjectId, owner: usize, phase: Phase) -> Arc<Self> {
        Arc::new(EventRecord {
            client,
            id,
            owner,
            phase,
            state: Mutex::new(EventState::default()),
            cond: Condvar::new(),
        })
    }

    /// The last handle dropped: release the event once it is settled (now,
    /// if it already is).
    fn unreference(&self) {
        let settled = {
            let mut state = self.state.lock();
            state.unreferenced = true;
            state.settled
        };
        if settled {
            if let Some(inner) = self.client.upgrade() {
                inner.release_event(self);
            }
        }
    }
}

/// The application's share of an [`EventRecord`]: dropping the last one
/// releases the event.  Pending batches hold one for every event their
/// commands wait on, so a dependency outlives the commands waiting on it.
struct EventHandle(Arc<EventRecord>);

impl Drop for EventHandle {
    fn drop(&mut self) {
        self.0.unreference();
    }
}

/// An event stub (compound stub).  The original event lives on the owning
/// server.  A server whose command waits on it holds a replacement user
/// event, created by that command's batch and completed by the client's
/// status forward.  Dropping the last clone releases the event on every
/// server that knows it (see the [module docs](crate::client#consistency-protocols)).
#[derive(Clone)]
pub struct Event {
    handle: Arc<EventHandle>,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id())
            .field("status", &self.record().state.lock().status)
            .finish()
    }
}

impl Event {
    fn record(&self) -> &Arc<EventRecord> {
        &self.handle.0
    }

    /// Record that `server` gets a replacement for this event and return the
    /// status to create it with: the terminal status if it is known, else
    /// `None`, and the completion will be forwarded to `server`.  One lock
    /// covers the check and the insert, so no completion slips in between.
    pub(super) fn replicate_on(&self, server: usize) -> Option<i32> {
        let mut state = self.record().state.lock();
        if !state.replicas.contains(&server) {
            state.replicas.push(server);
        }
        state.status
    }

    /// Stub object id.
    pub fn id(&self) -> ObjectId {
        self.record().id
    }

    /// The server owning the original event.
    pub fn owner(&self) -> ServerId {
        ServerId(self.record().owner)
    }

    /// Whether the event reached a terminal state: its status is known.
    /// [`Event::wait`] returns only once the status has also been forwarded
    /// to the servers holding a replacement, but a dependant there can
    /// finish in between, and its own wait must not find this event
    /// pending.
    pub fn is_terminal(&self) -> bool {
        self.record().state.lock().status.is_some()
    }

    /// Block until the command completes; errors if the command failed.
    ///
    /// Flushes every pending command batch of the client first: the command
    /// this event belongs to (or one it transitively waits on) may not have
    /// been shipped yet.
    pub fn wait(&self) -> Result<()> {
        self.flush_if_pending();
        let record = self.record();
        let mut state = record.state.lock();
        while !state.settled {
            record.cond.wait(&mut state);
        }
        outcome(state.status)
    }

    /// Wait with a timeout; `Ok(false)` means it expired.  Flushes pending
    /// batches like [`Event::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<bool> {
        self.flush_if_pending();
        let record = self.record();
        let mut state = record.state.lock();
        let deadline = std::time::Instant::now() + timeout;
        while !state.settled {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            record.cond.wait_for(&mut state, deadline - now);
        }
        outcome(state.status).map(|()| true)
    }

    /// `clWaitForEvents`: wait for every event in `events`.
    pub fn wait_all(events: &[Event]) -> Result<()> {
        for e in events {
            e.wait()?;
        }
        Ok(())
    }

    /// Modelled duration reported by the owning server (kernel execution or
    /// PCIe transfer time).
    pub fn modeled_duration(&self) -> Duration {
        self.record().state.lock().modeled
    }

    /// Ship every pending batch if this event is not terminal yet (its
    /// command, or a dependency, may still be accumulating client-side).
    /// Transport failures surface through the event status, not here.
    fn flush_if_pending(&self) {
        if !self.is_terminal() {
            if let Some(inner) = self.record().client.upgrade() {
                inner.flush_all();
            }
        }
    }
}

/// The result of a settled event's status.
fn outcome(status: Option<i32>) -> Result<()> {
    match status {
        Some(0) => Ok(()),
        code => Err(DclError::Cl(vocl::ClError::ExecutionFailure(format!(
            "remote command failed with status {}",
            code.unwrap_or(-14)
        )))),
    }
}

/// The client's own verdict on a command that never ran: status `code`, no
/// modelled time.
pub(super) fn failed_completion(event_id: ObjectId, code: i32) -> EventCompletion {
    EventCompletion { event_id, status: code, modeled_nanos: 0, work_items: 0 }
}

impl ClientInner {
    /// Track a new event of a command bound for `owner`, until its status
    /// is known.
    pub(super) fn track_event(&self, owner: usize, phase: Phase) -> Event {
        let id = self.allocate_id();
        let record = EventRecord::new(self.self_weak.clone(), id, owner, phase);
        self.events.lock().insert(id, Arc::clone(&record));
        Event { handle: Arc::new(EventHandle(record)) }
    }

    /// Number of events not terminal yet.
    pub(super) fn tracked_events(&self) -> usize {
        self.events.lock().len()
    }

    /// Apply the completions of one frame or response, in order: take their
    /// records out of the event table under one lock, then store, forward
    /// and settle each.  Ids the table no longer holds (already settled, or
    /// reported twice across a reconnect) are skipped.
    pub(super) fn complete_events(&self, completions: &[EventCompletion]) {
        let records: Vec<(Arc<EventRecord>, &EventCompletion)> = {
            let mut events = self.events.lock();
            completions.iter().filter_map(|c| Some((events.remove(&c.event_id)?, c))).collect()
        };
        for (record, completion) in records {
            self.settle(&record, completion.status, completion.modeled_nanos);
        }
    }

    /// Store `status` on an event taken out of the event table, forward it,
    /// then wake the event's waiters.
    fn settle(&self, record: &Arc<EventRecord>, status: i32, modeled_nanos: u64) {
        let event_id = record.id;
        let modeled = Duration::from_nanos(modeled_nanos);
        self.clock.charge(record.phase, modeled);
        // Event consistency: forward the status to every server holding a
        // replacement.  From here on `replicate_on` sees the status, so a
        // replacement requested later is created terminal instead.
        let replicas = {
            let mut state = record.state.lock();
            state.status = Some(status);
            state.modeled = modeled;
            state.replicas.clone()
        };
        for server in replicas {
            self.forward_status(server, event_id, status);
        }
        // Waiters wake only now: once `wait` returns, the forwards are out.
        let unreferenced = {
            let mut state = record.state.lock();
            state.settled = true;
            record.cond.notify_all();
            state.unreferenced
        };
        if unreferenced {
            self.release_event(record);
        }
    }

    /// Queue `record`'s id for release on its owner and on every server
    /// holding a replacement for it.  Called once the event is settled and
    /// its last handle is gone, so no command waits on it any more.
    fn release_event(&self, record: &EventRecord) {
        let replicas = std::mem::take(&mut record.state.lock().replicas);
        for server in std::iter::once(record.owner).chain(replicas) {
            self.queue_release(server, record.id);
        }
    }

    pub(super) fn fail_events(&self, event_ids: &[ObjectId], code: i32) {
        let failed: Vec<EventCompletion> =
            event_ids.iter().map(|&event_id| failed_completion(event_id, code)).collect();
        self.complete_events(&failed);
    }

    /// Fail every event `server` owns that is not terminal yet with the
    /// wait-list error.
    pub(super) fn fail_events_owned_by(&self, server: usize) {
        let orphaned: Vec<ObjectId> =
            self.events.lock().values().filter(|r| r.owner == server).map(|r| r.id).collect();
        self.fail_events(&orphaned, -14);
    }
}
