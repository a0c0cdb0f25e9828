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
    /// Epoch of the connection on which the owner's daemon accepted the
    /// command; `None` until a batch response says it did.
    accepted_on: Option<u64>,
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

    /// Block until the event is settled (`true`), or until `waiting`,
    /// asked under the record's lock first and whenever the record is
    /// woken, turns false (`false`).
    fn wait_settled_while(&self, waiting: impl Fn() -> bool) -> bool {
        let mut state = self.state.lock();
        while !state.settled {
            if !waiting() {
                return false;
            }
            self.cond.wait(&mut state);
        }
        true
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
        record.wait_settled_while(|| true);
        outcome(record.state.lock().status)
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

    /// The events owned by any of `servers` that are not terminal yet.
    pub(super) fn outstanding_events(&self, servers: &[usize]) -> Vec<Arc<EventRecord>> {
        let events = self.events.lock();
        events.values().filter(|r| servers.contains(&r.owner)).cloned().collect()
    }

    /// Block until each of `records` is settled.  A wait whose owner's
    /// connection has died runs the owner's recovery: it goes on once the
    /// server is back, and returns the recovery's error if it is not, so
    /// a lost server does not hold the caller forever.
    pub(super) fn wait_settled(&self, records: &[Arc<EventRecord>]) -> Result<()> {
        for record in records {
            loop {
                let conn = self.server(record.owner)?;
                if record.wait_settled_while(|| conn.endpoint.is_open()) {
                    break;
                }
                self.recover_server(record.owner).map_err(|e| {
                    DclError::ServerUnavailable(format!("server #{}: {e}", record.owner))
                })?;
            }
        }
        Ok(())
    }

    /// Record that `server`'s daemon accepted the commands of `event_ids`
    /// on its connection of `epoch`; fail them if a later connection has
    /// already replaced that session.  A reconnect fails the lost session's
    /// events after replacing it, so one of the two sees each.
    pub(super) fn accept_events(&self, server: usize, event_ids: &[ObjectId], epoch: u64) {
        let events = self.events.lock();
        for record in event_ids.iter().filter_map(|id| events.get(id)) {
            record.state.lock().accepted_on = Some(epoch);
        }
        drop(events);
        if epoch < self.session_start(server) {
            self.fail_events(event_ids, -14);
        }
    }

    /// Wake the waiters of every event `server` owns that is not terminal
    /// yet, so that [`ClientInner::wait_settled`] sees its connection die.
    pub(super) fn wake_waiters_on(&self, server: usize) {
        for record in self.outstanding_events(&[server]) {
            let _state = record.state.lock();
            record.cond.notify_all();
        }
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

    /// Fail with the wait-list error every event `server` owns that is not
    /// terminal yet or, given `before`, only those whose command the daemon
    /// accepted on a connection before that epoch: their session is gone.
    pub(super) fn fail_events_owned_by(&self, server: usize, before: Option<u64>) {
        let accepted_before =
            |r: &EventRecord, b| r.state.lock().accepted_on.is_some_and(|e| e < b);
        let lost = |r: &&Arc<EventRecord>| before.is_none_or(|b| accepted_before(r, b));
        let orphaned: Vec<ObjectId> =
            self.outstanding_events(&[server]).iter().filter(lost).map(|r| r.id).collect();
        self.fail_events(&orphaned, -14);
    }
}
