//! Events: command completion, wait lists, callbacks, user events.
//!
//! Events are central to the dOpenCL consistency protocol (Section III-D of
//! the paper): the daemon registers a completion callback on the *original*
//! event (`clSetEventCallback`) and the client completes *user events* on the
//! other servers when the notification arrives.

use crate::error::{ClError, Result};
use oclc::WorkItemCounters;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static NEXT_EVENT_ID: AtomicU64 = AtomicU64::new(1);

/// The command a event belongs to (`CL_EVENT_COMMAND_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandType {
    /// `CL_COMMAND_NDRANGE_KERNEL`
    NdRangeKernel,
    /// `CL_COMMAND_READ_BUFFER`
    ReadBuffer,
    /// `CL_COMMAND_WRITE_BUFFER`
    WriteBuffer,
    /// `CL_COMMAND_COPY_BUFFER`
    CopyBuffer,
    /// `CL_COMMAND_MARKER`
    Marker,
    /// `CL_COMMAND_USER`
    User,
}

/// Execution status of the command associated with an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// `CL_QUEUED`
    Queued,
    /// `CL_SUBMITTED`
    Submitted,
    /// `CL_RUNNING`
    Running,
    /// `CL_COMPLETE`
    Complete,
    /// A negative error code.
    Error(i32),
}

impl EventStatus {
    /// True for `Complete` or `Error` — the terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(self, EventStatus::Complete | EventStatus::Error(_))
    }

    /// True only for `Error`: the command reached a terminal state by
    /// failing.
    pub fn is_error(self) -> bool {
        matches!(self, EventStatus::Error(_))
    }

    /// The numeric value used by the OpenCL API.
    pub fn code(self) -> i32 {
        match self {
            EventStatus::Queued => 3,
            EventStatus::Submitted => 2,
            EventStatus::Running => 1,
            EventStatus::Complete => 0,
            EventStatus::Error(code) => code,
        }
    }
}

/// Completion callback type (`clSetEventCallback` with `CL_COMPLETE`).
pub type EventCallback = Box<dyn Fn(EventStatus) + Send + Sync>;

struct EventState {
    status: EventStatus,
    modeled: Duration,
    counters: Option<WorkItemCounters>,
    result: Option<Vec<u8>>,
    callbacks: Vec<EventCallback>,
}

/// An OpenCL event (`cl_event`).
pub struct Event {
    id: u64,
    command_type: CommandType,
    state: Mutex<EventState>,
    cond: Condvar,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.id)
            .field("command_type", &self.command_type)
            .field("status", &self.status())
            .finish()
    }
}

impl Event {
    /// Create an event in the `Queued` state for a command of `command_type`.
    pub fn new(command_type: CommandType) -> Arc<Event> {
        Arc::new(Event {
            id: NEXT_EVENT_ID.fetch_add(1, Ordering::Relaxed),
            command_type,
            state: Mutex::new(EventState {
                status: EventStatus::Queued,
                modeled: Duration::ZERO,
                counters: None,
                result: None,
                callbacks: Vec::new(),
            }),
            cond: Condvar::new(),
        })
    }

    /// An OpenCL user event (command type `CL_COMMAND_USER`): it starts in
    /// the `Submitted` state and is completed explicitly via
    /// [`Event::set_complete`] / [`Event::set_error`].
    pub fn user() -> Arc<Event> {
        let e = Event::new(CommandType::User);
        e.set_status(EventStatus::Submitted);
        e
    }

    /// Unique event id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `CL_EVENT_COMMAND_TYPE`.
    pub fn command_type(&self) -> CommandType {
        self.command_type
    }

    /// Current execution status.
    pub fn status(&self) -> EventStatus {
        self.state.lock().status
    }

    /// Modelled duration of the command (available after completion).
    pub fn modeled_duration(&self) -> Duration {
        self.state.lock().modeled
    }

    /// Work-item counters of a kernel command (available after completion).
    pub fn counters(&self) -> Option<WorkItemCounters> {
        self.state.lock().counters
    }

    /// Attach the modelled duration (set by the executing queue).
    pub fn set_modeled(&self, d: Duration) {
        self.state.lock().modeled = d;
    }

    /// Attach kernel counters (set by the executing queue).
    pub fn set_counters(&self, counters: WorkItemCounters) {
        self.state.lock().counters = Some(counters);
    }

    /// Attach a result payload (e.g. the data produced by a buffer read).
    pub fn set_result(&self, data: Vec<u8>) {
        self.state.lock().result = Some(data);
    }

    /// Take the result payload, if any.
    pub fn take_result(&self) -> Option<Vec<u8>> {
        self.state.lock().result.take()
    }

    /// Update the execution status; terminal states wake waiters and fire
    /// callbacks.
    pub fn set_status(&self, status: EventStatus) {
        let callbacks = {
            let mut state = self.state.lock();
            if state.status.is_terminal() {
                // Terminal states are sticky (matches user-event semantics).
                return;
            }
            state.status = status;
            if status.is_terminal() {
                self.cond.notify_all();
                std::mem::take(&mut state.callbacks)
            } else {
                Vec::new()
            }
        };
        for cb in callbacks {
            cb(status);
        }
    }

    /// Mark the command complete (`clSetUserEventStatus(CL_COMPLETE)` for
    /// user events).
    pub fn set_complete(&self) {
        self.set_status(EventStatus::Complete);
    }

    /// Mark the command failed with an error code.
    pub fn set_error(&self, code: i32) {
        self.set_status(EventStatus::Error(code));
    }

    /// `clSetEventCallback(CL_COMPLETE)`: run `callback` once the event
    /// reaches a terminal state.  If it already has, the callback runs
    /// immediately on the calling thread.
    pub fn on_complete(&self, callback: EventCallback) {
        let fire_now = {
            let mut state = self.state.lock();
            if state.status.is_terminal() {
                Some(state.status)
            } else {
                state.callbacks.push(callback);
                return;
            }
        };
        if let Some(status) = fire_now {
            callback(status);
        }
    }

    /// `clWaitForEvents` for a single event: block until terminal, returning
    /// an error if the command failed.
    pub fn wait(&self) -> Result<()> {
        let mut state = self.state.lock();
        while !state.status.is_terminal() {
            self.cond.wait(&mut state);
        }
        match state.status {
            EventStatus::Complete => Ok(()),
            EventStatus::Error(code) => {
                Err(ClError::ExecutionFailure(format!("command failed with status {code}")))
            }
            _ => unreachable!("terminal check above"),
        }
    }

    /// Wait with a timeout; `Ok(false)` means the timeout expired.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<bool> {
        let mut state = self.state.lock();
        let deadline = std::time::Instant::now() + timeout;
        while !state.status.is_terminal() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            self.cond.wait_for(&mut state, deadline - now);
        }
        match state.status {
            EventStatus::Complete => Ok(true),
            EventStatus::Error(code) => {
                Err(ClError::ExecutionFailure(format!("command failed with status {code}")))
            }
            _ => unreachable!(),
        }
    }
}

/// `clWaitForEvents`: wait for every event in `events`.
pub fn wait_for_events(events: &[Arc<Event>]) -> Result<()> {
    for e in events {
        e.wait()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lifecycle_and_wait() {
        let e = Event::new(CommandType::WriteBuffer);
        assert_eq!(e.status(), EventStatus::Queued);
        let e2 = Arc::clone(&e);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            e2.set_status(EventStatus::Running);
            e2.set_modeled(Duration::from_millis(5));
            e2.set_complete();
        });
        e.wait().unwrap();
        assert_eq!(e.status(), EventStatus::Complete);
        assert_eq!(e.modeled_duration(), Duration::from_millis(5));
        handle.join().unwrap();
    }

    #[test]
    fn error_status_propagates_through_wait() {
        let e = Event::new(CommandType::NdRangeKernel);
        e.set_error(-14);
        assert!(e.wait().is_err());
        assert_eq!(e.status(), EventStatus::Error(-14));
    }

    #[test]
    fn error_is_the_only_failing_terminal_state() {
        assert!(EventStatus::Error(-14).is_error());
        assert!(EventStatus::Error(-14).is_terminal());
        assert!(!EventStatus::Complete.is_error());
        assert!(!EventStatus::Running.is_error());
    }

    #[test]
    fn terminal_status_is_sticky() {
        let e = Event::user();
        e.set_complete();
        e.set_error(-5);
        assert_eq!(e.status(), EventStatus::Complete);
    }

    #[test]
    fn callbacks_fire_on_completion_and_immediately_if_late() {
        let counter = Arc::new(AtomicUsize::new(0));
        let e = Event::user();
        let c1 = Arc::clone(&counter);
        e.on_complete(Box::new(move |_| {
            c1.fetch_add(1, Ordering::SeqCst);
        }));
        e.set_complete();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        // Registering after completion fires immediately.
        let c2 = Arc::clone(&counter);
        e.on_complete(Box::new(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wait_timeout_expires_without_completion() {
        let e = Event::user();
        assert!(!e.wait_timeout(Duration::from_millis(20)).unwrap());
        e.set_complete();
        assert!(e.wait_timeout(Duration::from_millis(20)).unwrap());
    }

    #[test]
    fn result_payload_roundtrip() {
        let e = Event::new(CommandType::ReadBuffer);
        e.set_result(vec![1, 2, 3]);
        assert_eq!(e.take_result(), Some(vec![1, 2, 3]));
        assert_eq!(e.take_result(), None);
    }

    #[test]
    fn wait_for_events_waits_for_all() {
        let a = Event::user();
        let b = Event::user();
        a.set_complete();
        b.set_complete();
        wait_for_events(&[a, b]).unwrap();
    }

    #[test]
    fn user_event_starts_submitted() {
        assert_eq!(Event::user().status(), EventStatus::Submitted);
        assert_eq!(Event::user().command_type(), CommandType::User);
    }
}
