//! Fault-injection wrapper around any [`Connection`].
//!
//! Used by failure-injection tests to verify that the dOpenCL client driver,
//! daemon and device manager behave correctly when a peer disappears
//! mid-conversation (Section IV-C of the paper: devices must be released
//! when an application terminates abnormally or the client is disconnected).
//!
//! Faults are scripted through a [`ChaosPolicy`]: fail after a send budget,
//! silently drop or duplicate every Nth frame, delay frames, or kill the
//! connection in the middle of a bulk stream.  [`ChaosTransport`] applies a
//! per-address policy to every connection made through an inner transport,
//! which is how the cluster harness simulates a daemon crash.

use super::{Connection, Listener, Received, StreamLanding, Transport};
use crate::error::{GcfError, Result};
use crate::message::{Envelope, MessageKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Scripted fault behaviour for a [`FaultyConnection`].
///
/// The default policy injects no faults at all; each field enables one kind
/// of misbehaviour.  Counters for the "every Nth" fields share a single
/// attempt counter, so `drop_every: 3` drops the 3rd, 6th, 9th... frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPolicy {
    /// Switch to the failing state after this many frames have reached the
    /// wrapped connection (0 = unlimited).
    pub fail_after_sends: u64,
    /// Silently swallow every Nth frame (0 = never drop).
    pub drop_every: u64,
    /// Send every Nth frame twice (0 = never duplicate).
    pub duplicate_every: u64,
    /// Artificial delay applied to every send.
    pub delay: Duration,
    /// Kill the connection (and close the wrapped connection, so the peer
    /// notices) after this many bulk stream chunks (0 = unlimited).
    pub fail_after_stream_chunks: u64,
}

impl ChaosPolicy {
    /// A policy that injects no faults.
    pub fn none() -> Self {
        ChaosPolicy::default()
    }

    /// A policy that fails after `n` successful sends.
    pub fn fail_after(n: u64) -> Self {
        ChaosPolicy { fail_after_sends: n, ..ChaosPolicy::default() }
    }
}

/// Wraps a connection and misbehaves according to a [`ChaosPolicy`].
pub struct FaultyConnection {
    inner: Arc<dyn Connection>,
    failing: AtomicBool,
    policy: Mutex<ChaosPolicy>,
    /// Frames that actually reached the wrapped connection's `send`.
    sends: AtomicU64,
    /// Send attempts that passed the failing/budget gates (drives the
    /// every-Nth drop/duplicate selection).
    attempts: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    stream_chunks: AtomicU64,
}

impl FaultyConnection {
    /// Wrap `inner`; the connection behaves normally until
    /// [`FaultyConnection::set_failing`] is called or the installed
    /// [`ChaosPolicy`] triggers.
    pub fn new(inner: Arc<dyn Connection>) -> Arc<Self> {
        FaultyConnection::with_policy(inner, ChaosPolicy::none())
    }

    /// Wrap `inner` with `policy` installed from the start.
    pub fn with_policy(inner: Arc<dyn Connection>, policy: ChaosPolicy) -> Arc<Self> {
        Arc::new(FaultyConnection {
            inner,
            failing: AtomicBool::new(false),
            policy: Mutex::new(policy),
            sends: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            stream_chunks: AtomicU64::new(0),
        })
    }

    /// Install a new policy (replaces the previous one; counters keep
    /// running).
    pub fn set_policy(&self, policy: ChaosPolicy) {
        *self.policy.lock() = policy;
    }

    /// The currently installed policy.
    pub fn policy(&self) -> ChaosPolicy {
        *self.policy.lock()
    }

    /// Start (or stop) failing every operation.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::Release);
    }

    /// Automatically switch to the failing state after `n` successful sends.
    pub fn fail_after_sends(&self, n: u64) {
        self.policy.lock().fail_after_sends = n;
    }

    /// Kill the connection immediately: every further operation fails and
    /// the wrapped connection is closed so the peer notices promptly.
    pub fn kill(&self) {
        self.failing.store(true, Ordering::Release);
        self.inner.close();
    }

    /// Number of frames that reached the wrapped connection's `send` (frames
    /// rejected by the budget or swallowed by `drop_every` are not counted;
    /// duplicated frames count twice).
    pub fn sent_count(&self) -> u64 {
        self.sends.load(Ordering::Acquire)
    }

    /// Number of frames silently dropped by the policy.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Number of frames sent twice by the policy.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated.load(Ordering::Acquire)
    }

    /// Number of bulk stream chunks seen so far.
    pub fn stream_chunk_count(&self) -> u64 {
        self.stream_chunks.load(Ordering::Acquire)
    }

    fn check(&self) -> Result<()> {
        if self.failing.load(Ordering::Acquire) {
            return Err(GcfError::Disconnected("injected fault".to_string()));
        }
        Ok(())
    }
}

impl Connection for FaultyConnection {
    fn send(&self, env: Envelope) -> Result<()> {
        self.check()?;
        let policy = *self.policy.lock();
        if policy.fail_after_sends != 0
            && self.sends.load(Ordering::Acquire) >= policy.fail_after_sends
        {
            self.failing.store(true, Ordering::Release);
            return Err(GcfError::Disconnected("injected fault (send budget)".to_string()));
        }
        if env.kind == MessageKind::StreamData {
            let chunk = self.stream_chunks.fetch_add(1, Ordering::AcqRel) + 1;
            if policy.fail_after_stream_chunks != 0 && chunk > policy.fail_after_stream_chunks {
                // Killed mid-stream: close the wrapped connection too, so the
                // peer's receiver fails instead of waiting out its timeout.
                self.kill();
                return Err(GcfError::Disconnected(
                    "injected fault (killed mid-stream)".to_string(),
                ));
            }
        }
        if !policy.delay.is_zero() {
            std::thread::sleep(policy.delay);
        }
        let attempt = self.attempts.fetch_add(1, Ordering::AcqRel) + 1;
        if policy.drop_every != 0 && attempt.is_multiple_of(policy.drop_every) {
            self.dropped.fetch_add(1, Ordering::AcqRel);
            return Ok(());
        }
        if policy.duplicate_every != 0 && attempt.is_multiple_of(policy.duplicate_every) {
            self.duplicated.fetch_add(1, Ordering::AcqRel);
            self.sends.fetch_add(1, Ordering::AcqRel);
            self.inner.send(env.clone())?;
        }
        self.sends.fetch_add(1, Ordering::AcqRel);
        self.inner.send(env)
    }

    fn recv(&self) -> Result<Envelope> {
        self.check()?;
        self.inner.recv()
    }

    fn recv_landing(
        &self,
        landing: &dyn StreamLanding,
        timeout: Option<Duration>,
    ) -> Result<Received> {
        self.check()?;
        self.inner.recv_landing(landing, timeout)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope> {
        self.check()?;
        self.inner.recv_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_open(&self) -> bool {
        !self.failing.load(Ordering::Acquire) && self.inner.is_open()
    }
}

/// A transport that wraps every outgoing connection in a
/// [`FaultyConnection`], keyed by target address.
///
/// The cluster chaos harness connects its clients through a
/// `ChaosTransport`; killing a node is then
/// [`ChaosTransport::kill`] (sever all client connections to the address)
/// plus shutting the daemon itself down.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    state: Arc<Mutex<ChaosState>>,
}

#[derive(Default)]
struct ChaosState {
    /// Policy applied to new (and retroactively to live) connections per
    /// target address.
    policies: HashMap<String, ChaosPolicy>,
    /// Live wrapped connections per target address.
    live: HashMap<String, Vec<Weak<FaultyConnection>>>,
}

impl ChaosTransport {
    /// Wrap `inner`; connections behave normally until a policy is set or a
    /// node is killed.
    pub fn new(inner: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(ChaosTransport { inner, state: Arc::new(Mutex::new(ChaosState::default())) })
    }

    /// Apply `policy` to all current and future connections to `address`.
    pub fn set_policy(&self, address: &str, policy: ChaosPolicy) {
        let mut state = self.state.lock();
        state.policies.insert(address.to_string(), policy);
        if let Some(conns) = state.live.get_mut(address) {
            conns.retain(|w| {
                if let Some(conn) = w.upgrade() {
                    conn.set_policy(policy);
                    true
                } else {
                    false
                }
            });
        }
    }

    /// Kill every live connection to `address` (and make future connection
    /// attempts fail until [`ChaosTransport::revive`] is called).
    pub fn kill(&self, address: &str) {
        let mut state = self.state.lock();
        state.policies.insert(address.to_string(), ChaosPolicy::fail_after(u64::MAX));
        if let Some(conns) = state.live.remove(address) {
            for conn in conns.iter().filter_map(Weak::upgrade) {
                conn.kill();
            }
        }
        state.live.insert(address.to_string(), Vec::new());
    }

    /// Clear the policy for `address`: future connections behave normally.
    pub fn revive(&self, address: &str) {
        self.state.lock().policies.remove(address);
    }

    /// The live wrapped connections to `address` (for scripting individual
    /// faults in tests).
    pub fn connections(&self, address: &str) -> Vec<Arc<FaultyConnection>> {
        let mut state = self.state.lock();
        match state.live.get_mut(address) {
            Some(conns) => {
                conns.retain(|w| w.strong_count() > 0);
                conns.iter().filter_map(Weak::upgrade).collect()
            }
            None => Vec::new(),
        }
    }
}

impl Transport for ChaosTransport {
    fn listen(&self, address: &str) -> Result<Box<dyn Listener>> {
        self.inner.listen(address)
    }

    fn connect(&self, address: &str) -> Result<Arc<dyn Connection>> {
        let policy = self.state.lock().policies.get(address).copied().unwrap_or_default();
        if policy.fail_after_sends == u64::MAX {
            // Killed node: refuse the connection outright, like a dead host.
            return Err(GcfError::Disconnected(format!("injected fault (node {address} is down)")));
        }
        let conn = self.inner.connect(address)?;
        let faulty = FaultyConnection::with_policy(conn, policy);
        self.state
            .lock()
            .live
            .entry(address.to_string())
            .or_default()
            .push(Arc::downgrade(&faulty));
        Ok(faulty)
    }

    fn name(&self) -> &'static str {
        "chaos"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{Endpoint, NullHandler, STREAM_CHUNK};
    use crate::transport::inproc::InprocTransport;
    use crate::transport::Transport;

    fn connected_pair() -> (Arc<dyn Connection>, Arc<dyn Connection>) {
        let t = InprocTransport::new();
        let l = t.listen("srv").unwrap();
        let h = std::thread::spawn(move || l.accept().unwrap());
        let client = t.connect("srv").unwrap();
        let server = h.join().unwrap();
        (client, server)
    }

    #[test]
    fn passes_through_until_failing() {
        let (client, server) = connected_pair();
        let faulty = FaultyConnection::new(client);
        faulty.send(Envelope::request(1, vec![])).unwrap();
        assert_eq!(server.recv().unwrap().id, 1);
        faulty.set_failing(true);
        assert!(faulty.send(Envelope::request(2, vec![])).is_err());
        assert!(!faulty.is_open());
    }

    #[test]
    fn send_budget_triggers_failure() {
        let (client, _server) = connected_pair();
        let faulty = FaultyConnection::new(client);
        faulty.fail_after_sends(2);
        assert!(faulty.send(Envelope::request(1, vec![])).is_ok());
        assert!(faulty.send(Envelope::request(2, vec![])).is_ok());
        assert!(faulty.send(Envelope::request(3, vec![])).is_err());
        // Only the two frames that reached the wrapped connection count.
        assert_eq!(faulty.sent_count(), 2);
    }

    #[test]
    fn drop_every_swallows_frames_silently() {
        let (client, server) = connected_pair();
        let faulty = FaultyConnection::with_policy(
            client,
            ChaosPolicy { drop_every: 2, ..ChaosPolicy::default() },
        );
        for i in 0..4 {
            faulty.send(Envelope::request(i, vec![])).unwrap();
        }
        assert_eq!(faulty.dropped_count(), 2);
        assert_eq!(faulty.sent_count(), 2);
        // Only the odd-numbered (1st and 3rd) frames arrived.
        assert_eq!(server.recv().unwrap().id, 0);
        assert_eq!(server.recv().unwrap().id, 2);
    }

    #[test]
    fn duplicate_every_sends_frames_twice() {
        let (client, server) = connected_pair();
        let faulty = FaultyConnection::with_policy(
            client,
            ChaosPolicy { duplicate_every: 3, ..ChaosPolicy::default() },
        );
        for i in 0..3 {
            faulty.send(Envelope::request(i, vec![])).unwrap();
        }
        assert_eq!(faulty.duplicated_count(), 1);
        assert_eq!(faulty.sent_count(), 4);
        let ids: Vec<u64> = (0..4).map(|_| server.recv().unwrap().id).collect();
        assert_eq!(ids, vec![0, 1, 2, 2]);
    }

    #[test]
    fn stream_chunk_budget_kills_the_connection() {
        let (client, server) = connected_pair();
        let faulty = FaultyConnection::with_policy(
            client,
            ChaosPolicy { fail_after_stream_chunks: 1, ..ChaosPolicy::default() },
        );
        faulty.send(Envelope::stream(7, vec![0, 1, 2])).unwrap();
        assert_eq!(server.recv().unwrap().id, 7);
        let err = faulty.send(Envelope::stream(7, vec![1, 3, 4])).unwrap_err();
        assert!(matches!(err, GcfError::Disconnected(_)));
        assert!(!faulty.is_open());
        // The peer sees the close, not a hang.
        assert!(server.recv().is_err());
    }

    /// Bulk chunks reach the connection through the provided
    /// `send_stream`, which still passes each one through the chunk budget.
    #[test]
    fn stream_chunk_budget_kills_a_bulk_send() {
        let (client, _server) = connected_pair();
        let faulty = FaultyConnection::with_policy(
            client,
            ChaosPolicy { fail_after_stream_chunks: 2, ..ChaosPolicy::default() },
        );
        let endpoint = Endpoint::new(Arc::clone(&faulty) as _, Arc::new(NullHandler), "client");
        let err = endpoint.send_bulk(1, &vec![7u8; 2 * STREAM_CHUNK + 1]).unwrap_err();
        assert!(matches!(err, GcfError::Disconnected(_)), "{err:?}");
        assert_eq!(faulty.stream_chunk_count(), 3);
        assert_eq!(faulty.sent_count(), 2);
        assert!(!endpoint.is_open());
    }

    #[test]
    fn chaos_transport_scripts_faults_per_address() {
        let inner = InprocTransport::new();
        let chaos = ChaosTransport::new(Arc::new(inner.clone()));
        let l = chaos.listen("srv").unwrap();
        let h = std::thread::spawn(move || l.accept().unwrap());
        let conn = chaos.connect("srv").unwrap();
        let _server = h.join().unwrap();
        conn.send(Envelope::request(1, vec![])).unwrap();

        // Kill the node: the live connection dies and reconnects are refused.
        chaos.kill("srv");
        assert!(conn.send(Envelope::request(2, vec![])).is_err());
        assert!(chaos.connect("srv").is_err());

        // Revive: new connections work again.
        let l = chaos.listen("srv2").unwrap();
        let h = std::thread::spawn(move || l.accept().unwrap());
        chaos.revive("srv");
        // The inproc listener for "srv" is gone after kill/close of its
        // connection queue, so use a fresh address to prove revival works.
        let conn2 = chaos.connect("srv2").unwrap();
        let _s2 = h.join().unwrap();
        conn2.send(Envelope::request(3, vec![])).unwrap();
        assert_eq!(chaos.connections("srv2").len(), 1);
    }
}
