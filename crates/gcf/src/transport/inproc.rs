//! In-process transport based on crossbeam channels.
//!
//! Connections are pairs of unbounded channels; listeners are registered in a
//! per-transport address table.  This transport is deterministic and fast,
//! which makes it the default for unit tests, integration tests and the
//! figure harnesses.  A single [`InprocTransport`] instance models one
//! isolated "network"; addresses are plain strings (e.g. `"server0"`).

use super::{Connection, Listener, Transport};
use crate::error::{GcfError, Result};
use crate::message::Envelope;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One half of an in-process duplex connection.
pub struct InprocConnection {
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
    peer: String,
    open: Arc<AtomicBool>,
}

impl InprocConnection {
    fn pair(client_name: &str, server_name: &str) -> (Arc<Self>, Arc<Self>) {
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        let open = Arc::new(AtomicBool::new(true));
        let client = Arc::new(InprocConnection {
            tx: c2s_tx,
            rx: s2c_rx,
            peer: server_name.to_string(),
            open: Arc::clone(&open),
        });
        let server = Arc::new(InprocConnection {
            tx: s2c_tx,
            rx: c2s_rx,
            peer: client_name.to_string(),
            open,
        });
        (client, server)
    }
}

impl InprocConnection {
    /// Receive the next frame, failing once the `deadline`, if any, passes.
    /// Polls, so that a concurrent close() unblocks it.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<Envelope> {
        const POLL: Duration = Duration::from_millis(50);
        loop {
            if !self.open.load(Ordering::Acquire) {
                return Err(GcfError::Disconnected(self.peer.clone()));
            }
            let wait = deadline.map_or(POLL, |d| d.saturating_duration_since(Instant::now()));
            match self.rx.recv_timeout(wait.min(POLL)) {
                Ok(env) => return Ok(env),
                Err(RecvTimeoutError::Timeout) => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(GcfError::Timeout(format!("recv from {}", self.peer)));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(GcfError::Disconnected(self.peer.clone()))
                }
            }
        }
    }
}

impl Connection for InprocConnection {
    fn send(&self, env: Envelope) -> Result<()> {
        if !self.open.load(Ordering::Acquire) {
            return Err(GcfError::Disconnected(self.peer.clone()));
        }
        self.tx.send(env).map_err(|_| GcfError::Disconnected(self.peer.clone()))
    }

    fn recv(&self) -> Result<Envelope> {
        self.recv_until(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn close(&self) {
        self.open.store(false, Ordering::Release);
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// Address table shared by every connection of one in-process "network".
type Registry = Arc<Mutex<HashMap<String, Sender<Arc<dyn Connection>>>>>;

struct InprocListenerInner {
    rx: Receiver<Arc<dyn Connection>>,
    addr: String,
    registry: Registry,
    /// The address is unregistered: from here on it may belong to a
    /// successor, which a later shutdown (or the drop) must not remove.
    shut: AtomicBool,
}

/// Listener half of the in-process transport.
pub struct InprocListener {
    inner: InprocListenerInner,
}

impl Listener for InprocListener {
    fn accept(&self) -> Result<Arc<dyn Connection>> {
        self.inner
            .rx
            .recv()
            .map_err(|_| GcfError::Disconnected(format!("listener {}", self.inner.addr)))
    }

    fn local_addr(&self) -> String {
        self.inner.addr.clone()
    }

    fn shutdown(&self) {
        if !self.inner.shut.swap(true, Ordering::AcqRel) {
            self.inner.registry.lock().remove(&self.inner.addr);
        }
    }
}

impl Drop for InprocListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// In-process transport: a private address table plus channel-backed
/// connections.
#[derive(Clone, Default)]
pub struct InprocTransport {
    registry: Registry,
}

impl InprocTransport {
    /// Create a new, empty in-process "network".
    pub fn new() -> Self {
        InprocTransport::default()
    }

    /// Number of registered listeners (diagnostics / tests).
    pub fn listener_count(&self) -> usize {
        self.registry.lock().len()
    }
}

impl Transport for InprocTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let mut reg = self.registry.lock();
        if reg.contains_key(addr) {
            return Err(GcfError::AddressInUse(addr.to_string()));
        }
        let (tx, rx) = unbounded();
        reg.insert(addr.to_string(), tx);
        Ok(Box::new(InprocListener {
            inner: InprocListenerInner {
                rx,
                addr: addr.to_string(),
                registry: Arc::clone(&self.registry),
                shut: AtomicBool::new(false),
            },
        }))
    }

    fn connect(&self, addr: &str) -> Result<Arc<dyn Connection>> {
        let acceptor = {
            let reg = self.registry.lock();
            reg.get(addr).cloned().ok_or_else(|| GcfError::AddressNotFound(addr.to_string()))?
        };
        let (client, server) = InprocConnection::pair("client", addr);
        acceptor
            .send(server as Arc<dyn Connection>)
            .map_err(|_| GcfError::AddressNotFound(addr.to_string()))?;
        Ok(client as Arc<dyn Connection>)
    }

    fn name(&self) -> &'static str {
        "inproc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Envelope;

    #[test]
    fn duplicate_listen_rejected() {
        let t = InprocTransport::new();
        let _l = t.listen("a").unwrap();
        assert!(matches!(t.listen("a"), Err(GcfError::AddressInUse(_))));
    }

    #[test]
    fn listener_shutdown_unregisters_address() {
        let t = InprocTransport::new();
        {
            let _l = t.listen("a").unwrap();
            assert_eq!(t.listener_count(), 1);
        }
        assert_eq!(t.listener_count(), 0);
        // Address can be reused after the listener is dropped.
        let _l2 = t.listen("a").unwrap();
    }

    #[test]
    fn a_shut_listener_dropped_late_leaves_its_successor_registered() {
        let t = InprocTransport::new();
        let old = t.listen("a").unwrap();
        old.shutdown();
        let _new = t.listen("a").unwrap();
        drop(old);
        assert_eq!(t.listener_count(), 1);
        assert!(t.connect("a").is_ok());
    }

    #[test]
    fn recv_timeout_expires() {
        let t = InprocTransport::new();
        let l = t.listen("srv").unwrap();
        let h = std::thread::spawn(move || l.accept().unwrap());
        let conn = t.connect("srv").unwrap();
        let _server = h.join().unwrap();
        let err = conn.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, GcfError::Timeout(_)));
    }

    #[test]
    fn messages_preserve_fifo_order() {
        let t = InprocTransport::new();
        let l = t.listen("srv").unwrap();
        let h = std::thread::spawn(move || l.accept().unwrap());
        let conn = t.connect("srv").unwrap();
        let server = h.join().unwrap();
        for i in 0..100u64 {
            conn.send(Envelope::request(i, vec![])).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(server.recv().unwrap().id, i);
        }
    }

    #[test]
    fn separate_transports_are_isolated() {
        let t1 = InprocTransport::new();
        let t2 = InprocTransport::new();
        let _l = t1.listen("shared").unwrap();
        assert!(t2.connect("shared").is_err());
    }
}
