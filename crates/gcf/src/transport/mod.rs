//! Transport abstraction: how frames travel between two processes.
//!
//! The dOpenCL protocol code (client driver and daemon) is written entirely
//! against the [`Transport`], [`Listener`] and [`Connection`] traits, so the
//! same code runs over the deterministic in-process transport used by tests
//! and benches and over real TCP sockets.

pub mod faulty;
pub mod inproc;
pub mod tcp;

use crate::error::Result;
use crate::message::Envelope;
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional, framed connection between two endpoints.
///
/// Implementations must be safe to share between threads: one thread may
/// block in [`Connection::recv`] while others call [`Connection::send`].
pub trait Connection: Send + Sync {
    /// Send one frame to the peer.
    fn send(&self, env: Envelope) -> Result<()>;

    /// Send one chunk of bulk stream `id`: a
    /// [`MessageKind::StreamData`](crate::MessageKind::StreamData) frame
    /// whose payload is the `last` flag as one byte (0 or 1), then `chunk`.
    ///
    /// The default builds that [`Envelope`] and passes it to
    /// [`Connection::send`], so wrappers such as
    /// [`faulty::FaultyConnection`] see every chunk as a frame.  A transport
    /// that can send the chunk straight from the caller's slice overrides
    /// it ([`tcp::TcpConnection`]).
    fn send_stream(&self, id: u64, last: bool, chunk: &[u8]) -> Result<()> {
        let mut payload = Vec::with_capacity(1 + chunk.len());
        payload.push(u8::from(last));
        payload.extend_from_slice(chunk);
        self.send(Envelope::stream(id, payload))
    }

    /// Receive the next frame, blocking until one arrives or the connection
    /// is closed.
    fn recv(&self) -> Result<Envelope>;

    /// Like [`Connection::recv`], but a stream chunk whose stream `landing`
    /// claims may be read straight into the claimed destination
    /// ([`Received::Landed`], [`Received::Filled`]).  With a `timeout`, it
    /// fails with [`crate::GcfError::Timeout`] if no frame arrives in time.
    ///
    /// The default receives every frame whole, and the receiver appends a
    /// chunk it expects itself.  A transport that can read a payload
    /// straight into a caller's buffer overrides it
    /// ([`tcp::TcpConnection`]); its timeout closes the connection, as a
    /// read into a claimed destination cannot be resumed.
    fn recv_landing(
        &self,
        landing: &dyn StreamLanding,
        timeout: Option<Duration>,
    ) -> Result<Received> {
        let _ = landing;
        match timeout {
            Some(timeout) => self.recv_timeout(timeout),
            None => self.recv(),
        }
        .map(Received::Frame)
    }

    /// Receive with a timeout; returns `Err(GcfError::Timeout)` on expiry.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope>;

    /// A short description of the remote peer (address or name).
    fn peer(&self) -> String;

    /// Close the connection; subsequent operations fail with
    /// [`crate::GcfError::Disconnected`].
    fn close(&self);

    /// Whether the connection is still open.
    fn is_open(&self) -> bool;
}

/// The destinations of the bulk streams a receiver expects (see
/// [`crate::rpc::Endpoint::expect_bulk`] and
/// [`crate::rpc::Endpoint::receive_stream_into`]).
pub trait StreamLanding {
    /// Take the destination of stream `id` for its next chunk, `len` bytes.
    /// `None` if the stream is not expected, or if the chunk would run past
    /// the length expected, which fails the stream: the chunk is then
    /// received whole and dropped.
    fn claim(&self, id: u64, len: usize) -> Option<Destination<'_>>;
}

/// Where [`StreamLanding::claim`] puts a chunk.
#[derive(Debug)]
pub enum Destination<'a> {
    /// A `Vec` with at least the chunk's length of spare capacity: the
    /// chunk is appended, and the `Vec` handed back in
    /// [`Received::Landed`].
    Append(Vec<u8>),
    /// Exactly the chunk's length, overwritten in place
    /// ([`Received::Filled`]).
    Fill(&'a mut [u8]),
}

/// What [`Connection::recv_landing`] received.
#[derive(Debug)]
pub enum Received {
    /// A whole frame.
    Frame(Envelope),
    /// A chunk of `len` bytes of stream `id`, appended to `dest`, the
    /// [`Destination::Append`] the landing gave out; `last` ends the
    /// stream.
    Landed {
        /// The stream.
        id: u64,
        /// Whether this chunk ends the stream.
        last: bool,
        /// The chunk's length.
        len: usize,
        /// The claimed destination, the chunk appended.
        dest: Vec<u8>,
    },
    /// A chunk of `len` bytes of stream `id`, written into the
    /// [`Destination::Fill`] the landing gave out; `last` ends the stream.
    Filled {
        /// The stream.
        id: u64,
        /// Whether this chunk ends the stream.
        last: bool,
        /// The chunk's length.
        len: usize,
    },
}

/// A listening endpoint accepting incoming connections.
pub trait Listener: Send + Sync {
    /// Block until the next incoming connection arrives.
    fn accept(&self) -> Result<Arc<dyn Connection>>;

    /// The address this listener is bound to (resolvable by
    /// [`Transport::connect`]).
    fn local_addr(&self) -> String;

    /// Stop listening; a blocked [`Listener::accept`] returns an error.
    fn shutdown(&self);
}

/// Factory for listeners and outgoing connections.
pub trait Transport: Send + Sync {
    /// Bind a listener at `addr`.
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>>;

    /// Connect to the listener at `addr`.
    fn connect(&self, addr: &str) -> Result<Arc<dyn Connection>>;

    /// Name of the transport (for diagnostics).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::inproc::InprocTransport;
    use super::tcp::TcpTransport;
    use super::*;
    use crate::message::{Envelope, MessageKind};

    fn exercise_transport(transport: &dyn Transport, addr: &str) {
        let listener = transport.listen(addr).expect("listen");
        let bound = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            let req = conn.recv().expect("server recv");
            assert_eq!(req.kind, MessageKind::Request);
            conn.send(Envelope::response(req.id, req.payload.clone())).expect("server send");
            req.payload
        });

        let conn = transport.connect(&bound).expect("connect");
        assert!(conn.is_open());
        let payload = vec![1u8, 2, 3, 4, 5];
        conn.send(Envelope::request(9, payload.clone())).expect("send");
        let resp = conn.recv().expect("recv");
        assert_eq!(resp.kind, MessageKind::Response);
        assert_eq!(resp.id, 9);
        assert_eq!(resp.payload, payload);
        assert_eq!(server.join().unwrap(), payload);
    }

    #[test]
    fn inproc_round_trip() {
        let t = InprocTransport::new();
        exercise_transport(&t, "serverA");
    }

    #[test]
    fn tcp_round_trip() {
        let t = TcpTransport::new();
        exercise_transport(&t, "127.0.0.1:0");
    }

    #[test]
    fn inproc_connect_to_missing_address_fails() {
        let t = InprocTransport::new();
        assert!(t.connect("nowhere").is_err());
    }

    #[test]
    fn closed_connection_reports_not_open() {
        let t = InprocTransport::new();
        let listener = t.listen("x").unwrap();
        let handle = std::thread::spawn(move || listener.accept());
        let conn = t.connect("x").unwrap();
        let _server_conn = handle.join().unwrap().unwrap();
        conn.close();
        assert!(!conn.is_open());
        assert!(conn.send(Envelope::request(1, vec![])).is_err());
    }
}
