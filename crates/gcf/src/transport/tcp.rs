//! TCP transport: length-prefixed [`Envelope`] frames over `std::net`
//! sockets.
//!
//! This proves the dOpenCL protocol is a real wire protocol: the exact same
//! client-driver and daemon code that runs over the in-process transport can
//! talk across actual sockets (e.g. daemons on other machines).
//!
//! # Frame layout
//!
//! A frame is a 17-byte header followed by its payload; integers are
//! little-endian.
//!
//! | bytes    | field                                                       |
//! |----------|-------------------------------------------------------------|
//! | `0..4`   | frame length `n`: the bytes after this field, `13 + p`      |
//! | `4`      | kind: 0 request, 1 response, 2 notification, 3 stream data, 4 hello, 5 bye |
//! | `5..13`  | id: correlation id, or the stream id of a stream chunk      |
//! | `13..17` | payload length `p`, always `n - 13`                         |
//! | `17..`   | `p` payload bytes                                           |
//!
//! Bytes `4..` are exactly [`Envelope`]'s wire encoding.  A stream chunk's
//! payload is its `last` flag as one byte (0 or 1), then the chunk's data.
//! A receiver rejects a frame whose length exceeds `MAX_FRAME` or is below
//! 13, whose payload length is not `n - 13`, or whose kind is unknown, and
//! closes the connection: the byte stream can no longer be trusted.
//!
//! # No payload copies
//!
//! A frame leaves in one vectored write: the header, built on the stack,
//! followed by the caller's bytes — the envelope's payload, or for
//! [`Connection::send_stream`] the chunk slice itself (the `last` flag rides
//! at the end of the header).  A frame is read header first, then straight
//! into a `Vec` of exactly the payload's length: no zero fill, no decode
//! copy.  A chunk of a stream the receiver expects
//! ([`Connection::recv_landing`]) is read straight into the expected
//! destination instead: its flag byte first, then its data, at the end of
//! what the destination already holds, or over the slice it hands out.
//!
//! The socket is read through an 8 KiB buffer, so a small frame and the
//! header of the next usually arrive in one system call; a payload read
//! bigger than the buffer bypasses it.
//!
//! # Read timeouts
//!
//! A timeout never loses bytes.  If it expires after part of a frame has
//! arrived, the part is kept and the next receive call continues the frame
//! where this one stopped.  The one exception is a receive that passes a
//! landing: its timeout closes the connection, since a read into a claimed
//! destination cannot be resumed.

use super::{Connection, Destination, Listener, Received, StreamLanding, Transport};
use crate::error::{GcfError, Result};
use crate::message::{Envelope, MessageKind};
use parking_lot::Mutex;
use std::io::{self, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Maximum frame size accepted from the wire (1 GiB + header slack); guards
/// against corrupted length prefixes.
const MAX_FRAME: u32 = (1 << 30) + 4096;

/// Frame bytes after the length field and before the payload: kind, id and
/// payload length.
const ENVELOPE_HEADER: u32 = 1 + 8 + 4;

/// Bytes before a frame's payload.
const HEADER_LEN: usize = 4 + ENVELOPE_HEADER as usize;

/// A TCP-backed connection.
pub struct TcpConnection {
    reader: Mutex<FrameReader>,
    writer: Mutex<TcpStream>,
    peer: String,
    open: AtomicBool,
}

/// The receive side of a connection: the socket, and whatever part of the
/// current frame has arrived.
struct FrameReader {
    stream: BufReader<TcpStream>,
    /// The read timeout currently set on the socket.
    timeout: Option<Duration>,
    header: [u8; HEADER_LEN],
    /// Header bytes received so far.
    header_read: usize,
    /// The frame whose header is complete, with the payload bytes received
    /// so far, and its payload length.
    frame: Option<(Envelope, usize)>,
}

impl FrameReader {
    /// Set the socket's read timeout, skipping the system call when it is
    /// already set to `timeout`.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.timeout != timeout {
            self.stream.get_ref().set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Read until the current frame is complete.  On an error, the bytes
    /// read so far stay in place for the next call.
    ///
    /// With `landing`, a stream chunk whose stream it claims is read into
    /// the claimed destination.  Any error then closes the connection (see
    /// [`TcpConnection::receive`]), so such a read is never resumed.
    fn read_frame(&mut self, landing: Option<&dyn StreamLanding>) -> io::Result<Received> {
        while self.header_read < HEADER_LEN {
            match self.stream.read(&mut self.header[self.header_read..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.header_read += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.frame.is_none() {
            let (kind, id, len) = parse_header(&self.header)?;
            let mut payload = Vec::new();
            if let (Some(landing), MessageKind::StreamData, 1..) = (landing, kind, len) {
                let mut last = [0u8];
                self.stream.read_exact(&mut last)?;
                let (last, len) = (last[0] == 1, len - 1);
                match landing.claim(id, len) {
                    Some(Destination::Append(mut dest)) => {
                        read_exactly(&mut self.stream, &mut dest, len)?;
                        self.header_read = 0;
                        return Ok(Received::Landed { id, last, len, dest });
                    }
                    Some(Destination::Fill(dest)) => {
                        self.stream.read_exact(dest)?;
                        self.header_read = 0;
                        return Ok(Received::Filled { id, last, len });
                    }
                    None => {}
                }
                payload.reserve_exact(len + 1);
                payload.push(u8::from(last));
            } else {
                payload.reserve_exact(len);
            }
            self.frame = Some((Envelope { kind, id, payload }, len));
        }
        let (frame, len) = self.frame.as_mut().expect("header parsed above");
        while frame.payload.len() < *len {
            let missing = *len - frame.payload.len();
            read_exactly(&mut self.stream, &mut frame.payload, missing)?;
        }
        self.header_read = 0;
        Ok(Received::Frame(self.frame.take().expect("frame completed above").0))
    }
}

/// Append the next `len` bytes of `stream` to `dest`, read into its spare
/// capacity, which is never zero-filled.  Bytes read before an error stay
/// appended.
fn read_exactly(stream: &mut impl Read, dest: &mut Vec<u8>, len: usize) -> io::Result<()> {
    if stream.take(len as u64).read_to_end(dest)? < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// The frame of a receive that passed no landing: nothing was claimed.
fn frame_of_received(received: Received) -> Envelope {
    match received {
        Received::Frame(env) => env,
        Received::Landed { .. } | Received::Filled { .. } => {
            unreachable!("a receive without a landing claims nothing")
        }
    }
}

/// Validate a frame header; returns its kind, id and payload length.
fn parse_header(header: &[u8; HEADER_LEN]) -> io::Result<(MessageKind, u64, usize)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let frame_len = field(0);
    if frame_len > MAX_FRAME {
        return Err(invalid(format!("frame too large: {frame_len} bytes")));
    }
    let Some(len) = frame_len.checked_sub(ENVELOPE_HEADER) else {
        return Err(invalid(format!("frame too short: {frame_len} bytes")));
    };
    if field(13) != len {
        return Err(invalid(format!(
            "payload length {} does not match frame length {frame_len}",
            field(13)
        )));
    }
    let kind = MessageKind::from_byte(header[4]).map_err(|e| invalid(e.to_string()))?;
    let id = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
    Ok((kind, id, len as usize))
}

/// `write_all` for a list of buffers.
fn write_all_vectored(stream: &mut TcpStream, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl TcpConnection {
    fn new(stream: TcpStream) -> Result<Self> {
        let peer =
            stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_string());
        let reader = FrameReader {
            stream: BufReader::new(stream.try_clone()?),
            timeout: None,
            header: [0; HEADER_LEN],
            header_read: 0,
            frame: None,
        };
        Ok(TcpConnection {
            reader: Mutex::new(reader),
            writer: Mutex::new(stream),
            peer,
            open: AtomicBool::new(true),
        })
    }

    /// Send one frame whose payload is the `last` flag byte, if any, then
    /// `body`, as one vectored write.
    fn write_frame(
        &self,
        kind: MessageKind,
        id: u64,
        last: Option<bool>,
        body: &[u8],
    ) -> Result<()> {
        if !self.is_open() {
            return Err(GcfError::Disconnected(self.peer.clone()));
        }
        let payload_len = usize::from(last.is_some()) + body.len();
        let frame_len = u32::try_from(payload_len)
            .ok()
            .and_then(|len| len.checked_add(ENVELOPE_HEADER))
            .filter(|&len| len <= MAX_FRAME)
            .ok_or_else(|| {
                GcfError::Codec(format!("frame too large: {payload_len}-byte payload"))
            })?;
        let mut header = [0u8; HEADER_LEN + 1];
        header[0..4].copy_from_slice(&frame_len.to_le_bytes());
        header[4] = kind.to_byte();
        header[5..13].copy_from_slice(&id.to_le_bytes());
        header[13..17].copy_from_slice(&(frame_len - ENVELOPE_HEADER).to_le_bytes());
        let header_len = match last {
            Some(last) => {
                header[HEADER_LEN] = u8::from(last);
                HEADER_LEN + 1
            }
            None => HEADER_LEN,
        };
        let mut bufs = [IoSlice::new(&header[..header_len]), IoSlice::new(body)];
        write_all_vectored(&mut self.writer.lock(), &mut bufs)?;
        Ok(())
    }

    /// Receive one frame with the socket's read timeout set to `timeout`
    /// (see [`FrameReader::read_frame`] for `landing`).  Any error but a
    /// timeout without a `landing` closes the connection.
    fn receive(
        &self,
        timeout: Option<Duration>,
        landing: Option<&dyn StreamLanding>,
    ) -> Result<Received> {
        if !self.is_open() {
            return Err(GcfError::Disconnected(self.peer.clone()));
        }
        let mut reader = self.reader.lock();
        reader.set_timeout(timeout)?;
        let err = match reader.read_frame(landing) {
            Ok(received) => return Ok(received),
            Err(e) => e,
        };
        let timed_out = matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
        if !timed_out || landing.is_some() {
            self.close();
        }
        if timed_out {
            return Err(GcfError::Timeout(format!("recv from {}", self.peer)));
        }
        Err(match err.kind() {
            io::ErrorKind::UnexpectedEof => GcfError::Disconnected(self.peer.clone()),
            io::ErrorKind::InvalidData => GcfError::Codec(err.to_string()),
            _ => err.into(),
        })
    }
}

impl Connection for TcpConnection {
    fn send(&self, env: Envelope) -> Result<()> {
        self.write_frame(env.kind, env.id, None, &env.payload)
    }

    fn send_stream(&self, id: u64, last: bool, chunk: &[u8]) -> Result<()> {
        self.write_frame(MessageKind::StreamData, id, Some(last), chunk)
    }

    fn recv(&self) -> Result<Envelope> {
        self.receive(None, None).map(frame_of_received)
    }

    fn recv_landing(
        &self,
        landing: &dyn StreamLanding,
        timeout: Option<Duration>,
    ) -> Result<Received> {
        self.receive(timeout, Some(landing))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope> {
        self.receive(Some(timeout), None).map(frame_of_received)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn close(&self) {
        self.open.store(false, Ordering::Release);
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

/// TCP listener wrapper.
pub struct TcpListenerWrapper {
    listener: TcpListener,
    addr: String,
}

impl Listener for TcpListenerWrapper {
    fn accept(&self) -> Result<std::sync::Arc<dyn Connection>> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(std::sync::Arc::new(TcpConnection::new(stream)?))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn shutdown(&self) {
        // Dropping the TcpListener closes the socket; nothing else to do.
    }
}

/// Transport creating real TCP sockets.
#[derive(Clone, Copy, Default)]
pub struct TcpTransport;

impl TcpTransport {
    /// Create a TCP transport.
    pub fn new() -> Self {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let listener =
            TcpListener::bind(addr).map_err(|e| GcfError::Io(format!("bind {addr}: {e}")))?;
        let addr = listener.local_addr()?.to_string();
        Ok(Box::new(TcpListenerWrapper { listener, addr }))
    }

    fn connect(&self, addr: &str) -> Result<std::sync::Arc<dyn Connection>> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| GcfError::AddressNotFound(format!("{addr}: {e}")))?;
        stream.set_nodelay(true)?;
        Ok(std::sync::Arc::new(TcpConnection::new(stream)?))
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Encode;

    /// A connection and the raw socket at its other end.
    fn raw_pair() -> (TcpConnection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (TcpConnection::new(stream).unwrap(), raw)
    }

    /// `env` as a frame: its length, then its envelope encoding.
    fn frame_of(env: &Envelope) -> Vec<u8> {
        let body = env.to_bytes();
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Writes `bytes` to a fresh connection, ends the stream and returns
    /// what the connection received, and whether it is still open.
    fn recv_after(bytes: &[u8]) -> (Result<Envelope>, bool) {
        let (conn, mut raw) = raw_pair();
        raw.write_all(bytes).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        (conn.recv(), conn.is_open())
    }

    /// Pins the wire format: what `send` and `send_stream` write is the
    /// golden hex (fields separated by `_`), which is the frame length
    /// followed by the envelope encoding of the same frame.
    #[test]
    fn frames_are_byte_identical_to_the_envelope_encoding() {
        let (conn, mut raw) = raw_pair();
        let mut expect = |env: &Envelope, golden: &str| {
            let golden = golden.replace('_', "");
            let mut wire = vec![0u8; golden.len() / 2];
            raw.read_exact(&mut wire).unwrap();
            assert_eq!(hex(&wire), golden, "wire format of {env:?} changed");
            assert_eq!(hex(&wire), hex(&frame_of(env)), "{env:?}");
        };
        let sent = [
            (Envelope::request(1, vec![0xaa, 0xbb]), "0f000000_00_0100000000000000_02000000_aabb"),
            (Envelope::response(2, vec![0xcc]), "0e000000_01_0200000000000000_01000000_cc"),
            (
                Envelope::notification(3, vec![0xdd, 0xee, 0xff]),
                "10000000_02_0300000000000000_03000000_ddeeff",
            ),
            (Envelope::request(4, vec![]), "0d000000_00_0400000000000000_00000000"),
        ];
        for (env, golden) in sent {
            conn.send(env.clone()).unwrap();
            expect(&env, golden);
        }
        let streamed: [(u64, bool, &[u8], &str); 3] = [
            (5, false, &[1, 2], "10000000_03_0500000000000000_03000000_00_0102"),
            (5, true, &[3], "0f000000_03_0500000000000000_02000000_01_03"),
            (6, true, &[], "0e000000_03_0600000000000000_01000000_01"),
        ];
        for (id, last, chunk, golden) in streamed {
            conn.send_stream(id, last, chunk).unwrap();
            let mut payload = vec![u8::from(last)];
            payload.extend_from_slice(chunk);
            expect(&Envelope::stream(id, payload), golden);
        }
        // Nothing beyond the frames was written.
        raw.set_nonblocking(true).unwrap();
        let err = raw.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn malformed_headers_are_rejected_and_close_the_connection() {
        let header = |frame_len: u32, kind: u8, payload_len: u32| {
            let mut h = frame_len.to_le_bytes().to_vec();
            h.push(kind);
            h.extend_from_slice(&9u64.to_le_bytes());
            h.extend_from_slice(&payload_len.to_le_bytes());
            h
        };
        let cases = [
            ("over MAX_FRAME", header(MAX_FRAME + 1, 0, MAX_FRAME + 1 - 13)),
            ("u32::MAX length", header(u32::MAX, 0, u32::MAX - 13)),
            ("shorter than a header", header(12, 0, 0)),
            ("zero length", header(0, 0, 0)),
            ("inner length too long", header(16, 0, 4)),
            ("inner length too short", header(16, 0, 2)),
            ("inner length u32::MAX", header(16, 0, u32::MAX)),
            ("kind 6", header(13, 6, 0)),
            ("kind 255", header(13, 255, 0)),
        ];
        for (what, mut bytes) in cases {
            bytes.extend_from_slice(&[0; 3]);
            let (result, open) = recv_after(&bytes);
            assert!(matches!(result, Err(GcfError::Codec(_))), "{what}: {result:?}");
            assert!(!open, "{what}: connection left open");
        }
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let env = Envelope::notification(3, vec![1, 2, 3]);
        let frame = frame_of(&env);
        for n in 0..frame.len() {
            let (result, open) = recv_after(&frame[..n]);
            assert!(matches!(result, Err(GcfError::Disconnected(_))), "{n}: {result:?}");
            assert!(!open, "{n}-byte prefix left the connection open");
        }
        assert_eq!(recv_after(&frame).0.unwrap(), env);
    }

    /// A timeout that expires inside a frame keeps the bytes already read:
    /// the next receive completes the frame.
    #[test]
    fn timeout_inside_a_frame_keeps_its_bytes() {
        let env = Envelope::request(7, vec![5; 100]);
        let frame = frame_of(&env);
        // Split inside the header, and inside the payload.
        for split in [10, 40] {
            let (conn, mut raw) = raw_pair();
            raw.write_all(&frame[..split]).unwrap();
            let err = conn.recv_timeout(Duration::from_millis(50)).unwrap_err();
            assert!(matches!(err, GcfError::Timeout(_)), "{split}: {err:?}");
            raw.write_all(&frame[split..]).unwrap();
            assert_eq!(conn.recv_timeout(Duration::from_millis(500)).unwrap(), env, "{split}");
            assert!(conn.is_open());
        }
    }

    /// Claims stream 5 once, into `dest`.
    struct ClaimFive(Mutex<Option<Vec<u8>>>);

    impl StreamLanding for ClaimFive {
        fn claim(&self, id: u64, _len: usize) -> Option<Destination<'_>> {
            if id == 5 {
                self.0.lock().take().map(Destination::Append)
            } else {
                None
            }
        }
    }

    /// Claims stream 5 once, into the slice it holds.
    struct FillFive<'a>(std::cell::Cell<Option<&'a mut [u8]>>);

    impl StreamLanding for FillFive<'_> {
        fn claim(&self, id: u64, _len: usize) -> Option<Destination<'_>> {
            (id == 5).then(|| self.0.take()).flatten().map(Destination::Fill)
        }
    }

    /// A chunk the landing claims as a slice is read over that slice, and
    /// nothing past it is consumed.
    #[test]
    fn a_claimed_slice_is_filled_in_place() {
        let (conn, mut raw) = raw_pair();
        let mut dest = [0u8; 3];
        let landing = FillFive(std::cell::Cell::new(Some(&mut dest[..])));
        let next = Envelope::request(8, vec![4]);
        raw.write_all(&frame_of(&Envelope::stream(5, vec![0, 7, 8, 9]))).unwrap();
        raw.write_all(&frame_of(&next)).unwrap();
        match conn.recv_landing(&landing, None).unwrap() {
            Received::Filled { id: 5, last: false, len: 3 } => {}
            received => panic!("{received:?}"),
        }
        match conn.recv_landing(&landing, None).unwrap() {
            Received::Frame(env) => assert_eq!(env, next),
            received => panic!("{received:?}"),
        }
        assert_eq!(dest, [7, 8, 9]);
    }

    /// A receive with a landing whose timeout expires closes the
    /// connection: the read may have stopped inside a claimed slice.
    #[test]
    fn a_landing_receive_that_times_out_closes_the_connection() {
        let (conn, mut raw) = raw_pair();
        let mut dest = [0u8; 3];
        let landing = FillFive(std::cell::Cell::new(Some(&mut dest[..])));
        let frame = frame_of(&Envelope::stream(5, vec![0, 7, 8, 9]));
        raw.write_all(&frame[..frame.len() - 1]).unwrap();
        let err = conn.recv_landing(&landing, Some(Duration::from_millis(50))).unwrap_err();
        assert!(matches!(err, GcfError::Timeout(_)), "{err:?}");
        assert!(!conn.is_open());
    }

    /// A chunk the landing claims is read into the claimed `Vec`, after
    /// what it holds; a chunk it does not claim arrives whole, flag first.
    #[test]
    fn claimed_chunks_land_and_others_arrive_whole() {
        let (conn, mut raw) = raw_pair();
        let mut dest = Vec::with_capacity(3);
        dest.push(9);
        let landing = ClaimFive(Mutex::new(Some(dest)));
        let other = Envelope::stream(6, vec![0, 3]);
        raw.write_all(&frame_of(&Envelope::stream(5, vec![1, 7, 8]))).unwrap();
        raw.write_all(&frame_of(&other)).unwrap();
        match conn.recv_landing(&landing, None).unwrap() {
            Received::Landed { id: 5, last: true, len: 2, dest } => assert_eq!(dest, [9, 7, 8]),
            received => panic!("{received:?}"),
        }
        match conn.recv_landing(&landing, None).unwrap() {
            Received::Frame(env) => assert_eq!(env, other),
            received => panic!("{received:?}"),
        }
        assert!(conn.is_open());
    }

    /// A frame a timed-out receive began is finished whole by the next
    /// receive, even one that would land its stream.
    #[test]
    fn a_landing_receive_finishes_a_frame_begun_before() {
        let env = Envelope::stream(5, vec![1, 2, 3, 4]);
        let frame = frame_of(&env);
        let (conn, mut raw) = raw_pair();
        raw.write_all(&frame[..HEADER_LEN + 2]).unwrap();
        let err = conn.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, GcfError::Timeout(_)), "{err:?}");
        raw.write_all(&frame[HEADER_LEN + 2..]).unwrap();
        let landing = ClaimFive(Mutex::new(Some(Vec::with_capacity(3))));
        match conn.recv_landing(&landing, None).unwrap() {
            Received::Frame(received) => assert_eq!(received, env),
            received => panic!("{received:?}"),
        }
    }

    #[test]
    fn oversized_payload_is_refused_before_writing() {
        let (conn, _raw) = raw_pair();
        let chunk = vec![0u8; (MAX_FRAME - ENVELOPE_HEADER) as usize];
        let err = conn.send_stream(1, true, &chunk).unwrap_err();
        assert!(matches!(err, GcfError::Codec(_)), "{err:?}");
        assert!(conn.is_open());
    }

    #[test]
    fn large_frame_round_trip() {
        let t = TcpTransport::new();
        let listener = t.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let env = conn.recv().unwrap();
            conn.send(Envelope::response(env.id, env.payload)).unwrap();
        });
        let conn = t.connect(&addr).unwrap();
        let payload = vec![0xabu8; 4 * 1024 * 1024];
        conn.send(Envelope::request(1, payload.clone())).unwrap();
        let resp = conn.recv().unwrap();
        assert_eq!(resp.kind, MessageKind::Response);
        assert_eq!(resp.payload.len(), payload.len());
        server.join().unwrap();
    }

    #[test]
    fn recv_timeout_on_silent_peer() {
        let t = TcpTransport::new();
        let listener = t.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let _server = std::thread::spawn(move || {
            let _conn = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let conn = t.connect(&addr).unwrap();
        let err = conn.recv_timeout(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, GcfError::Timeout(_)), "{err:?}");
    }

    #[test]
    fn connect_to_unbound_port_fails() {
        let t = TcpTransport::new();
        // Port 1 is essentially never listening.
        assert!(t.connect("127.0.0.1:1").is_err());
    }
}
