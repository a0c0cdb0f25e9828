//! Frame format multiplexed over a single connection.
//!
//! dOpenCL uses two communication patterns: message-based (requests,
//! responses, notifications) and stream-based (bulk data).  Both are carried
//! over the same connection as [`Envelope`] frames distinguished by their
//! [`MessageKind`].

use crate::error::{GcfError, Result};
use crate::wire::{decode_bytes, encode_bytes, Decode, Encode, Reader};

/// The kind of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A request expecting exactly one [`MessageKind::Response`] with the
    /// same id.
    Request,
    /// The response to a request.
    Response,
    /// A one-way notification (e.g. an event status update).
    Notification,
    /// A chunk of a bulk data stream; the id identifies the stream.
    StreamData,
    /// Handshake frame announcing the peer's name.
    Hello,
    /// Orderly shutdown of the connection.
    Bye,
}

impl MessageKind {
    /// The kind's byte on the wire.
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            MessageKind::Request => 0,
            MessageKind::Response => 1,
            MessageKind::Notification => 2,
            MessageKind::StreamData => 3,
            MessageKind::Hello => 4,
            MessageKind::Bye => 5,
        }
    }

    /// The kind a wire byte names; an unknown byte is a codec error.
    pub(crate) fn from_byte(b: u8) -> Result<Self> {
        Ok(match b {
            0 => MessageKind::Request,
            1 => MessageKind::Response,
            2 => MessageKind::Notification,
            3 => MessageKind::StreamData,
            4 => MessageKind::Hello,
            5 => MessageKind::Bye,
            other => return Err(GcfError::Codec(format!("invalid message kind {other}"))),
        })
    }

    /// Whether a frame of this kind occupies no reply slot: the sender does
    /// not wait for an answer (notifications, stream chunks, shutdown).
    ///
    /// One-way frames are the backbone of the async command pipeline: event
    /// completions and bulk data travel without ever blocking a caller.
    pub fn is_one_way(self) -> bool {
        matches!(
            self,
            MessageKind::Notification
                | MessageKind::StreamData
                | MessageKind::Hello
                | MessageKind::Bye
        )
    }
}

/// A single frame exchanged between two endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Frame kind.
    pub kind: MessageKind,
    /// Correlation id: request/response pairs share an id; stream chunks use
    /// it as stream id.
    pub id: u64,
    /// Opaque payload (protocol-specific, encoded with [`crate::wire`]).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Create a request frame.
    pub fn request(id: u64, payload: Vec<u8>) -> Self {
        Envelope { kind: MessageKind::Request, id, payload }
    }

    /// Create a response frame answering request `id`.
    pub fn response(id: u64, payload: Vec<u8>) -> Self {
        Envelope { kind: MessageKind::Response, id, payload }
    }

    /// Create a notification frame.
    pub fn notification(id: u64, payload: Vec<u8>) -> Self {
        Envelope { kind: MessageKind::Notification, id, payload }
    }

    /// Create a bulk stream chunk for stream `id`.
    pub fn stream(id: u64, payload: Vec<u8>) -> Self {
        Envelope { kind: MessageKind::StreamData, id, payload }
    }

    /// Total size of the frame on the wire in bytes (header + payload).
    ///
    /// Used by the link models to account modelled transfer time.
    pub fn wire_size(&self) -> usize {
        // kind (1) + id (8) + length prefix (4) + payload
        1 + 8 + 4 + self.payload.len()
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.kind.to_byte());
        self.id.encode(buf);
        encode_bytes(&self.payload, buf);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let kind = MessageKind::from_byte(u8::decode(r)?)?;
        let id = u64::decode(r)?;
        let payload = decode_bytes(r)?;
        Ok(Envelope { kind, id, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decode, Encode};

    #[test]
    fn envelope_roundtrip() {
        let env = Envelope::request(42, vec![1, 2, 3]);
        let bytes = env.to_bytes();
        assert_eq!(Envelope::from_bytes(&bytes).unwrap(), env);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            MessageKind::Request,
            MessageKind::Response,
            MessageKind::Notification,
            MessageKind::StreamData,
            MessageKind::Hello,
            MessageKind::Bye,
        ] {
            let env = Envelope { kind, id: 7, payload: vec![9; 16] };
            assert_eq!(Envelope::from_bytes(&env.to_bytes()).unwrap(), env);
        }
    }

    #[test]
    fn wire_size_matches_encoding() {
        let env = Envelope::stream(3, vec![0u8; 1000]);
        assert_eq!(env.wire_size(), env.to_bytes().len());
    }

    #[test]
    fn one_way_kinds_expect_no_reply() {
        assert!(!MessageKind::Request.is_one_way());
        assert!(!MessageKind::Response.is_one_way());
        assert!(MessageKind::Notification.is_one_way());
        assert!(MessageKind::StreamData.is_one_way());
        assert!(MessageKind::Hello.is_one_way());
        assert!(MessageKind::Bye.is_one_way());
    }

    #[test]
    fn invalid_kind_rejected() {
        let mut bytes = Envelope::request(1, vec![]).to_bytes();
        bytes[0] = 200;
        assert!(Envelope::from_bytes(&bytes).is_err());
    }
}
