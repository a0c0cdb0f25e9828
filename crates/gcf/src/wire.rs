//! Hand-written binary wire codec.
//!
//! Every protocol message exchanged between the dOpenCL client driver and the
//! daemons implements [`Encode`] and [`Decode`].  The format is a simple,
//! explicit little-endian byte layout: no external serialization crate is
//! used, which keeps the wire format stable and auditable and mirrors the
//! low-level framing a real middleware would define.
//!
//! # Declaring a message
//!
//! Almost every message is "a tag byte, then each field in declaration
//! order" (structs carry no tag).  Such a type is declared once with
//! [`wire_message!`](crate::wire_message), which emits the type unchanged —
//! doc comments, derives and all — plus its `Encode` and `Decode` impls, so
//! the declaration is the single source of truth for the layout:
//!
//! ```
//! use gcf::wire::{Decode, Encode};
//!
//! gcf::wire_message! {
//!     /// A request of some protocol.
//!     #[derive(Debug, PartialEq)]
//!     pub enum Ping {
//!         /// No payload: encodes as the tag byte alone.
//!         0 => Hello,
//!         /// Fields follow the tag in declaration order.
//!         1 => Echo { id: u64, text: String },
//!         /// A single wrapped type.
//!         2 => Nested(Pong),
//!     }
//! }
//!
//! gcf::wire_message! {
//!     /// A struct: its fields in declaration order, no tag.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Pong {
//!         /// Payload.
//!         pub value: u32,
//!     }
//! }
//!
//! let msg = Ping::Echo { id: 7, text: "hi".into() };
//! assert_eq!(msg.to_bytes()[0], 1);
//! assert_eq!(Ping::from_bytes(&msg.to_bytes()).unwrap(), msg);
//! assert_eq!(Ping::Nested(Pong { value: 3 }).to_bytes(), [2, 3, 0, 0, 0]);
//! ```
//!
//! Two rules the macro cannot enforce on its own:
//!
//! * **A tag is never reused or renumbered.**  The tag is a variant's
//!   identity on the wire; retire it together with its variant and give new
//!   variants fresh tags.  Only a tag used twice *at once* is caught, as a
//!   build error:
//!
//! ```compile_fail
//! gcf::wire_message! {
//!     pub enum Clash {
//!         0 => First,
//!         0 => Second,
//!     }
//! }
//! ```
//!
//! * **Opaque byte payloads use [`encode_bytes`] / [`decode_bytes`].**  A
//!   `Vec<u8>` field has the same layout but goes through the generic
//!   one-element-at-a-time `Vec<T>` codec, far too slow for bulk frames;
//!   such types keep a hand-written codec (see `gcf::Envelope`).
//!
//! Formats that are not a plain field sequence (the primitive and container
//! impls below, `Envelope`, kernel argument values) are written by hand.

use crate::error::{GcfError, Result};

/// Serialize a value into bytes.
pub trait Encode {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience helper returning a freshly encoded byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserialize a value from bytes.
pub trait Decode: Sized {
    /// Read a value from the reader, advancing its cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Convenience helper decoding from a full byte slice, requiring that all
    /// bytes are consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(GcfError::Codec(format!("{} trailing bytes after decode", r.remaining())));
        }
        Ok(v)
    }
}

/// Cursor over a byte slice used by [`Decode`] implementations.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `bytes` starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(GcfError::Codec(format!(
                "unexpected end of input: wanted {n}, have {}",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let slice = self.take(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(slice);
        Ok(arr)
    }
}

macro_rules! impl_scalar {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_le_bytes());
                }
            }
            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self> {
                    Ok(<$ty>::from_le_bytes(r.take_array()?))
                }
            }
        )*
    };
}

impl_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(u64::decode(r)? as usize)
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(GcfError::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| GcfError::Codec(format!("invalid utf-8 string: {e}")))
    }
}

impl Encode for &str {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = u32::decode(r)? as usize;
        // `len` is untrusted: every element takes at least one byte, so
        // never reserve more elements than there are bytes left.
        let mut out = Vec::with_capacity(len.min(1 << 16).min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(GcfError::Codec(format!("invalid option tag {other}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Declare a wire message once and derive its [`Encode`] and [`Decode`]
/// impls from the declaration (see the [module docs](self) for an example
/// and the rules).
///
/// * `struct Name { field: Type, .. }` encodes each field in declaration
///   order.
/// * `enum Name { TAG => Variant, .. }` encodes the literal `TAG` as one
///   byte, then the variant's fields in declaration order.  A variant is a
///   unit (`0 => Ping`), a single wrapped type (`1 => Info(Info)`) or has
///   named fields (`2 => Open { id: u64 }`).  Decoding an unknown tag is a
///   [`GcfError::Codec`] error.
#[macro_export]
macro_rules! wire_message {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )+
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                $( $crate::wire::Encode::encode(&self.$field, buf); )+
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::Result<Self> {
                ::std::result::Result::Ok($name {
                    $( $field: $crate::wire::Decode::decode(r)?, )+
                })
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident { $($variants:tt)* }
    ) => {
        $crate::wire_message!(@enum [$(#[$meta])* $vis enum $name] [] [] [] [] $($variants)*);
    };

    // The variants are sorted into declarations (in order) and one list per
    // shape -- unit, single wrapped type, named fields -- so each shape gets
    // its own match arms below.
    (@enum [$(#[$meta:meta])* $vis:vis enum $name:ident] [$($decl:tt)*]
        [$($utag:literal => $uvariant:ident,)*]
        [$($ttag:literal => $tvariant:ident,)*]
        [$($stag:literal => $svariant:ident { $($sfield:ident),* },)*]
    ) => {
        $(#[$meta])*
        $vis enum $name { $($decl)* }

        // A tag used twice within one type is a build error.
        const _: () = {
            let tags: &[u8] = &[$($utag,)* $($ttag,)* $($stag,)*];
            let mut i = 0;
            while i < tags.len() {
                let mut j = i + 1;
                while j < tags.len() {
                    assert!(tags[i] != tags[j], concat!("duplicate tag in ", stringify!($name)));
                    j += 1;
                }
                i += 1;
            }
        };

        impl $crate::wire::Encode for $name {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $( $name::$uvariant => buf.push($utag), )*
                    $( $name::$tvariant(value) => {
                        buf.push($ttag);
                        $crate::wire::Encode::encode(value, buf);
                    } )*
                    $( $name::$svariant { $($sfield),* } => {
                        buf.push($stag);
                        $( $crate::wire::Encode::encode($sfield, buf); )*
                    } )*
                }
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> $crate::Result<Self> {
                ::std::result::Result::Ok(match <u8 as $crate::wire::Decode>::decode(r)? {
                    $( $utag => $name::$uvariant, )*
                    $( $ttag => $name::$tvariant($crate::wire::Decode::decode(r)?), )*
                    $( $stag => $name::$svariant {
                        $( $sfield: $crate::wire::Decode::decode(r)?, )*
                    }, )*
                    other => {
                        return ::std::result::Result::Err($crate::GcfError::Codec(::std::format!(
                            "invalid {} tag {other}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }
    };
    (@enum $head:tt [$($decl:tt)*] [$($unit:tt)*] [$($tuple:tt)*] [$($named:tt)*]
        $(#[$vmeta:meta])* $tag:literal => $variant:ident $(, $($rest:tt)*)?
    ) => {
        $crate::wire_message!(@enum $head [$($decl)* $(#[$vmeta])* $variant,]
            [$($unit)* $tag => $variant,] [$($tuple)*] [$($named)*] $($($rest)*)?);
    };
    (@enum $head:tt [$($decl:tt)*] [$($unit:tt)*] [$($tuple:tt)*] [$($named:tt)*]
        $(#[$vmeta:meta])* $tag:literal => $variant:ident ($inner:ty) $(, $($rest:tt)*)?
    ) => {
        $crate::wire_message!(@enum $head [$($decl)* $(#[$vmeta])* $variant($inner),]
            [$($unit)*] [$($tuple)* $tag => $variant,] [$($named)*] $($($rest)*)?);
    };
    (@enum $head:tt [$($decl:tt)*] [$($unit:tt)*] [$($tuple:tt)*] [$($named:tt)*]
        $(#[$vmeta:meta])* $tag:literal => $variant:ident {
            $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
        } $(, $($rest:tt)*)?
    ) => {
        $crate::wire_message!(@enum $head
            [$($decl)* $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $fty, )* },]
            [$($unit)*] [$($tuple)*] [$($named)* $tag => $variant { $($field),* },]
            $($($rest)*)?);
    };
}

/// Encode raw bytes with a length prefix (distinct from `Vec<u8>` only in
/// intent: used for opaque payloads).
pub fn encode_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    (bytes.len() as u32).encode(buf);
    buf.extend_from_slice(bytes);
}

/// Decode raw bytes written by [`encode_bytes`].
pub fn decode_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>> {
    let len = u32::decode(r)? as usize;
    Ok(r.take(len)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(1234u16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-2.25f64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("hello dOpenCL".to_string());
        roundtrip("ünïcödé ✓".to_string());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3, 4]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u32, "x".to_string()));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip(vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(matches!(u32::from_bytes(&bytes), Err(GcfError::Codec(_))));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = 5u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..4]).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        // Claims 2^32 - 1 elements but carries none: fails on the first
        // element instead of trusting the count.
        assert!(Vec::<u64>::from_bytes(&u32::MAX.to_bytes()).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
    }

    #[test]
    fn invalid_option_tag_rejected() {
        assert!(Option::<u8>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&buf).is_err());
    }

    #[test]
    fn bytes_helpers_roundtrip() {
        let data = vec![9u8, 8, 7, 6];
        let mut buf = Vec::new();
        encode_bytes(&data, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_bytes(&mut r).unwrap(), data);
        assert!(r.is_empty());
    }
}
