//! Byte-level wire primitives: a little-endian writer/reader pair, the
//! payload checksum, and [`ProtocolError`].
//!
//! Everything on the wire is explicit little-endian with fixed widths —
//! no varints, no padding, no host-order leaks. Floats travel as their
//! IEEE-754 bit patterns ([`ByteWriter::put_f64_bits`]) so a plan cost
//! decoded on the far side is *bit-identical* to the one the planner
//! produced, which is what lets the remote-equivalence suite compare
//! costs with `to_bits` equality instead of an epsilon.
//!
//! The reader is hardened against hostile input: every read is
//! bounds-checked against the actual buffer, and length-prefixed
//! containers validate the prefix against the bytes *remaining* before
//! allocating, so a forged length can never make the decoder allocate
//! more than the frame it was handed (see [`ByteReader::vec_len`]).

use racod_fault::{fnv1a, fold32};
use std::fmt;

/// The 32-bit payload checksum carried in every frame header: FNV-1a
/// folded onto itself so both halves of the hash contribute.
pub fn frame_checksum(payload: &[u8]) -> u32 {
    fold32(fnv1a(payload))
}

/// Why a frame or payload failed to decode. Every malformed input maps to
/// one of these — the decoder never panics and never allocates beyond the
/// bytes it was given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer ended before a fixed-width read completed.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The frame header's magic bytes are wrong (not a racod-net peer, or
    /// a corrupted stream).
    BadMagic(u32),
    /// The peer speaks a protocol version we do not.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// The header announced a payload larger than the configured maximum.
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// The receiver's limit.
        max: u32,
    },
    /// The payload checksum did not match the header's.
    ChecksumMismatch {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum of the received payload.
        actual: u32,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeds the bytes remaining in the frame.
    BadLength {
        /// Which container was being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload had bytes left over after the message decoded.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: needed {needed} bytes, have {have}")
            }
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload {len} exceeds limit {max}")
            }
            ProtocolError::ChecksumMismatch { expected, actual } => {
                write!(f, "payload checksum {actual:#010x} != header {expected:#010x}")
            }
            ProtocolError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            ProtocolError::BadLength { what, len } => {
                write!(f, "{what} length {len} exceeds remaining payload")
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Little-endian byte sink for payload encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32_bits(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len().min(u32::MAX as usize) as u32);
        self.buf.extend_from_slice(&s.as_bytes()[..s.len().min(u32::MAX as usize)]);
    }
}

/// Bounds-checked little-endian reader over a payload slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ProtocolError::TrailingBytes { extra }),
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { what, needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32_bits(&mut self, what: &'static str) -> Result<f32, ProtocolError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64_bits(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `bool` byte (anything nonzero is `true`).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, ProtocolError> {
        Ok(self.u8(what)? != 0)
    }

    /// Reads a u32 length prefix for a container of `elem_size`-byte
    /// elements, validating it against the bytes remaining *before* any
    /// allocation happens — a forged prefix can therefore never cost more
    /// memory than the frame itself.
    pub fn vec_len(
        &mut self,
        elem_size: usize,
        what: &'static str,
    ) -> Result<usize, ProtocolError> {
        let len = self.u32(what)? as usize;
        if len.saturating_mul(elem_size.max(1)) > self.remaining() {
            return Err(ProtocolError::BadLength { what, len: len as u64 });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.vec_len(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64_bits(f64::INFINITY);
        w.put_f32_bits(-0.0);
        w.put_bool(true);
        w.put_str("boston");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("e").unwrap(), -42);
        assert_eq!(r.f64_bits("f").unwrap().to_bits(), f64::INFINITY.to_bits());
        assert_eq!(r.f32_bits("g").unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.bool("h").unwrap());
        assert_eq!(r.str("i").unwrap(), "boston");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.u64("x"), Err(ProtocolError::Truncated { needed: 8, have: 3, .. })));
    }

    #[test]
    fn forged_length_prefix_cannot_force_allocation() {
        // A u32::MAX string length with 4 bytes of actual data must be
        // rejected by the remaining-bytes check, not attempted.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(0); // only 4 real bytes follow the prefix
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str("s"), Err(ProtocolError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8("a").unwrap();
        assert_eq!(r.finish(), Err(ProtocolError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = frame_checksum(b"hello");
        assert_eq!(a, frame_checksum(b"hello"));
        assert_ne!(a, frame_checksum(b"hellp"));
        assert_ne!(frame_checksum(b""), frame_checksum(b"\0"));
    }
}
