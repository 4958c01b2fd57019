//! The one byte codec: a little-endian writer/reader pair, the 32-bit
//! payload checksum, [`ProtocolError`], and the field layouts of the
//! types this crate owns ([`PlanRequest`] and its parts, `GridDelta2`).
//!
//! Both serialisations of a request go through here — `racod-net`'s
//! frames (which re-export this module as `racod_net::wire`) and the
//! [`crate::trace`] log — so a request is logged in exactly the bytes it
//! travelled in, by construction rather than by discipline.
//!
//! Everything is explicit little-endian with fixed widths — no varints,
//! no padding, no host-order leaks. Floats travel as their IEEE-754 bit
//! patterns ([`ByteWriter::put_f64_bits`]) so a plan cost decoded on the
//! far side is *bit-identical* to the one the planner produced, which is
//! what lets the remote-equivalence suite compare costs with `to_bits`
//! equality instead of an epsilon. Durations are `u64` microseconds;
//! where one is optional, `u64::MAX` encodes `None`.
//!
//! The reader is hardened against hostile input: every read is
//! bounds-checked against the actual buffer, and length-prefixed
//! containers validate the prefix against the bytes *remaining* before
//! allocating, so a forged length can never make the decoder allocate
//! more than the frame it was handed (see [`ByteReader::vec_len`]).
//!
//! The primitives `racod-net`'s codecs call per field are `#[inline]`:
//! they are now in another crate, and without the hint `point_wire`
//! measures ~3 % slower than when this file lived beside its callers.

use crate::request::{PlanRequest, Platform, Priority, Workload};
use racod_fault::{fnv1a, fold32};
use racod_geom::{Cell2, Cell3};
use racod_grid::GridDelta2;
use racod_search::AstarConfig;
use racod_sim::footprint::OrientationPolicy;
use racod_sim::{Footprint2, Footprint3};
use std::fmt;
use std::time::Duration;

/// The 32-bit payload checksum carried in every wire frame header and
/// every trace record frame: FNV-1a folded onto itself so both halves of
/// the hash contribute.
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
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian (two's complement).
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32_bits(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    #[inline]
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
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    #[inline]
    pub fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ProtocolError::TrailingBytes { extra }),
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { what, needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, what: &'static str) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32_bits(&mut self, what: &'static str) -> Result<f32, ProtocolError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64_bits(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `bool` byte (anything nonzero is `true`).
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, ProtocolError> {
        Ok(self.u8(what)? != 0)
    }

    /// Reads a u32 length prefix for a container of `elem_size`-byte
    /// elements, validating it against the bytes remaining *before* any
    /// allocation happens — a forged prefix can therefore never cost more
    /// memory than the frame itself.
    #[inline]
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
    #[inline]
    pub fn str(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.vec_len(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }
}

// ---------------------------------------------------------------------------
// Field codecs of server-owned types
// ---------------------------------------------------------------------------

/// `None` sentinel for optional microsecond durations.
const NO_DURATION: u64 = u64::MAX;

/// A duration as `u64` microseconds (clamped below the `None` sentinel).
#[inline]
pub fn put_duration(w: &mut ByteWriter, d: Duration) {
    w.put_u64(d.as_micros().min((NO_DURATION - 1) as u128) as u64);
}

/// Reads a [`put_duration`] field.
#[inline]
pub fn get_duration(r: &mut ByteReader<'_>, what: &'static str) -> Result<Duration, ProtocolError> {
    Ok(Duration::from_micros(r.u64(what)?))
}

fn put_opt_duration(w: &mut ByteWriter, d: Option<Duration>) {
    match d {
        None => w.put_u64(NO_DURATION),
        Some(d) => put_duration(w, d),
    }
}

fn get_opt_duration(
    r: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<Option<Duration>, ProtocolError> {
    let us = r.u64(what)?;
    Ok((us != NO_DURATION).then(|| Duration::from_micros(us)))
}

/// A 2D cell: `x`, `y` as `i64`.
#[inline]
pub fn put_cell2(w: &mut ByteWriter, c: Cell2) {
    w.put_i64(c.x);
    w.put_i64(c.y);
}

/// Reads a [`put_cell2`] field.
#[inline]
pub fn get_cell2(r: &mut ByteReader<'_>) -> Result<Cell2, ProtocolError> {
    Ok(Cell2::new(r.i64("cell2.x")?, r.i64("cell2.y")?))
}

/// A 3D cell: `x`, `y`, `z` as `i64`.
#[inline]
pub fn put_cell3(w: &mut ByteWriter, c: Cell3) {
    w.put_i64(c.x);
    w.put_i64(c.y);
    w.put_i64(c.z);
}

/// Reads a [`put_cell3`] field.
#[inline]
pub fn get_cell3(r: &mut ByteReader<'_>) -> Result<Cell3, ProtocolError> {
    Ok(Cell3::new(r.i64("cell3.x")?, r.i64("cell3.y")?, r.i64("cell3.z")?))
}

fn put_policy(w: &mut ByteWriter, p: OrientationPolicy) {
    w.put_u8(match p {
        OrientationPolicy::AxisAligned => 0,
        OrientationPolicy::TowardGoal => 1,
    });
}

fn get_policy(r: &mut ByteReader<'_>) -> Result<OrientationPolicy, ProtocolError> {
    match r.u8("OrientationPolicy")? {
        0 => Ok(OrientationPolicy::AxisAligned),
        1 => Ok(OrientationPolicy::TowardGoal),
        tag => Err(ProtocolError::BadTag { what: "OrientationPolicy", tag }),
    }
}

/// A whole [`PlanRequest`]: map string, workload (tag 0–3), the five
/// `AstarConfig` fields, platform (tag 0–2, `u32` counts, `u32::MAX` = no
/// runahead), priority (tag 0–2), optional deadline. A `PlanReq` frame is
/// `corr` + these bytes; a trace Plan record embeds them unchanged.
pub fn put_request(w: &mut ByteWriter, req: &PlanRequest) {
    w.put_str(req.map.as_str());
    match &req.workload {
        Workload::Plan2 { start, goal, footprint } => {
            w.put_u8(0);
            put_cell2(w, *start);
            put_cell2(w, *goal);
            w.put_f32_bits(footprint.length);
            w.put_f32_bits(footprint.width);
            put_policy(w, footprint.policy);
        }
        Workload::Plan3 { start, goal, footprint } => {
            w.put_u8(1);
            put_cell3(w, *start);
            put_cell3(w, *goal);
            w.put_f32_bits(footprint.length);
            w.put_f32_bits(footprint.width);
            w.put_f32_bits(footprint.height);
            put_policy(w, footprint.policy);
        }
        Workload::Poison => w.put_u8(2),
        Workload::PoisonWorker => w.put_u8(3),
    }
    // AstarConfig: the interrupt handle never travels — the serving side
    // builds its own from the deadline below.
    w.put_f64_bits(req.astar.weight);
    w.put_bool(req.astar.record_expansions);
    w.put_bool(req.astar.record_demand_profile);
    w.put_u64(req.astar.max_expansions);
    w.put_u64(req.astar.poll_interval);
    match req.platform {
        Platform::SimSoftware { threads, runahead } => {
            w.put_u8(0);
            w.put_u32(threads.min(u32::MAX as usize) as u32);
            w.put_u32(runahead.map_or(u32::MAX, |r| r.min((u32::MAX - 1) as usize) as u32));
        }
        Platform::Racod { units } => {
            w.put_u8(1);
            w.put_u32(units.min(u32::MAX as usize) as u32);
        }
        Platform::Threads { threads, runahead } => {
            w.put_u8(2);
            w.put_u32(threads.min(u32::MAX as usize) as u32);
            w.put_u32(runahead.min(u32::MAX as usize) as u32);
        }
    }
    w.put_u8(match req.priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    });
    put_opt_duration(w, req.deadline);
}

/// Reads a [`put_request`] field (the interrupt handle comes back `None`).
pub fn get_request(r: &mut ByteReader<'_>) -> Result<PlanRequest, ProtocolError> {
    let map = r.str("map id")?;
    let workload = match r.u8("Workload")? {
        0 => {
            let start = get_cell2(r)?;
            let goal = get_cell2(r)?;
            let footprint = Footprint2 {
                length: r.f32_bits("footprint.length")?,
                width: r.f32_bits("footprint.width")?,
                policy: get_policy(r)?,
            };
            Workload::Plan2 { start, goal, footprint }
        }
        1 => {
            let start = get_cell3(r)?;
            let goal = get_cell3(r)?;
            let footprint = Footprint3 {
                length: r.f32_bits("footprint.length")?,
                width: r.f32_bits("footprint.width")?,
                height: r.f32_bits("footprint.height")?,
                policy: get_policy(r)?,
            };
            Workload::Plan3 { start, goal, footprint }
        }
        2 => Workload::Poison,
        3 => Workload::PoisonWorker,
        tag => return Err(ProtocolError::BadTag { what: "Workload", tag }),
    };
    let astar = AstarConfig {
        weight: r.f64_bits("astar.weight")?,
        record_expansions: r.bool("astar.record_expansions")?,
        record_demand_profile: r.bool("astar.record_demand_profile")?,
        max_expansions: r.u64("astar.max_expansions")?,
        interrupt: None,
        poll_interval: r.u64("astar.poll_interval")?,
    };
    let platform = match r.u8("Platform")? {
        0 => {
            let threads = r.u32("platform.threads")? as usize;
            let runahead = r.u32("platform.runahead")?;
            Platform::SimSoftware {
                threads,
                runahead: (runahead != u32::MAX).then_some(runahead as usize),
            }
        }
        1 => Platform::Racod { units: r.u32("platform.units")? as usize },
        2 => Platform::Threads {
            threads: r.u32("platform.threads")? as usize,
            runahead: r.u32("platform.runahead")? as usize,
        },
        tag => return Err(ProtocolError::BadTag { what: "Platform", tag }),
    };
    let priority = match r.u8("Priority")? {
        0 => Priority::High,
        1 => Priority::Normal,
        2 => Priority::Low,
        tag => return Err(ProtocolError::BadTag { what: "Priority", tag }),
    };
    let deadline = get_opt_duration(r, "deadline")?;
    Ok(PlanRequest { map: map.into(), workload, astar, platform, priority, deadline })
}

/// A delta batch: `u32` count, then per delta a tag (0 appear, 1
/// disappear, 2 move) and its one or two cells.
pub fn put_deltas(w: &mut ByteWriter, deltas: &[GridDelta2]) {
    w.put_u32(deltas.len().min(u32::MAX as usize) as u32);
    for &d in deltas {
        match d {
            GridDelta2::Appear { cell } => {
                w.put_u8(0);
                put_cell2(w, cell);
            }
            GridDelta2::Disappear { cell } => {
                w.put_u8(1);
                put_cell2(w, cell);
            }
            GridDelta2::Move { from, to } => {
                w.put_u8(2);
                put_cell2(w, from);
                put_cell2(w, to);
            }
        }
    }
}

/// Reads a [`put_deltas`] field.
pub fn get_deltas(r: &mut ByteReader<'_>) -> Result<Vec<GridDelta2>, ProtocolError> {
    // Each delta is at least a tag byte plus one cell.
    let n = r.vec_len(17, "map deltas")?;
    let mut deltas = Vec::with_capacity(n);
    for _ in 0..n {
        deltas.push(match r.u8("GridDelta2")? {
            0 => GridDelta2::Appear { cell: get_cell2(r)? },
            1 => GridDelta2::Disappear { cell: get_cell2(r)? },
            2 => GridDelta2::Move { from: get_cell2(r)?, to: get_cell2(r)? },
            tag => return Err(ProtocolError::BadTag { what: "GridDelta2", tag }),
        });
    }
    Ok(deltas)
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
