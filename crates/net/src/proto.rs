//! The racod-net message layer: a versioned 16-byte frame header and the
//! payload codecs for every message the planning fleet speaks.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic     0x4E434152 ("RACN" as little-endian bytes)
//!      4     1  version   PROTO_VERSION (1)
//!      5     1  kind      message kind (MsgKind)
//!      6     2  flags     reserved, must be 0
//!      8     4  len       payload length in bytes
//!     12     4  checksum  FNV-1a of the payload, folded to 32 bits
//!     16   len  payload   little-endian fields, see each codec
//! ```
//!
//! A receiver validates magic → version → kind → length (against its
//! configured maximum, *before* allocating) → checksum, in that order, and
//! answers any violation by dropping the connection — a stream that has
//! desynchronized once cannot be trusted to frame correctly again.
//!
//! This module holds what is the network's alone: the frame header,
//! [`Message`], the full `Outcome`/`Rejected` answers, metrics and shard
//! statistics. The byte primitives and the layouts of server-owned types
//! (cells, durations, `GridDelta2`, the whole `PlanRequest`) live in
//! [`racod_server::wire`], shared with the trace log.

use racod_grid::GridDelta2;
use racod_server::wire::{
    frame_checksum, get_cell2, get_cell3, get_deltas, get_duration, get_request, put_cell2,
    put_cell3, put_deltas, put_duration, put_request, ByteReader, ByteWriter, ProtocolError,
};
use racod_server::{
    LatencyHistogram, Outcome, PlanRequest, PlanResponse, Planned, PlannedPath, Rejected,
    ServerMetrics, TimeoutStage,
};

/// Frame magic: the bytes `RACN` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RACN");
/// Current protocol version. Peers reject frames from other versions.
pub const PROTO_VERSION: u8 = 1;
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;
/// Default cap on payload size. Generous for plan paths (a 10k-state 3D
/// path is ~240 KiB) while bounding what a hostile header can demand.
pub const DEFAULT_MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Message kinds, one per frame `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Client → server: plan request.
    PlanReq = 1,
    /// Server → client: plan result (rejection or outcome).
    PlanResp = 2,
    /// Client → server: metrics snapshot request.
    MetricsReq = 3,
    /// Server → client: metrics snapshot.
    MetricsResp = 4,
    /// Client → server: liveness/drain probe.
    HealthReq = 5,
    /// Server → client: health state.
    HealthResp = 6,
    /// Admin → server: begin graceful drain.
    DrainReq = 7,
    /// Server → admin: drain acknowledged.
    DrainResp = 8,
    /// Client → router/server: per-shard routing statistics.
    ShardStatsReq = 9,
    /// Router/server → client: per-shard routing statistics.
    ShardStatsResp = 10,
    /// Client → server: apply occupancy deltas to a live 2D map.
    MapDeltaReq = 11,
    /// Server → client: delta application result.
    MapDeltaResp = 12,
}

impl MsgKind {
    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            1 => MsgKind::PlanReq,
            2 => MsgKind::PlanResp,
            3 => MsgKind::MetricsReq,
            4 => MsgKind::MetricsResp,
            5 => MsgKind::HealthReq,
            6 => MsgKind::HealthResp,
            7 => MsgKind::DrainReq,
            8 => MsgKind::DrainResp,
            9 => MsgKind::ShardStatsReq,
            10 => MsgKind::ShardStatsResp,
            11 => MsgKind::MapDeltaReq,
            12 => MsgKind::MapDeltaResp,
            other => return Err(ProtocolError::BadKind(other)),
        })
    }
}

/// A backend's health as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// The server has begun graceful drain: it answers probes but rejects
    /// new plan requests, and the router routes around it.
    pub draining: bool,
    /// Admitted-but-unfinished requests right now.
    pub in_system: u64,
    /// Requests admitted over the server's lifetime.
    pub accepted: u64,
    /// Requests completed with a planner result over the lifetime.
    pub completed: u64,
}

/// Availability of one shard as seen by the router (or by a netd about
/// itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Health probes failing; no traffic routed.
    Down = 0,
    /// Healthy and serving.
    Up = 1,
    /// Draining: answers probes, refuses new plans; routed around.
    Draining = 2,
}

impl ShardState {
    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => ShardState::Down,
            1 => ShardState::Up,
            2 => ShardState::Draining,
            tag => return Err(ProtocolError::BadTag { what: "ShardState", tag }),
        })
    }
}

/// Per-shard routing statistics (the router's view of one backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// Backend address.
    pub addr: String,
    /// Last probed availability.
    pub state: ShardState,
    /// Plan requests routed to this shard.
    pub routed: u64,
    /// Responses relayed successfully.
    pub completed: u64,
    /// Transport errors talking to the shard (connect/send/recv).
    pub errors: u64,
    /// Requests refused at the router because the shard's bounded
    /// in-flight queue was full (honest `QueueFull` backpressure).
    pub queue_full: u64,
    /// Requests answered `Lost` because the shard died after the request
    /// was delivered (execution state unknown — never silently retried).
    pub lost: u64,
    /// Requests that failed over to this shard from an unavailable
    /// ring-primary.
    pub failovers: u64,
    /// Whether this shard's circuit breaker currently denies native
    /// routing.
    pub breaker_open: bool,
}

/// A wire-transportable snapshot of one server's [`ServerMetrics`]:
/// `(name, value)` counter pairs plus raw histograms. Names travel with
/// the values so fleets can mix server versions — unknown counters are
/// dropped on decode instead of shifting every later field.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsFrame {
    /// Counter names and values, in the server's stable order.
    pub counters: Vec<(String, u64)>,
    /// Histogram names with raw bucket counts, sum, and max (µs).
    pub hists: Vec<(String, Vec<u64>, u64, u64)>,
}

impl MetricsFrame {
    /// Snapshots live metrics into a transportable frame.
    pub fn snapshot(m: &ServerMetrics) -> Self {
        use std::sync::atomic::Ordering;
        let counters = m
            .counters()
            .iter()
            .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let hists = m
            .histograms()
            .iter()
            .map(|(name, h)| {
                let buckets =
                    (0..LatencyHistogram::NUM_BUCKETS).map(|i| h.bucket_count(i)).collect();
                (name.to_string(), buckets, h.sum_us(), h.max_us())
            })
            .collect();
        MetricsFrame { counters, hists }
    }

    /// Rebuilds a `ServerMetrics` from the frame. Counter names that the
    /// local build does not know are ignored.
    pub fn restore(&self) -> ServerMetrics {
        use std::sync::atomic::Ordering;
        let m = ServerMetrics::new();
        for (name, value) in &self.counters {
            if let Some((_, c)) = m.counters().iter().find(|(n, _)| n == name) {
                c.store(*value, Ordering::Relaxed);
            }
        }
        for (name, buckets, sum_us, max_us) in &self.hists {
            if let Some((_, h)) = m.histograms().iter().find(|(n, _)| n == name) {
                h.merge(&LatencyHistogram::from_raw(buckets, *sum_us, *max_us));
            }
        }
        m
    }
}

/// The terminal wire answer to one plan request: the submission was either
/// rejected at admission or ran to a terminal [`Outcome`].
#[derive(Debug, Clone)]
pub enum WireResult {
    /// Not admitted.
    Rejected(Rejected),
    /// Admitted and resolved.
    Done(PlanResponse),
}

/// Every message racod-net peers exchange.
#[derive(Debug, Clone)]
pub enum Message {
    /// Plan request; `corr` correlates the response on this connection.
    PlanReq {
        /// Client-chosen correlation id, echoed in the response.
        corr: u64,
        /// The request (the `interrupt` field never travels; servers build
        /// their own from the deadline).
        req: PlanRequest,
    },
    /// Plan answer.
    PlanResp {
        /// Echo of the request's correlation id.
        corr: u64,
        /// Rejection or terminal outcome.
        result: WireResult,
    },
    /// Ask for a metrics snapshot.
    MetricsReq,
    /// A metrics snapshot (a router answers with the fleet merge).
    MetricsResp(MetricsFrame),
    /// Ask for health.
    HealthReq,
    /// Health state.
    HealthResp(Health),
    /// Begin graceful drain.
    DrainReq,
    /// Drain acknowledged; `true` once draining.
    DrainResp(bool),
    /// Ask for per-shard stats.
    ShardStatsReq,
    /// Per-shard stats (one entry per backend; a netd reports itself).
    ShardStatsResp(Vec<ShardStat>),
    /// Apply occupancy deltas to a live 2D map.
    MapDeltaReq {
        /// The map to mutate.
        map: String,
        /// Occupancy events, applied in order as one versioned batch.
        deltas: Vec<GridDelta2>,
    },
    /// Delta application result: `Some((new_version, changed_cells))`, or
    /// `None` for an unknown or non-2D map.
    MapDeltaResp(Option<(u64, u64)>),
}

impl Message {
    /// The frame kind byte for this message.
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::PlanReq { .. } => MsgKind::PlanReq,
            Message::PlanResp { .. } => MsgKind::PlanResp,
            Message::MetricsReq => MsgKind::MetricsReq,
            Message::MetricsResp(_) => MsgKind::MetricsResp,
            Message::HealthReq => MsgKind::HealthReq,
            Message::HealthResp(_) => MsgKind::HealthResp,
            Message::DrainReq => MsgKind::DrainReq,
            Message::DrainResp(_) => MsgKind::DrainResp,
            Message::ShardStatsReq => MsgKind::ShardStatsReq,
            Message::ShardStatsResp(_) => MsgKind::ShardStatsResp,
            Message::MapDeltaReq { .. } => MsgKind::MapDeltaReq,
            Message::MapDeltaResp(_) => MsgKind::MapDeltaResp,
        }
    }
}

// ---------------------------------------------------------------------------
// Field codecs (network-only types; the rest are in `racod_server::wire`)
// ---------------------------------------------------------------------------

fn put_rejected(w: &mut ByteWriter, rej: &Rejected) {
    match rej {
        Rejected::QueueFull => w.put_u8(0),
        Rejected::UnknownMap(id) => {
            w.put_u8(1);
            w.put_str(id.as_str());
        }
        Rejected::DimensionMismatch => w.put_u8(2),
        Rejected::DeadlineInfeasible { estimated_wait, deadline } => {
            w.put_u8(3);
            put_duration(w, *estimated_wait);
            put_duration(w, *deadline);
        }
        Rejected::ShuttingDown => w.put_u8(4),
        Rejected::InvalidRequest => w.put_u8(5),
    }
}

fn get_rejected(r: &mut ByteReader<'_>) -> Result<Rejected, ProtocolError> {
    Ok(match r.u8("Rejected")? {
        0 => Rejected::QueueFull,
        1 => Rejected::UnknownMap(r.str("map id")?.into()),
        2 => Rejected::DimensionMismatch,
        3 => Rejected::DeadlineInfeasible {
            estimated_wait: get_duration(r, "estimated_wait")?,
            deadline: get_duration(r, "deadline")?,
        },
        4 => Rejected::ShuttingDown,
        5 => Rejected::InvalidRequest,
        tag => return Err(ProtocolError::BadTag { what: "Rejected", tag }),
    })
}

fn put_outcome(w: &mut ByteWriter, outcome: &Outcome) {
    match outcome {
        Outcome::Planned(p) => {
            w.put_u8(0);
            match &p.path {
                PlannedPath::P2(path) => {
                    w.put_u8(0);
                    match path {
                        None => w.put_u32(u32::MAX),
                        Some(cells) => {
                            w.put_u32(cells.len().min((u32::MAX - 1) as usize) as u32);
                            for c in cells {
                                put_cell2(w, *c);
                            }
                        }
                    }
                }
                PlannedPath::P3(path) => {
                    w.put_u8(1);
                    match path {
                        None => w.put_u32(u32::MAX),
                        Some(cells) => {
                            w.put_u32(cells.len().min((u32::MAX - 1) as usize) as u32);
                            for c in cells {
                                put_cell3(w, *c);
                            }
                        }
                    }
                }
            }
            w.put_f64_bits(p.cost);
            w.put_u64(p.expansions);
            w.put_u64(p.sim_cycles);
            put_duration(w, p.queue_wait);
            put_duration(w, p.service_time);
            w.put_bool(p.warm_start);
        }
        Outcome::TimedOut { queued_for, stage } => {
            w.put_u8(1);
            put_duration(w, *queued_for);
            w.put_u8(match stage {
                TimeoutStage::Queued => 0,
                TimeoutStage::MidSearch => 1,
            });
        }
        Outcome::Cancelled => w.put_u8(2),
        Outcome::Panicked { message } => {
            w.put_u8(3);
            w.put_str(message);
        }
        Outcome::Lost => w.put_u8(4),
    }
}

fn get_outcome(r: &mut ByteReader<'_>) -> Result<Outcome, ProtocolError> {
    Ok(match r.u8("Outcome")? {
        0 => {
            let dim = r.u8("PlannedPath")?;
            let n = r.u32("path length")?;
            let path = match (dim, n) {
                (0, u32::MAX) => PlannedPath::P2(None),
                (0, n) => {
                    // Bound the allocation by the bytes actually present.
                    if (n as usize).saturating_mul(16) > r.remaining() {
                        return Err(ProtocolError::BadLength { what: "path", len: n as u64 });
                    }
                    let mut cells = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        cells.push(get_cell2(r)?);
                    }
                    PlannedPath::P2(Some(cells))
                }
                (1, u32::MAX) => PlannedPath::P3(None),
                (1, n) => {
                    if (n as usize).saturating_mul(24) > r.remaining() {
                        return Err(ProtocolError::BadLength { what: "path", len: n as u64 });
                    }
                    let mut cells = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        cells.push(get_cell3(r)?);
                    }
                    PlannedPath::P3(Some(cells))
                }
                (tag, _) => return Err(ProtocolError::BadTag { what: "PlannedPath", tag }),
            };
            Outcome::Planned(Planned {
                path,
                cost: r.f64_bits("cost")?,
                expansions: r.u64("expansions")?,
                sim_cycles: r.u64("sim_cycles")?,
                queue_wait: get_duration(r, "queue_wait")?,
                service_time: get_duration(r, "service_time")?,
                warm_start: r.bool("warm_start")?,
            })
        }
        1 => Outcome::TimedOut {
            queued_for: get_duration(r, "queued_for")?,
            stage: match r.u8("TimeoutStage")? {
                0 => TimeoutStage::Queued,
                1 => TimeoutStage::MidSearch,
                tag => return Err(ProtocolError::BadTag { what: "TimeoutStage", tag }),
            },
        },
        2 => Outcome::Cancelled,
        3 => Outcome::Panicked { message: r.str("panic message")? },
        4 => Outcome::Lost,
        tag => return Err(ProtocolError::BadTag { what: "Outcome", tag }),
    })
}

fn put_metrics(w: &mut ByteWriter, m: &MetricsFrame) {
    w.put_u32(m.counters.len().min(u32::MAX as usize) as u32);
    for (name, value) in &m.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(m.hists.len().min(u32::MAX as usize) as u32);
    for (name, buckets, sum_us, max_us) in &m.hists {
        w.put_str(name);
        w.put_u32(buckets.len().min(u32::MAX as usize) as u32);
        for b in buckets {
            w.put_u64(*b);
        }
        w.put_u64(*sum_us);
        w.put_u64(*max_us);
    }
}

fn get_metrics(r: &mut ByteReader<'_>) -> Result<MetricsFrame, ProtocolError> {
    // Counter entries are at least 12 bytes (4-byte name prefix + value).
    let n = r.vec_len(12, "metrics counters")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("counter name")?;
        let value = r.u64("counter value")?;
        counters.push((name, value));
    }
    let n = r.vec_len(24, "metrics histograms")?;
    let mut hists = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("histogram name")?;
        let nb = r.vec_len(8, "histogram buckets")?;
        let mut buckets = Vec::with_capacity(nb);
        for _ in 0..nb {
            buckets.push(r.u64("bucket")?);
        }
        let sum_us = r.u64("sum_us")?;
        let max_us = r.u64("max_us")?;
        hists.push((name, buckets, sum_us, max_us));
    }
    Ok(MetricsFrame { counters, hists })
}

fn put_shard_stat(w: &mut ByteWriter, s: &ShardStat) {
    w.put_str(&s.addr);
    w.put_u8(s.state as u8);
    w.put_u64(s.routed);
    w.put_u64(s.completed);
    w.put_u64(s.errors);
    w.put_u64(s.queue_full);
    w.put_u64(s.lost);
    w.put_u64(s.failovers);
    w.put_bool(s.breaker_open);
}

fn get_shard_stat(r: &mut ByteReader<'_>) -> Result<ShardStat, ProtocolError> {
    Ok(ShardStat {
        addr: r.str("shard addr")?,
        state: ShardState::from_u8(r.u8("ShardState")?)?,
        routed: r.u64("routed")?,
        completed: r.u64("completed")?,
        errors: r.u64("errors")?,
        queue_full: r.u64("queue_full")?,
        lost: r.u64("lost")?,
        failovers: r.u64("failovers")?,
        breaker_open: r.bool("breaker_open")?,
    })
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Encodes a message payload (no header).
pub fn encode_payload(msg: &Message) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match msg {
        Message::PlanReq { corr, req } => {
            w.put_u64(*corr);
            put_request(&mut w, req);
        }
        Message::PlanResp { corr, result } => {
            w.put_u64(*corr);
            match result {
                WireResult::Rejected(rej) => {
                    w.put_u8(0);
                    put_rejected(&mut w, rej);
                }
                WireResult::Done(resp) => {
                    w.put_u8(1);
                    w.put_u64(resp.id);
                    w.put_u64(resp.worker.min(u64::MAX as usize) as u64);
                    put_outcome(&mut w, &resp.outcome);
                }
            }
        }
        Message::MetricsReq | Message::HealthReq | Message::DrainReq | Message::ShardStatsReq => {}
        Message::MetricsResp(m) => put_metrics(&mut w, m),
        Message::HealthResp(h) => {
            w.put_bool(h.draining);
            w.put_u64(h.in_system);
            w.put_u64(h.accepted);
            w.put_u64(h.completed);
        }
        Message::DrainResp(draining) => w.put_bool(*draining),
        Message::ShardStatsResp(stats) => {
            w.put_u32(stats.len().min(u32::MAX as usize) as u32);
            for s in stats {
                put_shard_stat(&mut w, s);
            }
        }
        Message::MapDeltaReq { map, deltas } => {
            w.put_str(map);
            put_deltas(&mut w, deltas);
        }
        Message::MapDeltaResp(result) => match result {
            None => w.put_u8(0),
            Some((version, changed)) => {
                w.put_u8(1);
                w.put_u64(*version);
                w.put_u64(*changed);
            }
        },
    }
    w.into_bytes()
}

/// Decodes a payload of the given kind. The whole payload must be
/// consumed; trailing bytes are an error.
pub fn decode_payload(kind: MsgKind, payload: &[u8]) -> Result<Message, ProtocolError> {
    let mut r = ByteReader::new(payload);
    let msg = match kind {
        MsgKind::PlanReq => {
            let corr = r.u64("corr")?;
            Message::PlanReq { corr, req: get_request(&mut r)? }
        }
        MsgKind::PlanResp => {
            let corr = r.u64("corr")?;
            let result = match r.u8("WireResult")? {
                0 => WireResult::Rejected(get_rejected(&mut r)?),
                1 => {
                    let id = r.u64("response id")?;
                    let worker = r.u64("worker")? as usize;
                    let outcome = get_outcome(&mut r)?;
                    WireResult::Done(PlanResponse { id, outcome, worker })
                }
                tag => return Err(ProtocolError::BadTag { what: "WireResult", tag }),
            };
            Message::PlanResp { corr, result }
        }
        MsgKind::MetricsReq => Message::MetricsReq,
        MsgKind::MetricsResp => Message::MetricsResp(get_metrics(&mut r)?),
        MsgKind::HealthReq => Message::HealthReq,
        MsgKind::HealthResp => Message::HealthResp(Health {
            draining: r.bool("draining")?,
            in_system: r.u64("in_system")?,
            accepted: r.u64("accepted")?,
            completed: r.u64("completed")?,
        }),
        MsgKind::DrainReq => Message::DrainReq,
        MsgKind::DrainResp => Message::DrainResp(r.bool("draining")?),
        MsgKind::ShardStatsReq => Message::ShardStatsReq,
        MsgKind::ShardStatsResp => {
            // Each stat is at least 4+1+6*8+1 bytes.
            let n = r.vec_len(54, "shard stats")?;
            let mut stats = Vec::with_capacity(n);
            for _ in 0..n {
                stats.push(get_shard_stat(&mut r)?);
            }
            Message::ShardStatsResp(stats)
        }
        MsgKind::MapDeltaReq => {
            Message::MapDeltaReq { map: r.str("map id")?, deltas: get_deltas(&mut r)? }
        }
        MsgKind::MapDeltaResp => Message::MapDeltaResp(match r.u8("MapDeltaResp")? {
            0 => None,
            1 => Some((r.u64("map version")?, r.u64("changed cells")?)),
            tag => return Err(ProtocolError::BadTag { what: "MapDeltaResp", tag }),
        }),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes a full frame: header + payload.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(PROTO_VERSION);
    out.push(msg.kind() as u8);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Message kind.
    pub kind: MsgKind,
    /// Payload length in bytes.
    pub len: u32,
    /// Payload checksum the header promises.
    pub checksum: u32,
}

/// Parses and validates the 16 header bytes. `max_frame` bounds the
/// announced payload length *before* any allocation.
pub fn decode_header(
    bytes: &[u8; HEADER_LEN],
    max_frame: u32,
) -> Result<FrameHeader, ProtocolError> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let version = bytes[4];
    if version != PROTO_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let kind = MsgKind::from_u8(bytes[5])?;
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if len > max_frame {
        return Err(ProtocolError::FrameTooLarge { len, max: max_frame });
    }
    let checksum = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    Ok(FrameHeader { kind, len, checksum })
}

/// Verifies a received payload against its header's checksum.
pub fn verify_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), ProtocolError> {
    let actual = frame_checksum(payload);
    if actual != header.checksum {
        return Err(ProtocolError::ChecksumMismatch { expected: header.checksum, actual });
    }
    Ok(())
}

/// Decodes one complete frame from a byte slice (tests and fuzzing; the
/// connection layer streams header and payload separately). Returns the
/// message and the total bytes consumed.
pub fn decode_frame(bytes: &[u8], max_frame: u32) -> Result<(Message, usize), ProtocolError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            what: "frame header",
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let header = decode_header(bytes[..HEADER_LEN].try_into().unwrap(), max_frame)?;
    let total = HEADER_LEN + header.len as usize;
    if bytes.len() < total {
        return Err(ProtocolError::Truncated {
            what: "frame payload",
            needed: total,
            have: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..total];
    verify_payload(&header, payload)?;
    Ok((decode_payload(header.kind, payload)?, total))
}
