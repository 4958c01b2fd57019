//! Deterministic trace record/replay: a crash-safe, append-only binary
//! log that turns every served request into a reproducible test.
//!
//! Records are encoded with [`crate::wire`] — the same little-endian
//! writer/reader, checksum and field layouts the network frames use — so
//! a Plan record is `[1][id][tenant]` + the wire's `PlanRequest` bytes +
//! the version fences + an outcome summary.
//!
//! Layout:
//!
//! ```text
//! [u32 magic "RTRC"][u8 version]          file preamble
//! [u32 len][u32 checksum][header payload] first record: TraceHeader
//! [u32 len][u32 checksum][event payload]  plan / delta / rejection ...
//! ```
//!
//! * **Crash safety** — the writer thread appends one fully framed record
//!   per `write_all`, so a crash (or `kill -9`) can tear at most the final
//!   record. The reader detects the torn tail by length/checksum and drops
//!   it cleanly, recovering every previously durable record
//!   ([`read_trace_bytes`]).
//! * **Never stalls the hot path** — [`TraceRecorder::record`] is a
//!   bounded-channel `try_send`; a full buffer increments the
//!   `trace_dropped` counter instead of blocking a worker or the
//!   dispatcher. The observed queue depth is tracked as
//!   `trace_buffer_high_water`.
//! * **Replayability** — the header carries everything needed to rebuild
//!   the world (`world_seed`, `map_size`), re-create the server shape
//!   (workers, queue, breaker/ALT switches), and re-arm the exact
//!   [`racod_fault::FaultPlan`] seed; each plan record carries the full
//!   request, the map version fence at admission, and the outcome's
//!   canonical cost bits. Delta records pin churn to version boundaries.
//!   `racod-net`'s `replay` module (and the `racod-cli replay` command)
//!   consume this to assert bit-identical outcome sequences.
//! * **Build identification** — the header stamps [`build_id`] (git hash,
//!   detected [`racod_codacc::SimdLevel`], ALT switch) so a
//!   replay mismatch can distinguish "the build changed" from "the build
//!   is nondeterministic".

use crate::metrics::ServerMetrics;
use crate::request::{Outcome, PlanRequest, Planned, PlannedPath};
use crate::wire::{
    frame_checksum, get_deltas, get_request, put_deltas, put_request, ByteReader, ByteWriter,
    ProtocolError,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use racod_grid::GridDelta2;
use racod_search::canonical_cost_2d;
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// File preamble magic: `b"RTRC"` little-endian.
pub const TRACE_MAGIC: u32 = u32::from_le_bytes(*b"RTRC");
/// Current trace format version.
pub const TRACE_VERSION: u8 = 1;

/// The build identifier stamped into trace headers and the `/metrics`
/// page: git revision, runtime-detected SIMD level (respects
/// `RACOD_FORCE_SCALAR`), and the answer-affecting ALT switch. Two runs
/// whose build ids differ are allowed to disagree on replay; two runs with
/// the same id are not.
///
/// The second argument is ignored: it was the removed speculation switch,
/// pinned by `benchmark/src/child.rs`; goes with ROADMAP item 1.
pub fn build_id(alt: bool, _: bool) -> String {
    format!(
        "git:{} simd:{:?} alt:{}",
        env!("RACOD_GIT_HASH"),
        racod_codacc::simd_level(),
        if alt { "on" } else { "off" },
    )
}

/// Recording configuration (see [`crate::ServerConfig::trace`]).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Where the trace file is written (created/truncated at start).
    pub path: PathBuf,
    /// Tenant label stamped on every record this process writes.
    pub tenant: String,
    /// World seed the embedder built its registry from (what replay feeds
    /// `standard_world`). Zero for hand-built registries — such traces
    /// are queryable but not world-reconstructible.
    pub world_seed: u64,
    /// Map size the world was built with.
    pub map_size: u32,
    /// Free-form run annotation stored in the header.
    pub note: String,
    /// Bounded record-buffer capacity between the hot path and the writer
    /// thread. A full buffer drops records (counted), never blocks.
    pub buffer: usize,
}

impl TraceConfig {
    /// A config with defaults for everything but the path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TraceConfig {
            path: path.into(),
            tenant: "default".to_string(),
            world_seed: 0,
            map_size: 0,
            note: String::new(),
            buffer: 4096,
        }
    }
}

/// The first record of every trace: run provenance and everything replay
/// needs to rebuild the serving environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Build identifier of the recording process ([`build_id`]).
    pub build: String,
    /// Tenant label of the recording process.
    pub tenant: String,
    /// World seed (0 = hand-built registry, not replayable).
    pub world_seed: u64,
    /// Map size of the world.
    pub map_size: u32,
    /// Worker thread count of the recording server.
    pub workers: u32,
    /// Admission queue capacity.
    pub queue_capacity: u32,
    /// Dispatcher batch cap.
    pub batch_max: u32,
    /// Seed of the armed fault plan, if chaos injection was on. Replay
    /// re-arms `FaultPlan::from_seed` with this exact value.
    pub fault_seed: Option<u64>,
    /// Whether the accelerated-platform circuit breakers were enabled.
    /// Breaker cooldowns are wall-clock, so a chaos recording made with
    /// breakers live may route differently on replay — replayable chaos
    /// runs record with breakers off (loadgen/netd do this automatically).
    pub breaker: bool,
    /// Whether ALT landmark guidance was enabled.
    pub alt: bool,
    /// Free-form annotation.
    pub note: String,
}

/// Terminal outcome of a recorded request, reduced to its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The plan executed ([`Outcome::Planned`]).
    Planned,
    /// Deadline expired while queued.
    TimedOutQueued,
    /// Deadline expired mid-search.
    TimedOutMidSearch,
    /// Cancelled (queued or mid-search).
    Cancelled,
    /// Execution panicked (isolated).
    Panicked,
    /// Lost to a worker death.
    Lost,
}

impl OutcomeKind {
    /// Classifies a live outcome.
    pub fn of(outcome: &Outcome) -> Self {
        use crate::request::TimeoutStage;
        match outcome {
            Outcome::Planned(_) => OutcomeKind::Planned,
            Outcome::TimedOut { stage: TimeoutStage::Queued, .. } => OutcomeKind::TimedOutQueued,
            Outcome::TimedOut { stage: TimeoutStage::MidSearch, .. } => {
                OutcomeKind::TimedOutMidSearch
            }
            Outcome::Cancelled => OutcomeKind::Cancelled,
            Outcome::Panicked { .. } => OutcomeKind::Panicked,
            Outcome::Lost => OutcomeKind::Lost,
        }
    }

    /// Stable display name (what `racod-cli query --outcome` matches).
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Planned => "planned",
            OutcomeKind::TimedOutQueued => "timed-out-queued",
            OutcomeKind::TimedOutMidSearch => "timed-out-mid-search",
            OutcomeKind::Cancelled => "cancelled",
            OutcomeKind::Panicked => "panicked",
            OutcomeKind::Lost => "lost",
        }
    }

    /// Whether this kind depends on wall-clock timing rather than the
    /// deterministic inputs a replay reproduces (see the determinism
    /// contract in DESIGN.md).
    pub fn timing_dependent(self) -> bool {
        matches!(
            self,
            OutcomeKind::TimedOutQueued | OutcomeKind::TimedOutMidSearch | OutcomeKind::Cancelled
        )
    }

    fn tag(self) -> u8 {
        match self {
            OutcomeKind::Planned => 0,
            OutcomeKind::TimedOutQueued => 1,
            OutcomeKind::TimedOutMidSearch => 2,
            OutcomeKind::Cancelled => 3,
            OutcomeKind::Panicked => 4,
            OutcomeKind::Lost => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ProtocolError> {
        Ok(match tag {
            0 => OutcomeKind::Planned,
            1 => OutcomeKind::TimedOutQueued,
            2 => OutcomeKind::TimedOutMidSearch,
            3 => OutcomeKind::Cancelled,
            4 => OutcomeKind::Panicked,
            5 => OutcomeKind::Lost,
            tag => return Err(ProtocolError::BadTag { what: "OutcomeKind", tag }),
        })
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Ingress queue at capacity (a load artifact — replay skips these).
    QueueFull,
    /// Unknown map id.
    UnknownMap,
    /// Workload dimensionality did not match the map.
    DimensionMismatch,
    /// Shed by the deadline-infeasibility admission controller.
    DeadlineInfeasible,
    /// The server was draining.
    ShuttingDown,
    /// A request parameter was out of range.
    InvalidRequest,
}

impl RejectReason {
    /// Classifies a live rejection.
    pub fn of(r: &crate::request::Rejected) -> Self {
        use crate::request::Rejected;
        match r {
            Rejected::QueueFull => RejectReason::QueueFull,
            Rejected::UnknownMap(_) => RejectReason::UnknownMap,
            Rejected::DimensionMismatch => RejectReason::DimensionMismatch,
            Rejected::DeadlineInfeasible { .. } => RejectReason::DeadlineInfeasible,
            Rejected::ShuttingDown => RejectReason::ShuttingDown,
            Rejected::InvalidRequest => RejectReason::InvalidRequest,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::UnknownMap => "unknown-map",
            RejectReason::DimensionMismatch => "dimension-mismatch",
            RejectReason::DeadlineInfeasible => "deadline-infeasible",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::InvalidRequest => "invalid-request",
        }
    }

    fn tag(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::UnknownMap => 1,
            RejectReason::DimensionMismatch => 2,
            RejectReason::DeadlineInfeasible => 3,
            RejectReason::ShuttingDown => 4,
            RejectReason::InvalidRequest => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ProtocolError> {
        Ok(match tag {
            0 => RejectReason::QueueFull,
            1 => RejectReason::UnknownMap,
            2 => RejectReason::DimensionMismatch,
            3 => RejectReason::DeadlineInfeasible,
            4 => RejectReason::ShuttingDown,
            5 => RejectReason::InvalidRequest,
            tag => return Err(ProtocolError::BadTag { what: "RejectReason", tag }),
        })
    }
}

/// One admitted request: the full request, its version fences, and its
/// terminal outcome reduced to replay-comparable fields.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// Server-assigned request id (also the Completion fault token).
    pub id: u64,
    /// Tenant label of the submitting process.
    pub tenant: String,
    /// The request exactly as submitted. (The log does not carry the
    /// interrupt handle; the server re-derives it from the deadline at
    /// execution, so a record read back has `astar.interrupt == None`.)
    pub req: PlanRequest,
    /// 2D map version at admission — the replay fence: every delta record
    /// for this map with `version <= map_version` is applied before this
    /// request is resubmitted. 0 for 3D maps and unchurned 2D maps.
    pub map_version: u64,
    /// 2D map version when the outcome was emitted. Greater than
    /// `map_version` means a delta landed mid-flight (the worker may have
    /// replanned against the newer snapshot); replay reports these as
    /// potential divergence points.
    pub map_version_done: u64,
    /// Outcome kind.
    pub outcome: OutcomeKind,
    /// Whether a path was found (planned outcomes only).
    pub found: bool,
    /// Path length in states (planned outcomes only).
    pub path_len: u32,
    /// Engine cost bits (`f64::to_bits`; planned outcomes only).
    pub cost_bits: u64,
    /// Canonical cost bits ([`canonical_planned_cost_bits`]) — the
    /// replay-stable cost comparison key, invariant under equal-cost path
    /// substitution (ALT).
    pub canon_cost_bits: u64,
    /// A* expansions (planned outcomes only).
    pub expansions: u64,
    /// Simulated cycles (planned outcomes only; 0 for `Threads`).
    pub sim_cycles: u64,
    /// Queue wait in µs (0 when unknown).
    pub queue_wait_us: u64,
    /// Worker execution time in µs (0 when never dispatched).
    pub service_us: u64,
    /// Submission-to-outcome wall time in µs.
    pub total_us: u64,
    /// Index of the answering worker (`u32::MAX` = scheduler answered).
    pub worker: u32,
}

impl PlanRecord {
    /// A record capturing an admitted request, outcome fields zeroed
    /// until [`finalize`](Self::finalize).
    pub fn pending(id: u64, tenant: &str, req: &PlanRequest, map_version: u64) -> Self {
        PlanRecord {
            id,
            tenant: tenant.to_string(),
            req: req.clone(),
            map_version,
            map_version_done: map_version,
            outcome: OutcomeKind::Lost,
            found: false,
            path_len: 0,
            cost_bits: 0,
            canon_cost_bits: 0,
            expansions: 0,
            sim_cycles: 0,
            queue_wait_us: 0,
            service_us: 0,
            total_us: 0,
            worker: u32::MAX,
        }
    }

    /// Fills the outcome half of the record at terminal-response time.
    pub fn finalize(&mut self, outcome: &Outcome, worker: usize, total: Duration) {
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        self.outcome = OutcomeKind::of(outcome);
        self.total_us = us(total);
        self.worker =
            if worker == usize::MAX { u32::MAX } else { worker.min(u32::MAX as usize) as u32 };
        match outcome {
            Outcome::Planned(p) => {
                self.found = p.path.found();
                self.path_len = p.path.len().min(u32::MAX as usize) as u32;
                self.cost_bits = p.cost.to_bits();
                self.canon_cost_bits = canonical_planned_cost_bits(p);
                self.expansions = p.expansions;
                self.sim_cycles = p.sim_cycles;
                self.queue_wait_us = us(p.queue_wait);
                self.service_us = us(p.service_time);
            }
            Outcome::TimedOut { queued_for, .. } => {
                self.queue_wait_us = us(*queued_for);
            }
            Outcome::Cancelled | Outcome::Panicked { .. } | Outcome::Lost => {}
        }
    }
}

/// The canonical cost comparison key for a planned outcome: for 2D paths
/// the re-summed `a·1 + b·√2` canonical cost bits (invariant under which
/// equal-cost optimum came back — the only comparison that survives ALT
/// guidance and landmark-rebuild timing), `u64::MAX` for an unreachable
/// 2D goal; 3D answers use the engine cost bits (no landmark path
/// rewrites them today).
pub fn canonical_planned_cost_bits(p: &Planned) -> u64 {
    match &p.path {
        PlannedPath::P2(Some(cells)) => canonical_cost_2d(cells).map_or(u64::MAX - 1, f64::to_bits),
        PlannedPath::P2(None) => u64::MAX,
        PlannedPath::P3(_) => p.cost.to_bits(),
    }
}

/// One applied delta batch: the version boundary replay must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Map id the batch was applied to.
    pub map: String,
    /// Map version after the apply (the batch moved `version - 1` →
    /// `version`).
    pub version: u64,
    /// Cells that actually flipped.
    pub changed: u32,
    /// The applied deltas, byte-for-byte reproducible.
    pub deltas: Vec<GridDelta2>,
}

/// One refused submission. Kept for query/debugging; replay skips these —
/// a queue-full rejection is a load-timing artifact, not a deterministic
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedRecord {
    /// Tenant label of the submitting process.
    pub tenant: String,
    /// Map id the refused request named.
    pub map: String,
    /// Why admission refused it.
    pub reason: RejectReason,
}

/// Everything after the header record.
// Plan dominates the size, but it also dominates the traffic: nearly
// every event in a real trace is a Plan, so boxing it would add an
// allocation per recorded request to shrink the rare variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// An admitted request and its outcome.
    Plan(PlanRecord),
    /// An applied delta batch.
    Delta(DeltaRecord),
    /// A refused submission.
    Rejected(RejectedRecord),
}

/// Why a trace failed to open at all (contrast with a torn *tail*, which
/// is recovered, not an error).
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error.
    Io(io::Error),
    /// The file is shorter than the preamble.
    TooShort,
    /// Wrong magic — not a trace file.
    BadMagic(u32),
    /// A format version this build does not speak.
    BadVersion(u8),
    /// The first record is missing or is not a decodable header.
    MissingHeader,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::TooShort => write!(f, "file shorter than the trace preamble"),
            TraceError::BadMagic(m) => write!(f, "bad trace magic {m:#010x}"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::MissingHeader => write!(f, "missing or corrupt trace header record"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A fully read trace.
#[derive(Debug)]
pub struct TraceFile {
    /// The header record.
    pub header: TraceHeader,
    /// Every durable event, in file (i.e. completion) order.
    pub events: Vec<TraceEvent>,
    /// Whether the file ended in a torn or corrupt record that was
    /// dropped (`false` = the file ended exactly on a record boundary).
    pub torn: bool,
    /// Bytes discarded from the tail when `torn`.
    pub dropped_tail: usize,
}

impl TraceFile {
    /// The plan records, in file order.
    pub fn plans(&self) -> impl Iterator<Item = &PlanRecord> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Plan(p) => Some(p),
            _ => None,
        })
    }

    /// The delta records, in file order.
    pub fn deltas(&self) -> impl Iterator<Item = &DeltaRecord> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Delta(d) => Some(d),
            _ => None,
        })
    }

    /// The rejection records, in file order.
    pub fn rejections(&self) -> impl Iterator<Item = &RejectedRecord> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Rejected(r) => Some(r),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_header(h: &TraceHeader) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(0); // record kind: header
    w.put_str(&h.build);
    w.put_str(&h.tenant);
    w.put_u64(h.world_seed);
    w.put_u32(h.map_size);
    w.put_u32(h.workers);
    w.put_u32(h.queue_capacity);
    w.put_u32(h.batch_max);
    match h.fault_seed {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u64(s);
        }
    }
    // The removed speculation switch: written as 0, ignored on read.
    w.put_bool(false);
    w.put_bool(h.breaker);
    w.put_bool(h.alt);
    w.put_str(&h.note);
    w.into_bytes()
}

/// Encodes one event into its record payload (kind tag included).
pub fn encode_event(ev: &TraceEvent) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match ev {
        TraceEvent::Plan(p) => {
            w.put_u8(1);
            w.put_u64(p.id);
            w.put_str(&p.tenant);
            put_request(&mut w, &p.req);
            w.put_u64(p.map_version);
            w.put_u64(p.map_version_done);
            w.put_u8(p.outcome.tag());
            if p.outcome == OutcomeKind::Planned {
                w.put_bool(p.found);
                w.put_u32(p.path_len);
                w.put_u64(p.cost_bits);
                w.put_u64(p.canon_cost_bits);
                w.put_u64(p.expansions);
                w.put_u64(p.sim_cycles);
            }
            w.put_u64(p.queue_wait_us);
            w.put_u64(p.service_us);
            w.put_u64(p.total_us);
            w.put_u32(p.worker);
        }
        TraceEvent::Delta(d) => {
            w.put_u8(2);
            w.put_str(&d.map);
            w.put_u64(d.version);
            w.put_u32(d.changed);
            put_deltas(&mut w, &d.deltas);
        }
        TraceEvent::Rejected(r) => {
            w.put_u8(3);
            w.put_str(&r.tenant);
            w.put_str(&r.map);
            w.put_u8(r.reason.tag());
        }
    }
    w.into_bytes()
}

/// Wraps a record payload in its `[len][checksum]` frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a whole trace in memory (the writer thread's exact byte
/// stream; tests and tools use this to synthesize traces).
pub fn encode_trace(header: &TraceHeader, events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&TRACE_MAGIC.to_le_bytes());
    out.push(TRACE_VERSION);
    out.extend_from_slice(&frame(&encode_header(header)));
    for ev in events {
        out.extend_from_slice(&frame(&encode_event(ev)));
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

// Any decode error makes the reader treat the record (and everything
// after it) as the torn tail; which `ProtocolError` it was is not kept.

fn decode_header(payload: &[u8]) -> Result<TraceHeader, ProtocolError> {
    let mut r = ByteReader::new(payload);
    match r.u8("record kind")? {
        0 => {}
        tag => return Err(ProtocolError::BadTag { what: "header record", tag }),
    }
    let h = TraceHeader {
        build: r.str("build")?,
        tenant: r.str("tenant")?,
        world_seed: r.u64("world_seed")?,
        map_size: r.u32("map_size")?,
        workers: r.u32("workers")?,
        queue_capacity: r.u32("queue_capacity")?,
        batch_max: r.u32("batch_max")?,
        fault_seed: match r.u8("fault_seed")? {
            0 => None,
            1 => Some(r.u64("fault_seed")?),
            tag => return Err(ProtocolError::BadTag { what: "fault_seed", tag }),
        },
        // Traces recorded with speculation on still replay: the byte is read
        // and ignored.
        breaker: {
            r.bool("speculation")?;
            r.bool("breaker")?
        },
        alt: r.bool("alt")?,
        note: r.str("note")?,
    };
    r.finish()?;
    Ok(h)
}

fn decode_event(payload: &[u8]) -> Result<TraceEvent, ProtocolError> {
    let mut r = ByteReader::new(payload);
    let ev = match r.u8("record kind")? {
        1 => {
            let id = r.u64("id")?;
            let tenant = r.str("tenant")?;
            let req = get_request(&mut r)?;
            let map_version = r.u64("map_version")?;
            let map_version_done = r.u64("map_version_done")?;
            let outcome = OutcomeKind::from_tag(r.u8("OutcomeKind")?)?;
            let (mut found, mut path_len, mut cost_bits, mut canon, mut exp, mut cyc) =
                (false, 0u32, 0u64, 0u64, 0u64, 0u64);
            if outcome == OutcomeKind::Planned {
                found = r.bool("found")?;
                path_len = r.u32("path_len")?;
                cost_bits = r.u64("cost_bits")?;
                canon = r.u64("canon_cost_bits")?;
                exp = r.u64("expansions")?;
                cyc = r.u64("sim_cycles")?;
            }
            TraceEvent::Plan(PlanRecord {
                id,
                tenant,
                req,
                map_version,
                map_version_done,
                outcome,
                found,
                path_len,
                cost_bits,
                canon_cost_bits: canon,
                expansions: exp,
                sim_cycles: cyc,
                queue_wait_us: r.u64("queue_wait_us")?,
                service_us: r.u64("service_us")?,
                total_us: r.u64("total_us")?,
                worker: r.u32("worker")?,
            })
        }
        2 => TraceEvent::Delta(DeltaRecord {
            map: r.str("map id")?,
            version: r.u64("version")?,
            changed: r.u32("changed")?,
            deltas: get_deltas(&mut r)?,
        }),
        3 => TraceEvent::Rejected(RejectedRecord {
            tenant: r.str("tenant")?,
            map: r.str("map id")?,
            reason: RejectReason::from_tag(r.u8("RejectReason")?)?,
        }),
        tag => return Err(ProtocolError::BadTag { what: "trace record", tag }),
    };
    r.finish()?;
    Ok(ev)
}

/// Reads the next `[len][checksum][payload]` frame at `off`. `Ok(None)`
/// = a clean end or a torn/corrupt tail (the caller distinguishes by
/// whether `off` reached the buffer end).
fn next_frame(bytes: &[u8], off: usize) -> Option<(usize, &[u8])> {
    let rest = &bytes[off..];
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let checksum = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if rest.len() < 8 + len {
        return None; // torn: the final write_all never completed
    }
    let payload = &rest[8..8 + len];
    if frame_checksum(payload) != checksum {
        return None; // corrupt: drop this record and everything after
    }
    Some((off + 8 + len, payload))
}

/// Parses trace bytes. Truncation-tolerant: a torn or corrupt record
/// ends the parse cleanly (everything before it is recovered; `torn` and
/// `dropped_tail` report what was lost). Only a missing/garbled preamble
/// or header record is an error.
pub fn read_trace_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    if bytes.len() < 5 {
        return Err(TraceError::TooShort);
    }
    let magic = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if magic != TRACE_MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    if bytes[4] != TRACE_VERSION {
        return Err(TraceError::BadVersion(bytes[4]));
    }
    let mut off = 5;
    let Some((next, payload)) = next_frame(bytes, off) else {
        return Err(TraceError::MissingHeader);
    };
    let Ok(header) = decode_header(payload) else {
        return Err(TraceError::MissingHeader);
    };
    off = next;
    let mut events = Vec::new();
    while let Some((next, payload)) = next_frame(bytes, off) {
        match decode_event(payload) {
            Ok(ev) => {
                events.push(ev);
                off = next;
            }
            Err(_) => break,
        }
    }
    let dropped_tail = bytes.len() - off;
    Ok(TraceFile { header, events, torn: dropped_tail > 0, dropped_tail })
}

/// Reads a trace file from disk (see [`read_trace_bytes`]).
pub fn read_trace(path: &Path) -> Result<TraceFile, TraceError> {
    read_trace_bytes(&std::fs::read(path)?)
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// The recording half: a bounded channel into a dedicated writer thread.
/// `record` never blocks; overflow increments `trace_dropped`.
#[derive(Debug)]
pub struct TraceRecorder {
    tx: Sender<TraceEvent>,
    tenant: Arc<str>,
    metrics: Arc<ServerMetrics>,
}

impl TraceRecorder {
    /// Opens (truncating) the trace file, writes the preamble and header
    /// synchronously — so the header is durable before any request is
    /// served — and spawns the writer thread. Returns the recorder handle
    /// and the writer's join handle (join it after the last recorder
    /// clone is dropped).
    pub fn create(
        cfg: &TraceConfig,
        header: &TraceHeader,
        metrics: Arc<ServerMetrics>,
    ) -> io::Result<(Arc<TraceRecorder>, JoinHandle<()>)> {
        let mut file = File::create(&cfg.path)?;
        let mut preamble = Vec::with_capacity(64);
        preamble.extend_from_slice(&TRACE_MAGIC.to_le_bytes());
        preamble.push(TRACE_VERSION);
        preamble.extend_from_slice(&frame(&encode_header(header)));
        file.write_all(&preamble)?;
        let _ = file.sync_all();
        let (tx, rx) = bounded::<TraceEvent>(cfg.buffer.max(1));
        let writer_metrics = metrics.clone();
        let writer = std::thread::Builder::new()
            .name("racod-trace-writer".into())
            .spawn(move || writer_loop(rx, file, writer_metrics))
            .map_err(io::Error::other)?;
        let recorder =
            Arc::new(TraceRecorder { tx, tenant: Arc::from(cfg.tenant.as_str()), metrics });
        Ok((recorder, writer))
    }

    /// The tenant label stamped on records this recorder emits.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Enqueues one event for the writer thread. Wait-free for the
    /// caller: a full buffer drops the event and bumps `trace_dropped`;
    /// it never stalls a worker, the dispatcher, or admission.
    pub fn record(&self, ev: TraceEvent) {
        match self.tx.try_send(ev) {
            Ok(()) => {
                let depth = self.tx.len() as u64;
                self.metrics.trace_buffer_high_water.fetch_max(depth, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.trace_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Test-only constructor: a recorder whose buffer is never drained
    /// (the receiver is returned to the caller), for exercising the
    /// overflow/drop accounting without a filesystem.
    #[doc(hidden)]
    pub fn for_tests(
        capacity: usize,
        metrics: Arc<ServerMetrics>,
    ) -> (Arc<TraceRecorder>, Receiver<TraceEvent>) {
        let (tx, rx) = bounded(capacity.max(1));
        (Arc::new(TraceRecorder { tx, tenant: Arc::from("test"), metrics }), rx)
    }
}

fn writer_loop(rx: Receiver<TraceEvent>, mut file: File, metrics: Arc<ServerMetrics>) {
    // One write_all per framed record: a crash tears at most the final
    // record, which the reader's checksum pass drops.
    while let Ok(ev) = rx.recv() {
        let buf = frame(&encode_event(&ev));
        if file.write_all(&buf).is_ok() {
            metrics.trace_records.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.trace_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _ = file.sync_all();
}

/// The in-flight recording half a [`crate::scheduler::ReplySlot`]
/// carries: the pending record plus the handles needed to finalize it at
/// terminal-response time.
#[derive(Debug)]
pub struct PendingTrace {
    /// The recorder to emit into.
    pub recorder: Arc<TraceRecorder>,
    /// The record, outcome fields pending.
    pub record: PlanRecord,
    /// The map entry, for the completion-time version stamp.
    pub entry: Arc<crate::registry::MapEntry>,
    /// Submission instant (total-latency base).
    pub submitted_at: std::time::Instant,
}

impl PendingTrace {
    /// Finalizes and emits the record.
    pub fn emit(mut self, outcome: &Outcome, worker: usize) {
        self.record.finalize(outcome, worker, self.submitted_at.elapsed());
        self.record.map_version_done = self.entry.version2();
        let recorder = self.recorder;
        recorder.record(TraceEvent::Plan(self.record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::Cell2;

    fn sample_header() -> TraceHeader {
        TraceHeader {
            build: build_id(false, true),
            tenant: "test".into(),
            world_seed: 7,
            map_size: 64,
            workers: 2,
            queue_capacity: 16,
            batch_max: 8,
            fault_seed: Some(0xfeed),
            breaker: true,
            alt: false,
            note: "unit".into(),
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        let req = PlanRequest::plan2("boston", Cell2::new(1, 2), Cell2::new(30, 40));
        let mut plan = PlanRecord::pending(1, "test", &req, 0);
        plan.outcome = OutcomeKind::Planned;
        plan.found = true;
        plan.path_len = 12;
        plan.cost_bits = 4.5f64.to_bits();
        plan.canon_cost_bits = 4.5f64.to_bits();
        vec![
            TraceEvent::Plan(plan),
            TraceEvent::Delta(DeltaRecord {
                map: "boston".into(),
                version: 1,
                changed: 2,
                deltas: vec![
                    GridDelta2::Appear { cell: Cell2::new(5, 5) },
                    GridDelta2::Move { from: Cell2::new(1, 1), to: Cell2::new(2, 1) },
                ],
            }),
            TraceEvent::Rejected(RejectedRecord {
                tenant: "test".into(),
                map: "nowhere".into(),
                reason: RejectReason::UnknownMap,
            }),
        ]
    }

    #[test]
    fn roundtrip_preserves_bytes() {
        let header = sample_header();
        let events = sample_events();
        let bytes = encode_trace(&header, &events);
        let back = read_trace_bytes(&bytes).unwrap();
        assert_eq!(back.header, header);
        assert!(!back.torn);
        assert_eq!(back.events.len(), events.len());
        // Re-encoding the decoded events must reproduce the exact bytes:
        // the codec has no lossy fields.
        let again = encode_trace(&back.header, &back.events);
        assert_eq!(again, bytes);
    }

    #[test]
    fn header_speculation_byte_is_written_as_zero_and_ignored() {
        let header = sample_header();
        let mut payload = encode_header(&header);
        // Three switch bytes, then the note's u32 length prefix and bytes.
        let at = payload.len() - 3 - 4 - header.note.len();
        assert_eq!(&payload[at..at + 3], &[0, 1, 0], "speculation 0, breaker on, alt off");
        // A trace recorded with speculation on decodes to the same header.
        payload[at] = 1;
        assert_eq!(decode_header(&payload).unwrap(), header);
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let bytes = encode_trace(&sample_header(), &sample_events());
        // Cut mid-way through the final record.
        let cut = bytes.len() - 3;
        let back = read_trace_bytes(&bytes[..cut]).unwrap();
        assert!(back.torn);
        assert_eq!(back.events.len(), sample_events().len() - 1);
        assert!(back.dropped_tail > 0);
    }

    #[test]
    fn checksum_flip_stops_at_the_corrupt_record() {
        let mut bytes = encode_trace(&sample_header(), &sample_events());
        // Flip one payload byte of the last record: its checksum fails,
        // the two records before it survive.
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let back = read_trace_bytes(&bytes).unwrap();
        assert!(back.torn);
        assert_eq!(back.events.len(), sample_events().len() - 1);
    }

    #[test]
    fn garbage_preamble_is_an_error() {
        assert!(matches!(read_trace_bytes(b"xx"), Err(TraceError::TooShort)));
        assert!(matches!(read_trace_bytes(b"NOPE\x01\x00\x00"), Err(TraceError::BadMagic(_))));
        let mut bytes = encode_trace(&sample_header(), &[]);
        bytes[4] = 99;
        assert!(matches!(read_trace_bytes(&bytes), Err(TraceError::BadVersion(99))));
    }

    #[test]
    fn recorder_overflow_drops_and_counts() {
        let metrics = Arc::new(ServerMetrics::new());
        let (rec, _rx) = TraceRecorder::for_tests(2, metrics.clone());
        let ev = || {
            TraceEvent::Rejected(RejectedRecord {
                tenant: "t".into(),
                map: "m".into(),
                reason: RejectReason::QueueFull,
            })
        };
        rec.record(ev());
        rec.record(ev());
        rec.record(ev()); // buffer full: dropped, not blocked
        assert_eq!(metrics.trace_dropped.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.trace_buffer_high_water.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn build_id_names_simd_and_switches() {
        let id = build_id(true, false);
        assert!(id.starts_with("git:"), "{id}");
        assert!(id.contains("simd:"), "{id}");
        assert!(id.contains("alt:on"), "{id}");
        assert!(!id.contains("spec"), "{id}");
        assert_eq!(id, build_id(true, true), "the second argument is ignored");
    }
}
