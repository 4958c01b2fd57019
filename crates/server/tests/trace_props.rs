//! Property tests of the trace log codec and its crash-recovery
//! contract: every event stream round-trips bit-exactly, truncation at
//! *any* byte recovers the longest durable prefix, a corrupted record
//! stops the read cleanly at the last good one, and no garbage input can
//! panic the reader. Together these are the guarantee `racod-cli replay`
//! leans on after a crash: whatever survived the tear is replayable.

use proptest::prelude::*;
use racod_fault::mix64;
use racod_geom::{Cell2, Cell3};
use racod_grid::GridDelta2;
use racod_server::trace::{encode_event, encode_trace, read_trace_bytes, TraceError};
use racod_server::{
    DeltaRecord, Outcome, PlanRecord, PlanRequest, Planned, PlannedPath, Platform, Priority,
    RejectReason, RejectedRecord, TimeoutStage, TraceEvent, TraceHeader,
};
use std::time::Duration;

/// A tiny deterministic stream over a seed (same idiom as the wire
/// codec's property tests).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = mix64(self.0.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self.0
    }

    fn pct(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn sample_header(g: &mut Gen) -> TraceHeader {
    TraceHeader {
        build: format!("git:abc{} simd:Scalar alt:off spec:off", g.pct(100)),
        tenant: ["default", "loadgen", "netd"][g.pct(3) as usize].to_string(),
        world_seed: g.next(),
        map_size: 64 + g.pct(512) as u32,
        workers: 1 + g.pct(16) as u32,
        queue_capacity: 1 + g.pct(1024) as u32,
        batch_max: 1 + g.pct(8) as u32,
        fault_seed: if g.pct(2) == 0 { None } else { Some(g.next()) },
        speculation: g.pct(2) == 0,
        breaker: g.pct(2) == 0,
        alt: g.pct(2) == 0,
        note: if g.pct(2) == 0 { String::new() } else { format!("run-{}", g.pct(1000)) },
    }
}

fn sample_request(g: &mut Gen) -> PlanRequest {
    let map = ["paris", "berlin", "campus"][g.pct(3) as usize];
    let req = if g.pct(3) == 0 {
        PlanRequest::plan3(
            map,
            Cell3::new(g.pct(40) as i64, g.pct(40) as i64, g.pct(20) as i64),
            Cell3::new(g.pct(40) as i64, g.pct(40) as i64, g.pct(20) as i64),
        )
    } else {
        PlanRequest::plan2(
            map,
            Cell2::new(g.pct(100) as i64, g.pct(100) as i64),
            Cell2::new(g.pct(100) as i64, g.pct(100) as i64),
        )
    };
    let platform = match g.pct(3) {
        0 => Platform::Racod { units: g.pct(16) as usize },
        1 => Platform::Threads { threads: 1 + g.pct(8) as usize, runahead: g.pct(4) as usize },
        _ => Platform::SimSoftware {
            threads: 1 + g.pct(4) as usize,
            runahead: if g.pct(2) == 0 { None } else { Some(g.pct(8) as usize) },
        },
    };
    let priority = [Priority::High, Priority::Normal, Priority::Low][g.pct(3) as usize];
    let mut req = req.with_platform(platform).with_priority(priority);
    if g.pct(2) == 0 {
        req = req.with_deadline(Duration::from_micros(1 + g.pct(1_000_000)));
    }
    req
}

fn sample_outcome(g: &mut Gen) -> Outcome {
    match g.pct(5) {
        0 => {
            let path = if g.pct(4) == 0 {
                PlannedPath::P2(None)
            } else {
                PlannedPath::P2(Some(
                    (0..g.pct(30))
                        .map(|_| Cell2::new(g.pct(99) as i64, g.pct(99) as i64))
                        .collect(),
                ))
            };
            Outcome::Planned(Planned {
                path,
                cost: f64::from_bits(0x3FF0_0000_0000_0000 | (g.next() & 0xF_FFFF)),
                expansions: g.next(),
                sim_cycles: g.next(),
                queue_wait: Duration::from_micros(g.pct(100_000)),
                service_time: Duration::from_micros(g.pct(100_000)),
                warm_start: g.pct(2) == 0,
            })
        }
        1 => Outcome::TimedOut {
            queued_for: Duration::from_micros(g.pct(100_000)),
            stage: if g.pct(2) == 0 { TimeoutStage::Queued } else { TimeoutStage::MidSearch },
        },
        2 => Outcome::Cancelled,
        3 => Outcome::Panicked { message: format!("injected-{}", g.pct(100)) },
        _ => Outcome::Lost,
    }
}

fn sample_event(g: &mut Gen) -> TraceEvent {
    match g.pct(6) {
        0 => {
            let version = g.pct(1000);
            TraceEvent::Delta(DeltaRecord {
                map: ["paris", "berlin"][g.pct(2) as usize].to_string(),
                version,
                changed: g.pct(50) as u32,
                deltas: (0..g.pct(5))
                    .map(|_| {
                        let cell = Cell2::new(g.pct(99) as i64, g.pct(99) as i64);
                        match g.pct(3) {
                            0 => GridDelta2::Appear { cell },
                            1 => GridDelta2::Disappear { cell },
                            _ => GridDelta2::Move {
                                from: cell,
                                to: Cell2::new(g.pct(99) as i64, g.pct(99) as i64),
                            },
                        }
                    })
                    .collect(),
            })
        }
        1 => TraceEvent::Rejected(RejectedRecord {
            tenant: "t".to_string(),
            map: "paris".to_string(),
            reason: [
                RejectReason::QueueFull,
                RejectReason::UnknownMap,
                RejectReason::DimensionMismatch,
                RejectReason::DeadlineInfeasible,
                RejectReason::ShuttingDown,
                RejectReason::InvalidRequest,
            ][g.pct(6) as usize],
        }),
        _ => {
            let req = sample_request(g);
            let version = g.pct(100);
            let mut rec = PlanRecord::pending(1 + g.pct(10_000), "t", &req, version);
            rec.finalize(
                &sample_outcome(g),
                if g.pct(4) == 0 { usize::MAX } else { g.pct(16) as usize },
                Duration::from_micros(g.pct(1_000_000)),
            );
            rec.map_version_done = version + g.pct(3);
            TraceEvent::Plan(rec)
        }
    }
}

fn sample_trace(seed: u64, max_events: u64) -> (TraceHeader, Vec<TraceEvent>, Vec<u8>) {
    let mut g = Gen(seed);
    let header = sample_header(&mut g);
    let events: Vec<TraceEvent> =
        (0..g.pct(max_events + 1)).map(|_| sample_event(&mut g)).collect();
    let bytes = encode_trace(&header, &events);
    (header, events, bytes)
}

proptest! {
    /// read ∘ encode is the identity on the byte image: the decoded
    /// header matches and every decoded event re-encodes to the exact
    /// recorded payload. (Event types don't all implement `PartialEq`;
    /// byte equality is the stronger property anyway.)
    #[test]
    fn trace_roundtrips_bit_exactly(seed in any::<u64>()) {
        let (header, events, bytes) = sample_trace(seed, 12);
        let file = read_trace_bytes(&bytes).expect("own encoding must read");
        prop_assert!(!file.torn);
        prop_assert_eq!(file.dropped_tail, 0);
        prop_assert_eq!(&file.header, &header);
        prop_assert_eq!(file.events.len(), events.len());
        for (a, b) in file.events.iter().zip(&events) {
            prop_assert_eq!(encode_event(a), encode_event(b));
        }
        prop_assert_eq!(encode_trace(&file.header, &file.events), bytes);
    }

    /// Truncation at any byte — a torn final write, a crash mid-record —
    /// recovers exactly the longest prefix of whole records, and flags
    /// the tear iff trailing bytes were dropped. Cutting into the
    /// preamble or header is a hard error (there is no world to rebuild),
    /// never a panic.
    #[test]
    fn truncation_at_any_byte_recovers_the_durable_prefix(seed in any::<u64>(), cut in any::<u64>()) {
        let (header, events, bytes) = sample_trace(seed, 8);
        let header_len = encode_trace(&header, &[]).len();
        let cut = (cut as usize) % (bytes.len() + 1);
        match read_trace_bytes(&bytes[..cut]) {
            Ok(file) => {
                prop_assert!(cut >= header_len, "read succeeded inside the header region");
                prop_assert_eq!(&file.header, &header);
                prop_assert!(file.events.len() <= events.len());
                for (a, b) in file.events.iter().zip(&events) {
                    prop_assert_eq!(encode_event(a), encode_event(b));
                }
                // Recovered prefix + dropped tail account for every byte.
                let durable = encode_trace(&file.header, &file.events).len();
                prop_assert_eq!(durable + file.dropped_tail, cut);
                prop_assert_eq!(file.torn, file.dropped_tail > 0);
            }
            Err(e) => {
                prop_assert!(cut < header_len, "hard error past the header region: {e}");
            }
        }
    }

    /// A flipped byte anywhere after the header stops the read at the
    /// last record before the corruption — the reader never panics and
    /// never returns an event from at or past the flipped byte.
    #[test]
    fn corruption_stops_at_the_last_good_record(seed in any::<u64>(), at in any::<u64>(), bit in 0u8..8) {
        let (header, events, bytes) = sample_trace(seed, 8);
        let header_len = encode_trace(&header, &[]).len();
        prop_assume!(bytes.len() > header_len);
        let mut bytes = bytes;
        let i = header_len + (at as usize) % (bytes.len() - header_len);
        bytes[i] ^= 1 << bit;
        let file = read_trace_bytes(&bytes).expect("header region untouched");
        prop_assert_eq!(&file.header, &header);
        prop_assert!(file.events.len() <= events.len());
        // Everything recovered must predate the corrupted byte, and must
        // be bit-identical to what was recorded.
        let durable = encode_trace(&file.header, &file.events).len();
        prop_assert!(durable <= i);
        for (a, b) in file.events.iter().zip(&events) {
            prop_assert_eq!(encode_event(a), encode_event(b));
        }
    }

    /// Arbitrary garbage never panics the reader: it fails on the
    /// preamble, fails on the header, or recovers some prefix — totality
    /// is the property.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_trace_bytes(&bytes);
    }

    /// Garbage *appended to a valid trace* is always detected and
    /// dropped; the valid records all survive.
    #[test]
    fn appended_garbage_is_dropped(seed in any::<u64>(), noise in prop::collection::vec(any::<u8>(), 1..64)) {
        let (_, events, mut bytes) = sample_trace(seed, 6);
        bytes.extend_from_slice(&noise);
        let file = read_trace_bytes(&bytes).expect("valid trace plus junk must read");
        // The junk may happen to parse as frames only if its checksums
        // hold, which a random byte vector essentially never satisfies;
        // the recorded prefix is always intact either way.
        prop_assert!(file.events.len() >= events.len());
        for (a, b) in events.iter().zip(&file.events) {
            prop_assert_eq!(encode_event(a), encode_event(b));
        }
    }
}

/// The reader's error taxonomy on short inputs: empty and sub-preamble
/// inputs are `TooShort`, a wrong magic is `BadMagic`, a future version
/// is `BadVersion`, a valid preamble with no header frame is
/// `MissingHeader`.
#[test]
fn preamble_errors_are_precise() {
    assert!(matches!(read_trace_bytes(&[]), Err(TraceError::TooShort)));
    assert!(matches!(read_trace_bytes(&[0x52, 0x54]), Err(TraceError::TooShort)));
    let mut wrong_magic = Vec::new();
    wrong_magic.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    wrong_magic.push(1);
    assert!(matches!(read_trace_bytes(&wrong_magic), Err(TraceError::BadMagic(0xDEAD_BEEF))));
    let mut future = Vec::new();
    future.extend_from_slice(b"RTRC");
    future.push(99);
    assert!(matches!(read_trace_bytes(&future), Err(TraceError::BadVersion(99))));
    let mut headerless = Vec::new();
    headerless.extend_from_slice(b"RTRC");
    headerless.push(1);
    assert!(matches!(read_trace_bytes(&headerless), Err(TraceError::MissingHeader)));
}
