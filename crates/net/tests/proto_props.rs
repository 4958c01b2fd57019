//! Property tests of the racod-net codec: every message type round-trips
//! bit-exactly, and no amount of truncation, corruption, or forged
//! lengths can make the decoder panic or allocate unboundedly — hostile
//! bytes always land in a clean [`ProtocolError`].

use proptest::prelude::*;
use racod_fault::mix64;
use racod_geom::{Cell2, Cell3};
use racod_net::proto::{decode_frame, encode_frame, DEFAULT_MAX_FRAME, HEADER_LEN};
use racod_net::wire::ProtocolError;
use racod_net::{Health, Message, MetricsFrame, ShardStat, ShardState, WireResult};
use racod_server::{
    Outcome, PlanRequest, PlanResponse, Planned, PlannedPath, Platform, Priority, Rejected,
    ServerMetrics, TimeoutStage,
};
use std::time::Duration;

/// A tiny deterministic stream over a seed.
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

fn sample_request(g: &mut Gen) -> PlanRequest {
    let map = ["paris", "berlin", "campus", "random"][g.pct(4) as usize];
    let req = match g.pct(4) {
        0 => PlanRequest::plan2(
            map,
            Cell2::new(g.pct(100) as i64, g.pct(100) as i64),
            Cell2::new(g.pct(100) as i64, g.pct(100) as i64),
        ),
        1 => PlanRequest::plan3(
            map,
            Cell3::new(g.pct(40) as i64, g.pct(40) as i64, g.pct(20) as i64),
            Cell3::new(g.pct(40) as i64, g.pct(40) as i64, g.pct(20) as i64),
        ),
        2 => PlanRequest::plan2(map, Cell2::new(0, 0), Cell2::new(1, 1))
            .with_footprint2(racod_sim::Footprint2::point()),
        _ => PlanRequest::plan2(map, Cell2::new(2, 3), Cell2::new(5, 8)),
    };
    let platform = match g.pct(3) {
        0 => Platform::Racod { units: g.pct(16) as usize },
        1 => Platform::Threads { threads: 1 + g.pct(8) as usize, runahead: g.pct(4) as usize },
        _ => Platform::SimSoftware {
            threads: 1 + g.pct(4) as usize,
            runahead: if g.pct(2) == 0 { None } else { Some(g.pct(8) as usize) },
        },
    };
    let priority = match g.pct(3) {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    let mut req = req.with_platform(platform).with_priority(priority);
    if g.pct(2) == 0 {
        req = req.with_deadline(Duration::from_micros(g.pct(1_000_000)));
    }
    req
}

fn sample_outcome(g: &mut Gen) -> Outcome {
    match g.pct(5) {
        0 => {
            let path = if g.pct(4) == 0 {
                PlannedPath::P2(None)
            } else if g.pct(2) == 0 {
                PlannedPath::P2(Some(
                    (0..g.pct(50))
                        .map(|_| Cell2::new(g.pct(99) as i64, g.pct(99) as i64))
                        .collect(),
                ))
            } else {
                PlannedPath::P3(Some(
                    (0..g.pct(50))
                        .map(|_| Cell3::new(g.pct(40) as i64, g.pct(40) as i64, g.pct(20) as i64))
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

fn sample_rejected(g: &mut Gen) -> Rejected {
    match g.pct(6) {
        0 => Rejected::QueueFull,
        1 => Rejected::UnknownMap("atlantis".into()),
        2 => Rejected::DimensionMismatch,
        3 => Rejected::DeadlineInfeasible {
            estimated_wait: Duration::from_micros(g.pct(1_000_000)),
            deadline: Duration::from_micros(g.pct(1_000_000)),
        },
        4 => Rejected::InvalidRequest,
        _ => Rejected::ShuttingDown,
    }
}

fn sample_delta(g: &mut Gen) -> racod_grid::GridDelta2 {
    use racod_grid::GridDelta2;
    let cell = Cell2::new(g.pct(200) as i64 - 50, g.pct(200) as i64 - 50);
    match g.pct(3) {
        0 => GridDelta2::Appear { cell },
        1 => GridDelta2::Disappear { cell },
        _ => GridDelta2::Move { from: cell, to: Cell2::new(g.pct(99) as i64, g.pct(99) as i64) },
    }
}

/// One message of every kind, structure varied by seed.
fn sample_message(seed: u64) -> Message {
    let mut g = Gen(seed);
    match seed % 12 {
        0 => Message::PlanReq { corr: g.next(), req: sample_request(&mut g) },
        1 => {
            let result = if g.pct(2) == 0 {
                WireResult::Rejected(sample_rejected(&mut g))
            } else {
                WireResult::Done(PlanResponse {
                    id: g.next(),
                    outcome: sample_outcome(&mut g),
                    worker: g.pct(16) as usize,
                })
            };
            Message::PlanResp { corr: g.next(), result }
        }
        2 => Message::MetricsReq,
        3 => {
            // A real metrics frame plus seed-dependent noise entries the
            // restore path must tolerate.
            let m = ServerMetrics::new();
            let mut frame = MetricsFrame::snapshot(&m);
            frame.counters.push((format!("future_counter_{}", g.pct(5)), g.next()));
            Message::MetricsResp(frame)
        }
        4 => Message::HealthReq,
        5 => Message::HealthResp(Health {
            draining: g.pct(2) == 0,
            in_system: g.next(),
            accepted: g.next(),
            completed: g.next(),
        }),
        6 => Message::DrainReq,
        7 => Message::DrainResp(g.pct(2) == 0),
        8 => Message::ShardStatsReq,
        9 => Message::MapDeltaReq {
            map: ["paris", "berlin", "campus"][g.pct(3) as usize].to_string(),
            deltas: (0..g.pct(6)).map(|_| sample_delta(&mut g)).collect(),
        },
        10 => Message::MapDeltaResp(if g.pct(3) == 0 { None } else { Some((g.next(), g.next())) }),
        _ => Message::ShardStatsResp(
            (0..g.pct(4))
                .map(|i| ShardStat {
                    addr: format!("127.0.0.1:{}", 7000 + i),
                    state: match g.pct(3) {
                        0 => ShardState::Down,
                        1 => ShardState::Up,
                        _ => ShardState::Draining,
                    },
                    routed: g.next(),
                    completed: g.next(),
                    errors: g.next(),
                    queue_full: g.next(),
                    lost: g.next(),
                    failovers: g.next(),
                    breaker_open: g.pct(2) == 0,
                })
                .collect(),
        ),
    }
}

proptest! {
    /// decode ∘ encode is the identity on the wire image, for every
    /// message kind. (Message types don't all implement `PartialEq`, so
    /// equality is checked on re-encoded bytes — which is also the
    /// stronger property: the codec is a bijection on its own image.)
    #[test]
    fn every_message_kind_roundtrips(seed in any::<u64>()) {
        let msg = sample_message(seed);
        let bytes = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&bytes, DEFAULT_MAX_FRAME)
            .expect("own encoding must decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    /// Every strict prefix of a valid frame fails cleanly with a
    /// `ProtocolError` — never a panic, never a partial message.
    #[test]
    fn truncated_frames_error_cleanly(seed in any::<u64>(), cut in any::<u64>()) {
        let bytes = encode_frame(&sample_message(seed));
        let len = (cut as usize) % bytes.len();
        prop_assert!(decode_frame(&bytes[..len], DEFAULT_MAX_FRAME).is_err());
    }

    /// A single flipped payload byte is always caught by the checksum.
    #[test]
    fn corrupted_payloads_are_rejected(seed in any::<u64>(), at in any::<u64>()) {
        let mut bytes = encode_frame(&sample_message(seed));
        prop_assume!(bytes.len() > HEADER_LEN);
        let i = HEADER_LEN + (at as usize) % (bytes.len() - HEADER_LEN);
        bytes[i] ^= 0x40;
        match decode_frame(&bytes, DEFAULT_MAX_FRAME) {
            Err(ProtocolError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "expected checksum mismatch, got {other:?}"),
        }
    }

    /// Arbitrary garbage never panics the decoder. (It virtually always
    /// fails on magic; the property is totality, not failure.)
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes, DEFAULT_MAX_FRAME);
    }

    /// A forged header length cannot force a large allocation: anything
    /// over `max_frame` is rejected from the 16 header bytes alone.
    #[test]
    fn oversized_header_is_rejected_before_allocation(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let huge = DEFAULT_MAX_FRAME as u64 + 1 + g.pct(u32::MAX as u64);
        let mut bytes = encode_frame(&Message::HealthReq);
        bytes[8..12].copy_from_slice(&(huge as u32).to_le_bytes());
        match decode_frame(&bytes, DEFAULT_MAX_FRAME) {
            Err(ProtocolError::FrameTooLarge { len, max }) => {
                prop_assert_eq!(len, huge as u32);
                prop_assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }
}

/// Forged *interior* lengths (a counter count of four billion inside a
/// valid checksummed frame) must fail on the bytes-remaining guard, not
/// allocate first.
#[test]
fn forged_interior_length_cannot_force_allocation() {
    use racod_net::wire::{frame_checksum, ByteWriter};
    let mut w = ByteWriter::new();
    w.put_u32(u32::MAX); // counter count
    let payload = w.into_bytes();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&racod_net::MAGIC.to_le_bytes());
    bytes.push(racod_net::PROTO_VERSION);
    bytes.push(racod_net::MsgKind::MetricsResp as u8);
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    match decode_frame(&bytes, DEFAULT_MAX_FRAME) {
        Err(ProtocolError::BadLength { .. }) => {}
        other => panic!("expected BadLength, got {other:?}"),
    }
}

/// Unknown counter names in a metrics frame are dropped by `restore`
/// instead of corrupting known ones (forward compatibility across mixed
/// server versions).
#[test]
fn metrics_restore_ignores_unknown_counters() {
    use std::sync::atomic::Ordering;
    let m = ServerMetrics::new();
    m.submitted.fetch_add(41, Ordering::Relaxed);
    let mut frame = MetricsFrame::snapshot(&m);
    frame.counters.push(("counter_from_the_future".to_string(), 999));
    let back = frame.restore();
    assert_eq!(back.submitted.load(Ordering::Relaxed), 41);
}
