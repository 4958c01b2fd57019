//! Golden bytes: the wire frames and the trace log, pinned byte for byte.
//!
//! `proto_props` and `trace_props` prove round trips and truncation
//! safety, which a *symmetric* format change (both encoder and decoder
//! moved) passes. This suite pins the bytes themselves against
//! `golden_bytes.hex`, captured at PR 23's tree: a fixture line changes
//! only in a PR that bumps `PROTO_VERSION` or `TRACE_VERSION` on purpose.
//! On a mismatch the current rendering is written under the target tmp
//! directory so the difference can be diffed.

use racod_geom::{Cell2, Cell3};
use racod_grid::GridDelta2;
use racod_net::proto::{decode_frame, encode_frame, encode_payload, DEFAULT_MAX_FRAME};
use racod_net::{Message, WireResult};
use racod_server::trace::{encode_event, encode_trace, read_trace_bytes};
use racod_server::{
    DeltaRecord, Outcome, PlanRecord, PlanRequest, PlanResponse, Planned, PlannedPath, Platform,
    Priority, RejectReason, Rejected, RejectedRecord, TimeoutStage, TraceEvent, TraceHeader,
};
use std::time::Duration;

const FIXTURE: &str = include_str!("golden_bytes.hex");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// The fixture line named `name`, decoded.
fn golden(name: &str) -> Vec<u8> {
    FIXTURE
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .map(unhex)
        .unwrap_or_default()
}

/// Fails with the first differing line; the full current rendering goes
/// to the target tmp directory.
fn assert_matches_fixture(section: &str, rendered: &[(String, Vec<u8>)]) {
    for (name, bytes) in rendered {
        if golden(name) != *bytes {
            let all: String = rendered.iter().map(|(n, b)| format!("{n} {}\n", hex(b))).collect();
            let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("golden_bytes.{section}.actual"));
            std::fs::write(&path, all).expect("write actual rendering");
            panic!("{name}: bytes differ from the fixture; current rendering in {path:?}");
        }
    }
}

/// `PlanReq` × {2D, 3D} × four platform shapes × {deadline, none}.
fn plan_requests() -> Vec<(String, PlanRequest)> {
    let platforms = [
        ("soft", Platform::SimSoftware { threads: 4, runahead: None }),
        ("soft-ra", Platform::SimSoftware { threads: 2, runahead: Some(6) }),
        ("racod", Platform::Racod { units: 8 }),
        ("threads", Platform::Threads { threads: 3, runahead: 5 }),
    ];
    let priorities = [Priority::High, Priority::Normal, Priority::Low, Priority::Normal];
    let mut out = Vec::new();
    for dim in [2, 3] {
        for (i, (pname, platform)) in platforms.iter().enumerate() {
            for deadline in [Some(Duration::from_micros(12_345)), None] {
                let base = if dim == 2 {
                    PlanRequest::plan2("boston", Cell2::new(3, -4), Cell2::new(90, 77))
                } else {
                    PlanRequest::plan3("campus", Cell3::new(1, 2, 3), Cell3::new(40, 41, -7))
                };
                let mut req = base.with_platform(*platform).with_priority(priorities[i]);
                req.deadline = deadline;
                let dl = if deadline.is_some() { "deadline" } else { "open" };
                out.push((format!("planreq.{dim}d.{pname}.{dl}"), req));
            }
        }
    }
    out
}

fn planned_2d() -> Planned {
    Planned {
        path: PlannedPath::P2(Some(vec![Cell2::new(3, -4), Cell2::new(4, -3), Cell2::new(5, -3)])),
        cost: std::f64::consts::SQRT_2 + 1.0,
        expansions: 17,
        sim_cycles: 4_242,
        queue_wait: Duration::from_micros(31),
        service_time: Duration::from_micros(907),
        warm_start: true,
    }
}

fn planned_3d() -> Planned {
    Planned {
        path: PlannedPath::P3(Some(vec![Cell3::new(1, 2, 3), Cell3::new(2, 3, 4)])),
        cost: 3.0f64.sqrt(),
        expansions: 2,
        sim_cycles: 99,
        queue_wait: Duration::from_micros(5),
        service_time: Duration::from_micros(60),
        warm_start: false,
    }
}

fn all_three_deltas() -> Vec<GridDelta2> {
    vec![
        GridDelta2::Appear { cell: Cell2::new(5, 6) },
        GridDelta2::Disappear { cell: Cell2::new(-1, 9) },
        GridDelta2::Move { from: Cell2::new(10, 11), to: Cell2::new(12, 11) },
    ]
}

fn wire_messages() -> Vec<(String, Message)> {
    let mut out: Vec<(String, Message)> = plan_requests()
        .into_iter()
        .enumerate()
        .map(|(i, (name, req))| (name, Message::PlanReq { corr: 0x1000 + i as u64, req }))
        .collect();
    out.push((
        "planresp.done".into(),
        Message::PlanResp {
            corr: 0x2001,
            result: WireResult::Done(PlanResponse {
                id: 77,
                outcome: Outcome::Planned(planned_2d()),
                worker: 2,
            }),
        },
    ));
    out.push((
        "planresp.rejected".into(),
        Message::PlanResp {
            corr: 0x2002,
            result: WireResult::Rejected(Rejected::DeadlineInfeasible {
                estimated_wait: Duration::from_micros(9_000),
                deadline: Duration::from_micros(5_000),
            }),
        },
    ));
    out.push((
        "mapdeltareq".into(),
        Message::MapDeltaReq { map: "boston".into(), deltas: all_three_deltas() },
    ));
    out
}

#[test]
fn wire_frames_match_the_golden_bytes() {
    let rendered: Vec<(String, Vec<u8>)> =
        wire_messages().iter().map(|(name, msg)| (name.clone(), encode_frame(msg))).collect();
    assert_matches_fixture("wire", &rendered);
    // And the other direction: the pinned bytes decode, and what they
    // decode to re-encodes to the pinned bytes.
    for (name, _) in &rendered {
        let bytes = golden(name);
        let (msg, used) = decode_frame(&bytes, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("{name}: golden frame does not decode: {e}"));
        assert_eq!(used, bytes.len(), "{name}");
        assert_eq!(encode_frame(&msg), bytes, "{name}: decode then encode moved a byte");
    }
}

fn trace_header() -> TraceHeader {
    TraceHeader {
        build: "git:golden simd:Scalar alt:off spec:off".into(),
        tenant: "golden".into(),
        world_seed: 7,
        map_size: 64,
        workers: 2,
        queue_capacity: 16,
        batch_max: 8,
        fault_seed: Some(0xfeed),
        breaker: true,
        alt: false,
        note: "fixture".into(),
    }
}

/// A planned 2D record, a planned 3D record, a timed-out record (the
/// one request with a deadline), with the requests they were built from.
fn trace_plans() -> Vec<(PlanRequest, PlanRecord)> {
    let reqs = plan_requests();
    let pick = |name: &str| reqs.iter().find(|(n, _)| n == name).expect(name).1.clone();
    let cases = [
        (pick("planreq.2d.racod.open"), Outcome::Planned(planned_2d()), 1usize),
        (pick("planreq.3d.soft-ra.open"), Outcome::Planned(planned_3d()), 0),
        (
            pick("planreq.2d.threads.deadline"),
            Outcome::TimedOut {
                queued_for: Duration::from_micros(12_400),
                stage: TimeoutStage::Queued,
            },
            usize::MAX,
        ),
    ];
    cases
        .into_iter()
        .enumerate()
        .map(|(i, (req, outcome, worker))| {
            let mut rec = PlanRecord::pending(i as u64 + 1, "golden", &req, i as u64);
            rec.finalize(&outcome, worker, Duration::from_micros(1_000 + i as u64));
            rec.map_version_done = i as u64 + 1;
            (req, rec)
        })
        .collect()
}

fn trace_events() -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> =
        trace_plans().into_iter().map(|(_, rec)| TraceEvent::Plan(rec)).collect();
    events.push(TraceEvent::Delta(DeltaRecord {
        map: "boston".into(),
        version: 3,
        changed: 4,
        deltas: all_three_deltas(),
    }));
    events.push(TraceEvent::Rejected(RejectedRecord {
        tenant: "golden".into(),
        map: "atlantis".into(),
        reason: RejectReason::UnknownMap,
    }));
    events
}

#[test]
fn trace_matches_the_golden_bytes() {
    let bytes = encode_trace(&trace_header(), &trace_events());
    assert_matches_fixture("trace", &[("trace".to_string(), bytes)]);
    let pinned = golden("trace");
    let file = read_trace_bytes(&pinned).expect("golden trace reads");
    assert!(!file.torn);
    assert_eq!(file.header, trace_header());
    assert_eq!(file.events.len(), trace_events().len());
    assert_eq!(encode_trace(&file.header, &file.events), pinned, "read then encode moved a byte");
}

/// A Plan record is `[1][id][tenant]` + the wire's `PlanRequest` bytes +
/// fences and outcome summary: the request travels and is logged in one
/// layout.
#[test]
fn plan_record_embeds_the_wire_request_bytes() {
    for (req, rec) in trace_plans() {
        let payload = encode_payload(&Message::PlanReq { corr: 0, req });
        let wire_request = &payload[8..]; // after `corr`
        let record = encode_event(&TraceEvent::Plan(rec.clone()));
        let prefix = 1 + 8 + 4 + rec.tenant.len(); // kind, id, tenant string
        assert!(
            record[prefix..].starts_with(wire_request),
            "record {}: request bytes differ between trace and wire",
            rec.id
        );
    }
}
