//! Trace replay: re-execute a recorded run and assert bit-identity.
//!
//! A trace (see [`racod_server::trace`]) carries everything a run's
//! answers depended on: the world seed, the server shape, the armed
//! fault-plan seed, every admitted request, and every map-delta batch
//! pinned to its version boundary. Replay rebuilds that environment —
//! [`replay_local`] embeds a fresh [`PlanServer`]; [`replay_remote`]
//! drives a live `racod-netd` started with the same seeds — resubmits the
//! recorded requests in admission order (sorted by id, one in flight at a
//! time), re-applies each delta batch exactly at its recorded version
//! fence, and compares outcomes.
//!
//! ## Determinism contract
//!
//! What must reproduce bit-identically (and is gated):
//!
//! * outcome kind of every planned/panicked/lost record,
//! * `found` and the canonical cost bits of every planned record,
//! * the run's folded canonical cost digest,
//! * every delta batch's post-apply `(version, changed)` pair.
//!
//! What legitimately cannot (and how it is handled):
//!
//! * **Wall-clock outcomes** — `TimedOut`/`Cancelled` depend on load
//!   timing and client cancel timing, which replay does not reproduce
//!   (replay strips deadlines and never cancels). A trace containing
//!   them fails by default with a pointer to
//!   [`ReplayOptions::lenient_timing`], which skips comparing them.
//! * **Request-id drift** — replay assigns ids sequentially; a gap in
//!   the recorded ids (dropped records, torn tail) shifts every later
//!   id. Ids seed the fault-injection sites, so drift is a hard
//!   mismatch when a fault seed is armed and a warning otherwise.
//! * **Mid-flight deltas** — a record whose completion-time map version
//!   exceeds its admission version raced a delta in the recording;
//!   replay (one request in flight) cannot reproduce the race and
//!   reports it as a warning alongside any resulting mismatch.
//! * **Breakers × chaos** — the accelerated-platform circuit breakers
//!   trip on consecutive native failures and recover on a *wall-clock*
//!   cooldown, routing requests to the uninjected software fallback
//!   while open. A chaos recording made with breakers live therefore
//!   has a timing-dependent injection schedule. Replay always runs
//!   breakers off and warns when a chaos trace was recorded with them
//!   on; loadgen and netd disable breakers automatically when recording
//!   with a fault seed armed.

use crate::client::NetClient;
use crate::digest::{plan_cost_digest, record_cost_digest};
use crate::world::standard_world;
use crate::{ClientConfig, WireResult};
use racod_fault::FaultPlan;
use racod_server::trace::canonical_planned_cost_bits;
use racod_server::{
    AltConfig, BreakerConfig, DeltaRecord, MapId, Outcome, OutcomeKind, PlanRecord, PlanRequest,
    PlanServer, ServerConfig, TraceFile,
};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;

/// Replay tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Skip comparing records whose *recorded* outcome is wall-clock
    /// dependent (`TimedOut`, `Cancelled`) instead of failing on them.
    pub lenient_timing: bool,
}

/// What a replay found.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Plan records resubmitted.
    pub replayed: usize,
    /// Recorded records with a planned outcome.
    pub planned_recorded: usize,
    /// Replayed requests that produced a planned outcome.
    pub planned_replayed: usize,
    /// Rejection records in the trace (not replayed — admission refusals
    /// are load-timing artifacts, not deterministic inputs).
    pub skipped_rejections: usize,
    /// Timing-dependent records skipped under
    /// [`ReplayOptions::lenient_timing`].
    pub skipped_timing: usize,
    /// Records that raced a delta in the recording (completion version >
    /// admission version).
    pub midflight_warnings: usize,
    /// Delta batches re-applied.
    pub deltas_applied: usize,
    /// Replayed requests whose assigned id differed from the recording.
    pub id_drift: usize,
    /// Hard divergences: any entry here (or a digest mismatch) fails the
    /// replay.
    pub mismatches: Vec<String>,
    /// Soft divergences worth surfacing but not gating on.
    pub warnings: Vec<String>,
    /// XOR fold of [`record_cost_digest`] over the recorded planned
    /// records.
    pub recorded_cost_digest: u64,
    /// XOR fold of [`plan_cost_digest`] over the replayed planned
    /// outcomes of those same records.
    pub replayed_cost_digest: u64,
}

impl ReplayReport {
    /// Whether the replay reproduced the recording bit-identically.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.recorded_cost_digest == self.replayed_cost_digest
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "replayed           {}", self.replayed);
        let _ = writeln!(
            out,
            "planned            {} recorded, {} replayed",
            self.planned_recorded, self.planned_replayed
        );
        let _ = writeln!(out, "deltas re-applied  {}", self.deltas_applied);
        let _ = writeln!(out, "rejections skipped {}", self.skipped_rejections);
        if self.skipped_timing > 0 {
            let _ = writeln!(out, "timing skipped     {}", self.skipped_timing);
        }
        if self.midflight_warnings > 0 {
            let _ = writeln!(out, "mid-flight deltas  {}", self.midflight_warnings);
        }
        if self.id_drift > 0 {
            let _ = writeln!(out, "id drift           {}", self.id_drift);
        }
        let _ = writeln!(out, "recorded cost digest 0x{:016x}", self.recorded_cost_digest);
        let _ = writeln!(out, "replayed cost digest 0x{:016x}", self.replayed_cost_digest);
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH: {m}");
        }
        let _ = writeln!(out, "verdict            {}", if self.ok() { "OK" } else { "FAILED" });
        out
    }
}

/// Where replayed requests are sent.
enum Target<'a> {
    Local(&'a PlanServer),
    Remote(&'a mut NetClient),
}

impl Target<'_> {
    /// Submits one request and waits for its terminal outcome. `Err` is a
    /// rejection or transport failure described as a mismatch string.
    fn plan(&mut self, rec: &PlanRecord) -> Result<(u64, Outcome), String> {
        // Deadlines are wall-clock: re-arming them could time out a replay
        // on a slow machine and cancel never replays. Strip both; the
        // recorded deadline still participated in admission ordering only,
        // which is irrelevant with one request in flight.
        let req = PlanRequest { deadline: None, ..rec.req.clone() };
        match self {
            Target::Local(server) => match server.submit(req) {
                Ok(ticket) => {
                    let resp = ticket.wait();
                    Ok((resp.id, resp.outcome))
                }
                Err(r) => Err(format!("id {}: recorded admitted, replay rejected: {r}", rec.id)),
            },
            Target::Remote(conn) => match conn.plan(req) {
                Ok(WireResult::Done(resp)) => Ok((resp.id, resp.outcome)),
                Ok(WireResult::Rejected(r)) => {
                    Err(format!("id {}: recorded admitted, replay rejected: {r}", rec.id))
                }
                Err(e) => Err(format!("id {}: transport error during replay: {e}", rec.id)),
            },
        }
    }

    /// Applies one recorded delta batch; returns the live
    /// `(version, changed)` or an error string.
    fn apply(&mut self, d: &DeltaRecord) -> Result<(u64, u64), String> {
        match self {
            Target::Local(server) => server
                .apply_map_deltas(&MapId::new(&d.map), &d.deltas)
                .map(|(v, c)| (v, c as u64))
                .ok_or_else(|| format!("map {}: replay delta apply refused", d.map)),
            Target::Remote(conn) => match conn.apply_deltas(&d.map, &d.deltas) {
                Ok(Some(vc)) => Ok(vc),
                Ok(None) => Err(format!("map {}: replay delta apply refused", d.map)),
                Err(e) => Err(format!("map {}: delta transport error: {e}", d.map)),
            },
        }
    }
}

/// Replays a trace against a fresh in-process server rebuilt from the
/// trace header (world seed, server shape, fault seed). Errors when the
/// trace was recorded against a hand-built world (`world_seed == 0`) that
/// replay cannot reconstruct.
pub fn replay_local(trace: &TraceFile, opts: ReplayOptions) -> Result<ReplayReport, String> {
    let h = &trace.header;
    if h.world_seed == 0 {
        return Err(
            "trace header has world_seed 0 (hand-built registry): not reconstructible".into()
        );
    }
    let (registry, _pools) = standard_world(h.world_seed, h.map_size);
    let server = PlanServer::start(
        ServerConfig {
            workers: (h.workers as usize).max(1),
            queue_capacity: (h.queue_capacity as usize).max(1),
            batch_max: (h.batch_max as usize).max(1),
            fault_plan: h.fault_seed.map(|s| Arc::new(FaultPlan::from_seed(s))),
            // Breakers recover on a wall-clock cooldown and route to the
            // uninjected software fallback while open — replay's schedule
            // would depend on real time. Always replay breakers-off.
            breaker: BreakerConfig { enabled: false, ..Default::default() },
            alt: AltConfig { enabled: h.alt, ..Default::default() },
            trace: None,
            ..Default::default()
        },
        registry,
    );
    let report = run(trace, Target::Local(&server), opts);
    drop(server);
    Ok(report)
}

/// Replays a trace through the wire against a live netd at `addr`. The
/// daemon must be *fresh* (its id counter at 1) and started with the same
/// `--world-seed`, `--map-size`, and `--chaos-seed` the header records —
/// replay verifies none of that and the id/fault checks will catch a
/// stale or misconfigured daemon as mismatches.
pub fn replay_remote(
    trace: &TraceFile,
    addr: SocketAddr,
    opts: ReplayOptions,
) -> Result<ReplayReport, String> {
    let mut conn = NetClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(run(trace, Target::Remote(&mut conn), opts))
}

fn run(trace: &TraceFile, mut target: Target<'_>, opts: ReplayOptions) -> ReplayReport {
    let mut report =
        ReplayReport { skipped_rejections: trace.rejections().count(), ..Default::default() };
    let fault_armed = trace.header.fault_seed.is_some();
    if fault_armed && trace.header.breaker {
        report.warnings.push(
            "trace recorded with BOTH a fault seed and circuit breakers enabled: breaker \
             cooldowns are wall-clock, so the recorded fallback routing may not reproduce \
             (loadgen/netd disable breakers automatically when recording chaos runs)"
                .to_string(),
        );
    }

    // Per-map delta queues in file order — per map that order is version
    // order, because versions increment under the registry's apply lock.
    let mut pending_deltas: HashMap<&str, VecDeque<&DeltaRecord>> = HashMap::new();
    for d in trace.deltas() {
        pending_deltas.entry(d.map.as_str()).or_default().push_back(d);
    }

    // Admission order = id order (ids are assigned by a single atomic at
    // admission); file order is completion order, which replay must not
    // follow.
    let mut plans: Vec<&PlanRecord> = trace.plans().collect();
    plans.sort_by_key(|p| p.id);

    for rec in plans {
        // Re-apply every delta batch this request's admission version
        // fence says it observed.
        if let Some(queue) = pending_deltas.get_mut(rec.req.map.as_str()) {
            while queue.front().is_some_and(|d| d.version <= rec.map_version) {
                let d = queue.pop_front().expect("front checked");
                apply_one(&mut target, d, &mut report);
            }
        }

        if rec.map_version_done > rec.map_version {
            report.midflight_warnings += 1;
            report.warnings.push(format!(
                "id {}: raced a delta while in flight (map {} v{} -> v{}); the recorded \
                 answer may reflect either snapshot",
                rec.id, rec.req.map, rec.map_version, rec.map_version_done
            ));
        }

        let recorded_kind = rec.outcome;
        if recorded_kind == OutcomeKind::Planned {
            report.planned_recorded += 1;
            if let Some(d) = record_cost_digest(rec) {
                report.recorded_cost_digest ^= d;
            }
        }
        if recorded_kind.timing_dependent() && opts.lenient_timing {
            report.skipped_timing += 1;
            continue;
        }

        report.replayed += 1;
        let (live_id, live_outcome) = match target.plan(rec) {
            Ok(x) => x,
            Err(m) => {
                report.mismatches.push(m);
                continue;
            }
        };
        if live_id != rec.id {
            report.id_drift += 1;
            let msg =
                format!("id {}: replay assigned id {live_id} (recorded ids have a gap)", rec.id);
            if fault_armed {
                // Fault sites key on the request id; drifted ids draw a
                // different fault schedule, so nothing downstream is
                // comparable.
                report.mismatches.push(format!("{msg}; fault seed armed, schedule diverges"));
            } else {
                report.warnings.push(msg);
            }
        }

        let live_kind = OutcomeKind::of(&live_outcome);
        if recorded_kind.timing_dependent() {
            if live_kind != recorded_kind {
                report.mismatches.push(format!(
                    "id {}: recorded wall-clock outcome {} replayed as {} (timing is not \
                     reproducible; pass --lenient-timing to skip such records)",
                    rec.id,
                    recorded_kind.name(),
                    live_kind.name()
                ));
            }
            continue;
        }
        if live_kind != recorded_kind {
            report.mismatches.push(format!(
                "id {}: recorded {} replayed as {}",
                rec.id,
                recorded_kind.name(),
                live_kind.name()
            ));
            continue;
        }
        if let Outcome::Planned(p) = &live_outcome {
            report.planned_replayed += 1;
            report.replayed_cost_digest ^= plan_cost_digest(&rec.req, p);
            if p.path.found() != rec.found {
                report.mismatches.push(format!(
                    "id {}: recorded found={} replayed found={}",
                    rec.id,
                    rec.found,
                    p.path.found()
                ));
            }
            let live_canon = canonical_planned_cost_bits(p);
            if live_canon != rec.canon_cost_bits {
                report.mismatches.push(format!(
                    "id {}: canonical cost bits diverged: recorded {:#018x} replayed {:#018x}",
                    rec.id, rec.canon_cost_bits, live_canon
                ));
            }
        }
    }

    // Deltas recorded after the last plan on their map still belong to
    // the run — apply and verify them too.
    let mut leftovers: Vec<&DeltaRecord> = pending_deltas.into_values().flatten().collect();
    leftovers.sort_by_key(|d| (d.map.as_str(), d.version));
    for d in leftovers {
        apply_one(&mut target, d, &mut report);
    }
    report
}

fn apply_one(target: &mut Target<'_>, d: &DeltaRecord, report: &mut ReplayReport) {
    match target.apply(d) {
        Ok((version, changed)) => {
            report.deltas_applied += 1;
            if version != d.version || changed != d.changed as u64 {
                report.mismatches.push(format!(
                    "map {}: delta batch diverged: recorded v{} ({} changed), replayed v{version} \
                     ({changed} changed)",
                    d.map, d.version, d.changed
                ));
            }
        }
        Err(m) => report.mismatches.push(m),
    }
}
