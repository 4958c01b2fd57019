//! `racod-cli query`: summarize a trace file without replaying it.
//!
//! Filters the recorded plans by tenant, map, and outcome kind, then
//! prints outcome counts, per-map traffic, and latency quantiles (p50 /
//! p90 / p99 over queue wait, service, and total). The quantile method is
//! nearest-rank over the sorted recorded values — reproducible and exact,
//! no interpolation surprises across runs.

use racod_server::{read_trace, OutcomeKind, PlanRecord, TraceFile};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed `query` invocation.
pub struct QueryArgs {
    trace: PathBuf,
    tenant: Option<String>,
    map: Option<String>,
    outcome: Option<OutcomeKind>,
}

fn outcome_from_name(name: &str) -> Result<OutcomeKind, String> {
    const ALL: [OutcomeKind; 6] = [
        OutcomeKind::Planned,
        OutcomeKind::TimedOutQueued,
        OutcomeKind::TimedOutMidSearch,
        OutcomeKind::Cancelled,
        OutcomeKind::Panicked,
        OutcomeKind::Lost,
    ];
    ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|k| k.name()).collect();
        format!("unknown outcome {name:?} (expected one of {})", names.join(", "))
    })
}

fn parse(args: &[String]) -> Result<QueryArgs, String> {
    let mut trace = None;
    let mut q = QueryArgs { trace: PathBuf::new(), tenant: None, map: None, outcome: None };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let mut val = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match a {
            "--tenant" => q.tenant = Some(val(a)?),
            "--map" => q.map = Some(val(a)?),
            "--outcome" => q.outcome = Some(outcome_from_name(&val(a)?)?),
            _ if a.starts_with("--") => return Err(format!("unknown query flag {a}")),
            _ => {
                if trace.replace(PathBuf::from(a)).is_some() {
                    return Err("query takes exactly one trace path".to_string());
                }
            }
        }
        i += 1;
    }
    q.trace = trace.ok_or("usage: racod-cli query TRACE [--tenant T] [--map M] [--outcome K]")?;
    Ok(q)
}

/// Nearest-rank quantile of an already-sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latency_line(name: &str, mut values: Vec<u64>) -> String {
    values.sort_unstable();
    format!(
        "{name:<12} p50 {:>8} us   p90 {:>8} us   p99 {:>8} us   max {:>8} us",
        quantile(&values, 0.50),
        quantile(&values, 0.90),
        quantile(&values, 0.99),
        values.last().copied().unwrap_or(0),
    )
}

#[allow(clippy::unnecessary_map_or)] // Option::is_none_or needs Rust 1.82; MSRV is 1.74
fn matches(q: &QueryArgs, p: &PlanRecord) -> bool {
    q.tenant.as_deref().map_or(true, |t| t == p.tenant)
        && q.map.as_deref().map_or(true, |m| m == p.req.map.as_str())
        && q.outcome.map_or(true, |k| k == p.outcome)
}

/// Renders the query report for an already-loaded trace. Split from
/// [`run`] so tests can exercise it without a filesystem round trip.
pub fn report(trace: &TraceFile, q: &QueryArgs) -> String {
    let plans: Vec<&PlanRecord> = trace.plans().filter(|p| matches(q, p)).collect();
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };

    line(format!("build      {}", trace.header.build));
    line(format!(
        "world      seed {} map-size {} tenant {:?}",
        trace.header.world_seed, trace.header.map_size, trace.header.tenant
    ));
    match trace.header.fault_seed {
        Some(s) => line(format!(
            "chaos      fault seed {s} armed (breakers {})",
            if trace.header.breaker { "on" } else { "off" }
        )),
        None => line("chaos      no fault plan".to_string()),
    }
    if trace.torn {
        line(format!("integrity  torn tail: {} trailing bytes dropped", trace.dropped_tail));
    }
    line(format!(
        "events     {} plans matched ({} recorded), {} delta batches, {} rejections",
        plans.len(),
        trace.plans().count(),
        trace.deltas().count(),
        trace.rejections().count(),
    ));

    let mut by_outcome: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_map: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &plans {
        *by_outcome.entry(p.outcome.name()).or_default() += 1;
        *by_map.entry(p.req.map.as_str()).or_default() += 1;
    }
    for (name, n) in &by_outcome {
        line(format!("outcome    {name:<18} {n}"));
    }
    for (map, n) in &by_map {
        line(format!("map        {map:<18} {n}"));
    }

    let planned: Vec<&&PlanRecord> =
        plans.iter().filter(|p| p.outcome == OutcomeKind::Planned).collect();
    if !planned.is_empty() {
        line(latency_line("queue wait", planned.iter().map(|p| p.queue_wait_us).collect()));
        line(latency_line("service", planned.iter().map(|p| p.service_us).collect()));
        line(latency_line("total", planned.iter().map(|p| p.total_us).collect()));
        let expansions: u64 = planned.iter().map(|p| p.expansions).sum();
        line(format!(
            "work       {} expansions, {} sim cycles across {} planned",
            expansions,
            planned.iter().map(|p| p.sim_cycles).sum::<u64>(),
            planned.len()
        ));
    }
    out
}

/// Entry point for `racod-cli query`.
pub fn run(args: &[String]) -> Result<(), String> {
    let q = parse(args)?;
    let trace = read_trace(&q.trace).map_err(|e| format!("{}: {e}", q.trace.display()))?;
    print!("{}", report(&trace, &q));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn outcome_names_round_trip() {
        assert_eq!(outcome_from_name("planned").unwrap(), OutcomeKind::Planned);
        assert_eq!(outcome_from_name("timed-out-queued").unwrap(), OutcomeKind::TimedOutQueued);
        assert!(outcome_from_name("bogus").is_err());
    }
}
