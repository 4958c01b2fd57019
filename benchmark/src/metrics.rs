//! The metric names every later performance claim is stated in, and the
//! `BENCHMARK.json` that lists them.

use crate::tasks::Workload;
use std::fmt::Write as _;

/// The run budget the driver passes as `--seconds`; request counts scale
/// from it (see [`Workload::requests`]).
pub const RUN_SECONDS: u32 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

/// A metric a user of the service would see. The same five are reported on
/// every workload; all times are calibrated ("reference" seconds).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "plans_per_core_s", unit: "1/s", better: Better::Higher, bound: 0.10 },
    EndToEnd { name: "p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "p90_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

/// A metric of one layer, from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Identical between any two runs of one commit on the single-client
    /// workloads.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// Which end-to-end metric each of these should move, on which workload,
/// is written down in `benchmark/README.md` before anyone optimises.
pub const PER_LAYER: [PerLayer; 56] = [
    layer("net.self_us", "us", Lower),
    layer("net.share", "ratio", Lower),
    layer("net.codec_us", "us", Lower),
    layer("server.self_us", "us", Lower),
    layer("server.share", "ratio", Lower),
    layer("server.queue_us_p50", "us", Lower),
    layer("server.service_us_p50", "us", Lower),
    layer("server.delta_ms", "ms", Lower),
    layer("server.p50_high_ms", "ms", Lower),
    layer("server.p50_low_ms", "ms", Lower),
    layer("server.batch_mean", "count", Higher),
    layer("server.affinity_hit_rate", "ratio", Higher),
    layer("server.template_hit_rate", "ratio", Higher),
    layer("server.spec_prechecks_per_plan", "count", Lower),
    layer("server.spec_hit_rate", "ratio", Higher),
    layer("server.spec_wasted_per_plan", "count", Lower),
    layer("server.replans_per_plan", "count", Lower),
    layer("server.incremental_repairs_per_plan", "count", Higher),
    layer("sim.plan_us", "us", Lower),
    layer("sim.self_us", "us", Lower),
    layer("sim.share", "ratio", Lower),
    layer("sim.self_us_per_expansion", "us", Lower),
    exact("sim.cycles_per_plan", "cycles", Lower),
    layer("sim.host_ns_per_cycle", "ns", Lower),
    layer("parallel.plan_us", "us", Lower),
    layer("parallel.self_us", "us", Lower),
    layer("parallel.share", "ratio", Lower),
    layer("search.self_us", "us", Lower),
    layer("search.share", "ratio", Lower),
    layer("search.ns_per_expansion", "ns", Lower),
    exact("search.expansions_per_plan", "count", Lower),
    exact("search.checks_per_plan", "count", Lower),
    layer("codacc.model_ns_per_check", "ns", Lower),
    layer("codacc.model_share", "ratio", Lower),
    exact("codacc.model_cycles_per_check", "cycles", Lower),
    layer("codacc.kernel_ns_per_check", "ns", Lower),
    layer("codacc.kernel_share", "ratio", Lower),
    layer("geom.template_build_us", "us", Lower),
    layer("geom.builds_per_plan", "count", Lower),
    layer("geom.template_hit_rate", "ratio", Higher),
    layer("geom.share", "ratio", Lower),
    layer("grid.apply_delta_us", "us", Lower),
    layer("grid.share", "ratio", Lower),
    exact("rasexp.accuracy", "ratio", Higher),
    exact("rasexp.coverage", "ratio", Higher),
    layer("rasexp.targets_us", "us", Lower),
    exact("mem.l0_hit_rate", "ratio", Higher),
    layer("harness.speed_factor", "ratio", Higher),
    layer("harness.burst_cv", "ratio", Lower),
    layer("harness.stall_share", "ratio", Lower),
    layer("harness.raw_plans_per_s", "1/s", Higher),
    layer("harness.raw_p50_ms", "ms", Lower),
    layer("harness.p99_ms", "ms", Lower),
    layer("harness.reference_s", "s", Lower),
    layer("harness.trace_overhead_share", "ratio", Lower),
    layer("harness.pinned_cpu", "id", Higher),
];

/// Named values of one run, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// `BENCHMARK.json`, generated from the tables above so that the names the
/// program prints and the names the file promises cannot drift apart.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ =
            writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name(), w.why());
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// A JSON number for `v`: the contract has no infinity, and a p99 that is
/// infinite because more than 1 % of requests failed must still print.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The line every metric is printed on, for people and for the A/A tool.
pub fn metric_line(name: &str, value: f64) -> String {
    format!("metric {name} {} {}", json_number(value), unit_of(name))
}

/// Reads a [`metric_line`] back.
pub fn parse_metric_line(line: &str) -> Option<(String, f64)> {
    let mut fields = line.strip_prefix("metric ")?.split(' ');
    Some((fields.next()?.to_string(), fields.next()?.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for n in &names {
            assert!(well_formed(n, 64), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.10, "{}: never wider than 10 %", m.name);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `-- manifest > BENCHMARK.json`");
    }

    #[test]
    fn result_and_metric_lines_are_what_the_readers_expect() {
        let values: Values = vec![("p50_ms", 1.25), ("p90_ms", f64::INFINITY)];
        let line = result_line(true, 1100, 3, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1100, \"failed\": 3, "));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(!line.contains("inf"), "JSON has no infinity: {line}");
        let printed = metric_line("p50_ms", 1.25);
        assert_eq!(printed, "metric p50_ms 1.25 ms");
        assert_eq!(parse_metric_line(&printed), Some(("p50_ms".to_string(), 1.25)));
        assert_eq!(parse_metric_line("seed 19"), None);
    }

    #[test]
    fn worsening_has_a_direction() {
        assert!((Better::Higher.worsening(100.0, 92.0) - 0.08).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 92.0) + 0.08).abs() < 1e-12);
    }
}
