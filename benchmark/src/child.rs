//! The measured process: one workload, pinned to one core.
//!
//! It reads its task list from standard input, sets up, serves the tasks
//! and prints a run header, every metric by name, and the result line the
//! driver reads. Nothing of the harness's own reference planning runs here,
//! so `peak_rss_mb` is the program's memory, not the benchmark's.

use crate::calib::{self, Phase};
use crate::ladder;
use crate::metrics::{metric_line, result_line, Values, END_TO_END, PER_LAYER};
use crate::serve::{measure, set_up, Measured, Verdict};
use crate::stats::{cv, median, percentile, samples_beyond};
use crate::tasks::TaskList;
use std::io::Read;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Untraced runs set up this many times and report the median, so one slow
/// start cannot move `setup_s`.
const SETUPS: usize = 5;

/// Client-side view of the measured phase.
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub wrong_cost: usize,
    pub plans_per_core_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub raw_plans_per_s: f64,
    pub raw_p50_ms: f64,
    pub speed_factor: f64,
    pub burst_cv: f64,
    pub stall_share: f64,
}

/// Raw median latency of the served requests: the time scale at which the
/// bursts are read for latency samples.
pub fn typical_latency(m: &Measured) -> Duration {
    let mut raw: Vec<Duration> = m.samples.iter().map(|s| s.latency).collect();
    raw.sort_unstable();
    raw[raw.len() / 2]
}

/// Latency of every sample in reference ms (`+∞` for a failed request),
/// each scaled by the calibration factor of the chunk it ran in.
pub fn calibrated_ms(m: &Measured) -> Vec<f64> {
    let span = Some(typical_latency(m));
    let factors: Vec<f64> = (0..m.phase.walls.len()).map(|k| m.phase.factor(k, span)).collect();
    m.samples
        .iter()
        .map(|s| match s.verdict {
            Verdict::Ok => s.latency.as_secs_f64() * 1e3 * factors[s.chunk],
            _ => f64::INFINITY,
        })
        .collect()
}

pub fn summarize(m: &Measured) -> Summary {
    let ok = m.samples.iter().filter(|s| s.verdict == Verdict::Ok).count();
    let raw_ms: Vec<f64> = m.samples.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    let latencies = calibrated_ms(m);
    let phase = &m.phase;
    let wall: f64 = phase.walls.iter().map(|w| w.as_secs_f64()).sum();
    let calibrated: f64 = (0..phase.walls.len()).map(|k| phase.calibrated_s(k)).sum();
    let slowness: Vec<f64> =
        phase.bursts.iter().map(|b| b.slowness(phase.deep_weight, None)).collect();
    // Requests that met a stall of the host sit at the top of the
    // distribution, so the program's percentiles are read that much lower.
    let stall_share = phase.stall_share(typical_latency(m));
    let unstalled = 1.0 - stall_share;
    Summary {
        attempted: m.samples.len(),
        failed: m.samples.len() - ok,
        wrong_cost: m.samples.iter().filter(|s| s.verdict == Verdict::WrongCost).count(),
        plans_per_core_s: ok as f64 / calibrated,
        p50_ms: percentile(&latencies, 0.50 * unstalled),
        p90_ms: percentile(&latencies, 0.90 * unstalled),
        p99_ms: percentile(&latencies, 0.99),
        raw_plans_per_s: ok as f64 / wall,
        raw_p50_ms: percentile(&raw_ms, 0.50),
        speed_factor: slowness.len() as f64 / slowness.iter().sum::<f64>(),
        burst_cv: cv(&slowness),
        stall_share,
    }
}

fn run(traced: bool) -> Result<bool, String> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text).map_err(|e| format!("reading task list: {e}"))?;
    let list = TaskList::decode(&text)?;
    drop(text);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread exists, so that every thread inherits the mask.
    let cpu = calib::pin_to_highest_cpu()?;

    // All set-ups are pieces of one phase, so each is calibrated against
    // the bursts of its neighbours too.
    let mut phase = Phase::begin(list.workload.deep_weight());
    let mut pieces = Vec::new();
    let mut env = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(env.take()); // shut the previous service down before the next starts
        let first = phase.walls.len();
        env = Some(set_up(&list, list.workload.over_wire(), &mut phase)?);
        pieces.push(first..phase.walls.len());
    }
    let setups: Vec<f64> =
        pieces.into_iter().map(|r| r.map(|k| phase.calibrated_s(k)).sum()).collect();
    let mut env = env.expect("at least one set-up");

    let epoch = Instant::now();
    let measured = measure(&mut env, &list, epoch);
    let summary = summarize(&measured);
    let counters = ladder::ServerCounters::read(env.metrics(), env.registry());
    drop(env);

    println!("workload {} traced {}", list.workload.name(), traced as u8);
    println!("available_parallelism {parallelism} pinned_cpu {cpu}");
    println!(
        "seed {} task_digest {:016x} reference_digest {:016x}",
        list.seed,
        list.digest(),
        list.reference_digest()
    );
    println!(
        "samples {} ({} beyond p99) attempted {} failed {} wrong_cost {}",
        measured.samples.len(),
        samples_beyond(measured.samples.len(), 0.99),
        summary.attempted,
        summary.failed,
        summary.wrong_cost
    );
    println!("simd {:?} build {}", racod_codacc::simd_level(), racod_server::build_id(false, true));

    let mut harness: Values = vec![
        ("harness.speed_factor", summary.speed_factor),
        ("harness.burst_cv", summary.burst_cv),
        ("harness.stall_share", summary.stall_share),
        ("harness.raw_plans_per_s", summary.raw_plans_per_s),
        ("harness.raw_p50_ms", summary.raw_p50_ms),
        ("harness.p99_ms", summary.p99_ms),
        ("harness.reference_s", list.reference_s),
    ];
    let values: Values = if traced {
        let overhead = ladder::trace_overhead(&list, summary.plans_per_core_s);
        harness.push(("harness.trace_overhead_share", overhead));
        harness.push(("harness.pinned_cpu", cpu as f64));
        let mut layers = ladder::run(&list, &measured, &counters, epoch)?;
        layers.extend(harness);
        assert!(PER_LAYER.iter().map(|m| m.name).eq(layers.iter().map(|(n, _)| *n)));
        layers
    } else {
        harness.push(("harness.pinned_cpu", cpu as f64));
        ladder::remember_untraced(&list, summary.plans_per_core_s);
        for (name, value) in &harness {
            println!("{}", metric_line(name, *value));
        }
        let values = vec![
            ("plans_per_core_s", summary.plans_per_core_s),
            ("p50_ms", summary.p50_ms),
            ("p90_ms", summary.p90_ms),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", calib::peak_rss_mb()?),
        ];
        assert!(END_TO_END.iter().map(|m| m.name).eq(values.iter().map(|(n, _)| *n)));
        values
    };
    for (name, value) in &values {
        println!("{}", metric_line(name, *value));
    }
    let correct = summary.wrong_cost == 0;
    println!("{}", result_line(correct, summary.attempted, summary.failed, &values));
    Ok(correct)
}

/// Entry point of `serve --trace <0|1>`.
pub fn main(traced: bool) -> ExitCode {
    match run(traced) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a served plan's cost differs from its reference");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
