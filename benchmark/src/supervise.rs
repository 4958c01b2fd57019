//! The command line and the supervising side of a run: generate each
//! workload's tasks, plan their reference answers, and hand them to a
//! measured child process.

use crate::metrics::{self, parse_metric_line, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartiles};
use crate::tasks::{generate, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

/// The default seed; a claim must also hold on the hold-out seed 23.
const DEFAULT_SEED: u64 = 19;

const USAGE: &str = "\
usage: racod-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
       racod-benchmark aa --runs N [--seed S] [--seconds N]
       racod-benchmark manifest

run       measure car_local, churn_threads, mix_fleet and point_wire (or one
          of them), each in its own pinned child process; --trace is the
          separate traced run that yields the per-layer numbers and writes
          benchmark/out/trace-<workload>.json
aa        run the whole benchmark N times (N even, at least 6), compare the
          odd runs with the even ones, and fail if a gap exceeds its bound
manifest  print BENCHMARK.json";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o =
        Options { workload: None, seed: DEFAULT_SEED, seconds: RUN_SECONDS, trace: false, runs: 0 };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => o.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                o.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds must be 1 to 60".to_string());
                }
            }
            "--runs" => o.runs = value("a number")?.parse().map_err(|_| "bad --runs")?,
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// What a measured child printed.
struct ChildRun {
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// The task list of `w`, every task planned by the reference planner, as
/// the text a measured child reads.
fn prepare(w: Workload, o: &Options) -> String {
    generate(w, o.seed, w.requests(o.seconds)).encode()
}

/// Measures one workload in a child that receives `list` on its standard
/// input. With `echo` the child's output is passed through, so its last
/// line is this process's last line.
fn measure(list: &str, trace: bool, echo: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["serve", "--trace", if trace { "1" } else { "0" }])
        // With glibc's default of one malloc arena per thread, which arena a
        // freed template returns to depends on thread timing: four runs of
        // one build on one seed read a peak RSS of 77–100 MB on `mix_fleet`
        // (55–66 MB on `car_local`). With one arena they read 40.9–41.2 MB
        // (37.0–38.0 MB), and the service is a few percent faster.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the measured process: {e}"))?;
    let sent = child.stdin.take().expect("piped stdin").write_all(list.as_bytes());
    let mut metrics = Vec::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| format!("reading the measured process: {e}"))?;
        if echo {
            println!("{line}");
        }
        metrics.extend(parse_metric_line(&line));
    }
    let status = child.wait().map_err(|e| format!("waiting for the measured process: {e}"))?;
    sent.map_err(|e| format!("sending the task list: {e}"))?;
    Ok(ChildRun { ok: status.success(), metrics })
}

fn run(o: &Options) -> Result<bool, String> {
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in workloads {
        ok &= measure(&prepare(w, o), o.trace, true)?.ok;
    }
    Ok(ok)
}

/// `aa`: two sets of runs of the same code must agree within the bounds.
fn aa(o: &Options) -> Result<bool, String> {
    if o.runs < 6 || !o.runs.is_multiple_of(2) {
        return Err("--runs must be even and at least 6".to_string());
    }
    let lists = Workload::ALL.map(|w| prepare(w, o));
    // values[(workload, metric)] = one value per run, in run order.
    let mut values: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for run in 0..o.runs {
        for (w, list) in Workload::ALL.iter().zip(&lists) {
            // The untraced run gives the end-to-end metrics; the traced one
            // the exact counts, which must not differ between runs at all.
            for trace in [false, true] {
                let child = measure(list, trace, false)?;
                ok &= child.ok;
                for (name, v) in child.metrics {
                    let keep = if trace {
                        PER_LAYER.iter().any(|m| m.exact && m.name == name)
                    } else {
                        true
                    };
                    if keep {
                        values.entry((w.name(), name)).or_default().push(v);
                    }
                }
            }
            println!("run {} of {}: {} done", run + 1, o.runs, w.name());
        }
    }

    println!("\nworkload metric | A median [q1 q3] | B median [q1 q3] | gap (bound) | range");
    let spread = |v: &[f64]| {
        let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) / median(v)
    };
    for ((workload, name), v) in &values {
        if let Some(exact) = PER_LAYER.iter().find(|m| m.exact && m.name == name) {
            // They come from the ladder pass, which runs one task after the
            // other whatever the workload's client count.
            let same = v.iter().all(|x| x.to_bits() == v[0].to_bits());
            println!(
                "{workload} {} | exact: {} | {}",
                exact.name,
                v[0],
                if same { "identical" } else { "DIFFERS" }
            );
            ok &= same;
            continue;
        }
        let (a, b): (Vec<f64>, Vec<f64>) = (
            v.iter().step_by(2).copied().collect(),
            v.iter().skip(1).step_by(2).copied().collect(),
        );
        let ((a1, a3), (b1, b3)) = (quartiles(&a), quartiles(&b));
        let (ma, mb) = (median(&a), median(&b));
        let bounded = END_TO_END.iter().find(|m| m.name == name);
        let gap = bounded.map_or(Better::Lower, |m| m.better).worsening(ma, mb).abs();
        let verdict = match bounded {
            Some(m) if gap > m.bound => {
                ok = false;
                format!("{:.2} % (bound {:.0} %) EXCEEDED", gap * 100.0, m.bound * 100.0)
            }
            Some(m) => format!("{:.2} % (bound {:.0} %)", gap * 100.0, m.bound * 100.0),
            None => format!("{:.2} % (diagnostic)", gap * 100.0),
        };
        println!(
            "{workload} {name} | {ma:.4} [{a1:.4} {a3:.4}] | {mb:.4} [{b1:.4} {b3:.4}] | {verdict} | {:.2} %",
            spread(v) * 100.0
        );
    }
    // Calibration has to pay: calibrated throughput must spread less than raw.
    for w in Workload::ALL {
        let of = |name: &str| spread(&values[&(w.name(), name.to_string())]) * 100.0;
        println!(
            "{}: range of plans_per_core_s {:.2} % vs harness.raw_plans_per_s {:.2} %",
            w.name(),
            of("plans_per_core_s"),
            of("harness.raw_plans_per_s")
        );
    }
    Ok(ok)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("--help", &[][..]),
    };
    let outcome = match command {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        // The measured child: `serve --trace <0|1>`, task list on stdin.
        "serve" => return crate::child::main(rest.last().is_some_and(|t| t == "1")),
        "run" => parse(rest).and_then(|o| run(&o)),
        "aa" => parse(rest).and_then(|o| aa(&o)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
