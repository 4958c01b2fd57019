//! `racod-netd`: one planning shard, serving the racod-net wire protocol
//! over TCP around an embedded scheduler.
//!
//! `racod-netd --help` lists every flag.
//!
//! `--trace-dir DIR` records every request this shard serves to
//! `DIR/racod-netd-<pid>.trace` (printed as `racod-netd trace <path>` at
//! startup); `racod-cli replay --remote` can then re-drive the shard and
//! assert bit-identical answers. `--chaos-seed S` arms the scheduler-level
//! fault plan from seed S — unlike `--fault-seed`, which only drives the
//! wire-level drop/corrupt rules — so a recorded chaos run can re-arm the
//! identical panic schedule on replay.
//!
//! The world is rebuilt deterministically from `(--world-seed,
//! --map-size)`; every shard in a fleet started with the same pair holds
//! the identical registry, which is what makes router failover
//! answer-preserving.
//!
//! Prints `racod-netd listening on <addr>` once accepting (tests and
//! scripts use this as the readiness line). SIGTERM or SIGINT triggers a
//! graceful drain: stop admitting, finish in-flight work (bounded by
//! `--drain-deadline`), exit 0 on a clean drain.

use racod_fault::{FaultAction, FaultPlan, FaultSite};
use racod_net::{signals, standard_world, ConnConfig, Netd, NetdConfig};
use racod_server::{AltConfig, BreakerConfig, ServerConfig, TraceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    addr: String,
    world_seed: u64,
    map_size: u32,
    workers: usize,
    queue: usize,
    alt: bool,
    drain_deadline: Duration,
    net_drop_ppm: u32,
    net_corrupt_ppm: u32,
    fault_seed: u64,
    chaos_seed: Option<u64>,
    trace_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:0".to_string(),
            world_seed: 7,
            map_size: 128,
            workers: 4,
            queue: 256,
            alt: false,
            drain_deadline: Duration::from_secs(5),
            net_drop_ppm: 0,
            net_corrupt_ppm: 0,
            fault_seed: 1,
            chaos_seed: None,
            trace_dir: None,
        }
    }
}

fn parsed<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {name}: {v}");
        std::process::exit(2);
    })
}

/// Parses `5ms`, `250us`, `1s`, or a bare number (milliseconds).
fn parse_duration(name: &str, v: &str) -> Duration {
    let (digits, scale_us) = if let Some(d) = v.strip_suffix("us") {
        (d, 1u64)
    } else if let Some(d) = v.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (v, 1_000)
    };
    match digits.parse::<u64>() {
        Ok(n) => Duration::from_micros(n.saturating_mul(scale_us)),
        Err(_) => {
            eprintln!("invalid duration for {name}: {v} (expected e.g. 5ms, 250us, 1s)");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
racod-netd — one planning shard serving the racod-net protocol over TCP

usage: racod-netd [--addr 127.0.0.1:0] [--world-seed 7] [--map-size 128]
                  [--workers 4] [--queue 256] [--alt on|off] [--drain-deadline 5s]
                  [--net-drop-ppm N] [--net-corrupt-ppm N] [--fault-seed S]
                  [--chaos-seed S] [--trace-dir DIR]

example:
  racod-netd --addr 127.0.0.1:7461 --world-seed 7 --map-size 64 --workers 2

Prints `racod-netd listening on <addr>` once accepting; SIGTERM drains and
exits 0. Exit 2 on a bad argument.";

fn parse_args() -> Options {
    let mut o = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let mut i = 0;
    while i < args.len() {
        let name = args[i].as_str();
        let v = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {name}");
            std::process::exit(2);
        });
        match name {
            "--addr" => o.addr = v,
            "--world-seed" => o.world_seed = parsed(name, &v),
            "--map-size" => o.map_size = parsed(name, &v),
            "--workers" => o.workers = parsed(name, &v),
            "--queue" => o.queue = parsed(name, &v),
            "--alt" => {
                o.alt = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => {
                        eprintln!("invalid value for --alt: {v} (expected on or off)");
                        std::process::exit(2);
                    }
                }
            }
            "--drain-deadline" => o.drain_deadline = parse_duration(name, &v),
            "--net-drop-ppm" => o.net_drop_ppm = parsed(name, &v),
            "--net-corrupt-ppm" => o.net_corrupt_ppm = parsed(name, &v),
            "--fault-seed" => o.fault_seed = parsed(name, &v),
            "--chaos-seed" => o.chaos_seed = Some(parsed(name, &v)),
            "--trace-dir" => o.trace_dir = Some(PathBuf::from(v)),
            _ => {
                eprintln!("unknown argument {name}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if o.workers == 0 {
        eprintln!("--workers must be >= 1");
        std::process::exit(2);
    }
    o
}

fn main() {
    let o = parse_args();
    signals::install();
    let (registry, _pools) = standard_world(o.world_seed, o.map_size);

    let mut conn = ConnConfig::default();
    if o.net_drop_ppm > 0 || o.net_corrupt_ppm > 0 {
        let mut b = FaultPlan::builder(o.fault_seed);
        if o.net_drop_ppm > 0 {
            b = b.rule(FaultSite::Net, o.net_drop_ppm, FaultAction::Drop);
        }
        if o.net_corrupt_ppm > 0 {
            b = b.rule(FaultSite::Net, o.net_corrupt_ppm, FaultAction::Corrupt);
        }
        conn.fault = Some(Arc::new(b.build()));
    }

    let trace_path =
        o.trace_dir.as_ref().map(|d| d.join(format!("racod-netd-{}.trace", std::process::id())));
    let cfg = NetdConfig {
        addr: o.addr,
        server: ServerConfig {
            workers: o.workers,
            queue_capacity: o.queue,
            alt: AltConfig { enabled: o.alt, ..Default::default() },
            // A chaos-armed daemon is a test target, not a production
            // shard: breaker cooldowns are wall-clock, which makes the
            // injected-fault schedule timing-dependent, so disable breakers
            // so a recorded or replayed run against this daemon is
            // deterministic.
            breaker: BreakerConfig { enabled: o.chaos_seed.is_none(), ..Default::default() },
            fault_plan: o.chaos_seed.map(|s| Arc::new(FaultPlan::from_seed(s))),
            trace: trace_path.as_ref().map(|path| TraceConfig {
                tenant: "netd".to_string(),
                world_seed: o.world_seed,
                map_size: o.map_size,
                note: format!("racod-netd --workers {} --queue {}", o.workers, o.queue),
                ..TraceConfig::new(path)
            }),
            ..Default::default()
        },
        conn,
        drain_deadline: o.drain_deadline,
    };
    let netd = match Netd::start(cfg, registry) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("racod-netd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(seed) = o.chaos_seed {
        println!("racod-netd chaos armed from seed {seed} (breakers off for deterministic replay)");
    }
    if let Some(path) = &trace_path {
        println!("racod-netd trace {}", path.display());
    }
    println!("racod-netd listening on {}", netd.local_addr());

    while !signals::triggered() {
        if netd.draining() {
            // A DrainReq frame arrived; treat it like a signal.
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("racod-netd draining");
    let leftover = netd.shutdown();
    if leftover == 0 {
        println!("racod-netd drained cleanly");
        std::process::exit(0);
    }
    eprintln!("racod-netd drain deadline expired with {leftover} in flight");
    std::process::exit(1);
}
