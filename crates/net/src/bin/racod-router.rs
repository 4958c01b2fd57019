//! `racod-router`: consistent-hashing front door for a fleet of
//! `racod-netd` shards.
//!
//! `racod-router --help` lists every flag.
//!
//! Prints `racod-router listening on <addr> (<n> backends)` once
//! accepting. SIGTERM/SIGINT stops accepting and exits; backends drain on
//! their own schedule.

use racod_net::{signals, Router, RouterConfig};
use std::net::SocketAddr;
use std::time::Duration;

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
racod-router — consistent-hashing front door for racod-netd shards

usage: racod-router [--addr 127.0.0.1:0] --backend HOST:PORT [--backend HOST:PORT ...]
                    [--vnodes 64] [--probe-interval 50ms] [--per-shard-inflight 64]

example:
  racod-router --addr 127.0.0.1:7460 --backend 127.0.0.1:7461 --backend 127.0.0.1:7462

Prints `racod-router listening on <addr> (<n> backends)` once accepting.
Exit 2 on a bad argument.";

fn main() {
    let mut cfg = RouterConfig::default();
    signals::install();
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
            "--addr" => cfg.addr = v,
            "--backend" => {
                let addr: SocketAddr = parsed(name, &v);
                cfg.backends.push(addr);
            }
            "--vnodes" => cfg.vnodes = parsed(name, &v),
            "--probe-interval" => cfg.probe_interval = parse_duration(name, &v),
            "--per-shard-inflight" => cfg.per_shard_inflight = parsed(name, &v),
            _ => {
                eprintln!("unknown argument {name}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if cfg.backends.is_empty() {
        eprintln!("racod-router: at least one --backend is required");
        std::process::exit(2);
    }
    let n = cfg.backends.len();
    let router = match Router::start(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("racod-router: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("racod-router listening on {} ({n} backends)", router.local_addr());

    while !signals::triggered() {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("racod-router stopping");
    router.shutdown();
}
