//! End-to-end and per-layer benchmark of the RACOD planning service.
//!
//! `run` measures the four workloads, `run --trace` yields the per-layer
//! numbers, `aa` checks that two sets of runs of one build agree within
//! the bounds. See `README.md`.

mod calib;
mod child;
mod ladder;
mod metrics;
mod reference;
mod serve;
mod stats;
mod supervise;
mod tasks;
mod trace;

fn main() -> std::process::ExitCode {
    supervise::main()
}
