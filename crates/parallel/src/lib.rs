#![warn(missing_docs)]

//! Real multithreaded software planners (paper §6).
//!
//! The paper evaluates RASExp implemented purely in software on commodity
//! CPUs. This crate provides that implementation with *actual threads*: a
//! crossbeam-channel worker pool performs collision checks, a shared atomic
//! status table memoizes results, and the planner thread runs the A* loop
//! issuing demand batches (joined per expansion, as in Algorithm 1 line 18)
//! and speculative runahead jobs (never joined).
//!
//! Functional equivalence with the single-threaded planner is exact: the
//! expansion order depends only on the verdicts, which are deterministic.
//!
//! Each hand-off to a pool thread (a channel send, a wake, a wait for the
//! verdict) costs microseconds, so the pool pays only for checks that cost
//! well above that. The template kernel's take about 0.2 µs, which is why
//! the planning server checks them on its own thread.
//!
//! # Example
//!
//! ```
//! use racod_parallel::{ParallelPlanner, ParallelConfig};
//! use racod_grid::BitGrid2;
//! use racod_geom::Cell2;
//! use std::sync::Arc;
//!
//! let grid = Arc::new(BitGrid2::new(32, 32));
//! let g = grid.clone();
//! let planner = ParallelPlanner::new(ParallelConfig::rasexp(4, 8),
//!     move |c: Cell2| g.get(c) == Some(false));
//! let space = racod_search::GridSpace2::eight_connected(32, 32);
//! let r = planner.plan(&space, Cell2::new(1, 1), Cell2::new(30, 30));
//! assert!(r.result.found());
//! ```

mod pool;
mod status;

pub use pool::{ParallelConfig, ParallelPlanner, ParallelRun, ThreadCensus, WorkerPool};
pub use status::{StatusTable, WaitOutcome};
