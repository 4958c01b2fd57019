#![warn(missing_docs)]

//! Graph search for mobile robot path planning.
//!
//! Mobile robot planning reduces to a graph search problem (paper §2.2.1):
//! nodes are states (locations), edges are robot motions. This crate
//! provides:
//!
//! * [`SearchSpace`] — the abstraction over 2D/3D grid graphs
//!   ([`GridSpace2`], [`GridSpace3`]) with 4/8- and 6/26-connectivity;
//! * [`astar`][crate::astar()] — A*, Weighted A* (heuristic inflated by ε), and Dijkstra
//!   (ε-weighted zero heuristic), with deterministic tie-breaking so that
//!   the RASExp equivalence invariant (identical expansion order) can be
//!   asserted exactly;
//! * [`Heuristic2`]/[`Heuristic3`] — Euclidean, Manhattan, octile/diagonal,
//!   the non-uniform diagonal of §5.9, and the zero heuristic;
//! * [`LandmarkPack2`]/[`AltSpace2`] — ALT (landmark / differential)
//!   heuristics: K precomputed distance fields whose triangle-inequality
//!   bound is maxed with the configured heuristic, cutting expansions
//!   toward the perfect-heuristic limit while staying admissible;
//! * [`CollisionOracle`] — the seam through which collision detection is
//!   performed per expansion. The baseline oracle checks each eligible
//!   neighbor on demand; `racod-rasexp` provides the runahead oracle;
//! * [`pase`][crate::pase()] — the PA*SE baseline (parallel A* for slow expansions) in a
//!   functional form that also reports the independence-check work and the
//!   available expansion parallelism for the Fig 13 platform models.
//!
//! # Example
//!
//! ```
//! use racod_search::{astar, AstarConfig, FnOracle, GridSpace2, Heuristic2};
//! use racod_grid::BitGrid2;
//! use racod_geom::Cell2;
//!
//! let grid = BitGrid2::new(32, 32);
//! let space = GridSpace2::eight_connected(32, 32);
//! let mut oracle = FnOracle::new(|c: Cell2| grid.get(c) == Some(false));
//! let result = astar(&space, Cell2::new(1, 1), Cell2::new(30, 30),
//!                    &AstarConfig::default(), &mut oracle);
//! assert!(result.path.is_some());
//! ```

pub mod astar;
pub mod distance_field;
pub mod heuristics;
pub mod interrupt;
pub mod landmark;
pub mod oracle;
pub mod pase;
pub mod path;
pub mod scratch;
pub mod space;
pub mod stats;

pub use astar::{astar, astar_in, AstarConfig, SearchResult, Termination};
pub use distance_field::DistanceField;
pub use heuristics::{Heuristic2, Heuristic3};
pub use interrupt::{Interrupt, InterruptProbe, InterruptReason};
pub use landmark::{AltSpace2, LandmarkPack2};
pub use oracle::{BatchFnOracle, CollisionOracle, Direction, ExpansionContext, FnOracle};
pub use pase::{pase, pase_in, PaseConfig, PaseResult};
pub use path::{canonical_cost_2d, canonical_cost_3d, canonical_steps_2d, canonical_steps_3d};
pub use scratch::{IntHeap, SearchScratch};
pub use space::{Connectivity2, Connectivity3, GridSpace2, GridSpace3, SearchSpace};
pub use stats::SearchStats;
