#![warn(missing_docs)]

//! # RACOD — algorithm/hardware co-design for mobile robot path planning
//!
//! A from-scratch Rust reproduction of *RACOD* (Bakhshalipour et al., ISCA
//! 2022). RACOD couples two ideas:
//!
//! * **CODAcc** — a tiny collision-detection accelerator that checks an
//!   oriented bounded box against a bit-packed occupancy grid with a
//!   MapReduce-style datapath (parallel address generation, associative
//!   coalescing into cache blocks, pipelined load-to-OR reduction);
//! * **RASExp** — a search-algorithm extension that predicts which states
//!   will be explored next (exploration is *cone-like*), speculatively
//!   checks them on idle accelerators or threads, and memoizes the results
//!   without ever changing the expansion order.
//!
//! This crate is the facade: it re-exports all subsystem crates and hosts
//! the [`experiments`] module, which regenerates every table and figure of
//! the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use racod::prelude::*;
//!
//! // A city-like environment and a car-shaped robot.
//! let grid = city_map(CityName::Boston, 256, 256);
//! let scenario = Scenario2::new(&grid).with_free_endpoints((10, 10), (245, 245));
//!
//! // The software baseline vs RACOD with 8 CODAcc units.
//! let base = plan(&scenario, Backend::software(4, None), &CostModel::i3_software());
//! let racod = plan(&scenario, Backend::racod(8), &CostModel::racod());
//!
//! assert_eq!(base.result.path, racod.result.path); // same answer...
//! assert!(racod.cycles < base.cycles);             // ...much sooner
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`racod_geom`] | vectors, rotations, OBBs, footprint rasterization |
//! | [`racod_grid`] | bit-packed occupancy grids, map I/O, generators |
//! | [`racod_mem`] | L0/L1/TLB cache models |
//! | [`racod_codacc`] | the CODAcc accelerator model and area/power |
//! | [`racod_search`] | A*, Weighted A*, Dijkstra, PA*SE, heuristics |
//! | [`racod_rasexp`] | runahead exploration, predictors, memo table |
//! | [`racod_sim`] | discrete-event timing simulation and platforms |
//! | [`racod_arm`] | 5-DoF arm, RRT, Fig 6 timing |
//! | [`racod_parallel`] | real threaded software planners |
//! | [`racod_viz`] | ASCII/PPM rendering of exploration footprints |

pub mod experiments;

pub use racod_arm as arm;
pub use racod_codacc as codacc;
pub use racod_geom as geom;
pub use racod_grid as grid;
pub use racod_mem as mem;
pub use racod_parallel as parallel;
pub use racod_rasexp as rasexp;
pub use racod_search as search;
pub use racod_sim as sim;
pub use racod_viz as viz;

/// The most common imports in one place.
pub mod prelude {
    pub use racod_arm::{rrt_plan, ArmModel, ArmPlatform, JointConfig, RrtConfig};
    pub use racod_codacc::{
        software_check_2d, software_check_3d, template_check, AreaPowerModel, CodaccPool, Verdict,
    };
    pub use racod_geom::{Cell2, Cell3, Obb2, Obb3, Rotation2, Rotation3, Vec2, Vec3};
    pub use racod_grid::gen::{campus_3d, city_map, random_map, CityName};
    pub use racod_grid::{BitGrid2, BitGrid3, Occupancy2, Occupancy3};
    pub use racod_rasexp::{RunaheadConfig, RunaheadOracle};
    pub use racod_search::{astar, AstarConfig, FnOracle, GridSpace2, GridSpace3, Heuristic2};
    pub use racod_sim::{
        plan, plan_in, Backend, CostModel, Dim, Footprint2, Footprint3, RotKey, Scenario,
        Scenario2, Scenario3, TemplateCache, TemplateCache2, TemplateCache3, TemplateChecker,
        TemplateChecker2, TemplateChecker3, TemplateStats, D2, D3,
    };
}
