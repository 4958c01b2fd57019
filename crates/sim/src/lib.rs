#![warn(missing_docs)]

//! Discrete-event timing simulation of RACOD planning.
//!
//! The paper evaluates RACOD with ZSim on a model of the Intel Core
//! i3-8109U; we substitute a purpose-built discrete-event model that runs
//! the *real* algorithm (actual A* expansions, actual predictions, actual
//! cache-block address streams) and attributes *cycles* to each step from a
//! [`CostModel`]:
//!
//! * the core executes expansions serially (bookkeeping, issue overheads);
//! * collision checks run on execution contexts — software threads or
//!   CODAcc units — tracked by a [`UnitPool`] of busy-until timestamps;
//! * demand checks barrier the expansion (Algorithm 1 line 18) while
//!   speculative checks only occupy units, overlapping future work;
//! * a demand request for a state whose speculative check is still in
//!   flight waits only for the residual (the `PENDING` case).
//!
//! The same [`TimedOracle`] drives four platforms, differing only in the
//! [`TimedChecker`] backend and cost constants: software threads on the
//! i3/Xeon, a GPU throughput model, and CODAcc pools. [`planner::plan`] is
//! the one entry point — platform as a [`Backend`] value, dimension as a
//! [`Dim`] parameter — and [`pase_model`] prices the PA*SE baseline from its
//! functional profile.
//!
//! # Example
//!
//! ```
//! use racod_sim::planner::{plan, Backend, Scenario2};
//! use racod_sim::cost::CostModel;
//! use racod_grid::gen::{city_map, CityName};
//!
//! let grid = city_map(CityName::Boston, 128, 128);
//! let sc = Scenario2::new(&grid).with_free_endpoints((5, 5), (120, 120));
//! let base = plan(&sc, Backend::software(4, None), &CostModel::i3_software());
//! let racod = plan(&sc, Backend::racod(8), &CostModel::racod());
//! assert!(racod.cycles < base.cycles, "RACOD must win");
//! ```

pub mod cost;
pub mod dim;
pub mod engine;
pub mod footprint;
pub mod oracle;
pub mod pase_model;
pub mod planner;
pub mod tcache;

pub use cost::CostModel;
pub use dim::{Dim, D2, D3};
pub use engine::UnitPool;
pub use footprint::{Footprint2, Footprint3, RotKey};
pub use oracle::{PlanTiming, TimedChecker, TimedOracle, TimedOracleConfig};
pub use planner::{plan, plan_in, Backend, PlanOutcome, Scenario, Scenario2, Scenario3};
pub use tcache::{
    BatchScratch, TemplateCache, TemplateCache2, TemplateCache3, TemplateCensus, TemplateChecker,
    TemplateChecker2, TemplateChecker3, TemplateSource, TemplateStats, DEFAULT_TEMPLATE_CAPACITY,
    TEMPLATE_BYTES_BUDGET,
};
