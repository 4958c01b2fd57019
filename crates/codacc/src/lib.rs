#![warn(missing_docs)]

//! The CODAcc collision-detection accelerator model.
//!
//! CODAcc (paper §3.1) computes the collision status of an OBB against the
//! occupancy grid with a MapReduce-style datapath:
//!
//! 1. the **AGU** generates, in parallel, the memory addresses of every cell
//!    the OBB body samples ([`racod_geom::raster`]);
//! 2. addresses land in the **HOBB**, a fixed 10 x 3 x 3 register lattice
//!    ([`hobb`]); OBBs larger than the HOBB are tiled by a **greedy
//!    scheduler** ([`sched`]) that completes x first, then y, then z;
//! 3. the **reduction unit** coalesces registers whose addresses fall into
//!    the same cache block and issues one request per unique block, one per
//!    cycle ([`reduce`]; the paper's 8-entry load queue never changes that
//!    rate, so it is not modelled);
//! 4. returning bits are **OR-ed** in a pipeline that early-exits the moment
//!    any occupied cell arrives, and an out-of-range address
//!    **short-circuits** the check as invalid (the [`unit` module](crate::unit)).
//!
//! The model is *functional + cycle-approximate*: verdicts are computed from
//! the real grid and are bit-identical to the software reference checker
//! ([`check`]), while cycles are accumulated from the Table 2 component
//! latencies plus real cache behaviour simulated by [`racod_mem`].
//!
//! [`power`] regenerates Table 2 and the §5.1 area/power comparisons.
//!
//! # Example
//!
//! ```
//! use racod_codacc::{CodaccPool, Verdict};
//! use racod_grid::BitGrid2;
//! use racod_geom::{Obb2, Vec2, Rotation2};
//!
//! let grid = BitGrid2::new(64, 64);
//! let mut pool = CodaccPool::new(1);
//! let obb = Obb2::new(Vec2::new(10.0, 10.0), 4.0, 2.0, Rotation2::IDENTITY);
//! let out = pool.check_2d(0, &grid, &obb);
//! assert_eq!(out.verdict, Verdict::Free);
//! assert!(out.cycles > 0);
//! ```

pub mod check;
pub mod hobb;
pub mod power;
pub mod reduce;
pub mod sched;
pub mod template;
pub mod unit;

pub use check::{software_check_2d, software_check_3d, SoftwareCheck};
pub use hobb::{HOBB_H, HOBB_L, HOBB_REGISTERS, HOBB_W};
pub use power::AreaPowerModel;
pub use reduce::ReductionUnit;
pub use sched::{partition_tiles, partition_tiles_ordered, PartitionOrder, Tile};
pub use template::{simd_lanes, simd_level, template_check, template_check_scalar, SimdLevel};
// Pinned by the frozen benchmark: `benchmark/src/ladder.rs` is the only
// caller of these two names.
#[doc(hidden)]
pub use template::template_check as template_check_2d;
#[doc(hidden)]
pub use template::template_check as template_check_3d;
pub use unit::{CheckOutcome, CodaccPool, CodaccTiming, Verdict};
