#![warn(missing_docs)]

//! Geometric primitives for the RACOD reproduction.
//!
//! This crate provides the 2D/3D vector math, rotations, cells, bounding
//! volumes and — most importantly — the *oriented bounded box* (OBB)
//! machinery that both the software reference collision checker and the
//! CODAcc accelerator model operate on.
//!
//! The paper (RACOD, ISCA 2022, §2.1) bounds a robot's body with an OBB and
//! reduces collision detection to checking the occupancy-grid cells the OBB
//! touches. The accelerator samples the OBB body on a unit lattice aligned
//! with the box axes (one hardware register per sample); the same sampling is
//! implemented here in [`raster`] so the software reference checker and the
//! hardware model provably agree.
//!
//! # Example
//!
//! ```
//! use racod_geom::{Obb2, Rotation2, Vec2};
//!
//! let obb = Obb2::new(Vec2::new(3.0, 4.0), 5.0, 2.0, Rotation2::from_angle(0.5));
//! let cells = obb.sample_cells();
//! assert!(!cells.is_empty());
//! ```

pub mod aabb;
pub mod angle;
pub mod cell;
pub mod obb;
pub mod raster;
pub mod template;
pub mod vec;

pub use aabb::{Aabb2, Aabb3};
pub use angle::{Rotation2, Rotation3};
pub use cell::{Cell2, Cell3, GridCell};
pub use obb::{Obb2, Obb3, ObbConfig};
pub use template::{FootprintTemplate, FootprintTemplate2, FootprintTemplate3, TemplateRow};
pub use vec::{Vec2, Vec3};
