//! The seam between planning in the plane and in space.
//!
//! The paper points one CODAcc and one RASExp at a 2D car and a 3D drone;
//! the two differ in address generation, not in design. [`Dim`] names what
//! differs above the grid — the robot body, its orientation, the search
//! space and its guidance — so every layer above the kernel
//! ([`crate::tcache`], [`crate::planner`], the serving worker) is written
//! once. Below it nothing is per dimension but the cell: the grid, the
//! template, the word kernel and the CODAcc cell walk are
//! [`BitGrid<D::Cell>`](BitGrid), [`FootprintTemplate<D::Cell>`](FootprintTemplate),
//! [`racod_codacc::template_check`] and [`racod_codacc::CodaccPool::check_cells`],
//! generic over [`GridCell`].

use crate::footprint::{Footprint2, Footprint3, RotKey};
use racod_geom::{
    Cell2, Cell3, FootprintTemplate, FootprintTemplate2, FootprintTemplate3, GridCell,
};
use racod_grid::{BitGrid, BitGrid2, BitGrid3, Occupancy2, Occupancy3};
use racod_rasexp::DirectedState;
use racod_search::{AltSpace2, GridSpace2, GridSpace3, LandmarkPack2, SearchSpace};
use std::fmt::Debug;
use std::hash::Hash;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::D2 {}
    impl Sealed for super::D3 {}
}

/// A planning dimension. Sealed: [`D2`] and [`D3`] are the only two.
pub trait Dim: sealed::Sealed + Copy + Debug + 'static {
    /// A planning state, which is also the grid's cell.
    type Cell: DirectedState + GridCell;
    /// The robot body.
    type Footprint: Copy + Debug + PartialEq + Send + Sync + 'static;
    /// The body's dimensions, bit-exact, as a template-cache key.
    type FootprintKey: Copy + Eq + Hash + Send;
    /// Connectivity and heuristic.
    type Space: SearchSpace<State = Self::Cell> + Copy + Debug;
    /// Precomputed heuristic guidance (ALT landmarks); uninhabited where
    /// the dimension has none.
    type Landmarks: Clone + Debug + Send + Sync + 'static;
    /// [`Dim::Space`] with its guidance applied.
    type Guided<'a>: SearchSpace<State = Self::Cell>;

    /// `(footprint, start, goal, space)` of a fresh scenario on `grid`.
    fn defaults(
        grid: &BitGrid<Self::Cell>,
    ) -> (Self::Footprint, Self::Cell, Self::Cell, Self::Space);
    /// Wraps `space` with `pack`'s bound; `None` is a bit-identical
    /// passthrough.
    fn guided<'a>(space: &Self::Space, pack: Option<&'a Self::Landmarks>) -> Self::Guided<'a>;
    /// Heuristic evaluations the guidance strictly improved.
    fn tightened(space: &Self::Guided<'_>) -> u64;

    /// The cache key of `fp`.
    fn footprint_key(fp: &Self::Footprint) -> Self::FootprintKey;
    /// The orientation key of `fp` at `state` heading for `goal`.
    fn rot_key(fp: &Self::Footprint, state: Self::Cell, goal: Self::Cell) -> RotKey;
    /// Compiles `fp` for one orientation.
    fn template(fp: &Self::Footprint, key: RotKey) -> FootprintTemplate<Self::Cell>;

    /// The first cell satisfying `ok` in expanding Chebyshev shells around
    /// `at` (each shell scanned in `z`, `y`, `x` order), out to the grid's
    /// largest extent.
    fn nearest(
        grid: &BitGrid<Self::Cell>,
        at: Self::Cell,
        ok: impl FnMut(Self::Cell) -> bool,
    ) -> Option<Self::Cell>;
}

/// Planning in the plane: [`Cell2`] states over a [`BitGrid2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D2;

/// Planning in space: [`Cell3`] states over a [`BitGrid3`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D3;

/// [`D3`]'s landmark type: there is no 3D pack, so no value of it exists.
#[derive(Debug, Clone, Copy)]
pub enum NoLandmarks {}

impl Dim for D2 {
    type Cell = Cell2;
    type Footprint = Footprint2;
    type FootprintKey = (u32, u32);
    type Space = GridSpace2;
    type Landmarks = LandmarkPack2;
    type Guided<'a> = AltSpace2<'a>;

    /// The car, 8-connectivity with the Euclidean heuristic, endpoints at
    /// opposite corners.
    fn defaults(grid: &BitGrid2) -> (Footprint2, Cell2, Cell2, GridSpace2) {
        let (w, h) = (grid.width(), grid.height());
        (
            Footprint2::car(),
            Cell2::new(1, 1),
            Cell2::new(w as i64 - 2, h as i64 - 2),
            GridSpace2::eight_connected(w, h),
        )
    }
    /// # Panics
    ///
    /// Panics if the pack was built for different grid dimensions.
    fn guided<'a>(space: &GridSpace2, pack: Option<&'a LandmarkPack2>) -> AltSpace2<'a> {
        AltSpace2::new(*space, pack)
    }
    fn tightened(space: &AltSpace2<'_>) -> u64 {
        space.tightened()
    }

    fn footprint_key(fp: &Footprint2) -> (u32, u32) {
        (fp.length.to_bits(), fp.width.to_bits())
    }
    fn rot_key(fp: &Footprint2, state: Cell2, goal: Cell2) -> RotKey {
        fp.rot_key(state, goal)
    }
    fn template(fp: &Footprint2, key: RotKey) -> FootprintTemplate2 {
        fp.template(key)
    }

    fn nearest(grid: &BitGrid2, at: Cell2, mut ok: impl FnMut(Cell2) -> bool) -> Option<Cell2> {
        for radius in 0..grid.width().max(grid.height()) as i64 {
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    let c = at.offset(dx, dy);
                    if dx.abs().max(dy.abs()) == radius && ok(c) {
                        return Some(c);
                    }
                }
            }
        }
        None
    }
}

impl Dim for D3 {
    type Cell = Cell3;
    type Footprint = Footprint3;
    type FootprintKey = (u32, u32, u32);
    type Space = GridSpace3;
    type Landmarks = NoLandmarks;
    type Guided<'a> = GridSpace3;

    /// The drone, 26-connectivity with the Euclidean heuristic, endpoints
    /// at opposite corners at mid height.
    fn defaults(grid: &BitGrid3) -> (Footprint3, Cell3, Cell3, GridSpace3) {
        let (sx, sy, sz) = (grid.size_x(), grid.size_y(), grid.size_z());
        (
            Footprint3::drone(),
            Cell3::new(2, 2, 2),
            Cell3::new(sx as i64 - 3, sy as i64 - 3, sz as i64 / 2),
            GridSpace3::twenty_six_connected(sx, sy, sz),
        )
    }
    fn guided(space: &GridSpace3, _pack: Option<&NoLandmarks>) -> GridSpace3 {
        *space
    }
    fn tightened(_space: &GridSpace3) -> u64 {
        0
    }

    fn footprint_key(fp: &Footprint3) -> (u32, u32, u32) {
        (fp.length.to_bits(), fp.width.to_bits(), fp.height.to_bits())
    }
    fn rot_key(fp: &Footprint3, state: Cell3, goal: Cell3) -> RotKey {
        fp.rot_key(state, goal)
    }
    fn template(fp: &Footprint3, key: RotKey) -> FootprintTemplate3 {
        fp.template(key)
    }

    fn nearest(grid: &BitGrid3, at: Cell3, mut ok: impl FnMut(Cell3) -> bool) -> Option<Cell3> {
        for radius in 0..grid.size_x().max(grid.size_y()).max(grid.size_z()) as i64 {
            for dz in -radius..=radius {
                for dy in -radius..=radius {
                    for dx in -radius..=radius {
                        let c = at.offset(dx, dy, dz);
                        if dx.abs().max(dy.abs()).max(dz.abs()) == radius && ok(c) {
                            return Some(c);
                        }
                    }
                }
            }
        }
        None
    }
}
