//! Per-rotation footprint templates compiled to word-parallel mask rows.
//!
//! # Why templates are exact
//!
//! Planning states are grid cells, so the body center handed to the
//! rasterizer is always `state.center() = (x + 0.5, y + 0.5)` — the
//! fractional part is a *constant* `(0.5, 0.5)` for every state. Rasterizing
//! the footprint once at the **reference cell** `(0, 0)` (center
//! `(0.5, 0.5)`) therefore yields a set of integer offsets, and the cells a
//! footprint of the same rotation touches at any state are exactly
//! `state + offset` for each offset. Integer translation commutes with the
//! floor in [`Cell2::from_point`] by construction here — the offsets *are*
//! the template, no floating-point re-rasterization happens per state — so
//! the template expansion is exact for every state, not approximately equal
//! up to rounding.
//!
//! (Re-rasterizing from scratch at a far-away state is **not** bit-identical
//! to rasterizing near the origin: `f32` rounds `(x + 0.5) - h` at the
//! magnitude of `x`. The template sidesteps this entirely by defining the
//! per-state cell set as the translated reference rasterization. All
//! planning-path checkers share this definition, so they agree with each
//! other bit-for-bit.)
//!
//! # Word-parallel rows
//!
//! The sorted offsets are compiled into [`TemplateRow`] spans: for every
//! distinct row — `dy` in 2D, `(dz, dy)` in 3D ([`GridCell::row`]) — its
//! first (lowest-`x`) offset and a bitmask (`bit b` of `mask[k]` covers
//! column `first.x + 64·k + b`). A checker evaluates a whole row against
//! the grid's backing `u64` words with shift-and-AND — up to 64 cells per
//! probe, the common car-sized footprint row in a single op — and
//! reconstructs the exact scalar early-exit statistics from the first
//! failing word (see `racod-codacc`'s template kernel). One layout serves
//! both dimensions: only `for_box` is per dimension.

use crate::angle::{Rotation2, Rotation3};
use crate::cell::{Cell2, Cell3, GridCell};
use crate::obb::{Obb2, Obb3};
use crate::raster::{sample_obb2, sample_obb3};
use crate::vec::{Vec2, Vec3};
use std::hash::{Hash, Hasher};

/// One grid row of a footprint template, as a maskable span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateRow<C> {
    /// Offset of the row's first (lowest-`x`) cell from the state cell; bit
    /// 0 of `mask[0]` corresponds to it.
    pub first: C,
    /// Occupancy mask of the row: bit `b` of `mask[k]` set means the cell
    /// `64·k + b` columns right of `first` belongs to the footprint.
    pub mask: Vec<u64>,
    /// Number of template cells in rows strictly before this one (prefix sum
    /// in canonical scan order); used to reconstruct `cells_checked`.
    pub cells_before: usize,
    /// Number of cells in this row (total popcount of `mask`).
    pub cell_count: usize,
}

impl<C> TemplateRow<C> {
    /// Columns from `first` to one past the last cell of the row.
    pub fn span(&self) -> i64 {
        let last_word = self.mask.len() - 1;
        let top = 64 - self.mask[last_word].leading_zeros() as i64;
        (last_word as i64) * 64 + top
    }
}

/// A footprint rasterized once at the reference cell and compiled into
/// word-parallel mask rows.
///
/// Equality and hashing are by content, so a cache can intern templates:
/// two orientations that rasterize to the same cells share one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintTemplate<C> {
    offsets: Vec<C>,
    rows: Vec<TemplateRow<C>>,
}

/// A 2D footprint template.
///
/// # Example
///
/// ```
/// use racod_geom::{FootprintTemplate2, Cell2, Rotation2};
///
/// let tpl = FootprintTemplate2::for_box(3.0, 3.0, Rotation2::IDENTITY);
/// assert_eq!(tpl.cell_count(), 16); // 4x4 sample lattice
/// let cells = tpl.expand(Cell2::new(10, 20));
/// assert!(cells.contains(&Cell2::new(10, 20)));
/// ```
pub type FootprintTemplate2 = FootprintTemplate<Cell2>;
/// A 3D footprint template.
pub type FootprintTemplate3 = FootprintTemplate<Cell3>;

impl FootprintTemplate2 {
    /// Builds the template for a `length x width` box with the given
    /// rotation by rasterizing it at the reference cell `(0, 0)`.
    pub fn for_box(length: f32, width: f32, rotation: Rotation2) -> Self {
        let obb = Obb2::centered(Vec2::new(0.5, 0.5), length, width, rotation);
        Self::from_offsets(sample_obb2(&obb))
    }
}

impl FootprintTemplate3 {
    /// Builds the template for a `length x width x height` box with the
    /// given rotation by rasterizing it at the reference voxel `(0, 0, 0)`.
    pub fn for_box(length: f32, width: f32, height: f32, rotation: Rotation3) -> Self {
        let obb = Obb3::centered(Vec3::new(0.5, 0.5, 0.5), length, width, height, rotation);
        Self::from_offsets(sample_obb3(&obb))
    }
}

impl<C: GridCell> FootprintTemplate<C> {
    /// Builds a template from raw cell offsets (relative to the state cell).
    ///
    /// Offsets are sorted into canonical grid order and deduplicated.
    pub fn from_offsets(mut offsets: Vec<C>) -> Self {
        offsets.sort_unstable_by_key(|c| c.scan_key());
        offsets.dedup();
        // A template lives in a cache for the whole run: drop the
        // rasterizer's slack so `heap_bytes` is what it really holds.
        offsets.shrink_to_fit();
        let mut rows = Vec::new();
        let mut i = 0;
        while i < offsets.len() {
            let first = offsets[i];
            let run = offsets[i..].iter().take_while(|c| c.row() == first.row()).count();
            let span = (offsets[i + run - 1].x() - first.x()) as usize + 1;
            let mut mask = vec![0u64; span.div_ceil(64)];
            for c in &offsets[i..i + run] {
                let b = (c.x() - first.x()) as usize;
                mask[b >> 6] |= 1 << (b & 63);
            }
            rows.push(TemplateRow { first, mask, cells_before: i, cell_count: run });
            i += run;
        }
        rows.shrink_to_fit();
        FootprintTemplate { offsets, rows }
    }

    /// The cell offsets in canonical grid order (ascending `(z, y, x)`).
    pub fn offsets(&self) -> &[C] {
        &self.offsets
    }

    /// The compiled mask rows, one per distinct row, ascending.
    pub fn rows(&self) -> &[TemplateRow<C>] {
        &self.rows
    }

    /// Total number of cells in the footprint.
    pub fn cell_count(&self) -> usize {
        self.offsets.len()
    }

    /// The absolute cells touched at `state`, in canonical grid order.
    pub fn expand(&self, state: C) -> Vec<C> {
        let mut out = Vec::with_capacity(self.offsets.len());
        self.expand_into(state, &mut out);
        out
    }

    /// Appends the absolute cells touched at `state` into `out` (cleared
    /// first), avoiding reallocation on repeat calls.
    pub fn expand_into(&self, state: C, out: &mut Vec<C>) {
        out.clear();
        out.extend(self.offsets.iter().map(|&o| state.translate(o)));
    }

    /// Heap bytes the template holds (allocated capacity, not length), for
    /// cache budgeting.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<C>()
            + self.rows.capacity() * std::mem::size_of::<TemplateRow<C>>()
            + self.rows.iter().map(|r| r.mask.capacity() * 8).sum::<usize>()
    }
}

impl<C: Hash> Hash for FootprintTemplate<C> {
    /// Hashes the offsets only: the rows are compiled from them, so equal
    /// offsets mean equal templates.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.offsets.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_cells_match_reference_rasterization() {
        let rot = Rotation2::from_angle(0.45);
        let tpl = FootprintTemplate2::for_box(16.0, 8.0, rot);
        let obb = Obb2::centered(Vec2::new(0.5, 0.5), 16.0, 8.0, rot);
        assert_eq!(tpl.offsets(), sample_obb2(&obb).as_slice());
    }

    #[test]
    fn rows_expand_back_to_offsets() {
        let tpl = FootprintTemplate2::for_box(7.0, 3.0, Rotation2::from_angle(1.2));
        let mut from_rows = Vec::new();
        for r in tpl.rows() {
            assert_eq!(from_rows.len(), r.cells_before);
            for (k, &w) in r.mask.iter().enumerate() {
                for b in 0..64 {
                    if w & (1 << b) != 0 {
                        from_rows
                            .push(Cell2::new(r.first.x + (k as i64) * 64 + b as i64, r.first.y));
                    }
                }
            }
            assert_eq!(from_rows.len(), r.cells_before + r.cell_count);
        }
        assert_eq!(from_rows, tpl.offsets());
    }

    #[test]
    fn expand_translates_exactly() {
        let tpl = FootprintTemplate2::for_box(5.0, 2.0, Rotation2::from_angle(0.7));
        let s = Cell2::new(123, -45);
        let cells = tpl.expand(s);
        for (c, o) in cells.iter().zip(tpl.offsets()) {
            assert_eq!(*c, s.offset(o.x, o.y));
        }
    }

    #[test]
    fn point_template_is_single_cell() {
        let tpl = FootprintTemplate2::for_box(0.0, 0.0, Rotation2::IDENTITY);
        assert_eq!(tpl.offsets(), &[Cell2::new(0, 0)]);
        assert_eq!(tpl.rows().len(), 1);
        assert_eq!(tpl.rows()[0].mask, vec![1u64]);
    }

    #[test]
    fn wide_row_spans_multiple_words() {
        // An 80x0 box is a single row of 81 cells: needs two mask words.
        let tpl = FootprintTemplate2::for_box(80.0, 0.0, Rotation2::IDENTITY);
        assert_eq!(tpl.rows().len(), 1);
        let r = &tpl.rows()[0];
        assert_eq!(r.mask.len(), 2);
        assert_eq!(r.cell_count, 81);
        assert_eq!(r.mask[0], u64::MAX);
        assert_eq!(r.mask[1], (1 << 17) - 1);
        assert_eq!(r.span(), 81);
    }

    #[test]
    fn heap_bytes_counts_what_is_allocated() {
        let tpl = FootprintTemplate2::for_box(16.0, 8.0, Rotation2::from_angle(0.3));
        assert_eq!(tpl.offsets.capacity(), tpl.offsets.len(), "offsets shrunk");
        assert_eq!(tpl.rows.capacity(), tpl.rows.len(), "rows shrunk");
        let masks: usize = tpl.rows().iter().map(|r| std::mem::size_of_val(&r.mask[..])).sum();
        assert_eq!(
            tpl.heap_bytes(),
            std::mem::size_of_val(tpl.offsets()) + std::mem::size_of_val(tpl.rows()) + masks
        );
    }

    #[test]
    fn equal_content_hashes_equal() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |t: &FootprintTemplate2| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        // Two headings a hair apart rasterize a small box to the same cells.
        let a = FootprintTemplate2::for_box(3.0, 2.0, Rotation2::from_angle(0.010));
        let b = FootprintTemplate2::for_box(3.0, 2.0, Rotation2::from_angle(0.011));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let c = FootprintTemplate2::for_box(3.0, 2.0, Rotation2::from_angle(0.8));
        assert_ne!(a, c);
    }

    #[test]
    fn template3_matches_reference_rasterization() {
        let rot = Rotation3::from_sin_cos(0.0, 1.0, 0.0, 1.0, 0.6, 0.8);
        let tpl = FootprintTemplate3::for_box(4.0, 4.0, 2.0, rot);
        let obb = Obb3::centered(Vec3::new(0.5, 0.5, 0.5), 4.0, 4.0, 2.0, rot);
        assert_eq!(tpl.offsets(), sample_obb3(&obb).as_slice());
        let total: usize = tpl.rows().iter().map(|r| r.cell_count).sum();
        assert_eq!(total, tpl.cell_count());
    }
}
