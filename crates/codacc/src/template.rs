//! Word-parallel collision checks against compiled footprint templates.
//!
//! The scalar checker ([`crate::software_check_2d`]) probes the bit-packed
//! grid one cell at a time. For a footprint compiled into
//! [`FootprintTemplate`] mask rows, a whole row span can instead be tested
//! with one or two `u64` AND operations against the grid's backing words —
//! up to 64 cells per probe, which covers every row of the car-sized
//! footprints in one op — while producing a [`SoftwareCheck`] that is
//! **bit-identical** to walking the template cells one by one:
//!
//! * Both scan the template in canonical grid order (ascending `(z, y, x)`).
//! * A row whose first cell falls outside the grid yields `Invalid` with
//!   `cells_checked` = cells of earlier rows + 1, exactly like the scalar
//!   early exit (out-of-bounds cells of a row always sort after its
//!   in-bounds cells, and rows reject on their leftmost cell first).
//! * On a masked hit, the first set bit of `mask & grid_word` identifies the
//!   lowest-`x` colliding cell; `cells_checked` is reconstructed as the
//!   popcount of mask bits strictly below it, plus one, plus the prefix
//!   count of earlier rows ([`racod_geom::TemplateRow::cells_before`]).
//!
//! # SIMD lanes
//!
//! Rows wider than two grid words are scanned in lane groups: 4 × `u64` per
//! op under AVX2, 2 × `u64` under SSE2 (or a portable `u128` pair off
//! x86-64), selected once at startup via `is_x86_feature_detected!` and
//! cached ([`simd_level`]). Groups are visited in ascending word order and a
//! flagged group is re-scanned scalar to locate its first hit, so the
//! early-exit semantics — and therefore verdict *and* `cells_checked` — are
//! bit-identical to the scalar-`u64` walk on every path. Setting
//! `RACOD_FORCE_SCALAR=1` in the environment pins the kernel to the
//! scalar-`u64` path (the CI `simd-smoke` job runs the property suite both
//! ways).
//!
//! One row loop ([`template_check`]) serves both dimensions: a row's first
//! cell names its grid row through [`GridCell::row_in`], and everything
//! after that is the shared word walk. The scalar walk
//! ([`template_check_scalar`]) is kept as the property-test oracle.

use crate::check::{walk_cells, SoftwareCheck};
use crate::unit::Verdict;
use racod_geom::{FootprintTemplate, GridCell};
use racod_grid::BitGrid;
use std::sync::OnceLock;

/// The wide-word execution level the kernel selected at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// One `u64` word per op (also the `RACOD_FORCE_SCALAR=1` override).
    Scalar,
    /// Two `u64` words per op: SSE2 on x86-64, a `u128` pair elsewhere.
    Wide2,
    /// Four `u64` words per op (AVX2).
    Wide4,
}

impl SimdLevel {
    /// `u64` words processed per op at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Wide2 => 2,
            SimdLevel::Wide4 => 4,
        }
    }
}

/// Detects the widest available lane group once and caches it.
///
/// `RACOD_FORCE_SCALAR=1` (any value other than `0`/empty) overrides
/// detection and pins the kernel to [`SimdLevel::Scalar`]; the decision is
/// made on first use and never re-read.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let forced =
            std::env::var_os("RACOD_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if forced {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Wide4;
            }
            if is_x86_feature_detected!("sse2") {
                return SimdLevel::Wide2;
            }
        }
        SimdLevel::Wide2
    })
}

/// Number of `u64` lanes the kernel processes per op (1, 2, or 4) —
/// reported by the benchmark JSON.
pub fn simd_lanes() -> usize {
    simd_level().lanes()
}

/// Set bits of `mask` strictly below relative bit `r`.
#[inline]
fn popcount_below(mask: &[u64], r: usize) -> usize {
    let w = r >> 6;
    let mut n = 0;
    for &m in &mask[..w] {
        n += m.count_ones() as usize;
    }
    n + (mask[w] & ((1u64 << (r & 63)) - 1)).count_ones() as usize
}

/// Word `i` of `mask`, with bits at relative positions `>= limit` cleared.
#[inline]
fn mask_word(mask: &[u64], i: usize, limit: Option<usize>) -> u64 {
    if i >= mask.len() {
        return 0;
    }
    let w = mask[i];
    match limit {
        Some(l) if i > (l >> 6) => 0,
        Some(l) if i == (l >> 6) => w & ((1u64 << (l & 63)) - 1),
        _ => w,
    }
}

/// The template mask re-aligned to grid-word `k` of the span: relative bit
/// `r` of the (trimmed) mask lands on bit `(r + shift) % 64` of aligned word
/// `(r + shift) / 64`.
#[inline]
fn aligned_word(mask: &[u64], k: usize, shift: u32, limit: Option<usize>) -> u64 {
    let hi = mask_word(mask, k, limit);
    if shift == 0 {
        return hi;
    }
    let lo = if k > 0 { mask_word(mask, k - 1, limit) >> (64 - shift) } else { 0 };
    (hi << shift) | lo
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn pair_hits_sse2(mask: *const u64, grid: *const u64) -> bool {
    use std::arch::x86_64::*;
    let m = _mm_loadu_si128(mask as *const __m128i);
    let g = _mm_loadu_si128(grid as *const __m128i);
    let and = _mm_and_si128(m, g);
    // No testz before SSE4.1: compare the AND against zero bytewise.
    let z = _mm_cmpeq_epi32(and, _mm_setzero_si128());
    _mm_movemask_epi8(z) != 0xFFFF
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quad_hits_avx2(mask: *const u64, grid: *const u64) -> bool {
    use std::arch::x86_64::*;
    let m = _mm256_loadu_si256(mask as *const __m256i);
    let g = _mm256_loadu_si256(grid as *const __m256i);
    // ZF = ((m & g) == 0); a zero return therefore means "some lane hit".
    _mm256_testz_si256(m, g) == 0
}

/// Whether any lane of the group has `mask & grid != 0`. `mask` and `grid`
/// both hold `level.lanes()` valid words.
#[inline]
fn group_hits(level: SimdLevel, mask: &[u64; 4], grid: &[u64]) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        // Safety: `simd_level` only returns these levels when the feature
        // was detected at startup; both buffers hold >= lanes() words.
        SimdLevel::Wide4 => unsafe { quad_hits_avx2(mask.as_ptr(), grid.as_ptr()) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Wide2 => unsafe { pair_hits_sse2(mask.as_ptr(), grid.as_ptr()) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Wide2 | SimdLevel::Wide4 => {
            let m = (mask[0] as u128) | ((mask[1] as u128) << 64);
            let g = (grid[0] as u128) | ((grid[1] as u128) << 64);
            m & g != 0
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar => unreachable!("scalar level never forms lane groups"),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Scalar => unreachable!("scalar level never forms lane groups"),
    }
}

#[inline]
fn verdict_at(verdict: Verdict, cells_checked: usize, total: usize) -> SoftwareCheck {
    SoftwareCheck { verdict, cells_checked, cells_total: total }
}

/// Evaluates one mask row against word-aligned grid storage.
///
/// `row_base` is the index of the row's first word in `words`; the row spans
/// columns `[0, width)`. Returns the scalar-equivalent outcome of scanning
/// this row's template cells in ascending `x`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn eval_row(
    words: &[u64],
    row_base: usize,
    width: i64,
    x0: i64,
    mask: &[u64],
    span: i64,
    cells_before: usize,
    total: usize,
) -> Option<SoftwareCheck> {
    let x_end = x0 + span;
    let limit = if x_end > width { Some((width - x0) as usize) } else { None };
    let span_eff = limit.map(|l| l as i64).unwrap_or(span);
    let gw0 = (x0 >> 6) as usize;
    let shift = (x0 & 63) as u32;
    let n_gw = ((x0 + span_eff - 1) >> 6) as usize - gw0 + 1;
    let row = &words[row_base + gw0..row_base + gw0 + n_gw];

    let collision_at = |k: usize, hit: u64| {
        let b_abs = ((gw0 + k) as i64) * 64 + hit.trailing_zeros() as i64;
        let r = (b_abs - x0) as usize;
        let checked = cells_before + popcount_below(mask, r) + 1;
        verdict_at(Verdict::Collision, checked, total)
    };

    let mut k = 0usize;
    // Rows wider than two words: scan in lane groups. Groups advance in
    // ascending word order and the flagged group is re-scanned scalar, so
    // the first hit found is the lowest-x colliding cell — the same early
    // exit the scalar walk takes.
    if n_gw > 2 {
        let level = simd_level();
        let lanes = level.lanes();
        if lanes > 1 {
            while k + lanes <= n_gw {
                let mut mb = [0u64; 4];
                let mut any = 0u64;
                for (j, slot) in mb[..lanes].iter_mut().enumerate() {
                    *slot = aligned_word(mask, k + j, shift, limit);
                    any |= *slot;
                }
                if any != 0 && group_hits(level, &mb, &row[k..]) {
                    for (j, &m) in mb[..lanes].iter().enumerate() {
                        let hit = m & row[k + j];
                        if hit != 0 {
                            return Some(collision_at(k + j, hit));
                        }
                    }
                }
                k += lanes;
            }
        }
    }
    while k < n_gw {
        let m = aligned_word(mask, k, shift, limit);
        if m != 0 {
            let hit = m & row[k];
            if hit != 0 {
                return Some(collision_at(k, hit));
            }
        }
        k += 1;
    }
    limit.map(|l| {
        // All in-bounds cells of the row were free; the next template cell
        // in scan order overhangs the right edge.
        verdict_at(Verdict::Invalid, cells_before + popcount_below(mask, l) + 1, total)
    })
}

/// Checks a footprint template at `state` with word-parallel probes.
///
/// Bit-identical (verdict *and* `cells_checked`) to
/// [`template_check_scalar`] on the same grid, state, and template.
///
/// # Example
///
/// ```
/// use racod_codacc::{template_check, Verdict};
/// use racod_geom::{Cell2, FootprintTemplate2, Rotation2};
/// use racod_grid::BitGrid2;
///
/// let grid = BitGrid2::new(64, 64);
/// let tpl = FootprintTemplate2::for_box(16.0, 8.0, Rotation2::from_angle(0.45));
/// let out = template_check(&grid, Cell2::new(30, 30), &tpl);
/// assert_eq!(out.verdict, Verdict::Free);
/// assert_eq!(out.cells_checked, tpl.cell_count());
/// ```
pub fn template_check<C: GridCell>(
    grid: &BitGrid<C>,
    state: C,
    tpl: &FootprintTemplate<C>,
) -> SoftwareCheck {
    let total = tpl.cell_count();
    let extent = grid.extent();
    let words = grid.words();
    let row_words = grid.row_words() as usize;
    for row in tpl.rows() {
        let first = state.translate(row.first);
        let Some(r) = first.row_in(extent) else {
            // The row's leftmost cell — checked first in canonical order —
            // is outside the grid.
            return verdict_at(Verdict::Invalid, row.cells_before + 1, total);
        };
        if let Some(out) = eval_row(
            words,
            r * row_words,
            extent.x(),
            first.x(),
            &row.mask,
            row.span(),
            row.cells_before,
            total,
        ) {
            return out;
        }
    }
    verdict_at(Verdict::Free, total, total)
}

/// Scalar reference walk of a template: checks `state + offset` cell by
/// cell in canonical order, early-exiting exactly like
/// [`crate::software_check_2d`] does over sampled cells.
pub fn template_check_scalar<C: GridCell>(
    grid: &BitGrid<C>,
    state: C,
    tpl: &FootprintTemplate<C>,
) -> SoftwareCheck {
    walk_cells(&tpl.expand(state), |c| grid.get(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use racod_geom::{Cell2, Cell3, FootprintTemplate2, FootprintTemplate3, Rotation2};
    use racod_grid::{BitGrid2, BitGrid3};

    fn assert_identical<C: GridCell>(grid: &BitGrid<C>, state: C, tpl: &FootprintTemplate<C>) {
        let fast = template_check(grid, state, tpl);
        let slow = template_check_scalar(grid, state, tpl);
        assert_eq!(fast, slow, "state {state:?}");
    }

    #[test]
    fn free_grid_checks_every_cell() {
        let grid = BitGrid2::new(64, 64);
        let tpl = FootprintTemplate2::for_box(16.0, 8.0, Rotation2::from_angle(0.45));
        let out = template_check(&grid, Cell2::new(30, 30), &tpl);
        assert_eq!(out.verdict, Verdict::Free);
        assert_eq!(out.cells_checked, out.cells_total);
        assert_identical(&grid, Cell2::new(30, 30), &tpl);
    }

    #[test]
    fn collision_reports_exact_early_exit() {
        let mut grid = BitGrid2::new(64, 64);
        let tpl = FootprintTemplate2::for_box(8.0, 3.0, Rotation2::from_angle(0.3));
        // Occupy a cell in the middle of the footprint.
        let s = Cell2::new(20, 20);
        let cells = tpl.expand(s);
        grid.set(cells[cells.len() / 2], true);
        let out = template_check(&grid, s, &tpl);
        assert_eq!(out.verdict, Verdict::Collision);
        assert_eq!(out.cells_checked, cells.len() / 2 + 1);
        assert_identical(&grid, s, &tpl);
    }

    #[test]
    fn out_of_bounds_matches_scalar_on_all_edges() {
        let grid = BitGrid2::new(48, 48);
        let tpl = FootprintTemplate2::for_box(9.0, 4.0, Rotation2::from_angle(1.1));
        for s in [
            Cell2::new(0, 0),
            Cell2::new(47, 47),
            Cell2::new(-3, 20),
            Cell2::new(20, -3),
            Cell2::new(46, 20),
            Cell2::new(20, 46),
            Cell2::new(200, 200),
        ] {
            assert_identical(&grid, s, &tpl);
        }
    }

    #[test]
    fn filled_padding_bits_do_not_leak() {
        // width 65 → 63 padding bits in the second word of each row, set by
        // `filled`. A footprint inside the grid must still see Collision
        // with the exact scalar count, and one overhanging the right edge
        // must see Invalid, not a phantom collision.
        let grid = BitGrid2::filled(65, 8);
        let tpl = FootprintTemplate2::for_box(3.0, 3.0, Rotation2::IDENTITY);
        assert_identical(&grid, Cell2::new(62, 3), &tpl);
        assert_identical(&grid, Cell2::new(63, 3), &tpl);
        let free = BitGrid2::new(65, 8);
        assert_identical(&free, Cell2::new(62, 3), &tpl);
        assert_identical(&free, Cell2::new(63, 3), &tpl);
    }

    #[test]
    fn unaligned_spans_cross_word_boundaries() {
        let mut grid = BitGrid2::new(256, 16);
        let tpl = FootprintTemplate2::for_box(80.0, 0.0, Rotation2::IDENTITY);
        for x in [0i64, 1, 20, 61, 62, 63, 64, 65, 120, 175] {
            let s = Cell2::new(x, 5);
            assert_identical(&grid, s, &tpl);
        }
        grid.set(Cell2::new(128, 5), true);
        for x in [20i64, 61, 63, 65, 120] {
            assert_identical(&grid, Cell2::new(x, 5), &tpl);
        }
    }

    #[test]
    fn wide_rows_exercise_lane_groups() {
        // A 300-cell row spans up to 6 grid words — wide enough for AVX2
        // quad groups plus a scalar remainder. Every alignment and every
        // hit position must agree with the scalar walk exactly.
        let mut grid = BitGrid2::new(512, 8);
        let tpl = FootprintTemplate2::for_box(300.0, 0.0, Rotation2::IDENTITY);
        for x in [0i64, 1, 37, 63, 64, 65, 100, 190, 211] {
            assert_identical(&grid, Cell2::new(x, 3), &tpl);
        }
        for hit in [10i64, 63, 64, 127, 128, 200, 255, 300, 440] {
            grid.set(Cell2::new(hit, 3), true);
            for x in [0i64, 1, 37, 63, 64, 65, 100, 190, 211] {
                assert_identical(&grid, Cell2::new(x, 3), &tpl);
            }
            grid.set(Cell2::new(hit, 3), false);
        }
    }

    #[test]
    fn popcount_below_at_word_boundaries() {
        // Limits landing exactly on (or one off) word boundaries: 31/32 are
        // intra-word since the u64 migration, 63/64/65 straddle the first
        // word edge, 127/128 the second.
        let mask: Vec<u64> = vec![u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x0000_0000_0000_FFFF];
        let naive = |r: usize| -> usize {
            (0..r).filter(|&b| mask[b >> 6] & (1u64 << (b & 63)) != 0).count()
        };
        for r in [0usize, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 140] {
            assert_eq!(popcount_below(&mask, r), naive(r), "r = {r}");
        }
    }

    #[test]
    fn mask_word_trims_at_word_boundaries() {
        let mask: Vec<u64> = vec![u64::MAX, u64::MAX, u64::MAX];
        let naive = |i: usize, l: usize| -> u64 {
            let mut w = 0u64;
            for b in 0..64 {
                let abs = i * 64 + b;
                if abs < l && mask[i] & (1u64 << b) != 0 {
                    w |= 1u64 << b;
                }
            }
            w
        };
        for limit in [1usize, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191] {
            for i in 0..mask.len() {
                assert_eq!(
                    mask_word(&mask, i, Some(limit)),
                    naive(i, limit),
                    "word {i}, limit {limit}"
                );
            }
        }
        // No limit: words pass through; out-of-range words read as zero.
        assert_eq!(mask_word(&mask, 1, None), u64::MAX);
        assert_eq!(mask_word(&mask, 3, None), 0);
        assert_eq!(mask_word(&mask, 3, Some(64)), 0);
    }

    #[test]
    fn grid_edges_on_exact_word_boundaries() {
        // Grids whose width is exactly 64 and 128: the overhang limit of a
        // right-edge footprint lands precisely on a word boundary.
        for width in [64u32, 128] {
            let grid = BitGrid2::filled(width, 8);
            let free = BitGrid2::new(width, 8);
            let tpl = FootprintTemplate2::for_box(10.0, 2.0, Rotation2::IDENTITY);
            for x in (width as i64 - 14)..(width as i64 + 2) {
                assert_identical(&grid, Cell2::new(x, 4), &tpl);
                assert_identical(&free, Cell2::new(x, 4), &tpl);
            }
        }
    }

    #[test]
    fn simd_lanes_is_consistent_with_level() {
        let lanes = simd_lanes();
        assert!(matches!(lanes, 1 | 2 | 4));
        assert_eq!(lanes, simd_level().lanes());
    }

    #[test]
    fn template3_kernel_matches_scalar() {
        let mut grid = BitGrid3::new(48, 48, 24);
        grid.fill_box(10, 10, 0, 20, 20, 10, true);
        let rot = racod_geom::Rotation3::from_sin_cos(0.0, 1.0, 0.0, 1.0, 0.6, 0.8);
        let tpl = FootprintTemplate3::for_box(4.0, 4.0, 2.0, rot);
        for s in [
            Cell3::new(5, 5, 5),
            Cell3::new(12, 12, 5),
            Cell3::new(46, 24, 12),
            Cell3::new(-2, 4, 4),
            Cell3::new(24, 24, 23),
        ] {
            assert_identical(&grid, s, &tpl);
        }
    }
}
