//! Property-based tests of the geometry invariants DESIGN.md calls out.

use proptest::prelude::*;
use racod_geom::raster::{cover_obb2, sample_obb2, sample_obb3};
use racod_geom::{
    Cell2, Cell3, FootprintTemplate, FootprintTemplate2, FootprintTemplate3, GridCell, Obb2, Obb3,
    Rotation2, Rotation3, Vec2, Vec3,
};
use std::collections::HashSet;

/// Template expansion is pure integer translation: the cell set at `s` is
/// `offsets + s`, component by component, in offset order.
fn expansion_is_translation_exact<C: GridCell>(
    tpl: &FootprintTemplate<C>,
    s: C,
) -> Result<(), TestCaseError> {
    let expanded = tpl.expand(s);
    prop_assert_eq!(expanded.len(), tpl.cell_count());
    let ((sz, sy), sx) = s.scan_key();
    for (e, o) in expanded.iter().zip(tpl.offsets()) {
        let ((oz, oy), ox) = o.scan_key();
        prop_assert_eq!(e.scan_key(), ((oz + sz, oy + sy), ox + sx));
    }
    Ok(())
}

/// The compiled word-mask rows decode back to exactly the offset list, in
/// the same canonical order, with consistent `cells_before` prefixes.
fn rows_decode_to_offsets<C: GridCell>(tpl: &FootprintTemplate<C>) -> Result<(), TestCaseError> {
    let mut decoded = Vec::new();
    for row in tpl.rows() {
        prop_assert_eq!(row.cells_before, decoded.len());
        for (wi, &word) in row.mask.iter().enumerate() {
            for b in (0..64).filter(|b| word & (1 << b) != 0) {
                decoded.push((row.first.row(), row.first.x() + (wi as i64) * 64 + b));
            }
        }
        prop_assert_eq!(decoded.len(), row.cells_before + row.cell_count);
    }
    let offsets: Vec<_> = tpl.offsets().iter().map(|o| o.scan_key()).collect();
    prop_assert_eq!(decoded, offsets);
    Ok(())
}

fn arb_obb2() -> impl Strategy<Value = Obb2> {
    (-50.0f32..50.0, -50.0f32..50.0, 0.0f32..20.0, 0.0f32..10.0, -3.2f32..3.2).prop_map(
        |(x, y, l, w, theta)| Obb2::new(Vec2::new(x, y), l, w, Rotation2::from_angle(theta)),
    )
}

proptest! {
    #[test]
    fn samples_are_subset_of_cover(obb in arb_obb2()) {
        let cover: HashSet<Cell2> = cover_obb2(&obb).into_iter().collect();
        for c in sample_obb2(&obb) {
            prop_assert!(cover.contains(&c), "sample {c} outside cover");
        }
    }

    #[test]
    fn sampled_cells_lie_in_aabb_range(obb in arb_obb2()) {
        let (lo, hi) = obb.aabb().cell_range();
        for c in sample_obb2(&obb) {
            prop_assert!(c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y);
        }
    }

    #[test]
    fn corners_are_contained(obb in arb_obb2()) {
        for corner in obb.corners() {
            prop_assert!(obb.contains(corner), "corner {corner} not contained");
        }
    }

    #[test]
    fn rotation_by_zero_equals_axis_aligned(
        x in -50.0f32..50.0, y in -50.0f32..50.0,
        l in 0.0f32..20.0, w in 0.0f32..10.0,
    ) {
        let a = Obb2::axis_aligned(Vec2::new(x, y), l, w);
        let b = Obb2::new(Vec2::new(x, y), l, w, Rotation2::from_angle(0.0));
        prop_assert_eq!(sample_obb2(&a), sample_obb2(&b));
    }

    #[test]
    fn half_turn_preserves_cover_about_center(
        cx in -20.0f32..20.0, cy in -20.0f32..20.0,
        l in 0.5f32..12.0, w in 0.5f32..8.0, theta in -3.0f32..3.0,
    ) {
        let a = Obb2::centered(Vec2::new(cx, cy), l, w, Rotation2::from_angle(theta));
        let b = Obb2::centered(
            Vec2::new(cx, cy), l, w,
            Rotation2::from_angle(theta + std::f32::consts::PI),
        );
        let sa: HashSet<Cell2> = cover_obb2(&a).into_iter().collect();
        let sb: HashSet<Cell2> = cover_obb2(&b).into_iter().collect();
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn rotation2_preserves_norms(theta in -6.3f32..6.3, x in -100.0f32..100.0, y in -100.0f32..100.0) {
        let r = Rotation2::from_angle(theta);
        let v = Vec2::new(x, y);
        prop_assert!((r.apply(v).norm() - v.norm()).abs() < 1e-3 * (1.0 + v.norm()));
    }

    #[test]
    fn rotation2_inverse_roundtrips(theta in -6.3f32..6.3, x in -100.0f32..100.0, y in -100.0f32..100.0) {
        let r = Rotation2::from_angle(theta);
        let v = Vec2::new(x, y);
        let back = r.inverse().apply(r.apply(v));
        prop_assert!((back - v).norm() < 1e-3 * (1.0 + v.norm()));
    }

    #[test]
    fn rotation3_inverse_roundtrips(
        roll in -3.0f32..3.0, pitch in -1.5f32..1.5, yaw in -3.0f32..3.0,
        x in -50.0f32..50.0, y in -50.0f32..50.0, z in -50.0f32..50.0,
    ) {
        let r = Rotation3::from_rpy(roll, pitch, yaw);
        let v = Vec3::new(x, y, z);
        let back = r.apply_inverse(r.apply(v));
        prop_assert!((back - v).norm() < 1e-3 * (1.0 + v.norm()));
    }

    #[test]
    fn rotation3_compose_associates_with_application(
        r1 in (-3.0f32..3.0, -1.5f32..1.5, -3.0f32..3.0),
        r2 in (-3.0f32..3.0, -1.5f32..1.5, -3.0f32..3.0),
        v in (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0),
    ) {
        let a = Rotation3::from_rpy(r1.0, r1.1, r1.2);
        let b = Rotation3::from_rpy(r2.0, r2.1, r2.2);
        let v = Vec3::new(v.0, v.1, v.2);
        let lhs = a.compose(&b).apply(v);
        let rhs = a.apply(b.apply(v));
        prop_assert!((lhs - rhs).norm() < 1e-2 * (1.0 + v.norm()), "{lhs} vs {rhs}");
    }

    #[test]
    fn cell_from_point_inverts_center(x in -1000i64..1000, y in -1000i64..1000) {
        let c = Cell2::new(x, y);
        prop_assert_eq!(Cell2::from_point(c.center()), c);
    }

    /// A compiled template's cells are exactly the reference rasterization:
    /// the body sampled at cell (0, 0), i.e. centered on (0.5, 0.5).
    #[test]
    fn template_cells_equal_reference_rasterization(
        l in 0.0f32..30.0, w in 0.0f32..15.0, theta in -3.2f32..3.2,
    ) {
        let rot = Rotation2::from_angle(theta);
        let tpl = FootprintTemplate2::for_box(l, w, rot);
        let reference = sample_obb2(&Obb2::centered(Vec2::new(0.5, 0.5), l, w, rot));
        prop_assert_eq!(tpl.offsets(), &reference[..]);
    }

    /// Template expansion is translation-exact at any state magnitude, in
    /// both dimensions.
    #[test]
    fn template_expansion_is_translation_exact(
        (l, w, h) in (0.0f32..20.0, 0.0f32..10.0, 0.0f32..6.0),
        (theta, pitch) in (-3.2f32..3.2, -1.0f32..1.0),
        (sx, sy, sz) in (-100_000i64..100_000, -100_000i64..100_000, -100_000i64..100_000),
    ) {
        let tpl2 = FootprintTemplate2::for_box(l, w, Rotation2::from_angle(theta));
        expansion_is_translation_exact(&tpl2, Cell2::new(sx, sy))?;
        let tpl3 = FootprintTemplate3::for_box(l, w, h, Rotation3::from_rpy(0.0, pitch, theta));
        expansion_is_translation_exact(&tpl3, Cell3::new(sx, sy, sz))?;
    }

    /// The mask rows decode back to the offsets, in both dimensions; rows
    /// wider than 64 cells span several mask words.
    #[test]
    fn template_rows_decode_to_offsets(
        (l, w, h) in (0.0f32..150.0, 0.0f32..15.0, 0.0f32..4.0),
        (theta, pitch) in (-3.2f32..3.2, -1.0f32..1.0),
    ) {
        rows_decode_to_offsets(&FootprintTemplate2::for_box(l, w, Rotation2::from_angle(theta)))?;
        let rot = Rotation3::from_rpy(0.0, pitch, theta);
        rows_decode_to_offsets(&FootprintTemplate3::for_box(l, w.min(4.0), h, rot))?;
    }

    /// 3D templates match the reference rasterization too.
    #[test]
    fn template3_cells_equal_reference_rasterization(
        l in 0.0f32..12.0, w in 0.0f32..8.0, h in 0.0f32..6.0,
        yaw in -3.2f32..3.2,
    ) {
        let rot = Rotation3::from_rpy(0.0, 0.0, yaw);
        let tpl = FootprintTemplate3::for_box(l, w, h, rot);
        let reference =
            sample_obb3(&Obb3::centered(Vec3::new(0.5, 0.5, 0.5), l, w, h, rot));
        prop_assert_eq!(tpl.offsets(), &reference[..]);
        let s = Cell3::new(-37, 1000, 12);
        let expanded = tpl.expand(s);
        for (e, o) in expanded.iter().zip(tpl.offsets()) {
            prop_assert_eq!(*e, Cell3::new(o.x + s.x, o.y + s.y, o.z + s.z));
        }
    }
}
