//! Property-based tests of the grid invariants.

use proptest::prelude::*;
use racod_geom::{Cell2, Cell3, GridCell};
use racod_grid::io::{parse_map, parse_scen, write_map, ParseMapError};
use racod_grid::{BitGrid, BitGrid2, BitGrid3, GridDelta2, Occupancy2, Occupancy3};
use std::collections::HashMap;

/// `get` returns the last value `set` at every written cell.
fn set_get_roundtrips<C: GridCell>(
    mut g: BitGrid<C>,
    writes: impl IntoIterator<Item = (C, bool)>,
) -> Result<(), TestCaseError> {
    let mut expected = HashMap::new();
    for (c, v) in writes {
        prop_assert!(g.set(c, v), "in-bounds write {:?} refused", c);
        expected.insert(c, v);
    }
    for (c, v) in expected {
        prop_assert_eq!(g.get(c), Some(v));
    }
    Ok(())
}

/// A cell has a word address iff it is in bounds (`inside`, from the
/// dimension's `Occupancy` trait), and the address is the 8-byte word
/// `row * row_words + x / 64` past the base; the caller computes `row`
/// (`y` in 2D, `z * size_y + y` in 3D).
fn word_address_is_exact<C: GridCell>(
    g: &BitGrid<C>,
    c: C,
    inside: bool,
    row: i64,
) -> Result<(), TestCaseError> {
    match g.cell_addr(c) {
        Some(addr) => {
            prop_assert!(inside);
            let word = row as u64 * g.row_words() as u64 + c.x() as u64 / 64;
            prop_assert_eq!(addr, g.base_addr() + 8 * word);
            prop_assert!(addr < g.base_addr() + g.storage_bytes() as u64);
        }
        None => prop_assert!(!inside),
    }
    Ok(())
}

/// The padding bits past `width` in each row's last word, as `(word_index,
/// padding_mask)` pairs. Empty when the width is a multiple of 64.
fn padding_words(g: &BitGrid2) -> Vec<(usize, u64)> {
    let tail_bits = g.width() % 64;
    if tail_bits == 0 {
        return Vec::new();
    }
    let pad_mask = !((1u64 << tail_bits) - 1);
    let rw = g.row_words() as usize;
    (0..g.height() as usize).map(|y| (y * rw + rw - 1, pad_mask)).collect()
}

/// Maps a proptest-generated `(tag, x, y, x2, y2)` tuple to a delta.
fn arbitrary_delta(tag: u8, x: i64, y: i64, x2: i64, y2: i64) -> GridDelta2 {
    match tag % 3 {
        0 => GridDelta2::Appear { cell: Cell2::new(x, y) },
        1 => GridDelta2::Disappear { cell: Cell2::new(x, y) },
        _ => GridDelta2::Move { from: Cell2::new(x, y), to: Cell2::new(x2, y2) },
    }
}

proptest! {
    #[test]
    fn set_get_roundtrip(
        (w, h, d) in (1u32..140, 1u32..100, 1u32..8),
        cells in prop::collection::vec((0u32..140, 0u32..100, 0u32..8, any::<bool>()), 0..50),
    ) {
        let wrap = |v: u32, n: u32| (v % n) as i64;
        set_get_roundtrips(
            BitGrid2::new(w, h),
            cells.iter().map(|&(x, y, _, v)| (Cell2::new(wrap(x, w), wrap(y, h)), v)),
        )?;
        set_get_roundtrips(
            BitGrid3::new(w, h, d),
            cells.iter().map(|&(x, y, z, v)| (Cell3::new(wrap(x, w), wrap(y, h), wrap(z, d)), v)),
        )?;
    }

    #[test]
    fn count_matches_iteration(
        w in 1u32..64, h in 1u32..64,
        cells in prop::collection::vec((0u32..64, 0u32..64), 0..80),
    ) {
        let mut g = BitGrid2::new(w, h);
        for (x, y) in cells {
            g.set(Cell2::new(x as i64 % w as i64, y as i64 % h as i64), true);
        }
        let by_iter = g.iter().filter(|&(_, o)| o).count() as u64;
        prop_assert_eq!(g.count_occupied(), by_iter);
    }

    #[test]
    fn moving_ai_roundtrip(
        w in 1u32..40, h in 1u32..40,
        cells in prop::collection::vec((0u32..40, 0u32..40), 0..60),
    ) {
        let mut g = BitGrid2::new(w, h);
        for (x, y) in cells {
            g.set(Cell2::new(x as i64 % w as i64, y as i64 % h as i64), true);
        }
        let text = write_map(&g);
        let back = parse_map(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn word_addresses_are_aligned_and_in_range(
        (w, h, d) in (1u32..200, 1u32..200, 1u32..8),
        (x, y, z) in (-2i64..200, -2i64..200, -2i64..8),
    ) {
        let g = BitGrid2::new(w, h);
        let c = Cell2::new(x, y);
        word_address_is_exact(&g, c, g.in_bounds(c), y)?;
        let g = BitGrid3::new(w, h, d);
        let c = Cell3::new(x, y, z);
        word_address_is_exact(&g, c, g.in_bounds(c), z * h as i64 + y)?;
    }

    // --- ingestion hardening: hostile inputs must return Err, never panic
    // or allocate unboundedly. The parsers are total functions of the
    // input text; each case below feeds a different corruption class.

    #[test]
    fn parse_map_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        // Lossy conversion models reading a corrupt file as text: any
        // result is acceptable, panicking is not.
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_map(&text);
    }

    #[test]
    fn parse_scen_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_scen(&text);
    }

    #[test]
    fn parse_map_survives_structured_garbage(
        h in any::<u32>(), w in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        // A plausible header with arbitrary declared dimensions and a
        // garbage body: must error out (or parse, for tiny dims that the
        // body happens to satisfy) without aborting on allocation.
        let text = format!(
            "type octile\nheight {h}\nwidth {w}\nmap\n{}",
            String::from_utf8_lossy(&body)
        );
        let _ = parse_map(&text);
    }

    #[test]
    fn truncated_map_is_error_not_panic(
        w in 1u32..30, h in 2u32..30,
        cells in prop::collection::vec((0u32..30, 0u32..30), 0..40),
        drop in 1u32..40,
    ) {
        let mut g = BitGrid2::new(w, h);
        for (x, y) in cells {
            g.set(Cell2::new(x as i64 % w as i64, y as i64 % h as i64), true);
        }
        let text = write_map(&g);
        // Drop at least one full body row: the parser must notice the
        // short body rather than panic or return a misshapen grid.
        let keep_rows = h - 1 - drop.min(h - 1);
        let truncated: String = text
            .lines()
            .take(4 + keep_rows as usize)
            .map(|l| format!("{l}\n"))
            .collect();
        prop_assert!(matches!(
            parse_map(&truncated),
            Err(ParseMapError::Dimensions { .. })
        ));
    }

    #[test]
    fn oversized_declared_dims_are_rejected(
        w in 8192u32..1_000_000, h in 8193u32..1_000_000,
    ) {
        // w * h > 2^26 for every pair in these ranges.
        let text = format!("type octile\nheight {h}\nwidth {w}\nmap\n");
        prop_assert_eq!(
            parse_map(&text),
            Err(ParseMapError::TooLarge { declared: (w, h) })
        );
    }

    #[test]
    fn scen_lines_with_field_mutations_never_panic(
        field in 0usize..9,
        replacement in prop::collection::vec(any::<u8>(), 0..12),
    ) {
        // Start from a valid line and corrupt one field with raw bytes.
        let mut fields: Vec<String> = ["0", "city.map", "64", "64", "1", "2", "3", "4", "5.0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let corrupt = String::from_utf8_lossy(&replacement).into_owned();
        prop_assume!(!corrupt.trim().is_empty() && !corrupt.contains(char::is_whitespace));
        fields[field] = corrupt;
        let line = fields.join("\t");
        let _ = parse_scen(&line);
    }

    // --- padding-bit stability: the SSE2/AVX2 lane groups in the collision
    // kernel mask their probes at the grid edge, which is only sound if the
    // mutators never flip a padding bit. `filled` starts with padding set,
    // `new` with padding clear; both states must survive arbitrary set /
    // apply_delta sequences bit-for-bit.

    #[test]
    fn set_and_apply_delta_preserve_set_padding_bits(
        w in 1u32..150, h in 1u32..20,
        sets in prop::collection::vec((0i64..160, 0i64..24, any::<bool>()), 0..60),
        deltas in prop::collection::vec(
            (any::<u8>(), -4i64..160, -4i64..24, -4i64..160, -4i64..24), 0..40),
    ) {
        let mut g = BitGrid2::filled(w, h);
        let pads = padding_words(&g);
        for (x, y, v) in sets {
            g.set(Cell2::new(x, y), v);
        }
        for (tag, x, y, x2, y2) in deltas {
            g.apply_delta(arbitrary_delta(tag, x, y, x2, y2));
        }
        for &(wi, mask) in &pads {
            prop_assert_eq!(
                g.words()[wi] & mask, mask,
                "padding bits of word {} flipped clear", wi
            );
        }
    }

    #[test]
    fn set_and_apply_delta_preserve_clear_padding_bits(
        w in 1u32..150, h in 1u32..20,
        sets in prop::collection::vec((0i64..160, 0i64..24, any::<bool>()), 0..60),
        deltas in prop::collection::vec(
            (any::<u8>(), -4i64..160, -4i64..24, -4i64..160, -4i64..24), 0..40),
    ) {
        let mut g = BitGrid2::new(w, h);
        let pads = padding_words(&g);
        for (x, y, v) in sets {
            g.set(Cell2::new(x, y), v);
        }
        for (tag, x, y, x2, y2) in deltas {
            g.apply_delta(arbitrary_delta(tag, x, y, x2, y2));
        }
        for &(wi, mask) in &pads {
            prop_assert_eq!(
                g.words()[wi] & mask, 0,
                "padding bits of word {} flipped set", wi
            );
        }
    }

    #[test]
    fn apply_delta_matches_per_cell_sets(
        w in 1u32..80, h in 1u32..80,
        deltas in prop::collection::vec(
            (any::<u8>(), -4i64..84, -4i64..84, -4i64..84, -4i64..84), 0..50),
    ) {
        // apply_delta must be exactly the composition of its per-cell sets,
        // including the masked occupancy count staying in sync.
        let mut fast = BitGrid2::new(w, h);
        let mut slow = BitGrid2::new(w, h);
        for (tag, x, y, x2, y2) in deltas {
            let d = arbitrary_delta(tag, x, y, x2, y2);
            fast.apply_delta(d);
            match d {
                GridDelta2::Appear { cell } => { slow.set(cell, true); }
                GridDelta2::Disappear { cell } => { slow.set(cell, false); }
                GridDelta2::Move { from, to } => {
                    slow.set(from, false);
                    slow.set(to, true);
                }
            }
        }
        prop_assert_eq!(&fast, &slow);
        let by_iter = fast.iter().filter(|&(_, o)| o).count() as u64;
        prop_assert_eq!(fast.count_occupied(), by_iter);
    }

    #[test]
    fn grid3_fill_box_count(
        x0 in 0i64..8, y0 in 0i64..8, z0 in 0i64..8,
        dx in 0i64..8, dy in 0i64..8, dz in 0i64..8,
    ) {
        let mut g = BitGrid3::new(16, 16, 16);
        g.fill_box(x0, y0, z0, x0 + dx, y0 + dy, z0 + dz, true);
        prop_assert_eq!(
            g.count_occupied(),
            ((dx + 1) * (dy + 1) * (dz + 1)) as u64
        );
    }
}
