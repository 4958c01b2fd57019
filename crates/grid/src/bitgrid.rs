//! The bit-packed word-row layout both grid dimensions share.

use racod_geom::GridCell;

/// Default virtual base address for a grid's bit array.
///
/// An arbitrary page-aligned address; the cache models only care about
/// relative block structure.
pub const DEFAULT_BASE_ADDR: u64 = 0x1000_0000;

/// An occupancy grid packed one bit per cell into `u64` words: word-aligned
/// x-rows, rows ordered by `z`, then `y` ([`GridCell::row_in`]).
///
/// This mirrors the memory-layout optimization of paper §3.1.2: packing
/// eight-fold more cells per cache block than a byte map, at the cost of bit
/// masking. The wide `u64` backing lets the word-parallel collision kernel
/// resolve a whole footprint row in one or two masked ANDs. The grid carries
/// a virtual *base address* so cell lookups can be mapped to byte
/// addresses, which the cache models and the CODAcc reduction unit consume.
///
/// [`crate::BitGrid2`] and [`crate::BitGrid3`] are the two instantiations;
/// each adds its constructor and per-dimension helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitGrid<C> {
    extent: C,
    /// Number of `u64` words per row (rows are word-aligned so that row
    /// addressing is a simple multiply).
    row_words: u32,
    pub(crate) words: Vec<u64>,
    base_addr: u64,
}

impl<C: GridCell> BitGrid<C> {
    /// An all-free grid of `rows` x-rows spanning `extent`.
    pub(crate) fn blank(extent: C, rows: usize) -> Self {
        let row_words = (extent.x() as u32).div_ceil(64);
        let words = vec![0; row_words as usize * rows];
        BitGrid { extent, row_words, words, base_addr: DEFAULT_BASE_ADDR }
    }

    /// The grid's sizes, written as a cell: `(width, height)` in 2D,
    /// `(size_x, size_y, size_z)` in 3D.
    #[inline]
    pub fn extent(&self) -> C {
        self.extent
    }

    /// Sets the virtual base address used for [`BitGrid::cell_addr`].
    pub fn set_base_addr(&mut self, addr: u64) {
        self.base_addr = addr;
    }

    /// The virtual base address of the bit array.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Word/bit position of a cell. `None` if out of bounds.
    #[inline]
    fn locate(&self, cell: C) -> Option<(usize, u32)> {
        let row = cell.row_in(self.extent)?;
        let x = cell.x() as u32;
        Some((row * self.row_words as usize + (x / 64) as usize, x % 64))
    }

    /// Occupancy of a cell; `None` out of bounds.
    #[inline]
    pub fn get(&self, cell: C) -> Option<bool> {
        let (w, b) = self.locate(cell)?;
        Some((self.words[w] >> b) & 1 == 1)
    }

    /// Sets the occupancy of a cell. Out-of-bounds writes are ignored and
    /// reported as `false`.
    pub fn set(&mut self, cell: C, occupied: bool) -> bool {
        match self.locate(cell) {
            Some((w, b)) => {
                if occupied {
                    self.words[w] |= 1 << b;
                } else {
                    self.words[w] &= !(1 << b);
                }
                true
            }
            None => false,
        }
    }

    /// The byte address of the `u64` word holding a cell's bit, or `None`
    /// out of bounds.
    ///
    /// Address = base + 8·word_index; all bits of one word share an address,
    /// which is what gives the accelerator its coalescing opportunities.
    #[inline]
    pub fn cell_addr(&self, cell: C) -> Option<u64> {
        let (w, _) = self.locate(cell)?;
        Some(self.base_addr + 8 * w as u64)
    }

    /// Total number of occupied cells.
    pub fn count_occupied(&self) -> u64 {
        // Row padding bits are *stable* but not guaranteed clear (2D
        // `filled` sets them), so the last word of each row is masked to
        // in-bounds columns before the popcount.
        let tail_bits = self.extent.x() % 64;
        let tail_mask = if tail_bits == 0 { u64::MAX } else { (1u64 << tail_bits) - 1 };
        self.words
            .chunks_exact(self.row_words as usize)
            .map(|row| {
                let (last, body) = row.split_last().expect("rows are non-empty");
                body.iter().map(|w| w.count_ones() as u64).sum::<u64>()
                    + (last & tail_mask).count_ones() as u64
            })
            .sum()
    }

    /// Fraction of occupied cells in `[0, 1]`.
    pub fn occupancy_ratio(&self) -> f64 {
        let rows = self.words.len() / self.row_words as usize;
        self.count_occupied() as f64 / (self.extent.x() as f64 * rows as f64)
    }

    /// Size of the backing bit array in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Number of `u64` words per row (rows are word-aligned).
    ///
    /// Together with [`BitGrid::words`] this exposes the backing layout to
    /// word-parallel readers: the bit for a cell is bit `x % 64` of
    /// `words()[row * row_words + x / 64]`, `row` being
    /// [`GridCell::row_in`] (`y` in 2D, `z * size_y + y` in 3D).
    pub fn row_words(&self) -> u32 {
        self.row_words
    }

    /// The backing bit array, [`BitGrid::row_words`] words per row.
    ///
    /// Padding bits past the width in the last word of a row hold whatever
    /// state the constructor gave them (`new` clears them, 2D `filled` sets
    /// them) and are *never* disturbed by the mutators ([`BitGrid::set`],
    /// `apply_delta`, `fill_rect`, `fill_box`); word-parallel readers must
    /// mask their probes to in-bounds columns.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}
