//! The reduction unit (RU).
//!
//! The RU performs a parallel associative search over the HOBB registers:
//! the first non-pending register's cache-block request is issued, every
//! register whose address falls into that block is marked pending, and the
//! process repeats until no register is outstanding (paper §3.1.2, steps
//! 3–4). Unlike cache MSHRs, the reduction happens *at the source* and in
//! parallel; unlike GPU coalescers, it is bit-granular and handles oriented
//! (irregular) address patterns.
//!
//! The model does this in one pass per tile: each register either joins
//! the block an earlier register already requested (OR-ing its occupancy
//! bit into that block's) or requests a new one. The paper's 8-entry load
//! queue is not modelled: blocks issue one per cycle whatever its depth,
//! so its occupancy never changes a cycle.

use crate::hobb::HOBB_REGISTERS;
use racod_mem::BlockAddr;

/// The reduction unit: reduces one HOBB tile to the unique cache blocks it
/// must fetch, in the hardwired register priority order, each carrying the
/// OR of its registers' occupancy bits.
///
/// It owns its block buffer, so reducing a tile allocates nothing once the
/// buffer has grown to a tile's worth of blocks.
#[derive(Debug, Clone, Default)]
pub struct ReductionUnit {
    blocks: Vec<(BlockAddr, bool)>,
}

impl ReductionUnit {
    /// Creates a reduction unit with room for a full tile of blocks.
    pub fn new() -> Self {
        ReductionUnit { blocks: Vec::with_capacity(HOBB_REGISTERS) }
    }

    /// Reduces one HOBB tile, given as one `(word address, occupied)` pair
    /// per register, to its `(block, any cell occupied)` requests in
    /// first-seen register order.
    ///
    /// Returns `None` when a register's address is out of range (`None`):
    /// the configuration is invalid and no block is requested (paper
    /// §3.1.2 step 8).
    ///
    /// # Panics
    ///
    /// Panics if the tile is empty or holds more than [`HOBB_REGISTERS`]
    /// registers.
    pub fn reduce_tile(&mut self, regs: &[(Option<u64>, bool)]) -> Option<&[(BlockAddr, bool)]> {
        assert!(!regs.is_empty(), "a HOBB tile needs at least one register");
        assert!(
            regs.len() <= HOBB_REGISTERS,
            "HOBB overflow: {} addresses for {HOBB_REGISTERS} registers",
            regs.len()
        );
        self.reduce(regs.iter().copied())
    }

    /// Reduces word addresses (one per register, duplicates allowed) to the
    /// ordered list of unique cache blocks that must be fetched.
    ///
    /// The order is first-appearance order, matching the hardware's
    /// "first non-empty, non-pending register" scan.
    ///
    /// # Example
    ///
    /// ```
    /// use racod_codacc::ReductionUnit;
    /// use racod_mem::BlockAddr;
    ///
    /// let blocks = ReductionUnit::new().coalesce(&[0, 4, 60, 64, 8]);
    /// assert_eq!(blocks, vec![BlockAddr(0), BlockAddr(1)]);
    /// ```
    pub fn coalesce(&mut self, addrs: &[u64]) -> Vec<BlockAddr> {
        let blocks = self.reduce(addrs.iter().map(|&a| (Some(a), false)));
        blocks.expect("every address is in range").iter().map(|&(b, _)| b).collect()
    }

    fn reduce(
        &mut self,
        regs: impl Iterator<Item = (Option<u64>, bool)>,
    ) -> Option<&[(BlockAddr, bool)]> {
        self.blocks.clear();
        for (addr, occupied) in regs {
            let block = BlockAddr::containing(addr?);
            // Newest first: neighbouring registers mostly share a block.
            match self.blocks.iter_mut().rev().find(|(b, _)| *b == block) {
                Some((_, any)) => *any |= occupied,
                None => self.blocks.push((block, occupied)),
            }
        }
        Some(&self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_dedups_within_block() {
        let mut ru = ReductionUnit::new();
        // All within block 0 (bytes 0..64).
        let blocks = ru.coalesce(&[0, 4, 8, 12, 63]);
        assert_eq!(blocks, vec![BlockAddr(0)]);
    }

    #[test]
    fn coalesce_preserves_first_seen_order() {
        let mut ru = ReductionUnit::new();
        let blocks = ru.coalesce(&[128, 0, 130, 64]);
        assert_eq!(blocks, vec![BlockAddr(2), BlockAddr(0), BlockAddr(1)]);
    }

    #[test]
    fn coalesce_empty() {
        assert!(ReductionUnit::new().coalesce(&[]).is_empty());
    }

    #[test]
    fn block_count_never_exceeds_address_count() {
        let mut ru = ReductionUnit::new();
        let addrs: Vec<u64> = (0..90).map(|i| (i * 7) % 300).collect();
        let blocks = ru.coalesce(&addrs);
        assert!(blocks.len() <= addrs.len());
        // And every address's block is in the output exactly once.
        for &a in &addrs {
            assert_eq!(blocks.iter().filter(|b| **b == BlockAddr::containing(a)).count(), 1);
        }
    }
}
