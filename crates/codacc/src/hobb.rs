//! The Hardware OBB (HOBB) register lattice.
//!
//! A fixed-size set of registers onto which software OBBs are loaded (paper
//! §3.1): L = 10, W = 3, H = 3, i.e. 90 registers. Each register holds a
//! key–value pair — the memory address of the cell it corresponds to and the
//! 1-bit occupancy once it arrives from memory. Unused registers in a
//! dimension take the address of the last used register in that dimension so
//! no valid bits are needed (duplicated cells do not change a bitwise OR).
//!
//! The model keeps one tile's registers as `(word address, occupied)`
//! pairs, `None` for an address outside the grid, and hands them straight
//! to the [`ReductionUnit`](crate::ReductionUnit); by the aliasing rule it
//! fills only the used registers.

/// HOBB extent along the box's length axis.
pub const HOBB_L: usize = 10;
/// HOBB extent along the box's width axis.
pub const HOBB_W: usize = 3;
/// HOBB extent along the box's height axis.
pub const HOBB_H: usize = 3;
/// Total number of HOBB registers.
pub const HOBB_REGISTERS: usize = HOBB_L * HOBB_W * HOBB_H;

// The register semantics, as the reduction unit reads them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReductionUnit;
    use racod_mem::BlockAddr;

    fn reduce(regs: &[(Option<u64>, bool)]) -> Option<Vec<(BlockAddr, bool)>> {
        ReductionUnit::new().reduce_tile(regs).map(<[_]>::to_vec)
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(HOBB_L, 10);
        assert_eq!(HOBB_W, 3);
        assert_eq!(HOBB_H, 3);
        assert_eq!(HOBB_REGISTERS, 90);
    }

    #[test]
    fn unused_registers_alias_last_address() {
        let used = [(Some(100), false), (Some(200), true)];
        let mut padded = used.to_vec();
        padded.resize(HOBB_REGISTERS, used[1]);
        assert_eq!(reduce(&used), reduce(&padded), "aliasing adds no new requests");
    }

    #[test]
    fn out_of_range_detection() {
        assert_eq!(reduce(&[(Some(100), false), (None, false)]), None);
        assert!(reduce(&[(Some(100), false), (Some(200), false)]).is_some());
    }

    #[test]
    fn fill_block_sets_values_and_ors() {
        // Two registers in block 0, one occupied; one free register in block 1.
        let blocks = reduce(&[(Some(0), false), (Some(32), true), (Some(64), false)]);
        assert_eq!(blocks, Some(vec![(BlockAddr(0), true), (BlockAddr(1), false)]));
    }

    #[test]
    fn or_output_false_when_all_free() {
        let blocks = reduce(&[(Some(0), false), (Some(4), false)]).expect("in range");
        assert!(blocks.iter().all(|&(_, any)| !any));
    }

    #[test]
    fn clear_resets() {
        // The reduction unit reuses its buffer: a second tile starts empty.
        let mut ru = ReductionUnit::new();
        ru.reduce_tile(&[(Some(8), true), (Some(640), true)]);
        let second = ru.reduce_tile(&[(Some(4), false)]).expect("in range");
        assert_eq!(second, &[(BlockAddr(0), false)]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let regs: Vec<_> = (0..=HOBB_REGISTERS as u64).map(|a| (Some(a), false)).collect();
        reduce(&regs);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_load_panics() {
        reduce(&[]);
    }
}
