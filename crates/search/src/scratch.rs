//! Reusable, allocation-free search state: epoch-stamped scratch arenas
//! and an integer-keyed open list.
//!
//! Every `plan()` on a 512×512 map used to allocate and zero four
//! O(|state-space|) vectors before the first expansion; once the collision
//! fast path collapsed per-check cost to ~143 ns, that per-request setup —
//! and the allocator churn behind it — became the planner's dominant fixed
//! cost (the paper's §5 co-design pressure: remove collision latency and
//! search bookkeeping dominates). [`SearchScratch`] makes the setup O(1):
//!
//! * **Epoch stamping** — each slot array (`g`, `parent`, `state_of`,
//!   closed set, PA*SE open set) carries a `u32` stamp per slot. A slot's
//!   value is valid only while its stamp equals the arena's current epoch,
//!   so "clear everything" is a single epoch increment instead of an O(n)
//!   memset. The epoch wraps after 2³²−1 plans; the wrap is detected and
//!   handled with one full stamp reset, keeping reuse sound forever.
//! * **Integer-keyed open list** — [`IntHeap`], a 4-ary min-heap whose
//!   entries are ordered by a packed integer key. For the non-negative
//!   finite `f`/`g` values a search produces, `f64::to_bits` is monotone,
//!   so packing `(f_bits, !g_bits)` into a `u128` (plus the insertion
//!   sequence number as a tie-breaker) reproduces the scalar open list's
//!   `(f asc, g desc, seq asc)` order *bit-exactly* — expansion order is
//!   identical to the pre-arena engine, which the equivalence suite
//!   asserts. Integer comparisons also drop the `partial_cmp` branches
//!   from the hottest loop in the engine.
//! * **Owned buffers** — the per-expansion neighbor, demand, edge-cost and
//!   verdict buffers live in the scratch, so a warm steady state issues no
//!   heap allocation per expansion (and none per plan beyond the returned
//!   path itself).
//!
//! A scratch is generic over the state type and grows monotonically to the
//! largest `state_count()` it has served, so one scratch per worker serves
//! any mix of map shapes.

/// Sentinel parent slot meaning "no parent" (the start state).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One open-list entry: a packed order key, the insertion sequence number,
/// and the dense state slot.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// `(f_bits << 64) | !g_bits` — ascending order = ascending `f`, then
    /// *descending* `g` (deeper nodes first).
    key: u128,
    /// Insertion sequence; ascending order breaks full ties.
    seq: u64,
    /// Dense state index.
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn rank(&self) -> (u128, u64) {
        (self.key, self.seq)
    }
}

/// Packs `(f, g)` into the order-preserving integer key.
///
/// `x + 0.0` normalizes `-0.0` to `+0.0` so equal floats always map to
/// equal bit patterns; for non-negative finite values `to_bits` is then
/// strictly monotone, and complementing the `g` bits flips its direction.
#[inline]
fn pack_key(f: f64, g: f64) -> u128 {
    (((f + 0.0).to_bits() as u128) << 64) | (!(g + 0.0).to_bits() as u128)
}

/// Recovers `f` from a packed key (bit-exact).
#[inline]
fn unpack_f(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// Recovers `g` from a packed key (bit-exact).
#[inline]
fn unpack_g(key: u128) -> f64 {
    f64::from_bits(!(key as u64))
}

/// The integer-keyed open list: a 4-ary min-heap over packed `(f, -g,
/// seq)` keys with lazy deletion. It pops in exactly the order of the
/// scalar `f64`-keyed binary heap it replaced, which the search crate's
/// `scratch_equivalence` test keeps as the oracle.
///
/// Because every entry's `(key, seq)` rank is unique, the pop order is a
/// total order independent of the heap's internal layout — a requirement
/// for asserting bit-identical expansion order against the scalar engine.
///
/// # Example
///
/// ```
/// use racod_search::scratch::IntHeap;
/// let mut open = IntHeap::new();
/// open.push(3, 10.0, 2.0);
/// open.push(7, 9.0, 1.0);
/// assert_eq!(open.pop(), Some((7, 9.0, 1.0)));
/// assert_eq!(open.pop(), Some((3, 10.0, 2.0)));
/// assert_eq!(open.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntHeap {
    items: Vec<HeapEntry>,
    seq: u64,
}

/// Heap arity. Four children per node trades a slightly deeper compare fan
/// per sift-down for half the tree depth (and far fewer cache misses) of a
/// binary heap — the classic d-ary layout for decrease-key-free A*.
const D: usize = 4;

impl IntHeap {
    /// Creates an empty open list.
    pub fn new() -> Self {
        IntHeap::default()
    }

    /// Removes all entries and resets the sequence counter (capacity is
    /// retained — this is the O(1)-amortized per-plan reset).
    pub fn clear(&mut self) {
        self.items.clear();
        self.seq = 0;
    }

    /// Pushes (or re-pushes with a better key) a state.
    ///
    /// Non-finite or negative keys have no order-preserving integer
    /// encoding; a NaN heuristic must fail loudly here rather than
    /// silently scramble the heap order (debug builds assert).
    #[inline]
    pub fn push(&mut self, slot: u32, f: f64, g: f64) {
        debug_assert!(
            f.is_finite() && g.is_finite() && f >= 0.0 && g >= 0.0,
            "open-list keys must be finite and non-negative: f={f}, g={g}"
        );
        self.seq += 1;
        let entry = HeapEntry { key: pack_key(f, g), seq: self.seq, slot };
        self.items.push(entry);
        self.sift_up(self.items.len() - 1);
    }

    /// Pops the minimum-rank entry as `(slot, f, g)`, or `None` when empty.
    /// Staleness is the caller's business (lazy deletion).
    #[inline]
    pub fn pop(&mut self) -> Option<(u32, f64, f64)> {
        let n = self.items.len();
        if n == 0 {
            return None;
        }
        let top = self.items.swap_remove(0);
        if n > 1 {
            self.sift_down(0);
        }
        Some((top.slot, unpack_f(top.key), unpack_g(top.key)))
    }

    /// Peeks at the best entry's `f` value without validating freshness.
    pub fn peek_f(&self) -> Option<f64> {
        self.items.first().map(|e| unpack_f(e.key))
    }

    /// Whether no entries remain (including stale ones).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of entries (including stale ones).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    fn sift_up(&mut self, mut i: usize) {
        let items = &mut self.items;
        while i > 0 {
            let p = (i - 1) / D;
            if items[i].rank() < items[p].rank() {
                items.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let items = &mut self.items;
        let n = items.len();
        loop {
            let first = i * D + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            let last = (first + D).min(n);
            for c in first + 1..last {
                if items[c].rank() < items[best].rank() {
                    best = c;
                }
            }
            if items[best].rank() < items[i].rank() {
                items.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
}

/// The reusable per-worker search arena. See the module docs.
///
/// One scratch serves A*, Weighted A*, and PA*SE; plans of different map
/// shapes can share it (arrays grow monotonically, valid slots are gated by
/// the epoch stamps). Reusing a scratch never changes a search's result —
/// the equivalence suite proves expansion order, path, and cost are
/// bit-identical to a fresh allocation.
///
/// # Example
///
/// ```
/// use racod_search::{astar_in, AstarConfig, FnOracle, GridSpace2, SearchScratch};
/// use racod_geom::Cell2;
///
/// let space = GridSpace2::eight_connected(16, 16);
/// let mut scratch = SearchScratch::new();
/// for _ in 0..3 {
///     let mut oracle = FnOracle::new(|c: Cell2| space.index(c).is_some());
///     let r = astar_in(&space, Cell2::new(0, 0), Cell2::new(5, 5),
///                      &AstarConfig::default(), &mut oracle, &mut scratch);
///     assert!(r.found());
/// }
/// use racod_search::SearchSpace;
/// ```
#[derive(Debug, Clone)]
pub struct SearchScratch<S> {
    /// Current validity epoch; slot data is valid iff its stamp equals it.
    epoch: u32,
    /// Whether this scratch has already served at least one plan.
    served: bool,
    /// Slots `0..len` are addressable this plan.
    len: usize,
    // --- epoch-stamped slot arrays (A* and PA*SE) ---
    /// Stamp gating `g`, `parent`, and `state_of`.
    pub(crate) g_stamp: Vec<u32>,
    /// Best known cost-to-come per slot.
    pub(crate) g: Vec<f64>,
    /// Parent slot in the search tree ([`NO_PARENT`] for the start).
    pub(crate) parent: Vec<u32>,
    /// Dense-index → state reverse map, filled as states are touched.
    pub(crate) state_of: Vec<Option<S>>,
    /// CLOSED membership: visited iff stamp equals the epoch.
    pub(crate) closed_stamp: Vec<u32>,
    // --- A* open list ---
    /// The integer-keyed open list.
    pub(crate) open: IntHeap,
    // --- per-expansion buffers ---
    /// Neighbor gather buffer.
    pub(crate) neigh: Vec<(S, f64)>,
    /// Demand states of the current expansion.
    pub(crate) demand: Vec<S>,
    /// Edge costs aligned with `demand`.
    pub(crate) demand_edges: Vec<f64>,
    /// Oracle verdicts aligned with `demand`.
    pub(crate) free: Vec<bool>,
    // --- PA*SE open set (allocated on first PA*SE use) ---
    /// OPEN membership stamp for PA*SE (0 after removal).
    pub(crate) open_stamp: Vec<u32>,
    /// Per-slot `f` of the current OPEN entry (valid iff `open_stamp`
    /// matches).
    pub(crate) open_f: Vec<f64>,
    /// Position of a slot within `open_slots` (valid iff `open_stamp`
    /// matches) — makes OPEN removal O(1) via swap-remove.
    pub(crate) open_pos: Vec<u32>,
    /// The exact OPEN membership list (no stale entries).
    pub(crate) open_slots: Vec<u32>,
    /// Wave candidate buffer: `(slot, f, g)`.
    pub(crate) candidates: Vec<(u32, f64, f64)>,
    /// Claimed wave buffer: `(slot, g)`.
    pub(crate) wave: Vec<(u32, f64)>,
}

impl<S: Copy> Default for SearchScratch<S> {
    fn default() -> Self {
        SearchScratch::new()
    }
}

impl<S: Copy> SearchScratch<S> {
    /// Creates an empty scratch; arrays are sized on first use.
    pub fn new() -> Self {
        SearchScratch {
            epoch: 0,
            served: false,
            len: 0,
            g_stamp: Vec::new(),
            g: Vec::new(),
            parent: Vec::new(),
            state_of: Vec::new(),
            closed_stamp: Vec::new(),
            open: IntHeap::new(),
            neigh: Vec::new(),
            demand: Vec::new(),
            demand_edges: Vec::new(),
            free: Vec::new(),
            open_stamp: Vec::new(),
            open_f: Vec::new(),
            open_pos: Vec::new(),
            open_slots: Vec::new(),
            candidates: Vec::new(),
            wave: Vec::new(),
        }
    }

    /// A scratch pre-sized for `n` states (cold allocation up front, so the
    /// first plan is already warm-shaped).
    pub fn with_capacity(n: usize) -> Self {
        let mut s = SearchScratch::new();
        s.begin(n);
        s.served = false;
        s.epoch = 0;
        s
    }

    /// Whether this scratch has served at least one plan (reported as
    /// [`crate::SearchStats::scratch_reused`] on the *next* plan).
    pub fn reused(&self) -> bool {
        self.served
    }

    /// The current epoch (diagnostics and wraparound tests).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Forces the epoch counter — a test hook for exercising wraparound
    /// without 2³² plans. Takes effect on the next [`SearchScratch::begin`].
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Opens a new plan over `n` states: bumps the epoch (O(1) in the
    /// steady state; one full stamp reset at the 2³² wrap), grows the
    /// arrays if this space is larger than any served before, and clears
    /// the open list and buffers. Returns whether the arena was warm (had
    /// served a plan before this call).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the `u32` slot space.
    pub fn begin(&mut self, n: usize) -> bool {
        assert!(n < u32::MAX as usize, "state space exceeds u32 slot indices");
        let was_warm = self.served;
        self.served = true;
        self.len = n;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: stale stamps from 2³² plans ago would now look
            // current, so pay one full reset and restart at epoch 1.
            self.g_stamp.iter_mut().for_each(|s| *s = 0);
            self.closed_stamp.iter_mut().for_each(|s| *s = 0);
            self.open_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.g_stamp.len() < n {
            // New tail slots carry stamp 0, which never equals a live
            // epoch, so their g/parent/state garbage is unreadable.
            self.g_stamp.resize(n, 0);
            self.g.resize(n, 0.0);
            self.parent.resize(n, NO_PARENT);
            self.state_of.resize(n, None);
            self.closed_stamp.resize(n, 0);
        }
        self.open.clear();
        self.neigh.clear();
        self.demand.clear();
        self.demand_edges.clear();
        self.free.clear();
        self.open_slots.clear();
        self.candidates.clear();
        self.wave.clear();
        was_warm
    }

    /// Ensures the PA*SE-only arrays cover `n` slots (kept out of
    /// [`SearchScratch::begin`] so pure-A* workers never pay for them).
    pub(crate) fn ensure_pase(&mut self, n: usize) {
        if self.open_stamp.len() < n {
            self.open_stamp.resize(n, 0);
            self.open_f.resize(n, 0.0);
            self.open_pos.resize(n, 0);
        }
    }

    /// Current epoch-validated `g` of a slot (`f64::INFINITY` when unset).
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn g_of(&self, slot: usize) -> f64 {
        if self.g_stamp[slot] == self.epoch {
            self.g[slot]
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_pops_in_f_order() {
        let mut open = IntHeap::new();
        open.push(1, 5.0, 1.0);
        open.push(2, 3.0, 1.0);
        open.push(3, 4.0, 1.0);
        let order: Vec<u32> = std::iter::from_fn(|| open.pop()).map(|(i, _, _)| i).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn heap_ties_prefer_larger_g_then_earlier_seq() {
        let mut open = IntHeap::new();
        open.push(1, 5.0, 1.0);
        open.push(2, 5.0, 4.0);
        assert_eq!(open.pop().unwrap().0, 2);
        let mut open = IntHeap::new();
        open.push(1, 5.0, 2.0);
        open.push(2, 5.0, 2.0);
        assert_eq!(open.pop().unwrap().0, 1);
    }

    #[test]
    fn key_roundtrip_is_bit_exact() {
        for &(f, g) in
            &[(0.0, 0.0), (1.5, 0.5), (1e-300, 1e300), (f64::MAX, f64::MIN_POSITIVE), (-0.0, -0.0)]
        {
            let k = pack_key(f, g);
            assert_eq!(unpack_f(k).to_bits(), (f + 0.0).to_bits());
            assert_eq!(unpack_g(k).to_bits(), (g + 0.0).to_bits());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite")]
    fn nan_key_is_rejected_at_push() {
        let mut open = IntHeap::new();
        open.push(0, f64::NAN, 0.0);
    }

    #[test]
    fn begin_bumps_epoch_and_reports_warmth() {
        let mut s: SearchScratch<u8> = SearchScratch::new();
        assert!(!s.reused());
        assert!(!s.begin(10), "first plan is cold");
        assert_eq!(s.epoch(), 1);
        assert!(s.begin(10), "second plan is warm");
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut s: SearchScratch<u8> = SearchScratch::new();
        s.begin(4);
        s.g_stamp[0] = 1;
        s.g[0] = 7.0;
        s.force_epoch(u32::MAX);
        s.begin(4);
        assert_eq!(s.epoch(), 1, "wrap restarts at epoch 1");
        assert_eq!(s.g_of(0), f64::INFINITY, "pre-wrap stamps must not look current");
    }

    #[test]
    fn growth_leaves_new_slots_invalid() {
        let mut s: SearchScratch<u8> = SearchScratch::new();
        s.begin(2);
        s.g_stamp[0] = s.epoch();
        s.g[0] = 3.0;
        s.begin(8);
        for i in 0..8 {
            assert_eq!(s.g_of(i), f64::INFINITY);
        }
    }
}
