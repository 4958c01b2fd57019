//! Deterministic, seedable fault injection for the RACOD planning stack.
//!
//! A [`FaultPlan`] is a small set of [`FaultRule`]s derived from (or built
//! around) a `u64` seed. Instrumented code asks the plan for a decision at a
//! named [`FaultSite`] with a caller-chosen `token` (request id, check
//! ordinal, build sequence…); the decision is a pure function of
//! `(seed, site, rule, token)`, so a chaos run is exactly reproducible from
//! its seed alone — no RNG state is consumed, no ambient entropy is read.
//!
//! The plan is designed to be zero-cost when absent: callers hold an
//! `Option<Arc<FaultPlan>>` and production configs leave it `None`, so the
//! hot path pays one branch on a register-resident option. A present plan
//! can also be [`FaultPlan::disarm`]ed at runtime, which is how chaos tests
//! model "the faults stop" while keeping the same wiring.

use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Marker embedded in every injected panic message so tests (and humans
/// reading logs) can tell an injected fault from an organic bug.
pub const PANIC_TAG: &str = "racod-fault: injected";

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
///
/// All fault decisions hash through this, and it is exported so sibling
/// crates (e.g. the server's retry jitter) can derive deterministic
/// pseudo-random streams without depending on an RNG crate.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice: the workspace's standard content hash (frame
/// and trace-record checksums, shard routing, artifact integrity).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from `seed` — the state after hashing earlier bytes —
/// so a value can be hashed piecewise without concatenating it.
pub fn fnv1a_with(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Folds a 64-bit hash onto itself so both halves contribute to a 32-bit
/// checksum.
pub fn fold32(h: u64) -> u32 {
    (h ^ (h >> 32)) as u32
}

/// Named instrumentation points across the planning stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `PlanServer::submit`, after validation but before enqueue.
    Admission,
    /// The dispatcher loop, while draining ingress (models a stalled queue).
    Dispatch,
    /// Inside an individual collision check (software or accelerated).
    MidCheck,
    /// The search loop's cooperative interrupt poll.
    MidSearch,
    /// The worker, after planning finished but before the reply is settled.
    Completion,
    /// Building a map's cached artifacts (models a corrupted load).
    MapLoad,
    /// The wire transport, per outbound frame (`racod-net`). Rules here use
    /// the frame-level actions: [`FaultAction::Drop`] discards the frame,
    /// `Delay` stalls it, `Corrupt` flips payload bytes so the receiver's
    /// checksum rejects it.
    Net,
}

impl FaultSite {
    pub const ALL: [FaultSite; 7] = [
        FaultSite::Admission,
        FaultSite::Dispatch,
        FaultSite::MidCheck,
        FaultSite::MidSearch,
        FaultSite::Completion,
        FaultSite::MapLoad,
        FaultSite::Net,
    ];

    /// The in-process sites [`FaultPlan::from_seed`] draws from. Kept at the
    /// pre-`Net` set on purpose: seed-derived chaos plans (the PR 5 seed
    /// matrix) must stay bit-identical across releases. Wire faults are
    /// opted into explicitly via [`FaultPlan::builder`].
    pub const SEEDED: [FaultSite; 6] = [
        FaultSite::Admission,
        FaultSite::Dispatch,
        FaultSite::MidCheck,
        FaultSite::MidSearch,
        FaultSite::Completion,
        FaultSite::MapLoad,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultSite::Admission => 0,
            FaultSite::Dispatch => 1,
            FaultSite::MidCheck => 2,
            FaultSite::MidSearch => 3,
            FaultSite::Completion => 4,
            FaultSite::MapLoad => 5,
            FaultSite::Net => 6,
        }
    }

    /// Per-site hash salt so the same token draws independent decisions at
    /// different sites.
    #[inline]
    fn salt(self) -> u64 {
        mix64(0x0051_74e5_u64 ^ ((self.index() as u64) << 32))
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a [`PANIC_TAG`]-prefixed message.
    Panic,
    /// Sleep briefly (models a slow check / stalled stage).
    Delay(Duration),
    /// Sleep long enough to blow deadlines (models a wedged check). Always
    /// finite so chaos runs terminate without external recovery.
    Wedge(Duration),
    /// Signal the caller to corrupt its own artifact (only the caller knows
    /// what "corrupt" means for its data).
    Corrupt,
    /// Signal the caller to discard the unit of work it was about to emit
    /// (a wire frame, a message). Only meaningful at sites whose callers
    /// know what "drop" means; [`FaultPlan::perturb`] treats it as a no-op
    /// side effect and reports it like `Corrupt` does.
    Drop,
}

/// One (site, probability, action) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    pub site: FaultSite,
    /// Firing probability in parts-per-million (1_000_000 = always).
    pub rate_ppm: u32,
    pub action: FaultAction,
}

/// A deterministic fault schedule. See the crate docs for the model.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    armed: AtomicBool,
    injected: [AtomicU64; 7],
}

impl FaultPlan {
    /// An empty, armed plan that never fires. Useful as a wiring test.
    pub fn inert(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            armed: AtomicBool::new(true),
            injected: Default::default(),
        }
    }

    /// Start building an explicit plan (used by targeted tests).
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder { plan: FaultPlan::inert(seed) }
    }

    /// Derive a mixed fault schedule from a seed alone: 2–4 rules over the
    /// in-process sites ([`FaultSite::SEEDED`] — wire faults are explicit
    /// opt-ins), with site-appropriate actions and rates in the 2–15% range
    /// (panic-style rules are kept rarer so a chaos run degrades rather
    /// than flatlines). The same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut stream = seed;
        let mut next = move || {
            stream = mix64(stream ^ 0x00a0_2f31_c59d_1e77_u64);
            stream
        };
        let n_rules = 2 + (next() % 3) as usize; // 2..=4
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let site = FaultSite::SEEDED[(next() % FaultSite::SEEDED.len() as u64) as usize];
            let pct = |lo: u64, hi: u64, r: u64| (lo + r % (hi - lo + 1)) as u32 * 10_000;
            let us = |lo: u64, hi: u64, r: u64| Duration::from_micros(lo + r % (hi - lo + 1));
            let (rate_ppm, action) = match site {
                FaultSite::Admission => {
                    (pct(3, 15, next()), FaultAction::Delay(us(50, 300, next())))
                }
                FaultSite::Dispatch => {
                    (pct(3, 15, next()), FaultAction::Delay(us(200, 1_000, next())))
                }
                FaultSite::MidCheck => match next() % 3 {
                    0 => (pct(1, 4, next()), FaultAction::Panic),
                    1 => (pct(5, 15, next()), FaultAction::Delay(us(20, 100, next()))),
                    _ => (pct(1, 3, next()), FaultAction::Wedge(us(2_000, 8_000, next()))),
                },
                FaultSite::MidSearch => match next() % 2 {
                    0 => (pct(1, 4, next()), FaultAction::Panic),
                    _ => (pct(4, 12, next()), FaultAction::Delay(us(100, 1_000, next()))),
                },
                FaultSite::Completion => (pct(1, 5, next()), FaultAction::Panic),
                FaultSite::MapLoad => (pct(5, 40, next()), FaultAction::Corrupt),
                // Not in SEEDED (wire faults are explicit opt-ins), but the
                // match stays exhaustive should that ever change.
                FaultSite::Net => (pct(2, 10, next()), FaultAction::Drop),
            };
            rules.push(FaultRule { site, rate_ppm, action });
        }
        FaultPlan { rules, ..FaultPlan::inert(seed) }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Stop all future injections (decisions return `None`). Counters and
    /// rules are preserved; [`FaultPlan::arm`] resumes the same schedule.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Number of faults injected at `site` so far.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Pure decision: does any rule fire at `site` for this `token`?
    ///
    /// The first matching rule (in plan order) that draws a hit wins; each
    /// rule draws independently from `(seed, site, rule index, token)`.
    /// Fired decisions are counted per site.
    pub fn decide(&self, site: FaultSite, token: u64) -> Option<FaultAction> {
        if !self.armed() || self.rules.is_empty() {
            return None;
        }
        for (ri, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let h = mix64(self.seed ^ site.salt() ^ mix64(token).wrapping_add((ri as u64) << 48));
            if h % 1_000_000 < u64::from(rule.rate_ppm) {
                self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
                return Some(rule.action);
            }
        }
        None
    }

    /// Decide *and execute* the side-effectful actions inline: sleeps for
    /// `Delay`/`Wedge`, panics (with [`PANIC_TAG`]) for `Panic`. Returns
    /// `true` for the caller-executed actions (`Corrupt`, `Drop`), which
    /// only the caller can carry out. Sites that distinguish the two (the
    /// wire layer) use [`decide`](Self::decide) directly.
    #[track_caller]
    pub fn perturb(&self, site: FaultSite, token: u64) -> bool {
        match self.decide(site, token) {
            None => false,
            Some(FaultAction::Delay(d)) | Some(FaultAction::Wedge(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(FaultAction::Corrupt) | Some(FaultAction::Drop) => true,
            Some(FaultAction::Panic) => {
                let at = Location::caller();
                panic!(
                    "{PANIC_TAG} panic at {site:?} (seed {}, token {token}, from {}:{})",
                    self.seed,
                    at.file(),
                    at.line()
                );
            }
        }
    }

    /// True if `msg` (a panic payload string) came from this crate.
    pub fn is_injected_panic(msg: &str) -> bool {
        msg.contains(PANIC_TAG)
    }
}

/// Builder returned by [`FaultPlan::builder`].
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Add a probabilistic rule (`rate_ppm` out of 1_000_000).
    pub fn rule(mut self, site: FaultSite, rate_ppm: u32, action: FaultAction) -> Self {
        self.plan.rules.push(FaultRule { site, rate_ppm: rate_ppm.min(1_000_000), action });
        self
    }

    /// Add a rule that always fires at `site`.
    pub fn always(self, site: FaultSite, action: FaultAction) -> Self {
        self.rule(site, 1_000_000, action)
    }

    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // Frame and trace-record checksums are this function's output on
        // the wire and on disk; the reference vectors pin it.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_with(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fold32(0x0000_0001_0000_0003), 2);
    }
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::from_seed(0xfeed);
        let b = FaultPlan::from_seed(0xfeed);
        assert_eq!(a.rules(), b.rules());
        for site in FaultSite::ALL {
            for token in 0..2_000u64 {
                assert_eq!(a.decide(site, token), b.decide(site, token));
            }
        }
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn different_seeds_differ() {
        // Not a hard guarantee for any pair, but these two must not collide.
        let a = FaultPlan::from_seed(1);
        let b = FaultPlan::from_seed(2);
        let fire = |p: &FaultPlan| {
            let mut hits = Vec::new();
            for site in FaultSite::ALL {
                for token in 0..512u64 {
                    if p.decide(site, token).is_some() {
                        hits.push((site, token));
                    }
                }
            }
            hits
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::builder(7)
            .rule(FaultSite::MidCheck, 500_000, FaultAction::Delay(Duration::ZERO))
            .build();
        let fired =
            (0..10_000u64).filter(|&t| plan.decide(FaultSite::MidCheck, t).is_some()).count();
        assert!((4_000..=6_000).contains(&fired), "50% rule fired {fired}/10000");
        assert_eq!(plan.injected_at(FaultSite::MidCheck), fired as u64);
    }

    #[test]
    fn disarm_silences_and_arm_resumes() {
        let plan = FaultPlan::builder(3).always(FaultSite::Completion, FaultAction::Panic).build();
        plan.disarm();
        assert_eq!(plan.decide(FaultSite::Completion, 0), None);
        assert_eq!(plan.injected_total(), 0);
        plan.arm();
        assert_eq!(plan.decide(FaultSite::Completion, 0), Some(FaultAction::Panic));
        assert_eq!(plan.injected_total(), 1);
    }

    #[test]
    fn sites_decide_independently() {
        let plan = FaultPlan::builder(9)
            .always(FaultSite::MapLoad, FaultAction::Corrupt)
            .rule(FaultSite::MidSearch, 0, FaultAction::Panic)
            .build();
        assert!(plan.perturb(FaultSite::MapLoad, 42));
        assert!(!plan.perturb(FaultSite::MidSearch, 42));
        assert!(!plan.perturb(FaultSite::Admission, 42));
    }

    #[test]
    fn injected_panics_carry_the_tag() {
        let plan = FaultPlan::builder(5).always(FaultSite::MidSearch, FaultAction::Panic).build();
        let err = catch_unwind(AssertUnwindSafe(|| {
            plan.perturb(FaultSite::MidSearch, 1);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(FaultPlan::is_injected_panic(msg), "missing tag in {msg:?}");
        assert_eq!(plan.injected_at(FaultSite::MidSearch), 1);
    }

    #[test]
    fn net_site_decides_independently_and_deterministically() {
        let plan = FaultPlan::builder(11)
            .rule(FaultSite::Net, 250_000, FaultAction::Drop)
            .rule(FaultSite::Net, 250_000, FaultAction::Corrupt)
            .build();
        let first: Vec<_> = (0..4_000u64).map(|t| plan.decide(FaultSite::Net, t)).collect();
        let replay = FaultPlan::builder(11)
            .rule(FaultSite::Net, 250_000, FaultAction::Drop)
            .rule(FaultSite::Net, 250_000, FaultAction::Corrupt)
            .build();
        let second: Vec<_> = (0..4_000u64).map(|t| replay.decide(FaultSite::Net, t)).collect();
        assert_eq!(first, second);
        let fired = first.iter().flatten().count();
        assert!(fired > 0, "a 25%+25% rule pair should fire over 4000 tokens");
        // Net decisions never bleed into other sites.
        assert_eq!(plan.decide(FaultSite::MidCheck, 0), None);
    }

    #[test]
    fn from_seed_never_emits_net_rules() {
        // Seed-derived plans predate the wire layer; their site pool is
        // frozen so PR 5 chaos seeds replay bit-identically forever.
        for seed in 0..256u64 {
            for rule in FaultPlan::from_seed(seed).rules() {
                assert_ne!(rule.site, FaultSite::Net, "seed {seed} drew a Net rule");
            }
        }
    }

    #[test]
    fn from_seed_covers_varied_sites_across_seeds() {
        let mut sites = std::collections::HashSet::new();
        for seed in 0..64u64 {
            for rule in FaultPlan::from_seed(seed).rules() {
                sites.insert(rule.site);
                assert!(rule.rate_ppm <= 400_000, "from_seed rates stay bounded");
            }
        }
        assert!(sites.len() >= 5, "seed sweep should reach most sites, got {sites:?}");
    }
}
