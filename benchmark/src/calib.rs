//! What makes the numbers repeat on a noisy shared host: one pinned core
//! and time measured against an interleaved fixed calibration burst.
//!
//! On the box this benchmark was defined on, one unchanged binary reads up
//! to 1.8× apart in raw plans/s between runs, because other tenants of the
//! host slow the core down for tens of seconds at a time — with no steal
//! reported. A burst is a fixed amount of benchmark-owned, std-only work;
//! dividing each chunk of requests by the bursts taken around it turns wall
//! time into "reference" time: what the chunk would have taken with the
//! host at the speed the reference constants were recorded at.
//!
//! The host does not slow all code alike. Code that keeps the core's
//! execution ports full (the *wide* part: allocate, fill, free) lost 50 %
//! in the same minutes in which code that waits on dependent loads and
//! mispredicted branches (the *deep* part: heap and bit probes) lost 15 %.
//! A burst therefore times both parts, and each workload weighs them by
//! how it spends its own time (see `Workload::deep_weight`).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference durations of the two burst parts: this box's medians, set
/// once. Never change them — every calibrated number in every result file
/// is in units of these constants.
pub const WIDE_REF_NS: f64 = 15_000_000.0;
pub const DEEP_REF_NS: f64 = 15_500_000.0;

/// Each part runs as this many equal slices, timed one by one.
const SLICES: usize = 100;
const WIDE_SLICE_ITERS: u32 = 1_500;
const DEEP_SLICE_ITERS: u32 = 5_000;

/// Bits in the deep part's probe array: 32 KiB, so it sits in the L1 data
/// cache the way a planner's bit-grid rows do.
const PROBE_BITS: usize = 32 * 1024 * 8;

/// How long each slice of one burst part took, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Part([u32; SLICES]);

impl Part {
    /// A part whose every slice took the same time.
    #[cfg(test)]
    pub fn even(total: Duration) -> Part {
        Part([(total.as_nanos() / SLICES as u128) as u32; SLICES])
    }

    pub fn total_ns(&self) -> f64 {
        self.0.iter().map(|&s| s as f64).sum()
    }

    /// The part cut into stretches about as long as `span`: how many slices
    /// make one, and how long each took. Empty when the part holds fewer
    /// than [`MIN_STRETCHES`].
    fn stretches(&self, span: Duration) -> (usize, Vec<f64>) {
        let slice_ns = self.total_ns() / SLICES as f64;
        let group = ((span.as_nanos() as f64 / slice_ns).round() as usize).max(1);
        if group * MIN_STRETCHES > SLICES {
            return (group, Vec::new());
        }
        (group, self.0.chunks_exact(group).map(|g| g.iter().map(|&s| s as f64).sum()).collect())
    }

    /// What the part would have taken had all of it run like its median
    /// stretch of length `span`. The host's interference comes partly as a
    /// general slow-down and partly as stalls of a millisecond or more; a
    /// request much shorter than the gap between stalls usually meets
    /// none, so its latency follows the median stretch of its own length,
    /// not the mean. A part that holds too few stretches of `span` has no
    /// median stretch to speak of: it reads as its total.
    pub fn typical_ns(&self, span: Duration) -> f64 {
        match self.stretches(span) {
            (_, stretches) if stretches.is_empty() => self.total_ns(),
            (group, stretches) => crate::stats::median(&stretches) * SLICES as f64 / group as f64,
        }
    }

    /// `(stalled, all)` stretches of length `span`: a stretch is stalled
    /// when it took more than [`STALL`] times the median one.
    pub fn stalled(&self, span: Duration) -> (usize, usize) {
        let (_, stretches) = self.stretches(span);
        if stretches.is_empty() {
            return (0, 0);
        }
        let limit = STALL * crate::stats::median(&stretches);
        (stretches.iter().filter(|&&s| s > limit).count(), stretches.len())
    }
}

/// A stretch of a burst that took this many times the median stretch met a
/// stall of the host, not a slow-down.
const STALL: f64 = 1.5;

/// A burst part is read by its stretches only when it holds this many: a
/// request longer than a tenth of a part (1.5 ms) meets its share of the
/// stalls like any other work.
const MIN_STRETCHES: usize = 10;

/// One calibration burst: how long its two fixed parts took.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub wide: Part,
    pub deep: Part,
}

impl Burst {
    /// Runs both parts. Nothing here calls into the repository, so no
    /// change to the program can alter the yardstick.
    pub fn take() -> Burst {
        Burst { wide: wide(), deep: deep() }
    }

    /// How slow the host was, relative to the reference (1 = reference
    /// speed, above 1 = slower), with `deep_weight` of the weight on the
    /// deep part and the rest on the wide part. `span` selects what the
    /// reading is for: `None` for work that adds up (throughput, set-up),
    /// the typical latency for latency samples (see [`Part::typical_ns`]).
    pub fn slowness(&self, deep_weight: f64, span: Option<Duration>) -> f64 {
        let read = |part: &Part| span.map_or(part.total_ns(), |s| part.typical_ns(s));
        (1.0 - deep_weight) * read(&self.wide) / WIDE_REF_NS
            + deep_weight * read(&self.deep) / DEEP_REF_NS
    }
}

fn sliced(mut slice: impl FnMut()) -> Part {
    let mut part = [0u32; SLICES];
    for ns in &mut part {
        let begin = Instant::now();
        slice();
        *ns = begin.elapsed().as_nanos().min(u32::MAX as u128) as u32;
    }
    Part(part)
}

/// Wide part: build, read and drop small vectors, as the CODAcc model does
/// per tile — independent stores and allocator fast paths that keep the
/// core's ports busy.
fn wide() -> Part {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keep: Vec<Vec<(u64, bool)>> = Vec::with_capacity(65);
    let mut acc = 0u64;
    let part = sliced(|| {
        for _ in 0..WIDE_SLICE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = 16 + (x % 90) as usize;
            let v: Vec<(u64, bool)> = (0..n as u64).map(|i| (i ^ x, i & 1 == 0)).collect();
            acc = acc.wrapping_add(v[n / 2].0);
            if x & 7 == 0 {
                keep.push(v);
                if keep.len() > 64 {
                    keep.swap_remove((x >> 8) as usize % 64);
                }
            }
        }
    });
    black_box((acc, keep.len()));
    part
}

/// Deep part: an xorshift stream through a bounded `BinaryHeap` (the open
/// list) and random probes of a 32 KiB bit array (the collision checks) —
/// chains of dependent loads and unpredictable branches.
fn deep() -> Part {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(1024);
    let mut bits = vec![0u64; PROBE_BITS / 64];
    let mut acc = 0u64;
    let part = sliced(|| {
        for _ in 0..DEEP_SLICE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(x);
            if heap.len() > 512 {
                acc = acc.wrapping_add(heap.pop().unwrap_or(0));
            }
            let write = (x >> 40) as usize % PROBE_BITS;
            bits[write / 64] ^= 1 << (write % 64);
            let read = (x >> 17) as usize % PROBE_BITS;
            acc = acc.wrapping_add((bits[read / 64] >> (read % 64)) & 1);
        }
    });
    black_box(acc);
    part
}

/// Bursts within this many pieces either side of a piece of work set its
/// host speed. One burst is a noisy reading (cv 10–20 % within a run) of a
/// host state that lasts seconds to tens of seconds; eight of them are not.
const WINDOW: usize = 3;

/// A sequence of timed pieces of work with a burst before the first,
/// between every two, and after the last.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Wall time of each piece.
    pub walls: Vec<Duration>,
    /// `walls.len() + 1` bursts: `bursts[k]` ran just before piece `k`.
    pub bursts: Vec<Burst>,
    /// Weight of the deep part in this work's yardstick.
    pub deep_weight: f64,
}

impl Phase {
    /// Starts a phase by taking its first burst.
    pub fn begin(deep_weight: f64) -> Phase {
        Phase { walls: Vec::new(), bursts: vec![Burst::take()], deep_weight }
    }

    /// Records a piece that took `wall` and takes the burst that follows it.
    pub fn push(&mut self, wall: Duration) {
        self.walls.push(wall);
        self.bursts.push(Burst::take());
    }

    /// Times `work` as the next piece.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let begin = Instant::now();
        let out = work();
        self.push(begin.elapsed());
        out
    }

    /// Reference speed ÷ host speed while piece `k` ran: below 1 when the
    /// host ran slower than the reference, so multiplying a wall time by it
    /// gives the time the work would have taken at reference speed. `span`
    /// is as for [`Burst::slowness`].
    pub fn factor(&self, k: usize, span: Option<Duration>) -> f64 {
        let near = &self.bursts[k.saturating_sub(WINDOW)..(k + 2 + WINDOW).min(self.bursts.len())];
        near.len() as f64 / near.iter().map(|b| b.slowness(self.deep_weight, span)).sum::<f64>()
    }

    /// Piece `k`'s duration in reference seconds.
    pub fn calibrated_s(&self, k: usize) -> f64 {
        self.walls[k].as_secs_f64() * self.factor(k, None)
    }

    /// The share of request-length stretches of this phase's bursts that
    /// met a stall: the share of requests as long as `span` that did. A
    /// stalled request lands in the top of the latency distribution
    /// whatever the program did, so the `p`-th percentile of the program is
    /// read at the level `p · (1 − share)` of what the clients saw.
    pub fn stall_share(&self, span: Duration) -> f64 {
        let (stalled, all) = self
            .bursts
            .iter()
            .flat_map(|b| [b.wide.stalled(span), b.deep.stalled(span)])
            .fold((0, 0), |(s, a), (stalled, all)| (s + stalled, a + all));
        if all == 0 {
            0.0
        } else {
            stalled as f64 / all as f64
        }
    }
}

/// Pins the calling thread — and every thread it later spawns — to the
/// highest-numbered CPU it is allowed to run on, and returns that CPU.
///
/// Must run before any thread is spawned: Linux threads inherit the mask
/// of the thread that creates them.
#[cfg(target_os = "linux")]
pub fn pin_to_highest_cpu() -> Result<usize, String> {
    const WORDS: usize = 16; // 1024 CPUs, the kernel's default cpu_set_t
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 means the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| "affinity mask is empty".to_string())?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed.
    if unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity({cpu}): {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Pinning is what the measurement method rests on; without it the
/// benchmark refuses to run rather than print numbers that do not repeat.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_highest_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A burst taken with the host running `slow` times slower than the
    /// reference.
    fn burst_at(slow: f64) -> Burst {
        Burst {
            wide: Part::even(Duration::from_nanos((WIDE_REF_NS * slow) as u64)),
            deep: Part::even(Duration::from_nanos((DEEP_REF_NS * slow) as u64)),
        }
    }

    /// A phase of `walls` (ms) whose bursts saw the host at `slow[k]`.
    fn phase(walls: &[u64], slow: &[f64], deep_weight: f64) -> Phase {
        assert_eq!(slow.len(), walls.len() + 1);
        Phase {
            walls: walls.iter().map(|&w| ms(w)).collect(),
            bursts: slow.iter().map(|&s| burst_at(s)).collect(),
            deep_weight,
        }
    }

    #[test]
    fn reference_speed_leaves_time_unchanged() {
        for deep_weight in [0.0, 0.5, 1.0] {
            let p = phase(&[200, 200], &[1.0, 1.0, 1.0], deep_weight);
            assert!((p.factor(1, None) - 1.0).abs() < 1e-9);
            assert!((p.calibrated_s(0) - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn a_host_running_slow_is_divided_out() {
        // Synthetic series: the same 200 ms of work per piece, on a host
        // that runs a quarter slower for the second half of the phase.
        let n = 4 * WINDOW + 4;
        let slow: Vec<f64> = (0..=n).map(|k| if k > n / 2 { 1.25 } else { 1.0 }).collect();
        let walls: Vec<u64> = (0..n).map(|k| if k >= n / 2 { 250 } else { 200 }).collect();
        let p = phase(&walls, &slow, 0.5);
        // Away from the flip every piece reads 200 ms again …
        for k in [0, 1, n - 2, n - 1] {
            assert!((p.calibrated_s(k) - 0.2).abs() < 1e-6, "piece {k}: {}", p.calibrated_s(k));
        }
        // … and over the whole phase the error the smoothing makes at the
        // flip cancels to well under a percent.
        let total: f64 = (0..n).map(|k| p.calibrated_s(k)).sum();
        assert!((total / (0.2 * n as f64) - 1.0).abs() < 0.01, "{total}");
    }

    #[test]
    fn one_noisy_burst_hardly_moves_a_piece() {
        // A single burst reads 30 % slow on a steady host: calibrating each
        // piece against its own two bursts would take 13 % off both
        // neighbours; the window spreads it thin.
        let n = 4 * WINDOW + 2;
        let mut slow = vec![1.0; n + 1];
        slow[n / 2] = 1.3;
        let p = phase(&vec![200; n], &slow, 0.0);
        for k in 0..n {
            assert!((p.factor(k, None) - 1.0).abs() < 0.04, "piece {k}: {}", p.factor(k, None));
        }
    }

    #[test]
    fn each_workload_follows_the_part_it_is_weighted_on() {
        // The host slows wide code by half and deep code not at all.
        let uneven = Burst { wide: burst_at(1.5).wide, deep: burst_at(1.0).deep };
        let at = |deep_weight| {
            Phase { walls: vec![ms(300)], bursts: vec![uneven; 2], deep_weight }.calibrated_s(0)
        };
        assert!((at(0.0) - 0.2).abs() < 1e-6, "all wide: 300 ms was 200 ms of work");
        assert!((at(1.0) - 0.3).abs() < 1e-6, "all deep: the host was not slow for it");
        assert!((at(0.5) - 0.24).abs() < 1e-6);
    }

    #[test]
    fn a_short_request_follows_the_median_stretch_not_the_stalls() {
        // 100 slices of 150 µs; the host stalls three of them by 2 ms each.
        let mut slices = [150_000u32; SLICES];
        for k in [10, 50, 90] {
            slices[k] += 2_000_000;
        }
        let part = Part(slices);
        assert_eq!(part.total_ns(), 21e6, "work that adds up pays for every stall");
        // A 0.4 ms request is two slices long (a slice averages 210 µs with
        // the stalls); most stretches of two meet no stall.
        assert_eq!(part.typical_ns(Duration::from_micros(400)), 15e6);
        assert_eq!(part.stalled(Duration::from_micros(400)), (3, 50));
        // A 10 ms request fits the part only twice: it meets its share of
        // the stalls, and the part reads as its total.
        assert_eq!(part.typical_ns(ms(10)), 21e6);
        assert_eq!(part.stalled(ms(10)), (0, 0));
    }

    #[test]
    fn bursts_do_fixed_work() {
        // Not a timing assertion: both parts must take measurable time,
        // which fails if the compiler deletes a loop.
        let b = Burst::take();
        assert!(b.wide.total_ns() > 1e5 && b.deep.total_ns() > 1e5);
    }
}
