//! Lock-free service metrics: atomic counters plus fixed-bucket latency
//! histograms with approximate quantiles.
//!
//! Everything here is wait-free on the record path (a handful of relaxed
//! atomic adds), so workers never serialize on telemetry. Readers take
//! consistent-enough snapshots; the service never pauses for scraping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets: bucket `i` holds samples whose microsecond
/// value has bit length `i` (i.e. `[2^(i-1), 2^i)`; bucket 0 holds exactly
/// 0 µs), with the last bucket open-ended (≥ ~4.5 minutes).
const BUCKETS: usize = 30;

/// A fixed-bucket (log2 of microseconds) latency histogram.
///
/// Recording is one relaxed `fetch_add`; quantiles are reconstructed from
/// bucket counts with upper-bound rounding, so a reported p99 is an upper
/// bound within one power of two of the true value.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Number of buckets (fixed; the wire codec and merge rely on it).
    pub const NUM_BUCKETS: usize = BUCKETS;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Count in bucket `i` (0 for out-of-range indices).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Sum of all recorded samples in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Maximum recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Rebuilds a histogram from raw parts (the wire codec's inverse of the
    /// accessors above). The count is derived from the bucket sums, so a
    /// reconstructed histogram always satisfies the `count == Σ buckets`
    /// invariant regardless of what the bytes claimed.
    pub fn from_raw(buckets: &[u64], sum_us: u64, max_us: u64) -> Self {
        let h = LatencyHistogram::new();
        let mut count = 0u64;
        for (i, &n) in buckets.iter().take(BUCKETS).enumerate() {
            h.buckets[i].store(n, Ordering::Relaxed);
            count = count.saturating_add(n);
        }
        h.count.store(count, Ordering::Relaxed);
        h.sum_us.store(sum_us, Ordering::Relaxed);
        h.max_us.store(max_us, Ordering::Relaxed);
        h
    }

    /// Folds another histogram into this one: buckets, counts, and sums
    /// add; the max takes the larger side. Merging the per-shard histograms
    /// of a fleet yields exactly the histogram a single process observing
    /// all samples would have built (bucket boundaries are global
    /// constants), so fleet quantiles are as honest as shard quantiles.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_us.fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_us.fetch_max(other.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_us.load(Ordering::Relaxed) / n)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// containing it; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket 0 holds exactly-0 µs samples: its edge is 0, not
                // 1 µs (an all-zero histogram must report zero quantiles).
                if i == 0 {
                    return Some(Duration::ZERO);
                }
                // Upper edge of bucket i (bit length i) is 2^i µs, clamped
                // to the observed maximum.
                let edge_us = 1u64 << (i as u32).min(62);
                return Some(Duration::from_micros(
                    edge_us.min(self.max_us.load(Ordering::Relaxed)),
                ));
            }
        }
        Some(self.max())
    }

    /// (p50, p95, p99) in one call; zeros when empty.
    pub fn percentiles(&self) -> (Duration, Duration, Duration) {
        (
            self.quantile(0.50).unwrap_or(Duration::ZERO),
            self.quantile(0.95).unwrap_or(Duration::ZERO),
            self.quantile(0.99).unwrap_or(Duration::ZERO),
        )
    }
}

/// Aggregated service metrics, shared by the scheduler, workers, and any
/// scraper thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests presented to `submit` (admitted or not).
    pub submitted: AtomicU64,
    /// Requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Rejections due to a full ingress queue.
    pub rejected_queue_full: AtomicU64,
    /// Rejections due to an unknown map id or dimension mismatch.
    pub rejected_invalid: AtomicU64,
    /// Requests shed at admission because their deadline was infeasible
    /// given the measured backlog (graceful degradation under overload).
    pub shed_infeasible: AtomicU64,
    /// Requests completing with a planner result.
    pub completed: AtomicU64,
    /// Requests dropped because their deadline passed (queued or
    /// mid-search).
    pub timed_out: AtomicU64,
    /// Requests cancelled (queued or mid-search).
    pub cancelled: AtomicU64,
    /// Requests whose search was stopped cooperatively mid-flight by a
    /// deadline or cancellation (subset of `timed_out` + `cancelled`).
    pub interrupted_mid_search: AtomicU64,
    /// Requests whose execution panicked (isolated).
    pub panicked: AtomicU64,
    /// Requests lost to a worker death.
    pub lost: AtomicU64,
    /// Worker threads respawned by the supervisor after a panic escaped the
    /// per-request boundary.
    pub worker_respawns: AtomicU64,
    /// Worker slots permanently abandoned after exceeding the respawn-storm
    /// cap (consecutive panics with no progress between them).
    pub workers_abandoned: AtomicU64,
    /// Circuit-breaker trips: an accelerated platform crossed its
    /// consecutive-failure threshold (or a half-open probe failed) and
    /// traffic was diverted to the software checker.
    pub breaker_tripped: AtomicU64,
    /// Requests served by the software-checker fallback while a breaker was
    /// open (paths stay bit-identical; only the execution platform differs).
    pub breaker_fallbacks: AtomicU64,
    /// Half-open probe executions attempted on a tripped platform.
    pub breaker_probes: AtomicU64,
    /// Breakers closed again after a successful half-open probe.
    pub breaker_recovered: AtomicU64,
    /// Cached map artifacts whose integrity checksum failed verification;
    /// the artifact was discarded and rebuilt, and the affected request
    /// planned without the reachability prefilter.
    pub map_corruptions_detected: AtomicU64,
    /// Dispatches that reused the worker's warm per-map state.
    pub affinity_hits: AtomicU64,
    /// Dispatches that had to switch the worker to a different map.
    pub affinity_misses: AtomicU64,
    /// Collision-check template requests served without compiling: by a
    /// plan's last-key memo or by the registry's cache. Every platform
    /// adds its plans' [`racod_sim::PlanOutcome::tstats`].
    pub template_hits: AtomicU64,
    /// Collision-check template requests that compiled a new template.
    pub template_misses: AtomicU64,
    /// Gauge: `(footprint, orientation)` keys resident in the registry's
    /// template cache. Read from the cache by [`crate::PlanServer::metrics`].
    pub template_keys: AtomicU64,
    /// Gauge: distinct templates behind those keys (interned by content).
    pub template_distinct: AtomicU64,
    /// Gauge: bytes the template cache holds, keys and templates.
    pub template_bytes: AtomicU64,
    /// Searches that began on a warm (reused) scratch arena — the
    /// allocation-free steady state.
    pub scratch_reuses: AtomicU64,
    /// Searches whose scratch arena had to cold-start (first use on a
    /// worker, or growth to a larger state space).
    pub scratch_cold_starts: AtomicU64,
    /// Stale open-list pops discarded across all searches (lazy-deletion
    /// overhead of the integer-keyed heap).
    pub stale_pops: AtomicU64,
    /// Largest open-list population observed in any single search.
    pub peak_open: AtomicU64,
    /// Batches handed to workers by the dispatcher.
    pub dispatch_batches: AtomicU64,
    /// Dispatched batches of exactly 1 request.
    pub batch_size_1: AtomicU64,
    /// Dispatched batches of exactly 2 requests.
    pub batch_size_2: AtomicU64,
    /// Dispatched batches of 3-4 requests.
    pub batch_size_3_4: AtomicU64,
    /// Dispatched batches of 5-8 requests.
    pub batch_size_5_8: AtomicU64,
    /// Dispatched batches of more than 8 requests.
    pub batch_size_gt_8: AtomicU64,
    /// Current number of admitted-but-unfinished requests.
    pub in_system: AtomicU64,
    /// Grid cells flipped by applied map deltas across all maps.
    pub deltas_applied: AtomicU64,
    /// Highest map version observed across all maps (0 while every map is
    /// still at its as-registered state).
    pub map_version: AtomicU64,
    /// ALT landmark packs built (lazy cold builds plus background rebuilds
    /// after map deltas).
    pub alt_packs_built: AtomicU64,
    /// Plans that ran octile-only because the map's landmark pack was
    /// version-fenced stale (or still building) at admission.
    pub alt_pack_fallbacks: AtomicU64,
    /// Heuristic evaluations where the landmark bound strictly beat the
    /// configured base heuristic (the ALT subsystem's useful work).
    pub alt_expansions_saved: AtomicU64,
    /// Trace records durably written by the trace-writer thread.
    pub trace_records: AtomicU64,
    /// Trace records dropped: the bounded record buffer was full (the
    /// recorder never blocks the hot path) or a file write failed.
    pub trace_dropped: AtomicU64,
    /// Highest trace record-buffer depth observed after an enqueue — how
    /// close the recorder came to dropping.
    pub trace_buffer_high_water: AtomicU64,
    /// Time from submission to dispatch.
    pub queue_wait: LatencyHistogram,
    /// Time executing on a worker.
    pub service: LatencyHistogram,
    /// Time from submission to response.
    pub total: LatencyHistogram,
    // Never written and in no counter list: the server no longer
    // speculates or replans. Pinned by `benchmark/src/ladder.rs`; goes with
    // ROADMAP item 1.
    #[doc(hidden)]
    pub speculation_prechecks: AtomicU64,
    #[doc(hidden)]
    pub speculation_wasted: AtomicU64,
    #[doc(hidden)]
    pub replans_from_scratch: AtomicU64,
    #[doc(hidden)]
    pub incremental_repairs: AtomicU64,
}

/// Number of counters exposed by [`ServerMetrics::counters`].
const COUNTERS: usize = 44;

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every counter, paired with its stable short name, in render order.
    /// This is the single source of truth the text page, the wire codec,
    /// and [`merge`](Self::merge) all iterate, so a counter added here is
    /// automatically scraped, shipped, and aggregated.
    pub fn counters(&self) -> [(&'static str, &AtomicU64); COUNTERS] {
        [
            ("submitted", &self.submitted),
            ("accepted", &self.accepted),
            ("rejected_queue_full", &self.rejected_queue_full),
            ("rejected_invalid", &self.rejected_invalid),
            ("shed_infeasible", &self.shed_infeasible),
            ("completed", &self.completed),
            ("timed_out", &self.timed_out),
            ("cancelled", &self.cancelled),
            ("interrupted_mid_search", &self.interrupted_mid_search),
            ("panicked", &self.panicked),
            ("lost", &self.lost),
            ("worker_respawns", &self.worker_respawns),
            ("workers_abandoned", &self.workers_abandoned),
            ("breaker_tripped", &self.breaker_tripped),
            ("breaker_fallbacks", &self.breaker_fallbacks),
            ("breaker_probes", &self.breaker_probes),
            ("breaker_recovered", &self.breaker_recovered),
            ("map_corruptions_detected", &self.map_corruptions_detected),
            ("affinity_hits", &self.affinity_hits),
            ("affinity_misses", &self.affinity_misses),
            ("template_hits", &self.template_hits),
            ("template_misses", &self.template_misses),
            ("template_keys", &self.template_keys),
            ("template_distinct", &self.template_distinct),
            ("template_bytes", &self.template_bytes),
            ("scratch_reuses", &self.scratch_reuses),
            ("scratch_cold_starts", &self.scratch_cold_starts),
            ("stale_pops", &self.stale_pops),
            ("peak_open", &self.peak_open),
            ("dispatch_batches", &self.dispatch_batches),
            ("batch_size_1", &self.batch_size_1),
            ("batch_size_2", &self.batch_size_2),
            ("batch_size_3_4", &self.batch_size_3_4),
            ("batch_size_5_8", &self.batch_size_5_8),
            ("batch_size_gt_8", &self.batch_size_gt_8),
            ("in_system", &self.in_system),
            ("deltas_applied", &self.deltas_applied),
            ("map_version", &self.map_version),
            ("alt_packs_built", &self.alt_packs_built),
            ("alt_pack_fallbacks", &self.alt_pack_fallbacks),
            ("alt_expansions_saved", &self.alt_expansions_saved),
            ("trace_records", &self.trace_records),
            ("trace_dropped", &self.trace_dropped),
            ("trace_buffer_high_water", &self.trace_buffer_high_water),
        ]
    }

    /// The latency histograms, paired with their stable names.
    pub fn histograms(&self) -> [(&'static str, &LatencyHistogram); 3] {
        [("queue_wait", &self.queue_wait), ("service", &self.service), ("total", &self.total)]
    }

    /// Folds another metrics snapshot into this one: counters and
    /// histograms add, except `peak_open`, `map_version`, and
    /// `trace_buffer_high_water` (per-shard maxima, so the fleet value is
    /// the max over shards). `in_system` sums — the fleet's in-flight
    /// population is the sum of its shards'. The shard router uses this
    /// to aggregate per-shard `/metrics` pages into one view.
    pub fn merge(&self, other: &ServerMetrics) {
        for ((name, mine), (_, theirs)) in self.counters().iter().zip(other.counters().iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if matches!(*name, "peak_open" | "map_version" | "trace_buffer_high_water") {
                mine.fetch_max(v, Ordering::Relaxed);
            } else if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        for ((_, mine), (_, theirs)) in self.histograms().iter().zip(other.histograms().iter()) {
            mine.merge(theirs);
        }
    }

    /// Map-affinity hit rate over all dispatches (0 when none).
    pub fn affinity_hit_rate(&self) -> f64 {
        let h = self.affinity_hits.load(Ordering::Relaxed) as f64;
        let m = self.affinity_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Footprint-template hit rate over all collision-check template
    /// requests (0 when none).
    pub fn template_hit_rate(&self) -> f64 {
        let h = self.template_hits.load(Ordering::Relaxed) as f64;
        let m = self.template_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Always 0: the server no longer speculates. Pinned by
    /// `benchmark/src/ladder.rs`; goes with ROADMAP item 1.
    #[doc(hidden)]
    pub fn speculation_hit_rate(&self) -> f64 {
        0.0
    }

    /// Records a dispatched batch's size into the coarse histogram
    /// counters.
    pub fn record_batch_size(&self, n: usize) {
        self.dispatch_batches.fetch_add(1, Ordering::Relaxed);
        let bucket = match n {
            0 | 1 => &self.batch_size_1,
            2 => &self.batch_size_2,
            3..=4 => &self.batch_size_3_4,
            5..=8 => &self.batch_size_5_8,
            _ => &self.batch_size_gt_8,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders a plain-text metrics page (stable keys, one `key value` per
    /// line — scrapeable and diffable).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, counter) in self.counters() {
            let _ = writeln!(out, "racod_server_{name} {}", counter.load(Ordering::Relaxed));
        }
        for (name, h) in self.histograms() {
            let (p50, p95, p99) = h.percentiles();
            let _ = writeln!(out, "racod_server_{name}_count {}", h.count());
            let _ = writeln!(out, "racod_server_{name}_mean_us {}", h.mean().as_micros());
            let _ = writeln!(out, "racod_server_{name}_p50_us {}", p50.as_micros());
            let _ = writeln!(out, "racod_server_{name}_p95_us {}", p95.as_micros());
            let _ = writeln!(out, "racod_server_{name}_p99_us {}", p99.as_micros());
            let _ = writeln!(out, "racod_server_{name}_max_us {}", h.max().as_micros());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentiles(), (Duration::ZERO, Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn quantiles_bound_true_values() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap().as_micros() as u64;
        let p99 = h.quantile(0.99).unwrap().as_micros() as u64;
        // Upper-edge reconstruction: true p50 = 500, p99 = 990; each must be
        // bounded above by the reported value within one power of two.
        assert!((500..=1024).contains(&p50), "p50 {p50}");
        assert!((990..=1024).contains(&p99), "p99 {p99}");
        assert_eq!(h.max(), Duration::from_micros(1000));
        assert_eq!(h.mean(), Duration::from_micros(500));
    }

    #[test]
    fn all_zero_histogram_reports_zero_quantiles() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::ZERO);
        }
        let (p50, p95, p99) = h.percentiles();
        assert_eq!(p50, Duration::ZERO, "bucket 0 holds exactly-0 samples; its edge is 0");
        assert_eq!(p95, Duration::ZERO);
        assert_eq!(p99, Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn mixed_zero_and_nonzero_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::ZERO);
        }
        h.record(Duration::from_micros(1000));
        assert_eq!(h.quantile(0.5), Some(Duration::ZERO));
        let p100 = h.quantile(1.0).unwrap().as_micros() as u64;
        assert_eq!(p100, 1000, "edge clamps to observed max");
    }

    #[test]
    fn single_sample_quantiles() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(7));
        let (p50, p95, p99) = h.percentiles();
        assert_eq!(p50, p95);
        assert_eq!(p95, p99);
        assert!(p99.as_micros() >= 7);
    }

    #[test]
    fn bucket_of_is_monotonic() {
        let mut last = 0;
        for us in [0u64, 1, 2, 3, 4, 100, 10_000, u64::MAX] {
            let b = LatencyHistogram::bucket_of(us);
            assert!(b >= last);
            assert!(b < BUCKETS);
            last = b;
        }
    }

    #[test]
    fn histogram_merge_equals_manual_summation() {
        // Two shards record disjoint sample streams; merging their
        // histograms must equal the histogram of the union stream exactly
        // (buckets, count, sum, max — hence also mean and every quantile).
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..5_000u64 {
            x = racod_fault::mix64(x ^ i);
            let us = x % 2_000_000; // up to 2 s
            let sample = Duration::from_micros(us);
            if i % 3 == 0 {
                a.record(sample);
            } else {
                b.record(sample);
            }
            union.record(sample);
        }
        let merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        for i in 0..LatencyHistogram::NUM_BUCKETS {
            assert_eq!(merged.bucket_count(i), union.bucket_count(i), "bucket {i}");
        }
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.sum_us(), union.sum_us());
        assert_eq!(merged.max_us(), union.max_us());
        assert_eq!(merged.mean(), union.mean());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), union.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn histogram_from_raw_roundtrips() {
        let h = LatencyHistogram::new();
        for us in [0u64, 1, 7, 900, 1_000_000] {
            h.record(Duration::from_micros(us));
        }
        let buckets: Vec<u64> =
            (0..LatencyHistogram::NUM_BUCKETS).map(|i| h.bucket_count(i)).collect();
        let back = LatencyHistogram::from_raw(&buckets, h.sum_us(), h.max_us());
        assert_eq!(back.count(), h.count());
        assert_eq!(back.mean(), h.mean());
        assert_eq!(back.quantile(0.99), h.quantile(0.99));
        assert_eq!(back.max_us(), h.max_us());
    }

    #[test]
    fn metrics_merge_sums_counters_and_maxes_peak_open() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.completed.store(10, Ordering::Relaxed);
        b.completed.store(32, Ordering::Relaxed);
        a.peak_open.store(500, Ordering::Relaxed);
        b.peak_open.store(200, Ordering::Relaxed);
        a.in_system.store(3, Ordering::Relaxed);
        b.in_system.store(4, Ordering::Relaxed);
        a.total.record(Duration::from_micros(100));
        b.total.record(Duration::from_micros(300));
        let fleet = ServerMetrics::new();
        fleet.merge(&a);
        fleet.merge(&b);
        assert_eq!(fleet.completed.load(Ordering::Relaxed), 42);
        assert_eq!(fleet.peak_open.load(Ordering::Relaxed), 500, "peak is maxed, not summed");
        assert_eq!(fleet.in_system.load(Ordering::Relaxed), 7);
        assert_eq!(fleet.total.count(), 2);
        assert_eq!(fleet.total.sum_us(), 400);
        // Every counter participates: sum all values through the stable
        // iteration and compare against the two sources (manual summation,
        // adjusted for the one max-merged counter).
        let sum = |m: &ServerMetrics| -> u64 {
            m.counters().iter().map(|(_, c)| c.load(Ordering::Relaxed)).sum()
        };
        assert_eq!(sum(&fleet), sum(&a) + sum(&b) - 200);
    }

    #[test]
    fn counter_names_are_unique_and_match_render() {
        let m = ServerMetrics::new();
        let names: Vec<_> = m.counters().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name");
        let text = m.render_text();
        for n in names {
            assert!(text.contains(&format!("racod_server_{n} ")), "{n} missing from render");
        }
    }

    #[test]
    fn render_text_has_stable_keys() {
        let m = ServerMetrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.total.record(Duration::from_millis(2));
        let text = m.render_text();
        assert!(text.contains("racod_server_submitted 3"));
        assert!(text.contains("racod_server_total_count 1"));
        assert!(text.contains("racod_server_total_p99_us"));
    }

    #[test]
    fn search_scratch_keys_render() {
        let m = ServerMetrics::new();
        m.scratch_reuses.fetch_add(7, Ordering::Relaxed);
        m.scratch_cold_starts.fetch_add(2, Ordering::Relaxed);
        m.stale_pops.fetch_add(11, Ordering::Relaxed);
        m.peak_open.fetch_max(93, Ordering::Relaxed);
        let text = m.render_text();
        assert!(text.contains("racod_server_scratch_reuses 7"));
        assert!(text.contains("racod_server_scratch_cold_starts 2"));
        assert!(text.contains("racod_server_stale_pops 11"));
        assert!(text.contains("racod_server_peak_open 93"));
    }

    #[test]
    fn degradation_keys_render() {
        let m = ServerMetrics::new();
        m.shed_infeasible.fetch_add(4, Ordering::Relaxed);
        m.breaker_tripped.fetch_add(1, Ordering::Relaxed);
        m.breaker_fallbacks.fetch_add(12, Ordering::Relaxed);
        m.breaker_probes.fetch_add(2, Ordering::Relaxed);
        m.breaker_recovered.fetch_add(1, Ordering::Relaxed);
        m.workers_abandoned.fetch_add(1, Ordering::Relaxed);
        m.map_corruptions_detected.fetch_add(2, Ordering::Relaxed);
        let text = m.render_text();
        assert!(text.contains("racod_server_shed_infeasible 4"));
        assert!(text.contains("racod_server_breaker_tripped 1"));
        assert!(text.contains("racod_server_breaker_fallbacks 12"));
        assert!(text.contains("racod_server_breaker_probes 2"));
        assert!(text.contains("racod_server_breaker_recovered 1"));
        assert!(text.contains("racod_server_workers_abandoned 1"));
        assert!(!text.contains("racod_server_check_"), "the removed check-pool counters stay off");
        assert!(text.contains("racod_server_map_corruptions_detected 2"));
    }

    #[test]
    fn batch_size_keys_render() {
        let m = ServerMetrics::new();
        for n in [1, 1, 2, 3, 4, 6, 8, 9, 40] {
            m.record_batch_size(n);
        }
        let text = m.render_text();
        assert!(!text.contains("speculation"), "the removed speculation counters stay off");
        assert!(text.contains("racod_server_dispatch_batches 9"));
        assert!(text.contains("racod_server_batch_size_1 2"));
        assert!(text.contains("racod_server_batch_size_2 1"));
        assert!(text.contains("racod_server_batch_size_3_4 2"));
        assert!(text.contains("racod_server_batch_size_5_8 2"));
        assert!(text.contains("racod_server_batch_size_gt_8 2"));
    }

    #[test]
    fn landmark_keys_render() {
        let m = ServerMetrics::new();
        m.alt_packs_built.fetch_add(2, Ordering::Relaxed);
        m.alt_pack_fallbacks.fetch_add(5, Ordering::Relaxed);
        m.alt_expansions_saved.fetch_add(1234, Ordering::Relaxed);
        let text = m.render_text();
        assert!(text.contains("racod_server_alt_packs_built 2"));
        assert!(text.contains("racod_server_alt_pack_fallbacks 5"));
        assert!(text.contains("racod_server_alt_expansions_saved 1234"));
    }

    #[test]
    fn trace_keys_render_and_high_water_max_merges() {
        let m = ServerMetrics::new();
        m.trace_records.fetch_add(100, Ordering::Relaxed);
        m.trace_dropped.fetch_add(3, Ordering::Relaxed);
        m.trace_buffer_high_water.fetch_max(17, Ordering::Relaxed);
        let text = m.render_text();
        assert!(text.contains("racod_server_trace_records 100"));
        assert!(text.contains("racod_server_trace_dropped 3"));
        assert!(text.contains("racod_server_trace_buffer_high_water 17"));
        let other = ServerMetrics::new();
        other.trace_buffer_high_water.store(9, Ordering::Relaxed);
        other.trace_records.store(50, Ordering::Relaxed);
        m.merge(&other);
        assert_eq!(m.trace_records.load(Ordering::Relaxed), 150, "records sum");
        assert_eq!(
            m.trace_buffer_high_water.load(Ordering::Relaxed),
            17,
            "high water is maxed, not summed"
        );
    }

    #[test]
    fn affinity_rate() {
        let m = ServerMetrics::new();
        assert_eq!(m.affinity_hit_rate(), 0.0);
        m.affinity_hits.fetch_add(3, Ordering::Relaxed);
        m.affinity_misses.fetch_add(1, Ordering::Relaxed);
        assert!((m.affinity_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn template_cache_gauges_render_and_sum_across_shards() {
        let a = ServerMetrics::new();
        a.template_keys.store(40, Ordering::Relaxed);
        a.template_distinct.store(8, Ordering::Relaxed);
        a.template_bytes.store(5_000, Ordering::Relaxed);
        let text = a.render_text();
        assert!(text.contains("racod_server_template_keys 40"));
        assert!(text.contains("racod_server_template_distinct 8"));
        assert!(text.contains("racod_server_template_bytes 5000"));
        let fleet = ServerMetrics::new();
        fleet.merge(&a);
        fleet.merge(&a);
        assert_eq!(fleet.template_keys.load(Ordering::Relaxed), 80, "each shard has its own cache");
        assert_eq!(fleet.template_bytes.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn template_rate() {
        let m = ServerMetrics::new();
        assert_eq!(m.template_hit_rate(), 0.0);
        m.template_hits.fetch_add(9, Ordering::Relaxed);
        m.template_misses.fetch_add(1, Ordering::Relaxed);
        assert!((m.template_hit_rate() - 0.9).abs() < 1e-12);
        let text = m.render_text();
        assert!(text.contains("racod_server_template_hits 9"));
        assert!(text.contains("racod_server_template_misses 1"));
    }
}
