//! Measurement utilities: histograms and percentile summaries.
//!
//! The paper reports min/mean/max for its TTF series and per-chip bars
//! for load; a reproduction should also expose tails (p99 queueing
//! latency is what a linecard actually provisions for). [`Histogram`]
//! is a log-bucketed counter good for nanosecond-to-millisecond ranges;
//! [`Summary`] is an exact small-sample percentile helper used by the
//! bench harnesses.

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 covers `[0, 2)`), so
/// relative error is bounded by 2× — plenty for latency reporting.
///
/// # Examples
///
/// ```
/// use clue_core::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) >= 2);
/// assert!(h.quantile(1.0) >= 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()).saturating_sub(1) as usize
    }

    /// Records one sample. Counters saturate instead of overflowing,
    /// so a histogram fed for arbitrarily long degrades (mean becomes a
    /// lower bound) rather than panicking or wrapping.
    pub fn record(&mut self, value: u64) {
        let b = &mut self.buckets[Self::bucket_of(value)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample (exact).
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (exact).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the lower bound of the bucket
    /// containing the q-th sample (within 2× of the true value).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Renders the histogram as the one-line digest the router's stats
    /// snapshot embeds for each of its histograms:
    /// `{"count":…,"min":…,"mean":…,"p50":…,"p90":…,"p99":…,"max":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::json::object()
            .int("count", self.count())
            .int("min", self.min())
            .fixed("mean", self.mean(), 1)
            .int("p50", self.quantile(0.5))
            .int("p90", self.quantile(0.9))
            .int("p99", self.quantile(0.99))
            .int("max", self.max())
            .finish()
    }

    /// Merges another histogram into this one. Like [`Histogram::record`],
    /// all counters saturate.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }
}

/// Exact percentile summary over an owned sample set (bench-side).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
            self.sorted = true;
        }
    }

    /// Exact percentile by nearest-rank (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]` or a sample is NaN.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1);
        self.samples[rank - 1]
    }

    /// Merges another summary into this one (sample-set union).
    ///
    /// Mirrors [`Histogram::merge`] for the exact-sample side: after the
    /// merge, `count`/`mean`/`quantile` behave as if every sample of
    /// both summaries had been recorded into one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// `(min, p50, p99, max, mean)` in one call.
    pub fn digest(&mut self) -> (f64, f64, f64, f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        self.ensure_sorted();
        (
            self.samples[0],
            self.quantile(0.5),
            self.quantile(0.99),
            *self.samples.last().expect("non-empty"),
            self.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn histogram_quantiles_within_2x() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((250..=512).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_empty_is_defined() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_json_digest() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(1_000);
        assert_eq!(
            h.to_json(),
            "{\"count\":2,\"min\":100,\"mean\":550.0,\"p50\":64,\"p90\":512,\"p99\":512,\"max\":1000}"
        );
        assert_eq!(
            Histogram::new().to_json(),
            "{\"count\":0,\"min\":0,\"mean\":0.0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}"
        );
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let _ = Histogram::new().quantile(1.5);
    }

    #[test]
    fn summary_exact_percentiles() {
        let mut s = Summary::new();
        for v in (1..=100).rev() {
            s.record(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        let (min, p50, p99, max, mean) = s.digest();
        assert_eq!((min, p50, p99, max), (1.0, 50.0, 99.0, 100.0));
        assert!((mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_digest() {
        assert_eq!(Summary::new().digest(), (0.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn histogram_merge_equals_bulk_record() {
        // Splitting a sample stream across two histograms and merging
        // must be indistinguishable from recording it all into one:
        // same count/sum (via mean), same exact min/max, and the same
        // bucket counts, hence identical quantiles everywhere.
        let stream: Vec<u64> = (0..500u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in stream.iter().enumerate() {
            whole.record(v);
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(left.count(), 500);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 0..1_000u64 {
            h.record((i * 7_919) % 65_536);
        }
        let mut prev = 0;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn summary_merge_preserves_min_max_count_sum() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        for v in [4.0, 8.0, 15.0] {
            a.record(v);
        }
        for v in [16.0, 23.0, 42.0, 0.5] {
            b.record(v);
        }
        let sum_before = a.mean() * a.count() as f64 + b.mean() * b.count() as f64;
        a.merge(&b);
        assert_eq!(a.count(), 7);
        let (min, _, _, max, mean) = a.digest();
        assert_eq!(min, 0.5);
        assert_eq!(max, 42.0);
        assert!(
            (mean * 7.0 - sum_before).abs() < 1e-9,
            "sum must be preserved"
        );
        // Merging an empty summary is the identity.
        let count = a.count();
        a.merge(&Summary::new());
        assert_eq!(a.count(), count);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        for v in [3u64, 17, 4_096] {
            a.record(v);
        }
        let reference = a.clone();
        // Non-empty ← empty: nothing changes, min/max untouched.
        a.merge(&Histogram::new());
        assert_eq!(a, reference);
        // Empty ← non-empty: becomes an exact copy, including the
        // empty side's sentinel min (u64::MAX) being replaced.
        let mut e = Histogram::new();
        e.merge(&reference);
        assert_eq!(e, reference);
        assert_eq!(e.min(), 3);
        assert_eq!(e.max(), 4_096);
        // Empty ← empty stays empty and well-defined.
        let mut ee = Histogram::new();
        ee.merge(&Histogram::new());
        assert_eq!(ee.count(), 0);
        assert_eq!(ee.min(), 0);
        assert_eq!(ee.max(), 0);
    }

    #[test]
    fn histogram_merge_single_sample_each_side() {
        let mut a = Histogram::new();
        a.record(7);
        let mut b = Histogram::new();
        b.record(9_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 7);
        assert_eq!(a.max(), 9_000_000);
        assert_eq!(a.mean(), (7.0 + 9_000_000.0) / 2.0);
        // Rank-1 quantile lands in 7's bucket [4, 8).
        assert_eq!(a.quantile(0.01), 4);
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        // Sum saturation: two near-max samples cannot wrap.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // The sum pegged at u64::MAX; the mean degrades to a lower
        // bound rather than going negative-ish garbage.
        assert!(h.mean() <= u64::MAX as f64);
        assert!(h.mean() >= (u64::MAX / 2) as f64);

        // Count saturation: doubling via self-merge 64+ times pegs the
        // counters at u64::MAX without panicking in debug builds.
        let mut d = Histogram::new();
        d.record(1);
        for _ in 0..70 {
            let snapshot = d.clone();
            d.merge(&snapshot);
        }
        assert_eq!(d.count(), u64::MAX);
        assert_eq!(d.quantile(0.5), 0, "bucket 0 lower bound");
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 1);
    }

    #[test]
    fn summary_merge_with_empty_and_single_sample() {
        // Empty ← empty.
        let mut e = Summary::new();
        e.merge(&Summary::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.digest(), (0.0, 0.0, 0.0, 0.0, 0.0));
        // Empty ← single.
        let mut one = Summary::new();
        one.record(42.0);
        let mut s = Summary::new();
        s.merge(&one);
        assert_eq!(s.count(), 1);
        assert_eq!(s.digest(), (42.0, 42.0, 42.0, 42.0, 42.0));
        // Single ← single keeps exact quantiles at every rank.
        let mut other = Summary::new();
        other.record(-1.5);
        s.merge(&other);
        assert_eq!(s.count(), 2);
        assert_eq!(s.quantile(0.0), -1.5);
        assert_eq!(s.quantile(0.5), -1.5);
        assert_eq!(s.quantile(1.0), 42.0);
    }

    #[test]
    fn summary_merge_after_sort_resets_sorted_state() {
        // Querying a quantile sorts in place; a merge after that must
        // not leave the summary believing it is still sorted.
        let mut a = Summary::new();
        for v in [5.0, 1.0, 3.0] {
            a.record(v);
        }
        assert_eq!(a.quantile(1.0), 5.0); // forces the sort
        let mut b = Summary::new();
        b.record(0.5);
        a.merge(&b);
        assert_eq!(a.quantile(0.0), 0.5, "new minimum must be visible");
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn summary_merge_quantiles_are_monotone_and_exact() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..50 {
            a.record(f64::from(i * 2)); // evens 0..98
            b.record(f64::from(i * 2 + 1)); // odds 1..99
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        // Exact nearest-rank over the interleaved union…
        assert_eq!(a.quantile(0.5), 49.0);
        assert_eq!(a.quantile(1.0), 99.0);
        // …and monotone along the whole grid.
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = a.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }
}
