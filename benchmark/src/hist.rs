//! Fixed-memory latency histogram and the slice-median estimator.
//!
//! Latencies go into log-linear buckets — 128 sub-buckets per power of
//! two, so a bucket is at most 1/128 (0.8 %) wide relative to its lower
//! edge, and a quantile, read from inside the bucket that holds the
//! sample it stands for, is within 0.8 % of that sample. The table has
//! a fixed size, so the benchmark's memory (and `peak_rss_mb`) does
//! not grow with the op count of a faster commit.
//!
//! A run's figure for a metric is the **median over its slices**: the
//! timed window is cut into equal slices, each slice yields one value,
//! and a noise episode shorter than half the window cannot move the
//! median.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: values up to 2^42 ns (about 73 min).
const OCTAVES: usize = 42 - SUB_BITS as usize;
const BUCKETS: usize = SUB as usize * (OCTAVES + 1);

/// A latency histogram over nanoseconds.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize; // exact below 128 ns
    }
    let top = 63 - ns.leading_zeros(); // position of the leading one, >= SUB_BITS
    let octave = (top - SUB_BITS) as usize + 1;
    let sub = ((ns >> (top - SUB_BITS)) & (SUB - 1)) as usize;
    (octave * SUB as usize + sub).min(BUCKETS - 1)
}

/// The `[lo, hi)` range of values a bucket holds.
fn bucket_range(b: usize) -> (u64, u64) {
    let (octave, sub) = (b / SUB as usize, (b % SUB as usize) as u64);
    if octave == 0 {
        return (sub, sub + 1);
    }
    let shift = octave as u32 - 1;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1 << shift))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: Box::new([0; BUCKETS]), total: 0, max: 0 }
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let c = &mut self.counts[bucket_of(ns)];
        *c = c.saturating_add(1);
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest latency recorded (exact).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 < q <= 1) in nanoseconds, or `None` when the
    /// histogram is empty: the sample of rank `ceil(q * n)`, placed
    /// inside its bucket as if the bucket's samples were spread evenly
    /// over it (so two runs do not read the same figure just because
    /// they share a bucket; the answer stays inside the bucket, within
    /// 0.8 % of the sample).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, hi) = bucket_range(b);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + within * (hi - lo) as f64);
            }
            seen += c;
        }
        unreachable!("rank <= total")
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }

    /// The `q`-quantile, refused unless at least ten samples lie beyond
    /// it: a tail percentile resting on fewer is one slow request, not
    /// a figure.
    pub fn tail_quantile(&self, q: f64) -> Result<f64, String> {
        let beyond = self.samples_beyond(q);
        if beyond < 10 {
            return Err(format!(
                "p{:.0} needs at least 10 samples beyond it, this histogram has {beyond} of {}",
                q * 100.0,
                self.total
            ));
        }
        Ok(self.quantile(q).expect("non-empty: ten samples lie beyond the rank"))
    }
}

/// The median of `values` (mean of the two middle ones for an even
/// count); `None` when empty. NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The slice-median estimator: one value per slice from `f`, slices
/// that yield nothing (no sample fell into them) are left out, and the
/// median of the rest is the run's figure.
pub fn slice_median<S>(slices: &[S], f: impl Fn(&S) -> Option<f64>) -> Option<f64> {
    let per_slice: Vec<f64> = slices.iter().filter_map(f).collect();
    median(&per_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_lo = 0u64;
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(lo, expect_lo, "bucket {b}");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            expect_lo = hi;
        }
    }

    #[test]
    fn quantile_error_is_within_one_percent() {
        // A geometric ladder from 100 ns to ~100 ms: every value is its
        // own quantile, so each read-back tests one bucket's midpoint.
        let mut values = Vec::new();
        let mut v = 100.0f64;
        while v < 1e8 {
            values.push(v as u64);
            v *= 1.037;
        }
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        for (i, &v) in values.iter().enumerate() {
            // Mid-rank, so rounding cannot tip `ceil` into the next value.
            let q = (i as f64 + 0.5) / values.len() as f64;
            let got = h.quantile(q).unwrap();
            // One sample per bucket reads back as the bucket's middle.
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= 0.01, "value {v} read back as {got} ({err})");
        }
        assert_eq!(h.max_ns(), *values.last().unwrap());
    }

    #[test]
    fn median_and_p95_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(us * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.tail_quantile(0.95).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 <= 0.01, "{p50}");
        assert!((p95 - 950_000.0).abs() / 950_000.0 <= 0.01, "{p95}");
        assert_eq!(h.samples_beyond(0.95), 50);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = 1000 + i * 37;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max_ns(), both.max_ns());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_and_empty_slices_yield_nothing() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert!(h.tail_quantile(0.95).is_err());
        assert_eq!(median(&[]), None);
        // A slice without samples is skipped, not counted as zero.
        let slices = [Some(4.0), None, Some(2.0), Some(9.0)];
        assert_eq!(slice_median(&slices, |s| *s), Some(4.0));
        assert_eq!(slice_median(&[None::<f64>, None], |s| *s), None);
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn tail_quantile_fails_loudly_without_ten_samples_beyond() {
        let mut h = Histogram::new();
        for i in 0..199u64 {
            h.record(1000 + i);
        }
        // ceil(0.95 * 199) = 190 -> 9 beyond.
        let err = h.tail_quantile(0.95).unwrap_err();
        assert!(err.contains("at least 10"), "{err}");
        h.record(5000);
        assert!(h.tail_quantile(0.95).is_ok(), "200 samples leave 10 beyond p95");
    }

    #[test]
    fn oversized_values_land_in_the_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).is_some());
    }
}
