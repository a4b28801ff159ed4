//! A fixed-bucket log2 histogram sketch for per-flow metric samples.
//!
//! Scenario reports must replay byte-identically from their seeds, so
//! the sketch is **integer-only**: values land in one of 64 buckets
//! keyed by their bit length (bucket `i` holds `v` with
//! `floor(log2(v)) == i`; zero shares bucket 0), and every derived
//! statistic — average, percentiles, the fixed-point log2 used by the
//! quality scorer — is computed with integer arithmetic. No float ever
//! touches the byte-equality path.
//!
//! Raw samples are *not* retained: a sketch is 64 counters plus
//! count/sum/min/max (544 bytes), so a measurement app folds each
//! sample in as it arrives and holds the same state after ten samples
//! or ten million, a metro-scale sweep's report stays small no matter
//! how many samples the flows produced, and two sketches merge by
//! adding counters (what sweep aggregation does). The report's JSON
//! form lives beside the report writer (`ab_scenario::sketch`).

// Measurement apps record a sample per received segment, and rustc
// inlines across a crate boundary only what is marked
// (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

/// Bucket count: `u64` values have at most 64 distinct bit lengths.
pub const BUCKETS: usize = 64;

/// A log2 histogram of `u64` samples (nanoseconds, byte counts, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Sketch {
    #[inline]
    fn default() -> Self {
        Sketch::new()
    }
}

impl Sketch {
    /// An empty sketch.
    #[inline]
    pub fn new() -> Sketch {
        Sketch {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A sketch over an iterator of samples.
    #[inline]
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Sketch {
        let mut s = Sketch::new();
        for v in samples {
            s.record(v);
        }
        s
    }

    /// A sketch from its parts, as [`Sketch::buckets`], [`Sketch::count`],
    /// [`Sketch::sum`], [`Sketch::min`] and [`Sketch::max`] report them
    /// (how a parsed report rebuilds one). The parts are taken as given.
    #[inline]
    pub fn from_parts(
        buckets: [u64; BUCKETS],
        count: u64,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Sketch {
        Sketch {
            buckets,
            count,
            sum,
            min: min.unwrap_or(u64::MAX),
            max: max.unwrap_or(0),
        }
    }

    /// The bucket a value lands in: its bit length minus one (zero goes
    /// to bucket 0).
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples per bucket, indexed by [`Sketch::bucket_of`].
    #[inline]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples, saturating at `u64::MAX`.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (None when empty).
    #[inline]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (None when empty).
    #[inline]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Integer mean of the samples (None when empty).
    #[inline]
    pub fn avg(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// The `p`-th percentile (0..=100), derived from the buckets: the
    /// representative value of the bucket holding the `ceil(count*p/100)`-th
    /// smallest sample. The representative is the bucket's geometric
    /// midpoint `1.5 * 2^i`, clamped into the observed `[min, max]` so a
    /// single-bucket sketch reports within its real range. None when
    /// empty.
    #[inline]
    pub fn percentile(&self, p: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if p >= 100 {
            return Some(self.max);
        }
        let rank = (self.count * p).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let rep = if i == 0 {
                    1
                } else {
                    (1u64 << i) + (1u64 << i) / 2
                };
                return Some(rep.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another sketch into this one (sweep-level aggregation).
    #[inline]
    pub fn merge(&mut self, other: &Sketch) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-point base-2 logarithm: `log2(v)` in 1/256ths, with the
/// fractional part linearly approximated from the 8 bits below the top
/// bit. Monotonic, integer-only, and plenty for mapping latencies onto
/// a 0–100 score. `v = 0` maps to 0.
#[inline]
pub fn log2_fp(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let k = 63 - v.leading_zeros() as u64;
    let frac = if k >= 8 {
        (v >> (k - 8)) & 0xFF
    } else {
        (v << (8 - k)) & 0xFF
    };
    k * 256 + frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut s = Sketch::new();
        for v in [100, 200, 400, 800, 1600] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 3100);
        assert_eq!(s.min(), Some(100));
        assert_eq!(s.max(), Some(1600));
        assert_eq!(s.avg(), Some(620));
        // p50 lands in 400's bucket (2^8..2^9): representative 384.
        assert_eq!(s.percentile(50), Some(384));
        // p100 is clamped to the observed max.
        assert_eq!(s.percentile(100), Some(1600));
    }

    #[test]
    fn empty_sketch_has_no_statistics() {
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.avg(), None);
        assert_eq!(s.percentile(50), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn zero_and_extreme_values_bucket_safely() {
        let mut s = Sketch::new();
        s.record(0);
        s.record(1);
        s.record(u64::MAX);
        assert_eq!(Sketch::bucket_of(0), 0);
        assert_eq!(Sketch::bucket_of(1), 0);
        assert_eq!(Sketch::bucket_of(u64::MAX), 63);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), Some(u64::MAX));
        // The sum saturates instead of wrapping.
        assert_eq!(s.avg(), Some(u64::MAX / 3));
    }

    #[test]
    fn merge_is_counter_addition() {
        let a = Sketch::from_samples([10, 20, 30]);
        let b = Sketch::from_samples([40, 50]);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = Sketch::from_samples([10, 20, 30, 40, 50]);
        assert_eq!(merged, direct);
    }

    #[test]
    fn parts_round_trip() {
        for s in [Sketch::new(), Sketch::from_samples([0, 3, 900, 1 << 40])] {
            let rebuilt = Sketch::from_parts(*s.buckets(), s.count(), s.sum(), s.min(), s.max());
            assert_eq!(rebuilt, s);
        }
    }

    #[test]
    fn log2_fixed_point_is_monotonic_and_anchored() {
        assert_eq!(log2_fp(1), 0);
        assert_eq!(log2_fp(2), 256);
        assert_eq!(log2_fp(1 << 20), 20 * 256);
        let mut prev = 0;
        for v in [1u64, 2, 3, 5, 100, 1000, 1001, 1 << 30, u64::MAX] {
            let l = log2_fp(v);
            assert!(l >= prev, "log2_fp must be monotonic at {v}");
            prev = l;
        }
    }
}
