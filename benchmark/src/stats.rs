//! Order statistics and the FNV-1a digest the benchmark's checks use.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`: the smallest sample
/// with at least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of a set of `n`
/// (the guide asks for at least ten before a percentile is quoted).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Incremental 64-bit FNV-1a.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the driver computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles of fewer than two samples");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two samples.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Smallest of `values`. Panics on an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// How far `estimate` moves between the odd-numbered and the even-numbered
/// samples, as a share of its value on all of them; 0 for fewer than two
/// samples. Interleaved halves see the same drift of the host, so the gap
/// is what the estimator itself cannot resolve.
pub fn half_gap<T: Clone>(values: &[T], estimate: fn(&[T]) -> f64) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let half = |parity| {
        let picked: Vec<T> = values.iter().skip(parity).step_by(2).cloned().collect();
        estimate(&picked)
    };
    (half(0) - half(1)).abs() / estimate(values)
}

/// The time of a round put together from the fastest execution of each of
/// its parts: `rounds[r][i]` is how long part `i` took in round `r`, and
/// the result is the sum over `i` of the minimum over `r`. Every round
/// must have the same parts. Panics on no rounds.
pub fn best_parts(rounds: &[Vec<f64>]) -> f64 {
    let parts = rounds.first().expect("best parts of no rounds").len();
    (0..parts)
        .map(|i| min(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}
