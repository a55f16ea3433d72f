//! Order statistics used by every metric: nearest-rank percentiles and the
//! tail-percentile ladder.

/// Percentiles the tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sort a sample vector in place (total order, so NaNs cannot panic).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// 1-based nearest rank of percentile `p` among `n` samples.  The small
/// slack keeps `p · n / 100` that should be whole (99.9 · 10 000 / 100) from
/// rounding up past its rank.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an already sorted slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile_sorted(&sorted, 50.0)
}

/// The tail of a sample: the highest percentile of [`TAIL_LADDER`] that has
/// at least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, or `100.0` when the sample is too small for
    /// any rung of the ladder (the maximum is reported instead).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// Select the tail of an already sorted slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail_sorted(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for &p in &TAIL_LADDER {
        let r = rank(p, n);
        if n - r >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: sorted[r - 1],
                beyond: n - r,
                count: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: percentile_sorted(sorted, 100.0),
        beyond: 0,
        count: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_on_fixed_samples() {
        let s = one_to(10);
        assert_eq!(percentile_sorted(&s, 50.0), 5.0);
        assert_eq!(percentile_sorted(&s, 90.0), 9.0);
        assert_eq!(percentile_sorted(&s, 91.0), 10.0);
        assert_eq!(percentile_sorted(&s, 100.0), 10.0);
        assert_eq!(percentile_sorted(&s, 0.1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        // 20 samples: p50 has rank 10 and exactly 10 beyond; p90 has 2.
        let t = tail_sorted(&one_to(20));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (50.0, 10.0, 10, 20)
        );
        // 100 samples: p90 has 10 beyond, p99 only 1.
        let t = tail_sorted(&one_to(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 has 10 beyond.
        let t = tail_sorted(&one_to(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 9999 samples: p99.9 would leave only 9 beyond, so p99 it is.
        let t = tail_sorted(&one_to(9999));
        assert_eq!((t.percentile, t.beyond), (99.0, 99));
        // 10000 samples: p99.9 leaves exactly 10.
        let t = tail_sorted(&one_to(10_000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_of_a_tiny_sample_falls_back_to_the_maximum() {
        let t = tail_sorted(&one_to(19));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (100.0, 19.0, 0, 19)
        );
    }
}
