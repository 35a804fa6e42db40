//! Order statistics and the regression rule shared by every metric.

use cg_telemetry::{bucket_index, bucket_upper_bound, Histogram};

/// Smallest sample. Panics on an empty slice: every caller measured at
/// least once.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "min of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark prints match the ones its acceptance check
/// computes. With fewer than two samples both quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    if v.len() < 2 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// The dispersion recorded beside every end-to-end value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub k: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            min: min(xs),
            q1,
            median: median(xs),
            q3,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            k: xs.len(),
        }
    }
}

/// Quantile `q` of a telemetry histogram, interpolated linearly inside
/// the bucket that holds the rank. `Histogram::quantile` reports bucket
/// upper bounds, which are 12.5% apart: a latency that moved by less than
/// a bucket would read identically, and one that straddles a bound would
/// jump by a whole bucket. Returns 0 for an empty histogram.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut seen = 0.0;
    for (upper, count) in h.nonzero_buckets() {
        let b = bucket_index(upper);
        let lower = if b == 0 {
            0
        } else {
            bucket_upper_bound(b - 1) + 1
        };
        if seen + count as f64 >= rank {
            let frac = (rank - seen) / count as f64;
            let v = lower as f64 + frac * (upper + 1 - lower) as f64;
            return v.clamp(h.min() as f64, h.max() as f64);
        }
        seen += count as f64;
    }
    h.max() as f64
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The regression rule: `candidate` is worse than `base` by more than
/// `bound`, a share of `base`.
pub fn regressed(better: Better, bound: f64, base: f64, candidate: f64) -> bool {
    let slack = bound * base.abs();
    match better {
        Better::Higher => candidate < base - slack,
        Better::Lower => candidate > base + slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        let xs = [5.0, 1.0, 3.0, 2.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[4.0, 9.0, 1.0]), 4.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_collects_everything() {
        let s = Summary::of(&[4.0, 2.0, 8.0, 6.0, 10.0]);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.median, 6.0);
        assert_eq!((s.q1, s.q3), (3.0, 9.0));
        assert_eq!(s.max, 10.0);
        assert_eq!(s.k, 5);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_buckets() {
        let mut h = Histogram::new();
        for v in 160..176 {
            h.record(v); // one 16-wide bucket: [160, 175]
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((167.0..=169.0).contains(&p50), "p50 {p50}");
        // The bucket-bound quantile would read 175 for every rank.
        assert_eq!(h.quantile(0.5), 175);
        assert!(hist_quantile(&h, 0.25) < hist_quantile(&h, 0.75));
        assert_eq!(hist_quantile(&h, 1.0), 175.0);
        assert_eq!(hist_quantile(&h, 0.0), 160.0);
        assert_eq!(hist_quantile(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_is_exact_for_small_values() {
        let mut h = Histogram::new();
        h.record_n(3, 10);
        assert_eq!(hist_quantile(&h, 0.5), 3.0);
    }

    #[test]
    fn bound_check_respects_direction() {
        // Throughput: 10% lower is the limit.
        assert!(!regressed(Better::Higher, 0.1, 100.0, 91.0));
        assert!(regressed(Better::Higher, 0.1, 100.0, 89.0));
        assert!(!regressed(Better::Higher, 0.1, 100.0, 150.0));
        // Latency: 10% higher is the limit.
        assert!(!regressed(Better::Lower, 0.1, 200.0, 219.0));
        assert!(regressed(Better::Lower, 0.1, 200.0, 221.0));
        assert!(!regressed(Better::Lower, 0.1, 200.0, 100.0));
        // Equal values never regress, even with a zero bound.
        assert!(!regressed(Better::Lower, 0.0, 5.0, 5.0));
    }
}
