//! Order statistics for timing samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; all zeros when there are none.
    pub fn of(samples: &[f64]) -> Self {
        let sorted = sorted(samples);
        let (q1, q3) = quartiles_sorted(&sorted);
        Self {
            median: median_sorted(&sorted),
            q1,
            q3,
            n: sorted.len(),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); 0 when empty.
fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so that spreads printed
/// here match the ones Python computes from the JSON. With fewer
/// than two samples both quartiles equal the median.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 2 {
        let m = median_sorted(v);
        return (m, m);
    }
    // Position i·(n+1)/4 on the 1-based order, interpolated between its
    // neighbours (and extrapolated at the ends, as Python does).
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `q`-quantile (nearest rank) of `samples`, but only when at least
/// ten samples lie above it; otherwise the tail is too thin to report.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= 10).then(|| v[rank - 1])
}

/// Samples needed before [`tail`] reports quantile `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(v: &[f64]) -> (f64, f64, f64, usize) {
        let s = Summary::of(v);
        (s.q1, s.median, s.q3, s.n)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of(&[3.0, 1.0, 2.0]).1, 2.0);
        assert_eq!(of(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
        assert_eq!(of(&[]), (0.0, 0.0, 0.0, 0));
        assert_eq!(of(&[7.0]), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(of(&v), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(of(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(of(&[1.0, 2.0]), (0.75, 1.5, 2.25, 2));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.5), Some(50.0));
        assert_eq!(tail(&v, 0.9), Some(90.0));
        assert_eq!(tail(&v, 0.95), None);
        assert_eq!(tail(&[], 0.5), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99), Some(990.0));
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.5), 20);
        assert!(tail(&big[..999], 0.99).is_none());
    }
}
