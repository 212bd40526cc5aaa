//! Medians and percentiles, with the sample count that says which
//! percentiles mean anything.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, interpolating
/// linearly between the two nearest ranks. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A percentile is reported only with at least ten samples beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0
}

/// Sorted samples with their count.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile, or NaN with no samples.
    pub fn q(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            percentile(&self.sorted, q)
        }
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }
}

/// Median of unsorted values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// Nanoseconds to milliseconds, per element.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = Samples::new((1..=101).map(f64::from).collect());
        assert_eq!(s.n(), 101);
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.q(0.95), 96.0);
        assert_eq!(s.q(0.0), 1.0);
        assert_eq!(s.q(1.0), 101.0);
        // Four samples: the median lies halfway between the middle two.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn non_finite_samples_are_dropped_and_empty_is_nan() {
        let s = Samples::new(vec![f64::NAN, 2.0, f64::INFINITY, 1.0]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.median(), 1.5);
        assert!(Samples::new(Vec::new()).median().is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(2400, 0.999));
        assert!(tail_supported(20, 0.5));
    }
}
