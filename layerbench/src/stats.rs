//! Order statistics over timing samples.

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "a median needs at least one sample");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its nearest-rank percentile, in percent.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The tail of `samples` (sorted in place); `None` with too few samples to
/// leave [`TAIL_BEYOND`] beyond a rank above the median.
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    let n = samples.len();
    if n < 2 * TAIL_BEYOND + 1 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: samples[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut samples: Vec<f64> = (0..40).rev().map(f64::from).collect();
        let t = tail(&mut samples).unwrap();
        assert_eq!(t.value, 29.0);
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 75.0);
        assert!(tail(&mut [1.0; 20]).is_none());
    }
}
