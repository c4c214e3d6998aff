//! Order statistics of the benchmark: the fast end of repeated timings for
//! gated timings, medians, and tail percentiles that are only reported when
//! the sample supports them.

/// How many samples must lie strictly beyond a tail percentile before it is
/// reported: a p99 from 300 samples rests on three values and is noise.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The quantile of repeated timings of one operation that a run reports.
///
/// Other tenants of a shared machine only ever slow an operation down, and
/// they do it in bursts of seconds to minutes, so the fast end of a run's
/// repeated timings follows the code and its median follows the
/// neighbours. Timing one fixed extraction pass over 25-second windows on
/// a shared 2-CPU machine, the windows' medians spread 10-13% (quartile
/// distance over median), their 10th percentiles 6-7%.
pub const FAST_QUANTILE: f64 = 0.1;

/// The run's figure for repeated timings of one operation: their
/// nearest-rank [`FAST_QUANTILE`] (the fastest one when there are fewer
/// than ten).
pub fn fast_time(times: &[f64]) -> f64 {
    quantile(times, FAST_QUANTILE)
}

/// The run's figure for repeated rates of one operation: their
/// nearest-rank `1 - FAST_QUANTILE` quantile, the fast end read from the
/// other side.
pub fn fast_rate(rates: &[f64]) -> f64 {
    quantile(rates, 1.0 - FAST_QUANTILE)
}

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None` when
/// fewer than [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond it.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let value = quantile(values, q);
    let beyond = values.iter().filter(|&&v| v > value).count();
    (beyond >= MIN_SAMPLES_BEYOND).then_some(Tail {
        value,
        n: values.len(),
        beyond,
    })
}

/// The nearest-rank `q`-quantile of `values`, without the support rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fast_figures_read_the_fast_end() {
        // fewer than ten timings: the fastest one
        assert_eq!(fast_time(&[3.0, 1.5, 2.0, 9.0]), 1.5);
        assert_eq!(fast_rate(&[30.0, 15.0, 20.0, 90.0]), 90.0);
        // 1..=20: the second fastest
        let times: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fast_time(&times), 2.0);
        assert_eq!(fast_rate(&times), 18.0);
        // a burst of slow timings moves the median four ranks and the
        // figure one
        let mut bursty = times.clone();
        bursty.extend([50.0; 8]);
        assert_eq!(median(&bursty) - median(&times), 4.0);
        assert_eq!(fast_time(&bursty) - fast_time(&times), 1.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1..=999: the nearest-rank p99 is 990 and only 9 values exceed it
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&short, 0.99), None);
        // 1..=1000: p99 = 990 with exactly 10 values beyond
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&enough, 0.99),
            Some(Tail {
                value: 990.0,
                n: 1000,
                beyond: 10
            })
        );
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 1000 samples, the top 20 all equal: p99 lands inside the tie, so
        // nothing is strictly beyond it and the tail is unsupported
        let mut values = vec![1.0; 980];
        values.extend(std::iter::repeat_n(5.0, 20));
        assert_eq!(tail(&values, 0.99), None);
        assert_eq!(quantile(&values, 0.99), 5.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let forward: Vec<f64> = (0..2000).map(|i| f64::from(i) * 0.5).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        assert_eq!(tail(&forward, 0.99), tail(&reversed, 0.99));
        assert_eq!(quantile(&forward, 0.5), quantile(&reversed, 0.5));
    }
}
