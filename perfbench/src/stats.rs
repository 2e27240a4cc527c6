//! Order statistics used to summarise one run and to judge steadiness across
//! runs.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this crate reports for a set
//! of runs is the same number a Python script computes from the same values.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The `pct`-th percentile of `values` by nearest rank: the smallest value
/// with at least `pct` percent of the values at or below it, so the minimum
/// for any `pct` of at most `100 / n`. `None` when empty.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let data = sorted(values);
    let rank = (pct / 100.0 * data.len() as f64).ceil() as usize;
    data.get(rank.clamp(1, data.len().max(1)) - 1).copied()
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, in percent: the share of samples at or below
    /// `value`.
    pub percentile: f64,
    /// Number of samples the percentile was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`. With fewer than `TAIL_BEYOND + 1` samples no
/// percentile has enough samples beyond it, and the maximum is reported at
/// percentile 100.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    let last = *data.last()?;
    if n <= TAIL_BEYOND {
        return Some(Tail {
            value: last,
            percentile: 100.0,
            samples: n,
        });
    }
    let at = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: data[at],
        percentile: 100.0 * (at + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Median rate over consecutive windows of operations, each window closed
/// once it holds at least `window_s` seconds of measured time. `ops` are
/// `(work units, seconds)` pairs in the order they ran. A trailing window
/// shorter than `window_s` is dropped unless it is the only one. The median
/// of window rates keeps a short burst of interference from another process
/// on the host from moving the figure the way a whole-run mean would.
pub fn windowed_rate(ops: &[(f64, f64)], window_s: f64) -> Option<f64> {
    let mut rates = Vec::new();
    let (mut work, mut secs) = (0.0, 0.0);
    for &(w, s) in ops {
        work += w;
        secs += s;
        if secs >= window_s {
            rates.push(work / secs);
            (work, secs) = (0.0, 0.0);
        }
    }
    if rates.is_empty() && secs > 0.0 {
        rates.push(work / secs);
    }
    median(&rates)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).expect("ten values have a spread");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        let flat = [2.0; 10];
        assert_eq!(spread(&flat), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 1.0), Some(1.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 1.0), Some(10.0));
        // ceil(1% of 250) = 3: the third smallest.
        let some: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(percentile(&some, 1.0), Some(3.0));
        // Fewer than 100 values: the 1st percentile is the minimum.
        assert_eq!(percentile(&[4.0, 2.0, 3.0], 1.0), Some(2.0));
        assert_eq!(percentile(&[], 1.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("non-empty");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).expect("non-empty");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum() {
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("non-empty");
        assert_eq!((t.value, t.samples), (1.0, 11));
        let five = [5.0, 1.0, 3.0, 2.0, 4.0];
        let t = tail(&five).expect("non-empty");
        assert_eq!((t.value, t.percentile), (5.0, 100.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // Three one-second windows at 10, 12 and 100 units/s: the burst
        // window does not move the median.
        let ops = [(10.0, 1.0), (12.0, 1.0), (100.0, 1.0)];
        assert_eq!(windowed_rate(&ops, 1.0), Some(12.0));
        // Windows close only once they hold enough time.
        let ops = [(1.0, 0.5), (1.0, 0.5), (4.0, 0.5), (4.0, 0.5)];
        assert_eq!(windowed_rate(&ops, 1.0), Some(5.0));
        // A lone short window still yields a rate.
        assert_eq!(windowed_rate(&[(3.0, 0.5)], 1.0), Some(6.0));
        assert_eq!(windowed_rate(&[], 1.0), None);
    }
}
