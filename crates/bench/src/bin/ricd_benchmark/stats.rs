//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method) because the acceptance rule for a benchmark is
//! written in those terms: spread = (q3 − q1) ÷ median.

/// The candidate tail percentiles, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 80, 75];

/// Samples that must lie beyond a percentile before it is worth quoting.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation on the exclusive
/// positions `p/100 · (n + 1)`, clamped to the sample range. `None` for an
/// empty sample; a single sample is every percentile of itself.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let pos = p / 100.0 * (n as f64 + 1.0);
    let lo = pos.floor();
    let frac = pos - lo;
    // 1-based position `lo`, clamped so the interpolation pair stays inside.
    let i = (lo as usize).clamp(1, n);
    let j = (i + 1).min(n);
    Some(v[i - 1] + (v[j - 1] - v[i - 1]) * if lo < 1.0 { 0.0 } else { frac })
}

/// The median (`None` for an empty sample).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// `(q1, median, q3)`, as `statistics.quantiles(values, n=4)` gives them
/// from three samples up. Needs two samples, like the Python function; at
/// exactly two Python extrapolates past the sample range and this clamps.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    Some((
        percentile(values, 25.0)?,
        percentile(values, 50.0)?,
        percentile(values, 75.0)?,
    ))
}

/// Quartile distance as a share of the median: the spread the acceptance
/// rule compares against a metric's bound. `None` below two samples or at
/// a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The median, over consecutive windows of `window` samples, of each
/// window's `p`-th percentile. What a disturbance from outside does to a
/// minority of the windows does not move it, where the percentile of the
/// pooled samples takes all of it. A last window shorter than half of
/// `window` is left out unless it is the only one. `None` for an empty
/// sample or a zero `window`.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> Option<f64> {
    if window == 0 {
        return None;
    }
    let per_window: Vec<f64> = values
        .chunks(window)
        .enumerate()
        .filter(|(i, w)| *i == 0 || w.len() * 2 >= window)
        .filter_map(|(_, w)| percentile(w, p))
        .collect();
    median(&per_window)
}

/// Samples strictly beyond the `p`-th percentile's rank in a sample of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n * (100 - p as usize) / 100
}

/// The highest percentile of the ladder (99, 95, 90, 80, 75) that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it; `None` when even p75
/// does not (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn empty_sample_has_no_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(spread(&[]), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn one_sample_is_its_own_median_but_has_no_quartiles() {
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(quartiles(&[7.5]), None);
        assert_eq!(tail_percentile(1), None);
    }

    #[test]
    fn ten_samples_match_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        assert_eq!(spread(&ramp(10)), Some(1.0));
        assert_eq!(tail_percentile(10), None);
    }

    #[test]
    fn eleven_samples_match_python_quantiles() {
        // statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        assert_eq!(quartiles(&ramp(11)), Some((3.0, 6.0, 9.0)));
        assert_eq!(median(&ramp(11)), Some(6.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = ramp(11);
        v.reverse();
        assert_eq!(quartiles(&v), Some((3.0, 6.0, 9.0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 240 ticks: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(beyond(240, 95), 12);
        assert_eq!(tail_percentile(240), Some(95));
        // 60 batches: p80 leaves 12, p90 only 6.
        assert_eq!(tail_percentile(60), Some(80));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(13_000), Some(99));
    }

    #[test]
    fn windowed_percentile_ignores_a_disturbed_minority() {
        assert_eq!(windowed_percentile(&[], 10, 50.0), None);
        assert_eq!(windowed_percentile(&[1.0], 0, 50.0), None);
        assert_eq!(windowed_percentile(&[3.0], 10, 95.0), Some(3.0));
        // Five windows of ten; two of them ten times slower.
        let mut v: Vec<f64> = Vec::new();
        for w in 0..5 {
            let scale = if w == 1 || w == 3 { 10.0 } else { 1.0 };
            v.extend(ramp(10).iter().map(|x| x * scale));
        }
        assert_eq!(windowed_percentile(&v, 10, 50.0), Some(5.5));
        assert!(percentile(&v, 50.0).unwrap() > 5.5);
        // A short last window is dropped, a last window of half a window kept.
        v.extend([1000.0; 4]);
        assert_eq!(windowed_percentile(&v, 10, 50.0), Some(5.5));
        v.push(1000.0);
        assert!(windowed_percentile(&v, 10, 50.0).unwrap() > 5.5);
    }

    #[test]
    fn percentiles_clamp_to_the_sample_range() {
        let v = ramp(240);
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(240.0));
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 216.9).abs() < 1e-9, "{p90}");
    }
}
