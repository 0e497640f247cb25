//! Order statistics.

/// Nearest-rank quantile of ascending `sorted` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` in any order; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// The median at each index over `series` (as many indexes as the shortest
/// series).
pub fn index_medians(series: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    let series: Vec<Vec<f64>> = series.into_iter().collect();
    let n = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&series.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten of `n`
/// samples beyond it, or the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| {
            let at = (p / 100.0 * n as f64).ceil() as usize;
            n.saturating_sub(at) >= 10
        })
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn index_medians_take_each_index_median() {
        let s = vec![
            vec![5.0, 1.0, 7.0],
            vec![3.0, 4.0, 9.0, 2.0],
            vec![4.0, 2.0, 8.0],
        ];
        assert_eq!(index_medians(s), vec![4.0, 2.0, 8.0]);
        assert!(index_medians(Vec::new()).is_empty());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(1_000_000), 99.9);
    }
}
