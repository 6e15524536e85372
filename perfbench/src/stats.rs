//! The benchmark's own arithmetic: order statistics and the ratios the
//! per-layer metrics are built from.

/// The `p`-th percentile (`0..=100`) of `values` by linear interpolation
/// between closest ranks (the numpy default). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the pool's capacity spent in units:
/// `busy / (wall × workers)`.
pub fn utilization(busy_s: f64, wall_s: f64, workers: usize) -> f64 {
    ratio(busy_s, wall_s * workers as f64)
}

/// Percent of end-to-end time that no layer span under it covers:
/// `100 × (e2e − covered) / e2e`.
pub fn unattributed_pct(e2e_s: f64, covered_s: f64) -> f64 {
    100.0 * ratio(e2e_s - covered_s, e2e_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        // rank 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[5.0], 90.0), Some(5.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        assert_eq!(utilization(3.0, 2.0, 2), 0.75);
        assert_eq!(utilization(2.0, 2.0, 1), 1.0);
        assert_eq!(utilization(1.0, 0.0, 2), 0.0);
    }

    #[test]
    fn unattributed_share() {
        assert_eq!(unattributed_pct(10.0, 9.0), 10.0);
        assert_eq!(unattributed_pct(10.0, 10.0), 0.0);
        assert_eq!(unattributed_pct(0.0, 0.0), 0.0);
    }
}
