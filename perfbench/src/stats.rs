//! Summary statistics for per-pass figures and per-record latencies.

/// Median of `values` (the mean of the middle two for an even count);
/// `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// The `q`-quantile (`0.0..=1.0`) of `values` in any order, by linear
/// interpolation between closest ranks; `0.0` for no values.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    interpolate(v.len(), q, |i| v[i])
}

/// The `q`-quantile (`0.0..=1.0`) of ascending-sorted `sorted`, by
/// linear interpolation between closest ranks; `0.0` for no values.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    interpolate(sorted.len(), q, |i| f64::from(sorted[i]))
}

/// The `q`-quantile of `n` ascending values, read through `at`.
fn interpolate(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = pos - lo as f64;
    at(lo) * (1.0 - frac) + at(hi) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_of_sorts_then_interpolates() {
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile_of(&v, 0.25), 20.0);
        assert_eq!(quantile_of(&v, 0.75), 40.0);
        assert_eq!(quantile_of(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(quantile_of(&[], 0.25), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.125), 15.0);
    }
}
