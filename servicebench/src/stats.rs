//! Order statistics over raw samples, with no bucketing.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice:
/// the smallest sample with at least `q * len` samples at or below it.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `(0, 1]`.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "nearest rank of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
