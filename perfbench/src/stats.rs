//! Order statistics over latency samples.

/// The `p`-quantile (0 < p < 1) of `sorted` by nearest rank, or `None`
/// when `sorted` is empty.
pub fn quantile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of unsorted `values` (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[(v.len() - 1) / 2]
    }
}
