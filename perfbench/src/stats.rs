//! The benchmark's own arithmetic: percentiles, medians, the fast-state
//! quantile and self time.

/// Samples that must lie strictly beyond a reported percentile. A p99 of
/// 200 samples would otherwise be decided by two of them.
pub const TAIL_KEEP: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, by nearest rank, clamped so
/// that at least [`TAIL_KEEP`] samples lie beyond it. With too few samples
/// a high percentile therefore falls back to a lower rank instead of
/// reporting the maximum. `None` when there are not more than
/// [`TAIL_KEEP`] samples.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    if n <= TAIL_KEEP {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(n - 1 - TAIL_KEEP)])
}

/// The quantile of repeated timings of the same work (at the reference
/// speed, see [`crate::refkernel`]) that is reported as its cost. What
/// noise the reference kernel leaves only ever slows the work down, so a
/// low quantile of many repeats moves with the program and far less with
/// the host than their mean.
pub const FAST_Q: f64 = 0.25;

/// The [`FAST_Q`]-quantile of `timings` (any order) by nearest rank;
/// `NAN` when empty.
pub fn fast(timings: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = timings.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((FAST_Q * n as f64).ceil() as usize).max(1) - 1],
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Self time of a span: its duration minus the time covered by its
/// children. Children run inside the parent on the same monotonic clock,
/// so the difference is never negative; a saturating subtraction keeps a
/// clock quirk from wrapping it.
pub fn self_time(span_ns: u64, child_ns: &[u64]) -> u64 {
    span_ns.saturating_sub(child_ns.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<u32> = (1..=1000).collect();
        // Enough samples: plain nearest rank.
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // p99 of 1000 has exactly 10 beyond it; p99.5 would have 5, so it
        // is clamped to the rank that keeps 10.
        assert_eq!(percentile(&v, 0.995), Some(990));
        assert_eq!(percentile(&v, 1.0), Some(990));
        // Small sample: p99 of 100 falls back to the 90th value.
        let small: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&small, 0.99), Some(90));
        assert_eq!(percentile(&small, 0.5), Some(50));
        for n in 11..300usize {
            let s: Vec<usize> = (0..n).collect();
            for q in [0.5, 0.9, 0.99, 1.0] {
                let p = percentile(&s, q).unwrap();
                assert!(
                    n - 1 - p >= TAIL_KEEP,
                    "n={n} q={q} leaves {} beyond",
                    n - 1 - p
                );
            }
        }
        assert_eq!(percentile(&(0..10).collect::<Vec<u32>>(), 0.5), None);
        assert_eq!(percentile::<u32>(&[], 0.5), None);
    }

    #[test]
    fn fast_is_the_low_quantile_by_nearest_rank() {
        assert_eq!(fast((1..=100).rev().map(f64::from)), 25.0);
        assert_eq!(fast([7.0]), 7.0);
        assert_eq!(fast([3.0, 1.0, 2.0, 4.0]), 1.0);
        assert!(fast([]).is_nan());
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_children_and_never_goes_negative() {
        assert_eq!(self_time(1_000, &[200, 300]), 500);
        assert_eq!(self_time(1_000, &[]), 1_000);
        assert_eq!(self_time(1_000, &[600, 400]), 0);
        // A child total above the span (impossible on one monotonic clock)
        // clamps to zero instead of wrapping.
        assert_eq!(self_time(100, &[150]), 0);
    }
}
