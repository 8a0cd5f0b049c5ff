//! Property tests relating `Histogram::quantile_bound` to the exact
//! nearest-rank quantile of the same samples, sorted.
//!
//! The histogram keeps O(buckets) state, so its quantiles are bucket
//! *bounds*, not exact order statistics. The contract checked here:
//!
//! * `quantile_bound` is monotone in `q`;
//! * it never falls below the order statistic one rank under the exact
//!   quantile (the two nearest-rank definitions may differ by one rank);
//! * it never exceeds the next-higher order statistic by more than one
//!   bucket's growth factor.

use harmony_metrics::Histogram;
use proptest::prelude::*;

/// Exact nearest-rank index of the `q` quantile among `n` sorted samples.
fn series_rank(n: usize, q: f64) -> usize {
    ((n as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn quantile_bound_is_monotone_in_q(
        values in prop::collection::vec(0.0f64..400.0, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let mut h = Histogram::for_response_times();
        for &v in &values {
            h.record(v);
        }
        let mut qs = qs.clone();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bounds: Vec<f64> = qs.iter().map(|&q| h.quantile_bound(q).unwrap()).collect();
        for w in bounds.windows(2) {
            prop_assert!(w[0] <= w[1], "quantile bounds must be monotone: {bounds:?}");
        }
    }

    #[test]
    fn quantile_bound_brackets_the_exact_quantile(
        values in prop::collection::vec(0.0f64..400.0, 1..200),
        q in 0.0f64..=1.0,
    ) {
        // All generated values sit inside the finite buckets of the
        // response-time layout (last finite bound ≈ 524 s), so the
        // overflow bucket's max-reporting special case stays out of play.
        let mut h = Histogram::for_response_times();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let r = series_rank(values.len(), q);

        let bound = h.quantile_bound(q).unwrap();
        // Lower bracket: at worst one rank below the exact quantile.
        let lo = sorted[r.saturating_sub(1)];
        prop_assert!(
            bound >= lo,
            "bound {bound} below the rank-{r}-1 statistic {lo} (q={q})"
        );
        // Upper bracket: the bucket holding the (at worst one-higher)
        // order statistic has an upper bound within one growth factor.
        let hi = sorted[(r + 1).min(sorted.len() - 1)];
        let cap = (hi * 2.0).max(0.001); // growth 2.0, first bound 1 ms
        prop_assert!(
            bound <= cap,
            "bound {bound} exceeds one-bucket cap {cap} over statistic {hi} (q={q})"
        );
    }
}
