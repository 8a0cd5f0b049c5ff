//! The objective function (§4.2).
//!
//! "Harmony's decisions are guided by an overarching objective function.
//! Our objective function currently minimizes the average completion time
//! of the jobs currently in the system. … The requirement for an objective
//! function is that it be a single variable that represents the overall
//! behavior of the system — a measure of goodness for each application
//! scaled into a common currency."
//!
//! The objective is *minimized*; lower scores are better.

/// The objective's short name, as the `status` snapshot reports it.
pub const NAME: &str = "min-avg-completion";

/// The mean of a set of predicted response times (seconds): the paper's
/// average completion time. An empty system scores `0.0` (nothing to
/// optimize). Infinite, NaN or negative inputs yield `f64::INFINITY` so
/// broken predictions never look attractive.
pub fn mean_completion<'r, I>(response_times: I) -> f64
where
    I: IntoIterator<Item = &'r f64>,
    I::IntoIter: Clone,
{
    let rts = response_times.into_iter();
    let n = rts.clone().count();
    if n == 0 {
        return 0.0;
    }
    if rts.clone().any(|r| !r.is_finite() || *r < 0.0) {
        return f64::INFINITY;
    }
    rts.sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_scores_zero() {
        assert_eq!(mean_completion(&[]), 0.0);
    }

    #[test]
    fn the_score_is_the_average() {
        assert_eq!(mean_completion(&[10.0, 20.0, 30.0]), 20.0);
    }

    #[test]
    fn broken_predictions_score_infinite() {
        assert_eq!(mean_completion(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(mean_completion(&[1.0, f64::NAN]), f64::INFINITY);
        assert_eq!(mean_completion(&[-1.0]), f64::INFINITY);
    }
}
