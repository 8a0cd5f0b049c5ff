//! Objective functions (§4.2).
//!
//! "Harmony's decisions are guided by an overarching objective function.
//! Our objective function currently minimizes the average completion time
//! of the jobs currently in the system. … The requirement for an objective
//! function is that it be a single variable that represents the overall
//! behavior of the system — a measure of goodness for each application
//! scaled into a common currency."
//!
//! All objectives here are *minimized*; lower scores are better.

use serde::{Deserialize, Serialize};

/// A system-level objective over the predicted per-application response
/// times. Lower is better.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Objective {
    /// The paper's default: minimize the average completion time of the
    /// jobs currently in the system.
    #[default]
    MinAvgCompletionTime,
    /// Minimize the slowest job (makespan).
    MinMakespan,
    /// Maximize aggregate throughput: minimizes `-Σ 1/rtᵢ`.
    MaxThroughput,
    /// Minimize a weighted blend of average and makespan:
    /// `w·avg + (1-w)·max`. The weight is clamped to `[0, 1]`.
    Blend(
        /// Weight on the average term.
        f64,
    ),
}

impl Objective {
    /// Scores a set of predicted response times (seconds). An empty system
    /// scores `0.0` (nothing to optimize). Infinite or NaN inputs yield
    /// `f64::INFINITY` so broken predictions never look attractive.
    pub fn score<'r, I>(&self, response_times: I) -> f64
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
        let avg = rts.clone().sum::<f64>() / n as f64;
        let max = rts.clone().fold(0.0f64, |a, &b| a.max(b));
        match self {
            Objective::MinAvgCompletionTime => avg,
            Objective::MinMakespan => max,
            Objective::MaxThroughput => -rts.map(|r| 1.0 / r.max(f64::EPSILON)).sum::<f64>(),
            Objective::Blend(w) => {
                let w = w.clamp(0.0, 1.0);
                w * avg + (1.0 - w) * max
            }
        }
    }

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MinAvgCompletionTime => "min-avg-completion",
            Objective::MinMakespan => "min-makespan",
            Objective::MaxThroughput => "max-throughput",
            Objective::Blend(_) => "blend",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_scores_zero() {
        for obj in [
            Objective::MinAvgCompletionTime,
            Objective::MinMakespan,
            Objective::MaxThroughput,
            Objective::Blend(0.5),
        ] {
            assert_eq!(obj.score(&[]), 0.0);
        }
    }

    #[test]
    fn average_objective() {
        assert_eq!(Objective::MinAvgCompletionTime.score(&[10.0, 20.0, 30.0]), 20.0);
    }

    #[test]
    fn makespan_objective() {
        assert_eq!(Objective::MinMakespan.score(&[10.0, 20.0, 30.0]), 30.0);
    }

    #[test]
    fn throughput_objective_prefers_more_faster_jobs() {
        let slow = Objective::MaxThroughput.score(&[100.0, 100.0]);
        let fast = Objective::MaxThroughput.score(&[10.0, 10.0]);
        assert!(fast < slow);
    }

    #[test]
    fn blend_interpolates() {
        let rts = [10.0, 30.0];
        assert_eq!(Objective::Blend(1.0).score(&rts), 20.0);
        assert_eq!(Objective::Blend(0.0).score(&rts), 30.0);
        assert_eq!(Objective::Blend(0.5).score(&rts), 25.0);
        // Out-of-range weights clamp.
        assert_eq!(Objective::Blend(7.0).score(&rts), 20.0);
    }

    #[test]
    fn broken_predictions_score_infinite() {
        assert_eq!(Objective::MinAvgCompletionTime.score(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(Objective::MinAvgCompletionTime.score(&[1.0, f64::NAN]), f64::INFINITY);
        assert_eq!(Objective::MinAvgCompletionTime.score(&[-1.0]), f64::INFINITY);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Objective::default().name(), "min-avg-completion");
        assert_eq!(Objective::MinMakespan.name(), "min-makespan");
        assert_eq!(Objective::MaxThroughput.name(), "max-throughput");
        assert_eq!(Objective::Blend(0.3).name(), "blend");
    }
}
