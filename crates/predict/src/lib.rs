//! # Harmony predict
//!
//! Performance prediction for the Harmony adaptation controller (§4.2 of
//! "Exposing Application Alternatives"). Harmony evaluates candidate option
//! choices by projecting each application's response time:
//!
//! * [`DefaultModel`] — the paper's default: CPU seconds scaled by node
//!   speed and processor-sharing contention, plus communication volume over
//!   the slowest usable link;
//! * [`ExplicitModel`] — application-supplied `performance` tags, either
//!   measured data points interpolated piecewise-linearly or an expression
//!   over the allocation environment;
//! * [`LogPParams`] — the LogP occupancy refinement the paper sketches in
//!   §3.4.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod default_model;
mod error;
mod explicit;
mod logp;
mod model;
mod queueing;

pub use default_model::{CommModel, DefaultModel};
pub use error::PredictError;
pub use explicit::{model_for_option, option_model, ExplicitModel, OptionModel};
pub use logp::LogPParams;
pub use model::{Prediction, PredictionContext, Predictor};
pub use queueing::InteractiveModel;
