//! # Harmony metrics
//!
//! The metric interface of "Exposing Application Alternatives" §2: "a
//! unified way to gather data about the performance of applications and
//! their execution environment". Producers (applications, the simulator,
//! the cluster) record samples into a shared [`MetricRegistry`]; the
//! adaptation controller and the applications read counters, gauges and
//! histograms back out of it. Hot producers resolve a [`CounterHandle`] or
//! [`HistogramHandle`] once and skip the name lookup from then on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod registry;

pub use histogram::Histogram;
pub use registry::{CounterHandle, HistogramHandle, MetricRegistry};
