//! End-to-end and per-layer benchmark of a live `harmonyd`.
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they are meant to move together.

pub mod cli;
pub mod daemon;
pub mod expo;
pub mod gen;
pub mod layers;
pub mod pacer;
pub mod pin;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
