//! # Harmony resources
//!
//! The cluster resource model of "Exposing Application Alternatives" §4.1:
//! nodes publish normalized computing capacity (relative to the 400 MHz
//! Pentium II reference machine), memory, and OS; links publish bandwidth
//! and latency. The [`Matcher`] binds an option's node and link
//! requirements to concrete cluster resources — first-fit as in the paper,
//! plus best-fit/worst-fit for the fragmentation ablation — and committed
//! [`Allocation`]s decrement the live capacity counters.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod cluster;
mod error;
mod frag;
mod matcher;

pub use alloc::{
    AllocEnv, AllocatedLink, AllocatedNode, Allocation, SavedCounters, SiteSpan, SiteStack, Sites,
    VarsEnv,
};
pub use cluster::{Cluster, LinkState, NodeState};
pub use error::ResourceError;
pub use frag::{fragmentation, FragReport};
pub use matcher::{Compiled, MatchScratch, Matcher, Miss, Strategy};
