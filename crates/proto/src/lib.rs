//! # Harmony proto
//!
//! The wire protocol of the Harmony prototype (§5, Figure 6): "a server
//! that listens on a well-known port and waits for connections from
//! application processes". Application messages carry RSL text inside
//! length-prefixed frames.
//!
//! * [`frame`] — 4-byte big-endian length + UTF-8 payload, one-shot or
//!   through a connection's reusable [`frame::FrameReader`] /
//!   [`frame::FrameWriter`];
//! * [`Request`] / [`Response`] — the message grammar (TCL-style word
//!   lists, so bundle scripts embed as braced groups);
//! * [`TcpServer`] / [`TcpTransport`] — the prototype's TCP architecture;
//! * [`LocalTransport`] — the same semantics in-process, for deterministic
//!   tests and single-process experiments;
//! * [`ChaosTransport`] — a fault-injecting wrapper over any transport
//!   (scripted drops, duplication, breaks, death) with a ground-truth
//!   [`CallLog`], for the deterministic whole-stack harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
pub mod frame;
mod message;
mod server;

pub use chaos::{CallLog, CallRecord, ChaosTransport, Fault};
pub use message::{ParseMessageError, Request, Response, VarUpdate};
pub use server::{
    handle_request, serve_stream, LocalTransport, ReconnectPolicy, ServerConfig, SharedController,
    TcpServer, TcpTransport, Transport,
};
