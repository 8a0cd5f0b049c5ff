//! Fault-injectable transport wrapper for deterministic whole-stack
//! testing.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and applies *scripted*
//! faults — message drops, duplication, connection breaks, process death
//! — to individual calls. It draws no randomness of its own: faults are
//! queued explicitly by the embedding (the `harmony-harness` schedule
//! explorer, or a hand-written test), so a failing interleaving is
//! replayable bit-for-bit from its fault script alone.
//!
//! The wrapper also keeps a [`CallLog`] of what the *inner* transport
//! actually saw: which requests reached the server, in what order, and
//! what each returned. Oracles reconstruct expected server state from
//! that log — the ground truth of delivered messages — rather than from
//! the client's (possibly fault-confused) view.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::message::{Request, Response};
use crate::server::Transport;

/// One scripted fault, consumed by the next [`Transport::call`].
/// Serializable, so a schedule that scripts faults round-trips through
/// the harness's artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// The request is lost before reaching the server and the connection
    /// breaks (a send into a dead socket). The caller sees
    /// `ConnectionReset`; the server never observes the request.
    DropRequest,
    /// The server receives and applies the request, but the response is
    /// lost and the connection breaks — the at-least-once hazard. The
    /// caller sees `ConnectionReset` and cannot tell this from
    /// [`Fault::DropRequest`]; the log can.
    DropResponse,
    /// The request is delivered twice back-to-back (duplicated frame);
    /// the second response is returned. Exercises idempotency of the
    /// verb.
    Duplicate,
}

/// What the inner transport saw for one delivered (or dropped) call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// The request as the wrapper observed it.
    pub request: Request,
    /// The inner transport's response; `None` when the fault dropped the
    /// request before delivery or the inner call itself failed.
    pub response: Option<Response>,
    /// The fault applied to this call, if any.
    pub fault: Option<Fault>,
    /// True when the request reached the inner transport (i.e. the server
    /// observed it) — false only for drops before delivery.
    pub delivered: bool,
}

/// Shared, drainable log of inner-transport activity.
pub type CallLog = Arc<Mutex<Vec<CallRecord>>>;

/// A [`Transport`] wrapper that injects scripted faults and logs ground
/// truth.
///
/// State machine: a *broken* wrapper fails every call with
/// `ConnectionReset` until [`Transport::reconnect`] (which succeeds and
/// clears the break, letting the client library's reattach/recovery path
/// run); a *dead* wrapper (see [`ChaosTransport::kill`]) fails calls with
/// `NotConnected` and refuses to reconnect — a crashed client process.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    queue: VecDeque<Fault>,
    broken: bool,
    dead: bool,
    injected: u64,
    log: CallLog,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps an inner transport with no faults scheduled.
    pub fn new(inner: T) -> Self {
        ChaosTransport {
            inner,
            queue: VecDeque::new(),
            broken: false,
            dead: false,
            injected: 0,
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Queues a fault for an upcoming call (FIFO).
    pub fn inject(&mut self, fault: Fault) {
        self.queue.push_back(fault);
        self.injected += 1;
    }

    /// Breaks the connection immediately (as a server restart or network
    /// partition would): every call fails until `reconnect`.
    pub fn break_connection(&mut self) {
        self.broken = true;
    }

    /// Kills the transport permanently: calls fail with `NotConnected`
    /// and `reconnect` reports `Ok(false)`. Models a crashed client — a
    /// best-effort `End` on drop goes nowhere, so only the server's lease
    /// reaper can clean the session up.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// True while the connection is broken (and not yet reconnected).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Number of faults injected over the wrapper's lifetime.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// A handle to the ground-truth call log (shared; drain with
    /// `log().lock().drain(..)`).
    pub fn log(&self) -> CallLog {
        Arc::clone(&self.log)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn record(
        &self,
        request: &Request,
        response: Option<&Response>,
        fault: Option<Fault>,
        delivered: bool,
    ) {
        self.log.lock().push(CallRecord {
            request: request.clone(),
            response: response.cloned(),
            fault,
            delivered,
        });
    }

    fn broken_err() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection broken")
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "chaos: transport killed"));
        }
        if self.broken {
            return Err(Self::broken_err());
        }
        match self.queue.pop_front() {
            Some(f @ Fault::DropRequest) => {
                self.broken = true;
                self.record(req, None, Some(f), false);
                Err(Self::broken_err())
            }
            Some(f @ Fault::DropResponse) => {
                let resp = self.inner.call(req);
                self.record(req, resp.as_ref().ok(), Some(f), true);
                self.broken = true;
                Err(Self::broken_err())
            }
            Some(f @ Fault::Duplicate) => {
                let first = self.inner.call(req)?;
                self.record(req, Some(&first), Some(f), true);
                let second = self.inner.call(req)?;
                self.record(req, Some(&second), Some(f), true);
                Ok(second)
            }
            None => {
                let resp = self.inner.call(req)?;
                self.record(req, Some(&resp), None, true);
                Ok(resp)
            }
        }
    }

    fn reconnect(&mut self) -> io::Result<bool> {
        if self.dead {
            return Ok(false);
        }
        // Re-dial the inner channel when it supports it (a TCP transport
        // would); an in-process channel never actually broke, so clearing
        // the simulated break is the whole reconnect.
        let _ = self.inner.reconnect()?;
        self.broken = false;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{handle_request, LocalTransport, SharedController};
    use harmony_core::{Controller, ControllerConfig};
    use harmony_resources::Cluster;
    use parking_lot::RwLock;

    fn shared(nodes: usize) -> SharedController {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).unwrap();
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())))
    }

    #[test]
    fn passthrough_logs_ground_truth() {
        let ctl = shared(2);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        let resp = t.call(&Request::Startup { app: "bag".into() }).unwrap();
        assert!(matches!(resp, Response::Registered { .. }));
        let log = t.log();
        let entries = log.lock().clone();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].delivered);
        assert!(entries[0].fault.is_none());
        assert!(matches!(entries[0].response, Some(Response::Registered { .. })));
    }

    #[test]
    fn drop_request_never_reaches_the_server() {
        let ctl = shared(2);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        t.inject(Fault::DropRequest);
        let err = t.call(&Request::Startup { app: "bag".into() }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(ctl.read().instances().len(), 0, "server must not see the dropped request");
        // Broken until reconnect.
        assert!(t.is_broken());
        let err = t.call(&Request::Status).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(t.reconnect().unwrap());
        assert!(t.call(&Request::Status).is_ok());
    }

    #[test]
    fn drop_response_applies_server_side() {
        let ctl = shared(2);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        t.inject(Fault::DropResponse);
        let err = t.call(&Request::Startup { app: "bag".into() }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(ctl.read().instances().len(), 1, "server applied the request");
        // The log kept the response the caller never saw.
        let log = t.log();
        let entries = log.lock().clone();
        assert!(entries[0].delivered);
        assert!(matches!(entries[0].response, Some(Response::Registered { .. })));
    }

    #[test]
    fn duplicate_delivers_twice() {
        let ctl = shared(4);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        t.inject(Fault::Duplicate);
        let resp = t.call(&Request::Startup { app: "bag".into() }).unwrap();
        // Second registration wins the returned response.
        let Response::Registered { id, .. } = resp else { panic!("expected Registered") };
        assert_eq!(id, 2);
        assert_eq!(ctl.read().instances().len(), 2);
        assert_eq!(t.log().lock().len(), 2);
    }

    #[test]
    fn killed_transport_stays_dead() {
        let ctl = shared(2);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        t.kill();
        let err = t.call(&Request::Status).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        assert!(!t.reconnect().unwrap(), "a dead transport must refuse to reconnect");
        assert!(t.call(&Request::Status).is_err());
    }

    #[test]
    fn handle_request_and_wrapper_agree() {
        // Sanity: the wrapper is a pure pass-through when no fault is
        // queued — same dispatch as calling handle_request directly.
        let ctl = shared(2);
        let mut t = ChaosTransport::new(LocalTransport::new(Arc::clone(&ctl)));
        let via_wrapper = t.call(&Request::Status).unwrap();
        let direct = handle_request(&ctl, &Request::Status);
        assert!(matches!(via_wrapper, Response::Status { .. }));
        assert!(matches!(direct, Response::Status { .. }));
    }
}
