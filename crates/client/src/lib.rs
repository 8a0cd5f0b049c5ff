//! # Harmony client library
//!
//! The application-side runtime of Figure 5:
//!
//! ```text
//! harmony_startup(<unique id>, <use interrupts>)
//! harmony_bundle_setup("<bundle definition>")
//! void *harmony_add_variable("variable name", <default>, <type>)
//! harmony_wait_for_update()
//! harmony_end()
//! ```
//!
//! A Harmony-aware application connects, exports its bundles, declares
//! *Harmony variables*, and then periodically polls: "new values for
//! Harmony variables are buffered until a flushPendingVars() call is made…
//! The application process must periodically check the values of these
//! variables and take appropriate action" (§5).
//!
//! The library is generic over [`Transport`], so the same application code
//! runs against a real TCP server ([`harmony_proto::TcpTransport`]) or
//! in-process ([`harmony_proto::LocalTransport`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony_proto::{Request, Response, Transport};
use harmony_rsl::Value;
use parking_lot::Mutex;

mod var;

pub use var::HarmonyVar;

/// How the application wants to learn about reconfigurations. The
/// prototype "uses a polling interface to detect changes" (§5);
/// `Interrupts` is accepted for source compatibility with the paper's
/// signature and currently behaves identically to `Polling`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateDelivery {
    /// Poll with [`HarmonyClient::poll`] / block with
    /// [`HarmonyClient::wait_for_update`].
    #[default]
    Polling,
    /// Reserved; behaves as `Polling`.
    Interrupts,
}

/// A connected Harmony-aware application instance.
///
/// Calls are *resilient*: when the transport reports a broken connection
/// the client reconnects (transport-specific backoff), re-establishes its
/// session with `reattach`, and retries the call once. If the server no
/// longer knows the instance (restart, lease expiry) the client falls back
/// to a fresh `startup` and replays its cached bundle scripts, so the
/// application only observes a changed [`instance_id`].
///
/// Dropping a client without calling [`end`] sends a best-effort `end` so
/// the server can release the allocation immediately instead of waiting
/// for the lease reaper.
///
/// [`instance_id`]: HarmonyClient::instance_id
/// [`end`]: HarmonyClient::end
#[derive(Debug)]
pub struct HarmonyClient<T: Transport> {
    transport: T,
    app: String,
    id: u64,
    vars: HashMap<String, Arc<Mutex<Value>>>,
    scripts: Vec<String>,
    ended: bool,
}

/// Errors that mean "the connection died", as opposed to "the server
/// answered and disagreed".
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}

impl<T: Transport> HarmonyClient<T> {
    /// `harmony_startup`: registers with the Harmony server and receives a
    /// system-chosen instance id.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` when the server answers with
    /// something other than `registered`.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use harmony_client::{HarmonyClient, UpdateDelivery};
    /// use harmony_core::{Controller, ControllerConfig};
    /// use harmony_proto::LocalTransport;
    /// use harmony_resources::Cluster;
    /// use parking_lot::RwLock;
    ///
    /// let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(4))?;
    /// let shared = Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    /// let client = HarmonyClient::startup(
    ///     LocalTransport::new(shared),
    ///     "bag",
    ///     UpdateDelivery::Polling,
    /// )?;
    /// assert_eq!(client.instance_name(), "bag.1");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn startup(mut transport: T, app: &str, _delivery: UpdateDelivery) -> io::Result<Self> {
        let resp = transport.call(&Request::Startup { app: app.to_owned() })?;
        match resp {
            Response::Registered { app, id } => Ok(HarmonyClient {
                transport,
                app,
                id,
                vars: HashMap::new(),
                scripts: Vec::new(),
                ended: false,
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected startup response: {other:?}"),
            )),
        }
    }

    /// Sends one request, transparently recovering from a dead connection:
    /// reconnect the transport, re-establish the session, retry once.
    fn call_resilient(&mut self, req: &Request) -> io::Result<Response> {
        match self.transport.call(req) {
            Ok(resp) => Ok(resp),
            Err(e) if is_disconnect(&e) => match self.transport.reconnect() {
                Ok(true) => {
                    self.reestablish()?;
                    self.transport.call(req)
                }
                // Transport cannot reconnect (or every attempt failed):
                // surface the original disconnect error.
                Ok(false) | Err(_) => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// Re-establishes the session over a freshly reconnected transport.
    /// Prefers `reattach` (same instance id, server replays the chosen
    /// configuration as pending vars); if the server no longer knows the
    /// instance, falls back to a fresh `startup` and re-registers every
    /// cached bundle script.
    fn reestablish(&mut self) -> io::Result<()> {
        let resp =
            self.transport.call(&Request::Reattach { app: self.app.clone(), id: self.id })?;
        match resp {
            Response::Registered { .. } => return Ok(()),
            Response::Error { .. } => {} // unknown instance: fall through
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected reattach response: {other:?}"),
                ));
            }
        }
        let resp = self.transport.call(&Request::Startup { app: self.app.clone() })?;
        let Response::Registered { app, id } = resp else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected startup response: {resp:?}"),
            ));
        };
        self.app = app;
        self.id = id;
        for script in self.scripts.clone() {
            let resp = self.transport.call(&Request::Bundle {
                app: self.app.clone(),
                id: self.id,
                script,
            })?;
            if let Response::Error { message } = resp {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
            }
        }
        Ok(())
    }

    /// Mutable access to the underlying transport. Exists for fault
    /// injection: the deterministic harness wraps its in-process
    /// transport in `harmony_proto::ChaosTransport` and needs to queue
    /// faults (or kill the connection) between calls. Production code has
    /// no reason to reach through this.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The application name this client registered under.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The system-chosen instance id.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// The fully qualified instance name (`DBclient.66`).
    pub fn instance_name(&self) -> String {
        format!("{}.{}", self.app, self.id)
    }

    /// `harmony_bundle_setup`: exports one bundle (RSL text). The server
    /// chooses the initial configuration before replying; poll afterwards
    /// to learn it.
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidInput` when the server rejects the bundle
    /// (parse error or unplaceable).
    pub fn bundle_setup(&mut self, script: &str) -> io::Result<()> {
        let resp = self.call_resilient(&Request::Bundle {
            app: self.app.clone(),
            id: self.id,
            script: script.to_owned(),
        })?;
        match resp {
            Response::Ok => {
                // Cache for replay after a fresh-startup recovery.
                if !self.scripts.iter().any(|s| s == script) {
                    self.scripts.push(script.to_owned());
                }
                Ok(())
            }
            Response::Error { message } => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, message))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected bundle response: {other:?}"),
            )),
        }
    }

    /// `harmony_add_variable`: declares a variable through which Harmony
    /// communicates decisions. `name` is the namespace path *relative to
    /// this instance* — `"where"` tracks the chosen option of the `where`
    /// bundle; `"where.DS.client.memory"` tracks the memory granted to the
    /// DS client node. The returned handle is the paper's "pointer to the
    /// variable": it observes every update applied by [`poll`].
    ///
    /// Re-declaring a name returns a handle to the same variable.
    ///
    /// [`poll`]: HarmonyClient::poll
    pub fn add_variable(&mut self, name: &str, default: Value) -> HarmonyVar {
        let cell = self
            .vars
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Mutex::new(default)))
            .clone();
        HarmonyVar::new(name.to_owned(), cell)
    }

    /// Polls the server once, applying buffered updates to declared
    /// variables. Returns the number of updates that matched a declared
    /// variable (unmatched updates are ignored — the application did not
    /// subscribe to them).
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidData` on a malformed response.
    pub fn poll(&mut self) -> io::Result<usize> {
        let resp = self.call_resilient(&Request::Poll { app: self.app.clone(), id: self.id })?;
        let Response::Update { updates, .. } = resp else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected update response to poll",
            ));
        };
        let prefix = format!("{}.{}.", self.app, self.id);
        let mut applied = 0;
        for u in updates {
            let Some(rel) = u.path.strip_prefix(&prefix) else { continue };
            if let Some(cell) = self.vars.get(rel) {
                *cell.lock() = u.value;
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// `harmony_wait_for_update`: blocks until at least one declared
    /// variable changes or `timeout` elapses. Returns `true` when an
    /// update arrived.
    ///
    /// # Errors
    ///
    /// Propagates [`HarmonyClient::poll`] errors.
    pub fn wait_for_update(&mut self, timeout: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.poll()? > 0 {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Reports a performance measurement under this instance's namespace
    /// (`<app>.<id>.<name>`), feeding the metric interface.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn report_metric(&mut self, name: &str, time: f64, value: f64) -> io::Result<()> {
        let resp = self.call_resilient(&Request::Metric {
            name: format!("{}.{}.{name}", self.app, self.id),
            time,
            value,
        })?;
        match resp {
            Response::Ok => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected metric response: {other:?}"),
            )),
        }
    }

    /// Fetches a [`harmony_core::SystemSnapshot`] of the whole Harmony
    /// process — what is running where, at what predicted cost.
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidData` when the server's JSON payload does
    /// not parse.
    pub fn status(&mut self) -> io::Result<harmony_core::SystemSnapshot> {
        let resp = self.call_resilient(&Request::Status)?;
        match resp {
            Response::Status { json } => harmony_core::SystemSnapshot::from_json(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected status response: {other:?}"),
            )),
        }
    }

    /// Tails the server's event journal from `cursor`: up to `max`
    /// entries, oldest first, plus the cursor to continue from (see
    /// [`harmony_core::JournalTail`]). Operators use this to trace why a
    /// decision happened (`harmonyctl trace`).
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidData` when the server's JSON payload does
    /// not parse.
    pub fn journal(&mut self, cursor: u64, max: u64) -> io::Result<harmony_core::JournalTail> {
        let resp = self.call_resilient(&Request::Journal { cursor, max })?;
        match resp {
            Response::Journal { json } => harmony_core::JournalTail::from_json(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected journal response: {other:?}"),
            )),
        }
    }

    /// Fetches the server's one-shot metrics exposition: one
    /// `counter|gauge|histogram <name> ...` line per metric
    /// (`harmonyctl export`).
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidData` on an unexpected response.
    pub fn expo(&mut self) -> io::Result<String> {
        let resp = self.call_resilient(&Request::Expo)?;
        match resp {
            Response::Expo { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected expo response: {other:?}"),
            )),
        }
    }

    /// `harmony_end`: tells Harmony the application is terminating so its
    /// resources can be re-evaluated, and consumes the client.
    ///
    /// # Errors
    ///
    /// Transport errors; `NotFound` when the server no longer knows the
    /// instance.
    pub fn end(mut self) -> io::Result<()> {
        self.ended = true;
        let resp = self.call_resilient(&Request::End { app: self.app.clone(), id: self.id })?;
        match resp {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(io::Error::new(io::ErrorKind::NotFound, message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected end response: {other:?}"),
            )),
        }
    }

    /// Renews this instance's session lease without polling for updates.
    /// Applications that go long stretches between polls (e.g. a batch
    /// phase) should heartbeat within the server's lease duration or risk
    /// being reaped as dead.
    ///
    /// # Errors
    ///
    /// Transport errors; `NotFound` when the server no longer knows the
    /// instance (its lease already expired).
    pub fn heartbeat(&mut self) -> io::Result<()> {
        let resp =
            self.call_resilient(&Request::Heartbeat { app: self.app.clone(), id: self.id })?;
        match resp {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(io::Error::new(io::ErrorKind::NotFound, message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected heartbeat response: {other:?}"),
            )),
        }
    }
}

impl<T: Transport> Drop for HarmonyClient<T> {
    fn drop(&mut self) {
        if !self.ended {
            // Best-effort release so the server frees the allocation now
            // rather than when the lease reaper gets to it. No reconnect:
            // if the connection is already dead, the server's disconnect
            // handling and lease expiry cover cleanup.
            let _ = self.transport.call(&Request::End { app: self.app.clone(), id: self.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::{Controller, ControllerConfig};
    use harmony_proto::LocalTransport;
    use harmony_resources::Cluster;
    use std::sync::Arc as StdArc;

    fn local(nodes: usize) -> LocalTransport {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).unwrap();
        LocalTransport::new(StdArc::new(parking_lot::RwLock::new(Controller::new(
            cluster,
            ControllerConfig::default(),
        ))))
    }

    fn local_coalescing(nodes: usize, window: f64) -> LocalTransport {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).unwrap();
        let mut config = ControllerConfig::default();
        config.coalesce.window = window;
        LocalTransport::new(StdArc::new(parking_lot::RwLock::new(Controller::new(cluster, config))))
    }

    #[test]
    fn startup_assigns_instance() {
        let t = local(4);
        let client = HarmonyClient::startup(t.clone(), "bag", UpdateDelivery::Polling).unwrap();
        assert_eq!(client.app(), "bag");
        assert_eq!(client.instance_id(), 1);
        assert_eq!(client.instance_name(), "bag.1");
        let second = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        assert_eq!(second.instance_id(), 2);
    }

    #[test]
    fn bundle_setup_and_variable_updates() {
        let t = local(8);
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        let workers = client.add_variable("config.run.workerNodes", Value::Int(0));
        let option = client.add_variable("config", Value::Str("unset".into()));
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        // Nothing visible until the poll.
        assert_eq!(workers.get(), Value::Int(0));
        let applied = client.poll().unwrap();
        assert!(applied >= 2, "applied {applied}");
        assert_eq!(workers.get(), Value::Int(8));
        assert_eq!(option.get(), Value::Str("run".into()));
    }

    #[test]
    fn wait_for_update_times_out_when_quiet() {
        let t = local(8);
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        client.add_variable("config", Value::Str("unset".into()));
        let got = client.wait_for_update(Duration::from_millis(10)).unwrap();
        assert!(!got);
    }

    #[test]
    fn wait_for_update_sees_reconfiguration() {
        let t = local(8);
        let ctl = t.controller();
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        let workers = client.add_variable("config.run.workerNodes", Value::Int(0));
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        assert!(client.wait_for_update(Duration::from_millis(100)).unwrap());
        assert_eq!(workers.get(), Value::Int(8));
        // A competitor arrives; the controller shrinks us to 4 workers.
        {
            let mut ctl = ctl.write();
            let spec =
                harmony_rsl::schema::parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap();
            ctl.register(spec).unwrap();
        }
        assert!(client.wait_for_update(Duration::from_millis(100)).unwrap());
        assert_eq!(workers.get(), Value::Int(4));
    }

    #[test]
    fn coalescing_defers_the_shrink_until_the_window_fires() {
        // With coalescing on, a rival's arrival marks the scheduler dirty
        // instead of re-evaluating inline: the incumbent keeps its 8
        // workers until the window fires, then the next poll delivers the
        // shrink to 4.
        let t = local_coalescing(8, 0.05);
        let ctl = t.controller();
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        let workers = client.add_variable("config.run.workerNodes", Value::Int(0));
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        client.poll().unwrap();
        assert_eq!(workers.get(), Value::Int(8), "direct placement is still synchronous");
        // Settle the window the setup itself opened, so the rival below is
        // the only pending arrival.
        ctl.write().flush_scheduler().unwrap();
        {
            let mut ctl = ctl.write();
            let spec =
                harmony_rsl::schema::parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap();
            ctl.register(spec).unwrap();
            assert_eq!(ctl.pending_decisions(), 1, "arrival deferred, not applied");
        }
        client.poll().unwrap();
        assert_eq!(workers.get(), Value::Int(8), "no shrink before the window fires");
        {
            let mut ctl = ctl.write();
            let records = ctl.flush_scheduler().unwrap();
            assert!(!records.is_empty(), "flushing the window settles the burst");
        }
        client.poll().unwrap();
        assert_eq!(workers.get(), Value::Int(4), "deferred shrink arrives on the next poll");
    }

    #[test]
    fn bad_bundle_is_invalid_input() {
        let t = local(2);
        let mut client = HarmonyClient::startup(t, "x", UpdateDelivery::Polling).unwrap();
        let err = client.bundle_setup("garbage {").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn metrics_flow_to_the_registry() {
        let t = local(2);
        let ctl = t.controller();
        let mut client = HarmonyClient::startup(t, "db", UpdateDelivery::Polling).unwrap();
        client.report_metric("response_time", 1.0, 9.5).unwrap();
        let h = ctl.read().metrics().histogram("db.1.response_time").unwrap();
        assert_eq!((h.len(), h.mean()), (1, Some(9.5)));
    }

    #[test]
    fn end_releases_and_double_end_fails() {
        let t = local(8);
        let ctl = t.controller();
        let mut client = HarmonyClient::startup(t.clone(), "bag", UpdateDelivery::Polling).unwrap();
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        assert_eq!(ctl.read().cluster().total_tasks(), 8);
        client.end().unwrap();
        assert_eq!(ctl.read().cluster().total_tasks(), 0);
        // Ending an unknown instance is NotFound.
        let ghost = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        let name = ghost.instance_name();
        ghost.end().unwrap();
        let mut again = HarmonyClient {
            transport: local(2),
            app: "bag".into(),
            id: 99,
            vars: HashMap::new(),
            scripts: Vec::new(),
            ended: false,
        };
        let err = again.transport.call(&Request::End { app: "bag".into(), id: 99 });
        assert!(matches!(err.unwrap(), Response::Error { .. }), "{name} gone");
    }

    #[test]
    fn status_snapshot_describes_the_system() {
        let t = local(8);
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        let snap = client.status().unwrap();
        assert_eq!(snap.apps.len(), 1);
        assert_eq!(snap.apps[0].instance, "bag.1");
        assert_eq!(snap.nodes.len(), 8);
        assert_eq!(snap.total_tasks(), 8);
        assert_eq!(snap.objective, 230.0);
    }

    #[test]
    fn journal_and_expo_surface_observability() {
        let t = local(8);
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        client.bundle_setup(harmony_rsl::listings::FIG2B_BAG).unwrap();
        client.report_metric("response_time", 1.0, 9.5).unwrap();
        let tail = client.journal(0, 1000).unwrap();
        assert!(!tail.entries.is_empty());
        assert!(tail.entries.iter().any(|e| e.detail.starts_with("bundle-setup bag.1")));
        // Paging picks up where the first tail stopped.
        let rest = client.journal(tail.next_cursor, 1000).unwrap();
        assert!(rest.entries.is_empty(), "quiet system: nothing after the tail");
        let expo = client.expo().unwrap();
        assert!(expo.contains("histogram bag.1.response_time"), "got {expo}");
        assert!(expo.contains("counter controller.reevals"), "got {expo}");
    }

    #[test]
    fn non_finite_metric_report_is_an_error() {
        let t = local(2);
        let ctl = t.controller();
        let mut client = HarmonyClient::startup(t, "db", UpdateDelivery::Polling).unwrap();
        let err = client.report_metric("response_time", 1.0, f64::NAN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(ctl.read().metrics().histogram("db.1.response_time").is_none(), "never recorded");
    }

    #[test]
    fn redeclaring_a_variable_shares_the_cell() {
        let t = local(8);
        let mut client = HarmonyClient::startup(t, "bag", UpdateDelivery::Polling).unwrap();
        let a = client.add_variable("config", Value::Str("a".into()));
        let b = client.add_variable("config", Value::Str("ignored-default".into()));
        assert_eq!(b.get(), Value::Str("a".into()));
        assert_eq!(a.name(), b.name());
    }
}
