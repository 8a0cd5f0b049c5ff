//! The benchmark's client side of the wire: one blocking connection that
//! speaks the protocol through the program's own public codec
//! (`Request::to_text` → `frame::write_frame` → `frame::read_frame` →
//! `Response::parse`, the four steps of `TcpTransport::call`), plus the
//! reply checks every workload applies.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use harmony_proto::frame::{read_frame, write_frame};
use harmony_proto::{handle_request, Request, Response, SharedController};

use crate::gen::{bundle_script, Instance, Verb, APP};

/// Anything that answers one request with one response. The TCP
/// connection implements it; tests substitute a fake.
pub trait Caller {
    /// Sends `req`, waits for the reply.
    ///
    /// # Errors
    ///
    /// I/O and protocol-parse failures.
    fn call(&mut self, req: &Request) -> io::Result<Response>;
}

/// An in-process controller behind the same interface: requests go
/// through the protocol's entry point, `handle_request`, without a socket.
#[derive(Debug)]
pub struct Local<'a>(pub &'a SharedController);

impl Caller for Local<'_> {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        Ok(handle_request(self.0, req))
    }
}

/// When each client-side step of one call ended.
#[derive(Debug, Clone, Copy)]
pub struct CallStamps {
    /// Before `Request::to_text`.
    pub start: Instant,
    /// After `Request::to_text`.
    pub encoded: Instant,
    /// After `write_frame` returned.
    pub written: Instant,
    /// After `read_frame` returned the reply.
    pub replied: Instant,
    /// After `Response::parse`.
    pub parsed: Instant,
}

/// One TCP connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as `TcpTransport` does.
    ///
    /// # Errors
    ///
    /// Connection errors from the OS.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    /// One call with a timestamp after every client-side step (the traced
    /// run's `client.*` spans).
    ///
    /// # Errors
    ///
    /// I/O and protocol-parse failures.
    pub fn call_stamped(&mut self, req: &Request) -> io::Result<(Response, CallStamps)> {
        let start = Instant::now();
        let text = req.to_text();
        let encoded = Instant::now();
        write_frame(&mut self.stream, &text)?;
        let written = Instant::now();
        let reply = read_frame(&mut self.stream)?.ok_or_else(closed)?;
        let replied = Instant::now();
        let response = Response::parse(&reply).map_err(invalid)?;
        let parsed = Instant::now();
        Ok((response, CallStamps { start, encoded, written, replied, parsed }))
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Caller for Conn {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.to_text())?;
        let reply = read_frame(&mut self.stream)?.ok_or_else(closed)?;
        Response::parse(&reply).map_err(invalid)
    }
}

/// A connection to the null daemon (`daemon::serve_null`), which answers
/// every request `ok`. A `poll` is answered here with the empty update the
/// real daemon would have sent, so that the same closed loop, with the
/// same reply checks, runs against both.
#[derive(Debug)]
pub struct NullConn(pub Conn);

impl Caller for NullConn {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let reply = self.0.call(req)?;
        Ok(match req {
            Request::Poll { app, id } => {
                Response::Update { app: app.clone(), id: *id, updates: Vec::new() }
            }
            _ => reply,
        })
    }
}

/// Whether `resp` is the correct reply to the steady-mix request `verb`
/// addressed to `inst`: `ok` for heartbeat and metric, an `update` for
/// exactly that instance for poll. Anything else — an in-band error, a
/// reply for another instance — is a failed operation.
pub fn reply_is_correct(verb: Verb, inst: &Instance, resp: &Response) -> bool {
    match (verb, resp) {
        (Verb::Heartbeat | Verb::Metric, Response::Ok) => true,
        (Verb::Poll, Response::Update { app, id, .. }) => *app == inst.app && *id == inst.id,
        _ => false,
    }
}

/// The `workerNodes` value carried by a poll reply, if it carries one.
pub fn worker_nodes(resp: &Response) -> Option<i64> {
    let Response::Update { updates, .. } = resp else { return None };
    updates
        .iter()
        .rev()
        .find_map(|u| {
            u.path.ends_with(".workerNodes").then(|| u.value.canonical().parse::<f64>().ok())?
        })
        .map(|v| v as i64)
}

fn unexpected(what: &str, resp: &Response) -> io::Error {
    io::Error::other(format!("{what}: unexpected reply `{}`", resp.to_text()))
}

/// `startup`: registers a new instance of the benchmark application.
///
/// # Errors
///
/// I/O failures and any reply other than `registered`.
pub fn startup(conn: &mut impl Caller) -> io::Result<Instance> {
    match conn.call(&Request::Startup { app: APP.to_owned() })? {
        Response::Registered { app, id } => Ok(Instance { app, id }),
        other => Err(unexpected("startup", &other)),
    }
}

/// `bundle`: exports the instance's Figure 2(b) bundle.
///
/// # Errors
///
/// I/O failures and any reply other than `ok`.
pub fn bundle(conn: &mut impl Caller, inst: &Instance) -> io::Result<()> {
    let script = bundle_script(inst.id);
    match conn.call(&Request::Bundle { app: inst.app.clone(), id: inst.id, script })? {
        Response::Ok => Ok(()),
        other => Err(unexpected("bundle", &other)),
    }
}

/// Polls until a reply carries the `workerNodes` choice; returns how many
/// polls that took.
///
/// # Errors
///
/// I/O failures, a reply for another instance, or no choice after 1 000
/// polls.
pub fn poll_choice(conn: &mut impl Caller, inst: &Instance) -> io::Result<u64> {
    // Direct placement is synchronous, so the first poll normally carries
    // the choice; the bound only turns a protocol change into an error
    // instead of a hang.
    for polls in 1..=1000 {
        let resp = conn.call(&Request::Poll { app: inst.app.clone(), id: inst.id })?;
        if !reply_is_correct(Verb::Poll, inst, &resp) {
            return Err(unexpected("poll", &resp));
        }
        if worker_nodes(&resp).is_some() {
            return Ok(polls);
        }
    }
    Err(io::Error::other(format!("{} never received its workerNodes choice", inst.name())))
}

/// Registers one instance: [`startup`], [`bundle`], [`poll_choice`].
/// Returns the instance and how many requests that took.
///
/// # Errors
///
/// Those of the three steps.
pub fn register(conn: &mut impl Caller) -> io::Result<(Instance, u64)> {
    let inst = startup(conn)?;
    bundle(conn, &inst)?;
    let polls = poll_choice(conn, &inst)?;
    Ok((inst, 2 + polls))
}

/// Registers `instances` standing instances.
///
/// # Errors
///
/// Those of [`register`].
pub fn populate(conn: &mut impl Caller, instances: usize) -> io::Result<Vec<Instance>> {
    (0..instances).map(|_| register(conn).map(|(inst, _)| inst)).collect()
}

/// Ends one instance.
///
/// # Errors
///
/// I/O failures or a reply other than `ok`.
pub fn end(conn: &mut impl Caller, inst: &Instance) -> io::Result<()> {
    let resp = conn.call(&Request::End { app: inst.app.clone(), id: inst.id })?;
    if resp == Response::Ok {
        Ok(())
    } else {
        Err(unexpected("end", &resp))
    }
}

/// Scrapes the daemon's metric exposition.
///
/// # Errors
///
/// I/O failures or a reply other than `expo`.
pub fn expo(conn: &mut impl Caller) -> io::Result<String> {
    match conn.call(&Request::Expo)? {
        Response::Expo { text } => Ok(text),
        other => Err(unexpected("expo", &other)),
    }
}

/// The per-instance choices and session ids a `status` reply reports, in
/// a form two controllers can be compared by: one
/// `<instance> <bundle>=<label>` line per bundle, then one line per live
/// session id, all sorted.
///
/// # Errors
///
/// I/O failures, a reply other than `status`, or unparseable JSON.
pub fn status_fingerprint(conn: &mut impl Caller) -> io::Result<Vec<String>> {
    match conn.call(&Request::Status)? {
        Response::Status { json } => harmony_core::SystemSnapshot::from_json(&json)
            .map(|snap| snapshot_fingerprint(&snap))
            .map_err(invalid),
        other => Err(unexpected("status", &other)),
    }
}

/// See [`status_fingerprint`].
pub fn snapshot_fingerprint(snap: &harmony_core::SystemSnapshot) -> Vec<String> {
    let mut lines: Vec<String> = snap
        .apps
        .iter()
        .flat_map(|a| {
            a.bundles
                .iter()
                .map(move |(bundle, label, _, _)| format!("choice {} {bundle}={label}", a.instance))
        })
        .chain(snap.sessions.iter().map(|s| format!("session {}", s.instance)))
        .collect();
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_proto::VarUpdate;
    use harmony_rsl::Value;

    #[test]
    fn replies_are_checked_against_the_addressed_instance() {
        let inst = Instance { app: "bag".into(), id: 3 };
        let update = |id| Response::Update { app: "bag".into(), id, updates: vec![] };
        assert!(reply_is_correct(Verb::Poll, &inst, &update(3)));
        assert!(!reply_is_correct(Verb::Poll, &inst, &update(4)));
        assert!(reply_is_correct(Verb::Heartbeat, &inst, &Response::Ok));
        assert!(!reply_is_correct(Verb::Heartbeat, &inst, &update(3)));
        assert!(!reply_is_correct(Verb::Metric, &inst, &Response::Error { message: "x".into() }));
    }

    #[test]
    fn worker_nodes_is_read_from_the_update() {
        let resp = Response::Update {
            app: "bag".into(),
            id: 1,
            updates: vec![
                VarUpdate { path: "bag.1.config".into(), value: Value::Str("run".into()) },
                VarUpdate { path: "bag.1.config.run.workerNodes".into(), value: Value::Int(4) },
            ],
        };
        assert_eq!(worker_nodes(&resp), Some(4));
        assert_eq!(worker_nodes(&Response::Ok), None);
    }
}
