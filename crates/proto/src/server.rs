//! The Harmony process: a server that listens on a well-known port and
//! waits for connections from application processes (§5, Figure 6).
//!
//! Two transports speak the same [`Request`]/[`Response`] grammar:
//!
//! * [`TcpServer`] / [`TcpTransport`] — the prototype's architecture:
//!   frames over TCP, one thread per connection;
//! * [`LocalTransport`] — in-process calls against the same shared
//!   controller, for deterministic tests and single-process experiments.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use harmony_core::{
    Controller, CoreError, EventOutcome, HarmonyEvent, InstanceId, InstanceRef, WalEvent,
};
use harmony_metrics::HistogramHandle;
use parking_lot::RwLock;

use crate::frame::{self, FrameReader, FrameWriter};
use crate::message::{Request, Response, VarUpdate};

/// A shared, thread-safe handle to the controller. Read-only verbs take
/// the shared side of the lock, so `status`/`fetch`-style traffic from
/// many clients proceeds concurrently and never queues behind an
/// in-flight optimization on the write side.
pub type SharedController = Arc<RwLock<Controller>>;

/// Applies one request to the controller, producing the response. This is
/// the single point of protocol semantics, shared by every transport.
///
/// Lock discipline: `Poll`, `Heartbeat`, `Metric`, `Status`, `Journal`,
/// and `Expo` only read controller state — lease renewal goes through the
/// atomic touch-stamps ([`Controller::touch`]) and pending-variable
/// buffers are interior-mutable, so none of them needs the write lock.
/// `Lint` and `Facts` are pure and run under no lock at all. Everything
/// else mutates: it takes the write lock and enters the controller as
/// [`WalEvent`] commands through [`Controller::execute`]. Whichever it is,
/// a request acquires the controller lock once.
///
/// Every request's service latency is observed into the per-verb
/// `server.verb.<verb>` histogram (visible via `Expo` and in
/// [`harmony_core::SystemSnapshot::histograms`]).
pub fn handle_request(ctl: &SharedController, req: &Request) -> Response {
    serve_request(ctl, req, &mut VerbHistograms::default())
}

/// How many wire verbs there are ([`verb_index`] numbers them).
const VERBS: usize = 12;

/// The `server.verb.<verb>` histogram a request's latency is observed
/// into, by [`verb_index`]: one literal per wire verb, so the hot path
/// formats nothing.
const VERB_HISTOGRAMS: [&str; VERBS] = [
    "server.verb.startup",
    "server.verb.bundle",
    "server.verb.poll",
    "server.verb.metric",
    "server.verb.heartbeat",
    "server.verb.reattach",
    "server.verb.end",
    "server.verb.status",
    "server.verb.lint",
    "server.verb.facts",
    "server.verb.journal",
    "server.verb.expo",
];

fn verb_index(req: &Request) -> usize {
    match req {
        Request::Startup { .. } => 0,
        Request::Bundle { .. } => 1,
        Request::Poll { .. } => 2,
        Request::Metric { .. } => 3,
        Request::Heartbeat { .. } => 4,
        Request::Reattach { .. } => 5,
        Request::End { .. } => 6,
        Request::Status => 7,
        Request::Lint { .. } => 8,
        Request::Facts { .. } => 9,
        Request::Journal { .. } => 10,
        Request::Expo => 11,
    }
}

/// The verb histograms a caller has resolved so far. A connection keeps
/// one for its lifetime, so each verb's name is looked up once per
/// connection and observed through its handle from then on; the stateless
/// [`handle_request`] starts from an empty one every time.
#[derive(Debug, Default)]
struct VerbHistograms([Option<HistogramHandle>; VERBS]);

impl VerbHistograms {
    /// The histogram of `req`'s verb, looked up in `ctl`'s registry — by
    /// borrowed name — the first time the verb is seen. Called under the
    /// guard the verb holds anyway, *after* its body: the name appears in
    /// the registry when the first request of its kind has been served,
    /// not before (an `expo` does not list itself).
    fn resolve(&mut self, ctl: &Controller, req: &Request) {
        let verb = verb_index(req);
        if self.0[verb].is_none() {
            self.0[verb] = Some(ctl.metrics().histogram_handle(VERB_HISTOGRAMS[verb]));
        }
    }
}

/// [`handle_request`]'s body: the verb under one acquisition of the
/// controller lock ([`reading`], [`writing`], or none), then one
/// observation of the elapsed time outside it.
fn serve_request(ctl: &SharedController, req: &Request, verbs: &mut VerbHistograms) -> Response {
    let t0 = std::time::Instant::now();
    let response = match req {
        // ---- read path ------------------------------------------------
        Request::Poll { app, id } => reading(ctl, req, verbs, |ctl| {
            let instance = InstanceRef { app, id: *id };
            ctl.touch(instance);
            let updates = ctl
                .take_pending_vars(instance)
                .into_iter()
                .map(|(path, value)| VarUpdate { path: path.to_string(), value })
                .collect();
            Response::Update { app: app.clone(), id: *id, updates }
        }),
        Request::Heartbeat { app, id } => reading(ctl, req, verbs, |ctl| {
            let instance = InstanceRef { app, id: *id };
            if ctl.touch(instance) {
                Response::Ok
            } else {
                let e = CoreError::UnknownInstance { name: instance.to_string() };
                Response::Error { message: e.to_string() }
            }
        }),
        Request::Metric { name, time, value } => reading(ctl, req, verbs, |ctl| {
            ctl.touch_for_metric(name);
            // Non-finite samples are rejected in-band rather than silently
            // dropped: one NaN would otherwise poison the response-time
            // histogram's mean, and the client deserves to know its clock
            // or measurement went bad.
            if !ctl.record_metric(name, *time, *value) {
                return Response::Error {
                    message: format!("non-finite metric sample rejected: {name} {time} {value}"),
                };
            }
            Response::Ok
        }),
        Request::Journal { cursor, max } => reading(ctl, req, verbs, |ctl| {
            let max = usize::try_from(*max).unwrap_or(usize::MAX);
            Response::Journal { json: ctl.journal_tail(*cursor, max).to_json() }
        }),
        Request::Expo => {
            reading(ctl, req, verbs, |ctl| Response::Expo { text: ctl.metrics().expose() })
        }
        Request::Status => reading(ctl, req, verbs, |ctl| {
            match harmony_core::SystemSnapshot::capture(ctl).to_json() {
                Ok(json) => Response::Status { json },
                Err(e) => Response::Error { message: e.to_string() },
            }
        }),
        // ---- pure: the analysis runs under no lock --------------------
        Request::Lint { script } => {
            let response = match harmony_analyze::analyze_script(script) {
                Ok(diags) => Response::Lint { json: harmony_analyze::to_json(&diags, script) },
                Err(e) => Response::Error { message: e.to_string() },
            };
            reading(ctl, req, verbs, |_| response)
        }
        Request::Facts { script } => {
            let response = match harmony_analyze::facts::script_facts(script) {
                Ok(facts) => {
                    Response::Facts { json: harmony_analyze::facts::facts_to_json(&facts) }
                }
                Err(e) => Response::Error { message: e.to_string() },
            };
            reading(ctl, req, verbs, |_| response)
        }
        // ---- write path: a request is one or two commands -------------
        Request::Startup { app } => writing(ctl, req, verbs, |ctl, now| {
            reply(ctl.execute(WalEvent::Startup { now, app: app.clone() }), Response::Ok)
        }),
        Request::Bundle { app, id, script } => writing(ctl, req, verbs, |ctl, now| {
            let instance = InstanceId::new(app.clone(), *id);
            // The lease renews whether or not the bundle is accepted.
            let _ = ctl.execute(WalEvent::Renew { now, id: instance.clone() });
            let event = HarmonyEvent::BundleSetup { instance, script: script.clone() };
            reply(ctl.execute(WalEvent::Event { now, event }), Response::Ok)
        }),
        Request::Reattach { app, id } => writing(ctl, req, verbs, |ctl, now| {
            let event = HarmonyEvent::Reattach { instance: InstanceId::new(app.clone(), *id) };
            let registered = Response::Registered { app: app.clone(), id: *id };
            reply(ctl.execute(WalEvent::Event { now, event }), registered)
        }),
        Request::End { app, id } => writing(ctl, req, verbs, |ctl, now| {
            let id = InstanceId::new(app.clone(), *id);
            reply(ctl.execute(WalEvent::End { now, id }), Response::Ok)
        }),
    };
    if let Some(histogram) = &verbs.0[verb_index(req)] {
        histogram.observe(t0.elapsed().as_secs_f64());
    }
    response
}

/// Runs a read-path verb under the shared side of the controller lock.
fn reading(
    ctl: &SharedController,
    req: &Request,
    verbs: &mut VerbHistograms,
    verb: impl FnOnce(&Controller) -> Response,
) -> Response {
    let ctl = ctl.read();
    let response = verb(&ctl);
    verbs.resolve(&ctl, req);
    response
}

/// Runs a write-path verb, at the controller's current time, under the
/// exclusive side of the controller lock.
fn writing(
    ctl: &SharedController,
    req: &Request,
    verbs: &mut VerbHistograms,
    verb: impl FnOnce(&mut Controller, f64) -> Response,
) -> Response {
    let mut ctl = ctl.write();
    let now = ctl.now();
    let response = verb(&mut ctl, now);
    verbs.resolve(&ctl, req);
    response
}

/// The wire reply to a write-path command's outcome: a registration names
/// its instance, any other success answers `quiet`, and an error travels
/// in-band.
fn reply(outcome: Result<EventOutcome, CoreError>, quiet: Response) -> Response {
    match outcome {
        Ok(EventOutcome::Registered(id)) => Response::Registered { app: id.app, id: id.id },
        Ok(_) => quiet,
        Err(e) => Response::Error { message: e.to_string() },
    }
}

/// A request/response channel to the Harmony process.
pub trait Transport: Send {
    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying channel, including protocol-parse
    /// failures (mapped to `InvalidData`).
    fn call(&mut self, req: &Request) -> io::Result<Response>;

    /// Attempts to re-establish a broken channel. Returns `Ok(false)` when
    /// the transport cannot reconnect (the default — e.g. an in-process
    /// channel never breaks); `Ok(true)` once a fresh channel is up. The
    /// caller is responsible for re-establishing the *session* afterwards
    /// (see `Request::Reattach`).
    ///
    /// # Errors
    ///
    /// The last connection error when every attempt fails.
    fn reconnect(&mut self) -> io::Result<bool> {
        Ok(false)
    }
}

impl Transport for Box<dyn Transport> {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        (**self).call(req)
    }

    fn reconnect(&mut self) -> io::Result<bool> {
        (**self).reconnect()
    }
}

/// In-process transport: requests apply directly to the shared controller.
#[derive(Debug, Clone)]
pub struct LocalTransport {
    ctl: SharedController,
}

impl LocalTransport {
    /// Wraps a shared controller.
    pub fn new(ctl: SharedController) -> Self {
        LocalTransport { ctl }
    }

    /// The shared controller (for assertions in tests and experiments).
    pub fn controller(&self) -> SharedController {
        Arc::clone(&self.ctl)
    }
}

impl Transport for LocalTransport {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        Ok(handle_request(&self.ctl, req))
    }
}

/// Re-dial behavior of [`TcpTransport::reconnect`]: exponential backoff
/// with jitter, so a fleet of clients recovering from a server restart
/// does not stampede the accept queue in lockstep.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Maximum dial attempts before giving up.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl ReconnectPolicy {
    /// The jittered delay before attempt `attempt` (0-based): half the
    /// exponential step deterministic, half random, capped at `max_delay`.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let step = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let capped = step.min(self.max_delay);
        // xorshift64* — no external RNG dependency needed for jitter.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let fraction = (*rng >> 11) as f64 / (1u64 << 53) as f64;
        capped.div_f64(2.0) + capped.div_f64(2.0).mul_f64(fraction)
    }
}

/// Client side of the TCP transport.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    addr: SocketAddr,
    policy: ReconnectPolicy,
}

impl TcpTransport {
    /// Connects to a Harmony server with the default reconnect policy.
    ///
    /// # Errors
    ///
    /// Connection errors from the OS.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, ReconnectPolicy::default())
    }

    /// Connects with an explicit reconnect policy.
    ///
    /// # Errors
    ///
    /// Connection errors from the OS.
    pub fn connect_with(addr: SocketAddr, policy: ReconnectPolicy) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let (reader, writer) = (FrameReader::new(), FrameWriter::new());
        Ok(TcpTransport { stream, reader, writer, addr, policy })
    }

    /// The server address this transport dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.writer.write_with(&mut self.stream, |out| req.write_text(out))?;
        let text = self.reader.read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Re-dials the server with exponential backoff plus jitter. The old
    /// stream is replaced on success; the session must then be
    /// re-established with `Request::Reattach` (or a fresh `Startup`).
    fn reconnect(&mut self) -> io::Result<bool> {
        let mut rng = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0)
            | 1;
        let mut last_err = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 || last_err.is_some() {
                std::thread::sleep(self.policy.delay(attempt, &mut rng));
            }
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    self.stream = stream;
                    // Whatever the old stream left half-read died with it.
                    self.reader = FrameReader::new();
                    return Ok(true);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no dial attempts")))
    }
}

/// Socket hygiene for accepted connections: deadlines so a stalled peer
/// (half-open connection, wedged client) cannot pin a server thread and
/// its session forever.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may sit idle between requests before the
    /// server treats the peer as gone. `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// How long a response write may block before the peer is treated as
    /// gone. `None` disables the deadline.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

type ConnectionRegistry = Arc<parking_lot::Mutex<HashMap<u64, TcpStream>>>;

/// Bounded exponential backoff after `consecutive` failed `accept` calls:
/// 1 ms doubling up to 100 ms. Transient accept errors (EMFILE/ENFILE fd
/// exhaustion, ECONNABORTED storms) otherwise spin the accept thread at
/// 100% CPU — exactly when the machine is least able to afford it.
fn accept_backoff(consecutive: u32) -> Duration {
    let ms = 1u64 << consecutive.min(8).saturating_sub(1);
    Duration::from_millis(ms.min(100))
}

/// Cadence of the scheduler ticker for a coalescing window of `window`
/// seconds: a few ticks per window, clamped to a sane range.
fn tick_interval(window: f64) -> Duration {
    Duration::from_secs_f64((window / 4.0).clamp(0.005, 0.05))
}

/// The Harmony TCP server: accept loop plus one thread per connection.
///
/// When the controller is configured with a coalescing window
/// ([`harmony_core::CoalescePolicy`]), the server also runs a ticker
/// thread that maps wall time onto the controller clock and fires the
/// decision scheduler, so deferred decisions happen on time even with no
/// periodic pass driving the controller.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    ticker_thread: Option<JoinHandle<()>>,
    connections: ConnectionRegistry,
    accept_errors: Arc<AtomicU64>,
    untracked: Arc<AtomicUsize>,
}

impl TcpServer {
    /// Binds and starts serving `ctl` on `addr` with the default socket
    /// deadlines (use port 0 for an ephemeral port; read it back with
    /// [`TcpServer::addr`]).
    ///
    /// # Errors
    ///
    /// Bind errors from the OS.
    pub fn start(addr: &str, ctl: SharedController) -> io::Result<Self> {
        Self::start_with(addr, ctl, ServerConfig::default())
    }

    /// Binds and starts serving with an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Bind errors from the OS.
    pub fn start_with(addr: &str, ctl: SharedController, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: ConnectionRegistry = Arc::new(parking_lot::Mutex::new(HashMap::new()));
        let accept_errors = Arc::new(AtomicU64::new(0));
        let untracked = Arc::new(AtomicUsize::new(0));

        // Fire the decision scheduler from a dedicated ticker when the
        // controller coalesces. Each tick advances a high-water mark of
        // the *controller* clock by the elapsed wall delta. Anchoring at
        // the controller's own time matters: clients (simulations,
        // experiment drivers) may have pushed the clock far ahead with
        // `set_time`, and a ticker submitting its private epoch-relative
        // time would be discarded by the monotone clock guard on every
        // tick — freezing the scheduler and stranding deferred decisions.
        let coalesce = ctl.read().config().coalesce;
        let ticker_thread = if coalesce.enabled() {
            let ctl = Arc::clone(&ctl);
            let stop = Arc::clone(&stop);
            let tick = tick_interval(coalesce.window);
            Some(std::thread::spawn(move || {
                let mut clock: f64 = 0.0;
                let mut last = std::time::Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    let delta = last.elapsed().as_secs_f64();
                    last = std::time::Instant::now();
                    let mut guard = ctl.write();
                    clock = guard.now().max(clock) + delta;
                    let _ = guard.service_scheduler(clock);
                }
            }))
        } else {
            None
        };

        let stop2 = Arc::clone(&stop);
        let conns2 = Arc::clone(&connections);
        let errors2 = Arc::clone(&accept_errors);
        let untracked2 = Arc::clone(&untracked);
        let accept_thread = std::thread::spawn(move || {
            let mut next_token: u64 = 0;
            let mut consecutive_errors: u32 = 0;
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => {
                        consecutive_errors = 0;
                        s
                    }
                    Err(_) => {
                        // Transient resource exhaustion: back off instead
                        // of spinning, and count it for operators.
                        consecutive_errors = consecutive_errors.saturating_add(1);
                        errors2.fetch_add(1, Ordering::Relaxed);
                        ctl.read().metrics().inc_counter("server.accept_errors");
                        std::thread::sleep(accept_backoff(consecutive_errors));
                        continue;
                    }
                };
                // Track the connection for `disconnect_all`/teardown. If
                // the tracking clone fails the connection is still served;
                // it is merely counted as untracked so `connection_count`
                // stays truthful.
                let token = match stream.try_clone() {
                    Ok(clone) => {
                        let token = next_token;
                        next_token += 1;
                        conns2.lock().insert(token, clone);
                        Some(token)
                    }
                    Err(_) => {
                        untracked2.fetch_add(1, Ordering::SeqCst);
                        None
                    }
                };
                let ctl = Arc::clone(&ctl);
                let registry = Arc::clone(&conns2);
                let untracked = Arc::clone(&untracked2);
                let config = config.clone();
                std::thread::spawn(move || {
                    serve_connection(stream, ctl, config, registry, untracked, token)
                });
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            ticker_thread,
            connections,
            accept_errors,
            untracked,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently live connections, including any that could not
    /// be registered for teardown (a failed tracking clone). Entries are
    /// removed by their serving thread on exit, so this converges to the
    /// number of live peers (it may briefly include a connection whose
    /// thread has not yet observed the close).
    pub fn connection_count(&self) -> usize {
        self.connections.lock().len() + self.untracked.load(Ordering::SeqCst)
    }

    /// Total failed `accept` calls since startup (also visible as the
    /// controller's `server.accept_errors` metric).
    pub fn accept_error_count(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Forcibly drops every live connection while continuing to listen.
    /// Clients observe an EOF/reset mid-session — the fault-injection
    /// hook for exercising client reconnect paths. Untracked connections
    /// (failed tracking clone) cannot be reached from here; their serving
    /// threads end when the peer hangs up or the read deadline fires.
    pub fn disconnect_all(&self) {
        for (_, conn) in self.connections.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stops the server: no new connections are accepted and existing
    /// connections are shut down, so blocked clients see a clean EOF or
    /// reset rather than a hang.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection. Dial loopback
        // when bound to a wildcard address — connecting to 0.0.0.0/[::]
        // is not routed to the listener on every platform, which would
        // hang teardown — and bound the dial so an unroutable address
        // cannot wedge `stop` either.
        let mut unblock = self.addr;
        if unblock.ip().is_unspecified() {
            unblock.set_ip(match unblock.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&unblock, Duration::from_millis(250));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.ticker_thread.take() {
            let _ = t.join();
        }
        for (_, conn) in self.connections.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // Best-effort teardown; errors are ignored per C-DTOR-FAIL.
        self.stop();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    ctl: SharedController,
    config: ServerConfig,
    registry: ConnectionRegistry,
    untracked: Arc<AtomicUsize>,
    token: Option<u64>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    // When the connection dies without an explicit `end`, the leases of
    // the instances registered over it are shortened to the disconnect
    // grace so the reaper reclaims them promptly.
    let owned = serve_stream(&mut stream, &ctl);
    // Shut the socket down explicitly so the shutdown reaches the peer even
    // though the server keeps a tracking clone in the registry.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    match token {
        Some(token) => {
            registry.lock().remove(&token);
        }
        None => {
            untracked.fetch_sub(1, Ordering::SeqCst);
        }
    }
    if !owned.is_empty() {
        let mut ctl = ctl.write();
        for id in owned {
            ctl.mark_disconnected(&id);
        }
    }
}

/// Serves one connection's requests, one reply each and in order, until the
/// peer closes, a deadline of the stream fires, or framing is lost; returns
/// the instances registered over the connection and not ended. This is
/// the whole per-request path of the TCP server: one `read` and one
/// `write` per small request, through one [`FrameReader`] and one
/// [`FrameWriter`], and [`handle_request`]'s body with the connection's
/// own verb-histogram handles.
pub fn serve_stream<S: Read + Write>(stream: &mut S, ctl: &SharedController) -> Vec<InstanceId> {
    let (mut reader, mut writer) = (FrameReader::new(), FrameWriter::new());
    let mut verbs = VerbHistograms::default();
    let mut owned: Vec<InstanceId> = Vec::new();
    loop {
        let response = match reader.read_payload(&mut *stream) {
            Ok(Some(payload)) => match frame::utf8(payload).map(Request::parse) {
                Ok(Ok(req)) => {
                    let resp = serve_request(ctl, &req, &mut verbs);
                    track_session(&req, &resp, &mut owned);
                    resp
                }
                Ok(Err(e)) => Response::Error { message: e.to_string() },
                // Framing is intact, so the peer gets an answer and the
                // connection goes on.
                Err(e) => Response::Error { message: format!("malformed message: {e}") },
            },
            // An oversize header leaves no frame boundary to resume from:
            // say why, then close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = send(&mut writer, stream, &Response::Error { message: e.to_string() });
                break;
            }
            // A clean close, an idle deadline, or a truncated frame.
            Ok(None) | Err(_) => break,
        };
        if send(&mut writer, stream, &response).is_err() {
            break;
        }
    }
    owned
}

/// Writes one reply. An oversize *response* must not kill the session
/// silently: it is reported in-band and the connection goes on.
fn send<S: Write>(writer: &mut FrameWriter, stream: &mut S, response: &Response) -> io::Result<()> {
    match writer.write_with(&mut *stream, |out| response.write_text(out)) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let fallback = Response::Error { message: format!("response too large: {e}") };
            writer.write_with(stream, |out| fallback.write_text(out))
        }
        sent => sent,
    }
}

/// Maintains the list of instances owned by one connection from the
/// request/response pairs that flow over it.
fn track_session(req: &Request, resp: &Response, owned: &mut Vec<InstanceId>) {
    match (req, resp) {
        (Request::Startup { .. } | Request::Reattach { .. }, Response::Registered { app, id }) => {
            let instance = InstanceId::new(app.clone(), *id);
            if !owned.contains(&instance) {
                owned.push(instance);
            }
        }
        (Request::End { app, id }, Response::Ok) => {
            let instance = InstanceId::new(app.clone(), *id);
            owned.retain(|i| *i != instance);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::ControllerConfig;
    use harmony_resources::Cluster;

    fn shared_controller(nodes: usize) -> SharedController {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).unwrap();
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())))
    }

    fn full_session<T: Transport>(t: &mut T) {
        // startup → registered
        let resp = t.call(&Request::Startup { app: "bag".into() }).unwrap();
        let Response::Registered { app, id } = resp else { panic!("{resp:?}") };
        assert_eq!(app, "bag");
        // bundle → ok
        let resp = t
            .call(&Request::Bundle {
                app: app.clone(),
                id,
                script: harmony_rsl::listings::FIG2B_BAG.into(),
            })
            .unwrap();
        assert_eq!(resp, Response::Ok);
        // poll → updates describing the placement
        let resp = t.call(&Request::Poll { app: app.clone(), id }).unwrap();
        let Response::Update { updates, .. } = resp else { panic!("{resp:?}") };
        assert!(updates.iter().any(|u| u.path == format!("bag.{id}.config")));
        // second poll is empty
        let resp = t.call(&Request::Poll { app: app.clone(), id }).unwrap();
        assert_eq!(resp, Response::Update { app: app.clone(), id, updates: vec![] });
        // metric → ok
        let resp = t
            .call(&Request::Metric { name: format!("bag.{id}.rt"), time: 1.0, value: 2.0 })
            .unwrap();
        assert_eq!(resp, Response::Ok);
        // end → ok; second end → error
        assert_eq!(t.call(&Request::End { app: app.clone(), id }).unwrap(), Response::Ok);
        let resp = t.call(&Request::End { app, id }).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn local_transport_full_session() {
        let ctl = shared_controller(8);
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        full_session(&mut t);
        assert_eq!(ctl.read().instances().len(), 0);
    }

    #[test]
    fn tcp_transport_full_session() {
        let ctl = shared_controller(8);
        let mut server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        full_session(&mut t);
        server.stop();
    }

    #[test]
    fn tcp_serves_concurrent_clients() {
        let ctl = shared_controller(8);
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut t = TcpTransport::connect(addr).unwrap();
                    let resp = t.call(&Request::Startup { app: "bag".into() }).unwrap();
                    matches!(resp, Response::Registered { .. })
                })
            })
            .collect();
        for th in threads {
            assert!(th.join().unwrap());
        }
        assert_eq!(ctl.read().instances().len(), 4);
    }

    #[test]
    fn malformed_wire_request_gets_error_response() {
        let ctl = shared_controller(2);
        let server = TcpServer::start("127.0.0.1:0", ctl).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        frame::write_frame(&mut stream, "frobnicate everything").unwrap();
        let text = frame::read_frame(&mut stream).unwrap().unwrap();
        let resp = Response::parse(&text).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn status_snapshot_survives_the_wire() {
        // The JSON payload contains quotes, braces, and commas; it must
        // survive TCL-list framing over real TCP.
        let ctl = shared_controller(8);
        {
            let mut ctl = ctl.write();
            let spec =
                harmony_rsl::schema::parse_bundle_script(harmony_rsl::listings::FIG2B_BAG).unwrap();
            ctl.register(spec).unwrap();
        }
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        let resp = t.call(&Request::Status).unwrap();
        let Response::Status { json } = resp else { panic!("{resp:?}") };
        let snap = harmony_core::SystemSnapshot::from_json(&json).unwrap();
        assert_eq!(snap.apps.len(), 1);
        assert_eq!(snap.apps[0].bundles[0].1, "run[workerNodes=8]");
        assert_eq!(snap.total_tasks(), 8);
        // Decision-engine counters ride along: registration enumerated (and
        // memoized) this bundle's candidates.
        assert!(snap.optimizer.cache_misses >= 1, "{:?}", snap.optimizer);
        assert_eq!(snap.optimizer.cache_size, 1);
    }

    #[test]
    fn lint_request_returns_diagnostics_json() {
        let ctl = shared_controller(2);
        let mut t = LocalTransport::new(ctl);
        // A clean script yields an empty array.
        let resp =
            t.call(&Request::Lint { script: harmony_rsl::listings::FIG2B_BAG.into() }).unwrap();
        assert_eq!(resp, Response::Lint { json: "[]".into() });
        // A broken script yields findings with codes and positions.
        let script = "harmonyBundle app conf { {o {variable z {0 1}} \
                      {node n {replicate w} {seconds {1 / z}}}} }";
        let resp = t.call(&Request::Lint { script: script.into() }).unwrap();
        let Response::Lint { json } = resp else { panic!("{resp:?}") };
        assert!(json.contains("HA0004"), "{json}");
        assert!(json.contains("HA0020"), "{json}");
        // An unparseable script is a protocol-level error.
        let resp = t.call(&Request::Lint { script: "not rsl {".into() }).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn facts_request_returns_facts_json() {
        let ctl = shared_controller(2);
        let mut t = LocalTransport::new(ctl);
        let resp =
            t.call(&Request::Facts { script: harmony_rsl::listings::FIG2B_BAG.into() }).unwrap();
        let Response::Facts { json } = resp else { panic!("{resp:?}") };
        let facts = harmony_analyze::facts::facts_from_json(&json).unwrap();
        assert_eq!(facts.bundles.len(), 1);
        // An unparseable script is a protocol-level error.
        let resp = t.call(&Request::Facts { script: "not rsl {".into() }).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn non_finite_metric_is_rejected_in_band() {
        let ctl = shared_controller(2);
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        for (time, value) in [(1.0, f64::NAN), (f64::INFINITY, 2.0), (1.0, f64::NEG_INFINITY)] {
            let name = "x.1.response_time".into();
            let resp = t.call(&Request::Metric { name, time, value }).unwrap();
            let Response::Error { message } = resp else { panic!("accepted bad sample: {resp:?}") };
            assert!(message.contains("non-finite"), "{message}");
        }
        // Nothing was recorded; a clean sample still works.
        assert!(ctl.read().metrics().histogram("x.1.response_time").is_none());
        let name = "x.1.response_time".into();
        let resp = t.call(&Request::Metric { name, time: 1.0, value: 2.0 }).unwrap();
        assert_eq!(resp, Response::Ok);
        let h = ctl.read().metrics().histogram("x.1.response_time").unwrap();
        assert_eq!((h.len(), h.mean()), (1, Some(2.0)));
    }

    #[test]
    fn journal_verb_tails_with_a_cursor() {
        let ctl = shared_controller(8);
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        let Response::Registered { app, id } =
            t.call(&Request::Startup { app: "bag".into() }).unwrap()
        else {
            panic!()
        };
        let resp = t
            .call(&Request::Bundle { app, id, script: harmony_rsl::listings::FIG2B_BAG.into() })
            .unwrap();
        assert_eq!(resp, Response::Ok);
        let resp = t.call(&Request::Journal { cursor: 0, max: 1000 }).unwrap();
        let Response::Journal { json } = resp else { panic!("{resp:?}") };
        let tail = harmony_core::JournalTail::from_json(&json).unwrap();
        assert!(!tail.truncated);
        assert!(tail.entries.iter().any(|e| e.detail.starts_with("startup bag")), "{tail:?}");
        assert!(tail.entries.iter().any(|e| e.detail.starts_with("decision bag.1")), "{tail:?}");
        // The cursor resumes where the first tail stopped.
        let resp = t.call(&Request::Journal { cursor: tail.next_cursor, max: 1000 }).unwrap();
        let Response::Journal { json } = resp else { panic!("{resp:?}") };
        let rest = harmony_core::JournalTail::from_json(&json).unwrap();
        assert!(rest.entries.is_empty());
        assert_eq!(rest.next_cursor, tail.next_cursor);
    }

    #[test]
    fn expo_verb_dumps_metrics_and_verb_latencies() {
        let ctl = shared_controller(8);
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        let Response::Registered { app, id } =
            t.call(&Request::Startup { app: "bag".into() }).unwrap()
        else {
            panic!()
        };
        t.call(&Request::Bundle { app, id, script: harmony_rsl::listings::FIG2B_BAG.into() })
            .unwrap();
        let resp = t.call(&Request::Expo).unwrap();
        let Response::Expo { text } = resp else { panic!("{resp:?}") };
        assert!(text.contains("counter controller.reevals"), "{text}");
        assert!(text.contains("histogram controller.phase.commit"), "{text}");
        assert!(text.contains("histogram server.verb.bundle"), "{text}");
    }

    #[test]
    fn journal_and_expo_proceed_under_a_concurrent_reader() {
        // Both verbs are pure read-path: they must be answerable while
        // this thread already holds a read guard (a write-path handler
        // would deadlock here, like `read_verbs_share_the_lock`).
        let ctl = shared_controller(8);
        let guard = ctl.read();
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        assert!(matches!(
            t.call(&Request::Journal { cursor: 0, max: 10 }).unwrap(),
            Response::Journal { .. }
        ));
        assert!(matches!(t.call(&Request::Expo).unwrap(), Response::Expo { .. }));
        drop(guard);
    }

    #[test]
    fn decisions_over_tcp_carry_provenance_and_timings() {
        let ctl = shared_controller(8);
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        let Response::Registered { app, id } =
            t.call(&Request::Startup { app: "bag".into() }).unwrap()
        else {
            panic!()
        };
        t.call(&Request::Bundle { app, id, script: harmony_rsl::listings::FIG2B_BAG.into() })
            .unwrap();
        let ctl = ctl.read();
        let decisions = ctl.decisions();
        assert!(!decisions.is_empty());
        for d in decisions {
            assert!(!d.provenance.is_empty(), "decision without provenance: {d:?}");
            assert!(d.phases.commit_ms > 0.0, "decision without timings: {d:?}");
        }
        // The provenance resolves to the journaled bundle-setup trigger.
        let tail = ctl.journal_tail(0, 1000);
        let seq = decisions[0].provenance[0];
        let entry = tail.entries.iter().find(|e| e.seq == seq).unwrap();
        assert!(entry.detail.starts_with("bundle-setup bag.1"), "{entry:?}");
    }

    #[test]
    fn bad_bundle_gets_error_response() {
        let ctl = shared_controller(2);
        let mut t = LocalTransport::new(ctl);
        let Response::Registered { app, id } =
            t.call(&Request::Startup { app: "x".into() }).unwrap()
        else {
            panic!()
        };
        let resp = t.call(&Request::Bundle { app, id, script: "not rsl {".into() }).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn accept_backoff_is_bounded() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(5), Duration::from_millis(16));
        // Saturates at 100 ms no matter how long the outage lasts.
        assert_eq!(accept_backoff(8), Duration::from_millis(100));
        assert_eq!(accept_backoff(u32::MAX), Duration::from_millis(100));
    }

    #[test]
    fn tick_interval_tracks_the_window() {
        assert_eq!(tick_interval(0.1), Duration::from_secs_f64(0.025));
        assert_eq!(tick_interval(0.001), Duration::from_secs_f64(0.005), "floor");
        assert_eq!(tick_interval(10.0), Duration::from_secs_f64(0.05), "ceiling");
    }

    #[test]
    fn stop_returns_promptly_on_wildcard_bind() {
        // Binding 0.0.0.0 must not hang teardown: the unblock dial goes to
        // loopback with the bound port.
        let ctl = shared_controller(2);
        let mut server = TcpServer::start("0.0.0.0:0", ctl).unwrap();
        assert!(server.addr().ip().is_unspecified());
        let begin = std::time::Instant::now();
        server.stop();
        assert!(begin.elapsed() < Duration::from_secs(5), "stop took {:?}", begin.elapsed());
    }

    #[test]
    fn stop_returns_promptly_on_ipv6_wildcard() {
        // Binding [::] must not hang teardown either: the unblock dial
        // must go to [::1], not to the unspecified address — dialing [::]
        // is not routed to the listener on every platform. Skip (rather
        // than fail) on hosts without IPv6 support.
        let ctl = shared_controller(2);
        let mut server = match TcpServer::start("[::]:0", ctl) {
            Ok(s) => s,
            Err(_) => return, // no IPv6 on this host
        };
        assert!(server.addr().is_ipv6());
        assert!(server.addr().ip().is_unspecified());
        let begin = std::time::Instant::now();
        server.stop();
        assert!(begin.elapsed() < Duration::from_secs(5), "stop took {:?}", begin.elapsed());
    }

    #[test]
    fn accept_error_counter_starts_clean() {
        let ctl = shared_controller(2);
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&ctl)).unwrap();
        // A healthy listener accrues no accept errors while serving.
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        let _ = t.call(&Request::Status).unwrap();
        assert_eq!(server.accept_error_count(), 0);
        assert_eq!(ctl.read().metrics().counter("server.accept_errors"), 0);
    }

    #[test]
    fn heartbeat_touch_is_folded_by_the_reaper() {
        // A heartbeat runs on the read path (atomic touch-stamp); the
        // lease it renews must be honored by the next reap.
        let ctl = shared_controller(8);
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        let Response::Registered { app, id } =
            t.call(&Request::Startup { app: "bag".into() }).unwrap()
        else {
            panic!()
        };
        ctl.write().set_time(20.0);
        assert_eq!(t.call(&Request::Heartbeat { app: app.clone(), id }).unwrap(), Response::Ok);
        let instance = InstanceId::new(app.clone(), id);
        assert_eq!(ctl.read().effective_deadline(&instance), Some(50.0));
        ctl.write().reap_expired(40.0).unwrap();
        assert!(ctl.read().session(&instance).is_some(), "heartbeat kept the lease alive");
        // Heartbeats for unknown instances still error.
        let resp = t.call(&Request::Heartbeat { app, id: 999 }).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
    }

    #[test]
    fn read_verbs_share_the_lock() {
        // `Status` must take only the shared side of the lock: issuing it
        // while this thread already holds a read guard would deadlock if
        // the handler asked for write access.
        let ctl = shared_controller(8);
        let guard = ctl.read();
        let mut t = LocalTransport::new(Arc::clone(&ctl));
        let resp = t.call(&Request::Status).unwrap();
        assert!(matches!(resp, Response::Status { .. }));
        drop(guard);
    }
}
