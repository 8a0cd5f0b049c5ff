//! The four workloads, each against a spawned release `harmonyd` over
//! loopback TCP. README.md says why each exists and what sized it; the
//! constants here are that sizing.
//!
//! Every end-to-end timing is taken per *unit* of work — a block of 128
//! requests, five `status` calls, one arrival, one restart — and is the
//! median over the run's *quiet* units: the fastest hundredth, at least
//! five. The machine this was sized on alternates, within milliseconds,
//! between a fast state and one about 1.5 times slower (README, "What
//! this machine can measure"); the share of the fast state varied from
//! under 1 % to all of a run, so a whole-window median reads the state of
//! the machine and only the fast tail reads the program. That also fixes
//! the size of a gated unit: a unit longer than a few milliseconds never
//! falls inside one fast stretch. The gated runs of `churn` and `recover`
//! are therefore sized down until an arrival or a restart takes
//! milliseconds ([`Scale::Unit`]); the issue's sizes run in the traced
//! pass ([`Scale::Paper`]) and are reported per layer, unbounded.
//!
//! The fast state itself drifts by a tenth over minutes, for everything
//! alike. Every run therefore sends its blocks to a *null daemon* as well
//! (`daemon::serve_null`) and reports the program's figures in units of
//! that round trip, measured in the same run by the same rule.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmony_core::{Controller, ControllerConfig, StateStore, SystemSnapshot};
use harmony_proto::{handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use parking_lot::RwLock;

use crate::daemon::Daemon;
use crate::expo::Expo;
use crate::gen::{op_at, request_for, Instance, Op, Verb};
use crate::pacer::run_open_loop;
use crate::stats::{median, quantile_sorted, tail_quantile};
use crate::wire::{self, reply_is_correct, Caller, Conn, NullConn};

/// Requests per block of a closed loop: ~1.4 ms of work, short enough
/// that some blocks fall inside one fast stretch of the machine, long
/// enough for the block's median latency to be that of its state.
pub const BLOCK_OPS: u64 = 128;

/// One unit in this many is quiet …
const QUIET_ONE_IN: usize = 100;
/// … but at least this many are.
const QUIET_AT_LEAST: usize = 5;

/// Warm-up requests before a steady window: enough to wrap the 4 096-entry
/// journal ring (a fifth of the requests append to it) and every
/// instance's 1 024-sample series (1 250 samples each), so the timed
/// window runs the steady-state eviction paths; few enough that set-up
/// ends before the daemon's first 2 s pass, which on `steady_wal` writes a
/// checkpoint and doubles the peak memory set-up is charged with whenever
/// it happens to fall inside.
const WARMUP_OPS: u64 = 50_000;

/// Set-ups per full-size run.
pub const SETUPS: usize = 5;

const STEADY_NODES: usize = 8;
const STEADY_INSTANCES: usize = 8;
/// One round of a steady window: this many blocks against the daemon,
/// [`STATUS_CALLS`] `status` requests (the steady workloads' control-plane
/// operation: what `harmonyctl status` and `top` send), then
/// [`NULL_BLOCKS`] blocks of the same requests against the null daemon.
const ROUND_BLOCKS: u64 = 4;
const NULL_BLOCKS: u64 = 2;
/// One `status` call builds and parses 4.6 KB of JSON and its time varies
/// by a tenth from call to call on a quiet machine, so a unit is the
/// median of five in a row (0.5 ms; 8 % of the daemon's time).
const STATUS_CALLS: usize = 5;

/// Open-loop rate of the standing population's traffic beside paper-scale
/// arrivals.
const CHURN_READER_HZ: f64 = 1000.0;
/// Paper scale: how long an arrived application runs before it ends, and
/// how long until the next arrives. One connection gets one request
/// through each time the arriving client releases the write lock, so a
/// reader beside back-to-back `bundle` and `end` requests falls behind
/// without bound — and whether it slips one request in between them is a
/// race. The pauses let it drain after each, so every wait belongs to
/// exactly one hold.
const CHURN_PAUSE: Duration = Duration::from_millis(20);
/// Unit scale: the standing population sends [`CHURN_BLOCKS`] blocks of
/// its mix after every this many arrivals (which also renews its leases).
const CHURN_CYCLES_PER_BLOCKS: usize = 8;
const CHURN_BLOCKS: u64 = 4;
/// Warm-up arrivals per set-up at unit and at paper scale.
const CHURN_WARMUP_CYCLES: [u64; 2] = [600, 4];

/// Warm-up restarts per set-up at unit and at paper scale: page cache,
/// binary load and, at unit scale, enough work for set-up to be more than
/// one process spawn.
const RECOVER_WARMUP_RESTARTS: [u64; 2] = [60, 1];
const RECOVER_MIN_RESTARTS: usize = 5;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Steady read-path traffic, no state dir.
    SteadyMem,
    /// The same traffic with the WAL attached.
    SteadyWal,
    /// Arrival cycles beside the standing population.
    Churn,
    /// Restarts from a prepared state dir.
    Recover,
}

impl Workload {
    /// Every workload, in the order `run.sh` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::SteadyMem, Workload::SteadyWal, Workload::Churn, Workload::Recover];

    /// The name used on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyMem => "steady_mem",
            Workload::SteadyWal => "steady_wal",
            Workload::Churn => "churn",
            Workload::Recover => "recover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the daemon's world is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sized so that one arrival or one restart takes milliseconds: the
    /// gated runs, which report the end-to-end metrics.
    Unit,
    /// The issue's sizes: the traced pass, which reports per layer. The
    /// steady workloads are the same at both scales.
    Paper,
}

/// Cluster nodes, standing instances and prepared steady-mix operations.
#[derive(Debug, Clone, Copy)]
struct Size {
    nodes: usize,
    instances: usize,
    prep_ops: u64,
}

impl Scale {
    fn index(self) -> usize {
        self as usize
    }

    fn churn(self) -> Size {
        match self {
            Scale::Unit => Size { nodes: 4, instances: 2, prep_ops: 0 },
            Scale::Paper => Size { nodes: 16, instances: 12, prep_ops: 0 },
        }
    }

    fn recover(self) -> Size {
        match self {
            Scale::Unit => Size { nodes: 4, instances: 2, prep_ops: 2_500 },
            Scale::Paper => {
                Size { nodes: STEADY_NODES, instances: STEADY_INSTANCES, prep_ops: 250_000 }
            }
        }
    }
}

/// Where the benchmark finds the daemon and keeps its files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `harmonyd` binary.
    pub harmonyd: PathBuf,
    /// Where the null daemon listens.
    pub null: SocketAddr,
    /// Scratch space for cluster files and state dirs.
    pub scratch: PathBuf,
    /// 1/50 of every count (`--smoke`).
    pub smoke: bool,
    /// Set-ups per run: `setup_s` is their median, the last one is
    /// measured.
    pub setups: usize,
}

impl Env {
    fn scaled(&self, count: u64) -> u64 {
        if self.smoke {
            (count / 50).max(1)
        } else {
            count
        }
    }

    fn cluster_file(&self, nodes: usize) -> io::Result<PathBuf> {
        let path = self.scratch.join(format!("sp2-{nodes}.rsl"));
        std::fs::write(&path, harmony_rsl::listings::sp2_cluster(nodes))?;
        Ok(path)
    }

    fn null_conn(&self) -> io::Result<NullConn> {
        Conn::connect(self.null).map(NullConn)
    }

    fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in measured windows.
    pub attempted: u64,
    /// Operations that failed: an I/O error, an in-band error, a reply for
    /// the wrong instance, or state that changed across recovery.
    pub failed: u64,
    /// The end-to-end metrics, by BENCHMARK.json name.
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// Figures of the same run that are reported per layer: whole-window
    /// rates and tails, exposition differences, exact counts.
    pub detail: BTreeMap<String, Metric>,
    /// Free-form findings worth a line in the human report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.insert(name, Metric { value, unit });
    }

    fn note_detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.insert(name.into(), Metric { value, unit });
    }

    /// The per-unit end-to-end metrics, by the quiet rule. `request_p50_us`
    /// is what a request costs against the daemon, as a client sees it. The
    /// same blocks against the null daemon give the round trip no change to
    /// the program can move, and the two figures the program dominates are
    /// given in units of it: `request_excess_pct`, how much the daemon adds
    /// to that round trip, and `control_op_rtts`, how many such round trips
    /// the workload's control-plane operation takes. A note per series
    /// says how far the whole window was from its quiet part.
    fn put_quiet(&mut self, daemon: &[Block], null: &[Block], control_us: &[f64]) {
        let mut quiet_of = |what: &str, units: &[f64]| {
            let q = quiet(units)?;
            self.notes.push(format!(
                "{what}: quiet {q:.2} us, whole window median {:.2} us, {} units, {:.0} % of \
                 them within 5 % of quiet",
                median(units),
                units.len(),
                100.0 * fast_share(units, q)
            ));
            Some(q)
        };
        let request = quiet_of("a request", &block_p50s(daemon));
        let rtt = quiet_of("the same against the null daemon", &block_p50s(null));
        let control = quiet_of("the control operation", control_us);
        if let Some(request) = request {
            self.put("request_p50_us", request, "us");
        }
        if let (Some(request), Some(rtt)) = (request, rtt) {
            self.put("request_excess_pct", 100.0 * (request - rtt) / rtt, "%");
        }
        if let (Some(control), Some(rtt)) = (control, rtt) {
            self.put("control_op_rtts", control / rtt, "rtt");
        }
    }
}

// ----------------------------------------------------------------------
// The quiet rule.
// ----------------------------------------------------------------------

/// Median of the quiet units of `cost` (time per unit of work): the
/// fastest hundredth, at least five, fewer only if there are fewer.
/// `None` without units.
pub fn quiet(cost: &[f64]) -> Option<f64> {
    let mut sorted = cost.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate((cost.len() / QUIET_ONE_IN).max(QUIET_AT_LEAST).min(cost.len()));
    (!sorted.is_empty()).then(|| median(&sorted))
}

/// Share of `cost` within 5 % of `reference`: how much of a window the
/// machine spent in its fast state.
pub fn fast_share(cost: &[f64], reference: f64) -> f64 {
    cost.iter().filter(|&&c| c <= reference * 1.05).count() as f64 / cost.len().max(1) as f64
}

// ----------------------------------------------------------------------
// The closed loop.
// ----------------------------------------------------------------------

/// When a closed loop or an arrival loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After exactly this many operations (arrival loops: cycles).
    Count(u64),
    /// At the first block (cycle) boundary after this long.
    Elapsed(Duration),
}

/// One block of a closed loop.
#[derive(Debug, Default)]
pub struct Block {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time of the block, probes excluded.
    pub wall: Duration,
    /// Daemon CPU time over the block, nanoseconds.
    pub cpu_ns: u64,
    /// Client-observed latency of every successful operation, per verb,
    /// in nanoseconds.
    pub latency_ns: [Vec<u32>; 3],
}

fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

fn p50_us(mut ns: Vec<u32>) -> f64 {
    ns.sort_unstable();
    f64::from(quantile_sorted(&ns, 0.5)) / 1e3
}

impl Block {
    fn is_full(&self) -> bool {
        self.attempted == BLOCK_OPS && self.failed == 0
    }

    /// Median latency over the block's requests, whatever their verb, in
    /// microseconds; `None` for a block that is short or saw a failure.
    pub fn p50_us(&self) -> Option<f64> {
        self.is_full().then(|| p50_us(self.latency_ns.iter().flatten().copied().collect()))
    }

    /// The same for one verb's requests.
    pub fn verb_p50_us(&self, verb: Verb) -> Option<f64> {
        let samples = &self.latency_ns[verb.index()];
        (self.is_full() && !samples.is_empty()).then(|| p50_us(samples.clone()))
    }

    /// Wall microseconds per request.
    pub fn us_per_op(&self) -> Option<f64> {
        self.is_full().then(|| self.wall.as_secs_f64() * 1e6 / BLOCK_OPS as f64)
    }
}

/// Runs the seeded steady mix from operation `first` over one connection,
/// blocking on every reply (the protocol is strict request/response, and a
/// real client waits for each answer). `cpu_ns` is read once at every
/// block boundary, outside the blocks' wall time.
pub fn closed_loop(
    conn: &mut impl Caller,
    seed: u64,
    first: u64,
    population: &[Instance],
    until: Until,
    mut cpu_ns: impl FnMut() -> u64,
) -> Vec<Block> {
    let started = Instant::now();
    let mut blocks = Vec::new();
    let mut index = first;
    let mut broken = false;
    let mut cpu0 = cpu_ns();
    loop {
        let want = match until {
            Until::Count(n) => BLOCK_OPS.min(first + n - index),
            Until::Elapsed(d) if started.elapsed() >= d => 0,
            Until::Elapsed(_) => BLOCK_OPS,
        };
        if want == 0 || broken {
            return blocks;
        }
        let mut block = Block::default();
        for (v, share) in block.latency_ns.iter_mut().zip([0.45, 0.45, 0.25]) {
            v.reserve((want as f64 * share) as usize);
        }
        let t0 = Instant::now();
        for _ in 0..want {
            let op = op_at(seed, index, population.len());
            index += 1;
            let req = request_for(&op, population);
            block.attempted += 1;
            let sent = Instant::now();
            let reply = conn.call(&req);
            let took = sent.elapsed();
            match reply {
                Ok(r) if reply_is_correct(op.verb, &population[op.slot], &r) => {
                    block.latency_ns[op.verb.index()].push(clamp_ns(took));
                }
                Ok(_) => block.failed += 1,
                Err(_) => {
                    // A broken connection fails this operation and ends
                    // the window.
                    block.failed += 1;
                    broken = true;
                    break;
                }
            }
        }
        block.wall = t0.elapsed();
        let cpu1 = cpu_ns();
        block.cpu_ns = cpu1.saturating_sub(cpu0);
        cpu0 = cpu1;
        blocks.push(block);
    }
}

/// Median and tails of pooled latencies, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(quantile, value in µs)`.
    pub tail: Option<(f64, f64)>,
}

/// Sorts `ns` and summarises it; `None` without samples.
pub fn summarize_ns<T: Copy + Ord + Into<u64>>(ns: &mut [T]) -> Option<LatencySummary> {
    if ns.is_empty() {
        return None;
    }
    ns.sort_unstable();
    let at = |q: f64| quantile_sorted(ns, q).into() as f64 / 1e3;
    Some(LatencySummary {
        count: ns.len(),
        p50_us: at(0.5),
        p99_us: at(0.99),
        p999_us: at(0.999),
        tail: tail_quantile(ns.len()).map(|q| (q, at(q))),
    })
}

fn block_p50s(blocks: &[Block]) -> Vec<f64> {
    blocks.iter().filter_map(Block::p50_us).collect()
}

fn count_ops(out: &mut Outcome, blocks: &[Block]) {
    out.attempted += blocks.iter().map(|b| b.attempted).sum::<u64>();
    out.failed += blocks.iter().map(|b| b.failed).sum::<u64>();
}

/// A closed-loop window as the layers see it: the whole window, machine
/// state and periodic passes included (pooled median and tails per verb,
/// rate, daemon CPU per request), and the daemon's CPU per request in its
/// quiet blocks.
fn put_window_detail(out: &mut Outcome, blocks: &[Block]) {
    for verb in Verb::ALL {
        let mut pooled: Vec<u32> =
            blocks.iter().flat_map(|b| b.latency_ns[verb.index()].iter().copied()).collect();
        let Some(s) = summarize_ns(&mut pooled) else { continue };
        let v = verb.name();
        out.note_detail(format!("proto.{v}.window_p50_us"), s.p50_us, "us");
        out.note_detail(format!("proto.{v}.p99_us"), s.p99_us, "us");
        out.note_detail(format!("proto.{v}.p999_us"), s.p999_us, "us");
        out.note_detail(format!("proto.{v}.samples"), s.count as f64, "count");
        if let Some((q, value)) = s.tail {
            out.notes.push(format!(
                "{v}: whole window p50 {:.2} us, p{} {:.1} us, {} samples",
                s.p50_us,
                q * 100.0,
                value,
                s.count
            ));
        }
    }
    let ops: u64 = blocks.iter().map(|b| b.attempted - b.failed).sum();
    let wall: f64 = blocks.iter().map(|b| b.wall.as_secs_f64()).sum();
    let cpu: u64 = blocks.iter().map(|b| b.cpu_ns).sum();
    out.note_detail("window.ops_per_s", ops as f64 / wall, "1/s");
    out.note_detail("window.server_cpu_us_per_op", cpu as f64 / 1e3 / ops.max(1) as f64, "us");
    let cpu_per_op: Vec<f64> = blocks
        .iter()
        .filter(|b| b.is_full())
        .map(|b| b.cpu_ns as f64 / 1e3 / BLOCK_OPS as f64)
        .collect();
    if let Some(q) = quiet(&cpu_per_op) {
        out.note_detail("quiet.server_cpu_us_per_op", q, "us");
    }
    let p50s = block_p50s(blocks);
    if let Some(q) = quiet(&p50s) {
        out.note_detail("window.fast_share", fast_share(&p50s, q), "ratio");
    }
}

// ----------------------------------------------------------------------
// Set-up shared by the live workloads.
// ----------------------------------------------------------------------

/// A daemon with its standing population registered and warmed up.
#[derive(Debug)]
pub struct Live {
    /// The daemon.
    pub daemon: Daemon,
    /// The connection that registered the population.
    pub conn: Conn,
    /// The standing instances.
    pub population: Vec<Instance>,
    /// The first operation of the seeded sequence the warm-up did not use.
    pub next_op: u64,
}

/// What one set-up took: the part that is one piece (spawn, register,
/// prepare) and the part that is many small units of fixed work (warm-up
/// blocks, cycles, restarts), each unit's wall time in seconds.
struct SetupCost {
    fixed_s: f64,
    unit_s: Vec<f64>,
}

/// Runs `setup` `times` times, killing all but the last daemon, and
/// returns the last with `setup_s`: the median of the one-piece parts plus
/// the units of one set-up at the quiet speed of all the set-ups' units.
/// A set-up is a second of work, so its plain wall time reads the state of
/// the machine (1.13–1.87 s over ten consecutive runs of one build); its
/// units are milliseconds, and the quiet rule applies to them as it does
/// to a window's.
fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> io::Result<(T, SetupCost)>,
) -> io::Result<(T, f64)> {
    let repeats = times.max(1);
    let (mut fixed_s, mut unit_s) = (Vec::with_capacity(repeats), Vec::new());
    let mut units = 0;
    let mut last = None;
    for _ in 0..repeats {
        // Kill the previous daemon before the next set-up starts.
        drop(last.take());
        let (ready, mut cost) = setup()?;
        last = Some(ready);
        fixed_s.push(cost.fixed_s);
        units = cost.unit_s.len();
        unit_s.append(&mut cost.unit_s);
    }
    let setup_s = median(&fixed_s) + units as f64 * quiet(&unit_s).unwrap_or(0.0);
    Ok((last.expect("at least one set-up ran"), setup_s))
}

/// The per-verb service time the daemon itself observed between two
/// scrapes (`server.verb.*`), for the verbs that were served.
fn put_served(out: &mut Outcome, before: &Expo, after: &Expo, verbs: &[&str]) {
    for verb in verbs {
        let h = after.hist_since(before, &format!("server.verb.{verb}"));
        if h.count > 0 {
            out.note_detail(format!("proto.served.{verb}_mean_us"), h.mean * 1e6, "us");
        }
    }
}

// ----------------------------------------------------------------------
// steady_mem / steady_wal
// ----------------------------------------------------------------------

/// Spawns a daemon for the steady mix — with a fresh state dir when `wal`
/// — registers the standing population and runs the warm-up.
fn steady_setup(env: &Env, seed: u64, wal: bool) -> io::Result<(Live, SetupCost)> {
    let started = Instant::now();
    let cluster = env.cluster_file(STEADY_NODES)?;
    let warmup = env.scaled(WARMUP_OPS);
    let state = if wal { Some(env.fresh_dir("state")?) } else { None };
    let daemon = Daemon::spawn(&env.harmonyd, &cluster, state.as_deref())?;
    let mut conn = Conn::connect(daemon.addr())?;
    let population = wire::populate(&mut conn, STEADY_INSTANCES)?;
    let fixed_s = started.elapsed().as_secs_f64();
    let warm = closed_loop(&mut conn, seed, 0, &population, Until::Count(warmup), || 0);
    let failed: u64 = warm.iter().map(|b| b.failed).sum();
    if failed > 0 {
        return Err(io::Error::other(format!("{failed} warm-up requests failed")));
    }
    let unit_s = warm.iter().map(|b| b.wall.as_secs_f64()).collect();
    Ok((Live { daemon, conn, population, next_op: warmup }, SetupCost { fixed_s, unit_s }))
}

/// A warmed-up `steady_mem` daemon, for the traced window.
///
/// # Errors
///
/// Failures to spawn or reach the daemon, and failed warm-up requests.
pub fn steady_daemon(env: &Env, seed: u64) -> io::Result<Live> {
    steady_setup(env, seed, false).map(|(live, _)| live)
}

/// [`STATUS_CALLS`] `status` requests in a row: the median time of those
/// answered with a status snapshot, in microseconds, and how many were
/// not (failed operations).
fn status_unit(conn: &mut Conn) -> (Option<f64>, u64) {
    let mut took_us = Vec::with_capacity(STATUS_CALLS);
    for _ in 0..STATUS_CALLS {
        let sent = Instant::now();
        let reply = conn.call(&Request::Status);
        let took = sent.elapsed();
        if matches!(reply, Ok(Response::Status { json }) if !json.is_empty()) {
            took_us.push(took.as_secs_f64() * 1e6);
        }
    }
    let failed = (STATUS_CALLS - took_us.len()) as u64;
    ((!took_us.is_empty()).then(|| median(&took_us)), failed)
}

fn steady(env: &Env, seed: u64, seconds: f64, wal: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (mut live, setup_s) = repeat_setup(env.setups, || steady_setup(env, seed, wal))?;
    out.put("setup_s", setup_s, "s");
    // Memory after fixed work: the window is time-bounded, and a faster
    // daemon must not be charged for having served more of it.
    out.put("server_rss_mb", live.daemon.peak_rss_mb()?, "MB");

    let mut null = env.null_conn()?;
    let before = Expo::parse(&wire::expo(&mut live.conn)?);
    let cpu = live.daemon.cpu_probe()?;
    let started = Instant::now();
    let (mut blocks, mut null_blocks) = (Vec::new(), Vec::new());
    let mut status_us = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        let first = live.next_op;
        let mut round = closed_loop(
            &mut live.conn,
            seed,
            first,
            &live.population,
            Until::Count(ROUND_BLOCKS * BLOCK_OPS),
            || cpu.read_ns(),
        );
        live.next_op += ROUND_BLOCKS * BLOCK_OPS;
        let broken = round.iter().map(|b| b.attempted).sum::<u64>() < ROUND_BLOCKS * BLOCK_OPS;
        blocks.append(&mut round);
        if broken {
            break; // the failed request is counted
        }
        let (status, failed) = status_unit(&mut live.conn);
        out.attempted += STATUS_CALLS as u64;
        out.failed += failed;
        status_us.extend(status);
        null_blocks.append(&mut closed_loop(
            &mut null,
            seed,
            first,
            &live.population,
            Until::Count(NULL_BLOCKS * BLOCK_OPS),
            || 0,
        ));
    }
    let after = Expo::parse(&wire::expo(&mut live.conn)?);

    count_ops(&mut out, &blocks);
    count_ops(&mut out, &null_blocks);
    out.put_quiet(&blocks, &null_blocks, &status_us);
    put_window_detail(&mut out, &blocks);
    put_served(&mut out, &before, &after, &["heartbeat", "poll", "metric", "status"]);
    let requests: u64 = blocks.iter().map(|b| b.attempted).sum();
    out.note_detail(
        "wal.appends_per_op",
        after.counter_since(&before, "controller.persistence.appends") as f64
            / requests.max(1) as f64,
        "1/op",
    );
    out.note_detail(
        "wal.checkpoints",
        after.counter_since(&before, "controller.persistence.checkpoints") as f64,
        "count",
    );
    live.daemon.kill();
    Ok(out)
}

// ----------------------------------------------------------------------
// churn
// ----------------------------------------------------------------------

/// Operation `i` of the reader beside paper-scale arrivals: the verbs in
/// a fixed 2 : 2 : 1 rotation, so each verb samples the write-lock holds
/// evenly in time, the instance seeded.
fn reader_op(seed: u64, i: u64, slots: usize) -> Op {
    const ROTATION: [Verb; 5] =
        [Verb::Heartbeat, Verb::Poll, Verb::Heartbeat, Verb::Poll, Verb::Metric];
    // A stream of its own: the reader's instances do not depend on how
    // many operations other phases consumed.
    Op { verb: ROTATION[(i % 5) as usize], ..op_at(seed ^ 0x5eed_0b5e_7ead_e700, i, slots) }
}

struct Wait {
    due: Instant,
    ns: u64,
}

#[derive(Default)]
struct ReaderResult {
    attempted: u64,
    failed: u64,
    waits: Vec<Wait>,
    late_ns: Vec<u64>,
}

/// The standing population's traffic beside paper-scale arrivals: open
/// loop at [`CHURN_READER_HZ`], each reply timed from its due time.
fn reader(conn: &mut Conn, seed: u64, population: &[Instance], stop: &AtomicBool) -> ReaderResult {
    let mut r = ReaderResult::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let waits = &mut r.waits;
    r.late_ns = run_open_loop(
        conn,
        CHURN_READER_HZ,
        stop,
        |i| {
            attempted += 1;
            request_for(&reader_op(seed, i, population.len()), population)
        },
        |i, reply, due, wait| {
            let op = reader_op(seed, i, population.len());
            match reply {
                Ok(resp) if reply_is_correct(op.verb, &population[op.slot], &resp) => {
                    waits.push(Wait { due, ns: wait.as_nanos() as u64 });
                }
                _ => failed += 1,
            }
        },
    );
    r.attempted = attempted;
    r.failed = failed;
    r
}

/// One arrival cycle: `startup` → `bundle` → `poll` until the
/// `workerNodes` choice arrives → the application runs for `pause` →
/// `end`.
struct Cycle {
    /// While `bundle` and while `end` were outstanding: the two stretches
    /// the arriving client holds the controller's write lock for.
    holds: [(Instant, Instant); 2],
    /// `startup` sent → choice received.
    place: Duration,
    /// Time the cycle's requests were outstanding, pauses excluded.
    busy: Duration,
    requests: u64,
}

impl Cycle {
    fn holds_at(&self, t: Instant) -> bool {
        self.holds.iter().any(|&(from, to)| from <= t && t < to)
    }
}

fn one_cycle(conn: &mut Conn, pause: Duration) -> io::Result<Cycle> {
    let start = Instant::now();
    let inst = wire::startup(conn)?;
    let bundle_sent = Instant::now();
    wire::bundle(conn, &inst)?;
    let bundle_done = Instant::now();
    let polls = wire::poll_choice(conn, &inst)?;
    let place = start.elapsed();
    std::thread::sleep(pause);
    let end_sent = Instant::now();
    wire::end(conn, &inst)?;
    let end_done = Instant::now();
    Ok(Cycle {
        holds: [(bundle_sent, bundle_done), (end_sent, end_done)],
        place,
        busy: place + (end_done - end_sent),
        requests: 3 + polls,
    })
}

#[derive(Default)]
struct ArrivalResult {
    attempted: u64,
    failed: u64,
    cycles: Vec<Cycle>,
    /// Unit scale: the standing population's blocks between arrivals, and
    /// the same requests against the null daemon.
    blocks: Vec<Block>,
    null_blocks: Vec<Block>,
}

/// Arrival cycles until `until`, `pause` apart. With a null daemon to
/// compare against (unit scale), the standing population sends
/// [`CHURN_BLOCKS`] blocks of its mix over the same connection after every
/// [`CHURN_CYCLES_PER_BLOCKS`] cycles, and then the same blocks to the null
/// daemon.
fn arrivals(
    live: &mut Live,
    seed: u64,
    until: Until,
    pause: Duration,
    mut null: Option<&mut NullConn>,
) -> ArrivalResult {
    let mut r = ArrivalResult::default();
    let started = Instant::now();
    loop {
        match until {
            Until::Count(n) if r.cycles.len() as u64 >= n => break,
            Until::Elapsed(d) if started.elapsed() >= d => break,
            _ => {}
        }
        match one_cycle(&mut live.conn, pause) {
            Ok(cycle) => {
                r.attempted += cycle.requests;
                r.cycles.push(cycle);
            }
            Err(_) => {
                // The connection or the protocol is broken: the request
                // that failed ends the window.
                r.attempted += 1;
                r.failed += 1;
                break;
            }
        }
        std::thread::sleep(pause);
        if let Some(null) = null.as_deref_mut() {
            if r.cycles.len().is_multiple_of(CHURN_CYCLES_PER_BLOCKS) {
                let (first, block) = (live.next_op, Until::Count(CHURN_BLOCKS * BLOCK_OPS));
                r.blocks.append(&mut closed_loop(
                    &mut live.conn,
                    seed,
                    first,
                    &live.population,
                    block,
                    || 0,
                ));
                r.null_blocks.append(&mut closed_loop(
                    null,
                    seed,
                    first,
                    &live.population,
                    block,
                    || 0,
                ));
                live.next_op += CHURN_BLOCKS * BLOCK_OPS;
            }
        }
    }
    r
}

fn churn_setup(env: &Env, seed: u64, scale: Scale) -> io::Result<(Live, SetupCost)> {
    let started = Instant::now();
    let size = scale.churn();
    let cluster = env.cluster_file(size.nodes)?;
    let daemon = Daemon::spawn(&env.harmonyd, &cluster, None)?;
    let mut conn = Conn::connect(daemon.addr())?;
    let population = wire::populate(&mut conn, size.instances)?;
    let fixed_s = started.elapsed().as_secs_f64();
    let mut live = Live { daemon, conn, population, next_op: 0 };
    // Back to back at either scale: the warm-up is there to fill the
    // optimizer's caches and the journal ring.
    let cycles = env.scaled(CHURN_WARMUP_CYCLES[scale.index()]);
    let warm = arrivals(&mut live, seed, Until::Count(cycles), Duration::ZERO, None);
    if warm.failed > 0 {
        return Err(io::Error::other(format!("{} warm-up operations failed", warm.failed)));
    }
    let unit_s = warm.cycles.iter().map(|c| c.busy.as_secs_f64()).collect();
    Ok((live, SetupCost { fixed_s, unit_s }))
}

/// Unit scale, end to end: arrivals on a 4-node cluster with two standing
/// applications, back to back on one connection; the standing population's
/// mix in four blocks between every eight.
fn churn_unit(env: &Env, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (mut live, setup_s) = repeat_setup(env.setups, || churn_setup(env, seed, Scale::Unit))?;
    out.put("setup_s", setup_s, "s");
    out.put("server_rss_mb", live.daemon.peak_rss_mb()?, "MB");
    let mut null = env.null_conn()?;
    let until = Until::Elapsed(Duration::from_secs_f64(seconds));
    let arrived = arrivals(&mut live, seed, until, Duration::ZERO, Some(&mut null));
    out.attempted = arrived.attempted;
    out.failed = arrived.failed;
    count_ops(&mut out, &arrived.blocks);
    count_ops(&mut out, &arrived.null_blocks);
    let place_us: Vec<f64> = arrived.cycles.iter().map(|c| c.place.as_secs_f64() * 1e6).collect();
    out.put_quiet(&arrived.blocks, &arrived.null_blocks, &place_us);
    live.daemon.kill();
    Ok(out)
}

/// Paper scale, per layer: arrivals on 16 nodes with 12 standing
/// applications, while a second connection carries the standing
/// population's traffic open loop at [`CHURN_READER_HZ`].
fn churn_paper(env: &Env, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (mut live, _) = churn_setup(env, seed, Scale::Paper)?;
    let mut reader_conn = Conn::connect(live.daemon.addr())?;
    let before = Expo::parse(&wire::expo(&mut live.conn)?);
    let stop = AtomicBool::new(false);
    let population = live.population.clone();
    let until = Until::Elapsed(Duration::from_secs_f64(seconds));
    let (arrived, mut read) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader(&mut reader_conn, seed, &population, &stop));
        let arrived = arrivals(&mut live, seed, until, CHURN_PAUSE, None);
        stop.store(true, Ordering::Release);
        (arrived, reading.join().expect("reader thread panicked"))
    });
    let after = Expo::parse(&wire::expo(&mut live.conn)?);
    out.attempted = arrived.attempted + read.attempted;
    out.failed = arrived.failed + read.failed;

    // Whole-window medians: these are 100 ms stretches of CPU-bound work,
    // so they read the machine's state along with the program's speed.
    let cycles = &arrived.cycles;
    if !cycles.is_empty() {
        let place_ms: Vec<f64> = cycles.iter().map(|c| c.place.as_secs_f64() * 1e3).collect();
        out.note_detail("place_p50_ms", median(&place_ms), "ms");
    }
    out.note_detail("churn.cycles", cycles.len() as f64, "count");
    let during: Vec<&Wait> =
        read.waits.iter().filter(|w| cycles.iter().any(|c| c.holds_at(w.due))).collect();
    let mut waits_ns: Vec<u64> = during.iter().map(|w| w.ns).collect();
    if let Some(s) = summarize_ns(&mut waits_ns) {
        out.note_detail("heartbeat_wait_p50_ms", s.p50_us / 1e3, "ms");
    }
    let blocked = during.iter().filter(|w| w.ns > 1_000_000).count();
    out.note_detail("core.writer_block_frac", blocked as f64 / during.len().max(1) as f64, "ratio");
    if let Some(s) = summarize_ns(&mut read.late_ns) {
        out.note_detail("core.pacer_late_p50_us", s.p50_us, "us");
    }
    let n = cycles.len().max(1) as f64;
    for (name, counter) in [
        ("core.decisions_per_arrival", "controller.decisions"),
        ("core.reevals_per_arrival", "controller.reevals"),
        ("core.optimizer_evals_per_arrival", "controller.optimizer.evals"),
    ] {
        out.note_detail(name, after.counter_since(&before, counter) as f64 / n, "1/cycle");
    }
    let hits = after.counter_since(&before, "controller.optimizer.cache_hits") as f64;
    let misses = after.counter_since(&before, "controller.optimizer.cache_misses") as f64;
    out.note_detail("core.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    put_served(&mut out, &before, &after, &["startup", "bundle", "end"]);
    live.daemon.kill();
    Ok(out)
}

// ----------------------------------------------------------------------
// recover
// ----------------------------------------------------------------------

/// What preparation left behind for the restarts to be checked against.
#[derive(Debug)]
pub struct Prepared {
    /// The standing instances.
    pub population: Vec<Instance>,
    /// Choices and session ids of the in-process controller at the end.
    pub fingerprint: Vec<String>,
    /// WAL records appended.
    pub records: u64,
    /// Bytes of the WAL file.
    pub wal_bytes: u64,
    /// Steady-mix operations applied.
    pub ops: u64,
}

/// Builds the deterministic state dir `recover` restarts from: a fresh
/// store with automatic checkpoints off, `instances` standing
/// applications on `nodes` nodes, then `ops` steady-mix requests through
/// `handle_request`, the controller clock advanced 10 ms per 1 000 of
/// them; synced, then dropped.
///
/// # Errors
///
/// Persistence failures, or any request that does not succeed.
pub fn prepare_state_dir(
    dir: &Path,
    seed: u64,
    nodes: usize,
    instances: usize,
    ops: u64,
) -> io::Result<Prepared> {
    let cluster =
        Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).map_err(io::Error::other)?;
    let (ctl, mut store) =
        StateStore::open(dir, || Controller::new(cluster, ControllerConfig::default()))
            .map_err(io::Error::other)?;
    store.set_snapshot_every(0);
    let shared: SharedController = Arc::new(RwLock::new(ctl));
    let population = wire::populate(&mut wire::Local(&shared), instances)?;
    for index in 0..ops {
        let op = op_at(seed, index, population.len());
        if index % 1000 == 0 {
            shared.write().set_time(op.time);
        }
        let resp = handle_request(&shared, &request_for(&op, &population));
        if !reply_is_correct(op.verb, &population[op.slot], &resp) {
            return Err(io::Error::other(format!("preparation op {index}: {}", resp.to_text())));
        }
    }
    store.sync().map_err(io::Error::other)?;
    let (fingerprint, records) = {
        let ctl = shared.read();
        let records = ctl.wal_handle().map_or(0, |w| w.appended());
        (wire::snapshot_fingerprint(&SystemSnapshot::capture(&ctl)), records)
    };
    let wal = harmony_wal::StateDir::open(dir)?.wal_path(store.generation());
    // The writer's flusher thread stops when the last handle drops.
    drop(shared);
    drop(store);
    Ok(Prepared { population, fingerprint, records, wal_bytes: wal.metadata()?.len(), ops })
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// One restart: spawn on `dir`, wait for `listening on`, `reattach` and
/// `poll` every standing instance, compare the state with preparation's.
struct Restart {
    daemon: Daemon,
    conn: Conn,
    /// Spawn → last `poll` reply.
    recover: Duration,
    /// Daemon CPU by then.
    cpu_ns: u64,
    attempted: u64,
    failed: u64,
}

fn restart(env: &Env, cluster: &Path, dir: &Path, prep: &Prepared) -> io::Result<Restart> {
    let daemon = Daemon::spawn(&env.harmonyd, cluster, Some(dir))?;
    let mut conn = Conn::connect(daemon.addr())?;
    let (mut attempted, mut failed) = (0, 0);
    for inst in &prep.population {
        attempted += 2;
        let resp = conn.call(&Request::Reattach { app: inst.app.clone(), id: inst.id })?;
        if resp != (Response::Registered { app: inst.app.clone(), id: inst.id }) {
            failed += 1;
        }
        let resp = conn.call(&Request::Poll { app: inst.app.clone(), id: inst.id })?;
        // Reattach replays the chosen values, so the poll must carry them.
        if !reply_is_correct(Verb::Poll, inst, &resp) || wire::worker_nodes(&resp).is_none() {
            failed += 1;
        }
    }
    let recover = daemon.spawned_at.elapsed();
    let cpu_ns = daemon.cpu_ns()?;
    attempted += 2;
    if wire::status_fingerprint(&mut conn)? != prep.fingerprint {
        failed += 1;
    }
    if daemon.recovery.map(|l| (l.replayed, l.torn_tail)) != Some((prep.records, false)) {
        failed += 1;
    }
    Ok(Restart { daemon, conn, recover, cpu_ns, attempted, failed })
}

/// The prepared state dir, the directory restarts run in, and the cluster
/// file, after set-up.
struct RecoverReady {
    prep: Prepared,
    prep_dir: PathBuf,
    work_dir: PathBuf,
    cluster: PathBuf,
}

/// Preparation plus the warm-up restarts.
fn recover_setup(env: &Env, seed: u64, scale: Scale) -> io::Result<(RecoverReady, SetupCost)> {
    let started = Instant::now();
    let size = scale.recover();
    let cluster = env.cluster_file(size.nodes)?;
    let prep_dir = env.scratch.join("prepared");
    let work_dir = env.scratch.join("state");
    let _ = std::fs::remove_dir_all(&prep_dir);
    let prep =
        prepare_state_dir(&prep_dir, seed, size.nodes, size.instances, env.scaled(size.prep_ops))?;
    let fixed_s = started.elapsed().as_secs_f64();
    let mut unit_s = Vec::new();
    for _ in 0..env.scaled(RECOVER_WARMUP_RESTARTS[scale.index()]) {
        let t0 = Instant::now();
        copy_dir(&prep_dir, &work_dir)?;
        let warm = restart(env, &cluster, &work_dir, &prep)?;
        if warm.failed > 0 {
            return Err(io::Error::other("warm-up restart recovered a different state"));
        }
        warm.daemon.kill();
        unit_s.push(t0.elapsed().as_secs_f64());
    }
    Ok((RecoverReady { prep, prep_dir, work_dir, cluster }, SetupCost { fixed_s, unit_s }))
}

/// Restarts from the prepared state dir for `seconds`, at least five.
/// Unit scale reports end to end: the restart itself, and a block of the
/// standing population's mix on each recovered daemon. Paper scale
/// reports per layer. Both check every recovered state against
/// preparation's and finish with the durability checks.
fn recover(env: &Env, seed: u64, seconds: f64, scale: Scale) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (ready, setup_s) = repeat_setup(env.setups, || recover_setup(env, seed, scale))?;
    let RecoverReady { prep, prep_dir, work_dir, cluster } = &ready;
    out.put("setup_s", setup_s, "s");

    let mut null = env.null_conn()?;
    let started = Instant::now();
    let (mut recover_us, mut cpu_us, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut blocks, mut null_blocks) = (Vec::new(), Vec::new());
    while recover_us.len() < RECOVER_MIN_RESTARTS || started.elapsed().as_secs_f64() < seconds {
        copy_dir(prep_dir, work_dir)?;
        let mut r = restart(env, cluster, work_dir, prep)?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        recover_us.push(r.recover.as_secs_f64() * 1e6);
        cpu_us.push(r.cpu_ns as f64 / 1e3);
        // What a client sees of a freshly recovered daemon: the same two
        // blocks of the steady mix after every restart, then against the
        // null daemon.
        let block = Until::Count(2 * BLOCK_OPS);
        blocks.append(&mut closed_loop(&mut r.conn, seed, prep.ops, &prep.population, block, || 0));
        null_blocks.append(&mut closed_loop(
            &mut null,
            seed,
            prep.ops,
            &prep.population,
            block,
            || 0,
        ));
        rss_mb.push(r.daemon.peak_rss_mb()?);
        r.daemon.kill();
    }
    count_ops(&mut out, &blocks);
    count_ops(&mut out, &null_blocks);

    match scale {
        Scale::Unit => {
            out.put_quiet(&blocks, &null_blocks, &recover_us);
            out.put("server_rss_mb", median(&rss_mb), "MB");
        }
        Scale::Paper => {
            // Whole-run medians of 0.4 s stretches of CPU-bound work: they
            // read the machine's state along with the program's speed.
            out.note_detail("recover_ms", median(&recover_us) / 1e3, "ms");
            out.note_detail(
                "recover.replay_cpu_us_per_record",
                median(&cpu_us) / prep.records as f64,
                "us",
            );
            out.note_detail("recover.rss_mb", median(&rss_mb), "MB");
            out.note_detail("recover.restarts", recover_us.len() as f64, "count");
            out.note_detail("wal.replayed_records", prep.records as f64, "count");
            out.note_detail("wal.records_per_op", prep.records as f64 / prep.ops as f64, "1/op");
            out.note_detail("wal.bytes_per_op", prep.wal_bytes as f64 / prep.ops as f64, "B/op");
        }
    }
    durability_checks(env, &ready, &mut out)?;
    Ok(out)
}

/// Acknowledged means recoverable from flushed bytes only: restart once
/// from a copy cut mid-record (a torn tail) and once cut cleanly one
/// record short of the last sync, and require exactly the surviving
/// records back.
fn durability_checks(env: &Env, ready: &RecoverReady, out: &mut Outcome) -> io::Result<()> {
    let RecoverReady { prep, prep_dir, work_dir, cluster } = ready;
    let wal_name = "harmony-00000001.wal";
    let image = std::fs::read(prep_dir.join(wal_name))?;
    let bounds = harmony_wal::record_boundaries(&image);
    let last_start = bounds[bounds.len() - 2];
    let mid_record = (last_start + *bounds.last().expect("boundaries start at 0")) / 2;
    for (what, cut, torn) in [("torn tail", mid_record, true), ("clean cut", last_start, false)] {
        copy_dir(prep_dir, work_dir)?;
        std::fs::OpenOptions::new().write(true).open(work_dir.join(wal_name))?.set_len(cut)?;
        let daemon = Daemon::spawn(&env.harmonyd, cluster, Some(work_dir))?;
        let want = Some((prep.records - 1, torn));
        let got = daemon.recovery.map(|l| (l.replayed, l.torn_tail));
        out.attempted += 1;
        if got != want {
            out.failed += 1;
        }
        out.notes.push(format!("{what} at byte {cut}: recovered {got:?}, expected {want:?}"));
        daemon.kill();
    }
    Ok(())
}

/// Runs one workload at one scale.
///
/// # Errors
///
/// Failures to spawn or reach the daemon, and failed set-up operations;
/// failures inside a measured window are counted, not returned.
pub fn run(
    env: &Env,
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    match (workload, scale) {
        (Workload::SteadyMem, _) => steady(env, seed, seconds, false),
        (Workload::SteadyWal, _) => steady(env, seed, seconds, true),
        (Workload::Churn, Scale::Unit) => churn_unit(env, seed, seconds),
        (Workload::Churn, Scale::Paper) => churn_paper(env, seed, seconds),
        (Workload::Recover, _) => recover(env, seed, seconds, scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_the_median_of_the_fastest_hundredth_but_at_least_five() {
        let cost: Vec<f64> = (0..1000).map(|i| f64::from((i * 7) % 1000)).collect();
        // The ten fastest are 0..=9; their median is 4.5.
        assert_eq!(quiet(&cost), Some(4.5));
        // Fewer than 500 units: the five fastest.
        assert_eq!(quiet(&[9.0, 3.0, 1.0, 2.0, 8.0, 7.0, 5.0]), Some(3.0));
        assert_eq!(quiet(&[3.0, 1.0]), Some(2.0));
        assert_eq!(quiet(&[]), None);
        assert_eq!(fast_share(&[10.0, 10.4, 10.6, 15.0], 10.0), 0.5);
    }

    #[test]
    fn reader_rotation_is_two_two_one() {
        let verbs: Vec<Verb> = (0..10).map(|i| reader_op(1, i, 12).verb).collect();
        assert_eq!(verbs.iter().filter(|&&v| v == Verb::Heartbeat).count(), 4);
        assert_eq!(verbs.iter().filter(|&&v| v == Verb::Poll).count(), 4);
        assert_eq!(verbs.iter().filter(|&&v| v == Verb::Metric).count(), 2);
        assert!((0..1000).all(|i| reader_op(1, i, 12).slot < 12));
    }

    /// A controller behind `Local` answers the closed loop in-process: the
    /// same seed claims the same operations, in full blocks.
    #[test]
    fn closed_loop_counts_fixed_work_in_blocks() {
        let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8)).unwrap();
        let ctl = Controller::new(cluster, ControllerConfig::default());
        let shared = Arc::new(RwLock::new(ctl));
        let mut local = wire::Local(&shared);
        let population = wire::populate(&mut local, 4).unwrap();
        let blocks =
            closed_loop(&mut local, 9, 0, &population, Until::Count(2 * BLOCK_OPS + 10), || 0);
        assert_eq!(blocks.len(), 3);
        assert!(blocks[0].is_full() && blocks[1].is_full() && !blocks[2].is_full());
        assert_eq!(blocks[2].attempted, 10);
        assert_eq!(blocks.iter().map(|b| b.failed).sum::<u64>(), 0);
        let samples: usize = blocks.iter().flat_map(|b| b.latency_ns.iter().map(Vec::len)).sum();
        assert_eq!(samples as u64, 2 * BLOCK_OPS + 10);
        assert!(blocks[0].p50_us().is_some() && blocks[2].p50_us().is_none());
    }
}
