//! The §6 experiment: a client/server database reconfigured from query
//! shipping to data shipping as clients arrive (Figure 7).
//!
//! Clients issue perturbed Wisconsin join queries in a closed loop. Each
//! query's resource demands are *measured* by actually executing it in
//! [`crate::QueryEngine`] against the mode-appropriate cache, priced by the
//! [`crate::CostModel`], and then *simulated* as work flowing through
//! processor-sharing stations (server CPU → link → client CPU).
//!
//! The shipping decision comes from a [`WherePolicy`]:
//!
//! * [`WherePolicy::ClientRule`] — the paper's configuration ("the
//!   controller was configured with a simple rule for changing
//!   configurations based on the number of active clients");
//! * [`WherePolicy::Harmony`] — the full adaptation controller choosing
//!   QS/DS from the Figure 3 bundle and its performance models (the paper's
//!   intended end state);
//! * [`WherePolicy::AlwaysQs`] / [`WherePolicy::AlwaysDs`] — static
//!   baselines.

use harmony_core::{Controller, ControllerConfig, InstanceId};
use harmony_rsl::schema::parse_bundle_script;
use harmony_sim::{PsServer, Sim, Trace};
use serde::{Deserialize, Serialize};

use crate::bufferpool::BufferPool;
use crate::cost::CostModel;
use crate::engine::QueryEngine;
use crate::workload::{Workload, WorkloadConfig};

/// Where queries execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Query shipping: execute at the server.
    Qs,
    /// Data shipping: ship pages, execute at the client.
    Ds,
}

/// The shipping-decision policy.
#[derive(Debug, Clone)]
pub enum WherePolicy {
    /// Always query-ship (baseline).
    AlwaysQs,
    /// Always data-ship (baseline).
    AlwaysDs,
    /// The paper's rule: data-ship once at least `ds_at` clients are
    /// active.
    ClientRule {
        /// Active-client threshold at which everyone switches to DS.
        ds_at: usize,
    },
    /// The full Harmony controller deciding per client from the Figure 3
    /// bundle.
    Harmony(ControllerConfig),
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Number of clients (the paper ran 3).
    pub n_clients: usize,
    /// Seconds between client arrivals (the paper: "added clients about
    /// every three minutes"; its Figure 7 shows ≈ 200 s phases).
    pub arrival_spacing: f64,
    /// Total simulated seconds.
    pub duration: f64,
    /// Client think time between queries.
    pub think_time: f64,
    /// Tuples per relation (100 000 in the paper; tests shrink this).
    pub tuples: usize,
    /// Workload drift/selectivity.
    pub workload: WorkloadConfig,
    /// RNG seed.
    pub seed: u64,
    /// The decision policy.
    pub policy: WherePolicy,
    /// Server shared cache (MB).
    pub server_cache_mb: f64,
    /// Per-client cache (MB) used in DS mode.
    pub client_cache_mb: f64,
    /// Client↔server link bandwidth (Mbit/s; the SP-2 switch is 320).
    pub link_mbps: f64,
    /// Cost model.
    pub cost: CostModel,
}

impl Default for Fig7Config {
    fn default() -> Self {
        let workload = WorkloadConfig::default();
        Fig7Config {
            n_clients: 3,
            arrival_spacing: 200.0,
            duration: 600.0,
            think_time: 1.0,
            tuples: workload.tuples,
            workload,
            seed: 1,
            policy: WherePolicy::ClientRule { ds_at: 3 },
            server_cache_mb: 64.0,
            client_cache_mb: 24.0,
            link_mbps: 320.0,
            cost: CostModel::default(),
        }
    }
}

/// One completed query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Client index (0-based).
    pub client: usize,
    /// Submission time.
    pub submitted: f64,
    /// Completion time.
    pub completed: f64,
    /// Mode the query ran under.
    pub mode: Mode,
}

impl QueryRecord {
    /// Response time in seconds.
    pub fn response_time(&self) -> f64 {
        self.completed - self.submitted
    }
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Per-query response-time series (`client1.response_time`, …) plus
    /// mode series (`client1.mode`, 0 = QS, 1 = DS).
    pub trace: Trace,
    /// Every completed query.
    pub queries: Vec<QueryRecord>,
    /// First time any already-running client switched QS→DS, if any.
    pub switch_time: Option<f64>,
    /// Harmony decision log (empty for rule policies): `(time, text)`.
    pub decisions: Vec<(f64, String)>,
}

impl Fig7Result {
    /// Mean response time of queries submitted in `[from, to)` (all
    /// clients).
    pub fn mean_response_in(&self, from: f64, to: f64) -> Option<f64> {
        let rts: Vec<f64> = self
            .queries
            .iter()
            .filter(|q| q.submitted >= from && q.submitted < to)
            .map(QueryRecord::response_time)
            .collect();
        if rts.is_empty() {
            None
        } else {
            Some(rts.iter().sum::<f64>() / rts.len() as f64)
        }
    }

    /// Mean response time of queries in the window that ran under `mode`.
    pub fn mean_response_mode(&self, mode: Mode, from: f64, to: f64) -> Option<f64> {
        let rts: Vec<f64> = self
            .queries
            .iter()
            .filter(|q| q.mode == mode && q.submitted >= from && q.submitted < to)
            .map(QueryRecord::response_time)
            .collect();
        if rts.is_empty() {
            None
        } else {
            Some(rts.iter().sum::<f64>() / rts.len() as f64)
        }
    }
}

/// The Figure 3 bundle text with configurable per-query seconds, generated
/// from measured profiles so the controller reasons about the same costs
/// the simulation charges.
pub fn dbclient_bundle(qs_server: f64, qs_client: f64, ds_server: f64, ds_client: f64) -> String {
    format!(
        "harmonyBundle DBclient:1 where {{\n\
           {{QS\n\
             {{node server {{hostname harmony.cs.umd.edu}} {{seconds {qs_server:.2}}} {{memory 20}}}}\n\
             {{node client * {{seconds {qs_client:.2}}} {{memory 2}}}}\n\
             {{link client server 2}}}}\n\
           {{DS\n\
             {{node server {{hostname harmony.cs.umd.edu}} {{seconds {ds_server:.2}}} {{memory 20}}}}\n\
             {{node client * {{memory >=17}} {{seconds {ds_client:.2}}}}}\n\
             {{link client server {{44 + (client.memory > 24 ? 24 : client.memory) - 17}}}}}}\n\
         }}"
    )
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrive(usize),
    Submit(usize),
    StationDone { st: usize, gen: u64 },
}

struct Station {
    ps: PsServer,
    gen: u64,
}

struct Job {
    client: usize,
    submitted: f64,
    mode: Mode,
    /// Remaining `(station, work)` stages.
    stages: std::collections::VecDeque<(usize, f64)>,
}

struct State {
    stations: Vec<Station>,
    jobs: std::collections::HashMap<u64, Job>,
    next_job: u64,
}

impl State {
    fn resched(&mut self, sim: &mut Sim<Ev>, st: usize) {
        let now = sim.now();
        let station = &mut self.stations[st];
        station.gen += 1;
        if let Some((t, _)) = station.ps.next_completion(now) {
            sim.schedule(t, Ev::StationDone { st, gen: station.gen });
        }
    }

    fn enqueue(&mut self, sim: &mut Sim<Ev>, job_id: u64) {
        let now = sim.now();
        loop {
            let Some(job) = self.jobs.get_mut(&job_id) else { return };
            let Some((st, work)) = job.stages.pop_front() else { return };
            if work <= 1e-12 {
                continue;
            }
            self.stations[st].ps.add(now, job_id, work);
            self.resched(sim, st);
            return;
        }
    }
}

const SERVER_ST: usize = 0;
const LINK_ST: usize = 1;

fn client_station(i: usize) -> usize {
    2 + i
}

/// Runs the Figure 7 experiment.
///
/// # Panics
///
/// Panics on internal simulation inconsistencies (a completed job missing
/// from its station), which indicate a bug rather than bad input.
pub fn run_fig7(cfg: &Fig7Config) -> Fig7Result {
    let engine = QueryEngine::wisconsin(cfg.tuples, cfg.seed);
    let mut server_pool = BufferPool::with_megabytes(cfg.server_cache_mb);
    let mut client_pools: Vec<BufferPool> =
        (0..cfg.n_clients).map(|_| BufferPool::with_megabytes(cfg.client_cache_mb)).collect();
    let mut workloads: Vec<Workload> = (0..cfg.n_clients)
        .map(|i| Workload::new(WorkloadConfig { tuples: cfg.tuples, ..cfg.workload }, i, cfg.seed))
        .collect();

    // Stations: server CPU (1 reference machine), shared link (MB/s), one
    // CPU per client.
    let mut stations = vec![
        Station { ps: PsServer::new(1.0), gen: 0 },
        Station { ps: PsServer::new(cfg.link_mbps / 8.0), gen: 0 },
    ];
    for _ in 0..cfg.n_clients {
        stations.push(Station { ps: PsServer::new(1.0), gen: 0 });
    }
    let mut state = State { stations, jobs: std::collections::HashMap::new(), next_job: 0 };

    // The Harmony controller (when configured): one server node pinned by
    // hostname plus one node per client, fully linked.
    let mut controller: Option<(Controller, Vec<Option<InstanceId>>)> = match &cfg.policy {
        WherePolicy::Harmony(config) => {
            let mut rsl = String::from(
                "harmonyNode server {speed 1.0} {memory 256} {hostname harmony.cs.umd.edu}\n",
            );
            for i in 0..cfg.n_clients {
                rsl.push_str(&format!("harmonyNode client{i} {{speed 1.0}} {{memory 64}}\n"));
            }
            for i in 0..cfg.n_clients {
                rsl.push_str(&format!(
                    "harmonyLink server client{i} {{bandwidth {}}}\n",
                    cfg.link_mbps
                ));
            }
            let cluster =
                harmony_resources::Cluster::from_rsl(&rsl).expect("generated cluster RSL is valid");
            Some((Controller::new(cluster, config.clone()), vec![None; cfg.n_clients]))
        }
        _ => None,
    };

    // Calibrate bundle seconds from a measured query. The query runs twice
    // on a scratch pool and the warm-cache stats are used, so the bundle
    // carries steady-state per-query costs (cold-start misses would bias
    // the controller's crossover point).
    let bundle_text = {
        let mut scratch = BufferPool::with_megabytes(cfg.server_cache_mb);
        let q = Workload::new(
            WorkloadConfig { tuples: cfg.tuples, ..cfg.workload },
            usize::MAX,
            cfg.seed ^ 0xdead,
        )
        .next_query();
        engine.execute_hash(&q, &mut scratch);
        let (_, stats) = engine.execute_hash(&q, &mut scratch);
        let qs = cfg.cost.query_shipping(&stats);
        let ds = cfg.cost.data_shipping(&stats);
        dbclient_bundle(
            qs.server_seconds,
            qs.client_seconds,
            ds.server_seconds.max(0.01),
            ds.client_seconds,
        )
    };

    let mut sim: Sim<Ev> = Sim::new();
    for i in 0..cfg.n_clients {
        sim.schedule(i as f64 * cfg.arrival_spacing, Ev::Arrive(i));
    }

    let mut trace = Trace::new();
    let mut queries = Vec::new();
    let mut active = vec![false; cfg.n_clients];
    let mut last_mode: Vec<Option<Mode>> = vec![None; cfg.n_clients];
    let mut switch_time = None;

    while let Some((now, ev)) = sim.next() {
        if now > cfg.duration && matches!(ev, Ev::Arrive(_) | Ev::Submit(_)) {
            continue;
        }
        match ev {
            Ev::Arrive(i) => {
                active[i] = true;
                if let Some((ctl, ids)) = controller.as_mut() {
                    ctl.set_time(now);
                    let spec = parse_bundle_script(&bundle_text).expect("bundle text is valid RSL");
                    match ctl.register(spec) {
                        Ok((id, _)) => ids[i] = Some(id),
                        Err(e) => panic!("fig7 controller registration failed: {e}"),
                    }
                }
                sim.schedule(now, Ev::Submit(i));
            }
            Ev::Submit(i) => {
                let n_active = active.iter().filter(|a| **a).count();
                let mode = match &cfg.policy {
                    WherePolicy::AlwaysQs => Mode::Qs,
                    WherePolicy::AlwaysDs => Mode::Ds,
                    WherePolicy::ClientRule { ds_at } => {
                        if n_active >= *ds_at {
                            Mode::Ds
                        } else {
                            Mode::Qs
                        }
                    }
                    WherePolicy::Harmony(_) => {
                        let (ctl, ids) = controller.as_mut().expect("policy is Harmony");
                        ctl.set_time(now);
                        let id = ids[i].as_ref().expect("client registered on arrival");
                        match ctl.choice(id, "where").map(|c| c.option.clone()) {
                            Some(opt) if opt == "DS" => Mode::Ds,
                            _ => Mode::Qs,
                        }
                    }
                };
                if let Some(prev) = last_mode[i] {
                    if prev == Mode::Qs && mode == Mode::Ds && switch_time.is_none() {
                        switch_time = Some(now);
                    }
                }
                last_mode[i] = Some(mode);
                trace.record(
                    now,
                    format!("client{}.mode", i + 1),
                    match mode {
                        Mode::Qs => 0.0,
                        Mode::Ds => 1.0,
                    },
                );

                // Execute the query for real against the mode's cache.
                let q = workloads[i].next_query();
                let (profile, _stats) = match mode {
                    Mode::Qs => {
                        let (_, stats) = engine.execute_hash(&q, &mut server_pool);
                        (cfg.cost.query_shipping(&stats), stats)
                    }
                    Mode::Ds => {
                        let (_, stats) = engine.execute_hash(&q, &mut client_pools[i]);
                        (cfg.cost.data_shipping(&stats), stats)
                    }
                };
                let mut stages = std::collections::VecDeque::new();
                stages.push_back((SERVER_ST, profile.server_seconds));
                stages.push_back((LINK_ST, profile.transfer_mb));
                stages.push_back((client_station(i), profile.client_seconds));
                let job_id = state.next_job;
                state.next_job += 1;
                state.jobs.insert(job_id, Job { client: i, submitted: now, mode, stages });
                state.enqueue(&mut sim, job_id);
            }
            Ev::StationDone { st, gen } => {
                if state.stations[st].gen != gen {
                    continue; // stale prediction
                }
                let Some((_, job_id)) = state.stations[st].ps.next_completion(now) else {
                    continue;
                };
                state.stations[st].ps.remove(now, job_id);
                state.resched(&mut sim, st);
                let done = {
                    let job = state.jobs.get(&job_id).expect("job table entry");
                    job.stages.iter().all(|(_, w)| *w <= 1e-12) || job.stages.is_empty()
                };
                if done {
                    let job = state.jobs.remove(&job_id).expect("job table entry");
                    let record = QueryRecord {
                        client: job.client,
                        submitted: job.submitted,
                        completed: now,
                        mode: job.mode,
                    };
                    trace.record(
                        now,
                        format!("client{}.response_time", job.client + 1),
                        record.response_time(),
                    );
                    queries.push(record);
                    if now + cfg.think_time <= cfg.duration {
                        sim.schedule(now + cfg.think_time, Ev::Submit(job.client));
                    }
                } else {
                    state.enqueue(&mut sim, job_id);
                }
            }
        }
    }

    let decisions = controller
        .map(|(ctl, _)| {
            ctl.decisions()
                .iter()
                .map(|d| {
                    (
                        d.time,
                        format!(
                            "{} {}: {} -> {}",
                            d.instance,
                            d.bundle,
                            d.from.clone().unwrap_or_else(|| "-".into()),
                            d.to
                        ),
                    )
                })
                .collect()
        })
        .unwrap_or_default();

    Fig7Result { trace, queries, switch_time, decisions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: WherePolicy) -> Fig7Config {
        Fig7Config {
            tuples: 10_000,
            workload: WorkloadConfig { tuples: 10_000, selectivity: 0.1, drift: 0.02 },
            policy,
            // Short think time keeps the server saturated so contention
            // shapes match the paper's closed-loop clients, and the per-op
            // cost is scaled ×10 so the 10 000-tuple test query costs what
            // the 100 000-tuple paper query costs.
            think_time: 0.2,
            cost: CostModel { per_op_seconds: 950e-6, ..CostModel::default() },
            ..Default::default()
        }
    }

    #[test]
    fn qs_response_grows_with_client_count() {
        let r = run_fig7(&small(WherePolicy::AlwaysQs));
        let one = r.mean_response_in(50.0, 200.0).unwrap();
        let two = r.mean_response_in(250.0, 400.0).unwrap();
        let three = r.mean_response_in(450.0, 600.0).unwrap();
        assert!(two > 1.6 * one, "two clients ≈ double: {one} -> {two}");
        assert!(three > two, "monotone growth: {two} -> {three}");
        assert!(r.switch_time.is_none());
    }

    #[test]
    fn rule_policy_switches_at_third_client() {
        let r = run_fig7(&small(WherePolicy::ClientRule { ds_at: 3 }));
        let t = r.switch_time.expect("a switch must happen");
        assert!((400.0..450.0).contains(&t), "switch at {t}");
        // Post-switch DS ≈ two-client QS level.
        let two_client_qs = r.mean_response_in(250.0, 400.0).unwrap();
        let post_switch_ds = r.mean_response_mode(Mode::Ds, 450.0, 600.0).unwrap();
        let one_client_qs = r.mean_response_in(50.0, 200.0).unwrap();
        assert!(
            post_switch_ds < 1.5 * two_client_qs,
            "DS {post_switch_ds} should be near 2-client QS {two_client_qs}"
        );
        assert!(post_switch_ds > one_client_qs, "DS is slower than lone QS");
    }

    #[test]
    fn harmony_controller_reproduces_the_rule() {
        let r = run_fig7(&small(WherePolicy::Harmony(ControllerConfig::default())));
        let t = r.switch_time.expect("harmony must switch");
        assert!((400.0..460.0).contains(&t), "switch at {t}");
        assert!(!r.decisions.is_empty());
        // All three clients end up on DS.
        let last_modes: Vec<f64> = (1..=3)
            .map(|i| r.trace.series(&format!("client{i}.mode")).last().map(|(_, v)| *v).unwrap())
            .collect();
        assert_eq!(last_modes, vec![1.0, 1.0, 1.0], "all clients on DS");
        // And it beats never switching.
        let qs = run_fig7(&small(WherePolicy::AlwaysQs));
        let h3 = r.mean_response_in(470.0, 600.0).unwrap();
        let q3 = qs.mean_response_in(470.0, 600.0).unwrap();
        assert!(h3 < q3, "harmony {h3} beats always-QS {q3} at 3 clients");
    }

    #[test]
    fn always_ds_is_flat_but_slower_solo() {
        let ds = run_fig7(&small(WherePolicy::AlwaysDs));
        let qs = run_fig7(&small(WherePolicy::AlwaysQs));
        let ds_one = ds.mean_response_in(50.0, 200.0).unwrap();
        let qs_one = qs.mean_response_in(50.0, 200.0).unwrap();
        assert!(ds_one > qs_one, "QS is faster solo: {qs_one} vs {ds_one}");
        // DS stays roughly flat as clients arrive (own CPUs).
        let ds_three = ds.mean_response_in(420.0, 600.0).unwrap();
        assert!(ds_three < 1.5 * ds_one, "DS flat-ish: {ds_one} -> {ds_three}");
    }

    #[test]
    fn bundle_text_parses_and_matches_fig3_shape() {
        let text = dbclient_bundle(4.1, 1.0, 0.3, 9.2);
        let spec = parse_bundle_script(&text).unwrap();
        assert_eq!(spec.option_names(), vec!["QS", "DS"]);
        let ds = spec.option("DS").unwrap();
        assert!(ds.node("client").unwrap().memory().unwrap().is_elastic());
    }
}
