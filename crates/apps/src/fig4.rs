//! The Figure 4 experiment: online reconfiguration of variable-parallelism
//! applications.
//!
//! "(a) shows the performance of a parallel application and (b) shows the
//! eight-processor configurations chosen by Harmony as new jobs arrive.
//! Note the configuration of five nodes (rather than six) in the first
//! time frame, and the subsequent configurations that optimize for average
//! efficiency by choosing equal partitions for multiple instances of the
//! parallel application, rather than some large and some small."

use harmony_core::{Controller, ControllerConfig, DecisionRecord, InstanceId};
use harmony_resources::Cluster;
use harmony_rsl::schema::parse_bundle_script;
use serde::{Deserialize, Serialize};

use crate::bag::BagOfTasks;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Cluster size (the paper: 8 processors).
    pub nodes: usize,
    /// Arrival times of successive bag instances.
    pub arrivals: Vec<f64>,
    /// Optional departure: `(time, arrival index)` of a job that finishes.
    pub departure: Option<(f64, usize)>,
    /// Worker-count choices exported in the bundle.
    pub choices: Vec<usize>,
    /// RNG seed for the task mix.
    pub seed: u64,
    /// Controller configuration.
    pub controller: ControllerConfig,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            nodes: 8,
            arrivals: vec![0.0, 300.0, 600.0],
            departure: Some((900.0, 0)),
            choices: vec![1, 2, 3, 4, 5, 6, 7, 8],
            seed: 7,
            controller: ControllerConfig::default(),
        }
    }
}

/// A snapshot of every running instance's worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Event time.
    pub time: f64,
    /// What happened (`arrive bag.2`, `depart bag.1`).
    pub event: String,
    /// `(instance, workers)` for each configured instance, in arrival
    /// order.
    pub configs: Vec<(String, u32)>,
}

impl TimelineEntry {
    /// The worker counts only, in arrival order.
    pub fn workers(&self) -> Vec<u32> {
        self.configs.iter().map(|(_, w)| *w).collect()
    }
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Figure 4(a): the application's measured running-time curve
    /// `(workers, seconds)`.
    pub curve: Vec<(f64, f64)>,
    /// Figure 4(b): configurations after each arrival/departure.
    pub timeline: Vec<TimelineEntry>,
    /// All controller decisions.
    pub decisions: Vec<DecisionRecord>,
}

fn snapshot(ctl: &Controller, ids: &[InstanceId]) -> Vec<(String, u32)> {
    ids.iter()
        .filter_map(|id| {
            let choice = ctl.choice(id, "config")?;
            let workers = choice
                .vars
                .iter()
                .find(|(k, _)| k == "workerNodes")
                .map(|(_, v)| *v as u32)
                .unwrap_or(choice.alloc.nodes.len() as u32);
            Some((id.to_string(), workers))
        })
        .collect()
}

/// Runs the Figure 4 experiment.
///
/// # Panics
///
/// Panics when the generated bundle fails to parse or an arrival cannot be
/// placed at all — both indicate configuration errors (e.g. zero nodes),
/// not runtime conditions.
pub fn run_fig4(cfg: &Fig4Config) -> Fig4Result {
    let bag = BagOfTasks::fig4(cfg.seed);
    let curve = bag.curve(&cfg.choices, 1.0);
    let bundle_text = bag.to_bundle("bag", &cfg.choices, 1.0);

    let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(cfg.nodes))
        .expect("sp2 cluster RSL is valid");
    let mut ctl = Controller::new(cluster, cfg.controller.clone());

    // Merge arrivals and the optional departure into one event list.
    #[derive(Debug)]
    enum Ev {
        Arrive,
        Depart(usize),
    }
    let mut events: Vec<(f64, Ev)> = cfg.arrivals.iter().map(|&t| (t, Ev::Arrive)).collect();
    if let Some((t, idx)) = cfg.departure {
        events.push((t, Ev::Depart(idx)));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut ids: Vec<InstanceId> = Vec::new();
    let mut live: Vec<InstanceId> = Vec::new();
    let mut timeline = Vec::new();
    for (t, ev) in events {
        ctl.set_time(t);
        let label = match ev {
            Ev::Arrive => {
                let spec = parse_bundle_script(&bundle_text).expect("generated bundle parses");
                let (id, _) = ctl.register(spec).expect("bag placement");
                ids.push(id.clone());
                live.push(id.clone());
                format!("arrive {id}")
            }
            Ev::Depart(idx) => match ids.get(idx) {
                Some(id) if live.contains(id) => {
                    ctl.end(id).expect("departing instance is registered");
                    live.retain(|x| x != id);
                    format!("depart {id}")
                }
                _ => "depart (no-op)".to_string(),
            },
        };
        timeline.push(TimelineEntry { time: t, event: label, configs: snapshot(&ctl, &live) });
    }

    Fig4Result { curve, timeline, decisions: ctl.decisions().to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_job_gets_five_nodes_not_six() {
        let cfg = Fig4Config { arrivals: vec![0.0], departure: None, ..Default::default() };
        let r = run_fig4(&cfg);
        assert_eq!(r.timeline.len(), 1);
        assert_eq!(r.timeline[0].workers(), vec![5], "five nodes, not six or eight");
    }

    #[test]
    fn two_jobs_get_equal_partitions() {
        let cfg = Fig4Config { arrivals: vec![0.0, 300.0], departure: None, ..Default::default() };
        let r = run_fig4(&cfg);
        let w = r.timeline[1].workers();
        assert_eq!(w, vec![4, 4], "equal partitions, got {w:?}");
    }

    #[test]
    fn three_jobs_partition_without_starvation() {
        let r = run_fig4(&Fig4Config { departure: None, ..Default::default() });
        let mut w = r.timeline[2].workers();
        assert_eq!(w.iter().sum::<u32>(), 8, "all eight processors used: {w:?}");
        w.sort_unstable();
        assert!(w[0] >= 2, "no job starved: {w:?}");
        assert!(w[2] - w[0] <= 1, "near-equal partitions: {w:?}");
    }

    #[test]
    fn departure_lets_survivors_expand() {
        let r = run_fig4(&Fig4Config::default());
        let before: u32 = r.timeline[2].workers().iter().sum();
        let after = r.timeline[3].workers();
        assert_eq!(r.timeline[3].configs.len(), 2);
        assert_eq!(after, vec![4, 4], "survivors re-expand equally: {after:?}");
        assert_eq!(before, 8);
    }

    #[test]
    fn curve_matches_the_five_node_optimum() {
        let r = run_fig4(&Fig4Config::default());
        let best = r
            .curve
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(w, _)| *w as usize)
            .unwrap();
        assert_eq!(best, 5);
        assert_eq!(r.curve.len(), 8);
    }

    #[test]
    fn decisions_accumulate_over_the_run() {
        let r = run_fig4(&Fig4Config::default());
        // At least one decision per arrival plus rebalances.
        assert!(r.decisions.len() >= 4, "got {}", r.decisions.len());
        assert!(r.timeline.iter().all(|e| !e.event.is_empty()));
    }
}
