//! The controller's event interface.
//!
//! "The Harmony process is an event driven system that waits for
//! application and performance events. When an event happens, it triggers
//! the automatic application adaptation system, and each of the option
//! bundles for each application gets re-evaluated" (§5).

use harmony_rsl::schema::{parse_bundle_script, LinkDecl, NodeDecl};
use serde::{Deserialize, Serialize};

use crate::app::InstanceId;
use crate::controller::{Controller, DecisionRecord};
use crate::error::CoreError;
use crate::journal::JournalKind;
use crate::persist::WalEvent;

/// An event delivered to the Harmony process: the arms the wire server,
/// `harmonyd` and the benchmark build. Startup, end, lease renewal and
/// metric reports are [`WalEvent`] commands of their own and have no arm
/// here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HarmonyEvent {
    /// An application sent a bundle (`harmony_bundle_setup`); the payload
    /// is RSL text.
    BundleSetup {
        /// The registered instance.
        instance: InstanceId,
        /// RSL script containing one `harmonyBundle` statement.
        script: String,
    },
    /// A reconnecting application re-established its session; current
    /// chosen values are replayed into its pending-variable buffer.
    Reattach {
        /// The reattaching instance.
        instance: InstanceId,
    },
    /// The periodic re-evaluation timer fired. Expired session leases are
    /// reaped before the re-evaluation pass.
    Periodic,
    /// A node joined the metacomputer.
    NodeJoined(NodeDecl),
    /// A link was published.
    LinkJoined(LinkDecl),
    /// A node left; applications running on it are displaced and
    /// re-placed.
    NodeLeft {
        /// The departing node's name.
        name: String,
    },
}

/// What handling an event produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventOutcome {
    /// A new instance was registered.
    Registered(InstanceId),
    /// Zero or more reconfiguration decisions were applied.
    Decisions(Vec<DecisionRecord>),
    /// The event was absorbed with no decisions.
    Quiet,
}

impl EventOutcome {
    /// The decisions the command applied (none for the other outcomes).
    pub(crate) fn into_decisions(self) -> Vec<DecisionRecord> {
        match self {
            EventOutcome::Decisions(records) => records,
            EventOutcome::Registered(_) | EventOutcome::Quiet => Vec::new(),
        }
    }
}

impl Controller {
    /// Handles one event, possibly triggering adaptation. Logged whole
    /// (the replay-safe form: `BundleSetup` scripts re-parse identically,
    /// `Periodic` re-reaps at the same clock).
    ///
    /// # Errors
    ///
    /// Propagates RSL parse errors from `BundleSetup` scripts and
    /// controller errors from registration/placement.
    pub fn handle_event(&mut self, event: HarmonyEvent) -> Result<EventOutcome, CoreError> {
        self.execute(WalEvent::Event { now: self.now(), event })
    }

    /// The `Event` command's body. Arms that restate another command
    /// delegate to it, so each verb keeps one body.
    pub(crate) fn apply_event(&mut self, event: HarmonyEvent) -> Result<EventOutcome, CoreError> {
        let now = self.now();
        match event {
            HarmonyEvent::BundleSetup { instance, script } => {
                let spec = parse_bundle_script(&script)?;
                self.apply(WalEvent::Bundle { now, id: instance, spec })
            }
            HarmonyEvent::Reattach { instance } => {
                self.apply(WalEvent::Reattach { now, id: instance })
            }
            HarmonyEvent::Periodic => {
                let mut records = self.apply(WalEvent::Reap { now })?.into_decisions();
                if self.coalescing() {
                    // The periodic pass is the coarse fallback heartbeat:
                    // flush whatever marks accumulated (reaping above may
                    // have added some) instead of re-evaluating blindly.
                    records.extend(self.apply(WalEvent::Flush { now })?.into_decisions());
                } else {
                    records.extend(
                        self.reevaluate_triggered(JournalKind::Event, "periodic".to_string())?,
                    );
                }
                Ok(EventOutcome::Decisions(records))
            }
            HarmonyEvent::NodeJoined(decl) => {
                let name = decl.name.clone();
                self.cluster.add_node(decl)?;
                let records =
                    self.reevaluate_triggered(JournalKind::Event, format!("node-joined {name}"))?;
                Ok(EventOutcome::Decisions(records))
            }
            HarmonyEvent::LinkJoined(decl) => {
                let detail = format!("link-joined {} {}", decl.a, decl.b);
                self.cluster.add_link(decl)?;
                Ok(EventOutcome::Decisions(self.reevaluate_triggered(JournalKind::Event, detail)?))
            }
            HarmonyEvent::NodeLeft { name } => Ok(EventOutcome::Decisions(self.evict(&name)?)),
        }
    }

    /// Removes a node from the cluster, displacing every configuration
    /// whose allocation touched it, then re-places the displaced bundles.
    ///
    /// # Errors
    ///
    /// Propagates re-placement errors; a displaced bundle that no longer
    /// fits anywhere is left unconfigured (not an error — it may fit after
    /// other departures).
    pub fn evict_node(&mut self, name: &str) -> Result<Vec<DecisionRecord>, CoreError> {
        self.handle_event(HarmonyEvent::NodeLeft { name: name.to_string() })
            .map(EventOutcome::into_decisions)
    }

    fn evict(&mut self, name: &str) -> Result<Vec<DecisionRecord>, CoreError> {
        // Find affected (instance, bundle) pairs and release their
        // allocations *before* removing the node so capacity is restored
        // exactly.
        let mut displaced: Vec<(InstanceId, String)> = Vec::new();
        for app in self.instances.in_arrival_order().map(|inst| &inst.app) {
            let touched = app.bundles.iter().filter(|b| {
                b.current
                    .as_ref()
                    .map(|c| c.alloc.nodes.iter().any(|n| n.node == name))
                    .unwrap_or(false)
            });
            displaced.extend(touched.map(|b| (app.id.clone(), b.spec.name.clone())));
        }
        for (id, bundle) in &displaced {
            let Some(inst) = self.instances.get_mut(id) else { continue };
            if let Some(state) = inst.app.bundle_mut(bundle) {
                if let Some(cfg) = state.current.take() {
                    // Ignore missing-node errors: the node is leaving.
                    let _ = self.cluster.release(&cfg.alloc);
                }
            }
        }
        self.cluster.remove_node(name);
        self.metrics.inc_counter("controller.evictions");
        // Re-place everything (displaced bundles have no incumbent, so any
        // feasible candidate wins); the departure is the provenance.
        self.reevaluate_triggered(JournalKind::Event, format!("node-left {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use harmony_resources::Cluster;
    use harmony_rsl::listings::{sp2_cluster, FIG2B_BAG};

    fn controller(nodes: usize) -> Controller {
        Controller::new(
            Cluster::from_rsl(&sp2_cluster(nodes)).unwrap(),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn a_bundle_event_places_a_started_instance() {
        let mut c = controller(8);
        let id = c.startup("bag");
        let outcome = c
            .handle_event(HarmonyEvent::BundleSetup {
                instance: id.clone(),
                script: FIG2B_BAG.into(),
            })
            .unwrap();
        let EventOutcome::Decisions(ds) = outcome else { panic!("expected decisions") };
        assert_eq!(ds.len(), 1);
        assert!(c.choice(&id, "config").is_some());
    }

    #[test]
    fn node_arrival_triggers_expansion() {
        let mut c = controller(4);
        let (id, _) =
            c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 4);
        // Four more nodes join (and links to the existing mesh).
        for i in 4..8 {
            let name = format!("node{i:02}");
            c.handle_event(HarmonyEvent::NodeJoined(harmony_rsl::schema::NodeDecl::new(
                name.clone(),
                1.0,
                256.0,
            )))
            .unwrap();
            for j in 0..i {
                c.handle_event(HarmonyEvent::LinkJoined(harmony_rsl::schema::LinkDecl::new(
                    format!("node{j:02}"),
                    name.clone(),
                    320.0,
                )))
                .unwrap();
            }
        }
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 8, "expanded onto new nodes");
    }

    #[test]
    fn node_departure_displaces_and_replaces() {
        let mut c = controller(8);
        let (id, _) =
            c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        assert_eq!(c.choice(&id, "config").unwrap().vars[0].1, 8);
        let outcome = c.handle_event(HarmonyEvent::NodeLeft { name: "node00".into() }).unwrap();
        let EventOutcome::Decisions(ds) = outcome else { panic!() };
        assert!(!ds.is_empty());
        let choice = c.choice(&id, "config").unwrap();
        // 7 nodes remain: best feasible worker count is 4.
        assert_eq!(choice.vars[0].1, 4);
        assert!(choice.alloc.nodes.iter().all(|n| n.node != "node00"));
        // Capacity counters stayed consistent.
        assert_eq!(c.cluster().total_tasks(), 4);
    }

    #[test]
    fn periodic_event_reevaluates() {
        let mut c = controller(8);
        c.register(harmony_rsl::schema::parse_bundle_script(FIG2B_BAG).unwrap()).unwrap();
        let before = c.metrics().counter("controller.reevals");
        c.handle_event(HarmonyEvent::Periodic).unwrap();
        assert_eq!(c.metrics().counter("controller.reevals"), before + 1);
    }

    #[test]
    fn a_direct_and_a_delivered_reattach_journal_alike() {
        let tails: Vec<Vec<(JournalKind, String)>> = [false, true]
            .into_iter()
            .map(|delivered| {
                let mut c = controller(8);
                let id = c.startup("bag");
                let cursor = c.journal_seq();
                if delivered {
                    c.handle_event(HarmonyEvent::Reattach { instance: id }).unwrap();
                } else {
                    c.reattach(&id).unwrap();
                }
                let tail = c.journal_tail(cursor, 16).entries;
                tail.into_iter().map(|e| (e.kind, e.detail)).collect()
            })
            .collect();
        assert_eq!(tails[0], [(JournalKind::Event, "reattach bag.1".to_string())]);
        assert_eq!(tails[0], tails[1]);
    }

    #[test]
    fn bad_bundle_script_is_an_error() {
        let mut c = controller(2);
        let id = c.startup("x");
        let err = c
            .handle_event(HarmonyEvent::BundleSetup {
                instance: id,
                script: "this is not rsl {".into(),
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Rsl(_)));
    }
}
