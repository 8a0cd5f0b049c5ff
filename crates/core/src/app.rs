//! Application instance state held by the controller.

use std::fmt;
use std::fmt::Write as _;

use harmony_resources::Allocation;
use harmony_rsl::schema::BundleSpec;
use serde::{Deserialize, Serialize};

/// Two-part instance name: application name plus system-chosen id (§3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId {
    /// Application name (`DBclient`).
    pub app: String,
    /// System-chosen instance id (`66`).
    pub id: u64,
}

impl InstanceId {
    /// Creates an instance id.
    pub fn new(app: impl Into<String>, id: u64) -> Self {
        InstanceId { app: app.into(), id }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        InstanceRef::from(self).fmt(f)
    }
}

/// An [`InstanceId`] that borrows its application name: what the request
/// path looks an instance up by, straight out of the parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceRef<'a> {
    /// Application name (`DBclient`).
    pub app: &'a str,
    /// System-chosen instance id (`66`).
    pub id: u64,
}

impl InstanceRef<'_> {
    /// The owned id.
    pub fn to_owned(self) -> InstanceId {
        InstanceId::new(self.app, self.id)
    }
}

impl<'a> From<&'a InstanceId> for InstanceRef<'a> {
    fn from(id: &'a InstanceId) -> Self {
        InstanceRef { app: &id.app, id: id.id }
    }
}

impl fmt::Display for InstanceRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.app, self.id)
    }
}

/// One concrete configuration of a bundle: the option chosen, the variable
/// bindings, the elastic memory grant, and the resulting allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChosenConfig {
    /// Name of the chosen option.
    pub option: String,
    /// Variable bindings (e.g. `workerNodes = 4`), sorted by name.
    pub vars: Vec<(String, i64)>,
    /// Extra megabytes granted to elastic memory requirements.
    pub elastic_extra: f64,
    /// The committed allocation.
    pub alloc: Allocation,
    /// Predicted response time at selection (seconds).
    pub predicted: f64,
    /// Time the choice was applied (controller clock, seconds).
    pub chosen_at: f64,
}

impl ChosenConfig {
    /// A short label like `DS` or `run[workerNodes=4]` for logs and traces.
    pub fn label(&self) -> String {
        option_label(&self.option, &self.vars)
    }

    /// True when `other` denotes the same option/variable point (ignoring
    /// the concrete allocation and timestamps).
    pub fn same_choice(&self, other: &ChosenConfig) -> bool {
        self.option == other.option
            && self.vars == other.vars
            && (self.elastic_extra - other.elastic_extra).abs() < 1e-9
    }
}

/// `option`, then its bindings as `[k=v,...]` when it has any: the label
/// decision records, journal entries and `status` carry. Written into one
/// `String` sized for the longest text the bindings can have.
pub(crate) fn option_label(option: &str, vars: &[(String, i64)]) -> String {
    // `[`, `]`, and per binding `=`, `,` and up to 20 bytes of `i64`.
    let most = option.len() + 2 + vars.iter().map(|(k, _)| k.len() + 22).sum::<usize>();
    let mut label = String::with_capacity(most);
    label.push_str(option);
    for (i, (k, v)) in vars.iter().enumerate() {
        label.push(if i == 0 { '[' } else { ',' });
        // Writing to a `String` cannot fail.
        let _ = write!(label, "{k}={v}");
    }
    if !vars.is_empty() {
        label.push(']');
    }
    label
}

/// The controller-side state of one bundle of one application instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleState {
    /// The bundle specification the application exported.
    pub spec: BundleSpec,
    /// The currently applied configuration, if any.
    pub current: Option<ChosenConfig>,
    /// Number of reconfigurations applied (changes after the first
    /// choice).
    pub reconfig_count: u32,
}

impl BundleState {
    /// Wraps a parsed bundle with no choice applied yet.
    pub fn new(spec: BundleSpec) -> Self {
        BundleState { spec, current: None, reconfig_count: 0 }
    }

    /// The granularity (minimum seconds between reconfigurations) of the
    /// *currently chosen* option, if declared.
    pub fn current_granularity(&self) -> Option<f64> {
        let current = self.current.as_ref()?;
        self.spec.option(&current.option)?.granularity
    }

    /// True when a switch at time `now` would violate the chosen option's
    /// granularity declaration.
    pub fn switch_blocked_at(&self, now: f64) -> bool {
        match (&self.current, self.current_granularity()) {
            (Some(cur), Some(g)) => now - cur.chosen_at < g,
            _ => false,
        }
    }
}

/// One registered application instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppInstance {
    /// The instance name.
    pub id: InstanceId,
    /// Bundles in the order the application registered them (the lexical
    /// evaluation order of §4.3).
    pub bundles: Vec<BundleState>,
    /// Controller-clock arrival time (seconds).
    pub arrived_at: f64,
}

impl AppInstance {
    /// Creates an instance with no bundles.
    pub fn new(id: InstanceId, arrived_at: f64) -> Self {
        AppInstance { id, bundles: Vec::new(), arrived_at }
    }

    /// Finds a bundle by name.
    pub fn bundle(&self, name: &str) -> Option<&BundleState> {
        self.bundles.iter().find(|b| b.spec.name == name)
    }

    /// Finds a bundle by name, mutably.
    pub fn bundle_mut(&mut self, name: &str) -> Option<&mut BundleState> {
        self.bundles.iter_mut().find(|b| b.spec.name == name)
    }

    /// All committed allocations across bundles.
    pub fn allocations(&self) -> Vec<&Allocation> {
        self.bundles.iter().filter_map(|b| b.current.as_ref().map(|c| &c.alloc)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::schema::parse_bundle_script;

    #[test]
    fn instance_id_display() {
        assert_eq!(InstanceId::new("DBclient", 66).to_string(), "DBclient.66");
    }

    #[test]
    fn chosen_config_label() {
        let c = ChosenConfig {
            option: "run".into(),
            vars: vec![("workerNodes".into(), 4)],
            elastic_extra: 0.0,
            alloc: Allocation::default(),
            predicted: 340.0,
            chosen_at: 0.0,
        };
        assert_eq!(c.label(), "run[workerNodes=4]");
        let plain = ChosenConfig { vars: vec![], option: "DS".into(), ..c.clone() };
        assert_eq!(plain.label(), "DS");
        // Zero, one and two bindings, byte for byte.
        let labelled = |option: &str, vars: &[(&str, i64)]| ChosenConfig {
            option: option.into(),
            vars: vars.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
            ..c.clone()
        };
        assert_eq!(labelled("run", &[]).label(), "run");
        assert_eq!(labelled("run", &[("workerNodes", 2)]).label(), "run[workerNodes=2]");
        assert_eq!(labelled("opt", &[("a", 1), ("b", 2)]).label(), "opt[a=1,b=2]");
        assert_eq!(labelled("x", &[("k", i64::MIN)]).label(), format!("x[k={}]", i64::MIN));
        assert!(!c.same_choice(&plain));
        let mut same = c.clone();
        same.chosen_at = 99.0;
        same.predicted = 1.0;
        assert!(c.same_choice(&same));
    }

    #[test]
    fn granularity_blocks_early_switches() {
        let spec =
            parse_bundle_script("harmonyBundle a b { {o {node n {seconds 1}} {granularity 60}} }")
                .unwrap();
        let mut state = BundleState::new(spec);
        assert!(!state.switch_blocked_at(0.0)); // nothing chosen yet
        state.current = Some(ChosenConfig {
            option: "o".into(),
            vars: vec![],
            elastic_extra: 0.0,
            alloc: Allocation::default(),
            predicted: 1.0,
            chosen_at: 100.0,
        });
        assert!(state.switch_blocked_at(120.0)); // only 20 s elapsed
        assert!(!state.switch_blocked_at(160.0)); // 60 s elapsed
        assert_eq!(state.current_granularity(), Some(60.0));
    }

    #[test]
    fn app_instance_bundle_lookup() {
        let id = InstanceId::new("a", 1);
        let mut app = AppInstance::new(id, 0.0);
        let spec = parse_bundle_script("harmonyBundle a b { {o {node n {seconds 1}}} }").unwrap();
        app.bundles.push(BundleState::new(spec));
        assert!(app.bundle("b").is_some());
        assert!(app.bundle("zzz").is_none());
        assert!(app.bundle_mut("b").is_some());
        assert!(app.allocations().is_empty());
    }
}
