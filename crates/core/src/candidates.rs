//! Candidate enumeration: the discrete configuration points of a bundle.
//!
//! Options are "a way of allowing Harmony to locate an individual
//! application in n-dimensional space" (§3). A bundle's candidate set is
//! the cross product of its options, each option's `variable` axes, and
//! the fixed elastic-memory steps.

use std::sync::Arc;

use harmony_resources::{Compiled, Matcher, Strategy, VarsEnv};
use harmony_rsl::schema::{BundleSpec, OptionSpec};
use serde::{Deserialize, Serialize};

use crate::app::option_label;

/// One candidate configuration point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The option name.
    pub option: String,
    /// Variable bindings, sorted by name.
    pub vars: Vec<(String, i64)>,
    /// Extra megabytes for elastic memory requirements.
    pub elastic_extra: f64,
}

impl Candidate {
    /// A short label like `DS+7MB` or `run[workerNodes=4]`.
    pub fn label(&self) -> String {
        let mut s = option_label(&self.option, &self.vars);
        if self.elastic_extra > 0.0 {
            s.push_str(&format!("+{:.0}MB", self.elastic_extra));
        }
        s
    }

    /// The matcher that places this candidate: first-fit (§4.1) at the
    /// candidate's own elastic grant.
    pub(crate) fn matcher(&self) -> Matcher {
        Matcher::new(Strategy::FirstFit).with_elastic_extra(self.elastic_extra)
    }
}

/// Enumerates every variable assignment of `opt` (cartesian product of its
/// `variable` tags), in definition order.
pub fn variable_assignments(opt: &OptionSpec) -> Vec<Vec<(String, i64)>> {
    let mut out: Vec<Vec<(String, i64)>> = vec![Vec::new()];
    for var in &opt.variables {
        let mut next = Vec::with_capacity(out.len() * var.choices.len());
        for assignment in &out {
            for &choice in &var.choices {
                let mut a = assignment.clone();
                a.push((var.name.clone(), choice));
                next.push(a);
            }
        }
        out = next;
    }
    for a in &mut out {
        a.sort();
    }
    out
}

/// True when any node requirement of `opt` has an elastic (`>=`) memory
/// tag, i.e. elastic-extra steps beyond zero are meaningful.
pub fn has_elastic_memory(opt: &OptionSpec) -> bool {
    opt.nodes.iter().any(|n| n.memory().map(|m| m.is_elastic()).unwrap_or(false))
}

/// The extra megabytes an elastic (`>=`) memory option is tried at; a
/// non-elastic option is tried at `0.0` only.
const ELASTIC_STEPS: [f64; 4] = [0.0, 7.0, 15.0, 30.0];

/// Enumerates all candidates of `bundle`: for each option, each variable
/// assignment; options with elastic memory additionally fan out over 0, 7,
/// 15 and 30 extra megabytes.
pub fn enumerate(bundle: &BundleSpec) -> Vec<Candidate> {
    let mut out = Vec::new();
    for opt in &bundle.options {
        let extras: &[f64] =
            if has_elastic_memory(opt) { &ELASTIC_STEPS } else { &ELASTIC_STEPS[..1] };
        for vars in variable_assignments(opt) {
            for &extra in extras {
                out.push(Candidate {
                    option: opt.name.clone(),
                    vars: vars.clone(),
                    elastic_extra: extra,
                });
            }
        }
    }
    out
}

/// A bundle's memoized candidates, each beside what its own bindings
/// decide about matching it: its option's place in the bundle, and that
/// option's node requirements evaluated in the candidate's bindings
/// ([`Compiled`]). A trial then evaluates only what depends on the trial.
#[derive(Debug)]
pub(crate) struct Memo {
    /// The candidates, in [`enumerate`] order, shared as one `Arc`.
    pub(crate) list: Arc<Vec<Candidate>>,
    /// Per candidate of `list`.
    pub(crate) compiled: Vec<(usize, Compiled)>,
}

impl Memo {
    /// Enumerates and compiles `bundle`'s candidates.
    pub(crate) fn new(bundle: &BundleSpec) -> Self {
        let list = enumerate(bundle);
        let compiled = list
            .iter()
            .map(|cand| {
                // The first option of the name, as `BundleSpec::option`
                // finds it; every candidate is enumerated from one.
                let at = bundle.options.iter().position(|o| o.name == cand.option);
                let at = at.expect("a candidate names an option of its bundle");
                (at, Compiled::new(&bundle.options[at], &VarsEnv(&cand.vars)))
            })
            .collect();
        Memo { list: Arc::new(list), compiled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::expr::Env;
    use harmony_rsl::listings::{FIG2B_BAG, FIG3_DBCLIENT};
    use harmony_rsl::schema::parse_bundle_script;
    use harmony_rsl::Value;

    #[test]
    fn fig2b_enumerates_worker_counts() {
        let bundle = parse_bundle_script(FIG2B_BAG).unwrap();
        let cands = enumerate(&bundle);
        assert_eq!(cands.len(), 4);
        let workers: Vec<i64> = cands.iter().map(|c| c.vars[0].1).collect();
        assert_eq!(workers, vec![1, 2, 4, 8]);
        assert_eq!(cands[2].label(), "run[workerNodes=4]");
    }

    #[test]
    fn fig3_enumerates_options_with_elastic_fanout() {
        let bundle = parse_bundle_script(FIG3_DBCLIENT).unwrap();
        // QS is not elastic; DS is (client memory >=17).
        let cands = enumerate(&bundle);
        let qs: Vec<_> = cands.iter().filter(|c| c.option == "QS").collect();
        let ds: Vec<_> = cands.iter().filter(|c| c.option == "DS").collect();
        assert_eq!(qs.len(), 1);
        assert_eq!(ds.len(), 4); // 0, 7, 15, 30 MB extra
        assert_eq!(ds[1].label(), "DS+7MB");
    }

    #[test]
    fn candidate_env_binds_vars() {
        let c = Candidate {
            option: "run".into(),
            vars: vec![("workerNodes".into(), 8)],
            elastic_extra: 0.0,
        };
        assert_eq!(VarsEnv(&c.vars).lookup("workerNodes"), Some(Value::Int(8)));
    }

    #[test]
    fn multi_variable_cross_product() {
        let bundle = parse_bundle_script(
            "harmonyBundle a b { {o {variable x {1 2}} {variable y {10 20 30}} {node n {seconds 1}}} }",
        )
        .unwrap();
        let assignments = variable_assignments(&bundle.options[0]);
        assert_eq!(assignments.len(), 6);
        // Sorted bindings inside each assignment.
        for a in &assignments {
            assert_eq!(a[0].0, "x");
            assert_eq!(a[1].0, "y");
        }
    }

    #[test]
    fn an_elastic_option_fans_out_over_the_fixed_steps_and_a_fixed_one_does_not() {
        let bundle = parse_bundle_script(
            "harmonyBundle a b { {e {node n {memory >=16} {seconds 1}}} \
             {f {node n {memory 16} {seconds 1}}} }",
        )
        .unwrap();
        let extras = |option: &str| -> Vec<f64> {
            let cands = enumerate(&bundle);
            cands.iter().filter(|c| c.option == option).map(|c| c.elastic_extra).collect()
        };
        assert_eq!(extras("e"), [0.0, 7.0, 15.0, 30.0]);
        assert_eq!(extras("f"), [0.0]);
    }
}
