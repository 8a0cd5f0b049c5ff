//! The shared namespace of §3.2, derived.
//!
//! Each granted resource is named `app.instance.bundle.option.resource.tag`
//! (`DBclient.66.where.DS.client.memory`). Every such path and its value
//! is a function of one applied [`ChosenConfig`], so the controller stores
//! none of them: [`config_writes`] derives them for a commit and a reattach
//! (buffered to poll by [`buffer_writes`]) and for anyone reading the
//! namespace ([`NamespaceView`]). A released allocation therefore leaves
//! no path behind.

use harmony_ns::HPath;
use harmony_rsl::Value;

use crate::app::{AppInstance, ChosenConfig, InstanceId, InstanceRef};
use crate::instances::Instances;

/// The namespace as the live instances' applied configurations describe
/// it, read through [`Controller::namespace`](crate::Controller::namespace).
/// Values are derived on each read, so they come back owned.
#[derive(Debug, Clone, Copy)]
pub struct NamespaceView<'a> {
    instances: &'a Instances,
}

impl<'a> NamespaceView<'a> {
    pub(crate) fn new(instances: &'a Instances) -> Self {
        NamespaceView { instances }
    }

    /// The value at `path`, when an applied configuration names it.
    pub fn get(&self, path: &HPath) -> Option<Value> {
        let app = path.get(0)?;
        let id = path.get(1)?.parse().ok()?;
        let inst = self.instances.get(InstanceRef { app, id })?;
        let bundle = inst.app.bundle(path.get(2)?)?;
        let writes = config_writes(&inst.app.id, &bundle.spec.name, bundle.current.as_ref()?);
        writes.into_iter().find_map(|(p, v)| (p == *path).then_some(v))
    }

    /// Every path and its value, instance by instance in id order.
    pub fn iter(&self) -> impl Iterator<Item = (HPath, Value)> + 'a {
        self.instances.in_id_order().flat_map(|inst| applied_writes(&inst.app).flatten())
    }

    /// True when no instance has an applied configuration.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// The namespace writes of every configuration `app` has applied, one
/// [`config_writes`] per placed bundle, bundle by bundle.
pub(crate) fn applied_writes(app: &AppInstance) -> impl Iterator<Item = Vec<(HPath, Value)>> + '_ {
    app.bundles
        .iter()
        .filter_map(|b| Some(config_writes(&app.id, &b.spec.name, b.current.as_ref()?)))
}

/// Buffers one configuration's [`config_writes`] for the next poll in
/// place of whatever is still buffered under the same bundle (the path of
/// its first write). So a poll buffer holds the current writes of each
/// bundle changed since the last poll, never a value a later decision
/// replaced, and an instance that does not poll cannot grow it.
pub(crate) fn buffer_writes(buffer: &mut Vec<(HPath, Value)>, writes: Vec<(HPath, Value)>) {
    let bundle = &writes[0].0;
    buffer.retain(|(path, _)| !path.starts_with(bundle));
    buffer.extend(writes);
}

/// The namespace writes describing one applied configuration: the chosen
/// option under the bundle path, the variables, and each requirement's
/// granted resources.
pub(crate) fn config_writes(
    id: &InstanceId,
    bundle_name: &str,
    cfg: &ChosenConfig,
) -> Vec<(HPath, Value)> {
    let base = instance_path(id).child(bundle_name).expect("bundle name is a component");
    let mut writes: Vec<(HPath, Value)> = vec![(base.clone(), Value::Str(cfg.option.clone()))];
    let opt_path = base.child(&cfg.option).expect("option name is a component");
    for (name, v) in &cfg.vars {
        if let Ok(p) = opt_path.child(name) {
            writes.push((p, Value::Int(*v)));
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    for n in &cfg.alloc.nodes {
        if seen.contains(&n.req.as_str()) {
            continue;
        }
        seen.push(&n.req);
        if let Ok(req_path) = opt_path.child(&n.req) {
            let entries = [
                ("memory", Value::Float(n.memory)),
                ("seconds", Value::Float(n.seconds)),
                ("node", Value::Str(n.node.clone())),
                ("count", Value::Int(cfg.alloc.bindings(&n.req).len() as i64)),
            ];
            for (tag, v) in entries {
                if let Ok(p) = req_path.child(tag) {
                    writes.push((p, v));
                }
            }
        }
    }
    writes
}

/// Namespace path of an instance: `app.id`.
fn instance_path(id: &InstanceId) -> HPath {
    HPath::from_components([id.app.as_str(), &id.id.to_string()])
        .expect("app names and ids are valid components")
}
