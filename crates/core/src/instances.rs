//! One record per application instance.
//!
//! In the paper an instance is one thing from `harmony_startup` to
//! `harmony_end` (§3.2 two-part name, §5 API). Everything the controller
//! holds for it is one [`Instance`], so "registered ⇔ has a lease ⇔ has a
//! poll buffer" cannot be violated, and retirement
//! drops all of it — candidate memo included — in one remove.

use std::collections::BTreeMap;

use harmony_ns::HPath;
use harmony_rsl::Value;
use parking_lot::Mutex;

use crate::app::{AppInstance, BundleState, InstanceId, InstanceRef};
use crate::candidates::Memo;
use crate::leases::Lease;

/// Everything the controller holds for one registered instance.
#[derive(Debug)]
pub(crate) struct Instance {
    /// Bundles and their applied configurations.
    pub(crate) app: AppInstance,
    /// The lease, with the touch stamp the read path renews it through.
    pub(crate) lease: Lease,
    /// The current writes of each bundle changed since the last poll, behind
    /// its own mutex so the polling path drains under a shared borrow.
    pub(crate) pending: Mutex<Vec<(HPath, Value)>>,
    /// Memoized candidate enumeration per bundle name, each candidate
    /// compiled: a pure function of the bundle's spec, which never changes
    /// once attached. Written only by [`Instance::attach`] and
    /// [`Instance::detach`], so an attached bundle always has one and every
    /// pass reads it under `&self`.
    pub(crate) candidates: BTreeMap<String, Memo>,
}

impl Instance {
    /// An instance with nothing buffered, holding `lease` and the bundles
    /// `app` arrives with (none at startup, all of them on load), each
    /// attached and so memoized.
    pub(crate) fn new(mut app: AppInstance, lease: Lease) -> Self {
        let bundles = std::mem::take(&mut app.bundles);
        let mut instance =
            Instance { app, lease, pending: Mutex::new(Vec::new()), candidates: BTreeMap::new() };
        for state in bundles {
            instance.attach(state);
        }
        instance
    }

    /// Attaches a bundle and enumerates its candidates: the one place a
    /// bundle joins an instance.
    pub(crate) fn attach(&mut self, state: BundleState) {
        self.candidates.insert(state.spec.name.clone(), Memo::new(&state.spec));
        self.app.bundles.push(state);
    }

    /// Detaches a bundle, memo and all: the one place a bundle leaves an
    /// instance short of retirement.
    pub(crate) fn detach(&mut self, bundle: &str) {
        self.app.bundles.retain(|b| b.spec.name != bundle);
        self.candidates.remove(bundle);
    }
}

/// The instance table: records by id plus the order they arrived in.
/// Membership changes only through [`Instances::insert`] and
/// [`Instances::remove`], so the two views cannot disagree.
#[derive(Debug, Default)]
pub(crate) struct Instances {
    /// Records by application name, then instance id: walked in order this
    /// is [`InstanceId`] order, and a lookup needs the name only borrowed
    /// (an [`InstanceRef`]).
    by_id: BTreeMap<String, BTreeMap<u64, Instance>>,
    arrival: Vec<InstanceId>,
}

impl Instances {
    /// Adds `instance` as the latest arrival. Ids are allocated once, so
    /// the id is new; were it not, the record is replaced in place.
    pub(crate) fn insert(&mut self, instance: Instance) {
        let id = instance.app.id.clone();
        if self.by_id.entry(id.app.clone()).or_default().insert(id.id, instance).is_none() {
            self.arrival.push(id);
        }
    }

    /// Takes an instance's whole record out of the table.
    pub(crate) fn remove(&mut self, id: &InstanceId) -> Option<Instance> {
        let of_app = self.by_id.get_mut(&id.app)?;
        let instance = of_app.remove(&id.id)?;
        if of_app.is_empty() {
            self.by_id.remove(&id.app);
        }
        self.arrival.retain(|x| x != id);
        Some(instance)
    }

    pub(crate) fn get<'a>(&self, id: impl Into<InstanceRef<'a>>) -> Option<&Instance> {
        let id = id.into();
        self.by_id.get(id.app)?.get(&id.id)
    }

    pub(crate) fn get_mut<'a>(&mut self, id: impl Into<InstanceRef<'a>>) -> Option<&mut Instance> {
        let id = id.into();
        self.by_id.get_mut(id.app)?.get_mut(&id.id)
    }

    pub(crate) fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Ids in arrival order.
    pub(crate) fn arrival(&self) -> &[InstanceId] {
        &self.arrival
    }

    /// Records in arrival order: what optimization passes and the
    /// planner's table walk.
    pub(crate) fn in_arrival_order(&self) -> impl Iterator<Item = &Instance> {
        self.arrival.iter().map(|id| self.get(id).expect("every arrival has its record"))
    }

    /// The record that arrived `i`th among those registered: a row of the
    /// planner's table.
    pub(crate) fn by_arrival(&self, i: usize) -> &Instance {
        self.get(&self.arrival[i]).expect("every arrival has its record")
    }

    /// Records in id order: what the reaper and persistence walk.
    pub(crate) fn in_id_order(&self) -> impl Iterator<Item = &Instance> {
        self.by_id.values().flat_map(BTreeMap::values)
    }

    /// [`Instances::in_id_order`], mutably.
    pub(crate) fn in_id_order_mut(&mut self) -> impl Iterator<Item = &mut Instance> {
        self.by_id.values_mut().flat_map(BTreeMap::values_mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_rsl::listings::FIG2B_BAG;
    use harmony_rsl::schema::parse_bundle_script;

    #[test]
    fn a_bundle_and_its_memo_come_and_go_together() {
        let id = InstanceId::new("bag", 1);
        let lease = Lease::new(0.0, &Default::default());
        let mut inst = Instance::new(AppInstance::new(id, 0.0), lease);
        let spec = parse_bundle_script(FIG2B_BAG).unwrap();
        // No controller, no pass: attaching alone fills the memo.
        inst.attach(BundleState::new(spec.clone()));
        assert_eq!(inst.app.bundles.len(), 1);
        assert_eq!(*inst.candidates["config"].list, crate::candidates::enumerate(&spec));
        inst.detach("config");
        assert!(inst.app.bundles.is_empty() && inst.candidates.is_empty());
        // An app that arrives with bundles (a load) has them attached.
        let mut app = inst.app;
        app.bundles.push(BundleState::new(spec));
        let loaded = Instance::new(app, inst.lease);
        assert_eq!(loaded.app.bundles.len(), 1);
        assert!(loaded.candidates.contains_key("config"));
    }

    #[test]
    fn borrowed_lookups_and_both_orders() {
        let mut table = Instances::default();
        // Arrival order is not id order: `b.2`, `a.10`, `a.9`, `b.1`.
        let arrivals =
            [("b", 2), ("a", 10), ("a", 9), ("b", 1)].map(|(app, id)| InstanceId::new(app, id));
        for id in &arrivals {
            let lease = Lease::new(0.0, &Default::default());
            table.insert(Instance::new(AppInstance::new(id.clone(), 0.0), lease));
        }
        let ids = |it: &mut dyn Iterator<Item = &Instance>| -> Vec<String> {
            it.map(|inst| inst.app.id.to_string()).collect()
        };
        assert_eq!(ids(&mut table.in_arrival_order()), ["b.2", "a.10", "a.9", "b.1"]);
        // Id order is `InstanceId`'s own: by name, then by number.
        let mut sorted = arrivals.to_vec();
        sorted.sort();
        assert_eq!(
            ids(&mut table.in_id_order()),
            sorted.iter().map(InstanceId::to_string).collect::<Vec<_>>()
        );
        assert_eq!(ids(&mut table.in_id_order()), ["a.9", "a.10", "b.1", "b.2"]);
        // Found by a borrowed name as by the owned id.
        assert!(table.get(InstanceRef { app: "a", id: 10 }).is_some());
        assert!(table.get(&arrivals[1]).is_some());
        assert!(table.get(InstanceRef { app: "a", id: 1 }).is_none());
        assert!(table.get(InstanceRef { app: "c", id: 1 }).is_none());
        // The last instance of an application takes the name with it.
        assert!(table.remove(&arrivals[0]).is_some() && table.remove(&arrivals[3]).is_some());
        assert!(table.remove(&arrivals[3]).is_none());
        assert_eq!((table.len(), table.by_id.len()), (2, 1));
        assert_eq!(ids(&mut table.in_arrival_order()), ["a.10", "a.9"]);
    }
}
