//! One record per application instance.
//!
//! In the paper an instance is one thing from `harmony_startup` to
//! `harmony_end` (§3.2 two-part name, §5 API). Everything the controller
//! holds for it is one [`Instance`], so "registered ⇔ has a session ⇔ has
//! a touch slot ⇔ has a poll buffer" cannot be violated, and retirement
//! drops all of it — candidate memo included — in one remove.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use harmony_ns::HPath;
use harmony_rsl::Value;
use parking_lot::Mutex;

use crate::app::{AppInstance, InstanceId};
use crate::candidates::Candidate;
use crate::session::SessionState;

/// Everything the controller holds for one registered instance.
#[derive(Debug)]
pub(crate) struct Instance {
    /// Bundles and their applied configurations.
    pub(crate) app: AppInstance,
    /// The lease.
    pub(crate) session: SessionState,
    /// Lock-free lease touch-stamp: the concurrent read path renews the
    /// lease by storing `f64::to_bits(touch_time)` with `fetch_max` (valid
    /// because the bit patterns of non-negative IEEE doubles are
    /// order-isomorphic to their values; `0` doubles as the "never
    /// touched" sentinel). Write-path operations fold it into
    /// [`SessionState::deadline`].
    pub(crate) touch: AtomicU64,
    /// Buffered variable updates awaiting the next poll. Behind its own
    /// mutex so the polling path drains under a shared controller borrow.
    pub(crate) pending: Mutex<Vec<(HPath, Value)>>,
    /// Memoized candidate enumeration per bundle name. A bundle's
    /// candidate set depends only on its spec and the (immutable)
    /// `elastic_steps` configuration, and a bundle's spec never changes
    /// once attached, so it is computed once and shared (`Arc`) with every
    /// optimizer pass.
    pub(crate) candidates: BTreeMap<String, Arc<Vec<Candidate>>>,
}

impl Instance {
    /// A freshly registered instance: nothing touched, buffered or
    /// memoized yet.
    pub(crate) fn new(app: AppInstance, session: SessionState) -> Self {
        Instance {
            app,
            session,
            touch: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            candidates: BTreeMap::new(),
        }
    }

    /// Folds a pending touch-stamp into the session (the write-path half
    /// of read-path lease renewal); true when one was pending. A batch of
    /// touches between folds counts as one renewal, mirroring how the
    /// reaper would have observed it.
    pub(crate) fn fold_touch(&mut self, lease: f64) -> bool {
        let bits = std::mem::take(self.touch.get_mut());
        if bits == 0 {
            return false;
        }
        let renewed = f64::from_bits(bits) + lease;
        if renewed > self.session.deadline {
            self.session.deadline = renewed;
        }
        self.session.disconnected = false;
        self.session.renewals += 1;
        true
    }
}

/// The instance table: records by id plus the order they arrived in.
/// Membership changes only through [`Instances::insert`] and
/// [`Instances::remove`], so the two views cannot disagree.
#[derive(Debug, Default)]
pub(crate) struct Instances {
    by_id: BTreeMap<InstanceId, Instance>,
    arrival: Vec<InstanceId>,
}

impl Instances {
    /// Adds `instance` as the latest arrival. Ids are allocated once, so
    /// the id is new; were it not, the record is replaced in place.
    pub(crate) fn insert(&mut self, instance: Instance) {
        let id = instance.app.id.clone();
        if self.by_id.insert(id.clone(), instance).is_none() {
            self.arrival.push(id);
        }
    }

    /// Takes an instance's whole record out of the table.
    pub(crate) fn remove(&mut self, id: &InstanceId) -> Option<Instance> {
        let instance = self.by_id.remove(id)?;
        self.arrival.retain(|x| x != id);
        Some(instance)
    }

    pub(crate) fn get(&self, id: &InstanceId) -> Option<&Instance> {
        self.by_id.get(id)
    }

    pub(crate) fn get_mut(&mut self, id: &InstanceId) -> Option<&mut Instance> {
        self.by_id.get_mut(id)
    }

    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Ids in arrival order.
    pub(crate) fn arrival(&self) -> &[InstanceId] {
        &self.arrival
    }

    /// Records in arrival order: what optimization passes and the
    /// planner's table walk.
    pub(crate) fn in_arrival_order(&self) -> impl Iterator<Item = &Instance> {
        self.arrival.iter().map(|id| &self.by_id[id])
    }

    /// Records in id order: what the reaper and persistence walk.
    pub(crate) fn in_id_order(&self) -> impl Iterator<Item = &Instance> {
        self.by_id.values()
    }

    /// [`Instances::in_id_order`], mutably.
    pub(crate) fn in_id_order_mut(&mut self) -> impl Iterator<Item = &mut Instance> {
        self.by_id.values_mut()
    }
}
