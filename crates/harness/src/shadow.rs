//! The shadow lease model: the *correct* lease semantics re-implemented
//! over ground-truth verb deliveries, shared by the randomized harness
//! ([`World`](crate::World)) and the exhaustive model checker
//! (`harmony-mc`) so both enforce the identical contract.
//!
//! Lease state is the invariant hardest to eyeball: renewals arrive on
//! two paths (write-path verbs renew the stored deadline directly;
//! read-path verbs stamp an atomic that a later write-path pass folds
//! in), and recovery traffic renews as a side effect. The shadow mirrors
//! the controller's arithmetic operation-for-operation, so the lease
//! oracle can demand exact agreement — bit-identical deadlines, not
//! approximate ones.

use std::collections::BTreeMap;

use harmony_core::{InstanceId, LeaseConfig, RetireReason};

/// Shadow lease state of one instance, mirroring the controller's
/// two-level scheme: `deadline` is what write-path renewals maintain,
/// `stamp` is the newest unfolded read-path touch (`0.0` = none).
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowSession {
    /// The write-path deadline.
    pub deadline: f64,
    /// The newest unfolded read-path touch (`0.0` = none).
    pub stamp: f64,
    /// Whether the connection was marked dropped.
    pub disconnected: bool,
}

impl ShadowSession {
    /// The deadline as the (correct) reaper will see it after folding.
    pub fn effective(&self, duration: f64) -> f64 {
        if self.stamp == 0.0 {
            self.deadline
        } else {
            self.deadline.max(self.stamp + duration)
        }
    }

    /// Folds a pending read-path touch into the deadline, mirroring the
    /// controller's lease fold exactly: a folded touch renews (and
    /// clears a disconnect mark) only when it extends the deadline check
    /// window, and the stamp is consumed.
    pub fn fold(&mut self, duration: f64) {
        if self.stamp != 0.0 {
            let renewed = self.stamp + duration;
            if renewed > self.deadline {
                self.deadline = renewed;
            }
            self.disconnected = false;
            self.stamp = 0.0;
        }
    }
}

/// The shadow lease table: every live session's [`ShadowSession`] plus
/// the lease configuration the arithmetic depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowLeases {
    lease: LeaseConfig,
    sessions: BTreeMap<InstanceId, ShadowSession>,
}

impl ShadowLeases {
    /// An empty table under `lease`.
    pub fn new(lease: LeaseConfig) -> Self {
        ShadowLeases { lease, sessions: BTreeMap::new() }
    }

    /// The lease configuration the table mirrors.
    pub fn lease(&self) -> &LeaseConfig {
        &self.lease
    }

    /// The live shadow sessions, keyed by instance.
    pub fn sessions(&self) -> &BTreeMap<InstanceId, ShadowSession> {
        &self.sessions
    }

    /// Number of live shadow sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Forgets every session (server restart).
    pub fn clear(&mut self) {
        self.sessions.clear();
    }

    /// Registers a fresh session: full lease from `now`, no pending
    /// touch, connected.
    pub fn insert_startup(&mut self, id: InstanceId, now: f64) {
        self.sessions.insert(
            id,
            ShadowSession { deadline: now + self.lease.duration, stamp: 0.0, disconnected: false },
        );
    }

    /// Removes a session (explicit end).
    pub fn remove(&mut self, id: &InstanceId) {
        self.sessions.remove(id);
    }

    /// A write-path renewal: full lease from `now`, disconnect cleared.
    /// Unknown instances are ignored (the controller returns `false` and
    /// mutates nothing).
    pub fn renew(&mut self, id: &InstanceId, now: f64) {
        if let Some(s) = self.sessions.get_mut(id) {
            s.deadline = now + self.lease.duration;
            s.disconnected = false;
        }
    }

    /// A read-path touch: the stamp only moves forward.
    pub fn touch(&mut self, id: &InstanceId, now: f64) {
        if let Some(s) = self.sessions.get_mut(id) {
            if now > s.stamp {
                s.stamp = now;
            }
        }
    }

    /// A disconnect mark: pending touches fold first (the controller does
    /// the same, so a touch that raced the drop still counts), then the
    /// deadline is capped to the disconnect grace.
    pub fn mark_disconnected(&mut self, id: &InstanceId, now: f64) {
        let duration = self.lease.duration;
        let grace = self.lease.disconnect_grace;
        if let Some(s) = self.sessions.get_mut(id) {
            s.fold(duration);
            if !s.disconnected {
                s.disconnected = true;
                s.deadline = s.deadline.min(now + grace);
            }
        }
    }

    /// Folds every pending read-path touch (what a correct reap does
    /// first).
    pub fn fold_all(&mut self) {
        let duration = self.lease.duration;
        for s in self.sessions.values_mut() {
            s.fold(duration);
        }
    }

    /// The model of a *correct* reap at `now`: folds all touches, then
    /// retires — removes and returns — every session whose deadline has
    /// passed, with the reason a correct reaper would record.
    pub fn expected_reap(&mut self, now: f64) -> BTreeMap<InstanceId, RetireReason> {
        self.fold_all();
        let mut expected: BTreeMap<InstanceId, RetireReason> = BTreeMap::new();
        for (id, s) in &self.sessions {
            if s.deadline <= now {
                let reason = if s.disconnected {
                    RetireReason::Disconnected
                } else {
                    RetireReason::LeaseExpired
                };
                expected.insert(id.clone(), reason);
            }
        }
        for id in expected.keys() {
            self.sessions.remove(id);
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease() -> LeaseConfig {
        LeaseConfig::default()
    }

    #[test]
    fn touch_then_fold_extends_the_deadline() {
        let mut sh = ShadowLeases::new(lease());
        let id = InstanceId::new("bag", 1);
        sh.insert_startup(id.clone(), 1.0);
        let d0 = sh.sessions()[&id].deadline;
        sh.touch(&id, 5.0);
        assert_eq!(sh.sessions()[&id].deadline, d0, "touch alone moves nothing");
        assert_eq!(sh.sessions()[&id].effective(sh.lease().duration), 5.0 + sh.lease().duration);
        sh.fold_all();
        assert_eq!(sh.sessions()[&id].deadline, 5.0 + sh.lease().duration);
        assert_eq!(sh.sessions()[&id].stamp, 0.0, "fold consumes the stamp");
    }

    #[test]
    fn expected_reap_folds_before_expiring() {
        let mut sh = ShadowLeases::new(lease());
        let dur = sh.lease().duration;
        let stale = InstanceId::new("bag", 1);
        let touched = InstanceId::new("simple", 2);
        sh.insert_startup(stale.clone(), 0.5);
        sh.insert_startup(touched.clone(), 0.5);
        sh.touch(&touched, 10.0);
        // Past the stale deadline but inside the touched session's
        // post-fold window: exactly one retirement expected.
        let at = 0.5 + dur + 1.0;
        let reaped = sh.expected_reap(at);
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[&stale], RetireReason::LeaseExpired);
        assert!(sh.sessions().contains_key(&touched));
    }

    #[test]
    fn disconnect_caps_the_deadline_and_reaps_with_its_reason() {
        let mut sh = ShadowLeases::new(lease());
        let grace = sh.lease().disconnect_grace;
        let id = InstanceId::new("bag", 1);
        sh.insert_startup(id.clone(), 0.0);
        sh.mark_disconnected(&id, 1.0);
        assert_eq!(sh.sessions()[&id].deadline, 1.0 + grace);
        let reaped = sh.expected_reap(1.0 + grace);
        assert_eq!(reaped[&id], RetireReason::Disconnected);
        assert!(sh.is_empty());
    }
}
