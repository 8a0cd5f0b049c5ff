//! Session leases: liveness tracking for registered application instances.
//!
//! The paper's prototype assumes applications always announce departure
//! via `harmony_end` (§5), but the controller's decisions are driven by
//! how many instances are registered — a single crashed client that never
//! sends `end` would permanently skew every subsequent adaptation
//! decision. Each registered instance therefore carries a *lease* that
//! any request renews (including the lightweight `heartbeat` verb); the
//! [`reap_expired`](crate::Controller::reap_expired) sweep retires
//! instances whose lease ran out exactly as if they had called `end`,
//! freeing their allocations and re-evaluating the survivors.
//!
//! [`Lease`] is the lease policy's one owner: only it computes a deadline,
//! stores or folds a touch stamp, or judges expiry. The session verbs below
//! call it, then only count and retire on what it reports.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use harmony_metrics::MetricRegistry;
use serde::{Deserialize, Serialize};

use crate::app::{InstanceId, InstanceRef};
use crate::controller::{Controller, DecisionRecord};
use crate::error::CoreError;
use crate::events::EventOutcome;
use crate::journal::retained_since;
use crate::persist::WalEvent;

/// Lease parameters, in controller-clock seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaseConfig {
    /// Seconds a lease stays valid after its last renewal.
    pub duration: f64,
    /// Once the server observes an instance's connection drop, its lease
    /// is shortened to expire at most this many seconds later — the
    /// window in which a reconnecting client can still `reattach`.
    pub disconnect_grace: f64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { duration: 30.0, disconnect_grace: 5.0 }
    }
}

/// Liveness state of one registered instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Controller-clock time at which the lease expires.
    pub deadline: f64,
    /// The server observed this instance's connection drop, and the lease
    /// has not been renewed since.
    pub disconnected: bool,
    /// Number of lease renewals (any request from the instance counts).
    pub renewals: u64,
}

/// Why an instance left the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetireReason {
    /// The application called `harmony_end`.
    Ended,
    /// The lease ran out with no renewal (crashed or wedged client).
    LeaseExpired,
    /// The connection dropped and the disconnect grace elapsed without a
    /// reattach.
    Disconnected,
}

impl fmt::Display for RetireReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetireReason::Ended => write!(f, "end"),
            RetireReason::LeaseExpired => write!(f, "lease-expired"),
            RetireReason::Disconnected => write!(f, "disconnected"),
        }
    }
}

/// A record of one instance retirement (explicit or reaped).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetirementRecord {
    /// Controller-clock time of the retirement.
    pub time: f64,
    /// The retired instance.
    pub instance: InstanceId,
    /// Why it was retired.
    pub reason: RetireReason,
}

/// One instance's lease: the [`SessionState`] the write path keeps, and
/// the stamp the concurrent read path renews it through — `f64::to_bits`
/// of the newest touch, raised with `fetch_max` (a max on the value for
/// non-negative finite doubles), `0` when none came since the last fold.
#[derive(Debug)]
pub(crate) struct Lease {
    session: SessionState,
    stamp: AtomicU64,
}

impl Lease {
    /// A lease granted at `now`.
    pub(crate) fn new(now: f64, config: &LeaseConfig) -> Lease {
        let session =
            SessionState { deadline: now + config.duration, disconnected: false, renewals: 0 };
        Lease::restore(session, None)
    }

    /// A lease as a snapshot holds it: its session and unfolded stamp.
    pub(crate) fn restore(session: SessionState, unfolded: Option<u64>) -> Lease {
        Lease { session, stamp: AtomicU64::new(unfolded.unwrap_or(0)) }
    }

    /// The stored lease state, without any unfolded touch.
    pub(crate) fn session(&self) -> &SessionState {
        &self.session
    }

    /// The raw unfolded stamp, if a touch came since the last fold.
    pub(crate) fn unfolded(&self) -> Option<u64> {
        let bits = self.stamp.load(Ordering::Acquire);
        (bits != 0).then_some(bits)
    }

    /// A write-path renewal: the lease runs for `duration` from `now`.
    pub(crate) fn renew(&mut self, now: f64, config: &LeaseConfig) {
        let s = &mut self.session;
        s.deadline = now + config.duration;
        s.disconnected = false;
        s.renewals += 1;
    }

    /// Folds a pending touch into the session; true when one was pending.
    /// A batch of touches between folds counts as one renewal.
    fn fold(&mut self, config: &LeaseConfig) -> bool {
        let bits = std::mem::take(self.stamp.get_mut());
        if bits == 0 {
            return false;
        }
        let renewed = f64::from_bits(bits) + config.duration;
        let s = &mut self.session;
        if renewed > s.deadline {
            s.deadline = renewed;
        }
        s.disconnected = false;
        s.renewals += 1;
        true
    }

    /// The connection dropped at `now`: folds first, so activity before the
    /// drop extends the lease before the grace caps it, then marks it.
    /// Returns whether a stamp was folded and whether the mark is new; a
    /// lease already marked keeps its deadline.
    pub(crate) fn disconnect(&mut self, now: f64, config: &LeaseConfig) -> (bool, bool) {
        let folded = self.fold(config);
        let s = &mut self.session;
        if s.disconnected {
            return (folded, false);
        }
        s.disconnected = true;
        s.deadline = s.deadline.min(now + config.disconnect_grace);
        (folded, true)
    }

    /// The reaper's verdict at `now`, after a fold: whether a stamp was
    /// folded, and why the lease ran out if `now` reached its deadline.
    pub(crate) fn judge(&mut self, now: f64, config: &LeaseConfig) -> (bool, Option<RetireReason>) {
        let folded = self.fold(config);
        let s = &self.session;
        let reason =
            if s.disconnected { RetireReason::Disconnected } else { RetireReason::LeaseExpired };
        (folded, (s.deadline <= now).then_some(reason))
    }

    /// A read-path renewal under a shared borrow: raises the stamp to `now`
    /// when that is news, calling `log` first. The clock is monotonic and
    /// stamps are only written from it, so a stamp already at `now` means a
    /// touch at `now` was logged before its `fetch_max` became visible (this
    /// `Acquire` load pairs with that `AcqRel` store) or came in with the
    /// snapshot: this one changes nothing and its record is in the log.
    ///
    /// A negative or non-finite clock stamps nothing: a negative value's
    /// sign bit ranks it above every positive one, and NaN's all-ones
    /// exponent would win every later max, freezing the lease.
    pub(crate) fn touch(&self, now: f64, log: impl FnOnce()) {
        if !(now.is_finite() && now >= 0.0) {
            return;
        }
        let bits = now.to_bits();
        if self.stamp.load(Ordering::Acquire) < bits {
            log();
            self.stamp.fetch_max(bits, Ordering::AcqRel);
        }
    }

    /// The deadline the reaper will honor: the stored one extended by any
    /// unfolded touch.
    pub(crate) fn effective_deadline(&self, config: &LeaseConfig) -> f64 {
        match self.unfolded() {
            Some(bits) => self.session.deadline.max(f64::from_bits(bits) + config.duration),
            None => self.session.deadline,
        }
    }
}

impl Controller {
    /// Renews the lease of a registered instance (any request from the
    /// instance counts as activity, as does the dedicated `heartbeat`
    /// verb). Returns `false` when the instance is not registered — the
    /// caller should tell the client to start over.
    pub fn renew_lease(&mut self, id: &InstanceId) -> bool {
        self.execute(WalEvent::Renew { now: self.now, id: id.clone() }).is_ok()
    }

    pub(crate) fn renew(&mut self, id: &InstanceId) -> Result<(), CoreError> {
        let inst = self
            .instances
            .get_mut(id)
            .ok_or_else(|| CoreError::UnknownInstance { name: id.to_string() })?;
        inst.lease.renew(self.now, &self.config.lease);
        count_renewal(&self.metrics, true);
        Ok(())
    }

    /// Marks an instance's connection as dropped: the lease is shortened
    /// to expire within the configured disconnect grace, so a crashed
    /// client is reaped quickly while a reconnecting one can still
    /// [`reattach`](Controller::reattach) in time.
    pub fn mark_disconnected(&mut self, id: &InstanceId) {
        let _ = self.execute(WalEvent::Disconnect { now: self.now, id: id.clone() });
    }

    pub(crate) fn disconnect(&mut self, id: &InstanceId) {
        let Some(inst) = self.instances.get_mut(id) else { return };
        let (folded, marked) = inst.lease.disconnect(self.now, &self.config.lease);
        count_renewal(&self.metrics, folded);
        if marked {
            self.metrics.inc_counter("controller.sessions.disconnects");
        }
    }

    /// Retires every instance whose lease has expired by `now`, exactly as
    /// if each had called `end`: allocations are freed, survivors are
    /// re-evaluated, and a [`RetirementRecord`] notes the reason. Also
    /// advances the controller clock to `now`.
    ///
    /// # Errors
    ///
    /// Propagates re-evaluation errors from the retirement path.
    pub fn reap_expired(&mut self, now: f64) -> Result<Vec<DecisionRecord>, CoreError> {
        self.execute(WalEvent::Reap { now }).map(EventOutcome::into_decisions)
    }

    /// The sweep's one body; the caller has already moved the clock to
    /// `now`.
    pub(crate) fn reap(&mut self, now: f64) -> Result<Vec<DecisionRecord>, CoreError> {
        let mut expired = Vec::new();
        for inst in self.instances.in_id_order_mut() {
            let (folded, verdict) = inst.lease.judge(now, &self.config.lease);
            count_renewal(&self.metrics, folded);
            if let Some(reason) = verdict {
                expired.push((inst.app.id.clone(), reason));
            }
        }
        let mut records = Vec::new();
        for (id, reason) in expired {
            self.metrics.inc_counter("controller.sessions.expired");
            records.extend(self.retire(&id, reason)?);
        }
        Ok(records)
    }

    /// The lease state of one registered instance.
    pub fn session(&self, id: &InstanceId) -> Option<&SessionState> {
        self.instances.get(id).map(|inst| inst.lease.session())
    }

    /// Lease state of every registered instance, in id order.
    pub fn sessions(&self) -> impl Iterator<Item = (&InstanceId, &SessionState)> {
        self.instances.in_id_order().map(|inst| (&inst.app.id, inst.lease.session()))
    }

    /// The newest retirements (explicit `end` and reaped) this controller
    /// made, oldest first (a bounded window).
    pub fn retirements(&self) -> &[RetirementRecord] {
        &self.retirements
    }

    /// The retained retirements after the first `total`, a reading of the
    /// `controller.ends` counter (as [`Controller::decisions_since`]).
    pub fn retirements_since(&self, total: u64) -> &[RetirementRecord] {
        retained_since(&self.retirements, self.metrics.counter("controller.ends"), total)
    }

    /// Renews an instance's lease from the concurrent read path, under a
    /// shared borrow: stamps the controller time on the lease, logging the
    /// touch first iff that raises the stamp. The next write-path pass
    /// ([`Controller::reap_expired`] or [`Controller::mark_disconnected`])
    /// folds the stamp into the stored deadline; until then
    /// [`Controller::effective_deadline`] reports the extended lease.
    ///
    /// Returns `false` when the instance is not registered. A touch the
    /// clock cannot stamp is dropped, not the session.
    pub fn touch<'a>(&self, id: impl Into<InstanceRef<'a>>) -> bool {
        let id = id.into();
        let Some(inst) = self.instances.get(id) else { return false };
        inst.lease.touch(self.now, || {
            self.wal_log_with(|| WalEvent::Touch { now: self.now, id: id.to_owned() });
        });
        true
    }

    /// [`Controller::touch`] keyed by a metric report's
    /// `<app>.<id>.<metric>` naming convention; non-conforming or unknown
    /// names are ignored.
    pub fn touch_for_metric(&self, name: &str) {
        if let Some(id) = metric_instance(name) {
            self.touch(id);
        }
    }

    /// The lease deadline of `id` as the reaper will see it: the stored
    /// [`SessionState::deadline`] extended by any not-yet-folded read-path
    /// touch.
    pub fn effective_deadline(&self, id: &InstanceId) -> Option<f64> {
        self.instances.get(id).map(|inst| inst.lease.effective_deadline(&self.config.lease))
    }
}

/// The one place `controller.sessions.renewals` grows (and so appears).
fn count_renewal(metrics: &MetricRegistry, renewed: bool) {
    if renewed {
        metrics.inc_counter("controller.sessions.renewals");
    }
}

/// The instance a metric report belongs to, per the `<app>.<id>.<metric>`
/// naming convention; `None` for non-conforming names.
fn metric_instance(name: &str) -> Option<InstanceRef<'_>> {
    let mut parts = name.splitn(3, '.');
    let (app, id, _rest) = (parts.next()?, parts.next()?, parts.next()?);
    id.parse::<u64>().ok().map(|id| InstanceRef { app, id })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = LeaseConfig::default();
        assert!(cfg.duration > cfg.disconnect_grace);
    }

    #[test]
    fn reason_display() {
        assert_eq!(RetireReason::Ended.to_string(), "end");
        assert_eq!(RetireReason::LeaseExpired.to_string(), "lease-expired");
        assert_eq!(RetireReason::Disconnected.to_string(), "disconnected");
    }

    #[test]
    fn retirement_record_round_trips_json() {
        let r = RetirementRecord {
            time: 31.0,
            instance: InstanceId::new("bag", 2),
            reason: RetireReason::LeaseExpired,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: RetirementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    /// One lease (duration 30, grace 5, granted at 0) through a sequence of
    /// verbs. Each row: the verb, what it returned, then the stored
    /// deadline, the effective deadline, the disconnect mark, the renewal
    /// count and the unfolded stamp it leaves.
    #[test]
    fn a_lease_through_renewals_touches_folds_disconnects_and_verdicts() {
        #[derive(Debug, Clone, Copy)]
        enum Verb {
            Renew(f64),
            Touch(f64),
            Fold,
            Disconnect(f64),
            Judge(f64),
        }
        #[derive(Debug, PartialEq)]
        enum Got {
            Nothing,
            Logged(bool),
            Folded(bool),
            Disconnect(bool, bool),
            Judge(bool, Option<RetireReason>),
        }
        use RetireReason::{Disconnected, LeaseExpired};
        use Verb::*;
        let config = LeaseConfig { duration: 30.0, disconnect_grace: 5.0 };
        let rows = [
            (Touch(10.0), Got::Logged(true), 30.0, 40.0, false, 0, Some(10.0)),
            (Touch(10.0), Got::Logged(false), 30.0, 40.0, false, 0, Some(10.0)),
            (Touch(5.0), Got::Logged(false), 30.0, 40.0, false, 0, Some(10.0)),
            (Touch(f64::NAN), Got::Logged(false), 30.0, 40.0, false, 0, Some(10.0)),
            (Touch(f64::INFINITY), Got::Logged(false), 30.0, 40.0, false, 0, Some(10.0)),
            (Touch(-1.0e300), Got::Logged(false), 30.0, 40.0, false, 0, Some(10.0)),
            (Fold, Got::Folded(true), 40.0, 40.0, false, 1, None),
            (Fold, Got::Folded(false), 40.0, 40.0, false, 1, None),
            (Judge(39.0), Got::Judge(false, None), 40.0, 40.0, false, 1, None),
            (Touch(20.0), Got::Logged(true), 40.0, 50.0, false, 1, Some(20.0)),
            // Folded to 50 first, then capped at 21 + 5.
            (Disconnect(21.0), Got::Disconnect(true, true), 26.0, 26.0, true, 2, None),
            (Disconnect(22.0), Got::Disconnect(false, false), 26.0, 26.0, true, 2, None),
            (Renew(23.0), Got::Nothing, 53.0, 53.0, false, 3, None),
            (Disconnect(24.0), Got::Disconnect(false, true), 29.0, 29.0, true, 3, None),
            (Judge(28.0), Got::Judge(false, None), 29.0, 29.0, true, 3, None),
            (Judge(29.0), Got::Judge(false, Some(Disconnected)), 29.0, 29.0, true, 3, None),
            // A touch after the mark is folded by the next disconnect, which
            // then marks again and caps from its own clock.
            (Touch(28.0), Got::Logged(true), 29.0, 58.0, true, 3, Some(28.0)),
            (Disconnect(29.0), Got::Disconnect(true, true), 34.0, 34.0, true, 4, None),
            (Renew(30.0), Got::Nothing, 60.0, 60.0, false, 5, None),
            (Touch(31.0), Got::Logged(true), 60.0, 61.0, false, 5, Some(31.0)),
            // The touch is folded before the verdict: past the stored
            // deadline, inside the effective one.
            (Judge(60.5), Got::Judge(true, None), 61.0, 61.0, false, 6, None),
            (Judge(61.0), Got::Judge(false, Some(LeaseExpired)), 61.0, 61.0, false, 6, None),
        ];
        let mut lease = Lease::new(0.0, &config);
        let fresh = SessionState { deadline: 30.0, disconnected: false, renewals: 0 };
        assert_eq!((lease.session(), lease.unfolded()), (&fresh, None));
        for (i, (verb, want, deadline, effective, disconnected, renewals, stamp)) in
            rows.into_iter().enumerate()
        {
            let got = match verb {
                Renew(now) => {
                    lease.renew(now, &config);
                    Got::Nothing
                }
                Touch(now) => {
                    let mut logged = false;
                    lease.touch(now, || logged = true);
                    Got::Logged(logged)
                }
                Fold => Got::Folded(lease.fold(&config)),
                Disconnect(now) => {
                    let (folded, marked) = lease.disconnect(now, &config);
                    Got::Disconnect(folded, marked)
                }
                Judge(now) => {
                    let (folded, verdict) = lease.judge(now, &config);
                    Got::Judge(folded, verdict)
                }
            };
            let row = format!("row {i}: {verb:?}");
            assert_eq!(got, want, "{row}");
            let s = lease.session();
            let state = (s.deadline, s.disconnected, s.renewals);
            assert_eq!(state, (deadline, disconnected, renewals), "{row}");
            assert_eq!(lease.effective_deadline(&config), effective, "{row}");
            assert_eq!(lease.unfolded().map(f64::from_bits), stamp, "{row}");
            // What a snapshot keeps restores the same lease.
            let restored = Lease::restore(s.clone(), lease.unfolded());
            assert_eq!(restored.session(), s, "{row}");
            assert_eq!(restored.effective_deadline(&config), effective, "{row}");
        }
    }
}
