//! The open-loop generator: requests fall due on a fixed schedule whether
//! or not the daemon keeps up.
//!
//! The wire protocol allows one outstanding request per connection, so a
//! request whose predecessor is still unanswered is sent the moment the
//! reply arrives — but its latency is counted from when it was *due*, which
//! charges the stall to every request it delayed (no coordinated
//! omission).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use harmony_proto::{Request, Response};

use crate::wire::Caller;

/// Sends request `i` at `start + i / rate` until `stop` is set. `record`
/// receives each reply with its due time and its latency measured from it.
/// Returns, per request, how late the generator itself ran in nanoseconds:
/// send time minus the later of the due time and the previous reply — the
/// part of the delay that is the pacer's, not the daemon's.
pub fn run_open_loop(
    conn: &mut impl Caller,
    rate: f64,
    stop: &AtomicBool,
    mut issue: impl FnMut(u64) -> Request,
    mut record: impl FnMut(u64, io::Result<Response>, Instant, Duration),
) -> Vec<u64> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut free_at = start;
    let mut late = Vec::new();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(ahead);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let req = issue(i);
        let sent = Instant::now();
        late.push(sent.saturating_duration_since(due.max(free_at)).as_nanos() as u64);
        let resp = conn.call(&req);
        free_at = Instant::now();
        record(i, resp, due, free_at.saturating_duration_since(due));
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile_sorted;
    use std::sync::Arc;

    /// Answers at once, except that call number `stall_at` takes 50 ms.
    struct Stalling {
        calls: u64,
        stall_at: u64,
        stop_after: u64,
        stop: Arc<AtomicBool>,
    }

    impl Caller for Stalling {
        fn call(&mut self, _req: &Request) -> io::Result<Response> {
            if self.calls == self.stall_at {
                std::thread::sleep(Duration::from_millis(50));
            }
            self.calls += 1;
            if self.calls == self.stop_after {
                self.stop.store(true, Ordering::Release);
            }
            Ok(Response::Ok)
        }
    }

    #[test]
    fn a_stall_is_charged_from_due_time_and_the_pacer_stays_punctual() {
        let stop = Arc::new(AtomicBool::new(false));
        let mut fake = Stalling { calls: 0, stall_at: 100, stop_after: 400, stop: stop.clone() };
        let mut waits_ms = Vec::new();
        let late = run_open_loop(
            &mut fake,
            1000.0,
            &stop,
            |_| Request::Status,
            |_, resp, _, wait| {
                assert_eq!(resp.unwrap(), Response::Ok);
                waits_ms.push(wait.as_secs_f64() * 1e3);
            },
        );
        assert_eq!(waits_ms.len(), 400);
        assert_eq!(late.len(), 400);
        // Request 100 waits out the stall; the ~49 requests that fell due
        // behind it are sent late but timed from their due times, so their
        // waits step down from ~49 ms to ~0 instead of reading as instant.
        assert!(waits_ms[100] >= 50.0, "{}", waits_ms[100]);
        assert!(waits_ms[110] >= 30.0 && waits_ms[110] <= 50.0, "{}", waits_ms[110]);
        assert!(waits_ms[140] >= 5.0 && waits_ms[140] < waits_ms[110], "{}", waits_ms[140]);
        let delayed = waits_ms.iter().filter(|&&w| w >= 5.0).count();
        assert!((40..=60).contains(&delayed), "{delayed} requests charged for the stall");
        // The generator was never the cause: its own lateness is sleep
        // overshoot only.
        let mut late_sorted = late.clone();
        late_sorted.sort_unstable();
        let p50_us = quantile_sorted(&late_sorted, 0.5) as f64 / 1e3;
        assert!(p50_us < 1000.0, "core.pacer_late_p50_us {p50_us}");
    }
}
