//! Pinning the benchmark — and, by inheritance, the daemon it spawns — to
//! one CPU.
//!
//! A request crosses between the client and the daemon's connection thread
//! twice. Left to the scheduler on a two-core virtual machine, those
//! threads are sometimes co-located (10 µs round trips) and sometimes not
//! (an inter-processor interrupt and an idle exit each way, 50 µs), and
//! the mix shifts every few hundred milliseconds: throughput of one build
//! read 104 k to 151 k requests/s from run to run. On one CPU the path is
//! the same every time.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread to the highest-numbered CPU it is allowed
/// on; threads and processes it starts afterwards inherit the restriction.
/// Returns that CPU, or `None` when `/proc` or the call is unavailable (the
/// run then proceeds unpinned, and says so).
pub fn pin_to_last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(list)?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `sched_setaffinity` only reads `cpusetsize` bytes from
    // `mask`, which is a live array of exactly that size; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// The highest CPU of a list such as `0-3,8,10-11`.
fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_a_list() {
        assert_eq!(last_cpu("\t0-1\n"), Some(1));
        assert_eq!(last_cpu("0-3,8,10-11"), Some(11));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu(""), None);
    }
}
