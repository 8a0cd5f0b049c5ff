//! Spawning, observing and killing the release `harmonyd` under test.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print `listening on` before the run is
/// abandoned (recovery of the prepared state dir takes well under 2 s).
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);

/// A scratch directory removed on drop — on every exit path that unwinds,
/// including a panic.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<base>/<tag>-<pid>`, emptying any leftover of the same
    /// name, and sweeps the directories of earlier runs whose process is
    /// gone (a run that was killed outright cannot clean up after itself).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn create(base: &Path, tag: &str) -> io::Result<Self> {
        let dir = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let prefix = format!("{tag}-");
        for entry in std::fs::read_dir(base)?.flatten() {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix(&prefix)?.parse::<u32>().ok());
            if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the daemon printed about recovering its state directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryLine {
    /// `N WAL record(s) replayed`
    pub replayed: u64,
    /// `torn tail discarded` was printed.
    pub torn_tail: bool,
}

/// Parses `harmonyd: recovered from … (snapshot gen G, N WAL record(s)
/// replayed[, torn tail discarded]); …`.
pub fn parse_recovery_line(line: &str) -> Option<RecoveryLine> {
    let rest = line.strip_prefix("harmonyd: recovered from ")?;
    let end = rest.find(" WAL record(s) replayed")?;
    let start = rest[..end].rfind(' ')? + 1;
    Some(RecoveryLine {
        replayed: rest[start..end].parse().ok()?,
        torn_tail: rest.contains("torn tail discarded"),
    })
}

/// A running `harmonyd`. Dropping it kills the process and waits for it,
/// so no exit path of the benchmark leaves a daemon behind; should the
/// benchmark itself be killed, the daemon's stdin reaches end-of-file and
/// `--stdin-shutdown` makes it exit on its own.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    _stdin: Option<ChildStdin>,
    drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
    /// The recovery report, when the daemon printed one before listening.
    pub recovery: Option<RecoveryLine>,
    /// When the process was spawned.
    pub spawned_at: Instant,
}

enum Startup {
    Recovered(RecoveryLine),
    Listening(SocketAddr),
}

impl Daemon {
    /// Spawns `harmonyd <cluster_file> [--state-dir <dir>] 127.0.0.1:0`
    /// and waits until it listens.
    ///
    /// # Errors
    ///
    /// Spawn failures, a daemon that exits or stays silent instead of
    /// listening.
    pub fn spawn(
        harmonyd: &Path,
        cluster_file: &Path,
        state_dir: Option<&Path>,
    ) -> io::Result<Daemon> {
        let mut cmd = Command::new(harmonyd);
        cmd.arg(cluster_file);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        cmd.arg("--stdin-shutdown").arg("127.0.0.1:0");
        Daemon::start(cmd)
    }

    /// Spawns the null daemon ([`serve_null`]): this executable again,
    /// with `--null-daemon`.
    ///
    /// # Errors
    ///
    /// As [`Daemon::spawn`].
    pub fn spawn_null() -> io::Result<Daemon> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--null-daemon");
        Daemon::start(cmd)
    }

    fn start(mut cmd: Command) -> io::Result<Daemon> {
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        let spawned_at = Instant::now();
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The daemon streams decisions to stdout under the controller's
        // write lock; an undrained pipe would stall it once 64 KiB fill.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(r) = parse_recovery_line(&line) {
                    let _ = tx.send(Startup::Recovered(r));
                } else if let Some(addr) = line.strip_prefix("harmonyd: listening on ") {
                    if let Ok(addr) = addr.trim().parse() {
                        let _ = tx.send(Startup::Listening(addr));
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child,
            _stdin: stdin,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            recovery: None,
            spawned_at,
        };
        daemon.await_listening(&rx)?;
        Ok(daemon)
    }

    fn await_listening(&mut self, rx: &Receiver<Startup>) -> io::Result<()> {
        loop {
            match rx.recv_timeout(LISTEN_TIMEOUT) {
                Ok(Startup::Recovered(r)) => self.recovery = Some(r),
                Ok(Startup::Listening(addr)) => {
                    self.addr = addr;
                    return Ok(());
                }
                Err(_) => {
                    return Err(io::Error::other(
                        "harmonyd exited or never reported `listening on`",
                    ))
                }
            }
        }
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU nanoseconds the daemon's live threads have run so far: the sum
    /// of the first field of every `/proc/<pid>/task/<tid>/schedstat`,
    /// which the scheduler keeps to the nanosecond. Where the kernel does
    /// not provide it, `utime + stime` of `/proc/<pid>/stat` in 10 ms
    /// ticks.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let probe = self.cpu_probe()?;
        if !probe.files.is_empty() {
            return Ok(probe.read_ns());
        }
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        let (utime, stime) = parse_stat_cpu_ticks(&stat)
            .ok_or_else(|| io::Error::other("unparseable /proc/<pid>/stat"))?;
        Ok((utime + stime) * NS_PER_CLOCK_TICK)
    }

    /// A cheap reader of the same figure for the threads the daemon has
    /// now: a window's serving threads exist before it starts, and reading
    /// files that are already open costs microseconds, little enough to do
    /// at every block boundary.
    ///
    /// # Errors
    ///
    /// `/proc` read failures.
    pub fn cpu_probe(&self) -> io::Result<CpuProbe> {
        let mut files = Vec::new();
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            if let Ok(file) = std::fs::File::open(task?.path().join("schedstat")) {
                files.push(file);
            }
        }
        Ok(CpuProbe { files })
    }

    /// Peak resident set (`VmHWM`) of the daemon, in MB.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        parse_status_kb(&status, "VmHWM")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// `kill -9`, then wait for the process and its output drain to end.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The null daemon: a server of `harmonyd`'s shape with none of its
/// program. One thread per connection reads a frame the way
/// `serve_connection` does (the 4-byte length, then the payload) and
/// answers `ok` in one write; it neither parses the request nor looks at
/// it. What a request costs against it is the kernel's loopback and
/// wake-up path plus the client's own codec — the part of a round trip
/// that no change to the program can move — so the same request's cost
/// against `harmonyd` minus this is the program's share. Announces itself
/// like `harmonyd` and, like `harmonyd --stdin-shutdown`, exits when its
/// standard input closes.
///
/// # Errors
///
/// Failure to bind the loopback listener.
pub fn serve_null() -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    println!("harmonyd: listening on {}", listener.local_addr()?);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || answer_ok(stream));
        }
    });
    let mut sink = Vec::new();
    let _ = io::stdin().read_to_end(&mut sink);
    Ok(())
}

fn answer_ok(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut payload = vec![0u8; 64 << 10];
    let mut header = [0u8; 4];
    while stream.read_exact(&mut header).is_ok() {
        let len = u32::from_be_bytes(header) as usize;
        if len > payload.len()
            || stream.read_exact(&mut payload[..len]).is_err()
            || stream.write_all(&[0, 0, 0, 2, b'o', b'k']).is_err()
        {
            break;
        }
    }
}

/// See [`Daemon::cpu_probe`].
#[derive(Debug)]
pub struct CpuProbe {
    files: Vec<std::fs::File>,
}

impl CpuProbe {
    /// CPU nanoseconds the probed threads have run so far; a thread that
    /// has exited since counts as 0.
    pub fn read_ns(&self) -> u64 {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; 64];
        self.files
            .iter()
            .filter_map(|f| {
                let n = f.read_at(&mut buf, 0).ok()?;
                std::str::from_utf8(&buf[..n])
                    .ok()?
                    .split_ascii_whitespace()
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .sum()
    }
}

/// `sysconf(_SC_CLK_TCK)` is fixed at 100 on every Linux ABI `/proc`
/// reports to user space.
const NS_PER_CLOCK_TICK: u64 = 10_000_000;

/// `(utime, stime)` in clock ticks from one `/proc/<pid>/stat` line. The
/// process name (field 2) is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_ascii_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// A `<key>:   <n> kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_a_parenthesis_in_the_process_name() {
        let stat = "4242 (harmonyd :) (x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    731 269 0 0 20 0 4 0 123456 1000000 900 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((731, 269)));
        let plain = "7 (harmonyd) R 1 7 7 0 -1 0 0 0 0 0 12 34 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(plain), Some((12, 34)));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_parsing_finds_the_high_water_mark() {
        let status = "Name:\tharmonyd\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn recovery_line_is_parsed() {
        let line =
            "harmonyd: recovered from /x/y (snapshot gen 1, 600016 WAL record(s) replayed); \
                    8 session(s) live at t=5.0s, writing generation 2";
        assert_eq!(
            parse_recovery_line(line),
            Some(RecoveryLine { replayed: 600_016, torn_tail: false })
        );
        let torn = "harmonyd: recovered from d (snapshot gen 3, 7 WAL record(s) replayed, torn \
                    tail discarded); 1 session(s) live at t=0.1s, writing generation 4";
        assert_eq!(parse_recovery_line(torn), Some(RecoveryLine { replayed: 7, torn_tail: true }));
        assert_eq!(parse_recovery_line("harmonyd: fresh state dir x, writing generation 1"), None);
    }

    /// The null daemon answers `ok` to anything, one reply per frame, and
    /// `NullConn` turns that into the reply the closed loop checks for.
    #[test]
    fn the_null_daemon_answers_every_frame_and_polls_get_their_update() {
        use crate::gen::{Instance, Verb};
        use crate::wire::{reply_is_correct, Caller, Conn, NullConn};
        use harmony_proto::{Request, Response};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || answer_ok(listener.accept().unwrap().0));
        let mut null = NullConn(Conn::connect(addr).unwrap());
        let inst = Instance { app: "bag".into(), id: 7 };
        let poll = Request::Poll { app: inst.app.clone(), id: inst.id };
        let beat = Request::Heartbeat { app: inst.app.clone(), id: inst.id };
        for _ in 0..3 {
            assert_eq!(null.call(&beat).unwrap(), Response::Ok);
            assert!(reply_is_correct(Verb::Poll, &inst, &null.call(&poll).unwrap()));
        }
        // On the wire a poll was answered `ok` like everything else.
        assert_eq!(null.0.call(&poll).unwrap(), Response::Ok);
        drop(null);
        server.join().unwrap();
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_orphans_are_swept() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        // No process has this id: the kernel's pid_max is at most 2^22.
        let orphan = base.join("scratch-test-4294967295");
        std::fs::create_dir_all(&orphan).unwrap();
        let path = {
            let d = ScratchDir::create(&base, "scratch-test").unwrap();
            std::fs::write(d.path().join("f"), b"x").unwrap();
            d.path().to_path_buf()
        };
        assert!(!path.exists());
        assert!(!orphan.exists());
    }
}
