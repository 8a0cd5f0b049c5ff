//! `harmonyctl` — inspect a running `harmonyd`.
//!
//! ```text
//! harmonyctl [addr] status              # system snapshot (default command)
//! harmonyctl [addr] end <app.id>
//! harmonyctl [addr] lint <file.rsl> [--json]
//! harmonyctl [addr] facts <file.rsl> [--json]
//! harmonyctl [addr] trace [seq | --follow]   # tail the event journal
//! harmonyctl [addr] top [--once]             # live system table
//! harmonyctl [addr] export                   # metrics exposition dump
//! ```
//!
//! `lint` analyzes an RSL script with `harmony-analyze`. It asks the daemon
//! when one is reachable (so the verdict matches what the daemon would
//! accept) and falls back to analyzing locally when none is running. Exit
//! status: 0 clean, 1 error diagnostics present, 2 usage/IO errors.
//!
//! `facts` reports what the abstract interpreter can prove about the
//! script's bundles — interval bounds, monotonicity, dominated
//! assignments, and the interference partition — with the same
//! daemon-or-local fallback. Exit status: 0 on success, 1 on analysis
//! errors, 2 on usage/IO errors.
//!
//! `trace` tails the daemon's bounded event journal: every event,
//! retirement, scheduler fire, and decision in arrival order. With a
//! sequence number it starts there; with `--follow` it keeps polling the
//! cursor like `tail -f`. `top` redraws a compact system table (objective,
//! per-instance predictions, per-phase latency histograms) once a second;
//! `--once` prints a single frame. `export` dumps the full metrics
//! exposition (one `counter|gauge|histogram` line per metric).

use std::net::SocketAddr;

use harmony_core::{JournalEntry, JournalTail, SystemSnapshot};
use harmony_proto::{Request, Response, TcpTransport, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: harmonyctl [addr] [status | end <app.id> | lint <file.rsl> [--json] | \
         facts <file.rsl> [--json] | trace [seq | --follow] | top [--once] | export]"
    );
    std::process::exit(2);
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    addr: SocketAddr,
    cmd: Command,
}

/// One subcommand with its arguments resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Status,
    End { app: String, id: u64 },
    Lint { file: String, json: bool },
    Facts { file: String, json: bool },
    Trace { from: u64, follow: bool },
    Top { once: bool },
    Export,
}

const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// Parses an argument vector (without the program name). Pure, so the
/// whole grammar is unit-testable; `main` maps `Err` to the usage
/// message and exit status 2.
fn parse(mut args: Vec<String>) -> Result<Cli, String> {
    let addr_text = if args.first().map(|a| a.contains(':')).unwrap_or(false) {
        args.remove(0)
    } else {
        DEFAULT_ADDR.to_string()
    };
    let addr: SocketAddr = addr_text.parse().map_err(|_| format!("bad address `{addr_text}`"))?;

    let cmd = match args.first().map(String::as_str).unwrap_or("status") {
        "status" => Command::Status,
        "export" => Command::Export,
        "top" => match args.get(1).map(String::as_str) {
            None => Command::Top { once: false },
            Some("--once") => Command::Top { once: true },
            Some(other) => return Err(format!("top: unexpected argument `{other}`")),
        },
        "trace" => match args.get(1).map(String::as_str) {
            None => Command::Trace { from: 0, follow: false },
            Some("--follow") => Command::Trace { from: 0, follow: true },
            Some(seq) => {
                let from =
                    seq.parse().map_err(|_| format!("trace: `{seq}` is not a sequence number"))?;
                Command::Trace { from, follow: false }
            }
        },
        "end" => {
            let instance = args.get(1).ok_or("end: missing <app.id>")?;
            let (app, id) = instance
                .rsplit_once('.')
                .ok_or_else(|| format!("end: `{instance}` is not <app.id>"))?;
            let id = id.parse().map_err(|_| format!("end: `{id}` is not an instance id"))?;
            Command::End { app: app.to_string(), id }
        }
        cmd @ ("lint" | "facts") => {
            // `--json` may come before or after the file name.
            let file = args[1..]
                .iter()
                .find(|a| *a != "--json")
                .cloned()
                .ok_or_else(|| format!("{cmd}: missing <file.rsl>"))?;
            let json = args[1..].iter().any(|a| a == "--json");
            if cmd == "lint" {
                Command::Lint { file, json }
            } else {
                Command::Facts { file, json }
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Cli { addr, cmd })
}

/// Runs the `lint` subcommand; returns the process exit code.
fn lint(transport: Option<&mut TcpTransport>, file: &str, json_out: bool) -> i32 {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harmonyctl: cannot read {file}: {e}");
            return 2;
        }
    };

    // Prefer the daemon's verdict when one is reachable; otherwise analyze
    // locally (the same crate runs on both sides).
    let diags = match transport.and_then(|t| t.call(&Request::Lint { script: src.clone() }).ok()) {
        Some(Response::Lint { json }) => {
            harmony_analyze::json::parse_diagnostics(&json).unwrap_or_default()
        }
        Some(Response::Error { message }) => {
            eprintln!("harmonyctl: {message}");
            return 1;
        }
        Some(other) => {
            eprintln!("harmonyctl: unexpected response: {other:?}");
            return 1;
        }
        None => match harmony_analyze::analyze_script(&src) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("harmonyctl: {file}: {e}");
                return 1;
            }
        },
    };

    if json_out {
        println!("{}", harmony_analyze::to_json(&diags, &src));
    } else if diags.is_empty() {
        println!("{file}: no findings");
    } else {
        print!("{}", harmony_analyze::render(&diags, &src, file));
    }
    i32::from(harmony_analyze::has_errors(&diags))
}

/// Runs the `facts` subcommand; returns the process exit code.
fn facts(transport: Option<&mut TcpTransport>, file: &str, json_out: bool) -> i32 {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harmonyctl: cannot read {file}: {e}");
            return 2;
        }
    };

    let facts = match transport.and_then(|t| t.call(&Request::Facts { script: src.clone() }).ok()) {
        Some(Response::Facts { json }) => match harmony_analyze::facts::facts_from_json(&json) {
            Some(f) => f,
            None => {
                eprintln!("harmonyctl: daemon sent unparseable facts payload");
                return 1;
            }
        },
        Some(Response::Error { message }) => {
            eprintln!("harmonyctl: {message}");
            return 1;
        }
        Some(other) => {
            eprintln!("harmonyctl: unexpected response: {other:?}");
            return 1;
        }
        None => match harmony_analyze::facts::script_facts(&src) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("harmonyctl: {file}: {e}");
                return 1;
            }
        },
    };

    if json_out {
        println!("{}", harmony_analyze::facts::facts_to_json(&facts));
    } else {
        print!("{}", harmony_analyze::facts::render_facts(&facts));
    }
    0
}

/// Fetches one journal page; exits the process on protocol errors.
fn journal_page(transport: &mut TcpTransport, cursor: u64, max: u64) -> JournalTail {
    let resp = transport.call(&Request::Journal { cursor, max }).expect("journal call");
    let Response::Journal { json } = resp else {
        eprintln!("harmonyctl: unexpected response: {resp:?}");
        std::process::exit(1);
    };
    JournalTail::from_json(&json).expect("journal json")
}

fn print_entry(e: &JournalEntry) {
    println!("{:>8}  t={:<10.3} {:<14} {}", e.seq, e.time, e.kind.to_string(), e.detail);
}

/// One `trace` paging step: the gap marker to print when the journal no
/// longer holds entries the reader had not read — eviction outran it, or
/// they were the daemon's before a restart, which it does not keep — with
/// the seq the page resynced to, and the cursor to continue from. Pure, so follow-mode resync is unit-testable without a
/// daemon.
///
/// The journal reports `truncated` only on the first page after a gap
/// opens (the returned cursor is past the eviction horizon), so the
/// marker prints exactly once per gap — including gaps that open
/// mid-follow when the daemon evicts faster than the reader polls.
fn follow_step(tail: &JournalTail, cursor: u64) -> (Option<String>, u64) {
    let gap = if tail.truncated {
        // Resync to the first retained entry; an empty truncated page
        // (nothing between the cursor and the head retained) resyncs to
        // the journal head without panicking.
        let resync = tail.entries.first().map_or(tail.next_cursor, |e| e.seq);
        Some(format!(
            "harmonyctl: journal no longer holds entries {cursor}..{resync} \
             (evicted, or from before a restart); resuming at {resync}"
        ))
    } else {
        None
    };
    (gap, tail.next_cursor)
}

/// Runs the `trace` subcommand: dump the retained journal from `seq`
/// (default: everything retained), or follow the cursor forever.
fn trace(transport: &mut TcpTransport, from: u64, follow: bool) {
    let mut cursor = from;
    loop {
        let tail = journal_page(transport, cursor, 512);
        let (gap, next) = follow_step(&tail, cursor);
        if let Some(gap) = gap {
            eprintln!("{gap}");
        }
        for e in &tail.entries {
            print_entry(e);
        }
        cursor = next;
        if !follow && tail.entries.is_empty() {
            return;
        }
        if follow && tail.entries.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    }
}

/// Renders one `top` frame from a snapshot.
fn render_top(snap: &SystemSnapshot) {
    println!(
        "t={:.0}s  objective({}) = {:.1}  decisions = {}  journal seq = {}  memory {:.0}% used",
        snap.time,
        snap.objective_name,
        snap.objective,
        snap.decisions,
        snap.journal_seq,
        snap.memory_utilization() * 100.0
    );
    println!("{:<16} {:<10} {:>12} {:>10}", "INSTANCE", "BUNDLE", "PREDICTED", "RECONFIGS");
    for app in &snap.apps {
        for (bundle, label, predicted, reconfigs) in &app.bundles {
            println!(
                "{:<16} {:<10} {:>11.1}s {:>10}  {}",
                app.instance, bundle, predicted, reconfigs, label
            );
        }
    }
    if !snap.histograms.is_empty() {
        println!("{:<34} {:>8} {:>10} {:>10} {:>10}", "HISTOGRAM", "COUNT", "MEAN", "P50", "P95");
        for h in &snap.histograms {
            println!(
                "{:<34} {:>8} {:>10.4} {:>10.4} {:>10.4}",
                h.name, h.count, h.mean, h.p50, h.p95
            );
        }
    }
}

/// Runs the `top` subcommand: redraw the table every second, or print a
/// single frame with `--once`.
fn top(transport: &mut TcpTransport, once: bool) {
    loop {
        let resp = transport.call(&Request::Status).expect("status call");
        let Response::Status { json } = resp else {
            eprintln!("harmonyctl: unexpected response: {resp:?}");
            std::process::exit(1);
        };
        let snap = SystemSnapshot::from_json(&json).expect("snapshot json");
        if !once {
            // Clear the screen and home the cursor between frames.
            print!("\x1b[2J\x1b[H");
        }
        render_top(&snap);
        if once {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { addr, cmd } = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("harmonyctl: {e}");
            usage();
        }
    };

    // `lint` and `facts` work without a daemon: connect best-effort.
    if let Command::Lint { file, json } | Command::Facts { file, json } = &cmd {
        let mut transport = TcpTransport::connect(addr).ok();
        let code = match cmd {
            Command::Lint { .. } => lint(transport.as_mut(), file, *json),
            _ => facts(transport.as_mut(), file, *json),
        };
        std::process::exit(code);
    }

    let mut transport = match TcpTransport::connect(addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("harmonyctl: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    match cmd {
        Command::Lint { .. } | Command::Facts { .. } => unreachable!("handled above"),
        Command::Status => {
            let resp = transport.call(&Request::Status).expect("status call");
            let Response::Status { json } = resp else {
                eprintln!("harmonyctl: unexpected response: {resp:?}");
                std::process::exit(1);
            };
            let snap = SystemSnapshot::from_json(&json).expect("snapshot json");
            println!(
                "t={:.0}s  objective({}) = {:.1}  decisions = {}  memory {:.0}% used",
                snap.time,
                snap.objective_name,
                snap.objective,
                snap.decisions,
                snap.memory_utilization() * 100.0
            );
            println!("applications:");
            for app in &snap.apps {
                for (bundle, label, predicted, reconfigs) in &app.bundles {
                    println!(
                        "  {} {}: {} (predicted {:.1}s, {} reconfigs)",
                        app.instance, bundle, label, predicted, reconfigs
                    );
                }
            }
            println!("nodes:");
            for n in &snap.nodes {
                println!(
                    "  {}: speed {:.1}, {:.0}/{:.0} MB free, {} task(s){}",
                    n.name,
                    n.speed,
                    n.free_memory,
                    n.total_memory,
                    n.tasks,
                    if n.exclusive > 0 { " [dedicated]" } else { "" }
                );
            }
        }
        Command::Trace { from, follow } => {
            trace(&mut transport, from, follow);
        }
        Command::Top { once } => {
            top(&mut transport, once);
        }
        Command::Export => {
            let resp = transport.call(&Request::Expo).expect("expo call");
            let Response::Expo { text } = resp else {
                eprintln!("harmonyctl: unexpected response: {resp:?}");
                std::process::exit(1);
            };
            print!("{text}");
        }
        Command::End { app, id } => {
            let resp = transport.call(&Request::End { app: app.clone(), id }).expect("end call");
            match resp {
                Response::Ok => println!("harmonyctl: ended {app}.{id}"),
                Response::Error { message } => {
                    eprintln!("harmonyctl: {message}");
                    std::process::exit(1);
                }
                other => {
                    eprintln!("harmonyctl: unexpected response: {other:?}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    fn cmd(list: &[&str]) -> Command {
        parse(args(list)).expect("parses").cmd
    }

    #[test]
    fn no_arguments_means_status_at_the_default_address() {
        let cli = parse(Vec::new()).unwrap();
        assert_eq!(cli.addr, DEFAULT_ADDR.parse().unwrap());
        assert_eq!(cli.cmd, Command::Status);
    }

    #[test]
    fn leading_address_is_peeled_off_any_command() {
        let cli = parse(args(&["10.1.2.3:9000", "export"])).unwrap();
        assert_eq!(cli.addr, "10.1.2.3:9000".parse().unwrap());
        assert_eq!(cli.cmd, Command::Export);
    }

    #[test]
    fn malformed_address_is_rejected() {
        assert!(parse(args(&["not-an:addr", "status"])).is_err());
    }

    #[test]
    fn trace_defaults_then_seq_then_follow() {
        assert_eq!(cmd(&["trace"]), Command::Trace { from: 0, follow: false });
        assert_eq!(cmd(&["trace", "1234"]), Command::Trace { from: 1234, follow: false });
        assert_eq!(cmd(&["trace", "--follow"]), Command::Trace { from: 0, follow: true });
    }

    #[test]
    fn trace_with_a_non_numeric_cursor_is_an_error() {
        let err = parse(args(&["trace", "twelve"])).unwrap_err();
        assert!(err.contains("sequence number"), "{err}");
    }

    #[test]
    fn top_once_flag() {
        assert_eq!(cmd(&["top"]), Command::Top { once: false });
        assert_eq!(cmd(&["top", "--once"]), Command::Top { once: true });
        assert!(parse(args(&["top", "--typo"])).is_err());
    }

    #[test]
    fn end_parses_the_instance_id_after_the_last_dot() {
        assert_eq!(cmd(&["end", "bag.7"]), Command::End { app: "bag".into(), id: 7 });
        // Dotted application names bind the id to the final segment.
        assert_eq!(cmd(&["end", "a.b.3"]), Command::End { app: "a.b".into(), id: 3 });
    }

    #[test]
    fn end_error_paths() {
        assert!(parse(args(&["end"])).is_err(), "missing instance");
        assert!(parse(args(&["end", "no-dot"])).is_err(), "no separator");
        assert!(parse(args(&["end", "bag.seven"])).is_err(), "non-numeric id");
    }

    #[test]
    fn lint_and_facts_take_json_on_either_side_of_the_file() {
        assert_eq!(cmd(&["lint", "a.rsl"]), Command::Lint { file: "a.rsl".into(), json: false });
        assert_eq!(
            cmd(&["lint", "--json", "a.rsl"]),
            Command::Lint { file: "a.rsl".into(), json: true }
        );
        assert_eq!(
            cmd(&["facts", "a.rsl", "--json"]),
            Command::Facts { file: "a.rsl".into(), json: true }
        );
        assert!(parse(args(&["lint", "--json"])).is_err(), "flag alone is not a file");
        assert!(parse(args(&["facts"])).is_err(), "missing file");
    }

    #[test]
    fn unknown_commands_are_rejected() {
        assert!(parse(args(&["restart"])).is_err());
    }

    #[test]
    fn follow_step_passes_clean_pages_through() {
        let tail = JournalTail {
            entries: vec![JournalEntry {
                seq: 5,
                time: 1.0,
                kind: harmony_core::JournalKind::Event,
                detail: "e5".into(),
            }],
            next_cursor: 6,
            truncated: false,
        };
        assert_eq!(follow_step(&tail, 5), (None, 6));
    }

    #[test]
    fn follow_step_resyncs_and_marks_a_gap_once() {
        // A slow follower against a small journal: capacity 4, ten events
        // pushed, reader parked at 0 — entries 0..6 are gone.
        let mut j = harmony_core::EventJournal::new(4);
        for i in 0..10 {
            j.push(i as f64, harmony_core::JournalKind::Event, format!("e{i}"));
        }
        let tail = j.tail(0, 100);
        assert!(tail.truncated);
        let (gap, cursor) = follow_step(&tail, 0);
        let gap = gap.expect("gap marker");
        assert!(gap.contains("no longer holds entries 0..6 (evicted, or"), "{gap}");
        assert!(gap.contains("resuming at 6"), "{gap}");
        assert_eq!(cursor, 10);
        // The next page continues cleanly: one marker per gap, not one
        // per poll.
        let tail = j.tail(cursor, 100);
        assert_eq!(follow_step(&tail, cursor), (None, 10));
        // A new gap opening mid-follow gets its own marker.
        for i in 10..20 {
            j.push(i as f64, harmony_core::JournalKind::Event, format!("e{i}"));
        }
        let tail = j.tail(cursor, 100);
        let (gap, cursor) = follow_step(&tail, cursor);
        assert!(gap.expect("second gap").contains("no longer holds entries 10..16"));
        assert_eq!(cursor, 20);
    }

    /// After a restart nothing was evicted: the journal resumes empty at
    /// the persisted seq, and the marker's words hold for that gap too.
    #[test]
    fn follow_step_marks_a_restart_gap() {
        let mut j = harmony_core::EventJournal::resume(25);
        j.push(1.0, harmony_core::JournalKind::Event, "e25".into());
        let tail = j.tail(20, 100);
        assert!(tail.truncated);
        let (gap, cursor) = follow_step(&tail, 20);
        let gap = gap.expect("gap marker");
        assert!(gap.contains("entries 20..25 (evicted, or from before a restart)"), "{gap}");
        assert!(gap.contains("resuming at 25"), "{gap}");
        assert_eq!(cursor, 26);
    }

    #[test]
    fn follow_step_survives_an_empty_truncated_page() {
        // Regression: `tail.entries[0]` on an empty page used to panic.
        let tail = JournalTail { entries: Vec::new(), next_cursor: 42, truncated: true };
        let (gap, cursor) = follow_step(&tail, 7);
        assert!(gap.expect("gap marker").contains("resuming at 42"));
        assert_eq!(cursor, 42);
    }
}
