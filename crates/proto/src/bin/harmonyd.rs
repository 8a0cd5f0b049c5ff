//! `harmonyd` — the Harmony process as a standalone daemon (Figure 6).
//!
//! ```text
//! harmonyd <cluster.rsl> [addr]           # default addr 127.0.0.1:7077
//! harmonyd --demo [addr]                  # built-in 8-node SP-2 cluster
//! harmonyd --demo --lease 10 [addr]       # 10-second session leases
//! harmonyd --demo --coalesce 0.1 [addr]   # batch arrival storms per 100ms
//! harmonyd --demo --state-dir /var/lib/harmony [addr]   # crash-consistent
//! ```
//!
//! The cluster file contains `harmonyNode`/`harmonyLink` statements.
//! Applications connect with `harmony-client` (or anything speaking the
//! frame protocol) and export bundles; decisions stream to stdout. Every
//! periodic pass also reaps sessions whose lease expired (clients that
//! crashed without `end`), freeing their allocations. With `--coalesce`
//! the controller defers joint optimization so a burst of arrivals is
//! settled by one pass instead of one per arrival (see PROTOCOL.md).
//!
//! With `--state-dir` every state-changing event is written to a
//! write-ahead log in that directory and the daemon resumes from its last
//! durable state after a crash: clients reattach to the same session ids,
//! applied configurations, lease deadlines, and journal cursors (see
//! docs/PERSISTENCE.md). When recovering, the persisted configuration
//! wins over `--lease`/`--coalesce` flags — recovery resumes the crashed
//! run, it does not start a new one. With `--stdin-shutdown`, closing
//! stdin (supervisors do this on graceful stop) takes a final checkpoint
//! and exits cleanly; the flag is opt-in because a daemon backgrounded
//! with `&` inherits a closed or null stdin and must not treat that as a
//! stop request.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use harmony_core::{Controller, ControllerConfig, HarmonyEvent, StateStore};
use harmony_proto::TcpServer;
use harmony_resources::Cluster;
use parking_lot::RwLock;

fn usage() -> ! {
    eprintln!(
        "usage: harmonyd <cluster.rsl>|--demo [--lease <seconds>] [--coalesce <seconds>] \
         [--state-dir <dir>] [--stdin-shutdown] [addr]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut lease: Option<f64> = None;
    if let Some(i) = args.iter().position(|a| a == "--lease") {
        let Some(value) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
            usage();
        };
        if !value.is_finite() || value <= 0.0 {
            usage();
        }
        lease = Some(value);
        args.drain(i..=i + 1);
    }
    let mut coalesce: Option<f64> = None;
    if let Some(i) = args.iter().position(|a| a == "--coalesce") {
        let Some(value) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
            usage();
        };
        if !value.is_finite() || value < 0.0 {
            usage();
        }
        coalesce = Some(value);
        args.drain(i..=i + 1);
    }
    let mut state_dir: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--state-dir") {
        let Some(value) = args.get(i + 1) else { usage() };
        state_dir = Some(value.clone());
        args.drain(i..=i + 1);
    }
    let mut stdin_shutdown = false;
    if let Some(i) = args.iter().position(|a| a == "--stdin-shutdown") {
        stdin_shutdown = true;
        args.remove(i);
    }
    let (source, rsl) = match args.first().map(String::as_str) {
        Some("--demo") => ("built-in demo".to_string(), harmony_rsl::listings::sp2_cluster(8)),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => (path.to_string(), text),
            Err(e) => {
                eprintln!("harmonyd: cannot read `{path}`: {e}");
                std::process::exit(1);
            }
        },
        None => usage(),
    };
    let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7077");

    let cluster = match Cluster::from_rsl(&rsl) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("harmonyd: bad cluster description in {source}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "harmonyd: cluster from {source}: {} nodes, {} links, {:.0} MB memory",
        cluster.len(),
        cluster.links().count(),
        cluster.total_memory()
    );

    let mut config = ControllerConfig::default();
    if let Some(seconds) = lease {
        config.lease.duration = seconds;
    }
    if let Some(window) = coalesce {
        config.coalesce.window = window;
        // A max_delay below the window would fire every window early and
        // defeat the quiet-period semantics; keep the default cap unless
        // the requested window needs more headroom.
        config.coalesce.max_delay = config.coalesce.max_delay.max(window * 5.0);
    }

    // With a state dir, recover (or create) the durable controller; the
    // persisted config wins over flags when prior state exists.
    let (ctl, store) = match &state_dir {
        Some(dir) => {
            let fresh = {
                let cluster = cluster.clone();
                let config = config.clone();
                move || Controller::new(cluster, config)
            };
            match StateStore::open(Path::new(dir), fresh) {
                Ok((ctl, store)) => {
                    let info = ctl.recovery_info().expect("state store sets recovery info");
                    match info.snapshot_loaded {
                        Some(gen) => println!(
                            "harmonyd: recovered from {dir} (snapshot gen {gen}, {} WAL \
                             record(s) replayed{}); {} session(s) live at t={:.1}s, \
                             writing generation {}",
                            info.replayed,
                            if info.torn_tail { ", torn tail discarded" } else { "" },
                            ctl.sessions().count(),
                            ctl.now(),
                            info.generation
                        ),
                        None => println!(
                            "harmonyd: fresh state dir {dir}, writing generation {}",
                            info.generation
                        ),
                    }
                    (ctl, Some(store))
                }
                Err(e) => {
                    eprintln!("harmonyd: cannot open state dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => (Controller::new(cluster, config), None),
    };
    let config = ctl.config().clone();
    println!(
        "harmonyd: session leases: {:.0}s (disconnect grace {:.0}s)",
        config.lease.duration, config.lease.disconnect_grace
    );
    if config.coalesce.enabled() {
        println!(
            "harmonyd: coalescing decisions: {:.3}s window (max delay {:.1}s)",
            config.coalesce.window, config.coalesce.max_delay
        );
    }

    // Anchor wall time at the recovered controller clock: a restarted
    // daemon's clock continues from where the crashed one stopped instead
    // of freezing until wall-elapsed catches up with the recovered value.
    let anchor = ctl.now();
    let controller = Arc::new(RwLock::new(ctl));
    let mut server = match TcpServer::start(addr, Arc::clone(&controller)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("harmonyd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("harmonyd: listening on {}", server.addr());

    // Graceful shutdown (opt-in): when stdin reaches EOF (the supervisor
    // closed it, or the operator hit ^D) take a final checkpoint so
    // restart needs no WAL replay at all. kill -9 is also fine — that is
    // what the WAL is for — this path just makes the clean case instant.
    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
    if stdin_shutdown {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match std::io::stdin().read_line(&mut sink) {
                    Ok(0) | Err(_) => break, // EOF or unreadable stdin
                    Ok(_) => {}
                }
            }
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        });
    }

    // Periodic pass (the paper's event-driven controller also adapts "on a
    // periodic basis" for changes outside Harmony's control): reap expired
    // session leases, then re-evaluate, streaming decisions to stdout.
    let start = std::time::Instant::now();
    let mut store = store;
    // Stream from the recovered totals: replay re-derives, it prints nothing.
    let (mut seen, mut reaped) = {
        let ctl = controller.read();
        (ctl.metrics().counter("controller.decisions"), ctl.metrics().counter("controller.ends"))
    };
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let stopping = shutdown.load(std::sync::atomic::Ordering::SeqCst);
        // The 2-second periodic cadence, on a 200ms shutdown-poll grid.
        let due = start.elapsed().as_millis() % 2000 < 200;
        if !due && !stopping {
            continue;
        }
        // The pass's lines are formatted under the lock and printed after
        // it is released, so a slow stdout reader stalls no verb.
        let mut out = String::new();
        let mut ctl = controller.write();
        ctl.set_time(anchor + start.elapsed().as_secs_f64());
        if let Err(e) = ctl.handle_event(HarmonyEvent::Periodic) {
            eprintln!("harmonyd: periodic pass error: {e}");
        }
        for r in ctl.retirements_since(reaped) {
            let _ =
                writeln!(out, "harmonyd: t={:.0}s retired {} ({})", r.time, r.instance, r.reason);
        }
        reaped = ctl.metrics().counter("controller.ends");
        for d in ctl.decisions_since(seen) {
            let provenance = if d.provenance.is_empty() {
                String::new()
            } else {
                let seqs: Vec<String> = d.provenance.iter().map(u64::to_string).collect();
                format!(" journal[{}]", seqs.join(","))
            };
            let _ = writeln!(
                out,
                "harmonyd: t={:.0}s {} {}: {} -> {} (objective {:.1} -> {:.1}){}{} \
                 (search {:.2}ms, commit {:.2}ms)",
                d.time,
                d.instance,
                d.bundle,
                d.from.as_deref().unwrap_or("-"),
                d.to,
                d.objective_before,
                d.objective_after,
                d.cause.as_deref().map(|c| format!(" [{c}]")).unwrap_or_default(),
                provenance,
                d.phases.candidates_ms + d.phases.prediction_ms + d.phases.optimization_ms,
                d.phases.commit_ms
            );
        }
        seen = ctl.metrics().counter("controller.decisions");
        if let Some(store) = store.as_mut() {
            if stopping {
                match store.checkpoint(&mut ctl) {
                    Ok(()) => {
                        let generation = store.generation();
                        let _ = writeln!(
                            out,
                            "harmonyd: shutdown checkpoint written (generation {generation})"
                        );
                    }
                    Err(e) => eprintln!("harmonyd: shutdown checkpoint failed: {e}"),
                }
            } else {
                match store.maybe_checkpoint(&mut ctl) {
                    Ok(true) => {
                        let generation = store.generation();
                        let _ =
                            writeln!(out, "harmonyd: checkpoint written (generation {generation})");
                    }
                    Ok(false) => {}
                    Err(e) => eprintln!("harmonyd: checkpoint failed: {e}"),
                }
            }
        }
        drop(ctl);
        print!("{out}");
        if stopping {
            server.stop();
            println!("harmonyd: stopped");
            return;
        }
    }
}
