//! The `harness` binary: seed sweeps, artifact replay, and shrinking.
//!
//! ```text
//! harness sweep --seeds N [--start S] [--planted reaper-skips-touch-fold] [--out DIR]
//! harness replay <artifact.json>
//! harness replay --seed S [--planted ...]
//! harness shrink <seed> [--planted ...] [--out DIR]
//! harness recover --seed S [--crash-at N] [--dir DIR]
//! ```
//!
//! `sweep` runs every seed **twice** and compares fingerprints, so the
//! determinism oracle rides along for free; any failure is shrunk and
//! saved as a replayable artifact. Exit status is non-zero when anything
//! failed.
//!
//! `recover` runs the seed's schedule against a durable controller,
//! crashes it mid-burst, recovers from the state directory, and compares
//! persisted-image fingerprints (see `harmony_harness::recovery`). The
//! printed line is byte-stable across repeat runs of a seed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harmony_harness::{artifact, generate, run_schedule, shrink, PlantedBug, RunReport, Schedule};

fn usage() -> ExitCode {
    eprintln!(
        "usage: harness sweep --seeds N [--start S] [--planted BUG] [--out DIR]\n\
         \x20      harness replay <artifact.json>\n\
         \x20      harness replay --seed S [--planted BUG]\n\
         \x20      harness shrink <seed> [--planted BUG] [--out DIR]\n\
         \x20      harness recover --seed S [--crash-at N] [--dir DIR]\n\
         BUG: reaper-skips-touch-fold"
    );
    ExitCode::from(2)
}

fn parse_planted(s: &str) -> Option<PlantedBug> {
    match s {
        "none" => Some(PlantedBug::None),
        "reaper-skips-touch-fold" => Some(PlantedBug::ReaperSkipsTouchFold),
        _ => None,
    }
}

struct Flags {
    seeds: u64,
    start: u64,
    seed: Option<u64>,
    crash_at: Option<usize>,
    dir: Option<PathBuf>,
    planted: PlantedBug,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        seeds: 100,
        start: 0,
        seed: None,
        crash_at: None,
        dir: None,
        planted: PlantedBug::None,
        out: PathBuf::from("results"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => flags.seeds = it.next()?.parse().ok()?,
            "--start" => flags.start = it.next()?.parse().ok()?,
            "--seed" => flags.seed = Some(it.next()?.parse().ok()?),
            "--crash-at" => flags.crash_at = Some(it.next()?.parse().ok()?),
            "--dir" => flags.dir = Some(PathBuf::from(it.next()?)),
            "--planted" => flags.planted = parse_planted(it.next()?)?,
            "--out" => flags.out = PathBuf::from(it.next()?),
            _ if arg.starts_with("--") => return None,
            _ => flags.positional.push(arg.clone()),
        }
    }
    Some(flags)
}

fn describe(report: &RunReport) -> String {
    format!(
        "seed {:>6}  fp {:016x}  ops {:>3}/{:<3}  journal {:>4}  decisions {:>3}",
        report.seed,
        report.fingerprint,
        report.ops_executed,
        report.ops_total,
        report.journal_appended,
        report.decisions
    )
}

/// Shrinks a failing schedule and writes the artifact; returns the path.
fn shrink_and_save(schedule: &Schedule, planted: PlantedBug, out: &Path) -> Option<PathBuf> {
    let shrunk = shrink::shrink(schedule, planted)?;
    let violation = shrunk.report.violation.clone()?;
    eprintln!(
        "  shrunk {} -> {} ops in {} runs: {violation}",
        schedule.ops.len(),
        shrunk.schedule.ops.len(),
        shrunk.runs
    );
    let art = artifact::Artifact {
        schedule: shrunk.schedule,
        planted,
        violation,
        fingerprint: format!("{:016x}", shrunk.report.fingerprint),
    };
    match artifact::save(out, &art) {
        Ok(path) => {
            eprintln!("  artifact: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("  failed to save artifact: {e}");
            None
        }
    }
}

fn cmd_sweep(flags: &Flags) -> ExitCode {
    let mut failures = 0u64;
    for seed in flags.start..flags.start + flags.seeds {
        let schedule = generate(seed);
        let report = run_schedule(&schedule, flags.planted);
        let again = run_schedule(&schedule, flags.planted);
        let mut failed = false;
        if let Some(v) = &report.violation {
            println!("FAIL {}  {v}", describe(&report));
            failed = true;
        } else {
            println!("ok   {}", describe(&report));
        }
        if again.fingerprint != report.fingerprint {
            println!(
                "FAIL seed {seed}: nondeterministic (fp {:016x} then {:016x})",
                report.fingerprint, again.fingerprint
            );
            failed = true;
        }
        if failed {
            failures += 1;
            if report.violation.is_some() {
                shrink_and_save(&schedule, flags.planted, &flags.out);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} seeds failed", flags.seeds);
        return ExitCode::FAILURE;
    }
    println!("{} seeds clean", flags.seeds);
    ExitCode::SUCCESS
}

fn cmd_replay(flags: &Flags) -> ExitCode {
    let (schedule, planted, expect_fp) = if let Some(seed) = flags.seed {
        (generate(seed), flags.planted, None)
    } else {
        let Some(path) = flags.positional.first() else { return usage() };
        match artifact::load(Path::new(path)) {
            Ok(art) => (art.schedule, art.planted, Some(art.fingerprint)),
            Err(e) => {
                eprintln!("cannot load artifact {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let report = run_schedule(&schedule, planted);
    println!("{}", describe(&report));
    if let Some(expect) = expect_fp {
        let got = format!("{:016x}", report.fingerprint);
        if got != expect {
            println!("FAIL: fingerprint {got} does not match artifact's {expect}");
            return ExitCode::FAILURE;
        }
    }
    match &report.violation {
        Some(v) => {
            println!("violation: {v}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_shrink(flags: &Flags) -> ExitCode {
    let Some(seed) = flags.positional.first().and_then(|s| s.parse().ok()).or(flags.seed) else {
        return usage();
    };
    let schedule = generate(seed);
    match shrink_and_save(&schedule, flags.planted, &flags.out) {
        Some(_) => ExitCode::SUCCESS,
        None => {
            eprintln!("seed {seed} does not fail; nothing to shrink");
            ExitCode::FAILURE
        }
    }
}

fn cmd_recover(flags: &Flags) -> ExitCode {
    let Some(seed) = flags.seed else { return usage() };
    let dir = flags.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("harness-recover-{}-{seed}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    // snapshot_every 32: low enough that a half-schedule run rotates a
    // few generations, so recovery is snapshot + WAL tail, not pure
    // replay.
    let crashed = harmony_harness::crash_run(seed, flags.crash_at, 32, &dir);
    let recovered = match harmony_harness::recover(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Everything printed here is a function of the seed alone.
    println!(
        "seed {:>6}  crash {:>3}/{:<3}  pre {:016x}  post {:016x}  \
         snapshot {:?}  replayed {}  sessions {}  pending {}",
        crashed.seed,
        crashed.crash_at,
        crashed.ops_total,
        crashed.fingerprint,
        recovered.fingerprint,
        recovered.info.snapshot_loaded,
        recovered.info.replayed,
        recovered.live_sessions,
        recovered.pending_decisions,
    );
    let _ = std::fs::remove_dir_all(&dir);
    if recovered.fingerprint != crashed.fingerprint {
        println!("FAIL: recovered state diverges from the pre-crash state");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let Some(flags) = parse_flags(&args[1..]) else { return usage() };
    match cmd.as_str() {
        "sweep" => cmd_sweep(&flags),
        "replay" => cmd_replay(&flags),
        "shrink" => cmd_shrink(&flags),
        "recover" => cmd_recover(&flags),
        _ => usage(),
    }
}
