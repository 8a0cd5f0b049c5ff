//! The `harmony-mc` binary: exhaustive scope checking, exploration
//! statistics, and counterexample replay.
//!
//! ```text
//! harmony-mc check [--clients N] [--depth D] [--seed S] [--max-jumps J]
//!                  [--crashes] [--planted BUG] [--min-states M] [--out DIR]
//! harmony-mc stats [same scope flags]
//! harmony-mc replay <artifact.json> [--crashes] [--planted BUG]
//! ```
//!
//! `check` explores the scope and exits non-zero on any violation (the
//! counterexample is confirmed, shrunk, and saved under `--out`) or when
//! `--min-states` is not reached — the CI guard that the exploration
//! actually covers the intended state count. `stats` prints the
//! per-depth discovery profile. `replay` re-runs an artifact through the
//! MC engine (crash cuts included with `--crashes`), for the crash-only
//! artifacts the full-stack `harness replay` cannot observe.
//!
//! BUG: `reaper-skips-touch-fold` (harness-visible), or `renew-skips-wal`
//! / `touch-skips-wal` (crash-only; imply `--crashes`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harmony_harness::PlantedBug;
use harmony_mc::{counterexample, explore, Engine, Exploration, Scope};

fn usage() -> ExitCode {
    eprintln!(
        "usage: harmony-mc check [--clients N] [--depth D] [--seed S] [--max-jumps J]\n\
         \x20                       [--crashes] [--planted BUG] [--min-states M] [--out DIR]\n\
         \x20      harmony-mc stats [--clients N] [--depth D] [--seed S] [--max-jumps J] [--crashes]\n\
         \x20      harmony-mc replay <artifact.json> [--crashes] [--planted BUG]\n\
         BUG: reaper-skips-touch-fold | renew-skips-wal | touch-skips-wal"
    );
    ExitCode::from(2)
}

struct Flags {
    scope: Scope,
    min_states: Option<usize>,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        scope: Scope::default(),
        min_states: None,
        out: PathBuf::from("results"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => {
                flags.scope.clients = it.next()?.parse().ok().filter(|c| (1..=3).contains(c))?;
            }
            "--depth" => flags.scope.depth = it.next()?.parse().ok()?,
            "--seed" => flags.scope.seed = it.next()?.parse().ok()?,
            "--max-jumps" => flags.scope.max_jumps = it.next()?.parse().ok()?,
            "--crashes" => flags.scope.crashes = true,
            "--min-states" => flags.min_states = Some(it.next()?.parse().ok()?),
            "--out" => flags.out = PathBuf::from(it.next()?),
            "--planted" => match it.next()?.as_str() {
                "none" => {}
                "reaper-skips-touch-fold" => flags.scope.planted = PlantedBug::ReaperSkipsTouchFold,
                unlogged => {
                    flags.scope.unlogged = Some(match unlogged {
                        "renew-skips-wal" => "renew",
                        "touch-skips-wal" => "touch",
                        _ => return None,
                    });
                    flags.scope.crashes = true;
                }
            },
            _ if arg.starts_with("--") => return None,
            _ => flags.positional.push(arg.clone()),
        }
    }
    Some(flags)
}

fn describe_scope(scope: &Scope) -> String {
    format!(
        "clients {}  depth {}  seed {}  jumps {}  crashes {}",
        scope.clients, scope.depth, scope.seed, scope.max_jumps, scope.crashes
    )
}

fn print_stats(ex: &Exploration) {
    let s = &ex.stats;
    println!(
        "states {}  transitions {}  por-skips {}  revisits {}  crash-cuts {}",
        s.distinct_states, s.transitions, s.por_skips, s.revisits, s.crash_cuts
    );
    let profile: Vec<String> =
        s.per_depth.iter().enumerate().map(|(d, n)| format!("{d}:{n}")).collect();
    println!("per-depth {}", profile.join(" "));
}

fn report_counterexample(ex: &Exploration, scope: &Scope, out: Option<&Path>) {
    let Some(ce) = &ex.counterexample else { return };
    println!("violation: {}", ce.violation);
    let verbs: Vec<String> = ce.verbs.iter().map(ToString::to_string).collect();
    println!("  path: {}", verbs.join(" -> "));
    let processed = counterexample::process(ce, scope, out);
    println!(
        "  shrunk {} -> {} ops in {} runs: {}",
        processed.shrunk_from, processed.shrunk_to, processed.runs, processed.artifact.violation
    );
    println!(
        "  replay: {}",
        if processed.harness_confirmed { "harness replay" } else { "harmony-mc replay --crashes" }
    );
    if let Some(path) = &processed.path {
        println!("  artifact: {}", path.display());
    }
}

fn cmd_check(flags: &Flags) -> ExitCode {
    let started = std::time::Instant::now();
    let ex = explore(&flags.scope);
    println!("check {}", describe_scope(&flags.scope));
    print_stats(&ex);
    println!("elapsed {:.1}s", started.elapsed().as_secs_f64());
    if ex.counterexample.is_some() {
        report_counterexample(&ex, &flags.scope, Some(&flags.out));
        return ExitCode::FAILURE;
    }
    if let Some(min) = flags.min_states {
        if ex.stats.distinct_states < min {
            println!(
                "FAIL: explored {} distinct states, below the required {min}",
                ex.stats.distinct_states
            );
            return ExitCode::FAILURE;
        }
    }
    println!("clean: every reachable state within the bound satisfies the oracles");
    ExitCode::SUCCESS
}

fn cmd_stats(flags: &Flags) -> ExitCode {
    let started = std::time::Instant::now();
    let ex = explore(&flags.scope);
    println!("stats {}", describe_scope(&flags.scope));
    print_stats(&ex);
    println!("elapsed {:.1}s", started.elapsed().as_secs_f64());
    if ex.counterexample.is_some() {
        report_counterexample(&ex, &flags.scope, None);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_replay(flags: &Flags) -> ExitCode {
    let Some(path) = flags.positional.first() else { return usage() };
    let art = match harmony_harness::artifact::load(Path::new(path)) {
        Ok(art) => art,
        Err(e) => {
            eprintln!("cannot load artifact {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut scope = flags.scope;
    scope.seed = art.schedule.seed;
    scope.planted = art.planted;
    let engine = Engine::new(scope);
    let outcome = engine.run_ops(&art.schedule.ops);
    println!(
        "replayed {} of {} ops  fp {:016x}",
        outcome.executed,
        art.schedule.ops.len(),
        outcome.final_fingerprint
    );
    match &outcome.violation {
        Some(v) => {
            println!("violation: {v}");
            if v.oracle == art.violation.oracle {
                ExitCode::SUCCESS
            } else {
                println!(
                    "FAIL: reproduced oracle `{}` but the artifact recorded `{}`",
                    v.oracle, art.violation.oracle
                );
                ExitCode::FAILURE
            }
        }
        None => {
            println!("FAIL: artifact did not reproduce (expected [{}])", art.violation.oracle);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let Some(flags) = parse_flags(&args[1..]) else { return usage() };
    match cmd.as_str() {
        "check" => cmd_check(&flags),
        "stats" => cmd_stats(&flags),
        "replay" => cmd_replay(&flags),
        _ => usage(),
    }
}
