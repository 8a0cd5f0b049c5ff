//! The benchmark's command line, shared by its two binaries.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run, for the driver
//! e2e [--seed <n>] [--smoke]                                     # all four workloads + the traced pass
//! e2e --aa [--runs <n>]                                          # the A/A bounds study
//! e2e --print-spec                                               # BENCHMARK.json as the code defines it
//! layers [--seed <n>] [--smoke]                                  # the traced pass on its own
//! ```
//!
//! The last line of standard output of a `--workload` run is the result
//! object the driver reads; everything above it is for people.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use crate::daemon::{serve_null, Daemon, ScratchDir};
use crate::gen::sequence_fnv;
use crate::layers::Table;
use crate::pin::pin_to_last_allowed_cpu;
use crate::report::{
    benchmark_json, check_against, end_to_end_table, print_metrics, print_spans, result_line,
    traced_run, Spec, Traced, RUN_SECONDS,
};
use crate::stats::{median, quartiles};
use crate::workloads::{run, Env, Scale, Workload, SETUPS};

/// Which binary was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binary {
    /// `e2e`: everything.
    E2e,
    /// `layers`: the traced pass only.
    Layers,
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> io::Result<T> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{name} {v}: not a valid value"),
                )
            }),
        }
    }
}

/// Runs the command line of `binary`: exit code 0 when every operation
/// succeeded, 1 when one failed or a bound was exceeded, 2 on an error.
pub fn main(binary: Binary) -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--null-daemon") {
        return match serve_null() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("null daemon: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.flag("--print-spec") {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    match real_main(binary, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(binary: Binary, args: &Args) -> io::Result<bool> {
    let out_dir = PathBuf::from(args.value("--out").unwrap_or("benchmark/out"));
    let spec = Spec::load(Path::new(args.value("--spec").unwrap_or("BENCHMARK.json")))?;
    // Before any thread or daemon exists, so that all of them inherit it.
    match pin_to_last_allowed_cpu() {
        Some(cpu) => println!("pinned_cpu {cpu}"),
        None => println!("pinned_cpu none (results will be noisier)"),
    }
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let scratch = ScratchDir::create(&out_dir, "run")?;
    println!("state_fs {}", scratch.path().display());
    let smoke = args.flag("--smoke");
    let null = Daemon::spawn_null()?;
    let env = Env {
        harmonyd: PathBuf::from(args.value("--harmonyd").unwrap_or("target/release/harmonyd")),
        null: null.addr(),
        scratch: scratch.path().to_path_buf(),
        smoke,
        setups: if smoke { 1 } else { SETUPS },
    };
    if !env.harmonyd.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not built", env.harmonyd.display()),
        ));
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds = if smoke { 0.25 } else { args.parsed("--seconds", f64::from(RUN_SECONDS))? };
    let trace_path = out_dir.join("trace.json");
    println!("gen.sequence_fnv {:016x}", sequence_fnv(seed, 100_000, 8));

    if binary == Binary::Layers {
        return traced(&env, &spec, seed, seconds, &trace_path).map(|t| t.failed == 0);
    }
    if args.flag("--aa") {
        return aa_study(&env, &spec, args.parsed("--runs", 10)?, Path::new("benchmark/AA.json"));
    }
    if let Some(name) = args.value("--workload") {
        let workload = Workload::parse(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unknown workload `{name}`"))
        })?;
        let trace: u8 = args.parsed("--trace", 0)?;
        println!("workload {name} seed {seed} seconds {seconds} trace {trace}");
        let (attempted, failed, metrics) = if trace == 1 {
            let t = traced(&env, &spec, seed, seconds, &trace_path)?;
            (t.attempted, t.failed, t.table)
        } else {
            gated(&env, &spec, workload, seed, seconds)?
        };
        println!("attempted {attempted} failed {failed}");
        println!("{}", result_line(attempted.max(1), failed, &metrics));
        return Ok(failed == 0);
    }
    all_workloads(&env, &spec, seed, seconds, &trace_path)
}

/// One gated run: prints its notes and its end-to-end metrics, and checks
/// them against BENCHMARK.json.
fn gated(
    env: &Env,
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> io::Result<(u64, u64, Table)> {
    let outcome = run(env, workload, Scale::Unit, seed, seconds)?;
    for note in &outcome.notes {
        println!("  # {note}");
    }
    let table = end_to_end_table(&outcome);
    check_against(&spec.end_to_end, &table)?;
    print_metrics("end-to-end metrics", &table);
    Ok((outcome.attempted, outcome.failed, table))
}

/// The traced pass: prints its spans, notes and per-layer metrics, and
/// checks that every declared one was measured.
fn traced(
    env: &Env,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<Traced> {
    let t = traced_run(env, seed, seconds, trace_path)?;
    println!("spans in {}", trace_path.display());
    print_spans(&t.spans);
    for note in &t.notes {
        println!("  # {note}");
    }
    check_against(&spec.per_layer, &t.table)?;
    print_metrics("per-layer metrics", &t.table);
    Ok(t)
}

/// The one command a person runs: every workload once, then the traced
/// pass.
fn all_workloads(
    env: &Env,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<bool> {
    let started = Instant::now();
    let mut ok = true;
    let mut request_us = BTreeMap::new();
    for workload in Workload::ALL {
        let t0 = Instant::now();
        println!("\n== {}", workload.name());
        let (attempted, failed, table) = gated(env, spec, workload, seed, seconds)?;
        println!("attempted {attempted} failed {failed} ({:.1} s)", t0.elapsed().as_secs_f64());
        request_us.insert(workload.name(), table["request_p50_us"].value);
        ok &= failed == 0 && attempted > 0;
    }
    let t0 = Instant::now();
    println!("\n== traced pass");
    let t = traced(env, spec, seed, seconds, trace_path)?;
    println!("attempted {} failed {} ({:.1} s)", t.attempted, t.failed, t0.elapsed().as_secs_f64());
    ok &= t.failed == 0;

    // The predicted separation, printed side by side: what the WAL adds to
    // one request of the 40/40/20 mix, on the wire and in the layers.
    let wire = request_us["steady_wal"] - request_us["steady_mem"];
    let mix = |prefix: &str| {
        [("heartbeat", 0.4), ("poll", 0.4), ("metric", 0.2)]
            .iter()
            .map(|(verb, share)| share * t.table[&format!("{prefix}.{verb}_ns")].value)
            .sum::<f64>()
    };
    let layer = (mix("proto.dispatch_wal") - mix("proto.dispatch")) / 1e3;
    println!(
        "\nseparation: steady_wal − steady_mem request_p50_us = {wire:.3} us; \
         proto.dispatch_wal − proto.dispatch over the mix = {layer:.3} us (ratio {:.2})",
        wire / layer
    );
    println!(
        "total {:.1} s; {}",
        started.elapsed().as_secs_f64(),
        if ok { "ok" } else { "FAILED" }
    );
    Ok(ok)
}

/// Spread of ten values as the driver takes it: the distance between the
/// first and third quartile as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// What the driver does, on one build: two interleaved sets (ABAB…) of
/// `runs` gated runs of every workload, a different seed for every run
/// and the same seeds in both sets. Writes every value, both medians,
/// both spreads and the relative difference per workload × metric; fails
/// when a difference or a spread (other than `setup_s`'s) exceeds the
/// metric's bound. The traced pass runs once per set on seed 1, for the
/// exact counts.
fn aa_study(env: &Env, spec: &Spec, runs: usize, path: &Path) -> io::Result<bool> {
    let seconds = f64::from(RUN_SECONDS);
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut exact: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let trace_path = env.scratch.join("trace.json");
    for set in 0..2 {
        let t = traced_run(env, 1, seconds, &trace_path)?;
        for name in ["wal.records_per_op", "wal.bytes_per_op", "wal.replayed_records"] {
            exact.entry(name).or_default().push(t.table[name].value);
        }
        println!("set {set} traced pass done");
    }
    for i in 0..runs {
        for set in 0..2 {
            let seed = 1 + i as u64;
            for workload in Workload::ALL {
                let outcome = run(env, workload, Scale::Unit, seed, seconds)?;
                if outcome.failed > 0 {
                    return Err(io::Error::other(format!(
                        "{} seed {seed}: {} operations failed",
                        workload.name(),
                        outcome.failed
                    )));
                }
                println!("run {i} set {set} {} done", workload.name());
                let per_metric = values.entry(workload.name()).or_default();
                for (name, m) in end_to_end_table(&outcome) {
                    per_metric.entry(name).or_default()[set].push(m.value);
                }
            }
        }
    }
    let declared = |name: &str| spec.end_to_end.iter().find(|d| d.name == name);
    let mut rows = Vec::new();
    let mut ok = true;
    for (workload, per_metric) in &values {
        for (name, [a, b]) in per_metric {
            let bound = declared(name).and_then(|d| d.bound).unwrap_or(0.0);
            let (ma, mb) = (median(a), median(b));
            // How much worse the second set reads than the first.
            let worse = if declared(name).is_some_and(|d| d.better == "higher") {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (spread(a), spread(b));
            let within = worse <= bound && (name == "setup_s" || sa.max(sb) <= bound);
            ok &= within;
            println!(
                "{workload:<11} {name:<16} A {ma:>12.4} (spread {:>5.2}%)  B {mb:>12.4} (spread {:>5.2}%)  diff {:>6.2}%  bound {:>4.1}%{}",
                100.0 * sa,
                100.0 * sb,
                100.0 * worse,
                100.0 * bound,
                if within { "" } else { "  EXCEEDED" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"bound\": {bound:?}, \"median_a\": {ma:?}, \"median_b\": {mb:?}, \"spread_a\": {sa:?}, \"spread_b\": {sb:?}, \"relative_difference\": {worse:?}, \"values_a\": {a:?}, \"values_b\": {b:?}}}"
            ));
        }
    }
    let mut json = format!(
        "{{\n  \"runs_per_set\": {runs},\n  \"run_seconds\": {seconds},\n  \"results\": [\n"
    );
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n  \"exact_counts_seed_1\": {\n");
    let mut counts = Vec::new();
    for (name, v) in &exact {
        let same = v.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        ok &= same;
        println!(
            "{name}: {:?}{}",
            v[0],
            if same { " (identical in both sets)" } else { " DIFFERS" }
        );
        counts.push(format!("    \"{name}\": {{\"value\": {:?}, \"identical\": {same}}}", v[0]));
    }
    let _ = write!(json, "{}\n  }}\n}}\n", counts.join(",\n"));
    std::fs::write(path, json)?;
    println!("wrote {}; {}", path.display(), if ok { "ok" } else { "a bound was exceeded" });
    Ok(ok)
}
