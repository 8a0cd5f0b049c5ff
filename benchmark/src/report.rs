//! What a run prints: every metric by name with its unit for people, the
//! one-line JSON result for the driver, and the checks that both agree
//! with BENCHMARK.json.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Content;

use crate::expo::Expo;
use crate::gen::Verb;
use crate::layers::{self, Effort, Table};
use crate::trace::{self, SpanSummary, TracingConn};
use crate::wire;
use crate::workloads::{self, closed_loop, Env, Metric, Outcome, Scale, Until, Workload};

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// The workloads and why each exists, as BENCHMARK.json records them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "steady_mem",
        "read-path verbs only, no state dir: proto, core touch/journal and the metrics registry do all the work; the WAL and placement do none",
    ),
    (
        "steady_wal",
        "the same seeded requests with --state-dir: one layer added, so the difference to steady_mem is the WAL encode/append cost",
    ),
    (
        "churn",
        "back-to-back arrivals (startup, bundle, poll, end) hold the write lock: placement and re-evaluation do all the work, the read path almost none",
    ),
    (
        "recover",
        "restarts from a prepared WAL: read, decode, replay and the new snapshot do all the work; serving does none until the daemon is back",
    ),
];

/// The end-to-end metrics: name, unit, direction, regression bound. Every
/// workload reports every one; README.md says what each means on each and
/// where each bound comes from.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("request_p50_us", "us", "lower", 0.25),
    ("request_excess_pct", "%", "lower", 0.25),
    ("control_op_rtts", "rtt", "lower", 0.25),
    ("server_rss_mb", "MB", "lower", 0.10),
];

/// The per-layer metrics: name, unit, direction. The traced pass measures
/// every one of them, whatever workload it is asked for.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // proto, timed in-process
    ("proto.request_to_text.ns", "ns", "lower"),
    ("proto.frame_encode.ns", "ns", "lower"),
    ("proto.frame_decode.ns", "ns", "lower"),
    ("proto.request_parse.heartbeat_ns", "ns", "lower"),
    ("proto.request_parse.poll_ns", "ns", "lower"),
    ("proto.request_parse.metric_ns", "ns", "lower"),
    ("proto.request_parse.bundle_ns", "ns", "lower"),
    ("proto.response_to_text.ok_ns", "ns", "lower"),
    ("proto.response_to_text.update_ns", "ns", "lower"),
    ("proto.response_parse.ns", "ns", "lower"),
    ("proto.dispatch.heartbeat_ns", "ns", "lower"),
    ("proto.dispatch.poll_ns", "ns", "lower"),
    ("proto.dispatch.metric_ns", "ns", "lower"),
    ("proto.dispatch.startup_us", "us", "lower"),
    ("proto.dispatch.bundle_us", "us", "lower"),
    ("proto.dispatch.end_us", "us", "lower"),
    ("proto.dispatch_wal.heartbeat_ns", "ns", "lower"),
    ("proto.dispatch_wal.poll_ns", "ns", "lower"),
    ("proto.dispatch_wal.metric_ns", "ns", "lower"),
    // core
    ("core.touch.ns", "ns", "lower"),
    ("core.take_pending_vars.ns", "ns", "lower"),
    ("core.record_metric.ns", "ns", "lower"),
    ("core.journal_append.ns", "ns", "lower"),
    ("core.journal_tail.us", "us", "lower"),
    ("core.startup.us", "us", "lower"),
    ("core.bundle_setup_8x8.ms", "ms", "lower"),
    ("core.bundle_setup_16x12.ms", "ms", "lower"),
    ("core.end.ms", "ms", "lower"),
    ("core.reevaluate.ms", "ms", "lower"),
    ("core.periodic.ms", "ms", "lower"),
    ("core.reap_expired.us", "us", "lower"),
    ("core.evalctx_build.ms", "ms", "lower"),
    ("core.wal_event_encode.touch_ns", "ns", "lower"),
    ("core.wal_event_encode.metric_ns", "ns", "lower"),
    ("core.wal_event_decode.ns", "ns", "lower"),
    ("core.apply_wal_event.ns_per_record", "ns", "lower"),
    ("core.persisted_state.ms", "ms", "lower"),
    ("core.from_persisted.ms", "ms", "lower"),
    // wal
    ("wal.encode_record.ns", "ns", "lower"),
    ("wal.append.ns", "ns", "lower"),
    ("wal.sync.us", "us", "lower"),
    ("wal.decode_records.ns_per_record", "ns", "lower"),
    ("wal.read_wal.ms", "ms", "lower"),
    ("wal.write_snapshot.ms", "ms", "lower"),
    ("wal.checkpoint.ms", "ms", "lower"),
    // metrics and the leaf crates a placement calls
    ("metrics.observe.ns", "ns", "lower"),
    ("metrics.record.ns", "ns", "lower"),
    ("metrics.inc_counter.ns", "ns", "lower"),
    ("metrics.expose.us", "us", "lower"),
    ("rsl.parse_bundle.us", "us", "lower"),
    ("analyze.lint_bundle.us", "us", "lower"),
    ("analyze.script_facts.us", "us", "lower"),
    ("resources.match_option.us", "us", "lower"),
    ("predict.evaluate.ns", "ns", "lower"),
    ("ns.set_get.ns", "ns", "lower"),
    ("client.poll_overhead.ns", "ns", "lower"),
    ("client.report_metric_overhead.ns", "ns", "lower"),
    // the steady_mem slice of the traced pass: the whole window on the
    // wire, and the same window as the daemon's own histograms saw it
    ("proto.heartbeat.window_p50_us", "us", "lower"),
    ("proto.heartbeat.p99_us", "us", "lower"),
    ("proto.heartbeat.p999_us", "us", "lower"),
    ("proto.heartbeat.samples", "count", "higher"),
    ("proto.poll.window_p50_us", "us", "lower"),
    ("proto.poll.p99_us", "us", "lower"),
    ("proto.poll.p999_us", "us", "lower"),
    ("proto.poll.samples", "count", "higher"),
    ("proto.metric.window_p50_us", "us", "lower"),
    ("proto.metric.p99_us", "us", "lower"),
    ("proto.metric.p999_us", "us", "lower"),
    ("proto.metric.samples", "count", "higher"),
    ("proto.served.heartbeat_mean_us", "us", "lower"),
    ("proto.served.poll_mean_us", "us", "lower"),
    ("proto.served.metric_mean_us", "us", "lower"),
    ("proto.served.status_mean_us", "us", "lower"),
    ("window.ops_per_s", "1/s", "higher"),
    ("window.server_cpu_us_per_op", "us", "lower"),
    ("window.fast_share", "ratio", "higher"),
    ("quiet.server_cpu_us_per_op", "us", "lower"),
    ("proto.wire_gap_us", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.accounting_gap_us", "us", "lower"),
    // the steady_wal slice: the same figures with group commit, fsync and
    // checkpoints in the window
    ("wal.window.ops_per_s", "1/s", "higher"),
    ("wal.window.server_cpu_us_per_op", "us", "lower"),
    ("wal.window.heartbeat_p50_us", "us", "lower"),
    ("wal.window.heartbeat_p999_us", "us", "lower"),
    ("wal.window.served_heartbeat_mean_us", "us", "lower"),
    ("wal.appends_per_op", "1/op", "lower"),
    ("wal.checkpoints", "count", "lower"),
    // the paper-scale churn slice
    ("place_p50_ms", "ms", "lower"),
    ("heartbeat_wait_p50_ms", "ms", "lower"),
    ("core.writer_block_frac", "ratio", "lower"),
    ("core.pacer_late_p50_us", "us", "lower"),
    ("core.decisions_per_arrival", "1/cycle", "lower"),
    ("core.reevals_per_arrival", "1/cycle", "lower"),
    ("core.optimizer_evals_per_arrival", "1/cycle", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("proto.served.startup_mean_us", "us", "lower"),
    ("proto.served.bundle_mean_us", "us", "lower"),
    ("proto.served.end_mean_us", "us", "lower"),
    ("churn.cycles", "count", "higher"),
    // the paper-scale recover slice
    ("recover_ms", "ms", "lower"),
    ("recover.replay_cpu_us_per_record", "us", "lower"),
    ("recover.rss_mb", "MB", "lower"),
    ("recover.restarts", "count", "higher"),
    ("wal.replayed_records", "count", "lower"),
    ("wal.records_per_op", "1/op", "lower"),
    ("wal.bytes_per_op", "B/op", "lower"),
];

/// Which figure of the `steady_wal` slice each `wal.window.*` metric is:
/// the slice reports under the same names as `steady_mem`'s.
const WAL_WINDOW: [(&str, &str); 5] = [
    ("wal.window.ops_per_s", "window.ops_per_s"),
    ("wal.window.server_cpu_us_per_op", "window.server_cpu_us_per_op"),
    ("wal.window.heartbeat_p50_us", "proto.heartbeat.window_p50_us"),
    ("wal.window.heartbeat_p999_us", "proto.heartbeat.p999_us"),
    ("wal.window.served_heartbeat_mean_us", "proto.served.heartbeat_mean_us"),
];

/// BENCHMARK.json as this code defines it.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let join = |items: Vec<String>| items.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        join(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        join(END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            ))
            .collect())
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        join(
            PER_LAYER
                .iter()
                .map(|(name, unit, better)| format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

/// One metric BENCHMARK.json declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// The regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of BENCHMARK.json the benchmark checks itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

fn field<'a>(map: &'a Content, key: &str) -> Option<&'a Content> {
    let Content::Map(pairs) = map else { return None };
    pairs.iter().find_map(|(k, v)| matches!(k, Content::Str(s) if s == key).then_some(v))
}

fn text(c: Option<&Content>) -> Option<String> {
    match c {
        Some(Content::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("BENCHMARK.json: {what}"))
}

impl Spec {
    /// Parses BENCHMARK.json text, checking the shape the contract fixes:
    /// named workloads with a reason, metrics with unit and direction,
    /// end-to-end bounds within 0.25, `setup_s` present, names used once.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the first violation.
    pub fn parse(json: &str) -> io::Result<Spec> {
        let root = serde_json::from_str_content(json).map_err(|e| bad(&e.to_string()))?;
        let list = |key: &str| match field(&root, key) {
            Some(Content::Seq(items)) => Ok(items.as_slice()),
            _ => Err(bad(&format!("`{key}` is not a list"))),
        };
        let mut workloads = Vec::new();
        for w in list("workloads")? {
            let name = text(field(w, "name")).ok_or_else(|| bad("workload without a name"))?;
            if text(field(w, "why")).is_none_or(|why| why.is_empty() || why.contains('\n')) {
                return Err(bad(&format!("workload `{name}` lacks a one-line `why`")));
            }
            workloads.push(name);
        }
        let declared = |key: &str, bounded: bool| -> io::Result<Vec<Declared>> {
            list(key)?
                .iter()
                .map(|m| {
                    let name =
                        text(field(m, "name")).ok_or_else(|| bad("metric without a name"))?;
                    let unit = text(field(m, "unit"))
                        .ok_or_else(|| bad(&format!("`{name}` has no unit")))?;
                    let better = text(field(m, "better"))
                        .filter(|b| b == "higher" || b == "lower")
                        .ok_or_else(|| bad(&format!("`{name}`: better is higher or lower")))?;
                    let bound = field(m, "bound").and_then(Content::as_f64);
                    match (bounded, bound) {
                        (true, Some(b)) if b > 0.0 && b <= 0.25 => {}
                        (false, None) => {}
                        _ => {
                            return Err(bad(&format!(
                                "`{name}`: bound missing, misplaced or outside (0, 0.25]"
                            )))
                        }
                    }
                    Ok(Declared { name, unit, better, bound })
                })
                .collect()
        };
        let spec = Spec {
            workloads,
            end_to_end: declared("end_to_end", true)?,
            per_layer: declared("per_layer", false)?,
            run_seconds: field(&root, "run_seconds")
                .and_then(Content::as_f64)
                .filter(|s| (1.0..=60.0).contains(s) && s.fract() == 0.0)
                .ok_or_else(|| bad("run_seconds is not a whole number from 1 to 60"))?,
        };
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|d| &d.name))
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        if let Some(pair) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(bad(&format!("name `{}` is used twice", pair[0])));
        }
        if !spec
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower")
        {
            return Err(bad("no `setup_s` in seconds, lower is better"));
        }
        Ok(spec)
    }

    /// Reads and parses the file, and requires it to declare exactly what
    /// this code measures ([`benchmark_json`]).
    ///
    /// # Errors
    ///
    /// I/O errors, those of [`Spec::parse`], and any difference.
    pub fn load(path: &Path) -> io::Result<Spec> {
        let spec = Spec::parse(&std::fs::read_to_string(path)?)?;
        if spec != Spec::parse(&benchmark_json())? {
            return Err(bad(
                "differs from what the benchmark measures; regenerate with --print-spec",
            ));
        }
        Ok(spec)
    }
}

/// Checks that `metrics` holds exactly the `declared` names, each with the
/// declared unit and a finite value.
///
/// # Errors
///
/// `InvalidData` naming every missing, extra or mismatched metric.
pub fn check_against(declared: &[Declared], metrics: &BTreeMap<String, Metric>) -> io::Result<()> {
    let mut problems = Vec::new();
    for d in declared {
        match metrics.get(&d.name) {
            None => problems.push(format!("{} not measured", d.name)),
            Some(m) if m.unit != d.unit => {
                problems.push(format!("{} measured in {}, declared in {}", d.name, m.unit, d.unit));
            }
            Some(m) if !m.value.is_finite() => problems.push(format!("{} is {}", d.name, m.value)),
            Some(_) => {}
        }
    }
    for name in metrics.keys() {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("{name} measured but not declared"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidData, problems.join("; ")))
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value printed with all the digits it was measured to.
pub fn result_line(attempted: u64, failed: u64, metrics: &BTreeMap<String, Metric>) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.value, m.unit);
    }
    out.push_str("}}");
    out
}

/// Prints `metrics` one per line, name then value then unit.
pub fn print_metrics(heading: &str, metrics: &BTreeMap<String, Metric>) {
    println!("{heading}");
    for (name, m) in metrics {
        println!("  {name:<44} {:>16.6} {}", m.value, m.unit);
    }
}

/// Prints the traced run's spans by name.
pub fn print_spans(spans: &BTreeMap<&'static str, SpanSummary>) {
    println!("spans (median, median self time)");
    for (name, s) in spans {
        println!(
            "  {name:<28} n={:<6} {:>9.3} us  self {:>9.3} us",
            s.count, s.median_us, s.self_us
        );
    }
}

/// The end-to-end metrics of an outcome, keyed like the detail table.
pub fn end_to_end_table(outcome: &Outcome) -> BTreeMap<String, Metric> {
    outcome.end_to_end.iter().map(|(k, m)| ((*k).to_owned(), m.clone())).collect()
}

// ----------------------------------------------------------------------
// The traced pass.
// ----------------------------------------------------------------------

/// What the traced pass produced besides its table.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric BENCHMARK.json declares, each measured.
    pub table: Table,
    /// Operations attempted on the wire during the pass.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Per span name: count, median, median self time.
    pub spans: BTreeMap<&'static str, SpanSummary>,
    /// Findings worth a line.
    pub notes: Vec<String>,
}

/// Moves `source` of a slice's detail into `table` as `declared`. A figure
/// the slice did not measure, or one the table already holds, is an error:
/// nothing is filled in and nothing is overwritten.
fn adopt(
    table: &mut Table,
    detail: &mut BTreeMap<String, Metric>,
    declared: &str,
    source: &str,
) -> io::Result<()> {
    let m = detail.remove(source).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{declared}: {source} not measured"))
    })?;
    if table.insert(declared.to_owned(), m).is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{declared} measured twice"),
        ));
    }
    Ok(())
}

/// The traced pass: the in-process layer timings; an untraced and a traced
/// steady window on one daemon (their ratio is the tracing overhead; the
/// traced one yields the spans, written to `trace_path`); then a slice of
/// each workload at the issue's sizes for the wire-side and exposition
/// figures. Per-layer metrics describe layers, not workloads, so the pass
/// is the same whichever workload it is asked for, and every metric
/// BENCHMARK.json declares is measured in it.
///
/// # Errors
///
/// Failures to spawn or reach a daemon, to write the trace, and any
/// declared metric that was not measured.
pub fn traced_run(env: &Env, seed: u64, seconds: f64, trace_path: &Path) -> io::Result<Traced> {
    let effort = if env.smoke { Effort::SMOKE } else { Effort::FULL };
    let mut table = layers::measure(seed, effort, &env.scratch)?;
    let mut notes = Vec::new();
    let slice = seconds / 4.0;

    // Untraced then traced, same daemon, same seeded sequence.
    let window = Until::Elapsed(Duration::from_secs_f64(slice));
    let live = workloads::steady_daemon(env, seed)?;
    let mut conn = live.conn;
    let before = Expo::parse(&wire::expo(&mut conn)?);
    let untraced = closed_loop(&mut conn, seed, live.next_op, &live.population, window, || 0);
    let after = Expo::parse(&wire::expo(&mut conn)?);
    let epoch = Instant::now();
    let mut tracing = TracingConn::new(conn);
    let traced = closed_loop(&mut tracing, seed, live.next_op, &live.population, window, || 0);
    let mut attempted = 0;
    let mut failed = 0;
    for b in untraced.iter().chain(&traced) {
        attempted += b.attempted;
        failed += b.failed;
    }
    let spans = trace::build_spans(tracing, epoch, &live.population)?;
    trace::write_json(&spans, trace_path)?;
    let summary = trace::summarize(&spans);
    live.daemon.kill();

    let quiet_of = |blocks: &[workloads::Block], f: &dyn Fn(&workloads::Block) -> Option<f64>| {
        workloads::quiet(&blocks.iter().filter_map(f).collect::<Vec<f64>>())
            .ok_or_else(|| io::Error::other("the traced window was too short for one full block"))
    };
    let us = |value: f64| Metric { value, unit: "us" };
    let plain = quiet_of(&untraced, &|b| b.us_per_op())?;
    let with_trace = quiet_of(&traced, &|b| b.us_per_op())?;
    table.insert(
        "trace.overhead_frac".into(),
        Metric { value: 1.0 - plain / with_trace, unit: "ratio" },
    );
    let wire_p50 = quiet_of(&untraced, &|b| b.verb_p50_us(Verb::Heartbeat))?;
    let served = after.hist_since(&before, "server.verb.heartbeat").mean * 1e6;
    table.insert("proto.wire_gap_us".into(), us(wire_p50 - served));
    // Client side, then server side, of one heartbeat.
    let layers_ns: f64 = [
        "proto.request_to_text.ns",
        "proto.frame_encode.ns",
        "proto.frame_decode.ns",
        "proto.request_parse.heartbeat_ns",
        "proto.dispatch.heartbeat_ns",
        "proto.response_to_text.ok_ns",
        "proto.frame_encode.ns",
        "proto.frame_decode.ns",
        "proto.response_parse.ns",
    ]
    .iter()
    .filter_map(|name| table.get(*name).map(|m| m.value))
    .sum();
    table.insert("trace.accounting_gap_us".into(), us(wire_p50 - layers_ns / 1e3));
    notes.push(format!(
        "heartbeat: {wire_p50:.2} us on the wire, {:.2} us in the layers, {served:.2} us as served",
        layers_ns / 1e3
    ));

    // One slice of each workload at the issue's sizes.
    let short = Env { setups: 1, ..env.clone() };
    for workload in Workload::ALL {
        let mut outcome = workloads::run(&short, workload, Scale::Paper, seed, slice)?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        notes.extend(outcome.notes.drain(..).map(|n| format!("{}: {n}", workload.name())));
        let detail = &mut outcome.detail;
        match workload {
            Workload::SteadyWal => {
                for (declared, source) in WAL_WINDOW {
                    adopt(&mut table, detail, declared, source)?;
                }
                for name in ["wal.appends_per_op", "wal.checkpoints"] {
                    adopt(&mut table, detail, name, name)?;
                }
            }
            Workload::SteadyMem => {
                // Its WAL counts read 0 and are `steady_wal`'s to report.
                detail.retain(|name, _| !name.starts_with("wal."));
                for name in detail.keys().cloned().collect::<Vec<_>>() {
                    adopt(&mut table, detail, &name, &name)?;
                }
            }
            Workload::Churn | Workload::Recover => {
                for name in detail.keys().cloned().collect::<Vec<_>>() {
                    adopt(&mut table, detail, &name, &name)?;
                }
            }
        }
    }
    Ok(Traced { table, attempted, failed, spans: summary, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 12,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
      "per_layer": [{"name": "wal.append.ns", "unit": "ns", "better": "lower"}]
    }"#;

    fn metric(value: f64, unit: &'static str) -> Metric {
        Metric { value, unit }
    }

    #[test]
    fn spec_parses_and_its_shape_is_checked() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end[1].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].unit, "ns");
        assert_eq!(spec.run_seconds, 12.0);
        for (from, to) in [
            ("\"bound\": 0.1", "\"bound\": 0.3"),
            ("\"name\": \"b\"", "\"name\": \"a\""),
            ("setup_s", "set_up_s"),
            ("\"better\": \"higher\"", "\"better\": \"more\""),
            ("\"run_seconds\": 12", "\"run_seconds\": 61"),
            ("\"why\": \"y\"", "\"why\": \"\""),
        ] {
            assert!(Spec::parse(&SPEC.replace(from, to)).is_err(), "{from} -> {to} accepted");
        }
    }

    #[test]
    fn committed_benchmark_json_is_what_the_code_measures() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).unwrap();
        assert_eq!(spec.workloads.len(), WORKLOADS.len());
        assert_eq!(spec.per_layer.len(), PER_LAYER.len());
        assert!(std::fs::metadata(&path).unwrap().len() < 64 << 10);
        let longest = spec.per_layer.iter().map(|d| d.name.len()).max().unwrap();
        assert!(longest <= 64, "{longest}");
    }

    #[test]
    fn measured_metrics_must_match_the_declared_ones() {
        let spec = Spec::parse(SPEC).unwrap();
        let mut m = BTreeMap::new();
        m.insert("setup_s".to_owned(), metric(1.5, "s"));
        assert!(check_against(&spec.end_to_end, &m).is_err());
        m.insert("ops_per_s".to_owned(), metric(9.0, "1/s"));
        assert!(check_against(&spec.end_to_end, &m).is_ok());
        m.insert("extra".to_owned(), metric(1.0, "s"));
        assert!(check_against(&spec.end_to_end, &m).is_err());
        m.remove("extra");
        m.insert("ops_per_s".to_owned(), metric(9.0, "ms"));
        assert!(check_against(&spec.end_to_end, &m).is_err());
    }

    /// The traced pass's table is checked against every declared name:
    /// take one measurement away and the check names it; nothing stands in
    /// for a figure a slice did not produce, and no slice overwrites
    /// another's.
    #[test]
    fn a_per_layer_metric_that_was_not_measured_is_refused() {
        let spec = Spec::parse(&benchmark_json()).unwrap();
        let mut table: Table =
            PER_LAYER.iter().map(|&(name, unit, _)| (name.to_owned(), metric(1.0, unit))).collect();
        assert!(check_against(&spec.per_layer, &table).is_ok());
        table.remove("recover_ms");
        let err = check_against(&spec.per_layer, &table).unwrap_err().to_string();
        assert_eq!(err, "recover_ms not measured");

        let mut detail = BTreeMap::new();
        detail.insert("window.ops_per_s".to_owned(), metric(9.0, "1/s"));
        let err = adopt(&mut table, &mut detail, "recover_ms", "recover_ms").unwrap_err();
        assert_eq!(err.to_string(), "recover_ms: recover_ms not measured");
        adopt(&mut table, &mut detail, "recover_ms", "window.ops_per_s").unwrap();
        detail.insert("window.ops_per_s".to_owned(), metric(9.0, "1/s"));
        let err = adopt(&mut table, &mut detail, "recover_ms", "window.ops_per_s").unwrap_err();
        assert_eq!(err.to_string(), "recover_ms measured twice");
    }

    /// Every `wal.window.*` name is declared, and so is its source.
    #[test]
    fn the_wal_window_names_are_declared() {
        let declared = |name: &str| PER_LAYER.iter().any(|&(n, _, _)| n == name);
        assert!(WAL_WINDOW.iter().all(|&(to, from)| declared(to) && declared(from)));
    }

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_four_keys() {
        let mut m = BTreeMap::new();
        m.insert("latency_ms".to_owned(), metric(1.2034, "ms"));
        m.insert("setup_s".to_owned(), metric(0.8127, "s"));
        let line = result_line(1000, 0, &m);
        assert!(!line.contains('\n'));
        let Content::Map(pairs) = serde_json::from_str_content(&line).unwrap() else { panic!() };
        let keys: Vec<&Content> = pairs.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(
            field(&serde_json::from_str_content(&line).unwrap(), "correct"),
            Some(&Content::Bool(true))
        );
        assert!(line.contains("\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        assert!(result_line(10, 1, &m).contains("\"correct\": false"));
    }
}
