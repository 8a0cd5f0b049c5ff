//! The traced run: spans around the calls into each layer, recorded from
//! the benchmark's own files, held in memory and written out at the end.
//!
//! One request in [`SAMPLE_EVERY`] is traced. Over the wire the client side
//! is stamped after each of its steps (`e2e.request ⊃ client.*`). This
//! change may not instrument the program, so what happens inside
//! `client.wait_reply` is reconstructed afterwards by making the identical
//! calls in-process on standalone instances — the server's codec steps and
//! `proto.handle_request`, and below that the controller and registry calls
//! the verb makes — and attaching those spans to the wire span that caused
//! them. Replayed spans carry `"source":"replay"` and are laid out
//! back-to-back from the moment the request was written.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use harmony_core::{Controller, ControllerConfig, InstanceId, JournalKind};
use harmony_proto::{frame, handle_request, Request, Response, SharedController};
use harmony_resources::Cluster;
use parking_lot::RwLock;

use crate::gen::Instance;
use crate::stats::median;
use crate::wire::{self, CallStamps, Caller, Conn};

/// One request in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request all of its spans share.
    pub request: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The causing span's name within the same request.
    pub parent: Option<&'static str>,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// `wire` (stamped on the live connection) or `replay`.
    pub source: &'static str,
}

/// A connection that stamps every call and keeps every
/// [`SAMPLE_EVERY`]-th.
#[derive(Debug)]
pub struct TracingConn {
    conn: Conn,
    calls: u64,
    sampled: Vec<(u64, Request, CallStamps)>,
}

impl TracingConn {
    /// Wraps a live connection.
    pub fn new(conn: Conn) -> Self {
        TracingConn { conn, calls: 0, sampled: Vec::new() }
    }
}

impl Caller for TracingConn {
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let (resp, stamps) = self.conn.call_stamped(req)?;
        self.calls += 1;
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push((self.calls, req.clone(), stamps));
        }
        Ok(resp)
    }
}

/// Appends sequential child spans of `parent` starting at `cursor`.
struct Layout<'a> {
    spans: &'a mut Vec<Span>,
    request: u64,
}

impl Layout<'_> {
    /// Times `f`, records it as `name` under `parent` starting at `at`,
    /// and returns where it ended.
    fn replay<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        at: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let t0 = Instant::now();
        let result = std::hint::black_box(f());
        let end = at + t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request: self.request,
            name,
            parent: Some(parent),
            start_ns: at,
            end_ns: end,
            source: "replay",
        });
        (result, end)
    }
}

/// A standalone controller with the traced population's instance ids, for
/// replaying sampled requests.
fn replay_controller(population: &[Instance]) -> io::Result<SharedController> {
    let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(8))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let shared: SharedController =
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    let got = wire::populate(&mut wire::Local(&shared), population.len())?;
    if got != population {
        return Err(io::Error::other("the replay controller named its instances differently"));
    }
    Ok(shared)
}

/// Turns the sampled calls of a traced window into spans: the stamped wire
/// spans, and under each `client.wait_reply` the replayed server side.
///
/// # Errors
///
/// Failure to build the replay controller.
pub fn build_spans(
    traced: TracingConn,
    epoch: Instant,
    population: &[Instance],
) -> io::Result<Vec<Span>> {
    let shared = replay_controller(population)?;
    let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut spans = Vec::with_capacity(traced.sampled.len() * 14);
    for (request, req, s) in traced.sampled {
        let wire = |name, parent, a: Instant, b: Instant| Span {
            request,
            name,
            parent,
            start_ns: since(a),
            end_ns: since(b),
            source: "wire",
        };
        spans.push(wire("e2e.request", None, s.start, s.parsed));
        spans.push(wire("client.request_to_text", Some("e2e.request"), s.start, s.encoded));
        spans.push(wire("client.write_frame", Some("e2e.request"), s.encoded, s.written));
        spans.push(wire("client.wait_reply", Some("e2e.request"), s.written, s.replied));
        spans.push(wire("client.response_parse", Some("e2e.request"), s.replied, s.parsed));

        let mut layout = Layout { spans: &mut spans, request };
        let text = req.to_text();
        let framed = frame::encode(&text)?;
        let at = since(s.written);
        let (_, at) = layout.replay("proto.frame_decode", "client.wait_reply", at, || {
            frame::decode(&mut BytesMut::from(&framed[..]))
        });
        let (_, at) =
            layout.replay("proto.request_parse", "client.wait_reply", at, || Request::parse(&text));
        let handled_from = at;
        let (resp, at) = layout.replay("proto.handle_request", "client.wait_reply", at, || {
            handle_request(&shared, &req)
        });
        let (reply, at) =
            layout.replay("proto.response_to_text", "client.wait_reply", at, || resp.to_text());
        let _ =
            layout.replay("proto.frame_encode", "client.wait_reply", at, || frame::encode(&reply));
        replay_inside_handle_request(&mut layout, &shared, &req, handled_from);
    }
    Ok(spans)
}

/// The controller and registry calls `handle_request` makes for `req`,
/// each made again on its own and attached under `proto.handle_request`.
fn replay_inside_handle_request(
    layout: &mut Layout<'_>,
    shared: &SharedController,
    req: &Request,
    at: u64,
) {
    const TOP: &str = "proto.handle_request";
    let ctl = shared.read();
    let metrics = ctl.metrics().clone();
    match req {
        Request::Heartbeat { app, id } => {
            let instance = InstanceId::new(app.clone(), *id);
            let (_, at) = layout.replay("core.touch", TOP, at, || ctl.touch(&instance));
            layout.replay("metrics.observe", TOP, at, || {
                metrics.observe("server.verb.heartbeat", 1e-6)
            });
        }
        Request::Poll { app, id } => {
            let instance = InstanceId::new(app.clone(), *id);
            let (_, at) = layout.replay("core.touch", TOP, at, || ctl.touch(&instance));
            let (_, at) = layout
                .replay("core.take_pending_vars", TOP, at, || ctl.take_pending_vars(&instance));
            layout.replay("metrics.observe", TOP, at, || metrics.observe("server.verb.poll", 1e-6));
        }
        Request::Metric { name, time, value } => {
            let (_, at) = layout.replay("core.touch", TOP, at, || ctl.touch_for_metric(name));
            let inner_from = at;
            let (_, at) = layout
                .replay("core.record_metric", TOP, at, || ctl.record_metric(name, *time, *value));
            layout
                .replay("metrics.observe", TOP, at, || metrics.observe("server.verb.metric", 1e-6));
            const INNER: &str = "core.record_metric";
            let (_, t) = layout.replay("metrics.record", INNER, inner_from, || {
                metrics.record(name, *time, *value)
            });
            let (_, t) =
                layout.replay("metrics.observe", INNER, t, || metrics.observe(name, *value));
            layout.replay("core.journal_append", INNER, t, || {
                ctl.journal_append(JournalKind::Event, format!("metric {name} {value}"))
            });
        }
        _ => {}
    }
}

/// Per span name: how many, the median duration, and the median self time
/// (duration minus the part its child spans cover), in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// Spans of this name.
    pub count: usize,
    /// Median duration.
    pub median_us: f64,
    /// Median self time.
    pub self_us: f64,
}

/// Summarises spans by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    // Children are laid out without overlap, so the covered part of a
    // span is the sum of its children's durations, capped at its own.
    let mut covered: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry((s.request, parent)).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let children = covered.get(&(s.request, s.name)).copied().unwrap_or(0).min(total);
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(total as f64 / 1e3);
        entry.1.push((total - children) as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            (
                name,
                SpanSummary {
                    count: total.len(),
                    median_us: median(&total),
                    self_us: median(&own),
                },
            )
        })
        .collect()
}

/// Writes the spans as a JSON array, one object per span.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_json(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 128);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        let _ = write!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"source\":\"{}\"}}",
            s.request, s.name, s.start_ns, s.end_ns, s.source
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        a: u64,
        b: u64,
    ) -> Span {
        Span { request, name, parent, start_ns: a, end_ns: b, source: "wire" }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, "e2e.request", None, 0, 10_000),
            span(1, "client.write_frame", Some("e2e.request"), 0, 2_000),
            span(1, "client.wait_reply", Some("e2e.request"), 2_000, 9_000),
            span(1, "proto.handle_request", Some("client.wait_reply"), 3_000, 4_000),
            span(2, "e2e.request", None, 20_000, 26_000),
            span(2, "client.wait_reply", Some("e2e.request"), 21_000, 25_000),
        ];
        let s = summarize(&spans);
        assert_eq!(s["e2e.request"].count, 2);
        // Request 1: 10 − (2 + 7) = 1 µs; request 2: 6 − 4 = 2 µs.
        assert!((s["e2e.request"].self_us - 1.5).abs() < 1e-9);
        assert!((s["e2e.request"].median_us - 8.0).abs() < 1e-9);
        // wait_reply of request 1 has a 1 µs child; of request 2 none.
        assert!((s["client.wait_reply"].self_us - 5.0).abs() < 1e-9);
        assert!((s["proto.handle_request"].self_us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_has_one_object_per_span_with_parent_and_request() {
        let spans = vec![
            span(7, "e2e.request", None, 0, 10),
            span(7, "client.wait_reply", Some("e2e.request"), 2, 9),
        ];
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace.json");
        write_json(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = serde_json::from_str_content(&text).unwrap();
        let serde::Content::Seq(items) = parsed else { panic!("not an array") };
        assert_eq!(items.len(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":\"e2e.request\""));
        assert!(text.contains("\"request\":7"));
    }
}
