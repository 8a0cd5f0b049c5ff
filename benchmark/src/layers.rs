//! The per-layer numbers: public functions of each crate on the serving
//! path, timed in-process on the same seeded request sequence the wire
//! workloads send.
//!
//! Nothing here instruments the program: each figure is the median time of
//! a call made from this file, around the layer boundary (`<crate>.<call>`).
//! Calls that take nanoseconds are timed in batches of 100 and the median
//! batch is reported per call; longer calls are timed one by one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use harmony_client::{HarmonyClient, UpdateDelivery};
use harmony_core::optimizer::EvalCtx;
use harmony_core::{
    Controller, ControllerConfig, HarmonyEvent, InstanceId, JournalKind, StateStore, WalEvent,
};
use harmony_metrics::MetricRegistry;
use harmony_ns::{HPath, Namespace};
use harmony_predict::{model_for_option, PredictionContext};
use harmony_proto::{frame, handle_request, LocalTransport, Request, Response, SharedController};
use harmony_resources::{Cluster, Matcher};
use harmony_rsl::expr::MapEnv;
use harmony_rsl::schema::parse_bundle_script;
use harmony_rsl::Value;
use harmony_wal::{StateDir, WalConfig, WalWriter};
use parking_lot::RwLock;

use crate::gen::{bundle_script, op_at, request_for, Instance, Verb, APP};
use crate::stats::median;
use crate::wire;
use crate::workloads::Metric;

/// The per-layer table: metric name to value and unit.
pub type Table = BTreeMap<String, Metric>;

/// Calls per timed batch of a nanosecond-scale function.
const BATCH: usize = 100;

/// How much work each layer figure is measured over.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Batches of [`BATCH`] calls for nanosecond-scale functions
    /// (1 000 → the 100 000 iterations the figures are sized by).
    pub batches: usize,
    /// Calls of a microsecond-scale function.
    pub calls: usize,
    /// Repetitions of a millisecond-scale function.
    pub reps: usize,
}

impl Effort {
    /// Full-size measurement.
    pub const FULL: Effort = Effort { batches: 1000, calls: 2000, reps: 9 };
    /// 1/50 of it.
    pub const SMOKE: Effort = Effort { batches: 20, calls: 40, reps: 3 };
}

/// Median nanoseconds per call of `f`, timed in batches; `make` builds
/// each call's input outside the timed region.
fn per_call_ns<I>(batches: usize, mut make: impl FnMut(usize) -> I, mut f: impl FnMut(I)) -> f64 {
    let mut per_batch = Vec::with_capacity(batches);
    let mut n = 0;
    for _ in 0..batches {
        let inputs: Vec<I> = (0..BATCH)
            .map(|_| {
                n += 1;
                make(n)
            })
            .collect();
        let t0 = Instant::now();
        for input in inputs {
            f(input);
        }
        per_batch.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per_batch)
}

/// Median nanoseconds of `f` over `calls` individually timed calls.
fn each_call_ns<I>(calls: usize, mut make: impl FnMut(usize) -> I, mut f: impl FnMut(I)) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|n| {
            let input = make(n);
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Keeps a result the optimiser must not discard, then drops it.
fn sink<T>(value: T) {
    black_box(value);
}

struct Out<'a>(&'a mut Table);

impl Out<'_> {
    fn ns(&mut self, name: &str, ns: f64) {
        self.0.insert(name.to_owned(), Metric { value: ns, unit: "ns" });
    }
    fn us(&mut self, name: &str, ns: f64) {
        self.0.insert(name.to_owned(), Metric { value: ns / 1e3, unit: "us" });
    }
    fn ms(&mut self, name: &str, ns: f64) {
        self.0.insert(name.to_owned(), Metric { value: ns / 1e6, unit: "ms" });
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn cluster(nodes: usize) -> io::Result<Cluster> {
    Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(nodes)).map_err(other)
}

/// A controller with `instances` standing Figure 2(b) applications,
/// registered through the protocol entry point.
fn standing(nodes: usize, instances: usize) -> io::Result<(SharedController, Vec<Instance>)> {
    let ctl = Controller::new(cluster(nodes)?, ControllerConfig::default());
    populate_shared(Arc::new(RwLock::new(ctl)), instances)
}

fn populate_shared(
    shared: SharedController,
    instances: usize,
) -> io::Result<(SharedController, Vec<Instance>)> {
    let population = wire::populate(&mut wire::Local(&shared), instances)?;
    Ok((shared, population))
}

/// The first `n` requests of `verb` in the seeded sequence.
fn requests_of(seed: u64, verb: Verb, population: &[Instance], n: usize) -> Vec<Request> {
    (0u64..)
        .map(|i| op_at(seed, i, population.len()))
        .filter(|op| op.verb == verb)
        .take(n)
        .map(|op| request_for(&op, population))
        .collect()
}

/// Times every layer; `scratch` holds the WAL files the persistence
/// figures write.
///
/// # Errors
///
/// Failures to build the standing populations or the scratch state dirs.
pub fn measure(seed: u64, effort: Effort, scratch: &Path) -> io::Result<Table> {
    let mut table = Table::new();
    let mut out = Out(&mut table);
    let (shared, population) = standing(8, 8)?;
    let mixed: Vec<Request> =
        (0..1000).map(|i| request_for(&op_at(seed, i, 8), &population)).collect();
    let texts: Vec<String> = mixed.iter().map(Request::to_text).collect();

    proto_codec(&mut out, effort, seed, &population, &mixed, &texts);
    dispatch_read_path(&mut out, effort, seed, "proto.dispatch", &shared, &population);
    core_read_path(&mut out, effort, &shared, &population);
    metrics_layer(&mut out, effort, &shared);
    client_overhead(&mut out, effort, &shared)?;
    placement_leaves(&mut out, effort)?;
    write_path(&mut out, effort, 8, 8, "core.bundle_setup_8x8.ms", false)?;
    write_path(&mut out, effort, 16, 12, "core.bundle_setup_16x12.ms", true)?;
    persistence(&mut out, effort, seed, scratch, &shared, &population)?;
    Ok(table)
}

fn proto_codec(
    out: &mut Out<'_>,
    effort: Effort,
    seed: u64,
    population: &[Instance],
    mixed: &[Request],
    texts: &[String],
) {
    let n = effort.batches;
    let at = |i: usize| i % mixed.len();
    out.ns("proto.request_to_text.ns", per_call_ns(n, |i| &mixed[at(i)], |r| sink(r.to_text())));
    out.ns("proto.frame_encode.ns", per_call_ns(n, |i| &texts[at(i)], |t| sink(frame::encode(t))));
    let frames: Vec<BytesMut> =
        texts.iter().map(|t| frame::encode(t).expect("requests are small")).collect();
    out.ns(
        "proto.frame_decode.ns",
        per_call_ns(n, |i| BytesMut::from(&frames[at(i)][..]), |mut b| sink(frame::decode(&mut b))),
    );
    for verb in Verb::ALL {
        let reqs: Vec<String> =
            requests_of(seed, verb, population, 256).iter().map(Request::to_text).collect();
        out.ns(
            &format!("proto.request_parse.{}_ns", verb.name()),
            per_call_ns(n, |i| &reqs[i % reqs.len()], |t| sink(Request::parse(t))),
        );
    }
    let bundle = Request::Bundle { app: APP.to_owned(), id: 1, script: bundle_script(1) }.to_text();
    out.ns(
        "proto.request_parse.bundle_ns",
        per_call_ns(n / 4 + 1, |_| &bundle, |t| sink(Request::parse(t))),
    );

    let ok = Response::Ok;
    let update = Response::Update {
        app: APP.to_owned(),
        id: 1,
        updates: [
            ("config", Value::Str("run".into())),
            ("config.run.workerNodes", Value::Int(4)),
            ("config.run.worker.memory", Value::Float(32.0)),
            ("config.run.worker.seconds", Value::Float(300.0)),
            ("config.run.worker.node", Value::Str("node00".into())),
            ("config.run.worker.count", Value::Int(4)),
        ]
        .into_iter()
        .map(|(p, value)| harmony_proto::VarUpdate { path: format!("{APP}.1.{p}"), value })
        .collect(),
    };
    out.ns("proto.response_to_text.ok_ns", per_call_ns(n, |_| &ok, |r| sink(r.to_text())));
    out.ns("proto.response_to_text.update_ns", per_call_ns(n, |_| &update, |r| sink(r.to_text())));
    // The replies of the steady mix: `ok` to heartbeat and metric, an empty
    // `update` to poll.
    let replies: Vec<String> = mixed
        .iter()
        .map(|r| match r {
            Request::Poll { app, id } => {
                Response::Update { app: app.clone(), id: *id, updates: vec![] }.to_text()
            }
            _ => Response::Ok.to_text(),
        })
        .collect();
    out.ns(
        "proto.response_parse.ns",
        per_call_ns(n, |i| &replies[at(i)], |t| sink(Response::parse(t))),
    );
}

fn dispatch_read_path(
    out: &mut Out<'_>,
    effort: Effort,
    seed: u64,
    prefix: &str,
    shared: &SharedController,
    population: &[Instance],
) {
    for verb in Verb::ALL {
        let reqs = requests_of(seed, verb, population, 1024);
        out.ns(
            &format!("{prefix}.{}_ns", verb.name()),
            per_call_ns(
                effort.batches,
                |i| &reqs[i % reqs.len()],
                |r| sink(handle_request(shared, r)),
            ),
        );
    }
}

fn core_read_path(
    out: &mut Out<'_>,
    effort: Effort,
    shared: &SharedController,
    population: &[Instance],
) {
    let n = effort.batches;
    let ids: Vec<InstanceId> =
        population.iter().map(|p| InstanceId::new(p.app.clone(), p.id)).collect();
    let names: Vec<String> =
        population.iter().map(|p| format!("{}.response_time", p.name())).collect();
    let ctl = shared.read();
    out.ns("core.touch.ns", per_call_ns(n, |i| &ids[i % ids.len()], |id| sink(ctl.touch(id))));
    out.ns(
        "core.take_pending_vars.ns",
        per_call_ns(n, |i| &ids[i % ids.len()], |id| sink(ctl.take_pending_vars(id))),
    );
    out.ns(
        "core.record_metric.ns",
        per_call_ns(
            n,
            |i| (&names[i % names.len()], i as f64 * 1e-3),
            |(name, t)| sink(ctl.record_metric(name, t, 1.5)),
        ),
    );
    out.ns(
        "core.journal_append.ns",
        per_call_ns(
            n,
            |i| format!("heartbeat {}", ids[i % ids.len()]),
            |detail| sink(ctl.journal_append(JournalKind::Event, detail)),
        ),
    );
    let cursor = ctl.journal_seq().saturating_sub(100);
    out.us(
        "core.journal_tail.us",
        each_call_ns(effort.calls, |_| (), |()| sink(ctl.journal_tail(cursor, 100))),
    );
}

fn metrics_layer(out: &mut Out<'_>, effort: Effort, shared: &SharedController) {
    // A clone shares the registry the standing population filled: the key
    // set, and so the map depth, is the serving path's.
    let registry: MetricRegistry = shared.read().metrics().clone();
    let n = effort.batches;
    out.ns(
        "metrics.observe.ns",
        per_call_ns(n, |_| (), |()| sink(registry.observe("server.verb.heartbeat", 1e-5))),
    );
    out.ns(
        "metrics.record.ns",
        per_call_ns(
            n,
            |i| i as f64 * 1e-3,
            |t| sink(registry.record("bag.1.response_time", t, 1.5)),
        ),
    );
    out.ns(
        "metrics.inc_counter.ns",
        per_call_ns(n, |_| (), |()| sink(registry.inc_counter("controller.reevals"))),
    );
    out.us("metrics.expose.us", each_call_ns(effort.calls, |_| (), |()| sink(registry.expose())));
}

/// What the Figure 5 client library adds on top of the bare protocol
/// call, over the in-process transport.
fn client_overhead(out: &mut Out<'_>, effort: Effort, shared: &SharedController) -> io::Result<()> {
    let n = effort.batches;
    let mut client = HarmonyClient::startup(
        LocalTransport::new(Arc::clone(shared)),
        APP,
        UpdateDelivery::Polling,
    )?;
    client.bundle_setup(&bundle_script(client.instance_id()))?;
    client.poll()?;
    let me = Instance { app: client.app().to_owned(), id: client.instance_id() };
    let poll = Request::Poll { app: me.app.clone(), id: me.id };
    let name = format!("{}.response_time", me.name());
    let bare_poll = per_call_ns(n, |_| (), |()| sink(handle_request(shared, &poll)));
    let lib_poll = per_call_ns(n, |_| (), |()| sink(client.poll()));
    out.ns("client.poll_overhead.ns", lib_poll - bare_poll);
    let bare_metric = per_call_ns(
        n,
        |i| Request::Metric { name: name.clone(), time: i as f64 * 1e-3, value: 1.5 },
        |r| sink(handle_request(shared, &r)),
    );
    let lib_metric = per_call_ns(
        n,
        |i| i as f64 * 1e-3,
        |t| sink(client.report_metric("response_time", t, 1.5)),
    );
    out.ns("client.report_metric_overhead.ns", lib_metric - bare_metric);
    client.end()?;
    Ok(())
}

/// The leaf crates a placement calls into, on the Figure 2(b) bundle.
fn placement_leaves(out: &mut Out<'_>, effort: Effort) -> io::Result<()> {
    let script = bundle_script(1);
    let calls = effort.calls;
    out.us(
        "rsl.parse_bundle.us",
        each_call_ns(calls, |_| (), |()| sink(parse_bundle_script(&script))),
    );
    out.us(
        "analyze.lint_bundle.us",
        each_call_ns(calls, |_| (), |()| sink(harmony_analyze::analyze_script(&script))),
    );
    out.us(
        "analyze.script_facts.us",
        each_call_ns(calls, |_| (), |()| sink(harmony_analyze::facts::script_facts(&script))),
    );
    let spec = parse_bundle_script(&script).map_err(other)?;
    let option = &spec.options[0];
    let cluster = cluster(16)?;
    let mut vars = MapEnv::new();
    vars.set("workerNodes", Value::Int(4));
    let matcher = Matcher::default();
    out.us(
        "resources.match_option.us",
        each_call_ns(calls, |_| (), |()| sink(matcher.match_option(&cluster, option, &vars))),
    );
    let alloc = matcher.match_option(&cluster, option, &vars).map_err(other)?;
    let model = model_for_option(option);
    out.ns(
        "predict.evaluate.ns",
        per_call_ns(
            effort.batches,
            |_| (),
            |()| {
                let ctx = PredictionContext::hypothetical(&cluster, &alloc, option);
                sink(model.predict(&ctx));
            },
        ),
    );
    let mut ns: Namespace<Value> = Namespace::new();
    let paths: Vec<HPath> = (0..64)
        .map(|i| format!("{APP}.{i}.config.run.workerNodes").parse().map_err(other))
        .collect::<io::Result<_>>()?;
    out.ns(
        "ns.set_get.ns",
        per_call_ns(
            effort.batches,
            |i| &paths[i % paths.len()],
            |p| {
                ns.set(p.clone(), Value::Int(4));
                black_box(ns.get(p));
            },
        ),
    );
    Ok(())
}

/// Arrival cycles against a standing population, alternately through the
/// protocol entry point (`proto.dispatch.*`) and straight into the
/// controller (`core.*`), then the whole-system passes.
fn write_path(
    out: &mut Out<'_>,
    effort: Effort,
    nodes: usize,
    instances: usize,
    bundle_setup_name: &str,
    full: bool,
) -> io::Result<()> {
    let (shared, _population) = standing(nodes, instances)?;
    let mut via_proto: [Vec<f64>; 3] = Default::default();
    let mut via_core: [Vec<f64>; 3] = Default::default();
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64
    };
    for _ in 0..effort.reps {
        // Through `handle_request`.
        let mut id = 0;
        via_proto[0].push(timed(&mut || {
            if let Response::Registered { id: got, .. } =
                handle_request(&shared, &Request::Startup { app: APP.to_owned() })
            {
                id = got;
            }
        }));
        let bundle = Request::Bundle { app: APP.to_owned(), id, script: bundle_script(id) };
        via_proto[1].push(timed(&mut || sink(handle_request(&shared, &bundle))));
        handle_request(&shared, &Request::Poll { app: APP.to_owned(), id });
        let end = Request::End { app: APP.to_owned(), id };
        via_proto[2].push(timed(&mut || sink(handle_request(&shared, &end))));

        // Straight into the controller, lock already held.
        let mut ctl = shared.write();
        let mut instance = InstanceId::new(APP.to_owned(), 0);
        via_core[0].push(timed(&mut || instance = ctl.startup(APP)));
        let event = HarmonyEvent::BundleSetup {
            instance: instance.clone(),
            script: bundle_script(instance.id),
        };
        via_core[1].push(timed(&mut || sink(ctl.handle_event(event.clone()))));
        ctl.take_pending_vars(&instance);
        via_core[2].push(timed(&mut || sink(ctl.end(&instance))));
    }
    out.ms(bundle_setup_name, median(&via_core[1]));
    if !full {
        return Ok(());
    }
    out.us("proto.dispatch.startup_us", median(&via_proto[0]));
    out.us("proto.dispatch.bundle_us", median(&via_proto[1]));
    out.us("proto.dispatch.end_us", median(&via_proto[2]));
    out.us("core.startup.us", median(&via_core[0]));
    out.ms("core.end.ms", median(&via_core[2]));

    let mut ctl = shared.write();
    let reps = effort.reps;
    out.ms("core.reevaluate.ms", each_call_ns(reps, |_| (), |()| sink(ctl.reevaluate())));
    out.ms(
        "core.periodic.ms",
        each_call_ns(reps, |_| (), |()| sink(ctl.handle_event(HarmonyEvent::Periodic))),
    );
    let now = ctl.now();
    out.us(
        "core.reap_expired.us",
        each_call_ns(reps * 10, |_| (), |()| sink(ctl.reap_expired(now))),
    );
    out.ms(
        "core.evalctx_build.ms",
        each_call_ns(reps, |_| (), |()| sink(EvalCtx::build(&mut ctl))),
    );
    Ok(())
}

fn persistence(
    out: &mut Out<'_>,
    effort: Effort,
    seed: u64,
    scratch: &Path,
    plain: &SharedController,
    population: &[Instance],
) -> io::Result<()> {
    let n = effort.batches;
    let id = InstanceId::new(population[0].app.clone(), population[0].id);
    let touch = WalEvent::Touch { now: 1.25, id: id.clone() };
    let metric = WalEvent::Metric {
        now: 1.25,
        name: format!("{}.response_time", population[0].name()),
        time: 1.25,
        value: 3.5,
    };
    out.ns(
        "core.wal_event_encode.touch_ns",
        per_call_ns(n, |_| &touch, |e| sink(serde_json::to_string(e))),
    );
    out.ns(
        "core.wal_event_encode.metric_ns",
        per_call_ns(n, |_| &metric, |e| sink(serde_json::to_string(e))),
    );
    let touch_json = serde_json::to_string(&touch).map_err(other)?;
    out.ns(
        "core.wal_event_decode.ns",
        per_call_ns(n, |_| &touch_json, |t| sink(serde_json::from_str::<WalEvent>(t))),
    );

    // The WAL layer on its own, on the payload the controller writes.
    let payload = touch_json.as_bytes();
    let mut encoded = Vec::with_capacity(1 << 20);
    out.ns(
        "wal.encode_record.ns",
        per_call_ns(
            n,
            |_| (),
            |()| {
                if encoded.len() > (1 << 20) - 256 {
                    encoded.clear();
                }
                harmony_wal::encode_record(payload, &mut encoded);
            },
        ),
    );
    let dir = scratch.join("layers-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = StateDir::open(&dir)?;
    let wal_path = state_dir.wal_path(1);
    let writer = WalWriter::create(&wal_path, WalConfig::default())?;
    out.ns("wal.append.ns", per_call_ns(n, |_| (), |()| sink(writer.append(payload))));
    out.us(
        "wal.sync.us",
        each_call_ns(effort.reps * 5, |_| drop(writer.append(payload)), |()| sink(writer.sync())),
    );
    drop(writer);
    let image = std::fs::read(&wal_path)?;
    let records = (harmony_wal::record_boundaries(&image).len() - 1).max(1) as f64;
    out.ns(
        "wal.decode_records.ns_per_record",
        each_call_ns(effort.reps, |_| (), |()| sink(harmony_wal::decode_records(&image))) / records,
    );
    out.ms(
        "wal.read_wal.ms",
        each_call_ns(effort.reps, |_| (), |()| sink(harmony_wal::read_wal(&wal_path))),
    );

    // The controller with a store attached: the same read path as
    // `proto.dispatch.*`, plus the WAL.
    let store_dir = scratch.join("layers-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let cluster8 = cluster(8)?;
    let (ctl, mut store) =
        StateStore::open(&store_dir, || Controller::new(cluster8, ControllerConfig::default()))
            .map_err(other)?;
    store.set_snapshot_every(0);
    let (durable, durable_population) = populate_shared(Arc::new(RwLock::new(ctl)), 8)?;
    dispatch_read_path(out, effort, seed, "proto.dispatch_wal", &durable, &durable_population);
    {
        let mut ctl = durable.write();
        out.ms(
            "wal.checkpoint.ms",
            each_call_ns(effort.reps, |_| (), |()| sink(store.checkpoint(&mut ctl))),
        );
    }

    // Snapshot and replay, at the standing state of the plain controller
    // (its journal ring and series are full after the read-path figures).
    let ctl = plain.read();
    out.ms(
        "core.persisted_state.ms",
        each_call_ns(effort.reps, |_| (), |()| sink(ctl.persisted_state())),
    );
    let state = ctl.persisted_state();
    let bytes = serde_json::to_string(&state).map_err(other)?;
    out.ms(
        "wal.write_snapshot.ms",
        each_call_ns(
            effort.reps,
            |i| i as u64 + 100,
            |gen| sink(state_dir.write_snapshot(gen, bytes.as_bytes())),
        ),
    );
    out.ms(
        "core.from_persisted.ms",
        each_call_ns(effort.reps, |_| state.clone(), |s| sink(Controller::from_persisted(s))),
    );
    let mut replica = Controller::from_persisted(state.clone()).map_err(other)?;
    let now = replica.now();
    out.ns(
        "core.apply_wal_event.ns_per_record",
        per_call_ns(
            n,
            |i| {
                let now = now + i as f64 * 1e-5;
                if i % 3 == 0 {
                    WalEvent::Metric {
                        now,
                        name: format!("{}.response_time", population[i % 8].name()),
                        time: now,
                        value: 2.5,
                    }
                } else {
                    let p = &population[i % 8];
                    WalEvent::Touch { now, id: InstanceId::new(p.app.clone(), p.id) }
                }
            },
            |e| replica.apply_wal_event(e),
        ),
    );
    drop(store);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_reports_a_positive_time() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-layers");
        std::fs::create_dir_all(&scratch).unwrap();
        let effort = Effort { batches: 2, calls: 3, reps: 2 };
        let table = measure(3, effort, &scratch).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
        for (name, m) in &table {
            // The two client figures are differences and may be tiny.
            if !name.starts_with("client.") {
                assert!(m.value > 0.0, "{name} = {}", m.value);
            }
        }
        for name in [
            "proto.frame_decode.ns",
            "proto.dispatch.heartbeat_ns",
            "proto.dispatch_wal.heartbeat_ns",
            "core.bundle_setup_16x12.ms",
            "wal.checkpoint.ms",
            "core.apply_wal_event.ns_per_record",
            "ns.set_get.ns",
        ] {
            assert!(table.contains_key(name), "{name} missing");
        }
    }
}
