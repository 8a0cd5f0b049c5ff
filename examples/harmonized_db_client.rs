//! A "harmonized" database client, structured exactly like the paper's §6
//! application: it registers with Harmony, exports the Figure 3 bundle,
//! reads the `where` variable at the start of every query (databases
//! "need to complete the current query before reconfiguring"), executes
//! the query for real against Wisconsin relations, and reports response
//! times through the metric interface.
//!
//! ```text
//! cargo run --release --example harmonized_db_client
//! ```

use std::sync::Arc;

use harmony::client::{HarmonyClient, UpdateDelivery};
use harmony::core::{Controller, ControllerConfig};
use harmony::db::{BufferPool, CostModel, QueryEngine, Workload, WorkloadConfig};
use harmony::proto::LocalTransport;
use harmony::resources::Cluster;
use harmony::rsl::{listings, Value};
use parking_lot::RwLock;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The metacomputer: one database server plus three client machines.
    let mut rsl =
        String::from("harmonyNode server {speed 1.0} {memory 256} {hostname harmony.cs.umd.edu}\n");
    for i in 1..=3 {
        rsl.push_str(&format!("harmonyNode client{i} {{speed 1.0}} {{memory 64}}\n"));
        rsl.push_str(&format!("harmonyLink server client{i} {{bandwidth 320}}\n"));
    }
    let controller = Arc::new(RwLock::new(Controller::new(
        Cluster::from_rsl(&rsl)?,
        ControllerConfig::default(),
    )));

    // The data: two Wisconsin relations (shrunk for example runtime).
    let tuples = 20_000;
    let engine = QueryEngine::wisconsin(tuples, 7);
    let cost = CostModel::default();

    // Our application registers and exports the Figure 3 bundle.
    let mut app = HarmonyClient::startup(
        LocalTransport::new(Arc::clone(&controller)),
        "DBclient",
        UpdateDelivery::Polling,
    )?;
    let where_var = app.add_variable("where", Value::Str("QS".into()));
    let memory_var = app.add_variable("where.DS.client.memory", Value::Float(0.0));
    app.bundle_setup(listings::FIG3_DBCLIENT)?;
    app.poll()?;
    println!(
        "{} registered; initial mode {} (client cache {} MB)",
        app.instance_name(),
        where_var.get(),
        memory_var.get()
    );

    let mut workload =
        Workload::new(WorkloadConfig { tuples, selectivity: 0.1, drift: 0.02 }, 0, 1);
    let mut server_pool = BufferPool::with_megabytes(64.0);
    let mut client_pool = BufferPool::with_megabytes(17.0);

    // Two rival clients arrive while we run our query loop.
    let rivals_at = [4usize, 8];
    let mut rivals = Vec::new();

    for i in 0..12usize {
        if rivals_at.contains(&i) {
            let mut rival = HarmonyClient::startup(
                LocalTransport::new(Arc::clone(&controller)),
                "DBclient",
                UpdateDelivery::Polling,
            )?;
            rival.bundle_setup(listings::FIG3_DBCLIENT)?;
            println!("-- rival {} arrived --", rival.instance_name());
            rivals.push(rival);
        }

        // §5: poll at the natural phase boundary — between queries.
        app.poll()?;
        let mode = where_var.as_str().unwrap_or_else(|| "QS".into());
        if let Value::Float(mb) = memory_var.get() {
            let granted = BufferPool::with_megabytes(mb).capacity();
            if mb > 0.0 && client_pool.capacity() != granted {
                client_pool.resize(granted);
            }
        }

        // Execute the query for real in the chosen mode.
        let q = workload.next_query();
        let (profile, results) = if mode == "DS" {
            let (out, stats) = engine.execute_hash(&q, &mut client_pool);
            (cost.data_shipping(&stats), out.len())
        } else {
            let (out, stats) = engine.execute_hash(&q, &mut server_pool);
            (cost.query_shipping(&stats), out.len())
        };
        let response =
            profile.server_seconds + profile.client_seconds + profile.transfer_mb * 8.0 / 320.0;
        app.report_metric("response_time", i as f64, response)?;
        println!(
            "query {i:>2}: mode {mode}  {results:>4} results  \
             ~{response:.2}s (server {:.2}s, client {:.2}s, {:.2} MB moved)",
            profile.server_seconds, profile.client_seconds, profile.transfer_mb
        );
    }

    // The metric interface accumulated our measurements.
    let histogram = controller
        .read()
        .metrics()
        .histogram(&format!("{}.response_time", app.instance_name()))
        .expect("metrics recorded");
    println!(
        "\nreported {} samples, mean {:.2}s; final mode {}",
        histogram.len(),
        histogram.mean().unwrap_or(0.0),
        where_var.get()
    );

    for rival in rivals {
        rival.end()?;
    }
    app.end()?;
    Ok(())
}
