//! Metric-interface integration: registry + histogram working as the
//! pipeline Figure 1 sketches (data flows in, aggregates flow out).

use std::thread;

use harmony_metrics::{Histogram, MetricRegistry};

#[test]
fn producer_to_registry_to_histogram() {
    let registry = MetricRegistry::new();
    let name = |client: usize| format!("DBclient.{client}.response_time");

    // Producer thread: three clients reporting response times through a
    // clone of the registry (clones share state).
    let producer_reg = registry.clone();
    let producer = thread::spawn(move || {
        for client in 1..=3 {
            for q in 0..20 {
                let value = client as f64 + q as f64 * 0.01;
                producer_reg.record(&name(client), q as f64, value);
            }
        }
    });
    producer.join().unwrap();

    // Each client's histogram holds all of its reports.
    for client in 1..=3 {
        let h = registry.histogram(&name(client)).unwrap();
        assert_eq!(h.len(), 20);
        assert!((h.mean().unwrap() - (client as f64 + 0.095)).abs() < 1e-9);
    }

    // Consumer: merge the clients' histograms into one distribution.
    let mut hist = Histogram::for_response_times();
    for client in 1..=3 {
        hist.merge(&registry.histogram(&name(client)).unwrap());
    }
    assert_eq!(hist.len(), 60);
    let mean = hist.mean().unwrap();
    assert!((1.0..4.0).contains(&mean), "mean {mean}");
    assert!(hist.quantile_bound(0.99).unwrap() >= 3.0);
}

#[test]
fn per_policy_histograms_merge_for_a_global_view() {
    // Two experiment shards produce compatible histograms; the report
    // merges them.
    let shard = |offset: f64| {
        let mut h = Histogram::for_response_times();
        for i in 0..50 {
            h.record(offset + i as f64 * 0.1);
        }
        h
    };
    let mut all = shard(1.0);
    all.merge(&shard(10.0));
    assert_eq!(all.len(), 100);
    let p50 = all.quantile_bound(0.5).unwrap();
    let p99 = all.quantile_bound(0.99).unwrap();
    assert!(p50 < p99);
    assert!(all.max().unwrap() >= 14.9);
}
