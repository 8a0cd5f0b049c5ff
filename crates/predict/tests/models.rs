//! Cross-model integration tests: the predictors agree where they should
//! and diverge exactly where the paper says the default model is weak.

use harmony_predict::{
    model_for_option, DefaultModel, InteractiveModel, LogPParams, PredictionContext, Predictor,
};
use harmony_resources::{Cluster, Matcher};
use harmony_rsl::expr::MapEnv;
use harmony_rsl::schema::parse_bundle_script;
use harmony_rsl::Value;

fn sp2(n: usize) -> Cluster {
    Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(n)).unwrap()
}

#[test]
fn default_and_explicit_agree_when_the_curve_is_ideal() {
    // A bundle whose performance tag encodes exactly `total/workers` — the
    // default model's own assumption — must match the explicit model.
    let src = "harmonyBundle a b { {o \
        {variable w {1 2 4}} \
        {node worker {replicate w} {seconds {1200 / w}} {memory 1}} \
        {performance {1 1200} {2 600} {4 300}}} }";
    let bundle = parse_bundle_script(src).unwrap();
    let opt = &bundle.options[0];
    let cluster = sp2(4);
    for workers in [1i64, 2, 4] {
        let mut vars = MapEnv::new();
        vars.set("w", Value::Int(workers));
        let alloc = Matcher::default().match_option(&cluster, opt, &vars).unwrap();
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, opt);
        let explicit = model_for_option(opt).predict(&ctx).unwrap().response_time;
        let default = DefaultModel::new().predict(&ctx).unwrap().response_time;
        assert!(
            (explicit - default).abs() < 1e-6,
            "workers={workers}: explicit {explicit} vs default {default}"
        );
    }
}

#[test]
fn default_model_misses_communication_penalties_the_curve_captures() {
    // The bag's real curve turns up past 5 workers (communication), which
    // `seconds/workers` alone cannot represent: the default model keeps
    // predicting improvement with more nodes.
    let bag = "harmonyBundle a b { {o \
        {variable w {4 8}} \
        {node worker {replicate w} {seconds {1200 / w}} {memory 1}} \
        {performance {4 340} {8 430}}} }";
    let bundle = parse_bundle_script(bag).unwrap();
    let opt = &bundle.options[0];
    let cluster = sp2(8);
    let rt = |workers: i64, model: &dyn Predictor| {
        let mut vars = MapEnv::new();
        vars.set("w", Value::Int(workers));
        let alloc = Matcher::default().match_option(&cluster, opt, &vars).unwrap();
        let ctx = PredictionContext::hypothetical(&cluster, &alloc, opt);
        model.predict(&ctx).unwrap().response_time
    };
    let explicit = model_for_option(opt);
    assert!(rt(8, explicit.as_ref()) > rt(4, explicit.as_ref()), "curve knows 8 is worse");
    let default = DefaultModel::new();
    assert!(rt(8, &default) < rt(4, &default), "default model thinks 8 is better");
}

#[test]
fn logp_converges_to_bandwidth_for_bulk_transfers() {
    let src = "harmonyBundle a b { {o \
        {node x {seconds 1} {memory 1}} {node y {seconds 1} {memory 1}} \
        {communication 200}} }";
    let bundle = parse_bundle_script(src).unwrap();
    let opt = &bundle.options[0];
    let cluster = sp2(2);
    let alloc = Matcher::default().match_option(&cluster, opt, &MapEnv::new()).unwrap();
    let ctx = PredictionContext::hypothetical(&cluster, &alloc, opt);
    let bw = DefaultModel::new().predict(&ctx).unwrap();
    let mut params = LogPParams::sp2_switch();
    params.message_bytes = (1 << 20) as f64; // 1 MB messages: negligible overhead
    let logp = DefaultModel::with_logp(params).predict(&ctx).unwrap();
    let ratio = logp.comm_time / bw.comm_time;
    // The sim link is 320 Mbit/s; LogP's G is 40 MB/s — same wire rate, so
    // with big messages the two models agree on communication time.
    assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
}

#[test]
fn mva_matches_the_default_contention_model_at_saturation() {
    // With zero think time, MVA's R(k) = k·s is exactly the default
    // model's k× contention stretch.
    let m = InteractiveModel::new(4.0, 0.0);
    let src = "harmonyBundle a b { {o {node x {seconds 4} {memory 1}}} }";
    let bundle = parse_bundle_script(src).unwrap();
    let opt = &bundle.options[0];
    let mut cluster = sp2(1);
    for k in 1..=4u32 {
        // k committed copies of the same job on one node.
        let alloc = Matcher::default().match_option(&cluster, opt, &MapEnv::new()).unwrap();
        cluster.commit(&alloc).unwrap();
        let ctx = PredictionContext::committed(&cluster, &alloc, opt);
        let predicted = DefaultModel::new().predict(&ctx).unwrap().response_time;
        assert!(
            (predicted - m.response_time(k)).abs() < 1e-9,
            "k={k}: default {predicted} vs MVA {}",
            m.response_time(k)
        );
    }
}
