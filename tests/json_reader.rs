//! What the JSON reader accepts and what it yields: generated WAL records
//! read back as written (edge floats included), the golden corpus read
//! through the generic `Content` value writes its own bytes again, and
//! the accepted-input rules the snapshot and WAL formats rely on — fields
//! in any order, unknown keys skipped, `#[serde(default)]` fields
//! optional, maps as objects or as pair arrays, integers where floats are
//! expected. Malformed text is an `Err`, never a panic.

use std::collections::BTreeMap;

use harmony_core::{
    HarmonyEvent, InstanceId, OptimizerSnapshot, PhaseTimings, SystemSnapshot, WalEvent,
};
use harmony_rsl::schema::{LinkDecl, NodeDecl};
use proptest::prelude::*;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json");

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("{FIXTURES}/{name}")).unwrap()
}

/// Floats the writer treats specially, then arbitrary bit patterns
/// (subnormals, NaN payloads, huge and tiny exponents).
fn float() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1e15,
        -1e15,
        999_999_999_999_999.0,
        9_007_199_254_740_992.0,
        1e300,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    (0usize..32, 0u64..u64::MAX).prop_map(|(pick, bits)| match EDGES.get(pick) {
        Some(&edge) => edge,
        None => f64::from_bits(bits),
    })
}

/// Any code point below U+0800: controls, quotes, backslash, DEL and
/// two-byte UTF-8.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x800, 0..12)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

fn wal_event() -> impl Strategy<Value = WalEvent> {
    (0usize..19, (float(), float(), float()), (text(), 0u64..u64::MAX)).prop_map(
        |(kind, (now, a, b), (name, n))| {
            let id = InstanceId { app: name.clone(), id: n };
            let event = |event| WalEvent::Event { now, event };
            match kind {
                0 => event(HarmonyEvent::BundleSetup { instance: id, script: name }),
                1 => event(HarmonyEvent::Reattach { instance: id }),
                2 => event(HarmonyEvent::Periodic),
                3 => event(HarmonyEvent::NodeJoined(NodeDecl::new(name, a, b))),
                4 => event(HarmonyEvent::LinkJoined(LinkDecl::new(name, "b", a).with_latency(b))),
                5 => event(HarmonyEvent::NodeLeft { name }),
                6 => WalEvent::Startup { now, app: name },
                7 => WalEvent::End { now, id },
                8 => WalEvent::Renew { now, id },
                9 => WalEvent::Reattach { now, id },
                10 => WalEvent::Disconnect { now, id },
                11 => WalEvent::Touch { now, id },
                12 => WalEvent::Poll { now, id },
                13 | 14 => WalEvent::Metric { now, name, time: a, value: b },
                15 => WalEvent::Reap { now },
                16 => WalEvent::Tick { now },
                17 => WalEvent::Flush { now },
                _ => WalEvent::Reevaluate { now },
            }
        },
    )
}

/// True when the record holds no NaN, so `==` can compare it.
fn nan_free(json: &str) -> bool {
    !json.contains("NaN")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// A record reads back into the event that wrote it: equal where the
    /// floats are comparable, and writing the same bytes again always
    /// (which also tells `-0.0` from `0.0`).
    #[test]
    fn a_generated_wal_record_reads_back_as_written(ev in wal_event()) {
        let json = serde_json::to_string(&ev).unwrap();
        let back: WalEvent = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json.clone());
        if nan_free(&json) {
            prop_assert_eq!(back, ev.clone());
        }
        let pretty = serde_json::to_string_pretty(&ev).unwrap();
        let back: WalEvent = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}

const COMPACT: [&str; 9] = [
    "system_snapshot",
    "wal_events",
    "persisted_state",
    "journal_tail",
    "lint_fig2b",
    "lint_broken",
    "facts_fig2b",
    "harness_artifact",
    "wal_events.jsonl",
];

/// The corpus as a list of compact documents (one per WAL line).
fn compact_corpus() -> Vec<String> {
    COMPACT
        .iter()
        .flat_map(|name| match name.strip_suffix(".jsonl") {
            Some(_) => fixture(name).lines().map(str::to_owned).collect::<Vec<_>>(),
            None => vec![fixture(&format!("{name}.json"))],
        })
        .collect()
}

#[test]
fn the_corpus_reads_back_through_the_generic_value() {
    for doc in compact_corpus() {
        let content = serde_json::from_str_content(&doc).unwrap();
        assert_eq!(serde_json::content_to_string(&content), doc);
    }
    for name in &COMPACT[..8] {
        let pretty = serde_json::from_str_content(&fixture(&format!("{name}.pretty.json")));
        let compact = fixture(&format!("{name}.json"));
        assert_eq!(serde_json::content_to_string(&pretty.unwrap()), compact, "{name}");
    }
}

#[test]
fn fields_read_in_any_order_and_the_first_of_a_repeated_key_wins() {
    let id: InstanceId = serde_json::from_str(r#"{"id":3,"app":"bag"}"#).unwrap();
    assert_eq!(id, InstanceId::new("bag", 3));
    let id: InstanceId = serde_json::from_str(r#"{"app":"a","id":1,"app":"b"}"#).unwrap();
    assert_eq!(id, InstanceId::new("a", 1));
}

#[test]
fn an_unknown_key_is_skipped_whatever_it_holds() {
    let json =
        r#"{"app":"bag","extra":{"a":[1,-2.5e3,{"b":null}],"c":"x\"y","d":[]},"id":3,"z":NaN}"#;
    let id: InstanceId = serde_json::from_str(json).unwrap();
    assert_eq!(id, InstanceId::new("bag", 3));
    // An unknown key must still be well-formed JSON.
    assert!(serde_json::from_str::<InstanceId>(r#"{"app":"bag","x":[1,,2],"id":3}"#).is_err());
}

#[test]
fn a_missing_default_field_takes_its_default_and_a_missing_required_one_is_an_error() {
    let old = r#"{"searches":1,"evals":2,"infeasible":3,"cache_hits":4,"cache_misses":5,"cache_size":6,"last_wall_ms":0.5}"#;
    let opt: OptimizerSnapshot = serde_json::from_str(old).unwrap();
    assert_eq!((opt.searches, opt.last_wall_ms, opt.planner_trials), (1, 0.5, 0));
    let phases: PhaseTimings = serde_json::from_str("{}").unwrap();
    assert_eq!(phases, PhaseTimings::default());
    let snap =
        r#"{"time":1.0,"objective":230.0,"objective_name":"x","apps":[],"nodes":[],"decisions":0}"#;
    let snap: SystemSnapshot = serde_json::from_str(snap).unwrap();
    assert_eq!((snap.persistence, snap.journal_seq), (None, 0));
    assert!(serde_json::from_str::<InstanceId>(r#"{"app":"bag"}"#).is_err());
    assert!(serde_json::from_str::<OptimizerSnapshot>(r#"{"searches":1}"#).is_err());
}

#[test]
fn a_map_reads_from_an_object_or_from_pairs() {
    let want: BTreeMap<String, u32> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
    assert_eq!(serde_json::from_str::<BTreeMap<String, u32>>(r#"{"b":2,"a":1}"#).unwrap(), want);
    assert_eq!(
        serde_json::from_str::<BTreeMap<String, u32>>(r#"[["a",1],["b",2]]"#).unwrap(),
        want
    );
    assert_eq!(serde_json::from_str::<BTreeMap<String, u32>>("[]").unwrap(), BTreeMap::new());
    // A repeated key: the last one wins, as inserting in order does.
    let m: BTreeMap<String, u32> = serde_json::from_str(r#"{"a":1,"a":5}"#).unwrap();
    assert_eq!(m["a"], 5);
    let ids: BTreeMap<InstanceId, u32> =
        serde_json::from_str(r#"[[{"app":"bag","id":1},7]]"#).unwrap();
    assert_eq!(ids[&InstanceId::new("bag", 1)], 7);
    // Integer keys read from pairs only; a pair has exactly two elements.
    assert_eq!(serde_json::from_str::<BTreeMap<u32, u32>>("[[1,2]]").unwrap()[&1], 2);
    assert!(serde_json::from_str::<BTreeMap<u32, u32>>(r#"{"1":2}"#).is_err());
    assert!(serde_json::from_str::<BTreeMap<u32, u32>>("[[1,2,3]]").is_err());
    assert!(serde_json::from_str::<BTreeMap<u32, u32>>("[[1]]").is_err());
}

#[test]
fn an_integer_reads_as_a_float_but_not_the_reverse() {
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(serde_json::from_str::<f64>("18446744073709551615").unwrap(), u64::MAX as f64);
    assert_eq!(serde_json::from_str::<f64>("100000000000000000000").unwrap(), 1e20);
    // `-0` is the integer zero, so it reads as +0.0; `-0.0` keeps its sign.
    assert_eq!(serde_json::from_str::<f64>("-0").unwrap().to_bits(), 0);
    assert_eq!(serde_json::from_str::<f64>("-0.0").unwrap().to_bits(), (-0.0f64).to_bits());
    let ev: WalEvent = serde_json::from_str(r#"{"Reap":{"now":7}}"#).unwrap();
    assert_eq!(ev, WalEvent::Reap { now: 7.0 });
    assert!(serde_json::from_str::<u32>("1.0").is_err());
    assert!(serde_json::from_str::<u64>("1e2").is_err());
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u64>("-1").is_err());
    assert_eq!(serde_json::from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
}

#[test]
fn enum_and_tuple_shapes_read_as_the_parent_format_does() {
    // A unit variant also reads from a one-entry object, whatever it holds.
    let ev: HarmonyEvent = serde_json::from_str(r#"{"Periodic":[1,{"x":null}]}"#).unwrap();
    assert_eq!(ev, HarmonyEvent::Periodic);
    // Elements past a tuple's arity are skipped.
    let t: (u32, String) = serde_json::from_str(r#"[1,"a",{"x":[]},3]"#).unwrap();
    assert_eq!(t, (1, "a".to_string()));
    for bad in [
        r#"{"Reap":{"now":1.0},"Tick":{"now":1.0}}"#,
        r#"{}"#,
        r#""Reap""#,
        r#"{"Nope":{"now":1.0}}"#,
        r#"{"Reap":{"now":"1.0"}}"#,
        r#"[{"now":1.0}]"#,
    ] {
        assert!(serde_json::from_str::<WalEvent>(bad).is_err(), "{bad}");
    }
    assert!(serde_json::from_str::<(u32, String)>("[1]").is_err());
}

#[test]
fn malformed_text_is_an_error_never_a_panic() {
    for bad in [
        "",
        " ",
        "[",
        "{",
        "]",
        "}",
        "[1,]",
        "[,1]",
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        r#"{a:1}"#,
        "tru",
        "nul",
        "fals",
        "Inf",
        "-Inf",
        "-",
        "--1",
        "1.2.3",
        "1e",
        "+1",
        ".5",
        "1 2",
        r#""unterminated"#,
        r#""\x""#,
        r#""\u12""#,
        r#""\ud800""#,
        r#""\u12G4""#,
        "[1 2]",
        r#"{"app":"bag","id":1}}"#,
        "nan",
        "NaN1",
        "\u{0}",
    ] {
        assert!(serde_json::from_str_content(bad).is_err(), "{bad:?}");
        let _ = serde_json::from_str::<WalEvent>(bad);
        let _ = serde_json::from_str::<SystemSnapshot>(bad);
    }
    // Every prefix and every single-byte change of real documents.
    let mut docs = vec![fixture("system_snapshot.json")];
    docs.extend(fixture("wal_events.jsonl").lines().map(str::to_owned));
    for doc in &docs {
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let _ = serde_json::from_str::<SystemSnapshot>(&doc[..cut]);
            let _ = serde_json::from_str::<WalEvent>(&doc[..cut]);
            let _ = serde_json::from_str_content(&doc[..cut]);
        }
        for at in 0..doc.len() {
            for byte in [b'"', b'\\', b'{', b']', b',', b'0', b'-', b'N', b' '] {
                let mut bytes = doc.clone().into_bytes();
                bytes[at] = byte;
                if let Ok(text) = String::from_utf8(bytes) {
                    let _ = serde_json::from_str::<SystemSnapshot>(&text);
                    let _ = serde_json::from_str::<WalEvent>(&text);
                }
            }
        }
    }
}
