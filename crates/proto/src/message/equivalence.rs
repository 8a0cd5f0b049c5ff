//! The net under the borrowing parsers: the `split`-based bodies
//! `Request::parse`, `Response::parse` and `Response::to_text` had before
//! them, kept as references, and properties holding new ≡ reference on
//! generated messages of every form and on damaged texts. Error *strings*
//! are compared too: they travel in-band and reach harness and MC logs.

use harmony_rsl::list::{split, Item};
use proptest::prelude::*;

use super::*;

fn reference_request_parse(text: &str) -> Result<Request, ParseMessageError> {
    let items = split(text).map_err(|e| ParseMessageError::new(e.to_string()))?;
    let words: Vec<&str> = items.iter().map(Item::text).collect();
    match words.as_slice() {
        ["startup", app] => Ok(Request::Startup { app: (*app).to_owned() }),
        ["bundle", instance, script] => {
            let (app, id) = parse_instance(instance)?;
            Ok(Request::Bundle { app, id, script: (*script).to_owned() })
        }
        ["poll", instance] => {
            let (app, id) = parse_instance(instance)?;
            Ok(Request::Poll { app, id })
        }
        ["metric", name, time, value] => Ok(Request::Metric {
            name: (*name).to_owned(),
            time: time.parse().map_err(|_| ParseMessageError::new("metric time not a number"))?,
            value: value
                .parse()
                .map_err(|_| ParseMessageError::new("metric value not a number"))?,
        }),
        ["heartbeat", instance] => {
            let (app, id) = parse_instance(instance)?;
            Ok(Request::Heartbeat { app, id })
        }
        ["reattach", instance] => {
            let (app, id) = parse_instance(instance)?;
            Ok(Request::Reattach { app, id })
        }
        ["end", instance] => {
            let (app, id) = parse_instance(instance)?;
            Ok(Request::End { app, id })
        }
        ["status"] => Ok(Request::Status),
        ["lint", script] => Ok(Request::Lint { script: (*script).to_owned() }),
        ["facts", script] => Ok(Request::Facts { script: (*script).to_owned() }),
        ["journal", cursor, max] => Ok(Request::Journal {
            cursor: cursor
                .parse()
                .map_err(|_| ParseMessageError::new("journal cursor not a number"))?,
            max: max.parse().map_err(|_| ParseMessageError::new("journal max not a number"))?,
        }),
        ["expo"] => Ok(Request::Expo),
        [] => Err(ParseMessageError::new("empty request")),
        [verb, ..] => Err(ParseMessageError::new(format!("unknown verb `{verb}`"))),
    }
}

fn reference_response_parse(text: &str) -> Result<Response, ParseMessageError> {
    let items = split(text).map_err(|e| ParseMessageError::new(e.to_string()))?;
    let words: Vec<&str> = items.iter().map(Item::text).collect();
    match words.as_slice() {
        ["ok"] => Ok(Response::Ok),
        ["registered", app, id] => Ok(Response::Registered {
            app: (*app).to_owned(),
            id: id.parse().map_err(|_| ParseMessageError::new("instance id not a number"))?,
        }),
        ["error", message] => Ok(Response::Error { message: (*message).to_owned() }),
        ["status", json] => Ok(Response::Status { json: (*json).to_owned() }),
        ["lint", json] => Ok(Response::Lint { json: (*json).to_owned() }),
        ["facts", json] => Ok(Response::Facts { json: (*json).to_owned() }),
        ["journal", json] => Ok(Response::Journal { json: (*json).to_owned() }),
        ["expo", text] => Ok(Response::Expo { text: (*text).to_owned() }),
        ["update", instance, rest @ ..] => {
            let (app, id) = parse_instance(instance)?;
            let mut updates = Vec::with_capacity(rest.len());
            for group in rest {
                let inner = split(group).map_err(|e| ParseMessageError::new(e.to_string()))?;
                if inner.len() != 2 {
                    return Err(ParseMessageError::new(format!(
                        "update group `{group}` is not {{path value}}"
                    )));
                }
                updates.push(VarUpdate {
                    path: inner[0].text().to_owned(),
                    value: match &inner[1] {
                        Item::Word(w) => Value::from_word(w),
                        Item::Braced(b) => Value::Str(b.clone()),
                    },
                });
            }
            Ok(Response::Update { app, id, updates })
        }
        [] => Err(ParseMessageError::new("empty response")),
        [verb, ..] => Err(ParseMessageError::new(format!("unknown verb `{verb}`"))),
    }
}

fn reference_canonical(value: &Value) -> String {
    match value {
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
        Value::Str(s) => {
            if s.is_empty() || s.contains(|c: char| c.is_whitespace() || c == '{' || c == '}') {
                format!("{{{s}}}")
            } else {
                s.clone()
            }
        }
        Value::List(items) => {
            let inner = items.iter().map(reference_canonical).collect::<Vec<_>>().join(" ");
            format!("{{{inner}}}")
        }
    }
}

fn reference_response_to_text(resp: &Response) -> String {
    match resp {
        Response::Registered { app, id } => format!("registered {app} {id}"),
        Response::Ok => "ok".to_string(),
        Response::Update { app, id, updates } => {
            let mut out = format!("update {app}.{id}");
            for u in updates {
                out.push_str(&format!(" {{{} {}}}", u.path, reference_canonical(&u.value)));
            }
            out
        }
        Response::Error { message } => format!("error {{{message}}}"),
        Response::Status { json } => format!("status {{{json}}}"),
        Response::Lint { json } => format!("lint {{{json}}}"),
        Response::Facts { json } => format!("facts {{{json}}}"),
        Response::Journal { json } => format!("journal {{{json}}}"),
        Response::Expo { text } => format!("expo {{{text}}}"),
    }
}

/// Field texts: mostly plain names, sometimes everything the lexer gives
/// meaning to (quotes, escapes, braces, comment marks, wide characters).
fn word() -> BoxedStrategy<String> {
    prop_oneof!["[A-Za-z][A-Za-z0-9_]{0,7}", "[a-z .\"\\\\{}#\n\u{e9}]{0,8}", "\\PC{0,8}"].boxed()
}

/// Script and JSON payloads: nested braces, balanced or not.
fn payload() -> BoxedStrategy<String> {
    prop_oneof![
        Just(harmony_rsl::listings::FIG2B_BAG.to_string()),
        "[a-z0-9 {}\":,\\[\\]\\\\\n]{0,40}",
        "\\{\"[a-z]{1,4}\":\\[\\{\\}, \\{\"[a-z]{1,3}\":[0-9]{1,3}\\}\\]\\}",
    ]
    .boxed()
}

fn id() -> BoxedStrategy<u64> {
    prop_oneof![0u64..100, Just(u64::MAX)].boxed()
}

fn sample() -> BoxedStrategy<f64> {
    prop_oneof![
        (-4000i64..4000).prop_map(|i| i as f64 / 8.0),
        Just(1e300),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        sample().prop_map(Value::Float),
        word().prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| prop::collection::vec(inner, 0..3).prop_map(Value::List))
}

/// All twelve request forms.
fn request() -> BoxedStrategy<Request> {
    let instance = || (word(), id());
    prop_oneof![
        word().prop_map(|app| Request::Startup { app }),
        (instance(), payload()).prop_map(|((app, id), script)| Request::Bundle { app, id, script }),
        instance().prop_map(|(app, id)| Request::Poll { app, id }),
        (word(), sample(), sample()).prop_map(|(name, time, value)| Request::Metric {
            name,
            time,
            value
        }),
        instance().prop_map(|(app, id)| Request::Heartbeat { app, id }),
        instance().prop_map(|(app, id)| Request::Reattach { app, id }),
        instance().prop_map(|(app, id)| Request::End { app, id }),
        Just(Request::Status),
        payload().prop_map(|script| Request::Lint { script }),
        payload().prop_map(|script| Request::Facts { script }),
        (id(), id()).prop_map(|(cursor, max)| Request::Journal { cursor, max }),
        Just(Request::Expo),
    ]
    .boxed()
}

/// All nine response forms; `update`s carry zero to four groups.
fn response() -> BoxedStrategy<Response> {
    let update = (word(), value()).prop_map(|(path, value)| VarUpdate { path, value });
    prop_oneof![
        (word(), id()).prop_map(|(app, id)| Response::Registered { app, id }),
        Just(Response::Ok),
        (word(), id(), prop::collection::vec(update, 0..5))
            .prop_map(|(app, id, updates)| Response::Update { app, id, updates }),
        payload().prop_map(|message| Response::Error { message }),
        payload().prop_map(|json| Response::Status { json }),
        payload().prop_map(|json| Response::Lint { json }),
        payload().prop_map(|json| Response::Facts { json }),
        payload().prop_map(|json| Response::Journal { json }),
        payload().prop_map(|text| Response::Expo { text }),
    ]
    .boxed()
}

/// One edit of a wire text: cut it, or replace, insert or delete a
/// character, at a position chosen by `at`.
fn damage(text: &str, at: usize, edit: u8, with: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let at = at % (chars.len() + 1);
    let with = with.chars().next().expect("one character");
    match edit {
        0 => chars.truncate(at),
        1 if at < chars.len() => chars[at] = with,
        2 if at < chars.len() => drop(chars.remove(at)),
        _ => chars.insert(at, with),
    }
    chars.into_iter().collect()
}

/// Values hold NaNs, so results are compared as their debug rendering.
fn same<T: std::fmt::Debug>(new: T, reference: T, text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{new:?}"), format!("{reference:?}"), "text: {:?}", text);
    Ok(())
}

const DAMAGE: &str = "[ {}\"\\\\.#\n0-9a-z\u{e9}]";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn request_parse_agrees_with_the_reference_on_every_form(req in request()) {
        let text = req.to_text();
        same(Request::parse(&text), reference_request_parse(&text), &text)?;
    }

    #[test]
    fn response_parse_agrees_with_the_reference_on_every_form(resp in response()) {
        let text = resp.to_text();
        same(Response::parse(&text), reference_response_parse(&text), &text)?;
        // A response is a legal request text too, and the other way round.
        same(Request::parse(&text), reference_request_parse(&text), &text)?;
    }

    #[test]
    fn request_parse_agrees_with_the_reference_on_damaged_texts(
        req in request(), at in 0usize..4096, edit in 0u8..4, with in DAMAGE,
    ) {
        let text = damage(&req.to_text(), at, edit, &with);
        same(Request::parse(&text), reference_request_parse(&text), &text)?;
    }

    #[test]
    fn response_parse_agrees_with_the_reference_on_damaged_texts(
        resp in response(), at in 0usize..4096, edit in 0u8..4, with in DAMAGE,
    ) {
        let text = damage(&resp.to_text(), at, edit, &with);
        same(Response::parse(&text), reference_response_parse(&text), &text)?;
    }

    #[test]
    fn write_text_is_the_old_to_text_byte_for_byte(resp in response()) {
        let mut out = String::from("kept:");
        resp.write_text(&mut out);
        prop_assert_eq!(out.strip_prefix("kept:"), Some(&*reference_response_to_text(&resp)));
        prop_assert_eq!(resp.to_text(), reference_response_to_text(&resp));
    }
}

#[test]
fn well_formed_messages_round_trip_through_the_new_parsers() {
    // The generated forms above are mostly *not* round-trippable (their
    // fields hold spaces and quotes); these are, in all 12 + 9 forms.
    let requests = [
        "startup bag",
        "bundle bag.18446744073709551615 {harmonyBundle bag:1 b { {o {node n {seconds 1}}} }}",
        "poll bag.7",
        "metric bag.7.response_time 1.5 NaN",
        "heartbeat bag.7",
        "reattach a.b.66",
        "end bag.7",
        "status",
        "lint {a {b c}}",
        "facts {}",
        "journal 0 18446744073709551615",
        "expo",
    ];
    for text in requests {
        let req = Request::parse(text).unwrap();
        assert_eq!(req.to_text(), text);
    }
    let responses = [
        "registered bag 7",
        "ok",
        "update bag.7",
        "update bag.7 {bag.7.config run} {bag.7.config.run.workerNodes 4} {bag.7.x {a b}}",
        "error {unknown application instance `bag.9`}",
        "status {{\"apps\":[]}}",
        "lint {[]}",
        "facts {{\"bundles\":[]}}",
        "journal {{\"entries\":[],\"next_cursor\":4,\"truncated\":false}}",
        "expo {counter a 1\ngauge b 0.5}",
    ];
    for text in responses {
        let resp = Response::parse(text).unwrap();
        assert_eq!(resp.to_text(), text);
    }
}
