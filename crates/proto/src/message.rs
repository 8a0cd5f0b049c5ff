//! The request/response grammar spoken over frames.
//!
//! Messages are TCL-style word lists (parsed with the RSL list lexer), so
//! bundle payloads embed naturally as braced groups:
//!
//! ```text
//! → startup DBclient
//! ← registered DBclient 1
//! → bundle DBclient.1 {harmonyBundle DBclient:1 where { ... }}
//! ← ok
//! → poll DBclient.1
//! ← update DBclient.1 {DBclient.1.where DS} {DBclient.1.where.DS.client.memory 24.0}
//! → metric DBclient.1.response_time 12.5 9.8
//! → end DBclient.1
//! ```

use std::fmt::Write as _;

use harmony_rsl::list::{Lexer, Token};
use harmony_rsl::{RslError, Value};
use serde::{Deserialize, Serialize};

/// A protocol error: the peer sent something unparseable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMessageError {
    reason: String,
}

impl ParseMessageError {
    fn new(reason: impl Into<String>) -> Self {
        ParseMessageError { reason: reason.into() }
    }
}

impl std::fmt::Display for ParseMessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed message: {}", self.reason)
    }
}

impl std::error::Error for ParseMessageError {}

impl From<RslError> for ParseMessageError {
    fn from(e: RslError) -> Self {
        ParseMessageError::new(e.to_string())
    }
}

/// The first `N` words of `text`, borrowed from it, and how many words it
/// holds in all. The whole text is lexed, so a lexical error anywhere in
/// it is reported before anything about its words.
fn leading_words<const N: usize>(text: &str) -> Result<([Token<'_>; N], usize), ParseMessageError> {
    let mut words = [const { Token::Braced("") }; N];
    let mut count = 0;
    for token in Lexer::new(text) {
        let (token, _span) = token?;
        if let Some(slot) = words.get_mut(count) {
            *slot = token;
        }
        count += 1;
    }
    Ok((words, count))
}

/// An instance name on the wire: `app.id`.
fn parse_instance(word: &str) -> Result<(String, u64), ParseMessageError> {
    let (app, id) = word
        .rsplit_once('.')
        .ok_or_else(|| ParseMessageError::new(format!("instance `{word}` lacks `.id`")))?;
    let id: u64 = id
        .parse()
        .map_err(|_| ParseMessageError::new(format!("instance id in `{word}` not a number")))?;
    if app.is_empty() {
        return Err(ParseMessageError::new("empty application name"));
    }
    Ok((app.to_owned(), id))
}

/// Client → server requests (Figure 5's API, serialized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// `harmony_startup`: register and get an instance id.
    Startup {
        /// Application name.
        app: String,
    },
    /// `harmony_bundle_setup`: export a bundle (RSL text).
    Bundle {
        /// Owning instance (`app`, `id`).
        app: String,
        /// Instance id.
        id: u64,
        /// The RSL script.
        script: String,
    },
    /// Poll for buffered variable updates (the prototype's polling
    /// interface).
    Poll {
        /// Application name.
        app: String,
        /// Instance id.
        id: u64,
    },
    /// Report a performance measurement.
    Metric {
        /// Dotted metric name.
        name: String,
        /// Timestamp (seconds).
        time: f64,
        /// Value.
        value: f64,
    },
    /// Lightweight lease renewal: the application is alive but has
    /// nothing to report.
    Heartbeat {
        /// Application name.
        app: String,
        /// Instance id.
        id: u64,
    },
    /// Re-establish a session after a reconnect, preserving the instance
    /// id. The server replays current chosen values as pending variable
    /// updates; unknown ids are an error (the client falls back to a
    /// fresh `Startup` plus bundle re-registration).
    Reattach {
        /// Application name.
        app: String,
        /// Instance id.
        id: u64,
    },
    /// `harmony_end`: the application is terminating.
    End {
        /// Application name.
        app: String,
        /// Instance id.
        id: u64,
    },
    /// Ask the server for a [`harmony_core::SystemSnapshot`] (operators,
    /// experiment drivers).
    Status,
    /// Run static analysis on an RSL script without registering anything
    /// (`harmonyctl lint`). The response is [`Response::Lint`] with the
    /// diagnostics as JSON.
    Lint {
        /// The RSL script to analyze.
        script: String,
    },
    /// Compute the abstract-interpretation facts for an RSL script without
    /// registering anything (`harmonyctl facts`). The response is
    /// [`Response::Facts`] with the facts report as JSON.
    Facts {
        /// The RSL script to analyze.
        script: String,
    },
    /// Tail the controller's event journal from a cursor (`harmonyctl
    /// trace`). The response is [`Response::Journal`] with a
    /// `harmony_core::JournalTail` as JSON.
    Journal {
        /// First sequence number wanted (`0` for the oldest retained).
        cursor: u64,
        /// Maximum entries to return.
        max: u64,
    },
    /// One-shot text exposition of every counter, gauge, and histogram
    /// (`harmonyctl export`). The response is [`Response::Expo`].
    Expo,
}

impl Request {
    /// Serializes to wire text.
    pub fn to_text(&self) -> String {
        // Room for any read-path request; a script grows it.
        let mut out = String::with_capacity(48);
        self.write_text(&mut out);
        out
    }

    /// Appends the wire text to `out`.
    pub fn write_text(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            Request::Startup { app } => write!(out, "startup {app}"),
            Request::Bundle { app, id, script } => write!(out, "bundle {app}.{id} {{{script}}}"),
            Request::Poll { app, id } => write!(out, "poll {app}.{id}"),
            Request::Metric { name, time, value } => write!(out, "metric {name} {time} {value}"),
            Request::Heartbeat { app, id } => write!(out, "heartbeat {app}.{id}"),
            Request::Reattach { app, id } => write!(out, "reattach {app}.{id}"),
            Request::End { app, id } => write!(out, "end {app}.{id}"),
            Request::Status => out.write_str("status"),
            Request::Lint { script } => write!(out, "lint {{{script}}}"),
            Request::Facts { script } => write!(out, "facts {{{script}}}"),
            Request::Journal { cursor, max } => write!(out, "journal {cursor} {max}"),
            Request::Expo => out.write_str("expo"),
        };
    }

    /// Parses wire text.
    ///
    /// # Errors
    ///
    /// [`ParseMessageError`] on unknown verbs, wrong arity, or malformed
    /// numbers.
    pub fn parse(text: &str) -> Result<Self, ParseMessageError> {
        // One word more than the longest form, so a longer list matches none.
        let (words, count) = leading_words::<5>(text)?;
        let words = words.each_ref().map(Token::text);
        match &words[..count.min(5)] {
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
                time: time
                    .parse()
                    .map_err(|_| ParseMessageError::new("metric time not a number"))?,
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
}

/// One variable update: a namespace path and its new value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarUpdate {
    /// Dotted namespace path (e.g. `DBclient.1.where`).
    pub path: String,
    /// The new value.
    pub value: Value,
}

/// Server → client responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Startup succeeded; here is your instance id.
    Registered {
        /// Application name.
        app: String,
        /// System-chosen instance id.
        id: u64,
    },
    /// Request accepted with nothing to report.
    Ok,
    /// Buffered variable updates for the polled instance.
    Update {
        /// Owning application name.
        app: String,
        /// Instance id.
        id: u64,
        /// The updates, in write order.
        updates: Vec<VarUpdate>,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// A system snapshot, JSON-encoded (response to [`Request::Status`]).
    Status {
        /// The JSON payload (parse with
        /// `harmony_core::SystemSnapshot::from_json`).
        json: String,
    },
    /// Static-analysis diagnostics, JSON-encoded (response to
    /// [`Request::Lint`]; parse with `harmony_analyze::json::parse_diagnostics`).
    Lint {
        /// The JSON payload: an array of diagnostic objects.
        json: String,
    },
    /// Abstract-interpretation facts, JSON-encoded (response to
    /// [`Request::Facts`]; parse with
    /// `harmony_analyze::facts::facts_from_json`).
    Facts {
        /// The JSON payload: the per-option facts report.
        json: String,
    },
    /// A journal tail, JSON-encoded (response to [`Request::Journal`];
    /// parse with `harmony_core::JournalTail::from_json`).
    Journal {
        /// The JSON payload: entries, next cursor, truncation flag.
        json: String,
    },
    /// A metrics exposition dump (response to [`Request::Expo`]): one
    /// `counter|gauge|histogram <name> ...` line per metric.
    Expo {
        /// The exposition text.
        text: String,
    },
}

impl Response {
    /// Serializes to wire text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends the wire text to `out` (what a connection renders replies
    /// into, so that a reply costs no buffer of its own).
    pub fn write_text(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            Response::Registered { app, id } => write!(out, "registered {app} {id}"),
            Response::Ok => out.write_str("ok"),
            Response::Update { app, id, updates } => {
                let _ = write!(out, "update {app}.{id}");
                updates.iter().try_for_each(|u| write!(out, " {{{} {}}}", u.path, u.value))
            }
            Response::Error { message } => write!(out, "error {{{message}}}"),
            Response::Status { json } => write!(out, "status {{{json}}}"),
            Response::Lint { json } => write!(out, "lint {{{json}}}"),
            Response::Facts { json } => write!(out, "facts {{{json}}}"),
            Response::Journal { json } => write!(out, "journal {{{json}}}"),
            Response::Expo { text } => write!(out, "expo {{{text}}}"),
        };
    }

    /// Parses wire text.
    ///
    /// # Errors
    ///
    /// [`ParseMessageError`] on malformed responses.
    pub fn parse(text: &str) -> Result<Self, ParseMessageError> {
        let (words, count) = leading_words::<4>(text)?;
        let words = words.each_ref().map(Token::text);
        match &words[..count.min(4)] {
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
            ["update", instance, ..] => {
                let (app, id) = parse_instance(instance)?;
                let mut updates = Vec::with_capacity(count - 2);
                // The text lexed cleanly above; this pass hands out the groups.
                for (group, _span) in Lexer::new(text).skip(2).flatten() {
                    let group = group.into_text();
                    let ([path, value], 2) = leading_words::<2>(&group)? else {
                        return Err(ParseMessageError::new(format!(
                            "update group `{group}` is not {{path value}}"
                        )));
                    };
                    updates.push(VarUpdate {
                        path: path.text().to_owned(),
                        value: match value {
                            Token::Word(w) => Value::from_word(&w),
                            Token::Braced(b) => Value::Str(b.to_owned()),
                        },
                    });
                }
                Ok(Response::Update { app, id, updates })
            }
            [] => Err(ParseMessageError::new("empty response")),
            [verb, ..] => Err(ParseMessageError::new(format!("unknown verb `{verb}`"))),
        }
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Startup { app: "DBclient".into() },
            Request::Bundle {
                app: "DBclient".into(),
                id: 1,
                script: "harmonyBundle DBclient:1 where { {QS {node s {seconds 4}}} }".into(),
            },
            Request::Poll { app: "bag".into(), id: 7 },
            Request::Metric { name: "a.rt".into(), time: 1.5, value: 9.25 },
            Request::Heartbeat { app: "bag".into(), id: 7 },
            Request::Reattach { app: "DBclient".into(), id: 66 },
            Request::End { app: "bag".into(), id: 7 },
            Request::Status,
            Request::Lint { script: "harmonyBundle a b { {o {node n {seconds 1}}} }".into() },
            Request::Facts { script: "harmonyBundle a b { {o {node n {seconds 1}}} }".into() },
            Request::Journal { cursor: 0, max: 100 },
            Request::Journal { cursor: 18_446_744_073_709_551_615, max: 1 },
            Request::Expo,
        ];
        for req in cases {
            let text = req.to_text();
            assert_eq!(Request::parse(&text).unwrap(), req, "text: {text}");
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            Response::Ok,
            Response::Registered { app: "DBclient".into(), id: 66 },
            Response::Error { message: "bundle `where` cannot be placed".into() },
            Response::Lint { json: "[{\"code\":\"HA0020\",\"severity\":\"error\"}]".into() },
            Response::Facts { json: "{\"options\":[]}".into() },
            Response::Journal {
                json: "{\"entries\":[],\"next_cursor\":4,\"truncated\":false}".into(),
            },
            Response::Expo { text: "counter controller.reevals 3\ngauge x 1.5".into() },
            Response::Update {
                app: "DBclient".into(),
                id: 66,
                updates: vec![
                    VarUpdate { path: "DBclient.66.where".into(), value: Value::Str("DS".into()) },
                    VarUpdate {
                        path: "DBclient.66.where.DS.client.memory".into(),
                        value: Value::Float(24.0),
                    },
                ],
            },
        ];
        for resp in cases {
            let text = resp.to_text();
            assert_eq!(Response::parse(&text).unwrap(), resp, "text: {text}");
        }
    }

    #[test]
    fn bundle_script_survives_embedding() {
        let script = harmony_rsl::listings::FIG3_DBCLIENT.trim().to_string();
        let req = Request::Bundle { app: "DBclient".into(), id: 1, script: script.clone() };
        let parsed = Request::parse(&req.to_text()).unwrap();
        match parsed {
            Request::Bundle { script: s, .. } => {
                // The embedded script still parses as a bundle.
                let spec = harmony_rsl::schema::parse_bundle_script(&s).unwrap();
                assert_eq!(spec.option_names(), vec!["QS", "DS"]);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "frobnicate x",
            "startup",
            "bundle nodot {x}",
            "poll app.notanumber",
            "metric name abc 1",
            "end .5",
            "heartbeat nodot",
            "reattach app.x",
            "journal abc 10",
            "journal 0 xyz",
            "journal 0",
            "expo extra",
        ] {
            assert!(Request::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn malformed_responses_are_rejected() {
        for bad in ["", "registered app x", "update nodot {a 1}", "update a.1 {only-one}"] {
            assert!(Response::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = Request::parse("zzz").unwrap_err();
        assert!(e.to_string().contains("zzz"));
        let _: &dyn std::error::Error = &e;
    }
}
