//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line in, one response per line out. Every request is
//! a JSON object with an `"op"` field; every response is a JSON object
//! with an `"ok"` field. Failures carry a stable `dse::diag`-style code
//! from the `DSL3xx` range (plus `DSL201` surfacing torn-journal
//! recoveries) and a human-readable `"error"` message. A request may
//! carry an `"id"` (string or number), echoed verbatim in its response
//! so pipelining clients can match the two.
//!
//! The full request/response grammar — every op, every error shape — is
//! documented in the repository README's "Server" section; this module
//! is the single place that parses and renders it.

use dse::diag::DiagCode;
use dse::value::Value;
use foundation::json::{Json, Number, Reader, Writer};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a new session (or re-attach/recover with `resume`).
    Open {
        /// Client-chosen session id; the server generates one if absent.
        session: Option<String>,
        /// Snapshot to explore. Optional on resume (the journal's
        /// sidecar metadata names it).
        snapshot: Option<String>,
        /// Recover the session's journal instead of starting fresh.
        resume: bool,
    },
    /// Enter a requirement or decide a design issue (the server
    /// dispatches on the property's kind).
    Decide {
        /// The session.
        session: String,
        /// The property to decide.
        name: String,
        /// The chosen value.
        value: Value,
    },
    /// Undo decisions: the most recent one, or back to and including
    /// `name`.
    Retract {
        /// The session.
        session: String,
        /// Undo down to (and including) this decision; bare retract
        /// undoes one.
        name: Option<String>,
    },
    /// Evaluate: absorb derived values and run ready estimators.
    Eval {
        /// The session.
        session: String,
    },
    /// One page of the cores complying with every decision so far.
    /// The response echoes the exact total (`count`) and the effective
    /// `offset`/`limit`, and flags `truncated` pages clipped by the
    /// wire-frame byte budget — million-core results are fetched page
    /// by page, never as one oversized line.
    SurvivingCores {
        /// The session.
        session: String,
        /// Cap on the number of core names returned per page (count is
        /// always exact).
        limit: Option<usize>,
        /// Number of surviving cores to skip before the page starts.
        offset: Option<usize>,
    },
    /// The still-viable options of a property, proved by the
    /// propagation solver over the session's current bindings.
    Viable {
        /// The session.
        session: String,
        /// The property to probe.
        name: String,
    },
    /// Full session report.
    Report {
        /// The session.
        session: String,
    },
    /// Close the session, removing its journal.
    Close {
        /// The session.
        session: String,
    },
    /// Server-wide counters and cache statistics.
    Stats,
    /// Drop every cached estimate produced by one tool.
    Invalidate {
        /// The estimator tool name.
        tool: String,
    },
    /// Begin graceful drain: refuse new work, finish in-flight
    /// requests, stop.
    Shutdown,
}

/// A protocol-level failure: a stable code plus a message.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The stable `DSLnnn` code.
    pub code: DiagCode,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint rendered into the response (`DSL309` carries one):
    /// how long the client should wait before retrying.
    pub retry_after_ms: Option<u64>,
}

impl ProtocolError {
    /// Builds an error.
    pub fn new(code: DiagCode, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A `DSL301` malformed-request error.
    pub fn malformed(message: impl Into<String>) -> ProtocolError {
        ProtocolError::new(DiagCode::MalformedRequest, message)
    }

    /// A `DSL309` overloaded error carrying the retry hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> ProtocolError {
        let mut e = ProtocolError::new(DiagCode::Overloaded, message);
        e.retry_after_ms = Some(retry_after_ms);
        e
    }

    /// A `DSL310` deadline-exceeded error.
    pub fn deadline(message: impl Into<String>) -> ProtocolError {
        ProtocolError::new(DiagCode::DeadlineExceeded, message)
    }
}

/// The client correlation id attached to a request, echoed in the
/// response.
pub type RequestId = Option<Json>;

/// Per-request transport metadata that rides alongside the op itself:
/// the correlation `id` (echoed even when the op fails to parse) and
/// the optional cooperative `deadline_ms` budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Envelope {
    /// The correlation id, echoed verbatim in the response.
    pub id: RequestId,
    /// Cooperative deadline for this request, in milliseconds. The
    /// engine converts it to a deterministic `robust::Fuel` step budget
    /// (no wall clock), answering `DSL310` when it runs dry.
    pub deadline_ms: Option<u64>,
}

fn str_field(obj: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ProtocolError::malformed(format!(
            "field {key:?} must be a string, got {}",
            other.kind_name()
        ))),
    }
}

fn require(field: Option<String>, key: &str) -> Result<String, ProtocolError> {
    field.ok_or_else(|| ProtocolError::malformed(format!("missing required field {key:?}")))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(other) => Err(ProtocolError::malformed(format!(
            "field {key:?} must be a boolean, got {}",
            other.kind_name()
        ))),
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<Option<usize>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => match j.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as usize)),
            _ => Err(ProtocolError::malformed(format!(
                "field {key:?} must be a non-negative integer"
            ))),
        },
    }
}

/// Parses a wire value: either a bare JSON scalar (`768`, `"Hardware"`,
/// `true`, `2.5`) or the codec's tagged form (`{"Int":768}`).
pub fn value_from_json(j: &Json) -> Result<Value, ProtocolError> {
    match j {
        Json::Bool(b) => Ok(Value::Flag(*b)),
        Json::Str(s) => Ok(Value::Text(s.clone())),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Real(*f)),
        Json::Object(entries) => {
            // The codec's own form is `{"Int":[768]}`; also accept the
            // unwrapped `{"Int":768}` clients naturally write.
            let normalized = match entries.as_slice() {
                [(tag, payload)] if !matches!(payload, Json::Array(_)) => Json::Object(vec![(
                    tag.clone(),
                    Json::Array(vec![payload.clone()]),
                )]),
                _ => j.clone(),
            };
            foundation::json::decode::<Value>(&foundation::json::encode(&normalized))
                .map_err(|e| ProtocolError::malformed(format!("bad tagged value: {e}")))
        }
        other => Err(ProtocolError::malformed(format!(
            "field \"value\" must be a scalar or tagged value, got {}",
            other.kind_name()
        ))),
    }
}

/// Renders a [`Value`] in the friendly scalar wire form.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Real(r) => Json::Float(*r),
        Value::Text(s) => Json::Str(s.clone()),
        Value::Flag(b) => Json::Bool(*b),
        // `Value` is non_exhaustive-proof: fall back to the display form.
        #[allow(unreachable_patterns)]
        other => Json::Str(other.to_string()),
    }
}

/// Parses one request line. Returns the request plus its [`Envelope`];
/// the envelope's id comes back even on a parse error so the client
/// can still match the failure (when the line parsed as JSON at all).
pub fn parse_request(line: &str) -> (Result<Request, ProtocolError>, Envelope) {
    let json = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            return (
                Err(ProtocolError::malformed(format!("invalid JSON: {e}"))),
                Envelope::default(),
            )
        }
    };
    let mut envelope = Envelope {
        id: json.get("id").cloned(),
        deadline_ms: None,
    };
    match json.get("deadline_ms") {
        None | Some(Json::Null) => {}
        Some(j) => match j.as_i64() {
            Some(ms) if ms >= 0 => envelope.deadline_ms = Some(ms as u64),
            _ => {
                return (
                    Err(ProtocolError::malformed(
                        "field \"deadline_ms\" must be a non-negative integer",
                    )),
                    envelope,
                )
            }
        },
    }
    (parse_request_json(&json), envelope)
}

fn parse_request_json(json: &Json) -> Result<Request, ProtocolError> {
    if json.as_object().is_none() {
        return Err(ProtocolError::malformed(format!(
            "request must be a JSON object, got {}",
            json.kind_name()
        )));
    }
    let op = require(str_field(json, "op")?, "op")?;
    match op.as_str() {
        "open" => Ok(Request::Open {
            session: str_field(json, "session")?,
            snapshot: str_field(json, "snapshot")?,
            resume: bool_field(json, "resume")?,
        }),
        "decide" => Ok(Request::Decide {
            session: require(str_field(json, "session")?, "session")?,
            name: require(str_field(json, "name")?, "name")?,
            value: value_from_json(json.get("value").ok_or_else(|| {
                ProtocolError::malformed("missing required field \"value\"")
            })?)?,
        }),
        "retract" => Ok(Request::Retract {
            session: require(str_field(json, "session")?, "session")?,
            name: str_field(json, "name")?,
        }),
        "eval" => Ok(Request::Eval {
            session: require(str_field(json, "session")?, "session")?,
        }),
        "surviving_cores" => Ok(Request::SurvivingCores {
            session: require(str_field(json, "session")?, "session")?,
            limit: usize_field(json, "limit")?,
            offset: usize_field(json, "offset")?,
        }),
        "viable" => Ok(Request::Viable {
            session: require(str_field(json, "session")?, "session")?,
            name: require(str_field(json, "name")?, "name")?,
        }),
        "report" => Ok(Request::Report {
            session: require(str_field(json, "session")?, "session")?,
        }),
        "close" => Ok(Request::Close {
            session: require(str_field(json, "session")?, "session")?,
        }),
        "stats" => Ok(Request::Stats),
        "invalidate" => Ok(Request::Invalidate {
            tool: require(str_field(json, "tool")?, "tool")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::new(
            DiagCode::UnknownOp,
            format!("unknown op {other:?}"),
        )),
    }
}

/// Builds a success response: `{"ok":true, ...fields}` (plus the echoed
/// `id`).
pub fn ok_response(id: &RequestId, fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![("ok".to_owned(), Json::Bool(true))];
    if let Some(id) = id {
        obj.push(("id".to_owned(), id.clone()));
    }
    obj.extend(fields);
    Json::Object(obj)
}

/// Builds a failure response:
/// `{"ok":false,"code":"DSLnnn","error":"..."}` (plus the echoed `id`).
pub fn err_response(id: &RequestId, err: &ProtocolError) -> Json {
    let mut obj = vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("code".to_owned(), Json::Str(err.code.as_str().to_owned())),
        ("error".to_owned(), Json::Str(err.message.clone())),
    ];
    if let Some(ms) = err.retry_after_ms {
        obj.push(("retry_after_ms".to_owned(), Json::Int(ms as i64)));
    }
    if let Some(id) = id {
        obj.insert(1, ("id".to_owned(), id.clone()));
    }
    Json::Object(obj)
}

/// A request value borrowed straight from the wire line — the zero-copy
/// sibling of [`Value`] for the hot-path decoder. Only scalar forms are
/// representable; tagged values force the tree fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// An integer scalar.
    Int(i64),
    /// A real scalar.
    Real(f64),
    /// A text scalar, borrowed from the request line.
    Text(&'a str),
    /// A boolean scalar.
    Flag(bool),
}

impl ValueRef<'_> {
    /// Converts to the owned [`Value`] the engine stores.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Real(r) => Value::Real(r),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Flag(b) => Value::Flag(b),
        }
    }

    /// Renders the scalar exactly as [`value_to_json`] + the tree
    /// serializer would.
    pub fn write(self, w: &mut Writer<'_>) {
        match self {
            ValueRef::Int(i) => w.int_value(i),
            ValueRef::Real(r) => w.float_value(r),
            ValueRef::Text(s) => w.str_value(s),
            ValueRef::Flag(b) => w.bool_value(b),
        }
    }
}

/// The borrowed envelope of a fast-path request: the correlation id is
/// kept as the *raw request bytes* (only when re-encoding is guaranteed
/// byte-identical) and spliced verbatim into the response.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FastEnvelope<'a> {
    /// Raw id token (`"req-1"`, `42`, `true`, `null`) to echo verbatim,
    /// or `None` when the request carried no id.
    pub id: Option<&'a str>,
    /// Cooperative deadline for this request, in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A hot-path request decoded without building a `Json` tree; every
/// string field borrows from the request line. Ops outside the hot set
/// (`report`, `invalidate`, `shutdown`) take the tree path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FastRequest<'a> {
    /// `open` (hot so pipelined open→work→close batches stay on the
    /// fast path).
    Open {
        /// Client-chosen session id, if any.
        session: Option<&'a str>,
        /// Snapshot to explore, if named.
        snapshot: Option<&'a str>,
        /// Recover from the journal instead of starting fresh.
        resume: bool,
    },
    /// `decide`.
    Decide {
        /// The session.
        session: &'a str,
        /// The property to decide.
        name: &'a str,
        /// The chosen value.
        value: ValueRef<'a>,
    },
    /// `retract`.
    Retract {
        /// The session.
        session: &'a str,
        /// Undo down to (and including) this decision, if named.
        name: Option<&'a str>,
    },
    /// `eval`.
    Eval {
        /// The session.
        session: &'a str,
    },
    /// `surviving_cores`.
    SurvivingCores {
        /// The session.
        session: &'a str,
        /// Page-size cap.
        limit: Option<usize>,
        /// Page offset.
        offset: Option<usize>,
    },
    /// `viable`.
    Viable {
        /// The session.
        session: &'a str,
        /// The property to probe.
        name: &'a str,
    },
    /// `close`.
    Close {
        /// The session.
        session: &'a str,
    },
    /// `stats`.
    Stats,
}

/// Accumulates fields during the single left-to-right scan. `*_seen`
/// flags implement first-occurrence-wins for duplicate keys, matching
/// `Json::get` on the tree path.
#[derive(Default)]
struct FastFields<'a> {
    op: Option<&'a str>,
    op_seen: bool,
    session: Option<&'a str>,
    session_seen: bool,
    snapshot: Option<&'a str>,
    snapshot_seen: bool,
    name: Option<&'a str>,
    name_seen: bool,
    resume: bool,
    resume_seen: bool,
    value: Option<ValueRef<'a>>,
    value_seen: bool,
    limit: Option<usize>,
    limit_seen: bool,
    offset: Option<usize>,
    offset_seen: bool,
    id: Option<&'a str>,
    id_seen: bool,
    deadline_ms: Option<u64>,
    deadline_seen: bool,
}

/// Reads an optional string field (`null` counts as absent, like
/// `str_field`). Returns `None` (fallback) unless the value is an
/// escape-free borrowed string or `null`.
fn fast_opt_str<'a>(r: &mut Reader<'a>) -> Option<Option<&'a str>> {
    match r.peek()? {
        b'"' => match r.read_str().ok()? {
            std::borrow::Cow::Borrowed(s) => Some(Some(s)),
            std::borrow::Cow::Owned(_) => None,
        },
        b'n' => {
            r.read_null().ok()?;
            Some(None)
        }
        _ => None,
    }
}

/// Reads an optional non-negative integer field (`null` counts as
/// absent, like `usize_field`).
fn fast_opt_usize(r: &mut Reader<'_>) -> Option<Option<usize>> {
    match r.peek()? {
        b'n' => {
            r.read_null().ok()?;
            Some(None)
        }
        b'-' | b'0'..=b'9' => match r.read_number().ok()? {
            Number::Int(n) if n >= 0 => Some(Some(n as usize)),
            _ => None,
        },
        _ => None,
    }
}

/// Captures the raw id token when echoing it verbatim is guaranteed to
/// match the tree path's decode-then-re-encode: escape-free strings,
/// canonical integers, booleans, and `null`. Anything else (floats,
/// escaped strings, arrays) forces the tree fallback.
fn fast_raw_id<'a>(r: &mut Reader<'a>, line: &'a str) -> Option<&'a str> {
    let start = r.pos();
    match r.peek()? {
        b'"' => match r.read_str().ok()? {
            std::borrow::Cow::Borrowed(_) => Some(&line[start..r.pos()]),
            std::borrow::Cow::Owned(_) => None,
        },
        b'-' | b'0'..=b'9' => match r.read_number_with_span().ok()? {
            // `-0` is the one integer token whose re-encode (`0`)
            // differs from its raw bytes.
            (Number::Int(_), span) if span != "-0" => Some(span),
            _ => None,
        },
        b't' | b'f' => {
            let b = r.read_bool().ok()?;
            Some(if b { "true" } else { "false" })
        }
        b'n' => {
            r.read_null().ok()?;
            Some("null")
        }
        _ => None,
    }
}

/// Decodes a hot-path request by borrowing from the line — no `Json`
/// tree, no owned strings. Returns `None` on *any* anomaly (non-hot op,
/// escaped strings, tagged values, wrong types, malformed JSON, missing
/// required fields) so the caller falls back to [`parse_request`] and
/// the tree path produces its byte-identical response or error.
pub fn parse_request_fast(line: &str) -> Option<(FastRequest<'_>, FastEnvelope<'_>)> {
    let mut r = Reader::new(line.as_bytes());
    r.skip_ws();
    if r.peek() != Some(b'{') {
        return None;
    }
    r.begin_object().ok()?;
    let mut f = FastFields::default();
    let mut index = 0;
    while let Some(key) = r.next_key(index).ok()? {
        index += 1;
        match key.as_ref() {
            "op" if !f.op_seen => {
                f.op_seen = true;
                f.op = fast_opt_str(&mut r)?;
            }
            "session" if !f.session_seen => {
                f.session_seen = true;
                f.session = fast_opt_str(&mut r)?;
            }
            "snapshot" if !f.snapshot_seen => {
                f.snapshot_seen = true;
                f.snapshot = fast_opt_str(&mut r)?;
            }
            "name" if !f.name_seen => {
                f.name_seen = true;
                f.name = fast_opt_str(&mut r)?;
            }
            "resume" if !f.resume_seen => {
                f.resume_seen = true;
                f.resume = match r.peek()? {
                    b't' | b'f' => r.read_bool().ok()?,
                    b'n' => {
                        r.read_null().ok()?;
                        false
                    }
                    _ => return None,
                };
            }
            "value" if !f.value_seen => {
                f.value_seen = true;
                f.value = Some(match r.peek()? {
                    b'"' => match r.read_str().ok()? {
                        std::borrow::Cow::Borrowed(s) => ValueRef::Text(s),
                        std::borrow::Cow::Owned(_) => return None,
                    },
                    b't' | b'f' => ValueRef::Flag(r.read_bool().ok()?),
                    b'-' | b'0'..=b'9' => match r.read_number().ok()? {
                        Number::Int(i) => ValueRef::Int(i),
                        Number::Float(x) => ValueRef::Real(x),
                    },
                    // Tagged objects, arrays, and null take the tree
                    // path (which also owns their error messages).
                    _ => return None,
                });
            }
            "limit" if !f.limit_seen => {
                f.limit_seen = true;
                f.limit = fast_opt_usize(&mut r)?;
            }
            "offset" if !f.offset_seen => {
                f.offset_seen = true;
                f.offset = fast_opt_usize(&mut r)?;
            }
            "id" if !f.id_seen => {
                f.id_seen = true;
                f.id = Some(fast_raw_id(&mut r, line)?);
            }
            "deadline_ms" if !f.deadline_seen => {
                f.deadline_seen = true;
                f.deadline_ms = match r.peek()? {
                    b'n' => {
                        r.read_null().ok()?;
                        None
                    }
                    b'0'..=b'9' => match r.read_number().ok()? {
                        Number::Int(ms) if ms >= 0 => Some(ms as u64),
                        _ => return None,
                    },
                    _ => return None,
                };
            }
            // Duplicate occurrences and unknown keys: validate and skip.
            _ => {
                r.skip_value(0).ok()?;
            }
        }
    }
    r.end().ok()?;
    let req = match f.op? {
        "open" => FastRequest::Open {
            session: f.session,
            snapshot: f.snapshot,
            resume: f.resume,
        },
        "decide" => FastRequest::Decide {
            session: f.session?,
            name: f.name?,
            value: f.value?,
        },
        "retract" => FastRequest::Retract {
            session: f.session?,
            name: f.name,
        },
        "eval" => FastRequest::Eval {
            session: f.session?,
        },
        "surviving_cores" => FastRequest::SurvivingCores {
            session: f.session?,
            limit: f.limit,
            offset: f.offset,
        },
        "viable" => FastRequest::Viable {
            session: f.session?,
            name: f.name?,
        },
        "close" => FastRequest::Close {
            session: f.session?,
        },
        "stats" => FastRequest::Stats,
        _ => return None,
    };
    Some((
        req,
        FastEnvelope {
            id: f.id,
            deadline_ms: f.deadline_ms,
        },
    ))
}

/// Opens a success response on the writer: `{"ok":true,"id":…` with the
/// raw id spliced verbatim. The caller appends its fields and closes
/// the object.
pub fn render_ok_prefix(w: &mut Writer<'_>, id: Option<&str>) {
    w.begin_object();
    w.key("ok");
    w.bool_value(true);
    if let Some(raw) = id {
        w.key("id");
        w.raw_value(raw.as_bytes());
    }
}

/// Renders a complete failure response, byte-identical to
/// [`err_response`] + the tree serializer.
pub fn render_err_into(out: &mut Vec<u8>, id: Option<&str>, err: &ProtocolError) {
    let mut w = Writer::new(out);
    w.begin_object();
    w.key("ok");
    w.bool_value(false);
    if let Some(raw) = id {
        w.key("id");
        w.raw_value(raw.as_bytes());
    }
    w.key("code");
    w.str_value(err.code.as_str());
    w.key("error");
    w.str_value(&err.message);
    if let Some(ms) = err.retry_after_ms {
        w.key("retry_after_ms");
        w.int_value(ms as i64);
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_parse_with_scalar_and_tagged_values() {
        let (req, env) =
            parse_request(r#"{"op":"decide","session":"s1","name":"EOL","value":768,"id":7}"#);
        assert_eq!(
            req.unwrap(),
            Request::Decide {
                session: "s1".into(),
                name: "EOL".into(),
                value: Value::Int(768),
            }
        );
        assert_eq!(env.id, Some(Json::Int(7)));
        assert_eq!(env.deadline_ms, None);

        let (req, _) = parse_request(
            r#"{"op":"decide","session":"s1","name":"Algorithm","value":{"Text":"Montgomery"}}"#,
        );
        assert!(
            matches!(req.unwrap(), Request::Decide { value, .. } if value == Value::from("Montgomery"))
        );

        let (req, _) = parse_request(r#"{"op":"viable","session":"s1","name":"Algorithm"}"#);
        assert_eq!(
            req.unwrap(),
            Request::Viable {
                session: "s1".into(),
                name: "Algorithm".into(),
            }
        );

        let (req, _) = parse_request(r#"{"op":"open","snapshot":"crypto","resume":true}"#);
        assert_eq!(
            req.unwrap(),
            Request::Open {
                session: None,
                snapshot: Some("crypto".into()),
                resume: true,
            }
        );
    }

    #[test]
    fn malformed_and_unknown_requests_get_stable_codes() {
        let (req, _) = parse_request("not json");
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
        let (req, _) = parse_request("[1,2]");
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
        let (req, _) = parse_request(r#"{"op":"frobnicate"}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::UnknownOp);
        let (req, _) = parse_request(r#"{"op":"decide","session":"s"}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
        let (req, _) = parse_request(r#"{"op":"eval","session":5}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
    }

    #[test]
    fn deadlines_parse_and_bad_ones_are_malformed() {
        let (req, env) = parse_request(r#"{"op":"stats","id":1,"deadline_ms":250}"#);
        assert!(req.is_ok());
        assert_eq!(env.deadline_ms, Some(250));

        // The id still comes back when only the deadline is bad.
        let (req, env) = parse_request(r#"{"op":"stats","id":2,"deadline_ms":-5}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
        assert_eq!(env.id, Some(Json::Int(2)));
        let (req, _) = parse_request(r#"{"op":"stats","deadline_ms":"soon"}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
    }

    #[test]
    fn overload_errors_carry_the_retry_hint() {
        let err = ProtocolError::overloaded("connection cap reached", 200);
        let rendered = err_response(&Some(Json::Int(9)), &err);
        assert_eq!(rendered.get("code").and_then(Json::as_str), Some("DSL309"));
        assert_eq!(
            rendered.get("retry_after_ms").and_then(Json::as_i64),
            Some(200)
        );
        assert_eq!(rendered.get("id").and_then(Json::as_i64), Some(9));
        // Other errors do not grow the field.
        let plain = err_response(&None, &ProtocolError::deadline("budget ran out"));
        assert_eq!(plain.get("code").and_then(Json::as_str), Some("DSL310"));
        assert_eq!(plain.get("retry_after_ms"), None);
    }

    #[test]
    fn responses_echo_the_id() {
        let id = Some(Json::Str("req-1".into()));
        let ok = ok_response(&id, vec![("x".into(), Json::Int(1))]);
        assert_eq!(ok.get("id").and_then(Json::as_str), Some("req-1"));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        let err = err_response(&id, &ProtocolError::malformed("bad"));
        assert_eq!(err.get("code").and_then(Json::as_str), Some("DSL301"));
        assert_eq!(err.get("id").and_then(Json::as_str), Some("req-1"));
    }

    #[test]
    fn fast_parser_decodes_hot_ops_borrowing_from_the_line() {
        let line = r#"{"op":"decide","session":"s1","name":"EOL","value":768,"id":7}"#;
        let (req, env) = parse_request_fast(line).unwrap();
        assert_eq!(
            req,
            FastRequest::Decide {
                session: "s1",
                name: "EOL",
                value: ValueRef::Int(768),
            }
        );
        assert_eq!(env.id, Some("7"));
        assert_eq!(env.deadline_ms, None);

        let (req, env) =
            parse_request_fast(r#"{"op":"stats","id":"req-1","deadline_ms":250}"#).unwrap();
        assert_eq!(req, FastRequest::Stats);
        assert_eq!(env.id, Some("\"req-1\""));
        assert_eq!(env.deadline_ms, Some(250));

        let (req, _) =
            parse_request_fast(r#"{"op":"open","snapshot":"crypto","resume":true}"#).unwrap();
        assert_eq!(
            req,
            FastRequest::Open {
                session: None,
                snapshot: Some("crypto"),
                resume: true,
            }
        );
    }

    #[test]
    fn fast_parser_falls_back_on_anything_unusual() {
        // Non-hot ops, tagged values, escaped strings, exotic ids,
        // malformed JSON: all defer to the tree path.
        for line in [
            r#"{"op":"report","session":"s"}"#,
            r#"{"op":"invalidate","tool":"T"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"decide","session":"s","name":"A","value":{"Text":"x"}}"#,
            r#"{"op":"decide","session":"s","name":"A","value":null}"#,
            r#"{"op":"decide","session":"s"}"#,
            r#"{"op":"eval","session":5}"#,
            r#"{"op":"stats","id":1.5}"#,
            r#"{"op":"stats","id":-0}"#,
            r#"{"op":"stats","id":[1]}"#,
            r#"{"op":"stats","deadline_ms":-5}"#,
            r#"{"op":"stats","deadline_ms":"soon"}"#,
            r#"{"op":"stats"} trailing"#,
            r#"[1,2]"#,
            "not json",
        ] {
            assert!(parse_request_fast(line).is_none(), "should fall back: {line}");
        }
        // But null ids and bool ids are exactly re-encodable.
        let (_, env) = parse_request_fast(r#"{"op":"stats","id":null}"#).unwrap();
        assert_eq!(env.id, Some("null"));
        let (_, env) = parse_request_fast(r#"{"op":"stats","id":true}"#).unwrap();
        assert_eq!(env.id, Some("true"));
    }

    #[test]
    fn fast_parser_duplicate_keys_first_occurrence_wins() {
        let (req, env) =
            parse_request_fast(r#"{"op":"eval","session":"a","session":"b","id":1,"id":2}"#)
                .unwrap();
        assert_eq!(req, FastRequest::Eval { session: "a" });
        assert_eq!(env.id, Some("1"));
        // A null first occurrence pins the field to "absent" — the tree
        // path then owns the missing-field error.
        assert!(parse_request_fast(r#"{"op":"eval","session":null,"session":"b"}"#).is_none());
    }

    #[test]
    fn fast_error_rendering_matches_the_tree_serializer() {
        let err = ProtocolError::overloaded("connection cap reached", 200);
        let tree = foundation::json::encode(&err_response(&Some(Json::Int(9)), &err));
        let mut out = Vec::new();
        render_err_into(&mut out, Some("9"), &err);
        assert_eq!(String::from_utf8(out).unwrap(), tree);

        let err = ProtocolError::malformed("bad");
        let tree = foundation::json::encode(&err_response(&Some(Json::Str("r".into())), &err));
        let mut out = Vec::new();
        render_err_into(&mut out, Some("\"r\""), &err);
        assert_eq!(String::from_utf8(out).unwrap(), tree);
    }

    #[test]
    fn values_roundtrip_through_the_friendly_form() {
        for v in [
            Value::Int(42),
            Value::Real(2.5),
            Value::Text("x".into()),
            Value::Flag(true),
        ] {
            let j = value_to_json(&v);
            assert_eq!(value_from_json(&j).unwrap(), v);
        }
    }
}
