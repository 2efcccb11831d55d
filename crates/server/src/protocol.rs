//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line in, one response per line out. Every request is
//! a JSON object with an `"op"` field; every response is a JSON object
//! with an `"ok"` field. Failures carry a stable `dse::diag`-style code
//! from the `DSL3xx` range (plus `DSL201` surfacing torn-journal
//! recoveries) and a human-readable `"error"` message. A request may
//! carry an `"id"` (any JSON value), echoed in its response so
//! pipelining clients can match the two.
//!
//! [`parse_request`] is the one decoder. It makes a single pass of the
//! borrowing [`Reader`] over the line and builds no `Json` tree: string
//! fields borrow from the line unless an escape forces an owned copy.
//! It words every error itself, in a fixed order — JSON syntax,
//! `deadline_ms`, the object check, `op`, then the op's own fields in
//! order, each field's type before its presence. Replies are rendered
//! straight into the caller's buffer through [`Writer`]
//! ([`render_ok_prefix`], [`render_err_into`]).
//!
//! The full request/response grammar — every op, every error shape — is
//! documented in the repository README's "Server" section.

use std::borrow::Cow;

use dse::diag::DiagCode;
use dse::value::Value;
use foundation::json::{Json, JsonError, Number, Reader, Writer};

/// A decoded protocol request. String fields borrow from the request
/// line unless an escape sequence forced an owned copy.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Open a new session (or re-attach/recover with `resume`).
    Open {
        /// Client-chosen session id; the server generates one if absent.
        session: Option<Cow<'a, str>>,
        /// Snapshot to explore. Optional on resume (the journal's
        /// sidecar metadata names it).
        snapshot: Option<Cow<'a, str>>,
        /// Recover the session's journal instead of starting fresh.
        resume: bool,
    },
    /// Enter a requirement or decide a design issue (the server
    /// dispatches on the property's kind).
    Decide {
        /// The session.
        session: Cow<'a, str>,
        /// The property to decide.
        name: Cow<'a, str>,
        /// The chosen value.
        value: ValueRef<'a>,
    },
    /// Undo decisions: the most recent one, or back to and including
    /// `name`.
    Retract {
        /// The session.
        session: Cow<'a, str>,
        /// Undo down to (and including) this decision; bare retract
        /// undoes one.
        name: Option<Cow<'a, str>>,
    },
    /// Evaluate: absorb derived values and run ready estimators.
    Eval {
        /// The session.
        session: Cow<'a, str>,
    },
    /// One page of the cores complying with every decision so far.
    /// The response echoes the exact total (`count`) and the effective
    /// `offset`/`limit`, and flags `truncated` pages clipped by the
    /// wire-frame byte budget — million-core results are fetched page
    /// by page, never as one oversized line.
    SurvivingCores {
        /// The session.
        session: Cow<'a, str>,
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
        session: Cow<'a, str>,
        /// The property to probe.
        name: Cow<'a, str>,
    },
    /// Full session report.
    Report {
        /// The session.
        session: Cow<'a, str>,
    },
    /// Close the session, removing its journal.
    Close {
        /// The session.
        session: Cow<'a, str>,
    },
    /// Server-wide counters and cache statistics.
    Stats,
    /// Drop every cached estimate produced by one tool.
    Invalidate {
        /// The estimator tool name.
        tool: Cow<'a, str>,
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

/// Per-request transport metadata that rides alongside the op itself:
/// the correlation `id` (echoed even when the op fails to decode) and
/// the optional cooperative `deadline_ms` budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Envelope<'a> {
    /// The id exactly as the response echoes it: its compact encoding.
    /// That is the raw token from the line whenever the token already is
    /// compact (`"req-1"`, `42`, `null`); otherwise (`1.50`, `-0`,
    /// escaped strings, spaced arrays) it is re-encoded, which is the
    /// only case that allocates.
    pub id: Option<Cow<'a, str>>,
    /// Cooperative deadline for this request, in milliseconds. The
    /// engine converts it to a deterministic `robust::Fuel` step budget
    /// (no wall clock), answering `DSL310` when it runs dry.
    pub deadline_ms: Option<u64>,
}

/// A request value: a scalar borrowed from the line (`768`,
/// `"Hardware"`, `true`, `2.5`), or an owned [`Value`] decoded from the
/// codec's tagged form (`{"Int":768}` or `{"Int":[768]}`).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef<'a> {
    /// An integer scalar.
    Int(i64),
    /// A real scalar.
    Real(f64),
    /// A text scalar, borrowed unless escaped.
    Text(Cow<'a, str>),
    /// A boolean scalar.
    Flag(bool),
    /// A tagged value.
    Tagged(Value),
}

impl ValueRef<'_> {
    /// Converts to the owned [`Value`] the engine stores.
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Real(r) => Value::Real(*r),
            ValueRef::Text(s) => Value::Text(s.as_ref().to_owned()),
            ValueRef::Flag(b) => Value::Flag(*b),
            ValueRef::Tagged(v) => v.clone(),
        }
    }

    /// Renders the value in the friendly scalar wire form.
    pub fn write(&self, w: &mut Writer<'_>) {
        match self {
            ValueRef::Int(i) => w.int_value(*i),
            ValueRef::Real(r) => w.float_value(*r),
            ValueRef::Text(s) => w.str_value(s),
            ValueRef::Flag(b) => w.bool_value(*b),
            ValueRef::Tagged(v) => write_value(w, v),
        }
    }
}

/// Renders a [`Value`] in the friendly scalar wire form.
pub fn write_value(w: &mut Writer<'_>, v: &Value) {
    match v {
        Value::Int(i) => w.int_value(*i),
        Value::Real(r) => w.float_value(*r),
        Value::Text(s) => w.str_value(s),
        Value::Flag(b) => w.bool_value(*b),
        // `Value` is non-exhaustive: fall back to the display form.
        other => w.str_value(&other.to_string()),
    }
}

/// Decodes one request line. Returns the request plus its [`Envelope`];
/// the envelope's id comes back even when the op fails to decode, so
/// the client can still match the failure (when the line is valid JSON
/// at all).
pub fn parse_request(line: &str) -> (Result<Request<'_>, ProtocolError>, Envelope<'_>) {
    match Fields::scan(line) {
        Ok(fields) => {
            let mut env = Envelope {
                id: fields.id.map(echo_id),
                deadline_ms: None,
            };
            let req = fields.request(&mut env.deadline_ms);
            (req, env)
        }
        Err(e) => (
            Err(ProtocolError::malformed(format!("invalid JSON: {e}"))),
            Envelope::default(),
        ),
    }
}

/// [`parse_request`] for callers that only need the decoded request:
/// `None` whenever decoding fails.
#[doc(hidden)]
pub fn parse_request_fast(line: &str) -> Option<(Request<'_>, Envelope<'_>)> {
    match parse_request(line) {
        (Ok(req), env) => Some((req, env)),
        (Err(_), _) => None,
    }
}

/// The first occurrence of one known key, as read off the line.
#[derive(Clone, Copy, Default)]
enum Field<'a> {
    #[default]
    Absent,
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    /// A string with escapes, as its raw token: decoded only when read.
    Escaped(&'a str),
    /// An array or object, as its raw span: only a tagged value is
    /// ever parsed.
    Composite(&'a str),
}

impl<'a> Field<'a> {
    /// Reads one value, failing exactly where (and as) `Json::parse`
    /// would.
    fn read(r: &mut Reader<'a>, line: &'a str) -> Result<Field<'a>, JsonError> {
        Ok(match r.peek() {
            Some(b'"') => {
                let start = r.pos();
                match r.read_str()? {
                    Cow::Borrowed(s) => Field::Str(s),
                    Cow::Owned(_) => Field::Escaped(&line[start..r.pos()]),
                }
            }
            Some(b'-' | b'0'..=b'9') => match r.read_number()? {
                Number::Int(i) => Field::Int(i),
                Number::Float(x) => Field::Float(x),
            },
            Some(b't' | b'f') => Field::Bool(r.read_bool()?),
            Some(b'n') => {
                r.read_null()?;
                Field::Null
            }
            _ => {
                let start = r.pos();
                r.skip_value(1)?;
                Field::Composite(&line[start..r.pos()])
            }
        })
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Field::Absent | Field::Null => "null",
            Field::Bool(_) => "bool",
            Field::Int(_) => "int",
            Field::Float(_) => "float",
            Field::Str(_) | Field::Escaped(_) => "string",
            Field::Composite(span) if span.starts_with('[') => "array",
            Field::Composite(_) => "object",
        }
    }

    /// An optional string; `null` counts as absent.
    fn opt_str(self, key: &str) -> Result<Option<Cow<'a, str>>, ProtocolError> {
        match self {
            Field::Absent | Field::Null => Ok(None),
            Field::Str(s) => Ok(Some(Cow::Borrowed(s))),
            Field::Escaped(raw) => Ok(Some(unescape(raw))),
            other => Err(ProtocolError::malformed(format!(
                "field {key:?} must be a string, got {}",
                other.kind_name()
            ))),
        }
    }

    /// A required string: a wrong type is reported before absence.
    fn required_str(self, key: &str) -> Result<Cow<'a, str>, ProtocolError> {
        self.opt_str(key)?
            .ok_or_else(|| ProtocolError::malformed(format!("missing required field {key:?}")))
    }

    /// An optional boolean; `null` and absence read as `false`.
    fn flag(self, key: &str) -> Result<bool, ProtocolError> {
        match self {
            Field::Absent | Field::Null => Ok(false),
            Field::Bool(b) => Ok(b),
            other => Err(ProtocolError::malformed(format!(
                "field {key:?} must be a boolean, got {}",
                other.kind_name()
            ))),
        }
    }

    /// An optional non-negative integer; `null` counts as absent, and an
    /// integral float (`3.0`) counts as the integer.
    fn count(self, key: &str) -> Result<Option<usize>, ProtocolError> {
        let n = match self {
            Field::Absent | Field::Null => return Ok(None),
            Field::Int(i) => Some(i),
            Field::Float(x) => Json::Float(x).as_i64(),
            _ => None,
        };
        match n {
            Some(n) if n >= 0 => Ok(Some(n as usize)),
            _ => Err(ProtocolError::malformed(format!(
                "field {key:?} must be a non-negative integer"
            ))),
        }
    }

    /// The `value` of a decide. Unlike the string fields, a `null`
    /// value is present (and wrong).
    fn wire_value(self) -> Result<ValueRef<'a>, ProtocolError> {
        match self {
            Field::Absent => Err(ProtocolError::malformed("missing required field \"value\"")),
            Field::Bool(b) => Ok(ValueRef::Flag(b)),
            Field::Int(i) => Ok(ValueRef::Int(i)),
            Field::Float(x) => Ok(ValueRef::Real(x)),
            Field::Str(s) => Ok(ValueRef::Text(Cow::Borrowed(s))),
            Field::Escaped(raw) => Ok(ValueRef::Text(unescape(raw))),
            Field::Composite(span) if span.starts_with('{') => {
                tagged_value(&Json::parse(span).expect("the scan validated the value"))
                    .map(ValueRef::Tagged)
            }
            other => Err(ProtocolError::malformed(format!(
                "field \"value\" must be a scalar or tagged value, got {}",
                other.kind_name()
            ))),
        }
    }
}

/// Decodes a string token the scan already validated.
fn unescape(raw: &str) -> Cow<'_, str> {
    Reader::new(raw.as_bytes())
        .read_str()
        .expect("the scan validated the string")
}

/// Decodes the codec's tagged form `{"Int":[768]}`, also accepting the
/// unwrapped `{"Int":768}` clients naturally write.
fn tagged_value(j: &Json) -> Result<Value, ProtocolError> {
    let normalized = match j.as_object() {
        Some([(tag, payload)]) if !matches!(payload, Json::Array(_)) => {
            Json::Object(vec![(tag.clone(), Json::Array(vec![payload.clone()]))])
        }
        _ => j.clone(),
    };
    // Through the text form, so a payload the codec cannot write (an
    // overflowing `1e999` encodes as `null`) is refused, not stored.
    foundation::json::decode::<Value>(&foundation::json::encode(&normalized))
        .map_err(|e| ProtocolError::malformed(format!("bad tagged value: {e}")))
}

/// The id's compact encoding: the raw token when it already is one, else
/// the re-encoded value.
fn echo_id(raw: &str) -> Cow<'_, str> {
    let compact = match raw.as_bytes()[0] {
        b'n' | b't' | b'f' => true,
        // Only `"`, `\` and control characters get escaped, and an
        // escape-free token can hold none of them.
        b'"' => !raw.contains('\\'),
        // `-0` is the one integer token that re-encodes differently.
        b'-' | b'0'..=b'9' => raw != "-0" && raw.parse::<i64>().is_ok(),
        _ => false,
    };
    if compact {
        return Cow::Borrowed(raw);
    }
    let encoded = foundation::json::encode(&Json::parse(raw).expect("the scan validated the id"));
    if encoded == raw {
        Cow::Borrowed(raw)
    } else {
        Cow::Owned(encoded)
    }
}

/// Every key the decoder knows, filled by one left-to-right scan. Key
/// order on the line is arbitrary, so nothing is validated until the
/// whole line has been read; the first occurrence of a key wins.
#[derive(Default)]
struct Fields<'a> {
    op: Field<'a>,
    session: Field<'a>,
    snapshot: Field<'a>,
    name: Field<'a>,
    resume: Field<'a>,
    value: Field<'a>,
    limit: Field<'a>,
    offset: Field<'a>,
    tool: Field<'a>,
    deadline_ms: Field<'a>,
    /// The raw id token.
    id: Option<&'a str>,
    /// The kind of a document that is not an object.
    not_object: Option<&'static str>,
}

impl<'a> Fields<'a> {
    /// Scans a whole line, failing on the first syntax error exactly as
    /// `Json::parse` would (same message, same position).
    fn scan(line: &'a str) -> Result<Fields<'a>, JsonError> {
        let mut f = Fields::default();
        let mut r = Reader::new(line.as_bytes());
        r.skip_ws();
        if r.peek() != Some(b'{') {
            f.not_object = Some(r.read_value(0)?.kind_name());
            r.end()?;
            return Ok(f);
        }
        r.begin_object()?;
        let mut index = 0;
        while let Some(key) = r.next_key(index)? {
            index += 1;
            let slot = match key.as_ref() {
                "op" => &mut f.op,
                "session" => &mut f.session,
                "snapshot" => &mut f.snapshot,
                "name" => &mut f.name,
                "resume" => &mut f.resume,
                "value" => &mut f.value,
                "limit" => &mut f.limit,
                "offset" => &mut f.offset,
                "tool" => &mut f.tool,
                "deadline_ms" => &mut f.deadline_ms,
                "id" if f.id.is_none() => {
                    let start = r.pos();
                    r.skip_value(1)?;
                    f.id = Some(&line[start..r.pos()]);
                    continue;
                }
                _ => {
                    r.skip_value(1)?;
                    continue;
                }
            };
            if matches!(slot, Field::Absent) {
                *slot = Field::read(&mut r, line)?;
            } else {
                r.skip_value(1)?;
            }
        }
        r.end()?;
        Ok(f)
    }

    /// Validates the scanned fields in the wire contract's order:
    /// `deadline_ms`, the object check, `op`, then the op's fields.
    fn request(&self, deadline_ms: &mut Option<u64>) -> Result<Request<'a>, ProtocolError> {
        *deadline_ms = self.deadline_ms.count("deadline_ms")?.map(|ms| ms as u64);
        if let Some(kind) = self.not_object {
            return Err(ProtocolError::malformed(format!(
                "request must be a JSON object, got {kind}"
            )));
        }
        let op = self.op.required_str("op")?;
        Ok(match op.as_ref() {
            "open" => Request::Open {
                session: self.session.opt_str("session")?,
                snapshot: self.snapshot.opt_str("snapshot")?,
                resume: self.resume.flag("resume")?,
            },
            "decide" => Request::Decide {
                session: self.session.required_str("session")?,
                name: self.name.required_str("name")?,
                value: self.value.wire_value()?,
            },
            "retract" => Request::Retract {
                session: self.session.required_str("session")?,
                name: self.name.opt_str("name")?,
            },
            "eval" => Request::Eval {
                session: self.session.required_str("session")?,
            },
            "surviving_cores" => Request::SurvivingCores {
                session: self.session.required_str("session")?,
                limit: self.limit.count("limit")?,
                offset: self.offset.count("offset")?,
            },
            "viable" => Request::Viable {
                session: self.session.required_str("session")?,
                name: self.name.required_str("name")?,
            },
            "report" => Request::Report {
                session: self.session.required_str("session")?,
            },
            "close" => Request::Close {
                session: self.session.required_str("session")?,
            },
            "stats" => Request::Stats,
            "invalidate" => Request::Invalidate {
                tool: self.tool.required_str("tool")?,
            },
            "shutdown" => Request::Shutdown,
            other => {
                return Err(ProtocolError::new(
                    DiagCode::UnknownOp,
                    format!("unknown op {other:?}"),
                ))
            }
        })
    }
}

/// Opens a success response on the writer: `{"ok":true,"id":…` with the
/// id spliced in as given. The caller appends its fields and closes the
/// object.
pub fn render_ok_prefix(w: &mut Writer<'_>, id: Option<&str>) {
    w.begin_object();
    w.key("ok");
    w.bool_value(true);
    if let Some(raw) = id {
        w.key("id");
        w.raw_value(raw.as_bytes());
    }
}

/// Renders a complete failure response:
/// `{"ok":false,"id":…,"code":"DSLnnn","error":"…"}`, plus
/// `retry_after_ms` when the error carries one.
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

    fn err_line(id: Option<&str>, err: &ProtocolError) -> String {
        let mut out = Vec::new();
        render_err_into(&mut out, id, err);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn ops_parse_with_scalar_and_tagged_values() {
        let (req, env) =
            parse_request(r#"{"op":"decide","session":"s1","name":"EOL","value":768,"id":7}"#);
        assert_eq!(
            req.unwrap(),
            Request::Decide {
                session: "s1".into(),
                name: "EOL".into(),
                value: ValueRef::Int(768),
            }
        );
        assert_eq!(env.id.as_deref(), Some("7"));
        assert_eq!(env.deadline_ms, None);

        for line in [
            r#"{"op":"decide","session":"s1","name":"Algorithm","value":{"Text":"Montgomery"}}"#,
            r#"{"op":"decide","session":"s1","name":"Algorithm","value":{"Text":["Montgomery"]}}"#,
        ] {
            let (req, _) = parse_request(line);
            assert!(
                matches!(req.unwrap(), Request::Decide { value: ValueRef::Tagged(v), .. } if v == Value::from("Montgomery")),
                "{line}"
            );
        }

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

        let (req, _) = parse_request(r#"{"op":"invalidate","tool":"T"}"#);
        assert_eq!(req.unwrap(), Request::Invalidate { tool: "T".into() });
        let (req, _) = parse_request(r#"{"op":"report","session":"s"}"#);
        assert_eq!(
            req.unwrap(),
            Request::Report {
                session: "s".into()
            }
        );
        let (req, _) = parse_request(r#"{"op":"shutdown"}"#);
        assert_eq!(req.unwrap(), Request::Shutdown);
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
        let (_, env) = parse_request(r#"{"op":"stats","deadline_ms":3.0}"#);
        assert_eq!(env.deadline_ms, Some(3));

        // The id still comes back when only the deadline is bad.
        let (req, env) = parse_request(r#"{"op":"stats","id":2,"deadline_ms":-5}"#);
        assert_eq!(req.unwrap_err().code, DiagCode::MalformedRequest);
        assert_eq!(env.id.as_deref(), Some("2"));
        for line in [
            r#"{"op":"stats","deadline_ms":"soon"}"#,
            r#"{"op":"stats","deadline_ms":1.5}"#,
            // Checked before the op is even looked at.
            r#"{"op":"frobnicate","deadline_ms":-1}"#,
        ] {
            let (req, _) = parse_request(line);
            assert_eq!(
                req.unwrap_err().message,
                "field \"deadline_ms\" must be a non-negative integer",
                "{line}"
            );
        }
    }

    #[test]
    fn overload_errors_carry_the_retry_hint() {
        let err = ProtocolError::overloaded("connection cap reached", 200);
        assert_eq!(
            err_line(Some("9"), &err),
            r#"{"ok":false,"id":9,"code":"DSL309","error":"connection cap reached","retry_after_ms":200}"#
        );
        // Other errors do not grow the field.
        assert_eq!(
            err_line(None, &ProtocolError::deadline("budget ran out")),
            r#"{"ok":false,"code":"DSL310","error":"budget ran out"}"#
        );
    }

    #[test]
    fn responses_echo_the_id() {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        render_ok_prefix(&mut w, Some(r#""req-1""#));
        w.key("x");
        w.int_value(1);
        w.end_object();
        assert_eq!(out, br#"{"ok":true,"id":"req-1","x":1}"#);
        assert_eq!(
            err_line(Some(r#""req-1""#), &ProtocolError::malformed("bad")),
            r#"{"ok":false,"id":"req-1","code":"DSL301","error":"bad"}"#
        );
    }

    #[test]
    fn fast_parser_decodes_hot_ops_borrowing_from_the_line() {
        let line = r#"{"op":"decide","session":"s1","name":"EOL","value":"x","id":7}"#;
        let (req, env) = parse_request(line);
        let Ok(Request::Decide {
            session: Cow::Borrowed("s1"),
            name: Cow::Borrowed("EOL"),
            value: ValueRef::Text(Cow::Borrowed("x")),
        }) = req
        else {
            panic!("decide did not borrow from the line: {req:?}");
        };
        assert!(matches!(env.id, Some(Cow::Borrowed("7"))));

        let (req, env) = parse_request(r#"{"op":"stats","id":"req-1","deadline_ms":250}"#);
        assert_eq!(req.unwrap(), Request::Stats);
        assert!(matches!(env.id, Some(Cow::Borrowed("\"req-1\""))));
        assert_eq!(env.deadline_ms, Some(250));
    }

    #[test]
    fn escapes_ids_and_stray_fields_decode_by_the_wire_contract() {
        // Escaped strings decode to owned copies.
        let (req, _) = parse_request(r#"{"op":"eval","session":"\u0068"}"#);
        assert!(matches!(req.unwrap(), Request::Eval { session: Cow::Owned(s) } if s == "h"));
        // Ids echo in their compact encoding; only non-compact tokens
        // are re-encoded.
        for (id, echo) in [
            ("1.50", "1.5"),
            ("-0", "0"),
            ("1e2", "100.0"),
            (r#""\u0041""#, r#""A""#),
            ("[1, 2]", "[1,2]"),
            (r#"{ "a" : 1 }"#, r#"{"a":1}"#),
        ] {
            let line = format!(r#"{{"op":"stats","id":{id}}}"#);
            let (_, env) = parse_request(&line);
            assert!(
                matches!(env.id, Some(Cow::Owned(ref s)) if s == echo),
                "{id}"
            );
        }
        for id in ["null", "true", "-7", r#""é""#, "[1,2]", r#"{"a":1}"#] {
            let line = format!(r#"{{"op":"stats","id":{id}}}"#);
            let (_, env) = parse_request(&line);
            assert!(matches!(env.id, Some(Cow::Borrowed(s)) if s == id), "{id}");
        }
        // Fields an op does not read are never validated.
        let (req, _) = parse_request(r#"{"op":"stats","session":5,"value":null}"#);
        assert_eq!(req.unwrap(), Request::Stats);
        // Syntax errors are worded as `Json::parse` words them.
        let (req, env) = parse_request(r#"{"op":"stats","id":1} trailing"#);
        assert_eq!(
            req.unwrap_err().message,
            format!(
                "invalid JSON: {}",
                Json::parse(r#"{"op":"stats","id":1} trailing"#).unwrap_err()
            )
        );
        assert_eq!(env, Envelope::default());
    }

    #[test]
    fn fast_parser_duplicate_keys_first_occurrence_wins() {
        let (req, env) =
            parse_request(r#"{"op":"eval","session":"a","session":"b","id":1,"id":2}"#);
        assert_eq!(
            req.unwrap(),
            Request::Eval {
                session: "a".into()
            }
        );
        assert_eq!(env.id.as_deref(), Some("1"));
        // A null first occurrence pins the field to "absent".
        let (req, _) = parse_request(r#"{"op":"eval","session":null,"session":"b"}"#);
        assert_eq!(
            req.unwrap_err().message,
            "missing required field \"session\""
        );
        // ... except for a decide's value, where null is a wrong type.
        let (req, _) =
            parse_request(r#"{"op":"decide","session":"s","name":"n","value":null,"value":1}"#);
        assert_eq!(
            req.unwrap_err().message,
            "field \"value\" must be a scalar or tagged value, got null"
        );
    }

    #[test]
    fn fast_error_rendering_matches_the_tree_serializer() {
        let err = ProtocolError::overloaded("connection cap reached", 200);
        let tree = Json::Object(vec![
            ("ok".into(), Json::Bool(false)),
            ("id".into(), Json::Str("r".into())),
            ("code".into(), Json::Str("DSL309".into())),
            ("error".into(), Json::Str(err.message.clone())),
            ("retry_after_ms".into(), Json::Int(200)),
        ]);
        assert_eq!(
            err_line(Some("\"r\""), &err),
            foundation::json::encode(&tree)
        );
    }

    #[test]
    fn values_roundtrip_through_the_friendly_form() {
        for v in [
            Value::Int(42),
            Value::Real(2.5),
            Value::Text("x\"y".into()),
            Value::Flag(true),
        ] {
            let mut rendered = Vec::new();
            write_value(&mut Writer::new(&mut rendered), &v);
            let line = format!(
                r#"{{"op":"decide","session":"s","name":"n","value":{}}}"#,
                String::from_utf8(rendered).unwrap()
            );
            let (req, _) = parse_request(&line);
            let Ok(Request::Decide { value, .. }) = req else {
                panic!("{line} did not decode");
            };
            assert_eq!(value.to_value(), v);
        }
    }
}
