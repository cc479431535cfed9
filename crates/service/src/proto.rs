//! The line-oriented JSON protocol: one request per line in, one response
//! per line out.
//!
//! The codec is hand-rolled (the container is offline; no serde) and
//! hardened the same way the engine's `log.rs` parser is: parsing is total
//! over arbitrary input — malformed bytes yield a typed [`ProtoError`],
//! **never** a panic — and printing is a fixed point, `parse(print(x))`
//! reprints byte-identically (property-tested over every variant in
//! `tests/proto.rs`).
//!
//! The JSON dialect is deliberately small: objects with string keys,
//! strings, unsigned integers, booleans and arrays — exactly what the
//! message shapes below need. Anything else (floats, `null`, nesting the
//! shapes don't use) is a typed error, not an extension point.
//!
//! # Requests
//!
//! ```text
//! {"op":"append","log":"base x\n..."}        durable append (writer)
//! {"op":"abort","txn":"t1","structure":"bool"}     concrete abort view
//! {"op":"delete","tuple":"x","structure":"worlds"} deletion propagation
//! {"op":"eval","structure":"trust"}          whole-database evaluation
//! {"op":"abort_symbolic","txn":"t1"}         symbolic abort view (writer)
//! {"op":"equiv","log":"..."}                 equivalence vs. a candidate log
//! {"op":"snapshot"}                          checkpoint (writer)
//! {"op":"stats"}                             service counters
//! {"op":"set_budget","entries":4096}         per-client cache budget
//! {"op":"shutdown"}                          drain and stop
//! ```
//!
//! # Responses
//!
//! Every success carries `seq` — the number of appends visible in the
//! state that answered it; the soak oracle replays exactly that prefix.
//! Errors carry a machine-readable `err` kind plus a human message.

// Panic-free zone: the parser is total over arbitrary client bytes.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice,
    )
)]

use std::fmt;
use std::str::FromStr;

use crate::values::StructureId;

/// A malformed protocol line. Total and typed, like the update-log parser:
/// lexical damage reports where, shape damage reports what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not (our dialect of) JSON: byte offset + what went
    /// wrong there.
    Json {
        /// Byte offset of the offending character.
        at: usize,
        /// What the lexer expected or found.
        message: String,
    },
    /// The line is well-formed JSON but not a known message shape.
    Shape {
        /// Which key or value violated the shape.
        message: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json { at, message } => write!(f, "json error at byte {at}: {message}"),
            ProtoError::Shape { message } => write!(f, "bad message shape: {message}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn shape(message: impl Into<String>) -> ProtoError {
    ProtoError::Shape {
        message: message.into(),
    }
}

/// A client request. See the [module docs](self) for the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Durable append of a textual update log.
    Append {
        /// The log, in the `UpdateLog` line format.
        log: String,
    },
    /// Concrete abort query under a named structure.
    AbortEval {
        /// Transaction to abort.
        txn: String,
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Concrete deletion-propagation query under a named structure.
    DeleteBaseEval {
        /// Base tuple to delete.
        tuple: String,
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Whole-database evaluation under a named structure.
    EvalAll {
        /// Structure to evaluate under.
        structure: StructureId,
    },
    /// Symbolic abort query (normal forms over surviving annotations).
    AbortSymbolic {
        /// Transaction to abort.
        txn: String,
    },
    /// Equivalence of the resident state against a candidate log.
    Equiv {
        /// The candidate log, replayed fresh and compared.
        log: String,
    },
    /// Checkpoint: snapshot + WAL reset.
    Snapshot,
    /// Service counters.
    Stats,
    /// Set this client's normal-form/substitution cache budget.
    SetBudget {
        /// Max cached entries while serving this client; `None` lifts the
        /// cap.
        entries: Option<u64>,
    },
    /// Drain in-flight requests and stop the service.
    Shutdown,
}

/// One row of a concrete evaluation: tuple name and rendered value.
pub type Row = (String, String);

/// One row of a symbolic view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicRow {
    /// Tuple name.
    pub name: String,
    /// Rendered normal-form provenance over the surviving annotations.
    pub provenance: String,
    /// The normalizer saturated on this tuple (the rendered form is
    /// rewrite-equivalent but not canonical).
    pub saturated: bool,
}

/// Machine-readable error category on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse.
    Parse,
    /// The appended log was rejected by validation.
    Replay,
    /// A query named an unknown transaction or tuple.
    Query,
    /// A bounded queue was full — retry later.
    Overloaded,
    /// The service is draining; no new requests.
    ShuttingDown,
    /// The storage backend failed.
    Io,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Replay => "replay",
            ErrorKind::Query => "query",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Io => "io",
        }
    }

    fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "replay" => ErrorKind::Replay,
            "query" => ErrorKind::Query,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "io" => ErrorKind::Io,
            _ => return None,
        })
    }
}

/// A service response. Every success variant carries the append sequence
/// number its answer reflects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The append committed durably.
    Appended {
        /// Appends visible after this one (its 1-based position).
        seq: u64,
        /// Updates applied from the log.
        applied: u64,
    },
    /// Concrete evaluation rows, in sorted tuple order.
    Rows {
        /// Appends visible in the answering state.
        seq: u64,
        /// `(tuple, rendered value)` rows.
        rows: Vec<Row>,
    },
    /// Symbolic view rows, in sorted tuple order.
    Symbolic {
        /// Appends visible in the answering state.
        seq: u64,
        /// Per-tuple normal forms.
        rows: Vec<SymbolicRow>,
    },
    /// Equivalence verdict.
    Equiv {
        /// Appends visible in the answering state.
        seq: u64,
        /// No tuple differs and none is undecided.
        equivalent: bool,
        /// Tuples with provably different normal forms.
        differing: Vec<String>,
        /// Tuples the normalizer saturated on.
        undecided: Vec<String>,
    },
    /// Checkpoint completed.
    Snapshotted {
        /// Appends covered by the snapshot.
        seq: u64,
    },
    /// Service counters.
    Stats {
        /// Appends visible.
        seq: u64,
        /// Tuples with recorded provenance.
        tuples: u64,
        /// Interned arena nodes.
        nodes: u64,
        /// Live cache entries (NF + substitution).
        cached: u64,
        /// Coalesced batches executed so far.
        batches: u64,
        /// Requests that rode a coalesced batch of ≥ 2.
        coalesced: u64,
    },
    /// Budget applied.
    BudgetSet {
        /// Appends visible.
        seq: u64,
    },
    /// Shutdown acknowledged; the service is draining.
    Bye {
        /// Appends visible at shutdown.
        seq: u64,
    },
    /// The request failed; nothing changed.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable cause.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// The tiny JSON dialect.

#[derive(Debug, Clone, PartialEq, Eq)]
enum Json {
    Str(String),
    Int(u64),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(s: &'a str) -> Self {
        Lexer {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ProtoError {
        ProtoError::Json {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), ProtoError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", want as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ProtoError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ProtoError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, ProtoError> {
        // Digits accumulate directly (checked): no slice back over the
        // input, no intermediate string — the parse stays total.
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(self.err("only unsigned integers are supported"));
        }
        Ok(Json::Int(value))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                            self.pos += 3; // +1 more below, like every branch
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched: find the
                    // char boundary and copy the whole scalar.
                    let rest = std::str::from_utf8(self.bytes.get(self.pos..).unwrap_or_default())
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let Some(ch) = rest.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ProtoError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ProtoError> {
        self.expect_byte(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn parse_json(line: &str) -> Result<Json, ProtoError> {
    let mut lx = Lexer::new(line);
    let value = lx.value()?;
    lx.skip_ws();
    if lx.pos != lx.bytes.len() {
        return Err(lx.err("trailing garbage after message"));
    }
    Ok(value)
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_str_list(f: &mut fmt::Formatter<'_>, items: &[String]) -> fmt::Result {
    f.write_str("[")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write_escaped(f, item)?;
    }
    f.write_str("]")
}

// ---------------------------------------------------------------------------
// Shape extraction helpers.

struct Fields(Vec<(String, Json)>);

impl Fields {
    fn take(&mut self, key: &str) -> Option<Json> {
        let ix = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(ix).1)
    }

    fn string(&mut self, key: &str) -> Result<String, ProtoError> {
        match self.take(key) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(shape(format!("`{key}` must be a string"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn int(&mut self, key: &str) -> Result<u64, ProtoError> {
        match self.take(key) {
            Some(Json::Int(n)) => Ok(n),
            Some(_) => Err(shape(format!("`{key}` must be an unsigned integer"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn boolean(&mut self, key: &str) -> Result<bool, ProtoError> {
        match self.take(key) {
            Some(Json::Bool(b)) => Ok(b),
            Some(_) => Err(shape(format!("`{key}` must be a boolean"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn structure(&mut self) -> Result<StructureId, ProtoError> {
        let name = self.string("structure")?;
        StructureId::from_str(&name).map_err(|e| shape(format!("`structure`: {e}")))
    }

    fn str_list(&mut self, key: &str) -> Result<Vec<String>, ProtoError> {
        match self.take(key) {
            Some(Json::Arr(items)) => items
                .into_iter()
                .map(|item| match item {
                    Json::Str(s) => Ok(s),
                    _ => Err(shape(format!("`{key}` must hold strings"))),
                })
                .collect(),
            Some(_) => Err(shape(format!("`{key}` must be an array"))),
            None => Err(shape(format!("missing key `{key}`"))),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        match self.0.first() {
            None => Ok(()),
            Some((k, _)) => Err(shape(format!("unknown key `{k}`"))),
        }
    }
}

fn as_object(value: Json) -> Result<Fields, ProtoError> {
    match value {
        Json::Obj(fields) => Ok(Fields(fields)),
        _ => Err(shape("message must be a JSON object")),
    }
}

// ---------------------------------------------------------------------------
// Request codec.

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Append { log } => {
                f.write_str("{\"op\":\"append\",\"log\":")?;
                write_escaped(f, log)?;
                f.write_str("}")
            }
            Request::AbortEval { txn, structure } => {
                f.write_str("{\"op\":\"abort\",\"txn\":")?;
                write_escaped(f, txn)?;
                write!(f, ",\"structure\":\"{structure}\"}}")
            }
            Request::DeleteBaseEval { tuple, structure } => {
                f.write_str("{\"op\":\"delete\",\"tuple\":")?;
                write_escaped(f, tuple)?;
                write!(f, ",\"structure\":\"{structure}\"}}")
            }
            Request::EvalAll { structure } => {
                write!(f, "{{\"op\":\"eval\",\"structure\":\"{structure}\"}}")
            }
            Request::AbortSymbolic { txn } => {
                f.write_str("{\"op\":\"abort_symbolic\",\"txn\":")?;
                write_escaped(f, txn)?;
                f.write_str("}")
            }
            Request::Equiv { log } => {
                f.write_str("{\"op\":\"equiv\",\"log\":")?;
                write_escaped(f, log)?;
                f.write_str("}")
            }
            Request::Snapshot => f.write_str("{\"op\":\"snapshot\"}"),
            Request::Stats => f.write_str("{\"op\":\"stats\"}"),
            Request::SetBudget { entries: Some(n) } => {
                write!(f, "{{\"op\":\"set_budget\",\"entries\":{n}}}")
            }
            Request::SetBudget { entries: None } => f.write_str("{\"op\":\"set_budget\"}"),
            Request::Shutdown => f.write_str("{\"op\":\"shutdown\"}"),
        }
    }
}

impl FromStr for Request {
    type Err = ProtoError;

    fn from_str(line: &str) -> Result<Self, ProtoError> {
        let mut fields = as_object(parse_json(line)?)?;
        let op = fields.string("op")?;
        let req = match op.as_str() {
            "append" => Request::Append {
                log: fields.string("log")?,
            },
            "abort" => Request::AbortEval {
                txn: fields.string("txn")?,
                structure: fields.structure()?,
            },
            "delete" => Request::DeleteBaseEval {
                tuple: fields.string("tuple")?,
                structure: fields.structure()?,
            },
            "eval" => Request::EvalAll {
                structure: fields.structure()?,
            },
            "abort_symbolic" => Request::AbortSymbolic {
                txn: fields.string("txn")?,
            },
            "equiv" => Request::Equiv {
                log: fields.string("log")?,
            },
            "snapshot" => Request::Snapshot,
            "stats" => Request::Stats,
            "set_budget" => Request::SetBudget {
                entries: match fields.take("entries") {
                    None => None,
                    Some(Json::Int(n)) => Some(n),
                    Some(_) => {
                        return Err(shape("`entries` must be an unsigned integer"));
                    }
                },
            },
            "shutdown" => Request::Shutdown,
            other => return Err(shape(format!("unknown op `{other}`"))),
        };
        fields.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response codec.

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Appended { seq, applied } => {
                write!(
                    f,
                    "{{\"ok\":\"appended\",\"seq\":{seq},\"applied\":{applied}}}"
                )
            }
            Response::Rows { seq, rows } => {
                write!(f, "{{\"ok\":\"rows\",\"seq\":{seq},\"rows\":[")?;
                for (i, (name, value)) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str("[")?;
                    write_escaped(f, name)?;
                    f.write_str(",")?;
                    write_escaped(f, value)?;
                    f.write_str("]")?;
                }
                f.write_str("]}")
            }
            Response::Symbolic { seq, rows } => {
                write!(f, "{{\"ok\":\"symbolic\",\"seq\":{seq},\"rows\":[")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str("[")?;
                    write_escaped(f, &row.name)?;
                    f.write_str(",")?;
                    write_escaped(f, &row.provenance)?;
                    write!(f, ",{}]", row.saturated)?;
                }
                f.write_str("]}")
            }
            Response::Equiv {
                seq,
                equivalent,
                differing,
                undecided,
            } => {
                write!(
                    f,
                    "{{\"ok\":\"equiv\",\"seq\":{seq},\"equivalent\":{equivalent},\"differing\":"
                )?;
                write_str_list(f, differing)?;
                f.write_str(",\"undecided\":")?;
                write_str_list(f, undecided)?;
                f.write_str("}")
            }
            Response::Snapshotted { seq } => {
                write!(f, "{{\"ok\":\"snapshotted\",\"seq\":{seq}}}")
            }
            Response::Stats {
                seq,
                tuples,
                nodes,
                cached,
                batches,
                coalesced,
            } => write!(
                f,
                "{{\"ok\":\"stats\",\"seq\":{seq},\"tuples\":{tuples},\"nodes\":{nodes},\
                 \"cached\":{cached},\"batches\":{batches},\"coalesced\":{coalesced}}}"
            ),
            Response::BudgetSet { seq } => write!(f, "{{\"ok\":\"budget_set\",\"seq\":{seq}}}"),
            Response::Bye { seq } => write!(f, "{{\"ok\":\"bye\",\"seq\":{seq}}}"),
            Response::Error { kind, message } => {
                write!(f, "{{\"err\":\"{}\",\"message\":", kind.as_str())?;
                write_escaped(f, message)?;
                f.write_str("}")
            }
        }
    }
}

impl FromStr for Response {
    type Err = ProtoError;

    fn from_str(line: &str) -> Result<Self, ProtoError> {
        let mut fields = as_object(parse_json(line)?)?;
        if let Some(kind) = fields.take("err") {
            let Json::Str(kind) = kind else {
                return Err(shape("`err` must be a string"));
            };
            let kind = ErrorKind::parse(&kind)
                .ok_or_else(|| shape(format!("unknown error kind `{kind}`")))?;
            let message = fields.string("message")?;
            fields.finish()?;
            return Ok(Response::Error { kind, message });
        }
        let ok = fields.string("ok")?;
        let resp = match ok.as_str() {
            "appended" => Response::Appended {
                seq: fields.int("seq")?,
                applied: fields.int("applied")?,
            },
            "rows" => {
                let seq = fields.int("seq")?;
                let rows = match fields.take("rows") {
                    Some(Json::Arr(items)) => items
                        .into_iter()
                        .map(|item| match item {
                            Json::Arr(pair) => match <[Json; 2]>::try_from(pair) {
                                Ok([Json::Str(name), Json::Str(value)]) => Ok((name, value)),
                                _ => Err(shape("each row must be [name, value]")),
                            },
                            _ => Err(shape("each row must be an array")),
                        })
                        .collect::<Result<Vec<Row>, ProtoError>>()?,
                    _ => return Err(shape("`rows` must be an array")),
                };
                Response::Rows { seq, rows }
            }
            "symbolic" => {
                let seq = fields.int("seq")?;
                let rows = match fields.take("rows") {
                    Some(Json::Arr(items)) => items
                        .into_iter()
                        .map(|item| match item {
                            Json::Arr(triple) => match <[Json; 3]>::try_from(triple) {
                                Ok(
                                    [Json::Str(name), Json::Str(provenance), Json::Bool(saturated)],
                                ) => Ok(SymbolicRow {
                                    name,
                                    provenance,
                                    saturated,
                                }),
                                _ => Err(shape("each row must be [name, provenance, saturated]")),
                            },
                            _ => Err(shape("each row must be an array")),
                        })
                        .collect::<Result<Vec<SymbolicRow>, ProtoError>>()?,
                    _ => return Err(shape("`rows` must be an array")),
                };
                Response::Symbolic { seq, rows }
            }
            "equiv" => Response::Equiv {
                seq: fields.int("seq")?,
                equivalent: fields.boolean("equivalent")?,
                differing: fields.str_list("differing")?,
                undecided: fields.str_list("undecided")?,
            },
            "snapshotted" => Response::Snapshotted {
                seq: fields.int("seq")?,
            },
            "stats" => Response::Stats {
                seq: fields.int("seq")?,
                tuples: fields.int("tuples")?,
                nodes: fields.int("nodes")?,
                cached: fields.int("cached")?,
                batches: fields.int("batches")?,
                coalesced: fields.int("coalesced")?,
            },
            "budget_set" => Response::BudgetSet {
                seq: fields.int("seq")?,
            },
            "bye" => Response::Bye {
                seq: fields.int("seq")?,
            },
            other => return Err(shape(format!("unknown ok kind `{other}`"))),
        };
        fields.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_escapes() {
        let req = Request::Append {
            log: "base x\nbegin \"t\"\ncommit\n".to_owned(),
        };
        let printed = req.to_string();
        let reparsed: Request = printed.parse().expect("own output parses");
        assert_eq!(reparsed, req);
        assert_eq!(reparsed.to_string(), printed, "printing is a fixed point");
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for line in [
            "",
            "{",
            "nonsense",
            "{\"op\":\"abort\"}",
            "{\"op\":\"abort\",\"txn\":\"t\",\"structure\":\"no-such\"}",
            "{\"op\":\"append\",\"log\":\"x\",\"extra\":1}",
            "{\"op\":\"eval\",\"structure\":3}",
            "{\"ok\":\"rows\",\"seq\":-1,\"rows\":[]}",
        ] {
            assert!(line.parse::<Request>().is_err(), "accepted: {line:?}");
        }
    }
}
