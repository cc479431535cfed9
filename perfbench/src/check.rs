//! Answer checks, run outside the timed region: every reply is compared
//! with a single-threaded oracle that replays exactly the acknowledged
//! prefix.

use std::collections::HashMap;

use uprov_core::{eval_roots_many_in, DenseMemo, Valuation};
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::proto::{Request, Response};
use uprov_service::values::{self, name_mask};
use uprov_structures::Worlds;

use crate::workload::{Class, Plan, Req};

/// What a client keeps of one reply: small replies whole, concrete rows
/// as a digest (the oracle's rows are printed and digested the same way).
#[derive(Debug)]
pub enum Body {
    Whole(String),
    Digest { seq: u64, hash: u64, len: usize },
}

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// Index into the client's stream.
    pub index: usize,
    pub class: Class,
    /// Send to reply, in seconds.
    pub latency: f64,
    pub failed: bool,
    pub body: Body,
}

/// A 64-bit digest of a reply line, fast enough to take between requests.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = bytes.len() as u64 ^ K;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(29);
    }
    h ^ (h >> 31)
}

/// The `seq` of a reply, read from its fixed prefix (`{"ok":"…","seq":N`).
fn seq_of(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"seq\":")? + 6..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Summarizes `line`, the reply to a request of `class`.
pub fn keep(index: usize, class: Class, latency: f64, line: &str) -> Reply {
    let failed = line.starts_with("{\"err\"");
    let body = match (class, failed, seq_of(line)) {
        (Class::Read, false, Some(seq)) => Body::Digest {
            seq,
            hash: digest(line.as_bytes()),
            len: line.len(),
        },
        _ => Body::Whole(line.to_owned()),
    };
    Reply {
        index,
        class,
        latency,
        failed,
        body,
    }
}

/// A failed check, with enough context to reproduce it.
#[derive(Debug)]
struct Mismatch(String);

type Checked = Result<(), Mismatch>;

fn mismatch(msg: String) -> Checked {
    Err(Mismatch(msg))
}

/// The single-threaded oracle: an engine that replays the prepared logs,
/// then exactly the acknowledged appends in `seq` order.
pub struct Oracle {
    pub engine: Engine,
    pub state: ReplayState,
    /// Appends applied so far; the server's `seq` after the same prefix.
    pub seq: u64,
    /// Digest of the appended logs in order: names the prefix, so answers
    /// computed at it can be reused by later passes that reach it again.
    prefix: u64,
}

impl Oracle {
    pub fn prepared(plan: &Plan) -> Oracle {
        let mut engine = Engine::new();
        let mut state = ReplayState::default();
        let mut seq = 0;
        for log in plan.prepared_logs() {
            engine
                .append(&mut state, log)
                .expect("prepared logs replay cleanly");
            seq += 1;
        }
        Oracle {
            engine,
            state,
            seq,
            prefix: 0,
        }
    }

    fn apply(&mut self, log: &UpdateLog) {
        self.engine
            .append(&mut self.state, log)
            .expect("acknowledged appends replay cleanly");
        self.seq += 1;
        let text = log.to_string();
        self.prefix = digest(&[&self.prefix.to_le_bytes()[..], text.as_bytes()].concat());
    }

    /// The reply a concrete read must get at the oracle's prefix.
    pub fn expected_rows(&self, req: &Request) -> Option<String> {
        let (structure, zeroed) = match req {
            Request::AbortEval { txn, structure } => (*structure, Some(self.state.txn_atom(txn)?)),
            Request::DeleteBaseEval { tuple, structure } => {
                (*structure, Some(self.state.base_atom(tuple)?))
            }
            Request::EvalAll { structure } => (*structure, None),
            _ => return None,
        };
        let rows = values::eval_rows(&self.engine, &self.state, structure, zeroed, 1);
        Some(
            Response::Rows {
                seq: self.seq,
                rows,
            }
            .to_string(),
        )
    }
}

/// Salts of the seeded valuations symbolic rows are compared under.
const SALTS: [u64; 3] = [0x51AB_0001, 0x51AB_0002, 0x51AB_0003];

type Worlds3 = [u64; 3];

/// What the checker reads off one rendered provenance expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rendered {
    /// Its value under the three seeded `Worlds` valuations.
    worlds: Worlds3,
    /// A digest of its structure, blind to the order and grouping of the
    /// operands of `+M` and `Σ`, which follow arena history.
    shape: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    PlusI,
    PlusM,
    DotM,
    Minus,
    Sum,
}

/// A parsed operand. For a `+M` or `Σ` node, `spine` carries the
/// order-free sum over its flattened operands, so an enclosing node of
/// the same operator absorbs them.
#[derive(Clone, Copy)]
struct Node {
    out: Rendered,
    spine: Option<(Op, u64)>,
}

fn mix(x: u64) -> u64 {
    digest(&x.to_le_bytes())
}

impl Node {
    fn leaf(name: &str) -> Node {
        let worlds = if name == "0" {
            [0; 3]
        } else {
            SALTS.map(|salt| name_mask(name, salt))
        };
        Node {
            out: Rendered {
                worlds,
                shape: digest(name.as_bytes()),
            },
            spine: None,
        }
    }

    /// This node's share of an `op` spine it is an operand of.
    fn spine_part(self, op: Op) -> u64 {
        match self.spine {
            Some((o, acc)) if o == op => acc,
            _ => mix(self.out.shape),
        }
    }

    fn combine(self, op: Op, rhs: Node) -> Node {
        let (a, b) = (self.out.worlds, rhs.out.worlds);
        // Worlds: +I, +M and Σ are union, .M intersection, - difference.
        let worlds = std::array::from_fn(|i| match op {
            Op::PlusI | Op::PlusM | Op::Sum => a[i] | b[i],
            Op::DotM => a[i] & b[i],
            Op::Minus => a[i] & !b[i],
        });
        let tag = op as u64 + 1;
        if matches!(op, Op::PlusM | Op::Sum) {
            let acc = self.spine_part(op).wrapping_add(rhs.spine_part(op));
            Node {
                out: Rendered {
                    worlds,
                    shape: mix(acc ^ tag.rotate_left(56)),
                },
                spine: Some((op, acc)),
            }
        } else {
            Node {
                out: Rendered {
                    worlds,
                    shape: mix(mix(self.out.shape ^ tag) ^ rhs.out.shape.rotate_left(17)),
                },
                spine: None,
            }
        }
    }
}

/// Reads a rendered provenance expression. The render grammar: a level
/// is operands joined left to right by ` +I `, ` +M `, ` .M `, ` - ` or
/// ` + `; an operand is `0`, a name or a parenthesized level. Iterative,
/// since renders nest deeply.
fn read_render(src: &str) -> Result<Rendered, String> {
    const OPS: [(&str, Op); 5] = [
        (" +I ", Op::PlusI),
        (" +M ", Op::PlusM),
        (" .M ", Op::DotM),
        (" - ", Op::Minus),
        (" + ", Op::Sum),
    ];
    let mut stack: Vec<(Option<Node>, Option<Op>)> = vec![(None, None)];
    let mut rest = src;
    while !rest.is_empty() {
        if let Some((token, op)) = OPS.iter().find(|(token, _)| rest.starts_with(token)) {
            stack.last_mut().expect("stack never empties").1 = Some(*op);
            rest = &rest[token.len()..];
            continue;
        }
        if let Some(r) = rest.strip_prefix('(') {
            stack.push((None, None));
            rest = r;
            continue;
        }
        let node = if let Some(r) = rest.strip_prefix(')') {
            rest = r;
            let (acc, _) = stack.pop().expect("stack never empties");
            if stack.is_empty() {
                return Err("unbalanced `)`".into());
            }
            acc.ok_or("empty parentheses")?
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            if end == 0 {
                return Err(format!(
                    "unexpected text at {:?}",
                    &rest[..rest.len().min(20)]
                ));
            }
            let (name, r) = rest.split_at(end);
            rest = r;
            Node::leaf(name)
        };
        let top = stack.last_mut().expect("stack never empties");
        top.0 = Some(match (top.0, top.1.take()) {
            (None, _) => node,
            (Some(acc), Some(op)) => acc.combine(op, node),
            (Some(_), None) => return Err("two operands without an operator".into()),
        });
    }
    match stack.as_slice() {
        [(Some(v), None)] => Ok(v.out),
        _ => Err("truncated expression".into()),
    }
}

/// Oracle answers kept across the passes of a run: concrete rows (as a
/// digest and length) per prefix and request, symbolic views per aborted
/// transaction (each row's name and its value under the seeded
/// valuations), and equivalence verdicts per candidate log.
#[derive(Default)]
pub struct Answers {
    rows: HashMap<(u64, String), (u64, usize)>,
    views: HashMap<String, Vec<(String, Rendered)>>,
    verdicts: HashMap<String, Response>,
}

impl Answers {
    fn rows(&mut self, oracle: &Oracle, req: &Req) -> Option<(u64, usize)> {
        let key = (oracle.prefix, req.line.clone());
        if let Some(known) = self.rows.get(&key) {
            return Some(*known);
        }
        let want = oracle.expected_rows(&req.request)?;
        let known = (digest(want.as_bytes()), want.len());
        self.rows.insert(key, known);
        Some(known)
    }

    fn view(&mut self, oracle: &mut Oracle, txn: &str) -> &[(String, Rendered)] {
        self.views.entry(txn.to_owned()).or_insert_with(|| {
            let vals: Vec<Valuation<u64>> = SALTS
                .iter()
                .map(|&salt| {
                    let mut val = Valuation::constant(u64::MAX);
                    for (name, atom) in oracle.state.base_atoms().chain(oracle.state.txn_atoms()) {
                        val.set(atom, name_mask(name, salt));
                    }
                    val
                })
                .collect();
            let view = oracle
                .engine
                .abort_symbolic(&oracle.state, txn)
                .expect("symbolic targets are preloaded transactions");
            let roots: Vec<_> = view.iter().map(|t| t.provenance).collect();
            let values = eval_roots_many_in(
                oracle.engine.arena(),
                &roots,
                &Worlds,
                &vals,
                &mut DenseMemo::new(),
            );
            // Values come from the arena; the shape from the oracle's own
            // render, which orders `+M` and `Σ` operands by its history.
            view.into_iter()
                .enumerate()
                .map(|(row, t)| {
                    let text = oracle.engine.render(t.provenance);
                    let shape = read_render(&text).expect("the engine's render reads").shape;
                    let worlds = std::array::from_fn(|i| values[i][row]);
                    (t.name, Rendered { worlds, shape })
                })
                .collect()
        })
    }

    fn verdict(&mut self, oracle: &mut Oracle, log: &str) -> &Response {
        self.verdicts.entry(log.to_owned()).or_insert_with(|| {
            let candidate = oracle
                .engine
                .replay(&log.parse().expect("variant logs parse"))
                .expect("variant logs replay");
            let v = oracle.engine.equivalent(&oracle.state, &candidate);
            Response::Equiv {
                seq: oracle.seq,
                equivalent: v.is_equivalent(),
                differing: v.differing,
                undecided: v.undecided,
            }
        })
    }
}

/// Checks the replies of one pass over the plan's streams, each pass
/// starting from the prepared state, and reports a mismatch on standard
/// error. `replies[c]` are client `c`'s, in any order; `oracle` is moved
/// back to the prepared prefix if an earlier pass advanced it, and ends
/// after this pass's acknowledged appends.
pub fn check_pass(
    plan: &Plan,
    replies: &[Vec<Reply>],
    oracle: &mut Oracle,
    answers: &mut Answers,
    what: &str,
) -> bool {
    if oracle.seq != plan.prepared_logs().count() as u64 {
        *oracle = Oracle::prepared(plan);
    }
    match check_round(plan, replies, oracle, answers) {
        Ok(()) => true,
        Err(Mismatch(e)) => {
            eprintln!("perfbench: answer check failed in the {what}: {e}");
            false
        }
    }
}

fn check_round(
    plan: &Plan,
    replies: &[Vec<Reply>],
    oracle: &mut Oracle,
    answers: &mut Answers,
) -> Checked {
    let base_seq = oracle.seq;
    // Appends: contiguous seqs, `applied` = the log's update count.
    let mut appended: Vec<(u64, &Req)> = Vec::new();
    let mut reads: Vec<(u64, &Req, &Reply)> = Vec::new();
    for (c, client) in replies.iter().enumerate() {
        for reply in client {
            let req = &plan.streams[c][reply.index];
            if reply.failed {
                continue;
            }
            match (&reply.body, req.class) {
                (Body::Whole(line), Class::Append) => {
                    let Ok(Response::Appended { seq, applied }) = line.parse::<Response>() else {
                        return mismatch(format!("{}: unexpected reply {line}", req.line));
                    };
                    let log = req.log.as_ref().expect("append requests carry their log");
                    if applied != log.update_count() as u64 {
                        return mismatch(format!(
                            "append at seq {seq} applied {applied}, log has {} updates",
                            log.update_count()
                        ));
                    }
                    appended.push((seq, req));
                }
                (Body::Digest { seq, .. }, Class::Read) => reads.push((*seq, req, reply)),
                (Body::Whole(line), Class::Symbolic) => check_symbolic(req, line, oracle, answers)?,
                (Body::Whole(line), Class::Equiv) => {
                    let Request::Equiv { log } = &req.request else {
                        unreachable!("equiv class holds equiv requests")
                    };
                    let want = answers.verdict(oracle, log).to_string();
                    if *line != want {
                        return mismatch(format!("equiv answered {line}, oracle {want}"));
                    }
                }
                (body, class) => {
                    return mismatch(format!("{} reply {body:?} for {}", class.name(), req.line))
                }
            }
        }
    }
    appended.sort_by_key(|(seq, _)| *seq);
    for (i, (seq, _)) in appended.iter().enumerate() {
        if *seq != base_seq + 1 + i as u64 {
            return mismatch(format!(
                "append seqs are not contiguous: #{i} got seq {seq} after base {base_seq}"
            ));
        }
    }
    // Concrete reads, in seq order, against the oracle at that prefix.
    reads.sort_by_key(|(seq, _, _)| *seq);
    let mut next = appended.iter().peekable();
    for (seq, req, reply) in reads {
        while let Some((s, append)) = next.peek() {
            if *s > seq {
                break;
            }
            oracle.apply(
                append
                    .log
                    .as_ref()
                    .expect("append requests carry their log"),
            );
            next.next();
        }
        if oracle.seq != seq {
            return mismatch(format!(
                "{} answered at seq {seq}, beyond the acknowledged appends",
                req.line
            ));
        }
        let Some(want) = answers.rows(oracle, req) else {
            return mismatch(format!("{} names nothing live at seq {seq}", req.line));
        };
        let Body::Digest { hash, len, .. } = reply.body else {
            unreachable!("reads are kept as digests")
        };
        if (hash, len) != want {
            return mismatch(format!(
                "{} at seq {seq}: rows differ from the oracle",
                req.line
            ));
        }
    }
    for (_, append) in next {
        oracle.apply(
            append
                .log
                .as_ref()
                .expect("append requests carry their log"),
        );
    }
    Ok(())
}

/// One row of a `symbolic` reply: `(name, provenance, saturated)`.
type RowRef<'a> = (&'a str, &'a str, bool);

/// The rows of a `symbolic` reply.
///
/// A reader of the printed form (`["name","render",false]` per row) that
/// borrows from the line: renders run to megabytes, and names and renders
/// never contain characters the printer escapes.
fn symbolic_rows(line: &str) -> Option<(u64, Vec<RowRef<'_>>)> {
    let seq = seq_of(line)?;
    let mut rest = line.strip_prefix("{\"ok\":\"symbolic\",")?;
    rest = &rest[rest.find("\"rows\":[")? + 8..];
    let mut rows = Vec::new();
    if let Some(end) = rest.strip_prefix("]}") {
        return end.is_empty().then_some((seq, rows));
    }
    loop {
        rest = rest.strip_prefix("[\"")?;
        let name_end = rest.find('"')?;
        let name = &rest[..name_end];
        rest = rest[name_end..].strip_prefix("\",\"")?;
        let prov_end = rest.find('"')?;
        let provenance = &rest[..prov_end];
        rest = rest[prov_end..].strip_prefix("\",")?;
        let saturated = if let Some(r) = rest.strip_prefix("true]") {
            rest = r;
            true
        } else {
            rest = rest.strip_prefix("false]")?;
            false
        };
        if name.contains('\\') || provenance.contains('\\') {
            return None;
        }
        rows.push((name, provenance, saturated));
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else {
            return (rest == "]}").then_some((seq, rows));
        }
    }
}

fn check_symbolic(req: &Req, line: &str, oracle: &mut Oracle, answers: &mut Answers) -> Checked {
    let Request::AbortSymbolic { txn } = &req.request else {
        unreachable!("symbolic class holds abort_symbolic requests")
    };
    let Some((seq, rows)) = symbolic_rows(line) else {
        return mismatch(format!("{}: unexpected reply {:.200}", req.line, line));
    };
    if seq != oracle.seq {
        return mismatch(format!(
            "{} answered at seq {seq}, state is at {}",
            req.line, oracle.seq
        ));
    }
    let want = answers.view(oracle, txn);
    if rows.len() != want.len() {
        return mismatch(format!(
            "{}: {} rows, oracle {}",
            req.line,
            rows.len(),
            want.len()
        ));
    }
    for (&(got, provenance, saturated), (name, value)) in rows.iter().zip(want) {
        if saturated {
            return mismatch(format!("{}: row {got} saturated", req.line));
        }
        if got != *name {
            return mismatch(format!("{}: row {got} where oracle has {name}", req.line));
        }
        match read_render(provenance) {
            Ok(got) if got.worlds != value.worlds => {
                return mismatch(format!("{}: row {name} differs semantically", req.line));
            }
            Ok(got) if got.shape != value.shape => {
                return mismatch(format!("{}: row {name} differs in structure", req.line));
            }
            Ok(_) => {}
            Err(e) => return mismatch(format!("{}: row {name} does not parse: {e}", req.line)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_evaluation_matches_the_arena() {
        let mut engine = Engine::new();
        let log = "base x y\nbegin t\nmodify z <- x y\ndelete y\ncommit\nbegin u\ninsert y\nmodify x <- z\ncommit\n"
            .parse()
            .unwrap();
        let mut state = engine.replay(&log).unwrap();
        let mut oracle = Oracle {
            engine,
            state: std::mem::take(&mut state),
            seq: 1,
            prefix: 0,
        };
        let mut sym = Answers::default();
        for txn in ["t", "u"] {
            let view = oracle.engine.abort_symbolic(&oracle.state, txn).unwrap();
            let rendered: Vec<String> = view
                .iter()
                .map(|t| oracle.engine.render(t.provenance))
                .collect();
            let want = sym.view(&mut oracle, txn).to_vec();
            for (text, (_, value)) in rendered.iter().zip(&want) {
                assert_eq!(read_render(text).unwrap(), *value, "{text}");
            }
        }
        assert!(read_render("(x").is_err());
        assert!(read_render("x)").is_err());
        // `+M` and `Σ` operands may come in any order and grouping; every
        // other change shows in the shape.
        let shape = |t: &str| read_render(t).unwrap().shape;
        assert_eq!(shape("(a +M b) +M c"), shape("a +M (c +M b)"));
        assert_eq!(shape("(a - t) + (b .M t)"), shape("(b .M t) + (a - t)"));
        assert_ne!(shape("(a - t) .M u"), shape("(a +I t) .M u"));
        assert_ne!(shape("a .M b"), shape("b .M a"));
        assert_ne!(shape("(a +M b) + c"), shape("a +M (b + c)"));
    }

    #[test]
    fn symbolic_rows_read_the_printed_form() {
        use uprov_service::proto::SymbolicRow;
        let resp = Response::Symbolic {
            seq: 7,
            rows: vec![
                SymbolicRow {
                    name: "a".into(),
                    provenance: "(x +I t) .M t".into(),
                    saturated: false,
                },
                SymbolicRow {
                    name: "b".into(),
                    provenance: "0".into(),
                    saturated: true,
                },
            ],
        };
        let line = resp.to_string();
        let (seq, rows) = symbolic_rows(&line).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(rows, vec![("a", "(x +I t) .M t", false), ("b", "0", true)]);
        let empty = Response::Symbolic {
            seq: 1,
            rows: vec![],
        }
        .to_string();
        assert_eq!(symbolic_rows(&empty), Some((1, vec![])));
        assert_eq!(symbolic_rows(&line[..line.len() - 1]), None);
    }

    #[test]
    fn seq_is_read_from_the_reply_prefix() {
        assert_eq!(seq_of("{\"ok\":\"rows\",\"seq\":42,\"rows\":[]}"), Some(42));
        assert_eq!(seq_of("{\"err\":\"query\"}"), None);
    }
}
