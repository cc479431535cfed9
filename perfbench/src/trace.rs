//! The traced run: the per-layer breakdown of the same request stream.
//!
//! A traced run (`--trace 1`) makes five passes over the workload, each on
//! a fresh copy of the prepared directory and each answer-checked:
//!
//! 1. one ordinary round: two clients over TCP against the binary, for
//!    the service's coalescing counters (`service.batch_size`);
//! 2. the merged stream (both clients' requests interleaved) from one
//!    client over TCP against the binary;
//! 3. the merged stream through `Client::serve_line` of an in-process
//!    `Service` over `FileStorage`, untraced — pass 2 minus pass 3, request
//!    by request, is the network's share (`net.overhead_us`);
//! 4. the merged stream in-process again, with spans around every layer
//!    call the benchmark can make from outside: the protocol parse, the
//!    service request, the protocol print, and every storage call of the
//!    writer (through [`TracedStorage`]). One client, so each storage call
//!    nests under exactly one request. Pass 4 against pass 3 is the
//!    tracing overhead;
//! 5. the merged stream once more, timing the public calls the service
//!    makes internally on the same input at the same prefix: a replica
//!    `DurableEngine` over traced storage for `append_many`, and a replica
//!    engine for `ReplayState::clone`, `Engine::append`, the WAL encode,
//!    `values::eval_rows`, `Engine::eval_tuples_batch`, symbolic abort,
//!    render, replay and equivalence, plus snapshot encodes at the end.
//!
//! Each span has a name, a start, an end, a parent and the id of the
//! request it belongs to; spans are kept in memory and written to
//! `.perfbench/trace-<workload>-seed<N>.jsonl` when the run ends. A
//! layer's self time is its span minus the part its child spans cover.
//! `_us` metrics are means per call of that self time; a layer the
//! workload never calls reports 0 over 0 samples.

use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uprov_core::{Atom, MemoPool, UpdateStructure, Valuation, WorkerPool};
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_service::proto::{ErrorKind, Request, Response};
use uprov_service::service::{Service, ServiceConfig};
use uprov_service::values::{self, StructureId};
use uprov_storage::{
    snapshot, wal, DurableEngine, FileStorage, MemStorage, Storage, SNAPSHOT_BLOB, WAL_BLOB,
};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};

use crate::check::{self, Answers, Oracle, Reply};
use crate::server::{Conn, Server};
use crate::stats::Metrics;
use crate::workload::{Class, Plan, Req};
use crate::{copy_dir, other, run_round, Outcome, WorkDir};

/// The per-layer metrics of the result line, in order.
pub const PER_LAYER: [&str; 29] = [
    "net.overhead_us",
    "proto.parse_us",
    "proto.print_us",
    "proto.response_bytes",
    "service.inproc_us",
    "service.wait_us",
    "service.batch_size",
    "values.eval_rows_us",
    "pool.dispatches_per_read",
    "engine.eval_batch_us",
    "engine.state_clone_us",
    "engine.append_us",
    "engine.abort_symbolic_us",
    "engine.render_us",
    "engine.render_bytes",
    "engine.replay_us",
    "engine.equivalent_us",
    "engine.nf_hit_ratio",
    "engine.arena_nodes",
    "durable.append_many_us",
    "durable.recover_us",
    "wal.encode_us",
    "wal.bytes_per_append",
    "backend.append_us",
    "backend.fsync_us",
    "backend.fsyncs_per_append",
    "snapshot.encode_us",
    "snapshot.bytes",
    "trace.overhead_frac",
];

/// Snapshot encodes timed at the end of the side pass.
const SNAPSHOT_ENCODES: usize = 3;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Position of the request in the merged stream.
    request: Option<usize>,
    /// Bytes the call moved or produced, where that means something.
    bytes: u64,
    /// Recorded in the side pass (pass 5), not on the request path.
    side: bool,
}

/// The in-memory span log. Calls on other threads (the service's writer
/// calling into [`TracedStorage`]) nest under the span set with
/// [`Tracer::enter`].
struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// `1 + index` of the span other threads' calls nest under; 0 = none.
    current: AtomicUsize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span log poisoned")
    }

    /// Opens a span; its children may be recorded before it is closed.
    fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        side: bool,
    ) -> usize {
        let start_ns = self.now();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            bytes: 0,
            side,
        });
        spans.len() - 1
    }

    fn close(&self, ix: usize, bytes: u64) {
        let end_ns = self.now();
        let mut spans = self.spans();
        spans[ix].end_ns = end_ns;
        spans[ix].bytes = bytes;
    }

    /// Runs `f` inside a span; `bytes` sizes its result.
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        side: bool,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let ix = self.open(name, parent, request, side);
        let out = f();
        self.close(ix, bytes(&out));
        out
    }

    /// Makes `ix` the parent of calls recorded from other threads.
    fn enter(&self, ix: usize) {
        self.current.store(ix + 1, Ordering::SeqCst);
    }

    fn leave(&self) {
        self.current.store(0, Ordering::SeqCst);
    }

    /// Records a finished call made under the entered span.
    fn child(&self, name: &'static str, start_ns: u64, bytes: u64) {
        let end_ns = self.now();
        let parent = self.current.load(Ordering::SeqCst).checked_sub(1);
        let mut spans = self.spans();
        let (request, side) = parent.map_or((None, false), |p| (spans[p].request, spans[p].side));
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            bytes,
            side,
        });
    }
}

/// A [`Storage`] that delegates to `S` and records a span, with its byte
/// count, for every `read`, `write_atomic`, `append` and `sync`.
pub struct TracedStorage<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        let t = self.tracer.now();
        let out = self.inner.read(blob);
        let bytes = out
            .as_ref()
            .ok()
            .and_then(Option::as_ref)
            .map_or(0, Vec::len);
        self.tracer.child("backend.read", t, bytes as u64);
        out
    }

    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        let t = self.tracer.now();
        let out = self.inner.write_atomic(blob, bytes);
        self.tracer
            .child("backend.write_atomic", t, bytes.len() as u64);
        out
    }

    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        let t = self.tracer.now();
        let out = self.inner.append(blob, bytes);
        self.tracer.child("backend.append", t, bytes.len() as u64);
        out
    }

    fn sync(&mut self, blob: &str) -> io::Result<()> {
        let t = self.tracer.now();
        let out = self.inner.sync(blob);
        self.tracer.child("backend.fsync", t, 0);
        out
    }

    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)
    }

    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

fn recovery_error(e: uprov_storage::RecoveryError) -> io::Error {
    other(format!("recovery failed: {e}"))
}

/// Opens a durable engine over traced file storage inside a
/// `durable.recover` span.
fn open_traced(
    tracer: &Arc<Tracer>,
    dir: &Path,
    side: bool,
) -> io::Result<DurableEngine<TracedStorage<FileStorage>>> {
    let storage = TracedStorage {
        inner: FileStorage::open(dir)?,
        tracer: Arc::clone(tracer),
    };
    let ix = tracer.open("durable.recover", None, None, side);
    tracer.enter(ix);
    let opened = DurableEngine::open(storage);
    tracer.leave();
    tracer.close(ix, 0);
    Ok(opened.map_err(recovery_error)?.0)
}

/// The stream of the single-client passes: `(client, index, request)`.
type Merged<'p> = Vec<(usize, usize, &'p Req)>;

/// A single-client pass: per-request latencies in merged order, the
/// replies in per-client order for the checker, and the pass's wall time.
struct Pass {
    latencies: Vec<f64>,
    replies: Vec<Vec<Reply>>,
    wall: f64,
}

impl Pass {
    fn new(plan: &Plan, merged: &Merged<'_>) -> Pass {
        Pass {
            latencies: Vec::with_capacity(merged.len()),
            replies: plan.streams.iter().map(|_| Vec::new()).collect(),
            wall: 0.0,
        }
    }

    fn record(&mut self, client: usize, index: usize, req: &Req, latency: f64, line: &str) {
        self.latencies.push(latency);
        self.replies[client].push(check::keep(index, req.class, latency, line));
    }
}

/// Pass 2: the merged stream over one TCP connection to the binary.
fn tcp_pass(bin: &Path, plan: &Plan, merged: &Merged<'_>, work: &WorkDir) -> io::Result<Pass> {
    let dir = work.path("round");
    copy_dir(&work.path("template"), &dir)?;
    let (server, conn, _) = Server::start(bin, &dir, &work.path("server.log"))?;
    let mut pass = Pass::new(plan, merged);
    let mut session = Conn::open(server.addr)?;
    let t0 = Instant::now();
    for &(c, i, req) in merged {
        let sent = Instant::now();
        let line = session.call(&req.line)?;
        pass.record(c, i, req, sent.elapsed().as_secs_f64(), line);
    }
    pass.wall = t0.elapsed().as_secs_f64();
    drop(session);
    server.stop(conn)?;
    Ok(pass)
}

/// Pass 3: the merged stream through an in-process service, untraced.
fn inproc_pass(plan: &Plan, merged: &Merged<'_>, work: &WorkDir) -> io::Result<Pass> {
    let dir = work.path("round");
    copy_dir(&work.path("template"), &dir)?;
    let (db, _) = DurableEngine::open(FileStorage::open(&dir)?).map_err(recovery_error)?;
    let service = Service::start(db, ServiceConfig::default());
    let client = service.client();
    let mut pass = Pass::new(plan, merged);
    let t0 = Instant::now();
    for &(c, i, req) in merged {
        let sent = Instant::now();
        let line = client.serve_line(&req.line);
        pass.record(c, i, req, sent.elapsed().as_secs_f64(), &line);
    }
    pass.wall = t0.elapsed().as_secs_f64();
    drop(client);
    service.shutdown();
    Ok(pass)
}

/// What pass 4 reads off the service's engine when it is done.
struct EngineCounters {
    nf_hits: u64,
    nf_misses: u64,
    arena_nodes: usize,
    dispatches: u64,
}

/// Pass 4: the merged stream in-process with spans around each layer.
fn traced_pass(
    tracer: &Arc<Tracer>,
    plan: &Plan,
    merged: &Merged<'_>,
    work: &WorkDir,
) -> io::Result<(Pass, EngineCounters)> {
    let dir = work.path("round");
    copy_dir(&work.path("template"), &dir)?;
    let db = open_traced(tracer, &dir, false)?;
    let service = Service::start(db, ServiceConfig::default());
    let client = service.client();
    let mut pass = Pass::new(plan, merged);
    let dispatches = WorkerPool::global().dispatches();
    let t0 = Instant::now();
    for (r, &(c, i, req)) in merged.iter().enumerate() {
        let sent = Instant::now();
        let root = tracer.open("request", None, Some(r), false);
        let parsed = tracer.span(
            "proto.parse",
            Some(root),
            Some(r),
            false,
            || req.line.parse::<Request>(),
            |_| req.line.len() as u64,
        );
        let resp = match parsed {
            Ok(request) => {
                let s = tracer.open("service.request", Some(root), Some(r), false);
                tracer.enter(s);
                let resp = client.request(request);
                tracer.leave();
                tracer.close(s, 0);
                resp
            }
            Err(e) => Response::Error {
                kind: ErrorKind::Parse,
                message: e.to_string(),
            },
        };
        let line = tracer.span(
            "proto.print",
            Some(root),
            Some(r),
            false,
            || resp.to_string(),
            |l| l.len() as u64,
        );
        tracer.close(root, 0);
        pass.record(c, i, req, sent.elapsed().as_secs_f64(), &line);
    }
    pass.wall = t0.elapsed().as_secs_f64();
    let dispatches = WorkerPool::global().dispatches() - dispatches;
    drop(client);
    let (_, db) = service.shutdown_into();
    let db = db.ok_or_else(|| other("the traced service still had clients"))?;
    let cache = db.engine().nf_cache();
    let counters = EngineCounters {
        nf_hits: cache.hits(),
        nf_misses: cache.misses(),
        arena_nodes: db.engine().arena().len(),
        dispatches,
    };
    Ok((pass, counters))
}

/// `Engine::eval_tuples_batch` for one query under a constant valuation of
/// `s` (the engine's work does not depend on the values).
fn eval_batch_one<S: UpdateStructure>(
    engine: &Engine,
    state: &ReplayState,
    s: &S,
    top: S::Value,
    zeroed: Option<Atom>,
) -> usize {
    let mut val = Valuation::constant(top);
    if let Some(atom) = zeroed {
        val.set(atom, s.zero());
    }
    let pool = MemoPool::new();
    black_box(engine.eval_tuples_batch(state, s, &[val], &pool, 0)).len()
}

fn eval_batch(
    engine: &Engine,
    state: &ReplayState,
    id: StructureId,
    zeroed: Option<Atom>,
) -> usize {
    match id {
        StructureId::Bool => eval_batch_one(engine, state, &Bool, true, zeroed),
        StructureId::Worlds => eval_batch_one(engine, state, &Worlds, u64::MAX, zeroed),
        StructureId::Clearance => eval_batch_one(engine, state, &Clearance, u16::MAX, zeroed),
        StructureId::Trust => eval_batch_one(engine, state, &Trust, u32::MAX, zeroed),
        StructureId::Witnesses => {
            eval_batch_one(engine, state, &Witnesses, (0..16).collect(), zeroed)
        }
    }
}

/// Pass 5: the service's internal calls, timed on replicas that follow
/// the merged stream.
fn side_pass(tracer: &Arc<Tracer>, merged: &Merged<'_>, work: &WorkDir) -> io::Result<()> {
    let dir = work.path("round");
    copy_dir(&work.path("template"), &dir)?;
    let mut durable = open_traced(tracer, &dir, true)?;
    // The engine replica recovers from the same blobs, in memory.
    let mut mem = MemStorage::new();
    for blob in [SNAPSHOT_BLOB, WAL_BLOB] {
        if let Ok(bytes) = fs::read(work.path("template").join(blob)) {
            mem.set_blob(blob, bytes);
        }
    }
    let (mut replica, _) = DurableEngine::open(mem).map_err(recovery_error)?;
    let mut seq = replica.seq();
    let (engine, recovered) = replica.query();
    let mut state = recovered.clone();
    for (r, &(_, _, req)) in merged.iter().enumerate() {
        let span = |name, f: &mut dyn FnMut() -> u64| {
            let ix = tracer.open(name, None, Some(r), true);
            let bytes = f();
            tracer.close(ix, bytes);
        };
        match &req.request {
            Request::Append { .. } => {
                let log: &UpdateLog = req.log.as_ref().expect("append requests carry their log");
                let mut scratch = None;
                span("engine.state_clone", &mut || {
                    scratch = Some(state.clone());
                    0
                });
                let mut scratch = scratch.expect("cloned above");
                span("engine.append", &mut || {
                    engine
                        .append(&mut scratch, log)
                        .expect("stream appends are valid") as u64
                });
                span("wal.encode", &mut || {
                    black_box(wal::encode_record(seq, log)).len() as u64
                });
                state = scratch;
                seq += 1;
                let ix = tracer.open("durable.append_many", None, Some(r), true);
                tracer.enter(ix);
                let verdicts = durable.append_many(std::slice::from_ref(log));
                tracer.leave();
                tracer.close(ix, 0);
                match verdicts {
                    Ok(v) if v.iter().all(Result::is_ok) => {}
                    other => return Err(crate::other(format!("replica append failed: {other:?}"))),
                }
            }
            Request::AbortEval { txn, structure } => {
                let atom = state.txn_atom(txn);
                read(&span, engine, &state, *structure, atom)
            }
            Request::DeleteBaseEval { tuple, structure } => {
                let atom = state.base_atom(tuple);
                read(&span, engine, &state, *structure, atom)
            }
            Request::EvalAll { structure } => read(&span, engine, &state, *structure, None),
            Request::AbortSymbolic { txn } => {
                let mut views = Vec::new();
                span("engine.abort_symbolic", &mut || {
                    views = engine
                        .abort_symbolic_batch(&state, &[txn.as_str()])
                        .expect("symbolic targets are live");
                    0
                });
                span("engine.render", &mut || {
                    views
                        .iter()
                        .flatten()
                        .map(|t| engine.render(t.provenance).len() as u64)
                        .sum()
                });
            }
            Request::Equiv { log } => {
                let parsed: UpdateLog =
                    log.parse().map_err(|e| other(format!("equiv log: {e}")))?;
                let mut candidate = None;
                span("engine.replay", &mut || {
                    candidate = Some(engine.replay(&parsed).expect("variant logs replay"));
                    0
                });
                let candidate = candidate.expect("replayed above");
                span("engine.equivalent", &mut || {
                    black_box(engine.equivalent_many(&state, &[&candidate])).len() as u64
                });
            }
            _ => {}
        }
    }
    for _ in 0..SNAPSHOT_ENCODES {
        let ix = tracer.open("snapshot.encode", None, None, true);
        let bytes = black_box(snapshot::encode(engine, &state, seq)).len();
        tracer.close(ix, bytes as u64);
    }
    Ok(())
}

/// The two calls behind a concrete read: the service's row builder and
/// the engine evaluation inside it.
fn read(
    span: &dyn Fn(&'static str, &mut dyn FnMut() -> u64),
    engine: &Engine,
    state: &ReplayState,
    id: StructureId,
    zeroed: Option<Atom>,
) {
    span("values.eval_rows", &mut || {
        black_box(values::eval_rows(engine, state, id, zeroed, 0)).len() as u64
    });
    span("engine.eval_batch", &mut || {
        eval_batch(engine, state, id, zeroed) as u64
    });
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
        })
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Writes the span log as JSON lines.
fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = String::new();
    for (ix, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{ix},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"bytes\":{},\"side\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.request.map_or("null".to_owned(), |r| r.to_string()),
            s.bytes,
            s.side
        );
    }
    fs::write(path, out)
}

pub fn run(bin: &Path, plan: &Plan, work: &WorkDir, oracle: &mut Oracle) -> io::Result<Outcome> {
    let merged: Merged<'_> = plan.merged();
    let mut answers = Answers::default();
    let mut correct = true;

    let t = Instant::now();
    let round = run_round(bin, plan, work)?;
    correct &= check::check_pass(
        plan,
        &round.replies,
        oracle,
        &mut answers,
        "two-client round",
    );
    let tcp = tcp_pass(bin, plan, &merged, work)?;
    correct &= check::check_pass(plan, &tcp.replies, oracle, &mut answers, "TCP pass");
    let inproc = inproc_pass(plan, &merged, work)?;
    correct &= check::check_pass(
        plan,
        &inproc.replies,
        oracle,
        &mut answers,
        "in-process pass",
    );
    let tracer = Arc::new(Tracer::new());
    let (traced, counters) = traced_pass(&tracer, plan, &merged, work)?;
    correct &= check::check_pass(plan, &traced.replies, oracle, &mut answers, "traced pass");
    side_pass(&tracer, &merged, work)?;
    eprintln!(
        "perfbench: five passes took {:.1} s",
        t.elapsed().as_secs_f64()
    );

    let spans = tracer.spans().clone();
    let path = Path::new(".perfbench").join(format!(
        "trace-{}-seed{}.jsonl",
        plan.kind.name(),
        plan.seed
    ));
    write_spans(&path, &spans)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );

    let selfs = self_times(&spans);
    let of = |name: &str, side: bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && s.side == side)
            .map(|(_, t)| *t)
            .collect()
    };
    let bytes_of = |name: &str, side: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.side == side)
            .map(|s| s.bytes as f64)
            .collect()
    };
    let mut m = Metrics::default();
    let push_mean = |m: &mut Metrics, metric: &str, v: Vec<f64>, unit: &'static str| {
        m.push(metric, mean(&v), unit, v.len());
    };

    let net: Vec<f64> = tcp
        .latencies
        .iter()
        .zip(&inproc.latencies)
        .map(|(t, i)| (t - i) * 1e6)
        .collect();
    push_mean(&mut m, "net.overhead_us", net, "us");
    push_mean(&mut m, "proto.parse_us", of("proto.parse", false), "us");
    push_mean(&mut m, "proto.print_us", of("proto.print", false), "us");
    push_mean(
        &mut m,
        "proto.response_bytes",
        bytes_of("proto.print", false),
        "bytes",
    );
    let inproc_us: Vec<f64> = traced.latencies.iter().map(|l| l * 1e6).collect();
    push_mean(&mut m, "service.inproc_us", inproc_us, "us");

    // Wait: the service span's self time (storage calls already taken
    // out) minus the side-timed work of the same request.
    let mut attributed = vec![0.0; merged.len()];
    for (s, t) in spans.iter().zip(&selfs) {
        let counts = matches!(
            s.name,
            "durable.append_many"
                | "values.eval_rows"
                | "engine.abort_symbolic"
                | "engine.render"
                | "engine.replay"
                | "engine.equivalent"
        );
        if let (true, true, Some(r)) = (s.side, counts, s.request) {
            attributed[r] += t;
        }
    }
    let wait: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "service.request" && !s.side)
        .filter_map(|(s, t)| Some(t - attributed[s.request?]))
        .collect();
    push_mean(&mut m, "service.wait_us", wait, "us");
    m.push("service.batch_size", round.batch_size(plan), "count", 1);
    push_mean(
        &mut m,
        "values.eval_rows_us",
        of("values.eval_rows", true),
        "us",
    );
    let reads = merged
        .iter()
        .filter(|(_, _, r)| r.class == Class::Read)
        .count();
    m.push(
        "pool.dispatches_per_read",
        if reads == 0 {
            0.0
        } else {
            counters.dispatches as f64 / reads as f64
        },
        "count",
        reads,
    );
    push_mean(
        &mut m,
        "engine.eval_batch_us",
        of("engine.eval_batch", true),
        "us",
    );
    push_mean(
        &mut m,
        "engine.state_clone_us",
        of("engine.state_clone", true),
        "us",
    );
    push_mean(&mut m, "engine.append_us", of("engine.append", true), "us");
    push_mean(
        &mut m,
        "engine.abort_symbolic_us",
        of("engine.abort_symbolic", true),
        "us",
    );
    push_mean(&mut m, "engine.render_us", of("engine.render", true), "us");
    push_mean(
        &mut m,
        "engine.render_bytes",
        bytes_of("engine.render", true),
        "bytes",
    );
    push_mean(&mut m, "engine.replay_us", of("engine.replay", true), "us");
    push_mean(
        &mut m,
        "engine.equivalent_us",
        of("engine.equivalent", true),
        "us",
    );
    let lookups = counters.nf_hits + counters.nf_misses;
    m.push(
        "engine.nf_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            counters.nf_hits as f64 / lookups as f64
        },
        "ratio",
        lookups as usize,
    );
    m.push(
        "engine.arena_nodes",
        counters.arena_nodes as f64,
        "count",
        1,
    );
    push_mean(
        &mut m,
        "durable.append_many_us",
        of("durable.append_many", true),
        "us",
    );
    let mut recover = of("durable.recover", false);
    recover.extend(of("durable.recover", true));
    push_mean(&mut m, "durable.recover_us", recover, "us");
    push_mean(&mut m, "wal.encode_us", of("wal.encode", true), "us");
    let appends = merged
        .iter()
        .filter(|(_, _, r)| r.class == Class::Append)
        .count();
    let per_append = |v: f64| {
        if appends == 0 {
            0.0
        } else {
            v / appends as f64
        }
    };
    let wal_bytes: f64 = bytes_of("backend.append", false).iter().sum();
    m.push(
        "wal.bytes_per_append",
        per_append(wal_bytes),
        "bytes",
        appends,
    );
    push_mean(
        &mut m,
        "backend.append_us",
        of("backend.append", false),
        "us",
    );
    let fsyncs = of("backend.fsync", false);
    m.push(
        "backend.fsyncs_per_append",
        per_append(fsyncs.len() as f64),
        "count",
        appends,
    );
    push_mean(&mut m, "backend.fsync_us", fsyncs, "us");
    push_mean(
        &mut m,
        "snapshot.encode_us",
        of("snapshot.encode", true),
        "us",
    );
    push_mean(
        &mut m,
        "snapshot.bytes",
        bytes_of("snapshot.encode", true),
        "bytes",
    );
    m.push(
        "trace.overhead_frac",
        traced.wall / inproc.wall - 1.0,
        "ratio",
        merged.len(),
    );
    m.0.sort_by_key(|metric| PER_LAYER.iter().position(|n| *n == metric.name));

    m.print_report(&format!(
        "perfbench {} seed={} traced: {} requests from one client, state: {}",
        plan.kind.name(),
        plan.seed,
        merged.len(),
        plan.config_line
    ));
    print_attribution(&spans, &selfs, &merged);

    let all: Vec<&Reply> = [
        &round.replies,
        &tcp.replies,
        &inproc.replies,
        &traced.replies,
    ]
    .into_iter()
    .flat_map(|r| r.iter().flatten())
    .collect();
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: all.len() as u64,
        failed: all.iter().filter(|r| r.failed).count() as u64,
    })
}

/// Prints, per request class, where the mean in-process latency went:
/// each layer's mean self time per request and its share.
fn print_attribution(spans: &[Span], selfs: &[f64], merged: &Merged<'_>) {
    for class in Class::ALL {
        let in_class = |r: Option<usize>| r.is_some_and(|r| merged[r].2.class == class);
        let n = merged.iter().filter(|(_, _, r)| r.class == class).count();
        if n == 0 {
            continue;
        }
        let mut parts: Vec<(&'static str, f64)> = Vec::new();
        let mut add = |name: &'static str, t: f64| match parts.iter_mut().find(|(n, _)| *n == name)
        {
            Some((_, sum)) => *sum += t,
            None => parts.push((name, t)),
        };
        let mut total = 0.0;
        for (s, t) in spans.iter().zip(selfs) {
            if !in_class(s.request) {
                continue;
            }
            match (s.side, s.name) {
                (false, "request") => total += (s.end_ns - s.start_ns) as f64 / 1e3,
                (false, "service.request") => {}
                (false, name) => add(name, *t),
                (
                    true,
                    name @ ("durable.append_many"
                    | "values.eval_rows"
                    | "engine.abort_symbolic"
                    | "engine.render"
                    | "engine.replay"
                    | "engine.equivalent"),
                ) => add(name, *t),
                _ => {}
            }
        }
        let explained: f64 = parts.iter().map(|(_, t)| t).sum();
        parts.push(("service.wait", total - explained));
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut line = format!(
            "  {} in-process latency {:.1} us/request (n={n}):",
            class.name(),
            total / n as f64
        );
        for (name, t) in parts {
            let _ = write!(line, " {name} {:.0}%", 100.0 * t / total);
        }
        println!("{line}");
    }
}
