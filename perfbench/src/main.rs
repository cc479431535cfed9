//! End-to-end benchmark of the `uprov-service` binary.
//!
//! ```text
//! perfbench --workload ingest|lookup|symbolic --seed N --seconds S --trace 0|1
//! ```
//!
//! Run through `perfbench/run.sh`, which builds the service binary and this
//! benchmark and points `PERFBENCH_SERVER` at the binary. Everything is
//! written under `.perfbench/` in the working directory.
//!
//! With `--trace 0`, a closed-loop generator with two TCP connections
//! drives the real binary (default flags plus `--dir` and `--listen`) in
//! rounds of a fixed request count, each round on a fresh copy of a
//! prepared data directory, until `--seconds` have been measured. With
//! `--trace 1`, the same request stream runs once more through the
//! service's library in-process with spans around every layer call (see
//! `trace.rs`). Every answer is checked against a single-threaded oracle
//! after each round; a mismatch makes the command fail.

mod check;
mod server;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use check::{Answers, Oracle, Reply};
use server::{Conn, Server};
use stats::{median, Metrics};
use uprov_service::proto::{Request, Response};
use uprov_service::values::StructureId;
use workload::{Class, Kind, Plan};

/// Rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 40;

/// Server starts per round; each is a set-up time sample.
const SETUP_SAMPLES: usize = 3;

/// The end-to-end metrics of the result line, in order.
const END_TO_END: [&str; 6] = [
    "throughput_rps",
    "p50_ms",
    "p95_ms",
    "setup_s",
    "server_rss_mb",
    "disk_bytes_per_log_byte",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (ingest, lookup, symbolic)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Replaces `to` with a copy of the files in `from`.
fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Prepares the workload's data directory through the protocol: the
/// preload, a snapshot, then the tail, so a restart loads the snapshot and
/// replays a WAL tail. Returns the update-log bytes appended.
fn prepare(bin: &Path, plan: &Plan, dir: &Path, log: &Path) -> io::Result<u64> {
    fs::create_dir_all(dir)?;
    let (server, mut conn, _) = Server::start(bin, dir, log)?;
    let mut log_bytes = 0;
    let mut append = |conn: &mut Conn, log: &uprov_engine::UpdateLog| -> io::Result<()> {
        let text = log.to_string();
        log_bytes += text.len() as u64;
        let reply = conn.call(&Request::Append { log: text }.to_string())?;
        match reply.parse::<Response>() {
            Ok(Response::Appended { applied, .. }) if applied == log.update_count() as u64 => {
                Ok(())
            }
            _ => Err(other(format!("preparing: append answered {reply:.300}"))),
        }
    };
    for l in &plan.preload {
        append(&mut conn, l)?;
    }
    let reply = conn.call("{\"op\":\"snapshot\"}")?;
    if !reply.starts_with("{\"ok\":\"snapshotted\"") {
        return Err(other(format!("preparing: snapshot answered {reply}")));
    }
    for l in &plan.tail {
        append(&mut conn, l)?;
    }
    server.stop(conn)?;
    Ok(log_bytes)
}

/// One round's measurements.
struct Round {
    replies: Vec<Vec<Reply>>,
    wall: f64,
    setups: Vec<f64>,
    rss_mb: f64,
    disk_bytes: u64,
    /// Update-log bytes this round appended.
    appended_bytes: u64,
    stats: Response,
}

impl Round {
    /// Mean requests per coalesced batch of the serving server: the
    /// round's requests plus its two `stats` over the batches it counted.
    fn batch_size(&self, plan: &Plan) -> f64 {
        let requests: usize = plan.streams.iter().map(Vec::len).sum();
        match self.stats {
            Response::Stats { batches, .. } => (requests + 2) as f64 / batches as f64,
            _ => f64::NAN,
        }
    }
}

/// Runs one round: a fresh copy of the prepared directory, a fresh server,
/// every client's stream once over its own connection. The server is
/// started `SETUP_SAMPLES` times on fresh copies, the last one serving.
fn run_round(bin: &Path, plan: &Plan, work: &WorkDir) -> io::Result<Round> {
    let dir = work.path("round");
    let log = work.path("server.log");
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 1..SETUP_SAMPLES {
        copy_dir(&work.path("template"), &dir)?;
        let (server, conn, setup) = Server::start(bin, &dir, &log)?;
        setups.push(setup);
        server.stop(conn)?;
    }
    copy_dir(&work.path("template"), &dir)?;
    let (server, mut conn, setup) = Server::start(bin, &dir, &log)?;
    setups.push(setup);
    let addr = server.addr;
    let barrier = Barrier::new(plan.streams.len());
    let t0 = Instant::now();
    let results: Vec<io::Result<(Vec<Reply>, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<(Vec<Reply>, Instant)> {
                    let mut conn = Conn::open(addr)?;
                    let mut replies = Vec::with_capacity(stream.len());
                    barrier.wait();
                    for (index, req) in stream.iter().enumerate() {
                        let sent = Instant::now();
                        let line = conn.call(&req.line)?;
                        let latency = sent.elapsed().as_secs_f64();
                        replies.push(check::keep(index, req.class, latency, line));
                    }
                    Ok((replies, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut replies = Vec::new();
    let mut end = t0;
    for r in results {
        let (client, done) = r?;
        end = end.max(done);
        replies.push(client);
    }
    let wall = end.duration_since(t0).as_secs_f64();
    let stats = conn.call("{\"op\":\"stats\"}")?.parse::<Response>();
    let stats = stats.map_err(|e| other(format!("stats: {e}")))?;
    let rss_mb = server.peak_rss_mb()?;
    server.stop(conn)?;
    let disk_bytes = dir_bytes(&dir)?;
    let appended_bytes = plan
        .streams
        .iter()
        .zip(&replies)
        .flat_map(|(stream, rs)| rs.iter().map(move |r| (&stream[r.index], r)))
        .filter(|(req, r)| req.class == Class::Append && !r.failed)
        .map(|(req, _)| match &req.request {
            Request::Append { log } => log.len() as u64,
            _ => 0,
        })
        .sum();
    Ok(Round {
        replies,
        wall,
        setups,
        rss_mb,
        disk_bytes,
        appended_bytes,
        stats,
    })
}

/// After `ingest`, a restart over the last round's directory must recover
/// every acknowledged append: `stats` seq and one `eval` answer are
/// compared with the oracle.
fn check_restart(bin: &Path, work: &WorkDir, oracle: &Oracle) -> io::Result<Result<(), String>> {
    let (server, mut conn, _) = Server::start(bin, &work.path("round"), &work.path("server.log"))?;
    let stats = conn.call("{\"op\":\"stats\"}")?.parse::<Response>();
    let verdict = match stats {
        Ok(Response::Stats { seq, tuples, .. })
            if seq == oracle.seq && tuples == oracle.state.tuples().count() as u64 =>
        {
            let eval = Request::EvalAll {
                structure: StructureId::Trust,
            };
            let got = conn.call(&eval.to_string())?.to_owned();
            match oracle.expected_rows(&eval) {
                Some(want) if want == got => Ok(()),
                _ => Err(format!(
                    "after restart, eval differs from the oracle at seq {seq}"
                )),
            }
        }
        other => Err(format!(
            "after restart, stats {other:?} but the oracle is at seq {}",
            oracle.seq
        )),
    };
    server.stop(conn)?;
    Ok(verdict)
}

struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> io::Result<Outcome> {
    let bin = PathBuf::from(
        std::env::var_os("PERFBENCH_SERVER")
            .ok_or_else(|| other("PERFBENCH_SERVER must name the uprov-service binary"))?,
    );
    if !bin.is_file() {
        return Err(other(format!("no service binary at {}", bin.display())));
    }
    let work = WorkDir::create()?;
    let plan = workload::plan(args.kind, args.seed);
    eprintln!(
        "perfbench: {} seed={} state: {}",
        args.kind.name(),
        args.seed,
        plan.config_line
    );
    let prepared_bytes = prepare(
        &bin,
        &plan,
        &work.path("template"),
        &work.path("server.log"),
    )?;
    let mut oracle = Oracle::prepared(&plan);
    if args.trace {
        return trace::run(&bin, &plan, &work, &mut oracle);
    }
    let mut answers = Answers::default();

    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut correct = true;
    while rounds.len() < MIN_ROUNDS || (measured < args.seconds && rounds.len() < MAX_ROUNDS) {
        let t = Instant::now();
        let round = run_round(&bin, &plan, &work)?;
        measured += t.elapsed().as_secs_f64();
        let slow = round
            .replies
            .iter()
            .flatten()
            .filter(|r| r.latency > 0.04)
            .count();
        eprintln!(
            "perfbench: round {}: {:.1} requests/s, {slow} over 40 ms, set-up {:.1} ms",
            rounds.len() + 1,
            round.replies.iter().map(Vec::len).sum::<usize>() as f64 / round.wall,
            1e3 * median(&round.setups)
        );
        let what = format!("round {}", rounds.len() + 1);
        correct &= check::check_pass(&plan, &round.replies, &mut oracle, &mut answers, &what);
        rounds.push(round);
    }
    // The oracle follows the last round only if its check got through.
    if args.kind == Kind::Ingest && correct {
        if let Err(e) = check_restart(&bin, &work, &oracle)? {
            eprintln!("perfbench: durability check failed: {e}");
            correct = false;
        }
    }

    let mut m = Metrics::default();
    let requests: usize = plan.streams.iter().map(Vec::len).sum();
    let all: Vec<&Reply> = rounds
        .iter()
        .flat_map(|r| r.replies.iter().flatten())
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| r.failed).count() as u64;
    // Pooled over the rounds: what varies between rounds is mostly which
    // replies hit the 40 ms delayed-ACK stall, and pooling averages that.
    let wall: f64 = rounds.iter().map(|r| r.wall).sum();
    m.push(
        "throughput_rps",
        (requests * rounds.len()) as f64 / wall,
        "1/s",
        rounds.len(),
    );
    m.latency("", all.iter().map(|r| r.latency).collect());
    for class in Class::ALL {
        let lat: Vec<f64> = all
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.latency)
            .collect();
        m.latency(&format!("{}_", class.name()), lat);
    }
    m.push(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
        all.len(),
    );
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setups.iter().copied())
        .collect();
    m.push("setup_s", median(&setups), "s", setups.len());
    // The highest peak: which replies overlap in memory varies by round.
    let rss = rounds.iter().map(|r| r.rss_mb).fold(0.0, f64::max);
    m.push("server_rss_mb", rss, "MiB", rounds.len());
    let disk: Vec<f64> = rounds
        .iter()
        .map(|r| r.disk_bytes as f64 / (prepared_bytes + r.appended_bytes) as f64)
        .collect();
    m.push(
        "disk_bytes_per_log_byte",
        median(&disk),
        "ratio",
        rounds.len(),
    );
    if let Some(last) = rounds.last() {
        m.push("service.batch_size", last.batch_size(&plan), "count", 1);
        if let Response::Stats { nodes, .. } = last.stats {
            m.push("engine.arena_nodes", nodes as f64, "count", 1);
        }
    }
    m.print_report(&format!(
        "perfbench {} seed={} rounds={} of {requests} requests, {} clients, state: {}",
        args.kind.name(),
        args.seed,
        rounds.len(),
        workload::CLIENTS,
        plan.config_line
    ));
    Ok(Outcome {
        metrics: m,
        correct,
        attempted,
        failed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let keep: Vec<&str> = if args.trace {
        trace::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.correct, outcome.attempted, outcome.failed, &keep)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
