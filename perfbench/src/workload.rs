//! The three workloads: the state each one preloads and the request
//! streams its clients send, all derived from the benchmark's seed.

use benchkit::TestRng;
use uprov_engine::{Txn, UpdateLog};
use uprov_service::proto::Request;
use uprov_service::values::StructureId;
use uprov_workload::{equivalent_variant, Variant, Workload, WorkloadConfig};

/// Closed-loop clients, one TCP connection each.
pub const CLIENTS: usize = 2;

/// The workloads, by their benchmark names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 80% append / 20% concrete abort on the large state.
    Ingest,
    /// Concrete abort / delete / eval on the large state, no writes.
    Lookup,
    /// Symbolic abort / equivalence on a fixed small state.
    Symbolic,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ingest" => Some(Kind::Ingest),
            "lookup" => Some(Kind::Lookup),
            "symbolic" => Some(Kind::Symbolic),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Lookup => "lookup",
            Kind::Symbolic => "symbolic",
        }
    }

    /// Requests per round, summed over both clients.
    pub fn round_requests(self) -> usize {
        match self {
            Kind::Ingest => 160,
            Kind::Lookup => 300,
            Kind::Symbolic => 60,
        }
    }
}

/// Request classes, the unit of the per-kind latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `append`.
    Append,
    /// Concrete `abort`, `delete` and `eval`.
    Read,
    /// `abort_symbolic`.
    Symbolic,
    /// `equiv`.
    Equiv,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Append, Class::Read, Class::Symbolic, Class::Equiv];

    pub fn name(self) -> &'static str {
        match self {
            Class::Append => "append",
            Class::Read => "read",
            Class::Symbolic => "symbolic",
            Class::Equiv => "equiv",
        }
    }
}

/// One generated request: what the server receives (`line`) and what the
/// checker needs to know about it.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub request: Request,
    pub class: Class,
    /// The appended log, for `append` requests.
    pub log: Option<UpdateLog>,
}

impl Req {
    fn new(request: Request, class: Class, log: Option<UpdateLog>) -> Req {
        Req {
            line: request.to_string(),
            request,
            class,
            log,
        }
    }
}

/// A workload instance: the state to preload and one round of requests.
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    /// The `WorkloadConfig` line of the preloaded state.
    pub config_line: String,
    /// Appended before the snapshot; the first log carries every `base`.
    pub preload: Vec<UpdateLog>,
    /// Appended after the snapshot, so recovery replays a WAL tail.
    pub tail: Vec<UpdateLog>,
    /// Per-client request streams of one round.
    pub streams: Vec<Vec<Req>>,
}

impl Plan {
    /// Every log the preloaded state is built from, in append order.
    pub fn prepared_logs(&self) -> impl Iterator<Item = &UpdateLog> {
        self.preload.iter().chain(&self.tail)
    }

    /// Both clients' streams interleaved request by request, as
    /// `(client, index in its stream, request)`: the single-client stream
    /// of the traced run.
    pub fn merged(&self) -> Vec<(usize, usize, &Req)> {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| {
                self.streams
                    .iter()
                    .enumerate()
                    .filter_map(move |(c, s)| Some((c, i, s.get(i)?)))
            })
            .collect()
    }
}

/// `tables=4 keys=2500 txns=4000 ops=5 skew=2 hot=8@30% abort=15% width=3`.
fn large(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        tables: 4,
        keys_per_table: 2500,
        txns: 4000,
        ops_per_txn: 5,
        skew: 2,
        hot_keys: 8,
        hot_bias_pct: 30,
        abort_rate_pct: 15,
        modify_width: 3,
    }
}

/// The large state's settings at `tables=4 keys=250 txns=400`.
fn small(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        keys_per_table: 250,
        txns: 400,
        ..large(seed)
    }
}

/// Splits a log into the preload (all bases plus all but the last
/// `tail_txns` transactions, `chunk` transactions per log) and the tail
/// (`tail_chunk` transactions per log).
fn split(
    base: &[String],
    txns: &[Txn],
    tail_txns: usize,
    chunk: usize,
    tail_chunk: usize,
) -> (Vec<UpdateLog>, Vec<UpdateLog>) {
    let (head, tail) = txns.split_at(txns.len() - tail_txns);
    let mut preload: Vec<UpdateLog> = head
        .chunks(chunk)
        .map(|c| UpdateLog {
            base: Vec::new(),
            txns: c.to_vec(),
        })
        .collect();
    preload[0].base = base.to_vec();
    let tail = tail
        .chunks(tail_chunk)
        .map(|c| UpdateLog {
            base: Vec::new(),
            txns: c.to_vec(),
        })
        .collect();
    (preload, tail)
}

/// A client's request kinds: `shares[k]` percent of `n` requests are of
/// kind `k` (the last kind takes the rounding), in seeded order. Exact
/// shares keep every seed's stream the same mix, so runs with different
/// seeds stay comparable.
fn mix(rng: &mut TestRng, n: usize, shares: &[usize]) -> Vec<usize> {
    let mut kinds = Vec::with_capacity(n);
    for (k, share) in shares.iter().enumerate() {
        let count = if k + 1 == shares.len() {
            n - kinds.len()
        } else {
            n * share / 100
        };
        kinds.extend(std::iter::repeat_n(k, count));
    }
    rng.shuffle(&mut kinds);
    kinds
}

fn client_rng(seed: u64, kind: Kind, client: usize) -> TestRng {
    let salt = match kind {
        Kind::Ingest => 0x1A6E_5700,
        Kind::Lookup => 0x100C_0900,
        Kind::Symbolic => 0x5E4B_0100,
    };
    TestRng::new(seed ^ salt ^ ((client as u64 + 1) << 40))
}

/// Builds the plan of `kind` for `seed`.
pub fn plan(kind: Kind, seed: u64) -> Plan {
    let per_client = kind.round_requests() / CLIENTS;
    match kind {
        Kind::Ingest => ingest(seed, per_client),
        Kind::Lookup => lookup(seed, per_client),
        Kind::Symbolic => symbolic(seed, per_client),
    }
}

fn ingest(seed: u64, per_client: usize) -> Plan {
    let cfg = large(seed);
    let config_line = cfg.to_string();
    let state_txns = cfg.txns;
    // Decide each client's mix first, so the generator can be asked for
    // exactly as many further transactions as the streams append.
    let mut rngs: Vec<TestRng> = (0..CLIENTS)
        .map(|c| client_rng(seed, Kind::Ingest, c))
        .collect();
    let mixes: Vec<Vec<bool>> = rngs
        .iter_mut()
        .map(|rng| {
            mix(rng, per_client, &[80, 20])
                .into_iter()
                .map(|k| k == 0)
                .collect()
        })
        .collect();
    let appends: Vec<usize> = mixes
        .iter()
        .map(|m| m.iter().filter(|&&a| a).count())
        .collect();
    // Generating more transactions leaves the first `state_txns` as they
    // are (transactions are drawn in order from one stream), so the
    // preloaded state is exactly the `config_line` workload and the extra
    // transactions are its continuation.
    let w = Workload::generate(WorkloadConfig {
        txns: state_txns + appends.iter().sum::<usize>(),
        ..cfg
    });
    let (state, further) = w.log.txns.split_at(state_txns);
    let (preload, tail) = split(&w.log.base, state, 100, 500, 10);
    let preloaded_names: Vec<String> = state.iter().map(|t| t.name.clone()).collect();
    let mut further = further.iter();
    let streams = mixes
        .into_iter()
        .zip(rngs)
        .enumerate()
        .map(|(c, (mix, mut rng))| {
            let mine: Vec<Txn> = further.by_ref().take(appends[c]).cloned().collect();
            let mut mine = mine.into_iter();
            let mut acknowledged: Vec<String> = Vec::new();
            mix.into_iter()
                .map(|is_append| {
                    if is_append {
                        let txn = mine.next().expect("one generated txn per append");
                        acknowledged.push(txn.name.clone());
                        let log = UpdateLog {
                            base: Vec::new(),
                            txns: vec![txn],
                        };
                        Req::new(
                            Request::Append {
                                log: log.to_string(),
                            },
                            Class::Append,
                            Some(log),
                        )
                    } else {
                        // Abort targets: preloaded transactions, or this
                        // client's own appends, acknowledged before it sends
                        // the next request.
                        let ix = rng.below(preloaded_names.len() + acknowledged.len());
                        let txn = preloaded_names
                            .get(ix)
                            .unwrap_or_else(|| &acknowledged[ix - preloaded_names.len()])
                            .clone();
                        Req::new(
                            Request::AbortEval {
                                txn,
                                structure: StructureId::Bool,
                            },
                            Class::Read,
                            None,
                        )
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        kind: Kind::Ingest,
        seed,
        config_line,
        preload,
        tail,
        streams,
    }
}

fn lookup(seed: u64, per_client: usize) -> Plan {
    let cfg = large(seed);
    let config_line = cfg.to_string();
    let w = Workload::generate(cfg);
    let (preload, tail) = split(&w.log.base, &w.log.txns, 100, 500, 10);
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, Kind::Lookup, c);
            mix(&mut rng, per_client, &[70, 20, 10])
                .into_iter()
                .map(|k| {
                    let request = match k {
                        0 => Request::AbortEval {
                            txn: w.txn_names[rng.below(w.txn_names.len())].clone(),
                            structure: StructureId::Bool,
                        },
                        // Only declared base tuples can be deleted.
                        1 => Request::DeleteBaseEval {
                            tuple: w.log.base[rng.below(w.log.base.len())].clone(),
                            structure: StructureId::Worlds,
                        },
                        _ => Request::EvalAll {
                            structure: StructureId::Trust,
                        },
                    };
                    Req::new(request, Class::Read, None)
                })
                .collect()
        })
        .collect();
    Plan {
        kind: Kind::Lookup,
        seed,
        config_line,
        preload,
        tail,
        streams,
    }
}

/// Size of the fixed pool of equivalent variants `equiv` draws from.
const VARIANTS: usize = 6;

/// The generator seed of the symbolic state, whatever the benchmark's
/// seed. Render size grows exponentially with the log and varies about
/// fourfold between generator seeds at this size (0.8 to 3.2 MB per
/// response over seeds 1 to 12), so a per-seed state would make runs
/// incomparable; generator seed 7 gives the median size, about 1.5 MB.
/// The benchmark's seed draws the requests and the variant pool.
const SYMBOLIC_STATE_SEED: u64 = 7;

fn symbolic(seed: u64, per_client: usize) -> Plan {
    let cfg = small(SYMBOLIC_STATE_SEED);
    let config_line = cfg.to_string();
    let w = Workload::generate(cfg);
    let (preload, tail) = split(&w.log.base, &w.log.txns, 20, 100, 5);
    // The variant pool is part of the fixed state: variants differ in
    // length, and `equiv` parses its log in time quadratic in the line
    // length, so a per-seed pool would change the cost of the mix. Each
    // client sends every variant equally often.
    let mut pool_rng = TestRng::new(SYMBOLIC_STATE_SEED ^ 0x7A12_1A47);
    let families = [
        Variant::PermuteModifySources,
        Variant::DeadSelfModify,
        Variant::ModifyFromDeleted,
    ];
    let variants: Vec<String> = (0..VARIANTS)
        .map(|i| {
            equivalent_variant(&w.log, families[i % families.len()], &mut pool_rng).to_string()
        })
        .collect();
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, Kind::Symbolic, c);
            let kinds = mix(&mut rng, per_client, &[80, 20]);
            // Aborted transactions are drawn one per equal slice of the log,
            // in seeded order: how much of the DAG an abort rewrites (and
            // how far the arena grows) depends on the transaction's
            // position, and stratifying keeps that the same for every seed.
            let aborts = kinds.iter().filter(|&&k| k == 0).count();
            let slice = w.txn_names.len() / aborts;
            let mut targets: Vec<usize> =
                (0..aborts).map(|i| i * slice + rng.below(slice)).collect();
            rng.shuffle(&mut targets);
            let mut targets = targets.into_iter();
            let mut next_variant = 0;
            kinds
                .into_iter()
                .map(|k| {
                    if k == 0 {
                        let t = targets.next().expect("one target per abort");
                        Req::new(
                            Request::AbortSymbolic {
                                txn: w.txn_names[t].clone(),
                            },
                            Class::Symbolic,
                            None,
                        )
                    } else {
                        next_variant += 1;
                        Req::new(
                            Request::Equiv {
                                log: variants[(c + next_variant) % variants.len()].clone(),
                            },
                            Class::Equiv,
                            None,
                        )
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        kind: Kind::Symbolic,
        seed,
        config_line,
        preload,
        tail,
        streams,
    }
}
