//! `flash_cli` — command-line front end for the library: generate
//! datasets, build indexes, persist topologies, and serve/evaluate
//! queries, all over the standard `fvecs`/`ivecs` formats.
//!
//! ```text
//! # 1. synthesize a corpus (or bring your own fvecs files)
//! flash_cli generate --profile laion-like --n 20000 --nq 200 --k 10 \
//!     --base base.fvecs --queries q.fvecs --gt gt.ivecs
//!
//! # 2. build an index and persist the topology
//! flash_cli build --base base.fvecs --method flash --c 128 --r 16 \
//!     --graph index.hfg
//!
//! # 3. serve queries from the persisted topology and score them
//! flash_cli search --base base.fvecs --graph index.hfg --method flash \
//!     --queries q.fvecs --k 10 --ef 128 --gt gt.ivecs --out results.ivecs
//! ```
//!
//! The topology file stores only adjacency (see `graphs::persist`);
//! providers are rebuilt deterministically from the base vectors and the
//! seed, so codes never need separate storage.

use hnsw_flash::prelude::*;
use hnsw_flash::serving::distributed::wire::{read_message, write_message};
use hnsw_flash::serving::distributed::{
    connect_round_robin_shards, ErrorCode, EventConfig, EventServer, Message, NodeAddr,
    NodeHandler, ScrapeServer, SocketTransport, Transport,
};
use metrics::{
    collect_traces, trace_id_for, transport_summary, BurnConfig, Objective, SloGuard, SpanRing,
    TraceContext,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vecstore::io::{read_fvecs, read_ivecs, write_fvecs, write_ivecs};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "build" => cmd_build(&opts),
        "search" => cmd_search(&opts),
        "scenario" => cmd_scenario(&opts),
        "serve-node" => cmd_serve_node(&opts),
        "bench-serve" => cmd_bench_serve(&opts),
        "stats" => cmd_stats(&opts),
        "bench-diff" => cmd_bench_diff(&opts),
        "info" => cmd_info(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
flash_cli — build and serve Flash-accelerated graph ANN indexes

USAGE:
  flash_cli generate --profile <name> --n <N> --base <out.fvecs>
                     [--nq <N> --queries <out.fvecs>] [--k <K> --gt <out.ivecs>]
                     [--seed <u64>]
  flash_cli build    --base <in.fvecs> --graph <out.hfg>
                     [--method flash|hnsw|full|pq|sq|pca|opq|<graph>:<coding>]
                     [--c <C>] [--r <R>]
                     [--df <d_F>] [--mf <M_F>] [--seed <u64>]
  flash_cli search   --base <in.fvecs> --graph <in.hfg> --queries <in.fvecs>
                     [--method ...same as build...] [--k <K>] [--ef <EF>]
                     [--shards <N>] [--replicas <R>] [--routing <policy>]
                     [--nodes <addr,addr,...>] [--timeout-ms <N>]
                     [--threads <N>] [--cache-capacity <N>]
                     [--batch <N>] [--gt <in.ivecs>] [--out <out.ivecs>]
                     [--trace-out <out.jsonl>]
  flash_cli scenario --name steady_zipf|diurnal_burst|churn_lsm|fault_storm|overload
                     [--seed <u64>] [--smoke] [--out <BENCH_name.json>]
                     [--shards <N>] [--replicas <R>] [--routing <policy>]
                     [--nodes <addr,addr,...>] [--timeout-ms <N>]
                     [--cache-capacity <N>] [--threads <N>]
                     [--trace-out <out.jsonl>]
  flash_cli serve-node --base <in.fvecs> --listen <addr>
                     [--method ...same as build...] [--c <C>] [--r <R>]
                     [--shards <N> --shard <I>] [--threads <N>] [--seed <u64>]
                     [--metrics-addr <host:port>]
  flash_cli bench-serve [--n <N>] [--queries <N>] [--k <K>] [--ef <EF>]
                     [--clients <N>] [--flood <N>]
                     [--threads <N>] [--profile <name>]
                     [--method ...same as build...] [--seed <u64>]
  flash_cli stats    --node <addr> [--timeout-ms <N>] [--openmetrics]
  flash_cli bench-diff --old <a.json> --new <b.json>
  flash_cli info     --graph <in.hfg>

METHODS:  legacy HNSW shorthands: flash hnsw full pq sq pca opq
          or <graph>:<coding> with graph in {hnsw nsg taumg vamana hcnng}
          and coding in {full sq pca pq opq flash}, e.g. nsg:flash

SERVING:  --shards N > 1 partitions the base set round-robin and rebuilds
          one deterministic sub-index per shard (the persisted monolithic
          topology cannot be sliced); --replicas R > 1 builds R identical
          copies of every shard behind failover routing (--routing
          primary | round-robin | load-aware, default round-robin) and
          reports retries/mark-downs/probes; the coding codec is trained
          once and shared across all shards and replicas; --threads sets
          the worker pool size (default: shards, or shards*replicas
          capped at 8 when replicated); --cache-capacity N > 0 serves
          repeated queries from an LRU result cache

DISTRIBUTED:
          `serve-node` hosts one (shard of an) index behind a socket:
          --listen tcp:HOST:PORT or unix:/path.sock, with --shards N
          --shard I serving partition I of the round-robin split (every
          node must use the same --base, --method, and --seed). `search
          --nodes addr,addr,...` then scatter-gathers across those
          processes, one node per shard in partition order (--shards /
          --replicas / --graph do not combine with --nodes; remote
          replica placement is not wired up yet). The node serves from
          --threads readiness loops that multiplex all connections,
          pipeline frames, batch adaptively, and shed past-deadline
          requests with Overloaded errors (which clients retry on a
          sibling).
          `bench-serve` builds a synthetic index, binds an
          under-provisioned server on an ephemeral port and floods it
          past its admission deadline: every request must be answered
          (Ok or Overloaded; none hang), /metrics must stay valid while
          it sheds, and /healthz must degrade once the shed fraction
          burns its budget

TRACING:  --trace-out PATH writes one JSON line per query with that
          request's span tree (cache_lookup, route, replica_attempt,
          shard_fanout, gather, rerank, wire_exchange), stitched across
          layers by a deterministic trace id; `stats --node ADDR` asks a
          live serve-node for its identity card, transport counters, and
          retained span buffer as JSON

SCENARIO: `scenario` replays a named deterministic workload (Zipf-skewed
          queries, diurnal/bursty arrivals, LSM churn, scripted fault
          storms) against its default topology — or against --shards /
          --replicas / --nodes overrides — and writes a schema-stable
          BENCH_<name>.json. Identical seed + topology reproduces the
          file byte-for-byte; --smoke runs the CI-sized variant of the
          same shape

OBSERVABILITY:
          serve-node --metrics-addr HOST:PORT opens an HTTP scrape plane
          next to the wire listener: GET /metrics renders the process
          metrics registry as OpenMetrics text, /healthz answers 200 ok
          until an SLO burn-rate guard latches a breach (the node
          watches its shed fraction; 503 degraded while burning),
          and /varz dumps the node's stats snapshot as JSON. `stats
          --node ADDR --openmetrics` renders a remote node's stats scrape
          in the same exposition format for piping into a collector.
          `bench-diff --old A.json --new B.json` diffs two BENCH reports
          exactly: any difference exits nonzero listing each divergent
          $.path — the CI sentinel over committed baselines

PROFILES: argilla-like anton-like laion-like imagenet-like cohere-like
          datacomp-like bigcode-like ssnpp-like";

/// Options that are bare boolean flags — present/absent, no value.
const FLAG_OPTIONS: &[&str] = &["smoke", "openmetrics"];

/// Every `--key value` option some command reads, space-separated. A name
/// in neither list is rejected at parse time rather than silently eating
/// the next token.
const VALUE_OPTIONS: &str = "base batch c cache-capacity clients df ef flood graph gt k listen \
    method metrics-addr mf n name new node nodes nq old out profile queries r replicas routing \
    seed shard shards threads timeout-ms trace-out";

/// Parsed `--key value` options.
struct Opts {
    map: HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, got `{key}`"));
            };
            let value = if FLAG_OPTIONS.contains(&name) {
                "true".to_string()
            } else if VALUE_OPTIONS.split(' ').any(|option| option == name) {
                it.next()
                    .ok_or_else(|| format!("--{name} requires a value"))?
                    .clone()
            } else {
                return Err(format!("unknown option --{name}"));
            };
            if map.insert(name.to_string(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Self { map })
    }

    /// Whether a boolean flag (see [`FLAG_OPTIONS`]) was given.
    fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.str(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.required(key)?))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

fn profile_by_name(name: &str) -> Result<DatasetProfile, String> {
    Ok(match name {
        "argilla-like" => DatasetProfile::ArgillaLike,
        "anton-like" => DatasetProfile::AntonLike,
        "laion-like" => DatasetProfile::LaionLike,
        "imagenet-like" => DatasetProfile::ImagenetLike,
        "cohere-like" => DatasetProfile::CohereLike,
        "datacomp-like" => DatasetProfile::DatacompLike,
        "bigcode-like" => DatasetProfile::BigcodeLike,
        "ssnpp-like" => DatasetProfile::SsnppLike,
        other => {
            return Err(format!(
                "unknown profile `{other}` (see PROFILES in --help)"
            ))
        }
    })
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let profile = profile_by_name(opts.required("profile")?)?;
    let n: usize = opts.num("n", 10_000)?;
    let nq: usize = opts.num("nq", 100)?;
    let seed: u64 = opts.num("seed", 42u64)?;
    let base_path = opts.path("base")?;

    eprintln!("generating {n} vectors ({})...", profile.name());
    let (base, queries) = generate(&profile.spec(), n, nq, seed);
    write_fvecs(&base_path, &base).map_err(io_err("write base"))?;
    eprintln!(
        "wrote {} vectors x {} dims to {}",
        base.len(),
        base.dim(),
        base_path.display()
    );

    if let Some(qp) = opts.str("queries") {
        write_fvecs(Path::new(qp), &queries).map_err(io_err("write queries"))?;
        eprintln!("wrote {} queries to {qp}", queries.len());
        if let Some(gtp) = opts.str("gt") {
            let k: usize = opts.num("k", 10)?;
            eprintln!("computing exact top-{k} ground truth...");
            let gt = ground_truth(&base, &queries, k);
            let rows: Vec<Vec<i32>> = gt
                .iter()
                .map(|nbrs| nbrs.iter().map(|n| n.id as i32).collect())
                .collect();
            write_ivecs(Path::new(gtp), &rows).map_err(io_err("write gt"))?;
            eprintln!("wrote ground truth to {gtp}");
        }
    }
    Ok(())
}

/// Everything needed to rebuild a provider deterministically at serve time.
/// The method string is validated against the engine's `GraphKind` /
/// `Coding` parsers **before** any dataset is read, so a typo fails fast
/// with the accepted set spelled out.
#[derive(Debug)]
struct BuildSpec {
    graph_kind: GraphKind,
    coding: Coding,
    c: usize,
    r: usize,
    /// `--df` override; `FlashParams::auto(dim)` default applies at build
    /// time (the dataset dimensionality is unknown during validation).
    d_f: Option<usize>,
    /// `--mf` override; auto default applies at build time.
    m_f: Option<usize>,
    seed: u64,
}

impl BuildSpec {
    fn from_opts(opts: &Opts) -> Result<Self, String> {
        let (graph_kind, coding) = parse_method(opts.str("method").unwrap_or("flash"))?;
        Ok(Self {
            graph_kind,
            coding,
            c: opts.num("c", 128)?,
            r: opts.num("r", 16)?,
            d_f: opts
                .str("df")
                .map(str::parse)
                .transpose()
                .map_err(|_| "--df: not a number")?,
            m_f: opts
                .str("mf")
                .map(str::parse)
                .transpose()
                .map_err(|_| "--mf: not a number")?,
            seed: opts.num("seed", 0x5EEDu64)?,
        })
    }

    fn method_name(&self) -> String {
        format!("{}:{}", self.graph_kind.name(), self.coding.name())
    }

    /// The engine builder for this spec.
    fn builder(&self, dim: usize, n: usize) -> IndexBuilder {
        let mut builder = IndexBuilder::new(self.graph_kind, self.coding)
            .c(self.c)
            .r(self.r)
            .seed(self.seed);
        if self.coding == Coding::Flash {
            let mut fp = FlashParams::auto(dim);
            fp.d_f = self.d_f.unwrap_or(fp.d_f);
            fp.m_f = self.m_f.unwrap_or(fp.m_f);
            fp.seed = self.seed;
            fp.train_sample = IndexBuilder::default_train_sample(n);
            builder = builder.flash_params(fp);
        }
        builder
    }
}

fn cmd_build(opts: &Opts) -> Result<(), String> {
    // Validate method/options before touching the (possibly huge) dataset.
    let spec = BuildSpec::from_opts(opts)?;
    let graph_path = opts.path("graph")?;
    let base = read_fvecs(&opts.path("base")?).map_err(io_err("read base"))?;
    if base.is_empty() {
        return Err("base dataset is empty".into());
    }

    eprintln!(
        "building method={} over {} vectors (C={}, R={})...",
        spec.method_name(),
        base.len(),
        spec.c,
        spec.r
    );
    let (dim, n) = (base.dim(), base.len());
    let t0 = Instant::now();
    let index = spec.builder(dim, n).build(base);
    let took = t0.elapsed();
    let frozen = index
        .export_graph()
        .ok_or("built index exposes no topology to persist")?;
    frozen.save(&graph_path).map_err(io_err("write graph"))?;
    eprintln!(
        "built in {took:.2?}: {} base edges, {:.1} MB in memory, topology -> {}",
        frozen.base_edges(),
        index.memory_bytes() as f64 / 1e6,
        graph_path.display()
    );
    Ok(())
}

/// Builds (a shard of) an index and serves it behind a socket listener
/// until the process is killed — the node half of distributed serving.
fn cmd_serve_node(opts: &Opts) -> Result<(), String> {
    // Validate method and address before touching the dataset.
    let spec = BuildSpec::from_opts(opts)?;
    let listen: NodeAddr = opts.required("listen")?.parse()?;
    let shards: usize = opts.num("shards", 1)?;
    let shard: usize = opts.num("shard", 0)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shard >= shards {
        return Err(format!("--shard {shard} out of range (--shards {shards})"));
    }
    let threads: usize = opts.num("threads", 4)?;
    let base = read_fvecs(&opts.path("base")?).map_err(io_err("read base"))?;
    if base.is_empty() {
        return Err("base dataset is empty".into());
    }
    if shards > base.len() {
        return Err(format!(
            "--shards {shards} exceeds the {} base vectors",
            base.len()
        ));
    }
    let (dim, n) = (base.dim(), base.len());
    let builder = spec.builder(dim, n);
    let (index, served): (Arc<dyn AnnIndex>, String) = if shards > 1 {
        // The codec trains on the FULL corpus — identical on every node
        // and on any in-process build from the same base/method/seed —
        // then this node only builds its slice.
        let codec = builder.train_codec(&base);
        let (set, ids) = ShardedIndex::partition(&base, shards, ShardPolicy::RoundRobin)
            .into_iter()
            .nth(shard)
            .expect("shard < shards <= n: the partition is non-empty");
        drop(base);
        let label = format!("shard {shard}/{shards}, {} vectors", ids.len());
        (Arc::from(builder.build_with_codec(set, &codec)), label)
    } else {
        (Arc::from(builder.build(base)), format!("{n} vectors"))
    };
    eprintln!(
        "built method={} ({served}); binding {listen}...",
        spec.method_name()
    );
    let config = EventConfig {
        threads,
        ..EventConfig::default()
    };
    let server = EventServer::bind(&listen, NodeHandler::new(index), config)
        .map_err(|e| format!("cannot serve node: {e}"))?;
    let _scrape = opts
        .str("metrics-addr")
        .map(|addr| bind_scrape(addr, &server))
        .transpose()?;
    eprintln!(
        "node listening on {} — method={} ({served}), {threads} event loops; Ctrl-C to stop",
        server.addr(),
        spec.method_name()
    );
    loop {
        std::thread::park();
    }
}

/// The SLO guard every scraped node carries: `/healthz` degrades while
/// the server's admission layer sheds more than 5 % of what it admits.
fn shed_fraction_guard(server: &EventServer, burn: BurnConfig, tick: Duration) -> Arc<SloGuard> {
    use std::sync::atomic::Ordering::Relaxed;
    let (admitted, shed) = server.admission_counters();
    let sampler =
        Box::new(move || (admitted.load(Relaxed), shed.load(Relaxed))) as metrics::slo::Sampler;
    Arc::new(SloGuard::new(
        burn,
        tick,
        vec![(Objective::new("shed_fraction", 0.05), sampler)],
    ))
}

/// Opens the HTTP scrape plane over `server`'s node and announces its
/// endpoints, publishing the node's live counters into the process
/// registry so `/metrics` has the same ledger a `StatsRequest` answers
/// from.
fn bind_scrape(addr: &str, server: &EventServer) -> Result<ScrapeServer, String> {
    let handler = Arc::clone(server.handler());
    let guard = shed_fraction_guard(server, BurnConfig::default(), Duration::from_secs(1));
    let registry = metrics::MetricsRegistry::global();
    graphs::register_scratch_metrics();
    {
        let h = Arc::clone(&handler);
        registry.register_source("node.transport", move || h.counters().snapshot().to_json());
    }
    {
        let h = Arc::clone(&handler);
        registry.register_source("node.profile", move || h.stats().profile.to_json());
    }
    let scrape = ScrapeServer::bind(addr, handler, Some(guard))
        .map_err(|e| format!("cannot bind metrics endpoint: {e}"))?;
    eprintln!(
        "metrics on http://{0}/metrics (also /healthz, /varz)",
        scrape.addr()
    );
    Ok(scrape)
}

/// Floods a node listener with `total` requests blasted all at
/// once (every client writes its full share before reading anything) and
/// tallies how each was answered: `(ok, overloaded)`.
fn flood_server(
    addr: &NodeAddr,
    queries: &VectorSet,
    k: usize,
    ef: usize,
    rerank: usize,
    clients: usize,
    total: usize,
) -> Result<(usize, usize), String> {
    let NodeAddr::Tcp(host) = addr else {
        return Err("bench-serve floods TCP listeners only".into());
    };
    let nq = queries.len();
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || -> Result<(usize, usize), String> {
                    // Round-robin split of `total` across the clients.
                    let share = total / clients + usize::from(c < total % clients);
                    let mut stream = std::net::TcpStream::connect(host.as_str())
                        .map_err(|e| format!("connect {host}: {e}"))?;
                    stream.set_nodelay(true).ok();
                    for i in 0..share {
                        let qi = (c + i * clients) % nq;
                        let req = SearchRequest::new(queries.get(qi), k).ef(ef).rerank(rerank);
                        write_message(&mut stream, &Message::Search(req), 0)
                            .map_err(|e| format!("send: {e}"))?;
                    }
                    let (mut ok, mut overloaded) = (0, 0);
                    for _ in 0..share {
                        let (msg, _, _) = read_message(&mut stream)
                            .map_err(|e| format!("recv: {e}"))?
                            .ok_or("server closed mid-flood")?;
                        match msg {
                            Message::SearchOk(_) => ok += 1,
                            Message::Error(fault) if fault.code == ErrorCode::Overloaded => {
                                overloaded += 1
                            }
                            Message::Error(fault) => {
                                return Err(format!("flood request failed: {}", fault.message))
                            }
                            other => return Err(format!("unexpected {} frame", other.kind_name())),
                        }
                    }
                    Ok((ok, overloaded))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "flood client panicked".to_string())?)
            .collect::<Result<_, String>>()
    })?;
    Ok(counts
        .into_iter()
        .fold((0, 0), |(a, b), (ok, ov)| (a + ok, b + ov)))
}

/// Builds a synthetic index behind a deliberately under-provisioned
/// `EventServer` on an ephemeral port and floods it past its admission
/// deadline: every request must be answered — `SearchOk` or `Overloaded`,
/// never silence — while a concurrent scraper reads `/metrics`, and
/// `/healthz` must degrade once the shed fraction burns its budget.
/// Serving speed is not measured here (`serve_zipf_stack` in `benchmark/`
/// is that ruler); wire parity with in-process search is `cargo test`'s
/// (`tests/distributed.rs`).
fn cmd_bench_serve(opts: &Opts) -> Result<(), String> {
    let spec = BuildSpec::from_opts(opts)?;
    let n: usize = opts.num("n", 2_000)?;
    let nq: usize = opts.num("queries", 256)?;
    let k: usize = opts.num("k", 10)?;
    let ef: usize = opts.num("ef", 64)?;
    let clients: usize = opts.num("clients", 8)?;
    let flood: usize = opts.num("flood", 1_024)?;
    let threads: usize = opts.num("threads", 2)?;
    let profile = profile_by_name(opts.str("profile").unwrap_or("ssnpp-like"))?;
    if n == 0 || nq == 0 || clients == 0 || threads == 0 || flood == 0 {
        return Err("--n/--queries/--clients/--threads/--flood must be positive".into());
    }

    eprintln!(
        "bench-serve: building method={} over {n} synthetic vectors ({})...",
        spec.method_name(),
        profile.name()
    );
    let (base, queries) = generate(&profile.spec(), n, nq, spec.seed);
    let dim = base.dim();
    let rerank = spec.coding.default_rerank();
    let index: Arc<dyn AnnIndex> = Arc::from(spec.builder(dim, n).build(base));

    // Overload drill: a tight queue deadline and a blast of `flood`
    // requests force deadline shedding; admission control must still
    // answer every frame. A zero deadline would shed *everything* — keep
    // it small but nonzero so early arrivals are admitted.
    eprintln!("bench-serve: flooding the server with {flood} requests...");
    let mut over = EventServer::bind(
        &"tcp:127.0.0.1:0".parse()?,
        NodeHandler::new(index),
        EventConfig {
            threads,
            batch_max: 16,
            batch_deadline: Duration::from_micros(200),
            client_quota: flood,
            queue_deadline: Duration::from_millis(2),
        },
    )
    .map_err(|e| format!("bind overload server: {e}"))?;

    // Scrape plane over the flooded server: /metrics must serve valid
    // OpenMetrics *while* the admission layer sheds, and /healthz must
    // degrade once the shed fraction burns its budget. Single-bucket
    // windows make the verdict a pure function of the cumulative
    // counters at scrape time.
    let guard = shed_fraction_guard(
        &over,
        BurnConfig {
            fast_window: 1,
            slow_window: 1,
            fast_burn: 1.0,
            slow_burn: 1.0,
        },
        Duration::from_millis(1),
    );
    let scrape = ScrapeServer::bind("127.0.0.1:0", Arc::clone(over.handler()), Some(guard))
        .map_err(|e| format!("bind scrape endpoint: {e}"))?;
    let scrape_addr = scrape.addr().to_string();
    let stop_scraping = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let addr = scrape_addr.clone();
        let stop = Arc::clone(&stop_scraping);
        std::thread::spawn(move || -> Result<u64, String> {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let (status, body) = http_get(&addr, "/metrics")?;
                if status != 200 || !body.ends_with("# EOF\n") {
                    return Err(format!(
                        "mid-flood /metrics scrape broke: status {status}, \
                         terminator {}",
                        body.ends_with("# EOF\n")
                    ));
                }
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(scrapes)
        })
    };

    let (ok, overloaded) = flood_server(over.addr(), &queries, k, ef, rerank, clients, flood)?;
    stop_scraping.store(true, std::sync::atomic::Ordering::Release);
    let scrapes = scraper
        .join()
        .map_err(|_| "the concurrent scraper panicked".to_string())??;
    let stats = over.admission_stats();
    let (health_status, _) = http_get(&scrape_addr, "/healthz")?;
    drop(scrape);
    over.shutdown();
    let answered = ok + overloaded;
    println!(
        "overload: submitted={flood} answered={answered} ok={ok} overloaded={overloaded} \
         admitted={} shed={}",
        stats.admitted, stats.shed
    );
    if answered != flood {
        return Err(format!(
            "overload drill lost {} of {flood} requests (every submission must be \
             answered or shed, never dropped)",
            flood - answered
        ));
    }
    if scrapes == 0 {
        return Err("no /metrics scrape landed during the flood".into());
    }
    let shed_fraction = stats.shed as f64 / (stats.admitted + stats.shed).max(1) as f64;
    if shed_fraction > 0.05 && health_status != 503 {
        return Err(format!(
            "shed fraction {shed_fraction:.3} burned the 5% budget but /healthz \
             answered {health_status}, not 503 degraded"
        ));
    }
    println!(
        "scrape: concurrent_scrapes={scrapes} healthz={} (shed_fraction={shed_fraction:.3})",
        if health_status == 503 {
            "degraded"
        } else {
            "ok"
        }
    );
    Ok(())
}

/// One blocking HTTP GET against a scrape endpoint: `(status, body)`.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{addr}{path}: malformed HTTP response"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    // Validate method/options before touching the (possibly huge) datasets.
    let spec = BuildSpec::from_opts(opts)?;
    let nodes: Option<Vec<NodeAddr>> = opts
        .str("nodes")
        .map(|csv| csv.split(',').map(str::parse).collect::<Result<_, _>>())
        .transpose()?;
    if let Some(addrs) = &nodes {
        if addrs.is_empty() {
            return Err("--nodes needs at least one address".into());
        }
        for flag in ["shards", "replicas", "graph"] {
            if opts.str(flag).is_some() {
                return Err(format!(
                    "--{flag} does not combine with --nodes (each node serves one shard; \
                     remote replica placement is not wired up yet)"
                ));
            }
        }
    }
    let shards: usize = match &nodes {
        Some(addrs) => addrs.len(),
        None => opts.num("shards", 1)?,
    };
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let replicas: usize = opts.num("replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    let routing: RoutingPolicy = match opts.str("routing") {
        None => RoutingPolicy::RoundRobin,
        Some(s) => s.parse()?,
    };
    // Default pool size: one worker per shard — and on the replicated
    // path enough workers to also build the replica copies concurrently
    // (capped; serving fan-out is per shard regardless).
    let default_threads = if replicas > 1 {
        (shards * replicas).min(8)
    } else {
        shards
    };
    let threads: usize = opts.num("threads", default_threads)?;
    let cache_capacity: usize = opts.num("cache-capacity", 0)?;
    let batch: usize = opts.num("batch", 32)?;
    let base = read_fvecs(&opts.path("base")?).map_err(io_err("read base"))?;
    let queries = read_fvecs(&opts.path("queries")?).map_err(io_err("read queries"))?;
    if base.is_empty() || queries.is_empty() {
        return Err("base/query dataset is empty".into());
    }
    if base.dim() != queries.dim() {
        return Err(format!(
            "dimension mismatch: base {} vs queries {}",
            base.dim(),
            queries.dim()
        ));
    }
    let k: usize = opts.num("k", 10)?;
    let ef: usize = opts.num("ef", 128)?;
    let (dim, n) = (base.dim(), base.len());
    let rerank = spec.coding.default_rerank();
    // The worker pool only exists on the sharded/replicated/distributed
    // paths; the monolithic serve path runs single-threaded regardless of
    // --threads.
    let threads_used = if shards > 1 || replicas > 1 || nodes.is_some() {
        threads
    } else {
        1
    };

    // Kept alongside the type-erased serving handle so failover stats
    // stay readable after the workload drains.
    let mut replicated: Option<Arc<ReplicatedIndex>> = None;
    // Likewise for the per-node transport counters on the --nodes path.
    let mut transports: Vec<Arc<SocketTransport>> = Vec::new();
    let index: Arc<dyn AnnIndex> = if let Some(addrs) = &nodes {
        // Distributed serving: each address hosts one shard of the same
        // round-robin partition (`serve-node --shards N --shard I`); the
        // coordinator only needs the id maps, which it recomputes from
        // the shared base file.
        eprintln!(
            "distributed serving: scatter-gather across {} nodes...",
            addrs.len()
        );
        let timeout_ms: u64 = opts.num("timeout-ms", 5_000)?;
        let (sharded, connected) = connect_round_robin_shards(
            addrs,
            n,
            dim,
            Duration::from_millis(timeout_ms.max(1)),
            threads,
        )?;
        transports = connected;
        Arc::new(sharded)
    } else if replicas > 1 {
        // Replicas are deterministic rebuilds too (and every shard×replica
        // shares one globally-trained codec), so --graph is not read.
        eprintln!(
            "replicated serving: building {shards} x {replicas} {} shard replicas \
             on {threads} threads ({routing} routing)...",
            spec.method_name()
        );
        let r = Arc::new(ReplicatedIndex::build(
            base,
            &spec.builder(dim, n),
            shards,
            replicas,
            ShardPolicy::RoundRobin,
            routing,
            HealthConfig::default(),
            threads,
        ));
        replicated = Some(Arc::clone(&r));
        r
    } else if shards > 1 {
        // The persisted topology is one monolithic graph, which cannot be
        // sliced; sharded serving rebuilds one deterministic sub-index per
        // shard from the base vectors instead (--graph is not read).
        eprintln!(
            "sharded serving: building {shards} {} shards on {threads} threads...",
            spec.method_name()
        );
        Arc::new(ShardedIndex::build(
            base,
            &spec.builder(dim, n),
            shards,
            ShardPolicy::RoundRobin,
            threads,
        ))
    } else {
        let graph =
            graphs::GraphLayers::load(&opts.path("graph")?).map_err(io_err("read graph"))?;
        if graph.len() != n {
            return Err(format!(
                "graph covers {} nodes but base has {n} vectors",
                graph.len()
            ));
        }
        eprintln!(
            "re-deriving {} provider over {n} vectors...",
            spec.method_name()
        );
        Arc::from(spec.builder(dim, n).serve(base, graph)?)
    };
    let cached = (cache_capacity > 0)
        .then(|| Arc::new(CachedIndex::new(Arc::clone(&index), cache_capacity)));
    let serving: Arc<dyn AnnIndex> = match &cached {
        Some(c) => Arc::clone(c) as Arc<dyn AnnIndex>,
        None => index,
    };

    eprintln!(
        "searching {} queries (k={k}, ef={ef}, rerank={rerank}, batch={batch})...",
        queries.len()
    );
    // --trace-out: every request carries a deterministic trace id
    // (derived from the build seed and query index) recording into one
    // ring sized so no span is dropped.
    let trace_out = opts.str("trace-out").map(PathBuf::from);
    let trace_ring = trace_out.as_ref().map(|_| {
        Arc::new(SpanRing::new(
            (queries.len().max(1) * 64).clamp(1024, 1 << 21),
        ))
    });
    let mut executor = BatchExecutor::new(serving).batch_size(batch);
    executor.submit_all((0..queries.len()).map(|qi| {
        let mut req = SearchRequest::new(queries.get(qi), k).ef(ef).rerank(rerank);
        if let Some(ring) = &trace_ring {
            req = req.trace(TraceContext::new(
                Arc::clone(ring),
                trace_id_for(spec.seed, qi as u64),
            ));
        }
        req
    }));
    let report = executor.run();
    let found: Vec<Vec<u32>> = report
        .responses
        .iter()
        .map(|r| r.hits.iter().map(|h| h.id as u32).collect())
        .collect();
    let latency = report.latency();
    let cache_line = match &cached {
        Some(c) => format!("{:.1}%", c.cache().stats().hit_rate() * 100.0),
        None => "off".to_string(),
    };
    let failover_line = match &replicated {
        Some(r) => {
            let f = r.failover_stats();
            format!(
                " replicas={} routing={} retries={} markdowns={} probes={}",
                r.replica_count(),
                r.routing(),
                f.retries,
                f.markdowns,
                f.probes,
            )
        }
        None => String::new(),
    };
    let transport_line = if transports.is_empty() {
        String::new()
    } else {
        let t = transport_summary(&transports.iter().map(|t| t.stats()).collect::<Vec<_>>());
        format!(
            " nodes={} frames={} bytes={} timeouts={}",
            transports.len(),
            t.frames_sent + t.frames_received,
            t.bytes_sent + t.bytes_received,
            t.timeouts,
        )
    };
    println!(
        "serving: shards={shards} threads={threads_used} qps={:.0} p50={:.3}ms p99={:.3}ms cache={cache_line}{failover_line}{transport_line}",
        report.qps.qps(),
        latency.p50_ms,
        latency.p99_ms,
    );
    println!(
        "QPS: {:.0}  mean latency: {:.3} ms",
        report.qps.qps(),
        report.qps.mean_latency_ms()
    );

    if let Some(gtp) = opts.str("gt") {
        let rows = read_ivecs(Path::new(gtp)).map_err(io_err("read gt"))?;
        if rows.len() != queries.len() {
            return Err(format!(
                "ground truth has {} rows for {} queries",
                rows.len(),
                queries.len()
            ));
        }
        let truth: Vec<Vec<vecstore::Neighbor>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&id| vecstore::Neighbor {
                        id: id as u32,
                        dist_sq: 0.0,
                    })
                    .collect()
            })
            .collect();
        let recall = recall_at_k(&found, &truth, k).recall();
        println!("recall@{k}: {recall:.4}");
    }

    if let Some(outp) = opts.str("out") {
        let rows: Vec<Vec<i32>> = found
            .iter()
            .map(|ids| ids.iter().map(|&id| id as i32).collect())
            .collect();
        write_ivecs(Path::new(outp), &rows).map_err(io_err("write results"))?;
        eprintln!("wrote result ids to {outp}");
    }

    if let (Some(path), Some(ring)) = (&trace_out, &trace_ring) {
        let ids: Vec<u64> = (0..queries.len())
            .map(|qi| trace_id_for(spec.seed, qi as u64))
            .collect();
        write_trace_lines(path, &collect_traces(ring, &ids))?;
        eprintln!("wrote {} trace lines to {}", ids.len(), path.display());
    }
    Ok(())
}

/// Writes traces as JSON lines: one compact document per line.
fn write_trace_lines(path: &Path, traces: &[metrics::Json]) -> Result<(), String> {
    let mut out = String::with_capacity(traces.len() * 256);
    for t in traces {
        out.push_str(&t.to_compact_string());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(io_err("write trace-out"))
}

/// Scrapes a live serve-node's observability snapshot — identity card,
/// server-side transport counters, retained span buffer — over one
/// `StatsRequest` frame and prints it as JSON.
fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let addr: NodeAddr = opts.required("node")?.parse()?;
    let timeout_ms: u64 = opts.num("timeout-ms", 5_000)?;
    let transport = SocketTransport::connect(addr.clone())
        .map_err(|e| format!("{addr}: {e}"))?
        .with_timeout(std::time::Duration::from_millis(timeout_ms.max(1)));
    match transport
        .exchange(&Message::StatsRequest)
        .map_err(|e| format!("{addr}: {e}"))?
    {
        Message::StatsResponse(stats) => {
            if opts.flag("openmetrics") {
                // Re-expose the scrape through a private registry so the
                // node's counters come out in collector-ready exposition
                // format (spans are a trace payload, not a metric family).
                let json = stats.to_json();
                let registry = metrics::MetricsRegistry::new();
                for section in ["info", "transport", "profile"] {
                    let value = json.get(section).cloned().unwrap_or(metrics::Json::Null);
                    registry.register_source(&format!("node.{section}"), move || value.clone());
                }
                print!("{}", registry.render_openmetrics());
            } else {
                print!("{}", stats.to_json().to_pretty_string());
            }
            Ok(())
        }
        Message::Error(fault) => Err(format!(
            "{addr}: node refused the stats scrape: {}",
            fault.message
        )),
        other => Err(format!(
            "{addr}: node answered the stats scrape with a {} frame",
            other.kind_name()
        )),
    }
}

/// Diffs two `BENCH_*.json` reports as the CI regression sentinel: the two
/// must be equal, and any difference exits nonzero with every divergent
/// path listed. A report holds no timing — `benchmark/` is the only
/// stopwatch.
fn cmd_bench_diff(opts: &Opts) -> Result<(), String> {
    let old_path = opts.path("old")?;
    let new_path = opts.path("new")?;
    let load = |path: &Path| -> Result<metrics::Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = metrics::Json::parse(&text)
            .map_err(|e| format!("{} does not parse as JSON: {e}", path.display()))?;
        metrics::BenchReport::validate(&json)
            .map_err(|e| format!("{} fails the BENCH schema: {e}", path.display()))?;
        Ok(json)
    };
    let old = load(&old_path)?;
    let new = load(&new_path)?;
    let mut diffs = Vec::new();
    diff_structural(&old, &new, "$", &mut diffs);
    if diffs.is_empty() {
        println!(
            "bench-diff: {} and {} agree exactly",
            old_path.display(),
            new_path.display()
        );
        return Ok(());
    }
    for d in &diffs {
        eprintln!("bench-diff: {d}");
    }
    Err(format!(
        "{} difference(s) between {} and {}",
        diffs.len(),
        old_path.display(),
        new_path.display()
    ))
}

/// Recursive exact comparison of two reports, recording every divergent
/// JSON path.
fn diff_structural(old: &metrics::Json, new: &metrics::Json, path: &str, diffs: &mut Vec<String>) {
    use metrics::Json;
    match (old, new) {
        (Json::Obj(po), Json::Obj(_)) => {
            for (key, vo) in po {
                match new.get(key) {
                    Some(vn) => diff_structural(vo, vn, &format!("{path}.{key}"), diffs),
                    None => diffs.push(format!("{path}.{key}: missing from the new report")),
                }
            }
            if let Json::Obj(pn) = new {
                for (key, _) in pn {
                    if old.get(key).is_none() {
                        diffs.push(format!("{path}.{key}: only in the new report"));
                    }
                }
            }
        }
        (Json::Arr(ao), Json::Arr(an)) => {
            if ao.len() != an.len() {
                diffs.push(format!("{path}: array length {} -> {}", ao.len(), an.len()));
                return;
            }
            for (i, (vo, vn)) in ao.iter().zip(an).enumerate() {
                diff_structural(vo, vn, &format!("{path}[{i}]"), diffs);
            }
        }
        (a, b) => {
            if a != b {
                diffs.push(format!(
                    "{path}: structural value changed: {} -> {}",
                    a.to_pretty_string().replace('\n', " "),
                    b.to_pretty_string().replace('\n', " ")
                ));
            }
        }
    }
}

/// Replays a named scenario workload and writes its `BENCH_*.json`,
/// self-checking the emitted file against the report schema.
fn cmd_scenario(opts: &Opts) -> Result<(), String> {
    use scenario::TopologySpec;

    let name = opts.required("name")?;
    let smoke = opts.flag("smoke");
    let preset = scenario::by_name(name, smoke)?;
    let mut spec = preset.spec.clone();
    spec.seed = opts.num("seed", spec.seed)?;
    if let Some(r) = opts.str("routing") {
        spec.routing = r.parse()?;
    }

    let nodes: Option<Vec<NodeAddr>> = opts
        .str("nodes")
        .map(|csv| csv.split(',').map(str::parse).collect::<Result<_, _>>())
        .transpose()?;
    let topology = if let Some(addrs) = nodes {
        if addrs.is_empty() {
            return Err("--nodes needs at least one address".into());
        }
        for flag in ["shards", "replicas"] {
            if opts.str(flag).is_some() {
                return Err(format!("--{flag} does not combine with --nodes"));
            }
        }
        TopologySpec::Remote {
            nodes: addrs,
            timeout_ms: opts.num("timeout-ms", 5_000u64)?,
        }
    } else {
        let shards: usize = opts.num("shards", 0)?;
        let replicas: usize = opts.num("replicas", 0)?;
        match (shards, replicas) {
            (0, 0) => preset.default_topology.clone(),
            (s, 0) if s <= 1 => TopologySpec::Flat,
            (s, 0) => TopologySpec::Sharded { shards: s },
            (s, r) => TopologySpec::Replicated {
                shards: s.max(1),
                replicas: r.max(1),
            },
        }
    };
    let cache_capacity: usize = opts.num("cache-capacity", preset.default_cache)?;
    let threads: usize = opts.num("threads", 0)?;
    let out = PathBuf::from(
        opts.str("out")
            .map(str::to_string)
            .unwrap_or_else(|| format!("BENCH_{name}.json")),
    );

    eprintln!(
        "scenario {name}{}: {} — topology {}, seed {}...",
        if smoke { " (smoke)" } else { "" },
        preset.stresses,
        topology.label(&spec, cache_capacity),
        spec.seed,
    );
    let trace_out = opts.str("trace-out").map(PathBuf::from);
    let (report, traces) = scenario::ScenarioRunner::new(preset.name, spec, topology)
        .cache_capacity(cache_capacity)
        .threads(threads)
        .run_traced()?;
    let text = report.to_pretty_string();
    std::fs::write(&out, &text).map_err(io_err("write report"))?;
    if let Some(path) = &trace_out {
        write_trace_lines(path, &traces)?;
        eprintln!("wrote {} trace lines to {}", traces.len(), path.display());
    }

    // Self-check: the bytes on disk must parse back and satisfy the
    // BENCH schema, so downstream diff tooling can trust the artifact.
    let reread = std::fs::read_to_string(&out).map_err(io_err("re-read report"))?;
    let json =
        metrics::Json::parse(&reread).map_err(|e| format!("emitted report does not parse: {e}"))?;
    metrics::BenchReport::validate(&json)
        .map_err(|e| format!("emitted report fails schema validation: {e}"))?;

    println!(
        "scenario={} topology={} queries={} recall@{}={:.4}",
        report.scenario, report.topology, report.queries, report.k, report.recall_at_k,
    );
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let path = opts.path("graph")?;
    let graph = graphs::GraphLayers::load(&path).map_err(io_err("read graph"))?;
    println!("topology: {}", path.display());
    println!("  nodes:       {}", graph.len());
    println!("  layers:      {}", graph.max_layer + 1);
    println!("  entry point: {}", graph.entry);
    println!("  base edges:  {}", graph.base_edges());
    println!(
        "  mean degree: {:.2}",
        graph.base_edges() as f64 / graph.len().max(1) as f64
    );
    println!(
        "  adjacency:   {:.1} MB",
        graph.adjacency_bytes() as f64 / 1e6
    );
    Ok(())
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> Opts {
        let args: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Opts::parse(&args).unwrap()
    }

    #[test]
    fn parses_key_value_pairs() {
        let o = opts(&[("n", "500"), ("base", "x.fvecs")]);
        assert_eq!(o.num("n", 0usize).unwrap(), 500);
        assert_eq!(o.required("base").unwrap(), "x.fvecs");
        assert!(o.str("missing").is_none());
        assert_eq!(o.num("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_args() {
        assert!(Opts::parse(&["n".into()]).is_err(), "missing --");
        assert!(Opts::parse(&["--n".into()]).is_err(), "missing value");
        let Err(unknown) = Opts::parse(&["--bogus".into(), "--n".into(), "1".into()]) else {
            panic!("an option no command reads must be rejected");
        };
        assert_eq!(unknown, "unknown option --bogus");
        // Options whose commands are gone are unknown like any other name.
        for retired in ["passes", "pipeline"] {
            let Err(e) = Opts::parse(&[format!("--{retired}"), "2".into()]) else {
                panic!("--{retired} must be rejected");
            };
            assert_eq!(e, format!("unknown option --{retired}"));
        }
        assert!(
            Opts::parse(&["--n".into(), "1".into(), "--n".into(), "2".into()]).is_err(),
            "duplicate option"
        );
    }

    #[test]
    fn boolean_flags_need_no_value() {
        let o = Opts::parse(&["--smoke".into(), "--n".into(), "5".into()]).unwrap();
        assert!(o.flag("smoke"));
        assert_eq!(o.num("n", 0usize).unwrap(), 5);
        let o = Opts::parse(&["--n".into(), "5".into()]).unwrap();
        assert!(!o.flag("smoke"));
        assert!(
            Opts::parse(&["--smoke".into(), "--smoke".into()]).is_err(),
            "duplicate flag"
        );
    }

    #[test]
    fn rejects_bad_numbers_and_profiles() {
        let o = opts(&[("n", "abc")]);
        assert!(o.num("n", 0usize).is_err());
        assert!(profile_by_name("nope").is_err());
        assert!(profile_by_name("laion-like").is_ok());
    }

    #[test]
    fn build_spec_defaults_follow_auto() {
        let o = opts(&[]);
        let spec = BuildSpec::from_opts(&o).unwrap();
        assert_eq!(spec.graph_kind, GraphKind::Hnsw);
        assert_eq!(spec.coding, Coding::Flash);
        // df/mf are unset: the auto defaults apply at build time.
        assert_eq!(spec.d_f, None);
        assert_eq!(spec.m_f, None);
    }

    #[test]
    fn unknown_method_fails_before_any_io() {
        // Validation happens at option-parse time, not deep in execution,
        // and the error names the accepted set.
        let o = opts(&[("method", "bogus")]);
        let err = BuildSpec::from_opts(&o).unwrap_err();
        assert!(err.contains("unknown method"), "{err}");
        assert!(
            err.contains("nsg"),
            "error must list accepted methods: {err}"
        );
        let o = opts(&[("method", "nsg:bogus")]);
        assert!(BuildSpec::from_opts(&o).is_err());
    }

    /// A report-shaped document with structural fields at every depth.
    const REPORT: &str = r#"{
        "queries": 10,
        "profile": {"hops_base": 7, "dist_coded": 90},
        "trace": {"spans": {"route": 3}},
        "tenants": [{"tenant": 0, "queries": 10}]
    }"#;

    /// `diff_structural` between [`REPORT`] and a copy with `from` replaced
    /// by `to`.
    fn diffs_after(from: &str, to: &str) -> Vec<String> {
        diffs_in(REPORT, from, to)
    }

    /// `diff_structural` between `doc` and a copy with `from` replaced by `to`.
    fn diffs_in(doc: &str, from: &str, to: &str) -> Vec<String> {
        assert!(doc.contains(from), "{from}");
        let old = metrics::Json::parse(doc).unwrap();
        let new = metrics::Json::parse(&doc.replace(from, to)).unwrap();
        let mut diffs = Vec::new();
        diff_structural(&old, &new, "$", &mut diffs);
        diffs
    }

    #[test]
    fn bench_diff_is_exact_on_structure_and_names_the_path() {
        assert!(diffs_after("10", "10").is_empty(), "equal reports agree");
        for (from, to, path) in [
            // A changed counter.
            (
                r#""hops_base": 7"#,
                r#""hops_base": 8"#,
                "$.profile.hops_base:",
            ),
            // A missing key, an extra key.
            (r#", "dist_coded": 90"#, "", "$.profile.dist_coded: missing"),
            (
                r#""route": 3"#,
                r#""route": 3, "gather": 1"#,
                "$.trace.spans.gather: only in",
            ),
            // A timing leaf is a key like any other: reported, not skipped.
            (
                r#""queries": 10,"#,
                r#""queries": 10, "qps": 100.5,"#,
                "$.qps: only in the new report",
            ),
            // An array that grew: reported once, at the array.
            (
                r#""queries": 10}]"#,
                r#""queries": 10}, {"tenant": 1, "queries": 0}]"#,
                "$.tenants: array length 1 -> 2",
            ),
            // A structural field inside an array element.
            (r#""tenant": 0"#, r#""tenant": 1"#, "$.tenants[0].tenant:"),
        ] {
            let diffs = diffs_after(from, to);
            assert_eq!(diffs.len(), 1, "{from} -> {to}: {diffs:?}");
            assert!(diffs[0].starts_with(path), "{} !~ {path}", diffs[0]);
        }
    }

    /// Every wall-clock leaf a report carried before schema v5: should one
    /// come back, a changed value is a divergence like any other.
    #[test]
    fn bench_diff_compares_former_timing_leaves_exactly() {
        const TIMED: &str = r#"{
            "qps": 100.5,
            "wall_seconds": 0.25,
            "latency_ms": {"p50": 1.0},
            "trace": {"stage_ms": {"route": 0.5}, "lines": [{"elapsed_ns": 5}]}
        }"#;
        for (from, to, path) in [
            (r#""qps": 100.5"#, r#""qps": 1.0"#, "$.qps:"),
            (
                r#""wall_seconds": 0.25"#,
                r#""wall_seconds": 900.0"#,
                "$.wall_seconds:",
            ),
            (r#""p50": 1.0"#, r#""p50": 99.0"#, "$.latency_ms.p50:"),
            (
                r#""route": 0.5"#,
                r#""route": 77.0"#,
                "$.trace.stage_ms.route:",
            ),
            (
                r#""elapsed_ns": 5"#,
                r#""elapsed_ns": 5000000"#,
                "$.trace.lines[0].elapsed_ns:",
            ),
        ] {
            let diffs = diffs_in(TIMED, from, to);
            assert_eq!(diffs.len(), 1, "{from} -> {to}: {diffs:?}");
            assert!(diffs[0].starts_with(path), "{} !~ {path}", diffs[0]);
        }
    }

    #[test]
    fn combined_method_strings_parse() {
        let o = opts(&[("method", "vamana:flash")]);
        let spec = BuildSpec::from_opts(&o).unwrap();
        assert_eq!(spec.graph_kind, GraphKind::Vamana);
        assert_eq!(spec.coding, Coding::Flash);
    }
}
