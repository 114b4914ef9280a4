//! # hnsw-flash
//!
//! A Rust reproduction of **"Accelerating Graph Indexing for ANNS on Modern
//! CPUs"** (SIGMOD 2025): the **Flash** compact coding strategy and
//! access-aware memory layout that speed up HNSW/NSG/τ-MG construction by
//! an order of magnitude, plus every baseline and substrate the paper's
//! evaluation depends on — all served through one engine API.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | Module | Contents |
//! |---|---|
//! | [`engine`] | **the serving API**: `AnnIndex`, `SearchRequest`/`SearchResponse`, `IndexBuilder`, `GraphKind` × `Coding` |
//! | [`serving`] | **the query runtime**: `ShardedIndex` scatter-gather, `ReplicaGroup` failover routing, batched `search_batch` fan-out, `QueryCache`, `FaultPlan` injection, cross-process nodes (`serving::distributed`) |
//! | [`scenario`] | **the workload harness**: seeded `WorkloadSpec` → deterministic event streams (Zipf, diurnal, churn, fault storms), `ScenarioRunner` over any topology, `BENCH_*.json` reports |
//! | [`flash`] | the paper's contribution: `FlashCodec`, `FlashProvider`, `FlashHnsw` |
//! | [`graphs`] | generic HNSW, NSG, τ-MG, Vamana, HCNNG; filtered search; ADSampling & VBase search variants |
//! | [`quantizers`] | PQ / SQ / PCA baselines, OPQ, + the Theorem-1 reliability estimator |
//! | [`maintenance`] | LSM lifecycle: memtable, Flash segments, tombstones, rebuild |
//! | [`vecstore`] | datasets, generators, `fvecs` I/O, ground truth |
//! | [`simdops`] | runtime-dispatched SIMD kernels (SSE/AVX2/AVX-512) |
//! | [`metrics`] | recall, ADR, QPS; request tracing (`TraceContext`/`SpanRing`) and the named metrics registry |
//! | [`cachesim`] | the software cache model used for the memory ablations |
//! | [`linalg`] | dense matrices, covariance, Jacobi eigendecomposition |
//!
//! ## Quickstart
//!
//! Pick a graph algorithm and a coding method, build, and search — every
//! combination serves through the same [`engine::AnnIndex`] trait object.
//! The model is **freeze-then-serve**: `build` runs construction to the
//! end, freezes the adjacency into cache-line-aligned CSR
//! ([`graphs::GraphLayers`]) and drops the builder's per-node state, so
//! what answers queries is always a provider + frozen topology pair
//! behind one beam ([`graphs::search_layers_filtered`]):
//!
//! ```
//! use hnsw_flash::prelude::*;
//!
//! // Synthetic stand-in for an embedding dataset (see `vecstore::gen`).
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 1_000, 10, 7);
//!
//! // Build HNSW through Flash codes: PCA → 4-bit subspace codewords →
//! // register-resident distance tables.
//! let index = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
//!     .c(96)
//!     .r(12)
//!     .seed(1)
//!     .build(base);
//!
//! // Search with exact reranking on the original vectors.
//! let response = index.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert_eq!(response.hits.len(), 5);
//! ```
//!
//! An index that is still ingesting stays a [`graphs::Hnsw`]: `insert`
//! adds vertices, `Hnsw::search` answers from the live graph, and
//! [`engine::GraphIndex::new`] freezes it once the batch is done (see
//! `examples/streaming_add.rs`).
//!
//! ## Sharded serving
//!
//! For heavy traffic, wrap the same builder in the [`serving`] runtime:
//! partition the dataset across shards searched by a worker-thread pool,
//! put a result cache in front, and serve batches through
//! `AnnIndex::search_batch`, which fans each batch's `(request × shard)`
//! grid out at once (see `examples/sharded_serving.rs`):
//!
//! ```
//! use hnsw_flash::prelude::*;
//! use std::sync::Arc;
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 1_000, 10, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(96).r(12).seed(1);
//!
//! // 4 shards searched 4 threads wide, 1 024 cached responses — still an AnnIndex.
//! let sharded = ShardedIndex::build(base, &builder, 4, ShardPolicy::RoundRobin, 4);
//! let index: Arc<dyn AnnIndex> = Arc::new(CachedIndex::new(Arc::new(sharded), 1_024));
//!
//! let requests: Vec<SearchRequest> = (0..queries.len())
//!     .map(|qi| SearchRequest::new(queries.get(qi), 5).ef(64).rerank(8))
//!     .collect();
//! let responses: Vec<SearchResponse> = requests
//!     .chunks(8)
//!     .flat_map(|batch| index.search_batch(batch))
//!     .collect();
//! assert_eq!(responses.len(), queries.len());
//! ```
//!
//! ## Replicated serving with failover
//!
//! To survive replica loss, build R copies of every shard behind failover
//! routing: the coding codec is trained **once** on the full corpus and
//! shared by every shard × replica, construction is deterministic, so the
//! copies are bit-identical — and a replica failure is transparently
//! retried on a sibling with *identical* results. Failed replicas are
//! marked down after [`serving::HealthConfig::error_threshold`]
//! consecutive errors and probed back with live traffic after
//! `probe_after` calls; every transition bumps a generation you can sync
//! into a `QueryCache` (see `examples/replicated_serving.rs`):
//!
//! ```
//! use hnsw_flash::prelude::*;
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 1_000, 10, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(96).r(12).seed(1);
//!
//! // 4 shards x 2 replicas, round-robin routing, 4 threads wide.
//! let fleet = ReplicatedIndex::build(
//!     base,
//!     &builder,
//!     4,
//!     2,
//!     ShardPolicy::RoundRobin,
//!     RoutingPolicy::RoundRobin,
//!     HealthConfig::default(),
//!     4,
//! );
//! let response = fleet.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert_eq!(response.hits.len(), 5);
//! let stats = fleet.failover_stats(); // retries / mark-downs / probes
//! assert_eq!(stats.markdowns, 0);
//! ```
//!
//! Routing policies ([`serving::RoutingPolicy`]):
//!
//! | Policy | Placement | Use when |
//! |---|---|---|
//! | `Primary` | Lowest-indexed healthy replica; siblings are failover spares | Warm caches matter more than spreading load |
//! | `RoundRobin` | Rotate across healthy replicas call by call | Uniform load, uniform replicas (the default in `flash_cli`) |
//! | `LoadAware` | Healthy replica with the least accumulated search latency | Heterogeneous or intermittently slow replicas |
//!
//! Faults are injected deterministically for tests and demos via
//! [`serving::FaultPlan`] (error-on-Nth-call, latency spikes, permanent
//! death, scripted recovery) wrapped around any index with
//! [`serving::FaultyIndex`]; `tests/replication.rs` proves bit-identical
//! failover for every routing policy with each replica killed in turn.
//!
//! ## Distributed serving
//!
//! Shards and replicas can live in **other processes**
//! ([`serving::distributed`]): a node hosts any `AnnIndex` behind a
//! socket ([`serving::EventServer`], or `flash_cli serve-node`), and the
//! coordinator's [`serving::RemoteIndex`] client implements both
//! `AnnIndex` *and* [`serving::FallibleIndex`] — so remote nodes compose
//! under the existing `ShardedIndex` / `ReplicaGroup` / `CachedIndex`
//! stack unchanged, and a node crash is handled by the same mark-down +
//! probed-recovery path as a local fault (the probe re-dials, so a
//! restarted node rejoins by itself). The wire protocol is versioned,
//! length-prefixed, checksummed, explicit little-endian; predicate
//! filters don't cross the wire (closures have no byte form — label
//! filters do).
//!
//! Node side (one process per shard or replica):
//!
//! ```no_run
//! use hnsw_flash::prelude::*;
//! use hnsw_flash::serving::distributed::{EventConfig, EventServer, NodeAddr, NodeHandler};
//! use std::sync::Arc;
//!
//! # let (base, _) = generate(&DatasetProfile::SsnppLike.spec(), 1_000, 1, 7);
//! let index: Arc<dyn AnnIndex> =
//!     Arc::from(IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).seed(1).build(base));
//! let server = EventServer::bind(
//!     &"tcp:0.0.0.0:4810".parse::<NodeAddr>().unwrap(),
//!     NodeHandler::new(index),
//!     EventConfig::default(), // 2 readiness loops, any number of connections
//! ).expect("bind");
//! println!("serving on {}", server.addr());
//! ```
//!
//! Coordinator side — remote nodes under the unchanged serving stack
//! (shown with the in-memory loopback transport; swap in
//! [`serving::SocketTransport`]`::connect("tcp:host:4810".parse()?)` for
//! real sockets, see `examples/distributed_serving.rs`):
//!
//! ```
//! use hnsw_flash::prelude::*;
//! use hnsw_flash::serving::distributed::{LoopbackTransport, NodeHandler, RemoteIndex};
//! use std::sync::Arc;
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 600, 4, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(48).r(8).seed(1);
//!
//! // One "remote" node per shard (same codec + partition as the nodes).
//! let codec = builder.train_codec(&base);
//! let parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> =
//!     ShardedIndex::partition(&base, 2, ShardPolicy::RoundRobin)
//!         .into_iter()
//!         .map(|(set, ids)| {
//!             let node: Arc<dyn AnnIndex> = Arc::from(builder.build_with_codec(set, &codec));
//!             let transport = Arc::new(LoopbackTransport::new(NodeHandler::new(node)));
//!             let remote = RemoteIndex::connect(transport).expect("handshake");
//!             (Box::new(remote) as Box<dyn AnnIndex>, ids)
//!         })
//!         .collect();
//! let coordinator = ShardedIndex::from_parts(
//!     parts,
//!     ShardPolicy::RoundRobin,
//!     Arc::new(WorkerPool::new(2)),
//! );
//! let response = coordinator.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert_eq!(response.hits.len(), 5);
//! ```
//!
//! Transports ([`serving::distributed::Transport`]):
//!
//! | Transport | Reaches | Use when |
//! |---|---|---|
//! | [`serving::LoopbackTransport`] | This process (full codec round-trip, zero I/O) | Tests, demos, deterministic fault drills |
//! | [`serving::SocketTransport`] + `unix:/path.sock` | Another process on this host | Lowest-overhead local fleets |
//! | [`serving::SocketTransport`] + `tcp:host:port` | Another machine | Real distribution |
//!
//! For replica fault tolerance across processes, put one `RemoteIndex`
//! per replica node into a [`serving::ReplicaGroup`] per shard (the
//! `examples/distributed_serving.rs` demo kills a node mid-run and the
//! results don't change); `flash_cli search --nodes a,b,...` drives the
//! one-node-per-shard layout from the command line.
//!
//! ## Serving under load
//!
//! [`serving::EventServer`] is the one socket server, behind
//! `flash_cli serve-node` and every test and demo: each of
//! [`serving::EventConfig::threads`] readiness loops multiplexes *all* of
//! its connections over non-blocking sockets and blocks in `poll(2)` when
//! none is ready (no timer between a request and its reply), so one loop
//! serves any number of clients — slow clients park no thread — and a
//! connection can keep many frames in flight (pipelining), answered in
//! request order. A strict request/response coordinator
//! ([`serving::SocketTransport`]) is a pipeline of depth 1. A coordinator's
//! fan-out runs on the workspace's one `rayon` pool, as wide as its
//! [`serving::WorkerPool`] says: the calling thread runs the first shard's
//! exchange itself, and parked `rayon-helper` threads, woken at once, run
//! the others.
//!
//! Parsed requests enter a per-loop admission queue that executes as an
//! adaptive batch — closing on size (`batch_max`) **or** age
//! (`batch_deadline`), whichever comes first. Two knobs bound the queue:
//!
//! * `client_quota` — per-connection in-flight cap; past it the loop
//!   simply stops reading that socket, and TCP backpressure slows the
//!   sender (no frames are dropped).
//! * `queue_deadline` — admission deadline; a request still queued past
//!   it is **shed** with an `Overloaded` error frame instead of being
//!   served late.
//!
//! `Overloaded` maps to [`serving::FaultKind::Transient`] on the client,
//! so a [`serving::ReplicaGroup`] retries a shed request on a sibling —
//! sustained shedding marks the replica down and probes it back, the
//! same path a crash takes. Under overload every submitted frame is
//! answered — results or `Overloaded`, never silence. Admission is
//! observable end to end: [`serving::EventServer::admission_stats`]
//! counts admitted/shed, the registry exports
//! `serving.frontend.{admitted,shed,queue_depth,admission_wait_ns,wakeups}`, a
//! traced request that queued records a `queue_wait` span, and
//! `flash_cli bench-serve` floods an under-provisioned server from the
//! command line (every request answered or shed, `/metrics` scrapeable
//! meanwhile, `/healthz` degraded after) — it times nothing: serving speed
//! is `serve_zipf_stack` in `benchmark/`, pipelined wire parity is
//! `tests/distributed.rs`. The `overload` scenario
//! replays the same policy in virtual time, so its
//! admitted/shed/retried counters are byte-reproducible across runs.
//!
//! ## Scenario benchmarking
//!
//! Point benchmarks answer "how fast is a search"; the [`scenario`]
//! harness answers "how does the whole serving stack behave under
//! realistic traffic, and did this commit change that". A
//! [`scenario::WorkloadSpec`] lowers a seed into a deterministic event
//! stream — Zipf-skewed query popularity over a pool, Poisson arrivals
//! shaped steady/diurnal/bursty, labeled and predicate-filtered queries,
//! multi-tenant attribution, interleaved LSM insert/delete bursts, and
//! scripted replica fault storms — and [`scenario::ScenarioRunner`]
//! replays it against any topology (flat, sharded, replicated, cached,
//! remote nodes), checks a sampled query subset against a brute-force
//! oracle over the *live* vector set, and emits a `metrics::BenchReport`.
//!
//! The named catalog ([`scenario::SCENARIO_NAMES`], also
//! `flash_cli scenario --name <id> [--smoke]`):
//!
//! | Scenario | Stresses | Key metric |
//! |---|---|---|
//! | `steady_zipf` | sharded fan-out + `QueryCache` under Zipf-skewed popularity | cache hit rate |
//! | `diurnal_burst` | batched search through trough-to-peak diurnal swings | span + profile counts under diurnal arrivals |
//! | `churn_lsm` | LSM overlay merge + cache generation invalidation under churn | recall\@k under churn |
//! | `fault_storm` | replica markdown, probing, recovery (replica 0 survives) | recall parity + failover counters |
//! | `overload` | admission control: bursty queueing, deadline shedding, `Overloaded` retries | admitted/shed/retried counters |
//!
//! Each run writes `BENCH_<scenario>.json` with a stable schema:
//! `schema_version`, `scenario`, `seed`, `topology`, `config` (the spec
//! echo), `queries`, `recall` (`k`/`samples`/`recall_at_k`), `cache`
//! (hits/misses/uncacheable), `failover` (retries/markdowns/probes/
//! recoveries), `transport` (frames/bytes/timeouts), `admission`
//! (submitted/admitted/shed/retried/max_depth), `trace` (span counts),
//! `profile` (structural cost counters), `slo`, `mutations`, and
//! per-tenant query counts. The report records no wall-clock
//! measurement, so identical seed + topology reproduces the whole file
//! byte-for-byte, and `flash_cli bench-diff` compares two reports exactly,
//! listing every divergent `$.path`. A speed statement comes from
//! `benchmark/`.
//!
//! ```
//! use hnsw_flash::prelude::*;
//!
//! // A tiny custom workload; `scenario::by_name("steady_zipf", true)`
//! // gives the catalog presets instead.
//! let mut spec = WorkloadSpec::base(42);
//! spec.base_n = 300;
//! spec.ticks = 4;
//! spec.arrival = ArrivalShape::Steady { rate: 10.0 };
//! spec.build_c = 32;
//!
//! let report = ScenarioRunner::new("demo", spec, TopologySpec::Flat)
//!     .cache_capacity(64)
//!     .run()
//!     .unwrap();
//! let json = metrics::Json::parse(&report.to_pretty_string()).unwrap();
//! metrics::BenchReport::validate(&json).unwrap();
//! assert!(report.queries > 0);
//! assert_eq!(json, report.to_json());
//! ```
//!
//! ## Observability
//!
//! The stack traces itself deterministically: attach a
//! [`metrics::TraceContext`] to a [`engine::SearchRequest`] and every
//! serving layer the request crosses records typed spans into a
//! lock-free [`metrics::SpanRing`] — trace ids derive from
//! `(seed, sequence)` via [`metrics::trace_id_for`], never from the
//! clock, so two identically-seeded runs produce byte-identical span
//! structure (only `elapsed_ns` differs).
//!
//! The span taxonomy, one layer per row:
//!
//! | Span | Recorded by | Payload |
//! |---|---|---|
//! | `cache_lookup` | [`serving::CachedIndex`] | `hit` |
//! | `route` | [`serving::ReplicaGroup`] | `candidates` planned |
//! | `replica_attempt` | [`serving::ReplicaGroup`] | `replica`, `outcome` (`ok`/`transient`/`dead`/`malformed`) |
//! | `shard_fanout` | [`serving::ShardedIndex`] | `shards` |
//! | `gather` | [`serving::ShardedIndex`] | `merged` candidates |
//! | `rerank` | scenario runner / CLI | full-precision `pool` size |
//! | `wire_exchange` | [`serving::distributed::Transport`] + node | exact `bytes_out` / `bytes_in` |
//! | `queue_wait` | [`serving::EventServer`] admission queue / scenario runner | queue `depth` at enqueue |
//!
//! Spans carry a *lane* (`None` = coordinator strand, `Some(shard)` =
//! that shard's strand) so concurrent fan-out still folds into one
//! canonical order. Across the wire, the frame header carries the trace
//! id, the node records its own `wire_exchange` spans into its ring,
//! and a `Message::StatsRequest` scrape (`flash_cli stats --node
//! <addr>`) returns them with the node's transport ledger for stitching.
//!
//! ```
//! use hnsw_flash::prelude::*;
//! use std::sync::Arc;
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 600, 4, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(48).r(8).seed(1);
//! let sharded = ShardedIndex::build(base, &builder, 2, ShardPolicy::RoundRobin, 2);
//! let index = CachedIndex::new(Arc::new(sharded), 64);
//!
//! // One ring per process (or per run); one context per request.
//! let ring = Arc::new(SpanRing::new(1024));
//! let id = trace_id_for(42, 0); // (seed, sequence) — no wall clock
//! let req = SearchRequest::new(queries.get(0), 5)
//!     .ef(64)
//!     .rerank(8)
//!     .trace(TraceContext::new(Arc::clone(&ring), id));
//! assert_eq!(index.search(&req).hits.len(), 5);
//!
//! // The spans tell the request's story: a cache miss fanned out to
//! // both shards, whose candidates were gathered and merged.
//! let spans = ring.for_trace(id);
//! assert!(spans.iter().any(|s| matches!(s.kind, SpanKind::CacheLookup { hit: false })));
//! assert!(spans.iter().any(|s| matches!(s.kind, SpanKind::ShardFanout { shards: 2 })));
//! assert!(spans.iter().any(|s| matches!(s.kind, SpanKind::Gather { .. })));
//!
//! // Live named metrics: `layer.component.metric` names, JSON snapshot.
//! let registry = MetricsRegistry::global();
//! registry.counter("docs.example.requests").inc();
//! assert!(registry.names().iter().any(|n| n == "docs.example.requests"));
//! assert!(registry.snapshot().to_pretty_string().contains("docs.example.requests"));
//! ```
//!
//! Registry names follow `layer.component.metric` (dotted lower-snake,
//! e.g. `serving.cache.query_cache`, `serving.replica.failover`,
//! `scenario.trace.ring`); [`scenario::ScenarioRunner`] publishes its
//! stack's live counters under those names on every run, and
//! [`metrics::MetricsRegistry::register_source`] adopts any existing
//! stats object without changing its type.
//!
//! From the command line: `flash_cli search … --trace-out spans.jsonl`
//! and `flash_cli scenario --name steady_zipf --trace-out spans.jsonl`
//! write one compact JSON span tree per query;
//! `flash_cli stats --node tcp:host:4810` scrapes a live node's
//! info/transport/span snapshot. `BENCH_*.json` reports carry a `trace`
//! summary (span counts structural, per-stage milliseconds
//! timing-stripped).
//!
//! ### Query cost profiles
//!
//! Every [`engine::SearchResponse`] carries a
//! [`metrics::QueryProfile`]: structural counters of the work done to
//! serve that request, accumulated branchlessly inside the pooled
//! search scratch, deterministic per `(seed, topology)`. The glossary:
//!
//! | Counter | Counts |
//! |---|---|
//! | `hops_upper` | node expansions above the base layer (greedy descent) |
//! | `hops_base` | node expansions in the base-layer beam |
//! | `dist_coded` | distance evaluations through a coded provider (PQ/SQ/PCA/OPQ/Flash) |
//! | `dist_exact` | full-precision distance evaluations begun (flat scans, rerank; a bounded rerank evaluation may stop early) |
//! | `rows_scored` | neighbor-block rows scored by the block kernel |
//! | `codeword_bytes` | codeword bytes read: payload blocks scored whole, plus the packed code rows of gathered ids |
//! | `visited_inserts` | visited-set insertions (frontier pressure) |
//! | `rerank_pool` | candidates re-scored at full precision |
//! | `scratch_checkouts` | pooled scratch checkouts (1 per frozen-graph search) |
//!
//! Leaf indexes measure; every aggregating layer —
//! [`serving::ShardedIndex`], [`serving::ReplicaGroup`],
//! [`serving::distributed::RemoteIndex`] (the nine counters ride the
//! wire next to the hits) — *sums* the profiles of the leaf searches it
//! fanned out to, and a [`serving::CachedIndex`] hit reports an
//! all-zero profile, so a coordinator's aggregate reconciles exactly
//! with the node-side ledgers ([`serving::distributed::NodeStats`]
//! `profile`, summed over every search a node served):
//!
//! ```
//! use hnsw_flash::prelude::*;
//! use std::sync::Arc;
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 600, 2, 7);
//! let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash).c(48).r(8).seed(1);
//! let sharded = ShardedIndex::build(base, &builder, 2, ShardPolicy::RoundRobin, 2);
//! let index = CachedIndex::new(Arc::new(sharded), 64);
//!
//! // The cache miss pays the graph walk, and its profile proves it...
//! let miss = index.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert!(miss.profile.hops_base > 0, "a real search hops the base layer");
//! assert!(miss.profile.dist_coded + miss.profile.dist_exact > 0);
//!
//! // ...while the repeat is served from memory with an all-zero
//! // profile, keeping coordinator sums equal to node-side work.
//! let hit = index.search(&SearchRequest::new(queries.get(0), 5).ef(64).rerank(8));
//! assert_eq!(hit.profile, hnsw_flash::metrics::QueryProfile::new());
//! ```
//!
//! ### The scrape plane and SLO guardrails
//!
//! `flash_cli serve-node … --metrics-addr 127.0.0.1:9100` opens an HTTP
//! responder ([`serving::distributed::ScrapeServer`]) next to the wire
//! listener. `GET /metrics` renders the process registry in OpenMetrics
//! text exposition (counters as `_total` families, log₂ histograms as
//! cumulative `le` buckets, `# EOF` terminated), `/healthz` answers
//! `200 ok` / `503 degraded`, `/varz` dumps the node's stats snapshot:
//!
//! ```text
//! $ curl -s http://127.0.0.1:9100/metrics
//! # TYPE graphs_scratch_checkouts gauge
//! # HELP graphs_scratch_checkouts graphs.scratch.checkouts
//! graphs_scratch_checkouts 4096
//! # TYPE node_profile_dist_coded gauge
//! ...
//! # EOF
//! $ curl -s http://127.0.0.1:9100/healthz
//! ok
//! ```
//!
//! The names a scrape can rely on, `layer.component.metric` dotted (the
//! exposition sanitizes dots to underscores):
//!
//! | Name | Source |
//! |---|---|
//! | `graphs.scratch.{created,checkouts}` | pooled-scratch lifetime counters ([`graphs::scratch_stats`]) |
//! | `node.profile.*` | the node's cumulative [`metrics::QueryProfile`] ledger |
//! | `node.transport.*` | node-side frame/byte counters (reconcile against `StatsRequest`) |
//! | `serving.frontend.{admitted,shed,queue_depth,admission_wait_ns,wakeups}` | [`serving::EventServer`] admission control; returns from its readiness wait |
//! | `serving.cache.query_cache` / `serving.replica.failover` | scenario-run stack sources |
//! | `scenario.trace.dropped` | spans lost to ring wrap (alert when nonzero) |
//! | `scenario.slo` | the last run's [`metrics::SloSummary`] verdict |
//!
//! Health is judged by multi-window burn rates ([`metrics::SloTracker`]
//! on virtual ticks in scenarios, [`metrics::SloGuard`] on wall time in
//! serving): an objective breaches when both its fast- and slow-window
//! error-budget burn exceed their thresholds, which flips `/healthz` to
//! degraded (a node watches its shed fraction) and lands in
//! `BenchReport.slo`. `flash_cli bench-diff --old A.json --new B.json`
//! then gates CI: structural fields exact, timing fields within a ratio
//! band, nonzero exit on regression.
//!
//! ## Memory layout
//!
//! Graph search is memory-bound — the paper's profiles (Table 2, Figure
//! 15) show most cycles stall on cache misses chasing neighbor lists and
//! codes, not arithmetic — so the frozen representation and the search
//! kernels are built around four layout decisions:
//!
//! 1. **CSR adjacency.** Builders ([`graphs::Hnsw`], [`graphs::nsg::build`],
//!    [`graphs::taumg::build`], [`graphs::vamana::build`],
//!    [`graphs::hcnng::build`]) grow nested `Vec<Vec<u32>>` lists — HNSW,
//!    NSG, τ-MG and Vamana through the one batch builder (planned on every
//!    core, applied with the index held mutably, no lock), HCNNG from its
//!    spanning trees — then freeze once into [`graphs::CsrLayer`]s: a flat
//!    pool of 64-byte-aligned cache lines ([`graphs::LINE_U32S`] = 16
//!    neighbor ids per line) plus per-node start/length tables. Every
//!    neighbor list begins on a line boundary, so expanding a node touches
//!    `ceil(degree/16)` lines and never straddles one unnecessarily. Frozen graphs — HNSW's layers, or
//!    a flat builder's one layer — are packed straight from the builder's
//!    rows (or from nested lists via [`graphs::GraphLayers::from_nested`])
//!    and read through `neighbors(layer, node)` — the adjacency fields
//!    themselves are private, so the layout can keep evolving without
//!    breaking callers. While it builds, HNSW keeps its rows at the paper's
//!    access-aware layout: layer 0 is one slab of fixed-stride records,
//!    each a row's length, `2R` id slots and the payload block for them
//!    (Flash: the neighbors' codewords), indexed by node id.
//!
//! 2. **Pooled, allocation-free traversal state.** Each query — and each
//!    insert a batch plans or applies — checks a `SearchScratch` out of a
//!    thread-local pool instead of allocating a visited map, heaps and
//!    work lists per call: the visited set is epoch-stamped (clearing is a
//!    counter bump, not a memset), one `Beam` holds the result set and the
//!    frontier as
//!    two heaps of packed `u64` keys (distance image in the high half,
//!    id in the low, so a heap step is one integer compare and the
//!    `(dist, id)` tie order is exactly that of the tuple heaps it
//!    replaced), and the block-score buffers — for an insert also its
//!    candidate, selected and prune lists and the block Neighbor
//!    Selection builds — are reused across calls.
//!    [`graphs::scratch_stats`] exposes `created`/`checkouts` counters
//!    for queries (construction is not counted); in steady state
//!    `created` stays flat while `checkouts` climbs — the zero-allocation
//!    property the test suite asserts directly.
//!
//! 3. **Batched, branch-free expansion with prefetch.** Kernels score a
//!    neighbor line in one [`graphs::DistanceProvider::dist_to_neighbors`]
//!    call instead of per-neighbor `dist_to` calls. A serving expansion
//!    gathers its unvisited neighbors without a branch per lane and scores
//!    them against no block (Flash: table lookups straight on the packed
//!    code rows); construction scores the row record's resident block
//!    (register-resident `lut16_batch` shuffles), or, for a provider
//!    without blocks, gathers like serving. Admission offers only
//!    the lanes a full beam can still take, picked by a 64-lane mask. The
//!    exact rerank after the beam bounds each full-precision distance by
//!    the `k`-th best so far and drops a candidate once its partial sum
//!    passes it.
//!    While a row is scored the kernel prefetches the next frontier
//!    candidate's row — its neighbor line, or its whole row record with
//!    the block — and, when gathering, issues
//!    [`graphs::DistanceProvider::prefetch`] for its codes: the lines are
//!    in flight before the beam arrives. All of this is
//!    bit-exact: the same `(dist, id)` results as the naive loop, enforced
//!    by the parity suites. ([`graphs::NodePayloads`] +
//!    [`graphs::search_layers_cached`], which prebuild every node's
//!    codeword block and score whole rows against it, are measured by the
//!    benchmark's traced run but serve no index.)
//!
//! 4. **Flash codes at the paper's density.** [`flash::FlashProvider`]'s
//!    global code table stores each vector's `M_F` 4-bit codewords two per
//!    byte — `⌈M_F/2⌉` bytes, subspace `2p` in byte `p`'s low nibble,
//!    read through [`flash::nibble`] — which is the size the paper's index
//!    figure counts. The neighbor blocks the kernels shuffle keep one
//!    codeword per byte, so one register load feeds `pshufb`; building a
//!    block spreads each packed byte over its two subspaces' slots.
//!
//! Each of those claims has one home. Results identical to a naive
//! per-neighbor kernel (fresh visited map, fresh heaps, one `dist_to` per
//! neighbor) for all six codings: `tests/freeze_parity.rs`. The
//! zero-allocation steady state: `tests/engine_api.rs` and
//! `tests/csr_properties.rs`. What the kernel costs:
//! `graphs.search_layers_us` on `benchmark/`'s per-layer ladder.
//!
//! ## Construction types and the engine
//!
//! Construction is [`graphs::Hnsw`] (`build`, streaming `insert`,
//! `into_frozen`) or one flat builder function (`graphs::nsg::build`, …,
//! returning the frozen graph directly). Neither carries a search wrapper
//! — every query goes through a [`engine::SearchRequest`]:
//!
//! | Need | Call |
//! |---|---|
//! | build any graph × coding | `IndexBuilder::new(GraphKind::…, Coding::…)…build(base)` |
//! | plain / reranked / filtered search | `SearchRequest::new(q, k).ef(ef)` + `.rerank(f)` / `.filter(accept)` |
//! | VBase / ADSampling traversal | `SearchRequest::new(q, k).vbase(w)` / `.adsampling(AdSamplingOptions::default())` |
//! | per-label specialization | `IndexBuilder…build_labeled(…)` + `SearchRequest::new(q, k).label(label)` |
//! | serve a persisted topology | `IndexBuilder…serve(base, loaded)` |
//! | serve an index built by hand | `GraphIndex::new(hnsw)` / `GraphIndex::from_parts(provider, layers)` |
//! | the kernel itself, no engine | `graphs::search_layers(frozen.provider(), frozen.layers(), q, k, ef)` |
//!
//! [`graphs::GraphLayers`] values are made with `from_nested` and read
//! through the `neighbors()` accessors; the CSR layout described under
//! [Memory layout](#memory-layout) is private.

pub use cachesim;
pub use engine;
pub use flash;
pub use graphs;
pub use linalg;
pub use maintenance;
pub use metrics;
pub use quantizers;
pub use scenario;
pub use serving;
pub use simdops;
pub use vecstore;

/// The most common imports in one place.
pub mod prelude {
    pub use engine::{
        parse_method, AdSamplingOptions, AnnIndex, Coding, FlatIndex, GraphKind, Hit, IndexBuilder,
        SearchRequest, SearchResponse, TrainedCodec,
    };
    pub use flash::{
        tune_flash_params, BuildFlash, FlashCodec, FlashHnsw, FlashParams, FlashProvider,
        TuneOptions, TuneOutcome,
    };
    pub use graphs::providers::{FullPrecision, OpqProvider, PcaProvider, PqProvider, SqProvider};
    pub use graphs::{
        hcnng, nsg, taumg, vamana, DistanceProvider, HcnngParams, Hnsw, HnswParams, LabeledHnsw,
        LabeledParams, NsgParams, TauMgParams, VamanaParams,
    };
    pub use maintenance::{CycleWorkload, LsmConfig, LsmVectorIndex};
    pub use metrics::{
        average_distance_ratio, collect_traces, measure_qps, recall_at_k, trace_id_for,
        BenchReport, MetricsRegistry, SpanKind, SpanRecord, SpanRing, TraceContext,
    };
    pub use quantizers::{
        comparison_reliability, OptimizedProductQuantizer, PcaCodec, ProductQuantizer,
        ScalarQuantizer,
    };
    pub use scenario::{
        AdmissionSpec, ArrivalShape, FaultStorm, Scenario, ScenarioCorpus, ScenarioRunner,
        TopologySpec, WorkloadSpec,
    };
    pub use serving::{
        AdmissionStats, CachedIndex, EventConfig, EventServer, FallibleIndex, FaultError,
        FaultKind, FaultPlan, FaultyIndex, HealthConfig, LoopbackTransport, NodeAddr, NodeHandler,
        NodeInfo, NodeStats, QueryCache, RemoteIndex, ReplicaGroup, ReplicatedIndex, Router,
        RoutingPolicy, ShardPolicy, ShardedIndex, SocketTransport, Transport, WorkerPool,
    };
    pub use simdops::{set_level_override, SimdLevel};
    pub use vecstore::{generate, ground_truth, DatasetProfile, DatasetSpec, VectorSet};
}
