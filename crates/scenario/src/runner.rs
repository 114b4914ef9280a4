//! Drives a workload's event stream against a serving topology.
//!
//! [`ScenarioRunner`] assembles the stack — topology core →
//! [`ScenarioCorpus`] overlay → optional `QueryCache` — then replays the
//! spec's events in order: query stretches run through [`BatchExecutor`]
//! (preserving the topology's concurrent fan-out), mutation bursts apply
//! between stretches and re-sync the cache generation, and a sampled
//! subset of queries is checked against a brute-force oracle over the
//! *live* vector set at that point in the stream.
//!
//! Everything the runner reports — counts, recall, cache/failover/
//! transport counters — is a deterministic function of `(spec, topology)`;
//! it takes no wall-clock measurement. Two deliberate choices keep it so:
//! fault-storm scenarios run with `batch = 1` (health transitions are
//! then totally ordered against query placement), and predicate-filtered
//! queries are demoted to plain on remote topologies (predicates cannot
//! cross the wire) — so determinism holds per topology, which is what the
//! trajectory comparison needs.

use crate::corpus::ScenarioCorpus;
use crate::spec::{AdmissionSpec, Event, QueryEvent, WorkloadSpec};
use engine::{AnnIndex, SearchRequest};
use metrics::{
    collect_traces, trace_id_for, transport_summary, AdmissionSummary, BenchReport, BurnConfig,
    CacheSummary, Json, MetricsRegistry, MutationSummary, Objective, QueryProfile, SloTracker,
    SpanKind, SpanRing, TenantSummary, TraceContext, TraceSummary,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serving::distributed::{connect_round_robin_shards, NodeAddr, SocketTransport, Transport};
use serving::{
    BatchExecutor, CachedIndex, HealthConfig, ReplicatedIndex, ShardPolicy, ShardedIndex,
};
use std::sync::Arc;

/// The serving topology a scenario runs against.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// One in-process index.
    Flat,
    /// `shards` round-robin partitions on a worker pool.
    Sharded {
        /// Partition count.
        shards: usize,
    },
    /// `shards × replicas` with failover routing (the spec's policy); a
    /// fault storm in the spec lowers onto the replicas here.
    Replicated {
        /// Partition count.
        shards: usize,
        /// Replicas per partition.
        replicas: usize,
    },
    /// One remote node per shard (`serve-node` processes hosting the
    /// round-robin partitions of the scenario's generated base).
    Remote {
        /// Node addresses, one per shard in partition order.
        nodes: Vec<NodeAddr>,
        /// Per-request transport timeout.
        timeout_ms: u64,
    },
}

impl TopologySpec {
    /// Whether predicate filters can reach this topology (closures cannot
    /// cross the wire; label filters can).
    pub fn supports_predicates(&self) -> bool {
        !matches!(self, TopologySpec::Remote { .. })
    }

    /// Report label, with the cache layer appended when present.
    pub fn label(&self, spec: &WorkloadSpec, cache_capacity: usize) -> String {
        let base = match self {
            TopologySpec::Flat => "flat".to_string(),
            TopologySpec::Sharded { shards } => format!("sharded:{shards}"),
            TopologySpec::Replicated { shards, replicas } => {
                format!("replicated:{shards}x{replicas}:{}", spec.routing)
            }
            TopologySpec::Remote { nodes, .. } => format!("nodes:{}", nodes.len()),
        };
        if cache_capacity > 0 {
            format!("{base}+cache:{cache_capacity}")
        } else {
            base
        }
    }

    fn default_threads(&self) -> usize {
        match self {
            TopologySpec::Flat => 1,
            TopologySpec::Sharded { shards } => (*shards).max(1),
            TopologySpec::Replicated { shards, replicas } => (shards * replicas).clamp(1, 8),
            TopologySpec::Remote { nodes, .. } => nodes.len().max(1),
        }
    }
}

/// A named workload bound to a topology, ready to run.
pub struct ScenarioRunner {
    name: String,
    spec: WorkloadSpec,
    topology: TopologySpec,
    cache_capacity: usize,
    threads: usize,
}

/// Accumulated run state shared by the segment flushes.
struct RunState {
    /// Executed queries, in total and per tenant id.
    queries: u64,
    tenant_queries: Vec<u64>,
    recall_sum: f64,
    recall_samples: u64,
    /// Sum of every executed query's structural cost profile.
    profile: QueryProfile,
    /// Oracle outcomes as `(virtual tick, hits, misses)` — the
    /// `recall_deficit` SLO observations.
    recall_obs: Vec<(usize, u64, u64)>,
}

impl ScenarioRunner {
    /// A runner with no cache and automatic thread sizing.
    pub fn new(name: impl Into<String>, spec: WorkloadSpec, topology: TopologySpec) -> Self {
        Self {
            name: name.into(),
            spec,
            topology,
            cache_capacity: 0,
            threads: 0,
        }
    }

    /// Adds a `QueryCache` of `capacity` on top of the stack (0 = none).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Fixes the worker-pool size (0 = derive from the topology).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The workload spec (presets expose it for tweaking).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Replays the workload and reports. Errors only on topology assembly
    /// (e.g. an unreachable remote node).
    pub fn run(&self) -> Result<BenchReport, String> {
        self.run_traced().map(|(report, _)| report)
    }

    /// [`Self::run`], additionally returning one JSON trace per query
    /// event in issue order (the `--trace-out` line format): each entry is
    /// `{"trace_id": ..., "spans": [...]}` with the spans in canonical
    /// lane order. The trace *structure* — span kinds, lanes, payloads —
    /// is a deterministic function of `(spec, topology)`; only the
    /// `elapsed_ns` fields vary run to run.
    pub fn run_traced(&self) -> Result<(BenchReport, Vec<Json>), String> {
        let spec = &self.spec;
        let threads = if self.threads > 0 {
            self.threads
        } else {
            self.topology.default_threads()
        };
        let (base, pool, insert_stream) = spec.materialize();
        let builder = spec.builder();

        // Oracle mirror: the live vector of every global id (None =
        // deleted). Index i holds id i; inserts extend the tail.
        let mut mirror: Vec<Option<Vec<f32>>> = base.iter().map(|v| Some(v.to_vec())).collect();

        // --- assemble the stack ---------------------------------------
        let mut replicated: Option<Arc<ReplicatedIndex>> = None;
        let mut transports: Vec<Arc<SocketTransport>> = Vec::new();
        let core: Arc<dyn AnnIndex> = match &self.topology {
            TopologySpec::Flat => Arc::from(builder.build(base)),
            TopologySpec::Sharded { shards } => Arc::new(ShardedIndex::build(
                base,
                &builder,
                *shards,
                ShardPolicy::RoundRobin,
                threads,
            )),
            TopologySpec::Replicated { shards, replicas } => {
                let storm = spec.fault_storm;
                let r = Arc::new(ReplicatedIndex::build_with_faults(
                    base,
                    &builder,
                    *shards,
                    *replicas,
                    ShardPolicy::RoundRobin,
                    spec.routing,
                    HealthConfig::default(),
                    threads,
                    |shard, replica| storm.and_then(|s| s.plan_for(shard, replica)),
                ));
                replicated = Some(Arc::clone(&r));
                r
            }
            TopologySpec::Remote { nodes, timeout_ms } => {
                let (sharded, connected) = connect_round_robin_shards(
                    nodes,
                    base.len(),
                    base.dim(),
                    std::time::Duration::from_millis((*timeout_ms).max(1)),
                    threads,
                )?;
                transports = connected;
                Arc::new(sharded)
            }
        };
        let corpus = Arc::new(ScenarioCorpus::new(core));
        let cached = (self.cache_capacity > 0).then(|| {
            Arc::new(CachedIndex::new(
                Arc::clone(&corpus) as Arc<dyn AnnIndex>,
                self.cache_capacity,
            ))
        });
        let serving: Arc<dyn AnnIndex> = match &cached {
            Some(c) => Arc::clone(c) as Arc<dyn AnnIndex>,
            None => Arc::clone(&corpus) as Arc<dyn AnnIndex>,
        };

        // --- replay the stream ----------------------------------------
        let events = spec.events();
        // Admission control replays in virtual time over the arrival
        // ticks, so each query's fate (and all the counters) is fixed
        // before a single search runs. The ticks double as the SLO
        // evaluation clock below.
        let query_ticks: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::Query(q) => Some(q.tick),
                _ => None,
            })
            .collect();
        let admission = spec
            .admission
            .as_ref()
            .map(|policy| simulate_admission(policy, &query_ticks));
        // Size the span ring to the workload so no span is ever dropped:
        // capacity (deterministic from spec + topology) comfortably above
        // the worst-case span count per query for this topology (plus the
        // queue_wait span every admission-controlled query records).
        let query_events = events
            .iter()
            .filter(|e| matches!(e, Event::Query(_)))
            .count();
        let spans_per_query = usize::from(spec.admission.is_some())
            + match &self.topology {
                TopologySpec::Flat => 8,
                TopologySpec::Sharded { shards } => 8 + 4 * *shards,
                TopologySpec::Replicated { shards, replicas } => 8 + shards * (6 + 2 * replicas),
                TopologySpec::Remote { nodes, .. } => 8 + 8 * nodes.len(),
            };
        let ring = Arc::new(SpanRing::new(
            (query_events.max(1) * spans_per_query).clamp(1024, 1 << 21),
        ));
        let mut trace_ids: Vec<u64> = Vec::with_capacity(query_events);

        // --- live metrics plane -----------------------------------------
        // Publish the stack's live stats objects into the process-wide
        // registry so a concurrent scrape (`MetricsRegistry::global()
        // .snapshot()`) observes this run's counters under stable
        // `layer.component.metric` names. `register_source` replaces any
        // prior entry, so back-to-back runs simply re-point the names at
        // the fresh stack.
        let registry = MetricsRegistry::global();
        // The graph layer's process-wide scratch-pool counters
        // (`graphs.scratch.{created,checkouts}`) ride along with every run.
        graphs::register_scratch_metrics();
        if let Some(c) = &cached {
            let c = Arc::clone(c);
            registry.register_source("serving.cache.query_cache", move || {
                let s = c.cache().stats();
                Json::Obj(vec![
                    ("hits".into(), Json::uint(s.hits)),
                    ("misses".into(), Json::uint(s.misses)),
                    ("uncacheable".into(), Json::uint(s.uncacheable)),
                ])
            });
        }
        if let Some(r) = &replicated {
            let r = Arc::clone(r);
            registry.register_source("serving.replica.failover", move || {
                r.failover_stats().to_json()
            });
        }
        if !transports.is_empty() {
            let ts = transports.clone();
            registry.register_source("serving.transport.coordinator", move || {
                transport_summary(&ts.iter().map(|t| t.stats()).collect::<Vec<_>>()).to_json()
            });
        }
        {
            let ring = Arc::clone(&ring);
            registry.register_source("scenario.trace.ring", move || {
                Json::Obj(vec![
                    ("capacity".into(), Json::uint(ring.capacity() as u64)),
                    ("dropped".into(), Json::uint(ring.dropped())),
                ])
            });
        }
        {
            // Also published flat: `scenario_trace_dropped` is the one
            // number a scrape alert cares about (nonzero = lossy traces).
            let ring = Arc::clone(&ring);
            registry.register_source("scenario.trace.dropped", move || Json::uint(ring.dropped()));
        }
        if let Some((_, summary)) = &admission {
            let s = *summary;
            registry.register_source("serving.frontend.admission", move || s.to_json());
        }
        let push_predicates = self.topology.supports_predicates();
        let mut delete_rng = SmallRng::seed_from_u64(spec.delete_seed());
        let mut insert_cursor = 0usize;
        let mut inserts_applied = 0u64;
        let mut deletes_applied = 0u64;
        let mut query_counter = 0usize;
        // Pending segment: requests plus their event + sampled oracle ids.
        let mut pending: Vec<(SearchRequest, QueryEvent, Option<Vec<u64>>)> = Vec::new();
        let mut state = RunState {
            queries: 0,
            tenant_queries: vec![0; spec.tenants.max(1) as usize],
            recall_sum: 0.0,
            recall_samples: 0,
            profile: QueryProfile::new(),
            recall_obs: Vec::new(),
        };
        let fleet_generation = |replicated: &Option<Arc<ReplicatedIndex>>| {
            replicated.as_ref().map_or(0, |r| r.generation())
        };

        for event in events {
            match event {
                Event::Query(q) => {
                    let query = pool.get(q.pool_index).to_vec();
                    let mut req = SearchRequest::new(query.clone(), spec.k)
                        .ef(spec.ef)
                        .rerank(spec.rerank);
                    if let Some(label) = q.label {
                        req = req.label(label);
                    }
                    let filtered = q.filtered && push_predicates;
                    if filtered {
                        req = req.filter(|id| id % 2 == 0);
                    }
                    let trace_id = trace_id_for(spec.seed, query_counter as u64);
                    let ctx = TraceContext::new(Arc::clone(&ring), trace_id);
                    let outcome = admission.as_ref().map(|(o, _)| o[query_counter]);
                    if let Some(o) = outcome {
                        // Virtual queue time, one tick ≈ 1 ms (its depth
                        // and presence are structural).
                        ctx.record_timed(
                            SpanKind::QueueWait { depth: o.depth },
                            o.wait_ticks * 1_000_000,
                        );
                    }
                    trace_ids.push(trace_id);
                    if outcome.is_some_and(|o| !o.admitted) {
                        // Answered `Overloaded` with retries exhausted —
                        // accounted, traced, never executed.
                        query_counter += 1;
                        continue;
                    }
                    req = req.trace(ctx);
                    let oracle = query_counter
                        .is_multiple_of(spec.oracle_every.max(1))
                        .then(|| oracle_top_k(&mirror, &query, spec.k, filtered));
                    query_counter += 1;
                    pending.push((req, q, oracle));
                }
                Event::Mutate { inserts, deletes } => {
                    self.flush(
                        &mut pending,
                        &serving,
                        &cached,
                        &corpus,
                        &replicated,
                        &mut state,
                    );
                    for _ in 0..inserts {
                        if insert_cursor >= insert_stream.len() {
                            break;
                        }
                        let v = insert_stream.get(insert_cursor);
                        insert_cursor += 1;
                        let id = corpus.insert(v);
                        debug_assert_eq!(id as usize, mirror.len());
                        mirror.push(Some(v.to_vec()));
                        inserts_applied += 1;
                    }
                    for _ in 0..deletes {
                        let id = delete_rng.gen_range(0..mirror.len() as u64);
                        if mirror[id as usize].is_some() {
                            corpus.delete(id);
                            mirror[id as usize] = None;
                            deletes_applied += 1;
                        }
                    }
                    if let Some(c) = &cached {
                        c.cache()
                            .set_generation(corpus.generation() + fleet_generation(&replicated));
                    }
                }
            }
        }
        self.flush(
            &mut pending,
            &serving,
            &cached,
            &corpus,
            &replicated,
            &mut state,
        );

        // --- fold the trace plane -------------------------------------
        let spans = ring.snapshot();
        let mut counts = [0u64; 9];
        let mut names = [""; 9];
        for s in &spans {
            let c = s.kind.code() as usize;
            counts[c] += 1;
            names[c] = s.kind.name();
        }
        let trace_summary = TraceSummary {
            traces: trace_ids.len() as u64,
            dropped: ring.dropped(),
            span_counts: (1..9)
                .filter(|&c| counts[c] > 0)
                .map(|c| (names[c].to_string(), counts[c]))
                .collect(),
        };
        let traces: Vec<Json> = collect_traces(&ring, &trace_ids);

        // --- SLO burn rates over virtual ticks --------------------------
        // Replay the run's outcomes through the burn-rate tracker on the
        // arrival-tick clock — the same count-driven evaluation the live
        // servers run on wall time, here a pure function of
        // `(spec, topology)` so the whole `slo` section is structural.
        let burn = BurnConfig::default();
        let mut tracker = SloTracker::new(
            burn,
            vec![
                // Fraction of requests answered `Overloaded` (admission
                // shed); without an admission policy every query is good.
                Objective::new("shed_fraction", 0.05),
                // Fraction of oracle-checked result slots missing the
                // exact answer.
                Objective::new("recall_deficit", 0.25),
            ],
        );
        let shed_idx = tracker.index_of("shed_fraction").unwrap();
        let recall_idx = tracker.index_of("recall_deficit").unwrap();
        let horizon = query_ticks
            .iter()
            .copied()
            .chain(state.recall_obs.iter().map(|&(t, _, _)| t))
            .max()
            .map_or(1, |t| t + 1);
        let mut shed_by_tick: Vec<(u64, u64)> = vec![(0, 0); horizon];
        for (i, &tick) in query_ticks.iter().enumerate() {
            let admitted = admission.as_ref().is_none_or(|(o, _)| o[i].admitted);
            if admitted {
                shed_by_tick[tick].0 += 1;
            } else {
                shed_by_tick[tick].1 += 1;
            }
        }
        let mut recall_by_tick: Vec<(u64, u64)> = vec![(0, 0); horizon];
        for &(tick, hit, miss) in &state.recall_obs {
            recall_by_tick[tick].0 += hit;
            recall_by_tick[tick].1 += miss;
        }
        for tick in 0..horizon {
            tracker.observe(shed_idx, shed_by_tick[tick].0, shed_by_tick[tick].1);
            tracker.observe(recall_idx, recall_by_tick[tick].0, recall_by_tick[tick].1);
            tracker.tick();
        }
        let slo = tracker.summary();
        {
            // Scrapes of a live scenario process see the latest run's SLO
            // verdict next to its counters.
            let snapshot = slo.clone();
            registry.register_source("scenario.slo", move || snapshot.to_json());
        }

        // --- report ----------------------------------------------------
        let tenants = (0..spec.tenants.max(1))
            .map(|t| TenantSummary {
                tenant: t,
                queries: state.tenant_queries[t as usize],
            })
            .collect();
        let mut config = spec.config_pairs();
        config.push(("threads".into(), Json::uint(threads as u64)));
        let report = BenchReport {
            scenario: self.name.clone(),
            seed: spec.seed,
            topology: self.topology.label(spec, self.cache_capacity),
            config,
            queries: state.queries,
            k: spec.k,
            recall_samples: state.recall_samples,
            recall_at_k: if state.recall_samples == 0 {
                1.0
            } else {
                state.recall_sum / state.recall_samples as f64
            },
            cache: cached.as_ref().map(|c| {
                let s = c.cache().stats();
                CacheSummary {
                    hits: s.hits,
                    misses: s.misses,
                    uncacheable: s.uncacheable,
                }
            }),
            failover: replicated.as_ref().map(|r| r.failover_stats()),
            transport: (!transports.is_empty()).then(|| {
                transport_summary(&transports.iter().map(|t| t.stats()).collect::<Vec<_>>())
            }),
            admission: admission.as_ref().map(|(_, s)| *s),
            profile: state.profile,
            slo: Some(slo),
            trace: Some(trace_summary),
            mutations: MutationSummary {
                inserts: inserts_applied,
                deletes: deletes_applied,
                generation: corpus.generation() + fleet_generation(&replicated),
            },
            tenants,
        };
        Ok((report, traces))
    }

    /// Runs the pending segment through a `BatchExecutor` and folds its
    /// query counts, cost profiles and oracle checks into `state`.
    #[allow(clippy::type_complexity)]
    fn flush(
        &self,
        pending: &mut Vec<(SearchRequest, QueryEvent, Option<Vec<u64>>)>,
        serving: &Arc<dyn AnnIndex>,
        cached: &Option<Arc<CachedIndex>>,
        corpus: &Arc<ScenarioCorpus>,
        replicated: &Option<Arc<ReplicatedIndex>>,
        state: &mut RunState,
    ) {
        if pending.is_empty() {
            return;
        }
        if let Some(c) = cached {
            let fleet = replicated.as_ref().map_or(0, |r| r.generation());
            c.cache().set_generation(corpus.generation() + fleet);
        }
        let segment = std::mem::take(pending);
        let mut executor =
            BatchExecutor::new(Arc::clone(serving)).batch_size(self.spec.batch.max(1));
        executor.submit_all(segment.iter().map(|(req, _, _)| req.clone()));
        let report = executor.run();
        // The exact rerank pass runs inside the index internals; the
        // runner stamps its span (candidate-pool size) per traced query.
        if self.spec.rerank > 1 {
            for (req, _, _) in &segment {
                if let Some(trace) = &req.trace {
                    trace.record(SpanKind::Rerank {
                        pool: req.pool_k() as u64,
                    });
                }
            }
        }
        state.queries += segment.len() as u64;
        for (i, (_, q, oracle)) in segment.iter().enumerate() {
            state.tenant_queries[q.tenant as usize] += 1;
            state.profile.add(&report.responses[i].profile);
            if let Some(oracle_ids) = oracle {
                let got = report.responses[i].ids();
                let hit = oracle_ids.iter().filter(|id| got.contains(id)).count() as u64;
                let denom = oracle_ids.len().max(1) as u64;
                state.recall_sum += hit as f64 / denom as f64;
                state.recall_samples += 1;
                state.recall_obs.push((q.tick, hit, denom - hit));
            }
        }
    }
}

/// One query's fate under the virtual-time admission policy.
#[derive(Debug, Clone, Copy, Default)]
struct AdmissionOutcome {
    /// Whether the request was ultimately executed (vs. answered
    /// `Overloaded` with its retries exhausted).
    admitted: bool,
    /// Queue depth observed when the request first arrived.
    depth: u64,
    /// Virtual ticks between the final arrival and the outcome.
    wait_ticks: u64,
}

/// Replays the admission policy of [`AdmissionSpec`] over the query
/// arrivals in virtual time: ticks are the clock, so the outcome of
/// every request — and all five summary counters — is a pure function
/// of `(policy, arrival ticks)`. This mirrors what the live
/// event-driven front-end does under wall-clock deadlines, in a form a
/// determinism check can diff.
fn simulate_admission(
    policy: &AdmissionSpec,
    query_ticks: &[usize],
) -> (Vec<AdmissionOutcome>, AdmissionSummary) {
    let mut outcomes = vec![AdmissionOutcome::default(); query_ticks.len()];
    let mut summary = AdmissionSummary {
        submitted: query_ticks.len() as u64,
        ..AdmissionSummary::default()
    };
    // arrivals[t] = requests (query index, attempt number) landing at t;
    // retries re-arrive one tick later.
    let horizon = query_ticks.iter().max().map_or(0, |t| t + 1);
    let mut arrivals: Vec<Vec<(usize, u32)>> = vec![Vec::new(); horizon + 1];
    for (idx, &tick) in query_ticks.iter().enumerate() {
        arrivals[tick].push((idx, 0));
    }
    let mut queue: std::collections::VecDeque<(usize, usize, u32)> =
        std::collections::VecDeque::new();
    let mut tick = 0usize;
    while tick < arrivals.len() || !queue.is_empty() {
        let mut shed_or_retry = Vec::new();
        if tick < arrivals.len() {
            for (idx, attempt) in std::mem::take(&mut arrivals[tick]) {
                if attempt == 0 {
                    outcomes[idx].depth = queue.len() as u64;
                }
                if queue.len() >= policy.max_queue {
                    shed_or_retry.push((idx, attempt)); // overflow at the door
                } else {
                    queue.push_back((idx, tick, attempt));
                }
            }
        }
        summary.max_depth = summary.max_depth.max(queue.len() as u64);
        // Deadline shed first (the live server checks at execute time),
        // then serve this tick's capacity. The queue is FIFO by arrival
        // tick, so expired entries are always at the front.
        while let Some(&(idx, arrived, attempt)) = queue.front() {
            if tick - arrived < policy.deadline_ticks {
                break;
            }
            queue.pop_front();
            outcomes[idx].wait_ticks = (tick - arrived) as u64;
            shed_or_retry.push((idx, attempt));
        }
        for _ in 0..policy.capacity_per_tick {
            let Some((idx, arrived, _)) = queue.pop_front() else {
                break;
            };
            outcomes[idx].admitted = true;
            outcomes[idx].wait_ticks = (tick - arrived) as u64;
            summary.admitted += 1;
        }
        for (idx, attempt) in shed_or_retry {
            if attempt < policy.retry_limit {
                summary.retried += 1;
                if arrivals.len() <= tick + 1 {
                    arrivals.resize(tick + 2, Vec::new());
                }
                arrivals[tick + 1].push((idx, attempt + 1));
            } else {
                outcomes[idx].admitted = false;
                summary.shed += 1;
            }
        }
        tick += 1;
    }
    debug_assert_eq!(
        summary.admitted + summary.shed,
        summary.submitted,
        "every request must end admitted or shed"
    );
    (outcomes, summary)
}

/// Exact top-`k` over the live mirror by `(dist, id)`, honoring the
/// even-id predicate when `filtered`.
fn oracle_top_k(mirror: &[Option<Vec<f32>>], query: &[f32], k: usize, filtered: bool) -> Vec<u64> {
    let mut scored: Vec<(f32, u64)> = mirror
        .iter()
        .enumerate()
        .filter_map(|(id, v)| {
            let v = v.as_ref()?;
            let id = id as u64;
            if filtered && !id.is_multiple_of(2) {
                return None;
            }
            Some((simdops::l2_sq(query, v), id))
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_respects_filter_and_tombstones() {
        let mirror: Vec<Option<Vec<f32>>> = (0..6)
            .map(|i| {
                if i == 2 {
                    None // deleted
                } else {
                    Some(vec![i as f32])
                }
            })
            .collect();
        let top = oracle_top_k(&mirror, &[0.0], 3, false);
        assert_eq!(top, vec![0, 1, 3]);
        let even = oracle_top_k(&mirror, &[0.0], 3, true);
        assert_eq!(even, vec![0, 4]); // 2 is deleted, odds filtered
    }

    #[test]
    fn admission_simulation_is_deterministic_and_total() {
        let policy = AdmissionSpec {
            capacity_per_tick: 2,
            max_queue: 3,
            deadline_ticks: 2,
            retry_limit: 1,
        };
        // Eight arrivals in tick 0 against capacity 2 and a 3-deep queue:
        // some admit, some retry, some shed — and all eight resolve.
        let ticks = [0usize; 8];
        let (outcomes, summary) = simulate_admission(&policy, &ticks);
        assert_eq!(summary.submitted, 8);
        assert_eq!(summary.admitted + summary.shed, 8, "none may hang");
        assert!(summary.shed > 0, "this burst must overwhelm the queue");
        assert!(summary.retried > 0, "overflow must trigger retries");
        assert!(summary.max_depth <= policy.max_queue as u64);
        assert_eq!(outcomes.len(), 8);
        assert_eq!(
            outcomes.iter().filter(|o| o.admitted).count() as u64,
            summary.admitted
        );
        // Pure function of (policy, ticks): replays match exactly.
        let (again, summary2) = simulate_admission(&policy, &ticks);
        assert_eq!(summary, summary2);
        for (a, b) in outcomes.iter().zip(&again) {
            assert_eq!(
                (a.admitted, a.depth, a.wait_ticks),
                (b.admitted, b.depth, b.wait_ticks)
            );
        }
        // An uncontended trickle admits everything with zero waits.
        let sparse: Vec<usize> = (0..5).map(|i| i * 10).collect();
        let (all_in, quiet) = simulate_admission(&policy, &sparse);
        assert_eq!(quiet.admitted, 5);
        assert_eq!(quiet.shed + quiet.retried, 0);
        assert!(all_in.iter().all(|o| o.admitted && o.wait_ticks == 0));
    }

    #[test]
    fn overload_scenario_counters_reproduce_across_runs() {
        let scenario = crate::named::by_name("overload", true).unwrap();
        let run = |seed| {
            let (report, _) = scenario.runner(seed).run_traced().unwrap();
            report
        };
        let a = run(7);
        let b = run(7);
        let sa = a.admission.expect("overload reports admission");
        assert_eq!(Some(sa), b.admission, "counters must reproduce per seed");
        assert!(sa.shed > 0, "the bursts must shed");
        assert!(sa.retried > 0, "sheds must retry before giving up");
        assert_eq!(
            sa.admitted + sa.shed,
            sa.submitted,
            "every request answered or answered Overloaded"
        );
        assert_eq!(a.queries, sa.admitted, "only admitted queries execute");
        // The queue_wait span is structural: one per submitted query.
        let t = a.trace.as_ref().expect("trace summary present");
        let queue_waits = t
            .span_counts
            .iter()
            .find(|(name, _)| name == "queue_wait")
            .map(|(_, n)| *n);
        assert_eq!(queue_waits, Some(sa.submitted));
        // The whole report reproduces, not just the admission block.
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn topology_labels_are_stable() {
        let spec = WorkloadSpec::base(1);
        assert_eq!(TopologySpec::Flat.label(&spec, 0), "flat");
        assert_eq!(
            TopologySpec::Sharded { shards: 4 }.label(&spec, 256),
            "sharded:4+cache:256"
        );
        assert_eq!(
            TopologySpec::Replicated {
                shards: 2,
                replicas: 2
            }
            .label(&spec, 0),
            "replicated:2x2:round-robin"
        );
        assert!(TopologySpec::Flat.supports_predicates());
        assert!(!TopologySpec::Remote {
            nodes: vec![],
            timeout_ms: 100
        }
        .supports_predicates());
    }
}
