//! Replicated shard groups with failover routing.
//!
//! A [`ReplicaGroup`] holds R replicas of one logical index — identical by
//! construction (same builder, seed, and shared codec over the same data;
//! the workspace's builds are deterministic) — and serves every request
//! from one healthy replica, transparently retrying siblings when a
//! replica fails. Because the replicas are identical, a failover returns
//! **bit-identical** hits to the healthy run, whatever the routing policy.
//!
//! The moving parts:
//!
//! * [`Router`] — places each request on a replica under a pluggable
//!   [`RoutingPolicy`] (`Primary`, `RoundRobin`, `LoadAware`), ordering
//!   the surviving replicas as retry fallbacks;
//! * the health model — per-replica error tracking (consecutive failures
//!   mark a replica down) and probed recovery (a marked-down replica is
//!   re-tried with live traffic after sitting out
//!   [`HealthConfig::probe_after`] group calls); every mark-down and
//!   recovery bumps the group [`ReplicaGroup::generation`] so result
//!   caches can invalidate across failover transitions;
//! * [`ReplicatedIndex`] — the full stack: a [`ShardedIndex`] whose every
//!   shard is a replica group, built with one globally-trained codec and
//!   searched scatter-gather on the shared worker pool.
//!
//! `ReplicaGroup` and `ReplicatedIndex` implement [`AnnIndex`], so they
//! nest under `CachedIndex` and each other like any other index. Failures come from the [`crate::fault`] module's
//! deterministic `FaultPlan` scripts (production replicas simply never
//! fail).

use crate::fault::{FallibleIndex, FaultError, FaultKind, FaultPlan, FaultyIndex};
use crate::pool::WorkerPool;
use crate::shard::{ShardPolicy, ShardedIndex};
use engine::{AnnIndex, IndexBuilder, SearchRequest, SearchResponse};
use metrics::{failover_summary, ReplicaCounters, ReplicaStats, SpanKind, SpanOutcome};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vecstore::VectorSet;

/// How a [`Router`] picks the replica that serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Always the lowest-indexed healthy replica; siblings are pure
    /// failover spares.
    Primary,
    /// Rotate across the healthy replicas call by call.
    RoundRobin,
    /// The healthy replica with the least accumulated search latency
    /// (ties broken by replica index) — slow or spiky replicas shed load.
    LoadAware,
}

impl RoutingPolicy {
    /// Every supported policy.
    pub const ALL: [RoutingPolicy; 3] = [
        RoutingPolicy::Primary,
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LoadAware,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::Primary => "primary",
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LoadAware => "load-aware",
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RoutingPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "primary" => Ok(RoutingPolicy::Primary),
            "round-robin" | "roundrobin" | "rr" => Ok(RoutingPolicy::RoundRobin),
            "load-aware" | "loadaware" | "load" => Ok(RoutingPolicy::LoadAware),
            other => Err(format!(
                "unknown routing policy `{other}` (accepted: primary, round-robin, load-aware)"
            )),
        }
    }
}

/// Health-model knobs of a [`ReplicaGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive failures that mark a replica down (min 1).
    pub error_threshold: u32,
    /// Group search calls a marked-down replica sits out before it is
    /// probed with live traffic again.
    pub probe_after: u64,
}

impl Default for HealthConfig {
    /// Mark down on the first error; probe again after 16 group calls.
    fn default() -> Self {
        Self {
            error_threshold: 1,
            probe_after: 16,
        }
    }
}

/// One replica's routing-relevant state at request time (input to
/// [`Router::plan`]).
#[derive(Debug, Clone, Copy)]
pub struct RouteCandidate {
    /// Replica index within the group.
    pub replica: usize,
    /// Not currently marked down.
    pub healthy: bool,
    /// Marked down, due for a live-traffic probe, and this request won
    /// the (single-flight) probe claim.
    pub due_probe: bool,
    /// Accumulated successful-search latency (the `LoadAware` signal).
    pub load_ns: u64,
}

/// Places `(request, shard)` jobs on replicas under a [`RoutingPolicy`].
///
/// The router is pure placement logic over [`RouteCandidate`] snapshots;
/// health state itself lives in the [`ReplicaGroup`] that owns the
/// router. Only `RoundRobin` keeps state (the rotation counter).
pub struct Router {
    policy: RoutingPolicy,
    rr: AtomicU64,
}

impl Router {
    /// A router with the given policy.
    pub fn new(policy: RoutingPolicy) -> Self {
        Self {
            policy,
            rr: AtomicU64::new(0),
        }
    }

    /// The placement policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// The attempt order for one request: due probes first (a recovered
    /// replica serves identical results, a still-dead one costs one
    /// failed attempt and falls through), then the healthy replicas in
    /// policy order, then the remaining marked-down replicas as a last
    /// resort (a fully-down group must still try everything).
    pub fn plan(&self, candidates: &[RouteCandidate]) -> Vec<usize> {
        let mut order: Vec<usize> = candidates
            .iter()
            .filter(|c| !c.healthy && c.due_probe)
            .map(|c| c.replica)
            .collect();
        let mut healthy: Vec<&RouteCandidate> = candidates.iter().filter(|c| c.healthy).collect();
        match self.policy {
            RoutingPolicy::Primary => {} // index order as given
            RoutingPolicy::RoundRobin => {
                if !healthy.is_empty() {
                    let start = self.rr.fetch_add(1, Ordering::Relaxed) as usize % healthy.len();
                    healthy.rotate_left(start);
                }
            }
            RoutingPolicy::LoadAware => healthy.sort_by_key(|c| (c.load_ns, c.replica)),
        }
        order.extend(healthy.iter().map(|c| c.replica));
        order.extend(
            candidates
                .iter()
                .filter(|c| !c.healthy && !c.due_probe)
                .map(|c| c.replica),
        );
        order
    }
}

/// The trace-span outcome of one failed replica attempt.
fn outcome_of(kind: FaultKind) -> SpanOutcome {
    match kind {
        FaultKind::Transient => SpanOutcome::Transient,
        FaultKind::Dead => SpanOutcome::Dead,
        FaultKind::Malformed => SpanOutcome::Malformed,
    }
}

/// One replica: the (possibly fault-injected) index plus health state and
/// failover counters.
struct Replica {
    index: Box<dyn FallibleIndex>,
    counters: ReplicaCounters,
    /// Consecutive failures since the last success.
    consecutive: AtomicU32,
    /// Marked down (out of normal routing).
    down: AtomicBool,
    /// Group-clock value at mark-down / last probe claim (schedules the
    /// next probe; probes claim it with a CAS so each window sends one).
    down_at: AtomicU64,
    /// The `LoadAware` routing signal. Distinct from the monotonic
    /// `counters.latency_ns()`: a replica that sat out a markdown
    /// accumulated nothing, so on recovery this is re-based to the
    /// busiest sibling — otherwise the just-recovered (coldest) replica
    /// would win every placement until its lifetime total caught up.
    load_ns: AtomicU64,
}

impl Replica {
    fn new(index: Box<dyn FallibleIndex>) -> Self {
        Self {
            index,
            counters: ReplicaCounters::new(),
            consecutive: AtomicU32::new(0),
            down: AtomicBool::new(false),
            down_at: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
        }
    }
}

/// R replicas of one logical index behind failover routing.
///
/// Implements [`AnnIndex`]; nest it under a [`ShardedIndex`] (one group
/// per shard — see [`ReplicatedIndex`]), or a `CachedIndex` like any
/// other index.
///
/// # Panics
/// [`AnnIndex::search`] panics if **every** replica fails the request —
/// with at least one healthy replica per group, search never errors (the
/// property `tests/failure_injection.rs` proves for arbitrary fault
/// plans).
pub struct ReplicaGroup {
    replicas: Vec<Replica>,
    router: Router,
    health: HealthConfig,
    /// Monotonic group search counter (drives probe scheduling).
    clock: AtomicU64,
    /// Bumped on every mark-down and recovery: the invalidation hook for
    /// result caches layered above the group.
    generation: AtomicU64,
    len: usize,
    dim: usize,
}

impl ReplicaGroup {
    /// Assembles a group from pre-built replicas (production handles or
    /// [`FaultyIndex`] wrappers).
    ///
    /// # Panics
    /// Panics if `replicas` is empty or the replicas disagree on length
    /// or dimensionality (they must serve the same logical index).
    pub fn from_replicas(
        replicas: Vec<Box<dyn FallibleIndex>>,
        routing: RoutingPolicy,
        health: HealthConfig,
    ) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let (len, dim) = (replicas[0].len(), replicas[0].dim());
        for (i, r) in replicas.iter().enumerate() {
            assert_eq!(r.len(), len, "replica {i} length disagrees");
            assert_eq!(r.dim(), dim, "replica {i} dimensionality disagrees");
        }
        Self {
            replicas: replicas.into_iter().map(Replica::new).collect(),
            router: Router::new(routing),
            health: HealthConfig {
                error_threshold: health.error_threshold.max(1),
                ..health
            },
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            len,
            dim,
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The routing policy.
    pub fn routing(&self) -> RoutingPolicy {
        self.router.policy()
    }

    /// Bumped on every replica mark-down and recovery. Sync it into a
    /// `QueryCache` (`set_generation`) so responses cached across a
    /// failover transition miss instead of being served stale.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether replica `i` is currently marked down.
    pub fn is_marked_down(&self, i: usize) -> bool {
        self.replicas[i].down.load(Ordering::Acquire)
    }

    /// Per-replica failover counter snapshots.
    pub fn replica_stats(&self) -> Vec<ReplicaStats> {
        self.replicas
            .iter()
            .map(|r| r.counters.snapshot())
            .collect()
    }

    /// The group aggregate (element-wise sum of the per-replica stats).
    pub fn failover_stats(&self) -> ReplicaStats {
        failover_summary(&self.replica_stats())
    }

    /// Routes one request: try replicas in [`Router::plan`] order, record
    /// health transitions, and return the first success.
    ///
    /// A replica's response is only accepted if every hit lies inside the
    /// dense local id space `0..len` — the contract every graph-backed
    /// index and `FlatIndex` honor, and the one the sharded gather step
    /// relies on. A replica that answers with out-of-range ids (a buggy
    /// or byzantine remote node) is treated exactly like a failed one:
    /// the error counts toward mark-down and the request retries a
    /// sibling, instead of the malformed response aborting the
    /// coordinator at gather time.
    fn search_failover(&self, request: &SearchRequest) -> SearchResponse {
        let now = self.clock.fetch_add(1, Ordering::SeqCst);
        let candidates: Vec<RouteCandidate> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let down = r.down.load(Ordering::Acquire);
                // Probes are single-flight: a due probe is *claimed* by
                // CAS-ing `down_at` forward, so of N concurrent requests
                // only one pays the possibly-failed attempt per window.
                let down_at = r.down_at.load(Ordering::Acquire);
                let due_probe = down
                    && now.saturating_sub(down_at) >= self.health.probe_after
                    && r.down_at
                        .compare_exchange(down_at, now, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                RouteCandidate {
                    replica: i,
                    healthy: !down,
                    due_probe,
                    load_ns: r.load_ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        let order = self.router.plan(&candidates);
        if let Some(trace) = &request.trace {
            trace.record(SpanKind::Route {
                candidates: order.len() as u64,
            });
        }
        let mut last_error: Option<FaultError> = None;
        for (attempt, &i) in order.iter().enumerate() {
            let replica = &self.replicas[i];
            let was_down = replica.down.load(Ordering::Acquire);
            replica.counters.record_search();
            if was_down {
                replica.counters.record_probe();
            }
            let t0 = Instant::now();
            let result = replica.index.try_search(request).and_then(|response| {
                // Reject protocol-violating answers before they can reach
                // the gather step (see the method docs).
                if response.hits.iter().any(|h| h.id >= self.len as u64) {
                    Err(FaultError {
                        call: now,
                        kind: FaultKind::Malformed,
                    })
                } else {
                    Ok(response)
                }
            });
            match result {
                Ok(response) => {
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    if let Some(trace) = &request.trace {
                        trace.record_timed(
                            SpanKind::ReplicaAttempt {
                                replica: i as u64,
                                outcome: SpanOutcome::Ok,
                            },
                            elapsed,
                        );
                    }
                    replica.counters.record_latency_ns(elapsed);
                    replica.load_ns.fetch_add(elapsed, Ordering::Relaxed);
                    replica.consecutive.store(0, Ordering::Release);
                    // The CAS makes each down→up transition count once even
                    // when concurrent requests probe the same replica.
                    if was_down
                        && replica
                            .down
                            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        // Re-base the routing load to the busiest sibling:
                        // the replica accumulated nothing while down, and
                        // `LoadAware` must not pin all traffic to it.
                        let max_load = self
                            .replicas
                            .iter()
                            .map(|r| r.load_ns.load(Ordering::Relaxed))
                            .max()
                            .unwrap_or(0);
                        replica.load_ns.store(max_load, Ordering::Relaxed);
                        replica.counters.record_recovery();
                        self.generation.fetch_add(1, Ordering::AcqRel);
                    }
                    return response;
                }
                Err(error) => {
                    if let Some(trace) = &request.trace {
                        trace.record_timed(
                            SpanKind::ReplicaAttempt {
                                replica: i as u64,
                                outcome: outcome_of(error.kind),
                            },
                            t0.elapsed().as_nanos() as u64,
                        );
                    }
                    replica.counters.record_error();
                    let consecutive = replica.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
                    if was_down {
                        // Failed probe: restart the sit-out window (already
                        // claimed forward at planning time; this covers the
                        // last-resort attempts that bypassed the claim).
                        replica.down_at.store(now, Ordering::Release);
                    } else if consecutive >= self.health.error_threshold {
                        // Publish the timestamp *before* the down flag: a
                        // concurrent planner must never observe down=true
                        // with a stale down_at, which would make the
                        // just-failed replica immediately probe-due. A
                        // losing writer merely refreshes the window.
                        replica.down_at.store(now, Ordering::Release);
                        // One up→down transition per outage, even when
                        // concurrent requests fail on the replica together.
                        if replica
                            .down
                            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            replica.counters.record_markdown();
                            self.generation.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                    if attempt + 1 < order.len() {
                        replica.counters.record_retry();
                    }
                    last_error = Some(error);
                }
            }
        }
        panic!(
            "all {} replicas failed the request (last error: {})",
            self.replicas.len(),
            last_error.expect("a non-empty group reports at least one error"),
        );
    }
}

impl AnnIndex for ReplicaGroup {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.search_failover(request)
    }

    /// Real resident bytes: every replica is a physical copy.
    fn memory_bytes(&self) -> usize {
        self.replicas.iter().map(|r| r.index.memory_bytes()).sum()
    }
}

/// A [`ShardedIndex`] whose every shard is a [`ReplicaGroup`]: the full
/// replicated-serving stack, built with one globally-trained codec and a
/// shared worker pool, surviving any single replica loss per shard with
/// bit-identical results.
pub struct ReplicatedIndex {
    sharded: ShardedIndex,
    groups: Vec<Arc<ReplicaGroup>>,
}

impl ReplicatedIndex {
    /// Builds `shards × replicas` sub-indexes concurrently on a fresh
    /// pool of `threads` workers (which then serves the index), training
    /// the coding codec once on the full dataset and sharing it across
    /// every shard *and* replica.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        base: VectorSet,
        builder: &IndexBuilder,
        shards: usize,
        replicas: usize,
        shard_policy: ShardPolicy,
        routing: RoutingPolicy,
        health: HealthConfig,
        threads: usize,
    ) -> Self {
        Self::build_with_faults(
            base,
            builder,
            shards,
            replicas,
            shard_policy,
            routing,
            health,
            threads,
            |_, _| None,
        )
    }

    /// [`Self::build`] plus deterministic fault injection: `fault_for(s,
    /// r)` may hand replica `r` of shard `s` a [`FaultPlan`] (shard
    /// indexes refer to the non-empty partitions, in order). This is the
    /// hook the fault-injection tests and the `replicated_serving`
    /// example drive every failover path through.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_faults(
        base: VectorSet,
        builder: &IndexBuilder,
        shards: usize,
        replicas: usize,
        shard_policy: ShardPolicy,
        routing: RoutingPolicy,
        health: HealthConfig,
        threads: usize,
        fault_for: impl Fn(usize, usize) -> Option<FaultPlan>,
    ) -> Self {
        assert!(!base.is_empty(), "cannot shard an empty dataset");
        let replicas = replicas.max(1);
        let codec = builder.train_codec(&base);
        let (sets, id_maps): (Vec<VectorSet>, Vec<Vec<u64>>) =
            ShardedIndex::partition(&base, shards, shard_policy)
                .into_iter()
                .unzip();
        drop(base);
        let pool = Arc::new(WorkerPool::new(threads));

        // Build the full (shard × replica) grid concurrently: one flat job
        // list keeps every thread busy across shard boundaries. The last
        // replica of each shard consumes the partition instead of cloning
        // it once more.
        let job = |set: VectorSet| {
            let codec = &codec;
            move || builder.build_with_codec(set, codec)
        };
        let mut jobs = Vec::with_capacity(sets.len() * replicas);
        for set in sets {
            for _ in 1..replicas {
                jobs.push(job(set.clone()));
            }
            jobs.push(job(set));
        }
        let mut built = pool.run(jobs).into_iter().map(Arc::<dyn AnnIndex>::from);

        let mut groups = Vec::with_capacity(id_maps.len());
        let shard_parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = id_maps
            .into_iter()
            .enumerate()
            .map(|(s, global_ids)| {
                let members: Vec<Box<dyn FallibleIndex>> = (0..replicas)
                    .map(|r| {
                        let index = built.next().expect("one build per (shard, replica)");
                        match fault_for(s, r) {
                            Some(plan) => {
                                Box::new(FaultyIndex::new(index, plan)) as Box<dyn FallibleIndex>
                            }
                            None => Box::new(index) as Box<dyn FallibleIndex>,
                        }
                    })
                    .collect();
                let group = Arc::new(ReplicaGroup::from_replicas(members, routing, health));
                groups.push(Arc::clone(&group));
                (Box::new(group) as Box<dyn AnnIndex>, global_ids)
            })
            .collect();
        Self {
            sharded: ShardedIndex::from_parts(shard_parts, shard_policy, pool),
            groups,
        }
    }

    /// The underlying sharded index.
    pub fn sharded(&self) -> &ShardedIndex {
        &self.sharded
    }

    /// The per-shard replica groups (health stats, generations).
    pub fn groups(&self) -> &[Arc<ReplicaGroup>] {
        &self.groups
    }

    /// Number of shards (non-empty partitions).
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// Replicas per shard.
    pub fn replica_count(&self) -> usize {
        self.groups.first().map_or(0, |g| g.replica_count())
    }

    /// The routing policy every group routes under.
    pub fn routing(&self) -> RoutingPolicy {
        self.groups
            .first()
            .map_or(RoutingPolicy::Primary, |g| g.routing())
    }

    /// Sum of the group generations — monotonic, bumps on every
    /// mark-down/recovery anywhere in the fleet. Sync it into a
    /// `QueryCache` exactly like `LsmVectorIndex::generation()`.
    pub fn generation(&self) -> u64 {
        self.groups.iter().map(|g| g.generation()).sum()
    }

    /// Fleet-wide failover aggregate (summed over shards and replicas).
    pub fn failover_stats(&self) -> ReplicaStats {
        failover_summary(
            &self
                .groups
                .iter()
                .map(|g| g.failover_stats())
                .collect::<Vec<_>>(),
        )
    }

    /// Per-shard, per-replica counter snapshots.
    pub fn replica_stats(&self) -> Vec<Vec<ReplicaStats>> {
        self.groups.iter().map(|g| g.replica_stats()).collect()
    }
}

impl AnnIndex for ReplicatedIndex {
    fn len(&self) -> usize {
        self.sharded.len()
    }

    fn dim(&self) -> usize {
        self.sharded.dim()
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.sharded.search(request)
    }

    fn search_batch(&self, requests: &[SearchRequest]) -> Vec<SearchResponse> {
        self.sharded.search_batch(requests)
    }

    fn memory_bytes(&self) -> usize {
        self.sharded.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::FlatIndex;

    fn corpus(n: usize, dim: usize) -> VectorSet {
        let mut set = VectorSet::new(dim);
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|d| ((i * 31 + d * 7) % 97) as f32).collect();
            set.push(&v);
        }
        set
    }

    fn flat_replicas(base: &VectorSet, n: usize) -> Vec<Box<dyn FallibleIndex>> {
        (0..n)
            .map(|_| {
                let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base.clone()));
                Box::new(index) as Box<dyn FallibleIndex>
            })
            .collect()
    }

    fn group_with_plans(
        base: &VectorSet,
        plans: Vec<Option<FaultPlan>>,
        routing: RoutingPolicy,
        health: HealthConfig,
    ) -> ReplicaGroup {
        let members = plans
            .into_iter()
            .map(|plan| {
                let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base.clone()));
                match plan {
                    Some(plan) => Box::new(FaultyIndex::new(index, plan)) as Box<dyn FallibleIndex>,
                    None => Box::new(index) as Box<dyn FallibleIndex>,
                }
            })
            .collect();
        ReplicaGroup::from_replicas(members, routing, health)
    }

    #[test]
    fn router_orders_by_policy() {
        let candidates = |loads: [u64; 3]| {
            (0..3)
                .map(|i| RouteCandidate {
                    replica: i,
                    healthy: true,
                    due_probe: false,
                    load_ns: loads[i],
                })
                .collect::<Vec<_>>()
        };
        let primary = Router::new(RoutingPolicy::Primary);
        assert_eq!(primary.plan(&candidates([5, 0, 9])), vec![0, 1, 2]);

        let rr = Router::new(RoutingPolicy::RoundRobin);
        assert_eq!(rr.plan(&candidates([0, 0, 0])), vec![0, 1, 2]);
        assert_eq!(rr.plan(&candidates([0, 0, 0])), vec![1, 2, 0]);
        assert_eq!(rr.plan(&candidates([0, 0, 0])), vec![2, 0, 1]);
        assert_eq!(rr.plan(&candidates([0, 0, 0])), vec![0, 1, 2]);

        let load = Router::new(RoutingPolicy::LoadAware);
        assert_eq!(load.plan(&candidates([5, 0, 9])), vec![1, 0, 2]);
        assert_eq!(
            load.plan(&candidates([7, 7, 7])),
            vec![0, 1, 2],
            "ties by index"
        );
    }

    #[test]
    fn router_puts_due_probes_first_and_down_last() {
        let candidates = vec![
            RouteCandidate {
                replica: 0,
                healthy: false,
                due_probe: false,
                load_ns: 0,
            },
            RouteCandidate {
                replica: 1,
                healthy: true,
                due_probe: false,
                load_ns: 0,
            },
            RouteCandidate {
                replica: 2,
                healthy: false,
                due_probe: true,
                load_ns: 0,
            },
        ];
        let router = Router::new(RoutingPolicy::Primary);
        assert_eq!(router.plan(&candidates), vec![2, 1, 0]);
    }

    #[test]
    fn failover_returns_identical_results_and_marks_down() {
        let base = corpus(60, 4);
        let want =
            FlatIndex::new(base.clone()).search(&SearchRequest::new(base.get(3).to_vec(), 5));
        for routing in RoutingPolicy::ALL {
            let group = group_with_plans(
                &base,
                vec![Some(FaultPlan::new().die_at(0)), None],
                routing,
                HealthConfig::default(),
            );
            let req = SearchRequest::new(base.get(3).to_vec(), 5);
            let got = group.search(&req);
            assert_eq!(got.hits, want.hits, "{routing}");
            let stats = group.failover_stats();
            assert_eq!(stats.retries, 1, "{routing}: dead replica retried once");
            assert_eq!(stats.markdowns, 1, "{routing}");
            assert!(group.is_marked_down(0), "{routing}");
            assert_eq!(
                group.generation(),
                1,
                "{routing}: markdown bumps generation"
            );
            // Subsequent searches route straight to the healthy sibling.
            let again = group.search(&req);
            assert_eq!(again.hits, want.hits, "{routing}");
            assert_eq!(
                group.failover_stats().retries,
                1,
                "{routing}: no more retries"
            );
        }
    }

    #[test]
    fn probe_recovers_a_revived_replica() {
        let base = corpus(40, 4);
        let health = HealthConfig {
            error_threshold: 1,
            probe_after: 3,
        };
        // Replica 0 dies on its first call and revives on its second.
        let group = group_with_plans(
            &base,
            vec![Some(FaultPlan::new().die_at(0).revive_at(1)), None],
            RoutingPolicy::Primary,
            health,
        );
        let req = SearchRequest::new(base.get(0).to_vec(), 4);
        group.search(&req); // call 0: fails over, marks 0 down
        assert!(group.is_marked_down(0));
        for _ in 0..3 {
            group.search(&req); // sit-out window
        }
        assert!(
            !group.is_marked_down(0),
            "probe must have recovered replica 0"
        );
        let stats = group.replica_stats();
        assert_eq!(stats[0].probes, 1);
        assert_eq!(stats[0].recoveries, 1);
        assert_eq!(group.generation(), 2, "markdown + recovery");
    }

    #[test]
    fn failed_probe_restarts_the_sit_out_window() {
        let base = corpus(40, 4);
        let health = HealthConfig {
            error_threshold: 1,
            probe_after: 2,
        };
        let group = group_with_plans(
            &base,
            vec![Some(FaultPlan::new().die_at(0)), None], // never revives
            RoutingPolicy::Primary,
            health,
        );
        let req = SearchRequest::new(base.get(1).to_vec(), 4);
        for _ in 0..8 {
            group.search(&req);
        }
        let stats = group.replica_stats();
        assert!(stats[0].probes >= 2, "dead replica keeps being probed");
        assert_eq!(stats[0].recoveries, 0);
        assert!(group.is_marked_down(0));
        assert_eq!(
            group.generation(),
            1,
            "failed probes do not bump generation"
        );
    }

    #[test]
    fn error_threshold_tolerates_blips() {
        let base = corpus(40, 4);
        let health = HealthConfig {
            error_threshold: 2,
            probe_after: 100,
        };
        let group = group_with_plans(
            &base,
            // One isolated transient error: below the threshold.
            vec![Some(FaultPlan::new().fail_on(1)), None],
            RoutingPolicy::Primary,
            health,
        );
        let req = SearchRequest::new(base.get(2).to_vec(), 4);
        for _ in 0..4 {
            group.search(&req);
        }
        assert!(!group.is_marked_down(0), "one blip must not mark down");
        let stats = group.failover_stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.markdowns, 0);
        assert_eq!(group.generation(), 0);
    }

    /// A byzantine replica: answers every request, but with hit ids
    /// shifted outside the dense local id space — the shape of a
    /// misbehaving remote node in the distributed setting.
    struct EvilReplica {
        inner: FlatIndex,
        offset: u64,
    }

    impl FallibleIndex for EvilReplica {
        fn len(&self) -> usize {
            AnnIndex::len(&self.inner)
        }
        fn dim(&self) -> usize {
            AnnIndex::dim(&self.inner)
        }
        fn try_search(&self, request: &SearchRequest) -> Result<SearchResponse, FaultError> {
            let mut response = self.inner.search(request);
            for h in &mut response.hits {
                h.id += self.offset;
            }
            Ok(response)
        }
        fn memory_bytes(&self) -> usize {
            AnnIndex::memory_bytes(&self.inner)
        }
    }

    #[test]
    fn malformed_replica_response_fails_over_instead_of_aborting() {
        let base = corpus(50, 4);
        let members: Vec<Box<dyn FallibleIndex>> = vec![
            Box::new(EvilReplica {
                inner: FlatIndex::new(base.clone()),
                offset: 1_000,
            }),
            {
                let healthy: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base.clone()));
                Box::new(healthy)
            },
        ];
        let group =
            ReplicaGroup::from_replicas(members, RoutingPolicy::Primary, HealthConfig::default());
        let req = SearchRequest::new(base.get(4).to_vec(), 5);
        let want = FlatIndex::new(base.clone()).search(&req);
        // Under a sharded coordinator the out-of-range ids would have
        // panicked at gather time; the group must instead reject the
        // malformed answer, retry the sibling, and mark the liar down.
        let got = group.search(&req);
        assert_eq!(got.hits, want.hits);
        assert!(got.hits.iter().all(|h| (h.id as usize) < group.len()));
        let stats = group.failover_stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.markdowns, 1);
        assert!(group.is_marked_down(0), "byzantine replica is marked down");

        // And the full stack serves correct global results through it.
        let sharded = ShardedIndex::from_parts(
            vec![(Box::new(group) as Box<dyn AnnIndex>, (0..50).collect())],
            ShardPolicy::RoundRobin,
            Arc::new(WorkerPool::new(2)),
        );
        assert_eq!(sharded.search(&req).hits, want.hits);
    }

    #[test]
    #[should_panic(expected = "all 2 replicas failed")]
    fn fully_failed_group_panics_with_context() {
        let base = corpus(10, 4);
        let group = group_with_plans(
            &base,
            vec![
                Some(FaultPlan::new().die_at(0)),
                Some(FaultPlan::new().die_at(0)),
            ],
            RoutingPolicy::Primary,
            HealthConfig::default(),
        );
        let _ = group.search(&SearchRequest::new(base.get(0).to_vec(), 3));
    }

    #[test]
    fn group_rejects_mismatched_replicas() {
        let a = corpus(10, 4);
        let b = corpus(12, 4);
        let mut members = flat_replicas(&a, 1);
        members.extend(flat_replicas(&b, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReplicaGroup::from_replicas(members, RoutingPolicy::Primary, HealthConfig::default())
        }));
        assert!(result.is_err(), "length mismatch must be rejected");
    }

    #[test]
    fn replicated_index_shards_and_replicates() {
        let base = corpus(90, 8);
        let builder = IndexBuilder::new(engine::GraphKind::Hnsw, engine::Coding::Full)
            .c(32)
            .r(8)
            .seed(3);
        let replicated = ReplicatedIndex::build(
            base.clone(),
            &builder,
            3,
            2,
            ShardPolicy::RoundRobin,
            RoutingPolicy::RoundRobin,
            HealthConfig::default(),
            4,
        );
        assert_eq!(replicated.len(), 90);
        assert_eq!(replicated.shard_count(), 3);
        assert_eq!(replicated.replica_count(), 2);
        assert_eq!(replicated.routing(), RoutingPolicy::RoundRobin);
        let req = SearchRequest::new(base.get(7).to_vec(), 6)
            .ef(128)
            .rerank(16);
        let want = FlatIndex::new(base.clone()).search(&req);
        assert_eq!(replicated.search(&req).hits, want.hits);
        // Replicas are physical copies: memory doubles relative to 1 shard
        // of each (roughly — compare against the unreplicated build).
        let unreplicated = ShardedIndex::build(base, &builder, 3, ShardPolicy::RoundRobin, 2);
        assert!(replicated.memory_bytes() > unreplicated.memory_bytes());
    }
}
