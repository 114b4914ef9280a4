//! Workload specification → deterministic event stream.
//!
//! A [`WorkloadSpec`] is a pure description: every knob that shapes the
//! traffic lives here, and [`WorkloadSpec::events`] lowers it into a flat
//! event list using only the spec's seed — no wall clock, no OS entropy.
//! Two calls with the same spec produce byte-identical streams, which is
//! the property the whole harness's reproducibility rests on (in the
//! spirit of Flock's seeded Nexmark source: the generator owns all the
//! randomness, the runner owns none).

use engine::{Coding, GraphKind, IndexBuilder};
use rand::distributions::{Poisson, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serving::{FaultPlan, RoutingPolicy};
use vecstore::{generate, DatasetSpec, VectorSet};

/// Per-tick arrival schedule: how many queries land in each tick.
///
/// Each shape yields a mean arrival rate per tick; the actual count is a
/// Poisson draw around it, so even "steady" traffic has realistic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Constant mean rate.
    Steady {
        /// Mean queries per tick.
        rate: f64,
    },
    /// A raised-cosine day curve: rate swings between `trough` and `peak`
    /// over `period` ticks (the diurnal pattern serving fleets size for).
    Diurnal {
        /// Mean rate at the quietest tick.
        trough: f64,
        /// Mean rate at the busiest tick.
        peak: f64,
        /// Ticks per full day cycle.
        period: usize,
    },
    /// Baseline traffic with periodic spikes: every `every` ticks the rate
    /// jumps to `burst` for `width` ticks.
    Bursty {
        /// Mean rate outside bursts.
        base: f64,
        /// Mean rate inside a burst.
        burst: f64,
        /// Tick distance between burst starts.
        every: usize,
        /// Burst duration in ticks.
        width: usize,
    },
}

impl ArrivalShape {
    /// Mean arrival rate at `tick`.
    pub fn rate_at(&self, tick: usize) -> f64 {
        match *self {
            ArrivalShape::Steady { rate } => rate,
            ArrivalShape::Diurnal {
                trough,
                peak,
                period,
            } => {
                let period = period.max(1);
                let phase = (tick % period) as f64 / period as f64;
                let swing = (1.0 - (2.0 * std::f64::consts::PI * phase).cos()) / 2.0;
                trough + (peak - trough) * swing
            }
            ArrivalShape::Bursty {
                base,
                burst,
                every,
                width,
            } => {
                let every = every.max(1);
                if tick % every < width {
                    burst
                } else {
                    base
                }
            }
        }
    }

    /// Short label for report config echoing.
    pub fn label(&self) -> String {
        match *self {
            ArrivalShape::Steady { rate } => format!("steady:{rate}"),
            ArrivalShape::Diurnal {
                trough,
                peak,
                period,
            } => format!("diurnal:{trough}..{peak}/{period}"),
            ArrivalShape::Bursty {
                base,
                burst,
                every,
                width,
            } => format!("bursty:{base}+{burst}x{width}/{every}"),
        }
    }
}

/// A scripted fault storm lowered onto [`FaultPlan`]s at topology-build
/// time: replica 0 of every shard is left healthy (the survivor the
/// recall-parity guarantee rests on), every other replica takes a
/// transient error, dies, and — if `revive_after > 0` — comes back to be
/// probed and recovered.
///
/// All trigger points are **per-replica call counts**, not wall-clock
/// times, so the storm unfolds identically on every run of the same
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStorm {
    /// Victim replicas fail transiently on this call (0-based).
    pub transient_at: u64,
    /// Victim replicas die on this call.
    pub die_at: u64,
    /// Calls after death at which a victim revives (`0` = stays dead).
    pub revive_after: u64,
    /// Extra per-victim offset (`stagger × (shard + replica)`) so the
    /// fleet degrades progressively instead of all at once.
    pub stagger: u64,
}

impl FaultStorm {
    /// The fault script for replica `replica` of shard `shard`; `None`
    /// for the designated survivor (replica 0).
    pub fn plan_for(&self, shard: usize, replica: usize) -> Option<FaultPlan> {
        if replica == 0 {
            return None;
        }
        let offset = self.stagger * (shard as u64 + replica as u64);
        let die = self.die_at + offset;
        let mut plan = FaultPlan::new()
            .fail_on(self.transient_at + offset)
            .die_at(die);
        if self.revive_after > 0 {
            plan = plan.revive_at(die + self.revive_after);
        }
        Some(plan)
    }
}

/// Virtual-time admission control for overload scenarios.
///
/// The live event-driven front-end sheds on wall-clock deadlines, which
/// no deterministic harness can replay bit-for-bit. The scenario runner
/// therefore applies the *same policy in virtual time*: ticks are the
/// clock, `capacity_per_tick` is the node's service rate, and the
/// admitted/shed/retried counters become pure functions of the spec —
/// identical across identically-seeded runs.
///
/// Per tick: arrivals join a FIFO queue (overflow past `max_queue` is
/// shed on arrival), `capacity_per_tick` requests are served from the
/// front, and anything still queued after `deadline_ticks` is shed.
/// A shed request with retries left re-arrives next tick (the client's
/// `Overloaded` → transient-fault retry); past `retry_limit` it is
/// answered `Overloaded` for good. Every request therefore ends
/// admitted or shed — none hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSpec {
    /// Requests served per tick (the virtual service rate).
    pub capacity_per_tick: usize,
    /// Queue length past which arrivals are shed immediately.
    pub max_queue: usize,
    /// Ticks a request may wait before being shed.
    pub deadline_ticks: usize,
    /// Times a shed request re-arrives before staying shed.
    pub retry_limit: u32,
}

impl AdmissionSpec {
    /// Report label for config echoing.
    pub fn label(&self) -> String {
        format!(
            "cap:{}/q:{}/dl:{}/retry:{}",
            self.capacity_per_tick, self.max_queue, self.deadline_ticks, self.retry_limit
        )
    }
}

/// One query arrival, fully resolved by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEvent {
    /// Tick the query arrived in.
    pub tick: usize,
    /// Issuing tenant (`0..tenants`).
    pub tenant: u32,
    /// Index into the query pool (Zipf-skewed: low = popular).
    pub pool_index: usize,
    /// Label partition hint, when the query is labeled.
    pub label: Option<u32>,
    /// Whether the query carries the even-id predicate filter.
    pub filtered: bool,
}

/// One element of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A query arrival.
    Query(QueryEvent),
    /// A mutation burst: apply `inserts` insertions and attempt `deletes`
    /// deletions (against ids the runner picks deterministically).
    Mutate {
        /// Vectors to insert from the spec's insert stream.
        inserts: usize,
        /// Deletion attempts.
        deletes: usize,
    },
}

/// Everything that defines a workload. See module docs; the key contract
/// is that [`Self::events`], [`Self::materialize`], and the runner's
/// derived randomness are all pure functions of this struct.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Master seed: drives dataset synthesis, the event stream, and the
    /// runner's delete-target picks (via fixed derived seeds).
    pub seed: u64,
    /// Synthetic embedding distribution for base/query/insert vectors.
    pub dataset: DatasetSpec,
    /// Base corpus size at t=0.
    pub base_n: usize,
    /// Distinct query vectors; Zipf popularity ranks over this pool.
    pub query_pool: usize,
    /// Number of ticks to simulate.
    pub ticks: usize,
    /// Arrival schedule.
    pub arrival: ArrivalShape,
    /// Zipf exponent of query popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Neighbors requested per query.
    pub k: usize,
    /// Beam width.
    pub ef: usize,
    /// Exact-rerank factor.
    pub rerank: usize,
    /// Executor batch size (1 serializes the stream — required for
    /// deterministic failover counters under a fault storm).
    pub batch: usize,
    /// Tenants round-tripped through per-tenant accounting.
    pub tenants: u32,
    /// Fraction of queries carrying a label hint.
    pub labeled_fraction: f64,
    /// Label alphabet size.
    pub labels: u32,
    /// Fraction of queries carrying the even-id predicate filter
    /// (uncacheable; demoted to plain on predicate-less topologies).
    pub filtered_fraction: f64,
    /// Ticks between mutation bursts (`0` = immutable corpus).
    pub mutate_every: usize,
    /// Insertions per burst.
    pub insert_burst: usize,
    /// Deletion attempts per burst.
    pub delete_burst: usize,
    /// Recall is measured on every `oracle_every`-th query (≥ 1).
    pub oracle_every: usize,
    /// Scripted fault storm (applies on replicated topologies).
    pub fault_storm: Option<FaultStorm>,
    /// Virtual-time admission control (`None` = everything admitted).
    pub admission: Option<AdmissionSpec>,
    /// Graph family of the index under test.
    pub graph: GraphKind,
    /// Coding scheme of the index under test.
    pub coding: Coding,
    /// Build-time candidate-list size.
    pub build_c: usize,
    /// Build-time degree bound.
    pub build_r: usize,
    /// Build seed (independent of the workload seed so the same corpus
    /// can be served by differently-seeded builds).
    pub build_seed: u64,
    /// Routing policy for replicated topologies. `LoadAware` routes on
    /// wall-clock load and would leak timing into the counters, so
    /// deterministic scenarios stick to `Primary`/`RoundRobin`.
    pub routing: RoutingPolicy,
}

impl WorkloadSpec {
    /// A small, fully-specified default: steady traffic, no mutations,
    /// no faults. Named scenarios start from this and override.
    pub fn base(seed: u64) -> Self {
        Self {
            seed,
            dataset: DatasetSpec::new(48, 32, 0.97, 0.45, 901),
            base_n: 2_000,
            query_pool: 256,
            ticks: 40,
            arrival: ArrivalShape::Steady { rate: 50.0 },
            zipf_exponent: 1.1,
            k: 10,
            ef: 96,
            rerank: 4,
            batch: 32,
            tenants: 4,
            labeled_fraction: 0.2,
            labels: 8,
            filtered_fraction: 0.1,
            mutate_every: 0,
            insert_burst: 0,
            delete_burst: 0,
            oracle_every: 16,
            fault_storm: None,
            admission: None,
            graph: GraphKind::Hnsw,
            coding: Coding::Flash,
            build_c: 48,
            build_r: 8,
            build_seed: 0x5EED,
            routing: RoutingPolicy::RoundRobin,
        }
    }

    /// Derived seed for a named sub-stream, so the event stream, the
    /// dataset, and the runner's delete picks never share generator state.
    fn sub_seed(&self, stream: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(stream)
    }

    /// Synthesizes `(base, query_pool, insert_stream)` for this spec.
    /// The insert stream holds every vector the mutation bursts can
    /// consume, drawn from the same distribution as the base corpus.
    pub fn materialize(&self) -> (VectorSet, VectorSet, VectorSet) {
        let (base, queries) = generate(
            &self.dataset,
            self.base_n,
            self.query_pool,
            self.sub_seed(1),
        );
        let total_inserts = self.total_inserts();
        let (inserts, _) = generate(&self.dataset, total_inserts.max(1), 0, self.sub_seed(2));
        (base, queries, inserts)
    }

    /// Upper bound of insertions the event stream can request.
    pub fn total_inserts(&self) -> usize {
        if self.mutate_every == 0 {
            return 0;
        }
        let bursts = (self.ticks.saturating_sub(1)) / self.mutate_every;
        bursts * self.insert_burst
    }

    /// The engine builder for the index under test.
    pub fn builder(&self) -> IndexBuilder {
        IndexBuilder::new(self.graph, self.coding)
            .c(self.build_c)
            .r(self.build_r)
            .seed(self.build_seed)
    }

    /// Lowers the spec into its deterministic event stream.
    pub fn events(&self) -> Vec<Event> {
        assert!(self.query_pool > 0, "query pool must be non-empty");
        let mut rng = SmallRng::seed_from_u64(self.sub_seed(3));
        let zipf = Zipf::new(self.query_pool, self.zipf_exponent);
        let mut events = Vec::new();
        for tick in 0..self.ticks {
            if self.mutate_every > 0 && tick > 0 && tick % self.mutate_every == 0 {
                events.push(Event::Mutate {
                    inserts: self.insert_burst,
                    deletes: self.delete_burst,
                });
            }
            let arrivals = Poisson::new(self.arrival.rate_at(tick)).sample(&mut rng);
            for _ in 0..arrivals {
                let pool_index = zipf.sample(&mut rng);
                let tenant = if self.tenants > 1 {
                    rng.gen_range(0..self.tenants)
                } else {
                    0
                };
                let label = rng
                    .gen_bool(self.labeled_fraction)
                    .then(|| rng.gen_range(0..self.labels.max(1)));
                let filtered = rng.gen_bool(self.filtered_fraction);
                events.push(Event::Query(QueryEvent {
                    tick,
                    tenant,
                    pool_index,
                    label,
                    filtered,
                }));
            }
        }
        events
    }

    /// Seed of the runner's delete-target stream (exposed so tests can
    /// replay it).
    pub fn delete_seed(&self) -> u64 {
        self.sub_seed(4)
    }

    /// Config pairs echoed into the report (non-timing knobs only).
    pub fn config_pairs(&self) -> Vec<(String, metrics::Json)> {
        use metrics::Json;
        vec![
            ("dim".into(), Json::uint(self.dataset.dim as u64)),
            ("base_n".into(), Json::uint(self.base_n as u64)),
            ("query_pool".into(), Json::uint(self.query_pool as u64)),
            ("ticks".into(), Json::uint(self.ticks as u64)),
            ("arrival".into(), Json::str(self.arrival.label())),
            ("zipf_exponent".into(), Json::num(self.zipf_exponent)),
            ("k".into(), Json::uint(self.k as u64)),
            ("ef".into(), Json::uint(self.ef as u64)),
            ("rerank".into(), Json::uint(self.rerank as u64)),
            ("batch".into(), Json::uint(self.batch as u64)),
            ("tenants".into(), Json::uint(u64::from(self.tenants))),
            ("labeled_fraction".into(), Json::num(self.labeled_fraction)),
            (
                "filtered_fraction".into(),
                Json::num(self.filtered_fraction),
            ),
            ("mutate_every".into(), Json::uint(self.mutate_every as u64)),
            ("insert_burst".into(), Json::uint(self.insert_burst as u64)),
            ("delete_burst".into(), Json::uint(self.delete_burst as u64)),
            ("oracle_every".into(), Json::uint(self.oracle_every as u64)),
            (
                "method".into(),
                Json::str(format!("{}:{}", self.graph.name(), self.coding.name())),
            ),
            (
                "fault_storm".into(),
                match &self.fault_storm {
                    Some(s) => Json::str(format!(
                        "transient@{}+die@{}+revive@{}x{}",
                        s.transient_at, s.die_at, s.revive_after, s.stagger
                    )),
                    None => Json::Null,
                },
            ),
            (
                "admission".into(),
                match &self.admission {
                    Some(a) => Json::str(a.label()),
                    None => Json::Null,
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_streams_are_deterministic_per_seed() {
        let spec = WorkloadSpec::base(9);
        assert_eq!(spec.events(), spec.events());
        let other = WorkloadSpec::base(10);
        assert_ne!(spec.events(), other.events());
    }

    #[test]
    fn mutation_bursts_land_on_schedule() {
        let mut spec = WorkloadSpec::base(5);
        spec.ticks = 10;
        spec.mutate_every = 3;
        spec.insert_burst = 7;
        spec.delete_burst = 2;
        let events = spec.events();
        let bursts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Mutate {
                        inserts: 7,
                        deletes: 2
                    }
                )
            })
            .count();
        // Ticks 3, 6, 9 mutate.
        assert_eq!(bursts, 3);
        assert_eq!(spec.total_inserts(), 21);
    }

    #[test]
    fn zipf_head_dominates_query_pool() {
        let mut spec = WorkloadSpec::base(2);
        spec.ticks = 60;
        spec.zipf_exponent = 1.2;
        let mut counts = vec![0usize; spec.query_pool];
        for e in spec.events() {
            if let Event::Query(q) = e {
                counts[q.pool_index] += 1;
            }
        }
        let tail: usize = counts[spec.query_pool / 2..].iter().sum();
        assert!(counts[0] > counts[spec.query_pool / 4]);
        assert!(counts[0] * 2 > tail, "head rank must dwarf the deep tail");
    }

    #[test]
    fn arrival_shapes_swing_as_described() {
        let d = ArrivalShape::Diurnal {
            trough: 10.0,
            peak: 90.0,
            period: 20,
        };
        assert!((d.rate_at(0) - 10.0).abs() < 1e-9);
        assert!((d.rate_at(10) - 90.0).abs() < 1e-9);
        assert!((d.rate_at(20) - 10.0).abs() < 1e-9, "periodic");
        let b = ArrivalShape::Bursty {
            base: 5.0,
            burst: 50.0,
            every: 10,
            width: 2,
        };
        assert_eq!(b.rate_at(0), 50.0);
        assert_eq!(b.rate_at(1), 50.0);
        assert_eq!(b.rate_at(2), 5.0);
        assert_eq!(b.rate_at(10), 50.0);
    }

    #[test]
    fn fault_storm_spares_replica_zero() {
        let storm = FaultStorm {
            transient_at: 4,
            die_at: 10,
            revive_after: 8,
            stagger: 2,
        };
        assert!(storm.plan_for(0, 0).is_none());
        assert!(storm.plan_for(3, 0).is_none());
        let plan = storm.plan_for(1, 1).unwrap();
        assert!(!plan.is_healthy());
        // Permanent-death variant still plans for non-survivors.
        let forever = FaultStorm {
            revive_after: 0,
            ..storm
        };
        assert!(forever.plan_for(0, 2).is_some());
    }

    #[test]
    fn materialize_shapes_match_spec() {
        let mut spec = WorkloadSpec::base(3);
        spec.mutate_every = 5;
        spec.insert_burst = 4;
        let (base, pool, inserts) = spec.materialize();
        assert_eq!(base.len(), spec.base_n);
        assert_eq!(pool.len(), spec.query_pool);
        assert_eq!(inserts.len(), spec.total_inserts());
        assert_eq!(base.dim(), spec.dataset.dim);
        // Same spec ⇒ same bytes.
        let (base2, _, _) = spec.materialize();
        assert_eq!(base, base2);
    }
}
