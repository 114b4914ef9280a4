//! The names the benchmark reports and the workloads it runs. `BENCHMARK.json`
//! at the repository root declares the same names; a unit test keeps the two
//! equal in both directions.

use crate::inputs::ChurnPlan;
use hnsw_flash::engine::{Coding, GraphKind, IndexBuilder, SearchRequest};
use hnsw_flash::metrics::Json;
use hnsw_flash::vecstore::{DatasetProfile, VectorSet};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;
/// Seconds a `--smoke` run measures unless told otherwise.
pub const SMOKE_SECONDS: u64 = 1;
/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_250_925;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Every timing
/// bound is the driver's cap, 0.25: on a shared two-core machine whole runs
/// come out 10-20 % slow for minutes at a time (see README.md).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("build_s", "s", Lower, 0.25),
    e2e("ingest_vps", "1/s", Higher, 0.25),
    e2e("recall_at_10", "fraction", Higher, 0.02),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_qps", "1/s", Higher, 0.25),
    e2e("query_qps_par", "1/s", Higher, 0.25),
    e2e("index_bytes_per_vector", "B", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.12),
];

/// What each layer costs, from the traced run (layer = module name).
pub const PER_LAYER: &[Metric] = &[
    layer("vecstore.generate_s", "s", Lower),
    layer("vecstore.ground_truth_s", "s", Lower),
    layer("flash.codec_train_s", "s", Lower),
    layer("flash.encode_s", "s", Lower),
    layer("flash.encode_ns_per_vector", "ns", Lower),
    layer("flash.code_bytes_per_vector", "B", Lower),
    layer("simdops.lut16_batch_ns", "ns", Lower),
    layer("simdops.l2_sq_ns_seq", "ns", Lower),
    layer("simdops.l2_sq_ns_random", "ns", Lower),
    layer("simdops.l2_sq_bytes_per_call", "B", Lower),
    layer("simdops.level", "bits", Higher),
    layer("graphs.hnsw_insert_s", "s", Lower),
    layer("graphs.hnsw_insert_us_per_vector", "us", Lower),
    layer("graphs.freeze_s", "s", Lower),
    layer("graphs.base_edges", "count", Lower),
    layer("graphs.avg_degree", "count", Lower),
    layer("graphs.search_layers_us", "us", Lower),
    layer("graphs.search_layers_cached_us", "us", Lower),
    layer("graphs.hops_base", "count", Lower),
    layer("graphs.dist_coded", "count", Lower),
    layer("graphs.dist_exact", "count", Lower),
    layer("graphs.visited_inserts", "count", Lower),
    layer("graphs.codeword_bytes", "B", Lower),
    layer("graphs.scratch_checkouts", "count", Higher),
    layer("graphs.dist_evals_per_hit", "count", Lower),
    layer("engine.leaf_search_us", "us", Lower),
    layer("engine.leaf_search_p99_us", "us", Lower),
    layer("engine.rerank_added_us", "us", Lower),
    layer("engine.build_unaccounted_frac", "fraction", Lower),
    layer("engine.wire_roundtrip_us", "us", Lower),
    layer("serving.shard.query_us", "us", Lower),
    layer("serving.shard.self_us", "us", Lower),
    layer("serving.shard.gathered_per_returned", "count", Lower),
    layer("serving.replica.self_us", "us", Lower),
    layer("serving.replica.retries", "count", Lower),
    layer("serving.replica.markdowns", "count", Lower),
    layer("serving.cache.hit_rate", "fraction", Higher),
    layer("serving.cache.hit_us", "us", Lower),
    layer("serving.cache.miss_added_us", "us", Lower),
    layer("serving.cache.evictions", "count", Lower),
    layer("serving.distributed.loopback_added_us", "us", Lower),
    layer("serving.distributed.tcp_added_us", "us", Lower),
    layer("serving.distributed.bytes_per_query", "B", Lower),
    layer("serving.distributed.shed", "count", Lower),
    layer("serving.distributed.errors", "count", Lower),
    layer("maintenance.insert_us", "us", Lower),
    layer("maintenance.flush_s", "s", Lower),
    layer("maintenance.flush_count", "count", Lower),
    layer("maintenance.stall_max_ms", "ms", Lower),
    layer("maintenance.segments_max", "count", Lower),
    layer("maintenance.dead_fraction_max", "fraction", Lower),
    layer("maintenance.search_us_per_segment", "us", Lower),
    layer("maintenance.rebuild_s", "s", Lower),
    layer("maintenance.rebuild_vectors", "count", Lower),
    layer("maintenance.reclaimed", "count", Higher),
    layer("metrics.trace_overhead_frac", "fraction", Lower),
];

/// Looks a declared metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed `IndexBuilder::build` calls, then queries on the bare leaf.
    Build,
    /// The cached, sharded, remote stack under a Zipf request stream.
    Serve,
    /// Inserts, deletes and searches through the LSM index, then a rebuild.
    Churn,
}

/// One workload: its inputs' sizes and the parameters handed to the program.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (`why` in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub profile: DatasetProfile,
    /// Database vectors.
    pub n: usize,
    /// Distinct held-out queries.
    pub nq: usize,
    /// Leading queries with exact ground truth (recall is measured on them).
    pub truth_q: usize,
    pub coding: Coding,
    pub c: usize,
    pub r: usize,
    pub k: usize,
    pub ef: usize,
    pub rerank: usize,
    /// Recall below this fails the run.
    pub recall_floor: f64,
    /// Requests per second of `--seconds` in the serve stream; the stream
    /// length is fixed by the arguments so the hit rate repeats per seed.
    pub zipf_per_second: usize,
    /// `CachedIndex` capacity of the serve stack.
    pub cache_capacity: usize,
    /// Hit rates the serve stream must land in: p50 is then solidly a
    /// full-stack miss and `query_qps` carries the hits.
    pub hit_rate_band: (f64, f64),
    /// The churn stream (`Kind::Churn` end to end; every traced run).
    pub churn: ChurnPlan,
    /// Queries the traced ladder replays through each rung.
    pub ladder_q: usize,
}

/// Zipf exponent of the serve stream.
pub const ZIPF_S: f64 = 1.1;
/// Shards (and nodes) of the serve stack.
pub const SHARDS: usize = 2;

/// The headline workload; the others state only where they differ.
const BUILD_FLASH: Spec = Spec {
    name: "build_flash_768",
    why: "Paper's headline path: LAION-like 768-d n=8000 hnsw:flash c=128 r=16; 3 rounds of build, then 2000 queries k=10 ef=128 rerank 8 on the bare leaf; serving stack and maintenance idle. Recall floor 0.98.",
    kind: Kind::Build,
    profile: DatasetProfile::LaionLike,
    n: 8_000,
    nq: 2_000,
    truth_q: 500,
    coding: Coding::Flash,
    c: 128,
    r: 16,
    k: 10,
    ef: 128,
    rerank: 8,
    recall_floor: 0.98,
    zipf_per_second: 0,
    cache_capacity: 12,
    hit_rate_band: (0.25, 0.35),
    churn: ChurnPlan {
        preload: 2_048,
        cycles: 2,
        inserts: 1_024,
        deletes: 256,
        searches: 100,
    },
    ladder_q: 500,
};

const CHURN: ChurnPlan = ChurnPlan {
    preload: 4_096,
    cycles: 10,
    inserts: 1_024,
    deletes: 256,
    searches: 500,
};

pub const WORKLOADS: &[Spec] = &[
    BUILD_FLASH,
    Spec {
        name: "build_full_768",
        why: "Same corpus, queries and graph with full-precision vectors: bypasses flash, quantizers, simdops::lut; witness for graph changes; denominator of the paper's fig06 speedup. Recall floor 0.99.",
        coding: Coding::Full,
        recall_floor: 0.99,
        ..BUILD_FLASH
    },
    Spec {
        name: "serve_zipf_stack",
        why: "SSNPP-like 256-d n=16000 hnsw:flash behind CachedIndex > ShardedIndex > 2 RemoteIndex/TCP EventServers; Zipf(1.1) over 2000 queries, hit rate 0.25-0.35: cache, shard, wire do the work. Floor 0.98.",
        kind: Kind::Serve,
        profile: DatasetProfile::SsnppLike,
        n: 16_000,
        zipf_per_second: 1_000,
        ..BUILD_FLASH
    },
    Spec {
        name: "churn_lsm",
        why: "SSNPP-like 256-d via LsmVectorIndex: preload 4096, 10 cycles of 1024 inserts, 256 deletes, 500 searches k=10 ef=96, rebuild; 3 replays: small codec trainings, tombstones, many segments. Floor 0.97.",
        kind: Kind::Churn,
        profile: DatasetProfile::SsnppLike,
        n: CHURN.preload + CHURN.cycles * CHURN.inserts,
        // `LsmConfig::for_dim`'s graph parameters, for the traced ladder.
        c: 96,
        r: 12,
        ef: 96,
        rerank: 1,
        recall_floor: 0.97,
        churn: CHURN,
        ..BUILD_FLASH
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at n <= 1200: structure and gates only, timings
    /// are not comparable.
    pub fn smoke(mut self) -> Spec {
        self.churn = ChurnPlan {
            preload: 600,
            cycles: 2,
            inserts: 300,
            deletes: 80,
            searches: 40,
        };
        self.n = self.churn.total_inserts();
        // 200 distinct queries are too few for the band to mean anything.
        self.hit_rate_band = (0.0, 1.0);
        self.nq = 200;
        self.truth_q = 100;
        self.ladder_q = 100;
        self.recall_floor -= 0.15;
        self
    }

    /// The builder every index of this workload comes from. Its seed is
    /// the program's configuration, not a benchmark input, and stays fixed.
    pub fn builder(&self) -> IndexBuilder {
        IndexBuilder::new(GraphKind::Hnsw, self.coding)
            .c(self.c)
            .r(self.r)
    }

    /// One request per distinct query.
    pub fn requests(&self, queries: &VectorSet, rerank: usize) -> Vec<SearchRequest> {
        queries
            .iter()
            .map(|q| SearchRequest::new(q, self.k).ef(self.ef).rerank(rerank))
            .collect()
    }
}

/// `BENCHMARK.json`, generated from the declarations above.
pub fn manifest() -> Json {
    let metrics = |list: &[Metric]| {
        Json::Arr(
            list.iter()
                .map(|m| {
                    let mut fields = vec![
                        ("name".to_string(), Json::str(m.name)),
                        ("unit".to_string(), Json::str(m.unit)),
                        ("better".to_string(), Json::str(m.better.as_str())),
                    ];
                    if let Some(bound) = m.bound {
                        fields.push(("bound".to_string(), Json::Num(bound)));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    };
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds".into(), Json::uint(RUN_SECONDS)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(w.name)),
                            ("why".into(), Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end".into(), metrics(END_TO_END)),
        ("per_layer".into(), metrics(PER_LAYER)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "metric name `{}`", m.name);
            assert!(valid_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "workload name `{}`", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(metric("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// The set of names the benchmark prints equals the set `BENCHMARK.json`
    /// declares — both directions, each with its unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<_> = metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(declared(&json, key), ours, "`{key}` differs");
        }
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
    }
}
