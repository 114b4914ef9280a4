//! End-to-end scenario harness tests: determinism of the whole report,
//! fault-storm recall parity, churn accounting, and the remote topology
//! against live in-process nodes.

use metrics::{BenchReport, Json, MetricsRegistry};
use scenario::{by_name, ScenarioRunner, TopologySpec};
use serving::distributed::{EventServer, NodeAddr, NodeHandler};
use serving::{ShardPolicy, ShardedIndex};
use std::sync::Arc;

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::bind_node;

fn parsed(report: &BenchReport) -> Json {
    let text = report.to_pretty_string();
    let json = Json::parse(&text).expect("report must round-trip through the parser");
    BenchReport::validate(&json).expect("report must satisfy the BENCH schema");
    json
}

#[test]
fn every_scenario_emits_schema_valid_deterministic_reports() {
    for scenario in scenario::all(true) {
        let a = scenario.runner(7).run().expect("run a");
        let b = scenario.runner(7).run().expect("run b");
        assert!(
            a.queries > 0,
            "{}: workload produced no queries",
            scenario.name
        );
        assert!(
            a.recall_samples > 0,
            "{}: oracle sampled no queries",
            scenario.name
        );
        assert_eq!(
            parsed(&a),
            parsed(&b),
            "{}: same seed + topology must reproduce the whole report",
            scenario.name
        );
        // A different seed must actually change the stream.
        let c = scenario.runner(8).run().expect("run c");
        assert_ne!(
            parsed(&a),
            parsed(&c),
            "{}: different seeds should not collide",
            scenario.name
        );
    }
}

/// The trace-plane acceptance gate: identical seed + topology must
/// reproduce the span trees byte-for-byte once the timing fields
/// (`elapsed_ns`) are stripped — across a cached flat topology and a
/// replicated fault-storm topology.
#[test]
fn trace_structure_is_deterministic_modulo_timing() {
    for name in ["steady_zipf", "fault_storm"] {
        let scenario = by_name(name, true).unwrap();
        let (report_a, traces_a) = scenario.runner(7).run_traced().expect("run a");
        let (_, traces_b) = scenario.runner(7).run_traced().expect("run b");
        assert_eq!(
            traces_a.len() as u64,
            report_a.queries,
            "{name}: one trace per query"
        );
        let structural = |traces: &[Json]| -> Vec<String> {
            traces
                .iter()
                .map(|t| without_elapsed(t).to_compact_string())
                .collect()
        };
        assert_eq!(
            structural(&traces_a),
            structural(&traces_b),
            "{name}: same seed + topology must give byte-identical trace structure"
        );
        let total_spans: usize = structural(&traces_a)
            .iter()
            .map(|t| t.matches("\"kind\":").count())
            .sum();
        assert!(
            total_spans >= traces_a.len(),
            "{name}: every query must record at least one span"
        );
        let summary = report_a.trace.expect("runner always folds a trace summary");
        assert_eq!(
            summary.dropped, 0,
            "{name}: the ring must be sized so no span is dropped"
        );
        assert_eq!(summary.traces, report_a.queries);
    }
}

/// `json` with every `elapsed_ns` key removed at any depth: the one timing
/// field of an exported trace.
fn without_elapsed(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "elapsed_ns")
                .map(|(k, v)| (k.clone(), without_elapsed(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_elapsed).collect()),
        other => other.clone(),
    }
}

/// Every `shard_fanout` and `rerank` span must time the interval it
/// names. Today both are recorded as points (`elapsed_ns == 0`).
#[test]
#[ignore = "ROADMAP C3: shard_fanout/rerank spans record no interval"]
fn spans_cover_the_interval_they_name() {
    let scenario = by_name("steady_zipf", true).unwrap();
    let (_, traces) = scenario.runner(7).run_traced().expect("traced run");
    let mut checked = 0;
    for trace in &traces {
        for span in trace.get("spans").and_then(Json::as_arr).unwrap() {
            let kind = span.get("kind").and_then(Json::as_str).unwrap();
            if kind == "shard_fanout" || kind == "rerank" {
                let elapsed = span.get("elapsed_ns").and_then(Json::as_u64).unwrap();
                assert!(elapsed > 0, "a {kind} span records no interval: {span:?}");
                checked += 1;
            }
        }
    }
    assert!(
        checked > 0,
        "steady_zipf must record shard_fanout and rerank spans"
    );
}

/// Every `shard_fanout` span times the fan-out it names: the fan-out half
/// of `spans_cover_the_interval_they_name`, whose `rerank` half is open.
#[test]
fn shard_fanout_spans_time_the_fan_out() {
    let scenario = by_name("steady_zipf", true).unwrap();
    let (_, traces) = scenario.runner(7).run_traced().expect("traced run");
    let mut checked = 0;
    for trace in &traces {
        for span in trace.get("spans").and_then(Json::as_arr).unwrap() {
            if span.get("kind").and_then(Json::as_str) == Some("shard_fanout") {
                let elapsed = span.get("elapsed_ns").and_then(Json::as_u64).unwrap();
                assert!(
                    elapsed > 0,
                    "a shard_fanout span records no interval: {span:?}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "steady_zipf must record shard_fanout spans");
}

/// Running a scenario publishes the stack's live stats objects into the
/// process-wide registry under stable `layer.component.metric` names,
/// and the registry snapshot stays parseable JSON.
#[test]
fn run_publishes_live_sources_into_the_global_registry() {
    let scenario = by_name("fault_storm", true).unwrap();
    scenario.runner(5).run_traced().expect("storm run");
    let registry = MetricsRegistry::global();
    let names = registry.names();
    for required in ["scenario.trace.ring", "serving.replica.failover"] {
        assert!(
            names.iter().any(|n| n == required),
            "registry must expose {required}, have {names:?}"
        );
    }
    let text = registry.snapshot().to_pretty_string();
    Json::parse(&text).expect("registry snapshot must parse as JSON");
    // The sources read the live stack, not a stale copy.
    assert!(text.contains("markdowns"), "failover source must evaluate");
    assert!(text.contains("dropped"), "trace-ring source must evaluate");
}

#[test]
fn fault_storm_recall_matches_the_healthy_run() {
    let scenario = by_name("fault_storm", true).unwrap();
    let stormy = scenario.runner(11).run().expect("stormy run");

    let mut healthy_spec = scenario.spec.clone();
    healthy_spec.seed = 11;
    healthy_spec.fault_storm = None;
    let healthy = ScenarioRunner::new(
        "fault_storm_healthy",
        healthy_spec,
        scenario.default_topology.clone(),
    )
    .run()
    .expect("healthy run");

    // Replicas are bit-identical builds, so failover onto the surviving
    // replica returns the same hits: recall must match exactly.
    assert_eq!(stormy.queries, healthy.queries);
    assert_eq!(stormy.recall_samples, healthy.recall_samples);
    assert_eq!(
        stormy.recall_at_k, healthy.recall_at_k,
        "failover must not cost recall while one replica per shard survives"
    );

    let storm_stats = stormy
        .failover
        .expect("replicated topology reports failover");
    let healthy_stats = healthy.failover.expect("healthy run still replicated");
    assert!(storm_stats.retries > 0, "storm must force retries");
    assert!(storm_stats.markdowns > 0, "victims must be marked down");
    assert!(storm_stats.probes > 0, "down replicas must be probed");
    assert!(storm_stats.recoveries > 0, "revived victims must recover");
    assert_eq!(healthy_stats.errors, 0, "healthy run must see no errors");
    assert_eq!(healthy_stats.markdowns, 0);
}

#[test]
fn churn_lsm_accounts_for_every_mutation() {
    let scenario = by_name("churn_lsm", true).unwrap();
    let spec = &scenario.spec;
    let report = scenario.runner(3).run().expect("churn run");

    let bursts = (spec.ticks - 1) / spec.mutate_every;
    assert_eq!(
        report.mutations.inserts,
        (bursts * spec.insert_burst) as u64,
        "every scheduled insert must land"
    );
    assert!(
        report.mutations.deletes > 0,
        "some delete attempts must land"
    );
    assert!(
        report.mutations.deletes <= (bursts * spec.delete_burst) as u64,
        "deletes are attempts, not guarantees"
    );
    assert!(
        report.mutations.generation >= report.mutations.inserts + report.mutations.deletes,
        "generation must move at least once per mutation"
    );

    let cache = report.cache.expect("churn scenario runs with a cache");
    assert_eq!(
        cache.hits + cache.misses + cache.uncacheable,
        report.queries,
        "cache counters must account for every query"
    );
    assert!(
        cache.uncacheable > 0,
        "predicate-filtered queries are uncacheable"
    );
    assert!(
        report.recall_at_k > 0.8,
        "overlay merge must preserve recall, got {}",
        report.recall_at_k
    );

    // Tenants partition the query stream exactly.
    let per_tenant: u64 = report.tenants.iter().map(|t| t.queries).sum();
    assert_eq!(per_tenant, report.queries);
    assert!(report.tenants.iter().all(|t| t.queries > 0));
}

/// The cost-profile acceptance gate: the `profile` section is a
/// deterministic function of `(seed, topology)` — byte-identical across
/// identically-seeded runs on both a cached-sharded topology and a
/// replicated fault-storm topology — and actually counts work.
#[test]
fn profile_sections_are_byte_identical_per_seed() {
    for name in ["steady_zipf", "fault_storm"] {
        let scenario = by_name(name, true).unwrap();
        let a = scenario.runner(7).run().expect("run a");
        let b = scenario.runner(7).run().expect("run b");
        let section = |report: &BenchReport| {
            parsed(report)
                .get("profile")
                .expect("schema requires the profile key")
                .to_compact_string()
        };
        assert_eq!(
            section(&a),
            section(&b),
            "{name}: same seed + topology must reproduce the profile bytes"
        );
        assert!(
            a.profile.dist_coded + a.profile.dist_exact > 0,
            "{name}: queries must evaluate distances"
        );
        assert!(
            a.profile.hops_base > 0 || a.profile.dist_exact > 0,
            "{name}: graph hops or flat scans must be counted"
        );
        let slo = a.slo.as_ref().expect("runner always evaluates SLOs");
        assert!(slo.ticks > 0, "{name}: SLO clock must advance");
        assert_eq!(
            parsed(&a).get("slo").unwrap().to_compact_string(),
            parsed(&b).get("slo").unwrap().to_compact_string(),
            "{name}: the slo section is structural"
        );
    }
}

/// Coordinator-side aggregated profiles must reconcile exactly with the
/// sum of the per-node ledgers scraped over the wire: every counter the
/// coordinator reports was counted once on exactly one node.
#[test]
fn coordinator_profile_reconciles_with_node_ledgers() {
    use serving::distributed::{Message, SocketTransport, Transport};

    let scenario = by_name("steady_zipf", true).unwrap();
    let mut spec = scenario.spec.clone();
    spec.seed = 23;

    let (base, _, _) = spec.materialize();
    let builder = spec.builder();
    let parts = ShardedIndex::partition(&base, 2, ShardPolicy::RoundRobin);
    let mut servers: Vec<EventServer> = parts
        .into_iter()
        .map(|(set, _ids)| {
            let index: Arc<dyn engine::AnnIndex> = Arc::from(builder.build(set));
            bind_node(
                &"tcp:127.0.0.1:0".parse::<NodeAddr>().unwrap(),
                NodeHandler::new(index),
                2,
            )
        })
        .collect();
    let nodes: Vec<NodeAddr> = servers.iter().map(|s| s.addr().clone()).collect();

    let report = ScenarioRunner::new(
        "steady_zipf_reconcile",
        spec,
        TopologySpec::Remote {
            nodes: nodes.clone(),
            timeout_ms: 2_000,
        },
    )
    .run()
    .expect("remote run");

    let mut ledger_sum = metrics::QueryProfile::new();
    for addr in &nodes {
        let transport = SocketTransport::connect(addr.clone()).expect("dial node");
        match transport
            .exchange(&Message::StatsRequest)
            .expect("stats scrape")
        {
            Message::StatsResponse(stats) => ledger_sum.add(&stats.profile),
            other => panic!("unexpected {other:?} answering a stats scrape"),
        }
    }
    assert!(
        ledger_sum.dist_coded + ledger_sum.dist_exact > 0,
        "the nodes must have done the distance work"
    );
    assert_eq!(
        report.profile, ledger_sum,
        "the coordinator's aggregate must equal the sum of the node ledgers"
    );

    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn remote_topology_drives_in_process_nodes() {
    let scenario = by_name("steady_zipf", true).unwrap();
    let mut spec = scenario.spec.clone();
    spec.seed = 21;

    // Host the scenario's own generated base on two nodes, partitioned
    // exactly the way the runner maps ids (round-robin).
    let (base, _, _) = spec.materialize();
    let builder = spec.builder();
    let parts = ShardedIndex::partition(&base, 2, ShardPolicy::RoundRobin);
    let mut servers: Vec<EventServer> = parts
        .into_iter()
        .map(|(set, _ids)| {
            let index: Arc<dyn engine::AnnIndex> = Arc::from(builder.build(set));
            bind_node(
                &"tcp:127.0.0.1:0".parse::<NodeAddr>().unwrap(),
                NodeHandler::new(index),
                2,
            )
        })
        .collect();
    let nodes: Vec<NodeAddr> = servers.iter().map(|s| s.addr().clone()).collect();

    let report = ScenarioRunner::new(
        "steady_zipf_remote",
        spec,
        TopologySpec::Remote {
            nodes,
            timeout_ms: 2_000,
        },
    )
    .run()
    .expect("remote run");

    assert!(report.queries > 0);
    assert!(
        report.recall_at_k > 0.5,
        "remote recall collapsed: {}",
        report.recall_at_k
    );
    assert_eq!(report.topology, "nodes:2");
    let transport = report.transport.expect("remote topology reports transport");
    assert!(transport.frames_sent > 0);
    assert!(transport.bytes_received > 0);
    assert_eq!(transport.timeouts, 0, "no timeouts expected on loopback");
    parsed(&report);

    for server in &mut servers {
        server.shutdown();
    }
}
