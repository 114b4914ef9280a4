//! The named scenario catalog.
//!
//! Each preset binds a [`WorkloadSpec`] to the topology it is designed to
//! stress and the headline metric to read off its `BENCH_*.json`:
//!
//! | name            | stresses                                   | key metric            |
//! |-----------------|--------------------------------------------|-----------------------|
//! | `steady_zipf`   | sharded fan-out + `QueryCache` under a     | cache hit rate        |
//! |                 | Zipf-skewed popularity curve               |                       |
//! | `diurnal_burst` | batching through a raised-cosine day       | span + profile counts |
//! |                 | curve with trough-to-peak swings           | under diurnal arrivals|
//! | `churn_lsm`     | LSM overlay merge + cache generation       | recall\@k under churn |
//! |                 | invalidation under insert/delete bursts    |                       |
//! | `fault_storm`   | replica failover: markdown, probing,       | recall parity +       |
//! |                 | recovery while replica 0 survives          | failover counters     |
//! | `overload`      | admission control under bursty arrivals:   | admitted/shed/retried |
//! |                 | virtual-time queueing, deadline shedding,  | counters              |
//! |                 | `Overloaded` retries                       |                       |
//!
//! Every preset has a `--smoke` variant: same shape and invariants,
//! shrunk an order of magnitude for CI.

use crate::runner::{ScenarioRunner, TopologySpec};
use crate::spec::{AdmissionSpec, ArrivalShape, FaultStorm, WorkloadSpec};
use vecstore::DatasetSpec;

/// Names every [`by_name`] accepts, in catalog order.
pub const SCENARIO_NAMES: [&str; 5] = [
    "steady_zipf",
    "diurnal_burst",
    "churn_lsm",
    "fault_storm",
    "overload",
];

/// A catalog entry: the workload plus its default stack.
pub struct Scenario {
    /// Catalog name (also the default `BENCH_<name>.json` stem).
    pub name: &'static str,
    /// What the scenario is designed to stress.
    pub stresses: &'static str,
    /// The headline metric to read off the report.
    pub key_metric: &'static str,
    /// The workload definition.
    pub spec: WorkloadSpec,
    /// Topology the scenario targets by default.
    pub default_topology: TopologySpec,
    /// Default `QueryCache` capacity (0 = no cache layer).
    pub default_cache: usize,
}

impl Scenario {
    /// A runner over the scenario's default stack with `seed` replacing
    /// the preset seed.
    pub fn runner(&self, seed: u64) -> ScenarioRunner {
        let mut spec = self.spec.clone();
        spec.seed = seed;
        ScenarioRunner::new(self.name, spec, self.default_topology.clone())
            .cache_capacity(self.default_cache)
    }
}

fn smoke_dataset() -> DatasetSpec {
    DatasetSpec::new(32, 16, 0.96, 0.5, 901)
}

fn steady_zipf(smoke: bool) -> Scenario {
    let mut spec = WorkloadSpec::base(0x51EAD);
    if smoke {
        spec.dataset = smoke_dataset();
        spec.base_n = 400;
        spec.query_pool = 64;
        spec.ticks = 10;
        spec.arrival = ArrivalShape::Steady { rate: 20.0 };
        spec.oracle_every = 8;
        spec.build_c = 32;
    } else {
        spec.base_n = 2_500;
        spec.ticks = 50;
        spec.arrival = ArrivalShape::Steady { rate: 40.0 };
    }
    Scenario {
        name: "steady_zipf",
        stresses: "sharded fan-out + QueryCache under Zipf-skewed popularity",
        key_metric: "cache hit rate",
        spec,
        default_topology: TopologySpec::Sharded { shards: 4 },
        default_cache: 256,
    }
}

fn diurnal_burst(smoke: bool) -> Scenario {
    let mut spec = WorkloadSpec::base(0xD1A1);
    spec.batch = 64;
    if smoke {
        spec.dataset = smoke_dataset();
        spec.base_n = 400;
        spec.query_pool = 64;
        spec.ticks = 12;
        spec.arrival = ArrivalShape::Diurnal {
            trough: 2.0,
            peak: 20.0,
            period: 6,
        };
        spec.oracle_every = 8;
        spec.build_c = 32;
    } else {
        spec.ticks = 72;
        spec.arrival = ArrivalShape::Diurnal {
            trough: 5.0,
            peak: 60.0,
            period: 24,
        };
    }
    Scenario {
        name: "diurnal_burst",
        stresses: "batch executor through trough-to-peak diurnal swings",
        key_metric: "span and profile counts under diurnal arrivals",
        spec,
        default_topology: TopologySpec::Sharded { shards: 4 },
        default_cache: 0,
    }
}

fn churn_lsm(smoke: bool) -> Scenario {
    let mut spec = WorkloadSpec::base(0xC4A2);
    if smoke {
        spec.dataset = smoke_dataset();
        spec.base_n = 300;
        spec.query_pool = 64;
        spec.ticks = 12;
        spec.arrival = ArrivalShape::Steady { rate: 12.0 };
        spec.mutate_every = 4;
        spec.insert_burst = 10;
        spec.delete_burst = 5;
        spec.oracle_every = 8;
        spec.build_c = 32;
    } else {
        spec.ticks = 60;
        spec.arrival = ArrivalShape::Steady { rate: 25.0 };
        spec.mutate_every = 6;
        spec.insert_burst = 40;
        spec.delete_burst = 20;
        spec.oracle_every = 12;
    }
    Scenario {
        name: "churn_lsm",
        stresses: "LSM overlay merge + cache generation invalidation under churn",
        key_metric: "recall@k under churn",
        spec,
        default_topology: TopologySpec::Flat,
        default_cache: if smoke { 64 } else { 256 },
    }
}

fn fault_storm(smoke: bool) -> Scenario {
    let mut spec = WorkloadSpec::base(0xFA117);
    // batch = 1 serializes the stream: health transitions happen at exact
    // per-replica call counts, so failover counters are reproducible.
    spec.batch = 1;
    if smoke {
        spec.dataset = smoke_dataset();
        spec.base_n = 250;
        spec.query_pool = 64;
        spec.ticks = 10;
        spec.arrival = ArrivalShape::Steady { rate: 12.0 };
        spec.oracle_every = 8;
        spec.build_c = 32;
        spec.fault_storm = Some(FaultStorm {
            transient_at: 10,
            die_at: 30,
            revive_after: 4,
            stagger: 3,
        });
    } else {
        spec.base_n = 1_600;
        spec.ticks = 50;
        spec.arrival = ArrivalShape::Steady { rate: 20.0 };
        spec.fault_storm = Some(FaultStorm {
            transient_at: 40,
            die_at: 120,
            revive_after: 10,
            stagger: 7,
        });
    }
    Scenario {
        name: "fault_storm",
        stresses: "replica markdown, probing, and recovery with replica 0 surviving",
        key_metric: "recall parity + failover counters",
        spec,
        default_topology: TopologySpec::Replicated {
            shards: 2,
            replicas: 2,
        },
        default_cache: 0,
    }
}

fn overload(smoke: bool) -> Scenario {
    let mut spec = WorkloadSpec::base(0x0E71);
    if smoke {
        spec.dataset = smoke_dataset();
        spec.base_n = 300;
        spec.query_pool = 64;
        spec.ticks = 12;
        // Bursts arrive at ~6x the admission capacity; the trough drains.
        spec.arrival = ArrivalShape::Bursty {
            base: 4.0,
            burst: 60.0,
            every: 6,
            width: 2,
        };
        spec.oracle_every = 16;
        spec.build_c = 32;
        spec.admission = Some(AdmissionSpec {
            capacity_per_tick: 10,
            max_queue: 24,
            deadline_ticks: 3,
            retry_limit: 1,
        });
    } else {
        spec.base_n = 1_500;
        spec.ticks = 48;
        spec.arrival = ArrivalShape::Bursty {
            base: 10.0,
            burst: 160.0,
            every: 12,
            width: 3,
        };
        spec.admission = Some(AdmissionSpec {
            capacity_per_tick: 25,
            max_queue: 64,
            deadline_ticks: 4,
            retry_limit: 2,
        });
    }
    Scenario {
        name: "overload",
        stresses: "admission control: bursty queueing, deadline shedding, Overloaded retries",
        key_metric: "admitted/shed/retried counters",
        spec,
        default_topology: TopologySpec::Sharded { shards: 2 },
        default_cache: 0,
    }
}

/// Looks up a catalog scenario; `smoke` selects the CI-sized variant.
pub fn by_name(name: &str, smoke: bool) -> Result<Scenario, String> {
    match name {
        "steady_zipf" => Ok(steady_zipf(smoke)),
        "diurnal_burst" => Ok(diurnal_burst(smoke)),
        "churn_lsm" => Ok(churn_lsm(smoke)),
        "fault_storm" => Ok(fault_storm(smoke)),
        "overload" => Ok(overload(smoke)),
        other => Err(format!(
            "unknown scenario '{other}' (expected one of: {})",
            SCENARIO_NAMES.join(", ")
        )),
    }
}

/// The whole catalog, in [`SCENARIO_NAMES`] order.
pub fn all(smoke: bool) -> Vec<Scenario> {
    SCENARIO_NAMES
        .iter()
        .map(|n| by_name(n, smoke).expect("catalog names resolve"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_resolves_every_name_and_rejects_unknowns() {
        for name in SCENARIO_NAMES {
            let full = by_name(name, false).unwrap();
            let smoke = by_name(name, true).unwrap();
            assert_eq!(full.name, name);
            assert_eq!(smoke.name, name);
            assert!(
                smoke.spec.base_n < full.spec.base_n,
                "{name}: smoke must shrink the corpus"
            );
        }
        assert!(by_name("nope", false).is_err());
        assert_eq!(all(true).len(), SCENARIO_NAMES.len());
    }

    #[test]
    fn fault_storm_keeps_deterministic_knobs() {
        for smoke in [false, true] {
            let s = by_name("fault_storm", smoke).unwrap();
            assert_eq!(s.spec.batch, 1, "storm counters need a serialized stream");
            let storm = s.spec.fault_storm.expect("storm scripted");
            assert!(
                storm.revive_after > 0,
                "victims must revive for recovery counters"
            );
            assert!(matches!(
                s.default_topology,
                TopologySpec::Replicated {
                    shards: 2,
                    replicas: 2
                }
            ));
        }
    }

    #[test]
    fn overload_saturates_its_admission_capacity() {
        for smoke in [false, true] {
            let s = by_name("overload", smoke).unwrap();
            let policy = s.spec.admission.expect("overload scripts admission");
            assert!(policy.capacity_per_tick > 0);
            assert!(policy.deadline_ticks > 0);
            let ArrivalShape::Bursty { burst, .. } = s.spec.arrival else {
                panic!("overload must be bursty");
            };
            assert!(
                burst > 2.0 * policy.capacity_per_tick as f64,
                "bursts must overwhelm the service rate or nothing sheds"
            );
        }
    }

    #[test]
    fn churn_lsm_actually_churns() {
        for smoke in [false, true] {
            let s = by_name("churn_lsm", smoke).unwrap();
            assert!(s.spec.mutate_every > 0);
            assert!(s.spec.insert_burst > 0);
            assert!(s.spec.delete_burst > 0);
            assert!(
                s.default_cache > 0,
                "churn scenario must exercise the cache"
            );
            assert!(s.spec.total_inserts() > 0);
        }
    }
}
