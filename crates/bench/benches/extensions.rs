//! Microbenches for the extension systems: Vamana/HCNNG construction,
//! OPQ vs PQ training cost, filtered-search overhead, and the LSM
//! maintenance operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flash::{FlashParams, FlashProvider};
use graphs::providers::FullPrecision;
use graphs::{
    search_layers, search_layers_filtered, Hcnng, HcnngParams, Hnsw, HnswParams, Vamana,
    VamanaParams,
};
use maintenance::{LsmConfig, LsmVectorIndex};
use quantizers::{OptimizedProductQuantizer, ProductQuantizer};
use std::hint::black_box;
use std::time::Duration;
use vecstore::{generate, DatasetProfile, VectorSet};

fn small_base(n: usize) -> VectorSet {
    generate(&DatasetProfile::SsnppLike.spec(), n, 1, 0xBE).0
}

/// Vamana and HCNNG build cost, full precision vs Flash provider.
fn bench_ext_builders(c: &mut Criterion) {
    let base = small_base(1_200);
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = 600;

    let mut group = c.benchmark_group("ext_builders");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    group.bench_function("vamana_full", |b| {
        b.iter(|| {
            let v = Vamana::build(
                FullPrecision::new(base.clone()),
                VamanaParams {
                    r: 10,
                    c: 48,
                    alpha: 1.2,
                    seed: 1,
                },
            );
            black_box(v.graph().edges())
        })
    });
    group.bench_function("vamana_flash", |b| {
        b.iter(|| {
            let v = Vamana::build(
                FlashProvider::new(base.clone(), fp),
                VamanaParams {
                    r: 10,
                    c: 48,
                    alpha: 1.2,
                    seed: 1,
                },
            );
            black_box(v.graph().edges())
        })
    });
    group.bench_function("hcnng_full", |b| {
        b.iter(|| {
            let h = Hcnng::build(
                FullPrecision::new(base.clone()),
                HcnngParams {
                    trees: 6,
                    leaf_size: 48,
                    mst_degree: 3,
                    seed: 1,
                },
            );
            black_box(h.graph().edges())
        })
    });
    group.bench_function("hcnng_flash", |b| {
        b.iter(|| {
            let h = Hcnng::build(
                FlashProvider::new(base.clone(), fp),
                HcnngParams {
                    trees: 6,
                    leaf_size: 48,
                    mst_degree: 3,
                    seed: 1,
                },
            );
            black_box(h.graph().edges())
        })
    });
    group.finish();
}

/// OPQ's alternating optimization vs plain PQ training — the overhead the
/// paper's Remark 1 warns about, isolated from graph construction.
fn bench_opq_vs_pq_training(c: &mut Criterion) {
    let base = small_base(800);
    let mut group = c.benchmark_group("ext_opq_training");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    group.bench_function("pq_train", |b| {
        b.iter(|| black_box(ProductQuantizer::train(&base, 8, 4, 10, 7)))
    });
    for iters in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("opq_train", iters), &iters, |b, &iters| {
            b.iter(|| black_box(OptimizedProductQuantizer::train(&base, 8, 4, iters, 10, 7)))
        });
    }
    group.finish();
}

/// Query-time cost of predicate filtering at different selectivities.
fn bench_filtered_search(c: &mut Criterion) {
    let base = small_base(3_000);
    let queries = generate(&DatasetProfile::SsnppLike.spec(), 1, 16, 0xF).1;
    let index = Hnsw::build(
        FullPrecision::new(base),
        HnswParams {
            c: 64,
            r: 12,
            seed: 3,
        },
    )
    .into_frozen();
    let (provider, layers) = (index.provider(), index.layers());
    let mut group = c.benchmark_group("ext_filtered_search");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("unfiltered", |b| {
        b.iter(|| {
            let mut n = 0;
            for qi in 0..queries.len() {
                n += search_layers(provider, layers, queries.get(qi), 10, 64).len();
            }
            black_box(n)
        })
    });
    for denom in [2u32, 8, 32] {
        group.bench_with_input(
            BenchmarkId::new("filtered_1_over", denom),
            &denom,
            |b, &denom| {
                let accept = move |id: u32| id % denom == 0;
                b.iter(|| {
                    let mut n = 0;
                    for qi in 0..queries.len() {
                        n += search_layers_filtered(
                            provider,
                            layers,
                            queries.get(qi),
                            10,
                            64,
                            &accept,
                        )
                        .len();
                    }
                    black_box(n)
                })
            },
        );
    }
    group.finish();
}

/// The LSM maintenance primitives: insert throughput, mixed churn, rebuild.
fn bench_lsm_ops(c: &mut Criterion) {
    let dim = 32;
    let mut group = c.benchmark_group("ext_lsm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    group.bench_function("insert_1k_with_seals", |b| {
        b.iter(|| {
            let mut config = LsmConfig::for_dim(dim);
            config.memtable_cap = 256;
            config.hnsw = HnswParams {
                c: 32,
                r: 8,
                seed: 1,
            };
            let mut index = LsmVectorIndex::new(config);
            for i in 0..1_000u32 {
                let v: Vec<f32> = (0..dim).map(|d| ((i + d as u32) % 17) as f32).collect();
                index.insert(&v);
            }
            black_box(index.stats().segments)
        })
    });

    group.bench_function("rebuild_1k", |b| {
        // Build the fragmented state once per iteration batch would skew
        // timings; rebuild on a cloned fresh construction instead.
        b.iter_with_setup(
            || {
                let mut config = LsmConfig::for_dim(dim);
                config.memtable_cap = 256;
                config.hnsw = HnswParams {
                    c: 32,
                    r: 8,
                    seed: 2,
                };
                let mut index = LsmVectorIndex::new(config);
                for i in 0..1_000u32 {
                    let v: Vec<f32> = (0..dim).map(|d| ((i * 3 + d as u32) % 23) as f32).collect();
                    index.insert(&v);
                }
                for id in (0..1_000u64).step_by(4) {
                    index.delete(id);
                }
                index
            },
            |mut index| {
                let report = index.rebuild();
                black_box(report.vectors)
            },
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ext_builders,
    bench_opq_vs_pq_training,
    bench_filtered_search,
    bench_lsm_ops
);
criterion_main!(benches);
