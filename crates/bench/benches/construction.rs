//! End-to-end construction benchmarks: one small build per method, so
//! `cargo bench` tracks the headline indexing-time comparison over time.

use bench::{Method, Scale};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vecstore::{generate, DatasetProfile};

fn bench_builds(c: &mut Criterion) {
    let scale = Scale {
        n: 1_000,
        queries: 1,
        c: 64,
        r: 8,
    };
    let (base, _) = generate(&DatasetProfile::SsnppLike.spec(), scale.n, 1, 0xBE);
    let mut group = c.benchmark_group("index_construction_1k_256d");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_millis(500));
    for method in Method::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |bench, &method| {
                bench.iter(|| {
                    let (index, _) = method.build(base.clone(), scale);
                    black_box(index.memory_bytes())
                })
            },
        );
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let scale = Scale {
        n: 2_000,
        queries: 16,
        c: 64,
        r: 8,
    };
    let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), scale.n, 16, 0xBF);
    let mut group = c.benchmark_group("search_2k_256d_ef64");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(4));
    for method in [Method::Hnsw, Method::HnswFlash] {
        let (index, _) = method.build(base.clone(), scale);
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &(),
            |bench, _| {
                let mut qi = 0usize;
                bench.iter(|| {
                    let hits = index.search(&method.request(queries.get(qi % 16), 10, 64));
                    qi += 1;
                    black_box(hits.hits.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_builds, bench_search);
criterion_main!(benches);
