//! Microbenchmarks of the distance kernels — the per-instruction story
//! behind the paper's Equation 12 vs 13 (register loads per distance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simdops::level::with_level;
use simdops::{dist16, gemm_nt, l2_sq, l2_sq_u8, lut16_batch, supported_levels, LUT_BATCH};
use std::hint::black_box;

fn deterministic_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / 16777216.0 - 0.5
        })
        .collect()
}

fn deterministic_u8(n: usize, seed: u64, max: u16) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 48) as u16 % (max + 1)) as u8
        })
        .collect()
}

fn bench_l2_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_sq_f32");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800));
    for dim in [256usize, 768, 1024] {
        let a = deterministic_f32(dim, 1);
        let b = deterministic_f32(dim, 2);
        for level in supported_levels() {
            group.bench_with_input(BenchmarkId::new(level.name(), dim), &dim, |bench, _| {
                with_level(level, || {
                    bench.iter(|| black_box(l2_sq(black_box(&a), black_box(&b))))
                })
            });
        }
    }
    group.finish();
}

fn bench_u8_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_sq_u8");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(500));
    for dim in [256usize, 768] {
        let a = deterministic_u8(dim, 3, 255);
        let b = deterministic_u8(dim, 4, 255);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| black_box(l2_sq_u8(black_box(&a), black_box(&b))))
        });
    }
    group.finish();
}

fn bench_lut_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_lut16_batch");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800));
    for m in [8usize, 16, 32] {
        let tables = deterministic_u8(m * 16, 5, 255);
        let codes = deterministic_u8(m * 16, 6, 15);
        for level in supported_levels() {
            group.bench_with_input(BenchmarkId::new(level.name(), m), &m, |bench, &m| {
                with_level(level, || {
                    bench.iter(|| {
                        let mut out = [0u16; LUT_BATCH];
                        lut16_batch(black_box(&tables), black_box(&codes), m, &mut out);
                        black_box(out)
                    })
                })
            });
        }
    }
    group.finish();
}

/// The coding layer's projection shapes: one vector onto a 64-component
/// basis (insert / query) and a 256-row batch (dataset encoding).
fn bench_gemm_nt(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nt_project_64");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800));
    let keep = 64;
    for dim in [256usize, 768] {
        let basis = deterministic_f32(keep * dim, 8);
        for rows in [1usize, 256] {
            let a = deterministic_f32(rows * dim, 9);
            let mut out = vec![0.0f32; rows * keep];
            for level in supported_levels() {
                let id = BenchmarkId::new(level.name(), format!("{rows}x{dim}"));
                group.bench_with_input(id, &dim, |bench, &dim| {
                    with_level(level, || {
                        bench.iter(|| {
                            gemm_nt(black_box(&a), black_box(&basis), dim, &mut out);
                            black_box(out[0])
                        })
                    })
                });
            }
        }
    }
    group.finish();
}

/// One sub-vector against a 16-centroid codebook: the unit of k-means
/// assignment, codeword selection and ADT generation.
fn bench_dist16(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist16");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(500));
    for len in [4usize, 8, 48] {
        let x = deterministic_f32(len, 10);
        let codebook = deterministic_f32(len * LUT_BATCH, 11);
        for level in supported_levels() {
            group.bench_with_input(BenchmarkId::new(level.name(), len), &len, |bench, _| {
                with_level(level, || {
                    bench.iter(|| black_box(dist16(black_box(&x), black_box(&codebook))))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_l2_levels,
    bench_u8_distance,
    bench_lut_batch,
    bench_gemm_nt,
    bench_dist16
);
criterion_main!(benches);
