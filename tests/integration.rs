//! Cross-crate integration tests: every construction method, every graph
//! algorithm, every search variant, exercised end-to-end on a common
//! workload.
//!
//! Dataset dimensionality is kept small (64-d) so the suite stays fast in
//! debug builds; the benchmark harness covers paper-scale dimensions.

use hnsw_flash::graphs::{search_layers, search_layers_rerank, FrozenGraph};
use hnsw_flash::prelude::*;
use vecstore::split_into_segments;

/// Shared workload: clustered 64-d embeddings.
fn workload(n: usize, n_queries: usize) -> (VectorSet, VectorSet) {
    let spec = DatasetSpec::new(64, 80, 0.97, 0.35, 77);
    generate(&spec, n, n_queries, 1234)
}

fn recall_of(found: &[Vec<u32>], gt: &[Vec<vecstore::Neighbor>], k: usize) -> f64 {
    recall_at_k(found, gt, k).recall()
}

/// Ids of the serving kernel's reranked answers over a built index.
fn reranked_ids<P: DistanceProvider>(
    index: &FrozenGraph<P>,
    queries: &VectorSet,
    k: usize,
    ef: usize,
    rerank: usize,
) -> Vec<Vec<u32>> {
    (0..queries.len())
        .map(|qi| {
            let q = queries.get(qi);
            search_layers_rerank(index.provider(), index.layers(), q, k, ef, rerank)
                .iter()
                .map(|r| r.id as u32)
                .collect()
        })
        .collect()
}

#[test]
fn all_five_methods_reach_high_recall() {
    let (base, queries) = workload(1_200, 40);
    let k = 5;
    let ef = 64;
    let gt = ground_truth(&base, &queries, k);
    let params = HnswParams {
        c: 64,
        r: 8,
        seed: 3,
    };

    let mut results: Vec<(&str, f64)> = Vec::new();

    let full = Hnsw::build(FullPrecision::new(base.clone()), params);
    let found: Vec<Vec<u32>> = (0..40)
        .map(|qi| {
            full.search(queries.get(qi), k, ef)
                .iter()
                .map(|r| r.id as u32)
                .collect()
        })
        .collect();
    results.push(("HNSW", recall_of(&found, &gt, k)));

    let pq = Hnsw::build(PqProvider::new(base.clone(), 8, 8, 800, 5), params).into_frozen();
    let found = reranked_ids(&pq, &queries, k, ef, 6);
    results.push(("HNSW-PQ", recall_of(&found, &gt, k)));

    let sq = Hnsw::build(SqProvider::new(base.clone(), 8), params).into_frozen();
    let found = reranked_ids(&sq, &queries, k, ef, 4);
    results.push(("HNSW-SQ", recall_of(&found, &gt, k)));

    let pca = Hnsw::build(PcaProvider::new(base.clone(), 32, 800), params).into_frozen();
    let found = reranked_ids(&pca, &queries, k, ef, 4);
    results.push(("HNSW-PCA", recall_of(&found, &gt, k)));

    let flash_params = FlashParams {
        d_f: 48,
        m_f: 12,
        train_sample: 800,
        kmeans_iters: 10,
        seed: 7,
        grid_quantile: 0.5,
    };
    let fl = FlashHnsw::build_flash(base, flash_params, params).into_frozen();
    let found = reranked_ids(&fl, &queries, k, ef, 8);
    results.push(("HNSW-Flash", recall_of(&found, &gt, k)));

    for (name, recall) in &results {
        assert!(*recall >= 0.85, "{name} recall {recall} below threshold");
    }
}

#[test]
fn compressed_indexes_are_smaller_than_baseline() {
    let (base, _) = workload(800, 1);
    let params = HnswParams {
        c: 48,
        r: 8,
        seed: 4,
    };

    let full = Hnsw::build(FullPrecision::new(base.clone()), params);
    let fl = FlashHnsw::build_flash(
        base,
        FlashParams {
            d_f: 32,
            m_f: 8,
            train_sample: 600,
            kmeans_iters: 8,
            seed: 9,
            grid_quantile: 0.5,
        },
        params,
    );
    assert!(
        fl.index_bytes() < full.index_bytes(),
        "Flash {} bytes vs baseline {}",
        fl.index_bytes(),
        full.index_bytes()
    );
}

/// Queries τ-MG-Flash's containment is measured over, drawn after the
/// NSG half's 20 from the same stream (the base rows come first, so the
/// corpus is the 900 vectors `workload(900, 20)` makes).
const TAUMG_QUERIES: usize = 240;

/// τ-MG-Flash's top-1 containment over those queries, as measured on the
/// graph this test builds (232 of 240), less one margin of 0.03: a floor
/// of 0.937, i.e. 225 of 240.
const TAUMG_CONTAINMENT_FLOOR: f64 = 232.0 / 240.0 - 0.03;

#[test]
fn flash_generalizes_to_nsg_and_taumg() {
    let (base, all_queries) = workload(900, 20 + TAUMG_QUERIES);
    let queries = all_queries.slice(0, 20);
    let k = 3;
    let gt = ground_truth(&base, &queries, k);
    let flash_params = FlashParams {
        d_f: 48,
        m_f: 12,
        train_sample: 700,
        kmeans_iters: 10,
        seed: 2,
        grid_quantile: 0.5,
    };

    let nsg = nsg::build(
        FlashProvider::new(base.clone(), flash_params),
        NsgParams { r: 12, c: 96 },
    );
    let found = reranked_ids(&nsg, &queries, k, 96, 16);
    let nsg_recall = recall_of(&found, &gt, k);
    // The paper's Figure 14 shows NSG-Flash trades a little recall for its
    // construction speedup; 0.75 at this tiny scale matches that shape.
    assert!(nsg_recall >= 0.75, "NSG-Flash recall {nsg_recall}");

    let taumg = taumg::build(
        FlashProvider::new(base.clone(), flash_params),
        TauMgParams {
            flat: NsgParams { r: 8, c: 48 },
            tau: 0.2,
        },
    );
    // τ-MG search uses quantized distances: take an unreranked pool of 8·k
    // and count how often it contains the true top-1.
    let held_out = all_queries.slice(20, 20 + TAUMG_QUERIES);
    let top1 = ground_truth(&base, &held_out, 1);
    let hit = (0..TAUMG_QUERIES)
        .filter(|&qi| {
            search_layers(
                taumg.provider(),
                taumg.layers(),
                held_out.get(qi),
                k * 8,
                64,
            )
            .iter()
            .any(|r| r.id == u64::from(top1[qi][0].id))
        })
        .count();
    let containment = hit as f64 / TAUMG_QUERIES as f64;
    assert!(
        containment >= TAUMG_CONTAINMENT_FLOOR,
        "τ-MG-Flash top-1 containment {hit}/{TAUMG_QUERIES} = {containment:.3}"
    );
}

#[test]
fn search_variants_work_on_flash_built_graphs() {
    let (base, queries) = workload(900, 20);
    let k = 3;
    let gt = ground_truth(&base, &queries, k);
    let fl = FlashHnsw::build_flash(
        base.clone(),
        FlashParams {
            d_f: 48,
            m_f: 12,
            train_sample: 700,
            kmeans_iters: 10,
            seed: 8,
            grid_quantile: 0.5,
        },
        HnswParams {
            c: 64,
            r: 8,
            seed: 1,
        },
    );
    let graph = fl.freeze();

    // ADSampling over the Flash-built topology, exact distances.
    let sampler = graphs::adsampling::AdSampler::new(&base, 2.1, 16, 3);
    let mut hits = 0;
    for (qi, truth) in gt.iter().enumerate().take(20) {
        let (found, _) = sampler.search(&graph, queries.get(qi), k, 64);
        let ids: Vec<u32> = found.iter().map(|r| r.id as u32).collect();
        hits += truth[..k].iter().filter(|t| ids.contains(&t.id)).count();
    }
    assert!(
        hits as f64 / 60.0 >= 0.85,
        "ADSampling recall {}",
        hits as f64 / 60.0
    );

    // VBase termination over the same graph with the full-precision provider.
    let full = FullPrecision::new(base);
    let mut hits = 0;
    for (qi, truth) in gt.iter().enumerate().take(20) {
        let found = graphs::vbase::search_vbase(&full, &graph, queries.get(qi), k, 48);
        let ids: Vec<u32> = found.iter().map(|r| r.id as u32).collect();
        hits += truth[..k].iter().filter(|t| ids.contains(&t.id)).count();
    }
    assert!(
        hits as f64 / 60.0 >= 0.85,
        "VBase recall {}",
        hits as f64 / 60.0
    );
}

#[test]
fn segmented_rebuild_preserves_recall() {
    let (base, queries) = workload(1_000, 20);
    let k = 3;
    let gt = ground_truth(&base, &queries, k);
    let segments = split_into_segments(&base, 4);
    let offsets: Vec<u32> = segments
        .iter()
        .scan(0u32, |acc, s| {
            let start = *acc;
            *acc += s.len() as u32;
            Some(start)
        })
        .collect();

    let indexes: Vec<FrozenGraph<FlashProvider>> = segments
        .iter()
        .map(|seg| {
            FlashHnsw::build_flash(
                seg.clone(),
                FlashParams {
                    d_f: 32,
                    m_f: 8,
                    train_sample: 250,
                    kmeans_iters: 8,
                    seed: 4,
                    grid_quantile: 0.5,
                },
                HnswParams {
                    c: 48,
                    r: 8,
                    seed: 2,
                },
            )
            .into_frozen()
        })
        .collect();

    let mut found = Vec::new();
    for qi in 0..20 {
        let mut merged: Vec<Hit> = indexes
            .iter()
            .enumerate()
            .flat_map(|(s, idx)| {
                let off = offsets[s];
                search_layers_rerank(idx.provider(), idx.layers(), queries.get(qi), k, 48, 8)
                    .into_iter()
                    .map(move |r| Hit {
                        id: r.id + u64::from(off),
                        dist: r.dist,
                    })
            })
            .collect();
        merged.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        merged.truncate(k);
        found.push(
            merged
                .into_iter()
                .map(|r| r.id as u32)
                .collect::<Vec<u32>>(),
        );
    }
    let recall = recall_of(&found, &gt, k);
    assert!(recall >= 0.85, "segmented recall {recall}");
}

#[test]
fn fvecs_roundtrip_feeds_the_index() {
    let (base, queries) = workload(400, 5);
    let dir = std::env::temp_dir().join(format!("hnsw_flash_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.fvecs");
    vecstore::io::write_fvecs(&path, &base).unwrap();
    let reloaded = vecstore::io::read_fvecs(&path).unwrap();
    assert_eq!(reloaded, base);

    let index = Hnsw::build(
        FullPrecision::new(reloaded),
        HnswParams {
            c: 32,
            r: 8,
            seed: 1,
        },
    );
    let hits = index.search(queries.get(0), 3, 32);
    assert_eq!(hits.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simd_level_override_does_not_change_results() {
    let (base, queries) = workload(600, 10);
    let params = HnswParams {
        c: 48,
        r: 8,
        seed: 11,
    };
    let collect = || -> Vec<Vec<u32>> {
        let index = Hnsw::build(FullPrecision::new(base.clone()), params);
        (0..10)
            .map(|qi| {
                index
                    .search(queries.get(qi), 5, 48)
                    .iter()
                    .map(|r| r.id as u32)
                    .collect()
            })
            .collect()
    };
    let with_default = collect();
    simdops::level::with_level(SimdLevel::Scalar, || {
        let scalar = collect();
        assert_eq!(
            with_default, scalar,
            "dispatch level must not affect results"
        );
    });
}
