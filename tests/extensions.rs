//! Cross-crate integration tests for the extension systems: Vamana, HCNNG,
//! OPQ, filtered search, and the LSM maintenance pipeline.

use flash::{BuildFlash, FlashParams, FlashProvider};
use graphs::providers::{FullPrecision, OpqProvider};
use graphs::{
    hcnng, search_layers, search_layers_filtered, search_layers_rerank, vamana, DistanceProvider,
    FrozenGraph, HcnngParams, Hnsw, HnswParams, LabeledHnsw, LabeledParams, VamanaParams,
};
use maintenance::{LsmConfig, LsmVectorIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vecstore::{generate, ground_truth, DatasetProfile, VectorSet};

fn workload(n: usize, n_queries: usize) -> (VectorSet, VectorSet) {
    generate(&DatasetProfile::SsnppLike.spec(), n, n_queries, 0xE57)
}

fn recall_of(found: &[Vec<u32>], gt: &[Vec<vecstore::Neighbor>], k: usize) -> f64 {
    metrics::recall_at_k(found, gt, k).recall()
}

/// Ids of the serving kernel's answers over a frozen index; `rerank > 1`
/// adds the exact rerank on the original vectors.
fn found_ids<P: DistanceProvider>(
    index: &FrozenGraph<P>,
    queries: &VectorSet,
    k: usize,
    ef: usize,
    rerank: usize,
) -> Vec<Vec<u32>> {
    let (provider, layers) = (index.provider(), index.layers());
    (0..queries.len())
        .map(|qi| {
            let q = queries.get(qi);
            let hits = if rerank > 1 {
                search_layers_rerank(provider, layers, q, k, ef, rerank)
            } else {
                search_layers(provider, layers, q, k, ef)
            };
            hits.iter().map(|r| r.id as u32).collect()
        })
        .collect()
}

#[test]
fn vamana_flash_matches_full_precision_recall() {
    let k = 5;
    let (base, queries) = workload(1_500, 30);
    let gt = ground_truth(&base, &queries, k);
    let params = VamanaParams {
        r: 12,
        c: 96,
        alpha: 1.2,
    };

    let full = vamana::build(FullPrecision::new(base.clone()), params);
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = 750;
    let flash = vamana::build(FlashProvider::new(base, fp), params);

    let found_full = found_ids(&full, &queries, k, 96, 1);
    let found_flash = found_ids(&flash, &queries, k, 96, 8);

    let r_full = recall_of(&found_full, &gt, k);
    let r_flash = recall_of(&found_flash, &gt, k);
    assert!(r_full >= 0.85, "Vamana full-precision recall {r_full}");
    assert!(
        r_flash >= r_full - 0.10,
        "Vamana-Flash recall {r_flash} vs {r_full}"
    );
}

#[test]
fn hcnng_flash_reaches_reasonable_recall() {
    let k = 5;
    let (base, queries) = workload(1_200, 25);
    let gt = ground_truth(&base, &queries, k);
    let params = HcnngParams {
        trees: 8,
        leaf_size: 48,
        mst_degree: 3,
        seed: 0x88,
    };

    let full = hcnng::build(FullPrecision::new(base.clone()), params);
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = 600;
    let flash = hcnng::build(FlashProvider::new(base, fp), params);

    let found_full = found_ids(&full, &queries, k, 128, 1);
    let found_flash = found_ids(&flash, &queries, k, 128, 8);

    let r_full = recall_of(&found_full, &gt, k);
    let r_flash = recall_of(&found_flash, &gt, k);
    assert!(r_full >= 0.75, "HCNNG recall {r_full}");
    assert!(
        r_flash >= r_full - 0.15,
        "HCNNG-Flash recall {r_flash} vs {r_full}"
    );
}

#[test]
fn opq_provider_plugs_into_hnsw_with_recall() {
    let k = 5;
    let (base, queries) = workload(1_000, 20);
    let gt = ground_truth(&base, &queries, k);
    let index = Hnsw::build(
        OpqProvider::new(base.clone(), 8, 8, 3, 500, 0x99),
        HnswParams {
            c: 96,
            r: 12,
            seed: 0x9A,
        },
    )
    .into_frozen();
    let found = found_ids(&index, &queries, k, 96, 8);
    let recall = recall_of(&found, &gt, k);
    assert!(recall >= 0.80, "HNSW-OPQ recall {recall}");
}

#[test]
fn filtered_search_works_on_flash_built_graph() {
    let (base, queries) = workload(1_000, 10);
    let mut rng = SmallRng::seed_from_u64(0xF0);
    let labels: Vec<u32> = (0..base.len()).map(|_| rng.gen_range(0..4u32)).collect();
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = 500;
    let index = Hnsw::build(
        FlashProvider::new(base.clone(), fp),
        HnswParams {
            c: 96,
            r: 12,
            seed: 0xF1,
        },
    )
    .into_frozen();
    let labels_ref = &labels;
    let accept = move |id: u32| labels_ref[id as usize] == 2;
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let hits = search_layers_filtered(index.provider(), index.layers(), q, 5, 96, &accept);
        assert!(
            !hits.is_empty(),
            "query {qi} found nothing with a 25% filter"
        );
        for h in &hits {
            assert_eq!(labels[h.id as usize], 2, "predicate violated");
        }
    }
}

#[test]
fn specialized_labeled_index_with_flash_factory() {
    let (base, queries) = workload(1_200, 5);
    let mut rng = SmallRng::seed_from_u64(0xF2);
    let labels: Vec<u32> = (0..base.len()).map(|_| rng.gen_range(0..3u32)).collect();
    let index = LabeledHnsw::build(
        &base,
        &labels,
        LabeledParams {
            hnsw: HnswParams {
                c: 64,
                r: 8,
                seed: 0xF3,
            },
            min_graph_size: 32,
        },
        |subset| {
            let mut fp = FlashParams::auto(subset.dim());
            fp.train_sample = (subset.len() / 2).clamp(64, 10_000);
            FlashProvider::new(subset, fp)
        },
    );
    assert_eq!(index.partitions(), 3);
    assert_eq!(index.len(), base.len());
    for label in 0..3u32 {
        let hits = index.search(queries.get(0), label, 3, 64);
        assert_eq!(hits.len(), 3);
        for h in &hits {
            assert_eq!(labels[h.id as usize], label);
        }
    }
}

/// Model-based check of the LSM index against a brute-force oracle through
/// a random insert/delete/search workload (multiple seeds).
#[test]
fn lsm_index_agrees_with_oracle_under_churn() {
    for seed in [1u64, 7, 23] {
        let dim = 16;
        let mut config = LsmConfig::for_dim(dim);
        config.memtable_cap = 128;
        config.hnsw = HnswParams { c: 48, r: 8, seed };
        let mut index = LsmVectorIndex::new(config);
        let mut oracle: Vec<(u64, Vec<f32>)> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);

        for step in 0..600 {
            if step % 5 == 4 && !oracle.is_empty() {
                let pick = rng.gen_range(0..oracle.len());
                let (id, _) = oracle.swap_remove(pick);
                assert!(index.delete(id), "oracle said {id} is live");
            } else {
                let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let id = index.insert(&v);
                oracle.push((id, v));
            }
        }
        index.flush();

        let stats = index.stats();
        assert_eq!(
            stats.live,
            oracle.len(),
            "live count mismatch (seed {seed})"
        );

        // Top-1 self-queries must return the queried id (exact duplicates
        // exist in the index).
        for _ in 0..20 {
            let (id, v) = &oracle[rng.gen_range(0..oracle.len())];
            let hits = index.search(v, 1, 128);
            assert_eq!(hits.first().map(|h| h.id), Some(*id), "seed {seed}");
        }

        // Deleted ids never resurface across a rebuild.
        let victim = oracle.swap_remove(0);
        index.delete(victim.0);
        index.rebuild();
        assert!(!index.contains(victim.0));
        let hits = index.search(&victim.1, 3, 128);
        assert!(
            hits.iter().all(|h| h.id != victim.0),
            "tombstone leaked through rebuild"
        );
    }
}

#[test]
fn lsm_rebuild_improves_fragmentation_without_losing_recall() {
    let dim = 24;
    let mut config = LsmConfig::for_dim(dim);
    config.memtable_cap = 200;
    config.hnsw = HnswParams {
        c: 64,
        r: 8,
        seed: 0xAB,
    };
    let mut index = LsmVectorIndex::new(config);
    let mut rng = SmallRng::seed_from_u64(0xAC);
    let mut live: Vec<(u64, Vec<f32>)> = Vec::new();
    for _ in 0..1_200 {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        live.push((index.insert(&v), v));
    }
    for _ in 0..300 {
        let pick = rng.gen_range(0..live.len());
        let (id, _) = live.swap_remove(pick);
        index.delete(id);
    }
    index.flush();

    let probe: Vec<(u64, Vec<f32>)> = (0..15)
        .map(|_| live[rng.gen_range(0..live.len())].clone())
        .collect();
    let hits_self = |index: &LsmVectorIndex| -> usize {
        probe
            .iter()
            .filter(|(id, v)| index.search(v, 1, 96).first().map(|h| h.id) == Some(*id))
            .count()
    };

    let before_frag = index.stats();
    let before_hits = hits_self(&index);
    index.rebuild();
    let after_frag = index.stats();
    let after_hits = hits_self(&index);

    assert!(before_frag.segments > 1);
    assert_eq!(after_frag.segments, 1);
    assert_eq!(after_frag.dead, 0);
    assert!(
        after_hits + 1 >= before_hits,
        "rebuild lost recall: {after_hits} vs {before_hits} of {}",
        probe.len()
    );
}

#[test]
fn cosine_workload_via_normalization() {
    // Cosine similarity = L2 on normalized vectors; the whole stack
    // (including Flash) serves it after `VectorSet::normalize`.
    let (raw, raw_queries) = workload(800, 10);
    let base = raw.normalized();
    let queries = raw_queries.normalized();
    // Exact cosine ground truth from the raw vectors.
    let cos = |a: &[f32], b: &[f32]| {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb)
    };
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = 400;
    let index = Hnsw::build(
        FlashProvider::new(base, fp),
        HnswParams {
            c: 96,
            r: 12,
            seed: 0xC0,
        },
    )
    .into_frozen();
    let mut hit = 0;
    for qi in 0..raw_queries.len() {
        // Most-similar-by-cosine from a linear scan over raw vectors.
        let best = (0..raw.len())
            .max_by(|&a, &b| {
                cos(raw_queries.get(qi), raw.get(a))
                    .total_cmp(&cos(raw_queries.get(qi), raw.get(b)))
            })
            .unwrap() as u64;
        let found =
            search_layers_rerank(index.provider(), index.layers(), queries.get(qi), 1, 96, 8);
        if found.first().map(|h| h.id) == Some(best) {
            hit += 1;
        }
    }
    assert!(hit >= 8, "cosine top-1 recall {hit}/10 via normalization");
}

#[test]
fn normalize_invariants() {
    let (mut set, _) = workload(50, 1);
    set.push(&[0.0; 256]); // zero vector must survive untouched
    set.normalize();
    for v in set.iter().take(50) {
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>();
        assert!((norm - 1.0).abs() < 1e-4, "norm² = {norm}");
    }
    assert!(set.get(50).iter().all(|&x| x == 0.0));
}

#[test]
fn tuned_flash_params_build_working_index() {
    let (base, queries) = workload(900, 5);
    let gt = ground_truth(&base, &queries, 5);
    let opts = flash::TuneOptions {
        d_f_grid: vec![16, 32, 64],
        m_f_grid: vec![8, 16],
        target_agreement: 0.8,
        triples: 150,
        sample: 500,
        seed: 3,
    };
    let outcome = flash::tune_flash_params(&base, FlashParams::auto(base.dim()), &opts);
    let index = flash::FlashHnsw::build_flash(
        base,
        outcome.params,
        HnswParams {
            c: 96,
            r: 12,
            seed: 0x7D,
        },
    )
    .into_frozen();
    let found = found_ids(&index, &queries, 5, 96, 8);
    let recall = metrics::recall_at_k(&found, &gt, 5).recall();
    assert!(recall >= 0.8, "tuned-params recall {recall}");
}
