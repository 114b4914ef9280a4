//! Engine-parity tests: every `GraphKind` × `Coding` combination built via
//! `IndexBuilder` must return *identical* results to the direct builder
//! call on the same seed searched with `graphs::search_layers` directly
//! (and, for HNSW, to the live `Hnsw::search`, an independent loop), and
//! every `SearchRequest` option must round-trip through
//! `Box<dyn AnnIndex>`.
//!
//! Exact equality (ids *and* float distances) is intentional: the engine
//! serves through the same frozen-topology kernel, construction is fully
//! deterministic per seed (no hash containers, seeded RNGs, sequential
//! insertion), so any divergence is a wiring bug, not noise.

use hnsw_flash::graphs::{
    scratch_stats, search_layers, search_layers_filtered, search_layers_rerank, FrozenGraph,
};
use hnsw_flash::prelude::*;
use proptest::prelude::*;

const K: usize = 5;
const EF: usize = 48;
const C: usize = 32;
const R: usize = 8;
const SEED: u64 = 7;
const TRAIN: usize = 150;
const PQ_M: usize = 4;
const OPQ_ITERS: usize = 4;

fn workload(n: usize, n_queries: usize) -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), n, n_queries, 1234)
}

fn flash_fp() -> FlashParams {
    FlashParams {
        d_f: 16,
        m_f: 4,
        train_sample: TRAIN,
        kmeans_iters: 5,
        seed: SEED,
        grid_quantile: 0.5,
    }
}

/// The engine builder configured exactly like the concrete builds below.
fn builder(kind: GraphKind, coding: Coding) -> IndexBuilder {
    IndexBuilder::new(kind, coding)
        .c(C)
        .r(R)
        .seed(SEED)
        .train_sample(TRAIN)
        .pq_m(PQ_M)
        .opq_iters(OPQ_ITERS)
        .flash_params(flash_fp())
}

type SearchFn = Box<dyn Fn(&[f32], usize, usize) -> Vec<Hit>>;

/// Reference search closure for one combination: builds directly
/// (`Hnsw::build`, `nsg::build`, …) over the matching provider and runs
/// `graphs::search_layers` over its frozen form. For HNSW the live
/// `Hnsw::search` must agree before the answer counts.
fn reference_search_fn(kind: GraphKind, coding: Coding, base: VectorSet) -> SearchFn {
    fn frozen<P: DistanceProvider + 'static>(index: FrozenGraph<P>) -> SearchFn {
        Box::new(move |q, k, ef| search_layers(index.provider(), index.layers(), q, k, ef))
    }
    fn with_kind<P: DistanceProvider + 'static>(kind: GraphKind, provider: P) -> SearchFn {
        let flat = NsgParams { r: R, c: C };
        match kind {
            GraphKind::Hnsw => {
                let idx = Hnsw::build(
                    provider,
                    HnswParams {
                        c: C,
                        r: R,
                        seed: SEED,
                    },
                );
                let layers = idx.freeze();
                Box::new(move |q, k, ef| {
                    let hits = search_layers(idx.provider(), &layers, q, k, ef);
                    assert_eq!(idx.search(q, k, ef), hits, "live and frozen HNSW disagree");
                    hits
                })
            }
            GraphKind::Nsg => frozen(nsg::build(provider, flat)),
            GraphKind::TauMg => frozen(taumg::build(provider, TauMgParams { flat, tau: 0.1 })),
            GraphKind::Vamana => frozen(vamana::build(
                provider,
                VamanaParams {
                    r: R,
                    c: C,
                    alpha: 1.2,
                },
            )),
            GraphKind::Hcnng => frozen(hcnng::build(
                provider,
                HcnngParams {
                    trees: 10,
                    leaf_size: 48,
                    mst_degree: 3,
                    seed: SEED,
                },
            )),
        }
    }

    match coding {
        Coding::Full => with_kind(kind, FullPrecision::new(base)),
        Coding::Sq => with_kind(kind, SqProvider::new(base, 8)),
        Coding::Pca => with_kind(kind, PcaProvider::with_variance(base, 0.9, TRAIN)),
        Coding::Pq => with_kind(kind, PqProvider::new(base, PQ_M, 8, TRAIN, SEED)),
        Coding::Opq => with_kind(
            kind,
            OpqProvider::new(base, PQ_M, 8, OPQ_ITERS, TRAIN, SEED),
        ),
        Coding::Flash => with_kind(kind, FlashProvider::new(base, flash_fp())),
    }
}

/// The acceptance matrix: all 30 graph × coding combinations are
/// constructible via `IndexBuilder`, searchable through
/// `Box<dyn AnnIndex>`, and bit-identical to the concrete-type path.
#[test]
fn every_combination_matches_concrete_path() {
    let (base, queries) = workload(260, 4);
    for kind in GraphKind::ALL {
        for coding in Coding::ALL {
            let reference = reference_search_fn(kind, coding, base.clone());
            let index: Box<dyn AnnIndex> = builder(kind, coding).build(base.clone());
            assert_eq!(index.len(), base.len(), "{kind}:{coding} len");
            assert_eq!(index.dim(), base.dim(), "{kind}:{coding} dim");
            assert!(index.memory_bytes() > 0, "{kind}:{coding} memory_bytes");
            for qi in 0..queries.len() {
                let q = queries.get(qi);
                let expected = reference(q, K, EF);
                let got = index.search(&SearchRequest::new(q, K).ef(EF)).hits;
                assert_eq!(expected, got, "{kind}:{coding} query {qi}");
                for w in got.windows(2) {
                    assert!(
                        (w[0].dist, w[0].id) <= (w[1].dist, w[1].id),
                        "{kind}:{coding} hits must sort ascending by (dist, id)"
                    );
                }
            }
        }
    }
}

/// Reranked requests match `search_layers_rerank` over the concrete
/// build, on HNSW and on a flat graph.
#[test]
fn rerank_matches_direct_kernel_call() {
    let (base, queries) = workload(260, 3);
    let q = queries.get(0);

    let flash_index = builder(GraphKind::Hnsw, Coding::Flash).build(base.clone());
    let concrete = FlashHnsw::build_flash(
        base.clone(),
        flash_fp(),
        HnswParams {
            c: C,
            r: R,
            seed: SEED,
        },
    )
    .into_frozen();
    let got = flash_index
        .search(&SearchRequest::new(q, K).ef(EF).rerank(6))
        .hits;
    let direct = search_layers_rerank(concrete.provider(), concrete.layers(), q, K, EF, 6);
    assert_eq!(direct, got);

    let nsg_index = builder(GraphKind::Nsg, Coding::Flash).build(base.clone());
    let concrete = nsg::build(
        FlashProvider::new(base, flash_fp()),
        NsgParams { r: R, c: C },
    );
    let got = nsg_index
        .search(&SearchRequest::new(q, K).ef(EF).rerank(6))
        .hits;
    let direct = search_layers_rerank(concrete.provider(), concrete.layers(), q, K, EF, 6);
    assert_eq!(direct, got);
}

/// Filter options round-trip through the trait object and agree with the
/// filtered kernel called directly.
#[test]
fn filters_round_trip_through_box_dyn() {
    let (base, queries) = workload(260, 3);
    let index: Box<dyn AnnIndex> = builder(GraphKind::Hnsw, Coding::Full).build(base.clone());
    let concrete = Hnsw::build(
        FullPrecision::new(base.clone()),
        HnswParams {
            c: C,
            r: R,
            seed: SEED,
        },
    )
    .into_frozen();
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let req = SearchRequest::new(q, K).ef(EF).filter(|id| id % 3 == 0);
        let got = index.search(&req).hits;
        assert!(!got.is_empty());
        assert!(got.iter().all(|h| h.id % 3 == 0), "predicate violated");
        let accept = |id: u32| u64::from(id) % 3 == 0;
        let direct =
            search_layers_filtered(concrete.provider(), concrete.layers(), q, K, EF, &accept);
        assert_eq!(direct, got, "query {qi}");
    }
    // Filtered search works on flat graphs through the same request.
    let nsg: Box<dyn AnnIndex> = builder(GraphKind::Nsg, Coding::Full).build(base);
    let got = nsg.search(
        &SearchRequest::new(queries.get(0), K)
            .ef(EF)
            .filter(|id| id % 2 == 0),
    );
    assert!(!got.hits.is_empty());
    assert!(got.hits.iter().all(|h| h.id % 2 == 0));
}

/// `k = 0` and `ef = 0` are clamped, never a panic: every graph kind
/// returns nothing for `k = 0` and a full answer for `ef = 0`, filtered
/// or not (the retired flat-graph beam clamped `ef` to `k` only; the one
/// remaining beam clamps to `max(k, 1)`).
#[test]
fn degenerate_k_and_ef_are_clamped_on_every_graph_kind() {
    let (base, queries) = workload(200, 1);
    let q = queries.get(0);
    for kind in GraphKind::ALL {
        for coding in [Coding::Full, Coding::Flash] {
            let index = builder(kind, coding).build(base.clone());
            for filtered in [false, true] {
                let shape = |req: SearchRequest| {
                    if filtered {
                        req.filter(|id| id % 2 == 0)
                    } else {
                        req
                    }
                };
                let tag = format!("{kind}:{coding} filtered={filtered}");
                let none = index.search(&shape(SearchRequest::new(q, 0).ef(0)));
                assert!(none.hits.is_empty(), "{tag}: k = 0 returns nothing");
                let narrow = index.search(&shape(SearchRequest::new(q, K).ef(0))).hits;
                let at_k = index.search(&shape(SearchRequest::new(q, K).ef(K))).hits;
                assert_eq!(narrow.len(), K, "{tag}: ef = 0 still fills k");
                assert_eq!(at_k, narrow, "{tag}: ef = 0 means ef = k");
            }
        }
    }
}

/// Counter honesty: one leaf search is exactly one pooled-scratch
/// checkout on every graph × coding combination, and an LSM search is one
/// per sealed segment.
#[test]
fn one_leaf_search_is_one_scratch_checkout() {
    let (base, queries) = workload(200, 1);
    let req = SearchRequest::new(queries.get(0), K).ef(EF);
    for kind in GraphKind::ALL {
        for coding in Coding::ALL {
            let index = builder(kind, coding).build(base.clone());
            for req in [
                req.clone(),
                req.clone().rerank(4),
                req.clone().filter(|_| true),
            ] {
                let profile = index.search(&req).profile;
                assert_eq!(profile.scratch_checkouts, 1, "{kind}:{coding}");
            }
        }
    }

    let mut config = LsmConfig::for_dim(32);
    config.memtable_cap = 64;
    config.hnsw = HnswParams {
        c: C,
        r: R,
        seed: SEED,
    };
    let mut lsm = LsmVectorIndex::new(config);
    for v in base.iter() {
        lsm.insert(v);
    }
    let sealed = lsm.stats().segments as u64;
    assert_eq!(sealed, 3, "200 inserts at cap 64 seal three segments");
    let profile = AnnIndex::search(&lsm, &req).profile;
    assert_eq!(profile.scratch_checkouts, sealed);
}

/// Warm serving allocates no search state: 200 queries after a warm-up
/// create no new scratch on this thread.
#[test]
fn warm_queries_create_no_scratch() {
    let (base, queries) = workload(300, 8);
    let index = builder(GraphKind::Hnsw, Coding::Flash).build(base);
    let requests: Vec<SearchRequest> = (0..queries.len())
        .map(|qi| SearchRequest::new(queries.get(qi), K).ef(EF).rerank(4))
        .collect();
    for req in &requests {
        index.search(req);
    }
    let warm = scratch_stats();
    for i in 0..200 {
        index.search(&requests[i % requests.len()]);
    }
    let after = scratch_stats();
    assert_eq!(
        after.created, warm.created,
        "steady state creates no scratch"
    );
    assert_eq!(after.checkouts - warm.checkouts, 200);
}

/// VBase and ADSampling options match their direct function-call forms.
#[test]
fn vbase_and_adsampling_match_direct_calls() {
    let (base, queries) = workload(260, 3);
    let q = queries.get(1);
    let index = builder(GraphKind::Hnsw, Coding::Full).build(base.clone());
    let legacy = Hnsw::build(
        FullPrecision::new(base.clone()),
        HnswParams {
            c: C,
            r: R,
            seed: SEED,
        },
    );
    let frozen = legacy.freeze();
    let provider = FullPrecision::new(base.clone());

    let got = index.search(&SearchRequest::new(q, K).vbase(40)).hits;
    let direct = graphs::vbase::search_vbase(&provider, &frozen, q, K, 40);
    assert_eq!(direct, got);

    let opts = AdSamplingOptions {
        epsilon0: 2.1,
        delta_d: 16,
        seed: 3,
    };
    let resp = index.search(&SearchRequest::new(q, K).adsampling(opts));
    let sampler = graphs::adsampling::AdSampler::new(&base, 2.1, 16, 3);
    let (direct, stats) = sampler.search(&frozen, q, K, SearchRequest::new(q, K).ef);
    assert_eq!(direct, resp.hits);
    assert_eq!(stats.evals, resp.stats.evaluated);
    assert_eq!(stats.abandoned, resp.stats.abandoned);
}

/// `IndexBuilder::serve` (reload path) matches serving the frozen
/// topology through the standalone layer-search functions.
#[test]
fn frozen_serving_matches_layer_search() {
    let (base, queries) = workload(260, 3);
    let built = builder(GraphKind::Hnsw, Coding::Flash).build(base.clone());
    let topology = built.export_graph().unwrap();
    let served = builder(GraphKind::Hnsw, Coding::Flash)
        .serve(base.clone(), topology.clone())
        .unwrap();
    let provider = FlashProvider::new(base, flash_fp());
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let got = served
            .search(&SearchRequest::new(q, K).ef(EF).rerank(8))
            .hits;
        let direct = graphs::search_layers_rerank(&provider, &topology, q, K, EF, 8);
        assert_eq!(direct, got, "query {qi}");
    }
    // Mismatched topology is rejected up front.
    let (tiny, _) = workload(40, 1);
    assert!(builder(GraphKind::Hnsw, Coding::Full)
        .serve(tiny, topology)
        .is_err());
}

/// The brute-force baseline is exact: it reproduces the ground truth.
#[test]
fn flat_index_is_exact() {
    let (base, queries) = workload(200, 4);
    let gt = ground_truth(&base, &queries, K);
    let flat = FlatIndex::new(base);
    for (qi, truth) in gt.iter().enumerate() {
        let hits = flat.search(&SearchRequest::new(queries.get(qi), K)).hits;
        let got: Vec<u64> = hits.iter().map(|h| h.id).collect();
        let expected: Vec<u64> = truth.iter().map(|t| u64::from(t.id)).collect();
        assert_eq!(expected, got, "query {qi}");
    }
}

/// The LSM index serves identical results through the trait and honors
/// the predicate filter.
#[test]
fn lsm_serves_through_the_trait() {
    let (base, queries) = workload(300, 2);
    let mut config = LsmConfig::for_dim(32);
    config.memtable_cap = 128;
    config.hnsw = HnswParams {
        c: C,
        r: R,
        seed: SEED,
    };
    let mut lsm = LsmVectorIndex::new(config);
    let ids: Vec<u64> = base.iter().map(|v| lsm.insert(v)).collect();
    lsm.delete(ids[3]);

    let q = queries.get(0);
    let via_trait = AnnIndex::search(&lsm, &SearchRequest::new(q, K).ef(EF)).hits;
    assert_eq!(LsmVectorIndex::search(&lsm, q, K, EF), via_trait);
    assert_eq!(AnnIndex::len(&lsm), 299);
    assert_eq!(AnnIndex::dim(&lsm), 32);

    let filtered = AnnIndex::search(
        &lsm,
        &SearchRequest::new(q, K).ef(EF).filter(|id| id % 2 == 1),
    );
    assert!(filtered.hits.iter().all(|h| h.id % 2 == 1));
}

/// Per-label specialization builds through the builder and answers only
/// labeled requests.
#[test]
fn labeled_index_serves_label_requests() {
    let (base, queries) = workload(240, 2);
    let labels: Vec<u32> = (0..base.len() as u32).map(|i| i % 3).collect();
    let index = builder(GraphKind::Hnsw, Coding::Flash)
        .build_labeled(&base, &labels, 16)
        .unwrap();
    assert_eq!(index.len(), base.len());
    assert_eq!(index.dim(), 32);

    let q = queries.get(0);
    let unlabeled = index.search(&SearchRequest::new(q, K).ef(EF));
    assert!(
        unlabeled.hits.is_empty(),
        "label-less requests return nothing"
    );
    let hits = index.search(&SearchRequest::new(q, K).ef(EF).label(1)).hits;
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|h| labels[h.id as usize] == 1));

    // Non-HNSW specialization is rejected with a clear error.
    assert!(builder(GraphKind::Nsg, Coding::Full)
        .build_labeled(&base, &labels, 16)
        .is_err());
}

/// Batched serving equals sequential serving.
#[test]
fn search_batch_matches_sequential() {
    let (base, queries) = workload(220, 6);
    let index = builder(GraphKind::Vamana, Coding::Sq).build(base);
    let requests: Vec<SearchRequest> = (0..queries.len())
        .map(|qi| SearchRequest::new(queries.get(qi), K).ef(EF))
        .collect();
    let batched = index.search_batch(&requests);
    assert_eq!(batched.len(), requests.len());
    for (req, resp) in requests.iter().zip(&batched) {
        assert_eq!(index.search(req).hits, resp.hits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Engine/legacy parity holds for arbitrary seeds and k on the
    /// flagship combination (HNSW × Flash), not just the fixed seed the
    /// matrix test uses.
    #[test]
    fn hnsw_flash_parity_over_random_seeds(seed in 0u64..1000, k in 1usize..8) {
        let (base, queries) = workload(200, 2);
        let mut fp = flash_fp();
        fp.seed = seed;
        let index = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
            .c(C)
            .r(R)
            .seed(seed)
            .flash_params(fp)
            .build(base.clone());
        let legacy =
            FlashHnsw::build_flash(base, fp, HnswParams { c: C, r: R, seed });
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            prop_assert_eq!(
                legacy.search(q, k, EF),
                index.search(&SearchRequest::new(q, k).ef(EF)).hits
            );
        }
    }
}

/// Default options build at a dimension the default subspace count does
/// not divide: 130-d OPQ trains 4 uneven spans, as PQ does.
#[test]
fn opq_defaults_build_at_an_indivisible_dimension() {
    let (base, queries) = generate(&DatasetSpec::new(130, 4, 0.95, 0.4, 5), 60, 1, 99);
    let index = IndexBuilder::new(GraphKind::Hnsw, Coding::Opq).build(base);
    let hits = index.search(&SearchRequest::new(queries.get(0), K)).hits;
    assert_eq!(hits.len(), K);
}
