//! Property-based tests over the core data structures and the invariants
//! the paper's correctness rests on.

use hnsw_flash::prelude::*;
use proptest::prelude::*;
use simdops::{lut::lut16_batch_scalar, lut16_batch, LUT_BATCH};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SIMD LUT kernel is bit-identical to the scalar oracle for any
    /// table/code contents and any subspace count.
    #[test]
    fn lut_kernel_matches_scalar(
        m in 1usize..24,
        tables in proptest::collection::vec(any::<u8>(), 24 * 16),
        codes in proptest::collection::vec(0u8..16, 24 * 16),
    ) {
        let tables = &tables[..m * 16];
        let codes = &codes[..m * 16];
        let mut simd = [0u16; LUT_BATCH];
        let mut scalar = [0u16; LUT_BATCH];
        lut16_batch(tables, codes, m, &mut simd);
        lut16_batch_scalar(tables, codes, m, &mut scalar);
        prop_assert_eq!(simd, scalar);
    }

    /// f32 L2 kernels agree across dispatch tiers within float tolerance.
    #[test]
    fn l2_kernels_agree_across_levels(
        v in proptest::collection::vec(-100.0f32..100.0, 1..200),
        w in proptest::collection::vec(-100.0f32..100.0, 1..200),
    ) {
        let n = v.len().min(w.len());
        let (a, b) = (&v[..n], &w[..n]);
        let reference = simdops::f32dist::l2_sq_scalar(a, b);
        for level in simdops::level::supported_levels() {
            let got = simdops::level::with_level(level, || simdops::l2_sq(a, b));
            let tol = 1e-3 * (1.0 + reference.abs());
            prop_assert!((got - reference).abs() <= tol,
                "level {:?}: {} vs {}", level, got, reference);
        }
    }

    /// SQ round-trip error is bounded by half a quantization step per
    /// dimension.
    #[test]
    fn sq_roundtrip_error_bounded(
        rows in proptest::collection::vec(
            proptest::collection::vec(-50.0f32..50.0, 8), 2..40),
    ) {
        let dim = 8;
        let mut set = VectorSet::new(dim);
        for r in &rows {
            set.push(r);
        }
        let sq = ScalarQuantizer::train(&set, 8, quantizers::sq::SqRange::PerDimension);
        for v in set.iter() {
            let rec = quantizers::Codec::reconstruct(&sq, v);
            for (i, (&x, &y)) in v.iter().zip(rec.iter()).enumerate() {
                // Per-dim delta = range / 255; worst error is delta/2.
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for r in set.iter() {
                    lo = lo.min(r[i]);
                    hi = hi.max(r[i]);
                }
                let delta = (hi - lo) / 255.0;
                prop_assert!((x - y).abs() <= delta * 0.5 + 1e-4);
            }
        }
    }

    /// Ground truth is sorted ascending with unique ids, and its first hit
    /// is at least as close as any database vector.
    #[test]
    fn ground_truth_invariants(
        flat in proptest::collection::vec(-10.0f32..10.0, 30..120),
        q in proptest::collection::vec(-10.0f32..10.0, 3),
    ) {
        let n = flat.len() / 3;
        let set = VectorSet::from_flat(3, flat[..n * 3].to_vec());
        let mut queries = VectorSet::new(3);
        queries.push(&q);
        let gt = ground_truth(&set, &queries, 5);
        let row = &gt[0];
        for w in row.windows(2) {
            prop_assert!(w[0].dist_sq <= w[1].dist_sq);
        }
        let mut ids: Vec<u32> = row.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), row.len());
        // Exactness: no vector beats the reported nearest.
        for v in set.iter() {
            prop_assert!(simdops::l2_sq(&q, v) >= row[0].dist_sq - 1e-4);
        }
    }

    /// Splitting into segments preserves content and order.
    #[test]
    fn segments_cover_everything(
        n in 1usize..200,
        segs in 1usize..10,
    ) {
        prop_assume!(segs <= n);
        let set = VectorSet::from_flat(1, (0..n).map(|i| i as f32).collect());
        let parts = vecstore::split_into_segments(&set, segs);
        prop_assert_eq!(parts.len(), segs);
        let mut rebuilt = VectorSet::new(1);
        for p in &parts {
            rebuilt.extend_from(p);
        }
        prop_assert_eq!(rebuilt, set);
    }

    /// The Lemma-1 hyperplane side predicts the exact distance comparison
    /// for arbitrary triples.
    #[test]
    fn lemma1_holds_for_arbitrary_triples(
        u in proptest::collection::vec(-5.0f32..5.0, 6),
        v in proptest::collection::vec(-5.0f32..5.0, 6),
        w in proptest::collection::vec(-5.0f32..5.0, 6),
    ) {
        let side = quantizers::reliability::hyperplane_side(&u, &v, &w);
        let dv = simdops::l2_sq(&u, &v);
        let dw = simdops::l2_sq(&u, &w);
        if (dv - dw).abs() > 1e-3 {
            prop_assert_eq!(side > 0.0, dv > dw);
        }
    }

    /// The cache model never reports more misses than accesses, and a
    /// repeated scan of a cache-sized region has a strictly lower miss rate
    /// than its cold first pass.
    #[test]
    fn cache_model_sanity(addresses in proptest::collection::vec(0u64..4096, 1..300)) {
        let mut sim = cachesim::CacheSim::new(cachesim::CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 64,
            ways: 4,
        });
        for &a in &addresses {
            sim.access(a);
        }
        let first = sim.stats();
        prop_assert!(first.misses <= first.accesses);
        // Region ≤ cache size → second pass hits everywhere.
        for &a in &addresses {
            sim.access(a);
        }
        let second = sim.stats();
        prop_assert_eq!(second.misses, first.misses, "warm pass must not miss");
    }

    /// Flash codeword blocks always mirror the neighbor-id list they were
    /// synced from (the layout invariant behind the batched CA kernel).
    #[test]
    fn flash_payload_mirrors_ids(pick in proptest::collection::vec(0u32..200, 0..40)) {
        use graphs::DistanceProvider as _;
        // A fixed small provider is enough; the property is about layout.
        let (base, _) = generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 200, 1, 9);
        let provider = FlashProvider::new(
            base,
            FlashParams {
                d_f: 16,
                m_f: 4,
                train_sample: 150,
                kmeans_iters: 5,
                seed: 3,
                grid_quantile: 0.5,
            },
        );
        let mut payload = flash::FlashBlocks::default();
        provider.sync_payload(&mut payload, &pick);
        prop_assert!(flash::provider::blocks_consistent(&provider, payload.as_bytes(), &pick));
    }

    /// Flash's batched Neighbor Selection answer equals the trait's default
    /// scalar loop at every dispatch tier, under every prune rule, for an
    /// odd subspace count (the kernels' tail paths) and selections crossing
    /// the 16-lane blocks.
    #[test]
    fn flash_dominated_matches_default_loop_at_every_level(
        v in 0u32..200,
        selected in proptest::collection::vec(0u32..200, 0..34),
        slack in -2i32..3,
        rule in 0usize..4,
    ) {
        use graphs::DistanceProvider as _;
        static PROVIDER: std::sync::OnceLock<FlashProvider> = std::sync::OnceLock::new();
        let provider = PROVIDER.get_or_init(|| {
            let (base, _) = generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 200, 1, 9);
            FlashProvider::new(
                base,
                FlashParams {
                    d_f: 21,
                    m_f: 7,
                    train_sample: 150,
                    kmeans_iters: 5,
                    seed: 3,
                    grid_quantile: 0.5,
                },
            )
        });
        let mut payload = vec![0; provider.payload_bytes(selected.len())];
        for (lane, &id) in selected.iter().enumerate() {
            provider.append_payload(&mut payload, lane, id);
        }
        // A threshold at, just under or just over the distance at which the
        // rule starts to prune against the nearest selected vertex — the one
        // that decides the answer, as every rule is monotone in `d_uv`.
        let alpha = graphs::AlphaRule::new(1.2);
        let tau = |t: f32, x: f32| (x.sqrt() + 3.0 * t).powi(2);
        let edge = |x: f32| match rule {
            0 => x,
            1 => tau(0.1, x),
            2 => tau(0.5, x),
            _ => alpha.alpha_sq * x,
        };
        let nearest = selected
            .iter()
            .map(|&u| provider.dist_between(u, v))
            .min_by(f32::total_cmp);
        let d = nearest.map_or(40.0, |x| edge(x) + slack as f32);
        let case = (v, selected.as_slice(), payload.as_slice(), d);
        match rule {
            0 => agrees(provider, &graphs::MrngRule, case)?,
            1 => agrees(provider, &graphs::TauRule { tau: 0.1 }, case)?,
            2 => agrees(provider, &graphs::TauRule { tau: 0.5 }, case)?,
            _ => agrees(provider, &alpha, case)?,
        }
    }
}

/// Flash's answer to `dominated` under `rule` — candidate `v` against
/// `selected`, whose block is `payload`, at threshold `d` — equals the
/// trait's default loop at every dispatch level.
fn agrees<R: graphs::PruneRule>(
    provider: &FlashProvider,
    rule: &R,
    (v, selected, payload, d): (u32, &[u32], &[u8], f32),
) -> Result<(), TestCaseError> {
    use graphs::DistanceProvider as _;
    let expect = selected
        .iter()
        .any(|&u| rule.dominated(d, provider.dist_between(u, v)));
    for level in simdops::level::supported_levels() {
        let got =
            simdops::level::with_level(level, || provider.dominated(rule, v, d, selected, payload));
        prop_assert_eq!(got, expect, "level {:?} d {}", level, d);
    }
    Ok(())
}

/// After construction every row's block at every layer mirrors its
/// neighbor list, lane for lane and block for block — the builder only ever
/// appends lanes, installs whole blocks and re-selects a full row's ids and
/// block together, never re-gathers. Rows and blocks are read through the
/// builder's row records, one-at-a-time inserts and the batched build alike;
/// the rows checked end at lanes 16 and 17 and at the capacity `2R`, and
/// rows re-pruned on overflow are checked the moment it happens.
#[test]
fn flash_build_leaves_every_payload_consistent() {
    let (base, _) = generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 600, 1, 11);
    let flash = |base| {
        FlashProvider::new(
            base,
            FlashParams {
                d_f: 16,
                m_f: 4,
                train_sample: 300,
                kmeans_iters: 5,
                seed: 3,
                grid_quantile: 0.5,
            },
        )
    };
    let params = HnswParams {
        c: 48,
        r: 16,
        seed: 2,
    };
    // One at a time: a full row whose ids change was re-pruned (an append
    // cannot touch a full row).
    let mut index = Hnsw::new(flash(base.clone()), params);
    let mut full: std::collections::HashMap<(u32, usize), Vec<u32>> = Default::default();
    let mut repruned = 0;
    for id in 0..index.len() as u32 {
        index.insert(id);
        index.for_each_row(|node, layer, ids, block| {
            let was_full = full.get(&(node, layer)).is_some_and(|old| old != ids);
            if was_full {
                repruned += 1;
                check_row(&index, (node, layer), ids, block);
            }
            if ids.len() == params.cap(layer) {
                full.insert((node, layer), ids.to_vec());
            } else {
                full.remove(&(node, layer));
            }
        });
    }
    assert!(repruned > 0, "no full row was re-pruned");
    check_every_row(&index);
    check_every_row(&Hnsw::build(flash(base), params));
}

/// Checks every row of `index`, and that rows end at lanes 16 and 17 and
/// at the base capacity.
fn check_every_row(index: &Hnsw<FlashProvider>) {
    let mut ends = [false; 3];
    let cap = index.params().cap(0);
    index.for_each_row(|node, layer, ids, block| {
        check_row(index, (node, layer), ids, block);
        for (seen, end) in ends.iter_mut().zip([16, 17, cap]) {
            *seen |= ids.len() == end;
        }
    });
    assert_eq!(ends, [true; 3], "rows ending at lanes 16, 17 and {cap}");
}

/// Row `at` (node, layer): its block region is sized for the layer's
/// capacity (the row record's fixed stride), every lane of the list holds
/// its neighbor's codewords, and the lanes past the list's end in its last
/// block are zero.
fn check_row(index: &Hnsw<FlashProvider>, at: (u32, usize), ids: &[u32], block: &[u8]) {
    use graphs::DistanceProvider as _;
    let provider = index.provider();
    let cap = index.params().cap(at.1);
    assert_eq!(
        block.len(),
        provider.payload_bytes(cap),
        "{at:?}: block region vs capacity"
    );
    assert!(
        flash::provider::blocks_consistent(provider, block, ids),
        "{at:?}"
    );
    let m = provider.codec().subspaces();
    let (last, used) = (ids.len() / LUT_BATCH, ids.len() % LUT_BATCH);
    if used > 0 {
        let last = &block[last * m * LUT_BATCH..][..m * LUT_BATCH];
        for lanes in last.chunks_exact(LUT_BATCH) {
            assert!(
                lanes[used..].iter().all(|&b| b == 0),
                "{at:?}: padding lanes"
            );
        }
    }
}

/// Non-proptest exhaustive check: FlashCodec's scalar quantizer η is
/// monotone over its whole input range.
#[test]
fn flash_quantize_is_monotone() {
    let (base, _) = generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 300, 1, 4);
    let codec = FlashCodec::train(
        &base,
        FlashParams {
            d_f: 16,
            m_f: 4,
            train_sample: 200,
            kmeans_iters: 5,
            seed: 6,
            grid_quantile: 0.5,
        },
    );
    let mut prev = 0u8;
    let mut d = 0.0f32;
    while d < 1e6 {
        let q = codec.quantize(d);
        assert!(q >= prev, "quantize not monotone at {d}");
        prev = q;
        d = (d * 1.3).max(d + 1e-3);
    }
    assert_eq!(codec.quantize(f32::MAX), 255);
}
