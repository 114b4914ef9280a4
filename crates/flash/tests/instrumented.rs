//! `graphs::stats::Instrumented` only times its provider: a graph built and
//! searched through the wrapper must give the wrapped provider's hits and
//! query profile, coded/exact split and codeword bytes included, on the
//! live `Hnsw::search` and on the frozen `search_layers` alike.

use flash::{FlashParams, FlashProvider};
use graphs::providers::FullPrecision;
use graphs::stats::Instrumented;
use graphs::{
    profile_reset, profile_take, search_layers, DistanceProvider, Hit, Hnsw, HnswParams,
    QueryProfile,
};
use vecstore::{generate, DatasetSpec, VectorSet};

const K: usize = 5;
const EF: usize = 40;

/// One query's hits, as `(id, distance bits)`, and profile.
#[derive(Debug, PartialEq)]
struct Answer {
    hits: Vec<(u64, u32)>,
    profile: QueryProfile,
}

/// Runs `search` as one profiled query.
fn answer(search: impl FnOnce() -> Vec<Hit>) -> Answer {
    profile_reset();
    let hits = search().iter().map(|h| (h.id, h.dist.to_bits())).collect();
    Answer {
        hits,
        profile: profile_take(),
    }
}

/// Every query's answer from the live index, then from the frozen one.
fn answers<P: DistanceProvider>(provider: P, queries: &VectorSet) -> Vec<[Answer; 2]> {
    let params = HnswParams {
        c: 32,
        r: 8,
        seed: 7,
    };
    let hnsw = Hnsw::build(provider, params);
    let live: Vec<Answer> = (queries.iter())
        .map(|q| answer(|| hnsw.search(q, K, EF)))
        .collect();
    let frozen = hnsw.into_frozen();
    (live.into_iter().zip(queries.iter()))
        .map(|(live, q)| {
            let (provider, layers) = (frozen.provider(), frozen.layers());
            [live, answer(|| search_layers(provider, layers, q, K, EF))]
        })
        .collect()
}

fn corpus() -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 500, 6, 1234)
}

fn flash(base: VectorSet) -> FlashProvider {
    FlashProvider::new(
        base,
        FlashParams {
            d_f: 16,
            m_f: 4,
            train_sample: 150,
            kmeans_iters: 5,
            seed: 7,
            grid_quantile: 0.5,
        },
    )
}

#[test]
fn instrumented_flash_answers_and_profiles_like_flash() {
    let (base, queries) = corpus();
    let plain = answers(flash(base.clone()), &queries);
    let coded = |a: &Answer| a.profile.dist_coded > 0 && a.profile.codeword_bytes > 0;
    assert!(plain.iter().flatten().all(coded));
    assert_eq!(answers(Instrumented::new(flash(base)), &queries), plain);
}

#[test]
fn instrumented_full_answers_and_profiles_like_full() {
    let (base, queries) = corpus();
    let plain = answers(FullPrecision::new(base.clone()), &queries);
    assert!(plain.iter().flatten().all(|a| a.profile.dist_exact > 0));
    let wrapped = Instrumented::new(FullPrecision::new(base));
    assert_eq!(answers(wrapped, &queries), plain);
}
