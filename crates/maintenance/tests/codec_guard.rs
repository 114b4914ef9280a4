//! The LSM index's one-codec-per-index policy: a stationary stream trains
//! its codec once, a drifted one is re-fitted at its first flush, and the
//! re-fit keeps the drifted vectors findable.

use maintenance::{LsmConfig, LsmVectorIndex};
use vecstore::{generate, DatasetProfile, DatasetSpec, VectorSet};

/// A corpus whose codes an SSNPP-like codec mangles: coded through the
/// first SSNPP-like segment's codec, recall@10 of its queries fell to 0.86.
fn harmful_drift() -> DatasetSpec {
    DatasetSpec::new(256, 300, 0.99, 0.30, 4242)
}

fn insert_all(index: &mut LsmVectorIndex, vectors: &VectorSet) {
    for v in vectors.iter() {
        index.insert(v);
    }
}

/// Recall@10 of `queries` against brute force over `corpus` (ids are
/// insertion order, so row `i` of `corpus` is id `i`).
fn recall_at_10(index: &LsmVectorIndex, corpus: &VectorSet, queries: &VectorSet) -> f64 {
    let truth = vecstore::ground_truth(corpus, queries, 10);
    let mut found = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let hits = index.search(q, 10, 96);
        found += (hits.iter())
            .filter(|h| truth[qi].iter().any(|n| u64::from(n.id) == h.id))
            .count();
    }
    found as f64 / (10 * queries.len()) as f64
}

#[test]
fn stationary_stream_trains_once() {
    // churn_lsm's shape: SSNPP-like 256-d through a 2 048-vector memtable,
    // seven flushes.
    let config = LsmConfig::for_dim(256);
    let n = 7 * config.memtable_cap;
    let corpus = generate(&DatasetProfile::SsnppLike.spec(), n, 0, 50338).0;
    let mut index = LsmVectorIndex::new(config);
    insert_all(&mut index, &corpus);
    let stats = index.stats();
    assert_eq!(stats.segments, 7);
    assert_eq!(
        stats.codec_fits, 1,
        "later flushes encode through the first codec"
    );
    let first = index.segments()[0].codec();
    assert!(index
        .segments()
        .iter()
        .all(|s| std::sync::Arc::ptr_eq(s.codec(), first)));
    index.rebuild();
    assert_eq!(index.stats().codec_fits, 2, "the rebuild re-fits once");
}

#[test]
fn drifted_flush_refits_and_keeps_recall() {
    let config = LsmConfig::for_dim(256);
    let cap = config.memtable_cap;
    let before = generate(&DatasetProfile::SsnppLike.spec(), 2 * cap, 0, 11).0;
    let (after, queries) = generate(&harmful_drift(), 2 * cap, 200, 12);
    let mut index = LsmVectorIndex::new(config);
    insert_all(&mut index, &before);
    assert_eq!(index.stats().codec_fits, 1);
    let fits: Vec<usize> = after
        .as_flat()
        .chunks(cap * 256)
        .map(|rows| {
            insert_all(&mut index, &VectorSet::from_flat(256, rows.to_vec()));
            index.stats().codec_fits
        })
        .collect();
    assert_eq!(fits, [2, 2], "re-fit at the first drifted flush only");

    let mut corpus = before;
    corpus.extend_from(&after);
    let sealed = recall_at_10(&index, &corpus, &queries);
    assert!(sealed >= 0.93, "recall@10 {sealed} before the rebuild");
    index.rebuild();
    let rebuilt = recall_at_10(&index, &corpus, &queries);
    assert!(rebuilt >= 0.97, "recall@10 {rebuilt} after the rebuild");
}
