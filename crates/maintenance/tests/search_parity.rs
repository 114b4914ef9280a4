//! `LsmVectorIndex::search` spreads its memtable scan and segments over the
//! `rayon` pool; its hits must be the sequential merge's, bit for bit, at
//! every pool width, through the inherent search and through `AnnIndex`.

use engine::{AnnIndex, SearchRequest};
use graphs::HnswParams;
use maintenance::{Hit, LsmConfig, LsmVectorIndex};
use rayon::ThreadPoolBuilder;
use std::collections::HashSet;
use vecstore::{generate, DatasetSpec, VectorSet};

const K: usize = 10;
/// As wide as a segment, so a unit costs enough (≈ 30 µs in release) that
/// the caller wakes the pool's helpers.
const EF: usize = 200;

/// Id `i` is row `i` of the returned corpus; `queries` follow.
fn corpus() -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 1300, 12, 1234)
}

/// Six sealed segments of 200 and 100 rows in the memtable, every seventh
/// id deleted from both.
fn churned(base: &VectorSet) -> (LsmVectorIndex, Vec<bool>) {
    let mut config = LsmConfig::for_dim(32);
    config.memtable_cap = 200;
    config.hnsw = HnswParams {
        c: 32,
        r: 8,
        seed: 7,
    };
    let mut index = LsmVectorIndex::new(config);
    let mut alive = Vec::new();
    for v in base.iter() {
        index.insert(v);
        alive.push(true);
    }
    for id in (0..base.len()).step_by(7) {
        assert!(index.delete(id as u64));
        alive[id] = false;
    }
    let stats = index.stats();
    assert_eq!((stats.segments, stats.memtable), (6, 100));
    (index, alive)
}

fn by_dist_then_id(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// The merge done one unit after another: the memtable by brute force over
/// the live ids no segment holds, then every segment, sorted by
/// `(dist, id)` and cut to `k`.
fn sequential(
    index: &LsmVectorIndex,
    base: &VectorSet,
    alive: &[bool],
    q: &[f32],
    k: usize,
) -> Vec<Hit> {
    let sealed: HashSet<u64> = (index.segments().iter())
        .flat_map(|s| s.external_ids().iter().copied())
        .collect();
    let mut memtable: Vec<Hit> = (0..base.len())
        .filter(|&id| alive[id] && !sealed.contains(&(id as u64)))
        .map(|id| Hit {
            id: id as u64,
            dist: simdops::l2_sq(q, base.get(id)),
        })
        .collect();
    memtable.sort_by(by_dist_then_id);
    memtable.truncate(k);
    let mut hits = memtable;
    for segment in index.segments() {
        hits.extend(segment.search(q, k, EF));
    }
    hits.sort_by(by_dist_then_id);
    hits.truncate(k);
    hits
}

fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.dist.to_bits())).collect()
}

/// Both search paths at widths 1-4 against [`sequential`]; the filtered
/// request keeps odd ids over the engine's post-filter pool of
/// `max(16 k, ef)`.
fn assert_parity(index: &LsmVectorIndex, base: &VectorSet, alive: &[bool], queries: &VectorSet) {
    for q in queries.iter() {
        let plain = bits(&sequential(index, base, alive, q, K));
        let mut filtered = sequential(index, base, alive, q, (16 * K).max(EF));
        filtered.retain(|h| h.id % 2 == 1);
        filtered.truncate(K);
        let filtered = bits(&filtered);
        assert_eq!(plain.len(), K);
        let request = SearchRequest::new(q, K).ef(EF).filter(|id| id % 2 == 1);
        let mut profiles = Vec::new();
        for width in 1..=4 {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            pool.install(|| {
                assert_eq!(bits(&index.search(q, K, EF)), plain, "width {width}");
                let response = AnnIndex::search(index, &request);
                assert_eq!(bits(&response.hits), filtered, "filtered, width {width}");
                profiles.push(response.profile);
            });
        }
        let live_segments = index.segments().iter().filter(|s| s.live() > 0).count();
        assert_eq!(profiles[0].scratch_checkouts, live_segments as u64);
        assert!(
            profiles.iter().all(|p| *p == profiles[0]),
            "a unit's profile stayed on a helper"
        );
    }
}

#[test]
fn search_equals_the_sequential_merge_at_every_width() {
    let (base, queries) = corpus();
    let (index, alive) = churned(&base);
    assert_parity(&index, &base, &alive, &queries);
}

#[test]
fn a_rebuilt_index_equals_the_sequential_merge_at_every_width() {
    let (base, queries) = corpus();
    let (mut index, alive) = churned(&base);
    index.rebuild();
    let stats = index.stats();
    assert_eq!((stats.segments, stats.memtable), (1, 0));
    assert_parity(&index, &base, &alive, &queries);
}
