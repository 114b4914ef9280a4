//! The tiled `ground_truth` against the per-pair linear scan it replaced.
//!
//! The oracle is that scan, verbatim: one query at a time, every row in id
//! order, one `l2_sq` per pair. The tiled scan must give the same ids and
//! distance bits at every SIMD level, for query counts off the 4- and
//! 32-query groupings, base sizes off the 4-row grouping and the base tile,
//! ties across tile boundaries, and `k` beyond the base size.
//!
//! Its own test binary: the level override is process-wide, and the crate's
//! unit tests scan at whatever level is current.

use simdops::level::with_level;
use simdops::{l2_sq, supported_levels};
use std::sync::{Mutex, PoisonError};
use vecstore::groundtruth::{BASE_TILE_BYTES, QUERY_TILE};
use vecstore::{generate, ground_truth, DatasetSpec, Neighbor, VectorSet};

/// The per-pair scan `ground_truth` was before it was tiled.
fn per_pair_oracle(base: &VectorSet, queries: &VectorSet, k: usize) -> Vec<Vec<Neighbor>> {
    let k = k.min(base.len());
    let cmp = |a: &Neighbor, b: &Neighbor| (a.dist_sq, a.id).partial_cmp(&(b.dist_sq, b.id));
    (0..queries.len())
        .map(|qi| {
            let q = queries.get(qi);
            let mut heap: Vec<Neighbor> = Vec::with_capacity(k + 1);
            for (id, v) in base.iter().enumerate() {
                let d = l2_sq(q, v);
                if heap.len() < k {
                    heap.push(Neighbor {
                        id: id as u32,
                        dist_sq: d,
                    });
                    if heap.len() == k {
                        heap.sort_by(|a, b| cmp(a, b).unwrap());
                    }
                } else if d < heap[k - 1].dist_sq {
                    let pos = heap.partition_point(|n| (n.dist_sq, n.id) < (d, id as u32));
                    heap.insert(
                        pos,
                        Neighbor {
                            id: id as u32,
                            dist_sq: d,
                        },
                    );
                    heap.pop();
                }
            }
            heap.sort_by(|a, b| cmp(a, b).unwrap());
            heap
        })
        .collect()
}

fn bits(truth: &[Vec<Neighbor>]) -> Vec<Vec<(u32, u32)>> {
    truth
        .iter()
        .map(|row| row.iter().map(|n| (n.id, n.dist_sq.to_bits())).collect())
        .collect()
}

/// Rows of the base tile `ground_truth` uses at `dim`.
fn tile_rows(dim: usize) -> usize {
    (BASE_TILE_BYTES / (4 * dim)).max(4) / 4 * 4
}

/// `ground_truth` of the first `nq` queries, for each of `counts`, is the
/// oracle's at every level, for `k` = 1, 10 and past the base size.
fn assert_matches_oracle(base: &VectorSet, queries: &VectorSet, counts: &[usize], what: &str) {
    // Two overlapping `with_level` scopes would restore each other's level.
    static LEVEL: Mutex<()> = Mutex::new(());
    let _serial = LEVEL.lock().unwrap_or_else(PoisonError::into_inner);
    for level in supported_levels() {
        for k in [1, 10, base.len() + 3] {
            with_level(level, || {
                let want = bits(&per_pair_oracle(base, queries, k));
                for &nq in counts {
                    let got = bits(&ground_truth(base, &queries.slice(0, nq), k));
                    assert_eq!(
                        got,
                        want[..nq],
                        "{what}: {level:?} k={k} n={} nq={nq}",
                        base.len()
                    );
                }
            });
        }
    }
}

#[test]
fn ragged_query_and_base_counts_match_the_per_pair_scan() {
    // 1024-d: a 192-row base tile, so 421 rows are three tiles, the last
    // ending in a one-row group; 257-d ends every vector in a scalar tail.
    assert_eq!(tile_rows(1024), 192);
    for (dim, n) in [(1024, 421), (257, 767), (33, 3), (1, 50)] {
        let spec = DatasetSpec::new(dim, 5, 0.95, 0.4, dim as u64);
        let (base, queries) = generate(&spec, n, 2 * QUERY_TILE + 6, 3);
        let counts = [3, QUERY_TILE + 5, 2 * QUERY_TILE + 6];
        assert_matches_oracle(&base, &queries, &counts, &format!("dim={dim}"));
    }
}

#[test]
fn ties_go_to_the_smaller_id_within_and_across_tiles() {
    // Sparse 0/1 coordinates, about two ones per vector, make small integer
    // distances; an eighth of the rows are all zero, tied across groups.
    // Rows `4g + 2` and `4g + 3` repeat rows `4g` and `4g + 1`, so every
    // row has a twin in its four-row group, and row `i + tile` repeats row
    // `i`, a twin in the next tile.
    let dim = 1024;
    let tile = tile_rows(dim);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut coord = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        f32::from(u8::from(state.is_multiple_of(512)))
    };
    let mut head: Vec<f32> = (0..tile * dim).map(|_| coord()).collect();
    for group in head.chunks_exact_mut(4 * dim) {
        group.copy_within(..2 * dim, 2 * dim);
    }
    let mut flat = head.clone();
    flat.extend_from_slice(&head);
    flat.extend_from_slice(&head[..37 * dim]);
    let base = VectorSet::from_flat(dim, flat);
    let queries = VectorSet::from_flat(dim, (0..13 * dim).map(|_| coord()).collect());
    assert_matches_oracle(&base, &queries, &[13], "ties");
}

#[test]
fn empty_inputs_give_empty_lists() {
    let base = VectorSet::from_flat(4, vec![1.0; 8]);
    let none = VectorSet::new(4);
    assert!(ground_truth(&base, &none, 3).is_empty());
    let lists = ground_truth(&none, &base, 3);
    assert_eq!(lists.len(), 2);
    assert!(lists.iter().all(Vec::is_empty));
}
