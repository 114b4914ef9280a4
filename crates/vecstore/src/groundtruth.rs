//! Exact brute-force k-nearest-neighbor ground truth.
//!
//! The paper generates ground truth "through a linear scan" (Section 4.1.1);
//! this module is that linear scan, tiled so it runs at the speed of the
//! arithmetic rather than of the memory holding the database.
//!
//! **Tiling.** Queries are taken [`QUERY_TILE`] at a time, and each query
//! tile walks the database one base tile of about [`BASE_TILE_BYTES`] at a
//! time. Within a base tile, each group of four queries meets each group of
//! four rows in one [`l2_sq_4x4`] call, which loads every chunk of a row
//! once for four queries. A base tile of 768 KiB stays in one core's 2 MiB
//! L2 while the eight query groups re-read it, and the four queries being
//! scored (12 KiB at 768-d) stay in L1; without the tile, every query group
//! would stream the whole database (24.6 MB for LAION-like n = 8 000) from
//! L3 again. Thirty-two queries make eight re-reads of each tile, enough to
//! amortise pulling it into L2, while the tile count stays high enough to
//! spread across cores.
//!
//! **Identical to the per-pair scan.** Every distance has [`l2_sq`]'s bits
//! at the current level (the kernel's contract), and each query's top-`k`
//! list sees the rows in ascending id order: tile by tile, group by group,
//! row by row. Its sequence of `(id, distance)` offers is therefore the one
//! a per-pair loop makes, so ties, which go to the smaller id, and every
//! output bit are unchanged.
//!
//! Query tiles run in parallel on the rayon pool and are collected in query
//! order, so the output is the same at any thread count.
//!
//! [`l2_sq`]: simdops::l2_sq

use crate::set::VectorSet;
use rayon::prelude::*;
use simdops::l2_sq_4x4;

/// Queries scored together against each base tile.
pub const QUERY_TILE: usize = 32;

/// Bytes of database rows per base tile (192 rows at 1024-d, 256 at 768-d,
/// 768 at 256-d): under half of a 2 MiB per-core L2, which leaves room for
/// the query tile and whatever else the core touches.
pub const BASE_TILE_BYTES: usize = 768 << 10;

/// One exact neighbor: vector id plus squared L2 distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index into the database [`VectorSet`].
    pub id: u32,
    /// Squared Euclidean distance to the query.
    pub dist_sq: f32,
}

/// Computes the exact top-`k` neighbors of every query by linear scan.
///
/// Results per query are sorted by ascending distance (ties broken by id so
/// output is deterministic).
///
/// # Panics
/// Panics if dimensionalities differ or `k == 0`.
pub fn ground_truth(base: &VectorSet, queries: &VectorSet, k: usize) -> Vec<Vec<Neighbor>> {
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    assert!(k > 0, "k must be positive");
    let k = k.min(base.len());
    let tile_rows = (BASE_TILE_BYTES / (4 * base.dim())).max(4) / 4 * 4;

    let tiles: Vec<Vec<Vec<Neighbor>>> = (0..queries.len().div_ceil(QUERY_TILE))
        .into_par_iter()
        .map(|t| {
            let first = t * QUERY_TILE;
            let count = QUERY_TILE.min(queries.len() - first);
            let mut heaps: Vec<Vec<Neighbor>> =
                (0..count).map(|_| Vec::with_capacity(k + 1)).collect();
            for tile in (0..base.len()).step_by(tile_rows) {
                let end = base.len().min(tile + tile_rows);
                for (g, heaps) in heaps.chunks_mut(4).enumerate() {
                    let q = quad(queries, first + 4 * g, first + count);
                    for r in (tile..end).step_by(4) {
                        let d = l2_sq_4x4(q, quad(base, r, end));
                        for (heap, d) in heaps.iter_mut().zip(d) {
                            for (id, d) in (r..end).zip(d) {
                                offer(heap, k, id as u32, d);
                            }
                        }
                    }
                }
            }
            for heap in &mut heaps {
                heap.sort_by(cmp_neighbor);
            }
            heaps
        })
        .collect();
    tiles.into_iter().flatten().collect()
}

/// Rows `i..i + 4` of `set`, the last row below `end` standing in for any
/// at or past it; its repeated results are never read.
fn quad(set: &VectorSet, i: usize, end: usize) -> [&[f32]; 4] {
    [0, 1, 2, 3].map(|j| set.get((i + j).min(end - 1)))
}

/// Offers row `id` at `dist_sq` to one query's best `k` so far: the list
/// fills unsorted, is sorted once full, then stays sorted as each closer row
/// is inserted and the farthest dropped.
fn offer(heap: &mut Vec<Neighbor>, k: usize, id: u32, dist_sq: f32) {
    if heap.len() < k {
        heap.push(Neighbor { id, dist_sq });
        if heap.len() == k {
            heap.sort_by(cmp_neighbor);
        }
    } else if dist_sq < heap[k - 1].dist_sq {
        let pos = heap.partition_point(|n| (n.dist_sq, n.id) < (dist_sq, id));
        heap.insert(pos, Neighbor { id, dist_sq });
        heap.pop();
    }
}

fn cmp_neighbor(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    (a.dist_sq, a.id)
        .partial_cmp(&(b.dist_sq, b.id))
        .expect("NaN distance in ground truth")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d() -> VectorSet {
        // Points 0, 1, ..., 9 on a line.
        VectorSet::from_flat(1, (0..10).map(|i| i as f32).collect())
    }

    #[test]
    fn finds_exact_neighbors_on_a_line() {
        let base = grid_1d();
        let queries = VectorSet::from_flat(1, vec![3.2]);
        let gt = ground_truth(&base, &queries, 3);
        let ids: Vec<u32> = gt[0].iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 4, 2]);
    }

    #[test]
    fn distances_are_sorted() {
        let base = grid_1d();
        let queries = VectorSet::from_flat(1, vec![7.9, 0.1]);
        let gt = ground_truth(&base, &queries, 5);
        for per_query in &gt {
            for w in per_query.windows(2) {
                assert!(w[0].dist_sq <= w[1].dist_sq);
            }
        }
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let base = VectorSet::from_flat(1, vec![1.0, 2.0]);
        let queries = VectorSet::from_flat(1, vec![0.0]);
        let gt = ground_truth(&base, &queries, 10);
        assert_eq!(gt[0].len(), 2);
    }

    #[test]
    fn ties_break_by_id() {
        // Two points equidistant from the query.
        let base = VectorSet::from_flat(1, vec![-1.0, 1.0]);
        let queries = VectorSet::from_flat(1, vec![0.0]);
        let gt = ground_truth(&base, &queries, 2);
        assert_eq!(gt[0][0].id, 0);
        assert_eq!(gt[0][1].id, 1);
    }

    #[test]
    fn three_threads_equal_one_bit_for_bit() {
        let (base, queries) =
            crate::generate(&crate::DatasetSpec::new(16, 8, 0.9, 0.3, 2), 1500, 97, 5);
        let at = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("a pool");
            pool.install(|| ground_truth(&base, &queries, 10))
        };
        let bits = |gt: Vec<Vec<Neighbor>>| -> Vec<(u32, u32)> {
            gt.iter()
                .flatten()
                .map(|n| (n.id, n.dist_sq.to_bits()))
                .collect()
        };
        assert_eq!(bits(at(1)), bits(at(3)));
    }

    #[test]
    fn multi_dimensional_case() {
        let base = VectorSet::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0]);
        let queries = VectorSet::from_flat(2, vec![0.5, 0.5]);
        let gt = ground_truth(&base, &queries, 3);
        // (0,0) and (1,1) are both at squared distance 0.5; tie breaks by id.
        assert_eq!(gt[0][0].id, 0);
        assert_eq!(gt[0][1].id, 2);
        assert_eq!(gt[0][2].id, 1);
        assert!((gt[0][0].dist_sq - 0.5).abs() < 1e-6);
        assert!((gt[0][1].dist_sq - 0.5).abs() < 1e-6);
    }
}
