//! HCNNG — Hierarchical Clustering-based Nearest Neighbor Graph (Muñoz et
//! al., Pattern Recognition 2019), the MST-family builder the paper's
//! Section 2.1.1 lists alongside the MRNG-family graphs.
//!
//! HCNNG builds its graph from **minimum spanning trees over random
//! hierarchical clusterings**: each of `T` passes recursively bipartitions
//! the dataset with two random pivots until clusters fall below a leaf
//! size, computes a degree-bounded MST inside every leaf, and the union of
//! all trees' edges (made bidirectional) is the final graph. Unlike the
//! CA+NS family, there is no beam search during construction — but every
//! edge weight is still a distance computation, and those route through
//! [`DistanceProvider::dist_between`], so compact-coding providers (Flash
//! included) accelerate HCNNG construction too. This makes HCNNG a useful
//! *contrast* workload: its distance pattern is candidate-pool-free, so
//! layout-level optimizations (neighbor-codeword batches) do not apply and
//! only the cheap-distance effect remains.

use crate::flat_build::{freeze, medoid, reachable_mask};
use crate::layers_search::FrozenGraph;
use crate::provider::DistanceProvider;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// HCNNG construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct HcnngParams {
    /// Number of random clustering passes `T` (each contributes one forest).
    pub trees: usize,
    /// Maximum leaf size before an MST is computed.
    pub leaf_size: usize,
    /// Maximum degree a vertex may reach *within one tree's MST*
    /// (the original paper uses 3).
    pub mst_degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HcnngParams {
    fn default() -> Self {
        Self {
            trees: 10,
            leaf_size: 48,
            mst_degree: 3,
            seed: 0x5eed,
        }
    }
}

/// Builds an HCNNG — `T` parallel random clusterings, a degree-bounded MST
/// per leaf, union of edges — and returns the provider paired with a
/// one-layer topology entered at the medoid.
pub fn build<P: DistanceProvider>(provider: P, params: HcnngParams) -> FrozenGraph<P> {
    assert!(params.trees >= 1, "at least one clustering pass required");
    assert!(params.leaf_size >= 2, "leaf size must allow an edge");
    assert!(params.mst_degree >= 1, "MST degree bound must be positive");
    let n = provider.len();
    if n == 0 {
        return freeze(provider, Vec::new(), 0);
    }

    // Each pass produces its own edge list; passes are independent.
    let provider_ref = &provider;
    let forests: Vec<Vec<(u32, u32)>> = (0..params.trees)
        .into_par_iter()
        .map(|t| {
            let mut rng =
                SmallRng::seed_from_u64(params.seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let mut ids: Vec<u32> = (0..n as u32).collect();
            let mut edges = Vec::new();
            cluster_recurse(provider_ref, &mut ids, params, &mut rng, &mut edges);
            edges
        })
        .collect();

    // Union into bidirectional adjacency sets.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for edges in forests {
        for (a, b) in edges {
            if !adj[a as usize].contains(&b) {
                adj[a as usize].push(b);
            }
            if !adj[b as usize].contains(&a) {
                adj[b as usize].push(a);
            }
        }
    }

    let entry = medoid(&provider);

    attach_unreachable(&mut adj, entry);
    freeze(provider, adj, entry)
}

/// Recursively bipartitions `ids` with two random pivots; emits MST edges
/// at the leaves. Partitioning distances and MST weights both go through
/// the provider.
fn cluster_recurse<P: DistanceProvider>(
    provider: &P,
    ids: &mut [u32],
    params: HcnngParams,
    rng: &mut SmallRng,
    edges: &mut Vec<(u32, u32)>,
) {
    if ids.len() <= params.leaf_size {
        leaf_mst(provider, ids, params.mst_degree, edges);
        return;
    }
    // Two distinct random pivots.
    let pa = ids[rng.gen_range(0..ids.len())];
    let pb = loop {
        let c = ids[rng.gen_range(0..ids.len())];
        if c != pa {
            break c;
        }
    };
    // Partition in place: closer-to-pa first. Ties break by id parity so a
    // degenerate metric (all-equal points) still splits roughly in half.
    let mut left = 0usize;
    let mut right = ids.len();
    let mut i = 0usize;
    while i < right {
        let x = ids[i];
        let da = provider.dist_between(x, pa);
        let db = provider.dist_between(x, pb);
        let to_left = if da != db {
            da < db
        } else {
            x.is_multiple_of(2)
        };
        if to_left {
            ids.swap(i, left);
            left += 1;
            i = i.max(left);
        } else {
            right -= 1;
            ids.swap(i, right);
        }
    }
    // Guard against degenerate splits (all points identical to one pivot).
    if left == 0 || left == ids.len() {
        let mid = ids.len() / 2;
        let (a, b) = ids.split_at_mut(mid);
        cluster_recurse(provider, a, params, rng, edges);
        cluster_recurse(provider, b, params, rng, edges);
        return;
    }
    let (a, b) = ids.split_at_mut(left);
    cluster_recurse(provider, a, params, rng, edges);
    cluster_recurse(provider, b, params, rng, edges);
}

/// Degree-bounded MST inside one leaf: Kruskal over all pairwise edges,
/// accepting an edge only if both endpoints stay under the degree bound
/// and the edge merges two components. Edges carry leaf-local indices and
/// are taken in `(dist, ids[i], ids[j])` order.
fn leaf_mst<P: DistanceProvider>(
    provider: &P,
    ids: &[u32],
    max_degree: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    let m = ids.len();
    if m < 2 {
        return;
    }
    let mut all: Vec<(f32, usize, usize)> = Vec::with_capacity(m * (m - 1) / 2);
    for i in 0..m {
        for j in (i + 1)..m {
            all.push((provider.dist_between(ids[i], ids[j]), i, j));
        }
    }
    all.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(ids[a.1].cmp(&ids[b.1]))
            .then(ids[a.2].cmp(&ids[b.2]))
    });

    // Union-find over leaf-local indices.
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut degree = vec![0usize; m];
    let mut accepted = 0;
    for (_, ia, ib) in all {
        if accepted == m - 1 {
            break;
        }
        if degree[ia] >= max_degree || degree[ib] >= max_degree {
            continue;
        }
        let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
        if ra == rb {
            continue;
        }
        parent[ra] = rb;
        degree[ia] += 1;
        degree[ib] += 1;
        edges.push((ids[ia], ids[ib]));
        accepted += 1;
    }
}

/// The degree bound can leave a leaf's forest (and hence the union graph)
/// disconnected; link any unreachable vertex from the entry.
fn attach_unreachable(adj: &mut [Vec<u32>], entry: u32) {
    let seen = reachable_mask(adj, entry);
    let orphans: Vec<usize> = seen
        .iter()
        .enumerate()
        .filter(|(_, &s)| !s)
        .map(|(x, _)| x)
        .collect();
    for x in orphans {
        adj[entry as usize].push(x as u32);
        adj[x].push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use crate::search_layers;
    use crate::stats::GraphStats;
    use vecstore::VectorSet;

    fn grid(side: usize) -> VectorSet {
        let mut s = VectorSet::new(2);
        for i in 0..side {
            for j in 0..side {
                s.push(&[i as f32, j as f32]);
            }
        }
        s
    }

    fn build_grid(side: usize) -> FrozenGraph<FullPrecision> {
        build(
            FullPrecision::new(grid(side)),
            HcnngParams {
                trees: 6,
                leaf_size: 24,
                mst_degree: 3,
                seed: 13,
            },
        )
    }

    #[test]
    fn finds_nearest_on_grid() {
        let index = build_grid(10);
        let hits = search_layers(index.provider(), index.layers(), &[7.1, 2.2], 1, 32);
        assert_eq!(hits[0].id, 72, "expected grid point (7,2)");
    }

    #[test]
    fn graph_is_bidirectional() {
        let index = build_grid(9);
        let g = index.layers();
        for u in 0..g.len() {
            for &v in g.neighbors(0, u as u32) {
                assert!(
                    g.neighbors(0, v).contains(&(u as u32)),
                    "edge {u}→{v} missing its reverse"
                );
            }
        }
    }

    #[test]
    fn fully_reachable() {
        let index = build_grid(9);
        assert_eq!(GraphStats::from_layers(index.layers()).reachable, 81);
    }

    #[test]
    fn more_trees_add_edges() {
        let base = grid(10);
        let few = build(
            FullPrecision::new(base.clone()),
            HcnngParams {
                trees: 2,
                leaf_size: 24,
                mst_degree: 3,
                seed: 1,
            },
        );
        let many = build(
            FullPrecision::new(base),
            HcnngParams {
                trees: 12,
                leaf_size: 24,
                mst_degree: 3,
                seed: 1,
            },
        );
        assert!(many.layers().base_edges() > few.layers().base_edges());
    }

    #[test]
    fn mst_degree_bound_respected_single_tree() {
        // With one tree and no repair edges, every vertex degree must be
        // ≤ mst_degree (union of passes may exceed it; one pass may not).
        let base = grid(8);
        let index = build(
            FullPrecision::new(base),
            HcnngParams {
                trees: 1,
                leaf_size: 64,
                mst_degree: 3,
                seed: 5,
            },
        );
        let g = index.layers();
        let entry = g.entry as usize;
        for i in 0..g.len() {
            if i == entry {
                continue; // connectivity repair may oversize the entry
            }
            let deg = g.neighbors(0, i as u32).len();
            assert!(deg <= 3 + 1, "degree {deg} at {i}");
        }
    }

    #[test]
    fn recall_reasonable_on_grid() {
        let base = grid(12);
        let index = build(
            FullPrecision::new(base.clone()),
            HcnngParams {
                trees: 8,
                leaf_size: 32,
                mst_degree: 3,
                seed: 9,
            },
        );
        let gt = vecstore::ground_truth(&base, &base.slice(0, 30), 3);
        let mut hit = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found = search_layers(index.provider(), index.layers(), base.get(qi), 3, 64);
            let ids: Vec<u64> = found.iter().map(|r| r.id).collect();
            hit += truth
                .iter()
                .filter(|t| ids.contains(&u64::from(t.id)))
                .count();
        }
        let recall = hit as f64 / 90.0;
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn empty_and_single_vector() {
        let empty = build(
            FullPrecision::new(VectorSet::new(3)),
            HcnngParams::default(),
        );
        assert!(search_layers(empty.provider(), empty.layers(), &[0.0; 3], 2, 8).is_empty());

        let mut one = VectorSet::new(2);
        one.push(&[1.0, 2.0]);
        let index = build(FullPrecision::new(one), HcnngParams::default());
        assert_eq!(
            search_layers(index.provider(), index.layers(), &[0.0, 0.0], 1, 4)[0].id,
            0
        );
    }

    #[test]
    fn identical_points_do_not_hang() {
        // Degenerate metric: every point identical — the parity tiebreak
        // and the split guard must still terminate recursion.
        let mut s = VectorSet::new(2);
        for _ in 0..100 {
            s.push(&[1.0, 1.0]);
        }
        let index = build(
            FullPrecision::new(s),
            HcnngParams {
                trees: 2,
                leaf_size: 8,
                mst_degree: 3,
                seed: 3,
            },
        );
        assert_eq!(index.layers().len(), 100);
    }
}
