//! Attribute-constrained (hybrid) ANNS on HNSW.
//!
//! The paper's introduction motivates construction speed with hybrid
//! search: *"constructing a specialized HNSW index for
//! attribute-constrained ANNS takes 33× longer than a standard index"*.
//! This module reproduces the two standard deployment shapes so that the
//! cost amplification — and Flash's mitigation of it — can be measured:
//!
//! 1. **Shared graph, filtered search**: one index over all vectors;
//!    queries carry a predicate and only matching vertices enter the
//!    result set ([`crate::search_layers_filtered`]). Construction cost is
//!    that of a single index, but low-selectivity predicates degrade both
//!    recall and QPS because the beam wades through rejected vertices.
//! 2. **Specialized per-label indexes** ([`LabeledHnsw`]): one sub-index
//!    per attribute value. Filtered queries become plain searches on the
//!    matching sub-index — fast and accurate — but construction cost
//!    multiplies with the number of labels, which is precisely the cost
//!    the paper says makes indexing time a user-facing metric. Because the
//!    sub-indexes are built through the same [`DistanceProvider`]
//!    machinery, a Flash factory accelerates the specialized build the
//!    same way it accelerates a standard one.

use crate::hnsw::{Hnsw, HnswParams};
use crate::layers_search::{search_layers, FrozenGraph};
use crate::provider::DistanceProvider;
use crate::Hit;
use vecstore::VectorSet;

/// Parameters of the per-label specialized build.
#[derive(Debug, Clone, Copy)]
pub struct LabeledParams {
    /// HNSW parameters applied to every sub-index.
    pub hnsw: HnswParams,
    /// Labels with fewer vectors than this are served by brute force
    /// instead of a graph (a graph over a handful of points is pure
    /// overhead).
    pub min_graph_size: usize,
}

impl Default for LabeledParams {
    fn default() -> Self {
        Self {
            hnsw: HnswParams::default(),
            min_graph_size: 32,
        }
    }
}

/// One per-label partition: the global ids it covers and either a graph
/// sub-index or a brute-force fallback for tiny partitions.
struct Partition<P: DistanceProvider> {
    label: u32,
    /// Global vector ids, in sub-index id order.
    ids: Vec<u32>,
    index: PartitionIndex<P>,
}

enum PartitionIndex<P: DistanceProvider> {
    Graph(FrozenGraph<P>),
    /// Tiny partitions keep raw vectors and scan them.
    Flat(VectorSet),
}

/// A specialized attribute-constrained index: one HNSW per label value.
pub struct LabeledHnsw<P: DistanceProvider> {
    partitions: Vec<Partition<P>>,
    params: LabeledParams,
}

impl<P: DistanceProvider> LabeledHnsw<P> {
    /// Builds one sub-index per distinct label. `labels[i]` is the label of
    /// `base` vector `i`; `factory` turns each label's vector subset into a
    /// provider (e.g. `FullPrecision::new` or a Flash factory), so the same
    /// build works for every coding method in the paper.
    pub fn build<F>(base: &VectorSet, labels: &[u32], params: LabeledParams, factory: F) -> Self
    where
        F: Fn(VectorSet) -> P,
    {
        assert_eq!(base.len(), labels.len(), "one label per vector required");
        let mut distinct: Vec<u32> = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();

        let mut partitions = Vec::with_capacity(distinct.len());
        for label in distinct {
            let ids: Vec<u32> = (0..base.len() as u32)
                .filter(|&i| labels[i as usize] == label)
                .collect();
            let mut subset = VectorSet::with_capacity(base.dim(), ids.len());
            for &i in &ids {
                subset.push(base.get(i as usize));
            }
            let index = if ids.len() >= params.min_graph_size {
                PartitionIndex::Graph(Hnsw::build(factory(subset), params.hnsw).into_frozen())
            } else {
                PartitionIndex::Flat(subset)
            };
            partitions.push(Partition { label, ids, index });
        }
        Self { partitions, params }
    }

    /// Number of distinct labels / sub-indexes.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Vector dimensionality (0 when the index covers no vectors).
    pub fn dim(&self) -> usize {
        self.partitions.first().map_or(0, |p| match &p.index {
            PartitionIndex::Graph(g) => g.provider().base().dim(),
            PartitionIndex::Flat(v) => v.dim(),
        })
    }

    /// Total vectors across all partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.ids.len()).sum()
    }

    /// Whether the index covers no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The build parameters.
    pub fn params(&self) -> &LabeledParams {
        &self.params
    }

    /// Vectors carrying `label`.
    pub fn label_count(&self, label: u32) -> usize {
        self.partitions
            .iter()
            .find(|p| p.label == label)
            .map_or(0, |p| p.ids.len())
    }

    /// k-NN among vectors whose label equals `label`. Results carry
    /// *global* ids. Unknown labels return no hits.
    pub fn search(&self, query: &[f32], label: u32, k: usize, ef: usize) -> Vec<Hit> {
        let Some(part) = self.partitions.iter().find(|p| p.label == label) else {
            return Vec::new();
        };
        match &part.index {
            PartitionIndex::Graph(g) => search_layers(g.provider(), g.layers(), query, k, ef)
                .into_iter()
                .map(|r| Hit {
                    id: u64::from(part.ids[r.id as usize]),
                    dist: r.dist,
                })
                .collect(),
            PartitionIndex::Flat(vectors) => {
                // Brute-force partition scan: one exact eval per vector.
                crate::scratch::profile_record(metrics::QueryProfile {
                    dist_exact: vectors.len() as u64,
                    ..metrics::QueryProfile::new()
                });
                let hits: Vec<Hit> = vectors
                    .iter()
                    .enumerate()
                    .map(|(i, v)| Hit {
                        id: u64::from(part.ids[i]),
                        dist: simdops::l2_sq(query, v),
                    })
                    .collect();
                crate::k_best(hits, k)
            }
        }
    }

    /// Total index size across partitions (adjacency + provider bytes for
    /// graph partitions; raw vector bytes for flat ones).
    pub fn index_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| match &p.index {
                PartitionIndex::Graph(g) => g.index_bytes(),
                PartitionIndex::Flat(v) => v.payload_bytes(),
            } + p.ids.len() * std::mem::size_of::<u32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::FullPrecision;
    use crate::search_layers_filtered;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Two labeled clusters far apart: label 0 near the origin, label 1
    /// shifted by +100 on every axis.
    fn labeled_clusters(n_per: usize, dim: usize, seed: u64) -> (VectorSet, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut base = VectorSet::with_capacity(dim, n_per * 2);
        let mut labels = Vec::with_capacity(n_per * 2);
        for label in 0..2u32 {
            let shift = label as f32 * 100.0;
            for _ in 0..n_per {
                let v: Vec<f32> = (0..dim).map(|_| shift + rng.gen_range(-1.0..1.0)).collect();
                base.push(&v);
                labels.push(label);
            }
        }
        (base, labels)
    }

    #[test]
    fn per_label_search_respects_label() {
        let (base, labels) = labeled_clusters(100, 4, 1);
        let index = LabeledHnsw::build(
            &base,
            &labels,
            LabeledParams {
                hnsw: HnswParams {
                    c: 48,
                    r: 8,
                    seed: 2,
                },
                min_graph_size: 16,
            },
            FullPrecision::new,
        );
        // Query near cluster 1's center but constrained to label 0 must
        // return label-0 vectors (global ids < 100).
        let q = vec![100.0; 4];
        for hit in index.search(&q, 0, 5, 32) {
            assert!(hit.id < 100, "label-0 search returned global id {}", hit.id);
        }
    }

    #[test]
    fn unknown_label_returns_empty() {
        let (base, labels) = labeled_clusters(40, 4, 3);
        let index =
            LabeledHnsw::build(&base, &labels, LabeledParams::default(), FullPrecision::new);
        assert!(index.search(&[0.0; 4], 99, 3, 16).is_empty());
    }

    #[test]
    fn tiny_partition_falls_back_to_flat_scan() {
        let mut base = VectorSet::new(2);
        let mut labels = Vec::new();
        // Label 0: 50 points; label 1: only 3 points.
        for i in 0..50 {
            base.push(&[i as f32, 0.0]);
            labels.push(0);
        }
        for i in 0..3 {
            base.push(&[i as f32, 50.0]);
            labels.push(1);
        }
        let index = LabeledHnsw::build(
            &base,
            &labels,
            LabeledParams {
                hnsw: HnswParams {
                    c: 32,
                    r: 8,
                    seed: 4,
                },
                min_graph_size: 10,
            },
            FullPrecision::new,
        );
        let hits = index.search(&[1.2, 50.0], 1, 1, 8);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 51, "expected the label-1 point (1, 50)");
    }

    #[test]
    fn global_ids_round_trip() {
        let (base, labels) = labeled_clusters(60, 4, 7);
        let index = LabeledHnsw::build(
            &base,
            &labels,
            LabeledParams {
                hnsw: HnswParams {
                    c: 48,
                    r: 8,
                    seed: 5,
                },
                min_graph_size: 16,
            },
            FullPrecision::new,
        );
        // Querying with an exact database vector must return its global id.
        let probe = 90usize; // a label-1 vector (global ids 60..120)
        let hits = index.search(base.get(probe), 1, 1, 32);
        assert_eq!(hits[0].id, probe as u64);
        assert!(hits[0].dist < 1e-6);
    }

    #[test]
    fn accounting_counts_all_partitions() {
        let (base, labels) = labeled_clusters(50, 4, 9);
        let index =
            LabeledHnsw::build(&base, &labels, LabeledParams::default(), FullPrecision::new);
        assert_eq!(index.partitions(), 2);
        assert_eq!(index.len(), 100);
        assert_eq!(index.label_count(0), 50);
        assert_eq!(index.label_count(1), 50);
        assert_eq!(index.label_count(9), 0);
        assert!(index.index_bytes() > 0);
    }

    #[test]
    fn filtered_search_on_shared_graph_respects_predicate() {
        let (base, labels) = labeled_clusters(80, 4, 11);
        let shared = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 48,
                r: 8,
                seed: 6,
            },
        )
        .into_frozen();
        let labels_ref = &labels;
        let accept = move |id: u32| labels_ref[id as usize] == 1;
        let q = vec![0.0; 4]; // near cluster 0 — the filter must push results to cluster 1
        let hits = search_layers_filtered(shared.provider(), shared.layers(), &q, 5, 64, &accept);
        assert!(!hits.is_empty());
        for hit in &hits {
            assert_eq!(
                labels[hit.id as usize], 1,
                "predicate violated for id {}",
                hit.id
            );
        }
    }

    #[test]
    fn filtered_search_matches_exact_filtered_ground_truth() {
        let (base, labels) = labeled_clusters(100, 4, 13);
        let shared = Hnsw::build(
            FullPrecision::new(base.clone()),
            HnswParams {
                c: 64,
                r: 8,
                seed: 8,
            },
        )
        .into_frozen();
        let labels_ref = &labels;
        let accept = move |id: u32| labels_ref[id as usize] == 0;
        let q: Vec<f32> = vec![0.5; 4];
        let hits = search_layers_filtered(shared.provider(), shared.layers(), &q, 3, 96, &accept);
        // Exact filtered ground truth by linear scan.
        let mut exact: Vec<(f32, u32)> = (0..base.len())
            .filter(|&i| labels[i] == 0)
            .map(|i| (simdops::l2_sq(&q, base.get(i)), i as u32))
            .collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0));
        let top: Vec<u32> = exact.iter().take(3).map(|&(_, i)| i).collect();
        let got: Vec<u64> = hits.iter().map(|h| h.id).collect();
        let overlap = got.iter().filter(|&&id| top.contains(&(id as u32))).count();
        assert!(overlap >= 2, "filtered recall too low: {got:?} vs {top:?}");
    }
}
