//! Property-based tests for the extension systems: pruning-rule algebra,
//! memtable/oracle agreement, Vamana structural invariants, filtered-search
//! predicate safety, and OPQ rotation orthogonality.

use graphs::providers::FullPrecision;
use graphs::stats::GraphStats;
use graphs::{search_layers_filtered, vamana, Hnsw, HnswParams, VamanaParams};
use graphs::{AlphaRule, MrngRule, PruneRule};
use maintenance::MemTable;
use proptest::prelude::*;
use quantizers::OptimizedProductQuantizer;
use vecstore::VectorSet;

proptest! {
    /// Raising α only makes domination *harder*: any candidate pruned with
    /// a larger α is also pruned with a smaller one.
    #[test]
    fn alpha_rule_monotone_in_alpha(
        d_xv in 0.0f32..100.0,
        d_uv in 0.0f32..100.0,
        lo in 1.0f32..2.0,
        bump in 0.0f32..2.0,
    ) {
        let hi = lo + bump;
        let rule_lo = AlphaRule::new(lo);
        let rule_hi = AlphaRule::new(hi);
        if rule_hi.dominated(d_xv, d_uv) {
            prop_assert!(rule_lo.dominated(d_xv, d_uv),
                "α={hi} pruned but α={lo} kept (d_xv={d_xv}, d_uv={d_uv})");
        }
    }

    /// α = 1 relates to MRNG: the α-rule differs only on the tie boundary
    /// (`<=` vs `<`), so off ties the two agree exactly.
    #[test]
    fn alpha_one_agrees_with_mrng_off_ties(
        d_xv in 0.0f32..100.0,
        d_uv in 0.0f32..100.0,
    ) {
        prop_assume!(d_uv != d_xv);
        let alpha = AlphaRule::new(1.0);
        let mrng = MrngRule;
        prop_assert_eq!(alpha.dominated(d_xv, d_uv), mrng.dominated(d_xv, d_uv));
    }
}

/// Operations driving the memtable model test.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, [f32; 3]),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40, prop::array::uniform3(-5.0f32..5.0)).prop_map(|(id, v)| Op::Insert(id, v)),
        (0u64..40).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memtable agrees with a naive model under arbitrary operation
    /// sequences: live counts, membership, and top-1 search.
    #[test]
    fn memtable_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut table = MemTable::new(3);
        // Model: (id, vector, alive). The memtable allows duplicate external
        // ids (the LSM layer above guarantees uniqueness), and `delete`
        // tombstones the first live occurrence — mirror that exactly.
        let mut model: Vec<(u64, [f32; 3], bool)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Insert(id, v) => {
                    table.insert(id, &v);
                    model.push((id, v, true));
                }
                Op::Delete(id) => {
                    let did = table.delete(id);
                    let slot = model.iter_mut().find(|(eid, _, alive)| *eid == id && *alive);
                    match slot {
                        Some(entry) => {
                            prop_assert!(did, "model live but table refused delete of {id}");
                            entry.2 = false;
                        }
                        None => prop_assert!(!did, "table deleted {id} the model never had"),
                    }
                }
            }
        }
        let live_model: Vec<&(u64, [f32; 3], bool)> =
            model.iter().filter(|(_, _, alive)| *alive).collect();
        prop_assert_eq!(table.live(), live_model.len());

        // Top-1 search agrees with the model oracle (modulo exact ties).
        if !live_model.is_empty() {
            let q = [0.25f32, -0.5, 1.0];
            let best_model = live_model
                .iter()
                .map(|(id, v, _)| (simdops::l2_sq(&q, v), *id))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .unwrap();
            let got = table.search(&q, 1)[0];
            prop_assert!((got.dist - best_model.0).abs() < 1e-6,
                "top-1 distance {} vs model {}", got.dist, best_model.0);
        } else {
            prop_assert!(table.search(&[0.0; 3], 1).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Vamana over arbitrary small point clouds: reachable from the entry,
    /// no self-edges, bounded degrees away from the repaired entry.
    #[test]
    fn vamana_structural_invariants(
        points in prop::collection::vec(prop::array::uniform2(-10.0f32..10.0), 20..120),
        alpha in 1.0f32..1.6,
    ) {
        let mut base = VectorSet::new(2);
        for p in &points {
            base.push(p);
        }
        let n = base.len();
        let index = vamana::build(
            FullPrecision::new(base),
            VamanaParams { r: 6, c: 24, alpha },
        );
        let g = index.layers();
        prop_assert_eq!(GraphStats::from_layers(g).reachable, n, "not fully reachable");
        for i in 0..g.len() {
            let nbrs = g.neighbors(0, i as u32);
            prop_assert!(!nbrs.contains(&(i as u32)), "self edge at {i}");
            if i != g.entry as usize {
                prop_assert!(nbrs.len() <= 6, "degree {} at non-entry {i}", nbrs.len());
            }
        }
    }

    /// Filtered search never leaks a vertex the predicate rejects, for
    /// arbitrary random label assignments.
    #[test]
    fn filtered_search_never_violates_predicate(
        labels_mod in 2u32..6,
        seed in 0u64..1000,
    ) {
        let (base, queries) = vecstore::generate(
            &vecstore::DatasetSpec::new(8, 4, 0.95, 0.4, seed),
            300,
            3,
            seed,
        );
        let labels: Vec<u32> = (0..base.len() as u32).map(|i| i % labels_mod).collect();
        let index = Hnsw::build(
            FullPrecision::new(base),
            HnswParams { c: 32, r: 8, seed },
        )
        .into_frozen();
        let labels_ref = &labels;
        let accept = move |id: u32| labels_ref[id as usize] == 0;
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            for hit in search_layers_filtered(index.provider(), index.layers(), q, 4, 48, &accept) {
                prop_assert_eq!(labels[hit.id as usize], 0u32);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// OPQ's learned rotation stays orthogonal (QᵀQ = I) and therefore
    /// distance-preserving for arbitrary training data.
    #[test]
    fn opq_rotation_always_orthogonal(
        seed in 0u64..1000,
        scale in 0.1f32..5.0,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let dim = 4;
        let mut data = VectorSet::new(dim);
        for _ in 0..80 {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-scale..scale)).collect();
            data.push(&v);
        }
        let opq = OptimizedProductQuantizer::train(&data, 2, 4, 2, 4, seed);
        let q = opq.rotation();
        let qtq = q.transpose().matmul(q);
        let eye = linalg::Matrix::identity(dim);
        prop_assert!(qtq.max_abs_diff(&eye) < 1e-3,
            "QᵀQ deviates by {}", qtq.max_abs_diff(&eye));
    }
}
