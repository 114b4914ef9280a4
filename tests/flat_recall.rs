//! Graph-quality floors of the CA+NS flat kinds: NSG, τ-MG and Vamana,
//! each built through `IndexBuilder` with Flash and with full-precision
//! coding over the SSNPP-like 256-d corpus of `build_identity.rs`'s flat
//! cases (`FLAT_N` vectors, `C = 64`, `R = 16`), then searched *exactly* —
//! the exported layers under a `FullPrecision` provider, so the coding of
//! the search does not hide the graph — and held to a recall@10 floor.
//!
//! Each cell's floor is the recall its builder measured when this file was
//! added (the helper-HNSW pipeline), less `MARGIN`. A builder change may
//! move the graph — the identity hashes say so — but not below that.

use hnsw_flash::graphs::search_layers;
use hnsw_flash::prelude::*;

const FLAT_N: usize = 500;
const QUERIES: usize = 50;
const DATA_SEED: u64 = 2025;
const C: usize = 64;
const R: usize = 16;
const K: usize = 10;
/// fig14's narrowest beam, where the graph shows most.
const EF: usize = 16;
/// How far below its recorded recall a cell may fall.
const MARGIN: f64 = 0.02;

/// `(kind, coding, recorded recall@K)` per cell.
const CELLS: [(GraphKind, Coding, f64); 6] = [
    (GraphKind::Nsg, Coding::Flash, 0.924),
    (GraphKind::Nsg, Coding::Full, 0.958),
    (GraphKind::TauMg, Coding::Flash, 0.830),
    (GraphKind::TauMg, Coding::Full, 0.978),
    (GraphKind::Vamana, Coding::Flash, 0.886),
    (GraphKind::Vamana, Coding::Full, 0.992),
];

#[test]
fn flat_kinds_hold_their_recall_floors() {
    set_level_override(Some(SimdLevel::Scalar));
    let spec = DatasetProfile::SsnppLike.spec();
    let (base, queries) = generate(&spec, FLAT_N, QUERIES, DATA_SEED);
    let truth = ground_truth(&base, &queries, K);
    let exact = FullPrecision::new(base.clone());
    let mut misses = Vec::new();
    for (kind, coding, recorded) in CELLS {
        let builder = IndexBuilder::new(kind, coding).c(C).r(R).tau(2.0);
        let layers = builder.build(base.clone()).export_graph().expect("a graph");
        let mut found = 0;
        for (q, truth) in queries.iter().zip(&truth) {
            let hits = search_layers(&exact, &layers, q, K, EF);
            found += truth
                .iter()
                .filter(|t| hits.iter().any(|h| h.id == u64::from(t.id)))
                .count();
        }
        let recall = found as f64 / (QUERIES * K) as f64;
        println!("{kind:?} {coding:?}: recall@{K} {recall:.3} at ef {EF}");
        if recall < recorded - MARGIN {
            let miss = format!("{kind:?} {coding:?} {recall:.3} < {recorded} - {MARGIN}");
            misses.push(miss);
        }
    }
    assert!(misses.is_empty(), "below the floor: {misses:?}");
}
