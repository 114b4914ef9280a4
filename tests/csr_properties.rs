//! Property tests for the CSR adjacency layout and the pooled search
//! scratch: freezing arbitrary nested adjacency must be lossless (order,
//! empty rows, max-degree rows), persisted graphs must round-trip through
//! the on-disk format, and the steady-state search loop must not allocate
//! per-query scratch.

use graphs::providers::FullPrecision;
use graphs::{
    search_layers, search_layers_cached, CsrLayer, GraphLayers, Hnsw, HnswParams, NodePayloads,
    LINE_U32S,
};
use proptest::prelude::*;
use vecstore::VectorSet;

/// Arbitrary nested adjacency: raw rows of unconstrained targets, reduced
/// into range by [`normalize`]. Rows span up to 4 cache lines so padding
/// and multi-line rows are exercised; duplicates and self-loops are kept —
/// the layout must preserve whatever the builder hands it.
fn raw_adjacency() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(
        prop::collection::vec(any::<u32>(), 0..(4 * LINE_U32S)),
        1..24,
    )
}

/// Maps every raw target into `0..n` so the adjacency is well formed.
fn normalize(raw: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = raw.len() as u32;
    raw.iter()
        .map(|row| row.iter().map(|&t| t % n).collect())
        .collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hnsw_flash_csrprop_{}_{name}", std::process::id()));
    p
}

proptest! {
    /// CSR freeze is lossless: every row reads back exactly, in order.
    #[test]
    fn csr_round_trips_arbitrary_nested(raw in raw_adjacency()) {
        let adj = normalize(&raw);
        let csr = CsrLayer::from_nested(&adj);
        prop_assert_eq!(csr.len(), adj.len());
        prop_assert_eq!(csr.edges(), adj.iter().map(Vec::len).sum::<usize>());
        for (node, row) in adj.iter().enumerate() {
            prop_assert_eq!(csr.neighbors(node), row.as_slice(), "row {}", node);
            prop_assert_eq!(csr.degree(node), row.len());
        }
        prop_assert_eq!(csr.to_nested(), adj);
    }

    /// Every CSR row starts on a 64-byte boundary, whatever the degrees.
    #[test]
    fn csr_rows_stay_cache_line_aligned(raw in raw_adjacency()) {
        let csr = CsrLayer::from_nested(&normalize(&raw));
        for node in 0..csr.len() {
            let row = csr.neighbors(node);
            if !row.is_empty() {
                prop_assert_eq!(row.as_ptr() as usize % 64, 0, "row {}", node);
            }
        }
    }

    /// Arbitrary nested adjacency as a one-layer graph (a flat builder's
    /// shape) → CSR in memory → disk → identical graph.
    #[test]
    fn persist_round_trips_arbitrary_flat_graphs(
        raw in raw_adjacency(),
        entry_seed in 0usize..24,
    ) {
        let adj = normalize(&raw);
        let entry = (entry_seed % adj.len()) as u32;
        let graph = GraphLayers::from_nested(vec![adj.clone()], entry, 0);
        let path = tmp(&format!("flat_{entry_seed}_{}", adj.len()));
        graph.save(&path).unwrap();
        let reloaded = GraphLayers::load(&path).unwrap();
        prop_assert_eq!(&reloaded, &graph);
        prop_assert_eq!(reloaded.entry, entry);
        prop_assert_eq!(reloaded.layer(0).to_nested(), adj);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn csr_handles_max_degree_and_empty_rows() {
    // One empty row, one row spanning many cache lines, one single-entry
    // row: degrees that straddle every padding case.
    let big: Vec<u32> = (0..197u32).map(|i| i % 3).collect();
    let adj = vec![Vec::new(), big.clone(), vec![0]];
    let csr = CsrLayer::from_nested(&adj);
    assert_eq!(csr.neighbors(0), &[] as &[u32]);
    assert_eq!(csr.neighbors(1), big.as_slice());
    assert_eq!(csr.neighbors(2), &[0]);
}

#[test]
fn steady_state_search_does_not_allocate_scratch() {
    // After one warm-up query, the pooled scratch must be reused: the
    // created counter stays flat while checkouts keep climbing.
    let mut base = VectorSet::new(2);
    for i in 0..14 {
        for j in 0..14 {
            base.push(&[i as f32, j as f32]);
        }
    }
    let index = Hnsw::build(
        FullPrecision::new(base),
        HnswParams {
            c: 32,
            r: 8,
            seed: 7,
        },
    );
    let frozen = index.freeze();
    let provider = index.provider();

    let _ = search_layers(provider, &frozen, &[3.0, 3.0], 5, 32); // warm-up
    let before = graphs::scratch_stats();
    let queries = 200;
    for q in 0..queries {
        let hits = search_layers(provider, &frozen, &[(q % 14) as f32, 2.5], 5, 32);
        assert!(!hits.is_empty());
    }
    let after = graphs::scratch_stats();
    assert_eq!(
        after.created, before.created,
        "steady-state searches must not create new scratch"
    );
    assert_eq!(after.checkouts - before.checkouts, queries);
}

#[test]
fn cached_flash_search_is_bit_identical_to_plain() {
    // The hotpath-bench pairing: Flash's batched LUT scoring over prebuilt
    // per-node blocks must reproduce the gathering kernel's (dist, id)
    // results exactly — visited lanes scored redundantly change nothing.
    use flash::{BuildFlash, FlashHnsw, FlashParams};
    let (base, queries) =
        vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 600, 16, 11);
    let mut fp = FlashParams::auto(base.dim());
    fp.seed = 11;
    fp.train_sample = 300;
    let index = FlashHnsw::build_flash(
        base,
        fp,
        HnswParams {
            c: 48,
            r: 8,
            seed: 11,
        },
    );
    let frozen = index.freeze();
    let provider = index.provider();
    let payloads = NodePayloads::build(provider, &frozen);
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let plain = search_layers(provider, &frozen, q, 10, 64);
        let cached = search_layers_cached(provider, &frozen, &payloads, q, 10, 64);
        assert_eq!(plain.len(), cached.len(), "query {qi}");
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!((a.id, a.dist), (b.id, b.dist), "query {qi}");
        }
    }
}
