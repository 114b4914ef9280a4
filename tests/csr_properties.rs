//! Property tests for the CSR adjacency layout and the pooled search
//! scratch: freezing arbitrary nested adjacency must be lossless (order,
//! empty rows, max-degree rows), persisted graphs must round-trip through
//! the on-disk format, and the steady-state search loop must not allocate
//! per-query scratch.

use engine::{Coding, GraphKind, IndexBuilder, ProviderJob};
use graphs::providers::FullPrecision;
use graphs::{
    search_layers, search_layers_cached, CsrLayer, DistanceProvider, GraphLayers, Hnsw, HnswParams,
    NodePayloads, LINE_U32S,
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
        graph.save(&path, "nsg:full").unwrap();
        let (reloaded, _) = GraphLayers::load(&path).unwrap();
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

/// Builds HNSW through the provider it is handed and checks that
/// [`search_layers_cached`] answers every query exactly as
/// [`search_layers`] does.
struct CachedMatchesPlain<'a> {
    coding: Coding,
    queries: &'a VectorSet,
}

impl ProviderJob for CachedMatchesPlain<'_> {
    type Output = ();

    fn run<P: DistanceProvider + 'static>(self, provider: P) {
        let index = Hnsw::build(
            provider,
            HnswParams {
                c: 48,
                r: 8,
                seed: 11,
            },
        );
        let frozen = index.freeze();
        let provider = index.provider();
        let payloads = NodePayloads::build(provider, &frozen);
        for qi in 0..self.queries.len() {
            let q = self.queries.get(qi);
            let plain = search_layers(provider, &frozen, q, 10, 64);
            let cached = search_layers_cached(provider, &frozen, &payloads, q, 10, 64);
            let key = |hits: &[graphs::Hit]| -> Vec<(u64, u32)> {
                hits.iter().map(|h| (h.id, h.dist.to_bits())).collect()
            };
            assert_eq!(key(&plain), key(&cached), "{} query {qi}", self.coding);
        }
    }
}

#[test]
fn cached_flash_search_is_bit_identical_to_plain() {
    // The hotpath-bench pairing, for every coding: scoring whole rows
    // against prebuilt per-node blocks — Flash's batched LUT kernel, or the
    // default per-id `dist_to_neighbors` every other provider uses — must
    // reproduce the gathering kernel's (dist, id) results exactly; visited
    // lanes scored redundantly change nothing.
    // 64-d keeps OPQ's rotation fits quick in an unoptimized build.
    let spec = vecstore::DatasetSpec {
        dim: 64,
        ..vecstore::DatasetProfile::SsnppLike.spec()
    };
    let (base, queries) = vecstore::generate(&spec, 600, 16, 11);
    for coding in Coding::ALL {
        let builder = IndexBuilder::new(GraphKind::Hnsw, coding).seed(11);
        let codec = builder.train_codec(&base);
        let job = CachedMatchesPlain {
            coding,
            queries: &queries,
        };
        builder.with_provider(base.clone(), &codec, job);
    }
}
