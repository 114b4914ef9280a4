//! Figure 4: parameter effects on HNSW-SQ (a) and HNSW-PCA (b).
//!
//! (a) `L_SQ` ∈ {2, 4, 8, 16}: the paper finds a time minimum at 8 bits
//! (sub-byte codes still occupy a `u8`; 16-bit codes double the traffic)
//! while recall rises monotonically.
//! (b) `d_PCA` sweep: indexing time rises with retained dimensionality,
//! recall rises as well, with the sweet spot below the full dimension.

use bench::{search_ids, secs, workload, Method, Scale};
use engine::SearchRequest;
use graphs::providers::{PcaProvider, Sq16Provider};
use graphs::{search_layers_rerank, DistanceProvider, FrozenGraph, Hnsw};
use std::time::Instant;
use vecstore::{ground_truth, DatasetProfile};

/// Reranked answers of the serving kernel over a concrete build:
/// `Sq16Provider` and a fixed `d_PCA` are not engine codings.
fn reranked<P: DistanceProvider>(
    index: &FrozenGraph<P>,
    queries: &vecstore::VectorSet,
    k: usize,
    rerank: usize,
) -> Vec<Vec<u32>> {
    (0..queries.len())
        .map(|qi| {
            let q = queries.get(qi);
            search_layers_rerank(index.provider(), index.layers(), q, k, 64, rerank)
                .iter()
                .map(|r| r.id as u32)
                .collect()
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let k = 1;
    let gt = ground_truth(&base, &queries, k);
    let train = (scale.n / 2).clamp(256, 5_000);

    let recall_of = |found: &[Vec<u32>]| metrics::recall_at_k(found, &gt, k).recall();

    println!("# Figure 4a: L_SQ sweep (LAION-like, HNSW-SQ)\n");
    println!("| L_SQ | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for bits in [2u8, 4, 8] {
        let builder = Method::HnswSq.builder(scale).sq_bits(bits);
        let t0 = Instant::now();
        let index = builder.build(base.clone());
        let took = t0.elapsed();
        let found: Vec<Vec<u32>> = (0..queries.len())
            .map(|qi| {
                let request = SearchRequest::new(queries.get(qi), k).ef(64).rerank(8);
                search_ids(index.as_ref(), &request)
            })
            .collect();
        println!("| {bits} | {} | {:.3} |", secs(took), recall_of(&found));
    }
    {
        let t0 = Instant::now();
        let index = Hnsw::build(Sq16Provider::new(base.clone()), scale.hnsw()).into_frozen();
        let took = t0.elapsed();
        let found = reranked(&index, &queries, k, 8);
        println!("| 16 | {} | {:.3} |", secs(took), recall_of(&found));
    }

    println!("\n# Figure 4b: d_PCA sweep (LAION-like, HNSW-PCA)\n");
    println!("| d_PCA | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for d in [64usize, 128, 256, 512, 768] {
        let t0 = Instant::now();
        let index =
            Hnsw::build(PcaProvider::new(base.clone(), d, train), scale.hnsw()).into_frozen();
        let took = t0.elapsed();
        let found = reranked(&index, &queries, k, 4);
        println!("| {d} | {} | {:.3} |", secs(took), recall_of(&found));
    }
    println!("\npaper: SQ time minimal at 8 bits; PCA time grows with d_PCA, recall too.");
}
