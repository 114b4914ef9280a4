//! Streaming insertion: HNSW's native add support, preserved by Flash —
//! search while ingesting, then freeze to serve.
//!
//! ```text
//! cargo run --release --example streaming_add
//! ```
//!
//! Section 2.1.3 of the paper stresses that prior construction-speedup
//! attempts weakened or discarded HNSW's native incremental insertion.
//! Flash does not: vertices can keep arriving after the initial build,
//! because inserting through the codec only appends codes and updates
//! neighbor blocks. While the index is ingesting, `Hnsw::search` answers
//! from the live graph (the same beam `insert` uses to find neighbors);
//! once the stream ends, `GraphIndex::new` freezes it into the form the
//! engine serves.

use engine::GraphIndex;
use hnsw_flash::graphs::rerank_exact;
use hnsw_flash::prelude::*;

fn main() {
    let n_total = 8_000;
    let n_initial = n_total / 2;
    let n_queries = 100;
    let (k, ef, rerank) = (5, 96, 8);

    println!("generating a {n_total}-vector stream (IMAGENET-like, 768-d)...");
    let (base, queries) = generate(&DatasetProfile::ImagenetLike.spec(), n_total, n_queries, 31);

    // Train the codec on the full collection the stream will reach (in
    // production this is the previous snapshot; codebooks are stable under
    // distribution drift far larger than one ingest cycle).
    let provider = FlashProvider::new(base.clone(), FlashParams::auto(768));
    let hnsw = Hnsw::new(
        provider,
        HnswParams {
            c: 96,
            r: 16,
            seed: 13,
        },
    );

    println!("phase 1: inserting the initial {n_initial} vectors...");
    for id in 0..n_initial as u32 {
        hnsw.insert(id);
    }

    // Mid-ingest queries: the live beam, then the paper's exact rerank.
    let live_ids = |qi: usize| -> Vec<u32> {
        let q = queries.get(qi);
        let pool = hnsw.search(q, k * rerank, ef);
        rerank_exact(&base, q, pool, k)
            .iter()
            .map(|h| h.id as u32)
            .collect()
    };
    let gt_initial = ground_truth(&base.slice(0, n_initial), &queries, k);
    let found: Vec<Vec<u32>> = (0..n_queries).map(live_ids).collect();
    println!(
        "  recall@{k} against the first {n_initial} (live index): {:.4}",
        recall_at_k(&found, &gt_initial, k).recall()
    );

    println!(
        "phase 2: streaming in the remaining {} vectors...",
        n_total - n_initial
    );
    for id in n_initial as u32..n_total as u32 {
        hnsw.insert(id);
    }
    let gt_full = ground_truth(&base, &queries, k);
    let found_live: Vec<Vec<u32>> = (0..n_queries).map(live_ids).collect();
    println!(
        "  recall@{k} against all {n_total} (live index): {:.4}",
        recall_at_k(&found_live, &gt_full, k).recall()
    );

    println!("phase 3: freezing for serving...");
    let serving: Box<dyn AnnIndex> = Box::new(GraphIndex::new(hnsw));
    let found: Vec<Vec<u32>> = (0..n_queries)
        .map(|qi| {
            let request = SearchRequest::new(queries.get(qi), k).ef(ef).rerank(rerank);
            let hits = serving.search(&request).hits;
            hits.iter().map(|h| h.id as u32).collect()
        })
        .collect();
    assert_eq!(
        found, found_live,
        "the frozen index answers exactly like the live one"
    );
    println!(
        "  recall@{k} against all {n_total} (frozen index): {:.4}",
        recall_at_k(&found, &gt_full, k).recall()
    );
    println!("no rebuild was needed — native add is preserved under Flash.");
}
