//! Extension 4: the "optimized variant" question of Section 3.2.4 — does
//! swapping PQ for OPQ (learned rotation) change the indexing-time /
//! index-quality trade inside HNSW construction?
//!
//! The paper's Remark (1) predicts the answer: variants must avoid
//! excessive preprocessing overhead, and OPQ's alternating optimization is
//! exactly such overhead. The run reports training + encoding + build time
//! and the resulting search quality, next to HNSW-PQ and HNSW-Flash.

use bench::{search_ids, workload, Scale};
use engine::{Coding, GraphKind, IndexBuilder, SearchRequest};
use metrics::measure_qps;
use std::time::Instant;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let (base, queries) = workload(DatasetProfile::SsnppLike, scale);
    let gt = ground_truth(&base, &queries, k);
    let params = scale.hnsw();
    let m = (base.dim() / 32).clamp(4, 64);
    let train = (scale.n / 2).clamp(256, 4_000);
    // Same pipeline for all three: rerank 8 on the original vectors.
    let builder = |coding: Coding| {
        IndexBuilder::new(GraphKind::Hnsw, coding)
            .c(params.c)
            .r(params.r)
            .seed(params.seed)
            .pq_m(m)
            .opq_iters(4)
            .train_sample(train)
    };

    println!(
        "# Ext 4: HNSW-OPQ vs HNSW-PQ vs HNSW-Flash (SSNPP-like, n = {})\n",
        scale.n
    );
    println!("| method | indexing time (s) | ef | recall@{k} | QPS |");
    println!("|---|---:|---:|---:|---:|");

    let report = |name: &str, secs: f64, search: &mut dyn FnMut(usize, usize) -> Vec<u32>| {
        for ef in [64usize, 128] {
            let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
            let qps = measure_qps(queries.len(), |qi| found.push(search(qi, ef)));
            let recall = metrics::recall_at_k(&found, &gt, k).recall();
            println!(
                "| {name} | {secs:.2} | {ef} | {recall:.4} | {:.0} |",
                qps.qps()
            );
        }
    };

    for (name, coding) in [
        ("HNSW-PQ", Coding::Pq),
        ("HNSW-OPQ", Coding::Opq),
        ("HNSW-Flash", Coding::Flash),
    ] {
        let builder = builder(coding);
        let t0 = Instant::now();
        let index = builder.build(base.clone());
        let secs = t0.elapsed().as_secs_f64();
        report(name, secs, &mut |qi, ef| {
            let request = SearchRequest::new(queries.get(qi), k).ef(ef).rerank(8);
            search_ids(index.as_ref(), &request)
        });
    }
    println!("\nexpected: OPQ's rotation buys some recall over PQ at the same code size but pays a visible training overhead; Flash dominates on indexing time (paper Remark 1).");
}
