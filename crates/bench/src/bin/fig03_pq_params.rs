//! Figure 3: effect of PQ parameters on HNSW-PQ.
//!
//! (a) sweep codeword bits `L_PQ` at fixed `M_PQ`; (b) sweep subspaces
//! `M_PQ` at fixed `L_PQ`. The paper finds indexing time grows with
//! `L_PQ` (bigger codebooks), is U-shaped in `M_PQ`, and recall improves
//! with both.

use bench::{search_ids, secs, workload, Method, Scale};
use std::time::Instant;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let k = 1;
    let gt = ground_truth(&base, &queries, k);
    let train = (scale.n / 2).clamp(256, 5_000);

    let run = |m: usize, bits: u8| {
        let builder = Method::HnswPq
            .builder(scale)
            .pq_m(m)
            .pq_bits(bits)
            .train_sample(train);
        let t0 = Instant::now();
        let index = builder.build(base.clone());
        let took = t0.elapsed();
        let found: Vec<Vec<u32>> = (0..queries.len())
            .map(|qi| {
                let request = Method::HnswPq.request(queries.get(qi), k, 64);
                search_ids(index.as_ref(), &request)
            })
            .collect();
        let recall = metrics::recall_at_k(&found, &gt, k).recall();
        (took, recall)
    };

    println!("# Figure 3a: L_PQ sweep (LAION-like, M_PQ = 8)\n");
    println!("| L_PQ | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for bits in [4u8, 6, 8] {
        let (took, recall) = run(8, bits);
        println!("| {bits} | {} | {recall:.3} |", secs(took));
    }

    println!("\n# Figure 3b: M_PQ sweep (LAION-like, L_PQ = 8)\n");
    println!("| M_PQ | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for m in [4usize, 8, 16, 32, 64] {
        let (took, recall) = run(m, 8);
        println!("| {m} | {} | {recall:.3} |", secs(took));
    }
    println!("\npaper: time rises with L_PQ, is U-shaped in M_PQ; recall rises with both.");
}
