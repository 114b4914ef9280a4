//! Figure 16: Flash parameter sensitivity — d_F at fixed M_F (a), M_F at
//! fixed d_F (b); indexing time plus recall at a fixed search setting.

use bench::{search_ids, workload, Method, Scale};
use flash::FlashParams;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let k = 1;
    let gt = ground_truth(&base, &queries, k);
    let train = (scale.n / 2).clamp(256, 10_000);

    let run = |d_f: usize, m_f: usize| {
        let fp = FlashParams {
            d_f,
            m_f,
            train_sample: train,
            kmeans_iters: 12,
            seed: 0xF1A5,
            grid_quantile: 0.5,
        };
        let builder = Method::HnswFlash.builder(scale).flash_params(fp);
        let t0 = std::time::Instant::now();
        let index = builder.build(base.clone());
        let took = t0.elapsed().as_secs_f64();
        let found: Vec<Vec<u32>> = (0..queries.len())
            .map(|qi| {
                let request = Method::HnswFlash.request(queries.get(qi), k, 64);
                search_ids(index.as_ref(), &request)
            })
            .collect();
        (took, metrics::recall_at_k(&found, &gt, k).recall())
    };

    println!("# Figure 16a: d_F sweep (LAION-like, M_F = 16)\n");
    println!("| d_F | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for d_f in [16usize, 32, 48, 64, 96, 128] {
        let (took, recall) = run(d_f, 16);
        println!("| {d_f} | {took:.2} | {recall:.3} |");
    }

    println!("\n# Figure 16b: M_F sweep (LAION-like, d_F = 64)\n");
    println!("| M_F | indexing time (s) | recall@1 |");
    println!("|---:|---:|---:|");
    for m_f in [4usize, 8, 16, 32, 64] {
        let (took, recall) = run(64, m_f);
        println!("| {m_f} | {took:.2} | {recall:.3} |");
    }
    println!("\npaper: recall peaks at moderate d_F (info loss below, bit dilution above); time grows with M_F.");
}
