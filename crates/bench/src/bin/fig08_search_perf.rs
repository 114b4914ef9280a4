//! Figure 8: QPS–recall curves of the five methods.
//!
//! Sweeps the search beam `ef` and prints one (recall, QPS) point per
//! setting. By default three representative datasets are run; set
//! `FLASH_ALL=1` for all eight.

use bench::{search_ids, workload, Method, Scale};
use metrics::measure_qps;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let profiles: Vec<DatasetProfile> = if std::env::var("FLASH_ALL").is_ok() {
        DatasetProfile::ALL.to_vec()
    } else {
        vec![
            DatasetProfile::SsnppLike,
            DatasetProfile::LaionLike,
            DatasetProfile::ArgillaLike,
        ]
    };

    println!("# Figure 8: QPS–recall (k = {k}, n = {})\n", scale.n);
    for profile in profiles {
        let (base, queries) = workload(profile, scale);
        let gt = ground_truth(&base, &queries, k);
        println!("## {}\n", profile.name());
        println!("| method | ef | recall@{k} | QPS |");
        println!("|---|---:|---:|---:|");
        for method in Method::ALL {
            let (index, _) = method.build(base.clone(), scale);
            for ef in [16usize, 32, 64, 128, 256] {
                let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
                let qps = measure_qps(queries.len(), |qi| {
                    found.push(search_ids(
                        index.as_ref(),
                        &method.request(queries.get(qi), k, ef),
                    ));
                });
                let recall = metrics::recall_at_k(&found, &gt, k).recall();
                println!(
                    "| {} | {ef} | {recall:.4} | {:.0} |",
                    method.name(),
                    qps.qps()
                );
            }
        }
        println!();
    }
    println!("paper: Flash matches or beats baseline HNSW search; PQ trails (index quality).");
}
