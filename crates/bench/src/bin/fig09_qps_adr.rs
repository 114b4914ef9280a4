//! Figure 9: QPS–ADR curves (average distance ratio instead of recall) on
//! the two datasets the paper shows (LAION-like, SSNPP-like).

use bench::{workload, Method, Scale};
use metrics::{average_distance_ratio, measure_qps};
use simdops::l2_sq;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    println!("# Figure 9: QPS–ADR (k = {k}, n = {})\n", scale.n);
    for profile in [DatasetProfile::LaionLike, DatasetProfile::SsnppLike] {
        let (base, queries) = workload(profile, scale);
        let gt = ground_truth(&base, &queries, k);
        println!("## {}\n", profile.name());
        println!("| method | ef | ADR | QPS |");
        println!("|---|---:|---:|---:|");
        for method in Method::ALL {
            let (index, _) = method.build(base.clone(), scale);
            for ef in [16usize, 64, 256] {
                let mut dists: Vec<Vec<f32>> = Vec::with_capacity(queries.len());
                let qps = measure_qps(queries.len(), |qi| {
                    // Exact distances of the returned ids (ADR is defined on
                    // true geometry, not the provider's approximation).
                    let q = queries.get(qi);
                    dists.push(
                        index
                            .search(&method.request(q, k, ef))
                            .hits
                            .iter()
                            .map(|r| l2_sq(q, base.get(r.id as usize)))
                            .collect(),
                    );
                });
                for row in &mut dists {
                    row.sort_by(f32::total_cmp);
                }
                let adr = average_distance_ratio(&dists, &gt, k);
                println!("| {} | {ef} | {adr:.4} | {:.0} |", method.name(), qps.qps());
            }
        }
        println!();
    }
    println!(
        "paper: Flash attains the lowest ADR at a given QPS (results closest to ground truth)."
    );
}
