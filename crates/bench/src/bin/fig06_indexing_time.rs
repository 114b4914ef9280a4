//! Figure 6: indexing time of the five methods on all eight datasets, with
//! speedup ratios over baseline HNSW (the red annotations in the paper).

use bench::{workload, Method, Scale};
use vecstore::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 6: indexing times (n = {} per dataset)\n", scale.n);
    println!("| dataset | Flash (s) | PCA (s) | SQ (s) | PQ (s) | HNSW (s) | Flash speedup |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for profile in DatasetProfile::ALL {
        let (base, _) = workload(profile, scale);
        let mut times = Vec::new();
        for method in Method::ALL {
            let (_, took) = method.build(base.clone(), scale);
            times.push(took.as_secs_f64());
        }
        let speedup = times[4] / times[0];
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {speedup:.1}x |",
            profile.name(),
            times[0],
            times[1],
            times[2],
            times[3],
            times[4],
        );
    }
    println!("\npaper: Flash speedups of 10.4x–22.9x across the eight datasets.");
}
