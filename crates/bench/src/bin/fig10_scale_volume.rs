//! Figure 10: scalability over data volume — indexing time of HNSW vs
//! HNSW-Flash as the single-segment dataset grows (speedup annotated).

use bench::{workload, Method, Scale};
use vecstore::DatasetProfile;

fn main() {
    let base_scale = Scale::from_env();
    println!("# Figure 10: scaling over data volume\n");
    for profile in [DatasetProfile::LaionLike, DatasetProfile::SsnppLike] {
        println!("## {}\n", profile.name());
        println!("| n | HNSW (s) | HNSW-Flash (s) | speedup |");
        println!("|---:|---:|---:|---:|");
        for mult in 1..=5usize {
            let scale = Scale {
                n: base_scale.n * mult,
                ..base_scale
            };
            let (base, _) = workload(profile, scale);
            let (_, t_full) = Method::Hnsw.build(base.clone(), scale);
            let (_, t_flash) = Method::HnswFlash.build(base, scale);
            println!(
                "| {} | {:.2} | {:.2} | {:.1}x |",
                scale.n,
                t_full.as_secs_f64(),
                t_flash.as_secs_f64(),
                t_full.as_secs_f64() / t_flash.as_secs_f64(),
            );
        }
        println!();
    }
    println!("paper: speedup stays in the 15–20x band across volumes.");
}
