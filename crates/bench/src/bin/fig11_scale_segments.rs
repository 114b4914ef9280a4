//! Figure 11: scalability over segment count — cumulative indexing time
//! when the collection is sharded into segments of constant size (the
//! LSM-style deployment of Section 2.1.4).

use bench::{Method, Scale};
use vecstore::{generate, split_into_segments, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Figure 11: scaling over segment count (segment size = {})\n",
        scale.n
    );
    for profile in [DatasetProfile::LaionLike, DatasetProfile::SsnppLike] {
        println!("## {}\n", profile.name());
        println!("| segments | HNSW total (s) | Flash total (s) | speedup |");
        println!("|---:|---:|---:|---:|");
        for n_segments in [2usize, 4, 6, 8] {
            let (all, _) = generate(&profile.spec(), scale.n * n_segments, 1, 0xDA7A);
            let segments = split_into_segments(&all, n_segments);
            let mut t_full = 0.0;
            let mut t_flash = 0.0;
            for seg in &segments {
                let (_, t) = Method::Hnsw.build(seg.clone(), scale);
                t_full += t.as_secs_f64();
                let (_, t) = Method::HnswFlash.build(seg.clone(), scale);
                t_flash += t.as_secs_f64();
            }
            println!(
                "| {n_segments} | {t_full:.2} | {t_flash:.2} | {:.1}x |",
                t_full / t_flash
            );
        }
        println!();
    }
    println!("paper: per-segment speedup accumulates linearly with segment count.");
}
