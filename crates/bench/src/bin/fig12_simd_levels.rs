//! Figure 12: Flash indexing time under different SIMD instruction sets
//! (SSE 128-bit, AVX 256-bit, AVX-512), plus the scalar floor.
//!
//! The dispatch tier is capped process-wide via `simdops::set_level_override`;
//! tiers not supported by the host CPU are skipped.

use bench::{workload, Method, Scale};
use simdops::{set_level_override, supported_levels};
use vecstore::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Figure 12: Flash indexing time per SIMD tier (n = {})\n",
        scale.n
    );
    for profile in [DatasetProfile::LaionLike, DatasetProfile::SsnppLike] {
        println!("## {}\n", profile.name());
        println!("| tier | register bits | indexing time (s) |");
        println!("|---|---:|---:|");
        for level in supported_levels() {
            set_level_override(Some(level));
            let (base, _) = workload(profile, scale);
            let (_, took) = Method::HnswFlash.build(base, scale);
            println!(
                "| {} | {} | {:.2} |",
                level.name(),
                level.register_bits(),
                took.as_secs_f64()
            );
        }
        set_level_override(None);
        println!();
    }
    println!(
        "paper: wider registers are faster, sub-linearly (memory effects + instruction latencies)."
    );
}
