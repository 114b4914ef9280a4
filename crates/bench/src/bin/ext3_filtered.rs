//! Extension 3: attribute-constrained (hybrid) ANNS — the construction-cost
//! amplification the paper's introduction cites ("a specialized HNSW index
//! for attribute-constrained ANNS takes 33× longer"), and Flash's effect
//! on it.
//!
//! Two deployment shapes over the same labeled corpus:
//!
//! * **Shared graph + filtered search**: one build, predicate applied at
//!   query time; recall/QPS degrade as selectivity drops.
//! * **Specialized per-label sub-indexes**: construction cost multiplies
//!   with label count — with and without Flash, showing the amplified cost
//!   is exactly where construction speedup matters most.

use bench::{search_ids, workload, Method, Scale};
use flash::{FlashParams, FlashProvider};
use graphs::providers::FullPrecision;
use graphs::{LabeledHnsw, LabeledParams};
use metrics::measure_qps;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use vecstore::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let params = scale.hnsw();

    // Assign labels: power-of-two label counts to sweep selectivity.
    let mut rng = SmallRng::seed_from_u64(0xF117);
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = (scale.n / 2).clamp(256, 10_000);

    println!(
        "# Ext 3: attribute-constrained ANNS (n = {}, {} labels swept)\n",
        scale.n, 3
    );

    // --- Shape 1: shared graph, filtered search -------------------------
    println!("## Shared graph + query-time filter (one standard build)\n");
    let (shared, took) = Method::Hnsw.build(base.clone(), scale);
    let shared_build = took.as_secs_f64();
    println!("single build: {shared_build:.2} s\n");
    println!("| labels | selectivity | filtered recall@{k} | QPS |");
    println!("|---:|---:|---:|---:|");
    for labels in [4usize, 16, 64] {
        let assignment: Arc<Vec<u32>> = Arc::new(
            (0..base.len())
                .map(|_| rng.gen_range(0..labels as u32))
                .collect(),
        );
        // Filtered ground truth per query for label 0.
        let accept_label = 0u32;
        let gt: Vec<Vec<u32>> = (0..queries.len())
            .map(|qi| {
                let q = queries.get(qi);
                let mut all: Vec<(f32, u32)> = (0..base.len())
                    .filter(|&i| assignment[i] == accept_label)
                    .map(|i| (simdops::l2_sq(q, base.get(i)), i as u32))
                    .collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0));
                all.into_iter().take(k).map(|(_, i)| i).collect()
            })
            .collect();
        let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
        let qps = measure_qps(queries.len(), |qi| {
            let labels = Arc::clone(&assignment);
            let request = Method::Hnsw
                .request(queries.get(qi), k, 128)
                .filter(move |id| labels[id as usize] == accept_label);
            found.push(search_ids(shared.as_ref(), &request))
        });
        let mut hit = 0usize;
        let mut total = 0usize;
        for (f, t) in found.iter().zip(gt.iter()) {
            total += t.len();
            hit += t.iter().filter(|id| f.contains(id)).count();
        }
        let recall = if total == 0 {
            1.0
        } else {
            hit as f64 / total as f64
        };
        println!(
            "| {labels} | {:.3} | {recall:.4} | {:.0} |",
            1.0 / labels as f64,
            qps.qps()
        );
    }

    // --- Shape 2: specialized per-label indexes -------------------------
    // Flash's codec is trained ONCE on the whole corpus and shared across
    // partitions (training is a fixed cost; retraining per tiny partition
    // would dominate and is never the right deployment).
    println!("\n## Specialized per-label builds (cost amplification)\n");
    println!("| labels | HNSW build (s) | amplification | Flash build (s) | Flash speedup |");
    println!("|---:|---:|---:|---:|---:|");
    let codec = flash::FlashCodec::train(&base, fp);
    for labels in [4usize, 16] {
        let assignment: Vec<u32> = (0..base.len())
            .map(|_| rng.gen_range(0..labels as u32))
            .collect();
        let lp = LabeledParams {
            hnsw: params,
            min_graph_size: 32,
        };

        let t0 = Instant::now();
        let _full = LabeledHnsw::build(&base, &assignment, lp, FullPrecision::new);
        let full_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _flash = LabeledHnsw::build(&base, &assignment, lp, |subset| {
            FlashProvider::from_codec(subset, codec.clone())
        });
        let flash_s = t0.elapsed().as_secs_f64();

        println!(
            "| {labels} | {full_s:.2} | {:.1}x | {flash_s:.2} | {:.1}x |",
            full_s / shared_build.max(1e-9),
            full_s / flash_s.max(1e-9)
        );
    }
    println!("\nexpected: filtered recall/QPS fall with selectivity on the shared graph; specialized build cost grows with label count and Flash compresses it.");
}
