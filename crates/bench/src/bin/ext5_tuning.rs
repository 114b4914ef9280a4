//! Extension 5: the Section-3.1 tuning loop, end to end — run the
//! Theorem-1 triple estimator over a `(d_F, M_F)` grid, pick the cheapest
//! configuration that preserves comparisons, and verify the choice by
//! building real indexes at the chosen vs. default parameters.

use bench::{search_ids, workload, Method, Scale};
use flash::{tune_flash_params, FlashParams, TuneOptions};
use std::time::Instant;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let gt = ground_truth(&base, &queries, k);
    let mut base_params = FlashParams::auto(base.dim());
    base_params.train_sample = (scale.n / 2).clamp(256, 10_000);

    println!(
        "# Ext 5: Theorem-1 parameter tuning (LAION-like, n = {})\n",
        scale.n
    );

    let opts = TuneOptions {
        d_f_grid: vec![16, 32, 48, 64, 96, 128],
        m_f_grid: vec![4, 8, 16, 32],
        target_agreement: 0.9,
        triples: 300,
        sample: (scale.n / 2).clamp(256, 4_000),
        seed: 0x7E57,
    };
    let t0 = Instant::now();
    let outcome = tune_flash_params(&base, base_params, &opts);
    let tune_secs = t0.elapsed().as_secs_f64();

    println!("## Candidate grid (agreement = fraction of comparisons preserved)\n");
    println!("| M_F | d_F | guaranteed | agreement |");
    println!("|---:|---:|---:|---:|");
    for c in &outcome.candidates {
        println!(
            "| {} | {} | {:.3} | {:.3} |",
            c.m_f,
            c.d_f,
            c.report.guaranteed_fraction(),
            c.report.agreement_fraction()
        );
    }
    println!(
        "\nchosen: d_F = {}, M_F = {} (target {} {}, tuned in {tune_secs:.1} s)\n",
        outcome.params.d_f,
        outcome.params.m_f,
        opts.target_agreement,
        if outcome.met_target {
            "met"
        } else {
            "NOT met — best effort"
        },
    );

    // Validate: build at the tuned vs the default parameters.
    println!("## Validation builds\n");
    println!("| config | d_F | M_F | build (s) | recall@{k} (ef=128) |");
    println!("|---|---:|---:|---:|---:|");
    for (name, params) in [("default", base_params), ("tuned", outcome.params)] {
        let builder = Method::HnswFlash.builder(scale).flash_params(params);
        let t0 = Instant::now();
        let index = builder.build(base.clone());
        let secs = t0.elapsed().as_secs_f64();
        let found: Vec<Vec<u32>> = (0..queries.len())
            .map(|qi| {
                let request = Method::HnswFlash.request(queries.get(qi), k, 128);
                search_ids(index.as_ref(), &request)
            })
            .collect();
        let recall = metrics::recall_at_k(&found, &gt, k).recall();
        println!(
            "| {name} | {} | {} | {secs:.2} | {recall:.4} |",
            params.d_f, params.m_f
        );
    }
    println!("\nexpected: the estimator picks a small config whose end-to-end recall matches the default at equal or lower build cost — the paper's 'appropriate compression error' made operational.");
}
