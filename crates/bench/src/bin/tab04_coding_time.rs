//! Table 4: coding time (CT) vs total indexing time (TIT) for HNSW-Flash —
//! the paper shows preprocessing (PCA fit, codebooks, encoding) is ~10 % of
//! the total. CT is split into codec training and dataset encoding, and the
//! graph insert that makes up the rest of TIT is shown beside them.

use bench::{workload, Scale};
use flash::{FlashCodec, FlashParams, FlashProvider};
use graphs::Hnsw;
use std::time::Instant;
use vecstore::DatasetProfile;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Table 4: coding time vs total indexing time (n = {})\n",
        scale.n
    );
    println!("| dataset | train (s) | encode (s) | insert (s) | CT (s) | TIT (s) | CT/TIT |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for profile in DatasetProfile::ALL {
        let (base, _) = workload(profile, scale);
        let mut fp = FlashParams::auto(base.dim());
        fp.train_sample = (scale.n / 2).clamp(256, 10_000);
        let t0 = Instant::now();
        let codec = FlashCodec::train(&base, fp);
        let train = t0.elapsed().as_secs_f64();
        let provider = FlashProvider::from_codec(base, codec);
        let encode = provider.coding_ns() as f64 / 1e9;
        let t1 = Instant::now();
        let index = Hnsw::build(provider, scale.hnsw());
        let insert = t1.elapsed().as_secs_f64();
        let total = t0.elapsed().as_secs_f64();
        let _ = index.len();
        let coding = train + encode;
        println!(
            "| {} | {train:.3} | {encode:.3} | {insert:.2} | {coding:.3} | {total:.2} | {:.1}% |",
            profile.name(),
            100.0 * coding / total
        );
    }
    println!("\npaper: coding is ~3–16 % of total indexing time across the datasets.");
}
