//! Figure 7: index sizes of the five methods with compression ratios over
//! baseline HNSW (red annotations in the paper).
//!
//! The figure's size is the *construction-time* one, `Hnsw::index_bytes`,
//! which counts the neighbor-codeword blocks Flash keeps next to the
//! neighbor ids; the served index drops them at freeze, so this binary
//! builds the concrete `Hnsw` instead of going through `IndexBuilder`.

use bench::{workload, Method, Scale};
use flash::{FlashParams, FlashProvider};
use graphs::providers::{FullPrecision, PcaProvider, PqProvider, SqProvider};
use graphs::{DistanceProvider, Hnsw};
use vecstore::{DatasetProfile, VectorSet};

fn built_mb<P: DistanceProvider>(provider: P, scale: Scale) -> f64 {
    Hnsw::build(provider, scale.hnsw()).index_bytes() as f64 / 1e6
}

fn size_mb(method: Method, base: VectorSet, scale: Scale) -> f64 {
    let (dim, seed) = (base.dim(), scale.hnsw().seed);
    let train = (base.len() / 2).clamp(256, 10_000);
    match method {
        Method::Hnsw => built_mb(FullPrecision::new(base), scale),
        Method::HnswPq => {
            let m = (dim / 48).clamp(4, 64);
            built_mb(PqProvider::new(base, m, 8, train, seed), scale)
        }
        Method::HnswSq => built_mb(SqProvider::new(base, 8), scale),
        Method::HnswPca => built_mb(PcaProvider::with_variance(base, 0.9, train), scale),
        Method::HnswFlash => {
            let mut fp = FlashParams::auto(dim);
            fp.train_sample = train;
            built_mb(FlashProvider::new(base, fp), scale)
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 7: index sizes (n = {} per dataset)\n", scale.n);
    println!("| dataset | Flash (MB) | PCA (MB) | SQ (MB) | PQ (MB) | HNSW (MB) | Flash ratio |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for profile in DatasetProfile::ALL {
        let (base, _) = workload(profile, scale);
        let sizes: Vec<f64> = Method::ALL
            .iter()
            .map(|&method| size_mb(method, base.clone(), scale))
            .collect();
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1}x |",
            profile.name(),
            sizes[0],
            sizes[1],
            sizes[2],
            sizes[3],
            sizes[4],
            sizes[4] / sizes[0],
        );
    }
    println!("\npaper: PQ compresses most (~10–13x); Flash ~4–5x (codes stored twice: globally and inline with neighbor ids).");
}
