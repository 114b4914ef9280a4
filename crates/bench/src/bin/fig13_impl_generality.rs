//! Figure 13: generality across optimized HNSW implementations.
//!
//! ADSampling and VBase keep the standard construction loop, so Flash can
//! build their graph; their search-side optimizations then run on the
//! Flash-built topology. We report QPS–recall with and without Flash for
//! both variants on LAION-like data.

use bench::{workload, Method, Scale};
use graphs::adsampling::AdSampler;
use graphs::providers::FullPrecision;
use graphs::vbase::search_vbase;
use graphs::DistanceProvider as _;
use metrics::measure_qps;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let gt = ground_truth(&base, &queries, k);

    // Two graphs over the same data: baseline-built and Flash-built.
    let (full_index, t_full) = Method::Hnsw.build(base.clone(), scale);
    let (flash_index, t_flash) = Method::HnswFlash.build(base.clone(), scale);
    let g_full = full_index.export_graph().expect("graph-backed");
    let g_flash = flash_index.export_graph().expect("graph-backed");
    println!(
        "# Figure 13: ADSampling / VBase on baseline vs Flash graphs (build: {:.2}s vs {:.2}s)\n",
        t_full.as_secs_f64(),
        t_flash.as_secs_f64()
    );

    println!("| variant | graph | ef/window | recall@{k} | QPS |");
    println!("|---|---|---:|---:|---:|");

    let sampler = AdSampler::new(&base, 2.1, 32, 9);
    for (graph_name, graph) in [("HNSW", &g_full), ("Flash", &g_flash)] {
        for ef in [32usize, 64, 128] {
            let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
            let qps = measure_qps(queries.len(), |qi| {
                let (hits, _) = sampler.search(graph, queries.get(qi), k, ef);
                found.push(hits.iter().map(|r| r.id as u32).collect());
            });
            let recall = metrics::recall_at_k(&found, &gt, k).recall();
            println!(
                "| ADSampling | {graph_name} | {ef} | {recall:.4} | {:.0} |",
                qps.qps()
            );
        }
    }

    let full_provider = FullPrecision::new(base.clone());
    for (graph_name, graph) in [("HNSW", &g_full), ("Flash", &g_flash)] {
        for window in [16usize, 48, 128] {
            let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
            let qps = measure_qps(queries.len(), |qi| {
                let hits = search_vbase(&full_provider, graph, queries.get(qi), k, window);
                found.push(hits.iter().map(|r| r.id as u32).collect());
            });
            let recall = metrics::recall_at_k(&found, &gt, k).recall();
            println!(
                "| VBase | {graph_name} | {window} | {recall:.4} | {:.0} |",
                qps.qps()
            );
        }
    }
    let _ = full_provider.len();
    println!("\npaper: Flash-built graphs serve both variants at equal or better QPS-recall, at ~1/15 the build cost.");
}
