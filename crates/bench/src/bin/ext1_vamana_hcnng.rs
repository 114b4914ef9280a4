//! Extension 1: generality beyond Figure 14 — Vamana (α-RNG / DiskANN) and
//! HCNNG (MST family) built with and without Flash.
//!
//! Vamana shares the CA+NS skeleton, so the paper's argument predicts a
//! Figure-14-like speedup. HCNNG has *no* candidate pools (its distances
//! are partition tests and MST edge weights), so only the cheap-distance
//! effect of compact codes applies — a useful boundary case for the claim
//! that Flash's wins come from the CA/NS access pattern.

use bench::{search_ids, workload, Scale};
use engine::{Coding, GraphKind, IndexBuilder, SearchRequest};
use flash::FlashParams;
use metrics::measure_qps;
use std::time::Instant;
use vecstore::{ground_truth, DatasetProfile};

fn main() {
    let scale = Scale::from_env();
    let k = 10;
    let (base, queries) = workload(DatasetProfile::LaionLike, scale);
    let gt = ground_truth(&base, &queries, k);
    let mut fp = FlashParams::auto(base.dim());
    fp.train_sample = (scale.n / 2).clamp(256, 10_000);
    let builder = |graph: GraphKind, coding: Coding| {
        IndexBuilder::new(graph, coding)
            .c(scale.c)
            .r(scale.r)
            .seed(0xE1)
            .alpha(1.2)
            .hcnng(10, (scale.n / 64).clamp(24, 96), 3)
            .flash_params(fp)
    };

    println!(
        "# Ext 1: Vamana and HCNNG with/without Flash (n = {})\n",
        scale.n
    );
    println!("| algorithm | build (s) | ef | recall@{k} | QPS |");
    println!("|---|---:|---:|---:|---:|");

    let report = |name: &str, secs: f64, search: &mut dyn FnMut(usize, usize) -> Vec<u32>| {
        for ef in [64usize, 128] {
            let mut found: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
            let qps = measure_qps(queries.len(), |qi| found.push(search(qi, ef)));
            let recall = metrics::recall_at_k(&found, &gt, k).recall();
            println!(
                "| {name} | {secs:.2} | {ef} | {recall:.4} | {:.0} |",
                qps.qps()
            );
        }
    };

    // Flash variants rerank a pool of 8·k on the original vectors.
    for (name, graph, coding, rerank) in [
        ("Vamana", GraphKind::Vamana, Coding::Full, 1),
        ("Vamana-Flash", GraphKind::Vamana, Coding::Flash, 8),
        ("HCNNG", GraphKind::Hcnng, Coding::Full, 1),
        ("HCNNG-Flash", GraphKind::Hcnng, Coding::Flash, 8),
    ] {
        let builder = builder(graph, coding);
        let t0 = Instant::now();
        let index = builder.build(base.clone());
        let secs = t0.elapsed().as_secs_f64();
        report(name, secs, &mut |qi, ef| {
            let request = SearchRequest::new(queries.get(qi), k).ef(ef).rerank(rerank);
            search_ids(index.as_ref(), &request)
        });
    }
    println!("\nexpected: Vamana speedup mirrors NSG/τ-MG (CA+NS family); HCNNG speedup is smaller (cheap distances only, no layout effect).");
}
