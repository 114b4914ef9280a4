//! Figure 14: generality across graph algorithms — NSG and τ-MG built with
//! and without Flash: indexing time plus QPS-recall.

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
            .seed(0xF14)
            .tau(0.5)
            .flash_params(fp)
    };

    println!(
        "# Figure 14: NSG and τ-MG with/without Flash (n = {})\n",
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
        ("NSG", GraphKind::Nsg, Coding::Full, 1),
        ("NSG-Flash", GraphKind::Nsg, Coding::Flash, 8),
        ("tau-MG", GraphKind::TauMg, Coding::Full, 1),
        ("tau-MG-Flash", GraphKind::TauMg, Coding::Flash, 8),
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
    println!("\npaper: Flash accelerates both builders ~11–12x with comparable QPS-recall.");
}
