//! Build overnight, serve after restart: persist a Flash index's topology,
//! reload it in a "fresh process", and serve queries at full speed.
//!
//! ```text
//! cargo run --release --example persisted_serving
//! ```
//!
//! Demonstrates the two persistence layers, both serving through the
//! engine:
//! * `AnnIndex::export_graph` + `IndexBuilder::serve` for a single index
//!   (codes are re-derived deterministically from the dataset — only
//!   adjacency is stored);
//! * `maintenance`'s directory format for a whole LSM index (segments,
//!   tombstones, id counter), searched through the same trait.

use hnsw_flash::prelude::*;
use hnsw_flash::{graphs, maintenance};
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join("hnsw_flash_persisted_serving");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // ---------- single index: build → save topology → reload → serve ----
    let n = 15_000;
    println!("building HNSW-Flash over {n} vectors (SSNPP-like, 256-d)...");
    let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), n, 50, 17);
    let gt = ground_truth(&base, &queries, 10);
    let builder = IndexBuilder::new(GraphKind::Hnsw, Coding::Flash)
        .c(128)
        .r(16)
        .seed(11);

    let t0 = Instant::now();
    let built = builder.clone().build(base.clone());
    println!("built in {:.2?}", t0.elapsed());

    let graph_path = dir.join("index.hfg");
    let method = format!("{}:{}", builder.graph_kind(), builder.coding());
    built
        .export_graph()
        .unwrap()
        .save(&graph_path, &method)
        .unwrap();
    println!(
        "topology saved to {} ({} bytes)",
        graph_path.display(),
        std::fs::metadata(&graph_path).unwrap().len()
    );
    drop(built); // "process exits"

    // "New process": re-derive the provider (deterministic: same data,
    // same seed) and serve the loaded topology — no graph construction.
    let t0 = Instant::now();
    let (topology, saved_as) = graphs::GraphLayers::load(&graph_path).unwrap();
    assert_eq!(
        saved_as, method,
        "the file records the method it was built with"
    );
    let served = builder.serve(base, topology).unwrap();
    println!(
        "reloaded + re-encoded in {:.2?} (no graph construction)",
        t0.elapsed()
    );

    let found: Vec<Vec<u32>> = (0..queries.len())
        .map(|qi| {
            let request = SearchRequest::new(queries.get(qi), 10).ef(128).rerank(8);
            served
                .search(&request)
                .hits
                .iter()
                .map(|h| h.id as u32)
                .collect()
        })
        .collect();
    let recall = recall_at_k(&found, &gt, 10).recall();
    println!("served recall@10 from the reloaded index: {recall:.4}");
    assert!(recall > 0.9);

    // ---------- whole LSM index: churn → save → reload → verify ---------
    println!("\nLSM index: insert, delete, save, reload...");
    let mut config = LsmConfig::for_dim(64);
    config.memtable_cap = 1024;
    let mut lsm = LsmVectorIndex::new(config);
    let (data, _) = generate(&DatasetSpec::new(64, 8, 0.98, 0.3, 5), 5_000, 1, 23);
    let ids: Vec<u64> = data.iter().map(|v| lsm.insert(v)).collect();
    for id in ids.iter().step_by(7) {
        lsm.delete(*id);
    }
    let lsm_dir = dir.join("lsm");
    lsm.save(&lsm_dir).unwrap();
    let before = lsm.stats();

    let reloaded = maintenance::LsmVectorIndex::load(&lsm_dir).unwrap();
    let after = reloaded.stats();
    println!(
        "live vectors: {} before save, {} after reload",
        before.live, after.live
    );
    assert_eq!(before.live, after.live);

    // Same query against the pre-save and reloaded index must agree hit
    // for hit — both served through the engine trait.
    let probe = SearchRequest::new(data.get(8), 5).ef(192); // id 8 survives the deletes
    let before_hits = AnnIndex::search(&lsm, &probe).ids();
    let after_hits = AnnIndex::search(&reloaded, &probe).ids();
    println!("self-query top-5 before save: {before_hits:?}");
    println!("self-query top-5 after load:  {after_hits:?}");
    assert_eq!(before_hits, after_hits);
    println!("\nok: both persistence layers round-trip.");
}
