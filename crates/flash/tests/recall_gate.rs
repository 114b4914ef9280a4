//! Small-scale recall gate for `hnsw:flash` on the corpus and parameters of
//! the workspace's `tests/engine_api.rs`, so a codec change that trades
//! accuracy for speed fails here before it reaches the benchmark.

use flash::{BuildFlash, FlashHnsw, FlashParams};
use graphs::{search_layers_rerank, HnswParams};
use vecstore::{generate, ground_truth, DatasetSpec};

/// recall@10 at `ef = 48` with the paper's exact rerank over a pool of 4·k
/// (these 16-bit codes alone rank too coarsely to gate on), measured on the
/// commit before the coding layer moved onto `simdops::{gemm_nt, dist16}`.
const RECALL_BEFORE_KERNELS: f64 = 0.4030;

#[test]
fn hnsw_flash_recall_holds_at_matched_ef() {
    let (k, ef) = (10, 48);
    let (base, queries) = generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), 2000, 200, 1234);
    let truth = ground_truth(&base, &queries, k);
    let index = FlashHnsw::build_flash(
        base,
        FlashParams {
            d_f: 16,
            m_f: 4,
            train_sample: 150,
            kmeans_iters: 5,
            seed: 7,
            grid_quantile: 0.5,
        },
        HnswParams {
            c: 32,
            r: 8,
            seed: 7,
        },
    )
    .into_frozen();
    let mut found = 0usize;
    for (qi, exact) in truth.iter().enumerate() {
        let hits =
            search_layers_rerank(index.provider(), index.layers(), queries.get(qi), k, ef, 4);
        found += exact
            .iter()
            .filter(|t| hits.iter().any(|h| h.id == u64::from(t.id)))
            .count();
    }
    let recall = found as f64 / (truth.len() * k) as f64;
    println!("hnsw:flash recall@{k} at ef={ef}: {recall:.4}");
    assert!(
        recall >= RECALL_BEFORE_KERNELS - 0.01,
        "recall@{k} fell to {recall:.4} from {RECALL_BEFORE_KERNELS:.4}"
    );
}
