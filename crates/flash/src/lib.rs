//! **Flash** — the paper's compact coding strategy and access-aware memory
//! layout for graph index construction (Section 3.3).
//!
//! Flash combines four ingredients, each targeting a specific CPU-level
//! bottleneck that Section 2.2 identifies in HNSW construction:
//!
//! | Ingredient | Bottleneck attacked |
//! |---|---|
//! | PCA to `d_F` principal components | wasted codeword bits on low-variance axes |
//! | `M_F` subspaces × 16 centroids (4-bit codewords) | ADT must fit one SIMD register |
//! | 8-bit shared-grid quantization of ADT and SDT | register-resident tables, CA/NS comparability |
//! | neighbor codewords stored *with* neighbor IDs, in subspace-major batches of 16 | random memory accesses to fetch neighbor vectors |
//!
//! The crate plugs into the generic graph builders of the `graphs` crate via
//! [`FlashProvider`], which overrides the batched neighbor-distance hook
//! with the `pshufb` lookup kernel, answers Neighbor Selection's
//! "is a selected vertex closer?" with the same kernel over the SDT (one
//! lookup pass per 16 selected vertices — the SDT is stored so the
//! distances *to* a code are contiguous), and maintains the per-node
//! codeword blocks one appended lane at a time. Every builder's Neighbor
//! Selection runs through that hook, whatever its prune rule, so NSG, τ-MG
//! and Vamana get the batched kernel as HNSW does. [`FlashHnsw`] is the
//! ready-made HNSW type; the other graphs take a [`FlashProvider`] like any
//! other provider (`graphs::nsg::build(FlashProvider::new(base, params), …)`).
//!
//! ```
//! use flash::{BuildFlash, FlashHnsw, FlashParams};
//! use graphs::{search_layers_rerank, HnswParams};
//! use vecstore::{generate, DatasetProfile};
//!
//! let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), 500, 4, 42);
//! let index = FlashHnsw::build_flash(
//!     base,
//!     FlashParams::auto(256),
//!     HnswParams { c: 64, r: 8, seed: 1 },
//! )
//! .into_frozen();
//! let hits = search_layers_rerank(index.provider(), index.layers(), queries.get(0), 3, 32, 4);
//! assert_eq!(hits.len(), 3);
//! ```

pub mod codec;
pub mod provider;
pub mod tune;

pub use codec::{nibble, FlashCodec, FlashParams};
pub use provider::{FlashBlocks, FlashCtx, FlashProvider};
pub use tune::{tune_flash_params, TuneOptions, TuneOutcome};

use graphs::{Hnsw, HnswParams};
use vecstore::VectorSet;

/// HNSW built and searched through Flash codes (the paper's HNSW-Flash).
pub type FlashHnsw = Hnsw<FlashProvider>;

/// Builds an HNSW-Flash index over `base`.
pub trait BuildFlash: Sized {
    /// Trains the codec, encodes the dataset, and runs construction.
    fn build_flash(base: VectorSet, flash: FlashParams, params: HnswParams) -> Self;
}

impl BuildFlash for FlashHnsw {
    fn build_flash(base: VectorSet, flash: FlashParams, params: HnswParams) -> Self {
        let provider = FlashProvider::new(base, flash);
        Hnsw::build(provider, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::stats::GraphStats;
    use graphs::{
        hcnng, nsg, search_layers, search_layers_rerank, taumg, vamana, DistanceProvider,
        HcnngParams, NsgParams, TauMgParams, VamanaParams,
    };

    /// Held by every test that caps the process-wide `simdops` dispatch
    /// level, and by every test that compares two float computations which
    /// must run at one level: the harness runs tests on parallel threads.
    pub(crate) fn serialize_level_tests() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn end_to_end_hnsw_flash() {
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 600, 8, 3);
        let gt = vecstore::ground_truth(&base, &queries, 1);
        let index = FlashHnsw::build_flash(
            base,
            FlashParams::auto(256),
            HnswParams {
                c: 64,
                r: 8,
                seed: 2,
            },
        )
        .into_frozen();
        let mut hits = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found =
                search_layers_rerank(index.provider(), index.layers(), queries.get(qi), 1, 64, 8);
            if found.first().map(|h| h.id) == Some(u64::from(truth[0].id)) {
                hits += 1;
            }
        }
        assert!(hits >= 6, "top-1 recall {hits}/8 too low");
    }

    #[test]
    fn flash_index_smaller_than_raw_vectors() {
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 400, 1, 5);
        let raw_bytes = base.payload_bytes();
        let index = FlashHnsw::build_flash(
            base,
            FlashParams::auto(256),
            HnswParams {
                c: 32,
                r: 8,
                seed: 2,
            },
        );
        assert!(index.provider().aux_bytes() < raw_bytes);
    }

    #[test]
    fn nsg_flash_builds_and_searches() {
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 400, 4, 7);
        let nsg = nsg::build(
            FlashProvider::new(base, FlashParams::auto(256)),
            NsgParams { r: 8, c: 48 },
        );
        let hits = search_layers_rerank(nsg.provider(), nsg.layers(), queries.get(0), 3, 48, 4);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn from_codec_matches_fresh_training() {
        let _serial = crate::tests::serialize_level_tests();
        let (base, _) = vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 500, 1, 31);
        let params = FlashParams::auto(256);
        let fresh = FlashProvider::new(base.clone(), params);
        let shared = FlashProvider::from_codec(base, fresh.codec().clone());
        // Identical codec ⇒ identical distances.
        let ctx_a = fresh.prepare_insert(7);
        let ctx_b = shared.prepare_insert(7);
        for id in [0u32, 13, 99, 400] {
            assert_eq!(fresh.dist_to(&ctx_a, id), shared.dist_to(&ctx_b, id));
            assert_eq!(fresh.dist_between(7, id), shared.dist_between(7, id));
        }
        // Sharing skips training, so coding time must shrink.
        assert!(shared.coding_ns() < fresh.coding_ns());
    }

    #[test]
    fn vamana_flash_builds_and_searches() {
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 400, 4, 21);
        let gt = vecstore::ground_truth(&base, &queries, 1);
        let index = vamana::build(
            FlashProvider::new(base, FlashParams::auto(256)),
            VamanaParams {
                r: 10,
                c: 48,
                alpha: 1.2,
            },
        );
        let mut hits = 0;
        for (qi, truth) in gt.iter().enumerate() {
            let found =
                search_layers_rerank(index.provider(), index.layers(), queries.get(qi), 1, 48, 8);
            if found.first().map(|h| h.id) == Some(u64::from(truth[0].id)) {
                hits += 1;
            }
        }
        assert!(hits >= 3, "Vamana-Flash top-1 recall {hits}/4 too low");
    }

    #[test]
    fn hcnng_flash_builds_and_searches() {
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 400, 4, 23);
        let index = hcnng::build(
            FlashProvider::new(base, FlashParams::auto(256)),
            HcnngParams {
                trees: 6,
                leaf_size: 32,
                mst_degree: 3,
                seed: 5,
            },
        );
        assert_eq!(GraphStats::from_layers(index.layers()).reachable, 400);
        let hits = search_layers_rerank(index.provider(), index.layers(), queries.get(0), 3, 48, 4);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn taumg_flash_builds_and_searches() {
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 300, 4, 9);
        let index = taumg::build(
            FlashProvider::new(base, FlashParams::auto(256)),
            TauMgParams::default(),
        );
        let hits = search_layers(index.provider(), index.layers(), queries.get(1), 2, 32);
        assert_eq!(hits.len(), 2);
    }
}
