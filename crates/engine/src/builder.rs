//! One constructor for the whole graph × coding matrix.

use crate::indexes::GraphIndex;
use crate::kinds::{Coding, GraphKind};
use crate::AnnIndex;
use flash::{FlashCodec, FlashParams, FlashProvider};
use graphs::flat_build::FlatParams;
use graphs::providers::{FullPrecision, OpqProvider, PcaProvider, PqProvider, SqProvider};
use graphs::{
    DistanceProvider, FrozenGraph, GraphLayers, Hcnng, HcnngParams, Hnsw, HnswParams, LabeledHnsw,
    LabeledParams, Nsg, TauMg, TauMgParams, Vamana, VamanaParams,
};
use quantizers::sq::SqRange;
use quantizers::{OptimizedProductQuantizer, PcaCodec, ProductQuantizer, ScalarQuantizer};
use std::sync::Arc;
use vecstore::VectorSet;

/// A coding codec trained once over a full corpus, shareable across every
/// shard and replica built from slices of that corpus.
///
/// [`IndexBuilder::build`] trains its codec on whatever dataset it is
/// handed — correct for one monolithic index, but a deployment that builds
/// *many* indexes over one distribution (shards, replicas, LSM segments)
/// would retrain per partition, paying the training cost repeatedly and
/// letting per-partition value ranges skew the grids. Train once with
/// [`IndexBuilder::train_codec`] and build every partition through
/// [`IndexBuilder::build_with_codec`] instead; only encoding is paid per
/// partition. Cloning is cheap (the trained state is behind an `Arc`).
#[derive(Clone)]
pub struct TrainedCodec {
    coding: Coding,
    kind: Arc<CodecKind>,
}

enum CodecKind {
    /// Full precision has no trained state.
    Full,
    Sq(ScalarQuantizer),
    Pca(PcaCodec),
    Pq(ProductQuantizer),
    Opq(OptimizedProductQuantizer),
    Flash(Arc<FlashCodec>),
}

impl TrainedCodec {
    /// The coding this codec was trained for.
    pub fn coding(&self) -> Coding {
        self.coding
    }
}

impl std::fmt::Debug for TrainedCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedCodec")
            .field("coding", &self.coding)
            .finish()
    }
}

/// A computation over whichever concrete provider an [`IndexBuilder`]
/// encodes (see [`IndexBuilder::with_provider`]): a trait rather than a
/// closure because the provider type differs per coding.
pub trait ProviderJob {
    /// What the job returns.
    type Output;
    /// Runs the job on the encoded provider.
    fn run<P: DistanceProvider + 'static>(self, provider: P) -> Self::Output;
}

/// The job behind [`IndexBuilder::build_with_codec`] and
/// [`IndexBuilder::serve`]: construct the configured graph, or pair the
/// provider with a persisted topology.
struct Finish<'a> {
    builder: &'a IndexBuilder,
    topology: Option<GraphLayers>,
}

impl ProviderJob for Finish<'_> {
    type Output = Box<dyn AnnIndex>;
    fn run<P: DistanceProvider + 'static>(self, provider: P) -> Box<dyn AnnIndex> {
        match self.topology {
            Some(layers) => Box::new(GraphIndex::from_parts(provider, layers)),
            None => Box::new(GraphIndex::from(self.builder.construct(provider))),
        }
    }
}

/// Builds any [`GraphKind`] × [`Coding`] combination into a
/// `Box<dyn AnnIndex>`: one fluent surface over the per-type constructors
/// (`Hnsw::build`, `Nsg::build`, …). Construction runs to the end and the
/// result is frozen — every index this returns is a
/// [`GraphIndex`] over a provider and a [`GraphLayers`] topology.
///
/// Unset knobs fall back to the concrete types' defaults, so a builder
/// configured with only `(graph, coding, c, r, seed)` produces an index
/// identical to the corresponding concrete build — the property
/// `tests/engine_api.rs` locks in for all 30 combinations.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    graph: GraphKind,
    coding: Coding,
    c: usize,
    r: usize,
    seed: u64,
    alpha: f32,
    tau: f32,
    trees: usize,
    leaf_size: usize,
    mst_degree: usize,
    flash: Option<FlashParams>,
    sq_bits: u8,
    pq_m: Option<usize>,
    pq_bits: u8,
    opq_iters: usize,
    pca_variance: f64,
    train_sample: Option<usize>,
}

impl IndexBuilder {
    /// A builder for the given combination with the workspace defaults.
    pub fn new(graph: GraphKind, coding: Coding) -> Self {
        Self {
            graph,
            coding,
            c: 128,
            r: 16,
            seed: 0x5eed,
            alpha: 1.2,
            tau: 0.1,
            trees: 10,
            leaf_size: 48,
            mst_degree: 3,
            flash: None,
            sq_bits: 8,
            pq_m: None,
            pq_bits: 8,
            opq_iters: 8,
            pca_variance: 0.9,
            train_sample: None,
        }
    }

    /// Candidate-pool bound `C` (a.k.a. `efConstruction` / DiskANN's `L`).
    pub fn c(mut self, c: usize) -> Self {
        self.c = c;
        self
    }

    /// Degree bound `R`.
    pub fn r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// RNG seed shared by level sampling and codec training.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Vamana's α slack (ignored by other graphs).
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// τ-MG's monotonicity slack (ignored by other graphs).
    pub fn tau(mut self, tau: f32) -> Self {
        self.tau = tau;
        self
    }

    /// HCNNG's clustering passes / leaf size / MST degree (ignored by
    /// other graphs).
    pub fn hcnng(mut self, trees: usize, leaf_size: usize, mst_degree: usize) -> Self {
        self.trees = trees;
        self.leaf_size = leaf_size;
        self.mst_degree = mst_degree;
        self
    }

    /// Full Flash parameter override (default: `FlashParams::auto(dim)`
    /// with this builder's seed and training-sample size).
    pub fn flash_params(mut self, params: FlashParams) -> Self {
        self.flash = Some(params);
        self
    }

    /// SQ code width in bits.
    pub fn sq_bits(mut self, bits: u8) -> Self {
        self.sq_bits = bits;
        self
    }

    /// PQ/OPQ subspace count (default: `(dim / 48).clamp(4, 64)`).
    pub fn pq_m(mut self, m: usize) -> Self {
        self.pq_m = Some(m);
        self
    }

    /// PQ/OPQ codeword bits.
    pub fn pq_bits(mut self, bits: u8) -> Self {
        self.pq_bits = bits;
        self
    }

    /// OPQ alternation iterations.
    pub fn opq_iters(mut self, iters: usize) -> Self {
        self.opq_iters = iters;
        self
    }

    /// PCA retained-variance fraction.
    pub fn pca_variance(mut self, alpha: f64) -> Self {
        self.pca_variance = alpha;
        self
    }

    /// Codec training-sample size (default: [`Self::default_train_sample`]).
    pub fn train_sample(mut self, n: usize) -> Self {
        self.train_sample = Some(n);
        self
    }

    /// The configured graph kind.
    pub fn graph_kind(&self) -> GraphKind {
        self.graph
    }

    /// The configured coding.
    pub fn coding(&self) -> Coding {
        self.coding
    }

    fn hnsw_params(&self) -> HnswParams {
        HnswParams {
            c: self.c,
            r: self.r,
            seed: self.seed,
        }
    }

    fn flat_params(&self) -> FlatParams {
        FlatParams {
            r: self.r,
            c: self.c,
            seed: self.seed,
        }
    }

    /// The codec training-sample size for an `n`-vector corpus when none
    /// is set: half the corpus, within `256..=10_000`.
    pub fn default_train_sample(n: usize) -> usize {
        (n / 2).clamp(256, 10_000)
    }

    fn training_sample_for(&self, n: usize) -> usize {
        self.train_sample
            .unwrap_or_else(|| Self::default_train_sample(n))
    }

    fn derived_flash(&self, dim: usize, n: usize) -> FlashParams {
        self.flash.unwrap_or_else(|| {
            let mut fp = FlashParams::auto(dim);
            fp.seed = self.seed;
            fp.train_sample = self.training_sample_for(n);
            fp
        })
    }

    fn derived_pq_m(&self, dim: usize) -> usize {
        self.pq_m.unwrap_or((dim / 48).clamp(4, 64))
    }

    /// Trains the configured coding over `base` and builds the configured
    /// graph through it.
    pub fn build(&self, base: VectorSet) -> Box<dyn AnnIndex> {
        let codec = self.train_codec(&base);
        self.build_with_codec(base, &codec)
    }

    /// Trains this builder's coding once over `base`, for sharing across
    /// every shard/replica subsequently built with
    /// [`Self::build_with_codec`]; [`Self::build`] is the single-partition
    /// case `build_with_codec(base, &train_codec(&base))`.
    pub fn train_codec(&self, base: &VectorSet) -> TrainedCodec {
        let (dim, n) = (base.dim(), base.len());
        let ts = self.training_sample_for(n);
        let kind = match self.coding {
            Coding::Full => CodecKind::Full,
            Coding::Sq => {
                CodecKind::Sq(ScalarQuantizer::train(base, self.sq_bits, SqRange::Global))
            }
            Coding::Pca => CodecKind::Pca(PcaCodec::fit_for_variance(
                &base.stride_sample(ts),
                self.pca_variance,
            )),
            Coding::Pq => CodecKind::Pq(ProductQuantizer::train(
                &base.stride_sample(ts),
                self.derived_pq_m(dim),
                self.pq_bits,
                20,
                self.seed,
            )),
            Coding::Opq => CodecKind::Opq(OptimizedProductQuantizer::train(
                &base.stride_sample(ts),
                self.derived_pq_m(dim),
                self.pq_bits,
                self.opq_iters,
                12,
                self.seed,
            )),
            Coding::Flash => CodecKind::Flash(Arc::new(FlashCodec::train(
                base,
                self.derived_flash(dim, n),
            ))),
        };
        TrainedCodec {
            coding: self.coding,
            kind: Arc::new(kind),
        }
    }

    /// Builds the configured graph over `base` through an already-trained
    /// `codec` (from [`Self::train_codec`]) instead of retraining: the
    /// partition only pays encoding.
    ///
    /// # Panics
    /// Panics if `codec` was trained for a different coding than this
    /// builder is configured with.
    pub fn build_with_codec(&self, base: VectorSet, codec: &TrainedCodec) -> Box<dyn AnnIndex> {
        self.assemble(base, codec, None)
    }

    /// Serves a persisted topology: re-derives the provider over `base`
    /// (deterministic for a given seed) and pairs it with `graph`. Works
    /// for any graph kind — flat topologies are single-layer
    /// [`GraphLayers`].
    pub fn serve(&self, base: VectorSet, graph: GraphLayers) -> Result<Box<dyn AnnIndex>, String> {
        if base.len() != graph.len() {
            return Err(format!(
                "topology covers {} nodes but base has {} vectors",
                graph.len(),
                base.len()
            ));
        }
        let codec = self.train_codec(&base);
        Ok(self.assemble(base, &codec, Some(graph)))
    }

    /// Encodes `base` through `codec` into that coding's provider, then
    /// pairs it with `topology` or, without one, builds the configured
    /// graph through it.
    fn assemble(
        &self,
        base: VectorSet,
        codec: &TrainedCodec,
        topology: Option<GraphLayers>,
    ) -> Box<dyn AnnIndex> {
        let builder = self;
        self.with_provider(base, codec, Finish { builder, topology })
    }

    /// Encodes `base` through `codec` into that coding's concrete provider
    /// and hands it to `job` — the step [`Self::build_with_codec`] runs
    /// before construction, for callers that need the provider itself
    /// (construction-time sizes, instrumented builds).
    ///
    /// # Panics
    /// Panics if `codec` was trained for a different coding than this
    /// builder is configured with.
    pub fn with_provider<J: ProviderJob>(
        &self,
        base: VectorSet,
        codec: &TrainedCodec,
        job: J,
    ) -> J::Output {
        assert_eq!(
            codec.coding(),
            self.coding,
            "codec was trained for `{}` but the builder is configured for `{}`",
            codec.coding(),
            self.coding
        );
        match &*codec.kind {
            CodecKind::Full => job.run(FullPrecision::new(base)),
            CodecKind::Sq(sq) => job.run(SqProvider::from_quantizer(base, sq.clone())),
            CodecKind::Pca(pca) => job.run(PcaProvider::from_codec(base, pca.clone())),
            CodecKind::Pq(pq) => job.run(PqProvider::from_quantizer(base, pq.clone())),
            CodecKind::Opq(opq) => job.run(OpqProvider::from_quantizer(base, opq.clone())),
            CodecKind::Flash(fc) => job.run(FlashProvider::from_codec(base, Arc::clone(fc))),
        }
    }

    /// Runs the configured graph's construction through `provider`.
    fn construct<P: DistanceProvider>(&self, provider: P) -> FrozenGraph<P> {
        match self.graph {
            GraphKind::Hnsw => Hnsw::build(provider, self.hnsw_params()).into_frozen(),
            GraphKind::Nsg => Nsg::build(provider, self.flat_params()).into_frozen(),
            GraphKind::TauMg => TauMg::build(
                provider,
                TauMgParams {
                    flat: self.flat_params(),
                    tau: self.tau,
                },
            )
            .into_frozen(),
            GraphKind::Vamana => Vamana::build(
                provider,
                VamanaParams {
                    r: self.r,
                    c: self.c,
                    alpha: self.alpha,
                    seed: self.seed,
                },
            )
            .into_frozen(),
            GraphKind::Hcnng => Hcnng::build(
                provider,
                HcnngParams {
                    trees: self.trees,
                    leaf_size: self.leaf_size,
                    mst_degree: self.mst_degree,
                    seed: self.seed,
                },
            )
            .into_frozen(),
        }
    }

    /// Builds one specialized sub-index per label value (HNSW only — the
    /// specialization the paper's hybrid-search motivation describes).
    /// Codec-backed codings train once on the whole corpus and share the
    /// codec across partitions.
    pub fn build_labeled(
        &self,
        base: &VectorSet,
        labels: &[u32],
        min_graph_size: usize,
    ) -> Result<Box<dyn AnnIndex>, String> {
        if self.graph != GraphKind::Hnsw {
            return Err(format!(
                "per-label specialization is HNSW-based; got graph kind `{}`",
                self.graph
            ));
        }
        let params = LabeledParams {
            hnsw: self.hnsw_params(),
            min_graph_size,
        };
        let (dim, n) = (base.dim(), base.len());
        Ok(match self.coding {
            Coding::Full => Box::new(LabeledHnsw::build(base, labels, params, FullPrecision::new)),
            Coding::Sq => {
                let bits = self.sq_bits;
                Box::new(LabeledHnsw::build(base, labels, params, move |subset| {
                    SqProvider::new(subset, bits)
                }))
            }
            Coding::Pca => {
                let alpha = self.pca_variance;
                Box::new(LabeledHnsw::build(base, labels, params, move |subset| {
                    let ts = (subset.len() / 2).clamp(16, 10_000);
                    PcaProvider::with_variance(subset, alpha, ts)
                }))
            }
            Coding::Pq => {
                let (m, bits, seed) = (self.derived_pq_m(dim), self.pq_bits, self.seed);
                Box::new(LabeledHnsw::build(base, labels, params, move |subset| {
                    let ts = (subset.len() / 2).clamp(16, 10_000);
                    PqProvider::new(subset, m, bits, ts, seed)
                }))
            }
            Coding::Opq => {
                let (m, bits, iters, seed) = (
                    self.derived_pq_m(dim),
                    self.pq_bits,
                    self.opq_iters,
                    self.seed,
                );
                Box::new(LabeledHnsw::build(base, labels, params, move |subset| {
                    let ts = (subset.len() / 2).clamp(16, 10_000);
                    OpqProvider::new(subset, m, bits, iters, ts, seed)
                }))
            }
            Coding::Flash => {
                // Train once on the whole corpus; partitions only encode.
                let codec = Arc::new(FlashCodec::train(base, self.derived_flash(dim, n)));
                Box::new(LabeledHnsw::build(base, labels, params, move |subset| {
                    FlashProvider::from_codec(subset, codec.clone())
                }))
            }
        })
    }
}
