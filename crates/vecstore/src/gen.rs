//! Seeded synthetic embedding generators.
//!
//! The paper's datasets are deep-model embeddings (Table 1): LAION/CLIP
//! image-text vectors (768-d), wiki sentence embeddings (1024-d), SSNPP
//! descriptors (256-d), and so on. Embedding matrices share two structural
//! properties that matter for this paper:
//!
//! 1. **Cluster structure** — semantically similar items form dense local
//!    neighborhoods, which is what makes graph indexes navigable;
//! 2. **Skewed variance spectrum** — variance concentrates in a small number
//!    of principal directions (the paper reports 90 % cumulative variance at
//!    `d_PCA = 420` of 768 on LAION). Flash's PCA stage exploits exactly
//!    this.
//!
//! The generator therefore samples from a mixture of Gaussians whose axis
//! variances decay geometrically, then applies a fixed random rotation so
//! the principal directions are not axis-aligned (otherwise PCA would be
//! trivially the identity and its cost would be misrepresented).

use crate::set::VectorSet;
use linalg::random_orthogonal;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Named generation profiles mirroring the paper's eight datasets.
///
/// The `*_LIKE` names keep the correspondence to Table 1 obvious; volumes
/// are chosen by the caller (the paper's 10M–1B scale is out of reach for a
/// single-core CI box, but construction-cost *shape* is volume-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// ARGILLA (1024-d persona embeddings).
    ArgillaLike,
    /// ANTON (1024-d wiki embeddings).
    AntonLike,
    /// LAION (768-d CLIP embeddings).
    LaionLike,
    /// IMAGENET (768-d image embeddings).
    ImagenetLike,
    /// COHERE (768-d multilingual wiki embeddings).
    CohereLike,
    /// DATACOMP (768-d CLIP embeddings).
    DatacompLike,
    /// BIGCODE (768-d code embeddings).
    BigcodeLike,
    /// SSNPP (256-d similarity-search descriptors).
    SsnppLike,
}

impl DatasetProfile {
    /// All eight profiles in the order the paper's figures list them.
    pub const ALL: [DatasetProfile; 8] = [
        DatasetProfile::SsnppLike,
        DatasetProfile::LaionLike,
        DatasetProfile::CohereLike,
        DatasetProfile::BigcodeLike,
        DatasetProfile::ImagenetLike,
        DatasetProfile::DatacompLike,
        DatasetProfile::AntonLike,
        DatasetProfile::ArgillaLike,
    ];

    /// Display name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::ArgillaLike => "ARGILLA-like",
            DatasetProfile::AntonLike => "ANTON-like",
            DatasetProfile::LaionLike => "LAION-like",
            DatasetProfile::ImagenetLike => "IMAGENET-like",
            DatasetProfile::CohereLike => "COHERE-like",
            DatasetProfile::DatacompLike => "DATACOMP-like",
            DatasetProfile::BigcodeLike => "BIGCODE-like",
            DatasetProfile::SsnppLike => "SSNPP-like",
        }
    }

    /// Full dataset spec for this profile.
    ///
    /// Per-profile knobs vary cluster counts and spectral decay so the eight
    /// workloads are not clones of one another (the paper's datasets show
    /// visibly different compression/recall behaviour).
    pub fn spec(self) -> DatasetSpec {
        // Cluster counts are in the hundreds: deep-embedding corpora have
        // many fine-grained semantic neighborhoods, and this local-manifold
        // structure is what product-quantization-style codecs rely on.
        match self {
            DatasetProfile::ArgillaLike => DatasetSpec::new(1024, 320, 0.992, 0.35, 101),
            DatasetProfile::AntonLike => DatasetSpec::new(1024, 256, 0.990, 0.40, 102),
            DatasetProfile::LaionLike => DatasetSpec::new(768, 300, 0.990, 0.45, 103),
            DatasetProfile::ImagenetLike => DatasetSpec::new(768, 400, 0.988, 0.40, 104),
            DatasetProfile::CohereLike => DatasetSpec::new(768, 256, 0.991, 0.40, 105),
            DatasetProfile::DatacompLike => DatasetSpec::new(768, 288, 0.989, 0.45, 106),
            DatasetProfile::BigcodeLike => DatasetSpec::new(768, 224, 0.990, 0.50, 107),
            DatasetProfile::SsnppLike => DatasetSpec::new(256, 200, 0.975, 0.50, 108),
        }
    }
}

/// Parameters of the synthetic embedding distribution.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Vector dimensionality `D`.
    pub dim: usize,
    /// Number of Gaussian mixture components.
    pub clusters: usize,
    /// Geometric per-axis variance decay `r` (axis `i` has std `r^i` before
    /// rotation). Values near 1 mean a flatter spectrum.
    pub variance_decay: f64,
    /// Within-cluster noise scale relative to the global spread.
    pub cluster_tightness: f64,
    /// Base seed; combined with the caller's seed for reproducibility.
    pub profile_seed: u64,
}

impl DatasetSpec {
    /// Creates a spec; see field docs for parameter meanings.
    pub fn new(
        dim: usize,
        clusters: usize,
        variance_decay: f64,
        cluster_tightness: f64,
        profile_seed: u64,
    ) -> Self {
        assert!(dim > 0 && clusters > 0);
        assert!((0.0..=1.0).contains(&variance_decay));
        Self {
            dim,
            clusters,
            variance_decay,
            cluster_tightness,
            profile_seed,
        }
    }
}

/// Rows generated per step. One step's draws are `CHUNK_ROWS × D` uniform
/// pairs (3 MiB at 768-d), the only buffer besides the output.
const CHUNK_ROWS: usize = 256;

/// Generates `n` database vectors plus `n_queries` held-out query vectors
/// from the same distribution.
///
/// Queries are drawn from the mixture (not copied from the database), so
/// exact-duplicate shortcuts cannot inflate recall.
///
/// The output is a function of `(spec, n, n_queries, seed)` alone, bit for
/// bit, whatever the thread count. Rows are made [`CHUNK_ROWS`] at a time
/// in two phases:
///
/// 1. **Draws, in order.** The one seeded generator draws each row's
///    cluster and then, per axis, the Box–Muller uniforms `(u1, u2)`,
///    redrawing `u1` while it is at most `f64::MIN_POSITIVE`: row after
///    row, base rows before query rows, the order a one-row-at-a-time
///    sampler consumes them in.
/// 2. **Arithmetic, in parallel.** Each row turns its draws into normal
///    deviates (`ln`, `sqrt`, `cos`), scales and offsets them, and rotates
///    each full block, writing straight into its row of the output. A row
///    reads nothing another row writes, so the threads need no order.
///
/// The rotation is a random orthogonal `B × B` matrix, `B = D/2` clamped to
/// `1..=64`, applied to each full block of `B` axes; a ragged tail stays
/// unrotated.
/// It walks a column-major `f64` copy of the matrix, built once per call,
/// so the `B` sums of one block advance together, each over the columns in
/// order from `-0.0` — the sequence of `Iterator::sum::<f64>` over one row
/// of the matrix, so the same bits as a row-by-row product.
pub fn generate(
    spec: &DatasetSpec,
    n: usize,
    n_queries: usize,
    seed: u64,
) -> (VectorSet, VectorSet) {
    let mut rng = SmallRng::seed_from_u64(seed ^ spec.profile_seed.wrapping_mul(0x9e37));
    let d = spec.dim;

    // Per-axis standard deviations with geometric decay, floored so no axis
    // is exactly degenerate.
    let stds: Vec<f64> = (0..d)
        .map(|i| spec.variance_decay.powi(i as i32).max(1e-3))
        .collect();

    // Cluster centers: drawn from the anisotropic Gaussian, scaled up so
    // between-cluster spread dominates within-cluster noise.
    let centers: Vec<Vec<f64>> = (0..spec.clusters)
        .map(|_| stds.iter().map(|s| 2.0 * s * normal(&mut rng)).collect())
        .collect();

    // A fixed rotation tied to the profile (not the caller seed) so database
    // and query batches of any size share the same principal directions.
    // Blocks of at most 64 dims mix axes within each block enough that PCA
    // has real work to do, at 64 multiply-adds per axis.
    // Block size < D so the geometric decay *across* blocks survives the
    // rotation (energy within a block is preserved by orthogonality).
    let block = (d / 2).clamp(1, 64);
    let rotation = random_orthogonal(block, spec.profile_seed);
    let columns = (0..block)
        .flat_map(|j| (0..block).map(move |i| (i, j)))
        .map(|ij| f64::from(rotation[ij]))
        .collect();

    let sampler = Sampler {
        spec,
        stds,
        centers,
        block,
        columns,
    };
    let base = sampler.rows(&mut rng, n);
    let queries = sampler.rows(&mut rng, n_queries);
    (base, queries)
}

/// Everything a row needs besides its own draws.
struct Sampler<'a> {
    spec: &'a DatasetSpec,
    stds: Vec<f64>,
    centers: Vec<Vec<f64>>,
    block: usize,
    /// The rotation, column-major: entry `(i, j)` at `j * block + i`.
    columns: Vec<f64>,
}

impl Sampler<'_> {
    /// The next `n` rows of `rng`'s stream, [`CHUNK_ROWS`] at a time.
    fn rows(&self, rng: &mut SmallRng, n: usize) -> VectorSet {
        let d = self.spec.dim;
        let mut data = vec![0.0f32; n * d];
        let mut clusters = Vec::with_capacity(CHUNK_ROWS.min(n));
        let mut uniforms = Vec::with_capacity(CHUNK_ROWS.min(n) * d);
        for chunk in data.chunks_mut(CHUNK_ROWS * d) {
            clusters.clear();
            uniforms.clear();
            for _ in 0..chunk.len() / d {
                clusters.push(rng.gen_range(0..self.spec.clusters));
                uniforms.extend((0..d).map(|_| uniform_pair(rng)));
            }
            let mut rows: Vec<&mut [f32]> = chunk.chunks_exact_mut(d).collect();
            rows.par_iter_mut().enumerate().for_each(|(r, row)| {
                self.fill(row, clusters[r], &uniforms[r * d..(r + 1) * d]);
            });
        }
        VectorSet::from_flat(d, data)
    }

    /// One row from its cluster and its `(u1, u2)` per axis.
    fn fill(&self, row: &mut [f32], cluster: usize, uniforms: &[[f64; 2]]) {
        let center = &self.centers[cluster];
        let tightness = self.spec.cluster_tightness;
        let value = |i: usize| center[i] + tightness * self.stds[i] * box_muller(uniforms[i]);
        let block = self.block;
        let mut sums = [0.0f64; 64];
        let sums = &mut sums[..block];
        for (b, out) in row.chunks_mut(block).enumerate() {
            let first = b * block;
            if out.len() < block {
                // The ragged tail stays unrotated.
                for (i, x) in out.iter_mut().enumerate() {
                    *x = value(first + i) as f32;
                }
                continue;
            }
            sums.fill(-0.0);
            for (j, column) in self.columns.chunks_exact(block).enumerate() {
                let x = f64::from(value(first + j) as f32);
                for (sum, &m) in sums.iter_mut().zip(column) {
                    *sum += m * x;
                }
            }
            for (x, &sum) in out.iter_mut().zip(sums.iter()) {
                *x = sum as f32;
            }
        }
    }
}

/// Box–Muller's `(u1, u2)` for one standard normal: `u1` is redrawn while
/// it is at most `f64::MIN_POSITIVE`, so its logarithm is finite.
fn uniform_pair(rng: &mut SmallRng) -> [f64; 2] {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        return [u1, rng.gen()];
    }
}

/// The standard normal Box–Muller makes of `[u1, u2]`.
fn box_muller([u1, u2]: [f64; 2]) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut SmallRng) -> f64 {
    box_muller(uniform_pair(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_correct() {
        let spec = DatasetSpec::new(32, 4, 0.95, 0.4, 1);
        let (base, queries) = generate(&spec, 100, 10, 7);
        assert_eq!(base.len(), 100);
        assert_eq!(base.dim(), 32);
        assert_eq!(queries.len(), 10);
        assert_eq!(queries.dim(), 32);
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = DatasetProfile::SsnppLike.spec();
        let (a, _) = generate(&spec, 50, 5, 42);
        let (b, _) = generate(&spec, 50, 5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn three_threads_equal_one_bit_for_bit() {
        // Both sets span several chunks and end in a partial one; 130-d
        // leaves a two-axis tail out of the rotation.
        let spec = DatasetSpec::new(130, 9, 0.97, 0.4, 5);
        let at = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("a pool");
            pool.install(|| generate(&spec, 2 * CHUNK_ROWS + 77, CHUNK_ROWS + 3, 9))
        };
        let bits = |(base, queries): (VectorSet, VectorSet)| -> Vec<u32> {
            let all = base.as_flat().iter().chain(queries.as_flat());
            all.map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(at(1)), bits(at(3)));
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetProfile::SsnppLike.spec();
        let (a, _) = generate(&spec, 50, 5, 1);
        let (b, _) = generate(&spec, 50, 5, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn variance_spectrum_is_skewed() {
        // The empirical variance of the leading block should dominate the
        // trailing block — the property Flash's PCA stage exploits.
        let spec = DatasetSpec::new(64, 8, 0.93, 0.4, 3);
        let (base, _) = generate(&spec, 800, 1, 11);
        let d = base.dim();
        let mut var = vec![0.0f64; d];
        let mut mean = vec![0.0f64; d];
        for v in base.iter() {
            for (m, &x) in mean.iter_mut().zip(v.iter()) {
                *m += f64::from(x);
            }
        }
        for m in &mut mean {
            *m /= base.len() as f64;
        }
        for v in base.iter() {
            for i in 0..d {
                let c = f64::from(v[i]) - mean[i];
                var[i] += c * c;
            }
        }
        let total: f64 = var.iter().sum();
        // Not axis-aligned (we rotated), so compare block energies.
        let head: f64 = var[..d / 2].iter().sum();
        assert!(
            head / total > 0.7,
            "expected skewed spectrum, head fraction = {}",
            head / total
        );
    }

    #[test]
    fn profiles_have_paper_dimensions() {
        assert_eq!(DatasetProfile::LaionLike.spec().dim, 768);
        assert_eq!(DatasetProfile::ArgillaLike.spec().dim, 1024);
        assert_eq!(DatasetProfile::SsnppLike.spec().dim, 256);
        assert_eq!(DatasetProfile::ALL.len(), 8);
    }
}
