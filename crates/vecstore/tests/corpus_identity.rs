//! Pins the generated corpora and their exact ground truth bit for bit.
//!
//! Every benchmark, baseline and recall gate in the workspace starts from
//! `generate` and `ground_truth`, so a change to either that moves a single
//! bit moves every number measured downstream. The constants below are
//! FNV-1a hashes of the outputs; they may only change together with every
//! committed baseline.

use simdops::level::with_level;
use simdops::supported_levels;
use vecstore::{generate, ground_truth, DatasetProfile, DatasetSpec, VectorSet};

/// Rows and queries of every pinned corpus.
const N: usize = 300;
const NQ: usize = 20;
const SEED: u64 = 7;

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corpus_hash(base: &VectorSet, queries: &VectorSet) -> u64 {
    let bits = base.as_flat().iter().chain(queries.as_flat());
    fnv1a(bits.flat_map(|x| x.to_bits().to_le_bytes()))
}

/// An awkward shape: `dim` 1–3 rotates blocks of one axis, 33 and 257 leave
/// a one-axis tail unrotated, 130 a two-axis tail.
fn awkward(dim: usize) -> DatasetSpec {
    DatasetSpec::new(dim, 7, 0.95, 0.4, 900 + dim as u64)
}

#[test]
fn every_profile_generates_the_pinned_corpus() {
    const PINNED: [(DatasetProfile, u64); 8] = [
        (DatasetProfile::SsnppLike, 0xd742268e0672f3a7),
        (DatasetProfile::LaionLike, 0x007df0585a266bfa),
        (DatasetProfile::CohereLike, 0x3bed8cf4778932d9),
        (DatasetProfile::BigcodeLike, 0xe75bd363c967eca8),
        (DatasetProfile::ImagenetLike, 0x9e490a352bfca749),
        (DatasetProfile::DatacompLike, 0x9337d6fa217cc312),
        (DatasetProfile::AntonLike, 0x0de812295d093e5a),
        (DatasetProfile::ArgillaLike, 0x928d6ae55c1629e8),
    ];
    let got: Vec<(DatasetProfile, u64)> = PINNED
        .iter()
        .map(|&(profile, _)| {
            let (base, queries) = generate(&profile.spec(), N, NQ, SEED);
            (profile, corpus_hash(&base, &queries))
        })
        .collect();
    assert_eq!(got, PINNED);
}

#[test]
fn awkward_shapes_generate_the_pinned_corpus() {
    const PINNED: [(usize, u64); 6] = [
        (1, 0xbdf6dd7faec4b593),
        (2, 0x53dd2ac72f49d977),
        (3, 0xa101ca6fb60f6903),
        (33, 0x39f81f035ff43a59),
        (130, 0x731dc18d510465ee),
        (257, 0xd338ff193b97c172),
    ];
    let got: Vec<(usize, u64)> = PINNED
        .iter()
        .map(|&(dim, _)| {
            let (base, queries) = generate(&awkward(dim), N, NQ, SEED);
            (dim, corpus_hash(&base, &queries))
        })
        .collect();
    assert_eq!(got, PINNED);
}

/// Ids and distance bits of `ground_truth` at every level this CPU runs,
/// for `k` = 1, 10 and more than the corpus holds. Hashes are per level,
/// indexed by `SimdLevel as usize`: each tier sums in its own order.
#[test]
fn ground_truth_is_pinned_at_every_level() {
    #[rustfmt::skip]
    const PINNED: [(usize, usize, [u64; 4]); 9] = [
        (3, 1, [0xfbb6ca6450159b67, 0xfbb6ca6450159b67, 0xfbb6ca6450159b67, 0xfbb6ca6450159b67]),
        (3, 10, [0x4758125611225c2f, 0x4758125611225c2f, 0x4758125611225c2f, 0x4758125611225c2f]),
        (3, N + 1, [0x91947b2d3e03d724, 0x91947b2d3e03d724, 0x91947b2d3e03d724, 0x91947b2d3e03d724]),
        (130, 1, [0xd49fc7caec5283be, 0xceface8e7c8d5f57, 0x4cbf79c7bdc17840, 0xedf001640617a62d]),
        (130, 10, [0x6ee56cb82c5c8ba5, 0xb20a908c220925f2, 0x1ebc939bc4382cf1, 0x74c9f6a7af5ba396]),
        (130, N + 1, [0xe105228269e62eaf, 0x2d8450b663d237da, 0x506b7b924d40dae8, 0xc6ab695e1f6b5221]),
        (257, 1, [0x57b2ec12721f9436, 0x79f92d9d942077b5, 0xfeab9abf17f976cb, 0x404ac155b421f3bf]),
        (257, 10, [0xb344fa79e6e6037d, 0xeafd15d2bd358e32, 0x14bc26871fbe7462, 0x9e801c515c630bab]),
        (257, N + 1, [0x116afa1e12f22be6, 0xb36224a7090c50da, 0x440ecacd2ea72a49, 0xed09522ccd5c4baa]),
    ];
    for (dim, k, want) in PINNED {
        let (base, queries) = generate(&awkward(dim), N, NQ, SEED);
        for level in supported_levels() {
            let truth = with_level(level, || ground_truth(&base, &queries, k));
            assert!(truth.iter().all(|row| row.len() == k.min(N)));
            let got = fnv1a(
                truth
                    .iter()
                    .flatten()
                    .flat_map(|nb| [nb.id.to_le_bytes(), nb.dist_sq.to_bits().to_le_bytes()])
                    .flatten(),
            );
            assert_eq!(
                got, want[level as usize],
                "dim {dim}, k {k}, {level:?}: {got:#018x}"
            );
        }
    }
}
