//! Codec identity: a trained codec is a function of (data, params, seed),
//! and a change that only re-expresses how codebooks are trained — fused
//! distance kernels, batched passes, subspaces trained concurrently — must
//! reproduce every centroid, table byte and code bit for bit.
//!
//! Each Flash case trains `FlashCodec` with `FlashParams::auto` on 2 048
//! seeded vectors of a generator profile (LAION-like 768-d, SSNPP-like
//! 256-d) and pins FNV-1a hashes of
//!
//! * the codebooks (every centroid coordinate's bits, read back through
//!   `reconstruct_projected` on a code row that names centroid `c` in
//!   every subspace),
//! * the quantized SDT, and
//! * the codeword sequence of the codes `encode_batch` gives the training
//!   vectors: one byte per (vector, subspace), whatever the row's storage
//!   layout.
//!
//! The PQ case pins the codebooks of `ProductQuantizer::train` at
//! `k = 256` — sixteen 16-centroid blocks per subspace — read back through
//! `decode`.
//!
//! Everything runs with the SIMD dispatch capped at `SimdLevel::Scalar`, so
//! the constants hold on any host, and every fingerprint must also come out
//! the same at pool widths 1 and 3. The constants were recorded before the
//! training code was touched; a later commit that needs to edit any of them
//! has changed the codecs.

use hnsw_flash::prelude::*;

const N: usize = 2048;
const DATA_SEED: u64 = 0xc0de;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_floats(floats: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for x in floats {
        fnv(&mut h, &x.to_bits().to_le_bytes());
    }
    h
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, bytes);
    h
}

fn corpus(profile: DatasetProfile) -> VectorSet {
    generate(&profile.spec(), N, 1, DATA_SEED).0
}

/// Codeword of subspace `s` in one vector's code row: two per byte,
/// subspace `2p` in byte `p`'s low nibble, `2p + 1` in its high nibble.
fn codeword(row: &[u8], s: usize) -> u8 {
    (row[s / 2] >> (4 * (s % 2))) & 0x0f
}

/// A code row naming centroid `c` in each of `m` subspaces (the last high
/// nibble zero when `m` is odd).
fn uniform_row(c: u8, m: usize) -> Vec<u8> {
    let mut row = vec![c | c << 4; m.div_ceil(2)];
    if m % 2 == 1 {
        row[m / 2] = c;
    }
    row
}

/// `(codebooks, sdt, codes)` of a Flash codec trained on `profile`.
fn flash_fingerprint(profile: DatasetProfile) -> (u64, u64, u64) {
    set_level_override(Some(SimdLevel::Scalar));
    let data = corpus(profile);
    let codec = FlashCodec::train(&data, FlashParams::auto(data.dim()));
    let m = codec.subspaces();
    let centroids: Vec<f32> = (0..16u8)
        .flat_map(|c| codec.reconstruct_projected(&uniform_row(c, m)))
        .collect();
    let codes = codec.encode_batch(&data);
    let sequence: Vec<u8> = codes
        .chunks_exact(codes.len() / data.len())
        .flat_map(|row| (0..m).map(|s| codeword(row, s)))
        .collect();
    (
        fnv_floats(&centroids),
        fnv_bytes(codec.sdt()),
        fnv_bytes(&sequence),
    )
}

/// Codebooks of an 8-bit, 16-subspace product quantizer on SSNPP-like data.
fn pq_fingerprint() -> u64 {
    set_level_override(Some(SimdLevel::Scalar));
    let data = corpus(DatasetProfile::SsnppLike);
    let (m, bits) = (16, 8);
    let pq = ProductQuantizer::train(&data, m, bits, 4, 0x9e37);
    let centroids: Vec<f32> = (0..=255u8).flat_map(|c| pq.decode(&[c; 16])).collect();
    assert_eq!(pq.subspaces(), m);
    fnv_floats(&centroids)
}

/// Runs `f` at pool widths 1 and 3 and checks it returns `expect` at both.
fn at_any_width<T: PartialEq + std::fmt::Debug>(expect: T, f: impl Fn() -> T) {
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a pool");
        let got = pool.install(&f);
        assert_eq!(got, expect, "at {threads} threads: got {got:#x?}");
    }
}

#[test]
fn flash_laion_768d() {
    at_any_width(
        (
            0x49d2_6924_1d88_764e,
            0xc1ef_8a95_8bbf_e19b,
            0x25c2_1d72_059f_152d,
        ),
        || flash_fingerprint(DatasetProfile::LaionLike),
    );
}

#[test]
fn flash_ssnpp_256d() {
    at_any_width(
        (
            0x421b_6a97_beab_fa9e,
            0x3902_3b9f_1ed7_08bf,
            0x7ec2_6138_e359_db79,
        ),
        || flash_fingerprint(DatasetProfile::SsnppLike),
    );
}

#[test]
fn pq_ssnpp_256d_k256() {
    at_any_width(0xa684_6e42_2f05_3020, pq_fingerprint);
}
