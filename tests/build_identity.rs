//! Build identity: an HNSW graph is a function of (data, params, seed), and
//! a change that only re-expresses the builder's arithmetic — heap keys,
//! batched Neighbor Selection, pooled scratch, payload maintenance — must
//! reproduce every edge and every hit bit for bit.
//!
//! Each case builds `hnsw:flash` or `hnsw:full` (`C = 128`, `R = 16`) over
//! 2 000 seeded vectors of a generator profile — the two the benchmark
//! workloads draw from, LAION-like 768-d and SSNPP-like 256-d; the other
//! six differ only in cluster count and spectral decay, and a 768-d case
//! already costs ≈ 40 s in an unoptimized scalar test build — and pins
//!
//! * an FNV-1a hash of `(entry, max_layer, every row of every layer)`, and
//! * an FNV-1a hash of the first 50 queries' `(id, dist.to_bits())` through
//!   `graphs::search_layers` (`k = 10`, `ef = 128`).
//!
//! Everything runs with the SIMD dispatch capped at `SimdLevel::Scalar`:
//! the float kernels that feed the codec contract differently per tier
//! (ROADMAP N1), so only the scalar tier gives constants that hold on any
//! host. The constants were recorded on the commit that introduced this
//! file, before the builder was touched; a later commit that needs to edit
//! them has changed the graph.

use hnsw_flash::graphs::{search_layers, GraphLayers};
use hnsw_flash::prelude::*;

const C: usize = 128;
const R: usize = 16;
const GRAPH_SEED: u64 = 0x5eed;
const DATA_SEED: u64 = 2025;
const QUERIES: usize = 50;
const K: usize = 10;
const EF: usize = 128;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn topology_hash(layers: &GraphLayers) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, u64::from(layers.entry));
    fnv(&mut h, layers.max_layer as u64);
    for l in 0..layers.num_layers() {
        for row in layers.layer(l).rows() {
            fnv(&mut h, row.len() as u64);
            for &nb in row {
                fnv(&mut h, u64::from(nb));
            }
        }
    }
    h
}

fn hits_hash<P: DistanceProvider>(provider: &P, layers: &GraphLayers, queries: &VectorSet) -> u64 {
    let mut h = FNV_OFFSET;
    for q in queries.iter() {
        let hits = search_layers(provider, layers, q, K, EF);
        fnv(&mut h, hits.len() as u64);
        for hit in hits {
            fnv(&mut h, hit.id);
            fnv(&mut h, u64::from(hit.dist.to_bits()));
        }
    }
    h
}

/// Builds over `n` vectors of `profile` and returns `(topology, hits)`.
fn fingerprint(profile: DatasetProfile, n: usize, coding: Coding) -> (u64, u64) {
    set_level_override(Some(SimdLevel::Scalar));
    let (base, queries) = generate(&profile.spec(), n, QUERIES, DATA_SEED);
    let params = HnswParams {
        c: C,
        r: R,
        seed: GRAPH_SEED,
    };
    match coding {
        Coding::Flash => {
            let fp = FlashParams::auto(base.dim());
            let frozen = Hnsw::build(FlashProvider::new(base, fp), params).into_frozen();
            (
                topology_hash(frozen.layers()),
                hits_hash(frozen.provider(), frozen.layers(), &queries),
            )
        }
        Coding::Full => {
            let frozen = Hnsw::build(FullPrecision::new(base), params).into_frozen();
            (
                topology_hash(frozen.layers()),
                hits_hash(frozen.provider(), frozen.layers(), &queries),
            )
        }
        other => panic!("no identity case for {other:?}"),
    }
}

fn check(profile: DatasetProfile, n: usize, coding: Coding, topology: u64, hits: u64) {
    let got = fingerprint(profile, n, coding);
    assert_eq!(
        got,
        (topology, hits),
        "{} n={n} {coding:?}: got (0x{:016x}, 0x{:016x})",
        profile.name(),
        got.0,
        got.1
    );
}

#[test]
fn flash_ssnpp_256d() {
    check(
        DatasetProfile::SsnppLike,
        2000,
        Coding::Flash,
        0x59f8_1f70_d029_0c24,
        0x7971_e3db_dbfb_b04c,
    );
}

#[test]
fn full_ssnpp_256d() {
    check(
        DatasetProfile::SsnppLike,
        2000,
        Coding::Full,
        0xe38c_4389_2146_10c2,
        0x4468_9dfa_f692_6ba5,
    );
}

#[test]
fn flash_laion_768d() {
    check(
        DatasetProfile::LaionLike,
        2000,
        Coding::Flash,
        0xbbd1_e199_ceb5_878c,
        0x869b_0868_c790_5294,
    );
}

#[test]
fn full_laion_768d() {
    check(
        DatasetProfile::LaionLike,
        2000,
        Coding::Full,
        0x26c0_0697_57b1_b173,
        0x322a_838c_f45c_4047,
    );
}
