//! Build identity: an HNSW graph is a function of (data, params, seed), and
//! a change that only re-expresses the builder's arithmetic — heap keys,
//! batched Neighbor Selection, pooled scratch, payload maintenance, thread
//! count — must reproduce every edge and every hit bit for bit.
//!
//! Each case builds `hnsw:flash` or `hnsw:full` (`C = 128`, `R = 16`) over
//! 2 000 seeded vectors of a generator profile — the two the benchmark
//! workloads draw from, LAION-like 768-d and SSNPP-like 256-d; the other
//! six differ only in cluster count and spectral decay, and a 768-d case
//! already costs ≈ 40 s in an unoptimized scalar test build — along one of
//! two routes, and pins
//!
//! * an FNV-1a hash of `(entry, max_layer, every row of every layer)`, and
//! * an FNV-1a hash of the first 50 queries' `(id, dist.to_bits())` through
//!   `graphs::search_layers` (`k = 10`, `ef = 128`).
//!
//! The routes: **one at a time** — `Hnsw::new`, then one `insert` per
//! vertex in build order (highest-level vertex first, then ids ascending),
//! which is sequential HNSW and must give the graph the builder gave before
//! it inserted in batches (the four unsuffixed cases); and **batched** —
//! `Hnsw::build` (the `_batched` cases), which must also give the same
//! graph at every pool width (the `_any_width` cases, on the 256-d data).
//!
//! Everything runs with the SIMD dispatch capped at `SimdLevel::Scalar`:
//! the float kernels that feed the codec contract differently per tier
//! (ROADMAP N1), so only the scalar tier gives constants that hold on any
//! host. The one-at-a-time constants were recorded on the commit that
//! introduced this file, before the builder was touched, the batched ones
//! on the commit that introduced batches; a later commit that needs to
//! edit any of them has changed the graph.
//!
//! The flat kinds — NSG, τ-MG, Vamana and HCNNG — are pinned the same way
//! (the `flat_` cases), each with Flash and with full-precision coding,
//! over a smaller SSNPP-like corpus of `FLAT_N` vectors and with the same
//! two hashes. HCNNG's constants were recorded on the builders that
//! preceded the shared Neighbor Selection routine; NSG's, τ-MG's and
//! Vamana's on the commit that moved them onto HNSW's batch builder.

use hnsw_flash::graphs::{search_layers, GraphLayers};
use hnsw_flash::prelude::*;
use std::sync::{Arc, OnceLock};

const C: usize = 128;
const R: usize = 16;
const GRAPH_SEED: u64 = 0x5eed;
const DATA_SEED: u64 = 2025;
const N: usize = 2000;
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

fn hits_hash<P: DistanceProvider>(
    provider: &P,
    layers: &GraphLayers,
    queries: &VectorSet,
    ef: usize,
) -> u64 {
    let mut h = FNV_OFFSET;
    for q in queries.iter() {
        let hits = search_layers(provider, layers, q, K, ef);
        fnv(&mut h, hits.len() as u64);
        for hit in hits {
            fnv(&mut h, hit.id);
            fnv(&mut h, u64::from(hit.dist.to_bits()));
        }
    }
    h
}

/// How a case grows its graph.
#[derive(Clone, Copy, Debug)]
enum Route {
    /// `Hnsw::new`, then one `insert` per vertex in build order.
    OneAtATime,
    /// `Hnsw::build`.
    Batched,
}

/// Grows a graph over `provider` along `route` and returns
/// `(topology, hits)`.
fn grow<P: DistanceProvider>(provider: P, route: Route, queries: &VectorSet) -> (u64, u64) {
    let params = HnswParams {
        c: C,
        r: R,
        seed: GRAPH_SEED,
    };
    let frozen = match route {
        Route::Batched => Hnsw::build(provider, params).into_frozen(),
        Route::OneAtATime => {
            let mut hnsw = Hnsw::new(provider, params);
            let n = hnsw.len() as u32;
            // `max_by_key` keeps the last of equal maxima, as the builder.
            let top = (0..n).max_by_key(|&i| hnsw.level_of(i)).expect("a corpus");
            hnsw.insert(top);
            for id in (0..n).filter(|&i| i != top) {
                hnsw.insert(id);
            }
            hnsw.into_frozen()
        }
    };
    (
        topology_hash(frozen.layers()),
        hits_hash(frozen.provider(), frozen.layers(), queries, EF),
    )
}

/// Builds over `N` vectors of `profile` and returns `(topology, hits)`.
fn fingerprint(profile: DatasetProfile, coding: Coding, route: Route) -> (u64, u64) {
    set_level_override(Some(SimdLevel::Scalar));
    let (base, queries) = generate(&profile.spec(), N, QUERIES, DATA_SEED);
    match coding {
        Coding::Flash => {
            let fp = FlashParams::auto(base.dim());
            grow(FlashProvider::new(base, fp), route, &queries)
        }
        Coding::Full => grow(FullPrecision::new(base), route, &queries),
        other => panic!("no identity case for {other:?}"),
    }
}

fn check(profile: DatasetProfile, coding: Coding, route: Route, expect: (u64, u64)) {
    let got = fingerprint(profile, coding, route);
    assert_eq!(
        got,
        expect,
        "{} n={N} {coding:?} {route:?}: got (0x{:016x}, 0x{:016x})",
        profile.name(),
        got.0,
        got.1
    );
}

/// The batched build at pool widths 1 and 3 equals the default pool's.
fn check_any_width(profile: DatasetProfile, coding: Coding, expect: (u64, u64)) {
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a pool");
        let got = pool.install(|| fingerprint(profile, coding, Route::Batched));
        assert_eq!(got, expect, "{coding:?} at {threads} threads");
    }
}

/// `(topology, hits)` of `Hnsw::build` per case.
const FLASH_SSNPP_256D_BATCHED: (u64, u64) = (0xf1cf_7aec_26ba_eab1, 0x7971_e3db_dbfb_b04c);
const FULL_SSNPP_256D_BATCHED: (u64, u64) = (0xff89_b2db_e15f_2110, 0x4468_9dfa_f692_6ba5);
const FLASH_LAION_768D_BATCHED: (u64, u64) = (0x78ea_283b_3f5e_4ac6, 0x869b_0868_c790_5294);
const FULL_LAION_768D_BATCHED: (u64, u64) = (0x3565_549e_105c_883b, 0x322a_838c_f45c_4047);

#[test]
fn flash_ssnpp_256d() {
    check(
        DatasetProfile::SsnppLike,
        Coding::Flash,
        Route::OneAtATime,
        (0x59f8_1f70_d029_0c24, 0x7971_e3db_dbfb_b04c),
    );
}

#[test]
fn full_ssnpp_256d() {
    check(
        DatasetProfile::SsnppLike,
        Coding::Full,
        Route::OneAtATime,
        (0xe38c_4389_2146_10c2, 0x4468_9dfa_f692_6ba5),
    );
}

#[test]
fn flash_laion_768d() {
    check(
        DatasetProfile::LaionLike,
        Coding::Flash,
        Route::OneAtATime,
        (0xbbd1_e199_ceb5_878c, 0x869b_0868_c790_5294),
    );
}

#[test]
fn full_laion_768d() {
    check(
        DatasetProfile::LaionLike,
        Coding::Full,
        Route::OneAtATime,
        (0x26c0_0697_57b1_b173, 0x322a_838c_f45c_4047),
    );
}

#[test]
fn flash_ssnpp_256d_batched() {
    check(
        DatasetProfile::SsnppLike,
        Coding::Flash,
        Route::Batched,
        FLASH_SSNPP_256D_BATCHED,
    );
}

#[test]
fn full_ssnpp_256d_batched() {
    check(
        DatasetProfile::SsnppLike,
        Coding::Full,
        Route::Batched,
        FULL_SSNPP_256D_BATCHED,
    );
}

#[test]
fn flash_laion_768d_batched() {
    check(
        DatasetProfile::LaionLike,
        Coding::Flash,
        Route::Batched,
        FLASH_LAION_768D_BATCHED,
    );
}

#[test]
fn full_laion_768d_batched() {
    check(
        DatasetProfile::LaionLike,
        Coding::Full,
        Route::Batched,
        FULL_LAION_768D_BATCHED,
    );
}

#[test]
fn flash_ssnpp_256d_any_width() {
    check_any_width(
        DatasetProfile::SsnppLike,
        Coding::Flash,
        FLASH_SSNPP_256D_BATCHED,
    );
}

#[test]
fn full_ssnpp_256d_any_width() {
    check_any_width(
        DatasetProfile::SsnppLike,
        Coding::Full,
        FULL_SSNPP_256D_BATCHED,
    );
}

/// Corpus size of the flat-kind cases (SSNPP-like 256-d).
const FLAT_N: usize = 500;
/// Candidate pool `C` of the flat-kind cases.
const FLAT_C: usize = 64;
/// Search beam of the flat-kind hits hash: narrow, so that the hits
/// depend on the graph and not only on the corpus.
const FLAT_EF: usize = 12;

/// Builds `kind` over `provider` with the flat-kind parameters and returns
/// `(topology, hits)`.
fn flat_grow<P: DistanceProvider>(kind: GraphKind, provider: P, queries: &VectorSet) -> (u64, u64) {
    let flat = NsgParams { r: R, c: FLAT_C };
    let frozen = match kind {
        GraphKind::Nsg => nsg::build(provider, flat),
        GraphKind::TauMg => taumg::build(provider, TauMgParams { flat, tau: 2.0 }),
        GraphKind::Vamana => vamana::build(
            provider,
            VamanaParams {
                r: R,
                c: FLAT_C,
                alpha: 1.2,
            },
        ),
        GraphKind::Hcnng => hcnng::build(
            provider,
            HcnngParams {
                trees: 4,
                leaf_size: 48,
                mst_degree: 3,
                seed: GRAPH_SEED,
            },
        ),
        other => panic!("no flat identity case for {other:?}"),
    };
    (
        topology_hash(frozen.layers()),
        hits_hash(frozen.provider(), frozen.layers(), queries, FLAT_EF),
    )
}

/// The flat-kind corpus `(base, queries)` and its Flash codec, made once
/// for all eight cases.
fn flat_corpus() -> &'static (VectorSet, VectorSet, Arc<FlashCodec>) {
    static CORPUS: OnceLock<(VectorSet, VectorSet, Arc<FlashCodec>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        set_level_override(Some(SimdLevel::Scalar));
        let spec = DatasetProfile::SsnppLike.spec();
        let (base, queries) = generate(&spec, FLAT_N, QUERIES, DATA_SEED);
        let codec = FlashCodec::train(&base, FlashParams::auto(base.dim()));
        (base, queries, Arc::new(codec))
    })
}

fn check_flat(kind: GraphKind, coding: Coding, expect: (u64, u64)) {
    set_level_override(Some(SimdLevel::Scalar));
    let (base, queries, codec) = flat_corpus();
    let got = match coding {
        Coding::Flash => {
            let provider = FlashProvider::from_codec(base.clone(), Arc::clone(codec));
            flat_grow(kind, provider, queries)
        }
        Coding::Full => flat_grow(kind, FullPrecision::new(base.clone()), queries),
        other => panic!("no identity case for {other:?}"),
    };
    assert_eq!(
        got, expect,
        "{kind:?} n={FLAT_N} {coding:?}: got (0x{:016x}, 0x{:016x})",
        got.0, got.1
    );
}

#[test]
fn flat_nsg_flash() {
    check_flat(
        GraphKind::Nsg,
        Coding::Flash,
        (0x28fa_c177_3897_02ad, 0x9c82_c17d_3630_9ba0),
    );
}

#[test]
fn flat_nsg_full() {
    check_flat(
        GraphKind::Nsg,
        Coding::Full,
        (0x31ea_d10c_e66f_9c2a, 0x56f6_9298_1881_7df3),
    );
}

#[test]
fn flat_taumg_flash() {
    check_flat(
        GraphKind::TauMg,
        Coding::Flash,
        (0x7cad_f4ae_6c94_0ff5, 0x490b_b8b4_dcad_636c),
    );
}

#[test]
fn flat_taumg_full() {
    check_flat(
        GraphKind::TauMg,
        Coding::Full,
        (0xbe1f_9897_f95e_33cf, 0x418e_ba0d_eb94_0368),
    );
}

#[test]
fn flat_vamana_flash() {
    check_flat(
        GraphKind::Vamana,
        Coding::Flash,
        (0x6e51_bc8d_5521_5615, 0xe9a7_24eb_dfa5_37c8),
    );
}

#[test]
fn flat_vamana_full() {
    check_flat(
        GraphKind::Vamana,
        Coding::Full,
        (0x98e6_2281_b7a1_675d, 0x7c1b_2eda_8a5d_727f),
    );
}

#[test]
fn flat_hcnng_flash() {
    check_flat(
        GraphKind::Hcnng,
        Coding::Flash,
        (0x811b_b1bb_452c_09e2, 0x999f_df64_ebb2_3d8a),
    );
}

#[test]
fn flat_hcnng_full() {
    check_flat(
        GraphKind::Hcnng,
        Coding::Full,
        (0x4a4d_ad19_05b4_821f, 0x399c_e971_e0bd_ea1e),
    );
}
