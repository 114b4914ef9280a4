//! Beam cost identity: the serving beam's structural cost counters are a
//! function of (data, params, seed), like the graph and the hits
//! `tests/build_identity.rs` pins, so a change that only re-expresses the
//! search loops must reproduce every counter exactly.
//!
//! Each case builds `hnsw:flash` or `hnsw:full` with `Hnsw::build`
//! (`C = 128`, `R = 16`) over `build_identity.rs`'s SSNPP-like 256-d corpus
//! of 2 000 vectors, runs its 50 queries through `graphs::search_layers`
//! (`k = 10`, `ef = 128`) and pins the summed [`QueryProfile`] — all nine
//! counters. The SIMD dispatch is capped at `SimdLevel::Scalar`, as in
//! `build_identity.rs`, so the constants hold on any host. They were
//! recorded before HNSW's insert and live search moved onto the serving
//! beam.
//!
//! The build's own counts ([`BuildProfile`]: the descents and CA beams of
//! every insert, and Neighbor Selection's `dominated` lanes, payload
//! appends and re-prunes) are pinned the same way, for the same two
//! builds.

use hnsw_flash::graphs::stats::BuildProfile;
use hnsw_flash::graphs::{profile_reset, profile_take, search_layers, QueryProfile};
use hnsw_flash::prelude::*;

const N: usize = 2000;
const QUERIES: usize = 50;
const DATA_SEED: u64 = 2025;
const K: usize = 10;
const EF: usize = 128;

/// The summed profile of the query stream over `provider`'s graph.
fn summed_profile<P: DistanceProvider>(provider: P, queries: &VectorSet) -> QueryProfile {
    let params = HnswParams {
        c: 128,
        r: 16,
        seed: 0x5eed,
    };
    let frozen = Hnsw::build(provider, params).into_frozen();
    profile_reset();
    for q in queries.iter() {
        search_layers(frozen.provider(), frozen.layers(), q, K, EF);
    }
    profile_take()
}

fn check(coding: Coding, expect: QueryProfile) {
    set_level_override(Some(SimdLevel::Scalar));
    let (base, queries) = generate(&DatasetProfile::SsnppLike.spec(), N, QUERIES, DATA_SEED);
    let got = match coding {
        Coding::Flash => {
            let fp = FlashParams::auto(base.dim());
            summed_profile(FlashProvider::new(base, fp), &queries)
        }
        Coding::Full => summed_profile(FullPrecision::new(base), &queries),
        other => panic!("no profile case for {other:?}"),
    };
    assert_eq!(got, expect, "{coding:?}");
}

#[test]
fn flash_ssnpp_256d_profile() {
    check(
        Coding::Flash,
        QueryProfile {
            hops_upper: 225,
            hops_base: 6579,
            dist_coded: 47_564,
            dist_exact: 0,
            rows_scored: 6434,
            codeword_bytes: 424_280,
            visited_inserts: 45_885,
            rerank_pool: 0,
            scratch_checkouts: 50,
        },
    );
}

#[test]
fn full_ssnpp_256d_profile() {
    check(
        Coding::Full,
        QueryProfile {
            hops_upper: 257,
            hops_base: 6402,
            dist_coded: 0,
            dist_exact: 44_728,
            rows_scored: 6280,
            codeword_bytes: 0,
            visited_inserts: 42_752,
            rerank_pool: 0,
            scratch_checkouts: 50,
        },
    );
}

/// The summed counts of `check`'s build of `coding`.
fn build_counts(coding: Coding) -> BuildProfile {
    set_level_override(Some(SimdLevel::Scalar));
    let (base, _) = generate(&DatasetProfile::SsnppLike.spec(), N, QUERIES, DATA_SEED);
    let params = HnswParams {
        c: 128,
        r: 16,
        seed: 0x5eed,
    };
    match coding {
        Coding::Flash => {
            let fp = FlashParams::auto(base.dim());
            *Hnsw::build(FlashProvider::new(base, fp), params).build_profile()
        }
        Coding::Full => *Hnsw::build(FullPrecision::new(base), params).build_profile(),
        other => panic!("no build case for {other:?}"),
    }
}

#[test]
fn flash_and_full_ssnpp_256d_build_counts() {
    let flash = BuildProfile {
        search: QueryProfile {
            hops_upper: 6498,
            hops_base: 260_352,
            dist_coded: 4_716_606,
            dist_exact: 0,
            rows_scored: 266_847,
            codeword_bytes: 104_283_392,
            visited_inserts: 478_741,
            rerank_pool: 0,
            scratch_checkouts: 1999,
        },
        dominated: 281_719,
        dominated_lanes: 3_078_886,
        appended: 70_380,
        reprunes: 1030,
        reprune_rows: 32_272,
    };
    let full = BuildProfile {
        search: QueryProfile {
            hops_upper: 7050,
            hops_base: 255_433,
            dist_coded: 0,
            dist_exact: 1_233_940,
            rows_scored: 212_670,
            codeword_bytes: 0,
            visited_inserts: 1_184_071,
            rerank_pool: 0,
            scratch_checkouts: 1999,
        },
        dominated: 260_618,
        dominated_lanes: 1_491_088,
        appended: 31_873,
        reprunes: 173,
        reprune_rows: 5152,
    };
    assert_eq!(build_counts(Coding::Flash), flash, "Flash");
    assert_eq!(build_counts(Coding::Full), full, "Full");
}
