//! Freeze-then-serve parity: the one frozen-topology beam
//! (`graphs::search_layers_filtered`) answers for every graph index, so it
//! is pinned — ids *and* `f32` distance bits — to three references: the
//! live `Hnsw::search`, which runs the same `layers_search::beam_search`
//! over the builder's node records and their resident payload blocks
//! instead of the frozen CSR; a provider-distance brute force, which a beam
//! of exhaustive width must reproduce; and a naive per-neighbour beam
//! ([`naive_search_layers`]) that it must equal at the serving `ef`.
//!
//! The commit that introduced this file also compared against the paths
//! the beam replaced (the flat-graph beam copy and the live index's
//! filtered and reranked searches) and passed both before and after the
//! engine switched over; those halves went with the paths.

use hnsw_flash::engine::GraphIndex;
use hnsw_flash::graphs::{
    rerank_exact, search_layers, search_layers_filtered, FrozenGraph, GraphLayers, OrdF32,
};
use hnsw_flash::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const K: usize = 5;
const EF: usize = 48;
const C: usize = 32;
const R: usize = 8;
const SEED: u64 = 7;
const TRAIN: usize = 150;
const RERANK: usize = 6;

fn workload(n: usize, n_queries: usize) -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(32, 20, 0.95, 0.4, 5), n, n_queries, 1234)
}

fn flash_fp() -> FlashParams {
    FlashParams {
        d_f: 16,
        m_f: 4,
        train_sample: TRAIN,
        kmeans_iters: 5,
        seed: SEED,
        grid_quantile: 0.5,
    }
}

/// Runs `$body` once per coding with `$provider` bound to a fresh provider
/// of that coding's concrete type over a clone of `$base`.
macro_rules! for_each_coding {
    ($base:expr, |$coding:ident, $provider:ident| $body:expr) => {{
        {
            let $coding = Coding::Full;
            let $provider = || FullPrecision::new($base.clone());
            $body
        }
        {
            let $coding = Coding::Sq;
            let $provider = || SqProvider::new($base.clone(), 8);
            $body
        }
        {
            let $coding = Coding::Pca;
            let $provider = || PcaProvider::with_variance($base.clone(), 0.9, TRAIN);
            $body
        }
        {
            let $coding = Coding::Pq;
            let $provider = || PqProvider::new($base.clone(), 4, 8, TRAIN, SEED);
            $body
        }
        {
            let $coding = Coding::Opq;
            let $provider = || OpqProvider::new($base.clone(), 4, 8, 4, TRAIN, SEED);
            $body
        }
        {
            let $coding = Coding::Flash;
            let $provider = || FlashProvider::new($base.clone(), flash_fp());
            $body
        }
    }};
}

fn accept_thirds(id: u32) -> bool {
    id.is_multiple_of(3)
}

fn accept_all(_: u32) -> bool {
    true
}

fn assert_same(expected: &[Hit], got: &[Hit], what: &str) {
    let bits = |hits: &[Hit]| -> Vec<(u64, u32)> {
        hits.iter().map(|h| (h.id, h.dist.to_bits())).collect()
    };
    assert_eq!(bits(expected), bits(got), "{what}");
}

/// Exact top-`k` by the provider's own query distance over accepted ids.
fn brute<P: DistanceProvider>(
    provider: &P,
    query: &[f32],
    k: usize,
    accept: fn(u32) -> bool,
) -> Vec<Hit> {
    let ctx = provider.prepare_query(query);
    let mut all: Vec<Hit> = (0..provider.len() as u32)
        .filter(|&id| accept(id))
        .map(|id| Hit {
            id: u64::from(id),
            dist: provider.dist_to(&ctx, id),
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// The beam search as a textbook would write it: greedy descent through
/// the upper layers, then an `ef`-wide base beam over a fresh
/// `vec![false; n]` visited map and fresh `BinaryHeap`s, with one `dist_to`
/// call per neighbour — none of the serving kernel's pooled scratch,
/// packed-key beam or batched `dist_to_neighbors` scoring. Distances have
/// no side effects and both loops re-read the current worst before every
/// admission, so the two must agree bit for bit.
fn naive_search_layers<P: DistanceProvider>(
    provider: &P,
    graph: &GraphLayers,
    query: &[f32],
    k: usize,
    ef: usize,
) -> Vec<Hit> {
    if graph.is_empty() {
        return Vec::new();
    }
    let ef = ef.max(k).max(1);
    let ctx = provider.prepare_query(query);

    let mut cur = graph.entry;
    let mut cur_d = provider.dist_to(&ctx, cur);
    for layer in (1..=graph.max_layer).rev() {
        loop {
            let mut improved = false;
            for &nb in graph.neighbors(layer, cur) {
                let d = provider.dist_to(&ctx, nb);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    let mut visited = vec![false; graph.len()];
    visited[cur as usize] = true;
    let mut results: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new();
    let mut frontier: BinaryHeap<(Reverse<OrdF32>, u32)> = BinaryHeap::new();
    results.push((OrdF32(cur_d), cur));
    frontier.push((Reverse(OrdF32(cur_d)), cur));
    let worst_of = |results: &BinaryHeap<(OrdF32, u32)>| {
        results.peek().map_or(f32::INFINITY, |&(OrdF32(w), _)| w)
    };
    while let Some((Reverse(OrdF32(d)), u)) = frontier.pop() {
        if d > worst_of(&results) && results.len() >= ef {
            break;
        }
        for &nb in graph.neighbors(0, u) {
            if std::mem::replace(&mut visited[nb as usize], true) {
                continue;
            }
            let nd = provider.dist_to(&ctx, nb);
            if results.len() < ef || nd <= worst_of(&results) {
                results.push((OrdF32(nd), nb));
                if results.len() > ef {
                    results.pop();
                }
                frontier.push((Reverse(OrdF32(nd)), nb));
            }
        }
    }
    let mut out: Vec<Hit> = results
        .into_iter()
        .map(|(OrdF32(dist), id)| Hit {
            id: u64::from(id),
            dist,
        })
        .collect();
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    out.truncate(k);
    out
}

fn check_flat<P: DistanceProvider>(what: &str, index: FrozenGraph<P>, queries: &VectorSet) {
    let (provider, layers) = (index.provider(), index.layers());
    assert_eq!(
        layers.max_layer, 0,
        "{what}: flat graphs freeze to one layer"
    );
    // A beam as wide as the graph visits every reachable vertex.
    let ef = provider.len();
    for (mode, accept) in [
        ("plain", accept_all as fn(u32) -> bool),
        ("filtered", accept_thirds),
    ] {
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            assert_same(
                &brute(provider, q, K, accept),
                &search_layers_filtered(provider, layers, q, K, ef, &accept),
                &format!("{what} {mode} query {qi}"),
            );
        }
    }
}

/// NSG / τ-MG / Vamana / HCNNG × six codings × plain and filtered: a flat
/// graph served as a one-layer topology finds the exact provider-distance
/// top-k once the beam is as wide as the graph.
#[test]
fn one_layer_topologies_match_brute_force_at_exhaustive_ef() {
    let (base, queries) = workload(260, 3);
    let flat = NsgParams { r: R, c: C };
    for_each_coding!(base, |coding, provider| {
        let nsg_graph = nsg::build(provider(), flat);
        check_flat(&format!("nsg:{coding}"), nsg_graph, &queries);
        let taumg_graph = taumg::build(provider(), TauMgParams { flat, tau: 0.1 });
        check_flat(&format!("taumg:{coding}"), taumg_graph, &queries);
        let vamana_graph = vamana::build(
            provider(),
            VamanaParams {
                r: R,
                c: C,
                alpha: 1.2,
            },
        );
        check_flat(&format!("vamana:{coding}"), vamana_graph, &queries);
        let hcnng_graph = hcnng::build(
            provider(),
            HcnngParams {
                trees: 10,
                leaf_size: 48,
                mst_degree: 3,
                seed: SEED,
            },
        );
        check_flat(&format!("hcnng:{coding}"), hcnng_graph, &queries);
    });
}

/// `GraphIndex::new(hnsw)` answers like the live index it was made from,
/// for every coding: plain requests equal `Hnsw::search`, reranked ones
/// equal an exact rerank of its pool, filtered ones the filtered brute
/// force at exhaustive `ef`.
#[test]
fn graph_index_answers_like_the_live_hnsw() {
    let (base, queries) = workload(260, 4);
    let n = base.len();
    let params = HnswParams {
        c: C,
        r: R,
        seed: SEED,
    };
    for_each_coding!(base, |coding, provider| {
        let hnsw = Hnsw::build(provider(), params);
        let live: Vec<[Vec<Hit>; 3]> = (0..queries.len())
            .map(|qi| {
                let q = queries.get(qi);
                let pool = hnsw.search(q, K * RERANK, EF);
                [
                    hnsw.search(q, K, EF),
                    rerank_exact(hnsw.provider().base(), q, pool, K),
                    brute(hnsw.provider(), q, K, accept_thirds),
                ]
            })
            .collect();

        let leaf = GraphIndex::new(hnsw);
        for (qi, [live_plain, live_reranked, exact_filtered]) in live.iter().enumerate() {
            let tag = format!("hnsw:{coding} query {qi}");
            let plain = SearchRequest::new(queries.get(qi), K).ef(EF);
            assert_same(live_plain, &leaf.search(&plain).hits, &tag);
            assert_same(
                live_reranked,
                &leaf.search(&plain.clone().rerank(RERANK)).hits,
                &format!("{tag} reranked"),
            );
            assert_same(
                exact_filtered,
                &leaf.search(&plain.filter(|id| id % 3 == 0).ef(n)).hits,
                &format!("{tag} filtered (exhaustive)"),
            );
        }
    });
}

/// The serving kernel equals the naive per-neighbour beam at the serving
/// `ef` — where the beam is narrower than the graph, so admission order,
/// tie handling and the early-exit bound all matter — for every coding.
#[test]
fn search_layers_matches_the_naive_beam_at_serving_ef() {
    let (base, queries) = workload(400, 8);
    let params = HnswParams {
        c: C,
        r: R,
        seed: SEED,
    };
    for_each_coding!(base, |coding, provider| {
        let index = Hnsw::build(provider(), params).into_frozen();
        let (provider, layers) = (index.provider(), index.layers());
        assert!(layers.max_layer > 0, "the descent must be exercised");
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            assert_same(
                &naive_search_layers(provider, layers, q, K, EF),
                &search_layers(provider, layers, q, K, EF),
                &format!("hnsw:{coding} query {qi}"),
            );
        }
    });
}

/// Rows wider than one 64-lane admission mask, at an `ef` narrower than
/// such a row: base rows of up to 80 lanes (`r = 40`) over a flat 64-d
/// spectrum, where Neighbor Selection keeps most candidates. The live
/// `Hnsw::search` (resident blocks, whole rows scored), the frozen
/// `search_layers` (gathered ids) and the naive beam must agree on ids and
/// distance bits, for Flash and full precision.
#[test]
fn rows_wider_than_a_mask_word_match_every_reference() {
    const WIDE_R: usize = 40;
    const NARROW_EF: usize = 24;
    let (base, queries) = generate(&DatasetSpec::new(128, 1, 1.0, 1.0, 11), 1200, 12, 77);
    let params = HnswParams {
        c: 96,
        r: WIDE_R,
        seed: SEED,
    };
    fn check<P: DistanceProvider>(what: &str, hnsw: Hnsw<P>, queries: &VectorSet) {
        let live: Vec<Vec<Hit>> = queries
            .iter()
            .map(|q| hnsw.search(q, K, NARROW_EF))
            .collect();
        let index = hnsw.into_frozen();
        let (provider, layers) = (index.provider(), index.layers());
        let widest = layers.layer(0).rows().map(<[u32]>::len).max().unwrap_or(0);
        let wide = layers.layer(0).rows().filter(|row| row.len() > 64).count();
        assert!(
            widest > NARROW_EF.max(64) && wide >= 10,
            "{what}: {wide} base rows wider than 64 lanes (widest {widest})"
        );
        for (qi, (q, live)) in queries.iter().zip(&live).enumerate() {
            let tag = format!("{what} query {qi}");
            let naive = naive_search_layers(provider, layers, q, K, NARROW_EF);
            assert_same(
                &naive,
                &search_layers(provider, layers, q, K, NARROW_EF),
                &tag,
            );
            assert_same(&naive, live, &format!("{tag} live"));
        }
    }
    check(
        "hnsw:flash",
        Hnsw::build(FlashProvider::new(base.clone(), flash_fp()), params),
        &queries,
    );
    check(
        "hnsw:full",
        Hnsw::build(FullPrecision::new(base), params),
        &queries,
    );
}
