//! Construction: where build time goes (Figures 1, 15, Table 4), how fast
//! each method builds (Figures 6, 10–12, Table 3), and what the index costs
//! in bytes (Figure 7) and in cache misses (Table 2).

use crate::{above_one, build, col, dataset, per_dataset, span, timed, within};
use crate::{Outcome, Rows, Scale, METHODS};
use cachesim::{l1d_default, CacheSim};
use engine::{Coding, GraphKind, ProviderJob};
use graphs::hnsw::select_neighbors;
use graphs::stats::BuildProfile;
use graphs::{DistanceProvider, Hnsw, HnswParams, MrngRule};
use simdops::level::with_level;
use simdops::{supported_levels, SimdLevel};
use std::hint::black_box;
use std::time::Instant;
use vecstore::{generate, split_into_segments, DatasetProfile, VectorSet};

use DatasetProfile::{ArgillaLike, LaionLike, SsnppLike};
const ALL: [DatasetProfile; 8] = DatasetProfile::ALL;

/// Builds HNSW through the provider, plain, twice (the same graph), and
/// [`priced`]s the counts after each build: returns the faster build's
/// seconds, then the percent of them that four buckets take, each at the
/// cheaper of its two prices — **distance**, **prepare**, **layout-sync**,
/// and **other**: the wall clock less the three priced buckets (heaps,
/// visited set, row copies, batching, and whatever the unit costs miss).
/// Both sides of the ratio are the least disturbed of their runs, so a
/// slow spell on a shared machine does not inflate one side only.
struct Profile(HnswParams);

impl ProviderJob for Profile {
    type Output = [f64; 5];
    fn run<P: DistanceProvider + 'static>(self, provider: P) -> [f64; 5] {
        let (first, once) = timed(|| Hnsw::build(provider, self.0));
        let early = priced(&first);
        let (index, twice) = timed(|| Hnsw::build(first.into_provider(), self.0));
        let (late, secs) = (priced(&index), once.min(twice));
        let pct = |i: usize| 100.0 * early[i].min(late[i]) / (secs * 1e9);
        let [dist, prep, sync] = [0, 1, 2].map(pct);
        [secs, dist, prep, sync, 100.0 - dist - prep - sync]
    }
}

/// Nodes whose rows [`priced`] replays, spread over the ids.
const SAMPLE: usize = 128;

/// `index`'s build counts ([`graphs::stats::BuildProfile`]) priced in
/// nanoseconds of distance, prepare and layout-sync work, at unit costs
/// measured through its own provider's methods on its own rows — so one
/// routine prices every coding, at the corpus's dimension and layout. For
/// each of [`SAMPLE`] nodes `y`, it:
///
/// * prepares `y`'s insert context (per planned insert);
/// * scores `y`'s layer-0 row and its neighbors' rows, each with its
///   block, from that context (per CA lane, the descents' and beams');
/// * takes `dist_between` from `y` to its neighbors (per re-prune row);
/// * appends `y`'s row ids to a block (per lane appended);
/// * calls `dominated` on an empty selection for each candidate a live
///   search from `y`'s vector finds (`ef = C`) — per `dominated` call;
/// * runs [`select_neighbors`], the build's own Neighbor Selection, over
///   those candidates: what it takes beyond its calls and appends, per
///   lane offered to `dominated`.
fn priced<P: DistanceProvider>(index: &Hnsw<P>) -> [f64; 3] {
    let (p, n, params) = (index.provider(), index.len(), *index.params());
    let mut rows = vec![(Vec::new(), Vec::new()); n];
    index.for_each_row(|node, layer, ids, block| {
        if layer == 0 {
            rows[node as usize] = (ids.to_vec(), block.to_vec());
        }
    });
    let sample = SAMPLE.min(n);
    let nodes: Vec<u32> = (0..sample).map(|i| (i * n / sample) as u32).collect();
    let ids = |y: u32| &rows[y as usize].0;
    let near = |y: u32| std::iter::once(y).chain(ids(y).iter().copied());
    let ctxs: Vec<_> = nodes.iter().map(|&y| p.prepare_insert(y)).collect();
    // Each `y`'s layer-0 candidates, selected from as the build does.
    let cap = params.cap(0);
    let (mut slots, mut block) = (vec![0; cap], vec![0; p.payload_bytes(cap)]);
    let mut scratch = block.clone();
    let mut select = |cands: &[(f32, u32)], counts: &mut BuildProfile| {
        select_neighbors(p, &MrngRule, cands, &mut slots, &mut block, counts)
    };
    let candidates: Vec<Vec<(f32, u32)>> = (nodes.iter())
        .map(|&y| {
            let hits = index.search(p.base().get(y as usize), params.c + 1, params.c);
            let near = hits.iter().filter(|h| h.id != u64::from(y));
            near.map(|h| (h.dist, h.id as u32)).collect()
        })
        .collect();
    let (counts, mut out) = (index.build_profile(), Vec::new());
    let prepare = unit(|| {
        timed(|| {
            nodes
                .iter()
                .for_each(|&y| drop(black_box(p.prepare_insert(y))));
            nodes.len()
        })
    });
    let lane = unit(|| {
        timed(|| {
            let mut lanes = 0;
            for (&y, ctx) in nodes.iter().zip(&ctxs) {
                for (ids, block) in near(y).map(|u| &rows[u as usize]) {
                    p.dist_to_neighbors(ctx, ids, block, &mut out);
                    lanes += black_box(&out).len();
                }
            }
            lanes
        })
    });
    let reprune = unit(|| {
        timed(|| {
            let mut pairs = 0;
            for &y in &nodes {
                for &v in ids(y) {
                    black_box(p.dist_between(y, v));
                }
                pairs += ids(y).len();
            }
            pairs
        })
    });
    let append = unit(|| {
        timed(|| {
            let (block, mut lanes) = (&mut scratch, 0);
            for &y in &nodes {
                for (lane, &v) in ids(y).iter().enumerate() {
                    p.append_payload(block, lane, v);
                }
                black_box(&*block);
                lanes += ids(y).len();
            }
            lanes
        })
    });
    // A build's selection runs right after its CA has read the candidates,
    // so each replay is timed warm: after one untimed run of its own. A
    // `dominated` call costs something before it reads a lane (Flash
    // builds the candidate's SDT), so the call and the lane are priced
    // apart: the call on an empty selection, the lane as what the real
    // selections take beyond their calls and appends.
    let call = unit(|| {
        let mut secs = 0.0;
        for cands in &candidates {
            let replay = || {
                for &(d, v) in cands {
                    black_box(p.dominated(&MrngRule, v, d, &[], &scratch));
                }
            };
            replay();
            secs += timed(replay).1;
        }
        (candidates.iter().map(Vec::len).sum(), secs)
    });
    let offered = unit(|| {
        let (mut replayed, mut secs) = (BuildProfile::default(), 0.0);
        for cands in &candidates {
            select(cands, &mut BuildProfile::default());
            secs += timed(|| select(cands, &mut replayed)).1;
        }
        let fixed = call * replayed.dominated as f64 + append * replayed.appended as f64;
        let lanes = replayed.dominated_lanes as usize;
        (lanes, (secs - fixed * 1e-9).max(0.0))
    });
    let at = |units: u64, ns: f64| units as f64 * ns;
    let distance = at(counts.search.dist_evals(), lane)
        + at(counts.dominated, call)
        + at(counts.dominated_lanes, offered)
        + at(counts.reprune_rows, reprune);
    let prepare = at(counts.search.scratch_checkouts, prepare);
    [distance, prepare, at(counts.appended, append)]
}

/// Nanoseconds per unit of work at the fastest of five runs of `pass`
/// (the run least disturbed by other work on the machine), each
/// reporting the units it did and the seconds they took.
fn unit(mut pass: impl FnMut() -> (usize, f64)) -> f64 {
    let runs: Vec<(usize, f64)> = (0..5).map(|_| pass()).collect();
    let best = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    best * 1e9 / runs[0].0.max(1) as f64
}

/// [`Profile`]s the HNSW graph build over `coding` on one core: the
/// priced buckets are shares of the wall clock only when the build runs
/// on the thread that measures the unit costs. The graph is the same at
/// any pool width.
pub(crate) fn profile(scale: Scale, coding: Coding, base: VectorSet) -> [f64; 5] {
    let builder = scale.builder(GraphKind::Hnsw, coding);
    let codec = builder.train_codec(&base);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1);
    let pool = pool.build().expect("infallible");
    let job = Profile(scale.hnsw());
    pool.install(|| builder.with_provider(base, &codec, job))
}

/// Profiles `coding` on LAION and ARGILLA; returns the distance shares.
fn profiles(scale: Scale, coding: Coding) -> (Outcome, Vec<f64>) {
    let rows = per_dataset(&[LaionLike, ArgillaLike], |p| {
        profile(scale, coding, dataset(p, scale).0).to_vec()
    });
    let head = "dataset | build (s) | distance % | prepare % | layout-sync % | other %";
    let out = Outcome::default().table("Build profile on one core", head, &rows);
    (out, col(&rows, 1))
}

/// Figure 1: the full-precision build on one core, [`Profile`]d on LAION
/// and ARGILLA; holds when distance is 50–100 % of the wall clock.
pub(crate) fn fig01(scale: Scale) -> Outcome {
    let paper = "distance computation takes 90.8–90.9 % of HNSW indexing time";
    let (out, shares) = profiles(scale, Coding::Full);
    let holds = within(&shares, 50.0, 100.0);
    out.verdict(paper, format!("{} %", span(shares, 1)), holds)
}

/// Figure 15: the same profile of the Flash build; holds when distance is
/// 0–50 % of the wall clock.
pub(crate) fn fig15(scale: Scale) -> Outcome {
    let paper = "distance computation is ~12 % of Flash's graph construction (was >90 %)";
    let (out, shares) = profiles(scale, Coding::Flash);
    let holds = within(&shares, 0.0, 50.0);
    out.verdict(paper, format!("{} %", span(shares, 1)), holds)
}

/// Per dataset, `value(scale, coding, corpus)` of the five methods in
/// [`METHODS`] order, tabulated with HNSW's value over Flash's.
fn per_method(
    scale: Scale,
    what: &str,
    value: fn(Scale, Coding, VectorSet) -> f64,
) -> (Outcome, Rows) {
    let rows = per_dataset(&ALL, |p| {
        let base = dataset(p, scale).0;
        let mut row = METHODS.map(|c| value(scale, c, base.clone())).to_vec();
        row.push(row[4] / row[0]);
        row
    });
    let heads = METHODS.map(|c| format!("hnsw-{c}")).join(" | ");
    let head = format!("dataset | {heads} | hnsw ÷ hnsw-flash");
    (Outcome::default().table(what, &head, &rows), rows)
}

/// Whether Flash (first column) builds fastest on every row.
pub(crate) fn flash_fastest(times: &Rows) -> bool {
    times.iter().all(|(_, t)| t[1..5].iter().all(|&x| t[0] < x))
}

/// Whether PQ (fourth column) is the smallest index on every row.
pub(crate) fn pq_smallest(sizes: &Rows) -> bool {
    sizes.iter().all(|(_, s)| s[..5].iter().all(|&x| s[3] <= x))
}

pub(crate) fn fig06(scale: Scale) -> Outcome {
    let paper = "Flash builds 10.4x–22.9x faster than HNSW across the eight datasets";
    let secs = |scale: Scale, c, base| build(scale.builder(GraphKind::Hnsw, c), base).1;
    let (out, times) = per_method(scale, "Indexing time (s)", secs);
    let ours = format!("{}x faster than HNSW", span(col(&times, 5), 1));
    out.verdict(paper, ours, flash_fastest(&times))
}

pub(crate) fn fig07(scale: Scale) -> Outcome {
    let paper0 = "PQ compresses most (~10–13x)";
    let paper1 = "Flash compresses ~4–5x (codes stored globally and beside neighbor ids)";
    let mb = |scale, c, base| construct(scale, c, base)[3];
    let (out, sizes) = per_method(scale, "Construction-time index size (MB)", mb);
    let pq: Vec<f64> = sizes.iter().map(|(_, s)| s[4] / s[3]).collect();
    let out = out.verdict(paper0, format!("PQ {}x", span(pq, 1)), pq_smallest(&sizes));
    let flash = col(&sizes, 5);
    let holds = above_one(&flash);
    out.verdict(paper1, format!("Flash {}x", span(flash, 1)), holds)
}

/// Times the encoding since the instant it holds, then the graph insert;
/// returns both with the construction-time index size in MB.
struct Insert(HnswParams, Instant);

impl ProviderJob for Insert {
    type Output = [f64; 3];
    fn run<P: DistanceProvider + 'static>(self, provider: P) -> [f64; 3] {
        let encode = self.1.elapsed().as_secs_f64();
        let (index, insert) = timed(|| Hnsw::build(provider, self.0));
        [encode, insert, index.index_bytes() as f64 / 1e6]
    }
}

/// Trains `coding`'s codec and builds HNSW through it: train, encode and
/// insert seconds, then the construction-time size (`Hnsw::index_bytes`,
/// which counts the codeword blocks Flash keeps beside the neighbor ids).
fn construct(scale: Scale, coding: Coding, base: VectorSet) -> [f64; 4] {
    let builder = scale.builder(GraphKind::Hnsw, coding);
    let (codec, train) = timed(|| builder.train_codec(&base));
    let job = Insert(scale.hnsw(), Instant::now());
    let [encode, insert, mb] = builder.with_provider(base, &codec, job);
    [train, encode, insert, mb]
}

/// Per LAION and SSNPP, HNSW and Flash build seconds (and their ratio)
/// summed over the corpora `parts(profile, x)` for each of `xs`.
fn versus(
    scale: Scale,
    xs: &[usize],
    x: &str,
    parts: impl Fn(DatasetProfile, usize) -> Vec<VectorSet>,
) -> (Outcome, Vec<Rows>) {
    let secs = |coding, sets: &[VectorSet]| -> f64 {
        let builder = scale.builder(GraphKind::Hnsw, coding);
        let one = |set: &VectorSet| build(builder.clone(), set.clone()).1;
        sets.iter().map(one).sum()
    };
    let head = format!("{x} | hnsw (s) | hnsw-flash (s) | speedup");
    let (mut out, mut series) = (Outcome::default(), Vec::new());
    for p in [LaionLike, SsnppLike] {
        let row = |&v: &usize| {
            let sets = parts(p, v);
            let (f, h) = (secs(Coding::Full, &sets), secs(Coding::Flash, &sets));
            (v.to_string(), vec![f, h, f / h])
        };
        let rows: Rows = xs.iter().map(row).collect();
        out = out.table(p.name(), &head, &rows);
        series.push(rows);
    }
    (out, series)
}

/// Whether Flash is faster at every point and its speedup does not shrink
/// from the first point to the last.
pub(crate) fn speedup_holds(series: &[Rows]) -> bool {
    series.iter().all(|rows| {
        let speedups = col(rows, 2);
        above_one(&speedups) && speedups.last() >= speedups.first()
    })
}

/// Whether Flash saves time at every point and the saving grows each step.
pub(crate) fn savings_accumulate(series: &[Rows]) -> bool {
    series.iter().all(|rows| {
        let saved: Vec<f64> = rows.iter().map(|(_, r)| r[0] - r[1]).collect();
        saved[0] > 0.0 && saved.windows(2).all(|w| w[1] > w[0])
    })
}

pub(crate) fn fig10(scale: Scale) -> Outcome {
    let paper = "Flash's speedup stays in the 15–20x band across volumes";
    let ns: Vec<usize> = (1..=5).map(|m| scale.n * m).collect();
    let one = |p, n| vec![dataset(p, Scale { n, ..scale }).0];
    let (out, series) = versus(scale, &ns, "n", one);
    let ours = span(series.iter().flat_map(|rows| col(rows, 2)), 1);
    out.verdict(paper, format!("{ours}x"), speedup_holds(&series))
}

pub(crate) fn fig11(scale: Scale) -> Outcome {
    let paper = "the per-segment speedup accumulates linearly with segment count";
    let corpus = |p: DatasetProfile, s| generate(&p.spec(), scale.n * s, 1, 0xDA7A).0;
    let split = |p, s| split_into_segments(&corpus(p, s), s);
    let (out, series) = versus(scale, &[2, 4, 6, 8], "segments", split);
    let saved = |i: usize| span(series.iter().map(|rows| rows[i].1[0] - rows[i].1[1]), 2);
    let ours = format!("saves {} s at 2 segments, {} s at 8", saved(0), saved(3));
    out.verdict(paper, ours, savings_accumulate(&series))
}

/// Flash build seconds over `base` with the dispatch tier capped at each of
/// `levels`: one codec, trained at the native tier, serves every build, and
/// a cap covers every kernel of the build, encoding and ADTs included.
fn level_secs(scale: Scale, base: &VectorSet, levels: &[SimdLevel]) -> Vec<f64> {
    let builder = scale.builder(GraphKind::Hnsw, Coding::Flash);
    let codec = builder.train_codec(base);
    let build = || builder.build_with_codec(base.clone(), &codec);
    let secs = |&level: &SimdLevel| timed(|| with_level(level, build)).1;
    levels.iter().map(secs).collect()
}

/// Whether, per dataset, the widest tier (last column) builds faster than
/// the narrowest (first), but by less than their `width_ratio`.
pub(crate) fn wider_is_faster_sublinearly(rows: &Rows, width_ratio: f64) -> bool {
    rows.iter().all(|(_, secs)| {
        let speedup = secs[0] / secs[secs.len() - 1];
        speedup > 1.0 && speedup < width_ratio
    })
}

pub(crate) fn fig12(scale: Scale) -> Outcome {
    let paper = "wider registers build faster, sub-linearly (memory, instruction latency)";
    let levels = supported_levels();
    let rows = per_dataset(&[LaionLike, SsnppLike], |p| {
        level_secs(scale, &dataset(p, scale).0, &levels)
    });
    let heads: Vec<String> = levels.iter().map(|l| format!("{} (s)", l.name())).collect();
    let head = format!("dataset | {}", heads.join(" | "));
    let out = Outcome::default().table("Flash build time per tier", &head, &rows);
    let ours = span(rows.iter().map(|(_, t)| t[0] / t[t.len() - 1]), 1);
    let bits = |l: Option<&SimdLevel>| l.map_or(1.0, |l| l.register_bits() as f64);
    let width_ratio = bits(levels.last()) / bits(levels.first());
    let holds = wider_is_faster_sublinearly(&rows, width_ratio);
    let ours = format!("widest tier {ours}x faster than scalar");
    out.verdict(paper, ours, holds)
}

pub(crate) fn tab03(scale: Scale) -> Outcome {
    let paper = "SIMD lookups cut indexing time by up to 45 % (coding time unaffected)";
    let levels = [SimdLevel::Scalar, simdops::detect_level()];
    let rows = per_dataset(&ALL, |p| {
        let secs = level_secs(scale, &dataset(p, scale).0, &levels);
        vec![secs[0], secs[1], 100.0 * (1.0 - secs[1] / secs[0])]
    });
    let head = "dataset | w/o SIMD (s) | w. SIMD (s) | reduction %";
    let out = Outcome::default().table("Build time after codec training", head, &rows);
    let cut = col(&rows, 2);
    let holds = within(&cut, 0.0, 100.0);
    out.verdict(paper, format!("{} % shorter", span(cut, 0)), holds)
}

/// Simulated L1 miss rates in percent, `[baseline, Flash layout]`, of
/// `profile`'s query traversals over one HNSW graph plus NS pair reads.
///
/// The paper reads hardware counters; this replays the *same* traversal
/// through a software L1 model under the two memory layouts, which
/// isolates the layout effect:
/// * baseline: neighbor ids in the node record, vectors fetched from a
///   separate region — one random `D·4`-byte access per visited neighbor;
/// * Flash: neighbor codewords inline with the ids (one contiguous block
///   per node), the ADT register-resident, the SDT in a 4 KB shared table.
fn miss_rates(scale: Scale, profile: DatasetProfile) -> Vec<f64> {
    let (base, queries) = dataset(profile, scale);
    let (index, _) = build(scale.builder(GraphKind::Hnsw, Coding::Full), base.clone());
    let graph = index.export_graph().expect("a graph index");
    // Layout constants: Flash at the paper's M_F = 16 subspaces.
    let (m_f, r0, vec_bytes) = (16usize, scale.r * 2, base.dim() * 4);
    let adj_stride = (1 + r0) * 4;
    let flash_stride = adj_stride + r0.div_ceil(16) * m_f * 16;
    let vector = |v: u32| 0x1000_0000 + v as u64 * vec_bytes as u64;
    const ADJ: u64 = 0x8000_0000;
    const FLASH_NODES: u64 = 0xA000_0000;
    const SDT: u64 = 0xC000_0000;
    let mut sim_base = CacheSim::new(l1d_default());
    let mut sim_flash = CacheSim::new(l1d_default());
    for q in queries.iter() {
        // A greedy walk of at most 64 hops reconstructs the visit sequence.
        let mut visited = vec![false; graph.len()];
        let mut frontier = vec![graph.entry];
        visited[graph.entry as usize] = true;
        for _ in 0..64 {
            let Some(u) = frontier.pop() else { break };
            let nbrs = graph.neighbors(0, u);
            // Both layouts read the node record.
            sim_base.access_range(ADJ + u as u64 * adj_stride as u64, (1 + nbrs.len()) * 4);
            let block = (1 + nbrs.len()) * 4 + nbrs.len().div_ceil(16) * m_f * 16;
            sim_flash.access_range(FLASH_NODES + u as u64 * flash_stride as u64, block);
            let mut best: Option<(f32, u32)> = None;
            for &v in nbrs {
                if std::mem::replace(&mut visited[v as usize], true) {
                    continue;
                }
                // The baseline fetches the neighbor's vector; Flash does not.
                sim_base.access_range(vector(v), vec_bytes);
                let d = simdops::l2_sq(q, base.get(v as usize));
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, v));
                }
            }
            frontier.extend(best.map(|(_, v)| v));
        }
        // NS: candidate-pair distances — vectors for the baseline, SDT
        // lookups for Flash.
        let cands = scale.r.min(graph.len()) as u64;
        for a in 0..cands {
            for b in a + 1..cands {
                sim_base.access_range(vector(a as u32), vec_bytes);
                sim_base.access_range(vector(b as u32), vec_bytes);
                for s in 0..m_f as u64 {
                    sim_flash.access_range(SDT + s * 256 + (a % 16) * 16 + b % 16, 1);
                }
            }
        }
    }
    let rate = |sim: CacheSim| 100.0 * sim.stats().miss_rate();
    vec![rate(sim_base), rate(sim_flash)]
}

pub(crate) fn tab02(scale: Scale) -> Outcome {
    let paper = "L1 miss rate 19.1–26.0 % without vs 4.9–7.9 % with the Flash layout";
    let rows = per_dataset(&ALL, |p| miss_rates(scale, p));
    let head = "dataset | w/o Flash layout | w. Flash layout";
    let out = Outcome::default().table("Simulated L1 miss rate (%)", head, &rows);
    let (without, with) = (col(&rows, 0), col(&rows, 1));
    let fewer: Vec<f64> = without.iter().zip(&with).map(|(b, f)| b / f).collect();
    let ours = format!("{} % without vs {} % with", span(without, 1), span(with, 1));
    out.verdict(paper, ours, above_one(&fewer))
}

pub(crate) fn tab04(scale: Scale) -> Outcome {
    let paper = "coding is ~3–16 % of total indexing time across the datasets";
    let rows = per_dataset(&ALL, |p| {
        let [train, encode, insert, _] = construct(scale, Coding::Flash, dataset(p, scale).0);
        let (ct, tit) = (train + encode, train + encode + insert);
        vec![train, encode, insert, ct, tit, 100.0 * ct / tit]
    });
    let head = "dataset | train (s) | encode (s) | insert (s) | CT (s) | TIT (s) | CT/TIT %";
    let title = "Coding time (CT) vs total indexing time (TIT)";
    let (shares, out) = (col(&rows, 5), Outcome::default().table(title, head, &rows));
    let holds = within(&shares, 0.0, 20.0);
    out.verdict(paper, format!("{} %", span(shares, 1)), holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::SMOKE;

    #[test]
    fn profile_shares_lie_in_range() {
        let base = dataset(SsnppLike, SMOKE).0;
        for coding in [Coding::Full, Coding::Flash] {
            // `other %` is the remainder, so the shares sum to 100 by
            // construction; kernel time summed over threads would push the
            // distance share past 100 and `other %` below 0.
            let shares = &profile(SMOKE, coding, base.clone())[1..];
            let in_range = shares.iter().all(|x| (0.0..=100.0).contains(x));
            assert!(in_range, "{coding}: {shares:?}");
        }
    }

    #[test]
    fn fig07_and_tab02_verdicts_at_smoke_scale() {
        let (_, claims) = crate::find("fig07").unwrap().execute(SMOKE);
        assert_eq!(claims.len(), 2, "{claims:?}");
        assert!(
            claims[1].holds,
            "Flash index not smaller than HNSW: {claims:?}"
        );
        let (tables, claims) = crate::find("tab02").unwrap().execute(SMOKE);
        assert_eq!(claims.len(), 1, "{claims:?}");
        assert!(claims[0].holds, "Flash layout misses more: {claims:?}");
        assert_eq!(tables.matches("-like |").count(), 8);
    }

    fn rows(values: &[&[f64]]) -> Rows {
        values.iter().map(|v| (String::new(), v.to_vec())).collect()
    }

    #[test]
    fn construction_predicates() {
        let row = |flash: f64| vec![flash, 2.0, 3.0, 1.5, 4.0, 4.0 / flash];
        let one = |flash| vec![(String::new(), row(flash))];
        assert!(flash_fastest(&one(1.0)) && !flash_fastest(&one(1.6)));
        assert!(pq_smallest(&one(2.0)) && !pq_smallest(&one(1.0)));
        assert!(speedup_holds(&[rows(&[
            &[4.0, 2.0, 2.0],
            &[9.0, 3.0, 3.0]
        ])]));
        assert!(!speedup_holds(&[rows(&[
            &[4.0, 1.0, 4.0],
            &[9.0, 3.0, 3.0]
        ])]));
        assert!(!speedup_holds(&[rows(&[&[1.0, 2.0, 0.5]])]));
        assert!(savings_accumulate(&[rows(&[&[2.0, 1.0], &[4.0, 2.0]])]));
        assert!(!savings_accumulate(&[rows(&[&[2.0, 1.0], &[4.0, 3.5]])]));
        // Scalar, SSE, AVX, AVX-512 seconds: 16x the width allows < 16x.
        let tiers = |secs: &[f64]| rows(&[secs]);
        assert!(wider_is_faster_sublinearly(
            &tiers(&[4.0, 3.0, 2.5, 2.0]),
            16.0
        ));
        assert!(!wider_is_faster_sublinearly(
            &tiers(&[2.0, 3.0, 3.5, 4.0]),
            16.0
        ));
        assert!(!wider_is_faster_sublinearly(
            &tiers(&[40.0, 9.0, 4.0, 2.0]),
            16.0
        ));
    }
}
