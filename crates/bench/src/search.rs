//! Search: codec parameter sweeps (Figures 3, 4, 16), QPS–recall and
//! QPS–ADR at matched recall (Figures 8, 9), and generality across HNSW
//! variants and graph algorithms (Figures 13, 14).

use crate::{above_one, at_recall, build, col, ids, peaks_inside, rises, span, timed};
use crate::{Outcome, Point, Rows, Scale, Workload, METHODS};
use engine::{AdSamplingOptions, Coding, GraphKind, IndexBuilder, SearchRequest};
use flash::FlashParams;
use graphs::providers::{PcaProvider, Sq16Provider};
use graphs::{search_layers_rerank, DistanceProvider, Hnsw};
use vecstore::DatasetProfile::{self, LaionLike, SsnppLike};

/// A codec sweep's row: the parameter value, build seconds and recall@1 of
/// an engine build at ef 64.
fn setting(w: &Workload, value: usize, builder: IndexBuilder) -> (String, Vec<f64>) {
    let coding = builder.coding();
    let (index, secs) = build(builder, w.base.clone());
    let recall = w.curve(index.as_ref(), coding, &[64])[0].recall;
    (value.to_string(), vec![secs, recall])
}

/// [`setting`]'s row for a provider the engine does not offer, timed from
/// its construction (the codec fit) on, and reranked as SQ and PCA are.
fn concrete<P: DistanceProvider>(w: &Workload, s: Scale, provider: impl FnOnce() -> P) -> Vec<f64> {
    let (index, secs) = timed(|| Hnsw::build(provider(), s.hnsw()).into_frozen());
    let search = |q: &[f32], ef| {
        let hits = search_layers_rerank(index.provider(), index.layers(), q, 1, ef, 4);
        hits.iter().map(|h| h.id as u32).collect()
    };
    vec![secs, w.sweep(&[64], 4, &search)[0].recall]
}

/// Appends one codec sweep's table.
fn sweep_table(out: Outcome, title: &str, param: &str, rows: &Rows) -> Outcome {
    out.table(title, &format!("{param} | build (s) | recall@1"), rows)
}

/// Whether time rises with `L_PQ` and bottoms out inside the `M_PQ` sweep,
/// and recall rises along both.
pub(crate) fn pq_trends(bits: &Rows, m: &Rows) -> bool {
    let u_shaped = peaks_inside(&col(m, 0).iter().map(|t| -t).collect::<Vec<_>>());
    rises(&col(bits, 0)) && u_shaped && rises(&col(bits, 1)) && rises(&col(m, 1))
}

/// Whether SQ time is least at 8 bits (the third of 2, 4, 8, 16) and PCA
/// time and recall rise with `d_PCA`.
pub(crate) fn sq_pca_trends(sq: &Rows, pca: &Rows) -> bool {
    let t = col(sq, 0);
    let least = (0..t.len()).min_by(|&a, &b| t[a].total_cmp(&t[b]));
    least == Some(2) && rises(&col(pca, 0)) && rises(&col(pca, 1))
}

/// Whether recall peaks at a moderate `d_F` and time grows with `M_F`.
pub(crate) fn flash_trends(d_f: &Rows, m_f: &Rows) -> bool {
    peaks_inside(&col(d_f, 1)) && rises(&col(m_f, 0))
}

pub(crate) fn fig03(scale: Scale) -> Outcome {
    let paper = "PQ build time rises with L_PQ, is U-shaped in M_PQ; recall rises with both";
    let w = Workload::new(LaionLike, scale, 1);
    let pq = scale.builder(GraphKind::Hnsw, Coding::Pq);
    let pq = |m, bits| pq.clone().pq_m(m).pq_bits(bits);
    let bits = [4, 6, 8].map(|b| setting(&w, b, pq(8, b as u8))).to_vec();
    let m = [4, 8, 16, 32, 64].map(|m| setting(&w, m, pq(m, 8)));
    let m = m.to_vec();
    let out = sweep_table(Outcome::default(), "LAION-like, M_PQ = 8", "L_PQ", &bits);
    let out = sweep_table(out, "LAION-like, L_PQ = 8", "M_PQ", &m);
    let (tb, tm) = (span(col(&bits, 0), 2), span(col(&m, 0), 2));
    let holds = pq_trends(&bits, &m);
    out.verdict(paper, format!("{tb} s over L_PQ, {tm} s over M_PQ"), holds)
}

pub(crate) fn fig04(scale: Scale) -> Outcome {
    let paper = "SQ build time is least at 8 bits; PCA time grows with d_PCA, recall too";
    let w = Workload::new(LaionLike, scale, 1);
    let sq = |bits| scale.builder(GraphKind::Hnsw, Coding::Sq).sq_bits(bits);
    let mut sq = [2, 4, 8].map(|b| setting(&w, b, sq(b as u8))).to_vec();
    let base = || w.base.clone();
    sq.push((
        "16".into(),
        concrete(&w, scale, || Sq16Provider::new(base())),
    ));
    let train = IndexBuilder::default_train_sample(w.base.len());
    let pca = |d: usize| {
        let row = concrete(&w, scale, || PcaProvider::new(base(), d, train));
        (d.to_string(), row)
    };
    let pca = [64, 128, 256, 512, 768].map(pca).to_vec();
    let out = sweep_table(Outcome::default(), "LAION-like, HNSW-SQ", "L_SQ", &sq);
    let out = sweep_table(out, "LAION-like, HNSW-PCA", "d_PCA", &pca);
    let (tsq, tpca) = (span(col(&sq, 0), 2), span(col(&pca, 0), 2));
    out.verdict(
        paper,
        format!("SQ {tsq} s; PCA {tpca} s"),
        sq_pca_trends(&sq, &pca),
    )
}

pub(crate) fn fig16(scale: Scale) -> Outcome {
    let paper = "recall peaks at a moderate d_F; build time grows with M_F";
    let w = Workload::new(LaionLike, scale, 1);
    let flash = |value, d_f, m_f| {
        let mut params = FlashParams::auto(w.base.dim()).with_d_f(d_f).with_m_f(m_f);
        params.train_sample = IndexBuilder::default_train_sample(w.base.len());
        let builder = scale.builder(GraphKind::Hnsw, Coding::Flash);
        setting(&w, value, builder.flash_params(params))
    };
    let d_f = [16, 32, 48, 64, 96, 128].map(|d| flash(d, d, 16)).to_vec();
    let m_f = [4, 8, 16, 32, 64].map(|m| flash(m, 64, m)).to_vec();
    let out = sweep_table(Outcome::default(), "LAION-like, M_F = 16", "d_F", &d_f);
    let out = sweep_table(out, "LAION-like, d_F = 64", "M_F", &m_f);
    let best = d_f.iter().max_by(|a, b| a.1[1].total_cmp(&b.1[1]));
    let best = best.map_or("-", |(d, _)| d.as_str());
    let tm = span(col(&m_f, 0), 2);
    let ours = format!("recall peaks at d_F = {best}; {tm} s over M_F");
    out.verdict(paper, ours, flash_trends(&d_f, &m_f))
}

const CURVE: &str = "method | build (s) | beam | recall@10 | ADR | QPS";

/// Appends a row per point of a curve, labeled `label`.
fn curve_rows(rows: &mut Rows, label: String, build_s: f64, points: &[Point]) {
    for p in points {
        let values = vec![build_s, p.beam as f64, p.recall, p.adr, p.qps];
        rows.push((label.clone(), values));
    }
}

/// One build's seconds and QPS–recall curve.
type Run = (f64, Vec<Point>);

/// Builds through each of `builders`, sweeps the index from ef 16 to 256,
/// and appends the points as one table.
pub(crate) fn runs(
    out: Outcome,
    w: &Workload,
    builders: &[IndexBuilder],
    title: &str,
) -> (Outcome, Vec<Run>) {
    let (mut rows, mut runs) = (Rows::new(), Vec::new());
    for builder in builders {
        let (graph, coding) = (builder.graph_kind(), builder.coding());
        let (index, build_s) = build(builder.clone(), w.base.clone());
        let points = w.curve(index.as_ref(), coding, &[16, 32, 64, 128, 256]);
        curve_rows(&mut rows, format!("{graph}-{coding}"), build_s, &points);
        runs.push((build_s, points));
    }
    (out.table(title, CURVE, &rows), runs)
}

/// Builds the five methods on each of `sets` and tabulates their curves;
/// returns per dataset each method's QPS at the smallest beam reaching
/// recall@10 ≥ `target`, in [`METHODS`] order.
fn matched(scale: Scale, sets: &[DatasetProfile], target: f64) -> (Outcome, Vec<Vec<Option<f64>>>) {
    let builders = METHODS.map(|c| scale.builder(GraphKind::Hnsw, c));
    let (mut out, mut qps) = (Outcome::default(), Vec::new());
    for &p in sets {
        let (next, runs) = runs(out, &Workload::new(p, scale, 10), &builders, p.name());
        out = next;
        let at = |(_, points): &Run| at_recall(points, target).map(|p| p.qps);
        qps.push(runs.iter().map(at).collect());
    }
    (out, qps)
}

/// Whether Flash (first) reaches the target recall at no less QPS than
/// HNSW (last), and PQ (fourth) trails Flash, on every dataset.
pub(crate) fn flash_matches_hnsw(qps: &[Vec<Option<f64>>]) -> bool {
    qps.iter().all(|q| match q[0] {
        Some(flash) => flash >= q[4].unwrap_or(0.0) && q[3].is_none_or(|pq| pq < flash),
        None => false,
    })
}

/// Whether Flash (first) reaches the target recall at the highest QPS of
/// all methods on every dataset.
pub(crate) fn flash_fastest_at_recall(qps: &[Vec<Option<f64>>]) -> bool {
    let top = |q: &[Option<f64>], f: f64| q[1..].iter().all(|o| o.is_none_or(|x| x <= f));
    qps.iter().all(|q| q[0].is_some_and(|flash| top(q, flash)))
}

/// Flash's QPS over `of(row)`'s on each dataset where both exist.
fn ratios(qps: &[Vec<Option<f64>>], of: impl Fn(&[Option<f64>]) -> Option<f64>) -> String {
    let r: Vec<f64> = qps.iter().filter_map(|q| Some(q[0]? / of(q)?)).collect();
    if r.is_empty() {
        return "n/a".into();
    }
    format!("{}x", span(r, 2))
}

pub(crate) fn fig08(scale: Scale) -> Outcome {
    let paper = "Flash matches or beats baseline HNSW search; PQ trails (index quality)";
    let (out, qps) = matched(scale, &DatasetProfile::ALL, 0.95);
    let ours = format!(
        "Flash ÷ HNSW QPS at recall@10 ≥ 0.95: {}",
        ratios(&qps, |q| q[4])
    );
    out.verdict(paper, ours, flash_matches_hnsw(&qps))
}

pub(crate) fn fig09(scale: Scale) -> Outcome {
    let paper = "Flash attains the lowest ADR at a given QPS (answers closest to truth)";
    let (out, qps) = matched(scale, &[LaionLike, SsnppLike], 0.99);
    let best = |q: &[Option<f64>]| q[1..].iter().flatten().copied().reduce(f64::max);
    let ours = format!(
        "Flash ÷ best other QPS at recall@10 ≥ 0.99: {}",
        ratios(&qps, best)
    );
    out.verdict(paper, ours, flash_fastest_at_recall(&qps))
}

/// Whether the Flash graph builds faster and every search variant
/// (`(top recall on the HNSW graph, on the Flash graph)`) recalls at least
/// as well on it.
pub(crate) fn flash_graph_serves(full_s: f64, flash_s: f64, recalls: &[(f64, f64)]) -> bool {
    flash_s < full_s && recalls.iter().all(|(full, flash)| flash >= full)
}

pub(crate) fn fig13(scale: Scale) -> Outcome {
    let paper = "Flash graphs serve ADSampling, VBase as well at ~1/15 the build cost";
    let w = Workload::new(LaionLike, scale, 10);
    let full = scale.builder(GraphKind::Hnsw, Coding::Full);
    let (mut rows, mut secs, mut top) = (Rows::new(), Vec::new(), Vec::new());
    for coding in [Coding::Full, Coding::Flash] {
        let (built, build_s) = build(scale.builder(GraphKind::Hnsw, coding), w.base.clone());
        // Both variants search the full-precision vectors over the graph.
        let graph = built.export_graph().expect("a graph index");
        let index = full
            .serve(w.base.clone(), graph)
            .expect("graph of the corpus");
        let request = |q: &[f32], ef| SearchRequest::new(q, w.k).ef(ef);
        let ads = AdSamplingOptions::default();
        let ads = |q: &[f32], ef| ids(index.as_ref(), &request(q, ef).adsampling(ads));
        let vbase = |q: &[f32], ef| ids(index.as_ref(), &request(q, ef).vbase(ef));
        // The first ADSampling query builds the index's sampler (a rotated
        // copy of the corpus); build it before the timer starts.
        ads(w.queries.get(0), 32);
        let ads = w.sweep(&[32, 64, 128], 1, &ads);
        let vbase = w.sweep(&[16, 48, 128], 1, &vbase);
        curve_rows(
            &mut rows,
            format!("ADSampling, hnsw-{coding}"),
            build_s,
            &ads,
        );
        curve_rows(&mut rows, format!("VBase, hnsw-{coding}"), build_s, &vbase);
        secs.push(build_s);
        top.push([&ads, &vbase].map(|c| c.last().map_or(0.0, |p| p.recall)));
    }
    let out = Outcome::default().table("LAION-like", CURVE, &rows);
    let recalls = [(top[0][0], top[1][0]), (top[0][1], top[1][1])];
    let [[a0, v0], [a1, v1]] = [top[0], top[1]];
    let speedup = secs[0] / secs[1];
    let ours = format!("{speedup:.1}x faster; top recall {a1:.4} / {v1:.4} vs {a0:.4} / {v0:.4}");
    out.verdict(paper, ours, flash_graph_serves(secs[0], secs[1], &recalls))
}

/// Builds `graphs` each without and with Flash on LAION-like data and
/// tabulates their curves; returns each graph's Flash build speedup.
pub(crate) fn generality(scale: Scale, graphs: [GraphKind; 2]) -> (Outcome, [f64; 2]) {
    let w = Workload::new(LaionLike, scale, 10);
    let pair = |g| [Coding::Full, Coding::Flash].map(|c| scale.builder(g, c));
    let builders = graphs.map(pair).concat();
    let (out, runs) = runs(Outcome::default(), &w, &builders, "LAION-like");
    (out, [0, 2].map(|i| runs[i].0 / runs[i + 1].0))
}

pub(crate) fn fig14(scale: Scale) -> Outcome {
    let paper = "Flash speeds up NSG and τ-MG builds ~11–12x at comparable QPS-recall";
    let (out, speedups) = generality(scale, [GraphKind::Nsg, GraphKind::TauMg]);
    let ours = format!("NSG {:.1}x, τ-MG {:.1}x", speedups[0], speedups[1]);
    out.verdict(paper, ours, above_one(&speedups))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(times: &[f64], recalls: &[f64]) -> Rows {
        let row = |(&t, &r)| (String::new(), vec![t, r]);
        times.iter().zip(recalls).map(row).collect()
    }

    #[test]
    fn sweep_predicates() {
        let rising = sweep(&[1.0, 2.0, 3.0], &[0.5, 0.6, 0.7]);
        let u = sweep(&[3.0, 1.0, 2.0], &[0.5, 0.6, 0.7]);
        assert!(pq_trends(&rising, &u) && !pq_trends(&rising, &rising));
        let sq = sweep(&[3.0, 2.0, 1.0, 4.0], &[0.1; 4]);
        assert!(sq_pca_trends(&sq, &rising) && !sq_pca_trends(&rising, &rising));
        let peaked = sweep(&[1.0, 1.0, 1.0], &[0.5, 0.9, 0.7]);
        assert!(flash_trends(&peaked, &rising) && !flash_trends(&rising, &rising));
    }

    #[test]
    fn matched_recall_predicates() {
        let q = |flash, pq, hnsw| vec![flash, Some(1.0), Some(1.0), pq, hnsw];
        let (fast, slow) = (Some(900.0), Some(700.0));
        assert!(flash_matches_hnsw(&[q(fast, Some(500.0), Some(800.0))]));
        assert!(flash_matches_hnsw(&[q(fast, None, None)]));
        assert!(!flash_matches_hnsw(&[q(slow, None, Some(800.0))]));
        assert!(!flash_matches_hnsw(&[q(None, None, Some(800.0))]));
        assert!(flash_fastest_at_recall(&[q(fast, None, Some(800.0))]));
        assert!(!flash_fastest_at_recall(&[q(fast, Some(950.0), None)]));
        let half = [q(fast, None, Some(450.0))];
        assert_eq!(ratios(&half, |q| q[4]), "2.00–2.00x");
        assert!(flash_graph_serves(2.0, 1.0, &[(0.9, 0.95)]));
        assert!(!flash_graph_serves(2.0, 1.0, &[(0.95, 0.9)]));
        assert!(!flash_graph_serves(1.0, 2.0, &[(0.9, 0.95)]));
    }
}
