//! Extensions beyond the paper's figures: the CA+NS argument on two more
//! graph families (Vamana, HCNNG), the maintenance window of the
//! introduction, attribute-constrained search, OPQ as an "optimized
//! variant", and the Theorem-1 tuning loop.

use crate::search::{generality, runs};
use crate::{above_one, build, ids, timed, Outcome, Rows, Scale, Workload};
use engine::{Coding, GraphKind, IndexBuilder, SearchRequest};
use flash::{tune_flash_params, FlashParams, TuneOptions};
use maintenance::cycles::gaussian_generator;
use maintenance::{simulate_cycles, CycleWorkload, LsmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vecstore::{ground_truth, DatasetProfile, DatasetSpec, VectorSet};

pub(crate) fn ext1(scale: Scale) -> Outcome {
    let paper = "expected: Flash speeds up Vamana (CA+NS) more than HCNNG (no layout)";
    let (out, [vamana, hcnng]) = generality(scale, [GraphKind::Vamana, GraphKind::Hcnng]);
    // Vamana builds faster with Flash, and gains more than HCNNG does.
    let holds = above_one(&[vamana, vamana / hcnng]);
    let ours = format!("Vamana {vamana:.1}x, HCNNG {hcnng:.1}x");
    out.verdict(paper, ours, holds)
}

/// Whether recall without rebuilds (`[first, last]`) ends below where it
/// started, the periodic rebuild ends above it, and Flash rebuilds faster.
pub(crate) fn rebuild_repairs(never: [f64; 2], rebuilt: f64, full_s: f64, flash_s: f64) -> bool {
    never[1] < never[0] && rebuilt > never[1] && flash_s < full_s
}

/// One churn workload (10 % of the corpus replaced per cycle) run twice,
/// never rebuilt and rebuilt every 5 cycles; then the compaction itself,
/// HNSW vs HNSW-Flash over one corpus.
pub(crate) fn ext2(scale: Scale) -> Outcome {
    let paper = "expected: recall decays without rebuild; rebuilds restore it; Flash's is fast";
    let (dim, n) = (64, scale.n.max(1000));
    let mut config = LsmConfig::for_dim(dim);
    config.memtable_cap = (n / 8).max(256);
    let queries = scale.queries.min(50);
    let w0 = CycleWorkload {
        n,
        churn: 0.1,
        cycles: 20,
        queries,
        k: 10,
        ef: 96,
        rebuild_every: 0,
        seed: 0xC1C,
    };
    let cycles = |rebuild_every| {
        let w = CycleWorkload {
            rebuild_every,
            ..w0
        };
        simulate_cycles(config, w, gaussian_generator(dim))
    };
    let (never, every5) = (cycles(0), cycles(5));
    let mut rows = Rows::new();
    for (a, b) in never.iter().zip(&every5) {
        let (segments, dead) = (a.segments as f64, a.dead as f64);
        let rebuild_s = b.rebuild_time.as_secs_f64();
        let values = vec![a.recall, segments, dead, b.recall, rebuild_s];
        rows.push((a.cycle.to_string(), values));
    }
    let head =
        "cycle | recall@10 | segments | tombstones | rebuilt every 5: recall@10 | rebuild (s)";
    let out = Outcome::default().table(&format!("n = {n}, dim = {dim}"), head, &rows);
    let spec = DatasetSpec::new(dim, 8, 0.98, 0.25, 0xB11D);
    let base = vecstore::generate(&spec, n, 1, 7).0;
    let p = config.hnsw;
    let lsm = |coding| {
        IndexBuilder::new(GraphKind::Hnsw, coding)
            .c(p.c)
            .r(p.r)
            .seed(p.seed)
    };
    let rebuild = |coding| build(lsm(coding), base.clone()).1;
    let (full_s, flash_s) = (rebuild(Coding::Full), rebuild(Coding::Flash));
    let never = [never[0].recall, never[never.len() - 1].recall];
    let rebuilt = every5[every5.len() - 1].recall;
    let [first, last] = never;
    let ours = format!("recall {first:.4} → {last:.4}, rebuilt {rebuilt:.4}; rebuild");
    let ours = format!("{ours} {full_s:.2} s vs Flash {flash_s:.2} s");
    let holds = rebuild_repairs(never, rebuilt, full_s, flash_s);
    out.verdict(paper, ours, holds)
}

/// `w` with the exact top-k among only the vectors `keep` lists.
fn filtered(w: &Workload, keep: &[u32]) -> Workload {
    let mut subset = VectorSet::new(w.base.dim());
    for &i in keep {
        subset.push(w.base.get(i as usize));
    }
    let mut w = w.clone();
    w.truth = ground_truth(&subset, &w.queries, w.k);
    for n in w.truth.iter_mut().flatten() {
        n.id = keep[n.id as usize];
    }
    w
}

/// Whether filtered recall and QPS (per label count, ascending) fall with
/// selectivity, and specialized builds (`[HNSW s, Flash s]` per label
/// count) grow with label count while Flash builds each faster.
pub(crate) fn filtering_costs(filtered: &Rows, specialized: &Rows) -> bool {
    let (first, last) = (&filtered[0].1, &filtered[filtered.len() - 1].1);
    let grows = specialized.windows(2).all(|w| w[1].1[0] > w[0].1[0]);
    let flash_faster = specialized.iter().all(|(_, s)| s[1] < s[0]);
    last[1] < first[1] && last[2] < first[2] && grows && flash_faster
}

pub(crate) fn ext3(scale: Scale) -> Outcome {
    let paper = "expected: filters cost recall and QPS; per-label builds cost more, Flash less";
    let w = Workload::new(DatasetProfile::LaionLike, scale, 10);
    let mut rng = SmallRng::seed_from_u64(0xF117);
    let mut assign = |count: u32| -> Vec<u32> {
        let label = |_| rng.gen_range(0..count);
        (0..w.base.len()).map(label).collect()
    };
    let full = scale.builder(GraphKind::Hnsw, Coding::Full);
    let (shared, shared_s) = build(full, w.base.clone());
    let mut filter = Rows::new();
    for count in [4, 16, 64] {
        let labels = Arc::new(assign(count));
        let keep: Vec<u32> = (0..labels.len() as u32)
            .filter(|&i| labels[i as usize] == 0)
            .collect();
        let search = |q: &[f32], ef| {
            let labels = Arc::clone(&labels);
            let request = SearchRequest::new(q, w.k).ef(ef);
            ids(
                shared.as_ref(),
                &request.filter(move |id| labels[id as usize] == 0),
            )
        };
        let p = filtered(&w, &keep).sweep(&[128], 1, &search)[0];
        filter.push((count.to_string(), vec![1.0 / count as f64, p.recall, p.qps]));
    }
    let title = format!("One graph ({shared_s:.2} s), filtered at query time, ef = 128");
    let out = Outcome::default().table(&title, "labels | selectivity | recall@10 | QPS", &filter);
    let mut specialized = Rows::new();
    for count in [4, 16] {
        let labels = assign(count);
        let secs = |coding| {
            let builder = scale.builder(GraphKind::Hnsw, coding);
            timed(|| builder.build_labeled(&w.base, &labels, 32)).1
        };
        let (full, flash) = (secs(Coding::Full), secs(Coding::Flash));
        specialized.push((count.to_string(), vec![full, flash, full / shared_s]));
    }
    let head = "labels | hnsw (s) | hnsw-flash (s) | hnsw ÷ one graph";
    let title = "One graph per label (Flash's one codec training included)";
    let out = out.table(title, head, &specialized);
    let (r4, r64, amp) = (filter[0].1[1], filter[2].1[1], specialized[1].1[2]);
    let ours = format!("recall {r4:.4} → {r64:.4} from 4 to 64 labels; 16 graphs cost {amp:.1}x");
    out.verdict(paper, ours, filtering_costs(&filter, &specialized))
}

/// Whether OPQ (second) recalls at least as well as PQ (first) at the
/// widest beam but builds slower, and Flash (third) builds fastest.
pub(crate) fn opq_trade(build_s: [f64; 3], recall: [f64; 3]) -> bool {
    let flash_fastest = build_s[2] < build_s[0].min(build_s[1]);
    recall[1] >= recall[0] && build_s[1] > build_s[0] && flash_fastest
}

pub(crate) fn ext4(scale: Scale) -> Outcome {
    let paper = "expected: OPQ trades training time for recall over PQ; Flash builds fastest";
    let w = Workload::new(DatasetProfile::SsnppLike, scale, 10);
    // One subspace per 32 dims: OPQ needs a divisor of the dimension.
    let pq_m = w.base.dim() / 32;
    let codings = [Coding::Pq, Coding::Opq, Coding::Flash];
    let builder = |c| scale.builder(GraphKind::Hnsw, c).pq_m(pq_m).opq_iters(4);
    let builders = codings.map(builder);
    let (out, runs) = runs(Outcome::default(), &w, &builders, "SSNPP-like");
    let build_s = [0, 1, 2].map(|i| runs[i].0);
    let recall = [0, 1, 2].map(|i| runs[i].1.last().map_or(0.0, |p| p.recall));
    let ([r0, r1, r2], [b0, b1, b2]) = (recall, build_s);
    let ours = format!("recall {r0:.4} / {r1:.4} / {r2:.4}, build {b0:.2} / {b1:.2} / {b2:.2} s");
    out.verdict(paper, ours, opq_trade(build_s, recall))
}

/// Whether the tuned `[M_F, build seconds, recall@10]` codes in no more
/// subspaces than the default, builds no slower, and recalls within 0.01.
pub(crate) fn tuned_matches(default: &[f64], tuned: &[f64]) -> bool {
    tuned[0] <= default[0] && tuned[1] <= default[1] && tuned[2] + 0.01 >= default[2]
}

pub(crate) fn ext5(scale: Scale) -> Outcome {
    let paper = "expected: tuning picks fewer subspaces at the default's recall and cost";
    let w = Workload::new(DatasetProfile::LaionLike, scale, 10);
    let auto = FlashParams::auto(w.base.dim());
    let (tuned, tune_s) = timed(|| tune_flash_params(&w.base, auto, &TuneOptions::default()));
    let mut grid = Rows::new();
    for c in &tuned.candidates {
        let r = c.report;
        let values = vec![
            c.d_f as f64,
            r.guaranteed_fraction(),
            r.agreement_fraction(),
        ];
        grid.push((c.m_f.to_string(), values));
    }
    let met = if tuned.met_target { "met" } else { "not met" };
    let title = format!("Candidates, tuned in {tune_s:.1} s (agreement 0.9 {met})");
    let out = Outcome::default().table(&title, "M_F | d_F | guaranteed | agreement", &grid);
    let flash = scale.builder(GraphKind::Hnsw, Coding::Flash);
    let validate = |name: &str, params: FlashParams| {
        let (index, secs) = build(flash.clone().flash_params(params), w.base.clone());
        let recall = w.curve(index.as_ref(), Coding::Flash, &[128])[0].recall;
        let values = vec![params.m_f as f64, secs, recall, params.d_f as f64];
        (name.to_string(), values)
    };
    let rows = vec![validate("default", auto), validate("tuned", tuned.params)];
    let head = "config | M_F | build (s) | recall@10 at ef 128 | d_F";
    let out = out.table("Validation builds", head, &rows);
    let (d, t) = (&rows[0].1, &rows[1].1);
    let ours = format!("M_F {} → {}, recall {:.4} → {:.4}", d[0], t[0], d[2], t[2]);
    out.verdict(paper, ours, tuned_matches(d, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[&[f64]]) -> Rows {
        values.iter().map(|v| (String::new(), v.to_vec())).collect()
    }

    #[test]
    fn extension_predicates() {
        // ext1's verdict is `above_one(&[vamana, vamana / hcnng])`.
        assert!(above_one(&[2.0, 2.0 / 1.2]) && !above_one(&[2.0, 2.0 / 2.5]));
        assert!(rebuild_repairs([0.95, 0.88], 0.95, 2.0, 1.0));
        assert!(!rebuild_repairs([0.95, 0.96], 0.95, 2.0, 1.0));
        let specialized = rows(&[&[1.0, 0.5], &[2.0, 1.0]]);
        let falls = rows(&[&[0.25, 0.9, 900.0], &[0.02, 0.7, 300.0]]);
        let rises = rows(&[&[0.25, 0.9, 900.0], &[0.02, 0.95, 300.0]]);
        assert!(filtering_costs(&falls, &specialized) && !filtering_costs(&rises, &specialized));
        assert!(!filtering_costs(&falls, &rows(&[&[1.0, 1.5]])));
        assert!(opq_trade([1.0, 3.0, 0.5], [0.8, 0.85, 0.9]));
        assert!(!opq_trade([1.0, 0.9, 0.5], [0.8, 0.85, 0.9]));
        assert!(tuned_matches(&[16.0, 2.0, 0.95], &[8.0, 1.5, 0.945]));
        assert!(!tuned_matches(&[16.0, 2.0, 0.95], &[8.0, 1.5, 0.90]));
    }
}
