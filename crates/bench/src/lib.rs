//! The paper's evaluation (Section 4) as one registry of experiments.
//!
//! `repro [ID …]` runs the named [`EXPERIMENTS`] — all 22 without
//! arguments — and prints each one's markdown tables, then one `| id |
//! paper | ours | holds |` table: every statement the paper (or, for the
//! extensions, our expectation) makes, our value from the measured rows,
//! and whether its direction of effect holds here. A claim that does not
//! hold is a reported verdict, not an error.
//!
//! The scale is `FLASH_N` vectors per dataset (default 4000),
//! `FLASH_QUERIES` queries (100) and HNSW's `FLASH_C` / `FLASH_R` (128 /
//! 16); a variable that is set must be a positive integer. Every timing
//! here is one run, enough for a table's shape; timings with a protocol
//! (warm-up, repeats, medians, gates) are `benchmark/`'s.

mod build;
mod ext;
mod search;

use engine::{AnnIndex, Coding, GraphKind, IndexBuilder, SearchRequest};
use graphs::HnswParams;
use metrics::{average_distance_ratio, measure_qps, recall_at_k};
use std::fmt::Write as _;
use std::time::Instant;
use vecstore::{generate, ground_truth, DatasetProfile, Neighbor, VectorSet};

/// Experiment scale, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Database vectors per dataset.
    pub n: usize,
    /// Held-out queries.
    pub queries: usize,
    /// HNSW candidate bound `C`.
    pub c: usize,
    /// HNSW degree bound `R`.
    pub r: usize,
}

impl Scale {
    /// Reads `FLASH_N` / `FLASH_QUERIES` / `FLASH_C` / `FLASH_R`. A
    /// variable that is set but is not a positive integer ends the process
    /// with a message naming it — a table headed with a scale the user did
    /// not ask for is worse than no table.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            let raw = std::env::var_os(k).map(|v| v.to_string_lossy().into_owned());
            scale_value(k, raw.as_deref(), d).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
        };
        Self {
            n: get("FLASH_N", 4000),
            queries: get("FLASH_QUERIES", 100),
            c: get("FLASH_C", 128),
            r: get("FLASH_R", 16),
        }
    }

    /// The HNSW parameters for this scale.
    pub(crate) fn hnsw(&self) -> HnswParams {
        let (c, r) = (self.c, self.r);
        HnswParams { c, r, seed: 0xBEEF }
    }

    /// The engine builder for `graph` over `coding` at this scale, every
    /// codec parameter at the builder's default.
    pub(crate) fn builder(&self, graph: GraphKind, coding: Coding) -> IndexBuilder {
        let p = self.hnsw();
        IndexBuilder::new(graph, coding).c(p.c).r(p.r).seed(p.seed)
    }
}

/// One scale variable: `default` when unset, its value when it parses to a
/// positive integer, otherwise an error naming the variable and the value.
fn scale_value(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(parsed) if parsed > 0 => Ok(parsed),
            _ => Err(format!("{name}={v:?} is not a positive integer")),
        },
    }
}

/// One statement of the paper, our value beside it, and whether its
/// direction of effect holds in the measured rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The paper's statement and value.
    pub paper: &'static str,
    /// Our value, taken from the measured rows.
    pub ours: String,
    /// Whether the statement's direction of effect holds here.
    pub holds: bool,
}

/// Labeled rows of numbers: one table's body.
pub(crate) type Rows = Vec<(String, Vec<f64>)>;

/// What one experiment run produced: markdown tables and its claims.
#[derive(Debug, Default)]
pub struct Outcome {
    tables: String,
    claims: Vec<Claim>,
}

impl Outcome {
    /// Appends a table; `head` names its `|`-separated columns.
    fn table(mut self, title: &str, head: &str, rows: &Rows) -> Self {
        let align = "|---:".repeat(head.split(" | ").count() - 1);
        let _ = write!(self.tables, "### {title}\n\n| {head} |\n|---{align}|\n");
        for (label, values) in rows {
            let cells: Vec<String> = values.iter().map(|&v| num(v)).collect();
            let _ = writeln!(self.tables, "| {label} | {} |", cells.join(" | "));
        }
        self.tables.push('\n');
        self
    }

    /// Records the `paper` statement with our value and verdict.
    fn verdict(mut self, paper: &'static str, ours: String, holds: bool) -> Self {
        self.claims.push(Claim { paper, ours, holds });
        self
    }
}

/// `v` to five significant digits, trailing zeros dropped.
fn num(v: f64) -> String {
    let digits = (4.0 - v.abs().log10().floor()).clamp(0.0, 9.0) as usize;
    let s = format!("{v:.digits$}");
    match s.contains('.') {
        true => s.trim_end_matches('0').trim_end_matches('.').to_string(),
        false => s,
    }
}

/// One figure or table of the paper's evaluation.
pub struct Experiment {
    /// The figure or table it reproduces (`fig06`, `tab02`, …).
    pub id: &'static str,
    /// What it measures.
    pub title: &'static str,
    /// Runs the experiment at a scale; its outcome checks at least one claim.
    pub run: fn(Scale) -> Outcome,
}

impl Experiment {
    /// Runs the experiment: its tables, and its claims with our verdicts.
    pub fn execute(&self, scale: Scale) -> (String, Vec<Claim>) {
        let Outcome { tables, claims } = (self.run)(scale);
        assert!(!claims.is_empty(), "{} checks no claim", self.id);
        (tables, claims)
    }
}

/// Every experiment: the paper's figures and tables, then the extensions.
pub static EXPERIMENTS: [Experiment; 22] = [
    Experiment {
        id: "fig01",
        title: "Profile of baseline HNSW indexing time",
        run: build::fig01,
    },
    Experiment {
        id: "fig03",
        title: "Effect of PQ parameters on HNSW-PQ",
        run: search::fig03,
    },
    Experiment {
        id: "fig04",
        title: "Parameter effects on HNSW-SQ and HNSW-PCA",
        run: search::fig04,
    },
    Experiment {
        id: "fig06",
        title: "Indexing time of the five methods on all eight datasets",
        run: build::fig06,
    },
    Experiment {
        id: "fig07",
        title: "Index sizes of the five methods",
        run: build::fig07,
    },
    Experiment {
        id: "fig08",
        title: "QPS–recall of the five methods on all eight datasets",
        run: search::fig08,
    },
    Experiment {
        id: "fig09",
        title: "QPS–ADR of the five methods",
        run: search::fig09,
    },
    Experiment {
        id: "fig10",
        title: "Scalability over data volume",
        run: build::fig10,
    },
    Experiment {
        id: "fig11",
        title: "Scalability over segment count",
        run: build::fig11,
    },
    Experiment {
        id: "fig12",
        title: "Flash indexing time per SIMD tier",
        run: build::fig12,
    },
    Experiment {
        id: "fig13",
        title: "ADSampling and VBase on baseline vs Flash-built graphs",
        run: search::fig13,
    },
    Experiment {
        id: "fig14",
        title: "NSG and τ-MG with and without Flash",
        run: search::fig14,
    },
    Experiment {
        id: "fig15",
        title: "Profile of HNSW-Flash graph construction",
        run: build::fig15,
    },
    Experiment {
        id: "fig16",
        title: "Flash parameter sensitivity",
        run: search::fig16,
    },
    Experiment {
        id: "tab02",
        title: "Simulated L1 miss rate before vs after the Flash layout",
        run: build::tab02,
    },
    Experiment {
        id: "tab03",
        title: "Flash build time without vs with SIMD",
        run: build::tab03,
    },
    Experiment {
        id: "tab04",
        title: "Coding time vs total indexing time of HNSW-Flash",
        run: build::tab04,
    },
    Experiment {
        id: "ext1",
        title: "Vamana and HCNNG with and without Flash",
        run: ext::ext1,
    },
    Experiment {
        id: "ext2",
        title: "Update cycles: recall decay without rebuild vs periodic Flash rebuild",
        run: ext::ext2,
    },
    Experiment {
        id: "ext3",
        title: "Attribute-constrained ANNS: one filtered graph vs per-label graphs",
        run: ext::ext3,
    },
    Experiment {
        id: "ext4",
        title: "HNSW-OPQ vs HNSW-PQ vs HNSW-Flash",
        run: ext::ext4,
    },
    Experiment {
        id: "ext5",
        title: "Theorem-1 parameter tuning, validated by real builds",
        run: ext::ext5,
    },
];

/// The experiment named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The codings of the paper's main comparison in its figure order (A..E).
pub(crate) const METHODS: [Coding; 5] = {
    use Coding::*;
    [Flash, Pca, Sq, Pq, Full]
};

/// `f`'s result and its wall-clock seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Builds through `builder`, timed from codec training on, as the paper
/// times indexing.
pub(crate) fn build(builder: IndexBuilder, base: VectorSet) -> (Box<dyn AnnIndex>, f64) {
    timed(|| builder.build(base))
}

/// Ids of the hits `index` returns for `request`.
pub(crate) fn ids(index: &dyn AnnIndex, request: &SearchRequest) -> Vec<u32> {
    let hits = index.search(request).hits;
    hits.iter().map(|h| h.id as u32).collect()
}

/// The base beam a search with `ef` runs: a reranked search gathers a
/// pool of `k · rerank` and never beams narrower than its pool.
pub(crate) fn effective_beam(ef: usize, k: usize, rerank: usize) -> usize {
    ef.max(k * rerank.max(1))
}

/// The corpus and queries of one paper dataset at the harness scale.
pub(crate) fn dataset(profile: DatasetProfile, scale: Scale) -> (VectorSet, VectorSet) {
    generate(&profile.spec(), scale.n, scale.queries, 0xDA7A)
}

/// One row per dataset of `sets`: its name and `row(profile)`.
pub(crate) fn per_dataset(
    sets: &[DatasetProfile],
    row: impl FnMut(DatasetProfile) -> Vec<f64>,
) -> Rows {
    let names = sets.iter().map(|p| p.name().to_string());
    names.zip(sets.iter().copied().map(row)).collect()
}

/// Column `i` of `rows`.
pub(crate) fn col(rows: &Rows, i: usize) -> Vec<f64> {
    rows.iter().map(|(_, values)| values[i]).collect()
}

/// One point of a QPS–recall curve: the effective base beam, recall@k,
/// the answers' average distance ratio (1.0 is exact), one-thread QPS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Point {
    pub(crate) beam: usize,
    pub(crate) recall: f64,
    pub(crate) adr: f64,
    pub(crate) qps: f64,
}

/// The first point — the smallest beam — whose recall reaches `target`.
pub(crate) fn at_recall(points: &[Point], target: f64) -> Option<Point> {
    points.iter().copied().find(|p| p.recall >= target)
}

/// Answers one query at a beam width.
pub(crate) type Search<'a> = &'a dyn Fn(&[f32], usize) -> Vec<u32>;

/// A corpus, its queries, and their exact top-`k` answers.
#[derive(Clone)]
pub(crate) struct Workload {
    pub(crate) base: VectorSet,
    pub(crate) queries: VectorSet,
    pub(crate) truth: Vec<Vec<Neighbor>>,
    pub(crate) k: usize,
}

impl Workload {
    /// `profile`'s dataset at `scale` with its exact top-`k` answers.
    pub(crate) fn new(profile: DatasetProfile, scale: Scale, k: usize) -> Self {
        let (base, queries) = dataset(profile, scale);
        let truth = ground_truth(&base, &queries, k);
        Self {
            base,
            queries,
            truth,
            k,
        }
    }

    /// `index`'s curve over `efs` through `coding`'s standard pipeline:
    /// compressed codings rerank on the original vectors.
    pub(crate) fn curve(&self, index: &dyn AnnIndex, coding: Coding, efs: &[usize]) -> Vec<Point> {
        let rerank = coding.default_rerank();
        let request = |q: &[f32], ef| SearchRequest::new(q, self.k).ef(ef).rerank(rerank);
        self.sweep(efs, rerank, &|q, ef| ids(index, &request(q, ef)))
    }

    /// One point per distinct effective beam of `efs` (ascending) under
    /// `rerank`; `search(query, beam)` answers one query.
    pub(crate) fn sweep(&self, efs: &[usize], rerank: usize, search: Search) -> Vec<Point> {
        let mut points: Vec<Point> = Vec::new();
        for beam in efs.iter().map(|&ef| effective_beam(ef, self.k, rerank)) {
            if points.last().is_none_or(|p| p.beam != beam) {
                points.push(self.point(beam, search));
            }
        }
        points
    }

    fn point(&self, beam: usize, search: Search) -> Point {
        let (queries, k) = (&self.queries, self.k);
        let mut found = Vec::new();
        let run = |qi| found.push(search(queries.get(qi), beam));
        let qps = measure_qps(queries.len(), run).qps();
        // ADR is defined on the true geometry, not a coding's estimate.
        let mut dists = Vec::new();
        for (q, ids) in queries.iter().zip(&found) {
            let exact = |&id: &u32| simdops::l2_sq(q, self.base.get(id as usize));
            let mut d: Vec<f32> = ids.iter().map(exact).collect();
            d.sort_by(f32::total_cmp);
            dists.push(d);
        }
        let recall = recall_at_k(&found, &self.truth, k).recall();
        let adr = average_distance_ratio(&dists, &self.truth, k);
        Point {
            beam,
            recall,
            adr,
            qps,
        }
    }
}

/// `lo–hi` of `values` at `prec` decimals.
pub(crate) fn span(values: impl IntoIterator<Item = f64>, prec: usize) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        (lo, hi) = (lo.min(v), hi.max(v));
    }
    format!("{lo:.prec$}–{hi:.prec$}")
}

/// Whether the last value exceeds the first.
pub(crate) fn rises(values: &[f64]) -> bool {
    values.len() > 1 && values[values.len() - 1] > values[0]
}

/// Whether there are ratios and every one exceeds 1.
pub(crate) fn above_one(ratios: &[f64]) -> bool {
    !ratios.is_empty() && ratios.iter().all(|&s| s > 1.0)
}

/// Whether every value lies in `lo..hi`.
pub(crate) fn within(values: &[f64], lo: f64, hi: f64) -> bool {
    values.iter().all(|v| (lo..hi).contains(v))
}

/// Whether the largest value lies strictly inside the sequence.
pub(crate) fn peaks_inside(values: &[f64]) -> bool {
    let best = (0..values.len()).max_by(|&a, &b| values[a].total_cmp(&values[b]));
    best.is_some_and(|i| i > 0 && i + 1 < values.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The smallest scale every experiment runs at.
    pub(crate) const SMOKE: Scale = Scale {
        n: 300,
        queries: 5,
        c: 32,
        r: 8,
    };

    #[test]
    fn scale_value_keeps_the_default_only_when_unset() {
        assert_eq!(scale_value("FLASH_N", None, 4000), Ok(4000));
        assert_eq!(scale_value("FLASH_N", Some("8000"), 4000), Ok(8000));
        for bad in ["8k", "0", "", "-5", "1e4"] {
            let err = scale_value("FLASH_N", Some(bad), 4000).unwrap_err();
            assert!(err.contains("FLASH_N") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn scale_defaults() {
        let s = Scale::from_env();
        assert!(s.n > 0 && s.queries > 0 && s.c >= s.r);
    }

    #[test]
    fn registry_has_22_unique_ids() {
        let ids: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 22);
        for e in &EXPERIMENTS {
            assert!(std::ptr::eq(find(e.id).unwrap(), e));
        }
        assert!(find("fig02").is_none());
    }

    #[test]
    fn numbers_keep_five_significant_digits() {
        let cells = [0.975, 1.0, 1.00031, 29644.3, 0.0712345, 80.0, 0.0];
        let want = ["0.975", "1", "1.0003", "29644", "0.071235", "80", "0"];
        assert_eq!(cells.map(num), want);
    }

    #[test]
    fn all_methods_build_and_search_tiny() {
        let w = Workload::new(DatasetProfile::SsnppLike, SMOKE, 3);
        for coding in METHODS {
            let (index, took) = build(SMOKE.builder(GraphKind::Hnsw, coding), w.base.clone());
            assert!(took > 0.0);
            let request = SearchRequest::new(w.queries.get(0), 3).ef(32);
            let hits = index.search(&request.rerank(coding.default_rerank())).hits;
            assert_eq!(hits.len(), 3, "{coding}");
            let points = w.curve(index.as_ref(), coding, &[32]);
            assert!(points[0].recall > 0.0, "{coding}");
            assert!(index.memory_bytes() > 0);
        }
    }

    #[test]
    fn curves_run_each_effective_beam_once() {
        let w = Workload::new(DatasetProfile::SsnppLike, SMOKE, 10);
        let (index, _) = build(
            SMOKE.builder(GraphKind::Hnsw, Coding::Flash),
            w.base.clone(),
        );
        // Flash reranks 8 · k = 80: ef 16, 32 and 64 all run a beam of 80.
        let points = w.curve(index.as_ref(), Coding::Flash, &[16, 32, 64, 128]);
        let beams: Vec<usize> = points.iter().map(|p| p.beam).collect();
        assert_eq!(beams, [80, 128]);
        assert_eq!(effective_beam(16, 10, 4), 40);
        assert_eq!(effective_beam(64, 10, 1), 64);
        assert_eq!(at_recall(&points, 0.0).unwrap().beam, 80);
        assert!(at_recall(&points, 1.1).is_none());
    }

    #[test]
    fn shape_predicates() {
        assert!(rises(&[1.0, 0.5, 2.0]) && !rises(&[2.0, 3.0, 1.0]) && !rises(&[1.0]));
        assert!(peaks_inside(&[0.5, 0.9, 0.7]) && !peaks_inside(&[0.5, 0.7, 0.9]));
        assert!(above_one(&[1.5, 11.0]) && !above_one(&[1.5, 0.9]) && !above_one(&[]));
        // Figure 1 (distance ≥ 50 %), Figure 15 (< 50 %), Table 4 (< 20 %).
        assert!(within(&[90.8, 60.0], 50.0, 100.0) && !within(&[90.8, 40.0], 50.0, 100.0));
        assert!(within(&[12.0, 30.0], 0.0, 50.0) && !within(&[12.0, 91.0], 0.0, 50.0));
        assert!(within(&[3.0, 16.0], 0.0, 20.0) && !within(&[3.0, 38.0], 0.0, 20.0));
        assert_eq!(span([2.0, 1.26, 3.5], 1), "1.3–3.5");
    }
}
