//! The insert/delete/search stream through `maintenance::LsmVectorIndex`,
//! checked against the benchmark's own mirror of the live set.

use crate::check::{recall, Tally};
use crate::inputs::{ChurnOp, Corpus};
use crate::query::Samples;
use crate::span::Recorder;
use crate::spec::Spec;
use hnsw_flash::engine::{AnnIndex, SearchRequest};
use hnsw_flash::maintenance::{LsmConfig, LsmVectorIndex, RebuildReport};
use hnsw_flash::simdops::l2_sq;
use hnsw_flash::vecstore::VectorSet;
use std::time::Instant;

/// Searches per checkpoint cycle that are compared with brute force.
const CHECKED_PER_CYCLE: usize = 100;
/// Recall a checkpoint may not fall below. It is the LSM index's own floor
/// (many small flash segments, 100 queries), not the workload's leaf's:
/// every traced run replays a churn stream over its workload's corpus, and
/// forty seeds of the four corpora gave 0.984-1.0. The floor catches a
/// broken index; `recall_at_10` is gated as a metric besides.
const CHECKPOINT_RECALL_FLOOR: f64 = 0.93;
/// What the stream measured.
pub struct ChurnOutcome {
    /// The index after `rebuild()`.
    pub index: LsmVectorIndex,
    /// Which corpus rows (= ids) are live at the end.
    pub alive: Vec<bool>,
    pub inserts: usize,
    /// Wall of every insert call, flush stalls included.
    pub insert_wall_s: f64,
    /// Latencies of inserts that did not seal a segment.
    pub insert_us: Vec<f64>,
    /// Latencies of inserts that sealed a segment (the flush stalls).
    pub flush_s: Vec<f64>,
    /// In-stream searches, one pass per cycle.
    pub searches: Samples,
    /// Search latency divided by the segments searched.
    pub search_us_per_segment: Vec<f64>,
    pub segments_max: usize,
    pub dead_fraction_max: f64,
    /// `(queries checked, recall)` at each checkpoint cycle.
    pub checkpoints: Vec<(usize, f64)>,
    /// `bytes() / live` at the end of the stream, before the rebuild.
    pub bytes_per_vector: f64,
    pub rebuild: RebuildReport,
    /// Wall of the `rebuild()` call that ends the stream: it merges the
    /// segments and drops the tombstones.
    pub rebuild_s: f64,
}

/// Exact `k` nearest live rows of `query`, as ids sorted by `(dist, id)`.
pub fn brute_force(base: &VectorSet, alive: &[bool], query: &[f32], k: usize) -> Vec<u64> {
    let mut all: Vec<(f32, u64)> = alive
        .iter()
        .enumerate()
        .filter(|(_, &live)| live)
        .map(|(row, _)| (l2_sq(query, base.get(row)), row as u64))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(_, id)| id).collect()
}

/// Every id the index has handed out must be `contains`-visible exactly
/// when the mirror says it is live.
fn check_membership(index: &LsmVectorIndex, alive: &[bool], when: &str, tally: &mut Tally) {
    let wrong = alive
        .iter()
        .enumerate()
        .filter(|&(id, &live)| index.contains(id as u64) != live)
        .count();
    tally.ops(alive.len());
    for _ in 0..wrong {
        tally.fail(format!("{when}: `contains` disagrees with the mirror"));
    }
}

/// Runs `schedule` over `corpus`; cycles listed in `checkpoints` compare
/// their first searches with brute force over the mirror.
pub fn run_churn(
    spec: &Spec,
    corpus: &Corpus,
    schedule: &[ChurnOp],
    checkpoints: &[u32],
    rec: &Recorder,
    tally: &mut Tally,
) -> ChurnOutcome {
    let mut index = LsmVectorIndex::new(LsmConfig::for_dim(corpus.base.dim()));
    let mut alive: Vec<bool> = Vec::with_capacity(spec.churn.total_inserts());
    let (mut inserts, mut insert_wall_s) = (0usize, 0.0f64);
    let (mut insert_us, mut flush_s) = (Vec::new(), Vec::new());
    let mut searches = Samples::default();
    let (mut cycle_us, mut cycle_wall_s) = (Vec::new(), 0.0f64);
    let mut search_us_per_segment = Vec::new();
    let (mut segments_max, mut dead_fraction_max) = (0usize, 0.0f64);
    let mut checked = Vec::new();
    let mut cycle_found: Vec<(u32, Vec<u64>)> = Vec::new();

    for op in schedule {
        rec.next_op();
        match *op {
            ChurnOp::Insert { row } => {
                let segments = index.segments().len();
                let v = corpus.base.get(row as usize);
                let t0 = Instant::now();
                let id = rec.span("maintenance.insert", || index.insert(v));
                let took = t0.elapsed().as_secs_f64();
                inserts += 1;
                insert_wall_s += took;
                if index.segments().len() > segments {
                    flush_s.push(took);
                } else {
                    insert_us.push(took * 1e6);
                }
                alive.push(true);
                tally.gate(id == u64::from(row), || {
                    format!("insert of row {row} was given id {id}")
                });
            }
            ChurnOp::Delete { id } => {
                let deleted = rec.span("maintenance.delete", || index.delete(id));
                alive[id as usize] = false;
                tally.gate(deleted, || format!("delete of live id {id} was refused"));
            }
            ChurnOp::Search { query } => {
                let request = SearchRequest::new(corpus.queries.get(query as usize), spec.k)
                    .ef(spec.ef)
                    .rerank(spec.rerank);
                let segments = index.segments().len().max(1);
                let t0 = Instant::now();
                let response =
                    rec.span("maintenance.search", || AnnIndex::search(&index, &request));
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                cycle_us.push(us);
                cycle_wall_s += us / 1e6;
                search_us_per_segment.push(us / segments as f64);
                tally.gate(crate::check::sorted_ascending(&response.hits), || {
                    format!("churn query {query}: hits not sorted by (dist, id)")
                });
                let dead = response
                    .hits
                    .iter()
                    .filter(|h| !alive.get(h.id as usize).copied().unwrap_or(false))
                    .count();
                tally.gate(dead == 0, || {
                    format!("churn query {query} returned {dead} deleted ids")
                });
                if cycle_found.len() < CHECKED_PER_CYCLE {
                    cycle_found.push((query, response.ids()));
                }
            }
            ChurnOp::EndCycle { cycle } => {
                let stats = index.stats();
                segments_max = segments_max.max(stats.segments);
                let dead = stats.dead as f64 / (stats.live + stats.dead).max(1) as f64;
                dead_fraction_max = dead_fraction_max.max(dead);
                if checkpoints.contains(&cycle) && !cycle_found.is_empty() {
                    let truth: Vec<Vec<u64>> = cycle_found
                        .iter()
                        .map(|(q, _)| {
                            brute_force(
                                &corpus.base,
                                &alive,
                                corpus.queries.get(*q as usize),
                                spec.k,
                            )
                        })
                        .collect();
                    let found: Vec<Vec<u64>> =
                        cycle_found.iter().map(|(_, ids)| ids.clone()).collect();
                    let r = recall(&found, &truth, spec.k);
                    println!(
                        "# churn recall at cycle {cycle}: {r:.4} over {} queries",
                        found.len()
                    );
                    tally.gate(r >= CHECKPOINT_RECALL_FLOOR, || {
                        format!("recall {r:.4} at cycle {cycle} is below {CHECKPOINT_RECALL_FLOOR}")
                    });
                    checked.push((found.len(), r));
                }
                cycle_found.clear();
                if !cycle_us.is_empty() {
                    searches.push_pass(std::mem::take(&mut cycle_us), cycle_wall_s);
                    cycle_wall_s = 0.0;
                }
            }
        }
    }
    tally.ops(schedule.len());

    check_membership(&index, &alive, "before rebuild", tally);
    let live = alive.iter().filter(|&&a| a).count();
    let bytes_per_vector = index.bytes() as f64 / live.max(1) as f64;

    rec.next_op();
    let t0 = Instant::now();
    let rebuild = rec.span("maintenance.rebuild", || index.rebuild());
    let rebuild_s = t0.elapsed().as_secs_f64();
    tally.ops(1);
    tally.gate(rebuild.vectors == live, || {
        format!(
            "rebuild kept {} vectors, mirror has {live}",
            rebuild.vectors
        )
    });
    check_membership(&index, &alive, "after rebuild", tally);

    ChurnOutcome {
        index,
        alive,
        inserts,
        insert_wall_s,
        insert_us,
        flush_s,
        searches,
        search_us_per_segment,
        segments_max,
        dead_fraction_max,
        checkpoints: checked,
        bytes_per_vector,
        rebuild,
        rebuild_s,
    }
}
