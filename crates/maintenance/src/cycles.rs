//! The update-cycle simulator: measures how search quality decays when
//! rebuilds are skipped and what a periodic rebuild costs.
//!
//! One *cycle* replaces a fraction of the corpus: `churn` of the live
//! vectors are deleted and the same number of fresh vectors inserted (the
//! paper's motivating scenario of continuous data/model updates). After
//! each cycle the simulator measures recall@k against the *current* live
//! ground truth, so the number directly tracks what a user would see.

use crate::lsm::{LsmConfig, LsmVectorIndex};
use crate::Hit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Workload description for [`simulate_cycles`].
#[derive(Debug, Clone, Copy)]
pub struct CycleWorkload {
    /// Initial corpus size.
    pub n: usize,
    /// Fraction of live vectors replaced each cycle (e.g. `0.05`).
    pub churn: f64,
    /// Number of update cycles.
    pub cycles: usize,
    /// Queries per measurement.
    pub queries: usize,
    /// Recall@k.
    pub k: usize,
    /// Beam width for measurement searches.
    pub ef: usize,
    /// Rebuild every `rebuild_every` cycles; `0` disables rebuilds.
    pub rebuild_every: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One measured point of the cycle simulation.
#[derive(Debug, Clone, Copy)]
pub struct CyclePoint {
    /// Cycle number (0 = right after the initial load).
    pub cycle: usize,
    /// Recall@k against the live ground truth.
    pub recall: f64,
    /// Mean search latency over the measurement queries.
    pub latency: Duration,
    /// Segments serving queries at measurement time.
    pub segments: usize,
    /// Tombstoned vertices still in graphs.
    pub dead: usize,
    /// Time spent rebuilding during this cycle (zero when none ran).
    pub rebuild_time: Duration,
}

/// Runs the update-cycle workload over a generator of fresh vectors and
/// returns one [`CyclePoint`] per cycle (plus the initial point 0).
pub fn simulate_cycles(
    config: LsmConfig,
    workload: CycleWorkload,
    mut fresh: impl FnMut(&mut SmallRng) -> Vec<f32>,
) -> Vec<CyclePoint> {
    assert!(workload.n > 0, "empty initial corpus");
    assert!(
        (0.0..=1.0).contains(&workload.churn),
        "churn must be a fraction"
    );
    let mut rng = SmallRng::seed_from_u64(workload.seed);
    let mut index = LsmVectorIndex::new(config);
    let mut live_ids: Vec<u64> = Vec::with_capacity(workload.n);
    let mut vectors_by_id: Vec<(u64, Vec<f32>)> = Vec::with_capacity(workload.n);

    for _ in 0..workload.n {
        let v = fresh(&mut rng);
        let id = index.insert(&v);
        live_ids.push(id);
        vectors_by_id.push((id, v));
    }
    index.flush();

    let mut points = Vec::with_capacity(workload.cycles + 1);
    points.push(measure(
        &index,
        &vectors_by_id,
        &workload,
        &mut rng,
        0,
        Duration::ZERO,
    ));

    let per_cycle = ((workload.n as f64 * workload.churn).round() as usize).max(1);
    for cycle in 1..=workload.cycles {
        // Delete `per_cycle` random live vectors…
        for _ in 0..per_cycle {
            if live_ids.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..live_ids.len());
            let id = live_ids.swap_remove(pick);
            index.delete(id);
            vectors_by_id.retain(|(eid, _)| *eid != id);
        }
        // …and insert the same number of fresh ones.
        for _ in 0..per_cycle {
            let v = fresh(&mut rng);
            let id = index.insert(&v);
            live_ids.push(id);
            vectors_by_id.push((id, v));
        }
        index.flush();

        let rebuild_time = if workload.rebuild_every > 0 && cycle % workload.rebuild_every == 0 {
            index.rebuild().duration
        } else {
            Duration::ZERO
        };

        points.push(measure(
            &index,
            &vectors_by_id,
            &workload,
            &mut rng,
            cycle,
            rebuild_time,
        ));
    }
    points
}

/// Measures recall@k and latency over `workload.queries` random live
/// vectors perturbed into queries, with exact ground truth by linear scan.
fn measure(
    index: &LsmVectorIndex,
    live: &[(u64, Vec<f32>)],
    workload: &CycleWorkload,
    rng: &mut SmallRng,
    cycle: usize,
    rebuild_time: Duration,
) -> CyclePoint {
    let mut hit = 0usize;
    let mut total = 0usize;
    let mut elapsed = Duration::ZERO;
    for _ in 0..workload.queries {
        // Query = a live vector plus small noise, so ground truth is
        // non-trivial but anchored to the current corpus.
        let (_, anchor) = &live[rng.gen_range(0..live.len())];
        let q: Vec<f32> = anchor
            .iter()
            .map(|&x| x + rng.gen_range(-0.05..0.05f32))
            .collect();

        let truth = exact_topk(live, &q, workload.k);
        let start = std::time::Instant::now();
        let found = index.search(&q, workload.k, workload.ef);
        elapsed += start.elapsed();
        let found_ids: Vec<u64> = found.iter().map(|h| h.id).collect();
        total += truth.len();
        hit += truth.iter().filter(|t| found_ids.contains(&t.id)).count();
    }
    let stats = index.stats();
    CyclePoint {
        cycle,
        recall: if total == 0 {
            1.0
        } else {
            hit as f64 / total as f64
        },
        latency: elapsed / workload.queries.max(1) as u32,
        segments: stats.segments,
        dead: stats.dead,
        rebuild_time,
    }
}

/// Exact k-NN over the live `(id, vector)` pairs.
fn exact_topk(live: &[(u64, Vec<f32>)], q: &[f32], k: usize) -> Vec<Hit> {
    let all: Vec<Hit> = live
        .iter()
        .map(|(id, v)| Hit {
            id: *id,
            dist: simdops::l2_sq(q, v),
        })
        .collect();
    graphs::k_best(all, k)
}

/// Convenience generator: clustered Gaussian vectors matching the dataset
/// profiles used across the experiment suite.
pub fn gaussian_generator(dim: usize) -> impl FnMut(&mut SmallRng) -> Vec<f32> {
    // A handful of fixed cluster centers; fresh vectors sample one center
    // plus noise, so the distribution stays stationary across cycles.
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|c| {
            let mut r = SmallRng::seed_from_u64(0xC0FFEE ^ c);
            (0..dim).map(|_| r.gen_range(-1.0..1.0f32)).collect()
        })
        .collect();
    move |rng: &mut SmallRng| {
        let c = &centers[rng.gen_range(0..centers.len())];
        c.iter()
            .map(|&x| x + rng.gen_range(-0.25..0.25f32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(cycles: usize, rebuild_every: usize) -> CycleWorkload {
        CycleWorkload {
            n: 600,
            churn: 0.10,
            cycles,
            queries: 12,
            k: 5,
            ef: 48,
            rebuild_every,
            seed: 42,
        }
    }

    fn config() -> LsmConfig {
        let mut c = LsmConfig::for_dim(16);
        c.memtable_cap = 256;
        c.hnsw = graphs::HnswParams {
            c: 48,
            r: 8,
            seed: 9,
        };
        c
    }

    #[test]
    fn produces_one_point_per_cycle_plus_initial() {
        let points = simulate_cycles(config(), workload(4, 0), gaussian_generator(16));
        assert_eq!(points.len(), 5);
        assert_eq!(points[0].cycle, 0);
        assert_eq!(points[4].cycle, 4);
    }

    #[test]
    fn initial_recall_is_high() {
        let points = simulate_cycles(config(), workload(0, 0), gaussian_generator(16));
        assert!(
            points[0].recall >= 0.85,
            "initial recall {}",
            points[0].recall
        );
    }

    #[test]
    fn without_rebuild_segments_and_tombstones_accumulate() {
        let points = simulate_cycles(config(), workload(6, 0), gaussian_generator(16));
        let last = points.last().unwrap();
        assert!(last.segments > points[0].segments, "segments must grow");
        assert!(last.dead > 0, "tombstones must accumulate");
    }

    #[test]
    fn rebuild_resets_segments_and_tombstones() {
        let points = simulate_cycles(config(), workload(4, 2), gaussian_generator(16));
        // Cycles 2 and 4 rebuild: one segment, zero tombstones afterwards.
        for p in points.iter().filter(|p| p.cycle > 0 && p.cycle % 2 == 0) {
            assert_eq!(p.segments, 1, "cycle {}: {} segments", p.cycle, p.segments);
            assert_eq!(p.dead, 0, "cycle {}: {} tombstones", p.cycle, p.dead);
            assert!(p.rebuild_time > Duration::ZERO);
        }
    }

    #[test]
    fn rebuilt_index_maintains_recall() {
        let with = simulate_cycles(config(), workload(6, 2), gaussian_generator(16));
        let last = with.last().unwrap();
        assert!(last.recall >= 0.80, "post-rebuild recall {}", last.recall);
    }
}
