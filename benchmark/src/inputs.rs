//! Seeded inputs: corpus, query stream, Zipf draws and churn schedule.
//!
//! Everything the program under test receives derives from `--seed`; the
//! generators here use the benchmark's own RNG so that a change to the
//! repository's `rand` stand-in cannot silently change the inputs.

use crate::span::Recorder;
use hnsw_flash::vecstore::{generate, ground_truth, DatasetProfile, VectorSet};

/// SplitMix64: small, seedable, and stable across toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from its siblings by `tag`.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// `count` draws from Zipf(`s`) over `0..items` (rank 0 most popular),
/// by inverse transform over the exact cumulative weights.
pub fn zipf_stream(items: usize, s: f64, count: usize, rng: &mut Rng) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(items);
    let mut acc = 0.0;
    for rank in 1..=items {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(items - 1) as u32
        })
        .collect()
}

/// Hit rate an LRU of `capacity` entries reaches on `stream`, every miss
/// filling the cache — the benchmark's own model of `serving::QueryCache`,
/// used to assert the measured hit rate rather than trust it.
pub fn lru_hit_rate(stream: &[u32], capacity: usize) -> f64 {
    let mut resident: Vec<u32> = Vec::with_capacity(capacity + 1);
    let mut hits = 0usize;
    for &q in stream {
        if let Some(pos) = resident.iter().position(|&r| r == q) {
            resident.remove(pos);
            hits += 1;
        } else if resident.len() == capacity {
            resident.remove(0);
        }
        resident.push(q);
    }
    hits as f64 / stream.len().max(1) as f64
}

/// Sizes of one insert/delete/search churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    pub preload: usize,
    pub cycles: usize,
    pub inserts: usize,
    pub deletes: usize,
    pub searches: usize,
}

impl ChurnPlan {
    /// Vectors the stream inserts in total.
    pub fn total_inserts(&self) -> usize {
        self.preload + self.cycles * self.inserts
    }
}

/// One step of a churn stream. Ids are the ones `LsmVectorIndex::insert`
/// will hand out (`0, 1, 2, …` in insert order), so the whole schedule is
/// known before the index exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Insert corpus row `row` (it receives id `row`).
    Insert { row: u32 },
    /// Delete the live id `id`.
    Delete { id: u64 },
    /// Search with query `query` of the query set.
    Search { query: u32 },
    /// End of cycle `cycle`: a recall checkpoint may follow.
    EndCycle { cycle: u32 },
}

/// Lowers `plan` into its operation list over `queries` distinct queries.
pub fn churn_schedule(plan: &ChurnPlan, queries: usize, rng: &mut Rng) -> Vec<ChurnOp> {
    let mut ops = Vec::new();
    let mut live: Vec<u64> = Vec::with_capacity(plan.total_inserts());
    let mut next_row = 0u32;
    let mut next_query = 0usize;
    let mut insert = |ops: &mut Vec<ChurnOp>, live: &mut Vec<u64>| {
        ops.push(ChurnOp::Insert { row: next_row });
        live.push(u64::from(next_row));
        next_row += 1;
    };
    for _ in 0..plan.preload {
        insert(&mut ops, &mut live);
    }
    for cycle in 0..plan.cycles {
        for _ in 0..plan.inserts {
            insert(&mut ops, &mut live);
        }
        for _ in 0..plan.deletes.min(live.len().saturating_sub(1)) {
            let id = live.swap_remove(rng.below(live.len()));
            ops.push(ChurnOp::Delete { id });
        }
        for _ in 0..plan.searches {
            ops.push(ChurnOp::Search {
                query: (next_query % queries) as u32,
            });
            next_query += 1;
        }
        ops.push(ChurnOp::EndCycle {
            cycle: cycle as u32,
        });
    }
    ops
}

/// A generated dataset: database, held-out queries, and exact neighbors of
/// the first `truth.len()` queries.
pub struct Corpus {
    pub base: VectorSet,
    pub queries: VectorSet,
    pub truth: Vec<Vec<u64>>,
}

/// Generates `n` database vectors, `nq` queries and the exact `k` nearest
/// neighbors of the first `truth_q` queries, each call under its own span.
pub fn make_corpus(
    profile: DatasetProfile,
    n: usize,
    nq: usize,
    truth_q: usize,
    k: usize,
    seed: u64,
    rec: &Recorder,
) -> Corpus {
    let corpus_seed = Rng::new(seed, "corpus").next_u64();
    let (base, queries) = rec.span("vecstore.generate", || {
        generate(&profile.spec(), n, nq, corpus_seed)
    });
    let head = queries.slice(0, truth_q.min(nq));
    let truth = rec.span("vecstore.ground_truth", || ground_truth(&base, &head, k));
    Corpus {
        base,
        queries,
        truth: truth
            .into_iter()
            .map(|row| row.into_iter().map(|nb| u64::from(nb.id)).collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of_zipf(seed: u64) -> Vec<u8> {
        zipf_stream(500, 1.1, 4_000, &mut Rng::new(seed, "zipf"))
            .iter()
            .flat_map(|q| q.to_le_bytes())
            .collect()
    }

    #[test]
    fn zipf_is_byte_identical_per_seed_and_differs_across_seeds() {
        assert_eq!(bytes_of_zipf(7), bytes_of_zipf(7));
        assert_ne!(bytes_of_zipf(7), bytes_of_zipf(8));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let draws = zipf_stream(100, 1.1, 20_000, &mut Rng::new(3, "zipf"));
        assert!(draws.iter().all(|&q| q < 100));
        let top = draws.iter().filter(|&&q| q == 0).count();
        let tail = draws.iter().filter(|&&q| q == 99).count();
        assert!(top > 20 * tail.max(1), "rank 0 {top} vs rank 99 {tail}");
    }

    #[test]
    fn lru_model_counts_hits() {
        assert_eq!(lru_hit_rate(&[1, 1, 1, 1], 1), 0.75);
        // Capacity 1 thrashes on an alternating stream; capacity 2 holds it.
        assert_eq!(lru_hit_rate(&[1, 2, 1, 2], 1), 0.0);
        assert_eq!(lru_hit_rate(&[1, 2, 1, 2], 2), 0.5);
        // LRU order: touching 1 makes 2 the eviction victim.
        assert_eq!(lru_hit_rate(&[1, 2, 1, 3, 1, 2], 2), 2.0 / 6.0);
    }

    fn plan() -> ChurnPlan {
        ChurnPlan {
            preload: 64,
            cycles: 3,
            inserts: 32,
            deletes: 8,
            searches: 5,
        }
    }

    #[test]
    fn churn_schedule_is_identical_per_seed_and_differs_across_seeds() {
        let a = churn_schedule(&plan(), 10, &mut Rng::new(1, "churn"));
        let b = churn_schedule(&plan(), 10, &mut Rng::new(1, "churn"));
        let c = churn_schedule(&plan(), 10, &mut Rng::new(2, "churn"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn churn_schedule_deletes_only_live_ids_once() {
        let ops = churn_schedule(&plan(), 10, &mut Rng::new(5, "churn"));
        let mut live = std::collections::BTreeSet::new();
        let (mut inserts, mut deletes, mut searches) = (0, 0, 0);
        for op in &ops {
            match *op {
                ChurnOp::Insert { row } => {
                    assert_eq!(row as usize, inserts, "rows are consumed in order");
                    live.insert(u64::from(row));
                    inserts += 1;
                }
                ChurnOp::Delete { id } => {
                    assert!(live.remove(&id), "delete of a dead id {id}");
                    deletes += 1;
                }
                ChurnOp::Search { query } => {
                    assert!(query < 10);
                    searches += 1;
                }
                ChurnOp::EndCycle { .. } => {}
            }
        }
        assert_eq!(inserts, plan().total_inserts());
        assert_eq!(deletes, 3 * 8);
        assert_eq!(searches, 3 * 5);
    }
}
