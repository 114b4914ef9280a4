//! Correctness gates. A failed gate counts as a failed operation, so it
//! reaches both `failed` and `correct` in the run's result.

use hnsw_flash::engine::Hit;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one attempted check and, unless `ok`, one failure.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Whether `hits` ascend by `(dist, id)` with no id repeated.
pub fn sorted_ascending(hits: &[Hit]) -> bool {
    hits.windows(2).all(|w| {
        w[0].dist
            .total_cmp(&w[1].dist)
            .then(w[0].id.cmp(&w[1].id))
            .is_lt()
    })
}

/// Whether two hit lists agree bit for bit.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// Mean share of each query's true `k` nearest neighbors that were found.
pub fn recall(found: &[Vec<u64>], truth: &[Vec<u64>], k: usize) -> f64 {
    assert_eq!(found.len(), truth.len(), "one result list per truth row");
    let mut hit = 0usize;
    let mut want = 0usize;
    for (f, t) in found.iter().zip(truth) {
        let t = &t[..k.min(t.len())];
        hit += t.iter().filter(|id| f.contains(id)).count();
        want += t.len();
    }
    hit as f64 / want.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u64, dist: f32) -> Hit {
        Hit { id, dist }
    }

    #[test]
    fn sortedness_orders_by_distance_then_id() {
        assert!(sorted_ascending(&[]));
        assert!(sorted_ascending(&[hit(5, 1.0), hit(2, 2.0)]));
        assert!(sorted_ascending(&[hit(2, 1.0), hit(5, 1.0)]));
        assert!(!sorted_ascending(&[hit(5, 1.0), hit(2, 1.0)]));
        assert!(!sorted_ascending(&[hit(1, 2.0), hit(2, 1.0)]));
        assert!(
            !sorted_ascending(&[hit(1, 1.0), hit(1, 1.0)]),
            "duplicate id"
        );
    }

    #[test]
    fn same_hits_is_bitwise() {
        assert!(same_hits(&[hit(1, 0.5)], &[hit(1, 0.5)]));
        assert!(!same_hits(&[hit(1, 0.5)], &[hit(1, 0.5000001)]));
        assert!(!same_hits(&[hit(1, 0.0)], &[hit(1, -0.0)]));
        assert!(!same_hits(&[hit(1, 0.5)], &[]));
    }

    #[test]
    fn recall_counts_found_neighbors() {
        let truth = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let found = vec![vec![4, 3, 9, 1], vec![5, 0, 0, 0]];
        assert_eq!(recall(&found, &truth, 4), 4.0 / 8.0);
        assert_eq!(recall(&found, &truth, 1), 2.0 / 2.0);
    }

    #[test]
    fn tally_counts_gates() {
        let mut t = Tally::default();
        t.ops(3);
        t.gate(true, || unreachable!());
        t.gate(false, || "broken".into());
        assert_eq!((t.attempted, t.failed), (5, 1));
        assert!(!t.correct());
        assert_eq!(t.failures, vec!["broken".to_string()]);
    }
}
