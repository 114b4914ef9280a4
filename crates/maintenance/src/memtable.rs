//! The mutable write buffer of the LSM pipeline.

use crate::Hit;
use graphs::k_best;
use vecstore::VectorSet;

/// An append-only buffer of recent inserts, searched by brute force.
///
/// Fresh vectors live here until the buffer reaches the configured
/// capacity, at which point [`crate::LsmVectorIndex`] seals it into an
/// immutable Flash-indexed [`crate::Segment`]. Brute force is the right
/// structure at this scale: the buffer is small and fully cache-resident,
/// so a linear scan beats graph overhead and needs no maintenance.
pub struct MemTable {
    vectors: VectorSet,
    ids: Vec<u64>,
    dead: Vec<bool>,
    live: usize,
}

impl MemTable {
    /// An empty buffer for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Self {
            vectors: VectorSet::new(dim),
            ids: Vec::new(),
            dead: Vec::new(),
            live: 0,
        }
    }

    /// Number of buffered vectors (live + tombstoned).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the buffer holds no vectors at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of live (non-deleted) vectors.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Appends a vector under an external id.
    pub fn insert(&mut self, id: u64, v: &[f32]) {
        self.vectors.push(v);
        self.ids.push(id);
        self.dead.push(false);
        self.live += 1;
    }

    /// Tombstones `id` if present and live; returns whether it did.
    pub fn delete(&mut self, id: u64) -> bool {
        for (i, &eid) in self.ids.iter().enumerate() {
            if eid == id && !self.dead[i] {
                self.dead[i] = true;
                self.live -= 1;
                return true;
            }
        }
        false
    }

    /// Whether `id` is present and live.
    pub fn contains(&self, id: u64) -> bool {
        self.ids
            .iter()
            .enumerate()
            .any(|(i, &eid)| eid == id && !self.dead[i])
    }

    /// Brute-force k-NN over the live vectors.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let hits: Vec<Hit> = self
            .vectors
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.dead[*i])
            .map(|(i, v)| Hit {
                id: self.ids[i],
                dist: simdops::l2_sq(query, v),
            })
            .collect();
        k_best(hits, k)
    }

    /// Drains the live contents for sealing, leaving the buffer empty.
    /// Returns `(vectors, ids)` with tombstoned entries dropped.
    pub fn drain_live(&mut self) -> (VectorSet, Vec<u64>) {
        let mut out = VectorSet::with_capacity(self.vectors.dim(), self.live);
        let mut ids = Vec::with_capacity(self.live);
        for (i, v) in self.vectors.iter().enumerate() {
            if !self.dead[i] {
                out.push(v);
                ids.push(self.ids[i]);
            }
        }
        self.vectors = VectorSet::new(self.vectors.dim());
        self.ids.clear();
        self.dead.clear();
        self.live = 0;
        (out, ids)
    }

    /// Iterates over the live `(id, vector)` pairs.
    pub fn iter_live(&self) -> impl Iterator<Item = (u64, &[f32])> + '_ {
        self.vectors
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.dead[*i])
            .map(|(i, v)| (self.ids[i], v))
    }

    /// Bytes held by the buffer (vectors + ids + tombstones).
    pub fn bytes(&self) -> usize {
        self.vectors.payload_bytes() + self.ids.len() * 8 + self.dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(points: &[(u64, [f32; 2])]) -> MemTable {
        let mut t = MemTable::new(2);
        for (id, v) in points {
            t.insert(*id, v);
        }
        t
    }

    #[test]
    fn insert_search_finds_nearest() {
        let t = table_with(&[(10, [0.0, 0.0]), (11, [5.0, 5.0]), (12, [1.0, 0.0])]);
        let hits = t.search(&[0.9, 0.1], 2);
        assert_eq!(hits[0].id, 12);
        assert_eq!(hits[1].id, 10);
    }

    #[test]
    fn delete_hides_vector() {
        let mut t = table_with(&[(1, [0.0, 0.0]), (2, [1.0, 1.0])]);
        assert!(t.delete(1));
        assert!(!t.delete(1), "double delete must be a no-op");
        assert!(!t.contains(1));
        assert_eq!(t.live(), 1);
        let hits = t.search(&[0.0, 0.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn drain_live_drops_tombstones_and_resets() {
        let mut t = table_with(&[(1, [0.0, 0.0]), (2, [1.0, 1.0]), (3, [2.0, 2.0])]);
        t.delete(2);
        let (vectors, ids) = t.drain_live();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(vectors.len(), 2);
        assert!(t.is_empty());
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn tied_distances_keep_the_full_sort_order() {
        // 60 points, each inserted five times under ids out of insertion
        // order: every distance is shared by five rows.
        let mut t = MemTable::new(2);
        let mut full = Vec::new();
        let q = [0.3, -0.2];
        for i in 0..300u64 {
            let p = (i % 60) as f32;
            let v = [p.sin(), 2.0 * p.cos()];
            let id = i * 7919 % 1009;
            t.insert(id, &v);
            let dist = simdops::l2_sq(&q, &v);
            full.push(Hit { id, dist });
        }
        full.sort_by(graphs::by_dist_then_id);
        assert_eq!(full[0].dist, full[4].dist, "ties at the top");
        for k in [0, 1, 4, 5, 6, 10, 299, 300, 301] {
            assert_eq!(t.search(&q, k), full[..k.min(300)], "k = {k}");
        }
    }

    #[test]
    fn search_empty_returns_nothing() {
        let t = MemTable::new(4);
        assert!(t.search(&[0.0; 4], 3).is_empty());
    }

    #[test]
    fn bytes_grow_with_inserts() {
        let mut t = MemTable::new(8);
        let before = t.bytes();
        t.insert(1, &[0.5; 8]);
        assert!(t.bytes() > before);
    }
}
