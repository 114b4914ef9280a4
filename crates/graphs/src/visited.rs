//! Reusable epoch-stamped visited sets.
//!
//! Every CA search needs a "have I seen this vertex" set. Allocating a
//! bitmap per insert would dominate small-graph builds, so the pooled
//! [`crate::scratch::SearchScratch`] carries an epoch-stamped array:
//! marking writes the current epoch, and a new traversal just bumps the
//! epoch instead of clearing.

/// One epoch-stamped visited array.
pub struct VisitedList {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedList {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            stamps: vec![0; n],
            epoch: 0,
        }
    }

    /// Starts a fresh traversal (O(1) except on epoch wrap).
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear once every 2^32 traversals.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `id` visited; returns `true` if it was already visited.
    #[inline]
    pub fn check_and_mark(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        let seen = *slot == self.epoch;
        *slot = self.epoch;
        seen
    }

    /// Whether `id` is marked in the current traversal.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn is_visited(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_and_checks() {
        let mut v = VisitedList::new(10);
        v.begin(10);
        assert!(!v.check_and_mark(3));
        assert!(v.check_and_mark(3));
        assert!(v.is_visited(3));
        assert!(!v.is_visited(4));
    }

    #[test]
    fn reuse_resets_marks() {
        let mut v = VisitedList::new(4);
        v.begin(4);
        v.check_and_mark(1);
        v.begin(4);
        assert!(!v.is_visited(1), "a new traversal must start clean");
    }

    #[test]
    fn epoch_wrap_is_safe() {
        let mut v = VisitedList::new(3);
        v.epoch = u32::MAX - 1;
        v.begin(3);
        v.check_and_mark(0);
        v.begin(3); // wraps to 0 → cleared, epoch = 1
        assert!(!v.is_visited(0));
        assert!(!v.check_and_mark(0));
        assert!(v.is_visited(0));
    }

    #[test]
    fn grows_for_larger_graphs() {
        let mut v = VisitedList::new(2);
        v.begin(10);
        assert!(!v.check_and_mark(9));
    }
}
