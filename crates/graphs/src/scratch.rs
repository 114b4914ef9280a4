//! Pooled, allocation-free per-traversal state.
//!
//! Every beam — a query's, or the Candidate Acquisition of an insert —
//! needs a visited set, two heaps, and (for batched scoring) a gather
//! buffer of neighbor ids and their distances; the frozen descent needs a
//! payload block for each upper-layer row it scores, and an insert
//! additionally needs its candidate, selected and prune lists and the
//! block Neighbor Selection builds. Allocating those per
//! call puts the allocator on the hot path and cold memory under the beam;
//! [`SearchScratch`] keeps one warm copy of all of them per thread,
//! checked out around each query ([`with_scratch`]) and each insert.
//!
//! The pool is thread-local (search threads never contend). Its scratches
//! hold no provider-specific type — a payload block is bytes
//! ([`crate::Blocks`]) — so every search on a thread draws from one pool.
//! [`ScratchStats`] counts query
//! checkouts vs. fresh allocations; steady state is "checkouts grow,
//! creations don't", which the zero-allocation regression test asserts.
//! Construction checks out through the same pool but is not a query: it
//! moves neither `checkouts` nor the thread's profile ledger.

use crate::provider::Blocks;
use crate::visited::VisitedList;
use crate::Hit;
use metrics::QueryProfile;
use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Order-preserving `u32` image of `f32::total_cmp`: `fkey(a) < fkey(b)`
/// exactly when `a.total_cmp(&b)` is `Less` — negative values, `±0.0` and
/// `±∞` included. Flip every bit of a negative float, only the sign bit of
/// a non-negative one.
#[inline]
pub(crate) fn fkey(d: f32) -> u32 {
    let b = d.to_bits();
    b ^ (((b as i32) >> 31) as u32 | 0x8000_0000)
}

/// Inverse of [`fkey`]: the exact bits that were packed.
#[inline]
fn unkey(k: u32) -> f32 {
    f32::from_bits(k ^ ((((!k) as i32) >> 31) as u32 | 0x8000_0000))
}

/// The two heaps of a best-first graph traversal, over packed `u64` keys
/// so a heap step compares one integer instead of a `(float, id)` tuple.
///
/// * **results** — max-heap of the best vertices so far, key
///   `(fkey(d) << 32) | id`: the top is the largest `(d, id)`, the one an
///   eviction removes.
/// * **frontier** — vertices still to expand, key `(!fkey(d) << 32) | id`
///   in the same max-heap type: the top is the smallest `d` and, among
///   equal `d`, the largest id.
///
/// Both orders are exactly those of a `BinaryHeap<(OrdF32, u32)>` /
/// `BinaryHeap<(Reverse<OrdF32>, u32)>` pair. Quantized providers produce
/// integer distances with heavy ties, so the tie order decides which
/// graph gets built; the differential test below pins it.
#[derive(Default)]
pub(crate) struct Beam {
    results: BinaryHeap<u64>,
    frontier: BinaryHeap<u64>,
    /// Backing storage of [`Self::drain_sorted`].
    sorted: Vec<u64>,
}

impl Beam {
    /// Empties both heaps (capacity retained).
    pub(crate) fn reset(&mut self) {
        self.results.clear();
        self.frontier.clear();
    }

    /// Number of vertices in the result set.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.results.len()
    }

    /// Distance of the worst vertex in the result set (`+∞` when empty).
    #[inline]
    pub(crate) fn worst(&self) -> f32 {
        self.results
            .peek()
            .map_or(f32::INFINITY, |&k| unkey((k >> 32) as u32))
    }

    /// Puts `(d, id)` into a result set capped at `cap ≥ 1` entries: a
    /// plain push below the cap; at the cap it overwrites the top only if
    /// the new key is below it — what `push; if len > cap { pop }` leaves
    /// behind, in one sift instead of two.
    #[inline]
    pub(crate) fn push_result(&mut self, d: f32, id: u32, cap: usize) {
        let key = (u64::from(fkey(d)) << 32) | u64::from(id);
        if self.results.len() < cap {
            self.results.push(key);
        } else if let Some(mut top) = self.results.peek_mut() {
            if key < *top {
                *top = key;
            }
        }
    }

    /// Queues `id` for expansion.
    #[inline]
    pub(crate) fn push_frontier(&mut self, d: f32, id: u32) {
        self.frontier
            .push((u64::from(!fkey(d)) << 32) | u64::from(id));
    }

    /// Removes the nearest queued vertex.
    #[inline]
    pub(crate) fn pop_frontier(&mut self) -> Option<(f32, u32)> {
        self.frontier
            .pop()
            .map(|k| (unkey(!((k >> 32) as u32)), k as u32))
    }

    /// The vertex [`Self::pop_frontier`] would return next (prefetch hint).
    #[inline]
    pub(crate) fn peek_frontier(&self) -> Option<u32> {
        self.frontier.peek().map(|&k| k as u32)
    }

    /// The standard beam admission for a freshly scored vertex: it enters
    /// when the result set is short of `ef` or `d` is no worse than its
    /// worst member. `<=` rather than `<`: quantized providers produce
    /// integer distances with heavy ties, and rejecting boundary ties
    /// strands true neighbors outside the beam — so a tie that loses the
    /// result slot on its id is still queued for expansion. `accept`
    /// gates the result side only (filtered search routes through
    /// rejected vertices).
    #[inline]
    pub(crate) fn offer(&mut self, d: f32, id: u32, ef: usize, accept: impl FnOnce() -> bool) {
        if self.results.len() < ef || d <= self.worst() {
            if accept() {
                self.push_result(d, id, ef);
            }
            self.push_frontier(d, id);
        }
    }

    /// Ends the traversal: empties both heaps and yields the result set
    /// ascending by `(d, id)`.
    pub(crate) fn drain_sorted(&mut self) -> impl Iterator<Item = (f32, u32)> + '_ {
        self.frontier.clear();
        self.sorted.clear();
        self.sorted.extend(self.results.drain());
        self.sorted.sort_unstable();
        self.sorted
            .iter()
            .map(|&k| (unkey((k >> 32) as u32), k as u32))
    }

    /// [`Self::drain_sorted`] as the best `k` hits of a finished search.
    pub(crate) fn drain_hits(&mut self, k: usize) -> Vec<Hit> {
        self.drain_sorted()
            .take(k)
            .map(|(dist, id)| Hit {
                id: u64::from(id),
                dist,
            })
            .collect()
    }
}

/// Reusable state for one in-flight traversal.
///
/// Buffers only ever grow; after the first few queries on a thread every
/// checkout runs the whole beam without touching the allocator.
pub struct SearchScratch {
    /// Epoch-stamped visited set (O(1) reset).
    pub(crate) visited: VisitedList,
    /// Result set and frontier.
    pub(crate) beam: Beam,
    /// Neighbors of the candidate being expanded.
    pub(crate) ids: Vec<u32>,
    /// Batched distances, parallel to `ids`.
    pub(crate) dists: Vec<f32>,
    /// A provider payload block (Flash: codewords): the frozen descent's
    /// current upper-layer row; during construction, the block Neighbor
    /// Selection is building.
    pub(crate) payload: Blocks,
    /// Construction: the sorted `(d, id)` output of Candidate Acquisition.
    pub(crate) candidates: Vec<(f32, u32)>,
    /// Construction: the ids Neighbor Selection kept for the new vertex.
    pub(crate) selected: Vec<u32>,
    /// Construction: an overflowing neighbor's re-selection input.
    pub(crate) prune: Vec<(f32, u32)>,
    /// Structural cost counters for the query in flight. Zeroed at
    /// checkout, flushed to the thread's [`profile_take`] accumulator at
    /// return — plain integer adds on the search path, no allocation,
    /// no branches.
    pub(crate) profile: QueryProfile,
}

impl SearchScratch {
    fn new() -> Self {
        Self {
            visited: VisitedList::new(0),
            beam: Beam::default(),
            ids: Vec::new(),
            dists: Vec::new(),
            payload: Blocks::default(),
            candidates: Vec::new(),
            selected: Vec::new(),
            prune: Vec::new(),
            profile: QueryProfile::new(),
        }
    }
}

/// Scratch-pool traffic counters for the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Scratches constructed because the pool was dry.
    pub created: u64,
    /// Total checkouts served.
    pub checkouts: u64,
}

thread_local! {
    static POOL: RefCell<Vec<SearchScratch>> = const { RefCell::new(Vec::new()) };
    static CREATED: Cell<u64> = const { Cell::new(0) };
    static CHECKOUTS: Cell<u64> = const { Cell::new(0) };
    static PROFILE: Cell<QueryProfile> = const { Cell::new(QueryProfile::new()) };
}

/// Process-wide mirrors of the thread-local pool counters, so a scrape
/// can see allocator health across the whole fleet of search threads
/// (the thread-local [`scratch_stats`] only sees the calling thread).
static CREATED_GLOBAL: AtomicU64 = AtomicU64::new(0);
static CHECKOUTS_GLOBAL: AtomicU64 = AtomicU64::new(0);

/// This thread's pool counters (the zero-allocation assertion hook).
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        created: CREATED.with(Cell::get),
        checkouts: CHECKOUTS.with(Cell::get),
    }
}

/// Pool counters summed over every thread that ever checked out a
/// scratch — the numbers behind the `graphs.scratch.*` metrics.
pub fn scratch_stats_global() -> ScratchStats {
    ScratchStats {
        created: CREATED_GLOBAL.load(Ordering::Relaxed),
        checkouts: CHECKOUTS_GLOBAL.load(Ordering::Relaxed),
    }
}

/// Registers the process-wide scratch counters with the global
/// [`metrics::MetricsRegistry`] as `graphs.scratch.{created,checkouts}`
/// (idempotent; re-registration replaces the source with an identical
/// one). Steady state on a healthy fleet is "checkouts grow, created
/// doesn't" — the fleet-wide version of the zero-allocation assertion.
pub fn register_scratch_metrics() {
    metrics::MetricsRegistry::global().register_source("graphs.scratch", || {
        let stats = scratch_stats_global();
        metrics::Json::Obj(vec![
            ("created".into(), metrics::Json::uint(stats.created)),
            ("checkouts".into(), metrics::Json::uint(stats.checkouts)),
        ])
    });
}

/// Resets this thread's query-profile accumulator (called by the
/// serving layer at the start of each profiled query).
pub fn profile_reset() {
    PROFILE.with(|p| p.set(QueryProfile::new()));
}

/// Takes this thread's accumulated query profile, leaving zero behind.
pub fn profile_take() -> QueryProfile {
    PROFILE.with(|p| p.replace(QueryProfile::new()))
}

/// Adds `profile` into this thread's accumulator — the hook for search
/// paths that run outside [`with_scratch`] (live `Hnsw` beams, exact
/// rerank, brute-force scans).
pub fn profile_record(profile: QueryProfile) {
    PROFILE.with(|p| {
        let mut current = p.get();
        current.add(&profile);
        p.set(current);
    });
}

/// Runs `f` with a pooled [`SearchScratch`], creating one only if this
/// thread's pool is empty. The scratch returns to the pool afterwards (it
/// is dropped instead if `f` panics). Touches
/// neither the checkout counter nor the profile ledger: this is the
/// checkout of construction and of the live [`crate::Hnsw::search`].
pub(crate) fn with_pooled<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let mut scratch = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_else(|| {
        CREATED.with(|c| c.set(c.get() + 1));
        CREATED_GLOBAL.fetch_add(1, Ordering::Relaxed);
        SearchScratch::new()
    });
    let out = f(&mut scratch);
    POOL.with(|p| p.borrow_mut().push(scratch));
    out
}

/// One query's checkout: [`with_pooled`], counted in [`ScratchStats`],
/// with the scratch's profile zeroed going in and flushed to the thread's
/// accumulator coming out.
pub fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    CHECKOUTS.with(|c| c.set(c.get() + 1));
    CHECKOUTS_GLOBAL.fetch_add(1, Ordering::Relaxed);
    with_pooled(|scratch| {
        scratch.profile = QueryProfile {
            scratch_checkouts: 1,
            ..QueryProfile::new()
        };
        let out = f(scratch);
        profile_record(scratch.profile);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrdF32;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;

    #[test]
    fn scratch_is_reused_not_reallocated() {
        let before = scratch_stats();
        for _ in 0..64 {
            with_scratch(|s| {
                s.ids.push(1);
                s.dists.push(0.5);
            });
        }
        let after = scratch_stats();
        assert_eq!(after.checkouts - before.checkouts, 64);
        assert!(
            after.created - before.created <= 1,
            "pool created {} scratches for 64 sequential checkouts",
            after.created - before.created
        );
    }

    #[test]
    fn nested_checkouts_get_distinct_scratches() {
        with_scratch(|outer| {
            outer.ids.push(7);
            with_scratch(|inner| {
                assert!(inner.ids.is_empty() || inner.ids != outer.ids);
            });
        });
    }

    #[test]
    fn beam_keeps_capacity_across_checkouts() {
        with_scratch(|s| {
            for i in 0..100 {
                s.beam.push_result(i as f32, i, usize::MAX);
                s.beam.push_frontier(i as f32, i);
            }
            assert_eq!(s.beam.drain_sorted().count(), 100);
        });
        with_scratch(|s| {
            assert_eq!((s.beam.len(), s.beam.peek_frontier()), (0, None));
            assert!(s.beam.results.capacity() >= 100 && s.beam.frontier.capacity() >= 100);
        });
    }

    #[test]
    fn fkey_orders_exactly_like_total_cmp() {
        // Every sign/exponent boundary plus a stride through all patterns
        // (NaNs included: `total_cmp` orders them by bits too).
        let mut bits: Vec<u32> = vec![
            0,
            1,
            0x007f_ffff,
            0x0080_0000,
            0x3f80_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7fc0_0000,
            0x7fff_ffff,
            0x8000_0000,
            0x8000_0001,
            0xbf80_0000,
            0xff7f_ffff,
            0xff80_0000,
            0xffc0_0000,
            0xffff_ffff,
        ];
        bits.extend((0..=u32::MAX).step_by(7_654_321));
        for &a in &bits {
            assert_eq!(unkey(fkey(f32::from_bits(a))).to_bits(), a);
            for &b in &bits {
                let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
                assert_eq!(
                    fkey(fa).cmp(&fkey(fb)),
                    fa.total_cmp(&fb),
                    "{a:#x} vs {b:#x}"
                );
            }
        }
    }

    /// The heap pair [`Beam`] replaced, with its literal admission code.
    #[derive(Default)]
    struct TuplePair {
        results: BinaryHeap<(OrdF32, u32)>,
        frontier: BinaryHeap<(Reverse<OrdF32>, u32)>,
    }

    impl TuplePair {
        fn worst(&self) -> f32 {
            self.results
                .peek()
                .map(|&(OrdF32(w), _)| w)
                .unwrap_or(f32::INFINITY)
        }

        fn push_result(&mut self, d: f32, id: u32, cap: usize) {
            self.results.push((OrdF32(d), id));
            if self.results.len() > cap {
                self.results.pop();
            }
        }

        fn offer(&mut self, d: f32, id: u32, ef: usize, accepted: bool) {
            if self.results.len() < ef || d <= self.worst() {
                if accepted {
                    self.push_result(d, id, ef);
                }
                self.frontier.push((Reverse(OrdF32(d)), id));
            }
        }
    }

    /// A distance from a pool built to collide: a few small integers (the
    /// shape of quantized sums), their negatives, both zeros, both
    /// infinities.
    fn tie_heavy(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..16u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4..=6 => -(rng.gen_range(0..4u32) as f32),
            _ => rng.gen_range(0..6u32) as f32,
        }
    }

    #[test]
    fn beam_matches_the_tuple_heap_pair() {
        for ef in [1usize, 2, 16, 128] {
            for seed in 0..40u64 {
                let mut rng = SmallRng::seed_from_u64(seed * 131 + ef as u64);
                let filtered = seed % 2 == 1;
                let (mut beam, mut pair) = (Beam::default(), TuplePair::default());
                let mut next_id = 0u32;
                let mut fresh = || {
                    // Ids arrive out of order so ties break both ways.
                    next_id += 1;
                    next_id.wrapping_mul(2_654_435_761)
                };

                let (d0, id0) = (tie_heavy(&mut rng), fresh());
                beam.reset();
                beam.push_result(d0, id0, ef);
                beam.push_frontier(d0, id0);
                pair.push_result(d0, id0, ef);
                pair.frontier.push((Reverse(OrdF32(d0)), id0));

                for _ in 0..400 {
                    assert_eq!(
                        beam.peek_frontier(),
                        pair.frontier.peek().map(|&(_, id)| id)
                    );
                    let popped = beam.pop_frontier();
                    let expect = pair.frontier.pop().map(|(Reverse(OrdF32(d)), id)| (d, id));
                    assert_eq!(
                        popped.map(|(d, id)| (d.to_bits(), id)),
                        expect.map(|(d, id)| (d.to_bits(), id)),
                        "pop order, ef {ef} seed {seed}"
                    );
                    let Some((d, _)) = popped else { break };
                    assert_eq!(
                        d > beam.worst() && beam.len() >= ef,
                        d > pair.worst() && pair.results.len() >= ef
                    );
                    for _ in 0..rng.gen_range(0..8u32) {
                        let (nd, id) = (tie_heavy(&mut rng), fresh());
                        let accepted = !filtered || id % 3 != 0;
                        beam.offer(nd, id, ef, || accepted);
                        pair.offer(nd, id, ef, accepted);
                        assert_eq!(beam.len(), pair.results.len());
                        assert_eq!(beam.worst().to_bits(), pair.worst().to_bits());
                    }
                }

                let mut expect: Vec<(f32, u32)> = pair
                    .results
                    .drain()
                    .map(|(OrdF32(d), id)| (d, id))
                    .collect();
                expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let got: Vec<(u32, u32)> = beam
                    .drain_sorted()
                    .map(|(d, id)| (d.to_bits(), id))
                    .collect();
                let expect: Vec<(u32, u32)> = expect
                    .into_iter()
                    .map(|(d, id)| (d.to_bits(), id))
                    .collect();
                assert_eq!(got, expect, "drain_sorted, ef {ef} seed {seed}");
                assert_eq!((beam.len(), beam.pop_frontier()), (0, None));
            }
        }
    }
}
