//! Closed-loop query phases: one client, then `nproc` clients.

use crate::check::{sorted_ascending, Tally};
use crate::stats::{median, nearest_rank, tail_percentile};
use hnsw_flash::engine::{AnnIndex, SearchRequest, SearchResponse};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest samples a pass may hold for its p99 to leave 20 beyond it.
pub const MIN_PASS: usize = 2_000;

/// A single-client phase, summarized pass by pass.
///
/// The machine this runs on has slow spells that last from milliseconds to
/// minutes and only ever add time. Where the passes repeat the same work
/// the phase is therefore scored by its **best** pass; where they do not
/// (churn cycles see different segment counts) by the **median** pass,
/// each pass taken at its best over the replays of the stream.
#[derive(Debug, Default)]
pub struct Samples {
    /// Queries answered over all passes.
    pub count: usize,
    pub pass_p50_us: Vec<f64>,
    /// p99 where the pass leaves ten samples beyond it (see `stats`).
    pub pass_p99_us: Vec<f64>,
    pub pass_qps: Vec<f64>,
}

/// How the passes of a phase are folded into one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The fastest pass: lowest latency, highest rate.
    Best,
    /// The median pass.
    Median,
}

impl Samples {
    /// Adds one pass of per-query latencies that took `wall_s` in all.
    pub fn push_pass(&mut self, mut latencies_us: Vec<f64>, wall_s: f64) {
        latencies_us.sort_by(f64::total_cmp);
        self.count += latencies_us.len();
        self.pass_p50_us.push(nearest_rank(&latencies_us, 0.5));
        self.pass_p99_us.push(tail_percentile(&latencies_us));
        self.pass_qps.push(latencies_us.len() as f64 / wall_s);
    }

    /// Pass by pass, the best of several replays of the same passes: the
    /// lowest latencies and the highest rate each pass reached in any replay.
    pub fn best_of(replays: &[Samples]) -> Samples {
        let passes = replays.iter().map(|r| r.pass_qps.len()).min().unwrap_or(0);
        let lowest = |of: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            (0..passes)
                .map(|p| replays.iter().map(|r| of(r)[p]).fold(f64::MAX, f64::min))
                .collect()
        };
        Samples {
            count: replays.iter().map(|r| r.count).sum(),
            pass_p50_us: lowest(|r| &r.pass_p50_us),
            pass_p99_us: lowest(|r| &r.pass_p99_us),
            pass_qps: (0..passes)
                .map(|p| {
                    replays
                        .iter()
                        .map(|r| r.pass_qps[p])
                        .fold(f64::MIN, f64::max)
                })
                .collect(),
        }
    }

    pub fn p50_us(&self, fold: Fold) -> f64 {
        fold.lower_is_better(&self.pass_p50_us)
    }

    pub fn p99_us(&self, fold: Fold) -> f64 {
        fold.lower_is_better(&self.pass_p99_us)
    }

    pub fn qps(&self, fold: Fold) -> f64 {
        match fold {
            Fold::Best => self.pass_qps.iter().copied().fold(f64::MIN, f64::max),
            Fold::Median => median(&self.pass_qps),
        }
    }
}

impl Fold {
    fn lower_is_better(self, per_pass: &[f64]) -> f64 {
        match self {
            Fold::Best => per_pass.iter().copied().fold(f64::MAX, f64::min),
            Fold::Median => median(per_pass),
        }
    }
}

/// Sends `ids` (indices into `requests`) one after another, timing each
/// reply, and hands every response to `inspect` outside the timer. Every
/// response must come back sorted by `(dist, id)`.
pub fn timed_pass(
    index: &dyn AnnIndex,
    requests: &[SearchRequest],
    ids: &[u32],
    samples: &mut Samples,
    tally: &mut Tally,
    mut inspect: impl FnMut(usize, u32, &SearchResponse, &mut Tally),
) {
    let mut pass = Vec::with_capacity(ids.len());
    let started = Instant::now();
    for (pos, &qi) in ids.iter().enumerate() {
        let t0 = Instant::now();
        let response = index.search(&requests[qi as usize]);
        pass.push(t0.elapsed().as_nanos() as f64 / 1e3);
        tally.gate(sorted_ascending(&response.hits), || {
            format!("query {qi}: hits not sorted by (dist, id)")
        });
        inspect(pos, qi, &response, tally);
    }
    samples.push_pass(pass, started.elapsed().as_secs_f64());
}

/// Repeats `timed_pass` over `ids` until `deadline`, at least once, adding
/// the passes to `samples`.
pub fn timed_passes_until(
    index: &dyn AnnIndex,
    requests: &[SearchRequest],
    ids: &[u32],
    deadline: Instant,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    loop {
        timed_pass(index, requests, ids, samples, tally, |_, _, _, _| {});
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Windows the parallel phase is cut into; the best one is reported.
const WINDOWS: usize = 4;

/// `clients` closed-loop threads share `index`, each walking `ids` from its
/// own offset for `duration`. Returns the queries per second of the best
/// of `WINDOWS` equal windows, and the queries completed in all.
pub fn parallel_qps(
    index: &Arc<dyn AnnIndex>,
    requests: &[SearchRequest],
    ids: &[u32],
    clients: usize,
    duration: Duration,
    tally: &mut Tally,
) -> (f64, usize) {
    let started = Instant::now();
    let window = duration / WINDOWS as u32;
    let per_client: Vec<([usize; WINDOWS], usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut at = c * ids.len() / clients;
                    let (mut done, mut unsorted) = ([0usize; WINDOWS], 0usize);
                    loop {
                        let response = index.search(&requests[ids[at] as usize]);
                        // A reply counts in the window it arrived in.
                        let w = (started.elapsed().as_nanos() / window.as_nanos()) as usize;
                        if w >= WINDOWS {
                            break;
                        }
                        unsorted += usize::from(!sorted_ascending(&response.hits));
                        done[w] += 1;
                        at = (at + 1) % ids.len();
                    }
                    (done, unsorted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let in_window = |w: usize| per_client.iter().map(|(done, _)| done[w]).sum::<usize>();
    let done: usize = (0..WINDOWS).map(in_window).sum();
    let best = (0..WINDOWS).map(in_window).max().unwrap_or(0);
    let unsorted: usize = per_client.iter().map(|(_, u)| u).sum();
    tally.ops(done);
    for _ in 0..unsorted {
        tally.fail("parallel phase: hits not sorted by (dist, id)".into());
    }
    (best as f64 / window.as_secs_f64(), done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_folds_pass_by_pass() {
        let mut a = Samples::default();
        a.push_pass(vec![10.0, 20.0, 30.0], 1.0);
        a.push_pass(vec![50.0, 60.0, 70.0], 2.0);
        let mut b = Samples::default();
        b.push_pass(vec![11.0, 21.0, 31.0], 0.5);
        b.push_pass(vec![40.0, 41.0, 42.0], 3.0);
        let best = Samples::best_of(&[a, b]);
        assert_eq!(best.count, 12);
        assert_eq!(best.pass_p50_us, vec![20.0, 41.0]);
        assert_eq!(best.pass_qps, vec![6.0, 1.5]);
        assert_eq!(best.p50_us(Fold::Median), 30.5);
        assert_eq!(best.p50_us(Fold::Best), 20.0);
        assert_eq!(best.qps(Fold::Best), 6.0);
    }
}
