//! Windowed service-level objectives with multi-window burn-rate alerts.
//!
//! An [`Objective`] declares an error budget: the fraction of "bad"
//! events (slow queries, errors, shed requests, low-recall answers) the
//! service is allowed to serve. A [`SloTracker`] folds good/bad counts
//! into per-tick buckets and, at every tick boundary, evaluates the
//! classic multi-window multi-burn-rate alert: the objective is
//! *breached* only when both a short window (fast burn — "it is on fire
//! right now") and a long window (slow burn — "and it is not a blip")
//! spend budget faster than their thresholds. One window alone either
//! pages on noise or pages too late; requiring both is the standard
//! SRE-workbook construction.
//!
//! Ticks are whatever the caller says they are. The scenario harness
//! advances virtual ticks, so `BenchReport.slo` is a deterministic pure
//! function of the seeded workload; the serving stack wraps the same
//! tracker in a [`SloGuard`] that advances ticks from wall time and
//! samples cumulative counters, which is what flips `/healthz` to
//! degraded on a live server.

use crate::report::Json;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// An error-budget objective: at most `budget` fraction of events bad.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Name reported in summaries and `/healthz` bodies
    /// (e.g. `"shed_fraction"`, `"recall"`, `"p99_latency"`).
    pub name: String,
    /// Allowed bad fraction in `(0, 1]`; burn rate is measured
    /// bad-fraction divided by this.
    pub budget: f64,
}

impl Objective {
    /// A named objective; `budget` must be in `(0, 1]`.
    pub fn new(name: impl Into<String>, budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget <= 1.0,
            "objective budget must be in (0, 1]"
        );
        Self {
            name: name.into(),
            budget,
        }
    }
}

/// Window lengths (in ticks) and burn-rate thresholds for breach
/// detection. A breach requires `fast_window` burn ≥ `fast_burn`
/// **and** `slow_window` burn ≥ `slow_burn` at the same tick boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnConfig {
    /// Short window: catches active budget fires quickly.
    pub fast_window: usize,
    /// Long window: confirms the fire is sustained, not a blip.
    pub slow_window: usize,
    /// Burn-rate threshold over the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold over the slow window.
    pub slow_burn: f64,
}

impl Default for BurnConfig {
    fn default() -> Self {
        Self {
            fast_window: 12,
            slow_window: 60,
            fast_burn: 2.0,
            slow_burn: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct ObjectiveState {
    objective: Objective,
    /// Per-tick (good, bad) ring, `slow_window` slots; `pos` is the
    /// bucket currently accumulating.
    ring: Vec<(u64, u64)>,
    pos: usize,
    total_good: u64,
    total_bad: u64,
    fast_burn: f64,
    slow_burn: f64,
    breached: bool,
    breaches: u64,
}

impl ObjectiveState {
    fn window_burn(&self, window: usize) -> f64 {
        let n = self.ring.len();
        let (mut good, mut bad) = (0u64, 0u64);
        for back in 0..window.min(n) {
            let (g, b) = self.ring[(self.pos + n - back) % n];
            good += g;
            bad += b;
        }
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.objective.budget
    }
}

/// Tracks a set of objectives across ticks and detects burn-rate
/// breaches. Purely count-driven: same observations in the same tick
/// order always produce the same summary.
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: BurnConfig,
    objectives: Vec<ObjectiveState>,
    ticks: u64,
}

impl SloTracker {
    /// A tracker over `objectives` with shared window/burn thresholds.
    pub fn new(config: BurnConfig, objectives: Vec<Objective>) -> Self {
        assert!(config.fast_window > 0, "fast window must be nonempty");
        assert!(
            config.slow_window >= config.fast_window,
            "slow window must contain the fast window"
        );
        let objectives = objectives
            .into_iter()
            .map(|objective| ObjectiveState {
                objective,
                ring: vec![(0, 0); config.slow_window],
                pos: 0,
                total_good: 0,
                total_bad: 0,
                fast_burn: 0.0,
                slow_burn: 0.0,
                breached: false,
                breaches: 0,
            })
            .collect();
        Self {
            config,
            objectives,
            ticks: 0,
        }
    }

    /// Number of objectives tracked.
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Whether the tracker has no objectives.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Index of the objective named `name`, if tracked.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.objectives
            .iter()
            .position(|o| o.objective.name == name)
    }

    /// Adds `good` conforming and `bad` budget-spending events to
    /// objective `idx`'s current tick bucket.
    pub fn observe(&mut self, idx: usize, good: u64, bad: u64) {
        let state = &mut self.objectives[idx];
        let slot = &mut state.ring[state.pos];
        slot.0 += good;
        slot.1 += bad;
        state.total_good += good;
        state.total_bad += bad;
    }

    /// Closes the current tick: evaluates burn rates (the just-filled
    /// bucket is the newest sample in both windows), latches breach
    /// state, and opens a fresh bucket.
    pub fn tick(&mut self) {
        self.ticks += 1;
        let config = self.config;
        for state in &mut self.objectives {
            state.fast_burn = state.window_burn(config.fast_window);
            state.slow_burn = state.window_burn(config.slow_window);
            let now = state.fast_burn >= config.fast_burn && state.slow_burn >= config.slow_burn;
            if now && !state.breached {
                state.breaches += 1;
            }
            state.breached = now;
            state.pos = (state.pos + 1) % state.ring.len();
            state.ring[state.pos] = (0, 0);
        }
    }

    /// `false` while any objective is in a latched breach.
    pub fn healthy(&self) -> bool {
        self.objectives.iter().all(|o| !o.breached)
    }

    /// Point-in-time summary of every objective.
    pub fn summary(&self) -> SloSummary {
        SloSummary {
            config: self.config,
            ticks: self.ticks,
            healthy: self.healthy(),
            objectives: self
                .objectives
                .iter()
                .map(|o| ObjectiveSummary {
                    name: o.objective.name.clone(),
                    budget: o.objective.budget,
                    good: o.total_good,
                    bad: o.total_bad,
                    fast_burn: o.fast_burn,
                    slow_burn: o.slow_burn,
                    breached: o.breached,
                    breaches: o.breaches,
                })
                .collect(),
        }
    }
}

/// One objective's lifetime counters and latest burn rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSummary {
    /// Objective name.
    pub name: String,
    /// Configured error budget (allowed bad fraction).
    pub budget: f64,
    /// Lifetime conforming events.
    pub good: u64,
    /// Lifetime budget-spending events.
    pub bad: u64,
    /// Burn rate over the fast window at the last tick.
    pub fast_burn: f64,
    /// Burn rate over the slow window at the last tick.
    pub slow_burn: f64,
    /// Whether the objective was breached at the last tick.
    pub breached: bool,
    /// Times the objective transitioned into breach.
    pub breaches: u64,
}

/// Snapshot of an [`SloTracker`]: the `slo` section of `BenchReport`
/// and the body `/healthz` explains itself with.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Window/threshold configuration the burn rates were computed under.
    pub config: BurnConfig,
    /// Ticks evaluated.
    pub ticks: u64,
    /// `false` if any objective is in breach.
    pub healthy: bool,
    /// Per-objective state.
    pub objectives: Vec<ObjectiveSummary>,
}

impl SloSummary {
    /// Serializes with stable key order (counts and config only — every
    /// field is deterministic for a seeded run, so the whole section is
    /// structural).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "config".into(),
                Json::Obj(vec![
                    (
                        "fast_window".into(),
                        Json::uint(self.config.fast_window as u64),
                    ),
                    (
                        "slow_window".into(),
                        Json::uint(self.config.slow_window as u64),
                    ),
                    ("fast_burn".into(), Json::num(self.config.fast_burn)),
                    ("slow_burn".into(), Json::num(self.config.slow_burn)),
                ]),
            ),
            ("ticks".into(), Json::uint(self.ticks)),
            ("healthy".into(), Json::Bool(self.healthy)),
            (
                "objectives".into(),
                Json::Arr(
                    self.objectives
                        .iter()
                        .map(|o| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(o.name.clone())),
                                ("budget".into(), Json::num(o.budget)),
                                ("good".into(), Json::uint(o.good)),
                                ("bad".into(), Json::uint(o.bad)),
                                ("fast_burn".into(), Json::num(o.fast_burn)),
                                ("slow_burn".into(), Json::num(o.slow_burn)),
                                ("breached".into(), Json::Bool(o.breached)),
                                ("breaches".into(), Json::uint(o.breaches)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Cumulative (good, bad) counter reader for one [`SloGuard`] objective.
pub type Sampler = Box<dyn Fn() -> (u64, u64) + Send + Sync>;

struct GuardState {
    tracker: SloTracker,
    /// Last cumulative (good, bad) seen per sampler, for delta feeding.
    last: Vec<(u64, u64)>,
    last_tick: Instant,
}

/// Wall-clock adapter over [`SloTracker`] for live servers.
///
/// Each objective is paired with a sampler returning *cumulative*
/// (good, bad) counters (typically reads of the server's atomics); the
/// guard diffs consecutive samples into tracker observations and
/// advances one tick per elapsed `tick_interval`. All state sits behind
/// one mutex — `healthy()` is called from the scrape path, never the
/// serving hot path.
pub struct SloGuard {
    tick_interval: Duration,
    samplers: Vec<Sampler>,
    state: Mutex<GuardState>,
}

impl SloGuard {
    /// A guard ticking every `tick_interval`, sampling each objective's
    /// cumulative counters from the paired closure.
    pub fn new(
        config: BurnConfig,
        tick_interval: Duration,
        objectives: Vec<(Objective, Sampler)>,
    ) -> Self {
        assert!(!tick_interval.is_zero(), "tick interval must be positive");
        let (objectives, samplers): (Vec<_>, Vec<_>) = objectives.into_iter().unzip();
        let last = samplers.iter().map(|s| s()).collect();
        Self {
            tick_interval,
            samplers,
            state: Mutex::new(GuardState {
                tracker: SloTracker::new(config, objectives),
                last,
                last_tick: Instant::now(),
            }),
        }
    }

    /// Samples counters, advances any elapsed ticks, and reports
    /// health. At most `slow_window` ticks are replayed per call, so a
    /// long-idle guard cannot stall a scrape.
    pub fn healthy(&self) -> bool {
        self.advanced_to(Instant::now()).tracker.healthy()
    }

    /// Current summary (also advances elapsed ticks).
    pub fn summary(&self) -> SloSummary {
        self.advanced_to(Instant::now()).tracker.summary()
    }

    /// Feeds the samplers' deltas into the tracker, replays the ticks
    /// elapsed by `now` (at most `slow_window`), and hands back the locked
    /// state.
    fn advanced_to(&self, now: Instant) -> MutexGuard<'_, GuardState> {
        let mut state = self.state.lock().expect("slo guard poisoned");
        for (idx, sampler) in self.samplers.iter().enumerate() {
            let (good, bad) = sampler();
            let (last_good, last_bad) = state.last[idx];
            state.last[idx] = (good, bad);
            state.tracker.observe(
                idx,
                good.saturating_sub(last_good),
                bad.saturating_sub(last_bad),
            );
        }
        let mut elapsed = now.saturating_duration_since(state.last_tick);
        let cap = state.tracker.config.slow_window as u32;
        let mut ticks = 0u32;
        while elapsed >= self.tick_interval && ticks < cap {
            state.tracker.tick();
            elapsed -= self.tick_interval;
            ticks += 1;
        }
        if ticks > 0 {
            state.last_tick = now - elapsed.min(self.tick_interval);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn config() -> BurnConfig {
        // Tiny windows for test speed; the slow threshold is set so one
        // all-bad tick in a 9-tick window (frac 1/9) cannot reach it at
        // a 0.10 budget, while sustained burn sails past.
        BurnConfig {
            fast_window: 3,
            slow_window: 9,
            fast_burn: 2.0,
            slow_burn: 2.0,
        }
    }

    #[test]
    fn clean_traffic_never_breaches() {
        let mut t = SloTracker::new(config(), vec![Objective::new("errors", 0.05)]);
        for _ in 0..20 {
            t.observe(0, 100, 1);
            t.tick();
        }
        assert!(t.healthy());
        let s = t.summary();
        assert_eq!(s.objectives[0].breaches, 0);
        assert_eq!(s.objectives[0].good, 2000);
        assert_eq!(s.objectives[0].bad, 20);
    }

    #[test]
    fn sustained_burn_breaches_and_recovers() {
        let mut t = SloTracker::new(config(), vec![Objective::new("shed", 0.05)]);
        // Healthy warm-up.
        for _ in 0..9 {
            t.observe(0, 100, 0);
            t.tick();
        }
        assert!(t.healthy());
        // Sustained 50% shedding: burn = 10x budget in both windows once
        // the slow window accumulates enough bad ticks.
        let mut breached_at = None;
        for i in 0..9 {
            t.observe(0, 50, 50);
            t.tick();
            if !t.healthy() && breached_at.is_none() {
                breached_at = Some(i);
            }
        }
        assert!(breached_at.is_some(), "sustained burn must breach");
        assert!(t.summary().objectives[0].breaches >= 1);
        // Recovery: clean ticks push the fires out of both windows.
        for _ in 0..10 {
            t.observe(0, 100, 0);
            t.tick();
        }
        assert!(t.healthy(), "breach must clear after windows drain");
    }

    #[test]
    fn short_spike_does_not_breach() {
        let mut t = SloTracker::new(config(), vec![Objective::new("errors", 0.10)]);
        for _ in 0..9 {
            t.observe(0, 100, 0);
            t.tick();
        }
        // One bad tick lights the fast window but not the slow one.
        t.observe(0, 0, 100);
        t.tick();
        assert!(
            t.healthy(),
            "single-tick spike must not satisfy the slow window"
        );
        assert_eq!(t.summary().objectives[0].breaches, 0);
    }

    #[test]
    fn summary_is_deterministic_and_structural() {
        let run = || {
            let mut t = SloTracker::new(
                config(),
                vec![Objective::new("a", 0.05), Objective::new("b", 0.2)],
            );
            for i in 0..15u64 {
                t.observe(0, 90 + i, i % 3);
                t.observe(1, 50, i % 5);
                t.tick();
            }
            t.summary().to_json().to_pretty_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn guard_degrades_on_cumulative_bad_counters() {
        let good = Arc::new(AtomicU64::new(0));
        let bad = Arc::new(AtomicU64::new(0));
        let (g, b) = (Arc::clone(&good), Arc::clone(&bad));
        let guard = SloGuard::new(
            config(),
            Duration::from_millis(1),
            vec![(
                Objective::new("shed", 0.05),
                Box::new(move || (g.load(Ordering::Relaxed), b.load(Ordering::Relaxed))) as Sampler,
            )],
        );
        assert!(guard.healthy());
        // Burn hard across enough ticks for both windows, on a clock the
        // test drives: two 1 ms ticks per round, whatever the scheduler
        // does to this thread.
        let mut now = guard.state.lock().unwrap().last_tick;
        for _ in 0..12 {
            good.fetch_add(10, Ordering::Relaxed);
            bad.fetch_add(90, Ordering::Relaxed);
            now += Duration::from_millis(2);
            drop(guard.advanced_to(now));
        }
        let state = guard.advanced_to(now);
        assert!(
            !state.tracker.healthy(),
            "sustained shedding must degrade health"
        );
        let summary = state.tracker.summary();
        assert!(summary.objectives[0].bad >= 90 * 12);
        assert!(!summary.healthy);
    }
}
