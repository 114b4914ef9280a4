//! The pool keeps its helpers: many parallel calls at one width leave at
//! most `width - 1` helper threads in the process. A file of its own, so no
//! other test's calls grow the pool while this one counts.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::time::{Duration, Instant};

/// Threads of this process named like the pool's helpers.
#[cfg(target_os = "linux")]
fn helper_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("linux lists its threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "rayon-helper")
        .count()
}

/// Busy for `d`, so a call of several pieces has work enough to wake helpers.
fn spin(d: Duration) -> usize {
    let start = Instant::now();
    let mut turns = 0;
    while start.elapsed() < d {
        turns += 1;
    }
    turns
}

#[cfg(target_os = "linux")]
#[test]
fn ten_thousand_calls_at_each_width_leave_width_minus_one_helpers() {
    assert_eq!(helper_threads(), 0, "no helper before the first call");
    for width in 1..=4 {
        let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        pool.install(|| {
            for call in 0..10_000 {
                match call % 10 {
                    // Eight pieces of 10 µs: the caller wakes every seat.
                    0 => {
                        let busy: Vec<usize> = (0..8usize)
                            .into_par_iter()
                            .map(|_| spin(Duration::from_micros(10)))
                            .collect();
                        assert_eq!(busy.len(), 8);
                    }
                    1..=4 => assert_eq!(rayon::join(|| call, || call + 1), (call, call + 1)),
                    _ => {
                        let sum: usize = (0..256usize).into_par_iter().sum();
                        assert_eq!(sum, 255 * 128);
                    }
                }
            }
        });
        assert_eq!(helper_threads(), width - 1, "helpers after width {width}");
    }
}
