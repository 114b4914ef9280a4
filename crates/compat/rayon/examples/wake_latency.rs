//! Measures how long a parked helper takes from its wake to its first
//! claimed piece, the cost `HELPER_WORTH` is set from:
//!
//! ```bash
//! cargo run --release -p rayon --example wake_latency
//! ```
//!
//! Each `join` wakes a helper at once; its first closure spins until the
//! second has started on the helper (or 5 ms pass), so the second closure's
//! start time is the wake-to-claim latency. The gap before each call is how
//! long the helper was parked.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn percentiles(mut us: Vec<f64>) -> String {
    us.sort_by(f64::total_cmp);
    let at = |p: f64| us[((us.len() - 1) as f64 * p) as usize];
    format!(
        "p10 {:.1}  p50 {:.1}  p90 {:.1}  p99 {:.1} µs",
        at(0.1),
        at(0.5),
        at(0.9),
        at(0.99)
    )
}

fn main() {
    for parked_us in [0u64, 200, 2000] {
        let latencies: Vec<f64> = (0..2000)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(parked_us));
                let started = AtomicBool::new(false);
                let wake = Instant::now();
                let deadline = wake + Duration::from_millis(5);
                let ((), claimed) = rayon::join(
                    || {
                        while !started.load(Ordering::Acquire) && Instant::now() < deadline {
                            std::hint::spin_loop();
                        }
                    },
                    || {
                        started.store(true, Ordering::Release);
                        wake.elapsed().as_secs_f64() * 1e6
                    },
                );
                claimed
            })
            .collect();
        println!(
            "parked {parked_us:>4} µs: wake to first claim {}",
            percentiles(latencies)
        );
    }
}
