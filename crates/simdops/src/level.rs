//! SIMD capability detection and process-wide dispatch control.
//!
//! The paper's Figure 12 compares indexing time under SSE (128-bit), AVX
//! (256-bit) and AVX-512 register widths, and Table 3 ablates SIMD entirely.
//! To reproduce those experiments without rebuilding, every kernel in this
//! crate dispatches through [`current_level`], which is the minimum of what
//! the CPU supports and an optional override installed by
//! [`set_level_override`].

use std::sync::atomic::{AtomicU8, Ordering};

/// Available instruction tiers, ordered from weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Pure scalar code — used for the "without SIMD optimization" ablation.
    Scalar = 0,
    /// 128-bit SSE (requires SSSE3 for `pshufb` and SSE4.1 for widening).
    Sse = 1,
    /// 256-bit AVX2 (requires FMA, which every AVX2 kernel here uses).
    Avx2 = 2,
    /// 512-bit AVX-512 (requires F + BW for byte shuffles).
    Avx512 = 3,
}

impl SimdLevel {
    /// Register width in bits for this tier (scalar reported as 32).
    pub fn register_bits(self) -> usize {
        match self {
            SimdLevel::Scalar => 32,
            SimdLevel::Sse => 128,
            SimdLevel::Avx2 => 256,
            SimdLevel::Avx512 => 512,
        }
    }

    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse => "SSE",
            SimdLevel::Avx2 => "AVX",
            SimdLevel::Avx512 => "AVX512",
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Sse,
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Sentinel meaning "no override installed".
const NO_OVERRIDE: u8 = u8::MAX;

static LEVEL_OVERRIDE: AtomicU8 = AtomicU8::new(NO_OVERRIDE);

/// Detects the strongest tier this CPU supports.
///
/// The SSE tier additionally requires SSSE3 (`pshufb`) and SSE4.1
/// (`pmovzxbw`), both ubiquitous on x86-64 CPUs from the last 15 years; if
/// they are absent we fall back to scalar rather than risk an illegal
/// instruction.
pub fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return SimdLevel::Sse;
        }
        SimdLevel::Scalar
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Installs a process-wide cap on the dispatch tier, or removes it.
///
/// `Some(level)` clamps every kernel to at most `level` (it can never raise
/// the tier above what the hardware supports); `None` restores pure
/// detection. Intended for the Figure-12 / Table-3 experiments and for tests
/// that compare SIMD and scalar outputs.
pub fn set_level_override(level: Option<SimdLevel>) {
    let v = level.map(|l| l as u8).unwrap_or(NO_OVERRIDE);
    LEVEL_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The tier kernels dispatch on right now: `min(detected, override)`.
pub fn current_level() -> SimdLevel {
    let detected = detect_level();
    let ov = LEVEL_OVERRIDE.load(Ordering::Relaxed);
    if ov == NO_OVERRIDE {
        detected
    } else {
        detected.min(SimdLevel::from_u8(ov))
    }
}

/// Runs `f` with the dispatch tier capped at `level`, restoring the previous
/// override afterwards (even on panic). Handy for tests and benches.
pub fn with_level<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let prev = LEVEL_OVERRIDE.load(Ordering::SeqCst);
    let _guard = Restore(prev);
    LEVEL_OVERRIDE.store(level as u8, Ordering::SeqCst);
    f()
}

/// All tiers supported by this CPU, weakest first. Used by the Figure-12
/// harness to enumerate runnable configurations.
pub fn supported_levels() -> Vec<SimdLevel> {
    let top = detect_level();
    [
        SimdLevel::Scalar,
        SimdLevel::Sse,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ]
    .into_iter()
    .filter(|&l| l <= top)
    .collect()
}

/// Held by every test in this crate that installs or reads the process-wide
/// override: the test harness runs tests on parallel threads, and two
/// overlapping [`with_level`] scopes restore each other's values.
#[cfg(test)]
pub(crate) fn serialize_level_tests() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding the lock left nothing half-updated.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_caps_but_never_raises() {
        let _serial = serialize_level_tests();
        let detected = detect_level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(current_level(), SimdLevel::Scalar);
        });
        with_level(SimdLevel::Avx512, || {
            assert_eq!(current_level(), detected.min(SimdLevel::Avx512));
        });
        assert_eq!(current_level(), detected);
    }

    #[test]
    fn with_level_restores_on_exit() {
        let _serial = serialize_level_tests();
        set_level_override(Some(SimdLevel::Sse));
        with_level(SimdLevel::Scalar, || {
            assert_eq!(current_level(), SimdLevel::Scalar);
        });
        assert_eq!(current_level(), detect_level().min(SimdLevel::Sse));
        set_level_override(None);
    }

    #[test]
    fn register_bits_monotone() {
        let levels = [
            SimdLevel::Scalar,
            SimdLevel::Sse,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ];
        for w in levels.windows(2) {
            assert!(w[0].register_bits() < w[1].register_bits());
        }
    }

    #[test]
    fn supported_levels_starts_with_scalar() {
        let levels = supported_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        for w in levels.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
