//! Runtime-dispatched SIMD kernels for the `hnsw-flash` workspace.
//!
//! The paper identifies two CPU-level bottlenecks in graph indexing:
//! excessive register loads when streaming full-precision vectors through
//! narrow SIMD registers, and serial table lookups that cannot use SIMD at
//! all. This crate provides the kernels both sides of that comparison need:
//!
//! * [`f32dist`] — full-precision L2² / inner-product kernels (the baseline
//!   HNSW distance path) in scalar, SSE (128-bit), AVX2 (256-bit) and
//!   AVX-512 variants, plus [`l2_sq_4x4`], the register-blocked four
//!   queries × four rows form of `l2_sq` behind the exact ground-truth
//!   scan: each row chunk is loaded once for four queries, and each of the
//!   sixteen results has `l2_sq`'s bits at every level; and
//!   [`l2_sq_bounded`], `l2_sq` that stops once its partial sum passes a
//!   bound (the exact rerank's early exit), `l2_sq`'s bits when it does not;
//! * [`u8dist`] — distances over scalar-quantized `u8` codes (HNSW-SQ path);
//! * [`gemm`] — the coding layer's linear algebra: a register-tiled `A·Bᵀ`
//!   (PCA fit and projection) and the one-to-sixteen centroid distance
//!   (k-means assignment, codeword selection, ADT generation);
//! * [`lut`] — the Flash kernel: 16-entry 8-bit lookup tables resident in a
//!   SIMD register, indexed by 4-bit codewords via byte-shuffle instructions
//!   (`pshufb` / `vpshufb`), producing 16 partial distances per instruction;
//! * [`level`] — feature detection plus a process-wide dispatch override so
//!   the benchmark harness can force SSE/AVX2/AVX-512 paths (paper Fig. 12)
//!   and fully disable SIMD (paper Table 3).
//!
//! All public entry points are safe; `unsafe` is confined to the
//! `#[target_feature]` implementations, each guarded by runtime detection.

pub mod f32dist;
pub mod gemm;
pub mod level;
pub mod lut;
pub mod prefetch;
pub mod u8dist;

pub use f32dist::{inner_product, l2_sq, l2_sq_4x4, l2_sq_bounded, l2_sq_min_rows, norm_sq};
pub use gemm::{dist16, dist16_block, dist16_rows, gemm_nt, nearest16};
pub use level::{current_level, detect_level, set_level_override, supported_levels, SimdLevel};
pub use lut::{lut16_batch, lut16_single, LUT_BATCH};
pub use prefetch::{prefetch_read, prefetch_slice};
pub use u8dist::l2_sq_u8;
