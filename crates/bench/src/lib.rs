//! Shared harness for the per-figure/per-table experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (Section 4) at a scale controlled by environment
//! variables, so the same code runs in seconds at the defaults and as a
//! long-form reproduction on a large machine:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `FLASH_N` | database vectors per dataset | `4000` |
//! | `FLASH_QUERIES` | query count | `100` |
//! | `FLASH_C` | HNSW `C` (efConstruction) | `128` |
//! | `FLASH_R` | HNSW `R` (max neighbors) | `16` |
//!
//! A variable that is set must be a positive integer; anything else ends
//! the run naming the variable, never a silent fall-back to the default.
//!
//! Output is GitHub-flavored markdown, one row per configuration, matching
//! the rows/series of the corresponding paper figure. The binaries are the
//! crate's only targets: kernel, encode, build and query *timings* with a
//! protocol (warm-up, repeats, medians, gates) are `benchmark/`'s
//! (`simdops.lut16_batch_ns`, `simdops.l2_sq_ns_*`,
//! `flash.encode_ns_per_vector`, `build_s`, `query_p50_us`).

use engine::{AnnIndex, Coding, GraphKind, IndexBuilder, SearchRequest};
use graphs::HnswParams;
use std::time::{Duration, Instant};
use vecstore::{generate, DatasetProfile, VectorSet};

/// Experiment scale, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Database vectors per dataset.
    pub n: usize,
    /// Held-out queries.
    pub queries: usize,
    /// HNSW candidate bound `C`.
    pub c: usize,
    /// HNSW degree bound `R`.
    pub r: usize,
}

impl Scale {
    /// Reads `FLASH_N` / `FLASH_QUERIES` / `FLASH_C` / `FLASH_R`. A
    /// variable that is set but is not a positive integer ends the process
    /// with a message naming it — a table headed with a scale the user did
    /// not ask for is worse than no table.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            let raw = std::env::var_os(k).map(|v| v.to_string_lossy().into_owned());
            scale_value(k, raw.as_deref(), d).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
        };
        Self {
            n: get("FLASH_N", 4000),
            queries: get("FLASH_QUERIES", 100),
            c: get("FLASH_C", 128),
            r: get("FLASH_R", 16),
        }
    }

    /// The HNSW parameters for this scale.
    pub fn hnsw(&self) -> HnswParams {
        HnswParams {
            c: self.c,
            r: self.r,
            seed: 0xBEEF,
        }
    }
}

/// One scale variable: `default` when unset, its value when it parses to a
/// positive integer, otherwise an error naming the variable and the value.
fn scale_value(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(parsed) if parsed > 0 => Ok(parsed),
            _ => Err(format!("{name}={v:?} is not a positive integer")),
        },
    }
}

/// The five construction methods of the paper's main comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Baseline full-precision HNSW.
    Hnsw,
    /// HNSW-PQ (ADC/SDC).
    HnswPq,
    /// HNSW-SQ (8-bit integer codes).
    HnswSq,
    /// HNSW-PCA (0.9-variance projection).
    HnswPca,
    /// HNSW-Flash (the paper's method).
    HnswFlash,
}

impl Method {
    /// All methods, Flash first (paper figure order: A..E).
    pub const ALL: [Method; 5] = [
        Method::HnswFlash,
        Method::HnswPca,
        Method::HnswSq,
        Method::HnswPq,
        Method::Hnsw,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Method::Hnsw => "HNSW",
            Method::HnswPq => "HNSW-PQ",
            Method::HnswSq => "HNSW-SQ",
            Method::HnswPca => "HNSW-PCA",
            Method::HnswFlash => "HNSW-Flash",
        }
    }

    /// The engine builder for this method at `scale`: HNSW over the
    /// method's coding with the workspace-default codec parameters (PQ:
    /// one subspace per ~48 dims at 8 bits; SQ: 8 bits; PCA: 0.9 variance;
    /// Flash: `FlashParams::auto`).
    pub fn builder(self, scale: Scale) -> IndexBuilder {
        let coding = match self {
            Method::Hnsw => Coding::Full,
            Method::HnswPq => Coding::Pq,
            Method::HnswSq => Coding::Sq,
            Method::HnswPca => Coding::Pca,
            Method::HnswFlash => Coding::Flash,
        };
        let params = scale.hnsw();
        IndexBuilder::new(GraphKind::Hnsw, coding)
            .c(params.c)
            .r(params.r)
            .seed(params.seed)
    }

    /// Builds the method over `base`, returning the index and the
    /// wall-clock indexing time (including coding preprocessing, as the
    /// paper does).
    pub fn build(self, base: VectorSet, scale: Scale) -> (Box<dyn AnnIndex>, Duration) {
        let builder = self.builder(scale);
        let t0 = Instant::now();
        let index = builder.build(base);
        (index, t0.elapsed())
    }

    /// A request with the method's standard pipeline: compressed methods
    /// rerank on the original vectors, as the paper's Flash search does.
    pub fn request(self, query: &[f32], k: usize, ef: usize) -> SearchRequest {
        let rerank = match self {
            Method::Hnsw => 1,
            Method::HnswSq | Method::HnswPca => 4,
            Method::HnswPq | Method::HnswFlash => 8,
        };
        SearchRequest::new(query, k).ef(ef).rerank(rerank)
    }
}

/// Ids of the hits `index` returns for `request`.
pub fn search_ids(index: &dyn AnnIndex, request: &SearchRequest) -> Vec<u32> {
    let hits = index.search(request).hits;
    hits.iter().map(|h| h.id as u32).collect()
}

/// Generates the workload for one paper dataset at the harness scale.
pub fn workload(profile: DatasetProfile, scale: Scale) -> (VectorSet, VectorSet) {
    generate(&profile.spec(), scale.n, scale.queries, 0xDA7A)
}

/// Formats a duration as seconds with 2 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        let s = Scale::from_env();
        assert!(s.n > 0 && s.queries > 0 && s.c >= s.r);
    }

    #[test]
    fn scale_value_keeps_the_default_only_when_unset() {
        assert_eq!(scale_value("FLASH_N", None, 4000), Ok(4000));
        assert_eq!(scale_value("FLASH_N", Some("8000"), 4000), Ok(8000));
        for bad in ["8k", "0", "", "-5", "1e4"] {
            let err = scale_value("FLASH_N", Some(bad), 4000).unwrap_err();
            assert!(err.contains("FLASH_N") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn all_methods_build_and_search_tiny() {
        let scale = Scale {
            n: 300,
            queries: 5,
            c: 32,
            r: 8,
        };
        let (base, queries) = workload(DatasetProfile::SsnppLike, scale);
        for method in Method::ALL {
            let (index, took) = method.build(base.clone(), scale);
            assert!(took.as_nanos() > 0);
            let hits = index.search(&method.request(queries.get(0), 3, 32)).hits;
            assert_eq!(hits.len(), 3, "{}", method.name());
            assert!(index.memory_bytes() > 0);
        }
    }
}
