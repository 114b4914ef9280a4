//! Per-query structural cost profiles.
//!
//! A [`QueryProfile`] counts what a search *did* — graph hops, distance
//! evaluations, neighbor rows scored, codeword bytes touched — rather
//! than how long it took. Every field is a pure function of
//! `(index, query, parameters)`: no clocks, no sampling, no allocation.
//! That makes profiles the structural currency of the whole perf plane:
//! they reproduce byte-for-byte across identically-seeded runs, and
//! aggregate losslessly — a coordinator's
//! per-query profile is exactly the sum of the per-shard profiles it
//! gathered, and a node's cumulative profile is exactly the sum of the
//! per-query profiles it served.
//!
//! The counters are accumulated inside the search kernels' pooled
//! scratch state (`graphs::scratch`) with plain unconditional integer
//! adds — no branches, no feature flag, no allocation — so carrying
//! them costs nothing measurable on the hot path.

use crate::report::Json;

/// Field names in canonical (JSON and wire) order.
pub const PROFILE_FIELDS: [&str; 9] = [
    "hops_upper",
    "hops_base",
    "dist_coded",
    "dist_exact",
    "rows_scored",
    "codeword_bytes",
    "visited_inserts",
    "rerank_pool",
    "scratch_checkouts",
];

/// Structural cost counters for one query (or, summed, for any set of
/// queries: a batch, a shard fan-out, a node's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Greedy-descent steps through the upper graph layers.
    pub hops_upper: u64,
    /// Beam expansions at the base layer.
    pub hops_base: u64,
    /// Distance evaluations against compressed codes (LUT lookups,
    /// scalar-quantized or projected comparisons).
    pub dist_coded: u64,
    /// Distance evaluations against full-precision vectors (baseline
    /// provider scoring, brute-force scans, exact rerank passes).
    pub dist_exact: u64,
    /// Neighbor rows scored as one block via `dist_to_neighbors`.
    pub rows_scored: u64,
    /// Bytes of codeword payload touched (`NodePayloads` reads and
    /// per-expansion payload rebuilds).
    pub codeword_bytes: u64,
    /// Fresh inserts into the visited set.
    pub visited_inserts: u64,
    /// Candidates fed to exact rerank passes.
    pub rerank_pool: u64,
    /// Pooled scratch checkouts consumed.
    pub scratch_checkouts: u64,
}

impl QueryProfile {
    /// The all-zero profile (`const` so it can seed thread-local cells).
    pub const fn new() -> Self {
        Self {
            hops_upper: 0,
            hops_base: 0,
            dist_coded: 0,
            dist_exact: 0,
            rows_scored: 0,
            codeword_bytes: 0,
            visited_inserts: 0,
            rerank_pool: 0,
            scratch_checkouts: 0,
        }
    }

    /// Element-wise accumulation (profiles aggregate by summation at
    /// every layer of the serving stack).
    pub fn add(&mut self, other: &QueryProfile) {
        self.hops_upper += other.hops_upper;
        self.hops_base += other.hops_base;
        self.dist_coded += other.dist_coded;
        self.dist_exact += other.dist_exact;
        self.rows_scored += other.rows_scored;
        self.codeword_bytes += other.codeword_bytes;
        self.visited_inserts += other.visited_inserts;
        self.rerank_pool += other.rerank_pool;
        self.scratch_checkouts += other.scratch_checkouts;
    }

    /// Whether no work was recorded (a cache hit, or an untouched index).
    pub fn is_zero(&self) -> bool {
        *self == Self::new()
    }

    /// Total distance evaluations, coded and exact combined.
    pub fn dist_evals(&self) -> u64 {
        self.dist_coded + self.dist_exact
    }

    /// The fields in [`PROFILE_FIELDS`] order (wire + JSON encoding).
    pub fn as_array(&self) -> [u64; 9] {
        [
            self.hops_upper,
            self.hops_base,
            self.dist_coded,
            self.dist_exact,
            self.rows_scored,
            self.codeword_bytes,
            self.visited_inserts,
            self.rerank_pool,
            self.scratch_checkouts,
        ]
    }

    /// Rebuilds a profile from [`Self::as_array`] order.
    pub fn from_array(values: [u64; 9]) -> Self {
        Self {
            hops_upper: values[0],
            hops_base: values[1],
            dist_coded: values[2],
            dist_exact: values[3],
            rows_scored: values[4],
            codeword_bytes: values[5],
            visited_inserts: values[6],
            rerank_pool: values[7],
            scratch_checkouts: values[8],
        }
    }

    /// This profile as a JSON object with fields in canonical order
    /// (every value is structural).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            PROFILE_FIELDS
                .iter()
                .zip(self.as_array())
                .map(|(name, v)| ((*name).to_string(), Json::uint(v)))
                .collect(),
        )
    }

    /// Parses [`Self::to_json`] output (extra keys rejected, all nine
    /// fields required).
    pub fn from_json(json: &Json) -> Option<Self> {
        let Json::Obj(fields) = json else {
            return None;
        };
        if fields.len() != PROFILE_FIELDS.len() {
            return None;
        }
        let mut values = [0u64; 9];
        for (slot, name) in values.iter_mut().zip(PROFILE_FIELDS) {
            let (_, v) = fields.iter().find(|(k, _)| k == name)?;
            *slot = match v {
                Json::Int(i) if *i >= 0 => *i as u64,
                _ => return None,
            };
        }
        Some(Self::from_array(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile {
            hops_upper: 3,
            hops_base: 17,
            dist_coded: 240,
            dist_exact: 40,
            rows_scored: 20,
            codeword_bytes: 4096,
            visited_inserts: 210,
            rerank_pool: 40,
            scratch_checkouts: 1,
        }
    }

    #[test]
    fn add_sums_every_field() {
        let mut a = sample();
        a.add(&sample());
        assert_eq!(a.as_array(), sample().as_array().map(|v| v * 2));
        assert_eq!(a.dist_evals(), 560);
        assert!(!a.is_zero());
        assert!(QueryProfile::new().is_zero());
    }

    #[test]
    fn json_roundtrips_in_canonical_order() {
        let p = sample();
        let json = p.to_json();
        let Json::Obj(fields) = &json else {
            panic!("profile must serialize as an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, PROFILE_FIELDS);
        assert_eq!(QueryProfile::from_json(&json), Some(p));
        // Reparse from text too.
        let reparsed = Json::parse(&json.to_pretty_string()).unwrap();
        assert_eq!(QueryProfile::from_json(&reparsed), Some(p));
    }

    #[test]
    fn from_json_rejects_missing_or_negative_fields() {
        let mut truncated = match sample().to_json() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        truncated.pop();
        assert_eq!(QueryProfile::from_json(&Json::Obj(truncated)), None);
        let mut negative = match sample().to_json() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        negative[0].1 = Json::Int(-1);
        assert_eq!(QueryProfile::from_json(&Json::Obj(negative)), None);
        assert_eq!(QueryProfile::from_json(&Json::Null), None);
    }
}
