//! `BENCH_*.json` — the scenario harness's machine-readable report format.
//!
//! The workspace is built offline (no crates.io), so there is no serde;
//! this module hand-rolls the small JSON subset the harness needs: an
//! order-preserving value type ([`Json`]), a writer with strict escaping
//! and non-finite-float demotion, and a parser used by the round-trip
//! tests and the CLI's post-write self-check.
//!
//! Two invariants matter more than generality:
//!
//! 1. **No `NaN`/`inf` ever reaches the file.** JSON has no spelling for
//!    them, and a single `NaN` silently poisons every downstream consumer.
//!    [`Json::num`] demotes non-finite floats to `null`, and
//!    [`BenchReport::validate`] rejects reports whose recall/latency
//!    fields are not finite numbers.
//! 2. **Byte-stable output.** Keys are written in insertion order and
//!    floats through Rust's shortest-round-trip formatter, so two runs
//!    that produce equal values produce equal bytes — which is what lets
//!    the determinism tests compare reports textually after
//!    [`strip_timings`] removes the wall-clock fields.

use crate::latency::LatencySummary;
use crate::profile::QueryProfile;
use crate::slo::SloSummary;
use crate::ReplicaStats;
use crate::TransportStats;
use std::fmt::Write as _;

/// Schema version stamped into every report; bump on breaking changes.
/// Version 2 added the required `trace` key (span-count breakdown);
/// version 3 added the required `admission` key (admission-control
/// counters, `null` for scenarios with no admission policy); version 4
/// added the required `profile` key (structural per-query cost counters
/// summed over the run — see [`crate::profile::QueryProfile`]) and the
/// required `slo` key (burn-rate objective summary, `null` for runs
/// with no objectives).
pub const SCHEMA_VERSION: u64 = 4;

/// Top-level keys every `BENCH_*.json` must carry.
pub const REQUIRED_KEYS: [&str; 16] = [
    "schema_version",
    "scenario",
    "seed",
    "topology",
    "config",
    "queries",
    "qps",
    "latency_ms",
    "recall",
    "cache",
    "admission",
    "trace",
    "profile",
    "slo",
    "mutations",
    "tenants",
];

/// An order-preserving JSON value.
///
/// Objects keep key insertion order (a `Vec` of pairs, not a map): the
/// report schema is small, and stable ordering is what makes the emitted
/// bytes reproducible.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer written without a decimal point.
    Int(i64),
    /// A finite float; construct via [`Json::num`] to enforce finiteness.
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            // Numeric equality crosses the Int/Num divide: the writer may
            // print `Num(1.0)` as `1`, which parses back as `Int(1)`.
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Int(a), Json::Num(b)) | (Json::Num(b), Json::Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Json {
    /// A float value; non-finite inputs become `null` so `NaN`/`inf` can
    /// never reach the serialized file.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// An integer value from any unsigned counter.
    pub fn uint(v: u64) -> Json {
        debug_assert!(v <= i64::MAX as u64, "counter overflows JSON integer");
        Json::Int(v as i64)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the JSON-lines
    /// form trace exports use (one document per line, no trailing
    /// newline; the caller appends it).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    if *v == v.trunc() && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip representation; integral floats
                    // gain a ".0" so they stay visually floats.
                    if *v == v.trunc() && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this module writes, plus
    /// arbitrary whitespace and `\u` escapes).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free run in one step.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        Ok(Json::Num(v))
    }
}

/// Keys whose values are wall-clock measurements and therefore excluded
/// from the determinism comparison. `stage_ms` (the trace summary's
/// per-stage latency breakdown) and `elapsed_ns` (per-span durations in
/// exported traces) are measurements too; the span *counts* stay.
/// [`strip_timings`] is the only reader: nothing compares the values under
/// these keys (timings are `benchmark/`'s to measure).
const TIMING_KEYS: [&str; 5] = [
    "qps",
    "wall_seconds",
    "latency_ms",
    "stage_ms",
    "elapsed_ns",
];

/// Returns a copy of `json` with every timing-valued key (`qps`,
/// `wall_seconds`, `latency_ms`, `stage_ms`, `elapsed_ns`) removed,
/// recursively. Comparing two stripped reports checks exactly the fields
/// that must reproduce for a fixed seed and topology: counts, recall,
/// cache/failover/transport counters.
pub fn strip_timings(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !TIMING_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_timings(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timings).collect()),
        other => other.clone(),
    }
}

/// Query-cache counters in report form (mirror of the serving layer's
/// cache stats; `metrics` cannot depend on `serving`, so the runner copies
/// the three counts across).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Cacheable lookups that missed.
    pub misses: u64,
    /// Requests that bypassed the cache entirely.
    pub uncacheable: u64,
}

impl CacheSummary {
    /// Hit fraction over cacheable lookups; `0.0` when none were seen.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Admission-control outcomes for a scenario run under an overload
/// policy. Every counter is structural (virtual-time in the harness):
/// a fixed seed and policy must reproduce all five exactly, which is
/// what lets CI diff shed/retry behavior across commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSummary {
    /// Query arrivals presented to admission control (first attempts).
    pub submitted: u64,
    /// Requests admitted and executed.
    pub admitted: u64,
    /// Requests answered `Overloaded` with no retries left.
    pub shed: u64,
    /// Shed requests that re-arrived for another attempt.
    pub retried: u64,
    /// Deepest admission queue observed.
    pub max_depth: u64,
}

impl AdmissionSummary {
    /// Report form, insertion-ordered.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("submitted".into(), Json::uint(self.submitted)),
            ("admitted".into(), Json::uint(self.admitted)),
            ("shed".into(), Json::uint(self.shed)),
            ("retried".into(), Json::uint(self.retried)),
            ("max_depth".into(), Json::uint(self.max_depth)),
        ])
    }
}

/// Mutation-stream totals for a scenario run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationSummary {
    /// Vectors inserted during the run.
    pub inserts: u64,
    /// Vectors deleted during the run.
    pub deletes: u64,
    /// Final index generation (0 when the corpus never changed).
    pub generation: u64,
}

/// Per-tenant accounting for multi-tenant scenario streams.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant identifier from the workload spec.
    pub tenant: u32,
    /// Queries issued by this tenant.
    pub queries: u64,
    /// Latency distribution over this tenant's queries.
    pub latency: LatencySummary,
}

/// Aggregated trace-plane accounting for a scenario run.
///
/// The span *counts* are structural — a fixed seed and topology must
/// reproduce them exactly — while `stage_ms` holds wall-clock per-stage
/// totals and is stripped by [`strip_timings`] alongside the other
/// timing fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Query events that carried a trace context.
    pub traces: u64,
    /// Spans lost to ring-buffer overwrite (0 when the ring was sized to
    /// the workload).
    pub dropped: u64,
    /// Span counts by taxonomy name (`cache_lookup`, `route`, ...), in
    /// span-code order. Names with zero spans are omitted.
    pub span_counts: Vec<(String, u64)>,
    /// Total in-span milliseconds by taxonomy name, same order as
    /// `span_counts` (timing; stripped for determinism checks).
    pub stage_ms: Vec<(String, f64)>,
}

/// Everything a scenario run reports; serialized as `BENCH_<scenario>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Scenario name (`steady_zipf`, `fault_storm`, ...).
    pub scenario: String,
    /// Workload seed; same seed + topology ⇒ same non-timing fields.
    pub seed: u64,
    /// Topology label, e.g. `sharded:4+cache:256`.
    pub topology: String,
    /// Scenario knobs worth echoing (key → value), in insertion order.
    pub config: Vec<(String, Json)>,
    /// Total query events executed.
    pub queries: u64,
    /// Wall-clock seconds over the query phase (timing; stripped for
    /// determinism checks).
    pub wall_seconds: f64,
    /// Queries per second (timing).
    pub qps: f64,
    /// Latency distribution over all queries (timing).
    pub latency: LatencySummary,
    /// `k` used for recall measurement.
    pub k: usize,
    /// Queries on which recall was measured against the brute-force oracle.
    pub recall_samples: u64,
    /// Mean recall@k over the sampled queries.
    pub recall_at_k: f64,
    /// Cache counters, when the topology includes a `QueryCache`.
    pub cache: Option<CacheSummary>,
    /// Failover counters, when the topology is replicated. The stats'
    /// `latency_ns` field is wall-clock and is *not* serialized.
    pub failover: Option<ReplicaStats>,
    /// Transport counters, when the topology is remote.
    pub transport: Option<TransportStats>,
    /// Admission-control counters, when the scenario ran under an
    /// overload policy.
    pub admission: Option<AdmissionSummary>,
    /// Trace-plane aggregates, when the run recorded spans.
    pub trace: Option<TraceSummary>,
    /// Structural cost counters summed over every executed query.
    /// Deterministic per (seed, topology): [`strip_timings`] keeps the
    /// whole section and the harness asserts byte-identity on it.
    pub profile: QueryProfile,
    /// Burn-rate objective summary, when the run tracked SLOs.
    pub slo: Option<SloSummary>,
    /// Mutation totals.
    pub mutations: MutationSummary,
    /// Per-tenant accounting, ordered by tenant id.
    pub tenants: Vec<TenantSummary>,
}

fn latency_json(l: &LatencySummary) -> Json {
    Json::Obj(vec![
        ("samples".into(), Json::uint(l.samples as u64)),
        ("mean".into(), Json::num(l.mean_ms)),
        ("p50".into(), Json::num(l.p50_ms)),
        ("p95".into(), Json::num(l.p95_ms)),
        ("p99".into(), Json::num(l.p99_ms)),
        ("p999".into(), Json::num(l.p999_ms)),
        ("max".into(), Json::num(l.max_ms)),
    ])
}

impl BenchReport {
    /// Lowers the report to its JSON form with a stable key order.
    pub fn to_json(&self) -> Json {
        let cache = match &self.cache {
            Some(c) => Json::Obj(vec![
                ("hits".into(), Json::uint(c.hits)),
                ("misses".into(), Json::uint(c.misses)),
                ("uncacheable".into(), Json::uint(c.uncacheable)),
                ("hit_rate".into(), Json::num(c.hit_rate())),
            ]),
            None => Json::Null,
        };
        let failover = self
            .failover
            .as_ref()
            .map_or(Json::Null, ReplicaStats::to_json);
        let transport = self
            .transport
            .as_ref()
            .map_or(Json::Null, TransportStats::to_json);
        let admission = self
            .admission
            .as_ref()
            .map_or(Json::Null, AdmissionSummary::to_json);
        let trace = match &self.trace {
            Some(t) => Json::Obj(vec![
                ("traces".into(), Json::uint(t.traces)),
                ("dropped".into(), Json::uint(t.dropped)),
                (
                    "spans".into(),
                    Json::Obj(
                        t.span_counts
                            .iter()
                            .map(|(name, n)| (name.clone(), Json::uint(*n)))
                            .collect(),
                    ),
                ),
                (
                    "stage_ms".into(),
                    Json::Obj(
                        t.stage_ms
                            .iter()
                            .map(|(name, ms)| (name.clone(), Json::num(*ms)))
                            .collect(),
                    ),
                ),
            ]),
            None => Json::Null,
        };
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("tenant".into(), Json::uint(u64::from(t.tenant))),
                    ("queries".into(), Json::uint(t.queries)),
                    ("latency_ms".into(), latency_json(&t.latency)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::uint(SCHEMA_VERSION)),
            ("scenario".into(), Json::str(&self.scenario)),
            ("seed".into(), Json::uint(self.seed)),
            ("topology".into(), Json::str(&self.topology)),
            ("config".into(), Json::Obj(self.config.clone())),
            ("queries".into(), Json::uint(self.queries)),
            ("wall_seconds".into(), Json::num(self.wall_seconds)),
            ("qps".into(), Json::num(self.qps)),
            ("latency_ms".into(), latency_json(&self.latency)),
            (
                "recall".into(),
                Json::Obj(vec![
                    ("k".into(), Json::uint(self.k as u64)),
                    ("samples".into(), Json::uint(self.recall_samples)),
                    ("recall_at_k".into(), Json::num(self.recall_at_k)),
                ]),
            ),
            ("cache".into(), cache),
            ("failover".into(), failover),
            ("transport".into(), transport),
            ("admission".into(), admission),
            ("trace".into(), trace),
            ("profile".into(), self.profile.to_json()),
            (
                "slo".into(),
                self.slo.as_ref().map_or(Json::Null, SloSummary::to_json),
            ),
            (
                "mutations".into(),
                Json::Obj(vec![
                    ("inserts".into(), Json::uint(self.mutations.inserts)),
                    ("deletes".into(), Json::uint(self.mutations.deletes)),
                    ("generation".into(), Json::uint(self.mutations.generation)),
                ]),
            ),
            ("tenants".into(), Json::Arr(tenants)),
        ])
    }

    /// Serializes the report; this is the exact file content of
    /// `BENCH_<scenario>.json`.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Checks that a parsed report carries every required key and that its
    /// recall/latency fields are finite numbers (never `null`, `NaN`, or a
    /// string). Used by the CLI's post-write self-check and by CI.
    pub fn validate(json: &Json) -> Result<(), String> {
        if !matches!(json, Json::Obj(_)) {
            return Err("report is not a JSON object".into());
        }
        for key in REQUIRED_KEYS {
            if json.get(key).is_none() {
                return Err(format!("missing required key '{key}'"));
            }
        }
        let finite = |v: Option<&Json>, what: &str| -> Result<(), String> {
            match v.and_then(Json::as_f64) {
                Some(x) if x.is_finite() => Ok(()),
                _ => Err(format!("{what} is not a finite number")),
            }
        };
        let recall = json.get("recall").unwrap();
        finite(recall.get("recall_at_k"), "recall.recall_at_k")?;
        let latency = json.get("latency_ms").unwrap();
        for p in ["mean", "p50", "p95", "p99", "p999", "max"] {
            finite(latency.get(p), &format!("latency_ms.{p}"))?;
        }
        finite(json.get("qps"), "qps")?;
        if json.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
            return Err(format!("schema_version is not {SCHEMA_VERSION}"));
        }
        let profile = json.get("profile").unwrap();
        QueryProfile::from_json(profile)
            .ok_or_else(|| "profile is not a complete QueryProfile object".to_string())?;
        json.get("tenants")
            .and_then(Json::as_arr)
            .ok_or_else(|| "tenants is not an array".to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            scenario: "steady_zipf".into(),
            seed: 42,
            topology: "sharded:4+cache:256".into(),
            config: vec![
                ("base_n".into(), Json::uint(4000)),
                ("zipf_exponent".into(), Json::num(1.1)),
            ],
            queries: 3000,
            wall_seconds: 1.25,
            qps: 2400.0,
            latency: crate::latency_summary(&[0.4, 0.6, 0.9, 1.4]),
            k: 10,
            recall_samples: 128,
            recall_at_k: 0.971,
            cache: Some(CacheSummary {
                hits: 1200,
                misses: 1700,
                uncacheable: 100,
            }),
            failover: None,
            transport: None,
            admission: Some(AdmissionSummary {
                submitted: 3000,
                admitted: 2900,
                shed: 100,
                retried: 40,
                max_depth: 17,
            }),
            trace: Some(TraceSummary {
                traces: 3000,
                dropped: 0,
                span_counts: vec![("cache_lookup".into(), 3000), ("gather".into(), 3000)],
                stage_ms: vec![("cache_lookup".into(), 1.5), ("gather".into(), 40.25)],
            }),
            profile: QueryProfile {
                hops_upper: 9000,
                hops_base: 51000,
                dist_coded: 720000,
                dist_exact: 120000,
                rows_scored: 60000,
                codeword_bytes: 12288000,
                visited_inserts: 630000,
                rerank_pool: 120000,
                scratch_checkouts: 3000,
            },
            slo: Some({
                let mut tracker = crate::SloTracker::new(
                    crate::BurnConfig::default(),
                    vec![crate::Objective::new("shed_fraction", 0.05)],
                );
                tracker.observe(0, 2900, 100);
                tracker.tick();
                tracker.summary()
            }),
            mutations: MutationSummary::default(),
            tenants: vec![TenantSummary {
                tenant: 0,
                queries: 3000,
                latency: crate::latency_summary(&[0.4, 0.6]),
            }],
        }
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{0001} unicode é 🦀";
        let json = Json::Obj(vec![("k".into(), Json::str(nasty))]);
        let text = json.to_pretty_string();
        assert!(!text.contains('\u{0001}'), "control char must be escaped");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("k").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        let back = Json::parse(r#""🦀 ok""#).unwrap();
        assert_eq!(back, Json::str("🦀 ok"));
    }

    #[test]
    fn non_finite_floats_become_null_not_nan() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Null);
        let mut report = sample_report();
        report.qps = f64::NAN;
        report.recall_at_k = f64::INFINITY;
        let text = report.to_pretty_string();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // ... and validation refuses the resulting nulls.
        let parsed = Json::parse(&text).unwrap();
        assert!(BenchReport::validate(&parsed).is_err());
    }

    #[test]
    fn report_round_trip_is_stable() {
        let report = sample_report();
        let text = report.to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, report.to_json());
        // Serialize → parse → serialize reproduces the bytes exactly.
        assert_eq!(parsed.to_pretty_string(), text);
        BenchReport::validate(&parsed).unwrap();
    }

    #[test]
    fn validate_requires_every_key() {
        let json = sample_report().to_json();
        BenchReport::validate(&json).unwrap();
        for key in REQUIRED_KEYS {
            let Json::Obj(pairs) = &json else {
                unreachable!()
            };
            let without = Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect());
            assert!(
                BenchReport::validate(&without).is_err(),
                "dropping '{key}' should fail validation"
            );
        }
    }

    #[test]
    fn strip_timings_removes_exactly_the_wall_clock_fields() {
        let json = sample_report().to_json();
        let stripped = strip_timings(&json);
        assert!(stripped.get("qps").is_none());
        assert!(stripped.get("wall_seconds").is_none());
        assert!(stripped.get("latency_ms").is_none());
        // Tenant latency goes too, but counts stay.
        let tenant = &stripped.get("tenants").unwrap().as_arr().unwrap()[0];
        assert!(tenant.get("latency_ms").is_none());
        assert_eq!(tenant.get("queries").unwrap().as_u64(), Some(3000));
        assert_eq!(stripped.get("queries").unwrap().as_u64(), Some(3000));
        assert!(stripped.get("recall").is_some());
        assert!(stripped.get("cache").is_some());
        // Admission counters are structural: all five survive the strip.
        let admission = stripped.get("admission").unwrap();
        assert_eq!(admission.get("shed").unwrap().as_u64(), Some(100));
        assert_eq!(admission.get("retried").unwrap().as_u64(), Some(40));
        // The trace summary keeps its structural span counts but loses
        // the per-stage wall-clock breakdown.
        let trace = stripped.get("trace").unwrap();
        assert!(trace.get("stage_ms").is_none());
        assert_eq!(
            trace.get("spans").unwrap().get("gather").unwrap().as_u64(),
            Some(3000)
        );
        assert_eq!(trace.get("traces").unwrap().as_u64(), Some(3000));
        // The whole profile section is structural and survives intact.
        let profile = stripped.get("profile").unwrap();
        assert_eq!(
            QueryProfile::from_json(profile),
            Some(sample_report().profile)
        );
        // SLO counts and burn state are structural too.
        let slo = stripped.get("slo").unwrap();
        assert_eq!(slo.get("ticks").unwrap().as_u64(), Some(1));
        assert!(slo.get("healthy").is_some());
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let json = sample_report().to_json();
        let compact = json.to_compact_string();
        assert!(!compact.contains('\n'), "compact form must be one line");
        assert!(!compact.contains(": "), "no space after separators");
        let back = Json::parse(&compact).unwrap();
        assert_eq!(back, json);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("1e999").is_err(), "overflowing number");
    }

    #[test]
    fn integers_and_floats_compare_across_forms() {
        assert_eq!(Json::Int(3), Json::Num(3.0));
        assert_ne!(Json::Int(3), Json::Num(3.5));
        let text = Json::Num(2.0).to_pretty_string();
        assert_eq!(text.trim(), "2.0");
    }
}
