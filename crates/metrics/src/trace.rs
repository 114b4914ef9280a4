//! Deterministic per-request tracing for the serving stack.
//!
//! A [`TraceContext`] rides inside a search request as it descends the
//! serving layers (cache → replica group → shards → wire → node); each
//! layer records one or more typed [`SpanKind`]s into the context's
//! shared [`SpanRing`]. Trace ids are derived from `(seed, sequence)`
//! with [`trace_id_for`] — never from wall-clock — so two runs with the
//! same workload produce the same ids and the same span *structure*;
//! only [`SpanRecord::elapsed_ns`] varies between runs (the JSON forms
//! emit it under the `elapsed_ns` key).
//!
//! Ordering model: spans are recorded concurrently (shard fan-out runs
//! on worker threads), so the ring's global claim order is not
//! reproducible. What *is* reproducible is the per-lane order — a lane
//! is one sequential execution strand (`None` = the coordinator strand,
//! `Some(shard)` = that shard's fan-out strand), and every span of a
//! lane is recorded by one thread in program order. [`SpanRing::for_trace`]
//! therefore sorts by `(lane, claim order)`, which yields one canonical,
//! reproducible span sequence per trace.

use crate::report::Json;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire encoding of "no lane" (the coordinator strand).
pub const LANE_NONE: u32 = u32::MAX;

/// How an attempt ended, as recorded in a span (mirrors the serving
/// layer's fault kinds without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The attempt succeeded.
    Ok,
    /// Failed transiently; a retry may succeed.
    Transient,
    /// Failed hard; the target is down until something changes.
    Dead,
    /// The target answered, but not with usable results.
    Malformed,
}

impl SpanOutcome {
    /// Stable numeric code (wire + ring encoding).
    pub fn code(self) -> u64 {
        match self {
            SpanOutcome::Ok => 0,
            SpanOutcome::Transient => 1,
            SpanOutcome::Dead => 2,
            SpanOutcome::Malformed => 3,
        }
    }

    /// Decodes [`Self::code`].
    pub fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            0 => SpanOutcome::Ok,
            1 => SpanOutcome::Transient,
            2 => SpanOutcome::Dead,
            3 => SpanOutcome::Malformed,
            _ => return None,
        })
    }

    /// Lower-case diagnostic name (the JSON form).
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Transient => "transient",
            SpanOutcome::Dead => "dead",
            SpanOutcome::Malformed => "malformed",
        }
    }
}

/// One typed span: which stage of the serving stack ran, with the
/// stage's structural facts (counts, not durations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The query cache was consulted.
    CacheLookup {
        /// Whether the lookup hit.
        hit: bool,
    },
    /// The replica router planned a candidate order.
    Route {
        /// Candidates in the plan.
        candidates: u64,
    },
    /// One attempt was placed on a replica.
    ReplicaAttempt {
        /// The replica's id within its group.
        replica: u64,
        /// How the attempt ended.
        outcome: SpanOutcome,
    },
    /// A request was fanned out across shards.
    ShardFanout {
        /// Shards addressed.
        shards: u64,
    },
    /// Per-shard results were merged.
    Gather {
        /// Hits surviving the merge.
        merged: u64,
    },
    /// An exact rerank pass over a candidate pool.
    Rerank {
        /// Candidate-pool size.
        pool: u64,
    },
    /// One framed request/response round trip.
    WireExchange {
        /// Frame bytes written.
        bytes_out: u64,
        /// Frame bytes read.
        bytes_in: u64,
    },
    /// Time spent queued behind admission control before execution (the
    /// duration lives in `elapsed_ns`, like every span).
    QueueWait {
        /// Queue depth observed when this request was enqueued.
        depth: u64,
    },
}

impl SpanKind {
    /// Lower-snake-case span taxonomy name (the JSON `kind` value).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::CacheLookup { .. } => "cache_lookup",
            SpanKind::Route { .. } => "route",
            SpanKind::ReplicaAttempt { .. } => "replica_attempt",
            SpanKind::ShardFanout { .. } => "shard_fanout",
            SpanKind::Gather { .. } => "gather",
            SpanKind::Rerank { .. } => "rerank",
            SpanKind::WireExchange { .. } => "wire_exchange",
            SpanKind::QueueWait { .. } => "queue_wait",
        }
    }

    /// Stable numeric code (wire + ring encoding); `0` is reserved for
    /// "empty slot".
    pub fn code(&self) -> u8 {
        match self {
            SpanKind::CacheLookup { .. } => 1,
            SpanKind::Route { .. } => 2,
            SpanKind::ReplicaAttempt { .. } => 3,
            SpanKind::ShardFanout { .. } => 4,
            SpanKind::Gather { .. } => 5,
            SpanKind::Rerank { .. } => 6,
            SpanKind::WireExchange { .. } => 7,
            SpanKind::QueueWait { .. } => 8,
        }
    }

    /// The kind's two payload words (ring + wire encoding).
    pub fn payload(&self) -> (u64, u64) {
        match *self {
            SpanKind::CacheLookup { hit } => (u64::from(hit), 0),
            SpanKind::Route { candidates } => (candidates, 0),
            SpanKind::ReplicaAttempt { replica, outcome } => (replica, outcome.code()),
            SpanKind::ShardFanout { shards } => (shards, 0),
            SpanKind::Gather { merged } => (merged, 0),
            SpanKind::Rerank { pool } => (pool, 0),
            SpanKind::WireExchange {
                bytes_out,
                bytes_in,
            } => (bytes_out, bytes_in),
            SpanKind::QueueWait { depth } => (depth, 0),
        }
    }

    /// Decodes a `(code, payload)` triple back into a kind.
    pub fn from_raw(code: u8, a: u64, b: u64) -> Option<SpanKind> {
        Some(match code {
            1 => SpanKind::CacheLookup { hit: a != 0 },
            2 => SpanKind::Route { candidates: a },
            3 => SpanKind::ReplicaAttempt {
                replica: a,
                outcome: SpanOutcome::from_code(b)?,
            },
            4 => SpanKind::ShardFanout { shards: a },
            5 => SpanKind::Gather { merged: a },
            6 => SpanKind::Rerank { pool: a },
            7 => SpanKind::WireExchange {
                bytes_out: a,
                bytes_in: b,
            },
            8 => SpanKind::QueueWait { depth: a },
            _ => return None,
        })
    }
}

/// One recorded span, as read back out of a [`SpanRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace_id: u64,
    /// Ring claim order — a tiebreaker *within* a lane, not a
    /// reproducible value across runs (see the module docs).
    pub seq: u64,
    /// Execution strand: `None` = coordinator, `Some(i)` = shard `i`.
    pub lane: Option<u32>,
    /// What ran.
    pub kind: SpanKind,
    /// Wall-clock duration. Timing-only: excluded from structural
    /// comparison and stripped from reports.
    pub elapsed_ns: u64,
}

impl SpanRecord {
    /// The lane's wire form ([`LANE_NONE`] for the coordinator strand).
    pub fn lane_raw(&self) -> u32 {
        self.lane.unwrap_or(LANE_NONE)
    }

    /// Decodes a wire-form lane.
    pub fn lane_of_raw(raw: u32) -> Option<u32> {
        (raw != LANE_NONE).then_some(raw)
    }

    /// This span as a JSON object (`elapsed_ns` is its one timing key).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> =
            vec![("kind".into(), Json::Str(self.kind.name().into()))];
        fields.push((
            "lane".into(),
            match self.lane {
                Some(l) => Json::Int(i64::from(l)),
                None => Json::Null,
            },
        ));
        match self.kind {
            SpanKind::CacheLookup { hit } => fields.push(("hit".into(), Json::Bool(hit))),
            SpanKind::Route { candidates } => {
                fields.push(("candidates".into(), Json::Int(candidates as i64)))
            }
            SpanKind::ReplicaAttempt { replica, outcome } => {
                fields.push(("replica".into(), Json::Int(replica as i64)));
                fields.push(("outcome".into(), Json::Str(outcome.name().into())));
            }
            SpanKind::ShardFanout { shards } => {
                fields.push(("shards".into(), Json::Int(shards as i64)))
            }
            SpanKind::Gather { merged } => fields.push(("merged".into(), Json::Int(merged as i64))),
            SpanKind::Rerank { pool } => fields.push(("pool".into(), Json::Int(pool as i64))),
            SpanKind::WireExchange {
                bytes_out,
                bytes_in,
            } => {
                fields.push(("bytes_out".into(), Json::Int(bytes_out as i64)));
                fields.push(("bytes_in".into(), Json::Int(bytes_in as i64)));
            }
            SpanKind::QueueWait { depth } => fields.push(("depth".into(), Json::Int(depth as i64))),
        }
        fields.push(("elapsed_ns".into(), Json::Int(self.elapsed_ns as i64)));
        Json::Obj(fields)
    }
}

/// One trace (its canonically ordered spans) as a JSON object — the
/// `--trace-out` line format.
pub fn trace_to_json(trace_id: u64, spans: &[SpanRecord]) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(format!("{trace_id:016x}"))),
        (
            "spans".into(),
            Json::Arr(spans.iter().map(SpanRecord::to_json).collect()),
        ),
    ])
}

/// Collects each trace id's spans from one ring snapshot into the
/// `--trace-out` line format, one JSON object per id in the given order.
/// Spans are canonically ordered per trace (coordinator lane first, then
/// per-shard lanes, each in program order), so the structure is
/// reproducible even though concurrent lanes interleave in the ring. A
/// single snapshot serves every id — O(ring + ids), not O(ring × ids).
pub fn collect_traces(ring: &SpanRing, trace_ids: &[u64]) -> Vec<Json> {
    let mut by_trace: std::collections::HashMap<u64, Vec<SpanRecord>> =
        std::collections::HashMap::with_capacity(trace_ids.len());
    for s in ring.snapshot() {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    trace_ids
        .iter()
        .map(|&id| {
            let mut spans = by_trace.remove(&id).unwrap_or_default();
            spans.sort_by_key(|r| (r.lane.is_some(), r.lane.unwrap_or(0), r.seq));
            trace_to_json(id, &spans)
        })
        .collect()
}

/// Derives a deterministic, non-zero trace id from a workload seed and a
/// request sequence number (splitmix64 over both words; `0` is reserved
/// for "untraced" on the wire).
pub fn trace_id_for(seed: u64, sequence: u64) -> u64 {
    let id = splitmix64(seed ^ splitmix64(sequence.wrapping_add(0x51ED_2701)));
    if id == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        id
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One ring slot: a seqlock version word plus the span's fields, each an
/// atomic so torn reads are detected, never undefined.
#[derive(Default)]
struct Slot {
    /// `0` = never written; odd = write in progress; even non-zero =
    /// stable (the value commits to one particular claim, so a reader
    /// that sees the same even version before and after its field reads
    /// got a coherent record).
    version: AtomicU64,
    trace_id: AtomicU64,
    seq: AtomicU64,
    /// `kind code | lane << 32` packed into one word.
    kind_lane: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    elapsed_ns: AtomicU64,
}

/// A lock-free bounded span buffer: writers claim slots with one
/// `fetch_add` and publish via a per-slot seqlock; readers snapshot
/// without blocking writers, discarding slots caught mid-write. When the
/// ring wraps, the oldest spans are overwritten ([`Self::dropped`] counts
/// them) — size the ring to the workload to keep traces complete.
pub struct SpanRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl SpanRing {
    /// A ring of at least `capacity` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity).map(|_| Slot::default()).collect::<Vec<_>>();
        Self {
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans recorded over the ring's lifetime (recorded, not retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Spans lost to wrap-around.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records one span (lock-free; never blocks the serving path).
    pub fn record(&self, trace_id: u64, lane: Option<u32>, kind: SpanKind, elapsed_ns: u64) {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        let (a, b) = kind.payload();
        let lane_raw = lane.unwrap_or(LANE_NONE);
        // Seqlock write: odd version in, fields, even version out. The
        // version commits to this claim (`seq`), so a racing wrap-around
        // writer leaves a *different* even version behind and a reader
        // pairing our "before" with their "after" still rejects the slot.
        slot.version
            .store(seq.wrapping_mul(2) | 1, Ordering::Release);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.kind_lane.store(
            u64::from(kind.code()) | (u64::from(lane_raw) << 32),
            Ordering::Relaxed,
        );
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.elapsed_ns.store(elapsed_ns, Ordering::Relaxed);
        slot.version
            .store(seq.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// A coherent snapshot of every retained span, in claim order. Slots
    /// caught mid-write are skipped, not blocked on.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.version.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue; // never written, or mid-write
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let seq = slot.seq.load(Ordering::Relaxed);
            let kind_lane = slot.kind_lane.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let elapsed_ns = slot.elapsed_ns.load(Ordering::Relaxed);
            if slot.version.load(Ordering::Acquire) != before {
                continue; // overwritten while reading
            }
            let kind = match SpanKind::from_raw((kind_lane & 0xFF) as u8, a, b) {
                Some(kind) => kind,
                None => continue, // torn beyond detection; drop, don't guess
            };
            out.push(SpanRecord {
                trace_id,
                seq,
                lane: SpanRecord::lane_of_raw((kind_lane >> 32) as u32),
                kind,
                elapsed_ns,
            });
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The canonical span sequence of one trace: coordinator-lane spans
    /// first, then each shard lane in order, each lane in program order.
    /// This ordering is reproducible across runs (see the module docs).
    pub fn for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        spans.sort_by_key(|r| (r.lane.is_some(), r.lane.unwrap_or(0), r.seq));
        spans
    }
}

impl fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The tracing handle a request carries: a trace id, the execution lane,
/// and the shared ring spans land in. Cloning is cheap (one `Arc` bump);
/// [`Self::with_lane`] derives the per-shard contexts for fan-out.
#[derive(Clone)]
pub struct TraceContext {
    trace_id: u64,
    lane: Option<u32>,
    ring: Arc<SpanRing>,
}

impl TraceContext {
    /// A coordinator-lane context for `trace_id`, recording into `ring`.
    pub fn new(ring: Arc<SpanRing>, trace_id: u64) -> Self {
        Self {
            trace_id,
            lane: None,
            ring,
        }
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The execution lane (`None` = coordinator).
    pub fn lane(&self) -> Option<u32> {
        self.lane
    }

    /// The shared ring.
    pub fn ring(&self) -> &Arc<SpanRing> {
        &self.ring
    }

    /// This trace viewed from shard lane `lane` (what a fan-out layer
    /// attaches to each per-shard sub-request).
    pub fn with_lane(&self, lane: u32) -> Self {
        Self {
            trace_id: self.trace_id,
            lane: Some(lane),
            ring: Arc::clone(&self.ring),
        }
    }

    /// Records `kind` with no duration (structural-only span).
    pub fn record(&self, kind: SpanKind) {
        self.record_timed(kind, 0);
    }

    /// Records `kind` with a measured duration.
    pub fn record_timed(&self, kind: SpanKind, elapsed_ns: u64) {
        self.ring.record(self.trace_id, self.lane, kind, elapsed_ns);
    }
}

impl fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceContext")
            .field("trace_id", &format_args!("{:016x}", self.trace_id))
            .field("lane", &self.lane)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        assert_eq!(trace_id_for(42, 7), trace_id_for(42, 7));
        assert_ne!(trace_id_for(42, 7), trace_id_for(42, 8));
        assert_ne!(trace_id_for(42, 7), trace_id_for(43, 7));
        for seq in 0..1000 {
            assert_ne!(trace_id_for(0, seq), 0);
        }
    }

    #[test]
    fn kinds_roundtrip_through_raw() {
        let kinds = [
            SpanKind::CacheLookup { hit: true },
            SpanKind::Route { candidates: 3 },
            SpanKind::ReplicaAttempt {
                replica: 2,
                outcome: SpanOutcome::Transient,
            },
            SpanKind::ShardFanout { shards: 4 },
            SpanKind::Gather { merged: 40 },
            SpanKind::Rerank { pool: 80 },
            SpanKind::WireExchange {
                bytes_out: 128,
                bytes_in: 512,
            },
            SpanKind::QueueWait { depth: 17 },
        ];
        for kind in kinds {
            let (a, b) = kind.payload();
            assert_eq!(SpanKind::from_raw(kind.code(), a, b), Some(kind));
        }
        assert_eq!(SpanKind::from_raw(0, 0, 0), None);
        assert_eq!(SpanKind::from_raw(99, 0, 0), None);
    }

    #[test]
    fn ring_records_and_reads_back_in_claim_order() {
        let ring = SpanRing::new(16);
        let id = trace_id_for(1, 0);
        ring.record(id, None, SpanKind::CacheLookup { hit: false }, 10);
        ring.record(id, Some(0), SpanKind::ShardFanout { shards: 2 }, 0);
        ring.record(id, None, SpanKind::Gather { merged: 5 }, 20);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::CacheLookup { hit: false });
        assert_eq!(spans[0].elapsed_ns, 10);
        assert_eq!(spans[1].lane, Some(0));
        assert_eq!(spans[2].kind, SpanKind::Gather { merged: 5 });
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn for_trace_orders_coordinator_lane_first() {
        let ring = Arc::new(SpanRing::new(32));
        let ctx = TraceContext::new(Arc::clone(&ring), trace_id_for(9, 9));
        let other = TraceContext::new(Arc::clone(&ring), trace_id_for(9, 10));
        ctx.with_lane(1).record(SpanKind::Gather { merged: 1 });
        other.record(SpanKind::Route { candidates: 1 });
        ctx.with_lane(0).record(SpanKind::Gather { merged: 2 });
        ctx.record(SpanKind::ShardFanout { shards: 2 });
        let spans = ring.for_trace(ctx.trace_id());
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].lane, None);
        assert_eq!(spans[1].lane, Some(0));
        assert_eq!(spans[2].lane, Some(1));
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let ring = SpanRing::new(8);
        for i in 0..20 {
            ring.record(1, None, SpanKind::Route { candidates: i }, 0);
        }
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.dropped(), 12);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 8);
        assert!(spans.iter().all(|s| s.seq >= 12));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let ring = Arc::new(SpanRing::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        ring.record(
                            u64::from(t) + 1,
                            Some(t),
                            SpanKind::WireExchange {
                                bytes_out: i,
                                bytes_in: i * 2,
                            },
                            0,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every surviving record must be internally consistent.
        for span in ring.snapshot() {
            match span.kind {
                SpanKind::WireExchange {
                    bytes_out,
                    bytes_in,
                } => assert_eq!(bytes_in, bytes_out * 2),
                other => panic!("unexpected kind {other:?}"),
            }
            assert!(span.trace_id >= 1 && span.trace_id <= 4);
        }
    }

    #[test]
    fn json_form_carries_kind_fields_and_elapsed() {
        let rec = SpanRecord {
            trace_id: 7,
            seq: 0,
            lane: Some(2),
            kind: SpanKind::ReplicaAttempt {
                replica: 1,
                outcome: SpanOutcome::Dead,
            },
            elapsed_ns: 42,
        };
        let text = rec.to_json().to_pretty_string();
        assert!(text.contains("\"kind\": \"replica_attempt\""));
        assert!(text.contains("\"replica\": 1"));
        assert!(text.contains("\"outcome\": \"dead\""));
        assert!(text.contains("\"lane\": 2"));
        assert!(text.contains("\"elapsed_ns\": 42"));
        let tree = trace_to_json(rec.trace_id, &[rec]).to_pretty_string();
        assert!(tree.contains("\"trace_id\": \"0000000000000007\""));
        assert!(tree.contains("\"spans\""));
    }

    /// Threaded stress over the seqlock: many writers wrapping the ring
    /// hard while readers snapshot concurrently. Every span recorded must
    /// be either retained stable or counted dropped, no torn record may
    /// escape `snapshot()`, and overwrite-oldest must keep each lane's
    /// surviving sequence monotone in program order.
    #[test]
    fn threaded_writers_never_tear_records_and_account_for_drops() {
        use std::sync::Arc;

        let ring = Arc::new(SpanRing::new(1024));
        let threads: u32 = 8;
        let per_thread: u64 = 4096; // 32k records through 1k slots: heavy wrap
        let writers: Vec<_> = (0..threads)
            .map(|lane| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Cross-field invariants a torn read cannot fake:
                        // bytes_in = bytes_out ^ trace_id, and the low
                        // half of bytes_out mirrors elapsed_ns.
                        let trace_id = 1 + u64::from(lane);
                        let out = (u64::from(lane) << 32) | i;
                        ring.record(
                            trace_id,
                            Some(lane),
                            SpanKind::WireExchange {
                                bytes_out: out,
                                bytes_in: out ^ trace_id,
                            },
                            i,
                        );
                    }
                })
            })
            .collect();
        let check_record = |r: &SpanRecord| match r.kind {
            SpanKind::WireExchange {
                bytes_out,
                bytes_in,
            } => {
                assert_eq!(
                    bytes_in,
                    bytes_out ^ r.trace_id,
                    "torn record escaped snapshot()"
                );
                assert_eq!(
                    bytes_out & 0xFFFF_FFFF,
                    r.elapsed_ns,
                    "fields from two different writes in one record"
                );
                assert_eq!(
                    r.lane,
                    Some((bytes_out >> 32) as u32),
                    "lane does not match the writer that claimed the slot"
                );
            }
            _ => panic!("foreign span kind materialized in the ring"),
        };
        // Readers race the writers: every snapshot they take must already
        // be coherent, mid-write and overwritten slots skipped.
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for r in ring.snapshot() {
                        check_record(&r);
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();

        let total = u64::from(threads) * per_thread;
        assert_eq!(ring.recorded(), total);
        let stable = ring.snapshot();
        assert_eq!(
            stable.len() as u64 + ring.dropped(),
            total,
            "every record is retained stable or counted dropped"
        );
        assert_eq!(
            stable.len(),
            ring.capacity(),
            "a quiesced full ring retains exactly capacity records"
        );
        for r in &stable {
            check_record(r);
        }
        // snapshot() is claim-order sorted; within one lane the claim
        // order must agree with program order even across wrap-around.
        for lane in 0..threads {
            let mut last: Option<u64> = None;
            for r in stable.iter().filter(|r| r.lane == Some(lane)) {
                if let Some(prev) = last {
                    assert!(
                        r.elapsed_ns > prev,
                        "lane {lane}: overwrite-oldest reordered surviving spans"
                    );
                }
                last = Some(r.elapsed_ns);
            }
        }
    }
}
