//! The node side: request handling.
//!
//! A node is deliberately dumb — it owns one index and answers one
//! message at a time. Placement, retries, health, and caching are
//! coordinator concerns; keeping the node stateless is what lets the
//! coordinator treat remote and in-process shards identically. Whatever
//! carries the frames ([`super::EventServer`] over sockets,
//! [`super::LoopbackTransport`] in process) calls [`NodeHandler::handle`].

use super::wire::{ErrorCode, Message, NodeInfo, NodeStats, WireFault};
use crate::fault::{FallibleIndex, FaultPlan, FaultyIndex};
use engine::AnnIndex;
use metrics::{SpanRing, TransportCounters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans a node retains for [`Message::StatsRequest`] scrapes before the
/// oldest are overwritten.
const NODE_SPAN_RING_CAPACITY: usize = 4096;

/// Answers protocol messages over one hosted index.
///
/// The handler serves [`FallibleIndex`] so scripted faults
/// ([`Self::with_faults`]) and real transport-reachable indexes flow
/// through one path: a fault becomes a structured error frame, which the
/// client maps back into the [`crate::FaultError`] that drives mark-down
/// and retry on the coordinator.
///
/// The handler also owns the node's observability state — the transport
/// counters every serving surface ([`super::EventServer`],
/// [`super::LoopbackTransport`]) records into, the request counter, the
/// data generation, and the span ring — so a [`Message::StatsRequest`]
/// snapshot is answered from one coherent place and matches what the
/// coordinator's own transport counted.
pub struct NodeHandler {
    index: Box<dyn FallibleIndex>,
    counters: Arc<TransportCounters>,
    requests: AtomicU64,
    generation: AtomicU64,
    ring: Arc<SpanRing>,
    /// Sum of every served search's cost profile (the node-side ledger a
    /// coordinator reconciles against; a Mutex, not atomics, so one
    /// snapshot is never torn across fields).
    profile: Mutex<metrics::QueryProfile>,
}

impl NodeHandler {
    /// Hosts `index` (production path — searches never fail node-side).
    pub fn new(index: Arc<dyn AnnIndex>) -> Self {
        Self::fallible(Box::new(index))
    }

    /// Hosts a pre-wrapped fallible index.
    pub fn fallible(index: Box<dyn FallibleIndex>) -> Self {
        Self {
            index,
            counters: Arc::new(TransportCounters::new()),
            requests: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            ring: Arc::new(SpanRing::new(NODE_SPAN_RING_CAPACITY)),
            profile: Mutex::new(metrics::QueryProfile::new()),
        }
    }

    /// Hosts `index` with `plan`'s scripted faults replayed over its
    /// calls — how tests and demos make a *node* misbehave
    /// deterministically.
    pub fn with_faults(index: Arc<dyn AnnIndex>, plan: FaultPlan) -> Self {
        Self::fallible(Box::new(FaultyIndex::new(index, plan)))
    }

    /// The node-side transport counters (shared with whichever serving
    /// surface carries this handler's frames).
    pub fn counters(&self) -> &Arc<TransportCounters> {
        &self.counters
    }

    /// The node-side span ring (scraped by [`Message::StatsRequest`]).
    pub fn ring(&self) -> &Arc<SpanRing> {
        &self.ring
    }

    /// The node's identity card.
    pub fn info(&self) -> NodeInfo {
        NodeInfo {
            len: self.index.len() as u64,
            dim: self.index.dim() as u32,
            memory_bytes: self.index.memory_bytes() as u64,
            requests: self.requests.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
        }
    }

    /// The node's live observability snapshot.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            info: self.info(),
            transport: self.counters.snapshot(),
            profile: *self.profile.lock().unwrap(),
            spans: self.ring.snapshot(),
        }
    }

    /// Answers one message. Never panics outward: an index panic becomes
    /// an `Internal` error frame, so one byzantine request cannot take a
    /// server thread down.
    pub fn handle(&self, message: Message) -> Message {
        match message {
            Message::Search(request) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.index.try_search(&request)
                }));
                match result {
                    Ok(Ok(response)) => {
                        self.profile.lock().unwrap().add(&response.profile);
                        Message::SearchOk(response)
                    }
                    Ok(Err(fault)) => Message::Error(WireFault::from_fault(fault)),
                    Err(_) => Message::Error(WireFault {
                        code: ErrorCode::Internal,
                        message: "index panicked while serving the request".into(),
                    }),
                }
            }
            Message::InfoRequest => Message::InfoResponse(self.info()),
            Message::StatsRequest => Message::StatsResponse(self.stats()),
            // A well-formed frame of a kind this node does not handle
            // (BadRequest is reserved for frames that don't decode).
            other => Message::Error(WireFault {
                code: ErrorCode::Unsupported,
                message: format!("node cannot serve a {} frame", other.kind_name()),
            }),
        }
    }
}
