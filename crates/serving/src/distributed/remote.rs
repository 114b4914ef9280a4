//! The coordinator-side client: a remote node as an [`AnnIndex`].

use super::transport::{SocketTransport, Transport};
use super::wire::{Message, NodeInfo, WireFault};
use super::{NodeAddr, TransportError};
use crate::fault::{FallibleIndex, FaultError, FaultKind};
use crate::{ShardPolicy, ShardedIndex, WorkerPool};
use engine::{AnnIndex, SearchRequest, SearchResponse};
use metrics::TransportStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A node in another process (or an in-process loopback), serving as an
/// index.
///
/// `RemoteIndex` implements both serving surfaces, which is the whole
/// point of the distributed layer:
///
/// * [`FallibleIndex`] — [`Self::try_search`] reports transport failures
///   and node-side faults as [`FaultError`]s, so remote nodes slot into a
///   [`crate::ReplicaGroup`] and inherit mark-down, probed recovery,
///   retry, and generation-based cache invalidation unchanged;
/// * [`AnnIndex`] — composes under [`crate::ShardedIndex`] /
///   `CachedIndex` like any local index. On this
///   infallible surface a transport failure panics (there is no error
///   channel and nothing to serve) — deployments that must survive node
///   loss put replicas behind a group, exactly as with local indexes.
///
/// Failure mapping: connect/I-O errors → [`FaultKind::Dead`] (the node is
/// unreachable until something changes — and the next probe re-dials),
/// timeouts → [`FaultKind::Transient`], undecodable or
/// protocol-violating frames → [`FaultKind::Malformed`]; a node-answered
/// error frame carries its own fault kind across the wire.
///
/// Identity is re-validated after every transport reconnect: a node that
/// was restarted with a different shard (length or dimensionality
/// mismatch against the connect handshake) is rejected with
/// [`FaultKind::Malformed`] instead of silently serving wrong results.
pub struct RemoteIndex {
    transport: Arc<dyn Transport>,
    info: NodeInfo,
    calls: AtomicU64,
    /// Transport reconnects already re-validated (lags
    /// `transport.stats().reconnects` until the next search notices).
    validated_reconnects: AtomicU64,
}

impl RemoteIndex {
    /// Performs the info handshake and returns the connected client.
    /// Fails fast if the node is unreachable or speaks something else.
    pub fn connect(transport: Arc<dyn Transport>) -> Result<Self, TransportError> {
        let info = Self::handshake(transport.as_ref())?;
        let validated_reconnects = AtomicU64::new(transport.stats().reconnects);
        Ok(Self {
            transport,
            info,
            calls: AtomicU64::new(0),
            validated_reconnects,
        })
    }

    fn handshake(transport: &dyn Transport) -> Result<NodeInfo, TransportError> {
        match transport.exchange(&Message::InfoRequest)? {
            Message::InfoResponse(info) => Ok(info),
            Message::Error(fault) => Err(TransportError::Io(format!(
                "node refused the info handshake: {}",
                fault.message
            ))),
            other => Err(TransportError::Io(format!(
                "node answered the info handshake with a {} frame",
                other.kind_name()
            ))),
        }
    }

    /// The node's identity card from the connect handshake.
    pub fn info(&self) -> NodeInfo {
        self.info
    }

    /// When the transport has re-dialed since the last check, re-runs the
    /// info handshake and rejects a node whose identity (length or
    /// dimensionality) changed — a restarted process serving a different
    /// shard must not be silently accepted.
    fn revalidate_after_reconnect(&self, call: u64) -> Result<(), FaultError> {
        let seen = self.transport.stats().reconnects;
        let validated = self.validated_reconnects.load(Ordering::Relaxed);
        if seen == validated {
            return Ok(());
        }
        let fresh =
            Self::handshake(self.transport.as_ref()).map_err(|e| Self::fault_of(&e, call))?;
        if fresh.len != self.info.len || fresh.dim != self.info.dim {
            return Err(FaultError {
                call,
                kind: FaultKind::Malformed,
            });
        }
        // Racing searches may each handshake once; all converge here.
        self.validated_reconnects.store(seen, Ordering::Relaxed);
        Ok(())
    }

    /// The transport's frame/byte/failure counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Search calls attempted so far (successful or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn fault_of(error: &TransportError, call: u64) -> FaultError {
        let kind = match error {
            TransportError::Io(_) => FaultKind::Dead,
            TransportError::Timeout(_) => FaultKind::Transient,
            TransportError::Wire(_) => FaultKind::Malformed,
        };
        FaultError { call, kind }
    }
}

/// The coordinator side of a remote deployment whose nodes each serve one
/// shard of the same [`ShardPolicy::RoundRobin`] split of an `n × dim`
/// corpus, `nodes[s]` hosting shard `s`: dials every address (every call
/// under `timeout`), checks each node's handshake against the shape of its
/// shard, and scatter-gathers across them from a fresh `threads`-worker
/// pool. Shard `s` holds exactly the ids `s, s + shards, …`, so the
/// local→global id maps are recomputed here and no vector data is copied.
/// The transports come back beside the index for the caller's frame
/// ledger. `Err` names the address that is unreachable or serves another
/// shape (or says that no address was given).
pub fn connect_round_robin_shards(
    nodes: &[NodeAddr],
    n: usize,
    dim: usize,
    timeout: Duration,
    threads: usize,
) -> Result<(ShardedIndex, Vec<Arc<SocketTransport>>), String> {
    if nodes.is_empty() {
        return Err("need at least one node address".into());
    }
    let mut transports = Vec::with_capacity(nodes.len());
    let mut parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = Vec::with_capacity(nodes.len());
    for (shard, addr) in nodes.iter().enumerate() {
        let ids: Vec<u64> = (shard as u64..n as u64).step_by(nodes.len()).collect();
        let transport = Arc::new(
            SocketTransport::connect(addr.clone())
                .map_err(|e| format!("{addr}: {e}"))?
                .with_timeout(timeout),
        );
        let remote = RemoteIndex::connect(Arc::clone(&transport) as Arc<dyn Transport>)
            .map_err(|e| format!("{addr}: {e}"))?;
        let info = remote.info();
        if info.len as usize != ids.len() || info.dim as usize != dim {
            return Err(format!(
                "{addr} serves {} vectors x {} dims, but shard {shard}/{} of this base has \
                 {} x {dim} — every node must serve the same base and round-robin split",
                info.len,
                info.dim,
                nodes.len(),
                ids.len()
            ));
        }
        transports.push(transport);
        parts.push((Box::new(remote), ids));
    }
    let pool = Arc::new(WorkerPool::new(threads));
    let index = ShardedIndex::from_parts(parts, ShardPolicy::RoundRobin, pool);
    Ok((index, transports))
}

impl FallibleIndex for RemoteIndex {
    fn len(&self) -> usize {
        self.info.len as usize
    }

    fn dim(&self) -> usize {
        self.info.dim as usize
    }

    fn try_search(&self, request: &SearchRequest) -> Result<SearchResponse, FaultError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if request.filter.is_some() {
            // Closures have no wire form; the codec would reject the
            // frame anyway, so fail before paying a round trip.
            return Err(FaultError {
                call,
                kind: FaultKind::Malformed,
            });
        }
        self.revalidate_after_reconnect(call)?;
        let result = self
            .transport
            .exchange_traced(request.trace.as_ref(), &Message::Search(request.clone()));
        match result {
            Ok(Message::SearchOk(response)) => Ok(response),
            Ok(Message::Error(fault)) => Err(WireFault::to_fault(&fault, call)),
            Ok(_) => Err(FaultError {
                call,
                kind: FaultKind::Malformed,
            }),
            Err(e) => Err(Self::fault_of(&e, call)),
        }
    }

    fn memory_bytes(&self) -> usize {
        // The node's resident bytes: what the fleet actually spends on
        // this shard, which is what capacity accounting wants. The
        // client's own footprint is negligible.
        self.info.memory_bytes as usize
    }
}

impl AnnIndex for RemoteIndex {
    fn len(&self) -> usize {
        self.info.len as usize
    }

    fn dim(&self) -> usize {
        self.info.dim as usize
    }

    /// # Panics
    /// Panics if the node is unreachable or answers garbage — this
    /// surface has no error channel. Nest remote replicas in a
    /// [`crate::ReplicaGroup`] (which calls [`FallibleIndex::try_search`])
    /// to survive node loss instead.
    fn search(&self, request: &SearchRequest) -> SearchResponse {
        FallibleIndex::try_search(self, request)
            .unwrap_or_else(|e| panic!("remote node failed with no replica to fail over to: {e}"))
    }

    fn memory_bytes(&self) -> usize {
        self.info.memory_bytes as usize
    }
}
