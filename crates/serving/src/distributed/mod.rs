//! Cross-process distributed serving: a wire protocol, pluggable
//! transports, remote nodes, and a remote-index client.
//!
//! The in-process `ShardedIndex`/`ReplicaGroup` stack composes over
//! anything that implements [`engine::AnnIndex`] /
//! [`crate::FallibleIndex`] — this module makes *processes on other
//! machines* implement them:
//!
//! * [`wire`] — a versioned, checksummed, length-prefixed frame codec
//!   over the `engine::wire` payload encoding ([`Message`]): search
//!   requests/responses, node info, and structured error frames, all
//!   explicit little-endian; [`wire::frame_bounds`] is the one reader of
//!   the frame header, shared by the decoder, the blocking client read
//!   and the server's readiness loop;
//! * [`Transport`] — one blocking `exchange(request) -> response` trait
//!   with two offline-capable implementations: [`LoopbackTransport`]
//!   (in-memory, deterministic, fault-injectable via [`crate::fault`] —
//!   every call still round-trips the codec both ways) and
//!   [`SocketTransport`] (`UnixStream` or `TcpStream`, persistent
//!   connection with reconnect-on-failure and optional deadlines);
//! * [`EventServer`] — the socket server: hosts any [`engine::AnnIndex`]
//!   (through a [`NodeHandler`]) behind a listener. A hand-rolled
//!   readiness loop over non-blocking sockets multiplexes many connections
//!   per thread, pipelines frames per connection (a strict
//!   request/response client is a pipeline of depth 1), and layers
//!   admission control on top ([`EventConfig`]: adaptive batching,
//!   per-client quotas with backpressure, and deadline-aware load shedding
//!   answered as [`ErrorCode::Overloaded`]); clean shutdown severs live
//!   connections (used to kill nodes mid-run in tests and demos);
//! * [`RemoteIndex`] — the coordinator-side client. It implements
//!   **both** [`engine::AnnIndex`] and [`crate::FallibleIndex`], so a
//!   remote node slots into the existing serving stack unchanged: put
//!   one `RemoteIndex` per shard under a `ShardedIndex`, or several
//!   (one per replica node) under a `ReplicaGroup` — and mark-down,
//!   probed recovery, and generation-based cache invalidation all apply
//!   to remote replicas for free.
//!
//! What deliberately does *not* cross the wire: predicate filters
//! (closures have no byte representation — requests carrying one are
//! rejected at encode time; label filters serialize fine) and index
//! construction (nodes build or load their shard locally; the
//! coordinator only searches).
//!
//! ```
//! use engine::{AnnIndex, FlatIndex, SearchRequest};
//! use serving::distributed::{LoopbackTransport, NodeHandler, RemoteIndex};
//! use std::sync::Arc;
//! use vecstore::VectorSet;
//!
//! let mut base = VectorSet::new(2);
//! for i in 0..16 {
//!     base.push(&[i as f32, 0.0]);
//! }
//! let node: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
//!
//! // "Remote" node over the in-memory loopback transport: every call
//! // still encodes and decodes both frames.
//! let transport = Arc::new(LoopbackTransport::new(NodeHandler::new(node.clone())));
//! let remote = RemoteIndex::connect(transport).unwrap();
//! assert_eq!(remote.len(), 16);
//!
//! let req = SearchRequest::new(vec![3.0, 0.0], 2);
//! assert_eq!(remote.search(&req).hits, node.search(&req).hits);
//! ```

mod event;
mod node;
mod readiness;
mod remote;
mod scrape;
mod transport;
pub mod wire;

pub use event::{AdmissionStats, EventConfig, EventServer};
pub use node::NodeHandler;
pub use remote::{connect_round_robin_shards, RemoteIndex};
pub use scrape::ScrapeServer;
pub use transport::{LoopbackTransport, SocketTransport, Transport};
pub use wire::{ErrorCode, Message, NodeInfo, NodeStats, WireFault};

use engine::WireError;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Where a node listens: a TCP host:port, or (on Unix) a filesystem
/// socket path.
///
/// Parses from the `flash_cli` address syntax: `tcp:HOST:PORT` (a bare
/// `HOST:PORT` also counts) or `unix:/path/to.sock`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeAddr {
    /// A TCP endpoint (`"127.0.0.1:4810"`).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            NodeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl FromStr for NodeAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err("unix: address needs a socket path".into());
                }
                return Ok(NodeAddr::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("unix: addresses are not supported on this platform".into());
            }
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if addr.rsplit_once(':').is_none_or(|(host, port)| {
            host.is_empty() || port.is_empty() || port.parse::<u16>().is_err()
        }) {
            return Err(format!(
                "`{s}` is not a node address (expected tcp:HOST:PORT or unix:/path.sock)"
            ));
        }
        Ok(NodeAddr::Tcp(addr.to_string()))
    }
}

/// Why a transport call failed (distinct from an *answered* error frame,
/// which decodes to [`Message::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Connect, read, or write failed (includes the peer closing the
    /// connection mid-call).
    Io(String),
    /// The call exceeded its deadline.
    Timeout(String),
    /// Bytes arrived, but they don't decode to a protocol frame.
    Wire(WireError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(what) => write!(f, "transport I/O error: {what}"),
            TransportError::Timeout(what) => write!(f, "transport timeout: {what}"),
            TransportError::Wire(e) => write!(f, "transport wire error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

impl TransportError {
    /// Classifies an I/O failure, filing deadline overruns under
    /// [`TransportError::Timeout`].
    pub(crate) fn from_io(context: &str, e: &std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout(format!("{context}: {e}"))
            }
            _ => TransportError::Io(format!("{context}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_addr_parses_and_displays() {
        let tcp: NodeAddr = "tcp:127.0.0.1:4810".parse().unwrap();
        assert_eq!(tcp, NodeAddr::Tcp("127.0.0.1:4810".into()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:4810");
        let bare: NodeAddr = "localhost:9000".parse().unwrap();
        assert_eq!(bare, NodeAddr::Tcp("localhost:9000".into()));
        #[cfg(unix)]
        {
            let unix: NodeAddr = "unix:/tmp/node.sock".parse().unwrap();
            assert_eq!(unix, NodeAddr::Unix(PathBuf::from("/tmp/node.sock")));
            assert_eq!(unix.to_string(), "unix:/tmp/node.sock");
        }
    }

    #[test]
    fn bad_node_addrs_are_rejected() {
        for bad in [
            "",
            "unix:",
            "tcp:",
            "justahost",
            "host:",
            ":123",
            "host:notaport",
        ] {
            assert!(bad.parse::<NodeAddr>().is_err(), "`{bad}` must be rejected");
        }
    }
}
