//! The one way tests and demos put a node behind a socket. Included with
//! `#[path]` by `tests/distributed.rs`, `crates/scenario/tests/harness.rs`
//! and `examples/distributed_serving.rs`.

use serving::distributed::{EventConfig, EventServer, NodeAddr, NodeHandler};
use std::time::Duration;

/// Binds an [`EventServer`] on `threads` loops that never sheds: the
/// callers compare socket-served answers bit for bit with in-process
/// search, often under a `ShardedIndex` (which has no retry), so one
/// `Overloaded` reply on a stalled CI runner would read as a parity
/// failure. Every other knob keeps its default.
pub fn bind_node(addr: &NodeAddr, handler: NodeHandler, threads: usize) -> EventServer {
    EventServer::bind(
        addr,
        handler,
        EventConfig {
            threads,
            queue_deadline: Duration::from_secs(60),
            ..EventConfig::default()
        },
    )
    .expect("bind the node")
}
