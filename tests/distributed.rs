//! Distributed serving: cross-process routing over a wire transport.
//!
//! What this suite proves:
//!
//! * **Exact parity** — a coordinator whose shards live behind the wire
//!   (loopback *and* real socket transports) returns bit-identical hits
//!   to the in-process `ShardedIndex` and to the brute-force `FlatIndex`,
//!   across ≥3 graph × coding combinations (exhaustive-`ef` +
//!   full-rerank settings, so approximate indexes become exact);
//! * **Node death mid-run** — with replica nodes behind a
//!   `ReplicaGroup`, killing a node's process surface (its socket
//!   server) mid-workload changes *nothing* about the results, and the
//!   failover counters record the mark-down/retry path;
//! * **One socket server** — every socket in this suite is an
//!   `EventServer`: strict request/response clients (more of them than
//!   loop threads), pipelined clients, Unix and TCP, shutdown with idle
//!   connections;
//! * **Codec robustness** — every frame kind round-trips canonically
//!   (property-tested over arbitrary bit patterns, error frames
//!   included), truncated frames are rejected at every cut point, and
//!   corrupted payloads fail the checksum.

use hnsw_flash::prelude::*;
use proptest::prelude::*;
use serving::distributed::wire::{read_message, write_message, ErrorCode, Message, WireFault};
use serving::distributed::{
    EventConfig, EventServer, LoopbackTransport, NodeAddr, NodeHandler, RemoteIndex,
    SocketTransport, Transport,
};
use serving::FaultKind;
use std::sync::Arc;
use std::time::Duration;

mod support;
use support::bind_node;

/// Exactness setup, identical to `tests/replication.rs`: `EF ≥ N` makes
/// every connected graph search exhaustive and `K · RERANK ≥ N` reranks
/// every candidate with full-precision distances, so every index in play
/// returns the identical global `(dist, id)` top-k.
const N: usize = 180;
const DIM: usize = 12;
const K: usize = 8;
const EF: usize = 256;
const RERANK: usize = 32;

const COMBOS: [(GraphKind, Coding); 3] = [
    (GraphKind::Hnsw, Coding::Flash),
    (GraphKind::Nsg, Coding::Full),
    (GraphKind::Vamana, Coding::Sq),
];

fn dataset(n: usize) -> (VectorSet, VectorSet) {
    generate(&DatasetSpec::new(DIM, 10, 0.95, 0.4, 4), n, 12, 77)
}

fn builder_for(graph: GraphKind, coding: Coding) -> IndexBuilder {
    IndexBuilder::new(graph, coding)
        .c(32)
        .r(8)
        .seed(7)
        .train_sample(100)
        .pq_m(4)
}

fn exhaustive(query: &[f32]) -> SearchRequest {
    SearchRequest::new(query.to_vec(), K).ef(EF).rerank(RERANK)
}

/// Builds the shard sub-indexes exactly as `ShardedIndex::build` does —
/// one codec trained on the full corpus, shared by every shard — but
/// returns the parts so they can be placed behind transports.
fn build_parts(
    base: &VectorSet,
    builder: &IndexBuilder,
    shards: usize,
) -> Vec<(Box<dyn AnnIndex>, Vec<u64>)> {
    let codec = builder.train_codec(base);
    ShardedIndex::partition(base, shards, ShardPolicy::RoundRobin)
        .into_iter()
        .map(|(set, ids)| (builder.build_with_codec(set, &codec), ids))
        .collect()
}

fn tcp_server(index: Arc<dyn AnnIndex>) -> EventServer {
    bind_node(
        &NodeAddr::Tcp("127.0.0.1:0".into()),
        NodeHandler::new(index),
        2,
    )
}

fn remote_over_socket(server: &EventServer) -> RemoteIndex {
    let transport = SocketTransport::connect(server.addr().clone()).expect("dial the node");
    RemoteIndex::connect(Arc::new(transport)).expect("info handshake")
}

#[test]
fn loopback_distributed_matches_sharded_and_flat() {
    let (base, queries) = dataset(N);
    let n = base.len();
    let flat = FlatIndex::new(base.clone());
    for (graph, coding) in COMBOS {
        let builder = builder_for(graph, coding);
        let sharded = ShardedIndex::build(base.clone(), &builder, 3, ShardPolicy::RoundRobin, 2);
        let remote_parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = build_parts(&base, &builder, 3)
            .into_iter()
            .map(|(index, ids)| {
                let transport =
                    Arc::new(LoopbackTransport::new(NodeHandler::new(Arc::from(index))));
                let remote = RemoteIndex::connect(transport).expect("loopback handshake");
                (Box::new(remote) as Box<dyn AnnIndex>, ids)
            })
            .collect();
        let distributed = ShardedIndex::from_parts(
            remote_parts,
            ShardPolicy::RoundRobin,
            Arc::new(WorkerPool::new(2)),
        );
        assert_eq!(distributed.len(), n);
        for qi in 0..queries.len() {
            let req = exhaustive(queries.get(qi));
            let want = flat.search(&req).hits;
            assert_eq!(
                sharded.search(&req).hits,
                want,
                "{graph:?}x{coding:?} q{qi}: in-process sharded != flat"
            );
            assert_eq!(
                distributed.search(&req).hits,
                want,
                "{graph:?}x{coding:?} q{qi}: loopback-distributed != flat"
            );
        }
    }
}

#[test]
fn socket_distributed_matches_sharded_and_flat() {
    let (base, queries) = dataset(N);
    let flat = FlatIndex::new(base.clone());
    for (graph, coding) in COMBOS {
        let builder = builder_for(graph, coding);
        let sharded = ShardedIndex::build(base.clone(), &builder, 3, ShardPolicy::RoundRobin, 2);
        let mut servers = Vec::new();
        let remote_parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = build_parts(&base, &builder, 3)
            .into_iter()
            .map(|(index, ids)| {
                let server = tcp_server(Arc::from(index));
                let remote = remote_over_socket(&server);
                servers.push(server);
                (Box::new(remote) as Box<dyn AnnIndex>, ids)
            })
            .collect();
        let distributed = ShardedIndex::from_parts(
            remote_parts,
            ShardPolicy::RoundRobin,
            Arc::new(WorkerPool::new(3)),
        );
        for qi in 0..queries.len() {
            let req = exhaustive(queries.get(qi));
            let want = flat.search(&req).hits;
            assert_eq!(
                sharded.search(&req).hits,
                want,
                "{graph:?}x{coding:?} q{qi}"
            );
            assert_eq!(
                distributed.search(&req).hits,
                want,
                "{graph:?}x{coding:?} q{qi}: socket-distributed != flat"
            );
        }
        for mut server in servers {
            let stats = server.stats();
            assert!(stats.frames_received > 0, "the node actually served");
            server.shutdown();
        }
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_identically() {
    let (base, queries) = dataset(N);
    let n = base.len();
    let builder = builder_for(GraphKind::Hnsw, Coding::Sq);
    let index: Arc<dyn AnnIndex> = Arc::from(builder.build(base.clone()));
    let path = std::env::temp_dir().join(format!("hfw-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut server = bind_node(
        &NodeAddr::Unix(path.clone()),
        NodeHandler::new(Arc::clone(&index)),
        1,
    );
    let remote = remote_over_socket(&server);
    assert_eq!(FallibleIndex::len(&remote), n);
    for qi in 0..queries.len() {
        let req = exhaustive(queries.get(qi));
        assert_eq!(
            AnnIndex::search(&remote, &req).hits,
            index.search(&req).hits,
            "q{qi} over unix socket"
        );
    }
    let stats = remote.transport_stats();
    assert_eq!(stats.frames_sent, queries.len() as u64 + 1); // + handshake
    assert_eq!(stats.frames_received, stats.frames_sent);
    assert_eq!(stats.errors, 0);
    server.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
}

/// The distributed failover story end to end: every shard is a
/// `ReplicaGroup` of two *remote* nodes; one node is killed mid-run; the
/// results never change and the health model records the transition.
#[test]
fn node_death_mid_run_fails_over_with_identical_results() {
    let (base, queries) = dataset(N);
    let shards = 2;
    let flat = FlatIndex::new(base.clone());
    let builder = builder_for(GraphKind::Hnsw, Coding::Sq);

    // Two identical deterministic builds per shard = two replica nodes.
    let parts_a = build_parts(&base, &builder, shards);
    let parts_b = build_parts(&base, &builder, shards);
    let mut servers: Vec<Vec<EventServer>> = Vec::new();
    let mut groups: Vec<Arc<ReplicaGroup>> = Vec::new();
    let fleet_parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = parts_a
        .into_iter()
        .zip(parts_b)
        .map(|((index_a, ids), (index_b, ids_b))| {
            assert_eq!(ids, ids_b);
            let shard_servers = vec![
                tcp_server(Arc::from(index_a)),
                tcp_server(Arc::from(index_b)),
            ];
            let members: Vec<Box<dyn FallibleIndex>> = shard_servers
                .iter()
                .map(|server| Box::new(remote_over_socket(server)) as Box<dyn FallibleIndex>)
                .collect();
            let group = Arc::new(ReplicaGroup::from_replicas(
                members,
                RoutingPolicy::Primary,
                HealthConfig {
                    error_threshold: 1,
                    probe_after: 1_000, // no probes within this test
                },
            ));
            servers.push(shard_servers);
            groups.push(Arc::clone(&group));
            (Box::new(group) as Box<dyn AnnIndex>, ids)
        })
        .collect();
    let fleet = ShardedIndex::from_parts(
        fleet_parts,
        ShardPolicy::RoundRobin,
        Arc::new(WorkerPool::new(2)),
    );

    let run = |label: &str| {
        for qi in 0..queries.len() {
            let req = exhaustive(queries.get(qi));
            assert_eq!(
                fleet.search(&req).hits,
                flat.search(&req).hits,
                "{label}: q{qi} diverged from brute force"
            );
        }
    };
    run("healthy fleet");
    let before = groups[0].generation();

    // Kill shard 0's primary node: connections sever, the next call on
    // its RemoteIndex fails like a crashed process.
    servers[0][0].shutdown();
    run("shard 0 primary dead");

    let g0 = groups[0].failover_stats();
    assert_eq!(g0.markdowns, 1, "the dead node was marked down once");
    assert!(g0.retries >= 1, "its request was retried on the sibling");
    assert!(g0.errors >= 1);
    assert!(groups[0].is_marked_down(0));
    assert!(
        groups[0].generation() > before,
        "mark-down bumps the cache-invalidation generation"
    );
    // The healthy shard never failed over.
    assert_eq!(groups[1].failover_stats().markdowns, 0);

    for shard_servers in &mut servers {
        for server in shard_servers {
            server.shutdown();
        }
    }
}

/// A live node answers [`Message::StatsRequest`] with a transport ledger
/// that mirrors the coordinator's own: the node snapshots *after*
/// counting the scrape request and *before* counting its reply, so both
/// directions reconcile exactly.
#[test]
fn stats_scrape_matches_the_coordinator_frame_ledger() {
    let (base, queries) = dataset(64);
    let n = base.len() as u64;
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let mut server = tcp_server(index);
    let transport =
        Arc::new(SocketTransport::connect(server.addr().clone()).expect("dial the node"));
    let remote =
        RemoteIndex::connect(Arc::clone(&transport) as Arc<dyn Transport>).expect("info handshake");
    for qi in 0..10 {
        let req = SearchRequest::new(queries.get(qi).to_vec(), K);
        remote.try_search(&req).expect("healthy search");
    }
    let coordinator = transport.stats();
    assert_eq!(coordinator.frames_sent, 11, "1 handshake + 10 searches");
    assert_eq!(coordinator.frames_received, 11);

    let reply = transport
        .exchange(&Message::StatsRequest)
        .expect("stats scrape");
    let Message::StatsResponse(stats) = reply else {
        panic!(
            "expected a StatsResponse, got a {} frame",
            reply.kind_name()
        );
    };
    assert_eq!(
        stats.transport.frames_received,
        coordinator.frames_sent + 1,
        "node has counted every coordinator frame, the scrape included"
    );
    assert_eq!(
        stats.transport.frames_sent, coordinator.frames_received,
        "node has answered every frame except the in-flight scrape"
    );
    assert_eq!(stats.transport.errors, 0);
    assert_eq!(stats.info.requests, 10, "only searches count as requests");
    assert_eq!(stats.info.len, n);
    assert_eq!(stats.info.dim, DIM as u32);
    server.shutdown();
}

/// Kill/restart a node mid-run and check the coordinator transport's
/// books against the scripted fault sequence: 5 clean exchanges, 2
/// failed calls while the node is down (one severed mid-call, one failed
/// dial — neither is a reconnect), then 3 clean exchanges after a
/// restart, whose first call re-dials (exactly one reconnect).
///
/// Unix sockets keep every step deterministic: a write on a severed
/// stream fails immediately (no TCP buffering), and a dial on the
/// removed socket path fails at connect.
#[cfg(unix)]
#[test]
fn reconnect_accounting_matches_the_scripted_fault_sequence() {
    let (base, queries) = dataset(64);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let path = std::env::temp_dir().join(format!("hfw-reconnect-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = NodeAddr::Unix(path.clone());
    let mut server = bind_node(&addr, NodeHandler::new(Arc::clone(&index)), 1);
    let transport = SocketTransport::connect(addr.clone()).expect("dial the node");
    let search = |qi: usize| Message::Search(SearchRequest::new(queries.get(qi).to_vec(), K));

    for qi in 0..5 {
        assert!(
            matches!(transport.exchange(&search(qi)), Ok(Message::SearchOk(_))),
            "healthy exchange {qi}"
        );
    }
    let s = transport.stats();
    assert_eq!(
        (s.frames_sent, s.frames_received, s.errors, s.reconnects),
        (5, 5, 0, 0)
    );

    server.shutdown();
    assert!(
        transport.exchange(&search(5)).is_err(),
        "severed connection must fail the call"
    );
    assert!(
        transport.exchange(&search(6)).is_err(),
        "dialing the gone socket must fail"
    );
    let s = transport.stats();
    assert_eq!(s.errors, 2, "one error per failed call, exactly");
    assert_eq!(s.reconnects, 0, "failed dials are not reconnects");
    assert_eq!(s.frames_sent, 5, "nothing landed while the node was down");
    assert_eq!(s.frames_received, 5);

    let mut revived = bind_node(&addr, NodeHandler::new(index), 1);
    for qi in 5..8 {
        assert!(
            matches!(transport.exchange(&search(qi)), Ok(Message::SearchOk(_))),
            "post-restart exchange {qi}"
        );
    }
    let s = transport.stats();
    assert_eq!(s.reconnects, 1, "exactly one re-dial after the restart");
    assert_eq!(s.errors, 2, "no new errors after the revival");
    assert_eq!((s.frames_sent, s.frames_received), (8, 8));
    assert_eq!(s.timeouts, 0);
    revived.shutdown();
}

#[test]
fn filtered_requests_fail_remote_instead_of_serving_wrong_results() {
    let (base, _) = dataset(64);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base.clone()));
    let remote = RemoteIndex::connect(Arc::new(LoopbackTransport::new(NodeHandler::new(index))))
        .expect("handshake");
    let req = SearchRequest::new(base.get(0).to_vec(), 3).filter(|id| id % 2 == 0);
    let err = remote.try_search(&req).unwrap_err();
    assert_eq!(err.kind, FaultKind::Malformed);
}

/// A scripted node fault crosses the wire as a structured error frame and
/// drives the client-side health model exactly like a local fault.
#[test]
fn node_side_faults_reach_the_client_health_model() {
    let (base, queries) = dataset(80);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base.clone()));
    let faulty = NodeHandler::with_faults(Arc::clone(&index), FaultPlan::new().fail_on(1));
    let remote = RemoteIndex::connect(Arc::new(LoopbackTransport::new(faulty))).expect("handshake");
    let req = SearchRequest::new(queries.get(0), 3);
    assert!(remote.try_search(&req).is_ok()); // node call 0
    let err = remote.try_search(&req).unwrap_err();
    assert_eq!(err.kind, FaultKind::Transient, "kind survives the wire");
    assert!(remote.try_search(&req).is_ok()); // node call 2
}

/// More concurrent strict request/response clients than loop threads: the
/// one loop multiplexes all eight connections, and every client's answers
/// are bit-identical to in-process search.
#[test]
fn more_strict_rpc_clients_than_loop_threads_are_all_served() {
    const CLIENTS: usize = 8;
    let (base, queries) = dataset(N);
    let builder = builder_for(GraphKind::Hnsw, Coding::Sq);
    let index: Arc<dyn AnnIndex> = Arc::from(builder.build(base));
    let mut server = bind_node(
        &NodeAddr::Tcp("127.0.0.1:0".into()),
        NodeHandler::new(Arc::clone(&index)),
        1,
    );
    // Every client is connected before any of them sends a search, so all
    // eight connections are live on the single loop at once.
    let connected = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (server, index, queries, connected) = (&server, &index, &queries, &connected);
            s.spawn(move || {
                let remote = remote_over_socket(server);
                connected.wait();
                for qi in 0..queries.len() {
                    let req = exhaustive(queries.get(qi));
                    assert_eq!(
                        AnnIndex::search(&remote, &req).ids(),
                        index.search(&req).ids(),
                        "client {c} q{qi}: socket-served != in-process"
                    );
                }
                assert_eq!(remote.transport_stats().errors, 0, "client {c}");
            });
        }
    });
    let served = (CLIENTS * (queries.len() + 1)) as u64; // + one handshake each
    assert_eq!(server.stats().frames_received, served);
    assert_eq!(server.admission_stats().shed, 0);
    server.shutdown();
}

/// `shutdown()` with idle live connections is bounded (no loop thread
/// blocks in a read), severs them — the client's next exchange is an I/O
/// error, not a hang — and removes the Unix socket file.
#[cfg(unix)]
#[test]
fn shutdown_with_idle_connections_is_bounded_and_severs_them() {
    let (base, queries) = dataset(48);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let path = std::env::temp_dir().join(format!("hfw-idle-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = NodeAddr::Unix(path.clone());
    let mut server = bind_node(&addr, NodeHandler::new(index), 2);

    // Three connections that have each completed an exchange and now idle.
    let probe = Message::Search(SearchRequest::new(queries.get(0).to_vec(), K));
    let idle: Vec<SocketTransport> = (0..3)
        .map(|_| {
            let transport = SocketTransport::connect(addr.clone())
                .expect("dial the node")
                .with_timeout(Duration::from_secs(10));
            assert!(matches!(
                transport.exchange(&probe),
                Ok(Message::SearchOk(_))
            ));
            transport
        })
        .collect();

    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must not wait on idle connections");
    stopper.join().unwrap();
    assert!(!path.exists(), "shutdown removes the socket file");

    for transport in &idle {
        let err = transport
            .exchange(&probe)
            .expect_err("a severed connection must fail the call");
        assert!(
            matches!(err, serving::distributed::TransportError::Io(_)),
            "expected an I/O error (not a timeout or a hang), got {err}"
        );
    }
}

/// Regression: the best-effort `BadRequest` reply to an undecodable frame
/// is a frame on the wire like any other — the node must count it as
/// sent, or a stats scrape stops reconciling with what clients observed.
#[test]
fn malformed_frame_reply_keeps_the_stats_ledger_reconciled() {
    let (base, _) = dataset(48);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let mut server = tcp_server(index);
    let NodeAddr::Tcp(host) = server.addr().clone() else {
        panic!("tcp_server binds TCP");
    };

    // A raw client writes garbage (wrong magic): the node answers one
    // structured BadRequest frame and hangs up.
    let mut raw = std::net::TcpStream::connect(host.as_str()).expect("dial the node");
    std::io::Write::write_all(&mut raw, &[0xDEu8; 32]).expect("write the garbage frame");
    let (reply, _, reply_bytes) = read_message(&mut raw)
        .expect("the error reply must decode")
        .expect("the node answers before hanging up");
    let Message::Error(fault) = reply else {
        panic!("expected an error frame, got a {} frame", reply.kind_name());
    };
    assert_eq!(fault.code, ErrorCode::BadRequest);
    assert!(
        matches!(read_message(&mut raw), Ok(None) | Err(_)),
        "framing state is unrecoverable: the node hangs up after replying"
    );

    // A second connection scrapes the ledger. The node snapshots after
    // counting the scrape request and before counting its reply, so:
    // received = the scrape alone (garbage never counts as received),
    // sent = the BadRequest reply alone, errors = the undecodable frame.
    let transport = SocketTransport::connect(server.addr().clone()).expect("dial the node");
    let Message::StatsResponse(stats) = transport
        .exchange(&Message::StatsRequest)
        .expect("stats scrape")
    else {
        panic!("expected a StatsResponse");
    };
    assert_eq!(stats.transport.errors, 1, "one undecodable frame");
    assert_eq!(
        stats.transport.frames_received, 1,
        "only the scrape decoded; garbage is not a received frame"
    );
    assert_eq!(
        stats.transport.frames_sent, 1,
        "the BadRequest reply was counted as sent"
    );
    assert_eq!(
        stats.transport.bytes_sent, reply_bytes as u64,
        "counted bytes match the frame the raw client actually read"
    );
    server.shutdown();
}

/// Regression: `with_timeout` on an *established* connection used to
/// ignore a failed `set_deadline`, leaving the old deadline silently in
/// force. `Duration::ZERO` is unsettable by contract, so every exchange
/// after it must fail (the poisoned connection is dropped and the
/// re-dial refuses to come up without the deadline) — and a settable
/// deadline afterwards must restore service.
#[test]
fn unsettable_deadline_on_a_live_connection_never_goes_silent() {
    let (base, queries) = dataset(48);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let mut server = tcp_server(index);

    // Eagerly dialed: the connection exists before the deadline change.
    let transport = SocketTransport::connect(server.addr().clone()).expect("dial the node");
    let probe = Message::Search(SearchRequest::new(queries.get(0).to_vec(), K));
    assert!(
        matches!(transport.exchange(&probe), Ok(Message::SearchOk(_))),
        "the connection serves before the deadline change"
    );

    let transport = transport.with_timeout(Duration::ZERO);
    assert!(
        transport.exchange(&probe).is_err(),
        "an unsettable deadline must surface as an error, never be ignored"
    );

    let transport = transport.with_timeout(Duration::from_secs(5));
    assert!(
        matches!(transport.exchange(&probe), Ok(Message::SearchOk(_))),
        "a settable deadline restores service on a fresh dial"
    );
    server.shutdown();
}

/// The socket server under its **default** admission config returns hits
/// bit-identical to in-process search of the same index (and to the
/// brute-force baseline), and healthy load never sheds.
#[test]
fn event_server_matches_in_process_search() {
    let (base, queries) = dataset(N);
    let flat = FlatIndex::new(base.clone());
    let builder = builder_for(GraphKind::Hnsw, Coding::Sq);
    let index: Arc<dyn AnnIndex> = Arc::from(builder.build(base));

    let mut event = EventServer::bind(
        &NodeAddr::Tcp("127.0.0.1:0".into()),
        NodeHandler::new(Arc::clone(&index)),
        EventConfig::default(),
    )
    .expect("bind the event server");
    let over_event = remote_over_socket(&event);

    for qi in 0..queries.len() {
        let req = exhaustive(queries.get(qi));
        let want = index.search(&req).hits;
        assert_eq!(want, flat.search(&req).hits, "q{qi}: in-process != flat");
        assert_eq!(
            AnnIndex::search(&over_event, &req).hits,
            want,
            "q{qi}: socket-served != in-process"
        );
    }
    let admission = event.admission_stats();
    assert_eq!(
        admission.shed, 0,
        "healthy load must never shed (queue deadline far above service time)"
    );
    assert!(admission.admitted >= queries.len() as u64);
    event.shutdown();
}

/// Pipelining correctness: N frames written back-to-back on one
/// connection (none of their replies read until all are sent) come back
/// in request order, bit-identical to N strict sequential exchanges —
/// for one client, and for several pipelining at once over fewer loop
/// threads than connections.
#[test]
fn pipelined_frames_match_sequential_exchanges() {
    let (base, queries) = dataset(N);
    let builder = builder_for(GraphKind::Hnsw, Coding::Sq);
    let index: Arc<dyn AnnIndex> = Arc::from(builder.build(base));
    let mut event = tcp_server(index);
    let NodeAddr::Tcp(host) = event.addr().clone() else {
        panic!("event server binds TCP");
    };

    // Baseline: strict request/response, one frame in flight.
    let transport = SocketTransport::connect(event.addr().clone()).expect("dial");
    let sequential: Vec<Message> = (0..queries.len())
        .map(|qi| {
            transport
                .exchange(&Message::Search(exhaustive(queries.get(qi))))
                .expect("sequential exchange")
        })
        .collect();

    for clients in [1usize, 8] {
        // Every client is connected before any of them sends, so all the
        // pipelines are in flight on the two loops at once.
        let connected = std::sync::Barrier::new(clients);
        std::thread::scope(|s| {
            for c in 0..clients {
                let (host, queries, sequential, connected) =
                    (&host, &queries, &sequential, &connected);
                s.spawn(move || {
                    let mut stream = std::net::TcpStream::connect(host.as_str()).expect("dial raw");
                    stream.set_nodelay(true).ok();
                    connected.wait();
                    // Pipelined: every frame in flight at once, each with a
                    // distinct trace id so the reply order is checkable end
                    // to end.
                    let trace_of = |qi: usize| (c * queries.len() + qi) as u64 + 1;
                    for qi in 0..queries.len() {
                        write_message(
                            &mut stream,
                            &Message::Search(exhaustive(queries.get(qi))),
                            trace_of(qi),
                        )
                        .expect("pipelined send");
                    }
                    for (qi, want) in sequential.iter().enumerate() {
                        let (got, trace_id, _) = read_message(&mut stream)
                            .expect("pipelined reply decodes")
                            .expect("server answers every pipelined frame");
                        assert_eq!(
                            trace_id,
                            trace_of(qi),
                            "client {c}: replies come back in request order"
                        );
                        let (Message::SearchOk(got), Message::SearchOk(want)) = (&got, want) else {
                            panic!("client {c} q{qi}: expected SearchOk through both paths");
                        };
                        assert_eq!(
                            got.hits, want.hits,
                            "client {c} q{qi}: pipelined != sequential"
                        );
                    }
                });
            }
        });
    }
    assert_eq!(event.admission_stats().shed, 0);
    event.shutdown();
}

fn arbitrary_request(
    bits: &[u32],
    k: usize,
    ef: usize,
    rerank: usize,
    label: Option<u32>,
    vbase: Option<usize>,
) -> SearchRequest {
    let query: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    let mut req = SearchRequest::new(query, k).ef(ef).rerank(rerank);
    req.label = label;
    req.vbase_window = vbase;
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request frame — arbitrary f32 bit patterns (NaNs and signed
    /// zeros included) and any option mix — has one canonical encoding
    /// that decodes and re-encodes to the identical bytes, and every
    /// strict prefix of it is rejected as truncated.
    #[test]
    fn request_frames_roundtrip_and_reject_truncation(
        bits in proptest::collection::vec(any::<u32>(), 0..12),
        k in 1usize..50,
        ef in 1usize..300,
        rerank in 0usize..8,
        with_label in any::<bool>(),
        label in any::<u32>(),
        with_vbase in any::<bool>(),
        vbase in 1usize..64,
        cut_seed in any::<u64>(),
    ) {
        let req = arbitrary_request(
            &bits, k, ef, rerank,
            with_label.then_some(label),
            with_vbase.then_some(vbase),
        );
        let frame = Message::Search(req).encode().unwrap();
        let (decoded, consumed) = Message::decode(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded.encode().unwrap(), frame.clone());
        // Truncation at an arbitrary point, plus the two edge cuts.
        for cut in [0, frame.len() - 1, (cut_seed as usize) % frame.len()] {
            prop_assert!(Message::decode(&frame[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Response and error frames round-trip too, and flipping any single
    /// payload byte trips the checksum.
    #[test]
    fn response_and_error_frames_roundtrip_and_checksum(
        ids in proptest::collection::vec(any::<u64>(), 0..10),
        dist_bits in proptest::collection::vec(any::<u32>(), 0..10),
        code in 1u8..7,
        msg_len in 0usize..24,
        flip in any::<u64>(),
    ) {
        let hits: Vec<Hit> = ids
            .iter()
            .zip(&dist_bits)
            .map(|(&id, &b)| Hit { id, dist: f32::from_bits(b) })
            .collect();
        let response = Message::SearchOk(SearchResponse::from_hits(hits));
        let error = Message::Error(WireFault {
            code: match code {
                1 => ErrorCode::BadRequest,
                2 => ErrorCode::Unsupported,
                3 => ErrorCode::FaultTransient,
                4 => ErrorCode::FaultDead,
                6 => ErrorCode::Overloaded,
                _ => ErrorCode::Internal,
            },
            message: "x".repeat(msg_len),
        });
        for message in [response, error] {
            let frame = message.encode().unwrap();
            let (decoded, consumed) = Message::decode(&frame).unwrap();
            prop_assert_eq!(consumed, frame.len());
            prop_assert_eq!(decoded.encode().unwrap(), frame.clone());
            // Corrupt one payload byte (if there is a payload): the
            // checksum must catch it.
            let payload_len = frame.len()
                - serving::distributed::wire::HEADER_LEN
                - serving::distributed::wire::TRAILER_LEN;
            if payload_len > 0 {
                let mut corrupt = frame.clone();
                let at = serving::distributed::wire::HEADER_LEN
                    + (flip as usize) % payload_len;
                corrupt[at] ^= 0x40;
                prop_assert!(Message::decode(&corrupt).is_err(), "flip at {}", at);
            }
        }
    }
}

/// The loop does not spin: with idle connections open it blocks in the
/// readiness wait with no timeout, so its wake-up count stands still —
/// and it does not hang: the first request after the gap is answered.
#[test]
fn idle_connections_cost_no_wakeups_and_are_served_after_the_gap() {
    let (base, queries) = dataset(48);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let mut server = tcp_server(Arc::clone(&index));
    let idle: Vec<RemoteIndex> = (0..8).map(|_| remote_over_socket(&server)).collect();

    // Let the pass after the last handshake reply reach its wait.
    std::thread::sleep(Duration::from_millis(20));
    let settled = server.wakeups();
    assert!(settled > 0, "accepts and handshakes woke the loops");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        server.wakeups(),
        settled,
        "an idle loop must sit in its wait, not wake on a timer"
    );

    let req = exhaustive(queries.get(0));
    for remote in &idle {
        assert_eq!(AnnIndex::search(remote, &req).hits, index.search(&req).hits);
    }
    assert!(server.wakeups() > settled);
    server.shutdown();
}

/// Interest mirrors the pass. A client pipelines three quotas' worth of
/// requests whose replies overflow the socket buffers, and reads nothing:
/// first the connection sits at its quota with more input readable while
/// the batch deadline runs (asking for `POLLIN` there would spin), then
/// with output staged on a socket that is not writable (`POLLOUT` must
/// block, and must not be asked for once the buffer drains). Throughout,
/// wake-ups stay a small constant; afterwards every reply arrives, in order.
#[cfg(unix)]
#[test]
fn a_stalled_pipeline_at_quota_neither_spins_nor_loses_replies() {
    const QUOTA: usize = 4;
    const BIG_N: usize = 3000;
    let (base, queries) = dataset(BIG_N);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let path = std::env::temp_dir().join(format!("hfw-stall-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut server = EventServer::bind(
        &NodeAddr::Unix(path.clone()),
        NodeHandler::new(Arc::clone(&index)),
        EventConfig {
            threads: 1,
            client_quota: QUOTA,
            batch_max: 1000,
            batch_deadline: Duration::from_millis(20),
            queue_deadline: Duration::from_secs(60),
        },
    )
    .expect("bind the event server");
    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("dial raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set the read timeout");

    // ~36 KB per reply, 12 replies: more than a Unix socket pair buffers.
    let requests: Vec<SearchRequest> = (0..3 * QUOTA)
        .map(|qi| SearchRequest::new(queries.get(qi).to_vec(), BIG_N))
        .collect();
    let before = server.wakeups();
    for (qi, req) in requests.iter().enumerate() {
        if qi == QUOTA + 1 {
            // The connection is at its quota with a fifth frame buffered,
            // so the batch deadline is running: the rest arrive meanwhile
            // and stay in the kernel, readable but not wanted.
            std::thread::sleep(Duration::from_millis(5));
        }
        write_message(&mut stream, &Message::Search(req.clone()), qi as u64 + 1)
            .expect("pipelined send");
    }
    std::thread::sleep(Duration::from_millis(50));
    let mid_stall = server.wakeups();
    std::thread::sleep(Duration::from_millis(100));
    let stalled = server.wakeups();
    assert!(
        stalled - before <= 32,
        "{} wake-ups while the client stalled: the loop spun",
        stalled - before
    );
    assert!(
        stalled - mid_stall <= 4,
        "{} wake-ups with output blocked and nothing arriving",
        stalled - mid_stall
    );

    for (qi, req) in requests.iter().enumerate() {
        let (got, trace_id, _) = read_message(&mut stream)
            .expect("pipelined reply decodes")
            .expect("every pipelined frame is answered");
        assert_eq!(trace_id, qi as u64 + 1, "replies keep request order");
        let Message::SearchOk(got) = got else {
            panic!("q{qi}: expected SearchOk");
        };
        assert_eq!(got.hits, index.search(req).hits, "q{qi}");
    }
    assert_eq!(server.admission_stats().shed, 0);
    server.shutdown();
}

/// The batch deadline is the wait's timeout: a whole frame followed by
/// half a frame leaves the input not quiescent, and the first reply must
/// still arrive — before the second half is ever sent.
#[test]
fn a_trailing_partial_frame_does_not_hold_the_reply_before_it() {
    use std::io::Write;
    let (base, queries) = dataset(48);
    let index: Arc<dyn AnnIndex> = Arc::new(FlatIndex::new(base));
    let mut server = tcp_server(Arc::clone(&index));
    let NodeAddr::Tcp(host) = server.addr().clone() else {
        panic!("the server binds TCP");
    };
    let mut stream = std::net::TcpStream::connect(host.as_str()).expect("dial raw");
    stream.set_nodelay(true).ok();
    // A reply the loop never sends must fail the test, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set the read timeout");

    let first = exhaustive(queries.get(0));
    let second = exhaustive(queries.get(1));
    let mut bytes = Message::Search(first.clone()).encode_traced(1).unwrap();
    let tail = Message::Search(second.clone()).encode_traced(2).unwrap();
    let (head, rest) = tail.split_at(tail.len() / 2);
    bytes.extend_from_slice(head);
    stream.write_all(&bytes).expect("send a frame and a half");

    for (trace, req, unsent) in [(1, &first, rest), (2, &second, &[][..])] {
        let (got, trace_id, _) = read_message(&mut stream)
            .expect("the reply decodes")
            .expect("the reply arrives");
        assert_eq!(trace_id, trace);
        let Message::SearchOk(got) = got else {
            panic!("expected SearchOk for frame {trace}");
        };
        assert_eq!(got.hits, index.search(req).hits);
        stream.write_all(unsent).expect("send the second half");
    }
    server.shutdown();
}
