//! Failure injection, at two layers.
//!
//! **Storage** (the seed's original scope): persistence and dataset I/O
//! must reject corrupt, truncated, or mismatched inputs with errors —
//! never panic, never return silently wrong data. These are the failure
//! modes an overnight-rebuild pipeline actually hits (partial writes from
//! a crashed rebuild, version skew between the writer and the reader).
//!
//! **Serving** (the same discipline promoted onto `serving::fault`):
//! replica failures are injected through deterministic [`FaultPlan`]
//! scripts instead of ad-hoc wrappers, and the property test at the
//! bottom drives arbitrary generated plans through a replicated fleet —
//! as long as one replica per shard stays healthy, search must never
//! error and must equal the healthy run bit for bit.

use graphs::providers::FullPrecision;
use graphs::{GraphLayers, Hnsw, HnswParams};
use hnsw_flash::prelude::*;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use vecstore::io::{read_fvecs, read_ivecs, write_fvecs, write_ivecs};
use vecstore::VectorSet;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hnsw_flash_failure_tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn grid(side: usize) -> VectorSet {
    let mut s = VectorSet::new(2);
    for i in 0..side {
        for j in 0..side {
            s.push(&[i as f32, j as f32]);
        }
    }
    s
}

fn sample_layers() -> GraphLayers {
    let index = Hnsw::build(
        FullPrecision::new(grid(8)),
        HnswParams {
            c: 32,
            r: 8,
            seed: 1,
        },
    );
    index.freeze()
}

#[test]
fn graph_roundtrip_is_exact() {
    let g = sample_layers();
    let path = tmp("roundtrip.bin");
    g.save(&path, "hnsw:full").unwrap();
    let (loaded, method) = GraphLayers::load(&path).unwrap();
    assert_eq!(method, "hnsw:full");
    assert_eq!(loaded.entry, g.entry);
    assert_eq!(loaded.max_layer, g.max_layer);
    assert_eq!(loaded, g);
}

#[test]
fn truncated_graph_file_is_rejected_at_every_length() {
    let g = sample_layers();
    let path = tmp("truncate_src.bin");
    g.save(&path, "hnsw:full").unwrap();
    let bytes = fs::read(&path).unwrap();
    // Cut the file at a spread of prefix lengths; every one must error.
    for frac in [0usize, 1, 4, 9, 16, 64] {
        let cut = (bytes.len() * frac / 100).min(bytes.len().saturating_sub(1));
        let path = tmp("truncated.bin");
        fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            GraphLayers::load(&path).is_err(),
            "truncation to {cut}/{} bytes must fail",
            bytes.len()
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let g = sample_layers();
    let path = tmp("magic.bin");
    g.save(&path, "hnsw:full").unwrap();
    let mut bytes = fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    let err = GraphLayers::load(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A flat builder's graph: one layer over two nodes, entered at node 0.
fn one_layer() -> GraphLayers {
    GraphLayers::from_nested(vec![vec![vec![1], vec![0]]], 0, 0)
}

#[test]
fn retired_flat_kind_is_rejected() {
    // Re-head a one-layer file as the retired `FL` kind, which carried the
    // entry and then the layer: drop the method label, `max_layer` and the
    // layer count.
    let path = tmp("retired_kind.bin");
    let method = "nsg:full";
    one_layer().save(&path, method).unwrap();
    let mut bytes = fs::read(&path).unwrap();
    bytes[8..10].copy_from_slice(b"FL");
    let entry = 11 + method.len();
    bytes.drain(entry + 4..entry + 12);
    bytes.drain(10..entry);
    fs::write(&path, &bytes).unwrap();
    let err = GraphLayers::load(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("`FL`"), "{err}");
}

#[test]
fn corrupt_edge_target_is_rejected_not_crashing() {
    let path = tmp("bad_edge.bin");
    one_layer().save(&path, "nsg:full").unwrap();
    let mut bytes = fs::read(&path).unwrap();
    // The last u32 is an edge target; point it far out of range.
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let err = GraphLayers::load(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = GraphLayers::load(&tmp("does_not_exist.bin")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

#[test]
fn fvecs_roundtrip_then_truncation_fails() {
    let set = grid(6);
    let path = tmp("vectors.fvecs");
    write_fvecs(&path, &set).unwrap();
    let loaded = read_fvecs(&path).unwrap();
    assert_eq!(loaded.len(), set.len());
    assert_eq!(loaded.dim(), set.dim());
    assert_eq!(loaded.get(17), set.get(17));

    let bytes = fs::read(&path).unwrap();
    let path2 = tmp("vectors_cut.fvecs");
    // Cut mid-record: a dimension header promising data that is not there.
    fs::write(&path2, &bytes[..bytes.len() - 5]).unwrap();
    assert!(
        read_fvecs(&path2).is_err(),
        "mid-record truncation must fail"
    );
}

#[test]
fn fvecs_with_absurd_dimension_header_is_rejected() {
    let path = tmp("absurd_dim.fvecs");
    // Dimension header of 2^30 with no payload.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
    bytes.extend_from_slice(&1.0f32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(read_fvecs(&path).is_err());
}

#[test]
fn ivecs_truncation_fails() {
    let path = tmp("truth.ivecs");
    write_ivecs(&path, &[vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
    let ok = read_ivecs(&path).unwrap();
    assert_eq!(ok, vec![vec![1, 2, 3], vec![4, 5, 6]]);

    let bytes = fs::read(&path).unwrap();
    let path2 = tmp("truth_cut.ivecs");
    fs::write(&path2, &bytes[..bytes.len() - 2]).unwrap();
    assert!(read_ivecs(&path2).is_err());
}

#[test]
fn empty_file_is_rejected_everywhere() {
    let path = tmp("empty.bin");
    fs::write(&path, b"").unwrap();
    assert!(GraphLayers::load(&path).is_err());
    // An empty fvecs file is a legal empty dataset per the de-facto format —
    // but must come back as 0 vectors rather than erroring or panicking.
    // An error is also acceptable; never a panic.
    if let Ok(set) = read_fvecs(&path) {
        assert_eq!(set.len(), 0);
    }
}

// ---------------------------------------------------------------------
// Serving-layer failure injection: deterministic `FaultPlan` scripts in
// place of ad-hoc failure wrappers.
// ---------------------------------------------------------------------

fn grid_index(side: usize) -> Arc<dyn AnnIndex> {
    Arc::new(FlatIndex::new(grid(side)))
}

/// The same fault script replays identically on two independent wrappers
/// — the determinism every test in this file leans on.
#[test]
fn fault_plans_replay_deterministically() {
    let plan = FaultPlan::new()
        .fail_calls([2, 5])
        .die_at(8)
        .revive_at(10)
        .delay_on(1, 0);
    let run = |faulty: &FaultyIndex| {
        let req = SearchRequest::new(vec![1.0, 1.0], 3);
        (0..12)
            .map(|_| faulty.try_search(&req).is_ok())
            .collect::<Vec<bool>>()
    };
    let a = FaultyIndex::new(grid_index(6), plan.clone());
    let b = FaultyIndex::new(grid_index(6), plan);
    let (outcomes_a, outcomes_b) = (run(&a), run(&b));
    assert_eq!(outcomes_a, outcomes_b);
    assert_eq!(
        outcomes_a,
        vec![true, true, false, true, true, false, true, true, false, false, true, true]
    );
}

/// An injected failure never leaks wrong data: every successful call
/// through a faulty wrapper returns exactly the inner index's response.
#[test]
fn faulty_wrapper_never_corrupts_results() {
    let inner = grid_index(8);
    let faulty = FaultyIndex::new(Arc::clone(&inner), FaultPlan::new().fail_calls([1, 3, 4]));
    let req = SearchRequest::new(vec![3.0, 4.0], 5);
    let want = inner.search(&req).hits;
    for call in 0..8u64 {
        match faulty.try_search(&req) {
            Ok(response) => assert_eq!(response.hits, want, "call {call}"),
            Err(e) => assert_eq!(e.call, call, "errors carry the tripping call"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For *any* generated fault plan set that leaves replica 0 of every
    /// shard healthy, a replicated fleet never errors (no panic) and
    /// returns exactly the healthy run's hits — whatever mix of transient
    /// errors, latency spikes, deaths, and scripted recoveries the other
    /// replicas suffer, under every routing policy.
    #[test]
    fn any_fault_plan_with_one_healthy_replica_is_invisible(
        side in 5usize..=8,
        shards in 1usize..=3,
        replicas in 2usize..=3,
        k in 1usize..=8,
        // Per-replica fault scripts, decoded below: (mode, a, b).
        scripts in proptest::collection::vec((0u8..4, 0u64..6, 1u64..5), 9),
        probe_after in 1u64..6,
    ) {
        let base = grid(side);
        let flat = FlatIndex::new(base.clone());
        let (indexes, id_maps): (Vec<Arc<dyn AnnIndex>>, Vec<Vec<u64>>) =
            ShardedIndex::partition(&base, shards, ShardPolicy::RoundRobin)
                .into_iter()
                .map(|(set, ids)| (Arc::new(FlatIndex::new(set)) as Arc<dyn AnnIndex>, ids))
                .unzip();
        let plan_for = |s: usize, r: usize| -> Option<FaultPlan> {
            if r == 0 {
                return None; // the invariant: one always-healthy replica
            }
            let (mode, a, b) = scripts[(s * 3 + r) % scripts.len()];
            Some(match mode {
                0 => FaultPlan::new(),
                1 => FaultPlan::new().fail_calls([a, a + b]).delay_on(a + 1, 0),
                2 => FaultPlan::new().die_at(a),
                _ => FaultPlan::new().die_at(a).revive_at(a + b),
            })
        };
        for routing in RoutingPolicy::ALL {
            let mut groups = Vec::new();
            let parts: Vec<(Box<dyn AnnIndex>, Vec<u64>)> = indexes
                .iter()
                .zip(&id_maps)
                .enumerate()
                .map(|(s, (index, ids))| {
                    let members: Vec<Box<dyn FallibleIndex>> = (0..replicas)
                        .map(|r| match plan_for(s, r) {
                            Some(plan) => Box::new(FaultyIndex::new(Arc::clone(index), plan))
                                as Box<dyn FallibleIndex>,
                            None => Box::new(Arc::clone(index)) as Box<dyn FallibleIndex>,
                        })
                        .collect();
                    let health = HealthConfig { error_threshold: 1, probe_after };
                    let group = Arc::new(ReplicaGroup::from_replicas(members, routing, health));
                    groups.push(Arc::clone(&group));
                    (Box::new(group) as Box<dyn AnnIndex>, ids.clone())
                })
                .collect();
            let fleet =
                ShardedIndex::from_parts(parts, ShardPolicy::RoundRobin, Arc::new(WorkerPool::new(2)));
            // Enough sequential queries to hit deaths, probe windows, and
            // scripted recoveries; every response must equal brute force.
            for qi in (0..base.len()).step_by(7) {
                let req = SearchRequest::new(base.get(qi).to_vec(), k);
                let (want, got) = (flat.search(&req).hits, fleet.search(&req).hits);
                prop_assert_eq!(&got, &want, "routing={} query {}", routing, qi);
            }
            // Sanity: fault scripts actually fired somewhere in most runs
            // (never an assertion — a fully-healthy draw is legitimate).
            let _fired: u64 = groups.iter().map(|g| g.failover_stats().errors).sum();
        }
    }
}

#[test]
fn saved_graph_survives_load_and_search_pipeline() {
    // End-to-end: build, persist, reload, verify the reloaded topology
    // searches identically through the flat search path.
    let base = grid(10);
    let index = Hnsw::build(
        FullPrecision::new(base.clone()),
        HnswParams {
            c: 48,
            r: 8,
            seed: 3,
        },
    );
    let frozen = index.freeze();
    let path = tmp("pipeline.bin");
    frozen.save(&path, "hnsw:full").unwrap();
    let (reloaded, _) = GraphLayers::load(&path).unwrap();

    // Same adjacency ⇒ same greedy routes. Spot-check base-layer equality
    // plus entry metadata rather than re-running a full search stack.
    assert_eq!(reloaded.base_edges(), frozen.base_edges());
    assert_eq!(reloaded.entry, frozen.entry);
    assert_eq!(reloaded.adjacency_bytes(), frozen.adjacency_bytes());
}
