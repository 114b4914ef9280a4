//! The traced run: the workload's corpus and query stream priced at every
//! layer, from outside, by timing calls into the layers' public functions.
//!
//! It composes the work `IndexBuilder::build` and the serving stack do out
//! of the layers underneath them — codec training, encoding, graph insert,
//! freeze, the frozen-graph kernels, then one rung of the serving ladder
//! after another over the same leaf — with a span around each call. Every
//! rung must return the leaf's hits bit for bit before its time counts.

use crate::check::{same_hits, Tally};
use crate::churn::run_churn;
use crate::inputs::{lru_hit_rate, zipf_stream, Rng};
use crate::report::Measured;
use crate::span::{durations_us, self_times_us, Recorder, Resolved, Traced};
use crate::spec::{Spec, SHARDS, ZIPF_S};
use crate::stack::{build_leaves, sharded, tcp_node, Part};
use crate::stats::{median, tail_percentile};
use crate::workloads::{make_inputs, Inputs};
use hnsw_flash::engine::{wire, AnnIndex, Coding, GraphIndex, Hit, SearchRequest, SearchResponse};
use hnsw_flash::flash::{FlashCodec, FlashParams, FlashProvider};
use hnsw_flash::graphs::providers::FullPrecision;
use hnsw_flash::graphs::{
    rerank_exact, search_layers, search_layers_cached, DistanceProvider, Hnsw, HnswParams,
    NodePayloads,
};
use hnsw_flash::metrics::QueryProfile;
use hnsw_flash::serving::{
    CachedIndex, HealthConfig, LoopbackTransport, NodeHandler, RemoteIndex, ReplicaGroup,
    RoutingPolicy,
};
use hnsw_flash::simdops;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `IndexBuilder::new`'s seed, which the composed build must share.
const BUILDER_SEED: u64 = 0x5eed;
/// Times the build is composed from its layers and run through the builder.
const BUILD_REPEATS: usize = 3;
/// Timed passes per rung, after one untimed pass.
const PASSES: usize = 2;
/// Rerank factor priced by `engine.rerank_added_us`.
const RERANK: usize = 8;
/// Repetitions of each `simdops` kernel loop; the median is reported.
const KERNEL_REPS: usize = 7;
/// Zipf draws per distinct query in the cache replay.
const REPLAY_PER_QUERY: usize = 8;

/// A frozen-graph search kernel: query in, final hits out.
type Kernel<'a> = dyn Fn(&[f32]) -> Vec<Hit> + 'a;

struct Ladder<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    /// The first `spec.ladder_q` requests.
    requests: &'a [SearchRequest],
    rec: Arc<Recorder>,
    tally: &'a mut Tally,
    out: Vec<Measured>,
}

fn seconds_of(spans: &[Resolved], name: &str) -> f64 {
    durations_us(spans, name).iter().sum::<f64>() / 1e6
}

impl Ladder<'_> {
    /// Records `name`; a repeated measurement replaces the earlier one.
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.out.retain(|m| m.name != name);
        self.out.push(Measured::new(name, value, samples));
    }

    /// One untimed pass, then `PASSES` passes of one operation per request
    /// under a span named `name`. Each reply must equal `expect`'s.
    fn rung(
        &mut self,
        name: &'static str,
        index: &dyn AnnIndex,
        requests: &[SearchRequest],
        expect: &[Vec<Hit>],
    ) -> Vec<Resolved> {
        for (qi, request) in requests.iter().enumerate() {
            self.rec.next_op();
            let got = index.search(request);
            self.tally.gate(same_hits(&got.hits, &expect[qi]), || {
                format!("{name}: query {qi} differs from the rung below")
            });
        }
        let mark = self.rec.mark();
        for _ in 0..PASSES {
            for request in requests {
                self.rec.next_op();
                black_box(self.rec.span(name, || index.search(request)));
            }
        }
        self.tally.ops(requests.len() * PASSES);
        self.rec.since(mark)
    }

    /// Codec training and encoding over the corpus — run for every
    /// workload, so the layer is priced on its data even where the
    /// workload's own path never calls it.
    fn flash(&mut self) -> (FlashProvider, f64) {
        let base = &self.inputs.corpus.base;
        let n = base.len();
        let mut params = FlashParams::auto(base.dim());
        params.seed = BUILDER_SEED;
        params.train_sample = (n / 2).clamp(256, 10_000);
        let copy = base.clone();
        self.rec.next_op();
        let mark = self.rec.mark();
        let codec = self
            .rec
            .span("flash.codec_train", || FlashCodec::train(base, params));
        let provider = self
            .rec
            .span("flash.encode", || FlashProvider::from_codec(copy, codec));
        let spans = self.rec.since(mark);
        let train_s = seconds_of(&spans, "flash.codec_train");
        let encode_s = seconds_of(&spans, "flash.encode");
        let own = provider.coding_ns() as f64 / 1e9;
        // The span contains the provider's own timer; half of it going
        // elsewhere means one of the two clocks is wrong, not a slow spell.
        self.tally
            .gate(own <= encode_s && own >= 0.5 * encode_s, || {
                format!("flash.encode span {encode_s}s disagrees with coding_ns {own}s")
            });
        self.put("flash.codec_train_s", train_s, 1);
        self.put("flash.encode_s", encode_s, 1);
        self.put("flash.encode_ns_per_vector", encode_s * 1e9 / n as f64, n);
        self.put(
            "flash.code_bytes_per_vector",
            provider.codes_of(0).len() as f64,
            1,
        );
        (provider, train_s + encode_s)
    }

    /// `simdops` kernels over the workload's own rows. Bytes per call are
    /// computed from the dimensionality, not measured.
    fn simdops(&mut self, flash: &FlashProvider) {
        let base = &self.inputs.corpus.base;
        let query = self.inputs.corpus.queries.get(0);
        let n = base.len();

        let m = flash.codec().subspaces();
        let ctx = flash.prepare_query(query);
        let ids: Vec<u32> = (0..n.min(4_096) as u32).collect();
        let mut blocks = Default::default();
        flash.sync_payload(&mut blocks, &ids);
        let bytes = blocks.as_bytes();
        let calls = bytes.len() / (m * simdops::LUT_BATCH);
        let lut: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| {
                let mut out = [0u16; simdops::LUT_BATCH];
                let t0 = Instant::now();
                for block in bytes.chunks_exact(m * simdops::LUT_BATCH) {
                    simdops::lut16_batch(&ctx.adt, block, m, &mut out);
                    black_box(&out);
                }
                t0.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        self.put("simdops.lut16_batch_ns", median(&lut), calls * KERNEL_REPS);

        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(n as u64, "row-order");
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let l2 = |rows: &mut dyn Iterator<Item = usize>| {
            let t0 = Instant::now();
            let mut acc = 0.0f32;
            for row in rows {
                acc += simdops::l2_sq(query, base.get(row));
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / n as f64
        };
        let seq: Vec<f64> = (0..KERNEL_REPS).map(|_| l2(&mut (0..n))).collect();
        let random: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| l2(&mut order.iter().copied()))
            .collect();
        self.put("simdops.l2_sq_ns_seq", median(&seq), n * KERNEL_REPS);
        self.put("simdops.l2_sq_ns_random", median(&random), n * KERNEL_REPS);
        self.put(
            "simdops.l2_sq_bytes_per_call",
            (2 * base.dim() * 4) as f64,
            1,
        );
        self.put(
            "simdops.level",
            simdops::current_level().register_bits() as f64,
            1,
        );
    }

    /// Graph insert, freeze and the frozen-graph kernels over the provider
    /// `coding` makes (it returns the seconds it took), then the engine
    /// leaf built from the very same graph.
    ///
    /// `IndexBuilder::build` must be this work and little else, so both are
    /// run `BUILD_REPEATS` times, alternating, and the fastest of each is
    /// compared: one-shot builds differ by more than the 5 % looked for.
    /// The builder does not freeze; the engine does, lazily, on first export.
    fn graphs_and_engine<P: DistanceProvider + 'static>(
        &mut self,
        mut coding: impl FnMut(&mut Self) -> (P, f64),
    ) -> (Arc<dyn AnnIndex>, Vec<Vec<Hit>>) {
        let spec = self.spec;
        let n = self.inputs.corpus.base.len();
        let params = HnswParams {
            c: spec.c,
            r: spec.r,
            seed: BUILDER_SEED,
        };
        let (mut composed_s, mut build_s) = (f64::INFINITY, f64::INFINITY);
        let mut last = None;
        for _ in 0..BUILD_REPEATS {
            drop(last.take());
            let (provider, coding_s) = coding(self);
            self.rec.next_op();
            let mark = self.rec.mark();
            let hnsw = self
                .rec
                .span("graphs.hnsw_insert", || Hnsw::build(provider, params));
            let insert_s = seconds_of(&self.rec.since(mark), "graphs.hnsw_insert");
            self.put("graphs.hnsw_insert_s", insert_s, 1);
            self.put(
                "graphs.hnsw_insert_us_per_vector",
                insert_s * 1e6 / n as f64,
                n,
            );
            composed_s = composed_s.min(coding_s + insert_s);

            let copy = self.inputs.corpus.base.clone();
            self.rec.next_op();
            let mark = self.rec.mark();
            let built = self.rec.span("engine.build", || spec.builder().build(copy));
            build_s = build_s.min(seconds_of(&self.rec.since(mark), "engine.build"));
            last = Some((hnsw, built));
        }
        self.tally.ops(2 * BUILD_REPEATS);
        self.put(
            "engine.build_unaccounted_frac",
            (build_s - composed_s).abs() / build_s,
            BUILD_REPEATS,
        );
        let (hnsw, built) = last.expect("BUILD_REPEATS is positive");

        self.rec.next_op();
        let mark = self.rec.mark();
        let graph = self.rec.span("graphs.freeze", || hnsw.freeze());
        let payloads = self.rec.span("graphs.node_payloads", || {
            NodePayloads::build(hnsw.provider(), &graph)
        });
        let spans = self.rec.since(mark);
        self.put("graphs.freeze_s", seconds_of(&spans, "graphs.freeze"), 1);
        self.put("graphs.base_edges", graph.base_edges() as f64, 1);
        self.put("graphs.avg_degree", graph.base_edges() as f64 / n as f64, n);

        let leaf = GraphIndex::new(hnsw);
        let requests = self.requests;
        let expect: Vec<Vec<Hit>> = requests.iter().map(|r| leaf.search(r).hits).collect();
        for (qi, request) in requests.iter().enumerate() {
            let theirs = built.search(request);
            self.tally.gate(same_hits(&theirs.hits, &expect[qi]), || {
                format!("query {qi}: the composed build answers unlike IndexBuilder's")
            });
        }
        drop(built);

        // The frozen kernels, doing the leaf's work: same pool, same rerank.
        let provider = leaf.inner().provider();
        let finish = |query: &[f32], pool: Vec<Hit>| {
            if spec.rerank > 1 {
                rerank_exact(provider.base(), query, pool, spec.k)
            } else {
                pool
            }
        };
        let pool_k = requests[0].pool_k();
        let plain = |query: &[f32]| {
            finish(
                query,
                search_layers(provider, &graph, query, pool_k, spec.ef),
            )
        };
        let cached = |query: &[f32]| {
            let pool = search_layers_cached(provider, &graph, &payloads, query, pool_k, spec.ef);
            finish(query, pool)
        };
        let kernels: [(&'static str, &'static str, &Kernel); 2] = [
            ("graphs.search_layers", "graphs.search_layers_us", &plain),
            (
                "graphs.search_layers_cached",
                "graphs.search_layers_cached_us",
                &cached,
            ),
        ];
        for (name, metric, kernel) in kernels {
            for (qi, request) in requests.iter().enumerate() {
                let got = kernel(&request.query);
                self.tally.gate(same_hits(&got, &expect[qi]), || {
                    format!("{name}: query {qi} differs from the engine leaf")
                });
            }
            let mark = self.rec.mark();
            for _ in 0..PASSES {
                for request in requests {
                    self.rec.next_op();
                    black_box(self.rec.span(name, || kernel(&request.query)));
                }
            }
            let took = durations_us(&self.rec.since(mark), name);
            self.put(metric, median(&took), took.len());
        }

        // What one leaf search costs in counted work.
        let mut profile = QueryProfile::new();
        let mut returned = 0usize;
        for request in requests {
            let response = leaf.search(request);
            profile.add(&response.profile);
            returned += response.hits.len();
        }
        let q = requests.len();
        let per_query = |count: u64| count as f64 / q as f64;
        self.put("graphs.hops_base", per_query(profile.hops_base), q);
        self.put("graphs.dist_coded", per_query(profile.dist_coded), q);
        self.put("graphs.dist_exact", per_query(profile.dist_exact), q);
        self.put(
            "graphs.visited_inserts",
            per_query(profile.visited_inserts),
            q,
        );
        self.put(
            "graphs.codeword_bytes",
            per_query(profile.codeword_bytes),
            q,
        );
        self.put(
            "graphs.scratch_checkouts",
            per_query(profile.scratch_checkouts),
            q,
        );
        self.put(
            "graphs.dist_evals_per_hit",
            profile.dist_evals() as f64 / returned.max(1) as f64,
            returned,
        );
        (Arc::new(leaf), expect)
    }

    /// The leaf rung, the cost of reranking, the wire codec, and what the
    /// spans themselves cost.
    fn engine(&mut self, leaf: &Arc<dyn AnnIndex>, expect: &[Vec<Hit>]) {
        let requests = self.requests;
        let traced = Traced::wrap("engine.leaf", Arc::clone(leaf), &self.rec);
        let spans = self.rung("ladder.leaf", traced.as_ref(), requests, expect);
        let took = durations_us(&spans, "engine.leaf");
        self.put("engine.leaf_search_us", median(&took), took.len());
        let mut sorted = took.clone();
        sorted.sort_by(f64::total_cmp);
        self.put(
            "engine.leaf_search_p99_us",
            tail_percentile(&sorted),
            took.len(),
        );

        let pass_wall = |run: &mut dyn FnMut(&SearchRequest)| {
            let t0 = Instant::now();
            for _ in 0..PASSES {
                requests.iter().for_each(&mut *run);
            }
            t0.elapsed().as_secs_f64()
        };
        let untraced = pass_wall(&mut |r| {
            black_box(leaf.search(r));
        });
        let rec = Arc::clone(&self.rec);
        let with_spans = pass_wall(&mut |r| {
            rec.next_op();
            black_box(rec.span("ladder.leaf", || traced.search(r)));
        });
        self.put(
            "metrics.trace_overhead_frac",
            (with_spans - untraced) / untraced,
            2 * PASSES * requests.len(),
        );

        // Rerank on minus rerank off, query by query.
        let time_with = |rerank: usize| -> Vec<f64> {
            requests
                .iter()
                .map(|r| {
                    let request = r.clone().rerank(rerank);
                    let mut best = f64::INFINITY;
                    for _ in 0..=PASSES {
                        let t0 = Instant::now();
                        black_box(leaf.search(&request));
                        best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
                    }
                    best
                })
                .collect()
        };
        let (on, off) = (time_with(RERANK), time_with(1));
        let added: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a - b).collect();
        self.put("engine.rerank_added_us", median(&added), added.len());

        let round_trips: Vec<f64> = requests
            .iter()
            .zip(expect)
            .map(|(request, hits)| {
                let response = SearchResponse::from_hits(hits.clone());
                let t0 = Instant::now();
                let mut w = wire::WireWriter::new();
                wire::encode_request(request, &mut w).expect("plain requests encode");
                let bytes = w.into_bytes();
                black_box(
                    wire::decode_request(&mut wire::WireReader::new(&bytes)).expect("decodes"),
                );
                let mut w = wire::WireWriter::new();
                wire::encode_response(&response, &mut w);
                let bytes = w.into_bytes();
                black_box(
                    wire::decode_response(&mut wire::WireReader::new(&bytes)).expect("decodes"),
                );
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        self.put(
            "engine.wire_roundtrip_us",
            median(&round_trips),
            round_trips.len(),
        );
    }

    /// The serving rungs, each over the same traced leaf.
    fn serving(&mut self, leaf: &Arc<dyn AnnIndex>, expect: &[Vec<Hit>]) {
        let requests = self.requests;
        let q = requests.len();
        let traced = Traced::wrap("engine.leaf", Arc::clone(leaf), &self.rec);

        // Shard fan-out: its own leaves, checked against a direct merge.
        let parts: Vec<Part> = build_leaves(&self.spec.builder(), &self.inputs.corpus.base, SHARDS)
            .into_iter()
            .map(|(shard, ids)| (Traced::wrap("engine.leaf", shard, &self.rec), ids))
            .collect();
        self.tally.ops(SHARDS);
        let mut gathered = 0usize;
        let merged: Vec<Vec<Hit>> = requests
            .iter()
            .map(|request| {
                self.rec.next_op();
                let mut hits: Vec<Hit> = parts
                    .iter()
                    .flat_map(|(shard, ids)| {
                        shard.search(request).hits.into_iter().map(|h| Hit {
                            id: ids[h.id as usize],
                            dist: h.dist,
                        })
                    })
                    .collect();
                gathered += hits.len();
                hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
                hits.truncate(self.spec.k);
                hits
            })
            .collect();
        let returned: usize = merged.iter().map(Vec::len).sum();
        let index = sharded(&parts);
        let spans = self.rung("serving.shard", &index, requests, &merged);
        let took = durations_us(&spans, "serving.shard");
        self.put("serving.shard.query_us", median(&took), took.len());
        self.put(
            "serving.shard.self_us",
            median(&self_times_us(&spans, "serving.shard")),
            took.len(),
        );
        self.put(
            "serving.shard.gathered_per_returned",
            gathered as f64 / returned.max(1) as f64,
            returned,
        );
        drop(index);
        drop(parts);

        // Replica routing: two handles to the one leaf.
        let group = ReplicaGroup::from_replicas(
            vec![Box::new(Arc::clone(&traced)), Box::new(Arc::clone(&traced))],
            RoutingPolicy::RoundRobin,
            HealthConfig::default(),
        );
        let spans = self.rung("serving.replica", &group, requests, expect);
        let own = self_times_us(&spans, "serving.replica");
        self.put("serving.replica.self_us", median(&own), own.len());
        let failover = group.failover_stats();
        self.put(
            "serving.replica.retries",
            failover.retries as f64,
            q * (PASSES + 1),
        );
        self.put(
            "serving.replica.markdowns",
            failover.markdowns as f64,
            q * (PASSES + 1),
        );
        self.tally.gate(failover.markdowns == 0, || {
            format!(
                "{} replicas were marked down with no fault injected",
                failover.markdowns
            )
        });

        // Cache, cold then warm: every first reply misses, every later hits.
        let cache = CachedIndex::new(Arc::clone(&traced), q);
        let mark = self.rec.mark();
        for (qi, request) in requests.iter().enumerate() {
            self.rec.next_op();
            let cold = self.rec.span("serving.cache", || cache.search(request));
            self.tally.gate(same_hits(&cold.hits, &expect[qi]), || {
                format!("serving.cache: cold query {qi} differs from the leaf")
            });
        }
        let cold = self_times_us(&self.rec.since(mark), "serving.cache");
        self.put("serving.cache.miss_added_us", median(&cold), cold.len());
        let spans = self.rung("serving.cache", &cache, requests, expect);
        let warm = durations_us(&spans, "serving.cache");
        self.put("serving.cache.hit_us", median(&warm), warm.len());
        let stats = cache.cache().stats();
        self.tally.gate(stats.misses == q as u64, || {
            format!("{} misses over {q} distinct queries", stats.misses)
        });

        // A small cache under the Zipf replay: hit rate and evictions.
        // Evictions are computed (fills minus residents); the cache does
        // not count them.
        let replay = zipf_stream(
            q,
            ZIPF_S,
            q * REPLAY_PER_QUERY,
            &mut Rng::new(q as u64, "replay"),
        );
        let small = CachedIndex::new(Arc::clone(leaf), self.spec.cache_capacity);
        for &qi in &replay {
            black_box(small.search(&requests[qi as usize]));
        }
        self.tally.ops(replay.len());
        let stats = small.cache().stats();
        let model = lru_hit_rate(&replay, self.spec.cache_capacity);
        self.tally.gate(stats.hit_rate() == model, || {
            format!(
                "replay hit rate {} differs from the LRU model's {model}",
                stats.hit_rate()
            )
        });
        self.put("serving.cache.hit_rate", stats.hit_rate(), replay.len());
        self.put(
            "serving.cache.evictions",
            (stats.misses as usize - small.cache().len()) as f64,
            replay.len(),
        );

        // The wire: codec only (loopback), then socket and event loop (TCP).
        let loopback = RemoteIndex::connect(Arc::new(LoopbackTransport::new(NodeHandler::new(
            Arc::clone(&traced),
        ))))
        .expect("loopback handshake");
        let spans = self.rung("serving.distributed.loopback", &loopback, requests, expect);
        let codec_us = median(&self_times_us(&spans, "serving.distributed.loopback"));
        self.put(
            "serving.distributed.loopback_added_us",
            codec_us,
            q * PASSES,
        );

        let (mut server, remote) = tcp_node(&traced);
        let before = remote.transport_stats();
        let spans = self.rung("serving.distributed.tcp", remote.as_ref(), requests, expect);
        let after = remote.transport_stats();
        let wire_us = median(&self_times_us(&spans, "serving.distributed.tcp"));
        self.put(
            "serving.distributed.tcp_added_us",
            wire_us - codec_us,
            q * PASSES,
        );
        let exchanged =
            (after.bytes_sent + after.bytes_received) - (before.bytes_sent + before.bytes_received);
        let exchanges = (after.frames_sent - before.frames_sent).max(1);
        self.put(
            "serving.distributed.bytes_per_query",
            exchanged as f64 / exchanges as f64,
            exchanges as usize,
        );
        let shed = server.admission_stats().shed;
        self.put("serving.distributed.shed", shed as f64, exchanges as usize);
        self.put(
            "serving.distributed.errors",
            after.errors as f64,
            exchanges as usize,
        );
        self.tally.gate(shed == 0 && after.errors == 0, || {
            format!("{shed} requests shed, {} transport errors", after.errors)
        });
        drop(remote);
        server.shutdown();
    }

    /// The workload's churn stream through the LSM index, a span per call.
    fn maintenance(&mut self) {
        let last = (self.spec.churn.cycles as u32).saturating_sub(1);
        let done = run_churn(
            self.spec,
            &self.inputs.corpus,
            &self.inputs.schedule,
            &[last],
            &self.rec,
            self.tally,
        );
        let stalls = done
            .flush_s
            .iter()
            .chain(&[0.0])
            .copied()
            .fold(0.0, f64::max);
        let longest_insert = done.insert_us.iter().copied().fold(0.0, f64::max) / 1e6;
        self.put(
            "maintenance.insert_us",
            median(&done.insert_us),
            done.insert_us.len(),
        );
        self.put(
            "maintenance.flush_s",
            done.flush_s.iter().fold(0.0, |sum, s| sum + s),
            done.flush_s.len(),
        );
        self.put(
            "maintenance.flush_count",
            done.flush_s.len() as f64,
            done.inserts,
        );
        self.put(
            "maintenance.stall_max_ms",
            stalls.max(longest_insert) * 1e3,
            done.inserts,
        );
        self.put("maintenance.segments_max", done.segments_max as f64, 1);
        self.put("maintenance.dead_fraction_max", done.dead_fraction_max, 1);
        self.put(
            "maintenance.search_us_per_segment",
            median(&done.search_us_per_segment),
            done.search_us_per_segment.len(),
        );
        self.put("maintenance.rebuild_s", done.rebuild_s, 1);
        self.put(
            "maintenance.rebuild_vectors",
            done.rebuild.vectors as f64,
            1,
        );
        self.put("maintenance.reclaimed", done.rebuild.reclaimed as f64, 1);
    }
}

/// Runs the traced ladder for `spec`; returns every per-layer metric and
/// the recorder holding the spans.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> (Vec<Measured>, Arc<Recorder>) {
    let rec = Recorder::new(true);
    rec.next_op();
    let inputs = make_inputs(spec, seed, seconds, &rec);
    let setup = rec.since(0);
    let mut ladder = Ladder {
        spec,
        requests: &inputs.requests[..spec.ladder_q.min(inputs.requests.len())],
        inputs: &inputs,
        rec: Arc::clone(&rec),
        tally,
        out: Vec::new(),
    };
    ladder.put(
        "vecstore.generate_s",
        seconds_of(&setup, "vecstore.generate"),
        1,
    );
    ladder.put(
        "vecstore.ground_truth_s",
        seconds_of(&setup, "vecstore.ground_truth"),
        1,
    );

    let (leaf, expect) = match spec.coding {
        Coding::Flash => {
            let mut priced = false;
            ladder.graphs_and_engine(|ladder| {
                let (provider, coding_s) = ladder.flash();
                if !std::mem::replace(&mut priced, true) {
                    ladder.simdops(&provider);
                }
                (provider, coding_s)
            })
        }
        _ => {
            let (flash, _) = ladder.flash();
            ladder.simdops(&flash);
            drop(flash);
            ladder.graphs_and_engine(|ladder| {
                let copy = ladder.inputs.corpus.base.clone();
                let t0 = Instant::now();
                let provider = FullPrecision::new(copy);
                (provider, t0.elapsed().as_secs_f64())
            })
        }
    };
    ladder.engine(&leaf, &expect);
    ladder.serving(&leaf, &expect);
    drop(leaf);
    ladder.maintenance();
    (ladder.out, rec)
}
