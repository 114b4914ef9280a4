//! The end-to-end runs: what a user of the system pays, tracing off.

use crate::check::{recall, same_hits, Tally};
use crate::churn::{brute_force, run_churn};
use crate::inputs::{churn_schedule, lru_hit_rate, make_corpus, zipf_stream, ChurnOp, Corpus, Rng};
use crate::query::{parallel_qps, timed_pass, timed_passes_until, Fold, Samples, MIN_PASS};
use crate::report::{nproc, peak_rss_mb, Measured};
use crate::span::Recorder;
use crate::spec::{Kind, Spec, SHARDS, ZIPF_S};
use crate::stack::{build_leaves, sharded, Stack};
use crate::stats::median;
use hnsw_flash::engine::{AnnIndex, SearchRequest, SearchResponse};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the inputs are generated per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Rounds the measured window is cut into. Every round does all of the
/// workload's timed work — build, single client, `nproc` clients — so each
/// timing is sampled across the whole window and a slow spell of the
/// machine shorter than the run cannot cover every sample of one metric.
/// The best round counts.
pub const ROUNDS: usize = 3;
/// Queries of the serve gate comparing TCP hits with in-process hits.
const PARITY_SAMPLE: usize = 200;
/// Share of a round's query time given to the single client; the rest goes
/// to the `nproc` clients.
const SINGLE_SHARE: f64 = 0.5;
/// Shortest parallel phase, as a share of a round, however late the round
/// is: 1.3 s of a 20 s window's round. At 0.8 s `query_qps_par` of the
/// churn workload, whose rounds always run late, spread twice as wide.
const MIN_PARALLEL_SHARE: f64 = 0.2;

fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::MAX, f64::min)
}

/// The measured window, cut into `ROUNDS` equal rounds.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    fn starting_now(seconds: u64) -> Window {
        Window {
            start: Instant::now(),
            length: Duration::from_secs(seconds),
        }
    }

    fn round_end(&self, round: usize) -> Instant {
        self.start + self.length.mul_f64((round + 1) as f64 / ROUNDS as f64)
    }

    fn min_parallel(&self) -> Duration {
        self.length.mul_f64(MIN_PARALLEL_SHARE / ROUNDS as f64)
    }
}

/// The query phases of every round, folded: all single-client passes, and
/// the best parallel window.
#[derive(Default)]
struct Queries {
    single: Samples,
    qps_par: f64,
    par_queries: usize,
}

impl Queries {
    /// What is left of the round goes to one client walking `ids`, then to
    /// `nproc` clients doing the same.
    fn round(
        &mut self,
        index: &Arc<dyn AnnIndex>,
        requests: &[SearchRequest],
        ids: &[u32],
        (window, round): (Window, usize),
        tally: &mut Tally,
    ) {
        let left = window
            .round_end(round)
            .saturating_duration_since(Instant::now());
        let single_end = Instant::now() + left.mul_f64(SINGLE_SHARE);
        timed_passes_until(
            index.as_ref(),
            requests,
            ids,
            single_end,
            &mut self.single,
            tally,
        );
        self.parallel(index, requests, ids, (window, round), tally);
    }

    fn parallel(
        &mut self,
        index: &Arc<dyn AnnIndex>,
        requests: &[SearchRequest],
        ids: &[u32],
        (window, round): (Window, usize),
        tally: &mut Tally,
    ) {
        let left = window
            .round_end(round)
            .saturating_duration_since(Instant::now())
            .max(window.min_parallel());
        let (qps, done) = parallel_qps(index, requests, ids, nproc(), left, tally);
        self.qps_par = self.qps_par.max(qps);
        self.par_queries += done;
    }

    /// The query metrics of a run. The tail percentile is printed but not
    /// reported: on this machine its run-to-run spread exceeds any bound
    /// the driver accepts, so the gated tail is `engine.leaf_search_p99_us`
    /// of the traced run instead.
    fn metrics(&self, fold: Fold) -> Vec<Measured> {
        let single = &self.single;
        println!(
            "# not gated: query_p99_us={:.3} (per pass, {} passes)",
            single.p99_us(fold),
            single.pass_p99_us.len()
        );
        vec![
            Measured::new("query_p50_us", single.p50_us(fold), single.count),
            Measured::new("query_qps", single.qps(fold), single.count),
            Measured::new("query_qps_par", self.qps_par, self.par_queries),
        ]
    }
}

/// Everything generated from the seed before the first timed call.
pub struct Inputs {
    pub corpus: Corpus,
    /// One request per distinct query.
    pub requests: Vec<SearchRequest>,
    /// Every distinct query once, in order: one pass.
    pub every_query: Vec<u32>,
    /// Zipf draws over the distinct queries (`Kind::Serve`).
    pub stream: Vec<u32>,
    pub schedule: Vec<ChurnOp>,
}

/// Generates the workload's inputs once.
pub fn make_inputs(spec: &Spec, seed: u64, seconds: u64, rec: &Recorder) -> Inputs {
    let corpus = make_corpus(
        spec.profile,
        spec.n,
        spec.nq,
        spec.truth_q,
        spec.k,
        seed,
        rec,
    );
    let requests = spec.requests(&corpus.queries, spec.rerank);
    // Whole passes, the same number in every round.
    let pass = MIN_PASS.min(spec.nq);
    let passes_per_round = (spec.zipf_per_second * seconds as usize / (ROUNDS * pass)).max(1);
    let stream_len = ROUNDS * passes_per_round * pass;
    let stream = match spec.kind {
        Kind::Serve => zipf_stream(spec.nq, ZIPF_S, stream_len, &mut Rng::new(seed, "zipf")),
        _ => Vec::new(),
    };
    let schedule = churn_schedule(&spec.churn, spec.nq, &mut Rng::new(seed, "churn"));
    Inputs {
        corpus,
        requests,
        every_query: (0..spec.nq as u32).collect(),
        stream,
        schedule,
    }
}

/// Runs `spec` end to end and returns every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: u64, tally: &mut Tally) -> Vec<Measured> {
    let rec = Recorder::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(make_inputs(spec, seed, seconds, &rec));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPEATS is positive");
    let window = Window::starting_now(seconds);
    let mut out = match spec.kind {
        Kind::Build => build(spec, &inputs, window, tally),
        Kind::Serve => serve(spec, &inputs, window, tally),
        Kind::Churn => churn(spec, &inputs, window, tally),
    };
    out.push(Measured::new("setup_s", median(&setups), SETUP_REPEATS));
    out.push(Measured::new("peak_rss_mb", peak_rss_mb(), 1));
    out
}

/// One untimed pass over the leading queries, whose exact neighbors are
/// `truth`: warms the index and yields the recall.
fn warm_up_recall(
    spec: &Spec,
    index: &dyn AnnIndex,
    inputs: &Inputs,
    truth: &[Vec<u64>],
    tally: &mut Tally,
) -> (f64, Vec<SearchResponse>) {
    let mut responses = Vec::with_capacity(truth.len());
    timed_pass(
        index,
        &inputs.requests,
        &inputs.every_query[..truth.len()],
        &mut Samples::default(),
        tally,
        |_, _, response, _| responses.push(response.clone()),
    );
    let found: Vec<Vec<u64>> = responses.iter().map(SearchResponse::ids).collect();
    let r = recall(&found, truth, spec.k);
    tally.gate(r >= spec.recall_floor, || {
        format!(
            "recall@{} {r:.4} is below the floor {}",
            spec.k, spec.recall_floor
        )
    });
    (r, responses)
}

/// `build_s` and the indexing rate it implies, from the rounds' builds.
fn build_metrics(spec: &Spec, walls: &[f64]) -> [Measured; 2] {
    [
        Measured::new("build_s", fastest(walls), walls.len()),
        Measured::new("ingest_vps", spec.n as f64 / fastest(walls), spec.n),
    ]
}

fn build(spec: &Spec, inputs: &Inputs, window: Window, tally: &mut Tally) -> Vec<Measured> {
    let builder = spec.builder();
    let truth = &inputs.corpus.truth;
    let mut walls = Vec::with_capacity(ROUNDS);
    let mut queries = Queries::default();
    let (mut recall_at_k, mut bytes_per_vector) = (0.0, 0.0);
    for round in 0..ROUNDS {
        let base = inputs.corpus.base.clone();
        let t0 = Instant::now();
        let built = builder.build(base);
        walls.push(t0.elapsed().as_secs_f64());
        tally.ops(1);
        let index: Arc<dyn AnnIndex> = Arc::from(built);
        tally.gate(index.len() == spec.n, || {
            format!("index holds {} of {} vectors", index.len(), spec.n)
        });
        (recall_at_k, _) = warm_up_recall(spec, index.as_ref(), inputs, truth, tally);
        bytes_per_vector = index.memory_bytes() as f64 / index.len() as f64;
        queries.round(
            &index,
            &inputs.requests,
            &inputs.every_query,
            (window, round),
            tally,
        );
    }

    let mut out = queries.metrics(Fold::Best);
    out.extend(build_metrics(spec, &walls));
    out.extend([
        Measured::new("recall_at_10", recall_at_k, truth.len()),
        Measured::new("index_bytes_per_vector", bytes_per_vector, 1),
    ]);
    out
}

fn serve(spec: &Spec, inputs: &Inputs, window: Window, tally: &mut Tally) -> Vec<Measured> {
    let builder = spec.builder();
    let truth = &inputs.corpus.truth;
    let mut walls = Vec::with_capacity(ROUNDS);
    let mut queries = Queries::default();
    let (mut recall_at_k, mut memory) = (0.0, 0usize);
    let (mut hits, mut lookups) = (0u64, 0u64);
    // Every reply to a query must equal the first reply to it, in any
    // round: builds repeat exactly and a cache hit returns the miss that
    // filled it.
    let mut first_reply: BTreeMap<u32, SearchResponse> = BTreeMap::new();
    let per_round = inputs.stream.len() / ROUNDS;
    for (round, part) in inputs.stream.chunks(per_round).enumerate() {
        let t0 = Instant::now();
        let parts = build_leaves(&builder, &inputs.corpus.base, SHARDS);
        let stack = Stack::bring_up(&parts, spec.cache_capacity);
        walls.push(t0.elapsed().as_secs_f64());
        tally.ops(1);
        memory = parts.iter().map(|(leaf, _)| leaf.memory_bytes()).sum();

        // Warm-up through the uncached coordinator, so the cache starts cold.
        let over_tcp;
        (recall_at_k, over_tcp) =
            warm_up_recall(spec, stack.coordinator.as_ref(), inputs, truth, tally);
        let in_process = sharded(&parts);
        for (qi, remote) in over_tcp.iter().enumerate().take(PARITY_SAMPLE) {
            let local = in_process.search(&inputs.requests[qi]);
            tally.gate(same_hits(&remote.hits, &local.hits), || {
                format!("query {qi}: hits over TCP differ from the in-process ShardedIndex")
            });
        }

        // This round's part of the fixed Zipf stream, one client.
        for pass in part.chunks(MIN_PASS.min(part.len())) {
            timed_pass(
                stack.cached.as_ref(),
                &inputs.requests,
                pass,
                &mut queries.single,
                tally,
                |_, qi, response, tally| match first_reply.get(&qi) {
                    Some(first) => tally.gate(same_hits(&first.hits, &response.hits), || {
                        format!("query {qi}: a later reply differs from the first")
                    }),
                    None => {
                        first_reply.insert(qi, response.clone());
                    }
                },
            );
        }
        let cache = stack.cached.cache().stats();
        let expected = lru_hit_rate(part, spec.cache_capacity);
        tally.gate(cache.hit_rate() == expected, || {
            format!(
                "round {round}: hit rate {} differs from the LRU model's {expected}",
                cache.hit_rate()
            )
        });
        hits += cache.hits;
        lookups += cache.hits + cache.misses;

        let cached: Arc<dyn AnnIndex> = Arc::clone(&stack.cached) as Arc<dyn AnnIndex>;
        queries.parallel(&cached, &inputs.requests, part, (window, round), tally);
        let refused: u64 = stack
            .servers
            .iter()
            .map(|s| s.admission_stats().shed)
            .sum::<u64>()
            + stack
                .remotes
                .iter()
                .map(|r| r.transport_stats().errors)
                .sum::<u64>();
        tally.gate(refused == 0, || {
            format!("round {round}: {refused} requests were shed or failed in transport")
        });
    }
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    let (low, high) = spec.hit_rate_band;
    println!("# cache hit rate of the single-client stream: {hit_rate:.4}");
    tally.gate((low..=high).contains(&hit_rate), || {
        format!("hit rate {hit_rate} is outside [{low}, {high}]")
    });

    let mut out = queries.metrics(Fold::Best);
    out.extend(build_metrics(spec, &walls));
    out.extend([
        Measured::new("recall_at_10", recall_at_k, truth.len()),
        Measured::new("index_bytes_per_vector", memory as f64 / spec.n as f64, 1),
    ]);
    out
}

fn churn(spec: &Spec, inputs: &Inputs, window: Window, tally: &mut Tally) -> Vec<Measured> {
    let cycles = spec.churn.cycles as u32;
    let checkpoints = [cycles / 3, 2 * cycles / 3, cycles.saturating_sub(1)];
    let rec = Recorder::new(false);
    let truth_q = inputs.corpus.truth.len();
    let mut queries = Queries::default();
    let mut replays = Vec::with_capacity(ROUNDS);
    let mut truth = None;
    let (mut rebuild_s, mut ingest_vps) = (Vec::new(), 0.0f64);
    let (mut inserts, mut recall_at_k, mut checked, mut bytes_per_vector) = (0, 0.0, 0, 0.0);
    // Every round replays the whole stream into a new index.
    for round in 0..ROUNDS {
        let done = run_churn(
            spec,
            &inputs.corpus,
            &inputs.schedule,
            &checkpoints,
            &rec,
            tally,
        );

        // After the rebuild: recall against brute force over the mirror,
        // then the parallel clients on the single rebuilt segment.
        let index: Arc<dyn AnnIndex> = Arc::new(done.index);
        // The schedule fixes which rows are live at the end, so the exact
        // neighbors are the same in every round.
        let truth = truth.get_or_insert_with(|| {
            (0..truth_q)
                .map(|qi| {
                    brute_force(
                        &inputs.corpus.base,
                        &done.alive,
                        inputs.corpus.queries.get(qi),
                        spec.k,
                    )
                })
                .collect::<Vec<Vec<u64>>>()
        });
        let (rebuilt_recall, _) = warm_up_recall(spec, index.as_ref(), inputs, truth, tally);
        queries.parallel(
            &index,
            &inputs.requests,
            &inputs.every_query,
            (window, round),
            tally,
        );

        checked = truth_q;
        let mut found = rebuilt_recall * truth_q as f64;
        for &(queries, r) in &done.checkpoints {
            checked += queries;
            found += r * queries as f64;
        }
        recall_at_k = found / checked as f64;
        bytes_per_vector = done.bytes_per_vector;
        inserts = done.inserts;
        ingest_vps = ingest_vps.max(done.inserts as f64 / done.insert_wall_s);
        rebuild_s.push(done.rebuild_s);
        replays.push(done.searches);
    }

    queries.single = Samples::best_of(&replays);
    let mut out = queries.metrics(Fold::Median);
    out.extend([
        Measured::new("build_s", fastest(&rebuild_s), ROUNDS),
        Measured::new("ingest_vps", ingest_vps, inserts),
        Measured::new("recall_at_10", recall_at_k, checked),
        Measured::new("index_bytes_per_vector", bytes_per_vector, 1),
    ]);
    out
}
