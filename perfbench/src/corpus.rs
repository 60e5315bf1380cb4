//! `corpus_hot` and `corpus_churn`: a 1M-row, 32-stage clustered
//! two-tier `CorpusEngine` with `CorpusConfig::paper_default()`
//! geometry, queried by a single-threaded caller.
//!
//! * `corpus_hot` — the snapshot budget holds every shard, a warm-up
//!   pass makes every shard resident, and the timed phase only reads:
//!   all time goes to the centroid scan, the packed re-rank and the
//!   top-k select.
//! * `corpus_churn` — the budget holds a small share of the probed
//!   working set, a seeded 10% rewrite precedes timing (so recall has
//!   drifted), and `update_row` / `append_row` are interleaved with the
//!   queries: residency (compile and evict) and the write path work.

use std::time::Instant;

use tdam::config::ArrayConfig;
use tdam::corpus::{CorpusBuilder, CorpusConfig, CorpusEngine};
use tdam::packed::PackedArray;
use tdam::runtime::RuntimeStats;
use tdam::tdc::CounterTdc;
use tdam::timing::StageTiming;

use crate::check::{same_topk, Recall, Shadow};
use crate::gen::{Clustered, Rng};
use crate::measure::{
    median, percentile, tail_p99, traced_window, us, OpLog, Trace, Windows, STALL_ROBUST,
};
use crate::{trace_rates, Ctx, Outcome};

/// Which corpus workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only, every shard resident.
    Hot,
    /// Interleaved writes, budget below the working set.
    Churn,
}

/// The corpus, its clustering and the churn prefix are one fixed
/// dataset; `--seed` drives the query and write streams. A per-seed
/// corpus would add its own cost and recall differences to every
/// run-to-run spread.
const CORPUS_SEED: u64 = 0xC0_FFEE;
const ROWS: usize = 1_000_000;
const STAGES: usize = 32;
const PROTOS: u64 = 64;
const K: usize = 10;
/// Seeded queries whose answers are compared with exact brute force
/// over the whole corpus.
const RECALL_QUERIES: usize = 256;
/// Every this many timed queries, the answer is checked against brute
/// force restricted to the probed shards.
const CHECK_EVERY: u64 = 16;
/// Rows rewritten before timing on `corpus_churn` (10% of the corpus).
const CHURN_PREFIX: usize = ROWS / 10;
/// Shard snapshots the `corpus_churn` budget holds.
const CHURN_RESIDENT: usize = 24;
/// `corpus_churn`: writes after every query.
const WRITES_PER_QUERY: usize = 2;
/// Every this many writes is an append (the rest are updates).
const APPEND_EVERY: u64 = 8;
/// Queries timed per layer in a traced run.
const LAYER_QUERIES: u64 = 200;

/// The `corpus_churn` write stream: updates that move a row to a random
/// prototype (the row keeps its shard, so recall drifts) and, every
/// `APPEND_EVERY`th write, an append routed to the nearest centroid.
struct Writer {
    gen: Clustered,
    rng: Rng,
    n: u64,
    /// `(is_append, microseconds)` per write, in time order.
    log: Vec<(bool, f64)>,
}

impl Writer {
    /// Applies the next write to `engine` and `shadow`; returns when
    /// the engine call started.
    fn write(&mut self, engine: &mut CorpusEngine, shadow: &mut Shadow) -> Result<Instant, String> {
        self.n += 1;
        let values = self.gen.fresh(&mut self.rng, (1 << 40) + self.n);
        let start;
        if self.n.is_multiple_of(APPEND_EVERY) {
            start = Instant::now();
            let id = engine.append_row(&values).map_err(|e| e.to_string())?;
            self.log.push((true, us(start.elapsed())));
            if id != shadow.rows() {
                return Err(format!(
                    "corpus: append got id {id}, expected {}",
                    shadow.rows()
                ));
            }
            shadow.codes.extend_from_slice(&values);
        } else {
            let id = self.rng.below(engine.total_rows());
            start = Instant::now();
            engine.update_row(id, &values).map_err(|e| e.to_string())?;
            self.log.push((false, us(start.elapsed())));
            shadow.codes[id * STAGES..(id + 1) * STAGES].copy_from_slice(&values);
        }
        Ok(start)
    }

    /// Latencies of the logged writes, in time order; `Some(append)`
    /// keeps one kind only.
    fn latencies(&self, kind: Option<bool>) -> Vec<f64> {
        self.log
            .iter()
            .filter(|(append, _)| kind.is_none_or(|k| k == *append))
            .map(|&(_, us)| us)
            .collect()
    }
}

/// A query: a stored row with two elements perturbed.
fn query(shadow: &Shadow, rng: &mut Rng, levels: u8) -> Vec<u8> {
    let id = rng.below(shadow.rows());
    rng.perturb(shadow.row(id), 2, levels)
}

fn delta(after: &RuntimeStats, before: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        corpus_cache_hits: after.corpus_cache_hits - before.corpus_cache_hits,
        corpus_cache_misses: after.corpus_cache_misses - before.corpus_cache_misses,
        corpus_cache_evictions: after.corpus_cache_evictions - before.corpus_cache_evictions,
        incremental_repacks: after.incremental_repacks - before.incremental_repacks,
        ..RuntimeStats::default()
    }
}

#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    // Queries per rate window: about a tenth of a second of work.
    let window = match mode {
        Mode::Hot => 32,
        Mode::Churn => 8,
    };
    let array = ArrayConfig::paper_default().with_stages(STAGES);
    let encoding = array.encoding;
    let levels = encoding.levels();
    let gen = Clustered::new(CORPUS_SEED, STAGES, levels, PROTOS);
    let mut shadow = Shadow {
        stages: STAGES,
        codes: gen.slab(ROWS),
    };
    let timing = StageTiming::analytic(&array.tech, array.c_load).map_err(|e| e.to_string())?;
    let tdc = CounterTdc::matched(&timing).map_err(|e| e.to_string())?;

    // A standalone shard-sized packed array: its footprint sizes the
    // churn budget, and the traced run times the kernel on it.
    let base = CorpusConfig::paper_default();
    let shard_slab = &shadow.codes[..base.shard_rows * STAGES];
    let scan = PackedArray::from_codes(encoding, STAGES, &timing, &tdc, shard_slab);
    let mut scan_scratch = scan.scratch();
    let budget = match mode {
        Mode::Hot => 1 << 30,
        Mode::Churn => CHURN_RESIDENT * scan.resident_bytes(),
    };
    let cfg = CorpusConfig {
        array,
        cache_budget_bytes: budget,
        ..base
    };

    // Set-up: build, churn prefix, warm-up (one query per centroid).
    let setup_start = Instant::now();
    let mut builder = CorpusBuilder::new(cfg).map_err(|e| e.to_string())?;
    builder
        .append_flat(&shadow.codes)
        .map_err(|e| e.to_string())?;
    let mut engine = builder.build().map_err(|e| e.to_string())?;
    let mut writer = Writer {
        gen: gen.clone(),
        rng: Rng::new(CORPUS_SEED, 0xC0_0001),
        n: 0,
        log: Vec::new(),
    };
    if mode == Mode::Churn {
        for _ in 0..CHURN_PREFIX {
            writer.write(&mut engine, &mut shadow)?;
        }
        writer.log.clear();
    }
    writer.rng = Rng::new(ctx.seed, 0xC0_0001);
    let shards = engine.shards();
    for c in 0..shards {
        let centroid = engine.centroids()[c * STAGES..(c + 1) * STAGES].to_vec();
        engine
            .search_topk(&centroid, K)
            .map_err(|e| e.to_string())?;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    let resident_after_warmup = engine.status().resident;
    if mode == Mode::Hot && resident_after_warmup != shards {
        return Err(format!(
            "corpus_hot: {resident_after_warmup} of {shards} shards resident after warm-up"
        ));
    }

    // Recall against exact brute force over the corpus as it stands.
    let mut rng = Rng::new(ctx.seed, 0xC0_0002);
    let mut recall = Recall::default();
    for _ in 0..RECALL_QUERIES {
        let q = query(&shadow, &mut rng, levels);
        let got = engine.search_topk(&q, K).map_err(|e| e.to_string())?;
        recall.add(&got, &shadow.topk(&q, K));
    }

    // Timed phase.
    let mut rng = Rng::new(ctx.seed, 0xC0_0003);
    let mut trace = Trace::new();
    let before = *engine.stats();
    let writes_before = writer.log.len();
    let t0 = Instant::now();
    let mut log = OpLog::new(t0);
    let mut seq = 0u64;
    let mut checked = 0u64;
    while log.now_s() < ctx.seconds {
        let q = query(&shadow, &mut rng, levels);
        let start = Instant::now();
        let (got, probed) = engine
            .search_topk_probed(&q, K)
            .map_err(|e| e.to_string())?;
        log.read(seq, start);
        if ctx.trace && traced_window(seq, window) {
            trace.record("corpus.search", seq, start);
        }
        if seq.is_multiple_of(CHECK_EVERY) {
            log.exclude(|| {
                same_topk("corpus", &got, &shadow.probed_topk(&engine, &probed, &q, K))
            })?;
            checked += 1;
        }
        let writes = match mode {
            Mode::Hot => 0,
            Mode::Churn => WRITES_PER_QUERY,
        };
        for _ in 0..writes {
            let start = writer.write(&mut engine, &mut shadow)?;
            if ctx.trace && traced_window(seq, window) {
                trace.record("corpus.write", seq, start);
            }
        }
        seq += 1;
    }
    let d = delta(engine.stats(), &before);
    let timed_writes = writer.log.len() - writes_before;
    let queries = seq;
    let windows = Windows::cut(&log.reads, window, 1.0);
    let lats: Vec<f64> = log.reads.iter().map(|o| o.lat_us).collect();

    let mut out = Outcome {
        attempted: queries + timed_writes as u64,
        failures: vec![("error", 0), ("wrong", 0)],
        ..Outcome::default()
    };
    let status = engine.status();
    out.note(format!(
        "corpus: {} rows x {STAGES} stages, {shards} shards of <= {}, nprobe {}, \
         budget {} MiB ({} resident), caller threads=1, build threads={}",
        status.rows,
        cfg.shard_rows,
        cfg.nprobe,
        budget >> 20,
        status.resident,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.note(format!(
        "timed: {queries} queries, {timed_writes} writes, {} windows of {window}, \
         {checked} answers checked against restricted brute force; recall over {} neighbours",
        windows.rates.len(),
        recall.total
    ));
    let hit_ratio =
        d.corpus_cache_hits as f64 / (d.corpus_cache_hits + d.corpus_cache_misses).max(1) as f64;
    out.note(format!(
        "timed window cache: {} hits, {} misses, {} evictions",
        d.corpus_cache_hits, d.corpus_cache_misses, d.corpus_cache_evictions
    ));

    // Per-layer calls.
    if ctx.trace {
        let mut rng = Rng::new(ctx.seed, 0xC0_0004);
        let mut rows_reranked = 0usize;
        for i in 0..LAYER_QUERIES {
            let q = query(&shadow, &mut rng, levels);
            trace
                .span("corpus.probe", i, || engine.probe(&q))
                .map_err(|e| e.to_string())?;
            let (_, probed) = trace
                .span("corpus.search_layer", i, || {
                    engine.search_topk_probed(&q, K)
                })
                .map_err(|e| e.to_string())?;
            rows_reranked += probed.iter().map(|&c| engine.shard_len(c)).sum::<usize>();
            trace.span("packed.shard_scan", i, || {
                scan.expand_query(&q, &mut scan_scratch);
                scan.mismatch_counts(&mut scan_scratch);
            });
        }
        let (probe, search) = (trace.p50("corpus.probe"), trace.p50("corpus.search_layer"));
        let shard_scan = trace.p50("packed.shard_scan");
        let rows_per_query = rows_reranked as f64 / LAYER_QUERIES as f64;
        out.metric("corpus.search_us", search);
        out.metric("corpus.probe_us", probe);
        out.metric("packed.shard_scan_us", shard_scan);
        out.metric(
            "corpus.rerank_select_us",
            search - probe - cfg.nprobe as f64 * shard_scan,
        );
        out.metric(
            "corpus.rerank_rows_per_s",
            rows_per_query / (search - probe) * 1e6,
        );
        out.metric(
            "packed.kernel_rows_per_s",
            scan.rows() as f64 / shard_scan * 1e6,
        );
        out.metric("corpus.cache_hit_ratio", hit_ratio);
        out.metric(
            "corpus.evictions_per_query",
            d.corpus_cache_evictions as f64 / queries as f64,
        );
        let all = engine.stats();
        out.metric(
            "corpus.compile_us_per_miss",
            all.corpus_compile_micros as f64 / all.corpus_cache_misses.max(1) as f64,
        );
        out.metric("op.p50_us", median(&mut lats.clone()));
        trace_rates(&mut out, &windows);
        if mode == Mode::Churn {
            out.metric(
                "corpus.update_us",
                median(&mut writer.latencies(Some(false))),
            );
            out.metric(
                "corpus.append_us",
                median(&mut writer.latencies(Some(true))),
            );
            out.metric(
                "corpus.repacks_per_write",
                d.incremental_repacks as f64 / writer.log.len().max(1) as f64,
            );
            out.metric(
                "op.write_p99_us",
                percentile(&mut writer.latencies(None), 99.0),
            );
        }
        out.trace = Some(trace);
        return Ok(out);
    }
    out.note(format!("p99 over {} queries", lats.len()));
    out.metric("qps", windows.sustained_rate());
    out.metric("p50_us", windows.slow_phase_median());
    out.metric("p99_us", tail_p99(&lats, STALL_ROBUST));
    out.metric("recall_at_10", recall.value());
    out.metric("setup_s", setup_s);
    out.metric("rss_mb", crate::measure::peak_rss_mb());
    Ok(out)
}
