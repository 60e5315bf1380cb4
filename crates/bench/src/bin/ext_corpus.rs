//! Extension: million-row two-tier corpus search — coarse centroid
//! pre-filter plus exact packed re-rank over LRU-cached shard
//! snapshots, benchmarked against flat packed brute force.
//!
//! Builds a seeded *clustered* corpus (prototypes plus per-element
//! noise — recall through a pre-filter over uniform data only measures
//! `nprobe / shards`), bulk-ingests it through `CorpusBuilder`
//! (reporting the rows/s ingest rate), then answers a seeded query set
//! three ways: flat packed brute force over one `from_codes` array (the
//! exact baseline), the two-tier engine with a cold snapshot cache
//! (every probed shard pages its stored planes in), and the same engine
//! hot. Gates:
//!
//! * every hot answer must equal brute force restricted to the probed
//!   shards' rows,
//! * recall@10 against the flat exact baseline must be >= 0.95, and
//! * the hot two-tier path must be >= 4x (quick) / >= 10x (full)
//!   faster end-to-end than flat packed brute force.
//!
//! With `--save`, archives `results/ext_corpus.txt` and the
//! machine-readable `results/BENCH_corpus.json`, both naming the host
//! (CI uploads the quick variant as an artifact).
//!
//! Usage: `cargo run --release -p tdam-bench --bin ext_corpus [--quick] [--save]`

use std::collections::HashSet;
use std::time::Instant;
use tdam::config::ArrayConfig;
use tdam::corpus::{CorpusBuilder, CorpusConfig, CorpusEngine};
use tdam::packed::PackedArray;
use tdam::tdc::CounterTdc;
use tdam::timing::StageTiming;
use tdam_bench::{host, quick_mode, rline, JsonMap, Report};

/// SplitMix64 finalizer — the repo-wide seeding discipline.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Clustered corpus: `protos` prototypes plus 10% per-element noise.
fn clustered(rows: usize, stages: usize, protos: u64, levels: u64, seed: u64) -> Vec<Vec<u8>> {
    (0..rows)
        .map(|r| {
            let p = splitmix(seed ^ 0x000A_11CE ^ r as u64) % protos;
            (0..stages)
                .map(|j| {
                    let base = splitmix(seed ^ 0xB0_55 ^ (p << 20 | j as u64)) % levels;
                    let n = splitmix(seed ^ 0x0040_15E0 ^ ((r as u64) << 20 | j as u64));
                    let v = if n % 100 < 10 {
                        (n >> 8) % levels
                    } else {
                        base
                    };
                    v as u8
                })
                .collect()
        })
        .collect()
}

/// Query `i`: a stored row with two elements perturbed.
fn perturbed_query(corpus: &[Vec<u8>], levels: u64, seed: u64, i: u64) -> Vec<u8> {
    let h = splitmix(seed ^ 0xDE_CAF ^ i);
    let mut q = corpus[(h % corpus.len() as u64) as usize].clone();
    for t in 0..2u64 {
        let hh = splitmix(h ^ (0xE0 + t));
        let j = (hh % q.len() as u64) as usize;
        q[j] = (((u64::from(q[j])) + 1 + hh % (levels - 1)) % levels) as u8;
    }
    q
}

/// One timed pass of the two-tier engine over the query set.
fn tier_pass(
    engine: &mut CorpusEngine,
    queries: &[Vec<u8>],
    k: usize,
) -> (Vec<Vec<(usize, usize)>>, f64) {
    let t0 = Instant::now();
    let answers = queries
        .iter()
        .map(|q| engine.search_topk(q, k).expect("tier search"))
        .collect();
    (answers, t0.elapsed().as_secs_f64())
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (rows, protos, shard_rows, nprobe, n_queries) = if quick_mode() {
        (100_000usize, 32u64, 1024usize, 8usize, 32u64)
    } else {
        (1_000_000, 64, 4096, 16, 64)
    };
    let stages = 32usize;
    let k = 10usize;
    let seed = 0xC0_FFEE_u64;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let mut rpt = Report::new("ext_corpus");

    rpt.header(&format!(
        "two-tier corpus search: {rows} rows x {stages} stages, {protos} prototypes"
    ));
    let host = host();
    rline!(rpt, "host: {host}");
    let corpus = clustered(rows, stages, protos, levels, seed);

    // Streaming bulk ingestion + build, reported as rows/s.
    let ccfg = CorpusConfig {
        array,
        shard_rows,
        nprobe,
        cache_budget_bytes: 256 << 20,
        seed,
        ..CorpusConfig::paper_default()
    };
    let t0 = Instant::now();
    let mut builder = CorpusBuilder::new(ccfg).expect("config");
    builder.append_rows(&corpus).expect("ingest");
    let mut engine = builder.build().expect("build");
    let build_s = t0.elapsed().as_secs_f64();
    let ingest_rows_per_s = rows as f64 / build_s;
    rline!(
        rpt,
        "ingest + build: {:.2} s  ({:.0} rows/s) into {} shards of {} (nprobe {})",
        build_s,
        ingest_rows_per_s,
        engine.shards(),
        shard_rows,
        nprobe
    );

    // Flat exact baseline: one packed array over the whole corpus,
    // full scan + top-k selection per query.
    let timing = StageTiming::analytic(&array.tech, array.c_load).expect("timing");
    let tdc = CounterTdc::matched(&timing).expect("tdc");
    let mut flat_codes = vec![0u8; rows * stages];
    for (r, row) in corpus.iter().enumerate() {
        flat_codes[r * stages..(r + 1) * stages].copy_from_slice(row);
    }
    let flat = PackedArray::from_codes(array.encoding, stages, &timing, &tdc, &flat_codes);
    let mut scratch = flat.scratch();

    let queries: Vec<Vec<u8>> = (0..n_queries)
        .map(|i| perturbed_query(&corpus, levels, 0x5EED, i))
        .collect();

    let t0 = Instant::now();
    let brute: Vec<Vec<(usize, usize)>> = queries
        .iter()
        .map(|q| {
            flat.expand_query(q, &mut scratch);
            flat.mismatch_counts(&mut scratch);
            let mut ranked: Vec<(usize, usize)> = (0..rows)
                .map(|r| {
                    let (e, o) = flat.counts(&scratch, 0, r);
                    (e + o, r)
                })
                .collect();
            // O(n) selection, then order the survivors — identical
            // results to a full sort + truncate.
            ranked.select_nth_unstable(k - 1);
            ranked.truncate(k);
            ranked.sort_unstable();
            ranked
        })
        .collect();
    let brute_s = t0.elapsed().as_secs_f64();
    rline!(
        rpt,
        "flat packed brute force: {:.3} s  ({:.1} queries/s)",
        brute_s,
        n_queries as f64 / brute_s
    );

    // Two-tier: cold pass (every probed shard pages its planes in),
    // then hot (cache resident).
    let (cold_answers, cold_s) = tier_pass(&mut engine, &queries, k);
    let (hot_answers, hot_s) = tier_pass(&mut engine, &queries, k);
    assert_eq!(cold_answers, hot_answers, "cache state changed answers");
    rline!(
        rpt,
        "two-tier cold cache:     {:.3} s  ({:.1} queries/s)",
        cold_s,
        n_queries as f64 / cold_s
    );
    rline!(
        rpt,
        "two-tier hot cache:      {:.3} s  ({:.1} queries/s)",
        hot_s,
        n_queries as f64 / hot_s
    );

    // Every hot answer is exact over the shards it probed: brute force
    // restricted to those shards' rows ranks the same k pairs.
    for (i, (q, got)) in queries.iter().zip(&hot_answers).enumerate() {
        let probed = engine.probe(q).expect("probe");
        let mut ranked: Vec<(usize, usize)> = probed
            .iter()
            .flat_map(|&c| engine.shard_ids(c))
            .map(|&id| {
                let id = id as usize;
                let d = array.encoding.hamming(&corpus[id], q).expect("oracle");
                (d, id)
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(k);
        assert_eq!(
            got, &ranked,
            "query {i}: hot answer differs from brute force restricted to the probed shards"
        );
    }
    rline!(
        rpt,
        "hot answers: {n_queries} of {n_queries} equal brute force restricted to the probed shards"
    );

    // Recall@k of the two-tier path against the flat exact baseline.
    let (mut hit, mut total) = (0usize, 0usize);
    for (got, want) in hot_answers.iter().zip(&brute) {
        let ids: HashSet<usize> = want.iter().map(|&(_, id)| id).collect();
        hit += got.iter().filter(|&&(_, id)| ids.contains(&id)).count();
        total += want.len();
    }
    let recall = hit as f64 / total as f64;
    let speedup = brute_s / hot_s;
    let status = engine.status();
    rline!(
        rpt,
        "recall@{k}: {recall:.4} ({hit}/{total});  end-to-end speedup {speedup:.1}x"
    );
    rline!(
        rpt,
        "snapshot cache: {} resident ({} MiB of {} MiB), {} hits, {} misses, {} evictions",
        status.resident,
        status.resident_bytes >> 20,
        status.budget_bytes >> 20,
        status.stats.corpus_cache_hits,
        status.stats.corpus_cache_misses,
        status.stats.corpus_cache_evictions
    );

    let speedup_floor = if quick_mode() { 4.0 } else { 10.0 };
    rline!(
        rpt,
        "gates: recall@{k} >= 0.95: {};  speedup >= {speedup_floor:.0}x: {}",
        if recall >= 0.95 { "PASS" } else { "FAIL" },
        if speedup >= speedup_floor {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(recall >= 0.95, "recall gate: {recall:.4}");
    assert!(
        speedup >= speedup_floor,
        "speedup gate: {speedup:.2}x < {speedup_floor:.0}x"
    );
    rpt.finish();

    JsonMap::new()
        .str(
            "scenario",
            &format!("{rows} rows x {stages} stages, {protos} prototypes"),
        )
        .str("host", &host)
        .obj(
            "config",
            JsonMap::new()
                .int("rows", rows as i64)
                .int("stages", stages as i64)
                .int("shard_rows", shard_rows as i64)
                .int("nprobe", nprobe as i64)
                .int("shards", engine.shards() as i64)
                .int("queries", n_queries as i64)
                .int("k", k as i64)
                .bool("quick", quick_mode()),
        )
        .num("ingest_rows_per_s", ingest_rows_per_s)
        .num("build_seconds", build_s)
        .obj(
            "qps",
            JsonMap::new()
                .num("flat_brute_force", n_queries as f64 / brute_s)
                .num("two_tier_cold", n_queries as f64 / cold_s)
                .num("two_tier_hot", n_queries as f64 / hot_s),
        )
        .num("speedup_vs_brute_force", speedup)
        .num("recall_at_k", recall)
        .obj(
            "cache",
            JsonMap::new()
                .int("resident", status.resident as i64)
                .int("resident_bytes", status.resident_bytes as i64)
                .int("budget_bytes", status.budget_bytes as i64)
                .int("hits", status.stats.corpus_cache_hits as i64)
                .int("misses", status.stats.corpus_cache_misses as i64)
                .int("evictions", status.stats.corpus_cache_evictions as i64)
                .int("compile_micros", status.stats.corpus_compile_micros as i64),
        )
        .finish("BENCH_corpus");
}
