//! Integration pins for the two-tier corpus engine: the recall gate on
//! a CI-sized clustered corpus, LRU-eviction bit-identity, kernel-rung
//! equivalence of the exact re-rank tier and its top-k select (ties,
//! edge-case `k`, post-build writes to resident and to cold shards), the
//! serve stats endpoint surfacing the snapshot-cache counters, and the
//! corpus checkpoint's byte format.
//!
//! The full-sized (1M-row) versions of the recall and speedup gates
//! live in `ext_corpus` (see EXPERIMENTS.md); these tests pin the same
//! contracts at a size the ordinary test suite can afford.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use tdam::clock::{Clock, SimClock};
use tdam::corpus::{CorpusBuilder, CorpusConfig, CorpusEngine, ProbedTopK};
use tdam::packed::PackedKernel;
use tdam::serve::{
    brute_force_topk, seeded_corpus, FrontEnd, ServeClient, ServeConfig, ShardedService,
};
use tdam::store::{crc32, decode_corpus, encode_corpus};
use tdam::{ArrayConfig, Encoding};

/// SplitMix64 finalizer — the repo-wide seeding discipline.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Clustered synthetic corpus: `protos` prototypes plus `noise_pct`%
/// per-element noise, pure in the seed. Clustered — not uniform —
/// because recall through a coarse pre-filter over uniform data only
/// measures `nprobe / shards`; the engine must recover structure.
fn clustered(
    rows: usize,
    stages: usize,
    protos: u64,
    noise_pct: u64,
    levels: u64,
    seed: u64,
) -> Vec<Vec<u8>> {
    (0..rows)
        .map(|r| {
            let p = splitmix(seed ^ 0x000A_11CE ^ r as u64) % protos;
            (0..stages)
                .map(|j| {
                    let base = splitmix(seed ^ 0xB0_55 ^ (p << 20 | j as u64)) % levels;
                    let n = splitmix(seed ^ 0x0040_15E0 ^ ((r as u64) << 20 | j as u64));
                    let v = if n % 100 < noise_pct {
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

fn build_engine(cfg: CorpusConfig, corpus: &[Vec<u8>]) -> CorpusEngine {
    let mut builder = CorpusBuilder::new(cfg).expect("config validates");
    builder.append_rows(corpus).expect("rows ingest");
    builder.build().expect("build")
}

/// The ISSUE's CI-sized recall gate: a seeded 100k-row clustered corpus
/// must reach recall@10 >= 0.95 against full brute force while probing
/// only `nprobe` of the shards.
#[test]
fn recall_at_10_exceeds_095_on_ci_sized_corpus() {
    let stages = 32;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let rows = 100_000;
    let corpus = clustered(rows, stages, 32, 10, levels, 0xC0_FFEE);
    let cfg = CorpusConfig {
        array,
        shard_rows: 4096,
        nprobe: 12,
        train_iters: 3,
        train_sample: 1 << 14,
        cache_budget_bytes: 64 << 20,
        seed: 42,
        threads: Some(4),
    };
    let mut engine = build_engine(cfg, &corpus);
    assert!(
        engine.shards() > cfg.nprobe * 2,
        "gate must actually prune: {} shards, nprobe {}",
        engine.shards(),
        cfg.nprobe
    );

    let k = 10;
    let (mut hit, mut total) = (0usize, 0usize);
    for i in 0..32u64 {
        let q = perturbed_query(&corpus, levels, 0x5EED, i);
        let got = engine.search_topk(&q, k).expect("search");
        let want = brute_force_topk(&corpus, array.encoding, &q, k).expect("oracle");
        let ids: HashSet<usize> = want.iter().map(|&(_, id)| id).collect();
        hit += got.iter().filter(|&&(_, id)| ids.contains(&id)).count();
        total += want.len();
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.95, "recall@10 = {recall:.3} ({hit}/{total})");
}

/// Evicted shards must page back in bit-identically: a cache starved
/// down to one resident snapshot returns the same full ranking as a cache
/// that never evicts, across repeated passes.
#[test]
fn evicted_shards_recompile_bit_identically() {
    let stages = 16;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let rows = 2048;
    let corpus = clustered(rows, stages, 8, 10, levels, 0xE71C);
    let cfg = CorpusConfig {
        array,
        shard_rows: 256,
        nprobe: 64, // exhaustive: every shard scanned on every query
        train_iters: 2,
        train_sample: 512,
        cache_budget_bytes: 64 << 20,
        seed: 9,
        threads: Some(2),
    };
    let mut roomy = build_engine(cfg, &corpus);
    let mut starved = build_engine(
        CorpusConfig {
            cache_budget_bytes: 1,
            ..cfg
        },
        &corpus,
    );

    for pass in 0..2 {
        for i in 0..4u64 {
            let q = perturbed_query(&corpus, levels, 0xAB ^ i, i);
            // Full ranking: every row's exact distance is compared, so
            // a single bit of page-in drift would surface.
            let a = roomy.search_topk(&q, rows).expect("roomy search");
            let b = starved.search_topk(&q, rows).expect("starved search");
            assert_eq!(a, b, "pass {pass} query {i}: eviction changed the ranking");
        }
    }
    assert_eq!(roomy.status().stats.corpus_cache_evictions, 0);
    let starved_status = starved.status();
    assert!(
        starved_status.stats.corpus_cache_evictions > 0,
        "starved cache never evicted"
    );
    assert_eq!(
        starved_status.resident, 1,
        "budget of 1 byte keeps one snapshot"
    );
}

/// Edits applied to an engine (and to the test's oracle copy of the
/// corpus) before any answer is checked.
enum Write {
    Append(Vec<u8>),
    Update(usize, Vec<u8>),
}

/// Builds `cfg` over `corpus` once per available dispatch-ladder rung,
/// warms the probed shards, applies `writes`, then asks every query at
/// every `k` of the selector's edge cases: none, one, a handful, more
/// than the probed rows hold, and `usize::MAX`. Every answer must equal
/// brute force restricted to the probed shards exactly, and every rung
/// must answer what the first rung answered.
fn assert_rerank_matches_restricted_brute_force(
    cfg: CorpusConfig,
    corpus: &[Vec<u8>],
    writes: &[Write],
    queries: &[Vec<u8>],
) {
    let rungs = [
        PackedKernel::Scalar,
        PackedKernel::Unrolled,
        PackedKernel::Simd,
    ];
    let mut reference: Option<Vec<ProbedTopK>> = None;
    for rung in rungs {
        if !rung.is_available() {
            continue;
        }
        let mut engine = build_engine(cfg, corpus);
        assert!(engine.set_kernel(rung), "{rung:?} reported available");
        // Resident snapshots take the writes as surgical repacks; cold
        // shards take them in their stored planes only.
        for q in queries {
            engine.search_topk(q, 1).expect("warm-up search");
        }
        let mut rows = corpus.to_vec();
        for write in writes {
            match write {
                Write::Append(v) => {
                    assert_eq!(engine.append_row(v).expect("append"), rows.len());
                    rows.push(v.clone());
                }
                Write::Update(id, v) => {
                    engine.update_row(*id, v).expect("update");
                    rows[*id] = v.clone();
                }
            }
        }
        let mut answers = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let (_, probed) = engine.search_topk_probed(q, 0).expect("probe");
            let mut ranked = Vec::new();
            for &c in &probed {
                for &id in engine.shard_ids(c) {
                    let id = id as usize;
                    let d = cfg.array.encoding.hamming(&rows[id], q).expect("oracle");
                    ranked.push((d, id));
                }
            }
            ranked.sort_unstable();
            for k in [0, 1, 8, ranked.len() + 5, usize::MAX] {
                let got = engine.search_topk_probed(q, k).expect("search");
                assert_eq!(got.1, probed, "{rung:?} query {i}: probe order moved");
                assert_eq!(
                    got.0,
                    ranked[..k.min(ranked.len())],
                    "{rung:?} query {i} k={k}: re-rank diverged from restricted brute force"
                );
                answers.push(got);
            }
        }
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(&answers, r, "{rung:?} diverged from the first rung"),
        }
    }
    assert!(reference.is_some(), "no kernel rung available");
}

/// The exact re-rank tier is bit-identical across all available
/// dispatch-ladder rungs, and every rung matches brute force restricted
/// to the probed shards — the tier's equivalence contract.
#[test]
fn rerank_matches_restricted_brute_force_on_every_kernel_rung() {
    let stages = 16;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let rows = 4096;
    let corpus = clustered(rows, stages, 16, 10, levels, 0x3A11);
    let cfg = CorpusConfig {
        array,
        shard_rows: 256,
        nprobe: 4,
        train_iters: 2,
        train_sample: 1024,
        cache_budget_bytes: 8 << 20,
        seed: 5,
        threads: Some(2),
    };
    let queries: Vec<Vec<u8>> = (0..16u64)
        .map(|i| perturbed_query(&corpus, levels, 0xF00D, i))
        .collect();
    assert_rerank_matches_restricted_brute_force(cfg, &corpus, &[], &queries);
}

/// Ties everywhere: 1-bit codes over 8 stages leave only nine distinct
/// distances for 2k rows, so every `k` boundary falls inside a run of
/// equal distances and the id tie-break decides the answer. Appends
/// join whichever shard their centroid picks, so the probed shards
/// offer their ids out of ascending order, and updates move rows'
/// distances after their shards were compiled.
#[test]
fn rerank_breaks_ties_like_brute_force_after_appends_and_updates() {
    let stages = 8;
    let array = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_encoding(Encoding::new(1).expect("1-bit encoding"));
    let corpus = clustered(2048, stages, 6, 20, 2, 0x71E5);
    let cfg = CorpusConfig {
        array,
        shard_rows: 128,
        nprobe: 3,
        train_iters: 2,
        train_sample: 512,
        cache_budget_bytes: 8 << 20,
        seed: 11,
        threads: Some(2),
    };
    let extra = clustered(96, stages, 6, 20, 2, 0xADD5);
    let mut writes: Vec<Write> = extra.into_iter().map(Write::Append).collect();
    for i in 0..64u64 {
        let h = splitmix(0xDA7E ^ i);
        let v = (0..stages)
            .map(|j| (splitmix(h ^ j as u64) & 1) as u8)
            .collect();
        writes.push(Write::Update((h % 2048) as usize, v));
    }
    let queries: Vec<Vec<u8>> = (0..12u64)
        .map(|i| perturbed_query(&corpus, 2, 0x7135, i))
        .collect();
    assert_rerank_matches_restricted_brute_force(cfg, &corpus, &writes, &queries);
}

/// Writes to shards that are not resident land in the stored planes
/// alone: updates and appends (every shard starts full, so each shard's
/// first append re-strides its planes past `capacity_for`) reach a cold
/// engine, and its answers are then checked as the shards page in, get
/// evicted by a one-snapshot budget and page in again. Every answer on
/// every rung equals brute force restricted to the probed shards, and
/// every row reads back its written codes.
#[test]
fn cold_shard_writes_survive_page_in_eviction_and_reprobe_on_every_kernel_rung() {
    let stages = 16;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let corpus = clustered(1024, stages, 8, 10, levels, 0xC01D);
    let cfg = CorpusConfig {
        array,
        shard_rows: 64,
        nprobe: 3,
        train_iters: 2,
        train_sample: 512,
        cache_budget_bytes: 1,
        seed: 13,
        threads: Some(2),
    };
    let extra = clustered(160, stages, 8, 10, levels, 0xA99E);
    let mut writes: Vec<Write> = extra.iter().cloned().map(Write::Append).collect();
    for i in 0..96u64 {
        let h = splitmix(0x0C01D ^ i);
        let id = (h % 1024) as usize;
        writes.push(Write::Update(id, perturbed_query(&corpus, levels, h, i)));
    }
    let mut queries: Vec<Vec<u8>> = (0..8u64)
        .map(|i| perturbed_query(&extra, levels, 0xE7A, i))
        .collect();
    queries.extend(writes.iter().rev().take(8).map(|w| match w {
        Write::Append(v) | Write::Update(_, v) => v.clone(),
    }));

    let rungs = [
        PackedKernel::Scalar,
        PackedKernel::Unrolled,
        PackedKernel::Simd,
    ];
    let mut reference: Option<Vec<ProbedTopK>> = None;
    for rung in rungs {
        if !rung.is_available() {
            continue;
        }
        let mut engine = build_engine(cfg, &corpus);
        assert!(engine.set_kernel(rung), "{rung:?} reported available");
        assert!((0..engine.shards()).all(|c| engine.shard_len(c) == 64));
        let mut rows = corpus.clone();
        for write in &writes {
            match write {
                Write::Append(v) => {
                    assert_eq!(engine.append_row(v).expect("append"), rows.len());
                    rows.push(v.clone());
                }
                Write::Update(id, v) => {
                    engine.update_row(*id, v).expect("update");
                    rows[*id] = v.clone();
                }
            }
        }
        let status = engine.status();
        assert_eq!(status.resident, 0, "a write paged a shard in");
        assert_eq!(status.stats.incremental_repacks, 0);
        for (id, row) in rows.iter().enumerate() {
            assert_eq!(engine.row_codes(id).as_ref(), Some(row), "row {id}");
        }

        let mut answers = Vec::new();
        for pass in 0..2 {
            for (i, q) in queries.iter().enumerate() {
                let (_, probed) = engine.search_topk_probed(q, 0).expect("probe");
                let mut ranked = Vec::new();
                for &c in &probed {
                    for &id in engine.shard_ids(c) {
                        let id = id as usize;
                        let d = array.encoding.hamming(&rows[id], q).expect("oracle");
                        ranked.push((d, id));
                    }
                }
                ranked.sort_unstable();
                for k in [1, 8, usize::MAX] {
                    let got = engine.search_topk_probed(q, k).expect("search");
                    assert_eq!(
                        got.0,
                        ranked[..k.min(ranked.len())],
                        "{rung:?} pass {pass} query {i} k={k}: diverged from restricted brute force"
                    );
                    answers.push(got);
                }
            }
        }
        let stats = engine.status().stats;
        assert!(stats.corpus_cache_evictions > 0, "budget never evicted");
        assert_eq!(engine.status().resident, 1);
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(&answers, r, "{rung:?} diverged from the first rung"),
        }
    }
    assert!(reference.is_some(), "no kernel rung available");
}

/// The serve stats endpoint surfaces the corpus tier's snapshot-cache
/// counters over the wire (the ISSUE's observability criterion).
#[test]
fn serve_stats_endpoint_surfaces_snapshot_cache_counters() {
    let mut cfg = ServeConfig::paper_default();
    cfg.array = ArrayConfig::paper_default().with_stages(8);
    cfg.rows_per_shard = 16;
    let corpus = seeded_corpus(64, 8, 4, 91);
    let mut service = ShardedService::new(&cfg, &corpus, None).expect("service");
    // A 1-byte budget forces an eviction on every second snapshot
    // compile, so all three counters move within a handful of queries.
    service.install_corpus_tier(2, 1).expect("corpus tier");
    let service = Arc::new(service);
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let mut client = ServeClient::connect(front.addr()).expect("client");

    // Healthy path: the tier only prunes (per-shard engines answer), so
    // its snapshot cache stays cold.
    let mut answered = client
        .query(&corpus[0], 3, Duration::from_millis(500))
        .expect("healthy query");
    assert!(!answered.degraded, "healthy serve must not be degraded");

    // Crash every shard: probed shards are now answered from the tier's
    // exact snapshot cache (degraded, never partial for probed shards).
    for s in 0..service.map().shards() {
        service.inject_crash(s);
    }
    for i in 0..6 {
        let q = corpus[i * 9].clone();
        answered = client
            .query(&q, 3, Duration::from_millis(500))
            .expect("tier-served query");
        assert!(answered.degraded, "tier-served answers are degraded");
        assert!(!answered.neighbors.is_empty());
    }

    let stats = client.stats().expect("stats");
    let tier = stats.corpus.expect("corpus tier status on the wire");
    assert_eq!(tier.rows, 64);
    assert_eq!(tier.nprobe, 2);
    assert!(tier.stats.corpus_cache_misses > 0, "no misses counted");
    assert!(
        tier.stats.corpus_cache_evictions > 0,
        "starved cache never evicted"
    );
    assert!(tier.resident_bytes > 0);
    front.shutdown();
}

/// Checkpoints keep store format v5 byte-for-byte: the image of a
/// seeded small corpus (built, queried, updated and grown on virtual
/// time, so no wall-clock figure enters the counters) hashes to the
/// value the format has always produced, and a load-save round trip
/// returns the same bytes.
#[test]
fn corpus_checkpoint_format_is_pinned() {
    let stages = 16;
    let array = ArrayConfig::paper_default().with_stages(stages);
    let levels = u64::from(array.encoding.levels());
    let corpus = clustered(300, stages, 6, 10, levels, 0xC4EC);
    let cfg = CorpusConfig {
        array,
        shard_rows: 32,
        nprobe: 3,
        train_iters: 2,
        train_sample: 128,
        cache_budget_bytes: 1 << 20,
        seed: 3,
        threads: Some(2),
    };
    let mut builder = CorpusBuilder::new(cfg).expect("config validates");
    builder.append_rows(&corpus).expect("rows ingest");
    let mut engine = builder
        .build_with_clock(Clock::sim(&SimClock::new()))
        .expect("build");
    for i in 0..8u64 {
        let q = perturbed_query(&corpus, levels, 0xC4, i);
        engine.search_topk(&q, 5).expect("search");
    }
    for row in clustered(40, stages, 6, 10, levels, 0xADD) {
        engine.append_row(&row).expect("append");
    }
    for i in 0..16u64 {
        let id = (splitmix(0x0DD ^ i) % 300) as usize;
        engine
            .update_row(id, &corpus[(id * 7) % 300])
            .expect("update");
    }
    let bytes = encode_corpus(&engine);
    assert_eq!((bytes.len(), crc32(&bytes)), (9044, 0xb3d3_c7bd));
    let back = decode_corpus(&bytes, Clock::wall()).expect("decode");
    assert_eq!(
        encode_corpus(&back),
        bytes,
        "load-save round trip moved bytes"
    );
}
