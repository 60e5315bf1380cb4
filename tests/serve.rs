//! Acceptance suite for the sharded serving front-end
//! ([`tdam::serve`]): the scatter-gather top-k must be **bit-identical**
//! to brute force over the unsharded corpus across shard geometries;
//! admission control must shed explicitly (never hang, never silently
//! serve late); and warm-standby failover must be gated on known-answer
//! probes. Failover under a scheduled mix of crashes, slow shards, stuck
//! cells and worker panics is judged by the deterministic simulation
//! (`crates/tdam/tests/sim.rs`).

use std::sync::Arc;
use std::time::Duration;

use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::engine::BatchQuery;
use fetdam::tdam::resilience::ResilienceConfig;
use fetdam::tdam::runtime::{DeadlinePolicy, QueryOutcome, ResilientEngine, RuntimeConfig};
use fetdam::tdam::serve::{
    brute_force_topk, seeded_corpus, FrontEnd, ServeClient, ServeConfig, ServeError,
    ShardedService, ShedReason,
};

/// A serving config sized for tests: 16-stage vectors, small shards.
fn test_config(rows_per_shard: usize) -> ServeConfig {
    let mut cfg = ServeConfig::paper_default();
    cfg.array = ArrayConfig::paper_default().with_stages(16);
    cfg.resilience = ResilienceConfig {
        spare_rows: 2,
        ..ResilienceConfig::default()
    };
    cfg.rows_per_shard = rows_per_shard;
    cfg
}

fn test_corpus(rows: usize) -> Vec<Vec<u8>> {
    let levels = ArrayConfig::paper_default().encoding.levels();
    seeded_corpus(rows, 16, levels, 41)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tdam-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const GENEROUS: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Tentpole invariant: sharded == brute force, bit for bit
// ---------------------------------------------------------------------------

#[test]
fn sharded_topk_is_bit_identical_to_brute_force_across_geometries() {
    let corpus = test_corpus(40);
    let encoding = ArrayConfig::paper_default().encoding;
    // Shard sizes spanning one-row shards, ragged last shards, and the
    // degenerate single-shard case (40 % 7 != 0 exercises the runt).
    for rows_per_shard in [1, 7, 16, 40] {
        let cfg = test_config(rows_per_shard);
        let service = ShardedService::new(&cfg, &corpus, None).expect("service");
        let queries = seeded_corpus(12, 16, 4, 97);
        for q in &queries {
            for k in [1, 3, 10, 40, 64] {
                let got = service.search_topk(q, k, GENEROUS).expect("search");
                assert!(!got.partial && !got.degraded, "healthy service");
                assert_eq!(got.shards_answered, service.map().shards());
                let want = brute_force_topk(&corpus, encoding, q, k).expect("brute force");
                assert_eq!(
                    got.neighbors, want,
                    "shard size {rows_per_shard}, k={k}: sharded top-k must be \
                     bit-identical to unsharded brute force"
                );
            }
        }
    }
}

#[test]
fn exact_queries_rank_their_own_row_first() {
    let corpus = test_corpus(30);
    let service = ShardedService::new(&test_config(8), &corpus, None).expect("service");
    for (row, stored) in corpus.iter().enumerate() {
        let got = service.search_topk(stored, 1, GENEROUS).expect("search");
        assert_eq!(got.neighbors[0].1, row, "row {row} must win its own query");
        assert_eq!(got.neighbors[0].0, 0, "exact match is distance zero");
    }
}

// ---------------------------------------------------------------------------
// Admission control and deadline edges
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_is_shed_whole_not_hung() {
    let corpus = test_corpus(20);
    let service = ShardedService::new(&test_config(10), &corpus, None).expect("service");
    let err = service
        .search_topk(&corpus[0], 3, Duration::ZERO)
        .expect_err("zero budget must be rejected");
    assert!(
        matches!(err, ServeError::Overloaded(ShedReason::DeadlineExpired)),
        "got {err:?}"
    );
}

#[test]
fn mid_scatter_expiry_returns_completed_shards_as_partial() {
    let corpus = test_corpus(20);
    let mut cfg = test_config(10);
    // The breaker must not trip during this test: one timeout is the
    // measurement, not the failure mode under test.
    cfg.shard_breaker_threshold = 100;
    let service = ShardedService::new(&cfg, &corpus, None).expect("service");
    // Shard 1 sleeps far longer than the whole budget, so the scatter
    // reaches it, burns out, and must still return shard 0's rows.
    service.inject_slow(1, Some(Duration::from_millis(80)));
    let got = service
        .search_topk(&corpus[0], 20, Duration::from_millis(15))
        .expect("partial answer, not an error");
    assert!(got.partial, "expiry mid-scatter must be flagged partial");
    assert_eq!(got.shards_answered, 1);
    // The completed slots are exactly shard 0's rows (global 0..10).
    assert!(got.neighbors.iter().all(|&(_, row)| row < 10));
    assert_eq!(got.neighbors[0], (0, 0), "row 0 still wins at distance 0");
}

#[test]
fn runtime_deadline_zero_budget_rejects_whole_batch_without_hanging() {
    // Satellite: DeadlinePolicy edge cases at the runtime layer.
    let array = ArrayConfig::paper_default().with_stages(8).with_rows(4);
    let corpus = seeded_corpus(4, 8, 4, 11);
    for policy in [
        DeadlinePolicy::WallClock(Duration::ZERO),
        DeadlinePolicy::QueryBudget(0),
    ] {
        let cfg = RuntimeConfig {
            deadline: policy,
            ..RuntimeConfig::default()
        };
        let mut engine =
            ResilientEngine::new(array, ResilienceConfig::default(), cfg).expect("engine");
        for (row, values) in corpus.iter().enumerate() {
            engine.store(row, values).expect("store");
        }
        let batch = BatchQuery::from_rows(&corpus).expect("batch");
        let outcome = engine.serve(&batch).expect("serve returns, not hangs");
        assert!(
            outcome
                .slots
                .iter()
                .all(|s| matches!(s, QueryOutcome::TimedOut)),
            "a zero budget must time out every slot explicitly ({policy:?})"
        );
        assert_eq!(outcome.answered(), 0);
    }
}

#[test]
fn runtime_mid_batch_expiry_keeps_completed_slots() {
    let array = ArrayConfig::paper_default().with_stages(8).with_rows(4);
    let corpus = seeded_corpus(4, 8, 4, 12);
    let cfg = RuntimeConfig {
        // Enough budget for exactly two of the four queries.
        deadline: DeadlinePolicy::QueryBudget(2),
        threads: Some(1),
        ..RuntimeConfig::default()
    };
    let mut engine = ResilientEngine::new(array, ResilienceConfig::default(), cfg).expect("engine");
    for (row, values) in corpus.iter().enumerate() {
        engine.store(row, values).expect("store");
    }
    let batch = BatchQuery::from_rows(&corpus).expect("batch");
    let outcome = engine.serve(&batch).expect("serve");
    assert_eq!(outcome.answered(), 2, "completed slots survive expiry");
    assert_eq!(
        outcome.timed_out(),
        2,
        "unstarted slots time out explicitly"
    );
    for (slot, result) in outcome.slots.iter().enumerate().take(2) {
        let metrics = result.ok().expect("first two slots answered");
        assert_eq!(metrics.best_row, Some(slot), "answers land in their slots");
    }
}

// ---------------------------------------------------------------------------
// Health-probe cadence: staggered across shards
// ---------------------------------------------------------------------------

fn health_checks(service: &ShardedService) -> Vec<usize> {
    service
        .shard_statuses()
        .iter()
        .map(|s| s.stats.health_checks)
        .collect()
}

#[test]
fn shard_health_probes_are_staggered_one_per_request_at_most() {
    let cfg = ServeConfig::paper_default();
    let interval = cfg.runtime.health_interval;
    assert_eq!(interval, 32);
    let levels = cfg.array.encoding.levels();
    let corpus = seeded_corpus(16 * cfg.rows_per_shard, cfg.array.stages, levels, 7);
    let service = ShardedService::new(&cfg, &corpus, None).expect("service");
    assert_eq!(service.map().shards(), 16);

    let start = health_checks(&service);
    let mut prev = start.clone();
    for r in 0..2 * interval {
        service
            .search_topk(&corpus[r % corpus.len()], 5, GENEROUS)
            .expect("search");
        let now = health_checks(&service);
        let probes: usize = now.iter().zip(&prev).map(|(n, p)| n - p).sum();
        assert!(probes <= 1, "request {r} carried {probes} shard probes");
        prev = now;
    }
    for (s, (end, begin)) in prev.iter().zip(&start).enumerate() {
        assert_eq!(end - begin, 2, "shard {s} probes twice in 64 requests");
    }
}

#[test]
fn promoted_standby_probes_on_its_first_batch() {
    let corpus = test_corpus(30);
    let dir = scratch_dir("standby-probe");
    let service = ShardedService::new(&test_config(10), &corpus, Some(&dir)).expect("service");
    let before = health_checks(&service)[1];
    service.inject_crash(1);
    service
        .search_topk(&corpus[0], 3, GENEROUS)
        .expect("search");
    assert!(!service.is_down(1), "standby promoted");
    // The promotion's known-answer batch is the standby's first, and it
    // runs the standby's health probe; the request itself runs none.
    assert_eq!(health_checks(&service)[1], before + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Failover: probe-gated standby promotion
// ---------------------------------------------------------------------------

#[test]
fn crashed_shard_fails_over_to_probed_standby() {
    let corpus = test_corpus(30);
    let dir = scratch_dir("failover");
    let cfg = test_config(10);
    let service = ShardedService::new(&cfg, &corpus, Some(&dir)).expect("service");
    let encoding = ArrayConfig::paper_default().encoding;

    service.inject_crash(1);
    assert!(service.is_down(1));
    // The very next request triggers failover; the probe-gated standby
    // restores full, bit-identical coverage.
    let got = service
        .search_topk(&corpus[15], 30, GENEROUS)
        .expect("search");
    assert!(!got.partial, "promoted standby restores full coverage");
    let want = brute_force_topk(&corpus, encoding, &corpus[15], 30).expect("brute force");
    assert_eq!(got.neighbors, want, "post-failover answers stay exact");
    assert!(!service.is_down(1));
    let stats = service.service_stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.probe_failures, 0);
    assert!(stats.restocks >= 1, "standby restocked after promotion");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_standby_is_not_promoted() {
    let corpus = test_corpus(30);
    let dir = scratch_dir("probe-gate");
    let service = ShardedService::new(&test_config(10), &corpus, Some(&dir)).expect("service");

    // Corrupt shard 1's live standby, then crash shard 1. The probes
    // must refuse the corrupt candidate; the *restocked* standby (from
    // the uncorrupted checkpoint generation) may then be promoted on a
    // later attempt — but never the corrupt one.
    service
        .inject_standby_fault(1, 3)
        .expect("standby fault injection");
    service.inject_crash(1);
    let got = service
        .search_topk(&corpus[0], 30, GENEROUS)
        .expect("search");
    let stats = service.service_stats();
    assert!(
        stats.probe_failures >= 1,
        "corrupt standby must flunk probes"
    );
    if got.partial {
        // Not yet failed over: shard 1's rows must be absent, not wrong.
        assert!(got
            .neighbors
            .iter()
            .all(|&(_, row)| !(10..20).contains(&row)));
    } else {
        // Promoted from a restock: answers must be exact.
        let encoding = ArrayConfig::paper_default().encoding;
        let want = brute_force_topk(&corpus, encoding, &corpus[0], 30).expect("brute force");
        assert_eq!(got.neighbors, want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_shard_without_standby_stays_down_and_partial() {
    let corpus = test_corpus(30);
    let service = ShardedService::new(&test_config(10), &corpus, None).expect("service");
    service.inject_crash(0);
    let got = service
        .search_topk(&corpus[25], 30, GENEROUS)
        .expect("search");
    assert!(got.partial, "no standby: the gap must be flagged");
    assert_eq!(got.shards_answered, 2);
    assert!(got.neighbors.iter().all(|&(_, row)| row >= 10));
    assert!(service.is_down(0), "nothing to promote");
}

#[test]
fn all_shards_down_is_unavailable_not_empty() {
    let corpus = test_corpus(20);
    let service = ShardedService::new(&test_config(10), &corpus, None).expect("service");
    service.inject_crash(0);
    service.inject_crash(1);
    let err = service
        .search_topk(&corpus[0], 3, GENEROUS)
        .expect_err("no shard can answer");
    assert!(matches!(err, ServeError::Unavailable), "got {err:?}");
}

// ---------------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------------

#[test]
fn tcp_round_trip_serves_exact_topk_stats_and_info() {
    let corpus = test_corpus(30);
    let cfg = test_config(10);
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let encoding = ArrayConfig::paper_default().encoding;

    let mut client = ServeClient::connect(front.addr()).expect("connect");
    let info = client.info().expect("info");
    assert_eq!(info.stages, 16);
    assert_eq!(info.rows, 30);
    assert_eq!(info.shards, 3);

    for q in &seeded_corpus(8, 16, 4, 5) {
        let got = client.query(q, 7, GENEROUS).expect("query");
        assert!(got.complete());
        let want = brute_force_topk(&corpus, encoding, q, 7).expect("brute force");
        assert_eq!(got.neighbors, want, "wire answers equal brute force");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.front.received, 8);
    assert_eq!(stats.front.answered, 8);
    assert_eq!(stats.service.requests, 8);
    assert_eq!(stats.service.complete, 8);
    assert_eq!(stats.shards.len(), 3);
    assert!(stats.shards.iter().all(|s| !s.down));
    // The stats endpoint surfaces per-shard engine runtime counters.
    assert!(stats.shards.iter().all(|s| s.stats.queries >= 8));
    assert!(stats.shards.iter().all(|s| s.stats.failed == 0));
    front.shutdown();
}

/// `k` arrives off the wire as a `u32`: the largest one asks for the
/// whole corpus, ranked. The merge must keep no more than it has seen —
/// a selector sized by `k` would ask for tens of GiB and abort the
/// server instead of answering.
#[test]
fn wire_query_with_max_k_ranks_the_whole_corpus() {
    let corpus = test_corpus(30);
    let cfg = test_config(10);
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let encoding = ArrayConfig::paper_default().encoding;
    let mut client = ServeClient::connect(front.addr()).expect("connect");
    for q in &seeded_corpus(3, 16, 4, 13) {
        let got = client.query(q, u32::MAX as usize, GENEROUS).expect("query");
        assert!(got.complete());
        let want = brute_force_topk(&corpus, encoding, q, usize::MAX).expect("brute force");
        assert_eq!(want.len(), corpus.len());
        assert_eq!(got.neighbors, want, "k = u32::MAX ranks every row");
    }
    front.shutdown();
}

/// With the corpus tier installed, a probed shard that is down is
/// answered from the tier's snapshot cache, and those answers merge
/// with the healthy shards' through the same selector. Every shard is
/// probed here, so the restriction is the whole corpus and the
/// degraded answer must equal brute force at every `k`.
#[test]
fn corpus_tier_merges_a_down_shards_rerank_into_the_degraded_answer() {
    let corpus = test_corpus(40);
    let encoding = ArrayConfig::paper_default().encoding;
    let mut service = ShardedService::new(&test_config(10), &corpus, None).expect("service");
    service
        .install_corpus_tier(service.map().shards(), 64 << 20)
        .expect("corpus tier");
    service.inject_crash(2);
    for q in &seeded_corpus(6, 16, 4, 29) {
        for k in [0, 1, 7, 40, usize::MAX] {
            let got = service.search_topk(q, k, GENEROUS).expect("search");
            assert!(got.degraded && !got.partial, "tier-served, never partial");
            assert_eq!(got.shards_answered, service.map().shards());
            let want = brute_force_topk(&corpus, encoding, q, k).expect("brute force");
            assert_eq!(got.neighbors, want, "k={k}: merged answer diverged");
        }
    }
    let tier = service.corpus_status().expect("tier installed");
    assert!(
        tier.stats.corpus_cache_misses > 0,
        "down shard was re-ranked"
    );
    assert!(service.is_down(2));
}

/// Sequential round trips must not wait out a delayed ACK (40 ms
/// minimum on Linux): a frame split over two writes, or a socket left
/// with Nagle on, puts that stall under every request or reply.
#[test]
fn loopback_round_trips_do_not_wait_for_delayed_acks() {
    let cfg = ServeConfig::paper_default();
    let levels = cfg.array.encoding.levels();
    let corpus = seeded_corpus(4 * cfg.rows_per_shard, cfg.array.stages, levels, 7);
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let mut client = ServeClient::connect(front.addr()).expect("connect");
    // Warm-up: the first request compiles every shard's snapshot.
    client.query(&corpus[0], 10, GENEROUS).expect("warm-up");

    let mut round_trips: Vec<Duration> = corpus
        .iter()
        .step_by(8)
        .take(32)
        .map(|q| {
            let start = std::time::Instant::now();
            let got = client.query(q, 10, GENEROUS).expect("query");
            let elapsed = start.elapsed();
            assert!(got.complete());
            elapsed
        })
        .collect();
    front.shutdown();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?} over {} queries: a delayed-ACK stall is back",
        round_trips.len()
    );
}

#[test]
fn malformed_query_over_tcp_is_an_error_reply_not_a_hang() {
    let corpus = test_corpus(20);
    let cfg = test_config(10);
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let mut client = ServeClient::connect(front.addr()).expect("connect");
    // Wrong width: 4 elements against a 16-stage corpus.
    let err = client
        .query(&[0, 1, 2, 3], 3, GENEROUS)
        .expect_err("shape mismatch must be rejected");
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");
    // The connection survives: a good query still works.
    let ok = client.query(&corpus[0], 1, GENEROUS).expect("query");
    assert_eq!(ok.neighbors[0], (0, 0));
    front.shutdown();
}

#[test]
fn overload_sheds_explicitly_with_queue_full_or_deadline() {
    let corpus = test_corpus(20);
    let mut cfg = test_config(10);
    // One worker, one queue slot, and a slow shard: concurrent clients
    // must overflow admission and surface *explicit* sheds.
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.shard_breaker_threshold = 1_000_000; // keep shards in rotation
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    service.inject_slow(0, Some(Duration::from_millis(20)));
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
    let addr = front.addr();

    let sheds: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut sheds = 0usize;
                    for q in &seeded_corpus(4, 16, 4, 3) {
                        match client.query(q, 3, Duration::from_millis(40)) {
                            Ok(_) => {}
                            Err(ServeError::Overloaded(_)) => sheds += 1,
                            Err(e) => panic!("only explicit sheds allowed, got {e:?}"),
                        }
                    }
                    sheds
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    assert!(sheds > 0, "overload must shed explicitly");
    let front_stats = front.front_stats();
    assert_eq!(
        front_stats.shed_queue + front_stats.shed_deadline,
        sheds,
        "every client-observed shed is accounted at the front-end"
    );
    front.shutdown();
}
