//! Deterministic full-system simulation: seed-replayable chaos
//! campaigns over the whole deployment (sharded serving, durable track,
//! device aging) on virtual time.
//!
//! Everything here is seed-pure: a failing seed replays bit-identically
//! with `tdam-sim simulate --seed N`, and the shrinker reduces its fault
//! schedule to a minimal reproducer before it is reported.

use tdam::clock::{Clock, SimClock};
use tdam::resilience::{ResilienceConfig, ResilientArray};
use tdam::runtime::QueryOutcome;
use tdam::sim::{
    generate_schedule, run_sim_campaign, run_with_schedule, simulate, FaultEvent, FaultSchedule,
    SimConfig,
};
use tdam::store::{decode_checkpoint, encode_checkpoint};
use tdam::{ArrayConfig, BatchQuery, ResilientEngine, RuntimeConfig};
use tdam_fefet::retention::{Lifetime, RetentionParams};

use std::time::Duration;

/// The retention curve used to drive an array into the heal band:
/// window fraction 0.70, past the margin-monitor tolerance but short of
/// an outer-level decode flip (window 2/3).
fn heal_band_lifetime() -> Lifetime {
    Lifetime {
        seconds: 1e10,
        retention: RetentionParams {
            loss_per_decade: 0.03,
            t0: 1.0,
        },
        ..Lifetime::fresh()
    }
}

/// An 8-row, 8-stage resilient array holding a ramp corpus.
fn ramp_array() -> ResilientArray {
    let cfg = ArrayConfig::paper_default().with_stages(8).with_rows(8);
    let mut ra = ResilientArray::new(cfg, ResilienceConfig::default()).unwrap();
    for r in 0..8 {
        let v: Vec<u8> = (0..8).map(|j| ((j + r) % 4) as u8).collect();
        ra.store(r, &v).unwrap();
    }
    ra
}

/// The flagship campaign: 1000 independently seeded worlds, each
/// composing network faults, admission bursts, live mutations, shard
/// crashes, slow shards, device aging, deep margin drift, stuck cells,
/// worker panics, disk faults, and durable-track power losses — with
/// every complete answer judged
/// against a brute-force replay of the shadow corpus. Zero silent wrong
/// answers tolerated.
#[test]
fn campaign_1000_worlds_zero_silent_wrong_answers() {
    let report = run_sim_campaign(&SimConfig::quick(0), 0xC0FFEE, 1000).expect("campaign runs");
    assert!(
        report.failing_seeds.is_empty(),
        "failing seeds: {:?}",
        report.failing_seeds
    );
    // The campaign must actually compose the fault classes it claims to
    // (a counter stuck at zero means a whole family silently went dark).
    assert!(report.judged > 10_000, "judged: {}", report.judged);
    assert!(report.transport_errors > 0, "no transport faults landed");
    assert!(report.protocol_errors > 0, "no protocol faults landed");
    assert!(report.shed > 0, "no admission sheds");
    assert!(report.mutations > 0, "no live mutations");
    assert!(report.shard_crashes > 0, "no shard crashes");
    assert!(report.failovers > 0, "no standby failovers");
    assert!(report.ages > 0, "no aging events");
    assert!(report.drifts > 0, "no deep-drift events");
    assert!(report.scrub_heals > 0, "no scrub heals");
    assert!(report.durable_crashes > 0, "no durable power losses");
    assert!(report.cell_faults > 0, "no stuck cells");
    assert!(report.panics_armed > 0, "no worker panics armed");
}

/// A world over three 16-row, 32-stage shards, each shard's physical
/// array 16 data + 4 spare + 2 reference rows.
fn wide_world(seed: u64, steps: usize) -> SimConfig {
    SimConfig {
        steps,
        rows: 48,
        stages: 32,
        rows_per_shard: 16,
        durable_rows: 8,
        ..SimConfig::quick(seed)
    }
}

/// Stuck cells and worker panics, the device's and the runtime's own
/// failure modes: about 1% of every shard's physical cells stick (at
/// match or at mismatch) one at a time across the run, and every shard
/// engine panics on 2% of slot attempts. The shard health probes must
/// flag every answer a stuck cell could bend, and panics must be
/// isolated and retried, so at least 99% of requests are answered,
/// complete or flagged, with zero silent wrong answers.
#[test]
fn stuck_cells_and_worker_panics_keep_answers_available_and_flagged() {
    let cfg = wide_world(0xC4A0_2024, 240);
    let mut events: Vec<(usize, FaultEvent)> = (0..3)
        .map(|shard| (0, FaultEvent::Panics { shard, percent: 2 }))
        .collect();
    // 7 of each shard's 704 physical cells, drip-fed every 8 steps
    // after 40 steps of panics alone.
    let mut h = cfg.seed;
    for i in 0..21 {
        h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        events.push((
            40 + i * 8,
            FaultEvent::CellFault {
                shard: i % 3,
                row: (h >> 33) as usize,
                stage: (h >> 13) as usize,
                stuck_match: h & (1 << 40) != 0,
            },
        ));
    }
    let report = run_with_schedule(&cfg, &FaultSchedule { events }).expect("world runs");
    assert!(
        report.failures.is_empty(),
        "failures: {:?}",
        report.failures
    );
    assert_eq!(report.cell_faults, 21);
    assert_eq!(report.panics_armed, 3);
    let answered = report.complete + report.partial + report.degraded;
    assert!(
        answered * 100 >= report.requests * 99,
        "answered {answered} of {} requests: {report:?}",
        report.requests
    );
    assert!(
        report.degraded > 0,
        "no stuck cell was ever flagged: {report:?}"
    );
    assert!(report.judged >= 40, "too little was judged: {report:?}");
}

/// A write-heavy world: one 16-row, 32-stage shard takes 200 live
/// mutations over 400 requests under the aggressive wear policy, with
/// worker panics on 2% of slot attempts. Rows rotate onto spares and
/// half-select disturb forces refresh rewrites, and every answer must
/// still come back complete and bit-exact.
#[test]
fn write_heavy_world_rotates_refreshes_and_answers_exactly() {
    for seed in [0x4D55_5441u64, 7, 99] {
        let cfg = SimConfig {
            steps: 400,
            rows: 16,
            stages: 32,
            rows_per_shard: 16,
            durable_rows: 8,
            ..SimConfig::quick(seed)
        };
        let mut events = vec![(
            0,
            FaultEvent::Panics {
                shard: 0,
                percent: 2,
            },
        )];
        events.extend((0..200).map(|i| (2 * i, FaultEvent::Mutate)));
        let report = run_with_schedule(&cfg, &FaultSchedule { events }).expect("world runs");
        assert!(
            report.failures.is_empty(),
            "failures: {:?}",
            report.failures
        );
        assert_eq!(report.mutations, 200);
        assert_eq!(report.requests, 400);
        assert_eq!(report.complete, 400, "seed {seed}: {report:?}");
        assert_eq!(report.judged, 400, "seed {seed}: {report:?}");
        assert!(report.wear_rotations > 0, "seed {seed}: {report:?}");
        assert!(report.refresh_rewrites > 0, "seed {seed}: {report:?}");
    }
}

/// A shard that serves slower than the request deadline, with no crash
/// anywhere, must still trip its breaker and fail over to its probed
/// standby; the answers in between come back flagged partial.
#[test]
fn slow_shard_alone_drives_a_failover() {
    let cfg = wide_world(0x51_0E, 24);
    let events = vec![(
        2,
        FaultEvent::SlowShard {
            shard: 2,
            millis: 40,
        },
    )];
    let report = run_with_schedule(&cfg, &FaultSchedule { events }).expect("world runs");
    assert!(
        report.failures.is_empty(),
        "failures: {:?}",
        report.failures
    );
    assert_eq!(report.shard_crashes, 0);
    assert!(report.failovers >= 1, "no failover: {report:?}");
    assert!(
        report.partial > 0,
        "slow answers were not flagged: {report:?}"
    );
    assert!(report.judged > 0, "nothing was judged: {report:?}");
}

/// The same seed must produce the bit-identical report twice: the world
/// is a pure function of `(config, schedule)`, with no real time, real
/// disk, or real scheduler anywhere on the simulated path.
#[test]
fn same_seed_replays_bit_identically() {
    for seed in [1u64, 42, 0xDEAD_BEEF, 9_876_543_210] {
        let cfg = SimConfig::quick(seed);
        let schedule = generate_schedule(&cfg);
        let a = run_with_schedule(&cfg, &schedule).expect("first run");
        let b = run_with_schedule(&cfg, &schedule).expect("second run");
        assert_eq!(a, b, "seed {seed} diverged between replays");
    }
}

/// Schedule generation is itself seed-pure.
#[test]
fn schedule_generation_is_deterministic() {
    let cfg = SimConfig::paper_default(77);
    assert_eq!(generate_schedule(&cfg), generate_schedule(&cfg));
}

/// Sabotage self-test: a deliberately corrupted answer must be caught
/// by the judge, replay consistently, and shrink to a minimal schedule.
/// This validates the failure pipeline end to end — if the harness
/// cannot catch its own injected lie, its green campaigns mean nothing.
#[test]
fn sabotage_is_caught_replayed_and_shrunk() {
    let mut cfg = SimConfig::quick(7);
    cfg.sabotage = true;
    let outcome = simulate(&cfg).expect("world runs");
    let failure = outcome.failure.expect("sabotage must be caught");
    assert!(
        failure.first_failure.what.contains("silent wrong answer"),
        "unexpected failure kind: {}",
        failure.first_failure.what
    );
    assert!(
        failure.replay_consistent,
        "failing seed must replay bit-identically"
    );
    assert!(
        failure.original_events >= 4,
        "want a non-trivial schedule to shrink, got {} events",
        failure.original_events
    );
    assert!(
        failure.minimized.events.len() * 4 <= failure.original_events,
        "shrink too weak: {} of {} events survived",
        failure.minimized.events.len(),
        failure.original_events
    );
    // The artifact must be directly actionable: seed + schedule text.
    assert_eq!(failure.seed, cfg.seed);
    assert!(!failure.minimized.describe().is_empty());
}

/// Background retention scrub on virtual time: age an engine into the
/// heal band, advance the sim clock past the scrub interval, and the
/// next serve must heal the margin-drifted rows — while still answering
/// the stored-row query exactly (the scrub fires *before* a decode
/// flips, that is its entire point).
#[test]
fn scrub_heals_margin_drifted_rows_on_virtual_time() {
    let clock = SimClock::new();
    let rcfg = RuntimeConfig {
        scrub_interval: Some(Duration::from_millis(5)),
        ..RuntimeConfig::default()
    };
    let mut engine = ResilientEngine::wrap(ramp_array(), rcfg).with_clock(Clock::sim(&clock));

    let query: Vec<u8> = (0..8).map(|j| ((j + 2) % 4) as u8).collect();
    let mut batch = BatchQuery::new(8);
    batch.push(&query).unwrap();

    // First serve arms the scrub timer and must answer exactly.
    let out = engine.serve(&batch).expect("fresh serve");
    let QueryOutcome::Ok(m) = &out.slots[0] else {
        panic!("fresh slot failed: {:?}", out.slots[0]);
    };
    assert_eq!(m.distances.iter().flatten().min(), Some(&0));
    assert_eq!(engine.stats().scrub_heals, 0);

    // Retention bake into the heal band, then let the scrub come due.
    engine.array_mut().age(&heal_band_lifetime()).expect("age");
    clock.advance(Duration::from_millis(10));

    let out = engine.serve(&batch).expect("aged serve");
    let QueryOutcome::Ok(m) = &out.slots[0] else {
        panic!("aged slot failed: {:?}", out.slots[0]);
    };
    assert_eq!(
        m.distances.iter().flatten().min(),
        Some(&0),
        "stored-row query must still answer exactly after the heal scrub"
    );
    let stats = engine.stats();
    assert!(stats.scrub_ticks >= 1, "scrub never ticked");
    assert!(stats.scrub_probes > 0, "scrub probed nothing");
    assert!(
        stats.scrub_heals > 0,
        "aging to window 0.70 must trip the margin monitors and heal"
    );
}

/// Aged-state durability: a checkpoint taken *after* retention drift
/// must round-trip the drifted V_TH bit-exactly through the framed
/// checkpoint codec, and the restored engine's margin monitors must
/// still flag the drift — a warm start is not allowed to launder an
/// aged array into a healthy-looking one.
#[test]
fn aged_checkpoint_restores_vth_bit_exact_and_monitors_still_flag() {
    let mut engine = ResilientEngine::wrap(ramp_array(), RuntimeConfig::default());
    engine.array_mut().age(&heal_band_lifetime()).expect("age");

    let state = engine.checkpoint();
    let bytes = encode_checkpoint(&state);
    let decoded = decode_checkpoint(&bytes).expect("codec round-trip");
    let mut restored =
        ResilientEngine::restore(&decoded, RuntimeConfig::default()).expect("warm start");

    let after = restored.checkpoint();
    assert_eq!(state.rows.len(), after.rows.len());
    for (r, (a, b)) in state.rows.iter().zip(after.rows.iter()).enumerate() {
        assert_eq!(a.values, b.values, "row {r} levels changed across restore");
        assert_eq!(a.vth.len(), b.vth.len());
        for (s, (va, vb)) in a.vth.iter().zip(b.vth.iter()).enumerate() {
            assert_eq!(
                (va.0.to_bits(), va.1.to_bits()),
                (vb.0.to_bits(), vb.1.to_bits()),
                "row {r} stage {s}: aged V_TH not bit-exact across restore ({va:?} vs {vb:?})"
            );
        }
    }

    // The restored array still carries the drift; a margin scrub on the
    // warm-started engine must find and heal rows, same as on the
    // original.
    let report = restored.array_mut().scrub_margins().expect("scrub");
    assert!(report.probed > 0);
    assert!(
        !report.healed.is_empty(),
        "margin monitors went blind after warm start"
    );
    assert_eq!(
        report.failed, 0,
        "drift must not have crossed a decode flip"
    );
}

/// The corpus side-track (`--corpus-rows`): every step runs one
/// pre-filtered two-tier search judged against brute force restricted
/// to the probed shards, and live mutations churn the tier (snapshot
/// invalidation + shard growth past packed capacity). The judge is the
/// ISSUE contract — the exact re-rank must stay bit-identical under
/// cache eviction, page-in, and mutation.
#[test]
fn corpus_track_campaign_judges_restricted_rerank_exactly() {
    let mut cfg = SimConfig::quick(3);
    cfg.corpus_rows = 48;
    let report = run_sim_campaign(&cfg, 0xBEEF, 50).expect("campaign runs");
    assert!(
        report.failing_seeds.is_empty(),
        "failing seeds: {:?}",
        report.failing_seeds
    );
    assert!(
        report.corpus_judged >= 50 * 16,
        "corpus judge went dark: {}",
        report.corpus_judged
    );
    assert!(report.corpus_mutations > 0, "no corpus mutations landed");
    // The budget holds fewer snapshots than the track has shards, so
    // the judge also covers the evict and re-page-in path.
    assert!(
        report.corpus_evictions >= report.corpus_judged / 4,
        "corpus cache stopped evicting: {} evictions over {} queries",
        report.corpus_evictions,
        report.corpus_judged
    );
    // With the side-track disabled, its counters must stay at zero.
    cfg.corpus_rows = 0;
    let off = run_sim_campaign(&cfg, 0xBEEF, 2).expect("campaign runs");
    assert_eq!(off.corpus_judged, 0);
    assert_eq!(off.corpus_mutations, 0);
    assert_eq!(off.corpus_evictions, 0);
}

/// Corpus-enabled worlds replay bit-identically too: the side-track's
/// build, queries, and mutations are all pure in `(seed, step)`.
#[test]
fn corpus_track_replays_bit_identically() {
    let mut cfg = SimConfig::quick(11);
    cfg.corpus_rows = 48;
    let schedule = generate_schedule(&cfg);
    let a = run_with_schedule(&cfg, &schedule).expect("first run");
    assert!(!a.failed(), "failures: {:?}", a.failures);
    assert!(a.corpus_judged >= cfg.steps, "judged: {}", a.corpus_judged);
    let b = run_with_schedule(&cfg, &schedule).expect("second run");
    assert_eq!(a, b);
}

/// A bigger world than the campaign's: the paper-default geometry with
/// a dense schedule, run twice for determinism and judged throughout.
#[test]
fn paper_default_world_is_clean_and_deterministic() {
    let cfg = SimConfig::paper_default(0x5EED);
    let schedule = generate_schedule(&cfg);
    let a = run_with_schedule(&cfg, &schedule).expect("first run");
    assert!(!a.failed(), "failures: {:?}", a.failures);
    assert!(a.requests >= cfg.steps);
    let b = run_with_schedule(&cfg, &schedule).expect("second run");
    assert_eq!(a, b);
}
