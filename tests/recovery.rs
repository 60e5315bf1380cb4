//! Durable-state acceptance suite for [`fetdam::tdam::store`]: a clean
//! checkpoint → restore → `search_batch` must be bit-identical to the
//! pre-restart engine; journaled post-checkpoint mutations must replay
//! after a simulated crash; aged arrays must round-trip their decode
//! exactly; a restore must invalidate stale compiled snapshots; damaged
//! files must be detected and recovery must fall back to the last good
//! generation; and the full seeded crash-injection campaign (≥ 1000
//! scenarios) must report zero silent corruptions.

use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::engine::BatchQuery;
use fetdam::tdam::faults::FaultKind;
use fetdam::tdam::resilience::ResilienceConfig;
use fetdam::tdam::runtime::{BackendKind, ResilientEngine, RetryConfig, RuntimeConfig};
use fetdam::tdam::store::{
    run_crash_chaos, CheckpointStore, CrashChaosConfig, DurableEngine, StoreError,
};
use fetdam::tdam::TdamError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use tdam_fefet::retention::Lifetime;

const STAGES: usize = 12;
const DATA_ROWS: usize = 6;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("recovery-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        retry: RetryConfig {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        },
        ..RuntimeConfig::default()
    }
}

/// A populated engine plus the rows it stores, both derived from `seed`.
fn seeded_engine(seed: u64) -> (ResilientEngine, Vec<Vec<u8>>) {
    let cfg = ArrayConfig::paper_default()
        .with_stages(STAGES)
        .with_rows(DATA_ROWS);
    let levels = cfg.encoding.levels() as usize;
    let resilience = ResilienceConfig {
        spare_rows: 2,
        reference_rows: 2,
        ..Default::default()
    };
    let mut engine = ResilientEngine::new(cfg, resilience, runtime_config()).expect("engine");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stored = Vec::new();
    for row in 0..DATA_ROWS {
        let values: Vec<u8> = (0..STAGES)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        engine.store(row, &values).expect("store");
        stored.push(values);
    }
    (engine, stored)
}

/// A near-match query batch: one query per stored row, each one element
/// off, so best-row resolution is non-trivial but deterministic.
fn near_match_batch(stored: &[Vec<u8>]) -> BatchQuery {
    let mut batch = BatchQuery::new(STAGES);
    for values in stored {
        let mut q = values.clone();
        q[0] ^= 1;
        batch.push(&q).expect("push");
    }
    batch
}

#[test]
fn clean_checkpoint_restore_is_bit_identical() {
    let dir = scratch("clean");
    let (engine, stored) = seeded_engine(0xAB5E);
    let batch = near_match_batch(&stored);

    let store = CheckpointStore::open(&dir).expect("open");
    let mut durable = DurableEngine::new(store, engine).expect("durable");
    let before = durable.serve(&batch).expect("serve live");
    durable.checkpoint().expect("checkpoint");
    drop(durable);

    let (mut recovered, report) = DurableEngine::recover(&dir, runtime_config()).expect("recover");
    assert!(!report.corruption_detected);
    assert!(!report.fell_back);
    assert_eq!(report.ops_replayed, 0);
    let after = recovered.serve(&batch).expect("serve recovered");

    // The acceptance pin: slot-for-slot identical answers.
    assert_eq!(before.slots, after.slots);
    // The warm start revalidated through the known-answer probes and
    // promoted back to packed-kernel serving.
    assert_eq!(recovered.engine().backend(), BackendKind::Packed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_mutations_survive_a_crash() {
    let dir_crash = scratch("wal-crash");
    let dir_flush = scratch("wal-flush");
    let mutate = |durable: &mut DurableEngine| {
        durable.store(0, &[3; STAGES]).expect("store");
        durable
            .inject(1, STAGES / 2, FaultKind::StuckMismatch)
            .expect("inject");
        durable.repair_now().expect("repair");
    };

    // Reference: same mutations, properly checkpointed before "restart".
    let (engine, stored) = seeded_engine(0xC8A5);
    let store = CheckpointStore::open(&dir_flush).expect("open");
    let mut flushed = DurableEngine::new(store, engine).expect("durable");
    mutate(&mut flushed);
    flushed.checkpoint().expect("checkpoint");
    drop(flushed);

    // Crashed: identical mutations live only in the write-ahead journal.
    let (engine, _) = seeded_engine(0xC8A5);
    let store = CheckpointStore::open(&dir_crash).expect("open");
    let mut crashed = DurableEngine::new(store, engine).expect("durable");
    mutate(&mut crashed);
    drop(crashed); // no checkpoint: simulated kill

    let (mut a, report_a) = DurableEngine::recover(&dir_flush, runtime_config()).expect("flush");
    let (mut b, report_b) = DurableEngine::recover(&dir_crash, runtime_config()).expect("crash");
    assert_eq!(report_a.ops_replayed, 0);
    assert_eq!(report_b.ops_replayed, 3);
    assert_eq!(report_b.ops_skipped, 0);

    let batch = near_match_batch(&stored);
    let out_a = a.serve(&batch).expect("serve flushed");
    let out_b = b.serve(&batch).expect("serve crashed");
    assert_eq!(out_a.slots, out_b.slots);
    std::fs::remove_dir_all(&dir_crash).ok();
    std::fs::remove_dir_all(&dir_flush).ok();
}

#[test]
fn aged_array_roundtrips_decode_bit_identically() {
    let dir = scratch("aged");
    let (engine, stored) = seeded_engine(0xA6ED);
    let store = CheckpointStore::open(&dir).expect("open");
    let mut durable = DurableEngine::new(store, engine).expect("durable");

    // Age the deployment (journaled), then checkpoint the aged state.
    let mut lifetime = Lifetime::fresh();
    lifetime.cycles = 1e8;
    lifetime.seconds = 3.15e8; // ten years of retention decay
    durable.age(&lifetime).expect("age");
    durable.checkpoint().expect("checkpoint");

    let aged_rows: Vec<Vec<u8>> = (0..DATA_ROWS)
        .map(|r| {
            let phys = durable.engine().array().physical_row(r).expect("row");
            durable
                .engine()
                .array()
                .array()
                .stored(phys)
                .expect("decode")
        })
        .collect();
    let before = durable
        .serve(&near_match_batch(&stored))
        .expect("serve aged");
    drop(durable);

    let (mut recovered, _) = DurableEngine::recover(&dir, runtime_config()).expect("recover");
    for (r, expected) in aged_rows.iter().enumerate() {
        let phys = recovered.engine().array().physical_row(r).expect("row");
        let decoded = recovered
            .engine()
            .array()
            .array()
            .stored(phys)
            .expect("decode");
        assert_eq!(&decoded, expected, "aged decode of row {r} changed");
    }
    let after = recovered
        .serve(&near_match_batch(&stored))
        .expect("serve recovered");
    assert_eq!(before.slots, after.slots);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_invalidates_stale_compiled_snapshots() {
    let (engine, stored) = seeded_engine(0x57A1);
    let snapshot = engine.array().array().compile_snapshot();
    assert!(snapshot.is_fresh(engine.array().array()));

    let state = engine.checkpoint();
    let restored = ResilientEngine::restore(&state, runtime_config()).expect("restore");

    // The restore bumped the generation counter past the snapshot's.
    assert!(!snapshot.is_fresh(restored.array().array()));
    assert!(matches!(
        snapshot.search_packed(restored.array().array(), &stored[0]),
        Err(TdamError::StaleCompile { .. })
    ));
}

#[test]
fn damaged_generation_is_detected_quarantined_and_skipped() {
    let dir = scratch("damage");
    let (engine, stored) = seeded_engine(0xDA4A);
    let batch = near_match_batch(&stored);
    let store = CheckpointStore::open(&dir).expect("open");
    let mut durable = DurableEngine::new(store, engine).expect("durable");
    let before = durable.serve(&batch).expect("serve");
    durable.checkpoint().expect("checkpoint 2");
    drop(durable);

    // Flip one bit in the newest checkpoint's payload.
    let newest = dir.join("ckpt-00000002.tdam");
    let mut bytes = std::fs::read(&newest).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&newest, &bytes).expect("damage");

    let (mut recovered, report) = DurableEngine::recover(&dir, runtime_config()).expect("recover");
    assert!(report.corruption_detected);
    assert!(report.fell_back);
    assert_eq!(report.generation, 1);
    assert!(dir.join("ckpt-00000002.tdam.quarantined").exists());
    // Generation 1 + its journal reproduce the same serving state.
    let after = recovered.serve(&batch).expect("serve recovered");
    assert_eq!(before.slots, after.slots);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_without_checkpoints_is_refused() {
    let dir = scratch("none");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert!(matches!(
        DurableEngine::recover(&dir, runtime_config()),
        Err(StoreError::NoCheckpoint)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_crash_campaign_reports_zero_silent_corruptions() {
    let dir = scratch("campaign");
    let report = run_crash_chaos(&CrashChaosConfig::paper_default(), &dir).expect("campaign");
    assert!(
        report.scenarios >= 1000,
        "acceptance requires >= 1000 scenarios, got {}",
        report.scenarios
    );
    assert_eq!(report.silent_corruptions, 0, "{report:?}");
    assert_eq!(report.failed_recoveries, 0, "{report:?}");
    assert_eq!(report.false_alarms, 0, "{report:?}");
    assert!(report.detected > 0, "{report:?}");
    assert!(report.fallbacks > 0, "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}
