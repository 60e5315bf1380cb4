//! Acceptance suite for the fault-tolerant serving runtime
//! ([`tdam::runtime`]): under injected worker panics and stuck cells the
//! served outcomes do not depend on the thread count, deadline budgets
//! return partial results in the right slots, and — on a healthy
//! backend — answers are bit-identical to the bare engine. Availability
//! and answer correctness under the same faults are judged by the
//! deterministic simulation (`crates/tdam/tests/sim.rs`).

use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::engine::BatchQuery;
use fetdam::tdam::faults::FaultKind;
use fetdam::tdam::resilience::{ResilienceConfig, ResilientArray};
use fetdam::tdam::runtime::{
    BackendKind, ChaosInjection, DeadlinePolicy, QueryOutcome, ResilientEngine, RetryConfig,
    RuntimeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Silences the default panic hook for the duration of a closure, so the
/// runtime's *caught* injected panics don't spray backtraces over the
/// test output. Returns the closure's value.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    let _ = std::panic::take_hook();
    out
}

/// A populated runtime engine plus the ground-truth rows it stores.
fn seeded_engine(
    rows: usize,
    stages: usize,
    cfg: RuntimeConfig,
    seed: u64,
) -> (ResilientEngine, Vec<Vec<u8>>) {
    let array = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_rows(rows);
    let resilience = ResilienceConfig {
        spare_rows: 4,
        ..ResilienceConfig::default()
    };
    let mut engine = ResilientEngine::new(array, resilience, cfg).expect("engine");
    let levels = ArrayConfig::paper_default().encoding.levels();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(rows);
    for row in 0..rows {
        let values: Vec<u8> = (0..stages).map(|_| rng.gen_range(0..levels)).collect();
        engine.store(row, &values).expect("store");
        data.push(values);
    }
    (engine, data)
}

/// The one serving claim the single-threaded simulation cannot pin:
/// under injected worker panics and stuck cells, the slot fan-out's
/// thread count is part of the schedule, never of the result.
#[test]
fn panic_injected_serving_is_thread_count_invariant() {
    let serve_all = |threads: usize| {
        let cfg = RuntimeConfig {
            threads: Some(threads),
            retry: RetryConfig {
                max_retries: 3,
                backoff: Duration::ZERO,
                backoff_cap: Duration::ZERO,
            },
            ..RuntimeConfig::default()
        };
        let (engine, data) = seeded_engine(16, 32, cfg, 0xC4A0);
        let mut engine = engine.with_chaos(ChaosInjection {
            seed: 0x51A5,
            panic_rate: 0.05,
        });
        let mut rng = StdRng::seed_from_u64(0xFA17);
        let mut outcomes = Vec::new();
        for round in 0..8 {
            // A stuck cell lands before every other batch, on data,
            // spare, and reference rows alike (16 + 4 + 2 physical).
            if round % 2 == 0 {
                let kind = if rng.gen_bool(0.5) {
                    FaultKind::StuckMatch
                } else {
                    FaultKind::StuckMismatch
                };
                let (row, stage) = (rng.gen_range(0..22), rng.gen_range(0..32));
                engine.array_mut().inject(row, stage, kind).expect("inject");
            }
            let mut batch = BatchQuery::new(32);
            for _ in 0..24 {
                batch
                    .push(&data[rng.gen_range(0..data.len())])
                    .expect("push");
            }
            outcomes.push(engine.serve(&batch).expect("serve"));
        }
        (outcomes, *engine.stats())
    };
    let (single, single_stats) = quiet_panics(|| serve_all(1));
    let (threaded, threaded_stats) = quiet_panics(|| serve_all(3));
    assert_eq!(single, threaded, "thread count changed an outcome");
    assert_eq!(single_stats, threaded_stats);
    // Not a vacuous pass: panics were retried and the faults repaired.
    assert!(single_stats.retries > 0, "{single_stats:?}");
    assert!(single_stats.repairs > 0, "{single_stats:?}");
}

#[test]
fn deadline_expiry_returns_partial_results_in_the_right_slots() {
    let budget = 5;
    let cfg = RuntimeConfig {
        deadline: DeadlinePolicy::QueryBudget(budget),
        ..RuntimeConfig::default()
    };
    let (mut engine, data) = seeded_engine(8, 16, cfg, 0x0DD5);
    let batch = BatchQuery::from_rows(&data).expect("batch");
    let outcome = engine.serve(&batch).expect("serve");
    assert_eq!(outcome.slots.len(), data.len());
    for (slot, outcome) in outcome.slots.iter().enumerate() {
        match outcome {
            QueryOutcome::Ok(m) if slot < budget => {
                // Exact-match queries in slot order: slot i's best row is i.
                assert_eq!(m.best_row, Some(slot), "answered slot {slot}");
            }
            QueryOutcome::TimedOut if slot >= budget => {}
            other => panic!("slot {slot}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(outcome.answered(), budget);
    assert_eq!(outcome.timed_out(), data.len() - budget);
}

#[test]
fn healthy_runtime_is_bit_identical_to_the_bare_engine() {
    let (mut engine, data) = seeded_engine(6, 24, RuntimeConfig::default(), 0xB17);

    // The bare reference: the same resilient array, searched directly.
    let array = ArrayConfig::paper_default().with_stages(24).with_rows(6);
    let mut bare = ResilientArray::new(
        array,
        ResilienceConfig {
            spare_rows: 4,
            ..ResilienceConfig::default()
        },
    )
    .expect("bare array");
    for (row, values) in data.iter().enumerate() {
        bare.store(row, values).expect("store");
    }

    let mut rng = StdRng::seed_from_u64(0x9001);
    let mut batch = BatchQuery::new(24);
    let levels = ArrayConfig::paper_default().encoding.levels();
    for _ in 0..12 {
        let q: Vec<u8> = (0..24).map(|_| rng.gen_range(0..levels)).collect();
        batch.push(&q).expect("push");
    }

    let outcome = engine.serve(&batch).expect("serve");
    assert_eq!(outcome.backend, BackendKind::Packed);
    assert_eq!(outcome.availability(), 1.0);
    for (i, slot) in outcome.slots.iter().enumerate() {
        let served = slot.ok().expect("answered");
        let reference = bare.search(batch.get(i)).expect("bare search").metrics();
        assert_eq!(served, &reference, "slot {i} diverged from the bare engine");
    }
}
