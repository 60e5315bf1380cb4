//! The batched runtime path, timed layer by layer in `serve_tcp`'s
//! traced run: a paper-scale 128x128 2-bit `ResilientEngine` under the
//! runtime configuration serve deploys (`health_interval: 32`, one
//! batch thread), serving 64-query batches, with a round of `store()`
//! calls every few batches (incremental repack and epoch swap on the
//! next serve). Sampled answers are checked against `Encoding::hamming`
//! brute force.
//!
//! It is not an end-to-end workload of its own: its sub-millisecond
//! batches followed the host's speed too closely for a steady `p50_us`
//! (see the benchmark's README).

use std::time::Instant;

use tdam::config::ArrayConfig;
use tdam::engine::BatchQuery;
use tdam::runtime::{QueryOutcome, ResilientEngine, RuntimeStats};
use tdam::serve::ServeConfig;

use crate::check::array_answer;
use crate::gen::Rng;
use crate::measure::{median, Trace};
use crate::Outcome;

const ROWS: usize = 128;
const STAGES: usize = 128;
/// Queries per batch.
const BATCH: usize = 64;
/// Batches served with writes interleaved, for the runtime's counters
/// and store times: 16 health-probe intervals.
const SERVED: u64 = 512;
/// Every this many batches, `STORES` rows are rewritten (the next
/// serve repacks them and swaps the epoch).
const STORE_EVERY: u64 = 8;
const STORES: usize = 4;
/// Distinct query batches, cycled.
const POOL: usize = 61;
/// Batches timed per layer call.
const LAYER_BATCHES: usize = 200;
/// `ResilientArray::check` calls timed.
const CHECKS: usize = 10;

fn per_1k(n: usize, batches: u64) -> f64 {
    n as f64 * 1000.0 / batches as f64
}

/// Times the runtime, array, parallel and resilience layers on the
/// 128x128 engine, adding their metrics to `out` and their spans to
/// `trace`. Returns the queries and writes attempted, and the queries
/// that timed out or failed.
///
/// # Errors
///
/// An engine error or a wrong sampled answer.
#[allow(clippy::too_many_lines)]
pub fn layers(seed: u64, out: &mut Outcome, trace: &mut Trace) -> Result<(u64, u64), String> {
    let serve = ServeConfig::paper_default();
    let array = ArrayConfig::paper_default()
        .with_stages(STAGES)
        .with_rows(ROWS);
    let encoding = array.encoding;
    let levels = encoding.levels();
    let runtime = serve.runtime;
    let mut rng = Rng::new(seed, 0xA0_0001);
    let mut stored: Vec<Vec<u8>> = (0..ROWS).map(|_| rng.codes(STAGES, levels)).collect();
    let pool: Vec<BatchQuery> = (0..POOL)
        .map(|_| {
            let rows: Vec<Vec<u8>> = (0..BATCH)
                .map(|_| rng.near(&stored, STAGES / 8, levels))
                .collect();
            BatchQuery::from_rows(&rows).expect("uniform batch")
        })
        .collect();

    let mut engine =
        ResilientEngine::new(array, serve.resilience, runtime).map_err(|e| e.to_string())?;
    for (row, values) in stored.iter().enumerate() {
        engine.store(row, values).map_err(|e| e.to_string())?;
    }
    // Warm-up: the first serve compiles the snapshot.
    engine.serve(&pool[0]).map_err(|e| e.to_string())?;

    // Serve with writes interleaved, as a deployment would.
    let before: RuntimeStats = *engine.stats();
    let (mut stores_us, mut failed) = (Vec::new(), 0u64);
    for seq in 0..SERVED {
        let batch = &pool[seq as usize % POOL];
        let start = Instant::now();
        let outcome = engine.serve(batch).map_err(|e| e.to_string())?;
        trace.record("runtime.serve", seq, start);
        failed += outcome
            .slots
            .iter()
            .filter(|slot| !matches!(slot, QueryOutcome::Ok(_)))
            .count() as u64;
        let j = seq as usize % BATCH;
        if let QueryOutcome::Ok(m) = &outcome.slots[j] {
            array_answer(encoding, &stored, batch.get(j), m)?;
        }
        if (seq + 1).is_multiple_of(STORE_EVERY) {
            for _ in 0..STORES {
                let row = rng.below(ROWS);
                let values = rng.codes(STAGES, levels);
                let start = Instant::now();
                engine.store(row, &values).map_err(|e| e.to_string())?;
                stores_us.push(crate::measure::us(start.elapsed()));
                trace.record("runtime.store", seq, start);
                stored[row] = values;
            }
        }
    }
    let after = *engine.stats();

    for (i, batch) in pool.iter().cycle().take(LAYER_BATCHES).enumerate() {
        trace
            .span("runtime.serve_layer", i as u64, || engine.serve(batch))
            .map_err(|e| e.to_string())?;
        let snap = engine.snapshot().ok_or("no compiled snapshot")?;
        // The kernel the runtime runs per slot, over the whole batch.
        trace
            .span("array.snapshot_batch", i as u64, || {
                (0..batch.len())
                    .try_for_each(|j| snap.search_packed_unchecked(batch.get(j)).map(drop))
            })
            .map_err(|e| e.to_string())?;
        let source = engine.array().array();
        trace
            .span("parallel.one_thread_batch", i as u64, || {
                snap.search_batch(source, batch, Some(1))
            })
            .map_err(|e| e.to_string())?;
        trace
            .span("parallel.snapshot_batch", i as u64, || {
                snap.search_batch(source, batch, None)
            })
            .map_err(|e| e.to_string())?;
    }
    for i in 0..CHECKS as u64 {
        trace
            .span("resilience.check_128x128", i, || engine.array().check())
            .map_err(|e| e.to_string())?;
    }

    out.note(format!(
        "array layers: {ROWS}x{STAGES} {}-bit, batches of {BATCH}, runtime threads={:?}, \
         health_interval={}, {SERVED} batches with {STORES} stores per {STORE_EVERY}, \
         {LAYER_BATCHES} batches per layer call",
        encoding.bits(),
        runtime.threads,
        runtime.health_interval
    ));
    let serve_us = trace.p50("runtime.serve_layer");
    let snapshot_us = trace.p50("array.snapshot_batch");
    out.metric("runtime.serve_us", serve_us);
    out.metric("array.snapshot_batch_us", snapshot_us);
    out.metric("runtime.self_us", serve_us - snapshot_us);
    let fanned_us = trace.p50("parallel.snapshot_batch");
    out.metric("parallel.snapshot_batch_us", fanned_us);
    out.metric(
        "parallel.speedup",
        trace.p50("parallel.one_thread_batch") / fanned_us,
    );
    out.metric("runtime.store_us", median(&mut stores_us));
    out.metric(
        "resilience.check_128x128_us",
        trace.p50("resilience.check_128x128"),
    );
    out.metric(
        "runtime.epoch_swaps_per_1k",
        per_1k(after.epoch_swaps - before.epoch_swaps, SERVED),
    );
    out.metric(
        "runtime.incremental_repacks_per_1k",
        per_1k(
            after.incremental_repacks - before.incremental_repacks,
            SERVED,
        ),
    );
    out.metric(
        "runtime.recompiles_per_1k",
        per_1k(after.recompiles - before.recompiles, SERVED),
    );
    out.metric(
        "runtime.health_checks_per_1k",
        per_1k(after.health_checks - before.health_checks, SERVED),
    );
    let attempted = SERVED * BATCH as u64 + stores_us.len() as u64;
    Ok((attempted, failed))
}
