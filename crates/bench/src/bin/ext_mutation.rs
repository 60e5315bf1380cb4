//! Extension: online mutation under live traffic — incremental repack
//! cost and the serving-latency impact of a sustained write mix.
//!
//! Two experiments against the serving runtime's online-mutation
//! machinery (the mutation correctness campaign, judged bit-exact under
//! wear churn and worker panics, runs in the deterministic simulation:
//! `crates/tdam/tests/sim.rs`):
//!
//! 1. **Repack cost** — on a 1024-row array, the surgical
//!    `refresh_rows` of a single rewritten row is timed against a
//!    from-scratch `compile_snapshot`. The gate requires the
//!    incremental path to be at least 10x cheaper; the report also
//!    fits the measured per-row cost into the documented
//!    O(rows-touched) model.
//! 2. **Latency under writes** — identical seeded query batches are
//!    served by two identical engines, one read-only and one with
//!    random row rewrites churning between batches (every batch then
//!    crosses an epoch swap). The gate bounds the write-mix p99 at 2x
//!    the read-only p99.
//!
//! With `--save`, archives the human-readable run to
//! `results/ext_mutation.txt` and a machine-readable sidecar to
//! `results/BENCH_mutation.json` (the CI artifact).
//!
//! Usage: `cargo run --release -p tdam-bench --bin ext_mutation [--quick] [--save]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tdam::array::TdamArray;
use tdam::config::ArrayConfig;
use tdam::engine::{BatchQuery, SimilarityEngine};
use tdam::resilience::ResilienceConfig;
use tdam::runtime::{ResilientEngine, RuntimeConfig};
use tdam::serve::percentile;
use tdam_bench::{quick_mode, rline, JsonMap, Report};

fn random_row(rng: &mut StdRng, stages: usize, levels: u32) -> Vec<u8> {
    (0..stages)
        .map(|_| rng.gen_range(0..levels) as u8)
        .collect()
}

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let quick = quick_mode();
    let seed = 0x4D55_7A7Eu64;
    let mut rpt = Report::new("ext_mutation");

    // ------------------------------------------------------------------
    // 1. Repack cost: single-row refresh vs from-scratch recompile.
    //    The 1024-row point is the acceptance gate; the grid shows the
    //    ratio growing linearly with rows (the full recompile is
    //    O(rows), the surgical refresh O(rows touched)).
    // ------------------------------------------------------------------
    const GATE_ROWS: usize = 1024;
    const STAGES: usize = 128;
    let (full_reps, single_reps) = if quick { (3, 32) } else { (8, 128) };
    rpt.header(&format!(
        "incremental repack cost: {STAGES}-stage rows, single-row rewrite"
    ));
    rline!(
        rpt,
        "{:>8} {:>16} {:>16} {:>10}",
        "rows",
        "full (ns)",
        "one row (ns)",
        "ratio"
    );
    let mut repack_rows_json = Vec::new();
    let mut gate_ratio = 0.0f64;
    for rows in [256usize, 512, GATE_ROWS] {
        let cfg = ArrayConfig::paper_default()
            .with_stages(STAGES)
            .with_rows(rows);
        let levels = cfg.encoding.levels() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ rows as u64);
        let mut am = TdamArray::new(cfg).expect("array");
        for row in 0..rows {
            let values = random_row(&mut rng, STAGES, levels);
            am.store(row, &values).expect("store");
        }
        let mut full_ns: Vec<u64> = (0..full_reps)
            .map(|_| {
                let t0 = Instant::now();
                let snap = am.compile_snapshot();
                let dt = t0.elapsed().as_nanos() as u64;
                assert!(snap.generation() > 0);
                dt
            })
            .collect();
        let mut snap = am.compile_snapshot();
        let mut single_ns: Vec<u64> = (0..single_reps)
            .map(|_| {
                // A real rewrite between samples so every refresh does
                // genuine work (untimed: the store is the mutation, the
                // refresh is what serving pays).
                let row = rng.gen_range(0..rows);
                let values = random_row(&mut rng, STAGES, levels);
                am.store(row, &values).expect("store");
                let t0 = Instant::now();
                let repacked = snap.refresh_rows(&am, [row]);
                let dt = t0.elapsed().as_nanos() as u64;
                assert_eq!(repacked, 1);
                dt
            })
            .collect();
        let full = median_ns(&mut full_ns);
        let single = median_ns(&mut single_ns);
        let ratio = full as f64 / single.max(1) as f64;
        if rows == GATE_ROWS {
            gate_ratio = ratio;
        }
        rline!(rpt, "{rows:>8} {full:>16} {single:>16} {ratio:>9.1}x");
        repack_rows_json.push(
            JsonMap::new()
                .int("rows", rows as i64)
                .int("full_recompile_ns", full as i64)
                .int("single_row_refresh_ns", single as i64)
                .num("ratio", ratio),
        );
    }
    rline!(
        rpt,
        "repack-cost gate (single-row refresh >= 10x cheaper at {GATE_ROWS} rows): {} ({gate_ratio:.1}x)",
        if gate_ratio >= 10.0 { "PASS" } else { "FAIL" }
    );
    assert!(
        gate_ratio >= 10.0,
        "single-row refresh only {gate_ratio:.1}x cheaper than a full recompile at {GATE_ROWS} rows"
    );

    // ------------------------------------------------------------------
    // 2. Serving latency under a sustained write mix: identical query
    //    streams against a read-only twin and a churned engine whose
    //    every batch crosses an incremental repack + epoch swap.
    // ------------------------------------------------------------------
    let (rows, stages, batches, batch_size, writes_per_batch) = if quick {
        (128, 64, 48, 32, 2)
    } else {
        (256, 64, 160, 32, 2)
    };
    rpt.header(&format!(
        "latency under writes: {rows}x{stages}, {batches} batches x {batch_size} queries, \
         {writes_per_batch} rewrites/batch"
    ));
    let cfg = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_rows(rows);
    let levels = cfg.encoding.levels() as u32;
    let resilience = ResilienceConfig {
        spare_rows: 8,
        ..Default::default()
    };
    let build = |tag: u64| -> (ResilientEngine, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed ^ tag);
        let mut engine =
            ResilientEngine::new(cfg, resilience, RuntimeConfig::default()).expect("engine");
        for row in 0..rows {
            let values = random_row(&mut rng, stages, levels);
            engine.store(row, &values).expect("store");
        }
        (engine, rng)
    };
    // Same population seed: the engines serve identical contents.
    let (mut read_only, _) = build(0x0A11);
    let (mut churned, mut write_rng) = build(0x0A11);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x0B22);
    let mut batches_q = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = BatchQuery::new(stages);
        for _ in 0..batch_size {
            batch
                .push(&random_row(&mut query_rng, stages, levels))
                .expect("push");
        }
        batches_q.push(batch);
    }
    // Warm-up: both engines promote to the compiled tier before timing.
    read_only.serve(&batches_q[0]).expect("warm-up");
    churned.serve(&batches_q[0]).expect("warm-up");

    let mut read_us: Vec<u64> = Vec::with_capacity(batches);
    for batch in &batches_q {
        let t0 = Instant::now();
        let out = read_only.serve(batch).expect("read-only serve");
        read_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(out.answered(), batch_size);
    }
    let mut write_us: Vec<u64> = Vec::with_capacity(batches);
    for batch in &batches_q {
        for _ in 0..writes_per_batch {
            let row = write_rng.gen_range(0..rows);
            let values = random_row(&mut write_rng, stages, levels);
            churned.store(row, &values).expect("store");
        }
        // The serve pays the repack + epoch swap for the writes above.
        let t0 = Instant::now();
        let out = churned.serve(batch).expect("churned serve");
        write_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(out.answered(), batch_size);
    }
    let (read_p50, read_p99) = (
        percentile(&mut read_us, 50.0),
        percentile(&mut read_us, 99.0),
    );
    let (write_p50, write_p99) = (
        percentile(&mut write_us, 50.0),
        percentile(&mut write_us, 99.0),
    );
    let p99_ratio = write_p99 as f64 / read_p99.max(1) as f64;
    let churn_stats = *churned.stats();
    rline!(
        rpt,
        "read-only: p50 {read_p50} us, p99 {read_p99} us | under writes: p50 {write_p50} us, \
         p99 {write_p99} us (ratio {p99_ratio:.2}x)"
    );
    rline!(
        rpt,
        "churned engine: {} user writes, {} incremental repacks covering {} rows, \
         {} epoch swaps, {} full recompiles",
        churn_stats.user_writes,
        churn_stats.incremental_repacks,
        churn_stats.rows_repacked,
        churn_stats.epoch_swaps,
        churn_stats
            .recompiles
            .saturating_sub(churn_stats.incremental_repacks)
    );
    rline!(
        rpt,
        "write-latency gate (p99 under writes <= 2x read-only p99): {}",
        if p99_ratio <= 2.0 { "PASS" } else { "FAIL" }
    );
    assert!(
        p99_ratio <= 2.0,
        "p99 under writes ({write_p99} us) exceeded 2x the read-only p99 ({read_p99} us)"
    );
    assert!(
        churn_stats.incremental_repacks > 0,
        "the write mix never exercised the incremental repack path"
    );

    rpt.finish();

    JsonMap::new()
        .str(
            "scenario",
            "online mutation: repack cost, latency under writes",
        )
        .obj(
            "config",
            JsonMap::new()
                .int("gate_rows", GATE_ROWS as i64)
                .int("repack_stages", STAGES as i64)
                .int("latency_rows", rows as i64)
                .int("latency_stages", stages as i64)
                .int("batches", batches as i64)
                .int("batch_size", batch_size as i64)
                .int("writes_per_batch", writes_per_batch as i64)
                .bool("quick", quick),
        )
        .arr("repack", repack_rows_json)
        .num("repack_ratio_at_gate", gate_ratio)
        .bool("repack_gate", gate_ratio >= 10.0)
        .obj(
            "latency",
            JsonMap::new()
                .int("read_only_p50_us", read_p50 as i64)
                .int("read_only_p99_us", read_p99 as i64)
                .int("under_writes_p50_us", write_p50 as i64)
                .int("under_writes_p99_us", write_p99 as i64)
                .num("p99_ratio", p99_ratio)
                .bool("p99_gate", p99_ratio <= 2.0)
                .int(
                    "incremental_repacks",
                    churn_stats.incremental_repacks as i64,
                )
                .int("epoch_swaps", churn_stats.epoch_swaps as i64),
        )
        .finish("BENCH_mutation");
}
