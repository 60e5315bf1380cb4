//! Subcommand implementations. Each returns its report as a `String` so
//! the binary stays a thin shell and tests can assert on output.

use crate::args::{parse_vectors, Args};
use crate::CliError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdam::area::{array_area, AreaModel, StageArea};
use tdam::array::TdamArray;
use tdam::config::ArrayConfig;
use tdam::encoding::Encoding;
use tdam::engine::{BatchQuery, SimilarityEngine};
use tdam::margins::precision_sweep;
use tdam::monte_carlo::{run as mc_run, McConfig};
use tdam::power::static_power;
use tdam::resilience::{run_campaign, CampaignConfig, CampaignFault, ResilienceConfig};
use tdam::timing::StageTiming;
use tdam_fefet::VthVariation;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] for usage problems or simulation failures.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "search" => search(args),
        "mc" => monte_carlo(args),
        "timing" => timing(args),
        "margins" => margins(args),
        "table1" => table1(args),
        "area" => area(args),
        "power" => power(args),
        "faults" => faults(args),
        "bench-batch" => bench_batch(args),
        "serve-chaos" => serve_chaos(args),
        "mutate-chaos" => mutate_chaos(args),
        "checkpoint" => checkpoint(args),
        "restore" => restore(args),
        "serve" => serve(args),
        "serve-load" => serve_load(args),
        "simulate" => simulate(args),
        "corpus-search" => corpus_search(args),
        "--help" | "-h" | "help" => Ok(crate::USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown subcommand {other}"))),
    }
}

fn base_config(args: &Args) -> Result<ArrayConfig, CliError> {
    let bits = args.usize_or("bits", 2)? as u8;
    let cfg = ArrayConfig::paper_default()
        .with_encoding(Encoding::new(bits)?)
        .with_vdd(args.f64_or("vdd", 1.1)?)
        .with_c_load(args.f64_or("c-load-ff", 6.0)? * 1e-15);
    Ok(cfg)
}

fn search(args: &Args) -> Result<String, CliError> {
    let stored = parse_vectors(
        args.get("store")
            .ok_or_else(|| CliError::Usage("search needs --store".to_owned()))?,
    )?;
    let query = parse_vectors(
        args.get("query")
            .ok_or_else(|| CliError::Usage("search needs --query".to_owned()))?,
    )?;
    let [query] = query.as_slice() else {
        return Err(CliError::Usage(
            "--query takes exactly one vector".to_owned(),
        ));
    };
    let stages = stored.first().map_or(0, Vec::len);
    if stored.iter().any(|v| v.len() != stages) {
        return Err(CliError::Usage(
            "all stored vectors must be equal length".to_owned(),
        ));
    }
    let cfg = base_config(args)?
        .with_stages(stages)
        .with_rows(stored.len());
    let mut am = TdamArray::new(cfg)?;
    for (i, row) in stored.iter().enumerate() {
        SimilarityEngine::store(&mut am, i, row)?;
    }
    let outcome = TdamArray::search(&am, query)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>10} {:>12} {:>10}\n",
        "row", "distance", "delay (ps)", "count"
    ));
    for (i, row) in outcome.rows.iter().enumerate() {
        out.push_str(&format!(
            "{i:>4} {:>10} {:>12.1} {:>10}\n",
            row.decoded_mismatches,
            row.chain.total_delay * 1e12,
            row.count
        ));
    }
    let best = outcome
        .best_row()
        .ok_or_else(|| CliError::permanent("search produced no rows"))?;
    out.push_str(&format!(
        "best row: {best}   latency {:.3} ns   energy {:.2} fJ\n",
        outcome.latency * 1e9,
        outcome.energy.total() * 1e15
    ));
    Ok(out)
}

fn monte_carlo(args: &Args) -> Result<String, CliError> {
    let stages = args.usize_or("stages", 64)?;
    let runs = args.usize_or("runs", 500)?;
    let seed = args.usize_or("seed", 0xF16)? as u64;
    let variation = if args.switch("experimental") {
        VthVariation::experimental()
    } else {
        VthVariation::uniform(args.f64_or("sigma-mv", 40.0)? * 1e-3)
    };
    let cfg = McConfig::worst_case(
        base_config(args)?.with_stages(stages),
        variation,
        runs,
        seed,
    );
    let result = mc_run(&cfg)?;
    Ok(format!(
        "{runs} runs, {stages} stages, worst case (all mismatched)\n\
         delay {:.4} ns ± {:.2} ps (nominal {:.4} ns, margin ±{:.2} ps)\n\
         within margin: {:.1}%   decode correct: {:.1}%\n",
        result.summary.mean * 1e9,
        result.summary.std_dev * 1e12,
        result.nominal_delay * 1e9,
        result.sensing_margin * 1e12,
        result.within_margin * 100.0,
        result.decode_accuracy * 100.0
    ))
}

fn timing(args: &Args) -> Result<String, CliError> {
    let cfg = base_config(args)?;
    let t = if args.switch("circuit") {
        StageTiming::from_circuit(&cfg.tech, cfg.c_load)?
    } else {
        StageTiming::analytic(&cfg.tech, cfg.c_load)?
    };
    Ok(format!(
        "{} calibration at V_DD = {:.2} V, C_load = {:.0} fF\n\
         d_INV = {:.3} ps   d_C = {:.3} ps   sensing margin = ±{:.3} ps\n\
         E_inv = {:.3} fJ   E_C = {:.3} fJ   E_MN = {:.3} fJ\n",
        if args.switch("circuit") {
            "circuit"
        } else {
            "analytic"
        },
        t.vdd,
        t.c_load * 1e15,
        t.d_inv * 1e12,
        t.d_c * 1e12,
        t.sensing_margin() * 1e12,
        t.e_inv * 1e15,
        t.e_c * 1e15,
        t.e_mn * 1e15
    ))
}

fn margins(args: &Args) -> Result<String, CliError> {
    let sigma = args.f64_or("sigma-mv", 45.0)? * 1e-3;
    let mut out = format!(
        "precision feasibility at sigma(V_TH) = {:.1} mV\n{:>6} {:>12} {:>14} {:>18}\n",
        sigma * 1e3,
        "bits",
        "margin (mV)",
        "P(cell error)",
        "max chain"
    );
    for r in precision_sweep(sigma)? {
        let chain = if r.max_reliable_chain == usize::MAX {
            "unbounded".to_owned()
        } else {
            r.max_reliable_chain.to_string()
        };
        out.push_str(&format!(
            "{:>6} {:>12.1} {:>14.3e} {:>18}\n",
            r.bits,
            r.margin * 1e3,
            r.p_cell_error,
            chain
        ));
    }
    Ok(out)
}

fn table1(args: &Args) -> Result<String, CliError> {
    let queries = args.usize_or("queries", 100)?;
    let rows = tdam_baselines::comparison_table(queries, 0x7AB1E)?;
    Ok(tdam_baselines::comparison::render_table(&rows))
}

fn power(args: &Args) -> Result<String, CliError> {
    let stages = args.usize_or("stages", 64)?;
    let rows = args.usize_or("rows", 16)?;
    let cfg = base_config(args)?.with_stages(stages).with_rows(rows);
    let p = static_power(&cfg)?;
    Ok(format!(
        "idle static power of a {rows}x{stages} array at {:.2} V:\n\
         cells {:.3e} W + inverters {:.3e} W + switches {:.3e} W = {:.3e} W\n",
        cfg.tech.vdd,
        p.cell_leakage,
        p.inverter_leakage,
        p.switch_leakage,
        p.total()
    ))
}

fn faults(args: &Args) -> Result<String, CliError> {
    let stages = args.usize_or("stages", 32)?;
    let rows = args.usize_or("rows", 16)?;
    let spares = args.usize_or("spares", rows)?;
    let trials = args.usize_or("trials", 8)?;
    let queries = args.usize_or("queries", 32)?;
    let seed = args.usize_or("seed", 0xD47E)? as u64;
    let rate = args.f64_or("rate", 0.01)?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Usage(format!(
            "--rate is a per-cell fault probability and must be in 0..=1, got {rate}"
        )));
    }
    let repair = !args.switch("no-repair");
    let kind = match args.get("kind").unwrap_or("stuck-mismatch") {
        "stuck-mismatch" => CampaignFault::StuckMismatch,
        "stuck-match" => CampaignFault::StuckMatch,
        "stuck-mix" => CampaignFault::StuckMix,
        "drift" | "vth-drift" => CampaignFault::Drift {
            window_fraction: args.f64_or("window-fraction", 0.25)?,
        },
        "stuck-column" => CampaignFault::StuckColumn,
        "broken-stage" => CampaignFault::BrokenStage,
        "tdc-miscount" => CampaignFault::TdcMiscount,
        "sl-glitch" => CampaignFault::SlGlitch,
        other => {
            return Err(CliError::Usage(format!(
                "unknown fault kind {other} (stuck-mismatch, stuck-match, stuck-mix, drift, \
                 stuck-column, broken-stage, tdc-miscount, sl-glitch)"
            )))
        }
    };
    let cfg = CampaignConfig {
        array: base_config(args)?.with_stages(stages).with_rows(rows),
        resilience: ResilienceConfig {
            spare_rows: spares,
            ..ResilienceConfig::default()
        },
        kinds: vec![kind],
        fault_rates: vec![rate],
        trials,
        queries,
        repair,
        seed,
    };
    let result = run_campaign(&cfg)?;
    let p = result
        .points
        .first()
        .ok_or_else(|| CliError::permanent("campaign produced no points"))?;
    Ok(format!(
        "fault campaign: {rows}x{stages} array, {spares} spares, {} at rate {:.3}%\n\
         {trials} trials x {queries} exact-match queries, repair {}\n\
         decode accuracy: {:.1}%   retrieval accuracy: {:.1}%\n\
         per trial: {:.2} repaired, {:.2} remapped, {:.2} dead, {:.2} masked columns\n",
        p.kind.label(),
        rate * 100.0,
        if repair { "on" } else { "off" },
        p.decode_accuracy * 100.0,
        p.retrieval_accuracy * 100.0,
        p.avg_repaired,
        p.avg_remapped,
        p.avg_dead,
        p.avg_masked
    ))
}

fn bench_batch(args: &Args) -> Result<String, CliError> {
    let stages = args.usize_or("stages", 64)?;
    let rows = args.usize_or("rows", 32)?;
    let batch_size = args.usize_or("batch", 256)?;
    let seed = args.usize_or("seed", 0xBA7C)? as u64;
    let threads = args
        .get("threads")
        .map(|_| args.usize_or("threads", 1))
        .transpose()?;
    if batch_size == 0 {
        return Err(CliError::Usage("--batch must be positive".to_owned()));
    }
    let cfg = base_config(args)?.with_stages(stages).with_rows(rows);
    let mut am = TdamArray::new(cfg)?;
    let levels = am.config().encoding.levels();
    let mut rng = StdRng::seed_from_u64(seed);
    for row in 0..rows {
        let values: Vec<u8> = (0..stages).map(|_| rng.gen_range(0..levels)).collect();
        SimilarityEngine::store(&mut am, row, &values)?;
    }
    let mut batch = BatchQuery::new(stages);
    for _ in 0..batch_size {
        let q: Vec<u8> = (0..stages).map(|_| rng.gen_range(0..levels)).collect();
        batch.push(&q)?;
    }

    let t0 = std::time::Instant::now();
    let mut sequential = Vec::with_capacity(batch_size);
    for q in batch.iter() {
        sequential.push(SimilarityEngine::search(&mut am, q)?);
    }
    let t_seq = t0.elapsed().as_secs_f64();

    let snap = am.compile_snapshot();
    let t1 = std::time::Instant::now();
    let outcomes = snap.search_batch(&am, &batch, threads)?;
    let t_batch = t1.elapsed().as_secs_f64();

    // The packed batch tier's contract (tests/packed_equiv.rs): decisions,
    // distances, and energies exact; reconstructed delays are sums of the
    // same positive terms replayed in a different order, so they agree to
    // 2·(1.5·N + 2)·ε relative rather than bitwise.
    let latency_bound = |a: f64, b: f64| {
        (a - b).abs() <= 2.0 * (1.5 * stages as f64 + 2.0) * f64::EPSILON * a.abs().max(b.abs())
    };
    for (outcome, reference) in outcomes.iter().zip(&sequential) {
        let m = outcome.metrics();
        if m.best_row != reference.best_row
            || m.distances != reference.distances
            || m.energy != reference.energy
            || !latency_bound(m.latency, reference.latency)
        {
            return Err(CliError::permanent(
                "batched search disagrees with the sequential loop",
            ));
        }
    }
    let qps_seq = batch_size as f64 / t_seq;
    let qps_batch = batch_size as f64 / t_batch;
    Ok(format!(
        "batched query serving: {rows}x{stages} array, {batch_size} queries, threads {}\n\
         packed rows: {}/{rows}\n\
         sequential: {:.3} ms  ({:.0} queries/s)\n\
         batched:    {:.3} ms  ({:.0} queries/s)\n\
         speedup: {:.2}x   results identical: yes\n",
        threads.map_or("auto".to_owned(), |t| t.to_string()),
        snap.packed_rows(),
        t_seq * 1e3,
        qps_seq,
        t_batch * 1e3,
        qps_batch,
        qps_batch / qps_seq
    ))
}

fn serve_chaos(args: &Args) -> Result<String, CliError> {
    use tdam::runtime::{run_chaos, ChaosConfig, DeadlinePolicy};

    let mut cfg = ChaosConfig::paper_default();
    let stages = args.usize_or("stages", cfg.array.stages)?;
    let rows = args.usize_or("rows", cfg.array.rows)?;
    cfg.array = base_config(args)?.with_stages(stages).with_rows(rows);
    cfg.resilience.spare_rows = args.usize_or("spares", cfg.resilience.spare_rows)?;
    cfg.batches = args.usize_or("batches", cfg.batches)?;
    cfg.batch_size = args.usize_or("batch", cfg.batch_size)?;
    cfg.fault_rate = args.f64_or("fault-rate", cfg.fault_rate)?;
    cfg.panic_rate = args.f64_or("panic-rate", cfg.panic_rate)?;
    cfg.seed = args.usize_or("seed", cfg.seed as usize)? as u64;
    for (name, rate) in [
        ("fault-rate", cfg.fault_rate),
        ("panic-rate", cfg.panic_rate),
    ] {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(CliError::Usage(format!(
                "--{name} is a probability and must be in 0..=1, got {rate}"
            )));
        }
    }
    if args.get("deadline-queries").is_some() {
        cfg.runtime.deadline = DeadlinePolicy::QueryBudget(args.usize_or("deadline-queries", 0)?);
    }
    let report = run_chaos(&cfg)?;
    Ok(format!(
        "chaos campaign: {rows}x{stages} array, {} spares, seed {:#x}\n\
         {} batches x {} queries, fault rate {:.2}%, panic rate {:.2}%\n\
         availability: {:.2}%  ({} answered, {} timed out, {} failed of {})\n\
         correctness: {} wrong, {} silent wrong, {} flagged degraded\n\
         faults injected: {}   final backend: {:?} ({:?})\n\
         runtime: {} retries ({} backoff waits), {} breaker trips, {} recompiles, \
         {} health checks ({} missed), {} repairs, {} demotions, {} promotions\n",
        cfg.resilience.spare_rows,
        cfg.seed,
        cfg.batches,
        cfg.batch_size,
        cfg.fault_rate * 100.0,
        cfg.panic_rate * 100.0,
        report.availability() * 100.0,
        report.answered,
        report.timed_out,
        report.failed,
        report.total_queries,
        report.wrong,
        report.silent_wrong,
        report.degraded_answers,
        report.faults_injected,
        report.final_backend,
        report.final_degradation,
        report.stats.retries,
        report.stats.backoff_waits,
        report.stats.breaker_trips,
        report.stats.recompiles,
        report.stats.health_checks,
        report.stats.health_misses,
        report.stats.repairs,
        report.stats.demotions,
        report.stats.promotions
    ))
}

fn mutate_chaos(args: &Args) -> Result<String, CliError> {
    use tdam::runtime::{run_mutation_chaos, DeadlinePolicy, MutationChaosConfig};

    let mut cfg = MutationChaosConfig::paper_default();
    let stages = args.usize_or("stages", cfg.array.stages)?;
    let rows = args.usize_or("rows", cfg.array.rows)?;
    cfg.array = base_config(args)?.with_stages(stages).with_rows(rows);
    cfg.resilience.spare_rows = args.usize_or("spares", cfg.resilience.spare_rows)?;
    cfg.batches = args.usize_or("batches", cfg.batches)?;
    cfg.batch_size = args.usize_or("batch", cfg.batch_size)?;
    cfg.writes_per_batch = args.usize_or("writes", cfg.writes_per_batch)?;
    cfg.fault_rate = args.f64_or("fault-rate", cfg.fault_rate)?;
    cfg.panic_rate = args.f64_or("panic-rate", cfg.panic_rate)?;
    cfg.seed = args.usize_or("seed", cfg.seed as usize)? as u64;
    for (name, rate) in [
        ("fault-rate", cfg.fault_rate),
        ("panic-rate", cfg.panic_rate),
    ] {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(CliError::Usage(format!(
                "--{name} is a probability and must be in 0..=1, got {rate}"
            )));
        }
    }
    if args.get("deadline-queries").is_some() {
        cfg.runtime.deadline = DeadlinePolicy::QueryBudget(args.usize_or("deadline-queries", 0)?);
    }
    let report = run_mutation_chaos(&cfg)?;
    let out = format!(
        "mutation chaos: {rows}x{stages} array, {} spares, seed {:#x}\n\
         {} batches x {} queries, {} writes/batch, fault rate {:.2}%, panic rate {:.2}%\n\
         availability: {:.2}%  ({} answered, {} timed out, {} failed of {})\n\
         correctness: {} wrong, {} silent wrong, {} flagged degraded (judged against \
         an independently replayed reference)\n\
         writes: {} user, {} physical (amplification {:.3}x), {} wear rotations, \
         {} refresh rewrites\n\
         repack: {} incremental repacks covering {} rows, {} epoch swaps, {} full recompiles\n\
         faults injected: {}   final backend: {:?} ({:?})\n",
        cfg.resilience.spare_rows,
        cfg.seed,
        cfg.batches,
        cfg.batch_size,
        cfg.writes_per_batch,
        cfg.fault_rate * 100.0,
        cfg.panic_rate * 100.0,
        report.availability() * 100.0,
        report.answered,
        report.timed_out,
        report.failed,
        report.total_queries,
        report.wrong,
        report.silent_wrong,
        report.degraded_answers,
        report.user_writes,
        report.physical_writes,
        report.write_amplification(),
        report.wear_rotations,
        report.refresh_rewrites,
        report.stats.incremental_repacks,
        report.stats.rows_repacked,
        report.stats.epoch_swaps,
        report
            .stats
            .recompiles
            .saturating_sub(report.stats.incremental_repacks),
        report.faults_injected,
        report.final_backend,
        report.final_degradation,
    );
    // The campaign gate: a silently wrong answer is forbidden under any
    // fault mix, and a pure-mutation campaign (no injected cell faults)
    // must be *correct* outright. Both are permanent failures — the same
    // seed will corrupt the same way, so a retry is pointless.
    if report.silent_wrong > 0 {
        return Err(CliError::permanent(format!(
            "{out}FAILED: {} silently wrong answer(s) delivered as nominal",
            report.silent_wrong
        )));
    }
    if cfg.fault_rate == 0.0 && report.wrong > 0 {
        return Err(CliError::permanent(format!(
            "{out}FAILED: {} wrong answer(s) in a pure-mutation campaign",
            report.wrong
        )));
    }
    Ok(out)
}

fn checkpoint(args: &Args) -> Result<String, CliError> {
    use tdam::runtime::{ResilientEngine, RuntimeConfig};
    use tdam::store::{CheckpointStore, DurableEngine};

    let dir = args
        .get("dir")
        .ok_or_else(|| CliError::Usage("checkpoint needs --dir".to_owned()))?
        .to_owned();
    let stages = args.usize_or("stages", 16)?;
    let rows = args.usize_or("rows", 8)?;
    let spares = args.usize_or("spares", 2)?;
    let mutations = args.usize_or("mutations", 3)?;
    let seed = args.usize_or("seed", 0xC4E0)? as u64;
    let cfg = base_config(args)?.with_stages(stages).with_rows(rows);
    let levels = cfg.encoding.levels() as usize;
    let resilience = ResilienceConfig {
        spare_rows: spares,
        ..Default::default()
    };

    let mut engine = ResilientEngine::new(cfg, resilience, RuntimeConfig::default())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let random_row = |rng: &mut StdRng| -> Vec<u8> {
        (0..stages)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect()
    };
    for row in 0..rows {
        let values = random_row(&mut rng);
        engine.store(row, &values)?;
    }

    let store = CheckpointStore::open(&dir)?;
    let mut durable = DurableEngine::new(store, engine)?;
    let generation = durable.generation();
    for _ in 0..mutations {
        let row = rng.gen_range(0..rows);
        let values = random_row(&mut rng);
        durable.store(row, &values)?;
    }
    Ok(format!(
        "persisted a {rows}x{stages} deployment ({spares} spares, seed {seed:#x}) under {dir}\n\
         checkpoint generation {generation} committed atomically \
         (temp file + rename, CRC-32 over the payload)\n\
         {} post-checkpoint mutation(s) appended to the write-ahead journal \
         — run `tdam-sim restore --dir {dir}` to replay them\n",
        durable.journal_ops()
    ))
}

fn restore(args: &Args) -> Result<String, CliError> {
    use tdam::runtime::RuntimeConfig;
    use tdam::store::DurableEngine;

    let dir = args
        .get("dir")
        .ok_or_else(|| CliError::Usage("restore needs --dir".to_owned()))?
        .to_owned();
    let (mut durable, report) = DurableEngine::recover(&dir, RuntimeConfig::default())?;

    // Known-answer smoke: every logical row queried with its own stored
    // vector must come back as its own best match with zero mismatches.
    let data_rows = durable.engine().array().data_rows();
    let stages = durable.engine().array().array().config().stages;
    let mut batch = BatchQuery::new(stages);
    for row in 0..data_rows {
        let phys = durable.engine().array().physical_row(row)?;
        let values = durable.engine().array().array().stored(phys)?;
        batch.push(&values)?;
    }
    let outcome = durable.serve(&batch)?;
    let exact = outcome
        .slots
        .iter()
        .enumerate()
        .filter(|(row, slot)| {
            slot.ok()
                .is_some_and(|m| m.best_row == Some(*row) && m.distances[*row] == Some(0))
        })
        .count();

    let mut out = format!(
        "recovered generation {} from {dir}: {} journal op(s) replayed, {} skipped\n",
        report.generation, report.ops_replayed, report.ops_skipped
    );
    if report.corruption_detected {
        out.push_str(&format!(
            "corruption detected and contained: fell back past damaged file(s); \
             {} quarantined\n",
            report.quarantined.len()
        ));
    }
    if report.journal_torn {
        out.push_str("journal had a torn tail; the valid prefix was replayed\n");
    }
    out.push_str(&format!(
        "known-answer probes: {exact}/{data_rows} rows exact   backend after revalidation: {:?}\n",
        durable.engine().backend()
    ));
    Ok(out)
}

fn serve(args: &Args) -> Result<String, CliError> {
    use tdam::serve::{run_serve_chaos, ServeChaosConfig};

    let mut cfg = ServeChaosConfig::quick(None);
    cfg.serve.array = base_config(args)?
        .with_stages(args.usize_or("stages", 16)?)
        .with_rows(1); // per-shard rows come from the shard map
    cfg.rows = args.usize_or("rows", 96)?;
    cfg.serve.rows_per_shard = args.usize_or("rows-per-shard", 24)?;
    cfg.serve.workers = args.usize_or("workers", 4)?;
    cfg.serve.queue_capacity = args.usize_or("queue-capacity", 16)?;
    cfg.clients = args.usize_or("clients", 3)?;
    cfg.requests_per_client = args.usize_or("requests", 12)?;
    cfg.k = args.usize_or("k", 5)?;
    cfg.seed = args.usize_or("seed", 7)? as u64;
    cfg.deadline = std::time::Duration::from_millis(args.usize_or("deadline-ms", 250)? as u64);
    cfg.chaos = !args.switch("no-chaos");
    let standby_dir = match args.get("standby-dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("tdam-serve-standby-{}", std::process::id())),
    };
    std::fs::create_dir_all(&standby_dir)
        .map_err(|e| CliError::Usage(format!("cannot create standby dir: {e}")))?;
    cfg.standby_dir = Some(standby_dir.clone());

    let report = run_serve_chaos(&cfg)?;
    if args.get("standby-dir").is_none() {
        let _ = std::fs::remove_dir_all(&standby_dir);
    }

    let mut out = format!(
        "sharded serving campaign: {} rows x {} stages, {} rows/shard, \
         {} workers, queue {}, seed {:#x}\n\
         {:>10} {:>8} {:>9} {:>8} {:>9} {:>6} {:>6} {:>7} {:>7} {:>9} {:>9} {:>7}\n",
        cfg.rows,
        cfg.serve.array.stages,
        cfg.serve.rows_per_shard,
        cfg.serve.workers,
        cfg.serve.queue_capacity,
        cfg.seed,
        "phase",
        "requests",
        "answered",
        "partial",
        "degraded",
        "shedQ",
        "shedD",
        "wrong",
        "silent",
        "p50 (µs)",
        "p99 (µs)",
        "qps"
    );
    for p in &report.phases {
        out.push_str(&format!(
            "{:>10} {:>8} {:>9} {:>8} {:>9} {:>6} {:>6} {:>7} {:>7} {:>9} {:>9} {:>7}\n",
            p.name,
            p.requests,
            p.answered,
            p.partial,
            p.degraded,
            p.shed_queue,
            p.shed_deadline,
            p.flagged_mismatch,
            p.silent_wrong,
            p.p50_us,
            p.p99_us,
            p.qps
        ));
    }
    out.push_str(&format!(
        "service: {} requests, {} complete, {} partial, {} degraded; \
         {} shard downs, {} failovers ({} probe failures), {} restocks\n\
         front-end: {} connections, {} received, {} answered, \
         {} shed (queue {}, deadline {}), {} errors\n",
        report.service.requests,
        report.service.complete,
        report.service.partial,
        report.service.degraded,
        report.service.shard_downs,
        report.service.failovers,
        report.service.probe_failures,
        report.service.restocks,
        report.front.connections,
        report.front.received,
        report.front.answered,
        report.front.shed_queue + report.front.shed_deadline,
        report.front.shed_queue,
        report.front.shed_deadline,
        report.front.errors
    ));
    for (ix, s) in report.shards.iter().enumerate() {
        let write_amp = if s.stats.user_writes == 0 {
            1.0
        } else {
            s.stats.physical_writes as f64 / s.stats.user_writes as f64
        };
        out.push_str(&format!(
            "shard {ix}: rows {}..{} {} backend {:?}  \
             {} queries, {} retries ({} backoff waits), {} breaker trips, \
             {} demotions, {} promotions, {} repairs\n\
             \u{20}        writes: {} user, {} physical (amplification {write_amp:.3}x), \
             {} wear rotations, {} refresh rewrites; \
             {} epoch swaps ({} incremental repacks)\n",
            s.base,
            s.base + s.rows,
            if s.down { "DOWN" } else { "up  " },
            s.backend,
            s.stats.queries,
            s.stats.retries,
            s.stats.backoff_waits,
            s.stats.breaker_trips,
            s.stats.demotions,
            s.stats.promotions,
            s.stats.repairs,
            s.stats.user_writes,
            s.stats.physical_writes,
            s.stats.wear_rotations,
            s.stats.refresh_rewrites,
            s.stats.epoch_swaps,
            s.stats.incremental_repacks
        ));
    }
    if report.silent_wrong() > 0 {
        return Err(CliError::permanent(format!(
            "{} silent wrong answer(s): a complete answer differed from brute force",
            report.silent_wrong()
        )));
    }
    Ok(out)
}

fn serve_load(args: &Args) -> Result<String, CliError> {
    use tdam::serve::{percentile, ServeClient, ServeError, ShedReason};

    let addr = args
        .get("addr")
        .ok_or_else(|| CliError::Usage("serve-load needs --addr HOST:PORT".to_owned()))?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| CliError::Usage(format!("bad --addr {addr}")))?;
    let clients = args.usize_or("clients", 2)?.max(1);
    let requests = args.usize_or("requests", 32)?;
    let k = args.usize_or("k", 5)?;
    let seed = args.usize_or("seed", 11)? as u64;
    let deadline = std::time::Duration::from_millis(args.usize_or("deadline-ms", 250)? as u64);

    // Discover the corpus shape over the wire so queries are well
    // formed without any out-of-band knowledge.
    let info = ServeClient::connect(addr)?.info()?;

    struct Tally {
        answered: usize,
        partial: usize,
        degraded: usize,
        shed_queue: usize,
        shed_deadline: usize,
        errors: usize,
        latencies_us: Vec<u64>,
    }
    let started = std::time::Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<Tally, CliError> {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                    let mut client = ServeClient::connect(addr)?;
                    let mut tally = Tally {
                        answered: 0,
                        partial: 0,
                        degraded: 0,
                        shed_queue: 0,
                        shed_deadline: 0,
                        errors: 0,
                        latencies_us: Vec::with_capacity(requests),
                    };
                    for _ in 0..requests {
                        let query: Vec<u8> = (0..info.stages)
                            .map(|_| rng.gen_range(0..info.levels as u8))
                            .collect();
                        let sent = std::time::Instant::now();
                        match client.query(&query, k, deadline) {
                            Ok(topk) => {
                                tally.latencies_us.push(sent.elapsed().as_micros() as u64);
                                tally.answered += 1;
                                if topk.partial {
                                    tally.partial += 1;
                                }
                                if topk.degraded {
                                    tally.degraded += 1;
                                }
                            }
                            Err(ServeError::Overloaded(ShedReason::QueueFull)) => {
                                tally.shed_queue += 1;
                            }
                            Err(ServeError::Overloaded(ShedReason::DeadlineExpired)) => {
                                tally.shed_deadline += 1;
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| CliError::permanent("load client panicked"))?
            })
            .collect::<Result<Vec<_>, CliError>>()
    })?;
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut answered, mut partial, mut degraded) = (0usize, 0usize, 0usize);
    let (mut shed_queue, mut shed_deadline, mut errors) = (0usize, 0usize, 0usize);
    for t in tallies {
        answered += t.answered;
        partial += t.partial;
        degraded += t.degraded;
        shed_queue += t.shed_queue;
        shed_deadline += t.shed_deadline;
        errors += t.errors;
        latencies.extend(t.latencies_us);
    }
    let total = clients * requests;
    let qps = total as f64 / elapsed.as_secs_f64().max(1e-9);
    Ok(format!(
        "serve-load against {addr}: corpus {} rows x {} stages over {} shard(s)\n\
         {} client(s) x {} request(s) closed-loop, k={k}, deadline {:?}\n\
         answered {answered}/{total} ({partial} partial, {degraded} degraded)\n\
         shed: {shed_queue} queue-full, {shed_deadline} deadline   errors: {errors}\n\
         throughput {qps:.0} qps   p50 {} µs   p99 {} µs\n",
        info.rows,
        info.stages,
        info.shards,
        clients,
        requests,
        deadline,
        percentile(&mut latencies, 50.0),
        percentile(&mut latencies, 99.0),
    ))
}

/// Renders one world's report as the CLI's stable text form.
fn sim_report_lines(report: &tdam::sim::SimReport) -> String {
    let mut out = format!(
        "requests {}: {} complete, {} partial, {} degraded, {} shed, \
         {} transport errors, {} protocol errors, {} server errors\n\
         events: {} mutations, {} shard crashes, {} failovers, {} durable crashes, \
         {} disk faults, {} checkpoints, {} ages, {} drifts, {} scrubs, {} reorders\n\
         judged {} answers against brute force; scrub heals {}\n",
        report.requests,
        report.complete,
        report.partial,
        report.degraded,
        report.shed,
        report.transport_errors,
        report.protocol_errors,
        report.server_errors,
        report.mutations,
        report.shard_crashes,
        report.failovers,
        report.durable_crashes,
        report.disk_faults,
        report.checkpoints,
        report.ages,
        report.drifts,
        report.scrubs,
        report.reorders,
        report.judged,
        report.scrub_heals,
    );
    if report.corpus_judged > 0 || report.corpus_mutations > 0 {
        out.push_str(&format!(
            "corpus tier: judged {} restricted re-ranks, {} mutations, {} cache evictions\n",
            report.corpus_judged, report.corpus_mutations, report.corpus_evictions,
        ));
    }
    out
}

/// Renders a failure artifact: everything needed to reproduce and debug
/// a failing seed (the seed itself, replay consistency, and the
/// greedily minimized fault schedule).
fn sim_artifact_lines(artifact: &tdam::sim::FailureArtifact) -> String {
    format!(
        "first failure: step {}: {}\n\
         replay bit-identical: {}\n\
         reproduce with: tdam-sim simulate --seed {}\n\
         minimized schedule ({} of {} events):\n{}",
        artifact.first_failure.step,
        artifact.first_failure.what,
        artifact.replay_consistent,
        artifact.seed,
        artifact.minimized.events.len(),
        artifact.original_events,
        artifact.minimized.describe(),
    )
}

fn simulate(args: &Args) -> Result<String, CliError> {
    use tdam::sim::{generate_schedule, run_sim_campaign, simulate as run_world, SimConfig};

    let seed = args.usize_or("seed", 0)? as u64;
    let scenarios = args.usize_or("scenarios", 1)?;
    let mut cfg = if args.switch("paper") {
        SimConfig::paper_default(seed)
    } else {
        SimConfig::quick(seed)
    };
    cfg.steps = args.usize_or("steps", cfg.steps)?;
    cfg.fault_density = args.usize_or("fault-density", cfg.fault_density as usize)? as u32;
    if !(1..=100).contains(&cfg.fault_density) {
        return Err(CliError::Usage(format!(
            "--fault-density is a percentage and must be in 1..=100, got {}",
            cfg.fault_density
        )));
    }
    cfg.sabotage = args.switch("sabotage");
    cfg.corpus_rows = args.usize_or("corpus-rows", cfg.corpus_rows)?;

    if scenarios > 1 {
        // Campaign mode: `seed` is the base seed each world derives
        // from. Any failing world is replayed and shrunk so the report
        // carries a directly actionable artifact.
        let report = run_sim_campaign(&cfg, seed, scenarios)?;
        let mut out = format!(
            "deterministic sim campaign: {} worlds from base seed {}, \
             {} steps x {} rows x {} stages each\n\
             requests {}: {} complete, {} flagged, {} shed, \
             {} transport errors, {} protocol errors\n\
             events: {} mutations, {} shard crashes, {} failovers, {} durable crashes, \
             {} ages, {} drifts; scrub heals {}\n\
             judged {} answers against brute force\n",
            report.scenarios,
            seed,
            cfg.steps,
            cfg.rows,
            cfg.stages,
            report.requests,
            report.complete,
            report.flagged,
            report.shed,
            report.transport_errors,
            report.protocol_errors,
            report.mutations,
            report.shard_crashes,
            report.failovers,
            report.durable_crashes,
            report.ages,
            report.drifts,
            report.scrub_heals,
            report.judged,
        );
        if report.corpus_judged > 0 || report.corpus_mutations > 0 {
            out.push_str(&format!(
                "corpus tier: judged {} restricted re-ranks, {} mutations, {} cache evictions\n",
                report.corpus_judged, report.corpus_mutations, report.corpus_evictions,
            ));
        }
        if report.failing_seeds.is_empty() {
            out.push_str("verdict: PASS (zero silent wrong answers)\n");
            return Ok(out);
        }
        out.push_str(&format!(
            "verdict: FAIL — {} failing seed(s): {:?}\n",
            report.failing_seeds.len(),
            report.failing_seeds
        ));
        // Shrink the first failing seed into a minimal reproducer.
        let mut failing = cfg;
        failing.seed = report.failing_seeds[0];
        let outcome = run_world(&failing)?;
        if let Some(artifact) = &outcome.failure {
            out.push_str(&sim_artifact_lines(artifact));
        }
        return Err(CliError::permanent(out));
    }

    let schedule = generate_schedule(&cfg);
    let outcome = run_world(&cfg)?;
    let mut out = format!(
        "deterministic sim: seed {}, {} steps, {} rows x {} stages over {} shards, \
         {} scheduled fault events\n{}",
        cfg.seed,
        cfg.steps,
        cfg.rows,
        cfg.stages,
        cfg.shards(),
        schedule.events.len(),
        sim_report_lines(&outcome.report),
    );
    match &outcome.failure {
        None => {
            out.push_str("verdict: PASS (zero silent wrong answers)\n");
            Ok(out)
        }
        Some(artifact) => {
            out.push_str("verdict: FAIL\n");
            out.push_str(&sim_artifact_lines(artifact));
            Err(CliError::permanent(out))
        }
    }
}

/// Two-tier corpus search demo: seeded clustered corpus, coarse
/// centroid pre-filter, exact packed re-rank from LRU-cached shard
/// snapshots — reporting recall@k against full brute force plus the
/// snapshot-cache counters.
fn corpus_search(args: &Args) -> Result<String, CliError> {
    use tdam::corpus::{CorpusBuilder, CorpusConfig};
    use tdam::serve::brute_force_topk;

    let rows = args.usize_or("rows", 4096)?;
    let stages = args.usize_or("stages", 32)?;
    let protos = args.usize_or("protos", 32)?.max(1);
    let shard_rows = args.usize_or("shard-rows", 256)?;
    let nprobe = args.usize_or("nprobe", 8)?;
    let queries = args.usize_or("queries", 32)?;
    let k = args.usize_or("k", 10)?;
    let seed = args.usize_or("seed", 7)? as u64;
    let cache_kb = args.usize_or("cache-kb", 4096)?;
    if rows == 0 || stages == 0 || queries == 0 || k == 0 {
        return Err(CliError::Usage(
            "--rows, --stages, --queries, and --k must all be positive".to_owned(),
        ));
    }

    let array = base_config(args)?.with_stages(stages);
    let levels = array.encoding.levels();

    // Clustered synthetic corpus: prototypes plus per-element noise, so
    // the coarse quantizer has structure to recover (recall over a
    // uniform corpus would just measure nprobe / shards).
    let mut rng = StdRng::seed_from_u64(seed);
    let proto_rows: Vec<Vec<u8>> = (0..protos)
        .map(|_| (0..stages).map(|_| rng.gen_range(0..levels)).collect())
        .collect();
    let corpus: Vec<Vec<u8>> = (0..rows)
        .map(|_| {
            let p = &proto_rows[rng.gen_range(0..protos)];
            p.iter()
                .map(|&v| {
                    if rng.gen_range(0..100u32) < 15 {
                        rng.gen_range(0..levels)
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();

    let ccfg = CorpusConfig {
        array,
        shard_rows,
        nprobe,
        cache_budget_bytes: cache_kb << 10,
        seed,
        ..CorpusConfig::paper_default()
    };
    let mut builder = CorpusBuilder::new(ccfg)?;
    builder.append_rows(&corpus)?;
    let mut engine = builder.build()?;

    let mut hits = 0usize;
    let mut total = 0usize;
    let mut probed_total = 0usize;
    for _ in 0..queries {
        let row = rng.gen_range(0..rows);
        let mut q = corpus[row].clone();
        for _ in 0..2 {
            let j = rng.gen_range(0..stages);
            q[j] = rng.gen_range(0..levels);
        }
        let (got, probed) = engine.search_topk_probed(&q, k)?;
        let expected = brute_force_topk(&corpus, array.encoding, &q, k)?;
        let want: std::collections::HashSet<usize> = expected.iter().map(|&(_, id)| id).collect();
        hits += got.iter().filter(|&&(_, id)| want.contains(&id)).count();
        total += expected.len();
        probed_total += probed.len();
    }

    let status = engine.status();
    Ok(format!(
        "two-tier corpus search: {} rows x {} stages over {} shards of {}, nprobe {}\n\
         recall@{}: {:.3} over {} queries ({}/{}); avg probed shards {:.1}\n\
         snapshot cache: {} resident ({} KiB of {} KiB budget), \
         {} hits, {} misses, {} evictions\n",
        status.rows,
        stages,
        status.clusters,
        shard_rows,
        status.nprobe,
        k,
        hits as f64 / total.max(1) as f64,
        queries,
        hits,
        total,
        probed_total as f64 / queries as f64,
        status.resident,
        status.resident_bytes >> 10,
        status.budget_bytes >> 10,
        status.stats.corpus_cache_hits,
        status.stats.corpus_cache_misses,
        status.stats.corpus_cache_evictions,
    ))
}

fn area(args: &Args) -> Result<String, CliError> {
    let stages = args.usize_or("stages", 64)?;
    let rows = args.usize_or("rows", 16)?;
    let c_load = args.f64_or("c-load-ff", 6.0)? * 1e-15;
    let model = AreaModel::at_node(40.0);
    let stage = StageArea::tdam(&model, c_load);
    let total = array_area(&model, rows, stages, c_load, 2);
    Ok(format!(
        "stage: cell {:.2} µm² + logic {:.2} µm² + load cap {:.2} µm² = {:.2} µm² ({:.2} µm²/bit)\n\
         array {rows}x{stages}: {:.1} µm² ({:.4} mm²)\n",
        stage.cell,
        stage.logic,
        stage.load_cap,
        stage.total(),
        stage.per_bit(2),
        total,
        total * 1e-6
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(toks: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(toks.iter().map(|s| s.to_string()))?;
        dispatch(&args)
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["--help"]).unwrap();
        assert!(out.contains("tdam-sim"));
        assert!(out.contains("SUBCOMMANDS"));
    }

    #[test]
    fn simulate_single_world_passes() {
        let out = run(&["simulate", "--seed", "42"]).unwrap();
        assert!(out.contains("verdict: PASS"), "{out}");
        assert!(out.contains("judged"), "{out}");
    }

    #[test]
    fn simulate_campaign_passes() {
        let out = run(&["simulate", "--seed", "12648430", "--scenarios", "25"]).unwrap();
        assert!(out.contains("25 worlds"), "{out}");
        assert!(out.contains("verdict: PASS"), "{out}");
    }

    #[test]
    fn simulate_sabotage_fails_with_artifact() {
        // The judge self-test: the CLI must fail loudly and carry a
        // directly replayable artifact (seed + minimized schedule).
        let err = run(&["simulate", "--seed", "7", "--sabotage"]).expect_err("sabotage");
        assert_eq!(err.class(), crate::ErrorClass::Permanent);
        let msg = err.to_string();
        assert!(msg.contains("verdict: FAIL"), "{msg}");
        assert!(msg.contains("silent wrong answer"), "{msg}");
        assert!(msg.contains("replay bit-identical: true"), "{msg}");
        assert!(msg.contains("tdam-sim simulate --seed 7"), "{msg}");
        assert!(msg.contains("minimized schedule"), "{msg}");
    }

    #[test]
    fn simulate_with_corpus_rows_reports_corpus_tier() {
        let out = run(&["simulate", "--seed", "42", "--corpus-rows", "48"]).unwrap();
        assert!(out.contains("verdict: PASS"), "{out}");
        assert!(out.contains("corpus tier: judged"), "{out}");
    }

    #[test]
    fn corpus_search_reports_recall_and_cache() {
        let out = run(&[
            "corpus-search",
            "--rows",
            "512",
            "--stages",
            "16",
            "--protos",
            "8",
            "--shard-rows",
            "64",
            "--nprobe",
            "4",
            "--queries",
            "8",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("two-tier corpus search"), "{out}");
        assert!(out.contains("recall@10"), "{out}");
        assert!(out.contains("snapshot cache"), "{out}");
    }

    #[test]
    fn simulate_validates_fault_density() {
        assert!(matches!(
            run(&["simulate", "--fault-density", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["simulate", "--fault-density", "101"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn search_end_to_end() {
        let out = run(&["search", "--store", "0,1,2,3;3,2,1,0", "--query", "0,1,2,2"]).unwrap();
        assert!(out.contains("best row: 0"), "{out}");
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn search_validates_shapes() {
        assert!(matches!(
            run(&["search", "--store", "0,1;0,1,2", "--query", "0,1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["search", "--query", "0,1"]),
            Err(CliError::Usage(_))
        ));
        // Element out of encoding range surfaces as a simulation error.
        assert!(matches!(
            run(&["search", "--store", "9,1", "--query", "0,1"]),
            Err(CliError::Simulation { .. })
        ));
    }

    #[test]
    fn mc_reports_margin() {
        let out = run(&["mc", "--stages", "16", "--runs", "50", "--sigma-mv", "20"]).unwrap();
        assert!(out.contains("within margin"), "{out}");
    }

    #[test]
    fn timing_analytic_and_flags() {
        let out = run(&["timing", "--vdd", "0.8", "--c-load-ff", "12"]).unwrap();
        assert!(out.contains("analytic"));
        assert!(out.contains("C_load = 12 fF"));
    }

    #[test]
    fn margins_lists_four_precisions() {
        let out = run(&["margins", "--sigma-mv", "45"]).unwrap();
        assert_eq!(out.lines().count(), 6); // header x2 + 4 precisions
    }

    #[test]
    fn area_reports_footprint() {
        let out = run(&["area", "--stages", "32", "--rows", "8"]).unwrap();
        assert!(out.contains("µm²"));
    }

    #[test]
    fn power_reports_leakage() {
        let out = run(&["power", "--stages", "32", "--rows", "8"]).unwrap();
        assert!(out.contains("static power"), "{out}");
        assert!(out.contains("W"));
    }

    #[test]
    fn faults_reports_campaign_point() {
        let out = run(&[
            "faults",
            "--rows",
            "4",
            "--stages",
            "16",
            "--trials",
            "2",
            "--queries",
            "4",
        ])
        .unwrap();
        assert!(out.contains("decode accuracy"), "{out}");
        assert!(out.contains("repair on"), "{out}");
    }

    #[test]
    fn faults_no_repair_and_kinds() {
        let out = run(&[
            "faults",
            "--rows",
            "4",
            "--stages",
            "16",
            "--trials",
            "2",
            "--queries",
            "4",
            "--kind",
            "sl-glitch",
            "--no-repair",
        ])
        .unwrap();
        assert!(out.contains("sl-glitch"), "{out}");
        assert!(out.contains("repair off"), "{out}");
        assert!(matches!(
            run(&["faults", "--kind", "gremlins"]),
            Err(CliError::Usage(_))
        ));
        // The campaign table prints "vth-drift"; accept it as an alias.
        let out = run(&[
            "faults",
            "--rows",
            "4",
            "--stages",
            "16",
            "--trials",
            "1",
            "--queries",
            "2",
            "--kind",
            "vth-drift",
        ])
        .unwrap();
        assert!(out.contains("vth-drift"), "{out}");
        assert!(matches!(
            run(&["faults", "--rate", "1.5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["faults", "--rate", "-0.1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bench_batch_verifies_and_reports() {
        let out = run(&[
            "bench-batch",
            "--rows",
            "4",
            "--stages",
            "16",
            "--batch",
            "8",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("results identical: yes"), "{out}");
        assert!(out.contains("packed rows: 4/4"), "{out}");
        assert!(matches!(
            run(&["bench-batch", "--batch", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_chaos_reports_availability() {
        let out = run(&[
            "serve-chaos",
            "--rows",
            "8",
            "--stages",
            "16",
            "--batches",
            "4",
            "--batch",
            "8",
            "--spares",
            "4",
        ])
        .unwrap();
        assert!(out.contains("availability"), "{out}");
        assert!(out.contains("silent wrong"), "{out}");
        // Same seed → bit-identical report text.
        let replay = run(&[
            "serve-chaos",
            "--rows",
            "8",
            "--stages",
            "16",
            "--batches",
            "4",
            "--batch",
            "8",
            "--spares",
            "4",
        ])
        .unwrap();
        assert_eq!(out, replay);
    }

    #[test]
    fn serve_chaos_validates_rates_and_honors_deadline() {
        assert!(matches!(
            run(&["serve-chaos", "--fault-rate", "1.5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve-chaos", "--panic-rate", "-0.2"]),
            Err(CliError::Usage(_))
        ));
        let out = run(&[
            "serve-chaos",
            "--rows",
            "4",
            "--stages",
            "16",
            "--batches",
            "2",
            "--batch",
            "8",
            "--fault-rate",
            "0",
            "--panic-rate",
            "0",
            "--deadline-queries",
            "3",
        ])
        .unwrap();
        // 2 batches x 8 queries with a 3-query budget: 6 answered, 10 expired.
        assert!(out.contains("6 answered, 10 timed out"), "{out}");
    }

    #[test]
    fn mutate_chaos_reports_and_replays_bit_identically() {
        let argv = [
            "mutate-chaos",
            "--rows",
            "8",
            "--stages",
            "16",
            "--batches",
            "4",
            "--batch",
            "8",
            "--writes",
            "2",
            "--panic-rate",
            "0",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("0 wrong, 0 silent wrong"), "{out}");
        assert!(out.contains("amplification"), "{out}");
        assert!(out.contains("incremental repacks"), "{out}");
        // Same seed → bit-identical report text (integer-only campaign).
        assert_eq!(out, run(&argv).unwrap());
    }

    #[test]
    fn mutate_chaos_validates_rates() {
        assert!(matches!(
            run(&["mutate-chaos", "--fault-rate", "2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["mutate-chaos", "--panic-rate", "nan"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn table1_renders() {
        let out = run(&["table1", "--queries", "5"]).unwrap();
        assert!(out.contains("This work"));
        assert_eq!(out.lines().count(), 7);
    }

    fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tdam-cli-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn checkpoint_then_restore_roundtrips() {
        let dir = checkpoint_dir("roundtrip");
        let dir_str = dir.to_str().expect("utf-8 temp dir");
        let out = run(&[
            "checkpoint",
            "--dir",
            dir_str,
            "--stages",
            "8",
            "--rows",
            "4",
            "--mutations",
            "2",
        ])
        .unwrap();
        assert!(out.contains("checkpoint generation 1"), "{out}");
        assert!(out.contains("2 post-checkpoint mutation(s)"), "{out}");

        let out = run(&["restore", "--dir", dir_str]).unwrap();
        assert!(out.contains("recovered generation 1 from"), "{out}");
        assert!(out.contains("2 journal op(s) replayed, 0 skipped"), "{out}");
        assert!(out.contains("known-answer probes: 4/4 rows exact"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_detects_damage_and_falls_back() {
        let dir = checkpoint_dir("damage");
        let dir_str = dir.to_str().expect("utf-8 temp dir");
        run(&[
            "checkpoint",
            "--dir",
            dir_str,
            "--stages",
            "8",
            "--rows",
            "4",
            "--mutations",
            "0",
        ])
        .unwrap();
        // Corrupt the only checkpoint's payload: recovery must refuse it.
        let ckpt = dir.join("ckpt-00000001.tdam");
        let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt, &bytes).expect("damage checkpoint");
        assert!(matches!(
            run(&["restore", "--dir", dir_str]),
            Err(CliError::Simulation { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_restore_require_dir() {
        assert!(matches!(run(&["checkpoint"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["restore"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_steady_reports_phase_and_shard_stats() {
        let out = run(&[
            "serve",
            "--rows",
            "48",
            "--stages",
            "16",
            "--rows-per-shard",
            "16",
            "--clients",
            "2",
            "--requests",
            "6",
            "--no-chaos",
        ])
        .unwrap();
        assert!(out.contains("sharded serving campaign"), "{out}");
        assert!(out.contains("steady"), "{out}");
        assert!(!out.contains("crash"), "--no-chaos runs steady only: {out}");
        assert!(out.contains("shard 0: rows 0..16"), "{out}");
        assert!(out.contains("shard 2: rows 32..48"), "{out}");
        assert!(out.contains("breaker trips"), "{out}");
        assert!(out.contains("0 silent") || out.contains(" 0 "), "{out}");
    }

    #[test]
    fn serve_chaos_campaign_recovers_and_reports_failover() {
        let out = run(&[
            "serve",
            "--rows",
            "48",
            "--stages",
            "16",
            "--rows-per-shard",
            "16",
            "--clients",
            "2",
            "--requests",
            "6",
            "--deadline-ms",
            "100",
        ])
        .unwrap();
        for phase in ["steady", "overload", "slow-shard", "crash", "recovered"] {
            assert!(out.contains(phase), "missing phase {phase}: {out}");
        }
        assert!(out.contains("failovers"), "{out}");
    }

    #[test]
    fn serve_load_requires_addr_and_validates_it() {
        assert!(matches!(run(&["serve-load"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["serve-load", "--addr", "not-an-addr"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_load_drives_a_live_front_end() {
        use std::sync::Arc;
        use tdam::serve::{seeded_corpus, FrontEnd, ServeConfig, ShardedService};

        let mut cfg = ServeConfig::paper_default();
        cfg.array = ArrayConfig::paper_default().with_stages(8);
        cfg.rows_per_shard = 10;
        let corpus = seeded_corpus(20, 8, 4, 31);
        let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
        let mut front =
            FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front-end");
        let out = run(&[
            "serve-load",
            "--addr",
            &front.addr().to_string(),
            "--clients",
            "2",
            "--requests",
            "5",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(
            out.contains("corpus 20 rows x 8 stages over 2 shard(s)"),
            "{out}"
        );
        assert!(out.contains("answered 10/10"), "{out}");
        assert!(out.contains("p99"), "{out}");
        front.shutdown();
    }

    #[test]
    fn serve_load_against_nothing_is_transient() {
        // A connection refusal is transient (the server may come back):
        // the exit-code contract maps it to EX_TEMPFAIL.
        let err = run(&["serve-load", "--addr", "127.0.0.1:1", "--requests", "1"])
            .expect_err("nothing listening");
        assert_eq!(err.class(), crate::ErrorClass::Transient, "{err:?}");
    }

    #[test]
    fn error_classes_map_to_exit_semantics() {
        // Usage problems are permanent; encoding violations (caller
        // bugs) are permanent; both exit non-retryable.
        let usage = run(&["frobnicate"]).unwrap_err();
        assert_eq!(usage.class(), crate::ErrorClass::Permanent);
        let sim = run(&["search", "--store", "9,1", "--query", "0,1"]).unwrap_err();
        assert_eq!(sim.class(), crate::ErrorClass::Permanent);
    }
}
