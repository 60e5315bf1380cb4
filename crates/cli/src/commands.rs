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

/// One closed-loop load run, folded over its client threads.
#[derive(Default)]
struct LoadTally {
    answered: usize,
    partial: usize,
    degraded: usize,
    shed_queue: usize,
    shed_deadline: usize,
    errors: usize,
    /// Complete answers that differed from brute force (judged runs).
    silent_wrong: usize,
    latencies_us: Vec<u64>,
}

impl LoadTally {
    fn absorb(&mut self, other: Self) {
        self.answered += other.answered;
        self.partial += other.partial;
        self.degraded += other.degraded;
        self.shed_queue += other.shed_queue;
        self.shed_deadline += other.shed_deadline;
        self.errors += other.errors;
        self.silent_wrong += other.silent_wrong;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// The closed-loop client driver behind `serve` and `serve-load`:
/// `clients` threads against `addr`, each sending `requests` seeded
/// queries shaped by `info`. With `judge` set to the served corpus,
/// every complete answer is compared with brute force over it. Returns
/// the run's text report and its tally.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: std::net::SocketAddr,
    info: &tdam::serve::InfoReply,
    clients: usize,
    requests: usize,
    k: usize,
    deadline: std::time::Duration,
    seed: u64,
    judge: Option<(&[Vec<u8>], Encoding)>,
) -> Result<(String, LoadTally), CliError> {
    use tdam::serve::{brute_force_topk, percentile, ServeClient, ServeError, ShedReason};

    let started = std::time::Instant::now();
    let tallies: Vec<LoadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<LoadTally, CliError> {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                    let mut client = ServeClient::connect(addr)?;
                    let mut tally = LoadTally::default();
                    for _ in 0..requests {
                        let query: Vec<u8> = (0..info.stages)
                            .map(|_| rng.gen_range(0..info.levels as u8))
                            .collect();
                        let sent = std::time::Instant::now();
                        match client.query(&query, k, deadline) {
                            Ok(topk) => {
                                tally.latencies_us.push(sent.elapsed().as_micros() as u64);
                                tally.answered += 1;
                                tally.partial += usize::from(topk.partial);
                                tally.degraded += usize::from(topk.degraded);
                                if let Some((corpus, encoding)) = judge {
                                    let expected = brute_force_topk(corpus, encoding, &query, k)?;
                                    if topk.complete() && topk.neighbors != expected {
                                        tally.silent_wrong += 1;
                                    }
                                }
                            }
                            Err(ServeError::Overloaded(ShedReason::QueueFull)) => {
                                tally.shed_queue += 1;
                            }
                            Err(ServeError::Overloaded(ShedReason::DeadlineExpired)) => {
                                tally.shed_deadline += 1;
                            }
                            Err(e) => {
                                tally.errors += 1;
                                if matches!(e, ServeError::Io(_) | ServeError::Protocol(_)) {
                                    // The connection may be poisoned:
                                    // keep the loop closed on a fresh one.
                                    client = ServeClient::connect(addr)?;
                                }
                            }
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

    let mut tally = LoadTally::default();
    for t in tallies {
        tally.absorb(t);
    }
    let total = clients * requests;
    let qps = total as f64 / elapsed.as_secs_f64().max(1e-9);
    let text = format!(
        "{} client(s) x {} request(s) closed-loop, k={k}, deadline {:?}\n\
         answered {}/{total} ({} partial, {} degraded)\n\
         shed: {} queue-full, {} deadline   errors: {}\n\
         throughput {qps:.0} qps   p50 {} µs   p99 {} µs\n",
        clients,
        requests,
        deadline,
        tally.answered,
        tally.partial,
        tally.degraded,
        tally.shed_queue,
        tally.shed_deadline,
        tally.errors,
        percentile(&mut tally.latencies_us, 50.0),
        percentile(&mut tally.latencies_us, 99.0),
    );
    Ok((text, tally))
}

fn serve(args: &Args) -> Result<String, CliError> {
    use std::sync::Arc;
    use tdam::serve::{seeded_corpus, FrontEnd, InfoReply, ServeConfig, ShardedService};

    let mut cfg = ServeConfig::paper_default();
    cfg.array = base_config(args)?.with_stages(args.usize_or("stages", 16)?);
    cfg.rows_per_shard = args.usize_or("rows-per-shard", 24)?;
    cfg.workers = args.usize_or("workers", 4)?;
    cfg.queue_capacity = args.usize_or("queue-capacity", 16)?;
    let rows = args.usize_or("rows", 96)?;
    let clients = args.usize_or("clients", 3)?.max(1);
    let requests = args.usize_or("requests", 12)?;
    let k = args.usize_or("k", 5)?;
    let seed = args.usize_or("seed", 7)? as u64;
    let deadline = std::time::Duration::from_millis(args.usize_or("deadline-ms", 250)? as u64);

    let encoding = cfg.array.encoding;
    let corpus = seeded_corpus(rows, cfg.array.stages, encoding.levels(), seed);
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None)?);
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0")?;
    let info = InfoReply {
        stages: cfg.array.stages,
        levels: usize::from(encoding.levels()),
        rows,
        shards: service.map().shards(),
    };
    let run = closed_loop(
        front.addr(),
        &info,
        clients,
        requests,
        k,
        deadline,
        seed.wrapping_add(1),
        Some((&corpus, encoding)),
    );
    let front_stats = front.front_stats();
    front.shutdown();
    let (load, tally) = run?;

    let service_stats = service.service_stats();
    let mut out = format!(
        "sharded serving: {rows} rows x {} stages, {} rows/shard, {} workers, queue {}, \
         seed {seed:#x}\n{load}\
         judge: {} complete answer(s) differed from brute force\n\
         service: {} requests, {} complete, {} partial, {} degraded; {} shard downs\n\
         front-end: {} connections, {} received, {} answered, \
         {} shed (queue {}, deadline {}), {} errors\n",
        cfg.array.stages,
        cfg.rows_per_shard,
        cfg.workers,
        cfg.queue_capacity,
        tally.silent_wrong,
        service_stats.requests,
        service_stats.complete,
        service_stats.partial,
        service_stats.degraded,
        service_stats.shard_downs,
        front_stats.connections,
        front_stats.received,
        front_stats.answered,
        front_stats.shed_queue + front_stats.shed_deadline,
        front_stats.shed_queue,
        front_stats.shed_deadline,
        front_stats.errors
    );
    for (ix, s) in service.shard_statuses().iter().enumerate() {
        out.push_str(&format!(
            "shard {ix}: rows {}..{} {} backend {:?}  \
             {} queries, {} retries, {} breaker trips, {} health checks ({} missed), \
             {} repairs\n",
            s.base,
            s.base + s.rows,
            if s.down { "DOWN" } else { "up  " },
            s.backend,
            s.stats.queries,
            s.stats.retries,
            s.stats.breaker_trips,
            s.stats.health_checks,
            s.stats.health_misses,
            s.stats.repairs,
        ));
    }
    if tally.silent_wrong > 0 {
        return Err(CliError::permanent(format!(
            "{out}FAILED: {} silent wrong answer(s): a complete answer differed from brute force",
            tally.silent_wrong
        )));
    }
    Ok(out)
}

fn serve_load(args: &Args) -> Result<String, CliError> {
    use tdam::serve::ServeClient;

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
    let (load, _) = closed_loop(addr, &info, clients, requests, k, deadline, seed, None)?;
    Ok(format!(
        "serve-load against {addr}: corpus {} rows x {} stages over {} shard(s)\n{load}",
        info.rows, info.stages, info.shards,
    ))
}

/// Renders one world's report as the CLI's stable text form.
fn sim_report_lines(report: &tdam::sim::SimReport) -> String {
    let mut out = format!(
        "requests {}: {} complete, {} partial, {} degraded, {} shed, \
         {} transport errors, {} protocol errors, {} server errors\n\
         events: {} mutations, {} shard crashes, {} failovers, {} durable crashes, \
         {} disk faults, {} checkpoints, {} ages, {} drifts, {} scrubs, {} reorders, \
         {} cell faults, {} panic injections\n\
         wear: {} rotations, {} refresh rewrites\n\
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
        report.cell_faults,
        report.panics_armed,
        report.wear_rotations,
        report.refresh_rewrites,
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
    use tdam::sim::SimConfig;

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

    // The worlds' injected worker panics are caught and retried by the
    // shard runtimes; keep the default hook from printing each one.
    // Any other panic still reports.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&tdam::runtime::INJECTED_PANIC) {
            report_panic(info);
        }
    }));
    let out = simulate_worlds(cfg, seed, scenarios);
    drop(std::panic::take_hook());
    out
}

fn simulate_worlds(
    cfg: tdam::sim::SimConfig,
    seed: u64,
    scenarios: usize,
) -> Result<String, CliError> {
    use tdam::sim::{generate_schedule, run_sim_campaign, simulate as run_world};

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
             {} ages, {} drifts, {} cell faults, {} panic injections; scrub heals {}\n\
             wear: {} rotations, {} refresh rewrites\n\
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
            report.cell_faults,
            report.panics_armed,
            report.scrub_heals,
            report.wear_rotations,
            report.refresh_rewrites,
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
    fn serve_judges_a_steady_closed_loop() {
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
        ])
        .unwrap();
        assert!(
            out.contains("sharded serving: 48 rows x 16 stages"),
            "{out}"
        );
        assert!(out.contains("answered 12/12"), "{out}");
        assert!(
            out.contains("judge: 0 complete answer(s) differed"),
            "{out}"
        );
        assert!(out.contains("shard 0: rows 0..16"), "{out}");
        assert!(out.contains("shard 2: rows 32..48"), "{out}");
        assert!(out.contains("breaker trips"), "{out}");
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
