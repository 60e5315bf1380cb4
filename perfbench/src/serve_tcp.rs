//! `serve_tcp`: the sharded service behind its TCP front-end on
//! loopback, driven closed-loop by two client connections (one thread
//! each, one outstanding request per connection, as the wire protocol
//! allows). No corpus tier, so every request scatters to every shard.
//! The traced run also times the batched runtime path on a 128x128
//! engine ([`array_layers`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdam::resilience::ResilientArray;
use tdam::serve::{
    brute_force_topk, read_frame, seeded_corpus, write_frame, FrontEnd, Reply, Request,
    ServeClient, ServeConfig, ServeError, ShardedService,
};

use crate::array_layers;
use crate::check::{same_topk, Recall};
use crate::gen::Rng;
use crate::measure::{
    median, repeated_setup, tail_p99, traced_window, OpLog, Trace, Windows, STALL_ROBUST,
};
use crate::{trace_rates, Ctx, Outcome};

/// Shards of `ServeConfig::paper_default()` geometry.
const SHARDS: usize = 16;
/// Load connections (one thread each).
const CLIENTS: usize = 2;
/// Neighbours per query.
const K: usize = 10;
/// Client deadline per request: well above the ~88 ms round trip, so a
/// contended host shows in the latencies instead of as partial answers.
const DEADLINE: Duration = Duration::from_secs(1);
/// Requests per rate window.
const WINDOW: usize = 8;
/// Set-ups are repeated for at least this long and this many times
/// (see [`repeated_setup`]).
const SETUP_SECONDS: f64 = 2.0;
const MIN_SETUPS: usize = 5;
/// Queries timed in-process per layer in a traced run.
const LAYER_QUERIES: usize = 300;
/// `ResilientArray::check` calls timed in a traced run.
const CHECKS: usize = 20;

/// One client thread's tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    shed: u64,
    errors: u64,
    partial: u64,
    recall: Recall,
    wrong: Option<String>,
}

struct Deployment {
    service: Arc<ShardedService>,
    front: FrontEnd,
    clients: Vec<ServeClient>,
}

fn deploy(cfg: &ServeConfig, corpus: &[Vec<u8>], warm: &[u8]) -> Result<Deployment, String> {
    let service = Arc::new(ShardedService::new(cfg, corpus, None).map_err(|e| e.to_string())?);
    let front =
        FrontEnd::start(Arc::clone(&service), cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut client = ServeClient::connect(front.addr()).map_err(|e| e.to_string())?;
        // Warm-up: the first request compiles every shard's snapshot.
        client
            .query(warm, K, DEADLINE)
            .map_err(|e| format!("warm-up query: {e}"))?;
        clients.push(client);
    }
    Ok(Deployment {
        service,
        front,
        clients,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = ServeConfig::paper_default();
    let rows = SHARDS * cfg.rows_per_shard;
    let stages = cfg.array.stages;
    let encoding = cfg.array.encoding;
    let levels = encoding.levels();
    let corpus = seeded_corpus(rows, stages, levels, ctx.seed);

    let (deployment, setup_s) = repeated_setup(MIN_SETUPS, SETUP_SECONDS, || {
        deploy(&cfg, &corpus, &corpus[0])
    })?;
    let Deployment {
        service,
        mut front,
        clients,
    } = deployment;

    // Timed phase: closed loop on every connection.
    let addr = front.addr();
    let seq = AtomicU64::new(0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(ctx.seconds);
    let results: Vec<(Tally, OpLog, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (corpus, seq) = (&corpus, &seq);
                scope.spawn(move || {
                    let mut rng = Rng::new(ctx.seed, 0x5E_0000 + c as u64);
                    let (mut tally, mut log, mut trace) =
                        (Tally::default(), OpLog::new(t0), Trace::new());
                    while Instant::now() < end {
                        let query = rng.near(corpus, 2, levels);
                        tally.attempted += 1;
                        let start = Instant::now();
                        let answer = client.query(&query, K, DEADLINE);
                        let s = seq.fetch_add(1, Ordering::Relaxed);
                        match answer {
                            Ok(topk) if !topk.complete() => tally.partial += 1,
                            Ok(topk) => {
                                log.read(s, start);
                                if ctx.trace && traced_window(s, WINDOW) {
                                    trace.record("serve.round_trip", s, start);
                                }
                                let checked = log.exclude(|| {
                                    let want = brute_force_topk(corpus, encoding, &query, K)
                                        .expect("valid query");
                                    tally.recall.add(&topk.neighbors, &want);
                                    same_topk("serve_tcp", &topk.neighbors, &want)
                                });
                                if let Err(e) = checked {
                                    tally.wrong = Some(e);
                                    break;
                                }
                            }
                            Err(ServeError::Overloaded(_)) => tally.shed += 1,
                            Err(_) => {
                                tally.errors += 1;
                                match ServeClient::connect(addr) {
                                    Ok(cl) => client = cl,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    (tally, log, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    front.shutdown();
    drop(front);

    let mut out = Outcome::default();
    let (mut ops, mut trace, mut recall) = (Vec::new(), Trace::new(), Recall::default());
    let (mut shed, mut errors, mut partial) = (0, 0, 0);
    for (tally, log, t) in results {
        if let Some(e) = tally.wrong {
            return Err(e);
        }
        out.attempted += tally.attempted;
        shed += tally.shed;
        errors += tally.errors;
        partial += tally.partial;
        recall.hits += tally.recall.hits;
        recall.total += tally.recall.total;
        ops.extend(log.reads);
        trace.absorb(t);
    }
    out.failures = vec![
        ("shed", shed),
        ("error", errors),
        ("partial", partial),
        ("wrong", 0),
    ];
    if ops.len() < 2 * WINDOW {
        return Err(format!("serve_tcp: only {} complete answers", ops.len()));
    }
    ops.sort_unstable_by_key(|o| o.seq);
    let windows = Windows::cut(&ops, WINDOW, 1.0);
    let mut lats: Vec<f64> = ops.iter().map(|o| o.lat_us).collect();
    out.note(format!(
        "load: {CLIENTS} connections closed-loop, server workers={} queue={}, \
         {SHARDS} shards x {} rows x {stages} stages, k={K}, {} windows of {WINDOW}",
        cfg.workers,
        cfg.queue_capacity,
        cfg.rows_per_shard,
        windows.rates.len()
    ));
    out.note(format!("p99 over {} round trips", lats.len()));

    if !ctx.trace {
        out.metric("qps", windows.sustained_rate());
        out.metric("p50_us", windows.slow_phase_median());
        out.metric("p99_us", tail_p99(&lats, STALL_ROBUST));
        out.metric("recall_at_10", recall.value());
        out.metric("setup_s", setup_s);
        out.metric("rss_mb", crate::measure::peak_rss_mb());
        return Ok(out);
    }

    // Traced run: per-layer calls on the same query distribution.
    let round_trip = trace.p50("serve.round_trip");
    let mut rng = Rng::new(ctx.seed, 0x5E_2000);
    for i in 0..LAYER_QUERIES as u64 {
        let query = rng.near(&corpus, 2, levels);
        let topk = trace.span("serve.search_topk", i, || {
            service.search_topk(&query, K, DEADLINE)
        });
        let topk = topk.map_err(|e| e.to_string())?;
        trace.span("serve.codec", i, || codec_round(&query, &topk));
    }
    let search = trace.p50("serve.search_topk");
    let codec = trace.p50("serve.codec");
    let check = check_us(&cfg, &corpus[..cfg.rows_per_shard], &mut trace)?;
    out.metric("serve.round_trip_us", round_trip);
    out.metric("serve.search_topk_us", search);
    out.metric("serve.codec_us", codec);
    out.metric(
        "serve.unattributed_share",
        1.0 - (search + codec) / round_trip,
    );
    out.metric("resilience.check_us", check);
    out.metric("op.p50_us", median(&mut lats));
    trace_rates(&mut out, &windows);
    let (attempted, failed) = array_layers::layers(ctx.seed, &mut out, &mut trace)?;
    out.attempted += attempted;
    out.failures.push(("array_failed", failed));
    out.trace = Some(trace);
    Ok(out)
}

/// Encodes and decodes one request and its reply through in-memory
/// frames, as a connection would.
fn codec_round(query: &[u8], topk: &tdam::serve::TopK) {
    let request = Request::Query {
        query: query.to_vec(),
        k: K,
        deadline_us: DEADLINE.as_micros() as u64,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("frame to memory");
    let frame = read_frame(&mut wire.as_slice())
        .expect("read")
        .expect("frame");
    let decoded = Request::decode(&frame).expect("request decodes");
    std::hint::black_box(decoded);
    let mut wire = Vec::new();
    write_frame(&mut wire, &Reply::TopK(topk.clone()).encode()).expect("frame to memory");
    let frame = read_frame(&mut wire.as_slice())
        .expect("read")
        .expect("frame");
    let decoded = Reply::decode(&frame).expect("reply decodes");
    std::hint::black_box(decoded);
}

/// Median `ResilientArray::check` time on one shard-sized array
/// holding `rows`.
fn check_us(cfg: &ServeConfig, rows: &[Vec<u8>], trace: &mut Trace) -> Result<f64, String> {
    let mut shard = ResilientArray::new(cfg.array.with_rows(rows.len()), cfg.resilience)
        .map_err(|e| e.to_string())?;
    for (r, values) in rows.iter().enumerate() {
        shard.store(r, values).map_err(|e| e.to_string())?;
    }
    for i in 0..CHECKS as u64 {
        trace
            .span("resilience.check", i, || shard.check())
            .map_err(|e| e.to_string())?;
    }
    Ok(trace.p50("resilience.check"))
}
