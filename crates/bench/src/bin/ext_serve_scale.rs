//! Extension: sharded serving front-end under load — throughput
//! degradation curve and guaranteed load shedding, judged against brute
//! force.
//!
//! Two experiments against the `tdam::serve` TCP front-end, the one
//! real-TCP, multi-threaded smoke of the serving path (failover under
//! crashes and slow shards is judged in the deterministic simulation,
//! `crates/tdam/tests/sim.rs`):
//!
//! 1. **Client sweep** — closed-loop clients at increasing concurrency
//!    against a healthy sharded service. Every complete reply is judged
//!    against `brute_force_topk` inline; the sweep reports the
//!    qps / p50 / p99 degradation curve with a 100%-accepted-correct
//!    gate.
//! 2. **Overload** — a deliberately starved deployment (one worker,
//!    one queue slot, an injected-slow shard) driven past capacity.
//!    The contract under overload is *explicit* shedding: clients see
//!    `Overloaded` replies, never silent tail latency; the run asserts
//!    sheds occurred and that every accepted answer was still correct.
//!
//! With `--save`, archives the human-readable run to
//! `results/ext_serve_scale.txt` and a machine-readable sidecar to
//! `results/BENCH_serve.json` (the CI artifact).
//!
//! Usage: `cargo run --release -p tdam-bench --bin ext_serve_scale [--quick] [--save]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdam::serve::{
    brute_force_topk, percentile, seeded_corpus, FrontEnd, ServeClient, ServeConfig, ServeError,
    ShardedService, ShedReason,
};
use tdam_bench::{quick_mode, rline, JsonMap, Report};

/// One closed-loop client pool's aggregate view of a drive.
#[derive(Debug, Default, Clone)]
struct Drive {
    sent: usize,
    answered: usize,
    complete: usize,
    correct_complete: usize,
    partial: usize,
    shed_queue: usize,
    shed_deadline: usize,
    errors: usize,
    latencies_us: Vec<u64>,
    wall: Duration,
}

impl Drive {
    fn qps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.sent as f64 / self.wall.as_secs_f64()
        }
    }

    fn p50_us(&mut self) -> u64 {
        percentile(&mut self.latencies_us, 50.0)
    }

    fn p99_us(&mut self) -> u64 {
        percentile(&mut self.latencies_us, 99.0)
    }

    fn sheds(&self) -> usize {
        self.shed_queue + self.shed_deadline
    }
}

/// Drives `clients` closed-loop client threads against `addr`, each
/// sending `requests` seeded queries (perturbed corpus rows), judging
/// every complete reply against brute force.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    corpus: &[Vec<u8>],
    encoding: tdam::encoding::Encoding,
    clients: usize,
    requests: usize,
    k: usize,
    deadline: Duration,
    seed: u64,
) -> Drive {
    let levels = encoding.levels() as u32;
    let stages = corpus[0].len();
    let t0 = Instant::now();
    let tallies: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Drive::default();
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + c as u64));
                    let mut client = match ServeClient::connect(addr) {
                        Ok(cl) => cl,
                        Err(_) => {
                            tally.errors = requests;
                            return tally;
                        }
                    };
                    for _ in 0..requests {
                        let base = rng.gen_range(0..corpus.len());
                        let mut query = corpus[base].clone();
                        // Perturb a couple of stages so queries are not
                        // pure exact matches.
                        for _ in 0..2 {
                            let s = rng.gen_range(0..stages);
                            query[s] = rng.gen_range(0..levels) as u8;
                        }
                        tally.sent += 1;
                        let q0 = Instant::now();
                        match client.query(&query, k, deadline) {
                            Ok(topk) => {
                                tally.answered += 1;
                                tally.latencies_us.push(q0.elapsed().as_micros() as u64);
                                if topk.complete() {
                                    tally.complete += 1;
                                    let reference = brute_force_topk(corpus, encoding, &query, k)
                                        .expect("brute force");
                                    if topk.neighbors == reference {
                                        tally.correct_complete += 1;
                                    }
                                } else {
                                    tally.partial += 1;
                                }
                            }
                            Err(ServeError::Overloaded(ShedReason::QueueFull)) => {
                                tally.shed_queue += 1;
                            }
                            Err(ServeError::Overloaded(ShedReason::DeadlineExpired)) => {
                                tally.shed_deadline += 1;
                            }
                            Err(_) => {
                                tally.errors += 1;
                                // The connection may be poisoned; dial a
                                // fresh one and keep the loop closed.
                                if let Ok(cl) = ServeClient::connect(addr) {
                                    client = cl;
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let mut total = Drive {
        wall: t0.elapsed(),
        ..Drive::default()
    };
    for t in tallies {
        total.sent += t.sent;
        total.answered += t.answered;
        total.complete += t.complete;
        total.correct_complete += t.correct_complete;
        total.partial += t.partial;
        total.shed_queue += t.shed_queue;
        total.shed_deadline += t.shed_deadline;
        total.errors += t.errors;
        total.latencies_us.extend(t.latencies_us);
    }
    total
}

fn main() {
    let quick = quick_mode();
    // Scatter cost grows with rows x stages; the grids keep one query's
    // full scatter well inside the 250 ms deadline so the sweep measures
    // throughput, not deadline clipping.
    let (rows, stages, rows_per_shard, requests, sweep): (usize, usize, usize, usize, &[usize]) =
        if quick {
            (72, 16, 24, 12, &[1, 2, 4])
        } else {
            (96, 16, 24, 24, &[1, 2, 4, 8])
        };
    let k = 5;
    let seed = 0x5E21_u64;
    let deadline = Duration::from_millis(250);
    let mut rpt = Report::new("ext_serve_scale");

    let mut cfg = ServeConfig::paper_default();
    cfg.array = cfg.array.with_stages(stages);
    cfg.rows_per_shard = rows_per_shard;
    cfg.workers = 4;
    cfg.queue_capacity = 64;
    let levels = cfg.array.encoding.levels();
    let corpus = seeded_corpus(rows, stages, levels, seed);

    // ------------------------------------------------------------------
    // 1. Client sweep: qps / p50 / p99 degradation curve, judged inline.
    // ------------------------------------------------------------------
    rpt.header(&format!(
        "client sweep: {rows}x{stages} corpus, {} shards, k={k}",
        rows.div_ceil(rows_per_shard)
    ));
    let service = Arc::new(ShardedService::new(&cfg, &corpus, None).expect("service"));
    let encoding = service.encoding();
    let mut front = FrontEnd::start(Arc::clone(&service), &cfg, "127.0.0.1:0").expect("front");
    let addr = front.addr();

    rline!(
        rpt,
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>9} {:>7}",
        "clients",
        "sent",
        "qps",
        "p50_us",
        "p99_us",
        "correct",
        "sheds"
    );
    let mut sweep_rows = Vec::new();
    let mut sweep_correct = true;
    for &clients in sweep {
        let mut d = drive(
            addr, &corpus, encoding, clients, requests, k, deadline, seed,
        );
        sweep_correct &= d.correct_complete == d.complete && d.errors == 0;
        let (p50, p99) = (d.p50_us(), d.p99_us());
        rline!(
            rpt,
            "{clients:>8} {:>8} {:>10.0} {p50:>10} {p99:>10} {:>5}/{:<3} {:>7}",
            d.sent,
            d.qps(),
            d.correct_complete,
            d.complete,
            d.sheds()
        );
        sweep_rows.push(
            JsonMap::new()
                .int("clients", clients as i64)
                .int("sent", d.sent as i64)
                .int("answered", d.answered as i64)
                .num("qps", d.qps())
                .int("p50_us", p50 as i64)
                .int("p99_us", p99 as i64)
                .int("complete", d.complete as i64)
                .int("correct_complete", d.correct_complete as i64)
                .int("sheds", d.sheds() as i64)
                .int("errors", d.errors as i64),
        );
    }
    front.shutdown();
    rline!(
        rpt,
        "accepted-correct gate (every complete reply == brute force): {}",
        if sweep_correct { "PASS" } else { "FAIL" }
    );
    assert!(
        sweep_correct,
        "sweep returned a complete reply that differs from brute force"
    );

    // ------------------------------------------------------------------
    // 2. Overload: a starved deployment must shed explicitly.
    // ------------------------------------------------------------------
    rpt.header("overload: 1 worker, 1 queue slot, injected-slow shard");
    let mut starving = ServeConfig::paper_default();
    starving.array = starving.array.with_stages(stages);
    starving.rows_per_shard = rows_per_shard;
    starving.workers = 1;
    starving.queue_capacity = 1;
    // The slow shard must not trip its breaker mid-run: this experiment
    // measures admission control, not failover.
    starving.shard_breaker_threshold = 1_000_000;
    let service = Arc::new(ShardedService::new(&starving, &corpus, None).expect("service"));
    service.inject_slow(0, Some(Duration::from_millis(5)));
    let mut front = FrontEnd::start(Arc::clone(&service), &starving, "127.0.0.1:0").expect("front");
    let burst_clients = if quick { 6 } else { 8 };
    let mut d = drive(
        front.addr(),
        &corpus,
        encoding,
        burst_clients,
        requests,
        k,
        Duration::from_millis(40),
        seed ^ 0xBEEF,
    );
    front.shutdown();
    let (p50, p99) = (d.p50_us(), d.p99_us());
    rline!(
        rpt,
        "sent {} | answered {} | shed queue-full {} | shed deadline {} | errors {}",
        d.sent,
        d.answered,
        d.shed_queue,
        d.shed_deadline,
        d.errors
    );
    rline!(
        rpt,
        "answered p50 {p50} us, p99 {p99} us, {:.0} qps",
        d.qps()
    );
    rline!(
        rpt,
        "explicit-shed gate (overload produces Overloaded replies, not tail latency): {}",
        if d.sheds() > 0 { "PASS" } else { "FAIL" }
    );
    assert!(d.sheds() > 0, "starved deployment shed nothing");
    assert_eq!(
        d.correct_complete, d.complete,
        "overload returned a silent wrong answer"
    );
    let overload_json = JsonMap::new()
        .int("clients", burst_clients as i64)
        .int("sent", d.sent as i64)
        .int("answered", d.answered as i64)
        .int("shed_queue", d.shed_queue as i64)
        .int("shed_deadline", d.shed_deadline as i64)
        .int("errors", d.errors as i64)
        .int("p99_us", p99 as i64)
        .int("complete", d.complete as i64)
        .int("correct_complete", d.correct_complete as i64);

    rpt.finish();

    JsonMap::new()
        .str(
            "scenario",
            &format!(
                "{rows}x{stages} corpus, {} shards, k={k}",
                rows.div_ceil(rows_per_shard)
            ),
        )
        .obj(
            "config",
            JsonMap::new()
                .int("rows", rows as i64)
                .int("stages", stages as i64)
                .int("rows_per_shard", rows_per_shard as i64)
                .int("requests_per_client", requests as i64)
                .int("k", k as i64)
                .int("deadline_ms", deadline.as_millis() as i64)
                .bool("quick", quick),
        )
        .arr("sweep", sweep_rows)
        .bool("accepted_correct", sweep_correct)
        .obj("overload", overload_json)
        .finish("BENCH_serve");
}
