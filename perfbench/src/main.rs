//! End-to-end and per-layer benchmark of the tdam serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_tcp|corpus_hot|corpus_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run header, one line per metric, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` the
//! run records spans around calls into each layer and reports the
//! per-layer set (spans are written to `.perfbench_out/`). A failed
//! correctness gate exits 1; a usage error exits 2.

mod array_layers;
mod check;
mod corpus;
mod gen;
mod measure;
mod serve_tcp;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Trace;
use tdam::packed::PackedKernel;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
const END_TO_END: &[(&str, &str)] = &[
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A workload that does not reach a
/// layer reports 0 for it (listed as `n/a` in the text output).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.round_trip_us", "us"),
    ("serve.search_topk_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.unattributed_share", "ratio"),
    ("resilience.check_us", "us"),
    ("resilience.check_128x128_us", "us"),
    ("runtime.serve_us", "us"),
    ("array.snapshot_batch_us", "us"),
    ("runtime.self_us", "us"),
    ("parallel.snapshot_batch_us", "us"),
    ("parallel.speedup", "ratio"),
    ("runtime.store_us", "us"),
    ("runtime.epoch_swaps_per_1k", "count"),
    ("runtime.incremental_repacks_per_1k", "count"),
    ("runtime.recompiles_per_1k", "count"),
    ("runtime.health_checks_per_1k", "count"),
    ("corpus.search_us", "us"),
    ("corpus.probe_us", "us"),
    ("packed.shard_scan_us", "us"),
    ("corpus.rerank_select_us", "us"),
    ("corpus.rerank_rows_per_s", "1/s"),
    ("packed.kernel_rows_per_s", "1/s"),
    ("corpus.cache_hit_ratio", "ratio"),
    ("corpus.evictions_per_query", "count"),
    ("corpus.compile_us_per_miss", "us"),
    ("corpus.update_us", "us"),
    ("corpus.append_us", "us"),
    ("corpus.repacks_per_write", "count"),
    ("op.p50_us", "us"),
    ("op.write_p99_us", "us"),
    ("trace.qps", "1/s"),
    ("trace.untraced_qps", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Workloads by name.
const WORKLOADS: &[&str] = &["serve_tcp", "corpus_hot", "corpus_churn"];

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reads and writes).
    pub attempted: u64,
    /// Failures by kind (shed, error, partial, ...). Wrong answers are
    /// not failures here: they fail the run through a gate.
    pub failures: Vec<(&'static str, u64)>,
    /// Metric values by name (units come from the catalogues above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }
}

/// Traced-run rates: traced windows (even) against untraced (odd).
pub fn trace_rates(out: &mut Outcome, windows: &measure::Windows) {
    let traced = windows.select(|i| i % 2 == 0).sustained_rate();
    let untraced = windows.select(|i| i % 2 == 1).sustained_rate();
    out.metric("trace.qps", traced);
    out.metric("trace.untraced_qps", untraced);
    out.metric("trace.overhead_pct", 100.0 * (1.0 - traced / untraced));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The checkout's commit, read from `.git` in the working directory
/// (a plain source checkout has none).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.into()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".into(), |m| m.trim().to_string())
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        probe!(
            "popcnt",
            "bmi2",
            "avx2",
            "avx512f",
            "avx512bw",
            "avx512vpopcntdq"
        );
        flags.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

fn print_header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = PackedKernel::detect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# git_sha={}", git_sha());
    println!(
        "# cpu=\"{}\" flags={} nproc={nproc}",
        cpu_model(),
        cpu_flags()
    );
    println!(
        "# packed_kernel={} simd={} TDAM_PACKED_KERNEL={}",
        kernel.name(),
        if PackedKernel::Simd.is_available() {
            "on"
        } else {
            "off"
        },
        std::env::var("TDAM_PACKED_KERNEL").unwrap_or_else(|_| "unset".into())
    );
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: tdam-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = match args.workload.as_str() {
        "serve_tcp" => serve_tcp::run(&ctx),
        "corpus_hot" => corpus::run(&ctx, corpus::Mode::Hot),
        _ => corpus::run(&ctx, corpus::Mode::Churn),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            println!("# correctness gate FAILED: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::from(1);
        }
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    let failed = outcome.failed();
    let breakdown: Vec<String> = outcome
        .failures
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!(
        "# operations: attempted={} failed={failed} ({})",
        outcome.attempted,
        breakdown.join(" ")
    );
    if let Some(trace) = &outcome.trace {
        let path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match trace.write_tsv(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => println!("# spans: {} not written ({e})", trace.spans.len()),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let measured = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|m| m.1);
        let value = match measured {
            Some(v) if v.is_finite() => v,
            Some(v) if args.trace => {
                println!("# {name:<36} not finite ({v}): too few samples, reads 0");
                0.0
            }
            Some(v) => {
                println!("# metric {name} is not finite ({v})");
                return ExitCode::from(1);
            }
            None if args.trace => {
                println!("# {name:<36} n/a on this workload");
                0.0
            }
            None => {
                println!("# end-to-end metric {name} was not measured");
                return ExitCode::from(1);
            }
        };
        if measured.is_some() {
            println!("# {name:<36} {value:>16.4} {unit}");
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
