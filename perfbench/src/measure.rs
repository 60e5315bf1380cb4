//! Measurement primitives shared by every workload: the timed-phase
//! operation log and its window statistics, nearest-rank percentiles,
//! in-memory trace spans, and peak resident memory.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// [`tail_p99`] segment percentile that ignores host stalls covering up
/// to 40% of a run: the median segment.
pub const STALL_ROBUST: f64 = 50.0;

/// The 99th percentile, robust to host stalls: the samples (in time
/// order) are cut into ten consecutive segments, and the `segment_pct`
/// percentile of the segments' 99th percentiles is reported. A stall
/// that covers more than 1% of a run moves a pooled p99 wholesale.
pub fn tail_p99(samples: &[f64], segment_pct: f64) -> f64 {
    const SEGMENTS: usize = 10;
    let len = samples.len().div_ceil(SEGMENTS).max(1);
    let mut per: Vec<f64> = samples
        .chunks(len)
        .map(|c| percentile(&mut c.to_vec(), 99.0))
        .collect();
    percentile(&mut per, segment_pct)
}

/// Runs `setup` at least `min` times and for at least `seconds`, so that
/// the set-ups span several host phases, dropping each result before the
/// next build. Returns the last result and the median set-up time,
/// seconds.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn repeated_setup<T>(
    min: usize,
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let phase = Instant::now();
    while times.len() < min || phase.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let (built, us) = timed(&mut setup);
        last = Some(built?);
        times.push(us / 1e6);
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, median(&mut times)))
}

/// Microseconds in `d`, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, us(t0.elapsed()))
}

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Completion order across all load threads.
    pub seq: u64,
    /// Completion time, seconds since the phase started, with the
    /// benchmark's own checking time taken out.
    pub end_s: f64,
    /// Operation latency, microseconds.
    pub lat_us: f64,
}

/// Window statistics of a timed phase. The phase is cut into windows of
/// `window` consecutive operations; each window's rate is its operations
/// (times `items_per_op`) over its wall time.
#[derive(Debug, Clone)]
pub struct Windows {
    /// Per-window rates, items per second, in phase order.
    pub rates: Vec<f64>,
    /// Per-window median latency, microseconds, in phase order.
    pub medians: Vec<f64>,
}

impl Windows {
    /// Cuts `ops` (any order) into windows of `window` operations.
    /// A trailing partial window is dropped.
    pub fn cut(ops: &[Op], window: usize, items_per_op: f64) -> Self {
        let mut ops = ops.to_vec();
        ops.sort_unstable_by_key(|o| o.seq);
        let mut rates = Vec::new();
        let mut medians = Vec::new();
        let mut prev_end = 0.0;
        for chunk in ops.chunks_exact(window) {
            let end = chunk.iter().map(|o| o.end_s).fold(prev_end, f64::max);
            let span = end - prev_end;
            if span > 0.0 {
                rates.push(window as f64 * items_per_op / span);
            }
            let mut lats: Vec<f64> = chunk.iter().map(|o| o.lat_us).collect();
            medians.push(median(&mut lats));
            prev_end = end;
        }
        Self { rates, medians }
    }

    /// Keeps only the windows whose index satisfies `keep`.
    pub fn select(&self, keep: impl Fn(usize) -> bool) -> Self {
        let pick = |v: &[f64]| {
            v.iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, x)| *x)
                .collect()
        };
        Self {
            rates: pick(&self.rates),
            medians: pick(&self.medians),
        }
    }

    /// The sustained rate: the 10th-percentile window's rate, i.e. the
    /// rate the program holds through the host's slow phases.
    pub fn sustained_rate(&self) -> f64 {
        percentile(&mut self.rates.clone(), 10.0)
    }

    /// The slow-phase median latency: the 90th percentile of the
    /// per-window medians.
    pub fn slow_phase_median(&self) -> f64 {
        percentile(&mut self.medians.clone(), 90.0)
    }
}

/// Whether operation `seq` of a traced run falls in a traced window.
/// Traced runs alternate windows with span recording on (even windows)
/// and off (odd windows), so both rates come from the same host phases.
pub fn traced_window(seq: u64, window: usize) -> bool {
    (seq / window as u64).is_multiple_of(2)
}

/// Per-thread recorder of a timed phase's operations. Time spent in the
/// benchmark's own correctness checks is excluded via [`OpLog::exclude`].
#[derive(Debug)]
pub struct OpLog {
    t0: Instant,
    excluded: Duration,
    /// Completed read operations.
    pub reads: Vec<Op>,
}

impl OpLog {
    /// A log whose phase starts at `t0`.
    pub fn new(t0: Instant) -> Self {
        Self {
            t0,
            excluded: Duration::ZERO,
            reads: Vec::new(),
        }
    }

    /// Seconds since the phase started, net of excluded time.
    pub fn now_s(&self) -> f64 {
        (self.t0.elapsed() - self.excluded).as_secs_f64()
    }

    /// Records a completed read with its start instant.
    pub fn read(&mut self, seq: u64, started: Instant) {
        let lat_us = us(started.elapsed());
        let end_s = self.now_s();
        self.reads.push(Op { seq, end_s, lat_us });
    }

    /// Runs `f` (checking work) with its time taken out of the phase.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.excluded += t.elapsed();
        r
    }
}

/// A span recorded by the benchmark around a call into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `corpus.probe`.
    pub name: &'static str,
    /// Operation (request) the span belongs to.
    pub op: u64,
    /// Start, microseconds since the trace began.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant) {
        self.spans.push(Span {
            name,
            op,
            start_us: us(start.duration_since(self.t0)),
            dur_us: us(start.elapsed()),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, op, t);
        r
    }

    /// Appends spans recorded elsewhere (another load thread).
    pub fn absorb(&mut self, other: Trace) {
        let shift = if other.t0 >= self.t0 {
            us(other.t0 - self.t0)
        } else {
            -us(self.t0 - other.t0)
        };
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_us += shift;
            s
        }));
    }

    /// Median duration of the spans named `name`, microseconds (0 when
    /// none).
    pub fn p50(&self, name: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect();
        median(&mut durations)
    }

    /// Writes every span as one tab-separated line to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\top\tstart_us\tdur_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{:.3}\t{:.3}",
                s.name, s.op, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_rate_and_slow_phase() {
        // Two windows of 2 ops: the first takes 1 s, the second 2 s.
        let ops = [
            Op {
                seq: 0,
                end_s: 0.5,
                lat_us: 10.0,
            },
            Op {
                seq: 1,
                end_s: 1.0,
                lat_us: 10.0,
            },
            Op {
                seq: 2,
                end_s: 2.0,
                lat_us: 30.0,
            },
            Op {
                seq: 3,
                end_s: 3.0,
                lat_us: 30.0,
            },
        ];
        let w = Windows::cut(&ops, 2, 1.0);
        assert_eq!(w.rates, vec![2.0, 1.0]);
        assert_eq!(w.sustained_rate(), 1.0);
        assert_eq!(w.slow_phase_median(), 30.0);
        assert_eq!(w.select(|i| i == 0).rates, vec![2.0]);
    }

    #[test]
    fn tail_p99_ignores_stalled_segments() {
        let mut v = vec![1.0; 1000];
        for x in &mut v[..200] {
            *x = 50.0;
        }
        assert_eq!(percentile(&mut v.clone(), 99.0), 50.0);
        assert_eq!(tail_p99(&v, STALL_ROBUST), 1.0);
        for x in &mut v[..400] {
            *x = 50.0;
        }
        assert_eq!(tail_p99(&v, 80.0), 50.0);
        assert_eq!(tail_p99(&v, STALL_ROBUST), 1.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 10.0), 10.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
