//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each `src/bin/` binary reproduces one evaluation artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig1_fefet_iv` | Fig. 1(c)(d): FeFET I_D–V_G curves, 4 states, 60-device variation |
//! | `fig2_cell_truth` | Fig. 2(d-f): 2-FeFET cell match/mismatch behaviour |
//! | `fig4_waveforms` | Fig. 4: transient edges and delay-vs-mismatch linearity |
//! | `fig5_scaling` | Fig. 5: energy/delay vs array size, load cap, and V_DD |
//! | `fig6_monte_carlo` | Fig. 6: worst-case delay distributions under V_TH variation |
//! | `table1_comparison` | Table I: energy/bit across all six designs |
//! | `fig7_hdc_accuracy` | Fig. 7: HDC accuracy vs precision and dimensionality |
//! | `fig8_gpu_comparison` | Fig. 8: TD-AM vs GPU speedup and energy efficiency |
//! | `ablation_vc_vs_vr` | Design ablation: variable-capacitance vs variable-resistance stages |
//! | `ablation_two_step` | Design ablation: 2-step scheme vs naive single-pass chain |
//! | `ext_fault_campaign` | Extension: fault-rate sweeps with/without detection + spare-row repair |
//! | `ext_batch_throughput` | Extension: batched packed-kernel serving vs sequential search, plus the pipelined cycle model |
//! | `ext_recovery` | Extension: crash-injection campaign over the checkpoint/journal store + warm-start restore |
//! | `ext_serve_scale` | Extension: sharded TCP serving front-end — load sweep and guaranteed shedding |
//! | `ext_mutation` | Extension: online mutation — incremental repack cost and p99 under a live write mix |
//! | `ext_corpus` | Extension: million-row two-tier corpus search vs flat packed brute force |
//!
//! `benches/` contains Criterion micro-benchmarks of the underlying
//! engines (device model, circuit solver, chain evaluation, HDC
//! primitives, batched serving).
//!
//! Pass `--quick` to any binary to run a reduced grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

/// Returns true when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Returns true when `--save` was passed on the command line:
/// [`Report::finish`] then archives the run's output under `results/`.
pub fn save_mode() -> bool {
    std::env::args().any(|a| a == "--save")
}

/// Collects a benchmark binary's printed lines so the run can be
/// archived under `results/` — written through the same atomic
/// temp-file + rename helper ([`tdam::store::atomic_write`]) the
/// checkpoint store uses, so an interrupted run never leaves a
/// half-written results file.
///
/// Use the [`rline!`](crate::rline) macro to print-and-capture:
///
/// ```
/// use tdam_bench::{rline, Report};
/// let mut rpt = Report::new("doc_example");
/// rline!(rpt, "answered {} of {}", 9, 10);
/// rline!(rpt); // blank line
/// assert_eq!(rpt.text(), "answered 9 of 10\n\n");
/// ```
pub struct Report {
    name: String,
    lines: Vec<String>,
}

impl Report {
    /// Starts a report for the binary `name` (the archive becomes
    /// `results/<name>.txt`).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            lines: Vec::new(),
        }
    }

    /// Prints one line to stdout and captures it for the archive.
    pub fn line(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.lines.push(text);
    }

    /// Prints and captures a section header.
    pub fn header(&mut self, title: &str) {
        self.line(format!("\n=== {title} ==="));
    }

    /// Prints and captures an aligned series of `(x, y)` pairs.
    pub fn series(&mut self, x_label: &str, y_label: &str, points: &[(f64, f64)]) {
        self.line(format!("{x_label:>16} {y_label:>20}"));
        for (x, y) in points {
            self.line(format!("{x:>16.4} {y:>20.6e}"));
        }
    }

    /// The captured output, one `\n`-terminated line per [`Report::line`].
    pub fn text(&self) -> String {
        let mut text = String::new();
        for line in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        text
    }

    /// Atomically writes the captured output to `<dir>/<name>.txt`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic writer.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("{}.txt", self.name));
        std::fs::create_dir_all(dir)?;
        tdam::store::atomic_write(&path, self.text().as_bytes())?;
        Ok(path)
    }

    /// Archives the run under `results/` when `--save` was passed.
    pub fn finish(&self) {
        if save_mode() {
            match self.save(Path::new("results")) {
                Ok(path) => eprintln!("archived to {}", path.display()),
                Err(e) => eprintln!("failed to archive results: {e}"),
            }
        }
    }
}

/// Minimal hand-rolled JSON object builder for machine-readable
/// benchmark sidecars (the harness deliberately has no JSON
/// dependency). Keys keep insertion order; floats render via Rust's
/// shortest round-trip formatting, with non-finite values mapped to
/// `null`.
///
/// ```
/// use tdam_bench::JsonMap;
/// let json = JsonMap::new()
///     .str("scenario", "smoke")
///     .int("rows", 64)
///     .num("qps", 1.5)
///     .obj("nested", JsonMap::new().num("x", f64::NAN));
/// assert_eq!(
///     json.render(),
///     "{\n  \"scenario\": \"smoke\",\n  \"rows\": 64,\n  \"qps\": 1.5,\n  \
///      \"nested\": {\n    \"x\": null\n  }\n}"
/// );
/// ```
#[derive(Default)]
pub struct JsonMap {
    entries: Vec<(String, String)>,
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonMap {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.entries.push((json_escape(key), rendered));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", json_escape(value));
        self.push(key, rendered)
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(self, key: &str, value: i64) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a number field; NaN and infinities become `null`.
    #[must_use]
    pub fn num(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.push(key, rendered)
    }

    /// Adds a nested object field.
    #[must_use]
    pub fn obj(self, key: &str, value: JsonMap) -> Self {
        let rendered = value.render();
        self.push(key, rendered)
    }

    /// Adds an array-of-objects field (e.g. a sweep's per-point rows).
    #[must_use]
    pub fn arr(self, key: &str, values: Vec<JsonMap>) -> Self {
        if values.is_empty() {
            return self.push(key, "[]".to_string());
        }
        let mut rendered = String::from("[\n");
        for (i, value) in values.iter().enumerate() {
            let body = value.render().replace('\n', "\n  ");
            rendered.push_str(&format!("  {body}"));
            rendered.push_str(if i + 1 < values.len() { ",\n" } else { "\n" });
        }
        rendered.push(']');
        self.push(key, rendered)
    }

    /// Renders the object with two-space indentation.
    pub fn render(&self) -> String {
        if self.entries.is_empty() {
            return "{}".to_string();
        }
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            // Re-indent nested renders so depth composes.
            let value = value.replace('\n', "\n  ");
            out.push_str(&format!("  \"{key}\": {value}"));
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push('}');
        out
    }

    /// Atomically writes `<dir>/<name>.json` (trailing newline added).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic writer.
    pub fn save(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("{name}.json"));
        std::fs::create_dir_all(dir)?;
        let mut text = self.render();
        text.push('\n');
        tdam::store::atomic_write(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Archives the sidecar to `results/<name>.json` when `--save` was
    /// passed, mirroring [`Report::finish`].
    pub fn finish(&self, name: &str) {
        if save_mode() {
            match self.save(Path::new("results"), name) {
                Ok(path) => eprintln!("archived to {}", path.display()),
                Err(e) => eprintln!("failed to archive JSON sidecar: {e}"),
            }
        }
    }
}

/// Prints a formatted line to stdout *and* captures it into a
/// [`Report`]; with no format arguments, emits a blank line.
#[macro_export]
macro_rules! rline {
    ($report:expr $(,)?) => {
        $report.line("")
    };
    ($report:expr, $($arg:tt)+) => {
        $report.line(format!($($arg)+))
    };
}

/// The measuring host, for archived reports: CPU model (from
/// `/proc/cpuinfo`, where there is one), threads, packed-kernel rung.
pub fn host() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'));
    let cpu = model.map_or("unknown", |(_, name)| name.trim());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = tdam::packed::PackedKernel::detect().name();
    format!("{cpu}, {threads} threads, packed kernel {kernel}")
}

/// Formats a quantity in engineering notation with a unit.
pub fn eng(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    let exp = value.abs().log10().floor() as i32;
    let eng_exp = (exp.div_euclid(3)) * 3;
    let scaled = value / 10f64.powi(eng_exp);
    let prefix = match eng_exp {
        -15 => "f",
        -12 => "p",
        -9 => "n",
        -6 => "µ",
        -3 => "m",
        0 => "",
        3 => "k",
        6 => "M",
        9 => "G",
        12 => "T",
        _ => return format!("{value:.3e} {unit}"),
    };
    format!("{scaled:.3} {prefix}{unit}")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints an aligned series of `(x, y)` pairs with column labels.
pub fn print_series(x_label: &str, y_label: &str, points: &[(f64, f64)]) {
    println!("{x_label:>16} {y_label:>20}");
    for (x, y) in points {
        println!("{x:>16.4} {y:>20.6e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_notation() {
        assert_eq!(eng(0.0, "J"), "0 J");
        assert_eq!(eng(1.5e-15, "J"), "1.500 fJ");
        assert_eq!(eng(2.2e-9, "s"), "2.200 ns");
        assert_eq!(eng(3.1e3, "Hz"), "3.100 kHz");
        assert_eq!(eng(42.0, "V"), "42.000 V");
    }

    #[test]
    fn eng_handles_out_of_range() {
        assert!(eng(1e30, "x").contains('e'));
    }

    #[test]
    fn json_map_escapes_and_nests() {
        let json = JsonMap::new()
            .str("a \"b\"\n", "x\\y")
            .int("n", -3)
            .bool("ok", true)
            .num("inf", f64::INFINITY)
            .obj(
                "inner",
                JsonMap::new().num("pi", 3.5).obj("empty", JsonMap::new()),
            );
        let text = json.render();
        assert!(text.contains("\"a \\\"b\\\"\\n\": \"x\\\\y\""));
        assert!(text.contains("\"n\": -3"));
        assert!(text.contains("\"ok\": true"));
        assert!(text.contains("\"inf\": null"));
        assert!(text.contains("    \"pi\": 3.5"));
        assert!(text.contains("\"empty\": {}"));
    }

    #[test]
    fn json_map_renders_arrays() {
        let json = JsonMap::new().arr("empty", Vec::new()).arr(
            "sweep",
            vec![
                JsonMap::new().int("clients", 1).num("qps", 10.0),
                JsonMap::new().int("clients", 2).num("qps", 19.5),
            ],
        );
        let text = json.render();
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"sweep\": [\n    {\n      \"clients\": 1"));
        assert!(text.contains("},\n    {\n      \"clients\": 2"));
        assert!(text.ends_with("  ]\n}"));
    }

    #[test]
    fn json_map_saves_atomically() {
        let dir = std::env::temp_dir().join(format!("tdam-bench-json-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let json = JsonMap::new().num("qps", 125.0);
        let path = json.save(&dir, "BENCH_unit").expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, "{\n  \"qps\": 125\n}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_captures_lines_and_saves_atomically() {
        let mut rpt = Report::new("unit_report");
        rpt.header("section");
        rline!(rpt, "x = {}", 42);
        rline!(rpt);
        assert_eq!(rpt.text(), "\n=== section ===\nx = 42\n\n");

        let dir = std::env::temp_dir().join(format!("tdam-bench-report-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = rpt.save(&dir).expect("save");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), rpt.text());
        let tmp_left = std::fs::read_dir(&dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .any(|e| e.path().extension().is_some_and(|x| x == "tmp"));
        assert!(!tmp_left);
        std::fs::remove_dir_all(&dir).ok();
    }
}
