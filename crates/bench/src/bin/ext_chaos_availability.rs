//! Extension: availability of the fault-tolerant serving runtime under
//! chaos injection.
//!
//! Sweeps persistent cell-fault rate × injected worker-panic rate over the
//! paper's 32-stage 2-bit array wrapped in [`tdam::runtime::ResilientEngine`]
//! (packed-kernel serving, health probes with a circuit breaker, repair and
//! backend demotion along the Packed → Behavioral → DegradedMasked
//! fallback chain), and reports how much of the query traffic stays
//! answered and whether any wrong answer escaped without a degradation
//! flag. The headline: at the acceptance point — 1% cumulative cell faults
//! plus 2% per-attempt worker panics — the runtime sustains ≥ 99%
//! availability with zero silent wrong answers.
//!
//! Usage: `cargo run --release -p tdam-bench --bin ext_chaos_availability [--quick] [--save]`

use tdam::runtime::{run_chaos, ChaosConfig, DeadlinePolicy};
use tdam_bench::{quick_mode, rline, Report};

fn campaign(fault_rate: f64, panic_rate: f64, batches: usize, batch_size: usize) -> ChaosConfig {
    let mut cfg = ChaosConfig::paper_default();
    cfg.fault_rate = fault_rate;
    cfg.panic_rate = panic_rate;
    cfg.batches = batches;
    cfg.batch_size = batch_size;
    cfg
}

fn main() {
    let (batches, batch_size) = if quick_mode() { (8, 16) } else { (24, 32) };
    let mut rpt = Report::new("ext_chaos_availability");

    // Injected chaos panics are caught by the runtime's per-slot isolation,
    // but the default hook would still print a backtrace for each one.
    // Silence the hook for the campaigns; restored before the assertions.
    std::panic::set_hook(Box::new(|_| {}));

    rpt.header("TD-AM chaos campaign: 32 stages x 16 data rows, 8 spares, 2 reference rows");
    rline!(
        rpt,
        "{batches} batches x {batch_size} exact-match queries per (fault, panic) point; \
         retries 3, health probe every batch\n"
    );

    rline!(
        rpt,
        "{:>8} {:>8} {:>10} {:>9} {:>8} {:>7} {:>7} {:>9} {:>9} {:>8} {:>17}",
        "faults",
        "panics",
        "avail",
        "answered",
        "timedout",
        "failed",
        "wrong",
        "silent",
        "degraded",
        "repairs",
        "final backend"
    );
    let mut acceptance = None;
    for &fault_rate in &[0.0, 0.01, 0.05] {
        for &panic_rate in &[0.0, 0.02, 0.10] {
            let cfg = campaign(fault_rate, panic_rate, batches, batch_size);
            let report = run_chaos(&cfg).expect("chaos campaign");
            rline!(
                rpt,
                "{:>7.1}% {:>7.1}% {:>9.2}% {:>9} {:>8} {:>7} {:>7} {:>9} {:>9} {:>8} {:>17}",
                fault_rate * 100.0,
                panic_rate * 100.0,
                report.availability() * 100.0,
                report.answered,
                report.timed_out,
                report.failed,
                report.wrong,
                report.silent_wrong,
                report.degraded_answers,
                report.stats.repairs,
                format!("{:?}", report.final_backend)
            );
            if fault_rate == 0.01 && panic_rate == 0.02 {
                acceptance = Some(report);
            }
        }
    }

    // Deadline demonstration: a query budget expires the tail of each batch
    // but the answered prefix is still served and correct.
    let mut cfg = campaign(0.01, 0.02, batches, batch_size);
    cfg.runtime.deadline = DeadlinePolicy::QueryBudget(batch_size / 2);
    let bounded = run_chaos(&cfg).expect("deadline campaign");
    rline!(
        rpt,
        "\nWith a {}-query deadline budget per {batch_size}-query batch: \
         {} answered, {} expired, {} silent wrong.",
        batch_size / 2,
        bounded.answered,
        bounded.timed_out,
        bounded.silent_wrong
    );

    let _ = std::panic::take_hook();
    let report = acceptance.expect("acceptance point present in the sweep");
    rline!(
        rpt,
        "\nAt the acceptance point (1% cumulative cell faults, 2% per-attempt\n\
         worker panics) the runtime answered {:.2}% of {} queries with {}\n\
         silent wrong answers; {} answers carried an explicit degradation\n\
         flag, and the health monitor ran {} repairs across {} probes.",
        report.availability() * 100.0,
        report.total_queries,
        report.silent_wrong,
        report.degraded_answers,
        report.stats.repairs,
        report.stats.health_checks
    );
    assert!(
        report.availability() >= 0.99,
        "availability at the acceptance point should be >= 99%, got {:.4}",
        report.availability()
    );
    assert_eq!(
        report.silent_wrong, 0,
        "no wrong answer may be served without a degradation flag"
    );
    assert_eq!(
        bounded.silent_wrong, 0,
        "deadline-bounded serving must not introduce silent wrong answers"
    );
    rpt.finish();
}
