//! Resilience integration: fault campaigns, write-verify repair, and
//! graceful HDC degradation exercised end-to-end through the public API.

use fetdam::fefet::programming::{
    program_vth_with_retry, ProgramConfig, ProgramError, RetryPolicy,
};
use fetdam::fefet::retention::{Lifetime, RetentionParams};
use fetdam::fefet::{Fefet, FefetParams};
use fetdam::hdc::datasets::{Dataset, DatasetKind};
use fetdam::hdc::encoder::IdLevelEncoder;
use fetdam::hdc::mapping::TdamHdcInference;
use fetdam::hdc::quantize::QuantizedModel;
use fetdam::hdc::train::HdcModel;
use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::faults::{FaultKind, FaultMap};
use fetdam::tdam::resilience::{
    run_campaign, CampaignConfig, CampaignFault, ResilienceConfig, ResilientArray,
};

/// The headline acceptance point: at a 1% hard-fault rate, spare-row
/// repair restores >= 99% exact-decode accuracy while the unprotected
/// array measurably degrades.
#[test]
fn repair_restores_decode_accuracy_at_one_percent_hard_faults() {
    let mut cfg = CampaignConfig::paper_default();
    cfg.array = cfg.array.with_rows(8);
    // Spares take cell faults at the swept rate too; two per data row
    // keeps the probability of the pool running dry negligible.
    cfg.resilience.spare_rows = 16;
    cfg.kinds = vec![CampaignFault::StuckMismatch];
    cfg.fault_rates = vec![0.01];
    cfg.trials = 12;
    cfg.queries = 24;

    cfg.repair = false;
    let raw = run_campaign(&cfg).expect("unrepaired campaign").points[0];
    cfg.repair = true;
    let rep = run_campaign(&cfg).expect("repaired campaign").points[0];

    assert!(
        rep.decode_accuracy >= 0.99,
        "repaired decode accuracy {:.3} below 0.99",
        rep.decode_accuracy
    );
    assert!(
        raw.decode_accuracy < 0.97,
        "unrepaired decode accuracy {:.3} should measurably degrade",
        raw.decode_accuracy
    );
    assert!(rep.decode_accuracy > raw.decode_accuracy);
}

/// Write-verify retries are provably bounded: a reachable target uses at
/// most `max_attempts`, and an unreachable target fails with
/// `VerifyFailed` instead of looping.
#[test]
fn write_verify_retry_is_bounded() {
    let policy = RetryPolicy {
        max_attempts: 3,
        amplitude_step: 0.5,
        max_amplitude: 6.5,
    };
    let cfg = ProgramConfig::default();

    let mut dev = Fefet::new(FefetParams::default());
    let target = cfg.vth_targets[1];
    let report = program_vth_with_retry(&mut dev, target, &cfg, &policy).expect("reachable target");
    assert!(
        (1..=policy.max_attempts).contains(&report.attempts),
        "attempts {} outside 1..={}",
        report.attempts,
        policy.max_attempts
    );

    // 10 V is far outside any achievable threshold: every escalated
    // attempt must fail verify and the flow must terminate with an error.
    let mut dev = Fefet::new(FefetParams::default());
    let err = program_vth_with_retry(&mut dev, 10.0, &cfg, &policy).unwrap_err();
    assert!(matches!(err, ProgramError::VerifyFailed { .. }), "{err:?}");
}

/// End-to-end detect → repair → search on a wrapped array: a stuck
/// shared-SL column and a broken chain are found by the reference rows,
/// the column is masked out digitally, the severed row moves to a spare,
/// and exact decoding comes back.
#[test]
fn detection_and_repair_recover_column_and_chain_faults() {
    let cfg = ArrayConfig::paper_default().with_stages(16).with_rows(4);
    let res = ResilienceConfig {
        spare_rows: 2,
        ..ResilienceConfig::default()
    };
    let mut arr = ResilientArray::new(cfg, res).expect("resilient array");
    let patterns: Vec<Vec<u8>> = (0..4)
        .map(|i| (0..16).map(|j| ((i + j) % 4) as u8).collect())
        .collect();
    for (i, p) in patterns.iter().enumerate() {
        arr.store(i, p).expect("store");
    }
    arr.stuck_column(5).expect("stuck column");
    arr.break_stage(arr.physical_row(2).expect("phys"), 9)
        .expect("broken stage");

    let detection = arr.check().expect("check");
    assert!(!detection.all_clear());
    assert!(detection.suspect_stages.contains(&5), "{detection:?}");

    arr.repair(&detection).expect("repair");
    assert!(arr.masked_stages().contains(&5));

    for (i, p) in patterns.iter().enumerate() {
        let outcome = arr.search(p).expect("search");
        assert_eq!(
            outcome.rows[i].decoded, 0,
            "row {i} should exact-match its own pattern after repair"
        );
        assert_eq!(outcome.best_row(), Some(i));
    }
    let summary = arr.degradation();
    assert!(summary.remapped_rows >= 1, "{summary:?}");
}

/// SplitMix64: a seeded stream for the probe-equivalence fixtures.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every physical row's single-row probe equals its row of a full-array
/// search, bit for bit, on each row's stored pattern, its complement,
/// and seeded random queries.
fn assert_probe_rows_match_search(arr: &ResilientArray, rng: &mut u64, ctx: &str) {
    let array = arr.array();
    let (rows, stages) = (array.config().rows, array.config().stages);
    let levels = array.config().encoding.levels() as u64;
    let mut queries = Vec::new();
    for r in 0..rows {
        let stored = array.stored(r).expect("stored");
        let complement = stored.iter().map(|&v| ((v as u64 + 1) % levels) as u8);
        queries.push(complement.collect::<Vec<u8>>());
        queries.push(stored);
    }
    for _ in 0..4 {
        queries.push(
            (0..stages)
                .map(|_| (splitmix(rng) % levels) as u8)
                .collect(),
        );
    }
    for q in &queries {
        let out = array.search(q).expect("search");
        for (r, want) in out.rows.iter().enumerate() {
            let (decoded, delay) = array.probe_row(r, q).expect("probe_row");
            assert_eq!(decoded, want.decoded_mismatches, "{ctx}: row {r}");
            assert_eq!(
                delay.to_bits(),
                want.chain.total_delay.to_bits(),
                "{ctx}: row {r}"
            );
        }
    }
}

/// The single-row health probe is a pure speed-up: on seeded arrays
/// carrying every fault kind (stuck cells and columns, broken chains,
/// V_TH drift, masked columns, spare remaps, aged lifetimes) it decodes
/// exactly as a full-array search does, and detection, repair and
/// margin scrubbing report exactly what they report when every probe
/// runs a full search.
#[test]
fn single_row_probes_match_full_search_probes() {
    let (data_rows, stages) = (12, 16);
    let cfg = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_rows(data_rows);
    let res = ResilienceConfig {
        spare_rows: 6,
        ..ResilienceConfig::default()
    };
    let (mut flagged, mut remapped, mut masked, mut healed) = (0, 0, 0, 0);
    for seed in 0..4u64 {
        let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) + 1;
        let mut arr = ResilientArray::new(cfg, res).expect("resilient array");
        let phys_rows = arr.array().config().rows;
        for row in 0..data_rows {
            let values: Vec<u8> = (0..stages)
                .map(|_| (splitmix(&mut rng) % 4) as u8)
                .collect();
            arr.store(row, &values).expect("store");
        }
        let mut pick = |n: usize| (splitmix(&mut rng) % n as u64) as usize;
        arr.stuck_column(pick(stages)).expect("stuck column");
        arr.break_stage(pick(data_rows), pick(stages))
            .expect("broken stage");
        for kind in [FaultKind::StuckMismatch, FaultKind::StuckMatch] {
            arr.inject(pick(phys_rows), pick(stages), kind)
                .expect("stuck cell");
        }
        for _ in 0..3 {
            let window_fraction = 0.2 + 0.1 * pick(4) as f64;
            arr.inject(
                pick(data_rows),
                pick(stages),
                FaultKind::VthDrift { window_fraction },
            )
            .expect("drift");
        }
        // Retention loss to a ~0.7 window: delays leave their bin
        // centers before any decode flips.
        let life = Lifetime {
            cycles: 1e6 * seed as f64,
            seconds: 1e10,
            retention: RetentionParams {
                loss_per_decade: 0.03,
                t0: 1.0,
            },
            ..Lifetime::fresh()
        };
        if seed % 2 == 1 {
            arr.age(&life).expect("aging");
        }

        let ctx = format!("seed {seed}");
        let mut oracle = arr.clone();
        oracle.use_reference_probes(true);
        assert_probe_rows_match_search(&arr, &mut rng, &ctx);

        let detection = arr.check().expect("check");
        assert_eq!(detection, oracle.check().expect("reference check"), "{ctx}");
        let repair = arr.repair(&detection).expect("repair");
        assert_eq!(
            repair,
            oracle.repair(&detection).expect("reference repair"),
            "{ctx}"
        );
        assert_eq!(arr.health(), oracle.health(), "{ctx}");
        assert_eq!(arr.degradation(), oracle.degradation(), "{ctx}");

        // The repaired array carries masked columns and spare remaps;
        // aging it again moves probe delays off their bin centers for
        // the scrub to heal.
        arr.age(&life).expect("aging");
        oracle.age(&life).expect("aging");
        assert_probe_rows_match_search(&arr, &mut rng, &format!("{ctx}, repaired"));
        let scrub = arr.scrub_margins().expect("scrub");
        assert_eq!(
            scrub,
            oracle.scrub_margins().expect("reference scrub"),
            "{ctx}"
        );
        assert_eq!(
            arr.check().expect("re-check"),
            oracle.check().expect("reference re-check"),
            "{ctx}"
        );

        flagged += usize::from(!detection.all_clear());
        remapped += repair.remapped.len();
        masked += arr.masked_stages().len();
        healed += scrub.healed.len();
    }
    // The fixtures reach every path the probes drive.
    assert!(
        flagged > 0 && remapped > 0 && masked > 0 && healed > 0,
        "flagged {flagged}, remapped {remapped}, masked {masked}, healed {healed}"
    );
}

/// Hard faults on a deployed HDC tile corrupt the hardware Hamming
/// metric; masking the faulty dimensions restores exact fidelity to the
/// software metric over the surviving dimensions, and accuracy stays
/// close to the fault-free deployment.
#[test]
fn hdc_dimension_masking_recovers_metric_fidelity() {
    let ds = Dataset::generate(DatasetKind::Face, 30, 12, 77);
    let enc = IdLevelEncoder::new(512, ds.features(), 32, (0.0, 1.0), 8).expect("encoder");
    let model = HdcModel::train(&enc, &ds.train, ds.classes(), 2).expect("train");
    let quant = QuantizedModel::from_model(&model, 2).expect("quantize");

    let accuracy = |hw: &TdamHdcInference| {
        let mut correct = 0usize;
        for (x, label) in &ds.test {
            let h = enc.encode(x).expect("encode");
            let q = quant.quantize_query(&h).expect("quantize query");
            if hw.classify(&q).expect("classify").class == *label {
                correct += 1;
            }
        }
        correct as f64 / ds.test.len() as f64
    };
    // Software Hamming distance over the non-excluded packed dimensions.
    let sw_distance = |row: usize, q: &[u8], excluded: &[usize]| {
        quant.class_hvs()[row]
            .levels()
            .iter()
            .zip(q)
            .enumerate()
            .filter(|(i, (s, q))| !excluded.contains(i) && s != q)
            .count()
    };

    let baseline = accuracy(&TdamHdcInference::new(&quant, 128, 0.6).expect("hw"));

    let mut hw = TdamHdcInference::new(&quant, 128, 0.6).expect("hw");
    let mut faults = FaultMap::new();
    for k in 0..40 {
        faults.inject(0, k * 3, FaultKind::StuckMismatch);
    }
    hw.inject_tile_faults(0, &faults).expect("inject");

    // Faults inflate row 0's hardware distance above the true metric.
    let mut inflation = 0usize;
    for (x, _) in ds.test.iter().take(10) {
        let h = enc.encode(x).expect("encode");
        let q = quant.quantize_query(&h).expect("quantize query");
        let hw_d = hw.classify(&q).expect("classify").distances[0];
        let sw_d = sw_distance(0, q.levels(), &[]);
        assert!(hw_d >= sw_d, "stuck-mismatch can only add distance");
        inflation += hw_d - sw_d;
    }
    assert!(
        inflation > 0,
        "40 stuck-mismatch cells must corrupt the metric"
    );

    let dims = hw.faulty_dimensions();
    assert_eq!(dims.len(), 40);
    hw.apply_dimension_mask(&dims).expect("mask");
    assert_eq!(hw.masked_dimensions(), 40);
    assert!(hw.degradation_fraction() > 0.0);

    // After masking, every row's hardware distance equals the software
    // metric restricted to the surviving dimensions — exactly.
    for (x, _) in ds.test.iter().take(10) {
        let h = enc.encode(x).expect("encode");
        let q = quant.quantize_query(&h).expect("quantize query");
        let result = hw.classify(&q).expect("classify");
        for row in 0..quant.classes() {
            assert_eq!(
                result.distances[row],
                sw_distance(row, q.levels(), &dims),
                "masked hardware metric must match software over surviving dims"
            );
        }
    }

    let masked = accuracy(&hw);
    assert!(
        masked >= baseline - 0.1,
        "masked accuracy {masked:.3} should stay near baseline {baseline:.3}"
    );
}
