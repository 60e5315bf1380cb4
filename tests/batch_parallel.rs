//! Batched-search determinism: for every similarity engine, batched
//! serving must return the same *decision* (same `best_row`, same
//! per-row distances) as a sequential loop of single-query
//! [`SimilarityEngine::search`] calls, across seeds and worker-thread
//! counts. The baseline engines additionally pin bitwise-equal energy
//! and latency; the TD-AM's batched path serves the bit-sliced packed
//! kernel (`tdam::packed`), whose reconstructed delays agree with the
//! behavioral model to ulps rather than bit-for-bit — its analog figures
//! are compared within the documented bound, and its thread-count
//! invariance is still exact (packed vs. packed).
//!
//! The property is written as explicit seeded loops rather than a
//! `proptest!` block so it exercises the same cases under any proptest
//! backend.

use fetdam::baselines::crossbar::{CrossbarCam, CrossbarParams};
use fetdam::baselines::fecam::{Fecam, FecamParams};
use fetdam::baselines::fefinfet::{FeFinFet, FeFinFetParams};
use fetdam::baselines::homogeneous::{HomogeneousTd, HomogeneousTdParams};
use fetdam::baselines::tcam16t::{Tcam16t, Tcam16tParams};
use fetdam::baselines::timaq::{Timaq, TimaqParams};
use fetdam::tdam::array::TdamArray;
use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::engine::{BatchQuery, SimilarityEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 6;
const WIDTH: usize = 16;
const BATCH: usize = 9;
const SEEDS: [u64; 3] = [0, 0xBEEF, 0x5EED_CAFE];

/// Fills `engine` with seeded random rows and returns a same-seeded
/// random batch of queries.
fn store_rows_and_batch(engine: &mut dyn SimilarityEngine, seed: u64) -> BatchQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = 1u32 << engine.bits_per_element();
    let width = engine.width();
    for row in 0..engine.rows() {
        let values: Vec<u8> = (0..width).map(|_| rng.gen_range(0..levels) as u8).collect();
        engine.store(row, &values).expect("store row");
    }
    let mut batch = BatchQuery::new(width);
    for _ in 0..BATCH {
        let q: Vec<u8> = (0..width).map(|_| rng.gen_range(0..levels) as u8).collect();
        batch.push(&q).expect("push query");
    }
    batch
}

/// Relative f64 agreement far tighter than any physical margin but loose
/// enough for the packed path's count-indexed delay reconstruction.
fn ulp_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The packed kernel's documented delay reconstruction bound for a
/// `WIDTH`-stage chain: `2·(1.5·N + 2)·ε` relative (see `tdam::packed`).
fn delay_close(a: f64, b: f64) -> bool {
    let bound = 2.0 * (1.5 * WIDTH as f64 + 2.0) * f64::EPSILON;
    (a - b).abs() <= bound * a.abs().max(b.abs())
}

/// The property itself: sequential loop first, batched second. `exact`
/// engines are compared field-for-field with bitwise f64 equality;
/// otherwise the decision is exact and the analog figures ulp-bounded.
fn assert_batch_matches_sequential(engine: &mut dyn SimilarityEngine, seed: u64, exact: bool) {
    let batch = store_rows_and_batch(engine, seed);
    let sequential: Vec<_> = batch
        .iter()
        .map(|q| engine.search(q).expect("sequential search"))
        .collect();
    let batched = engine.search_batch(&batch).expect("batched search");
    assert_eq!(batched.len(), BATCH, "{}: batch length", engine.name());
    for (i, (b, s)) in batched.queries.iter().zip(&sequential).enumerate() {
        if exact {
            assert_eq!(
                b,
                s,
                "{}: batched query {i} diverged from sequential (seed {seed:#x})",
                engine.name()
            );
        } else {
            let ctx = format!(
                "{}: batched query {i} vs sequential (seed {seed:#x})",
                engine.name()
            );
            assert_eq!(b.best_row, s.best_row, "{ctx}: winner");
            assert_eq!(b.distances, s.distances, "{ctx}: distances");
            assert!(ulp_close(b.energy, s.energy), "{ctx}: energy");
            assert!(ulp_close(b.latency, s.latency), "{ctx}: latency");
        }
    }
}

#[test]
fn every_engine_batches_deterministically() {
    for &seed in &SEEDS {
        let cfg = ArrayConfig::paper_default()
            .with_stages(WIDTH)
            .with_rows(ROWS);
        // (engine, exact): the TD-AM's batched path is the packed kernel
        // (decision-exact, analog ulp-bounded); every baseline's batched
        // path must stay bit-identical to its sequential loop.
        let mut engines: Vec<(Box<dyn SimilarityEngine>, bool)> = vec![
            (Box::new(TdamArray::new(cfg).expect("tdam array")), false),
            (
                Box::new(Tcam16t::new(ROWS, WIDTH, Tcam16tParams::default())),
                true,
            ),
            (
                Box::new(Fecam::new(ROWS, WIDTH, FecamParams::default())),
                true,
            ),
            (
                Box::new(FeFinFet::new(ROWS, WIDTH, FeFinFetParams::default())),
                true,
            ),
            (
                Box::new(HomogeneousTd::new(
                    ROWS,
                    WIDTH,
                    HomogeneousTdParams::default(),
                )),
                true,
            ),
            (
                Box::new(CrossbarCam::new(ROWS, WIDTH, CrossbarParams::default())),
                true,
            ),
            (
                Box::new(Timaq::new(ROWS, WIDTH, TimaqParams::default())),
                true,
            ),
        ];
        for (engine, exact) in &mut engines {
            assert_batch_matches_sequential(engine.as_mut(), seed, *exact);
        }
    }
}

#[test]
fn compiled_tdam_batches_identically_for_every_thread_count() {
    for &seed in &SEEDS {
        let cfg = ArrayConfig::paper_default()
            .with_stages(WIDTH)
            .with_rows(ROWS);
        let mut am = TdamArray::new(cfg).expect("tdam array");
        let batch = store_rows_and_batch(&mut am, seed);
        let reference: Vec<_> = batch
            .iter()
            .map(|q| TdamArray::search(&am, q).expect("reference search"))
            .collect();
        let snap = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), ROWS, "nominal rows must all pack");

        // The packed tier against the behavioral reference, under the
        // packed contract: counts, decoded distances, winners and
        // energies exact, delays within the reconstruction ulp bound; and
        // **bitwise** thread-count invariance against itself.
        let packed_one = snap.search_batch(&am, &batch, Some(1)).expect("packed");
        for (i, (got, want)) in packed_one.iter().zip(&reference).enumerate() {
            let ctx = format!("packed query {i} (seed {seed:#x})");
            assert_eq!(got.best_row(), want.best_row(), "{ctx}: winner");
            assert_eq!(got.decoded(), want.decoded(), "{ctx}: decode");
            assert_eq!(got.energy, want.energy, "{ctx}: energy");
            assert!(delay_close(got.latency, want.latency), "{ctx}: latency");
            for (row, (p, r)) in got.rows.iter().zip(&want.rows).enumerate() {
                assert_eq!(p.count, r.count, "{ctx} row {row}: TDC count");
                assert_eq!(
                    (p.chain.even_mismatches, p.chain.odd_mismatches),
                    (r.chain.even_mismatches, r.chain.odd_mismatches),
                    "{ctx} row {row}: counts"
                );
                assert_eq!(p.chain.energy, r.chain.energy, "{ctx} row {row}: energy");
                assert!(
                    delay_close(p.chain.total_delay, r.chain.total_delay),
                    "{ctx} row {row}: delay"
                );
            }
        }
        // The decision-only tier: same exact decisions, bitwise
        // thread-count invariant (all-integer output).
        let decide_one = snap.decide_batch(&am, &batch, Some(1)).expect("decide");
        for (i, (got, want)) in decide_one.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.best_row,
                want.best_row(),
                "decision winner {i} diverged (seed {seed:#x})"
            );
            assert_eq!(
                got.distances,
                want.decoded(),
                "decision distances {i} diverged (seed {seed:#x})"
            );
        }

        for threads in [Some(2), Some(5), None] {
            let outcomes = snap
                .search_batch(&am, &batch, threads)
                .expect("packed batch");
            for (i, (got, want)) in outcomes.iter().zip(&packed_one).enumerate() {
                assert_eq!(
                    got, want,
                    "packed batch query {i} not thread-count invariant \
                     (seed {seed:#x}, threads {threads:?})"
                );
            }
            assert_eq!(
                snap.decide_batch(&am, &batch, threads).expect("decide"),
                decide_one,
                "decision batch not thread-count invariant \
                 (seed {seed:#x}, threads {threads:?})"
            );
        }
    }
}
