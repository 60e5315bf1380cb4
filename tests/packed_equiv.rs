//! Equivalence acceptance suite for the bit-sliced packed serving kernel
//! (`tdam::packed`): across every encoding width, ragged (non-multiple-
//! of-64) stage counts, and seeded random contents, the packed path's
//! mismatch counts, TDC counts, decoded distances, and winners must be
//! **exactly identical** to the behavioral model, its per-row energies
//! bitwise equal, and its reconstructed delays within the documented ulp
//! bound. Fault-masked and spare-remapped resilient arrays must keep the
//! same contract through `resolve_outcome`, and a `ResilientEngine`
//! checkpoint/restore round trip must come back serving the packed
//! compiled tier.

use fetdam::tdam::array::TdamArray;
use fetdam::tdam::cell::Cell;
use fetdam::tdam::config::ArrayConfig;
use fetdam::tdam::encoding::Encoding;
use fetdam::tdam::engine::{BatchQuery, SimilarityEngine};
use fetdam::tdam::faults::FaultKind;
use fetdam::tdam::packed::PackedKernel;
use fetdam::tdam::resilience::{ResilienceConfig, ResilientArray};
use fetdam::tdam::runtime::{BackendKind, ResilientEngine, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The documented reconstruction bound: both the behavioral and packed
/// delay figures are correctly-rounded sums of the same `N + k ≤ 1.5·N`
/// positive terms (`k` mismatches out of up to `N/2` per step), replayed
/// in different orders, so they agree to `2·(1.5·N + 2)·ε` relative.
fn delay_close(a: f64, b: f64, stages: usize) -> bool {
    let bound = 2.0 * (1.5 * stages as f64 + 2.0) * f64::EPSILON * a.abs().max(b.abs());
    (a - b).abs() <= bound
}

fn seeded_array(bits: u8, stages: usize, rows: usize, seed: u64) -> (TdamArray, StdRng) {
    let cfg = ArrayConfig::paper_default()
        .with_encoding(Encoding::new(bits).expect("encoding"))
        .with_stages(stages)
        .with_rows(rows);
    let levels = cfg.encoding.levels() as u32;
    let mut am = TdamArray::new(cfg).expect("array");
    let mut rng = StdRng::seed_from_u64(seed);
    for row in 0..rows {
        let values: Vec<u8> = (0..stages)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        am.store(row, &values).expect("store");
    }
    (am, rng)
}

/// Core randomized property: every encoding × ragged widths × random
/// contents/queries — exact decisions, bitwise row energies, ulp-bounded
/// delays.
#[test]
fn packed_counts_winners_and_energies_match_behavioral() {
    const ROWS: usize = 8;
    const QUERIES: usize = 12;
    for bits in 1..=4u8 {
        for stages in [5usize, 63, 64, 65, 127, 130] {
            let seed = 0x9ACC_ED00 ^ ((bits as u64) << 32) ^ stages as u64;
            let (am, mut rng) = seeded_array(bits, stages, ROWS, seed);
            let levels = 1u32 << bits;
            let snap = am.compile_snapshot();
            assert_eq!(
                snap.packed_rows(),
                ROWS,
                "{bits}-bit {stages}-stage: all nominal rows pack"
            );
            for _ in 0..QUERIES {
                let q: Vec<u8> = (0..stages)
                    .map(|_| rng.gen_range(0..levels) as u8)
                    .collect();
                let reference = TdamArray::search(&am, &q).expect("behavioral");
                let packed = snap.search_packed(&am, &q).expect("packed");
                let ctx = format!("{bits}-bit {stages}-stage seed {seed:#x}");

                // The decision layer: exactly identical.
                assert_eq!(packed.best_row(), reference.best_row(), "{ctx}: winner");
                assert_eq!(packed.decoded(), reference.decoded(), "{ctx}: decode");
                for (row, (p, r)) in packed.rows.iter().zip(&reference.rows).enumerate() {
                    assert_eq!(
                        p.chain.mismatches, r.chain.mismatches,
                        "{ctx} row {row}: mismatches"
                    );
                    assert_eq!(
                        p.chain.even_mismatches, r.chain.even_mismatches,
                        "{ctx} row {row}: even"
                    );
                    assert_eq!(
                        p.chain.odd_mismatches, r.chain.odd_mismatches,
                        "{ctx} row {row}: odd"
                    );
                    assert_eq!(p.count, r.count, "{ctx} row {row}: TDC count");
                    // Per-row energies follow the same repeated-addition
                    // discipline in both paths: bitwise equal.
                    assert_eq!(p.chain.energy, r.chain.energy, "{ctx} row {row}: energy");
                    // Reconstructed delays: ulp-bounded, never exact by
                    // construction (position-dependent f64 sums).
                    for (d_p, d_r) in [
                        (p.chain.rising_delay, r.chain.rising_delay),
                        (p.chain.falling_delay, r.chain.falling_delay),
                        (p.chain.total_delay, r.chain.total_delay),
                    ] {
                        assert!(
                            delay_close(d_p, d_r, stages),
                            "{ctx} row {row}: delay {d_p:e} vs {d_r:e}"
                        );
                    }
                }
                assert!(
                    delay_close(packed.latency, reference.latency, stages),
                    "{ctx}: latency"
                );
                assert_eq!(
                    packed.energy, reference.energy,
                    "{ctx}: array energy (identical counts ⇒ identical TDC energies)"
                );
            }
        }
    }
}

/// Batched serving (the `SimilarityEngine` override) carries the same
/// contract as the single-query packed path, for every thread count.
#[test]
fn packed_batch_decisions_match_behavioral_for_any_thread_count() {
    let (am, mut rng) = seeded_array(2, 100, 6, 0x0BA7_C0DE);
    let mut batch = BatchQuery::new(100);
    for _ in 0..17 {
        let q: Vec<u8> = (0..100).map(|_| rng.gen_range(0..4u32) as u8).collect();
        batch.push(&q).expect("push");
    }
    let reference: Vec<_> = batch
        .iter()
        .map(|q| TdamArray::search(&am, q).expect("behavioral"))
        .collect();
    let snap = am.compile_snapshot();
    let one = snap.search_batch(&am, &batch, Some(1)).expect("packed");
    for (i, (got, want)) in one.iter().zip(&reference).enumerate() {
        assert_eq!(got.best_row(), want.best_row(), "query {i}: winner");
        assert_eq!(got.decoded(), want.decoded(), "query {i}: decode");
    }
    // The decision-only path carries the same exactness, and is bitwise
    // thread-count invariant (it is all-integer output).
    let decisions = snap.decide_batch(&am, &batch, Some(1)).expect("decide");
    for (i, (got, want)) in decisions.iter().zip(&reference).enumerate() {
        assert_eq!(got.best_row, want.best_row(), "decision {i}: winner");
        assert_eq!(got.distances, want.decoded(), "decision {i}: distances");
    }
    for threads in [Some(2), Some(3), Some(7), None] {
        assert_eq!(
            snap.search_batch(&am, &batch, threads).expect("packed"),
            one,
            "thread-count invariance ({threads:?})"
        );
        assert_eq!(
            snap.decide_batch(&am, &batch, threads).expect("decide"),
            decisions,
            "decision thread-count invariance ({threads:?})"
        );
    }
}

/// A variation-perturbed row falls back to the behavioral model inside
/// the packed batch path and stays bit-identical there.
#[test]
fn perturbed_rows_fall_back_inside_packed_path() {
    let (mut am, mut rng) = seeded_array(2, 70, 5, 0xFA11_BACC);
    let cells = (0..70)
        .map(|_| Cell::with_vth(1, am.config().encoding, 0.63, 1.02).expect("cell"))
        .collect();
    am.store_cells(2, cells).expect("store_cells");
    let snap = am.compile_snapshot();
    assert_eq!(snap.packed_rows(), 4, "perturbed row must not pack");
    let mut batch = BatchQuery::new(70);
    for _ in 0..6 {
        let q: Vec<u8> = (0..70).map(|_| rng.gen_range(0..4u32) as u8).collect();
        let reference = TdamArray::search(&am, &q).expect("behavioral");
        let packed = snap.search_packed(&am, &q).expect("packed");
        assert_eq!(packed.best_row(), reference.best_row());
        assert_eq!(packed.decoded(), reference.decoded());
        // The fallback row is served by the same behavioral arithmetic:
        // bit-identical, not just ulp-close.
        assert_eq!(packed.rows[2], reference.rows[2]);
        batch.push(&q).expect("push");
    }
    // The decision-only path routes the perturbed row through the same
    // behavioral fallback.
    for (decision, q) in snap
        .decide_batch(&am, &batch, Some(1))
        .expect("decide")
        .iter()
        .zip(batch.iter())
    {
        let reference = TdamArray::search(&am, q).expect("behavioral");
        assert_eq!(decision.best_row, reference.best_row());
        assert_eq!(decision.distances, reference.decoded());
    }
}

/// Every rung of the dispatch ladder — plain scalar, hand-unrolled, and
/// the wide SIMD rung when the build and CPU offer it — produces
/// bit-identical outcomes, winners, and distances, for every thread
/// count. The scalar rung is first pinned against the behavioral model,
/// then each wider rung is pinned against the scalar rung's exact
/// output.
#[test]
fn dispatch_ladder_rungs_are_bit_identical_across_thread_counts() {
    const STAGES: usize = 130; // ragged: exercises the partial last word
    let (am, mut rng) = seeded_array(3, STAGES, 40, 0x1ADD_E200);
    let mut batch = BatchQuery::new(STAGES);
    // 29 queries: not a multiple of the 8-query tile, so the ragged tail
    // tile is exercised on every rung.
    for _ in 0..29 {
        let q: Vec<u8> = (0..STAGES).map(|_| rng.gen_range(0..8u32) as u8).collect();
        batch.push(&q).expect("push");
    }
    let mut snap = am.compile_snapshot();
    assert!(
        snap.force_kernel(PackedKernel::Scalar),
        "the scalar rung is always available"
    );
    let outcomes = snap.search_batch(&am, &batch, Some(1)).expect("search");
    let decisions = snap.decide_batch(&am, &batch, Some(1)).expect("decide");
    for (i, (got, q)) in outcomes.iter().zip(batch.iter()).enumerate() {
        let want = TdamArray::search(&am, q).expect("behavioral");
        assert_eq!(got.best_row(), want.best_row(), "scalar query {i}: winner");
        assert_eq!(got.decoded(), want.decoded(), "scalar query {i}: decode");
    }
    for rung in [PackedKernel::Unrolled, PackedKernel::Simd] {
        if !snap.force_kernel(rung) {
            // Only the SIMD rung may be absent (feature off, or no wide
            // CPU path); a refused force must leave the ladder serving.
            assert_eq!(rung, PackedKernel::Simd, "unrolled is always available");
            continue;
        }
        for threads in [Some(1), Some(3), None] {
            assert_eq!(
                snap.search_batch(&am, &batch, threads).expect("search"),
                outcomes,
                "{rung:?} ({threads:?}): outcomes must be bit-identical to scalar"
            );
            assert_eq!(
                snap.decide_batch(&am, &batch, threads).expect("decide"),
                decisions,
                "{rung:?} ({threads:?}): decisions must be bit-identical to scalar"
            );
        }
    }
}

/// The same ladder pin through the owned-snapshot drivers (the serving
/// runtime's tier), plus the single-query packed path on each rung.
#[test]
fn snapshot_dispatch_ladder_matches_scalar_rung() {
    const STAGES: usize = 64;
    let (am, mut rng) = seeded_array(2, STAGES, 24, 0x5A95_0FF0);
    let queries: Vec<Vec<u8>> = (0..9)
        .map(|_| (0..STAGES).map(|_| rng.gen_range(0..4u32) as u8).collect())
        .collect();
    let mut batch = BatchQuery::new(STAGES);
    for q in &queries {
        batch.push(q).expect("push");
    }
    let mut snap = am.compile_snapshot();
    assert!(snap.force_kernel(PackedKernel::Scalar));
    let outcomes = snap.search_batch(&am, &batch, Some(1)).expect("search");
    let decisions = snap.decide_batch(&am, &batch, Some(1)).expect("decide");
    for rung in [PackedKernel::Unrolled, PackedKernel::Simd] {
        if !snap.force_kernel(rung) {
            continue;
        }
        assert_eq!(snap.kernel(), rung, "forced rung must be reported back");
        assert_eq!(
            snap.search_batch(&am, &batch, None).expect("search"),
            outcomes,
            "{rung:?}: snapshot batch"
        );
        assert_eq!(
            snap.decide_batch(&am, &batch, None).expect("decide"),
            decisions,
            "{rung:?}: snapshot decisions"
        );
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                snap.search_packed(&am, q).expect("single"),
                outcomes[i],
                "{rung:?}: single-query path, query {i}"
            );
        }
    }
}

/// Online mutation equivalence: after a random sequence of row rewrites,
/// a snapshot surgically refreshed with `refresh_rows` must be
/// bit-identical to a from-scratch `compile_snapshot` — counts, winners,
/// decisions, and energies — on every rung of the dispatch ladder and
/// for every thread count. This is the incremental-repack contract the
/// serving runtime leans on: a repacked snapshot is indistinguishable
/// from a full recompile.
#[test]
fn incrementally_repacked_snapshots_match_recompile_on_every_rung() {
    const STAGES: usize = 130; // ragged: repack must refill the partial word
    const ROWS: usize = 12;
    for (bits, seed) in [(1u8, 0xD127_0000u64), (2, 0xD127_0001), (4, 0xD127_0004)] {
        let (mut am, mut rng) = seeded_array(bits, STAGES, ROWS, seed);
        let levels = 1u32 << bits;
        let mut snap = am.compile_snapshot();

        // A random write sequence: repeated rewrites, including rows hit
        // more than once, interleaved across three refresh rounds so the
        // snapshot is surgically patched from several distinct baselines.
        // Every third write is variation-perturbed, so rows move between
        // the kernel and the behavioral fallback.
        let encoding = am.config().encoding;
        for round in 0..3 {
            let mut touched = std::collections::BTreeSet::new();
            for k in 0..6 {
                let row = rng.gen_range(0..ROWS);
                let values: Vec<u8> = (0..STAGES)
                    .map(|_| rng.gen_range(0..levels) as u8)
                    .collect();
                if k % 3 == 2 {
                    let cells = values
                        .iter()
                        .map(|&v| {
                            let (a, b) = Cell::new(v, encoding)?.vth_actual();
                            Cell::with_vth(v, encoding, a + 0.03, b + 0.02)
                        })
                        .collect::<Result<_, _>>()
                        .expect("cells");
                    am.store_cells(row, cells).expect("store_cells");
                } else {
                    am.store(row, &values).expect("store");
                }
                touched.insert(row);
            }
            let repacked = snap.refresh_rows(&am, touched.iter().copied());
            assert_eq!(
                repacked,
                touched.len(),
                "round {round}: every touched row repacks exactly once"
            );
        }

        let mut fresh = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), fresh.packed_rows());
        assert!(fresh.packed_rows() < ROWS, "some rows use the fallback");
        let mut batch = BatchQuery::new(STAGES);
        for _ in 0..11 {
            let q: Vec<u8> = (0..STAGES)
                .map(|_| rng.gen_range(0..levels) as u8)
                .collect();
            batch.push(&q).expect("push");
        }
        for rung in [
            PackedKernel::Scalar,
            PackedKernel::Unrolled,
            PackedKernel::Simd,
        ] {
            if !snap.force_kernel(rung) {
                assert_eq!(rung, PackedKernel::Simd, "only SIMD may be absent");
                continue;
            }
            assert!(fresh.force_kernel(rung), "rung parity between snapshots");
            assert_eq!(
                snap.search_batch(&am, &batch, Some(1)).expect("refreshed"),
                fresh
                    .search_batch(&am, &batch, Some(1))
                    .expect("recompiled"),
                "{bits}-bit {rung:?}: repacked outcomes must be bit-identical"
            );
            for threads in [Some(3), None] {
                assert_eq!(
                    snap.decide_batch(&am, &batch, threads).expect("refreshed"),
                    fresh
                        .decide_batch(&am, &batch, threads)
                        .expect("recompiled"),
                    "{bits}-bit {rung:?} ({threads:?}): repacked decisions"
                );
            }
            for (i, q) in batch.iter().enumerate() {
                assert_eq!(
                    snap.search_packed(&am, q).expect("refreshed"),
                    fresh.search_packed(&am, q).expect("recompiled"),
                    "{bits}-bit {rung:?}: single-query path, query {i}"
                );
            }
        }
    }
}

fn resilient(stages: usize, data_rows: usize, seed: u64) -> (ResilientArray, StdRng) {
    let cfg = ArrayConfig::paper_default()
        .with_stages(stages)
        .with_rows(data_rows);
    let res = ResilienceConfig {
        spare_rows: 2,
        reference_rows: 2,
        ..Default::default()
    };
    let mut ra = ResilientArray::new(cfg, res).expect("resilient array");
    let mut rng = StdRng::seed_from_u64(seed);
    for row in 0..data_rows {
        let values: Vec<u8> = (0..stages).map(|_| rng.gen_range(0..4u32) as u8).collect();
        ra.store(row, &values).expect("store");
    }
    (ra, rng)
}

/// A stuck column is detected, masked by repair, and the masked packed
/// view then (a) readmits every row to the kernel and (b) reproduces the
/// decode-corrected distances of the behavioral resilient path exactly.
#[test]
fn masked_columns_serve_packed_with_identical_corrected_decode() {
    const STAGES: usize = 66; // ragged: masked stage in the second word
    const DATA: usize = 5;
    let (mut ra, mut rng) = resilient(STAGES, DATA, 0x057A_CC01);
    ra.stuck_column(65).expect("stuck column");
    let detection = ra.check().expect("check");
    assert!(
        !detection.suspect_stages.is_empty(),
        "stuck column must be localized"
    );
    ra.repair(&detection).expect("repair");
    assert_eq!(ra.masked_stages(), vec![65], "column must be masked");

    // Unmasked packing refuses the faulted rows; the masked view packs
    // every row again.
    let unmasked = ra.array().compile_snapshot().packed_rows();
    assert_eq!(unmasked, 0, "stuck column poisons every physical row");
    let packed = ra.packed_view();
    let mut scratch = packed.scratch();
    assert_eq!(
        packed.packed_rows(),
        ra.array().config().rows,
        "masking the stuck column readmits every row"
    );

    for _ in 0..8 {
        let q: Vec<u8> = (0..STAGES).map(|_| rng.gen_range(0..4u32) as u8).collect();
        let behavioral = ra.search(&q).expect("resilient search");
        packed.expand_query(&q, &mut scratch);
        for logical in 0..DATA {
            let phys = ra.physical_row(logical).expect("phys");
            let (even, odd) = packed.row_mismatches(phys, &scratch);
            assert_eq!(
                even + odd,
                behavioral.rows[logical].decoded,
                "logical row {logical}: masked packed count must equal the \
                 decode-corrected behavioral distance"
            );
        }
    }
}

/// After repair remaps damaged rows onto spares, the packed physical
/// path + `resolve_outcome` reproduces the behavioral resilient search's
/// decisions exactly.
#[test]
fn spare_remapped_rows_resolve_identically_through_packed_path() {
    const STAGES: usize = 40;
    const DATA: usize = 4;
    let (mut ra, mut rng) = resilient(STAGES, DATA, 0x5BA2E);
    // Concentrated damage on logical row 1: enough stuck cells that
    // write-verify cannot heal it and repair reaches for a spare.
    for stage in 0..6 {
        ra.inject(1, stage * 3, FaultKind::StuckMismatch)
            .expect("inject");
    }
    let detection = ra.check().expect("check");
    ra.repair(&detection).expect("repair");
    let remapped = ra.physical_row(1).expect("phys");
    assert!(
        remapped >= DATA,
        "row 1 must be remapped onto a spare (got physical {remapped})"
    );

    let snap = ra.array().compile_snapshot();
    for _ in 0..8 {
        let q: Vec<u8> = (0..STAGES).map(|_| rng.gen_range(0..4u32) as u8).collect();
        let behavioral = ra.search(&q).expect("behavioral resilient");
        let physical = snap.search_packed(ra.array(), &q).expect("packed");
        let resolved = ra.resolve_outcome(&physical);
        for (logical, (got, want)) in resolved.rows.iter().zip(&behavioral.rows).enumerate() {
            assert_eq!(
                got.decoded, want.decoded,
                "logical row {logical}: packed+resolve decode"
            );
            assert_eq!(got.count, want.count, "logical row {logical}: TDC count");
            assert_eq!(got.health, want.health, "logical row {logical}: health");
        }
    }
}

/// The serving runtime round trip: an engine serving the packed compiled
/// tier is checkpointed, restored (conservatively on the behavioral
/// backend), re-promoted by its first health probe, and then serves the
/// packed tier again with identical decisions.
#[test]
fn resilient_engine_serves_packed_through_checkpoint_restore() {
    const STAGES: usize = 24;
    const DATA: usize = 5;
    let cfg = ArrayConfig::paper_default()
        .with_stages(STAGES)
        .with_rows(DATA);
    let res = ResilienceConfig {
        spare_rows: 1,
        reference_rows: 2,
        ..Default::default()
    };
    let mut engine = ResilientEngine::new(cfg, res, RuntimeConfig::default()).expect("engine");
    let mut rng = StdRng::seed_from_u64(0xC4EC_409E);
    let mut stored = Vec::new();
    for row in 0..DATA {
        let values: Vec<u8> = (0..STAGES).map(|_| rng.gen_range(0..4u32) as u8).collect();
        engine.store(row, &values).expect("store");
        stored.push(values);
    }
    let mut batch = BatchQuery::new(STAGES);
    for values in &stored {
        let mut q = values.clone();
        q[3] ^= 1;
        batch.push(&q).expect("push");
    }

    let before = engine.serve(&batch).expect("serve before checkpoint");
    assert_eq!(before.backend, BackendKind::Packed);
    let state = engine.checkpoint();

    let mut restored = ResilientEngine::restore(&state, RuntimeConfig::default()).expect("restore");
    // Restore is conservative: behavioral until a probe passes. The first
    // serve runs that probe and re-promotes.
    let first = restored.serve(&batch).expect("first serve after restore");
    assert_eq!(first.best_rows(), before.best_rows());
    let second = restored.serve(&batch).expect("second serve after restore");
    assert_eq!(
        second.backend,
        BackendKind::Packed,
        "restored engine must re-promote to the packed compiled tier"
    );
    assert_eq!(second.best_rows(), before.best_rows());
    for (slot, outcome) in second.slots.iter().enumerate() {
        let metrics = outcome.ok().expect("answered slot");
        // Near-match batches have one flipped element: the winner is the
        // matching stored row at distance 1.
        assert_eq!(metrics.best_row, Some(slot), "slot {slot}");
    }
}
