//! Criterion micro-benchmarks of the bit-sliced packed kernel across
//! encoding widths (1/2/3/4-bit at 128 rows) and array sizes (64/1024
//! rows at 2-bit). Each configuration times two single-threaded batch
//! paths of `CompiledSnapshot`: `search_batch` (full analog outcomes)
//! and `decide_batch` (decision-only). The kernel dispatch ladder is
//! swept by `ext_batch_throughput`'s kernel-ladder scenario.
//!
//! Besides the Criterion registrations, each configuration prints one
//! coarse best-of-3 summary line so `cargo bench --bench packed` leaves
//! an archivable trace (see `results/packed.txt`) even when the harness
//! is the offline stand-in.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tdam::array::TdamArray;
use tdam::config::ArrayConfig;
use tdam::encoding::Encoding;
use tdam::engine::{BatchQuery, SimilarityEngine};

const STAGES: usize = 128;
const BATCH: usize = 32;

fn seeded_array(bits: u8, rows: usize, seed: u64) -> (TdamArray, BatchQuery) {
    let cfg = ArrayConfig::paper_default()
        .with_encoding(Encoding::new(bits).expect("encoding"))
        .with_stages(STAGES)
        .with_rows(rows);
    let levels = cfg.encoding.levels() as u32;
    let mut am = TdamArray::new(cfg).expect("array");
    let mut rng = StdRng::seed_from_u64(seed);
    for row in 0..rows {
        let values: Vec<u8> = (0..STAGES)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        am.store(row, &values).expect("store");
    }
    let mut batch = BatchQuery::new(STAGES);
    for _ in 0..BATCH {
        let q: Vec<u8> = (0..STAGES)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        batch.push(&q).expect("push");
    }
    (am, batch)
}

fn best_of<F: FnMut() -> usize>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bench_config(c: &mut Criterion, bits: u8, rows: usize) {
    let (am, batch) = seeded_array(bits, rows, 0xBEC5 ^ ((bits as u64) << 16) ^ rows as u64);
    let snap = am.compile_snapshot();
    assert_eq!(snap.packed_rows(), rows, "all rows must pack");
    let tag = format!("{bits}bit_{rows}rows_{STAGES}stages");

    // Coarse archivable summary, independent of the harness backend.
    let packed = best_of(|| {
        snap.search_batch(&am, &batch, Some(1))
            .expect("packed")
            .len()
    });
    let decide = best_of(|| {
        snap.decide_batch(&am, &batch, Some(1))
            .expect("decide")
            .len()
    });
    println!(
        "{tag}: per query  packed {:7.2} µs  decide {:7.2} µs ({:5.2}x packed)",
        packed / BATCH as f64 * 1e6,
        decide / BATCH as f64 * 1e6,
        packed / decide,
    );

    c.bench_function(&format!("packed_batch_{tag}"), |b| {
        b.iter(|| {
            snap.search_batch(&am, black_box(&batch), Some(1))
                .expect("packed")
                .len()
        })
    });
    c.bench_function(&format!("decide_batch_{tag}"), |b| {
        b.iter(|| {
            snap.decide_batch(&am, black_box(&batch), Some(1))
                .expect("decide")
                .len()
        })
    });
}

fn bench_encoding_sweep(c: &mut Criterion) {
    for bits in 1..=4u8 {
        bench_config(c, bits, 128);
    }
}

fn bench_row_sweep(c: &mut Criterion) {
    for rows in [64usize, 1024] {
        bench_config(c, 2, rows);
    }
}

criterion_group!(benches, bench_encoding_sweep, bench_row_sweep);
criterion_main!(benches);
