//! Criterion micro-benchmarks of the batched query path: one search
//! through the packed kernel vs the full behavioral model, and
//! whole-batch serving through `CompiledSnapshot::search_batch` (see
//! `packed.rs` for the encoding and row sweeps).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdam::array::TdamArray;
use tdam::config::ArrayConfig;
use tdam::engine::{BatchQuery, SimilarityEngine};

fn seeded_array(stages: usize, rows: usize, seed: u64) -> (TdamArray, BatchQuery) {
    let cfg = ArrayConfig::paper_default()
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
    let mut batch = BatchQuery::new(stages);
    for _ in 0..64 {
        let q: Vec<u8> = (0..stages)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect();
        batch.push(&q).expect("push");
    }
    (am, batch)
}

fn bench_packed_vs_behavioral_search(c: &mut Criterion) {
    let (am, batch) = seeded_array(128, 64, 0xBE9C);
    let query = batch.get(0).to_vec();
    c.bench_function("array_search_behavioral_64x128", |b| {
        b.iter(|| TdamArray::search(black_box(&am), black_box(&query)).expect("searches"))
    });
    let snap = am.compile_snapshot();
    c.bench_function("array_search_packed_64x128", |b| {
        b.iter(|| {
            snap.search_packed(&am, black_box(&query))
                .expect("searches")
        })
    });
}

fn bench_batch_serving(c: &mut Criterion) {
    let (mut am, batch) = seeded_array(128, 64, 0xBE9C);
    c.bench_function("batch64_sequential_loop_64x128", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|q| SimilarityEngine::search(&mut am, black_box(q)).expect("searches"))
                .count()
        })
    });
    let snap = am.compile_snapshot();
    c.bench_function("batch64_packed_pool_64x128", |b| {
        b.iter(|| {
            snap.search_batch(&am, black_box(&batch), None)
                .expect("searches")
                .len()
        })
    });
}

criterion_group!(
    benches,
    bench_packed_vs_behavioral_search,
    bench_batch_serving
);
criterion_main!(benches);
