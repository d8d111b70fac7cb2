//! Criterion micro-benchmark for tile-size sensitivity (the regression
//! mirror of experiment F3): the sweep engine's tile order under scalar
//! rows and under the `auto` SIMD kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::SimdKernel;
use tsa_scoring::Scoring;
use tsa_seq::family::FamilyConfig;

fn bench_tiles(c: &mut Criterion) {
    let scoring = Scoring::dna_default();
    let fam = FamilyConfig::new(64, 0.15, 0.05).generate(99);
    let [a, b, cc] = fam.members;
    let mut group = c.benchmark_group("tiles");
    for tile in [4usize, 8, 16, 32] {
        for (name, kernel) in [("scalar", SimdKernel::Scalar), ("auto", SimdKernel::Auto)] {
            let sweep = Sweep::new(Order::Tiles { tile }, kernel);
            group.bench_with_input(BenchmarkId::new(name, tile), &tile, |bch, _| {
                bch.iter(|| sweep.score(&a, &b, &cc, &scoring).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tiles
}
criterion_main!(benches);
