//! Criterion micro-benchmarks for the three-sequence aligners — the
//! regression-tracking mirror of experiments T1/T2/F2 at a fixed size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tsa_core::anchored::{self, AnchorConfig};
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{
    affine, carrillo_lipman, full, hirschberg3, local, wavefront, CancelToken, SimdKernel,
};
use tsa_scoring::GapModel;
use tsa_scoring::Scoring;
use tsa_seq::family::FamilyConfig;

fn triple(n: usize) -> (tsa_seq::Seq, tsa_seq::Seq, tsa_seq::Seq) {
    let fam = FamilyConfig::new(n, 0.15, 0.05).generate(11 ^ n as u64);
    let [a, b, c] = fam.members;
    (a, b, c)
}

fn bench_three_seq(c: &mut Criterion) {
    let scoring = Scoring::dna_default();
    let mut group = c.benchmark_group("three_seq");
    for n in [32usize, 64] {
        let (a, b, cc) = triple(n);
        let cells = ((a.len() + 1) * (b.len() + 1) * (cc.len() + 1)) as u64;
        group.throughput(Throughput::Elements(cells));
        group.bench_with_input(BenchmarkId::new("full_seq", n), &n, |bch, _| {
            bch.iter(|| full::align_score(&a, &b, &cc, &scoring))
        });
        group.bench_with_input(BenchmarkId::new("wavefront", n), &n, |bch, _| {
            bch.iter(|| wavefront::align_score(&a, &b, &cc, &scoring))
        });
        for (name, order) in [
            ("tiles_t16", Order::Tiles { tile: 16 }),
            ("score_slabs", Order::Slabs),
        ] {
            let sweep = Sweep::new(order, SimdKernel::Auto);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bch, _| {
                bch.iter(|| sweep.score(&a, &b, &cc, &scoring).unwrap())
            });
        }
        let never = CancelToken::never();
        group.bench_with_input(BenchmarkId::new("hirschberg_dc", n), &n, |bch, _| {
            bch.iter(|| {
                hirschberg3::align(&a, &b, &cc, &scoring, false, SimdKernel::Auto, &never)
                    .unwrap()
                    .score
            })
        });
        group.bench_with_input(BenchmarkId::new("carrillo_lipman", n), &n, |bch, _| {
            bch.iter(|| {
                carrillo_lipman::score(&a, &b, &cc, &scoring, SimdKernel::Auto, &never)
                    .unwrap()
                    .0
            })
        });
        group.bench_with_input(BenchmarkId::new("local_sw3", n), &n, |bch, _| {
            bch.iter(|| local::align_score(&a, &b, &cc, &scoring))
        });
        group.bench_with_input(BenchmarkId::new("anchored_k10", n), &n, |bch, _| {
            let cfg = AnchorConfig {
                kmer: 10,
                ..AnchorConfig::default()
            };
            bch.iter(|| anchored::align(&a, &b, &cc, &scoring, &cfg).score)
        });
    }
    // Affine is ~8× per cell; bench at the smaller size only.
    let aff = Scoring::dna_default().with_gap(GapModel::affine(-4, -2));
    let (a, b, cc) = triple(32);
    group.bench_function("affine_quasi_natural/32", |bch| {
        bch.iter(|| affine::align_score(&a, &b, &cc, &aff))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_three_seq
}
criterion_main!(benches);
