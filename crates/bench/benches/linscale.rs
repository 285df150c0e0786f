//! Criterion bench behind experiment **F5**: the O(N) Chebyshev engine
//! versus dense diagonalization across system sizes, at the benchmark's
//! O(N) settings (order 350, r_loc 6.0 Å, kT 0.2 eV), plus one block
//! recurrence step on a Si-216 region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tbmd::{silicon_gsp, ForceProvider, LinearScalingTb, OccupationScheme, Species, TbCalculator};
use tbmd_bench::RegionFixture;

fn bench_linscale(c: &mut Criterion) {
    let model = silicon_gsp();
    let mut group = c.benchmark_group("linear_scaling");
    group.sample_size(10);
    for reps in [2usize, 3] {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        let n = s.n_atoms();
        let dense = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.2 });
        group.bench_with_input(BenchmarkId::new("dense", n), &s, |b, s| {
            b.iter(|| dense.compute(s).unwrap())
        });
        let engine = LinearScalingTb::new(&model).with_r_loc(6.0);
        group.bench_with_input(BenchmarkId::new("chebyshev_o_n", n), &s, |b, s| {
            b.iter(|| engine.evaluate(s).unwrap())
        });
    }
    group.finish();
}

fn bench_block_step(c: &mut Criterion) {
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 3, 3, 3);
    let fixture = RegionFixture::new(&s, &silicon_gsp(), 6.0);
    c.bench_function("block_recurrence_100_steps", |b| {
        b.iter(|| fixture.recurrence(100).current()[fixture.row0][0])
    });
}

criterion_group!(benches, bench_linscale, bench_block_step);
criterion_main!(benches);
