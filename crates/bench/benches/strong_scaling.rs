//! Criterion bench behind experiment **T2**: the distributed TBMD engine at
//! several virtual-rank counts (numerical equivalence and overhead of the
//! message-passing machinery; the *scaling* numbers come from the cost
//! model in `report_speedup`, since all ranks share this host's core).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tbmd::{shared_memory_tb, silicon_gsp, DistributedTb, ForceProvider, Species, TbCalculator};

fn bench_engines(c: &mut Criterion) {
    let model = silicon_gsp();
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let mut group = c.benchmark_group("engines_si8");
    group.sample_size(10);

    let serial = TbCalculator::new(&model);
    group.bench_function("serial", |b| b.iter(|| serial.evaluate(&s).unwrap()));

    let shared = shared_memory_tb(&model);
    group.bench_function("shared_memory", |b| b.iter(|| shared.evaluate(&s).unwrap()));

    for p in [1usize, 2, 4] {
        let dist = DistributedTb::new(&model, p);
        group.bench_with_input(BenchmarkId::new("distributed", p), &s, |b, s| {
            b.iter(|| dist.evaluate(s).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
