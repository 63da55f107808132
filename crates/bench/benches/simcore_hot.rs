//! Criterion bench of the simulation core's CPU contention model.

use criterion::{criterion_group, criterion_main, Criterion};
use simcore::CpuSim;

fn bench_cpu(c: &mut Criterion) {
    c.bench_function("cpusim_recompute_1000_tasks", |b| {
        let mut cpu = CpuSim::new(4, 1.0);
        for i in 0..1000 {
            cpu.add_background(i % 4, 0.0005);
        }
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let id = cpu.add_finite(0, 1.0);
            let r = cpu.rate_of(id);
            cpu.remove(id);
            r
        })
    });
}

criterion_group!(benches, bench_cpu);
criterion_main!(benches);
