//! Criterion bench behind Table II's runtime/speedup column: Mr.TPL vs the
//! DAC'12 baseline on (scaled) ISPD-2018-like cases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrtpl_core::MrTplConfig;
use tpl_bench::{prepare, run_dac12, run_mrtpl};
use tpl_dac12::Dac12Config;
use tpl_harness::RouteBudget;
use tpl_ispd::{Case, CaseParams};

fn table2_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_runtime");
    group.sample_size(10);
    for idx in [1usize, 2, 3] {
        let params = CaseParams::ispd18_like(idx).scaled(0.5);
        let (design, guides, _) =
            prepare(&Case::synthetic(params.clone()), &RouteBudget::default());
        group.bench_with_input(BenchmarkId::new("mrtpl", idx), &idx, |b, _| {
            b.iter(|| {
                run_mrtpl(
                    &design,
                    &guides,
                    &MrTplConfig::default(),
                    &RouteBudget::default(),
                )
                .0
            })
        });
        group.bench_with_input(BenchmarkId::new("dac12", idx), &idx, |b, _| {
            b.iter(|| {
                run_dac12(
                    &design,
                    &guides,
                    &Dac12Config::default(),
                    &RouteBudget::default(),
                )
                .0
            })
        });
    }
    group.finish();
}

criterion_group!(benches, table2_runtime);
criterion_main!(benches);
