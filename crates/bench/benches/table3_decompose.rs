//! Criterion bench behind Table III: Mr.TPL vs the route-then-decompose flow
//! (Dr.CU-like router + OpenMPL-style decomposition) on scaled ISPD-2019-like
//! cases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrtpl_core::MrTplConfig;
use tpl_bench::{prepare, run_decompose, run_mrtpl};
use tpl_decompose::DecomposeConfig;
use tpl_drcu::DrCuConfig;
use tpl_harness::RouteBudget;
use tpl_ispd::{Case, CaseParams};

fn table3_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_decompose");
    group.sample_size(10);
    for idx in [1usize, 2] {
        let params = CaseParams::ispd19_like(idx).scaled(0.5);
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
        group.bench_with_input(
            BenchmarkId::new("route_then_decompose", idx),
            &idx,
            |b, _| {
                b.iter(|| {
                    run_decompose(
                        &design,
                        &guides,
                        &DrCuConfig::default(),
                        &DecomposeConfig::default(),
                    )
                    .0
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, table3_decompose);
criterion_main!(benches);
