//! Ablation A1: set-based colour states (the paper's method) vs committing a
//! single colour greedily during search.  Reports runtime; the quality gap is
//! reported by the `ablations` binary output of the same configurations in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrtpl_core::{MrTplConfig, SearchPolicy};
use tpl_bench::{prepare, run_mrtpl};
use tpl_harness::RouteBudget;
use tpl_ispd::{Case, CaseParams};

fn ablation_colorstate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_colorstate");
    group.sample_size(10);
    for idx in [2usize, 3] {
        let params = CaseParams::ispd18_like(idx).scaled(0.5);
        let (design, guides, _) =
            prepare(&Case::synthetic(params.clone()), &RouteBudget::default());
        group.bench_with_input(BenchmarkId::new("set_based", idx), &idx, |b, _| {
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
        let greedy = MrTplConfig {
            policy: SearchPolicy::GreedySingleColor,
            ..MrTplConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("greedy_single_color", idx),
            &idx,
            |b, _| b.iter(|| run_mrtpl(&design, &guides, &greedy, &RouteBudget::default()).0),
        );
    }
    group.finish();
}

criterion_group!(benches, ablation_colorstate);
criterion_main!(benches);
