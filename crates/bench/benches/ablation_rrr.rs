//! Ablation A3: effect of the number of rip-up-and-reroute iterations on
//! runtime (conflict convergence is recorded in `conflict_history` and
//! discussed in EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrtpl_core::MrTplConfig;
use tpl_bench::{prepare, run_mrtpl};
use tpl_harness::RouteBudget;
use tpl_ispd::{Case, CaseParams};

fn ablation_rrr(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rrr");
    group.sample_size(10);
    let params = CaseParams::ispd18_like(4).scaled(0.5);
    let (design, guides, _) = prepare(&Case::synthetic(params.clone()), &RouteBudget::default());
    for iterations in [0usize, 2, 5] {
        let config = MrTplConfig {
            max_rrr_iterations: iterations,
            ..MrTplConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("rrr_iterations", iterations),
            &iterations,
            |b, _| b.iter(|| run_mrtpl(&design, &guides, &config, &RouteBudget::default()).0),
        );
    }
    group.finish();
}

criterion_group!(benches, ablation_rrr);
criterion_main!(benches);
