//! Ablation A2: sweep of the stitch-cost weight (β of Eq. (1)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrtpl_core::MrTplConfig;
use tpl_bench::{prepare, run_mrtpl};
use tpl_harness::RouteBudget;
use tpl_ispd::{Case, CaseParams};

fn ablation_weights(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_weights");
    group.sample_size(10);
    let params = CaseParams::ispd18_like(3).scaled(0.5);
    let (design, guides, _) = prepare(&Case::synthetic(params.clone()), &RouteBudget::default());
    for stitch_cost in [5.0f64, 20.0, 80.0] {
        let config = MrTplConfig {
            stitch_cost,
            ..MrTplConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("stitch_cost", stitch_cost as u64),
            &stitch_cost,
            |b, _| b.iter(|| run_mrtpl(&design, &guides, &config, &RouteBudget::default()).0),
        );
    }
    group.finish();
}

criterion_group!(benches, ablation_weights);
criterion_main!(benches);
