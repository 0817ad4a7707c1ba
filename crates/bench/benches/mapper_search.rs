//! Ablation: mapper search-strategy quality and speed.
//!
//! Compares the deterministic greedy constructor, seeded random search
//! and exhaustive enumeration on a mid-size conv layer, printing the
//! DRAM-traffic cost each strategy achieves before timing them.

use criterion::{criterion_group, criterion_main, Criterion};
use lumen_albireo::{AlbireoConfig, ScalingProfile};
use lumen_bench::print_once;
use lumen_mapper::search::{
    exhaustive_search, greedy_mapping, random_search, SearchConfig, TemporalPlan,
    DEFAULT_SPATIAL_PRIORITY,
};
use lumen_mapper::{analyze, LayerAnalysis};
use lumen_workload::Layer;
use std::hint::black_box;

fn cost(analysis: &LayerAnalysis) -> f64 {
    analysis.level(0).total_accesses()
}

fn bench_mapper_search(c: &mut Criterion) {
    let arch = AlbireoConfig::new(ScalingProfile::Conservative).build_arch();
    let layer = Layer::conv2d("probe", 1, 128, 64, 28, 28, 3, 3);

    print_once(
        "Ablation — mapper search strategies (DRAM accesses)",
        || {
            let greedy = greedy_mapping(
                &arch,
                &layer,
                &DEFAULT_SPATIAL_PRIORITY,
                &TemporalPlan::all_at(1),
            );
            let greedy_cost = cost(&analyze(&arch, &layer, &greedy).unwrap());
            let random = random_search(
                &arch,
                &layer,
                SearchConfig {
                    iterations: 400,
                    seed: 0xBEEF,
                },
                None,
                cost,
            )
            .expect("random search finds a mapping");
            let exhaustive =
                exhaustive_search(&arch, &layer, cost).expect("exhaustive finds a mapping");
            println!("strategy     DRAM accesses");
            println!("---------------------------");
            println!("greedy       {greedy_cost:.0}");
            println!(
                "random(400)  {:.0}  ({} legal candidates)",
                random.cost, random.evaluated
            );
            println!(
                "exhaustive   {:.0}  ({} legal candidates)",
                exhaustive.cost, exhaustive.evaluated
            );
        },
    );

    let mut group = c.benchmark_group("mapper_search");
    group.bench_function("greedy", |b| {
        b.iter(|| {
            black_box(greedy_mapping(
                &arch,
                black_box(&layer),
                &DEFAULT_SPATIAL_PRIORITY,
                &TemporalPlan::all_at(1),
            ))
        });
    });
    group.bench_function("analyze_once", |b| {
        let mapping = greedy_mapping(
            &arch,
            &layer,
            &DEFAULT_SPATIAL_PRIORITY,
            &TemporalPlan::all_at(1),
        );
        b.iter(|| black_box(analyze(&arch, &layer, black_box(&mapping)).unwrap()));
    });
    group.sample_size(10);
    group.bench_function("random_search_100", |b| {
        b.iter(|| {
            black_box(random_search(
                &arch,
                black_box(&layer),
                SearchConfig {
                    iterations: 100,
                    seed: 7,
                },
                None,
                cost,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mapper_search);
criterion_main!(benches);
