//! Extension: photonic vs digital-electronic full-system comparison.
//!
//! Prints energy-per-MAC and throughput for a peak-matched DE-only MAC
//! array against Albireo at the conservative and aggressive corners —
//! quantifying the paper's motivation that photonic benefits only
//! materialize once conversions and DRAM are managed.

use criterion::{criterion_group, criterion_main, Criterion};
use lumen_albireo::experiments::baseline_study;
use lumen_albireo::{DigitalBaseline, ScalingProfile};
use lumen_bench::print_once;
use lumen_core::NetworkOptions;
use lumen_workload::networks;
use std::hint::black_box;

fn bench_digital_baseline(c: &mut Criterion) {
    print_once(
        "Extension — photonic vs digital baseline (full system)",
        || {
            for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
                let result = baseline_study(scaling).expect("comparison evaluates");
                println!("{result}");
            }
        },
    );

    let system = DigitalBaseline::new().build_system();
    let net = networks::resnet18();
    let mut group = c.benchmark_group("digital_baseline");
    group.bench_function("resnet18_on_digital", |b| {
        b.iter(|| {
            let eval = system
                .evaluate_network(black_box(&net), &NetworkOptions::baseline())
                .unwrap();
            black_box(eval.energy.total())
        });
    });
    group.sample_size(10);
    group.bench_function("full_comparison", |b| {
        b.iter(|| {
            black_box(
                baseline_study(ScalingProfile::Aggressive)
                    .unwrap()
                    .rows
                    .len(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_digital_baseline);
criterion_main!(benches);
