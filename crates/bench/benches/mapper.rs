//! Mapper throughput: pruned and deduplicated random search.
//!
//! Pins the performance claim of the mapper-speed refactor: **search
//! does less work for the same answer.** On a transformer GEMM (the
//! attention score matmul of a bert-base encoder block),
//! `random_search` without a bound (candidate dedup) and with one (dedup
//! plus a lower-bound early exit, under two bounds) must land on the
//! bit-identical winning mapping and cost of the naive baseline while
//! calling `analyze` on strictly fewer candidates. One bound is the DRAM
//! reads of the read tensors; the other, the complete traffic at every
//! tensor's outermost keeper, is exact for the objective, so its variant
//! analyzes only candidates that beat (or tie) the incumbent. The
//! contract is asserted on every run, the CI smoke profile included,
//! and so is the search's exact work: each variant's analyzed and
//! skipped candidate counts must equal the ones recorded in
//! `BENCH_mapper.json`. The counts are a pure function of the search's
//! RNG stream and the bounds' terms, so a drift means candidate
//! generation or a preview changed; a deliberate change re-records
//! them.
//!
//! Besides the criterion timings, a full run outside CI writes
//! `BENCH_mapper.json` at the repo root (searches/s and candidates
//! analyzed vs. skipped per variant), so the trajectory is tracked as an
//! artifact.
//!
//! Run `cargo bench -p lumen-bench --bench mapper` for timings, or
//! append `-- --test` for the CI smoke profile (one iteration per
//! bench, identity and work-reduction asserted, no artifact written).

use criterion::{criterion_group, criterion_main, Criterion};
use lumen_albireo::{AlbireoConfig, ScalingProfile};
use lumen_bench::print_once;
use lumen_core::System;
use lumen_mapper::search::{
    random_search, random_search_baseline, Preview, SearchConfig, SearchResult,
};
use lumen_mapper::LayerAnalysis;
use lumen_workload::{networks, Layer, TensorKind};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SEARCH: SearchConfig = SearchConfig {
    iterations: 400,
    seed: 0xBEEF,
};

/// DRAM pressure: the classic search objective, and one the exact
/// outer-read lower bound can prune against.
fn cost(analysis: &LayerAnalysis) -> f64 {
    analysis.level(0).total_accesses()
}

/// The exact outer-read lower bound on [`cost`]: the DRAM reads of the
/// read tensors, a subset of the DRAM accesses.
fn outer_dram_reads(preview: &Preview<'_>) -> f64 {
    preview
        .outer_traffic
        .iter()
        .filter(|keeper| keeper.level == 0 && keeper.tensor != TensorKind::Output)
        .map(|keeper| keeper.reads)
        .sum()
}

/// The DRAM traffic of every tensor's outermost keeper: on Albireo,
/// whose DRAM is every tensor's outermost keeper, [`cost`] itself, bit
/// for bit (the same sums in the same order).
fn outer_dram_traffic(preview: &Preview<'_>) -> f64 {
    preview
        .outer_traffic
        .iter()
        .filter(|keeper| keeper.level == 0)
        .map(|keeper| keeper.reads + keeper.writes)
        .sum()
}

/// The search's relative pruning margin.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Runs the recorded timing takes the median of.
const TIMED_RUNS: usize = 201;

/// Median wall time of `runs` runs of `f`, in seconds: on a shared host
/// a best-of-few follows its quietest moment, a median the code.
fn median_seconds<O>(runs: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

fn albireo_system() -> System {
    AlbireoConfig::new(ScalingProfile::Aggressive).build_system()
}

/// Runs the four search variants on `layer` and checks the refactor's
/// contract: identical winning mapping and cost, strictly less
/// `analyze` work, and under the exact traffic bound an analysis only
/// for a candidate that beats or ties the incumbent. Returns
/// `(baseline, deduped, pruned, pruned on traffic)`.
fn search_contract(
    system: &System,
    layer: &Layer,
) -> (SearchResult, SearchResult, SearchResult, SearchResult) {
    let arch = system.arch();
    let baseline = random_search_baseline(arch, layer, SEARCH, cost).expect("baseline search maps");
    let deduped = random_search(arch, layer, SEARCH, None, cost).expect("deduped search maps");
    let pruned = random_search(arch, layer, SEARCH, Some(&outer_dram_reads), cost)
        .expect("pruned search maps");
    let mut incumbent = f64::INFINITY;
    let traffic = random_search(arch, layer, SEARCH, Some(&outer_dram_traffic), |analysis| {
        let c = cost(analysis);
        assert!(
            c * PRUNE_MARGIN < incumbent,
            "the exact bound let a losing candidate through on {}: {c} against {incumbent}",
            layer.name()
        );
        incumbent = incumbent.min(c);
        c
    })
    .expect("traffic-pruned search maps");
    for (name, result) in [
        ("dedup", &deduped),
        ("prune", &pruned),
        ("prune on traffic", &traffic),
    ] {
        assert_eq!(
            baseline.mapping,
            result.mapping,
            "{name}: winning mapping drifted from the naive baseline on {}",
            layer.name()
        );
        assert_eq!(
            baseline.cost.to_bits(),
            result.cost.to_bits(),
            "{name}: winning cost drifted on {}",
            layer.name()
        );
        assert!(
            result.evaluated < baseline.evaluated,
            "{name}: expected fewer analyze calls than the baseline's {} on {}, got {}",
            baseline.evaluated,
            layer.name(),
            result.evaluated
        );
    }
    (baseline, deduped, pruned, traffic)
}

/// The number recorded under `key` in a `BENCH_*.json` artifact body.
fn recorded(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Asserts every candidate count against `BENCH_mapper.json`.
fn assert_recorded_counts(root: &Path, counts: &[(&str, f64)]) {
    let path = root.join("BENCH_mapper.json");
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read the recorded counts in {path:?}: {e}"));
    for &(key, count) in counts {
        assert_eq!(
            recorded(&body, key),
            Some(count),
            "{key}: the search did {count} where BENCH_mapper.json records otherwise"
        );
    }
}

fn write_json(path: &Path, times: &[(&str, f64)], extras: &[(&str, f64)]) {
    let mut body = String::from("{\n  \"bench\": \"mapper\",\n");
    for (key, value) in times {
        body.push_str(&format!("  \"{key}_ms\": {:.3},\n", value * 1e3));
    }
    for (key, value) in extras {
        body.push_str(&format!("  \"{key}\": {value:.4},\n"));
    }
    let body = body.trim_end_matches(",\n").to_string() + "\n}\n";
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write {path:?}: {e}");
    }
}

fn bench_mapper(c: &mut Criterion) {
    let system = albireo_system();
    // The transformer GEMM the work-reduction claim is made on: the
    // attention score matmul of a bert-base encoder block.
    let bert = networks::bert_base();
    let layer = bert
        .layers()
        .iter()
        .find(|l| l.kind() == lumen_workload::LayerKind::Matmul)
        .expect("bert-base has matmul layers")
        .clone();

    let (baseline, deduped, pruned, traffic) = search_contract(&system, &layer);
    print_once(
        "Mapper — pruned/deduplicated search vs naive baseline",
        || {
            println!(
                "{} ({} iterations): winning cost {:.0} in all variants",
                layer.name(),
                SEARCH.iterations,
                baseline.cost
            );
            println!("variant    analyzed  deduped  pruned");
            println!("-------------------------------------");
            println!("baseline   {:>8}        -       -", baseline.evaluated);
            println!(
                "dedup      {:>8}  {:>7}       -",
                deduped.evaluated, deduped.deduped
            );
            println!(
                "dedup+lb   {:>8}  {:>7}  {:>6}",
                pruned.evaluated, pruned.deduped, pruned.pruned
            );
            println!(
                "dedup+lb*  {:>8}  {:>7}  {:>6}   (* exact outermost-keeper traffic bound)",
                traffic.evaluated, traffic.deduped, traffic.pruned
            );
        },
    );

    let counts = [
        ("candidates_analyzed_baseline", baseline.evaluated as f64),
        ("candidates_analyzed_dedup", deduped.evaluated as f64),
        ("candidates_analyzed_pruned", pruned.evaluated as f64),
        ("candidates_skipped_dedup", deduped.skipped() as f64),
        ("candidates_skipped_pruned", pruned.skipped() as f64),
        (
            "candidates_analyzed_pruned_traffic",
            traffic.evaluated as f64,
        ),
        (
            "candidates_skipped_pruned_traffic",
            traffic.skipped() as f64,
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert_recorded_counts(&root, &counts);

    if !c.is_smoke() && std::env::var_os("CI").is_none() {
        let search_wall = median_seconds(TIMED_RUNS, || {
            random_search(system.arch(), &layer, SEARCH, None, cost).expect("search maps")
        });
        let mut extras = vec![("searches_per_s", 1.0 / search_wall)];
        extras.extend(counts);
        write_json(
            &root.join("BENCH_mapper.json"),
            &[("random_search_400", search_wall)],
            &extras,
        );
    }

    let mut group = c.benchmark_group("mapper");
    group.sample_size(10);
    group.bench_function("random_search_400_baseline", |b| {
        b.iter(|| {
            black_box(random_search_baseline(
                system.arch(),
                black_box(&layer),
                SEARCH,
                cost,
            ))
        });
    });
    group.bench_function("random_search_400_dedup", |b| {
        b.iter(|| {
            black_box(random_search(
                system.arch(),
                black_box(&layer),
                SEARCH,
                None,
                cost,
            ))
        });
    });
    group.bench_function("random_search_400_pruned", |b| {
        b.iter(|| {
            black_box(random_search(
                system.arch(),
                black_box(&layer),
                SEARCH,
                Some(&outer_dram_reads),
                cost,
            ))
        });
    });
    group.bench_function("random_search_400_pruned_traffic", |b| {
        b.iter(|| {
            black_box(random_search(
                system.arch(),
                black_box(&layer),
                SEARCH,
                Some(&outer_dram_traffic),
                cost,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mapper);
criterion_main!(benches);
