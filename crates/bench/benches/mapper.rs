//! Mapper throughput: pruned/deduplicated search and the persistent
//! eval cache.
//!
//! Pins the two performance claims of the mapper-speed refactor:
//!
//! * **Search does less work for the same answer.** On a transformer
//!   GEMM, `random_search` (candidate dedup) and `random_search_pruned`
//!   (dedup + lower-bound early exit) must land on the bit-identical
//!   winning mapping of the naive baseline while calling `analyze` on
//!   strictly fewer candidates.
//! * **Persistence pays across processes.** A warm-from-disk
//!   [`lumen_core::EvalCache`] must make a repeated bert-base evaluation
//!   at least 2x faster than the cold run that populated it (in
//!   practice the warm run does no mapping search at all), with
//!   bit-identical results.
//!
//! Besides the criterion timings, the bench emits `BENCH_mapper.json`
//! at the repo root (searches/s, candidates analyzed vs. skipped, cold
//! vs. persisted-warm wall times on bert-base and the decode serving
//! workload), so the perf trajectory is tracked as an artifact.
//!
//! Run `cargo bench -p lumen-bench --bench mapper` for timings, or
//! append `-- --test` for the CI smoke profile (one iteration per
//! bench, identity and work-reduction asserted, no artifact written).

use criterion::{criterion_group, criterion_main, Criterion};
use lumen_albireo::{AlbireoConfig, ScalingProfile};
use lumen_bench::print_once;
use lumen_core::{EvalCache, EvalSession, MappingStrategy, NetworkOptions, System};
use lumen_mapper::search::{
    random_search, random_search_baseline, random_search_pruned, Preview, SearchConfig,
    SearchResult,
};
use lumen_mapper::LayerAnalysis;
use lumen_workload::{networks, Layer, Network};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cross-process warm-start floor asserted under
/// `LUMEN_BENCH_ASSERT_SPEEDUP` (the trajectory in `BENCH_mapper.json`
/// is several times above it: the warm run searches nothing).
const PERSIST_SPEEDUP_FLOOR: f64 = 2.0;

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
        .outer_reads
        .iter()
        .filter(|(level, _, _)| *level == 0)
        .map(|(_, _, reads)| reads)
        .sum()
}

/// Best-of-`runs` wall time of `f`, in seconds.
fn best_seconds<O>(runs: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn albireo_system() -> System {
    AlbireoConfig::new(ScalingProfile::Aggressive).build_system()
}

/// A scratch cache directory unique to this bench invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lumen-bench-mapper-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the three search variants on `layer` and checks the refactor's
/// contract: identical winning mapping and cost, strictly less
/// `analyze` work. Returns `(baseline, deduped, pruned)`.
fn search_contract(system: &System, layer: &Layer) -> (SearchResult, SearchResult, SearchResult) {
    let arch = system.arch();
    let baseline = random_search_baseline(arch, layer, SEARCH, cost).expect("baseline search maps");
    let deduped = random_search(arch, layer, SEARCH, cost).expect("deduped search maps");
    let pruned = random_search_pruned(arch, layer, SEARCH, outer_dram_reads, cost)
        .expect("pruned search maps");
    for (name, result) in [("dedup", &deduped), ("prune", &pruned)] {
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
    (baseline, deduped, pruned)
}

/// Cold-populates a persistent cache in `dir` with `net`, saves it, then
/// warm-starts a second cache from disk — two sessions over fresh
/// `EvalCache::persistent_in` instances, exactly what two CLI processes
/// sharing `--cache-dir` do. Returns `(cold, warm)` seconds.
fn persist_walls(system: &System, net: &Network, dir: &Path) -> (f64, f64) {
    let options = NetworkOptions::baseline();

    let start = Instant::now();
    let cache = EvalCache::persistent_in(dir);
    let session = EvalSession::new(system.clone()).with_cache(Arc::clone(&cache));
    let cold_eval = session.evaluate_network(net, &options).expect("cold maps");
    cache.save().expect("snapshot writes");
    let cold = start.elapsed().as_secs_f64();
    assert!(session.cache_stats().misses > 0, "cold run really searched");
    drop(session);
    drop(cache);

    // "Second process": re-read the snapshot from disk, then evaluate.
    let warm = best_seconds(3, || {
        let cache = EvalCache::persistent_in(dir);
        let session = EvalSession::new(system.clone()).with_cache(Arc::clone(&cache));
        let warm_eval = session.evaluate_network(net, &options).expect("warm maps");
        assert_eq!(
            session.cache_stats().misses,
            0,
            "{}: warm-from-disk run re-ran a search",
            net.name()
        );
        assert_eq!(
            cold_eval.energy.total().picojoules().to_bits(),
            warm_eval.energy.total().picojoules().to_bits(),
            "{}: warm energy drifted from the cold run",
            net.name()
        );
        assert_eq!(
            cold_eval.cycles.to_bits(),
            warm_eval.cycles.to_bits(),
            "{}: warm cycles drifted from the cold run",
            net.name()
        );
        warm_eval.energy.total()
    });
    (cold, warm)
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

    let (baseline, deduped, pruned) = search_contract(&system, &layer);
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
        },
    );

    let gate = std::env::var_os("LUMEN_BENCH_ASSERT_SPEEDUP").is_some();
    let write_artifact = !c.is_smoke() && std::env::var_os("CI").is_none();
    if gate || write_artifact {
        // The persistence claim is made where persistence matters: a
        // searched strategy, whose cold run pays a 400-candidate search
        // per unique signature while the warm run searches nothing.
        let searched = System::new(
            AlbireoConfig::new(ScalingProfile::Aggressive).build_arch(),
            MappingStrategy::RandomSearch(SEARCH),
        );
        let decode = networks::by_name("gpt2-small-decode").expect("decode workload resolves");
        let bert_dir = scratch_dir("bert");
        let (bert_cold, bert_warm) = persist_walls(&searched, &bert, &bert_dir);
        let decode_dir = scratch_dir("decode");
        let (decode_cold, decode_warm) = persist_walls(&searched, &decode, &decode_dir);
        let _ = std::fs::remove_dir_all(&bert_dir);
        let _ = std::fs::remove_dir_all(&decode_dir);
        let (bert_speedup, decode_speedup) = (bert_cold / bert_warm, decode_cold / decode_warm);
        println!(
            "bert-base:        cold {:.1} ms -> warm-from-disk {:.2} ms ({bert_speedup:.0}x)",
            bert_cold * 1e3,
            bert_warm * 1e3
        );
        println!(
            "gpt2-small-decode: cold {:.1} ms -> warm-from-disk {:.2} ms ({decode_speedup:.0}x)",
            decode_cold * 1e3,
            decode_warm * 1e3
        );
        if gate {
            assert!(
                bert_speedup >= PERSIST_SPEEDUP_FLOOR,
                "persistent warm-start regressed below the floor on bert-base: \
                 {bert_speedup:.2}x < {PERSIST_SPEEDUP_FLOOR:.1}x"
            );
        }
        if write_artifact {
            let search_wall = best_seconds(3, || {
                random_search(system.arch(), &layer, SEARCH, cost).expect("search maps")
            });
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            write_json(
                &root.join("BENCH_mapper.json"),
                &[
                    ("random_search_400", search_wall),
                    ("bert_base_persist_cold", bert_cold),
                    ("bert_base_persist_warm", bert_warm),
                    ("decode_persist_cold", decode_cold),
                    ("decode_persist_warm", decode_warm),
                ],
                &[
                    ("searches_per_s", 1.0 / search_wall),
                    ("candidates_analyzed_baseline", baseline.evaluated as f64),
                    ("candidates_analyzed_dedup", deduped.evaluated as f64),
                    ("candidates_analyzed_pruned", pruned.evaluated as f64),
                    ("candidates_skipped_dedup", deduped.skipped() as f64),
                    ("candidates_skipped_pruned", pruned.skipped() as f64),
                    ("bert_base_persist_speedup", bert_speedup),
                    ("decode_persist_speedup", decode_speedup),
                ],
            );
        }
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
                cost,
            ))
        });
    });
    group.bench_function("random_search_400_pruned", |b| {
        b.iter(|| {
            black_box(random_search_pruned(
                system.arch(),
                black_box(&layer),
                SEARCH,
                outer_dram_reads,
                cost,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mapper);
criterion_main!(benches);
