//! Cross-crate guarantees of the content-addressed evaluation pipeline:
//! cached and uncached evaluation are **bit-identical** across every
//! bundled network and both deterministic mapping-strategy families, and
//! mapping search runs exactly once per unique layer signature.

use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::core::{EvalCache, EvalSession, MappingStrategy, NetworkOptions, SweepRunner, System};
use lumen::mapper::search::{greedy_mapping, spatial_priority_for, SearchConfig, TemporalPlan};
use lumen::units::{Energy, Frequency};
use lumen::workload::{networks, Dim, DimSet, Layer, LayerSignature, TensorSet};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A small generic hierarchy that maps every bundled network: DRAM, a
/// generously sized global buffer with a wide fanout, digital MACs.
fn generic_arch() -> Architecture {
    ArchBuilder::new("generic", Frequency::from_gigahertz(1.0))
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(100.0))
        .write_energy(Energy::from_picojoules(100.0))
        .done()
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.0))
        .write_energy(Energy::from_picojoules(1.0))
        .fanout(Fanout::new(256).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P, Dim::Q])))
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("generic arch is valid")
}

fn strategies() -> Vec<(&'static str, MappingStrategy)> {
    vec![
        ("greedy", MappingStrategy::default()),
        (
            "random-search",
            MappingStrategy::RandomSearch(SearchConfig {
                iterations: 25,
                seed: 0xC0FFEE,
            }),
        ),
    ]
}

/// The property at the heart of the refactor: for every bundled network
/// and both mapping-strategy families, the content-addressed pipeline
/// reproduces the sequential path bit for bit — totals, cycles, and every
/// per-layer mapping, analysis and energy item.
#[test]
fn cached_evaluation_is_bit_identical_for_all_networks_and_strategies() {
    for (strategy_name, strategy) in strategies() {
        for name in networks::NAMES {
            let net = networks::by_name(name).expect("bundled network");
            let system = System::new(generic_arch(), strategy.clone());
            let sequential = system
                .evaluate_network(&net, &NetworkOptions::baseline())
                .unwrap_or_else(|e| panic!("{name}/{strategy_name}: sequential fails: {e}"));
            let session = EvalSession::new(system);
            let cached = session
                .evaluate_network(&net, &NetworkOptions::baseline())
                .unwrap_or_else(|e| panic!("{name}/{strategy_name}: cached fails: {e}"));

            let ctx = format!("{name}/{strategy_name}");
            assert_eq!(
                sequential.energy.total().picojoules().to_bits(),
                cached.energy.total().picojoules().to_bits(),
                "{ctx}: total energy drifted"
            );
            assert_eq!(
                sequential.cycles.to_bits(),
                cached.cycles.to_bits(),
                "{ctx}: cycles drifted"
            );
            assert_eq!(sequential.macs, cached.macs, "{ctx}: macs drifted");
            assert_eq!(sequential.per_layer.len(), cached.per_layer.len());
            for (s, c) in sequential.per_layer.iter().zip(&cached.per_layer) {
                assert_eq!(s.layer_name, c.layer_name, "{ctx}: layer order");
                assert_eq!(
                    s.signature, c.signature,
                    "{ctx}: {0} signature",
                    s.layer_name
                );
                assert_eq!(s.mapping, c.mapping, "{ctx}: {0} mapping", s.layer_name);
                assert_eq!(
                    s.analysis.cycles, c.analysis.cycles,
                    "{ctx}: {0} cycles",
                    s.layer_name
                );
                assert_eq!(
                    s.energy.total().picojoules().to_bits(),
                    c.energy.total().picojoules().to_bits(),
                    "{ctx}: {0} energy",
                    s.layer_name
                );
            }

            // The session searched only the unique signatures.
            let unique: HashSet<LayerSignature> =
                net.layers().iter().map(Layer::signature).collect();
            assert_eq!(
                session.cache_stats().misses,
                unique.len() as u64,
                "{ctx}: one mapping search per unique signature"
            );
        }
    }
}

/// Batching and fusion go through the same dedup path; check one
/// representative workload under every option combination.
#[test]
fn cached_evaluation_is_bit_identical_under_batching_and_fusion() {
    let options = [
        NetworkOptions::baseline(),
        NetworkOptions::baseline().with_batch(8),
        NetworkOptions::baseline().with_fusion("dram", "glb"),
        NetworkOptions::baseline()
            .with_batch(8)
            .with_fusion("dram", "glb"),
    ];
    let net = networks::resnet18();
    for options in &options {
        let system = System::new(generic_arch(), MappingStrategy::default());
        let sequential = system.evaluate_network(&net, options).unwrap();
        let cached = EvalSession::new(system)
            .evaluate_network(&net, options)
            .unwrap();
        assert_eq!(
            sequential.energy.total().picojoules().to_bits(),
            cached.energy.total().picojoules().to_bits(),
            "batch={} fusion={}",
            options.batch,
            options.fusion.is_some()
        );
        assert_eq!(sequential.cycles.to_bits(), cached.cycles.to_bits());
    }
}

/// The acceptance criterion made literal: a counting custom strategy
/// proves that evaluating bert-base through an [`EvalSession`] invokes
/// mapping construction exactly once per *unique* signature — 5 times
/// for the 96-layer network — and that the result still matches the
/// uncached path bit for bit.
#[test]
fn bert_base_maps_once_per_unique_signature() {
    let net = networks::bert_base();
    let unique: HashSet<LayerSignature> = net.layers().iter().map(Layer::signature).collect();
    assert_eq!(
        unique.len(),
        5,
        "bert-base: 4x proj, logits, attend, fc1, fc2"
    );

    let searches = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&searches);
    let counting = MappingStrategy::custom_keyed(
        0xc1,
        Arc::new(move |arch, layer| {
            counter.fetch_add(1, Ordering::Relaxed);
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        }),
    );

    let session = EvalSession::new(System::new(generic_arch(), counting.clone()));
    let cached = session
        .evaluate_network(&net, &NetworkOptions::baseline())
        .expect("bert-base maps");
    assert_eq!(
        searches.load(Ordering::Relaxed),
        unique.len(),
        "mapping construction ran once per unique signature"
    );
    assert_eq!(session.cache_stats().misses, unique.len() as u64);
    assert_eq!(
        session.cache_stats().hits,
        (net.layers().len() - unique.len()) as u64
    );

    let uncached = System::new(generic_arch(), counting)
        .evaluate_network(&net, &NetworkOptions::baseline())
        .expect("bert-base maps");
    assert_eq!(
        searches.load(Ordering::Relaxed),
        unique.len() + net.layers().len(),
        "uncached path maps every layer"
    );
    assert_eq!(
        uncached.energy.total().picojoules().to_bits(),
        cached.energy.total().picojoules().to_bits()
    );
}

/// A cache shared across sweep-style sessions answers repeated
/// (architecture, layer) pairs without re-evaluating, and a
/// single-threaded runner changes nothing about the results.
#[test]
fn shared_cache_reuses_across_sessions_and_thread_counts() {
    let cache = EvalCache::shared();
    let net = networks::bert_base();
    let first = EvalSession::new(System::new(generic_arch(), MappingStrategy::default()))
        .with_cache(Arc::clone(&cache));
    let a = first
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    assert_eq!(cache.stats().misses, 5);

    let second = EvalSession::new(System::new(generic_arch(), MappingStrategy::default()))
        .with_cache(Arc::clone(&cache))
        .with_runner(SweepRunner::with_threads(1));
    let b = second
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    assert_eq!(
        cache.stats().misses,
        5,
        "second session re-evaluated nothing"
    );
    assert_eq!(
        a.energy.total().picojoules().to_bits(),
        b.energy.total().picojoules().to_bits(),
        "thread count and cache state do not affect results"
    );
}

/// `without_cache` is the A/B escape hatch: same results, no memoization.
#[test]
fn uncached_session_matches_cached_session() {
    let net = networks::gpt2_small();
    let cached = EvalSession::new(System::new(generic_arch(), MappingStrategy::default()));
    let uncached =
        EvalSession::new(System::new(generic_arch(), MappingStrategy::default())).without_cache();
    let a = cached
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    let b = uncached
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    assert_eq!(
        a.energy.total().picojoules().to_bits(),
        b.energy.total().picojoules().to_bits()
    );
    assert_eq!(uncached.cache_stats().hits, 0);
    assert_eq!(uncached.cache_stats().misses, 0);
}

/// The decode acceptance criterion made literal: a 512-step GPT-2 small
/// decode trace (one token per step, KV lengths 0..512, attend lengths
/// padded to 64-token buckets) evaluated through one [`EvalSession`]
/// performs at most *(unique KV-length buckets × unique signatures per
/// step)* mapping searches — the counting custom strategy proves it —
/// and costs ≤ 10% of the naive one-search-per-layer-per-step bill, with
/// a cache hit rate well above 90%.
#[test]
fn decode_trace_512_steps_costs_a_handful_of_searches() {
    use lumen::mapper::search::{greedy_mapping, spatial_priority_for, TemporalPlan};

    let searches = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&searches);
    let counting = MappingStrategy::custom_keyed(
        0xc2,
        Arc::new(move |arch, layer| {
            counter.fetch_add(1, Ordering::Relaxed);
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        }),
    );

    let session = EvalSession::new(System::new(generic_arch(), counting));
    let mut layer_evals = 0usize;
    let mut buckets = HashSet::new();
    let mut unique_per_step = 0usize;
    for (kv_len, net) in networks::gpt2_small_decode_trace(0, 512, 64) {
        buckets.insert((kv_len + 1).div_ceil(64));
        let unique: HashSet<LayerSignature> = net.layers().iter().map(Layer::signature).collect();
        unique_per_step = unique_per_step.max(unique.len());
        let eval = session
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap_or_else(|e| panic!("kv={kv_len}: {e}"));
        layer_evals += eval.per_layer.len();
    }
    assert_eq!(layer_evals, 512 * 97);
    assert_eq!(buckets.len(), 8, "attend lengths 64, 128, .., 512");
    assert_eq!(
        unique_per_step, 6,
        "proj, logits, attend, fc1, fc2, lm-head"
    );

    let searched = searches.load(Ordering::Relaxed);
    assert!(
        searched <= buckets.len() * unique_per_step,
        "{searched} searches exceed buckets x unique-per-step = {}",
        buckets.len() * unique_per_step
    );
    assert!(
        searched * 10 <= layer_evals,
        "{searched} searches exceed 10% of the naive {layer_evals}"
    );

    let stats = session.cache_stats();
    assert_eq!(stats.misses as usize, searched, "every miss is one search");
    assert_eq!(
        stats.hits + stats.misses,
        layer_evals as u64,
        "every layer evaluation is accounted for"
    );
    assert!(stats.hit_rate() >= 0.9, "hit rate {:.3}", stats.hit_rate());
}

/// The serving acceptance criterion made literal: an 800-step
/// closed-loop, resident-prefill continuous-batching schedule of a
/// mixed-length long-tail request population (28 requests over 8 slots,
/// KV lengths padded to 128-token buckets) evaluated through one
/// [`EvalSession`] performs at most
/// *(distinct (padded attend length, group size) pairs × unique
/// signatures per group)* mapping searches — the counting custom
/// strategy proves it — at a ≥ 99% hit rate over tens of thousands of
/// layer evaluations.
#[test]
fn serving_trace_800_steps_costs_a_handful_of_searches() {
    use lumen::mapper::search::{greedy_mapping, spatial_priority_for, TemporalPlan};
    use lumen::workload::serving::{PrefillMode, RequestMix, ServingModel, ServingScenario};

    let searches = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&searches);
    let counting = MappingStrategy::custom_keyed(
        0xc3,
        Arc::new(move |arch, layer| {
            counter.fetch_add(1, Ordering::Relaxed);
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        }),
    );

    // A small decoder shape keeps the per-step layer count (and so the
    // debug-mode wall time) modest; the scheduler and cache economics
    // are shape-independent.
    let model = ServingModel::new("toy-lm", 256, 4, 512, 2, 4096);
    let bucket = 128usize;
    let scenario = ServingScenario::builder(
        RequestMix::long_tail(0x51EED, 28, (0, 480), 80, 2).unwrap(),
        8,
    )
    .kv_bucket(bucket)
    .prefill(PrefillMode::Resident)
    .build()
    .expect("closed-loop scenario is valid");
    let schedule = scenario.schedule();
    assert!(
        schedule.total_steps() >= 512,
        "the trace is long enough to prove scaling: {} steps",
        schedule.total_steps()
    );

    let session = EvalSession::new(System::new(generic_arch(), counting));
    let mut layer_evals = 0usize;
    let mut pairs: HashSet<(usize, usize)> = HashSet::new();
    let mut unique: HashSet<LayerSignature> = HashSet::new();
    for step in schedule.steps() {
        pairs.extend(ServingModel::bucketed_composition(
            &step.decode_kv_lens(),
            bucket,
        ));
        let net = model.lower_serving_step_with(step, scenario.layout());
        unique.extend(net.layers().iter().map(Layer::signature));
        let eval = session
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap_or_else(|e| panic!("step occupancy {}: {e}", step.occupancy()));
        layer_evals += eval.per_layer.len();
    }

    let searched = searches.load(Ordering::Relaxed);
    // Every search is a distinct signature, and each (padded length,
    // group size) pair lowers at most 6 unique signatures (shared
    // projections, logits, attend, fc1, fc2, LM head) — the serving
    // analogue of decode's buckets x unique-per-step bound.
    assert_eq!(searched, unique.len(), "one search per unique signature");
    assert!(
        searched <= pairs.len() * 6,
        "{searched} searches exceed (bucket, group) pairs x 6 = {}",
        pairs.len() * 6
    );
    assert!(
        searched * 100 <= layer_evals,
        "{searched} searches exceed 1% of the naive {layer_evals}"
    );

    let stats = session.cache_stats();
    assert_eq!(stats.misses as usize, searched, "every miss is one search");
    assert_eq!(
        stats.hits + stats.misses,
        layer_evals as u64,
        "every layer evaluation is accounted for"
    );
    assert!(stats.hit_rate() >= 0.99, "hit rate {:.4}", stats.hit_rate());
}

/// The paged analogue of the 800-step scaling test: the same kind of
/// mixed-length population, event-scheduled with chunked prefill and
/// lowered at exact page residency (page 32) instead of bucket
/// padding. Finer pages visit many more distinct attend lengths than
/// a coarse bucket, yet the search count stays pinned to the unique
/// layer signatures — the page-residency variants dedupe through the
/// same content-addressed path.
#[test]
fn paged_serving_trace_dedups_by_unique_signature() {
    use lumen::workload::serving::{RequestMix, ServingModel, ServingScenario};

    let searches = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&searches);
    let counting = MappingStrategy::custom_keyed(
        0xc4,
        Arc::new(move |arch, layer| {
            counter.fetch_add(1, Ordering::Relaxed);
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        }),
    );

    let model = ServingModel::new("toy-lm", 256, 4, 512, 2, 4096);
    let scenario = ServingScenario::builder(
        RequestMix::long_tail(0x51EED, 28, (64, 320), 80, 2).unwrap(),
        8,
    )
    .kv_page(32)
    .prefill_chunk(96)
    .build()
    .expect("paged scenario is valid");
    let schedule = scenario.schedule();
    assert!(
        schedule.total_steps() >= 400,
        "the trace is long enough to prove scaling: {} steps",
        schedule.total_steps()
    );

    let session = EvalSession::new(System::new(generic_arch(), counting));
    let mut layer_evals = 0usize;
    let mut unique: HashSet<LayerSignature> = HashSet::new();
    for step in schedule.steps() {
        let net = model.lower_serving_step_with(step, scenario.layout());
        unique.extend(net.layers().iter().map(Layer::signature));
        let eval = session
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap_or_else(|e| panic!("step occupancy {}: {e}", step.occupancy()));
        layer_evals += eval.per_layer.len();
    }

    let searched = searches.load(Ordering::Relaxed);
    assert_eq!(searched, unique.len(), "one search per unique signature");
    assert!(
        searched * 20 <= layer_evals,
        "{searched} searches exceed 5% of the naive {layer_evals}"
    );
    let stats = session.cache_stats();
    assert_eq!(stats.misses as usize, searched, "every miss is one search");
    assert_eq!(stats.hits + stats.misses, layer_evals as u64);
    assert!(stats.hit_rate() >= 0.95, "hit rate {:.4}", stats.hit_rate());
}

/// Albireo's bespoke dataflow (a keyed custom strategy) rides the same
/// pipeline: the figure drivers moved onto sessions, so the golden suite
/// already pins their exact output; here we pin the per-layer identity.
#[test]
fn albireo_transformer_evaluation_is_bit_identical() {
    use lumen::albireo::{AlbireoConfig, ScalingProfile};
    let net = networks::vit_b16();
    let system = AlbireoConfig::new(ScalingProfile::Aggressive).build_system();
    let sequential = system
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    let cached = EvalSession::new(system)
        .evaluate_network(&net, &NetworkOptions::baseline())
        .unwrap();
    for (s, c) in sequential.per_layer.iter().zip(&cached.per_layer) {
        assert_eq!(
            s.energy.total().picojoules().to_bits(),
            c.energy.total().picojoules().to_bits(),
            "{}",
            s.layer_name
        );
    }
}
