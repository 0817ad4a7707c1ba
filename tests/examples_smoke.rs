//! Smoke tests mirroring the `examples/` programs.
//!
//! `cargo check --examples` (enforced in CI) proves the examples compile;
//! these tests additionally exercise the core logic each example runs, so
//! an API change that keeps an example compiling but breaks its output
//! path still fails the suite.
//!
//! The suite's tests run concurrently on the harness's own threads, and
//! the heavyweight ones (transformer / decode / serving — all on the
//! same aggressive-corner Albireo system) additionally share one
//! process-wide [`EvalCache`], so identical layer evaluations are paid
//! once across the whole binary instead of once per test. Stats
//! assertions read [`EvalSession::cache_stats`] — per-*session* counters
//! isolated from the concurrent tests sharing the cache — and search
//! counts are asserted as upper bounds, since a sibling test may have
//! populated the shared entries first. The serving test runs a
//! deliberately small schedule: the full-size study is already
//! golden-pinned by `tests/golden.rs`, and re-running it here would push
//! the smoke suite past CI-friendly wall time.

use lumen::albireo::{experiments, AlbireoConfig, ScalingProfile, WeightReuse};
use lumen::core::dse::{pareto_front, sweep, DesignPoint};
use lumen::core::report::{breakdown_table, network_table_deduped};
use lumen::core::{EvalCache, EvalSession, NetworkOptions};
use lumen::units::Energy;
use lumen::workload::networks;
use std::sync::{Arc, OnceLock};

/// One cache for every smoke test that evaluates on the aggressive
/// Albireo system: keys embed the architecture fingerprint, so sharing
/// across tests (and with differently-built sessions) is safe by
/// construction and saves re-mapping the overlapping signatures.
fn shared_aggressive_cache() -> Arc<EvalCache> {
    static CACHE: OnceLock<Arc<EvalCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(EvalCache::shared))
}

/// A session over the aggressive Albireo system backed by the shared
/// smoke-suite cache.
fn shared_aggressive_session() -> EvalSession {
    EvalSession::new(AlbireoConfig::new(ScalingProfile::Aggressive).build_system())
        .with_cache(shared_aggressive_cache())
}

/// The `quickstart` example's pipeline: build the conservative Albireo
/// system, evaluate a ResNet-18 layer, and check the headline quantities
/// it prints are physical.
#[test]
fn quickstart_layer_evaluation_returns_positive_energy() {
    let system = AlbireoConfig::new(ScalingProfile::Conservative).build_system();
    let net = networks::resnet18();
    let layer = &net.layers()[1];
    let eval = system
        .evaluate_layer(layer)
        .expect("layer maps onto Albireo");

    assert!(
        eval.energy.total() > Energy::ZERO,
        "total energy is positive"
    );
    assert!(
        eval.energy_per_mac().picojoules() > 0.0,
        "per-MAC energy is positive"
    );
    assert!(eval.analysis.utilization > 0.0 && eval.analysis.utilization <= 1.0 + 1e-9);
    assert!(eval.analysis.cycles > 0);

    let rendered = breakdown_table(&eval.energy).render();
    assert!(!rendered.is_empty(), "breakdown table renders");
}

/// The `design_space` example's pipeline: sweep named variants and take a
/// Pareto front over (energy, cycles).
#[test]
fn design_space_sweep_and_pareto_run() {
    let net = networks::alexnet();
    let points = vec![
        DesignPoint::new(
            "conservative",
            AlbireoConfig::new(ScalingProfile::Conservative).build_system(),
        ),
        DesignPoint::new(
            "aggressive",
            AlbireoConfig::new(ScalingProfile::Aggressive).build_system(),
        ),
    ];
    let entries = sweep(points, &net).expect("sweep evaluates");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].label, "conservative");

    let objectives: Vec<(f64, f64)> = entries
        .iter()
        .map(|e| (e.evaluation.energy.total().joules(), e.evaluation.cycles))
        .collect();
    let front = pareto_front(&objectives);
    assert!(!front.is_empty(), "at least one non-dominated point");
}

/// The `full_system_dram` example's pipeline: batching amortizes DRAM
/// weight traffic, so batched energy per inference is lower.
#[test]
fn full_system_batching_reduces_per_inference_energy() {
    let net = networks::resnet18();
    let system = AlbireoConfig::new(ScalingProfile::Aggressive).build_system();
    let base = system
        .evaluate_network(&net, &NetworkOptions::baseline())
        .expect("baseline evaluates");
    let batched = system
        .evaluate_network(&net, &NetworkOptions::baseline().with_batch(16))
        .expect("batched evaluates");
    let base_per_inf = base.energy.total().joules();
    let batched_per_inf = batched.energy.total().joules() / 16.0;
    assert!(
        batched_per_inf < base_per_inf,
        "batching reduces per-inference energy ({batched_per_inf} vs {base_per_inf})"
    );
}

/// The `reuse_exploration` example's pipeline: the Fig. 5 sweep finds a
/// configuration at least as good as the published one.
#[test]
fn reuse_exploration_finds_no_worse_than_original() {
    let result = experiments::fig5_reuse_exploration().expect("fig5 evaluates");
    assert!(result.best().unwrap().total_pj() <= result.original().unwrap().total_pj());
    assert!(result
        .rows
        .iter()
        .any(|r| r.weight_reuse == WeightReuse::More));
}

/// The `transformer_study` example's pipeline: the study evaluates, and
/// the per-head attention matmuls (K/V stationary, worst arithmetic
/// intensity) cost more per MAC than the projection matmuls.
#[test]
fn transformer_study_attention_costs_more_per_mac() {
    let result = experiments::transformer_study(ScalingProfile::Aggressive)
        .expect("transformer study evaluates");
    assert_eq!(result.rows.len(), 3);

    // The example evaluates bert-base through the content-addressed
    // session and renders the deduplicated per-layer table.
    let session = shared_aggressive_session();
    let net = networks::bert_base();
    let eval = session
        .evaluate_network(&net, &NetworkOptions::baseline())
        .expect("bert-base maps");
    let pj = |name: &str| {
        eval.per_layer
            .iter()
            .find(|l| l.layer_name == name)
            .expect("layer evaluated")
            .energy_per_mac()
            .picojoules()
    };
    assert!(pj("encoder.0.attn.logits") > pj("encoder.0.attn.query"));
    assert!(pj("encoder.0.attn.attend") > pj("encoder.0.mlp.fc1"));
    let stats = session.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        96,
        "every bert-base layer evaluation is accounted for"
    );
    assert!(
        stats.misses <= 5,
        "at most 5 unique signatures cost a search"
    );
    let deduped = network_table_deduped(&eval).render();
    assert!(deduped.contains("x48") && deduped.contains("x12"));
}

/// The `decode_study` example's pipeline: the KV-length sweep evaluates,
/// the photonic/digital utilization gap widens from prefill to seq-1
/// decode, and a bucketed decode trace through one session is answered
/// almost entirely from the cache.
#[test]
fn decode_study_gap_widens_and_trace_is_cheap() {
    let result =
        experiments::decode_study(ScalingProfile::Aggressive).expect("decode study evaluates");
    assert_eq!(result.rows.len(), experiments::DECODE_KV_LENGTHS.len());
    for row in &result.rows {
        assert!(
            row.vs.utilization_gap() > result.prefill.utilization_gap(),
            "kv={}: decode gap {:.1}x vs prefill {:.1}x",
            row.kv_len,
            row.vs.utilization_gap(),
            result.prefill.utilization_gap()
        );
    }
    assert!(result.trace_cache.hit_rate() >= 0.9);

    // The example's trace segment: 32 steps in 16-token buckets through
    // one content-addressed session (the shared smoke-suite cache can
    // only lower the per-session search count further).
    let session = shared_aggressive_session();
    let mut layer_evals = 0usize;
    for (_, net) in networks::gpt2_small_decode_trace(0, 32, 16) {
        let eval = session
            .evaluate_network(&net, &NetworkOptions::baseline())
            .expect("decode step maps");
        layer_evals += eval.per_layer.len();
    }
    let stats = session.cache_stats();
    assert_eq!(layer_evals, 32 * 97);
    assert_eq!(stats.hits + stats.misses, layer_evals as u64);
    assert!(
        (stats.misses as usize) * 10 <= layer_evals,
        "{} searches for {layer_evals} evaluations",
        stats.misses
    );
}

/// The `serving_study` example's pipeline, scoped small: a short
/// bimodal schedule through the shared session preserves tokens,
/// respects capacity, and answers almost every layer from the cache.
/// The full-size study (all mixes x capacities x corners) is
/// golden-pinned in `tests/golden.rs`; running it here too would only
/// re-spend the smoke suite's wall-time budget.
#[test]
fn serving_smoke_schedule_conserves_tokens_and_hits_cache() {
    use lumen::core::scenario_trace;
    use lumen::workload::{PrefillMode, RequestMix, ServingModel, ServingScenario};

    let mix = RequestMix::bimodal(21, 6, (64, 6), (512, 18), 33).unwrap();
    let scenario = ServingScenario::builder(mix.clone(), 3)
        .kv_bucket(experiments::SERVING_KV_BUCKET)
        .prefill(PrefillMode::Resident)
        .build()
        .expect("closed-loop scenario is valid");
    let session = shared_aggressive_session();
    let result = scenario_trace(
        &session,
        &ServingModel::gpt2_small(),
        &scenario,
        &NetworkOptions::baseline(),
    )
    .expect("schedule evaluates");

    assert_eq!(result.total_tokens(), mix.total_output_tokens());
    assert!(result
        .points
        .iter()
        .all(|p| p.occupancy >= 1 && p.occupancy <= 3));
    assert!(result.pj_per_token() > 0.0 && result.total_energy() > Energy::ZERO);
    assert!(result.mean_occupancy() > 0.0 && result.mean_occupancy() <= 1.0);
    let stats = session.cache_stats();
    let evals = stats.hits + stats.misses;
    assert!(
        stats.misses * 10 <= evals,
        "{} searches for {evals} evaluations",
        stats.misses
    );
}

/// The `throughput_study` example's pipeline: modeled throughput never
/// exceeds the architecture's peak parallelism.
#[test]
fn throughput_study_stays_below_peak() {
    let result = experiments::fig3_throughput().expect("fig3 evaluates");
    for row in &result.rows {
        assert!(
            row.modeled <= row.ideal + 1e-9,
            "{}: modeled above ideal",
            row.network
        );
        assert!(row.modeled > 0.0);
    }
}
