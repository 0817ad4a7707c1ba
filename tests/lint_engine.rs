//! Fixture suite for the `lumen check` static-analysis engine: one
//! known-bad model per lint code, each firing its diagnostic exactly
//! once and nothing else, plus a golden-pinned JSON rendering and a
//! digest collision-freedom property over the built-in inventory.
//!
//! The fixtures dodge each other on purpose — e.g. the unpriced-boundary
//! arch gives its silent converter a nonzero area so the inert-converter
//! rule stays quiet — so a rule that starts over-firing breaks the
//! fixture of a *different* rule and the failure names both.

use lumen::albireo::experiments::{fleet_arrival, fleet_template};
use lumen::arch::{ArchBuilder, ArchError, Architecture, Domain, Fanout};
use lumen::lint::rules::digest_collisions;
use lumen::lint::{
    arch_error_diagnostic, LintRegistry, LintTarget, Report, Severity, StrategyFacts,
};
use lumen::mapper::search::SearchConfig;
use lumen::units::{Area, Energy, Frequency};
use lumen::workload::{
    networks, ArrivalProcess, Dim, DimSet, Fleet, FleetRouter, Layer, LayerKind, Network,
    RequestMix, ServingModel, ServingScenario, ServingScenarioBuilder, Shape, TensorKind,
    TensorSet,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn run(target: &LintTarget<'_>) -> Report {
    LintRegistry::with_default_lints().run(target)
}

/// Asserts the fixture fired `code` exactly once — and nothing else, so
/// fixtures also guard against cross-rule over-firing.
fn assert_fires_only(report: &Report, code: &str, severity: Severity) {
    let hits = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == code)
        .count();
    assert_eq!(hits, 1, "{code} should fire exactly once:\n{report}");
    assert_eq!(
        report.diagnostics().len(),
        1,
        "{code} fixture tripped unrelated lints:\n{report}"
    );
    assert_eq!(report.diagnostics()[0].severity, severity);
}

/// A minimal architecture that passes every lint: priced DRAM over a
/// digital MAC, nothing optical, nothing degenerate.
fn sound_builder() -> ArchBuilder {
    ArchBuilder::new("fixture", Frequency::from_gigahertz(1.0))
}

fn priced_dram(builder: ArchBuilder) -> ArchBuilder {
    builder
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(100.0))
        .write_energy(Energy::from_picojoules(100.0))
        .done()
}

fn arch_report(arch: &Architecture) -> Report {
    run(&LintTarget::new().with_arch(arch))
}

fn network_report(network: &Network) -> Report {
    run(&LintTarget::new().with_network(network))
}

fn strategy_report(facts: &StrategyFacts) -> Report {
    run(&LintTarget::new().with_strategy(facts))
}

fn search_facts(iterations: usize) -> StrategyFacts {
    StrategyFacts {
        label: "random-search".to_string(),
        search: Some(SearchConfig {
            iterations,
            seed: 0xC0FFEE,
        }),
    }
}

#[test]
fn sound_fixture_arch_is_clean() {
    let arch = priced_dram(sound_builder())
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("sound fixture builds");
    assert!(arch_report(&arch).is_empty(), "{}", arch_report(&arch));
}

#[test]
fn l0100_build_failure_becomes_a_diagnostic() {
    let d = arch_error_diagnostic("broken", &ArchError::TooFewLevels);
    assert_eq!(d.code, "L0100");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.path, "broken");
}

#[test]
fn l0101_negative_energy() {
    let arch = sound_builder()
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(-5.0))
        .write_energy(Energy::from_picojoules(100.0))
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("builder accepts unphysical energies; the lint rejects them");
    assert_fires_only(&arch_report(&arch), "L0101", Severity::Error);
}

#[test]
fn l0102_zero_clock() {
    let arch = priced_dram(ArchBuilder::new("fixture", Frequency::from_hertz(0.0)))
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("builder accepts a zero clock; the lint rejects it");
    assert_fires_only(&arch_report(&arch), "L0102", Severity::Error);
}

#[test]
fn l0103_unpriced_electro_optical_boundary() {
    // Weight and Output cross through priced converters; Input crosses
    // through a zero-energy modulator that only has area (so the
    // inert-converter rule stays quiet). Exactly one unpriced crossing.
    let arch = priced_dram(sound_builder())
        .converter(
            "weight-dac",
            Domain::AnalogElectrical,
            TensorSet::from_kinds(&[TensorKind::Weight]),
        )
        .convert_energy(Energy::from_picojoules(1.0))
        .done()
        .converter(
            "output-adc",
            Domain::AnalogElectrical,
            TensorSet::from_kinds(&[TensorKind::Output]),
        )
        .convert_energy(Energy::from_picojoules(1.0))
        .done()
        .converter(
            "input-modulator",
            Domain::AnalogOptical,
            TensorSet::from_kinds(&[TensorKind::Input]),
        )
        .area(Area::from_square_millimeters(0.1))
        .done()
        .compute(
            "mrr-bank",
            Domain::AnalogOptical,
            Energy::from_picojoules(0.01),
        )
        .build()
        .expect("fixture builds");
    let report = arch_report(&arch);
    assert_fires_only(&report, "L0103", Severity::Warn);
    assert!(
        report.diagnostics()[0].message.contains("Input"),
        "{report}"
    );
}

#[test]
fn l0104_capacity_below_word_size() {
    let arch = priced_dram(sound_builder())
        .storage("tiny", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.0))
        .write_energy(Energy::from_picojoules(1.0))
        .capacity_bits(4) // word is 8 bits: not even one element fits
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("fixture builds");
    assert_fires_only(&arch_report(&arch), "L0104", Severity::Error);
}

#[test]
fn l0105_dead_fanout_restrictions() {
    let arch = priced_dram(sound_builder())
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.0))
        .write_energy(Energy::from_picojoules(1.0))
        .fanout(Fanout::new(1).allow(DimSet::from_dims(&[Dim::M])))
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("a size-1 fan-out with restrictions is structurally valid");
    assert_fires_only(&arch_report(&arch), "L0105", Severity::Warn);
}

#[test]
fn l0105_orphaned_unit_stride_dims() {
    let arch = priced_dram(sound_builder())
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.0))
        .write_energy(Energy::from_picojoules(1.0))
        .fanout(
            Fanout::new(4)
                .allow(DimSet::from_dims(&[Dim::M]))
                .require_unit_stride(DimSet::from_dims(&[Dim::Q])),
        )
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("fixture builds");
    assert_fires_only(&arch_report(&arch), "L0105", Severity::Warn);
}

#[test]
fn l0106_inert_converter() {
    let arch = priced_dram(sound_builder())
        .converter(
            "mystery",
            Domain::DigitalElectrical,
            TensorSet::from_kinds(&[TensorKind::Input]),
        )
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("fixture builds");
    assert_fires_only(&arch_report(&arch), "L0106", Severity::Warn);
}

#[test]
fn l0107_free_storage() {
    let arch = priced_dram(sound_builder())
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("fixture builds");
    let report = arch_report(&arch);
    assert_fires_only(&report, "L0107", Severity::Warn);
    assert!(report.diagnostics()[0].path.ends_with("/glb"), "{report}");
}

#[test]
fn l0201_matmul_with_convolutional_structure() {
    let layer = Layer::try_new(
        "transplanted",
        LayerKind::Matmul,
        Shape::new(1, 8, 8, 1, 4, 1, 1),
        (1, 1),
        (1, 1),
        1,
    )
    .expect("constructor does not police GEMM windows; the lint does");
    let net = Network::new("fixture").push(layer);
    assert_fires_only(&network_report(&net), "L0201", Severity::Error);
}

#[test]
fn l0202_kv_append_exceeds_resident_tensor() {
    // 4x4 stationary tensor, 100 appended elements per step.
    let net =
        Network::new("fixture").push(Layer::matmul("kv", 1, 4, 4, 1).with_kv_cache_residency(100));
    assert_fires_only(&network_report(&net), "L0202", Severity::Warn);
}

#[test]
fn l0203_kv_residency_on_a_convolution() {
    let net = Network::new("fixture")
        .push(Layer::conv2d("conv", 1, 8, 8, 4, 4, 3, 3).with_kv_cache_residency(5));
    assert_fires_only(&network_report(&net), "L0203", Severity::Error);
}

#[test]
fn l0204_oversized_tensor() {
    // 2^26 x 2^26 weights = 2^52 elements, past the 2^50 plausibility bar.
    let net = Network::new("fixture").push(Layer::matmul("huge", 1, 1 << 26, 1 << 26, 1));
    let report = network_report(&net);
    assert_fires_only(&report, "L0204", Severity::Warn);
    assert!(
        report.diagnostics()[0].message.contains("Weight"),
        "{report}"
    );
}

#[test]
fn l0205_empty_network() {
    let net = Network::new("empty");
    assert_fires_only(&network_report(&net), "L0205", Severity::Warn);
}

#[test]
fn l0206_forged_digest_collision() {
    // A genuine 64-bit FNV-1a collision cannot be constructed here, so
    // the fixture forges equal digests for distinct signatures.
    let a = Layer::matmul("a", 1, 4, 4, 1).signature();
    let b = Layer::matmul("b", 1, 8, 8, 1).signature();
    assert_ne!(a, b);
    let diags = digest_collisions(&[("a", a, 42), ("b", b, 42)]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "L0206");
    assert_eq!(diags[0].severity, Severity::Error);
    assert_eq!(diags[0].path, "a <-> b");
    // Equal digests from *equal* signatures are not collisions.
    assert!(digest_collisions(&[("a", a, 42), ("a2", a, 42)]).is_empty());
}

#[test]
fn l0302_zero_iteration_search() {
    assert_fires_only(&strategy_report(&search_facts(0)), "L0302", Severity::Error);
}

#[test]
fn l0302_stays_quiet_for_positive_iterations() {
    assert!(strategy_report(&search_facts(1)).is_empty());
}

#[test]
fn l0303_excessive_search_budget() {
    assert_fires_only(
        &strategy_report(&search_facts(200_000)),
        "L0303",
        Severity::Warn,
    );
}

// --- serving and fleet rules, on validated inputs only -------------

/// A well-formed 8-slot, 64-token-bucket scenario over four 128 + 32
/// token requests (160-token sequences), closed loop and bucketed; the
/// serving fixtures perturb it and `build()` validates every variant.
fn scenario() -> ServingScenarioBuilder {
    ServingScenario::builder(RequestMix::uniform(4, 128, 32).unwrap(), 8).kv_bucket(64)
}

/// A small decoder with no declared context window, so only the
/// scenario's own cap reaches `L0404`.
fn fixture_model() -> ServingModel {
    ServingModel::new("fixture-lm", 64, 4, 256, 1, 1000)
}

fn serving_report(scenario: &ServingScenario) -> Report {
    run(&LintTarget::new().with_serving(scenario, &fixture_model()))
}

#[test]
fn l0402_kv_bucket_larger_than_any_sequence() {
    // Longest sequence is 128 + 32 = 160 tokens; a 1024 bucket pads
    // every step past it.
    let report = serving_report(&scenario().kv_bucket(1024).build().unwrap());
    assert_fires_only(&report, "L0402", Severity::Warn);
}

#[test]
fn l0403_offered_load_exceeds_capacity() {
    // Mean output is 32 decode steps per request; at one arrival per
    // step the offered load is 32 slot-steps/step against 8 slots.
    let overload = scenario()
        .arrival(ArrivalProcess::try_poisson(1.0, 7).unwrap())
        .build()
        .unwrap();
    assert_fires_only(&serving_report(&overload), "L0403", Severity::Warn);
}

#[test]
fn l0403_stays_quiet_under_capacity_and_closed_loop() {
    // 0.1 arrivals/step × 32 steps/request = 3.2 < 8 slots.
    let underload = ArrivalProcess::try_poisson(0.1, 7).unwrap();
    for arrival in [underload, ArrivalProcess::ClosedLoop] {
        let report = serving_report(&scenario().arrival(arrival).build().unwrap());
        assert!(report.is_empty(), "{report}");
    }
}

#[test]
fn l0404_prompt_exceeds_model_context() {
    // Every 128-token prompt fits the 150-token window (so `build()`
    // accepts it), but each request reaches 160 tokens by its last
    // decode step.
    let report = serving_report(&scenario().max_context(150).build().unwrap());
    assert_fires_only(&report, "L0404", Severity::Error);
}

#[test]
fn l0404_reads_the_model_window_when_the_scenario_has_none() {
    let model = fixture_model().with_max_context(128);
    let report = run(&LintTarget::new().with_serving(&scenario().build().unwrap(), &model));
    assert_fires_only(&report, "L0404", Severity::Error);
    assert!(
        report.diagnostics()[0].message.contains("window is 128"),
        "{report}"
    );
}

#[test]
fn l0404_stays_quiet_when_requests_fit() {
    let report = serving_report(&scenario().max_context(1024).build().unwrap());
    assert!(report.is_empty(), "{report}");
}

/// The fixture scenario, paged at `page` tokens.
fn paged(page: usize) -> ServingScenario {
    scenario().kv_page(page).build().unwrap()
}

#[test]
fn l0406_page_must_tile_the_bucket() {
    // 24 does not divide the 64-token bucket, so bucketed accounting
    // stops being an upper bound on paged residency.
    assert_fires_only(&serving_report(&paged(24)), "L0406", Severity::Warn);
}

#[test]
fn l0407_fragmentation_heavy_page() {
    // Mean sequence is 160 tokens; a 64-token page is over a quarter
    // of it, so per-request tail pages dominate the residency. 64
    // tiles the bucket, so L0406 stays quiet.
    assert_fires_only(&serving_report(&paged(64)), "L0407", Severity::Warn);
}

#[test]
fn paged_spec_with_a_fine_page_stays_quiet() {
    let report = serving_report(&paged(16));
    assert!(report.is_empty(), "{report}");
}

/// The `lumen fleet` stream (0.5 requests/step, 12 slot-steps/step of
/// decode work) over `instances` 4-slot instances.
fn cli_fleet(instances: usize) -> Fleet {
    let template = fleet_template(fleet_arrival().unwrap()).unwrap();
    Fleet::try_uniform(template, FleetRouter::RoundRobin, instances).unwrap()
}

#[test]
fn l0409_fleet_overload_at_one_instance() {
    let fleet = cli_fleet(1);
    let report = run(&LintTarget::new().with_fleet(&fleet));
    assert_fires_only(&report, "L0409", Severity::Warn);
    assert!(
        report.diagnostics()[0]
            .path
            .starts_with("fleet/round-robin/"),
        "{report}"
    );
}

#[test]
fn l0409_stays_quiet_when_the_fleet_absorbs_the_load() {
    let fleet = cli_fleet(3);
    let report = run(&LintTarget::new().with_fleet(&fleet));
    assert!(report.is_empty(), "{report}");
}

// --- golden-pinned JSON rendering -----------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Same bless/compare protocol as `tests/golden.rs`, for the JSON
/// snapshot this suite owns.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("LUMEN_BLESS").as_deref() == Ok("1") {
        fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {path:?} ({e}); generate it with \
             `LUMEN_BLESS=1 cargo test --test lint_engine`"
        )
    });
    assert_eq!(
        actual, expected,
        "rendered `{name}` drifted from its snapshot; if the change is \
         intentional, regenerate with `LUMEN_BLESS=1 cargo test --test \
         lint_engine` and review the diff"
    );
}

/// A deterministic multi-finding run — empty network, degenerate
/// search, and an overloaded single-slot schedule whose bucket and
/// sequences outgrow both its mix and its model's window — rendered as
/// JSON. Every input is built through its validating constructor. Pins
/// the machine-readable format consumed by CI and tooling.
#[test]
fn json_rendering_matches_golden() {
    let net = Network::new("empty");
    let facts = search_facts(0);
    let scenario = ServingScenario::builder(RequestMix::uniform(2, 64, 16).unwrap(), 1)
        .kv_bucket(1024)
        .arrival(ArrivalProcess::try_poisson(1.0, 7).unwrap())
        .build()
        .unwrap();
    let model = fixture_model().with_max_context(64);
    let target = LintTarget::new()
        .with_network(&net)
        .with_strategy(&facts)
        .with_serving(&scenario, &model);
    let report = run(&target);
    assert_eq!(report.errors(), 2, "{report}");
    assert_eq!(report.warnings(), 3, "{report}");
    assert_golden("lint_check.json", &report.render_json());
}

// --- digest collision-freedom over the real inventory ---------------

fn inventory() -> Vec<Network> {
    let mut nets: Vec<Network> = networks::NAMES
        .iter()
        .map(|n| networks::by_name(n).expect("inventory resolves"))
        .collect();
    nets.push(networks::by_name("gpt2-small-decode").expect("decode alias resolves"));
    nets
}

#[test]
fn built_in_inventory_digests_are_collision_free() {
    let nets = inventory();
    let mut entries = Vec::new();
    for net in &nets {
        for layer in net.layers() {
            let sig = layer.signature();
            let digest = sig.digest();
            entries.push((layer.name(), sig, digest));
        }
    }
    assert!(entries.len() > 300, "inventory unexpectedly small");
    let collisions = digest_collisions(&entries);
    assert!(collisions.is_empty(), "{collisions:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch replication rewrites every layer's N bound; digests must
    /// stay collision-free across the whole inventory for any batch, not
    /// just the shipped defaults.
    #[test]
    fn digests_stay_collision_free_under_batching(batch in 1usize..=4) {
        let mut entries = Vec::new();
        let batched: Vec<Network> = inventory().iter().map(|n| n.with_batch(batch)).collect();
        for net in &batched {
            for layer in net.layers() {
                let sig = layer.signature();
                let digest = sig.digest();
                entries.push((layer.name(), sig, digest));
            }
        }
        prop_assert!(digest_collisions(&entries).is_empty());
    }
}
