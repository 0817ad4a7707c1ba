//! Static pre-flight checks over the case study's own inventory.
//!
//! The paper's figures compare the photonic Albireo against the digital
//! baseline across every built-in network and both device-scaling
//! corners; this module lints exactly that matrix, so a misconfigured
//! corner or a malformed built-in network fails `lumen check` (and the
//! CI `check` job) before it can skew a figure.

use crate::{AlbireoConfig, DigitalBaseline, ScalingProfile};
use lumen_core::{MappingStrategy, System};
use lumen_lint::{LintConfig, LintRegistry, LintTarget, Report, StrategyFacts};
use lumen_workload::{networks, Network};

/// Built-in workloads the check matrix covers: the full figure inventory
/// plus the decode-phase step (which has its own study and therefore
/// stays out of [`networks::NAMES`]).
pub fn check_networks() -> Vec<Network> {
    // Every listed name resolves (`networks::by_name`'s own tests pin
    // that), so nothing is skipped here.
    networks::NAMES
        .iter()
        .chain(&["gpt2-small-decode"])
        .filter_map(|name| networks::by_name(name))
        .collect()
}

/// Distills a [`MappingStrategy`] into the facts the linter inspects.
///
/// Neither `lumen-lint` nor `lumen-core` depends on the other, so
/// strategies reach the rules as [`StrategyFacts`].
pub fn strategy_facts(strategy: &MappingStrategy) -> StrategyFacts {
    let (label, search) = match strategy {
        MappingStrategy::Greedy { temporal_level } => (format!("greedy@{temporal_level}"), None),
        MappingStrategy::Planned { .. } => ("planned".to_string(), None),
        MappingStrategy::RandomSearch(cfg) => ("random-search".to_string(), Some(*cfg)),
        MappingStrategy::CustomKeyed { key, .. } => (format!("custom-keyed:{key:016x}"), None),
    };
    StrategyFacts { label, search }
}

/// Lints one system × network pair: architecture, strategy facts and
/// the network, under the default rule set.
pub fn check_system(system: &System, network: &Network) -> Report {
    check_system_with(system, network, &LintConfig::default())
}

/// [`check_system`] with a caller-supplied allow/deny configuration
/// (the CLI's `--allow`/`--deny` flags flow through here).
pub fn check_system_with(system: &System, network: &Network, config: &LintConfig) -> Report {
    let facts = strategy_facts(system.strategy());
    let target = LintTarget::new()
        .with_arch(system.arch())
        .with_strategy(&facts)
        .with_network(network);
    LintRegistry::with_default_lints().run_with(&target, config)
}

/// Lints one scaling corner: the Albireo system at `scaling` and the
/// digital baseline, each against every [`check_networks`] workload.
pub fn check_corner(scaling: ScalingProfile) -> Report {
    let photonic = AlbireoConfig::new(scaling).build_system();
    let digital = DigitalBaseline::new().build_system();
    let mut report = Report::default();
    for network in check_networks() {
        for system in [&photonic, &digital] {
            report.merge(check_system(system, &network));
        }
    }
    report
}

/// Lints the whole matrix: both scaling corners × both system families
/// × every built-in workload.
pub fn check_all() -> Report {
    let mut report = Report::default();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        report.merge(check_corner(scaling));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_arch::{ArchBuilder, Domain};
    use lumen_mapper::search::SearchConfig;
    use lumen_units::{Energy, Frequency};
    use lumen_workload::TensorSet;

    #[test]
    fn both_corners_lint_completely_clean() {
        // Not just error-free: warning-free, so the CI `check` job can
        // run with `--deny warnings` and any new finding is a regression.
        for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
            let report = check_corner(scaling);
            assert!(report.is_empty(), "{scaling:?}:\n{report}");
        }
    }

    #[test]
    fn full_matrix_is_clean() {
        let report = check_all();
        assert!(report.is_clean() && report.is_empty(), "{report}");
    }

    #[test]
    fn check_networks_covers_the_inventory_plus_decode() {
        let nets = check_networks();
        assert_eq!(nets.len(), networks::NAMES.len() + 1);
    }

    fn codes(report: &Report) -> Vec<&str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    fn albireo_with(strategy: MappingStrategy) -> System {
        System::new(
            AlbireoConfig::new(ScalingProfile::Conservative).build_arch(),
            strategy,
        )
    }

    #[test]
    fn zero_iteration_search_is_an_error() {
        let system = albireo_with(MappingStrategy::RandomSearch(SearchConfig {
            iterations: 0,
            seed: 1,
        }));
        let report = check_system(&system, &networks::alexnet());
        assert!(!report.is_clean(), "{report}");
        assert!(codes(&report).contains(&"L0302"), "{report}");
    }

    #[test]
    fn negative_energy_is_an_error() {
        // Structurally valid (the builder accepts it) but priced
        // nonsensically: exactly the case only the lint pass catches.
        let arch = ArchBuilder::new("bad", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(-5.0))
            .write_energy(Energy::from_picojoules(100.0))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let system = System::new(arch, MappingStrategy::default());
        let report = check_system(&system, &networks::alexnet());
        assert!(!report.is_clean(), "{report}");
        assert!(codes(&report).contains(&"L0101"), "{report}");
    }
}
