//! What a lint run inspects.
//!
//! A [`LintTarget`] bundles up to five model facets — architecture,
//! network, mapping strategy, serving scenario and fleet — all
//! optional, so a caller can lint exactly what it has. Rules skip
//! facets that are absent; a target with no facets produces an empty
//! report.

use lumen_arch::Architecture;
use lumen_mapper::search::SearchConfig;
use lumen_workload::{Fleet, Network, ServingModel, ServingScenario};

/// Facts about a mapping strategy that lints can inspect without the
/// strategy type itself.
///
/// `MappingStrategy` lives in `lumen-core`, which the linter does not
/// depend on: the caller that lints a system distills its strategy into
/// this value (`lumen_albireo::check::strategy_facts`), so the rules
/// see only the facts they inspect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyFacts {
    /// Human-readable strategy description (used in diagnostic paths).
    pub label: String,
    /// The random-search configuration, when the strategy searches.
    pub search: Option<SearchConfig>,
}

/// The model facets one lint run inspects; all optional.
#[derive(Debug, Clone, Default)]
pub struct LintTarget<'a> {
    /// Architecture under check.
    pub arch: Option<&'a Architecture>,
    /// Workload under check.
    pub network: Option<&'a Network>,
    /// Mapping strategy under check (pre-distilled facts).
    pub strategy: Option<&'a StrategyFacts>,
    /// Serving scenario under check, with the model that will serve it.
    pub serving: Option<(&'a ServingScenario, &'a ServingModel)>,
    /// Fleet under check.
    pub fleet: Option<&'a Fleet>,
}

impl<'a> LintTarget<'a> {
    /// An empty target (nothing to lint).
    pub fn new() -> LintTarget<'a> {
        LintTarget::default()
    }

    /// Adds an architecture (builder style).
    #[must_use]
    pub fn with_arch(mut self, arch: &'a Architecture) -> LintTarget<'a> {
        self.arch = Some(arch);
        self
    }

    /// Adds a network (builder style).
    #[must_use]
    pub fn with_network(mut self, network: &'a Network) -> LintTarget<'a> {
        self.network = Some(network);
        self
    }

    /// Adds strategy facts (builder style).
    #[must_use]
    pub fn with_strategy(mut self, facts: &'a StrategyFacts) -> LintTarget<'a> {
        self.strategy = Some(facts);
        self
    }

    /// Adds a built serving scenario and the model that will serve it
    /// (builder style). The scenario already rejected contradictions at
    /// `build()`, so the serving rules add judgment calls (load vs
    /// capacity, page vs bucket fit), not re-validation.
    #[must_use]
    pub fn with_serving(
        mut self,
        scenario: &'a ServingScenario,
        model: &'a ServingModel,
    ) -> LintTarget<'a> {
        self.serving = Some((scenario, model));
        self
    }

    /// Adds a built fleet (builder style).
    #[must_use]
    pub fn with_fleet(mut self, fleet: &'a Fleet) -> LintTarget<'a> {
        self.fleet = Some(fleet);
        self
    }
}
