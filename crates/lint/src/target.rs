//! What a lint run inspects.
//!
//! A [`LintTarget`] bundles up to four model facets — architecture,
//! network, mapping strategy and serving schedule — all optional, so a
//! caller can lint exactly what it has. Rules skip facets that are
//! absent; a target with no facets produces an empty report.

use lumen_arch::Architecture;
use lumen_mapper::search::SearchConfig;
use lumen_workload::{ArrivalProcess, Network, RequestMix, ServingScenario};

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
    /// Whether the strategy's cache fingerprint hashes a closure
    /// *address* rather than content, so results cached under it cannot
    /// be shared with a rebuilt copy of the strategy.
    pub address_fingerprinted: bool,
    /// The random-search configuration, when the strategy searches.
    pub search: Option<SearchConfig>,
}

/// A serving schedule to lint: the request mix plus the two scheduler
/// knobs that shape it.
#[derive(Debug, Clone)]
pub struct ServingSpec<'a> {
    /// The traffic to serve.
    pub mix: &'a RequestMix,
    /// Decode slots available per step.
    pub capacity: usize,
    /// KV attend-length rounding quantum (elements).
    pub kv_bucket: usize,
    /// Tokens per KV page when the study runs paged residency; `None`
    /// for the legacy bucket-padded accounting.
    pub kv_page: Option<usize>,
    /// The arrival process feeding the scheduler, when open-loop.
    pub arrival: Option<&'a ArrivalProcess>,
    /// The served model's context window (tokens), when declared.
    pub max_context: Option<usize>,
}

impl<'a> ServingSpec<'a> {
    /// The borrow-view of a validated [`ServingScenario`] — the one
    /// construction path serving lints inspect. The scenario has already
    /// rejected contradictions at `build()`, so the lints add judgment
    /// calls (load vs capacity, page vs bucket fit), not re-validation.
    pub fn from_scenario(scenario: &'a ServingScenario) -> ServingSpec<'a> {
        ServingSpec {
            mix: scenario.mix(),
            capacity: scenario.capacity(),
            kv_bucket: scenario.kv_bucket(),
            kv_page: scenario.kv_page(),
            arrival: Some(scenario.arrival()),
            max_context: scenario.max_context(),
        }
    }
}

/// A fleet to lint: the per-instance serving view plus the fleet-level
/// shape the routers operate on.
#[derive(Debug, Clone)]
pub struct FleetSpec<'a> {
    /// The global stream the fleet serves, as a serving spec.
    pub stream: ServingSpec<'a>,
    /// Number of instances the router targets.
    pub instances: usize,
    /// Total decode slots across the fleet.
    pub aggregate_capacity: usize,
    /// The routing discipline's display name (for diagnostic paths).
    pub router: &'a str,
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
    /// Serving schedule under check.
    pub serving: Option<&'a ServingSpec<'a>>,
    /// Fleet under check.
    pub fleet: Option<&'a FleetSpec<'a>>,
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

    /// Adds a serving spec (builder style).
    #[must_use]
    pub fn with_serving(mut self, serving: &'a ServingSpec<'a>) -> LintTarget<'a> {
        self.serving = Some(serving);
        self
    }

    /// Adds a fleet spec (builder style).
    #[must_use]
    pub fn with_fleet(mut self, fleet: &'a FleetSpec<'a>) -> LintTarget<'a> {
        self.fleet = Some(fleet);
        self
    }
}
