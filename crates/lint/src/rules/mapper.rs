//! Mapping-strategy rules (`L03xx`), checked against the distilled
//! [`StrategyFacts`](crate::StrategyFacts) rather than the strategy
//! type itself (which lives upstream in `lumen-core`).

use crate::registry::Lint;
use crate::{Diagnostic, LintTarget, Severity};

/// Iteration count beyond which a random search stops buying mapping
/// quality and starts dominating sweep wall-time.
const EXCESSIVE_ITERATIONS: usize = 100_000;

/// `L0301`: the strategy's cache fingerprint hashes a closure address.
///
/// Address-based fingerprints are unique per process run: results keyed
/// on them can never be shared across processes, and within a process a
/// dropped-and-reallocated closure could collide. `EvalCache` pins such
/// strategies to stay sound, but content-keyed strategies
/// (`custom_keyed`) are strictly better.
pub struct AddressFingerprint;

impl Lint for AddressFingerprint {
    fn code(&self) -> &'static str {
        "L0301"
    }

    fn summary(&self) -> &'static str {
        "strategies should fingerprint by content, not address"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(facts) = target.strategy else { return };
        if facts.address_fingerprinted {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("strategy/{}", facts.label),
                "fingerprint hashes the closure's address; cached results cannot be shared"
                    .to_string(),
                "use MappingStrategy::custom_keyed with a stable content key",
            ));
        }
    }
}

/// `L0302`: a random search configured to draw zero candidates.
///
/// It can never produce a mapping; every layer fails with a generic
/// "no legal mapping" at evaluation time.
pub struct DegenerateSearch;

impl Lint for DegenerateSearch {
    fn code(&self) -> &'static str {
        "L0302"
    }

    fn summary(&self) -> &'static str {
        "random searches must draw at least one candidate"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(facts) = target.strategy else { return };
        if let Some(search) = &facts.search {
            if search.iterations == 0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    format!("strategy/{}", facts.label),
                    "search draws 0 candidates and can never find a mapping".to_string(),
                    "set SearchConfig::iterations to at least 1 (default is 500)",
                ));
            }
        }
    }
}

/// `L0405`: a zero-iteration search fails far from its cause.
///
/// Companion warning to the [`DegenerateSearch`] error, pointing at the
/// *symptom*: `random_search` silently returns `None`, and what the user
/// eventually sees is the evaluator's generic "no legal mapping" on some
/// layer — nowhere near the `SearchConfig` that caused it. The warning
/// survives `--allow L0302`, so the breadcrumb remains even when the
/// hard error has been waved through.
pub struct SilentSearchFailure;

impl Lint for SilentSearchFailure {
    fn code(&self) -> &'static str {
        "L0405"
    }

    fn summary(&self) -> &'static str {
        "zero-iteration searches fail far from their configuration"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(facts) = target.strategy else { return };
        if let Some(search) = &facts.search {
            if search.iterations == 0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Warn,
                    format!("strategy/{}", facts.label),
                    "the search returns no mapping; evaluation reports a generic \
                     mapping failure far from this SearchConfig"
                        .to_string(),
                    "fix the iteration count here rather than debugging the layer error",
                ));
            }
        }
    }
}

/// `L0303`: a random search with an extreme iteration budget.
pub struct ExcessiveSearch;

impl Lint for ExcessiveSearch {
    fn code(&self) -> &'static str {
        "L0303"
    }

    fn summary(&self) -> &'static str {
        "random searches should keep a sane iteration budget"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(facts) = target.strategy else { return };
        if let Some(search) = &facts.search {
            if search.iterations > EXCESSIVE_ITERATIONS {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Warn,
                    format!("strategy/{}", facts.label),
                    format!(
                        "search draws {} candidates per layer (> {EXCESSIVE_ITERATIONS}); \
                         sweeps will be dominated by mapping search",
                        search.iterations
                    ),
                    "a few hundred iterations typically saturate mapping quality",
                ));
            }
        }
    }
}
