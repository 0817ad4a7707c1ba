//! Mapping-strategy rules (`L03xx`), checked against the distilled
//! [`StrategyFacts`](crate::StrategyFacts) rather than the strategy
//! type itself (which lives upstream in `lumen-core`).

use crate::registry::Lint;
use crate::{Diagnostic, LintTarget, Severity};

/// Iteration count beyond which a random search stops buying mapping
/// quality and starts dominating sweep wall-time.
const EXCESSIVE_ITERATIONS: usize = 100_000;

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
