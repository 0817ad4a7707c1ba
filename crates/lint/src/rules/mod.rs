//! The built-in rule set, grouped by the model facet each rule inspects.
//!
//! Code blocks: `L01xx` architecture, `L02xx` workload, `L03xx` mapping
//! strategy, `L04xx` serving schedule. `L0100` is reserved for
//! architecture construction failures surfaced as diagnostics (see
//! [`arch_error_diagnostic`]).
//!
//! Codes are never reused once published. Retired: `L0301` (address-
//! fingerprinted strategies, whose variant no longer exists), `L0401`
//! (zero capacity), `L0405` (a second severity for `L0302`'s predicate)
//! and `L0408` (a fleet with no instances) — the scenario and fleet
//! constructors reject the inputs those rules looked for.

pub mod arch;
pub mod mapper;
pub mod serving;
pub mod workload;

use crate::registry::Lint;
use crate::{Diagnostic, Severity};
use lumen_arch::ArchError;

pub use workload::digest_collisions;

/// Every built-in rule, in code order.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(arch::NonFiniteEnergy),
        Box::new(arch::BadClock),
        Box::new(arch::UnpricedBoundary),
        Box::new(arch::TinyCapacity),
        Box::new(arch::DeadFanout),
        Box::new(arch::InertConverter),
        Box::new(arch::FreeStorage),
        Box::new(workload::MalformedGemm),
        Box::new(workload::KvAppendAnomaly),
        Box::new(workload::KvOnNonGemm),
        Box::new(workload::OversizedTensor),
        Box::new(workload::EmptyNetwork),
        Box::new(workload::DigestCollision),
        Box::new(mapper::DegenerateSearch),
        Box::new(mapper::ExcessiveSearch),
        Box::new(serving::KvBucketMismatch),
        Box::new(serving::OfferedLoadExceedsCapacity),
        Box::new(serving::PromptExceedsContext),
        Box::new(serving::PageTileMismatch),
        Box::new(serving::FragmentationHeavyPage),
        Box::new(serving::FleetOverload),
    ]
}

/// Converts an architecture construction failure into the `L0100`
/// diagnostic, so `lumen check` can report a spec that does not even
/// build instead of aborting.
pub fn arch_error_diagnostic(arch_name: &str, error: &ArchError) -> Diagnostic {
    Diagnostic::new(
        "L0100",
        Severity::Error,
        arch_name,
        format!("architecture failed validation: {error}"),
        "fix the structural problem; see the ArchBuilder docs for the hierarchy rules",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_error_becomes_l0100() {
        let d = arch_error_diagnostic("broken", &ArchError::TooFewLevels);
        assert_eq!(d.code, "L0100");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.path, "broken");
        assert!(d.message.contains("backing store"));
    }
}
