//! Static pre-flight analysis of models: find misconfigurations before
//! they become plausible-but-wrong numbers.
//!
//! Architecture-level energy modeling stands or falls on model validity:
//! an unpriced electrical/optical boundary or an inconsistent KV-cache
//! annotation does not crash a sweep, it just skews every figure built
//! on it. This crate inspects architectures, workloads, mapping
//! strategies and serving schedules *without evaluating them* and emits
//! structured [`Diagnostic`]s with stable `L####` codes, so problems
//! surface before the first layer is mapped.
//!
//! The pieces:
//!
//! - [`Diagnostic`] / [`Severity`]: one finding — code, severity, model
//!   path, message, help.
//! - [`Lint`] + [`LintRegistry`]: the rule trait and the runner;
//!   [`LintRegistry::with_default_lints`] registers the built-in set
//!   (see [`rules`] for the catalog).
//! - [`LintConfig`]: per-code allow/deny plus `--deny warnings`.
//! - [`LintTarget`]: what to inspect — any subset of architecture,
//!   network, strategy facts, serving scenario and fleet.
//! - [`Report`]: stably-ordered findings with text and JSON renderers.
//!
//! # Examples
//!
//! ```
//! use lumen_lint::{LintRegistry, LintTarget};
//! use lumen_workload::networks;
//!
//! let net = networks::by_name("resnet18").unwrap();
//! let report = LintRegistry::with_default_lints()
//!     .run(&LintTarget::new().with_network(&net));
//! assert!(report.is_clean());
//! ```

mod config;
mod diagnostic;
mod registry;
mod report;
pub mod rules;
mod target;

pub use config::LintConfig;
pub use diagnostic::{Diagnostic, Severity};
pub use registry::{Lint, LintRegistry};
pub use report::Report;
pub use rules::{arch_error_diagnostic, default_lints};
pub use target::{LintTarget, StrategyFacts};
