//! # lumen-core
//!
//! The full-system evaluator: turns *(architecture, workload, mapping
//! strategy)* into energy, throughput and area estimates — the Rust
//! counterpart of the CiMLoop/Timeloop/Accelergy stack the paper builds
//! on, extended to photonic systems.
//!
//! * [`System`] couples an architecture with a [`MappingStrategy`] and
//!   evaluates layers ([`System::evaluate_layer`]) or whole networks
//!   ([`System::evaluate_network`]).
//! * [`EnergyBreakdown`], the one energy type, itemizes energy by level,
//!   tensor and [`CostCategory`] (storage access, conversion, compute,
//!   per-cycle laser/tuning, static leakage). A [`System`] fixes its
//!   architecture's items once, each *(label, category, tensor)* under
//!   a dense id, so evaluations, network totals, the random-search
//!   objective and serving step costs all add and merge by id, and
//!   total in first-seen order.
//! * [`NetworkOptions`] model the paper's full-system levers: **batching**
//!   (amortizes weight DRAM traffic) and **fused-layer dataflow**
//!   (inter-layer activations stay in the global buffer; Fig. 4).
//! * [`dse`] provides sweep and Pareto utilities for design-space
//!   exploration; [`report`] renders ASCII/CSV tables.
//! * [`SweepRunner`] fans independent sweep points out over worker
//!   threads (order-preserving, deterministic error selection); the
//!   Fig. 2–5 experiment drivers and [`dse::sweep`] run on it.
//! * [`EvalSession`] adds the content-addressed fast path: layer
//!   evaluations memoized in a shared [`EvalCache`] keyed by
//!   *(architecture fingerprint, strategy fingerprint,
//!   [`lumen_workload::LayerSignature`], reroute)*, with
//!   [`EvalSession::evaluate_network`] evaluating each unique layer
//!   signature once — bit-identical to the sequential path.
//! * [`decode`] sweeps autoregressive decode steps (seq-1 GEMV networks
//!   with a growing KV cache) through a session; the evaluator charges
//!   KV-cache residency costs (per-step cache append writes) for layers
//!   marked [`lumen_workload::Layer::with_kv_cache_residency`].
//!
//! # Examples
//!
//! ```
//! use lumen_arch::{ArchBuilder, Domain, Fanout};
//! use lumen_core::{MappingStrategy, System};
//! use lumen_units::{Energy, Frequency};
//! use lumen_workload::{Dim, DimSet, Layer, TensorSet};
//!
//! let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
//!     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(100.0))
//!     .write_energy(Energy::from_picojoules(100.0))
//!     .done()
//!     .storage("buf", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(1.0))
//!     .write_energy(Energy::from_picojoules(1.0))
//!     .fanout(Fanout::new(16).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
//!     .done()
//!     .compute("mac", Domain::DigitalElectrical, Energy::from_picojoules(0.05))
//!     .build()
//!     .unwrap();
//!
//! let system = System::new(arch, MappingStrategy::default());
//! let layer = Layer::conv2d("conv", 1, 32, 16, 16, 16, 3, 3);
//! let eval = system.evaluate_layer(&layer).unwrap();
//! assert!(eval.energy.total().nanojoules() > 0.0);
//! assert!(eval.analysis.utilization > 0.0);
//! ```

pub mod cache;
pub mod decode;
pub mod dse;
mod energy;
mod evaluator;
pub mod fleet;
mod network;
pub mod report;
pub mod serving;
pub mod sweep;

pub use cache::{arch_fingerprint, CacheStats, EvalCache, EvalSession};
pub use decode::{decode_sweep, DecodePoint};
pub use energy::{CostCategory, EnergyBreakdown, EnergyItem};
pub use evaluator::{LayerEvaluation, MappingFn, MappingStrategy, System, SystemError};
pub use fleet::{fleet_trace, FleetEvaluation, FleetInstance, FleetInstanceTrace};
pub use network::{FusionConfig, NetworkEvaluation, NetworkOptions};
pub use serving::{
    scenario_trace, Percentiles, RequestLatency, ServingEvaluation, ServingStepPoint,
};
pub use sweep::SweepRunner;
