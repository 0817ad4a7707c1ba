//! # lumen-mapper
//!
//! Timeloop-style loop-nest mapping and reuse analysis — the modeling core
//! that turns *(architecture, layer, mapping)* into access counts,
//! conversion counts, cycles and utilization.
//!
//! A [`Mapping`] assigns each architecture level an ordered list of
//! *temporal* loops and a set of *spatial* loops over the seven problem
//! dimensions. [`analyze`] then computes, per storage level and tensor:
//!
//! * tile footprints (sliding-window aware for inputs);
//! * fill / read / update counts using the classic buffer-revisit
//!   multiplicity walk (a loop multiplies traffic if it is relevant to the
//!   tensor, or if a relevant loop iterates inside it);
//! * spatial multicast and reduction factors from footprint ratios, which
//!   is exactly how "convert once, reuse spatially" saves DAC/ADC/modulator
//!   energy in photonic systems;
//! * conversion counts at every converter level;
//! * cycles, padding waste and spatial under-utilization (the effects that
//!   degrade strided-conv and fully-connected throughput in the paper's
//!   Fig. 3).
//!
//! The [`search`] module provides mapping construction and optimization:
//! a deterministic greedy constructor, seeded random search and an
//! exhaustive enumerator for small spaces.
//!
//! # Examples
//!
//! ```
//! use lumen_arch::{ArchBuilder, Domain, Fanout};
//! use lumen_mapper::{analyze, Mapping};
//! use lumen_units::{Energy, Frequency};
//! use lumen_workload::{Dim, DimSet, Layer, TensorSet};
//!
//! let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
//!     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
//!     .done()
//!     .storage("buf", Domain::DigitalElectrical, TensorSet::all())
//!     .fanout(Fanout::new(4).allow(DimSet::from_dims(&[Dim::M])))
//!     .done()
//!     .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
//!     .build()
//!     .unwrap();
//!
//! let layer = Layer::conv2d("l", 1, 4, 4, 4, 4, 1, 1);
//! let mut mapping = Mapping::new(arch.levels().len());
//! mapping.push_temporal(0, Dim::C, 4);
//! mapping.push_temporal(1, Dim::P, 4);
//! mapping.push_temporal(1, Dim::Q, 4);
//! mapping.push_spatial(1, Dim::M, 4);
//!
//! let analysis = analyze(&arch, &layer, &mapping).unwrap();
//! assert_eq!(analysis.cycles, 4 * 4 * 4);
//! assert_eq!(analysis.macs, layer.macs());
//! ```

mod analysis;
mod error;
mod mapping;
pub mod search;

pub use analysis::{analyze, outer_read_traffic, KeeperTraffic, LayerAnalysis, LevelTraffic};
pub use error::MappingError;
pub use mapping::{LevelLoops, Loop, Mapping};
