//! Loop-nest mappings: how a layer's iteration space is tiled across the
//! hierarchy.

use crate::MappingError;
use lumen_arch::Architecture;
use lumen_workload::{Dim, DimMap, Layer};
use std::fmt;

/// One loop: a problem dimension iterated `bound` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loop {
    /// The iterated dimension.
    pub dim: Dim,
    /// The trip count (≥ 1).
    pub bound: usize,
}

impl Loop {
    /// Builds a loop.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn new(dim: Dim, bound: usize) -> Loop {
        assert!(bound > 0, "loop bound must be nonzero");
        Loop { dim, bound }
    }
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.dim, self.bound)
    }
}

/// The loops assigned to one architecture level.
///
/// `temporal` is ordered **outermost first**; `spatial` is an unordered
/// set of parallel loops realized by the level's fan-out.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LevelLoops {
    /// Sequential loops, outermost first.
    pub temporal: Vec<Loop>,
    /// Parallel loops across the level's fan-out.
    pub spatial: Vec<Loop>,
}

impl LevelLoops {
    /// Product of spatial bounds (parallel instances used).
    pub fn spatial_product(&self) -> u64 {
        self.spatial.iter().map(|l| l.bound as u64).product()
    }

    /// Product of temporal bounds (sequential steps contributed).
    pub fn temporal_product(&self) -> u64 {
        self.temporal.iter().map(|l| l.bound as u64).product()
    }

    /// `true` if no loops are assigned.
    pub fn is_empty(&self) -> bool {
        self.temporal.is_empty() && self.spatial.is_empty()
    }
}

/// A complete mapping: one [`LevelLoops`] per architecture level
/// (outermost first, aligned with [`Architecture::levels`]).
///
/// Temporal loops may be assigned to storage levels and to the compute
/// level (the innermost sequencing, which defines the tiles resident in
/// the innermost buffers) — but not to converters. Spatial loops may go to
/// any level with a fan-out (including converters — e.g. a DAC whose
/// output drives several analog units). Dimensions not mentioned anywhere
/// default to a bound of 1.
///
/// # Examples
///
/// ```
/// use lumen_mapper::Mapping;
/// use lumen_workload::Dim;
///
/// let mut m = Mapping::new(3);
/// m.push_temporal(0, Dim::C, 8);
/// m.push_spatial(1, Dim::M, 16);
/// assert_eq!(m.total_bound(Dim::C), 8);
/// assert_eq!(m.total_bound(Dim::M), 16);
/// assert_eq!(m.total_bound(Dim::N), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    levels: Vec<LevelLoops>,
}

impl Mapping {
    /// Creates an empty mapping over `num_levels` architecture levels.
    pub fn new(num_levels: usize) -> Mapping {
        Mapping {
            levels: vec![LevelLoops::default(); num_levels],
        }
    }

    /// Appends a temporal loop at `level` (inside any existing temporal
    /// loops at that level).
    pub fn push_temporal(&mut self, level: usize, dim: Dim, bound: usize) -> &mut Mapping {
        if bound > 1 {
            self.levels[level].temporal.push(Loop::new(dim, bound));
        }
        self
    }

    /// Adds a spatial loop at `level`.
    pub fn push_spatial(&mut self, level: usize, dim: Dim, bound: usize) -> &mut Mapping {
        if bound > 1 {
            self.levels[level].spatial.push(Loop::new(dim, bound));
        }
        self
    }

    /// The loops of every level, outermost level first.
    pub fn levels(&self) -> &[LevelLoops] {
        &self.levels
    }

    /// The loops at one level.
    pub fn level(&self, index: usize) -> &LevelLoops {
        &self.levels[index]
    }

    /// The temporal loops at one level, for building candidates in
    /// place. Unlike [`Mapping::push_temporal`], nothing elides unit
    /// bounds: callers push only bounds above 1.
    pub(crate) fn temporal_mut(&mut self, index: usize) -> &mut Vec<Loop> {
        &mut self.levels[index].temporal
    }

    /// Product of all bounds (temporal and spatial) of `dim` — the padded
    /// extent the hardware iterates.
    pub fn total_bound(&self, dim: Dim) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.temporal.iter().chain(l.spatial.iter()))
            .filter(|l| l.dim == dim)
            .map(|l| l.bound as u64)
            .product()
    }

    /// Padded extents of all dimensions.
    pub fn padded_shape(&self) -> DimMap<u64> {
        DimMap::from_fn(|d| self.total_bound(d))
    }

    /// Product of every temporal bound: the steady-state cycle count of one
    /// channel group.
    pub fn total_temporal_product(&self) -> u64 {
        self.levels
            .iter()
            .map(LevelLoops::temporal_product)
            .product()
    }

    /// Product of every spatial bound: parallel lanes used per cycle.
    pub fn total_spatial_product(&self) -> u64 {
        self.levels
            .iter()
            .map(LevelLoops::spatial_product)
            .product()
    }

    /// Checks this mapping against an architecture and layer.
    ///
    /// # Errors
    ///
    /// * [`MappingError::LevelCountMismatch`] — wrong number of levels;
    /// * [`MappingError::TemporalAtConverter`] — temporal loops on a
    ///   converter level;
    /// * [`MappingError::FanoutExceeded`] — spatial product above the
    ///   level's fan-out;
    /// * [`MappingError::DimNotAllowed`] — spatial dim the fan-out does not
    ///   wire, or one gated off by a stride requirement;
    /// * [`MappingError::Uncovered`] — a dimension whose mapped product is
    ///   below the layer bound.
    pub fn validate(&self, arch: &Architecture, layer: &Layer) -> Result<(), MappingError> {
        if self.levels.len() != arch.levels().len() {
            return Err(MappingError::LevelCountMismatch {
                mapping: self.levels.len(),
                arch: arch.levels().len(),
            });
        }
        for (i, (loops, level)) in self.levels.iter().zip(arch.levels()).enumerate() {
            if !loops.temporal.is_empty() && level.kind().is_converter() {
                return Err(MappingError::TemporalAtConverter {
                    level: level.name().to_string(),
                });
            }
            let fanout = level.fanout();
            if loops.spatial_product() > fanout.size() as u64 {
                return Err(MappingError::FanoutExceeded {
                    level: level.name().to_string(),
                    used: loops.spatial_product(),
                    available: fanout.size() as u64,
                });
            }
            let usable = fanout.usable_dims(layer);
            for l in &loops.spatial {
                if !usable.contains(l.dim) {
                    return Err(MappingError::DimNotAllowed {
                        level: level.name().to_string(),
                        dim: l.dim,
                    });
                }
            }
            let _ = i;
        }
        for d in Dim::ALL {
            let mapped = self.total_bound(d);
            let needed = layer.shape()[d] as u64;
            if mapped < needed {
                return Err(MappingError::Uncovered {
                    dim: d,
                    mapped,
                    needed,
                });
            }
        }
        Ok(())
    }

    /// Padding waste: padded iteration volume over the true volume (≥ 1).
    pub fn padding_factor(&self, layer: &Layer) -> f64 {
        let padded: f64 = Dim::ALL
            .iter()
            .map(|&d| self.total_bound(d) as f64)
            .product();
        padded / layer.shape().volume() as f64
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, loops) in self.levels.iter().enumerate() {
            write!(f, "L{i}:")?;
            if loops.is_empty() {
                write!(f, " -")?;
            }
            for l in &loops.temporal {
                write!(f, " t{l}")?;
            }
            for l in &loops.spatial {
                write!(f, " s{l}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::{Energy, Frequency};
    use lumen_workload::{DimSet, TensorSet};

    fn arch() -> Architecture {
        ArchBuilder::new("t", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(
                Fanout::new(8)
                    .allow(DimSet::from_dims(&[Dim::M, Dim::Q]))
                    .require_unit_stride(DimSet::from_dims(&[Dim::Q])),
            )
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap()
    }

    fn layer() -> Layer {
        Layer::conv2d("l", 1, 8, 2, 4, 4, 3, 3)
    }

    #[test]
    fn bound_products() {
        let mut m = Mapping::new(3);
        m.push_temporal(0, Dim::C, 2);
        m.push_temporal(1, Dim::P, 4);
        m.push_spatial(1, Dim::M, 8);
        assert_eq!(m.total_bound(Dim::M), 8);
        assert_eq!(m.total_temporal_product(), 8);
        assert_eq!(m.total_spatial_product(), 8);
    }

    #[test]
    fn unit_bounds_are_elided() {
        let mut m = Mapping::new(3);
        m.push_temporal(0, Dim::C, 1);
        assert!(m.level(0).is_empty());
    }

    #[test]
    fn valid_mapping_passes() {
        let mut m = Mapping::new(3);
        m.push_temporal(0, Dim::C, 2);
        m.push_temporal(1, Dim::P, 4);
        m.push_temporal(1, Dim::Q, 4);
        m.push_temporal(1, Dim::R, 3);
        m.push_temporal(1, Dim::S, 3);
        m.push_spatial(1, Dim::M, 8);
        assert_eq!(m.validate(&arch(), &layer()), Ok(()));
    }

    #[test]
    fn uncovered_dim_rejected() {
        let mut m = Mapping::new(3);
        m.push_spatial(1, Dim::M, 8);
        let err = m.validate(&arch(), &layer()).unwrap_err();
        assert!(matches!(err, MappingError::Uncovered { .. }));
    }

    #[test]
    fn fanout_capacity_enforced() {
        let mut m = Mapping::new(3);
        m.push_spatial(1, Dim::M, 16);
        let err = m.validate(&arch(), &layer()).unwrap_err();
        assert!(matches!(err, MappingError::FanoutExceeded { .. }));
    }

    #[test]
    fn disallowed_spatial_dim_rejected() {
        let mut m = Mapping::new(3);
        m.push_spatial(1, Dim::C, 2);
        let err = m.validate(&arch(), &layer()).unwrap_err();
        assert!(matches!(err, MappingError::DimNotAllowed { .. }));
    }

    #[test]
    fn stride_gated_dim_rejected_for_strided_layer() {
        let strided = layer().with_stride(2, 2);
        let mut m = Mapping::new(3);
        m.push_spatial(1, Dim::Q, 2);
        // Q requires unit stride on this fanout.
        let err = m.validate(&arch(), &strided).unwrap_err();
        assert!(matches!(
            err,
            MappingError::DimNotAllowed { dim: Dim::Q, .. }
        ));
    }

    #[test]
    fn temporal_on_converter_rejected() {
        let carch = ArchBuilder::new("c", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .converter("dac", Domain::AnalogElectrical, TensorSet::all())
            .done()
            .compute("mac", Domain::AnalogElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let mut m = Mapping::new(3);
        m.push_temporal(1, Dim::C, 2);
        let err = m.validate(&carch, &layer()).unwrap_err();
        assert!(matches!(err, MappingError::TemporalAtConverter { .. }));
    }

    #[test]
    fn temporal_on_compute_allowed() {
        let mut m = Mapping::new(3);
        m.push_temporal(2, Dim::C, 2);
        m.push_temporal(1, Dim::P, 4);
        m.push_temporal(1, Dim::Q, 4);
        m.push_temporal(1, Dim::R, 3);
        m.push_temporal(1, Dim::S, 3);
        m.push_spatial(1, Dim::M, 8);
        assert_eq!(m.validate(&arch(), &layer()), Ok(()));
    }

    #[test]
    fn padding_factor() {
        let mut m = Mapping::new(3);
        // Layer C=2 mapped as 3 -> 1.5x padding.
        m.push_temporal(0, Dim::C, 3);
        m.push_temporal(1, Dim::P, 4);
        m.push_temporal(1, Dim::Q, 4);
        m.push_temporal(1, Dim::R, 3);
        m.push_temporal(1, Dim::S, 3);
        m.push_spatial(1, Dim::M, 8);
        assert!((m.padding_factor(&layer()) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_loops() {
        let mut m = Mapping::new(2);
        m.push_temporal(0, Dim::C, 2);
        m.push_spatial(0, Dim::M, 4);
        let shown = format!("{m}");
        assert!(shown.contains("tC:2") && shown.contains("sM:4"));
    }
}
