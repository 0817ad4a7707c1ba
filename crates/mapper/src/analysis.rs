//! Loop-nest reuse analysis: access, conversion and cycle counts.
//!
//! The analysis follows the Timeloop family's analytical model:
//!
//! * a storage level's **tile** of a tensor is the footprint of every loop
//!   below its temporal loops (its own spatial fan-out included);
//! * the tile is **refetched** once per iteration of every temporal loop
//!   above it that is *relevant* to the tensor, and of every irrelevant
//!   loop that has a relevant loop iterating inside it (the buffer can hold
//!   only the current tile, so revisits refetch);
//! * spatial fan-outs **multicast**: the sharing factor at a fan-out is
//!   `(instances × per-instance footprint) / union footprint`, which both
//!   captures pure broadcast (a dimension irrelevant to the tensor) and
//!   sliding-window overlap between neighboring instances;
//! * partial sums flow upward through **reduction** sharing the same way,
//!   and pay a read-back for every revisit caused by reduction loops outer
//!   to output-relevant loops;
//! * **converters** transduce every element that crosses their position,
//!   after the multicast below them is discounted — converting once and
//!   fanning out is the mapper's lever against conversion energy.
//!
//! Known approximation (shared with Timeloop): temporal sliding-window
//! overlap between *successive* input tiles is not exploited; each tile
//! refetch is charged in full.

use crate::{Mapping, MappingError};
use lumen_arch::Architecture;
use lumen_workload::{Dim, DimMap, Layer, TensorKind, TensorMap};
use std::ops::Range;

/// Traffic observed at one architecture level for one layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LevelTraffic {
    /// Element reads at this level per tensor (serving children, flushing
    /// partial sums upward).
    pub reads: TensorMap<f64>,
    /// Element writes at this level per tensor (fills from the parent,
    /// partial-sum arrivals from below).
    pub writes: TensorMap<f64>,
    /// Elements transduced per tensor (converter levels only).
    pub conversions: TensorMap<f64>,
    /// Stored tile size in elements per kept tensor (storage levels).
    pub tile_elements: TensorMap<u64>,
}

impl LevelTraffic {
    /// Total accesses (reads + writes) across tensors.
    pub fn total_accesses(&self) -> f64 {
        TensorKind::ALL
            .iter()
            .map(|&t| self.reads[t] + self.writes[t])
            .sum()
    }

    /// Total conversions across tensors.
    pub fn total_conversions(&self) -> f64 {
        TensorKind::ALL.iter().map(|&t| self.conversions[t]).sum()
    }
}

/// The result of analyzing one layer under one mapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerAnalysis {
    /// Steady-state cycles (all channel groups, padding included).
    pub cycles: u64,
    /// True multiply-accumulates of the layer.
    pub macs: u64,
    /// Hardware-iterated MACs including padding waste.
    pub padded_macs: u64,
    /// Achieved MACs per cycle.
    pub throughput_macs_per_cycle: f64,
    /// Achieved / peak MACs per cycle (0, 1].
    pub utilization: f64,
    /// Fraction of hardware lanes used by the mapping's spatial loops.
    pub spatial_utilization: f64,
    /// Padded iteration volume over the true volume (≥ 1).
    pub padding_factor: f64,
    /// Per-architecture-level traffic, outermost level first.
    pub levels: Vec<LevelTraffic>,
}

impl LayerAnalysis {
    /// Traffic at the level with the given architecture index.
    pub fn level(&self, index: usize) -> &LevelTraffic {
        &self.levels[index]
    }

    /// Sum of conversions over all converter levels and tensors.
    pub fn total_conversions(&self) -> f64 {
        self.levels
            .iter()
            .map(LevelTraffic::total_conversions)
            .sum()
    }
}

/// Analyzes `layer` mapped onto `arch` by `mapping`.
///
/// # Errors
///
/// Returns a [`MappingError`] if the mapping is illegal for the
/// architecture/layer (see [`Mapping::validate`]) or if a tile exceeds a
/// bounded buffer's capacity.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn analyze(
    arch: &Architecture,
    layer: &Layer,
    mapping: &Mapping,
) -> Result<LayerAnalysis, MappingError> {
    mapping.validate(arch, layer)?;
    let mut nest = Nest::new(arch, layer, mapping);
    nest.load(mapping);
    nest.check_capacity()?;
    let mut analysis = LayerAnalysis::default();
    nest.run(&mut analysis);
    Ok(analysis)
}

/// The exact read traffic [`analyze`] will charge at the **outermost
/// keeper** of each read tensor (weights and inputs), computed without
/// the full nest walk.
///
/// Returns `(level index, tensor, reads)` triples — each value is
/// bit-identical to the corresponding `reads` entry of the full
/// [`LayerAnalysis`], so the triples are a sound (and usually dominant,
/// since the outermost level is the most expensive per access) *lower
/// bound* on a candidate mapping's traffic cost. The search engine hands
/// a lower bound the same reads as the read tensors' entries of
/// [`crate::search::Preview`]'s `outer_traffic`, which also holds their
/// fills and the output's complete traffic at its outermost keeper; see
/// [`crate::search::random_search`].
///
/// The mapping is **not** validated: an illegal candidate yields a
/// number that would never be charged, which is harmless for pruning
/// (the candidate is discarded either way). The mapping must still have
/// one [`crate::LevelLoops`] per architecture level.
pub fn outer_read_traffic(
    arch: &Architecture,
    layer: &Layer,
    mapping: &Mapping,
) -> Vec<(usize, TensorKind, f64)> {
    let mut nest = Nest::new(arch, layer, mapping);
    nest.load_preview(mapping);
    nest.outer_traffic()
        .iter()
        .filter(|keeper| keeper.tensor != TensorKind::Output)
        .map(|keeper| (keeper.level, keeper.tensor, keeper.reads))
        .collect()
}

/// One tensor's complete traffic at one storage level: the `reads` and
/// `writes` entries the full [`LayerAnalysis`] records there, bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeeperTraffic {
    /// The storage level's architecture index.
    pub level: usize,
    /// The tensor.
    pub tensor: TensorKind,
    /// [`LevelTraffic::reads`] of `tensor` at `level`.
    pub reads: f64,
    /// [`LevelTraffic::writes`] of `tensor` at `level`.
    pub writes: f64,
}

/// The positions in a tensor's keeper chain whose multiplicities
/// [`Nest::load_preview`] computes: its outermost keeper and the next.
const PREVIEW_KEEPERS: Range<usize> = 0..2;

/// The `(level, tensor)` tiles and sharing factors one part of a
/// [`Nest`] load computes.
#[derive(Debug, Default)]
struct Footprints {
    tiles: Vec<(usize, TensorKind)>,
    shares: Vec<(usize, TensorKind)>,
}

/// The nest context of one *(architecture, layer, spatial loops)*
/// triple, plus buffers for the per-candidate quantities.
///
/// [`Nest::new`] holds what every candidate of a search shares: the
/// keeper chains, the converter levels, the spatial products (the
/// search fixes its spatial loops, so every candidate shares them) and
/// which quantities each part of a load computes. [`Nest::load`] then
/// computes each per-candidate quantity once into the reused buffers, so
/// analyzing one more candidate allocates nothing. [`analyze`] is this
/// context plus one candidate.
///
/// A load is demand-driven and comes in three parts, so a search pays
/// little more than its first-stage bound reads for a candidate that
/// bound prunes:
///
/// * [`Nest::load_preview`] computes only what the preview and
///   [`Nest::overflow`] read: each tensor's tile and multiplicities at
///   its inner keeper (the next below its outermost one) and at its
///   outermost keeper unless that is level 0, the sharing factors of the
///   fan-outs between the two, and every bounded level's tiles. It walks
///   the extents of the shallow levels those read, with the deeper
///   levels folded into one per-search spatial product times their
///   temporal loops. On Albireo that is three GLB tiles over the DRAM
///   and GLB loops.
/// * [`Nest::load_deep_footprints`] computes every other tile and sharing
///   factor: the deep levels' extents, the level-0 tiles and the shares
///   of the fan-outs below the inner keepers. That is all
///   [`Nest::load_crossings`] needs for the crossings of the converters
///   that feed compute.
/// * [`Nest::load_rest`] computes the multiplicities at the deeper
///   keepers, the only other ones [`Nest::run`] reads.
pub(crate) struct Nest<'a> {
    arch: &'a Architecture,
    layer: &'a Layer,
    num_levels: usize,
    groups: u64,
    peak: f64,
    /// Per-tensor keeper level indices (storage only, outer→inner).
    keepers: TensorMap<Vec<usize>>,
    /// Converter level indices, outer→inner.
    converters: Vec<usize>,
    /// `(converter level, tensor)` pairs whose next keeper is compute,
    /// in [`Nest::run`]'s order.
    compute_fed: Vec<(usize, TensorKind)>,
    /// Spatial bound product per level.
    s_prod: Vec<u64>,
    /// Product of every spatial bound.
    spatial_product: u64,
    /// Utilized instance count of each level (spatial products above it).
    util_inst: Vec<u64>,
    /// Levels `0..shallow` are those whose extents a preview reads.
    shallow: usize,
    /// Per-dimension product of the spatial bounds at levels `shallow..`.
    deep_spatial: DimMap<u64>,
    /// The footprints a preview computes.
    preview: Footprints,
    /// Every other tile [`Nest::run`] records and sharing factor at a
    /// fan-out the spatial loops use.
    deep: Footprints,

    // Per-candidate quantities, written by `load`.
    /// Extents of all loops strictly below level `x`'s temporal loops,
    /// including `x`'s spatial loops.
    below_incl: Vec<DimMap<u64>>,
    /// Extents of all loops at levels `> x` (excluding `x`'s spatial).
    below_excl: Vec<DimMap<u64>>,
    /// Tile of each tensor stored at storage level `x` (its fan-out and
    /// below); unused, and left at 0, where `x` does not keep it.
    tile: Vec<TensorMap<u64>>,
    /// Footprint-based sharing factor of each tensor at level `x`'s
    /// fan-out: how many child deliveries one parent-side element
    /// serves (≥ 1; always 1 below a level whose fan-out the spatial
    /// loops leave unused).
    share: Vec<TensorMap<f64>>,
    /// Temporal refetch multiplicity of the tile stored at keeper level
    /// `x` (unused elsewhere).
    visits: Vec<TensorMap<u64>>,
    /// Distinct tiles traversed by the temporal loops of levels `0..=x`,
    /// at keeper level `x` (unused elsewhere).
    distinct: Vec<TensorMap<u64>>,
    /// Padded extent of each dimension.
    padded: DimMap<u64>,
    /// Padded iteration volume of one channel group.
    padded_volume: u64,
    /// Outermost-keeper traffic of every kept tensor (`outer_len` valid).
    outer: [KeeperTraffic; 3],
    outer_len: usize,
    /// Crossings of the `compute_fed` pairs, as [`LevelTraffic`]'s
    /// `conversions` entries.
    crossings: Vec<(usize, TensorKind, f64)>,
    /// How much of the last load is done.
    loaded: Loaded,
}

/// The parts of a [`Nest`] load that are done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Loaded {
    Nothing,
    Preview,
    Footprints,
    All,
}

impl<'a> Nest<'a> {
    /// The context of `layer` on `arch` under `spatial`'s spatial loops;
    /// every mapping later passed to [`Nest::load`] must share them.
    pub(crate) fn new(arch: &'a Architecture, layer: &'a Layer, spatial: &Mapping) -> Nest<'a> {
        let levels = arch.levels();
        let num_levels = levels.len();
        let s_prod: Vec<u64> = (0..num_levels)
            .map(|x| spatial.level(x).spatial_product())
            .collect();
        let mut util_inst = vec![1u64; num_levels];
        for x in 1..num_levels {
            util_inst[x] = util_inst[x - 1] * s_prod[x - 1];
        }
        let keepers = TensorMap::from_fn(|t| {
            levels
                .iter()
                .enumerate()
                .filter(|(_, l)| l.kind().is_storage() && l.keep().contains(t))
                .map(|(i, _)| i)
                .collect::<Vec<usize>>()
        });
        let converters = arch.converter_levels();
        let compute_fed: Vec<(usize, TensorKind)> = converters
            .iter()
            .flat_map(|&c| {
                let keepers = &keepers;
                levels[c]
                    .keep()
                    .iter()
                    .filter(move |&t| keepers[t].iter().all(|&k| k < c))
                    .map(move |t| (c, t))
            })
            .collect();
        // A tensor's outermost-keeper traffic reads its tiles at its
        // inner keeper and at its outermost one (whose fills count unless
        // it is level 0), and the sharing factors between the two, down
        // to compute when no keeper is next; the capacity check reads
        // every bounded level's tiles.
        let mut preview = Footprints::default();
        for t in TensorKind::ALL {
            let Some(&outer) = keepers[t].first() else {
                continue;
            };
            let inner = keepers[t].get(1).copied();
            let charged = inner.into_iter().chain((outer != 0).then_some(outer));
            preview.tiles.extend(charged.map(|x| (x, t)));
            let to = inner.unwrap_or(num_levels - 1);
            let shared = (outer..to).filter(|&x| s_prod[x] > 1);
            preview.shares.extend(shared.map(|x| (x, t)));
        }
        for (x, level) in levels.iter().enumerate() {
            if level.capacity_bits().is_some() {
                preview.tiles.extend(level.keep().iter().map(|t| (x, t)));
            }
        }
        preview.tiles.sort_unstable();
        preview.tiles.dedup();
        let deep = Footprints {
            tiles: (0..num_levels)
                .filter(|&x| levels[x].kind().is_storage())
                .flat_map(|x| levels[x].keep().iter().map(move |t| (x, t)))
                .filter(|p| !preview.tiles.contains(p))
                .collect(),
            shares: (0..num_levels)
                .filter(|&x| s_prod[x] > 1)
                .flat_map(|x| TensorKind::ALL.map(|t| (x, t)))
                .filter(|p| !preview.shares.contains(p))
                .collect(),
        };
        let shallow = preview
            .tiles
            .iter()
            .chain(&preview.shares)
            .map(|&(x, _)| x + 1)
            .max()
            .unwrap_or(0);
        let mut deep_spatial = DimMap::filled(1u64);
        for x in shallow..num_levels {
            for l in &spatial.level(x).spatial {
                deep_spatial[l.dim] *= l.bound as u64;
            }
        }
        Nest {
            arch,
            layer,
            num_levels,
            groups: layer.groups() as u64,
            peak: arch.peak_parallelism() as f64,
            keepers,
            converters,
            crossings: Vec::with_capacity(compute_fed.len()),
            compute_fed,
            spatial_product: s_prod.iter().product(),
            s_prod,
            util_inst,
            shallow,
            deep_spatial,
            preview,
            deep,
            below_incl: vec![DimMap::filled(1); num_levels],
            below_excl: vec![DimMap::filled(1); num_levels],
            tile: vec![TensorMap::filled(0); num_levels],
            share: vec![TensorMap::filled(1.0); num_levels],
            visits: vec![TensorMap::filled(1); num_levels],
            distinct: vec![TensorMap::filled(1); num_levels],
            padded: DimMap::filled(1),
            padded_volume: 1,
            outer: [KeeperTraffic {
                level: 0,
                tensor: TensorKind::Weight,
                reads: 0.0,
                writes: 0.0,
            }; 3],
            outer_len: 0,
            loaded: Loaded::Nothing,
        }
    }

    /// Computes every per-candidate quantity of `mapping`, which must
    /// have one [`crate::LevelLoops`] per level and this context's
    /// spatial loops.
    pub(crate) fn load(&mut self, mapping: &Mapping) {
        self.load_preview(mapping);
        self.load_deep_footprints(mapping);
        self.load_rest(mapping);
    }

    /// The first part of [`Nest::load`]: the padded extents and the
    /// outermost keepers' traffic, from only the tiles, sharing factors
    /// and multiplicities that traffic and [`Nest::overflow`] read.
    /// Enough for a preview, not for [`Nest::run`].
    pub(crate) fn load_preview(&mut self, mapping: &Mapping) {
        debug_assert!(
            (0..self.num_levels).all(|x| mapping.level(x).spatial_product() == self.s_prod[x]),
            "candidate's spatial loops differ from the nest context's"
        );
        // The deep levels fold into their spatial product times their
        // temporal loops; the shallow ones' suffix extents follow,
        // innermost level first.
        let mut acc = self.deep_spatial;
        for x in self.shallow..self.num_levels {
            for l in &mapping.level(x).temporal {
                acc[l.dim] *= l.bound as u64;
            }
        }
        for x in (0..self.shallow).rev() {
            acc = self.load_extents(mapping, x, acc);
        }
        self.padded = acc;
        self.padded_volume = Dim::ALL.iter().map(|&d| acc[d]).product();

        let preview = std::mem::take(&mut self.preview);
        self.load_footprints(&preview);
        self.preview = preview;
        self.load_multiplicities(mapping, PREVIEW_KEEPERS);
        self.loaded = Loaded::Preview;

        // Each tensor's outermost keeper, charged term by term as the
        // passes of `Nest::run` charge it there.
        let g = self.groups as f64;
        let n = self.num_levels;
        self.outer_len = 0;
        for t in TensorKind::ALL {
            let chain = &self.keepers[t];
            let Some(&k) = chain.first() else {
                continue;
            };
            let inner = chain.get(1).copied().unwrap_or(n - 1);
            let (mut reads, mut writes) = (0.0, 0.0);
            match t {
                TensorKind::Weight | TensorKind::Input => {
                    reads += self.fills_total(t, inner) / self.share_gap(t, k, inner) * g;
                    if k != 0 {
                        writes += self.fills_total(t, k) * g;
                    }
                }
                TensorKind::Output => {
                    let red = self.share_gap(t, k, inner);
                    writes += self.writes_up_total(inner) / red * g;
                    reads += self.reads_down_total(inner) / red * g;
                    if k != 0 {
                        reads += self.writes_up_total(k) * g;
                        writes += self.reads_down_total(k) * g;
                    }
                }
            }
            self.outer[self.outer_len] = KeeperTraffic {
                level: k,
                tensor: t,
                reads,
                writes,
            };
            self.outer_len += 1;
        }
    }

    /// The second part of [`Nest::load`], after [`Nest::load_preview`]
    /// of the same mapping: the deep levels' extents and every tile and
    /// sharing factor the preview left out. Enough for
    /// [`Nest::load_crossings`].
    pub(crate) fn load_deep_footprints(&mut self, mapping: &Mapping) {
        debug_assert!(self.loaded >= Loaded::Preview);
        if self.loaded == Loaded::Preview {
            let mut acc = DimMap::filled(1u64);
            for x in (self.shallow..self.num_levels).rev() {
                acc = self.load_extents(mapping, x, acc);
            }
            debug_assert!(self.shallow == 0 || acc == self.below_excl[self.shallow - 1]);
            let deep = std::mem::take(&mut self.deep);
            self.load_footprints(&deep);
            self.deep = deep;
            self.loaded = Loaded::Footprints;
        }
    }

    /// After [`Nest::load_deep_footprints`]: the crossings of every
    /// converter whose next keeper is compute (see [`Nest::crossings`]).
    pub(crate) fn load_crossings(&mut self) {
        debug_assert!(self.loaded >= Loaded::Footprints);
        let g = self.groups as f64;
        let compute = self.num_levels - 1;
        self.crossings.clear();
        for i in 0..self.compute_fed.len() {
            let (c, t) = self.compute_fed[i];
            // Mirrors the converter pass of `Nest::run` exactly.
            let gap = self.share_gap(t, c, compute);
            let crossings = match t {
                TensorKind::Weight | TensorKind::Input => self.fills_total(t, compute) / gap,
                TensorKind::Output => {
                    (self.writes_up_total(compute) + self.reads_down_total(compute)) / gap
                }
            };
            // `run` adds the crossings onto a zeroed entry.
            self.crossings.push((c, t, 0.0 + crossings * g));
        }
    }

    /// The last part of [`Nest::load`], after
    /// [`Nest::load_deep_footprints`] of the same mapping: the
    /// multiplicities at the keepers the preview left out.
    pub(crate) fn load_rest(&mut self, mapping: &Mapping) {
        debug_assert!(
            self.loaded >= Loaded::Footprints,
            "load_rest before the footprints"
        );
        if self.loaded == Loaded::Footprints {
            self.load_multiplicities(mapping, PREVIEW_KEEPERS.end..usize::MAX);
            self.loaded = Loaded::All;
        }
    }

    /// Whether any converter's next keeper of a tensor it converts is
    /// compute, so that [`Nest::load_crossings`] yields any.
    pub(crate) fn feeds_compute(&self) -> bool {
        !self.compute_fed.is_empty()
    }

    /// Records level `x`'s suffix extents, given `below`, the extents of
    /// every loop at deeper levels; returns them with level `x`'s own
    /// loops joined.
    fn load_extents(&mut self, mapping: &Mapping, x: usize, below: DimMap<u64>) -> DimMap<u64> {
        self.below_excl[x] = below;
        let mut acc = below;
        for l in &mapping.level(x).spatial {
            acc[l.dim] *= l.bound as u64;
        }
        self.below_incl[x] = acc;
        for l in &mapping.level(x).temporal {
            acc[l.dim] *= l.bound as u64;
        }
        acc
    }

    /// The tiles and sharing factors `part` lists, from the footprints
    /// over the suffix extents (moved out of `self` for the call, which
    /// allocates nothing).
    fn load_footprints(&mut self, part: &Footprints) {
        for &(x, t) in &part.tiles {
            self.tile[x][t] = self.footprint(t, &self.below_incl[x]);
        }
        for &(x, t) in &part.shares {
            self.share[x][t] = self.share_at(x, t);
        }
    }

    /// The sharing factor of tensor `t` at level `x`'s fan-out.
    fn share_at(&self, x: usize, t: TensorKind) -> f64 {
        let union = self.footprint(t, &self.below_incl[x]);
        let child = self.footprint(t, &self.below_excl[x]) as f64;
        (self.s_prod[x] as f64 * child / union as f64).max(1.0)
    }

    /// The temporal multiplicities (visits and distinct tiles) of each
    /// tensor at its keepers `chain[positions]`. The temporal products
    /// run from the outermost level, so any positions give what a walk
    /// over every keeper would.
    fn load_multiplicities(&mut self, mapping: &Mapping, positions: Range<usize>) {
        for t in TensorKind::ALL {
            let chain = &self.keepers[t];
            let Some(at) = chain.get(positions.start..positions.end.min(chain.len())) else {
                continue;
            };
            let Some(&deepest) = at.last() else {
                continue;
            };
            let relevant = t.relevant_dims();
            // Walking the temporal loops outer→inner: a loop multiplies
            // the refetches of a tile below it if it is relevant, or if a
            // relevant loop iterates inside it — so the multiplicity is
            // the product of every loop down to the innermost relevant
            // one.
            let (mut all, mut visits, mut distinct) = (1u64, 1u64, 1u64);
            let mut next = 0;
            for x in 0..=deepest {
                for l in &mapping.level(x).temporal {
                    all *= l.bound as u64;
                    if relevant.contains(l.dim) {
                        visits = all;
                        distinct *= l.bound as u64;
                    }
                }
                if x == at[next] {
                    self.visits[x][t] = visits;
                    self.distinct[x][t] = distinct;
                    next += 1;
                }
            }
        }
    }

    /// The loaded candidate's complete traffic at each kept tensor's
    /// outermost keeper, weights, inputs and outputs in that order.
    pub(crate) fn outer_traffic(&self) -> &[KeeperTraffic] {
        &self.outer[..self.outer_len]
    }

    /// The loaded candidate's crossings at every converter whose next
    /// keeper of the crossing tensor is compute, as `(converter level,
    /// tensor, conversions)` triples equal to the
    /// [`LevelTraffic::conversions`] entries, as of the last
    /// [`Nest::load_crossings`].
    pub(crate) fn crossings(&self) -> &[(usize, TensorKind, f64)] {
        &self.crossings
    }

    /// The loaded candidate's cycles, as [`LayerAnalysis::cycles`].
    pub(crate) fn cycles(&self) -> u64 {
        // Every padded iteration is one cycle on one lane.
        self.padded_volume / self.spatial_product * self.groups
    }

    /// The loaded candidate's padded MACs, as
    /// [`LayerAnalysis::padded_macs`].
    pub(crate) fn padded_macs(&self) -> u64 {
        self.padded_volume * self.groups
    }

    /// The spatial lane utilization, as
    /// [`LayerAnalysis::spatial_utilization`].
    pub(crate) fn spatial_utilization(&self) -> f64 {
        self.spatial_product as f64 / self.peak
    }

    /// Footprint of tensor `t` over the given per-dimension extents.
    fn footprint(&self, t: TensorKind, ext: &DimMap<u64>) -> u64 {
        match t {
            TensorKind::Weight => ext[Dim::M] * ext[Dim::C] * ext[Dim::R] * ext[Dim::S],
            TensorKind::Output => ext[Dim::N] * ext[Dim::M] * ext[Dim::P] * ext[Dim::Q],
            TensorKind::Input => {
                let h = self
                    .layer
                    .input_rows(ext[Dim::P] as usize, ext[Dim::R] as usize)
                    as u64;
                let w = self
                    .layer
                    .input_cols(ext[Dim::Q] as usize, ext[Dim::S] as usize)
                    as u64;
                ext[Dim::N] * ext[Dim::C] * h * w
            }
        }
    }

    /// Product of sharing factors over fan-outs in `[from, to)`.
    fn share_gap(&self, t: TensorKind, from: usize, to: usize) -> f64 {
        (from..to).map(|x| self.share[x][t]).product()
    }

    /// Total elements filled into level `x` for read-tensor `t` over the
    /// whole (single-group) execution; `x == num_levels - 1` means
    /// compute.
    fn fills_total(&self, t: TensorKind, x: usize) -> f64 {
        if x >= self.num_levels - 1 {
            return self.padded_volume as f64;
        }
        self.tile[x][t] as f64 * self.visits[x][t] as f64 * self.util_inst[x] as f64
    }

    /// Partial-sum flushes leaving level `x` upward (single group).
    fn writes_up_total(&self, x: usize) -> f64 {
        self.fills_total(TensorKind::Output, x)
    }

    /// Partial-sum read-backs entering level `x` from above (single group).
    fn reads_down_total(&self, x: usize) -> f64 {
        if x >= self.num_levels - 1 {
            return 0.0;
        }
        let t = TensorKind::Output;
        let tile = self.tile[x][t] as f64;
        let visits = self.visits[x][t] as f64;
        let distinct = self.distinct[x][t] as f64;
        (tile * (visits - distinct) * self.util_inst[x] as f64).max(0.0)
    }

    /// The first bounded level the loaded candidate's tiles overflow, as
    /// `(level index, required bits, available bits)`.
    pub(crate) fn overflow(&self) -> Option<(usize, u64, u64)> {
        for (x, level) in self.arch.levels().iter().enumerate() {
            let Some(capacity) = level.capacity_bits() else {
                continue;
            };
            let mut required: u64 = 0;
            for t in level.keep().iter() {
                required += self.tile[x][t] * self.arch.word_bits_of(t) as u64;
            }
            if required > capacity {
                return Some((x, required, capacity));
            }
        }
        None
    }

    fn check_capacity(&self) -> Result<(), MappingError> {
        match self.overflow() {
            None => Ok(()),
            Some((x, required_bits, available_bits)) => Err(MappingError::CapacityExceeded {
                level: self.arch.levels()[x].name().to_string(),
                required_bits,
                available_bits,
            }),
        }
    }

    /// Writes the loaded candidate's analysis into `out`, reusing its
    /// buffers.
    pub(crate) fn run(&self, out: &mut LayerAnalysis) {
        debug_assert!(self.loaded == Loaded::All, "run on a partial load");
        let g = self.groups as f64;
        let levels = &mut out.levels;
        levels.clear();
        levels.resize(self.num_levels, LevelTraffic::default());

        // Record stored tiles.
        for (x, level) in self.arch.levels().iter().enumerate() {
            if level.kind().is_storage() {
                for t in level.keep().iter() {
                    levels[x].tile_elements[t] = self.tile[x][t];
                }
            }
        }

        // Read-only tensors: chain keepers outer→inner, ending at compute.
        for t in [TensorKind::Weight, TensorKind::Input] {
            let chain = &self.keepers[t];
            for (pos, &k) in chain.iter().enumerate() {
                let inner = chain.get(pos + 1).copied().unwrap_or(self.num_levels - 1);
                let inner_fills = self.fills_total(t, inner);
                // Serve the inner keeper (or compute), discounting the
                // multicast of every fan-out in the gap.
                levels[k].reads[t] += inner_fills / self.share_gap(t, k, inner) * g;
                // The keeper's own fills were charged when its parent
                // served them; charge the write here (not for the
                // outermost backing store, whose data is resident).
                if k != 0 {
                    levels[k].writes[t] += self.fills_total(t, k) * g;
                }
            }
        }

        // Output tensor: partial sums flow bottom-up with reduction
        // sharing; revisits flow back down.
        {
            let t = TensorKind::Output;
            let chain = &self.keepers[t];
            for (pos, &k) in chain.iter().enumerate() {
                let inner = chain.get(pos + 1).copied().unwrap_or(self.num_levels - 1);
                let red = self.share_gap(t, k, inner);
                // Arrivals from below (updates) and re-serves downward.
                levels[k].writes[t] += self.writes_up_total(inner) / red * g;
                levels[k].reads[t] += self.reads_down_total(inner) / red * g;
                if k != 0 {
                    // Flushing tiles upward reads them here; revisited
                    // partials return as writes.
                    levels[k].reads[t] += self.writes_up_total(k) * g;
                    levels[k].writes[t] += self.reads_down_total(k) * g;
                }
            }
        }

        // Converters: charge every kept-tensor element crossing their
        // position, after downstream fan-out sharing.
        for &c in &self.converters {
            let keep = self.arch.levels()[c].keep();
            for t in keep.iter() {
                let inner = self.keepers[t]
                    .iter()
                    .copied()
                    .find(|&k| k > c)
                    .unwrap_or(self.num_levels - 1);
                let gap = self.share_gap(t, c, inner);
                let crossings = match t {
                    TensorKind::Weight | TensorKind::Input => self.fills_total(t, inner) / gap,
                    TensorKind::Output => {
                        (self.writes_up_total(inner) + self.reads_down_total(inner)) / gap
                    }
                };
                levels[c].conversions[t] += crossings * g;
            }
        }

        let macs = self.layer.macs();
        let cycles = self.cycles();
        let throughput = macs as f64 / cycles as f64;
        let padded: f64 = Dim::ALL.iter().map(|&d| self.padded[d] as f64).product();

        out.cycles = cycles;
        out.macs = macs;
        out.padded_macs = self.padded_macs();
        out.throughput_macs_per_cycle = throughput;
        out.utilization = throughput / self.peak;
        out.spatial_utilization = self.spatial_utilization();
        out.padding_factor = padded / self.layer.shape().volume() as f64;
    }
}

/// A load without the demand split, for tests: every quantity at every
/// level from one full suffix walk, as a load computed them before the
/// split.
#[cfg(test)]
impl Nest<'_> {
    fn load_exhaustively(&mut self, mapping: &Mapping) {
        let mut acc = DimMap::filled(1u64);
        for x in (0..self.num_levels).rev() {
            acc = self.load_extents(mapping, x, acc);
        }
        self.padded = acc;
        self.padded_volume = Dim::ALL.iter().map(|&d| acc[d]).product();
        for x in 0..self.num_levels {
            for t in TensorKind::ALL {
                if self.arch.levels()[x].kind().is_storage() {
                    self.tile[x][t] = self.footprint(t, &self.below_incl[x]);
                }
                if self.s_prod[x] > 1 {
                    self.share[x][t] = self.share_at(x, t);
                }
            }
        }
        for t in TensorKind::ALL {
            let relevant = t.relevant_dims();
            let (mut all, mut visits, mut distinct) = (1u64, 1u64, 1u64);
            for x in 0..self.num_levels {
                for l in &mapping.level(x).temporal {
                    all *= l.bound as u64;
                    if relevant.contains(l.dim) {
                        visits = all;
                        distinct *= l.bound as u64;
                    }
                }
                self.visits[x][t] = visits;
                self.distinct[x][t] = distinct;
            }
        }
        self.loaded = Loaded::All;
    }
}

/// [`analyze`] over [`Nest`]'s exhaustive test load.
#[cfg(test)]
pub(crate) fn analyze_exhaustively(
    arch: &Architecture,
    layer: &Layer,
    mapping: &Mapping,
) -> Result<LayerAnalysis, MappingError> {
    mapping.validate(arch, layer)?;
    let mut nest = Nest::new(arch, layer, mapping);
    nest.load_exhaustively(mapping);
    nest.check_capacity()?;
    let mut analysis = LayerAnalysis::default();
    nest.run(&mut analysis);
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::{Energy, Frequency};
    use lumen_workload::{DimSet, TensorSet};

    /// DRAM -> buf (fanout 4 over M) -> compute.
    fn toy_arch() -> Architecture {
        ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(Fanout::new(4).allow(DimSet::from_dims(&[Dim::M])))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap()
    }

    /// N=1 M=4 C=4 P=4 Q=4 R=S=1; C at DRAM, P/Q temporal + M spatial at buf.
    fn toy_case() -> (Architecture, Layer, Mapping) {
        let arch = toy_arch();
        let layer = Layer::conv2d("l", 1, 4, 4, 4, 4, 1, 1);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(0, Dim::C, 4);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(1, Dim::M, 4);
        (arch, layer, mapping)
    }

    #[test]
    fn toy_cycles_and_utilization() {
        let (arch, layer, mapping) = toy_case();
        let a = analyze(&arch, &layer, &mapping).unwrap();
        assert_eq!(a.cycles, 64);
        assert_eq!(a.macs, 256);
        assert_eq!(a.padded_macs, 256);
        assert!((a.utilization - 1.0).abs() < 1e-12);
        assert!((a.throughput_macs_per_cycle - 4.0).abs() < 1e-12);
        assert!((a.padding_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toy_weight_traffic_hand_computed() {
        let (arch, layer, mapping) = toy_case();
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // Weight tile at buf: M-slice of 4 weights for one c; C iterates
        // above -> 16 fills; DRAM serves each once.
        assert_eq!(a.level(0).reads[TensorKind::Weight], 16.0);
        assert_eq!(a.level(1).writes[TensorKind::Weight], 16.0);
        // Compute rereads a weight every cycle on all 4 lanes.
        assert_eq!(a.level(1).reads[TensorKind::Weight], 256.0);
        assert_eq!(a.level(1).tile_elements[TensorKind::Weight], 4);
    }

    #[test]
    fn toy_input_traffic_hand_computed() {
        let (arch, layer, mapping) = toy_case();
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // 64 distinct input elements, each filled into buf once.
        assert_eq!(a.level(1).writes[TensorKind::Input], 64.0);
        assert_eq!(a.level(0).reads[TensorKind::Input], 64.0);
        // One input broadcast to 4 M-lanes: 256 MACs / 4 = 64 buf reads.
        assert_eq!(a.level(1).reads[TensorKind::Input], 64.0);
    }

    #[test]
    fn toy_output_partial_spill_hand_computed() {
        let (arch, layer, mapping) = toy_case();
        let a = analyze(&arch, &layer, &mapping).unwrap();
        let o = TensorKind::Output;
        // MAC updates into buf: 256 (M spatial is not a reduction).
        // Flushes up: tile 4 x visits 64 = 256; distinct outputs 64;
        // re-reads 192. See module docs for the walk.
        assert_eq!(a.level(1).writes[o], 256.0 + 192.0);
        assert_eq!(a.level(1).reads[o], 256.0);
        assert_eq!(a.level(0).writes[o], 256.0);
        assert_eq!(a.level(0).reads[o], 192.0);
    }

    #[test]
    fn output_stationary_mapping_avoids_spill() {
        // Put C innermost at buf instead of outermost at DRAM:
        // partial sums never leave buf until final.
        let arch = toy_arch();
        let layer = Layer::conv2d("l", 1, 4, 4, 4, 4, 1, 1);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_temporal(1, Dim::C, 4); // innermost temporal
        mapping.push_spatial(1, Dim::M, 4);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        let o = TensorKind::Output;
        // Only final outputs reach DRAM: 64.
        assert_eq!(a.level(0).writes[o], 64.0);
        assert_eq!(a.level(0).reads[o], 0.0);
        // Buf absorbs all 256 MAC updates, flushes 64 finals.
        assert_eq!(a.level(1).writes[o], 256.0);
        assert_eq!(a.level(1).reads[o], 64.0);
    }

    #[test]
    fn weight_stationary_reduces_dram_weight_reads() {
        // C placed at the compute level puts the full M x C weight slice
        // below buf's temporal loops: buf holds all 16 weights and DRAM
        // serves each exactly once, regardless of the P/Q loops above.
        let arch = toy_arch();
        let layer = Layer::conv2d("l", 1, 4, 4, 4, 4, 1, 1);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(1, Dim::M, 4);
        mapping.push_temporal(2, Dim::C, 4);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // Buf tile now holds all 16 weights; one fill each.
        assert_eq!(a.level(0).reads[TensorKind::Weight], 16.0);
        assert_eq!(a.level(1).tile_elements[TensorKind::Weight], 16);
        assert_eq!(a.level(1).writes[TensorKind::Weight], 16.0);
    }

    #[test]
    fn spatial_reduction_merges_partials() {
        // Fanout over C (a reduction dim): partials from 4 lanes merge
        // before hitting the buffer.
        let arch = ArchBuilder::new("red", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(Fanout::new(4).allow(DimSet::from_dims(&[Dim::C])))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let layer = Layer::conv2d("l", 1, 1, 4, 4, 4, 1, 1);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(1, Dim::C, 4);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // 64 padded MACs; C-spatial reduction 4 -> 16 update writes at buf.
        assert_eq!(a.level(1).writes[TensorKind::Output], 16.0);
        // Weights: 4 lanes each with a distinct c -> no multicast.
        assert_eq!(a.level(1).reads[TensorKind::Weight], 64.0);
    }

    #[test]
    fn sliding_window_multicast_counts_overlap() {
        // Spatial Q with spatial S at the same fanout: children share
        // overlapping input columns; sharing factor = 9 / 5 for Q=3, S=3.
        let arch = ArchBuilder::new("win", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(Fanout::new(9).allow(DimSet::from_dims(&[Dim::Q, Dim::S])))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let layer = Layer::conv2d("l", 1, 1, 1, 3, 3, 3, 3);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::P, 3);
        mapping.push_temporal(1, Dim::R, 3);
        mapping.push_spatial(1, Dim::Q, 3);
        mapping.push_spatial(1, Dim::S, 3);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // Padded MACs = 81. Input multicast at the fanout = 9*1/5 = 1.8.
        // Buf serves 81 / 1.8 = 45 input reads.
        assert!((a.level(1).reads[TensorKind::Input] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn converter_counts_post_multicast_crossings() {
        // DRAM -> buf -> DAC(inputs) -> compute, with an M-fanout below
        // the DAC: one conversion serves all 4 lanes.
        let arch = ArchBuilder::new("conv", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .converter(
                "dac",
                Domain::AnalogElectrical,
                TensorSet::only(TensorKind::Input),
            )
            .convert_energy(Energy::from_picojoules(1.0))
            .fanout(Fanout::new(4).allow(DimSet::from_dims(&[Dim::M])))
            .done()
            .compute("mac", Domain::AnalogElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let layer = Layer::conv2d("l", 1, 4, 2, 4, 4, 1, 1);
        let mut mapping = Mapping::new(4);
        mapping.push_temporal(1, Dim::C, 2);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(2, Dim::M, 4);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        // Padded MACs = 128; M-fanout multicast of 4 -> 32 conversions.
        assert_eq!(a.level(2).conversions[TensorKind::Input], 32.0);
        assert_eq!(a.level(2).conversions[TensorKind::Weight], 0.0);
        assert_eq!(a.total_conversions(), 32.0);
    }

    #[test]
    fn matmul_weights_reused_across_sequence() {
        // Matmul M=4 K=4 rows=4 on the toy arch: C outer, P inner at buf
        // keeps each weight column resident while the sequence streams.
        let (arch, _, _) = toy_case();
        let mm = Layer::matmul("mm", 1, 4, 4, 4);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::C, 4);
        mapping.push_temporal(1, Dim::P, 4); // inner
        mapping.push_spatial(1, Dim::M, 4);
        let a = analyze(&arch, &mm, &mapping).unwrap();
        // Each of the 16 weights leaves DRAM exactly once.
        assert_eq!(a.level(0).reads[TensorKind::Weight], 16.0);
        // 16 distinct inputs (no sliding-window halo), each filled once,
        // broadcast to the 4 M-lanes: 64 padded MACs / 4 = 16 buf reads.
        assert_eq!(a.level(0).reads[TensorKind::Input], 16.0);
        assert_eq!(a.level(1).reads[TensorKind::Input], 16.0);
        // C outside P revisits partials: 4-wide tile x (16 - 4) revisits.
        assert_eq!(a.level(0).reads[TensorKind::Output], 48.0);
    }

    #[test]
    fn matmul_output_stationary_trades_weight_refetch_for_no_spill() {
        let (arch, _, _) = toy_case();
        let mm = Layer::matmul("mm", 1, 4, 4, 4);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::C, 4); // inner: output-stationary
        mapping.push_spatial(1, Dim::M, 4);
        let a = analyze(&arch, &mm, &mapping).unwrap();
        let o = TensorKind::Output;
        // Only the 16 final outputs reach DRAM; nothing reads back.
        assert_eq!(a.level(0).writes[o], 16.0);
        assert_eq!(a.level(0).reads[o], 0.0);
        // The price: the weight slice is refetched once per output row.
        assert_eq!(a.level(0).reads[TensorKind::Weight], 64.0);
    }

    #[test]
    fn matmul_has_no_input_halo() {
        // For conv kernels R=S>1 neighboring tiles overlap; a matmul's
        // input footprint must be exact at every tiling.
        let (arch, _, _) = toy_case();
        let mm = Layer::matmul("mm", 2, 4, 8, 8);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(0, Dim::N, 2);
        mapping.push_temporal(0, Dim::P, 2);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::C, 8);
        mapping.push_spatial(1, Dim::M, 4);
        let a = analyze(&arch, &mm, &mapping).unwrap();
        // Distinct inputs = N * C * rows = 2 * 8 * 8 = 128, filled once.
        assert_eq!(a.level(0).reads[TensorKind::Input], 128.0);
        assert_eq!(a.level(1).writes[TensorKind::Input], 128.0);
    }

    #[test]
    fn groups_scale_traffic_and_cycles() {
        let arch = toy_arch();
        let base = Layer::conv2d("l", 1, 4, 4, 4, 4, 1, 1);
        let grouped = Layer::conv2d("g", 1, 8, 8, 4, 4, 1, 1).with_groups(2);
        // Same per-group shape; grouped has 2 groups.
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(0, Dim::C, 4);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(1, Dim::M, 4);
        let a1 = analyze(&arch, &base, &mapping).unwrap();
        let a2 = analyze(&arch, &grouped, &mapping).unwrap();
        assert_eq!(a2.cycles, 2 * a1.cycles);
        assert_eq!(
            a2.level(0).reads[TensorKind::Weight],
            2.0 * a1.level(0).reads[TensorKind::Weight]
        );
        // Throughput identical: both run 4 MACs/cycle.
        assert!((a2.throughput_macs_per_cycle - a1.throughput_macs_per_cycle).abs() < 1e-12);
    }

    #[test]
    fn capacity_violation_detected() {
        let arch = ArchBuilder::new("cap", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .capacity_bits(64) // 8 elements at 8 bits
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let layer = Layer::conv2d("l", 1, 4, 4, 1, 1, 1, 1);
        let mut mapping = Mapping::new(3);
        // Whole 16-weight tensor resident at buf (loops at compute level):
        // needs 128 bits > 64.
        mapping.push_temporal(2, Dim::M, 4);
        mapping.push_temporal(2, Dim::C, 4);
        let err = analyze(&arch, &layer, &mapping).unwrap_err();
        assert!(matches!(err, MappingError::CapacityExceeded { .. }));
    }

    #[test]
    fn padding_shows_up_in_utilization() {
        let arch = toy_arch();
        // M=3 mapped onto the 4-wide fanout: 25% of lanes idle.
        let layer = Layer::conv2d("l", 1, 3, 4, 4, 4, 1, 1);
        let mut mapping = Mapping::new(3);
        mapping.push_temporal(0, Dim::C, 4);
        mapping.push_temporal(1, Dim::P, 4);
        mapping.push_temporal(1, Dim::Q, 4);
        mapping.push_spatial(1, Dim::M, 4);
        let a = analyze(&arch, &layer, &mapping).unwrap();
        assert_eq!(a.macs, 192);
        assert_eq!(a.padded_macs, 256);
        assert!((a.utilization - 0.75).abs() < 1e-12);
    }
}
