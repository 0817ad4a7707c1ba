//! The system evaluator: mapping strategy + energy accounting.

use crate::energy::EnergyTable;
use crate::EnergyBreakdown;
use lumen_arch::Architecture;
use lumen_mapper::search::{
    greedy_mapping, random_search, spatial_priority_for, Preview, SearchConfig, SearchResult,
    TemporalPlan,
};
use lumen_mapper::{analyze, LayerAnalysis, Mapping, MappingError};
use lumen_units::Energy;
use lumen_workload::serving::ServingError;
use lumen_workload::{Dim, Layer, TensorKind};
use std::fmt;
use std::sync::Arc;

/// A caller-provided mapping constructor.
pub type MappingFn = dyn Fn(&Architecture, &Layer) -> Mapping + Send + Sync;

/// How a [`System`] chooses a mapping for each layer.
#[derive(Clone)]
pub enum MappingStrategy {
    /// Deterministic greedy spatial packing with all leftover temporal
    /// loops at the given storage level (0 = the backing store).
    Greedy {
        /// Storage level receiving the temporal loops.
        temporal_level: usize,
    },
    /// Deterministic greedy spatial packing with an explicit temporal
    /// plan — e.g. batch-innermost-of-weights dataflows that amortize
    /// weight fetches across a batch.
    Planned {
        /// Spatial packing priority.
        priority: Vec<Dim>,
        /// Temporal loop placement.
        plan: TemporalPlan,
    },
    /// Seeded random search minimizing total system energy.
    RandomSearch(SearchConfig),
    /// A caller-provided mapping constructor (e.g. an
    /// architecture-specific dataflow like Albireo's) with a
    /// caller-vouched content fingerprint — build with
    /// [`MappingStrategy::custom_keyed`]. The key makes the strategy
    /// participate fully in cross-session evaluation caching: two
    /// strategies with equal keys are promised to produce identical
    /// mappings for identical inputs.
    CustomKeyed {
        /// Content hash of everything the constructor's behavior depends
        /// on (captured configuration, algorithm version).
        key: u64,
        /// The mapping constructor.
        mapper: Arc<MappingFn>,
    },
}

impl Default for MappingStrategy {
    /// Greedy with temporal loops at the innermost storage level above
    /// compute — a sensible output-stationary default.
    fn default() -> Self {
        MappingStrategy::Greedy { temporal_level: 1 }
    }
}

impl MappingStrategy {
    /// Wraps a mapping constructor with a caller-vouched content `key`
    /// (hash it from the captured configuration with
    /// [`lumen_workload::fnv1a`] / [`lumen_workload::fnv1a_bytes`]).
    /// The caller promises that two constructors given equal keys behave
    /// identically — the key becomes the strategy's cache fingerprint,
    /// so evaluations are shared across sessions and rebuilt systems.
    pub fn custom_keyed(key: u64, mapper: Arc<MappingFn>) -> MappingStrategy {
        MappingStrategy::CustomKeyed { key, mapper }
    }

    /// A 64-bit content fingerprint of the strategy, for evaluation-cache
    /// keys: equal fingerprints guarantee the strategy produces the same
    /// mapping for the same *(architecture, layer)* input.
    ///
    /// Every built-in strategy is a pure function of its configuration —
    /// [`MappingStrategy::RandomSearch`] included, since [`SearchConfig`]
    /// seeds the RNG ([`SearchConfig`]'s `Eq`/`Hash` make that a typed
    /// guarantee) — so the fingerprint hashes the configuration itself.
    /// [`MappingStrategy::CustomKeyed`] hashes its caller-vouched key.
    pub fn fingerprint(&self) -> u64 {
        use lumen_workload::fnv1a;
        match self {
            MappingStrategy::Greedy { temporal_level } => {
                fnv1a(b"strategy-greedy", &[*temporal_level as u64])
            }
            MappingStrategy::Planned { priority, plan } => {
                let mut words: Vec<u64> = vec![priority.len() as u64];
                words.extend(priority.iter().map(|d| d.index() as u64));
                words.push(plan.default_level as u64);
                for (level, dims) in &plan.assignments {
                    words.push(*level as u64);
                    words.push(dims.len() as u64);
                    words.extend(dims.iter().map(|d| d.index() as u64));
                }
                fnv1a(b"strategy-planned", &words)
            }
            MappingStrategy::RandomSearch(cfg) => {
                fnv1a(b"strategy-random", &[cfg.iterations as u64, cfg.seed])
            }
            MappingStrategy::CustomKeyed { key, .. } => fnv1a(b"strategy-keyed", &[*key]),
        }
    }
}

impl fmt::Debug for MappingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingStrategy::Greedy { temporal_level } => f
                .debug_struct("Greedy")
                .field("temporal_level", temporal_level)
                .finish(),
            MappingStrategy::Planned { priority, plan } => f
                .debug_struct("Planned")
                .field("priority", priority)
                .field("plan", plan)
                .finish(),
            MappingStrategy::RandomSearch(cfg) => f.debug_tuple("RandomSearch").field(cfg).finish(),
            MappingStrategy::CustomKeyed { key, .. } => f
                .debug_struct("CustomKeyed")
                .field("key", &format_args!("{key:#018x}"))
                .finish_non_exhaustive(),
        }
    }
}

/// Errors from system evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// The strategy produced no legal mapping for a layer.
    NoMapping {
        /// The layer that could not be mapped.
        layer: String,
        /// The underlying mapping error, if one was produced.
        cause: Option<MappingError>,
    },
    /// A serving input (mix, arrival process, KV layout, fleet) failed
    /// validation.
    Serving(ServingError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NoMapping { layer, cause } => {
                write!(f, "no legal mapping found for layer `{layer}`")?;
                if let Some(cause) = cause {
                    write!(f, ": {cause}")?;
                }
                Ok(())
            }
            SystemError::Serving(error) => error.fmt(f),
        }
    }
}

impl From<ServingError> for SystemError {
    fn from(error: ServingError) -> SystemError {
        SystemError::Serving(error)
    }
}

impl std::error::Error for SystemError {}

/// The result of evaluating one layer on a system.
#[derive(Debug, Clone)]
pub struct LayerEvaluation {
    /// The evaluated layer's name.
    pub layer_name: String,
    /// The evaluated layer's content signature (its identity for
    /// caching and deduplicated reporting; independent of the name).
    pub signature: lumen_workload::LayerSignature,
    /// The mapping used.
    pub mapping: Mapping,
    /// Access/conversion/cycle analysis.
    pub analysis: LayerAnalysis,
    /// Itemized energy.
    pub energy: EnergyBreakdown,
}

impl LayerEvaluation {
    /// Energy per true MAC.
    pub fn energy_per_mac(&self) -> Energy {
        self.energy.total() / self.analysis.macs as f64
    }
}

/// Traffic rerouting for fused-layer dataflows: charge a tensor's traffic
/// at one level using another level's energetics (e.g. inter-layer
/// activations that stay in the global buffer instead of DRAM).
///
/// Hashable because the reroute is part of a layer evaluation's cache
/// identity: the same layer fused and unfused costs differently.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct Reroute {
    /// `(tensor, from level index, to level index)` entries.
    pub entries: Vec<(TensorKind, usize, usize)>,
}

impl Reroute {
    fn target(&self, tensor: TensorKind, level: usize) -> Option<usize> {
        self.entries
            .iter()
            .find(|(t, from, _)| *t == tensor && *from == level)
            .map(|(_, _, to)| *to)
    }
}

/// An architecture paired with a mapping strategy — the object the
/// paper's experiments evaluate.
#[derive(Debug, Clone)]
pub struct System {
    arch: Architecture,
    strategy: MappingStrategy,
    /// The energy items the architecture charges.
    items: Arc<EnergyTable>,
}

impl System {
    /// Couples an architecture with a mapping strategy.
    pub fn new(arch: Architecture, strategy: MappingStrategy) -> System {
        System {
            items: Arc::new(EnergyTable::new(&arch)),
            arch,
            strategy,
        }
    }

    /// The underlying architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The mapping strategy.
    pub fn strategy(&self) -> &MappingStrategy {
        &self.strategy
    }

    /// An empty breakdown over the architecture's energy items.
    pub(crate) fn energy_breakdown(&self) -> EnergyBreakdown {
        EnergyBreakdown::new(Arc::clone(&self.items))
    }

    /// Finds a mapping for `layer` per the strategy.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] if the strategy cannot produce a legal
    /// mapping.
    pub fn map_layer(&self, layer: &Layer) -> Result<Mapping, SystemError> {
        self.map_layer_analyzed(layer).map(|(mapping, _)| mapping)
    }

    /// [`System::map_layer`], plus the winner's analysis when the
    /// strategy searched (so the caller need not analyze it again).
    fn map_layer_analyzed(
        &self,
        layer: &Layer,
    ) -> Result<(Mapping, Option<LayerAnalysis>), SystemError> {
        let mapping = match &self.strategy {
            // Spatial priority follows the operator class: matmuls
            // parallelize sequence rows before the reduction dimension.
            MappingStrategy::Greedy { temporal_level } => greedy_mapping(
                &self.arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(*temporal_level),
            ),
            MappingStrategy::Planned { priority, plan } => {
                greedy_mapping(&self.arch, layer, priority, plan)
            }
            MappingStrategy::RandomSearch(cfg) => {
                let result =
                    self.search_min_energy(layer, *cfg)
                        .ok_or_else(|| SystemError::NoMapping {
                            layer: layer.name().to_string(),
                            cause: None,
                        })?;
                return Ok((result.mapping, Some(result.analysis)));
            }
            MappingStrategy::CustomKeyed { mapper, .. } => mapper(&self.arch, layer),
        };
        Ok((mapping, None))
    }

    /// Maps and evaluates one layer.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] if no legal mapping exists (including
    /// capacity violations).
    pub fn evaluate_layer(&self, layer: &Layer) -> Result<LayerEvaluation, SystemError> {
        self.evaluate_layer_rerouted(layer, &Reroute::default())
    }

    /// Evaluates a layer with an explicit mapping (no strategy involved).
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] wrapping the mapping error if the
    /// mapping is illegal.
    pub fn evaluate_layer_with_mapping(
        &self,
        layer: &Layer,
        mapping: Mapping,
    ) -> Result<LayerEvaluation, SystemError> {
        self.evaluation(layer, mapping, None, &Reroute::default())
    }

    pub(crate) fn evaluate_layer_rerouted(
        &self,
        layer: &Layer,
        reroute: &Reroute,
    ) -> Result<LayerEvaluation, SystemError> {
        let (mapping, searched) = self.map_layer_analyzed(layer)?;
        self.evaluation(layer, mapping, searched, reroute)
    }

    /// The evaluation of `layer` under `mapping`, analyzed here unless
    /// the search already did.
    fn evaluation(
        &self,
        layer: &Layer,
        mapping: Mapping,
        analysis: Option<LayerAnalysis>,
        reroute: &Reroute,
    ) -> Result<LayerEvaluation, SystemError> {
        let analysis = match analysis {
            Some(analysis) => analysis,
            None => analyze(&self.arch, layer, &mapping).map_err(|e| SystemError::NoMapping {
                layer: layer.name().to_string(),
                cause: Some(e),
            })?,
        };
        let mut energy = self.energy_breakdown();
        self.energy_into(&analysis, reroute, &mut energy);
        self.add_kv_append_energy(layer, &mut energy);
        Ok(LayerEvaluation {
            layer_name: layer.name().to_string(),
            signature: layer.signature(),
            mapping,
            analysis,
            energy,
        })
    }

    /// Charges the KV-cache residency cost of a decode-step layer: the cache
    /// grows by [`Layer::kv_append_elements`] per step, and each appended
    /// element is written once to the cache's home — the outermost storage
    /// level that keeps the weight tensor, since the cache *is* the layer's
    /// stationary operand. The per-step *reads* of the whole cache need no
    /// extra term: the cache is never reused across steps, so the weight
    /// traffic of each step's own evaluation already re-reads it in full.
    ///
    /// A step that privatises a shared cache page before appending — the
    /// copy-on-write of a shared prompt prefix's trailing partial page
    /// ([`Layer::with_kv_cow`]) — additionally pays one read (the shared
    /// source page) and one write (the private copy) per copied element, at
    /// the same home.
    ///
    /// Nothing is charged for ordinary layers (`kv_append_elements() == 0`),
    /// so every pre-existing evaluation is bit-identical to before.
    ///
    /// An architecture with no weight-keeping storage level has nowhere to
    /// home the cache, so nothing can be charged and the resident layer
    /// costs the same as its non-resident twin; that mis-modeling trips a
    /// debug assertion rather than passing silently.
    fn add_kv_append_energy(&self, layer: &Layer, breakdown: &mut EnergyBreakdown) {
        let appended = layer.kv_append_elements();
        let copied = layer.kv_cow_elements();
        if appended == 0 && copied == 0 {
            return;
        }
        let Some((index, home)) = self
            .arch
            .levels()
            .iter()
            .enumerate()
            .find(|(_, l)| l.kind().is_storage() && l.keep().contains(TensorKind::Weight))
        else {
            debug_assert!(
                false,
                "KV-resident layer {:?} on an architecture with no weight-keeping \
                 storage level: the cache has no home, so its append cannot be charged",
                layer.name()
            );
            return;
        };
        breakdown.add(
            self.items.levels[index][TensorKind::Weight],
            home.write_energy() * (appended + copied) as f64 + home.read_energy() * copied as f64,
        );
    }

    /// Seeded random search minimizing total system energy: the
    /// [`MappingStrategy::RandomSearch`] objective.
    ///
    /// A candidate's cost is the total of its unrerouted energy
    /// breakdown, refilled by [`System::energy_into`] into one breakdown
    /// per search, so it is bit-identical to the reported breakdown's
    /// total. Candidates are pruned with a preview-only lower bound when
    /// the architecture admits one; the winner is bit-identical to the
    /// plain search either way.
    fn search_min_energy(&self, layer: &Layer, cfg: SearchConfig) -> Option<SearchResult> {
        let arch = &self.arch;
        let mut energy = self.energy_breakdown();
        let cost = |analysis: &LayerAnalysis| {
            energy.clear();
            self.energy_into(analysis, &Reroute::default(), &mut energy);
            energy.total().picojoules()
        };
        let bound = energy_lower_bound(arch);
        random_search(arch, layer, cfg, bound.as_ref().map(|lb| lb as _), cost)
    }

    /// Adds a nest analysis's itemized energy under the architecture's
    /// per-level energetics to `energy`, a breakdown of this system: the
    /// one add sequence behind every evaluation and the search
    /// objective. Rerouted traffic is charged to the target level's item.
    fn energy_into(
        &self,
        analysis: &LayerAnalysis,
        reroute: &Reroute,
        energy: &mut EnergyBreakdown,
    ) {
        let (arch, items) = (&self.arch, &*self.items);
        for (x, level) in arch.levels().iter().enumerate() {
            let traffic = analysis.level(x);
            if level.kind().is_storage() {
                for t in TensorKind::ALL {
                    let to = reroute.target(t, x).unwrap_or(x);
                    let target = &arch.levels()[to];
                    let id = items.levels[to][t];
                    energy.add(id, target.read_energy() * traffic.reads[t]);
                    energy.add(id, target.write_energy() * traffic.writes[t]);
                }
            } else if level.kind().is_converter() {
                for t in TensorKind::ALL {
                    energy.add(
                        items.levels[x][t],
                        level.convert_energy() * traffic.conversions[t],
                    );
                }
            }
        }

        // Compute: charge padded MACs (idle-lane padding still switches).
        energy.add(
            items.compute,
            arch.mac_energy() * analysis.padded_macs as f64,
        );

        // Per-cycle costs: lasers and tuning burn for every cycle; gateable
        // costs scale with the fraction of lanes in use.
        for (cost, &id) in arch.per_cycle_costs().iter().zip(&items.per_cycle) {
            let factor = if cost.gateable {
                analysis.spatial_utilization
            } else {
                1.0
            };
            energy.add(
                id,
                cost.energy_per_cycle * (analysis.cycles as f64) * factor,
            );
        }

        // Leakage over the runtime.
        let runtime = arch.clock().period() * analysis.cycles as f64;
        energy.add(items.static_term, arch.total_static_power() * runtime);
    }
}

/// A lower bound on the random-search cost objective computable from a
/// candidate's [`Preview`], used by [`System::search_min_energy`] to skip
/// candidates that cannot beat the incumbent before paying for the full
/// nest analysis.
///
/// The bound sums exactly the terms of the true objective that the
/// preview determines, each bit-identical to the analyzer's entry:
/// compute (padded MACs), per-cycle, static, the complete traffic at
/// every tensor's outermost keeper (DRAM on every built-in architecture:
/// the read tensors' reads, the output's updates and read-backs), and,
/// in the search's second stage, the crossings of every converter that
/// feeds compute (all of Albireo's DACs, modulators, ADCs and
/// detectors). It omits the rest: the inner keepers' traffic and the
/// crossings of converters above an inner keeper.
///
/// Both the charged and the omitted terms must be nonnegative: a
/// negative charged term can make the bound negative, which the
/// search's relative safety margin raises instead of lowering, and a
/// negative omitted one can put the objective below the bound. So an
/// architecture with any negative energy or static power (nonsensical,
/// but representable; the linter flags it) gets `None`, and the caller
/// falls back to the unpruned search.
fn energy_lower_bound(arch: &Architecture) -> Option<impl Fn(&Preview<'_>) -> f64 + '_> {
    let nonnegative = |e: Energy| e.raw() >= 0.0;
    let every_term_nonnegative = arch.levels().iter().all(|l| {
        (!l.kind().is_storage() || (nonnegative(l.read_energy()) && nonnegative(l.write_energy())))
            && (!l.kind().is_converter() || nonnegative(l.convert_energy()))
    }) && nonnegative(arch.mac_energy())
        && arch
            .per_cycle_costs()
            .iter()
            .all(|cost| nonnegative(cost.energy_per_cycle))
        && arch.total_static_power().raw() >= 0.0;
    if !every_term_nonnegative {
        return None;
    }
    // The architecture's constant terms, fetched once per search.
    let mac_energy = arch.mac_energy();
    let static_power = arch.total_static_power();
    let period = arch.clock().period();
    Some(move |p: &Preview<'_>| {
        // Mirrors the corresponding expressions of `energy_into` term
        // by term.
        let mut total = mac_energy * p.padded_macs as f64;
        for cost in arch.per_cycle_costs() {
            let factor = if cost.gateable {
                p.spatial_utilization
            } else {
                1.0
            };
            total += cost.energy_per_cycle * (p.cycles as f64) * factor;
        }
        total += static_power * (period * p.cycles as f64);
        for keeper in p.outer_traffic {
            let level = &arch.levels()[keeper.level];
            total += level.read_energy() * keeper.reads;
            total += level.write_energy() * keeper.writes;
        }
        for &(converter, _tensor, crossings) in p.conversions {
            total += arch.levels()[converter].convert_energy() * crossings;
        }
        total.picojoules()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::reference::ReferenceBreakdown;
    use crate::CostCategory::{Compute, Conversion, PerCycle, Static, Storage};
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::Frequency;
    use lumen_workload::{Dim, DimSet, TensorSet};

    fn toy_arch() -> Architecture {
        toy_arch_with_mac(0.1)
    }

    fn toy_arch_with_mac(mac_pj: f64) -> Architecture {
        ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(100.0))
            .write_energy(Energy::from_picojoules(100.0))
            .done()
            .storage("glb", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(1.0))
            .write_energy(Energy::from_picojoules(1.0))
            .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
            .done()
            .compute(
                "mac",
                Domain::DigitalElectrical,
                Energy::from_picojoules(mac_pj),
            )
            .build()
            .unwrap()
    }

    fn layer() -> Layer {
        Layer::conv2d("conv", 1, 16, 8, 8, 8, 3, 3)
    }

    #[test]
    fn greedy_system_evaluates() {
        let system = System::new(toy_arch(), MappingStrategy::default());
        let eval = system.evaluate_layer(&layer()).unwrap();
        assert!(eval.energy.total() > Energy::ZERO);
        assert_eq!(eval.analysis.macs, layer().macs());
        assert!(eval.energy_per_mac() > Energy::ZERO);
        // Compute energy = padded macs x 0.1 pJ.
        let compute = eval.energy.by_category(Compute);
        assert!((compute.picojoules() - 0.1 * eval.analysis.padded_macs as f64).abs() < 1e-6);
    }

    #[test]
    fn random_search_not_worse_than_greedy() {
        let greedy = System::new(toy_arch(), MappingStrategy::default());
        let searched = System::new(
            toy_arch(),
            MappingStrategy::RandomSearch(SearchConfig {
                iterations: 150,
                seed: 42,
            }),
        );
        let g = greedy.evaluate_layer(&layer()).unwrap().energy.total();
        let s = searched.evaluate_layer(&layer()).unwrap().energy.total();
        assert!(
            s.picojoules() <= g.picojoules() * 1.001,
            "searched {s} vs greedy {g}"
        );
    }

    #[test]
    fn custom_strategy_runs_caller_mapping() {
        let custom = MappingStrategy::custom_keyed(
            1,
            Arc::new(|arch, layer| {
                greedy_mapping(
                    arch,
                    layer,
                    spatial_priority_for(layer),
                    &TemporalPlan::all_at(0),
                )
            }),
        );
        let system = System::new(toy_arch(), custom);
        let eval = system.evaluate_layer(&layer()).unwrap();
        // All temporal loops at DRAM: buffer tiles are tiny; DRAM sees a
        // lot of traffic.
        assert!(eval.energy.by_label("dram") > Energy::ZERO);
    }

    #[test]
    fn per_cycle_costs_scale_with_cycles() {
        let arch = ArchBuilder::new("pc", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .per_cycle("laser", Energy::from_picojoules(2.0), false)
            .compute("mac", Domain::AnalogOptical, Energy::ZERO)
            .build()
            .unwrap();
        let system = System::new(arch, MappingStrategy::Greedy { temporal_level: 0 });
        let eval = system.evaluate_layer(&layer()).unwrap();
        let laser = eval.energy.by_label("laser");
        assert!(
            (laser.picojoules() - 2.0 * eval.analysis.cycles as f64).abs() < 1e-6,
            "laser energy charged per cycle"
        );
    }

    #[test]
    fn reroute_moves_traffic_energy() {
        let system = System::new(toy_arch(), MappingStrategy::default());
        let plain = system.evaluate_layer(&layer()).unwrap();
        let reroute = Reroute {
            entries: vec![(TensorKind::Input, 0, 1)],
        };
        let fused = system.evaluate_layer_rerouted(&layer(), &reroute).unwrap();
        // DRAM input energy disappears; total drops (glb is 100x cheaper).
        assert_eq!(
            fused.energy.by_label_and_tensor("dram", TensorKind::Input),
            Energy::ZERO
        );
        assert!(fused.energy.total() < plain.energy.total());
        // Weights still hit DRAM.
        assert!(fused.energy.by_label_and_tensor("dram", TensorKind::Weight) > Energy::ZERO);
    }

    #[test]
    fn kv_append_charges_cache_home_writes() {
        let system = System::new(toy_arch(), MappingStrategy::default());
        // Same nest, same stationarity — only the growing-cache
        // annotation differs, so the energy difference is exactly the
        // append write: 32 elements x 100 pJ at dram.
        let plain = Layer::matmul("kv", 1, 64, 32, 1).with_per_sample_stationary();
        let resident = Layer::matmul("kv", 1, 64, 32, 1).with_kv_cache_residency(32);
        let a = system.evaluate_layer(&plain).unwrap();
        let b = system.evaluate_layer(&resident).unwrap();
        let diff = b.energy.total().picojoules() - a.energy.total().picojoules();
        assert!((diff - 32.0 * 100.0).abs() < 1e-6, "diff {diff}");
        let dram_w = |e: &LayerEvaluation| {
            e.energy
                .by_label_and_tensor("dram", TensorKind::Weight)
                .picojoules()
        };
        assert!((dram_w(&b) - dram_w(&a) - 3200.0).abs() < 1e-6);
        // Cycles and mapping are untouched — the append is pure energy.
        assert_eq!(a.analysis.cycles, b.analysis.cycles);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn kv_append_scales_with_batch_replicas() {
        let system = System::new(toy_arch(), MappingStrategy::default());
        let one = Layer::matmul("kv", 1, 64, 32, 1).with_kv_cache_residency(32);
        let four = one.clone().with_batch(4);
        let base = system
            .evaluate_layer(&Layer::matmul("kv", 1, 64, 32, 1).with_per_sample_stationary())
            .unwrap();
        let e1 = system.evaluate_layer(&one).unwrap();
        let e4 = system.evaluate_layer(&four).unwrap();
        let append1 = e1.energy.total().picojoules() - base.energy.total().picojoules();
        // Four replicated caches append four tokens' slices per step.
        let base4 = system
            .evaluate_layer(
                &Layer::matmul("kv", 1, 64, 32, 1)
                    .with_per_sample_stationary()
                    .with_batch(4),
            )
            .unwrap();
        let append4 = e4.energy.total().picojoules() - base4.energy.total().picojoules();
        assert!((append4 - 4.0 * append1).abs() < 1e-6);
    }

    /// Two per-cycle costs sharing the label `laser` (the merge path), a
    /// level named like a per-cycle cost, a converter, and zero-energy
    /// writes, compute and static power (the zero-skip path).
    fn merge_arch() -> Architecture {
        use lumen_units::Power;
        ArchBuilder::new("merge", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(64.0))
            .done()
            .storage("laser", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(0.3))
            .write_energy(Energy::from_picojoules(0.7))
            .static_power(Power::from_milliwatts(2.0))
            .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
            .done()
            .converter("dac", Domain::AnalogElectrical, TensorSet::all())
            .convert_energy(Energy::from_picojoules(0.9))
            .done()
            .per_cycle("laser", Energy::from_picojoules(3.0), false)
            .per_cycle("tuning", Energy::ZERO, true)
            .per_cycle("laser", Energy::from_picojoules(1.1), true)
            .compute("mac", Domain::AnalogOptical, Energy::ZERO)
            .build()
            .unwrap()
    }

    /// The breakdown of `analysis` on the item-list reference, by a
    /// transcription of `energy_into`'s adds with their labels.
    fn reference_energy(
        arch: &Architecture,
        analysis: &LayerAnalysis,
        reroute: &Reroute,
    ) -> ReferenceBreakdown {
        let mut reference = ReferenceBreakdown::default();
        for (x, level) in arch.levels().iter().enumerate() {
            let traffic = analysis.level(x);
            if level.kind().is_storage() {
                for t in TensorKind::ALL {
                    let target = match reroute.entries.iter().find(|e| e.0 == t && e.1 == x) {
                        Some(&(_, _, to)) => &arch.levels()[to],
                        None => level,
                    };
                    let (read, write) = (target.read_energy(), target.write_energy());
                    let label = target.name();
                    reference.add(label, Storage, Some(t), read * traffic.reads[t]);
                    reference.add(label, Storage, Some(t), write * traffic.writes[t]);
                }
            } else if level.kind().is_converter() {
                for t in TensorKind::ALL {
                    let energy = level.convert_energy() * traffic.conversions[t];
                    reference.add(level.name(), Conversion, Some(t), energy);
                }
            }
        }
        let compute = arch.mac_energy() * analysis.padded_macs as f64;
        reference.add(arch.compute_level().name(), Compute, None, compute);
        for cost in arch.per_cycle_costs() {
            let factor = if cost.gateable {
                analysis.spatial_utilization
            } else {
                1.0
            };
            let energy = cost.energy_per_cycle * (analysis.cycles as f64) * factor;
            reference.add(&cost.name, PerCycle, None, energy);
        }
        let runtime = arch.clock().period() * analysis.cycles as f64;
        reference.add("static", Static, None, arch.total_static_power() * runtime);
        reference
    }

    #[test]
    fn search_cost_total_is_the_breakdown_total_bit_for_bit() {
        // The fused input traffic lands on glb, which has its own.
        let fused = Reroute {
            entries: vec![(TensorKind::Input, 0, 1)],
        };
        for arch in [toy_arch(), merge_arch()] {
            let system = System::new(arch, MappingStrategy::default());
            let arch = system.arch();
            let mut energy = system.energy_breakdown();
            let mut checked = 0;
            let cfg = SearchConfig {
                iterations: 150,
                seed: 5,
            };
            lumen_mapper::search::random_search_baseline(arch, &layer(), cfg, |analysis| {
                for reroute in [&Reroute::default(), &fused] {
                    // Refilled, as the search objective refills it.
                    energy.clear();
                    system.energy_into(analysis, reroute, &mut energy);
                    reference_energy(arch, analysis, reroute).assert_matches(&energy);
                    if arch.name() == "merge" {
                        // Both lasers merged into one per-cycle item, and
                        // nothing zero was recorded.
                        let lasers = energy
                            .items()
                            .filter(|i| i.label == "laser" && i.category == PerCycle)
                            .count();
                        assert_eq!(lasers, 1);
                        assert!(energy.items().all(|i| i.energy != Energy::ZERO));
                        assert_eq!(energy.by_category(Compute), Energy::ZERO);
                    }
                }
                checked += 1;
                0.0
            })
            .unwrap();
            assert!(checked > 0);
        }
    }

    #[test]
    fn searched_evaluation_reuses_a_bit_identical_analysis() {
        // The winner's analysis comes from the search; an explicit
        // evaluation of the same mapping re-analyzes it from scratch.
        for arch in [toy_arch(), merge_arch()] {
            let system = System::new(
                arch,
                MappingStrategy::RandomSearch(SearchConfig {
                    iterations: 120,
                    seed: 17,
                }),
            );
            let searched = system.evaluate_layer(&layer()).unwrap();
            let explicit = system
                .evaluate_layer_with_mapping(&layer(), searched.mapping.clone())
                .unwrap();
            assert_eq!(searched.analysis, explicit.analysis);
            assert_eq!(searched.energy, explicit.energy);
        }
    }

    #[test]
    fn a_negative_energy_turns_pruning_off() {
        // A negative MAC energy is representable (only linted). It would
        // make the bound negative, where the safety margin raises it.
        let cfg = SearchConfig {
            iterations: 150,
            seed: 42,
        };
        let system = |arch| System::new(arch, MappingStrategy::default());
        let positive = system(toy_arch()).search_min_energy(&layer(), cfg).unwrap();
        assert!(positive.pruned > 0, "the bound prunes on the positive twin");
        let negative = toy_arch_with_mac(-0.1);
        assert!(energy_lower_bound(&negative).is_none());
        let searched = system(negative.clone())
            .search_min_energy(&layer(), cfg)
            .unwrap();
        assert_eq!(searched.pruned, 0);
        assert_eq!(
            searched.mapping,
            random_search(&negative, &layer(), cfg, None, |a| {
                reference_energy(&negative, a, &Reroute::default())
                    .total()
                    .picojoules()
            })
            .unwrap()
            .mapping
        );
    }

    /// What a property-test buffer may keep: without outputs, DRAM is
    /// the output's only keeper; without a read tensor, DRAM serves it
    /// straight to compute.
    const KEEPS: [&[TensorKind]; 5] = [
        &TensorKind::ALL,
        &[TensorKind::Weight, TensorKind::Output],
        &[TensorKind::Input, TensorKind::Output],
        &[TensorKind::Weight, TensorKind::Input],
        &[TensorKind::Input],
    ];

    /// Spatial dim sets a property-test fan-out may wire.
    const FANOUT_DIMS: [&[Dim]; 5] = [
        &[Dim::M, Dim::C],
        &[Dim::M, Dim::P],
        &[Dim::C, Dim::S],
        &[Dim::M, Dim::Q],
        &[Dim::C, Dim::R],
    ];

    /// DRAM, an optional converter above the buffer (inputs and outputs),
    /// a buffer, a DAC (inputs, optionally weights) and an ADC (outputs)
    /// feeding compute, each with its own fan-out.
    #[derive(Debug, Clone)]
    struct ToyArch {
        /// `KEEPS` index of the buffer.
        buf_keeps: usize,
        /// Whether a converter sits between DRAM and the buffer.
        upper_converter: bool,
        dac_converts_weights: bool,
        /// `(lanes, FANOUT_DIMS index)` of the buffer, the DAC and the
        /// ADC.
        fanouts: [(usize, usize); 3],
        /// The buffer's capacity as `2^bits` bits; 0 leaves it unbounded.
        capacity_log2: usize,
        laser: bool,
    }

    impl ToyArch {
        fn build(&self) -> Architecture {
            use lumen_units::Power;
            let fanout = |(lanes, dims): (usize, usize)| {
                Fanout::new(lanes)
                    .allow(DimSet::from_dims(FANOUT_DIMS[dims]))
                    .require_unit_stride(DimSet::from_dims(&[Dim::Q, Dim::S]))
            };
            let mut b = ArchBuilder::new("prop", Frequency::from_gigahertz(1.0))
                .storage("dram", Domain::DigitalElectrical, TensorSet::all())
                .read_energy(Energy::from_picojoules(100.0))
                .write_energy(Energy::from_picojoules(120.0))
                .done();
            if self.upper_converter {
                b = b
                    .converter(
                        "io",
                        Domain::DigitalElectrical,
                        TensorSet::from_kinds(&[TensorKind::Input, TensorKind::Output]),
                    )
                    .convert_energy(Energy::from_picojoules(0.7))
                    .done();
            }
            let mut buf = b
                .storage(
                    "buf",
                    Domain::DigitalElectrical,
                    TensorSet::from_kinds(KEEPS[self.buf_keeps]),
                )
                .read_energy(Energy::from_picojoules(2.0))
                .write_energy(Energy::from_picojoules(3.0))
                .static_power(Power::from_milliwatts(1.5))
                .fanout(fanout(self.fanouts[0]));
            if self.capacity_log2 > 0 {
                buf = buf.capacity_bits(1 << self.capacity_log2);
            }
            let dac_keeps = if self.dac_converts_weights {
                TensorSet::from_kinds(&[TensorKind::Input, TensorKind::Weight])
            } else {
                TensorSet::only(TensorKind::Input)
            };
            let mut b = buf
                .done()
                .converter("dac", Domain::AnalogElectrical, dac_keeps)
                .convert_energy(Energy::from_picojoules(0.5))
                .fanout(fanout(self.fanouts[1]))
                .done()
                .converter(
                    "adc",
                    Domain::DigitalElectrical,
                    TensorSet::only(TensorKind::Output),
                )
                .convert_energy(Energy::from_picojoules(1.3))
                .fanout(fanout(self.fanouts[2]))
                .done();
            if self.laser {
                b = b.per_cycle("laser", Energy::from_picojoules(7.0), true);
            }
            b.compute(
                "mac",
                Domain::AnalogElectrical,
                Energy::from_picojoules(0.1),
            )
            .build()
            .unwrap()
        }
    }

    fn toy_arch_strategy() -> impl proptest::strategy::Strategy<Value = ToyArch> {
        use proptest::prelude::*;
        let fanout = || ((0usize..4).prop_map(|k| 1 << k), 0..FANOUT_DIMS.len());
        (
            (0..KEEPS.len(), 0usize..2, 0usize..2, 0usize..2),
            (fanout(), fanout(), fanout()),
            (0usize..4).prop_map(|k| [0, 8, 10, 13][k]),
        )
            .prop_map(
                |((buf_keeps, upper, weights, laser), (buf, dac, adc), capacity_log2)| ToyArch {
                    buf_keeps,
                    upper_converter: upper == 1,
                    dac_converts_weights: weights == 1,
                    fanouts: [buf, dac, adc],
                    capacity_log2,
                    laser: laser == 1,
                },
            )
    }

    fn toy_layer_strategy() -> impl proptest::strategy::Strategy<Value = Layer> {
        use proptest::prelude::*;
        (
            0usize..4,
            (1usize..=2, 1usize..=12, 1usize..=12),
            (1usize..=8, 1usize..=8, 1usize..=3, 1usize..=3),
        )
            .prop_map(|(kind, (n, m, c), (p, q, r, s))| match kind {
                0 => Layer::conv2d("conv", n, m, c, p, q, r, s),
                1 => Layer::matmul("matmul", n, m, c, p),
                2 => Layer::conv2d("grouped", n, 2 * m, 2 * c, p, q, r, s).with_groups(2),
                _ => Layer::conv2d("strided", n, m, c, p, q, r, s).with_stride(2, 2),
            })
    }

    /// One stage's preview of a candidate, as the bound saw it.
    struct Previewed {
        bound: f64,
        traffic: Vec<lumen_mapper::KeeperTraffic>,
        conversions: Vec<(usize, TensorKind, f64)>,
    }

    /// Each kept tensor's outermost keeper, with its complete traffic
    /// read off the analysis.
    fn expected_traffic(
        arch: &Architecture,
        a: &LayerAnalysis,
    ) -> Vec<(usize, TensorKind, u64, u64)> {
        TensorKind::ALL
            .into_iter()
            .filter_map(|t| {
                let k = arch
                    .levels()
                    .iter()
                    .position(|l| l.kind().is_storage() && l.keep().contains(t))?;
                Some((
                    k,
                    t,
                    a.level(k).reads[t].to_bits(),
                    a.level(k).writes[t].to_bits(),
                ))
            })
            .collect()
    }

    /// The crossings of every converter whose next keeper is compute,
    /// read off the analysis.
    fn expected_conversions(
        arch: &Architecture,
        a: &LayerAnalysis,
    ) -> Vec<(usize, TensorKind, u64)> {
        let levels = arch.levels();
        (0..levels.len())
            .filter(|&c| levels[c].kind().is_converter())
            .flat_map(|c| {
                levels[c]
                    .keep()
                    .iter()
                    .filter(move |&t| {
                        !levels[c + 1..]
                            .iter()
                            .any(|l| l.kind().is_storage() && l.keep().contains(t))
                    })
                    .map(move |t| (c, t, a.level(c).conversions[t].to_bits()))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Every legal candidate a search draws, pruned or not: both
        /// stages' bounds stay at or below the objective, and each term
        /// the preview adds equals the analysis's entry bit for bit.
        #[test]
        fn energy_bound_is_sound_and_exact_on_random_candidates(
            toy in toy_arch_strategy(),
            layer in toy_layer_strategy(),
            search in (40usize..=120, 0usize..1000),
        ) {
            use std::cell::RefCell;
            let system = System::new(toy.build(), MappingStrategy::default());
            let arch = system.arch();
            let what = format!("{toy:?}/{layer:?}/{search:?}");
            let lb = energy_lower_bound(arch).unwrap();
            let stages: RefCell<(Option<Previewed>, Option<Previewed>)> = RefCell::default();
            // Records each stage's preview and bound, and prunes nothing,
            // so every legal candidate reaches the objective.
            let record = |p: &Preview<'_>| {
                let previewed = Previewed {
                    bound: lb(p),
                    traffic: p.outer_traffic.to_vec(),
                    conversions: p.conversions.to_vec(),
                };
                let mut stages = stages.borrow_mut();
                if p.conversions.is_empty() {
                    *stages = (Some(previewed), None);
                } else {
                    stages.1 = Some(previewed);
                }
                f64::NEG_INFINITY
            };
            let mut energy = system.energy_breakdown();
            let mut checked = 0usize;
            let cfg = SearchConfig { iterations: search.0, seed: search.1 as u64 };
            let objective = |a: &LayerAnalysis| {
                energy.clear();
                system.energy_into(a, &Reroute::default(), &mut energy);
                let cost = energy.total().picojoules();
                let (first, second) = std::mem::take(&mut *stages.borrow_mut());
                let first = first.expect("the first stage previewed the candidate");
                let traffic = first
                    .traffic
                    .iter()
                    .map(|k| (k.level, k.tensor, k.reads.to_bits(), k.writes.to_bits()))
                    .collect::<Vec<_>>();
                assert_eq!(traffic, expected_traffic(arch, a), "{what}: outermost keepers");
                assert!(first.conversions.is_empty(), "{what}");
                assert!(first.bound * (1.0 - 1e-9) <= cost, "{what}: {} > {cost}", first.bound);
                let conversions = expected_conversions(arch, a);
                match second {
                    Some(second) => {
                        let seen = second
                            .conversions
                            .iter()
                            .map(|&(c, t, x)| (c, t, x.to_bits()))
                            .collect::<Vec<_>>();
                        assert_eq!(seen, conversions, "{what}: crossings");
                        assert!(
                            second.bound * (1.0 - 1e-9) <= cost,
                            "{what}: {} > {cost}",
                            second.bound
                        );
                        assert!(second.bound >= first.bound, "{what}");
                    }
                    None => assert!(conversions.is_empty(), "{what}: no second stage"),
                }
                checked += 1;
                cost
            };
            let found = random_search(arch, &layer, cfg, Some(&record), objective);
            // With no bounded buffer every candidate is legal.
            assert!(toy.capacity_log2 > 0 || found.is_some(), "{what}: no mapping");
            assert_eq!(checked, found.map_or(0, |r| r.evaluated), "{what}");
        }
    }

    #[test]
    fn no_mapping_error_for_impossible_layer() {
        // Capacity-bounded buffer too small for even one element tile of
        // every tensor after greedy mapping -> expect NoMapping.
        let arch = ArchBuilder::new("tiny", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .capacity_bits(8)
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let system = System::new(arch, MappingStrategy::Greedy { temporal_level: 1 });
        let err = system.evaluate_layer(&layer()).unwrap_err();
        assert!(matches!(err, SystemError::NoMapping { .. }));
    }
}
