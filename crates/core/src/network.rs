//! Whole-network evaluation with batching and fused-layer dataflows.

use crate::evaluator::Reroute;
use crate::{EnergyBreakdown, LayerEvaluation, System, SystemError};
use lumen_arch::Architecture;
use lumen_units::Energy;
use lumen_workload::{Network, TensorKind};
use std::borrow::Cow;

/// Fused-layer dataflow configuration: inter-layer activations bypass the
/// backing store and live in an on-chip buffer instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionConfig {
    /// Name of the backing-store level whose activation traffic is
    /// redirected (typically `"dram"`).
    pub backing_store: String,
    /// Name of the on-chip buffer that absorbs the traffic (typically the
    /// global buffer).
    pub buffer: String,
}

/// Network-level evaluation options — the paper's Fig. 4 levers.
#[derive(Debug, Clone, Default)]
pub struct NetworkOptions {
    /// Inference batch size (1 = no batching). Batching amortizes weight
    /// traffic: weights are fetched once per batch instead of once per
    /// inference, at a latency cost.
    pub batch: usize,
    /// Fused-layer dataflow, if enabled.
    pub fusion: Option<FusionConfig>,
}

impl NetworkOptions {
    /// Batch-1, unfused evaluation.
    pub fn baseline() -> NetworkOptions {
        NetworkOptions {
            batch: 1,
            fusion: None,
        }
    }

    /// Sets the batch size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> NetworkOptions {
        assert!(batch > 0, "batch must be nonzero");
        self.batch = batch;
        self
    }

    /// `network` at these options' batch: rebatched when the batch
    /// exceeds 1, borrowed as is otherwise.
    pub(crate) fn batched<'n>(&self, network: &'n Network) -> Cow<'n, Network> {
        if self.batch > 1 {
            Cow::Owned(network.with_batch(self.batch))
        } else {
            Cow::Borrowed(network)
        }
    }

    /// Enables layer fusion between the named levels (builder style).
    #[must_use]
    pub fn with_fusion(mut self, backing_store: &str, buffer: &str) -> NetworkOptions {
        self.fusion = Some(FusionConfig {
            backing_store: backing_store.to_string(),
            buffer: buffer.to_string(),
        });
        self
    }
}

/// The result of evaluating a network on a system.
#[derive(Debug, Clone)]
pub struct NetworkEvaluation {
    /// The network's name.
    pub network_name: String,
    /// Per-layer evaluations in execution order (batched shapes).
    pub per_layer: Vec<LayerEvaluation>,
    /// Itemized energy for one *inference* (batch effects divided out).
    pub energy: EnergyBreakdown,
    /// Total cycles for one inference.
    pub cycles: f64,
    /// Total true MACs for one inference.
    pub macs: u64,
    /// The batch size used.
    pub batch: usize,
}

/// The traffic reroute the fused-layer dataflow applies to the layer at
/// `index` of a network whose last layer sits at `last`: inputs of all
/// but the first layer and outputs of all but the last move from the
/// backing store to the fusion buffer. Returns the empty reroute when
/// fusion is off or the named levels do not exist.
///
/// Shared by the sequential [`System::evaluate_network`] path and the
/// content-addressed [`crate::EvalSession`] so both charge fused traffic
/// identically.
pub(crate) fn fusion_reroute(
    arch: &Architecture,
    fusion: Option<&FusionConfig>,
    index: usize,
    last: usize,
) -> Reroute {
    let Some(fusion) = fusion else {
        return Reroute::default();
    };
    let Some(from) = arch.level_index(&fusion.backing_store) else {
        return Reroute::default();
    };
    let Some(to) = arch.level_index(&fusion.buffer) else {
        return Reroute::default();
    };
    let mut entries = Vec::new();
    if index > 0 {
        entries.push((TensorKind::Input, from, to));
    }
    if index < last {
        entries.push((TensorKind::Output, from, to));
    }
    Reroute { entries }
}

/// The fusion position class of the layer at `index` of a network whose
/// last layer sits at `last`, in `0..4`: [`fusion_reroute`] reads a
/// position only through whether it opens and whether it closes the
/// network, so positions of one class share one reroute. Always 0
/// without fusion.
pub(crate) fn fusion_class(fusion: Option<&FusionConfig>, index: usize, last: usize) -> usize {
    match fusion {
        Some(_) => usize::from(index > 0) | usize::from(index < last) << 1,
        None => 0,
    }
}

impl NetworkEvaluation {
    /// Per-inference energy per MAC.
    pub fn energy_per_mac(&self) -> Energy {
        self.energy.total() / self.macs as f64
    }

    /// MAC-weighted average compute utilization.
    pub fn average_utilization(&self) -> f64 {
        let total: f64 = self.per_layer.iter().map(|l| l.analysis.macs as f64).sum();
        self.per_layer
            .iter()
            .map(|l| l.analysis.utilization * l.analysis.macs as f64 / total)
            .sum()
    }

    /// Whole-network throughput in MACs per cycle.
    pub fn throughput_macs_per_cycle(&self) -> f64 {
        self.macs as f64 / self.cycles
    }
}

impl System {
    /// Evaluates every layer of `network` under `options` and aggregates
    /// per-inference totals.
    ///
    /// Batching sets every layer's batch dimension and divides energy and
    /// cycles back to per-inference figures; weights are fetched once per
    /// batch, so their DRAM share shrinks by the batch factor. Fusion
    /// reroutes inter-layer activations (inputs of all but the first
    /// layer, outputs of all but the last) from the backing store to the
    /// named buffer.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] if any layer cannot be mapped.
    pub fn evaluate_network(
        &self,
        network: &Network,
        options: &NetworkOptions,
    ) -> Result<NetworkEvaluation, SystemError> {
        let batch = options.batch.max(1);
        let batched = options.batched(network);

        let last = batched.layers().len().saturating_sub(1);
        let mut per_layer = Vec::with_capacity(batched.layers().len());
        let mut energy = self.energy_breakdown();
        let mut cycles = 0u64;
        for (i, layer) in batched.layers().iter().enumerate() {
            let reroute = fusion_reroute(self.arch(), options.fusion.as_ref(), i, last);
            let eval = self.evaluate_layer_rerouted(layer, &reroute)?;
            cycles += eval.analysis.cycles;
            energy.merge(&eval.energy);
            per_layer.push(eval);
        }

        let scale = 1.0 / batch as f64;
        Ok(NetworkEvaluation {
            network_name: batched.name().to_string(),
            per_layer,
            energy: energy.scaled(scale),
            cycles: cycles as f64 * scale,
            macs: network.total_macs(),
            batch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingStrategy;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::Frequency;
    use lumen_workload::{Dim, DimSet, Layer, TensorSet};

    fn toy_system() -> System {
        let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
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
                Energy::from_picojoules(0.05),
            )
            .build()
            .unwrap();
        System::new(arch, MappingStrategy::default())
    }

    fn tiny_net() -> Network {
        Network::new("tiny")
            .push(Layer::conv2d("a", 1, 8, 3, 16, 16, 3, 3))
            .push(Layer::conv2d("b", 1, 16, 8, 8, 8, 3, 3))
            .push(Layer::fully_connected("fc", 1, 10, 16 * 8 * 8))
    }

    #[test]
    fn network_totals_sum_layers() {
        let system = toy_system();
        let eval = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline())
            .unwrap();
        assert_eq!(eval.per_layer.len(), 3);
        assert_eq!(eval.macs, tiny_net().total_macs());
        let layer_sum: f64 = eval
            .per_layer
            .iter()
            .map(|l| l.energy.total().picojoules())
            .sum();
        assert!((eval.energy.total().picojoules() - layer_sum).abs() < 1e-6);
        assert!(eval.average_utilization() > 0.0 && eval.average_utilization() <= 1.0);
    }

    #[test]
    fn batching_amortizes_weight_dram_energy() {
        // Amortization needs a weight-stationary-across-batch dataflow:
        // all weight-relevant loops live below the global buffer (at the
        // compute level), so the resident weight tile survives the whole
        // batch loop and DRAM weight fetches are independent of N.
        use lumen_mapper::search::TemporalPlan;
        use lumen_workload::Dim;
        let plan = TemporalPlan {
            assignments: vec![(2, vec![Dim::M, Dim::C, Dim::R, Dim::S])],
            default_level: 1,
        };
        let system = System::new(
            toy_system().arch().clone(),
            MappingStrategy::Planned {
                priority: lumen_mapper::search::DEFAULT_SPATIAL_PRIORITY.to_vec(),
                plan,
            },
        );
        let base = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline())
            .unwrap();
        let batched = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline().with_batch(8))
            .unwrap();
        let w = TensorKind::Weight;
        let base_w = base.energy.by_label_and_tensor("dram", w);
        let batched_w = batched.energy.by_label_and_tensor("dram", w);
        // Weights fetched once per batch -> ~1/8 the per-inference energy.
        assert!(
            batched_w.picojoules() < base_w.picojoules() * 0.2,
            "batched {batched_w} vs base {base_w}"
        );
        // MACs per inference unchanged.
        assert_eq!(batched.macs, base.macs);
    }

    #[test]
    fn fusion_removes_interlayer_dram_activations() {
        let system = toy_system();
        let base = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline())
            .unwrap();
        let fused = system
            .evaluate_network(
                &tiny_net(),
                &NetworkOptions::baseline().with_fusion("dram", "glb"),
            )
            .unwrap();
        // The first layer's input and last layer's output still use DRAM,
        // but inter-layer activations do not; DRAM total shrinks.
        assert!(fused.energy.by_label("dram") < base.energy.by_label("dram"));
        assert!(fused.energy.total() < base.energy.total());
        // Output of the last layer still reaches DRAM.
        assert!(fused.energy.by_label_and_tensor("dram", TensorKind::Output) > Energy::ZERO);
    }

    #[test]
    fn fusion_and_batching_compose() {
        let system = toy_system();
        let base = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline())
            .unwrap();
        let both = system
            .evaluate_network(
                &tiny_net(),
                &NetworkOptions::baseline()
                    .with_batch(8)
                    .with_fusion("dram", "glb"),
            )
            .unwrap();
        assert!(both.energy.total() < base.energy.total());
    }

    #[test]
    fn transformer_block_totals_sum_layers() {
        use lumen_workload::{Attention, Network};
        let system = toy_system();
        let mut net = Network::new("mini-attn");
        for layer in Attention::new("attn", 16, 64, 4).lower() {
            net = net.push(layer);
        }
        let eval = system
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap();
        assert_eq!(eval.per_layer.len(), 6);
        assert_eq!(eval.macs, net.total_macs());
        for layer_eval in &eval.per_layer {
            assert!(layer_eval.energy.total().is_finite());
            assert!(layer_eval.analysis.utilization > 0.0);
        }
        let layer_macs: u64 = eval.per_layer.iter().map(|l| l.analysis.macs).sum();
        assert_eq!(layer_macs, net.total_macs());
    }

    #[test]
    fn throughput_is_macs_over_cycles() {
        let system = toy_system();
        let eval = system
            .evaluate_network(&tiny_net(), &NetworkOptions::baseline())
            .unwrap();
        let t = eval.throughput_macs_per_cycle();
        assert!(t > 0.0 && t <= system.arch().peak_parallelism() as f64);
    }
}
