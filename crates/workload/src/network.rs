//! Whole-network workloads: ordered layers plus inter-layer linkage.

use crate::{Layer, LayerKind, TensorKind};
use std::fmt;

/// An ordered sequence of layers forming one inference workload.
///
/// The layer order is the execution (and fusion) order: layer `i+1` consumes
/// layer `i`'s output activations. Branchy networks (e.g. ResNet shortcuts)
/// are linearized; for energy modeling this is the standard approximation
/// used by Timeloop-family tools, which evaluate layers independently.
///
/// # Examples
///
/// ```
/// use lumen_workload::{Layer, Network};
///
/// let net = Network::new("tiny")
///     .push(Layer::conv2d("conv1", 1, 16, 3, 32, 32, 3, 3))
///     .push(Layer::fully_connected("fc", 1, 10, 16 * 32 * 32));
/// assert_eq!(net.layers().len(), 2);
/// assert!(net.total_macs() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: Layer) -> Network {
        self.layers.push(layer);
        self
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Returns a copy of this network with every layer's batch set to `n`.
    #[must_use]
    pub fn with_batch(&self, n: usize) -> Network {
        Network {
            name: self.name.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| l.clone().with_batch(n))
                .collect(),
        }
    }

    /// Total MACs over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total MACs over layers of one operator class.
    pub fn macs_of_kind(&self, kind: LayerKind) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind() == kind)
            .map(Layer::macs)
            .sum()
    }

    /// Fraction of MACs spent in GEMM-shaped layers (matmul +
    /// fully-connected) — near 0 for the paper's CNNs, near 1 for
    /// transformers. Returns 0 for an empty network.
    pub fn gemm_mac_fraction(&self) -> f64 {
        let total = self.total_macs();
        if total == 0 {
            return 0.0;
        }
        let gemm =
            self.macs_of_kind(LayerKind::Matmul) + self.macs_of_kind(LayerKind::FullyConnected);
        gemm as f64 / total as f64
    }

    /// Total weight elements over all layers (the model size).
    pub fn total_weights(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.tensor_elements(TensorKind::Weight))
            .sum()
    }

    /// The largest single inter-layer activation footprint, in elements:
    /// `max_i (outputs of layer i + inputs of layer i+1's next stage)`.
    ///
    /// This bounds the global-buffer capacity needed for a fused-layer
    /// dataflow in which activations never leave the chip. We use the
    /// conservative `out(i) + out(i+1)` double-buffering rule.
    pub fn max_fused_activation_elements(&self) -> u64 {
        let outs: Vec<u64> = self
            .layers
            .iter()
            .map(|l| l.tensor_elements(TensorKind::Output))
            .collect();
        outs.windows(2)
            .map(|w| w[0] + w[1])
            .chain(outs.first().copied())
            .max()
            .unwrap_or(0)
    }

    /// Summary statistics used by reports and experiments.
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            layers: self.layers.len(),
            total_macs: self.total_macs(),
            total_weights: self.total_weights(),
            total_activations: self
                .layers
                .iter()
                .map(|l| l.tensor_elements(TensorKind::Output))
                .sum(),
        }
    }
}

/// Where a lowering puts its layers. Each layer arrives unnamed, with
/// the routine that builds its name, so a sink that keeps only some of
/// the layers (a shape interner, say) formats only their names.
pub trait LayerSink {
    /// Takes the next layer in execution order; `name` builds its name.
    fn emit(&mut self, layer: Layer, name: impl FnOnce() -> String);
}

/// The naming sink: appends every layer under its name.
impl LayerSink for Network {
    fn emit(&mut self, layer: Layer, name: impl FnOnce() -> String) {
        self.layers.push(layer.with_name(name()));
    }
}

/// Aggregate size statistics of a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of layers.
    pub layers: usize,
    /// Total multiply-accumulates per inference.
    pub total_macs: u64,
    /// Total weight elements (model size).
    pub total_weights: u64,
    /// Total output-activation elements across layers.
    pub total_activations: u64,
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layers, {:.2} GMACs, {:.2} M weights, {:.2} M activations",
            self.layers,
            self.total_macs as f64 / 1e9,
            self.total_weights as f64 / 1e6,
            self.total_activations as f64 / 1e6
        )
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "network {} ({})", self.name, self.stats())?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    fn tiny() -> Network {
        Network::new("tiny")
            .push(Layer::conv2d("a", 1, 8, 3, 16, 16, 3, 3))
            .push(Layer::conv2d("b", 1, 16, 8, 8, 8, 3, 3).with_stride(2, 2))
            .push(Layer::fully_connected("fc", 1, 10, 16 * 8 * 8))
    }

    #[test]
    fn totals_add_up() {
        let net = tiny();
        let by_hand: u64 = net.layers().iter().map(Layer::macs).sum();
        assert_eq!(net.total_macs(), by_hand);
        assert_eq!(net.layers().len(), 3);
    }

    #[test]
    fn with_batch_scales_macs() {
        let net = tiny();
        let batched = net.with_batch(4);
        assert_eq!(batched.total_macs(), 4 * net.total_macs());
        // Weights unchanged by batching.
        assert_eq!(batched.total_weights(), net.total_weights());
    }

    #[test]
    fn fused_footprint_is_max_of_adjacent_pairs() {
        let net = tiny();
        let outs: Vec<u64> = net
            .layers()
            .iter()
            .map(|l| l.tensor_elements(TensorKind::Output))
            .collect();
        let expected = (outs[0] + outs[1]).max(outs[1] + outs[2]).max(outs[0]);
        assert_eq!(net.max_fused_activation_elements(), expected);
    }

    #[test]
    fn empty_network_is_harmless() {
        let net = Network::new("empty");
        assert_eq!(net.total_macs(), 0);
        assert_eq!(net.max_fused_activation_elements(), 0);
        assert_eq!(net.gemm_mac_fraction(), 0.0);
    }

    #[test]
    fn kind_totals_partition_macs() {
        let net = tiny().push(Layer::matmul("mm", 1, 8, 8, 4));
        let by_kind: u64 = [
            LayerKind::Conv2d,
            LayerKind::FullyConnected,
            LayerKind::DepthwiseConv2d,
            LayerKind::Matmul,
        ]
        .iter()
        .map(|&k| net.macs_of_kind(k))
        .sum();
        assert_eq!(by_kind, net.total_macs());
        let frac = net.gemm_mac_fraction();
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn stats_display() {
        let shown = format!("{}", tiny().stats());
        assert!(shown.contains("3 layers"));
    }
}
