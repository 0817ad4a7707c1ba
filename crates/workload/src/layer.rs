//! Layer shapes: convolutions, fully-connected layers and friends.

use crate::{Dim, Shape, TensorKind};
use std::fmt;

/// The operator class of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard 2-D convolution (possibly grouped / strided / dilated).
    Conv2d,
    /// Fully-connected (dense) layer: a conv with `P=Q=R=S=1`.
    FullyConnected,
    /// Depthwise convolution: `groups == input channels`, one filter per
    /// channel.
    DepthwiseConv2d,
    /// Batched matrix multiply `O[n,p,m] = Σ_c A[n,p,c] · B[c,m]`:
    /// a conv with `Q=R=S=1` whose `P` dimension carries the row
    /// (sequence) extent. Transformer attention and MLP blocks lower to
    /// this kind, with heads folded onto [`Layer::groups`].
    Matmul,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv2d => "conv2d",
            LayerKind::FullyConnected => "fc",
            LayerKind::DepthwiseConv2d => "dwconv2d",
            LayerKind::Matmul => "matmul",
        };
        write!(f, "{s}")
    }
}

/// Errors produced when constructing or validating a [`Layer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerError {
    /// A dimension bound, stride, dilation or group count was zero.
    ZeroParameter(&'static str),
    /// Channel counts are not divisible by the group count.
    BadGrouping {
        /// Output channels of the full layer.
        m: usize,
        /// Input channels of the full layer.
        c: usize,
        /// Requested group count.
        groups: usize,
    },
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerError::ZeroParameter(what) => {
                write!(f, "layer parameter `{what}` must be nonzero")
            }
            LayerError::BadGrouping { m, c, groups } => write!(
                f,
                "channels (M={m}, C={c}) are not divisible by groups={groups}"
            ),
        }
    }
}

impl std::error::Error for LayerError {}

/// One DNN layer, described as a (possibly grouped) 7-D loop nest.
///
/// The stored [`Shape`] is *per group*: `M` and `C` are the per-group channel
/// counts and the full layer repeats the nest [`Layer::groups`] times. This
/// matches how grouped layers execute: groups share no data, so a mapper
/// schedules one group at a time.
///
/// # Examples
///
/// ```
/// use lumen_workload::{Dim, Layer};
///
/// // AlexNet conv2: 5x5, 256 output channels in 2 groups of 48->128.
/// let conv2 = Layer::conv2d("conv2", 1, 256, 96, 27, 27, 5, 5).with_groups(2);
/// assert_eq!(conv2.shape()[Dim::M], 128);
/// assert_eq!(conv2.shape()[Dim::C], 48);
/// assert_eq!(conv2.macs(), 2 * 128 * 48 * 27 * 27 * 25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    shape: Shape,
    stride: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
    /// Batch-sample replicas of the whole nest, for layers whose
    /// stationary operand is a per-sample activation (attention K/V).
    /// Always 1 for ordinary layers, whose batch lives in `N`.
    batch_replicas: usize,
    per_sample_stationary: bool,
    /// Stationary-operand elements appended to a KV cache per evaluated
    /// step, per batch sample (0 = the operand is not a growing cache).
    kv_append: usize,
    /// Cache elements copied copy-on-write before this step's append,
    /// per batch sample: a shared page the sample must privatise before
    /// writing into it (0 = no copy). Only meaningful alongside
    /// `kv_append`.
    kv_cow: usize,
}

impl Layer {
    /// Builds a standard convolution.
    ///
    /// `m` and `c` are the *full-layer* channel counts; use
    /// [`Layer::with_groups`] afterwards for grouped convolutions.
    ///
    /// # Panics
    ///
    /// Panics if any bound is zero (use [`Layer::try_new`] for fallible
    /// construction).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        name: impl Into<String>,
        n: usize,
        m: usize,
        c: usize,
        p: usize,
        q: usize,
        r: usize,
        s: usize,
    ) -> Layer {
        Layer::try_new(
            name,
            LayerKind::Conv2d,
            Shape::new(n, m, c, p, q, r, s),
            (1, 1),
            (1, 1),
            1,
        )
        .expect("conv2d bounds must be nonzero")
    }

    /// Builds a fully-connected layer with `m` outputs and `c` inputs.
    pub fn fully_connected(name: impl Into<String>, n: usize, m: usize, c: usize) -> Layer {
        Layer::try_new(
            name,
            LayerKind::FullyConnected,
            Shape::new(n, m, c, 1, 1, 1, 1),
            (1, 1),
            (1, 1),
            1,
        )
        .expect("fc bounds must be nonzero")
    }

    /// Builds a batched matrix multiply with `rows` output rows of `m`
    /// features each, reducing over `k` — `O[n,rows,m] = Σ_k A[n,rows,k]
    /// · B[k,m]`.
    ///
    /// The GEMM folds onto the convolution nest as `P = rows` (sequence /
    /// token positions), `M = m` (output features), `C = k` (reduction)
    /// and `Q = R = S = 1`: the B operand projects onto the weight tensor
    /// `W[M,C]`, the A operand onto the input tensor (whose sliding-window
    /// footprint degenerates to exactly `N·C·P` elements at `R = 1`) and
    /// the result onto the output tensor `O[N,M,P]`. Per-head attention
    /// matmuls stack heads with [`Layer::with_groups`], which matches
    /// their execution: heads share no data, so a mapper schedules one at
    /// a time.
    ///
    /// # Examples
    ///
    /// ```
    /// use lumen_workload::{Dim, Layer, TensorKind};
    ///
    /// // BERT-base attention logits: 12 heads of Q[128,64] x K^T[64,128].
    /// let logits = Layer::matmul("logits", 1, 12 * 128, 12 * 64, 128).with_groups(12);
    /// assert_eq!(logits.shape()[Dim::M], 128); // per-head seq
    /// assert_eq!(logits.shape()[Dim::C], 64); // per-head d_head
    /// assert_eq!(logits.macs(), 12 * 128 * 64 * 128);
    /// // The stationary operand (K) counts as the layer's weight tensor.
    /// assert_eq!(logits.tensor_elements(TensorKind::Weight), 12 * 128 * 64);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any bound is zero.
    pub fn matmul(name: impl Into<String>, n: usize, m: usize, k: usize, rows: usize) -> Layer {
        Layer::try_new(
            name,
            LayerKind::Matmul,
            Shape::new(n, m, k, rows, 1, 1, 1),
            (1, 1),
            (1, 1),
            1,
        )
        .expect("matmul bounds must be nonzero")
    }

    /// Builds a GEMV — a matrix-vector product `O[n,m] = Σ_k A[n,k] ·
    /// B[k,m]`, the shape of one autoregressive decode step.
    ///
    /// This is exactly [`Layer::matmul`] with a single output row
    /// (`rows = 1`): the two constructions produce equal
    /// [`signature`](Layer::signature)s and therefore bit-identical
    /// mappings and evaluations on every architecture (pinned by
    /// `tests/decode_properties.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any bound is zero.
    pub fn gemv(name: impl Into<String>, n: usize, m: usize, k: usize) -> Layer {
        Layer::matmul(name, n, m, k, 1)
    }

    /// Builds a depthwise convolution over `c` channels.
    #[allow(clippy::too_many_arguments)]
    pub fn depthwise_conv2d(
        name: impl Into<String>,
        n: usize,
        c: usize,
        p: usize,
        q: usize,
        r: usize,
        s: usize,
    ) -> Layer {
        // Depthwise = `c` groups of a 1->1 channel convolution; the full
        // layer has M = C = c channels, divided into c groups.
        Layer::try_new(
            name,
            LayerKind::DepthwiseConv2d,
            Shape::new(n, c, c, p, q, r, s),
            (1, 1),
            (1, 1),
            c,
        )
        .expect("depthwise bounds must be nonzero")
    }

    /// Fallible constructor with every knob exposed.
    ///
    /// `shape` carries the *full-layer* `M`/`C`; they are divided by `groups`.
    ///
    /// # Errors
    ///
    /// Returns [`LayerError::ZeroParameter`] if any bound / stride / dilation
    /// / group count is zero and [`LayerError::BadGrouping`] if the channel
    /// counts are not divisible by `groups`.
    pub fn try_new(
        name: impl Into<String>,
        kind: LayerKind,
        shape: Shape,
        stride: (usize, usize),
        dilation: (usize, usize),
        groups: usize,
    ) -> Result<Layer, LayerError> {
        if !shape.is_valid() {
            return Err(LayerError::ZeroParameter("shape bound"));
        }
        if stride.0 == 0 || stride.1 == 0 {
            return Err(LayerError::ZeroParameter("stride"));
        }
        if dilation.0 == 0 || dilation.1 == 0 {
            return Err(LayerError::ZeroParameter("dilation"));
        }
        if groups == 0 {
            return Err(LayerError::ZeroParameter("groups"));
        }
        let (m, c) = (shape[Dim::M], shape[Dim::C]);
        if m % groups != 0 || c % groups != 0 {
            return Err(LayerError::BadGrouping { m, c, groups });
        }
        let per_group = shape
            .with_bound(Dim::M, m / groups)
            .with_bound(Dim::C, c / groups);
        Ok(Layer {
            name: name.into(),
            kind,
            shape: per_group,
            stride,
            dilation,
            groups,
            batch_replicas: 1,
            per_sample_stationary: false,
            kv_append: 0,
            kv_cow: 0,
        })
    }

    /// Returns this layer with the given stride (builder style).
    #[must_use]
    pub fn with_stride(mut self, vertical: usize, horizontal: usize) -> Layer {
        assert!(vertical > 0 && horizontal > 0, "stride must be nonzero");
        self.stride = (vertical, horizontal);
        self
    }

    /// Returns this layer with the given dilation (builder style).
    #[must_use]
    pub fn with_dilation(mut self, vertical: usize, horizontal: usize) -> Layer {
        assert!(vertical > 0 && horizontal > 0, "dilation must be nonzero");
        self.dilation = (vertical, horizontal);
        self
    }

    /// Splits the layer's channels into `groups` independent groups
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the current per-group channel counts are not divisible by
    /// `groups`.
    #[must_use]
    pub fn with_groups(mut self, groups: usize) -> Layer {
        assert!(groups > 0, "groups must be nonzero");
        let (m, c) = (self.shape[Dim::M], self.shape[Dim::C]);
        assert!(
            m % groups == 0 && c % groups == 0,
            "channels (M={m}, C={c}) not divisible by groups={groups}"
        );
        self.shape = self
            .shape
            .with_bound(Dim::M, m / groups)
            .with_bound(Dim::C, c / groups);
        self.groups *= groups;
        self
    }

    /// Returns this layer with a new batch size (builder style).
    ///
    /// For ordinary layers the batch is the nest's `N` bound, and every
    /// loop dimension outside a tensor's projection reuses it — weights
    /// in particular are shared across the batch. For layers marked
    /// [`Layer::with_per_sample_stationary`] the batch instead replicates
    /// the whole nest (like extra groups), because their stationary
    /// operand is a per-sample activation that batching must *not* share.
    #[must_use]
    pub fn with_batch(mut self, n: usize) -> Layer {
        assert!(n > 0, "batch must be nonzero");
        if self.per_sample_stationary {
            self.batch_replicas = n;
        } else {
            self.shape = self.shape.with_bound(Dim::N, n);
        }
        self
    }

    /// Marks the layer's stationary ("weight") operand as a per-sample
    /// activation — attention K/V rather than model weights (builder
    /// style). Any batch currently carried by `N` moves into whole-nest
    /// replicas, and future [`Layer::with_batch`] calls set the replica
    /// count, so the stationary tensor's footprint and traffic scale
    /// with the batch instead of being modeled as batch-shared.
    #[must_use]
    pub fn with_per_sample_stationary(mut self) -> Layer {
        let n = self.shape[Dim::N];
        self.shape = self.shape.with_bound(Dim::N, 1);
        self.batch_replicas *= n;
        self.per_sample_stationary = true;
        self
    }

    /// Marks the layer's stationary ("weight") operand as a KV-cache
    /// resident tensor that *grows* by `appended` elements per evaluated
    /// step, per batch sample (builder style).
    ///
    /// A KV cache behaves like weights that are appended to every step:
    /// it is replicated per sample — this builder implies
    /// [`Layer::with_per_sample_stationary`], so batching replicates the
    /// cache instead of sharing it — and it is never reused across steps,
    /// so each step's evaluation re-reads the whole cache (which separate
    /// per-step evaluations model naturally) *and* pays the append write
    /// of the step's new K/V slice. The evaluator charges that append as
    /// `appended × batch` extra writes of the weight tensor at its
    /// backing store.
    ///
    /// `appended` counts elements across all channel groups (for an
    /// `H`-head attention cache layer, one token's slice is
    /// `H · d_head = d_model` elements).
    ///
    /// # Panics
    ///
    /// Panics if `appended` is zero.
    #[must_use]
    pub fn with_kv_cache_residency(mut self, appended: usize) -> Layer {
        assert!(appended > 0, "appended elements must be nonzero");
        self = self.with_per_sample_stationary();
        self.kv_append = appended;
        self
    }

    /// Returns this layer under a new name (builder style). The name is
    /// not part of the [`signature`](Layer::signature).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Layer {
        self.name = name.into();
        self
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator class.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Per-group loop bounds.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// `(vertical, horizontal)` stride.
    pub fn stride(&self) -> (usize, usize) {
        self.stride
    }

    /// `(vertical, horizontal)` dilation.
    pub fn dilation(&self) -> (usize, usize) {
        self.dilation
    }

    /// Number of independent nest repetitions: channel groups times the
    /// batch replicas of a per-sample-stationary layer.
    pub fn groups(&self) -> usize {
        self.groups * self.batch_replicas
    }

    /// Channel groups alone (no batch replicas folded in).
    pub fn channel_groups(&self) -> usize {
        self.groups
    }

    /// Whole-nest batch replicas of a per-sample-stationary layer (1 for
    /// ordinary layers, whose batch lives in `N`).
    pub fn batch_replicas(&self) -> usize {
        self.batch_replicas
    }

    /// `true` if the stationary operand is a per-sample activation (see
    /// [`Layer::with_per_sample_stationary`]).
    pub fn per_sample_stationary(&self) -> bool {
        self.per_sample_stationary
    }

    /// `true` if the stationary operand is a growing KV cache (see
    /// [`Layer::with_kv_cache_residency`]).
    pub fn kv_cache_resident(&self) -> bool {
        self.kv_append > 0
    }

    /// Stationary-operand elements appended to the KV cache by one
    /// evaluated step, across all batch samples (0 for ordinary layers).
    pub fn kv_append_elements(&self) -> u64 {
        self.kv_append as u64 * self.batch_replicas as u64
    }

    /// Per-sample KV-cache append count, as given to
    /// [`Layer::with_kv_cache_residency`].
    pub fn kv_append_per_sample(&self) -> usize {
        self.kv_append
    }

    /// Marks this step as privatising `copied` shared cache elements per
    /// batch sample before its append lands (builder style): the
    /// copy-on-write of a shared prefix's trailing partial page. The
    /// evaluator charges `copied × batch` extra reads *and* writes of the
    /// weight tensor at its backing store, on top of the append writes.
    ///
    /// # Panics
    ///
    /// Panics if `copied` is zero or the layer is not KV-cache resident
    /// (call [`Layer::with_kv_cache_residency`] first — a copy without an
    /// append has no modeled trigger).
    #[must_use]
    pub fn with_kv_cow(mut self, copied: usize) -> Layer {
        assert!(copied > 0, "copied elements must be nonzero");
        assert!(
            self.kv_append > 0,
            "copy-on-write applies only to KV-cache-resident layers"
        );
        self.kv_cow = copied;
        self
    }

    /// Shared cache elements copied copy-on-write by this step, across
    /// all batch samples (0 for ordinary layers and plain appends).
    pub fn kv_cow_elements(&self) -> u64 {
        self.kv_cow as u64 * self.batch_replicas as u64
    }

    /// Per-sample copy-on-write count, as given to [`Layer::with_kv_cow`].
    pub fn kv_cow_per_sample(&self) -> usize {
        self.kv_cow
    }

    /// `true` if both strides are 1 (many photonic dataflows require this
    /// for their sliding-window reuse to function).
    pub fn is_unit_stride(&self) -> bool {
        self.stride == (1, 1)
    }

    /// Total multiply-accumulates for the full layer (all groups and
    /// batch replicas).
    pub fn macs(&self) -> u64 {
        self.shape.volume() * self.groups() as u64
    }

    /// Input feature-map height consumed by `p_extent` output rows with
    /// `r_extent` filter rows (the sliding-window footprint rule).
    pub fn input_rows(&self, p_extent: usize, r_extent: usize) -> usize {
        (p_extent - 1) * self.stride.0 + (r_extent - 1) * self.dilation.0 + 1
    }

    /// Input feature-map width consumed by `q_extent` output columns with
    /// `s_extent` filter columns.
    pub fn input_cols(&self, q_extent: usize, s_extent: usize) -> usize {
        (q_extent - 1) * self.stride.1 + (s_extent - 1) * self.dilation.1 + 1
    }

    /// Number of elements of `tensor` touched by the full layer (all groups).
    pub fn tensor_elements(&self, tensor: TensorKind) -> u64 {
        let s = &self.shape;
        let per_group: u64 = match tensor {
            TensorKind::Weight => (s[Dim::M] * s[Dim::C] * s[Dim::R] * s[Dim::S]) as u64,
            TensorKind::Output => (s[Dim::N] * s[Dim::M] * s[Dim::P] * s[Dim::Q]) as u64,
            TensorKind::Input => {
                let h = self.input_rows(s[Dim::P], s[Dim::R]);
                let w = self.input_cols(s[Dim::Q], s[Dim::S]);
                (s[Dim::N] * s[Dim::C] * h * w) as u64
            }
        };
        per_group * self.groups() as u64
    }

    /// Arithmetic intensity: MACs per element moved if every tensor were
    /// touched exactly once (an upper bound on achievable reuse).
    pub fn ideal_arithmetic_intensity(&self) -> f64 {
        let moved: u64 = TensorKind::ALL
            .iter()
            .map(|&t| self.tensor_elements(t))
            .sum();
        self.macs() as f64 / moved as f64
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) {} stride={:?} groups={}",
            self.name,
            self.kind,
            self.shape,
            self.stride,
            self.groups()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macs() {
        let l = Layer::conv2d("c", 1, 64, 3, 224, 224, 3, 3);
        assert_eq!(l.macs(), 64 * 3 * 224 * 224 * 9);
    }

    #[test]
    fn fc_is_degenerate_conv() {
        let l = Layer::fully_connected("fc", 1, 1000, 4096);
        assert_eq!(l.shape()[Dim::P], 1);
        assert_eq!(l.shape()[Dim::R], 1);
        assert_eq!(l.macs(), 1000 * 4096);
        assert_eq!(l.kind(), LayerKind::FullyConnected);
    }

    #[test]
    fn grouped_conv_divides_channels() {
        let l = Layer::conv2d("g", 1, 256, 96, 27, 27, 5, 5).with_groups(2);
        assert_eq!(l.shape()[Dim::M], 128);
        assert_eq!(l.shape()[Dim::C], 48);
        assert_eq!(l.groups(), 2);
        // MACs include both groups.
        assert_eq!(l.macs(), 2 * 128 * 48 * 27 * 27 * 25);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_grouping_panics() {
        let _ = Layer::conv2d("g", 1, 10, 9, 4, 4, 1, 1).with_groups(4);
    }

    #[test]
    fn try_new_rejects_zero() {
        let err = Layer::try_new(
            "bad",
            LayerKind::Conv2d,
            Shape::new(1, 0, 1, 1, 1, 1, 1),
            (1, 1),
            (1, 1),
            1,
        )
        .unwrap_err();
        assert_eq!(err, LayerError::ZeroParameter("shape bound"));
    }

    #[test]
    fn input_footprint_accounts_for_stride() {
        // AlexNet conv1: 11x11 stride 4 on 227x227 -> 55x55 outputs.
        let l = Layer::conv2d("conv1", 1, 96, 3, 55, 55, 11, 11).with_stride(4, 4);
        assert_eq!(l.input_rows(55, 11), 227);
        assert_eq!(l.input_cols(55, 11), 227);
        assert_eq!(l.tensor_elements(TensorKind::Input), 3 * 227 * 227);
    }

    #[test]
    fn input_footprint_accounts_for_dilation() {
        let l = Layer::conv2d("d", 1, 1, 1, 8, 8, 3, 3).with_dilation(2, 2);
        assert_eq!(l.input_rows(8, 3), 7 + 4 + 1);
    }

    #[test]
    fn tensor_elements_output_and_weight() {
        let l = Layer::conv2d("c", 2, 8, 4, 5, 6, 3, 3);
        assert_eq!(l.tensor_elements(TensorKind::Output), 2 * 8 * 5 * 6);
        assert_eq!(l.tensor_elements(TensorKind::Weight), 8 * 4 * 9);
    }

    #[test]
    fn depthwise_builds_groups() {
        let l = Layer::depthwise_conv2d("dw", 1, 32, 16, 16, 3, 3);
        assert_eq!(l.groups(), 32);
        assert_eq!(l.macs(), 32 * 16 * 16 * 9);
    }

    #[test]
    fn with_batch_changes_n_only() {
        let l = Layer::conv2d("c", 1, 8, 8, 8, 8, 3, 3).with_batch(16);
        assert_eq!(l.shape()[Dim::N], 16);
        assert_eq!(l.macs(), 16 * 8 * 8 * 8 * 8 * 9);
    }

    #[test]
    fn matmul_folds_onto_the_conv_nest() {
        let l = Layer::matmul("mm", 2, 64, 32, 128);
        assert_eq!(l.kind(), LayerKind::Matmul);
        assert_eq!(l.shape()[Dim::M], 64);
        assert_eq!(l.shape()[Dim::C], 32);
        assert_eq!(l.shape()[Dim::P], 128);
        assert_eq!(l.shape()[Dim::Q], 1);
        assert_eq!(l.macs(), 2 * 64 * 32 * 128);
        // Operand footprints are exact (no sliding-window halo at R=S=1).
        assert_eq!(l.tensor_elements(TensorKind::Weight), 64 * 32);
        assert_eq!(l.tensor_elements(TensorKind::Input), 2 * 32 * 128);
        assert_eq!(l.tensor_elements(TensorKind::Output), 2 * 64 * 128);
    }

    #[test]
    fn grouped_matmul_models_per_head_attention() {
        // 4 heads of probs[16,16] x V[16,8]: per-head M=8, C=16, P=16.
        let l = Layer::matmul("attend", 1, 4 * 8, 4 * 16, 16).with_groups(4);
        assert_eq!(l.groups(), 4);
        assert_eq!(l.shape()[Dim::M], 8);
        assert_eq!(l.shape()[Dim::C], 16);
        assert_eq!(l.macs(), 4 * 8 * 16 * 16);
        // Heads do not share the stationary operand.
        assert_eq!(l.tensor_elements(TensorKind::Weight), 4 * 8 * 16);
    }

    #[test]
    fn per_sample_stationary_batches_via_replicas() {
        let l = Layer::matmul("attn", 1, 4 * 8, 4 * 16, 16)
            .with_groups(4)
            .with_per_sample_stationary()
            .with_batch(8);
        // Batch lives in replicas, not N.
        assert_eq!(l.shape()[Dim::N], 1);
        assert_eq!(l.groups(), 4 * 8);
        assert_eq!(l.macs(), 8 * 4 * 8 * 16 * 16);
        // The stationary operand is replicated per sample, not shared.
        assert_eq!(l.tensor_elements(TensorKind::Weight), 8 * 4 * 8 * 16);
        // `with_batch` stays absolute: re-batching replaces the count.
        let rebatched = l.with_batch(2);
        assert_eq!(rebatched.groups(), 4 * 2);
    }

    #[test]
    fn per_sample_stationary_absorbs_existing_batch() {
        let l = Layer::matmul("attn", 8, 4, 4, 4).with_per_sample_stationary();
        assert_eq!(l.shape()[Dim::N], 1);
        assert_eq!(l.groups(), 8);
        assert_eq!(l.macs(), 8 * 4 * 4 * 4);
        assert!(l.per_sample_stationary());
    }

    #[test]
    fn ordinary_layers_share_weights_across_batch() {
        let l = Layer::matmul("proj", 1, 8, 8, 4).with_batch(8);
        assert_eq!(l.shape()[Dim::N], 8);
        assert_eq!(l.tensor_elements(TensorKind::Weight), 8 * 8);
        assert!(!l.per_sample_stationary());
    }

    #[test]
    fn gemv_is_matmul_with_one_row() {
        let g = Layer::gemv("g", 2, 64, 32);
        let m = Layer::matmul("m", 2, 64, 32, 1);
        assert_eq!(g.kind(), LayerKind::Matmul);
        assert_eq!(g.shape(), m.shape());
        assert_eq!(g.shape()[Dim::P], 1);
        assert_eq!(g.macs(), 2 * 64 * 32);
    }

    #[test]
    fn kv_residency_implies_per_sample_stationary() {
        let l = Layer::matmul("kv", 1, 4 * 8, 4 * 16, 1)
            .with_groups(4)
            .with_kv_cache_residency(32);
        assert!(l.kv_cache_resident());
        assert!(l.per_sample_stationary());
        assert_eq!(l.kv_append_per_sample(), 32);
        assert_eq!(l.kv_append_elements(), 32);
        // Batching replicates the cache, so the append scales with it.
        let batched = l.with_batch(8);
        assert_eq!(batched.kv_append_elements(), 8 * 32);
        assert_eq!(batched.groups(), 8 * 4);
    }

    #[test]
    fn ordinary_layers_have_no_kv_append() {
        let l = Layer::matmul("proj", 1, 8, 8, 4).with_batch(8);
        assert!(!l.kv_cache_resident());
        assert_eq!(l.kv_append_elements(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_kv_append_panics() {
        let _ = Layer::matmul("kv", 1, 8, 8, 1).with_kv_cache_residency(0);
    }

    #[test]
    fn arithmetic_intensity_positive() {
        let l = Layer::conv2d("c", 1, 64, 64, 56, 56, 3, 3);
        assert!(l.ideal_arithmetic_intensity() > 1.0);
    }

    #[test]
    fn display_contains_name_and_kind() {
        let l = Layer::fully_connected("fc8", 1, 1000, 4096);
        let shown = format!("{l}");
        assert!(shown.contains("fc8") && shown.contains("(fc)"));
    }
}
