//! # lumen-workload
//!
//! DNN workload descriptions for architecture-level modeling.
//!
//! A convolutional / fully-connected layer is described as a seven-dimensional
//! loop nest over [`Dim`]s `(N, M, C, P, Q, R, S)`:
//!
//! * `N` — batch
//! * `M` — output channels
//! * `C` — input channels
//! * `P`/`Q` — output feature-map rows / columns
//! * `R`/`S` — filter rows / columns
//!
//! with strides, dilation and channel groups. Three operand tensors project
//! out of this nest ([`TensorKind`]): weights `W[M,C,R,S]`, inputs
//! `I[N,C,H,W]` (sliding-window footprint) and outputs `O[N,M,P,Q]`.
//!
//! Batched GEMMs ([`LayerKind::Matmul`]) fold onto the same nest with
//! `P` carrying the row/sequence extent and `Q = R = S = 1`; multi-head
//! attention lowers onto grouped matmuls via [`Attention`], with heads as
//! channel groups. Autoregressive decoding lowers onto seq-1 GEMVs with
//! a growing, per-sample-resident KV cache via [`DecodePhase`] and
//! [`decode_trace`]; continuous batching of mixed-length serving traffic
//! lowers scheduler steps onto bucketed decode groups via the [`serving`]
//! module ([`RequestMix`], [`ServingScenario`], [`ServingModel`]).
//!
//! The [`networks`] module provides the four CNNs evaluated by the paper
//! ([`networks::alexnet`], [`networks::vgg16`], [`networks::resnet18`],
//! [`networks::mobilenetv1`]) plus three transformer workloads
//! ([`networks::bert_base`], [`networks::gpt2_small`],
//! [`networks::vit_b16`]).
//!
//! # Examples
//!
//! ```
//! use lumen_workload::{Layer, networks};
//!
//! let conv = Layer::conv2d("conv", 1, 64, 3, 224, 224, 3, 3);
//! assert_eq!(conv.macs(), 64 * 3 * 224 * 224 * 9);
//!
//! let net = networks::resnet18();
//! assert!(net.total_macs() > 1_700_000_000);
//! ```

mod attention;
mod decode;
mod dims;
mod layer;
mod network;
pub mod networks;
pub mod serving;
mod signature;
mod tensor;

pub use attention::{encoder_block_macs, push_encoder_block, Attention};
pub use decode::{decode_block_macs, decode_trace, push_decode_block, DecodePhase};
pub use dims::{Dim, DimMap, DimSet, Shape};
pub use layer::{Layer, LayerError, LayerKind};
pub use network::{LayerSink, Network, NetworkStats};
pub use serving::{
    ActiveSlot, AdmissionPolicy, ArrivalProcess, Fleet, FleetRouter, InstanceAssignment, KvLayout,
    PageTable, PagedResidency, PrefillMode, PrefillSlot, Request, RequestMix, SegmentPart,
    ServingError, ServingModel, ServingScenario, ServingScenarioBuilder, ServingSchedule,
    ServingStep, StepComposition, StepResidency, StepSegment,
};
pub use signature::{fnv1a, fnv1a_bytes, LayerSignature, WordHasher};
pub use tensor::{TensorKind, TensorMap, TensorSet};
