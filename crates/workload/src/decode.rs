//! Autoregressive decode: one token per step against a growing KV cache.
//!
//! Prefill ([`Attention::lower`]) processes a whole sequence at once;
//! decode generates one token per step, so every matmul degenerates to a
//! GEMV (`seq = 1`) and the attention operands split into a *new* part
//! (the step's query/key/value vectors) and a *resident* part (the KV
//! cache accumulated over all previous steps). [`DecodePhase`] lowers one
//! attention block's decode step:
//!
//! | layer | GEMM | stationary ("weight") operand |
//! |---|---|---|
//! | `query`/`key`/`value` | `[1,D] x [D,D]` | projection weights |
//! | `logits` | per head `[1,d] x [d,L]` | **K cache** (`L` tokens) |
//! | `attend` | per head `[1,L] x [L,d]` | **V cache** (`L` tokens) |
//! | `out` | `[1,D] x [D,D]` | projection weights |
//!
//! with `L` the *attend length*. The chosen semantics, pinned by
//! `tests/decode_properties.rs`:
//!
//! * **`kv_len` counts the tokens cached before the step.** The step
//!   first appends the new token's K/V, then attends over `kv_len + 1`
//!   positions — so `kv_len = 0` (the first generated token) is legal and
//!   attends over exactly the new token itself.
//! * **The cache is a growing per-sample weight.** `logits`/`attend`
//!   carry [`Layer::with_kv_cache_residency`]: batching replicates the
//!   cache (never shares it), each step re-reads the whole cache, and the
//!   evaluator charges the append write of the step's `d_model`-element
//!   K (resp. V) slice.
//! * **`kv_bucket` pads the attend length** up to the next multiple of
//!   the bucket, the way dense hardware pads a GEMV's reduction to its
//!   tile size (and paged KV allocates whole pages). Padded positions
//!   count as padded MACs, matching the model's padded-MAC accounting —
//!   and steps inside one bucket share a [`Layer::signature`], which is
//!   what makes a multi-thousand-step decode trace collapse to a handful
//!   of mapping searches in an `EvalSession`.
//!
//! # Examples
//!
//! ```
//! use lumen_workload::DecodePhase;
//!
//! let step = DecodePhase::new("dec.attn", 768, 12).with_kv_len(511);
//! assert_eq!(step.attend_len(), 512);
//! let layers = step.lower();
//! assert_eq!(layers.len(), 6);
//! let total: u64 = layers.iter().map(|l| l.macs()).sum();
//! assert_eq!(total, step.macs());
//! ```

use crate::{Layer, Network};

/// One autoregressive decode step of a multi-head attention block.
#[derive(Debug, Clone)]
pub struct DecodePhase {
    prefix: String,
    d_model: usize,
    heads: usize,
    kv_len: usize,
    kv_bucket: usize,
    batch: usize,
}

impl DecodePhase {
    /// Builds a decode-step description with an empty cache
    /// (`kv_len = 0`), no bucketing and batch 1.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `d_model` is not divisible by
    /// `heads`.
    pub fn new(prefix: impl Into<String>, d_model: usize, heads: usize) -> DecodePhase {
        assert!(
            d_model > 0 && heads > 0,
            "decode dimensions must be nonzero"
        );
        assert!(
            d_model.is_multiple_of(heads),
            "d_model={d_model} not divisible by heads={heads}"
        );
        DecodePhase {
            prefix: prefix.into(),
            d_model,
            heads,
            kv_len: 0,
            kv_bucket: 1,
            batch: 1,
        }
    }

    /// Sets the number of tokens already cached before this step
    /// (builder style). The step attends over `kv_len + 1` positions.
    #[must_use]
    pub fn with_kv_len(mut self, kv_len: usize) -> DecodePhase {
        self.kv_len = kv_len;
        self
    }

    /// Pads the attend length up to a multiple of `bucket` (builder
    /// style) — hardware tile / KV-page granularity. Bucket 1 is exact.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    #[must_use]
    pub fn with_kv_bucket(mut self, bucket: usize) -> DecodePhase {
        assert!(bucket > 0, "kv bucket must be nonzero");
        self.kv_bucket = bucket;
        self
    }

    /// Sets the batch size (builder style): projections carry it in `N`,
    /// while the KV cache of `logits`/`attend` is replicated per sample.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> DecodePhase {
        assert!(batch > 0, "batch must be nonzero");
        self.batch = batch;
        self
    }

    /// Per-head width `d_model / heads`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }

    /// Tokens cached before the step.
    pub fn kv_len(&self) -> usize {
        self.kv_len
    }

    /// The number of positions the step attends over: `kv_len + 1` (the
    /// cache plus the token being generated), rounded up to the bucket.
    pub fn attend_len(&self) -> usize {
        (self.kv_len + 1).div_ceil(self.kv_bucket) * self.kv_bucket
    }

    /// Lowers the step into its six GEMV layers, execution order:
    /// `query`, `key`, `value`, `logits`, `attend`, `out`, each named
    /// `{prefix}.{part}`.
    pub fn lower(&self) -> Vec<Layer> {
        self.lower_parts()
            .into_iter()
            .map(|(part, layer)| layer.with_name(format!("{}.{part}", self.prefix)))
            .collect()
    }

    /// [`DecodePhase::lower`]'s layers unnamed, each with its part name,
    /// for a caller that names them itself (or not at all).
    pub(crate) fn lower_parts(&self) -> [(&'static str, Layer); 6] {
        let (d, h, n) = (self.d_model, self.heads, self.batch);
        let len = self.attend_len();
        [
            ("query", Layer::gemv("", n, d, d)),
            ("key", Layer::gemv("", n, d, d)),
            ("value", Layer::gemv("", n, d, d)),
            // Per head: q[1, d/h] x K^T[d/h, L] -> logits[1, L]. The K
            // cache grows by the new token's d_model-element slice.
            (
                "logits",
                Layer::matmul("", 1, h * len, d, 1)
                    .with_groups(h)
                    .with_kv_cache_residency(d)
                    .with_batch(n),
            ),
            // Per head: probs[1, L] x V[L, d/h] -> context[1, d/h].
            (
                "attend",
                Layer::matmul("", 1, d, h * len, 1)
                    .with_groups(h)
                    .with_kv_cache_residency(d)
                    .with_batch(n),
            ),
            ("out", Layer::gemv("", n, d, d)),
        ]
    }

    /// Closed-form MAC count of the step:
    /// `batch · (4·D² + 2·L·D)` with `L` = [`DecodePhase::attend_len`].
    pub fn macs(&self) -> u64 {
        let (d, n) = (self.d_model as u64, self.batch as u64);
        let len = self.attend_len() as u64;
        n * (4 * d * d + 2 * len * d)
    }
}

/// Appends one pre-norm transformer decoder block's *decode step* (MHA
/// over the cache + 2-layer MLP with hidden width `d_ff`, all at
/// `seq = 1`) to `net`.
#[allow(clippy::too_many_arguments)]
pub fn push_decode_block(
    net: Network,
    prefix: &str,
    d_model: usize,
    heads: usize,
    d_ff: usize,
    kv_len: usize,
    kv_bucket: usize,
) -> Network {
    let mut net = net;
    let phase = DecodePhase::new(format!("{prefix}.attn"), d_model, heads)
        .with_kv_len(kv_len)
        .with_kv_bucket(kv_bucket);
    for layer in phase.lower() {
        net = net.push(layer);
    }
    net.push(Layer::gemv(format!("{prefix}.mlp.fc1"), 1, d_ff, d_model))
        .push(Layer::gemv(format!("{prefix}.mlp.fc2"), 1, d_model, d_ff))
}

/// Closed-form MAC count of [`push_decode_block`] at attend length
/// `attend_len`: `4·D² + 2·L·D + 2·D·D_ff`.
pub fn decode_block_macs(attend_len: usize, d_model: usize, d_ff: usize) -> u64 {
    let (len, d, f) = (attend_len as u64, d_model as u64, d_ff as u64);
    4 * d * d + 2 * len * d + 2 * d * f
}

/// Iterates a decode trace: `steps` consecutive per-step networks built
/// by `build`, with the KV length growing by one token per step starting
/// from `start_kv`. Yields `(kv_len, network)` pairs.
///
/// The builder receives the *exact* cache length; bucketing (if any) is
/// the builder's concern, which is what lets per-step networks inside one
/// KV-length bucket share every layer signature and collapse to cache
/// hits in an `EvalSession`.
pub fn decode_trace<F>(
    start_kv: usize,
    steps: usize,
    build: F,
) -> impl Iterator<Item = (usize, Network)>
where
    F: Fn(usize) -> Network,
{
    (start_kv..start_kv + steps).map(move |kv_len| (kv_len, build(kv_len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dim, LayerKind, TensorKind};

    #[test]
    fn lowering_macs_match_closed_form() {
        for (kv, d, h) in [(0, 768, 12), (1, 768, 12), (511, 256, 4), (2048, 64, 2)] {
            let step = DecodePhase::new("a", d, h).with_kv_len(kv);
            let sum: u64 = step.lower().iter().map(Layer::macs).sum();
            assert_eq!(sum, step.macs(), "kv={kv} d={d} h={h}");
        }
    }

    #[test]
    fn first_token_attends_over_itself_only() {
        // kv_len = 0: the cache is empty, the step appends the new token
        // and attends over exactly that one position.
        let step = DecodePhase::new("a", 768, 12);
        assert_eq!(step.attend_len(), 1);
        let layers = step.lower();
        let logits = layers.iter().find(|l| l.name() == "a.logits").unwrap();
        assert_eq!(logits.shape()[Dim::M], 1, "one attendable position");
        assert_eq!(logits.shape()[Dim::C], 64);
        assert_eq!(logits.shape()[Dim::P], 1, "one query token");
        assert_eq!(logits.macs(), 12 * 64);
    }

    #[test]
    fn cache_layers_are_kv_resident_gemvs() {
        let step = DecodePhase::new("a", 768, 12).with_kv_len(127);
        let layers = step.lower();
        let by_name = |n: &str| layers.iter().find(|l| l.name() == n).unwrap();
        for name in ["a.logits", "a.attend"] {
            let l = by_name(name);
            assert_eq!(l.kind(), LayerKind::Matmul);
            assert_eq!(l.shape()[Dim::P], 1, "{name} is a GEMV");
            assert!(l.kv_cache_resident(), "{name} reads the cache");
            assert_eq!(l.kv_append_elements(), 768, "one token's K/V slice");
            // The whole 128-token cache is the stationary operand.
            assert_eq!(l.tensor_elements(TensorKind::Weight), 128 * 768);
        }
        for name in ["a.query", "a.key", "a.value", "a.out"] {
            let l = by_name(name);
            assert!(!l.kv_cache_resident(), "{name} holds model weights");
            assert_eq!(l.tensor_elements(TensorKind::Weight), 768 * 768);
        }
    }

    #[test]
    fn batching_replicates_the_cache_but_shares_projections() {
        let layers = DecodePhase::new("a", 256, 4)
            .with_kv_len(63)
            .with_batch(8)
            .lower();
        let by_name = |n: &str| layers.iter().find(|l| l.name() == n).unwrap();
        let logits = by_name("a.logits");
        assert_eq!(logits.tensor_elements(TensorKind::Weight), 8 * 64 * 256);
        assert_eq!(logits.kv_append_elements(), 8 * 256);
        let query = by_name("a.query");
        assert_eq!(query.shape()[Dim::N], 8);
        assert_eq!(query.tensor_elements(TensorKind::Weight), 256 * 256);
    }

    #[test]
    fn bucketing_pads_the_attend_length() {
        let step = DecodePhase::new("a", 256, 4)
            .with_kv_len(129)
            .with_kv_bucket(64);
        assert_eq!(step.attend_len(), 192);
        // Exact multiples don't over-pad.
        let exact = DecodePhase::new("a", 256, 4)
            .with_kv_len(127)
            .with_kv_bucket(64);
        assert_eq!(exact.attend_len(), 128);
        // Steps inside one bucket share every layer signature.
        let a = DecodePhase::new("a", 256, 4)
            .with_kv_len(130)
            .with_kv_bucket(64);
        let sigs = |p: &DecodePhase| -> Vec<_> { p.lower().iter().map(Layer::signature).collect() };
        assert_eq!(sigs(&step), sigs(&a));
    }

    #[test]
    fn decode_block_macs_match() {
        let net = push_decode_block(Network::new("d"), "b0", 768, 12, 3072, 255, 1);
        assert_eq!(net.layers().len(), 8);
        assert_eq!(net.total_macs(), decode_block_macs(256, 768, 3072));
    }

    #[test]
    fn trace_yields_growing_kv_lengths() {
        let trace: Vec<(usize, Network)> = decode_trace(7, 3, |kv| {
            push_decode_block(Network::new("d"), "b0", 64, 2, 128, kv, 1)
        })
        .collect();
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.iter().map(|(kv, _)| *kv).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        // MACs grow with the cache.
        let macs: Vec<u64> = trace.iter().map(|(_, n)| n.total_macs()).collect();
        assert!(macs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panic() {
        let _ = DecodePhase::new("a", 100, 7);
    }
}
