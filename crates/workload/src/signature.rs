//! Content-addressed layer identity for evaluation caching.
//!
//! Timeloop-family evaluation is a pure function of a layer's *shape*,
//! never its *name*: two layers with identical loop bounds, strides,
//! grouping and batching semantics map and cost identically on any
//! architecture. [`LayerSignature`] captures exactly that equivalence
//! class — everything that influences mapping and energy accounting,
//! nothing else — so evaluation pipelines can deduplicate work across the
//! 12 identical encoder blocks of a transformer or the repeated residual
//! stages of a CNN.
//!
//! # Examples
//!
//! ```
//! use lumen_workload::Layer;
//!
//! let a = Layer::matmul("encoder.0.query", 1, 768, 768, 128);
//! let b = Layer::matmul("encoder.11.key", 1, 768, 768, 128);
//! assert_eq!(a.signature(), b.signature()); // names are irrelevant
//!
//! let c = Layer::matmul("encoder.0.logits", 1, 768, 768, 128)
//!     .with_per_sample_stationary();
//! assert_ne!(a.signature(), c.signature()); // batching semantics are not
//! ```

use crate::{Dim, Layer, LayerKind, Shape};
use std::fmt;
use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a domain-separation tag followed by raw bytes.
///
/// The workspace's one stable content hash: unlike `DefaultHasher`,
/// whose keys the standard library does not pin, this is identical
/// across runs, platforms and Rust versions, so digests may appear in
/// logs, JSON artifacts and cache keys that outlive a process.
pub fn fnv1a_bytes(tag: &[u8], bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in tag.iter().chain(bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a tag followed by a word sequence (each word eaten
/// little-endian). See [`fnv1a_bytes`] for the stability contract.
pub fn fnv1a(tag: &[u8], words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for &b in tag {
        eat(b);
    }
    for w in words {
        for b in w.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// A multiply-rotate word hasher, for in-process maps keyed on the
/// model's own values (segments, layer signatures, search candidates).
///
/// One rotate, xor and multiply per word, against FNV-1a's eight
/// multiplies: the keys come from the model, not from an adversary, so
/// the hash need not resist flooding. Unlike [`fnv1a`] it makes no
/// stability promise; use it as `BuildHasherDefault<WordHasher>` or
/// feed it words directly with [`Hasher::write_u64`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The canonical identity of a [`Layer`] for mapping and evaluation.
///
/// Two layers with equal signatures produce bit-identical mappings,
/// analyses and energy breakdowns on every architecture and under every
/// deterministic mapping strategy. The signature covers the per-group
/// loop bounds, operator class, stride, dilation, group count, batch
/// replicas, the per-sample-stationary flag, the KV-cache append count
/// and the copy-on-write count; it deliberately excludes the layer's
/// name.
///
/// The struct itself is the collision-free cache key (derived `Eq` /
/// `Hash` over all fields); [`LayerSignature::digest`] additionally
/// provides a stable 64-bit FNV-1a content hash that does not depend on
/// the process, platform or standard-library hasher — suitable for
/// logging, JSON artifacts and cross-run comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSignature {
    kind: LayerKind,
    shape: Shape,
    stride: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
    batch_replicas: usize,
    per_sample_stationary: bool,
    kv_append: usize,
    kv_cow: usize,
}

impl LayerSignature {
    /// Computes the signature of `layer`.
    pub fn of(layer: &Layer) -> LayerSignature {
        LayerSignature {
            kind: layer.kind(),
            shape: layer.shape(),
            stride: layer.stride(),
            dilation: layer.dilation(),
            groups: layer.channel_groups(),
            batch_replicas: layer.batch_replicas(),
            per_sample_stationary: layer.per_sample_stationary(),
            kv_append: layer.kv_append_per_sample(),
            kv_cow: layer.kv_cow_per_sample(),
        }
    }

    /// A stable 64-bit content hash of the signature ([`fnv1a`] over the
    /// canonical field encoding). Identical across runs, platforms and
    /// Rust versions; independent of the layer's name.
    pub fn digest(&self) -> u64 {
        let mut words = Vec::with_capacity(16);
        words.push(match self.kind {
            LayerKind::Conv2d => 0,
            LayerKind::FullyConnected => 1,
            LayerKind::DepthwiseConv2d => 2,
            LayerKind::Matmul => 3,
        });
        for d in Dim::ALL {
            words.push(self.shape[d] as u64);
        }
        words.extend([
            self.stride.0 as u64,
            self.stride.1 as u64,
            self.dilation.0 as u64,
            self.dilation.1 as u64,
            self.groups as u64,
            self.batch_replicas as u64,
            u64::from(self.per_sample_stationary),
        ]);
        // KV-cache residency extends the encoding only for layers that
        // carry it: every pre-existing layer's digest — including the
        // hard-pinned constant below and any digest persisted in logs or
        // bench artifacts — is unchanged, while cache layers with
        // different append counts stay distinguishable.
        if self.kv_append > 0 {
            words.push(self.kv_append as u64);
        }
        // Same preservation rule for the copy-on-write count (PR 9):
        // only layers that actually privatise a shared page extend the
        // encoding further. `kv_cow > 0` implies `kv_append > 0` (the
        // `Layer::with_kv_cow` precondition), so the variable-length
        // word list stays prefix-unambiguous.
        if self.kv_cow > 0 {
            words.push(self.kv_cow as u64);
        }
        fnv1a(b"layer", &words)
    }
}

impl fmt::Display for LayerSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.digest())
    }
}

impl Layer {
    /// The layer's [`LayerSignature`]: its content-addressed identity for
    /// mapping and evaluation, covering everything that affects results
    /// and ignoring the name.
    pub fn signature(&self) -> LayerSignature {
        LayerSignature::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_do_not_matter() {
        let a = Layer::conv2d("conv1", 1, 64, 3, 56, 56, 3, 3);
        let b = Layer::conv2d("a-completely-different-name", 1, 64, 3, 56, 56, 3, 3);
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.signature().digest(), b.signature().digest());
    }

    #[test]
    fn per_sample_stationary_is_distinguished() {
        let shared = Layer::matmul("mm", 1, 96, 96, 16).with_groups(4);
        let per_sample = Layer::matmul("mm", 1, 96, 96, 16)
            .with_groups(4)
            .with_per_sample_stationary();
        // At batch 1 the two layers have identical bounds, groups and
        // replicas; only the stationarity flag differs — and it changes
        // how batching scales traffic, so the signatures must differ.
        assert_ne!(shared.signature(), per_sample.signature());
        assert_ne!(shared.signature().digest(), per_sample.signature().digest());
    }

    #[test]
    fn every_shape_knob_is_distinguished() {
        let base = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        let variants = [
            Layer::conv2d("c", 2, 16, 8, 8, 8, 3, 3),
            Layer::conv2d("c", 1, 32, 8, 8, 8, 3, 3),
            Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3).with_stride(2, 1),
            Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3).with_dilation(1, 2),
            Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3).with_groups(2),
            Layer::fully_connected("c", 1, 16, 8 * 8 * 8 * 9),
        ];
        for v in &variants {
            assert_ne!(base.signature(), v.signature(), "{v}");
        }
    }

    #[test]
    fn batching_changes_the_signature() {
        let l = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        assert_ne!(l.signature(), l.clone().with_batch(8).signature());
        let attn = Layer::matmul("a", 1, 8, 8, 8).with_per_sample_stationary();
        assert_ne!(attn.signature(), attn.clone().with_batch(4).signature());
    }

    #[test]
    fn kv_cache_residency_is_distinguished() {
        let plain = Layer::matmul("mm", 1, 96, 96, 1)
            .with_groups(4)
            .with_per_sample_stationary();
        let resident = Layer::matmul("mm", 1, 96, 96, 1)
            .with_groups(4)
            .with_kv_cache_residency(96);
        // Same bounds, groups and stationarity: only the growing-cache
        // annotation differs, and it changes the append energy the
        // evaluator charges — the signatures must differ.
        assert_ne!(plain.signature(), resident.signature());
        assert_ne!(plain.signature().digest(), resident.signature().digest());
        // Different append counts are different identities too.
        let bigger = Layer::matmul("mm", 1, 96, 96, 1)
            .with_groups(4)
            .with_kv_cache_residency(192);
        assert_ne!(resident.signature(), bigger.signature());
        assert_ne!(resident.signature().digest(), bigger.signature().digest());
    }

    #[test]
    fn kv_cow_is_distinguished() {
        let append = Layer::matmul("kv", 1, 96, 96, 1)
            .with_groups(4)
            .with_kv_cache_residency(96);
        let cow = append.clone().with_kv_cow(10 * 96);
        // The copy-on-write privatisation pays extra backing-store
        // traffic, so it is a distinct evaluation identity.
        assert_ne!(append.signature(), cow.signature());
        assert_ne!(append.signature().digest(), cow.signature().digest());
        let bigger = append.clone().with_kv_cow(12 * 96);
        assert_ne!(cow.signature(), bigger.signature());
        assert_ne!(cow.signature().digest(), bigger.signature().digest());
    }

    #[test]
    fn digest_is_stable_across_calls_and_clones() {
        let l = Layer::matmul("mm", 1, 768, 768, 128);
        assert_eq!(l.signature().digest(), l.clone().signature().digest());
        // Pin one digest to a hard constant so accidental encoding
        // changes fail loudly; if this is changed intentionally, any
        // persisted digests (bench artifacts, logs) lose comparability
        // across the change — update the constant knowingly.
        assert_eq!(l.signature().digest(), 0x042c_6127_e10f_8c55);
        assert_eq!(format!("{}", l.signature()).len(), 16);
    }

    #[test]
    fn fnv_helpers_agree_on_word_encoding() {
        let words = [1u64, 0xdead_beef];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend(w.to_le_bytes());
        }
        assert_eq!(fnv1a(b"t", &words), fnv1a_bytes(b"t", &bytes));
        // Tags domain-separate.
        assert_ne!(fnv1a(b"a", &words), fnv1a(b"b", &words));
        assert_ne!(fnv1a_bytes(b"a", &bytes), fnv1a_bytes(b"b", &bytes));
    }

    #[test]
    fn display_is_hex_of_digest() {
        let l = Layer::conv2d("c", 1, 4, 4, 4, 4, 3, 3);
        assert_eq!(
            format!("{}", l.signature()),
            format!("{:016x}", l.signature().digest())
        );
    }
}
