//! Content-addressed evaluation: a shared mapping/eval cache and the
//! [`EvalSession`] front end.
//!
//! Layer evaluation is a pure function of *(architecture, mapping
//! strategy, layer signature, fusion reroute)* — names, execution order
//! and the driver that asked are irrelevant. That makes the hot path of
//! every experiment memoizable: `bert-base` repeats one encoder block 12
//! times (96 layers, 5 unique signatures), ResNet18 repeats its residual
//! stages, and the figure drivers re-evaluate the same *(architecture,
//! layer)* pairs across dozens of sweep configurations.
//!
//! [`EvalSession`] wraps a [`System`] and memoizes
//! [`evaluate_layer`](EvalSession::evaluate_layer) behind a thread-safe
//! [`EvalCache`]; [`evaluate_network`](EvalSession::evaluate_network)
//! groups identical layers, evaluates each unique signature once (cached
//! ones answered on the calling thread, only the misses fanned out over
//! [`SweepRunner`] threads) and reassembles the
//! per-layer results in execution order — **bit-identical** to the
//! sequential [`System::evaluate_network`] path, which the golden suite
//! pins. A serving trace resolves every distinct layer of the trace in
//! one such call and reads each evaluation in place into a layer cost
//! (its scalars and its energy breakdown), without building those
//! per-layer rows.
//!
//! Cache invalidation is by construction: keys embed content fingerprints
//! of the architecture and the strategy, so a changed device constant or
//! search seed simply misses. Sharing one [`EvalCache`] across sessions
//! (see [`EvalSession::with_cache`]) is how sweep drivers reuse work
//! between design points that share an architecture.
//!
//! # Examples
//!
//! ```
//! use lumen_arch::{ArchBuilder, Domain, Fanout};
//! use lumen_core::{EvalSession, MappingStrategy, NetworkOptions, System};
//! use lumen_units::{Energy, Frequency};
//! use lumen_workload::{networks, Dim, DimSet, TensorSet};
//!
//! let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
//!     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(100.0))
//!     .write_energy(Energy::from_picojoules(100.0))
//!     .done()
//!     .storage("glb", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(1.0))
//!     .write_energy(Energy::from_picojoules(1.0))
//!     .fanout(Fanout::new(64).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P])))
//!     .done()
//!     .compute("mac", Domain::DigitalElectrical, Energy::from_picojoules(0.05))
//!     .build()
//!     .unwrap();
//!
//! let session = EvalSession::new(System::new(arch, MappingStrategy::default()));
//! let eval = session
//!     .evaluate_network(&networks::bert_base(), &NetworkOptions::baseline())
//!     .unwrap();
//! // 96 layers, but mapping search ran only for the unique signatures.
//! assert_eq!(eval.per_layer.len(), 96);
//! assert_eq!(session.cache_stats().misses, 5);
//! assert_eq!(session.cache_stats().hits, 91);
//! ```

use crate::evaluator::Reroute;
use crate::network::fusion_reroute;
use crate::{
    LayerEvaluation, MappingStrategy, NetworkEvaluation, NetworkOptions, SweepRunner, System,
    SystemError,
};
use lumen_arch::Architecture;
use lumen_workload::{fnv1a_bytes, Layer, LayerSignature, Network, TensorKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, OnceLock, PoisonError, RwLock};

/// A content fingerprint of an architecture, for evaluation-cache keys.
///
/// Hashes the architecture's complete `Debug` rendering, which spells out
/// every level, energy, capacity, fan-out and per-cycle cost with
/// round-trip `f64` formatting — two architectures with equal
/// fingerprints evaluate every layer identically.
pub fn arch_fingerprint(arch: &Architecture) -> u64 {
    fnv1a_bytes(b"arch", format!("{arch:?}").as_bytes())
}

/// Cache hit/miss counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a full mapping search + energy accounting.
    pub misses: u64,
}

impl CacheStats {
    /// The lookups counted since `before`, an earlier reading of the
    /// same counters.
    #[must_use]
    pub fn since(self, before: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
        }
    }

    /// Lookups counted: hits plus misses.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The key a cached layer evaluation is addressed by: everything the
/// result is a function of, and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EvalKey {
    arch: u64,
    strategy: u64,
    signature: LayerSignature,
    reroute: Vec<(TensorKind, usize, usize)>,
}

/// A thread-safe, shareable map from [`EvalKey`]s to finished layer
/// evaluations (successes *and* mapping failures — a failed search is as
/// expensive as a successful one).
///
/// One cache may back many [`EvalSession`]s — including sessions over
/// *different* systems, since keys embed the architecture and strategy
/// fingerprints. Reads take a shared lock; only insertions of freshly
/// evaluated layers take the exclusive lock. A lock poisoned by a
/// panicking holder is recovered rather than propagated: the map only
/// ever holds finished, content-addressed entries (each inserted whole,
/// under one write), so no holder can leave it half-updated.
#[derive(Default)]
pub struct EvalCache {
    map: RwLock<HashMap<EvalKey, Result<LayerEvaluation, SystemError>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// A lock guard, recovered if a panicking holder poisoned the lock: an
/// [`EvalCache`]'s locked state is never left half-updated.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl EvalCache {
    /// Creates an empty shareable cache.
    pub fn shared() -> Arc<EvalCache> {
        Arc::new(EvalCache::default())
    }

    /// The stored outcome for `key` with a success read through `read`
    /// in place, under the read lock, so it need not be cloned (counts
    /// nothing).
    fn lookup_with<T>(
        &self,
        key: &EvalKey,
        read: impl FnOnce(Cow<'_, LayerEvaluation>) -> T,
    ) -> Option<Result<T, SystemError>> {
        let map = recover(self.map.read());
        Some(match map.get(key)? {
            Ok(eval) => Ok(read(Cow::Borrowed(eval))),
            Err(error) => Err(error.clone()),
        })
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        recover(self.map.read()).len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters since construction (or the last [`clear`]).
    ///
    /// [`clear`]: EvalCache::clear
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        recover(self.map.write()).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// `true` unless the `LUMEN_EVAL_CACHE` environment variable disables
/// caching process-wide (`0` / `off` / `false` / `no`; the CLI's
/// `--no-cache` flag sets it). Resolved once per process.
fn cache_enabled_by_env() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("LUMEN_EVAL_CACHE") {
        Ok(value) => !matches!(
            value.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
        Err(_) => true,
    })
}

/// A [`System`] wrapped with a content-addressed evaluation cache and a
/// parallel network evaluator.
///
/// Construction fingerprints the architecture and strategy once; every
/// layer lookup then keys on `(arch fingerprint, strategy fingerprint,
/// LayerSignature, reroute)`. Results are bit-identical to the uncached
/// [`System`] paths: duplicates are answered with clones of the
/// representative evaluation, and network totals are merged in execution
/// order exactly as the sequential loop does.
#[derive(Debug)]
pub struct EvalSession {
    system: System,
    runner: SweepRunner,
    cache: Option<Arc<EvalCache>>,
    arch_fp: u64,
    strategy_fp: u64,
    /// This session's own lookup counters. The backing [`EvalCache`]
    /// keeps process-wide totals; when the cache is shared, sessions
    /// running concurrently (parallel sweeps, parallel tests) would see
    /// each other's traffic in those, so [`cache_stats`] reports these
    /// per-session counters instead.
    ///
    /// [`cache_stats`]: EvalSession::cache_stats
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalSession {
    /// Wraps `system` with a fresh private cache and a default
    /// [`SweepRunner`] (machine parallelism, `LUMEN_SWEEP_THREADS`
    /// override). Caching is disabled process-wide when the
    /// `LUMEN_EVAL_CACHE` environment variable says so.
    pub fn new(system: System) -> EvalSession {
        let cache = cache_enabled_by_env().then(EvalCache::shared);
        EvalSession::build(system, cache, SweepRunner::new())
    }

    /// Wraps `system` sharing `cache` with other sessions (builder
    /// style). Keys embed the system fingerprints, so sessions over
    /// different systems can safely share one cache.
    ///
    /// When caching is off for this session — `without_cache()` was
    /// called, or the `LUMEN_EVAL_CACHE` environment variable disabled
    /// it process-wide — the argument is ignored and the session stays
    /// uncached. That precedence is load-bearing: it is how the CLI's
    /// `--no-cache` A/B escape hatch overrides the shared caches the
    /// figure drivers and `dse::sweep` pass in.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> EvalSession {
        if self.cache.is_some() {
            self.cache = Some(cache);
        }
        self
    }

    /// Disables memoization for this session (builder style) — the A/B
    /// escape hatch behind the CLI's `--no-cache`. Unique-signature
    /// grouping in [`evaluate_network`](EvalSession::evaluate_network) is
    /// disabled too, so every layer evaluates exactly as the sequential
    /// path would.
    #[must_use]
    pub fn without_cache(mut self) -> EvalSession {
        self.cache = None;
        self
    }

    /// Uses `runner` for the unique-layer fan-out (builder style).
    /// Drivers that already parallelize an outer sweep pass
    /// `SweepRunner::with_threads(1)` to keep the thread count flat.
    #[must_use]
    pub fn with_runner(mut self, runner: SweepRunner) -> EvalSession {
        self.runner = runner;
        self
    }

    fn build(system: System, cache: Option<Arc<EvalCache>>, runner: SweepRunner) -> EvalSession {
        let arch_fp = arch_fingerprint(system.arch());
        let strategy_fp = system.strategy().fingerprint();
        EvalSession {
            system,
            runner,
            cache,
            arch_fp,
            strategy_fp,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The shared cache, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// Hit/miss counters of *this session's* lookups (zeros when caching
    /// is disabled). A shared [`EvalCache`] additionally keeps
    /// process-wide totals across every attached session — read those
    /// via [`EvalCache::stats`]; this accessor stays isolated from
    /// concurrent sessions, so before/after deltas are race-free.
    pub fn cache_stats(&self) -> CacheStats {
        if self.cache.is_none() {
            return CacheStats::default();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Maps and evaluates one layer, answering repeats of the same
    /// signature from the cache.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] if no legal mapping exists; failures
    /// are cached too (a failed search costs as much as a success).
    pub fn evaluate_layer(&self, layer: &Layer) -> Result<LayerEvaluation, SystemError> {
        self.cached_eval(layer, &Reroute::default())
    }

    /// Evaluates every layer of `network` under `options` — same
    /// semantics and bit-identical results to
    /// [`System::evaluate_network`] — but evaluates each unique
    /// *(signature, reroute)* only once: keys already cached are
    /// answered on the calling thread, and only the misses fan out over
    /// this session's [`SweepRunner`].
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] for the earliest (execution-order)
    /// layer that cannot be mapped, exactly as the sequential loop
    /// reports it.
    pub fn evaluate_network(
        &self,
        network: &Network,
        options: &NetworkOptions,
    ) -> Result<NetworkEvaluation, SystemError> {
        let batch = options.batch.max(1);
        let batched = options.batched(network);
        let items = self.rerouted(batched.layers(), options);
        let resolved = self.resolve(&items, owned)?;
        // Reassemble in execution order. Totals are merged per layer —
        // not scaled by multiplicity — so floating-point accumulation
        // matches the sequential path bit for bit.
        let mut per_layer = Vec::with_capacity(items.len());
        let mut energy = self.system.energy_breakdown();
        let mut cycles = 0u64;
        for (i, (layer, _)) in items.iter().enumerate() {
            let eval = resolved.get(i);
            cycles += eval.analysis.cycles;
            energy.merge(&eval.energy);
            let mut eval = eval.clone();
            eval.layer_name = layer.name().to_string();
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

    /// The resolution items of a whole network's `layers`, in execution
    /// order: each layer with the fusion reroute `options` give its
    /// position.
    pub(crate) fn rerouted<'l>(
        &self,
        layers: &'l [Layer],
        options: &NetworkOptions,
    ) -> Vec<(&'l Layer, Reroute)> {
        let last = layers.len().saturating_sub(1);
        layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let reroute = fusion_reroute(self.system.arch(), options.fusion.as_ref(), i, last);
                (layer, reroute)
            })
            .collect()
    }

    /// The resolution step behind every evaluation of more than one
    /// layer: groups `items` — layers, already batched, each with its
    /// fusion reroute — by *(signature, reroute)*, answers cached keys
    /// on the calling thread, fans the misses out over the runner in one
    /// call (a random-search session only; other strategies' misses are
    /// cheap and stay on the calling thread), and credits the hits. Each
    /// unique key's evaluation is read through `read` once, on the
    /// calling thread — a cached one borrowed in place, a fresh one
    /// owned — and callers fold the results by item
    /// through [`Resolved::get`]: [`evaluate_network`] into per-layer
    /// rows, a serving trace into its layer costs. An uncached
    /// session groups nothing and evaluates every item.
    ///
    /// [`evaluate_network`]: EvalSession::evaluate_network
    ///
    /// # Errors
    ///
    /// [`SystemError::NoMapping`] for the first failing item, named
    /// after the first item with its key.
    pub(crate) fn resolve<T>(
        &self,
        items: &[(&Layer, Reroute)],
        mut read: impl FnMut(Cow<'_, LayerEvaluation>) -> T,
    ) -> Result<Resolved<T>, SystemError> {
        // Group items by (signature, reroute), keeping first-occurrence
        // order: the earliest unique key that fails is exactly the item
        // a sequential walk would have failed on.
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(items.len());
        let mut slots: HashMap<(LayerSignature, &Reroute), usize> = HashMap::new();
        for (i, (layer, reroute)) in items.iter().enumerate() {
            if self.cache.is_none() {
                // Uncached A/B mode: no grouping, evaluate every item.
                slot_of.push(unique.len());
                unique.push(i);
                continue;
            }
            let next = unique.len();
            let slot = *slots
                .entry((layer.signature(), reroute))
                .or_insert_with(|| {
                    unique.push(i);
                    next
                });
            slot_of.push(slot);
        }

        // Deduplicated items are cache hits in every sense that
        // matters — lookups answered without mapping search.
        self.credit_cache_hits((slot_of.len() - unique.len()) as u64);

        // Unique keys the cache already holds are answered here, on the
        // calling thread; only the misses fan out over the runner, so a
        // resolution whose layers are all cached spawns no threads.
        // Slots keep first-occurrence order, so the first error among
        // them — cached or fresh — is the earliest failing item.
        // Successes keep whichever name filled the cache; only errors,
        // which the caller sees, are renamed to the asking layer.
        let mut outcomes = Vec::with_capacity(unique.len());
        let mut misses = Vec::new();
        for (slot, &i) in unique.iter().enumerate() {
            let (layer, reroute) = &items[i];
            let cached = self
                .cache
                .as_ref()
                .and_then(|cache| cache.lookup_with(&self.key(layer, reroute), &mut read));
            if cached.is_none() {
                misses.push((slot, i));
            }
            outcomes.push(cached.map(|outcome| outcome.map_err(|e| renamed(e, layer.name()))));
        }
        self.credit_cache_hits((outcomes.len() - misses.len()) as u64);
        let miss = |(slot, i): (usize, usize)| {
            let (layer, reroute) = &items[i];
            (slot, self.cached_eval(layer, reroute))
        };
        // Only a search is worth a thread: every other strategy builds
        // its mapping directly, so a miss is a few analyses (~10 µs),
        // less than spawning the runner's workers costs.
        let fresh: Vec<_> = if matches!(self.system.strategy(), MappingStrategy::RandomSearch(_)) {
            self.runner.run(misses, miss)
        } else {
            misses.into_iter().map(miss).collect()
        };
        for (slot, outcome) in fresh {
            outcomes[slot] = Some(outcome.map(|eval| read(Cow::Owned(eval))));
        }
        let values = outcomes.into_iter().flatten().collect::<Result<_, _>>()?;
        Ok(Resolved { slot_of, values })
    }

    /// Credits `lookups` layer lookups answered without a mapping search
    /// to this session's and its cache's hit counters. A caller that
    /// reuses resolved evaluations across many layer positions (a
    /// serving trace) credits each reused position here, so hit/miss
    /// accounting reads as if every layer had been looked up. A no-op
    /// for an uncached session.
    pub(crate) fn credit_cache_hits(&self, lookups: u64) {
        if let Some(cache) = &self.cache {
            cache.hits.fetch_add(lookups, Ordering::Relaxed);
            self.hits.fetch_add(lookups, Ordering::Relaxed);
        }
    }

    fn key(&self, layer: &Layer, reroute: &Reroute) -> EvalKey {
        EvalKey {
            arch: self.arch_fp,
            strategy: self.strategy_fp,
            signature: layer.signature(),
            reroute: reroute.entries.clone(),
        }
    }

    /// The memoized core: look up, else evaluate and publish. The
    /// returned evaluation (or error) always carries the *requested*
    /// layer's name, regardless of which identically-shaped layer
    /// populated the cache.
    fn cached_eval(
        &self,
        layer: &Layer,
        reroute: &Reroute,
    ) -> Result<LayerEvaluation, SystemError> {
        let Some(cache) = &self.cache else {
            return self.system.evaluate_layer_rerouted(layer, reroute);
        };
        let key = self.key(layer, reroute);
        if let Some(found) = cache.lookup_with(&key, owned) {
            self.credit_cache_hits(1);
            return rename(found, layer.name());
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = self.system.evaluate_layer_rerouted(layer, reroute);
        // Two threads may race to evaluate the same key; both compute the
        // same (deterministic) result, so first-in wins harmlessly.
        recover(cache.map.write())
            .entry(key)
            .or_insert_with(|| outcome.clone());
        outcome
    }
}

/// A read evaluation taken by value: a borrowed (cached) one is cloned.
fn owned(eval: Cow<'_, LayerEvaluation>) -> LayerEvaluation {
    eval.into_owned()
}

/// Stamps the requested layer's name onto a cached outcome.
fn rename(
    outcome: Result<LayerEvaluation, SystemError>,
    name: &str,
) -> Result<LayerEvaluation, SystemError> {
    match outcome {
        Ok(mut eval) => {
            eval.layer_name = name.to_string();
            Ok(eval)
        }
        Err(e) => Err(renamed(e, name)),
    }
}

/// Stamps the requested layer's name onto a cached error.
fn renamed(error: SystemError, name: &str) -> SystemError {
    match error {
        SystemError::NoMapping { cause, .. } => SystemError::NoMapping {
            layer: name.to_string(),
            cause,
        },
        // Serving errors are not per-layer; nothing to rename.
        other => other,
    }
}

/// Resolution items answered by one read evaluation per unique
/// *(signature, reroute)* slot: what [`EvalSession::resolve`] hands its
/// folds.
pub(crate) struct Resolved<T> {
    /// The slot of each item.
    slot_of: Vec<usize>,
    /// One read evaluation per slot. A success was read from whichever
    /// identically-shaped layer filled the cache, so it may carry that
    /// layer's name rather than the item's own.
    values: Vec<T>,
}

impl<T> Resolved<T> {
    /// Item `item`'s read evaluation, borrowed from its slot.
    pub(crate) fn get(&self, item: usize) -> &T {
        &self.values[self.slot_of[item]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_mapper::search::SearchConfig;
    use lumen_units::{Energy, Frequency};
    use lumen_workload::{Dim, DimSet, TensorSet};

    fn toy_arch(mac_pj: f64) -> Architecture {
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

    fn toy_system() -> System {
        System::new(toy_arch(0.05), MappingStrategy::default())
    }

    fn repeated_net() -> Network {
        Network::new("rep")
            .push(Layer::conv2d("a0", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("b", 1, 16, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("a1", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("a2", 1, 8, 8, 8, 8, 3, 3))
    }

    #[test]
    fn identical_layers_evaluate_once() {
        let session = EvalSession::new(toy_system());
        let eval = session
            .evaluate_network(&repeated_net(), &NetworkOptions::baseline())
            .unwrap();
        assert_eq!(eval.per_layer.len(), 4);
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 2, "two unique signatures");
        assert_eq!(stats.hits, 2, "two duplicates answered from cache");
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Per-layer rows keep their own names despite sharing one eval.
        let names: Vec<&str> = eval
            .per_layer
            .iter()
            .map(|l| l.layer_name.as_str())
            .collect();
        assert_eq!(names, vec!["a0", "b", "a1", "a2"]);
    }

    #[test]
    fn cached_network_is_bit_identical_to_sequential() {
        let system = toy_system();
        let options = NetworkOptions::baseline()
            .with_batch(4)
            .with_fusion("dram", "glb");
        let sequential = system.evaluate_network(&repeated_net(), &options).unwrap();
        let session = EvalSession::new(system);
        let cached = session.evaluate_network(&repeated_net(), &options).unwrap();
        assert_eq!(
            sequential.energy.total().picojoules().to_bits(),
            cached.energy.total().picojoules().to_bits()
        );
        assert_eq!(sequential.cycles.to_bits(), cached.cycles.to_bits());
        for (s, c) in sequential.per_layer.iter().zip(&cached.per_layer) {
            assert_eq!(s.layer_name, c.layer_name);
            assert_eq!(s.mapping, c.mapping);
            assert_eq!(
                s.energy.total().picojoules().to_bits(),
                c.energy.total().picojoules().to_bits()
            );
        }
    }

    #[test]
    fn without_cache_disables_memoization_and_grouping() {
        let session = EvalSession::new(toy_system()).without_cache();
        let eval = session
            .evaluate_network(&repeated_net(), &NetworkOptions::baseline())
            .unwrap();
        assert_eq!(eval.per_layer.len(), 4);
        assert_eq!(session.cache_stats(), CacheStats::default());
        assert!(session.cache().is_none());
    }

    #[test]
    fn shared_cache_carries_hits_across_sessions() {
        let cache = EvalCache::shared();
        let layer = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        let first = EvalSession::new(toy_system()).with_cache(Arc::clone(&cache));
        first.evaluate_layer(&layer).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let second = EvalSession::new(toy_system()).with_cache(Arc::clone(&cache));
        second.evaluate_layer(&layer).unwrap();
        assert_eq!(cache.stats().misses, 1, "same system fingerprint: hit");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    /// A thread that panics while holding the map's write lock poisons
    /// it; the cache recovers the lock and keeps serving its finished
    /// entries instead of panicking every later caller.
    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let cache = EvalCache::shared();
        let layer = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        let session = EvalSession::new(toy_system()).with_cache(Arc::clone(&cache));
        let first = session.evaluate_layer(&layer).unwrap();
        let poisoner = Arc::clone(&cache);
        std::thread::spawn(move || {
            let _held = poisoner.map.write();
            panic!("poison the cache lock");
        })
        .join()
        .expect_err("the holder panicked");
        assert!(cache.map.is_poisoned());
        let again = session.evaluate_layer(&layer).unwrap();
        assert_eq!(again.energy.total(), first.energy.total());
        assert_eq!(cache.stats().misses, 1, "served from the poisoned map");
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn different_architectures_do_not_collide() {
        let cache = EvalCache::shared();
        let layer = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        let cheap = EvalSession::new(System::new(toy_arch(0.05), MappingStrategy::default()))
            .with_cache(Arc::clone(&cache));
        let pricey = EvalSession::new(System::new(toy_arch(5.0), MappingStrategy::default()))
            .with_cache(Arc::clone(&cache));
        let a = cheap.evaluate_layer(&layer).unwrap();
        let b = pricey.evaluate_layer(&layer).unwrap();
        assert_eq!(cache.stats().misses, 2, "distinct arch fingerprints");
        assert!(b.energy.total() > a.energy.total());
    }

    #[test]
    fn different_strategies_do_not_collide() {
        let cache = EvalCache::shared();
        let layer = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        let greedy = EvalSession::new(System::new(toy_arch(0.05), MappingStrategy::default()))
            .with_cache(Arc::clone(&cache));
        let searched = EvalSession::new(System::new(
            toy_arch(0.05),
            MappingStrategy::RandomSearch(SearchConfig {
                iterations: 40,
                seed: 7,
            }),
        ))
        .with_cache(Arc::clone(&cache));
        greedy.evaluate_layer(&layer).unwrap();
        searched.evaluate_layer(&layer).unwrap();
        assert_eq!(cache.stats().misses, 2, "distinct strategy fingerprints");
    }

    #[test]
    fn mapping_failures_are_cached_with_the_right_name() {
        // A buffer too small for any tile: every layer fails to map.
        let arch = ArchBuilder::new("tiny", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .capacity_bits(8)
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let session = EvalSession::new(System::new(
            arch,
            MappingStrategy::Greedy { temporal_level: 1 },
        ));
        let first = Layer::conv2d("first", 1, 16, 8, 8, 8, 3, 3);
        let twin = Layer::conv2d("twin", 1, 16, 8, 8, 8, 3, 3);
        let e1 = session.evaluate_layer(&first).unwrap_err();
        let e2 = session.evaluate_layer(&twin).unwrap_err();
        assert_eq!(session.cache_stats().misses, 1, "failure was cached");
        assert_eq!(session.cache_stats().hits, 1);
        let SystemError::NoMapping { layer: l1, .. } = e1 else {
            panic!("expected NoMapping, got {e1}");
        };
        let SystemError::NoMapping { layer: l2, .. } = e2 else {
            panic!("expected NoMapping, got {e2}");
        };
        assert_eq!(l1, "first");
        assert_eq!(l2, "twin", "cached error renamed to the asking layer");
    }

    #[test]
    fn network_error_matches_sequential_choice() {
        let arch = ArchBuilder::new("tiny", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .capacity_bits(64)
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        // All temporal loops at the compute level: the buffer must hold
        // each layer's whole tensors, so the tiny layer maps (3 elements)
        // and the big twins blow the 64-bit capacity.
        let system = System::new(
            arch,
            MappingStrategy::Planned {
                priority: lumen_mapper::search::DEFAULT_SPATIAL_PRIORITY.to_vec(),
                plan: lumen_mapper::search::TemporalPlan::all_at(2),
            },
        );
        let net = Network::new("n")
            .push(Layer::conv2d("ok", 1, 1, 1, 1, 1, 1, 1))
            .push(Layer::conv2d("big0", 1, 64, 64, 32, 32, 3, 3))
            .push(Layer::conv2d("big1", 1, 64, 64, 32, 32, 3, 3));
        let sequential = system
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap_err();
        let cached = EvalSession::new(system)
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap_err();
        assert_eq!(sequential, cached, "same earliest-layer error");
    }

    #[test]
    fn inline_cached_failures_keep_the_earliest_failing_layer() {
        let arch = ArchBuilder::new("tiny", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .capacity_bits(64)
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let system = System::new(
            arch,
            MappingStrategy::Planned {
                priority: lumen_mapper::search::DEFAULT_SPATIAL_PRIORITY.to_vec(),
                plan: lumen_mapper::search::TemporalPlan::all_at(2),
            },
        );
        // Two distinct shapes that both overflow the 64-bit buffer.
        let wide = |name: &str| Layer::conv2d(name, 1, 64, 64, 32, 32, 3, 3);
        let narrow = |name: &str| Layer::conv2d(name, 1, 32, 64, 32, 32, 3, 3);
        let ok = Layer::conv2d("ok", 1, 1, 1, 1, 1, 1, 1);
        // `wide` fails from the cache (answered inline, renamed to the
        // asking layer); `narrow` fails fresh in the runner. Whichever
        // comes first in execution order must win, as sequentially.
        let cached_first = Network::new("n")
            .push(ok.clone())
            .push(wide("cached"))
            .push(narrow("fresh"));
        let fresh_first = Network::new("n")
            .push(ok)
            .push(narrow("fresh"))
            .push(wide("cached"));
        for (net, failing) in [(cached_first, "cached"), (fresh_first, "fresh")] {
            let session = EvalSession::new(system.clone());
            session.evaluate_layer(&wide("warm-up")).unwrap_err();
            let sequential = system
                .evaluate_network(&net, &NetworkOptions::baseline())
                .unwrap_err();
            let inline = session
                .evaluate_network(&net, &NetworkOptions::baseline())
                .unwrap_err();
            assert_eq!(inline, sequential);
            let SystemError::NoMapping { layer, .. } = inline else {
                panic!("expected NoMapping, got {inline}");
            };
            assert_eq!(layer, failing);
            // Warm-up, `ok` and `narrow` missed; `wide` hit inline.
            assert_eq!(session.cache_stats(), CacheStats { hits: 1, misses: 3 });
        }
    }

    #[test]
    fn fused_edges_get_distinct_cache_slots() {
        // Three identical layers under fusion: first, middle and last
        // carry different reroutes, so nothing may be shared blindly.
        let net = Network::new("n")
            .push(Layer::conv2d("x0", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("x1", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("x2", 1, 8, 8, 8, 8, 3, 3));
        let system = toy_system();
        let options = NetworkOptions::baseline().with_fusion("dram", "glb");
        let sequential = system.evaluate_network(&net, &options).unwrap();
        let session = EvalSession::new(system);
        let cached = session.evaluate_network(&net, &options).unwrap();
        // First/middle/last all differ: three unique (signature, reroute)
        // pairs even though the signatures are equal.
        assert_eq!(session.cache_stats().misses, 3);
        for (s, c) in sequential.per_layer.iter().zip(&cached.per_layer) {
            assert_eq!(
                s.energy.total().picojoules().to_bits(),
                c.energy.total().picojoules().to_bits(),
                "{}",
                s.layer_name
            );
        }
    }

    #[test]
    fn non_search_misses_stay_on_the_calling_thread() {
        use crate::MappingFn;
        use lumen_mapper::search::{greedy_mapping, spatial_priority_for, TemporalPlan};
        use std::sync::Mutex;
        use std::thread::ThreadId;
        let threads: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let seen = Arc::clone(&threads);
        let f: Arc<MappingFn> = Arc::new(move |arch, layer| {
            recover(seen.lock()).push(std::thread::current().id());
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        });
        let net = Network::new("distinct")
            .push(Layer::conv2d("a", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("b", 1, 16, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("c", 1, 32, 8, 8, 8, 3, 3));
        let custom = EvalSession::new(System::new(
            toy_arch(0.05),
            MappingStrategy::custom_keyed(1, f),
        ))
        .with_runner(SweepRunner::with_threads(4));
        custom
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap();
        // Three misses, all mapped on the calling thread.
        assert_eq!(
            *recover(threads.lock()),
            vec![std::thread::current().id(); 3]
        );
    }

    #[test]
    fn keyed_custom_strategies_share_cache_across_rebuilds() {
        use lumen_mapper::search::{greedy_mapping, spatial_priority_for, TemporalPlan};
        let cache = EvalCache::shared();
        // Each call allocates a fresh closure, as a config's
        // `build_system` would; the caller-vouched key makes them
        // interchangeable in the cache.
        let make = || {
            System::new(
                toy_arch(0.05),
                MappingStrategy::custom_keyed(
                    0xA1B2,
                    Arc::new(|arch, layer| {
                        greedy_mapping(
                            arch,
                            layer,
                            spatial_priority_for(layer),
                            &TemporalPlan::all_at(1),
                        )
                    }),
                ),
            )
        };
        let layer = Layer::conv2d("c", 1, 16, 8, 8, 8, 3, 3);
        EvalSession::new(make())
            .with_cache(Arc::clone(&cache))
            .evaluate_layer(&layer)
            .unwrap();
        EvalSession::new(make())
            .with_cache(Arc::clone(&cache))
            .evaluate_layer(&layer)
            .unwrap();
        assert_eq!(cache.stats().misses, 1, "equal keys share entries");
        assert_eq!(cache.stats().hits, 1);
        // A different key is a different strategy.
        let other = MappingStrategy::custom_keyed(
            0xFFFF,
            Arc::new(|arch, layer| {
                greedy_mapping(
                    arch,
                    layer,
                    spatial_priority_for(layer),
                    &TemporalPlan::all_at(1),
                )
            }),
        );
        assert_ne!(other.fingerprint(), make().strategy().fingerprint());
    }

    #[test]
    fn arch_fingerprint_distinguishes_energy_tweaks() {
        assert_ne!(
            arch_fingerprint(&toy_arch(0.05)),
            arch_fingerprint(&toy_arch(0.06))
        );
        assert_eq!(
            arch_fingerprint(&toy_arch(0.05)),
            arch_fingerprint(&toy_arch(0.05))
        );
    }

    #[test]
    fn strategy_fingerprints_distinguish_variants() {
        let fps = [
            MappingStrategy::Greedy { temporal_level: 0 }.fingerprint(),
            MappingStrategy::Greedy { temporal_level: 1 }.fingerprint(),
            MappingStrategy::RandomSearch(SearchConfig {
                iterations: 100,
                seed: 1,
            })
            .fingerprint(),
            MappingStrategy::RandomSearch(SearchConfig {
                iterations: 100,
                seed: 2,
            })
            .fingerprint(),
            MappingStrategy::default().fingerprint(),
        ];
        // Greedy{1} == default; everything else distinct.
        assert_eq!(fps[1], fps[4]);
        for (i, a) in fps.iter().enumerate() {
            for (j, b) in fps.iter().enumerate() {
                if i < j && !(i == 1 && j == 4) {
                    assert_ne!(a, b, "fingerprints {i} and {j} collide");
                }
            }
        }
    }
}
