//! Mapping construction and search.
//!
//! Three engines with different determinism/coverage tradeoffs:
//!
//! * [`greedy_spatial`] + [`TemporalPlan`] — deterministic construction:
//!   pack every fan-out with the highest-priority usable dimensions, then
//!   place leftover temporal loops per an explicit plan. Experiments use
//!   this for reproducible, paper-dataflow mappings.
//! * [`random_search`] — seeded random tilings with best-of-N selection
//!   under a caller-supplied cost function (e.g. full-system energy).
//! * [`exhaustive_search`] — enumerates per-dimension temporal homes for
//!   small problems; ground truth for tests.

use crate::analysis::Nest;
use crate::{analyze, KeeperTraffic, LayerAnalysis, Loop, Mapping};
use lumen_arch::Architecture;
use lumen_workload::{Dim, DimMap, Layer, LayerKind, TensorKind, WordHasher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Default spatial packing priority: parallelize output channels and
/// spatial window dims first (they are the broadcast-friendly dims in
/// photonic dataflows), batch last.
pub const DEFAULT_SPATIAL_PRIORITY: [Dim; 7] =
    [Dim::M, Dim::C, Dim::R, Dim::S, Dim::Q, Dim::P, Dim::N];

/// Spatial packing priority for GEMM-shaped layers: there is no sliding
/// window to exploit (`Q = R = S = 1`), so after output features the
/// independent output rows (`P`, the sequence dimension) are the
/// broadcast-friendly axis — parallelizing rows multicasts the stationary
/// operand without creating a spatial reduction, whereas `C` lanes need
/// partial-sum merging.
pub const MATMUL_SPATIAL_PRIORITY: [Dim; 7] =
    [Dim::M, Dim::P, Dim::C, Dim::N, Dim::Q, Dim::R, Dim::S];

/// The spatial packing priority suited to `layer`'s operator class:
/// [`MATMUL_SPATIAL_PRIORITY`] for [`LayerKind::Matmul`],
/// [`DEFAULT_SPATIAL_PRIORITY`] otherwise. (Fully-connected layers keep
/// the default: with `P = 1` the two orders coincide, and existing
/// dataflows depend on the default.)
pub fn spatial_priority_for(layer: &Layer) -> &'static [Dim; 7] {
    match layer.kind() {
        LayerKind::Matmul => &MATMUL_SPATIAL_PRIORITY,
        _ => &DEFAULT_SPATIAL_PRIORITY,
    }
}

/// Greedily packs every fan-out of `arch` with spatial loops for `layer`.
///
/// Walks levels outermost→innermost; at each fan-out, assigns dimensions
/// in `priority` order, taking as much of each dimension's remaining
/// extent as fits. Returns the partially-built mapping plus each
/// dimension's leftover (ceil) extent for temporal placement.
///
/// # Examples
///
/// ```
/// use lumen_arch::{ArchBuilder, Domain, Fanout};
/// use lumen_mapper::search::{greedy_spatial, DEFAULT_SPATIAL_PRIORITY};
/// use lumen_units::{Energy, Frequency};
/// use lumen_workload::{Dim, DimSet, Layer, TensorSet};
///
/// let arch = ArchBuilder::new("t", Frequency::from_gigahertz(1.0))
///     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
///     .done()
///     .storage("buf", Domain::DigitalElectrical, TensorSet::all())
///     .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M])))
///     .done()
///     .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
///     .build()
///     .unwrap();
/// let layer = Layer::conv2d("l", 1, 16, 4, 8, 8, 3, 3);
/// let (mapping, leftover) = greedy_spatial(&arch, &layer, &DEFAULT_SPATIAL_PRIORITY);
/// assert_eq!(mapping.total_bound(Dim::M), 8); // fanout filled
/// assert_eq!(leftover[Dim::M], 2); // 16 / 8 remains temporal
/// ```
pub fn greedy_spatial(
    arch: &Architecture,
    layer: &Layer,
    priority: &[Dim],
) -> (Mapping, DimMap<usize>) {
    let mut mapping = Mapping::new(arch.levels().len());
    let mut remaining = DimMap::from_fn(|d| layer.shape()[d]);
    for (x, level) in arch.levels().iter().enumerate() {
        let mut capacity = level.fanout().size();
        if capacity <= 1 {
            continue;
        }
        let usable = level.fanout().usable_dims(layer);
        for &d in priority {
            if capacity <= 1 {
                break;
            }
            if !usable.contains(d) || remaining[d] <= 1 {
                continue;
            }
            let f = remaining[d].min(capacity);
            mapping.push_spatial(x, d, f);
            remaining[d] = remaining[d].div_ceil(f);
            capacity /= f;
        }
    }
    (mapping, remaining)
}

/// Where leftover temporal extents go after spatial packing.
///
/// Dimensions listed in `assignments` are placed at their level in the
/// given order (outermost first within a level); unlisted dimensions fall
/// back to `default_level`, appended outer→inner in the order
/// `N, P, Q, M, C, R, S` (reduction loops innermost, which keeps partial
/// sums resident — the usual output-stationary default).
#[derive(Debug, Clone)]
pub struct TemporalPlan {
    /// `(storage level index, dims outer→inner)` placements.
    pub assignments: Vec<(usize, Vec<Dim>)>,
    /// Level for dimensions not mentioned in `assignments`.
    pub default_level: usize,
}

impl TemporalPlan {
    /// Places everything at `level`.
    pub fn all_at(level: usize) -> TemporalPlan {
        TemporalPlan {
            assignments: Vec::new(),
            default_level: level,
        }
    }

    /// Builds the complete mapping from a spatially-packed prefix.
    pub fn apply(&self, mut mapping: Mapping, leftover: &DimMap<usize>) -> Mapping {
        const DEFAULT_ORDER: [Dim; 7] = [Dim::N, Dim::P, Dim::Q, Dim::M, Dim::C, Dim::R, Dim::S];
        let mut placed = [false; 7];
        for (level, dims) in &self.assignments {
            for &d in dims {
                if leftover[d] > 1 {
                    mapping.push_temporal(*level, d, leftover[d]);
                }
                placed[d.index()] = true;
            }
        }
        for d in DEFAULT_ORDER {
            if !placed[d.index()] && leftover[d] > 1 {
                mapping.push_temporal(self.default_level, d, leftover[d]);
            }
        }
        mapping
    }
}

/// A complete deterministic mapping: greedy spatial packing plus a
/// temporal plan.
pub fn greedy_mapping(
    arch: &Architecture,
    layer: &Layer,
    priority: &[Dim],
    plan: &TemporalPlan,
) -> Mapping {
    let (mapping, leftover) = greedy_spatial(arch, layer, priority);
    plan.apply(mapping, &leftover)
}

/// Configuration for [`random_search`].
///
/// A `SearchConfig` fully determines the candidate sequence: the search
/// draws from an [`StdRng`] seeded with `seed`, so equal configs produce
/// bit-identical winning mappings on equal *(architecture, layer)*
/// inputs. The derived `Eq` / `Hash` make that guarantee a typed one —
/// content-addressed evaluation caches key on the config itself, which is
/// sound precisely because the search is a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchConfig {
    /// Number of random candidates to draw.
    pub iterations: usize,
    /// RNG seed (searches are reproducible).
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 500,
            seed: 0xC1A0,
        }
    }
}

/// The outcome of a search: the best mapping, its analysis and its cost.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The winning mapping.
    pub mapping: Mapping,
    /// Its nest analysis.
    pub analysis: LayerAnalysis,
    /// Its cost under the caller's objective.
    pub cost: f64,
    /// Legal candidates whose cost was actually evaluated (duplicates
    /// and pruned candidates are excluded).
    pub evaluated: usize,
    /// Candidates skipped before their preview because an earlier
    /// candidate had the same temporal loops, in the same order, at
    /// every level above compute: the loops [`analyze`] reads (the
    /// compute level's are fixed by the rest, and their order is never
    /// read). Such a candidate's analysis and cost equal the earlier
    /// one's bit for bit, so it could never strictly beat it.
    pub deduped: usize,
    /// Candidates skipped because a lower bound on their cost already
    /// met or exceeded the incumbent's.
    pub pruned: usize,
}

impl SearchResult {
    /// Candidates skipped without an `analyze` call: `deduped + pruned`.
    pub fn skipped(&self) -> usize {
        self.deduped + self.pruned
    }
}

/// What a lower bound may read about a candidate before its full
/// analysis. Every field is bit-identical to what [`analyze`] reports
/// for the candidate.
///
/// The engine previews a candidate in two stages (see
/// [`random_search`]): the first fills every field but
/// `conversions`, which it leaves empty; the second, reached only by a
/// candidate the first did not prune and that fits every bounded
/// buffer, fills `conversions` too.
#[derive(Debug, Clone, Copy)]
pub struct Preview<'a> {
    /// [`LayerAnalysis::cycles`].
    pub cycles: u64,
    /// [`LayerAnalysis::padded_macs`].
    pub padded_macs: u64,
    /// [`LayerAnalysis::spatial_utilization`].
    pub spatial_utilization: f64,
    /// The complete traffic at each kept tensor's outermost keeper:
    /// the read tensors' reads (the values
    /// [`outer_read_traffic`](crate::outer_read_traffic) returns) and
    /// fills, and the output's updates, read-backs, flushes and
    /// refills. Weights, inputs and outputs, in that order; a tensor no
    /// level keeps is absent.
    pub outer_traffic: &'a [KeeperTraffic],
    /// `(converter level, tensor, conversions)` of every converter whose
    /// next keeper of that tensor is compute, each equal to the
    /// [`LevelTraffic::conversions`](crate::LevelTraffic::conversions)
    /// entry; empty in the first stage.
    pub conversions: &'a [(usize, TensorKind, f64)],
}

/// Seeded random mapping search.
///
/// Spatial packing is fixed (greedy); temporal factorizations and level
/// placements are randomized. Candidates failing validation or capacity
/// checks are discarded, and a candidate whose analysis an earlier one
/// already fixes (the same temporal loops at every level above compute;
/// see [`SearchResult::deduped`]) is skipped before analysis (the winner
/// is unaffected: a duplicate can never *strictly* beat the identical
/// candidate that preceded it). Returns `None` if no legal candidate was
/// found.
///
/// With a `lower_bound` on the cost of a candidate, computed from its
/// [`Preview`] (before the full nest analysis), candidates whose bound
/// already meets or exceeds the incumbent's cost are skipped without an
/// `analyze` call. The bound is checked in two stages. The first
/// previews every new candidate without its converter crossings; a
/// candidate it does not prune and that fits every bounded buffer is
/// previewed again with them (when the architecture has a converter
/// feeding compute), and checked again before its analysis is
/// completed. A candidate either stage skips counts in
/// [`SearchResult::pruned`].
///
/// The bound must satisfy `lower_bound(preview(m)) ≤ cost(analyze(m))`
/// for every legal mapping `m` and both stages' previews (a small
/// relative safety margin is applied internally to absorb
/// floating-point summation-order noise).
/// Under that contract the winning mapping and cost are bit-identical to
/// the search without a bound: acceptance is strict (`<`), so a
/// candidate at or above the incumbent could never have won.
pub fn random_search(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    lower_bound: Option<&dyn Fn(&Preview<'_>) -> f64>,
    cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    search_core(arch, layer, config, lower_bound, true, cost)
}

/// Reference implementation without deduplication or pruning: every
/// legal candidate is analyzed, duplicates included. Exists so benches
/// can A/B the optimized path against the naive one while asserting
/// bit-identical winners; not part of the supported API.
#[doc(hidden)]
pub fn random_search_baseline(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    search_core(arch, layer, config, None, false, cost)
}

/// Relative safety margin applied to lower bounds before pruning: shrinks
/// the bound so floating-point summation-order noise can never promote a
/// would-have-won candidate into the pruned set.
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Shared engine behind [`random_search`] and
/// [`random_search_baseline`]. Candidate *generation* is identical with
/// and without dedup and a bound — every RNG draw for an
/// iteration happens before the dedup/prune decision — so skipping a
/// candidate leaves the stream, and therefore every later candidate,
/// untouched.
///
/// Every candidate shares the greedy spatial base, so one [`Nest`]
/// context serves the whole search and a candidate's temporal loops
/// alone identify it. Candidates are built in place, analyzed into a
/// reused [`LayerAnalysis`], and swapped with the incumbent when they
/// win, so a candidate costs no heap allocation.
///
/// Whatever every candidate shares is settled once per search: the
/// [`Candidates`] tables each chunk is drawn from, and the
/// [`Mapping::validate`] verdict (the spatial loops are the base's,
/// temporal loops go only to storage levels and compute, and each
/// dimension's temporal chunks multiply to exactly its leftover extent).
/// A candidate then costs its draws and one [`KeySet`] probe on the loops
/// its analysis reads. Only if those are new does it pay for a
/// [`Nest::load_preview`] of just what the first-stage bound and the
/// capacity check read, the bound and the check. A candidate that passes
/// both pays for [`Nest::load_deep_footprints`], [`Nest::load_crossings`]
/// and the second-stage bound; only one that passes that too pays for
/// [`Nest::load_rest`], the analysis and the cost. Under the system
/// energy bound, which charges every DRAM and conversion term the
/// preview fixes, the `dse_search` sweep (Albireo, 400 candidates, 1088
/// searches, seed 1) dedups 169 k of its 435 k candidates, previews the
/// other 266 k and analyzes 32 k of those.
fn search_core(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    lower_bound: Option<&dyn Fn(&Preview<'_>) -> f64>,
    dedup: bool,
    mut cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    let (base, leftover) = greedy_spatial(arch, layer, spatial_priority_for(layer));
    let mut candidates = Candidates::new(arch, &leftover, config.seed);
    // Every candidate validates exactly as the base with its leftover
    // extents placed whole at one temporal level does.
    let representative =
        TemporalPlan::all_at(*candidates.levels.first()?).apply(base.clone(), &leftover);
    if representative.validate(arch, layer).is_err() {
        return None;
    }
    let mut nest = Nest::new(arch, layer, &base);
    let mut seen = KeySet::new(
        candidates.max_loops(),
        if dedup { config.iterations } else { 0 },
    );
    let mut candidate = base.clone();
    let mut analysis = LayerAnalysis::default();
    let mut best_mapping = base;
    let mut best_analysis = LayerAnalysis::default();
    let mut best_cost: Option<f64> = None;
    let mut evaluated = 0usize;
    let mut deduped = 0usize;
    let mut pruned = 0usize;
    for _ in 0..config.iterations {
        candidates.draw(&mut candidate);
        // All RNG draws for this iteration are complete: skipping from
        // here on cannot perturb later candidates.
        if dedup && seen.find_or_insert(&candidate).is_some() {
            deduped += 1;
            continue;
        }
        nest.load_preview(&candidate);
        let first = lower_bound.map(|lb| lb(&preview(&nest, false)));
        if let (Some(bv), Some(b)) = (first, best_cost) {
            if bv * PRUNE_MARGIN >= b {
                pruned += 1;
                continue;
            }
        }
        debug_assert_eq!(
            candidate.validate(arch, layer),
            Ok(()),
            "a candidate's legality differs from its search's"
        );
        if nest.overflow().is_some() {
            continue;
        }
        nest.load_deep_footprints(&candidate);
        let second = match lower_bound {
            Some(lb) if nest.feeds_compute() => {
                nest.load_crossings();
                let bv = lb(&preview(&nest, true));
                if best_cost.is_some_and(|b| bv * PRUNE_MARGIN >= b) {
                    pruned += 1;
                    continue;
                }
                Some(bv)
            }
            _ => None,
        };
        nest.load_rest(&candidate);
        nest.run(&mut analysis);
        evaluated += 1;
        let c = cost(&analysis);
        for bv in [first, second].into_iter().flatten() {
            debug_assert!(
                bv <= c * (1.0 + 1e-6),
                "lower bound {bv} exceeds true cost {c}: pruning would be unsound"
            );
        }
        if best_cost.is_none_or(|b| c < b) {
            // Both mappings carry the spatial base, and the next
            // iteration rebuilds the candidate's temporal loops, so a
            // swap keeps every buffer.
            std::mem::swap(&mut best_mapping, &mut candidate);
            std::mem::swap(&mut best_analysis, &mut analysis);
            best_cost = Some(c);
        }
    }
    // Bookkeeping is stamped exactly once, after the loop: the fields
    // describe the whole search, not the state at the last improvement.
    best_cost.map(|cost| SearchResult {
        mapping: best_mapping,
        analysis: best_analysis,
        cost,
        evaluated,
        deduped,
        pruned,
    })
}

/// The loaded candidate's [`Preview`]: its first stage, or with
/// `crossings` its second.
fn preview<'n>(nest: &'n Nest<'_>, crossings: bool) -> Preview<'n> {
    Preview {
        cycles: nest.cycles(),
        padded_macs: nest.padded_macs(),
        spatial_utilization: nest.spatial_utilization(),
        outer_traffic: nest.outer_traffic(),
        conversions: if crossings { nest.crossings() } else { &[] },
    }
}

/// The candidate stream of one search.
///
/// A candidate splits each dimension's leftover extent into up to one
/// chunk per temporal level (every level but the converters takes
/// temporal loops), each a divisor above 1 of what the earlier ones
/// left and the last taking the rest, so a dimension's chunks multiply
/// to exactly its leftover extent. Each chunk goes to a random temporal
/// level, and then each level's loops are shuffled.
struct Candidates {
    rng: StdRng,
    /// The temporal levels, outer→inner.
    levels: Vec<usize>,
    divisors: Divisors,
    /// Each dimension's first chunk divides its whole leftover extent.
    firsts: [Option<usize>; 7],
}

impl Candidates {
    /// The stream of a search of `arch` with these leftover extents,
    /// drawn from an [`StdRng`] seeded with `seed`.
    fn new(arch: &Architecture, leftover: &DimMap<usize>, seed: u64) -> Candidates {
        let levels = arch
            .levels()
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.kind().is_converter())
            .map(|(i, _)| i)
            .collect();
        let divisors = Divisors::new(Dim::ALL.iter().map(|&d| leftover[d]));
        let firsts = Dim::ALL.map(|d| divisors.entry(leftover[d]));
        Candidates {
            rng: StdRng::seed_from_u64(seed),
            levels,
            divisors,
            firsts,
        }
    }

    /// The most loops a candidate has: a split dimension draws at most
    /// one chunk per temporal level.
    fn max_loops(&self) -> usize {
        self.levels.len() * self.firsts.iter().flatten().count()
    }

    /// Rebuilds `candidate`'s temporal loops as the next draw.
    fn draw(&mut self, candidate: &mut Mapping) {
        for &x in &self.levels {
            candidate.temporal_mut(x).clear();
        }
        for (d, first) in Dim::ALL.into_iter().zip(self.firsts) {
            let Some(mut remaining) = first else {
                continue;
            };
            let chunks = self.rng.gen_range(1..=self.levels.len());
            for i in 0..chunks {
                let (f, rest) = if i + 1 == chunks {
                    (self.divisors.values[remaining], None)
                } else {
                    self.divisors.draw(remaining, &mut self.rng)
                };
                let level = self.levels[self.rng.gen_range(0..self.levels.len())];
                candidate
                    .temporal_mut(level)
                    .push(Loop { dim: d, bound: f });
                match rest {
                    Some(rest) => remaining = rest,
                    None => break,
                }
            }
        }
        // Random order within each level.
        for &x in &self.levels {
            shuffle(candidate.temporal_mut(x), &mut self.rng);
        }
    }
}

/// An exact set of search candidates, keyed on what [`analyze`] reads of
/// them: their temporal loops, in order, at every level above compute
/// (every candidate of one search shares its spatial loops).
///
/// Every storage level keeps a tensor (a builder rejects one that keeps
/// none), so every level above compute that takes temporal loops is a
/// keeper, and a keeper's refetch multiplicities read the order of every
/// loop down to it. Compute's loops reach the analysis only through
/// their per-dimension products, which the leftover extents fix given
/// the loops above. So two candidates with equal keys have bit-identical
/// analyses, and the later one can never strictly beat the earlier.
///
/// Keys are stored flat, each as the words its loops pack into, so once
/// the capacity for a search's candidates is reserved, testing and
/// inserting a key allocates nothing. A probe writes the candidate's key
/// in place at the end, hashing it one [`WordHasher`] step per word,
/// then compares it against the keys along its fingerprint's chain, so
/// dedup stays exact. A probe costs ~0.1 µs on Albireo's searches,
/// about a quarter of what padding each key to the widest one, hashing
/// it byte by byte with FNV-1a and probing a SipHash map cost.
struct KeySet {
    /// Key `i` is `words[starts[i]..starts[i + 1]]`.
    words: Vec<u64>,
    starts: Vec<usize>,
    /// Fingerprint → the most recently inserted key with it.
    heads: HashMap<u64, usize, BuildHasherDefault<WordHasher>>,
    /// Key `i`'s predecessor with the same fingerprint.
    older: Vec<Option<usize>>,
}

impl KeySet {
    /// A set for keys of up to `max_loops` loops, with room reserved for
    /// `keys` keys.
    fn new(max_loops: usize, keys: usize) -> KeySet {
        let mut starts = Vec::with_capacity(keys + 1);
        starts.push(0);
        KeySet {
            // The key under test is written past the last key.
            words: Vec::with_capacity((keys + 1) * 2 * max_loops),
            starts,
            heads: HashMap::with_capacity_and_hasher(keys, BuildHasherDefault::default()),
            older: Vec::with_capacity(keys),
        }
    }

    /// The index of the earlier key equal to `mapping`'s, or `None`
    /// after inserting it (keys are numbered in insertion order).
    fn find_or_insert(&mut self, mapping: &Mapping) -> Option<usize> {
        // A loop packs exactly as `(bound, level · 7 + dim)`, levels in
        // order, so equal words are equal loops.
        let start = self.words.len();
        let mut hasher = WordHasher::default();
        // Compute is the last level.
        let above_compute = &mapping.levels()[..mapping.levels().len().saturating_sub(1)];
        for (x, level) in above_compute.iter().enumerate() {
            for l in &level.temporal {
                for word in [l.bound as u64, (x * Dim::ALL.len() + l.dim.index()) as u64] {
                    hasher.write_u64(word);
                    self.words.push(word);
                }
            }
        }
        let fingerprint = hasher.finish();
        let mut at = self.heads.get(&fingerprint).copied();
        while let Some(i) = at {
            if self.words[self.starts[i]..self.starts[i + 1]] == self.words[start..] {
                self.words.truncate(start);
                return Some(i);
            }
            at = self.older[i];
        }
        self.older
            .push(self.heads.insert(fingerprint, self.older.len()));
        self.starts.push(self.words.len());
        None
    }
}

/// The divisors a search's temporal chunks are drawn from, tabled once
/// per search.
///
/// A dimension's first chunk divides its leftover extent `L`, and each
/// later one divides what the earlier ones left, itself a divisor of
/// `L`. So the table holds, for every divisor `v ≥ 2` of every leftover
/// extent, the ascending divisors `f ≥ 2` of `v`, each with the entry of
/// `v / f`. A draw is one `gen_range` over `v`'s list: exactly the draw
/// of a uniform pick among the divisors `2..=v`, so the RNG stream is
/// the one a per-draw divisor scan consumes.
struct Divisors {
    /// Every tabled extent, ascending.
    values: Vec<usize>,
    /// `values[i]`'s draws are `draws[spans[i].clone()]`.
    spans: Vec<Range<usize>>,
    /// A divisor `f ≥ 2` of its extent `v`, and the entry of `v / f`
    /// (`None` when `f = v`: nothing remains).
    draws: Vec<(usize, Option<usize>)>,
}

impl Divisors {
    /// The table for `extents` (extents of at most 1 add nothing).
    fn new(extents: impl IntoIterator<Item = usize>) -> Divisors {
        let mut values = Vec::new();
        for v in extents.into_iter().filter(|&v| v > 1) {
            let small = (1..)
                .take_while(|&d| d <= v / d)
                .filter(|&d| v.is_multiple_of(d));
            for d in small {
                values.push(v / d);
                if d > 1 {
                    values.push(d);
                }
            }
        }
        values.sort_unstable();
        values.dedup();
        let mut spans = Vec::with_capacity(values.len());
        let mut draws = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let start = draws.len();
            // Every divisor of `v` divides a leftover extent, so it and
            // its cofactor are tabled.
            for &f in values[..=i].iter().filter(|&&f| v.is_multiple_of(f)) {
                draws.push((f, values.binary_search(&(v / f)).ok()));
            }
            spans.push(start..draws.len());
        }
        Divisors {
            values,
            spans,
            draws,
        }
    }

    /// The entry of extent `v`, if it is tabled (`v ≥ 2`).
    fn entry(&self, v: usize) -> Option<usize> {
        self.values.binary_search(&v).ok()
    }

    /// A uniformly drawn divisor above 1 of entry `at`'s extent, with
    /// the entry of what it leaves.
    fn draw(&self, at: usize, rng: &mut StdRng) -> (usize, Option<usize>) {
        let list = &self.draws[self.spans[at].clone()];
        list[rng.gen_range(0..list.len())]
    }
}

/// Exhaustive search over per-dimension temporal homes (no splitting):
/// every dimension's leftover extent is assigned to one storage level.
/// The space is `|storage levels|^7`; suitable for tests and small cases.
pub fn exhaustive_search(
    arch: &Architecture,
    layer: &Layer,
    mut cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    let (base, leftover) = greedy_spatial(arch, layer, spatial_priority_for(layer));
    let storage_levels: Vec<usize> = arch
        .levels()
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.kind().is_converter())
        .map(|(i, _)| i)
        .collect();
    let k = storage_levels.len();
    let total = (k as u64).pow(7);

    let mut seen: HashSet<Mapping> = HashSet::new();
    let mut best: Option<SearchResult> = None;
    let mut evaluated = 0usize;
    let mut deduped = 0usize;
    for combo in 0..total {
        let mut candidate = base.clone();
        let mut c = combo;
        // Assign dims in the default outer->inner order so within-level
        // ordering is deterministic.
        for d in [Dim::N, Dim::P, Dim::Q, Dim::M, Dim::C, Dim::R, Dim::S] {
            let level = storage_levels[(c % k as u64) as usize];
            c /= k as u64;
            if leftover[d] > 1 {
                candidate.push_temporal(level, d, leftover[d]);
            }
        }
        // Combos differing only in the home of a dim with no leftover
        // build the same mapping — skip the repeat analysis.
        if !seen.insert(candidate.clone()) {
            deduped += 1;
            continue;
        }
        let Ok(analysis) = analyze(arch, layer, &candidate) else {
            continue;
        };
        evaluated += 1;
        let cost_value = cost(&analysis);
        if best.as_ref().is_none_or(|b| cost_value < b.cost) {
            best = Some(SearchResult {
                mapping: candidate,
                analysis,
                cost: cost_value,
                evaluated: 0,
                deduped: 0,
                pruned: 0,
            });
        }
    }
    // Stamped once after the loop, as in `search_core`.
    if let Some(b) = &mut best {
        b.evaluated = evaluated;
        b.deduped = deduped;
    }
    best
}

/// Fisher-Yates shuffle (avoids pulling in rand's slice extension trait).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_exhaustively;
    use crate::outer_read_traffic;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::{Energy, Frequency};
    use lumen_workload::{DimSet, TensorSet};
    use proptest::prelude::*;

    fn arch() -> Architecture {
        ArchBuilder::new("t", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap()
    }

    fn layer() -> Layer {
        Layer::conv2d("l", 1, 16, 8, 8, 8, 3, 3)
    }

    #[test]
    fn greedy_fills_fanout_by_priority() {
        let (m, leftover) = greedy_spatial(&arch(), &layer(), &DEFAULT_SPATIAL_PRIORITY);
        // M=16 against capacity 8: all 8 lanes to M.
        assert_eq!(m.level(1).spatial_product(), 8);
        assert_eq!(leftover[Dim::M], 2);
        assert_eq!(leftover[Dim::C], 8);
    }

    #[test]
    fn greedy_respects_priority_order() {
        let (m, _) = greedy_spatial(&arch(), &layer(), &[Dim::C, Dim::M]);
        // C first: C=8 fills the whole fanout.
        let spatial = &m.level(1).spatial;
        assert_eq!(spatial.len(), 1);
        assert_eq!(spatial[0].dim, Dim::C);
        assert_eq!(spatial[0].bound, 8);
    }

    #[test]
    fn greedy_mapping_is_legal() {
        let m = greedy_mapping(
            &arch(),
            &layer(),
            &DEFAULT_SPATIAL_PRIORITY,
            &TemporalPlan::all_at(1),
        );
        assert!(m.validate(&arch(), &layer()).is_ok());
        let a = analyze(&arch(), &layer(), &m).unwrap();
        assert_eq!(a.macs, layer().macs());
    }

    #[test]
    fn temporal_plan_honors_explicit_assignment() {
        let (base, leftover) = greedy_spatial(&arch(), &layer(), &DEFAULT_SPATIAL_PRIORITY);
        let plan = TemporalPlan {
            assignments: vec![(0, vec![Dim::C])],
            default_level: 1,
        };
        let m = plan.apply(base, &leftover);
        assert!(m.level(0).temporal.iter().any(|l| l.dim == Dim::C));
        assert!(!m.level(1).temporal.iter().any(|l| l.dim == Dim::C));
    }

    #[test]
    fn random_search_finds_legal_mapping_and_is_reproducible() {
        let cfg = SearchConfig {
            iterations: 80,
            seed: 7,
        };
        let cost = |a: &LayerAnalysis| a.level(0).total_accesses();
        let r1 = random_search(&arch(), &layer(), cfg, None, cost).expect("found mapping");
        let r2 = random_search(&arch(), &layer(), cfg, None, cost).expect("found mapping");
        assert_eq!(r1.mapping, r2.mapping, "seeded search is deterministic");
        assert!(r1.evaluated > 0);
        assert!(r1.cost >= 0.0);
    }

    #[test]
    fn random_search_beats_or_matches_worst_case() {
        // The best random candidate should not be worse than the greedy
        // all-at-buf mapping under the same cost.
        let cost = |a: &LayerAnalysis| a.level(0).total_accesses();
        let greedy = greedy_mapping(
            &arch(),
            &layer(),
            &DEFAULT_SPATIAL_PRIORITY,
            &TemporalPlan::all_at(1),
        );
        let greedy_cost = cost(&analyze(&arch(), &layer(), &greedy).unwrap());
        let found = random_search(
            &arch(),
            &layer(),
            SearchConfig {
                iterations: 300,
                seed: 3,
            },
            None,
            cost,
        )
        .unwrap();
        assert!(
            found.cost <= greedy_cost * 1.001,
            "random best {} vs greedy {greedy_cost}",
            found.cost
        );
    }

    #[test]
    fn exhaustive_search_is_at_least_as_good_as_random() {
        let small = Layer::conv2d("s", 1, 8, 4, 4, 4, 3, 3);
        let cost = |a: &LayerAnalysis| a.level(0).total_accesses();
        let ex = exhaustive_search(&arch(), &small, cost).unwrap();
        let rand = random_search(
            &arch(),
            &small,
            SearchConfig {
                iterations: 100,
                seed: 11,
            },
            None,
            cost,
        )
        .unwrap();
        assert!(ex.cost <= rand.cost * 1.001);
        assert!(ex.evaluated > 0);
    }

    #[test]
    fn matmul_priority_prefers_rows_over_reduction() {
        // Fanout wired for {M, C, P}: a matmul should spend lanes on the
        // sequence dimension before the reduction dimension.
        let a = ArchBuilder::new("mm", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .fanout(Fanout::new(64).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P])))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let mm = Layer::matmul("mm", 1, 8, 16, 32);
        let (m, leftover) = greedy_spatial(&a, &mm, spatial_priority_for(&mm));
        // M=8 then P=8 fill the 64 lanes; C stays temporal.
        assert_eq!(m.total_bound(Dim::M), 8);
        assert_eq!(m.total_bound(Dim::P), 8);
        assert_eq!(m.total_bound(Dim::C), 1);
        assert_eq!(leftover[Dim::C], 16);
        assert_eq!(leftover[Dim::P], 4);
    }

    #[test]
    fn priority_selection_by_kind() {
        let mm = Layer::matmul("mm", 1, 4, 4, 4);
        assert_eq!(spatial_priority_for(&mm), &MATMUL_SPATIAL_PRIORITY);
        assert_eq!(spatial_priority_for(&layer()), &DEFAULT_SPATIAL_PRIORITY);
        let fc = Layer::fully_connected("fc", 1, 8, 8);
        assert_eq!(spatial_priority_for(&fc), &DEFAULT_SPATIAL_PRIORITY);
    }

    #[test]
    fn greedy_matmul_mapping_is_legal_and_counts_macs() {
        let mm = Layer::matmul("mm", 2, 24, 12, 40);
        let m = greedy_mapping(
            &arch(),
            &mm,
            spatial_priority_for(&mm),
            &TemporalPlan::all_at(1),
        );
        assert!(m.validate(&arch(), &mm).is_ok());
        let a = analyze(&arch(), &mm, &m).unwrap();
        assert_eq!(a.macs, mm.macs());
        assert!(a.utilization > 0.0 && a.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn dedup_preserves_winner_and_skips_repeats() {
        // A small leftover space with many iterations guarantees repeat
        // draws; the deduplicated search must keep the baseline's winner
        // bit-identical while skipping analyses.
        let small = Layer::conv2d("s", 1, 8, 4, 4, 4, 3, 3);
        let cfg = SearchConfig {
            iterations: 400,
            seed: 21,
        };
        let cost = |a: &LayerAnalysis| a.level(0).total_accesses();
        let naive = random_search_baseline(&arch(), &small, cfg, cost).unwrap();
        let deduped = random_search(&arch(), &small, cfg, None, cost).unwrap();
        assert_eq!(naive.mapping, deduped.mapping);
        assert_eq!(naive.cost.to_bits(), deduped.cost.to_bits());
        assert!(deduped.deduped > 0, "expected repeat draws to be skipped");
        assert!(deduped.evaluated < naive.evaluated);
        assert_eq!(deduped.skipped(), deduped.deduped + deduped.pruned);
        assert_eq!(naive.deduped, 0);
        assert_eq!(naive.pruned, 0);
    }

    #[test]
    fn pruned_search_matches_unpruned_winner() {
        // Cost = total outermost-level accesses; the outer *read* traffic
        // of the read tensors is an exact subset of it, computable from
        // the mapping alone — a sound, candidate-varying lower bound.
        let a = arch();
        let l = layer();
        let cfg = SearchConfig {
            iterations: 300,
            seed: 9,
        };
        let cost = |x: &LayerAnalysis| x.level(0).total_accesses();
        let plain = random_search(&a, &l, cfg, None, cost).unwrap();
        let pruned = random_search(
            &a,
            &l,
            cfg,
            Some(&|p: &Preview<'_>| {
                p.outer_traffic
                    .iter()
                    .filter(|k| k.level == 0 && k.tensor != TensorKind::Output)
                    .map(|k| k.reads)
                    .sum()
            }),
            cost,
        )
        .unwrap();
        assert_eq!(plain.mapping, pruned.mapping);
        assert_eq!(plain.cost.to_bits(), pruned.cost.to_bits());
        assert!(pruned.pruned > 0, "outer-read bound should prune losers");
        assert!(pruned.evaluated < plain.evaluated);
    }

    #[test]
    fn outer_read_traffic_matches_full_analysis() {
        // The fast bound must reproduce the analyzer's outer-keeper read
        // entries bit-for-bit on legal mappings.
        let a = arch();
        let l = layer();
        let cfg = SearchConfig {
            iterations: 50,
            seed: 13,
        };
        let r = random_search(&a, &l, cfg, None, |x: &LayerAnalysis| {
            x.level(0).total_accesses()
        })
        .unwrap();
        let full = analyze(&a, &l, &r.mapping).unwrap();
        for (level, tensor, reads) in outer_read_traffic(&a, &l, &r.mapping) {
            assert_eq!(
                reads.to_bits(),
                full.level(level).reads[tensor].to_bits(),
                "{tensor:?} at level {level}"
            );
        }
    }

    #[test]
    fn exhaustive_search_dedupes_redundant_homes() {
        // A layer with several fully-packed (no-leftover) dims: the level
        // choice for those dims is irrelevant, so most combos repeat.
        let small = Layer::conv2d("s", 1, 8, 4, 4, 4, 3, 3);
        let cost = |a: &LayerAnalysis| a.level(0).total_accesses();
        let ex = exhaustive_search(&arch(), &small, cost).unwrap();
        assert!(ex.deduped > 0);
        assert!(ex.evaluated > 0);
    }

    #[test]
    fn random_factor_divides_or_returns_v() {
        // One table serves a search's seven leftover extents (unit ones
        // included); every tabled extent draws a divisor above 1 exactly
        // as the scan does, with the entry of what it leaves.
        let extents = [1, 12, 18, 7, 1, 3072, 50_257];
        let table = Divisors::new(extents.into_iter().chain(2..40));
        let tabled = |e: usize| (2..=e).filter(move |v| e.is_multiple_of(*v));
        let mut expected: Vec<usize> = extents.into_iter().chain(2..40).flat_map(tabled).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(table.values, expected);
        let mut fast = StdRng::seed_from_u64(1);
        let mut scan = StdRng::seed_from_u64(1);
        for (x, &v) in table.values.iter().enumerate() {
            assert_eq!(table.entry(v), Some(x));
            let (f, rest) = table.draw(x, &mut fast);
            assert!(f >= 2 && v.is_multiple_of(f), "{f} does not divide {v}");
            assert_eq!(f, scan_random_factor(v, &mut scan), "v = {v}");
            assert_eq!(rest.map(|r| table.values[r]), (f < v).then_some(v / f));
        }
        assert_eq!(table.entry(0), None);
        assert_eq!(table.entry(1), None);
        assert_eq!(table.entry(41), None);
    }

    /// The divisor pick as first written: collect every divisor in
    /// `2..=v` ascending, then draw a uniform index.
    fn scan_random_factor(v: usize, rng: &mut StdRng) -> usize {
        if v <= 1 {
            return 1;
        }
        let divisors: Vec<usize> = (2..=v).filter(|f| v.is_multiple_of(*f)).collect();
        if divisors.is_empty() {
            v
        } else {
            divisors[rng.gen_range(0..divisors.len())]
        }
    }

    #[test]
    fn random_factor_draws_exactly_as_the_divisor_scan() {
        // A dimension's chunks, drawn down the table until nothing
        // remains, against the scan on each remaining extent.
        for seed in [0, 1, 7, 0xC1A0, u64::MAX] {
            let mut fast = StdRng::seed_from_u64(seed);
            let mut scan = StdRng::seed_from_u64(seed);
            for v in (2..=5000usize).chain([65_536, 50_257, 3 * 3 * 5 * 7 * 7 * 11]) {
                let table = Divisors::new([v]);
                let mut at = table.entry(v);
                while let Some(x) = at {
                    let remaining = table.values[x];
                    let (f, rest) = table.draw(x, &mut fast);
                    assert_eq!(
                        f,
                        scan_random_factor(remaining, &mut scan),
                        "v = {v}, remaining {remaining}, seed {seed}"
                    );
                    assert_eq!(
                        rest.map(|r| table.values[r]),
                        (f < remaining).then_some(remaining / f)
                    );
                    at = rest;
                }
            }
            // Both consumed the stream identically.
            assert_eq!(fast.next_u64(), scan.next_u64());
        }
    }

    /// `n` candidates of a `seed`ed search of `layer` on `arch`, drawn
    /// with the engine's generator.
    fn draw(arch: &Architecture, layer: &Layer, seed: u64, n: usize) -> Vec<Mapping> {
        let (mut candidate, leftover) = greedy_spatial(arch, layer, spatial_priority_for(layer));
        let mut candidates = Candidates::new(arch, &leftover, seed);
        (0..n)
            .map(|_| {
                candidates.draw(&mut candidate);
                candidate.clone()
            })
            .collect()
    }

    /// [`analyze`]'s outcome on `mapping`, printed: `Debug` prints each
    /// `f64` in its shortest round-trip form, so equal outcomes print
    /// equal strings bit for bit.
    fn outcome(arch: &Architecture, layer: &Layer, mapping: &Mapping) -> String {
        format!("{:?}", analyze(arch, layer, mapping))
    }

    /// Keys `drawn` as the engine does. Returns how many candidates
    /// repeated an earlier one's key with a different mapping, and how
    /// many of those had a different [`analyze`] outcome from it.
    fn key_collisions(arch: &Architecture, layer: &Layer, drawn: &[Mapping]) -> (usize, usize) {
        // Capacity only: the set grows past it.
        let mut seen = KeySet::new(0, drawn.len());
        let mut firsts: Vec<(&Mapping, String)> = Vec::new();
        let (mut collisions, mut differing) = (0, 0);
        for candidate in drawn {
            match seen.find_or_insert(candidate) {
                None => firsts.push((candidate, outcome(arch, layer, candidate))),
                Some(i) if firsts[i].0 != candidate => {
                    collisions += 1;
                    differing += usize::from(firsts[i].1 != outcome(arch, layer, candidate));
                }
                Some(_) => {}
            }
        }
        (collisions, differing)
    }

    /// What a toy buffer or register file keeps: partial keepers leave
    /// DRAM the only keeper of some tensors.
    const KEEPS: [&[TensorKind]; 5] = [
        &TensorKind::ALL,
        &[TensorKind::Weight, TensorKind::Output],
        &[TensorKind::Input, TensorKind::Output],
        &[TensorKind::Output],
        &[TensorKind::Weight],
    ];

    /// Spatial dim sets a toy fan-out may wire.
    const FANOUT_DIMS: [&[Dim]; 4] = [
        &[Dim::M, Dim::C],
        &[Dim::M, Dim::P],
        &[Dim::C, Dim::S],
        &[Dim::N, Dim::Q],
    ];

    /// DRAM, a buffer, an optional register file and a DAC above
    /// compute: `keeps` are the buffer's and register file's `KEEPS`,
    /// `fanouts` the buffer's and DAC's `(lanes, FANOUT_DIMS)`, and a
    /// nonzero `capacity_log2` bounds the innermost storage level.
    fn toy_arch(
        registers: bool,
        keeps: (usize, usize),
        fanouts: [(usize, usize); 2],
        capacity_log2: usize,
    ) -> Architecture {
        let fanout = |(lanes, dims): (usize, usize)| {
            Fanout::new(lanes).allow(DimSet::from_dims(FANOUT_DIMS[dims]))
        };
        let capacity = (capacity_log2 > 0).then(|| 1u64 << capacity_log2);
        let mut b = ArchBuilder::new("keyed", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .done();
        let mut buf = b
            .storage(
                "buf",
                Domain::DigitalElectrical,
                TensorSet::from_kinds(KEEPS[keeps.0]),
            )
            .fanout(fanout(fanouts[0]));
        if let (false, Some(bits)) = (registers, capacity) {
            buf = buf.capacity_bits(bits);
        }
        b = buf.done();
        if registers {
            let mut reg = b.storage(
                "reg",
                Domain::DigitalElectrical,
                TensorSet::from_kinds(KEEPS[keeps.1]),
            );
            if let Some(bits) = capacity {
                reg = reg.capacity_bits(bits);
            }
            b = reg.done();
        }
        b.converter("dac", Domain::AnalogElectrical, TensorSet::all())
            .fanout(fanout(fanouts[1]))
            .done()
            .compute("mac", Domain::AnalogElectrical, Energy::ZERO)
            .build()
            .unwrap()
    }

    #[test]
    fn candidates_differing_only_in_compute_loops_share_a_key() {
        // Four temporal levels and small leftover extents: repeats of the
        // loops above compute are common.
        let arch = toy_arch(true, (0, 3), [(4, 0), (2, 2)], 0);
        let layer = Layer::conv2d("l", 1, 8, 4, 2, 4, 1, 1);
        let drawn = draw(&arch, &layer, 5, 400);
        let (collisions, differing) = key_collisions(&arch, &layer, &drawn);
        assert!(
            collisions > 0,
            "no two candidates differed only in compute's loops"
        );
        assert_eq!(differing, 0, "{differing} of {collisions} collisions");
    }

    /// A random toy architecture (partial keepers, keeper chains of up
    /// to three levels, multicast fan-outs above and below the deepest
    /// keeper, and sometimes buffers too small for many candidates), a
    /// small conv, matmul or strided conv, and a search seed.
    fn toy_case() -> impl Strategy<Value = (Architecture, Layer, u64)> {
        let fanout = || ((0usize..4).prop_map(|k| 1 << k), 0..FANOUT_DIMS.len());
        (
            (
                (0usize..2, 0..KEEPS.len(), 0..KEEPS.len()),
                fanout(),
                fanout(),
                (0usize..4).prop_map(|k| [0, 8, 10, 13][k]),
            ),
            (
                (1usize..=2, 1usize..=12, 1usize..=12),
                (1usize..=8, 1usize..=8, 1usize..=3, 1usize..=3),
                0usize..3,
            ),
            0usize..1000,
        )
            .prop_map(|(arch, shape, seed)| {
                let ((registers, buf, reg), buf_fanout, dac_fanout, capacity_log2) = arch;
                let arch = toy_arch(
                    registers == 1,
                    (buf, reg),
                    [buf_fanout, dac_fanout],
                    capacity_log2,
                );
                let ((n, m, c), (p, q, r, s), kind) = shape;
                let layer = match kind {
                    0 => Layer::conv2d("conv", n, m, c, p, q, r, s),
                    1 => Layer::matmul("matmul", n, m, c, p),
                    _ => Layer::conv2d("strided", n, m, c, p, q, r, s).with_stride(2, 2),
                };
                (arch, layer, seed as u64)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Candidates the engine draws and keys alike analyze alike.
        #[test]
        fn candidates_with_equal_keys_analyze_bit_identically(case in toy_case()) {
            let (arch, layer, seed) = case;
            let drawn = draw(&arch, &layer, seed, 200);
            let (collisions, differing) = key_collisions(&arch, &layer, &drawn);
            prop_assert_eq!(differing, 0, "{} of {} collisions on {:?}", differing, collisions, layer);
        }

        /// The demand-driven load computes everything the analysis
        /// reads: it analyzes every drawn candidate as a load of every
        /// quantity at every level does.
        #[test]
        fn the_demand_driven_load_analyzes_as_an_exhaustive_one(case in toy_case()) {
            let (arch, layer, seed) = case;
            for candidate in draw(&arch, &layer, seed, 100) {
                prop_assert_eq!(
                    outcome(&arch, &layer, &candidate),
                    format!("{:?}", analyze_exhaustively(&arch, &layer, &candidate)),
                    "{} on {:?}", candidate, layer
                );
            }
        }
    }
}
