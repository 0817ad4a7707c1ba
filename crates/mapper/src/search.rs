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
    /// Legal candidates whose cost was actually evaluated (structural
    /// duplicates and pruned candidates are excluded).
    pub evaluated: usize,
    /// Structurally-identical candidates skipped before analysis.
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
/// [`random_search_pruned`]): the first fills every field but
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
    /// The outermost-keeper reads of the read tensors, as
    /// [`outer_read_traffic`](crate::outer_read_traffic) returns them.
    pub outer_reads: &'a [(usize, TensorKind, f64)],
    /// The complete traffic at each kept tensor's outermost keeper:
    /// the read tensors' reads (as in `outer_reads`) and fills, and the
    /// output's updates, read-backs, flushes and refills. Weights,
    /// inputs and outputs, in that order; a tensor no level keeps is
    /// absent.
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
/// checks are discarded, and structurally-identical repeat draws are
/// deduplicated before analysis (the winner is unaffected: a duplicate
/// can never *strictly* beat the identical candidate that preceded it).
/// Returns `None` if no legal candidate was found.
pub fn random_search(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    search_core(arch, layer, config, None, true, cost)
}

/// [`random_search`] with a caller-supplied **lower bound** on the cost
/// of a candidate, computed from its [`Preview`] (before the full nest
/// analysis). Candidates whose bound already meets or exceeds the
/// incumbent's cost are skipped without an `analyze` call.
///
/// The bound is checked in two stages. The first previews every new
/// candidate without its converter crossings; a candidate it does not
/// prune and that fits every bounded buffer is previewed again with
/// them (when the architecture has a converter feeding compute), and
/// checked again before its analysis is completed. A candidate either
/// stage skips counts in [`SearchResult::pruned`].
///
/// The bound must satisfy `lower_bound(preview(m)) ≤ cost(analyze(m))`
/// for every legal mapping `m` and both stages' previews (a small
/// relative safety margin is applied internally to absorb
/// floating-point summation-order noise).
/// Under that contract the winning mapping and cost are bit-identical to
/// the unpruned search: acceptance is strict (`<`), so a candidate at or
/// above the incumbent could never have won.
pub fn random_search_pruned(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    lower_bound: impl Fn(&Preview<'_>) -> f64,
    cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    search_core(arch, layer, config, Some(&lower_bound), true, cost)
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

/// Shared engine behind the `random_search*` family. Candidate
/// *generation* is identical across all variants — every RNG draw for an
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
/// [`Divisors`] each chunk is drawn from, and the [`Mapping::validate`]
/// verdict (the spatial loops are the base's, temporal loops go only to
/// storage levels, and each dimension's temporal chunks multiply to
/// exactly its leftover extent). A candidate then costs its draws, one
/// [`KeySet`] probe and, if it is new, a [`Nest::load_preview`], the
/// first-stage bound and a capacity check. A candidate that passes both
/// pays for [`Nest::load_deep_footprints`], [`Nest::load_crossings`] and
/// the second-stage bound; only one that passes that too pays for
/// [`Nest::load_rest`], the analysis and the cost. Under the system
/// energy bound, which charges every DRAM and conversion term the
/// preview fixes, the `dse_search` sweep (Albireo, 400 candidates, 1088
/// searches) analyzes ~45 k of its 292 k previewed candidates, against
/// 151 k when the bound charged only the read tensors' DRAM reads.
fn search_core(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    lower_bound: Option<&dyn Fn(&Preview<'_>) -> f64>,
    dedup: bool,
    mut cost: impl FnMut(&LayerAnalysis) -> f64,
) -> Option<SearchResult> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (base, leftover) = greedy_spatial(arch, layer, spatial_priority_for(layer));
    let storage_levels: Vec<usize> = arch
        .levels()
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.kind().is_converter())
        .map(|(i, _)| i)
        .collect();

    // Every candidate validates exactly as the base with its leftover
    // extents placed whole at one storage level does.
    let representative =
        TemporalPlan::all_at(*storage_levels.first()?).apply(base.clone(), &leftover);
    if representative.validate(arch, layer).is_err() {
        return None;
    }
    let divisors = Divisors::new(Dim::ALL.iter().map(|&d| leftover[d]));
    // Each dimension's first chunk divides its whole leftover extent.
    let firsts = Dim::ALL.map(|d| divisors.entry(leftover[d]));
    let mut nest = Nest::new(arch, layer, &base);
    // A split dimension draws at most `storage_levels.len()` chunks, one
    // loop each.
    let max_loops = storage_levels.len() * firsts.iter().flatten().count();
    let mut seen = KeySet::new(max_loops, if dedup { config.iterations } else { 0 });
    let mut candidate = base.clone();
    let mut analysis = LayerAnalysis::default();
    let mut best_mapping = base;
    let mut best_analysis = LayerAnalysis::default();
    let mut best_cost: Option<f64> = None;
    let mut evaluated = 0usize;
    let mut deduped = 0usize;
    let mut pruned = 0usize;
    for _ in 0..config.iterations {
        // Temporal loops only ever go to storage levels.
        for &x in &storage_levels {
            candidate.temporal_mut(x).clear();
        }
        // Randomly split each leftover extent across storage levels.
        for (d, first) in Dim::ALL.into_iter().zip(firsts) {
            let Some(mut remaining) = first else {
                continue;
            };
            // Up to `storage_levels.len()` chunks; the last takes what
            // remains, and every chunk is a divisor above 1.
            let chunks = rng.gen_range(1..=storage_levels.len());
            for i in 0..chunks {
                let (f, rest) = if i + 1 == chunks {
                    (divisors.values[remaining], None)
                } else {
                    divisors.draw(remaining, &mut rng)
                };
                let level = storage_levels[rng.gen_range(0..storage_levels.len())];
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
        for &x in &storage_levels {
            shuffle(candidate.temporal_mut(x), &mut rng);
        }
        // All RNG draws for this iteration are complete: skipping from
        // here on cannot perturb later candidates.
        if dedup && !seen.insert(&candidate) {
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
        nest.load_deep_footprints();
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
        outer_reads: nest.outer_reads(),
        outer_traffic: nest.outer_traffic(),
        conversions: if crossings { nest.crossings() } else { &[] },
    }
}

/// An exact set of search candidates, keyed on their temporal loops
/// alone (every candidate of one search shares its spatial loops).
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

    /// Inserts `mapping`'s temporal loops; `false` if they were already
    /// present.
    fn insert(&mut self, mapping: &Mapping) -> bool {
        // A loop packs exactly as `(bound, level · 7 + dim)`, levels in
        // order, so equal words are equal loops.
        let start = self.words.len();
        let mut hasher = WordHasher::default();
        for (x, level) in mapping.levels().iter().enumerate() {
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
                return false;
            }
            at = self.older[i];
        }
        self.older
            .push(self.heads.insert(fingerprint, self.older.len()));
        self.starts.push(self.words.len());
        true
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
    use crate::outer_read_traffic;
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_units::{Energy, Frequency};
    use lumen_workload::{DimSet, TensorSet};

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
        let r1 = random_search(&arch(), &layer(), cfg, cost).expect("found mapping");
        let r2 = random_search(&arch(), &layer(), cfg, cost).expect("found mapping");
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
        let deduped = random_search(&arch(), &small, cfg, cost).unwrap();
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
        let plain = random_search(&a, &l, cfg, cost).unwrap();
        let pruned = random_search_pruned(
            &a,
            &l,
            cfg,
            |p: &Preview<'_>| {
                p.outer_reads
                    .iter()
                    .filter(|(level, _, _)| *level == 0)
                    .map(|(_, _, reads)| reads)
                    .sum()
            },
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
        let r =
            random_search(&a, &l, cfg, |x: &LayerAnalysis| x.level(0).total_accesses()).unwrap();
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
}
