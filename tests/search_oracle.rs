//! Oracle for the random mapping search: the engine against a plain
//! transcription of its first, allocating form.
//!
//! The transcription keeps everything the engine's candidates and costs
//! were first built from: a cloned [`Mapping`] per candidate, a
//! `Vec<Vec<_>>` of per-level loops, a divisor pick that collects every
//! divisor, dedup on a `HashSet` of the temporal loops its analysis
//! reads (every level's but compute's), a lower bound over
//! [`outer_read_traffic`], and an energy cost read off the item-list
//! reference for [`EnergyBreakdown`]. `random_search`, with and without
//! a bound, and `random_search_baseline` must return the
//! same mapping, analysis, cost bits and `evaluated`/`deduped`/`pruned`
//! counts, and
//! `System::map_layer` the same winner, on the unique layers of every
//! built-in network on both Albireo corners and on the toy architectures
//! of the mapper's unit tests. A second pass dedups only whole repeated
//! mappings, on a `HashSet<Mapping>`: it analyzes more candidates, and
//! the engine must still pick its winner, analysis and cost bits. A
//! property test adds random small conv, matmul, grouped and strided
//! layers on random 2–3-storage-level toy architectures with a
//! converter, multicast fan-outs, partial keepers and bounded buffers.
//!
//! A second transcription covers the system energy bound's two stages:
//! every term it charges is read off the candidate's full analysis,
//! and the engine, reading the same terms from its previews, must prune
//! exactly the same candidates.

use lumen::albireo::{AlbireoConfig, ScalingProfile};
use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::core::{CostCategory, EnergyBreakdown, MappingStrategy, System};
use lumen::mapper::search::{
    greedy_spatial, random_search, random_search_baseline, spatial_priority_for, Preview,
    SearchConfig, SearchResult,
};
use lumen::mapper::{analyze, outer_read_traffic, LayerAnalysis, Loop, Mapping};
use lumen::units::{Energy, Frequency};
use lumen::workload::{networks, Dim, DimSet, Layer, TensorKind, TensorSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

#[path = "../crates/core/tests/support/energy_reference.rs"]
mod reference;

const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Which repeat candidates the transcription skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dedup {
    /// None: every candidate is analyzed.
    Off,
    /// One whose temporal loops at every level but compute repeat an
    /// earlier candidate's, in order: all that its analysis reads.
    Analysis,
    /// One whose whole mapping repeats an earlier candidate's.
    Mapping,
}

/// The temporal loops of every level of `m` but compute, in order.
fn analysis_key(m: &Mapping) -> Vec<Vec<Loop>> {
    let above_compute = &m.levels()[..m.levels().len() - 1];
    above_compute.iter().map(|l| l.temporal.clone()).collect()
}

/// The transcribed engine: `lower_bound` reads the candidate mapping,
/// and `dedup` picks the repeats it skips.
fn transcribed_search(
    arch: &Architecture,
    layer: &Layer,
    config: SearchConfig,
    lower_bound: Option<&dyn Fn(&Mapping) -> f64>,
    dedup: Dedup,
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

    let mut seen_mappings: HashSet<Mapping> = HashSet::new();
    let mut seen_keys: HashSet<Vec<Vec<Loop>>> = HashSet::new();
    let mut best: Option<SearchResult> = None;
    let mut evaluated = 0usize;
    let mut deduped = 0usize;
    let mut pruned = 0usize;
    for _ in 0..config.iterations {
        let mut candidate = base.clone();
        let mut per_level_loops: Vec<Vec<(Dim, usize)>> = vec![Vec::new(); arch.levels().len()];
        for d in Dim::ALL {
            let mut remaining = leftover[d];
            if remaining <= 1 {
                continue;
            }
            let chunks = rng.gen_range(1..=storage_levels.len());
            for i in 0..chunks {
                if remaining <= 1 {
                    break;
                }
                let f = if i + 1 == chunks {
                    remaining
                } else {
                    transcribed_random_factor(remaining, &mut rng)
                };
                if f > 1 {
                    let level = storage_levels[rng.gen_range(0..storage_levels.len())];
                    per_level_loops[level].push((d, f));
                    remaining = remaining.div_ceil(f);
                }
            }
            if remaining > 1 {
                let level = storage_levels[rng.gen_range(0..storage_levels.len())];
                per_level_loops[level].push((d, remaining));
            }
        }
        for (level, loops) in per_level_loops.iter_mut().enumerate() {
            for i in (1..loops.len()).rev() {
                let j = rng.gen_range(0..=i);
                loops.swap(i, j);
            }
            for &(d, f) in loops.iter() {
                candidate.push_temporal(level, d, f);
            }
        }
        let repeat = match dedup {
            Dedup::Off => false,
            Dedup::Analysis => !seen_keys.insert(analysis_key(&candidate)),
            Dedup::Mapping => !seen_mappings.insert(candidate.clone()),
        };
        if repeat {
            deduped += 1;
            continue;
        }
        let bound = lower_bound.map(|lb| lb(&candidate));
        if let (Some(bv), Some(b)) = (bound, best.as_ref()) {
            if bv * PRUNE_MARGIN >= b.cost {
                pruned += 1;
                continue;
            }
        }
        let Ok(analysis) = analyze(arch, layer, &candidate) else {
            continue;
        };
        evaluated += 1;
        let c = cost(&analysis);
        if best.as_ref().is_none_or(|b| c < b.cost) {
            best = Some(SearchResult {
                mapping: candidate,
                analysis,
                cost: c,
                evaluated: 0,
                deduped: 0,
                pruned: 0,
            });
        }
    }
    if let Some(b) = &mut best {
        b.evaluated = evaluated;
        b.deduped = deduped;
        b.pruned = pruned;
    }
    best
}

fn transcribed_random_factor(v: usize, rng: &mut StdRng) -> usize {
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

/// The system energy objective, read off the item-list reference for
/// [`EnergyBreakdown`] built item by item from the analysis.
fn breakdown_cost(arch: &Architecture, analysis: &LayerAnalysis) -> f64 {
    let mut breakdown = reference::ReferenceBreakdown::default();
    for (x, level) in arch.levels().iter().enumerate() {
        let traffic = analysis.level(x);
        if level.kind().is_storage() {
            for t in TensorKind::ALL {
                let (read_e, write_e) = (level.read_energy(), level.write_energy());
                let label = level.name();
                breakdown.add(
                    label,
                    CostCategory::Storage,
                    Some(t),
                    read_e * traffic.reads[t],
                );
                breakdown.add(
                    label,
                    CostCategory::Storage,
                    Some(t),
                    write_e * traffic.writes[t],
                );
            }
        } else if level.kind().is_converter() {
            for t in TensorKind::ALL {
                breakdown.add(
                    level.name(),
                    CostCategory::Conversion,
                    Some(t),
                    level.convert_energy() * traffic.conversions[t],
                );
            }
        }
    }
    breakdown.add(
        arch.compute_level().name(),
        CostCategory::Compute,
        None,
        arch.mac_energy() * analysis.padded_macs as f64,
    );
    for cost in arch.per_cycle_costs() {
        let factor = if cost.gateable {
            analysis.spatial_utilization
        } else {
            1.0
        };
        breakdown.add(
            cost.name.as_str(),
            CostCategory::PerCycle,
            None,
            cost.energy_per_cycle * (analysis.cycles as f64) * factor,
        );
    }
    let runtime = arch.clock().period() * analysis.cycles as f64;
    breakdown.add(
        "static",
        CostCategory::Static,
        None,
        arch.total_static_power() * runtime,
    );
    breakdown.total().picojoules()
}

/// The energy lower bound's terms, from what a bound can know before
/// the analysis, in the objective's order of addition.
fn bound_terms(
    arch: &Architecture,
    cycles: u64,
    padded_macs: u64,
    spatial_utilization: f64,
    outer_reads: &[(usize, TensorKind, f64)],
) -> f64 {
    let mut total = arch.mac_energy() * padded_macs as f64;
    for cost in arch.per_cycle_costs() {
        let factor = if cost.gateable {
            spatial_utilization
        } else {
            1.0
        };
        total += cost.energy_per_cycle * (cycles as f64) * factor;
    }
    total += arch.total_static_power() * (arch.clock().period() * cycles as f64);
    for &(level, _tensor, reads) in outer_reads {
        total += arch.levels()[level].read_energy() * reads;
    }
    total.picojoules()
}

/// The transcribed lower bound: everything recomputed from the mapping.
fn mapping_bound(arch: &Architecture, layer: &Layer, m: &Mapping) -> f64 {
    let groups = layer.groups() as u64;
    let cycles = m.total_temporal_product() * groups;
    let padded_volume: u64 = Dim::ALL.iter().map(|&d| m.total_bound(d)).product();
    let spatial_utilization = m.total_spatial_product() as f64 / arch.peak_parallelism() as f64;
    let reads = outer_read_traffic(arch, layer, m);
    bound_terms(
        arch,
        cycles,
        padded_volume * groups,
        spatial_utilization,
        &reads,
    )
}

/// The outermost-keeper reads of the read tensors in a preview, as
/// [`outer_read_traffic`] returns them.
fn preview_reads(p: &Preview<'_>) -> Vec<(usize, TensorKind, f64)> {
    p.outer_traffic
        .iter()
        .filter(|keeper| keeper.tensor != TensorKind::Output)
        .map(|keeper| (keeper.level, keeper.tensor, keeper.reads))
        .collect()
}

fn preview_bound(arch: &Architecture, p: &Preview<'_>) -> f64 {
    bound_terms(
        arch,
        p.cycles,
        p.padded_macs,
        p.spatial_utilization,
        &preview_reads(p),
    )
}

/// The same winning mapping, analysis and cost bits.
fn assert_same_winner(what: &str, engine: Option<&SearchResult>, oracle: Option<&SearchResult>) {
    match (engine, oracle) {
        (None, None) => {}
        (Some(e), Some(o)) => {
            assert_eq!(e.mapping, o.mapping, "{what}: mapping");
            assert_eq!(e.analysis, o.analysis, "{what}: analysis");
            assert_eq!(e.cost.to_bits(), o.cost.to_bits(), "{what}: cost");
        }
        (e, o) => panic!(
            "{what}: engine found {}, oracle found {}",
            e.is_some(),
            o.is_some()
        ),
    }
}

/// The same winner and the same `evaluated`/`deduped`/`pruned` counts.
fn assert_same(what: &str, engine: Option<&SearchResult>, oracle: Option<&SearchResult>) {
    assert_same_winner(what, engine, oracle);
    if let (Some(e), Some(o)) = (engine, oracle) {
        assert_eq!(
            (e.evaluated, e.deduped, e.pruned),
            (o.evaluated, o.deduped, o.pruned),
            "{what}: evaluated/deduped/pruned"
        );
    }
}

/// All three engine variants against the transcription under `cost`
/// and a bound over the objective's pre-analysis terms, and the
/// deduplicating ones' winners against the whole-mapping dedup.
fn check_variants(
    what: &str,
    arch: &Architecture,
    layer: &Layer,
    cfg: SearchConfig,
    cost: &dyn Fn(&LayerAnalysis) -> f64,
    mapping_lb: &dyn Fn(&Mapping) -> f64,
    preview_lb: &dyn Fn(&Preview<'_>) -> f64,
) -> Option<SearchResult> {
    let oracle_pruned =
        transcribed_search(arch, layer, cfg, Some(mapping_lb), Dedup::Analysis, cost);
    assert_same(
        &format!("{what} baseline"),
        random_search_baseline(arch, layer, cfg, cost).as_ref(),
        transcribed_search(arch, layer, cfg, None, Dedup::Off, cost).as_ref(),
    );
    let deduped = random_search(arch, layer, cfg, None, cost);
    assert_same(
        &format!("{what} dedup"),
        deduped.as_ref(),
        transcribed_search(arch, layer, cfg, None, Dedup::Analysis, cost).as_ref(),
    );
    assert_same_winner(
        &format!("{what} dedup on whole mappings"),
        deduped.as_ref(),
        transcribed_search(arch, layer, cfg, None, Dedup::Mapping, cost).as_ref(),
    );
    let pruned = random_search(arch, layer, cfg, Some(preview_lb), cost);
    assert_same(
        &format!("{what} pruned"),
        pruned.as_ref(),
        oracle_pruned.as_ref(),
    );
    assert_same_winner(
        &format!("{what} pruned, dedup on whole mappings"),
        pruned.as_ref(),
        transcribed_search(arch, layer, cfg, Some(mapping_lb), Dedup::Mapping, cost).as_ref(),
    );
    oracle_pruned
}

#[test]
fn search_matches_the_transcription_on_every_builtin_layer() {
    let cfg = SearchConfig {
        iterations: 160,
        seed: 0xBEEF,
    };
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        let arch = AlbireoConfig::new(scaling).build_arch();
        let system = System::new(arch.clone(), MappingStrategy::RandomSearch(cfg));
        let mut signatures = HashSet::new();
        let mut pruned_any = false;
        for name in networks::NAMES {
            let net = networks::by_name(name).unwrap();
            for layer in net.layers() {
                if !signatures.insert(layer.signature()) {
                    continue;
                }
                let what = format!("{scaling}/{name}/{}", layer.name());
                let oracle = check_variants(
                    &what,
                    &arch,
                    layer,
                    cfg,
                    &|a| breakdown_cost(&arch, a),
                    &|m| mapping_bound(&arch, layer, m),
                    &|p| preview_bound(&arch, p),
                )
                .unwrap_or_else(|| panic!("{what}: no legal mapping"));
                pruned_any |= oracle.pruned > 0;
                // The system objective picks the same winner, and the
                // evaluation's energy is the winner's cost.
                assert_eq!(system.map_layer(layer).unwrap(), oracle.mapping, "{what}");
                let eval = system.evaluate_layer(layer).unwrap();
                assert_eq!(eval.analysis, oracle.analysis, "{what}");
                assert_eq!(
                    eval.energy.total().picojoules().to_bits(),
                    oracle.cost.to_bits(),
                    "{what}"
                );
            }
        }
        assert!(signatures.len() > 30, "{} unique layers", signatures.len());
        assert!(pruned_any, "the bound never pruned on {scaling}");
    }
}

/// The toy architectures of the mapper's unit tests: one fan-out over
/// `M, C` (8 lanes) or `M, C, P` (64 lanes) below a buffer, all energies
/// zero, plus an energetic twin so the energy objective discriminates.
fn toy_archs() -> Vec<Architecture> {
    let toy = |name: &str, lanes: usize, dims: &[Dim], pj: f64| {
        ArchBuilder::new(name, Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(100.0 * pj))
            .write_energy(Energy::from_picojoules(100.0 * pj))
            .done()
            .storage("buf", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(pj))
            .write_energy(Energy::from_picojoules(pj))
            .fanout(Fanout::new(lanes).allow(DimSet::from_dims(dims)))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap()
    };
    vec![
        toy("t", 8, &[Dim::M, Dim::C], 0.0),
        toy("mm", 64, &[Dim::M, Dim::C, Dim::P], 0.0),
        toy("energetic", 8, &[Dim::M, Dim::C], 1.0),
    ]
}

#[test]
fn search_matches_the_transcription_on_the_toy_archs() {
    let layers = [
        Layer::conv2d("l", 1, 16, 8, 8, 8, 3, 3),
        Layer::conv2d("s", 1, 8, 4, 4, 4, 3, 3),
        Layer::matmul("mm", 2, 24, 12, 40),
    ];
    // DRAM pressure, bounded by the DRAM reads of the read tensors.
    let dram = |a: &LayerAnalysis| a.level(0).total_accesses();
    let dram_reads = |reads: &[(usize, TensorKind, f64)]| -> f64 {
        reads
            .iter()
            .filter(|(level, _, _)| *level == 0)
            .map(|(_, _, r)| r)
            .sum()
    };
    for arch in toy_archs() {
        for layer in &layers {
            for (iterations, seed) in [(80, 7), (300, 9), (400, 21)] {
                let cfg = SearchConfig { iterations, seed };
                let what = format!("{}/{}/{seed}", arch.name(), layer.name());
                check_variants(
                    &format!("{what} dram"),
                    &arch,
                    layer,
                    cfg,
                    &dram,
                    &|m| dram_reads(&outer_read_traffic(&arch, layer, m)),
                    &|p| dram_reads(&preview_reads(p)),
                );
                check_variants(
                    &format!("{what} energy"),
                    &arch,
                    layer,
                    cfg,
                    &|a| breakdown_cost(&arch, a),
                    &|m| mapping_bound(&arch, layer, m),
                    &|p| preview_bound(&arch, p),
                );
            }
        }
    }
}

/// Spatial dim sets a property-test fan-out may wire.
const FANOUT_DIMS: [&[Dim]; 6] = [
    &[Dim::M, Dim::C],
    &[Dim::M, Dim::P],
    &[Dim::M, Dim::C, Dim::P],
    &[Dim::M, Dim::Q],
    &[Dim::C, Dim::S],
    &[Dim::N, Dim::M],
];

/// What a property-test buffer or register file may keep: with the
/// buffer keeping outputs only, DRAM is the only keeper of the read
/// tensors.
const KEEPS: [&[TensorKind]; 4] = [
    &TensorKind::ALL,
    &[TensorKind::Weight, TensorKind::Output],
    &[TensorKind::Input, TensorKind::Output],
    &[TensorKind::Output],
];

/// A toy architecture of 2–3 storage levels with a converter: DRAM, a
/// buffer, an optional register file, and a DAC whose fan-out multicasts
/// what it converts. `Q` and `S` lanes need unit stride.
#[derive(Debug, Clone)]
struct ToyArch {
    registers: bool,
    /// `KEEPS` indices of the buffer and the register file.
    keeps: (usize, usize),
    /// The DAC sits below the register file (when there is one) rather
    /// than below the buffer.
    dac_below_registers: bool,
    dac_converts_weights: bool,
    /// `(lanes, FANOUT_DIMS index)` of the buffer and the DAC.
    buf_fanout: (usize, usize),
    dac_fanout: (usize, usize),
    /// Innermost storage capacity as `2^bits` bits; 0 leaves it
    /// unbounded. 16 bits hold no candidate's tiles, 256 bits few.
    capacity_log2: usize,
    /// A gateable per-cycle cost, so utilization enters the objective.
    laser: bool,
}

impl ToyArch {
    fn build(&self) -> Architecture {
        let fanout = |(lanes, dims): (usize, usize)| {
            Fanout::new(lanes)
                .allow(DimSet::from_dims(FANOUT_DIMS[dims]))
                .require_unit_stride(DimSet::from_dims(&[Dim::Q, Dim::S]))
        };
        let capacity = (self.capacity_log2 > 0).then(|| 1u64 << self.capacity_log2);
        let keeps = |i: usize| TensorSet::from_kinds(KEEPS[i]);
        let dac_keeps = if self.dac_converts_weights {
            TensorSet::from_kinds(&[TensorKind::Input, TensorKind::Weight])
        } else {
            TensorSet::only(TensorKind::Input)
        };
        let mut b = ArchBuilder::new("prop", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(100.0))
            .write_energy(Energy::from_picojoules(120.0))
            .done();
        let mut buf = b
            .storage("buf", Domain::DigitalElectrical, keeps(self.keeps.0))
            .read_energy(Energy::from_picojoules(2.0))
            .write_energy(Energy::from_picojoules(3.0))
            .fanout(fanout(self.buf_fanout));
        if let (false, Some(bits)) = (self.registers, capacity) {
            buf = buf.capacity_bits(bits);
        }
        b = buf.done();
        let dac = |b: ArchBuilder| {
            b.converter("dac", Domain::AnalogElectrical, dac_keeps)
                .convert_energy(Energy::from_picojoules(0.5))
                .fanout(fanout(self.dac_fanout))
                .done()
        };
        if self.registers {
            if !self.dac_below_registers {
                b = dac(b);
            }
            let mut reg = b
                .storage("reg", Domain::DigitalElectrical, keeps(self.keeps.1))
                .read_energy(Energy::from_picojoules(0.2))
                .write_energy(Energy::from_picojoules(0.3));
            if let Some(bits) = capacity {
                reg = reg.capacity_bits(bits);
            }
            b = reg.done();
            if self.dac_below_registers {
                b = dac(b);
            }
        } else {
            b = dac(b);
        }
        if self.laser {
            b = b.per_cycle("laser", Energy::from_picojoules(7.0), true);
        }
        b.compute(
            "mac",
            Domain::AnalogElectrical,
            Energy::from_picojoules(0.1),
        )
        .build()
        .expect("the toy architecture is valid")
    }
}

fn toy_arch_strategy() -> impl Strategy<Value = ToyArch> {
    let lanes = || (0usize..4).prop_map(|k| 1 << k);
    (
        (
            0usize..2,
            0usize..2,
            0usize..2,
            0..KEEPS.len(),
            0..KEEPS.len(),
        ),
        (lanes(), 0..FANOUT_DIMS.len()),
        (lanes(), 0..FANOUT_DIMS.len()),
        (0usize..5).prop_map(|k| [0, 4, 8, 10, 13][k]),
        0usize..2,
    )
        .prop_map(
            |(
                (registers, below, weights, buf, reg),
                buf_fanout,
                dac_fanout,
                capacity_log2,
                laser,
            )| ToyArch {
                registers: registers == 1,
                keeps: (buf, reg),
                dac_below_registers: below == 1,
                dac_converts_weights: weights == 1,
                buf_fanout,
                dac_fanout,
                capacity_log2,
                laser: laser == 1,
            },
        )
}

/// A small conv, matmul, grouped conv or strided conv.
fn toy_layer_strategy() -> impl Strategy<Value = Layer> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Beyond the built-in layers: random small layers on random toy
    /// architectures with converters, multicast fan-outs, stride-gated
    /// lanes and (sometimes) buffers too small for many candidates.
    #[test]
    fn search_matches_the_transcription_on_random_layers_and_archs(
        toy in toy_arch_strategy(),
        layer in toy_layer_strategy(),
        search in (40usize..=160, 0usize..1000),
    ) {
        let arch = toy.build();
        let cfg = SearchConfig { iterations: search.0, seed: search.1 as u64 };
        let what = format!("{toy:?}/{layer:?}/{cfg:?}");
        let dram_reads = |reads: &[(usize, TensorKind, f64)]| -> f64 {
            reads.iter().filter(|(level, _, _)| *level == 0).map(|(_, _, r)| r).sum()
        };
        check_variants(
            &format!("{what} dram"),
            &arch,
            &layer,
            cfg,
            &|a| a.level(0).total_accesses(),
            &|m| dram_reads(&outer_read_traffic(&arch, &layer, m)),
            &|p| dram_reads(&preview_reads(p)),
        );
        let found = check_variants(
            &format!("{what} energy"),
            &arch,
            &layer,
            cfg,
            &|a| breakdown_cost(&arch, a),
            &|m| mapping_bound(&arch, &layer, m),
            &|p| preview_bound(&arch, p),
        );
        // With no bounded buffer every candidate is legal.
        prop_assert!(toy.capacity_log2 > 0 || found.is_some(), "{what}: no mapping");
    }
}

/// An architecture index's tensors whose next keeper below it is
/// compute, in the analysis's order.
fn compute_fed(arch: &Architecture, converter: usize) -> impl Iterator<Item = TensorKind> + '_ {
    let levels = arch.levels();
    levels[converter].keep().iter().filter(move |&t| {
        !levels[converter + 1..]
            .iter()
            .any(|l| l.kind().is_storage() && l.keep().contains(t))
    })
}

/// The system energy bound, transcribed from the full analysis: the
/// compute, per-cycle and static terms, the complete traffic at each
/// tensor's outermost keeper and, for a candidate that fits `arch`'s
/// buffers, the crossings of every converter that feeds compute.
/// `unbounded` is `arch` with buffers that hold every tile, so that an
/// over-capacity candidate has an analysis too.
///
/// The transcription checks its bound once, before the analysis, where
/// the engine checks a first stage before its capacity check and a
/// second, with the crossings, after it. The second stage only adds
/// nonnegative terms to the first's sum, so both prune exactly the same
/// candidates.
fn staged_mapping_bound(
    arch: &Architecture,
    unbounded: &Architecture,
    layer: &Layer,
    m: &Mapping,
) -> f64 {
    let a = analyze(unbounded, layer, m).expect("every candidate fits the unbounded twin");
    let mut total = arch.mac_energy() * a.padded_macs as f64;
    for cost in arch.per_cycle_costs() {
        let factor = if cost.gateable {
            a.spatial_utilization
        } else {
            1.0
        };
        total += cost.energy_per_cycle * (a.cycles as f64) * factor;
    }
    total += arch.total_static_power() * (arch.clock().period() * a.cycles as f64);
    for t in TensorKind::ALL {
        let outermost = arch
            .levels()
            .iter()
            .position(|l| l.kind().is_storage() && l.keep().contains(t));
        if let Some(k) = outermost {
            let level = &arch.levels()[k];
            total += level.read_energy() * a.level(k).reads[t];
            total += level.write_energy() * a.level(k).writes[t];
        }
    }
    if analyze(arch, layer, m).is_ok() {
        for c in arch.converter_levels() {
            for t in compute_fed(arch, c) {
                total += arch.levels()[c].convert_energy() * a.level(c).conversions[t];
            }
        }
    }
    total.picojoules()
}

/// The same bound over the engine's previews.
fn staged_preview_bound(arch: &Architecture, p: &Preview<'_>) -> f64 {
    let mut total = arch.mac_energy() * p.padded_macs as f64;
    for cost in arch.per_cycle_costs() {
        let factor = if cost.gateable {
            p.spatial_utilization
        } else {
            1.0
        };
        total += cost.energy_per_cycle * (p.cycles as f64) * factor;
    }
    total += arch.total_static_power() * (arch.clock().period() * p.cycles as f64);
    for keeper in p.outer_traffic {
        let level = &arch.levels()[keeper.level];
        total += level.read_energy() * keeper.reads;
        total += level.write_energy() * keeper.writes;
    }
    for &(c, _, crossings) in p.conversions {
        total += arch.levels()[c].convert_energy() * crossings;
    }
    total.picojoules()
}

/// The pruned engine under the two-stage energy bound against the
/// transcription, and its winner against the whole-mapping dedup's;
/// returns the transcription's result.
fn check_staged(
    what: &str,
    arch: &Architecture,
    unbounded: &Architecture,
    layer: &Layer,
    cfg: SearchConfig,
) -> Option<SearchResult> {
    let cost = |a: &LayerAnalysis| breakdown_cost(arch, a);
    let bound = |m: &Mapping| staged_mapping_bound(arch, unbounded, layer, m);
    let oracle = transcribed_search(arch, layer, cfg, Some(&bound), Dedup::Analysis, cost);
    let engine = random_search(
        arch,
        layer,
        cfg,
        Some(&|p| staged_preview_bound(arch, p)),
        cost,
    );
    assert_same(&format!("{what} staged"), engine.as_ref(), oracle.as_ref());
    assert_same_winner(
        &format!("{what} staged, dedup on whole mappings"),
        engine.as_ref(),
        transcribed_search(arch, layer, cfg, Some(&bound), Dedup::Mapping, cost).as_ref(),
    );
    oracle
}

#[test]
fn the_two_stage_energy_bound_prunes_as_the_transcription_on_every_builtin_layer() {
    let cfg = SearchConfig {
        iterations: 160,
        seed: 0xBEEF,
    };
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        let config = AlbireoConfig::new(scaling);
        let arch = config.build_arch();
        let unbounded = config.with_glb_mebibytes(1 << 20).build_arch();
        let system = System::new(arch.clone(), MappingStrategy::RandomSearch(cfg));
        let mut signatures = HashSet::new();
        let mut pruned = 0;
        for name in networks::NAMES {
            let net = networks::by_name(name).unwrap();
            for layer in net.layers() {
                if !signatures.insert(layer.signature()) {
                    continue;
                }
                let what = format!("{scaling}/{name}/{}", layer.name());
                let oracle = check_staged(&what, &arch, &unbounded, layer, cfg)
                    .unwrap_or_else(|| panic!("{what}: no legal mapping"));
                pruned += oracle.pruned;
                assert_eq!(system.map_layer(layer).unwrap(), oracle.mapping, "{what}");
            }
        }
        assert!(signatures.len() > 30, "{} unique layers", signatures.len());
        assert!(pruned > 0, "the bound never pruned on {scaling}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two-stage energy bound on random small layers and random toy
    /// architectures, bounded buffers included.
    #[test]
    fn the_two_stage_energy_bound_prunes_as_the_transcription_on_random_archs(
        toy in toy_arch_strategy(),
        layer in toy_layer_strategy(),
        search in (40usize..=160, 0usize..1000),
    ) {
        let arch = toy.build();
        let unbounded = ToyArch { capacity_log2: 0, ..toy.clone() }.build();
        let cfg = SearchConfig { iterations: search.0, seed: search.1 as u64 };
        let what = format!("{toy:?}/{layer:?}/{cfg:?}");
        let found = check_staged(&what, &arch, &unbounded, &layer, cfg);
        prop_assert!(toy.capacity_log2 > 0 || found.is_some(), "{what}: no mapping");
    }
}
