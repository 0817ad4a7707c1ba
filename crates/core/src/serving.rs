//! Serving-trace evaluation: driving a serving scenario through an
//! [`EvalSession`].
//!
//! [`scenario_trace`] derives a
//! [`ServingScenario`](lumen_workload::ServingScenario)'s event-driven
//! schedule, lowers every step (decode groups *and* prefill chunks)
//! under the scenario's KV layout with
//! [`ServingModel::lower_serving_step_with`], evaluates it against one
//! session, and reduces the trace to per-step and aggregate serving
//! metrics: generated tokens per second, energy per token, slot
//! occupancy and MAC-weighted compute utilization. It also folds the
//! evaluated step durations into per-request [`RequestLatency`]
//! records — time-to-first-token and time-between-tokens percentiles in
//! real time at the system clock.
//!
//! The step networks are pure functions of each step's *bucketed
//! composition* (the multiset of padded attend lengths with group
//! sizes), so a thousand-step schedule revisits a handful of distinct
//! compositions and the session's content-addressed cache answers almost
//! every layer without a mapping search — the same economics that make
//! [`crate::decode::decode_sweep`] affordable, extended to mixed-length
//! traffic.
//!
//! # The step memo
//!
//! [`scenario_trace`] goes one level above that layer cache: it
//! evaluates each step *composition* once per trace, and lowers each
//! *segment* once. The key is [`ServingModel::step_composition`]: the
//! step's [`StepSegment`]s in lowering order — a bucketed decode group
//! `(padded attend length, group)` per length class (or, under a paged
//! layout, one paged decode set), then one prefill chunk `(padded attend
//! length, chunk, copy-on-write tokens)` per prefilling slot in
//! admission order. [`ServingModel::lower_serving_step_with`] *is* the
//! concatenation of the segments' lowerings, so two steps with equal
//! keys lower to identical layer-signature sequences. A trace has few
//! segments: the `serving_poisson` trace of `perfbench` (seed 1) builds
//! its 304 distinct compositions from 23.
//!
//! A cached trace runs in four phases:
//!
//! 1. *Intern* each step's composition, keeping the step it first
//!    occurs in.
//! 2. *Lower* each distinct segment once, from the slot it first occurs
//!    in, straight into shapes (one per unbatched signature), with no
//!    named network in between: [`ServingModel::lower_segment_part`]
//!    emits each layer unnamed, and the interner builds a layer's name
//!    only when its shape is new. Only decoder block 0 and the tail (the
//!    LM head) are lowered; blocks 1.. repeat block 0's shapes, since a
//!    segment's blocks differ only in their names. Each composition
//!    lays its positions out over *items*: a shape at one fusion
//!    position class (under fusion, a position's reroute depends only
//!    on whether it opens and whether it closes its step).
//! 3. *Resolve* every item in one call: the resolution
//!    [`EvalSession::evaluate_network`] also uses, which groups items
//!    by *(signature, reroute)*, answers cached keys on the calling
//!    thread, and fans every miss of the trace out over the session's
//!    [`SweepRunner`](crate::SweepRunner) at once. Each evaluation is
//!    read, in place, into a layer cost — cycles, MACs, utilization,
//!    backing accesses and its [`EnergyBreakdown`], whose items are the
//!    system's own, fixed when the [`System`](crate::System) was built
//!    — so no evaluation is cloned whole and no label is re-interned.
//! 4. *Fold* each distinct composition once over those costs, and build
//!    every step's point from its composition's cost plus the step's
//!    own occupancy and prefill tokens.
//!
//! The memo is exact. Within one trace the model, layout, options and
//! session are fixed and every *(signature, reroute)* key resolves to
//! one evaluation. The fold sums in execution order: cycles as `u64`,
//! backing accesses, MACs and MAC-weighted utilization as `f64`, and
//! energy as the positions' breakdowns merged, scaled by `1 / batch`
//! and totalled — exactly as [`EvalSession::evaluate_network`]'s rows
//! and breakdown are. A point therefore carries the very `f64`s those
//! rows give, and equal keys give equal `f64`s.
//! Block-once lowering changes none of this: block 0 comes before every
//! other block of its segment, and segments intern in first-occurrence
//! order, so every shape gets the id, first layer and name that
//! interning each segment's full [`ServingModel::lower_segment`] would
//! give it. Admission order is part of the key because it fixes that summation
//! order. A mapping failure depends only on a layer's signature, so the
//! first failing item in first-occurrence order belongs to the first
//! failing step, and is named after that step's own layer, the one the
//! step-by-step walk would report.
//!
//! A trace credits the session's and the cache's hit counters with
//! every layer position of every step that the resolution did not
//! count: hits plus misses equal the layers of the lowered steps, and
//! misses are the mapping searches, one per new *(signature, reroute)*
//! key. Every "N mapping searches served M layer evaluations" report
//! reads the same with or without the memo. A session without a cache
//! (`--no-cache`, or `LUMEN_EVAL_CACHE=0`) gets no memo either, so it
//! stays the literal A/B path: it lowers and resolves every layer of
//! every step, without grouping, and feeds the same fold.
//!
//! # Examples
//!
//! ```
//! use lumen_arch::{ArchBuilder, Domain, Fanout};
//! use lumen_core::serving::scenario_trace;
//! use lumen_core::{EvalSession, MappingStrategy, NetworkOptions, System};
//! use lumen_units::{Energy, Frequency};
//! use lumen_workload::serving::{RequestMix, ServingModel, ServingScenario};
//! use lumen_workload::{Dim, DimSet, TensorSet};
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
//! let scenario = ServingScenario::builder(RequestMix::uniform(4, 100, 4).unwrap(), 2)
//!     .kv_bucket(64)
//!     .build()
//!     .unwrap();
//! let result = scenario_trace(
//!     &session,
//!     &ServingModel::gpt2_small(),
//!     &scenario,
//!     &NetworkOptions::baseline(),
//! )
//! .unwrap();
//! assert_eq!(result.total_tokens(), 16);
//! assert_eq!(result.total_prefill_tokens(), 4 * 100);
//! assert!(result.pj_per_token() > 0.0);
//! ```

use crate::evaluator::Reroute;
use crate::network::{fusion_class, fusion_reroute};
use crate::{EnergyBreakdown, EvalSession, LayerEvaluation, NetworkOptions, SystemError};
use lumen_units::{Energy, Frequency};
use lumen_workload::serving::{
    ActiveSlot, KvLayout, PrefillSlot, SegmentPart, ServingModel, ServingScenario, ServingStep,
    StepComposition, StepSegment,
};
use lumen_workload::{Layer, LayerSignature, LayerSink, WordHasher};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;

/// One scheduler step of a serving sweep, reduced to scalars so a long
/// trace stays cheap to hold.
#[derive(Debug, Clone)]
pub struct ServingStepPoint {
    /// Step index in the schedule.
    pub step: usize,
    /// Requests decoding this step (each generated one token).
    pub occupancy: usize,
    /// Prompt tokens prefilled this step (0 under resident prefill).
    pub prefill_tokens: usize,
    /// True MACs of the step's lowered network (padded accounting).
    pub macs: u64,
    /// Element accesses (reads + writes + conversions) at the
    /// outermost architecture level — the backing store's traffic, the
    /// quantity bucket padding inflates and paged residency trims.
    pub backing_accesses: f64,
    /// Total energy of the step.
    pub energy: Energy,
    /// Total cycles of the step.
    pub cycles: f64,
    /// MAC-weighted compute utilization of the step, in (0, 1].
    pub utilization: f64,
}

/// Nearest-rank percentiles over a latency sample, in seconds.
///
/// All three are 0.0 for an empty sample — consistent with the
/// guarded aggregate accessors on [`ServingEvaluation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (order irrelevant).
    ///
    /// Textbook nearest rank, computed in integers: the P-th percentile
    /// of `n` sorted samples is the one at rank `ceil(P·n/100)`
    /// (1-based). The previous float formulation (`(q * n).ceil()`)
    /// drifted off by one whenever `q·n` landed an ulp above an integer
    /// — `0.95 × 20 = 19.000000000000004` rounded up to rank 20 —
    /// which exact-value tests now pin.
    ///
    /// The three ranks are selected, not sorted for: p99's over the
    /// whole sample, then p95's and p50's among the samples left of it,
    /// each in [`f64::total_cmp`]'s order, so every value is the sorted
    /// sample's at that rank, bit for bit.
    pub fn from_samples(mut samples: Vec<f64>) -> Percentiles {
        if samples.is_empty() {
            return Percentiles {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let n = samples.len();
        let index = |percent: usize| (percent * n).div_ceil(100).max(1) - 1;
        // Selecting index `i` leaves every sample ordered before it in
        // `..i`, so a lower rank is selected there (or is `i` itself).
        let mut select = |i: usize, within: usize| {
            if i < within {
                samples[..within].select_nth_unstable_by(i, f64::total_cmp);
            }
            samples[i]
        };
        let (i99, i95, i50) = (index(99), index(95), index(50));
        let p99 = select(i99, n);
        let p95 = select(i95, i99);
        let p50 = select(i50, i95);
        Percentiles { p50, p95, p99 }
    }
}

/// The latency record of one request through an evaluated trace, in
/// cycles at the evaluated system's clock. Cycle timestamps are
/// cumulative evaluated step durations: a step's tokens all complete
/// at the step's end, and the request clock starts at the beginning of
/// the first busy step at or after the request's arrival step (idle
/// gaps are fast-forwarded — a work-conserving server starts prefill
/// the moment a request reaches an idle machine).
#[derive(Debug, Clone)]
pub struct RequestLatency {
    /// Index of the request in its mix.
    pub request: usize,
    /// When the request arrived.
    pub arrival_cycles: f64,
    /// When the request first occupied a slot (prefill or decode).
    pub admission_cycles: f64,
    /// When the request's first generated token completed.
    pub first_token_cycles: f64,
    /// When the request's last token completed.
    pub retire_cycles: f64,
    /// Tokens the request generated.
    pub generated: usize,
    /// Gaps between consecutive token completions (length
    /// `generated - 1`).
    pub token_gap_cycles: Vec<f64>,
}

impl RequestLatency {
    /// Time to first token: arrival to first generated-token
    /// completion (queueing + prefill + the first decode step).
    pub fn ttft_cycles(&self) -> f64 {
        self.first_token_cycles - self.arrival_cycles
    }

    /// Time the request queued before taking a slot.
    pub fn queue_cycles(&self) -> f64 {
        self.admission_cycles - self.arrival_cycles
    }
}

/// The reduced result of a serving sweep: per-step points plus the
/// aggregates serving actually optimizes for.
#[derive(Debug, Clone)]
pub struct ServingEvaluation {
    /// Decode slots of the schedule the sweep evaluated.
    pub capacity: usize,
    /// The KV rounding quantum the steps were lowered with: the bucket
    /// under a bucketed layout, the page under a paged one.
    pub kv_bucket: usize,
    /// One point per scheduler step, execution order.
    pub points: Vec<ServingStepPoint>,
    /// Per-request latency records, ordered by request index. Under
    /// closed-loop arrivals every request arrives at step 0, so TTFT
    /// measures pure queueing + first decode.
    pub requests: Vec<RequestLatency>,
}

impl ServingEvaluation {
    /// Tokens generated over the whole trace.
    pub fn total_tokens(&self) -> u64 {
        self.points.iter().map(|p| p.occupancy as u64).sum()
    }

    /// Total MACs of the trace (padded accounting).
    pub fn total_macs(&self) -> u64 {
        self.points.iter().map(|p| p.macs).sum()
    }

    /// Total energy of the trace.
    pub fn total_energy(&self) -> Energy {
        self.points
            .iter()
            .fold(Energy::ZERO, |acc, p| acc + p.energy)
    }

    /// Total cycles of the trace.
    pub fn total_cycles(&self) -> f64 {
        self.points.iter().map(|p| p.cycles).sum()
    }

    /// Prompt tokens prefilled over the whole trace.
    pub fn total_prefill_tokens(&self) -> u64 {
        self.points.iter().map(|p| p.prefill_tokens as u64).sum()
    }

    /// Element accesses at the outermost (backing-store) architecture
    /// level over the whole trace — the DRAM-traffic axis of the
    /// bucketed-vs-paged comparison.
    pub fn total_backing_accesses(&self) -> f64 {
        self.points.iter().map(|p| p.backing_accesses).sum()
    }

    /// Aggregate serving throughput in generated tokens per second:
    /// every step's tokens over every step's wall time at `clock`.
    /// 0.0 for an empty or zero-cycle trace, like every other
    /// aggregate here — a degenerate trace reports zeros, never NaN.
    pub fn tokens_per_second(&self, clock: Frequency) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / (cycles * clock.period().seconds())
    }

    /// Aggregate energy per generated token, in picojoules; 0.0 for a
    /// trace that generated no tokens.
    pub fn pj_per_token(&self) -> f64 {
        let tokens = self.total_tokens();
        if tokens == 0 {
            return 0.0;
        }
        self.total_energy().picojoules() / tokens as f64
    }

    /// Aggregate energy per MAC, in picojoules; 0.0 for an empty
    /// trace.
    pub fn pj_per_mac(&self) -> f64 {
        let macs = self.total_macs();
        if macs == 0 {
            return 0.0;
        }
        self.total_energy().picojoules() / macs as f64
    }

    /// Mean decode-slot occupancy over the trace: in (0, 1] for a
    /// trace with steps, 0.0 for an empty one.
    pub fn mean_occupancy(&self) -> f64 {
        let steps = self.points.len();
        if steps == 0 {
            return 0.0;
        }
        self.total_tokens() as f64 / (steps * self.capacity) as f64
    }

    /// MAC-weighted compute utilization over the whole trace; 0.0 for
    /// an empty trace.
    pub fn average_utilization(&self) -> f64 {
        let total = self.total_macs() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.utilization * p.macs as f64 / total)
            .sum()
    }

    /// Time-to-first-token percentiles over all requests, in seconds
    /// of wall time at `clock`.
    pub fn ttft_percentiles(&self, clock: Frequency) -> Percentiles {
        let period = clock.period().seconds();
        Percentiles::from_samples(
            self.requests
                .iter()
                .map(|r| r.ttft_cycles() * period)
                .collect(),
        )
    }

    /// Time-between-tokens percentiles, pooled over every consecutive
    /// token pair of every request, in seconds at `clock`.
    pub fn tbt_percentiles(&self, clock: Frequency) -> Percentiles {
        let period = clock.period().seconds();
        Percentiles::from_samples(
            self.requests
                .iter()
                .flat_map(|r| r.token_gap_cycles.iter().map(|g| g * period))
                .collect(),
        )
    }
}

/// The latency record of `request`, opened on its first step, which
/// spans `start..end` in cycles.
fn admitted(
    records: &mut Vec<Option<RequestLatency>>,
    request: usize,
    start: f64,
    end: f64,
) -> &mut RequestLatency {
    if records.len() <= request {
        records.resize_with(request + 1, || None);
    }
    records[request].get_or_insert_with(|| RequestLatency {
        request,
        arrival_cycles: 0.0,
        admission_cycles: start,
        first_token_cycles: f64::NAN,
        retire_cycles: end,
        generated: 0,
        token_gap_cycles: Vec::new(),
    })
}

/// Folds evaluated step durations into per-request latency records.
/// `arrivals` maps request index to arrival step; `steps` yields each
/// emitted step's wall step, decoding and prefilling slots, and
/// evaluated cycles, in execution order.
fn request_latencies<'s>(
    arrivals: &[usize],
    steps: impl IntoIterator<Item = (usize, &'s [ActiveSlot], &'s [PrefillSlot], f64)>,
) -> Vec<RequestLatency> {
    // (wall, start-time) per emitted step, to resolve arrival steps —
    // which may fall in a fast-forwarded idle gap — onto the cycle
    // clock of the first busy step at or after them.
    let mut spans = Vec::new();
    // Indexed by request; a request no step served stays `None`.
    let mut records: Vec<Option<RequestLatency>> = Vec::new();
    let mut now = 0.0;
    for (wall, decode, prefill, dur) in steps {
        let (start, end) = (now, now + dur);
        spans.push((wall, start));
        now = end;
        for slot in prefill {
            admitted(&mut records, slot.request, start, end);
        }
        for slot in decode {
            // Every decoding slot completes one token at step end.
            let record = admitted(&mut records, slot.request, start, end);
            if record.generated == 0 {
                record.first_token_cycles = end;
            } else {
                record.token_gap_cycles.push(end - record.retire_cycles);
            }
            record.generated += 1;
            record.retire_cycles = end;
        }
    }
    let mut records: Vec<RequestLatency> = records.into_iter().flatten().collect();
    for record in &mut records {
        let wall = arrivals.get(record.request).copied().unwrap_or(0);
        // First emitted step at or after the arrival step: its start is
        // when the server could first see the request. Emitted steps
        // ascend in wall step, so binary search.
        record.arrival_cycles = spans
            .get(spans.partition_point(|&(w, _)| w < wall))
            .map_or(0.0, |&(_, start)| start);
    }
    records
}

/// The part of a [`ServingStepPoint`] that is a pure function of the
/// step's lowered network — what a trace computes once per distinct
/// [`StepComposition`].
#[derive(Debug, Clone, Copy)]
struct StepCost {
    macs: u64,
    backing_accesses: f64,
    energy: Energy,
    cycles: f64,
    utilization: f64,
}

impl StepCost {
    fn point(&self, step: usize, occupancy: usize, prefill_tokens: usize) -> ServingStepPoint {
        ServingStepPoint {
            step,
            occupancy,
            prefill_tokens,
            macs: self.macs,
            backing_accesses: self.backing_accesses,
            energy: self.energy,
            cycles: self.cycles,
            utilization: self.utilization,
        }
    }
}

/// One layer evaluation reduced to what a step cost sums.
struct LayerCost {
    cycles: u64,
    /// MACs of the evaluated (batched) layer: the utilization weight.
    macs: u64,
    utilization: f64,
    /// Element accesses at the outermost architecture level (the
    /// backing store's read + write + conversion traffic), if the
    /// analysis has levels. `LayerAnalysis::levels` is outermost-first.
    backing: Option<f64>,
    /// The evaluation's energy, over the system's items.
    energy: EnergyBreakdown,
}

impl LayerCost {
    fn of(eval: &LayerEvaluation) -> LayerCost {
        LayerCost {
            cycles: eval.analysis.cycles,
            macs: eval.analysis.macs,
            utilization: eval.analysis.utilization,
            backing: eval
                .analysis
                .levels
                .first()
                .map(lumen_mapper::LevelTraffic::total_accesses),
            energy: eval.energy.clone(),
        }
    }
}

/// The one summation routine behind every step cost, with its reusable
/// buffers.
struct Fold<'t> {
    /// The step's positions: each the true MACs of its unbatched layer
    /// and its evaluation's cost.
    layers: Vec<(u64, &'t LayerCost)>,
    /// The step's energy.
    energy: EnergyBreakdown,
}

impl<'t> Fold<'t> {
    fn new(session: &EvalSession) -> Fold<'t> {
        Fold {
            layers: Vec::new(),
            energy: session.system().energy_breakdown(),
        }
    }

    /// Folds a step's positions, in execution order, into the step's
    /// cost at per-inference `scale` (`1 / batch`). Every sum runs in
    /// execution order, and the energy is the positions' breakdowns
    /// merged, scaled and totalled, exactly as
    /// [`EvalSession::evaluate_network`]'s breakdown is, so every scalar
    /// is bit-identical to its rows.
    fn cost(
        &mut self,
        layers: impl IntoIterator<Item = (u64, &'t LayerCost)>,
        scale: f64,
    ) -> StepCost {
        self.layers.clear();
        self.layers.extend(layers);
        self.energy.clear();
        let mut cycles = 0u64;
        for (_, layer) in &self.layers {
            cycles += layer.cycles;
            self.energy.merge(&layer.energy);
        }
        let layers = || self.layers.iter().map(|&(macs, layer)| (macs, layer));
        let macs: f64 = layers().map(|(_, l)| l.macs as f64).sum();
        StepCost {
            macs: layers().map(|(macs, _)| macs).sum(),
            backing_accesses: layers().filter_map(|(_, l)| l.backing).sum(),
            energy: self.energy.scaled(scale).total(),
            cycles: cycles as f64 * scale,
            // MAC-weighted, as `NetworkEvaluation::average_utilization`.
            utilization: layers()
                .map(|(_, l)| l.utilization * l.macs as f64 / macs)
                .sum(),
        }
    }
}

/// A map keyed on a trace's own interned values (compositions,
/// segments, layer signatures), hashed word by word with
/// [`WordHasher`].
type TraceMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A distinct layer shape of a trace: the first layer lowered with its
/// unbatched signature (batched when the options ask for a batch), its
/// true MACs, and the resolution item of each fusion position class it
/// has taken in some step.
struct Shape {
    layer: Layer,
    macs: u64,
    items: [u32; 4],
}

/// A trace's distinct segments, each kept only as the sequence of its
/// layers' shapes.
#[derive(Default)]
struct Segments {
    ids: TraceMap<StepSegment, usize>,
    /// Each segment's layers, as shape ids.
    layer_shapes: Vec<Vec<u32>>,
    shape_ids: TraceMap<LayerSignature, u32>,
    shapes: Vec<Shape>,
}

/// The interner's [`LayerSink`]: collects the shape id of each layer it
/// is given, and names (and batches) a layer only when its shape is new.
struct ShapeSink<'s> {
    segments: &'s mut Segments,
    batch: usize,
    ids: Vec<u32>,
}

impl LayerSink for ShapeSink<'_> {
    fn emit(&mut self, layer: Layer, name: impl FnOnce() -> String) {
        let segments = &mut *self.segments;
        let next = segments.shapes.len() as u32;
        let id = *segments
            .shape_ids
            .entry(layer.signature())
            .or_insert_with(|| {
                let macs = layer.macs();
                let layer = layer.with_name(name());
                segments.shapes.push(Shape {
                    layer: if self.batch > 1 {
                        layer.with_batch(self.batch)
                    } else {
                        layer
                    },
                    macs,
                    items: [u32::MAX; 4],
                });
                next
            });
        self.ids.push(id);
    }
}

impl Segments {
    /// The id of `segment`, interning its shapes on first sight from
    /// [`ServingModel::lower_segment_part`], which names a layer (as for
    /// `request`) only when its shape is new. Block-once: only block 0
    /// and the tail are lowered, and blocks 1.. repeat block 0's shape
    /// ids, since a segment's blocks differ only in their layer names.
    /// This is exact. Block 0 precedes every other block, and segments
    /// intern in first-occurrence order, so every shape gets the id,
    /// and its first layer the name, that interning the literal
    /// [`ServingModel::lower_segment`] would give it.
    fn intern(
        &mut self,
        model: &ServingModel,
        segment: &StepSegment,
        request: usize,
        batch: usize,
    ) -> usize {
        if let Some(&id) = self.ids.get(segment) {
            return id;
        }
        let mut sink = ShapeSink {
            segments: self,
            batch,
            ids: Vec::new(),
        };
        model.lower_segment_part(segment, request, SegmentPart::Block(0), &mut sink);
        let block = sink.ids.len();
        model.lower_segment_part(segment, request, SegmentPart::Tail, &mut sink);
        let ShapeSink { ids, .. } = sink;
        let (block, tail) = ids.split_at(block);
        let mut layers = block.repeat(model.blocks());
        layers.extend_from_slice(tail);
        self.ids.insert(segment.clone(), self.layer_shapes.len());
        self.layer_shapes.push(layers);
        self.layer_shapes.len() - 1
    }

    /// The shape at each position of a step made of the segments `ids`,
    /// in execution order.
    fn positions<'s>(&'s self, ids: &'s [usize]) -> impl Iterator<Item = usize> + Clone + 's {
        ids.iter()
            .flat_map(|&id| self.layer_shapes[id].iter().map(|&shape| shape as usize))
    }
}

/// Evaluates a scenario through a session: derives the scenario's
/// event-driven schedule, lowers every emitted step — decode groups
/// *and* prefill chunks — with [`ServingModel::lower_serving_step_with`]
/// under the scenario's own KV layout, and folds the evaluated step
/// durations into per-request latency records: TTFT/TBT are read off
/// [`ServingEvaluation::ttft_percentiles`] /
/// [`ServingEvaluation::tbt_percentiles`] in real time at the system
/// clock. This is the single-instance entry point every study shares,
/// and the degenerate (N = 1) case of [`crate::fleet_trace`].
///
/// A request's prompt costs MACs, energy and cycles in the step(s)
/// that prefill it (unless the scenario keeps prompts resident), so a
/// one-request trace's totals equal the prefill + decode closed forms
/// ([`ServingModel::prefill_macs`] +
/// [`ServingModel::serving_step_macs_with`]). Under a paged layout
/// attend lengths pad to the page instead of the bucket and each
/// sharer's first private chunk pays the shared prefix's copy-on-write;
/// because a page divides the usual bucket, the paged trace's
/// backing-store traffic ([`ServingEvaluation::total_backing_accesses`])
/// is bounded above by the bucketed trace's.
///
/// On a cached session each distinct step segment is lowered once and
/// each distinct [`ServingModel::step_composition`] folded once per
/// trace; see the [step memo](self#the-step-memo).
///
/// # Errors
///
/// [`SystemError::NoMapping`] for the first step (in execution order)
/// with an unmappable layer.
pub fn scenario_trace(
    session: &EvalSession,
    model: &ServingModel,
    scenario: &ServingScenario,
    options: &NetworkOptions,
) -> Result<ServingEvaluation, SystemError> {
    let schedule = scenario.schedule();
    let (steps, layout) = (schedule.steps(), scenario.layout());
    let points = if session.cache().is_some() {
        segmented_points(session, model, steps, layout, options)?
    } else {
        literal_points(session, model, steps, layout, options)?
    };
    let requests = request_latencies(
        schedule.arrivals(),
        steps
            .iter()
            .zip(&points)
            .map(|(state, point)| (state.wall(), state.decode(), state.prefill(), point.cycles)),
    );
    Ok(ServingEvaluation {
        capacity: schedule.capacity(),
        kv_bucket: layout.quantum(),
        points,
        requests,
    })
}

/// The step memo's trace (see the module docs): intern the
/// compositions, lower each distinct segment once, resolve every item
/// in one call into layer costs, and fold each distinct composition
/// once over them.
fn segmented_points(
    session: &EvalSession,
    model: &ServingModel,
    steps: &[ServingStep],
    layout: &KvLayout,
    options: &NetworkOptions,
) -> Result<Vec<ServingStepPoint>, SystemError> {
    let (batch, fusion) = (options.batch.max(1), options.fusion.as_ref());
    let arch = session.system().arch();

    // 1. Intern each step's composition, keeping its first step.
    let mut interned: TraceMap<StepComposition, usize> = TraceMap::default();
    let mut distinct: Vec<(usize, StepComposition)> = Vec::new();
    let composition_of: Vec<usize> = steps
        .iter()
        .enumerate()
        .map(|(step, state)| {
            let next = interned.len();
            match interned.entry(ServingModel::step_composition(state, layout)) {
                Entry::Occupied(seen) => *seen.get(),
                Entry::Vacant(new) => {
                    distinct.push((step, new.key().clone()));
                    *new.insert(next)
                }
            }
        })
        .collect();
    drop(interned);

    // 2. Lower each distinct segment once, from the step it first occurs
    // in, and give every (shape, position class) a composition takes a
    // resolution item.
    let mut segments = Segments::default();
    // Each distinct composition's segment ids and layer count.
    let mut compositions: Vec<(Vec<usize>, usize)> = Vec::with_capacity(distinct.len());
    let mut items: Vec<(usize, Reroute)> = Vec::new();
    let mut shapes = Vec::new();
    for (first, composition) in &distinct {
        let state = &steps[*first];
        let ids: Vec<usize> = composition
            .segment_requests(state)
            .map(|(segment, request)| segments.intern(model, segment, request, batch))
            .collect();
        shapes.clear();
        shapes.extend(segments.positions(&ids));
        let last = shapes.len().saturating_sub(1);
        for (position, &shape) in shapes.iter().enumerate() {
            let item = &mut segments.shapes[shape].items[fusion_class(fusion, position, last)];
            if *item == u32::MAX {
                *item = items.len() as u32;
                items.push((shape, fusion_reroute(arch, fusion, position, last)));
            }
        }
        compositions.push((ids, shapes.len()));
    }
    drop(distinct);

    // 3. One resolution — one miss fan-out — for the whole trace, read
    // straight into layer costs.
    let resolved = items.len();
    let items: Vec<(&Layer, Reroute)> = items
        .into_iter()
        .map(|(shape, reroute)| (&segments.shapes[shape].layer, reroute))
        .collect();
    let costs = session.resolve(&items, |eval| LayerCost::of(&eval))?;
    drop(items);
    // Every position of every step is a layer lookup the trace
    // answered: the resolution counted one per item, so the rest are
    // hits.
    let lookups: usize = composition_of.iter().map(|&c| compositions[c].1).sum();
    session.credit_cache_hits((lookups - resolved) as u64);

    // 4. Fold each distinct composition once.
    let mut fold = Fold::new(session);
    let scale = 1.0 / batch as f64;
    let step_costs: Vec<StepCost> = compositions
        .iter()
        .map(|(ids, len)| {
            let last = len.saturating_sub(1);
            let layers = segments
                .positions(ids)
                .enumerate()
                .map(|(position, shape)| {
                    let shape = &segments.shapes[shape];
                    let item = shape.items[fusion_class(fusion, position, last)];
                    (shape.macs, costs.get(item as usize))
                });
            fold.cost(layers, scale)
        })
        .collect();
    Ok(steps
        .iter()
        .zip(composition_of)
        .enumerate()
        .map(|(step, (state, c))| {
            step_costs[c].point(step, state.decode().len(), state.prefill_tokens())
        })
        .collect())
}

/// The uncached A/B trace: lowers and resolves every step literally,
/// with no memo and no grouping, and folds it with the same routine.
fn literal_points(
    session: &EvalSession,
    model: &ServingModel,
    steps: &[ServingStep],
    layout: &KvLayout,
    options: &NetworkOptions,
) -> Result<Vec<ServingStepPoint>, SystemError> {
    let batch = options.batch.max(1);
    steps
        .iter()
        .enumerate()
        .map(|(step, state)| {
            let net = model.lower_serving_step_with(state, layout);
            let batched = options.batched(&net);
            let items = session.rerouted(batched.layers(), options);
            let costs = session.resolve(&items, |eval| LayerCost::of(&eval))?;
            let layers = net
                .layers()
                .iter()
                .enumerate()
                .map(|(item, layer)| (layer.macs(), costs.get(item)));
            let cost = Fold::new(session).cost(layers, 1.0 / batch as f64);
            Ok(cost.point(step, state.decode().len(), state.prefill_tokens()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostCategory, MappingStrategy, System};
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_workload::serving::{
        ArrivalProcess, Fleet, FleetRouter, PrefillMode, Request, RequestMix,
        ServingScenarioBuilder,
    };
    use lumen_workload::{Dim, DimSet, TensorSet};
    use std::sync::Arc;

    fn session() -> EvalSession {
        let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(100.0))
            .write_energy(Energy::from_picojoules(100.0))
            .done()
            .storage("glb", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(1.0))
            .write_energy(Energy::from_picojoules(1.0))
            .fanout(Fanout::new(64).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P])))
            .done()
            .compute(
                "mac",
                Domain::DigitalElectrical,
                Energy::from_picojoules(0.05),
            )
            .build()
            .unwrap();
        EvalSession::new(System::new(arch, MappingStrategy::default()))
    }

    /// Traces `builder`'s scenario through a fresh toy session.
    fn trace(builder: ServingScenarioBuilder) -> ServingEvaluation {
        let scenario = builder.build().unwrap();
        let model = ServingModel::gpt2_small();
        scenario_trace(&session(), &model, &scenario, &NetworkOptions::baseline()).unwrap()
    }

    #[test]
    fn sweep_aggregates_match_schedule() {
        let session = session();
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(4, 100, 4).unwrap();
        let scenario = ServingScenario::builder(mix.clone(), 2)
            .kv_bucket(64)
            .prefill(PrefillMode::Resident)
            .build()
            .unwrap();
        let schedule = scenario.schedule();
        let result =
            scenario_trace(&session, &model, &scenario, &NetworkOptions::baseline()).unwrap();
        assert_eq!(result.points.len(), schedule.total_steps());
        assert_eq!(result.total_tokens(), mix.total_output_tokens());
        assert!((result.mean_occupancy() - schedule.mean_occupancy()).abs() < 1e-12);
        // Per-step MACs match the lowering's closed form.
        for (point, step) in result.points.iter().zip(schedule.steps()) {
            assert_eq!(
                point.macs,
                model.serving_step_macs_with(step, scenario.layout())
            );
            assert!(point.energy > Energy::ZERO);
            assert!(point.cycles > 0.0);
            assert!(point.utilization > 0.0 && point.utilization <= 1.0 + 1e-9);
        }
        assert!(result.pj_per_token() > 0.0);
        assert!(result.pj_per_mac() > 0.0);
        assert!(result.tokens_per_second(Frequency::from_gigahertz(1.0)) > 0.0);
        let util = result.average_utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9);
        // The uniform full-occupancy trace revisits one composition:
        // mapping searches stay a tiny fraction of the layer evals.
        let stats = session.cache_stats();
        assert!(stats.hit_rate() > 0.8, "hit rate {:.3}", stats.hit_rate());
    }

    #[test]
    fn empty_and_degenerate_traces_report_zeros_not_nan() {
        let empty = ServingEvaluation {
            capacity: 4,
            kv_bucket: 64,
            points: Vec::new(),
            requests: Vec::new(),
        };
        let clock = Frequency::from_gigahertz(1.0);
        // All five aggregates guard the division the same way.
        assert_eq!(empty.tokens_per_second(clock), 0.0);
        assert_eq!(empty.pj_per_token(), 0.0);
        assert_eq!(empty.pj_per_mac(), 0.0);
        assert_eq!(empty.mean_occupancy(), 0.0);
        assert_eq!(empty.average_utilization(), 0.0);
        let p = empty.ttft_percentiles(clock);
        assert_eq!((p.p50, p.p95, p.p99), (0.0, 0.0, 0.0));
        assert_eq!(empty.tbt_percentiles(clock).p99, 0.0);

        // A trace whose steps carry no work (all-zero point) stays
        // finite too.
        let degenerate = ServingEvaluation {
            capacity: 1,
            kv_bucket: 64,
            points: vec![ServingStepPoint {
                step: 0,
                occupancy: 0,
                prefill_tokens: 0,
                macs: 0,
                backing_accesses: 0.0,
                energy: Energy::ZERO,
                cycles: 0.0,
                utilization: 0.0,
            }],
            requests: Vec::new(),
        };
        assert_eq!(degenerate.tokens_per_second(clock), 0.0);
        assert_eq!(degenerate.pj_per_token(), 0.0);
        assert_eq!(degenerate.pj_per_mac(), 0.0);
        assert_eq!(degenerate.mean_occupancy(), 0.0);
        assert_eq!(degenerate.average_utilization(), 0.0);
    }

    #[test]
    fn arrivals_in_idle_gaps_resolve_to_the_next_busy_step() {
        // Busy walls 3, 4, 10, 11; walls 0..3 are a leading idle gap
        // and 5..10 a fast-forwarded one.
        let prefill = |request| PrefillSlot {
            request,
            cached: 0,
            chunk: 8,
            shared: 0,
        };
        let decode = |request| ActiveSlot { request, kv_len: 8 };
        let steps = [
            (3, vec![], vec![prefill(0)]),
            (4, vec![decode(0)], vec![]),
            (10, vec![decode(0)], vec![prefill(1)]),
            (11, vec![decode(1), decode(2)], vec![]),
        ];
        // Starts 0, 5, 12, 23; ends 5, 12, 23, 36.
        let cycles = [5.0, 7.0, 11.0, 13.0];
        let records = request_latencies(
            &[1, 6, 11],
            steps
                .iter()
                .zip(cycles)
                .map(|((wall, decode, prefill), dur)| (*wall, &decode[..], &prefill[..], dur)),
        );
        let got: Vec<_> = records
            .iter()
            .map(|r| {
                (
                    r.request,
                    r.arrival_cycles,
                    r.admission_cycles,
                    r.first_token_cycles,
                    r.retire_cycles,
                    r.generated,
                    r.token_gap_cycles.clone(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                // Arrives in the leading gap: clock starts at wall 3.
                (0, 0.0, 0.0, 12.0, 23.0, 2, vec![11.0]),
                // Arrives mid-gap at wall 6: clock starts at wall 10.
                (1, 12.0, 12.0, 36.0, 36.0, 1, vec![]),
                // Arrives exactly on a busy wall.
                (2, 23.0, 23.0, 36.0, 36.0, 1, vec![]),
            ]
        );
        assert_eq!(records[1].ttft_cycles(), 24.0);
    }

    #[test]
    fn fold_energy_matches_the_scaled_breakdown_bit_for_bit() {
        use crate::energy::{reference::ReferenceBreakdown, EnergyTable};
        use lumen_workload::TensorKind::{Input, Output, Weight};
        use CostCategory::{Conversion, PerCycle, Storage};
        // Three layers: repeated labels, a zero item, labels that differ
        // only by tensor, values that round differently in different
        // orders, and items interned by a later layer but seen first.
        let layers = [
            vec![
                ("glb", Storage, Some(Weight), 0.1),
                ("glb", Storage, Some(Input), 0.2),
                ("adc", Conversion, None, 0.0),
            ],
            vec![
                ("laser", PerCycle, None, 1e16),
                ("glb", Storage, Some(Weight), 0.7),
                ("adc", Conversion, None, 3.3),
            ],
            vec![
                ("glb", Storage, Some(Output), 1.0 / 3.0),
                ("laser", PerCycle, None, 2.9),
                ("glb", Storage, Some(Input), 1e-9),
            ],
        ];
        let mut table = EnergyTable::default();
        let ids: Vec<Vec<usize>> = layers
            .iter()
            .map(|adds| {
                adds.iter()
                    .map(|&(label, category, tensor, _)| table.intern(label, category, tensor))
                    .collect()
            })
            .collect();
        let table = Arc::new(table);
        let mut references = Vec::new();
        let costs: Vec<LayerCost> = layers
            .iter()
            .zip(&ids)
            .map(|(adds, ids)| {
                let mut energy = EnergyBreakdown::new(Arc::clone(&table));
                let mut reference = ReferenceBreakdown::default();
                for (&(label, category, tensor, pj), &id) in adds.iter().zip(ids) {
                    energy.add(id, Energy::from_picojoules(pj));
                    reference.add(label, category, tensor, Energy::from_picojoules(pj));
                }
                references.push(reference);
                LayerCost {
                    cycles: 1,
                    macs: 1,
                    utilization: 1.0,
                    backing: None,
                    energy,
                }
            })
            .collect();
        let positions = [1, 0, 2, 0, 1, 2];
        // The reference: the per-layer breakdowns merged in execution
        // order, then scaled per item, as `evaluate_network` totals them.
        let mut merged = ReferenceBreakdown::default();
        for &p in &positions {
            merged.merge(&references[p]);
        }
        let mut fold = Fold {
            layers: Vec::new(),
            energy: EnergyBreakdown::new(table),
        };
        // A 0.1 scale rounds differently per item than on the total.
        for factor in [1.0, 1.0 / 3.0, 0.25, 0.1, 1.0 / 7.0] {
            let cost = fold.cost(positions.iter().map(|&p| (0, &costs[p])), factor);
            assert_eq!(
                cost.energy.picojoules().to_bits(),
                merged.scaled(factor).total().picojoules().to_bits(),
                "{factor}"
            );
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = Percentiles::from_samples((1..=100).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        let single = Percentiles::from_samples(vec![7.0]);
        assert_eq!((single.p50, single.p95, single.p99), (7.0, 7.0, 7.0));
        let two = Percentiles::from_samples(vec![3.0, 1.0]);
        assert_eq!(two.p50, 1.0);
        assert_eq!(two.p99, 3.0);
    }

    #[test]
    fn percentiles_match_the_textbook_ranks_exactly() {
        // n = 20 is the float-drift regression: 0.95 × 20 =
        // 19.000000000000004, whose ceil() is 20 — one rank too high.
        // Textbook nearest rank: ceil(95·20/100) = 19.
        let p = Percentiles::from_samples((1..=20).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (10.0, 19.0, 20.0));
        // Same drift class at n = 40: ceil(0.95·40) must be 38, and
        // p50 of an even count is the lower of the middle pair.
        let p = Percentiles::from_samples((1..=40).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (20.0, 38.0, 40.0));
        // Two samples: rank(50) = ceil(100/100) = 1, rank(95) =
        // ceil(190/100) = 2.
        let p = Percentiles::from_samples(vec![1.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (1.0, 3.0, 3.0));
        // Three samples: p50 is the true median.
        let p = Percentiles::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (3.0, 5.0, 5.0));
        // Unsorted input and an exact-boundary count (n = 200, all
        // ranks integral before rounding).
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let p = Percentiles::from_samples(v);
        assert_eq!((p.p50, p.p95, p.p99), (100.0, 190.0, 198.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// Selection reads the sorted sample's ranks bit for bit, on
        /// samples with repeats and zeros of both signs.
        #[test]
        fn percentiles_select_the_sorted_ranks(
            picks in proptest::collection::vec(0usize..12, 1..300),
        ) {
            const VALUES: [f64; 12] =
                [0.0, -0.0, 1.0, -1.0, 2.5, 1e-9, -3.0, 7.0, 1.0, 0.0, 1e300, -1e-300];
            let samples: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = |percent: usize| {
                sorted[(percent * sorted.len()).div_ceil(100).max(1) - 1].to_bits()
            };
            let p = Percentiles::from_samples(samples);
            proptest::prop_assert_eq!(
                (p.p50.to_bits(), p.p95.to_bits(), p.p99.to_bits()),
                (rank(50), rank(95), rank(99))
            );
        }
    }

    #[test]
    fn paged_layout_trims_backing_traffic_and_macs() {
        let scenario = || {
            ServingScenario::builder(RequestMix::uniform(2, 100, 6).unwrap(), 2).prefill_chunk(64)
        };
        let bucketed = trace(scenario().kv_bucket(256));
        assert!(bucketed.total_backing_accesses() > 0.0);
        let paged = trace(scenario().kv_page(16));
        assert_eq!(bucketed.kv_bucket, 256);
        assert_eq!(paged.kv_bucket, 16);
        // Page 16 divides bucket 256: every paged attend length is ≤
        // its bucketed counterpart, so MACs and backing traffic are
        // bounded by the bucketed trace's.
        assert!(paged.total_macs() <= bucketed.total_macs());
        assert!(paged.total_backing_accesses() <= bucketed.total_backing_accesses());
        assert!(
            paged.total_backing_accesses() < bucketed.total_backing_accesses(),
            "kv 100..106 pads to 256 under the bucket but to ≤112 under page 16"
        );
        // Same schedule, same tokens — only the residency accounting
        // moved.
        assert_eq!(paged.total_tokens(), bucketed.total_tokens());
        assert_eq!(
            paged.total_prefill_tokens(),
            bucketed.total_prefill_tokens()
        );
    }

    #[test]
    fn shared_prefix_saves_prefill_work_and_charges_cow() {
        let scenario = || {
            ServingScenario::builder(RequestMix::uniform(4, 128, 4).unwrap(), 4)
                .kv_page(16)
                .prefill_chunk(64)
        };
        let plain = trace(scenario());
        // 42 is deliberately page-misaligned at page 16: 32 full shared
        // tokens + a 10-token tail each sharer copies.
        let shared = trace(scenario().shared_prefix(42));
        // Three sharers skip 42 prompt tokens each.
        assert_eq!(
            plain.total_prefill_tokens() - shared.total_prefill_tokens(),
            3 * 42
        );
        assert!(shared.total_macs() < plain.total_macs());
        assert!(shared.total_energy() < plain.total_energy());
        // Decode output is untouched.
        assert_eq!(shared.total_tokens(), plain.total_tokens());
    }

    #[test]
    fn trace_charges_prefill_and_records_latencies() {
        let model = ServingModel::gpt2_small();
        let result = trace(
            ServingScenario::builder(RequestMix::uniform(1, 100, 4).unwrap(), 1).kv_bucket(64),
        );

        // One prefill step + four decode steps.
        assert_eq!(result.points.len(), 5);
        assert_eq!(result.total_prefill_tokens(), 100);
        assert_eq!(result.total_tokens(), 4);
        // The one-request totals are exactly prefill + decode closed
        // forms — the accounting the resident-prefill path never had.
        // Each decode step (kv 100..103) attends over 128 padded
        // positions: 12 blocks of decode work plus the LM head.
        let decode_step = 12 * lumen_workload::decode_block_macs(128, 768, 3072) + 50257 * 768;
        let expect = model.prefill_macs(100, None, 64) + 4 * decode_step;
        assert_eq!(result.total_macs(), expect);

        assert_eq!(result.requests.len(), 1);
        let r = &result.requests[0];
        assert_eq!(r.generated, 4);
        assert_eq!(r.arrival_cycles, 0.0);
        assert_eq!(r.admission_cycles, 0.0);
        // First token completes after prefill + one decode step.
        let prefill_cycles = result.points[0].cycles;
        assert!(r.ttft_cycles() > prefill_cycles);
        assert_eq!(r.token_gap_cycles.len(), 3);
        assert!(r.token_gap_cycles.iter().all(|&g| g > 0.0));
        assert!(r.retire_cycles <= result.total_cycles() + 1e-9);

        let clock = Frequency::from_gigahertz(1.0);
        let ttft = result.ttft_percentiles(clock);
        assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p99);
        let tbt = result.tbt_percentiles(clock);
        assert!(tbt.p50 > 0.0 && tbt.p99 >= tbt.p50);
    }

    #[test]
    fn resident_prefill_under_counts_the_same_mix() {
        // The bugfix demonstrated head-on: the same one-request trace
        // costs strictly more once prefill is charged, by exactly the
        // prefill closed form.
        let model = ServingModel::gpt2_small();
        let scenario =
            || ServingScenario::builder(RequestMix::uniform(1, 100, 4).unwrap(), 1).kv_bucket(64);
        let charged = trace(scenario().prefill(PrefillMode::OnAdmission { chunk: None }));
        let resident = trace(scenario().prefill(PrefillMode::Resident));
        assert_eq!(
            charged.total_macs() - resident.total_macs(),
            model.prefill_macs(100, None, 64),
            "the resident path under-counts by exactly the prefill work"
        );
        assert!(charged.total_energy() > resident.total_energy());
        assert!(charged.total_cycles() > resident.total_cycles());
    }

    #[test]
    fn occupancy_improves_energy_per_token() {
        // Same mix, one slot vs eight slots: higher occupancy shares the
        // projection weight traffic across the group, so energy per
        // token at capacity 8 must not exceed the serial schedule's.
        let resident = |capacity| {
            ServingScenario::builder(RequestMix::uniform(8, 100, 2).unwrap(), capacity)
                .kv_bucket(64)
                .prefill(PrefillMode::Resident)
        };
        let serial = trace(resident(1));
        let batched = trace(resident(8));
        assert_eq!(serial.total_tokens(), batched.total_tokens());
        assert!((serial.mean_occupancy() - 1.0).abs() < 1e-12);
        assert!((batched.mean_occupancy() - 1.0).abs() < 1e-12);
        assert!(
            batched.pj_per_token() <= serial.pj_per_token() * 1.0001,
            "batched {:.1} vs serial {:.1} pJ/token",
            batched.pj_per_token(),
            serial.pj_per_token()
        );
    }

    /// The seeded scenarios of `tests/serving_properties.rs`'s
    /// `memo_scenarios`: closed-loop resident prefill, a lone-request
    /// paged one whose owner and sharers differ only in copy-on-write,
    /// and open-loop bucketed and paged ones with chunked prefill.
    fn memo_scenarios(seed: u64) -> [ServingScenario; 4] {
        let mix = || RequestMix::bimodal(seed, 10, (48, 6), (200, 10), 30).unwrap();
        let arrival = || ArrivalProcess::try_poisson(0.3, seed).unwrap();
        let mut lone = vec![Request::new(40, 3)];
        lone.extend((0..4).map(|_| Request::new(48, 4)));
        let spaced = (0..lone.len()).map(|i| i * 20 + seed as usize).collect();
        let built = |builder: ServingScenarioBuilder| builder.build().unwrap();
        [
            built(
                ServingScenario::builder(mix(), 3)
                    .kv_bucket(64)
                    .prefill(PrefillMode::Resident),
            ),
            built(
                ServingScenario::builder(RequestMix::custom("lone", lone), 2)
                    .arrival(ArrivalProcess::explicit(spaced))
                    .kv_page(16)
                    .shared_prefix(40)
                    .prefill_chunk(32),
            ),
            built(
                ServingScenario::builder(mix(), 4)
                    .arrival(arrival())
                    .kv_bucket(64)
                    .prefill_chunk(64),
            ),
            built(
                ServingScenario::builder(mix(), 4)
                    .arrival(arrival())
                    .kv_page(16)
                    .shared_prefix(40)
                    .prefill_chunk(64),
            ),
        ]
    }

    /// Interns `segments` (each with its naming request) both ways —
    /// block-once through [`Segments::intern`], and literally, layer by
    /// layer from [`ServingModel::lower_segment`] — and asserts equal
    /// shape-id sequences and equal shape layers, names included.
    /// Returns the literal lowering's shape layers.
    fn assert_block_once_is_literal<'s>(
        model: &ServingModel,
        segments: impl IntoIterator<Item = (&'s StepSegment, usize)>,
        batch: usize,
    ) -> Vec<Layer> {
        let mut interned = Segments::default();
        let mut shape_ids: TraceMap<LayerSignature, u32> = TraceMap::default();
        let mut shapes: Vec<Layer> = Vec::new();
        for (segment, request) in segments {
            if interned.ids.contains_key(segment) {
                continue;
            }
            let id = interned.intern(model, segment, request, batch);
            let literal: Vec<u32> = model
                .lower_segment(segment, request)
                .layers()
                .iter()
                .map(|layer| {
                    let next = shapes.len() as u32;
                    *shape_ids.entry(layer.signature()).or_insert_with(|| {
                        shapes.push(layer.clone());
                        next
                    })
                })
                .collect();
            assert_eq!(interned.layer_shapes[id], literal, "{segment:?}");
        }
        assert_eq!(interned.shapes.len(), shapes.len());
        for (shape, layer) in interned.shapes.iter().zip(&shapes) {
            let batched = if batch > 1 {
                layer.clone().with_batch(batch)
            } else {
                layer.clone()
            };
            assert_eq!(shape.layer.name(), layer.name());
            assert_eq!(shape.layer.signature(), batched.signature());
            assert_eq!(shape.macs, layer.macs());
        }
        shapes
    }

    #[test]
    fn block_once_interning_matches_the_literal_lowering() {
        let models = [
            ServingModel::new("toy-lm", 64, 4, 128, 2, 1000),
            ServingModel::gpt2_small(),
        ];
        let segments = |scenario: &ServingScenario| -> Vec<(StepSegment, usize)> {
            scenario
                .schedule()
                .steps()
                .iter()
                .flat_map(|step| {
                    ServingModel::step_composition(step, scenario.layout())
                        .segment_requests(step)
                        .map(|(segment, request)| (segment.clone(), request))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        for seed in [1, 2, 3] {
            for scenario in memo_scenarios(seed) {
                let mut traces = vec![segments(&scenario)];
                if matches!(scenario.layout(), KvLayout::Paged(_)) {
                    let fleet = Fleet::uniform(scenario.clone(), FleetRouter::JoinShortestQueue, 2);
                    for assignment in fleet.dispatch().unwrap() {
                        traces.extend(assignment.scenario.as_ref().map(segments));
                    }
                }
                for model in &models {
                    for trace in &traces {
                        for batch in [1, 3] {
                            let trace = trace.iter().map(|(segment, request)| (segment, *request));
                            assert_block_once_is_literal(model, trace, batch);
                        }
                    }
                }
            }
        }
    }

    /// A 1-token prefill chunk and a singleton paged decode set at the
    /// same attend length share their logits shape across segment
    /// kinds: whichever segment interns first names it.
    #[test]
    fn a_shape_shared_across_segment_kinds_keeps_its_first_name() {
        let model = ServingModel::gpt2_small();
        let prefill = StepSegment::Prefill {
            len: 144,
            chunk: 1,
            cow: 0,
        };
        let paged = StepSegment::PagedDecode {
            groups: vec![(144, 1)],
        };
        let logits = |segment: &StepSegment| -> Layer {
            let net = model.lower_segment(segment, 7);
            net.layers()
                .iter()
                .find(|layer| layer.name().ends_with(".decoder.0.attn.logits"))
                .unwrap()
                .clone()
        };
        let (prefill_logits, paged_logits) = (logits(&prefill), logits(&paged));
        assert_eq!(prefill_logits.signature(), paged_logits.signature());
        for (first, second, name) in [
            (&prefill, &paged, prefill_logits.name()),
            (&paged, &prefill, paged_logits.name()),
        ] {
            let shapes = assert_block_once_is_literal(&model, [(first, 7), (second, 7)], 1);
            let shared = shapes
                .iter()
                .find(|layer| layer.signature() == prefill_logits.signature())
                .unwrap();
            assert_eq!(shared.name(), name);
        }
    }
}
