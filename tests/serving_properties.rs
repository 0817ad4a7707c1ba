//! Property and invariant tests for the continuous-batching scheduler
//! and its lowering.
//!
//! The pinned properties of the closed-loop, FIFO, resident-prefill
//! scenario (every request queued at step 0 with its prompt cached):
//! every request's tokens are produced exactly once (with consecutive KV
//! lengths starting at its prompt), step MACs equal the sum of each
//! active request's padded per-token work, occupancy never exceeds
//! capacity (and never idles while work waits), slots fill in FIFO
//! order — slot for slot what a direct transcription of the original
//! batch-scheduler loop produces — and a fully-uniform mix through a
//! single slot reproduces the single-request `decode_trace` totals
//! bit-identically through the evaluator.
//!
//! The open-loop event schedule adds its own laws: seeded arrivals are
//! deterministic, each prompt prefills exactly once in contiguous
//! chunks, prefill+decode occupancy respects capacity, and the
//! evaluator charges every chunk exactly once.
//!
//! The step memo adds more: a step lowers to exactly its segments'
//! lowerings, so equal step compositions lower to identical layer
//! signatures; a memoized trace equals an uncached one bit for bit with
//! every layer of every step still accounted for; the memo's cost fold
//! reproduces `evaluate_network`'s per-layer rows under batching and
//! fusion; scenario and fleet traces are bit-identical across thread
//! counts and cache modes and search each layer key once; and a trace
//! fails with exactly its first failing step's mapping error.

use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::core::serving::{RequestLatency, ServingEvaluation, ServingStepPoint};
use lumen::core::{
    fleet_trace, scenario_trace, CacheStats, EvalSession, FleetInstance, MappingStrategy,
    NetworkOptions, SweepRunner, System, SystemError,
};
use lumen::mapper::search::{greedy_mapping, spatial_priority_for, TemporalPlan};
use lumen::units::{Energy, Frequency};
use lumen::workload::serving::{
    ArrivalProcess, KvLayout, PageTable, PrefillMode, Request, RequestMix, ServingModel,
    ServingScenario, ServingSchedule, ServingStep, StepComposition,
};
use lumen::workload::{
    decode_block_macs, networks, AdmissionPolicy, Dim, DimSet, Fleet, FleetRouter, Layer,
    LayerSignature, Network, TensorSet,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn toy_arch() -> Architecture {
    ArchBuilder::new("serving-toy", Frequency::from_gigahertz(1.0))
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
        .expect("toy architecture is valid")
}

/// The closed-loop FIFO schedule of `mix` over `capacity` slots with
/// prompts resident: every request queues at step 0, and every step is
/// pure decode.
fn resident_schedule(mix: &RequestMix, capacity: usize) -> ServingSchedule {
    ServingScenario::builder(mix.clone(), capacity)
        .prefill(PrefillMode::Resident)
        .build()
        .expect("resident scenario is valid")
        .schedule()
}

/// `(blocks, d_model, d_ff, vocab)` of [`ServingModel::gpt2_small`].
const GPT2: (usize, usize, usize, usize) = (12, 768, 3072, 50257);
/// `(blocks, d_model, d_ff, vocab)` of the `toy` decoder below.
const TOY: (usize, usize, usize, usize) = (2, 64, 128, 1000);

/// One decoding request's padded per-token MACs, written out from the
/// model shape: `blocks` decode blocks at the attend length `kv + 1`
/// rounded up to `bucket`, plus the LM head.
fn token_macs(shape: (usize, usize, usize, usize), kv: usize, bucket: usize) -> u64 {
    let (blocks, d_model, d_ff, vocab) = shape;
    let len = (kv + 1).div_ceil(bucket) * bucket;
    blocks as u64 * decode_block_macs(len, d_model, d_ff) + (vocab * d_model) as u64
}

/// Every request's tokens are produced exactly once: across the whole
/// schedule, request `r` appears in exactly `output` steps, and the KV
/// lengths it is scheduled at are `prompt, prompt+1, ..,
/// prompt+output-1` in execution order.
fn assert_tokens_exactly_once(mix: &RequestMix, schedule: &ServingSchedule) {
    let mut seen: HashMap<usize, Vec<usize>> = HashMap::new();
    for step in schedule.steps() {
        for slot in step.decode() {
            seen.entry(slot.request).or_default().push(slot.kv_len);
        }
    }
    assert_eq!(seen.len(), mix.len(), "every request was scheduled");
    for (r, request) in mix.requests().iter().enumerate() {
        let kvs = &seen[&r];
        assert_eq!(kvs.len(), request.output, "request {r} token count");
        let expected: Vec<usize> = (request.prompt..request.prompt + request.output).collect();
        assert_eq!(kvs, &expected, "request {r} cache grows one token/step");
    }
}

#[test]
fn every_token_is_produced_exactly_once() {
    let mixes = [
        RequestMix::uniform(7, 100, 5).unwrap(),
        RequestMix::bimodal(42, 20, (64, 16), (512, 48), 25).unwrap(),
        RequestMix::long_tail(42, 20, (32, 256), 8, 4).unwrap(),
        RequestMix::custom(
            "ragged",
            vec![
                Request::new(0, 1),
                Request::new(1000, 3),
                Request::new(5, 17),
            ],
        ),
    ];
    for mix in &mixes {
        for capacity in [1, 2, 5, 64] {
            let schedule = resident_schedule(mix, capacity);
            assert_tokens_exactly_once(mix, &schedule);
            assert_eq!(
                schedule.total_decode_tokens(),
                mix.total_output_tokens(),
                "{} cap {capacity}",
                mix.name()
            );
        }
    }
}

/// Under closed-loop FIFO admission the slots never idle while work
/// waits, and requests take slots in index order: each step lists its
/// slots in admission order, which is ascending request index.
#[test]
fn occupancy_never_exceeds_capacity_and_never_idles_waiting_work() {
    let mix = RequestMix::bimodal(3, 25, (64, 4), (256, 30), 40).unwrap();
    for capacity in [1, 3, 8, 25, 100] {
        let schedule = resident_schedule(&mix, capacity);
        let mut retired = 0usize;
        let mut admitted: Vec<bool> = vec![false; mix.len()];
        let mut admission_order = Vec::new();
        for (i, step) in schedule.steps().iter().enumerate() {
            assert!(
                step.occupancy() <= capacity,
                "cap {capacity} step {i}: occupancy {}",
                step.occupancy()
            );
            assert!(step.occupancy() > 0, "no empty steps");
            assert!(step.prefill().is_empty(), "resident prompts never prefill");
            assert!(
                step.decode()
                    .windows(2)
                    .all(|w| w[0].request < w[1].request),
                "cap {capacity} step {i}: slots in FIFO order"
            );
            for slot in step.decode() {
                if !admitted[slot.request] {
                    admission_order.push(slot.request);
                }
                admitted[slot.request] = true;
            }
            // Work-conserving: a slot sits free only once the queue is
            // exhausted (admission is FIFO at step start).
            let waiting = admitted.iter().filter(|&&a| !a).count();
            if step.occupancy() < capacity {
                assert_eq!(waiting, 0, "cap {capacity} step {i}: idle slot with queue");
            }
            retired += step
                .decode()
                .iter()
                .filter(|s| {
                    s.kv_len + 1
                        == mix.requests()[s.request].prompt + mix.requests()[s.request].output
                })
                .count();
        }
        assert_eq!(retired, mix.len(), "every request retires exactly once");
        let fifo: Vec<usize> = (0..mix.len()).collect();
        assert_eq!(admission_order, fifo, "cap {capacity}: FIFO admission");
    }
}

#[test]
fn step_macs_equal_the_sum_over_the_active_set() {
    let model = ServingModel::gpt2_small();
    let mix = RequestMix::long_tail(9, 16, (64, 400), 8, 3).unwrap();
    let schedule = resident_schedule(&mix, 5);
    for bucket in [1, 64, 256] {
        let layout = KvLayout::Bucketed { bucket };
        for step in schedule.steps() {
            let net = model.lower_serving_step_with(step, &layout);
            // The network's MACs are exactly the sum of each active
            // request's padded per-token work — no cross-request terms.
            let per_request: u64 = step
                .decode_kv_lens()
                .iter()
                .map(|&kv| token_macs(GPT2, kv, bucket))
                .sum();
            assert_eq!(net.total_macs(), per_request, "bucket {bucket}");
            assert_eq!(
                net.total_macs(),
                model.serving_step_macs_with(step, &layout)
            );
        }
    }
}

/// The PR 4 equivalence: a uniform single-slot schedule is exactly a
/// `decode_trace`, and the evaluator agrees bit for bit — same layer
/// signatures step by step, so one session evaluates both from the same
/// cache entries and the per-step energies/cycles match to the last bit.
#[test]
fn uniform_single_slot_schedule_matches_decode_trace_bit_identically() {
    let (prompt, steps, bucket) = (100usize, 24usize, 16usize);
    let scenario = ServingScenario::builder(RequestMix::uniform(1, prompt, steps).unwrap(), 1)
        .kv_bucket(bucket)
        .prefill(PrefillMode::Resident)
        .build()
        .expect("single-slot scenario is valid");
    assert_eq!(scenario.schedule().total_steps(), steps);

    let model = ServingModel::gpt2_small();
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let serving = scenario_trace(&session, &model, &scenario, &NetworkOptions::baseline())
        .expect("schedule evaluates");

    let trace: Vec<_> = networks::gpt2_small_decode_trace(prompt, steps, bucket).collect();
    assert_eq!(serving.points.len(), trace.len());
    for (point, (kv_len, decode_net)) in serving.points.iter().zip(&trace) {
        let decode_eval = session
            .evaluate_network(decode_net, &NetworkOptions::baseline())
            .expect("decode step evaluates");
        assert_eq!(point.occupancy, 1);
        assert_eq!(point.macs, decode_eval.macs, "kv={kv_len}");
        assert_eq!(
            point.energy.picojoules().to_bits(),
            decode_eval.energy.total().picojoules().to_bits(),
            "kv={kv_len}: serving step energy drifted from decode_trace"
        );
        assert_eq!(
            point.cycles.to_bits(),
            decode_eval.cycles.to_bits(),
            "kv={kv_len}: serving step cycles drifted from decode_trace"
        );
    }
    // Totals follow: the schedule is the trace.
    let trace_macs: u64 = trace.iter().map(|(_, n)| n.total_macs()).sum();
    assert_eq!(serving.total_macs(), trace_macs);
}

// --- open-loop event schedule (PR 7) --------------------------------

/// Conservation for the event-driven scheduler: each admitted request
/// prefills its prompt exactly once (contiguous chunks, no overlap;
/// not at all when prompts are resident) and decodes its output exactly
/// once at consecutive KV lengths; the per-step slot count (prefill +
/// decode) never exceeds capacity.
fn assert_event_schedule_conserves(
    mix: &RequestMix,
    schedule: &ServingSchedule,
    prefill: PrefillMode,
) {
    let capacity = schedule.capacity();
    let mut prefilled: HashMap<usize, usize> = HashMap::new();
    let mut decoded: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, step) in schedule.steps().iter().enumerate() {
        assert!(step.occupancy() >= 1, "no empty steps");
        assert!(
            step.occupancy() <= capacity,
            "step {i}: occupancy {} over capacity {capacity}",
            step.occupancy()
        );
        for slot in step.prefill() {
            let done = prefilled.entry(slot.request).or_insert(0);
            assert_eq!(
                slot.cached, *done,
                "step {i}: request {} prefill chunks are contiguous",
                slot.request
            );
            assert!(slot.chunk > 0, "prefill chunks are non-empty");
            *done += slot.chunk;
        }
        for slot in step.decode() {
            decoded.entry(slot.request).or_default().push(slot.kv_len);
        }
    }
    assert_eq!(decoded.len(), mix.len(), "every request decodes");
    for (r, request) in mix.requests().iter().enumerate() {
        let prompt = match prefill {
            PrefillMode::Resident => 0,
            PrefillMode::OnAdmission { .. } => request.prompt,
        };
        assert_eq!(
            prefilled.get(&r).copied().unwrap_or(0),
            prompt,
            "request {r}: prompt prefilled exactly once"
        );
        let expected: Vec<usize> = (request.prompt..request.prompt + request.output).collect();
        assert_eq!(&decoded[&r], &expected, "request {r} decode KV lengths");
    }
}

#[test]
fn event_schedule_conserves_tokens_under_every_arrival_and_policy() {
    let mix = RequestMix::bimodal(11, 18, (64, 6), (300, 24), 30).unwrap();
    let arrivals = [
        ArrivalProcess::ClosedLoop,
        ArrivalProcess::try_poisson(0.2, 0xD00D).unwrap(),
        ArrivalProcess::try_bursty(0.05, 16, 3, 0xD00D).unwrap(),
        ArrivalProcess::try_diurnal(0.05, 0.6, 40, 0xD00D).unwrap(),
    ];
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ShortestPrompt,
        AdmissionPolicy::SloAware {
            interactive_prompt: 128,
            slack: 8,
        },
    ];
    let prefills = [
        PrefillMode::Resident,
        PrefillMode::OnAdmission { chunk: None },
        PrefillMode::OnAdmission { chunk: Some(64) },
    ];
    for arrival in &arrivals {
        for policy in &policies {
            for prefill in prefills {
                let schedule = ServingScenario::builder(mix.clone(), 3)
                    .arrival(arrival.clone())
                    .policy(*policy)
                    .prefill(prefill)
                    .build()
                    .expect("scenario is valid")
                    .schedule();
                assert_event_schedule_conserves(&mix, &schedule, prefill);
            }
        }
    }
}

/// Seeded arrivals are a pure function of their inputs: rebuilding the
/// same open-loop schedule gives step-for-step identical walls, prefill
/// events and decode slots.
#[test]
fn open_loop_schedules_are_deterministic() {
    let build = || {
        ServingScenario::builder(RequestMix::long_tail(5, 12, (32, 200), 10, 3).unwrap(), 2)
            .arrival(ArrivalProcess::try_poisson(0.15, 0xABCD).unwrap())
            .policy(AdmissionPolicy::ShortestPrompt)
            .prefill_chunk(48)
            .build()
            .expect("scenario is valid")
            .schedule()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.arrivals(), b.arrivals());
    assert_eq!(a.total_steps(), b.total_steps());
    for (sa, sb) in a.steps().iter().zip(b.steps()) {
        assert_eq!(sa.wall(), sb.wall());
        assert_eq!(sa.prefill(), sb.prefill());
        assert_eq!(sa.decode(), sb.decode());
    }
}

/// The evaluator charges each prefill chunk exactly once: trace MACs
/// equal per-request prefill closed forms plus the decode step sum —
/// and the worker count does not change a bit of it.
#[test]
fn serving_trace_charges_prefill_exactly_once_and_is_thread_stable() {
    let (bucket, chunk) = (32usize, Some(96usize));
    let mix = RequestMix::uniform(3, 150, 4).unwrap();
    let model = ServingModel::gpt2_small();
    let scenario = ServingScenario::builder(mix.clone(), 2)
        .arrival(ArrivalProcess::try_poisson(0.1, 0xBEEF).unwrap())
        .kv_bucket(bucket)
        .prefill(PrefillMode::OnAdmission { chunk })
        .build()
        .expect("scenario is valid");
    let schedule = scenario.schedule();

    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let eval = scenario_trace(&session, &model, &scenario, &NetworkOptions::baseline())
        .expect("trace evaluates");

    let prefill: u64 = mix
        .requests()
        .iter()
        .map(|r| model.prefill_macs(r.prompt, chunk, bucket))
        .sum();
    let decode: u64 = schedule
        .steps()
        .iter()
        .flat_map(ServingStep::decode_kv_lens)
        .map(|kv| token_macs(GPT2, kv, bucket))
        .sum();
    assert_eq!(eval.total_macs(), prefill + decode);

    // The fanned-out trace is bit-identical to a sequential loop over
    // the same step networks through the same session.
    for (point, step) in eval.points.iter().zip(schedule.steps()) {
        let net = model.lower_serving_step_with(step, scenario.layout());
        let (.., cost) = point_bits(point);
        assert_eq!(
            (point.macs, cost),
            rows_cost(&session, &net, &NetworkOptions::baseline()),
            "wall {}",
            step.wall()
        );
    }
}

// --- step memo (composition-keyed trace evaluation) -----------------

/// A small decoder, so uncached traces stay quick in debug builds.
fn memo_model() -> ServingModel {
    ServingModel::new("toy-lm", 64, 4, 128, 2, 1000)
}

/// Seeded scenarios: the closed-loop resident-prefill path the serving
/// study takes, and three open-loop ones with chunked prefill — one
/// bucketed, and two paged with a page-misaligned shared prefix (40
/// tokens = two full 16-token pages plus an 8-token copy-on-write
/// tail). In the lone-request one, the requests run one at a time and
/// the owner's tail chunk (32 + 8) pads exactly like each sharer's
/// first private chunk (40 + 8), so only the copy-on-write charge tells
/// their compositions apart.
fn memo_scenarios(seed: u64) -> [ServingScenario; 4] {
    let mix = || RequestMix::bimodal(seed, 10, (48, 6), (200, 10), 30).unwrap();
    let arrival = || ArrivalProcess::try_poisson(0.3, seed).unwrap();
    let mut lone = vec![Request::new(40, 3)];
    lone.extend((0..4).map(|_| Request::new(48, 4)));
    let spaced = (0..lone.len()).map(|i| i * 20 + seed as usize).collect();
    [
        ServingScenario::builder(mix(), 3)
            .kv_bucket(64)
            .prefill(PrefillMode::Resident)
            .build()
            .expect("closed-loop resident scenario is valid"),
        ServingScenario::builder(RequestMix::custom("lone", lone), 2)
            .arrival(ArrivalProcess::explicit(spaced))
            .kv_page(16)
            .shared_prefix(40)
            .prefill_chunk(32)
            .build()
            .expect("lone-request scenario is valid"),
        ServingScenario::builder(mix(), 4)
            .arrival(arrival())
            .kv_bucket(64)
            .prefill_chunk(64)
            .build()
            .expect("bucketed scenario is valid"),
        ServingScenario::builder(mix(), 4)
            .arrival(arrival())
            .kv_page(16)
            .shared_prefix(40)
            .prefill_chunk(64)
            .build()
            .expect("paged scenario is valid"),
    ]
}

/// A point's step, occupancy, prefill tokens and MACs, then the bits of
/// its backing accesses, energy, cycles and utilization.
type PointBits = (usize, usize, usize, u64, [u64; 4]);

/// A latency record's request and token count, then the bits of its
/// timestamps and token gaps.
type LatencyBits = (usize, usize, [u64; 4], Vec<u64>);

fn point_bits(p: &ServingStepPoint) -> PointBits {
    (
        p.step,
        p.occupancy,
        p.prefill_tokens,
        p.macs,
        [
            p.backing_accesses.to_bits(),
            p.energy.picojoules().to_bits(),
            p.cycles.to_bits(),
            p.utilization.to_bits(),
        ],
    )
}

/// Layers of every lowered step of `scenario`: the cache lookups a
/// trace accounts for.
fn lowered_layers(model: &ServingModel, scenario: &ServingScenario) -> usize {
    scenario
        .schedule()
        .steps()
        .iter()
        .map(|s| {
            model
                .lower_serving_step_with(s, scenario.layout())
                .layers()
                .len()
        })
        .sum()
}

/// Every point and latency record of a trace, as bits.
fn trace_bits(e: &ServingEvaluation) -> (Vec<PointBits>, Vec<LatencyBits>) {
    (
        e.points.iter().map(point_bits).collect(),
        e.requests.iter().map(latency_bits).collect(),
    )
}

fn latency_bits(r: &RequestLatency) -> LatencyBits {
    (
        r.request,
        r.generated,
        [
            r.arrival_cycles.to_bits(),
            r.admission_cycles.to_bits(),
            r.first_token_cycles.to_bits(),
            r.retire_cycles.to_bits(),
        ],
        r.token_gap_cycles.iter().map(|g| g.to_bits()).collect(),
    )
}

/// The memo's key is sound: a step lowers to exactly the concatenation
/// of its composition's segment lowerings — signatures and names — so
/// steps with equal compositions lower to identical layer-signature
/// sequences, and evaluate identically.
#[test]
fn equal_step_compositions_lower_to_identical_signatures() {
    let model = memo_model();
    for seed in [1, 2, 3] {
        for scenario in memo_scenarios(seed) {
            let schedule = scenario.schedule();
            let mut seen: HashMap<StepComposition, Vec<LayerSignature>> = HashMap::new();
            for step in schedule.steps() {
                let net = model.lower_serving_step_with(step, scenario.layout());
                let composition = ServingModel::step_composition(step, scenario.layout());
                let segments: Vec<Layer> = composition
                    .segment_requests(step)
                    .flat_map(|(segment, request)| {
                        model.lower_segment(segment, request).layers().to_vec()
                    })
                    .collect();
                let layer_ids = |layers: &[Layer]| -> Vec<(LayerSignature, String)> {
                    layers
                        .iter()
                        .map(|l| (l.signature(), l.name().to_string()))
                        .collect()
                };
                assert_eq!(
                    layer_ids(net.layers()),
                    layer_ids(&segments),
                    "seed {seed} wall {}: the step is its segments",
                    step.wall()
                );
                let signatures: Vec<LayerSignature> =
                    net.layers().iter().map(Layer::signature).collect();
                let first = seen
                    .entry(composition)
                    .or_insert_with(|| signatures.clone());
                assert_eq!(first, &signatures, "seed {seed} wall {}", step.wall());
            }
            assert!(
                seen.len() < schedule.steps().len(),
                "compositions repeat, so the memo has work to do"
            );
            // Decode segments carry the layout kind: a page and a bucket
            // of one size lower decode differently.
            let step = &schedule.steps()[schedule.steps().len() - 1];
            assert_ne!(
                ServingModel::step_composition(step, &KvLayout::Bucketed { bucket: 16 }),
                ServingModel::step_composition(
                    step,
                    &KvLayout::Paged(PageTable::try_new(16).unwrap())
                )
            );
        }
    }
}

/// The memo is exact: a memoized trace reproduces an uncached
/// session's trace bit for bit — every point and every latency record —
/// while the uncached session still evaluates every layer of every
/// step, and the memoized session's hit/miss counters still account
/// for every layer of every step.
#[test]
fn memoized_trace_is_bit_identical_to_an_uncached_trace() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&evaluations);
    let counting = MappingStrategy::custom_keyed(
        0xd1,
        Arc::new(move |arch, layer| {
            counter.fetch_add(1, Ordering::Relaxed);
            greedy_mapping(
                arch,
                layer,
                spatial_priority_for(layer),
                &TemporalPlan::all_at(1),
            )
        }),
    );
    let system = System::new(toy_arch(), counting);
    let model = memo_model();
    let options = NetworkOptions::baseline();
    for seed in [1, 2] {
        for scenario in memo_scenarios(seed) {
            let layers = lowered_layers(&model, &scenario);

            let session = EvalSession::new(system.clone());
            let memoized =
                scenario_trace(&session, &model, &scenario, &options).expect("trace evaluates");
            let stats = session.cache_stats();
            assert_eq!(stats.hits + stats.misses, layers as u64, "seed {seed}");

            evaluations.store(0, Ordering::Relaxed);
            let uncached = scenario_trace(
                &EvalSession::new(system.clone()).without_cache(),
                &model,
                &scenario,
                &options,
            )
            .expect("trace evaluates");
            assert_eq!(
                evaluations.load(Ordering::Relaxed),
                layers,
                "uncached: every layer of every step"
            );

            assert_eq!(trace_bits(&memoized), trace_bits(&uncached), "seed {seed}");
        }
    }
}

/// The scalars of a trace point as `evaluate_network`'s per-layer rows
/// define them: the network's MACs, then the bits of its backing-store
/// accesses (outermost level, summed over the rows), energy, cycles and
/// MAC-weighted utilization — the reference the step memo's cost fold
/// must reproduce.
fn rows_cost(session: &EvalSession, net: &Network, options: &NetworkOptions) -> (u64, [u64; 4]) {
    let rows = session
        .evaluate_network(net, options)
        .expect("step evaluates");
    let backing: f64 = rows
        .per_layer
        .iter()
        .filter_map(|l| l.analysis.levels.first())
        .map(lumen::mapper::LevelTraffic::total_accesses)
        .sum();
    (
        rows.macs,
        [
            backing.to_bits(),
            rows.energy.total().picojoules().to_bits(),
            rows.cycles.to_bits(),
            rows.average_utilization().to_bits(),
        ],
    )
}

/// The step memo's cost fold is an exact shortcut for the per-layer
/// rows: under batching and fusion as well as the baseline, every point
/// of a trace carries the very bits `evaluate_network`'s rows give for
/// its step.
#[test]
fn step_cost_fold_matches_the_per_layer_rows() {
    let model = memo_model();
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let options = [
        NetworkOptions::baseline(),
        NetworkOptions::baseline().with_batch(4),
        // A 1/3 scale rounds, so only per-item scaling matches the rows.
        NetworkOptions::baseline().with_batch(3),
        NetworkOptions::baseline().with_fusion("dram", "glb"),
    ];
    for seed in [1, 2] {
        for scenario in memo_scenarios(seed) {
            let schedule = scenario.schedule();
            for options in &options {
                let trace =
                    scenario_trace(&session, &model, &scenario, options).expect("trace evaluates");
                assert_eq!(trace.points.len(), schedule.steps().len());
                for (point, step) in trace.points.iter().zip(schedule.steps()) {
                    let net = model.lower_serving_step_with(step, scenario.layout());
                    let (.., cost) = point_bits(point);
                    assert_eq!(
                        (point.macs, cost),
                        rows_cost(&session, &net, options),
                        "seed {seed} wall {} {options:?}",
                        step.wall()
                    );
                }
            }
        }
    }
}

/// A trace that meets an unmappable layer fails exactly as evaluating
/// its first failing step on its own does: the same
/// `SystemError::NoMapping`, naming the same layer — a prefill layer
/// carrying its request index — though the trace lowers each segment
/// once and resolves every step in one call.
#[test]
fn trace_errors_match_the_first_failing_step() {
    // Every temporal loop at the compute level: the buffer must hold a
    // layer's whole tensors, so the longer prompt's first 64-token chunk
    // (admitted at step 4) is the first shape that overflows it.
    let arch = ArchBuilder::new("tiny-buffer", Frequency::from_gigahertz(1.0))
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .done()
        .storage("buf", Domain::DigitalElectrical, TensorSet::all())
        .capacity_bits(1 << 17)
        .done()
        .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
        .build()
        .expect("the tiny-buffer arch is valid");
    let system = System::new(
        arch,
        MappingStrategy::Planned {
            priority: lumen::mapper::search::DEFAULT_SPATIAL_PRIORITY.to_vec(),
            plan: TemporalPlan::all_at(2),
        },
    );
    let model = ServingModel::new("toy-lm", 64, 4, 128, 2, 100);
    let mix = RequestMix::custom(
        "late-long",
        vec![
            Request::new(40, 3),
            Request::new(40, 3),
            Request::new(200, 2),
        ],
    );
    let scenario = ServingScenario::builder(mix, 2)
        .arrival(ArrivalProcess::explicit(vec![0, 0, 6]))
        .kv_bucket(16)
        .prefill_chunk(64)
        .build()
        .expect("the late-long scenario is valid");
    let options = NetworkOptions::baseline();
    let schedule = scenario.schedule();
    let lowered: Vec<Network> = schedule
        .steps()
        .iter()
        .map(|step| model.lower_serving_step_with(step, scenario.layout()))
        .collect();
    let reference = EvalSession::new(system.clone());
    let k = lowered
        .iter()
        .position(|net| reference.evaluate_network(net, &options).is_err())
        .expect("some step cannot map");
    assert!(k > 0, "the failing shape first appears after step 0");
    let expected = EvalSession::new(system.clone())
        .evaluate_network(&lowered[k], &options)
        .expect_err("step k cannot map");
    let SystemError::NoMapping { layer, .. } = &expected else {
        panic!("expected NoMapping, got {expected}");
    };
    assert!(
        layer.starts_with("pf2."),
        "a prefill layer of request 2: {layer}"
    );
    for session in [
        EvalSession::new(system.clone()),
        EvalSession::new(system.clone()).with_runner(SweepRunner::with_threads(1)),
        EvalSession::new(system.clone()).without_cache(),
    ] {
        let refused = scenario_trace(&session, &model, &scenario, &options)
            .expect_err("the trace meets the unmappable step");
        assert_eq!(refused, expected);
    }
}

/// A layer lookup's identity as the evaluation cache keys it: the
/// batched signature plus, under fusion, whether the position opens and
/// whether it closes its step (which fixes its reroute).
type LookupKey = (LayerSignature, bool, bool);

/// Adds the lookup key of every position of every lowered step of
/// `scenario` under `options` to `keys`.
fn lookup_keys(
    model: &ServingModel,
    scenario: &ServingScenario,
    options: &NetworkOptions,
    keys: &mut HashSet<LookupKey>,
) {
    for step in scenario.schedule().steps() {
        let net = model.lower_serving_step_with(step, scenario.layout());
        let last = net.layers().len() - 1;
        for (i, layer) in net.layers().iter().enumerate() {
            let signature = if options.batch > 1 {
                layer.clone().with_batch(options.batch).signature()
            } else {
                layer.signature()
            };
            let fused = options.fusion.is_some();
            keys.insert((signature, fused && i > 0, fused && i < last));
        }
    }
}

/// Scenario and fleet traces read the same to the bit however the
/// session resolves layers — one worker, four workers, or no cache at
/// all (no memo, no grouping) — under batching and fusion as well as
/// the baseline. The cached sessions still account for every layer of
/// every step, and search each distinct *(signature, reroute)* key of
/// the lowered steps exactly once: a trace's single miss fan-out never
/// searches a key twice.
#[test]
fn traces_are_bit_identical_across_thread_counts_and_cache_modes() {
    let model = memo_model();
    let system = System::new(toy_arch(), MappingStrategy::default());
    let options = [
        NetworkOptions::baseline(),
        NetworkOptions::baseline().with_batch(3),
        NetworkOptions::baseline().with_fusion("dram", "glb"),
    ];
    for seed in [1, 2] {
        for scenario in memo_scenarios(seed) {
            let assignments = Fleet::uniform(scenario.clone(), FleetRouter::JoinShortestQueue, 2)
                .dispatch()
                .expect("the scenario's stream dispatches");
            let instances = || assignments.iter().filter_map(|a| a.scenario.as_ref());
            let layers = lowered_layers(&model, &scenario);
            let fleet_layers: usize = instances().map(|s| lowered_layers(&model, s)).sum();
            for options in &options {
                let mut single_keys = HashSet::new();
                lookup_keys(&model, &scenario, options, &mut single_keys);
                let mut all_keys = single_keys.clone();
                for instance in instances() {
                    lookup_keys(&model, instance, options, &mut all_keys);
                }
                let sessions = [
                    EvalSession::new(system.clone()).with_runner(SweepRunner::with_threads(1)),
                    EvalSession::new(system.clone()).with_runner(SweepRunner::with_threads(4)),
                    EvalSession::new(system.clone()).without_cache(),
                ];
                let readings: Vec<_> = sessions
                    .iter()
                    .map(|session| {
                        let single = scenario_trace(session, &model, &scenario, options)
                            .expect("trace evaluates");
                        let single_stats = session.cache_stats();
                        let members: Vec<FleetInstance<'_>> = assignments
                            .iter()
                            .map(|assignment| FleetInstance {
                                session,
                                model: &model,
                                assignment,
                            })
                            .collect();
                        let fleet = fleet_trace(&members, options).expect("the fleet evaluates");
                        let stats = session.cache_stats();
                        if session.cache().is_some() {
                            let lookups = |s: CacheStats| s.hits + s.misses;
                            let label = format!("seed {seed} {options:?}");
                            assert_eq!(lookups(single_stats), layers as u64, "{label}");
                            assert_eq!(single_stats.misses, single_keys.len() as u64, "{label}");
                            assert_eq!(lookups(stats), (layers + fleet_layers) as u64, "{label}");
                            assert_eq!(stats.misses, all_keys.len() as u64, "{label}");
                        }
                        let instances: Vec<_> = fleet
                            .instances
                            .iter()
                            .map(|i| i.evaluation.as_ref().map(trace_bits))
                            .collect();
                        (trace_bits(&single), instances)
                    })
                    .collect();
                let label = format!("seed {seed} {options:?}");
                assert_eq!(readings[0], readings[1], "{label}: 1 vs 4 threads");
                assert_eq!(readings[0], readings[2], "{label}: cached vs uncached");
            }
        }
    }
}

/// The original closed-loop batch scheduler written out directly, as
/// an oracle for the event core: FIFO admission into free slots at step
/// start, one token per active request per step, retirement at the end
/// of the step that produced the last token. Returns each step's
/// `(request, kv_len)` slots in admission order.
fn legacy_batch_schedule(mix: &RequestMix, capacity: usize) -> Vec<Vec<(usize, usize)>> {
    let mut queue = 0..mix.len();
    let mut active: Vec<(usize, usize)> = Vec::new();
    let mut steps = Vec::new();
    loop {
        while active.len() < capacity {
            let Some(request) = queue.next() else { break };
            active.push((request, mix.requests()[request].prompt));
        }
        if active.is_empty() {
            return steps;
        }
        steps.push(active.clone());
        for (_, kv_len) in &mut active {
            *kv_len += 1;
        }
        active.retain(|&(r, kv_len)| kv_len < mix.requests()[r].prompt + mix.requests()[r].output);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch-scheduler equivalence: the closed-loop FIFO
    /// resident-prefill scenario is the legacy batch scheduler, slot
    /// for slot, for any seeded population.
    #[test]
    fn closed_loop_event_schedule_matches_legacy_batch_schedule(
        seed in 0usize..1000,
        count in 1usize..=24,
        capacity in 1usize..=12,
        long_percent in 0usize..=100,
    ) {
        let mix = RequestMix::bimodal(seed as u64, count, (16, 3), (128, 11), long_percent).unwrap();
        let legacy = legacy_batch_schedule(&mix, capacity);
        let event = resident_schedule(&mix, capacity);
        prop_assert_eq!(legacy.len(), event.total_steps());
        for (slots, step) in legacy.iter().zip(event.steps()) {
            prop_assert!(step.prefill().is_empty());
            let decode: Vec<(usize, usize)> =
                step.decode().iter().map(|s| (s.request, s.kv_len)).collect();
            prop_assert_eq!(slots, &decode);
        }
    }

    /// Random mixes and capacities: the scheduler's conservation laws
    /// hold for any seeded population.
    #[test]
    fn scheduler_conserves_tokens(
        seed in 0usize..1000,
        count in 1usize..=24,
        capacity in 1usize..=12,
        long_percent in 0usize..=100,
    ) {
        let mix = RequestMix::bimodal(seed as u64, count, (16, 3), (128, 11), long_percent).unwrap();
        let schedule = resident_schedule(&mix, capacity);
        prop_assert_eq!(schedule.total_decode_tokens(), mix.total_output_tokens());
        prop_assert!(schedule
            .steps()
            .iter()
            .all(|s| s.occupancy() >= 1 && s.occupancy() <= capacity));
        prop_assert!(schedule.mean_occupancy() > 0.0 && schedule.mean_occupancy() <= 1.0);
        // Steps are bounded: perfect packing below, serial above.
        let tokens = mix.total_output_tokens() as usize;
        prop_assert!(schedule.total_steps() >= tokens.div_ceil(capacity));
        prop_assert!(schedule.total_steps() <= tokens);
        assert_tokens_exactly_once(&mix, &schedule);
    }

    /// Random active sets — a closed-loop resident step admitting one
    /// request per slot at `kv` cached tokens: the lowering's closed
    /// form matches the layer sum and the per-request sum, and the
    /// bucketed composition covers the whole active set.
    #[test]
    fn lowering_macs_match_for_random_active_sets(
        seed in 0usize..1000,
        occupancy in 1usize..=8,
        bucket_pow in 0usize..=8,
    ) {
        let bucket = 1usize << bucket_pow;
        // A deterministic pseudo-random active set from the seed.
        let kv: Vec<usize> = (0..occupancy)
            .map(|i| (seed.wrapping_mul(31).wrapping_add(i * 97)) % 700)
            .collect();
        let mix = RequestMix::custom(
            "active-set",
            kv.iter().map(|&k| Request::new(k, 1)).collect(),
        );
        let schedule = resident_schedule(&mix, occupancy);
        let step = &schedule.steps()[0];
        prop_assert_eq!(step.decode_kv_lens(), kv.clone());
        let model = ServingModel::new("toy", 64, 4, 128, 2, 1000);
        let layout = KvLayout::Bucketed { bucket };
        let net = model.lower_serving_step_with(step, &layout);
        prop_assert_eq!(net.total_macs(), model.serving_step_macs_with(step, &layout));
        prop_assert_eq!(
            net.total_macs(),
            kv.iter().map(|&k| token_macs(TOY, k, bucket)).sum::<u64>()
        );
        let composition = ServingModel::bucketed_composition(&kv, bucket);
        prop_assert_eq!(
            composition.iter().map(|&(_, c)| c).sum::<usize>(),
            occupancy
        );
        // Group count bounds the per-step layer count: 8 layers per
        // block + LM head per group.
        prop_assert_eq!(
            net.layers().len(),
            composition.len() * (2 * 8 + 1)
        );
        for (len, _) in composition {
            prop_assert_eq!(len % bucket, 0, "padded lengths are bucket multiples");
        }
    }
}

// --- paged KV residency (PR 9) --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page allocation covers the cache — `pages × page_size ≥ kv_len`
    /// — and wastes strictly less than one page per request.
    #[test]
    fn page_allocation_covers_the_cache(
        page in 1usize..=512,
        kv in 0usize..=4096,
    ) {
        let t = PageTable::try_new(page).unwrap();
        prop_assert!(t.pages_for(kv) * page >= kv);
        prop_assert_eq!(t.allocated_tokens(kv), t.pages_for(kv) * page);
        prop_assert!(t.allocated_tokens(kv) >= kv);
        prop_assert!(t.fragmentation(kv) < page);
        prop_assert_eq!(t.allocated_tokens(kv) - t.fragmentation(kv), kv);
    }

    /// A one-token page is exact per-token residency: zero
    /// fragmentation and attend lengths of exactly `kv + 1`.
    #[test]
    fn unit_page_recovers_exact_residency(kv in 0usize..=4096) {
        let t = PageTable::try_new(1).unwrap();
        prop_assert_eq!(t.allocated_tokens(kv), kv);
        prop_assert_eq!(t.fragmentation(kv), 0);
        prop_assert_eq!(t.attend_len(kv), kv + 1);
    }

    /// Whenever the page tiles the bucket, bucketed accounting is a
    /// sound upper bound on paged residency — per cache length, per
    /// scheduled step, and through the lowering's MAC closed forms.
    #[test]
    fn bucketed_is_an_upper_bound_when_the_page_tiles_the_bucket(
        page_pow in 0usize..=6,
        factor in 1usize..=8,
        seed in 0usize..1000,
        count in 1usize..=16,
        capacity in 1usize..=8,
    ) {
        let page = 1usize << page_pow;
        let bucket = page * factor;
        let paged = PageTable::try_new(page).unwrap();
        let bucketed = PageTable::try_new(bucket).unwrap();
        for kv in 0..=600 {
            prop_assert!(paged.allocated_tokens(kv) <= bucketed.allocated_tokens(kv));
            prop_assert!(paged.attend_len(kv) <= bucketed.attend_len(kv));
        }
        let mix = RequestMix::bimodal(seed as u64, count, (16, 3), (128, 11), 25).unwrap();
        let schedule = ServingScenario::builder(mix, capacity)
            .prefill_chunk(32)
            .build()
            .expect("scenario is valid")
            .schedule();
        for step in schedule.steps() {
            let p = paged.step_residency(step);
            let b = bucketed.step_residency(step);
            prop_assert_eq!(p.used_tokens, b.used_tokens);
            prop_assert!(p.allocated_tokens <= b.allocated_tokens);
            prop_assert!(p.used_tokens <= p.allocated_tokens);
        }
        // The paged lowering's MACs match its closed form and never
        // exceed the bucketed lowering's.
        let model = ServingModel::new("toy", 64, 4, 128, 2, 1000);
        let paged_layout = KvLayout::Paged(paged);
        let bucketed_layout = KvLayout::Bucketed { bucket };
        for step in schedule.steps().iter().take(8) {
            let net = model.lower_serving_step_with(step, &paged_layout);
            prop_assert_eq!(
                net.total_macs(),
                model.serving_step_macs_with(step, &paged_layout)
            );
            prop_assert!(
                model.serving_step_macs_with(step, &paged_layout)
                    <= model.serving_step_macs_with(step, &bucketed_layout)
            );
        }
    }
}
