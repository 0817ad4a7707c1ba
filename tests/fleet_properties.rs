//! Property and invariant tests for fleet-scale serving on the unified
//! scenario API.
//!
//! The pinned properties: every router partitions the arrival stream —
//! each request lands on exactly one instance and none are dropped, at
//! dispatch time and again in the evaluated traces; a fleet of one is
//! *bit-identical* to tracing the template scenario directly (the
//! routed sub-scenario replays the same arrival draws, so nothing is
//! re-rolled); the [`ServingScenario`] builder accepts exactly the
//! combinations its typed errors do not reject; the CLI flag surface
//! lowers onto that builder (every invalid combination is a typed
//! error, not a bespoke string); and a fleet sharing one eval session
//! dedupes identical shards by layer signature, which the capacity
//! plan's hit rate makes observable.

use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::core::{
    fleet_trace, scenario_trace, EvalSession, FleetInstance, MappingStrategy, NetworkOptions,
    System,
};
use lumen::units::{Energy, Frequency};
use lumen::workload::{
    AdmissionPolicy, ArrivalProcess, Dim, DimSet, Fleet, FleetRouter, RequestMix, ServingError,
    ServingModel, ServingScenario, TensorSet,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn toy_arch() -> Architecture {
    ArchBuilder::new("fleet-toy", Frequency::from_gigahertz(1.0))
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

fn template() -> ServingScenario {
    ServingScenario::builder(
        RequestMix::bimodal(0xF1EE, 18, (48, 8), (200, 24), 30).unwrap(),
        3,
    )
    .kv_bucket(32)
    .arrival(ArrivalProcess::try_poisson(0.2, 0xD00D).unwrap())
    .policy(AdmissionPolicy::Fifo)
    .prefill_chunk(64)
    .build()
    .expect("the fleet test template is valid")
}

const ROUTERS: [FleetRouter; 3] = [
    FleetRouter::RoundRobin,
    FleetRouter::JoinShortestQueue,
    FleetRouter::LeastLoadedKv,
];

/// Dispatch is a partition: across every router and fleet size, each
/// global request index appears in exactly one instance's assignment.
#[test]
fn every_router_partitions_the_stream() {
    let template = template();
    let total = template.mix().len();
    for router in ROUTERS {
        for instances in [1, 2, 3, 7] {
            let fleet = Fleet::uniform(template.clone(), router, instances);
            let assignments = fleet.dispatch().expect("the template stream dispatches");
            assert_eq!(assignments.len(), instances, "{router} x{instances}");
            let mut seen = BTreeSet::new();
            for assignment in &assignments {
                for &request in &assignment.requests {
                    assert!(
                        seen.insert(request),
                        "{router} x{instances}: request {request} routed twice"
                    );
                }
                // An assignment's scenario exists iff it has requests.
                assert_eq!(
                    assignment.scenario.is_some(),
                    !assignment.requests.is_empty()
                );
            }
            let expected: BTreeSet<usize> = (0..total).collect();
            assert_eq!(seen, expected, "{router} x{instances}: requests dropped");
        }
    }
}

/// Conservation survives evaluation: the merged fleet trace serves
/// every request and generates exactly the mix's output tokens, for
/// every router.
#[test]
fn fleet_traces_conserve_requests_and_tokens() {
    let template = template();
    let model = ServingModel::gpt2_small();
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let options = NetworkOptions::baseline();
    for router in ROUTERS {
        let fleet = Fleet::uniform(template.clone(), router, 3);
        let assignments = fleet.dispatch().expect("the template stream dispatches");
        let members: Vec<FleetInstance<'_>> = assignments
            .iter()
            .map(|assignment| FleetInstance {
                session: &session,
                model: &model,
                assignment,
            })
            .collect();
        let evaluation = fleet_trace(&members, &options).expect("the fleet evaluates");
        assert_eq!(
            evaluation.served_requests(),
            template.mix().len(),
            "{router}: every request served exactly once"
        );
        assert_eq!(
            evaluation.total_tokens(),
            template.mix().total_output_tokens(),
            "{router}: token conservation"
        );
    }
}

/// A fleet of one *is* the single-instance trace: same step energies
/// and cycles to the bit, same per-request latencies. The routed
/// sub-scenario replays the template's arrival draws literally, so
/// nothing is re-rolled.
#[test]
fn fleet_of_one_is_bit_identical_to_the_single_instance_trace() {
    let template = template();
    let model = ServingModel::gpt2_small();
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let options = NetworkOptions::baseline();

    let direct = scenario_trace(&session, &model, &template, &options)
        .expect("the template traces directly");

    for router in ROUTERS {
        let fleet = Fleet::uniform(template.clone(), router, 1);
        let assignments = fleet.dispatch().expect("a fleet of one dispatches");
        let members = [FleetInstance {
            session: &session,
            model: &model,
            assignment: &assignments[0],
        }];
        let evaluation = fleet_trace(&members, &options).expect("the fleet evaluates");
        let trace = evaluation.instances[0]
            .evaluation
            .as_ref()
            .expect("one instance serves the whole stream");

        assert_eq!(trace.points.len(), direct.points.len(), "{router}");
        for (i, (fleet_point, direct_point)) in trace.points.iter().zip(&direct.points).enumerate()
        {
            assert_eq!(fleet_point.occupancy, direct_point.occupancy, "step {i}");
            assert_eq!(fleet_point.macs, direct_point.macs, "step {i}");
            assert_eq!(
                fleet_point.energy.picojoules().to_bits(),
                direct_point.energy.picojoules().to_bits(),
                "{router} step {i}: energy drifted"
            );
            assert_eq!(
                fleet_point.cycles.to_bits(),
                direct_point.cycles.to_bits(),
                "{router} step {i}: cycles drifted"
            );
        }
        assert_eq!(trace.requests.len(), direct.requests.len());
        for (fleet_req, direct_req) in trace.requests.iter().zip(&direct.requests) {
            assert_eq!(fleet_req.request, direct_req.request);
            assert_eq!(
                fleet_req.ttft_cycles().to_bits(),
                direct_req.ttft_cycles().to_bits(),
                "{router} request {}: TTFT drifted",
                fleet_req.request
            );
            assert_eq!(fleet_req.token_gap_cycles, direct_req.token_gap_cycles);
        }
        assert_eq!(
            evaluation.total_energy().picojoules().to_bits(),
            direct.total_energy().picojoules().to_bits(),
            "{router}: fleet-of-1 energy drifted"
        );
    }
}

/// A heterogeneous fleet traces instances at their own clocks: two
/// sessions with different clock rates produce a pooled percentile set
/// that uses each instance's period, not a global one.
#[test]
fn heterogeneous_fleet_pools_latencies_at_each_instances_clock() {
    let template = template();
    let model = ServingModel::gpt2_small();
    let slow = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let fast_arch = ArchBuilder::new("fleet-toy-fast", Frequency::from_gigahertz(2.0))
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
        .expect("fast toy architecture is valid");
    let fast = EvalSession::new(System::new(fast_arch, MappingStrategy::default()));

    let fleet = Fleet::uniform(template.clone(), FleetRouter::RoundRobin, 2);
    let assignments = fleet.dispatch().expect("the template stream dispatches");
    let sessions = [&slow, &fast];
    let members: Vec<FleetInstance<'_>> = assignments
        .iter()
        .zip(sessions)
        .map(|(assignment, session)| FleetInstance {
            session,
            model: &model,
            assignment,
        })
        .collect();
    let evaluation = fleet_trace(&members, &options_baseline()).expect("the fleet evaluates");
    assert_eq!(
        evaluation.instances[0].clock,
        Frequency::from_gigahertz(1.0)
    );
    assert_eq!(
        evaluation.instances[1].clock,
        Frequency::from_gigahertz(2.0)
    );
    assert_eq!(evaluation.served_requests(), template.mix().len());
    // The same steps at a doubled clock halve their wall time; the
    // pooled p99 must sit strictly below an all-slow fleet's.
    let all_slow: Vec<FleetInstance<'_>> = assignments
        .iter()
        .map(|assignment| FleetInstance {
            session: &slow,
            model: &model,
            assignment,
        })
        .collect();
    let slow_eval = fleet_trace(&all_slow, &options_baseline()).expect("the fleet evaluates");
    assert!(
        evaluation.ttft_percentiles().p99 < slow_eval.ttft_percentiles().p99,
        "a faster instance should pull the pooled tail down"
    );
}

fn options_baseline() -> NetworkOptions {
    NetworkOptions::baseline()
}

/// The capacity plan's shared-session accounting is observable: three
/// instances decoding the same model dedupe their identical steps by
/// layer signature, so the fleet-wide hit rate is near one — far above
/// what any single instance could reach alone.
#[test]
fn capacity_plan_fleet_shares_one_eval_cache() {
    use lumen::albireo::experiments;
    let plan = experiments::capacity_plan_study(
        lumen::albireo::ScalingProfile::Conservative,
        experiments::FLEET_INSTANCES,
        FleetRouter::RoundRobin,
        experiments::fleet_arrival().unwrap(),
    )
    .expect("the capacity plan evaluates");
    assert!(plan.trace_cache.lookups() > 0, "the plan evaluated layers");
    assert!(
        plan.trace_cache.misses < plan.trace_cache.lookups() / 10,
        "identical shards should dedupe: {} searches for {} evals",
        plan.trace_cache.misses,
        plan.trace_cache.lookups()
    );
    assert!(
        plan.trace_cache.hit_rate() > 0.9,
        "shared-session hit rate {:.3} should be near one",
        plan.trace_cache.hit_rate()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder accepts exactly what its typed errors do not
    /// reject: for arbitrary knob combinations, `build()` either
    /// yields a scenario whose accessors echo the inputs, or the one
    /// error the validation order promises. Raw draws of 0 encode
    /// "knob not set" for the optional knobs.
    #[test]
    fn builder_accepts_exactly_the_valid_combinations(
        capacity in 0usize..6,
        kv_bucket in 0usize..300,
        page_raw in 0usize..81,
        shared in 0usize..80,
        chunk_raw in 0usize..129,
        ctx_raw in 0usize..3,
    ) {
        let page = page_raw.checked_sub(1);
        let chunk = chunk_raw.checked_sub(1);
        let max_context = [None, Some(100), Some(300)][ctx_raw];
        let mix = RequestMix::bimodal(7, 8, (48, 8), (200, 24), 50).unwrap();
        let min_prompt = mix.requests().iter().map(|r| r.prompt).min().unwrap();
        let worst_needed = mix.requests().iter().map(|r| r.prompt + 1).max().unwrap();
        let mut builder = ServingScenario::builder(mix, capacity).kv_bucket(kv_bucket);
        if let Some(page) = page {
            builder = builder.kv_page(page);
        }
        if let Some(chunk) = chunk {
            builder = builder.prefill_chunk(chunk);
        }
        if let Some(max_context) = max_context {
            builder = builder.max_context(max_context);
        }
        let result = builder.shared_prefix(shared).build();

        // The validation ladder, in order.
        if capacity == 0 {
            prop_assert_eq!(result.unwrap_err(), ServingError::ZeroCapacity);
        } else if kv_bucket == 0 {
            prop_assert_eq!(result.unwrap_err(), ServingError::ZeroKvBucket);
        } else if page == Some(0) {
            prop_assert_eq!(result.unwrap_err(), ServingError::ZeroKvPage);
        } else if chunk == Some(0) {
            prop_assert_eq!(result.unwrap_err(), ServingError::ZeroPrefillChunk);
        } else if shared > 0 && page.is_none() {
            prop_assert_eq!(
                result.unwrap_err(),
                ServingError::SharedPrefixRequiresPagedKv
            );
        } else if shared > min_prompt {
            prop_assert_eq!(
                result.unwrap_err(),
                ServingError::SharedPrefixExceedsPrompt { shared, min_prompt }
            );
        } else if max_context.is_some_and(|ctx| worst_needed > ctx) {
            prop_assert!(matches!(
                result,
                Err(ServingError::ContextOverflow { .. })
            ));
        } else {
            let scenario = result.expect("the combination is valid");
            prop_assert_eq!(scenario.capacity(), capacity);
            prop_assert_eq!(scenario.kv_bucket(), kv_bucket);
            prop_assert_eq!(scenario.kv_page(), page);
            prop_assert_eq!(scenario.shared_prefix(), shared);
            prop_assert_eq!(scenario.max_context(), max_context);
        }
    }

    /// Dispatch never loses a request, whatever the fleet size.
    #[test]
    fn dispatch_partitions_for_any_fleet_size(instances in 1usize..12) {
        let template = template();
        let total = template.mix().len();
        for router in ROUTERS {
            let fleet = Fleet::uniform(template.clone(), router, instances);
            let assignments = fleet.dispatch().expect("dispatches");
            let routed: usize = assignments.iter().map(|a| a.requests.len()).sum();
            prop_assert_eq!(routed, total);
        }
    }
}

/// The CLI flag surface lowers onto the builder: every invalid
/// combination is the serving layer's typed error (satellite: no
/// hand-validated combos survive in the binary).
#[test]
fn cli_flag_matrix_rejects_invalid_combinations_with_typed_errors() {
    use lumen::albireo::flags::{parse_fleet_flags, parse_serving_flags, FlagError, ServingPlan};
    let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| (*s).to_string()).collect() };

    // Valid combinations resolve to plans.
    assert!(matches!(
        parse_serving_flags(&args(&["serving"])),
        Ok(ServingPlan::ClosedLoopStudy)
    ));
    assert!(matches!(
        parse_serving_flags(&args(&[
            "serving",
            "--arrival",
            "bursty",
            "--policy",
            "slo"
        ])),
        Ok(ServingPlan::Scenario(_))
    ));
    assert!(matches!(
        parse_serving_flags(&args(&[
            "serving",
            "--kv-page",
            "16",
            "--shared-prefix",
            "40"
        ])),
        Ok(ServingPlan::Paged(_))
    ));

    // Invalid combinations are typed, not bespoke strings.
    let invalid: Vec<(Vec<String>, FlagError)> = vec![
        (
            args(&["serving", "--shared-prefix", "40"]),
            FlagError::Scenario(ServingError::SharedPrefixRequiresPagedKv),
        ),
        (
            args(&["serving", "--kv-page", "16", "--arrival", "poisson"]),
            FlagError::PagedOpenLoop,
        ),
        (
            args(&["serving", "--kv-page", "16", "--policy", "fifo"]),
            FlagError::PagedOpenLoop,
        ),
        (
            args(&["serving", "--kv-page", "0"]),
            FlagError::Scenario(ServingError::ZeroKvPage),
        ),
        (
            args(&["serving", "--arrival", "steady"]),
            FlagError::UnknownArrival("steady".into()),
        ),
        (
            args(&["serving", "--policy", "lifo"]),
            FlagError::UnknownPolicy("lifo".into()),
        ),
    ];
    for (flags, want) in invalid {
        assert_eq!(
            parse_serving_flags(&flags),
            Err(want),
            "flags {flags:?} should be a typed rejection"
        );
    }

    assert_eq!(
        parse_fleet_flags(&args(&["fleet", "--instances", "0"])),
        Err(FlagError::Scenario(ServingError::EmptyFleet))
    );
    assert_eq!(
        parse_fleet_flags(&args(&["fleet", "--router", "random"])),
        Err(FlagError::UnknownRouter("random".into()))
    );
    assert_eq!(
        parse_fleet_flags(&args(&["fleet", "--slo", "ttft:20"])),
        Err(FlagError::UnknownSlo("ttft:20".into()))
    );
}
