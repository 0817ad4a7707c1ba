//! The three benchmark workloads: what each sets up, the call each
//! times, the traced replay of that call, and the checks on its
//! simulated outputs.
//!
//! The timed call goes through the same public entry point a user of
//! the library calls (`scenario_trace`, `Fleet::dispatch` +
//! `fleet_trace`, `EvalSession::evaluate_network`). The traced replay
//! re-drives the same work stage by stage through the public API —
//! schedule, lowering, evaluation, freeing — so spans can sit between
//! the stages without touching the library.

use crate::trace::{Tracer, NONE};
use lumen_albireo::{AlbireoConfig, ScalingProfile, WeightReuse};
use lumen_core::serving::{ServingEvaluation, ServingStepPoint};
use lumen_core::{
    fleet_trace, scenario_trace, EvalSession, FleetEvaluation, FleetInstance, FleetInstanceTrace,
    MappingStrategy, NetworkEvaluation, NetworkOptions, System, SystemError,
};
use lumen_mapper::search::SearchConfig;
use lumen_units::Energy;
use lumen_workload::networks;
use lumen_workload::{
    ArrivalProcess, Fleet, FleetRouter, KvLayout, Network, Request, RequestMix, ServingModel,
    ServingScenario, ServingSchedule,
};
use std::collections::HashSet;
use std::time::Instant;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServingPoisson,
    FleetPaged,
    DseSearch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ServingPoisson, Kind::FleetPaged, Kind::DseSearch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServingPoisson => "serving_poisson",
            Kind::FleetPaged => "fleet_paged",
            Kind::DseSearch => "dse_search",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much work one timed call does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Requests in the single-instance serving trace.
    pub serving_requests: usize,
    /// Requests in the global fleet stream.
    pub fleet_requests: usize,
    /// Design points of the sweep (a prefix of the 16-variant grid).
    pub dse_variants: usize,
    /// Networks each design point evaluates (a prefix of the 7 built-ins).
    pub dse_networks: usize,
    /// Random-search candidates per mapping search.
    pub search_iterations: usize,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        serving_requests: 600,
        fleet_requests: 300,
        dse_variants: 16,
        dse_networks: 7,
        search_iterations: 400,
    };

    /// A size small enough for the harness self-test.
    #[cfg(test)]
    pub const TINY: Size = Size {
        serving_requests: 12,
        fleet_requests: 12,
        dse_variants: 2,
        dse_networks: 2,
        search_iterations: 20,
    };
}

/// The simulated outputs of one call — deterministic for a seed, so
/// they check correctness rather than measure speed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Observed {
    /// Scheduler steps simulated (serving), or design points swept.
    pub steps: u64,
    /// `(design point, network)` evaluations: one per scheduler step on
    /// the serving workloads.
    pub evals: u64,
    pub tokens: u64,
    pub prefill_tokens: u64,
    pub energy_pj: f64,
    pub cycles: f64,
    /// p99 time to first token at the simulated clock, seconds.
    pub ttft_p99_s: f64,
    /// p99 time between tokens at the simulated clock, seconds.
    pub tbt_p99_s: f64,
    /// Mapping searches (cache misses) the call ran.
    pub searches: u64,
}

impl Observed {
    /// Every field as raw bits, under its pinned name.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("steps", self.steps),
            ("evals", self.evals),
            ("tokens", self.tokens),
            ("prefill_tokens", self.prefill_tokens),
            ("energy_pj", self.energy_pj.to_bits()),
            ("cycles", self.cycles.to_bits()),
            ("ttft_p99_s", self.ttft_p99_s.to_bits()),
            ("tbt_p99_s", self.tbt_p99_s.to_bits()),
            ("searches", self.searches),
        ]
    }
}

/// What a timed call returns besides its time: the library's result,
/// kept so the traced replay can be checked against it.
pub enum Output {
    Serving(ServingEvaluation),
    Fleet(FleetEvaluation),
    /// Total energy of every `(design point, network)` evaluation, in
    /// sweep order.
    Dse(Vec<Energy>),
}

/// One timed call.
pub struct Call {
    pub wall_s: f64,
    pub observed: Observed,
    pub output: Output,
    /// Invariant violations found in the outputs (empty when sound).
    pub violations: Vec<String>,
}

/// Everything built before the first evaluation.
pub enum Setup {
    Serving {
        session: EvalSession,
        model: ServingModel,
        scenario: ServingScenario,
    },
    Fleet {
        session: EvalSession,
        model: ServingModel,
        fleet: Fleet,
    },
    Dse {
        sessions: Vec<EvalSession>,
        networks: Vec<Network>,
    },
}

/// A workload instance: kind, size and seed-derived inputs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// SplitMix64: the benchmark's own generator for its inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A chat/long-document mix with exactly `long_percent`% long requests
/// at seeded positions. Fixing the split (rather than drawing each
/// request's population) keeps the total work equal across seeds, so
/// seeds vary the trace, not its size.
fn stratified_mix(
    rng: &mut Rng,
    count: usize,
    short: (usize, usize),
    long: (usize, usize),
    long_percent: usize,
) -> RequestMix {
    let longs = count * long_percent / 100;
    let mut is_long: Vec<bool> = (0..count).map(|i| i < longs).collect();
    for i in (1..count).rev() {
        let j = (rng.unit() * (i + 1) as f64) as usize;
        is_long.swap(i, j);
    }
    let requests = is_long
        .iter()
        .map(|&l| {
            let (prompt, output) = if l { long } else { short };
            Request::new(prompt, output)
        })
        .collect();
    RequestMix::custom(
        format!(
            "stratified(p{}o{}|p{}o{}@{long_percent}%)",
            short.0, short.1, long.0, long.1
        ),
        requests,
    )
}

/// `count` arrivals of a Poisson process with per-step rate `rate`,
/// conditioned on all of them landing in the window whose expected
/// count is `count`: each arrival is an independent draw from the
/// window with density proportional to the rate. The window's length is
/// fixed, so seeds move arrivals around without stretching the trace.
fn conditioned_arrivals(
    rng: &mut Rng,
    count: usize,
    rate: impl Fn(usize) -> f64,
) -> ArrivalProcess {
    let mut cumulative = Vec::new();
    let mut total = 0.0;
    while total < count as f64 {
        total += rate(cumulative.len());
        cumulative.push(total);
    }
    let mut steps: Vec<usize> = (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            cumulative.partition_point(|&c| c <= u)
        })
        .collect();
    steps.sort_unstable();
    ArrivalProcess::explicit(steps)
}

/// Distinct sub-seeds for the independent random streams of one run.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    lumen_workload::fnv1a(b"perfbench-seed", &[seed, stream])
}

/// The 16-point Albireo grid: 2 corners × weight reuse × OR {3, 9} ×
/// IR {9, 45}.
fn dse_grid() -> Vec<AlbireoConfig> {
    let mut grid = Vec::with_capacity(16);
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        for wr in [WeightReuse::Original, WeightReuse::More] {
            for or in [3, 9] {
                for ir in [9, 45] {
                    grid.push(
                        AlbireoConfig::new(scaling)
                            .with_weight_reuse(wr)
                            .with_output_reuse(or)
                            .with_input_reuse(ir),
                    );
                }
            }
        }
    }
    grid
}

impl Workload {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Workload {
        Workload { kind, size, seed }
    }

    fn serving_scenario(&self) -> ServingScenario {
        let mut rng = Rng(sub_seed(self.seed, 1));
        let n = self.size.serving_requests;
        let mix = stratified_mix(&mut rng, n, (64, 16), (512, 48), 25);
        ServingScenario::builder(mix, 16)
            .arrival(conditioned_arrivals(&mut rng, n, |_| 0.3))
            .kv_bucket(256)
            .prefill_chunk(256)
            .build()
            .expect("the serving scenario is valid for every seed")
    }

    fn fleet(&self) -> Fleet {
        let mut rng = Rng(sub_seed(self.seed, 2));
        let n = self.size.fleet_requests;
        let mix = stratified_mix(&mut rng, n, (96, 16), (768, 64), 20);
        let (trough, peak, period) = (0.1, 0.9, 400);
        let diurnal = |wall: usize| {
            // The library's diurnal triangle: trough at phase 0, peak at
            // half a period.
            let phase = wall % period;
            let up = 2 * phase.min(period - phase);
            trough + (peak - trough) * (up as f64 / period as f64)
        };
        let scenario = ServingScenario::builder(mix, 8)
            .kv_page(16)
            .shared_prefix(40)
            .prefill_chunk(128)
            .arrival(conditioned_arrivals(&mut rng, n, diurnal))
            .build()
            .expect("the fleet template is valid for every seed");
        Fleet::uniform(scenario, FleetRouter::JoinShortestQueue, 3)
    }

    /// Builds systems, sessions, model, mix and scenario. Returns the
    /// setup and the seconds spent building Albireo systems inside it.
    pub fn setup(&self) -> (Setup, f64) {
        match self.kind {
            Kind::ServingPoisson => {
                let t = Instant::now();
                let system = AlbireoConfig::new(ScalingProfile::Aggressive).build_system();
                let build_s = t.elapsed().as_secs_f64();
                let setup = Setup::Serving {
                    session: EvalSession::new(system),
                    model: ServingModel::gpt2_small(),
                    scenario: self.serving_scenario(),
                };
                (setup, build_s)
            }
            Kind::FleetPaged => {
                let t = Instant::now();
                let system = AlbireoConfig::new(ScalingProfile::Conservative).build_system();
                let build_s = t.elapsed().as_secs_f64();
                let setup = Setup::Fleet {
                    session: EvalSession::new(system),
                    model: ServingModel::gpt2_small(),
                    fleet: self.fleet(),
                };
                (setup, build_s)
            }
            Kind::DseSearch => {
                let t = Instant::now();
                // Each design point searches with its own seed, so a
                // call's total search work averages over 16 streams and
                // varies little from one run seed to the next.
                let systems: Vec<System> = dse_grid()
                    .iter()
                    .take(self.size.dse_variants)
                    .zip(0u64..)
                    .map(|(config, v)| {
                        let search = SearchConfig {
                            iterations: self.size.search_iterations,
                            seed: sub_seed(self.seed, 100 + v),
                        };
                        System::new(config.build_arch(), MappingStrategy::RandomSearch(search))
                    })
                    .collect();
                let build_s = t.elapsed().as_secs_f64();
                let setup = Setup::Dse {
                    sessions: systems.into_iter().map(EvalSession::new).collect(),
                    networks: networks::NAMES
                        .iter()
                        .take(self.size.dse_networks)
                        .map(|name| networks::by_name(name).expect("built-in network"))
                        .collect(),
                };
                (setup, build_s)
            }
        }
    }

    /// The timed call, then the invariant checks on its outputs.
    pub fn call(&self, setup: &Setup) -> Result<Call, String> {
        let options = NetworkOptions::baseline();
        match setup {
            Setup::Serving {
                session,
                model,
                scenario,
            } => {
                let t = Instant::now();
                let eval = scenario_trace(session, model, scenario, &options).map_err(err)?;
                let clock = session.system().arch().clock();
                let (ttft, tbt) = (eval.ttft_percentiles(clock), eval.tbt_percentiles(clock));
                let wall_s = t.elapsed().as_secs_f64();
                let stats = session.cache_stats();
                let observed = Observed {
                    steps: eval.points.len() as u64,
                    evals: eval.points.len() as u64,
                    tokens: eval.total_tokens(),
                    prefill_tokens: eval.total_prefill_tokens(),
                    energy_pj: eval.total_energy().picojoules(),
                    cycles: eval.total_cycles(),
                    ttft_p99_s: ttft.p99,
                    tbt_p99_s: tbt.p99,
                    searches: stats.misses,
                };
                let violations = serving_violations(scenario, &eval, 0);
                Ok(Call {
                    wall_s,
                    observed,
                    output: Output::Serving(eval),
                    violations,
                })
            }
            Setup::Fleet {
                session,
                model,
                fleet,
            } => {
                let t = Instant::now();
                let assignments = fleet.dispatch().map_err(err)?;
                let members: Vec<FleetInstance<'_>> = assignments
                    .iter()
                    .map(|assignment| FleetInstance {
                        session,
                        model,
                        assignment,
                    })
                    .collect();
                let eval = fleet_trace(&members, &options).map_err(err)?;
                let (ttft, tbt) = (eval.ttft_percentiles(), eval.tbt_percentiles());
                let wall_s = t.elapsed().as_secs_f64();
                let traces = || eval.instances.iter().filter_map(|i| i.evaluation.as_ref());
                let observed = Observed {
                    steps: traces().map(|e| e.points.len() as u64).sum(),
                    evals: traces().map(|e| e.points.len() as u64).sum(),
                    tokens: eval.total_tokens(),
                    prefill_tokens: traces().map(ServingEvaluation::total_prefill_tokens).sum(),
                    energy_pj: eval.total_energy().picojoules(),
                    cycles: traces().map(ServingEvaluation::total_cycles).sum(),
                    ttft_p99_s: ttft.p99,
                    tbt_p99_s: tbt.p99,
                    searches: session.cache_stats().misses,
                };
                let violations = fleet_violations(fleet, &assignments, &eval);
                Ok(Call {
                    wall_s,
                    observed,
                    output: Output::Fleet(eval),
                    violations,
                })
            }
            Setup::Dse { sessions, networks } => {
                let t = Instant::now();
                let mut energies = Vec::with_capacity(sessions.len() * networks.len());
                let mut cycles = 0.0;
                for session in sessions {
                    for network in networks {
                        let eval = session.evaluate_network(network, &options).map_err(err)?;
                        energies.push(eval.energy.total());
                        cycles += eval.cycles;
                    }
                }
                let wall_s = t.elapsed().as_secs_f64();
                let energy = energies.iter().fold(Energy::ZERO, |acc, &e| acc + e);
                let observed = Observed {
                    steps: sessions.len() as u64,
                    evals: energies.len() as u64,
                    energy_pj: energy.picojoules(),
                    cycles,
                    searches: sessions.iter().map(|s| s.cache_stats().misses).sum(),
                    ..Observed::default()
                };
                let mut violations = Vec::new();
                if energies
                    .iter()
                    .any(|e| e.picojoules().is_nan() || e.picojoules() <= 0.0)
                {
                    violations.push("a design point evaluated to non-positive energy".into());
                }
                Ok(Call {
                    wall_s,
                    observed,
                    output: Output::Dse(energies),
                    violations,
                })
            }
        }
    }

    /// The traced replay of [`Workload::call`] on a fresh `setup`,
    /// checked step by step against the untraced `reference`. Returns
    /// the replay's wall time and the mismatches found.
    pub fn replay(
        &self,
        setup: &Setup,
        reference: &Output,
        tr: &mut Tracer,
    ) -> Result<(f64, Vec<String>), String> {
        let options = NetworkOptions::baseline();
        let mut mismatches = Vec::new();
        let t = Instant::now();
        match (setup, reference) {
            (
                Setup::Serving {
                    session,
                    model,
                    scenario,
                },
                Output::Serving(untraced),
            ) => {
                let requests = untraced.requests.clone();
                tr.set_instance(0);
                let root = tr.enter("core.scenario_trace", NONE);
                let schedule = tr.span("workload.schedule", NONE, || scenario.schedule());
                let points =
                    replay_steps(session, model, &schedule, scenario.layout(), tr).map_err(err)?;
                let eval = ServingEvaluation {
                    capacity: schedule.capacity(),
                    kv_bucket: scenario.layout().quantum(),
                    points,
                    requests,
                };
                tr.exit(root);
                let clock = session.system().arch().clock();
                tr.span("core.fleet_pool", NONE, || {
                    std::hint::black_box((
                        eval.ttft_percentiles(clock),
                        eval.tbt_percentiles(clock),
                    ));
                });
                compare_points(0, &eval, untraced, &mut mismatches);
            }
            (
                Setup::Fleet {
                    session,
                    model,
                    fleet,
                },
                Output::Fleet(untraced),
            ) => {
                let mut requests: Vec<_> = untraced
                    .instances
                    .iter()
                    .map(|i| i.evaluation.as_ref().map(|e| e.requests.clone()))
                    .collect();
                tr.set_instance(NONE);
                let root = tr.enter("core.fleet_trace", NONE);
                let assignments = tr
                    .span("workload.dispatch", NONE, || fleet.dispatch())
                    .map_err(err)?;
                let clock = session.system().arch().clock();
                let mut instances = Vec::with_capacity(assignments.len());
                for assignment in &assignments {
                    let index = assignment.instance;
                    tr.set_instance(u32::try_from(index).expect("few instances"));
                    let evaluation = match &assignment.scenario {
                        None => None,
                        Some(scenario) => {
                            let schedule =
                                tr.span("workload.schedule", NONE, || scenario.schedule());
                            let points =
                                replay_steps(session, model, &schedule, scenario.layout(), tr)
                                    .map_err(err)?;
                            Some(ServingEvaluation {
                                capacity: schedule.capacity(),
                                kv_bucket: scenario.layout().quantum(),
                                points,
                                requests: requests[index].take().unwrap_or_default(),
                            })
                        }
                    };
                    instances.push(FleetInstanceTrace {
                        instance: index,
                        requests: assignment.requests.clone(),
                        clock,
                        evaluation,
                    });
                }
                tr.set_instance(NONE);
                let eval = FleetEvaluation { instances };
                tr.exit(root);
                tr.span("core.fleet_pool", NONE, || {
                    std::hint::black_box((eval.ttft_percentiles(), eval.tbt_percentiles()));
                });
                for (mine, theirs) in eval.instances.iter().zip(&untraced.instances) {
                    match (&mine.evaluation, &theirs.evaluation) {
                        (Some(a), Some(b)) => compare_points(mine.instance, a, b, &mut mismatches),
                        (None, None) => {}
                        _ => mismatches
                            .push(format!("instance {} idle in one run only", mine.instance)),
                    }
                }
            }
            (Setup::Dse { sessions, networks }, Output::Dse(untraced)) => {
                tr.set_instance(NONE);
                let root = tr.enter("core.dse_sweep", NONE);
                let mut energies = Vec::with_capacity(untraced.len());
                for (v, session) in sessions.iter().enumerate() {
                    tr.set_instance(u32::try_from(v).expect("few variants"));
                    for (n, network) in networks.iter().enumerate() {
                        let step = u32::try_from(n).expect("few networks");
                        let eval =
                            traced_eval(session, network, &options, step, tr).map_err(err)?;
                        energies.push(eval.energy.total());
                        tr.span("core.eval_drop", step, || drop(eval));
                    }
                }
                tr.set_instance(NONE);
                tr.exit(root);
                let sum = |v: &[Energy]| v.iter().fold(Energy::ZERO, |acc, &e| acc + e);
                if energies != *untraced || sum(&energies) != sum(untraced) {
                    mismatches.push("replayed sweep energy differs from the untraced sweep".into());
                }
            }
            _ => unreachable!("setup and output come from the same workload"),
        }
        Ok((t.elapsed().as_secs_f64(), mismatches))
    }

    /// Distinct lowered layer-signature sequences over the steps (or,
    /// for the sweep, over the `(design point, network)` evaluations).
    pub fn distinct_step_frac(&self, setup: &Setup) -> f64 {
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut steps = 0usize;
        let mut add = |net: &Network| {
            steps += 1;
            seen.insert(
                net.layers()
                    .iter()
                    .map(|l| l.signature().digest())
                    .collect(),
            );
        };
        match setup {
            Setup::Serving {
                model, scenario, ..
            } => {
                for step in scenario.schedule().steps() {
                    add(&model.lower_serving_step_with(step, scenario.layout()));
                }
            }
            Setup::Fleet { model, fleet, .. } => {
                for assignment in fleet.dispatch().unwrap_or_default() {
                    if let Some(scenario) = &assignment.scenario {
                        for step in scenario.schedule().steps() {
                            add(&model.lower_serving_step_with(step, scenario.layout()));
                        }
                    }
                }
            }
            Setup::Dse { sessions, networks } => {
                for _ in sessions {
                    networks.iter().for_each(&mut add);
                }
            }
        }
        if steps == 0 {
            return 0.0;
        }
        seen.len() as f64 / steps as f64
    }
}

/// `evaluate_network` inside a span named after whether it searched.
fn traced_eval(
    session: &EvalSession,
    network: &Network,
    options: &NetworkOptions,
    step: u32,
    tr: &mut Tracer,
) -> Result<NetworkEvaluation, SystemError> {
    let before = session.cache_stats();
    let id = tr.enter("core.eval_hit", step);
    let eval = session.evaluate_network(network, options);
    tr.exit(id);
    let after = session.cache_stats();
    let span = tr.get_mut(id);
    span.hits = after.hits - before.hits;
    span.misses = after.misses - before.misses;
    span.layers = network.layers().len() as u64;
    if span.misses > 0 {
        span.name = "core.eval_miss";
    }
    eval
}

/// Lowers and evaluates every step of `schedule`, reducing each to the
/// point `serving_trace_with` reduces it to.
fn replay_steps(
    session: &EvalSession,
    model: &ServingModel,
    schedule: &ServingSchedule,
    layout: &KvLayout,
    tr: &mut Tracer,
) -> Result<Vec<ServingStepPoint>, SystemError> {
    let options = NetworkOptions::baseline();
    let mut points = Vec::with_capacity(schedule.steps().len());
    for (step, state) in schedule.steps().iter().enumerate() {
        let id = u32::try_from(step).expect("fewer than 2^32 steps");
        let net = tr.span("workload.lower", id, || {
            model.lower_serving_step_with(state, layout)
        });
        let eval = traced_eval(session, &net, &options, id, tr)?;
        points.push(ServingStepPoint {
            step,
            occupancy: state.decode().len(),
            prefill_tokens: state.prefill_tokens(),
            macs: eval.macs,
            backing_accesses: eval
                .per_layer
                .iter()
                .filter_map(|l| l.analysis.levels.first())
                .map(lumen_mapper::LevelTraffic::total_accesses)
                .sum(),
            energy: eval.energy.total(),
            cycles: eval.cycles,
            utilization: eval.average_utilization(),
        });
        tr.span("core.eval_drop", id, || drop((eval, net)));
    }
    Ok(points)
}

/// Checks a replayed trace against the untraced one: every step's
/// energy and cycles bit for bit, and the energy total.
fn compare_points(
    instance: usize,
    mine: &ServingEvaluation,
    theirs: &ServingEvaluation,
    out: &mut Vec<String>,
) {
    if mine.points.len() != theirs.points.len() {
        out.push(format!(
            "instance {instance}: replay has {} steps, untraced {}",
            mine.points.len(),
            theirs.points.len()
        ));
        return;
    }
    let differs = mine.points.iter().zip(&theirs.points).position(|(a, b)| {
        a.energy.picojoules().to_bits() != b.energy.picojoules().to_bits()
            || a.cycles.to_bits() != b.cycles.to_bits()
            || a.macs != b.macs
    });
    if let Some(step) = differs {
        out.push(format!(
            "instance {instance}: step {step} differs from the untraced trace"
        ));
    }
    if mine.total_energy().picojoules().to_bits() != theirs.total_energy().picojoules().to_bits() {
        out.push(format!(
            "instance {instance}: replayed energy total differs"
        ));
    }
}

/// Tokens equal the mix's output tokens net of truncation: every
/// request generates its full output unless the schedule truncated it,
/// in which case it generates fewer. Prompt tokens are prefilled once,
/// except the shared prefix every request after the first skips.
fn serving_violations(
    scenario: &ServingScenario,
    eval: &ServingEvaluation,
    instance: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    let mix = scenario.mix();
    let truncated: HashSet<usize> = scenario.schedule().truncated().iter().copied().collect();
    if eval.requests.len() != mix.len() {
        out.push(format!(
            "instance {instance}: {} latency records for {} requests",
            eval.requests.len(),
            mix.len()
        ));
    }
    let mut expected = mix.total_output_tokens();
    for record in &eval.requests {
        let Some(request) = mix.requests().get(record.request) else {
            out.push(format!(
                "instance {instance}: unknown request {}",
                record.request
            ));
            continue;
        };
        let full = request.output;
        if truncated.contains(&record.request) {
            if record.generated >= full {
                out.push(format!(
                    "instance {instance}: truncated request {} ran to completion",
                    record.request
                ));
            }
            expected -= (full - record.generated.min(full)) as u64;
        } else if record.generated != full {
            out.push(format!(
                "instance {instance}: request {} generated {} of {full} tokens",
                record.request, record.generated
            ));
        }
    }
    if eval.total_tokens() != expected {
        out.push(format!(
            "instance {instance}: {} tokens, expected {expected}",
            eval.total_tokens()
        ));
    }
    let prompts: u64 = mix.requests().iter().map(|r| r.prompt as u64).sum();
    let skipped = (scenario.shared_prefix() * (mix.len() - 1)) as u64;
    if eval.total_prefill_tokens() != prompts - skipped {
        out.push(format!(
            "instance {instance}: {} prefill tokens, expected {}",
            eval.total_prefill_tokens(),
            prompts - skipped
        ));
    }
    out
}

/// The fleet serves every request exactly once, and each instance's
/// trace passes the single-instance checks.
fn fleet_violations(
    fleet: &Fleet,
    assignments: &[lumen_workload::InstanceAssignment],
    eval: &FleetEvaluation,
) -> Vec<String> {
    let mut out = Vec::new();
    let n = fleet.stream().mix().len();
    let mut served = vec![0u32; n];
    for assignment in assignments {
        for &r in &assignment.requests {
            if let Some(count) = served.get_mut(r) {
                *count += 1;
            }
        }
    }
    if served.iter().any(|&c| c != 1) || eval.served_requests() != n {
        out.push("the fleet did not serve every request exactly once".into());
    }
    for (assignment, trace) in assignments.iter().zip(&eval.instances) {
        if let (Some(scenario), Some(e)) = (&assignment.scenario, &trace.evaluation) {
            out.extend(serving_violations(scenario, e, assignment.instance));
        }
    }
    out
}
