//! Fleet-scale serving: one arrival stream routed across N accelerator
//! instances.
//!
//! The paper models one accelerator; serving millions of users is a
//! fleet question — how many instances, at which scaling corner, meet a
//! latency SLO? [`Fleet`] answers the workload half: it takes a global
//! [`ServingScenario`] (the offered stream), a per-instance template for
//! each of N instances (possibly heterogeneous — a photonic corner next
//! to a digital baseline), and a [`FleetRouter`], and deterministically
//! splits the stream into per-instance sub-scenarios. Each sub-scenario
//! replays exactly the arrival steps the router assigned it (via
//! [`ArrivalProcess::Explicit`]), so the per-instance schedules compose
//! back into the global stream with nothing re-rolled: every request is
//! served by exactly one instance, at exactly the step the global draw
//! produced.
//!
//! Routing is a deterministic integer fluid model, like the admission
//! policies: no randomness beyond the stream's own seed, no floats in
//! any comparison, so fleet assignments are platform-exact. The
//! join-shortest-queue and least-loaded-KV routers track each
//! instance's outstanding work as an event count drained at `capacity`
//! events per scheduler step — the same slots-work-in-parallel cadence
//! the event core itself uses.

use super::error::ServingError;
use super::event::PrefillMode;
use super::paging::KvLayout;
use super::scenario::ServingScenario;
use super::ArrivalProcess;
use std::collections::VecDeque;
use std::fmt;

/// How the fleet assigns each arriving request to an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetRouter {
    /// Request `i` goes to instance `i mod N` — the stateless baseline.
    RoundRobin,
    /// Each request joins the instance with the fewest outstanding
    /// requests at its arrival step (ties to the lowest index).
    JoinShortestQueue,
    /// Each request joins the instance with the least outstanding KV
    /// footprint — quantum-rounded cache tokens of its queued requests —
    /// at its arrival step (ties to the lowest index). Favors instances
    /// whose queued work is short-context even when queue lengths match.
    LeastLoadedKv,
}

impl fmt::Display for FleetRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetRouter::RoundRobin => write!(f, "round-robin"),
            FleetRouter::JoinShortestQueue => write!(f, "join-shortest-queue"),
            FleetRouter::LeastLoadedKv => write!(f, "least-loaded-kv"),
        }
    }
}

/// One instance's slice of the fleet dispatch: which global requests it
/// serves and the sub-scenario that replays them.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceAssignment {
    /// The instance index, `0..N`.
    pub instance: usize,
    /// Global request indices routed here, in arrival order.
    pub requests: Vec<usize>,
    /// The instance's scenario over its sub-stream, or `None` when the
    /// router sent it nothing (an idle instance still counts toward
    /// fleet capacity and energy-at-idle questions, but has no schedule
    /// to run).
    pub scenario: Option<ServingScenario>,
}

/// A fleet of serving instances fed by one routed arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    stream: ServingScenario,
    templates: Vec<ServingScenario>,
    router: FleetRouter,
}

impl Fleet {
    /// A homogeneous fleet: `instances` copies of `scenario`, which
    /// doubles as the global stream description (its mix and arrival
    /// process are the offered load).
    ///
    /// # Errors
    ///
    /// [`ServingError::EmptyFleet`] if `instances` is zero.
    pub fn try_uniform(
        scenario: ServingScenario,
        router: FleetRouter,
        instances: usize,
    ) -> Result<Fleet, ServingError> {
        if instances == 0 {
            return Err(ServingError::EmptyFleet);
        }
        Ok(Fleet {
            templates: vec![scenario.clone(); instances],
            stream: scenario,
            router,
        })
    }

    /// Panicking wrapper over [`Fleet::try_uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    pub fn uniform(scenario: ServingScenario, router: FleetRouter, instances: usize) -> Fleet {
        Fleet::try_uniform(scenario, router, instances)
            .expect("a fleet needs at least one instance")
    }

    /// A heterogeneous fleet: `stream` describes the offered load (mix +
    /// arrival process); each template contributes its own capacity, KV
    /// layout, policy, prefill and context window. A template's mix and
    /// arrival process are superseded by the routed sub-stream.
    ///
    /// # Errors
    ///
    /// [`ServingError::EmptyFleet`] if `templates` is empty.
    pub fn try_heterogeneous(
        stream: ServingScenario,
        templates: Vec<ServingScenario>,
        router: FleetRouter,
    ) -> Result<Fleet, ServingError> {
        if templates.is_empty() {
            return Err(ServingError::EmptyFleet);
        }
        Ok(Fleet {
            stream,
            templates,
            router,
        })
    }

    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.templates.len()
    }

    /// The routing discipline.
    pub fn router(&self) -> FleetRouter {
        self.router
    }

    /// The global stream: the offered mix and arrival process.
    pub fn stream(&self) -> &ServingScenario {
        &self.stream
    }

    /// The per-instance scenario templates.
    pub fn templates(&self) -> &[ServingScenario] {
        &self.templates
    }

    /// Total decode-slot capacity across the fleet.
    pub fn aggregate_capacity(&self) -> usize {
        self.templates.iter().map(ServingScenario::capacity).sum()
    }

    /// Routes the global stream and builds each instance's
    /// sub-scenario. Every request lands on exactly one instance, at
    /// the arrival step the global process drew for it.
    ///
    /// # Errors
    ///
    /// The [`ServingError`]s of scenario re-validation, if a template
    /// cannot serve its routed sub-stream (e.g. a heterogeneous
    /// template whose context window is smaller than a routed prompt).
    pub fn dispatch(&self) -> Result<Vec<InstanceAssignment>, ServingError> {
        let mix = self.stream.mix();
        let arrivals = self.stream.arrival().arrival_steps(mix.len());
        let n = self.templates.len();
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut queues: Vec<InstanceQueue> = self
            .templates
            .iter()
            .map(|t| InstanceQueue::new(t.capacity()))
            .collect();
        for (r, &step) in arrivals.iter().enumerate() {
            for queue in &mut queues {
                queue.drain_to(step);
            }
            let target = match self.router {
                FleetRouter::RoundRobin => r % n,
                FleetRouter::JoinShortestQueue => pick_min(&queues, InstanceQueue::len),
                FleetRouter::LeastLoadedKv => pick_min(&queues, InstanceQueue::kv_tokens),
            };
            routed[target].push(r);
            let request = mix.requests()[r];
            queues[target].push(PendingLoad {
                work: service_events(&self.templates[target], request.prompt, request.output),
                kv: kv_footprint(&self.templates[target], request.prompt + request.output),
            });
        }
        routed
            .into_iter()
            .enumerate()
            .map(|(instance, requests)| {
                let scenario = if requests.is_empty() {
                    None
                } else {
                    let sub_mix = mix.subset(format!("{}#i{instance}/{n}", mix.name()), &requests);
                    let steps = requests.iter().map(|&r| arrivals[r]).collect();
                    Some(
                        self.templates[instance]
                            .with_stream(sub_mix, ArrivalProcess::try_explicit(steps)?)?,
                    )
                };
                Ok(InstanceAssignment {
                    instance,
                    requests,
                    scenario,
                })
            })
            .collect()
    }
}

/// Index of the queue minimizing `key` (ties to the lowest index).
fn pick_min(queues: &[InstanceQueue], key: impl Fn(&InstanceQueue) -> u64) -> usize {
    queues
        .iter()
        .enumerate()
        .min_by_key(|&(i, q)| (key(q), i))
        .map_or(0, |(i, _)| i)
}

/// Scheduler events a request costs an instance: its prefill events
/// under the template's prefill mode plus one decode event per output
/// token.
fn service_events(template: &ServingScenario, prompt: usize, output: usize) -> u64 {
    let prefill = match template.prefill() {
        PrefillMode::Resident => 0,
        PrefillMode::OnAdmission { chunk: None } => 1,
        PrefillMode::OnAdmission { chunk: Some(c) } => prompt.div_ceil(c) as u64,
    };
    prefill + output as u64
}

/// Quantum-rounded KV tokens a fully-generated request occupies under
/// the template's layout — the footprint least-loaded-KV balances.
fn kv_footprint(template: &ServingScenario, tokens: usize) -> u64 {
    let rounded = match template.layout() {
        KvLayout::Bucketed { bucket } => tokens.div_ceil(*bucket) * bucket,
        KvLayout::Paged(table) => table.allocated_tokens(tokens),
    };
    rounded as u64
}

/// A routed request's remaining service demand on its instance.
#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    work: u64,
    kv: u64,
}

/// One instance's outstanding work between arrivals: a FIFO of pending
/// loads drained at `capacity` events per step.
#[derive(Debug)]
struct InstanceQueue {
    capacity: u64,
    wall: usize,
    pending: VecDeque<PendingLoad>,
}

impl InstanceQueue {
    fn new(capacity: usize) -> InstanceQueue {
        InstanceQueue {
            capacity: capacity as u64,
            wall: 0,
            pending: VecDeque::new(),
        }
    }

    /// Advances the fluid model to `step`, completing up to `capacity`
    /// events per elapsed step.
    fn drain_to(&mut self, step: usize) {
        let elapsed = (step - self.wall) as u64;
        self.wall = step;
        let mut budget = elapsed.saturating_mul(self.capacity);
        while budget > 0 {
            let Some(front) = self.pending.front_mut() else {
                break;
            };
            if front.work <= budget {
                budget -= front.work;
                self.pending.pop_front();
            } else {
                front.work -= budget;
                budget = 0;
            }
        }
    }

    fn push(&mut self, load: PendingLoad) {
        self.pending.push_back(load);
    }

    fn len(&self) -> u64 {
        self.pending.len() as u64
    }

    fn kv_tokens(&self) -> u64 {
        self.pending.iter().map(|p| p.kv).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{AdmissionPolicy, RequestMix};

    fn stream() -> ServingScenario {
        ServingScenario::builder(
            RequestMix::bimodal(0xF1EE_7CAF, 16, (64, 16), (512, 48), 25).unwrap(),
            4,
        )
        .arrival(ArrivalProcess::try_poisson(0.25, 0xFEED_F00D).unwrap())
        .prefill_chunk(256)
        .build()
        .unwrap()
    }

    #[test]
    fn zero_instances_is_a_typed_error() {
        assert_eq!(
            Fleet::try_uniform(stream(), FleetRouter::RoundRobin, 0),
            Err(ServingError::EmptyFleet)
        );
        assert_eq!(
            Fleet::try_heterogeneous(stream(), vec![], FleetRouter::RoundRobin),
            Err(ServingError::EmptyFleet)
        );
    }

    #[test]
    fn every_request_is_routed_exactly_once() {
        for router in [
            FleetRouter::RoundRobin,
            FleetRouter::JoinShortestQueue,
            FleetRouter::LeastLoadedKv,
        ] {
            let fleet = Fleet::uniform(stream(), router, 3);
            let assignments = fleet.dispatch().unwrap();
            let mut seen: Vec<usize> = assignments
                .iter()
                .flat_map(|a| a.requests.iter().copied())
                .collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..stream().mix().len()).collect::<Vec<_>>(),
                "{router}: each request on exactly one instance"
            );
        }
    }

    #[test]
    fn sub_streams_replay_the_global_arrival_steps() {
        let fleet = Fleet::uniform(stream(), FleetRouter::JoinShortestQueue, 3);
        let global = stream().arrival().arrival_steps(stream().mix().len());
        for assignment in fleet.dispatch().unwrap() {
            let Some(scenario) = assignment.scenario else {
                continue;
            };
            let replay = scenario.arrival().arrival_steps(assignment.requests.len());
            let expect: Vec<usize> = assignment.requests.iter().map(|&r| global[r]).collect();
            assert_eq!(replay, expect);
            // The routed sub-mix holds the routed requests, in order.
            for (slot, &r) in assignment.requests.iter().enumerate() {
                assert_eq!(
                    scenario.mix().requests()[slot],
                    stream().mix().requests()[r]
                );
            }
        }
    }

    #[test]
    fn round_robin_deals_in_index_order() {
        let fleet = Fleet::uniform(stream(), FleetRouter::RoundRobin, 3);
        let assignments = fleet.dispatch().unwrap();
        assert_eq!(assignments[0].requests, vec![0, 3, 6, 9, 12, 15]);
        assert_eq!(assignments[1].requests, vec![1, 4, 7, 10, 13]);
        assert_eq!(assignments[2].requests, vec![2, 5, 8, 11, 14]);
    }

    #[test]
    fn shortest_queue_spreads_a_closed_loop_burst() {
        // Closed loop: everything arrives at step 0, so JSQ degenerates
        // to dealing one request per instance in rotation — queue
        // lengths stay balanced within one.
        let scenario = ServingScenario::builder(RequestMix::uniform(9, 64, 8).unwrap(), 2)
            .build()
            .unwrap();
        let fleet = Fleet::uniform(scenario, FleetRouter::JoinShortestQueue, 3);
        let assignments = fleet.dispatch().unwrap();
        for a in &assignments {
            assert_eq!(a.requests.len(), 3, "balanced across the burst");
        }
    }

    #[test]
    fn least_loaded_kv_balances_footprint_not_count() {
        // Two instances; requests alternate huge and tiny contexts so a
        // count-balancing router and a footprint-balancing router
        // disagree. All arrive at once (closed loop).
        let mut requests = Vec::new();
        for _ in 0..4 {
            requests.push(crate::serving::Request::new(512, 64)); // ~576 tokens
            requests.push(crate::serving::Request::new(16, 8)); // ~24 tokens
        }
        let mix = RequestMix::custom("skewed", requests);
        let scenario = ServingScenario::builder(mix, 2)
            .kv_bucket(16)
            .build()
            .unwrap();
        let fleet = Fleet::uniform(scenario.clone(), FleetRouter::LeastLoadedKv, 2);
        let assignments = fleet.dispatch().unwrap();
        let kv = |a: &InstanceAssignment| -> u64 {
            a.requests
                .iter()
                .map(|&r| {
                    kv_footprint(&scenario, {
                        let req = fleet.stream().mix().requests()[r];
                        req.prompt + req.output
                    })
                })
                .sum()
        };
        let (a, b) = (kv(&assignments[0]), kv(&assignments[1]));
        let skew = a.abs_diff(b);
        assert!(
            skew <= kv_footprint(&scenario, 512 + 64),
            "KV footprints within one large request: {a} vs {b}"
        );
        // Round-robin on the same stream piles all large requests onto
        // instance 0 (they alternate), so its skew is maximal.
        let rr = Fleet::uniform(scenario.clone(), FleetRouter::RoundRobin, 2);
        let rr_assignments = rr.dispatch().unwrap();
        let rr_skew = kv(&rr_assignments[0]).abs_diff(kv(&rr_assignments[1]));
        assert!(
            skew < rr_skew,
            "LLK skew {skew} < round-robin skew {rr_skew}"
        );
    }

    #[test]
    fn heterogeneous_templates_keep_their_own_knobs() {
        let big = ServingScenario::builder(RequestMix::uniform(1, 1, 1).unwrap(), 8)
            .policy(AdmissionPolicy::ShortestPrompt)
            .build()
            .unwrap();
        let small = ServingScenario::builder(RequestMix::uniform(1, 1, 1).unwrap(), 2)
            .kv_page(16)
            .build()
            .unwrap();
        let fleet =
            Fleet::try_heterogeneous(stream(), vec![big, small], FleetRouter::RoundRobin).unwrap();
        assert_eq!(fleet.aggregate_capacity(), 10);
        let assignments = fleet.dispatch().unwrap();
        let s0 = assignments[0].scenario.as_ref().unwrap();
        let s1 = assignments[1].scenario.as_ref().unwrap();
        assert_eq!(s0.capacity(), 8);
        assert_eq!(s0.policy(), AdmissionPolicy::ShortestPrompt);
        assert_eq!(s1.capacity(), 2);
        assert_eq!(s1.kv_page(), Some(16));
    }

    #[test]
    fn fleet_of_one_reproduces_the_single_instance_schedule() {
        let scenario = stream();
        let fleet = Fleet::uniform(scenario.clone(), FleetRouter::JoinShortestQueue, 1);
        let assignments = fleet.dispatch().unwrap();
        assert_eq!(assignments.len(), 1);
        let routed = assignments[0].scenario.as_ref().unwrap();
        assert_eq!(routed.schedule(), scenario.schedule(), "bit-identical");
    }

    #[test]
    fn router_names_are_stable() {
        assert_eq!(FleetRouter::RoundRobin.to_string(), "round-robin");
        assert_eq!(
            FleetRouter::JoinShortestQueue.to_string(),
            "join-shortest-queue"
        );
        assert_eq!(FleetRouter::LeastLoadedKv.to_string(), "least-loaded-kv");
    }
}
