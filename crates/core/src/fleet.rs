//! Fleet-wide trace aggregation: per-instance serving traces merged
//! into the numbers a capacity plan is judged on.
//!
//! [`lumen_workload::Fleet`] routes one arrival stream into
//! per-instance [`lumen_workload::ServingScenario`]s; this module
//! evaluates each instance through its own [`EvalSession`] (so a
//! heterogeneous fleet can mix photonic corners and digital baselines,
//! each at its own clock) and merges the traces. The merge is
//! clock-aware: every latency sample is converted from cycles to
//! seconds *at its own instance's clock* before pooling, so fleet-wide
//! TTFT/TBT percentiles are physically meaningful even when the
//! instances tick at different rates. Throughput uses the fleet
//! makespan — instances run concurrently, so the fleet finishes when
//! its slowest instance does — while energy simply sums: joules add
//! across machines no matter their clocks.

use crate::serving::{scenario_trace, Percentiles, ServingEvaluation};
use crate::{EvalSession, NetworkOptions, SystemError};
use lumen_units::{Energy, Frequency};
use lumen_workload::serving::{InstanceAssignment, ServingModel};

/// One instance of a fleet evaluation: which session and model serve
/// the routed sub-stream.
#[derive(Clone, Copy)]
pub struct FleetInstance<'a> {
    /// The evaluator (architecture + mapping + cache) of this instance.
    /// Instances may share a session — identical steps then dedupe in
    /// the shared eval cache — or bring their own for heterogeneous
    /// fleets.
    pub session: &'a EvalSession,
    /// The served model.
    pub model: &'a ServingModel,
    /// The routed sub-stream, from [`lumen_workload::Fleet::dispatch`].
    pub assignment: &'a InstanceAssignment,
}

/// One instance's evaluated trace inside a [`FleetEvaluation`].
#[derive(Debug, Clone)]
pub struct FleetInstanceTrace {
    /// Instance index, `0..N`.
    pub instance: usize,
    /// Global request indices this instance served.
    pub requests: Vec<usize>,
    /// The instance's clock — the rate its cycle counts convert to
    /// seconds at.
    pub clock: Frequency,
    /// The evaluated trace, or `None` for an instance the router left
    /// idle (it contributes capacity and zero load).
    pub evaluation: Option<ServingEvaluation>,
}

/// The merged result of evaluating every fleet instance.
#[derive(Debug, Clone)]
pub struct FleetEvaluation {
    /// Per-instance traces, by instance index.
    pub instances: Vec<FleetInstanceTrace>,
}

impl FleetEvaluation {
    /// Requests served across the fleet.
    pub fn served_requests(&self) -> usize {
        self.instances.iter().map(|i| i.requests.len()).sum()
    }

    /// Tokens generated across the fleet.
    pub fn total_tokens(&self) -> u64 {
        self.evaluations()
            .map(ServingEvaluation::total_tokens)
            .sum()
    }

    /// Total energy across the fleet — joules add across machines.
    pub fn total_energy(&self) -> Energy {
        self.evaluations()
            .fold(Energy::ZERO, |acc, e| acc + e.total_energy())
    }

    /// Fleet energy per generated token, in picojoules; 0.0 when no
    /// tokens were generated.
    pub fn pj_per_token(&self) -> f64 {
        let tokens = self.total_tokens();
        if tokens == 0 {
            return 0.0;
        }
        self.total_energy().picojoules() / tokens as f64
    }

    /// The fleet makespan in seconds: instances run concurrently, so
    /// the fleet finishes with its slowest instance (each converted at
    /// its own clock).
    pub fn makespan_seconds(&self) -> f64 {
        self.instances
            .iter()
            .filter_map(|i| {
                let eval = i.evaluation.as_ref()?;
                Some(eval.total_cycles() * i.clock.period().seconds())
            })
            .fold(0.0, f64::max)
    }

    /// Fleet throughput in generated tokens per second of makespan;
    /// 0.0 for an idle fleet.
    pub fn tokens_per_second(&self) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan == 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / makespan
    }

    /// Fleet-wide TTFT percentiles: every request's time-to-first-token
    /// in seconds at its instance's clock, pooled.
    pub fn ttft_percentiles(&self) -> Percentiles {
        Percentiles::from_samples(self.pooled(|e, period| {
            e.requests
                .iter()
                .map(|r| r.ttft_cycles() * period)
                .collect()
        }))
    }

    /// Fleet-wide TBT percentiles: every consecutive token gap in
    /// seconds at its instance's clock, pooled.
    pub fn tbt_percentiles(&self) -> Percentiles {
        Percentiles::from_samples(self.pooled(|e, period| {
            e.requests
                .iter()
                .flat_map(|r| r.token_gap_cycles.iter().map(|g| g * period))
                .collect()
        }))
    }

    /// Mean decode-slot occupancy per instance (idle instances report
    /// 0.0), by instance index.
    pub fn occupancies(&self) -> Vec<f64> {
        self.instances
            .iter()
            .map(|i| {
                i.evaluation
                    .as_ref()
                    .map_or(0.0, ServingEvaluation::mean_occupancy)
            })
            .collect()
    }

    /// The occupancy skew — max minus min per-instance mean occupancy —
    /// the router's balance report card (0.0 for a single instance).
    pub fn occupancy_skew(&self) -> f64 {
        let occ = self.occupancies();
        let max = occ.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = occ.iter().copied().fold(f64::INFINITY, f64::min);
        if occ.is_empty() {
            return 0.0;
        }
        max - min
    }

    fn evaluations(&self) -> impl Iterator<Item = &ServingEvaluation> {
        self.instances.iter().filter_map(|i| i.evaluation.as_ref())
    }

    fn pooled(&self, f: impl Fn(&ServingEvaluation, f64) -> Vec<f64>) -> Vec<f64> {
        self.instances
            .iter()
            .filter_map(|i| {
                let eval = i.evaluation.as_ref()?;
                Some(f(eval, i.clock.period().seconds()))
            })
            .flatten()
            .collect()
    }
}

/// Evaluates every instance's routed sub-scenario and merges the
/// traces. Instance order is preserved; an instance with no routed
/// requests contributes an empty trace.
///
/// # Errors
///
/// [`SystemError::NoMapping`] for the first unmappable step of the
/// first failing instance.
pub fn fleet_trace(
    instances: &[FleetInstance<'_>],
    options: &NetworkOptions,
) -> Result<FleetEvaluation, SystemError> {
    let traces = instances
        .iter()
        .map(|inst| {
            let evaluation = inst
                .assignment
                .scenario
                .as_ref()
                .map(|scenario| scenario_trace(inst.session, inst.model, scenario, options))
                .transpose()?;
            Ok(FleetInstanceTrace {
                instance: inst.assignment.instance,
                requests: inst.assignment.requests.clone(),
                clock: inst.session.system().arch().clock(),
                evaluation,
            })
        })
        .collect::<Result<Vec<_>, SystemError>>()?;
    Ok(FleetEvaluation { instances: traces })
}
