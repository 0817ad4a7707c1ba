//! The photonic-vs-digital study harness.
//!
//! Every comparison study (`lumen baseline`, the transformer, decode,
//! serving and SLO studies) pairs Albireo at one scaling corner with the
//! peak-matched [`DigitalBaseline`] and reduces two evaluations of the
//! same work to the same few ratios. This module is the one place that
//! happens: [`Testbed`] builds the two [`EvalSession`]s, so every study
//! honors `--threads` and `--no-cache`, and [`PhotonicVsDigital`] has one
//! constructor per evaluation kind.

use crate::{AlbireoConfig, DigitalBaseline, ScalingProfile};
use lumen_core::{
    scenario_trace, CacheStats, EvalSession, NetworkEvaluation, NetworkOptions, ServingEvaluation,
    SystemError,
};
use lumen_units::Frequency;
use lumen_workload::{networks, ServingModel, ServingScenario};

/// Photonic-vs-digital comparison at one operating point: energy per MAC
/// and utilization on both systems. Every comparison row embeds one, so
/// the ratio metrics the studies compare across the crossover are
/// defined in one place.
#[derive(Debug, Clone)]
pub struct PhotonicVsDigital {
    /// Photonic (Albireo) energy per MAC in pJ.
    pub photonic_pj_per_mac: f64,
    /// Digital-baseline energy per MAC in pJ.
    pub digital_pj_per_mac: f64,
    /// Photonic MAC-weighted compute utilization (0, 1].
    pub photonic_utilization: f64,
    /// Digital MAC-weighted compute utilization (0, 1].
    pub digital_utilization: f64,
}

impl PhotonicVsDigital {
    /// The comparison of one network (or decode step) evaluated on both
    /// systems.
    pub fn from_networks(photonic: &NetworkEvaluation, digital: &NetworkEvaluation) -> Self {
        PhotonicVsDigital {
            photonic_pj_per_mac: photonic.energy_per_mac().picojoules(),
            digital_pj_per_mac: digital.energy_per_mac().picojoules(),
            photonic_utilization: photonic.average_utilization(),
            digital_utilization: digital.average_utilization(),
        }
    }

    /// The comparison of one serving schedule traced on both systems.
    pub fn from_serving(photonic: &ServingEvaluation, digital: &ServingEvaluation) -> Self {
        PhotonicVsDigital {
            photonic_pj_per_mac: photonic.pj_per_mac(),
            digital_pj_per_mac: digital.pj_per_mac(),
            photonic_utilization: photonic.average_utilization(),
            digital_utilization: digital.average_utilization(),
        }
    }

    /// Photonic energy advantage (>1 favors photonics).
    pub fn energy_advantage(&self) -> f64 {
        self.digital_pj_per_mac / self.photonic_pj_per_mac
    }

    /// Digital-over-photonic utilization ratio (>1 means the digital
    /// array keeps more of its fabric busy than the photonic one).
    pub fn utilization_gap(&self) -> f64 {
        self.digital_utilization / self.photonic_utilization
    }
}

/// One network evaluated on both systems: a row of the baseline and
/// transformer studies.
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// Workload name.
    pub network: String,
    /// Total GMACs per inference.
    pub gmacs: f64,
    /// Fraction of MACs in GEMM-shaped layers.
    pub gemm_fraction: f64,
    /// Energy per MAC and utilization on both systems.
    pub vs: PhotonicVsDigital,
    /// Photonic throughput in GMAC/s (MACs/cycle × symbol rate).
    pub photonic_gmacs_per_s: f64,
    /// Digital throughput in GMAC/s.
    pub digital_gmacs_per_s: f64,
}

impl NetworkRow {
    /// Photonic throughput advantage (>1 favors photonics).
    pub fn throughput_advantage(&self) -> f64 {
        self.photonic_gmacs_per_s / self.digital_gmacs_per_s
    }
}

/// Energy per generated token and token throughput on both systems over
/// one serving trace. Both systems run the same schedule, so the
/// per-token and per-MAC energy ratios agree.
#[derive(Debug, Clone)]
pub struct TokenRates {
    /// Photonic energy per generated token, in millijoules.
    pub photonic_mj_per_token: f64,
    /// Digital energy per generated token, in millijoules.
    pub digital_mj_per_token: f64,
    /// Photonic aggregate serving throughput, generated tokens/s.
    pub photonic_tokens_per_s: f64,
    /// Digital aggregate serving throughput, generated tokens/s.
    pub digital_tokens_per_s: f64,
}

/// The two systems of a comparison study: Albireo at one scaling corner
/// and the digital baseline, each behind its own [`EvalSession`].
pub(crate) struct Testbed {
    pub(crate) photonic: EvalSession,
    digital: EvalSession,
}

impl Testbed {
    pub(crate) fn new(scaling: ScalingProfile) -> Testbed {
        Testbed {
            photonic: EvalSession::new(AlbireoConfig::new(scaling).build_system()),
            digital: EvalSession::new(DigitalBaseline::new().build_system()),
        }
    }

    pub(crate) fn photonic_clock(&self) -> Frequency {
        self.photonic.system().arch().clock()
    }

    pub(crate) fn digital_clock(&self) -> Frequency {
        self.digital.system().arch().clock()
    }

    /// Runs `eval` on the photonic session, then on the digital one.
    pub(crate) fn both<T>(
        &self,
        eval: impl Fn(&EvalSession) -> Result<T, SystemError>,
    ) -> Result<(T, T), SystemError> {
        Ok((eval(&self.photonic)?, eval(&self.digital)?))
    }

    /// Evaluates each named built-in network on both systems, in order.
    pub(crate) fn compare_networks(&self, names: &[&str]) -> Result<Vec<NetworkRow>, SystemError> {
        let options = NetworkOptions::baseline();
        // Every built-in name resolves (`networks::by_name`'s own tests
        // pin that), so nothing is skipped here.
        names
            .iter()
            .filter_map(|name| networks::by_name(name))
            .map(|net| {
                let (p, d) = self.both(|session| session.evaluate_network(&net, &options))?;
                Ok(NetworkRow {
                    network: net.name().to_string(),
                    gmacs: net.total_macs() as f64 / 1e9,
                    gemm_fraction: net.gemm_mac_fraction(),
                    vs: PhotonicVsDigital::from_networks(&p, &d),
                    photonic_gmacs_per_s: p.throughput_macs_per_cycle()
                        * self.photonic_clock().gigahertz(),
                    digital_gmacs_per_s: d.throughput_macs_per_cycle()
                        * self.digital_clock().gigahertz(),
                })
            })
            .collect()
    }

    /// Energy per generated token and token throughput of one schedule
    /// traced on both systems: with [`PhotonicVsDigital::from_serving`],
    /// the comparison tail every serving-study row ends with.
    pub(crate) fn token_rates(&self, p: &ServingEvaluation, d: &ServingEvaluation) -> TokenRates {
        TokenRates {
            photonic_mj_per_token: p.pj_per_token() / 1e9,
            digital_mj_per_token: d.pj_per_token() / 1e9,
            photonic_tokens_per_s: p.tokens_per_second(self.photonic_clock()),
            digital_tokens_per_s: d.tokens_per_second(self.digital_clock()),
        }
    }

    /// Traces GPT-2 small serving every scenario on both systems and
    /// builds one row per scenario from its photonic and digital traces.
    /// Returns the rows and the photonic cache lookups over the traces.
    pub(crate) fn trace_scenarios<R>(
        &self,
        scenarios: &[ServingScenario],
        mut row: impl FnMut(&ServingScenario, &ServingEvaluation, &ServingEvaluation) -> R,
    ) -> Result<(Vec<R>, CacheStats), SystemError> {
        let model = ServingModel::gpt2_small();
        let options = NetworkOptions::baseline();
        let before = self.photonic.cache_stats();
        let rows = scenarios
            .iter()
            .map(|scenario| {
                let (p, d) =
                    self.both(|session| scenario_trace(session, &model, scenario, &options))?;
                Ok(row(scenario, &p, &d))
            })
            .collect::<Result<_, SystemError>>()?;
        Ok((rows, self.photonic.cache_stats().since(before)))
    }
}
