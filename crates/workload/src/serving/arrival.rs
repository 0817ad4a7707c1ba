//! Seeded arrival processes: when requests show up, in scheduler steps.
//!
//! PR 5's scheduler was closed-loop — every request queued at step 0 —
//! which saturates the slots and can only answer throughput questions.
//! An [`ArrivalProcess`] opens the loop: each request is assigned a
//! deterministic arrival step, and the event core admits it no earlier.
//!
//! All processes are discretized to one Bernoulli trial per scheduler
//! step on the existing SplitMix64 plumbing, for the same reason the
//! mixes use it: the draws touch only IEEE basic arithmetic (compare a
//! 53-bit uniform against a rate), so arrival times are bit-identical
//! across platforms and thread counts — the golden suite's invariant.
//! A per-step Bernoulli(`rate`) trial makes inter-arrival gaps
//! geometric with mean `1/rate` steps, the discrete analogue of a
//! Poisson process's exponential gaps.

use super::error::ServingError;
use super::splitmix64;
use std::fmt;

/// Converts one SplitMix64 draw into a uniform in `[0, 1)` using only
/// the 53 mantissa bits a f64 represents exactly.
fn unit(state: &mut u64) -> f64 {
    const SCALE: f64 = 1.0 / 9_007_199_254_740_992.0; // 2^-53
    (splitmix64(state) >> 11) as f64 * SCALE
}

/// A deterministic arrival process over scheduler steps.
///
/// Construction validates rates, so every variant held by a process is
/// schedulable: the non-closed processes produce any requested number
/// of arrivals in finite (seed-determined) time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Every request queued at step 0 — PR 5's saturation regime.
    ClosedLoop,
    /// One Bernoulli(`rate`) trial per step: geometric inter-arrival
    /// gaps with mean `1/rate` steps (discrete Poisson).
    Poisson {
        /// Mean arrivals per step, in `(0, 1]`.
        rate: f64,
        /// SplitMix64 seed.
        seed: u64,
    },
    /// A burst of `burst` simultaneous requests every `period` steps on
    /// top of a background Bernoulli(`rate`) trickle.
    Bursty {
        /// Background arrivals per step, in `[0, 1]`.
        rate: f64,
        /// Steps between bursts.
        period: usize,
        /// Requests per burst.
        burst: usize,
        /// SplitMix64 seed.
        seed: u64,
    },
    /// A rate that sweeps a triangle wave between `trough` and `peak`
    /// over `period` steps — the day/night load cycle, without
    /// transcendental functions so the draws stay platform-exact.
    Diurnal {
        /// Off-peak arrivals per step, in `[0, 1]`.
        trough: f64,
        /// Peak arrivals per step, in `(0, 1]`.
        peak: f64,
        /// Steps per full day cycle.
        period: usize,
        /// SplitMix64 seed.
        seed: u64,
    },
    /// A literal, pre-computed arrival trace: request `i` arrives at
    /// `steps[i]`. This is how a fleet router replays the slice of a
    /// global stream it assigned to one instance — the sub-schedule sees
    /// exactly the steps the fleet-level draw produced, with no
    /// re-rolling.
    Explicit {
        /// Arrival step of each request, non-decreasing.
        steps: Vec<usize>,
    },
}

impl ArrivalProcess {
    /// The closed-loop process: all requests at step 0.
    pub fn closed_loop() -> ArrivalProcess {
        ArrivalProcess::ClosedLoop
    }

    /// A discrete Poisson process at `rate` arrivals per step.
    ///
    /// # Errors
    ///
    /// [`ServingError::ArrivalRateOutOfRange`] unless `0 < rate <= 1`.
    pub fn try_poisson(rate: f64, seed: u64) -> Result<ArrivalProcess, ServingError> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(ServingError::ArrivalRateOutOfRange(rate));
        }
        Ok(ArrivalProcess::Poisson { rate, seed })
    }

    /// A bursty process: `burst` requests every `period` steps plus a
    /// Bernoulli(`rate`) background trickle.
    ///
    /// # Errors
    ///
    /// [`ServingError::BackgroundRateOutOfRange`] unless `0 <= rate <=
    /// 1`, [`ServingError::ZeroArrivalPeriod`] on a zero period, and
    /// [`ServingError::ZeroBurst`] on an empty burst.
    pub fn try_bursty(
        rate: f64,
        period: usize,
        burst: usize,
        seed: u64,
    ) -> Result<ArrivalProcess, ServingError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(ServingError::BackgroundRateOutOfRange(rate));
        }
        if period == 0 {
            return Err(ServingError::ZeroArrivalPeriod);
        }
        if burst == 0 {
            return Err(ServingError::ZeroBurst);
        }
        Ok(ArrivalProcess::Bursty {
            rate,
            period,
            burst,
            seed,
        })
    }

    /// A diurnal process: the rate sweeps a triangle wave from `trough`
    /// up to `peak` and back over `period` steps.
    ///
    /// # Errors
    ///
    /// [`ServingError::ArrivalRateOutOfRange`] unless `0 < peak <= 1`,
    /// [`ServingError::BackgroundRateOutOfRange`] unless `0 <= trough
    /// <= 1`, [`ServingError::DiurnalRangeInverted`] if `trough >
    /// peak`, and [`ServingError::ZeroArrivalPeriod`] on a zero period.
    pub fn try_diurnal(
        trough: f64,
        peak: f64,
        period: usize,
        seed: u64,
    ) -> Result<ArrivalProcess, ServingError> {
        if !(peak > 0.0 && peak <= 1.0) {
            return Err(ServingError::ArrivalRateOutOfRange(peak));
        }
        if !(0.0..=1.0).contains(&trough) {
            return Err(ServingError::BackgroundRateOutOfRange(trough));
        }
        if trough > peak {
            return Err(ServingError::DiurnalRangeInverted { trough, peak });
        }
        if period == 0 {
            return Err(ServingError::ZeroArrivalPeriod);
        }
        Ok(ArrivalProcess::Diurnal {
            trough,
            peak,
            period,
            seed,
        })
    }

    /// A literal arrival trace: request `i` arrives at `steps[i]`.
    ///
    /// # Errors
    ///
    /// [`ServingError::UnsortedArrivals`] if the steps ever decrease —
    /// requests are indexed in arrival order, so the trace must be
    /// non-decreasing.
    pub fn try_explicit(steps: Vec<usize>) -> Result<ArrivalProcess, ServingError> {
        if let Some(index) = steps.windows(2).position(|w| w[0] > w[1]) {
            return Err(ServingError::UnsortedArrivals { index: index + 1 });
        }
        Ok(ArrivalProcess::Explicit { steps })
    }

    /// Panicking wrapper over [`ArrivalProcess::try_explicit`].
    ///
    /// # Panics
    ///
    /// Panics if the steps are not non-decreasing.
    pub fn explicit(steps: Vec<usize>) -> ArrivalProcess {
        ArrivalProcess::try_explicit(steps).expect("explicit arrival steps must be non-decreasing")
    }

    /// The Bernoulli rate at scheduler step `wall` (unused by
    /// [`ArrivalProcess::ClosedLoop`]).
    fn rate_at(&self, wall: usize) -> f64 {
        match *self {
            ArrivalProcess::ClosedLoop | ArrivalProcess::Explicit { .. } => 0.0,
            ArrivalProcess::Poisson { rate, .. } | ArrivalProcess::Bursty { rate, .. } => rate,
            ArrivalProcess::Diurnal {
                trough,
                peak,
                period,
                ..
            } => {
                // Triangle wave: 0 at phase 0, 1 at phase period/2,
                // back to 0 — integer phase arithmetic, then one
                // division, so the value is platform-exact.
                let phase = wall % period;
                let up = 2 * phase.min(period - phase);
                trough + (peak - trough) * (up as f64 / period as f64)
            }
        }
    }

    /// The deterministic arrival step of each of `count` requests, in
    /// arrival (= admission-queue) order, non-decreasing.
    pub fn arrival_steps(&self, count: usize) -> Vec<usize> {
        if matches!(self, ArrivalProcess::ClosedLoop) {
            return vec![0; count];
        }
        if let ArrivalProcess::Explicit { steps } = self {
            // A trace shorter than the mix extends at its final step —
            // the stream "ended" there; fleet routing always hands a
            // trace exactly as long as the sub-mix, so the pad is a
            // robustness fallback, not a code path studies exercise.
            let pad = steps.last().copied().unwrap_or(0);
            let mut out: Vec<usize> = steps.iter().copied().take(count).collect();
            out.resize(count, pad);
            return out;
        }
        let mut state = match *self {
            ArrivalProcess::ClosedLoop | ArrivalProcess::Explicit { .. } => 0,
            ArrivalProcess::Poisson { seed, .. }
            | ArrivalProcess::Bursty { seed, .. }
            | ArrivalProcess::Diurnal { seed, .. } => seed,
        };
        let mut arrivals = Vec::with_capacity(count);
        let mut wall = 0usize;
        while arrivals.len() < count {
            if let ArrivalProcess::Bursty { period, burst, .. } = *self {
                if wall.is_multiple_of(period) {
                    for _ in 0..burst.min(count - arrivals.len()) {
                        arrivals.push(wall);
                    }
                }
            }
            // Exactly one draw per step keeps the stream independent of
            // how many arrivals have been consumed so far.
            if unit(&mut state) < self.rate_at(wall) && arrivals.len() < count {
                arrivals.push(wall);
            }
            wall += 1;
        }
        arrivals
    }

    /// Mean offered arrivals per step, or `None` for the closed loop
    /// (whose offered load is "everything, immediately").
    pub fn mean_rate(&self) -> Option<f64> {
        match *self {
            ArrivalProcess::ClosedLoop => None,
            ArrivalProcess::Poisson { rate, .. } => Some(rate),
            ArrivalProcess::Bursty {
                rate,
                period,
                burst,
                ..
            } => Some(rate + burst as f64 / period as f64),
            ArrivalProcess::Diurnal { trough, peak, .. } => Some((trough + peak) / 2.0),
            ArrivalProcess::Explicit { ref steps } => {
                // Empirical rate of the trace itself: arrivals over the
                // steps they span (an all-at-zero trace is closed-loop
                // in spirit and reports no finite rate).
                let last = *steps.last()?;
                if last == 0 {
                    return None;
                }
                Some(steps.len() as f64 / (last + 1) as f64)
            }
        }
    }
}

/// The short form report rows use; each variant pins its
/// distinguishing parameters (seed included) so two different
/// processes never collide in a golden label.
impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalProcess::ClosedLoop => write!(f, "closed-loop"),
            ArrivalProcess::Poisson { rate, seed } => {
                write!(f, "poisson(r{rate},s{seed:x})")
            }
            ArrivalProcess::Bursty {
                rate,
                period,
                burst,
                seed,
            } => write!(f, "bursty(r{rate},{burst}per{period},s{seed:x})"),
            ArrivalProcess::Diurnal {
                trough,
                peak,
                period,
                seed,
            } => write!(f, "diurnal({trough}-{peak}per{period},s{seed:x})"),
            ArrivalProcess::Explicit { ref steps } => {
                // Pin the whole trace via a content hash so two
                // different explicit streams never share a golden label.
                let words: Vec<u64> = steps.iter().map(|&s| s as u64).collect();
                let digest = crate::fnv1a(b"arrival/explicit", &words);
                write!(
                    f,
                    "explicit({}req,h{:08x})",
                    steps.len(),
                    digest & 0xFFFF_FFFF
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_queues_everything_at_zero() {
        assert_eq!(ArrivalProcess::closed_loop().arrival_steps(4), vec![0; 4]);
        assert_eq!(ArrivalProcess::ClosedLoop.mean_rate(), None);
    }

    #[test]
    fn arrivals_are_deterministic_and_sorted() {
        for process in [
            ArrivalProcess::try_poisson(0.25, 7).unwrap(),
            ArrivalProcess::try_bursty(0.05, 32, 4, 7).unwrap(),
            ArrivalProcess::try_diurnal(0.05, 0.6, 48, 7).unwrap(),
        ] {
            let a = process.arrival_steps(64);
            let b = process.arrival_steps(64);
            assert_eq!(a, b, "{process}: same seed, same arrivals");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{process}: sorted");
            assert_eq!(a.len(), 64);
        }
        let a = ArrivalProcess::try_poisson(0.25, 7)
            .unwrap()
            .arrival_steps(64);
        let c = ArrivalProcess::try_poisson(0.25, 8)
            .unwrap()
            .arrival_steps(64);
        assert_ne!(a, c, "a different seed draws different arrivals");
    }

    #[test]
    fn poisson_inter_arrival_mean_is_near_the_rate_inverse() {
        let rate = 0.2;
        let arrivals = ArrivalProcess::try_poisson(rate, 0xA11C_E5ED)
            .unwrap()
            .arrival_steps(2000);
        // Geometric gaps starting from step 0: the mean arrival index
        // over n arrivals approaches n/(2 rate).
        let last = *arrivals.last().unwrap() as f64;
        let mean_gap = last / (arrivals.len() - 1) as f64;
        let expect = 1.0 / rate;
        assert!(
            (mean_gap - expect).abs() / expect < 0.1,
            "mean gap {mean_gap:.2} vs expected {expect:.2}"
        );
    }

    #[test]
    fn bursts_land_on_the_period() {
        let arrivals = ArrivalProcess::try_bursty(0.0, 16, 3, 1)
            .unwrap()
            .arrival_steps(9);
        assert_eq!(arrivals, vec![0, 0, 0, 16, 16, 16, 32, 32, 32]);
        // A truncated final burst still terminates.
        let arrivals = ArrivalProcess::try_bursty(0.0, 16, 4, 1)
            .unwrap()
            .arrival_steps(6);
        assert_eq!(arrivals, vec![0, 0, 0, 0, 16, 16]);
    }

    #[test]
    fn diurnal_rate_sweeps_the_triangle() {
        let p = ArrivalProcess::try_diurnal(0.1, 0.5, 48, 0).unwrap();
        assert!((p.rate_at(0) - 0.1).abs() < 1e-12);
        assert!((p.rate_at(24) - 0.5).abs() < 1e-12);
        assert!((p.rate_at(12) - 0.3).abs() < 1e-12);
        assert!((p.rate_at(48) - 0.1).abs() < 1e-12, "periodic");
    }

    #[test]
    fn mean_rates_summarize_the_offered_load() {
        assert_eq!(
            ArrivalProcess::try_poisson(0.25, 0).unwrap().mean_rate(),
            Some(0.25)
        );
        let bursty = ArrivalProcess::try_bursty(0.1, 10, 2, 0)
            .unwrap()
            .mean_rate()
            .unwrap();
        assert!((bursty - 0.3).abs() < 1e-12);
        let diurnal = ArrivalProcess::try_diurnal(0.2, 0.4, 10, 0)
            .unwrap()
            .mean_rate()
            .unwrap();
        assert!((diurnal - 0.3).abs() < 1e-12);
    }

    #[test]
    fn invalid_rates_are_typed_errors() {
        assert_eq!(
            ArrivalProcess::try_poisson(0.0, 0),
            Err(ServingError::ArrivalRateOutOfRange(0.0))
        );
        assert_eq!(
            ArrivalProcess::try_poisson(1.5, 0),
            Err(ServingError::ArrivalRateOutOfRange(1.5))
        );
        assert!(ArrivalProcess::try_poisson(f64::NAN, 0).is_err());
        assert_eq!(
            ArrivalProcess::try_bursty(-0.1, 4, 1, 0),
            Err(ServingError::BackgroundRateOutOfRange(-0.1))
        );
        assert_eq!(
            ArrivalProcess::try_bursty(0.1, 0, 1, 0),
            Err(ServingError::ZeroArrivalPeriod)
        );
        assert_eq!(
            ArrivalProcess::try_bursty(0.1, 4, 0, 0),
            Err(ServingError::ZeroBurst)
        );
        assert_eq!(
            ArrivalProcess::try_diurnal(0.8, 0.2, 4, 0),
            Err(ServingError::DiurnalRangeInverted {
                trough: 0.8,
                peak: 0.2
            })
        );
        assert_eq!(
            ArrivalProcess::try_diurnal(0.0, 0.0, 4, 0),
            Err(ServingError::ArrivalRateOutOfRange(0.0))
        );
    }

    #[test]
    fn explicit_replays_the_given_trace() {
        let p = ArrivalProcess::explicit(vec![0, 2, 2, 7]);
        assert_eq!(p.arrival_steps(4), vec![0, 2, 2, 7]);
        // Truncates or pads (at the last step) when counts differ.
        assert_eq!(p.arrival_steps(2), vec![0, 2]);
        assert_eq!(p.arrival_steps(6), vec![0, 2, 2, 7, 7, 7]);
        let rate = p.mean_rate().unwrap();
        assert!((rate - 0.5).abs() < 1e-12, "4 arrivals over 8 steps");
        assert_eq!(
            ArrivalProcess::explicit(vec![0, 0]).mean_rate(),
            None,
            "an all-at-zero trace is closed-loop in spirit"
        );
        assert_eq!(
            ArrivalProcess::try_explicit(vec![3, 1]),
            Err(ServingError::UnsortedArrivals { index: 1 })
        );
    }

    #[test]
    fn explicit_display_hashes_the_trace() {
        let a = ArrivalProcess::explicit(vec![0, 2, 5]).to_string();
        let b = ArrivalProcess::explicit(vec![0, 2, 6]).to_string();
        assert!(a.starts_with("explicit(3req,h"), "{a}");
        assert_ne!(a, b, "different traces, different labels");
        assert_eq!(a, ArrivalProcess::explicit(vec![0, 2, 5]).to_string());
    }

    #[test]
    fn display_names_pin_every_parameter() {
        assert_eq!(ArrivalProcess::closed_loop().to_string(), "closed-loop");
        assert_eq!(
            ArrivalProcess::try_poisson(0.25, 0xBEEF)
                .unwrap()
                .to_string(),
            "poisson(r0.25,sbeef)"
        );
        assert_eq!(
            ArrivalProcess::try_bursty(0.05, 32, 4, 1)
                .unwrap()
                .to_string(),
            "bursty(r0.05,4per32,s1)"
        );
        assert_eq!(
            ArrivalProcess::try_diurnal(0.1, 0.5, 48, 2)
                .unwrap()
                .to_string(),
            "diurnal(0.1-0.5per48,s2)"
        );
    }
}
