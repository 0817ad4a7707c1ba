//! Simulated outputs pinned bit for bit at the default seed and full
//! size. Host timings are never pinned; these are the model's answers,
//! which a change that only speeds the program up must leave untouched.

use crate::workloads::{Kind, Observed};

/// The seed the pins below were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// The pinned outputs of one call of `kind` at [`DEFAULT_SEED`].
pub fn pinned(kind: Kind) -> Observed {
    let f = f64::from_bits;
    match kind {
        Kind::ServingPoisson => Observed {
            steps: 2004,
            evals: 2004,
            tokens: 14400,
            prefill_tokens: 105_600,
            energy_pj: f(0x42e6_bfcb_07aa_bc5d),
            cycles: f(0x421c_5fd9_e600_0000),
            ttft_p99_s: f(0x3fa1_f1eb_cc33_a32f),
            tbt_p99_s: f(0x3f88_56b2_754f_e6b2),
            searches: 96,
        },
        Kind::FleetPaged => Observed {
            steps: 1875,
            evals: 1875,
            tokens: 7680,
            prefill_tokens: 57240,
            energy_pj: f(0x42e1_323b_1e76_d12a),
            cycles: f(0x420e_b77b_9300_0000),
            ttft_p99_s: f(0x3fb0_2a19_a9d6_44f4),
            tbt_p99_s: f(0x3f80_b32f_3793_23bb),
            searches: 118,
        },
        Kind::DseSearch => Observed {
            steps: 16,
            evals: 112,
            tokens: 0,
            prefill_tokens: 0,
            energy_pj: f(0x42a5_0ec2_8fb1_f2cf),
            cycles: f(0x41c0_5013_f400_0000),
            ttft_p99_s: 0.0,
            tbt_p99_s: 0.0,
            searches: 1088,
        },
    }
}

/// Mismatches between `observed` and the `pins` (or any reference
/// outputs), one line per field.
pub fn check(observed: &Observed, pins: &Observed) -> Vec<String> {
    observed
        .fields()
        .iter()
        .zip(pins.fields())
        .filter(|(got, want)| got.1 != want.1)
        .map(|(got, want)| {
            format!(
                "output {} is {:#018x}, expected {:#018x}",
                got.0, got.1, want.1
            )
        })
        .collect()
}

/// Rust source for the pins of `kind`, printed when they disagree so a
/// deliberate model change can re-pin them.
pub fn source(observed: &Observed) -> String {
    let o = observed;
    format!(
        "Observed {{ steps: {}, evals: {}, tokens: {}, prefill_tokens: {}, \
         energy_pj: f({:#018x}), cycles: f({:#018x}), ttft_p99_s: f({:#018x}), \
         tbt_p99_s: f({:#018x}), searches: {} }}",
        o.steps,
        o.evals,
        o.tokens,
        o.prefill_tokens,
        o.energy_pj.to_bits(),
        o.cycles.to_bits(),
        o.ttft_p99_s.to_bits(),
        o.tbt_p99_s.to_bits(),
        o.searches
    )
}
