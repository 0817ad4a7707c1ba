//! # lumen-albireo
//!
//! The paper's case study: an architecture-level model of the **Albireo**
//! photonic CNN accelerator (Shiflett et al., ISCA 2021) built on the
//! Lumen modeling stack, plus drivers that regenerate every figure of the
//! ISPASS 2024 evaluation.
//!
//! ## The modeled system
//!
//! Albireo moves data through three domains (Fig. 1 of the paper):
//! digital-electrical DRAM + global buffer, analog-electrical DACs and
//! accumulators, and an analog-optical multiply fabric (Mach-Zehnder input
//! modulators, star-coupler broadcast, microring weight banks,
//! photodiodes). [`AlbireoConfig`] generates the hierarchy with three
//! device-scaling corners ([`ScalingProfile`]) and the paper's Fig. 5
//! reuse knobs:
//!
//! * `weight_reuse` (**WR**) — optical multipliers sharing one converted
//!   weight (the `AE/AO Multiply*` block),
//! * `input_reuse` (**IR**) — multipliers sharing one modulated input
//!   (the `AO*` block),
//! * `output_reuse` (**OR**) — analog partial sums merged before one
//!   detector + ADC chain (the `AE*` block).
//!
//! ## Experiments
//!
//! | paper artifact | function |
//! |---|---|
//! | Fig. 2 energy-breakdown validation | [`experiments::fig2_energy_breakdown`] |
//! | Fig. 3 throughput (ideal/reported/modeled) | [`experiments::fig3_throughput`] |
//! | Fig. 4 full-system memory exploration | [`experiments::fig4_memory_exploration`] |
//! | Fig. 5 reuse-factor exploration | [`experiments::fig5_reuse_exploration`] |
//! | Transformer study (beyond the paper) | [`experiments::transformer_study`] |
//! | Decode study (beyond the paper) | [`experiments::decode_study`] |
//!
//! # Examples
//!
//! ```
//! use lumen_albireo::{AlbireoConfig, ScalingProfile};
//!
//! let system = AlbireoConfig::new(ScalingProfile::Conservative).build_system();
//! let layer = lumen_albireo::reference_layer();
//! let eval = system.evaluate_layer(&layer).unwrap();
//! // Best-case conservative Albireo lands near 3.5 pJ/MAC.
//! let pj = eval.energy_per_mac().picojoules();
//! assert!(pj > 2.0 && pj < 5.0, "got {pj}");
//! ```

mod baseline;
pub mod check;
mod config;
mod dataflow;
pub mod experiments;
pub mod flags;
mod harness;
pub mod reference;

pub use baseline::DigitalBaseline;
pub use config::{AlbireoConfig, WeightReuse};
pub use dataflow::albireo_mapping;
pub use lumen_components::ScalingProfile;

use lumen_workload::Layer;

/// The best-case steady-state layer used for per-MAC energy validation
/// (Fig. 2): a unit-stride 3×3 convolution whose dimensions exactly fill
/// the base Albireo's spatial fabric, so utilization is 1.0 and the
/// per-MAC figures are the architecture's intrinsic best case.
pub fn reference_layer() -> Layer {
    // M = clusters(8) x PCUs(9) = 72 lanes x 8 temporal = 576.
    // C = accumulation(3) x 32 temporal = 96.
    // Q = q-window(3) x 75 temporal = 225; R = S = 3 fill the kernel fanout.
    Layer::conv2d("best-case-conv", 1, 576, 96, 8, 225, 3, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_layer_fully_utilizes_base_albireo() {
        let system = AlbireoConfig::new(ScalingProfile::Conservative).build_system();
        let eval = system.evaluate_layer(&reference_layer()).unwrap();
        assert!(
            (eval.analysis.utilization - 1.0).abs() < 1e-9,
            "utilization {}",
            eval.analysis.utilization
        );
        assert!((eval.analysis.padding_factor - 1.0).abs() < 1e-9);
    }
}
