//! End-to-end reproduction tests: every figure of the paper's evaluation
//! regenerates with the shape the paper reports.
//!
//! These are *shape assertions*, not exact-number assertions — our
//! substrate is a reimplemented analytical model, so absolute values may
//! drift, but who wins, by roughly what factor, and where crossovers fall
//! must match the paper (see "Reproduction policy" in README.md).

use lumen::albireo::{experiments, ScalingProfile, WeightReuse};

#[test]
fn fig2_validation_reproduces_sub_percent_error() {
    let result = experiments::fig2_energy_breakdown().expect("fig2 evaluates");
    // The paper reports 0.4% average overall energy error.
    assert!(
        result.average_error() < 0.015,
        "average error {:.2}% too large",
        100.0 * result.average_error()
    );
    // Scaling corners are ordered and roughly 3.5 / 1.5 / 0.55 pJ/MAC.
    let totals: Vec<f64> = result
        .rows
        .iter()
        .map(experiments::Fig2Row::modeled_total)
        .collect();
    assert!(
        totals[0] > 3.0 && totals[0] < 4.0,
        "conservative {totals:?}"
    );
    assert!(totals[1] > 1.2 && totals[1] < 1.8, "moderate {totals:?}");
    assert!(totals[2] > 0.4 && totals[2] < 0.8, "aggressive {totals:?}");
}

#[test]
fn fig2_every_component_within_ten_percent() {
    let result = experiments::fig2_energy_breakdown().expect("fig2 evaluates");
    for row in &result.rows {
        for (i, (m, r)) in row.modeled.iter().zip(row.reported.iter()).enumerate() {
            let err = (m - r).abs() / r;
            assert!(
                err < 0.10,
                "{} component {i} off by {:.1}%",
                row.scaling,
                100.0 * err
            );
        }
    }
}

#[test]
fn fig3_vgg_near_ideal_alexnet_degraded() {
    let result = experiments::fig3_throughput().expect("fig3 evaluates");
    let vgg = result.rows.iter().find(|r| r.network == "vgg16").unwrap();
    let alex = result.rows.iter().find(|r| r.network == "alexnet").unwrap();
    // VGG16 (all unit-stride 3x3 convs) stays near ideal.
    assert!(
        vgg.modeled / vgg.ideal >= 0.85,
        "vgg {:.2}",
        vgg.modeled / vgg.ideal
    );
    // AlexNet (stride-4 conv1 + three FC layers) degrades significantly.
    assert!(
        alex.modeled / alex.ideal <= 0.45,
        "alex {:.2}",
        alex.modeled / alex.ideal
    );
    // The reported numbers are near ideal for BOTH — the paper's point is
    // that a throughput-accurate model disagrees for AlexNet.
    assert!(alex.reported / alex.ideal >= 0.90);
    assert!(
        alex.reported / alex.modeled >= 2.0,
        "the model must show a large gap versus reported"
    );
}

#[test]
fn fig4_dram_dominates_aggressive_scaling_only() {
    let result = experiments::fig4_memory_exploration().expect("fig4 evaluates");
    let aggressive = result
        .row(ScalingProfile::Aggressive, false, false)
        .unwrap();
    let conservative = result
        .row(ScalingProfile::Conservative, false, false)
        .unwrap();
    // Paper: DRAM ~75% of the aggressively-scaled system, small for the
    // conservative one.
    assert!(
        aggressive.dram_share() >= 0.60,
        "aggressive {:.2}",
        aggressive.dram_share()
    );
    assert!(
        conservative.dram_share() <= 0.30,
        "conservative {:.2}",
        conservative.dram_share()
    );
    assert!(aggressive.dram_share() > 2.0 * conservative.dram_share());
}

#[test]
fn fig4_batching_plus_fusion_restore_aggressive_benefits() {
    let result = experiments::fig4_memory_exploration().expect("fig4 evaluates");
    // Paper: 67% reduction ("3x improvement"); we require >= 55%.
    let reduction = result
        .combined_reduction(ScalingProfile::Aggressive)
        .unwrap();
    assert!(reduction >= 0.55, "combined reduction {reduction:.2}");
    // Each lever alone helps at the aggressive corner.
    let base = result
        .row(ScalingProfile::Aggressive, false, false)
        .unwrap()
        .total_mj();
    let batched = result
        .row(ScalingProfile::Aggressive, true, false)
        .unwrap()
        .total_mj();
    let fused = result
        .row(ScalingProfile::Aggressive, false, true)
        .unwrap()
        .total_mj();
    assert!(batched < base, "batching helps");
    assert!(fused < base, "fusion helps");
    // And the conservative corner barely moves (its DRAM share is small).
    let cons_reduction = result
        .combined_reduction(ScalingProfile::Conservative)
        .unwrap();
    assert!(
        cons_reduction < reduction / 2.0,
        "conservative gains are modest"
    );
}

#[test]
fn fig4_batching_cuts_weight_traffic_specifically() {
    let result = experiments::fig4_memory_exploration().expect("fig4 evaluates");
    let base = result
        .row(ScalingProfile::Aggressive, false, false)
        .unwrap();
    let batched = result.row(ScalingProfile::Aggressive, true, false).unwrap();
    // DRAM segment shrinks by > 2x from batch 16 (weights dominate
    // ResNet18's DRAM traffic at batch 1).
    assert!(
        batched.segments_mj[5] < base.segments_mj[5] / 2.0,
        "batched DRAM {} vs base {}",
        batched.segments_mj[5],
        base.segments_mj[5]
    );
    // Accelerator-side segments are unchanged by batching.
    for i in 0..4 {
        let rel = (batched.segments_mj[i] - base.segments_mj[i]).abs() / base.segments_mj[i];
        assert!(rel < 0.05, "segment {i} should not move with batching");
    }
}

#[test]
fn fig5_more_reuse_cuts_converter_and_accelerator_energy() {
    let result = experiments::fig5_reuse_exploration().expect("fig5 evaluates");
    assert_eq!(result.rows.len(), 18, "2 weight variants x 3 OR x 3 IR");
    // Paper: 42% converter / 31% accelerator reduction; we require the
    // same direction with at least 35% / 25%.
    assert!(result.converter_reduction().unwrap() >= 0.35);
    assert!(result.accelerator_reduction().unwrap() >= 0.25);
}

#[test]
fn fig5_reuse_knobs_act_on_their_own_conversion_class() {
    let result = experiments::fig5_reuse_exploration().expect("fig5 evaluates");
    let find = |wr: WeightReuse, or: usize, ir: usize| {
        result
            .rows
            .iter()
            .find(|r| r.weight_reuse == wr && r.output_reuse == or && r.input_reuse == ir)
            .expect("config present")
    };
    // IR cuts input conversions.
    let base = find(WeightReuse::Original, 3, 9);
    let more_ir = find(WeightReuse::Original, 3, 45);
    assert!(more_ir.segments_pj_per_mac[2] < base.segments_pj_per_mac[2]);
    // OR cuts output conversions.
    let more_or = find(WeightReuse::Original, 15, 9);
    assert!(more_or.segments_pj_per_mac[3] < base.segments_pj_per_mac[3]);
    // WR cuts weight conversions.
    let more_wr = find(WeightReuse::More, 3, 9);
    assert!(more_wr.segments_pj_per_mac[1] < base.segments_pj_per_mac[1]);
}
