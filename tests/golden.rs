//! Golden-file regression suite: every paper figure (and the transformer
//! study) renders to a string and must match its checked-in snapshot
//! under `tests/golden/`.
//!
//! The reproduction tests in `paper_reproduction.rs` assert *shapes*
//! (who wins, by what factor); this suite locks the *exact* rendered
//! numbers, so any drift in the model — a changed device constant, a
//! mapper tweak, a refactor that silently moves a decimal — fails loudly
//! even when the shape assertions still pass.
//!
//! When a change is intentional, regenerate the snapshots and review the
//! diff like any other code change:
//!
//! ```sh
//! LUMEN_BLESS=1 cargo test --test golden
//! git diff tests/golden/
//! ```
//!
//! The rendered tables are pure functions of the model (fixed-seed,
//! platform-independent f64 arithmetic), so snapshots are stable across
//! machines and thread counts.

use lumen::albireo::{experiments, ScalingProfile};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Writes the *actual* rendering of a failed comparison to
/// `target/golden-actual/<name>.txt`, where CI uploads it (together with
/// the checked-in snapshots) as a debugging artifact — a golden
/// regression on a runner is then diffable from the Actions UI without a
/// local repro. Best-effort: failure to record the artifact never masks
/// the assertion itself.
fn record_actual(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-actual");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, actual) {
        eprintln!("warning: could not write {path:?}: {e}");
    }
}

/// Compares `actual` against the snapshot `tests/golden/<name>.txt`,
/// rewriting the snapshot instead when `LUMEN_BLESS=1` is set. On
/// mismatch the actual rendering is saved under `target/golden-actual/`
/// for the CI artifact upload before the assertion fires.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("LUMEN_BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        record_actual(name, actual);
        panic!(
            "missing snapshot {path:?} ({e}); generate it with \
             `LUMEN_BLESS=1 cargo test --test golden` \
             (actual output saved to target/golden-actual/{name}.txt)"
        )
    });
    if actual != expected {
        record_actual(name, actual);
    }
    assert_eq!(
        actual, expected,
        "rendered `{name}` drifted from its snapshot; if the change is \
         intentional, regenerate with `LUMEN_BLESS=1 cargo test --test \
         golden` and review the diff (actual output saved to \
         target/golden-actual/{name}.txt)"
    );
}

#[test]
fn fig2_energy_breakdown_matches_snapshot() {
    let result = experiments::fig2_energy_breakdown().expect("fig2 evaluates");
    assert_golden("fig2", &result.to_string());
}

#[test]
fn fig3_throughput_matches_snapshot() {
    let result = experiments::fig3_throughput().expect("fig3 evaluates");
    assert_golden("fig3", &result.to_string());
}

#[test]
fn fig4_memory_exploration_matches_snapshot() {
    let result = experiments::fig4_memory_exploration().expect("fig4 evaluates");
    assert_golden("fig4", &result.to_string());
}

#[test]
fn fig5_reuse_exploration_matches_snapshot() {
    let result = experiments::fig5_reuse_exploration().expect("fig5 evaluates");
    assert_golden("fig5", &result.to_string());
}

#[test]
fn transformer_study_matches_snapshot() {
    // Both corners: the conservative one pins the "digital wins" side of
    // the crossover, the aggressive one the "photonics win" side.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::transformer_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("transformer_study", &rendered);
}

#[test]
fn decode_study_matches_snapshot() {
    // Both corners, each table carrying both system families (the
    // Albireo custom dataflow and the digital baseline's): conservative
    // pins "photonics lose decode outright", aggressive pins the
    // prefill-to-decode collapse of the energy edge, and both pin the
    // widening utilization gap plus the sweep's exact cache accounting.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::decode_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("decode_study", &rendered);
}

#[test]
fn serving_study_matches_snapshot() {
    // Both corners: conservative pins "digital wins every mix", while
    // aggressive pins the thin photonic energy edge surviving continuous
    // batching. Both pin the occupancy lever (more slots -> larger decode
    // groups -> lower mJ/token), the ~30x utilization gap under grouped
    // seq-1 GEMVs, and the study's exact cache accounting.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::serving_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("serving_study", &rendered);
}

#[test]
fn serving_slo_study_matches_snapshot() {
    // Both corners of the open-loop study: every arrival process and
    // admission policy, TTFT/TBT percentiles at the system clock, the
    // admission-lever footer, the prefill-charged accounting and the
    // eval-cache hit rate — all seeded, so exact across machines.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::serving_slo_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("serving_slo_study", &rendered);
}

#[test]
fn paged_serving_study_matches_snapshot() {
    // Both corners of the paged-residency study: the exact bucketed vs
    // paged backing-store delta, the peak-waste collapse, the prefix-
    // sharing prefill/MAC/energy savings net of the copy-on-write tail,
    // and the eval-cache accounting — all deterministic, so the measured
    // deltas the README quotes are pinned here.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::paged_serving_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("paged_serving_study", &rendered);
}

#[test]
fn capacity_plan_matches_snapshot() {
    // Both corners of the fleet capacity plan: the default three-instance
    // round-robin fleet — per-instance request/step/occupancy rows, the
    // fleet-wide TTFT/TBT percentiles pooled at each instance's clock,
    // tokens/s over the fleet makespan, energy/token, occupancy skew and
    // the shared-session eval-cache accounting — all seeded, so exact.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::capacity_plan_study(
                scaling,
                experiments::FLEET_INSTANCES,
                lumen::workload::FleetRouter::RoundRobin,
                experiments::fleet_arrival().unwrap(),
            )
            .expect("study evaluates")
            .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("capacity_plan", &rendered);
}

#[test]
fn fleet_slo_search_matches_snapshot() {
    // Both corners of the SLO search: the per-fleet-size rows and the
    // verdict — the smallest fleet whose p99 TTFT meets the target at
    // each corner. The 20 ms target is chosen to be *met* within the
    // sweep bound at both corners, so the snapshot pins a real minimum
    // rather than an exhausted search.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::fleet_slo_search(
                scaling,
                20.0,
                lumen::workload::FleetRouter::JoinShortestQueue,
                experiments::fleet_arrival().unwrap(),
            )
            .expect("search evaluates")
            .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("fleet_slo_search", &rendered);
}

#[test]
fn baseline_matches_snapshot() {
    // Both corners of `lumen baseline`: every built-in network on the
    // photonic system and the peak-matched digital baseline, rendered
    // exactly as the CLI prints it.
    let mut rendered = String::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        rendered.push_str(
            &experiments::baseline_study(scaling)
                .expect("study evaluates")
                .to_string(),
        );
        rendered.push('\n');
    }
    assert_golden("baseline", &rendered);
}

#[test]
fn csv_rendering_matches_snapshot() {
    // The CSV path is the machine-readable export surface; lock one
    // figure's CSV too so escaping/format changes cannot slip through.
    let result = experiments::fig3_throughput().expect("fig3 evaluates");
    assert_golden("fig3_csv", &result.table().to_csv());
}
