//! Serving study: continuous batching of mixed-length traffic.
//!
//! The decode study shows what one request costs per token; real serving
//! runs a *scheduler* — requests of mixed prompt/output lengths admitted
//! into a fixed number of decode slots, one token per active request per
//! step, slots refilled as requests retire. This example runs the full
//! study (mix shapes x occupancy regimes, photonic vs digital, both
//! scaling corners), then walks one schedule step by step to show the
//! occupancy dynamics and why the trace is affordable: steps dedupe by
//! bucketed active-set composition, so hundreds of steps cost a few
//! dozen mapping searches. Finally it runs one *open-loop* trace —
//! Poisson arrivals, prefill charged on admission — and prints the
//! TTFT/TBT percentiles the closed-loop study cannot see.
//!
//! Run with: `cargo run --release --example serving_study`

use lumen::albireo::{experiments, AlbireoConfig, ScalingProfile};
use lumen::core::{scenario_trace, EvalSession, NetworkOptions};
use lumen::workload::serving::{ArrivalProcess, PrefillMode, ServingScenario};
use lumen::workload::{RequestMix, ServingModel};

fn main() {
    // The headline study at both corners: the decode-regime utilization
    // gap persists under continuous batching, and occupancy is the lever
    // that decides how much of the uniform-batch energy photonics keep.
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        println!(
            "{}",
            experiments::serving_study(scaling).expect("study evaluates")
        );
    }

    // One schedule under the microscope: a bimodal mix through 4 slots,
    // closed loop with prompts resident. Short requests retire early,
    // long ones keep their slots, and the scheduler backfills from the
    // queue — watch occupancy and energy per token move step by step.
    let mix = RequestMix::bimodal(7, 10, (64, 12), (512, 40), 30).expect("the mix is valid");
    let scenario = |mix: RequestMix| {
        ServingScenario::builder(mix, 4).kv_bucket(experiments::SERVING_KV_BUCKET)
    };
    let closed = scenario(mix.clone())
        .prefill(PrefillMode::Resident)
        .build()
        .expect("the closed-loop scenario is valid");
    let session = EvalSession::new(AlbireoConfig::new(ScalingProfile::Aggressive).build_system());
    let model = ServingModel::gpt2_small();
    let result = scenario_trace(&session, &model, &closed, &NetworkOptions::baseline())
        .expect("schedule evaluates");

    println!(
        "== {} through 4 slots, albireo-aggressive: {} steps, {} tokens ==",
        mix.name(),
        result.points.len(),
        result.total_tokens()
    );
    for point in result.points.iter().step_by(8) {
        println!(
            "  step {:>3}: occupancy {}/4, {:.1} mJ, {:5.2} mJ/token",
            point.step,
            point.occupancy,
            point.energy.picojoules() / 1e9,
            point.energy.picojoules() / 1e9 / point.occupancy as f64,
        );
    }
    let stats = session.cache_stats();
    println!(
        "trace cost: {} mapping searches for {} layer evaluations \
         ({:.1}% served from cache — steps share bucketed compositions)",
        stats.misses,
        stats.hits + stats.misses,
        100.0 * stats.hit_rate(),
    );

    // The same mix open-loop: Poisson arrivals drip requests in instead
    // of queueing them all at step zero, and each admission pays for its
    // prompt through the dense prefill path before the first token.
    // With per-request arrival times the latency distribution exists:
    // time-to-first-token (arrival -> first decode step done) and
    // time-between-tokens (gaps between completions).
    let open_loop = scenario(mix.clone())
        .arrival(ArrivalProcess::try_poisson(0.1, 0xFEED_F00D).expect("the rate is valid"))
        .prefill_chunk(256)
        .build()
        .expect("the open-loop scenario is valid");
    let open = scenario_trace(&session, &model, &open_loop, &NetworkOptions::baseline())
        .expect("open-loop trace evaluates");

    let clock = session.system().arch().clock();
    let ttft = open.ttft_percentiles(clock);
    let tbt = open.tbt_percentiles(clock);
    println!(
        "== open-loop: {} with {} through 4 slots ==",
        mix.name(),
        open_loop.arrival()
    );
    println!(
        "  {} steps ({} prefill tokens charged on admission, {} decode tokens)",
        open.points.len(),
        open.total_prefill_tokens(),
        open.total_tokens()
    );
    println!(
        "  TTFT p50/p95/p99: {:.1}/{:.1}/{:.1} ms, TBT p50/p99: {:.2}/{:.2} ms",
        ttft.p50 * 1e3,
        ttft.p95 * 1e3,
        ttft.p99 * 1e3,
        tbt.p50 * 1e3,
        tbt.p99 * 1e3,
    );
}
