//! The measurement loop: set up, call, check, repeat until the run's
//! time is spent; then reduce the samples to the named metrics.

use crate::pins;
use crate::trace::{Tracer, NONE};
use crate::workloads::{Observed, Output, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest measured calls a run makes, whatever its time budget.
const MIN_CALLS: usize = 3;

/// Set-ups timed per measured call for `setup_s`.
const SETUPS_PER_CALL: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The simulated outputs of the warm-up call.
    pub observed: Observed,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it, with its
/// percentile rank; the maximum when there are no more than ten.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = if s.len() > 10 { s.len() - 10 } else { s.len() };
    (s[rank - 1], 100.0 * rank as f64 / s.len() as f64)
}

/// Peak resident set size of this process, in MiB (0 where unknown).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-traced-call sums over its spans.
#[derive(Debug, Default, Clone, Copy)]
struct CallSplit {
    lower_s: f64,
    lower_calls: f64,
    schedule_s: f64,
    dispatch_s: f64,
    hit_s: f64,
    hit_layers: f64,
    miss_s: f64,
    drop_s: f64,
    fold_s: f64,
    pool_s: f64,
    hits: f64,
    misses: f64,
}

fn split(tracer: &Tracer, own: &[f64], range: std::ops::Range<usize>) -> CallSplit {
    let mut c = CallSplit::default();
    for i in range {
        let span = &tracer.spans()[i];
        let t = own[i];
        match span.name {
            "workload.lower" => {
                c.lower_s += t;
                c.lower_calls += 1.0;
            }
            "workload.schedule" => c.schedule_s += t,
            "workload.dispatch" => c.dispatch_s += t,
            "core.eval_hit" => {
                c.hit_s += t;
                c.hit_layers += span.layers as f64;
            }
            "core.eval_miss" => c.miss_s += t,
            "core.eval_drop" => c.drop_s += t,
            "core.fleet_pool" => c.pool_s += t,
            _ if span.parent == NONE => c.fold_s += t,
            _ => {}
        }
        c.hits += span.hits as f64;
        c.misses += span.misses as f64;
    }
    c
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `workload` for `seconds` and reduces the samples. With `trace`,
/// untraced and traced calls alternate and the per-layer split is
/// reported (spans written to `spans_out` when given); otherwise the
/// end-to-end metrics are. `pins` are the expected simulated outputs,
/// when known for this seed and size.
pub fn run(
    workload: &Workload,
    seconds: f64,
    trace: bool,
    pins: Option<&Observed>,
    spans_out: Option<&Path>,
) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds.max(0.0));

    // Warm-up: pays lazy process set-up and fixes the reference outputs
    // every later call must reproduce bit for bit.
    let (setup, _) = workload.setup();
    let reference = match workload.call(&setup) {
        Ok(call) => call,
        Err(e) => {
            report.notes.push(format!("FAIL warm-up call: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    drop(setup);
    report.observed = reference.observed;
    let mut warmup_failures = reference.violations.clone();
    if let Some(pins) = pins {
        let mismatches = pins::check(&reference.observed, pins);
        if !mismatches.is_empty() {
            report.notes.push(format!(
                "observed outputs: {}",
                pins::source(&reference.observed)
            ));
        }
        warmup_failures.extend(mismatches);
    }
    report.attempted += 1;
    if !warmup_failures.is_empty() {
        report.failed += 1;
        for f in warmup_failures {
            report.notes.push(format!("FAIL warm-up: {f}"));
        }
    }

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut build_s = Vec::new();
    let mut ranges = Vec::new();
    let mut tracer = Tracer::new();
    let mut last_output: Option<Output> = None;
    let start = Instant::now();
    let mut calls = 0;
    while calls < MIN_CALLS || start.elapsed() < budget {
        calls += 1;
        // Set-up is sub-millisecond on the serving workloads: time
        // several per call, spread over the run like the calls are.
        for _ in 0..SETUPS_PER_CALL {
            let t = Instant::now();
            let setup = workload.setup();
            setups.push(t.elapsed().as_secs_f64());
            drop(setup);
        }
        let (setup, _) = workload.setup();
        report.attempted += 1;
        let mut failures = Vec::new();
        match workload.call(&setup) {
            Ok(call) => {
                walls.push(call.wall_s);
                failures.extend(call.violations.iter().cloned());
                for mismatch in pins::check(&call.observed, &reference.observed) {
                    failures.push(format!("differs from the warm-up call: {mismatch}"));
                }
                drop(setup);
                if trace {
                    let (fresh, built) = workload.setup();
                    build_s.push(built);
                    let mark = tracer.spans().len();
                    match workload.replay(&fresh, &call.output, &mut tracer) {
                        Ok((wall, mismatches)) => {
                            traced_walls.push(wall);
                            ranges.push(mark..tracer.spans().len());
                            failures.extend(mismatches);
                        }
                        Err(e) => failures.push(format!("traced replay: {e}")),
                    }
                }
                last_output = Some(call.output);
            }
            Err(e) => failures.push(e),
        }
        if !failures.is_empty() {
            report.failed += 1;
            for f in failures {
                report
                    .notes
                    .push(format!("FAIL call {}: {f}", report.attempted));
            }
        }
    }

    if !trace {
        // The replay invariant holds for untraced runs too: check it once,
        // outside the measured loop.
        if let Some(output) = &last_output {
            let (fresh, _) = workload.setup();
            let mismatches = match workload.replay(&fresh, output, &mut Tracer::new()) {
                Ok((_, m)) => m,
                Err(e) => vec![e],
            };
            if !mismatches.is_empty() {
                report.failed += 1;
                for f in mismatches {
                    report.notes.push(format!("FAIL replay check: {f}"));
                }
            }
        }
        let wall = median(&walls);
        let (tail_s, tail_pct) = tail(&walls);
        report.notes.push(format!(
            "wall: median {wall:.6} s, p{tail_pct:.1} {tail_s:.6} s (highest percentile with \
             ten calls above it), {} calls",
            walls.len()
        ));
        report.notes.push(format!("call walls (s): {walls:?}"));
        let observed = reference.observed;
        report.metrics = vec![
            Metric {
                name: "wall_s",
                value: wall,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "steps_per_s",
                value: ratio(observed.steps as f64, wall),
                unit: "1/s",
            },
            Metric {
                name: "evals_per_s",
                value: ratio(observed.evals as f64, wall),
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
        ];
        return report;
    }

    let own = tracer.self_times();
    let calls: Vec<CallSplit> = ranges
        .iter()
        .map(|r| split(&tracer, &own, r.clone()))
        .collect();
    let med = |f: &dyn Fn(&CallSplit) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    let distinct = {
        let (setup, _) = workload.setup();
        workload.distinct_step_frac(&setup)
    };
    report.notes.push(format!(
        "per-layer values are medians over {} traced calls ({} spans)",
        calls.len(),
        tracer.spans().len()
    ));
    if let Some(path) = spans_out {
        match tracer.write_jsonl(path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("could not write spans: {e}")),
        }
    }
    report.metrics = vec![
        Metric {
            name: "workload.lower_s",
            value: med(&|c| c.lower_s),
            unit: "s",
        },
        Metric {
            name: "workload.lower_calls",
            value: med(&|c| c.lower_calls),
            unit: "count",
        },
        Metric {
            name: "workload.distinct_step_frac",
            value: distinct,
            unit: "ratio",
        },
        Metric {
            name: "workload.schedule_s",
            value: med(&|c| c.schedule_s),
            unit: "s",
        },
        Metric {
            name: "workload.dispatch_s",
            value: med(&|c| c.dispatch_s),
            unit: "s",
        },
        Metric {
            name: "core.eval_hit_s",
            value: med(&|c| c.hit_s),
            unit: "s",
        },
        Metric {
            name: "core.eval_hit_us_per_layer",
            value: med(&|c| 1e6 * ratio(c.hit_s, c.hit_layers)),
            unit: "us",
        },
        Metric {
            name: "core.eval_drop_s",
            value: med(&|c| c.drop_s),
            unit: "s",
        },
        Metric {
            name: "core.eval_miss_s",
            value: med(&|c| c.miss_s),
            unit: "s",
        },
        Metric {
            name: "mapper.searches",
            value: med(&|c| c.misses),
            unit: "count",
        },
        Metric {
            name: "mapper.ms_per_search",
            value: med(&|c| 1e3 * ratio(c.miss_s, c.misses)),
            unit: "ms",
        },
        Metric {
            name: "core.cache_hits",
            value: med(&|c| c.hits),
            unit: "count",
        },
        Metric {
            name: "core.cache_misses",
            value: med(&|c| c.misses),
            unit: "count",
        },
        Metric {
            name: "core.cache_hit_rate",
            value: med(&|c| ratio(c.hits, c.hits + c.misses)),
            unit: "ratio",
        },
        Metric {
            name: "core.fold_s",
            value: med(&|c| c.fold_s),
            unit: "s",
        },
        Metric {
            name: "core.fleet_pool_s",
            value: med(&|c| c.pool_s),
            unit: "s",
        },
        Metric {
            name: "core.sweep_threads",
            value: lumen_core::SweepRunner::new().threads() as f64,
            unit: "count",
        },
        Metric {
            name: "albireo.build_system_s",
            value: median(&build_s),
            unit: "s",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(median(&traced_walls), median(&walls)) - 1.0,
            unit: "ratio",
        },
    ];
    report
}
