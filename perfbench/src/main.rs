//! Host-time benchmark of the Lumen model.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serving_poisson --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a commented header, one line per metric, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of untraced calls;
//! `--trace 1` alternates untraced and traced calls and reports the
//! per-layer split. See `perfbench/README.md` for what each workload
//! and metric means.

mod harness;
mod pins;
mod trace;
mod workloads;

use harness::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Size, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: lumen-perfbench --workload serving_poisson|fleet_paged|dse_search \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = pins::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a duration in seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the enclosing git checkout, read from `.git` directly.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

fn header(args: &Args) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads = lumen_core::SweepRunner::new().threads();
    let forced = std::env::var("LUMEN_SWEEP_THREADS").map_or("unset".to_string(), |v| v);
    vec![
        format!(
            "workload={} seed={} seconds={} trace={}",
            args.kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("nproc={nproc} sweep_threads={threads} LUMEN_SWEEP_THREADS={forced}"),
        format!(
            "commit={} profile={}",
            git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ),
        "timings are host time; simulated outputs are checked, not reported as metrics".into(),
        "model reference: the back-calibrated Fig. 2 energy breakdown only (0.49% residual, \
         not held-out data); the model is unvalidated beyond it"
            .into(),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in header(&args) {
        println!("# {line}");
    }
    let workload = Workload::new(args.kind, Size::FULL, args.seed);
    let pinned = (args.seed == pins::DEFAULT_SEED).then(|| pins::pinned(args.kind));
    let spans_out: Option<PathBuf> = args.trace.then(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                args.kind.name(),
                args.seed
            ))
    });
    let report = harness::run(
        &workload,
        args.seconds,
        args.trace,
        pinned.as_ref(),
        spans_out.as_deref(),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::run;

    const END_TO_END: [&str; 5] = [
        "wall_s",
        "setup_s",
        "steps_per_s",
        "evals_per_s",
        "peak_rss_mb",
    ];

    /// Every metric name `BENCHMARK.json` declares, by section.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed_for_every_workload() {
        assert_eq!(declared("end_to_end"), END_TO_END);
        for kind in Kind::ALL {
            let workload = Workload::new(kind, Size::TINY, 7);
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let report = run(&workload, 0.0, trace, None, None);
                assert!(report.correct(), "{}: {:?}", kind.name(), report.notes);
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, declared(section), "{} trace={trace}", kind.name());
                let line = json(&report);
                for name in &names {
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{line}"
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_positive() {
        for kind in Kind::ALL {
            let report = run(&Workload::new(kind, Size::TINY, 3), 0.0, false, None, None);
            for m in &report.metrics {
                assert!(m.value > 0.0, "{} {} = {}", kind.name(), m.name, m.value);
            }
        }
    }

    #[test]
    fn a_tampered_pin_counts_as_a_failure() {
        for kind in Kind::ALL {
            let workload = Workload::new(kind, Size::TINY, 11);
            let honest = run(&workload, 0.0, false, None, None);
            assert!(honest.correct(), "{:?}", honest.notes);
            let pins = honest.observed;
            let again = run(&workload, 0.0, false, Some(&pins), None);
            assert!(again.correct(), "{:?}", again.notes);

            let mut tampered = pins;
            tampered.energy_pj = f64::from_bits(tampered.energy_pj.to_bits() ^ 1);
            let report = run(&workload, 0.0, false, Some(&tampered), None);
            assert!(!report.correct());
            assert!(report.failed >= 1);
            assert!(json(&report).starts_with("{\"correct\": false,"));
        }
    }

    #[test]
    fn seeds_change_the_inputs_and_repeat_exactly() {
        let a = run(
            &Workload::new(Kind::ServingPoisson, Size::TINY, 1),
            0.0,
            false,
            None,
            None,
        );
        let b = run(
            &Workload::new(Kind::ServingPoisson, Size::TINY, 1),
            0.0,
            false,
            None,
            None,
        );
        let c = run(
            &Workload::new(Kind::ServingPoisson, Size::TINY, 2),
            0.0,
            false,
            None,
            None,
        );
        assert_eq!(a.observed, b.observed);
        assert_ne!(a.observed, c.observed);
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload dse_search --seed 9 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (args.kind, args.seed, args.seconds, args.trace),
            (Kind::DseSearch, 9, 2.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload dse_search --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload dse_search --seconds").is_err());
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(harness::tail(&v), (90.0, 90.0));
        assert_eq!(harness::tail(&[3.0, 1.0, 2.0]).0, 3.0);
        assert_eq!(harness::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
