//! Serving-schedule rules (`L04xx`): judgment calls on a built
//! scenario or fleet, checked before a continuous-batching study runs.
//!
//! `ServingScenarioBuilder::build` and `Fleet::try_uniform` already
//! reject contradictions (zero capacity, bucket, page or instances), so
//! these rules only flag inputs that are valid but measure the wrong
//! thing.

use crate::registry::Lint;
use crate::{Diagnostic, LintTarget, Severity};
use lumen_workload::{RequestMix, ServingScenario};

/// The longest prompt + output in `mix`, in tokens.
fn longest_sequence(mix: &RequestMix) -> usize {
    mix.requests()
        .iter()
        .map(|r| r.prompt + r.output)
        .max()
        .unwrap_or(0)
}

/// The decode work `scenario`'s arrival process offers, in slot-steps
/// per step: `mean arrival rate × mean output length` (each admitted
/// request occupies a slot for at least its output tokens). `None` for
/// closed-loop arrivals, which offer no rate.
fn offered_load(scenario: &ServingScenario) -> Option<f64> {
    let rate = scenario.arrival().mean_rate()?;
    let mix = scenario.mix();
    Some(rate * (mix.total_output_tokens() as f64 / mix.len() as f64))
}

/// `L0402`: the KV rounding bucket is larger than the mix's longest
/// sequence.
///
/// Such a bucket rounds *every* step up to a length no request reaches
/// — all schedules degenerate to one padded bucket and the bucketing
/// measures nothing but padding.
pub struct KvBucketMismatch;

impl Lint for KvBucketMismatch {
    fn code(&self) -> &'static str {
        "L0402"
    }

    fn summary(&self) -> &'static str {
        "the KV bucket must be no larger than the mix's longest sequence"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some((scenario, _)) = target.serving else {
            return;
        };
        let longest = longest_sequence(scenario.mix());
        if scenario.kv_bucket() > longest {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", scenario.mix().name()),
                format!(
                    "KV bucket {} exceeds the mix's longest sequence ({longest} tokens); \
                     every step pads to a length no request reaches",
                    scenario.kv_bucket()
                ),
                "shrink the bucket to at most the longest prompt+output in the mix",
            ));
        }
    }
}

/// `L0403`: the arrival process offers more decode work than the
/// scheduler can serve.
///
/// When the offered decode load exceeds the batch capacity the queue
/// grows without bound and tail latencies diverge — the study still
/// runs (every request eventually drains because the mix is finite),
/// but its percentiles measure the backlog, not the steady state.
pub struct OfferedLoadExceedsCapacity;

impl Lint for OfferedLoadExceedsCapacity {
    fn code(&self) -> &'static str {
        "L0403"
    }

    fn summary(&self) -> &'static str {
        "the offered decode load should not exceed the batch capacity"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some((scenario, _)) = target.serving else {
            return;
        };
        let Some(offered) = offered_load(scenario) else {
            return;
        };
        if offered > scenario.capacity() as f64 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", scenario.mix().name()),
                format!(
                    "offered load {offered:.2} slot-steps/step exceeds capacity {}; \
                     the queue grows without bound and tail latency measures backlog",
                    scenario.capacity()
                ),
                "lower the arrival rate, shorten outputs, or add decode slots",
            ));
        }
    }
}

/// `L0406`: the KV page does not tile the hardware bucket.
///
/// Paged-vs-bucketed comparisons lean on the soundness bound *bucketed
/// ≥ paged*, which only holds when the page divides the bucket (every
/// bucketed attend length is then a whole number of pages).
pub struct PageTileMismatch;

impl Lint for PageTileMismatch {
    fn code(&self) -> &'static str {
        "L0406"
    }

    fn summary(&self) -> &'static str {
        "the KV page must divide the KV bucket"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some((scenario, _)) = target.serving else {
            return;
        };
        let Some(page) = scenario.kv_page() else {
            return;
        };
        if !scenario.kv_bucket().is_multiple_of(page) {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", scenario.mix().name()),
                format!(
                    "KV page {page} does not divide the hardware bucket {}; bucketed \
                     accounting is no longer an upper bound on paged residency",
                    scenario.kv_bucket()
                ),
                "pick a page that tiles the bucket (bucket % page == 0)",
            ));
        }
    }
}

/// `L0407`: the KV page is so coarse the study mostly measures
/// fragmentation.
///
/// Each active request wastes up to `page − 1` allocated-but-unused
/// tokens (its last, partially-filled page). When the page is a large
/// fraction of the mix's mean sequence length that waste dominates the
/// residency the paged study was meant to trim, and the configuration
/// behaves like the bucket padding it is supposed to replace.
pub struct FragmentationHeavyPage;

impl Lint for FragmentationHeavyPage {
    fn code(&self) -> &'static str {
        "L0407"
    }

    fn summary(&self) -> &'static str {
        "the KV page should be small relative to the mix's mean sequence"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some((scenario, _)) = target.serving else {
            return;
        };
        let Some(page) = scenario.kv_page() else {
            return;
        };
        let mix = scenario.mix();
        let total: u64 = mix
            .requests()
            .iter()
            .map(|r| (r.prompt + r.output) as u64)
            .sum();
        let mean_seq = total as f64 / mix.len() as f64;
        // Worst-case per-request waste approaches one page; flag pages
        // above a quarter of the mean sequence, where that waste is a
        // double-digit share of the average request's whole residency.
        if page as f64 > mean_seq / 4.0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", mix.name()),
                format!(
                    "KV page {page} exceeds a quarter of the mix's mean sequence \
                     ({mean_seq:.0} tokens); up to one page per request sits allocated \
                     but unused, so the study mostly measures fragmentation"
                ),
                "shrink the page (or grow the sequences) until page <= mean/4",
            ));
        }
    }
}

/// `L0404`: a request does not fit the context window.
///
/// The window is the scenario's cap, or else the serving model's. A
/// request whose prompt plus output exceeds it would attend beyond
/// positions the model was trained for; the schedule happily charges
/// the work, so the study silently models an impossible deployment.
pub struct PromptExceedsContext;

impl Lint for PromptExceedsContext {
    fn code(&self) -> &'static str {
        "L0404"
    }

    fn summary(&self) -> &'static str {
        "every request must fit the model's context window"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some((scenario, model)) = target.serving else {
            return;
        };
        let Some(max_context) = scenario.max_context().or(model.max_context()) else {
            return;
        };
        let worst = longest_sequence(scenario.mix());
        if worst > max_context {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                format!("serving/{}", scenario.mix().name()),
                format!(
                    "a request reaches {worst} tokens but the model's context window \
                     is {max_context}"
                ),
                "trim the mix's prompts/outputs or serve a longer-context model",
            ));
        }
    }
}

/// `L0409`: the stream offers more decode work than the whole fleet can
/// serve.
///
/// The fleet analogue of `L0403`: the serving capacity is now the *sum*
/// of every instance's decode slots. When the offered load exceeds that
/// aggregate no router can help — queues grow on every instance and
/// fleet percentiles measure backlog. Adding instances is the fix the
/// capacity planner automates.
pub struct FleetOverload;

impl Lint for FleetOverload {
    fn code(&self) -> &'static str {
        "L0409"
    }

    fn summary(&self) -> &'static str {
        "the offered load should not exceed the fleet's aggregate capacity"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(fleet) = target.fleet else {
            return;
        };
        let Some(offered) = offered_load(fleet.stream()) else {
            return;
        };
        if offered > fleet.aggregate_capacity() as f64 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("fleet/{}/{}", fleet.router(), fleet.stream().mix().name()),
                format!(
                    "offered load {offered:.2} slot-steps/step exceeds the fleet's \
                     aggregate capacity {} across {} instance(s); queues grow on every \
                     instance regardless of routing",
                    fleet.aggregate_capacity(),
                    fleet.instances()
                ),
                "add instances, lower the arrival rate, or shorten outputs",
            ));
        }
    }
}
