//! Serving-schedule rules (`L04xx`): request-mix and scheduler knobs
//! checked before a continuous-batching study runs.

use crate::registry::Lint;
use crate::{Diagnostic, LintTarget, Severity};
use lumen_workload::ArrivalProcess;

/// `L0401`: a schedule with zero decode slots.
///
/// `ServingScenarioBuilder::build` rejects it with a typed error; the
/// lint reports the mix by name instead.
pub struct ZeroCapacity;

impl Lint for ZeroCapacity {
    fn code(&self) -> &'static str {
        "L0401"
    }

    fn summary(&self) -> &'static str {
        "schedules need at least one decode slot"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(serving) = target.serving else {
            return;
        };
        if serving.capacity == 0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                format!("serving/{}", serving.mix.name()),
                "batch capacity is 0; no request can ever be admitted".to_string(),
                "give the scheduler at least one decode slot",
            ));
        }
    }
}

/// `L0402`: the KV rounding bucket does not fit the mix.
///
/// A zero bucket makes attend-length rounding undefined, and a bucket
/// larger than the mix's longest sequence rounds *every* step up to a
/// length no request reaches — all schedules degenerate to one padded
/// bucket and the bucketing measures nothing but padding.
pub struct KvBucketMismatch;

impl Lint for KvBucketMismatch {
    fn code(&self) -> &'static str {
        "L0402"
    }

    fn summary(&self) -> &'static str {
        "the KV bucket must be positive and no larger than the mix's longest sequence"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(serving) = target.serving else {
            return;
        };
        let path = format!("serving/{}", serving.mix.name());
        if serving.kv_bucket == 0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                path,
                "KV bucket is 0; attend-length rounding is undefined".to_string(),
                "use a positive bucket (a power of two near the typical context works well)",
            ));
            return;
        }
        let longest = serving
            .mix
            .requests()
            .iter()
            .map(|r| r.prompt + r.output)
            .max()
            .unwrap_or(0);
        if serving.kv_bucket > longest {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                path,
                format!(
                    "KV bucket {} exceeds the mix's longest sequence ({longest} tokens); \
                     every step pads to a length no request reaches",
                    serving.kv_bucket
                ),
                "shrink the bucket to at most the longest prompt+output in the mix",
            ));
        }
    }
}

/// `L0403`: the arrival process offers more decode work than the
/// scheduler can serve.
///
/// Each admitted request occupies a slot for (at least) its output
/// tokens, so the offered decode load is `mean arrival rate × mean
/// output length` slot-steps per step. When that exceeds the batch
/// capacity the queue grows without bound and tail latencies diverge —
/// the study still runs (every request eventually drains because the
/// mix is finite), but its percentiles measure the backlog, not the
/// steady state.
pub struct OfferedLoadExceedsCapacity;

impl Lint for OfferedLoadExceedsCapacity {
    fn code(&self) -> &'static str {
        "L0403"
    }

    fn summary(&self) -> &'static str {
        "the offered decode load should not exceed the batch capacity"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(serving) = target.serving else {
            return;
        };
        let Some(rate) = serving.arrival.and_then(ArrivalProcess::mean_rate) else {
            return;
        };
        if serving.mix.is_empty() || serving.capacity == 0 {
            return;
        }
        let mean_output = serving.mix.total_output_tokens() as f64 / serving.mix.len() as f64;
        let offered = rate * mean_output;
        if offered > serving.capacity as f64 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", serving.mix.name()),
                format!(
                    "offered load {offered:.2} slot-steps/step exceeds capacity {}; \
                     the queue grows without bound and tail latency measures backlog",
                    serving.capacity
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
/// bucketed attend length is then a whole number of pages). A zero
/// page is an outright error — `PageTable::try_new` rejects it.
pub struct PageTileMismatch;

impl Lint for PageTileMismatch {
    fn code(&self) -> &'static str {
        "L0406"
    }

    fn summary(&self) -> &'static str {
        "the KV page must be positive and divide the KV bucket"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(serving) = target.serving else {
            return;
        };
        let Some(page) = serving.kv_page else {
            return;
        };
        let path = format!("serving/{}", serving.mix.name());
        if page == 0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                path,
                "KV page is 0; a page must cover at least one token".to_string(),
                "use a positive page (a small power of two, e.g. 16)",
            ));
            return;
        }
        if serving.kv_bucket > 0 && !serving.kv_bucket.is_multiple_of(page) {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                path,
                format!(
                    "KV page {page} does not divide the hardware bucket {}; bucketed \
                     accounting is no longer an upper bound on paged residency",
                    serving.kv_bucket
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
        let Some(serving) = target.serving else {
            return;
        };
        let Some(page) = serving.kv_page else {
            return;
        };
        if page == 0 || serving.mix.is_empty() {
            return;
        }
        let total: u64 = serving
            .mix
            .requests()
            .iter()
            .map(|r| (r.prompt + r.output) as u64)
            .sum();
        let mean_seq = total as f64 / serving.mix.len() as f64;
        // Worst-case per-request waste approaches one page; flag pages
        // above a quarter of the mean sequence, where that waste is a
        // double-digit share of the average request's whole residency.
        if page as f64 > mean_seq / 4.0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("serving/{}", serving.mix.name()),
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

/// `L0404`: a request does not fit the model's context window.
///
/// A request whose prompt plus output exceeds the declared context
/// window would attend beyond positions the model was trained for; the
/// schedule happily charges the work, so the study silently models an
/// impossible deployment.
pub struct PromptExceedsContext;

impl Lint for PromptExceedsContext {
    fn code(&self) -> &'static str {
        "L0404"
    }

    fn summary(&self) -> &'static str {
        "every request must fit the model's context window"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(serving) = target.serving else {
            return;
        };
        let Some(max_context) = serving.max_context else {
            return;
        };
        let worst = serving
            .mix
            .requests()
            .iter()
            .map(|r| r.prompt + r.output)
            .max()
            .unwrap_or(0);
        if worst > max_context {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                format!("serving/{}", serving.mix.name()),
                format!(
                    "a request reaches {worst} tokens but the model's context window \
                     is {max_context}"
                ),
                "trim the mix's prompts/outputs or serve a longer-context model",
            ));
        }
    }
}

/// `L0408`: a router with no instances to route to.
///
/// `Fleet::try_uniform` rejects a zero-instance fleet with a typed
/// error; the lint reports the same contradiction at pre-flight, with
/// the router and stream named, so a capacity sweep that computed its
/// instance count (e.g. from a budget) fails loudly before dispatch.
pub struct RouterTargetsNoInstances;

impl Lint for RouterTargetsNoInstances {
    fn code(&self) -> &'static str {
        "L0408"
    }

    fn summary(&self) -> &'static str {
        "a fleet router needs at least one instance"
    }

    fn check(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(fleet) = target.fleet else {
            return;
        };
        if fleet.instances == 0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                format!("fleet/{}/{}", fleet.router, fleet.stream.mix.name()),
                format!(
                    "router {} targets zero instances; every request routes nowhere",
                    fleet.router
                ),
                "provision at least one instance before routing a stream",
            ));
        }
    }
}

/// `L0409`: the stream offers more decode work than the whole fleet can
/// serve.
///
/// The fleet analogue of `L0403`: the offered decode load is `mean
/// arrival rate × mean output length` slot-steps per step, and the
/// serving capacity is now the *sum* of every instance's decode slots.
/// When the offered load exceeds that aggregate no router can help —
/// queues grow on every instance and fleet percentiles measure backlog.
/// Adding instances is the fix the capacity planner automates.
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
        let stream = &fleet.stream;
        let Some(rate) = stream.arrival.and_then(ArrivalProcess::mean_rate) else {
            return;
        };
        if stream.mix.is_empty() || fleet.aggregate_capacity == 0 {
            return;
        }
        let mean_output = stream.mix.total_output_tokens() as f64 / stream.mix.len() as f64;
        let offered = rate * mean_output;
        if offered > fleet.aggregate_capacity as f64 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Warn,
                format!("fleet/{}/{}", fleet.router, fleet.stream.mix.name()),
                format!(
                    "offered load {offered:.2} slot-steps/step exceeds the fleet's \
                     aggregate capacity {} across {} instance(s); queues grow on every \
                     instance regardless of routing",
                    fleet.aggregate_capacity, fleet.instances
                ),
                "add instances, lower the arrival rate, or shorten outputs",
            ));
        }
    }
}
