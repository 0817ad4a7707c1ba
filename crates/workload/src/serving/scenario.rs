//! The unified serving-scenario description: one validated object that
//! every serving entry point consumes.
//!
//! PRs 5–9 accreted the single-instance serving path one flag at a
//! time: arrival process here, admission policy there, paged KV and
//! shared prefixes behind their own switches — with the mutual-exclusion
//! rules re-derived by hand wherever flags met (`--shared-prefix` only
//! makes sense paged; a shared prefix must fit every prompt; a prefill
//! chunk of zero makes no progress). [`ServingScenario`] centralizes
//! those rules: a builder collects the full description — mix, capacity,
//! KV layout, arrival, admission policy, shared prefix, context window —
//! and [`ServingScenarioBuilder::build`] validates the *combination*,
//! rejecting contradictions with typed [`ServingError`]s. A built
//! scenario is internally consistent by construction, so deriving the
//! schedule ([`ServingScenario::schedule`]) cannot fail, and downstream
//! consumers (experiment drivers, the CLI, lints, the fleet router)
//! share one construction path instead of re-validating flags.

use super::error::ServingError;
use super::event::{PrefillMode, ServingSchedule};
use super::paging::{KvLayout, PageTable};
use super::{AdmissionPolicy, ArrivalProcess, RequestMix};

/// A complete, validated serving scenario: the request mix, the
/// scheduler knobs (slots, arrivals, admission policy, prefill mode,
/// context window) and the KV residency layout, checked as a whole at
/// [`ServingScenarioBuilder::build`].
///
/// # Examples
///
/// ```
/// use lumen_workload::serving::{ArrivalProcess, RequestMix, ServingScenario};
///
/// let scenario = ServingScenario::builder(RequestMix::uniform(8, 128, 32).unwrap(), 4)
///     .arrival(ArrivalProcess::try_poisson(0.25, 7).unwrap())
///     .prefill_chunk(256)
///     .build()
///     .unwrap();
/// let schedule = scenario.schedule();
/// assert_eq!(schedule.capacity(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServingScenario {
    mix: RequestMix,
    capacity: usize,
    kv_bucket: usize,
    layout: KvLayout,
    arrival: ArrivalProcess,
    policy: AdmissionPolicy,
    prefill: PrefillMode,
    max_context: Option<usize>,
}

impl ServingScenario {
    /// Starts a scenario description from the two parameters every
    /// schedule needs: the request mix and the decode-slot capacity.
    pub fn builder(mix: RequestMix, capacity: usize) -> ServingScenarioBuilder {
        ServingScenarioBuilder {
            mix,
            capacity,
            kv_bucket: ServingScenarioBuilder::DEFAULT_KV_BUCKET,
            kv_page: None,
            shared_prefix: 0,
            arrival: ArrivalProcess::ClosedLoop,
            policy: AdmissionPolicy::Fifo,
            prefill: PrefillMode::OnAdmission { chunk: None },
            max_context: None,
        }
    }

    /// The request mix, with any shared prefix already applied (the
    /// `+shared{L}` name suffix included).
    pub fn mix(&self) -> &RequestMix {
        &self.mix
    }

    /// Decode-slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The KV residency layout: paged when a page size was given,
    /// bucketed otherwise.
    pub fn layout(&self) -> &KvLayout {
        &self.layout
    }

    /// The bucket quantum, in tokens (used directly when bucketed; still
    /// reported when paged, as the tile the page must divide).
    pub fn kv_bucket(&self) -> usize {
        self.kv_bucket
    }

    /// The KV page size, when paged.
    pub fn kv_page(&self) -> Option<usize> {
        self.layout.page_table().map(PageTable::page)
    }

    /// The shared prompt-prefix length, in tokens (0 = no sharing).
    pub fn shared_prefix(&self) -> usize {
        self.mix.shared_prefix()
    }

    /// The arrival process.
    pub fn arrival(&self) -> &ArrivalProcess {
        &self.arrival
    }

    /// The admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The prefill mode.
    pub fn prefill(&self) -> PrefillMode {
        self.prefill
    }

    /// The context window, when capped: a request whose cache would
    /// outgrow it mid-decode retires early at the boundary (recorded in
    /// [`ServingSchedule::truncated`]).
    pub fn max_context(&self) -> Option<usize> {
        self.max_context
    }

    /// Runs the event core over the scenario. Infallible: every
    /// schedule-construction error was already rejected at
    /// [`ServingScenarioBuilder::build`].
    pub fn schedule(&self) -> ServingSchedule {
        ServingSchedule::run(self)
    }

    /// The scenario re-targeted at `mix` and `arrival` — how a fleet
    /// router stamps an instance template onto the sub-stream it routed
    /// there. All other knobs (capacity, KV layout, policy, prefill,
    /// context) carry over; the combination is re-validated because the
    /// new mix's prompts must still fit the template's shared prefix and
    /// context window.
    ///
    /// # Errors
    ///
    /// The same [`ServingError`]s as [`ServingScenarioBuilder::build`].
    pub fn with_stream(
        &self,
        mix: RequestMix,
        arrival: ArrivalProcess,
    ) -> Result<ServingScenario, ServingError> {
        let mut builder = ServingScenario::builder(mix, self.capacity())
            .kv_bucket(self.kv_bucket)
            .shared_prefix(self.shared_prefix())
            .arrival(arrival)
            .policy(self.policy())
            .prefill(self.prefill());
        if let Some(page) = self.kv_page() {
            builder = builder.kv_page(page);
        }
        if let Some(max) = self.max_context() {
            builder = builder.max_context(max);
        }
        builder.build()
    }
}

/// Collects a [`ServingScenario`] description; [`build`] validates the
/// combination.
///
/// [`build`]: ServingScenarioBuilder::build
#[derive(Debug, Clone)]
pub struct ServingScenarioBuilder {
    mix: RequestMix,
    capacity: usize,
    kv_bucket: usize,
    kv_page: Option<usize>,
    shared_prefix: usize,
    arrival: ArrivalProcess,
    policy: AdmissionPolicy,
    prefill: PrefillMode,
    max_context: Option<usize>,
}

impl ServingScenarioBuilder {
    /// The default bucket quantum: the coarse hardware tile the paper's
    /// serving studies round attend lengths to.
    pub const DEFAULT_KV_BUCKET: usize = 256;

    /// Sets the bucket quantum (tokens) attend lengths round to under
    /// bucketed residency.
    #[must_use]
    pub fn kv_bucket(mut self, bucket: usize) -> ServingScenarioBuilder {
        self.kv_bucket = bucket;
        self
    }

    /// Selects paged KV residency with `page`-token pages.
    #[must_use]
    pub fn kv_page(mut self, page: usize) -> ServingScenarioBuilder {
        self.kv_page = Some(page);
        self
    }

    /// Declares a shared prompt prefix of `shared` tokens. Requires a
    /// paged layout — bucketed residency has no pages to deduplicate.
    #[must_use]
    pub fn shared_prefix(mut self, shared: usize) -> ServingScenarioBuilder {
        self.shared_prefix = shared;
        self
    }

    /// Sets the arrival process (default: closed loop).
    #[must_use]
    pub fn arrival(mut self, arrival: ArrivalProcess) -> ServingScenarioBuilder {
        self.arrival = arrival;
        self
    }

    /// Sets the admission policy (default: FIFO).
    #[must_use]
    pub fn policy(mut self, policy: AdmissionPolicy) -> ServingScenarioBuilder {
        self.policy = policy;
        self
    }

    /// Sets the prefill mode (default: on-admission, whole prompt).
    #[must_use]
    pub fn prefill(mut self, prefill: PrefillMode) -> ServingScenarioBuilder {
        self.prefill = prefill;
        self
    }

    /// Shorthand for chunked on-admission prefill.
    #[must_use]
    pub fn prefill_chunk(mut self, chunk: usize) -> ServingScenarioBuilder {
        self.prefill = PrefillMode::OnAdmission { chunk: Some(chunk) };
        self
    }

    /// Caps the per-request context window: a prompt that fills it is
    /// rejected at [`build`](ServingScenarioBuilder::build), and a
    /// request whose cache would outgrow it mid-decode retires early.
    #[must_use]
    pub fn max_context(mut self, max_context: usize) -> ServingScenarioBuilder {
        self.max_context = Some(max_context);
        self
    }

    /// Validates the combination and produces the scenario.
    ///
    /// # Errors
    ///
    /// * [`ServingError::ZeroCapacity`] — no decode slots.
    /// * [`ServingError::ZeroKvBucket`] — a zero rounding quantum.
    /// * [`ServingError::ZeroKvPage`] — a zero page size.
    /// * [`ServingError::ZeroPrefillChunk`] — a zero prefill chunk.
    /// * [`ServingError::SharedPrefixRequiresPagedKv`] — a shared prefix
    ///   without a paged layout.
    /// * [`ServingError::SharedPrefixExceedsPrompt`] — a prefix longer
    ///   than the shortest prompt.
    /// * [`ServingError::ContextOverflow`] — a prompt that fills the
    ///   context window before generating anything.
    pub fn build(self) -> Result<ServingScenario, ServingError> {
        if self.capacity == 0 {
            return Err(ServingError::ZeroCapacity);
        }
        if self.kv_bucket == 0 {
            return Err(ServingError::ZeroKvBucket);
        }
        if self.kv_page == Some(0) {
            return Err(ServingError::ZeroKvPage);
        }
        if let PrefillMode::OnAdmission { chunk: Some(0) } = self.prefill {
            return Err(ServingError::ZeroPrefillChunk);
        }
        if self.shared_prefix > 0 && self.kv_page.is_none() {
            return Err(ServingError::SharedPrefixRequiresPagedKv);
        }
        let mix = self.mix.try_with_shared_prefix(self.shared_prefix)?;
        if let Some(max_context) = self.max_context {
            for (request, r) in mix.requests().iter().enumerate() {
                let needed = r.prompt + 1;
                if needed > max_context {
                    return Err(ServingError::ContextOverflow {
                        request,
                        needed,
                        max_context,
                    });
                }
            }
        }
        let layout = match self.kv_page {
            Some(page) => {
                KvLayout::Paged(PageTable::try_new(page)?.with_shared_prefix(self.shared_prefix))
            }
            None => KvLayout::Bucketed {
                bucket: self.kv_bucket,
            },
        };
        Ok(ServingScenario {
            mix,
            capacity: self.capacity,
            kv_bucket: self.kv_bucket,
            layout,
            arrival: self.arrival,
            policy: self.policy,
            prefill: self.prefill,
            max_context: self.max_context,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> RequestMix {
        RequestMix::uniform(6, 128, 16).unwrap()
    }

    #[test]
    fn defaults_reproduce_the_closed_loop_bucketed_path() {
        let s = ServingScenario::builder(mix(), 3).build().unwrap();
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.arrival(), &ArrivalProcess::ClosedLoop);
        assert_eq!(s.policy(), AdmissionPolicy::Fifo);
        assert_eq!(s.prefill(), PrefillMode::OnAdmission { chunk: None });
        assert_eq!(s.max_context(), None);
        assert_eq!(s.kv_page(), None);
        assert_eq!(
            s.layout(),
            &KvLayout::Bucketed {
                bucket: ServingScenarioBuilder::DEFAULT_KV_BUCKET
            }
        );
        // The derived schedule charges every prompt once, whole, and
        // decodes every token.
        let schedule = s.schedule();
        assert_eq!(schedule.capacity(), 3);
        assert_eq!(schedule.total_prefill_tokens(), 6 * 128);
        assert_eq!(schedule.total_decode_tokens(), 6 * 16);
        assert!(schedule.truncated().is_empty());
    }

    #[test]
    fn invalid_combinations_are_typed() {
        assert_eq!(
            ServingScenario::builder(mix(), 0).build(),
            Err(ServingError::ZeroCapacity)
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2).kv_bucket(0).build(),
            Err(ServingError::ZeroKvBucket)
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2).kv_page(0).build(),
            Err(ServingError::ZeroKvPage)
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2).prefill_chunk(0).build(),
            Err(ServingError::ZeroPrefillChunk)
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2).shared_prefix(40).build(),
            Err(ServingError::SharedPrefixRequiresPagedKv)
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2)
                .kv_page(16)
                .shared_prefix(512)
                .build(),
            Err(ServingError::SharedPrefixExceedsPrompt {
                shared: 512,
                min_prompt: 128
            })
        );
        assert_eq!(
            ServingScenario::builder(mix(), 2).max_context(64).build(),
            Err(ServingError::ContextOverflow {
                request: 0,
                needed: 129,
                max_context: 64
            })
        );
    }

    #[test]
    fn shared_prefix_flows_into_mix_and_page_table() {
        let s = ServingScenario::builder(mix(), 2)
            .kv_page(16)
            .shared_prefix(40)
            .build()
            .unwrap();
        assert_eq!(s.shared_prefix(), 40);
        assert!(s.mix().name().ends_with("+shared40"), "{}", s.mix().name());
        let table = s.layout().page_table().unwrap();
        assert_eq!(table.shared_prefix(), 40);
        assert_eq!(table.page(), 16);
        assert_eq!(s.kv_page(), Some(16));
    }

    #[test]
    fn with_stream_retargets_mix_and_arrival_only() {
        let template = ServingScenario::builder(mix(), 2)
            .kv_page(16)
            .shared_prefix(40)
            .prefill_chunk(64)
            .policy(AdmissionPolicy::ShortestPrompt)
            .max_context(1024)
            .build()
            .unwrap();
        let routed = template
            .with_stream(
                RequestMix::uniform(3, 256, 8).unwrap(),
                ArrivalProcess::explicit(vec![0, 4, 9]),
            )
            .unwrap();
        assert_eq!(routed.capacity(), 2);
        assert_eq!(routed.policy(), AdmissionPolicy::ShortestPrompt);
        assert_eq!(routed.shared_prefix(), 40);
        assert_eq!(routed.max_context(), Some(1024));
        assert_eq!(routed.mix().len(), 3);
        assert_eq!(routed.arrival(), &ArrivalProcess::explicit(vec![0, 4, 9]),);
        // Re-validation catches streams the template cannot serve.
        assert_eq!(
            template.with_stream(
                RequestMix::uniform(2, 16, 4).unwrap(),
                ArrivalProcess::ClosedLoop
            ),
            Err(ServingError::SharedPrefixExceedsPrompt {
                shared: 40,
                min_prompt: 16
            })
        );
    }
}
