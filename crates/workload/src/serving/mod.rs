//! Continuous batching of mixed-length serving traffic.
//!
//! Real serving is not a uniform batch: a scheduler admits requests of
//! mixed prompt/output lengths into a fixed number of decode slots,
//! every active request generates one token per step, and finished
//! requests retire so waiting ones can take their slot. The per-step
//! *active set* is therefore heterogeneous — different requests sit at
//! different KV lengths — and its composition changes every step.
//!
//! The pieces that model that regime:
//!
//! * [`RequestMix`] — a deterministic population of requests (per-request
//!   prompt and output lengths), with seeded generators for the shapes
//!   serving traffic actually takes: [`RequestMix::uniform`],
//!   [`RequestMix::bimodal`] (chat + long-document), and
//!   [`RequestMix::long_tail`] (geometric output tail).
//! * [`ArrivalProcess`] — *when* requests show up, in scheduler steps:
//!   closed-loop (everything at step 0), discrete Poisson, bursty, or
//!   diurnal, all seeded and platform-exact.
//! * [`AdmissionPolicy`] — which queued request takes a freed slot:
//!   FIFO, shortest-prompt, or SLO-aware earliest-deadline-first.
//! * [`ServingScenario`] — the one validated description of a serving
//!   run (mix, slots, KV layout, arrivals, policy, prefill, context
//!   window), built by [`ServingScenarioBuilder`].
//! * [`ServingSchedule`] — the event-driven core (arrival ->
//!   admission/prefill -> token -> retire), derived from a scenario by
//!   [`ServingScenario::schedule`]. Under [`PrefillMode::OnAdmission`]
//!   an admitted prompt is lowered through the dense prefill path
//!   (optionally in chunks) *before* its first decode step, so prefill
//!   MACs, energy and cycles are charged exactly once per request.
//!   [`PrefillMode::Resident`] with closed-loop FIFO admission is the
//!   saturation regime: prompts materialize pre-cached, and each step
//!   records every active request's KV length *before* the step (the
//!   [`DecodePhase`] convention).
//! * [`ServingModel`] — lowers one scheduler step
//!   ([`ServingModel::lower_serving_step_with`]). Decoding requests are
//!   grouped by padded attend length (the [`DecodePhase::with_kv_bucket`]
//!   machinery), each group becoming one batched stack of decode
//!   blocks, and prefill chunks go through the dense attention path, so
//!   two steps whose active sets pad to the same composition produce
//!   networks with identical [`crate::LayerSignature`]s — a
//!   multi-thousand-step trace through an `EvalSession` costs mapping
//!   searches bounded by the number of distinct *(length, group-size)*
//!   pairs, not the step count. [`ServingModel::step_composition`]
//!   reduces a step to the hashable [`StepComposition`]: its
//!   [`StepSegment`]s (decode groups and prefill chunks), whose
//!   [`ServingModel::lower_segment`] lowerings concatenate to the step's.
//!   [`ServingModel::lower_segment_part`] is the one lowering behind
//!   both: it emits a segment's layers one [`SegmentPart`] (decoder
//!   block or tail) at a time into a [`crate::LayerSink`], unnamed, with
//!   the routine that names each, so a sink that keeps only new shapes
//!   formats only their names.
//!
//! # Examples
//!
//! ```
//! use lumen_workload::serving::{PrefillMode, RequestMix, ServingModel, ServingScenario};
//!
//! let scenario = ServingScenario::builder(RequestMix::uniform(4, 128, 8).unwrap(), 2)
//!     .kv_bucket(64)
//!     .prefill(PrefillMode::Resident)
//!     .build()
//!     .unwrap();
//! let schedule = scenario.schedule();
//! // 4 requests x 8 tokens over 2 slots: 16 steps, always full.
//! assert_eq!(schedule.total_steps(), 16);
//! assert_eq!(schedule.total_decode_tokens(), 32);
//! assert!((schedule.mean_occupancy() - 1.0).abs() < 1e-12);
//!
//! let model = ServingModel::gpt2_small();
//! let (step, layout) = (&schedule.steps()[0], scenario.layout());
//! let net = model.lower_serving_step_with(step, layout);
//! assert_eq!(net.total_macs(), model.serving_step_macs_with(step, layout));
//! ```

mod arrival;
mod error;
mod event;
mod fleet;
mod paging;
mod policy;
mod scenario;

pub use arrival::ArrivalProcess;
pub use error::ServingError;
pub use event::{PrefillMode, PrefillSlot, ServingSchedule, ServingStep};
pub use fleet::{Fleet, FleetRouter, InstanceAssignment};
pub use paging::{KvLayout, PageTable, PagedResidency, StepResidency};
pub use policy::AdmissionPolicy;
pub use scenario::{ServingScenario, ServingScenarioBuilder};

use crate::decode::decode_block_macs;
use crate::{DecodePhase, Layer, LayerSink, Network};

/// One serving request: `prompt` tokens to place in the KV cache
/// before decoding starts, `output` tokens to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Prompt tokens in the cache before the first decode step.
    pub prompt: usize,
    /// Tokens the request generates before retiring (>= 1).
    pub output: usize,
}

impl Request {
    /// Builds a request description.
    ///
    /// # Errors
    ///
    /// [`ServingError::ZeroOutputRequest`] if `output` is zero — a
    /// request that generates nothing never occupies a decode slot.
    pub fn try_new(prompt: usize, output: usize) -> Result<Request, ServingError> {
        if output == 0 {
            return Err(ServingError::ZeroOutputRequest);
        }
        Ok(Request { prompt, output })
    }

    /// Panicking wrapper over [`Request::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is zero.
    pub fn new(prompt: usize, output: usize) -> Request {
        Request::try_new(prompt, output).expect("a request must generate at least one token")
    }
}

/// SplitMix64: the deterministic generator behind the seeded mixes.
/// Small, stable across platforms, and good enough for workload shapes.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi]` (inclusive) from the generator state.
/// Every public generator rejects an inverted range before drawing.
fn draw_range(state: &mut u64, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi, "inverted range: lo={lo} > hi={hi}");
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

/// A deterministic population of serving requests.
///
/// The generators are pure functions of their arguments (seed included),
/// so a mix is reproducible across runs, platforms and thread counts —
/// the same guarantee the golden suite relies on everywhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMix {
    name: String,
    requests: Vec<Request>,
    /// Leading tokens every prompt has in common (a shared system
    /// prompt); 0 = no sharing.
    shared_prefix: usize,
}

impl RequestMix {
    /// A mix from explicit requests.
    ///
    /// # Errors
    ///
    /// [`ServingError::EmptyMix`] if `requests` is empty.
    pub fn try_custom(
        name: impl Into<String>,
        requests: Vec<Request>,
    ) -> Result<RequestMix, ServingError> {
        if requests.is_empty() {
            return Err(ServingError::EmptyMix);
        }
        Ok(RequestMix {
            name: name.into(),
            requests,
            shared_prefix: 0,
        })
    }

    /// Panicking wrapper over [`RequestMix::try_custom`].
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn custom(name: impl Into<String>, requests: Vec<Request>) -> RequestMix {
        RequestMix::try_custom(name, requests).expect("a request mix cannot be empty")
    }

    /// `count` identical requests — the degenerate mix that reproduces
    /// the uniform-batch model (and a single-sequence decode trace when
    /// run through a capacity-1 schedule).
    ///
    /// # Errors
    ///
    /// [`ServingError::ZeroOutputRequest`] if `output` is zero;
    /// [`ServingError::EmptyMix`] if `count` is zero.
    pub fn uniform(count: usize, prompt: usize, output: usize) -> Result<RequestMix, ServingError> {
        RequestMix::try_custom(
            format!("uniform(p{prompt},o{output})"),
            vec![Request::try_new(prompt, output)?; count],
        )
    }

    /// A two-population mix: chat-style `short` requests with a
    /// `long_percent`% admixture of long-document `long` requests, both
    /// given as `(prompt, output)` pairs. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// [`ServingError::LongShareOutOfRange`] if `long_percent` exceeds
    /// 100; [`ServingError::ZeroOutputRequest`] if a drawn request
    /// generates nothing; [`ServingError::EmptyMix`] if `count` is zero.
    pub fn bimodal(
        seed: u64,
        count: usize,
        short: (usize, usize),
        long: (usize, usize),
        long_percent: usize,
    ) -> Result<RequestMix, ServingError> {
        if long_percent > 100 {
            return Err(ServingError::LongShareOutOfRange(long_percent));
        }
        let mut state = seed;
        let requests = (0..count)
            .map(|_| {
                let (prompt, output) = if draw_range(&mut state, 0, 99) < long_percent {
                    long
                } else {
                    short
                };
                Request::try_new(prompt, output)
            })
            .collect::<Result<_, _>>()?;
        // The name pins every distinguishing parameter (shapes, split,
        // seed) so two different bimodal mixes never collide in a
        // report row or golden label.
        RequestMix::try_custom(
            format!(
                "bimodal(p{}o{}|p{}o{}@{long_percent}%,s{seed:x})",
                short.0, short.1, long.0, long.1
            ),
            requests,
        )
    }

    /// A long-tail mix: prompts uniform in `prompt` (inclusive bounds),
    /// outputs `output_base << k` with `P(k) = 2^-(k+1)` capped at
    /// `output_base << max_doublings` — the geometric output tail that
    /// makes continuous batching pay off over static batching.
    /// Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// [`ServingError::PromptRangeInverted`] if `prompt.0 > prompt.1`;
    /// [`ServingError::ZeroOutputRequest`] if `output_base` is zero;
    /// [`ServingError::EmptyMix`] if `count` is zero.
    pub fn long_tail(
        seed: u64,
        count: usize,
        prompt: (usize, usize),
        output_base: usize,
        max_doublings: u32,
    ) -> Result<RequestMix, ServingError> {
        let (lo, hi) = prompt;
        if lo > hi {
            return Err(ServingError::PromptRangeInverted { lo, hi });
        }
        let mut state = seed;
        let requests = (0..count)
            .map(|_| {
                let p = draw_range(&mut state, prompt.0, prompt.1);
                let mut doublings = 0;
                while doublings < max_doublings && draw_range(&mut state, 0, 1) == 1 {
                    doublings += 1;
                }
                Request::try_new(p, output_base << doublings)
            })
            .collect::<Result<_, _>>()?;
        // As with `bimodal`: prompt bounds and seed join the name so
        // distinct mixes get distinct labels.
        RequestMix::try_custom(
            format!(
                "long-tail(p{}-{},o{output_base}<<{max_doublings},s{seed:x})",
                prompt.0, prompt.1
            ),
            requests,
        )
    }

    /// The mix's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The requests, in arrival (admission) order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `false` always — construction rejects empty mixes.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total tokens the whole mix generates (the schedule's token count).
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output as u64).sum()
    }

    /// Declares that every prompt starts with the same `shared` tokens —
    /// a common system prompt. Under [`PrefillMode::OnAdmission`] the
    /// first admitted request prefills the prefix once; every later
    /// request skips it and references the cached pages (the trailing
    /// partial page copy-on-write, when the trace is lowered with
    /// [`KvLayout::Paged`]). The mix's name gains a `+shared{L}` suffix
    /// so shared and unshared variants never collide in report rows.
    ///
    /// # Errors
    ///
    /// [`ServingError::SharedPrefixExceedsPrompt`] if `shared` exceeds
    /// the shortest prompt in the mix — it would not be a prefix of
    /// every request.
    pub fn try_with_shared_prefix(mut self, shared: usize) -> Result<RequestMix, ServingError> {
        let min_prompt = self
            .requests
            .iter()
            .map(|r| r.prompt)
            .min()
            .expect("a mix is never empty");
        if shared > min_prompt {
            return Err(ServingError::SharedPrefixExceedsPrompt { shared, min_prompt });
        }
        if shared > 0 && self.shared_prefix == 0 {
            self.name = format!("{}+shared{shared}", self.name);
        }
        self.shared_prefix = shared;
        Ok(self)
    }

    /// The shared-prompt-prefix length, in tokens (0 = no sharing).
    pub fn shared_prefix(&self) -> usize {
        self.shared_prefix
    }

    /// The sub-mix at `indices` (in the given order) under `name`,
    /// carrying the shared prefix over verbatim — no `+shared` name
    /// re-suffixing, no re-validation. This is how a fleet router slices
    /// one global mix into per-instance streams.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub(crate) fn subset(&self, name: impl Into<String>, indices: &[usize]) -> RequestMix {
        assert!(!indices.is_empty(), "a sub-mix cannot be empty");
        RequestMix {
            name: name.into(),
            requests: indices.iter().map(|&i| self.requests[i]).collect(),
            shared_prefix: self.shared_prefix,
        }
    }
}

/// One active decode slot at one step: which request occupies it and the
/// tokens cached *before* the step (the [`DecodePhase::kv_len`]
/// convention — the step appends the new token's K/V and attends over
/// `kv_len + 1` positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSlot {
    /// Index of the request in its [`RequestMix`].
    pub request: usize,
    /// Tokens cached before the step: prompt + tokens generated so far.
    pub kv_len: usize,
}

/// One independently lowered piece of an event-core step. A step lowers
/// to the concatenation of its segments' lowerings, so a serving trace
/// can lower and evaluate each distinct segment once, however many steps
/// reuse it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StepSegment {
    /// A bucketed decode group: `group` decoding requests whose attend
    /// lengths pad to `len`, lowered as one batched stack of decode
    /// blocks plus the LM head.
    Decode {
        /// Bucket-padded attend length.
        len: usize,
        /// Requests in the group.
        group: usize,
    },
    /// A paged layout's whole decode set: the KV-independent layers
    /// batch over every member, and the logits/attend pair splits by
    /// `(page-padded attend length, group size)`, ascending in length.
    PagedDecode {
        /// The `(padded attend length, group size)` classes.
        groups: Vec<(usize, usize)>,
    },
    /// One prefill chunk: `chunk` prompt tokens attending over `len`
    /// padded positions, paying `cow` copy-on-write tokens.
    Prefill {
        /// Padded attend length (cache so far plus the chunk).
        len: usize,
        /// Prompt tokens the chunk prefills.
        chunk: usize,
        /// Copy-on-write tokens of the shared prefix's partial page.
        cow: usize,
    },
}

/// One part of a [`StepSegment`]'s lowering: a segment lowers to its
/// model's decoder blocks, in order, then its tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentPart {
    /// Decoder block `b`. Every block of a segment lowers to the same
    /// layer shapes; only the layer names carry the block index.
    Block(usize),
    /// The layers after the blocks: a decode segment's LM head (a
    /// prefill chunk has none).
    Tail,
}

/// What an event-core step's lowering depends on, from
/// [`ServingModel::step_composition`]: the step's [`StepSegment`]s in
/// lowering order — the decode segments, then one prefill segment per
/// prefilling slot in admission order (the order the lowering appends
/// their layers, and so the order their energies are summed). The key
/// serving evaluation memoizes whole steps by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StepComposition {
    segments: Vec<StepSegment>,
}

impl StepComposition {
    /// Each segment, in lowering order, paired with the request index
    /// its layer names carry when lowered for `step`, the step this
    /// composition was taken from: a prefill segment's slot request, and
    /// 0 for decode segments (whose names carry none).
    pub fn segment_requests<'s>(
        &'s self,
        step: &'s ServingStep,
    ) -> impl Iterator<Item = (&'s StepSegment, usize)> + 's {
        let mut prefill = step.prefill().iter();
        self.segments.iter().map(move |segment| {
            let request = match segment {
                StepSegment::Prefill { .. } => prefill.next().map_or(0, |slot| slot.request),
                StepSegment::Decode { .. } | StepSegment::PagedDecode { .. } => 0,
            };
            (segment, request)
        })
    }
}

/// The decoder-LM shape a scheduler step lowers onto: `blocks` pre-norm
/// transformer decoder blocks (width `d_model`, `heads` heads, MLP
/// hidden width `d_ff`) plus a `vocab`-wide LM head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingModel {
    name: String,
    d_model: usize,
    heads: usize,
    d_ff: usize,
    blocks: usize,
    vocab: usize,
    max_context: Option<usize>,
}

impl ServingModel {
    /// Builds a model shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `d_model` is not divisible by
    /// `heads`.
    pub fn new(
        name: impl Into<String>,
        d_model: usize,
        heads: usize,
        d_ff: usize,
        blocks: usize,
        vocab: usize,
    ) -> ServingModel {
        assert!(
            d_model > 0 && heads > 0 && d_ff > 0 && blocks > 0 && vocab > 0,
            "model dimensions must be nonzero"
        );
        assert!(
            d_model.is_multiple_of(heads),
            "d_model={d_model} not divisible by heads={heads}"
        );
        ServingModel {
            name: name.into(),
            d_model,
            heads,
            d_ff,
            blocks,
            vocab,
            max_context: None,
        }
    }

    /// GPT-2 small: 12 blocks, d_model 768, 12 heads, d_ff 3072, vocab
    /// 50257, 1024-token context — the same shape as
    /// [`crate::networks::gpt2_small_decode`], which a single-slot
    /// schedule reproduces signature for signature.
    pub fn gpt2_small() -> ServingModel {
        ServingModel::new("gpt2-small", 768, 12, 3072, 12, 50257).with_max_context(1024)
    }

    /// Declares the longest KV sequence (prompt + generated) the model
    /// supports — checked by the `L0404` lint, not enforced here.
    ///
    /// # Panics
    ///
    /// Panics if `max_context` is zero.
    pub fn with_max_context(mut self, max_context: usize) -> ServingModel {
        assert!(max_context > 0, "a context window must hold a token");
        self.max_context = Some(max_context);
        self
    }

    /// The declared context window, if any.
    pub fn max_context(&self) -> Option<usize> {
        self.max_context
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Groups `active_kv` by bucketed attend length: for each distinct
    /// `L = bucket_round_up(kv + 1)` the number of active requests whose
    /// step attends over `L` padded positions, ascending in `L`.
    ///
    /// This is the step's *bucketed composition* — the lowering is a
    /// pure function of it, so two steps with equal compositions produce
    /// networks with identical layer signatures.
    pub fn bucketed_composition(active_kv: &[usize], kv_bucket: usize) -> Vec<(usize, usize)> {
        ServingModel::padded_groups(active_kv.iter().copied(), kv_bucket)
    }

    /// [`ServingModel::bucketed_composition`] over any KV-length source.
    fn padded_groups(kv_lens: impl Iterator<Item = usize>, quantum: usize) -> Vec<(usize, usize)> {
        assert!(quantum > 0, "kv bucket must be nonzero");
        let mut lens: Vec<usize> = kv_lens
            .map(|kv| (kv + 1).div_ceil(quantum) * quantum)
            .collect();
        lens.sort_unstable();
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for len in lens {
            match groups.last_mut() {
                Some((last, group)) if *last == len => *group += 1,
                _ => groups.push((len, 1)),
            }
        }
        groups
    }

    /// Lowers one part of a bucketed decode group into `sink`: `group`
    /// requests attending over `len` padded positions, as one batched
    /// decode block per [`SegmentPart::Block`] and the LM head as the
    /// tail. The whole group shares the padded attend length — exactly
    /// the [`DecodePhase::with_kv_bucket`] padded-MAC accounting — and
    /// the group size rides the batch lever (projection weights shared
    /// across the group, KV caches replicated per request).
    fn decode_group(&self, len: usize, group: usize, part: SegmentPart, sink: &mut impl LayerSink) {
        let d = self.d_model;
        let SegmentPart::Block(block) = part else {
            sink.emit(Layer::gemv("", group, self.vocab, d), || {
                format!("kv{len}x{group}.lm-head")
            });
            return;
        };
        let phase = DecodePhase::new("", d, self.heads)
            .with_kv_len(len - 1)
            .with_batch(group);
        for (part, layer) in phase.lower_parts() {
            sink.emit(layer, || {
                format!("kv{len}x{group}.decoder.{block}.attn.{part}")
            });
        }
        let name = |part: &str| format!("kv{len}x{group}.decoder.{block}.mlp.{part}");
        sink.emit(Layer::gemv("", group, self.d_ff, d), || name("fc1"));
        sink.emit(Layer::gemv("", group, d, self.d_ff), || name("fc2"));
    }

    /// Closed-form MAC count of the decoding slots: the sum over the
    /// active set of each request's padded per-token work,
    /// `blocks · (4·D² + 2·L·D + 2·D·D_ff) + vocab·D` at that request's
    /// attend length `L` padded to the quantum.
    fn decode_macs(&self, active_kv: &[usize], kv_bucket: usize) -> u64 {
        active_kv
            .iter()
            .map(|&kv| {
                let len = (kv + 1).div_ceil(kv_bucket) * kv_bucket;
                self.blocks as u64 * decode_block_macs(len, self.d_model, self.d_ff)
                    + (self.vocab * self.d_model) as u64
            })
            .sum()
    }

    /// Lowers one part of a prefill chunk of request `request` into
    /// `sink` — `chunk` prompt tokens entering the cache, attending over
    /// `len` positions (the cache so far plus the chunk, padded to the
    /// quantum) — through the dense attention path: the
    /// [`crate::Attention`] lowering at seq = chunk, with the attended
    /// length padded to the KV quantum (so in-bucket chunks share
    /// signatures, the same economics as decode) and the chunk's K/V
    /// writes charged through the KV-residency accounting. The tail is
    /// empty, with no LM head: the first sampled token is the first
    /// *decode* step's, preserving the decode-path semantics of `output`
    /// tokens per request.
    fn prefill_chunk(
        &self,
        request: usize,
        len: usize,
        chunk: usize,
        cow_tokens: usize,
        part: SegmentPart,
        sink: &mut impl LayerSink,
    ) {
        let SegmentPart::Block(block) = part else {
            return;
        };
        let (d, h, c) = (self.d_model, self.heads, chunk);
        let name = |part: &str| {
            if cow_tokens > 0 {
                format!("pf{request}.kv{len}c{c}+cow{cow_tokens}.decoder.{block}.{part}")
            } else {
                format!("pf{request}.kv{len}c{c}.decoder.{block}.{part}")
            }
        };
        // A sharer's first private chunk privatises the shared prefix's
        // trailing partial page before its K/V land: `cow_tokens · d`
        // cache elements are re-read and re-written once, split across
        // the two cache-resident layers like the append itself.
        let cow = |layer: Layer| {
            if cow_tokens > 0 {
                layer.with_kv_cow(cow_tokens * d)
            } else {
                layer
            }
        };
        sink.emit(Layer::matmul("", 1, d, d, c), || name("attn.query"));
        sink.emit(Layer::matmul("", 1, d, d, c), || name("attn.key"));
        sink.emit(Layer::matmul("", 1, d, d, c), || name("attn.value"));
        sink.emit(
            cow(Layer::matmul("", 1, h * len, d, c)
                .with_groups(h)
                .with_kv_cache_residency(c * d)),
            || name("attn.logits"),
        );
        sink.emit(
            cow(Layer::matmul("", 1, d, h * len, c)
                .with_groups(h)
                .with_kv_cache_residency(c * d)),
            || name("attn.attend"),
        );
        sink.emit(Layer::matmul("", 1, d, d, c), || name("attn.out"));
        sink.emit(Layer::matmul("", 1, self.d_ff, d, c), || name("mlp.fc1"));
        sink.emit(Layer::matmul("", 1, d, self.d_ff, c), || name("mlp.fc2"));
    }

    /// The padded attend length of a prefill chunk: every computed token
    /// attends over the whole cache-so-far plus the chunk, padded to the
    /// quantum — dense (non-causal) accounting, matching
    /// `Attention::lower` at seq = prompt when nothing is cached.
    fn prefill_attend_len(slot: &PrefillSlot, quantum: usize) -> usize {
        (slot.cached + slot.chunk).div_ceil(quantum) * quantum
    }

    /// The copy-on-write token count a prefill slot pays under `layout`:
    /// the shared prefix's trailing partial page, charged exactly once —
    /// on the sharer's *first* private chunk (the chunk starting at
    /// `cached == shared`). Zero for the prefix owner, for bucketed
    /// layouts, and for page-aligned prefixes.
    fn prefill_cow_tokens(layout: &KvLayout, slot: &PrefillSlot) -> usize {
        match layout {
            KvLayout::Paged(table) if slot.shared > 0 && slot.cached == slot.shared => {
                table.cow_tokens()
            }
            _ => 0,
        }
    }

    /// Lowers one event-core step under a KV residency [`KvLayout`]:
    /// the concatenation of [`ServingModel::lower_segment`] over the
    /// step's [`ServingModel::step_composition`] — the decoding slots
    /// plus one dense prefill stack per prefilling slot.
    /// [`KvLayout::Bucketed`] groups the decoding slots by bucket-padded
    /// attend length, one batched stack of decode blocks per group;
    /// [`KvLayout::Paged`] pads attend lengths to the page instead of
    /// the bucket (so decode reads cover exactly the allocated pages),
    /// batches the KV-independent layers over the *whole* decode set
    /// (see [`StepSegment::PagedDecode`] — splitting them
    /// per length class is an artifact of bucket padding), and charges
    /// each sharer's first private chunk with the shared prefix's
    /// partial-page copy-on-write (see [`Layer::with_kv_cow`]).
    ///
    /// # Panics
    ///
    /// Panics if the step is empty or the layout's quantum is zero.
    pub fn lower_serving_step_with(&self, step: &ServingStep, layout: &KvLayout) -> Network {
        assert!(step.occupancy() > 0, "a step lowers a nonempty active set");
        let composition = ServingModel::step_composition(step, layout);
        let mut net = Network::new(format!("{}-serving@occ{}", self.name, step.occupancy()));
        for (segment, request) in composition.segment_requests(step) {
            self.lower_segment_into(segment, request, &mut net);
        }
        net
    }

    /// Lowers one [`StepSegment`] on its own, its layers named as for
    /// `request` (see [`StepComposition::segment_requests`]; decode
    /// segments ignore it): every [`SegmentPart`] in order, through the
    /// naming sink of [`ServingModel::lower_segment_part`]. A step's
    /// lowering is the concatenation of its segments' lowerings.
    pub fn lower_segment(&self, segment: &StepSegment, request: usize) -> Network {
        let mut net = Network::new(format!("{}-segment", self.name));
        self.lower_segment_into(segment, request, &mut net);
        net
    }

    /// [`ServingModel::lower_segment`] into any sink: every block, then
    /// the tail.
    fn lower_segment_into(&self, segment: &StepSegment, request: usize, sink: &mut impl LayerSink) {
        for block in 0..self.blocks {
            self.lower_segment_part(segment, request, SegmentPart::Block(block), sink);
        }
        self.lower_segment_part(segment, request, SegmentPart::Tail, sink);
    }

    /// The decoder blocks every segment repeats.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Lowers one part of `segment` into `sink`, each layer unnamed with
    /// the routine that builds its [`ServingModel::lower_segment`] name
    /// as for `request`. This is the one lowering of every segment kind:
    /// [`ServingModel::lower_segment`] and
    /// [`ServingModel::lower_serving_step_with`] are its naming sink, and
    /// a shape interner can lower [`SegmentPart::Block`]`(0)` and the
    /// tail alone, since every block lowers to the same shapes.
    pub fn lower_segment_part(
        &self,
        segment: &StepSegment,
        request: usize,
        part: SegmentPart,
        sink: &mut impl LayerSink,
    ) {
        match *segment {
            StepSegment::Decode { len, group } => self.decode_group(len, group, part, sink),
            StepSegment::PagedDecode { ref groups } => self.paged_decode(groups, part, sink),
            StepSegment::Prefill { len, chunk, cow } => {
                self.prefill_chunk(request, len, chunk, cow, part, sink);
            }
        }
    }

    /// The [`StepComposition`] of `step` under `layout`: everything
    /// [`ServingModel::lower_serving_step_with`] reads from the step —
    /// which lowers exactly these segments, in order — and nothing it
    /// only uses for names (request indices). Under one model, two steps
    /// with equal compositions lower to identical
    /// [`crate::LayerSignature`] sequences.
    ///
    /// # Panics
    ///
    /// Panics if the layout's quantum is zero.
    pub fn step_composition(step: &ServingStep, layout: &KvLayout) -> StepComposition {
        let quantum = layout.quantum();
        let kv_lens = step.decode().iter().map(|slot| slot.kv_len);
        let groups = ServingModel::padded_groups(kv_lens, quantum);
        let mut segments = match layout {
            KvLayout::Bucketed { .. } => groups
                .into_iter()
                .map(|(len, group)| StepSegment::Decode { len, group })
                .collect(),
            KvLayout::Paged(_) if groups.is_empty() => Vec::new(),
            KvLayout::Paged(_) => vec![StepSegment::PagedDecode { groups }],
        };
        segments.extend(step.prefill().iter().map(|slot| StepSegment::Prefill {
            len: ServingModel::prefill_attend_len(slot, quantum),
            chunk: slot.chunk,
            cow: ServingModel::prefill_cow_tokens(layout, slot),
        }));
        StepComposition { segments }
    }

    /// Lowers one part of the decoding slots under exact paged
    /// residency into `sink`. The KV-*independent* layers — QKV/output
    /// projections, the MLP pair and the LM head (the tail) — batch over
    /// the whole decode set: every member multiplies the same weights,
    /// so one fetch serves all of them regardless of how long each
    /// member's cache is (the per-length grouping of
    /// [`ServingModel::decode_group`] is an artifact of bucket padding,
    /// and reproducing it at page granularity would shred the batch
    /// lever into near-singleton groups and *inflate* weight traffic).
    /// Only the logits/attend pair, whose reduction length *is* the
    /// cache, splits by page-padded attend length — each group reads
    /// exactly its allocated pages and appends one `d_model`-slice per
    /// member. Per-request MACs are identical to the bucketed
    /// lowering's at `kv_bucket = page`: batching moves weight traffic,
    /// not arithmetic. `groups` are the decode set's `(page-padded
    /// attend length, group size)` classes.
    fn paged_decode(
        &self,
        groups: &[(usize, usize)],
        part: SegmentPart,
        sink: &mut impl LayerSink,
    ) {
        let (d, h) = (self.d_model, self.heads);
        let n: usize = groups.iter().map(|&(_, group)| group).sum();
        let SegmentPart::Block(block) = part else {
            sink.emit(Layer::gemv("", n, self.vocab, d), || {
                format!("pg.occ{n}.lm-head")
            });
            return;
        };
        let name = |part: &str| format!("pg.occ{n}.decoder.{block}.{part}");
        sink.emit(Layer::gemv("", n, d, d), || name("attn.query"));
        sink.emit(Layer::gemv("", n, d, d), || name("attn.key"));
        sink.emit(Layer::gemv("", n, d, d), || name("attn.value"));
        for &(len, group) in groups {
            let name = |part: &str| format!("pg{len}x{group}.decoder.{block}.attn.{part}");
            sink.emit(
                Layer::matmul("", 1, h * len, d, 1)
                    .with_groups(h)
                    .with_kv_cache_residency(d)
                    .with_batch(group),
                || name("logits"),
            );
            sink.emit(
                Layer::matmul("", 1, d, h * len, 1)
                    .with_groups(h)
                    .with_kv_cache_residency(d)
                    .with_batch(group),
                || name("attend"),
            );
        }
        sink.emit(Layer::gemv("", n, d, d), || name("attn.out"));
        sink.emit(Layer::gemv("", n, self.d_ff, d), || name("mlp.fc1"));
        sink.emit(Layer::gemv("", n, d, self.d_ff), || name("mlp.fc2"));
    }

    /// Closed-form MAC count of one prefill chunk, mirroring the
    /// [`StepSegment::Prefill`] lowering: per block `4·c·D² +
    /// 2·c·L·D + 2·c·D·D_ff` at chunk size `c` and bucketed attended
    /// length `L` — [`crate::attention::encoder_block_macs`] when the
    /// whole prompt is one unpadded chunk.
    pub fn prefill_chunk_macs(&self, cached: usize, chunk: usize, kv_bucket: usize) -> u64 {
        assert!(kv_bucket > 0, "kv bucket must be nonzero");
        let len = ((cached + chunk).div_ceil(kv_bucket) * kv_bucket) as u64;
        let (c, d, f) = (chunk as u64, self.d_model as u64, self.d_ff as u64);
        self.blocks as u64 * (4 * c * d * d + 2 * c * len * d + 2 * c * d * f)
    }

    /// Closed-form MAC count of a whole prompt's prefill at `chunk`
    /// tokens per event (`None` = one event), summed over chunks.
    pub fn prefill_macs(&self, prompt: usize, chunk: Option<usize>, kv_bucket: usize) -> u64 {
        let step = chunk.unwrap_or(prompt.max(1));
        let mut cached = 0;
        let mut macs = 0;
        while cached < prompt {
            let c = step.min(prompt - cached);
            macs += self.prefill_chunk_macs(cached, c, kv_bucket);
            cached += c;
        }
        macs
    }

    /// Closed-form MAC count of [`ServingModel::lower_serving_step_with`]:
    /// each decoding request's padded per-token work,
    /// `blocks · (4·D² + 2·L·D + 2·D·D_ff) + vocab·D`, plus
    /// [`ServingModel::prefill_chunk_macs`] of each prefilling slot, all
    /// padded to the layout's quantum. Copy-on-write moves cache bytes
    /// but multiplies nothing, so the layout's page table affects MACs
    /// only through the attend padding.
    pub fn serving_step_macs_with(&self, step: &ServingStep, layout: &KvLayout) -> u64 {
        let quantum = layout.quantum();
        self.decode_macs(&step.decode_kv_lens(), quantum)
            + step
                .prefill()
                .iter()
                .map(|s| self.prefill_chunk_macs(s.cached, s.chunk, quantum))
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerSignature;
    use std::collections::HashSet;

    #[test]
    fn uniform_mix_is_identical_requests() {
        let mix = RequestMix::uniform(5, 64, 8).unwrap();
        assert_eq!(mix.len(), 5);
        assert!(mix
            .requests()
            .iter()
            .all(|r| r.prompt == 64 && r.output == 8));
        assert_eq!(mix.total_output_tokens(), 40);
        assert!(!mix.is_empty());
    }

    #[test]
    fn seeded_mixes_are_deterministic() {
        let a = RequestMix::bimodal(7, 32, (64, 16), (512, 64), 25).unwrap();
        let b = RequestMix::bimodal(7, 32, (64, 16), (512, 64), 25).unwrap();
        assert_eq!(a, b);
        let c = RequestMix::bimodal(8, 32, (64, 16), (512, 64), 25).unwrap();
        assert_ne!(a, c, "a different seed draws a different mix");

        let t = RequestMix::long_tail(3, 64, (32, 256), 16, 3).unwrap();
        assert_eq!(t, RequestMix::long_tail(3, 64, (32, 256), 16, 3).unwrap());
        for r in t.requests() {
            assert!((32..=256).contains(&r.prompt));
            assert!(r.output >= 16 && r.output <= 16 << 3);
            assert!((r.output / 16).is_power_of_two());
        }
    }

    #[test]
    fn bimodal_mixes_both_populations() {
        let mix = RequestMix::bimodal(11, 64, (64, 16), (512, 64), 25).unwrap();
        let long = mix.requests().iter().filter(|r| r.prompt == 512).count();
        assert!(long > 0 && long < 64, "both populations present: {long}");
    }

    /// The closed-loop, resident-prefill schedule of `mix` over
    /// `capacity` slots: every step is pure decode.
    fn resident_schedule(mix: RequestMix, capacity: usize) -> ServingSchedule {
        ServingScenario::builder(mix, capacity)
            .prefill(PrefillMode::Resident)
            .build()
            .unwrap()
            .schedule()
    }

    /// `active_kv`'s bucketed decode groups, lowered on their own.
    fn decode_groups(model: &ServingModel, active_kv: &[usize], bucket: usize) -> Network {
        let mut net = Network::new("decode");
        for (len, group) in ServingModel::bucketed_composition(active_kv, bucket) {
            model.lower_segment_into(&StepSegment::Decode { len, group }, 0, &mut net);
        }
        net
    }

    #[test]
    fn scheduler_fills_slots_and_drains() {
        // 3 requests of 2 tokens over 2 slots: steps are
        // {0,1} {0,1} {2} {2}.
        let schedule = resident_schedule(RequestMix::uniform(3, 10, 2).unwrap(), 2);
        assert_eq!(schedule.total_steps(), 4);
        assert_eq!(schedule.total_decode_tokens(), 6);
        let occ: Vec<usize> = schedule
            .steps()
            .iter()
            .map(ServingStep::occupancy)
            .collect();
        assert_eq!(occ, vec![2, 2, 1, 1]);
        // Request 2 waits two steps, then runs with a growing cache.
        assert_eq!(schedule.steps()[2].decode()[0].request, 2);
        assert_eq!(schedule.steps()[2].decode()[0].kv_len, 10);
        assert_eq!(schedule.steps()[3].decode()[0].kv_len, 11);
    }

    #[test]
    fn retirement_frees_the_slot_for_the_next_step() {
        // A 1-token request and a 3-token request over one slot: the
        // short one finishes at step 0 and the long one starts at step 1.
        let mix = RequestMix::custom("m", vec![Request::new(4, 1), Request::new(8, 3)]);
        let schedule = resident_schedule(mix, 1);
        assert_eq!(schedule.total_steps(), 4);
        let reqs: Vec<usize> = schedule
            .steps()
            .iter()
            .map(|s| s.decode()[0].request)
            .collect();
        assert_eq!(reqs, vec![0, 1, 1, 1]);
        assert_eq!(schedule.steps()[1].decode_kv_lens(), vec![8]);
        assert_eq!(schedule.steps()[3].decode_kv_lens(), vec![10]);
    }

    #[test]
    fn composition_groups_by_bucket() {
        // kv 0, 63, 64 at bucket 64: attend lengths 1->64, 64->64,
        // 65->128.
        let comp = ServingModel::bucketed_composition(&[0, 63, 64], 64);
        assert_eq!(comp, vec![(64, 2), (128, 1)]);
    }

    #[test]
    fn decode_lowering_matches_closed_form() {
        let model = ServingModel::gpt2_small();
        for kv in [vec![0], vec![5, 5, 5], vec![0, 100, 300, 301]] {
            for bucket in [1, 64, 256] {
                assert_eq!(
                    decode_groups(&model, &kv, bucket).total_macs(),
                    model.decode_macs(&kv, bucket),
                    "kv={kv:?} bucket={bucket}"
                );
            }
        }
    }

    #[test]
    fn equal_compositions_share_every_signature() {
        let model = ServingModel::new("toy", 64, 4, 128, 2, 1000);
        let sigs = |kv: &[usize]| -> HashSet<LayerSignature> {
            decode_groups(&model, kv, 32)
                .layers()
                .iter()
                .map(Layer::signature)
                .collect()
        };
        // Different exact kv lengths, same bucketed composition.
        let a = sigs(&[3, 40, 41]);
        let b = sigs(&[20, 33, 60]);
        assert_eq!(a, b, "same (bucket, count) composition, same signatures");
        // A different composition differs.
        let c = sigs(&[3, 40, 70]);
        assert_ne!(a, c);
    }

    #[test]
    fn single_slot_step_matches_decode_builder_signatures() {
        use crate::networks;
        let model = ServingModel::gpt2_small();
        for (kv, bucket) in [(0usize, 64usize), (127, 64), (500, 128)] {
            // A lone resident request's first step decodes at kv = prompt.
            let schedule = resident_schedule(RequestMix::uniform(1, kv, 1).unwrap(), 1);
            let layout = KvLayout::Bucketed { bucket };
            let serving = model.lower_serving_step_with(&schedule.steps()[0], &layout);
            let decode = networks::gpt2_small_decode_bucketed(kv, bucket);
            assert_eq!(serving.layers().len(), decode.layers().len());
            assert_eq!(serving.total_macs(), decode.total_macs());
            for (s, d) in serving.layers().iter().zip(decode.layers()) {
                assert_eq!(
                    s.signature(),
                    d.signature(),
                    "kv={kv} bucket={bucket}: {} vs {}",
                    s.name(),
                    d.name()
                );
            }
        }
    }

    #[test]
    fn mix_names_pin_seed_and_shape() {
        let a = RequestMix::bimodal(0xA, 4, (64, 16), (512, 48), 25).unwrap();
        let b = RequestMix::bimodal(0xB, 4, (64, 16), (512, 48), 25).unwrap();
        assert_eq!(a.name(), "bimodal(p64o16|p512o48@25%,sa)");
        assert_ne!(a.name(), b.name(), "different seeds, different labels");
        let t = RequestMix::long_tail(0xC, 4, (64, 384), 12, 3).unwrap();
        assert_eq!(t.name(), "long-tail(p64-384,o12<<3,sc)");
        assert_ne!(
            t.name(),
            RequestMix::long_tail(0xC, 4, (32, 384), 12, 3)
                .unwrap()
                .name(),
            "different prompt bounds, different labels"
        );
    }

    #[test]
    fn prefill_chunk_lowering_matches_closed_form() {
        let model = ServingModel::gpt2_small();
        for (cached, chunk, bucket) in [(0, 128, 1), (0, 128, 256), (128, 128, 64), (192, 50, 256)]
        {
            let slot = PrefillSlot {
                request: 0,
                cached,
                chunk,
                shared: 0,
            };
            let len = ServingModel::prefill_attend_len(&slot, bucket);
            let segment = StepSegment::Prefill { len, chunk, cow: 0 };
            let net = model.lower_segment(&segment, 0);
            assert_eq!(
                net.total_macs(),
                model.prefill_chunk_macs(cached, chunk, bucket),
                "cached={cached} chunk={chunk} bucket={bucket}"
            );
        }
    }

    #[test]
    fn unpadded_whole_prompt_prefill_matches_the_encoder_closed_form() {
        // One unchunked prefill event at bucket 1 is the dense
        // attention lowering at seq = prompt: the per-block MACs equal
        // `encoder_block_macs` exactly.
        use crate::attention::encoder_block_macs;
        let model = ServingModel::gpt2_small();
        let prompt = 384;
        assert_eq!(
            model.prefill_macs(prompt, None, 1),
            12 * encoder_block_macs(prompt, 768, 3072)
        );
        // Chunking at the full prompt length changes nothing.
        assert_eq!(
            model.prefill_macs(prompt, Some(prompt), 1),
            model.prefill_macs(prompt, None, 1)
        );
        // Finer chunks repeat cache reads but never lose tokens: the
        // projection/MLP terms are chunk-invariant.
        assert!(model.prefill_macs(prompt, Some(128), 1) < model.prefill_macs(prompt, None, 1));
    }

    #[test]
    fn serving_step_lowering_matches_closed_form_with_prefill() {
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::custom(
            "m",
            vec![
                Request::new(300, 4),
                Request::new(64, 2),
                Request::new(64, 2),
            ],
        );
        let scenario = ServingScenario::builder(mix, 3)
            .prefill_chunk(128)
            .build()
            .unwrap();
        let schedule = scenario.schedule();
        assert!(schedule
            .steps()
            .iter()
            .any(|s| !s.prefill().is_empty() && !s.decode().is_empty()));
        for step in schedule.steps() {
            let net = model.lower_serving_step_with(step, scenario.layout());
            assert_eq!(
                net.total_macs(),
                model.serving_step_macs_with(step, scenario.layout())
            );
        }
    }

    #[test]
    fn constructor_errors_are_typed() {
        assert_eq!(
            Request::try_new(10, 0),
            Err(ServingError::ZeroOutputRequest)
        );
        assert_eq!(
            RequestMix::try_custom("empty", vec![]).unwrap_err(),
            ServingError::EmptyMix
        );
    }

    #[test]
    fn generator_errors_are_typed() {
        assert_eq!(
            RequestMix::uniform(0, 128, 8).unwrap_err(),
            ServingError::EmptyMix
        );
        assert_eq!(
            RequestMix::bimodal(1, 8, (64, 16), (512, 48), 101).unwrap_err(),
            ServingError::LongShareOutOfRange(101)
        );
        assert_eq!(
            RequestMix::long_tail(1, 8, (384, 64), 12, 3).unwrap_err(),
            ServingError::PromptRangeInverted { lo: 384, hi: 64 }
        );
        assert_eq!(
            RequestMix::long_tail(1, 8, (64, 384), 0, 3).unwrap_err(),
            ServingError::ZeroOutputRequest
        );
    }

    #[test]
    fn gpt2_small_declares_its_context_window() {
        assert_eq!(ServingModel::gpt2_small().max_context(), Some(1024));
        assert_eq!(
            ServingModel::new("toy", 64, 4, 128, 2, 1000).max_context(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_output_requests_are_rejected() {
        let _ = Request::new(10, 0);
    }
}
