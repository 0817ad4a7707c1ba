//! The event-driven serving core: arrival -> admission/prefill ->
//! token -> retire.
//!
//! [`ServingScenario::schedule`] runs a discrete-event loop in
//! scheduler-step time. Each step it (1) moves newly arrived requests
//! into the admission queue, (2) fills free slots from the queue under
//! the configured [`AdmissionPolicy`], (3) snapshots the active set —
//! slots still prefilling their prompt and slots decoding — and (4)
//! advances every slot by one event: a prefill chunk or one generated
//! token. Steps where nothing is active and nothing is queued are
//! fast-forwarded (the server is work-conserving; an idle server
//! prefills an arriving prompt immediately), so every emitted
//! [`ServingStep`] carries work and the wall index records the gap.
//!
//! Prefill is where PR 5's free lunch ends: under
//! [`PrefillMode::OnAdmission`] an admitted request occupies its slot
//! for one or more *prefill events* — each lowering a prompt chunk
//! through the dense attention path — before its first decode step, so
//! prompt tokens cost MACs, energy and cycles exactly once per
//! request. [`PrefillMode::Resident`] reproduces the PR 5 accounting
//! (prompts materialize pre-cached): with a closed loop, FIFO
//! admission and resident prefill, this core is the saturation
//! scheduler the closed-loop serving study runs.

use super::{ActiveSlot, ServingScenario};

/// How a request's prompt enters the KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillMode {
    /// PR 5 semantics: the prompt is assumed resident at admission and
    /// costs nothing. Kept for closed-loop compatibility studies; the
    /// saved energy is exactly what the old schedule under-counted.
    Resident,
    /// The fix: admission triggers prefill events that lower the
    /// prompt through the dense attention path before decoding starts.
    /// `chunk` bounds the tokens prefilled per step (`None` prefills
    /// the whole prompt in one step).
    OnAdmission {
        /// Largest prompt slice lowered per step, if bounded.
        chunk: Option<usize>,
    },
}

/// One slot prefilling part of its prompt this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillSlot {
    /// Index of the request in its [`RequestMix`].
    pub request: usize,
    /// Prompt tokens already prefilled before this step (for a request
    /// sharing a cached prefix, this starts at `shared`, not 0).
    pub cached: usize,
    /// Prompt tokens prefilled by this step (>= 1).
    pub chunk: usize,
    /// Shared-prefix tokens this request skipped by referencing another
    /// request's cached pages (0 = this slot prefilled its whole
    /// prompt, including any prefix it owns). A slot's *first* chunk
    /// has `cached == shared`; paged lowering charges the prefix's
    /// partial-page copy-on-write there.
    pub shared: usize,
}

/// The active set of one emitted event-core step: slots mid-prefill
/// plus slots decoding, with the wall-clock step index (gaps where the
/// server idled are fast-forwarded, so `wall` can jump between
/// consecutive steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingStep {
    wall: usize,
    prefill: Vec<PrefillSlot>,
    decode: Vec<ActiveSlot>,
}

impl ServingStep {
    /// Scheduler-step index on the arrival clock.
    pub fn wall(&self) -> usize {
        self.wall
    }

    /// Slots prefilling prompt chunks this step, admission order.
    pub fn prefill(&self) -> &[PrefillSlot] {
        &self.prefill
    }

    /// Slots decoding this step (each generates exactly one token),
    /// admission order.
    pub fn decode(&self) -> &[ActiveSlot] {
        &self.decode
    }

    /// Occupied slots this step (prefilling + decoding).
    pub fn occupancy(&self) -> usize {
        self.prefill.len() + self.decode.len()
    }

    /// The heterogeneous KV lengths of the decoding slots.
    pub fn decode_kv_lens(&self) -> Vec<usize> {
        self.decode.iter().map(|s| s.kv_len).collect()
    }

    /// Prompt tokens prefilled by this step.
    pub fn prefill_tokens(&self) -> usize {
        self.prefill.iter().map(|s| s.chunk).sum()
    }
}

/// What a slot is doing.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// `done` prompt tokens prefilled so far.
    Prefilling { done: usize },
    /// `generated` output tokens produced so far.
    Decoding { generated: usize },
}

/// The full event-driven trace of a [`ServingScenario`]: per-step
/// active sets plus each request's arrival step, everything downstream
/// latency accounting needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSchedule {
    capacity: usize,
    steps: Vec<ServingStep>,
    arrivals: Vec<usize>,
    truncated: Vec<usize>,
}

impl ServingSchedule {
    /// Runs the event core over `scenario`. Infallible: the builder
    /// already rejected every combination the loop cannot serve (zero
    /// slots, a zero prefill chunk, a prompt that fills the context
    /// window).
    pub(super) fn run(scenario: &ServingScenario) -> ServingSchedule {
        let (mix, capacity, prefill_mode) =
            (scenario.mix(), scenario.capacity(), scenario.prefill());
        // The shared prompt prefix only saves work when prompts are
        // actually prefilled: under `Resident` prompts cost nothing
        // either way.
        let shared = match prefill_mode {
            PrefillMode::OnAdmission { .. } => mix.shared_prefix(),
            PrefillMode::Resident => 0,
        };
        // `false` until the first prefilling request is admitted; that
        // request owns the prefix and prefills it (its whole prompt,
        // from 0). Every later admission references the owner's cached
        // prefix pages and skips straight to its private suffix — the
        // model assumes the prefix is resident once its owner is
        // admitted (the owner's prefill is scheduled first; same-step
        // overlap is ignored).
        let mut prefix_ready = false;
        let arrivals = scenario.arrival().arrival_steps(mix.len());
        let mut queue: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        // (request, state, shared tokens the slot skipped at admission)
        let mut slots: Vec<(usize, SlotState, usize)> = Vec::with_capacity(capacity);
        let mut steps = Vec::new();
        let mut truncated = Vec::new();
        let mut wall = 0usize;

        loop {
            while next_arrival < mix.len() && arrivals[next_arrival] <= wall {
                queue.push(next_arrival);
                next_arrival += 1;
            }
            if slots.is_empty() && queue.is_empty() {
                match arrivals.get(next_arrival) {
                    // Idle server: fast-forward to the next arrival.
                    Some(&next) => {
                        wall = next;
                        continue;
                    }
                    None => break,
                }
            }
            while slots.len() < capacity && !queue.is_empty() {
                let pick = scenario.policy().select(&queue, mix, &arrivals);
                let request = queue.remove(pick);
                let (state, skipped) = match prefill_mode {
                    PrefillMode::Resident => (SlotState::Decoding { generated: 0 }, 0),
                    PrefillMode::OnAdmission { .. } => {
                        let prompt = mix.requests()[request].prompt;
                        let skipped = if prefix_ready { shared } else { 0 };
                        if shared > 0 && prompt > 0 {
                            prefix_ready = true;
                        }
                        if prompt <= skipped {
                            // Nothing (left) to prefill: a zero-length
                            // prompt, or a prompt that *is* the shared
                            // prefix.
                            (SlotState::Decoding { generated: 0 }, skipped)
                        } else {
                            (SlotState::Prefilling { done: skipped }, skipped)
                        }
                    }
                };
                slots.push((request, state, skipped));
            }

            let mut prefill = Vec::new();
            let mut decode = Vec::new();
            for &(request, state, skipped) in &slots {
                let prompt = mix.requests()[request].prompt;
                match state {
                    SlotState::Prefilling { done } => prefill.push(PrefillSlot {
                        request,
                        cached: done,
                        chunk: prefill_mode.next_chunk(prompt, done),
                        shared: skipped,
                    }),
                    SlotState::Decoding { generated } => decode.push(ActiveSlot {
                        request,
                        kv_len: prompt + generated,
                    }),
                }
            }
            steps.push(ServingStep {
                wall,
                prefill,
                decode,
            });

            for (request, state, _) in &mut slots {
                let prompt = mix.requests()[*request].prompt;
                match state {
                    SlotState::Prefilling { done } => {
                        *done += prefill_mode.next_chunk(prompt, *done);
                        if *done >= prompt {
                            *state = SlotState::Decoding { generated: 0 };
                        }
                    }
                    SlotState::Decoding { generated } => *generated += 1,
                }
            }
            slots.retain(|&(request, state, _)| match state {
                SlotState::Prefilling { .. } => true,
                SlotState::Decoding { generated } => {
                    if generated >= mix.requests()[request].output {
                        return false;
                    }
                    // The next decode step would grow the cache to
                    // prompt + generated + 1 tokens; at the window, the
                    // request retires early instead (truncated).
                    if let Some(max) = scenario.max_context() {
                        if mix.requests()[request].prompt + generated + 1 > max {
                            truncated.push(request);
                            return false;
                        }
                    }
                    true
                }
            });
            wall += 1;
        }

        ServingSchedule {
            capacity,
            steps,
            arrivals,
            truncated,
        }
    }

    /// The slot count the schedule was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The emitted steps, execution order (idle gaps skipped).
    pub fn steps(&self) -> &[ServingStep] {
        &self.steps
    }

    /// Each request's arrival step, indexed by request.
    pub fn arrivals(&self) -> &[usize] {
        &self.arrivals
    }

    /// Requests that retired early at the context-window boundary
    /// (generated fewer than their requested output tokens), in
    /// retirement order. Empty unless the scenario capped the window
    /// ([`ServingScenarioBuilder::max_context`](super::ServingScenarioBuilder::max_context)).
    pub fn truncated(&self) -> &[usize] {
        &self.truncated
    }

    /// Emitted (busy) steps until the last request retired.
    pub fn total_steps(&self) -> usize {
        self.steps.len()
    }

    /// Tokens generated over the whole schedule.
    pub fn total_decode_tokens(&self) -> u64 {
        self.steps.iter().map(|s| s.decode.len() as u64).sum()
    }

    /// Prompt tokens prefilled over the whole schedule — equal to the
    /// mix's total prompt tokens under [`PrefillMode::OnAdmission`],
    /// zero under [`PrefillMode::Resident`].
    pub fn total_prefill_tokens(&self) -> u64 {
        self.steps.iter().map(|s| s.prefill_tokens() as u64).sum()
    }

    /// Mean slot occupancy (prefilling + decoding) over the emitted
    /// steps, in `(0, 1]`; 0.0 for an empty schedule.
    pub fn mean_occupancy(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let occupied: u64 = self.steps.iter().map(|s| s.occupancy() as u64).sum();
        occupied as f64 / (self.steps.len() * self.capacity) as f64
    }
}

impl PrefillMode {
    /// Tokens the next prefill event covers for a `prompt` with `done`
    /// tokens already cached.
    fn next_chunk(self, prompt: usize, done: usize) -> usize {
        match self {
            PrefillMode::Resident => 0,
            PrefillMode::OnAdmission { chunk } => {
                let remaining = prompt - done;
                chunk.map_or(remaining, |c| c.min(remaining))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{
        AdmissionPolicy, ArrivalProcess, Request, RequestMix, ServingError, ServingScenarioBuilder,
    };

    fn mix() -> RequestMix {
        RequestMix::custom(
            "m",
            vec![
                Request::new(100, 3),
                Request::new(300, 2),
                Request::new(100, 2),
            ],
        )
    }

    fn schedule(builder: ServingScenarioBuilder) -> ServingSchedule {
        builder.build().unwrap().schedule()
    }

    #[test]
    fn prefill_events_precede_decode_and_cover_the_prompt_once() {
        let schedule = schedule(ServingScenario::builder(mix(), 2).prefill_chunk(64));
        assert_eq!(schedule.total_prefill_tokens(), 100 + 300 + 100);
        assert_eq!(schedule.total_decode_tokens(), 3 + 2 + 2);
        // Request 1 (prompt 300, chunk 64): ceil(300/64) = 5 prefill
        // events with chunks 64,64,64,64,44 and increasing cached.
        let chunks: Vec<(usize, usize)> = schedule
            .steps()
            .iter()
            .flat_map(ServingStep::prefill)
            .filter(|p| p.request == 1)
            .map(|p| (p.cached, p.chunk))
            .collect();
        assert_eq!(
            chunks,
            vec![(0, 64), (64, 64), (128, 64), (192, 64), (256, 44)]
        );
        // Its first decode step sits at kv_len = prompt.
        let first_decode = schedule
            .steps()
            .iter()
            .flat_map(ServingStep::decode)
            .find(|s| s.request == 1)
            .unwrap();
        assert_eq!(first_decode.kv_len, 300);
    }

    #[test]
    fn unchunked_prefill_is_one_event() {
        let schedule = schedule(ServingScenario::builder(
            RequestMix::uniform(1, 128, 2).unwrap(),
            1,
        ));
        // Step 0: prefill(0, 128). Steps 1-2: decode at kv 128, 129.
        assert_eq!(schedule.total_steps(), 3);
        assert_eq!(
            schedule.steps()[0].prefill(),
            &[PrefillSlot {
                request: 0,
                cached: 0,
                chunk: 128,
                shared: 0
            }]
        );
        assert_eq!(schedule.steps()[1].decode_kv_lens(), vec![128]);
        assert_eq!(schedule.steps()[2].decode_kv_lens(), vec![129]);
    }

    #[test]
    fn zero_prompt_requests_skip_prefill() {
        let mix = RequestMix::custom("m", vec![Request::new(0, 2)]);
        let schedule = schedule(ServingScenario::builder(mix, 1));
        assert_eq!(schedule.total_prefill_tokens(), 0);
        assert_eq!(schedule.steps()[0].decode_kv_lens(), vec![0]);
    }

    #[test]
    fn idle_gaps_are_fast_forwarded() {
        let schedule = schedule(
            ServingScenario::builder(RequestMix::uniform(2, 8, 1).unwrap(), 1)
                .arrival(ArrivalProcess::try_bursty(0.0, 50, 1, 0).unwrap())
                .prefill(PrefillMode::Resident),
        );
        // Request 0 decodes at wall 0; the server idles until the
        // second burst at wall 50.
        let walls: Vec<usize> = schedule.steps().iter().map(ServingStep::wall).collect();
        assert_eq!(walls, vec![0, 50]);
        assert_eq!(schedule.arrivals(), &[0, 50]);
    }

    #[test]
    fn occupancy_counts_prefill_slots() {
        let schedule = schedule(ServingScenario::builder(
            RequestMix::uniform(1, 64, 1).unwrap(),
            2,
        ));
        // Step 0 prefills, step 1 decodes: both occupy 1 of 2 slots.
        assert!((schedule.mean_occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlong_prompts_are_rejected_at_the_window() {
        // Prompt 1024 + 1 generated token does not fit a 1024 window.
        let mix = RequestMix::custom("m", vec![Request::new(1024, 4)]);
        assert_eq!(
            ServingScenario::builder(mix, 1).max_context(1024).build(),
            Err(ServingError::ContextOverflow {
                request: 0,
                needed: 1025,
                max_context: 1024,
            })
        );
        // Prompt 1023 fits: exactly one token of headroom.
        let mix = RequestMix::custom("m", vec![Request::new(1023, 4)]);
        let schedule = schedule(ServingScenario::builder(mix, 1).max_context(1024));
        assert_eq!(schedule.total_decode_tokens(), 1);
        assert_eq!(schedule.truncated(), &[0]);
    }

    #[test]
    fn decode_retires_early_at_the_window_boundary() {
        // Prompt 100, wants 50 tokens, window 120: it can only grow the
        // cache to 120, i.e. generate 20 tokens.
        let mix = RequestMix::custom("m", vec![Request::new(100, 50), Request::new(10, 3)]);
        let resident = || ServingScenario::builder(mix.clone(), 1).prefill(PrefillMode::Resident);
        let capped = schedule(resident().max_context(120));
        let decoded_0 = capped
            .steps()
            .iter()
            .flat_map(ServingStep::decode)
            .filter(|s| s.request == 0)
            .count();
        assert_eq!(decoded_0, 20, "truncated at the boundary, not past it");
        assert!(capped
            .steps()
            .iter()
            .flat_map(ServingStep::decode)
            .all(|s| s.kv_len < 120));
        assert_eq!(capped.truncated(), &[0]);
        // The freed slot still serves the short request in full.
        assert_eq!(capped.total_decode_tokens(), 20 + 3);
        // Without the window the same mix decodes everything.
        let unbounded = schedule(resident());
        assert_eq!(unbounded.total_decode_tokens(), 50 + 3);
        assert!(unbounded.truncated().is_empty());
    }

    #[test]
    fn shared_prefix_is_prefilled_once() {
        // Three prompts sharing 64 tokens: the owner prefills 100, the
        // sharers skip to token 64.
        let schedule = schedule(
            ServingScenario::builder(RequestMix::uniform(3, 100, 2).unwrap(), 3)
                .kv_page(16)
                .shared_prefix(64)
                .prefill_chunk(32),
        );
        assert_eq!(
            schedule.total_prefill_tokens(),
            100 + 2 * (100 - 64),
            "sharers skip the prefix"
        );
        // Owner: chunks from 0 with shared = 0; sharers: from 64 with
        // shared = 64.
        let first_chunks: Vec<(usize, usize, usize)> = schedule.steps()[0]
            .prefill()
            .iter()
            .map(|p| (p.request, p.cached, p.shared))
            .collect();
        assert_eq!(first_chunks, vec![(0, 0, 0), (1, 64, 64), (2, 64, 64)]);
        // Decode is unaffected: every request still generates its
        // output at full context.
        assert_eq!(schedule.total_decode_tokens(), 6);
        let first_decode = schedule
            .steps()
            .iter()
            .flat_map(ServingStep::decode)
            .find(|s| s.request == 1)
            .unwrap();
        assert_eq!(first_decode.kv_len, 100);
    }

    #[test]
    fn prompt_equal_to_prefix_skips_prefill_entirely() {
        let mix = RequestMix::custom(
            "m",
            vec![
                Request::new(64, 2),
                Request::new(64, 2),
                Request::new(96, 2),
            ],
        );
        let schedule = schedule(
            ServingScenario::builder(mix, 3)
                .kv_page(16)
                .shared_prefix(64),
        );
        // Owner prefills 64; request 1's whole prompt is the prefix
        // (decodes immediately); request 2 prefills its 32-token tail.
        assert_eq!(schedule.total_prefill_tokens(), 64 + 32);
        assert_eq!(schedule.steps()[0].decode_kv_lens(), vec![64]);
    }

    #[test]
    fn resident_prefill_ignores_the_shared_prefix() {
        let schedule = schedule(
            ServingScenario::builder(RequestMix::uniform(2, 64, 2).unwrap(), 2)
                .kv_page(16)
                .shared_prefix(32)
                .prefill(PrefillMode::Resident),
        );
        assert_eq!(schedule.total_prefill_tokens(), 0);
        assert_eq!(schedule.total_decode_tokens(), 4);
    }

    #[test]
    fn shortest_prompt_reorders_admission() {
        // Capacity 1, closed loop: FIFO admits 0 first; shortest-prompt
        // admits the short request 2 first.
        let resident = || ServingScenario::builder(mix(), 1).prefill(PrefillMode::Resident);
        let fifo = schedule(resident());
        assert_eq!(fifo.steps()[0].decode()[0].request, 0);
        let sjf = schedule(resident().policy(AdmissionPolicy::ShortestPrompt));
        assert_eq!(
            sjf.steps()[0].decode()[0].request,
            0,
            "slot taken at step 0 keeps FIFO head"
        );
        // After request 0 retires the queue is {1, 2}: SJF picks 2.
        let order: Vec<usize> = sjf.steps().iter().map(|s| s.decode()[0].request).collect();
        assert_eq!(order, vec![0, 0, 0, 2, 2, 1, 1]);
    }
}
