//! Paged KV-cache residency and prefix sharing.
//!
//! PR 5's bucket-padding charges every decode step as if the cache were
//! rounded up to a coarse hardware tile (256 tokens by default), so DRAM
//! reads and capacity are systematically over-counted — exactly the
//! waste paged attention removes by allocating the cache in small fixed
//! pages. [`PageTable`] models that allocator analytically:
//!
//! * a request at `kv` cached tokens holds `ceil(kv / page)` pages;
//! * internal fragmentation is `allocated − used`, strictly less than
//!   one page per request;
//! * a shared prompt prefix occupies its *full* pages once for the whole
//!   mix, and the trailing partial page is copied copy-on-write by each
//!   sharing request before its first private token lands in it.
//!
//! [`KvLayout`] selects which residency accounting a serving trace is
//! lowered with: [`KvLayout::Bucketed`] reproduces the legacy tile
//! padding, [`KvLayout::Paged`] pads attend lengths to the page instead.
//! Because a page divides the tile (checked by lint `L0406`), the paged
//! attend length never exceeds the bucketed one — bucketed accounting is
//! a sound upper bound, and `page = 1` recovers exact per-token
//! residency (`tests/paged_properties.rs` pins both).

use super::{ServingError, ServingSchedule, ServingStep};

/// The analytic page-table model: page-granular KV allocation with an
/// optional shared prompt prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    page: usize,
    shared_prefix: usize,
}

impl PageTable {
    /// A page table with `page`-token pages and no shared prefix.
    ///
    /// # Errors
    ///
    /// [`ServingError::ZeroKvPage`] if `page` is zero — allocation
    /// granularity must cover at least one token.
    pub fn try_new(page: usize) -> Result<PageTable, ServingError> {
        if page == 0 {
            return Err(ServingError::ZeroKvPage);
        }
        Ok(PageTable {
            page,
            shared_prefix: 0,
        })
    }

    /// Declares a shared prompt prefix of `len` tokens (builder style).
    /// The prefix's full pages are stored once for the whole mix; the
    /// trailing partial page is copied per sharing request
    /// (copy-on-write).
    #[must_use]
    pub fn with_shared_prefix(mut self, len: usize) -> PageTable {
        self.shared_prefix = len;
        self
    }

    /// Tokens per page.
    pub fn page(&self) -> usize {
        self.page
    }

    /// The shared prompt prefix length, in tokens (0 = no sharing).
    pub fn shared_prefix(&self) -> usize {
        self.shared_prefix
    }

    /// Pages allocated for a cache of `kv` tokens.
    pub fn pages_for(&self, kv: usize) -> usize {
        kv.div_ceil(self.page)
    }

    /// Tokens of capacity backing a cache of `kv` tokens (pages × page
    /// size) — the paged residency footprint.
    pub fn allocated_tokens(&self, kv: usize) -> usize {
        self.pages_for(kv) * self.page
    }

    /// Internal fragmentation of a cache of `kv` tokens: allocated −
    /// used, strictly less than one page.
    pub fn fragmentation(&self, kv: usize) -> usize {
        self.allocated_tokens(kv) - kv
    }

    /// Padded attend length of a decode step at `kv` cached tokens: the
    /// step appends one token and reads every allocated page in full, so
    /// it attends over `allocated_tokens(kv + 1)` positions. The paged
    /// analog of the bucket rounding in
    /// [`ServingModel::bucketed_composition`](super::ServingModel::bucketed_composition).
    pub fn attend_len(&self, kv: usize) -> usize {
        self.allocated_tokens(kv + 1)
    }

    /// Tokens of the shared prefix stored once for the whole mix — its
    /// full pages only; the partial page cannot be shared because
    /// sharers append into it.
    pub fn shared_full_page_tokens(&self) -> usize {
        (self.shared_prefix / self.page) * self.page
    }

    /// Tokens a sharing request copies copy-on-write before its first
    /// private token: the shared prefix's trailing partial page (0 when
    /// the prefix is page-aligned).
    pub fn cow_tokens(&self) -> usize {
        self.shared_prefix % self.page
    }

    /// Walks `schedule` and reduces it to the allocator-level residency
    /// aggregates: peak used/allocated tokens over the emitted steps
    /// (shared full pages counted once per step) and the shared-storage
    /// saving. Step `used` counts each slot's cache *after* its event
    /// (decode appends one token; prefill lands its chunk).
    pub fn schedule_residency(&self, schedule: &ServingSchedule) -> PagedResidency {
        let mut peak = StepResidency::default();
        for step in schedule.steps() {
            let r = self.step_residency(step);
            // Peak-allocation step; ties resolve to the fullest one
            // (later decode steps pack more tokens into the same pages).
            if (r.allocated_tokens, r.used_tokens) > (peak.allocated_tokens, peak.used_tokens) {
                peak = r;
            }
        }
        PagedResidency {
            page: self.page,
            peak_used_tokens: peak.used_tokens,
            peak_allocated_tokens: peak.allocated_tokens,
            cow_tokens_per_sharer: self.cow_tokens(),
            shared_full_page_tokens: self.shared_full_page_tokens(),
        }
    }

    /// The residency of one emitted step: used and allocated tokens over
    /// its active slots, with the shared prefix's full pages counted
    /// once — on *both* sides of the ledger. Each slot contributes only
    /// its private suffix (cache beyond the shared full pages); the
    /// shared region itself is stored once, filled as far as the
    /// furthest slot has written it.
    pub fn step_residency(&self, step: &ServingStep) -> StepResidency {
        let shared = self.shared_full_page_tokens();
        let mut used = 0u64;
        let mut allocated = 0u64;
        // Tokens of the shared region actually written so far (the
        // owner may still be mid-prefill inside it).
        let mut shared_filled = 0usize;
        let mut slot_kv = |kv: usize| {
            let in_shared = shared.min(kv);
            shared_filled = shared_filled.max(in_shared);
            let private = kv - in_shared;
            used += private as u64;
            allocated += self.allocated_tokens(private) as u64;
        };
        for slot in step.decode() {
            slot_kv(slot.kv_len + 1);
        }
        for slot in step.prefill() {
            slot_kv(slot.cached + slot.chunk);
        }
        if shared_filled > 0 {
            used += shared_filled as u64;
            allocated += self.allocated_tokens(shared_filled) as u64;
        }
        StepResidency {
            used_tokens: used,
            allocated_tokens: allocated,
        }
    }
}

/// Used/allocated cache tokens of one step under a [`PageTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepResidency {
    /// Cache tokens actually holding K/V after the step's events.
    pub used_tokens: u64,
    /// Tokens of page capacity backing them (≥ used).
    pub allocated_tokens: u64,
}

impl StepResidency {
    /// Allocated-but-unused fraction of the step's residency, in
    /// `[0, 1)`; 0.0 for an empty step.
    pub fn waste_fraction(&self) -> f64 {
        if self.allocated_tokens == 0 {
            return 0.0;
        }
        1.0 - self.used_tokens as f64 / self.allocated_tokens as f64
    }
}

/// Schedule-level residency aggregates of a [`PageTable`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedResidency {
    /// Tokens per page.
    pub page: usize,
    /// Used tokens of the peak-allocation step.
    pub peak_used_tokens: u64,
    /// Allocated tokens of the peak-allocation step.
    pub peak_allocated_tokens: u64,
    /// Tokens each sharing request copies copy-on-write.
    pub cow_tokens_per_sharer: usize,
    /// Shared-prefix tokens stored once instead of per request.
    pub shared_full_page_tokens: usize,
}

impl PagedResidency {
    /// Fragmentation at the peak step: allocated − used tokens.
    pub fn peak_fragmentation_tokens(&self) -> u64 {
        self.peak_allocated_tokens - self.peak_used_tokens
    }

    /// Allocated-but-unused fraction at the peak step, in `[0, 1)`.
    pub fn peak_waste_fraction(&self) -> f64 {
        if self.peak_allocated_tokens == 0 {
            return 0.0;
        }
        1.0 - self.peak_used_tokens as f64 / self.peak_allocated_tokens as f64
    }
}

/// Which KV-residency accounting a serving trace is lowered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvLayout {
    /// The legacy tile padding: attend lengths round up to a coarse
    /// hardware bucket. Over-counts DRAM reads and capacity by up to a
    /// bucket per request, in exchange for very few distinct layer
    /// signatures.
    Bucketed {
        /// The rounding quantum, in tokens.
        bucket: usize,
    },
    /// Page-granular residency: attend lengths round up to the page, so
    /// reads cover exactly the allocated pages. More distinct
    /// signatures than bucketed (one per page count visited) but still
    /// bounded far below the step count.
    Paged(PageTable),
}

impl KvLayout {
    /// The rounding quantum in tokens: the bucket, or the page.
    pub fn quantum(&self) -> usize {
        match self {
            KvLayout::Bucketed { bucket } => *bucket,
            KvLayout::Paged(table) => table.page(),
        }
    }

    /// The page table, when paged.
    pub fn page_table(&self) -> Option<&PageTable> {
        match self {
            KvLayout::Bucketed { .. } => None,
            KvLayout::Paged(table) => Some(table),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{PrefillMode, RequestMix, ServingScenario};

    #[test]
    fn allocation_rounds_up_to_whole_pages() {
        let t = PageTable::try_new(16).unwrap();
        assert_eq!(t.pages_for(0), 0);
        assert_eq!(t.pages_for(1), 1);
        assert_eq!(t.pages_for(16), 1);
        assert_eq!(t.pages_for(17), 2);
        assert_eq!(t.allocated_tokens(17), 32);
        assert_eq!(t.fragmentation(17), 15);
        assert_eq!(t.fragmentation(32), 0);
    }

    #[test]
    fn attend_len_covers_the_appended_token() {
        let t = PageTable::try_new(16).unwrap();
        // kv 15: the step appends token 16, which still fits page 1.
        assert_eq!(t.attend_len(15), 16);
        // kv 16: token 17 opens page 2.
        assert_eq!(t.attend_len(16), 32);
    }

    #[test]
    fn page_one_is_exact_per_token_residency() {
        let t = PageTable::try_new(1).unwrap();
        for kv in [0usize, 1, 7, 100] {
            assert_eq!(t.allocated_tokens(kv), kv);
            assert_eq!(t.fragmentation(kv), 0);
            assert_eq!(t.attend_len(kv), kv + 1);
        }
    }

    #[test]
    fn shared_prefix_splits_into_full_pages_and_cow_tail() {
        let t = PageTable::try_new(16).unwrap().with_shared_prefix(48);
        assert_eq!(t.shared_full_page_tokens(), 48);
        assert_eq!(t.cow_tokens(), 0, "aligned prefix copies nothing");
        let t = PageTable::try_new(16).unwrap().with_shared_prefix(42);
        assert_eq!(t.shared_full_page_tokens(), 32);
        assert_eq!(t.cow_tokens(), 10);
    }

    #[test]
    fn zero_page_is_a_typed_error() {
        assert_eq!(PageTable::try_new(0).unwrap_err(), ServingError::ZeroKvPage);
    }

    #[test]
    fn layout_quantum_selects_bucket_or_page() {
        assert_eq!(KvLayout::Bucketed { bucket: 256 }.quantum(), 256);
        let paged = KvLayout::Paged(PageTable::try_new(16).unwrap());
        assert_eq!(paged.quantum(), 16);
        assert!(paged.page_table().is_some());
        assert!(KvLayout::Bucketed { bucket: 256 }.page_table().is_none());
    }

    #[test]
    fn schedule_residency_tracks_peak_and_bounds_waste() {
        let schedule = ServingScenario::builder(RequestMix::uniform(4, 100, 8).unwrap(), 4)
            .prefill_chunk(64)
            .build()
            .unwrap()
            .schedule();
        let t = PageTable::try_new(16).unwrap();
        let r = t.schedule_residency(&schedule);
        assert!(r.peak_allocated_tokens >= r.peak_used_tokens);
        // Fragmentation stays under one page per active request.
        assert!(r.peak_fragmentation_tokens() < (16 * 4) as u64);
        assert!(r.peak_waste_fraction() >= 0.0 && r.peak_waste_fraction() < 1.0);
        // Peak: all four requests at their longest cache (107 + 1 used).
        assert_eq!(r.peak_used_tokens, 4 * 108);
        assert_eq!(r.peak_allocated_tokens, 4 * 112);
    }

    #[test]
    fn shared_full_pages_are_counted_once() {
        // Two requests fully decoded, sharing a 32-token prefix at page
        // 16: per-step allocation = shared 32 once + private remainders.
        let schedule = ServingScenario::builder(RequestMix::uniform(2, 64, 4).unwrap(), 2)
            .kv_page(16)
            .shared_prefix(32)
            .prefill(PrefillMode::Resident)
            .build()
            .unwrap()
            .schedule();
        let t = PageTable::try_new(16).unwrap().with_shared_prefix(32);
        let step0 = t.step_residency(&schedule.steps()[0]);
        // Used: the shared 32 tokens once (same physical pages) plus
        // each request's 33-token private suffix (65 after the append).
        assert_eq!(step0.used_tokens, 32 + 2 * 33);
        // Allocated: 32 shared once + ceil(33/16)*16 = 48 private each.
        assert_eq!(step0.allocated_tokens, 32 + 2 * 48);
        assert!(step0.used_tokens <= step0.allocated_tokens);

        let unshared = PageTable::try_new(16).unwrap();
        let plain = unshared.step_residency(&schedule.steps()[0]);
        assert!(
            plain.allocated_tokens > step0.allocated_tokens,
            "sharing stores the prefix once: {} vs {}",
            plain.allocated_tokens,
            step0.allocated_tokens
        );
    }
}
