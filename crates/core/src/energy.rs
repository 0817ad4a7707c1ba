//! Itemized energy accounting.

use lumen_arch::Architecture;
use lumen_units::Energy;
use lumen_workload::{TensorKind, TensorMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The kind of cost an [`EnergyItem`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostCategory {
    /// Buffer / memory accesses.
    Storage,
    /// Cross-domain data conversion (DAC, ADC, modulation, detection).
    Conversion,
    /// Multiply-accumulate arithmetic.
    Compute,
    /// Data-independent per-cycle costs (laser, thermal tuning).
    PerCycle,
    /// Leakage / bias integrated over the runtime.
    Static,
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostCategory::Storage => "storage",
            CostCategory::Conversion => "conversion",
            CostCategory::Compute => "compute",
            CostCategory::PerCycle => "per-cycle",
            CostCategory::Static => "static",
        };
        write!(f, "{s}")
    }
}

/// One itemized energy contribution, its label borrowed from the
/// architecture's item table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyItem<'a> {
    /// The contributing component / level (e.g. `"glb"`, `"input-dac"`).
    pub label: &'a str,
    /// Cost class.
    pub category: CostCategory,
    /// The tensor responsible, when attributable.
    pub tensor: Option<TensorKind>,
    /// The energy.
    pub energy: Energy,
}

/// The identity of an energy item: contributions with equal keys merge,
/// whatever their source.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ItemKey {
    category: CostCategory,
    tensor: Option<TensorKind>,
    /// The label's bytes in its table's `text`.
    label: Range<usize>,
}

/// Every energy item one architecture can charge, each *(label,
/// category, tensor)* under a dense id, built once per
/// [`System`](crate::System) and shared by all its breakdowns.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct EnergyTable {
    /// Every item's label, concatenated: one allocation, not one per
    /// item, since a table is built with every `System`.
    text: String,
    keys: Vec<ItemKey>,
    /// Per level and tensor, the level's item: a conversion at a
    /// converter, an access anywhere else. A fusion reroute charges its
    /// target level's item; only a storage level has access energies.
    pub(crate) levels: Vec<TensorMap<usize>>,
    /// The compute level's MAC item.
    pub(crate) compute: usize,
    /// Per per-cycle cost, in the architecture's order, its item.
    pub(crate) per_cycle: Vec<usize>,
    /// The leakage item.
    pub(crate) static_term: usize,
}

impl EnergyTable {
    /// The items `arch`'s evaluations charge.
    pub(crate) fn new(arch: &Architecture) -> EnergyTable {
        let mut table = EnergyTable::default();
        for level in arch.levels() {
            let category = if level.kind().is_converter() {
                CostCategory::Conversion
            } else {
                CostCategory::Storage
            };
            let items = TensorMap::from_fn(|t| table.intern(level.name(), category, Some(t)));
            table.levels.push(items);
        }
        table.compute = table.intern(arch.compute_level().name(), CostCategory::Compute, None);
        for cost in arch.per_cycle_costs() {
            let id = table.intern(&cost.name, CostCategory::PerCycle, None);
            table.per_cycle.push(id);
        }
        table.static_term = table.intern("static", CostCategory::Static, None);
        table
    }

    /// The id of the item *(label, category, tensor)*, added if new.
    pub(crate) fn intern(
        &mut self,
        label: &str,
        category: CostCategory,
        tensor: Option<TensorKind>,
    ) -> usize {
        let found = self
            .keys
            .iter()
            .position(|k| k.category == category && k.tensor == tensor && self.label(k) == label);
        found.unwrap_or_else(|| {
            let start = self.text.len();
            self.text.push_str(label);
            let label = start..self.text.len();
            self.keys.push(ItemKey {
                category,
                tensor,
                label,
            });
            self.keys.len() - 1
        })
    }

    /// The label of `key`.
    fn label(&self, key: &ItemKey) -> &str {
        &self.text[key.label.clone()]
    }
}

/// An itemized energy total, summable and queryable by label / category /
/// tensor.
///
/// Its items are those of the evaluated architecture's item table. A
/// zero contribution is skipped, contributions to one item merge, and
/// every total sums the items in the order they were first added to.
///
/// # Examples
///
/// ```
/// use lumen_arch::{ArchBuilder, Domain};
/// use lumen_core::{CostCategory, MappingStrategy, System};
/// use lumen_units::{Energy, Frequency};
/// use lumen_workload::{Layer, TensorKind, TensorSet};
///
/// let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
///     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
///     .read_energy(Energy::from_picojoules(10.0))
///     .done()
///     .compute("mac", Domain::DigitalElectrical, Energy::from_picojoules(0.5))
///     .build()
///     .unwrap();
/// let system = System::new(arch, MappingStrategy::default());
/// let energy = system
///     .evaluate_layer(&Layer::fully_connected("fc", 1, 4, 8))
///     .unwrap()
///     .energy;
/// assert_eq!(energy.labels(), ["dram", "mac"]);
/// // 32 MACs at 0.5 pJ, each reading its input from DRAM at 10 pJ.
/// assert_eq!(energy.by_category(CostCategory::Compute), Energy::from_picojoules(16.0));
/// assert_eq!(energy.by_label_and_tensor("dram", TensorKind::Input), Energy::from_picojoules(320.0));
/// assert_eq!(energy.share_of_label("mac"), 16.0 / energy.total().picojoules());
/// ```
#[derive(Clone, PartialEq)]
pub struct EnergyBreakdown {
    table: Arc<EnergyTable>,
    /// The energy of each item id, zero where nothing was added.
    energy: Vec<Energy>,
    /// One bit per item id: whether anything was added to it.
    seen: Vec<u64>,
    /// The ids added to, in first-seen order: the order totals sum in.
    order: Vec<usize>,
}

impl EnergyBreakdown {
    /// An empty breakdown over `table`'s items.
    pub(crate) fn new(table: Arc<EnergyTable>) -> EnergyBreakdown {
        EnergyBreakdown {
            energy: vec![Energy::ZERO; table.keys.len()],
            seen: vec![0; table.keys.len().div_ceil(64)],
            order: Vec::new(),
            table,
        }
    }

    /// Adds one contribution to item `id`; a zero one is skipped.
    pub(crate) fn add(&mut self, id: usize, energy: Energy) {
        if energy == Energy::ZERO {
            return;
        }
        self.see(id);
        // The first add leaves exactly `energy`: zero plus a nonzero
        // value is that value.
        self.energy[id] += energy;
    }

    /// Puts `id` in the first-seen order, unless it is there already.
    fn see(&mut self, id: usize) {
        let (word, bit) = (id / 64, 1 << (id % 64));
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.order.push(id);
        }
    }

    /// Drops every item, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        for &id in &self.order {
            self.energy[id] = Energy::ZERO;
        }
        self.seen.fill(0);
        self.order.clear();
    }

    /// The sum over the items whose key `keep` accepts, in first-seen
    /// order.
    fn sum_where(&self, keep: impl Fn(&ItemKey) -> bool) -> Energy {
        self.order
            .iter()
            .filter(|&&id| keep(&self.table.keys[id]))
            .map(|&id| self.energy[id])
            .sum()
    }

    /// All items in first-seen order.
    pub fn items(&self) -> impl Iterator<Item = EnergyItem<'_>> + '_ {
        self.order.iter().map(|&id| {
            let key = &self.table.keys[id];
            EnergyItem {
                label: self.table.label(key),
                category: key.category,
                tensor: key.tensor,
                energy: self.energy[id],
            }
        })
    }

    /// Sum of everything.
    pub fn total(&self) -> Energy {
        self.sum_where(|_| true)
    }

    /// Sum over items with the given label.
    pub fn by_label(&self, label: &str) -> Energy {
        self.sum_where(|k| self.table.label(k) == label)
    }

    /// Sum over items of the given category.
    pub fn by_category(&self, category: CostCategory) -> Energy {
        self.sum_where(|k| k.category == category)
    }

    /// Sum over items attributed to the given tensor.
    pub fn by_tensor(&self, tensor: TensorKind) -> Energy {
        self.sum_where(|k| k.tensor == Some(tensor))
    }

    /// Sum over items whose label and tensor match.
    pub fn by_label_and_tensor(&self, label: &str, tensor: TensorKind) -> Energy {
        self.sum_where(|k| self.table.label(k) == label && k.tensor == Some(tensor))
    }

    /// Merges another breakdown of the same architecture into this one:
    /// each of its items is added as by one add, in its first-seen
    /// order.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        // Sessions sharing a cache hold equal tables behind distinct
        // `Arc`s, so this compares contents.
        debug_assert!(
            self.table == other.table,
            "merged breakdowns of different architectures"
        );
        // Only an id the other has seen and this one has not can extend
        // the order: the common case, none, skips the scan.
        if other.seen.iter().zip(&self.seen).any(|(o, s)| o & !s != 0) {
            for &id in &other.order {
                if other.energy[id] != Energy::ZERO {
                    self.see(id);
                }
            }
        }
        // Every other entry of `other` is a zero, and adding a zero leaves
        // a sum's bits unchanged unless that sum is -0.0, which no add or
        // merge makes (only `scaled` can).
        for (sum, &energy) in self.energy.iter_mut().zip(&other.energy) {
            *sum += energy;
        }
    }

    /// Returns this breakdown with every item scaled by `factor`
    /// (e.g. `1 / batch` for per-inference energy).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        let mut scaled = self.clone();
        for &id in &self.order {
            scaled.energy[id] = self.energy[id] * factor;
        }
        scaled
    }

    /// Distinct labels in first-seen order.
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for item in self.items() {
            if !labels.contains(&item.label) {
                labels.push(item.label);
            }
        }
        labels
    }

    /// The fraction of the total contributed by `label` (0..=1; 0 if the
    /// total is zero).
    pub fn share_of_label(&self, label: &str) -> f64 {
        let total = self.total();
        if total == Energy::ZERO {
            0.0
        } else {
            self.by_label(label).ratio(total)
        }
    }
}

impl fmt::Debug for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items()).finish()
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        for label in self.labels() {
            let e = self.by_label(label);
            writeln!(
                f,
                "  {:<24} {:>14}  ({:>5.1}%)",
                label,
                format!("{e}"),
                100.0 * self.share_of_label(label)
            )?;
        }
        writeln!(f, "  {:<24} {:>14}", "TOTAL", format!("{total}"))
    }
}

#[cfg(test)]
#[path = "../tests/support/energy_reference.rs"]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::ReferenceBreakdown;
    use super::*;
    use CostCategory::{Compute, Conversion, PerCycle, Storage};

    /// The items the tests draw from, interned in reverse so that ids
    /// and first-seen order disagree.
    const KEYS: [(&str, CostCategory, Option<TensorKind>); 8] = [
        ("glb", Storage, Some(TensorKind::Weight)),
        ("glb", Storage, Some(TensorKind::Input)),
        ("glb", Storage, Some(TensorKind::Output)),
        ("adc", Conversion, Some(TensorKind::Output)),
        ("adc", Conversion, None),
        ("laser", PerCycle, None),
        ("laser", Storage, Some(TensorKind::Input)),
        ("mac", Compute, None),
    ];

    fn table() -> Arc<EnergyTable> {
        let mut table = EnergyTable::default();
        for &(label, category, tensor) in KEYS.iter().rev() {
            table.intern(label, category, tensor);
        }
        Arc::new(table)
    }

    /// The library breakdown and the reference after the same adds,
    /// each `(KEYS index, picojoules)`.
    fn both(
        table: &Arc<EnergyTable>,
        adds: &[(usize, f64)],
    ) -> (EnergyBreakdown, ReferenceBreakdown) {
        let mut breakdown = EnergyBreakdown::new(Arc::clone(table));
        let mut reference = ReferenceBreakdown::default();
        for &(key, pj) in adds {
            let (label, category, tensor) = KEYS[key];
            let id = table
                .keys
                .iter()
                .position(|k| {
                    table.label(k) == label && k.category == category && k.tensor == tensor
                })
                .unwrap();
            let energy = Energy::from_picojoules(pj);
            breakdown.add(id, energy);
            reference.add(label, category, tensor, energy);
        }
        (breakdown, reference)
    }

    fn sample() -> EnergyBreakdown {
        both(&table(), &[(0, 4.0), (1, 6.0), (3, 10.0)]).0
    }

    #[test]
    fn totals_and_queries() {
        let b = sample();
        assert!((b.total().picojoules() - 20.0).abs() < 1e-9);
        assert!((b.by_label("glb").picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_category(Storage).picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_tensor(TensorKind::Output).picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_label_and_tensor("glb", TensorKind::Input).picojoules() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn identical_items_merge() {
        let (b, _) = both(&table(), &[(7, 1.0), (7, 2.0)]);
        assert_eq!(b.items().count(), 1);
        assert_eq!(b.total(), Energy::from_picojoules(3.0));
    }

    #[test]
    fn zero_energy_not_recorded() {
        let (b, _) = both(&table(), &[(4, 0.0), (4, -0.0)]);
        assert_eq!(b.items().count(), 0);
        assert_eq!(b, EnergyBreakdown::new(table()));
    }

    #[test]
    fn a_sum_returning_to_zero_keeps_its_place() {
        let adds = [(5, 0.1), (0, 2.0), (5, -0.1), (3, 1.0)];
        let (b, reference) = both(&table(), &adds);
        reference.assert_matches(&b);
        assert_eq!(b.labels(), ["laser", "glb", "adc"]);
        assert_eq!(b.by_label("laser"), Energy::ZERO);
        // Merged elsewhere, the zero item is skipped like any zero add.
        let mut merged = both(&table(), &[(3, 5.0)]).0;
        merged.merge(&b);
        assert_eq!(merged.labels(), ["adc", "glb"]);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = sample();
        a.merge(&sample());
        assert!((a.total().picojoules() - 40.0).abs() < 1e-9);
        let quarter = a.scaled(0.25);
        assert!((quarter.total().picojoules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn clear_empties_for_reuse() {
        let mut b = sample();
        b.clear();
        assert_eq!(b.items().count(), 0);
        assert_eq!(b, EnergyBreakdown::new(table()));
    }

    #[test]
    fn equal_tables_behind_distinct_arcs_merge() {
        let mut a = sample();
        let (b, _) = both(&table(), &[(2, 1.5)]);
        assert!(!Arc::ptr_eq(&a.table, &b.table));
        a.merge(&b);
        assert_eq!(a.labels(), ["glb", "adc"]);
    }

    #[test]
    fn shares_sum_to_one() {
        let b = sample();
        let s: f64 = b.labels().iter().map(|l| b.share_of_label(l)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labels_keep_insertion_order() {
        let b = sample();
        assert_eq!(b.labels(), vec!["glb", "adc"]);
    }

    #[test]
    fn display_contains_percentages() {
        let shown = format!("{}", sample());
        assert!(shown.contains("TOTAL") && shown.contains('%'));
    }

    /// Values whose sums round differently in different orders, zeros of
    /// both signs, and a pair that cancels exactly.
    const VALUES: [f64; 9] = [0.0, -0.0, 0.1, -0.1, 1e16, 1.0 / 3.0, 2.9, -2.9, 1e-9];

    fn adds() -> impl proptest::strategy::Strategy<Value = Vec<(usize, f64)>> {
        use proptest::prelude::*;
        proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..24)
            .prop_map(|adds| adds.into_iter().map(|(k, v)| (k, VALUES[v])).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Adds, merges and scales answer every query exactly as the
        /// item-list reference does.
        #[test]
        fn breakdown_matches_the_item_list_reference(
            first in adds(),
            second in adds(),
            factor in 0usize..4,
        ) {
            let factor = [1.0, 0.25, 0.1, 1.0 / 7.0][factor];
            let table = table();
            let (mut a, mut a_ref) = both(&table, &first);
            let (b, b_ref) = both(&table, &second);
            a_ref.assert_matches(&a);
            b_ref.assert_matches(&b);
            a_ref.scaled(factor).assert_matches(&a.scaled(factor));
            a.merge(&b);
            a_ref.merge(&b_ref);
            a_ref.assert_matches(&a);
            a_ref.scaled(factor).assert_matches(&a.scaled(factor));
            // A cleared breakdown refills exactly as a fresh one.
            a.clear();
            a_ref = ReferenceBreakdown::default();
            a.merge(&b);
            a_ref.merge(&b_ref);
            a_ref.assert_matches(&a);
        }
    }
}
