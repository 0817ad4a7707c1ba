//! Itemized energy accounting.

use lumen_units::Energy;
use lumen_workload::TensorKind;
use std::fmt;

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

/// One itemized energy contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyItem {
    /// The contributing component / level (e.g. `"glb"`, `"input-dac"`).
    pub label: String,
    /// Cost class.
    pub category: CostCategory,
    /// The tensor responsible, when attributable.
    pub tensor: Option<TensorKind>,
    /// The energy.
    pub energy: Energy,
}

/// An itemized energy total, summable and queryable by label / category /
/// tensor.
///
/// # Examples
///
/// ```
/// use lumen_core::{CostCategory, EnergyBreakdown};
/// use lumen_units::Energy;
///
/// let mut b = EnergyBreakdown::new();
/// b.add("glb", CostCategory::Storage, None, Energy::from_picojoules(10.0));
/// b.add("adc", CostCategory::Conversion, None, Energy::from_picojoules(5.0));
/// assert_eq!(b.total(), Energy::from_picojoules(15.0));
/// assert_eq!(b.by_category(CostCategory::Conversion), Energy::from_picojoules(5.0));
/// assert_eq!(b.by_label("glb"), Energy::from_picojoules(10.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyBreakdown {
    items: Vec<EnergyItem>,
}

impl EnergyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> EnergyBreakdown {
        EnergyBreakdown { items: Vec::new() }
    }

    /// Adds one contribution (merging with an existing identical
    /// label/category/tensor item). The label becomes an owned `String`
    /// only when it starts a new item.
    pub fn add(
        &mut self,
        label: impl AsRef<str> + Into<String>,
        category: CostCategory,
        tensor: Option<TensorKind>,
        energy: Energy,
    ) {
        if energy == Energy::ZERO {
            return;
        }
        if let Some(item) = self
            .items
            .iter_mut()
            .find(|i| i.label == label.as_ref() && i.category == category && i.tensor == tensor)
        {
            item.energy += energy;
        } else {
            self.items.push(EnergyItem {
                label: label.into(),
                category,
                tensor,
                energy,
            });
        }
    }

    /// All items in insertion order.
    pub fn items(&self) -> &[EnergyItem] {
        &self.items
    }

    /// Sum of everything.
    pub fn total(&self) -> Energy {
        self.items.iter().map(|i| i.energy).sum()
    }

    /// Sum over items with the given label.
    pub fn by_label(&self, label: &str) -> Energy {
        self.items
            .iter()
            .filter(|i| i.label == label)
            .map(|i| i.energy)
            .sum()
    }

    /// Sum over items of the given category.
    pub fn by_category(&self, category: CostCategory) -> Energy {
        self.items
            .iter()
            .filter(|i| i.category == category)
            .map(|i| i.energy)
            .sum()
    }

    /// Sum over items attributed to the given tensor.
    pub fn by_tensor(&self, tensor: TensorKind) -> Energy {
        self.items
            .iter()
            .filter(|i| i.tensor == Some(tensor))
            .map(|i| i.energy)
            .sum()
    }

    /// Sum over items whose label and tensor match.
    pub fn by_label_and_tensor(&self, label: &str, tensor: TensorKind) -> Energy {
        self.items
            .iter()
            .filter(|i| i.label == label && i.tensor == Some(tensor))
            .map(|i| i.energy)
            .sum()
    }

    /// Merges another breakdown into this one, item by item. A label is
    /// cloned only when its item is new here.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        other.add_to(self);
    }

    /// Drives every item into `sink`, in insertion order, with its label
    /// borrowed from this breakdown.
    pub(crate) fn add_to<'a>(&'a self, sink: &mut impl EnergySink<'a>) {
        for item in &self.items {
            sink.add(&item.label, item.category, item.tensor, item.energy);
        }
    }

    /// Returns this breakdown with every item scaled by `factor`
    /// (e.g. `1 / batch` for per-inference energy).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            items: self
                .items
                .iter()
                .map(|i| EnergyItem {
                    label: i.label.clone(),
                    category: i.category,
                    tensor: i.tensor,
                    energy: i.energy * factor,
                })
                .collect(),
        }
    }

    /// Distinct labels in insertion order.
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for item in &self.items {
            if !labels.contains(&item.label.as_str()) {
                labels.push(&item.label);
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

/// Receives the itemized adds of an energy computation, so one add
/// sequence can fill an [`EnergyBreakdown`] or just its total.
pub(crate) trait EnergySink<'a> {
    /// One contribution, with [`EnergyBreakdown::add`]'s meaning.
    fn add(
        &mut self,
        label: &'a str,
        category: CostCategory,
        tensor: Option<TensorKind>,
        energy: Energy,
    );
}

impl<'a> EnergySink<'a> for EnergyBreakdown {
    fn add(
        &mut self,
        label: &'a str,
        category: CostCategory,
        tensor: Option<TensorKind>,
        energy: Energy,
    ) {
        EnergyBreakdown::add(self, label, category, tensor, energy);
    }
}

/// An [`EnergyBreakdown`] reduced to its total, with borrowed labels.
///
/// It skips zero contributions, merges identical label/category/tensor
/// items and sums the items in insertion order, exactly as
/// [`EnergyBreakdown::add`] and [`EnergyBreakdown::total`] do, so the
/// same add sequence yields a bit-identical total. Once its first use
/// has sized the item buffer, [`EnergyTotal::clear`] and further adds
/// allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct EnergyTotal<'a> {
    items: Vec<(&'a str, CostCategory, Option<TensorKind>, Energy)>,
}

impl EnergyTotal<'_> {
    /// Drops every item, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// Sum of everything, as [`EnergyBreakdown::total`].
    pub(crate) fn total(&self) -> Energy {
        self.items.iter().map(|item| item.3).sum()
    }
}

impl<'a> EnergySink<'a> for EnergyTotal<'a> {
    fn add(
        &mut self,
        label: &'a str,
        category: CostCategory,
        tensor: Option<TensorKind>,
        energy: Energy,
    ) {
        if energy == Energy::ZERO {
            return;
        }
        match self
            .items
            .iter_mut()
            .find(|i| i.0 == label && i.1 == category && i.2 == tensor)
        {
            Some(item) => item.3 += energy,
            None => self.items.push((label, category, tensor, energy)),
        }
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
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        let mut b = EnergyBreakdown::new();
        b.add(
            "glb",
            CostCategory::Storage,
            Some(TensorKind::Weight),
            Energy::from_picojoules(4.0),
        );
        b.add(
            "glb",
            CostCategory::Storage,
            Some(TensorKind::Input),
            Energy::from_picojoules(6.0),
        );
        b.add(
            "adc",
            CostCategory::Conversion,
            Some(TensorKind::Output),
            Energy::from_picojoules(10.0),
        );
        b
    }

    #[test]
    fn totals_and_queries() {
        let b = sample();
        assert!((b.total().picojoules() - 20.0).abs() < 1e-9);
        assert!((b.by_label("glb").picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_category(CostCategory::Storage).picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_tensor(TensorKind::Output).picojoules() - 10.0).abs() < 1e-9);
        assert!((b.by_label_and_tensor("glb", TensorKind::Input).picojoules() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn identical_items_merge() {
        let mut b = EnergyBreakdown::new();
        b.add(
            "x",
            CostCategory::Compute,
            None,
            Energy::from_picojoules(1.0),
        );
        b.add(
            "x",
            CostCategory::Compute,
            None,
            Energy::from_picojoules(2.0),
        );
        assert_eq!(b.items().len(), 1);
        assert_eq!(b.total(), Energy::from_picojoules(3.0));
    }

    #[test]
    fn zero_energy_not_recorded() {
        let mut b = EnergyBreakdown::new();
        b.add("x", CostCategory::Compute, None, Energy::ZERO);
        assert!(b.items().is_empty());
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
    fn energy_total_matches_the_scaled_breakdown_bit_for_bit() {
        use CostCategory::{Conversion, PerCycle, Storage};
        // Repeated labels, a zero item, and labels that differ only by
        // tensor; values that round differently in different orders.
        let adds = [
            ("glb", Storage, Some(TensorKind::Weight), 0.1),
            ("glb", Storage, Some(TensorKind::Input), 0.2),
            ("adc", Conversion, None, 0.0),
            ("laser", PerCycle, None, 1e16),
            ("glb", Storage, Some(TensorKind::Weight), 0.7),
            ("adc", Conversion, None, 3.3),
            ("glb", Storage, Some(TensorKind::Output), 1.0 / 3.0),
            ("laser", PerCycle, None, 2.9),
            ("glb", Storage, Some(TensorKind::Input), 1e-9),
        ];
        let mut breakdown = EnergyBreakdown::new();
        let mut total = EnergyTotal::default();
        for (label, category, tensor, pj) in adds {
            let energy = Energy::from_picojoules(pj);
            breakdown.add(label, category, tensor, energy);
            EnergySink::add(&mut total, label, category, tensor, energy);
        }
        // The same items, driven from the breakdown by reference.
        let mut folded = EnergyTotal::default();
        breakdown.add_to(&mut folded);
        let bits = |e: Energy| e.picojoules().to_bits();
        assert_eq!(bits(total.total()), bits(breakdown.total()));
        assert_eq!(bits(folded.total()), bits(breakdown.total()));
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
}
