//! The energy breakdown as a plain item list keyed on owned labels: a
//! reference for [`EnergyBreakdown`]'s semantics in tests.
//!
//! An add skips a zero contribution and otherwise merges into the item
//! with the same *(label, category, tensor)*, found by comparing labels,
//! or starts a new item at the end of the list. Every query sums the
//! matching items in list order. The including module must have
//! `CostCategory`, `Energy`, `EnergyBreakdown` and `TensorKind` in scope.

#![allow(dead_code)]

use super::{CostCategory, Energy, EnergyBreakdown, TensorKind};

/// One item of a [`ReferenceBreakdown`].
pub type ReferenceItem = (String, CostCategory, Option<TensorKind>, Energy);

/// An item-list energy breakdown.
#[derive(Debug, Clone, Default)]
pub struct ReferenceBreakdown {
    items: Vec<ReferenceItem>,
}

impl ReferenceBreakdown {
    /// Adds one contribution.
    pub fn add(
        &mut self,
        label: &str,
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
            None => self
                .items
                .push((label.to_string(), category, tensor, energy)),
        }
    }

    /// All items, in insertion order.
    pub fn items(&self) -> &[ReferenceItem] {
        &self.items
    }

    fn sum_where(&self, keep: impl Fn(&ReferenceItem) -> bool) -> Energy {
        self.items.iter().filter(|i| keep(i)).map(|i| i.3).sum()
    }

    pub fn total(&self) -> Energy {
        self.sum_where(|_| true)
    }

    pub fn by_label(&self, label: &str) -> Energy {
        self.sum_where(|i| i.0 == label)
    }

    pub fn by_category(&self, category: CostCategory) -> Energy {
        self.sum_where(|i| i.1 == category)
    }

    pub fn by_tensor(&self, tensor: TensorKind) -> Energy {
        self.sum_where(|i| i.2 == Some(tensor))
    }

    pub fn by_label_and_tensor(&self, label: &str, tensor: TensorKind) -> Energy {
        self.sum_where(|i| i.0 == label && i.2 == Some(tensor))
    }

    /// Adds every item of `other`, in its order.
    pub fn merge(&mut self, other: &ReferenceBreakdown) {
        for (label, category, tensor, energy) in &other.items {
            self.add(label, *category, *tensor, *energy);
        }
    }

    #[must_use]
    pub fn scaled(&self, factor: f64) -> ReferenceBreakdown {
        let items = self
            .items
            .iter()
            .map(|(label, category, tensor, energy)| {
                (label.clone(), *category, *tensor, *energy * factor)
            })
            .collect();
        ReferenceBreakdown { items }
    }

    /// Distinct labels in insertion order.
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for item in &self.items {
            if !labels.contains(&item.0.as_str()) {
                labels.push(&item.0);
            }
        }
        labels
    }

    /// Asserts that `breakdown` holds these items in this order and
    /// answers every query, bit for bit, as this reference does.
    pub fn assert_matches(&self, breakdown: &EnergyBreakdown) {
        let bits = |e: Energy| e.picojoules().to_bits();
        let items: Vec<_> = breakdown
            .items()
            .map(|i| (i.label, i.category, i.tensor, bits(i.energy)))
            .collect();
        let expected: Vec<_> = self
            .items
            .iter()
            .map(|i| (i.0.as_str(), i.1, i.2, bits(i.3)))
            .collect();
        assert_eq!(items, expected, "items");
        assert_eq!(breakdown.labels(), self.labels(), "labels");
        assert_eq!(bits(breakdown.total()), bits(self.total()), "total");
        let mut labels = self.labels();
        labels.push("absent");
        for label in labels {
            assert_eq!(
                bits(breakdown.by_label(label)),
                bits(self.by_label(label)),
                "{label}"
            );
            for tensor in TensorKind::ALL {
                assert_eq!(
                    bits(breakdown.by_label_and_tensor(label, tensor)),
                    bits(self.by_label_and_tensor(label, tensor)),
                    "{label}/{tensor:?}"
                );
            }
        }
        for category in [
            CostCategory::Storage,
            CostCategory::Conversion,
            CostCategory::Compute,
            CostCategory::PerCycle,
            CostCategory::Static,
        ] {
            assert_eq!(
                bits(breakdown.by_category(category)),
                bits(self.by_category(category)),
                "{category}"
            );
        }
        for tensor in TensorKind::ALL {
            assert_eq!(
                bits(breakdown.by_tensor(tensor)),
                bits(self.by_tensor(tensor)),
                "{tensor:?}"
            );
        }
    }
}
