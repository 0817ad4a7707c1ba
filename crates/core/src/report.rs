//! ASCII-table and CSV rendering for evaluations.

use crate::{EnergyBreakdown, NetworkEvaluation};
use lumen_units::Energy;

/// A simple left-aligned-first-column ASCII table builder.
///
/// # Examples
///
/// ```
/// use lumen_core::report::Table;
/// let mut t = Table::new(vec!["config".into(), "energy".into()]);
/// t.row(vec!["baseline".into(), "1.00".into()]);
/// t.row(vec!["batched".into(), "0.41".into()]);
/// let s = t.render();
/// assert!(s.contains("baseline"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Table {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded / truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Table {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map_or("", String::as_str);
                if i == 0 {
                    line.push_str(&format!("{cell:<width$}"));
                } else {
                    line.push_str(&format!("{cell:>width$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Renders an energy breakdown grouped by label as a table, with shares.
pub fn breakdown_table(breakdown: &EnergyBreakdown) -> Table {
    let mut t = Table::new(vec!["component".into(), "energy".into(), "share".into()]);
    for label in breakdown.labels() {
        t.row(vec![
            label.to_string(),
            format!("{}", breakdown.by_label(label)),
            format!("{:.1}%", 100.0 * breakdown.share_of_label(label)),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        format!("{}", breakdown.total()),
        "100.0%".into(),
    ]);
    t
}

/// Renders a per-layer summary of a network evaluation.
pub fn network_table(eval: &NetworkEvaluation) -> Table {
    let mut t = Table::new(vec![
        "layer".into(),
        "macs".into(),
        "cycles".into(),
        "util".into(),
        "energy".into(),
        "pJ/MAC".into(),
    ]);
    for layer in &eval.per_layer {
        t.row(vec![
            layer.layer_name.clone(),
            layer.analysis.macs.to_string(),
            layer.analysis.cycles.to_string(),
            format!("{:.1}%", 100.0 * layer.analysis.utilization),
            format!("{}", layer.energy.total()),
            format!("{:.4}", layer.energy_per_mac().picojoules()),
        ]);
    }
    t.row(vec![
        "TOTAL/inference".into(),
        eval.macs.to_string(),
        format!("{:.0}", eval.cycles),
        format!("{:.1}%", 100.0 * eval.average_utilization()),
        format!("{}", eval.energy.total()),
        format!("{:.4}", eval.energy_per_mac().picojoules()),
    ]);
    t
}

/// Renders a per-layer summary with identical layers collapsed into one
/// row carrying a multiplicity column (`x12` for the twelve copies of a
/// BERT encoder layer), instead of twelve duplicate rows.
///
/// Rows are grouped by [`lumen_workload::LayerSignature`] *and*
/// bit-equal results — layers whose signatures match but whose energies
/// differ (e.g. the fused first/last layers of a network) keep separate
/// rows. Display is opt-in: [`network_table`] keeps the one-row-per-layer
/// rendering the golden drivers pin.
pub fn network_table_deduped(eval: &NetworkEvaluation) -> Table {
    let mut t = Table::new(vec![
        "layer".into(),
        "mult".into(),
        "macs".into(),
        "cycles".into(),
        "util".into(),
        "energy".into(),
        "pJ/MAC".into(),
    ]);
    // (signature, cycles, energy bits) -> row index; first-occurrence order.
    let mut groups: Vec<(usize, usize)> = Vec::new(); // (first layer idx, count)
    for (i, layer) in eval.per_layer.iter().enumerate() {
        let key_of = |l: &crate::LayerEvaluation| {
            (
                l.signature,
                l.analysis.cycles,
                l.energy.total().picojoules().to_bits(),
            )
        };
        match groups
            .iter_mut()
            .find(|(first, _)| key_of(&eval.per_layer[*first]) == key_of(layer))
        {
            Some((_, count)) => *count += 1,
            None => groups.push((i, 1)),
        }
    }
    for (first, count) in groups {
        let layer = &eval.per_layer[first];
        t.row(vec![
            layer.layer_name.clone(),
            format!("x{count}"),
            layer.analysis.macs.to_string(),
            layer.analysis.cycles.to_string(),
            format!("{:.1}%", 100.0 * layer.analysis.utilization),
            format!("{}", layer.energy.total()),
            format!("{:.4}", layer.energy_per_mac().picojoules()),
        ]);
    }
    t.row(vec![
        "TOTAL/inference".into(),
        format!("x{}", eval.per_layer.len()),
        eval.macs.to_string(),
        format!("{:.0}", eval.cycles),
        format!("{:.1}%", 100.0 * eval.average_utilization()),
        format!("{}", eval.energy.total()),
        format!("{:.4}", eval.energy_per_mac().picojoules()),
    ]);
    t
}

/// Formats an energy as `pJ` with fixed decimals (for figure-style rows).
pub fn pj(e: Energy) -> String {
    format!("{:.4}", e.picojoules())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostCategory;

    #[test]
    fn table_alignment_and_separator() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["xx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric column.
        assert!(lines[2].ends_with(" 1"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["name".into(), "v".into()]);
        t.row(vec!["a,b".into(), "1".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
    }

    #[test]
    fn row_pads_missing_cells() {
        let mut t = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["only".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn deduped_table_collapses_identical_layers() {
        use crate::{MappingStrategy, NetworkOptions, System};
        use lumen_arch::{ArchBuilder, Domain, Fanout};
        use lumen_units::Frequency;
        use lumen_workload::{Dim, DimSet, Layer, Network, TensorSet};
        let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(100.0))
            .write_energy(Energy::from_picojoules(100.0))
            .done()
            .storage("glb", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(1.0))
            .write_energy(Energy::from_picojoules(1.0))
            .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
            .done()
            .compute(
                "mac",
                Domain::DigitalElectrical,
                Energy::from_picojoules(0.05),
            )
            .build()
            .unwrap();
        let system = System::new(arch, MappingStrategy::default());
        let net = Network::new("n")
            .push(Layer::conv2d("a0", 1, 8, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("b", 1, 16, 8, 8, 8, 3, 3))
            .push(Layer::conv2d("a1", 1, 8, 8, 8, 8, 3, 3));
        let eval = system
            .evaluate_network(&net, &NetworkOptions::baseline())
            .unwrap();
        let plain = network_table(&eval);
        assert_eq!(plain.len(), 4, "3 layers + total");
        let deduped = network_table_deduped(&eval);
        assert_eq!(deduped.len(), 3, "2 unique rows + total");
        let s = deduped.render();
        assert!(s.contains("x2") && s.contains("x1") && s.contains("x3"));
        assert!(s.contains("a0") && !s.contains("a1"), "first name kept");
    }

    #[test]
    fn breakdown_table_has_total_row() {
        let mut table = crate::energy::EnergyTable::default();
        let glb = table.intern("glb", CostCategory::Storage, None);
        let mut b = EnergyBreakdown::new(std::sync::Arc::new(table));
        b.add(glb, Energy::from_picojoules(5.0));
        let t = breakdown_table(&b);
        let s = t.render();
        assert!(s.contains("TOTAL") && s.contains("glb"));
    }
}
