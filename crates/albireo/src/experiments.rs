//! Drivers that regenerate every figure of the paper's evaluation.
//!
//! Each function returns a structured result with the same rows/series the
//! paper plots, renderable as an ASCII table (`table()` / `Display`). The
//! benches in `lumen-bench` and the `lumen` CLI call straight into these.

use crate::harness::Testbed;
pub use crate::harness::{NetworkRow, PhotonicVsDigital, TokenRates};
use crate::{reference, reference_layer, AlbireoConfig, ScalingProfile, WeightReuse};
use lumen_core::report::Table;
use lumen_core::{
    CacheStats, EnergyBreakdown, EvalCache, EvalSession, NetworkOptions, SweepRunner, SystemError,
};
use lumen_workload::{networks, ServingError};
use std::fmt;
use std::sync::Arc;

/// Sums breakdown labels into one of the paper's component buckets.
fn bucket_pj(breakdown: &EnergyBreakdown, labels: &[&str]) -> f64 {
    labels
        .iter()
        .map(|l| breakdown.by_label(l).picojoules())
        .sum()
}

/// The Fig. 2 / Fig. 4 / Fig. 5 label groupings.
mod buckets {
    pub const MRR: &[&str] = &["mrr-tuning"];
    pub const MZM: &[&str] = &["input-mzm"];
    pub const LASER: &[&str] = &["laser"];
    pub const AO_AE: &[&str] = &["output-pd"];
    pub const DE_AE: &[&str] = &["weight-dac", "input-dac"];
    pub const AE_DE: &[&str] = &["output-adc"];
    pub const CACHE: &[&str] = &["glb"];
    pub const DRAM: &[&str] = &["dram"];
    pub const OTHER_AO: &[&str] = &["laser", "mrr-tuning", "star-coupler", "pe", "static"];
    pub const WEIGHT_CONV: &[&str] = &["weight-dac"];
    pub const INPUT_CONV: &[&str] = &["input-dac", "input-mzm"];
    pub const OUTPUT_CONV: &[&str] = &["output-adc", "output-pd"];
}

// ---------------------------------------------------------------------
// Fig. 2 — energy-breakdown validation
// ---------------------------------------------------------------------

/// One scaling corner of the Fig. 2 validation.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The scaling corner.
    pub scaling: ScalingProfile,
    /// Modeled pJ/MAC per component, [`reference::FIG2_COMPONENTS`] order.
    pub modeled: [f64; 7],
    /// Reported pJ/MAC per component.
    pub reported: [f64; 7],
}

impl Fig2Row {
    /// Modeled total pJ/MAC.
    pub fn modeled_total(&self) -> f64 {
        self.modeled.iter().sum()
    }

    /// Reported total pJ/MAC.
    pub fn reported_total(&self) -> f64 {
        self.reported.iter().sum()
    }

    /// Relative error of the modeled total.
    pub fn total_error(&self) -> f64 {
        (self.modeled_total() - self.reported_total()).abs() / self.reported_total()
    }
}

/// The Fig. 2 result: modeled vs reported best-case energy breakdowns.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// One row per scaling corner.
    pub rows: Vec<Fig2Row>,
}

impl Fig2Result {
    /// Average relative error of the per-corner totals (the paper reports
    /// 0.4%).
    pub fn average_error(&self) -> f64 {
        self.rows.iter().map(Fig2Row::total_error).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the figure as a table (one modeled + one reported line per
    /// corner).
    pub fn table(&self) -> Table {
        let mut header = vec!["scaling".to_string(), "series".to_string()];
        header.extend(reference::FIG2_COMPONENTS.iter().map(ToString::to_string));
        header.push("total".into());
        let mut t = Table::new(header);
        for row in &self.rows {
            for (series, values) in [("Model", &row.modeled), ("Reported", &row.reported)] {
                let mut cells = vec![row.scaling.to_string(), series.to_string()];
                cells.extend(values.iter().map(|v| format!("{v:.3}")));
                cells.push(format!("{:.3}", values.iter().sum::<f64>()));
                t.row(cells);
            }
        }
        t
    }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 2 — best-case energy breakdown (pJ/MAC)")?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "average total error: {:.2}%",
            100.0 * self.average_error()
        )
    }
}

/// Reproduces Fig. 2: the best-case per-MAC energy breakdown of Albireo
/// under three scaling corners, modeled bottom-up and compared against the
/// reported values.
pub fn fig2_energy_breakdown() -> Result<Fig2Result, SystemError> {
    let layer = reference_layer();
    let rows = SweepRunner::new().try_run(ScalingProfile::ALL, |scaling| {
        let session = EvalSession::new(AlbireoConfig::new(scaling).build_system())
            .with_runner(SweepRunner::with_threads(1));
        let eval = session.evaluate_layer(&layer)?;
        let macs = eval.analysis.macs as f64;
        let per_mac = |labels: &[&str]| bucket_pj(&eval.energy, labels) / macs;
        let modeled = [
            per_mac(buckets::MRR),
            per_mac(buckets::MZM),
            per_mac(buckets::LASER),
            per_mac(buckets::AO_AE),
            per_mac(buckets::DE_AE),
            per_mac(buckets::AE_DE),
            per_mac(buckets::CACHE),
        ];
        Ok::<_, SystemError>(Fig2Row {
            scaling,
            modeled,
            reported: reference::reported_row(scaling),
        })
    })?;
    Ok(Fig2Result { rows })
}

// ---------------------------------------------------------------------
// Fig. 3 — throughput
// ---------------------------------------------------------------------

/// One network of the Fig. 3 throughput comparison.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload name.
    pub network: String,
    /// Peak MACs/cycle (100% utilization).
    pub ideal: f64,
    /// The throughput reported by the Albireo paper.
    pub reported: f64,
    /// Lumen's modeled throughput (captures under-utilization).
    pub modeled: f64,
}

/// The Fig. 3 result.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// One row per workload.
    pub rows: Vec<Fig3Row>,
}

impl Fig3Result {
    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "network".into(),
            "ideal".into(),
            "reported".into(),
            "modeled".into(),
            "modeled/ideal".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.network.clone(),
                format!("{:.0}", row.ideal),
                format!("{:.0}", row.reported),
                format!("{:.0}", row.modeled),
                format!("{:.1}%", 100.0 * row.modeled / row.ideal),
            ]);
        }
        t
    }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 3 — throughput (MACs/cycle)")?;
        write!(f, "{}", self.table().render())
    }
}

/// Reproduces Fig. 3: ideal vs reported vs modeled throughput for VGG16
/// and AlexNet on conservative Albireo. The model captures the
/// under-utilization from strided convolutions and fully-connected layers
/// that the reported numbers gloss over.
pub fn fig3_throughput() -> Result<Fig3Result, SystemError> {
    // One session for both workloads: the parallelism lives inside
    // `evaluate_network`'s unique-layer fan-out, and repeated layer
    // shapes (VGG's stacked 3x3 stages) evaluate once.
    let session = EvalSession::new(AlbireoConfig::new(ScalingProfile::Conservative).build_system());
    let ideal = session.system().arch().peak_parallelism() as f64;
    let mut rows = Vec::new();
    for (name, reported) in reference::REPORTED_FIG3 {
        // Both reference names resolve (`networks::by_name`'s own tests
        // pin that), so nothing is skipped here.
        let Some(net) = networks::by_name(name) else {
            continue;
        };
        let eval = session.evaluate_network(&net, &NetworkOptions::baseline())?;
        rows.push(Fig3Row {
            network: name.to_string(),
            ideal,
            reported,
            modeled: eval.throughput_macs_per_cycle(),
        });
    }
    Ok(Fig3Result { rows })
}

// ---------------------------------------------------------------------
// Fig. 4 — full-system (accelerator + DRAM) memory exploration
// ---------------------------------------------------------------------

/// The Fig. 4 / Fig. 5 energy segments, in display order.
pub const MEMORY_SEGMENTS: [&str; 6] = [
    "Other AO",
    "Weight DE/AE, AE/AO",
    "Input DE/AE, AE/AO",
    "Output AO/AE, AE/DE",
    "On-Chip Buffer",
    "DRAM",
];

/// One bar of the Fig. 4 exploration.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The scaling corner.
    pub scaling: ScalingProfile,
    /// Whether inputs/outputs are batched (batch 16).
    pub batched: bool,
    /// Whether inter-layer activations are fused into the global buffer.
    pub fused: bool,
    /// Per-inference energy per segment in millijoules,
    /// [`MEMORY_SEGMENTS`] order.
    pub segments_mj: [f64; 6],
    /// Total normalized to the same corner's non-batched, non-fused bar.
    pub normalized_total: f64,
}

impl Fig4Row {
    /// Per-inference total in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.segments_mj.iter().sum()
    }

    /// DRAM's share of this bar (0..=1).
    pub fn dram_share(&self) -> f64 {
        self.segments_mj[5] / self.total_mj()
    }
}

/// The Fig. 4 result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Eight bars: two corners × batched × fused.
    pub rows: Vec<Fig4Row>,
}

impl Fig4Result {
    /// The bar for a given configuration, if the sweep ran it.
    pub fn row(&self, scaling: ScalingProfile, batched: bool, fused: bool) -> Option<&Fig4Row> {
        self.rows
            .iter()
            .find(|r| r.scaling == scaling && r.batched == batched && r.fused == fused)
    }

    /// Energy reduction of batching + fusion at a corner (the paper: 67%
    /// for aggressive scaling, a 3× improvement), if the sweep ran it.
    pub fn combined_reduction(&self, scaling: ScalingProfile) -> Option<f64> {
        let base = self.row(scaling, false, false)?.total_mj();
        let best = self.row(scaling, true, true)?.total_mj();
        Some(1.0 - best / base)
    }

    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut header = vec!["config".to_string()];
        header.extend(MEMORY_SEGMENTS.iter().map(ToString::to_string));
        header.extend(["total (mJ)".to_string(), "normalized".to_string()]);
        let mut t = Table::new(header);
        for row in &self.rows {
            let name = format!(
                "{} {} {}",
                row.scaling,
                if row.fused { "fused" } else { "not-fused" },
                if row.batched {
                    "batched"
                } else {
                    "non-batched"
                },
            );
            let mut cells = vec![name];
            cells.extend(row.segments_mj.iter().map(|v| format!("{v:.3}")));
            cells.push(format!("{:.3}", row.total_mj()));
            cells.push(format!("{:.3}", row.normalized_total));
            t.row(cells);
        }
        t
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 4 — ResNet18 full-system energy (per inference, normalized per scaling)"
        )?;
        write!(f, "{}", self.table().render())?;
        for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
            if let (Some(base), Some(reduction)) = (
                self.row(scaling, false, false),
                self.combined_reduction(scaling),
            ) {
                writeln!(
                    f,
                    "{scaling}: baseline DRAM share {:.0}%, batching+fusion reduce energy {:.0}%",
                    100.0 * base.dram_share(),
                    100.0 * reduction,
                )?;
            }
        }
        Ok(())
    }
}

fn memory_segments(energy: &EnergyBreakdown) -> [f64; 6] {
    let mj = |labels: &[&str]| bucket_pj(energy, labels) / 1e9;
    [
        mj(buckets::OTHER_AO),
        mj(buckets::WEIGHT_CONV),
        mj(buckets::INPUT_CONV),
        mj(buckets::OUTPUT_CONV),
        mj(buckets::CACHE),
        mj(buckets::DRAM),
    ]
}

/// Reproduces Fig. 4: connecting Albireo to DRAM and exploring batching
/// (batch 16) and fused-layer dataflows (activations pinned in an enlarged
/// global buffer) on ResNet18, for the conservative and aggressive
/// corners.
pub fn fig4_memory_exploration() -> Result<Fig4Result, SystemError> {
    let net = networks::resnet18();
    let mut corners = Vec::new();
    for scaling in [ScalingProfile::Conservative, ScalingProfile::Aggressive] {
        for fused in [false, true] {
            for batched in [false, true] {
                corners.push((scaling, fused, batched));
            }
        }
    }
    // One cache across all eight bars. Each bar is a distinct
    // (architecture, batch, reroute) combination, so the payoff here is
    // within-bar: ResNet18's repeated residual stages evaluate once per
    // bar; the shared cache additionally serves any caller rerunning the
    // exploration in-process.
    let cache = EvalCache::shared();
    let mut rows = SweepRunner::new().try_run(corners, |(scaling, fused, batched)| {
        // Fusion needs a buffer large enough for inter-layer
        // activations; the paper notes this costs buffer energy.
        let glb_mib = if fused { 16 } else { 4 };
        let system = AlbireoConfig::new(scaling)
            .with_glb_mebibytes(glb_mib)
            .build_system();
        let session = EvalSession::new(system)
            .with_cache(Arc::clone(&cache))
            .with_runner(SweepRunner::with_threads(1));
        let mut options = NetworkOptions::baseline();
        if batched {
            options = options.with_batch(16);
        }
        if fused {
            options = options.with_fusion("dram", "glb");
        }
        let eval = session.evaluate_network(&net, &options)?;
        let segments_mj = memory_segments(&eval.energy);
        Ok::<_, SystemError>(Fig4Row {
            scaling,
            batched,
            fused,
            segments_mj,
            // Filled in below once the corner's baseline bar is known.
            normalized_total: f64::NAN,
        })
    })?;
    // Normalize each bar to its corner's non-batched, non-fused
    // baseline: the first of the corner's four bars in sweep order.
    for corner in rows.chunks_mut(4) {
        let base = corner[0].total_mj();
        for row in corner {
            row.normalized_total = row.total_mj() / base;
        }
    }
    Ok(Fig4Result { rows })
}

// ---------------------------------------------------------------------
// Fig. 5 — architecture exploration of analog/optical reuse
// ---------------------------------------------------------------------

/// One configuration of the Fig. 5 reuse sweep.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Weight-sharing variant.
    pub weight_reuse: WeightReuse,
    /// OR: analog output accumulation factor.
    pub output_reuse: usize,
    /// IR: optical input broadcast factor.
    pub input_reuse: usize,
    /// Accelerator-only energy per MAC in picojoules per segment
    /// (`MEMORY_SEGMENTS[..5]` order — no DRAM).
    pub segments_pj_per_mac: [f64; 5],
}

impl Fig5Row {
    /// Accelerator energy per MAC (pJ).
    pub fn total_pj(&self) -> f64 {
        self.segments_pj_per_mac.iter().sum()
    }

    /// Data-converter energy per MAC (weight + input + output
    /// conversions).
    pub fn converter_pj(&self) -> f64 {
        self.segments_pj_per_mac[1] + self.segments_pj_per_mac[2] + self.segments_pj_per_mac[3]
    }
}

/// The Fig. 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// 18 rows: 2 weight variants × OR ∈ {3,9,15} × IR ∈ {9,27,45}.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// The published Albireo configuration's row, if the sweep ran it.
    pub fn original(&self) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| {
            r.weight_reuse == WeightReuse::Original && r.output_reuse == 3 && r.input_reuse == 9
        })
    }

    /// The lowest-energy configuration (`None` for an empty sweep).
    pub fn best(&self) -> Option<&Fig5Row> {
        self.rows
            .iter()
            .min_by(|a, b| a.total_pj().total_cmp(&b.total_pj()))
    }

    /// Converter-energy reduction of the best configuration vs the
    /// original (the paper: 42%).
    pub fn converter_reduction(&self) -> Option<f64> {
        Some(1.0 - self.best()?.converter_pj() / self.original()?.converter_pj())
    }

    /// Accelerator-energy reduction of the best configuration vs the
    /// original (the paper: 31%).
    pub fn accelerator_reduction(&self) -> Option<f64> {
        Some(1.0 - self.best()?.total_pj() / self.original()?.total_pj())
    }

    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut header = vec!["config".to_string()];
        header.extend(MEMORY_SEGMENTS[..5].iter().map(ToString::to_string));
        header.push("total pJ/MAC".into());
        let mut t = Table::new(header);
        for row in &self.rows {
            let name = format!(
                "{} OR={} IR={}",
                match row.weight_reuse {
                    WeightReuse::Original => "Original",
                    WeightReuse::More => "MoreWR",
                },
                row.output_reuse,
                row.input_reuse
            );
            let mut cells = vec![name];
            cells.extend(row.segments_pj_per_mac.iter().map(|v| format!("{v:.4}")));
            cells.push(format!("{:.4}", row.total_pj()));
            t.row(cells);
        }
        t
    }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5 — ResNet18 accelerator energy vs analog/optical reuse (aggressive scaling)"
        )?;
        write!(f, "{}", self.table().render())?;
        if let (Some(converter), Some(accelerator)) =
            (self.converter_reduction(), self.accelerator_reduction())
        {
            writeln!(
                f,
                "best config cuts converter energy {:.0}% and accelerator energy {:.0}% vs original",
                100.0 * converter,
                100.0 * accelerator,
            )?;
        }
        Ok(())
    }
}

/// Reproduces Fig. 5: sweeping the aggressive Albireo's spatial-reuse
/// factors (OR ∈ {3,9,15}, IR ∈ {9,27,45}, original vs more weight reuse)
/// on ResNet18 and reporting accelerator-only energy per MAC.
pub fn fig5_reuse_exploration() -> Result<Fig5Result, SystemError> {
    let net = networks::resnet18();
    let mut corners = Vec::new();
    for weight_reuse in [WeightReuse::Original, WeightReuse::More] {
        for output_reuse in [3usize, 9, 15] {
            for input_reuse in [9usize, 27, 45] {
                corners.push((weight_reuse, output_reuse, input_reuse));
            }
        }
    }
    // Each of the 18 corners is a distinct architecture, so the shared
    // cache's wins here come from ResNet18's repeated stages within a
    // corner; the outer runner supplies the parallelism.
    let cache = EvalCache::shared();
    let rows =
        SweepRunner::new().try_run(corners, |(weight_reuse, output_reuse, input_reuse)| {
            let system = AlbireoConfig::new(ScalingProfile::Aggressive)
                .with_weight_reuse(weight_reuse)
                .with_output_reuse(output_reuse)
                .with_input_reuse(input_reuse)
                .build_system();
            let session = EvalSession::new(system)
                .with_cache(Arc::clone(&cache))
                .with_runner(SweepRunner::with_threads(1));
            let eval = session.evaluate_network(&net, &NetworkOptions::baseline())?;
            let segments = memory_segments(&eval.energy);
            let macs = eval.macs as f64;
            // Accelerator-only: drop DRAM, convert mJ to pJ/MAC.
            let mut per_mac = [0.0; 5];
            for (i, seg) in segments[..5].iter().enumerate() {
                per_mac[i] = seg * 1e9 / macs;
            }
            Ok::<_, SystemError>(Fig5Row {
                weight_reuse,
                output_reuse,
                input_reuse,
                segments_pj_per_mac: per_mac,
            })
        })?;
    Ok(Fig5Result { rows })
}

// ---------------------------------------------------------------------
// Baseline study — photonic vs digital on every built-in network
// ---------------------------------------------------------------------

/// The `lumen baseline` comparison: every built-in network on the
/// Albireo system at one scaling corner and on the peak-matched digital
/// baseline, full system (accelerator + DRAM).
#[derive(Debug, Clone)]
pub struct BaselineStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// One row per built-in network, in [`networks::NAMES`] order.
    pub rows: Vec<NetworkRow>,
}

impl BaselineStudyResult {
    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "network".into(),
            "digital pJ/MAC".into(),
            format!("photonic pJ/MAC ({})", self.scaling),
            "energy advantage".into(),
            "throughput advantage".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.network.clone(),
                format!("{:.3}", row.vs.digital_pj_per_mac),
                format!("{:.3}", row.vs.photonic_pj_per_mac),
                format!("{:.2}x", row.vs.energy_advantage()),
                format!("{:.2}x", row.throughput_advantage()),
            ]);
        }
        t
    }
}

impl fmt::Display for BaselineStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "photonic (Albireo) vs digital baseline, full system incl. DRAM:"
        )?;
        write!(f, "{}", self.table().render())
    }
}

/// Runs the baseline study: per-MAC energy and throughput of every
/// built-in network on the Albireo system at `scaling` and on the
/// digital baseline, which isolates what the optical domain buys (and
/// costs) at that corner.
pub fn baseline_study(scaling: ScalingProfile) -> Result<BaselineStudyResult, SystemError> {
    let rows = Testbed::new(scaling).compare_networks(&networks::NAMES)?;
    Ok(BaselineStudyResult { scaling, rows })
}

// ---------------------------------------------------------------------
// Transformer study — beyond the paper: attention/matmul workloads
// ---------------------------------------------------------------------

/// The transformer study: photonic vs digital on attention-dominated
/// workloads at one scaling corner.
#[derive(Debug, Clone)]
pub struct TransformerStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// One row per transformer workload.
    pub rows: Vec<NetworkRow>,
}

impl TransformerStudyResult {
    /// The row for a named workload, if the study ran it.
    pub fn row(&self, network: &str) -> Option<&NetworkRow> {
        self.rows.iter().find(|r| r.network == network)
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "network".into(),
            "GMACs".into(),
            "gemm share".into(),
            "photonic pJ/MAC".into(),
            "digital pJ/MAC".into(),
            "energy adv".into(),
            "photonic util".into(),
            "digital util".into(),
            "throughput adv".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.network.clone(),
                format!("{:.2}", row.gmacs),
                format!("{:.0}%", 100.0 * row.gemm_fraction),
                format!("{:.3}", row.vs.photonic_pj_per_mac),
                format!("{:.3}", row.vs.digital_pj_per_mac),
                format!("{:.2}x", row.vs.energy_advantage()),
                format!("{:.1}%", 100.0 * row.vs.photonic_utilization),
                format!("{:.1}%", 100.0 * row.vs.digital_utilization),
                format!("{:.2}x", row.throughput_advantage()),
            ]);
        }
        t
    }
}

impl fmt::Display for TransformerStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Transformer study — photonic ({}) vs digital baseline, full system incl. DRAM",
            self.scaling
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "matmul workloads idle the sliding-window fabric (no R/S window, \
             no Q sharing): photonics keep the energy edge only where \
             conversion scaling pays for it, and lose the throughput edge \
             that convolutions enjoy"
        )
    }
}

/// Runs the transformer study: evaluates every transformer workload on
/// the Albireo system at `scaling` and on the digital baseline, and
/// reports per-MAC energy, utilization and throughput side by side.
///
/// This extends the paper's methodology (unchanged — the same
/// architecture, mapper and nest analysis) to the workload class the
/// very-large-scale photonic literature targets: attention and MLP
/// matmuls, whose reuse comes from the sequence dimension rather than a
/// sliding window, and whose K/V operands must be converted like weights.
pub fn transformer_study(scaling: ScalingProfile) -> Result<TransformerStudyResult, SystemError> {
    // The transformer workloads are the content-addressed pipeline's
    // showcase: bert-base repeats one encoder block 12x (96 layers, 5
    // unique signatures), so each session maps a handful of layers and
    // answers the rest from cache, fanning the unique work out over the
    // sweep threads.
    let rows = Testbed::new(scaling).compare_networks(&networks::TRANSFORMER_NAMES)?;
    Ok(TransformerStudyResult { scaling, rows })
}

// ---------------------------------------------------------------------
// Decode study — beyond the paper: autoregressive serving (GEMV + KV cache)
// ---------------------------------------------------------------------

/// The KV lengths the decode study sweeps (cached tokens before the
/// step), spanning a short chat turn to beyond GPT-2 small's training
/// context.
pub const DECODE_KV_LENGTHS: [usize; 5] = [128, 256, 512, 1024, 2048];

/// One KV length of the decode study.
#[derive(Debug, Clone)]
pub struct DecodeRow {
    /// Tokens cached before the step.
    pub kv_len: usize,
    /// MACs per generated token, in millions.
    pub mmacs_per_token: f64,
    /// Energy and utilization on both systems at this KV length.
    pub vs: PhotonicVsDigital,
    /// Photonic decode throughput in generated tokens per second.
    pub photonic_tokens_per_s: f64,
    /// Digital decode throughput in generated tokens per second.
    pub digital_tokens_per_s: f64,
}

/// Writes the `eval cache:` line that ends every trace study: the
/// mapping searches (`stats.misses`) that served the study's
/// `evaluations` (`stats.hits + stats.misses`), the hit rate, and `why`
/// they dedupe. An uncached run counts no lookups and says so.
fn write_cache_footer(
    f: &mut fmt::Formatter<'_>,
    stats: CacheStats,
    evaluations: &str,
    why: &str,
) -> fmt::Result {
    let lookups = stats.lookups();
    if lookups == 0 {
        return writeln!(f, "eval cache: disabled (uncached A/B run)");
    }
    // `1 - misses/lookups`, not `CacheStats::hit_rate`: the goldens pin
    // this rounding.
    let hit_rate = 1.0 - stats.misses as f64 / lookups as f64;
    writeln!(
        f,
        "eval cache: {} mapping searches served {lookups} {evaluations} \
         ({:.1}% hit rate — {why})",
        stats.misses,
        100.0 * hit_rate,
    )
}

/// The decode study: photonic vs digital on autoregressive GPT-2 small
/// decoding as the KV cache grows, with the prefill phase as the
/// crossover reference and the evaluation cache's accounting for the
/// whole sweep.
#[derive(Debug, Clone)]
pub struct DecodeStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// The prefill reference point (GPT-2 small at seq 1024), the
    /// crossover partner of the per-token rows.
    pub prefill: PhotonicVsDigital,
    /// One row per swept KV length.
    pub rows: Vec<DecodeRow>,
    /// Photonic cache lookups over the study's traces: `hits + misses`
    /// layer evaluations requested, `misses` of them mapping searches.
    pub trace_cache: CacheStats,
}

impl DecodeStudyResult {
    /// The row for a given KV length, if the study swept it.
    pub fn row(&self, kv_len: usize) -> Option<&DecodeRow> {
        self.rows.iter().find(|r| r.kv_len == kv_len)
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "kv len".into(),
            "MMACs/tok".into(),
            "photonic pJ/MAC".into(),
            "digital pJ/MAC".into(),
            "energy adv".into(),
            "photonic util".into(),
            "digital util".into(),
            "util gap".into(),
            "photonic tok/s".into(),
            "digital tok/s".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.kv_len.to_string(),
                format!("{:.1}", row.mmacs_per_token),
                format!("{:.3}", row.vs.photonic_pj_per_mac),
                format!("{:.3}", row.vs.digital_pj_per_mac),
                format!("{:.2}x", row.vs.energy_advantage()),
                format!("{:.1}%", 100.0 * row.vs.photonic_utilization),
                format!("{:.1}%", 100.0 * row.vs.digital_utilization),
                format!("{:.1}x", row.vs.utilization_gap()),
                format!("{:.0}", row.photonic_tokens_per_s),
                format!("{:.0}", row.digital_tokens_per_s),
            ]);
        }
        t
    }
}

impl fmt::Display for DecodeStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Decode study — GPT-2 small autoregressive decode, photonic ({}) vs digital baseline",
            self.scaling
        )?;
        writeln!(
            f,
            "prefill reference (seq 1024): photonic {:.3} pJ/MAC at {:.1}% util | \
             digital {:.3} pJ/MAC at {:.1}% util | energy adv {:.2}x | util gap {:.1}x",
            self.prefill.photonic_pj_per_mac,
            100.0 * self.prefill.photonic_utilization,
            self.prefill.digital_pj_per_mac,
            100.0 * self.prefill.digital_utilization,
            self.prefill.energy_advantage(),
            self.prefill.utilization_gap(),
        )?;
        write!(f, "{}", self.table().render())?;
        if let Some(last) = self.rows.last() {
            writeln!(
                f,
                "utilization gap (digital/photonic) widens from {:.1}x at prefill to {:.1}x at \
                 kv={} decode: seq-1 GEMVs idle the photonic cluster fan-out that prefill's \
                 sequence extent kept busy",
                self.prefill.utilization_gap(),
                last.vs.utilization_gap(),
                last.kv_len,
            )?;
        }
        write_cache_footer(
            f,
            self.trace_cache,
            "photonic decode layer evaluations",
            "per-step layers dedupe by KV length",
        )
    }
}

/// Runs the decode study: evaluates GPT-2 small's decode step at every
/// [`DECODE_KV_LENGTHS`] entry on the Albireo system at `scaling` and on
/// the digital baseline — all KV lengths through one [`EvalSession`] per
/// system, so the sweep's mapping-search cost is bounded by the KV
/// lengths, not the layer count — plus the prefill network as the
/// crossover reference.
///
/// This is the serving regime the very-large-scale photonic literature
/// targets, and the paper's utilization argument at its worst case: each
/// step is one token's worth of GEMVs whose `logits`/`attend` reduction
/// is the current KV length, with the cache read in full (and appended
/// to) every step.
pub fn decode_study(scaling: ScalingProfile) -> Result<DecodeStudyResult, SystemError> {
    use lumen_core::decode::decode_sweep;

    let testbed = Testbed::new(scaling);
    let options = NetworkOptions::baseline();

    // Prefill reference: same sessions (the projections/MLP signatures
    // are prefill-specific at seq 1024, so this costs its own searches
    // but shares nothing incorrectly).
    let prefill_net = networks::gpt2_small();
    let (p_prefill, d_prefill) =
        testbed.both(|session| session.evaluate_network(&prefill_net, &options))?;
    let prefill = PhotonicVsDigital::from_networks(&p_prefill, &d_prefill);

    // Snapshot the cache counters so the reported trace accounting
    // covers exactly the decode sweep (the digital sweep never touches
    // the photonic cache).
    let before = testbed.photonic.cache_stats();
    let (p_points, d_points) = testbed.both(|session| {
        decode_sweep(
            session,
            &DECODE_KV_LENGTHS,
            &options,
            networks::gpt2_small_decode,
        )
    })?;
    let trace_cache = testbed.photonic.cache_stats().since(before);

    let rows = p_points
        .iter()
        .zip(&d_points)
        .map(|(p, d)| DecodeRow {
            kv_len: p.kv_len,
            mmacs_per_token: p.evaluation.macs as f64 / 1e6,
            vs: PhotonicVsDigital::from_networks(&p.evaluation, &d.evaluation),
            photonic_tokens_per_s: p.tokens_per_second(testbed.photonic_clock()),
            digital_tokens_per_s: d.tokens_per_second(testbed.digital_clock()),
        })
        .collect();

    Ok(DecodeStudyResult {
        scaling,
        prefill,
        rows,
        trace_cache,
    })
}

// ---------------------------------------------------------------------
// Serving study — beyond the paper: continuous batching of mixed traffic
// ---------------------------------------------------------------------

/// The KV bucket the serving study lowers steps with (hardware tile /
/// KV-page granularity). Coarse on purpose: at 256 tokens the whole
/// study's KV range spans a handful of buckets, so thousands of steps
/// share a few dozen layer signatures.
pub const SERVING_KV_BUCKET: usize = 256;

/// The slot counts the study sweeps: a backlogged regime (fewer slots
/// than requests keeps every slot busy) and an all-admitted regime
/// (occupancy decays as requests retire).
pub const SERVING_CAPACITIES: [usize; 2] = [3, 12];

/// The mixed-length request populations the study schedules — the
/// serving-traffic shapes the continuous-batching literature targets.
/// Deterministic (fixed seeds), like every other input of the golden
/// suite.
pub fn serving_mixes() -> Result<Vec<lumen_workload::RequestMix>, ServingError> {
    use lumen_workload::RequestMix;
    Ok(vec![
        // Identical chat turns: the uniform-batch baseline.
        RequestMix::uniform(12, 128, 32)?,
        // Chat with a 25% admixture of long-document requests.
        RequestMix::bimodal(0x5EED_CAFE, 12, (64, 16), (512, 48), 25)?,
        // Geometric output tail: most requests stop early, a few run 8x.
        RequestMix::long_tail(0x0BA7_C4ED, 12, (64, 384), 12, 3)?,
    ])
}

/// One (mix, capacity) operating point of the serving study.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// The request mix's display name.
    pub mix: String,
    /// Decode slots of the scheduler.
    pub capacity: usize,
    /// Requests in the mix.
    pub requests: usize,
    /// Scheduler steps until the last request retired.
    pub steps: usize,
    /// Mean slot occupancy over the trace, in (0, 1].
    pub mean_occupancy: f64,
    /// Energy per MAC and utilization on both systems over the trace.
    pub vs: PhotonicVsDigital,
    /// Energy per generated token and token throughput on both systems.
    pub tokens: TokenRates,
}

/// The serving study: photonic vs digital on continuous batching of
/// mixed-length GPT-2 small traffic, across mix shapes and occupancy
/// regimes, with the evaluation cache's accounting for the whole study.
#[derive(Debug, Clone)]
pub struct ServingStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// The KV bucket steps were lowered with.
    pub kv_bucket: usize,
    /// One row per (mix, capacity) pair, mixes outer, capacities inner.
    pub rows: Vec<ServingRow>,
    /// Photonic cache lookups over the study's traces: `hits + misses`
    /// layer evaluations requested, `misses` of them mapping searches.
    pub trace_cache: CacheStats,
}

impl ServingStudyResult {
    /// The row for a given mix name and capacity, if the study ran it.
    pub fn row(&self, mix: &str, capacity: usize) -> Option<&ServingRow> {
        self.rows
            .iter()
            .find(|r| r.mix == mix && r.capacity == capacity)
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "mix".into(),
            "slots".into(),
            "steps".into(),
            "occupancy".into(),
            "photonic mJ/tok".into(),
            "digital mJ/tok".into(),
            "energy adv".into(),
            "photonic util".into(),
            "digital util".into(),
            "util gap".into(),
            "photonic tok/s".into(),
            "digital tok/s".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.mix.clone(),
                row.capacity.to_string(),
                row.steps.to_string(),
                format!("{:.0}%", 100.0 * row.mean_occupancy),
                format!("{:.2}", row.tokens.photonic_mj_per_token),
                format!("{:.2}", row.tokens.digital_mj_per_token),
                format!("{:.2}x", row.vs.energy_advantage()),
                format!("{:.1}%", 100.0 * row.vs.photonic_utilization),
                format!("{:.1}%", 100.0 * row.vs.digital_utilization),
                format!("{:.1}x", row.vs.utilization_gap()),
                format!("{:.0}", row.tokens.photonic_tokens_per_s),
                format!("{:.0}", row.tokens.digital_tokens_per_s),
            ]);
        }
        t
    }
}

impl fmt::Display for ServingStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Serving study — GPT-2 small continuous batching, photonic ({}) vs digital \
             baseline (kv bucket {})",
            self.scaling, self.kv_bucket
        )?;
        write!(f, "{}", self.table().render())?;
        // Rows run mixes outer, capacities inner: the first two are the
        // uniform mix at both slot counts.
        if let [backlogged, wide, ..] = self.rows.as_slice() {
            writeln!(
                f,
                "occupancy lever ({}): {} slots at {:.0}% occupancy -> {:.2} mJ/token \
                 photonic, {} slots -> {:.2} mJ/token (group batching shares projection weight \
                 traffic; per-request KV caches never amortize)",
                backlogged.mix,
                backlogged.capacity,
                100.0 * backlogged.mean_occupancy,
                backlogged.tokens.photonic_mj_per_token,
                wide.capacity,
                wide.tokens.photonic_mj_per_token,
            )?;
        }
        write_cache_footer(
            f,
            self.trace_cache,
            "photonic serving layer evaluations",
            "steps dedupe by bucketed active-set composition",
        )
    }
}

/// Runs the serving study: schedules every [`serving_mixes`] population
/// through every [`SERVING_CAPACITIES`] slot count and evaluates the
/// resulting step traces on the Albireo system at `scaling` and on the
/// digital baseline — all traces through one [`EvalSession`] per system,
/// so the whole study's mapping-search cost is bounded by the distinct
/// bucketed step compositions it visits, not its step count.
///
/// This is the regime the ROADMAP's "batched serving" gap names: decode
/// GEMVs (PR 4's worst case for photonic utilization) under realistic
/// admission/retirement dynamics, where the batch lever photonics need
/// is only available when the scheduler can keep slots occupied.
pub fn serving_study(scaling: ScalingProfile) -> Result<ServingStudyResult, SystemError> {
    use lumen_workload::{PrefillMode, ServingScenario};

    let mut scenarios: Vec<ServingScenario> = Vec::new();
    for mix in serving_mixes()? {
        for capacity in SERVING_CAPACITIES {
            scenarios.push(
                ServingScenario::builder(mix.clone(), capacity)
                    .kv_bucket(SERVING_KV_BUCKET)
                    .prefill(PrefillMode::Resident)
                    .build()?,
            );
        }
    }
    let testbed = Testbed::new(scaling);
    let (rows, trace_cache) = testbed.trace_scenarios(&scenarios, |scenario, p, d| ServingRow {
        mix: scenario.mix().name().to_string(),
        capacity: scenario.capacity(),
        requests: scenario.mix().len(),
        steps: p.points.len(),
        mean_occupancy: p.mean_occupancy(),
        vs: PhotonicVsDigital::from_serving(p, d),
        tokens: testbed.token_rates(p, d),
    })?;

    Ok(ServingStudyResult {
        scaling,
        kv_bucket: SERVING_KV_BUCKET,
        rows,
        trace_cache,
    })
}

// ---------------------------------------------------------------------
// Serving SLO study — open-loop arrivals, admission policies, latency
// ---------------------------------------------------------------------

/// Decode slots of the SLO study's server — small on purpose, so the
/// open-loop scenarios actually queue and the admission policy matters.
pub const SLO_CAPACITY: usize = 4;

/// Prompt tokens prefilled per admission event. One bucket wide: a
/// short prompt prefills in one step, a long-document prompt in two,
/// and the chunked attend lengths land on the same buckets the decode
/// path uses.
pub const SLO_PREFILL_CHUNK: usize = 256;

/// The SLO study's request population: chat traffic with a 25%
/// admixture of long-document requests — the mix where admission order
/// matters, because a long prompt parks two prefill steps in front of
/// whatever queues behind it.
pub fn slo_mix() -> Result<lumen_workload::RequestMix, ServingError> {
    lumen_workload::RequestMix::bimodal(0x510_CAFE, 12, (64, 16), (512, 48), 25)
}

/// The scheduler knobs every SLO-study and fleet scenario shares: `mix`
/// through [`SLO_CAPACITY`] decode slots with [`SLO_PREFILL_CHUNK`]-token
/// chunked prefill and a [`SERVING_KV_BUCKET`]-token bucket.
pub(crate) fn slo_builder(
    mix: lumen_workload::RequestMix,
) -> lumen_workload::ServingScenarioBuilder {
    lumen_workload::ServingScenario::builder(mix, SLO_CAPACITY)
        .kv_bucket(SERVING_KV_BUCKET)
        .prefill_chunk(SLO_PREFILL_CHUNK)
}

/// The SLO-aware policy the study exercises: requests with prompts up
/// to 128 tokens are interactive with a 16-step queueing budget,
/// everything else is batch at 4x that.
pub fn slo_policy() -> lumen_workload::AdmissionPolicy {
    lumen_workload::AdmissionPolicy::SloAware {
        interactive_prompt: 128,
        slack: 16,
    }
}

/// The single construction path for the SLO study's serving
/// description: the [`slo_mix`] population through [`SLO_CAPACITY`]
/// decode slots with [`SLO_PREFILL_CHUNK`]-token chunked prefill and
/// [`SERVING_KV_BUCKET`]-token bucketed residency, under the given
/// arrival process and admission policy. The CLI, the study drivers and
/// the fleet templates all build their scenarios here (or through the
/// paged sibling [`try_paged_slo_scenario`]), so flag combinations are
/// validated exactly once, by [`ServingScenarioBuilder::build`].
///
/// [`ServingScenarioBuilder::build`]: lumen_workload::ServingScenarioBuilder::build
pub fn slo_scenario(
    arrival: lumen_workload::ArrivalProcess,
    policy: lumen_workload::AdmissionPolicy,
) -> Result<lumen_workload::ServingScenario, ServingError> {
    slo_builder(slo_mix()?)
        .arrival(arrival)
        .policy(policy)
        .build()
}

/// The [`slo_scenario`]s of [`serving_slo_study`]: the closed-loop
/// saturation baseline, an underloaded and an overloaded Poisson regime
/// (the server drains ~0.16 requests/step at this mix), the overloaded
/// regime under both non-FIFO policies, and a bursty process under the
/// SLO policy.
pub fn slo_scenarios() -> Result<Vec<lumen_workload::ServingScenario>, ServingError> {
    use lumen_workload::{AdmissionPolicy, ArrivalProcess};
    let overload = ArrivalProcess::try_poisson(0.5, 0xFEED_F00D)?;
    [
        (ArrivalProcess::ClosedLoop, AdmissionPolicy::Fifo),
        (
            ArrivalProcess::try_poisson(0.1, 0xFEED_F00D)?,
            AdmissionPolicy::Fifo,
        ),
        (overload.clone(), AdmissionPolicy::Fifo),
        (overload.clone(), AdmissionPolicy::ShortestPrompt),
        (overload, slo_policy()),
        (
            ArrivalProcess::try_bursty(0.02, 48, 6, 0xB125_7EED)?,
            slo_policy(),
        ),
    ]
    .into_iter()
    .map(|(arrival, policy)| slo_scenario(arrival, policy))
    .collect()
}

/// One (arrival, policy) operating point of the SLO study.
#[derive(Debug, Clone)]
pub struct SloRow {
    /// The arrival process's display name.
    pub arrival: String,
    /// The admission policy's display name.
    pub policy: String,
    /// Requests served.
    pub requests: usize,
    /// Busy scheduler steps until the last request retired.
    pub steps: usize,
    /// Mean slot occupancy (prefill + decode) over the busy steps.
    pub mean_occupancy: f64,
    /// Prompt tokens prefilled — charged, not free.
    pub prefill_tokens: u64,
    /// Photonic time-to-first-token percentiles, seconds.
    pub photonic_ttft: lumen_core::Percentiles,
    /// Photonic time-between-tokens percentiles, seconds.
    pub photonic_tbt: lumen_core::Percentiles,
    /// Digital time-to-first-token percentiles, seconds.
    pub digital_ttft: lumen_core::Percentiles,
    /// Energy per MAC and utilization on both systems over the trace.
    pub vs: PhotonicVsDigital,
    /// Energy per generated token and token throughput on both systems.
    pub tokens: TokenRates,
}

/// The serving SLO study: photonic vs digital GPT-2 small serving
/// under open-loop load, with prefill charged on admission and the
/// latency outputs serving actually buys — TTFT/TBT percentiles in
/// real time at each system's clock.
#[derive(Debug, Clone)]
pub struct SloStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// The KV bucket steps were lowered with.
    pub kv_bucket: usize,
    /// Decode slots of every scenario.
    pub capacity: usize,
    /// Prompt tokens prefilled per admission event.
    pub prefill_chunk: usize,
    /// One row per (arrival, policy) scenario, in scenario order.
    pub rows: Vec<SloRow>,
    /// Photonic cache lookups over the study's traces: `hits + misses`
    /// layer evaluations requested, `misses` of them mapping searches.
    pub trace_cache: CacheStats,
}

impl SloStudyResult {
    /// The row for a given arrival and policy display name, if the
    /// study ran that scenario.
    pub fn row(&self, arrival: &str, policy: &str) -> Option<&SloRow> {
        self.rows
            .iter()
            .find(|r| r.arrival == arrival && r.policy == policy)
    }

    /// Renders the study as a table. Latency cells are
    /// `p50/p95/p99` (TTFT) and `p50/p99` (TBT) in milliseconds.
    pub fn table(&self) -> Table {
        let ms = |s: f64| 1e3 * s;
        let mut t = Table::new(vec![
            "arrival".into(),
            "policy".into(),
            "steps".into(),
            "occupancy".into(),
            "prefill tok".into(),
            "photonic ttft ms".into(),
            "photonic tbt ms".into(),
            "digital ttft ms".into(),
            "photonic tok/s".into(),
            "photonic mJ/tok".into(),
            "energy adv".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.arrival.clone(),
                row.policy.clone(),
                row.steps.to_string(),
                format!("{:.0}%", 100.0 * row.mean_occupancy),
                row.prefill_tokens.to_string(),
                format!(
                    "{:.1}/{:.1}/{:.1}",
                    ms(row.photonic_ttft.p50),
                    ms(row.photonic_ttft.p95),
                    ms(row.photonic_ttft.p99)
                ),
                format!(
                    "{:.2}/{:.2}",
                    ms(row.photonic_tbt.p50),
                    ms(row.photonic_tbt.p99)
                ),
                format!(
                    "{:.1}/{:.1}/{:.1}",
                    ms(row.digital_ttft.p50),
                    ms(row.digital_ttft.p95),
                    ms(row.digital_ttft.p99)
                ),
                format!("{:.0}", row.tokens.photonic_tokens_per_s),
                format!("{:.2}", row.tokens.photonic_mj_per_token),
                format!("{:.2}x", row.vs.energy_advantage()),
            ]);
        }
        t
    }
}

impl fmt::Display for SloStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Serving SLO study — GPT-2 small under open-loop load, photonic ({}) vs digital \
             baseline ({} slots, kv bucket {}, prefill chunk {})",
            self.scaling, self.capacity, self.kv_bucket, self.prefill_chunk
        )?;
        write!(f, "{}", self.table().render())?;
        let overload = OVERLOAD_ARRIVAL;
        if let (Some(fifo), Some(slo)) = (
            self.row(overload, "fifo"),
            self.row(overload, &slo_policy().to_string()),
        ) {
            writeln!(
                f,
                "admission lever ({overload}): fifo p50 TTFT {:.1} ms -> slo {:.1} ms photonic \
                 (interactive prompts jump the backlog; batch p99 {:.1} -> {:.1} ms)",
                1e3 * fifo.photonic_ttft.p50,
                1e3 * slo.photonic_ttft.p50,
                1e3 * fifo.photonic_ttft.p99,
                1e3 * slo.photonic_ttft.p99,
            )?;
        }
        if let Some(row) = self.rows.first() {
            writeln!(
                f,
                "prefill charged on admission: {} prompt tokens per scenario lowered through \
                 the dense path in {}-token chunks (the closed-loop study admitted them free)",
                row.prefill_tokens, self.prefill_chunk
            )?;
        }
        write_cache_footer(
            f,
            self.trace_cache,
            "photonic serving layer evaluations",
            "decode groups and prefill chunks dedupe by bucketed length",
        )
    }
}

/// The display label of the overloaded Poisson scenario, shared by the
/// Display footer and the tests.
const OVERLOAD_ARRIVAL: &str = "poisson(r0.5,sfeedf00d)";

/// Runs [`serving_slo_study`] over an explicit list of [`slo_scenario`]s
/// — the CLI uses this to run a single user-chosen scenario. The result
/// reports the SLO study's fixed capacity, bucket and prefill chunk.
///
/// # Errors
///
/// [`SystemError::NoMapping`] if any step has an unmappable layer.
pub fn serving_scenario_study(
    scaling: ScalingProfile,
    scenarios: &[lumen_workload::ServingScenario],
) -> Result<SloStudyResult, SystemError> {
    let testbed = Testbed::new(scaling);
    let (rows, trace_cache) = testbed.trace_scenarios(scenarios, |scenario, p, d| {
        let schedule = scenario.schedule();
        SloRow {
            arrival: scenario.arrival().to_string(),
            policy: scenario.policy().to_string(),
            requests: scenario.mix().len(),
            steps: schedule.total_steps(),
            mean_occupancy: schedule.mean_occupancy(),
            prefill_tokens: p.total_prefill_tokens(),
            photonic_ttft: p.ttft_percentiles(testbed.photonic_clock()),
            photonic_tbt: p.tbt_percentiles(testbed.photonic_clock()),
            digital_ttft: d.ttft_percentiles(testbed.digital_clock()),
            vs: PhotonicVsDigital::from_serving(p, d),
            tokens: testbed.token_rates(p, d),
        }
    })?;

    Ok(SloStudyResult {
        scaling,
        kv_bucket: SERVING_KV_BUCKET,
        capacity: SLO_CAPACITY,
        prefill_chunk: SLO_PREFILL_CHUNK,
        rows,
        trace_cache,
    })
}

/// Runs the serving SLO study over all [`slo_scenarios`]: the same
/// bimodal population through a 4-slot server under closed-loop,
/// Poisson (under- and over-loaded), and bursty arrivals, with FIFO,
/// shortest-prompt and SLO-aware admission — prefill charged on
/// admission everywhere. This is the question the closed-loop serving
/// study could not ask: not "how much does a token cost at
/// saturation?" but "what latency does a request see under load, and
/// what does the admission policy buy?".
///
/// # Errors
///
/// [`SystemError::NoMapping`] if any step has an unmappable layer.
pub fn serving_slo_study(scaling: ScalingProfile) -> Result<SloStudyResult, SystemError> {
    serving_scenario_study(scaling, &slo_scenarios()?)
}

// ---------------------------------------------------------------------
// Paged KV study — exact page residency and prefix sharing vs buckets
// ---------------------------------------------------------------------

/// The KV page the paged study allocates cache in: one sixteenth of
/// [`SERVING_KV_BUCKET`], so every bucketed attend length is also a
/// whole number of pages and the bucketed trace is a sound upper bound
/// on the paged one.
pub const PAGED_KV_PAGE: usize = 16;

/// The shared system-prompt prefix of the paged study's mix, in
/// tokens. Deliberately *not* page-aligned (40 = 2 full pages + 8
/// tokens): the trailing 8 tokens land on a partial page every sharer
/// copies copy-on-write, so the study charges the CoW path, not just
/// the free full-page references.
pub const PAGED_SHARED_PREFIX: usize = 40;

/// One KV-residency configuration of the paged study.
#[derive(Debug, Clone)]
pub struct PagedServingRow {
    /// The configuration's display label, e.g. `paged(16)+shared(40)`.
    pub label: String,
    /// Scheduler steps until the last request retired.
    pub steps: usize,
    /// Prompt tokens actually prefilled (prefix sharing shrinks this).
    pub prefill_tokens: u64,
    /// Generated tokens over the trace.
    pub tokens: u64,
    /// Total trace MACs, in GMACs.
    pub gmacs: f64,
    /// Backing-store (outermost level) accesses over the trace — the
    /// DRAM traffic the residency accounting actually changes.
    pub backing_accesses: f64,
    /// Photonic energy over the whole trace, in millijoules.
    pub photonic_total_mj: f64,
    /// Photonic energy per generated token, in millijoules.
    pub photonic_mj_per_token: f64,
    /// Allocated-but-unused KV fraction at the peak-allocation step.
    pub peak_waste: f64,
    /// Allocated − used cache tokens at the peak-allocation step.
    pub peak_fragmentation_tokens: u64,
}

/// The paged KV study: the same closed-loop GPT-2 small serving trace
/// on the photonic system under three KV-residency accountings —
/// legacy bucket padding, exact per-page allocation, and per-page
/// allocation with a shared prompt prefix stored once and referenced
/// copy-on-write.
///
/// `rows` is always ordered *bucketed, paged, paged+shared*.
#[derive(Debug, Clone)]
pub struct PagedServingStudyResult {
    /// The photonic system's scaling corner.
    pub scaling: ScalingProfile,
    /// The legacy bucket the baseline row pads to.
    pub kv_bucket: usize,
    /// Tokens per KV page of the paged rows.
    pub page: usize,
    /// Shared prompt-prefix tokens of the third row.
    pub shared_prefix: usize,
    /// Decode slots of the scheduler.
    pub capacity: usize,
    /// Prompt tokens prefilled per admission event.
    pub prefill_chunk: usize,
    /// Requests in the mix.
    pub requests: usize,
    /// The rows, ordered bucketed / paged / paged+shared.
    pub rows: Vec<PagedServingRow>,
    /// Photonic cache lookups over the study's traces: `hits + misses`
    /// layer evaluations requested, `misses` of them mapping searches.
    pub trace_cache: CacheStats,
}

impl PagedServingStudyResult {
    /// The bucket-padded baseline row.
    pub fn bucketed(&self) -> &PagedServingRow {
        &self.rows[0]
    }

    /// The exact-page-residency row (no prefix sharing).
    pub fn paged(&self) -> &PagedServingRow {
        &self.rows[1]
    }

    /// The paged row with the shared prompt prefix.
    pub fn paged_shared(&self) -> &PagedServingRow {
        &self.rows[2]
    }

    /// Fraction of the bucketed baseline's backing-store accesses the
    /// exact page residency eliminates, in `[0, 1)` — the measured
    /// bucket-vs-paged DRAM delta.
    pub fn dram_delta(&self) -> f64 {
        1.0 - self.paged().backing_accesses / self.bucketed().backing_accesses
    }

    /// Prompt tokens prefix sharing removed from the prefill path:
    /// every sharer after the owner skips the shared prefix.
    pub fn prefix_prefill_token_savings(&self) -> u64 {
        self.paged().prefill_tokens - self.paged_shared().prefill_tokens
    }

    /// Fractional MAC savings of prefix sharing over the paged row.
    pub fn prefix_mac_savings(&self) -> f64 {
        1.0 - self.paged_shared().gmacs / self.paged().gmacs
    }

    /// Fractional photonic-energy savings of prefix sharing over the
    /// paged row (net of the copy-on-write charge).
    pub fn prefix_energy_savings(&self) -> f64 {
        1.0 - self.paged_shared().photonic_total_mj / self.paged().photonic_total_mj
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "kv residency".into(),
            "steps".into(),
            "prefill tok".into(),
            "GMACs".into(),
            "backing acc".into(),
            "total mJ".into(),
            "mJ/tok".into(),
            "peak waste".into(),
            "frag tok".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                row.steps.to_string(),
                row.prefill_tokens.to_string(),
                format!("{:.1}", row.gmacs),
                format!("{:.3}G", row.backing_accesses / 1e9),
                format!("{:.1}", row.photonic_total_mj),
                format!("{:.2}", row.photonic_mj_per_token),
                format!("{:.1}%", 100.0 * row.peak_waste),
                row.peak_fragmentation_tokens.to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for PagedServingStudyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Paged KV study — GPT-2 small serving on the photonic system ({}), bucket {} vs \
             page {} ({} slots, prefill chunk {}, shared prefix {})",
            self.scaling,
            self.kv_bucket,
            self.page,
            self.capacity,
            self.prefill_chunk,
            self.shared_prefix
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "paged residency: backing-store accesses {:.3}G -> {:.3}G (-{:.1}% vs bucket {}; \
             peak KV waste {:.1}% -> {:.1}%)",
            self.bucketed().backing_accesses / 1e9,
            self.paged().backing_accesses / 1e9,
            100.0 * self.dram_delta(),
            self.kv_bucket,
            100.0 * self.bucketed().peak_waste,
            100.0 * self.paged().peak_waste,
        )?;
        writeln!(
            f,
            "prefix sharing ({} tokens): prefill {} -> {} tokens (-{}), MACs -{:.2}%, \
             photonic energy -{:.2}% net of the {}-token copy-on-write tail",
            self.shared_prefix,
            self.paged().prefill_tokens,
            self.paged_shared().prefill_tokens,
            self.prefix_prefill_token_savings(),
            100.0 * self.prefix_mac_savings(),
            100.0 * self.prefix_energy_savings(),
            self.shared_prefix % self.page,
        )?;
        write_cache_footer(
            f,
            self.trace_cache,
            "photonic serving layer evaluations",
            "page-residency variants still dedupe by signature",
        )
    }
}

/// Runs the paged KV study at the default page and prefix
/// ([`PAGED_KV_PAGE`], [`PAGED_SHARED_PREFIX`]).
///
/// # Errors
///
/// [`SystemError::NoMapping`] if any step has an unmappable layer.
pub fn paged_serving_study(
    scaling: ScalingProfile,
) -> Result<PagedServingStudyResult, SystemError> {
    let scenario = try_paged_slo_scenario(PAGED_KV_PAGE, PAGED_SHARED_PREFIX)?;
    paged_serving_scenario_study(scaling, &scenario)
}

/// The paged scenario the study and the CLI's `--kv-page` path build:
/// [`slo_mix`] through [`SLO_CAPACITY`] closed-loop FIFO slots, paged
/// at `page` tokens with the first `shared` prompt tokens stored once
/// and referenced copy-on-write.
///
/// # Errors
///
/// The [`ServingError`]s of scenario validation — a zero page, or a
/// prefix longer than the mix's shortest prompt.
pub fn try_paged_slo_scenario(
    page: usize,
    shared: usize,
) -> Result<lumen_workload::ServingScenario, ServingError> {
    slo_builder(slo_mix()?)
        .kv_page(page)
        .shared_prefix(shared)
        .build()
}

/// The paged KV study over one validated paged [`ServingScenario`] —
/// the scenario *is* the `paged(page)+shared(shared)` row, and the
/// study derives its bucketed and unshared siblings from the same
/// description (same requests, same scheduler knobs, only the KV
/// residency changed). Lowers all three on one photonic
/// [`EvalSession`], so identical steps dedupe in the shared cache.
///
/// # Errors
///
/// [`SystemError::Serving`] with [`ServingError::PagedKvRequired`] if
/// the scenario is bucketed (`kv_page` unset);
/// [`SystemError::NoMapping`] if any step has an unmappable layer.
///
/// [`ServingScenario`]: lumen_workload::ServingScenario
pub fn paged_serving_scenario_study(
    scaling: ScalingProfile,
    scenario: &lumen_workload::ServingScenario,
) -> Result<PagedServingStudyResult, SystemError> {
    use lumen_core::scenario_trace;
    use lumen_workload::{
        KvLayout, PageTable, PrefillMode, RequestMix, ServingModel, ServingScenario,
    };

    let KvLayout::Paged(shared_table) = *scenario.layout() else {
        return Err(ServingError::PagedKvRequired.into());
    };
    let page = shared_table.page();
    let shared = scenario.shared_prefix();
    let bucket = scenario.kv_bucket();

    let photonic = EvalSession::new(AlbireoConfig::new(scaling).build_system());
    let model = ServingModel::gpt2_small();
    let options = NetworkOptions::baseline();

    // The bucketed baseline and the unshared paged row serve the same
    // requests with no prefix; rebuild them from the scenario with only
    // the residency knobs changed. The shared row is the scenario itself.
    let sibling = |kv_page: Option<usize>| -> Result<ServingScenario, ServingError> {
        let base_mix =
            RequestMix::try_custom(scenario.mix().name(), scenario.mix().requests().to_vec())?;
        let mut builder = ServingScenario::builder(base_mix, scenario.capacity())
            .kv_bucket(bucket)
            .arrival(scenario.arrival().clone())
            .policy(scenario.policy())
            .prefill(scenario.prefill());
        if let Some(p) = kv_page {
            builder = builder.kv_page(p);
        }
        if let Some(max) = scenario.max_context() {
            builder = builder.max_context(max);
        }
        builder.build()
    };
    let bucketed = sibling(None)?;
    let paged = sibling(Some(page))?;

    // The bucketed baseline's residency is the same page-table walk at
    // page = bucket: allocation rounds to the bucket, which is exactly
    // what the padded lowering charges DRAM for.
    let variants: [(String, &ServingScenario, PageTable); 3] = [
        (
            format!("bucketed({bucket})"),
            &bucketed,
            PageTable::try_new(bucket)?,
        ),
        (
            format!("paged({page})"),
            &paged,
            shared_table.with_shared_prefix(0),
        ),
        (
            format!("paged({page})+shared({shared})"),
            scenario,
            shared_table,
        ),
    ];

    let before = photonic.cache_stats();
    let mut rows = Vec::new();
    for (label, variant, table) in &variants {
        let p = scenario_trace(&photonic, &model, variant, &options)?;
        let residency = table.schedule_residency(&variant.schedule());
        rows.push(PagedServingRow {
            label: label.clone(),
            steps: p.points.len(),
            prefill_tokens: p.total_prefill_tokens(),
            tokens: p.total_tokens(),
            gmacs: p.total_macs() as f64 / 1e9,
            backing_accesses: p.total_backing_accesses(),
            photonic_total_mj: p.total_energy().picojoules() / 1e9,
            photonic_mj_per_token: p.pj_per_token() / 1e9,
            peak_waste: residency.peak_waste_fraction(),
            peak_fragmentation_tokens: residency.peak_fragmentation_tokens(),
        });
    }
    let trace_cache = photonic.cache_stats().since(before);

    Ok(PagedServingStudyResult {
        scaling,
        kv_bucket: bucket,
        page,
        shared_prefix: shared,
        capacity: scenario.capacity(),
        prefill_chunk: match scenario.prefill() {
            PrefillMode::OnAdmission { chunk: Some(c) } => c,
            _ => 0,
        },
        requests: scenario.mix().len(),
        rows,
        trace_cache,
    })
}

// ---------------------------------------------------------------------
// Fleet study — capacity planning: N instances behind one router
// ---------------------------------------------------------------------

/// Instances the default `lumen fleet` run provisions — sized so the
/// default stream's offered load sits right at the fleet's aggregate
/// capacity (3 x [`SLO_CAPACITY`] decode slots).
pub const FLEET_INSTANCES: usize = 3;

/// The ceiling of the SLO search: [`fleet_slo_search`] sweeps instance
/// counts `1..=` this before giving up.
pub const FLEET_SEARCH_MAX_INSTANCES: usize = 6;

/// The fleet stream's request population: the SLO study's bimodal chat
/// shape, doubled to 24 requests so routing has something to balance.
pub fn fleet_mix() -> Result<lumen_workload::RequestMix, ServingError> {
    lumen_workload::RequestMix::bimodal(0xF1EE_CAFE, 24, (64, 16), (512, 48), 25)
}

/// The default fleet arrival: an overloaded-for-one-instance Poisson
/// stream (0.5 requests/step against ~0.17 requests/step of
/// single-instance drain), so the capacity question has a non-trivial
/// answer.
pub fn fleet_arrival() -> Result<lumen_workload::ArrivalProcess, ServingError> {
    lumen_workload::ArrivalProcess::try_poisson(0.5, 0xF1EE_F00D)
}

/// The per-instance template (and global stream description) of the
/// fleet studies: [`fleet_mix`] under `arrival`, each instance a
/// [`SLO_CAPACITY`]-slot scheduler with the SLO-aware admission policy
/// and chunked prefill — the same knobs as [`slo_scenario`], on the
/// bigger stream.
pub fn fleet_template(
    arrival: lumen_workload::ArrivalProcess,
) -> Result<lumen_workload::ServingScenario, ServingError> {
    slo_builder(fleet_mix()?)
        .arrival(arrival)
        .policy(slo_policy())
        .build()
}

/// One instance's slice of the capacity plan.
#[derive(Debug, Clone)]
pub struct FleetInstanceRow {
    /// Instance index, `0..N`.
    pub instance: usize,
    /// Requests the router assigned here.
    pub requests: usize,
    /// Busy scheduler steps until the instance's last request retired.
    pub steps: usize,
    /// Mean slot occupancy over the instance's trace (0.0 when idle).
    pub occupancy: f64,
    /// Tokens this instance generated.
    pub tokens: u64,
    /// Photonic energy this instance spent, in millijoules.
    pub total_mj: f64,
}

/// The fleet capacity plan: one routed arrival stream across N photonic
/// instances, with fleet-wide latency percentiles, throughput, energy
/// per token and the router's occupancy-balance report card.
#[derive(Debug, Clone)]
pub struct CapacityPlanResult {
    /// The photonic instances' scaling corner.
    pub scaling: ScalingProfile,
    /// The routing discipline.
    pub router: lumen_workload::FleetRouter,
    /// The arrival process's display name.
    pub arrival: String,
    /// The stream mix's display name.
    pub mix: String,
    /// Requests offered to the fleet.
    pub requests: usize,
    /// Decode slots per instance.
    pub capacity_per_instance: usize,
    /// Total decode slots across the fleet.
    pub aggregate_capacity: usize,
    /// One row per instance, by instance index.
    pub rows: Vec<FleetInstanceRow>,
    /// Fleet-wide time-to-first-token percentiles, seconds.
    pub ttft: lumen_core::Percentiles,
    /// Fleet-wide time-between-tokens percentiles, seconds.
    pub tbt: lumen_core::Percentiles,
    /// Fleet throughput: generated tokens per second of makespan.
    pub tokens_per_s: f64,
    /// Fleet energy per generated token, in millijoules.
    pub mj_per_token: f64,
    /// Max minus min per-instance mean occupancy.
    pub occupancy_skew: f64,
    /// Cache lookups over the fleet's traces, which all share one
    /// photonic session: `hits + misses` layer evaluations requested,
    /// `misses` of them mapping searches.
    pub trace_cache: CacheStats,
}

impl CapacityPlanResult {
    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.rows.len()
    }

    /// Fleet-wide p99 time-to-first-token, in milliseconds — the number
    /// the SLO search judges a fleet by.
    pub fn p99_ttft_ms(&self) -> f64 {
        1e3 * self.ttft.p99
    }

    /// Renders the per-instance table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "instance".into(),
            "requests".into(),
            "steps".into(),
            "occupancy".into(),
            "tokens".into(),
            "total mJ".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.instance.to_string(),
                row.requests.to_string(),
                row.steps.to_string(),
                format!("{:.0}%", 100.0 * row.occupancy),
                row.tokens.to_string(),
                format!("{:.1}", row.total_mj),
            ]);
        }
        t
    }
}

impl fmt::Display for CapacityPlanResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet capacity plan — {} requests ({}) routed {} across {} photonic instance(s) \
             ({}), {} slots/instance (aggregate {})",
            self.requests,
            self.arrival,
            self.router,
            self.instances(),
            self.scaling,
            self.capacity_per_instance,
            self.aggregate_capacity,
        )?;
        write!(f, "{}", self.table().render())?;
        let ms = |s: f64| 1e3 * s;
        writeln!(
            f,
            "fleet: TTFT p50/p95/p99 {:.1}/{:.1}/{:.1} ms, TBT p50/p99 {:.2}/{:.2} ms, \
             {:.0} tok/s, {:.2} mJ/token, occupancy skew {:.0}%",
            ms(self.ttft.p50),
            ms(self.ttft.p95),
            ms(self.ttft.p99),
            ms(self.tbt.p50),
            ms(self.tbt.p99),
            self.tokens_per_s,
            self.mj_per_token,
            100.0 * self.occupancy_skew,
        )?;
        write_cache_footer(
            f,
            self.trace_cache,
            "layer evaluations across the fleet",
            "instances share one session, so identical shards dedupe",
        )
    }
}

/// Runs the fleet capacity plan: routes [`fleet_mix`] under `arrival`
/// across `instances` copies of [`fleet_template`] with `router`, and
/// evaluates every instance through *one* photonic [`EvalSession`] —
/// identical steps on different instances dedupe by
/// [`lumen_workload::LayerSignature`] in the shared cache, so fleet
/// cost grows with distinct step shapes, not with N.
///
/// # Errors
///
/// [`SystemError::Serving`] with [`ServingError::EmptyFleet`] if
/// `instances` is zero; [`SystemError::NoMapping`] if any step has an
/// unmappable layer.
pub fn capacity_plan_study(
    scaling: ScalingProfile,
    instances: usize,
    router: lumen_workload::FleetRouter,
    arrival: lumen_workload::ArrivalProcess,
) -> Result<CapacityPlanResult, SystemError> {
    let photonic = EvalSession::new(AlbireoConfig::new(scaling).build_system());
    capacity_plan_on(&photonic, scaling, instances, router, arrival)
}

/// [`capacity_plan_study`] on `photonic`, a session over the Albireo
/// system at `scaling`.
fn capacity_plan_on(
    photonic: &EvalSession,
    scaling: ScalingProfile,
    instances: usize,
    router: lumen_workload::FleetRouter,
    arrival: lumen_workload::ArrivalProcess,
) -> Result<CapacityPlanResult, SystemError> {
    use lumen_core::{fleet_trace, FleetInstance};
    use lumen_workload::{Fleet, ServingModel};

    let fleet = Fleet::try_uniform(fleet_template(arrival)?, router, instances)?;
    let assignments = fleet.dispatch()?;

    let model = ServingModel::gpt2_small();
    let options = NetworkOptions::baseline();
    let members: Vec<FleetInstance<'_>> = assignments
        .iter()
        .map(|assignment| FleetInstance {
            session: photonic,
            model: &model,
            assignment,
        })
        .collect();

    let before = photonic.cache_stats();
    let evaluation = fleet_trace(&members, &options)?;
    let trace_cache = photonic.cache_stats().since(before);

    let occupancies = evaluation.occupancies();
    let rows = evaluation
        .instances
        .iter()
        .map(|trace| {
            // An instance the router sent nothing has no trace.
            let eval = trace.evaluation.as_ref();
            FleetInstanceRow {
                instance: trace.instance,
                requests: trace.requests.len(),
                steps: eval.map_or(0, |e| e.points.len()),
                occupancy: occupancies[trace.instance],
                tokens: eval.map_or(0, lumen_core::ServingEvaluation::total_tokens),
                total_mj: eval.map_or(0.0, |e| e.total_energy().picojoules() / 1e9),
            }
        })
        .collect();

    Ok(CapacityPlanResult {
        scaling,
        router,
        arrival: fleet.stream().arrival().to_string(),
        mix: fleet.stream().mix().name().to_string(),
        requests: fleet.stream().mix().len(),
        capacity_per_instance: SLO_CAPACITY,
        aggregate_capacity: fleet.aggregate_capacity(),
        rows,
        ttft: evaluation.ttft_percentiles(),
        tbt: evaluation.tbt_percentiles(),
        tokens_per_s: evaluation.tokens_per_second(),
        mj_per_token: evaluation.pj_per_token() / 1e9,
        occupancy_skew: evaluation.occupancy_skew(),
        trace_cache,
    })
}

/// One instance count probed by the SLO search.
#[derive(Debug, Clone)]
pub struct FleetSloRow {
    /// Instances provisioned.
    pub instances: usize,
    /// Fleet-wide p50 time-to-first-token, milliseconds.
    pub p50_ttft_ms: f64,
    /// Fleet-wide p99 time-to-first-token, milliseconds.
    pub p99_ttft_ms: f64,
    /// Fleet throughput, generated tokens/s.
    pub tokens_per_s: f64,
    /// Fleet energy per generated token, millijoules.
    pub mj_per_token: f64,
    /// Max minus min per-instance mean occupancy.
    pub occupancy_skew: f64,
    /// Whether this fleet met the SLO.
    pub met: bool,
}

/// The SLO search: the smallest fleet whose p99 TTFT meets the target.
#[derive(Debug, Clone)]
pub struct FleetSloSearchResult {
    /// The photonic instances' scaling corner.
    pub scaling: ScalingProfile,
    /// The p99 TTFT target, in milliseconds.
    pub slo_p99_ttft_ms: f64,
    /// The routing discipline.
    pub router: lumen_workload::FleetRouter,
    /// The arrival process's display name.
    pub arrival: String,
    /// The largest fleet the search was willing to provision.
    pub max_instances: usize,
    /// One row per probed instance count, ascending; the sweep stops at
    /// the first fleet that meets the SLO.
    pub rows: Vec<FleetSloRow>,
    /// The smallest instance count meeting the SLO, when one exists
    /// within `max_instances`.
    pub min_instances: Option<usize>,
}

impl FleetSloSearchResult {
    /// Renders the probed fleet sizes as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "instances".into(),
            "p50 ttft ms".into(),
            "p99 ttft ms".into(),
            "tok/s".into(),
            "mJ/tok".into(),
            "occ skew".into(),
            "meets slo".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.instances.to_string(),
                format!("{:.1}", row.p50_ttft_ms),
                format!("{:.1}", row.p99_ttft_ms),
                format!("{:.0}", row.tokens_per_s),
                format!("{:.2}", row.mj_per_token),
                format!("{:.0}%", 100.0 * row.occupancy_skew),
                if row.met { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for FleetSloSearchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet SLO search — smallest photonic fleet ({}) with p99 TTFT <= {:.0} ms, \
             router {}, arrival {}",
            self.scaling, self.slo_p99_ttft_ms, self.router, self.arrival,
        )?;
        write!(f, "{}", self.table().render())?;
        match self.min_instances {
            Some(n) => writeln!(
                f,
                "verdict: {n} instance(s) meet the {:.0} ms p99 TTFT target",
                self.slo_p99_ttft_ms
            ),
            None => writeln!(
                f,
                "verdict: no fleet up to {} instance(s) meets the {:.0} ms p99 TTFT target",
                self.max_instances, self.slo_p99_ttft_ms
            ),
        }
    }
}

/// Answers the capacity question: sweeps the instance count upward from
/// one, running [`capacity_plan_study`] at each size, until the
/// fleet-wide p99 TTFT meets `slo_p99_ttft_ms` (or the sweep hits
/// [`FLEET_SEARCH_MAX_INSTANCES`]). Every probe runs on one photonic
/// session, so a layer mapped for one fleet size is reused by the rest.
///
/// # Errors
///
/// [`SystemError::NoMapping`] if any step has an unmappable layer.
pub fn fleet_slo_search(
    scaling: ScalingProfile,
    slo_p99_ttft_ms: f64,
    router: lumen_workload::FleetRouter,
    arrival: lumen_workload::ArrivalProcess,
) -> Result<FleetSloSearchResult, SystemError> {
    let photonic = EvalSession::new(AlbireoConfig::new(scaling).build_system());
    let mut rows = Vec::new();
    let mut min_instances = None;
    for instances in 1..=FLEET_SEARCH_MAX_INSTANCES {
        let plan = capacity_plan_on(&photonic, scaling, instances, router, arrival.clone())?;
        let p99 = plan.p99_ttft_ms();
        let met = p99 <= slo_p99_ttft_ms;
        rows.push(FleetSloRow {
            instances,
            p50_ttft_ms: 1e3 * plan.ttft.p50,
            p99_ttft_ms: p99,
            tokens_per_s: plan.tokens_per_s,
            mj_per_token: plan.mj_per_token,
            occupancy_skew: plan.occupancy_skew,
            met,
        });
        if met {
            min_instances = Some(instances);
            break;
        }
    }
    Ok(FleetSloSearchResult {
        scaling,
        slo_p99_ttft_ms,
        router,
        arrival: fleet_template(arrival)?.arrival().to_string(),
        max_instances: FLEET_SEARCH_MAX_INSTANCES,
        rows,
        min_instances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_validation_error_is_small() {
        let result = fig2_energy_breakdown().unwrap();
        assert_eq!(result.rows.len(), 3);
        assert!(
            result.average_error() < 0.015,
            "average error {:.3}% exceeds 1.5%",
            100.0 * result.average_error()
        );
        // Totals descend with scaling.
        assert!(result.rows[0].modeled_total() > result.rows[1].modeled_total());
        assert!(result.rows[1].modeled_total() > result.rows[2].modeled_total());
    }

    #[test]
    fn fig3_shapes_hold() {
        let result = fig3_throughput().unwrap();
        let vgg = &result.rows[0];
        let alex = &result.rows[1];
        assert!(
            vgg.modeled >= 0.85 * vgg.ideal,
            "VGG16 near ideal: {}",
            vgg.modeled
        );
        assert!(
            alex.modeled <= 0.45 * alex.ideal,
            "AlexNet far from ideal: {}",
            alex.modeled
        );
        assert!(alex.reported >= 0.9 * alex.ideal, "reported is near-ideal");
    }

    #[test]
    fn fig4_shapes_hold() {
        let result = fig4_memory_exploration().unwrap();
        assert_eq!(result.rows.len(), 8);
        // Aggressive baseline dominated by DRAM; conservative is not.
        let aggr = result
            .row(ScalingProfile::Aggressive, false, false)
            .unwrap();
        let cons = result
            .row(ScalingProfile::Conservative, false, false)
            .unwrap();
        assert!(
            aggr.dram_share() >= 0.60,
            "aggressive DRAM {:.2}",
            aggr.dram_share()
        );
        assert!(
            cons.dram_share() <= 0.30,
            "conservative DRAM {:.2}",
            cons.dram_share()
        );
        // Batching + fusion buy >= 55% at the aggressive corner (paper: 67%).
        let reduction = result
            .combined_reduction(ScalingProfile::Aggressive)
            .unwrap();
        assert!(reduction >= 0.55, "reduction {reduction:.2}");
        // Normalization anchors the baselines at 1.0.
        assert!((aggr.normalized_total - 1.0).abs() < 1e-12);
        assert!((cons.normalized_total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transformer_study_shapes_hold() {
        let result = transformer_study(ScalingProfile::Aggressive).unwrap();
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            // Aggressive photonics keep the energy edge on matmuls...
            assert!(
                row.vs.energy_advantage() > 1.0,
                "{}: energy advantage {:.2}",
                row.network,
                row.vs.energy_advantage()
            );
            // ...but the sliding-window fabric starves: the digital
            // array's utilization edge flips the throughput comparison.
            assert!(
                row.vs.photonic_utilization < 0.2,
                "{}: photonic util {:.2}",
                row.network,
                row.vs.photonic_utilization
            );
            assert!(row.vs.digital_utilization > 0.5);
            assert!(
                row.throughput_advantage() < 1.0,
                "{}: throughput advantage {:.2}",
                row.network,
                row.throughput_advantage()
            );
            assert!(row.gemm_fraction > 0.9, "transformers are GEMM-bound");
        }
    }

    #[test]
    fn transformer_energy_edge_needs_scaling() {
        // At the conservative corner the conversion chain dominates and
        // the digital baseline wins energy on matmuls — the same crossover
        // logic as the paper's Fig. 2/4, now visible on a new workload.
        let cons = transformer_study(ScalingProfile::Conservative).unwrap();
        let aggr = transformer_study(ScalingProfile::Aggressive).unwrap();
        for name in networks::TRANSFORMER_NAMES {
            assert!(
                cons.row(name).unwrap().vs.energy_advantage() < 1.0,
                "{name}"
            );
            assert!(
                aggr.row(name).unwrap().vs.energy_advantage() > 1.0,
                "{name}"
            );
        }
    }

    #[test]
    fn decode_study_shapes_hold() {
        let result = decode_study(ScalingProfile::Aggressive).unwrap();
        assert_eq!(result.rows.len(), DECODE_KV_LENGTHS.len());
        for row in &result.rows {
            // The utilization collapse: seq-1 GEMVs idle the photonic
            // cluster fan-out (well under half the prefill utilization),
            // while the digital array barely notices.
            assert!(
                row.vs.photonic_utilization < 0.5 * result.prefill.photonic_utilization,
                "kv={}: photonic util {:.3} vs prefill {:.3}",
                row.kv_len,
                row.vs.photonic_utilization,
                result.prefill.photonic_utilization
            );
            assert!(row.vs.digital_utilization > 0.5, "kv={}", row.kv_len);
            // So the photonic/digital gap widens from prefill to decode.
            assert!(
                row.vs.utilization_gap() > 2.0 * result.prefill.utilization_gap(),
                "kv={}: gap {:.1} vs prefill {:.1}",
                row.kv_len,
                row.vs.utilization_gap(),
                result.prefill.utilization_gap()
            );
            // Decode is memory-bound: per-MAC energy an order of
            // magnitude above prefill for both systems (the KV cache is
            // read from DRAM in full every step).
            assert!(row.vs.photonic_pj_per_mac > 10.0 * result.prefill.photonic_pj_per_mac);
            assert!(row.vs.digital_pj_per_mac > 10.0 * result.prefill.digital_pj_per_mac);
            assert!(row.photonic_tokens_per_s > 0.0 && row.digital_tokens_per_s > 0.0);
        }
        // Per-token MACs grow monotonically with the cache.
        for pair in result.rows.windows(2) {
            assert!(pair[0].mmacs_per_token < pair[1].mmacs_per_token);
        }
        // The accessor answers every swept KV length.
        for kv in DECODE_KV_LENGTHS {
            assert_eq!(result.row(kv).unwrap().kv_len, kv);
        }
        // The content-addressed sweep: 5 per-step networks x 97 layers
        // collapse to a handful of mapping searches.
        assert_eq!(result.trace_cache.lookups(), 5 * 97);
        assert!(
            result.trace_cache.misses <= 14,
            "searches {}",
            result.trace_cache.misses
        );
        assert!(result.trace_cache.hit_rate() >= 0.9);
    }

    #[test]
    fn decode_collapses_the_aggressive_energy_edge() {
        // Prefill at the aggressive corner keeps photonics >2x ahead on
        // energy (the transformer study's result); decode erases the
        // edge — both systems drown in the same per-step KV-cache DRAM
        // traffic, and what remains of the comparison is near parity.
        let result = decode_study(ScalingProfile::Aggressive).unwrap();
        assert!(result.prefill.energy_advantage() > 2.0);
        for row in &result.rows {
            assert!(
                row.vs.energy_advantage() < 1.2 && row.vs.energy_advantage() > 0.8,
                "kv={}: advantage {:.2}",
                row.kv_len,
                row.vs.energy_advantage()
            );
        }
    }

    /// The aggressive-corner serving study, computed once per test
    /// binary: both serving tests assert against it, and each run is 12
    /// full serving sweeps — exactly the wall-time class the smoke-suite
    /// satellite exists to keep in check.
    fn aggressive_serving_study() -> &'static ServingStudyResult {
        use std::sync::OnceLock;
        static RESULT: OnceLock<ServingStudyResult> = OnceLock::new();
        RESULT.get_or_init(|| serving_study(ScalingProfile::Aggressive).unwrap())
    }

    #[test]
    fn serving_study_shapes_hold() {
        let result = aggressive_serving_study();
        assert_eq!(
            result.rows.len(),
            serving_mixes().unwrap().len() * SERVING_CAPACITIES.len()
        );
        for row in &result.rows {
            // The decode-regime utilization collapse survives continuous
            // batching: grouped seq-1 GEMVs still idle the photonic
            // cluster fan-out while the digital array stays busy.
            assert!(
                row.vs.photonic_utilization < 0.1,
                "{} cap {}: photonic util {:.3}",
                row.mix,
                row.capacity,
                row.vs.photonic_utilization
            );
            assert!(row.vs.digital_utilization > 0.5);
            assert!(
                row.vs.utilization_gap() > 10.0,
                "{} cap {}: gap {:.1}",
                row.mix,
                row.capacity,
                row.vs.utilization_gap()
            );
            // Energy sits near the decode parity the decode study pinned.
            assert!(
                row.vs.energy_advantage() > 0.8 && row.vs.energy_advantage() < 1.3,
                "{} cap {}: advantage {:.2}",
                row.mix,
                row.capacity,
                row.vs.energy_advantage()
            );
            assert!(row.mean_occupancy > 0.0 && row.mean_occupancy <= 1.0 + 1e-12);
            assert!(
                row.tokens.photonic_tokens_per_s > 0.0 && row.tokens.digital_tokens_per_s > 0.0
            );
            assert!(row.steps > 0 && row.requests > 0);
        }
        // The occupancy lever: wider schedules batch larger groups, and
        // group batching never costs energy per token — on either system.
        for mix in serving_mixes().unwrap() {
            let few = result.row(mix.name(), SERVING_CAPACITIES[0]).unwrap();
            let many = result.row(mix.name(), SERVING_CAPACITIES[1]).unwrap();
            assert!(
                many.tokens.photonic_mj_per_token <= few.tokens.photonic_mj_per_token,
                "{}: {:.2} vs {:.2} mJ/token photonic",
                mix.name(),
                many.tokens.photonic_mj_per_token,
                few.tokens.photonic_mj_per_token
            );
            assert!(many.tokens.digital_mj_per_token <= few.tokens.digital_mj_per_token);
        }
        // The content-addressed sweep: tens of thousands of step-layer
        // evaluations collapse to a few dozen mapping searches.
        assert!(
            result.trace_cache.misses <= 100,
            "searches {}",
            result.trace_cache.misses
        );
        assert!(result.trace_cache.hit_rate() >= 0.99);
    }

    #[test]
    fn serving_keeps_the_decode_crossover() {
        // The transformer/decode crossover carries over to serving: the
        // conservative conversion chain loses to the digital baseline on
        // every mix, aggressive scaling keeps a (thin) photonic edge.
        let cons = serving_study(ScalingProfile::Conservative).unwrap();
        let aggr = aggressive_serving_study();
        assert_eq!(cons.rows.len(), aggr.rows.len());
        for (c, a) in cons.rows.iter().zip(&aggr.rows) {
            assert!(
                c.vs.energy_advantage() < 1.0,
                "{} cap {}: conservative advantage {:.2}",
                c.mix,
                c.capacity,
                c.vs.energy_advantage()
            );
            assert!(
                a.vs.energy_advantage() > 1.0,
                "{} cap {}: aggressive advantage {:.2}",
                a.mix,
                a.capacity,
                a.vs.energy_advantage()
            );
        }
    }

    /// The aggressive-corner SLO study, computed once per test binary
    /// — same wall-time discipline as [`aggressive_serving_study`].
    fn aggressive_slo_study() -> &'static SloStudyResult {
        use std::sync::OnceLock;
        static RESULT: OnceLock<SloStudyResult> = OnceLock::new();
        RESULT.get_or_init(|| serving_slo_study(ScalingProfile::Aggressive).unwrap())
    }

    #[test]
    fn slo_study_shapes_hold() {
        let result = aggressive_slo_study();
        assert_eq!(result.rows.len(), slo_scenarios().unwrap().len());
        let prompt_tokens: u64 = slo_mix()
            .unwrap()
            .requests()
            .iter()
            .map(|r| r.prompt as u64)
            .sum();
        for row in &result.rows {
            // Prefill is charged once per request in every scenario.
            assert_eq!(row.prefill_tokens, prompt_tokens, "{}", row.arrival);
            // Latency percentiles are ordered and positive.
            let t = &row.photonic_ttft;
            assert!(
                t.p50 > 0.0 && t.p50 <= t.p95 && t.p95 <= t.p99,
                "{}",
                row.arrival
            );
            let b = &row.photonic_tbt;
            assert!(b.p50 > 0.0 && b.p50 <= b.p99);
            assert!(row.digital_ttft.p99 > 0.0);
            // The digital clock serves the same schedule faster.
            assert!(row.digital_ttft.p99 < row.photonic_ttft.p99);
            assert!(row.mean_occupancy > 0.0 && row.mean_occupancy <= 1.0 + 1e-12);
            assert!(
                row.tokens.photonic_tokens_per_s > 0.0 && row.tokens.digital_tokens_per_s > 0.0
            );
            // Prefill is dense work: it pulls the aggressive corner's
            // energy edge above the decode-parity floor.
            assert!(
                row.vs.energy_advantage() > 1.0,
                "{} {}: advantage {:.2}",
                row.arrival,
                row.policy,
                row.vs.energy_advantage()
            );
        }
        // Queueing shows: the overloaded regime has a worse TTFT tail
        // than the underloaded one under the same FIFO policy.
        let under = result.row("poisson(r0.1,sfeedf00d)", "fifo").unwrap();
        let over = result.row(OVERLOAD_ARRIVAL, "fifo").unwrap();
        assert!(
            over.photonic_ttft.p99 > under.photonic_ttft.p99,
            "overload p99 {:.4}s vs underload {:.4}s",
            over.photonic_ttft.p99,
            under.photonic_ttft.p99
        );
        // The admission lever: under overload, prioritizing short
        // prompts cuts the median TTFT vs FIFO.
        let slo = result
            .row(OVERLOAD_ARRIVAL, &slo_policy().to_string())
            .unwrap();
        assert!(
            slo.photonic_ttft.p50 < over.photonic_ttft.p50,
            "slo p50 {:.4}s vs fifo {:.4}s",
            slo.photonic_ttft.p50,
            over.photonic_ttft.p50
        );
        // Chunked prefill + bucketed decode keep the cache economics.
        assert!(
            result.trace_cache.hit_rate() >= 0.95,
            "{:.3}",
            result.trace_cache.hit_rate()
        );
    }

    #[test]
    fn slo_study_loses_the_edge_at_the_conservative_corner() {
        // Same crossover as every other study: the conservative
        // conversion chain hands the energy edge to the digital
        // baseline even with dense prefill in the trace.
        let result =
            serving_scenario_study(ScalingProfile::Conservative, &slo_scenarios().unwrap()[..1])
                .unwrap();
        assert!(result.rows[0].vs.energy_advantage() < 1.0);
    }

    /// The aggressive-corner paged study, computed once per test binary
    /// — same wall-time discipline as [`aggressive_serving_study`].
    fn aggressive_paged_study() -> &'static PagedServingStudyResult {
        use std::sync::OnceLock;
        static RESULT: OnceLock<PagedServingStudyResult> = OnceLock::new();
        RESULT.get_or_init(|| paged_serving_study(ScalingProfile::Aggressive).unwrap())
    }

    /// The paged-study invariants both scaling corners must satisfy —
    /// the ISSUE's acceptance bar verbatim: paged DRAM traffic bounded
    /// above by bucketed with a measured delta, and prefix sharing
    /// cutting prefill MACs and energy.
    fn assert_paged_study_invariants(result: &PagedServingStudyResult) {
        assert_eq!(result.rows.len(), 3);
        let (bucketed, paged, shared) = (result.bucketed(), result.paged(), result.paged_shared());
        // Rows 0 and 1 lower the *same* schedule: same steps, same
        // generated tokens, same prefilled prompt tokens.
        assert_eq!(bucketed.steps, paged.steps);
        assert_eq!(bucketed.tokens, paged.tokens);
        assert_eq!(bucketed.prefill_tokens, paged.prefill_tokens);
        // The soundness bound, strictly: 16 divides 256, so every paged
        // attend length is <= its bucketed padding, and the mixed-length
        // mix guarantees some step is genuinely shorter.
        assert!(
            paged.backing_accesses < bucketed.backing_accesses,
            "paged {:.3e} vs bucketed {:.3e}",
            paged.backing_accesses,
            bucketed.backing_accesses
        );
        assert!(paged.gmacs <= bucketed.gmacs);
        assert!(result.dram_delta() > 0.0 && result.dram_delta() < 1.0);
        // Exact allocation wastes less capacity than bucket padding.
        assert!(
            paged.peak_waste < bucketed.peak_waste,
            "waste {:.3} vs {:.3}",
            paged.peak_waste,
            bucketed.peak_waste
        );
        assert!(paged.peak_waste < PAGED_KV_PAGE as f64 / (PAGED_KV_PAGE + 1) as f64);
        // Prefix sharing: every sharer after the owner skips the shared
        // prefix, and the savings survive the copy-on-write charge.
        let sharers = (result.requests - 1) as u64;
        assert_eq!(
            result.prefix_prefill_token_savings(),
            sharers * PAGED_SHARED_PREFIX as u64
        );
        assert_eq!(shared.tokens, paged.tokens);
        assert!(shared.gmacs < paged.gmacs);
        assert!(
            shared.photonic_total_mj < paged.photonic_total_mj,
            "shared {:.1} mJ vs paged {:.1} mJ",
            shared.photonic_total_mj,
            paged.photonic_total_mj
        );
        assert!(result.prefix_mac_savings() > 0.0);
        assert!(result.prefix_energy_savings() > 0.0);
    }

    #[test]
    fn paged_study_shapes_hold() {
        let result = aggressive_paged_study();
        assert_paged_study_invariants(result);
        // The 40-token prefix is deliberately page-misaligned: 2 full
        // pages stored once plus an 8-token CoW tail per sharer.
        assert_eq!(PAGED_SHARED_PREFIX % PAGED_KV_PAGE, 8);
        // The content-addressed sweep survives paging: finer pages mean
        // more distinct attend lengths than the bucketed trace, but the
        // search count stays bounded by the unique signatures, not the
        // three traces' step count.
        assert!(result.trace_cache.lookups() > 0);
        assert!(
            result.trace_cache.hit_rate() >= 0.9,
            "hit rate {:.3}",
            result.trace_cache.hit_rate()
        );
    }

    #[test]
    fn studies_reject_bad_serving_inputs_with_typed_errors() {
        use lumen_workload::{AdmissionPolicy, ArrivalProcess, FleetRouter};
        let empty = capacity_plan_study(
            ScalingProfile::Conservative,
            0,
            FleetRouter::RoundRobin,
            fleet_arrival().unwrap(),
        )
        .unwrap_err();
        assert_eq!(empty, SystemError::Serving(ServingError::EmptyFleet));
        let bucketed = slo_scenario(ArrivalProcess::ClosedLoop, AdmissionPolicy::Fifo).unwrap();
        let unpaged =
            paged_serving_scenario_study(ScalingProfile::Conservative, &bucketed).unwrap_err();
        assert_eq!(unpaged, SystemError::Serving(ServingError::PagedKvRequired));
    }

    #[test]
    fn paged_study_holds_at_the_conservative_corner() {
        // The residency accounting is system-independent arithmetic on
        // the same schedules; the DRAM and energy deltas must survive
        // the conversion-chain corner swap.
        let result = paged_serving_study(ScalingProfile::Conservative).unwrap();
        assert_paged_study_invariants(&result);
    }

    #[test]
    fn fig5_shapes_hold() {
        let result = fig5_reuse_exploration().unwrap();
        assert_eq!(result.rows.len(), 18);
        assert!(
            result.converter_reduction().unwrap() >= 0.35,
            "converter reduction {:.2}",
            result.converter_reduction().unwrap()
        );
        assert!(
            result.accelerator_reduction().unwrap() >= 0.25,
            "accelerator reduction {:.2}",
            result.accelerator_reduction().unwrap()
        );
        // More input reuse monotonically cuts input-conversion energy.
        let input_pj = |ir: usize| {
            result
                .rows
                .iter()
                .find(|r| {
                    r.weight_reuse == WeightReuse::Original
                        && r.output_reuse == 3
                        && r.input_reuse == ir
                })
                .unwrap()
                .segments_pj_per_mac[2]
        };
        assert!(input_pj(9) > input_pj(27));
        assert!(input_pj(27) > input_pj(45));
    }
}
