//! `lumen` — command-line driver for the photonic-accelerator model.
//!
//! Regenerates every figure of the paper, inspects architectures and
//! workloads, and runs per-layer utilization reports:
//!
//! ```text
//! lumen fig2                 # energy-breakdown validation
//! lumen fig3                 # throughput (ideal / reported / modeled)
//! lumen fig4                 # full-system memory exploration
//! lumen fig5                 # analog/optical reuse exploration
//! lumen all                  # everything above
//! lumen arch --scaling aggressive
//! lumen layers --network bert-base
//! lumen networks             # workload inventory (CNNs + transformers)
//! lumen transformers         # photonic vs digital on attention workloads
//! lumen decode               # autoregressive decode vs KV length
//! lumen serving              # continuous batching of mixed-length traffic
//! lumen fleet --instances 3  # fleet-scale capacity planning across instances
//! lumen components           # component library report
//! lumen check                # static pre-flight lint of the whole matrix
//! ```

use lumen_albireo::flags::option_value;
use lumen_albireo::{experiments, AlbireoConfig, ScalingProfile};
use lumen_components::NoiseBudget;
use lumen_components::{
    Adc, ComponentCatalog, Dac, DigitalMac, Dram, DramKind, MachZehnder, Microring, NocLink,
    Photodiode, RegisterFile, SampleAndHold, Sram, StarCoupler, Waveguide,
};
use lumen_core::report::{network_table, network_table_deduped, Table};
use lumen_core::{EvalSession, NetworkOptions, SystemError};
use lumen_units::{Frequency, Power};
use lumen_workload::networks;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Global flags may appear anywhere, including before the subcommand;
    // strip them so dispatch sees only the command and its options.
    let args = match apply_global_flags(&raw) {
        Ok(rest) => rest,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let command = args.first().map_or("help", String::as_str);
    if let Err(e) = lumen_albireo::flags::check_flags(&args) {
        eprintln!("error: {e} (try `lumen help`)");
        return ExitCode::FAILURE;
    }
    let result = match command {
        "fig2" => show(experiments::fig2_energy_breakdown()),
        "fig3" => show(experiments::fig3_throughput()),
        "fig4" => show(experiments::fig4_memory_exploration()),
        "fig5" => show(experiments::fig5_reuse_exploration()),
        "all" => show(experiments::fig2_energy_breakdown())
            .and_then(|()| show(experiments::fig3_throughput()))
            .and_then(|()| show(experiments::fig4_memory_exploration()))
            .and_then(|()| show(experiments::fig5_reuse_exploration())),
        "arch" => arch(&args),
        "layers" => layers(&args),
        "networks" => networks_cmd(),
        "transformers" => {
            parse_scaling(&args).and_then(|s| show(experiments::transformer_study(s)))
        }
        "decode" => parse_scaling(&args).and_then(|s| show(experiments::decode_study(s))),
        "serving" => serving_cmd(&args),
        "fleet" => fleet_cmd(&args),
        "components" => components_cmd(),
        "check" => check_cmd(&args),
        "baseline" => baseline(&args),
        "precision" => precision(&args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other if other.starts_with('-') => {
            Err(format!("unknown option `{other}` (try `lumen help`)"))
        }
        other => Err(format!("unknown command `{other}` (try `lumen help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Applies and strips the flags every subcommand honors: `--threads N`
/// forces the sweep/eval worker count (the `LUMEN_SWEEP_THREADS`
/// override made reachable), `--no-cache` disables the
/// content-addressed evaluation cache for A/B debugging
/// (`LUMEN_EVAL_CACHE=0`). Both work by setting the corresponding
/// environment variable before any evaluation starts — the knobs are
/// resolved once per process, so this must run first. Returns the
/// remaining arguments (command + per-command options), so the global
/// flags are position-independent.
fn apply_global_flags(args: &[String]) -> Result<Vec<String>, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let Some(threads) = iter.next() else {
                    return Err("--threads expects a worker count".to_string());
                };
                let n: usize = threads
                    .parse()
                    .map_err(|_| format!("--threads expects a whole number, got `{threads}`"))?;
                if n == 0 || n > lumen_core::sweep::MAX_FORCED_THREADS {
                    return Err(format!(
                        "--threads must be in 1..={} (got {n})",
                        lumen_core::sweep::MAX_FORCED_THREADS
                    ));
                }
                std::env::set_var("LUMEN_SWEEP_THREADS", n.to_string());
            }
            "--no-cache" => std::env::set_var("LUMEN_EVAL_CACHE", "0"),
            _ => rest.push(arg.clone()),
        }
    }
    Ok(rest)
}

fn print_help() {
    println!("lumen — architecture-level modeling of photonic DNN accelerators");
    println!();
    println!("USAGE: lumen <COMMAND> [OPTIONS]");
    println!();
    println!("COMMANDS:");
    println!("  fig2        Fig. 2: best-case energy-breakdown validation");
    println!("  fig3        Fig. 3: throughput for VGG16 and AlexNet");
    println!("  fig4        Fig. 4: full-system memory exploration (batching, fusion)");
    println!("  fig5        Fig. 5: analog/optical reuse exploration");
    println!("  all         run all four figures");
    println!("  arch        print the Albireo hierarchy  [--scaling <corner>]");
    println!("  layers      per-layer utilization report [--network <name>] [--scaling <corner>]");
    println!("  networks    list the built-in DNN workloads (CNNs + transformers)");
    println!("  transformers  photonic vs digital on transformer workloads [--scaling <corner>]");
    println!("  decode      GPT-2 small autoregressive decode vs KV length [--scaling <corner>]");
    println!("  serving     continuous batching of mixed-length traffic [--scaling <corner>]");
    println!("              [--arrival closed-loop|poisson[:rate]|bursty|diurnal]");
    println!("              [--policy fifo|shortest-prompt|slo]   (open-loop SLO study)");
    println!("              [--kv-page N [--shared-prefix L]]     (paged KV residency study)");
    println!("  fleet       fleet-scale capacity planning [--scaling <corner>]");
    println!(
        "              [--instances N] [--router round-robin|join-shortest-queue|least-loaded-kv]"
    );
    println!("              [--arrival closed-loop|poisson[:rate]|bursty|diurnal]");
    println!("              [--slo p99-ttft:MS]  (search the smallest fleet meeting the SLO)");
    println!("  components  print the component library report");
    println!("  check       static pre-flight lint of architectures x workloads x strategies");
    println!("              [--arch albireo|digital] [--network <name>] [--scaling <corner>]");
    println!(
        "              [--format text|json] [--deny warnings] [--allow <code>] [--deny <code>]"
    );
    println!("  baseline    photonic vs digital-electronic comparison [--scaling <corner>]");
    println!("  precision   noise-limited analog resolution vs received optical power");
    println!("  help        show this message");
    println!();
    println!("GLOBAL OPTIONS:");
    println!("  --threads N   force the evaluation worker count (default: machine parallelism)");
    println!("  --no-cache    disable the content-addressed evaluation cache (A/B debugging)");
    println!();
    println!("Corners: conservative | moderate | aggressive");
    println!("Networks: {}", networks::NAMES.join(" | "));
    println!("`layers` also takes --dedup to collapse identical layers into one xN row");
}

fn parse_scaling(args: &[String]) -> Result<ScalingProfile, String> {
    match option_value(args, "--scaling") {
        None => Ok(ScalingProfile::Conservative),
        Some("conservative") => Ok(ScalingProfile::Conservative),
        Some("moderate") => Ok(ScalingProfile::Moderate),
        Some("aggressive") => Ok(ScalingProfile::Aggressive),
        Some(other) => Err(format!("unknown scaling corner `{other}`")),
    }
}

/// Prints a study's rendering and a blank line, or reports its error.
fn show(study: Result<impl std::fmt::Display, SystemError>) -> Result<(), String> {
    println!("{}", study.map_err(|e| e.to_string())?);
    Ok(())
}

/// The built-in network `name`, or the error listing the valid names.
fn network_named(name: &str) -> Result<lumen_workload::Network, String> {
    networks::by_name(name).ok_or_else(|| {
        format!(
            "unknown network `{name}` (try: {})",
            networks::NAMES.join(", ")
        )
    })
}

fn arch(args: &[String]) -> Result<(), String> {
    let scaling = parse_scaling(args)?;
    let config = AlbireoConfig::new(scaling);
    let arch = config.build_arch();
    println!("{arch}");
    println!("total area: {}", arch.total_area());
    println!(
        "link budget: launch {} / wall {}",
        config.link_budget().required_launch_power(),
        config.link_budget().required_wall_power()
    );
    Ok(())
}

fn layers(args: &[String]) -> Result<(), String> {
    let scaling = parse_scaling(args)?;
    let name = option_value(args, "--network").unwrap_or("resnet18");
    let net = network_named(name)?;
    let session = EvalSession::new(AlbireoConfig::new(scaling).build_system());
    let eval = session
        .evaluate_network(&net, &NetworkOptions::baseline())
        .map_err(|e| e.to_string())?;
    println!("{name} on albireo-{scaling}:");
    // Opt-in deduplicated rendering: one row per unique layer with an
    // xN multiplicity column (12 identical encoder blocks -> x12).
    if args.iter().any(|a| a == "--dedup") {
        print!("{}", network_table_deduped(&eval).render());
    } else {
        print!("{}", network_table(&eval).render());
    }
    let peak = session.system().arch().peak_parallelism();
    println!(
        "throughput {:.0} MACs/cycle ({:.1}% of the {} peak)",
        eval.throughput_macs_per_cycle(),
        100.0 * eval.throughput_macs_per_cycle() / peak as f64,
        peak
    );
    let stats = session.cache_stats();
    if stats.hits > 0 {
        println!(
            "eval cache: {} unique layer evaluations, {} served from cache ({:.0}% hit rate)",
            stats.misses,
            stats.hits,
            100.0 * stats.hit_rate()
        );
    }
    Ok(())
}

fn networks_cmd() -> Result<(), String> {
    let mut table = Table::new(vec![
        "network".into(),
        "layers".into(),
        "GMACs".into(),
        "Mweights".into(),
        "strided".into(),
        "fc".into(),
        "matmul".into(),
        // GEMM share counts matmul + fully-connected MACs together.
        "gemm MAC %".into(),
    ]);
    for name in networks::NAMES {
        let net = network_named(name)?;
        let stats = net.stats();
        let strided = net.layers().iter().filter(|l| !l.is_unit_stride()).count();
        let count_kind = |kind: lumen_workload::LayerKind| {
            net.layers().iter().filter(|l| l.kind() == kind).count()
        };
        table.row(vec![
            name.to_string(),
            stats.layers.to_string(),
            format!("{:.2}", stats.total_macs as f64 / 1e9),
            format!("{:.1}", stats.total_weights as f64 / 1e6),
            strided.to_string(),
            count_kind(lumen_workload::LayerKind::FullyConnected).to_string(),
            count_kind(lumen_workload::LayerKind::Matmul).to_string(),
            format!("{:.0}%", 100.0 * net.gemm_mac_fraction()),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

/// Shared lint pre-flight for the serving and fleet paths: lint the
/// built scenario as GPT-2 small will serve it (its context window
/// guards L0404) and, on the fleet path, the built fleet; print every
/// diagnostic, abort only on errors (an overloaded arrival rate is a
/// legitimate thing to study, so L0403/L0409 warn).
fn preflight(
    scenario: &lumen_workload::ServingScenario,
    fleet: Option<&lumen_workload::Fleet>,
) -> Result<(), String> {
    use lumen_lint::{LintRegistry, LintTarget};
    let model = lumen_workload::ServingModel::gpt2_small();
    let mut target = LintTarget::new().with_serving(scenario, &model);
    if let Some(fleet) = fleet {
        target = target.with_fleet(fleet);
    }
    let report = LintRegistry::with_default_lints().run(&target);
    if !report.is_empty() {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "serving pre-flight found {} error(s)",
            report.errors()
        ))
    }
}

fn serving_cmd(args: &[String]) -> Result<(), String> {
    use lumen_albireo::flags::{parse_serving_flags, ServingPlan};
    let scaling = parse_scaling(args)?;
    match parse_serving_flags(args).map_err(|e| e.to_string())? {
        // Legacy closed-loop study: capacity sweep over the three mixes.
        ServingPlan::ClosedLoopStudy => show(experiments::serving_study(scaling)),
        ServingPlan::Scenario(scenario) => {
            preflight(&scenario, None)?;
            show(experiments::serving_scenario_study(
                scaling,
                std::slice::from_ref(&scenario),
            ))
        }
        ServingPlan::Paged(scenario) => {
            preflight(&scenario, None)?;
            show(experiments::paged_serving_scenario_study(
                scaling, &scenario,
            ))
        }
    }
}

/// `lumen fleet`: route one arrival stream across N serving instances
/// and report fleet-wide percentiles — or, with `--slo p99-ttft:MS`,
/// sweep the instance count upward to the smallest fleet meeting the
/// target.
fn fleet_cmd(args: &[String]) -> Result<(), String> {
    use lumen_albireo::flags::parse_fleet_flags;
    let scaling = parse_scaling(args)?;
    let plan = parse_fleet_flags(args).map_err(|e| e.to_string())?;
    let template = experiments::fleet_template(plan.arrival.clone()).map_err(|e| e.to_string())?;
    let fleet = lumen_workload::Fleet::try_uniform(template, plan.router, plan.instances)
        .map_err(|e| e.to_string())?;
    preflight(fleet.stream(), Some(&fleet))?;
    match plan.slo_p99_ttft_ms {
        Some(slo) => show(experiments::fleet_slo_search(
            scaling,
            slo,
            plan.router,
            plan.arrival,
        )),
        None => show(experiments::capacity_plan_study(
            scaling,
            plan.instances,
            plan.router,
            plan.arrival,
        )),
    }
}

fn components_cmd() -> Result<(), String> {
    let mut catalog = ComponentCatalog::new();
    catalog.insert(
        "sram-glb-4MiB",
        Sram::new(4 * 1024 * 1024 * 8, 256).with_banks(32),
    );
    catalog.insert("dram-lpddr4", Dram::new(DramKind::Lpddr4, 8));
    catalog.insert("dram-ddr4", Dram::new(DramKind::Ddr4, 8));
    catalog.insert("regfile-16x8", RegisterFile::new(16, 8));
    catalog.insert("adc-8b", Adc::new(8));
    catalog.insert("dac-8b", Dac::new(8));
    catalog.insert("sample-and-hold", SampleAndHold::new());
    catalog.insert("digital-mac-8b", DigitalMac::new(8));
    catalog.insert("noc-link-8b-1mm", NocLink::new(8, 1.0));
    catalog.insert("microring", Microring::new());
    catalog.insert("mach-zehnder", MachZehnder::new());
    catalog.insert("photodiode", Photodiode::new());
    catalog.insert("star-coupler-1x8", StarCoupler::new(8));
    catalog.insert("waveguide-10mm", Waveguide::new(10.0));
    print!("{catalog}");
    let sc = StarCoupler::new(8);
    println!(
        "star-coupler-1x8 optical loss: {} ({} splitting + {} excess)",
        sc.total_loss(),
        sc.splitting_loss(),
        sc.excess_loss()
    );
    Ok(())
}

fn check_cmd(args: &[String]) -> Result<(), String> {
    use lumen_albireo::{check, DigitalBaseline};
    use lumen_lint::{LintConfig, Report};

    // `--deny warnings` escalates every warning; `--deny L####` escalates
    // one code; `--allow L####` drops one code. The flags repeat, so walk
    // the (flag, value) pairs instead of using `option_value`;
    // `check_flags` has already rejected a flag without a value.
    let mut config = LintConfig::new();
    for pair in args.windows(2) {
        config = match (pair[0].as_str(), pair[1].as_str()) {
            ("--allow", code) => config.allow(code),
            ("--deny", "warnings") => config.deny_warnings(),
            ("--deny", code) => config.deny(code),
            _ => config,
        };
    }

    let format = option_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown format `{format}` (expected text or json)"));
    }

    // No `--scaling` means both figure corners, matching the CI gate.
    let corners = match option_value(args, "--scaling") {
        None => vec![ScalingProfile::Conservative, ScalingProfile::Aggressive],
        Some(_) => vec![parse_scaling(args)?],
    };
    let (photonic, digital) = match option_value(args, "--arch") {
        None => (true, true),
        Some("albireo") => (true, false),
        Some("digital") => (false, true),
        Some(other) => {
            return Err(format!(
                "unknown arch `{other}` (expected albireo or digital)"
            ));
        }
    };
    let nets = match option_value(args, "--network") {
        None => check::check_networks(),
        Some(name) => vec![network_named(name)?],
    };

    let mut systems = Vec::new();
    if photonic {
        for corner in &corners {
            systems.push(AlbireoConfig::new(*corner).build_system());
        }
    }
    if digital {
        // The digital baseline has no scaling corners; check it once.
        systems.push(DigitalBaseline::new().build_system());
    }

    let mut report = Report::default();
    for system in &systems {
        for net in &nets {
            report.merge(check::check_system_with(system, net, &config));
        }
    }

    if format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
        println!(
            "checked {} network(s) x {} system(s)",
            nets.len(),
            systems.len()
        );
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("check found {} error(s)", report.errors()))
    }
}

fn baseline(args: &[String]) -> Result<(), String> {
    let scaling = parse_scaling(args)?;
    let result = experiments::baseline_study(scaling).map_err(|e| e.to_string())?;
    // Unlike the other studies, `lumen baseline` ends without a blank line.
    print!("{result}");
    Ok(())
}

fn precision(_args: &[String]) -> Result<(), String> {
    let budget = NoiseBudget::new(Frequency::from_gigahertz(5.0));
    let mut table = Table::new(vec![
        "received power".into(),
        "SNR (dB)".into(),
        "achievable bits".into(),
    ]);
    for dbm in [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0] {
        let p = Power::from_dbm(dbm);
        table.row(vec![
            format!("{dbm:.0} dBm"),
            format!("{:.1}", budget.snr_db(p)),
            format!("{:.2}", budget.achievable_bits(p)),
        ]);
    }
    println!(
        "direct-detection precision budget at 5 GS/s (1 A/W, NEP 2 pW/\u{221a}Hz, RIN -150 dB/Hz):"
    );
    print!("{}", table.render());
    for bits in [4.0, 6.0, 8.0] {
        match budget.required_power(bits) {
            Some(p) => println!("{bits:.0}-bit detection needs >= {p}"),
            None => println!("{bits:.0}-bit detection is RIN-limited (unreachable)"),
        }
    }
    Ok(())
}
