//! Typed flag parsing for the `lumen serving` and `lumen fleet`
//! subcommands, and the option check every `lumen` subcommand runs
//! first ([`check_flags`]): an option the command does not read is an
//! error, not a silent default run.
//!
//! The CLI binary used to hand-validate flag combinations with ad-hoc
//! string checks ("--shared-prefix needs --kv-page", and so on),
//! re-deriving rules the serving layer already owns. This module lowers
//! every flag combination to one [`ServingScenarioBuilder`] run, so
//! contradictions come back as the serving layer's own typed
//! [`ServingError`]s, wrapped in [`FlagError`] next to the purely
//! syntactic failures (unparseable numbers, unknown names). It lives in
//! the library — not the binary — so the flag-combination matrix is
//! testable without spawning processes.
//!
//! [`ServingScenarioBuilder`]: lumen_workload::ServingScenarioBuilder

use crate::experiments;
use lumen_workload::{AdmissionPolicy, ArrivalProcess, FleetRouter, ServingError, ServingScenario};
use std::fmt;

/// What a `lumen serving` invocation resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingPlan {
    /// No serving flags: the legacy closed-loop capacity sweep over the
    /// three mixes.
    ClosedLoopStudy,
    /// `--arrival` / `--policy`: one open-loop SLO scenario.
    Scenario(ServingScenario),
    /// `--kv-page [--shared-prefix]`: the paged-residency study, with
    /// the scenario carrying the page table and shared prefix.
    Paged(ServingScenario),
}

/// A `lumen fleet` invocation: the fleet shape plus, in search mode,
/// the SLO to plan capacity against.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Instances to provision (`--instances`, default
    /// [`experiments::FLEET_INSTANCES`]).
    pub instances: usize,
    /// Routing discipline (`--router`, default round-robin).
    pub router: FleetRouter,
    /// The offered arrival stream (`--arrival`, default
    /// [`experiments::fleet_arrival`]).
    pub arrival: ArrivalProcess,
    /// The p99 TTFT target in milliseconds when `--slo p99-ttft:MS`
    /// asked for search mode instead of a fixed-size plan.
    pub slo_p99_ttft_ms: Option<f64>,
}

/// Why a serving/fleet flag set was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FlagError {
    /// A flag's value failed to parse as the expected shape.
    InvalidValue {
        /// The flag, e.g. `--kv-page`.
        flag: &'static str,
        /// What the flag wanted, e.g. "a token count".
        expected: &'static str,
        /// What it got.
        value: String,
    },
    /// An arrival process name outside the supported set.
    UnknownArrival(String),
    /// An admission policy name outside the supported set.
    UnknownPolicy(String),
    /// A router name outside the supported set.
    UnknownRouter(String),
    /// An SLO spec that is not `p99-ttft:<ms>`.
    UnknownSlo(String),
    /// `--kv-page` combined with `--arrival` or `--policy`: the paged
    /// study is closed-loop by construction.
    PagedOpenLoop,
    /// The combination parsed but failed scenario validation.
    Scenario(ServingError),
    /// An argument the subcommand does not read.
    UnknownFlag {
        /// The subcommand, e.g. `serving`.
        command: String,
        /// The rejected argument, e.g. `--bogus`.
        flag: String,
    },
    /// A flag that takes a value came last, without one.
    MissingValue(&'static str),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::InvalidValue {
                flag,
                expected,
                value,
            } => {
                write!(f, "{flag} expects {expected}, got `{value}`")
            }
            FlagError::UnknownArrival(spec) => write!(
                f,
                "unknown arrival process `{spec}` \
                 (expected closed-loop, poisson[:rate], bursty or diurnal)"
            ),
            FlagError::UnknownPolicy(spec) => write!(
                f,
                "unknown admission policy `{spec}` (expected fifo, shortest-prompt or slo)"
            ),
            FlagError::UnknownRouter(spec) => write!(
                f,
                "unknown router `{spec}` \
                 (expected round-robin, join-shortest-queue or least-loaded-kv)"
            ),
            FlagError::UnknownSlo(spec) => {
                write!(f, "unknown slo `{spec}` (expected p99-ttft:<ms>)")
            }
            FlagError::PagedOpenLoop => write!(
                f,
                "--kv-page runs the closed-loop paged study; drop --arrival/--policy"
            ),
            FlagError::Scenario(e) => write!(f, "{e}"),
            FlagError::UnknownFlag { command, flag } => {
                write!(f, "unknown option `{flag}` for `lumen {command}`")
            }
            FlagError::MissingValue(flag) => write!(f, "{flag} expects a value"),
        }
    }
}

impl std::error::Error for FlagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlagError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServingError> for FlagError {
    fn from(e: ServingError) -> FlagError {
        FlagError::Scenario(e)
    }
}

/// Every option `lumen <command>` reads, as `(flag, takes_value)`;
/// `None` for `help` and unknown commands, which the dispatcher handles.
fn command_options(command: &str) -> Option<&'static [(&'static str, bool)]> {
    const SCALING: (&str, bool) = ("--scaling", true);
    Some(match command {
        "fig2" | "fig3" | "fig4" | "fig5" | "all" | "networks" | "components" | "precision" => &[],
        "arch" | "transformers" | "decode" | "baseline" => &[SCALING],
        "layers" => &[SCALING, ("--network", true), ("--dedup", false)],
        "serving" => &[
            SCALING,
            ("--arrival", true),
            ("--policy", true),
            ("--kv-page", true),
            ("--shared-prefix", true),
        ],
        "fleet" => &[
            SCALING,
            ("--instances", true),
            ("--router", true),
            ("--arrival", true),
            ("--slo", true),
        ],
        "check" => &[
            SCALING,
            ("--arch", true),
            ("--network", true),
            ("--format", true),
            ("--allow", true),
            ("--deny", true),
        ],
        _ => return None,
    })
}

/// Checks a `lumen` argument list (the command, then its options, with
/// the global flags already stripped) against the options that command
/// reads.
///
/// # Errors
///
/// [`FlagError::UnknownFlag`] for any argument that is neither one of
/// the command's options nor the value of one, and
/// [`FlagError::MissingValue`] for a trailing option that needs a value.
pub fn check_flags(args: &[String]) -> Result<(), FlagError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(());
    };
    let Some(options) = command_options(command) else {
        return Ok(());
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match options.iter().find(|(flag, _)| flag == arg) {
            Some(&(flag, true)) => {
                iter.next().ok_or(FlagError::MissingValue(flag))?;
            }
            Some(_) => {}
            None => {
                return Err(FlagError::UnknownFlag {
                    command: command.clone(),
                    flag: arg.clone(),
                })
            }
        }
    }
    Ok(())
}

/// The value following `flag`, when present.
pub fn option_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_count(flag: &'static str, expected: &'static str, raw: &str) -> Result<usize, FlagError> {
    raw.parse().map_err(|_| FlagError::InvalidValue {
        flag,
        expected,
        value: raw.to_string(),
    })
}

/// Parses `--arrival`: a named process, with `poisson` taking an
/// optional `:rate` suffix. Seeds match the `serving_slo_study`
/// scenarios so CLI runs land on the study's golden-pinned traffic.
///
/// # Errors
///
/// [`FlagError::UnknownArrival`] for an unrecognized name,
/// [`FlagError::InvalidValue`] for an unparseable rate, and the typed
/// [`ServingError`] for a non-finite or negative one.
pub fn parse_arrival(spec: &str) -> Result<ArrivalProcess, FlagError> {
    match spec {
        "closed-loop" => Ok(ArrivalProcess::ClosedLoop),
        "bursty" => Ok(ArrivalProcess::try_bursty(0.02, 48, 6, 0xB125_7EED)?),
        "diurnal" => Ok(ArrivalProcess::try_diurnal(0.05, 0.5, 96, 0xFEED_F00D)?),
        _ => {
            let rate = match spec.strip_prefix("poisson") {
                Some("") => 0.5,
                Some(rest) => {
                    let raw = rest
                        .strip_prefix(':')
                        .ok_or_else(|| FlagError::UnknownArrival(spec.to_string()))?;
                    raw.parse::<f64>().map_err(|_| FlagError::InvalidValue {
                        flag: "--arrival poisson",
                        expected: "a rate",
                        value: raw.to_string(),
                    })?
                }
                None => return Err(FlagError::UnknownArrival(spec.to_string())),
            };
            Ok(ArrivalProcess::try_poisson(rate, 0xFEED_F00D)?)
        }
    }
}

/// Parses `--policy`: which queued request a free decode slot admits.
///
/// # Errors
///
/// [`FlagError::UnknownPolicy`] for an unrecognized name.
pub fn parse_policy(spec: &str) -> Result<AdmissionPolicy, FlagError> {
    match spec {
        "fifo" => Ok(AdmissionPolicy::Fifo),
        "shortest-prompt" => Ok(AdmissionPolicy::ShortestPrompt),
        "slo" => Ok(experiments::slo_policy()),
        _ => Err(FlagError::UnknownPolicy(spec.to_string())),
    }
}

/// Parses `--router`: how the fleet assigns arriving requests.
///
/// # Errors
///
/// [`FlagError::UnknownRouter`] for an unrecognized name.
pub fn parse_router(spec: &str) -> Result<FleetRouter, FlagError> {
    match spec {
        "round-robin" => Ok(FleetRouter::RoundRobin),
        "join-shortest-queue" | "jsq" => Ok(FleetRouter::JoinShortestQueue),
        "least-loaded-kv" | "llk" => Ok(FleetRouter::LeastLoadedKv),
        _ => Err(FlagError::UnknownRouter(spec.to_string())),
    }
}

/// Parses `--slo p99-ttft:MS` into the millisecond target.
///
/// # Errors
///
/// [`FlagError::UnknownSlo`] for any other metric name and
/// [`FlagError::InvalidValue`] for a non-positive or unparseable
/// target.
pub fn parse_slo(spec: &str) -> Result<f64, FlagError> {
    let raw = spec
        .strip_prefix("p99-ttft:")
        .ok_or_else(|| FlagError::UnknownSlo(spec.to_string()))?;
    let ms: f64 = raw.parse().map_err(|_| FlagError::InvalidValue {
        flag: "--slo p99-ttft",
        expected: "milliseconds",
        value: raw.to_string(),
    })?;
    if !ms.is_finite() || ms <= 0.0 {
        return Err(FlagError::InvalidValue {
            flag: "--slo p99-ttft",
            expected: "a positive millisecond target",
            value: raw.to_string(),
        });
    }
    Ok(ms)
}

/// Resolves a `lumen serving` argument list to a plan. Every flag
/// combination that describes a scenario starts from the builder knobs
/// [`experiments::slo_scenario`] and its paged and fleet siblings share;
/// mutually-exclusive combinations come back as typed errors instead of
/// hand-rolled strings.
///
/// # Errors
///
/// [`FlagError::PagedOpenLoop`] for `--kv-page` with
/// `--arrival`/`--policy`; [`FlagError::Scenario`] for combinations the
/// [`ServingScenario`] builder rejects (zero page, shared prefix
/// without pages or longer than the shortest prompt); the parse errors
/// of [`parse_arrival`] and [`parse_policy`].
pub fn parse_serving_flags(args: &[String]) -> Result<ServingPlan, FlagError> {
    let arrival_flag = option_value(args, "--arrival");
    let policy_flag = option_value(args, "--policy");
    let page_flag = option_value(args, "--kv-page");
    let shared_flag = option_value(args, "--shared-prefix");

    if arrival_flag.is_none()
        && policy_flag.is_none()
        && page_flag.is_none()
        && shared_flag.is_none()
    {
        return Ok(ServingPlan::ClosedLoopStudy);
    }
    if page_flag.is_some() && (arrival_flag.is_some() || policy_flag.is_some()) {
        return Err(FlagError::PagedOpenLoop);
    }

    let shared = match shared_flag {
        None => 0,
        Some(raw) => parse_count("--shared-prefix", "a token count", raw)?,
    };
    if let Some(raw) = page_flag {
        let page = parse_count("--kv-page", "a token count", raw)?;
        return Ok(ServingPlan::Paged(experiments::try_paged_slo_scenario(
            page, shared,
        )?));
    }
    let arrival = parse_arrival(arrival_flag.unwrap_or("closed-loop"))?;
    let policy = parse_policy(policy_flag.unwrap_or("fifo"))?;
    // `--shared-prefix` without `--kv-page` comes back from `build()` as
    // the serving layer's typed SharedPrefixRequiresPagedKv.
    Ok(ServingPlan::Scenario(
        experiments::slo_builder(experiments::slo_mix()?)
            .shared_prefix(shared)
            .arrival(arrival)
            .policy(policy)
            .build()?,
    ))
}

/// Resolves a `lumen fleet` argument list to a plan.
///
/// # Errors
///
/// [`FlagError::Scenario`] with [`ServingError::EmptyFleet`] for
/// `--instances 0`; the parse errors of [`parse_router`],
/// [`parse_arrival`] and [`parse_slo`]; [`FlagError::InvalidValue`] for
/// an unparseable instance count.
pub fn parse_fleet_flags(args: &[String]) -> Result<FleetPlan, FlagError> {
    let instances = match option_value(args, "--instances") {
        None => experiments::FLEET_INSTANCES,
        Some(raw) => parse_count("--instances", "an instance count", raw)?,
    };
    if instances == 0 {
        return Err(ServingError::EmptyFleet.into());
    }
    let router = match option_value(args, "--router") {
        None => FleetRouter::RoundRobin,
        Some(raw) => parse_router(raw)?,
    };
    let arrival = match option_value(args, "--arrival") {
        None => experiments::fleet_arrival()?,
        Some(raw) => parse_arrival(raw)?,
    };
    let slo_p99_ttft_ms = option_value(args, "--slo").map(parse_slo).transpose()?;
    Ok(FleetPlan {
        instances,
        router,
        arrival,
        slo_p99_ttft_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn no_flags_is_the_legacy_study() {
        assert_eq!(
            parse_serving_flags(&args(&["serving"])).unwrap(),
            ServingPlan::ClosedLoopStudy
        );
    }

    #[test]
    fn arrival_and_policy_build_the_slo_scenario() {
        let plan = parse_serving_flags(&args(&[
            "serving",
            "--arrival",
            "poisson:0.5",
            "--policy",
            "slo",
        ]))
        .unwrap();
        let ServingPlan::Scenario(scenario) = plan else {
            panic!("expected a scenario plan");
        };
        assert_eq!(
            scenario,
            experiments::slo_scenario(
                ArrivalProcess::try_poisson(0.5, 0xFEED_F00D).unwrap(),
                experiments::slo_policy()
            )
            .unwrap()
        );
    }

    #[test]
    fn kv_page_builds_the_paged_scenario() {
        let plan = parse_serving_flags(&args(&[
            "serving",
            "--kv-page",
            "16",
            "--shared-prefix",
            "40",
        ]))
        .unwrap();
        let ServingPlan::Paged(scenario) = plan else {
            panic!("expected a paged plan");
        };
        assert_eq!(scenario.kv_page(), Some(16));
        assert_eq!(scenario.shared_prefix(), 40);
    }

    #[test]
    fn invalid_combinations_are_typed() {
        assert_eq!(
            parse_serving_flags(&args(&["serving", "--kv-page", "16", "--policy", "slo"])),
            Err(FlagError::PagedOpenLoop)
        );
        assert_eq!(
            parse_serving_flags(&args(&["serving", "--shared-prefix", "40"])),
            Err(FlagError::Scenario(
                ServingError::SharedPrefixRequiresPagedKv
            ))
        );
        assert_eq!(
            parse_serving_flags(&args(&["serving", "--kv-page", "0"])),
            Err(FlagError::Scenario(ServingError::ZeroKvPage))
        );
        assert!(matches!(
            parse_serving_flags(&args(&[
                "serving",
                "--kv-page",
                "16",
                "--shared-prefix",
                "999"
            ])),
            Err(FlagError::Scenario(
                ServingError::SharedPrefixExceedsPrompt { .. }
            ))
        ));
    }

    #[test]
    fn fleet_flags_resolve_with_defaults() {
        let plan = parse_fleet_flags(&args(&["fleet"])).unwrap();
        assert_eq!(plan.instances, experiments::FLEET_INSTANCES);
        assert_eq!(plan.router, FleetRouter::RoundRobin);
        assert_eq!(plan.arrival, experiments::fleet_arrival().unwrap());
        assert_eq!(plan.slo_p99_ttft_ms, None);
    }

    #[test]
    fn fleet_flags_parse_search_mode() {
        let plan = parse_fleet_flags(&args(&[
            "fleet",
            "--instances",
            "2",
            "--router",
            "jsq",
            "--arrival",
            "bursty",
            "--slo",
            "p99-ttft:250",
        ]))
        .unwrap();
        assert_eq!(plan.instances, 2);
        assert_eq!(plan.router, FleetRouter::JoinShortestQueue);
        assert_eq!(plan.slo_p99_ttft_ms, Some(250.0));
    }

    #[test]
    fn fleet_rejections_are_typed() {
        assert_eq!(
            parse_fleet_flags(&args(&["fleet", "--instances", "0"])),
            Err(FlagError::Scenario(ServingError::EmptyFleet))
        );
        assert_eq!(
            parse_fleet_flags(&args(&["fleet", "--router", "random"])),
            Err(FlagError::UnknownRouter("random".into()))
        );
        assert_eq!(
            parse_fleet_flags(&args(&["fleet", "--slo", "p50-tbt:10"])),
            Err(FlagError::UnknownSlo("p50-tbt:10".into()))
        );
        assert_eq!(
            parse_fleet_flags(&args(&["fleet", "--slo", "p99-ttft:-5"])),
            Err(FlagError::InvalidValue {
                flag: "--slo p99-ttft",
                expected: "a positive millisecond target",
                value: "-5".into(),
            })
        );
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let cases = vec![
            FlagError::InvalidValue {
                flag: "--kv-page",
                expected: "a token count",
                value: "x".into(),
            },
            FlagError::UnknownArrival("steady".into()),
            FlagError::UnknownPolicy("lifo".into()),
            FlagError::UnknownRouter("random".into()),
            FlagError::UnknownSlo("p50".into()),
            FlagError::PagedOpenLoop,
            FlagError::Scenario(ServingError::EmptyFleet),
            FlagError::UnknownFlag {
                command: "all".into(),
                flag: "--bogus".into(),
            },
            FlagError::MissingValue("--kv-page"),
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(
                !first.is_uppercase(),
                "message should start lowercase or with a flag: {msg}"
            );
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let unknown = |command: &str, flag: &str| {
            Err(FlagError::UnknownFlag {
                command: command.into(),
                flag: flag.into(),
            })
        };
        assert_eq!(
            check_flags(&args(&["serving", "--bogus", "3"])),
            unknown("serving", "--bogus")
        );
        assert_eq!(
            check_flags(&args(&["all", "--cachedir", "x"])),
            unknown("all", "--cachedir")
        );
        // A flag one command reads is still unknown to another.
        assert_eq!(
            check_flags(&args(&["decode", "--kv-page", "16"])),
            unknown("decode", "--kv-page")
        );
        assert_eq!(
            check_flags(&args(&["precision", "extra"])),
            unknown("precision", "extra")
        );
        assert_eq!(
            check_flags(&args(&["serving", "--scaling", "aggressive", "--kv-page"])),
            Err(FlagError::MissingValue("--kv-page"))
        );
        // `help` and unknown commands are left to the dispatcher.
        assert_eq!(check_flags(&args(&["help", "serving"])), Ok(()));
        assert_eq!(check_flags(&args(&[])), Ok(()));
    }

    #[test]
    fn the_removed_cache_dir_flag_is_unknown() {
        for command in ["all", "serving", "fleet", "layers"] {
            assert_eq!(
                check_flags(&args(&[command, "--cache-dir", "D"])),
                Err(FlagError::UnknownFlag {
                    command: command.into(),
                    flag: "--cache-dir".into(),
                })
            );
        }
    }

    #[test]
    fn every_ci_invocation_passes_the_check() {
        for invocation in [
            "all",
            "transformers --scaling aggressive",
            "decode --scaling aggressive",
            "serving --scaling conservative",
            "serving --arrival poisson:0.1 --policy shortest-prompt --scaling conservative",
            "serving --arrival bursty --policy slo --scaling aggressive",
            "serving --kv-page 16 --shared-prefix 40 --scaling conservative",
            "fleet --instances 3 --router least-loaded-kv --scaling conservative",
            "fleet --slo p99-ttft:20 --router join-shortest-queue --scaling aggressive",
            "check --deny warnings",
            "check --format json",
            "layers --network bert-base --dedup",
        ] {
            let list: Vec<&str> = invocation.split_whitespace().collect();
            assert_eq!(check_flags(&args(&list)), Ok(()), "{invocation}");
        }
    }
}
