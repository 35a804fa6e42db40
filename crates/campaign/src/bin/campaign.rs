//! Fault-campaign CLI: sweeps fault class × MTBE × protection × seed,
//! checks hard invariants, prints a summary table, and writes a JSON
//! report.
//!
//! ```text
//! campaign [--quick] [--seeds N] [--frames N] [--threads N]
//!          [--executor det|threaded]
//!          [--classes a,b,..] [--mtbe n1,n2,..]
//!          [--paced] [--period N] [--deadline N] [--slo N]
//!          [--out PATH] [--trace] [--trace-dir DIR]
//!          [--telemetry] [--telemetry-dir DIR]
//! campaign --deadline-sweep [--quick] [--apps a,b,..] [--mults n1,n2,..] [...]
//! campaign --random N [--seed S] [--repro-dir DIR] [...]
//! campaign --replay FILE[,FILE..]
//! ```
//!
//! Exits nonzero when any CommGuard run violates an invariant; in
//! `--random` mode when a failure could not be minimized into a
//! replayable artifact; in `--replay` mode when a fresh run's verdict
//! disagrees with the artifact's recorded one.

use std::process::ExitCode;

use cg_apps::BenchApp;
use cg_campaign::fuzz::{self, FuzzReport, FuzzSpec};
use cg_campaign::json::Json;
use cg_campaign::{
    run_campaign, run_deadline_sweep, CampaignReport, CampaignSpec, DeadlineReport,
    DeadlineSweepSpec, ExecutorKind, Outcome,
};
use cg_fault::{FaultClass, Mtbe};
use cg_runtime::Pacing;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--quick] [--seeds N] [--frames N] [--threads N]\n\
         \x20               [--executor det|threaded]\n\
         \x20               [--classes a,b,..]\n\
         \x20               [--mtbe n1,n2,..] [--out PATH]\n\
         \x20               [--paced] [--period N] [--deadline N] [--slo N]\n\
         \x20               [--trace] [--trace-dir DIR]\n\
         \x20               [--telemetry] [--telemetry-dir DIR]\n\
         \x20      campaign --deadline-sweep [--quick] [--apps a,b,..]\n\
         \x20               [--mults n1,n2,..] [--seeds N] [--classes a,b,..]\n\
         \x20               [--mtbe n1,n2,..] [--threads N] [--out PATH]\n\
         \x20      campaign --random N [--seed S] [--repro-dir DIR] [...]\n\
         \x20      campaign --replay FILE[,FILE..]\n\
         \n\
         executor:  det = deterministic round-robin simulator (default);\n\
         \x20          threaded = one OS thread per node with fault injection\n\
         \x20          and frame-level checkpoint/re-execute recovery\n\
         classes:   baseline burst stuck-at pointer header (default: all)\n\
         mtbe:      mean instructions between errors (default: 256,2048,16384)\n\
         out:       JSON report path (default: campaign_report.json)\n\
         trace:     record event traces; violating/mismatching/hanging runs\n\
         \x20          dump .trace/.chrome.json/.propagation.txt files\n\
         trace-dir: where dumps go (default: traces; implies --trace)\n\
         telemetry: enable the metrics plane; every run dumps a Prometheus\n\
         \x20          .prom + snapshot .jsonl pair and its frame-latency\n\
         \x20          p50/p99 land in the table and JSON\n\
         telemetry-dir: where telemetry dumps go (default: telemetry;\n\
         \x20          implies --telemetry)\n\
         paced:     run every cell on a real-time schedule: sources release\n\
         \x20          frames on the period, overdue frames degrade at the\n\
         \x20          deadline, and on-time/miss counts land in the table\n\
         \x20          and JSON (units: scheduler rounds on det, us threaded)\n\
         period/deadline/slo: override the executor's default schedule\n\
         \x20          (each implies --paced)\n\
         deadline-sweep: quality-vs-MTBE-vs-deadline surface over the app\n\
         \x20          suite: per-app calibrated base latency, deadlines at\n\
         \x20          --mults multiples of it, quality in dB per cell\n\
         apps:      restrict the sweep's app set (default: all six)\n\
         mults:     deadline budgets as base-latency multiples (default 1,2,8)\n\
         random:    fuzz mode — generate N seeded random stream graphs and\n\
         \x20          run each through the golden, det-vs-threaded parity,\n\
         \x20          and faulted differential oracles; failures are shrunk\n\
         \x20          to minimal repros and written as JSON artifacts\n\
         seed:      base seed for --random graph derivation (default: 1)\n\
         repro-dir: where fuzz artifacts go (default: fuzz_repros)\n\
         replay:    re-execute repro artifact(s) exactly and compare the\n\
         \x20          fresh verdict against the recorded one"
    );
    std::process::exit(2)
}

struct Args {
    spec: CampaignSpec,
    out: String,
    /// `--random N`: fuzz mode with N generated graphs (0 = off).
    random: u64,
    /// `--seed S`: base seed for fuzz graph derivation.
    fuzz_seed: u64,
    /// `--repro-dir DIR`: where fuzz artifacts go.
    repro_dir: String,
    /// `--replay FILE,..`: replay mode.
    replay: Vec<String>,
    /// Whether `--frames` was given explicitly (fuzz defaults lower).
    frames_set: bool,
    /// `--deadline-sweep`: quality-vs-deadline surface over the app suite.
    deadline_sweep: bool,
    /// The deadline sweep's resolved spec (only read in sweep mode).
    sweep: DeadlineSweepSpec,
    /// Whether `--out` was given explicitly (sweep mode defaults differ).
    out_set: bool,
}

/// Parses an app name as the paper writes it.
fn parse_app(s: &str) -> BenchApp {
    BenchApp::all()
        .into_iter()
        .find(|a| a.name() == s)
        .unwrap_or_else(|| {
            eprintln!(
                "unknown app '{s}' (expected one of: {})",
                BenchApp::all().map(|a| a.name()).join(", ")
            );
            usage()
        })
}

fn parse_args() -> Args {
    let mut spec = CampaignSpec::default();
    let mut out = "campaign_report.json".to_string();
    let mut random = 0u64;
    let mut fuzz_seed = 1u64;
    let mut repro_dir = "fuzz_repros".to_string();
    let mut replay = Vec::new();
    let mut frames_set = false;
    let mut quick = false;
    let mut seeds_set = false;
    let mut classes_set = false;
    let mut mtbes_set = false;
    let mut out_set = false;
    let mut paced = false;
    let mut period_override = None;
    let mut deadline_override = None;
    let mut slo_override = None;
    let mut deadline_sweep = false;
    let mut apps_override: Option<Vec<BenchApp>> = None;
    let mut mults_override: Option<Vec<u64>> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                let base = CampaignSpec::quick();
                spec.seeds = base.seeds;
                spec.frames = base.frames;
                quick = true;
            }
            "--seeds" => {
                spec.seeds = value(&mut i).parse().unwrap_or_else(|_| usage());
                seeds_set = true;
            }
            "--frames" => {
                spec.frames = value(&mut i).parse().unwrap_or_else(|_| usage());
                frames_set = true;
            }
            "--threads" => {
                spec.threads = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--executor" => {
                spec.executor = ExecutorKind::parse(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            }
            "--classes" => {
                spec.classes = value(&mut i)
                    .split(',')
                    .map(|s| {
                        FaultClass::parse(s).unwrap_or_else(|e| {
                            eprintln!("{e}");
                            usage()
                        })
                    })
                    .collect();
                classes_set = true;
            }
            "--mtbe" => {
                spec.mtbes = value(&mut i)
                    .split(',')
                    .map(|s| Mtbe::instructions(s.parse().unwrap_or_else(|_| usage())))
                    .collect();
                mtbes_set = true;
            }
            "--out" => {
                out = value(&mut i);
                out_set = true;
            }
            "--paced" => paced = true,
            "--period" => {
                period_override = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--deadline" => {
                deadline_override = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--slo" => {
                slo_override = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--deadline-sweep" => deadline_sweep = true,
            "--apps" => {
                apps_override = Some(value(&mut i).split(',').map(parse_app).collect());
            }
            "--mults" => {
                mults_override = Some(
                    value(&mut i)
                        .split(',')
                        .map(|s| s.parse().unwrap_or_else(|_| usage()))
                        .collect(),
                );
            }
            "--trace" => {
                if spec.trace_dir.is_none() {
                    spec.trace_dir = Some("traces".to_string());
                }
            }
            "--trace-dir" => spec.trace_dir = Some(value(&mut i)),
            "--telemetry" => {
                if spec.telemetry_dir.is_none() {
                    spec.telemetry_dir = Some("telemetry".to_string());
                }
            }
            "--telemetry-dir" => spec.telemetry_dir = Some(value(&mut i)),
            "--random" => {
                random = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                fuzz_seed = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--repro-dir" => repro_dir = value(&mut i),
            "--replay" => {
                replay.extend(value(&mut i).split(',').map(str::to_string));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }
    if spec.classes.is_empty() || spec.mtbes.is_empty() || spec.seeds == 0 {
        usage()
    }
    // A schedule override implies --paced; start from the executor's
    // default schedule and apply whichever knobs were given.
    if paced || period_override.is_some() || deadline_override.is_some() || slo_override.is_some() {
        let Pacing::Paced {
            period,
            deadline,
            slo,
        } = spec.executor.default_pacing()
        else {
            unreachable!("default_pacing is always paced")
        };
        let deadline = deadline_override.unwrap_or(deadline);
        spec.pacing = Some(Pacing::Paced {
            period: period_override.unwrap_or(period),
            // An explicit deadline moves the SLO with it unless the SLO
            // was itself pinned.
            deadline,
            slo: slo_override.unwrap_or(if deadline_override.is_some() {
                deadline
            } else {
                slo
            }),
        });
    }
    // The deadline sweep reuses the shared axes only where the user set
    // them explicitly; its own defaults differ from the main campaign's.
    let mut sweep = if quick {
        DeadlineSweepSpec::quick()
    } else {
        DeadlineSweepSpec::default()
    };
    if let Some(apps) = apps_override {
        sweep.apps = apps;
    }
    if let Some(mults) = mults_override {
        sweep.deadline_mults = mults;
    }
    if seeds_set {
        sweep.seeds = spec.seeds;
    }
    if classes_set {
        sweep.classes = spec.classes.clone();
    }
    if mtbes_set {
        sweep.mtbes = spec.mtbes.clone();
    }
    sweep.threads = spec.threads;
    if deadline_sweep
        && (sweep.apps.is_empty()
            || sweep.classes.is_empty()
            || sweep.mtbes.is_empty()
            || sweep.deadline_mults.is_empty()
            || sweep.seeds == 0)
    {
        usage()
    }
    Args {
        spec,
        out,
        random,
        fuzz_seed,
        repro_dir,
        replay,
        frames_set,
        deadline_sweep,
        sweep,
        out_set,
    }
}

/// Builds the fuzz configuration from shared CLI axes.
fn fuzz_spec(args: &Args) -> FuzzSpec {
    let base = FuzzSpec::default();
    FuzzSpec {
        count: args.random,
        seed: args.fuzz_seed,
        frames: if args.frames_set {
            args.spec.frames
        } else {
            base.frames
        },
        executor: args.spec.executor,
        classes: args.spec.classes.clone(),
        mtbe: args
            .spec
            .mtbes
            .first()
            .map_or(base.mtbe, |m| m.as_instructions()),
        threads: args.spec.threads,
        repro_dir: Some(args.repro_dir.clone()),
        ..base
    }
}

fn to_json(report: &CampaignReport) -> Json {
    let spec = &report.spec;
    let mut jspec = Json::object();
    jspec
        .set(
            "classes",
            spec.classes
                .iter()
                .map(|c| Json::from(c.label()))
                .collect::<Vec<_>>(),
        )
        .set(
            "mtbe_instructions",
            spec.mtbes
                .iter()
                .map(|m| Json::from(m.as_instructions()))
                .collect::<Vec<_>>(),
        )
        .set(
            "protections",
            spec.protections
                .iter()
                .map(|p| Json::from(p.label()))
                .collect::<Vec<_>>(),
        )
        .set("seeds", spec.seeds)
        .set("frames", spec.frames)
        .set("queue_capacity", spec.queue_capacity)
        .set("max_rounds", spec.max_rounds)
        .set("executor", spec.executor.label())
        .set(
            "trace_dir",
            spec.trace_dir.as_deref().map_or(Json::Null, Json::from),
        )
        .set(
            "telemetry_dir",
            spec.telemetry_dir.as_deref().map_or(Json::Null, Json::from),
        )
        .set(
            "pacing",
            match spec.pacing {
                Some(Pacing::Paced {
                    period,
                    deadline,
                    slo,
                }) => {
                    let mut jp = Json::object();
                    jp.set("period", period)
                        .set("deadline", deadline)
                        .set("slo", slo);
                    jp
                }
                _ => Json::Null,
            },
        );

    let runs: Vec<Json> = report
        .runs
        .iter()
        .map(|r| {
            let mut j = Json::object();
            j.set("class", r.cell.class.label())
                .set("mtbe_instructions", r.cell.mtbe.as_instructions())
                .set("protection", r.cell.protection.label())
                .set("seed", r.cell.seed)
                .set("outcome", r.outcome.label())
                .set("completed", r.completed)
                .set("sink_len", r.sink_len)
                .set("expected_len", r.expected_len)
                .set("faults", r.faults)
                .set("timeouts", r.timeouts)
                .set("watchdog_escalations", r.watchdog_escalations)
                .set("wd_timeouts_armed", r.watchdog.timeout_escalations)
                .set("wd_forced_progress", r.watchdog.forced_progress)
                .set("wd_frame_aborts", r.watchdog.frame_aborts)
                .set("frame_retries", r.watchdog.frame_retries)
                .set("frames_degraded", r.watchdog.frame_degrades)
                .set("realign_events", r.realign_events)
                .set("max_queue_occupancy", r.max_queue_occupancy)
                .set("blocked_ops", r.blocked_ops)
                .set(
                    "frame_latency_p50",
                    r.frame_latency.map_or(Json::Null, |(p50, _)| p50.into()),
                )
                .set(
                    "frame_latency_p99",
                    r.frame_latency.map_or(Json::Null, |(_, p99)| p99.into()),
                )
                .set(
                    "telemetry_file",
                    r.telemetry_file.as_deref().map_or(Json::Null, Json::from),
                )
                .set(
                    "frames_on_time",
                    r.pacing
                        .as_ref()
                        .map_or(Json::Null, |p| p.frames_on_time.into()),
                )
                .set(
                    "deadline_misses",
                    r.pacing
                        .as_ref()
                        .map_or(Json::Null, |p| p.deadline_misses.into()),
                )
                .set(
                    "degraded_for_deadline",
                    r.pacing
                        .as_ref()
                        .map_or(Json::Null, |p| p.degraded_for_deadline.into()),
                )
                .set(
                    "pace_p99_latency",
                    r.pacing
                        .as_ref()
                        .map_or(Json::Null, |p| p.p99_latency().into()),
                )
                .set(
                    "slo_met",
                    r.pacing.as_ref().map_or(Json::Null, |p| p.slo_met().into()),
                )
                .set(
                    "pacing_unit",
                    r.pacing.as_ref().map_or(Json::Null, |p| p.unit.into()),
                )
                .set(
                    "violations",
                    r.violations
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect::<Vec<_>>(),
                )
                .set(
                    "trace_file",
                    r.trace_file.as_deref().map_or(Json::Null, Json::from),
                )
                .set(
                    "propagation",
                    r.propagation
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect::<Vec<_>>(),
                );
            j
        })
        .collect();

    let mut doc = Json::object();
    doc.set("spec", jspec)
        .set("workers", report.workers)
        .set("total_runs", report.runs.len())
        .set("violations", report.violations().len())
        .set("runs", runs);
    doc
}

fn print_summary(report: &CampaignReport) {
    println!(
        "workers: {} ({})",
        report.workers,
        if report.spec.threads == 0 {
            "auto-resolved"
        } else {
            "requested"
        }
    );
    // Per-rung watchdog columns: wd1 = QM timeouts armed, wd2 = forced
    // progress, wd3 = frame aborts; retry/degr are the recovery rung
    // (frame re-executions and budget-exhausted degradations); maxq is
    // the deepest queue high-water over the group, blkd the blocked
    // pushes+pops. The p50/p99 frame-latency columns (clock units) only
    // appear on telemetered sweeps.
    let telemetered = report.spec.telemetry_dir.is_some();
    let latency_hdr = if telemetered {
        format!(" {:>6} {:>6}", "p50", "p99")
    } else {
        String::new()
    };
    // Paced sweeps append the deadline columns: on-time frames, misses,
    // frames the ladder degraded for their deadline, and the worst p99
    // release-to-commit latency in the group (clock units).
    let paced = report.spec.pacing.is_some();
    let paced_hdr = if paced {
        format!(
            " {:>6} {:>5} {:>5} {:>7}",
            "ontime", "miss", "ddl", "pacep99"
        )
    } else {
        String::new()
    };
    println!(
        "{:<10} {:>8}  {:<22} {:>4} {:>4} {:>4} {:>4}  {:>7} {:>7} {:>4} {:>4} {:>4} {:>5} {:>4} {:>5} {:>5}{latency_hdr}{paced_hdr}",
        "class",
        "mtbe",
        "protection",
        "ok",
        "deg",
        "mis",
        "hang",
        "faults",
        "realgn",
        "wd1",
        "wd2",
        "wd3",
        "retry",
        "degr",
        "maxq",
        "blkd"
    );
    for &class in &report.spec.classes {
        for &mtbe in &report.spec.mtbes {
            for &protection in &report.spec.protections {
                let sel = |r: &cg_campaign::RunRecord| {
                    r.cell.class == class
                        && r.cell.mtbe == mtbe
                        && r.cell.protection.label() == protection.label()
                };
                let counts = report.outcome_counts(sel);
                let rows: Vec<_> = report.runs.iter().filter(|r| sel(r)).collect();
                let faults: u64 = rows.iter().map(|r| r.faults).sum();
                let realign: u64 = rows.iter().map(|r| r.realign_events).sum();
                let sum = |f: fn(&cg_runtime::WatchdogStats) -> u64| -> u64 {
                    rows.iter().map(|r| f(&r.watchdog)).sum()
                };
                let maxq = rows
                    .iter()
                    .map(|r| r.max_queue_occupancy)
                    .max()
                    .unwrap_or(0);
                let blocked: u64 = rows.iter().map(|r| r.blocked_ops).sum();
                let latency = if telemetered {
                    // Worst seed in the group: the tail is what the
                    // telemetry plane is for.
                    let p50 = rows.iter().filter_map(|r| r.frame_latency).map(|l| l.0);
                    let p99 = rows.iter().filter_map(|r| r.frame_latency).map(|l| l.1);
                    format!(
                        " {:>6} {:>6}",
                        p50.max().unwrap_or(0),
                        p99.max().unwrap_or(0)
                    )
                } else {
                    String::new()
                };
                let paced_cols = if paced {
                    let pacing = || rows.iter().filter_map(|r| r.pacing.as_ref());
                    format!(
                        " {:>6} {:>5} {:>5} {:>7}",
                        pacing().map(|p| p.frames_on_time).sum::<u64>(),
                        pacing().map(|p| p.deadline_misses).sum::<u64>(),
                        pacing().map(|p| p.degraded_for_deadline).sum::<u64>(),
                        pacing().map(|p| p.p99_latency()).max().unwrap_or(0),
                    )
                } else {
                    String::new()
                };
                println!(
                    "{:<10} {:>8}  {:<22} {:>4} {:>4} {:>4} {:>4}  {:>7} {:>7} {:>4} {:>4} {:>4} {:>5} {:>4} {:>5} {:>5}{latency}{paced_cols}",
                    class.label(),
                    mtbe.as_instructions(),
                    protection.label(),
                    counts[Outcome::Ok as usize],
                    counts[Outcome::DataDegraded as usize],
                    counts[Outcome::StructuralMismatch as usize],
                    counts[Outcome::Hang as usize],
                    faults,
                    realign,
                    sum(|w| w.timeout_escalations),
                    sum(|w| w.forced_progress),
                    sum(|w| w.frame_aborts),
                    sum(|w| w.frame_retries),
                    sum(|w| w.frame_degrades),
                    maxq,
                    blocked,
                );
            }
        }
    }
}

fn fuzz_to_json(report: &FuzzReport) -> Json {
    let spec = &report.spec;
    let mut jspec = Json::object();
    jspec
        .set("count", spec.count)
        .set("seed", spec.seed)
        .set("frames", spec.frames)
        .set("executor", spec.executor.label())
        .set(
            "classes",
            spec.classes
                .iter()
                .map(|c| Json::from(c.label()))
                .collect::<Vec<_>>(),
        )
        .set("mtbe_instructions", spec.mtbe)
        .set(
            "repro_dir",
            spec.repro_dir.as_deref().map_or(Json::Null, Json::from),
        );
    let cases: Vec<Json> = report
        .cases
        .iter()
        .map(|c| {
            let mut j = Json::object();
            j.set("index", c.index)
                .set("graph_seed", c.graph_seed)
                .set("name", c.name.as_str())
                .set("nodes", c.nodes)
                .set("edges", c.edges)
                .set("queue_capacity", c.queue_capacity)
                .set("checks", c.checks)
                .set(
                    "failures",
                    c.failures
                        .iter()
                        .map(|f| {
                            let mut jf = fuzz::case_to_json(&f.case, "fail", &f.violations);
                            jf.set("original_nodes", f.original.0)
                                .set("original_edges", f.original.1)
                                .set("original_frames", f.original.2)
                                .set("shrink_checks", f.shrink_checks)
                                .set(
                                    "artifact",
                                    f.artifact.as_deref().map_or(Json::Null, Json::from),
                                );
                            jf
                        })
                        .collect::<Vec<_>>(),
                );
            j
        })
        .collect();
    let mut doc = Json::object();
    doc.set("spec", jspec)
        .set("workers", report.workers)
        .set("total_checks", report.total_checks())
        .set("failures", report.failures().len())
        .set("cases", cases);
    doc
}

fn run_fuzz_mode(args: &Args) -> ExitCode {
    let spec = fuzz_spec(args);
    eprintln!(
        "campaign: fuzz mode — {} random graphs from seed {}, {} checks each \
         ({} executor, {} frames)",
        spec.count,
        spec.seed,
        spec.checks_per_graph(),
        spec.executor.label(),
        spec.frames
    );
    let report = fuzz::run_fuzz(&spec);
    let (nodes, edges): (usize, usize) = report
        .cases
        .iter()
        .fold((0, 0), |(n, e), c| (n + c.nodes, e + c.edges));
    println!(
        "graphs: {}  checks: {}  avg nodes: {:.1}  avg edges: {:.1}  workers: {}",
        report.cases.len(),
        report.total_checks(),
        nodes as f64 / report.cases.len().max(1) as f64,
        edges as f64 / report.cases.len().max(1) as f64,
        report.workers
    );
    for f in report.failures() {
        let (on, oe, of) = f.original;
        println!(
            "FAILURE [{} oracle, {} class, seed {}]: {} nodes/{} edges/{} frames \
             (shrunk from {on}/{oe}/{of} in {} checks) -> {}",
            f.case.oracle.label(),
            f.case.class.label(),
            f.case.seed,
            f.case.spec.nodes.len(),
            f.case.spec.edges.len(),
            f.case.frames,
            f.shrink_checks,
            f.artifact.as_deref().unwrap_or("<artifact write failed>")
        );
        for v in &f.violations {
            println!("  violation: {v}");
        }
    }
    if let Err(e) = std::fs::write(&args.out, fuzz_to_json(&report).pretty()) {
        eprintln!("campaign: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("campaign: fuzz report written to {}", args.out);
    let unminimized = report.unminimized();
    if unminimized > 0 {
        eprintln!("campaign: {unminimized} failure(s) left no replayable artifact");
        return ExitCode::FAILURE;
    }
    let failures = report.failures().len();
    if failures > 0 {
        eprintln!("campaign: {failures} failure(s) found, each minimized to a replayable artifact");
    } else {
        eprintln!("campaign: all differential oracles held");
    }
    ExitCode::SUCCESS
}

fn sweep_to_json(report: &DeadlineReport) -> Json {
    let spec = &report.spec;
    let mut jspec = Json::object();
    jspec
        .set(
            "apps",
            spec.apps
                .iter()
                .map(|a| Json::from(a.name()))
                .collect::<Vec<_>>(),
        )
        .set(
            "classes",
            spec.classes
                .iter()
                .map(|c| Json::from(c.label()))
                .collect::<Vec<_>>(),
        )
        .set(
            "mtbe_instructions",
            spec.mtbes
                .iter()
                .map(|m| Json::from(m.as_instructions()))
                .collect::<Vec<_>>(),
        )
        .set(
            "deadline_mults",
            spec.deadline_mults
                .iter()
                .map(|&m| Json::from(m))
                .collect::<Vec<_>>(),
        )
        .set("seeds", spec.seeds);
    let runs: Vec<Json> = report
        .runs
        .iter()
        .map(|r| {
            let mut j = Json::object();
            j.set("app", r.cell.app.name())
                .set("class", r.cell.class.label())
                .set("mtbe_instructions", r.cell.mtbe.as_instructions())
                .set("deadline_mult", r.cell.mult)
                .set("seed", r.cell.seed)
                .set("base_latency", r.base_latency)
                .set("period", r.period)
                .set("deadline", r.deadline)
                .set("completed", r.completed)
                .set("quality_db", r.quality_db)
                .set("faults", r.faults)
                .set("frames_on_time", r.pacing.frames_on_time)
                .set("deadline_misses", r.pacing.deadline_misses)
                .set("degraded_for_deadline", r.pacing.degraded_for_deadline)
                .set("pace_p99_latency", r.pacing.p99_latency())
                .set("slo_met", r.pacing.slo_met())
                .set("pacing_unit", r.pacing.unit)
                .set(
                    "violations",
                    r.violations
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect::<Vec<_>>(),
                );
            j
        })
        .collect();
    let mut doc = Json::object();
    doc.set("spec", jspec)
        .set("workers", report.workers)
        .set("total_runs", report.runs.len())
        .set("violations", report.violations().len())
        .set("runs", runs);
    doc
}

fn print_sweep_summary(report: &DeadlineReport) {
    println!(
        "{:<16} {:<10} {:>8} {:>5} {:>6} {:>8}  {:>6} {:>5} {:>5} {:>7} {:>9}",
        "app",
        "class",
        "mtbe",
        "mult",
        "baseL",
        "deadline",
        "ontime",
        "miss",
        "ddl",
        "pacep99",
        "avg dB"
    );
    for &app in &report.spec.apps {
        for &class in &report.spec.classes {
            for &mtbe in &report.spec.mtbes {
                for &mult in &report.spec.deadline_mults {
                    let rows: Vec<_> = report
                        .runs
                        .iter()
                        .filter(|r| {
                            r.cell.app == app
                                && r.cell.class == class
                                && r.cell.mtbe == mtbe
                                && r.cell.mult == mult
                        })
                        .collect();
                    if rows.is_empty() {
                        continue;
                    }
                    let quality: f64 =
                        rows.iter().map(|r| r.quality_db).sum::<f64>() / rows.len() as f64;
                    println!(
                        "{:<16} {:<10} {:>8} {:>5} {:>6} {:>8}  {:>6} {:>5} {:>5} {:>7} {:>9.2}",
                        app.name(),
                        class.label(),
                        mtbe.as_instructions(),
                        mult,
                        rows[0].base_latency,
                        rows[0].deadline,
                        rows.iter().map(|r| r.pacing.frames_on_time).sum::<u64>(),
                        rows.iter().map(|r| r.pacing.deadline_misses).sum::<u64>(),
                        rows.iter()
                            .map(|r| r.pacing.degraded_for_deadline)
                            .sum::<u64>(),
                        rows.iter()
                            .map(|r| r.pacing.p99_latency())
                            .max()
                            .unwrap_or(0),
                        quality,
                    );
                }
            }
        }
    }
}

fn run_sweep_mode(args: &Args) -> ExitCode {
    let spec = &args.sweep;
    eprintln!(
        "campaign: deadline sweep — {} apps x {} classes x {} mtbes x {} budgets x {} seeds \
         = {} runs (det executor, commguard, rounds)",
        spec.apps.len(),
        spec.classes.len(),
        spec.mtbes.len(),
        spec.deadline_mults.len(),
        spec.seeds,
        spec.total_runs(),
    );
    let report = run_deadline_sweep(spec);
    print_sweep_summary(&report);
    let out = if args.out_set {
        args.out.clone()
    } else {
        "deadline_sweep.json".to_string()
    };
    if let Err(e) = std::fs::write(&out, sweep_to_json(&report).pretty()) {
        eprintln!("campaign: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("campaign: deadline-sweep report written to {out}");
    let violations = report.violations();
    if violations.is_empty() {
        eprintln!("campaign: all deadline-sweep invariants held");
        ExitCode::SUCCESS
    } else {
        for (r, v) in &violations {
            eprintln!(
                "VIOLATION [{} {} mtbe={} x{} seed={}]: {v}",
                r.cell.app.name(),
                r.cell.class,
                r.cell.mtbe.as_instructions(),
                r.cell.mult,
                r.cell.seed
            );
        }
        eprintln!("campaign: {} invariant violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn run_replay_mode(paths: &[String]) -> ExitCode {
    let mut mismatched = 0usize;
    for path in paths {
        match fuzz::replay_file(path) {
            Ok(replay) => {
                println!(
                    "{path}: recorded {} / fresh {}{}",
                    replay.recorded_verdict,
                    replay.verdict,
                    if replay.matched { "" } else { "  << MISMATCH" }
                );
                for v in &replay.violations {
                    println!("  violation: {v}");
                }
                if !replay.matched {
                    mismatched += 1;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                mismatched += 1;
            }
        }
    }
    if mismatched == 0 {
        eprintln!(
            "campaign: {} artifact(s) replayed, all verdicts match",
            paths.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("campaign: {mismatched} artifact(s) failed to replay faithfully");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if !args.replay.is_empty() {
        return run_replay_mode(&args.replay);
    }
    if args.random > 0 {
        return run_fuzz_mode(&args);
    }
    if args.deadline_sweep {
        return run_sweep_mode(&args);
    }
    eprintln!(
        "campaign: {} classes x {} mtbes x {} protections x {} seeds = {} runs ({} executor{})",
        args.spec.classes.len(),
        args.spec.mtbes.len(),
        args.spec.protections.len(),
        args.spec.seeds,
        args.spec.total_runs(),
        args.spec.executor.label(),
        match args.spec.pacing {
            Some(Pacing::Paced {
                period, deadline, ..
            }) => format!(", paced {period}/{deadline}"),
            _ => String::new(),
        }
    );
    let report = run_campaign(&args.spec);
    print_summary(&report);
    if let Some(dir) = &report.spec.trace_dir {
        let dumped = report
            .runs
            .iter()
            .filter(|r| r.trace_file.is_some())
            .count();
        let chains: usize = report.runs.iter().map(|r| r.propagation.len()).sum();
        eprintln!(
            "campaign: {dumped} trace dump(s) in {dir}/ ({chains} propagation chain(s); \
             inspect with `cargo run -p cg-trace -- analyze <file>`)"
        );
    }
    if let Some(dir) = &report.spec.telemetry_dir {
        let dumped = report
            .runs
            .iter()
            .filter(|r| r.telemetry_file.is_some())
            .count();
        eprintln!(
            "campaign: {dumped} telemetry dump(s) in {dir}/ (.prom + .jsonl per run; \
             inspect with `cargo run -p cg-telemetry -- summary <file>.jsonl`)"
        );
    }

    let doc = to_json(&report);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("campaign: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("campaign: report written to {}", args.out);

    let violations = report.violations();
    if violations.is_empty() {
        eprintln!("campaign: all CommGuard invariants held");
        ExitCode::SUCCESS
    } else {
        for (r, v) in &violations {
            eprintln!(
                "VIOLATION [{} mtbe={} {} seed={}]: {v}",
                r.cell.class,
                r.cell.mtbe.as_instructions(),
                r.cell.protection.label(),
                r.cell.seed
            );
        }
        eprintln!("campaign: {} invariant violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
