//! Fuzz-layer integration tests: generated graphs execute error-free to
//! frame-exact sinks across many seeds, and the committed regression
//! corpus replays to its recorded verdicts.

use std::path::{Path, PathBuf};

use cg_campaign::fuzz::{
    self, case_to_json, minimize, replay_file, write_artifact, Oracle, ReproCase, SHRINK_BUDGET,
};
use cg_campaign::ExecutorKind;
use cg_fault::FaultClass;
use cg_graph::random::{generate, GenConfig};
use cg_graph::NodeKind;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus")
}

fn golden_case(seed: u64, gen: &GenConfig) -> ReproCase {
    let spec = generate(seed, gen);
    let (_, profile) = spec.build_validated().expect("generated graphs validate");
    ReproCase {
        spec,
        oracle: Oracle::Golden,
        seed,
        frames: 6,
        queue_capacity: profile.queue_demand.max(8) as usize,
        executor: ExecutorKind::Deterministic,
        class: FaultClass::Baseline,
        mtbe: 256,
    }
}

/// The generator-invariant satellite: beyond schedulability (covered by
/// the cg-graph proptests), every generated graph must actually execute
/// error-free to frame-exact sinks on the deterministic executor.
#[test]
fn hundred_seeds_execute_error_free_to_frame_exact_sinks() {
    let gen = GenConfig::default();
    for seed in 0..100u64 {
        let case = golden_case(seed, &gen);
        let violations = case.check().expect("generated specs are valid");
        assert!(
            violations.is_empty(),
            "seed {seed} ({} nodes): {violations:?}",
            case.spec.nodes.len()
        );
    }
}

/// Every committed corpus artifact must replay to its recorded verdict.
#[test]
fn fuzz_corpus_replays_to_recorded_verdicts() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 5,
        "corpus must hold at least 5 regression graphs, found {}",
        entries.len()
    );
    for path in entries {
        let replay = replay_file(path.to_str().expect("utf8 path"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            replay.matched,
            "{}: recorded verdict `{}` but fresh run said `{}` ({:?})",
            path.display(),
            replay.recorded_verdict,
            replay.verdict,
            replay.violations
        );
    }
}

/// Rebuilds the committed corpus deterministically. Run by hand after a
/// semantics change that legitimately alters verdicts:
///
/// ```text
/// cargo test -p cg-campaign --test fuzz_replay -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes tests/fuzz_corpus; run explicitly to refresh the corpus"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");

    let record = |name: &str, case: &ReproCase| {
        let violations = case.check().expect("corpus specs are valid");
        let verdict = if violations.is_empty() {
            "pass"
        } else {
            "fail"
        };
        let path = dir.join(name);
        std::fs::write(&path, case_to_json(case, verdict, &violations).pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {} ({verdict})", path.display());
    };

    // 1. A deep chain-only pipeline, golden oracle.
    let deep = GenConfig {
        splitjoin_prob: 0.0,
        max_nodes: 16,
        ..GenConfig::default()
    };
    record("01_deep_pipeline_golden.json", &golden_case(11, &deep));

    // 2. A wide splitjoin under the det-vs-threaded parity oracle.
    let wide = GenConfig {
        splitjoin_prob: 1.0,
        max_branches: 4,
        ..GenConfig::default()
    };
    let seed = (0..500u64)
        .find(|&s| {
            let g = generate(s, &wide);
            g.nodes.iter().enumerate().any(|(i, n)| {
                matches!(n.kind, NodeKind::SplitDuplicate | NodeKind::SplitRoundRobin)
                    && g.edges.iter().filter(|e| e.src == i).count() >= 3
            })
        })
        .expect("a wide splitjoin exists");
    let parity = ReproCase {
        oracle: Oracle::Parity,
        ..golden_case(seed, &wide)
    };
    record("02_wide_splitjoin_parity.json", &parity);

    // 3. Skewed rates, deterministic executor under header corruption.
    //    Loose capacity and moderate demand keep the replay fast: at
    //    tight capacity every fault-induced stall costs `4 × demand`
    //    blocked scheduler visits, which makes hot graphs take minutes.
    let skewed_seed = (20..500u64)
        .find(|&s| {
            generate(s, &GenConfig::default())
                .build_validated()
                .map(|(_, p)| (10..=24).contains(&p.queue_demand))
                .unwrap_or(false)
        })
        .expect("a moderate-demand graph exists");
    let base = golden_case(skewed_seed, &GenConfig::default());
    let faulted_det = ReproCase {
        oracle: Oracle::Faulted,
        class: FaultClass::HeaderCorruption,
        frames: 10,
        queue_capacity: base.queue_capacity * 4,
        ..base
    };
    record("03_skewed_rates_faulted_det.json", &faulted_det);

    // 4. Threaded lock-free executor under pointer corruption.
    let faulted_thr = ReproCase {
        oracle: Oracle::Faulted,
        executor: ExecutorKind::Threaded,
        class: FaultClass::PointerCorruption,
        ..golden_case(37, &GenConfig::default())
    };
    record("04_threaded_pointer_faulted.json", &faulted_thr);

    // 5. A minimized capacity-starvation failure: fan-out demand above
    //    the configured ring capacity must fail cleanly (a named
    //    `CapacityExceeded` error, not a hang) — recorded verdict: fail.
    let starved_seed = (0..500u64)
        .find(|&s| {
            let g = generate(s, &GenConfig::default());
            g.build_validated()
                .map(|(_, p)| p.queue_demand > 12)
                .unwrap_or(false)
                && g.nodes
                    .iter()
                    .any(|n| matches!(n.kind, NodeKind::SplitDuplicate | NodeKind::SplitRoundRobin))
        })
        .expect("a demanding splitjoin exists");
    let starved = ReproCase {
        queue_capacity: 8,
        ..golden_case(starved_seed, &GenConfig::default())
    };
    assert!(!starved.check().unwrap().is_empty(), "starved case fails");
    let (minimized, violations, _) = minimize(&starved, SHRINK_BUDGET);
    let path = write_artifact(&dir, &minimized, "fail", &violations).expect("write artifact");
    let renamed = dir.join("05_capacity_starved_fail.json");
    std::fs::rename(&path, &renamed).expect("rename artifact");
    println!("wrote {} (fail)", renamed.display());

    // 6. Tight (near-full) capacity under the parity oracle: capacity
    //    exactly equals the hottest edge's demand.
    let tight = ReproCase {
        oracle: Oracle::Parity,
        ..golden_case(53, &GenConfig::default())
    };
    record("06_tight_capacity_parity.json", &tight);

    // Every artifact must round-trip through the replay path.
    for name in [
        "01_deep_pipeline_golden.json",
        "02_wide_splitjoin_parity.json",
        "03_skewed_rates_faulted_det.json",
        "04_threaded_pointer_faulted.json",
        "05_capacity_starved_fail.json",
        "06_tight_capacity_parity.json",
    ] {
        let replay = fuzz::replay_file(dir.join(name).to_str().unwrap()).expect("replayable");
        assert!(replay.matched, "{name}: fresh verdict {}", replay.verdict);
    }
}
