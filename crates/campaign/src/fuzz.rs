//! Random-graph fuzz campaigns: every generated stream graph runs
//! through differential oracles (golden determinism, det-vs-threaded
//! bit parity, guarded invariants under faults); failures are shrunk to
//! a minimal reproduction and written as self-contained JSON artifacts
//! that [`replay_file`] re-executes exactly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cg_fault::{FaultClass, Mtbe};
use cg_graph::random::{generate, EdgeSpec, GenConfig, GraphSpec, NodeSpec};
use cg_graph::{NodeId, NodeKind};
use cg_runtime::{run, run_parallel, Program, SimConfig};
use commguard::Protection;

use crate::json::Json;
use crate::spec::ExecutorKind;

/// Schema tag of repro artifacts; bumped on incompatible layout change.
pub const REPRO_SCHEMA: &str = "commguard-fuzz-repro-v1";

/// Per-check budget of the shrinking loop: how many candidate
/// re-executions [`minimize`] may spend on one failure.
pub const SHRINK_BUDGET: u64 = 80;

/// Base stall timeout for threaded fuzz runs; raised per-graph by
/// [`SimConfig::for_queue_demand`].
const FUZZ_STALL: Duration = Duration::from_millis(150);

/// Frame retry budget for threaded fuzz runs (mirrors the campaign).
const FUZZ_RETRY_BUDGET: u32 = 3;

/// Round cap for deterministic fuzz runs: generous for 16-node graphs
/// at fuzz frame counts, small enough that a genuine livelock is
/// classified (as `completed = false`) in well under a second.
const FUZZ_MAX_ROUNDS: u64 = 8_000_000;

/// Which differential property one [`ReproCase`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The deterministic executor, error-free: must complete with
    /// frame-exact sinks, zero faults/timeouts/escalations, and produce
    /// bit-identical output when run twice.
    Golden,
    /// Error-free guarded runs on both executors must agree bit-exactly:
    /// same sink streams, same header traffic.
    Parity,
    /// A guarded run under fault injection must uphold the CommGuard
    /// invariants: completion, frame-exact sinks, bounded realignment
    /// (det) or header conservation and bounded retries (threaded).
    Faulted,
}

impl Oracle {
    /// Stable machine-readable label (artifacts and reports).
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Golden => "golden",
            Oracle::Parity => "parity",
            Oracle::Faulted => "faulted",
        }
    }

    /// Parses a [`Self::label`] string.
    pub fn parse(s: &str) -> Result<Oracle, String> {
        [Oracle::Golden, Oracle::Parity, Oracle::Faulted]
            .into_iter()
            .find(|o| o.label() == s)
            .ok_or_else(|| format!("unknown oracle `{s}`"))
    }
}

/// One self-contained fuzz check: a graph plus everything needed to
/// re-execute it (the unit that artifacts serialize and replay runs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCase {
    /// The graph under test.
    pub spec: GraphSpec,
    /// Which differential property is checked.
    pub oracle: Oracle,
    /// Run seed (fault streams and goldens derive from it).
    pub seed: u64,
    /// Steady-state frames per run.
    pub frames: u64,
    /// Queue capacity per edge.
    pub queue_capacity: usize,
    /// Executor for the [`Oracle::Faulted`] run ([`Oracle::Parity`]
    /// always runs both; [`Oracle::Golden`] is deterministic-only).
    pub executor: ExecutorKind,
    /// Fault class for [`Oracle::Faulted`].
    pub class: FaultClass,
    /// Mean instructions between errors for [`Oracle::Faulted`].
    pub mtbe: u64,
}

impl ReproCase {
    /// Runs the case and returns its invariant violations (empty =
    /// pass). `Err` means the spec itself is invalid — possible only
    /// for hand-edited artifacts, never for generated graphs.
    pub fn check(&self) -> Result<Vec<String>, String> {
        if self.queue_capacity < 8 {
            return Err(format!(
                "queue_capacity {} below the ring minimum of 8",
                self.queue_capacity
            ));
        }
        let (graph, profile) = self.spec.build_validated()?;
        let sinks: Vec<(NodeId, String, usize)> = graph
            .nodes()
            .filter(|(_, n)| n.kind() == NodeKind::Sink)
            .map(|(id, n)| {
                let per_frame: u64 = n
                    .inputs()
                    .iter()
                    .map(|&e| profile.schedule.items_per_iteration(e))
                    .sum();
                (id, n.name().to_string(), (per_frame * self.frames) as usize)
            })
            .collect();
        let demand = profile.queue_demand;
        Ok(match self.oracle {
            Oracle::Golden => self.check_golden(demand, &sinks)?,
            Oracle::Parity => self.check_parity(demand, &sinks)?,
            Oracle::Faulted => self.check_faulted(demand, &sinks)?,
        })
    }

    /// Base config for this case. The timeout knobs are floored for the
    /// graph's hottest edge so legal extremes cannot false-positive a
    /// watchdog, but the recorded `queue_capacity` is honored exactly —
    /// capacity-starvation repros depend on it.
    fn config(&self, protection: Protection, inject: bool, demand: u64) -> SimConfig {
        let floored = SimConfig {
            protection,
            inject,
            mtbe: Mtbe::instructions(self.mtbe),
            fault_class: self.class,
            max_rounds: FUZZ_MAX_ROUNDS,
            stall_timeout: FUZZ_STALL,
            par_retry_budget: FUZZ_RETRY_BUDGET,
            ..SimConfig::error_free(self.frames)
        }
        .seed(self.seed)
        .for_queue_demand(demand);
        SimConfig {
            queue_capacity: self.queue_capacity,
            ..floored
        }
    }

    fn check_golden(
        &self,
        demand: u64,
        sinks: &[(NodeId, String, usize)],
    ) -> Result<Vec<String>, String> {
        let mut violations = Vec::new();
        let cfg = self.config(Protection::ErrorFree, false, demand);
        let first = match run(bind_program(&self.spec)?, &cfg) {
            Ok(r) => r,
            Err(e) => return Ok(vec![format!("error-free deterministic run errored: {e}")]),
        };
        if !first.completed {
            violations.push("error-free run hit the round cap".to_string());
        }
        for (id, name, want) in sinks {
            let got = first.sink_output(*id).len();
            if got != *want {
                violations.push(format!(
                    "sink '{name}' collected {got} items, scheduled {want}"
                ));
            }
        }
        if first.total_faults().total() != 0 {
            violations.push("error-free run injected faults".to_string());
        }
        if first.total_timeouts() != 0 {
            violations.push(format!(
                "error-free run fired {} QM timeouts (watchdog false positive)",
                first.total_timeouts()
            ));
        }
        if first.watchdog.total_escalations() != 0 {
            violations.push(format!(
                "error-free run escalated the watchdog {} times",
                first.watchdog.total_escalations()
            ));
        }
        if first.realignment_episodes != 0 {
            violations.push("error-free run realigned streams".to_string());
        }
        let second = match run(bind_program(&self.spec)?, &cfg) {
            Ok(r) => r,
            Err(e) => return Ok(vec![format!("error-free re-run errored: {e}")]),
        };
        if second.sinks != first.sinks {
            violations.push("deterministic executor is not deterministic: re-run diverged".into());
        }
        Ok(violations)
    }

    fn check_parity(
        &self,
        demand: u64,
        sinks: &[(NodeId, String, usize)],
    ) -> Result<Vec<String>, String> {
        let cfg = self.config(Protection::commguard(), false, demand);
        let det = match run(bind_program(&self.spec)?, &cfg) {
            Ok(r) => r,
            Err(e) => return Ok(vec![format!("guarded deterministic run errored: {e}")]),
        };
        let threaded = match run_parallel(bind_program(&self.spec)?, &cfg) {
            Ok(r) => r,
            Err(e) => return Ok(vec![format!("error-free threaded run errored: {e}")]),
        };
        let mut violations = Vec::new();
        if !det.completed || !threaded.completed {
            violations.push("error-free parity runs must complete".to_string());
        }
        for (id, name, _) in sinks {
            if det.sink_output(*id) != threaded.sink_output(*id) {
                violations.push(format!(
                    "sink '{name}' diverges between executors: det {} items, threaded {}",
                    det.sink_output(*id).len(),
                    threaded.sink_output(*id).len()
                ));
            }
        }
        if det.queues.header_pushes != threaded.queues.header_pushes {
            violations.push(format!(
                "header pushes diverge: det {}, threaded {}",
                det.queues.header_pushes, threaded.queues.header_pushes
            ));
        }
        if det.queues.header_pops != threaded.queues.header_pops {
            violations.push(format!(
                "header pops diverge: det {}, threaded {}",
                det.queues.header_pops, threaded.queues.header_pops
            ));
        }
        Ok(violations)
    }

    fn check_faulted(
        &self,
        demand: u64,
        sinks: &[(NodeId, String, usize)],
    ) -> Result<Vec<String>, String> {
        let guarded = self.config(Protection::commguard(), true, demand);
        let mut violations = Vec::new();
        match self.executor {
            ExecutorKind::Deterministic => {
                let report = match run(bind_program(&self.spec)?, &guarded) {
                    Ok(r) => r,
                    Err(e) => return Ok(vec![format!("guarded deterministic run errored: {e}")]),
                };
                if !report.completed {
                    violations.push("guarded run hit the round cap".to_string());
                }
                for (id, name, want) in sinks {
                    let got = report.sink_output(*id).len();
                    if got != *want {
                        violations.push(format!(
                            "guarded sink '{name}' length {got} != scheduled {want}"
                        ));
                    }
                }
                // Each in-port decides pad vs discard at most once per
                // frame transition (plus start/finish), and a discard
                // can split across a frame's header+data.
                let subops = report.total_subops();
                let realign = subops.pad_events + subops.discard_events;
                let bound = (self.frames + 2) * self.spec.edges.len() as u64 * 2;
                if realign > bound {
                    violations.push(format!(
                        "realignment events {realign} exceed structural bound {bound}"
                    ));
                }
            }
            ExecutorKind::Threaded => {
                let report = match run_parallel(bind_program(&self.spec)?, &guarded) {
                    Ok(r) => r,
                    Err(e) => {
                        return Ok(vec![format!(
                            "guarded threaded run errored instead of recovering: {e}"
                        )])
                    }
                };
                if !report.completed {
                    violations.push("guarded threaded run did not complete".to_string());
                }
                for (id, name, want) in sinks {
                    let got = report.sink_output(*id).len();
                    if got != *want {
                        violations.push(format!(
                            "guarded sink '{name}' length {got} != scheduled {want}"
                        ));
                    }
                }
                // Headers are pushed once per frame boundary, never per
                // retry attempt: compare against a fault-free guarded
                // run of the same graph on the deterministic executor.
                let clean = self.config(Protection::commguard(), false, demand);
                match run(bind_program(&self.spec)?, &clean) {
                    Ok(golden) => {
                        if report.queues.header_pushes != golden.queues.header_pushes {
                            violations.push(format!(
                                "header conservation violated: {} pushed, golden {}",
                                report.queues.header_pushes, golden.queues.header_pushes
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("fault-free golden run errored: {e}")),
                }
                let bound =
                    u64::from(FUZZ_RETRY_BUDGET) * self.frames * self.spec.nodes.len() as u64;
                if report.watchdog.frame_retries > bound {
                    violations.push(format!(
                        "frame retries {} exceed budget bound {bound}",
                        report.watchdog.frame_retries
                    ));
                }
            }
        }
        Ok(violations)
    }
}

/// Binds deterministic work functions to a generated graph: sources
/// count up through a per-node salt, filters fold their inputs into
/// their push rate. All work is pure per firing (sources keep only
/// their running counter), so frame re-execution is safe.
pub fn bind_program(spec: &GraphSpec) -> Result<Program, String> {
    let graph = spec.to_graph().map_err(|e| e.to_string())?;
    let mut p = Program::new(graph);
    for (i, node) in spec.nodes.iter().enumerate() {
        let id = NodeId::from_index(i);
        let out_push = spec.edges.iter().find(|e| e.src == i).map(|e| e.push);
        match node.kind {
            NodeKind::Source => {
                let push =
                    out_push.ok_or_else(|| format!("source '{}' has no output", node.name))?;
                let salt = (i as u32).wrapping_mul(0x9e37);
                let mut next = 0u32;
                p.set_source(id, move |out| {
                    for _ in 0..push {
                        out.push(next ^ salt);
                        next = next.wrapping_add(1);
                    }
                });
            }
            NodeKind::Filter => {
                let push =
                    out_push.ok_or_else(|| format!("filter '{}' has no output", node.name))?;
                let salt = (i as u32).wrapping_mul(1013);
                p.set_filter(id, move |inp, out| {
                    let sum: u32 = inp[0]
                        .iter()
                        .fold(0u32, |a, &b| a.rotate_left(1).wrapping_add(b));
                    for k in 0..push as usize {
                        let v = inp[0].get(k % inp[0].len().max(1)).copied().unwrap_or(sum);
                        out[0].push(v.wrapping_add(sum).wrapping_add(salt));
                    }
                });
            }
            // Splitters, joiners and sinks are structural: the executors
            // move their items without user work functions.
            _ => {}
        }
    }
    Ok(p)
}

// ---------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------

/// Shrink order: fewer nodes beats fewer edges beats fewer frames beats
/// smaller rates beats sparser faults (higher MTBE).
fn size(case: &ReproCase) -> (usize, usize, u64, u64, u64) {
    let rate_sum: u64 = case
        .spec
        .edges
        .iter()
        .map(|e| u64::from(e.push) + u64::from(e.pop))
        .sum();
    (
        case.spec.nodes.len(),
        case.spec.edges.len(),
        case.frames,
        rate_sum,
        u64::MAX - case.mtbe,
    )
}

/// Rebuilds a spec without the nodes in `drop` (indices), remapping the
/// surviving edges and appending `extra` (in old indices). Edges
/// touching a dropped node are removed.
fn drop_nodes(spec: &GraphSpec, drop: &[usize], extra: &[EdgeSpec]) -> GraphSpec {
    let mut remap = vec![usize::MAX; spec.nodes.len()];
    let mut nodes = Vec::new();
    for (i, n) in spec.nodes.iter().enumerate() {
        if !drop.contains(&i) {
            remap[i] = nodes.len();
            nodes.push(n.clone());
        }
    }
    let edges = spec
        .edges
        .iter()
        .chain(extra)
        .filter(|e| remap[e.src] != usize::MAX && remap[e.dst] != usize::MAX)
        .map(|e| EdgeSpec {
            src: remap[e.src],
            dst: remap[e.dst],
            push: e.push,
            pop: e.pop,
        })
        .collect();
    GraphSpec {
        name: format!("{}-min", spec.name.trim_end_matches("-min")),
        nodes,
        edges,
    }
}

/// Splices out a 1-in/1-out filter, connecting its neighbours with
/// (upstream push, downstream pop).
fn splice_filter(spec: &GraphSpec, idx: usize) -> Option<GraphSpec> {
    if spec.nodes[idx].kind != NodeKind::Filter {
        return None;
    }
    let ins: Vec<&EdgeSpec> = spec.edges.iter().filter(|e| e.dst == idx).collect();
    let outs: Vec<&EdgeSpec> = spec.edges.iter().filter(|e| e.src == idx).collect();
    let (&inc, &out) = match (ins.as_slice(), outs.as_slice()) {
        ([a], [b]) => (a, b),
        _ => return None,
    };
    let bridge = EdgeSpec {
        src: inc.src,
        dst: out.dst,
        push: inc.push,
        pop: out.pop,
    };
    Some(drop_nodes(spec, &[idx], &[bridge]))
}

/// Walks a splitjoin branch from `start` (the split's out-edge target)
/// through 1-in/1-out filters until a joiner; returns the intermediate
/// node indices and the joiner.
fn walk_branch(spec: &GraphSpec, start: usize) -> Option<(Vec<usize>, usize)> {
    let mut chain = Vec::new();
    let mut cur = start;
    loop {
        match spec.nodes[cur].kind {
            NodeKind::JoinRoundRobin => return Some((chain, cur)),
            NodeKind::Filter => {
                let outs: Vec<&EdgeSpec> = spec.edges.iter().filter(|e| e.src == cur).collect();
                let [out] = outs.as_slice() else { return None };
                chain.push(cur);
                cur = out.dst;
            }
            _ => return None,
        }
    }
}

/// Removes one branch of a ≥3-way splitjoin, rebalancing the split's
/// in-pop (round-robin splits) and the join's out-push.
fn remove_branch(spec: &GraphSpec, split: usize, branch_edge: usize) -> Option<GraphSpec> {
    let e = &spec.edges[branch_edge];
    if e.src != split {
        return None;
    }
    let split_outs = spec.edges.iter().filter(|x| x.src == split).count();
    if split_outs < 3 {
        return None;
    }
    let (chain, join) = walk_branch(spec, e.dst)?;
    let join_ins = spec.edges.iter().filter(|x| x.dst == join).count();
    if join_ins < 3 {
        return None;
    }
    // Pop rate the join loses: the last edge of the branch entering it.
    let last = chain.last().copied().unwrap_or(split);
    let lost_pop = spec
        .edges
        .iter()
        .find(|x| x.dst == join && (x.src == last))?
        .pop;
    let mut adjusted = spec.clone();
    // Drop the split→branch edge even when the branch is empty (a
    // direct split→join edge), where `drop_nodes` would keep it.
    adjusted.edges.remove(branch_edge);
    for edge in &mut adjusted.edges {
        if edge.dst == split && spec.nodes[split].kind == NodeKind::SplitRoundRobin {
            edge.pop = edge.pop.checked_sub(e.push).filter(|&p| p > 0)?;
        }
        if edge.src == join {
            edge.push = edge.push.checked_sub(lost_pop).filter(|&p| p > 0)?;
        }
    }
    Some(drop_nodes(&adjusted, &chain, &[]))
}

/// Dissolves a 2-way splitjoin, keeping one branch as a plain chain.
fn dissolve_splitjoin(spec: &GraphSpec, split: usize, keep_edge: usize) -> Option<GraphSpec> {
    let e = &spec.edges[keep_edge];
    if e.src != split
        || !matches!(
            spec.nodes[split].kind,
            NodeKind::SplitDuplicate | NodeKind::SplitRoundRobin
        )
    {
        return None;
    }
    let outs: Vec<usize> = (0..spec.edges.len())
        .filter(|&i| spec.edges[i].src == split)
        .collect();
    if outs.len() != 2 {
        return None;
    }
    let (kept_chain, join) = walk_branch(spec, e.dst)?;
    let other_edge = outs.into_iter().find(|&i| i != keep_edge)?;
    let (other_chain, other_join) = walk_branch(spec, spec.edges[other_edge].dst)?;
    if join != other_join || spec.edges.iter().filter(|x| x.dst == join).count() != 2 {
        return None;
    }
    let pre = spec.edges.iter().find(|x| x.dst == split)?;
    let post = spec.edges.iter().find(|x| x.src == join)?;
    let mut extra = Vec::new();
    if kept_chain.is_empty() {
        // Direct split→join branch: bridge straight across.
        extra.push(EdgeSpec {
            src: pre.src,
            dst: post.dst,
            push: pre.push,
            pop: post.pop,
        });
    } else {
        let entry = kept_chain[0];
        let exit = *kept_chain.last().expect("non-empty chain");
        let entry_pop = spec.edges.iter().find(|x| x.dst == entry)?.pop;
        let exit_push = spec.edges.iter().find(|x| x.src == exit)?.push;
        extra.push(EdgeSpec {
            src: pre.src,
            dst: entry,
            push: pre.push,
            pop: entry_pop,
        });
        extra.push(EdgeSpec {
            src: exit,
            dst: post.dst,
            push: exit_push,
            pop: post.pop,
        });
    }
    let mut dropped = other_chain;
    dropped.push(split);
    dropped.push(join);
    Some(drop_nodes(spec, &dropped, &extra))
}

/// Generates shrink candidates for `best`, cheapest-win first.
fn candidates(best: &ReproCase) -> Vec<ReproCase> {
    let mut out = Vec::new();
    let mut with_spec = |spec: GraphSpec| {
        out.push(ReproCase {
            spec,
            ..best.clone()
        });
    };
    for i in 0..best.spec.nodes.len() {
        if let Some(s) = splice_filter(&best.spec, i) {
            with_spec(s);
        }
    }
    for split in 0..best.spec.nodes.len() {
        for edge in 0..best.spec.edges.len() {
            if let Some(s) = remove_branch(&best.spec, split, edge) {
                with_spec(s);
            }
            if let Some(s) = dissolve_splitjoin(&best.spec, split, edge) {
                with_spec(s);
            }
        }
    }
    for frames in [1, best.frames / 2, best.frames - 1] {
        if frames >= 1 && frames < best.frames {
            out.push(ReproCase {
                frames,
                ..best.clone()
            });
        }
    }
    for i in 0..best.spec.edges.len() {
        let e = &best.spec.edges[i];
        if e.push.is_multiple_of(2) && e.pop.is_multiple_of(2) {
            let mut spec = best.spec.clone();
            spec.edges[i].push /= 2;
            spec.edges[i].pop /= 2;
            out.push(ReproCase {
                spec,
                ..best.clone()
            });
        } else if e.push == e.pop && e.push > 1 {
            let mut spec = best.spec.clone();
            spec.edges[i].push = 1;
            spec.edges[i].pop = 1;
            out.push(ReproCase {
                spec,
                ..best.clone()
            });
        }
    }
    if best.oracle == Oracle::Faulted && best.mtbe <= 1 << 20 {
        out.push(ReproCase {
            mtbe: best.mtbe * 4,
            ..best.clone()
        });
    }
    out
}

/// Greedily shrinks a failing case: a candidate is accepted when it is
/// strictly smaller, still a valid schedulable graph, and still fails
/// its oracle. Returns the minimized case, its violations, and how many
/// candidate checks were spent (bounded by `budget`).
pub fn minimize(case: &ReproCase, budget: u64) -> (ReproCase, Vec<String>, u64) {
    let mut best = case.clone();
    let mut best_violations = best.check().ok().unwrap_or_default();
    let mut spent = 0u64;
    let mut improved = true;
    while improved && spent < budget {
        improved = false;
        for cand in candidates(&best) {
            if spent >= budget {
                break;
            }
            if size(&cand) >= size(&best) || cand.spec.build_validated().is_err() {
                continue;
            }
            spent += 1;
            if let Ok(violations) = cand.check() {
                if !violations.is_empty() {
                    best = cand;
                    best_violations = violations;
                    improved = true;
                    break;
                }
            }
        }
    }
    (best, best_violations, spent)
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// Serializes a case (with its verdict) as a self-contained artifact.
pub fn case_to_json(case: &ReproCase, verdict: &str, violations: &[String]) -> Json {
    let nodes: Vec<Json> = case
        .spec
        .nodes
        .iter()
        .map(|n| {
            let mut j = Json::object();
            j.set("name", n.name.as_str()).set("kind", n.kind.label());
            j
        })
        .collect();
    let edges: Vec<Json> = case
        .spec
        .edges
        .iter()
        .map(|e| {
            let mut j = Json::object();
            j.set("src", e.src)
                .set("dst", e.dst)
                .set("push", e.push)
                .set("pop", e.pop);
            j
        })
        .collect();
    let mut graph = Json::object();
    graph
        .set("name", case.spec.name.as_str())
        .set("nodes", nodes)
        .set("edges", edges);
    let mut doc = Json::object();
    doc.set("schema", REPRO_SCHEMA)
        .set("verdict", verdict)
        .set("oracle", case.oracle.label())
        .set("executor", case.executor.label())
        .set("fault_class", case.class.label())
        .set("mtbe_instructions", case.mtbe)
        .set("seed", case.seed)
        .set("frames", case.frames)
        .set("queue_capacity", case.queue_capacity)
        .set(
            "violations",
            violations
                .iter()
                .map(|v| Json::from(v.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("graph", graph);
    doc
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    field(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

/// Parses an artifact back into a case plus its recorded verdict.
pub fn case_from_json(doc: &Json) -> Result<(ReproCase, String), String> {
    let schema = str_field(doc, "schema")?;
    if schema != REPRO_SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (expected {REPRO_SCHEMA})"
        ));
    }
    let graph = field(doc, "graph")?;
    let nodes = field(graph, "nodes")?
        .as_array()
        .ok_or("graph.nodes is not an array")?
        .iter()
        .map(|n| {
            let kind = str_field(n, "kind")?;
            Ok(NodeSpec {
                name: str_field(n, "name")?,
                kind: NodeKind::parse(&kind)
                    .ok_or_else(|| format!("unknown node kind `{kind}`"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let edges = field(graph, "edges")?
        .as_array()
        .ok_or("graph.edges is not an array")?
        .iter()
        .map(|e| {
            Ok(EdgeSpec {
                src: u64_field(e, "src")? as usize,
                dst: u64_field(e, "dst")? as usize,
                push: u32::try_from(u64_field(e, "push")?).map_err(|_| "push out of range")?,
                pop: u32::try_from(u64_field(e, "pop")?).map_err(|_| "pop out of range")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let case = ReproCase {
        spec: GraphSpec {
            name: str_field(graph, "name")?,
            nodes,
            edges,
        },
        oracle: Oracle::parse(&str_field(doc, "oracle")?)?,
        seed: u64_field(doc, "seed")?,
        frames: u64_field(doc, "frames")?,
        queue_capacity: u64_field(doc, "queue_capacity")? as usize,
        executor: ExecutorKind::parse(&str_field(doc, "executor")?)?,
        class: FaultClass::parse(&str_field(doc, "fault_class")?)?,
        mtbe: u64_field(doc, "mtbe_instructions")?,
    };
    Ok((case, str_field(doc, "verdict")?))
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Writes a case's artifact into `dir`, returning the path.
pub fn write_artifact(
    dir: &Path,
    case: &ReproCase,
    verdict: &str,
    violations: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "repro_{}_{}_{}_{}.json",
        case.oracle.label(),
        slug(case.class.label()),
        slug(&case.spec.name),
        case.seed
    ));
    std::fs::write(&path, case_to_json(case, verdict, violations).pretty())?;
    Ok(path)
}

/// The result of replaying one artifact.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Verdict the artifact recorded ("pass" or "fail").
    pub recorded_verdict: String,
    /// Verdict of the fresh run.
    pub verdict: String,
    /// Violations of the fresh run.
    pub violations: Vec<String>,
    /// Whether fresh and recorded verdicts agree.
    pub matched: bool,
}

/// Re-executes an artifact exactly and compares verdicts.
pub fn replay_file(path: &str) -> Result<Replay, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (case, recorded) = case_from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
    let violations = case.check().map_err(|e| format!("{path}: {e}"))?;
    let verdict = if violations.is_empty() {
        "pass"
    } else {
        "fail"
    };
    Ok(Replay {
        matched: verdict == recorded,
        recorded_verdict: recorded,
        verdict: verdict.to_string(),
        violations,
    })
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzSpec {
    /// Number of random graphs to generate and check.
    pub count: u64,
    /// Base seed; graph `i` derives its own seed from `seed` and `i`.
    pub seed: u64,
    /// Steady-state frames per run.
    pub frames: u64,
    /// Executor for the faulted oracle (parity always runs both).
    pub executor: ExecutorKind,
    /// Fault classes swept by the faulted oracle.
    pub classes: Vec<FaultClass>,
    /// Mean instructions between errors for faulted runs.
    pub mtbe: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Where failure artifacts go (`None` keeps them in memory only).
    pub repro_dir: Option<String>,
    /// Generator shape limits.
    pub gen: GenConfig,
}

impl Default for FuzzSpec {
    fn default() -> Self {
        FuzzSpec {
            count: 25,
            seed: 1,
            frames: 8,
            executor: ExecutorKind::Deterministic,
            classes: FaultClass::all().to_vec(),
            mtbe: 256,
            threads: 0,
            repro_dir: Some("fuzz_repros".to_string()),
            gen: GenConfig::default(),
        }
    }
}

impl FuzzSpec {
    /// Checks run per generated graph.
    pub fn checks_per_graph(&self) -> usize {
        2 + self.classes.len()
    }
}

/// One failure, after minimization.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The minimized reproduction.
    pub case: ReproCase,
    /// Violations of the minimized case.
    pub violations: Vec<String>,
    /// Size of the case before shrinking, as (nodes, edges, frames).
    pub original: (usize, usize, u64),
    /// Candidate checks the shrinking loop spent.
    pub shrink_checks: u64,
    /// Artifact path, when `repro_dir` was set and the write succeeded.
    pub artifact: Option<String>,
}

/// Everything one generated graph produced.
#[derive(Debug, Clone)]
pub struct FuzzCaseReport {
    /// Graph index within the campaign.
    pub index: u64,
    /// The derived generator seed.
    pub graph_seed: u64,
    /// Generated graph name.
    pub name: String,
    /// Node count of the generated graph.
    pub nodes: usize,
    /// Edge count of the generated graph.
    pub edges: usize,
    /// Queue capacity the graph ran with.
    pub queue_capacity: usize,
    /// Oracle checks executed.
    pub checks: u64,
    /// Failures found (after minimization), usually empty.
    pub failures: Vec<FuzzFailure>,
}

/// A finished fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The campaign configuration.
    pub spec: FuzzSpec,
    /// One report per generated graph, in index order.
    pub cases: Vec<FuzzCaseReport>,
    /// Resolved worker count.
    pub workers: usize,
}

impl FuzzReport {
    /// Total oracle checks across the campaign.
    pub fn total_checks(&self) -> u64 {
        self.cases.iter().map(|c| c.checks).sum()
    }

    /// All failures across the campaign.
    pub fn failures(&self) -> Vec<&FuzzFailure> {
        self.cases.iter().flat_map(|c| &c.failures).collect()
    }

    /// Failures that could not be written as artifacts (these fail the
    /// CLI: every failure must leave a replayable reproduction).
    pub fn unminimized(&self) -> usize {
        self.failures()
            .iter()
            .filter(|f| self.spec.repro_dir.is_some() && f.artifact.is_none())
            .count()
    }
}

/// SplitMix-derives the generator seed for graph `index`.
fn graph_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates and checks graph `index`, minimizing any failure.
fn run_case(spec: &FuzzSpec, index: u64) -> FuzzCaseReport {
    let seed = graph_seed(spec.seed, index);
    let graph = generate(seed, &spec.gen);
    let (_, profile) = graph
        .build_validated()
        .expect("generated graphs always validate");
    // Alternate near-full and near-empty steady states: tight capacity
    // is exactly the hottest edge's demand, loose leaves headroom.
    let demand = profile.queue_demand;
    let queue_capacity = if seed.is_multiple_of(2) {
        demand.max(8) as usize
    } else {
        (demand * 4).max(64) as usize
    };
    let base = ReproCase {
        spec: graph.clone(),
        oracle: Oracle::Golden,
        seed,
        frames: spec.frames,
        queue_capacity,
        executor: spec.executor,
        class: FaultClass::Baseline,
        mtbe: spec.mtbe,
    };
    let mut cases = vec![
        base.clone(),
        ReproCase {
            oracle: Oracle::Parity,
            ..base.clone()
        },
    ];
    for &class in &spec.classes {
        cases.push(ReproCase {
            oracle: Oracle::Faulted,
            class,
            ..base.clone()
        });
    }

    let mut report = FuzzCaseReport {
        index,
        graph_seed: seed,
        name: graph.name.clone(),
        nodes: graph.nodes.len(),
        edges: graph.edges.len(),
        queue_capacity,
        checks: 0,
        failures: Vec::new(),
    };
    for case in cases {
        report.checks += 1;
        let violations = case
            .check()
            .expect("generated cases always have valid specs");
        if violations.is_empty() {
            continue;
        }
        let original = (case.spec.nodes.len(), case.spec.edges.len(), case.frames);
        let (minimized, min_violations, shrink_checks) = minimize(&case, SHRINK_BUDGET);
        let artifact = spec.repro_dir.as_ref().and_then(|dir| {
            write_artifact(Path::new(dir), &minimized, "fail", &min_violations)
                .map_err(|e| eprintln!("fuzz: cannot write artifact: {e}"))
                .ok()
                .map(|p| p.to_string_lossy().into_owned())
        });
        report.failures.push(FuzzFailure {
            case: minimized,
            violations: min_violations,
            original,
            shrink_checks,
            artifact,
        });
    }
    report
}

/// Runs the whole fuzz campaign on `spec.threads` workers.
pub fn run_fuzz(spec: &FuzzSpec) -> FuzzReport {
    let threads = if spec.threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        spec.threads
    }
    .min(spec.count.max(1) as usize);

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<FuzzCaseReport>>> = Mutex::new(vec![None; spec.count as usize]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= spec.count as usize {
                    break;
                }
                let report = run_case(spec, i as u64);
                results.lock().expect("no poisoned workers")[i] = Some(report);
            });
        }
    });
    FuzzReport {
        spec: spec.clone(),
        cases: results
            .into_inner()
            .expect("scope joined all workers")
            .into_iter()
            .map(|r| r.expect("every case ran"))
            .collect(),
        workers: threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> FuzzSpec {
        FuzzSpec {
            count: 4,
            frames: 4,
            classes: vec![FaultClass::Baseline, FaultClass::HeaderCorruption],
            repro_dir: None,
            ..FuzzSpec::default()
        }
    }

    #[test]
    fn golden_parity_and_faulted_oracles_pass_on_generated_graphs() {
        let report = run_fuzz(&quick_spec());
        assert_eq!(report.cases.len(), 4);
        assert_eq!(report.total_checks(), 4 * 4);
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "unexpected fuzz failures: {:?}",
            failures
                .iter()
                .map(|f| (&f.case.spec.name, &f.violations))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let case = ReproCase {
            spec: generate(7, &GenConfig::default()),
            oracle: Oracle::Faulted,
            seed: 7,
            frames: 5,
            queue_capacity: 64,
            executor: ExecutorKind::Threaded,
            class: FaultClass::PointerCorruption,
            mtbe: 2048,
        };
        let doc = case_to_json(&case, "fail", &["boom".to_string()]);
        let parsed = Json::parse(&doc.pretty()).expect("artifact parses");
        let (back, verdict) = case_from_json(&parsed).expect("artifact decodes");
        assert_eq!(back, case);
        assert_eq!(verdict, "fail");
        // Artifacts that still carry the retired `transport` key replay.
        let mut legacy = doc.clone();
        legacy.set("transport", "batched");
        let (back, _) = case_from_json(&legacy).expect("legacy artifact decodes");
        assert_eq!(back, case);
    }

    #[test]
    fn replay_detects_verdict_mismatch_and_agreement() {
        let dir = std::env::temp_dir().join(format!("cg-fuzz-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = ReproCase {
            spec: generate(3, &GenConfig::default()),
            oracle: Oracle::Golden,
            seed: 3,
            frames: 3,
            queue_capacity: 4096,
            executor: ExecutorKind::Deterministic,
            class: FaultClass::Baseline,
            mtbe: 256,
        };
        let violations = case.check().expect("valid spec");
        assert!(violations.is_empty(), "golden must pass: {violations:?}");
        let good = write_artifact(&dir, &case, "pass", &[]).unwrap();
        let replay = replay_file(good.to_str().unwrap()).unwrap();
        assert!(replay.matched);
        assert_eq!(replay.verdict, "pass");
        // A wrong recorded verdict is caught.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, case_to_json(&case, "fail", &[]).pretty()).unwrap();
        let replay = replay_file(bad.to_str().unwrap()).unwrap();
        assert!(!replay.matched);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A deterministic failure source for minimizer tests: a fan-out
    /// graph whose queue capacity is below its steady-state demand
    /// fails its run with `CapacityExceeded` for as long as the graph
    /// keeps any splitter/joiner.
    fn capacity_starved_case() -> ReproCase {
        // Find a generated graph with a splitjoin and real demand.
        let (seed, spec) = (0..200u64)
            .map(|s| (s, generate(s, &GenConfig::default())))
            .find(|(_, g)| {
                g.nodes
                    .iter()
                    .any(|n| matches!(n.kind, NodeKind::SplitDuplicate | NodeKind::SplitRoundRobin))
                    && g.build_validated()
                        .map(|(_, p)| p.queue_demand > 12 && g.nodes.len() > 6)
                        .unwrap_or(false)
            })
            .expect("some seed yields a demanding splitjoin");
        ReproCase {
            spec,
            oracle: Oracle::Golden,
            seed,
            frames: 6,
            queue_capacity: 8,
            executor: ExecutorKind::Deterministic,
            class: FaultClass::Baseline,
            mtbe: 256,
        }
    }

    #[test]
    fn minimizer_shrinks_failing_cases_and_preserves_the_failure() {
        let case = capacity_starved_case();
        let before = case.check().expect("valid spec");
        assert!(!before.is_empty(), "starved case must fail");
        let (min, violations, spent) = minimize(&case, SHRINK_BUDGET);
        assert!(!violations.is_empty(), "minimized case still fails");
        assert!(spent > 0, "shrinking actually ran candidates");
        assert!(
            size(&min) < size(&case),
            "minimized {:?} not smaller than {:?}",
            size(&min),
            size(&case)
        );
        assert!(min.spec.build_validated().is_ok());
        // The shrunk graph still contains the structure the failure
        // needs: capacity checks only fire on fan-in/fan-out graphs.
        assert!(min
            .spec
            .nodes
            .iter()
            .any(|n| !matches!(n.kind, NodeKind::Source | NodeKind::Filter | NodeKind::Sink)));
    }

    #[test]
    fn graph_seeds_are_deterministic_and_spread() {
        assert_eq!(graph_seed(1, 0), graph_seed(1, 0));
        assert_ne!(graph_seed(1, 0), graph_seed(1, 1));
        assert_ne!(graph_seed(1, 0), graph_seed(2, 0));
    }

    #[test]
    fn oracle_labels_round_trip() {
        for o in [Oracle::Golden, Oracle::Parity, Oracle::Faulted] {
            assert_eq!(Oracle::parse(o.label()), Ok(o));
        }
        assert!(Oracle::parse("nope").is_err());
    }
}
