//! The untraced run (end-to-end metrics) and the traced run
//! (per-layer metrics) of a workload.
//!
//! Both repeat fixed-size rounds until `--seconds` have passed (and a
//! minimum round count is reached) and report medians across rounds.
//! Every timing is host time; every simulated statistic is a
//! correctness check, not a metric.

use crate::pins;
use crate::stats::{median, percentile};
use crate::trace::{JobClock, Phase, PhaseLog, PhaseObserver, KINDS};
use crate::workloads::{
    node_slots, paper_jobs, physical_nodes, rows_digest, sim_digest, single_config, timed_slots,
    Figure, Workload, WARMUP_SLOTS, WORKERS,
};
use neofog_core::sim::{SimConfig, Simulator};
use neofog_core::{BalancerKind, NetworkMetrics, PoolConfig, SystemKind};
use neofog_energy::TraceGenerator;
use std::time::{Duration, Instant};

/// Measured passes an untraced run makes at least, after one warm-up
/// pass: with 30 timed slots a pass this gives `wide_chain` 120 slot
/// samples, enough for a p90 with ten samples beyond it.
const MIN_PASSES: usize = 4;
/// A run stops starting rounds after this long, whatever `--seconds`
/// says, so it always ends within three minutes.
const MAX_RUN: Duration = Duration::from_secs(120);
/// How far the traced phase times may sum from the untraced time of
/// the same slots, as a share of the untraced time. The gap is the
/// observer's own cost plus run-to-run noise: a few per cent on the
/// 10⁴–10⁵-node workloads, about 30 % on `paper_repro`'s 10-node
/// simulations, where a slot is only ~150 events of a few ns each.
pub const PHASE_SUM_TOLERANCE: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// A check that is not an operation failed.
    pub broken: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Counts `ops` operations, all failed unless `ok`.
    fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.lines.push(format!("FAILED: {}", what()));
        }
    }

    /// Records a check on the run as a whole.
    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.broken = true;
            self.lines.push(format!("FAILED: {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.broken
    }
}

/// Compares each result digest with the one pinned for this seed, or,
/// for a seed without a pin, with the first digest of the run.
struct DigestGate {
    pinned: Option<u64>,
    first: Option<u64>,
}

impl DigestGate {
    fn new(workload: Workload, seed: u64) -> Self {
        DigestGate {
            pinned: pins::lookup(workload, seed),
            first: None,
        }
    }

    fn check(&mut self, digest: u64) -> bool {
        match self.pinned.or(self.first) {
            Some(expected) => digest == expected,
            None => {
                self.first = Some(digest);
                true
            }
        }
    }

    fn describe(&self, digest: u64) -> String {
        match self.pinned {
            Some(p) => format!("digest {digest:016x}, pinned {p:016x}"),
            None => format!("digest {digest:016x}, no pin for this seed: passes must agree"),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs rounds until `seconds` have passed and `min` rounds are in.
fn rounds<T>(
    seconds: f64,
    min: usize,
    mut round: impl FnMut(&mut Report) -> Result<T, String>,
) -> (Report, Vec<T>) {
    let mut report = Report::default();
    let mut out = Vec::new();
    let start = Instant::now();
    loop {
        match round(&mut report) {
            Ok(r) => out.push(r),
            Err(e) => report.check(false, 1, || e),
        }
        let elapsed = start.elapsed();
        let done = out.len() >= min && elapsed.as_secs_f64() >= seconds;
        if done || elapsed >= MAX_RUN {
            break;
        }
    }
    (report, out)
}

/// One timed pass of the untraced run.
struct Pass {
    wall: Duration,
    setup: Duration,
    node_slots_per_s: f64,
    op_ms: Vec<f64>,
}

/// The end-to-end metrics of `workload`, measured untraced.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut gate = DigestGate::new(workload, seed);
    let mut last_digest = 0;
    // The first pass warms caches and the allocator; it is checked but
    // not timed.
    let (mut report, passes) = match workload {
        Workload::PaperRepro => {
            let jobs = paper_jobs(seed);
            let total: usize = jobs.iter().map(|(_, c)| c.len()).sum();
            rounds(seconds, MIN_PASSES + 1, |report| {
                let (pass, digest) = paper_pass(seed, &jobs)?;
                last_digest = digest;
                report.check(gate.check(digest), total as u64, || gate.describe(digest));
                Ok(pass)
            })
        }
        Workload::WideChain | Workload::MeshOffload => {
            let cfg = single_config(workload, seed);
            let timed = timed_slots(workload);
            rounds(seconds, MIN_PASSES + 1, |report| {
                let (pass, digest) = single_pass(&cfg, timed)?;
                last_digest = digest;
                report.check(gate.check(digest), timed, || gate.describe(digest));
                Ok(pass)
            })
        }
    };
    let passes = passes.get(1..).unwrap_or_default();
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let (p50, p90) = (percentile(&op_ms, 0.5), percentile(&op_ms, 0.9));
    let (Some(wall), Some(setup), Some(throughput), Some(p50), Some(p90)) = (
        med(|p| p.wall.as_secs_f64()),
        med(|p| p.setup.as_secs_f64()),
        med(|p| p.node_slots_per_s),
        p50,
        p90,
    ) else {
        return Err(format!(
            "too few measured passes ({}) or operation samples ({})",
            passes.len(),
            op_ms.len()
        ));
    };
    report.metrics = vec![
        metric("wall_s", wall, "s"),
        metric("setup_s", setup, "s"),
        metric("node_slots_per_s", throughput, "1/s"),
        metric("op_ms_p50", p50, "ms"),
        metric("op_ms_p90", p90, "ms"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    let op = if workload == Workload::PaperRepro {
        "job"
    } else {
        "slot"
    };
    report.lines.push(format!(
        "{} measured passes after 1 warm-up pass; {} {op} latencies; {op}_ms_p50 = {p50} ms, {op}_ms_p90 = {p90} ms",
        passes.len(),
        op_ms.len()
    ));
    report.lines.push(gate.describe(last_digest));
    Ok(report)
}

/// `paper_repro`: the serial `Simulator::new` sum over every job
/// config, then the figure functions on the pool.
fn paper_pass(seed: u64, jobs: &[(Figure, Vec<SimConfig>)]) -> Result<(Pass, u64), String> {
    let mut setup = Duration::ZERO;
    for cfg in jobs.iter().flat_map(|(_, c)| c) {
        let cfg = cfg.clone();
        let t = Instant::now();
        let sim = Simulator::new(cfg).map_err(err)?;
        setup += t.elapsed();
        drop(sim);
    }
    let (digest, clocks, wall) = run_figures(seed, jobs)?;
    let all: Vec<SimConfig> = jobs.iter().flat_map(|(_, c)| c.iter().cloned()).collect();
    let pass = Pass {
        wall,
        setup,
        node_slots_per_s: node_slots(&all) as f64 / wall.as_secs_f64(),
        op_ms: clocks.iter().flat_map(JobClock::job_ms).collect(),
    };
    Ok((pass, digest))
}

/// Runs every figure function on a `WORKERS`-thread pool, returning
/// the rows digest, each batch's job clock and the wall time.
fn run_figures(
    seed: u64,
    jobs: &[(Figure, Vec<SimConfig>)],
) -> Result<(u64, Vec<JobClock>, Duration), String> {
    let pool = PoolConfig::with_workers(WORKERS);
    let mut rows = Vec::with_capacity(jobs.len());
    let mut clocks = Vec::with_capacity(jobs.len());
    let t = Instant::now();
    for (figure, _) in jobs {
        let mut clock = JobClock::default();
        rows.push(figure.run(seed, &pool, &mut clock)?);
        clocks.push(clock);
    }
    let wall = t.elapsed();
    for ((figure, configs), clock) in jobs.iter().zip(&clocks) {
        if clock.jobs() != configs.len() {
            return Err(format!(
                "{figure:?}: the runner ran {} jobs but the mirrored job list has {}",
                clock.jobs(),
                configs.len()
            ));
        }
    }
    Ok((rows_digest(&rows), clocks, wall))
}

/// A single-sim workload: build, warm up, then time `timed` slots one
/// `advance(1)` at a time.
fn single_pass(cfg: &SimConfig, timed: u64) -> Result<(Pass, u64), String> {
    let cfg = cfg.clone();
    let nodes = physical_nodes(&cfg) as f64;
    let t = Instant::now();
    let mut sim = Simulator::new(cfg).map_err(err)?;
    let setup = t.elapsed();
    sim.advance(WARMUP_SLOTS);
    let mut op_ms = Vec::with_capacity(timed as usize);
    let mut busy = Duration::ZERO;
    for _ in 0..timed {
        let s = Instant::now();
        sim.advance(1);
        let d = s.elapsed();
        busy += d;
        op_ms.push(d.as_secs_f64() * 1e3);
    }
    let wall = t.elapsed();
    let (digest, _) = sim_digest(sim);
    let pass = Pass {
        wall,
        setup,
        node_slots_per_s: nodes * timed as f64 / busy.as_secs_f64(),
        op_ms,
    };
    Ok((pass, digest))
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set-up split into the calls `Simulator::new` makes, summed over a
/// list of configs.
#[derive(Debug, Default)]
struct Split {
    plan: Duration,
    curves: Duration,
    route: Duration,
    new: Duration,
    samples: u64,
    nodes: u64,
    hops: u64,
    positions: u64,
}

/// Calls `chain_plan`, `node_curve` per node and `TopologySpec::build`
/// the way `Simulator::new` does, then `Simulator::new` itself.
fn setup_split(configs: &[SimConfig]) -> Result<Split, String> {
    let mut s = Split::default();
    for cfg in configs {
        let physical = physical_nodes(cfg);
        let total = neofog_types::Duration::from_micros(cfg.slot_len.as_micros() * cfg.slots);
        let t = Instant::now();
        let plan =
            TraceGenerator::new(cfg.scenario, cfg.seed).chain_plan(physical, total, cfg.trace_dt);
        s.plan += t.elapsed();
        let t = Instant::now();
        let curves: Vec<_> = (0..physical)
            .map(|i| plan.node_curve(i, cfg.income_scale))
            .collect();
        s.curves += t.elapsed();
        let t = Instant::now();
        let route = cfg.topology.build(cfg.positions).map_err(err)?;
        s.route += t.elapsed();
        s.samples += curves.iter().map(|c| c.len() as u64).sum::<u64>();
        s.nodes += physical as u64;
        s.hops += (0..cfg.positions)
            .map(|p| u64::from(route.hops(p)))
            .sum::<u64>();
        s.positions += cfg.positions as u64;
        drop((plan, curves, route));
        let cfg = cfg.clone();
        let t = Instant::now();
        let sim = Simulator::new(cfg).map_err(err)?;
        s.new += t.elapsed();
        drop(sim);
    }
    Ok(s)
}

impl Split {
    fn metrics(&self) -> Vec<Metric> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        vec![
            metric("energy.plan_ms", ms(self.plan), "ms"),
            metric("energy.curves_ms", ms(self.curves), "ms"),
            metric(
                "energy.samples_per_node",
                self.samples as f64 / self.nodes as f64,
                "samples",
            ),
            metric("net.route_build_ms", ms(self.route), "ms"),
            metric(
                "net.mean_hops",
                self.hops as f64 / self.positions as f64,
                "hops",
            ),
            metric("sim.new_ms", ms(self.new), "ms"),
            metric(
                "sim.new_residual_ms",
                ms(self.new) - ms(self.plan) - ms(self.curves) - ms(self.route),
                "ms",
            ),
        ]
    }
}

/// Weighted sums over traced slot windows and their untraced twins.
#[derive(Debug, Default)]
struct Replay {
    slots: f64,
    node_slots: f64,
    untraced_s: f64,
    phase_s: [f64; 6],
    events: [f64; 6],
    tasks_moved: f64,
    transfer_hops: f64,
    offload_decisions: f64,
    offload_tasks: f64,
}

impl Replay {
    fn add(&mut self, log: &PhaseLog, untraced: Duration, nodes: usize, weight: f64) {
        let slots = log.slots as f64;
        self.slots += weight * slots;
        self.node_slots += weight * slots * nodes as f64;
        self.untraced_s += weight * untraced.as_secs_f64();
        for p in 0..6 {
            self.phase_s[p] += weight * log.time[p].as_secs_f64();
            self.events[p] += weight * log.events[p] as f64;
        }
        self.tasks_moved += weight * log.tasks_moved as f64;
        self.transfer_hops += weight * log.transfer_hops as f64;
        self.offload_decisions += weight * log.offload_decisions as f64;
        self.offload_tasks += weight * log.offload_tasks as f64;
    }

    /// Per-slot metrics of the traced slots.
    fn metrics(&self) -> Vec<Metric> {
        let per_slot = |v: f64| v / self.slots;
        let traced_s: f64 = self.phase_s.iter().sum();
        let overhead = traced_s / self.untraced_s - 1.0;
        let mut out = vec![metric(
            "sim.advance_ns_per_node_slot",
            self.untraced_s * 1e9 / self.node_slots,
            "ns",
        )];
        for (p, (ms, events)) in PHASE_METRICS.iter().enumerate() {
            out.push(metric(ms, per_slot(self.phase_s[p]) * 1e3, "ms"));
            out.push(metric(events, per_slot(self.events[p]), "events"));
        }
        out.extend([
            metric(
                "sim.events_per_slot",
                per_slot(self.events.iter().sum()),
                "events",
            ),
            metric(
                "balance.tasks_moved_per_slot",
                per_slot(self.tasks_moved),
                "tasks",
            ),
            metric(
                "balance.transfer_hops_per_slot",
                per_slot(self.transfer_hops),
                "hops",
            ),
            metric(
                "balance.offload_decisions_per_slot",
                per_slot(self.offload_decisions),
                "decisions",
            ),
            metric(
                "balance.offload_tasks_per_slot",
                per_slot(self.offload_tasks),
                "tasks",
            ),
            metric("sim.trace_overhead_frac", overhead, "ratio"),
        ]);
        out
    }
}

/// Per-slot time and event-count metric names, in [`Phase`] order.
const PHASE_METRICS: [(&str, &str); 6] = [
    ("sim.harvest.ms_per_slot", "sim.harvest.events_per_slot"),
    ("sim.wake.ms_per_slot", "sim.wake.events_per_slot"),
    ("sim.balance.ms_per_slot", "sim.balance.events_per_slot"),
    ("sim.compute.ms_per_slot", "sim.compute.events_per_slot"),
    ("sim.transmit.ms_per_slot", "sim.transmit.events_per_slot"),
    ("sim.slot_end.ms_per_slot", "sim.slot_end.events_per_slot"),
];

/// The phases ranked by their share of traced slot time.
fn phase_shares(metrics: &[Metric]) -> String {
    let ms = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut shares: Vec<(f64, &str)> = Phase::ALL
        .iter()
        .zip(PHASE_METRICS)
        .map(|(phase, (name, _))| (ms(name), phase.label()))
        .collect();
    let total: f64 = shares.iter().map(|(v, _)| v).sum();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    let ranked: Vec<String> = shares
        .iter()
        .map(|(v, label)| format!("{label} {:.1} %", 100.0 * v / total))
        .collect();
    format!("phase shares of slot time: {}", ranked.join(", "))
}

/// Whether the observer's per-kind event counts agree with the
/// counters the metrics observer folded from the same stream.
fn kinds_agree(kinds: &[u64; KINDS.len()], m: &NetworkMetrics, slots: u64) -> bool {
    let count = |kind: &str| {
        KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(u64::MAX, |i| kinds[i])
    };
    let executed: u64 = m.nodes.iter().map(|n| n.tasks_executed).sum();
    count("slot_began") == slots
        && count("slot_ended") == slots
        && count("node_woke") == m.total_wakeups()
        && count("wake_failed") == m.total_failures()
        && count("package_captured") == m.total_captured()
        && count("fog_completed") == executed
        && count("package_delivered") == m.total_processed()
        && count("offload_decided") == m.offload_decisions
}

fn runner_metrics(jobs: f64, utilization: f64, drain_s: f64) -> [Metric; 3] {
    [
        metric("runner.jobs", jobs, "jobs"),
        metric("runner.utilization", utilization, "ratio"),
        metric("runner.drain_s", drain_s, "s"),
    ]
}

/// The per-layer metrics of `workload`, from a traced run.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut gate = DigestGate::new(workload, seed);
    let (mut report, rounds_out) = match workload {
        Workload::PaperRepro => {
            let jobs = paper_jobs(seed);
            rounds(seconds, 1, |report| {
                paper_round(seed, &jobs, &mut gate, report)
            })
        }
        Workload::WideChain | Workload::MeshOffload => {
            let cfg = single_config(workload, seed);
            let timed = timed_slots(workload);
            rounds(seconds, 1, |report| {
                single_round(&cfg, timed, &mut gate, report)
            })
        }
    };
    let Some(first) = rounds_out.first() else {
        return Err("no traced round completed".into());
    };
    for (i, m) in first.iter().enumerate() {
        let values: Vec<f64> = rounds_out.iter().map(|r| r[i].value).collect();
        report
            .metrics
            .push(metric(m.name, median(&values).unwrap_or(f64::NAN), m.unit));
    }
    // The phase times sum to the traced slot time by construction, so
    // this bounds how far tracing moved it from the untraced time.
    let overhead = report
        .metrics
        .iter()
        .find(|m| m.name == "sim.trace_overhead_frac")
        .map_or(f64::NAN, |m| m.value);
    report.require(
        overhead.abs() <= PHASE_SUM_TOLERANCE,
        "phase times do not sum to the untraced time",
    );
    report.lines.push(format!(
        "{} traced rounds; phase times must sum to within {:.0} % of the untraced slot time",
        rounds_out.len(),
        PHASE_SUM_TOLERANCE * 100.0
    ));
    report.lines.push(phase_shares(&report.metrics));
    Ok(report)
}

fn single_round(
    cfg: &SimConfig,
    timed: u64,
    gate: &mut DigestGate,
    report: &mut Report,
) -> Result<Vec<Metric>, String> {
    let mut out = setup_split(std::slice::from_ref(cfg))?.metrics();
    // Untraced twin: the same slots an untraced pass times.
    let mut sim = Simulator::new(cfg.clone()).map_err(err)?;
    sim.advance(WARMUP_SLOTS);
    let t = Instant::now();
    for _ in 0..timed {
        sim.advance(1);
    }
    let untraced = t.elapsed();
    let (digest, _) = sim_digest(sim);
    report.check(gate.check(digest), timed, || gate.describe(digest));
    // Traced run.
    let (observer, log) = PhaseObserver::new(cfg);
    let mut sim = Simulator::new(cfg.clone()).map_err(err)?;
    sim.attach_observer(Box::new(observer));
    sim.advance(WARMUP_SLOTS);
    log.borrow_mut().arm();
    for _ in 0..timed {
        sim.advance(1);
    }
    log.borrow_mut().disarm();
    let (traced_digest, metrics) = sim_digest(sim);
    let log = log.borrow();
    let agree = kinds_agree(&log.kinds, &metrics, WARMUP_SLOTS + timed);
    report.check(traced_digest == digest && agree, timed, || {
        format!("traced run diverged (digest {traced_digest:016x} vs {digest:016x}, kinds agree: {agree})")
    });
    let mut replay = Replay::default();
    replay.add(&log, untraced, physical_nodes(cfg), 1.0);
    out.extend(replay.metrics());
    out.extend(runner_metrics(0.0, 0.0, 0.0));
    Ok(out)
}

fn paper_round(
    seed: u64,
    jobs: &[(Figure, Vec<SimConfig>)],
    gate: &mut DigestGate,
    report: &mut Report,
) -> Result<Vec<Metric>, String> {
    let all: Vec<SimConfig> = jobs.iter().flat_map(|(_, c)| c.iter().cloned()).collect();
    let mut out = setup_split(&all)?.metrics();

    let (digest, clocks, wall) = run_figures(seed, jobs)?;
    report.check(gate.check(digest), all.len() as u64, || {
        gate.describe(digest)
    });
    let busy_s: f64 = clocks.iter().flat_map(JobClock::job_ms).sum::<f64>() / 1e3;
    let drain_s: f64 = clocks.iter().map(|c| c.drain().as_secs_f64()).sum();
    let utilization = busy_s / (WORKERS as f64 * wall.as_secs_f64());

    // Serial traced replay of one job per (system, balancer,
    // multiplex) class, weighted by how many jobs the class has.
    let mut classes: Vec<((SystemKind, BalancerKind, u32), &SimConfig, f64)> = Vec::new();
    for cfg in &all {
        let key = (cfg.system, cfg.balancer, cfg.multiplex);
        match classes.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, n)) => *n += 1.0,
            None => classes.push((key, cfg, 1.0)),
        }
    }
    let mut replay = Replay::default();
    for (key, cfg, weight) in &classes {
        let sim = Simulator::new((*cfg).clone()).map_err(err)?;
        let t = Instant::now();
        let plain = sim.run();
        let untraced = t.elapsed();
        let (observer, log) = PhaseObserver::new(cfg);
        let mut sim = Simulator::new((*cfg).clone()).map_err(err)?;
        sim.attach_observer(Box::new(observer));
        log.borrow_mut().arm();
        let traced = sim.run();
        let log = log.borrow();
        let ok =
            traced.metrics == plain.metrics && kinds_agree(&log.kinds, &traced.metrics, cfg.slots);
        report.check(ok, 2, || format!("traced replay of {key:?} diverged"));
        replay.add(&log, untraced, physical_nodes(cfg), *weight);
    }
    out.extend(replay.metrics());
    out.extend(runner_metrics(all.len() as f64, utilization, drain_s));
    Ok(out)
}

/// The result digest of one untraced pass, for pinning.
pub fn pass_digest(workload: Workload, seed: u64) -> Result<u64, String> {
    match workload {
        Workload::PaperRepro => Ok(paper_pass(seed, &paper_jobs(seed))?.1),
        Workload::WideChain | Workload::MeshOffload => {
            Ok(single_pass(&single_config(workload, seed), timed_slots(workload))?.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_metric_names_follow_phase_order() {
        for (phase, (ms, events)) in Phase::ALL.iter().zip(PHASE_METRICS) {
            assert_eq!(ms, format!("sim.{}.ms_per_slot", phase.label()));
            assert_eq!(events, format!("sim.{}.events_per_slot", phase.label()));
        }
    }
}
