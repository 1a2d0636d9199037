//! Piecewise-constant power traces and the paper's synthetic generators.
//!
//! The NEOFog evaluation (§5.2) drives every node with a 5-hour power
//! trace. Three recipes are used:
//!
//! * **Independent** (forest fire monitoring, Figure 10): each node's
//!   trace is a random concatenation of measured segments (full sun,
//!   leaf shade, cloud, wind flicker), so neighbouring nodes are
//!   effectively uncorrelated.
//! * **Dependent** (bridge monitoring, Figure 11): all nodes share one
//!   base diurnal curve; each node applies ~30 % random variance.
//! * **Rainy** (mountain-slide monitoring, Figure 13): very low income
//!   with occasional dimming, shared weather (dependent).
//!
//! One synthesis routine realizes every trace, for `L` nodes at a time
//! (one lane each, `L` a constant), and one fold turns the samples into
//! per-slot incomes as they are made, so the simulator stores no trace.
//! A node's fold is bound by two serial chains, its RNG stream and its
//! running sum; `Simulator::new` folds two nodes per pass
//! ([`ChainPlan::slot_incomes_lanes`]) so their chains overlap, while
//! [`ChainPlan::node_trace`] and [`ChainPlan::slot_incomes`] run one
//! lane. Every lane performs a lone node's f64 operations in the same
//! order, so the incomes are the same bit for bit.

#![expect(
    clippy::indexing_slicing,
    reason = "trace resampling bounded by the sample count it allocates"
)]

use crate::curve::EnergyCurve;
use neofog_types::{Duration, Energy, Power, SimRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A piecewise-constant power signal sampled on a fixed grid.
///
/// The value of sample `i` holds on `[i·dt, (i+1)·dt)`. Beyond the end
/// of the trace the power is zero. The clock stops at `u64::MAX` µs: a
/// last sample that would end past it is cut there, so
/// [`duration`](PowerTrace::duration) saturates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    dt: Duration,
    samples: Vec<Power>,
}

impl PowerTrace {
    /// Creates a trace from explicit samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[must_use]
    pub fn from_samples(dt: Duration, samples: Vec<Power>) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        PowerTrace { dt, samples }
    }

    /// Creates a constant trace of the given total duration (rounded up
    /// to a whole number of samples, the last cut at `u64::MAX` µs).
    #[must_use]
    pub fn constant(power: Power, total: Duration, dt: Duration) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        let n = total.as_micros().div_ceil(dt.as_micros());
        PowerTrace {
            dt,
            samples: vec![power; n as usize],
        }
    }

    /// Builds a trace by evaluating `f` at each sample midpoint (a last
    /// sample cut at `u64::MAX` µs at the midpoint of what is left).
    #[must_use]
    pub fn from_fn(total: Duration, dt: Duration, mut f: impl FnMut(Duration) -> Power) -> Self {
        assert!(!dt.is_zero(), "sample interval must be positive");
        let dt_us = dt.as_micros();
        let n = total.as_micros().div_ceil(dt_us);
        // Every sample but the last ends by `total`, so only the last
        // can run past the clock.
        let last = n.checked_sub(1).map(|i| {
            let start = i * dt_us;
            start + (start.saturating_add(dt_us) - start) / 2
        });
        let samples = (0..n.saturating_sub(1))
            .map(|i| i * dt_us + dt_us / 2)
            .chain(last)
            .map(|mid| f(Duration::from_micros(mid)))
            .collect();
        PowerTrace { dt, samples }
    }

    /// The sampling interval.
    #[must_use]
    pub fn dt(self: &PowerTrace) -> Duration {
        self.dt
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered duration, at most `u64::MAX` µs.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_micros(
            self.dt
                .as_micros()
                .saturating_mul(self.samples.len() as u64),
        )
    }

    /// The raw samples.
    #[must_use]
    pub fn samples(&self) -> &[Power] {
        &self.samples
    }

    /// Instantaneous power at elapsed time `t` (zero beyond the end).
    #[must_use]
    pub fn power_at(&self, t: Duration) -> Power {
        let idx = (t.as_micros() / self.dt.as_micros()) as usize;
        self.samples.get(idx).copied().unwrap_or(Power::ZERO)
    }

    /// Exact integral of the trace over `[t0, t1)`, in energy.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t0 > t1`.
    #[must_use]
    pub fn energy_between(&self, t0: Duration, t1: Duration) -> neofog_types::Energy {
        debug_assert!(t0 <= t1, "interval must be ordered");
        let mut total = neofog_types::Energy::ZERO;
        let dt_us = self.dt.as_micros();
        let mut cursor = t0.as_micros();
        let end = t1.as_micros().min(self.duration().as_micros());
        while cursor < end {
            let idx = (cursor / dt_us) as usize;
            let seg_end = ((cursor / dt_us) + 1).saturating_mul(dt_us);
            let span = seg_end.min(end) - cursor;
            total += self.samples[idx] * Duration::from_micros(span);
            cursor = seg_end;
        }
        total
    }

    /// Mean power over the whole trace.
    #[must_use]
    pub fn mean_power(&self) -> Power {
        if self.samples.is_empty() {
            return Power::ZERO;
        }
        let sum: f64 = self.samples.iter().map(|p| p.as_milliwatts()).sum();
        Power::from_milliwatts(sum / self.samples.len() as f64)
    }

    /// Returns a copy with every sample multiplied by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PowerTrace {
        PowerTrace {
            dt: self.dt,
            samples: self
                .samples
                .iter()
                .map(|p| (*p * factor).max_zero())
                .collect(),
        }
    }

    /// Multiplies every sample by `factor` in place, clamping at zero.
    ///
    /// Sample-for-sample identical to [`PowerTrace::scaled`] without
    /// the reallocation.
    pub fn scale_in_place(&mut self, factor: f64) {
        for p in &mut self.samples {
            *p = (*p * factor).max_zero();
        }
    }

    /// Appends another trace (must share the same `dt`).
    ///
    /// # Panics
    ///
    /// Panics if the sample intervals differ.
    pub fn extend(&mut self, other: &PowerTrace) {
        assert_eq!(
            self.dt, other.dt,
            "sample intervals must match to concatenate"
        );
        self.samples.extend_from_slice(&other.samples);
    }
}

/// The deployment scenarios evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Forest fire monitoring: ample income with large, effectively
    /// independent variance (leaves moving in wind). Figure 10.
    ForestIndependent,
    /// Bridge monitoring: ample income, strongly correlated across
    /// nodes (same sky). Figure 11.
    BridgeDependent,
    /// Mountain-slide monitoring on a sunny day: high power, large
    /// independent variance (aerial dispersion into sun/shade).
    /// Figure 12.
    MountainSunny,
    /// Mountain-slide monitoring in heavy rain: very low, dependent
    /// income. Figure 13.
    MountainRainy,
}

impl Scenario {
    /// `true` when node incomes are correlated (share a base curve).
    #[must_use]
    pub fn is_dependent(self) -> bool {
        matches!(self, Scenario::BridgeDependent | Scenario::MountainRainy)
    }

    /// Nominal mean harvest power for the scenario.
    #[must_use]
    pub fn mean_power(self) -> Power {
        match self {
            Scenario::ForestIndependent => Power::from_milliwatts(2.4),
            Scenario::BridgeDependent => Power::from_milliwatts(2.4),
            Scenario::MountainSunny => Power::from_milliwatts(4.4),
            Scenario::MountainRainy => Power::from_milliwatts(0.45),
        }
    }

    /// Per-node multiplicative variance applied by the generator.
    #[must_use]
    pub fn variance(self) -> f64 {
        match self {
            Scenario::ForestIndependent => 0.9,
            Scenario::BridgeDependent => 0.3,
            Scenario::MountainSunny => 0.8,
            Scenario::MountainRainy => 0.3,
        }
    }
}

/// One entry in the measured-segment library used to synthesize
/// independent traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Segment {
    mean: f64,
    jitter: f64,
    len_samples: usize,
}

/// Generates per-node power traces following the paper's recipes.
///
/// All generation routes through [`TraceGenerator::chain_plan`]: the
/// plan derives one deterministic RNG stream per node position from
/// the generator seed (and, for dependent scenarios, synthesizes the
/// shared base curve exactly once), so every method here is `&self`
/// and position-pure — `node_trace(i)` returns the same trace no
/// matter how many other nodes were generated before it.
///
/// # Examples
///
/// ```
/// use neofog_energy::{Scenario, TraceGenerator};
/// use neofog_types::Duration;
///
/// let gen = TraceGenerator::new(Scenario::ForestIndependent, 42);
/// let traces = gen.node_traces(10, Duration::from_mins(30), Duration::from_secs(1));
/// assert_eq!(traces.len(), 10);
/// assert_eq!(traces[0].duration(), Duration::from_mins(30));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    scenario: Scenario,
    rng: SimRng,
}

impl TraceGenerator {
    /// Creates a generator for a scenario with a deterministic seed.
    #[must_use]
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        TraceGenerator {
            scenario,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The scenario this generator produces.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Builds a plan for generating `n` node traces: per-node RNG
    /// streams are derived up front, and for dependent scenarios the
    /// shared base curve is synthesized exactly once (and `Arc`-shared
    /// by the plan, never copied per node).
    ///
    /// Stream derivation is frozen to match the pre-plan draw order so
    /// existing seeds reproduce: dependent plans fork the base stream
    /// (`0xBA5E`) first and then stream `2·i` per node; independent
    /// plans fork stream `2·i + 1` per node.
    #[must_use]
    pub fn chain_plan(&self, n: usize, total: Duration, dt: Duration) -> ChainPlan {
        // Work on a clone: the generator itself stays untouched, so
        // plan construction is repeatable.
        let mut rng = self.rng.clone();
        if self.scenario.is_dependent() {
            let base_rng = rng.fork(0xBA5E);
            let streams = (0..n)
                .map(|i| rng.fork((i as u64).wrapping_mul(2)))
                .collect();
            let base = base_curve_with(
                base_rng,
                self.scenario.mean_power().as_milliwatts(),
                total,
                dt,
            );
            ChainPlan {
                scenario: self.scenario,
                total,
                dt,
                base: Some(Arc::new(base)),
                streams,
            }
        } else {
            let streams = (0..n)
                .map(|i| rng.fork((i as u64).wrapping_mul(2) + 1))
                .collect();
            ChainPlan {
                scenario: self.scenario,
                total,
                dt,
                base: None,
                streams,
            }
        }
    }

    /// Generates `n` node traces of the given duration and resolution.
    ///
    /// Independent scenarios concatenate segments per node; dependent
    /// scenarios build one base curve and perturb it per node.
    #[must_use]
    pub fn node_traces(&self, n: usize, total: Duration, dt: Duration) -> Vec<PowerTrace> {
        let plan = self.chain_plan(n, total, dt);
        (0..n).map(|i| plan.node_trace(i)).collect()
    }

    /// Generates a single node trace (index selects the node's stream).
    ///
    /// Position-pure: identical to `node_traces(index + 1)[index]` for
    /// every scenario, including dependent ones.
    #[must_use]
    pub fn node_trace(&self, index: u64, total: Duration, dt: Duration) -> PowerTrace {
        self.chain_plan(index as usize + 1, total, dt)
            .node_trace(index as usize)
    }
}

/// A frozen generation plan for one chain of nodes: the per-node RNG
/// streams plus (for dependent scenarios) the shared base curve,
/// synthesized once and `Arc`-shared.
///
/// Produced by [`TraceGenerator::chain_plan`]. Realizing a node trace
/// from the plan touches only that node's stream, so plans can hand
/// out traces in any order — or skip nodes entirely — and remain
/// deterministic. Nodes realized together in one pass stay pure too:
/// each lane reads only its own node's stream, so a node's incomes do
/// not depend on the node it shares the pass with.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    scenario: Scenario,
    total: Duration,
    dt: Duration,
    base: Option<Arc<PowerTrace>>,
    streams: Vec<SimRng>,
}

impl ChainPlan {
    /// Number of node positions the plan covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` if the plan covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The scenario the plan generates.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The shared base curve (dependent scenarios only).
    #[must_use]
    pub fn base(&self) -> Option<&Arc<PowerTrace>> {
        self.base.as_ref()
    }

    /// Realizes the trace for node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn node_trace(&self, index: usize) -> PowerTrace {
        let n = self.total.as_micros().div_ceil(self.dt.as_micros());
        let mut samples = Vec::with_capacity(n as usize);
        self.synthesize([index], |[p]| samples.push(p));
        PowerTrace::from_samples(self.dt, samples)
    }

    /// Realizes the prefix-summed [`EnergyCurve`] for node `index`,
    /// with every sample scaled by `income_scale` (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn node_curve(&self, index: usize, income_scale: f64) -> EnergyCurve {
        let mut trace = self.node_trace(index);
        trace.scale_in_place(income_scale);
        EnergyCurve::new(trace)
    }

    /// Writes the energy node `index`'s trace delivers over each slot
    /// into `incomes`: `incomes[s]` covers `[s·slot_len,
    /// (s+1)·slot_len)`, with every sample scaled by `income_scale`
    /// (clamped at zero). The samples are folded as they are
    /// synthesized, so the trace is never stored.
    ///
    /// Each income is bit-identical to
    /// `self.node_curve(index, income_scale).energy_between(t0, t1)`
    /// over the same slot.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn slot_incomes(
        &self,
        index: usize,
        income_scale: f64,
        slot_len: Duration,
        incomes: &mut [Energy],
    ) {
        self.slot_incomes_lanes([index], income_scale, slot_len, [incomes]);
    }

    /// [`ChainPlan::slot_incomes`] for `L` nodes in one pass:
    /// `incomes[l]` receives node `nodes[l]`'s incomes, each
    /// bit-identical to what `slot_incomes` writes for that node.
    ///
    /// One node's fold is two serial chains, its RNG stream and its
    /// running sum; the lanes' chains are independent, so a pass over
    /// two nodes overlaps them. Each lane still draws from its own
    /// stream in its own order and adds its samples in time order.
    ///
    /// # Panics
    ///
    /// Panics if a node index is `>= self.len()`, or if the lanes'
    /// income slices differ in length.
    pub fn slot_incomes_lanes<const L: usize>(
        &self,
        nodes: [usize; L],
        income_scale: f64,
        slot_len: Duration,
        incomes: [&mut [Energy]; L],
    ) {
        // Decided once per plan: only a plan whose last sample or slot
        // ends past `u64::MAX` µs needs the stopped clock. That fold has
        // its own code, out of line, so the common one compiles as it
        // does alone.
        let window = incomes.first().map_or(0, |lane| lane.len());
        let samples = self.total.as_micros().div_ceil(self.dt.as_micros());
        let fits = samples.checked_mul(self.dt.as_micros()).is_some()
            && (window as u64).checked_mul(slot_len.as_micros()).is_some();
        if fits {
            self.fold_incomes::<false, L>(nodes, income_scale, slot_len, incomes);
        } else {
            self.fold_past_the_clock(nodes, income_scale, slot_len, incomes);
        }
    }

    /// Folds the lanes' samples into their incomes; with `CUT` the
    /// clock stops at `u64::MAX` µs (see [`IncomeFold`]).
    fn fold_incomes<const CUT: bool, const L: usize>(
        &self,
        nodes: [usize; L],
        income_scale: f64,
        slot_len: Duration,
        incomes: [&mut [Energy]; L],
    ) {
        let mut fold = IncomeFold::new(incomes, income_scale, slot_len, self.dt);
        self.synthesize(nodes, |p| fold.fold_sample::<CUT>(p));
        fold.fold_tail();
    }

    /// The fold of a plan whose clock stops at `u64::MAX` µs.
    #[cold]
    #[inline(never)]
    fn fold_past_the_clock<const L: usize>(
        &self,
        nodes: [usize; L],
        income_scale: f64,
        slot_len: Duration,
        incomes: [&mut [Energy]; L],
    ) {
        self.fold_incomes::<true, L>(nodes, income_scale, slot_len, incomes);
    }

    /// Streams the samples of `L` nodes, in time order, into `sink`,
    /// one sample per lane per call: the one synthesis routine behind
    /// [`ChainPlan::node_trace`] and [`ChainPlan::slot_incomes_lanes`].
    fn synthesize<const L: usize>(&self, nodes: [usize; L], sink: impl FnMut([Power; L])) {
        let rngs = nodes.map(|index| {
            assert!(index < self.streams.len(), "node index out of plan range");
            self.streams[index].clone()
        });
        match &self.base {
            Some(base) => perturb_with(rngs, self.scenario.variance(), base, sink),
            None => independent_with(rngs, self.scenario, self.total, self.dt, sink),
        }
    }
}

/// Folds `L` lanes of trace samples, one node per lane, into per-slot
/// incomes.
///
/// Each lane performs the f64 operations of [`EnergyCurve::new`] and
/// then of `EnergyCurve::cumulative_at` at each slot boundary, in the
/// same order, so every income equals the curve's `energy_between` bit
/// for bit. The lanes share one clock: a sample spans the same interval
/// in every lane, so each slot boundary is found once and closed in
/// every lane. The first boundary, time zero, reads zero on every
/// finite trace, so the fold starts from zero at the end of slot 0.
/// Boundaries advance by addition against a running sample end, so no
/// sample costs a division. Like a trace's, the fold's clock stops at
/// `u64::MAX` µs: a slot or a last sample that would end past it ends
/// there.
struct IncomeFold<'a, const L: usize> {
    /// Each lane's incomes, in slot order; all `window` long.
    incomes: [&'a mut [Energy]; L],
    window: usize,
    /// The slot whose income every lane writes next.
    slot: usize,
    /// Each lane's cumulative energy at the previous boundary.
    last: [Energy; L],
    /// The end of slot `slot`, µs; `u64::MAX` once every income is
    /// written.
    boundary: u64,
    slot_us: u64,
    scale: f64,
    dt_us: u64,
    /// Start of the next sample, µs.
    start: u64,
    /// Each lane's energy of every sample before `start`, nJ.
    total: [f64; L],
}

impl<'a, const L: usize> IncomeFold<'a, L> {
    fn new(incomes: [&'a mut [Energy]; L], scale: f64, slot_len: Duration, dt: Duration) -> Self {
        let window = incomes.first().map_or(0, |lane| lane.len());
        assert!(
            incomes.iter().all(|lane| lane.len() == window),
            "every lane folds the same number of slots"
        );
        let slot_us = slot_len.as_micros();
        IncomeFold {
            incomes,
            window,
            slot: 0,
            last: [Energy::ZERO; L],
            boundary: if window == 0 { u64::MAX } else { slot_us },
            slot_us,
            scale,
            dt_us: dt.as_micros(),
            start: 0,
            total: [0.0; L],
        }
    }

    /// Closes every slot whose end falls inside the sample
    /// `[start, start + dt)`, then adds each lane's sample to its
    /// running total. With `CUT` the clock stops at `u64::MAX` µs: a
    /// sample or slot that would end past it ends there, and a cut
    /// sample adds only the span it keeps.
    fn fold_sample<const CUT: bool>(&mut self, samples: [Power; L]) {
        // Every sample is already clamped at zero, so scaling it by 1.0
        // would change no bit: the nominal scale skips the step.
        let p = if self.scale == 1.0 {
            samples
        } else {
            samples.map(|p| (p * self.scale).max_zero())
        };
        let end = if CUT {
            self.start.saturating_add(self.dt_us)
        } else {
            self.start + self.dt_us
        };
        while self.boundary < end {
            let within = Duration::from_micros(self.boundary - self.start);
            let lanes = self.incomes.iter_mut().zip(&mut self.last).zip(self.total);
            for (((incomes, last), total), p) in lanes.zip(p) {
                let cum = Energy::from_nanojoules(total) + p * within;
                incomes[self.slot] = cum.saturating_sub(*last);
                *last = cum;
            }
            self.slot += 1;
            self.boundary = if self.slot >= self.window {
                u64::MAX
            } else if CUT {
                self.boundary.saturating_add(self.slot_us)
            } else {
                self.boundary + self.slot_us
            };
        }
        let span = if CUT { end - self.start } else { self.dt_us };
        for (total, p) in self.total.iter_mut().zip(p) {
            *total += p.as_milliwatts() * span as f64;
        }
        self.start = end;
    }

    /// Closes the slots that end at or past the trace end, where each
    /// lane's cumulative energy stays at its total.
    fn fold_tail(self) {
        for ((lane, total), mut last) in self.incomes.into_iter().zip(self.total).zip(self.last) {
            let cum = Energy::from_nanojoules(total);
            for income in &mut lane[self.slot..] {
                *income = cum.saturating_sub(last);
                last = cum;
            }
        }
    }
}

fn segment_library(scenario: Scenario) -> [Segment; 5] {
    let mean = scenario.mean_power().as_milliwatts();
    let var = scenario.variance();
    // Segment means spread around the scenario mean by the
    // scenario's variance; lengths of 20–120 samples mimic passing
    // clouds / moving leaves on a seconds-to-minutes timescale.
    [
        Segment {
            mean: mean * (1.0 + var),
            jitter: 0.10,
            len_samples: 60,
        },
        Segment {
            mean,
            jitter: 0.15,
            len_samples: 90,
        },
        Segment {
            mean: mean * (1.0 - 0.6 * var),
            jitter: 0.20,
            len_samples: 45,
        },
        Segment {
            mean: mean * (1.0 - var).max(0.05),
            jitter: 0.25,
            len_samples: 30,
        },
        Segment {
            mean: mean * (1.0 + 0.5 * var),
            jitter: 0.10,
            len_samples: 120,
        },
    ]
}

/// Concatenates segments drawn at random from the library, one lane
/// per node. A lane draws its segment, then one jitter per sample.
/// Every lane runs, without a branch, the samples that every lane's
/// current segment still covers; then each lane whose segment ran out
/// draws its next one, at the sample where a lone node would.
fn independent_with<const L: usize>(
    mut rngs: [SimRng; L],
    scenario: Scenario,
    total: Duration,
    dt: Duration,
    mut sink: impl FnMut([Power; L]),
) {
    let library = segment_library(scenario);
    let n = total.as_micros().div_ceil(dt.as_micros());
    let mut segs = [library[0]; L];
    // Samples left in each lane's segment; 0 makes the lane draw.
    let mut left = [0; L];
    let mut made = 0;
    while made < n {
        for ((rng, seg), left) in rngs.iter_mut().zip(&mut segs).zip(&mut left) {
            if *left == 0 {
                *seg = library[rng.index(library.len())];
                *left = (seg.len_samples as u64).min(n - made);
            }
        }
        let run = left.into_iter().fold(u64::MAX, u64::min);
        for _ in 0..run {
            sink(std::array::from_fn(|l| {
                let seg = segs[l];
                let p = seg.mean * (1.0 + seg.jitter * (2.0 * rngs[l].next_f64() - 1.0));
                Power::from_milliwatts(p.max(0.0))
            }));
        }
        for left in &mut left {
            *left -= run;
        }
        made += run;
    }
}

fn base_curve_with(mut rng: SimRng, mean: f64, total: Duration, dt: Duration) -> PowerTrace {
    // A deterministic diurnal-style arc for the shared base: the
    // trace covers a daytime window, so power rises to a plateau
    // and dips with shared "weather" episodes.
    let n = total.as_micros().div_ceil(dt.as_micros());
    let mut samples = Vec::with_capacity(n as usize);
    let mut weather = 1.0_f64;
    for i in 0..n {
        let phase = i as f64 / n.max(1) as f64;
        // Half-sine daytime arc, normalized to unit mean so the
        // scenario's nominal power is preserved (raw arc averages
        // 0.55 + 0.45·2/π ≈ 0.836).
        let arc = (0.55 + 0.45 * (std::f64::consts::PI * phase).sin()) / 0.8365;
        // Slow shared weather random walk around unit mean.
        weather = (weather + 0.02 * (2.0 * rng.next_f64() - 1.0)).clamp(0.7, 1.3);
        samples.push(Power::from_milliwatts((mean * arc * weather).max(0.0)));
    }
    PowerTrace::from_samples(dt, samples)
}

/// Perturbs the shared base curve, one lane per node: each lane draws
/// its static factor, then one jitter per sample.
fn perturb_with<const L: usize>(
    mut rngs: [SimRng; L],
    var: f64,
    base: &PowerTrace,
    mut sink: impl FnMut([Power; L]),
) {
    // Per-node static factor (panel angle / placement)...
    let factors = rngs
        .each_mut()
        .map(|rng| 1.0 + var * (2.0 * rng.next_f64() - 1.0));
    // ...plus small fast per-sample jitter.
    for p in base.samples() {
        sink(std::array::from_fn(|l| {
            let jitter = 1.0 + 0.05 * (2.0 * rngs[l].next_f64() - 1.0);
            (*p * (factors[l] * jitter)).max_zero()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_types::Energy;

    fn mw(v: f64) -> Power {
        Power::from_milliwatts(v)
    }

    #[test]
    fn constant_trace_integrates_exactly() {
        let t = PowerTrace::constant(mw(10.0), Duration::from_secs(2), Duration::from_millis(100));
        let e = t.energy_between(Duration::ZERO, Duration::from_secs(2));
        assert!((e.as_nanojoules() - 10.0 * 2e6).abs() < 1e-6);
    }

    #[test]
    fn partial_interval_integration() {
        let t = PowerTrace::from_samples(Duration::from_millis(1), vec![mw(1.0), mw(2.0), mw(3.0)]);
        // [0.5ms, 2.5ms) = 0.5ms@1mW + 1ms@2mW + 0.5ms@3mW = 500+2000+1500 nJ
        let e = t.energy_between(Duration::from_micros(500), Duration::from_micros(2500));
        assert!((e.as_nanojoules() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn integration_beyond_end_is_clamped() {
        let t = PowerTrace::constant(mw(5.0), Duration::from_millis(1), Duration::from_millis(1));
        let e = t.energy_between(Duration::ZERO, Duration::from_secs(10));
        assert_eq!(e, Energy::from_nanojoules(5_000.0));
        assert_eq!(t.power_at(Duration::from_secs(5)), Power::ZERO);
    }

    #[test]
    fn power_at_reads_correct_sample() {
        let t = PowerTrace::from_samples(Duration::from_millis(10), vec![mw(1.0), mw(9.0)]);
        assert_eq!(t.power_at(Duration::ZERO), mw(1.0));
        assert_eq!(t.power_at(Duration::from_micros(9_999)), mw(1.0));
        assert_eq!(t.power_at(Duration::from_millis(10)), mw(9.0));
    }

    #[test]
    fn scaled_never_negative() {
        let t = PowerTrace::from_samples(Duration::from_millis(1), vec![mw(2.0)]);
        let s = t.scaled(-1.0);
        assert_eq!(s.samples()[0], Power::ZERO);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = TraceGenerator::new(Scenario::ForestIndependent, 7);
        let b = TraceGenerator::new(Scenario::ForestIndependent, 7);
        let ta = a.node_traces(3, Duration::from_mins(5), Duration::from_secs(1));
        let tb = b.node_traces(3, Duration::from_mins(5), Duration::from_secs(1));
        assert_eq!(ta, tb);
    }

    #[test]
    fn independent_nodes_are_decorrelated() {
        let gen = TraceGenerator::new(Scenario::ForestIndependent, 1);
        let traces = gen.node_traces(2, Duration::from_mins(30), Duration::from_secs(1));
        let (a, b) = (&traces[0], &traces[1]);
        let corr = correlation(a.samples(), b.samples());
        assert!(corr.abs() < 0.4, "independent correlation too high: {corr}");
    }

    #[test]
    fn dependent_nodes_are_correlated() {
        let gen = TraceGenerator::new(Scenario::BridgeDependent, 1);
        let traces = gen.node_traces(2, Duration::from_mins(30), Duration::from_secs(1));
        let corr = correlation(traces[0].samples(), traces[1].samples());
        assert!(corr > 0.8, "dependent correlation too low: {corr}");
    }

    #[test]
    fn rainy_scenario_is_low_power() {
        let gen = TraceGenerator::new(Scenario::MountainRainy, 3);
        let traces = gen.node_traces(4, Duration::from_mins(10), Duration::from_secs(1));
        for t in &traces {
            assert!(t.mean_power() < Power::from_milliwatts(3.0));
        }
        let sunny = TraceGenerator::new(Scenario::MountainSunny, 3);
        let st = sunny.node_trace(0, Duration::from_mins(10), Duration::from_secs(1));
        assert!(st.mean_power() > traces[0].mean_power() * 4.0);
    }

    #[test]
    fn trace_mean_matches_scenario_scale() {
        for sc in [
            Scenario::ForestIndependent,
            Scenario::BridgeDependent,
            Scenario::MountainSunny,
            Scenario::MountainRainy,
        ] {
            let gen = TraceGenerator::new(sc, 11);
            let t = gen.node_trace(0, Duration::from_mins(20), Duration::from_secs(1));
            let mean = t.mean_power().as_milliwatts();
            let nominal = sc.mean_power().as_milliwatts();
            assert!(
                mean > 0.3 * nominal && mean < 2.0 * nominal,
                "{sc:?}: mean {mean} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn the_trace_clock_stops_at_u64_max_micros() {
        let max = Duration::from_micros(u64::MAX);
        let half = Duration::from_micros(u64::MAX / 2);
        // Three samples of u64::MAX / 2 µs: the last keeps 1 µs.
        let t = PowerTrace::constant(mw(2.0), max, half);
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration(), max);
        let kept =
            Energy::ZERO + mw(2.0) * half + mw(2.0) * half + mw(2.0) * Duration::from_micros(1);
        assert_eq!(t.energy_between(Duration::ZERO, max), kept);
        // The cut sample is evaluated at the midpoint of what it keeps.
        let mut at = Vec::new();
        let t = PowerTrace::from_fn(max, half, |mid| {
            at.push(mid.as_micros());
            mw(1.0)
        });
        assert_eq!(t.len(), 3);
        assert_eq!(
            at,
            [u64::MAX / 4, u64::MAX / 2 + u64::MAX / 4, u64::MAX - 1]
        );
    }

    #[test]
    fn the_fold_clock_stops_at_u64_max_micros() {
        // A last sample past the clock (three of u64::MAX / 2 µs over
        // three slots of u64::MAX / 3), and slots past it (three of
        // u64::MAX / 2 µs): every income is the trace's integral over
        // its slot, cut at u64::MAX µs, bit for bit.
        let max = Duration::from_micros(u64::MAX);
        for (dt, slot) in [(u64::MAX / 2, u64::MAX / 3), (u64::MAX / 2, u64::MAX / 2)] {
            let (dt, slot) = (Duration::from_micros(dt), Duration::from_micros(slot));
            for scenario in [Scenario::ForestIndependent, Scenario::BridgeDependent] {
                let plan = TraceGenerator::new(scenario, 1).chain_plan(2, max, dt);
                let mut incomes = [[Energy::ZERO; 3]; 2];
                let [a, b] = &mut incomes;
                plan.slot_incomes_lanes([0, 1], 1.0, slot, [a, b]);
                let mut lone = [Energy::ZERO; 3];
                plan.slot_incomes(1, 1.0, slot, &mut lone);
                assert_eq!(lone, incomes[1], "{scenario:?}: a lone fold differs");
                for (node, incomes) in incomes.iter().enumerate() {
                    let curve = EnergyCurve::new(plan.node_trace(node));
                    for (s, income) in (0u64..).zip(incomes) {
                        let t0 = Duration::from_micros(slot.as_micros().saturating_mul(s));
                        let t1 = Duration::from_micros(slot.as_micros().saturating_mul(s + 1));
                        let want = curve.energy_between(t0, t1);
                        assert_eq!(
                            income.as_nanojoules().to_bits(),
                            want.as_nanojoules().to_bits(),
                            "{scenario:?}, slot {s}: {income:?} against {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extend_concatenates() {
        let mut a =
            PowerTrace::constant(mw(1.0), Duration::from_millis(2), Duration::from_millis(1));
        let b = PowerTrace::constant(mw(2.0), Duration::from_millis(1), Duration::from_millis(1));
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.power_at(Duration::from_millis(2)), mw(2.0));
    }

    fn correlation(a: &[Power], b: &[Power]) -> f64 {
        let n = a.len().min(b.len());
        let av: Vec<f64> = a[..n].iter().map(|p| p.as_milliwatts()).collect();
        let bv: Vec<f64> = b[..n].iter().map(|p| p.as_milliwatts()).collect();
        let ma = av.iter().sum::<f64>() / n as f64;
        let mb = bv.iter().sum::<f64>() / n as f64;
        let cov: f64 = av.iter().zip(&bv).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = av.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = bv.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(f64::EPSILON)
    }
}
