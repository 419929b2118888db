//! # perfbench — the repository benchmark
//!
//! Three workloads, each run in its own single-threaded process on the
//! serial simulator (determinism mode, no fast-mode pool), reached only
//! through the repository's public calls:
//!
//! * `uring_bcast` — U-Ring atomic broadcast alone: a 5-process ring with
//!   3 acceptors, every process proposing 32 KiB messages (750 Mb/s in
//!   all), then a drain with the proposers stopped.
//! * `smr_ladder` — open-loop Zipf(0.99) sessions from 8 session tables
//!   over M-Ring and a B⁺-tree with 4 partitions × 2 replicas, one fresh
//!   deployment per offered rate ([`RUNGS`]).
//! * `smr_failover` — the ladder deployment at [`FAILOVER_RATE`]; the
//!   M-Ring coordinator crashes mid-run and a survivor takes over.
//!
//! Every arrival follows a virtual-time schedule (open loop), so the
//! generator never runs late, and every request is timed from its
//! scheduled arrival. Each phase offers load for a fixed virtual window
//! and then drains for a fixed virtual time, so counts are exact and
//! repeat for a seed. The network is `SimConfig::default()`: 1 Gb/s links
//! with 50 µs one-way delay.
//!
//! The wall-clock numbers (set-up, run, peak RSS) are the only ones that
//! vary between runs with one seed; everything else is virtual time.

use std::collections::HashMap;
use std::time::Instant;

use abcast::{metric, shared_log, DeliveryLog, MsgId, Pacer, SharedLog};
use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringpaxos::uring::URingProcess;
use ringpaxos::URingConfig;
use simnet::prelude::*;
use simnet::probe::{LifecycleReport, StageStats};
use workload::{
    SESSIONS_ABANDONED, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED, SESSIONS_SUBMITTED,
    SESSION_LATENCY,
};

/// A request (or broadcast message) counts toward goodput only if it
/// completes within this long of its scheduled arrival.
pub const LATENCY_LIMIT: Dur = Dur::millis(10);
/// A ladder rung meets the service level when its p99 is within
/// [`LATENCY_LIMIT`] and at least this share of its arrivals completed
/// before the arrivals stopped.
pub const MIN_COMPLETED_IN_WINDOW: f64 = 0.99;
/// Offered rates of the ladder, requests per second.
pub const RUNGS: [u32; 5] = [24_000, 32_000, 36_000, 40_000, 48_000];
/// The ladder rung whose latency and goodput are the headline numbers.
pub const REFERENCE_RUNG: u32 = 32_000;
/// The ladder rung past the knee, in the retry-storm regime.
pub const OVERLOAD_RUNG: u32 = 48_000;
/// Offered rate of the failover workload, requests per second.
pub const FAILOVER_RATE: u32 = 24_000;

/// U-Ring: processes on the ring, of which the first are acceptors.
const URING_LEN: usize = 5;
const URING_ACCEPTORS: usize = 3;
/// U-Ring: mean offered load per proposer and message size.
const URING_RATE_BPS: u64 = 150_000_000;
const URING_MSG_BYTES: u32 = 32 * 1024;
/// U-Ring: each proposer's share of the load is drawn from the seed
/// within this fraction of the mean (the total stays fixed).
const URING_RATE_SPREAD: f64 = 0.1;

/// Sessions: tables, sessions hosted in all, key skew, partitions.
const N_TABLES: usize = 8;
const SESSIONS: u64 = 1_000_000;
const ZIPF_S: f64 = 0.99;
const PARTITIONS: u32 = 4;
const REPLICAS_PER_PARTITION: usize = 2;

/// Failover: completions are sampled this finely from just before the
/// crash until [`OUTAGE_WATCH`] after it, which bounds the resolution of
/// the measured outage.
const OUTAGE_SLICE: Dur = Dur::micros(20);
const OUTAGE_WATCH: Dur = Dur::millis(1_500);

/// A traced run offers load for at most this long.
const TRACE_ARRIVALS: Dur = Dur::secs(4);

/// Probe ring capacity of the traced run, in events: large enough that
/// nothing is overwritten (buffers grow on demand up to it).
const PROBE_CAPACITY: usize = 1 << 24;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// U-Ring atomic broadcast alone.
    URingBcast,
    /// Session SMR over M-Ring at each rate of [`RUNGS`].
    SmrLadder,
    /// Session SMR through a coordinator crash.
    SmrFailover,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] =
        [Workload::URingBcast, Workload::SmrLadder, Workload::SmrFailover];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::URingBcast => "uring_bcast",
            Workload::SmrLadder => "smr_ladder",
            Workload::SmrFailover => "smr_failover",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a phase deploys.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Deployment {
    URing,
    Sessions { rate: u32 },
}

/// One deployment, run from set-up to the end of its drain.
#[derive(Clone, Copy, Debug)]
struct PhasePlan {
    deployment: Deployment,
    /// Load is offered over `[0, arrivals)`.
    arrivals: Dur,
    /// Then the run continues this long with no new arrivals.
    drain: Dur,
    /// The M-Ring coordinator crashes at this instant.
    crash_at: Option<Dur>,
}

/// The phases of `w`, with every virtual window multiplied by `scale`
/// (`1.0` is the benchmark; the self-test runs scaled down).
fn phases(w: Workload, scale: f64) -> Vec<PhasePlan> {
    let ms = |v: f64| Dur::micros((v * scale * 1_000.0) as u64);
    match w {
        Workload::URingBcast => vec![PhasePlan {
            deployment: Deployment::URing,
            arrivals: ms(40_000.0),
            drain: Dur::millis(500),
            crash_at: None,
        }],
        // The reference rung runs longer than the others: its p999 is a
        // headline number and needs the samples to repeat across seeds.
        Workload::SmrLadder => RUNGS
            .iter()
            .map(|&rate| PhasePlan {
                deployment: Deployment::Sessions { rate },
                arrivals: ms(if rate == REFERENCE_RUNG { 20_000.0 } else { 3_000.0 }),
                drain: Dur::millis(6_000),
                crash_at: None,
            })
            .collect(),
        Workload::SmrFailover => vec![PhasePlan {
            deployment: Deployment::Sessions { rate: FAILOVER_RATE },
            arrivals: ms(10_000.0),
            drain: Dur::millis(4_000),
            crash_at: Some(ms(3_000.0)),
        }],
    }
}

/// Index of the phase whose latency, goodput and operating-point ratios
/// are reported (and which the traced run records).
fn reference_phase(w: Workload) -> usize {
    match w {
        Workload::SmrLadder => RUNGS.iter().position(|&r| r == REFERENCE_RUNG).expect("rung"),
        _ => 0,
    }
}

/// Virtual-time outcome of one phase: identical for every run with one
/// seed, so two of them compare with `==`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Offered rate, requests/s (0 for U-Ring).
    pub rate: u32,
    /// Virtual length of the arrival window, seconds.
    pub window_s: f64,
    /// Requests (messages) that arrived: submitted plus shed.
    pub attempted: u64,
    /// Requests submitted (messages proposed).
    pub submitted: u64,
    /// Requests completed (messages delivered at learner 0) by the end
    /// of the drain.
    pub completed: u64,
    /// Of those, completed before the arrivals stopped.
    pub completed_in_window: u64,
    /// Completed within [`LATENCY_LIMIT`] of their scheduled arrival.
    pub within_limit: u64,
    /// Latency samples and their percentiles, µs from scheduled arrival.
    pub latency_samples: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    /// Resubmissions after a blown deadline.
    pub retries: u64,
    /// Arrivals shed by a full in-flight table (U-Ring: paced sends
    /// skipped under back-pressure).
    pub shed: u64,
    /// Requests given up after the last retry.
    pub abandoned: u64,
    /// Requests still outstanding after the drain.
    pub backlog_end: u64,
    /// Simulator events processed and batched delivery dispatch.
    pub events: u64,
    pub dispatches: u64,
    pub dispatched_msgs: u64,
    /// Packets and bytes sent by every node.
    pub pkts: u64,
    pub bytes: u64,
    /// Packets dropped by the network: random loss, switch and socket
    /// overflow, cut links.
    pub drops: u64,
    /// Bytes addressed to a crashed node (`net.down_drop`, which counts
    /// bytes where the other drop counters count packets).
    pub down_drop_bytes: u64,
    /// Virtual CPU busy over the arrival window, in cores (1.0 = one
    /// core busy throughout): the busiest ring member (the coordinator)
    /// and the mean of the other ring members.
    pub coord_busy: f64,
    pub acceptor_busy: f64,
    /// Busy of each replica over the arrival window, in cores.
    pub replica_busy: Vec<f64>,
    /// Consensus instances decided and commands they ordered.
    pub instances: u64,
    pub ordered: u64,
    /// `rp.retrans` + `rp.re2a` + `rp.resubmit`.
    pub retrans: u64,
    /// Coordinator takeovers (`rp.became_coord`) and ring repairs.
    pub takeovers: u64,
    pub repairs: u64,
    /// Longest virtual gap between consecutive completions from the
    /// crash on, ms (0 without a crash).
    pub outage_ms: f64,
    /// Correctness violations found by the checks.
    pub violations: Vec<String>,
}

impl Counts {
    /// Requests lost: shed, abandoned, outstanding after the drain, or
    /// counted once per checker violation.
    pub fn failed(&self) -> u64 {
        self.shed + self.abandoned + self.backlog_end + self.violations.len() as u64
    }

    /// Completed within the latency limit per virtual second of arrivals.
    pub fn goodput(&self) -> f64 {
        self.within_limit as f64 / self.window_s
    }

    /// Whether a ladder rung meets the service level.
    fn meets_slo(&self) -> bool {
        self.latency_samples > 0
            && self.p99_us <= LATENCY_LIMIT.as_nanos() as f64 / 1e3
            && self.completed_in_window as f64 >= MIN_COMPLETED_IN_WINDOW * self.attempted as f64
    }
}

/// Wall-clock cost of one phase, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wall {
    /// `Sim::new` plus the deployment call.
    pub setup_s: f64,
    /// `Sim::run_until` calls.
    pub run_s: f64,
    /// `FaultPlan::step` calls.
    pub fault_s: f64,
    /// The correctness checks.
    pub verify_s: f64,
}

impl std::ops::AddAssign for Wall {
    fn add_assign(&mut self, o: Wall) {
        self.setup_s += o.setup_s;
        self.run_s += o.run_s;
        self.fault_s += o.fault_s;
        self.verify_s += o.verify_s;
    }
}

/// A wall-clock span of one of the benchmark's own calls, seconds from
/// the process's [`SpanLog`] origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// The benchmark's own wall spans, kept in memory and written out with
/// the trace when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Runs `f`, records its span under `name`, and adds its duration to
    /// `total`.
    fn time<R>(&mut self, name: &str, total: &mut f64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        *total += (end - start).as_secs_f64();
        self.record(name, start, end);
        r
    }

    fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_s: (start - self.origin).as_secs_f64(),
            end_s: (end - self.origin).as_secs_f64(),
        });
    }
}

/// The protocol probe stream of a traced phase.
pub struct Trace {
    pub events: Vec<ProbeEvent>,
    pub dropped: u64,
    pub report: LifecycleReport,
}

/// One phase's outcome.
pub struct Phase {
    pub counts: Counts,
    pub wall: Wall,
    pub trace: Option<Trace>,
}

/// One run of a whole workload (every phase, untraced).
pub struct Rep {
    pub phases: Vec<Phase>,
}

impl Rep {
    /// Wall costs summed over the phases.
    pub fn wall(&self) -> Wall {
        let mut w = Wall::default();
        for p in &self.phases {
            w += p.wall;
        }
        w
    }

    /// The virtual-time outcome of every phase.
    pub fn counts(&self) -> Vec<&Counts> {
        self.phases.iter().map(|p| &p.counts).collect()
    }
}

/// Runs every phase of `w` untraced.
pub fn run_workload(w: Workload, seed: u64, scale: f64, spans: &mut SpanLog) -> Rep {
    Rep { phases: phases(w, scale).iter().map(|p| run_phase(p, seed, false, spans)).collect() }
}

/// The reference phase of a traced run, untraced and traced. Its
/// arrivals are capped at [`TRACE_ARRIVALS`] so the probe stream fits
/// in memory; the untraced copy gives the tracing overhead and must
/// match the traced one in virtual time.
pub struct TracedPair {
    pub untraced: Phase,
    pub traced: Phase,
}

/// Runs the (capped) reference phase of `w` without and with PROTOCOL
/// probes.
pub fn run_traced(w: Workload, seed: u64, scale: f64, spans: &mut SpanLog) -> TracedPair {
    let mut plan = phases(w, scale)[reference_phase(w)];
    plan.arrivals =
        plan.arrivals.min(Dur::micros((TRACE_ARRIVALS.as_secs_f64() * scale * 1e6) as u64));
    TracedPair {
        untraced: run_phase(&plan, seed, false, spans),
        traced: run_phase(&plan, seed, true, spans),
    }
}

/// Wall seconds to set up every phase of `w` (`Sim::new` plus the
/// deployment call) without running it; the deployments are dropped
/// after the clock stops.
pub fn set_up_only(w: Workload, seed: u64, scale: f64) -> f64 {
    let plans = phases(w, scale);
    let mut keep = Vec::with_capacity(plans.len());
    let start = Instant::now();
    for p in &plans {
        let stop = Time::ZERO + p.arrivals;
        let mut sim = new_sim(seed, false);
        match p.deployment {
            Deployment::URing => drop(deploy_uring_split(&mut sim, &uring_rates(seed), stop)),
            Deployment::Sessions { rate } => {
                drop(deploy_smr_sessions(&mut sim, &session_options(rate, stop)))
            }
        }
        keep.push(sim);
    }
    let took = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(keep));
    took
}

fn run_phase(plan: &PhasePlan, seed: u64, traced: bool, spans: &mut SpanLog) -> Phase {
    match plan.deployment {
        Deployment::URing => uring_phase(plan, seed, traced, spans),
        Deployment::Sessions { rate } => sessions_phase(plan, rate, seed, traced, spans),
    }
}

fn new_sim(seed: u64, traced: bool) -> Sim {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    if traced {
        sim.set_probes(ProbeConfig {
            categories: simnet::probe::category::PROTOCOL,
            capacity: PROBE_CAPACITY,
        });
    }
    sim
}

/// Placeholder actor while the ring's node ids are allocated.
struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Each proposer's rate: [`URING_RATE_BPS`] on average, perturbed by up
/// to [`URING_RATE_SPREAD`] from the seed, with the total held fixed.
fn uring_rates(seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w: Vec<f64> =
        (0..URING_LEN).map(|_| 1.0 + URING_RATE_SPREAD * (2.0 * rng.gen::<f64>() - 1.0)).collect();
    let sum: f64 = w.iter().sum();
    let total = (URING_RATE_BPS * URING_LEN as u64) as f64;
    w.iter().map(|x| (total * x / sum) as u64).collect()
}

/// Deploys U-Ring as `ringpaxos::deploy_uring` does, except that each
/// proposer gets its own rate (`deploy_uring` gives all one rate, and the
/// per-proposer split is the input the seed draws).
fn deploy_uring_split(sim: &mut Sim, rates: &[u64], stop: Time) -> (Vec<NodeId>, SharedLog) {
    let ring: Vec<NodeId> = (0..URING_LEN).map(|_| sim.add_node(Box::new(Idle))).collect();
    let cfg = URingConfig::new(ring.clone(), URING_ACCEPTORS);
    let log = shared_log(cfg.learner_positions.len());
    for (pos, &rate) in rates.iter().enumerate() {
        let mut pacer = Pacer::new(rate, URING_MSG_BYTES, 1);
        pacer.stop_at(stop);
        let actor = URingProcess::new(cfg.clone(), pos, Some(pacer), Some(log.clone()));
        sim.replace_actor(ring[pos], Box::new(actor));
    }
    (ring, log)
}

fn uring_phase(plan: &PhasePlan, seed: u64, traced: bool, spans: &mut SpanLog) -> Phase {
    let mut wall = Wall::default();
    let stop = Time::ZERO + plan.arrivals;
    let (mut sim, ring, log) = spans.time("setup uring", &mut wall.setup_s, || {
        let mut sim = new_sim(seed, traced);
        let (ring, log) = deploy_uring_split(&mut sim, &uring_rates(seed), stop);
        (sim, ring, log)
    });
    spans.time("run arrivals", &mut wall.run_s, || sim.run_until(stop));
    let window = plan.arrivals.as_secs_f64();
    let busy = |n: NodeId| sim.cpu_busy_total(n).as_secs_f64() / window;
    let coord_busy = busy(ring[0]);
    let acceptor_busy =
        (1..URING_ACCEPTORS).map(|p| busy(ring[p])).sum::<f64>() / (URING_ACCEPTORS - 1) as f64;
    let completed_in_window = log.lock().expect("delivery log").sequence(0).len() as u64;
    spans.time("run drain", &mut wall.run_s, || sim.run_until(stop + plan.drain));

    let m = sim.metrics();
    let submitted = m.sum(metric::PROPOSED);
    let shed = m.sum("rp.shed");
    let mut c = Counts {
        rate: 0,
        window_s: window,
        attempted: submitted + shed,
        submitted,
        completed_in_window,
        shed,
        coord_busy,
        acceptor_busy,
        ..Counts::default()
    };
    common_counts(&sim, metric::LATENCY, &mut c);
    let verify = spans.time("verify", &mut wall.verify_s, || {
        let log = log.lock().expect("delivery log");
        let mut violations = Vec::new();
        if let Err(e) = log.check_total_order() {
            violations.push(format!("total order: {e:?}"));
        }
        for l in 0..log.learners() {
            let n = log.sequence(l).len() as u64;
            if n != submitted {
                violations.push(format!("learner {l} delivered {n} of {submitted} messages"));
            }
        }
        (log.sequence(0).len() as u64, violations)
    });
    (c.completed, c.violations) = verify;
    c.ordered = c.completed;
    c.backlog_end = submitted.saturating_sub(c.completed);
    finish(sim, c, wall, traced)
}

fn session_options(rate: u32, stop: Time) -> SessionOptions {
    SessionOptions {
        n_tables: N_TABLES,
        sessions_per_table: SESSIONS / N_TABLES as u64,
        rate_per_table: rate as f64 / N_TABLES as f64,
        zipf_s: ZIPF_S,
        partitions: Some(PartitionOptions {
            n: PARTITIONS,
            replicas_per: REPLICAS_PER_PARTITION,
            cross_pct: 0,
        }),
        stop_at: Some(stop),
        ..SessionOptions::default()
    }
}

fn table_sum(sim: &Sim, d: &SessionDeployment, name: &'static str) -> u64 {
    d.tables.iter().map(|&t| sim.metrics().counter(t, name)).sum()
}

/// Tracks the longest gap between changes of a completion counter
/// sampled at increasing virtual instants.
struct GapTracker {
    last_count: u64,
    last_change: Time,
    longest: Dur,
}

impl GapTracker {
    fn observe(&mut self, now: Time, count: u64) {
        if count != self.last_count {
            self.longest = self.longest.max(now.since(self.last_change));
            self.last_count = count;
            self.last_change = now;
        }
    }

    /// The longest gap, counting one still open at `now`.
    fn longest(&self, now: Time) -> Dur {
        self.longest.max(now.since(self.last_change))
    }
}

fn sessions_phase(
    plan: &PhasePlan,
    rate: u32,
    seed: u64,
    traced: bool,
    spans: &mut SpanLog,
) -> Phase {
    let mut wall = Wall::default();
    let stop = Time::ZERO + plan.arrivals;
    let (mut sim, d) = spans.time("setup sessions", &mut wall.setup_s, || {
        let mut sim = new_sim(seed, traced);
        let d = deploy_smr_sessions(&mut sim, &session_options(rate, stop));
        (sim, d)
    });

    let mut outage = Dur::ZERO;
    if let Some(crash_at) = plan.crash_at {
        let crash = Time::ZERO + crash_at;
        let watch_from = Time::ZERO + crash_at.saturating_sub(Dur::millis(1));
        let watch_to = Time::ZERO + (crash_at + OUTAGE_WATCH).min(plan.arrivals);
        spans.time("run to crash", &mut wall.run_s, || sim.run_until(watch_from));
        let completed = |sim: &Sim| table_sum(sim, &d, SESSIONS_COMPLETED);
        let mut gaps =
            GapTracker { last_count: completed(&sim), last_change: watch_from, longest: Dur::ZERO };
        let mut faults = FaultPlan::new().at(crash, FaultAction::Crash(d.coordinator()));
        let mut fault_s = 0.0;
        let start = Instant::now();
        let mut now = watch_from;
        while now < watch_to {
            let next = if now + OUTAGE_SLICE < watch_to { now + OUTAGE_SLICE } else { watch_to };
            if now < crash && next >= crash {
                spans.time("fault step", &mut fault_s, || {
                    faults.step(&mut sim, crash, &mut |_, _| {})
                });
            }
            sim.run_until(next);
            gaps.observe(next, completed(&sim));
            now = next;
        }
        let end = Instant::now();
        spans.record("run outage watch", start, end);
        wall.fault_s += fault_s;
        wall.run_s += (end - start).as_secs_f64() - fault_s;
        outage = gaps.longest(watch_to);
    }
    spans.time("run arrivals", &mut wall.run_s, || sim.run_until(stop));
    let window = plan.arrivals.as_secs_f64();
    let busy = |n: NodeId| sim.cpu_busy_total(n).as_secs_f64() / window;
    let ring_busy: Vec<f64> = d.ring.iter().map(|&n| busy(n)).collect();
    let coord_busy = ring_busy.iter().copied().fold(0.0, f64::max);
    let acceptor_busy = (ring_busy.iter().sum::<f64>() - coord_busy) / (ring_busy.len() - 1) as f64;
    let replica_busy: Vec<f64> = d.replicas.iter().flatten().map(|&n| busy(n)).collect();
    let completed_in_window = table_sum(&sim, &d, SESSIONS_COMPLETED);
    spans.time("run drain", &mut wall.run_s, || sim.run_until(stop + plan.drain));

    let submitted = table_sum(&sim, &d, SESSIONS_SUBMITTED);
    let shed = table_sum(&sim, &d, SESSIONS_SHED);
    let completed = table_sum(&sim, &d, SESSIONS_COMPLETED);
    let abandoned = table_sum(&sim, &d, SESSIONS_ABANDONED);
    let mut c = Counts {
        rate,
        window_s: window,
        attempted: submitted + shed,
        submitted,
        completed,
        completed_in_window,
        retries: table_sum(&sim, &d, SESSIONS_RETRIES),
        shed,
        abandoned,
        backlog_end: submitted.saturating_sub(completed + abandoned),
        coord_busy,
        acceptor_busy,
        replica_busy,
        outage_ms: outage.as_nanos() as f64 / 1e6,
        ..Counts::default()
    };
    common_counts(&sim, SESSION_LATENCY, &mut c);
    let (ordered, violations) = spans.time("verify", &mut wall.verify_s, || {
        let mut violations = Vec::new();
        for &t in &d.tables {
            let (s, k) = (
                sim.metrics().counter(t, SESSIONS_SUBMITTED),
                sim.metrics().counter(t, SESSIONS_COMPLETED),
            );
            if k > s {
                violations.push(format!("table {t:?} completed {k} of {s} submitted"));
            }
        }
        let log = d.log.lock().expect("delivery log");
        if let Some(v) = partial_order_violation(&log) {
            violations.push(v);
        }
        if let Err(e) = log.check_epoch_monotonic() {
            violations.push(format!("epochs: {e:?}"));
        }
        // Commands ordered: each partition's first replica delivers its
        // partition's share (no command spans two partitions here).
        let mut first = 0;
        let mut ordered = 0u64;
        for part in &d.replicas {
            ordered += log.sequence(first).len() as u64;
            first += part.len();
        }
        (ordered, violations)
    });
    c.ordered = ordered;
    c.violations = violations;
    finish(sim, c, wall, traced)
}

/// Counts every deployment reads the same way.
fn common_counts(sim: &Sim, latency: &'static str, c: &mut Counts) {
    let m = sim.metrics();
    let stats = m.latency(latency);
    c.latency_samples = stats.count as u64;
    let max_us = stats.max.as_nanos() as f64 / 1e3;
    let q = |frac| quantile_us(m, latency, c.latency_samples, frac).min(max_us);
    (c.p50_us, c.p99_us, c.p999_us) = (q(0.50), q(0.99), q(0.999));
    c.within_limit = count_within(m, latency, c.latency_samples, LATENCY_LIMIT);
    c.events = sim.events_processed();
    (c.dispatches, c.dispatched_msgs) = sim.delivery_dispatch_stats();
    c.pkts = m.sum("net.sent_pkts");
    c.bytes = m.sum("net.sent_bytes");
    c.drops = ["net.rand_drop", "net.switch_drop", "net.socket_drop", "net.part_drop"]
        .iter()
        .map(|n| m.sum(n))
        .sum();
    c.down_drop_bytes = m.sum("net.down_drop");
    c.instances = m.sum(metric::INSTANCES);
    c.retrans = m.sum("rp.retrans") + m.sum("rp.re2a") + m.sum("rp.resubmit");
    c.takeovers = m.sum("rp.became_coord");
    c.repairs = m.sum("rp.ring_repair");
}

/// The `rank`-th smallest (1-based) of the `n` samples under `name`, at
/// the histogram's resolution.
fn nth(m: &Metrics, name: &'static str, n: u64, rank: u64) -> u64 {
    // `percentile` takes the ceil(frac * n)-th sample; aim between
    // rank - 1 and rank so float rounding cannot pick rank + 1.
    m.percentile(name, (rank as f64 - 0.5) / n as f64).map_or(0, |d| d.as_nanos())
}

/// The `frac` quantile of the `n` samples under `name`, µs.
///
/// `Metrics::percentile` answers with the midpoint of a histogram
/// bucket, and the registry splits each power of two into 64 buckets
/// (`simnet::stats`). A long run then reads the same midpoint for every
/// seed. Here the samples of the quantile's bucket are spread evenly
/// across the bucket's width by rank, so the value moves continuously
/// with the data and stays inside the bucket.
fn quantile_us(m: &Metrics, name: &'static str, n: u64, frac: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let rank = ((n as f64 * frac).ceil() as u64).clamp(1, n);
    let mid = nth(m, name, n, rank);
    // Ranks [first, last] share the bucket (`nth` is monotone in rank).
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let r = (lo + hi) / 2;
        if nth(m, name, n, r) == mid {
            hi = r
        } else {
            lo = r + 1
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let r = (lo + hi).div_ceil(2);
        if nth(m, name, n, r) == mid {
            lo = r
        } else {
            hi = r - 1
        }
    }
    let last = lo;
    let width = if mid < 64 { 1.0 } else { (1u64 << (63 - mid.leading_zeros())) as f64 / 64.0 };
    let pos = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    (mid as f64 + (pos - 0.5) * width) / 1e3
}

/// How many of the `n` samples under `name` are at most `limit` (at
/// the histogram's bucket resolution): the largest `k` whose
/// `k`-th smallest sample is within the limit.
fn count_within(m: &Metrics, name: &'static str, n: u64, limit: Dur) -> u64 {
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let k = (lo + hi).div_ceil(2);
        if nth(m, name, n, k) <= limit.as_nanos() {
            lo = k;
        } else {
            hi = k - 1;
        }
    }
    lo
}

/// `DeliveryLog::check_partial_order` in linear time per learner pair.
/// The library check compares every pair of common messages, which is
/// quadratic and meant for tests; here the common messages, taken in
/// one learner's order, must sit at increasing positions at the other,
/// which is the same condition when no learner delivers a message twice
/// (checked first).
pub fn partial_order_violation(log: &DeliveryLog) -> Option<String> {
    let n = log.learners();
    let pos: Vec<HashMap<MsgId, usize>> = (0..n)
        .map(|l| log.sequence(l).iter().enumerate().map(|(i, &m)| (m, i)).collect())
        .collect();
    for (l, p) in pos.iter().enumerate() {
        if p.len() != log.sequence(l).len() {
            return Some(format!("learner {l} delivered a message twice"));
        }
    }
    for a in 0..n {
        for (b, at_b) in pos.iter().enumerate().skip(a + 1) {
            let mut last: Option<(MsgId, usize)> = None;
            for &m in log.sequence(a) {
                let Some(&p) = at_b.get(&m) else { continue };
                if let Some((prev, q)) = last {
                    if p < q {
                        return Some(format!(
                            "partial order: learners {a} and {b} disagree on {prev:?} and {m:?}"
                        ));
                    }
                }
                last = Some((m, p));
            }
        }
    }
    None
}

fn finish(sim: Sim, counts: Counts, wall: Wall, traced: bool) -> Phase {
    let trace = traced.then(|| {
        let events = sim.probe_events();
        let report = simnet::probe::decompose(&simnet::probe::lifecycle_spans(&events));
        Trace { dropped: sim.probe_dropped(), events, report }
    });
    Phase { counts, wall, trace }
}

/// A reported number and its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 without procfs.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of `w`. Set-up and run time are the medians
/// of the set-up samples and of the repetitions' run times; the rest
/// come from the (identical) virtual-time outcome.
pub fn end_to_end(w: Workload, reps: &[Rep], setups: &[f64]) -> Vec<Metric> {
    let runs: Vec<f64> = reps.iter().map(|r| r.wall().run_s).collect();
    let r = &reps[0].phases[reference_phase(w)].counts;
    vec![
        m("setup_s", median(setups), "s"),
        m("run_s", median(&runs), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("goodput_ops_s", r.goodput(), "1/s"),
        m("latency_p50_us", r.p50_us, "us"),
        m("latency_p99_us", r.p99_us, "us"),
        m("latency_p999_us", r.p999_us, "us"),
    ]
}

/// The end-to-end numbers that exist on one workload only, plus the
/// failure share and sample count (0 where a number does not apply).
pub fn workload_specific(w: Workload, rep: &Rep) -> Vec<Metric> {
    let c = rep.counts();
    let r = c[reference_phase(w)];
    let knee = match w {
        Workload::SmrLadder => {
            c.iter().filter(|p| p.meets_slo()).map(|p| p.rate).max().unwrap_or(0) as f64
        }
        _ => 0.0,
    };
    let overload = match w {
        Workload::SmrLadder => {
            c.iter().find(|p| p.rate == OVERLOAD_RUNG).map_or(0.0, |p| p.goodput())
        }
        _ => 0.0,
    };
    let failed: u64 = c.iter().map(|p| p.failed()).sum();
    let attempted: u64 = c.iter().map(|p| p.attempted).sum();
    vec![
        m("e2e.knee_rps", knee, "1/s"),
        m("e2e.overload_goodput_ops_s", overload, "1/s"),
        m("e2e.outage_ms", r.outage_ms, "ms"),
        m("e2e.failed_frac", failed as f64 / attempted.max(1) as f64, "frac"),
        m("e2e.latency_samples", r.latency_samples as f64, "count"),
    ]
}

fn us(d: Dur) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// The per-layer metrics of `w` from untraced repetitions and traced
/// runs of its reference phase.
pub fn per_layer(w: Workload, reps: &[Rep], traced: &[TracedPair]) -> Vec<Metric> {
    let c = reps[0].counts();
    let r = c[reference_phase(w)];
    let sum = |f: fn(&Counts) -> u64| c.iter().map(|p| f(p)).sum::<u64>();
    let walls: Vec<Wall> = reps.iter().map(Rep::wall).collect();
    let wall_med = |f: fn(&Wall) -> f64| median(&walls.iter().map(f).collect::<Vec<_>>());
    let events = sum(|p| p.events);
    let ops = r.completed.max(1) as f64;
    let replica_max = r.replica_busy.iter().copied().fold(0.0, f64::max);
    let replica_mean = if r.replica_busy.is_empty() {
        0.0
    } else {
        r.replica_busy.iter().sum::<f64>() / r.replica_busy.len() as f64
    };
    let submitted = sum(|p| p.submitted);
    let retries = sum(|p| p.retries);
    let traced_run = median(&traced.iter().map(|t| t.traced.wall.run_s).collect::<Vec<_>>());
    let untraced_run = median(&traced.iter().map(|t| t.untraced.wall.run_s).collect::<Vec<_>>());
    let report = traced[0].traced.trace.as_ref().map(|t| t.report).unwrap_or_default();
    let stage = |s: &StageStats| (us(s.p50), us(s.p95));
    let (p2a50, p2a95) = stage(&report.propose_to_2a);
    let (a2b50, a2b95) = stage(&report.a2_to_2b);
    let (bdec50, bdec95) = stage(&report.b2_to_decide);
    let (ddel50, ddel95) = stage(&report.decide_to_deliver);
    let (tot50, tot95) = stage(&report.total);
    let mut out = vec![
        m("simnet.events", events as f64, "count"),
        m("simnet.ns_per_event", wall_med(|w| w.run_s) * 1e9 / events.max(1) as f64, "ns"),
        m(
            "simnet.delivery_batch",
            sum(|p| p.dispatched_msgs) as f64 / sum(|p| p.dispatches).max(1) as f64,
            "msgs",
        ),
        m("simnet.pkts_per_op", r.pkts as f64 / ops, "pkts"),
        m("simnet.bytes_per_op", r.bytes as f64 / ops, "B"),
        m("simnet.drops", sum(|p| p.drops) as f64, "pkts"),
        m("simnet.down_drop_bytes", sum(|p| p.down_drop_bytes) as f64, "B"),
        m("simnet.trace_overhead", traced_run / untraced_run, "ratio"),
        m(
            "simnet.probe_dropped",
            traced.iter().map(|t| t.traced.trace.as_ref().map_or(0, |t| t.dropped)).sum::<u64>()
                as f64,
            "count",
        ),
        m("ringpaxos.coord_busy", r.coord_busy, "cores"),
        m("ringpaxos.acceptor_busy", r.acceptor_busy, "cores"),
        m("ringpaxos.cmds_per_instance", r.ordered as f64 / r.instances.max(1) as f64, "cmds"),
        m("ringpaxos.retrans", sum(|p| p.retrans) as f64, "count"),
        m("ringpaxos.takeovers", sum(|p| p.takeovers) as f64, "count"),
        m("ringpaxos.repairs", sum(|p| p.repairs) as f64, "count"),
        m("ringpaxos.stage.propose_2a.p50_us", p2a50, "us"),
        m("ringpaxos.stage.propose_2a.p95_us", p2a95, "us"),
        m("ringpaxos.stage.2a_2b.p50_us", a2b50, "us"),
        m("ringpaxos.stage.2a_2b.p95_us", a2b95, "us"),
        m("ringpaxos.stage.2b_decide.p50_us", bdec50, "us"),
        m("ringpaxos.stage.2b_decide.p95_us", bdec95, "us"),
        m("ringpaxos.stage.decide_deliver.p50_us", ddel50, "us"),
        m("ringpaxos.stage.decide_deliver.p95_us", ddel95, "us"),
        m("ringpaxos.stage.total.p50_us", tot50, "us"),
        m("ringpaxos.stage.total.p95_us", tot95, "us"),
        m("workload.retry_ratio", retries as f64 / submitted.max(1) as f64, "frac"),
        m(
            "workload.useful_ratio",
            sum(|p| p.completed) as f64 / (submitted + retries).max(1) as f64,
            "frac",
        ),
        m("workload.shed", sum(|p| p.shed) as f64, "count"),
        m("workload.abandoned", sum(|p| p.abandoned) as f64, "count"),
        m("workload.backlog_end", sum(|p| p.backlog_end) as f64, "count"),
        m("core.replica_busy_max", replica_max, "cores"),
        m(
            "core.partition_skew",
            if replica_mean > 0.0 { replica_max / replica_mean } else { 0.0 },
            "ratio",
        ),
        m("core.outside_order_us", traced[0].untraced.counts.p50_us - tot50, "us"),
        m("bench.setup_s", wall_med(|w| w.setup_s), "s"),
        m("bench.run_s", wall_med(|w| w.run_s), "s"),
        m("bench.fault_s", wall_med(|w| w.fault_s), "s"),
        m("bench.verify_s", wall_med(|w| w.verify_s), "s"),
    ];
    out.extend(workload_specific(w, &reps[0]));
    out
}
