//! Coordinator failover and ring repair on both rings: the acceptance
//! scenarios of the self-healing control plane.
//!
//! * An *unplanned* coordinator crash is recovered by an epoch-based
//!   takeover: a surviving acceptor bumps the round, reconstructs the
//!   instance allocation from a promise quorum, and the ring resumes —
//!   with zero agreement/ordering violations under the epoch-aware
//!   checker, and with the old coordinator respawnable over its stable
//!   store.
//! * A *stale* coordinator resumed with its pre-crash state keeps
//!   proposing under the old round; the epoch fence must discard that
//!   traffic at every receiver.
//! * A crashed mid-ring member is spliced out by the repair protocol so
//!   throughput resumes during the outage (Fig. 7.5's lesson), and
//!   spliced back in after it recovers.
//!
//! The U-Ring scenarios come first; the scenarios after them are written
//! once and run on both rings (see [`Ring`]).
use std::collections::HashSet;

use abcast::{metric, MsgId, SharedLog};
use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_mring, deploy_uring_recoverable, respawn_uring, MRingDeployment, MRingOptions,
    RecoverableURing, URingOptions, URingRecoveryOptions,
};
use simnet::prelude::*;

const SUSPICION: Dur = Dur::millis(40);

fn opts(proposers: Vec<usize>) -> URingOptions {
    URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: proposers,
        proposer_rate_bps: 60_000_000,
        msg_bytes: 16 * 1024,
        burst: 1,
        proposer_stop: Some(Time::from_millis(2500)),
    }
}

fn deploy(sim: &mut Sim, proposers: Vec<usize>) -> RecoverableURing {
    deploy_uring_recoverable(
        sim,
        &opts(proposers),
        URingRecoveryOptions::default(),
        |cfg| cfg.suspicion_timeout = Some(SUSPICION),
        |_| Some(Box::new(NullApp::default())),
    )
}

fn delivered(sim: &Sim, ru: &RecoverableURing) -> Vec<u64> {
    ru.d.ring.iter().map(|&n| sim.metrics().counter(n, "abcast.delivered_msgs")).collect()
}

/// The tentpole scenario: the coordinator crashes unplanned, a
/// surviving acceptor takes over via an epoch bump, deliveries resume,
/// and the old coordinator is later respawned over its stable store —
/// rejoining demoted, with full crash-aware agreement at quiescence.
#[test]
fn coordinator_crash_recovers_via_epoch_takeover() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(1000));
    let before = delivered(&sim, &ru);
    assert!(before[3] > 0, "load flowed before the crash");
    sim.set_node_up(ru.d.ring[0], false);

    // Suspicion fires within ~2 timeouts at position 1; takeover plus
    // re-proposal is timeout-scale. Give it a comfortable margin.
    sim.run_until(Time::from_millis(1400));
    let during = delivered(&sim, &ru);
    assert!(
        during[3] > before[3] + 100,
        "deliveries must resume under the new epoch during the outage: {} -> {}",
        before[3],
        during[3]
    );
    let takeovers: u64 = sim.metrics().sum("rp.became_coord");
    assert!(takeovers >= 1, "an acceptor must have taken over");

    // The lifted restriction: respawn the dead coordinator over its
    // stable store. It comes back demoted and catches up.
    respawn_uring(&mut sim, &ru, 0, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    let log = ru.d.log.lock().unwrap();
    log.check_crash_agreement(&[0, 1, 2, 3, 4]).expect("epoch-aware crash agreement");
    // Surviving learners recorded the configuration change(s).
    for l in 1..5 {
        assert!(
            !log.epochs_of(l).is_empty(),
            "learner {l} must have adopted at least one new epoch"
        );
    }
    // The takeover round was durably promised by surviving acceptors.
    let promised = (1..3).map(|p| ru.stores[p].lock().unwrap().promised.counter).max().unwrap_or(0);
    assert!(promised >= 2, "takeover promises must be persisted (got counter {promised})");
}

/// The seeded stale-epoch scenario: the coordinator is paused, a peer
/// takes over, and the old coordinator is resumed *with its pre-crash
/// state* (SIGSTOP/SIGCONT semantics) — it keeps proposing under the
/// old round until it learns of the new epoch. Every receiver must
/// fence that stale 2A/2B traffic; without the round fence the old
/// last acceptor's chain would fabricate decisions without a quorum.
#[test]
fn stale_coordinator_2ab_traffic_is_fenced() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(800));
    sim.set_node_up(ru.d.ring[0], false);
    // Let the takeover complete and the ring resume.
    sim.run_until(Time::from_millis(1300));
    assert!(sim.metrics().sum("rp.became_coord") >= 1);

    // Resume the old coordinator with its stale state: it still thinks
    // it leads round 1 and flushes its pending values down the ring.
    sim.restart_node(ru.d.ring[0]);
    sim.run_until(Time::from_secs(6));

    assert!(
        sim.metrics().sum("rp.stale_2ab") > 0,
        "the stale coordinator's round-1 traffic must hit the epoch fence"
    );
    assert!(
        sim.metrics().counter(ru.d.ring[0], "rp.deposed") >= 1,
        "the stale coordinator must learn it was deposed"
    );
    // Zero agreement/ordering violations, epochs monotonic per learner.
    ru.d.log
        .lock()
        .unwrap()
        .check_crash_agreement(&[0, 1, 2, 3, 4])
        .expect("agreement with fencing");
}

/// Ring repair (Fig. 7.5): a crashed mid-ring learner stalls decision
/// circulation; the coordinator's probe splices it out and throughput
/// resumes during the outage instead of staying down until the member
/// returns. After the respawn the member is spliced back in and full
/// agreement holds.
#[test]
fn crashed_member_is_spliced_out_and_rejoins() {
    let victim = 4usize; // learner-only: not an acceptor, not a proposer
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy(&mut sim, vec![0, 1, 2]);

    sim.run_until(Time::from_millis(800));
    let before = delivered(&sim, &ru);
    sim.set_node_up(ru.d.ring[victim], false);

    // Stall detection + probe + reform is a few suspicion timeouts.
    sim.run_until(Time::from_millis(1400));
    let during = delivered(&sim, &ru);
    assert!(sim.metrics().sum("rp.ring_repair") >= 1, "the ring must have been spliced");
    assert!(
        during[0] > before[0] + 100,
        "throughput must resume during the outage: {} -> {}",
        before[0],
        during[0]
    );

    respawn_uring(&mut sim, &ru, victim, Some(Box::new(NullApp::default())));
    sim.run_until(Time::from_secs(6));

    assert!(sim.metrics().sum("rp.joins") >= 1, "the respawned member must rejoin");
    ru.d.log
        .lock()
        .unwrap()
        .check_crash_agreement(&[0, 1, 2, 3, 4])
        .expect("agreement after rejoin");
}

/// Failover machinery is inert when disabled: a config without
/// `suspicion_timeout` runs no suspicion/heartbeat timers, so two
/// identical fault-free runs — one built with the failover-capable
/// binary, one conceptually without — cannot diverge. (The golden-trace
/// test pins the exact event counts; this one asserts the timers'
/// counters stay at zero so a regression points at the right gate.)
#[test]
fn failover_disabled_runs_no_failover_machinery() {
    let mut sim = Sim::new(SimConfig::default());
    let ru = deploy_uring_recoverable(
        &mut sim,
        &opts(vec![0, 1, 2]),
        URingRecoveryOptions::default(),
        |_| {},
        |_| None,
    );
    sim.run_until(Time::from_secs(3));
    assert!(delivered(&sim, &ru)[3] > 0);
    for name in ["rp.takeover", "rp.became_coord", "rp.ring_probe", "rp.ring_repair", "rp.joins"] {
        assert_eq!(sim.metrics().sum(name), 0, "{name} must stay zero with failover disabled");
    }
}

// ----------------------------------------------------------------------
// Scenarios shared by both rings.
// ----------------------------------------------------------------------

/// Suspicion timeout of the shared scenarios: M-Ring's default, so its
/// scenarios keep their historical timing.
const SHARED_SUSPICION: Dur = Dur::millis(200);

/// The shape of a shared scenario's deployment: three acceptors in the
/// ring, optional spare acceptors (M-Ring only), dedicated learners, and
/// proposers offering 8 KiB messages until `stop`.
struct Shape {
    spares: usize,
    learners: usize,
    proposers: usize,
    rate_bps: u64,
    stop: Time,
}

/// One deployment of either ring, seen through what the shared
/// scenarios need.
enum Ring {
    U(RecoverableURing),
    M(MRingDeployment),
}

impl Ring {
    /// Both rings deployed in `shape`, one per simulation.
    fn both(shape: &Shape) -> [(Sim, Ring); 2] {
        [Ring::deploy_u(shape), Ring::deploy_m(shape)]
    }

    /// U-Ring: the acceptors at positions 0..3, then the proposers, then
    /// the dedicated learners (every U-Ring process learns).
    fn deploy_u(shape: &Shape) -> (Sim, Ring) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: 3 + shape.proposers + shape.learners,
            n_acceptors: 3,
            proposer_positions: (3..3 + shape.proposers).collect(),
            proposer_rate_bps: shape.rate_bps,
            msg_bytes: 8192,
            burst: 1,
            proposer_stop: Some(shape.stop),
        };
        let ru = deploy_uring_recoverable(
            &mut sim,
            &opts,
            URingRecoveryOptions::default(),
            |cfg| cfg.suspicion_timeout = Some(SHARED_SUSPICION),
            |_| Some(Box::new(NullApp::default())),
        );
        (sim, Ring::U(ru))
    }

    fn deploy_m(shape: &Shape) -> (Sim, Ring) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MRingOptions {
            ring_size: 3,
            spares: shape.spares,
            n_learners: shape.learners,
            n_proposers: shape.proposers,
            proposer_rate_bps: shape.rate_bps,
            proposer_stop: Some(shape.stop),
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |cfg| cfg.suspicion_timeout = SHARED_SUSPICION);
        (sim, Ring::M(d))
    }

    fn name(&self) -> &'static str {
        match self {
            Ring::U(_) => "U-Ring",
            Ring::M(_) => "M-Ring",
        }
    }

    fn coordinator(&self) -> NodeId {
        match self {
            Ring::U(ru) => ru.d.ring[0],
            Ring::M(d) => d.coordinator(),
        }
    }

    /// The non-coordinator acceptor of suspicion rank `r`: the first to
    /// suspect a silent coordinator has rank 0.
    fn rank(&self, r: usize) -> NodeId {
        match self {
            Ring::U(ru) => ru.d.ring[r + 1],
            Ring::M(d) => d.ring[r],
        }
    }

    /// A dedicated learner whose deliveries the scenarios observe.
    fn observer(&self) -> NodeId {
        match self {
            Ring::U(ru) => *ru.d.ring.last().expect("non-empty ring"),
            Ring::M(d) => d.learners[0],
        }
    }

    fn delivered(&self, sim: &Sim) -> u64 {
        sim.metrics().counter(self.observer(), metric::DELIVERED_MSGS)
    }

    fn log(&self) -> &SharedLog {
        match self {
            Ring::U(ru) => &ru.d.log,
            Ring::M(d) => &d.log,
        }
    }

    /// Learner nodes, indexed like the delivery log.
    fn learners(&self) -> &[NodeId] {
        match self {
            Ring::U(ru) => &ru.d.ring,
            Ring::M(d) => &d.all_learners,
        }
    }

    /// Every node that may have proposed (a non-proposer counts none).
    fn proposers(&self) -> &[NodeId] {
        match self {
            Ring::U(ru) => &ru.d.ring,
            Ring::M(d) => &d.proposers,
        }
    }

    /// Lets the run drain (the proposers stopped at the shape's `stop`),
    /// then checks epoch-aware agreement over the learners still up —
    /// no lost, duplicated or reordered delivery, state transfers and
    /// restarts included — and that every delivery was broadcast.
    fn check(&self, sim: &mut Sim) {
        sim.run_until(sim.now() + Dur::millis(1500));
        let mut broadcast = HashSet::new();
        for &p in self.proposers() {
            for seq in 0..sim.metrics().counter(p, metric::PROPOSED) {
                broadcast.insert(MsgId(((p.0 as u64) << 40) | seq));
            }
        }
        let live: Vec<usize> =
            (0..self.learners().len()).filter(|&i| sim.is_up(self.learners()[i])).collect();
        let log = self.log().lock().unwrap();
        let ring = self.name();
        log.check_crash_agreement(&live).unwrap_or_else(|e| panic!("{ring}: agreement: {e}"));
        log.check_integrity(&broadcast).unwrap_or_else(|e| panic!("{ring}: integrity: {e}"));
    }
}

#[test]
fn coordinator_failover_resumes_delivery_without_violations() {
    let stop = Time::from_secs(4);
    let shape = Shape { spares: 2, learners: 2, proposers: 1, rate_bps: 50_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        sim.run_until(Time::from_millis(500));
        sim.set_node_up(ring.coordinator(), false);
        sim.run_until(stop);

        let name = ring.name();
        let takeovers = sim.metrics().sum("rp.became_coord");
        assert!(takeovers >= 1, "{name}: no acceptor took over as coordinator");
        let delivered = ring.delivered(&sim);
        assert!(delivered > 500, "{name}: delivery stalled after failover: {delivered}");
        ring.check(&mut sim);
    }
}

/// §3.3.4/§3.3.5: a silent mid-ring acceptor breaks the vote relay; the
/// coordinator probes, lays out a new ring around the failure (M-Ring
/// promotes its spare), and delivery resumes.
#[test]
fn mid_ring_acceptor_crash_triggers_ring_repair() {
    let stop = Time::from_millis(1500);
    let shape = Shape { spares: 1, learners: 2, proposers: 2, rate_bps: 100_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        sim.run_until(Time::from_millis(500));
        sim.set_node_up(ring.rank(1), false);
        sim.run_until(Time::from_millis(1000));

        let (name, coord) = (ring.name(), ring.coordinator());
        assert!(sim.metrics().counter(coord, "rp.ring_probe") >= 1, "{name}: never probed");
        assert_eq!(sim.metrics().counter(coord, "rp.ring_repair"), 1, "{name}: repairs");

        // Delivery after the repair runs at the offered rate again:
        // 200 Mbps of 8 KiB messages is ≈ 3.05 k msgs/s.
        let before = ring.delivered(&sim);
        sim.run_until(stop);
        let rate = (ring.delivered(&sim) - before) as f64 / 0.5;
        assert!(rate > 2000.0, "{name}: delivery did not recover after repair: {rate:.0}/s");
        ring.check(&mut sim);
    }
}

/// With no spare to pull in, the repaired ring is the surviving
/// majority: 2 of 3 acceptors still form a quorum and the protocol
/// continues.
#[test]
fn ring_repair_without_spares_shrinks_to_majority() {
    let stop = Time::from_millis(1700);
    let shape = Shape { spares: 0, learners: 1, proposers: 1, rate_bps: 100_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        sim.run_until(Time::from_millis(500));
        sim.set_node_up(ring.rank(0), false);
        sim.run_until(Time::from_millis(1200));

        let name = ring.name();
        let repairs = sim.metrics().counter(ring.coordinator(), "rp.ring_repair");
        assert!(repairs >= 1, "{name}: no repair happened");
        let before = ring.delivered(&sim);
        sim.run_until(stop);
        let after = ring.delivered(&sim);
        assert!(after > before + 500, "{name}: majority ring did not resume: {before} -> {after}");
        ring.check(&mut sim);
    }
}

/// A healthy ring under steady load: the repair machinery must stay
/// quiet (no probe escalates into a reform that would churn the ring).
#[test]
fn transient_stall_does_not_reform_the_ring() {
    let stop = Time::from_secs(3);
    let shape = Shape { spares: 1, learners: 2, proposers: 2, rate_bps: 200_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        sim.run_until(stop);
        let repairs = sim.metrics().counter(ring.coordinator(), "rp.ring_repair");
        assert_eq!(repairs, 0, "{}: repair fired on a healthy ring", ring.name());
        ring.check(&mut sim);
    }
}

/// The first candidate's Phase 1A is lost: the coordinator is gone for
/// good, and the rank-1 acceptor is down while the rank-0 acceptor
/// starts its takeover (and misses its own suspicion tick, so it never
/// starts one). The candidate must retry under a higher round once the
/// peer is back, instead of waiting forever for a promise quorum.
#[test]
fn stalled_takeover_is_retried_under_a_higher_round() {
    let stop = Time::from_secs(5);
    let shape = Shape { spares: 0, learners: 1, proposers: 1, rate_bps: 50_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        let (name, candidate, peer) = (ring.name(), ring.rank(0), ring.rank(1));
        sim.run_until(Time::from_millis(500));
        sim.set_node_up(ring.coordinator(), false);
        sim.run_until(Time::from_millis(550));
        sim.set_node_up(peer, false);
        sim.run_until(Time::from_millis(1100));
        sim.set_node_up(peer, true);
        let before = ring.delivered(&sim);
        sim.run_until(stop);

        let takeovers = sim.metrics().counter(candidate, "rp.takeover");
        assert!(takeovers >= 2, "{name}: the stalled takeover was never retried ({takeovers})");
        let after = ring.delivered(&sim);
        assert!(after > before + 1000, "{name}: delivery stayed wedged: {before} -> {after}");
        ring.check(&mut sim);
    }
}

/// A deposed coordinator stays in the acceptor set: after it comes back,
/// the acceptor that did not take over crashes, and the new coordinator's
/// repair must pull the old one back in to restore a quorum — 2 of 3
/// acceptors are alive.
#[test]
fn deposed_coordinator_rejoins_a_repaired_ring() {
    let stop = Time::from_secs(6);
    let shape = Shape { spares: 0, learners: 1, proposers: 1, rate_bps: 50_000_000, stop };
    for (mut sim, ring) in Ring::both(&shape) {
        let (name, old) = (ring.name(), ring.coordinator());
        sim.run_until(Time::from_millis(500));
        sim.set_node_up(old, false);
        sim.run_until(Time::from_millis(1500));
        sim.set_node_up(old, true);
        sim.run_until(Time::from_millis(2500));
        let new = ring.rank(0);
        assert!(sim.metrics().counter(new, "rp.became_coord") >= 1, "{name}: no takeover");
        sim.set_node_up(ring.rank(1), false);
        sim.run_until(Time::from_secs(3));
        let before = ring.delivered(&sim);
        sim.run_until(stop);

        let after = ring.delivered(&sim);
        assert!(after > before + 1000, "{name}: delivery stayed wedged: {before} -> {after}");
        let repairs = sim.metrics().counter(new, "rp.ring_repair");
        assert!(repairs >= 1, "{name}: the ring was never repaired");
        ring.check(&mut sim);
    }
}
