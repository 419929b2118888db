//! Property test for the engine's segmentation claim: running any
//! experiment-scale scenario with its virtual time partitioned into k
//! `run_until` segments (k ∈ {2, 3, 4, 7}) — the way fault plans and
//! throughput samplers drive the engine — yields exactly the run a
//! single `run_until` call yields: same virtual end time, same event
//! count, same checksum over every counter the engine and protocols
//! maintain. Segment boundaries land between, and on, queued events, so
//! a queue that mis-parks its scan across a `run_until` return (or a
//! protocol that reads the deadline) shows up as a divergence.
//!
//! The scenarios are miniatures of the chapter 4 (SMR over the B⁺-tree
//! service) and chapter 5 (Ring Paxos / Multi-Ring Paxos) experiment
//! deployments, so the equivalence is exercised through the full
//! protocol stacks — multicast fan-out, TCP client channels,
//! disk-backed acceptors, timers, and the coalesced delivery path — not
//! just through synthetic traffic.
//!
//! A final (non-property) test drives the chapter 9 unplanned-crash
//! schedule — coordinator crash, loss burst, CPU straggler, respawn —
//! the parallel way: one `Sim` per OS thread, several workers at once
//! (the engine itself is single-threaded). Every worker must observe the
//! run the calling thread observes, and the ring must still heal.

use hpsmr_core::deploy::{deploy_smr, SmrOptions};
use multiring::{deploy_multiring, MultiRingOptions};
use proptest::prelude::*;
use recovery::NullApp;
use ringpaxos::cluster::{
    deploy_mring, deploy_uring_recoverable, respawn_uring, MRingOptions, URingOptions,
    URingRecoveryOptions,
};
use simnet::prelude::*;
use workload::WorkloadKind;

/// Everything observable about a finished run: virtual end time, event
/// count, and every non-zero counter in deterministic order.
type Observed = (u64, u64, Vec<(usize, String, u64)>);

fn observe(sim: &Sim) -> Observed {
    let mut counters = Vec::new();
    sim.metrics().for_each_counter(|n, name, v| counters.push((n.0, name.to_string(), v)));
    (sim.now().as_nanos(), sim.events_processed(), counters)
}

/// A fresh sim for `seed`.
fn sim_with(seed: u64) -> Sim {
    Sim::new(SimConfig { seed, ..SimConfig::default() })
}

/// Runs `sim` to `to` in `k` equal `run_until` segments (`k == 1` is
/// the single-call identity run).
fn run_segmented(sim: &mut Sim, to: Time, k: u64) {
    for i in 1..=k {
        sim.run_until(Time::ZERO + (to - Time::ZERO) * i / k);
    }
}

/// The segment counts a scenario must be invariant over (identity
/// excluded).
const SEGMENTS: [u64; 4] = [2, 3, 4, 7];

/// Chapter 4 miniature: SMR over the B⁺-tree service.
fn run_smr(seed: u64, clients: usize, replicas: usize, workload: WorkloadKind, k: u64) -> Observed {
    let mut sim = sim_with(seed);
    let opts =
        SmrOptions { n_replicas: replicas, n_clients: clients, workload, ..SmrOptions::default() };
    let _d = deploy_smr(&mut sim, &opts);
    run_segmented(&mut sim, Time::from_millis(120), k);
    observe(&sim)
}

/// Chapter 5 miniature: one Ring Paxos ring with loss injection.
fn run_mring(seed: u64, ring_size: usize, rate_mbps: u64, k: u64) -> Observed {
    let mut sim = sim_with(seed);
    let opts = MRingOptions {
        ring_size,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: rate_mbps * 1_000_000,
        proposer_stop: Some(Time::from_millis(80)),
        ..MRingOptions::default()
    };
    let _d = deploy_mring(&mut sim, &opts, |_| {});
    run_segmented(&mut sim, Time::from_millis(120), k);
    observe(&sim)
}

/// Chapter 5 miniature: Multi-Ring Paxos, two rings, one merge learner.
fn run_multiring(seed: u64, rate_mbps: u64, k: u64) -> Observed {
    let mut sim = sim_with(seed);
    let opts = MultiRingOptions {
        n_rings: 2,
        ring_size: 2,
        proposers_per_ring: 1,
        rates_per_ring_bps: vec![rate_mbps * 1_000_000; 2],
        learners: vec![vec![0, 1]],
        ..MultiRingOptions::default()
    };
    let _d = deploy_multiring(&mut sim, &opts);
    run_segmented(&mut sim, Time::from_millis(120), k);
    observe(&sim)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Ch. 4 SMR scenarios are invariant over the run's partition
    /// into segments.
    #[test]
    fn smr_scenarios_are_partition_invariant(
        seed in 0u64..1000,
        clients in 2usize..8,
        replicas in 1usize..4,
        wk in prop_oneof![
            Just(WorkloadKind::Queries),
            Just(WorkloadKind::InsDelSingle),
            Just(WorkloadKind::InsDelBatch),
        ],
    ) {
        let identity = run_smr(seed, clients, replicas, wk, 1);
        for k in SEGMENTS {
            let segmented = run_smr(seed, clients, replicas, wk, k);
            prop_assert_eq!(&segmented, &identity, "SMR run diverged in {} segments", k);
        }
    }

    /// Ch. 5 Ring Paxos scenarios are invariant over the run's
    /// partition into segments.
    #[test]
    fn mring_scenarios_are_partition_invariant(
        seed in 0u64..1000,
        ring_size in 2usize..5,
        rate_mbps in 20u64..120,
    ) {
        let identity = run_mring(seed, ring_size, rate_mbps, 1);
        for k in SEGMENTS {
            let segmented = run_mring(seed, ring_size, rate_mbps, k);
            prop_assert_eq!(&segmented, &identity, "M-Ring run diverged in {} segments", k);
        }
    }

    /// Ch. 5 Multi-Ring Paxos scenarios are invariant over the run's
    /// partition into segments.
    #[test]
    fn multiring_scenarios_are_partition_invariant(
        seed in 0u64..1000,
        rate_mbps in 20u64..100,
    ) {
        let identity = run_multiring(seed, rate_mbps, 1);
        for k in SEGMENTS {
            let segmented = run_multiring(seed, rate_mbps, k);
            prop_assert_eq!(&segmented, &identity, "Multi-Ring run diverged in {} segments", k);
        }
    }
}

/// The ch. 9 unplanned-crash schedule, one `Sim` per OS thread: a
/// recoverable U-Ring loses its coordinator at 1.0s inside a loss burst
/// (0.4–1.6s) with a CPU straggler on a survivor (0.5–1.5s); the old
/// coordinator respawns over its disk at 2.2s. FaultPlan drives the run
/// in 250ms control-plane segments. The run on the calling thread is the
/// reference; 2 and 3 concurrent workers must each (a) observe it
/// exactly and (b) still fail over and deliver through the outage.
#[test]
fn ch9_fault_schedule_is_thread_count_invariant_in_fast_mode() {
    fn run() -> Observed {
        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: 5,
            n_acceptors: 3,
            proposer_positions: vec![1, 2],
            proposer_rate_bps: 60_000_000,
            msg_bytes: 16 * 1024,
            burst: 1,
            proposer_stop: Some(Time::from_millis(2800)),
        };
        let rec = URingRecoveryOptions { checkpoint_interval: 256, ..Default::default() };
        let ru = deploy_uring_recoverable(
            &mut sim,
            &opts,
            rec,
            |cfg| cfg.suspicion_timeout = Some(Dur::millis(40)),
            |_| Some(Box::new(NullApp::default())),
        );
        let coord = ru.d.ring[0];
        let mut plan = FaultPlan::new()
            .loss_burst(Time::from_millis(400), Time::from_millis(1600), 0.002)
            .straggler(ru.d.ring[2], Time::from_millis(500), Time::from_millis(1500), 2.0)
            .at(Time::from_millis(1000), FaultAction::Crash(coord))
            .at(Time::from_millis(2200), FaultAction::Respawn(coord));
        let step = Dur::millis(250);
        for i in 1..=12u64 {
            plan.step(&mut sim, Time::ZERO + step * i, &mut |sim, _| {
                respawn_uring(sim, &ru, 0, Some(Box::new(NullApp::default())))
            });
        }
        let takeovers: u64 =
            (1..5).map(|p| sim.metrics().counter(ru.d.ring[p], "rp.became_coord")).sum();
        assert!(takeovers >= 1, "no survivor took over after the coordinator crash");
        let delivered = sim.metrics().counter(ru.d.ring[3], "abcast.delivered_bytes");
        assert!(delivered > 0, "observer delivered nothing through the fault schedule");
        observe(&sim)
    }

    let reference = run();
    for workers in [2, 3] {
        let got: Vec<Observed> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(run)).collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        for (w, observed) in got.iter().enumerate() {
            assert_eq!(observed, &reference, "fault run diverged on worker {w} of {workers}");
        }
    }
}
