//! End-to-end tests for M-Ring Paxos on the simulated cluster.

use abcast::{metric, MsgId};
use ringpaxos::cluster::{deploy_mring, MRingOptions};
use ringpaxos::StorageMode;
use simnet::prelude::*;
use std::collections::HashSet;

fn broadcast_set(sim: &Sim, proposers: &[NodeId]) -> HashSet<MsgId> {
    let mut out = HashSet::new();
    for &p in proposers {
        let n = sim.metrics().counter(p, "rp.proposed");
        for seq in 0..n {
            out.insert(MsgId(((p.0 as u64) << 40) | seq));
        }
    }
    out
}

#[test]
fn orders_and_delivers_under_load() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 2,
        proposer_rate_bps: 200_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));

    let log = d.log.lock().unwrap();
    assert!(log.total_deliveries() > 1000, "only {} deliveries", log.total_deliveries());
    log.check_total_order().expect("uniform total order");
    let broadcast = broadcast_set(&sim, &d.proposers);
    log.check_integrity(&broadcast).expect("uniform integrity");
}

#[test]
fn all_learners_catch_up_at_quiescence() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 4,
        n_proposers: 1,
        proposer_rate_bps: 50_000_000,
        proposer_stop: Some(Time::from_millis(800)),
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    // Run well past the stop time so everything drains.
    sim.run_until(Time::from_secs(2));

    let log = d.log.lock().unwrap();
    // Dedicated learners (indexes 0..4) must agree exactly with each other;
    // the proposer-learner delivers the same stream.
    let all: Vec<usize> = (0..d.all_learners.len()).collect();
    log.check_agreement_at_quiescence(&all).expect("agreement");
    log.check_total_order().expect("order");
}

#[test]
fn throughput_is_near_gigabit_wire_speed() {
    // The headline Fig 3.7 result: ~0.9 Gbps per receiver with 8 KB
    // messages, independent of receiver count.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 8,
        n_proposers: 2,
        proposer_rate_bps: 475_000_000, // aggregate 950 Mbps offered
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let warmup = Time::from_secs(1);
    sim.run_until(warmup);
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    assert!(tput > 750.0, "per-receiver throughput {tput:.0} Mbps, expected > 750");
    assert!(tput < 1000.0, "per-receiver throughput {tput:.0} Mbps beyond wire speed");
}

#[test]
fn latency_is_milliseconds_at_moderate_load() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 1,
        proposer_rate_bps: 100_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let _d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let lat = sim.metrics().latency(metric::LATENCY);
    assert!(lat.count > 100, "latency samples {}", lat.count);
    assert!(lat.mean > Dur::micros(150), "mean {:?} implausibly low", lat.mean);
    assert!(lat.mean < Dur::millis(20), "mean {:?} implausibly high", lat.mean);
}

#[test]
fn recovers_from_random_message_loss() {
    let mut cfg = SimConfig::default();
    cfg.random_loss = 0.01; // 1% of datagram copies vanish
    let mut sim = Sim::new(cfg);
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 1,
        proposer_rate_bps: 80_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(3));

    let log = d.log.lock().unwrap();
    log.check_total_order().expect("order despite loss");
    assert!(log.total_deliveries() > 1000);
    // Retransmissions must actually have happened for this test to bite.
    let retrans: u64 = d.ring.iter().map(|&a| sim.metrics().counter(a, "rp.retrans")).sum();
    assert!(retrans > 0, "expected retransmissions under loss");
}

#[test]
fn slow_learner_triggers_flow_control() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 400_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |cfg| {
        // Every learner needs 150us of application time per batch: far
        // slower than the offered 800 Mbps (~12k batches/s needs 55%+).
        cfg.learner_batch_cost = Dur::micros(150);
        cfg.flow.learner_threshold = 64;
    });
    sim.run_until(Time::from_secs(3));
    let slowdowns: u64 =
        d.all_learners.iter().map(|&l| sim.metrics().counter(l, "rp.slowdown")).sum();
    assert!(slowdowns > 0, "learners should have asked the ring to slow down");
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("order under back-pressure");
    assert!(log.total_deliveries() > 500, "delivery must continue while throttled");
}

#[test]
fn garbage_collection_advances() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 1,
        proposer_rate_bps: 100_000_000,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let advanced = sim.metrics().counter(d.coordinator(), "rp.gc_advanced");
    assert!(advanced > 100, "gc watermark advanced only {advanced} instances");
}

#[test]
fn sync_disk_writes_bound_throughput() {
    // Fig 3.9: with synchronous disk writes everything is disk bound at a
    // constant ~270 Mbps regardless of offered load.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 300_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |cfg| {
        cfg.storage = StorageMode::SyncDisk;
    });
    let warmup = Time::from_secs(1);
    sim.run_until(warmup);
    let before = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    sim.run_until(Time::from_secs(3));
    let after = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
    let tput = mbps(after - before, Dur::secs(2));
    assert!((180.0..340.0).contains(&tput), "sync-disk throughput {tput:.0} Mbps, expected ~270");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| -> (u64, u64) {
        let mut cfg = SimConfig::default();
        cfg.seed = seed;
        cfg.random_loss = 0.005;
        let mut sim = Sim::new(cfg);
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 150_000_000,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(1));
        let bytes: u64 =
            d.all_learners.iter().map(|&l| sim.metrics().counter(l, metric::DELIVERED_BYTES)).sum();
        let msgs: u64 =
            d.all_learners.iter().map(|&l| sim.metrics().counter(l, metric::DELIVERED_MSGS)).sum();
        (bytes, msgs)
    };
    assert_eq!(run(42), run(42), "same seed must reproduce identical results");
    assert_ne!(run(42), run(43), "different seeds should differ under loss");
}

#[test]
fn paused_learner_catches_up_within_gc_retention() {
    // §3.3.7: acceptors collect state once f+1 learners applied it, but
    // keep a retention window so a straggler still finds every missing
    // instance by retransmission. A learner paused briefly (its peers
    // race ahead and let GC advance) must fully catch up on resume.
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 1,
        proposer_rate_bps: 50_000_000, // ~760 instances/s << retention
        proposer_stop: Some(Time::from_millis(1500)),
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let straggler = d.learners[2];
    sim.run_until(Time::from_millis(500));
    sim.set_node_up(straggler, false);
    sim.run_until(Time::from_millis(800));
    sim.restart_node(straggler); // resume with a 300 ms gap
    sim.run_until(Time::from_secs(3));

    let fast = sim.metrics().counter(d.learners[0], metric::DELIVERED_MSGS);
    let slow = sim.metrics().counter(straggler, metric::DELIVERED_MSGS);
    assert!(fast > 500, "too little traffic for the scenario");
    assert_eq!(fast, slow, "straggler failed to catch up after its pause");
    d.log.lock().unwrap().check_total_order().expect("orders agree");
}
