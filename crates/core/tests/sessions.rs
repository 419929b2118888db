//! Session-tier gates: the open-loop arrival sequence is a pure
//! function of the seed (however the run is partitioned into
//! `run_until` segments), and mass sessions ride out a coordinator
//! failover injected by a [`FaultPlan`].

use hpsmr_core::deploy::{deploy_smr_sessions, SessionDeployment, SessionOptions};
use simnet::prelude::*;
use workload::{
    SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED, SESSIONS_SUBMITTED,
    SESSION_LATENCY,
};

fn options() -> SessionOptions {
    SessionOptions {
        n_tables: 2,
        sessions_per_table: 1_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(300)),
        ..SessionOptions::default()
    }
}

fn build(seed: u64) -> (Sim, SessionDeployment) {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let d = deploy_smr_sessions(&mut sim, &options());
    (sim, d)
}

/// The arrival pin: per-table `(submitted, Σ arrival µs)`. Together
/// these commit to the whole arrival sequence — a single arrival moved,
/// added, or dropped changes the sum.
fn arrival_pin(sim: &Sim, d: &SessionDeployment) -> Vec<(u64, u64)> {
    d.tables
        .iter()
        .map(|&t| {
            (
                sim.metrics().counter(t, SESSIONS_SUBMITTED),
                sim.metrics().counter(t, SESSIONS_ARRIVAL_US),
            )
        })
        .collect()
}

fn counters(sim: &Sim) -> Vec<(usize, String, u64)> {
    let mut v = Vec::new();
    sim.metrics().for_each_counter(|node, name, val| v.push((node.0, name.to_string(), val)));
    v
}

/// Runs to 400 ms in `segments` equal `run_until` calls.
fn run(seed: u64, segments: u64) -> (Sim, SessionDeployment) {
    let (mut sim, d) = build(seed);
    for i in 1..=segments {
        sim.run_until(Time::ZERO + Dur::millis(400) * i / segments);
    }
    (sim, d)
}

#[test]
fn open_loop_arrivals_are_pure_in_seed_and_partition() {
    let (first, d1) = run(SimConfig::default().seed, 1);
    let (again, d2) = run(SimConfig::default().seed, 1);
    let (other, d3) = run(SimConfig::default().seed ^ 0x5EED, 1);
    // The same run partitioned into segments whose boundaries fall
    // between the tables' 1 ms ticks and the arrivals they drive.
    let (split, d4) = run(SimConfig::default().seed, 37);

    let pin = arrival_pin(&first, &d1);
    assert!(pin.iter().all(|&(sub, _)| sub > 500), "arrivals must flow: {pin:?}");
    // No arrival may be shed (a shed skips the generator's RNG draws,
    // which would legitimately fork the stream).
    let shed: u64 = d2.tables.iter().map(|&t| again.metrics().counter(t, SESSIONS_SHED)).sum();
    assert_eq!(shed, 0, "shedding would perturb the pin");
    assert_eq!(pin, arrival_pin(&again, &d2), "arrival sequence diverged");
    // Same seed, same run: the whole counter surface matches, not just
    // the node-local arrival pin.
    assert_eq!(counters(&first), counters(&again));
    // Partitioning the run into segments does not show anywhere.
    assert_eq!(pin, arrival_pin(&split, &d4), "segmented arrival sequence diverged");
    assert_eq!(counters(&first), counters(&split));
    assert_eq!(first.events_processed(), split.events_processed());
    // The seed reaches the arrival process.
    assert_ne!(pin, arrival_pin(&other, &d3), "a new seed must move the arrivals");
}

#[test]
fn sessions_ride_out_coordinator_failover() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SessionOptions {
        n_tables: 2,
        sessions_per_table: 10_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(1800)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let completed = |sim: &Sim| -> u64 {
        d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_COMPLETED)).sum()
    };

    sim.run_until(Time::from_millis(500));
    let at_crash = completed(&sim);
    assert!(at_crash > 0, "requests must flow before the crash");

    // Scheduled mid-run crash of the ring coordinator: suspicion
    // (200 ms) + M-Ring takeover + the tables' retry rotation across
    // surviving ring members must get requests completing again.
    FaultPlan::new().at(Time::from_millis(500), FaultAction::Crash(d.coordinator())).run(
        &mut sim,
        Time::from_millis(2500),
        |_, _| {},
    );

    let after = completed(&sim);
    assert!(
        after > at_crash + 500,
        "sessions must re-find the leader and keep completing: {at_crash} -> {after}"
    );
    let retries: u64 = d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_RETRIES)).sum();
    assert!(retries > 0, "the outage must have triggered deadline retries");

    // The latency histogram backs p50/p99/p999 reporting.
    for frac in [0.50, 0.99, 0.999] {
        assert!(
            sim.metrics().percentile(SESSION_LATENCY, frac).is_some(),
            "missing p{frac} of session latency"
        );
    }
    let (p50, p99) = (
        sim.metrics().percentile(SESSION_LATENCY, 0.50).unwrap(),
        sim.metrics().percentile(SESSION_LATENCY, 0.99).unwrap(),
    );
    assert!(p50 <= p99, "quantiles must be monotone: {p50:?} > {p99:?}");
}
