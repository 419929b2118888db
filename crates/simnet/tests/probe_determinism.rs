//! Probe-layer determinism gates:
//!
//! * the same seed yields a byte-identical probe stream, whichever OS
//!   thread runs the `Sim` and however many other simulations run
//!   concurrently in the process (the engine is single-threaded; the
//!   parallel way to run it is one `Sim` per thread);
//! * the stream covers every category, time-sorted;
//! * enabling probes does not perturb the simulation (events, time,
//!   counter totals identical to a probe-free run), and a capacity-0
//!   config keeps the engine's aggregate telemetry while recording no
//!   events.

use simnet::prelude::*;

/// Ring workload: every timer tick, one UDP datagram to the next node
/// and one TCP segment to the node after that, then re-arm — timers,
/// datagrams, TCP acks, and disk writes all in one stream.
struct RingSender {
    next: NodeId,
    tcp_to: NodeId,
    period: Dur,
    ticks: u32,
}

impl Actor for RingSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.period, TimerToken(1));
    }
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if env.wire_bytes > 900 {
            ctx.counter_add("app.tcp_in", 1);
        } else {
            ctx.counter_add("app.udp_in", 1);
            // A protocol-category probe from actor code, with an
            // explicit earlier timestamp sprinkled in so the stream
            // exercises the time sort.
            let at = Time::ZERO + ctx.now().saturating_since(Time::ZERO + Dur::micros(5));
            ctx.probe_at(600, env.wire_bytes as u64, at);
        }
    }
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        ctx.udp_send(self.next, self.ticks, 700);
        ctx.tcp_send(self.tcp_to, self.ticks, 1200);
        ctx.disk_write(512, TimerToken(2));
        self.ticks += 1;
        if self.ticks < 40 {
            ctx.set_timer(self.period, TimerToken(1));
        }
    }
}

fn run(probes: Option<ProbeConfig>) -> Sim {
    run_nodes(probes, 8)
}

/// The ring workload on `n` nodes, run to 30 ms.
fn run_nodes(probes: Option<ProbeConfig>, n: usize) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    if let Some(cfg) = probes {
        sim.set_probes(cfg);
    }
    for i in 0..n {
        let period = Dur::micros(150 + 17 * i as u64);
        sim.add_node(Box::new(RingSender {
            next: NodeId((i + 1) % n),
            tcp_to: NodeId((i + 2) % n),
            period,
            ticks: 0,
        }));
    }
    sim.run_until(Time::from_millis(30));
    sim
}

fn observe(sim: &Sim) -> (Time, u64, Vec<(usize, String, u64)>) {
    let mut counters = Vec::new();
    sim.metrics().for_each_counter(|node, name, v| {
        counters.push((node.0, name.to_string(), v));
    });
    (sim.now(), sim.events_processed(), counters)
}

/// Runs `f` on `workers` OS threads at once, each building and running
/// its own `Sim`, and returns every worker's result in worker order.
fn on_threads<T: Send>(workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || f(w))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// The engine's aggregate telemetry — everything a benchmark reads off
/// a finished run besides wall time — plus the counter surface.
type Telemetry = ((Time, u64, Vec<(usize, String, u64)>), (u64, u64), Vec<Dur>, u64);

fn telemetry(sim: &Sim) -> Telemetry {
    let busy = (0..sim.node_count()).map(|n| sim.cpu_busy_total(NodeId(n))).collect();
    (observe(sim), sim.delivery_dispatch_stats(), busy, sim.probe_dropped())
}

/// The serial executor's stream is a pure function of the seed: the run
/// on the calling thread, a repeat, and runs on one and on two spawned
/// threads agree byte for byte.
#[test]
fn determinism_mode_probe_stream_is_thread_count_invariant() {
    let stream = || probe::encode(&run(Some(ProbeConfig::all())).probe_events());
    let here = stream();
    assert!(!here.is_empty(), "workload must record probe events");
    assert_eq!(here, stream(), "a repeat on the same thread diverged");
    for workers in [1, 2] {
        for (w, got) in on_threads(workers, |_| stream()).into_iter().enumerate() {
            assert_eq!(got, here, "worker {w} of {workers} diverged");
        }
    }
}

/// Independent runs parallelize by giving each OS thread its own `Sim`.
/// With 2, 3, and 4 workers running *different* deployments at once,
/// each worker's stream equals the one its deployment records alone:
/// nothing leaks between concurrently running simulations.
#[test]
fn fast_mode_probe_stream_is_thread_count_invariant() {
    let nodes = |w: usize| 5 + w;
    let stream =
        |w: usize| probe::encode(&run_nodes(Some(ProbeConfig::all()), nodes(w)).probe_events());
    let alone: Vec<Vec<u8>> = (0..4).map(stream).collect();
    assert!(alone.iter().all(|s| !s.is_empty()), "workload must record probe events");
    assert_ne!(alone[0], alone[1], "deployments must differ for the check to bite");
    for workers in [2, 3, 4] {
        let got = on_threads(workers, stream);
        assert_eq!(got[..], alone[..workers], "concurrent streams diverged at {workers} workers");
    }
}

#[test]
fn probe_stream_covers_every_category() {
    let sim = run(Some(ProbeConfig::all()));
    let events = sim.probe_events();
    let has = |code: u16| events.iter().any(|e| e.code == code);
    assert!(has(probe::code::NET_SEND));
    assert!(has(probe::code::NET_RECV));
    assert!(has(probe::code::HOST_TIMER));
    assert!(has(probe::code::HOST_DISK));
    assert!(has(600), "actor-defined protocol probe");
    // The stream is time-sorted even with probe_at back-stamps.
    for w in events.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
    assert_eq!(sim.probe_dropped(), 0);
}

#[test]
fn enabling_probes_does_not_perturb_the_run() {
    // Bit-identical (now, events, counters) with probes off, on, and
    // on-with-a-tiny-ring (drop path exercised).
    let off = observe(&run(None));
    let on = observe(&run(Some(ProbeConfig::all())));
    let tiny = run(Some(ProbeConfig { categories: probe::category::ALL, capacity: 8 }));
    assert_eq!(off, on);
    assert_eq!(off, observe(&tiny));
    assert!(tiny.probe_dropped() > 0, "a tiny ring must wrap");
    assert_eq!(tiny.probe_events().len(), 8);
}

/// The deterministic parts of each worker's telemetry — virtual end
/// time, event count, counters, batched-delivery stats, per-node CPU
/// busy time, probe drops — are the same whether the run is alone or one
/// of 2 or 4 concurrent workers. Folding every worker's metrics with
/// `Metrics::merge_from` multiplies each counter by the worker count.
#[test]
fn worker_telemetry_deterministic_parts_are_invariant() {
    let alone = telemetry(&run(Some(ProbeConfig::all())));
    assert!(alone.1 .0 > 0, "workload must dispatch deliveries");
    assert!(alone.2.iter().all(|&b| b > Dur::ZERO), "every node must burn CPU");
    for workers in [2, 4] {
        let got = on_threads(workers, |_| {
            let sim = run(Some(ProbeConfig::all()));
            let mut metrics = sim.metrics().fork_zeroed();
            metrics.merge_from(sim.metrics());
            (telemetry(&sim), metrics)
        });
        let mut merged = Metrics::new();
        for (w, (t, m)) in got.iter().enumerate() {
            assert_eq!(t, &alone, "worker {w} of {workers} diverged");
            merged.merge_from(m);
        }
        let mut folded = Vec::new();
        merged.for_each_counter(|n, name, v| folded.push((n.0, name.to_string(), v)));
        let scaled: Vec<_> =
            alone.0 .2.iter().map(|(n, name, v)| (*n, name.clone(), v * workers as u64)).collect();
        assert_eq!(folded, scaled, "merged counters at {workers} workers");
    }
}

/// A capacity-0 config arms the categories but buffers nothing: no
/// events, no drops, and the engine's aggregates (time, events,
/// counters, dispatch stats, CPU busy time) match a probe-free run.
#[test]
fn executor_only_config_keeps_aggregates_without_events() {
    let sim = run(Some(ProbeConfig { categories: probe::category::ALL, capacity: 0 }));
    assert!(sim.probe_events().is_empty(), "capacity 0 buffers nothing");
    assert_eq!(sim.probe_dropped(), 0, "nothing buffered, nothing overwritten");
    let aggregates = telemetry(&sim);
    assert!(aggregates.0 .1 > 0, "the run itself must happen");
    assert_eq!(aggregates, telemetry(&run(None)));
}
