//! Trace exporter: runs the probed U-Ring scenario and writes the CI
//! observability artifacts:
//!
//! * `TRACE_uring.perfetto.json` — the probe stream as Chrome/Perfetto
//!   `trace_event` JSON (open at <https://ui.perfetto.dev>): per-node
//!   instant events and one async span per consensus instance.
//! * `LATENCY_decomposition.json` — per-stage statistics of the
//!   propose→2A→2B→decide→deliver lifecycle, one JSON object per
//!   scenario line.
//!
//! ```text
//! cargo run --release -p bench --bin trace_export            # write both artifacts
//! cargo run --release -p bench --bin trace_export -- --dir out/
//! ```
//!
//! Artifacts are non-gating: the gating determinism guarantees live in
//! `simnet`'s probe tests and `ringpaxos`'s golden-trace suite.

use bench::probes::{probed_mring, probed_uring, report_of};
use simnet::prelude::*;

fn out_dir() -> String {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--dir") {
        return args.get(i + 1).expect("--dir needs a path").trim_end_matches('/').to_string();
    }
    std::env::var("CARGO_MANIFEST_DIR").map(|d| format!("{d}/../..")).unwrap_or_else(|_| ".".into())
}

fn main() {
    let dir = out_dir();

    // Full-category probed U-Ring run: the exported trace carries
    // protocol lifecycle spans beside the engine's net/host events.
    let mut cfg = SimConfig::default();
    cfg.seed = 0x0451;
    let mut sim = Sim::new(cfg);
    sim.set_probes(ProbeConfig::all());
    let opts = ringpaxos::cluster::URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_rate_bps: 120_000_000,
        ..Default::default()
    };
    ringpaxos::cluster::deploy_uring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_secs(2));
    let events = sim.probe_events();
    let perfetto = simnet::probe::perfetto_json(&events);
    let trace_path = format!("{dir}/TRACE_uring.perfetto.json");
    std::fs::write(&trace_path, &perfetto).expect("write perfetto trace");
    println!("wrote {trace_path}: {} probe events ({} dropped)", events.len(), sim.probe_dropped());

    // Latency decompositions for both protocols, serial probed runs.
    let scenarios = [
        ("uring", report_of(&probed_uring(ProbeConfig::lifecycle()))),
        ("mring", {
            let sim = probed_mring(ProbeConfig::lifecycle());
            report_of(&sim)
        }),
    ];
    let body: String = scenarios
        .iter()
        .map(|(name, rep)| format!("{{\"scenario\":\"{name}\",\"report\":{}}}\n", rep.to_json()))
        .collect();
    let decomp_path = format!("{dir}/LATENCY_decomposition.json");
    std::fs::write(&decomp_path, &body).expect("write decomposition");
    println!("wrote {decomp_path}:");
    print!("{body}");
}
