//! Self-test of the benchmark on scaled-down workloads: every metric
//! named in `BENCHMARK.json` is emitted with its unit, one seed repeats
//! exactly in virtual time, and another seed changes the results.

use abcast::{DeliveryLog, MsgId};
use perfbench::{
    end_to_end, partial_order_violation, per_layer, run_traced, run_workload, Metric, SpanLog,
    Workload,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Virtual windows at 5 % of the benchmark's.
const SCALE: f64 = 0.05;

/// The metrics wall time decides; everything else is virtual time.
const WALL: [&str; 3] = ["setup_s", "run_s", "peak_rss_mb"];

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (the file's own layout: one metric per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

fn names_units(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn virtual_part(ms: &[Metric]) -> Vec<Metric> {
    ms.iter().filter(|m| !WALL.contains(&m.name)).cloned().collect()
}

#[test]
fn every_workload_emits_every_declared_metric_and_repeats_per_seed() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let mut spans = SpanLog::default();
        let a = run_workload(w, 7, SCALE, &mut spans);
        let b = run_workload(w, 7, SCALE, &mut spans);
        let c = run_workload(w, 8, SCALE, &mut spans);
        let traced = [run_traced(w, 7, SCALE, &mut spans)];

        for rep in [&a, &b, &c] {
            let violations: Vec<_> =
                rep.counts().iter().flat_map(|p| p.violations.clone()).collect();
            assert!(violations.is_empty(), "{}: {violations:?}", w.name());
        }
        let ea = end_to_end(w, std::slice::from_ref(&a), &[0.001]);
        let eb = end_to_end(w, std::slice::from_ref(&b), &[0.001]);
        let ec = end_to_end(w, std::slice::from_ref(&c), &[0.001]);
        assert_eq!(names_units(&ea), e2e, "{}: end-to-end metrics", w.name());
        let pl = per_layer(w, std::slice::from_ref(&a), &traced);
        assert_eq!(names_units(&pl), layers, "{}: per-layer metrics", w.name());
        for m in ea.iter().filter(|m| m.name != "peak_rss_mb") {
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name(), m.name);
        }

        assert!(a.counts() == b.counts(), "{}: one seed must repeat exactly", w.name());
        assert_eq!(virtual_part(&ea), virtual_part(&eb), "{}", w.name());
        assert!(a.counts() != c.counts(), "{}: the seed must reach the program", w.name());
        assert_ne!(virtual_part(&ea), virtual_part(&ec), "{}", w.name());

        let t = &traced[0];
        assert!(t.traced.counts == t.untraced.counts, "{}: probes perturbed the run", w.name());
        let trace = t.traced.trace.as_ref().expect("traced run records probes");
        assert_eq!(trace.dropped, 0, "{}: probe capacity too small", w.name());
        assert!(!trace.events.is_empty(), "{}", w.name());
    }
}

#[test]
fn failover_takes_over_once_and_measures_the_outage() {
    let mut spans = SpanLog::default();
    let rep = run_workload(Workload::SmrFailover, 7, SCALE, &mut spans);
    let c = &rep.counts()[0];
    assert_eq!(c.takeovers, 1);
    assert!(c.outage_ms > 100.0 && c.outage_ms.is_finite(), "outage {} ms", c.outage_ms);
}

/// A random log: learners deliver random subsets of a common order, and
/// sometimes swap two neighbours.
fn random_log(rng: &mut SmallRng) -> DeliveryLog {
    let learners = rng.gen_range(2..5usize);
    let mut log = DeliveryLog::new(learners);
    for l in 0..learners {
        let mut seq: Vec<u64> = (0..30).filter(|_| rng.gen_range(0..3u32) > 0).collect();
        if seq.len() > 1 && rng.gen_range(0..4u32) == 0 {
            let i = rng.gen_range(0..seq.len() - 1);
            seq.swap(i, i + 1);
        }
        for m in seq {
            log.deliver(l, MsgId(m));
        }
    }
    log
}

#[test]
fn linear_partial_order_check_agrees_with_the_library_check() {
    let mut rng = SmallRng::seed_from_u64(1);
    let (mut ok, mut bad) = (0, 0);
    for _ in 0..2_000 {
        let log = random_log(&mut rng);
        let library = log.check_partial_order().is_ok();
        assert_eq!(partial_order_violation(&log).is_none(), library);
        if library {
            ok += 1;
        } else {
            bad += 1;
        }
    }
    assert!(ok > 100 && bad > 100, "both outcomes exercised: {ok} ok, {bad} violations");
}

#[test]
fn a_message_delivered_twice_is_a_violation() {
    let mut log = DeliveryLog::new(2);
    for m in [1, 2, 1] {
        log.deliver(0, MsgId(m));
    }
    log.deliver(1, MsgId(2));
    assert!(partial_order_violation(&log).is_some());
}
