//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload smr_ladder --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Repeats the workload for `--seconds` of wall time (at least twice),
//! prints every metric by name with its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Each run appends a record to `perfbench/out/results.jsonl`; a traced
//! run also writes the probe stream and the benchmark's wall spans to
//! `perfbench/out/`. Exits 1 on any correctness violation, 2 on bad
//! arguments.

use std::io::Write;
use std::time::{Duration, Instant};

use perfbench::{
    end_to_end, per_layer, run_traced, run_workload, set_up_only, workload_specific, Metric, Phase,
    Rep, SpanLog, TracedPair, Workload,
};

/// Repetitions made however short `--seconds` is.
const MIN_REPS: usize = 2;
/// Set-ups timed on their own for `setup_s`: at least `SETUP_MIN` before
/// the first repetition, then after every repetition more until
/// `SETUP_SLOT` of wall time (at least one, at most `SETUP_SLOT_MAX`), so
/// the samples span the same stretch of time as the repetitions.
const SETUP_MIN: usize = 11;
const SETUP_SLOT: Duration = Duration::from_millis(25);
const SETUP_SLOT_MAX: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let in_range = seconds > 0.0 && seconds <= 3600.0;
    if !in_range {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Where results and traces go: `out/` beside this package's manifest.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit checked out at the repository root, read from `.git`
/// without running git (`unknown` outside a git checkout).
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The fields every record carries, so rows from different hosts or
/// builds are never compared.
fn record_fields(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("git_commit", git_commit()),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
    ]
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(m.name), m.value, json_str(m.unit))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Appends one record line to `out/results.jsonl`.
fn append_record(fields: &[(&str, String)], result: &str) {
    let dir = out_dir();
    let line = {
        let f: Vec<String> =
            fields.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
        format!("{{{},\"result\":{result}}}\n", f.join(","))
    };
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("results.jsonl"))?
            .write_all(line.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not append to {}: {e}", dir.display());
    }
}

/// Writes the traced phase's probe stream (`simnet::probe::encode`
/// format) and a JSON file with the benchmark's wall spans and the
/// lifecycle decomposition.
fn write_trace(args: &Args, fields: &[(&str, String)], traced: &Phase, spans: &SpanLog) {
    let Some(trace) = traced.trace.as_ref() else { return };
    let dir = out_dir();
    let stem = format!("trace-{}", args.workload.name());
    let spans_json: Vec<String> = spans
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"start_s\":{},\"end_s\":{}}}",
                json_str(&s.name),
                s.start_s,
                s.end_s
            )
        })
        .collect();
    let f: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let doc = format!(
        "{{{},\"probe_events\":{},\"probe_dropped\":{},\"lifecycle\":{},\"wall_spans\":[{}]}}\n",
        f.join(","),
        trace.events.len(),
        trace.dropped,
        trace.report.to_json(),
        spans_json.join(","),
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| {
            std::fs::write(dir.join(format!("{stem}.probes")), simnet::probe::encode(&trace.events))
        })
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), doc));
    if let Err(e) = written {
        eprintln!("perfbench: could not write the trace to {}: {e}", dir.display());
    }
}

/// Appends at least `at_least` set-up samples, and more until the slot
/// is spent.
fn sample_setups(args: &Args, setups: &mut Vec<f64>, at_least: usize) {
    let slot = Instant::now();
    let mut n = 0;
    while n < at_least || (slot.elapsed() < SETUP_SLOT && n < SETUP_SLOT_MAX) {
        setups.push(set_up_only(args.workload, args.seed, 1.0));
        n += 1;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <uring_bcast|smr_ladder|smr_failover> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let fields = record_fields(&args);
    for (k, v) in &fields {
        println!("# {k}: {v}");
    }
    println!("# network: SimConfig::default() — 1 Gb/s links, 50 us one-way delay; serial determinism-mode executor");

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut spans = SpanLog::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedPair> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    sample_setups(&args, &mut setups, SETUP_MIN);
    // Repeat until the budget is spent; a traced run alternates untraced
    // workload runs with traced runs of the reference phase.
    loop {
        reps.push(run_workload(args.workload, args.seed, 1.0, &mut spans));
        sample_setups(&args, &mut setups, 1);
        if args.trace {
            let mut pair = run_traced(args.workload, args.seed, 1.0, &mut spans);
            // Only the first probe stream is written out; drop the rest.
            if let (false, Some(t)) = (traced.is_empty(), pair.traced.trace.as_mut()) {
                t.events = Vec::new();
            }
            traced.push(pair);
        }
        let elapsed = start.elapsed();
        let per_rep = elapsed / reps.len() as u32;
        if reps.len() >= MIN_REPS && elapsed + per_rep / 2 >= budget {
            break;
        }
    }

    // Virtual time must repeat exactly for one seed: every repetition
    // (and the traced runs, whose probes must not perturb it) agrees.
    let first = reps[0].counts();
    let mut extra: Vec<String> = Vec::new();
    if reps.iter().any(|r| r.counts() != first) {
        extra.push("repetitions with one seed differ in virtual time".into());
    }
    for t in &traced {
        if t.traced.counts != t.untraced.counts {
            extra.push("the traced run differs from the untraced run in virtual time".into());
        }
        extra.extend(t.traced.counts.violations.iter().cloned());
    }
    let attempted: u64 = first.iter().map(|c| c.attempted).sum();
    let failed = first.iter().map(|c| c.failed()).sum::<u64>() + extra.len() as u64;
    let mut violations: Vec<String> = first.iter().flat_map(|c| c.violations.clone()).collect();
    violations.extend(extra);
    let correct = violations.is_empty();

    let metrics = if args.trace {
        per_layer(args.workload, &reps, &traced)
    } else {
        end_to_end(args.workload, &reps, &setups)
    };
    // The per-layer record already carries the workload-specific numbers.
    let mut shown = metrics.clone();
    if !args.trace {
        shown.extend(workload_specific(args.workload, &reps[0]));
    }
    println!(
        "# repetitions: {} ({} traced), {:.1} s",
        reps.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let fmt = |v: Vec<f64>| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    println!("# run_s per repetition: {}", fmt(reps.iter().map(|r| r.wall().run_s).collect()));
    for (c, p) in first.iter().zip(&reps[0].phases) {
        println!(
            "# phase rate={} attempted={} completed={} in_window={} within_limit={} p50={}us p99={}us p999={}us retries={} failed={} run_s={:.3}",
            c.rate, c.attempted, c.completed, c.completed_in_window, c.within_limit, c.p50_us, c.p99_us, c.p999_us, c.retries, c.failed(), p.wall.run_s
        );
    }
    for m in &shown {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for v in &violations {
        println!("# VIOLATION: {v}");
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    append_record(&fields, &result);
    if let Some(t) = traced.first() {
        write_trace(&args, &fields, &t.traced, &spans);
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
