//! Deterministic structured tracing: a ring-buffer tracer, instance
//! lifecycle spans, and trace exporters.
//!
//! # Design
//!
//! The probe layer is always compiled and zero-overhead when disabled
//! (the default): every hook site is a single predictable branch on
//! [`SimInner::probe_on`] — one `u8` mask test — and the record path
//! behind it is `#[cold]`/`#[inline(never)]`, so the engine's hot loops
//! are untouched when probes are off. Recording is *pure observation*:
//! it allocates no event sequence numbers, draws no randomness, and
//! bumps no [`crate::stats::Metrics`] counter, so enabling probes leaves
//! golden traces bit-identical (the `ringpaxos` golden-trace tests pin
//! both the disabled and the enabled case).
//!
//! # Event model
//!
//! A [`ProbeEvent`] is a compact fixed-width record: virtual timestamp,
//! originating node, a [`code`] describing what happened, and one
//! code-specific argument word. Events fall into three [`category`]
//! groups, individually enabled through [`ProbeConfig::categories`]:
//!
//! * **protocol** — consensus lifecycle points recorded by actors
//!   through [`crate::sim::Ctx::probe`]: propose, 2A, 2B, decide,
//!   deliver (see [`code`]).
//! * **net** — datagram send/receive as seen by the engine.
//! * **host** — timer and disk completions.
//!
//! # Determinism
//!
//! The engine owns one ring-buffer tracer and records into it in
//! dispatch order, so the recorded stream is a pure function of the
//! seed. [`crate::sim::Sim::probe_events`] returns it sorted by time
//! (record order breaks ties), and [`encode`] serializes it to bytes for
//! the bit-identity tests.
//!
//! # Reading a trace
//!
//! Post-run, [`lifecycle_spans`] folds the stream into per-instance
//! propose→2A→2B→decide→deliver spans and [`decompose`] aggregates them
//! into the latency-decomposition report the ch3/ch5 figures consume.
//! [`perfetto_json`] writes the whole stream as a Chrome/Perfetto
//! `trace_event` JSON file (one track per node) — load it at
//! `ui.perfetto.dev`. [`CounterSampler`] snapshots a
//! [`crate::stats::Metrics`] counter into time-series rows, the shared
//! engine under the bench harness's throughput traces.

use crate::ids::NodeId;
use crate::sim::Sim;
use crate::time::{Dur, Time};

/// Probe category bits for [`ProbeConfig::categories`].
pub mod category {
    /// Consensus lifecycle events recorded by actors
    /// ([`crate::sim::Ctx::probe`]).
    pub const PROTOCOL: u8 = 1 << 0;
    /// Engine datagram send/receive events.
    pub const NET: u8 = 1 << 1;
    /// Timer and disk completion events.
    pub const HOST: u8 = 1 << 2;
    /// Every category.
    pub const ALL: u8 = PROTOCOL | NET | HOST;
}

/// Well-known probe event codes. The protocol block (1–15) is recorded
/// by consensus actors; the rest by the engine itself.
pub mod code {
    /// A value (batch) entered the proposal pipeline. `arg` is the
    /// instance key ([`super::span_key`]); the event's timestamp is the
    /// earliest client submission in the batch.
    pub const PROPOSE: u16 = 1;
    /// The coordinator emitted Phase 2A for an instance.
    pub const PHASE2A: u16 = 2;
    /// An acceptor cast/forwarded its Phase 2B vote.
    pub const PHASE2B: u16 = 3;
    /// Quorum complete: the decision point for an instance.
    pub const DECIDE: u16 = 4;
    /// A learner delivered the instance to the application.
    pub const DELIVER: u16 = 5;
    /// A Multi-Ring learner's deterministic merge released a delivery.
    pub const MERGE_DELIVER: u16 = 6;
    /// Datagram handed to the NIC. `arg` = `fanout << 32 | bytes`.
    pub const NET_SEND: u16 = 16;
    /// Datagram delivered to the destination actor.
    /// `arg` = `src_node << 32 | bytes`.
    pub const NET_RECV: u16 = 17;
    /// An actor timer fired. `arg` is the timer token.
    pub const HOST_TIMER: u16 = 32;
    /// A disk write completed. `arg` is the completion token.
    pub const HOST_DISK: u16 = 33;

    /// Human-readable name of a code (unknown codes render as `app`,
    /// the namespace left to actor-defined codes ≥ 256).
    pub fn name(c: u16) -> &'static str {
        match c {
            PROPOSE => "propose",
            PHASE2A => "phase2a",
            PHASE2B => "phase2b",
            DECIDE => "decide",
            DELIVER => "deliver",
            MERGE_DELIVER => "merge_deliver",
            NET_SEND => "net_send",
            NET_RECV => "net_recv",
            HOST_TIMER => "timer",
            HOST_DISK => "disk",
            _ => "app",
        }
    }

    /// The [`super::category`] bit a code belongs to.
    pub fn category_of(c: u16) -> u8 {
        match c {
            NET_SEND | NET_RECV => super::category::NET,
            HOST_TIMER | HOST_DISK => super::category::HOST,
            _ => super::category::PROTOCOL,
        }
    }
}

/// Default tracer capacity (events). A cap, not a
/// preallocation: buffers grow on demand and wrap once full.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Control-plane probe configuration ([`Sim::set_probes`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProbeConfig {
    /// Which [`category`] bits to record. `0` disables everything (the
    /// default): hook sites reduce to one false branch.
    pub categories: u8,
    /// Ring-buffer capacity in events. Once full, the oldest events are
    /// overwritten (counted by [`Sim::probe_dropped`]). Capacity `0`
    /// records nothing.
    pub capacity: usize,
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig::disabled()
    }
}

impl ProbeConfig {
    /// Probes off — the default; the hot path is untouched.
    pub fn disabled() -> ProbeConfig {
        ProbeConfig { categories: 0, capacity: 0 }
    }

    /// Every category at the default capacity.
    pub fn all() -> ProbeConfig {
        ProbeConfig { categories: category::ALL, capacity: DEFAULT_CAPACITY }
    }

    /// Protocol lifecycle events only (instance spans).
    pub fn lifecycle() -> ProbeConfig {
        ProbeConfig { categories: category::PROTOCOL, capacity: DEFAULT_CAPACITY }
    }

    /// Whether any category is enabled.
    pub fn enabled(&self) -> bool {
        self.categories != 0
    }
}

/// One recorded probe event. Compact and fixed-width so streams can be
/// compared byte-for-byte ([`encode`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProbeEvent {
    /// Virtual time the event was recorded (or, for [`code::PROPOSE`],
    /// the earliest submission it covers — see
    /// [`crate::sim::Ctx::probe_at`]).
    pub time: Time,
    /// Node the event belongs to.
    pub node: u32,
    /// What happened ([`code`]).
    pub code: u16,
    /// Code-specific argument word.
    pub arg: u64,
}

/// Bytes per event in [`encode`]'s serialization.
pub const ENCODED_EVENT_BYTES: usize = 22;

/// Serializes a probe stream to little-endian bytes (22 per event:
/// time u64, node u32, code u16, arg u64) — the byte-identity format
/// the trace-determinism tests compare.
pub fn encode(events: &[ProbeEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * ENCODED_EVENT_BYTES);
    for e in events {
        out.extend_from_slice(&e.time.as_nanos().to_le_bytes());
        out.extend_from_slice(&e.node.to_le_bytes());
        out.extend_from_slice(&e.code.to_le_bytes());
        out.extend_from_slice(&e.arg.to_le_bytes());
    }
    out
}

/// Ring-buffer tracer. Private to the engine; read back through
/// [`Sim::probe_events`].
#[derive(Default, Debug)]
pub(crate) struct Tracer {
    /// Event storage; grows to `capacity` then wraps.
    buf: Vec<ProbeEvent>,
    /// Next overwrite position once the buffer has wrapped.
    head: usize,
    /// Capacity cap (0 = event recording off).
    capacity: usize,
    /// Events overwritten after the buffer filled.
    dropped: u64,
}

impl Tracer {
    /// Re-arms the tracer with a new capacity, clearing prior events.
    pub(crate) fn reset(&mut self, capacity: usize) {
        self.buf.clear();
        self.head = 0;
        self.capacity = capacity;
        self.dropped = 0;
    }

    /// Appends one event (ring semantics: overwrites the oldest once
    /// `capacity` is reached).
    pub(crate) fn record(&mut self, ev: ProbeEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events overwritten after the ring filled.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events in record order (oldest first).
    pub(crate) fn chronological(&self) -> impl Iterator<Item = ProbeEvent> + '_ {
        let (wrapped, first) = self.buf.split_at(self.head);
        first.iter().chain(wrapped.iter()).copied()
    }
}

/// Packs a `(ring, instance)` pair into a probe argument word: ring in
/// the top 16 bits, instance in the low 48. Protocol actors use this as
/// the `arg` of every lifecycle event so spans from co-deployed rings
/// (Multi-Ring Paxos) never collide.
pub fn span_key(ring: u32, instance: u64) -> u64 {
    ((ring as u64) << 48) | (instance & 0x0000_FFFF_FFFF_FFFF)
}

/// Per-instance lifecycle timestamps, folded from a probe stream
/// by [`lifecycle_spans`]. Each stage holds the *earliest* matching
/// event (e.g. the first learner to deliver).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceSpan {
    /// The instance key ([`span_key`]).
    pub key: u64,
    /// Earliest client submission covered by the instance's batch.
    pub propose: Option<Time>,
    /// Phase 2A emission at the coordinator.
    pub phase2a: Option<Time>,
    /// First acceptor 2B vote.
    pub phase2b: Option<Time>,
    /// Quorum completion (the decision point).
    pub decide: Option<Time>,
    /// First learner delivery.
    pub deliver: Option<Time>,
}

impl InstanceSpan {
    /// Ring index of the span's key.
    pub fn ring(&self) -> u32 {
        (self.key >> 48) as u32
    }

    /// Instance number of the span's key.
    pub fn instance(&self) -> u64 {
        self.key & 0x0000_FFFF_FFFF_FFFF
    }
}

/// Folds a probe stream into per-instance lifecycle spans,
/// sorted by key. Only protocol-category lifecycle codes participate;
/// each stage keeps its earliest timestamp.
pub fn lifecycle_spans(events: &[ProbeEvent]) -> Vec<InstanceSpan> {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<u64, InstanceSpan> = BTreeMap::new();
    for e in events {
        let slot = match e.code {
            code::PROPOSE | code::PHASE2A | code::PHASE2B | code::DECIDE | code::DELIVER => spans
                .entry(e.arg)
                .or_insert_with(|| InstanceSpan { key: e.arg, ..Default::default() }),
            _ => continue,
        };
        let stage = match e.code {
            code::PROPOSE => &mut slot.propose,
            code::PHASE2A => &mut slot.phase2a,
            code::PHASE2B => &mut slot.phase2b,
            code::DECIDE => &mut slot.decide,
            _ => &mut slot.deliver,
        };
        match stage {
            Some(t) if *t <= e.time => {}
            _ => *stage = Some(e.time),
        }
    }
    spans.into_values().collect()
}

/// Summary of one lifecycle stage across instances. Exact (computed
/// from the full sample set, not histogram buckets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Instances that exhibited both endpoints of the stage.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Dur,
    /// Median.
    pub p50: Dur,
    /// 95th percentile.
    pub p95: Dur,
    /// Largest sample.
    pub max: Dur,
}

fn stage_stats(mut samples: Vec<u64>) -> StageStats {
    if samples.is_empty() {
        return StageStats::default();
    }
    samples.sort_unstable();
    let n = samples.len();
    let sum: u128 = samples.iter().map(|&v| v as u128).sum();
    let at = |frac: f64| samples[(((n as f64) * frac).ceil() as usize).clamp(1, n) - 1];
    StageStats {
        count: n as u64,
        mean: Dur::nanos((sum / n as u128) as u64),
        p50: Dur::nanos(at(0.50)),
        p95: Dur::nanos(at(0.95)),
        max: Dur::nanos(samples[n - 1]),
    }
}

/// The latency-decomposition report: where a consensus instance spends
/// its time between propose, 2A, 2B, decide, and deliver. Produced by
/// [`decompose`]; feeds the ch3/ch5 latency figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifecycleReport {
    /// Instances observed (any stage present).
    pub instances: u64,
    /// propose → 2A: batch-formation / queueing delay at the proposer
    /// and coordinator.
    pub propose_to_2a: StageStats,
    /// 2A → first 2B: vote-pipeline start.
    pub a2_to_2b: StageStats,
    /// First 2B → decide: quorum completion along the ring.
    pub b2_to_decide: StageStats,
    /// decide → first delivery: decision propagation + in-order release.
    pub decide_to_deliver: StageStats,
    /// propose → first delivery, end to end.
    pub total: StageStats,
}

/// Aggregates lifecycle spans into a [`LifecycleReport`]. Stages with a
/// missing endpoint (e.g. an undelivered tail instance at the deadline)
/// are skipped per stage, not per instance.
pub fn decompose(spans: &[InstanceSpan]) -> LifecycleReport {
    let mut s01 = Vec::new();
    let mut s12 = Vec::new();
    let mut s23 = Vec::new();
    let mut s34 = Vec::new();
    let mut tot = Vec::new();
    for sp in spans {
        if let (Some(a), Some(b)) = (sp.propose, sp.phase2a) {
            s01.push(b.saturating_since(a).as_nanos());
        }
        if let (Some(a), Some(b)) = (sp.phase2a, sp.phase2b) {
            s12.push(b.saturating_since(a).as_nanos());
        }
        if let (Some(a), Some(b)) = (sp.phase2b, sp.decide) {
            s23.push(b.saturating_since(a).as_nanos());
        }
        if let (Some(a), Some(b)) = (sp.decide, sp.deliver) {
            s34.push(b.saturating_since(a).as_nanos());
        }
        if let (Some(a), Some(b)) = (sp.propose, sp.deliver) {
            tot.push(b.saturating_since(a).as_nanos());
        }
    }
    LifecycleReport {
        instances: spans.len() as u64,
        propose_to_2a: stage_stats(s01),
        a2_to_2b: stage_stats(s12),
        b2_to_decide: stage_stats(s23),
        decide_to_deliver: stage_stats(s34),
        total: stage_stats(tot),
    }
}

impl LifecycleReport {
    /// The report as one JSON object (stage stats in milliseconds).
    pub fn to_json(&self) -> String {
        fn stage(s: &StageStats) -> String {
            format!(
                "{{\"count\":{},\"mean_ms\":{:.4},\"p50_ms\":{:.4},\"p95_ms\":{:.4},\"max_ms\":{:.4}}}",
                s.count,
                s.mean.as_nanos() as f64 / 1e6,
                s.p50.as_nanos() as f64 / 1e6,
                s.p95.as_nanos() as f64 / 1e6,
                s.max.as_nanos() as f64 / 1e6,
            )
        }
        format!(
            "{{\"instances\":{},\"propose_to_2a\":{},\"2a_to_2b\":{},\"2b_to_decide\":{},\"decide_to_deliver\":{},\"total\":{}}}",
            self.instances,
            stage(&self.propose_to_2a),
            stage(&self.a2_to_2b),
            stage(&self.b2_to_decide),
            stage(&self.decide_to_deliver),
            stage(&self.total),
        )
    }
}

/// Writes a probe stream as Chrome/Perfetto `trace_event` JSON: one
/// track per node (pid 1) and one async span per instance (pid 2).
/// Timestamps are virtual microseconds. Load at `ui.perfetto.dev` or
/// `chrome://tracing`.
pub fn perfetto_json(events: &[ProbeEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&ev);
    };
    push(
        &mut out,
        &mut first,
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":\"cluster\"}}".into(),
    );
    push(
        &mut out,
        &mut first,
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"args\":{\"name\":\"instances\"}}"
            .into(),
    );
    let mut named_nodes = std::collections::BTreeSet::new();
    for e in events {
        if named_nodes.insert(e.node) {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"node {}\"}}}}",
                    e.node, e.node
                ),
            );
        }
    }
    for e in events {
        let ts = e.time.as_nanos() as f64 / 1000.0;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\"args\":{{\"arg\":{}}}}}",
                code::name(e.code),
                match code::category_of(e.code) {
                    category::NET => "net",
                    category::HOST => "host",
                    _ => "protocol",
                },
                e.node,
                e.arg
            ),
        );
    }
    // Async begin/end pair per instance span (propose → deliver).
    for sp in lifecycle_spans(events) {
        let (Some(start), Some(end)) = (sp.propose.or(sp.phase2a), sp.deliver) else { continue };
        let (b, e) = (start.as_nanos() as f64 / 1000.0, end.as_nanos() as f64 / 1000.0);
        let (ring, inst) = (sp.ring(), sp.instance());
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"instance {inst}\",\"cat\":\"lifecycle\",\"ph\":\"b\",\"id\":{},\"ts\":{b:.3},\"pid\":2,\"tid\":{ring},\"args\":{{\"ring\":{ring}}}}}",
                sp.key
            ),
        );
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"instance {inst}\",\"cat\":\"lifecycle\",\"ph\":\"e\",\"id\":{},\"ts\":{e:.3},\"pid\":2,\"tid\":{ring}}}",
                sp.key
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// One time-series row of a [`CounterSampler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Virtual time of the snapshot.
    pub t: Time,
    /// Counter value at the snapshot.
    pub total: u64,
    /// Increase since the previous snapshot.
    pub delta: u64,
}

/// Periodically snapshots one [`crate::stats::Metrics`] counter into
/// time-series rows — the engine under the bench harness's throughput
/// traces (the former ad-hoc 250 ms bucket loops). Scope is either one
/// node's counter or the cluster-wide sum.
#[derive(Debug)]
pub struct CounterSampler {
    name: &'static str,
    node: Option<NodeId>,
    last: u64,
    samples: Vec<CounterSample>,
}

impl CounterSampler {
    /// A sampler over `name`, scoped to `node` (or the cluster sum when
    /// `None`). The baseline is zero; call [`CounterSampler::rebase`]
    /// after warmup to measure steady-state deltas only.
    pub fn new(name: &'static str, node: Option<NodeId>) -> CounterSampler {
        CounterSampler { name, node, last: 0, samples: Vec::new() }
    }

    fn read(&self, sim: &Sim) -> u64 {
        match self.node {
            Some(n) => sim.metrics().counter(n, self.name),
            None => sim.metrics().sum(self.name),
        }
    }

    /// Resets the delta baseline to the counter's current value without
    /// emitting a row.
    pub fn rebase(&mut self, sim: &Sim) {
        self.last = self.read(sim);
    }

    /// Takes one snapshot at the current virtual time, returning the
    /// delta since the previous snapshot (or rebase).
    pub fn sample(&mut self, sim: &Sim) -> u64 {
        let total = self.read(sim);
        let delta = total - self.last;
        self.last = total;
        self.samples.push(CounterSample { t: sim.now(), total, delta });
        delta
    }

    /// All rows sampled so far.
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, node: u32, code: u16, arg: u64) -> ProbeEvent {
        ProbeEvent { time: Time::ZERO + Dur::nanos(t), node, code, arg }
    }

    #[test]
    fn tracer_wraps_and_keeps_newest() {
        let mut tr = Tracer::default();
        tr.reset(3);
        for i in 0..5u64 {
            tr.record(ev(i, 0, code::PROPOSE, i));
        }
        assert_eq!(tr.dropped(), 2);
        let got: Vec<u64> = tr.chronological().map(|e| e.arg).collect();
        // Oldest two (args 0, 1) were overwritten.
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn tracer_capacity_zero_records_nothing() {
        let mut tr = Tracer::default();
        tr.record(ev(1, 0, code::PROPOSE, 1));
        assert_eq!(tr.chronological().count(), 0);
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn encode_is_fixed_width_and_order_sensitive() {
        let a = encode(&[ev(1, 2, code::PHASE2A, 3), ev(4, 5, code::DECIDE, 6)]);
        let b = encode(&[ev(4, 5, code::DECIDE, 6), ev(1, 2, code::PHASE2A, 3)]);
        assert_eq!(a.len(), 2 * ENCODED_EVENT_BYTES);
        assert_ne!(a, b);
    }

    #[test]
    fn span_key_roundtrips() {
        let k = span_key(7, 123_456);
        let sp = InstanceSpan { key: k, ..Default::default() };
        assert_eq!(sp.ring(), 7);
        assert_eq!(sp.instance(), 123_456);
    }

    #[test]
    fn lifecycle_spans_take_earliest_per_stage() {
        let k = span_key(0, 9);
        let events = [
            ev(100, 0, code::PROPOSE, k),
            ev(200, 0, code::PHASE2A, k),
            ev(300, 1, code::PHASE2B, k),
            ev(350, 2, code::PHASE2B, k), // later vote: ignored
            ev(400, 2, code::DECIDE, k),
            ev(500, 3, code::DELIVER, k),
            ev(450, 1, code::DELIVER, k), // earlier learner wins
        ];
        let spans = lifecycle_spans(&events);
        assert_eq!(spans.len(), 1);
        let sp = spans[0];
        assert_eq!(sp.phase2b, Some(Time::ZERO + Dur::nanos(300)));
        assert_eq!(sp.deliver, Some(Time::ZERO + Dur::nanos(450)));
        let report = decompose(&spans);
        assert_eq!(report.instances, 1);
        assert_eq!(report.propose_to_2a.mean, Dur::nanos(100));
        assert_eq!(report.a2_to_2b.mean, Dur::nanos(100));
        assert_eq!(report.b2_to_decide.mean, Dur::nanos(100));
        assert_eq!(report.decide_to_deliver.mean, Dur::nanos(50));
        assert_eq!(report.total.mean, Dur::nanos(350));
    }

    #[test]
    fn stage_stats_percentiles_exact() {
        let s = stage_stats((1..=100u64).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Dur::nanos(50));
        assert_eq!(s.p95, Dur::nanos(95));
        assert_eq!(s.max, Dur::nanos(100));
        assert_eq!(s.mean, Dur::nanos(50)); // 5050/100 truncated
        assert_eq!(stage_stats(Vec::new()), StageStats::default());
    }

    #[test]
    fn perfetto_json_is_balanced_and_tracked() {
        let k = span_key(0, 1);
        let events = [
            ev(1_000, 0, code::PROPOSE, k),
            ev(2_000, 0, code::PHASE2A, k),
            ev(9_000, 1, code::DELIVER, k),
        ];
        let json = perfetto_json(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"node 0\""));
        assert!(json.contains("\"name\":\"instance 1\""));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn lifecycle_report_json_shape() {
        let json = LifecycleReport::default().to_json();
        assert!(json.contains("\"propose_to_2a\""));
        assert!(json.contains("\"decide_to_deliver\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
