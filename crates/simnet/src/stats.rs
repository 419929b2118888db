//! Measurement infrastructure: interned counters, histogram latency
//! recorders, and helpers for converting raw counts into the units the
//! paper reports (Mbps, Kcps, ms).
//!
//! # Design
//!
//! The simulator records several counters on *every* datagram, so this
//! module is on the engine's hottest path. Two data structures keep the
//! per-event cost at array-indexing levels:
//!
//! * **Interned counters.** Every counter name is interned once into a
//!   [`MetricId`]; values live in one dense row per node
//!   (`rows[node][id]`). The names the engine and the ordering protocols
//!   bump per packet are pre-interned at fixed indices (see [`mid`]), so
//!   the hot paths never hash a string — they do two indexed loads. The
//!   string-keyed API ([`Metrics::add`], [`Metrics::counter`],
//!   [`Metrics::sum`]) remains for experiment runners and tests; it pays
//!   one `HashMap` lookup to resolve the name and is not on the per-event
//!   path. Reporting ([`Metrics::for_each_counter`]) walks the rows in
//!   node-index order, the order every golden-trace checksum is built on.
//!
//! * **Histogram latencies.** Latency samples go into log-scaled buckets
//!   (64 sub-buckets per power of two, ≤ 1.6 % relative error; values
//!   below 64 ns are exact) instead of an ever-growing `Vec<u64>`.
//!   Count, sum (hence mean), and max are tracked exactly; percentiles,
//!   trimmed means, and CDFs are read from bucket midpoints, so querying
//!   mid-experiment no longer clones and sorts the whole sample set, and
//!   memory stays O(1) per name regardless of run length.

use std::collections::HashMap;

use crate::ids::NodeId;
use crate::time::Dur;

/// Interned handle for a counter name: an index into the registry's
/// dense per-node counter matrix. Obtain one from [`Metrics::intern`] or
/// use the pre-interned well-known ids in [`mid`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MetricId(u16);

impl MetricId {
    /// Position of this metric in the dense counter matrix.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Names of the pre-interned well-known metrics, index-aligned with
/// [`mid`]. The engine's own names come first; the `abcast.*`/`rp.*`
/// names are owned by the protocol layer but pre-interned here because
/// protocols bump them for every delivered value — the `abcast` crate
/// re-exports them so the strings are defined once.
const BUILTIN_NAMES: &[&str] = &[
    "net.sent_bytes",
    "net.sent_pkts",
    "net.recv_bytes",
    "net.recv_pkts",
    "net.rand_drop",
    "net.down_drop",
    "net.switch_drop",
    "net.switch_drop_bytes",
    "net.socket_drop",
    "net.socket_drop_bytes",
    "disk.written_bytes",
    "abcast.delivered_bytes",
    "abcast.delivered_msgs",
    "abcast.instances",
    "abcast.buffered",
    "rp.proposed",
    "net.tcp_dup_ack",
    "net.tcp_reset_bytes",
    "net.tcp_stale_ack",
    "net.tcp_orphan_seg",
    "net.reordered",
    "net.duplicated",
    "net.part_drop",
];

/// Pre-interned [`MetricId`]s for the counters bumped on the per-event
/// hot paths. Guaranteed to be valid in every [`Metrics`] registry.
pub mod mid {
    use super::MetricId;

    pub const NET_SENT_BYTES: MetricId = MetricId(0);
    pub const NET_SENT_PKTS: MetricId = MetricId(1);
    pub const NET_RECV_BYTES: MetricId = MetricId(2);
    pub const NET_RECV_PKTS: MetricId = MetricId(3);
    pub const NET_RAND_DROP: MetricId = MetricId(4);
    pub const NET_DOWN_DROP: MetricId = MetricId(5);
    pub const NET_SWITCH_DROP: MetricId = MetricId(6);
    pub const NET_SWITCH_DROP_BYTES: MetricId = MetricId(7);
    pub const NET_SOCKET_DROP: MetricId = MetricId(8);
    pub const NET_SOCKET_DROP_BYTES: MetricId = MetricId(9);
    pub const DISK_WRITTEN_BYTES: MetricId = MetricId(10);
    pub const DELIVERED_BYTES: MetricId = MetricId(11);
    pub const DELIVERED_MSGS: MetricId = MetricId(12);
    pub const INSTANCES: MetricId = MetricId(13);
    pub const BUFFERED: MetricId = MetricId(14);
    pub const PROPOSED: MetricId = MetricId(15);
    pub const NET_TCP_DUP_ACK: MetricId = MetricId(16);
    pub const NET_TCP_RESET_BYTES: MetricId = MetricId(17);
    pub const NET_TCP_STALE_ACK: MetricId = MetricId(18);
    /// TCP segments delivered for a channel incarnation that no longer
    /// exists (in flight across a crash-reset, or no channel at all):
    /// no ack is generated for them.
    pub const NET_TCP_ORPHAN_SEG: MetricId = MetricId(19);
    /// Datagrams the fault-injection layer held back in the switch so
    /// they arrive behind later-sent traffic.
    pub const NET_REORDERED: MetricId = MetricId(20);
    /// Extra datagram copies the fault-injection layer delivered.
    pub const NET_DUPLICATED: MetricId = MetricId(21);
    /// Datagrams (and TCP segments) dropped on a cut link — see
    /// [`crate::sim::Sim::set_link_cut`].
    pub const NET_PART_DROP: MetricId = MetricId(22);
}

/// The canonical name string of a pre-interned metric (usable in `const`
/// contexts, so downstream crates define their name constants from it).
pub const fn builtin_name(id: MetricId) -> &'static str {
    BUILTIN_NAMES[id.0 as usize]
}

/// Central metrics registry owned by the simulation.
#[derive(Debug)]
pub struct Metrics {
    /// Id → name.
    names: Vec<&'static str>,
    /// Name → id, for the string-keyed compatibility API.
    index: HashMap<&'static str, MetricId>,
    /// Counter rows indexed by node, `rows[node][id]`. A row is grown to
    /// the current intern-table width on its node's first write of a
    /// not-yet-covered id; an empty row means the node never wrote.
    rows: Vec<Vec<u64>>,
    latencies: HashMap<&'static str, Histogram>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        let names: Vec<&'static str> = BUILTIN_NAMES.to_vec();
        let index = names.iter().enumerate().map(|(i, &n)| (n, MetricId(i as u16))).collect();
        Metrics { names, index, rows: Vec::new(), latencies: HashMap::new() }
    }
}

impl Metrics {
    /// Creates an empty registry (well-known ids pre-interned).
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Interns `name`, returning its dense id. Idempotent; the returned
    /// id is stable for the lifetime of this registry.
    pub fn intern(&mut self, name: &'static str) -> MetricId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = MetricId(u16::try_from(self.names.len()).expect("too many distinct metrics"));
        self.names.push(name);
        self.index.insert(name, id);
        id
    }

    /// Grows `node`'s row to the current intern-table width and returns
    /// it (the cold half of [`Metrics::add_id`]).
    #[cold]
    fn row(&mut self, node: NodeId) -> &mut Vec<u64> {
        if node.0 >= self.rows.len() {
            self.rows.resize_with(node.0 + 1, Vec::new);
        }
        let width = self.names.len();
        let row = &mut self.rows[node.0];
        if row.len() < width {
            row.resize(width, 0);
        }
        row
    }

    /// Adds `v` to the counter `id` of `node` — the hot path: two
    /// indexed loads once the row covers `id`.
    #[inline]
    pub fn add_id(&mut self, node: NodeId, id: MetricId, v: u64) {
        if let Some(c) = self.rows.get_mut(node.0).and_then(|row| row.get_mut(id.index())) {
            *c += v;
            return;
        }
        self.row(node)[id.index()] += v;
    }

    /// Current value of the counter `id` of `node`.
    #[inline]
    pub fn counter_id(&self, node: NodeId, id: MetricId) -> u64 {
        self.rows.get(node.0).and_then(|row| row.get(id.index())).copied().unwrap_or(0)
    }

    /// Sum of the counter `id` over all nodes.
    pub fn sum_id(&self, id: MetricId) -> u64 {
        self.rows.iter().filter_map(|row| row.get(id.index())).sum()
    }

    /// Adds `v` to the counter `name` of `node` (string-keyed
    /// compatibility API — one hash lookup to resolve the name).
    pub fn add(&mut self, node: NodeId, name: &'static str, v: u64) {
        let id = self.intern(name);
        self.add_id(node, id, v);
    }

    /// Current value of the counter `name` of `node`.
    pub fn counter(&self, node: NodeId, name: &'static str) -> u64 {
        match self.index.get(name) {
            Some(&id) => self.counter_id(node, id),
            None => 0,
        }
    }

    /// Sum of the counter `name` over all nodes.
    pub fn sum(&self, name: &'static str) -> u64 {
        match self.index.get(name) {
            Some(&id) => self.sum_id(id),
            None => 0,
        }
    }

    /// Visits every non-zero counter in deterministic `(node, name)`
    /// order — the basis for golden-trace checksums.
    pub fn for_each_counter(&self, mut f: impl FnMut(NodeId, &str, u64)) {
        // Ids are interned in call order, not name order; sort once per
        // call (this is a reporting path, not a hot path).
        let mut by_name: Vec<MetricId> = (0..self.names.len() as u16).map(MetricId).collect();
        by_name.sort_by_key(|id| self.names[id.index()]);
        for (n, row) in self.rows.iter().enumerate() {
            for &id in &by_name {
                if let Some(&v) = row.get(id.index()) {
                    if v != 0 {
                        f(NodeId(n), self.names[id.index()], v);
                    }
                }
            }
        }
    }

    /// Clones this registry's shape — intern table and per-node rows —
    /// with every counter zeroed and no latency samples.
    pub fn fork_zeroed(&self) -> Metrics {
        Metrics {
            names: self.names.clone(),
            index: self.index.clone(),
            rows: self.rows.iter().map(|row| vec![0; row.len()]).collect(),
            latencies: HashMap::new(),
        }
    }

    /// Adds every counter and latency sample of `other` into this
    /// registry. Counter addition and histogram merging are commutative,
    /// so folding the registries of independent runs (say, one `Sim` per
    /// OS thread of a seed sweep) gives the same totals in any order.
    /// Names are re-interned by string, so `other` need not share this
    /// registry's intern order.
    pub fn merge_from(&mut self, other: &Metrics) {
        for (n, row) in other.rows.iter().enumerate() {
            for (i, &v) in row.iter().enumerate() {
                if v != 0 {
                    self.add(NodeId(n), other.names[i], v);
                }
            }
        }
        for (name, h) in &other.latencies {
            self.latencies.entry(name).or_default().merge_from(h);
        }
    }

    /// Records one latency sample under `name`.
    pub fn record_latency(&mut self, name: &'static str, sample: Dur) {
        self.latencies.entry(name).or_default().record(sample.as_nanos());
    }

    /// Summary statistics of the samples recorded under `name`.
    pub fn latency(&self, name: &'static str) -> LatencyStats {
        self.latencies.get(name).map_or_else(LatencyStats::default, Histogram::stats)
    }

    /// Drains the samples recorded under `name`, returning their summary.
    /// Useful for windowed measurements in time-series experiments.
    pub fn take_latency(&mut self, name: &'static str) -> LatencyStats {
        self.latencies.remove(name).map_or_else(LatencyStats::default, |h| h.stats())
    }

    /// The `frac` quantile of the samples recorded under `name`, or
    /// `None` when nothing has been recorded — an empty recorder has no
    /// percentile, and the old bucket-midpoint `0` was indistinguishable
    /// from a genuine sub-nanosecond sample.
    pub fn percentile(&self, name: &'static str, frac: f64) -> Option<Dur> {
        let h = self.latencies.get(name)?;
        if h.count == 0 {
            return None;
        }
        Some(Dur::nanos(h.quantile(frac)))
    }

    /// Empirical CDF of samples under `name` at the given number of points.
    /// Returns `(latency, fraction <= latency)` pairs.
    pub fn latency_cdf(&self, name: &'static str, points: usize) -> Vec<(Dur, f64)> {
        let Some(h) = self.latencies.get(name) else { return Vec::new() };
        if h.count == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (Dur::nanos(h.quantile(frac)), frac)
            })
            .collect()
    }
}

/// Sub-bucket resolution of the latency histograms: 2^6 = 64 buckets per
/// power of two, bounding relative quantile error at 1/64 ≈ 1.6 %.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A log-scaled histogram of nanosecond samples. Count, sum, and max are
/// exact; quantiles are read from bucket midpoints.
#[derive(Default, Debug, Clone)]
struct Histogram {
    count: u64,
    sum: u128,
    max: u64,
    /// Bucket occupancy, grown lazily to the highest bucket touched.
    buckets: Vec<u64>,
}

/// Bucket index for a nanosecond value. Values below `SUB` map to their
/// own bucket (exact); above, each power of two splits into `SUB`
/// equal-width sub-buckets.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        let mantissa = v >> shift; // in [SUB, 2*SUB)
        ((shift + 1) * SUB + (mantissa - SUB)) as usize
    }
}

/// Midpoint of a bucket (exact value for the linear and first log region).
fn bucket_value(idx: usize) -> u64 {
    let group = idx as u64 >> SUB_BITS;
    let offset = idx as u64 & (SUB - 1);
    if group == 0 {
        offset
    } else {
        let shift = group - 1;
        let base = (SUB + offset) << shift;
        if shift == 0 {
            base
        } else {
            base + (1 << (shift - 1))
        }
    }
}

impl Histogram {
    /// Folds `other`'s samples into this histogram. Bucket counts, the
    /// running count/sum, and the max all combine exactly, so merging is
    /// order-independent.
    fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
    }

    #[inline]
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        let idx = bucket_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Smallest recorded value `x` such that at least `frac * count`
    /// samples are ≤ `x` (bucket-midpoint resolution; the top quantile
    /// reports the exact max).
    fn quantile(&self, frac: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * frac).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            // The true top quantile is the exact max (keeps the CDF's
            // final point consistent with `LatencyStats::max`).
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Midpoint resolution, never above the observed max.
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::default();
        }
        // Trimmed mean: accumulate bucket midpoints over the lowest 95 %
        // of samples (partial buckets pro-rated).
        let keep = (((self.count as f64) * 0.95).ceil() as u64).clamp(1, self.count);
        let mut remaining = keep;
        let mut tsum = 0u128;
        for (i, &c) in self.buckets.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let take = c.min(remaining);
            tsum += bucket_value(i) as u128 * take as u128;
            remaining -= take;
        }
        LatencyStats {
            count: self.count as usize,
            mean: Dur::nanos((self.sum / self.count as u128) as u64),
            p50: Dur::nanos(self.quantile(0.50)),
            p95: Dur::nanos(self.quantile(0.95)),
            p99: Dur::nanos(self.quantile(0.99)),
            max: Dur::nanos(self.max),
            trimmed_mean_95: Dur::nanos((tsum / keep as u128) as u64),
        }
    }
}

/// Summary of a set of latency samples. `count`, `mean`, and `max` are
/// exact; the percentiles and trimmed mean carry the histogram's ≤ 1.6 %
/// bucket resolution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (exact).
    pub mean: Dur,
    /// 50th percentile.
    pub p50: Dur,
    /// 95th percentile.
    pub p95: Dur,
    /// 99th percentile.
    pub p99: Dur,
    /// Largest sample (exact).
    pub max: Dur,
    /// Mean after discarding the highest 5% of samples — the thesis reports
    /// this for the experiments with disk writes (§5.4.2).
    pub trimmed_mean_95: Dur,
}

/// Converts a byte count over a window into megabits per second.
pub fn mbps(bytes: u64, window: Dur) -> f64 {
    if window == Dur::ZERO {
        return 0.0;
    }
    bytes as f64 * 8.0 / window.as_secs_f64() / 1e6
}

/// Converts an event count over a window into events per second.
pub fn per_sec(count: u64, window: Dur) -> f64 {
    if window == Dur::ZERO {
        return 0.0;
    }
    count as f64 / window.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `got` within `pct` percent of `want`.
    fn close(got: Dur, want: Dur, pct: f64) {
        let (g, w) = (got.as_nanos() as f64, want.as_nanos() as f64);
        assert!((g - w).abs() <= w * pct / 100.0, "{got:?} not within {pct}% of {want:?}");
    }

    #[test]
    fn counters_accumulate_per_node() {
        let mut m = Metrics::new();
        m.add(NodeId(0), "x", 3);
        m.add(NodeId(0), "x", 4);
        m.add(NodeId(1), "x", 10);
        assert_eq!(m.counter(NodeId(0), "x"), 7);
        assert_eq!(m.sum("x"), 17);
        assert_eq!(m.counter(NodeId(2), "x"), 0);
        assert_eq!(m.counter(NodeId(0), "never-recorded"), 0);
        assert_eq!(m.sum("never-recorded"), 0);
    }

    #[test]
    fn interned_and_string_apis_share_counters() {
        let mut m = Metrics::new();
        m.add_id(NodeId(3), mid::NET_SENT_PKTS, 5);
        m.add(NodeId(3), "net.sent_pkts", 2);
        assert_eq!(m.counter(NodeId(3), "net.sent_pkts"), 7);
        assert_eq!(m.counter_id(NodeId(3), mid::NET_SENT_PKTS), 7);
        assert_eq!(m.sum_id(mid::NET_SENT_PKTS), 7);
        let id = m.intern("custom.metric");
        assert_eq!(id, m.intern("custom.metric"));
        m.add_id(NodeId(0), id, 9);
        assert_eq!(m.counter(NodeId(0), "custom.metric"), 9);
    }

    #[test]
    fn builtin_names_align_with_ids() {
        let mut m = Metrics::new();
        for (i, &name) in super::BUILTIN_NAMES.iter().enumerate() {
            let id = m.intern(name);
            assert_eq!(id.index(), i, "{name} interned at the wrong index");
        }
        assert_eq!(builtin_name(mid::DELIVERED_MSGS), "abcast.delivered_msgs");
    }

    #[test]
    fn for_each_counter_sorted_and_nonzero() {
        let mut m = Metrics::new();
        m.add(NodeId(1), "b", 2);
        m.add(NodeId(1), "a", 1);
        m.add(NodeId(0), "z", 3);
        m.add(NodeId(2), "zero", 0);
        let mut seen = Vec::new();
        m.for_each_counter(|n, name, v| seen.push((n.0, name.to_string(), v)));
        assert_eq!(
            seen,
            vec![(0, "z".to_string(), 3), (1, "a".to_string(), 1), (1, "b".to_string(), 2),]
        );
    }

    #[test]
    fn latency_percentiles() {
        let mut m = Metrics::new();
        for i in 1..=100u64 {
            m.record_latency("l", Dur::micros(i));
        }
        let s = m.latency("l");
        assert_eq!(s.count, 100);
        close(s.p50, Dur::micros(50), 2.0);
        close(s.p95, Dur::micros(95), 2.0);
        close(s.p99, Dur::micros(99), 2.0);
        assert_eq!(s.max, Dur::micros(100)); // exact
        assert_eq!(s.mean, Dur::nanos(50_500)); // exact
                                                // trimmed mean discards samples 96..=100 (exact answer 48 us).
        close(s.trimmed_mean_95, Dur::micros(48), 2.0);
    }

    #[test]
    fn tiny_samples_are_exact() {
        let mut m = Metrics::new();
        for v in [1u64, 2, 3, 60] {
            m.record_latency("t", Dur::nanos(v));
        }
        let s = m.latency("t");
        assert_eq!(s.p50, Dur::nanos(2));
        assert_eq!(s.max, Dur::nanos(60));
    }

    #[test]
    fn empty_latency_is_zeroed() {
        let m = Metrics::new();
        assert_eq!(m.latency("none").count, 0);
        assert_eq!(m.latency("none").mean, Dur::ZERO);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut m = Metrics::new();
        for i in [5u64, 1, 9, 3, 7] {
            m.record_latency("c", Dur::micros(i));
        }
        let cdf = m.latency_cdf("c", 5);
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        close(cdf.last().unwrap().0, Dur::micros(9), 2.0);
    }

    #[test]
    fn histogram_memory_stays_bounded() {
        let mut m = Metrics::new();
        for i in 0..1_000_000u64 {
            m.record_latency("big", Dur::nanos(i * 37 % 10_000_000));
        }
        let h = m.latencies.get("big").expect("recorded");
        assert_eq!(h.count, 1_000_000);
        // ~23 octaves * 64 sub-buckets, far below one u64 per sample.
        assert!(h.buckets.len() < 4096, "bucket count {}", h.buckets.len());
        // Values below 7e6 occur 4×, the rest 3×: the true median is at
        // 4x/37 = 500_000 → x = 4.625e6 ns.
        let s = m.latency("big");
        close(s.p50, Dur::nanos(4_625_000), 3.0);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for v in [1u64, 63, 64, 100, 1000, 12_345, 1_000_000, 987_654_321, u64::MAX / 2] {
            let repr = super::bucket_value(super::bucket_of(v));
            let err = (repr as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 64.0, "v={v} repr={repr} err={err}");
        }
    }

    #[test]
    fn unit_conversions() {
        assert!((mbps(125_000_000, Dur::secs(1)) - 1000.0).abs() < 1e-9);
        assert!((per_sec(500, Dur::millis(500)) - 1000.0).abs() < 1e-9);
        assert_eq!(mbps(1, Dur::ZERO), 0.0);
    }

    #[test]
    fn take_latency_drains() {
        let mut m = Metrics::new();
        m.record_latency("w", Dur::micros(10));
        let s = m.take_latency("w");
        assert_eq!(s.count, 1);
        assert_eq!(m.latency("w").count, 0);
    }

    #[test]
    fn percentile_of_empty_recorder_is_none() {
        let mut m = Metrics::new();
        assert_eq!(m.percentile("never", 0.5), None);
        // A counter under the same name still has no latency samples.
        m.add(NodeId(0), "never", 1);
        assert_eq!(m.percentile("never", 0.5), None);
        m.record_latency("some", Dur::micros(10));
        let p = m.percentile("some", 0.5).expect("one sample recorded");
        close(p, Dur::micros(10), 2.0);
    }

    #[test]
    fn fork_merge_is_commutative_for_counters_and_latencies() {
        // Two zeroed forks of the same registry, each with its own
        // counters and latency samples, folded in both orders.
        let mk_base = || {
            let mut m = Metrics::new();
            m.add(NodeId(0), "x", 1);
            m.record_latency("l", Dur::micros(1));
            m
        };
        let base = mk_base();
        let mut fa = base.fork_zeroed();
        let mut fb = base.fork_zeroed();
        assert_eq!(fa.latency("l").count, 0, "fork must not inherit samples");
        assert_eq!(fa.counter(NodeId(0), "x"), 0, "fork must not inherit counts");
        fa.add(NodeId(0), "x", 10);
        fa.add(NodeId(1), "y", 3);
        for i in 1..=50u64 {
            fa.record_latency("l", Dur::micros(i));
        }
        fb.add(NodeId(0), "x", 20);
        fb.add(NodeId(2), "z", 7);
        for i in 51..=100u64 {
            fb.record_latency("l", Dur::micros(i));
        }

        let mut ab = mk_base();
        ab.merge_from(&fa);
        ab.merge_from(&fb);
        let mut ba = mk_base();
        ba.merge_from(&fb);
        ba.merge_from(&fa);

        let snapshot = |m: &Metrics| {
            let mut counters = Vec::new();
            m.for_each_counter(|n, name, v| counters.push((n.0, name.to_string(), v)));
            let l = m.latency("l");
            (counters, l.count, l.mean, l.p50, l.p95, l.max)
        };
        assert_eq!(snapshot(&ab), snapshot(&ba));
        assert_eq!(ab.counter(NodeId(0), "x"), 31);
        assert_eq!(ab.latency("l").count, 101);
        assert_eq!(ab.latency("l").max, Dur::micros(100));

        // A registry with a different intern order folds by name.
        let mut other = Metrics::new();
        other.add(NodeId(1), "z", 2);
        other.add(NodeId(1), "x", 4);
        ab.merge_from(&other);
        assert_eq!(ab.counter(NodeId(1), "x"), 4);
        assert_eq!(ab.counter(NodeId(1), "z"), 2);
        assert_eq!(ab.sum("z"), 9);
    }
}
