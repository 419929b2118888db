//! Application values and consensus batches.
//!
//! Ring Paxos executes consensus on *batches*: the coordinator packs many
//! application values into one packet (8 KB for M-Ring Paxos, 32 KB for
//! U-Ring Paxos) and runs one consensus instance per packet (§3.5.2).
//!
//! # Cached routing
//!
//! A batch travels every link of the ring, and each hop must know how
//! many payload bytes it actually carries (a value's payload is omitted
//! on hops where the receiver has already seen it — the rule that makes
//! U-Ring Paxos ~90 % efficient, Table 3.2). Computing that per hop from
//! scratch costs O(batch × ring) lookups of each proposer's ring
//! position. [`BatchData`] therefore precomputes, once at pack time:
//!
//! * the batch's **total payload bytes** ([`BatchData::payload_bytes`],
//!   read constantly by M-Ring's wire-size calculations), and
//! * a **per-position suffix table** of payload bytes
//!   ([`BatchData::bytes_needed_beyond`]), which turns U-Ring's per-hop
//!   byte calculation into a single table read.
//!
//! A [`Batch`] is an `Rc<BatchData>`: cloning is a non-atomic
//! reference-count bump (the simulator is single-threaded), and the
//! cached tables are shared by every process the batch passes through.

use std::ops::Deref;
use std::rc::Rc;

use abcast::MsgId;
use simnet::ids::NodeId;
use simnet::time::Time;

/// One application value travelling through the broadcast layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// Globally unique message id.
    pub id: MsgId,
    /// Node that proposed the value (records latency, receives dedup).
    pub proposer: NodeId,
    /// Per-proposer sequence number, used to deduplicate after failover.
    pub seq: u64,
    /// Application payload size in bytes.
    pub bytes: u32,
    /// When the proposer submitted the value (for latency measurement).
    pub submitted: Time,
    /// Partition bitmask for state partitioning (ch. 4 §4.2.2): which
    /// partitions the command accesses. `ALL_PARTITIONS` for classic
    /// (unpartitioned) broadcast.
    pub mask: u32,
}

/// Mask meaning "every partition" (classic atomic broadcast).
pub const ALL_PARTITIONS: u32 = u32::MAX;

/// An immutable, cheaply clonable batch of values — the `v-val` of one
/// consensus instance — with routing tables precomputed at pack time.
pub type Batch = Rc<BatchData>;

/// The values of one consensus instance plus cached routing data.
/// Dereferences to `[Value]`, so iteration and indexing read exactly as
/// they would over a plain `Vec<Value>`.
#[derive(Debug, PartialEq)]
pub struct BatchData {
    values: Vec<Value>,
    /// Total application payload bytes (cached `Σ values[i].bytes`).
    total_bytes: u64,
    /// `suffix[p]` = payload bytes of values whose proposer sits at a
    /// ring position ≥ `p` (positions ≥ 1 only). Empty for batches packed
    /// without a ring (M-Ring, skips): every hop then carries the full
    /// payload, which is M-Ring's actual behaviour.
    suffix: Vec<u64>,
    /// Payload bytes of values that every hop must carry: proposer at
    /// ring position 0 (the coordinator) or off-ring.
    always_bytes: u64,
}

impl BatchData {
    /// Packs `values` without ring-position data (M-Ring Paxos batches,
    /// skip batches, tests). Total bytes are still cached.
    pub fn new(values: Vec<Value>) -> Batch {
        let total_bytes = values.iter().map(|v| v.bytes as u64).sum();
        Rc::new(BatchData { values, total_bytes, suffix: Vec::new(), always_bytes: total_bytes })
    }

    /// The empty batch (skip instances, takeover placeholders).
    pub fn empty() -> Batch {
        BatchData::new(Vec::new())
    }

    /// Packs `values` for a U-Ring deployment, caching each value's
    /// proposer position on `ring` as a per-position byte-suffix table.
    /// Pack time is O(batch × ring); every subsequent
    /// [`BatchData::bytes_needed_beyond`] is O(1).
    pub fn pack(values: Vec<Value>, ring: &[NodeId]) -> Batch {
        let mut total_bytes = 0u64;
        let mut always_bytes = 0u64;
        // per_pos[p] = payload bytes proposed from ring position p.
        let mut per_pos = vec![0u64; ring.len() + 1];
        for v in &values {
            total_bytes += v.bytes as u64;
            match ring.iter().position(|&n| n == v.proposer) {
                // Position 0 (the coordinator) and off-ring proposers:
                // every forwarding hop needs the payload.
                Some(0) | None => always_bytes += v.bytes as u64,
                Some(p) => per_pos[p] += v.bytes as u64,
            }
        }
        // suffix[p] = Σ per_pos[p..]
        let mut suffix = per_pos;
        for p in (0..suffix.len().saturating_sub(1)).rev() {
            suffix[p] += suffix[p + 1];
        }
        Rc::new(BatchData { values, total_bytes, suffix, always_bytes })
    }

    /// The values in the batch.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Total application payload bytes (cached).
    pub fn payload_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Payload bytes a hop into ring position `next_pos` must carry for
    /// values whose proposer sits *at or beyond* that position — i.e.
    /// receivers that have not yet seen those payloads on the value's way
    /// to the coordinator — plus the always-carried bytes. O(1) from the
    /// pack-time table.
    pub fn bytes_needed_beyond(&self, next_pos: usize) -> u64 {
        let suffixed = if next_pos + 1 < self.suffix.len() { self.suffix[next_pos + 1] } else { 0 };
        self.always_bytes + suffixed
    }
}

impl Deref for BatchData {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

/// Total application payload bytes in a batch (cached field read).
pub fn batch_bytes(batch: &Batch) -> u64 {
    batch.payload_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(id: u64, proposer: usize, bytes: u32) -> Value {
        Value {
            id: MsgId(id),
            proposer: NodeId(proposer),
            seq: id,
            bytes,
            submitted: Time::ZERO,
            mask: ALL_PARTITIONS,
        }
    }

    #[test]
    fn batch_bytes_sums_payloads() {
        let b: Batch = BatchData::new(vec![val(1, 0, 100), val(2, 0, 156)]);
        assert_eq!(batch_bytes(&b), 256);
        assert_eq!(b.payload_bytes(), 256);
    }

    #[test]
    fn deref_iterates_values() {
        let b = BatchData::new(vec![val(1, 0, 10), val(2, 1, 20)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.iter().map(|v| v.bytes).sum::<u32>(), 30);
        assert!(BatchData::empty().is_empty());
    }

    #[test]
    fn suffix_table_matches_linear_scan() {
        let ring: Vec<NodeId> = (0..5).map(NodeId).collect();
        // Proposers at positions 0 (coordinator), 2, 4, and one off-ring.
        let values = vec![val(1, 0, 100), val(2, 2, 200), val(3, 4, 400), val(4, 99, 800)];
        let b = BatchData::pack(values.clone(), &ring);
        for next_pos in 0..ring.len() {
            // Reference: the original O(batch × ring) rule.
            let want: u64 = values
                .iter()
                .map(|v| {
                    let p = ring.iter().position(|&n| n == v.proposer);
                    let needed = match p {
                        Some(0) | None => true,
                        Some(p) => next_pos < p,
                    };
                    if needed {
                        v.bytes as u64
                    } else {
                        0
                    }
                })
                .sum();
            assert_eq!(b.bytes_needed_beyond(next_pos), want, "next_pos {next_pos}");
        }
    }

    #[test]
    fn unindexed_batch_carries_everything() {
        let b = BatchData::new(vec![val(1, 2, 100), val(2, 3, 200)]);
        for pos in 0..4 {
            assert_eq!(b.bytes_needed_beyond(pos), 300);
        }
    }
}
