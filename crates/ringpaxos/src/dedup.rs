//! Bounded duplicate detection for delivered values.
//!
//! Learners must deliver each value exactly once even when failover makes
//! proposers resubmit (§3.3.5). The naive approach — a `HashSet` of every
//! delivered [`MsgId`](abcast::MsgId) — grows without bound over a long
//! run (a real memory leak at hundreds of thousands of deliveries per
//! second) and pays a hash per delivered value.
//!
//! [`DeliveredTracker`] exploits the structure of the ids: each proposer
//! stamps values with a contiguous per-proposer sequence number, and
//! deliveries are *almost* in per-proposer order (out-of-order deliveries
//! happen only around failover resubmission). Per proposer we keep one
//! **watermark** — the lowest sequence not yet known delivered — plus a
//! small overflow set for the out-of-order window above it. The common
//! case (`seq == watermark`) is an array index and an increment; memory
//! is O(proposers + transient out-of-order window) instead of
//! O(deliveries).

use std::collections::BTreeSet;

use simnet::ids::NodeId;

/// Upper bound on parked out-of-order entries. The overflow set only
/// grows while deliveries arrive out of per-proposer order (failover
/// windows), so in steady state it is near-empty; the bound is a backstop
/// against pathological reordering keeping the tracker O(proposers).
pub const MAX_OVERFLOW: usize = 4096;

/// Per-learner counter of overflow evictions ([`DeliveredTracker::
/// take_evictions`]). Bumped only when an eviction happened, so it is
/// absent from runs that never evict.
pub const DEDUP_EVICT: &str = "rp.dedup_evict";

/// Exactly-once filter over `(proposer, seq)` pairs with per-proposer
/// contiguous-sequence watermarks and a bounded overflow set.
///
/// When the overflow set hits [`MAX_OVERFLOW`], the lowest parked run of
/// the proposer with the *most* parked entries — the one driving the
/// pathology — is evicted by collapsing that proposer's watermark up
/// past it. That treats the unseen gap below the evicted run as
/// delivered: a value in the gap that later arrives for the first time
/// is reported as a duplicate (i.e. lost). Eviction therefore trades
/// possible message loss for the misbehaving stream against a hard
/// memory bound, while preserving at-most-once delivery — never
/// duplication — and leaving well-behaved proposers untouched. Every
/// eviction is counted, so the loss it may cause is visible
/// ([`DEDUP_EVICT`]).
#[derive(Debug, Default)]
pub struct DeliveredTracker {
    /// `marks[p]` = lowest sequence of proposer `p` not yet delivered
    /// (every seq below it has been). Grown on first use per proposer.
    marks: Vec<u64>,
    /// Delivered sequences at or above their proposer's watermark
    /// (out-of-order window; drained as the watermark advances).
    overflow: BTreeSet<(usize, u64)>,
    /// `parked[p]` = entries of proposer `p` in `overflow` (eviction
    /// picks the largest).
    parked: Vec<usize>,
    /// Evictions not yet collected by [`DeliveredTracker::take_evictions`].
    evictions: u64,
}

impl DeliveredTracker {
    /// Creates an empty tracker.
    pub fn new() -> DeliveredTracker {
        DeliveredTracker::default()
    }

    /// Records a delivery of `(proposer, seq)`. Returns `true` when fresh
    /// (deliver it) and `false` for a duplicate (drop it).
    pub fn fresh(&mut self, proposer: NodeId, seq: u64) -> bool {
        let p = proposer.0;
        if p >= self.marks.len() {
            self.marks.resize(p + 1, 0);
            self.parked.resize(p + 1, 0);
        }
        let mark = self.marks[p];
        if seq < mark {
            return false;
        }
        if seq == mark {
            // The common case: in-order delivery. Advance the watermark
            // through any overflow entries it now reaches.
            let mut next = mark + 1;
            while self.overflow.remove(&(p, next)) {
                self.parked[p] -= 1;
                next += 1;
            }
            self.marks[p] = next;
            true
        } else {
            // Out-of-order (failover window): park above the watermark.
            let inserted = self.overflow.insert((p, seq));
            if inserted {
                self.parked[p] += 1;
                if self.overflow.len() > MAX_OVERFLOW {
                    self.evict_heaviest();
                }
            }
            inserted
        }
    }

    /// Drops the lowest parked run of the proposer with the most parked
    /// entries by collapsing that proposer's watermark past it. See the
    /// type docs for the semantics. O(proposers + run) per call, and
    /// called at most once per insert beyond the bound.
    fn evict_heaviest(&mut self) {
        let Some(victim) = (0..self.parked.len()).max_by_key(|&p| self.parked[p]) else { return };
        let Some(&(p, seq)) = self.overflow.range((victim, 0)..=(victim, u64::MAX)).next() else {
            return;
        };
        self.overflow.remove(&(p, seq));
        self.parked[p] -= 1;
        self.evictions += 1;
        let mut next = seq + 1;
        while self.overflow.remove(&(p, next)) {
            self.parked[p] -= 1;
            next += 1;
        }
        self.marks[p] = self.marks[p].max(next);
    }

    /// Evictions since the previous call. Learners publish the delta as
    /// their [`DEDUP_EVICT`] counter.
    pub fn take_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.evictions)
    }

    /// Entries currently parked out of order (diagnostics/tests).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Externalizes the tracker for a checkpoint: the per-proposer
    /// watermarks plus any entries parked out of order above them.
    pub fn export(&self) -> (Vec<u64>, Vec<(u64, u64)>) {
        let parked = self.overflow.iter().map(|&(p, s)| (p as u64, s)).collect();
        (self.marks.clone(), parked)
    }

    /// Rebuilds a tracker from checkpointed state ([`DeliveredTracker::
    /// export`]), so a restarted learner resumes exactly-once filtering
    /// from the checkpoint's basis.
    pub fn restore(marks: Vec<u64>, parked: Vec<(u64, u64)>) -> DeliveredTracker {
        let mut t = DeliveredTracker {
            parked: vec![0; marks.len()],
            marks,
            overflow: BTreeSet::new(),
            evictions: 0,
        };
        for (p, s) in parked {
            let p = p as usize;
            if p >= t.marks.len() {
                t.marks.resize(p + 1, 0);
                t.parked.resize(p + 1, 0);
            }
            if t.overflow.insert((p, s)) {
                t.parked[p] += 1;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_uses_no_overflow() {
        let mut t = DeliveredTracker::new();
        for seq in 0..10_000 {
            assert!(t.fresh(NodeId(3), seq));
        }
        assert_eq!(t.overflow_len(), 0);
        // Everything replays as a duplicate.
        for seq in 0..10_000 {
            assert!(!t.fresh(NodeId(3), seq));
        }
    }

    #[test]
    fn out_of_order_window_drains() {
        let mut t = DeliveredTracker::new();
        assert!(t.fresh(NodeId(0), 2));
        assert!(t.fresh(NodeId(0), 1));
        assert_eq!(t.overflow_len(), 2);
        assert!(t.fresh(NodeId(0), 0)); // watermark sweeps through 0..=2
        assert_eq!(t.overflow_len(), 0);
        assert!(!t.fresh(NodeId(0), 1));
        assert!(!t.fresh(NodeId(0), 2));
        assert!(t.fresh(NodeId(0), 3));
    }

    #[test]
    fn proposers_are_independent() {
        let mut t = DeliveredTracker::new();
        assert!(t.fresh(NodeId(0), 0));
        assert!(t.fresh(NodeId(7), 0));
        assert!(!t.fresh(NodeId(7), 0));
        assert!(t.fresh(NodeId(7), 1));
        assert!(t.fresh(NodeId(0), 1));
    }

    #[test]
    fn duplicate_in_overflow_detected() {
        let mut t = DeliveredTracker::new();
        assert!(t.fresh(NodeId(1), 5));
        assert!(!t.fresh(NodeId(1), 5));
        assert!(t.fresh(NodeId(1), 0));
        assert!(!t.fresh(NodeId(1), 5));
    }

    #[test]
    fn overflow_evicts_at_the_bound() {
        let mut t = DeliveredTracker::new();
        // Park MAX_OVERFLOW out-of-order entries (seq 1.. leaves the
        // watermark at 0, so nothing collapses).
        for seq in 1..=MAX_OVERFLOW as u64 {
            assert!(t.fresh(NodeId(0), seq));
        }
        assert_eq!(t.overflow_len(), MAX_OVERFLOW);
        // One more entry trips the bound: this proposer owns every parked
        // entry, so its lowest run (1..=MAX_OVERFLOW, contiguous) is
        // evicted by collapsing the watermark.
        assert!(t.fresh(NodeId(0), MAX_OVERFLOW as u64 + 2));
        assert!(t.overflow_len() <= MAX_OVERFLOW, "bound not enforced");
        // The evicted run is still deduplicated (watermark covers it)...
        assert!(!t.fresh(NodeId(0), 1));
        assert!(!t.fresh(NodeId(0), MAX_OVERFLOW as u64));
        // ...and so is the unseen gap it collapsed over (seq 0 was never
        // delivered; suppressing it is the documented loss-not-dup trade).
        assert!(!t.fresh(NodeId(0), 0));
    }

    #[test]
    fn evictions_are_counted_from_the_bound_on() {
        let mut t = DeliveredTracker::new();
        for seq in 1..=MAX_OVERFLOW as u64 {
            assert!(t.fresh(NodeId(0), seq));
        }
        assert_eq!(t.take_evictions(), 0, "filling up to the bound evicts nothing");
        // The first entry past the bound evicts exactly once...
        assert!(t.fresh(NodeId(0), MAX_OVERFLOW as u64 + 2));
        assert_eq!(t.take_evictions(), 1);
        // ...and the count is a delta: taken once, then zero again.
        assert_eq!(t.take_evictions(), 0);
        // Every further overflow insert past the bound evicts again.
        let base = MAX_OVERFLOW as u64 + 4;
        for k in 0..=MAX_OVERFLOW as u64 {
            assert!(t.fresh(NodeId(5), base + 2 * k));
        }
        assert!(t.take_evictions() >= 1);
    }

    #[test]
    fn eviction_hits_the_flooding_proposer_not_bystanders() {
        let mut t = DeliveredTracker::new();
        // Proposer 9 floods the overflow set; proposer 1 has one benign
        // parked entry (watermark 0, seqs 0.. still in flight).
        for seq in 1..=MAX_OVERFLOW as u64 - 1 {
            assert!(t.fresh(NodeId(9), seq));
        }
        assert!(t.fresh(NodeId(1), 7));
        assert_eq!(t.overflow_len(), MAX_OVERFLOW);
        assert!(t.fresh(NodeId(1), 9)); // trips the bound
        assert!(t.overflow_len() <= MAX_OVERFLOW);
        // The flooder's run was evicted (its watermark collapsed)...
        assert!(!t.fresh(NodeId(9), 1));
        assert!(!t.fresh(NodeId(9), MAX_OVERFLOW as u64 - 1));
        // ...while the bystander's state is fully intact: parked entries
        // still deduplicate and its in-flight low seqs still deliver.
        assert!(!t.fresh(NodeId(1), 7));
        assert!(!t.fresh(NodeId(1), 9));
        assert!(t.fresh(NodeId(1), 0));
        assert!(t.fresh(NodeId(1), 8));
    }

    #[test]
    fn watermark_advance_collapses_overflow_in_runs() {
        let mut t = DeliveredTracker::new();
        // Park 2, 3, 5 (gap at 4).
        assert!(t.fresh(NodeId(0), 2));
        assert!(t.fresh(NodeId(0), 3));
        assert!(t.fresh(NodeId(0), 5));
        assert_eq!(t.overflow_len(), 3);
        // Delivering 0 advances the watermark to 1 only (2 is not
        // contiguous with 0's sweep).
        assert!(t.fresh(NodeId(0), 0));
        assert_eq!(t.overflow_len(), 3);
        // Delivering 1 sweeps the contiguous run 2, 3 but stops at the
        // gap before 5.
        assert!(t.fresh(NodeId(0), 1));
        assert_eq!(t.overflow_len(), 1);
        assert!(!t.fresh(NodeId(0), 2), "collapsed entries stay duplicates");
        assert!(!t.fresh(NodeId(0), 3));
        // Filling the gap sweeps the rest.
        assert!(t.fresh(NodeId(0), 4));
        assert_eq!(t.overflow_len(), 0);
        assert!(!t.fresh(NodeId(0), 5));
        assert!(t.fresh(NodeId(0), 6));
    }

    #[test]
    fn out_of_order_straddling_the_watermark() {
        let mut t = DeliveredTracker::new();
        // In-order prefix moves the watermark to 3.
        for seq in 0..3 {
            assert!(t.fresh(NodeId(0), seq));
        }
        // A resubmission burst delivers 5 early, then replays 1 (below
        // the watermark) and finally fills 3 and 4.
        assert!(t.fresh(NodeId(0), 5));
        assert!(!t.fresh(NodeId(0), 1), "below-watermark replay is a duplicate");
        assert!(!t.fresh(NodeId(0), 5), "parked replay is a duplicate");
        assert!(t.fresh(NodeId(0), 3));
        assert_eq!(t.overflow_len(), 1, "5 still parked across the advance");
        assert!(t.fresh(NodeId(0), 4));
        assert_eq!(t.overflow_len(), 0);
        assert!(!t.fresh(NodeId(0), 4));
        assert!(!t.fresh(NodeId(0), 5));
        assert!(t.fresh(NodeId(0), 6));
    }
}
