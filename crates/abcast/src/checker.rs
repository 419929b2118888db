//! Correctness checkers for atomic broadcast and atomic multicast.
//!
//! Protocol tests share a [`DeliveryLog`]: every learner appends the ids of
//! messages as it delivers them, and the checkers verify the properties of
//! §2.2.3/§2.2.4 — uniform integrity, uniform agreement (modulo still-
//! running learners), and uniform total/partial order.

use std::cell::{BorrowMutError, RefCell, RefMut};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Globally unique id of a broadcast message.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// Per-learner delivery sequences, appended as the simulation runs.
#[derive(Debug, Default)]
pub struct DeliveryLog {
    sequences: Vec<Vec<MsgId>>,
    /// Restart marks per learner: `(log_len_at_restart, resume_pos,
    /// transferred)`. A learner that recovers from a checkpoint taken at
    /// global delivery position `resume_pos` records a mark when it
    /// comes back up; its subsequent deliveries re-apply the total order
    /// from that basis. `transferred` marks a basis adopted from a
    /// *peer's* checkpoint (state transfer): it may exceed what this
    /// learner's own incarnations covered, because the transferred state
    /// provably includes that prefix.
    restarts: Vec<Vec<(usize, usize, bool)>>,
    /// Configuration-epoch marks per learner: `(log_len_at_mark, epoch)`.
    /// Failover-enabled protocols record the epoch (round) each time the
    /// learner adopts a new configuration; epochs must never regress.
    epochs: Vec<Vec<(usize, u64)>>,
}

/// Shared handle protocols use to record deliveries. Learners and the
/// experiment driver hold clones of one log; the simulation runs on a
/// single thread, so the log is a `RefCell`, not a mutex.
#[derive(Clone, Debug)]
pub struct SharedLog(Rc<RefCell<DeliveryLog>>);

impl SharedLog {
    /// Borrows the log for reading or recording. Fails only if the log
    /// is already borrowed — a caller holding a guard across a call that
    /// records into the same log.
    pub fn lock(&self) -> Result<RefMut<'_, DeliveryLog>, BorrowMutError> {
        self.0.try_borrow_mut()
    }
}

/// Creates a shared log for `learners` learners.
pub fn shared_log(learners: usize) -> SharedLog {
    SharedLog(Rc::new(RefCell::new(DeliveryLog::new(learners))))
}

impl DeliveryLog {
    /// Creates a log with one sequence per learner.
    pub fn new(learners: usize) -> DeliveryLog {
        DeliveryLog {
            sequences: vec![Vec::new(); learners],
            restarts: vec![Vec::new(); learners],
            epochs: vec![Vec::new(); learners],
        }
    }

    /// Records that `learner` delivered `msg`.
    pub fn deliver(&mut self, learner: usize, msg: MsgId) {
        self.sequences[learner].push(msg);
    }

    /// Records that `learner` restarted and resumed delivery from global
    /// position `resume_pos` (the delivery count covered by the
    /// checkpoint its recovered state was restored from; `0` for a
    /// from-scratch restart). Deliveries recorded after this mark are
    /// checked against the total order starting at `resume_pos`.
    pub fn mark_restart(&mut self, learner: usize, resume_pos: usize) {
        let at = self.sequences[learner].len();
        self.restarts[learner].push((at, resume_pos, false));
    }

    /// Records that `learner` adopted a *peer's* checkpoint covering
    /// `resume_pos` deliveries (state transfer mid-catch-up). Unlike
    /// [`DeliveryLog::mark_restart`], the basis may exceed this
    /// learner's own prior coverage.
    pub fn mark_state_transfer(&mut self, learner: usize, resume_pos: usize) {
        let at = self.sequences[learner].len();
        self.restarts[learner].push((at, resume_pos, true));
    }

    /// The restart marks recorded for `learner`:
    /// `(log_len_at_restart, resume_pos, transferred)`.
    pub fn restarts_of(&self, learner: usize) -> &[(usize, usize, bool)] {
        &self.restarts[learner]
    }

    /// Records that `learner` adopted configuration epoch `epoch` (a
    /// failover round, encoded by the protocol). Consecutive duplicate
    /// marks collapse, so re-announcements of the same epoch are free.
    pub fn mark_epoch(&mut self, learner: usize, epoch: u64) {
        if self.epochs[learner].last().map(|&(_, e)| e) == Some(epoch) {
            return;
        }
        let at = self.sequences[learner].len();
        self.epochs[learner].push((at, epoch));
    }

    /// The epoch marks recorded for `learner`: `(log_len_at_mark, epoch)`.
    pub fn epochs_of(&self, learner: usize) -> &[(usize, u64)] {
        &self.epochs[learner]
    }

    /// Configuration epochs must be monotonic per incarnation: a learner
    /// adopting a *lower* epoch than one it already held means stale
    /// configuration traffic (e.g. a deposed coordinator's 2B flow) got
    /// past the epoch fence. A restart legitimately resets the horizon —
    /// the fresh incarnation re-learns the current epoch from its log
    /// and the ring, so the check restarts at each restart mark.
    pub fn check_epoch_monotonic(&self) -> Result<(), OrderViolation> {
        for (l, marks) in self.epochs.iter().enumerate() {
            let mut restart_idx = 0usize;
            let mut horizon: Option<u64> = None;
            for &(at, epoch) in marks {
                while self.restarts[l].get(restart_idx).is_some_and(|&(r, _, _)| r <= at) {
                    restart_idx += 1;
                    horizon = None;
                }
                if let Some(h) = horizon {
                    if epoch < h {
                        return Err(OrderViolation::EpochRegression {
                            learner: l,
                            at,
                            from: h,
                            to: epoch,
                        });
                    }
                }
                horizon = Some(epoch);
            }
        }
        Ok(())
    }

    /// The delivery sequence of one learner.
    pub fn sequence(&self, learner: usize) -> &[MsgId] {
        &self.sequences[learner]
    }

    /// Number of learners tracked.
    pub fn learners(&self) -> usize {
        self.sequences.len()
    }

    /// Total deliveries across learners.
    pub fn total_deliveries(&self) -> usize {
        self.sequences.iter().map(|s| s.len()).sum()
    }

    /// Uniform integrity: no learner delivers the same message twice, and
    /// every delivered message was broadcast.
    pub fn check_integrity(&self, broadcast: &HashSet<MsgId>) -> Result<(), OrderViolation> {
        for (l, seq) in self.sequences.iter().enumerate() {
            let mut seen = HashSet::with_capacity(seq.len());
            for &m in seq {
                if !seen.insert(m) {
                    return Err(OrderViolation::Duplicate { learner: l, msg: m });
                }
                if !broadcast.contains(&m) {
                    return Err(OrderViolation::Phantom { learner: l, msg: m });
                }
            }
        }
        Ok(())
    }

    /// Uniform total order for atomic *broadcast*: every learner's sequence
    /// must be a prefix of the longest sequence (learners may lag, but may
    /// not reorder or skip).
    pub fn check_total_order(&self) -> Result<(), OrderViolation> {
        let longest = match self.sequences.iter().max_by_key(|s| s.len()) {
            Some(s) => s,
            None => return Ok(()),
        };
        for (l, seq) in self.sequences.iter().enumerate() {
            for (pos, (&a, &b)) in seq.iter().zip(longest.iter()).enumerate() {
                if a != b {
                    return Err(OrderViolation::Diverged {
                        learner: l,
                        position: pos,
                        got: a,
                        expected: b,
                    });
                }
            }
        }
        Ok(())
    }

    /// Uniform partial order for atomic *multicast*: any two learners that
    /// both deliver messages `m` and `m'` deliver them in the same relative
    /// order (§2.2.4). Quadratic in common messages — intended for tests.
    pub fn check_partial_order(&self) -> Result<(), OrderViolation> {
        let positions: Vec<HashMap<MsgId, usize>> = self
            .sequences
            .iter()
            .map(|seq| seq.iter().enumerate().map(|(i, &m)| (m, i)).collect())
            .collect();
        for a in 0..self.sequences.len() {
            for b in (a + 1)..self.sequences.len() {
                let common: Vec<MsgId> = self.sequences[a]
                    .iter()
                    .copied()
                    .filter(|m| positions[b].contains_key(m))
                    .collect();
                for i in 0..common.len() {
                    for j in (i + 1)..common.len() {
                        let (m1, m2) = (common[i], common[j]);
                        // m1 precedes m2 at a (by construction); check b.
                        if positions[b][&m1] > positions[b][&m2] {
                            return Err(OrderViolation::PartialOrder {
                                learner_a: a,
                                learner_b: b,
                                first: m1,
                                second: m2,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Crash-aware agreement at quiescence: verifies learners that
    /// restarted mid-run ([`DeliveryLog::mark_restart`]) for **no lost
    /// and no duplicated deliveries** against the total order.
    ///
    /// The raw sequence of a restarted learner legitimately re-contains
    /// messages delivered between its last checkpoint and the crash —
    /// the recovered *state* excludes them, so re-delivery is correct,
    /// not duplication. The check therefore works per **epoch** (the
    /// deliveries of one incarnation): each epoch must replay the
    /// reference order exactly from its recorded resume basis (no
    /// duplicate or skipped message relative to the state it resumed
    /// from), an epoch may not resume beyond what the previous
    /// incarnations covered (that gap would be lost deliveries), and the
    /// final epoch must reach the reference end (nothing lost overall).
    ///
    /// The reference order is the longest sequence of an uninterrupted
    /// learner in `expected`; at least one such learner is required.
    ///
    /// Configuration epochs, when recorded ([`DeliveryLog::mark_epoch`]),
    /// are verified monotonic first: agreement across a coordinator
    /// failover only means anything if no learner regressed to a stale
    /// epoch along the way.
    pub fn check_crash_agreement(&self, expected: &[usize]) -> Result<(), OrderViolation> {
        self.check_epoch_monotonic()?;
        let reference = expected
            .iter()
            .filter(|&&l| self.restarts[l].is_empty())
            .map(|&l| &self.sequences[l])
            .max_by_key(|s| s.len())
            .expect("crash-aware agreement needs an uninterrupted reference learner");
        for &l in expected {
            let seq = &self.sequences[l];
            // Epoch boundaries: (start index, basis position, transferred).
            let mut epochs: Vec<(usize, usize, bool)> = vec![(0, 0, false)];
            epochs.extend(self.restarts[l].iter().copied());
            let mut covered = 0usize; // reference prefix known applied
            for (e, &(start, basis, transferred)) in epochs.iter().enumerate() {
                let end = epochs.get(e + 1).map_or(seq.len(), |&(s, _, _)| s);
                if basis > covered && !transferred {
                    return Err(OrderViolation::ResumeGap {
                        learner: l,
                        covered_to: covered,
                        resumed_at: basis,
                    });
                }
                for (j, &got) in seq[start..end].iter().enumerate() {
                    let pos = basis + j;
                    match reference.get(pos) {
                        Some(&want) if want == got => {}
                        Some(&want) => {
                            return Err(OrderViolation::Diverged {
                                learner: l,
                                position: pos,
                                got,
                                expected: want,
                            });
                        }
                        None => {
                            return Err(OrderViolation::Phantom { learner: l, msg: got });
                        }
                    }
                }
                covered = covered.max(basis + (end - start));
            }
            if covered != reference.len() {
                return Err(OrderViolation::Lagging {
                    learner: l,
                    delivered: covered,
                    expected: reference.len(),
                });
            }
        }
        Ok(())
    }

    /// Uniform agreement at quiescence: every learner in `expected` has
    /// delivered the same number of messages as the most advanced one.
    pub fn check_agreement_at_quiescence(&self, expected: &[usize]) -> Result<(), OrderViolation> {
        let max = expected.iter().map(|&l| self.sequences[l].len()).max().unwrap_or(0);
        for &l in expected {
            if self.sequences[l].len() != max {
                return Err(OrderViolation::Lagging {
                    learner: l,
                    delivered: self.sequences[l].len(),
                    expected: max,
                });
            }
        }
        Ok(())
    }
}

/// A violated broadcast property, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderViolation {
    /// A learner delivered the same message twice.
    Duplicate {
        /// Offending learner.
        learner: usize,
        /// Duplicated message.
        msg: MsgId,
    },
    /// A learner delivered a message nobody broadcast.
    Phantom {
        /// Offending learner.
        learner: usize,
        /// Unknown message.
        msg: MsgId,
    },
    /// Two learners disagree at a log position.
    Diverged {
        /// Offending learner.
        learner: usize,
        /// Log position of the disagreement.
        position: usize,
        /// What the learner delivered there.
        got: MsgId,
        /// What the reference sequence has there.
        expected: MsgId,
    },
    /// Two learners deliver a common pair in opposite orders.
    PartialOrder {
        /// First learner.
        learner_a: usize,
        /// Second learner.
        learner_b: usize,
        /// Message `learner_a` delivered first.
        first: MsgId,
        /// Message `learner_a` delivered second.
        second: MsgId,
    },
    /// A restarted learner resumed beyond what its earlier incarnations
    /// had covered: the deliveries in between are lost (applied by no
    /// incarnation of the learner's state).
    ResumeGap {
        /// Offending learner.
        learner: usize,
        /// Reference prefix its earlier incarnations had applied.
        covered_to: usize,
        /// Position the recovered state resumed from.
        resumed_at: usize,
    },
    /// A learner adopted a lower configuration epoch than one it had
    /// already held: stale-epoch traffic got past the fence.
    EpochRegression {
        /// Offending learner.
        learner: usize,
        /// Delivery-log position of the regressing mark.
        at: usize,
        /// Epoch the learner already held.
        from: u64,
        /// Lower epoch it adopted.
        to: u64,
    },
    /// A learner stopped short of the others at quiescence.
    Lagging {
        /// Offending learner.
        learner: usize,
        /// How many messages it delivered.
        delivered: usize,
        /// How many it should have delivered.
        expected: usize,
    },
}

impl std::fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderViolation::Duplicate { learner, msg } => {
                write!(f, "learner {learner} delivered {msg:?} twice")
            }
            OrderViolation::Phantom { learner, msg } => {
                write!(f, "learner {learner} delivered unbroadcast {msg:?}")
            }
            OrderViolation::Diverged { learner, position, got, expected } => write!(
                f,
                "learner {learner} diverged at position {position}: got {got:?}, expected {expected:?}"
            ),
            OrderViolation::PartialOrder { learner_a, learner_b, first, second } => write!(
                f,
                "learners {learner_a}/{learner_b} order {first:?},{second:?} inconsistently"
            ),
            OrderViolation::ResumeGap { learner, covered_to, resumed_at } => write!(
                f,
                "learner {learner} resumed at {resumed_at} but had only covered {covered_to}: \
                 deliveries in between are lost"
            ),
            OrderViolation::EpochRegression { learner, at, from, to } => write!(
                f,
                "learner {learner} regressed from epoch {from} to {to} at position {at}"
            ),
            OrderViolation::Lagging { learner, delivered, expected } => {
                write!(f, "learner {learner} delivered {delivered} of {expected} messages")
            }
        }
    }
}

impl std::error::Error for OrderViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<MsgId> {
        v.iter().map(|&x| MsgId(x)).collect()
    }

    fn log_from(seqs: &[&[u64]]) -> DeliveryLog {
        let mut log = DeliveryLog::new(seqs.len());
        for (l, s) in seqs.iter().enumerate() {
            for &m in *s {
                log.deliver(l, MsgId(m));
            }
        }
        log
    }

    #[test]
    fn total_order_accepts_prefixes() {
        let log = log_from(&[&[1, 2, 3], &[1, 2], &[]]);
        assert!(log.check_total_order().is_ok());
    }

    #[test]
    fn total_order_rejects_divergence() {
        let log = log_from(&[&[1, 2, 3], &[1, 3]]);
        let err = log.check_total_order().unwrap_err();
        assert!(matches!(err, OrderViolation::Diverged { learner: 1, position: 1, .. }));
    }

    #[test]
    fn integrity_rejects_duplicates_and_phantoms() {
        let broadcast: HashSet<MsgId> = ids(&[1, 2]).into_iter().collect();
        let dup = log_from(&[&[1, 1]]);
        assert!(matches!(dup.check_integrity(&broadcast), Err(OrderViolation::Duplicate { .. })));
        let phantom = log_from(&[&[1, 9]]);
        assert!(matches!(phantom.check_integrity(&broadcast), Err(OrderViolation::Phantom { .. })));
        let ok = log_from(&[&[1, 2], &[2, 1]]);
        assert!(ok.check_integrity(&broadcast).is_ok());
    }

    #[test]
    fn partial_order_accepts_disjoint_and_consistent() {
        // Learner 0 subscribes to groups {A,B}, learner 1 only to B;
        // common messages 10,11 are ordered the same way.
        let log = log_from(&[&[1, 10, 2, 11], &[10, 11]]);
        assert!(log.check_partial_order().is_ok());
    }

    #[test]
    fn partial_order_rejects_inversion() {
        let log = log_from(&[&[10, 11], &[11, 10]]);
        assert!(matches!(log.check_partial_order(), Err(OrderViolation::PartialOrder { .. })));
    }

    #[test]
    fn agreement_at_quiescence() {
        let log = log_from(&[&[1, 2], &[1, 2], &[1]]);
        assert!(log.check_agreement_at_quiescence(&[0, 1]).is_ok());
        assert!(matches!(
            log.check_agreement_at_quiescence(&[0, 1, 2]),
            Err(OrderViolation::Lagging { learner: 2, .. })
        ));
    }

    #[test]
    fn display_messages_are_informative() {
        let v = OrderViolation::Duplicate { learner: 3, msg: MsgId(7) };
        assert!(v.to_string().contains("learner 3"));
        let g = OrderViolation::ResumeGap { learner: 1, covered_to: 2, resumed_at: 5 };
        assert!(g.to_string().contains("lost"));
    }

    #[test]
    fn crash_agreement_accepts_checkpoint_resume_with_redelivery() {
        // Learner 1 delivered 1..=4, checkpointed at position 2, crashed,
        // and resumed from the checkpoint: 3,4 are re-delivered against
        // the recovered state — correct, not duplication.
        let mut log = DeliveryLog::new(2);
        for m in [1, 2, 3, 4, 5, 6] {
            log.deliver(0, MsgId(m));
        }
        for m in [1, 2, 3, 4] {
            log.deliver(1, MsgId(m));
        }
        log.mark_restart(1, 2);
        for m in [3, 4, 5, 6] {
            log.deliver(1, MsgId(m));
        }
        assert!(log.check_crash_agreement(&[0, 1]).is_ok());
        assert_eq!(log.restarts_of(1), &[(4, 2, false)]);
    }

    #[test]
    fn crash_agreement_accepts_state_transfer_beyond_own_coverage() {
        // Learner 1 crashed at position 1, but its catch-up peer had
        // already trimmed below its own checkpoint at position 3: the
        // peer's checkpoint is transferred and delivery resumes at 3 —
        // legitimate, because the transferred state covers the prefix.
        let mut log = DeliveryLog::new(2);
        for m in [1, 2, 3, 4, 5] {
            log.deliver(0, MsgId(m));
        }
        log.deliver(1, MsgId(1));
        log.mark_state_transfer(1, 3);
        for m in [4, 5] {
            log.deliver(1, MsgId(m));
        }
        assert!(log.check_crash_agreement(&[0, 1]).is_ok());
        // The same basis without the transfer provenance is a gap.
        let mut bad = DeliveryLog::new(2);
        for m in [1, 2, 3, 4, 5] {
            bad.deliver(0, MsgId(m));
        }
        bad.deliver(1, MsgId(1));
        bad.mark_restart(1, 3);
        for m in [4, 5] {
            bad.deliver(1, MsgId(m));
        }
        assert!(matches!(
            bad.check_crash_agreement(&[0, 1]),
            Err(OrderViolation::ResumeGap { learner: 1, covered_to: 1, resumed_at: 3 })
        ));
    }

    #[test]
    fn crash_agreement_rejects_resume_gap() {
        // Learner restarts claiming a checkpoint at 3 but had only ever
        // delivered 2 messages: message 3 was applied by no incarnation.
        let mut log = DeliveryLog::new(2);
        for m in [1, 2, 3, 4] {
            log.deliver(0, MsgId(m));
        }
        for m in [1, 2] {
            log.deliver(1, MsgId(m));
        }
        log.mark_restart(1, 3);
        log.deliver(1, MsgId(4));
        assert!(matches!(
            log.check_crash_agreement(&[0, 1]),
            Err(OrderViolation::ResumeGap { learner: 1, covered_to: 2, resumed_at: 3 })
        ));
    }

    #[test]
    fn crash_agreement_rejects_post_restart_divergence_and_duplicates() {
        let mut log = DeliveryLog::new(2);
        for m in [1, 2, 3, 4] {
            log.deliver(0, MsgId(m));
        }
        for m in [1, 2] {
            log.deliver(1, MsgId(m));
        }
        log.mark_restart(1, 2);
        // Duplicates message 2 against the recovered basis (state already
        // contains it): a real double-apply.
        for m in [2, 3, 4] {
            log.deliver(1, MsgId(m));
        }
        assert!(matches!(
            log.check_crash_agreement(&[0, 1]),
            Err(OrderViolation::Diverged { learner: 1, position: 2, .. })
        ));
    }

    #[test]
    fn crash_agreement_rejects_lost_suffix() {
        let mut log = DeliveryLog::new(2);
        for m in [1, 2, 3, 4] {
            log.deliver(0, MsgId(m));
        }
        log.deliver(1, MsgId(1));
        log.mark_restart(1, 1);
        log.deliver(1, MsgId(2));
        // Never catches up to 3,4.
        assert!(matches!(
            log.check_crash_agreement(&[0, 1]),
            Err(OrderViolation::Lagging { learner: 1, delivered: 2, expected: 4 })
        ));
    }

    #[test]
    fn epoch_marks_collapse_duplicates_and_stay_monotonic() {
        let mut log = DeliveryLog::new(1);
        log.mark_epoch(0, 5);
        log.deliver(0, MsgId(1));
        log.mark_epoch(0, 5); // duplicate announcement: collapsed
        log.mark_epoch(0, 7);
        assert_eq!(log.epochs_of(0), &[(0, 5), (1, 7)]);
        assert!(log.check_epoch_monotonic().is_ok());
    }

    #[test]
    fn epoch_regression_is_a_violation() {
        let mut log = DeliveryLog::new(2);
        log.deliver(0, MsgId(1));
        log.mark_epoch(1, 7);
        log.deliver(1, MsgId(1));
        log.mark_epoch(1, 5); // a stale coordinator's layout got adopted
        assert!(matches!(
            log.check_epoch_monotonic(),
            Err(OrderViolation::EpochRegression { learner: 1, at: 1, from: 7, to: 5 })
        ));
        // ... and crash agreement reports it even when sequences agree.
        assert!(matches!(
            log.check_crash_agreement(&[0, 1]),
            Err(OrderViolation::EpochRegression { .. })
        ));
    }

    #[test]
    fn epoch_horizon_resets_at_restart_marks() {
        // A respawned learner re-learns the current epoch from scratch:
        // seeing epoch 3 again *after* its restart mark is not a
        // regression of the fresh incarnation.
        let mut log = DeliveryLog::new(2);
        for m in [1, 2] {
            log.deliver(0, MsgId(m));
        }
        log.mark_epoch(1, 7);
        log.deliver(1, MsgId(1));
        log.mark_restart(1, 0);
        log.mark_epoch(1, 3);
        log.mark_epoch(1, 7);
        for m in [1, 2] {
            log.deliver(1, MsgId(m));
        }
        assert!(log.check_epoch_monotonic().is_ok());
        assert!(log.check_crash_agreement(&[0, 1]).is_ok());
    }

    #[test]
    fn crash_agreement_handles_multiple_restarts_and_plain_learners() {
        let mut log = DeliveryLog::new(3);
        for m in [1, 2, 3, 4, 5] {
            log.deliver(0, MsgId(m));
        }
        // Learner 1: two restarts, from-scratch then from a checkpoint.
        log.deliver(1, MsgId(1));
        log.mark_restart(1, 0);
        for m in [1, 2, 3] {
            log.deliver(1, MsgId(m));
        }
        log.mark_restart(1, 3);
        for m in [4, 5] {
            log.deliver(1, MsgId(m));
        }
        // Learner 2: uninterrupted.
        for m in [1, 2, 3, 4, 5] {
            log.deliver(2, MsgId(m));
        }
        assert!(log.check_crash_agreement(&[0, 1, 2]).is_ok());
    }
}
