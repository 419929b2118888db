//! Wire messages of the Ring Paxos protocols.

use std::rc::Rc;

use paxos::msg::{InstanceId, Round};
use simnet::ids::NodeId;

use crate::value::{batch_bytes, Batch, Value};

/// Messages exchanged by M-Ring Paxos processes (Algorithm 2 plus the
/// engineering machinery of §3.3.4–§3.3.7).
#[derive(Clone, Debug)]
pub enum MMsg {
    /// Proposer submits a value to the coordinator.
    Propose(Value),
    /// Coordinator ip-multicasts a proposal; decisions of earlier
    /// instances and the GC watermark ride along (§3.3.2 optimization).
    Phase2a {
        /// Consensus instance of this batch.
        instance: InstanceId,
        /// Coordinator's round.
        round: Round,
        /// The proposed batch of values.
        batch: Batch,
        /// Instances decided since the last packet, with each instance's
        /// partition mask (piggybacked DECISION).
        decisions: Rc<Vec<(InstanceId, u32)>>,
        /// Acceptors may discard state below this instance (§3.3.7).
        gc_upto: InstanceId,
        /// Logical instances this batch stands for beyond itself:
        /// `0` for a normal batch; a skip batch (Multi-Ring Paxos, ch. 5)
        /// carries an empty value list and the number of instances being
        /// skipped in one consensus execution.
        skip: u64,
        /// Partition mask of this batch (`ALL_PARTITIONS` when classic).
        mask: u32,
        /// Every instance below this is decided (the coordinator's lowest
        /// outstanding instance). Lets acceptors answer retransmission
        /// requests authoritatively even if an individual decision
        /// notification was lost.
        decided_below: InstanceId,
    },
    /// Vote relayed along the ring; reaching the coordinator completes the
    /// quorum.
    Phase2b {
        /// Voted instance.
        instance: InstanceId,
        /// Voted round.
        round: Round,
    },
    /// Standalone decision notification (when there is no 2A to piggyback
    /// on).
    Decision {
        /// Newly decided instances with their partition masks.
        instances: Rc<Vec<(InstanceId, u32)>>,
        /// Round in which these instances were decided — learners match
        /// it against the round of their buffered payload, the moral
        /// equivalent of the paper's consensus-on-value-ids (`c-vid`).
        round: Round,
        /// GC watermark.
        gc_upto: InstanceId,
        /// Every instance below this is decided.
        decided_below: InstanceId,
    },
    /// Learner → acceptor → … → coordinator: slow down (§3.3.6).
    SlowDown,
    /// Learner asks its preferential acceptor for lost instances (§3.3.4).
    RetransReq {
        /// Requesting learner.
        from: NodeId,
        /// Instances whose payload or decision is missing.
        instances: Vec<InstanceId>,
    },
    /// Retransmission of one instance to a learner.
    RetransRep {
        /// The instance.
        instance: InstanceId,
        /// Its batch (the acceptor's stored vote).
        batch: Batch,
        /// Whether the acceptor knows it decided.
        decided: bool,
        /// Round of the acceptor's stored vote.
        round: Round,
        /// Skip weight of the batch (see [`MMsg::Phase2a::skip`]).
        skip: u64,
        /// Partition mask of the batch.
        mask: u32,
    },
    /// Learner reports its applied version for garbage collection.
    Version {
        /// Reporting learner.
        learner: NodeId,
        /// Highest instance applied, plus one.
        applied: InstanceId,
    },
    /// Failover: candidate coordinator starts a higher round.
    Phase1a {
        /// New round.
        round: Round,
        /// Candidate node.
        from: NodeId,
    },
    /// Failover: acceptor's promise with its vote state.
    Phase1b {
        /// Promised round.
        round: Round,
        /// Promising acceptor.
        from: NodeId,
        /// Votes: `(instance, v-rnd, batch)`.
        votes: Vec<(InstanceId, Round, Batch)>,
        /// Instances the acceptor knows are decided.
        decided: Vec<InstanceId>,
    },
    /// New coordinator announces itself and the reformed ring.
    NewRing {
        /// The new round.
        round: Round,
        /// The new coordinator.
        coord: NodeId,
        /// Acceptors in new ring order (coordinator last).
        ring: Vec<NodeId>,
    },
    /// Ring repair (§3.3.4/§3.3.5): the coordinator probes the acceptors
    /// when the 2B relay stalls, before laying out a new ring that
    /// excludes the silent process.
    Ping {
        /// The probing coordinator.
        from: NodeId,
    },
    /// An acceptor's liveness reply to a [`MMsg::Ping`].
    Pong {
        /// The responding acceptor.
        from: NodeId,
    },
    /// Keep-alive multicast by an idle coordinator. Carries the ring
    /// layout so processes that missed a `NewRing` (e.g., restarted after
    /// a pause) resynchronize.
    Heartbeat {
        /// Coordinator's round.
        round: Round,
        /// The coordinator.
        coord: NodeId,
        /// Current ring layout.
        ring: Vec<NodeId>,
    },
    /// Recovery: a restarted learner asks its preferential acceptor for
    /// the decided suffix from `next` in bulk, over TCP (the per-loss
    /// UDP retransmission path is too slow for a whole outage).
    CatchupReq {
        /// The recovering learner.
        from: NodeId,
        /// First instance it is missing.
        next: InstanceId,
    },
    /// Recovery: a chunk of decided instances from the acceptor's
    /// stored votes, `(instance, batch, vote round, skip, mask)`.
    CatchupRep {
        /// Contiguous decided instances from the requested point.
        batches: Vec<(InstanceId, Batch, Round, u64, u32)>,
        /// One past the highest instance the acceptor knows decided.
        upto: InstanceId,
        /// Lowest instance the acceptor can still serve (its GC
        /// watermark). When this is above the requested point, the
        /// requester has fallen behind the ring's §3.3.7 collection and
        /// must fetch a peer learner's checkpoint first ([`MMsg::SnapReq`]).
        available_from: InstanceId,
    },
    /// Recovery: a learner that fell below the acceptors' GC watermark
    /// asks a peer learner for its durable checkpoint (the paper's
    /// "state transfer from a peer with a sufficiently recent version",
    /// §3.3.7). Over TCP.
    SnapReq {
        /// The requesting learner.
        from: NodeId,
    },
    /// Recovery: a peer learner's durable checkpoint; `state_bytes` are
    /// charged on the wire.
    SnapRep {
        /// The checkpoint (absent when the peer has none yet).
        snap: Option<recovery::Checkpoint>,
    },
}

/// Messages of U-Ring Paxos (Algorithm 3). All travel over TCP between
/// ring neighbours.
#[derive(Clone, Debug)]
pub enum UMsg {
    /// A value forwarded along the ring towards the coordinator (Task 1).
    Forward(Value),
    /// Combined Phase 2A/2B travelling down the acceptor segment.
    Phase2ab {
        /// Consensus instance.
        instance: InstanceId,
        /// Round.
        round: Round,
        /// Proposed batch.
        batch: Batch,
    },
    /// Decision circulating the ring (Task 5). The batch object rides
    /// along for delivery, but each value's bytes are only charged on the
    /// wire until the hop before its proposer — every payload crosses
    /// every link exactly once, which is what makes U-Ring Paxos ~90%
    /// efficient (Table 3.2).
    Decision {
        /// Decided instance.
        instance: InstanceId,
        /// The decided batch.
        batch: Batch,
        /// How many more hops the decision id must travel.
        id_hops_left: u32,
        /// Configuration round the forwarder was in. Delivery is always
        /// safe (a decision is a decision), but a process only keeps
        /// *forwarding* it around a ring layout it still agrees on.
        round: Round,
    },
    /// Failover: candidate coordinator starts a higher round (epoch).
    Phase1a {
        /// New round.
        round: Round,
        /// Candidate node.
        from: NodeId,
    },
    /// Failover: acceptor's promise with its accepted-vote state, from
    /// which the new coordinator reconstructs instance allocation.
    Phase1b {
        /// Promised round.
        round: Round,
        /// Promising acceptor.
        from: NodeId,
        /// Votes above the acceptor's delivery watermark:
        /// `(instance, v-rnd, batch)`.
        votes: Vec<(InstanceId, Round, Batch)>,
        /// The acceptor has delivered (hence knows decided) everything
        /// below this instance.
        decided_below: InstanceId,
    },
    /// New coordinator (or a repairing one) announces the new epoch and
    /// ring layout. Position 0 of `ring` is the coordinator; acceptors
    /// stay contiguous from position 0.
    NewRing {
        /// The new round.
        round: Round,
        /// The new coordinator (`ring[0]`).
        coord: NodeId,
        /// Every process of the new ring, in ring order.
        ring: Vec<NodeId>,
    },
    /// Keep-alive from the coordinator. Carries round and layout so
    /// processes that missed a `NewRing` (paused, respawned, excluded)
    /// resynchronize; its absence drives suspicion.
    Heartbeat {
        /// Coordinator's round.
        round: Round,
        /// The coordinator.
        coord: NodeId,
        /// Current ring layout (`ring[0]` = coordinator).
        ring: Vec<NodeId>,
    },
    /// Ring repair: the coordinator probes all members when the 2ab/ack
    /// flow stalls, before splicing silent processes out of the ring.
    Ping {
        /// The probing coordinator.
        from: NodeId,
    },
    /// A member's liveness reply to a [`UMsg::Ping`].
    Pong {
        /// The responding member.
        from: NodeId,
    },
    /// A process that finds itself outside the current ring layout (it
    /// was spliced out while crashed, or respawned) asks the coordinator
    /// to splice it back in.
    JoinReq {
        /// The joining process.
        from: NodeId,
    },
    /// A restarted learner asks `from` for the decided suffix starting
    /// at `next` (its recovered checkpoint watermark). Travels over the
    /// reliable channel, outside the ring flow.
    CatchupReq {
        /// The recovering learner.
        from: NodeId,
        /// First instance it is missing.
        next: InstanceId,
    },
    /// A chunk of the decided suffix (recovery catch-up). When the
    /// requester had fallen below the responder's trim point, `snap`
    /// carries the responder's checkpoint first — a state transfer whose
    /// `state_bytes` are charged on the wire along with the batches.
    CatchupRep {
        /// Checkpoint to restore before applying `batches` (state
        /// transfer), when the requester was behind the trim point.
        snap: Option<recovery::Checkpoint>,
        /// Contiguous decided instances from the requested point.
        batches: Vec<(InstanceId, Batch)>,
        /// One past the responder's highest decided instance — when the
        /// requester reaches it, catch-up is complete.
        upto: InstanceId,
    },
}

/// Wire size of a Phase 1B promise carrying `votes`: the control header
/// plus every revealed vote's payload. Summed in `u64` and clamped to
/// `u32::MAX`, because a large revealed-vote set overflows `u32`.
pub(crate) fn phase1b_wire_bytes(ctl_bytes: u32, votes: &[(InstanceId, Round, Batch)]) -> u32 {
    let total = ctl_bytes as u64 + votes.iter().map(|(_, _, b)| batch_bytes(b)).sum::<u64>();
    total.min(u32::MAX as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::MsgId;
    use simnet::time::Time;

    #[test]
    fn messages_are_cheap_to_clone() {
        let batch: Batch = crate::value::BatchData::new(vec![Value {
            id: MsgId(1),
            proposer: NodeId(0),
            seq: 0,
            bytes: 8192,
            submitted: Time::ZERO,
            mask: crate::value::ALL_PARTITIONS,
        }]);
        let m = MMsg::Phase2a {
            instance: InstanceId(0),
            round: Round::ZERO,
            batch: batch.clone(),
            decisions: Rc::new(vec![]),
            gc_upto: InstanceId(0),
            skip: 0,
            mask: crate::value::ALL_PARTITIONS,
            decided_below: InstanceId(0),
        };
        let m2 = m.clone();
        assert!(matches!(m2, MMsg::Phase2a { .. }));
        assert_eq!(Rc::strong_count(&batch), 3);
    }

    #[test]
    fn phase1b_wire_bytes_clamps_instead_of_overflowing() {
        let big = |id| Value {
            id: MsgId(id),
            proposer: NodeId(0),
            seq: id,
            bytes: u32::MAX / 2 + 1,
            submitted: Time::ZERO,
            mask: crate::value::ALL_PARTITIONS,
        };
        let vote = |i: u64| {
            (InstanceId(i), Round::ZERO, crate::value::BatchData::new(vec![big(i), big(i + 100)]))
        };
        // Small sets are summed exactly.
        assert_eq!(phase1b_wire_bytes(32, &[]), 32);
        let one = crate::value::BatchData::new(vec![Value { bytes: 1000, ..big(7) }]);
        assert_eq!(phase1b_wire_bytes(32, &[(InstanceId(0), Round::ZERO, one)]), 1032);
        // Three votes of ~4 GiB each: the byte total exceeds u32::MAX.
        let votes: Vec<_> = (0..3).map(vote).collect();
        assert!(votes.iter().map(|(_, _, b)| batch_bytes(b)).sum::<u64>() > u32::MAX as u64);
        assert_eq!(phase1b_wire_bytes(32, &votes), u32::MAX);
    }
}
