//! Deployment configuration for the Ring Paxos protocols.

use simnet::ids::{GroupId, NodeId};
use simnet::time::Dur;

/// How acceptors persist their votes (§3.3.5, §5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageMode {
    /// Votes live in acceptor memory only; assumes a majority of acceptors
    /// never fails simultaneously. Network/CPU bound.
    #[default]
    InMemory,
    /// Acceptors write each vote to disk *before* forwarding their Phase 2B
    /// (ch. 3 §3.5.5). Disk bound, ~270 Mbps on the modelled SSD.
    SyncDisk,
    /// Acceptors write asynchronously and vote immediately, throttling when
    /// the disk falls too far behind (Recoverable Ring Paxos, ch. 5).
    AsyncDisk,
}

/// State partitioning over one M-Ring Paxos instance (ch. 4 §4.2.2):
/// the coordinator totally orders all commands but transfers each batch
/// only to the multicast groups of the partitions it accesses; decisions
/// travel on a dedicated decision group (no piggybacking). Acceptors
/// subscribe to every group; learners subscribe to their partition's
/// group plus the decision group.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// One multicast group per partition (index = partition number).
    pub groups: Vec<GroupId>,
    /// The decision group every process subscribes to.
    pub decision_group: GroupId,
    /// Partition mask of each learner, aligned with `MRingConfig::learners`.
    pub learner_masks: Vec<u32>,
}

/// Skip-instance generation for Multi-Ring Paxos (ch. 5 Algorithm 1):
/// every `delta`, the coordinator compares the consensus rate `mu` of its
/// ring against the global expected maximum `lambda`; a ring running
/// below `lambda` proposes enough skip instances (batched into a single
/// consensus execution) to keep the deterministic merge from stalling.
#[derive(Clone, Copy, Debug)]
pub struct SkipConfig {
    /// Expected maximum consensus rate of any ring, instances per second.
    pub lambda_per_sec: u64,
    /// Sampling interval.
    pub delta: Dur,
}

/// Flow-control tuning (§3.3.6).
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Outstanding (proposed but undecided) instances the coordinator may
    /// keep open initially.
    pub initial_window: u32,
    /// Lower bound the window can shrink to under back-pressure.
    pub min_window: u32,
    /// Upper bound the window can grow back to.
    pub max_window: u32,
    /// A learner notifies the ring when this many decided-but-unprocessed
    /// instances accumulate in its buffer.
    pub learner_threshold: u32,
    /// How long without slow-down notifications before the coordinator
    /// starts growing its window again.
    pub recovery_quiet: Dur,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            initial_window: 64,
            min_window: 2,
            max_window: 256,
            learner_threshold: 512,
            recovery_quiet: Dur::millis(500),
        }
    }
}

/// Static description of one M-Ring Paxos deployment, shared by every
/// process in it.
#[derive(Clone, Debug)]
pub struct MRingConfig {
    /// Acceptors in ring order. The *last* entry is the coordinator
    /// (Algorithm 2 places the coordinator last in the ring).
    pub ring: Vec<NodeId>,
    /// Spare acceptors outside the ring (used on acceptor failure).
    pub spares: Vec<NodeId>,
    /// The ip-multicast group: ring acceptors and all learners subscribe.
    pub group: GroupId,
    /// Learner nodes (must be subscribed to `group`).
    pub learners: Vec<NodeId>,
    /// Target consensus packet size (the paper uses 8 KB).
    pub packet_bytes: u32,
    /// Flush a partial batch after this long.
    pub batch_timeout: Dur,
    /// Coordinator's buffer of pending (unproposed) values, in bytes.
    /// Values arriving beyond this are dropped (proposers retry) — the
    /// paper's 160 MB circular buffer (§3.5.2).
    pub pending_cap_bytes: u64,
    /// Acceptor persistence.
    pub storage: StorageMode,
    /// Disk write unit for Sync/Async storage (32 KB in §3.5.5).
    pub disk_unit: u32,
    /// Flow control parameters.
    pub flow: FlowConfig,
    /// Wire size of a Phase 2B / control message.
    pub ctl_bytes: u32,
    /// How often learners report their applied version for GC.
    pub gc_interval: Dur,
    /// Instances retained *behind* the f+1-applied watermark before
    /// acceptors discard them. The paper garbage-collects as soon as
    /// f+1 learners applied (§3.3.7) and points stragglers at a peer
    /// learner with "a sufficiently recent version"; this retention
    /// window plays that role — a learner that falls further behind
    /// than this needs a state transfer, which is out of scope.
    pub gc_retention: u64,
    /// Silence threshold after which ring members suspect the coordinator.
    pub suspicion_timeout: Dur,
    /// CPU the coordinator spends assembling one batch (buffer and
    /// bookkeeping overhead measured in the paper's prototype).
    pub batch_overhead: Dur,
    /// Extra CPU a learner spends processing one delivered batch (models
    /// application handling; the flow-control experiment raises it).
    pub learner_batch_cost: Dur,
    /// Skip-instance generation (Multi-Ring Paxos); `None` disables it.
    pub skip: Option<SkipConfig>,
    /// State partitioning (ch. 4); `None` means classic broadcast.
    pub partitions: Option<PartitionConfig>,
}

impl MRingConfig {
    /// A default configuration for the given ring/learners/group.
    pub fn new(ring: Vec<NodeId>, learners: Vec<NodeId>, group: GroupId) -> MRingConfig {
        MRingConfig {
            ring,
            spares: Vec::new(),
            group,
            learners,
            packet_bytes: 8192,
            batch_timeout: Dur::micros(200),
            pending_cap_bytes: 160 * 1024 * 1024,
            storage: StorageMode::InMemory,
            disk_unit: 32 * 1024,
            flow: FlowConfig::default(),
            ctl_bytes: 32,
            gc_interval: Dur::millis(100),
            gc_retention: 1024,
            suspicion_timeout: Dur::millis(200),
            batch_overhead: Dur::micros(19),
            learner_batch_cost: Dur::ZERO,
            skip: None,
            partitions: None,
        }
    }

    /// The mask of the learner at `index` (`ALL_PARTITIONS` when
    /// unpartitioned).
    pub fn learner_mask(&self, index: usize) -> u32 {
        self.partitions
            .as_ref()
            .and_then(|p| p.learner_masks.get(index).copied())
            .unwrap_or(crate::value::ALL_PARTITIONS)
    }

    /// The coordinator node (last in the ring).
    pub fn coordinator(&self) -> NodeId {
        *self.ring.last().expect("ring must be non-empty")
    }

    /// The first acceptor in the ring (successor of the coordinator's
    /// multicast).
    pub fn first_acceptor(&self) -> NodeId {
        self.ring[0]
    }

    /// The ring successor of `node`, if `node` is in the ring.
    pub fn successor(&self, node: NodeId) -> Option<NodeId> {
        let pos = self.ring.iter().position(|&n| n == node)?;
        Some(self.ring[(pos + 1) % self.ring.len()])
    }

    /// The preferential acceptor learners at `learner_index` contact for
    /// retransmissions and GC reports (spread round-robin, §3.3.4/§3.3.7).
    pub fn preferential_acceptor(&self, learner_index: usize) -> NodeId {
        self.ring[learner_index % self.ring.len()]
    }
}

/// Static description of one U-Ring Paxos deployment.
#[derive(Clone, Debug)]
pub struct URingConfig {
    /// Every process, in ring order. Position 0 is the coordinator (the
    /// paper places the coordinator as the first acceptor to cut latency).
    pub ring: Vec<NodeId>,
    /// How many ring positions, from the coordinator at position 0, are
    /// acceptors; `f + 1` acceptors vote before the decision. Every
    /// layout keeps the acceptors contiguous from position 0.
    pub n_acceptors: usize,
    /// Which ring positions are learners.
    pub learner_positions: Vec<usize>,
    /// Target consensus packet size (the paper uses 32 KB).
    pub packet_bytes: u32,
    /// Flush a partial batch after this long.
    pub batch_timeout: Dur,
    /// Per-proposer circular-buffer budget at each process (16 MB each,
    /// §3.5.2) — bounds outstanding instances.
    pub window: u32,
    /// Values a proposer may have in flight (proposed but not yet seen
    /// delivered). Models the paper's per-proposer circular buffer: when
    /// the buffer is full the proposer blocks, self-clocking its rate to
    /// what the ring sustains.
    pub proposer_inflight: u32,
    /// Acceptor persistence.
    pub storage: StorageMode,
    /// Disk write unit.
    pub disk_unit: u32,
    /// Wire size of control-only messages.
    pub ctl_bytes: u32,
    /// Failover: silence threshold after which non-coordinator acceptors
    /// suspect the coordinator and the coordinator probes a stalled ring
    /// (§3.3.5 applied to U-Ring, the ch. 7 reconfiguration lesson).
    /// `None` disables the failover machinery entirely — no suspicion or
    /// heartbeat timers run, preserving the historical single-epoch
    /// behaviour (and the golden traces) bit for bit.
    pub suspicion_timeout: Option<Dur>,
}

impl URingConfig {
    /// A default configuration over `ring` with the first
    /// `n_acceptors` positions acting as acceptors and everyone learning.
    pub fn new(ring: Vec<NodeId>, n_acceptors: usize) -> URingConfig {
        let n = ring.len();
        URingConfig {
            ring,
            n_acceptors,
            learner_positions: (0..n).collect(),
            packet_bytes: 32 * 1024,
            batch_timeout: Dur::micros(200),
            window: 32,
            proposer_inflight: (6 * n as u32).max(32),
            storage: StorageMode::InMemory,
            disk_unit: 32 * 1024,
            ctl_bytes: 32,
            suspicion_timeout: None,
        }
    }

    /// The coordinator (position 0).
    pub fn coordinator(&self) -> NodeId {
        self.ring[0]
    }

    /// Successor of ring position `pos`.
    pub fn successor_of(&self, pos: usize) -> NodeId {
        self.ring[(pos + 1) % self.ring.len()]
    }

    /// The position of the last acceptor — the process that detects
    /// decisions in U-Ring Paxos (Algorithm 3).
    pub fn last_acceptor_pos(&self) -> usize {
        self.n_acceptors.checked_sub(1).expect("at least one acceptor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(v: &[usize]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn mring_roles() {
        let cfg = MRingConfig::new(nodes(&[1, 2, 3]), nodes(&[4, 5]), GroupId(0));
        assert_eq!(cfg.coordinator(), NodeId(3));
        assert_eq!(cfg.first_acceptor(), NodeId(1));
        assert_eq!(cfg.successor(NodeId(1)), Some(NodeId(2)));
        assert_eq!(cfg.successor(NodeId(3)), Some(NodeId(1)), "ring wraps");
        assert_eq!(cfg.successor(NodeId(9)), None);
        assert_eq!(cfg.preferential_acceptor(0), NodeId(1));
        assert_eq!(cfg.preferential_acceptor(4), NodeId(2));
    }

    #[test]
    fn uring_roles() {
        let cfg = URingConfig::new(nodes(&[0, 1, 2, 3, 4]), 3);
        assert_eq!(cfg.coordinator(), NodeId(0));
        assert_eq!(cfg.last_acceptor_pos(), 2);
        assert_eq!(cfg.successor_of(4), NodeId(0));
        assert_eq!(cfg.learner_positions.len(), 5);
    }
}
