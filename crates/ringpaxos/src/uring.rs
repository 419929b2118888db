//! Unicast-based Ring Paxos (U-Ring Paxos, thesis Algorithm 3).
//!
//! All processes — proposers, acceptors (the coordinator first), and
//! learners — sit on one logical directed ring connected by TCP links.
//! Values travel the ring to the coordinator (Task 1); the coordinator
//! emits combined `Phase2a/2b` messages that accumulate votes down the
//! acceptor segment; the *last* acceptor detects the decision (Task 4) and
//! the decision circulates the rest of the ring, carrying the chosen batch
//! to the processes that have not seen it (Task 5).
//!
//! Flow control is inherent: TCP back-pressure between neighbours plus a
//! bounded window of outstanding consensus instances (§3.3.6).
//!
//! # Recovery (`with_recovery`)
//!
//! A plain U-Ring deployment stalls forever when a ring process dies
//! (ch. 7's U-Ring lesson, Fig. 7.5) and loses all acceptor and learner
//! state on a process restart. [`URecovery`] attaches the durability
//! subsystem from the `recovery` crate:
//!
//! * acceptors log votes write-ahead (sync or group-commit) through the
//!   simulated disk into a stable store that survives `replace_actor`,
//!   and replay it on restart;
//! * learners checkpoint periodically (delivery watermark, dedup marks,
//!   and the service snapshot via [`recovery::RecoveredApp`]), trimming
//!   the vote log and decided cache below the durable watermark;
//! * a respawned learner resumes from its checkpoint and fetches the
//!   decided suffix from a peer's [`recovery::DecidedCache`] over TCP
//!   (`CatchupReq`/`CatchupRep`), falling back to a full state transfer
//!   of the peer's checkpoint when it has fallen below the peer's trim
//!   point — recovery is checkpoint + suffix, never a full replay;
//! * the ring heals itself after the outage: the coordinator re-proposes
//!   outstanding instances whose 2A/2B-or-decision circulation died at
//!   the crashed process, and proposers re-send values that never got
//!   delivered (both idempotent: acceptors re-vote in place and learners
//!   deduplicate by `(proposer, seq)`).
//!
//! Restarted processes do not resume the proposer role — a proposer's
//! sequence numbers are not logged, and reusing them would make the
//! dedup layer discard its fresh values.
//!
//! # Failover (`cfg.suspicion_timeout`)
//!
//! Setting [`URingConfig::suspicion_timeout`] arms the self-healing
//! subsystem that ch. 7 identifies as U-Ring's missing piece (Fig. 7.5:
//! a single crash otherwise stalls the ring for the whole outage).
//! Suspicion, the Phase 1 takeover, announcements and the repair probe
//! are the control plane both rings share (`crate::control`); U-Ring
//! adds, over its TCP links:
//!
//! * **Value recovery.** The new coordinator reconstructs the instance
//!   allocation from the promise quorum's vote state — re-proposing
//!   undecided instances with the highest-round revealed value and
//!   closing revealed gaps with empty batches. The round acts as a
//!   configuration epoch: `Phase2ab`/`Decision` traffic from a deposed
//!   coordinator fails the round fence at every receiver.
//! * **Layout.** A repair splices silent processes out of the ring (a
//!   new layout always bumps the round, so layout is a function of the
//!   round) and back in when they ask to rejoin (`JoinReq`, sent by a
//!   process that finds itself outside the layout carried by
//!   `NewRing`/`Heartbeat`).
//! * The coordinator *can* be respawned over its stable store on a
//!   failover-enabled ring: it comes back demoted and re-acquires
//!   leadership (if at all) only through a takeover whose promise
//!   quorum reconstructs the allocation — lifting the restriction the
//!   recovery subsystem alone had to impose.
//!
//! With `suspicion_timeout: None` (the default) none of these timers
//! exist and the historical single-epoch behaviour — including the
//! golden traces — is preserved bit for bit.

use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};

use abcast::{metric, MsgId, Pacer, SharedLog};

use crate::control::{Beat, Control, Out, Recovery, Repair, Takeover};
use crate::control::{CATCHUP_CHUNK, CATCHUP_RETRY};
use crate::dedup::DeliveredTracker;
use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, Round};
use recovery::{Checkpoint, Checkpointer, DecidedCache, LogMode, RecoveredApp};
use recovery::{StableHandle, VoteLog};
use simnet::prelude::*;

use crate::config::{StorageMode, URingConfig};
use crate::msg::{phase1b_wire_bytes, UMsg};
use crate::value::{batch_bytes, Batch, BatchData, Value};

const T_BATCH: u64 = 1 << 56;
const T_PACE: u64 = 2 << 56;
const T_WAL: u64 = 3 << 56;
const T_CKPT: u64 = 4 << 56;
const T_CATCHUP: u64 = 5 << 56;
const T_REPROP: u64 = 6 << 56;
const T_SUSPECT: u64 = 7 << 56;
const T_HEARTBEAT: u64 = 8 << 56;
const T_DISK: u64 = 9 << 56;
const KIND_MASK: u64 = 0xff << 56;

/// Scan period of the re-proposal timers (recovery-enabled rings).
const REPROP_INTERVAL: Dur = Dur::millis(50);
/// Age beyond which an outstanding instance / undelivered value is
/// re-sent. Comfortably above one loaded ring round-trip, far below the
/// experiment's outage scale.
const REPROP_AGE: Dur = Dur::millis(150);

/// Recovery configuration for one U-Ring process (see the module docs).
pub struct URecovery {
    /// The node's stable store, shared across process incarnations.
    pub store: StableHandle<Batch>,
    /// How the acceptor vote log commits to disk.
    pub wal_mode: LogMode,
    /// Checkpoint every this many delivered instances (0 = never).
    pub checkpoint_interval: u64,
    /// The replicated service hook snapshotted by checkpoints.
    pub app: Option<Box<dyn RecoveredApp>>,
    /// Catch-up peer; defaults to the last acceptor (the decision
    /// origin), or the coordinator when this process *is* it.
    pub peer: Option<NodeId>,
    /// Decided instances retained in the catch-up cache *below* the
    /// checkpoint watermark. A peer whose outage is shorter than this
    /// slack catches up from the suffix alone; one that fell further
    /// behind gets a state transfer of the whole checkpoint.
    pub catchup_retention: u64,
    /// Whether this incarnation replaces a crashed one (respawn): it
    /// restores from the stable store and catches up from `peer`.
    pub resumed: bool,
}

/// Live recovery state of one process: the shared learner recovery
/// plus U-Ring's vote log and decided-batch cache.
struct RecState {
    base: Recovery<Batch>,
    wal: VoteLog<Batch>,
    cache: DecidedCache<Batch>,
    peer: NodeId,
    retention: u64,
}

/// Coordinator-only state.
struct UCoord {
    pending: VecDeque<Value>,
    pending_bytes: u64,
    next_instance: InstanceId,
    outstanding: BTreeSet<InstanceId>,
    /// Batches of outstanding instances with their last-send time, kept
    /// on recovery- or failover-enabled rings for the re-proposal timer.
    outstanding_batches: BTreeMap<InstanceId, (Batch, Time)>,
}

/// One U-Ring Paxos process.
pub struct URingProcess {
    cfg: URingConfig,
    me: NodeId,
    pos: usize,
    /// The control plane: every deployed process hears announcements and
    /// probes (spliced-out or respawned ones resynchronize); each promise
    /// reports the acceptor's delivery watermark.
    ctl: Control<Batch, InstanceId>,
    coord: Option<UCoord>,
    acceptor: Option<Acceptor<Batch>>,
    /// Learner state: buffered decisions waiting for in-order delivery.
    learner: Option<ULearner>,
    prop: Option<UProposer>,
    log: Option<SharedLog>,
    /// Phase2ab messages awaiting a pending sync disk write, per instance
    /// (the non-recovery `StorageMode` path).
    disk_pending: BTreeMap<InstanceId, (Round, Batch)>,
    rec: Option<RecState>,
    /// Whether this process is currently outside the ring layout (it
    /// was spliced out while unreachable). Excluded processes still
    /// deliver decisions and answer probes, but stop relaying.
    excluded: bool,
}

struct ULearner {
    index: usize,
    ready: BTreeMap<InstanceId, Batch>,
    next_deliver: InstanceId,
    /// Exactly-once filter over delivered values, bounded by per-proposer
    /// watermarks instead of an ever-growing id set.
    delivered: DeliveredTracker,
}

struct UProposer {
    pacer: Pacer,
    next_seq: u64,
    /// Values proposed but not yet observed delivered locally.
    inflight: u32,
    /// Undelivered values with their last-send time, for re-proposal on
    /// recovery-enabled rings (a crashed ring member black-holes the
    /// `Forward` hop; without re-sending, these slots leak forever).
    unacked: BTreeMap<u64, (Value, Time)>,
    /// Whether `unacked` is maintained (recovery-enabled rings only).
    track: bool,
}

impl URingProcess {
    /// Creates the process at ring position `pos` (must host node `me`).
    pub fn new(
        cfg: URingConfig,
        pos: usize,
        proposer: Option<Pacer>,
        learner_log: Option<SharedLog>,
    ) -> URingProcess {
        let me = cfg.ring[pos];
        // Phase 1 pre-executed at deployment: round 1 owned by position 0.
        let round = Round::new(1, 0);
        let failover = cfg.suspicion_timeout.is_some();
        let is_coord = pos == 0;
        let is_acceptor = pos < cfg.n_acceptors;
        let learner_index = cfg.learner_positions.iter().position(|&p| p == pos);
        let coord = is_coord.then(|| UCoord {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: InstanceId(0),
            outstanding: BTreeSet::new(),
            outstanding_batches: BTreeMap::new(),
        });
        let acceptor = is_acceptor.then(|| {
            let mut a = Acceptor::new();
            let _ = a.receive_1a(round);
            a
        });
        let learner = learner_index.map(|index| ULearner {
            index,
            ready: BTreeMap::new(),
            next_deliver: InstanceId(0),
            delivered: DeliveredTracker::new(),
        });
        let acceptors = cfg.ring[..cfg.n_acceptors].to_vec();
        let ctl = Control::new(me, acceptors, cfg.ring.clone(), round, cfg.suspicion_timeout);
        URingProcess {
            cfg,
            me,
            pos,
            ctl,
            coord,
            acceptor,
            learner,
            prop: proposer.map(|pacer| UProposer {
                pacer,
                next_seq: 0,
                inflight: 0,
                unacked: BTreeMap::new(),
                // Failover implies a crashed member can black-hole the
                // `Forward` hop: track undelivered values for re-send.
                track: failover,
            }),
            log: learner_log,
            disk_pending: BTreeMap::new(),
            rec: None,
            excluded: false,
        }
    }

    /// Attaches the recovery subsystem (see the module docs). Must be
    /// called before the process is installed. When `rec.resumed`, the
    /// process restores acceptor votes and the learner checkpoint from
    /// the stable store here, and starts catch-up in `on_start`.
    pub fn with_recovery(mut self, rec: URecovery) -> URingProcess {
        let last = self.cfg.last_acceptor_pos();
        let peer = rec.peer.unwrap_or(self.cfg.ring[if self.pos == last { 0 } else { last }]);
        self.ctl.log_promises(rec.store.clone());
        let mut state = RecState {
            wal: VoteLog::new(rec.store.clone(), rec.wal_mode, self.cfg.disk_unit, T_WAL),
            cache: DecidedCache::new(),
            peer,
            retention: rec.catchup_retention,
            base: Recovery::new(rec.store, rec.checkpoint_interval, T_CKPT, rec.app),
        };
        if rec.resumed {
            if self.coord.is_some() {
                assert!(
                    self.ctl.enabled,
                    "the U-Ring coordinator can only be respawned on a failover-enabled \
                     ring (set cfg.suspicion_timeout): its instance allocation is not \
                     logged, so a fresh incarnation must re-acquire it through an epoch \
                     takeover (see the module docs)"
                );
                // Come back demoted: a peer has taken (or will take)
                // over; failing that, this node's own suspicion timer
                // drives a takeover whose promise quorum reconstructs
                // the allocation.
                self.coord = None;
            }
            // Acceptor role: replay the durable vote log. The promised
            // round also fences this process: stale pre-crash epochs
            // fail the round check until a NewRing/Heartbeat resyncs us.
            if self.acceptor.is_some() {
                let (promised, votes) = state.wal.replay();
                let promised = promised.max(self.ctl.round);
                self.ctl.round = promised;
                self.acceptor = Some(Acceptor::restore(promised, votes));
            }
            // Learner role: restore the durable checkpoint.
            let cp = Checkpointer::recover(&state.base.store).unwrap_or_default();
            if let Some(l) = self.learner.as_mut() {
                l.next_deliver = cp.watermark;
                state.cache.trim_below(cp.watermark);
                let log = self.log.as_ref().map(|log| (log, l.index));
                state.base.adopt_checkpoint(&cp, &mut l.delivered, log, false, &mut self.ctl.out);
            }
        }
        if let Some(p) = self.prop.as_mut() {
            p.track = true;
        }
        self.rec = Some(state);
        self
    }

    /// The instance this process resumes delivering from (tests).
    pub fn next_deliver(&self) -> Option<InstanceId> {
        self.learner.as_ref().map(|l| l.next_deliver)
    }

    fn successor(&self) -> NodeId {
        self.cfg.successor_of(self.pos)
    }

    /// Wire bytes charged for carrying `batch` on the hop into ring
    /// position `next_pos`. A value's payload is omitted once the
    /// receiving process has already seen it: it proposed the value, it
    /// relayed the value towards the coordinator (Task 1), it is the
    /// coordinator, or — for decision hops — it already received the
    /// payload in the Phase 2A/2B segment. This realizes the paper's rule
    /// that chosen-value forwarding ends at the predecessor of the
    /// proposer (Task 5): each payload crosses each link exactly once,
    /// which is what makes U-Ring Paxos ~90% efficient (Table 3.2).
    fn hop_bytes(&self, batch: &Batch, next_pos: usize, decision_hop: bool) -> u32 {
        // No payload when the receiver has seen it all: the coordinator
        // assembled the batch, and the acceptor segment got the payload
        // in Phase 2A/2B before a decision hop reaches it.
        let seen_all = next_pos == 0 || (decision_hop && next_pos <= self.cfg.last_acceptor_pos());
        let bytes = if seen_all {
            0
        } else {
            // Payloads the receiver has not yet seen: proposed at or past
            // its position (it relayed earlier proposers' values on their
            // way to the coordinator), plus coordinator/off-ring values —
            // all precomputed at pack time (one table read).
            batch.bytes_needed_beyond(next_pos)
        };
        (bytes.min(u32::MAX as u64) as u32).max(self.cfg.ctl_bytes)
    }

    fn next_pos(&self) -> usize {
        (self.pos + 1) % self.cfg.ring.len()
    }

    fn pace(&mut self, ctx: &mut Ctx) {
        // TCP back-pressure: a real proposer blocks in `send` when the
        // socket buffer to its successor is full (§3.3.6). We shed the
        // tick instead (the pacer self-clocks to the sustainable rate).
        let full_buffer =
            self.prop.as_ref().is_some_and(|p| p.inflight >= self.cfg.proposer_inflight);
        // A spliced-out process has no live successor: shed until the
        // coordinator splices us back in (JoinReq).
        let blocked = self.excluded
            || full_buffer
            || if self.coord.is_some() {
                self.coord.as_ref().is_some_and(|c| c.pending_bytes > 4 * 1024 * 1024)
            } else {
                ctx.tcp_backlog(self.successor()) > 4 * 1024 * 1024
            };
        if blocked {
            ctx.counter_add("rp.shed", 1);
            let interval = self.prop.as_ref().map(|p| p.pacer.interval()).unwrap_or(Dur::millis(1));
            // Consume the missed slots so load does not pile up.
            if let Some(p) = self.prop.as_mut() {
                let _ = p.pacer.due(ctx.now());
            }
            ctx.set_timer(interval, TimerToken(T_PACE));
            return;
        }
        let Some(p) = self.prop.as_mut() else { return };
        let due = p.pacer.due(ctx.now());
        let bytes = p.pacer.msg_bytes();
        let interval = p.pacer.interval();
        let track = p.track;
        let mut new_values = Vec::new();
        for _ in 0..due {
            let seq = p.next_seq;
            p.next_seq += 1;
            new_values.push(Value {
                id: MsgId(((self.me.0 as u64) << 40) | seq),
                proposer: self.me,
                seq,
                bytes,
                submitted: ctx.now(),
                mask: crate::value::ALL_PARTITIONS,
            });
        }
        for v in new_values {
            ctx.counter_add_id(metric::id::PROPOSED, 1);
            if let Some(p) = self.prop.as_mut() {
                p.inflight += 1;
                if track {
                    p.unacked.insert(v.seq, (v, ctx.now()));
                }
            }
            if self.coord.is_some() {
                self.enqueue(v, ctx);
            } else {
                ctx.tcp_send(self.successor(), UMsg::Forward(v), v.bytes);
            }
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }

    fn enqueue(&mut self, v: Value, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else { return };
        c.pending.push_back(v);
        c.pending_bytes += v.bytes as u64;
        self.try_flush(ctx, false);
    }

    fn try_flush(&mut self, ctx: &mut Ctx, force: bool) {
        let keep_batches = self.rec.is_some() || self.ctl.enabled;
        loop {
            let Some(c) = self.coord.as_mut() else { return };
            let window_open = (c.outstanding.len() as u32) < self.cfg.window;
            let full = c.pending_bytes >= self.cfg.packet_bytes as u64;
            let partial = force && !c.pending.is_empty();
            if !(window_open && (full || partial)) {
                return;
            }
            let mut vals = Vec::new();
            let mut bytes = 0u64;
            while let Some(v) = c.pending.front() {
                if !vals.is_empty() && bytes + v.bytes as u64 > self.cfg.packet_bytes as u64 {
                    break;
                }
                let v = c.pending.pop_front().expect("front checked");
                c.pending_bytes -= v.bytes as u64;
                bytes += v.bytes as u64;
                vals.push(v);
            }
            // Probe stamp: a PROPOSE span opens at the earliest client
            // submission the batch covers (captured before `pack`
            // consumes the values).
            let first_submitted =
                if ctx.probes_enabled() { vals.iter().map(|v| v.submitted).min() } else { None };
            let batch: Batch = BatchData::pack(vals, &self.cfg.ring);
            let instance = c.next_instance;
            c.next_instance = instance.next();
            c.outstanding.insert(instance);
            if keep_batches {
                c.outstanding_batches.insert(instance, (batch.clone(), ctx.now()));
            }
            ctx.counter_add_id(metric::id::INSTANCES, 1);
            if let Some(at) = first_submitted {
                ctx.probe_at(probe::code::PROPOSE, probe::span_key(0, instance.0), at);
            }
            self.send_2ab(instance, batch, ctx);
        }
    }

    /// Emits the combined 2A/2B chain for `instance` under the current
    /// round: local vote first (the coordinator is the first acceptor),
    /// then down the ring — or an immediate decision on the degenerate
    /// single-acceptor layout. Also used to re-drive outstanding
    /// instances through a reformed ring and to re-propose the takeover
    /// window under a new epoch.
    fn send_2ab(&mut self, instance: InstanceId, batch: Batch, ctx: &mut Ctx) {
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2A, probe::span_key(0, instance.0));
        }
        // The coordinator is the first acceptor: vote locally.
        if let Some(a) = self.acceptor.as_mut() {
            let _ = a.receive_2a(instance, self.ctl.round, batch.clone());
        }
        let round = self.ctl.round;
        let wire = self.hop_bytes(&batch, self.next_pos(), false);
        let succ = self.successor();
        if self.cfg.last_acceptor_pos() == 0 {
            // Degenerate single-acceptor ring: the coordinator is also
            // the last acceptor and decides immediately.
            let ring_len = self.cfg.ring.len() as u32;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DECIDE, probe::span_key(0, instance.0));
            }
            self.learner_ready(instance, &batch, ctx);
            if ring_len > 1 {
                ctx.tcp_send(
                    succ,
                    UMsg::Decision { instance, batch, id_hops_left: ring_len - 1, round },
                    wire,
                );
            }
            // The originator will not see its own decision circulate
            // back (it stops at the predecessor): close it here.
            if let Some(c) = self.coord.as_mut() {
                c.outstanding.remove(&instance);
                c.outstanding_batches.remove(&instance);
            }
            return;
        }
        ctx.tcp_send(succ, UMsg::Phase2ab { instance, round, batch }, wire);
    }

    fn on_phase2ab(&mut self, instance: InstanceId, round: Round, batch: Batch, ctx: &mut Ctx) {
        if round != self.ctl.round {
            // The epoch fence: 2A/2B traffic from a deposed coordinator
            // (or a stale ring layout) dies here. A vote under a stale
            // layout could otherwise complete a "decision" at the old
            // last acceptor without a true quorum.
            ctx.counter_add("rp.stale_2ab", 1);
            return;
        }
        self.ctl.heard_coordinator(ctx.now());
        if self.excluded {
            return;
        }
        if self.acceptor.is_none() {
            // Not an acceptor (non-contiguous layout): just relay.
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            ctx.tcp_send(self.successor(), UMsg::Phase2ab { instance, round, batch }, wire);
            return;
        }
        if let Some(rec) = self.rec.as_mut() {
            // Recovery-enabled: write-ahead log the vote; `vote_and_forward`
            // runs from the WAL completion (T_WAL). Re-proposals of an
            // already-durable vote skip the disk and vote immediately.
            if rec.base.store.lock().unwrap().votes.contains_key(&instance) {
                self.vote_and_forward(instance, round, batch, ctx);
            } else {
                let bytes = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(1);
                rec.wal.append(instance, round, batch, bytes, ctx);
            }
            return;
        }
        match self.cfg.storage {
            StorageMode::InMemory => self.vote_and_forward(instance, round, batch, ctx),
            StorageMode::SyncDisk => {
                let bytes = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(1);
                self.disk_pending.insert(instance, (round, batch));
                ctx.disk_write_coalesced(
                    bytes,
                    self.cfg.disk_unit,
                    TimerToken(T_DISK | instance.0),
                );
            }
            StorageMode::AsyncDisk => {
                let bytes = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(1);
                ctx.disk_write_coalesced(
                    bytes,
                    self.cfg.disk_unit,
                    TimerToken(T_DISK | (u64::MAX >> 8)),
                );
                self.vote_and_forward(instance, round, batch, ctx);
            }
        }
    }

    fn vote_and_forward(
        &mut self,
        instance: InstanceId,
        round: Round,
        batch: Batch,
        ctx: &mut Ctx,
    ) {
        if let Some(a) = self.acceptor.as_mut() {
            if a.receive_2a(instance, round, batch.clone()).is_none() {
                return;
            }
        }
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2B, probe::span_key(0, instance.0));
        }
        let ring_len = self.cfg.ring.len() as u32;
        if self.pos == self.cfg.last_acceptor_pos() {
            // Task 4: the last acceptor detects the decision and starts
            // circulating it with the chosen batch.
            let id_hops = ring_len - 1;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DECIDE, probe::span_key(0, instance.0));
            }
            self.learner_ready(instance, &batch, ctx);
            let wire = self.hop_bytes(&batch, self.next_pos(), true);
            ctx.tcp_send(
                self.successor(),
                UMsg::Decision { instance, batch, id_hops_left: id_hops, round },
                wire,
            );
        } else {
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            ctx.tcp_send(self.successor(), UMsg::Phase2ab { instance, round, batch }, wire);
        }
    }

    fn on_decision(
        &mut self,
        instance: InstanceId,
        batch: Batch,
        id_hops_left: u32,
        round: Round,
        ctx: &mut Ctx,
    ) {
        // Delivery is unconditionally safe — a decision is a decision,
        // whatever epoch we are in.
        self.learner_ready(instance, &batch, ctx);
        if let Some(c) = self.coord.as_mut() {
            c.outstanding.remove(&instance);
            c.outstanding_batches.remove(&instance);
            self.ctl.progress(ctx.now());
            self.try_flush(ctx, false);
        }
        // Forwarding follows the ring layout, so it needs the epoch to
        // match (and this process to still be part of the layout).
        if id_hops_left > 1 && round == self.ctl.round && !self.excluded {
            let wire = self.hop_bytes(&batch, self.next_pos(), true);
            ctx.tcp_send(
                self.successor(),
                UMsg::Decision { instance, batch, id_hops_left: id_hops_left - 1, round },
                wire,
            );
        }
    }

    fn learner_ready(&mut self, instance: InstanceId, batch: &Batch, ctx: &mut Ctx) {
        {
            let Some(l) = self.learner.as_mut() else { return };
            if instance >= l.next_deliver {
                l.ready.entry(instance).or_insert_with(|| batch.clone());
            }
        }
        // U-Ring Paxos lets a learner process a decision before forwarding
        // it (§3.3.6) — delivery happens inline, in instance order.
        loop {
            let Some(l) = self.learner.as_mut() else { return };
            let Some(b) = l.ready.remove(&l.next_deliver) else { break };
            let delivered_instance = l.next_deliver;
            l.next_deliver = l.next_deliver.next();
            let index = l.index;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DELIVER, probe::span_key(0, delivered_instance.0));
            }
            let mut fresh = Vec::new();
            for v in b.iter() {
                if l.delivered.fresh(v.proposer, v.seq) {
                    fresh.push(*v);
                }
            }
            let evicted = l.delivered.take_evictions();
            if evicted != 0 {
                ctx.counter_add(crate::dedup::DEDUP_EVICT, evicted);
            }
            if let Some(rec) = self.rec.as_mut() {
                rec.cache.record(delivered_instance, b.clone());
                rec.base.delivered_count += fresh.len() as u64;
            }
            if let Some(log) = self.log.as_ref() {
                let mut log = log.lock().unwrap();
                for v in &fresh {
                    log.deliver(index, v.id);
                }
            }
            for v in &fresh {
                ctx.counter_add_id(metric::id::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add_id(metric::id::DELIVERED_MSGS, 1);
                if let Some(app) = self.rec.as_mut().and_then(|r| r.base.app.as_mut()) {
                    app.apply(v.proposer.0 as u64, v.seq, v.bytes);
                }
                if v.proposer == self.me {
                    // `since`, not `saturating_since`: delivery strictly
                    // follows submission, so a clamped-to-zero sample
                    // here would be masking an engine ordering bug.
                    ctx.record_latency(metric::LATENCY, ctx.now().since(v.submitted));
                    if let Some(p) = self.prop.as_mut() {
                        p.inflight = p.inflight.saturating_sub(1);
                        p.unacked.remove(&v.seq);
                    }
                }
            }
        }
        self.maybe_checkpoint(ctx);
    }

    /// Starts a checkpoint when one is due (recovery-enabled learners).
    fn maybe_checkpoint(&mut self, ctx: &mut Ctx) {
        let (Some(rec), Some(l)) = (self.rec.as_mut(), self.learner.as_ref()) else { return };
        if let Some((bytes, token)) = rec.base.maybe_checkpoint(l.next_deliver, &l.delivered) {
            ctx.disk_write(bytes, token);
        }
    }

    /// Serves a catch-up request from a recovering peer: the decided
    /// suffix from `next`, preceded by this node's checkpoint when the
    /// peer has fallen below the cache's trim point (state transfer).
    fn serve_catchup(&mut self, from: NodeId, next: InstanceId, ctx: &mut Ctx) {
        let Some(rec) = self.rec.as_ref() else { return };
        let mut wire = self.cfg.ctl_bytes as u64;
        let mut eff = next;
        let snap = if next < rec.cache.base() {
            let cp = rec.base.store.lock().unwrap().checkpoint.clone();
            if let Some(cp) = cp.as_ref() {
                eff = cp.watermark;
                wire += cp.state_bytes;
            }
            cp
        } else {
            None
        };
        let batches = rec.cache.serve(eff, CATCHUP_CHUNK);
        for (_, b) in &batches {
            wire += batch_bytes(b);
        }
        let upto = rec.cache.horizon();
        ctx.tcp_send(
            from,
            UMsg::CatchupRep { snap, batches, upto },
            wire.min(u32::MAX as u64) as u32,
        );
    }

    fn on_catchup_rep(
        &mut self,
        snap: Option<Checkpoint>,
        batches: Vec<(InstanceId, Batch)>,
        upto: InstanceId,
        ctx: &mut Ctx,
    ) {
        {
            let Some(rec) = self.rec.as_mut() else { return };
            if !rec.base.catching_up() {
                return; // a retry's duplicate reply after completion
            }
            if let Some(cp) = snap {
                let l = self.learner.as_mut().expect("catch-up requester is a learner");
                if cp.watermark > l.next_deliver {
                    // State transfer: adopt the peer's checkpoint.
                    l.next_deliver = cp.watermark;
                    l.ready = l.ready.split_off(&cp.watermark);
                    rec.cache.trim_below(cp.watermark);
                    let log = self.log.as_ref().map(|log| (log, l.index));
                    rec.base.adopt_checkpoint(&cp, &mut l.delivered, log, true, &mut self.ctl.out);
                }
            }
        }
        let got = batches.len() as u64;
        for (i, b) in batches {
            // `id_hops_left: 1` delivers locally without forwarding:
            // catch-up traffic must not re-enter the ring circulation.
            let round = self.ctl.round;
            self.on_decision(i, b, 1, round, ctx);
        }
        // Once caught up to the responder's horizon, the live ring flow
        // (buffered in `ready` during catch-up) takes over.
        let next = self.learner.as_ref().map(|l| l.next_deliver).unwrap_or(upto);
        let rec = self.rec.as_mut().expect("checked above");
        if rec.base.catchup_progress(ctx.now(), next, upto, got, &mut self.ctl.out) {
            self.request_catchup(next, ctx);
        }
        self.emit(ctx);
    }

    /// Periodic re-send scan (recovery- or failover-enabled rings): the
    /// coordinator re-proposes outstanding instances whose circulation
    /// stalled, and proposers re-send undelivered values. Both paths are
    /// idempotent.
    fn repropose_check(&mut self, ctx: &mut Ctx) {
        if self.rec.is_none() && !self.ctl.enabled {
            return;
        }
        if self.excluded {
            // No live successor; re-sends resume after the splice-in.
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
            return;
        }
        let now = ctx.now();
        // Coordinator: re-send the 2A/2B chain for stalled instances.
        let mut resend: Vec<(InstanceId, Batch)> = Vec::new();
        if let Some(c) = self.coord.as_mut() {
            for (&i, (batch, sent)) in c.outstanding_batches.iter_mut() {
                if now.saturating_since(*sent) >= REPROP_AGE {
                    *sent = now;
                    resend.push((i, batch.clone()));
                }
            }
        }
        let round = self.ctl.round;
        for (instance, batch) in resend {
            ctx.counter_add("rec.reproposals", 1);
            let wire = self.hop_bytes(&batch, self.next_pos(), false);
            ctx.tcp_send(self.successor(), UMsg::Phase2ab { instance, round, batch }, wire);
        }
        // Proposer: re-send values nobody delivered.
        let succ = self.successor();
        let am_coord = self.coord.is_some();
        let mut requeue: Vec<Value> = Vec::new();
        if let Some(p) = self.prop.as_mut() {
            for (v, sent) in p.unacked.values_mut() {
                if now.saturating_since(*sent) >= REPROP_AGE {
                    *sent = now;
                    requeue.push(*v);
                }
            }
        }
        for v in requeue {
            ctx.counter_add("rec.value_resends", 1);
            if am_coord {
                self.enqueue(v, ctx);
            } else {
                ctx.tcp_send(succ, UMsg::Forward(v), v.bytes);
            }
        }
        ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
    }

    // ------------------------------------------------------------------
    // Failover: U-Ring's side of `crate::control` (see the module docs).
    // ------------------------------------------------------------------

    /// This process's delivery watermark: everything below is decided
    /// and delivered here, so its promises reveal votes from here up.
    fn floor(&self) -> InstanceId {
        self.learner.as_ref().map(|l| l.next_deliver).unwrap_or(InstanceId(0))
    }

    /// Carries out control-plane effects over this ring's TCP links.
    fn emit(&mut self, ctx: &mut Ctx) {
        let (me, ctl) = (self.me, self.cfg.ctl_bytes);
        for o in std::mem::take(&mut self.ctl.out) {
            match o {
                Out::Count(name, v) => ctx.counter_add(name, v),
                Out::Latency(name, d) => ctx.record_latency(name, d),
                Out::Suspect(d) => ctx.set_timer(d, TimerToken(T_SUSPECT)),
                Out::Phase1a { to, round } => {
                    ctx.tcp_send(to, UMsg::Phase1a { round, from: me }, ctl)
                }
                Out::Phase1b { to, round, votes } => {
                    let (wire, decided_below) = (phase1b_wire_bytes(ctl, &votes), self.floor());
                    ctx.tcp_send(to, UMsg::Phase1b { round, from: me, votes, decided_below }, wire);
                }
                Out::Ping { to } => ctx.tcp_send(to, UMsg::Ping { from: me }, ctl),
            }
        }
    }

    /// Asks the catch-up peer for the decided suffix from `next`.
    fn request_catchup(&self, next: InstanceId, ctx: &mut Ctx) {
        if let Some(rec) = self.rec.as_ref() {
            ctx.tcp_send(rec.peer, UMsg::CatchupReq { from: self.me, next }, self.cfg.ctl_bytes);
        }
    }

    /// Adopts `ring` as the current layout: rewrites the ring, recounts
    /// its acceptors (the acceptor *role* follows the node and is fixed
    /// at deployment; every layout keeps acceptors contiguous from
    /// position 0) and this process's position. A process absent from
    /// the layout marks itself excluded.
    fn adopt_layout(&mut self, ring: &[NodeId]) {
        self.cfg.ring = ring.to_vec();
        self.cfg.n_acceptors = ring.iter().filter(|n| self.ctl.acceptors.contains(n)).count();
        match ring.iter().position(|&n| n == self.me) {
            Some(p) => {
                self.pos = p;
                self.excluded = false;
            }
            None => self.excluded = true,
        }
    }

    /// Records the configuration epoch in the delivery log so the
    /// checker can verify per-learner epoch monotonicity.
    fn mark_epoch(&mut self) {
        if let (Some(l), Some(log)) = (self.learner.as_ref(), self.log.as_ref()) {
            let epoch = (self.ctl.round.counter << 32) | self.ctl.round.owner as u64;
            log.lock().unwrap().mark_epoch(l.index, epoch);
        }
    }

    /// Sends `msg` to every other deployed process (not just the current
    /// ring: spliced-out processes must learn they can rejoin, and stale
    /// coordinators that they are deposed).
    fn announce(&self, msg: UMsg, ctx: &mut Ctx) {
        for &n in &self.ctl.members {
            if n != self.me {
                ctx.tcp_send(n, msg.clone(), self.cfg.ctl_bytes);
            }
        }
    }

    fn broadcast_ring(&mut self, ctx: &mut Ctx) {
        let ring = self.cfg.ring.clone();
        self.announce(UMsg::NewRing { round: self.ctl.round, coord: self.me, ring }, ctx);
    }

    /// T_SUSPECT tick: an acceptor's rank among the non-coordinator
    /// acceptors is `pos - 1` (the coordinator sits at position 0).
    fn suspect_check(&mut self, ctx: &mut Ctx) {
        let rank = (self.acceptor.is_some() && !self.excluded).then(|| self.pos.saturating_sub(1));
        let Some(start) = self.ctl.suspect_tick(ctx.now(), self.coord.is_some(), rank) else {
            return; // chain ends; coordinators run the heartbeat chain
        };
        if start {
            self.start_takeover(ctx);
        }
        ctx.set_timer(self.ctl.timeout, TimerToken(T_SUSPECT));
    }

    fn start_takeover(&mut self, ctx: &mut Ctx) {
        let floor = self.floor();
        let won = self.ctl.start_takeover(ctx.now(), self.acceptor.as_mut(), floor, floor);
        self.emit(ctx);
        if let Some(t) = won {
            self.become_coordinator(t, ctx);
        }
    }

    fn on_phase1a(&mut self, round: Round, from: NodeId, ctx: &mut Ctx) {
        if self.ctl.on_phase1a(round) {
            // If we were the coordinator, the higher round deposes us.
            self.depose(ctx);
            let floor = self.floor();
            self.ctl.promise(from, self.acceptor.as_mut(), floor);
            self.emit(ctx);
        }
    }

    /// Promise quorum reached: reconstruct the instance allocation from
    /// the revealed votes, lay out a new ring, and resume proposing
    /// under the new epoch.
    ///
    /// Safety of the window repair: a U-Ring decision requires votes
    /// from *every* acceptor of its ring layout (≥ a quorum of the
    /// deployment's acceptors), and the promise quorum intersects any
    /// such set — so every instance decided above a promiser's delivery
    /// watermark has a revealed vote, and the highest-round revealed
    /// value is the (only possibly) chosen one. An instance above every
    /// promiser's watermark with no revealed vote is provably undecided
    /// and is closed with an empty batch. Revealed gaps *below* some
    /// promiser's watermark were decided and delivered somewhere while
    /// this quorum's votes no longer cover them (checkpoint GC); they
    /// are left to the recovery catch-up path rather than guessed at.
    fn become_coordinator(&mut self, t: Takeover<Batch, InstanceId>, ctx: &mut Ctx) {
        // New layout: me first (the coordinator is the first acceptor),
        // then the other promising acceptors, then the remaining current
        // members. Live processes spliced out here rejoin via JoinReq.
        let mut ring = vec![self.me];
        ring.extend(
            self.ctl.members.iter().filter(|&&n| n != self.me && t.promises.contains_key(&n)),
        );
        ring.extend(self.cfg.ring.iter().filter(|&n| !self.ctl.acceptors.contains(n)));
        // The re-proposal window starts at the lowest promiser watermark;
        // instances past the highest with no revealed vote are provably
        // undecided and get empty gap-fills.
        let here = self.floor();
        let start = t.promises.values().copied().min().unwrap_or(here).min(here);
        let db_max = t.promises.values().copied().max().unwrap_or(InstanceId(0));
        let mut next = start.max(db_max);
        if let Some((&hi, _)) = t.votes.iter().next_back() {
            next = next.max(hi.next());
        }
        let now = ctx.now();
        let mut c = UCoord {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: next,
            outstanding: BTreeSet::new(),
            outstanding_batches: BTreeMap::new(),
        };
        let mut reprops: Vec<(InstanceId, Batch)> = Vec::new();
        let mut i = start;
        while i < next {
            let batch = match t.votes.get(&i) {
                Some((_, b)) => b.clone(),
                None if i >= db_max => BatchData::empty(),
                None => {
                    i = i.next();
                    continue; // decided+delivered elsewhere; catch-up heals
                }
            };
            c.outstanding.insert(i);
            c.outstanding_batches.insert(i, (batch.clone(), now));
            reprops.push((i, batch));
            i = i.next();
        }
        self.coord = Some(c);
        self.adopt_layout(&ring);
        self.mark_epoch();
        self.ctl.became_coordinator(now);
        self.emit(ctx);
        self.broadcast_ring(ctx);
        for (i, b) in reprops {
            ctx.counter_add("rp.epoch_reproposals", 1);
            self.send_2ab(i, b, ctx);
        }
        ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
        ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
    }

    /// Drops the coordinator role (a higher round exists elsewhere).
    /// Pending and outstanding values are abandoned: proposers track
    /// undelivered values and re-send them to the new coordinator.
    fn depose(&mut self, ctx: &mut Ctx) {
        if self.coord.take().is_some() {
            self.ctl.deposed();
            self.emit(ctx);
        }
    }

    fn on_new_ring(&mut self, round: Round, coord: NodeId, ring: &[NodeId], ctx: &mut Ctx) {
        if !self.ctl.on_new_ring(ctx.now(), round, coord) {
            return;
        }
        self.depose(ctx);
        self.adopt_layout(ring);
        self.mark_epoch();
        if self.excluded {
            ctx.tcp_send(coord, UMsg::JoinReq { from: self.me }, self.cfg.ctl_bytes);
        }
    }

    fn on_heartbeat(&mut self, round: Round, coord: NodeId, ring: &[NodeId], ctx: &mut Ctx) {
        match self.ctl.on_heartbeat(ctx.now(), round, coord, self.cfg.ring == ring) {
            Beat::Ignore => {}
            // A respawned process still holds its pre-crash layout under
            // its restored (promised) round: resync from the heartbeat.
            Beat::Resync => self.on_new_ring(round, coord, ring, ctx),
            Beat::Alive => {
                if self.excluded {
                    ctx.tcp_send(coord, UMsg::JoinReq { from: self.me }, self.cfg.ctl_bytes);
                }
                self.revive_catchup_chain(ctx);
            }
        }
    }

    /// A process brought back up with its state preserved lost every
    /// timer that expired while it was down, the periodic catch-up tick
    /// included — and on a failover-enabled ring the others kept
    /// deciding around it, so gap detection is exactly what it needs.
    /// Heartbeats are the one signal such a process is guaranteed to
    /// receive: re-arm the chain when it looks dead.
    fn revive_catchup_chain(&mut self, ctx: &mut Ctx) {
        if self.learner.is_none() {
            return;
        }
        if self.rec.as_mut().is_some_and(|rec| rec.base.revive_tick(ctx.now())) {
            ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
        }
    }

    /// T_HEARTBEAT tick (coordinator only): keep-alives to the full
    /// membership, plus the ring-liveness check.
    fn heartbeat_tick(&mut self, ctx: &mut Ctx) {
        if !self.ctl.enabled || self.coord.is_none() {
            return; // deposed: the chain dies
        }
        let ring = self.cfg.ring.clone();
        self.announce(UMsg::Heartbeat { round: self.ctl.round, coord: self.me, ring }, ctx);
        self.ring_repair_check(ctx);
        ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
    }

    /// Coordinator-side ring liveness (Fig. 7.5's fix: throughput
    /// resumes after one probe round instead of staying down for the
    /// whole outage).
    fn ring_repair_check(&mut self, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_ref() else { return };
        let repair = self.ctl.repair_tick(ctx.now(), c.outstanding.is_empty());
        self.emit(ctx);
        if let Repair::Reform(responders) = repair {
            self.finish_ring_repair(responders, ctx);
        }
    }

    fn finish_ring_repair(&mut self, responders: BTreeSet<NodeId>, ctx: &mut Ctx) {
        // Keep responding members (acceptors contiguous first); silent
        // ones are spliced out and rejoin via JoinReq once they recover.
        let (acceptors, me) = (&self.ctl.acceptors, self.me);
        let live = self.ctl.members.iter().filter(|&&n| n != me && responders.contains(&n));
        let (live_acceptors, others): (Vec<NodeId>, _) = live.partition(|n| acceptors.contains(n));
        if 1 + live_acceptors.len() < quorum(acceptors.len()) {
            // Too few live acceptors to decide anything: stay put and
            // keep probing (no layout can make progress without a
            // quorum anyway).
            ctx.counter_add("rp.repair_short", 1);
            return;
        }
        let ring = [vec![me], live_acceptors, others].concat();
        if ring == self.cfg.ring {
            return; // everyone answered: the stall is load, not a crash
        }
        self.reform_to(ring, ctx);
    }

    /// Splices the ring to `ring` under a bumped round (layout is a
    /// function of the round, so stale-layout traffic fails the fence)
    /// and re-drives every outstanding instance through the new layout.
    fn reform_to(&mut self, ring: Vec<NodeId>, ctx: &mut Ctx) {
        self.ctl.advance_to(self.ctl.round.next_for(self.me.0 as u32));
        self.adopt_layout(&ring);
        self.mark_epoch();
        ctx.counter_add("rp.ring_repair", 1);
        self.broadcast_ring(ctx);
        let mut resend = Vec::new();
        for (&i, (b, sent)) in self.coord.iter_mut().flat_map(|c| c.outstanding_batches.iter_mut())
        {
            *sent = ctx.now();
            resend.push((i, b.clone()));
        }
        for (i, b) in resend {
            self.send_2ab(i, b, ctx);
        }
    }

    /// A process outside the current layout asks to be spliced back in
    /// (it recovered, or was wrongly suspected). Acceptors go back into
    /// the acceptor segment; others are appended.
    fn on_join_req(&mut self, from: NodeId, ctx: &mut Ctx) {
        if !self.ctl.enabled || self.coord.is_none() {
            return;
        }
        if self.cfg.ring.contains(&from) || !self.ctl.members.contains(&from) {
            return;
        }
        let mut ring = self.cfg.ring.clone();
        if self.ctl.acceptors.contains(&from) {
            ring.insert(self.cfg.last_acceptor_pos() + 1, from);
        } else {
            ring.push(from);
        }
        ctx.counter_add("rp.joins", 1);
        self.reform_to(ring, ctx);
    }
}

impl Actor for URingProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.ctl.heard_coordinator(ctx.now());
        if self.coord.is_some() {
            ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
            if self.ctl.enabled {
                ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
            }
        } else if self.ctl.enabled && self.acceptor.is_some() {
            ctx.set_timer(self.ctl.timeout, TimerToken(T_SUSPECT));
        }
        if self.prop.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.rec.is_none() && self.ctl.enabled {
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
        }
        if let Some(rec) = self.rec.as_mut() {
            ctx.set_timer(REPROP_INTERVAL, TimerToken(T_REPROP));
            if self.learner.is_some() {
                // Persistent tick: drives catch-up retries while
                // recovering and re-enters catch-up if a delivery gap
                // gets stuck later.
                ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            }
            if rec.base.start_catchup(ctx.now(), &mut self.ctl.out) {
                self.request_catchup(self.floor(), ctx);
            }
            self.emit(ctx);
        }
    }

    // Default `on_batch` for same-instant runs: it already loops
    // `on_message` with static dispatch (the engine pays the actor
    // indirection once per run either way), and nothing here can be
    // hoisted per burst without reordering ring traffic — delivery,
    // checkpointing, and catch-up all happen inline, per message.
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<UMsg>() else { return };
        match msg {
            UMsg::Forward(v) => {
                let v = *v;
                if self.excluded {
                    // No live successor; the origin proposer re-sends.
                    return;
                }
                if self.coord.is_some() {
                    self.enqueue(v, ctx);
                } else {
                    ctx.tcp_send(self.successor(), UMsg::Forward(v), v.bytes);
                }
            }
            UMsg::Phase2ab { instance, round, batch } => {
                let (instance, round) = (*instance, *round);
                let batch = batch.clone();
                self.on_phase2ab(instance, round, batch, ctx);
            }
            UMsg::Decision { instance, batch, id_hops_left, round } => {
                let (instance, ih, round) = (*instance, *id_hops_left, *round);
                let batch = batch.clone();
                self.on_decision(instance, batch, ih, round, ctx);
            }
            UMsg::Phase1a { round, from } => self.on_phase1a(*round, *from, ctx),
            UMsg::Phase1b { round, from, votes, decided_below } => {
                if let Some(t) = self.ctl.on_phase1b(*round, *from, votes.clone(), *decided_below) {
                    self.become_coordinator(t, ctx);
                }
            }
            UMsg::NewRing { round, coord, ring } => self.on_new_ring(*round, *coord, ring, ctx),
            UMsg::Heartbeat { round, coord, ring } => self.on_heartbeat(*round, *coord, ring, ctx),
            UMsg::Ping { from } => {
                ctx.tcp_send(*from, UMsg::Pong { from: self.me }, self.cfg.ctl_bytes);
            }
            UMsg::Pong { from } => self.ctl.on_pong(*from),
            UMsg::JoinReq { from } => self.on_join_req(*from, ctx),
            UMsg::CatchupReq { from, next } => self.serve_catchup(*from, *next, ctx),
            UMsg::CatchupRep { snap, batches, upto } => {
                self.on_catchup_rep(snap.clone(), batches.clone(), *upto, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 & KIND_MASK {
            T_BATCH => {
                if self.coord.is_some() {
                    self.try_flush(ctx, true);
                    ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
                }
            }
            T_PACE => self.pace(ctx),
            T_WAL => {
                let payload = token.0 & !KIND_MASK;
                let durable = match self.rec.as_mut() {
                    Some(rec) => rec.wal.on_token(payload, ctx),
                    None => Vec::new(),
                };
                for (instance, round, batch) in durable {
                    self.vote_and_forward(instance, round, batch, ctx);
                }
            }
            T_CKPT => {
                let payload = token.0 & !KIND_MASK;
                let Some(rec) = self.rec.as_mut() else { return };
                if let Some(w) = rec.base.checkpoint_durable(payload, &mut self.ctl.out) {
                    // The retention slack keeps a suffix below the
                    // watermark so peers with short outages avoid a
                    // full state transfer.
                    rec.cache.trim_below(InstanceId(w.0.saturating_sub(rec.retention)));
                    if let Some(a) = self.acceptor.as_mut() {
                        a.gc_below(w);
                    }
                }
                self.emit(ctx);
            }
            T_CATCHUP => {
                let Some(l) = self.learner.as_ref() else { return };
                let next = l.next_deliver;
                // Decisions buffered above an undelivered gap mean the
                // live flow skipped instances this learner is missing.
                let stuck = l.ready.keys().next().is_some_and(|&m| m > next);
                let Some(rec) = self.rec.as_mut() else { return };
                // Re-enters catch-up if a gap outlived a full tick
                // (re-proposal normally closes small gaps faster).
                if rec.base.gap_tick(ctx.now(), next, stuck, &mut self.ctl.out) {
                    self.request_catchup(next, ctx);
                }
                self.emit(ctx);
                ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            }
            T_REPROP => self.repropose_check(ctx),
            T_SUSPECT => self.suspect_check(ctx),
            T_HEARTBEAT => self.heartbeat_tick(ctx),
            T_DISK => {
                let payload = token.0 & !KIND_MASK;
                if payload == u64::MAX >> 8 {
                    return;
                }
                let instance = InstanceId(payload);
                if let Some((round, batch)) = self.disk_pending.remove(&instance) {
                    self.vote_and_forward(instance, round, batch, ctx);
                }
            }
            _ => {}
        }
    }
}
