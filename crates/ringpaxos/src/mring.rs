//! Multicast-based Ring Paxos (M-Ring Paxos, thesis Algorithm 2).
//!
//! One [`MRingProcess`] actor runs per node; a process can combine the
//! proposer, acceptor/coordinator, and learner roles, exactly as in the
//! paper's deployments. The steady-state message flow is:
//!
//! 1. proposers send values to the coordinator (UDP);
//! 2. the coordinator batches values, assigns the next consensus instance,
//!    and ip-multicasts `Phase2a` to the ring acceptors and all learners,
//!    piggybacking decisions of earlier instances;
//! 3. the first ring acceptor votes on ip-delivery and unicasts `Phase2b`
//!    to its successor; each acceptor votes and forwards;
//! 4. when the `Phase2b` reaches the coordinator (the last ring process)
//!    the quorum is complete: the instance is decided and announced on the
//!    next multicast;
//! 5. learners deliver a batch once they hold its payload *and* decision,
//!    in instance order.
//!
//! The module also implements the paper's engineering machinery: message
//! loss recovery through preferential acceptors (§3.3.4), coordinator
//! failover (§3.3.5), window-based flow control with learner back-pressure
//! (§3.3.6), and version-vector garbage collection (§3.3.7).
//!
//! Failover and learner catch-up run on the control plane both rings
//! share (`crate::control`); M-Ring keeps its layout rule, value
//! recovery, and transport (Phase 1 and probes by UDP, announcements by
//! ip-multicast).

use std::cell::Cell;
use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use abcast::{metric, MsgId, Pacer, SharedLog};
use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, Round};
use paxos::window::Window;
use recovery::{Checkpointer, RecoveredApp, StableHandle};
use simnet::prelude::*;

use crate::config::{MRingConfig, StorageMode};
use crate::control::{Beat, Control, Out, Recovery, Repair, Takeover};
use crate::control::{CATCHUP_CHUNK, CATCHUP_RETRY};
use crate::dedup::DeliveredTracker;
use crate::msg::{phase1b_wire_bytes, MMsg};
use crate::value::{batch_bytes, Batch, BatchData, Value, ALL_PARTITIONS};

// Timer tokens: kind in the top byte, payload (instance) below.
const T_BATCH: u64 = 1 << 56;
const T_PACE: u64 = 2 << 56;
const T_GC: u64 = 3 << 56;
const T_FLOW: u64 = 4 << 56;
const T_DELIVER: u64 = 5 << 56;
const T_RETRANS: u64 = 6 << 56;
const T_SUSPECT: u64 = 7 << 56;
const T_HEARTBEAT: u64 = 8 << 56;
const T_DISK: u64 = 9 << 56;
const T_VOTE_RETRY: u64 = 10 << 56;
const T_SKIP: u64 = 11 << 56;
const T_RESUB: u64 = 12 << 56;
const T_CKPT: u64 = 13 << 56;
const T_CATCHUP: u64 = 14 << 56;
const KIND_MASK: u64 = 0xff << 56;

fn token_kind(t: TimerToken) -> u64 {
    t.0 & KIND_MASK
}

fn token_payload(t: TimerToken) -> u64 {
    t.0 & !KIND_MASK
}

/// Coordinator-only state.
#[derive(Debug)]
struct CoordState {
    pending: VecDeque<Value>,
    pending_bytes: u64,
    next_instance: InstanceId,
    /// Proposed but undecided: instance → (batch, last 2A multicast, mask).
    outstanding: BTreeMap<InstanceId, (Batch, Time, u32)>,
    /// Decided instances (with masks) not yet announced to the group.
    decided_unsent: Vec<(InstanceId, u32)>,
    window: u32,
    last_slowdown: Time,
    last_mcast: Time,
    /// Applied version reported by each learner (for GC).
    versions: HashMap<NodeId, InstanceId>,
    gc_watermark: InstanceId,
    /// Logical instances produced so far (normal batches count 1, skip
    /// batches count their weight) — Multi-Ring Paxos rate accounting.
    logical_count: u64,
    /// Logical target accumulated from `lambda * delta` per interval.
    logical_target: u64,
}

/// Acceptor-only state.
///
/// `decided` and `early_2b` are touched on the per-packet 2A/2B paths, so
/// both use the dense sliding [`Window`] (GC advances the base; the rare
/// write below the watermark falls back to the window's side map, exactly
/// matching the `BTreeSet`/`BTreeMap` they replace).
struct AccState {
    paxos: Acceptor<Batch>,
    /// Instances known decided (dense window over the undecided range).
    decided: Window<()>,
    /// Skip weight per instance (only non-zero entries stored).
    skip_weights: BTreeMap<InstanceId, u64>,
    /// Partition mask per instance (only non-ALL entries stored).
    masks: BTreeMap<InstanceId, u32>,
    /// Watermark from the coordinator: every instance below is decided.
    decided_below: InstanceId,
    /// Phase 2B received before the matching 2A (reordering).
    early_2b: Window<Round>,
    /// Instances whose sync disk write is still pending.
    awaiting_disk: BTreeSet<InstanceId>,
}

/// Per-instance learner state: buffered payload (with the round of the
/// 2A that carried it — highest round wins, so stale coordinators cannot
/// poison delivery), announced decision round, and whether the instance
/// belongs to a foreign partition (skipped without payload, ch. 4
/// §4.2.2).
#[derive(Default)]
struct LearnerSlot {
    payload: Option<(Round, Batch)>,
    decided: Option<Round>,
    foreign: bool,
}

impl LearnerSlot {
    /// Deliverable: payload present and its round matches the deciding
    /// round (the paper's value-id check).
    fn ready(&self) -> bool {
        matches!((&self.decided, &self.payload), (Some(dr), Some((pr, _))) if dr == pr)
    }
}

/// Learner-only state. Instances at or above `next_deliver` live in a
/// dense sliding window (`window[instance - next_deliver]`): delivery
/// always advances the window's base, so the per-packet bookkeeping is
/// array indexing rather than the four tree searches per instance the
/// previous `BTreeMap`s cost.
struct LearnerState {
    index: usize,
    my_mask: u32,
    /// Slots for `next_deliver..`, indexed by offset.
    window: VecDeque<LearnerSlot>,
    next_deliver: InstanceId,
    /// Exactly-once filter over delivered values, bounded by per-proposer
    /// watermarks instead of an ever-growing id set.
    delivered: DeliveredTracker,
    slowdown_active: bool,
    applied_reported: InstanceId,
    /// Horizon snapshot from the previous retransmission check: only
    /// instances already visible a full interval ago are requested, so
    /// normally in-flight instances are not mistaken for losses.
    prev_horizon: InstanceId,
}

impl LearnerState {
    /// Mutable slot for `instance`, growing the window as needed.
    /// `None` when the instance is already delivered (below the window).
    #[inline]
    fn slot_mut(&mut self, instance: InstanceId) -> Option<&mut LearnerSlot> {
        if instance < self.next_deliver {
            return None;
        }
        let idx = (instance.0 - self.next_deliver.0) as usize;
        // Flow control bounds how far instances run ahead of delivery; a
        // far-ahead id would turn one packet into a huge resize.
        debug_assert!(
            idx < self.window.len() + (1 << 24),
            "learner window jump: instance {instance:?} vs next_deliver {:?}",
            self.next_deliver
        );
        if idx >= self.window.len() {
            self.window.resize_with(idx + 1, LearnerSlot::default);
        }
        Some(&mut self.window[idx])
    }

    /// Read-only slot for `instance`, if it is inside the window.
    #[inline]
    fn slot(&self, instance: InstanceId) -> Option<&LearnerSlot> {
        if instance < self.next_deliver {
            return None;
        }
        self.window.get((instance.0 - self.next_deliver.0) as usize)
    }

    /// Highest instance holding a payload or decision (the retransmission
    /// horizon), or `next_deliver` when nothing is buffered — the same
    /// value the previous map representation derived from its max keys.
    fn horizon(&self) -> InstanceId {
        for (off, slot) in self.window.iter().enumerate().rev() {
            if slot.payload.is_some() || slot.decided.is_some() {
                return InstanceId(self.next_deliver.0 + off as u64);
            }
        }
        self.next_deliver
    }
}

/// Proposer-only state.
struct ProposerState {
    pacer: Option<Pacer>,
    next_seq: u64,
    coordinator: NodeId,
    /// Sent but not yet seen delivered (resubmitted on failover).
    unacked: BTreeMap<u64, Value>,
    /// Only proposers that are also learners can prune `unacked`.
    track_acks: bool,
    /// Failover resubmissions still to send, paced so a long outage's
    /// backlog does not burst into the new ring all at once and drown
    /// the recovering 2B relay (tail drop at the coordinator's port).
    resubmit_q: VecDeque<u64>,
}

/// Recovery configuration for one M-Ring process: durable vote
/// recording (requires `StorageMode::SyncDisk` — only a write the disk
/// actually completed enters the stable store), learner checkpoints,
/// and bulk TCP catch-up from the preferential acceptor on restart.
pub struct MRecovery {
    /// The node's stable store, shared across process incarnations.
    pub store: StableHandle<Batch>,
    /// Checkpoint every this many delivered instances (0 = never).
    pub checkpoint_interval: u64,
    /// The replicated service hook snapshotted by checkpoints.
    pub app: Option<Box<dyn RecoveredApp>>,
    /// Whether this incarnation replaces a crashed one (respawn).
    pub resumed: bool,
}

/// One M-Ring Paxos process; roles derive from its position in the
/// configuration.
pub struct MRingProcess {
    cfg: MRingConfig,
    me: NodeId,
    /// The control plane over the acceptors (ring plus spares at
    /// deployment); each promise reports the instances the acceptor
    /// knows decided.
    ctl: Control<Batch, Vec<InstanceId>>,
    coord: Option<CoordState>,
    acc: Option<AccState>,
    lrn: Option<LearnerState>,
    prop: Option<ProposerState>,
    log: Option<SharedLog>,
    /// Live control of the proposer's offered rate (bits/s); experiment
    /// drivers flip it mid-run (Fig. 5.9/5.10 oscillating workloads).
    rate_ctl: Option<Rc<Cell<u64>>>,
    /// Live control of the learner's per-batch processing cost
    /// (Fig. 3.14's slow-learner trace).
    cost_ctl: Option<Rc<Cell<Dur>>>,
    /// Highest GC watermark already applied; re-announcements of the same
    /// watermark (it rides on every 2A) skip the tree-splitting work.
    gc_applied: InstanceId,
    rec: Option<Recovery<Batch>>,
}

impl MRingProcess {
    /// Creates the process for node `me` under `cfg`. `proposer_rate`
    /// (bits/s) and `proposer_msg_bytes` configure an open-loop proposer
    /// role; `learner_log` enables the learner role and records deliveries.
    pub fn new(
        cfg: MRingConfig,
        me: NodeId,
        proposer: Option<Pacer>,
        learner_log: Option<SharedLog>,
    ) -> MRingProcess {
        // Phase 1 is pre-executed at deployment (§3.2 optimization): all
        // processes start in round 1 owned by the initial coordinator.
        let coord_idx = cfg.ring.len() as u32 - 1;
        let round = Round::new(1, coord_idx);
        let is_coord = cfg.coordinator() == me;
        let in_ring = cfg.ring.contains(&me);
        let is_spare = cfg.spares.contains(&me);
        let learner_index = cfg.learners.iter().position(|&n| n == me);
        let acceptors: Vec<NodeId> = cfg.ring.iter().chain(&cfg.spares).copied().collect();
        let ctl =
            Control::new(me, acceptors.clone(), acceptors, round, Some(cfg.suspicion_timeout));

        let coord = is_coord.then(|| CoordState {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: InstanceId(0),
            outstanding: BTreeMap::new(),
            decided_unsent: Vec::new(),
            window: cfg.flow.initial_window,
            last_slowdown: Time::ZERO,
            last_mcast: Time::ZERO,
            versions: HashMap::new(),
            gc_watermark: InstanceId(0),
            logical_count: 0,
            logical_target: 0,
        });
        let acc = (in_ring || is_spare).then(|| {
            let mut paxos = Acceptor::new();
            // Pre-promised round 1 (pre-executed Phase 1).
            let _ = paxos.receive_1a(round);
            AccState {
                paxos,
                decided: Window::new(),
                skip_weights: BTreeMap::new(),
                masks: BTreeMap::new(),
                decided_below: InstanceId(0),
                early_2b: Window::new(),
                awaiting_disk: BTreeSet::new(),
            }
        });
        let lrn = learner_index.map(|index| LearnerState {
            index,
            my_mask: cfg.learner_mask(index),
            window: VecDeque::new(),
            next_deliver: InstanceId(0),
            delivered: DeliveredTracker::new(),
            slowdown_active: false,
            applied_reported: InstanceId(0),
            prev_horizon: InstanceId(0),
        });
        let track_acks = learner_index.is_some();
        let prop = proposer.map(|pacer| ProposerState {
            pacer: Some(pacer),
            next_seq: 0,
            coordinator: cfg.coordinator(),
            unacked: BTreeMap::new(),
            resubmit_q: VecDeque::new(),
            track_acks,
        });
        MRingProcess {
            cfg,
            me,
            ctl,
            coord,
            acc,
            lrn,
            prop,
            log: learner_log,
            rate_ctl: None,
            cost_ctl: None,
            gc_applied: InstanceId(0),
            rec: None,
        }
    }

    /// Attaches the recovery subsystem (see [`MRecovery`]). Must be
    /// called before the process is installed. When `rec.resumed`, the
    /// acceptor replays its durable votes and the learner restores its
    /// checkpoint here; catch-up starts in `on_start`. The proposer role
    /// is not resumed (its sequence numbers are not logged).
    pub fn with_recovery(mut self, rec: MRecovery) -> MRingProcess {
        let mut state = Recovery::new(rec.store, rec.checkpoint_interval, T_CKPT, rec.app);
        self.ctl.log_promises(state.store.clone());
        if rec.resumed {
            if let Some(a) = self.acc.as_mut() {
                let s = state.store.lock().unwrap();
                let votes = s.votes.iter().map(|(&i, (r, v))| (i, *r, v.clone()));
                a.paxos = Acceptor::restore(s.promised.max(self.ctl.round), votes);
            }
            let cp = Checkpointer::recover(&state.store).unwrap_or_default();
            if let Some(l) = self.lrn.as_mut() {
                l.next_deliver = cp.watermark;
                l.applied_reported = cp.watermark;
                let log = self.log.as_ref().map(|log| (log, l.index));
                state.adopt_checkpoint(&cp, &mut l.delivered, log, false, &mut self.ctl.out);
            }
        }
        self.rec = Some(state);
        self
    }

    /// Attaches a live rate control for this proposer (bits per second;
    /// `0` pauses proposing).
    pub fn with_rate_control(mut self, ctl: Rc<Cell<u64>>) -> MRingProcess {
        self.rate_ctl = Some(ctl);
        self
    }

    /// Attaches a live control for the learner's per-batch cost.
    pub fn with_cost_control(mut self, ctl: Rc<Cell<Dur>>) -> MRingProcess {
        self.cost_ctl = Some(ctl);
        self
    }

    /// Creates a pure proposer role descriptor for deployments.
    pub fn proposer_pacer(rate_bps: u64, msg_bytes: u32, burst: u32) -> Pacer {
        Pacer::new(rate_bps, msg_bytes, burst)
    }

    fn ring_pos(&self) -> Option<usize> {
        self.cfg.ring.iter().position(|&n| n == self.me)
    }

    fn is_coordinator(&self) -> bool {
        self.coord.is_some()
    }

    // ------------------------------------------------------------------
    // Proposer
    // ------------------------------------------------------------------

    fn pace(&mut self, ctx: &mut Ctx) {
        let ctl_rate = self.rate_ctl.as_ref().map(|c| c.get());
        let Some(p) = self.prop.as_mut() else { return };
        let Some(pacer) = p.pacer.as_mut() else { return };
        if let Some(rate) = ctl_rate {
            if rate == 0 {
                // Paused: consume missed slots and re-check shortly.
                let _ = pacer.due(ctx.now());
                ctx.set_timer(Dur::millis(1), TimerToken(T_PACE));
                return;
            }
            pacer.set_rate(rate);
        }
        let due = pacer.due(ctx.now());
        let bytes = pacer.msg_bytes();
        let interval = pacer.interval();
        let coordinator = p.coordinator;
        for _ in 0..due {
            let seq = p.next_seq;
            p.next_seq += 1;
            let v = Value {
                id: MsgId(((self.me.0 as u64) << 40) | seq),
                proposer: self.me,
                seq,
                bytes,
                submitted: ctx.now(),
                mask: ALL_PARTITIONS,
            };
            if p.track_acks {
                p.unacked.insert(seq, v);
            }
            ctx.udp_send(coordinator, MMsg::Propose(v), bytes);
            ctx.counter_add_id(metric::id::PROPOSED, 1);
        }
        ctx.set_timer(interval, TimerToken(T_PACE));
    }

    // ------------------------------------------------------------------
    // Coordinator
    // ------------------------------------------------------------------

    fn on_propose(&mut self, v: Value, src: NodeId, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_mut() else {
            // Not (or no longer) the coordinator. Ring proposers redirect
            // themselves after `NewRing`, but an *external* client (the
            // psmr crate's) only knows the deployment-time coordinator —
            // relay its proposal to the coordinator of the view we hold,
            // so any live member a client guesses is a valid submission
            // point after failover. Proposals relayed by a fellow ring
            // member are dropped instead of re-relayed, so disagreeing
            // views cannot bounce a value around in a loop.
            let coord = self.cfg.coordinator();
            if coord != self.me && !self.cfg.ring.contains(&src) {
                ctx.counter_add("rp.fwd_propose", 1);
                ctx.udp_send(coord, MMsg::Propose(v), v.bytes);
            }
            return;
        };
        if c.pending_bytes + v.bytes as u64 > self.cfg.pending_cap_bytes {
            ctx.counter_add("rp.drop", 1);
            ctx.counter_add("rp.drop_bytes", v.bytes as u64);
            return;
        }
        c.pending.push_back(v);
        c.pending_bytes += v.bytes as u64;
        self.try_flush(ctx, false);
    }

    /// Assembles and multicasts as many full packets as the window allows;
    /// with `force`, also flushes a partial batch (timeout path).
    fn try_flush(&mut self, ctx: &mut Ctx, force: bool) {
        loop {
            let Some(c) = self.coord.as_mut() else { return };
            let window_open = (c.outstanding.len() as u32) < c.window;
            let full = c.pending_bytes >= self.cfg.packet_bytes as u64;
            let partial = force && !c.pending.is_empty();
            let decisions_only = c.pending.is_empty() && !c.decided_unsent.is_empty();

            if window_open && (full || partial) {
                let mut vals = Vec::new();
                let mut bytes = 0u64;
                // Batches are single-mask: a batch is transferred to the
                // groups of the partitions it accesses, so values with
                // different masks go in different batches (§4.2.2).
                let mask = c.pending.front().map(|v| v.mask).unwrap_or(ALL_PARTITIONS);
                while let Some(v) = c.pending.front() {
                    if !vals.is_empty()
                        && (bytes + v.bytes as u64 > self.cfg.packet_bytes as u64 || v.mask != mask)
                    {
                        break;
                    }
                    let v = c.pending.pop_front().expect("front checked");
                    c.pending_bytes -= v.bytes as u64;
                    bytes += v.bytes as u64;
                    vals.push(v);
                }
                // Probe stamp: a PROPOSE span opens at the earliest
                // client submission in the batch (captured before
                // `BatchData::new` consumes the values).
                let first_submitted = if ctx.probes_enabled() {
                    vals.iter().map(|v| v.submitted).min()
                } else {
                    None
                };
                let batch: Batch = BatchData::new(vals);
                let instance = c.next_instance;
                c.next_instance = instance.next();
                c.outstanding.insert(instance, (batch.clone(), ctx.now(), mask));
                c.logical_count += 1;
                let partitioned = self.cfg.partitions.is_some();
                let decisions = if partitioned {
                    Rc::new(Vec::new()) // no piggybacking in partitioned mode
                } else {
                    Rc::new(std::mem::take(&mut c.decided_unsent))
                };
                let gc_upto = c.gc_watermark;
                c.last_mcast = ctx.now();
                // The coordinator votes for its own proposal (it is the
                // last acceptor in the ring).
                if let Some(a) = self.acc.as_mut() {
                    let _ = a.paxos.receive_2a(instance, self.ctl.round, batch.clone());
                    if mask != ALL_PARTITIONS {
                        a.masks.insert(instance, mask);
                    }
                }
                ctx.charge_cpu(0, self.cfg.batch_overhead);
                let wire = (bytes.min(u32::MAX as u64) as u32).max(self.cfg.ctl_bytes);
                let decided_below = c.outstanding.keys().next().copied().unwrap_or(instance);
                let msg = MMsg::Phase2a {
                    instance,
                    round: self.ctl.round,
                    batch: batch.clone(),
                    decisions: decisions.clone(),
                    gc_upto,
                    skip: 0,
                    mask,
                    decided_below,
                };
                if let Some(at) = first_submitted {
                    let key = probe::span_key(self.cfg.group.0 as u32, instance.0);
                    ctx.probe_at(probe::code::PROPOSE, key, at);
                    ctx.probe(probe::code::PHASE2A, key);
                }
                self.mcast_2a(msg, mask, wire, ctx);
                // Local loop-back when the coordinator is also a learner
                // (multicast does not echo to the sender).
                let round = self.ctl.round;
                self.learner_store(instance, &batch, mask, round);
                self.learner_decide(&decisions, round);
                self.try_deliver(ctx);
                continue;
            }
            if decisions_only && force {
                let c = self.coord.as_mut().expect("checked");
                let decisions = Rc::new(std::mem::take(&mut c.decided_unsent));
                let gc_upto = c.gc_watermark;
                c.last_mcast = ctx.now();
                let group = self
                    .cfg
                    .partitions
                    .as_ref()
                    .map(|p| p.decision_group)
                    .unwrap_or(self.cfg.group);
                let round = self.ctl.round;
                let decided_below = self.decided_below();
                ctx.mcast(
                    group,
                    MMsg::Decision { instances: decisions.clone(), round, gc_upto, decided_below },
                    self.cfg.ctl_bytes,
                );
                self.learner_decide(&decisions, round);
                self.try_deliver(ctx);
            }
            return;
        }
    }

    /// Multicasts a Phase 2A: once on the classic group, or once per
    /// accessed partition group in partitioned mode (§4.2.2 — acceptors
    /// subscribe to all groups and deduplicate).
    fn mcast_2a(&mut self, msg: MMsg, mask: u32, wire: u32, ctx: &mut Ctx) {
        match self.cfg.partitions.as_ref() {
            None => ctx.mcast(self.cfg.group, msg, wire),
            Some(p) => {
                let payload = Payload::new(msg);
                for (i, &g) in p.groups.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        ctx.mcast_forward(g, payload.clone(), wire);
                    }
                }
            }
        }
    }

    fn on_phase2b(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        if round != self.ctl.round {
            return;
        }
        if self.is_coordinator() {
            // Quorum complete: every ring acceptor voted, plus ourselves.
            let Some(c) = self.coord.as_mut() else { return };
            if let Some((_, _, mask)) = c.outstanding.remove(&instance) {
                self.ctl.progress(ctx.now());
                c.decided_unsent.push((instance, mask));
                if let Some(a) = self.acc.as_mut() {
                    a.decided.insert(instance, ());
                }
                ctx.counter_add_id(metric::id::INSTANCES, 1);
                if ctx.probes_enabled() {
                    let key = probe::span_key(self.cfg.group.0 as u32, instance.0);
                    ctx.probe(probe::code::DECIDE, key);
                }
                let round = self.ctl.round;
                self.learner_decide(&[(instance, mask)], round);
                self.try_deliver(ctx);
                // Classic mode: decisions ride on the next 2A (or the
                // batch timer flushes them). Partitioned mode: decisions
                // go out promptly on the decision group.
                if self.cfg.partitions.is_some() {
                    self.flush_decisions(ctx);
                } else {
                    self.try_flush(ctx, false);
                }
            }
        } else {
            // Mid-ring acceptor: vote if the 2A was ip-delivered, else hold.
            self.relay_2b(instance, round, ctx);
        }
    }

    /// Partitioned mode: multicasts accumulated decisions on the decision
    /// group once enough have gathered (or via the batch timer).
    fn flush_decisions(&mut self, ctx: &mut Ctx) {
        let Some(p) = self.cfg.partitions.as_ref() else { return };
        let group = p.decision_group;
        let ctl = self.cfg.ctl_bytes;
        let Some(c) = self.coord.as_mut() else { return };
        if c.decided_unsent.is_empty() {
            return;
        }
        let decisions = Rc::new(std::mem::take(&mut c.decided_unsent));
        let gc_upto = c.gc_watermark;
        c.last_mcast = ctx.now();
        let round = self.ctl.round;
        let decided_below = self.decided_below();
        ctx.mcast(
            group,
            MMsg::Decision { instances: decisions.clone(), round, gc_upto, decided_below },
            ctl,
        );
        self.learner_decide(&decisions, round);
        self.try_deliver(ctx);
    }

    // ------------------------------------------------------------------
    // Acceptor
    // ------------------------------------------------------------------

    fn on_phase2a(&mut self, instance: InstanceId, round: Round, batch: Batch, ctx: &mut Ctx) {
        if self.ctl.advance_to(round) {
            // A higher-round coordinator exists: step down if we (stale,
            // e.g. restarted after a pause) still believe we coordinate.
            self.depose(ctx);
        }
        let is_first = self.ring_pos() == Some(0);
        let Some(a) = self.acc.as_mut() else { return };
        self.ctl.heard_coordinator(ctx.now());
        if round != self.ctl.round || self.cfg.coordinator() == self.me {
            return;
        }
        // Partitioned mode replicates one 2A onto several groups; an
        // acceptor subscribed to all of them deduplicates (§4.2.2). A
        // duplicate can also be the coordinator *retransmitting* after a
        // lost Phase 2B — the first acceptor must restart the vote relay.
        if a.paxos.vote(instance).is_some_and(|v| v.v_rnd == round) {
            let disk_ok = !a.awaiting_disk.contains(&instance);
            if is_first && disk_ok {
                self.send_2b_to_successor(instance, round, ctx);
            }
            return;
        }
        let batch_wire_bytes = batch_bytes(&batch).min(u32::MAX as u64) as u32;
        if a.paxos.receive_2a(instance, round, batch).is_none() {
            return;
        }
        match self.cfg.storage {
            StorageMode::InMemory => {
                self.after_vote_durable(instance, round, is_first, ctx);
            }
            StorageMode::SyncDisk => {
                let bytes = batch_wire_bytes;
                let a = self.acc.as_mut().expect("acceptor");
                a.awaiting_disk.insert(instance);
                ctx.disk_write_coalesced(
                    bytes,
                    self.cfg.disk_unit,
                    TimerToken(T_DISK | instance.0),
                );
            }
            StorageMode::AsyncDisk => {
                // Fire-and-forget write; throttle if the disk lags.
                let bytes = batch_wire_bytes;
                ctx.disk_write_coalesced(
                    bytes,
                    self.cfg.disk_unit,
                    TimerToken(T_VOTE_RETRY | u64::MAX >> 8),
                );
                if ctx.disk_backlog() > Dur::millis(20) {
                    // Delay the vote until the disk catches up a little.
                    let wait = ctx.disk_backlog() - Dur::millis(20);
                    let first_flag = if is_first { 1u64 << 55 } else { 0 };
                    ctx.set_timer(wait, TimerToken(T_VOTE_RETRY | first_flag | instance.0));
                } else {
                    self.after_vote_durable(instance, round, is_first, ctx);
                }
            }
        }
    }

    /// Runs once the vote for `instance` is durable (per storage mode):
    /// first acceptor starts the 2B relay; others release a buffered 2B.
    fn after_vote_durable(
        &mut self,
        instance: InstanceId,
        round: Round,
        is_first: bool,
        ctx: &mut Ctx,
    ) {
        if is_first {
            self.send_2b_to_successor(instance, round, ctx);
            return;
        }
        let Some(a) = self.acc.as_mut() else { return };
        if let Some(r) = a.early_2b.remove(instance) {
            if r == round {
                self.send_2b_to_successor(instance, round, ctx);
            }
        }
    }

    /// Handles a 2B arriving from the ring predecessor at a mid-ring
    /// acceptor: forward only if we have ip-delivered (and voted for) the
    /// corresponding 2A — the heart of Task 5 in Algorithm 2.
    fn relay_2b(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        let Some(a) = self.acc.as_mut() else { return };
        let voted = a.paxos.vote(instance).is_some_and(|v| v.v_rnd == round);
        let disk_ok = !a.awaiting_disk.contains(&instance);
        if voted && disk_ok {
            self.send_2b_to_successor(instance, round, ctx);
        } else {
            a.early_2b.insert(instance, round);
        }
    }

    fn send_2b_to_successor(&mut self, instance: InstanceId, round: Round, ctx: &mut Ctx) {
        if ctx.probes_enabled() {
            ctx.probe(probe::code::PHASE2B, probe::span_key(self.cfg.group.0 as u32, instance.0));
        }
        if let Some(succ) = self.cfg.successor(self.me) {
            ctx.udp_send(succ, MMsg::Phase2b { instance, round }, self.cfg.ctl_bytes);
        }
    }

    fn on_retrans_req(&mut self, from: NodeId, instances: &[InstanceId], ctx: &mut Ctx) {
        let Some(a) = self.acc.as_ref() else { return };
        let mut replies = Vec::new();
        for &i in instances {
            if let Some(vote) = a.paxos.vote(i) {
                let skip = a.skip_weights.get(&i).copied().unwrap_or(0);
                let mask = a.masks.get(&i).copied().unwrap_or(ALL_PARTITIONS);
                let decided = a.decided.contains(i) || i < a.decided_below;
                replies.push((i, vote.v_val.clone(), decided, vote.v_rnd, skip, mask));
            }
        }
        for (instance, batch, decided, round, skip, mask) in replies {
            let wire = batch_bytes(&batch).min(u32::MAX as u64) as u32;
            ctx.counter_add("rp.retrans", 1);
            ctx.udp_send(
                from,
                MMsg::RetransRep { instance, batch, decided, round, skip, mask },
                wire.max(self.cfg.ctl_bytes),
            );
        }
    }

    // ------------------------------------------------------------------
    // Learner
    // ------------------------------------------------------------------

    fn learner_store(&mut self, instance: InstanceId, batch: &Batch, mask: u32, round: Round) {
        if let Some(l) = self.lrn.as_mut() {
            if mask & l.my_mask != 0 {
                if let Some(slot) = l.slot_mut(instance) {
                    match &slot.payload {
                        Some((r, _)) if *r >= round => {}
                        _ => slot.payload = Some((round, batch.clone())),
                    }
                }
            }
        }
    }

    fn learner_decide(&mut self, instances: &[(InstanceId, u32)], round: Round) {
        if let Some(l) = self.lrn.as_mut() {
            let my_mask = l.my_mask;
            for &(i, mask) in instances {
                if let Some(slot) = l.slot_mut(i) {
                    if mask & my_mask == 0 {
                        // Another partition's instance: skip over it.
                        slot.foreign = true;
                    } else {
                        slot.decided = Some(slot.decided.map_or(round, |e| e.max(round)));
                    }
                }
            }
        }
    }

    /// Authoritative decision from an acceptor's stored (decided) vote:
    /// pins both payload and decision to the vote's round.
    fn learner_authoritative(&mut self, instance: InstanceId, batch: &Batch, round: Round) {
        if let Some(l) = self.lrn.as_mut() {
            if let Some(slot) = l.slot_mut(instance) {
                slot.payload = Some((round, batch.clone()));
                slot.decided = Some(round);
            }
        }
    }

    fn try_deliver(&mut self, ctx: &mut Ctx) {
        let batch_cost = self.cost_ctl.as_ref().map_or(self.cfg.learner_batch_cost, |c| c.get());
        loop {
            let Some(l) = self.lrn.as_mut() else { return };
            let next = l.next_deliver;
            let Some(front) = l.window.front() else { break };
            if front.foreign {
                // Not our partition: advance without delivering (§4.2.2).
                l.window.pop_front();
                l.next_deliver = next.next();
                continue;
            }
            // Deliver only when the payload's round matches the deciding
            // round (the paper's value-id check): a payload from a
            // deposed coordinator never masquerades as the decided value.
            if !front.ready() {
                break;
            }
            if batch_cost > Dur::ZERO {
                // Application processing runs on core 1 (a pinned thread);
                // if it falls far behind, pause and resume by timer so the
                // buffer build-up is observable (flow control, §3.3.6).
                let backlog = ctx.core_free_at(1).saturating_since(ctx.now());
                if backlog > Dur::millis(5) {
                    ctx.set_timer(backlog - Dur::millis(4), TimerToken(T_DELIVER));
                    break;
                }
                ctx.charge_cpu(1, batch_cost);
            }
            let l = self.lrn.as_mut().expect("learner");
            let slot = l.window.pop_front().expect("front checked");
            let (_, batch) = slot.payload.expect("payload checked");
            l.next_deliver = next.next();
            let index = l.index;
            if ctx.probes_enabled() {
                ctx.probe(probe::code::DELIVER, probe::span_key(self.cfg.group.0 as u32, next.0));
            }
            let mut delivered_here = Vec::new();
            for v in batch.iter() {
                if !l.delivered.fresh(v.proposer, v.seq) {
                    continue; // duplicate after failover resubmission
                }
                delivered_here.push(*v);
            }
            let evicted = l.delivered.take_evictions();
            if evicted != 0 {
                ctx.counter_add(crate::dedup::DEDUP_EVICT, evicted);
            }
            if let Some(log) = self.log.as_ref() {
                let mut log = log.lock().unwrap();
                for v in &delivered_here {
                    log.deliver(index, v.id);
                }
            }
            if let Some(rec) = self.rec.as_mut() {
                rec.delivered_count += delivered_here.len() as u64;
                if let Some(app) = rec.app.as_mut() {
                    for v in &delivered_here {
                        app.apply(v.proposer.0 as u64, v.seq, v.bytes);
                    }
                }
            }
            for v in &delivered_here {
                ctx.counter_add_id(metric::id::DELIVERED_BYTES, v.bytes as u64);
                ctx.counter_add_id(metric::id::DELIVERED_MSGS, 1);
                if v.proposer == self.me {
                    // Delivery strictly follows submission; `since`
                    // debug-asserts that instead of masking inversions.
                    ctx.record_latency(metric::LATENCY, ctx.now().since(v.submitted));
                    if let Some(p) = self.prop.as_mut() {
                        p.unacked.remove(&v.seq);
                    }
                }
            }
        }
        self.maybe_checkpoint(ctx);
        self.flow_check(ctx);
    }

    /// Starts a checkpoint when one is due (recovery-enabled learners).
    fn maybe_checkpoint(&mut self, ctx: &mut Ctx) {
        let (Some(rec), Some(l)) = (self.rec.as_mut(), self.lrn.as_ref()) else { return };
        if let Some((bytes, token)) = rec.maybe_checkpoint(l.next_deliver, &l.delivered) {
            ctx.disk_write(bytes, token);
        }
    }

    /// Serves a recovery catch-up request from the acceptor's stored
    /// votes: contiguous decided instances from `next`, over TCP. When
    /// `next` has fallen below this acceptor's GC watermark, the reply's
    /// `available_from` tells the requester to fetch a peer learner's
    /// checkpoint first.
    fn serve_catchup(&mut self, from: NodeId, next: InstanceId, ctx: &mut Ctx) {
        let Some(a) = self.acc.as_ref() else { return };
        let horizon = a
            .decided
            .iter()
            .map(|(i, _)| i.next())
            .last()
            .unwrap_or(InstanceId(0))
            .max(a.decided_below);
        let available_from = a.paxos.gc_base().max(next);
        let mut batches = Vec::new();
        let mut wire = self.cfg.ctl_bytes as u64;
        let mut i = available_from;
        while batches.len() < CATCHUP_CHUNK && i < horizon {
            let decided = a.decided.contains(i) || i < a.decided_below;
            let Some(vote) = a.paxos.vote(i) else { break };
            if !decided {
                break;
            }
            let skip = a.skip_weights.get(&i).copied().unwrap_or(0);
            let mask = a.masks.get(&i).copied().unwrap_or(ALL_PARTITIONS);
            wire += batch_bytes(&vote.v_val);
            batches.push((i, vote.v_val.clone(), vote.v_rnd, skip, mask));
            i = i.next();
        }
        ctx.counter_add("rec.catchup_served", batches.len() as u64);
        ctx.tcp_send(
            from,
            MMsg::CatchupRep { batches, upto: horizon, available_from },
            wire.min(u32::MAX as u64) as u32,
        );
    }

    /// A peer learner in this deployment other than `me` (the state
    /// transfer source when acceptors have GC'd past a straggler).
    fn snap_peer(&self) -> Option<NodeId> {
        self.cfg.learners.iter().copied().find(|&n| n != self.me)
    }

    /// Ingests a recovery catch-up chunk at a restarted learner.
    fn on_catchup_rep(
        &mut self,
        batches: Vec<(InstanceId, Batch, Round, u64, u32)>,
        upto: InstanceId,
        available_from: InstanceId,
        ctx: &mut Ctx,
    ) {
        if !self.rec.as_ref().is_some_and(|r| r.catching_up()) {
            return; // a retry's duplicate reply after completion
        }
        let next_now = self.lrn.as_ref().map(|l| l.next_deliver).unwrap_or(InstanceId(0));
        if available_from > next_now {
            // The acceptors collected past us (§3.3.7): only a peer
            // learner's checkpoint can close the gap. Stay catching up;
            // re-request once the transfer lands (or on the retry tick).
            if let Some(peer) = self.snap_peer() {
                let me = self.me;
                ctx.counter_add("rec.snap_reqs", 1);
                ctx.tcp_send(peer, MMsg::SnapReq { from: me }, self.cfg.ctl_bytes);
            }
            return;
        }
        let got = batches.len() as u64;
        let my_mask = self.lrn.as_ref().map(|l| l.my_mask).unwrap_or(ALL_PARTITIONS);
        for (instance, batch, round, _skip, mask) in batches {
            if mask & my_mask == 0 {
                self.learner_decide(&[(instance, mask)], round);
            } else {
                self.learner_authoritative(instance, &batch, round);
            }
        }
        self.try_deliver(ctx);
        // An empty reply below the horizon (the acceptor could not serve
        // contiguously, e.g. mid-GC) waits for the T_CATCHUP retry.
        let next = self.lrn.as_ref().map(|l| l.next_deliver).unwrap_or(upto);
        let rec = self.rec.as_mut().expect("checked above");
        if rec.catchup_progress(ctx.now(), next, upto, got, &mut self.ctl.out) {
            self.request_catchup(next, ctx);
        }
        self.emit(ctx);
    }

    /// Adopts a peer learner's checkpoint (state transfer): jump the
    /// delivery window to its watermark and resume catch-up from there.
    fn on_snap_rep(&mut self, snap: Option<recovery::Checkpoint>, ctx: &mut Ctx) {
        let Some(rec) = self.rec.as_mut().filter(|r| r.catching_up()) else { return };
        let Some(cp) = snap else { return };
        let Some(l) = self.lrn.as_mut() else { return };
        if cp.watermark <= l.next_deliver {
            return; // the peer is not ahead (yet); the retry tick re-asks
        }
        let jump = (cp.watermark.0 - l.next_deliver.0) as usize;
        for _ in 0..jump.min(l.window.len()) {
            l.window.pop_front();
        }
        l.next_deliver = cp.watermark;
        l.applied_reported = cp.watermark;
        let log = self.log.as_ref().map(|log| (log, l.index));
        rec.adopt_checkpoint(&cp, &mut l.delivered, log, true, &mut self.ctl.out);
        self.emit(ctx);
        self.request_catchup(cp.watermark, ctx);
        self.try_deliver(ctx);
    }

    /// Buffered (ready but unprocessed) instances at this learner:
    /// consecutive instances from the delivery point that hold both
    /// payload and decision but have not been handed to the application.
    fn learner_buffered(&self) -> u32 {
        // Cap the scan just past the flow-control threshold: callers only
        // need to know which side of the threshold we are on, and an
        // overloaded learner may buffer hundreds of thousands of
        // instances (scanning them per event would be quadratic).
        let cap = self.cfg.flow.learner_threshold.saturating_mul(2).max(16);
        let Some(l) = self.lrn.as_ref() else { return 0 };
        let mut n = 0;
        for slot in l.window.iter() {
            if n >= cap || !slot.ready() {
                break;
            }
            n += 1;
        }
        n
    }

    fn flow_check(&mut self, ctx: &mut Ctx) {
        let buffered = self.learner_buffered();
        let threshold = self.cfg.flow.learner_threshold;
        let Some(l) = self.lrn.as_mut() else { return };
        let index = l.index;
        if buffered > threshold && !l.slowdown_active {
            l.slowdown_active = true;
            let pref = self.cfg.preferential_acceptor(index);
            ctx.counter_add("rp.slowdown", 1);
            ctx.udp_send(pref, MMsg::SlowDown, self.cfg.ctl_bytes);
        } else if buffered < threshold / 2 {
            l.slowdown_active = false;
        }
    }

    fn gc_report(&mut self, ctx: &mut Ctx) {
        let Some(l) = self.lrn.as_mut() else { return };
        let applied = l.next_deliver;
        if applied > l.applied_reported {
            l.applied_reported = applied;
            let pref = self.cfg.preferential_acceptor(l.index);
            let me = self.me;
            ctx.udp_send(pref, MMsg::Version { learner: me, applied }, self.cfg.ctl_bytes);
        }
        ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC));
    }

    fn retrans_check(&mut self, ctx: &mut Ctx) {
        let Some(l) = self.lrn.as_mut() else { return };
        let horizon = l.horizon();
        // Only instances already visible at the previous check are fair
        // game: anything newer is most likely still in flight.
        let stale_horizon = l.prev_horizon.min(horizon);
        let mut missing = Vec::new();
        for i in l.next_deliver.0..stale_horizon.0 {
            let i = InstanceId(i);
            let slot = l.slot(i);
            let ready = slot.is_some_and(|s| s.ready());
            let foreign = slot.is_some_and(|s| s.foreign);
            if !ready && !foreign {
                missing.push(i);
            }
            if missing.len() >= 64 {
                break;
            }
        }
        l.prev_horizon = horizon;
        let l = self.lrn.as_ref().expect("learner");
        if !missing.is_empty() {
            let pref = self.cfg.preferential_acceptor(l.index);
            let me = self.me;
            ctx.udp_send(
                pref,
                MMsg::RetransReq { from: me, instances: missing },
                self.cfg.ctl_bytes,
            );
        }
        ctx.set_timer(Dur::millis(20), TimerToken(T_RETRANS));
    }

    // ------------------------------------------------------------------
    // Garbage collection (coordinator side)
    // ------------------------------------------------------------------

    fn on_version(&mut self, learner: NodeId, applied: InstanceId, ctx: &mut Ctx) {
        if self.is_coordinator() {
            let n_learners = self.cfg.learners.len();
            let f_plus_1 = quorum(self.ctl.acceptors.len()).min(n_learners.max(1));
            let Some(c) = self.coord.as_mut() else { return };
            let e = c.versions.entry(learner).or_insert(InstanceId(0));
            *e = (*e).max(applied);
            if c.versions.len() >= f_plus_1 {
                let mut versions: Vec<InstanceId> = c.versions.values().copied().collect();
                versions.sort_unstable();
                // The f+1-th highest version is safe to collect below —
                // minus a retention window so learners lagging behind
                // that quorum keep a retransmission source (§3.3.7's
                // catch-up from "a sufficiently recent" peer).
                let idx = versions.len() - f_plus_1;
                let watermark = InstanceId(versions[idx].0.saturating_sub(self.cfg.gc_retention));
                if watermark > c.gc_watermark {
                    let delta = watermark.0 - c.gc_watermark.0;
                    c.gc_watermark = watermark;
                    ctx.counter_add("rp.gc_advanced", delta);
                    self.apply_gc(watermark);
                }
            }
        } else if self.acc.is_some() {
            // Forward along the ring towards the coordinator.
            if let Some(succ) = self.cfg.successor(self.me) {
                ctx.udp_send(succ, MMsg::Version { learner, applied }, self.cfg.ctl_bytes);
            }
        }
    }

    fn apply_gc(&mut self, upto: InstanceId) {
        // The watermark rides on every 2A; splitting the trees again for
        // an unchanged watermark is pure waste on the per-packet path.
        if upto <= self.gc_applied {
            return;
        }
        self.gc_applied = upto;
        if let Some(a) = self.acc.as_mut() {
            a.paxos.gc_below(upto);
            a.decided.advance_base(upto);
            a.early_2b.advance_base(upto);
            a.skip_weights = a.skip_weights.split_off(&upto);
            a.masks = a.masks.split_off(&upto);
            // The durable vote log rides the same watermark: f+1
            // learners applied these instances (§3.3.7), so a restarted
            // acceptor never needs them either — without this trim the
            // stable store grows with run length.
            if let Some(rec) = self.rec.as_ref() {
                rec.store.lock().unwrap().trim_votes_below(upto);
            }
        }
    }

    // ------------------------------------------------------------------
    // Failover (§3.3.5) and ring repair (§3.3.4): M-Ring's side of
    // `crate::control`.
    // ------------------------------------------------------------------

    /// Carries out control-plane effects: Phase 1 and probes by UDP.
    fn emit(&mut self, ctx: &mut Ctx) {
        let (me, ctl) = (self.me, self.cfg.ctl_bytes);
        for o in std::mem::take(&mut self.ctl.out) {
            match o {
                Out::Count(name, v) => ctx.counter_add(name, v),
                Out::Latency(name, d) => ctx.record_latency(name, d),
                Out::Suspect(d) => ctx.set_timer(d, TimerToken(T_SUSPECT)),
                Out::Phase1a { to, round } => {
                    ctx.udp_send(to, MMsg::Phase1a { round, from: me }, ctl)
                }
                Out::Phase1b { to, round, votes } => {
                    let (wire, decided) = (phase1b_wire_bytes(ctl, &votes), self.decided_report());
                    ctx.udp_send(to, MMsg::Phase1b { round, from: me, votes, decided }, wire);
                }
                Out::Ping { to } => ctx.udp_send(to, MMsg::Ping { from: me }, ctl),
            }
        }
    }

    /// Asks this learner's preferential acceptor for the decided suffix
    /// from `next` (over TCP: the per-loss UDP path is too slow for a
    /// whole outage).
    fn request_catchup(&self, next: InstanceId, ctx: &mut Ctx) {
        let pref = self.cfg.preferential_acceptor(self.lrn.as_ref().map_or(0, |l| l.index));
        ctx.tcp_send(pref, MMsg::CatchupReq { from: self.me, next }, self.cfg.ctl_bytes);
    }

    /// Acceptors outside the current layout — the deployment's spares and
    /// any member a takeover or repair dropped — in deployment order.
    fn spares(&self) -> Vec<NodeId> {
        let acceptors = self.ctl.acceptors.iter();
        acceptors.copied().filter(|n| !self.cfg.ring.contains(n)).collect()
    }

    /// This acceptor's Phase 1 report: the instances it knows decided.
    fn decided_report(&self) -> Vec<InstanceId> {
        self.acc.as_ref().map(|a| a.decided.iter().map(|(i, _)| i).collect()).unwrap_or_default()
    }

    fn ring_repair_check(&mut self, ctx: &mut Ctx) {
        let Some(c) = self.coord.as_ref() else { return };
        let repair = self.ctl.repair_tick(ctx.now(), c.outstanding.is_empty());
        self.emit(ctx);
        if let Repair::Reform(responders) = repair {
            self.reform_ring(responders, ctx);
        }
    }

    fn reform_ring(&mut self, responders: BTreeSet<NodeId>, ctx: &mut Ctx) {
        let me = self.me;
        // Keep the surviving ring segment in order, then pull in live
        // spares until the ring again holds an m-quorum (§3.3.5). A
        // dropped member stays an acceptor: it answers a later probe
        // and is pulled back in like any spare.
        let mut ring: Vec<NodeId> =
            self.cfg.ring.iter().copied().filter(|&n| n != me && responders.contains(&n)).collect();
        let majority = quorum(self.ctl.acceptors.len());
        let live_spares = self.spares().into_iter().filter(|s| responders.contains(s));
        ring.extend(live_spares.take(majority.saturating_sub(1 + ring.len())));
        ring.push(me);
        if ring == self.cfg.ring {
            return; // nothing to exclude — the stall was transient
        }
        if ring.len() < majority {
            // Cannot gather an m-quorum: keep the old ring, retry later.
            ctx.counter_add("rp.repair_short", 1);
            return;
        }
        self.cfg.ring = ring.clone();
        ctx.counter_add("rp.ring_repair", 1);
        // A repair keeps the round: learners match a decision's round
        // against the payload's, and in-flight payloads carry this one.
        let round = self.ctl.round;
        ctx.mcast(self.cfg.group, MMsg::NewRing { round, coord: me, ring }, self.cfg.ctl_bytes);
        // Restart the 2B relay for everything in flight: re-multicast the
        // outstanding 2As — the duplicate-2A path makes the new first
        // acceptor restart the vote relay.
        let outstanding: Vec<(InstanceId, Batch, u32)> = {
            let Some(c) = self.coord.as_mut() else { return };
            c.outstanding
                .iter_mut()
                .map(|(&i, entry)| {
                    entry.1 = ctx.now();
                    (i, entry.0.clone(), entry.2)
                })
                .collect()
        };
        for (instance, batch, mask) in outstanding {
            self.resend_2a(instance, batch, mask, ctx);
        }
    }

    /// Re-multicasts the 2A of outstanding `instance` under the current
    /// round. It repeats the skip weight this (coordinator-)acceptor
    /// recorded verbatim: learners feed it to the deterministic merge,
    /// and a weight that differs from the original 2A's would
    /// desynchronize the merge turn structure across replicas.
    fn resend_2a(&mut self, instance: InstanceId, batch: Batch, mask: u32, ctx: &mut Ctx) {
        let wire = (batch_bytes(&batch).min(u32::MAX as u64) as u32).max(self.cfg.ctl_bytes);
        let skip = self.acc.as_ref().and_then(|a| a.skip_weights.get(&instance)).copied();
        let msg = MMsg::Phase2a {
            instance,
            round: self.ctl.round,
            batch,
            decisions: Rc::new(Vec::new()),
            gc_upto: InstanceId(0),
            skip: skip.unwrap_or(0),
            mask,
            decided_below: self.decided_below(),
        };
        self.mcast_2a(msg, mask, wire, ctx);
    }

    /// T_SUSPECT tick: a ring member's rank is its ring position (the
    /// coordinator is last).
    fn suspect_check(&mut self, ctx: &mut Ctx) {
        let Some(start) = self.ctl.suspect_tick(ctx.now(), self.is_coordinator(), self.ring_pos())
        else {
            return;
        };
        if start {
            self.start_takeover(ctx);
        }
        ctx.set_timer(self.ctl.timeout, TimerToken(T_SUSPECT));
    }

    fn start_takeover(&mut self, ctx: &mut Ctx) {
        let decided = self.decided_report();
        let paxos = self.acc.as_mut().map(|a| &mut a.paxos);
        let won = self.ctl.start_takeover(ctx.now(), paxos, InstanceId(0), decided);
        self.emit(ctx);
        if let Some(t) = won {
            self.become_coordinator(t, ctx);
        }
    }

    fn on_phase1a(&mut self, round: Round, from: NodeId, ctx: &mut Ctx) {
        if self.ctl.on_phase1a(round) {
            self.depose(ctx);
            self.ctl.promise(from, self.acc.as_mut().map(|a| &mut a.paxos), InstanceId(0));
            self.emit(ctx);
        }
    }

    /// Drops the coordinator role (a higher round exists elsewhere).
    /// Proposers resubmit what it never decided to the new coordinator.
    fn depose(&mut self, ctx: &mut Ctx) {
        if self.coord.take().is_some() {
            self.ctl.deposed();
            self.emit(ctx);
        }
    }

    fn become_coordinator(&mut self, t: Takeover<Batch, Vec<InstanceId>>, ctx: &mut Ctx) {
        // Reform the ring: alive members we can't verify, so keep the old
        // ring minus the old coordinator, with ourselves last. The old
        // coordinator stays an acceptor, so a later repair can pull it
        // back in once it answers a probe.
        let old_coord = self.cfg.coordinator();
        let mut ring: Vec<NodeId> =
            self.cfg.ring.iter().copied().filter(|&n| n != old_coord && n != self.me).collect();
        // Keep the ring at quorum size by pulling in spares (they have
        // been receiving 2As all along — Cheap Paxos style, §3.3.2).
        let needed = quorum(self.ctl.acceptors.len()).saturating_sub(1 + ring.len());
        ring.extend(self.spares().into_iter().filter(|&s| s != self.me).take(needed));
        ring.push(self.me);
        self.cfg.ring = ring.clone();
        let round = t.round;
        let decided: BTreeSet<InstanceId> = t.promises.into_values().flatten().collect();
        // Resume after the highest instance seen anywhere.
        let max_seen =
            t.votes.keys().next_back().max(decided.last()).map_or(InstanceId(0), |i| i.next());

        let mut cs = CoordState {
            pending: VecDeque::new(),
            pending_bytes: 0,
            next_instance: max_seen,
            outstanding: BTreeMap::new(),
            decided_unsent: decided.iter().map(|&i| (i, ALL_PARTITIONS)).collect(),
            window: self.cfg.flow.initial_window,
            last_slowdown: Time::ZERO,
            last_mcast: ctx.now(),
            versions: HashMap::new(),
            gc_watermark: InstanceId(0),
            logical_count: 0,
            logical_target: 0,
        };

        // Re-propose undecided revealed votes (value pick rule).
        let undecided = t.votes.into_iter().filter(|(i, _)| !decided.contains(i));
        let repropose: Vec<(InstanceId, Batch)> = undecided.map(|(i, (_, b))| (i, b)).collect();
        for (instance, batch) in &repropose {
            cs.outstanding.insert(*instance, (batch.clone(), ctx.now(), ALL_PARTITIONS));
        }
        self.coord = Some(cs);

        self.ctl.became_coordinator(ctx.now());
        self.emit(ctx);
        ctx.mcast(
            self.cfg.group,
            MMsg::NewRing { round, coord: self.me, ring },
            self.cfg.ctl_bytes,
        );
        // Re-run Phase 2 for the re-proposed instances.
        for (instance, batch) in repropose {
            if let Some(a) = self.acc.as_mut() {
                let _ = a.paxos.receive_2a(instance, round, batch.clone());
            }
            let wire = batch_bytes(&batch).min(u32::MAX as u64) as u32;
            ctx.mcast(
                self.cfg.group,
                MMsg::Phase2a {
                    instance,
                    round,
                    batch,
                    decisions: Rc::new(Vec::new()),
                    gc_upto: InstanceId(0),
                    skip: 0,
                    mask: ALL_PARTITIONS,
                    decided_below: InstanceId(0),
                },
                wire.max(self.cfg.ctl_bytes),
            );
        }
        // Start coordinator timers.
        ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
        ctx.set_timer(Dur::millis(100), TimerToken(T_FLOW));
        ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
        if let Some(skip) = self.cfg.skip {
            ctx.set_timer(skip.delta, TimerToken(T_SKIP));
        }
    }

    fn on_new_ring(&mut self, round: Round, coord: NodeId, ring: &[NodeId], ctx: &mut Ctx) {
        if !self.ctl.on_new_ring(ctx.now(), round, coord) {
            return;
        }
        self.cfg.ring = ring.to_vec();
        self.depose(ctx);
        // Proposers redirect and resubmit anything unacknowledged —
        // paced (T_RESUB), not burst: after a long outage the combined
        // backlog of all proposers can exceed the switch port buffer and
        // the drops would take out the recovering ring's 2B relay.
        if let Some(p) = self.prop.as_mut() {
            p.coordinator = coord;
            p.resubmit_q = p.unacked.keys().copied().collect();
            if !p.resubmit_q.is_empty() {
                ctx.set_timer(Dur::ZERO, TimerToken(T_RESUB));
            }
        }
    }

    /// Drains a slice of the failover resubmission queue (~512 Mbps).
    fn drain_resubmits(&mut self, ctx: &mut Ctx) {
        let mut send = Vec::new();
        let more = {
            let Some(p) = self.prop.as_mut() else { return };
            for _ in 0..16 {
                let Some(seq) = p.resubmit_q.pop_front() else { break };
                // Skip anything acknowledged while queued.
                if let Some(v) = p.unacked.get(&seq) {
                    send.push((p.coordinator, *v));
                }
            }
            !p.resubmit_q.is_empty()
        };
        for (coord, v) in send {
            ctx.udp_send(coord, MMsg::Propose(v), v.bytes);
            ctx.counter_add("rp.resubmit", 1);
        }
        if more {
            ctx.set_timer(Dur::millis(2), TimerToken(T_RESUB));
        }
    }
}

impl MRingProcess {
    /// Lowest instance the coordinator has not yet decided: everything
    /// below it is decided.
    fn decided_below(&self) -> InstanceId {
        self.coord
            .as_ref()
            .map(|c| c.outstanding.keys().next().copied().unwrap_or(c.next_instance))
            .unwrap_or(InstanceId(0))
    }

    /// Proposes one consensus instance that stands for `weight` skipped
    /// logical instances (Multi-Ring Paxos, ch. 5). Many skips cost one
    /// consensus execution and a ~`ctl_bytes` message.
    fn propose_skip(&mut self, weight: u64, ctx: &mut Ctx) {
        let round = self.ctl.round;
        let Some(c) = self.coord.as_mut() else { return };
        let instance = c.next_instance;
        c.next_instance = instance.next();
        let batch: Batch = BatchData::empty();
        c.outstanding.insert(instance, (batch.clone(), ctx.now(), ALL_PARTITIONS));
        c.logical_count += weight;
        let decisions = Rc::new(std::mem::take(&mut c.decided_unsent));
        let gc_upto = c.gc_watermark;
        c.last_mcast = ctx.now();
        if let Some(a) = self.acc.as_mut() {
            let _ = a.paxos.receive_2a(instance, round, batch.clone());
            a.skip_weights.insert(instance, weight);
        }
        ctx.counter_add("rp.skips", weight);
        let decided_below = self.decided_below();
        ctx.mcast(
            self.cfg.group,
            MMsg::Phase2a {
                instance,
                round,
                batch: batch.clone(),
                decisions: decisions.clone(),
                gc_upto,
                skip: weight,
                mask: ALL_PARTITIONS,
                decided_below,
            },
            self.cfg.ctl_bytes,
        );
        let r = self.ctl.round;
        self.learner_store(instance, &batch, ALL_PARTITIONS, r);
        self.learner_decide(&decisions, r);
        self.try_deliver(ctx);
    }
}

impl Actor for MRingProcess {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.is_coordinator() {
            ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
            ctx.set_timer(Dur::millis(100), TimerToken(T_FLOW));
            ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
            if let Some(skip) = self.cfg.skip {
                ctx.set_timer(skip.delta, TimerToken(T_SKIP));
            }
        }
        if self.prop.is_some() {
            ctx.set_timer(Dur::ZERO, TimerToken(T_PACE));
        }
        if self.lrn.is_some() {
            ctx.set_timer(self.cfg.gc_interval, TimerToken(T_GC));
            ctx.set_timer(Dur::millis(20), TimerToken(T_RETRANS));
        }
        if self.acc.is_some() && !self.is_coordinator() {
            ctx.set_timer(self.ctl.timeout, TimerToken(T_SUSPECT));
        }
        if self.rec.is_some() && self.lrn.is_some() {
            // Persistent tick: drives catch-up retries while recovering
            // and re-enters catch-up if a delivery gap gets stuck later.
            ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
        }
        if self.rec.as_mut().is_some_and(|r| r.start_catchup(ctx.now(), &mut self.ctl.out)) {
            let next = self.lrn.as_ref().map_or(InstanceId(0), |l| l.next_deliver);
            self.request_catchup(next, ctx);
        }
        self.emit(ctx);
    }

    // Default `on_batch` for same-instant runs (multicast fan-in,
    // same-tick 2A/2B spans): it already loops `on_message` with static
    // dispatch, and the 2A/2B handlers interleave acceptor votes with
    // learner delivery per message, so nothing can be hoisted per burst
    // without reordering the trace.
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(msg) = env.payload.downcast_ref::<MMsg>() else { return };
        match msg {
            MMsg::Propose(v) => self.on_propose(*v, env.src, ctx),
            MMsg::Phase2a {
                instance,
                round,
                batch,
                decisions,
                gc_upto,
                skip,
                mask,
                decided_below,
            } => {
                let (instance, round, skip, mask) = (*instance, *round, *skip, *mask);
                let batch = batch.clone();
                let decisions = decisions.clone();
                let (gc_upto, decided_below) = (*gc_upto, *decided_below);
                // Acceptor path.
                self.on_phase2a(instance, round, batch.clone(), ctx);
                if let Some(a) = self.acc.as_mut() {
                    for &(d, _) in decisions.iter() {
                        a.decided.insert(d, ());
                    }
                    a.decided_below = a.decided_below.max(decided_below);
                    if skip > 0 {
                        a.skip_weights.insert(instance, skip);
                    }
                    if mask != ALL_PARTITIONS {
                        a.masks.insert(instance, mask);
                    }
                }
                // Learner path: payload plus piggybacked decisions.
                self.learner_store(instance, &batch, mask, round);
                self.learner_decide(&decisions, round);
                if gc_upto > InstanceId(0) && !self.is_coordinator() {
                    self.apply_gc(gc_upto);
                }
                self.try_deliver(ctx);
            }
            MMsg::Phase2b { instance, round } => self.on_phase2b(*instance, *round, ctx),
            MMsg::Ping { from } => {
                // Any live acceptor (ring member or spare) answers.
                if self.acc.is_some() {
                    let me = self.me;
                    ctx.udp_send(*from, MMsg::Pong { from: me }, self.cfg.ctl_bytes);
                }
            }
            MMsg::Pong { from } => self.ctl.on_pong(*from),
            MMsg::Decision { instances, round, gc_upto, decided_below } => {
                let instances = instances.clone();
                let (round, gc_upto, decided_below) = (*round, *gc_upto, *decided_below);
                if let Some(a) = self.acc.as_mut() {
                    self.ctl.heard_coordinator(ctx.now());
                    for &(d, _) in instances.iter() {
                        a.decided.insert(d, ());
                    }
                    a.decided_below = a.decided_below.max(decided_below);
                }
                self.learner_decide(&instances, round);
                if gc_upto > InstanceId(0) && !self.is_coordinator() {
                    self.apply_gc(gc_upto);
                }
                self.try_deliver(ctx);
            }
            MMsg::SlowDown => {
                if self.is_coordinator() {
                    let min = self.cfg.flow.min_window;
                    let Some(c) = self.coord.as_mut() else { return };
                    c.window = (c.window / 2).max(min);
                    c.last_slowdown = ctx.now();
                } else if self.acc.is_some() {
                    if let Some(succ) = self.cfg.successor(self.me) {
                        ctx.udp_send(succ, MMsg::SlowDown, self.cfg.ctl_bytes);
                    }
                }
            }
            MMsg::RetransReq { from, instances } => {
                let (from, instances) = (*from, instances.clone());
                self.on_retrans_req(from, &instances, ctx);
            }
            MMsg::RetransRep { instance, batch, decided, round, skip, mask } => {
                let (instance, decided, round, mask) = (*instance, *decided, *round, *mask);
                let _ = skip;
                let batch = batch.clone();
                if decided {
                    if mask & self.lrn.as_ref().map(|l| l.my_mask).unwrap_or(ALL_PARTITIONS) == 0 {
                        self.learner_decide(&[(instance, mask)], round);
                    } else {
                        // The acceptor vouches this vote decided: pin
                        // payload and decision to the vote's round.
                        self.learner_authoritative(instance, &batch, round);
                    }
                } else {
                    self.learner_store(instance, &batch, mask, round);
                }
                self.try_deliver(ctx);
            }
            MMsg::Version { learner, applied } => self.on_version(*learner, *applied, ctx),
            MMsg::Phase1a { round, from } => self.on_phase1a(*round, *from, ctx),
            MMsg::Phase1b { round, from, votes, decided } => {
                if let Some(t) = self.ctl.on_phase1b(*round, *from, votes.clone(), decided.clone())
                {
                    self.become_coordinator(t, ctx);
                }
            }
            MMsg::NewRing { round, coord, ring } => self.on_new_ring(*round, *coord, ring, ctx),
            MMsg::CatchupReq { from, next } => self.serve_catchup(*from, *next, ctx),
            MMsg::CatchupRep { batches, upto, available_from } => {
                self.on_catchup_rep(batches.clone(), *upto, *available_from, ctx);
            }
            MMsg::SnapReq { from } => {
                let from = *from;
                if let Some(rec) = self.rec.as_ref() {
                    let snap = rec.store.lock().unwrap().checkpoint.clone();
                    let wire = (self.cfg.ctl_bytes as u64
                        + snap.as_ref().map(|c| c.state_bytes).unwrap_or(0))
                    .min(u32::MAX as u64) as u32;
                    ctx.tcp_send(from, MMsg::SnapRep { snap }, wire);
                }
            }
            MMsg::SnapRep { snap } => self.on_snap_rep(snap.clone(), ctx),
            MMsg::Heartbeat { round, coord, ring } => {
                let same_layout = self.cfg.ring == *ring;
                if self.ctl.on_heartbeat(ctx.now(), *round, *coord, same_layout) == Beat::Resync {
                    // Missed the NewRing (restart after pause): resync.
                    self.on_new_ring(*round, *coord, ring, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token_kind(token) {
            T_BATCH => {
                if self.is_coordinator() {
                    self.try_flush(ctx, true);
                    if self.cfg.partitions.is_some() {
                        self.flush_decisions(ctx);
                    }
                    ctx.set_timer(self.cfg.batch_timeout, TimerToken(T_BATCH));
                }
            }
            T_PACE => self.pace(ctx),
            T_RESUB => self.drain_resubmits(ctx),
            T_GC => self.gc_report(ctx),
            T_FLOW => {
                if self.is_coordinator() {
                    let flow = self.cfg.flow;
                    let Some(c) = self.coord.as_mut() else { return };
                    if ctx.now().saturating_since(c.last_slowdown) > flow.recovery_quiet {
                        c.window = (c.window + (c.window / 4).max(1)).min(flow.max_window);
                    }
                    // Retransmit 2As whose decision is overdue (a lost
                    // multicast would otherwise stall the ring, §3.3.4).
                    let overdue: Vec<(InstanceId, Batch, u32)> = c
                        .outstanding
                        .iter()
                        .filter(|(_, (_, at, _))| ctx.now().saturating_since(*at) > Dur::millis(50))
                        .take(64)
                        .map(|(&i, (b, _, m))| (i, b.clone(), *m))
                        .collect();
                    for (instance, batch, mask) in overdue {
                        if let Some(c) = self.coord.as_mut() {
                            if let Some((_, at, _)) = c.outstanding.get_mut(&instance) {
                                *at = ctx.now();
                            }
                        }
                        ctx.counter_add("rp.re2a", 1);
                        self.resend_2a(instance, batch, mask, ctx);
                    }
                    self.try_flush(ctx, false);
                    self.ring_repair_check(ctx);
                    ctx.set_timer(Dur::millis(100), TimerToken(T_FLOW));
                }
            }
            T_DELIVER => self.try_deliver(ctx),
            T_RETRANS => self.retrans_check(ctx),
            T_SUSPECT => self.suspect_check(ctx),
            T_HEARTBEAT => {
                if self.is_coordinator() {
                    let quiet = {
                        let c = self.coord.as_ref().expect("coordinator");
                        ctx.now().saturating_since(c.last_mcast)
                    };
                    if quiet >= self.ctl.timeout / 2 {
                        let round = self.ctl.round;
                        let coord = self.me;
                        let ring = self.cfg.ring.clone();
                        ctx.mcast(
                            self.cfg.group,
                            MMsg::Heartbeat { round, coord, ring },
                            self.cfg.ctl_bytes,
                        );
                        if let Some(c) = self.coord.as_mut() {
                            c.last_mcast = ctx.now();
                        }
                    }
                    ctx.set_timer(self.ctl.timeout / 2, TimerToken(T_HEARTBEAT));
                }
            }
            T_DISK => {
                // A synchronous vote write completed.
                let instance = InstanceId(token_payload(token));
                let round = self.ctl.round;
                let is_first = self.ring_pos() == Some(0);
                if let Some(a) = self.acc.as_mut() {
                    a.awaiting_disk.remove(&instance);
                }
                // Recovery: only now — after the device confirmed the
                // write — does the vote enter the stable store.
                if let Some(rec) = self.rec.as_ref() {
                    if let Some(vote) = self.acc.as_ref().and_then(|a| a.paxos.vote(instance)) {
                        rec.store
                            .lock()
                            .unwrap()
                            .votes
                            .insert(instance, (vote.v_rnd, vote.v_val.clone()));
                    }
                }
                self.after_vote_durable(instance, round, is_first, ctx);
            }
            T_CKPT => {
                // Acceptor-side trimming stays with the ring's
                // version-vector GC (§3.3.7); the checkpoint already
                // trimmed this node's durable vote log.
                if let Some(rec) = self.rec.as_mut() {
                    rec.checkpoint_durable(token_payload(token), &mut self.ctl.out);
                }
                self.emit(ctx);
            }
            T_CATCHUP => {
                let (Some(l), Some(rec)) = (self.lrn.as_ref(), self.rec.as_mut()) else { return };
                let next = l.next_deliver;
                let stuck = l.horizon() > next
                    && l.window.front().is_some_and(|s| !s.ready() && !s.foreign);
                // A gap the 20 ms retransmission machinery did not close
                // within a full tick (e.g. the acceptors GC'd the
                // instance) goes back to catch-up, which can escalate to
                // a peer state transfer.
                if rec.gap_tick(ctx.now(), next, stuck, &mut self.ctl.out) {
                    self.request_catchup(next, ctx);
                }
                self.emit(ctx);
                ctx.set_timer(CATCHUP_RETRY, TimerToken(T_CATCHUP));
            }
            T_SKIP => {
                if let (true, Some(skip)) = (self.is_coordinator(), self.cfg.skip) {
                    let target_inc = skip.lambda_per_sec * skip.delta.as_nanos() / 1_000_000_000;
                    let deficit = {
                        let Some(c) = self.coord.as_mut() else { return };
                        c.logical_target += target_inc;
                        c.logical_target.saturating_sub(c.logical_count)
                    };
                    if deficit > 0 {
                        self.propose_skip(deficit, ctx);
                    }
                    ctx.set_timer(skip.delta, TimerToken(T_SKIP));
                }
            }
            T_VOTE_RETRY => {
                let payload = token_payload(token);
                if payload == u64::MAX >> 8 {
                    return; // fire-and-forget async write completion
                }
                let is_first = payload & (1 << 55) != 0;
                let instance = InstanceId(payload & !(1 << 55));
                let round = self.ctl.round;
                self.after_vote_durable(instance, round, is_first, ctx);
            }
            _ => {}
        }
    }
}
