//! The ring control plane shared by U-Ring and M-Ring Paxos.
//!
//! Around their different data planes, both rings run one epoch
//! lifecycle (§3.3.5): staggered suspicion of a silent coordinator, a
//! Phase 1 takeover under a higher round, the `NewRing`/`Heartbeat`
//! announcements that depose stale coordinators and resync layouts, and
//! the coordinator's ring-repair probe. Their learners share checkpoint
//! adoption and catch-up. This module owns all of it once, sans-IO, in
//! the inbox/outbox style: a ring feeds in its state and the events it
//! receives, then drains the [`Out`] effects (recipients, timers,
//! counters) into its own transport. Nothing here touches `Ctx`.
//!
//! * **Membership** is the deployment's acceptor set, fixed for the run
//!   — quorums count over it, and an acceptor dropped from the layout
//!   stays in it, so a later repair can pull it back in — plus everyone
//!   probes reach. The layout is each ring's routing table; the round it
//!   was announced under lives here.
//! * **Takeover.** The round owner is the candidate's node id, so a round
//!   stays unique per coordinator after a repair renumbers positions. A
//!   takeover short of a quorum is retried under a higher round after
//!   [`TAKEOVER_RETRY`] timeouts, and a deposed coordinator re-arms its
//!   suspicion.
//! * **One stagger.** The acceptor of rank *r* among the layout's
//!   non-coordinator acceptors suspects after (*r*+1)·timeout of silence.
//!   This was already one rule in two spellings: U-Ring waited
//!   `max(pos, 1)` timeouts and M-Ring `pos + 1`. U-Ring's acceptors are
//!   contiguous from its coordinator at position 0, so its rank is
//!   `pos - 1`; M-Ring's coordinator is last, so its rank is `pos`.
//! * **Transport stays per ring.** Each ring sends control traffic the
//!   way its data plane travels: U-Ring over its TCP links, M-Ring by UDP
//!   and ip-multicast. One transport would shift M-Ring's takeover timing,
//!   and with it the failover benchmark and figures, for no protocol gain,
//!   so effects name recipients, not channels.
//!
//! Each ring keeps its data plane, its layout rule (including whether a
//! repair bumps the round: M-Ring learners match a decision's round to
//! its payload's, so a bump would push in-flight instances through
//! retransmission), its value recovery in `become_coordinator`, and
//! `serve_catchup`.

use std::collections::{BTreeMap, BTreeSet};

use abcast::SharedLog;
use paxos::acceptor::Acceptor;
use paxos::msg::{quorum, InstanceId, PaxosMsg, Round};
use recovery::{Checkpoint, Checkpointer, RecoveredApp, StableHandle};
use simnet::prelude::*;

use crate::dedup::DeliveredTracker;

/// A revealed vote: `(instance, v-rnd, value)`.
pub(crate) type Vote<V> = (InstanceId, Round, V);

/// A takeover still short of a quorum after this many timeouts restarts.
pub(crate) const TAKEOVER_RETRY: u64 = 4;
/// Period of the learner catch-up tick (and of an unanswered request).
pub(crate) const CATCHUP_RETRY: Dur = Dur::millis(100);
/// Decided instances served per catch-up reply.
pub(crate) const CATCHUP_CHUNK: usize = 64;
/// Checkpoint bytes when no service snapshot is attached.
const CKPT_META_BYTES: u64 = 4096;

/// An effect for the ring to carry out, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum Out<V> {
    Count(&'static str, u64),
    Latency(&'static str, Dur),
    /// (Re-)arm the suspicion timer.
    Suspect(Dur),
    Phase1a {
        to: NodeId,
        round: Round,
    },
    /// A promise revealing `votes`; the ring adds its own report.
    Phase1b {
        to: NodeId,
        round: Round,
        votes: Vec<Vote<V>>,
    },
    Ping {
        to: NodeId,
    },
}

/// A Phase 1 under `round`: each promiser's report `P` (a delivery
/// watermark, a decided set), and the highest-round vote per instance.
pub(crate) struct Takeover<V, P> {
    pub round: Round,
    started: Time,
    pub promises: BTreeMap<NodeId, P>,
    pub votes: BTreeMap<InstanceId, (Round, V)>,
}

/// The decision of [`Control::repair_tick`].
#[derive(Debug, PartialEq)]
pub(crate) enum Repair {
    Nothing,
    /// A probe started; its pings are in the outbox.
    Probe,
    /// The probe ended: lay out a new ring from these responders.
    Reform(BTreeSet<NodeId>),
}

/// What a `Heartbeat` means: stale or our own, the live coordinator, or
/// a higher round or other layout to resync to on the `NewRing` path.
#[derive(Debug, PartialEq)]
pub(crate) enum Beat {
    Ignore,
    Alive,
    Resync,
}

/// One process's control state.
pub(crate) struct Control<V, P> {
    /// Effects the ring has yet to carry out (its recovery adds some).
    pub out: Vec<Out<V>>,
    me: NodeId,
    /// The deployment's acceptors, fixed for the run.
    pub acceptors: Vec<NodeId>,
    /// Everyone probes (and U-Ring's announcements) reach, fixed.
    pub members: Vec<NodeId>,
    /// The current round: the configuration epoch.
    pub round: Round,
    /// Whether failover runs at all (U-Ring can switch it off).
    pub enabled: bool,
    pub timeout: Dur,
    last_coord_activity: Time,
    takeover: Option<Takeover<V, P>>,
    /// An in-flight repair probe: responders and start.
    probe: Option<(BTreeSet<NodeId>, Time)>,
    /// When a decision last came back to this coordinator.
    last_progress: Time,
    /// Where promises are persisted (recovery-enabled acceptors).
    promise_log: Option<StableHandle<V>>,
}

impl<V: Clone, P> Control<V, P> {
    /// `timeout: None` switches failover off.
    pub fn new(
        me: NodeId,
        acceptors: Vec<NodeId>,
        members: Vec<NodeId>,
        round: Round,
        timeout: Option<Dur>,
    ) -> Self {
        Control {
            out: Vec::new(),
            me,
            acceptors,
            members,
            round,
            enabled: timeout.is_some(),
            timeout: timeout.unwrap_or(Dur::millis(200)),
            last_coord_activity: Time::ZERO,
            takeover: None,
            probe: None,
            last_progress: Time::ZERO,
            promise_log: None,
        }
    }

    /// Persists this acceptor's promises in `store`, so a respawned
    /// incarnation does not regress below them.
    pub fn log_promises(&mut self, store: StableHandle<V>) {
        self.promise_log = self.is_acceptor().then_some(store);
    }

    pub fn is_acceptor(&self) -> bool {
        self.acceptors.contains(&self.me)
    }

    /// Traffic from the current coordinator arrived.
    pub fn heard_coordinator(&mut self, now: Time) {
        self.last_coord_activity = now;
    }

    /// Moves to `round` if it is higher, persisting the promise; a
    /// takeover under a lower round has lost. Returns whether it moved.
    pub fn advance_to(&mut self, round: Round) -> bool {
        if round <= self.round {
            return false;
        }
        self.round = round;
        if let Some(store) = self.promise_log.as_ref() {
            store.lock().expect("stable store lock").log_promise(round);
        }
        if self.takeover.as_ref().is_some_and(|t| t.round < round) {
            self.takeover = None;
        }
        true
    }

    /// The suspicion tick of a process with stagger `rank` (`None` when
    /// it is no non-coordinator acceptor of the layout). `None` ends the
    /// chain (failover off, or this process leads); otherwise whether to
    /// start or restart a takeover, after which the caller re-arms.
    pub fn suspect_tick(&self, now: Time, leading: bool, rank: Option<usize>) -> Option<bool> {
        if !self.enabled || leading {
            return None;
        }
        Some(match self.takeover.as_ref() {
            Some(t) => now.saturating_since(t.started) > self.timeout * TAKEOVER_RETRY,
            None => rank.is_some_and(|r| {
                now.saturating_since(self.last_coord_activity) > self.timeout * (r as u64 + 1)
            }),
        })
    }

    /// Starts Phase 1 under a fresh round owned by this node: Phase 1A to
    /// every other acceptor, then this acceptor's own promise (its votes
    /// from `floor` up, and `report`). Returns the takeover if won.
    pub fn start_takeover(
        &mut self,
        now: Time,
        acceptor: Option<&mut Acceptor<V>>,
        floor: InstanceId,
        report: P,
    ) -> Option<Takeover<V, P>> {
        let round = self.round.next_for(self.me.0 as u32);
        self.advance_to(round);
        let (promises, votes) = (BTreeMap::new(), BTreeMap::new());
        self.takeover = Some(Takeover { round, started: now, promises, votes });
        self.out.push(Out::Count("rp.takeover", 1));
        for &to in self.acceptors.iter().filter(|&&n| n != self.me) {
            self.out.push(Out::Phase1a { to, round });
        }
        let votes = own_votes(acceptor, round, floor);
        self.on_phase1b(round, self.me, votes, report)
    }

    /// A candidate's Phase 1A: whether its round is higher and now ours
    /// (a stale candidate adopts our `NewRing` instead). The caller then
    /// steps down and [`Control::promise`]s.
    pub fn on_phase1a(&mut self, round: Round) -> bool {
        self.enabled && self.advance_to(round)
    }

    /// Promises the current round to `to`, revealing this acceptor's
    /// votes from `floor` up.
    pub fn promise(&mut self, to: NodeId, acceptor: Option<&mut Acceptor<V>>, floor: InstanceId) {
        if self.is_acceptor() {
            let votes = own_votes(acceptor, self.round, floor);
            self.out.push(Out::Phase1b { to, round: self.round, votes });
        }
    }

    /// Merges a promise, keeping the highest-round vote per instance.
    /// Returns the takeover once a majority of the fixed set promised.
    pub fn on_phase1b(
        &mut self,
        round: Round,
        from: NodeId,
        votes: Vec<Vote<V>>,
        report: P,
    ) -> Option<Takeover<V, P>> {
        let t = self.takeover.as_mut().filter(|t| t.round == round)?;
        if t.promises.contains_key(&from) {
            return None; // a duplicate
        }
        t.promises.insert(from, report);
        for (i, vr, v) in votes {
            if t.votes.get(&i).is_none_or(|(prev, _)| *prev < vr) {
                t.votes.insert(i, (vr, v));
            }
        }
        let won = t.promises.len() >= quorum(self.acceptors.len());
        won.then(|| self.takeover.take()).flatten()
    }

    /// This process now coordinates: the ring-liveness clock restarts.
    pub fn became_coordinator(&mut self, now: Time) {
        self.probe = None;
        self.last_progress = now;
        self.out.push(Out::Count("rp.became_coord", 1));
    }

    /// The caller stepped down: count it, and re-arm an acceptor's
    /// suspicion so it can take over again later.
    pub fn deposed(&mut self) {
        self.probe = None;
        self.out.push(Out::Count("rp.deposed", 1));
        if self.enabled && self.is_acceptor() {
            self.out.push(Out::Suspect(self.timeout));
        }
    }

    /// A `NewRing` from `coord`: whether to adopt its layout (the caller
    /// also steps down).
    pub fn on_new_ring(&mut self, now: Time, round: Round, coord: NodeId) -> bool {
        if !self.enabled || round < self.round || coord == self.me {
            return false;
        }
        self.advance_to(round);
        self.takeover = None;
        self.last_coord_activity = now;
        true
    }

    /// A `Heartbeat` from `coord`; `same` when it carries our layout (a
    /// process that missed a `NewRing` holds another one).
    pub fn on_heartbeat(&mut self, now: Time, round: Round, coord: NodeId, same: bool) -> Beat {
        if !self.enabled || round < self.round || coord == self.me {
            Beat::Ignore
        } else if round > self.round || !same {
            Beat::Resync
        } else {
            self.last_coord_activity = now;
            Beat::Alive
        }
    }

    /// A decision came back to this coordinator.
    pub fn progress(&mut self, now: Time) {
        self.last_progress = now;
    }

    /// Coordinator-side ring liveness: while instances are outstanding
    /// (not `idle`), a full timeout without a decision starts a probe of
    /// every member; half a timeout later the responders go to the
    /// ring's layout rule.
    pub fn repair_tick(&mut self, now: Time, idle: bool) -> Repair {
        if let Some((_, started)) = self.probe {
            if now.saturating_since(started) < self.timeout / 2 {
                return Repair::Nothing;
            }
            self.last_progress = now;
            return Repair::Reform(self.probe.take().expect("checked").0);
        }
        if idle {
            self.last_progress = now;
        }
        if now.saturating_since(self.last_progress) <= self.timeout {
            return Repair::Nothing;
        }
        self.probe = Some((BTreeSet::from([self.me]), now));
        self.out.push(Out::Count("rp.ring_probe", 1));
        for &to in self.members.iter().filter(|&&n| n != self.me) {
            self.out.push(Out::Ping { to });
        }
        Repair::Probe
    }

    /// A member answered the probe.
    pub fn on_pong(&mut self, from: NodeId) {
        if let Some((responders, _)) = self.probe.as_mut() {
            responders.insert(from);
        }
    }
}

/// An acceptor's Phase 1B votes for `round` from `floor` up (none when
/// there is no acceptor or the round is not new to it).
fn own_votes<V: Clone>(
    acceptor: Option<&mut Acceptor<V>>,
    round: Round,
    floor: InstanceId,
) -> Vec<Vote<V>> {
    match acceptor.and_then(|a| a.receive_1a(round)) {
        Some(PaxosMsg::Phase1b { votes, .. }) => {
            votes.into_iter().filter(|v| v.0 >= floor).collect()
        }
        _ => Vec::new(),
    }
}

/// Per-process recovery state both rings share: the stable store, the
/// learner's checkpointer and service hook, and catch-up progress. Its
/// effects go to the process's [`Control::out`].
pub(crate) struct Recovery<V> {
    pub store: StableHandle<V>,
    ckpt: Option<Checkpointer<V>>,
    pub app: Option<Box<dyn RecoveredApp>>,
    /// Values delivered across all incarnations (checkpoint `log_pos`).
    pub delivered_count: u64,
    catching_up: bool,
    catchup_started: Time,
    /// Delivery position at the previous tick when a stuck gap was seen;
    /// a gap that outlives a full tick re-enters catch-up.
    last_gap: Option<InstanceId>,
    last_tick: Time,
}

impl<V> Recovery<V> {
    /// Checkpoints every `interval` delivered instances (0 = never) under
    /// the timer kind `token`.
    pub fn new(
        store: StableHandle<V>,
        interval: u64,
        token: u64,
        app: Option<Box<dyn RecoveredApp>>,
    ) -> Self {
        Recovery {
            ckpt: (interval > 0).then(|| Checkpointer::new(store.clone(), interval, token)),
            store,
            app,
            delivered_count: 0,
            catching_up: false,
            catchup_started: Time::ZERO,
            last_gap: None,
            last_tick: Time::ZERO,
        }
    }

    pub fn catching_up(&self) -> bool {
        self.catching_up
    }

    /// Adopts `cp` as the delivered prefix: dedup marks, delivered count,
    /// service state, and the delivery log's resume mark. A `transfer`
    /// (a peer's checkpoint) is counted; this node's own, restored on
    /// respawn, starts catch-up. The ring moves its delivery window.
    pub fn adopt_checkpoint(
        &mut self,
        cp: &Checkpoint,
        tracker: &mut DeliveredTracker,
        log: Option<(&SharedLog, usize)>,
        transfer: bool,
        out: &mut Vec<Out<V>>,
    ) {
        *tracker = DeliveredTracker::restore(cp.marks.clone(), cp.parked.clone());
        self.delivered_count = cp.log_pos;
        if let Some(app) = self.app.as_mut() {
            app.restore(cp.state.as_ref());
        }
        let pos = cp.log_pos as usize;
        if let Some((log, i)) = log {
            let mut log = log.lock().expect("delivery log is not borrowed");
            if transfer {
                log.mark_state_transfer(i, pos);
            } else {
                log.mark_restart(i, pos);
            }
        }
        if transfer {
            out.push(Out::Count("rec.state_transfers", 1));
            out.push(Out::Count("rec.transfer_bytes", cp.state_bytes));
        }
        self.catching_up |= !transfer;
    }

    /// Starts a checkpoint when one is due at delivery position `next`;
    /// returns the disk write `(bytes, token)` for the caller to issue.
    pub fn maybe_checkpoint(
        &mut self,
        next: InstanceId,
        tracker: &DeliveredTracker,
    ) -> Option<(u32, TimerToken)> {
        let ckpt = self.ckpt.as_mut().filter(|c| c.due(next))?;
        let (marks, parked) = tracker.export();
        let app = &mut self.app;
        ckpt.maybe_checkpoint(next, self.delivered_count, marks, parked, || match app {
            Some(a) => a.snapshot(),
            None => (CKPT_META_BYTES, None),
        })
    }

    /// A checkpoint write completed: returns the durable watermark.
    pub fn checkpoint_durable(
        &mut self,
        payload: u64,
        out: &mut Vec<Out<V>>,
    ) -> Option<InstanceId> {
        let w = self.ckpt.as_mut()?.on_token(payload)?;
        out.push(Out::Count("rec.checkpoints", 1));
        Some(w)
    }

    /// At start-up: whether a respawned learner sends its first request.
    pub fn start_catchup(&mut self, now: Time, out: &mut Vec<Out<V>>) -> bool {
        if self.catching_up {
            self.catchup_started = now;
            out.push(Out::Count("rec.restarts", 1));
        }
        self.catching_up
    }

    /// The catch-up tick at delivery position `next`, `stuck` when
    /// decisions wait above an undelivered gap: whether to (re-)request.
    pub fn gap_tick(
        &mut self,
        now: Time,
        next: InstanceId,
        stuck: bool,
        out: &mut Vec<Out<V>>,
    ) -> bool {
        self.last_tick = now;
        if self.catching_up {
            return true;
        }
        if !stuck || self.last_gap != Some(next) {
            self.last_gap = stuck.then_some(next);
            return false;
        }
        self.catching_up = true;
        self.catchup_started = now;
        self.last_gap = None;
        out.push(Out::Count("rec.gap_catchups", 1));
        true
    }

    /// Whether the tick chain looks dead (a live one ticks every
    /// [`CATCHUP_RETRY`]) and must be re-armed; it then counts as live.
    pub fn revive_tick(&mut self, now: Time) -> bool {
        let dead = now.saturating_since(self.last_tick) > CATCHUP_RETRY * 4;
        if dead {
            self.last_tick = now;
        }
        dead
    }

    /// A reply served `got` instances; the learner now delivers from
    /// `next`, the responder's horizon is `upto`. Reaching it completes
    /// catch-up; returns whether to ask for the next chunk (an empty
    /// reply below it waits for the tick).
    pub fn catchup_progress(
        &mut self,
        now: Time,
        next: InstanceId,
        upto: InstanceId,
        got: u64,
        out: &mut Vec<Out<V>>,
    ) -> bool {
        out.push(Out::Count("rec.catchup_instances", got));
        if next < upto {
            return got > 0;
        }
        self.catching_up = false;
        out.push(Out::Latency("rec.ttr", now.since(self.catchup_started)));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Dur = Dur::millis(100);
    const I0: InstanceId = InstanceId(0);

    fn at(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    /// Node `me` of a deployment whose acceptors are nodes `0..acceptors`.
    fn ctl(me: usize, acceptors: usize) -> Control<u64, ()> {
        let acc: Vec<NodeId> = (0..acceptors).map(NodeId).collect();
        Control::new(NodeId(me), acc.clone(), acc, Round::new(1, 0), Some(T))
    }

    #[test]
    fn vote_merge_keeps_the_highest_round_vote() {
        let mut c = ctl(0, 5);
        assert!(c.start_takeover(at(0), None, I0, ()).is_none());
        let (r, lo, hi) = (c.round, Round::new(1, 3), Round::new(1, 4));
        let votes = vec![(InstanceId(7), hi, 70), (InstanceId(8), lo, 80)];
        assert!(c.on_phase1b(r, NodeId(1), votes, ()).is_none());
        let votes = vec![(InstanceId(7), lo, 71), (InstanceId(8), hi, 81)];
        let t = c.on_phase1b(r, NodeId(2), votes, ()).expect("3 of 5 is a quorum");
        assert_eq!(t.votes[&InstanceId(7)], (hi, 70), "a lower-round vote never replaces");
        assert_eq!(t.votes[&InstanceId(8)], (hi, 81), "a higher-round vote always does");
    }

    #[test]
    fn quorum_counts_the_fixed_acceptor_set() {
        // Five deployment acceptors: however far the layout has shrunk,
        // two promises are not a majority.
        let mut c = ctl(0, 5);
        assert!(c.start_takeover(at(0), None, I0, ()).is_none());
        let r = c.round;
        assert!(c.on_phase1b(r, NodeId(1), Vec::new(), ()).is_none());
        assert!(c.on_phase1b(r, NodeId(1), Vec::new(), ()).is_none(), "a duplicate");
        assert!(c.on_phase1b(Round::new(1, 0), NodeId(2), Vec::new(), ()).is_none());
        assert!(c.on_phase1b(r, NodeId(4), Vec::new(), ()).is_some());
        let phase1a = |to| Out::Phase1a { to: NodeId(to), round: r };
        let want = [Out::Count("rp.takeover", 1), phase1a(1), phase1a(2), phase1a(3), phase1a(4)];
        assert_eq!(c.out, want, "Phase 1A reaches every other acceptor");
    }

    #[test]
    fn suspicion_is_staggered_by_rank_and_members_only() {
        let c = ctl(2, 3);
        // Rank r waits strictly more than (r + 1) timeouts of silence.
        let starts = |ms, rank| c.suspect_tick(at(ms), false, Some(rank)) == Some(true);
        assert!(!starts(100, 0) && starts(101, 0), "rank 0 waits one timeout");
        assert!(!starts(200, 1) && starts(201, 1), "rank 1 waits two");
        // A non-member keeps ticking but never starts a takeover; the
        // coordinator's chain ends, and so does a disabled one.
        assert_eq!(c.suspect_tick(at(10_000), false, None), Some(false));
        assert_eq!(c.suspect_tick(at(10_000), true, Some(0)), None);
        let off: Control<u64, ()> = Control::new(NodeId(2), c.acceptors, vec![], Round::ZERO, None);
        assert_eq!(off.suspect_tick(at(10_000), false, Some(0)), None);
    }

    #[test]
    fn stalled_takeover_restarts_under_a_higher_round() {
        let mut c = ctl(1, 3);
        assert!(c.start_takeover(at(500), None, I0, ()).is_none());
        let first = c.round;
        assert_eq!(first.owner, 1, "the round owner is the node id");
        assert_eq!(c.suspect_tick(at(900), false, Some(0)), Some(false));
        assert_eq!(c.suspect_tick(at(901), false, Some(0)), Some(true));
        assert!(c.start_takeover(at(901), None, I0, ()).is_none());
        assert!(c.round > first);
        assert!(c.on_phase1b(first, NodeId(0), Vec::new(), ()).is_none(), "abandoned round");
        assert!(c.on_phase1b(c.round, NodeId(0), Vec::new(), ()).is_some());
    }

    #[test]
    fn repair_decision_respects_the_timeout_boundaries() {
        let mut c = ctl(0, 3);
        c.progress(at(1000));
        assert_eq!(c.repair_tick(at(1100), false), Repair::Nothing);
        assert_eq!(c.repair_tick(at(1101), false), Repair::Probe);
        assert_eq!(c.out[1..], [Out::Ping { to: NodeId(1) }, Out::Ping { to: NodeId(2) }]);
        c.on_pong(NodeId(2));
        assert_eq!(c.repair_tick(at(1150), false), Repair::Nothing);
        let reform = Repair::Reform(BTreeSet::from([NodeId(0), NodeId(2)]));
        assert_eq!(c.repair_tick(at(1151), false), reform);
        // The clock restarted at the reform; an idle ring never probes.
        assert_eq!(c.repair_tick(at(1251), false), Repair::Nothing);
        assert_eq!(c.repair_tick(at(5000), true), Repair::Nothing);
        assert_eq!(c.repair_tick(at(5100), false), Repair::Nothing);
    }

    #[test]
    fn same_round_heartbeat_with_another_layout_resyncs() {
        let mut c = ctl(1, 3);
        let (r, coord) = (c.round, NodeId(0));
        assert_eq!(c.on_heartbeat(at(10), r, coord, true), Beat::Alive);
        assert_eq!(c.on_heartbeat(at(10), r, coord, false), Beat::Resync);
        assert_eq!(c.on_heartbeat(at(10), r.next_for(0), coord, true), Beat::Resync);
        assert_eq!(c.on_heartbeat(at(10), Round::ZERO, coord, false), Beat::Ignore);
        assert_eq!(c.on_heartbeat(at(10), r, NodeId(1), false), Beat::Ignore, "our own");
        assert!(c.on_new_ring(at(10), r, coord), "the resync adopts a same-round layout");
    }
}
