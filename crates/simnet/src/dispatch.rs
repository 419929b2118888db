//! Dispatch layer: the event vocabulary and the actor run loop
//! (including batched delivery coalescing).
//!
//! # Layer boundary
//!
//! This module owns [`EventKind`], the per-event handlers that bridge
//! engine state to actor callbacks (`host_arrive`, `deliver_prework`),
//! and the [`Sim`] run loop (`run_until` / `step` / `deliver_run`). It
//! is the only layer that touches actors.
//!
//! Each `step` pops the queue's minimum `(time, seq)` event and
//! dispatches it; a `Deliver` additionally drains the rest of its
//! same-instant run for the same destination (see the `sim` module
//! docs, "Batched delivery dispatch"). Any event that ends the run —
//! another destination, a later instant, or a non-delivery — stays
//! queued for the next step, so the dispatch order is exactly the
//! queue's pop order.

use crate::ids::{NodeId, TimerToken};
use crate::sim::{Ctx, Envelope, Sim, SimInner, Transport};
use crate::stats::mid;
use crate::time::Time;

/// Index of a queued [`Envelope`] in the engine's envelope slab. Only
/// this 4-byte handle moves between the `HostArrive` and `Deliver`
/// queue entries.
pub(crate) type EnvId = u32;

#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// Datagram reached the destination host NIC (after its downlink).
    HostArrive(EnvId),
    /// Datagram finished receive processing; hand to the actor.
    Deliver(EnvId),
    /// Actor timer.
    Timer { node: NodeId, token: TimerToken },
    /// TCP acknowledgement returned to the sender of channel `slot`;
    /// frees window space. `seq` is the channel's delivery sequence
    /// number, so duplicate or late acks are detected instead of silently
    /// skewing `in_flight`; `epoch` is the channel incarnation that sent
    /// the segment, so acks from before a crash-reset cannot corrupt the
    /// reset channel.
    TcpAck { slot: u32, bytes: u32, epoch: u32, seq: u64 },
    /// A disk write issued by `node` completed.
    DiskDone { node: NodeId, token: TimerToken },
}

impl SimInner {
    /// Datagram reached the destination host NIC: socket-buffer check,
    /// receive-cost charge, and the push of the `Deliver` completion.
    /// The envelope body never moves — only its slab index travels into
    /// the `Deliver` event. Kept `#[inline]` (with `deliver_prework`) so
    /// the UDP datagram sequence compiles to one straight-line path
    /// through the run loop, per the `simcore` criterion group.
    #[inline]
    pub(crate) fn host_arrive(&mut self, id: EnvId) {
        let env = self.envs.get(id);
        let (dst, wire_bytes, transport) = (env.dst, env.wire_bytes, env.transport);
        if !self.node(dst).up {
            drop(self.envs.take(id));
            return;
        }
        if transport != Transport::Tcp {
            let n = self.node(dst);
            let cap = if n.udp_socket_buffer > 0 {
                n.udp_socket_buffer
            } else {
                self.config.udp_socket_buffer
            };
            if n.socket_used + wire_bytes as u64 > cap as u64 {
                self.metrics.add_id(dst, mid::NET_SOCKET_DROP, 1);
                self.metrics.add_id(dst, mid::NET_SOCKET_DROP_BYTES, wire_bytes as u64);
                drop(self.envs.take(id));
                return;
            }
            self.node_mut(dst).socket_used += wire_bytes as u64;
        }
        let cost = self.costs_for(wire_bytes).recv;
        let now = self.now;
        let done = self.charge_core(dst, 0, now, cost);
        self.schedule(done, EventKind::Deliver(id));
    }

    /// Per-envelope engine work of a delivery — socket drain, receive
    /// metrics, TCP ack generation — run in exact pop order *before* the
    /// actor sees the envelope (or its batch slice). Returns whether the
    /// envelope should reach the actor (`false`: the node is down).
    #[inline]
    pub(crate) fn deliver_prework(&mut self, env: &Envelope) -> bool {
        let dst = env.dst;
        if env.transport != Transport::Tcp {
            let n = self.node_mut(dst);
            n.socket_used = n.socket_used.saturating_sub(env.wire_bytes as u64);
        }
        if !self.node(dst).up {
            return false;
        }
        self.metrics.add_id(dst, mid::NET_RECV_BYTES, env.wire_bytes as u64);
        self.metrics.add_id(dst, mid::NET_RECV_PKTS, 1);
        if self.probe_on(crate::probe::category::NET) {
            let arg = ((env.src.0 as u64) << 32) | env.wire_bytes as u64;
            self.probe_record(dst, crate::probe::code::NET_RECV, arg);
        }
        if env.transport == Transport::Tcp {
            match self.tcp_slot(env.src, dst) {
                Some(slot) => {
                    let ch = &mut self.tcp[slot];
                    if env.tcp_epoch == ch.epoch {
                        let seg = ch.delivered_segs;
                        ch.delivered_segs += 1;
                        let epoch = ch.epoch;
                        let ack_at = self.now + self.config.one_way_latency;
                        let (slot, bytes) = (slot as u32, env.wire_bytes);
                        self.schedule(ack_at, EventKind::TcpAck { slot, bytes, epoch, seq: seg });
                    } else {
                        // Orphan segment: it was in flight across a
                        // crash-reset of its channel, so its bytes were
                        // already written off at the sender. Fabricating
                        // an ack here corrupts the reset channel's seq
                        // stream and costs an event; the data still
                        // reaches the actor, like a segment that raced a
                        // RST.
                        self.metrics.add_id(dst, mid::NET_TCP_ORPHAN_SEG, 1);
                    }
                }
                None => {
                    // No channel was ever created for this pair — only
                    // reachable through engine misuse today, but the
                    // same orphan accounting keeps it visible instead of
                    // acking a channel that does not exist.
                    self.metrics.add_id(dst, mid::NET_TCP_ORPHAN_SEG, 1);
                }
            }
        }
        true
    }
}

impl Sim {
    /// Runs the simulation until `deadline` (inclusive). Events scheduled
    /// after the deadline remain queued; virtual time advances to the
    /// deadline even if the queue drains first.
    pub fn run_until(&mut self, deadline: Time) {
        self.ensure_started();
        while self.step(deadline) {}
        self.inner.now = self.inner.now.max(deadline);
    }

    /// Runs until the event queue is empty (useful for tests).
    pub fn run_to_idle(&mut self) {
        self.ensure_started();
        while self.step(Time::MAX) {}
    }

    /// Pops and dispatches the next due event (plus, for deliveries, the
    /// rest of its same-instant run). Returns `false` once nothing at or
    /// before `deadline` remains.
    #[inline]
    fn step(&mut self, deadline: Time) -> bool {
        let Some(pos) = self.inner.queue.find_min() else { return false };
        if pos.time > deadline {
            return false;
        }
        let (time, kind) = self.inner.queue.take_at(pos);
        self.inner.now = time;
        self.inner.events += 1;
        self.dispatch(time, kind);
        true
    }

    /// Collects the maximal run of consecutive same-instant `Deliver`
    /// events for one destination into the reusable inbox and hands it
    /// to the actor in a single callback. Engine prework runs per
    /// envelope in exact pop order first; see the `sim` module docs
    /// ("Batched delivery dispatch") for the precise equivalence to
    /// unbatched dispatch.
    fn deliver_run(&mut self, time: Time, first: EnvId) {
        let mut inbox = std::mem::take(&mut self.inbox);
        debug_assert!(inbox.is_empty());
        let env = self.inner.envs.take(first);
        let dst = env.dst;
        if self.inner.deliver_prework(&env) {
            inbox.push(env);
        }
        while let Some(pos) = self.inner.queue.find_same_time(time) {
            let EventKind::Deliver(id) = *self.inner.queue.kind_at(pos) else { break };
            if self.inner.envs.get(id).dst != dst {
                break;
            }
            let _ = self.inner.queue.take_at(pos);
            self.inner.events += 1;
            let env = self.inner.envs.take(id);
            if self.inner.deliver_prework(&env) {
                inbox.push(env);
            }
        }
        if !inbox.is_empty() {
            self.inner.dispatches += 1;
            self.inner.dispatched_msgs += inbox.len() as u64;
            if let Some(mut actor) = self.actors[dst.0].take() {
                let mut ctx = Ctx::new(dst, &mut self.inner);
                if let [only] = inbox.as_slice() {
                    actor.on_message(only, &mut ctx);
                } else {
                    actor.on_batch(&inbox, &mut ctx);
                }
                self.actors[dst.0] = Some(actor);
            }
        }
        inbox.clear();
        self.inbox = inbox;
    }

    pub(crate) fn dispatch(&mut self, time: Time, kind: EventKind) {
        match kind {
            EventKind::HostArrive(id) => self.inner.host_arrive(id),
            EventKind::Deliver(id) => self.deliver_run(time, id),
            EventKind::Timer { node, token } => {
                if !self.inner.node(node).up {
                    return;
                }
                if self.inner.probe_on(crate::probe::category::HOST) {
                    self.inner.probe_record(node, crate::probe::code::HOST_TIMER, token.0);
                }
                if let Some(mut actor) = self.actors[node.0].take() {
                    let mut ctx = Ctx::new(node, &mut self.inner);
                    actor.on_timer(token, &mut ctx);
                    self.actors[node.0] = Some(actor);
                }
            }
            EventKind::TcpAck { slot, bytes, epoch, seq } => {
                let slot = slot as usize;
                let ch = &mut self.inner.tcp[slot];
                let src = ch.src;
                if epoch != ch.epoch {
                    // Ack from before a crash-reset: the bytes it
                    // acknowledges were already written off.
                    self.inner.metrics.add_id(src, mid::NET_TCP_STALE_ACK, 1);
                    return;
                }
                if seq != ch.acked_segs {
                    // Duplicate or late ack: ignoring it keeps
                    // `in_flight` exact (subtracting again would
                    // drive it negative / stall the window).
                    self.inner.metrics.add_id(src, mid::NET_TCP_DUP_ACK, 1);
                    return;
                }
                ch.acked_segs += 1;
                if ch.in_flight >= bytes {
                    ch.in_flight -= bytes;
                } else {
                    // The segment crossed a crash-reset (it was in the
                    // receive pipeline when the node bounced): its
                    // bytes were already written off by the reset.
                    ch.in_flight = 0;
                    self.inner.metrics.add_id(src, mid::NET_TCP_STALE_ACK, 1);
                }
                self.inner.tcp_pump(slot);
            }
            EventKind::DiskDone { node, token } => {
                if !self.inner.node(node).up {
                    return;
                }
                if self.inner.probe_on(crate::probe::category::HOST) {
                    self.inner.probe_record(node, crate::probe::code::HOST_DISK, token.0);
                }
                if let Some(mut actor) = self.actors[node.0].take() {
                    let mut ctx = Ctx::new(node, &mut self.inner);
                    actor.on_timer(token, &mut ctx);
                    self.actors[node.0] = Some(actor);
                }
            }
        }
    }

    pub(crate) fn start_actor(&mut self, node: NodeId) {
        if self.started[node.0] {
            return;
        }
        self.started[node.0] = true;
        if let Some(mut actor) = self.actors[node.0].take() {
            let mut ctx = Ctx::new(node, &mut self.inner);
            actor.on_start(&mut ctx);
            self.actors[node.0] = Some(actor);
        }
    }

    pub(crate) fn ensure_started(&mut self) {
        for i in 0..self.actors.len() {
            if self.inner.node(NodeId(i)).up {
                self.start_actor(NodeId(i));
            }
        }
    }
}
