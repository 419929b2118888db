//! Network layer: the datagram pipeline (send CPU → uplink → switch
//! egress → socket buffer), IP-multicast fan-out, the per-size cost
//! cache, and TCP channels.
//!
//! # Layer boundary
//!
//! This module owns everything between two nodes' sockets: link
//! serialization clocks, switch-port tail drops, loss injection, and the
//! reliable-channel state machine. It consumes the `host` layer's
//! resource clocks and produces `HostArrive`/`TcpAck` events for the
//! `dispatch` layer; it never touches actors.
//!
//! A TCP channel is one [`TcpChannel`] per directed node pair: the
//! sender's unsent queue and window accounting, the receiver's delivery
//! sequence that stamps each ack, and the channel epoch that only the
//! control plane (`reset_tcp_of`, `reset_tcp_pair`) bumps.

use std::collections::VecDeque;

use rand::Rng;

use crate::dispatch::EventKind;
use crate::ids::{GroupId, NodeId};
use crate::payload::Payload;
use crate::sim::{Envelope, SimInner, Transport};
use crate::stats::mid;
use crate::time::{Dur, Time};

/// Per-size datagram costs, computed once per distinct wire size and
/// reused from [`CostCache`]. The cached values come from the exact
/// [`crate::config::SimConfig`] formulas, so virtual-time results are
/// bit-identical to recomputing them per packet.
#[derive(Clone, Copy, Default)]
pub(crate) struct SizeCosts {
    /// CPU cost of the send system call.
    pub(crate) send: Dur,
    /// Link serialization time.
    pub(crate) tx: Dur,
    /// CPU cost of receive processing.
    pub(crate) recv: Dur,
    /// Bytes occupying the wire.
    pub(crate) wire: u64,
}

pub(crate) const COST_CACHE_WAYS: usize = 64;

/// Direct-mapped cache of [`SizeCosts`] keyed by payload size. Protocol
/// traffic reuses a handful of sizes (control messages, paced batches),
/// while the cost formulas each pay a 64-bit division (`frames_for`,
/// `tx_time`) — three real divides per datagram without the cache. The
/// config is frozen once the [`crate::sim::Sim`] is built, so entries
/// never go stale.
pub(crate) struct CostCache {
    /// `bytes.wrapping_add(1)` of the resident entry (0 = empty).
    tags: [u32; COST_CACHE_WAYS],
    costs: [SizeCosts; COST_CACHE_WAYS],
}

impl Default for CostCache {
    fn default() -> CostCache {
        CostCache { tags: [0; COST_CACHE_WAYS], costs: [SizeCosts::default(); COST_CACHE_WAYS] }
    }
}

/// One directed TCP channel `src -> dst`.
pub(crate) struct TcpChannel {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) in_flight: u32,
    pub(crate) queue: VecDeque<(Payload, u32)>,
    pub(crate) queued_bytes: u64,
    /// Next ack sequence the sender expects. Acks are generated in
    /// delivery order, so anything else is a duplicate/late ack and is
    /// dropped instead of being subtracted from `in_flight` again.
    pub(crate) acked_segs: u64,
    /// Segments delivered to the receiver so far; stamps each ack.
    pub(crate) delivered_segs: u64,
    /// Channel incarnation, bumped when either endpoint crashes or a
    /// cut link between them heals. Acks in flight across a crash carry
    /// the old epoch and are discarded — the bytes they acknowledge were
    /// already written off by the reset, so subtracting them again would
    /// drive `in_flight` negative.
    pub(crate) epoch: u32,
}

impl TcpChannel {
    fn new(src: NodeId, dst: NodeId) -> TcpChannel {
        TcpChannel {
            src,
            dst,
            in_flight: 0,
            queue: VecDeque::new(),
            queued_bytes: 0,
            acked_segs: 0,
            delivered_segs: 0,
            epoch: 0,
        }
    }
}

impl SimInner {
    /// Exact per-size costs of a datagram, served from the cost cache
    /// (the config is frozen for the life of the simulation).
    #[inline]
    pub(crate) fn costs_for(&mut self, bytes: u32) -> SizeCosts {
        let tag = bytes.wrapping_add(1);
        let i = (bytes.wrapping_mul(0x9E37_79B9) >> 26) as usize % COST_CACHE_WAYS;
        let cache = &mut self.cost_cache;
        if cache.tags[i] == tag {
            return cache.costs[i];
        }
        let c = SizeCosts {
            send: self.config.send_cost(bytes),
            tx: self.config.tx_time(bytes),
            recv: self.config.recv_cost(bytes),
            wire: self.config.wire_bytes(bytes),
        };
        let cache = &mut self.cost_cache;
        cache.tags[i] = tag;
        cache.costs[i] = c;
        c
    }

    /// Sends a datagram: charges the sender CPU and uplink, then fans out
    /// to each destination's downlink. `tcp_epoch` stamps TCP segments
    /// with their channel incarnation (0 for datagram transports).
    pub(crate) fn datagram(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        payload: Payload,
        bytes: u32,
        transport: Transport,
        tcp_epoch: u32,
    ) {
        if !self.node(src).up {
            return;
        }
        let costs = self.costs_for(bytes);
        let now = self.now;
        let cpu_done = self.charge_core(src, 0, now, costs.send);
        let up = self.node_mut(src);
        let up_done = up.uplink_free.max(cpu_done) + costs.tx;
        up.uplink_free = up_done;
        self.metrics.add_id(src, mid::NET_SENT_BYTES, bytes as u64);
        self.metrics.add_id(src, mid::NET_SENT_PKTS, 1);
        if self.probe_on(crate::probe::category::NET) {
            let arg = ((dsts.len() as u64) << 32) | bytes as u64;
            self.probe_record(src, crate::probe::code::NET_SEND, arg);
        }
        // The last destination takes ownership of the caller's payload
        // handle: the clone-per-destination refcount bump only runs for
        // true multicast fan-out, never on the unicast fast path.
        let Some((&last, rest)) = dsts.split_last() else { return };
        for &dst in rest {
            self.downlink(src, dst, payload.clone(), bytes, transport, up_done, costs, tcp_epoch);
        }
        self.downlink(src, last, payload, bytes, transport, up_done, costs, tcp_epoch);
    }

    #[allow(clippy::too_many_arguments)]
    fn downlink(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: Payload,
        bytes: u32,
        transport: Transport,
        arrive_at_switch: Time,
        costs: SizeCosts,
        tcp_epoch: u32,
    ) {
        if !self.node(dst).up {
            self.metrics.add_id(dst, mid::NET_DOWN_DROP, bytes as u64);
            return;
        }
        // A cut link (fault injection) drops every transport crossing
        // it, TCP segments and acks included — partitions must starve
        // reliable channels too ([`crate::sim::Sim::set_link_cut`]).
        if self.link_is_cut(src, dst) {
            self.metrics.add_id(dst, mid::NET_PART_DROP, 1);
            return;
        }
        let mut reorder_hold = Dur::ZERO;
        let mut duplicate = false;
        if transport != Transport::Tcp {
            // Fault-injection draws come from the *source* node's RNG
            // stream, so each node's draw sequence is a function of its
            // own send order.
            let p_loss = self.config.random_loss;
            if p_loss > 0.0 && self.rng_for(src).gen::<f64>() < p_loss {
                self.metrics.add_id(dst, mid::NET_RAND_DROP, 1);
                return;
            }
            // Switch egress port buffer (tail drop).
            let backlog = self.node(dst).downlink_free.saturating_since(arrive_at_switch);
            let queued = self.config.backlog_bytes(backlog);
            if queued + costs.wire > self.config.switch_port_buffer as u64 {
                self.metrics.add_id(dst, mid::NET_SWITCH_DROP, 1);
                self.metrics.add_id(dst, mid::NET_SWITCH_DROP_BYTES, bytes as u64);
                return;
            }
            let p_re = self.config.random_reorder;
            if p_re > 0.0 && self.rng_for(src).gen::<f64>() < p_re {
                // Hold this copy back a few extra latencies so traffic
                // sent after it arrives first.
                let hold = self.rng_for(src).gen_range(1..5u32);
                reorder_hold = self.config.one_way_latency * hold as u64;
                self.metrics.add_id(dst, mid::NET_REORDERED, 1);
            }
            let p_dup = self.config.random_duplication;
            duplicate = p_dup > 0.0 && self.rng_for(src).gen::<f64>() < p_dup;
        }
        let latency = self.config.one_way_latency;
        let down = self.node_mut(dst);
        let done = down.downlink_free.max(arrive_at_switch) + costs.tx;
        down.downlink_free = done;
        let at_host = done + latency + reorder_hold;
        let dup_payload = if duplicate {
            self.metrics.add_id(dst, mid::NET_DUPLICATED, 1);
            Some(payload.clone())
        } else {
            None
        };
        let env = Envelope { src, dst, payload, wire_bytes: bytes, transport, tcp_epoch };
        self.file_arrival(at_host, env);
        if let Some(p) = dup_payload {
            // The duplicate copy trails the original by one latency.
            let env = Envelope { src, dst, payload: p, wire_bytes: bytes, transport, tcp_epoch };
            self.file_arrival(at_host + latency, env);
        }
    }

    /// Files a finished datagram at its destination: the envelope is
    /// interned in the slab and only its EnvId moves through the
    /// HostArrive → Deliver pipeline.
    #[inline]
    fn file_arrival(&mut self, at_host: Time, env: Envelope) {
        let id = self.envs.insert(env);
        self.schedule(at_host, EventKind::HostArrive(id));
    }

    /// Slot of the `src -> dst` channel in `tcp`, if one exists.
    #[inline]
    pub(crate) fn tcp_slot(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let n = self.tcp_nodes;
        if src.0 < n && dst.0 < n {
            match self.tcp_index[src.0 * n + dst.0] {
                0 => None,
                i => Some(i as usize - 1),
            }
        } else {
            None
        }
    }

    /// Slot of the `src -> dst` channel, creating it (and re-laying the
    /// dense index out if nodes were added since) as needed.
    fn tcp_slot_or_create(&mut self, src: NodeId, dst: NodeId) -> usize {
        let n_now = self.nodes.len();
        if n_now != self.tcp_nodes {
            let old_n = self.tcp_nodes;
            let mut index = vec![0u32; n_now * n_now];
            for s in 0..old_n {
                index[s * n_now..s * n_now + old_n]
                    .copy_from_slice(&self.tcp_index[s * old_n..(s + 1) * old_n]);
            }
            self.tcp_index = index;
            self.tcp_nodes = n_now;
        }
        let cell = &mut self.tcp_index[src.0 * n_now + dst.0];
        if *cell == 0 {
            self.tcp.push(TcpChannel::new(src, dst));
            *cell = self.tcp.len() as u32;
        }
        *cell as usize - 1
    }

    /// Transmits queued segments of channel `slot` while its window
    /// allows.
    pub(crate) fn tcp_pump(&mut self, slot: usize) {
        let (src, dst) = (self.tcp[slot].src, self.tcp[slot].dst);
        // A crashed sender transmits nothing: popping the queue here would
        // charge `in_flight` for segments `datagram` silently discards,
        // wedging the window forever (the segment is never delivered, so
        // no ack ever returns). The queue is cleared by the crash reset.
        if !self.node(src).up {
            return;
        }
        let window = self.config.tcp_window_bytes;
        loop {
            let peer_down = !self.node(dst).up;
            let ch = &mut self.tcp[slot];
            let Some(&(_, bytes)) = ch.queue.front() else { return };
            if peer_down {
                // Segments to a down peer are written off at the sender
                // (connection-reset semantics) instead of charged to
                // `in_flight` — they would be dropped at the downlink
                // and their acks would never return.
                let (_, bytes) = ch.queue.pop_front().expect("checked front");
                ch.queued_bytes -= bytes as u64;
                self.metrics.add_id(src, mid::NET_TCP_RESET_BYTES, bytes as u64);
                continue;
            }
            if ch.in_flight.saturating_add(bytes) > window && ch.in_flight > 0 {
                return;
            }
            let (payload, bytes) = ch.queue.pop_front().expect("checked front");
            ch.queued_bytes -= bytes as u64;
            ch.in_flight += bytes;
            let epoch = ch.epoch;
            self.datagram(src, &[dst], payload, bytes, Transport::Tcp, epoch);
        }
    }

    /// Sends `payload` over the reliable channel from `src` to `dst`.
    pub fn tcp_send_from(&mut self, src: NodeId, dst: NodeId, payload: Payload, bytes: u32) {
        let slot = self.tcp_slot_or_create(src, dst);
        let ch = &mut self.tcp[slot];
        ch.queue.push_back((payload, bytes));
        ch.queued_bytes += bytes as u64;
        self.tcp_pump(slot);
    }

    /// Resets every TCP channel touching `node` (crash semantics): queued
    /// and in-flight segments are written off under `net.tcp_reset_bytes`
    /// on the sending node, the window reopens, and the channel epoch is
    /// bumped so acks from before the crash are discarded as stale.
    /// Without this, segments dropped at a down node's downlink never ack
    /// and the channel's window stays full forever. Control plane only
    /// (driver-invoked between events).
    pub(crate) fn reset_tcp_of(&mut self, node: NodeId) {
        let n = self.tcp_nodes;
        for src in 0..n {
            for dst in 0..n {
                if src != node.0 && dst != node.0 {
                    continue;
                }
                self.reset_tcp_channel(NodeId(src), NodeId(dst));
            }
        }
    }

    /// Resets the TCP channels in both directions between `a` and `b` —
    /// the heal-time counterpart of [`SimInner::reset_tcp_of`], used when
    /// a cut link is restored ([`crate::sim::Sim::set_link_cut`]):
    /// segments lost inside the cut filled the window without ever
    /// acking, so the channel must be torn down and re-opened just as
    /// after a crash.
    pub(crate) fn reset_tcp_pair(&mut self, a: NodeId, b: NodeId) {
        self.reset_tcp_channel(a, b);
        self.reset_tcp_channel(b, a);
    }

    /// Resets one directed channel `src -> dst` (no-op if none exists):
    /// writes queued and in-flight bytes off at the sender, reopens the
    /// window, resynchronizes the ack expectation to the receiver's
    /// delivery sequence, and bumps the channel epoch.
    fn reset_tcp_channel(&mut self, src: NodeId, dst: NodeId) {
        let Some(slot) = self.tcp_slot(src, dst) else { return };
        let ch = &mut self.tcp[slot];
        let lost = ch.in_flight as u64 + ch.queued_bytes;
        ch.queue.clear();
        ch.queued_bytes = 0;
        ch.in_flight = 0;
        ch.acked_segs = ch.delivered_segs;
        ch.epoch = ch.epoch.wrapping_add(1);
        if lost > 0 {
            self.metrics.add_id(src, mid::NET_TCP_RESET_BYTES, lost);
        }
    }

    /// Bytes queued (not yet transmitted) on the TCP channel `src -> dst`.
    /// Protocols use this for application-level back-pressure.
    pub fn tcp_backlog(&self, src: NodeId, dst: NodeId) -> u64 {
        self.tcp_slot(src, dst)
            .map(|slot| {
                let ch = &self.tcp[slot];
                ch.queued_bytes + ch.in_flight as u64
            })
            .unwrap_or(0)
    }

    /// Sends a UDP datagram from `src` to `dst`.
    pub fn udp_send_from(&mut self, src: NodeId, dst: NodeId, payload: Payload, bytes: u32) {
        self.datagram(src, &[dst], payload, bytes, Transport::Udp, 0);
    }

    /// Multicasts a datagram from `src` to every subscriber of `group`.
    /// The sender pays for one transmission regardless of group size.
    /// Senders need not subscribe to the group; subscribers that are also
    /// the sender do not receive their own copy (the caller can loop back
    /// locally if the protocol requires it).
    pub fn mcast_from(&mut self, src: NodeId, group: GroupId, payload: Payload, bytes: u32) {
        let mut dsts = std::mem::take(&mut self.mcast_scratch);
        dsts.clear();
        if let Some(g) = self.groups.get(group.0) {
            dsts.extend(g.iter().copied().filter(|&n| n != src));
        }
        self.datagram(src, &dsts, payload, bytes, Transport::Multicast(group), 0);
        self.mcast_scratch = dsts;
    }
}
