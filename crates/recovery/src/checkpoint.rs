//! Periodic replica checkpoints.
//!
//! Every `interval` delivered instances the replica snapshots its
//! service state and writes it through the simulated disk. The previous
//! durable checkpoint stays in the [`StableHandle`] until the new
//! write's `DiskDone` fires — a crash mid-checkpoint recovers from the
//! old one, never from a torn write. Once durable, the caller trims its
//! vote log and decided-batch cache below the new watermark (log
//! trimming riding the same GC watermark discipline as
//! `paxos::window::Window`).

use std::any::Any;
use std::sync::Arc;

use simnet::prelude::*;

use paxos::msg::InstanceId;

use crate::stable::{Checkpoint, StableHandle};

/// Drives periodic checkpoints for one replica.
pub struct Checkpointer<V> {
    store: StableHandle<V>,
    /// Checkpoint every this many delivered instances.
    interval: u64,
    token_kind: u64,
    /// Watermark of the latest checkpoint taken (durable or in flight).
    last: InstanceId,
    /// The checkpoint whose disk write is outstanding.
    inflight: Option<(u64, Checkpoint)>,
    next_id: u64,
}

impl<V> Checkpointer<V> {
    /// Creates a checkpointer writing through `store` under the host's
    /// `token_kind` timer namespace.
    pub fn new(store: StableHandle<V>, interval: u64, token_kind: u64) -> Checkpointer<V> {
        let last = store.lock().unwrap().checkpoint.as_ref().map_or(InstanceId(0), |c| c.watermark);
        Checkpointer {
            store,
            interval: interval.max(1),
            token_kind,
            last,
            inflight: None,
            next_id: 0,
        }
    }

    /// The latest durable checkpoint, cloned for restore at start-up.
    pub fn recover(store: &StableHandle<V>) -> Option<Checkpoint> {
        store.lock().unwrap().checkpoint.clone()
    }

    /// The checkpoint interval, in instances.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether a checkpoint is due at delivery position `next_deliver`
    /// (cheap pre-check so callers skip exporting state when not).
    pub fn due(&self, next_deliver: InstanceId) -> bool {
        self.inflight.is_none() && next_deliver.0 >= self.last.0 + self.interval
    }

    /// Called after delivery advanced to `next_deliver`. When a
    /// checkpoint is due (and none is in flight), `snap` is invoked for
    /// the service snapshot — `(modelled bytes, opaque state)` — and the
    /// disk write `(bytes, token)` the caller must issue is returned.
    pub fn maybe_checkpoint(
        &mut self,
        next_deliver: InstanceId,
        log_pos: u64,
        marks: Vec<u64>,
        parked: Vec<(u64, u64)>,
        snap: impl FnOnce() -> (u64, Option<Arc<dyn Any + Send + Sync>>),
    ) -> Option<(u32, TimerToken)> {
        if self.inflight.is_some() || next_deliver.0 < self.last.0 + self.interval {
            return None;
        }
        let (state_bytes, state) = snap();
        let cp = Checkpoint { watermark: next_deliver, log_pos, marks, parked, state_bytes, state };
        let id = self.next_id;
        self.next_id += 1;
        // One sequential write of the whole snapshot (plus a small
        // metadata footer folded into the same operation).
        let bytes = state_bytes.clamp(1, u32::MAX as u64) as u32;
        self.inflight = Some((id, cp));
        self.last = next_deliver;
        Some((bytes, TimerToken(self.token_kind | id)))
    }

    /// Handles a disk completion of this checkpointer's kind: commits
    /// the in-flight checkpoint to the stable store and returns its
    /// watermark — the caller trims logs and caches below it.
    pub fn on_token(&mut self, payload: u64) -> Option<InstanceId> {
        match self.inflight.take() {
            Some((id, cp)) if id == payload => {
                let watermark = cp.watermark;
                self.store.lock().unwrap().checkpoint = Some(cp);
                self.store.lock().unwrap().trim_votes_below(watermark);
                Some(watermark)
            }
            other => {
                self.inflight = other;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::stable;
    use simnet::config::SimConfig;
    use simnet::sim::{Actor, Envelope, Sim};
    use simnet::time::{Dur, Time};
    use std::sync::Arc;
    use std::sync::Mutex;

    const KIND: u64 = 11 << 56;

    struct Ckpt {
        cp: Checkpointer<u32>,
        deliver_upto: u64,
        trims: Arc<Mutex<Vec<(u64, Time)>>>,
    }

    impl Actor for Ckpt {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // Simulate delivery advancing one instance at a time.
            for i in 1..=self.deliver_upto {
                let write =
                    self.cp.maybe_checkpoint(InstanceId(i), i * 10, vec![i], Vec::new(), || {
                        (64 * 1024, None)
                    });
                if let Some((bytes, token)) = write {
                    ctx.disk_write(bytes, token);
                }
            }
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            if let Some(w) = self.cp.on_token(token.0 & !(0xff << 56)) {
                self.trims.lock().unwrap().push((w.0, ctx.now()));
            }
        }
    }

    #[test]
    fn checkpoints_fire_at_interval_and_commit_on_disk_done() {
        let store = stable();
        let trims = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(Ckpt {
            cp: Checkpointer::new(store.clone(), 4, KIND),
            deliver_upto: 9,
            trims: trims.clone(),
        }));
        sim.run_to_idle();
        // Due at 4 and (once the first write completed — instantaneous
        // in virtual terms only after DiskDone, but delivery here all
        // happens at t=0, so the second is suppressed while in flight)
        // the watermark ends at 4.
        let trims = trims.lock().unwrap();
        assert_eq!(trims.len(), 1);
        assert_eq!(trims[0].0, 4);
        let want = SimConfig::default().disk_write_time(64 * 1024);
        assert_eq!(trims[0].1, Time::ZERO + want);
        let cp = store.lock().unwrap().checkpoint.clone().expect("durable checkpoint");
        assert_eq!(cp.watermark, InstanceId(4));
        assert_eq!(cp.log_pos, 40);
        assert_eq!(cp.marks, vec![4]);
    }

    #[test]
    fn crash_mid_write_keeps_previous_checkpoint() {
        let store = stable();
        store.lock().unwrap().checkpoint =
            Some(Checkpoint { watermark: InstanceId(2), log_pos: 20, ..Checkpoint::default() });
        let trims = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Ckpt {
            cp: Checkpointer::new(store.clone(), 4, KIND),
            deliver_upto: 9,
            trims: trims.clone(),
        }));
        // Interval counts from the recovered watermark (2): due at 6.
        sim.run_until(Time::ZERO + Dur::micros(50)); // write takes ~1.5 ms
        sim.set_node_up(n, false);
        sim.run_to_idle();
        assert!(trims.lock().unwrap().is_empty());
        let cp = store.lock().unwrap().checkpoint.clone().expect("old checkpoint survives");
        assert_eq!(cp.watermark, InstanceId(2), "torn write never becomes the checkpoint");
    }
}
