//! The service-state hook for checkpointing learners.
//!
//! The broadcast layer doesn't know what a delivered value *does* —
//! that's the replicated service's business. [`RecoveredApp`] is the
//! narrow interface a recovery-enabled learner needs: apply a delivered
//! value deterministically, snapshot the resulting state (as an opaque
//! blob with a modelled byte size), and restore from a snapshot. The
//! `core` crate bridges its `Snapshot` service trait onto this; the
//! built-in [`NullApp`] is the stateless variant (checkpoints carry
//! only the delivery watermark and dedup marks).

use std::any::Any;
use std::sync::Arc;

/// What a recovery-enabled learner asks of its replicated service.
pub trait RecoveredApp {
    /// Applies one delivered value (identified by proposer node id,
    /// per-proposer sequence, and payload size). Must be deterministic:
    /// every learner incarnation applying the same sequence reaches the
    /// same state.
    fn apply(&mut self, proposer: u64, seq: u64, bytes: u32);

    /// Snapshots the current state: `(modelled on-disk bytes, blob)`.
    fn snapshot(&mut self) -> (u64, Option<Arc<dyn Any + Send + Sync>>);

    /// Restores state from a snapshot blob (`None` = the empty state).
    fn restore(&mut self, state: Option<&Arc<dyn Any + Send + Sync>>);
}

/// The stateless service: applying does nothing and a checkpoint
/// carries only `fixed_bytes` of metadata.
#[derive(Clone, Copy, Debug)]
pub struct NullApp {
    /// Modelled checkpoint size (delivery watermark + dedup marks).
    pub fixed_bytes: u64,
}

impl Default for NullApp {
    fn default() -> NullApp {
        NullApp { fixed_bytes: 4096 }
    }
}

impl RecoveredApp for NullApp {
    fn apply(&mut self, _proposer: u64, _seq: u64, _bytes: u32) {}

    fn snapshot(&mut self) -> (u64, Option<Arc<dyn Any + Send + Sync>>) {
        (self.fixed_bytes, None)
    }

    fn restore(&mut self, _state: Option<&Arc<dyn Any + Send + Sync>>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_app_is_stateless() {
        let mut a = NullApp::default();
        a.apply(1, 2, 3);
        let (bytes, state) = a.snapshot();
        assert_eq!(bytes, 4096);
        assert!(state.is_none());
        a.restore(None);
    }
}
