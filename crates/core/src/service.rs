//! The replicated-service abstraction and the command registry.
//!
//! Replicas execute commands against a deterministic [`Service`]; the
//! same trait powers the stand-alone (client-server) baseline, plain
//! state-machine replication, speculative replicas, and partitioned
//! deployments.
//!
//! Command *contents* travel through a shared [`Registry`]: Ring Paxos
//! models payloads as sized-but-opaque values on the wire, so clients
//! register the structured command under its [`MsgId`] and replicas look
//! it up at delivery. This is simulation plumbing, not a hidden channel —
//! the modelled network carries the command's full byte size.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use abcast::MsgId;
use btree::{TreeCommand, TreeService};
use simnet::ids::NodeId;
use simnet::time::Dur;

/// A deterministic state machine the SMR layer can replicate.
pub trait Service {
    /// Command type.
    type Command: Clone + 'static;

    /// Executes one command, returning its modelled execution time.
    /// Implementations must be deterministic.
    fn execute(&mut self, cmd: &Self::Command) -> Dur;

    /// Whether `cmd` modifies state (updates need undo records; queries
    /// do not).
    fn is_update(cmd: &Self::Command) -> bool;

    /// Confirms every executed command so far: earlier undo records may
    /// be discarded.
    fn commit(&mut self);

    /// Rolls back the `n` most recent updates (speculative mis-order).
    fn rollback(&mut self, n: usize);
}

impl Service for TreeService {
    type Command = TreeCommand;

    fn execute(&mut self, cmd: &TreeCommand) -> Dur {
        let (_, cost) = self.apply(*cmd);
        cost
    }

    fn is_update(cmd: &TreeCommand) -> bool {
        cmd.is_update()
    }

    fn commit(&mut self) {
        TreeService::commit(self)
    }

    fn rollback(&mut self, n: usize) {
        TreeService::rollback(self, n)
    }
}

/// A registered command: its operations (each tagged with the partitions
/// it touches — cross-partition queries are pre-split into sub-commands,
/// §4.2.2), issuing client, overall partition mask, and reply size.
#[derive(Clone, Debug)]
pub struct StoredCommand<C> {
    /// `(partition mask, operation)` pairs; replicas execute only the
    /// operations intersecting their own partition.
    pub ops: Vec<(u32, C)>,
    /// Issuing client (responses go here).
    pub client: NodeId,
    /// Partitions accessed (bit per partition; `ALL_PARTITIONS` when
    /// unpartitioned).
    pub mask: u32,
    /// Reply size per responding partition, in bytes.
    pub reply_bytes: u32,
}

/// Shared command store keyed by message id.
pub struct Registry<C>(Arc<Mutex<HashMap<MsgId, StoredCommand<C>>>>);

impl<C> Clone for Registry<C> {
    fn clone(&self) -> Self {
        Registry(self.0.clone())
    }
}

impl<C> Default for Registry<C> {
    fn default() -> Self {
        Registry(Arc::new(Mutex::new(HashMap::new())))
    }
}

impl<C: Clone> Registry<C> {
    /// Creates an empty registry.
    pub fn new() -> Registry<C> {
        Registry::default()
    }

    /// Registers `cmd` under `id`.
    pub fn put(&self, id: MsgId, cmd: StoredCommand<C>) {
        self.0.lock().unwrap().insert(id, cmd);
    }

    /// Fetches the command registered under `id`.
    pub fn get(&self, id: MsgId) -> Option<StoredCommand<C>> {
        self.0.lock().unwrap().get(&id).cloned()
    }

    /// Removes a completed command (clients prune after the last reply).
    pub fn remove(&self, id: MsgId) {
        self.0.lock().unwrap().remove(&id);
    }

    /// Number of registered commands.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.0.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let r: Registry<TreeCommand> = Registry::new();
        let id = MsgId(42);
        r.put(
            id,
            StoredCommand {
                ops: vec![(0b01, TreeCommand::Delete { key: 1 })],
                client: NodeId(3),
                mask: 0b01,
                reply_bytes: 256,
            },
        );
        let got = r.get(id).expect("present");
        assert_eq!(got.ops.len(), 1);
        assert_eq!(got.client, NodeId(3));
        r.remove(id);
        assert!(r.get(id).is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn tree_service_implements_service() {
        let mut s = TreeService::new();
        let c1 = TreeCommand::Insert { key: 1, value: 1 };
        let c2 = TreeCommand::Query { lo: 0, hi: 10 };
        let _ = <TreeService as Service>::execute(&mut s, &c1);
        let _ = <TreeService as Service>::execute(&mut s, &c2);
        assert!(<TreeService as Service>::is_update(&c1));
        assert!(!<TreeService as Service>::is_update(&c2));
        <TreeService as Service>::rollback(&mut s, 1);
        assert!(s.tree().is_empty());
    }
}
