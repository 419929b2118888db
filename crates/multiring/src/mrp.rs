//! Multi-Ring Paxos deployment: an ensemble of independent M-Ring Paxos
//! rings (one per group) plus learners that merge them deterministically
//! (ch. 5, Algorithm 1).

use std::cell::Cell;
use std::rc::Rc;

use abcast::{shared_log, Pacer, SharedLog};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, SkipConfig, StorageMode};
use simnet::prelude::*;

use crate::learner::MultiRingLearner;

struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Options for [`deploy_multiring`].
#[derive(Clone, Debug)]
pub struct MultiRingOptions {
    /// Number of rings (= groups).
    pub n_rings: usize,
    /// Acceptors per ring (coordinator included).
    pub ring_size: usize,
    /// Proposer nodes per ring.
    pub proposers_per_ring: usize,
    /// Offered load per ring, bits per second (split across proposers).
    pub rates_per_ring_bps: Vec<u64>,
    /// Application message size.
    pub msg_bytes: u32,
    /// Expected maximum consensus rate λ (instances/s); `0` disables
    /// skip generation.
    pub lambda_per_sec: u64,
    /// Sampling interval ∆.
    pub delta: Dur,
    /// Merge parameter M (logical instances per ring per turn).
    pub m: u64,
    /// Acceptor persistence for every ring.
    pub storage: StorageMode,
    /// Learner subscriptions: `learners[i]` lists the ring indexes
    /// learner `i` subscribes to.
    pub learners: Vec<Vec<usize>>,
}

impl Default for MultiRingOptions {
    fn default() -> Self {
        MultiRingOptions {
            n_rings: 2,
            ring_size: 3,
            proposers_per_ring: 1,
            rates_per_ring_bps: vec![100_000_000; 2],
            msg_bytes: 8192,
            lambda_per_sec: 9000,
            delta: Dur::millis(1),
            m: 1,
            storage: StorageMode::InMemory,
            learners: vec![vec![0, 1]],
        }
    }
}

/// One deployed ring of the ensemble.
pub struct RingHandle {
    /// The ring's configuration (group, members).
    pub cfg: MRingConfig,
    /// Acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// Proposer nodes of this ring.
    pub proposers: Vec<NodeId>,
    /// Live rate controls, one per proposer (bits/s; 0 pauses).
    pub rate_controls: Vec<Rc<Cell<u64>>>,
}

impl RingHandle {
    /// The ring's coordinator node.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// Sets the offered load of the whole ring (split across proposers).
    pub fn set_rate(&self, total_bps: u64) {
        let per = (total_bps / self.rate_controls.len() as u64).max(1);
        for c in &self.rate_controls {
            c.set(if total_bps == 0 { 0 } else { per });
        }
    }
}

/// A deployed Multi-Ring Paxos ensemble.
pub struct MultiRingDeployment {
    /// The rings, in group-id (merge) order.
    pub rings: Vec<RingHandle>,
    /// Multi-ring learner nodes, in `options.learners` order.
    pub learners: Vec<NodeId>,
    /// Delivery log indexed like `learners`.
    pub log: SharedLog,
}

/// Deploys Multi-Ring Paxos: `n_rings` independent M-Ring Paxos instances
/// plus deterministic-merge learners.
pub fn deploy_multiring(sim: &mut Sim, opts: &MultiRingOptions) -> MultiRingDeployment {
    assert_eq!(opts.rates_per_ring_bps.len(), opts.n_rings, "one rate per ring required");
    // Allocate learner nodes first so ring configs can reference them.
    let learner_nodes: Vec<NodeId> =
        (0..opts.learners.len()).map(|_| sim.add_node(Box::new(Idle))).collect();

    let mut rings = Vec::new();
    let mut ring_cfgs: Vec<MRingConfig> = Vec::new();
    for r in 0..opts.n_rings {
        let ring: Vec<NodeId> = (0..opts.ring_size).map(|_| sim.add_node(Box::new(Idle))).collect();
        let proposers: Vec<NodeId> =
            (0..opts.proposers_per_ring).map(|_| sim.add_node(Box::new(Idle))).collect();
        let group = sim.add_group();

        // Ring learners: its proposers (they observe their own values)
        // plus every multi-ring learner subscribed to this ring.
        let mut ring_learners = proposers.clone();
        for (li, subs) in opts.learners.iter().enumerate() {
            if subs.contains(&r) {
                ring_learners.push(learner_nodes[li]);
            }
        }
        let mut cfg = MRingConfig::new(ring.clone(), ring_learners.clone(), group);
        cfg.storage = opts.storage;
        if opts.lambda_per_sec > 0 {
            cfg.skip = Some(SkipConfig { lambda_per_sec: opts.lambda_per_sec, delta: opts.delta });
        }
        for &n in ring.iter().chain(&ring_learners) {
            sim.subscribe(n, group);
        }

        // Ring-local delivery log for the proposers only.
        let local_log = shared_log(ring_learners.len());
        for &n in &ring {
            sim.replace_actor(n, Box::new(MRingProcess::new(cfg.clone(), n, None, None)));
        }
        let per_proposer = (opts.rates_per_ring_bps[r] / opts.proposers_per_ring as u64).max(1);
        let mut rate_controls = Vec::new();
        for &p in &proposers {
            let pacer = Pacer::new(per_proposer, opts.msg_bytes, 1);
            let ctl = Rc::new(Cell::new(per_proposer));
            rate_controls.push(ctl.clone());
            let actor = MRingProcess::new(cfg.clone(), p, Some(pacer), Some(local_log.clone()))
                .with_rate_control(ctl);
            sim.replace_actor(p, Box::new(actor));
        }
        ring_cfgs.push(cfg.clone());
        rings.push(RingHandle { cfg, ring, proposers, rate_controls });
    }

    // Instantiate the merge learners.
    let log = shared_log(opts.learners.len());
    for (li, subs) in opts.learners.iter().enumerate() {
        let mut sorted = subs.clone();
        sorted.sort_unstable();
        let cfgs: Vec<MRingConfig> = sorted.iter().map(|&r| ring_cfgs[r].clone()).collect();
        let actor = MultiRingLearner::new(learner_nodes[li], li, cfgs, opts.m, Some(log.clone()));
        sim.replace_actor(learner_nodes[li], Box::new(actor));
    }

    MultiRingDeployment { rings, learners: learner_nodes, log }
}
