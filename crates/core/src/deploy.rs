//! Deployment builders for the ch. 4 experiment topologies: the CS
//! baseline, full state-machine replication (plain or speculative), and
//! partitioned SMR over the modified M-Ring Paxos.

use abcast::{shared_log, SharedLog};
use btree::{Partitioning, TreeCommand, TreeService};
use ringpaxos::mring::MRingProcess;
use ringpaxos::{MRingConfig, StorageMode};
use simnet::prelude::*;
use workload::{
    Arrival, KeyedWorkload, Poisson, RetryPolicy, SessionTable, SessionTableConfig, WorkloadGen,
    WorkloadKind,
};

use crate::client::{SmrClient, Target};
use crate::cs::CsServer;
use crate::replica::{ReplicaConfig, SmrReplica};
use crate::service::Registry;
use crate::session::TreeSessionDriver;

struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Tuples pre-loaded into each partition's tree. The paper loads 12 M
/// keys; the simulation's cost model is size-independent, so a smaller
/// population keeps deployment fast while preserving behaviour.
pub const POPULATE_COUNT: u64 = 12_000;

/// Partitioned-deployment options (§4.2.2).
#[derive(Clone, Copy, Debug)]
pub struct PartitionOptions {
    /// Number of partitions.
    pub n: u32,
    /// Replicas per partition.
    pub replicas_per: usize,
    /// Percentage of queries that cross a partition boundary.
    pub cross_pct: u32,
}

/// Options for [`deploy_smr`].
#[derive(Clone, Debug)]
pub struct SmrOptions {
    /// Replicas (full replication) — ignored when `partitions` is set.
    pub n_replicas: usize,
    /// Ring acceptors, coordinator included.
    pub ring_size: usize,
    /// The client workload.
    pub workload: WorkloadKind,
    /// Closed-loop clients.
    pub n_clients: usize,
    /// Execute speculatively on payload arrival (§4.2.1).
    pub speculative: bool,
    /// State partitioning (§4.2.2); `None` = full replication.
    pub partitions: Option<PartitionOptions>,
    /// Stop issuing commands at this time.
    pub stop_at: Option<Time>,
    /// Acceptor storage.
    pub storage: StorageMode,
}

impl Default for SmrOptions {
    fn default() -> Self {
        SmrOptions {
            n_replicas: 2,
            ring_size: 3,
            workload: WorkloadKind::Queries,
            n_clients: 20,
            speculative: false,
            partitions: None,
            stop_at: None,
            storage: StorageMode::InMemory,
        }
    }
}

/// A deployed SMR system.
pub struct SmrDeployment {
    /// Ring acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// Replicas, grouped by partition (one group when unpartitioned).
    pub replicas: Vec<Vec<NodeId>>,
    /// Clients.
    pub clients: Vec<NodeId>,
    /// The shared command registry.
    pub registry: Registry<TreeCommand>,
    /// The ring's delivery log (per replica, in `cfg.learners` order).
    pub log: SharedLog,
    /// Key partitioning, when enabled.
    pub partitioning: Option<Partitioning>,
    /// The ring configuration.
    pub cfg: MRingConfig,
}

impl SmrDeployment {
    /// The ring coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }

    /// All replica nodes, flattened.
    pub fn all_replicas(&self) -> Vec<NodeId> {
        self.replicas.iter().flatten().copied().collect()
    }
}

/// The server half of an SMR deployment: ring, replicas, and the extra
/// (still-Idle) nodes reserved for whichever client tier the caller
/// installs — dedicated closed-loop clients or session tables.
struct ServerSide {
    ring: Vec<NodeId>,
    replicas: Vec<Vec<NodeId>>,
    /// Client-tier nodes, allocated after the replicas so node-id order
    /// matches the historical `deploy_smr` layout exactly.
    extras: Vec<NodeId>,
    registry: Registry<TreeCommand>,
    log: SharedLog,
    partitioning: Option<Partitioning>,
    cfg: MRingConfig,
}

/// Brings up the ordering ring and the replicated B⁺-tree service.
/// Node-id allocation order (ring, then replicas, then `n_extra` client
/// nodes, then groups) is shared by every deployment flavour so golden
/// traces of existing configs are unaffected by the factoring.
fn deploy_servers(
    sim: &mut Sim,
    partitions: Option<PartitionOptions>,
    n_replicas: usize,
    ring_size: usize,
    storage: StorageMode,
    speculative: bool,
    packet_bytes: u32,
    n_extra: usize,
) -> ServerSide {
    let n_partitions = partitions.map(|p| p.n).unwrap_or(1);
    let replicas_per = partitions.map(|p| p.replicas_per).unwrap_or(n_replicas);

    let ring: Vec<NodeId> = (0..ring_size).map(|_| sim.add_node(Box::new(Idle))).collect();
    let replicas: Vec<Vec<NodeId>> = (0..n_partitions)
        .map(|_| (0..replicas_per).map(|_| sim.add_node(Box::new(Idle))).collect())
        .collect();
    let extras: Vec<NodeId> = (0..n_extra).map(|_| sim.add_node(Box::new(Idle))).collect();

    // Groups: the base group (heartbeats, NewRing) plus, when
    // partitioned, one group per partition and the decision group.
    let base_group = sim.add_group();
    let flat_replicas: Vec<NodeId> = replicas.iter().flatten().copied().collect();
    let mut cfg = MRingConfig::new(ring.clone(), flat_replicas.clone(), base_group);
    cfg.storage = storage;
    cfg.packet_bytes = packet_bytes;
    cfg.batch_timeout = Dur::micros(100);

    for &n in ring.iter().chain(&flat_replicas) {
        sim.subscribe(n, base_group);
    }

    let partitioning = partitions.map(|p| Partitioning::new(p.n));
    if let Some(p) = partitions {
        let groups: Vec<GroupId> = (0..p.n).map(|_| sim.add_group()).collect();
        let decision_group = sim.add_group();
        for &a in &ring {
            for &g in &groups {
                sim.subscribe(a, g);
            }
            sim.subscribe(a, decision_group);
        }
        let mut learner_masks = Vec::new();
        for (pi, part) in replicas.iter().enumerate() {
            for &r in part {
                sim.subscribe(r, groups[pi]);
                sim.subscribe(r, decision_group);
                learner_masks.push(1u32 << pi);
            }
        }
        cfg.partitions =
            Some(ringpaxos::config::PartitionConfig { groups, decision_group, learner_masks });
    }

    let log = shared_log(flat_replicas.len());
    for &a in &ring {
        sim.replace_actor(a, Box::new(MRingProcess::new(cfg.clone(), a, None, None)));
    }

    let registry: Registry<TreeCommand> = Registry::new();
    let span = Partitioning::new(n_partitions.max(1)).span;
    let mut log_index = 0;
    for (pi, part) in replicas.iter().enumerate() {
        for &r in part {
            let inner = MRingProcess::new(cfg.clone(), r, None, Some(log.clone()));
            let service = TreeService::populated(pi as u64 * span, span, POPULATE_COUNT);
            let rcfg = ReplicaConfig {
                partition: pi as u32,
                mask: if partitions.is_some() { 1 << pi } else { ringpaxos::value::ALL_PARTITIONS },
                peers: part.clone(),
                speculative,
                ..ReplicaConfig::default()
            };
            let actor =
                SmrReplica::new(inner, log.clone(), log_index, r, service, registry.clone(), rcfg);
            sim.replace_actor(r, Box::new(actor));
            log_index += 1;
        }
    }

    ServerSide { ring, replicas, extras, registry, log, partitioning, cfg }
}

/// Deploys state-machine replication per `opts`.
pub fn deploy_smr(sim: &mut Sim, opts: &SmrOptions) -> SmrDeployment {
    // The single-update workload is not batched in the paper (§4.4.2);
    // batching into 8 KB packets is specific to Ins/Del (batch). Queries
    // (256 B commands) also go one per instance.
    let packet_bytes = match opts.workload {
        WorkloadKind::InsDelBatch => 8192,
        _ => 256,
    };
    let ServerSide { ring, replicas, extras: clients, registry, log, partitioning, cfg } =
        deploy_servers(
            sim,
            opts.partitions,
            opts.n_replicas,
            opts.ring_size,
            opts.storage,
            opts.speculative,
            packet_bytes,
            opts.n_clients,
        );
    let n_partitions = opts.partitions.map(|p| p.n).unwrap_or(1);
    let span = Partitioning::new(n_partitions.max(1)).span;

    let coordinator = cfg.coordinator();
    let key_space = span * n_partitions as u64;
    for (ci, &c) in clients.iter().enumerate() {
        let mut workload = WorkloadGen::new(opts.workload, key_space);
        if let (Some(p), Some(po)) = (partitioning, opts.partitions) {
            workload = workload.with_partitions(p, po.cross_pct);
        }
        let client = SmrClient::new(
            c,
            Target::Replicated { coordinator },
            registry.clone(),
            workload,
            partitioning,
            0xc11e47 + ci as u64,
            opts.stop_at,
        );
        sim.replace_actor(c, Box::new(client));
    }

    SmrDeployment { ring, replicas, clients, registry, log, partitioning, cfg }
}

/// Options for [`deploy_smr_sessions`] — the opt-in mass-session tier
/// (ch. 10): the ch. 4 server side driven by [`SessionTable`] actors
/// instead of one actor per closed-loop client.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Replicas (full replication) — ignored when `partitions` is set.
    pub n_replicas: usize,
    /// Ring acceptors, coordinator included.
    pub ring_size: usize,
    /// The command shape generated per session interaction.
    pub kind: WorkloadKind,
    /// Zipf exponent for key selection; `0.0` = uniform keys.
    pub zipf_s: f64,
    /// Session-table actors (each its own node; spread them to spread
    /// client-side submission work across simulated machines).
    pub n_tables: usize,
    /// Simulated sessions hosted *per table*.
    pub sessions_per_table: u64,
    /// Aggregate open-loop arrival rate *per table* (requests/s); `0.0`
    /// runs the tables closed-loop instead.
    pub rate_per_table: f64,
    /// State partitioning (§4.2.2); `None` = full replication.
    pub partitions: Option<PartitionOptions>,
    /// Retry/backoff knobs shared by every session.
    pub policy: RetryPolicy,
    /// Per-table in-flight ceiling; open-loop arrivals beyond it shed.
    pub max_in_flight: u32,
    /// Stop issuing new requests at this time.
    pub stop_at: Option<Time>,
    /// Acceptor storage.
    pub storage: StorageMode,
    /// Execute speculatively on payload arrival (§4.2.1).
    pub speculative: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            n_replicas: 2,
            ring_size: 3,
            kind: WorkloadKind::InsDelSingle,
            zipf_s: 0.99,
            n_tables: 4,
            sessions_per_table: 250_000,
            rate_per_table: 25_000.0,
            partitions: None,
            policy: RetryPolicy::default(),
            max_in_flight: 1 << 20,
            stop_at: None,
            storage: StorageMode::InMemory,
            speculative: false,
        }
    }
}

/// A deployed mass-session SMR system.
pub struct SessionDeployment {
    /// Ring acceptors (last = coordinator).
    pub ring: Vec<NodeId>,
    /// Replicas, grouped by partition (one group when unpartitioned).
    pub replicas: Vec<Vec<NodeId>>,
    /// Session-table nodes (read `workload`'s `sessions.*` metrics and
    /// the [`workload::SESSION_LATENCY`] histogram here).
    pub tables: Vec<NodeId>,
    /// The shared command registry.
    pub registry: Registry<TreeCommand>,
    /// The ring's delivery log (per replica, in `cfg.learners` order).
    pub log: SharedLog,
    /// Key partitioning, when enabled.
    pub partitioning: Option<Partitioning>,
    /// The ring configuration.
    pub cfg: MRingConfig,
}

impl SessionDeployment {
    /// The ring coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.cfg.coordinator()
    }
}

/// Deploys the session-table client tier over the ch. 4 server side.
/// Opt-in: [`deploy_smr`] and its traces are untouched by this path.
pub fn deploy_smr_sessions(sim: &mut Sim, opts: &SessionOptions) -> SessionDeployment {
    // Mass-session traffic is coordinator-bound; 8 KB packets let the
    // ring batch many 256 B commands per instance (§3.5.4).
    let ServerSide { ring, replicas, extras: tables, registry, log, partitioning, cfg } =
        deploy_servers(
            sim,
            opts.partitions,
            opts.n_replicas,
            opts.ring_size,
            opts.storage,
            opts.speculative,
            8192,
            opts.n_tables,
        );
    let n_partitions = opts.partitions.map(|p| p.n).unwrap_or(1);
    let key_space = Partitioning::new(n_partitions.max(1)).span * n_partitions as u64;

    let coordinator = cfg.coordinator();
    let members = cfg.ring.clone();
    for &t in &tables {
        let workload = if opts.zipf_s > 0.0 {
            KeyedWorkload::zipfian(opts.kind, key_space, opts.zipf_s)
        } else {
            KeyedWorkload::uniform(opts.kind, key_space)
        };
        let driver = TreeSessionDriver::new(
            t,
            coordinator,
            members.clone(),
            registry.clone(),
            workload,
            partitioning,
        );
        let tcfg = SessionTableConfig {
            sessions: opts.sessions_per_table,
            arrival: if opts.rate_per_table > 0.0 {
                Arrival::Poisson(Poisson::with_rate(opts.rate_per_table))
            } else {
                Arrival::Closed
            },
            policy: opts.policy,
            max_in_flight: opts.max_in_flight,
            stop_at: opts.stop_at,
        };
        sim.replace_actor(t, Box::new(SessionTable::new(t, tcfg, driver)));
    }

    SessionDeployment { ring, replicas, tables, registry, log, partitioning, cfg }
}

/// A deployed client-server baseline.
pub struct CsDeployment {
    /// The stand-alone server.
    pub server: NodeId,
    /// Clients.
    pub clients: Vec<NodeId>,
    /// Shared command registry.
    pub registry: Registry<TreeCommand>,
}

/// Deploys the non-replicated baseline: one server, `n_clients`
/// closed-loop clients.
pub fn deploy_cs(
    sim: &mut Sim,
    n_clients: usize,
    workload: WorkloadKind,
    stop_at: Option<Time>,
) -> CsDeployment {
    let server = sim.add_node(Box::new(Idle));
    let clients: Vec<NodeId> = (0..n_clients).map(|_| sim.add_node(Box::new(Idle))).collect();
    let registry: Registry<TreeCommand> = Registry::new();
    let span = Partitioning::new(1).span;
    let service = TreeService::populated(0, span, POPULATE_COUNT);
    sim.replace_actor(server, Box::new(CsServer::new(service, registry.clone())));
    for (ci, &c) in clients.iter().enumerate() {
        let workload = WorkloadGen::new(workload, span);
        let client = SmrClient::new(
            c,
            Target::ClientServer { server },
            registry.clone(),
            workload,
            None,
            0xc5 + ci as u64,
            stop_at,
        );
        sim.replace_actor(c, Box::new(client));
    }
    CsDeployment { server, clients, registry }
}
