//! Cluster assembly from the same public constructors the repository's
//! builders use (`namenode_actor`, `DataNode::new`, `ClientActor::new`,
//! `jobtracker_actor_cfg`, `TaskTracker::new`,
//! `durable_replicated_nn_actor`), in the builders' node order and with
//! their settings, so a wrapped cluster replays the builder's schedule.

use crate::wrap::{Probe, Role};
use boom_fs::client::{ClientActor, FsClient, FsConfig, NameNodeMode, RetryPolicy};
use boom_fs::datanode::{DataNode, DataNodeConfig};
use boom_fs::namenode::{namenode_actor, NameNodeConfig};
use boom_mr::jobtracker::{jobtracker_actor_cfg, AssignPolicy, JobTrackerConfig, SpecPolicy};
use boom_mr::tasktracker::{TaskTracker, TaskTrackerConfig};
use boom_mr::{CostModel, MrDriver};
use boom_paxos::PaxosGroup;
use boom_simnet::{Actor, CheckpointPolicy, DurableStore, Sim, SimConfig};

/// A running benchmark cluster.
pub struct Stack {
    /// The simulator (serial engine: the parallel flag is never set).
    pub sim: Sim,
    /// The closed-loop client.
    pub fs: FsClient,
    /// Job driver (MapReduce stacks only).
    pub driver: Option<MrDriver>,
    /// Overlog nodes and their roles.
    pub overlog: Vec<(String, Role)>,
    /// DataNode names.
    pub datanodes: Vec<String>,
    /// TaskTracker names.
    pub trackers: Vec<String>,
    /// Durable store of the replicated NameNode.
    pub store: Option<DurableStore>,
    /// The probe every wrapper reports to.
    pub probe: Probe,
}

/// How nodes are hosted: wrapped (the benchmark) or bare (the
/// transparency baseline).
struct Host<'a> {
    sim: &'a mut Sim,
    probe: &'a Probe,
    wrap: bool,
}

impl Host<'_> {
    fn add(&mut self, name: &str, role: Role, actor: Box<dyn Actor>) {
        if self.wrap {
            self.sim
                .add_node(name, Box::new(self.probe.wrap(name, role, actor)));
        } else {
            self.sim.add_node(name, actor);
        }
    }
}

/// The default network (1–5 ms latency, no loss) with `seed`.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..Default::default()
    }
}

fn datanode(namenodes: &[String], hb_interval: u64) -> Box<DataNode> {
    Box::new(DataNode::new(DataNodeConfig {
        namenodes: namenodes.to_vec(),
        hb_interval,
    }))
}

fn client(namenodes: Vec<String>, mode: NameNodeMode, rpc_timeout: u64) -> FsClient {
    FsClient::new(
        "client0",
        FsConfig {
            namenodes,
            mode,
            chunk_size: 4096,
            rpc_timeout,
            write_acks: 1,
            retry: RetryPolicy::default(),
        },
    )
}

/// A single Overlog NameNode with `datanodes` DataNodes at replication 2.
/// With `hb: None` it is shaped like `FsClusterBuilder { sim, datanodes,
/// ..Default::default() }` (3 s heartbeats, all DataNodes starting
/// together); with `Some(ms)` DataNodes heartbeat every `ms` with their
/// phases spread evenly over the interval.
pub fn fs_stack(sim: SimConfig, datanodes: usize, hb: Option<u64>, wrap: bool) -> Stack {
    let mut sim = Sim::new(sim);
    let probe = Probe::default();
    let mut host = Host {
        sim: &mut sim,
        probe: &probe,
        wrap,
    };
    let nns = vec!["nn0".to_string()];
    let cfg = NameNodeConfig {
        replication: 2,
        hb_timeout: 15_000,
        id_stride: 1,
        id_offset: 0,
    };
    host.add("nn0", Role::NameNode, Box::new(namenode_actor("nn0", cfg)));
    let hb_interval = hb.unwrap_or(3_000);
    let dns: Vec<String> = (0..datanodes).map(|i| format!("dn{i}")).collect();
    for (i, dn) in dns.iter().enumerate() {
        if i > 0 && hb.is_some() {
            host.sim.run_for(hb_interval / datanodes as u64);
        }
        host.add(dn, Role::DataNode, datanode(&nns, hb_interval));
    }
    host.add("client0", Role::Client, Box::new(ClientActor::new()));
    sim.run_for(hb_interval.min(500) + 200);
    Stack {
        sim,
        fs: client(nns, NameNodeMode::Single, 10_000),
        driver: None,
        overlog: vec![("nn0".to_string(), Role::NameNode)],
        datanodes: dns,
        trackers: Vec::new(),
        store: None,
        probe,
    }
}

/// BOOM-MR over BOOM-FS with `workers` workers (DataNode + TaskTracker
/// each), the Overlog JobTracker with LATE speculation and locality —
/// shaped like `MrClusterBuilder { policy: Late, locality: true, workers,
/// ..Default::default() }` without stragglers.
pub fn mr_stack(seed: u64, workers: usize, wrap: bool) -> Stack {
    let mut sim = Sim::new(sim_config(seed));
    let probe = Probe::default();
    let mut host = Host {
        sim: &mut sim,
        probe: &probe,
        wrap,
    };
    let nns = vec!["nn0".to_string()];
    let cfg = NameNodeConfig {
        replication: 2,
        ..Default::default()
    };
    host.add("nn0", Role::NameNode, Box::new(namenode_actor("nn0", cfg)));
    let dns: Vec<String> = (0..workers).map(|i| format!("dn{i}")).collect();
    let tts: Vec<String> = (0..workers).map(|i| format!("tt{i}")).collect();
    let assign = AssignPolicy::Locality(dns.iter().cloned().zip(tts.iter().cloned()).collect());
    let jt = jobtracker_actor_cfg(
        "jt",
        SpecPolicy::Late,
        assign,
        JobTrackerConfig { tt_timeout: 20_000 },
    );
    host.add("jt", Role::JobTracker, Box::new(jt));
    for dn in &dns {
        host.add(dn, Role::DataNode, datanode(&nns, 3_000));
    }
    for (i, tt) in tts.iter().enumerate() {
        let tracker = TaskTracker::new(TaskTrackerConfig {
            jobtracker: "jt".to_string(),
            slots: 2,
            hb_interval: 500,
            peers: tts.clone(),
            speed: 1.0,
            cost: CostModel::default(),
            colocated_dn: Some(dns[i].clone()),
        });
        host.add(tt, Role::TaskTracker, Box::new(tracker));
    }
    host.add("client0", Role::Client, Box::new(ClientActor::new()));
    sim.run_for(700);
    Stack {
        sim,
        fs: client(nns, NameNodeMode::Single, 10_000),
        driver: Some(MrDriver::new("client0", "jt")),
        overlog: vec![
            ("nn0".to_string(), Role::NameNode),
            ("jt".to_string(), Role::JobTracker),
        ],
        datanodes: dns,
        trackers: tts,
        store: None,
        probe,
    }
}

/// A durable 3-replica Paxos NameNode with 4 DataNodes, shaped like
/// `ReplicatedFsBuilder { durable: true, ..Default::default() }`.
pub fn replicated_stack(seed: u64, wrap: bool) -> Stack {
    let nns: Vec<String> = (0..3).map(|i| format!("nn{i}")).collect();
    let members: Vec<&str> = nns.iter().map(String::as_str).collect();
    let group = PaxosGroup::new(&members, 2_000);
    let mut sim = Sim::new(sim_config(seed));
    let store = DurableStore::new(seed);
    sim.set_durable_store(store.clone());
    let probe = Probe::default();
    let mut host = Host {
        sim: &mut sim,
        probe: &probe,
        wrap,
    };
    let cfg = NameNodeConfig {
        replication: 2,
        hb_timeout: 15_000,
        id_stride: 1,
        id_offset: 0,
    };
    for nn in &nns {
        let actor = boom_core::durable_replicated_nn_actor(
            nn,
            group.clone(),
            cfg.clone(),
            store.clone(),
            CheckpointPolicy { every_entries: 512 },
        );
        host.add(nn, Role::Replicated, Box::new(actor));
    }
    let dns: Vec<String> = (0..4).map(|i| format!("dn{i}")).collect();
    for dn in &dns {
        host.add(dn, Role::DataNode, datanode(&nns, 3_000));
    }
    host.add("client0", Role::Client, Box::new(ClientActor::new()));
    sim.run_for(500);
    Stack {
        sim,
        fs: client(nns.clone(), NameNodeMode::Replicated, 1_500),
        driver: None,
        overlog: nns.into_iter().map(|n| (n, Role::Replicated)).collect(),
        datanodes: dns,
        trackers: Vec::new(),
        store: Some(store),
        probe,
    }
}
