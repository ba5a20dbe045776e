//! The four workloads and the deployment each one serves from.
//!
//! The program is configured only through `ServerConfig` defaults plus
//! what a workload needs: the listen address, the result cache, the
//! shard layout and the topology. Batch window, batch size, worker count
//! and queue depth are never set here.

use drtopk_common::Relation;
use drtopk_core::{DlOptions, DualLayerIndex, RouterConfig, ShardRouter};
use drtopk_server::{
    Client, RemoteRouter, ServedShard, Server, ServerConfig, ServerHandle, Topology,
};
use drtopk_storage::{create_sharded, DurableOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tuples in every workload's relation.
pub const N: usize = 100_000;
/// Attributes per tuple.
pub const D: usize = 3;
/// Answers per query.
pub const K: usize = 10;
/// Seed of the relation. The data is the same in every run of every
/// workload, so layer rows compare across workloads and a run's spread
/// comes from the measurement, not from a different dataset; the
/// workload seed drives the queries, the writes and the oracle sample.
pub const DATA_SEED: u64 = 0x5EED_DA7A;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unsharded server, defaults, fresh uniform weights.
    SingleUniform,
    /// Unsharded server with its cache on, Zipf weights over a small pool.
    SingleZipf,
    /// P = 4 durable shards in process, one query connection plus a writer.
    ShardedChurn,
    /// P = 2 shard nodes behind a router node, all on loopback.
    RemoteFanout,
}

impl Kind {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Kind; 4] = [
        Kind::SingleUniform,
        Kind::SingleZipf,
        Kind::ShardedChurn,
        Kind::RemoteFanout,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SingleUniform => "single-uniform",
            Kind::SingleZipf => "single-zipf",
            Kind::ShardedChurn => "sharded-churn",
            Kind::RemoteFanout => "remote-fanout",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Shard count; 0 for the unsharded server.
    pub fn shards(self) -> usize {
        match self {
            Kind::SingleUniform | Kind::SingleZipf => 0,
            Kind::ShardedChurn => 4,
            Kind::RemoteFanout => 2,
        }
    }

    /// Closed-loop query connections: at most two load threads, the
    /// host's core count, counting the churn writer. `single-zipf` has
    /// one: its requests take microseconds, so two connections keep four
    /// threads busy on two cores and its figures follow the host's CPU
    /// speed from run to run more than the program.
    pub fn query_connections(self) -> usize {
        match self {
            Kind::ShardedChurn | Kind::SingleZipf => 1,
            Kind::SingleUniform | Kind::RemoteFanout => 2,
        }
    }
}

/// What one set-up cost, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `DualLayerIndex::build` (unsharded workloads).
    pub index_s: f64,
    /// `create_sharded` (sharded workloads).
    pub shards_s: f64,
    /// Every `Server::start*` call together.
    pub start_ms: f64,
    /// From the start of set-up to the first answered query.
    pub total_s: f64,
}

/// A running deployment of one workload.
pub struct Deployment {
    /// The workload it serves.
    pub kind: Kind,
    /// The unsharded index (single workloads).
    pub index: Option<Arc<DualLayerIndex>>,
    /// The in-process router (`sharded-churn`).
    pub router: Option<Arc<ShardRouter<ServedShard>>>,
    /// The remote router inside the router node (`remote-fanout`).
    pub remote: Option<Arc<RemoteRouter>>,
    /// The shards behind the shard nodes (`remote-fanout`).
    pub node_shards: Vec<Arc<ServedShard>>,
    /// The shard nodes (`remote-fanout`).
    pub nodes: Vec<ServerHandle>,
    /// The server the load connects to.
    pub server: ServerHandle,
    /// Store directory of the sharded workloads, removed on stop.
    pub store_dir: Option<PathBuf>,
    /// Set-up cost of this deployment.
    pub times: SetupTimes,
}

impl Deployment {
    /// Builds and starts `kind` over `rel`, then answers one query; the
    /// set-up time runs from entry to that first answer.
    pub fn start(kind: Kind, rel: &Relation, store_dir: &Path) -> Result<Self, String> {
        let t0 = Instant::now();
        let base = ServerConfig::new()
            .addr("127.0.0.1:0")
            .cache(kind == Kind::SingleZipf);
        let mut dep = match kind {
            Kind::SingleUniform | Kind::SingleZipf => {
                let t = Instant::now();
                let idx = Arc::new(DualLayerIndex::build(rel, DlOptions::default()));
                let index_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let server = Server::start(Arc::clone(&idx), base)
                    .map_err(|e| format!("start server: {e}"))?;
                let mut dep = Deployment::around(kind, server, None);
                dep.times.start_ms = t.elapsed().as_secs_f64() * 1e3;
                dep.times.index_s = index_s;
                dep.index = Some(idx);
                dep
            }
            Kind::ShardedChurn | Kind::RemoteFanout => {
                let t = Instant::now();
                let stores =
                    create_sharded(store_dir, rel, kind.shards(), &DurableOptions::default())
                        .map_err(|e| format!("create shards: {e}"))?;
                let shards_s = t.elapsed().as_secs_f64();
                let shards: Vec<ServedShard> = stores
                    .into_iter()
                    .enumerate()
                    .map(|(s, st)| ServedShard::new(s, st))
                    .collect();
                let dir = Some(store_dir.to_path_buf());
                let t = Instant::now();
                let mut dep = if kind == Kind::ShardedChurn {
                    let router = Arc::new(
                        ShardRouter::new(shards, RouterConfig::default())
                            .map_err(|e| format!("router: {e}"))?,
                    );
                    let server = Server::start_sharded(Arc::clone(&router), base)
                        .map_err(|e| format!("start sharded server: {e}"))?;
                    let mut dep = Deployment::around(kind, server, dir);
                    dep.router = Some(router);
                    dep
                } else {
                    let node_shards: Vec<Arc<ServedShard>> =
                        shards.into_iter().map(Arc::new).collect();
                    let mut nodes = Vec::new();
                    for shard in &node_shards {
                        nodes.push(
                            Server::start_shard_node(Arc::clone(shard), base.clone())
                                .map_err(|e| format!("start shard node: {e}"))?,
                        );
                    }
                    // Default directives: only the shard endpoints are given.
                    let mut text = format!("dims {D}\n");
                    for (s, node) in nodes.iter().enumerate() {
                        text.push_str(&format!("shard {s} {}\n", node.addr()));
                    }
                    let topo = Topology::parse(&text).map_err(|e| format!("topology: {e}"))?;
                    let remote = topo.build_router().map_err(|e| format!("router: {e}"))?;
                    let server =
                        Server::start_router(Arc::clone(&remote), Some(topo.pinger_config()), base)
                            .map_err(|e| format!("start router node: {e}"))?;
                    let mut dep = Deployment::around(kind, server, dir);
                    dep.remote = Some(remote);
                    dep.node_shards = node_shards;
                    dep.nodes = nodes;
                    dep
                };
                dep.times.start_ms = t.elapsed().as_secs_f64() * 1e3;
                dep.times.shards_s = shards_s;
                dep
            }
        };
        let first = Client::connect(dep.server.addr())
            .and_then(|mut c| c.query(&[1.0 / D as f64; D], K as u32, 0, 0));
        if let Err(e) = first {
            dep.stop();
            return Err(format!("first query: {e}"));
        }
        dep.times.total_s = t0.elapsed().as_secs_f64();
        Ok(dep)
    }

    fn around(kind: Kind, server: ServerHandle, store_dir: Option<PathBuf>) -> Self {
        Deployment {
            kind,
            index: None,
            router: None,
            remote: None,
            node_shards: Vec::new(),
            nodes: Vec::new(),
            server,
            store_dir,
            times: SetupTimes::default(),
        }
    }

    /// Number of shards (0 when unsharded).
    pub fn shard_count(&self) -> usize {
        self.kind.shards()
    }

    /// Shard `s` as a local `ServedShard`, for direct probes and writes.
    pub fn shard(&self, s: usize) -> &ServedShard {
        match &self.router {
            Some(r) => r.shard(s),
            None => &self.node_shards[s],
        }
    }

    /// Drains every server (router node first), then removes the stores.
    pub fn stop(self) {
        self.server.shutdown();
        for node in self.nodes {
            node.shutdown();
        }
        drop(self.router);
        drop(self.node_shards);
        if let Some(dir) = self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
