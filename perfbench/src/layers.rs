//! The traced run's per-layer numbers.
//!
//! After the timed loop, a sample of the traced requests is replayed
//! call by call into each layer's public functions, one span per call;
//! the spans' self times give the per-layer latencies. Server-side
//! counters come from `/metrics`, scraped around the timed loop before
//! any replay runs (the registry is process-global, so replayed calls
//! would otherwise count as served ones).

use crate::deploy::{Deployment, Kind, SetupTimes, D, K, N};
use crate::load::WriteResult;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Trace;
use crate::Metric;
use drtopk_common::{Relation, Weights};
use drtopk_core::{
    BatchExecutor, DlOptions, DualLayerIndex, QueryBudget, QueryScratch, ResultCache, ShardProbe,
};
use drtopk_server::protocol::{decode_payload, encode_frame, Message};
use drtopk_server::{Client, RemoteShardProbe};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per traced run, spread evenly over the traced ones.
pub const REPLAY: usize = 600;
/// Calls per wire span: encoding or decoding one frame takes well under
/// a microsecond, so each span times a run of them.
const WIRE_REPS: usize = 16;
/// Ids per `Columns::score_block` call in the kernel sweep.
const KERNEL_BLOCK: usize = 64;

/// Counters and histogram sums from the Prometheus exposition (unlabeled
/// series only).
pub type Scrape = BTreeMap<String, f64>;

/// Fetches `/metrics` from the server at `dep` over the wire protocol.
pub fn scrape(dep: &Deployment) -> Result<Scrape, String> {
    let text = Client::connect(dep.server.addr())
        .and_then(|mut c| c.metrics_text())
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Growth of one series between two scrapes (0 when absent).
fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Mean of a histogram's growth between two scrapes.
fn hist_mean(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    let count = delta(before, after, &format!("{name}_count"));
    if count > 0.0 {
        delta(before, after, &format!("{name}_sum")) / count
    } else {
        0.0
    }
}

/// Total bytes of every shard's write-ahead logs under `root`.
pub fn wal_bytes(root: &Path) -> u64 {
    let Ok(shards) = std::fs::read_dir(root) else {
        return 0;
    };
    shards
        .flatten()
        .filter_map(|s| std::fs::read_dir(s.path()).ok())
        .flatten()
        .flatten()
        .filter(|f| {
            let name = f.file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal.") && name.ends_with(".log")
        })
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Everything the timed loop left for the per-layer summary.
pub struct Observed<'a> {
    /// The workload's relation (the replay builds its full index from it
    /// when the deployment is sharded).
    pub rel: &'a Relation,
    /// Traced requests with their weights.
    pub requests: &'a [(u64, Weights)],
    /// `/metrics` at the start and the end of the timed loop.
    pub before: &'a Scrape,
    /// See `before`.
    pub after: &'a Scrape,
    /// Query p50 of the untraced segments, µs.
    pub p50_us: f64,
    /// Answered q/s of the untraced and the traced segments.
    pub qps_untraced: f64,
    /// See `qps_untraced`.
    pub qps_traced: f64,
    /// The churn writer's observations, when the workload writes.
    pub writes: Option<&'a WriteResult>,
    /// WAL bytes before and after the timed loop.
    pub wal_bytes: (u64, u64),
    /// Each set-up's cost.
    pub setups: &'a [SetupTimes],
    /// Failed over attempted operations of the whole run.
    pub error_rate: f64,
    /// Measured streaming read bandwidth, GB/s.
    pub stream_gb_per_s: f64,
}

/// Per-request samples the replay collects beside the spans.
#[derive(Default)]
struct Replay {
    evaluated: Vec<f64>,
    probe_evaluated: Vec<f64>,
    /// Router time minus its slowest probe, per request, µs.
    fanout_us: Vec<f64>,
    /// Remote probe minus local probe on the same shard and weights, µs.
    hop_us: Vec<f64>,
    /// Time the first cache probe took and whether it hit, per request.
    first_probe: Vec<(f64, bool)>,
    /// Per-request share of each replayed batch, µs.
    batch_per_request_us: Vec<f64>,
}

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

/// Replays a sample of the traced requests and returns every per-layer
/// metric, in the order `BENCHMARK.json` lists them.
pub fn measure(dep: &Deployment, obs: &Observed, trace: &mut Trace) -> Vec<Metric> {
    let mut traced: Vec<&(u64, Weights)> = obs.requests.iter().collect();
    traced.sort_by_key(|(req, _)| *req);
    let step = (traced.len() as f64 / REPLAY as f64).max(1.0);
    let picks: Vec<&(u64, Weights)> = (0..REPLAY.min(traced.len()))
        .map(|i| traced[(i as f64 * step) as usize])
        .collect();

    // The unsharded layers run on the full index over the same data in
    // every workload; the sharded deployments have none, so build it.
    let t = Instant::now();
    let index = match &dep.index {
        Some(idx) => Arc::clone(idx),
        None => Arc::new(DualLayerIndex::build(obs.rel, DlOptions::default())),
    };
    let build_index_s = if dep.index.is_some() {
        median(&obs.setups.iter().map(|s| s.index_s).collect::<Vec<_>>())
    } else {
        t.elapsed().as_secs_f64()
    };

    let batch_size = hist_mean(obs.before, obs.after, "drtopk_server_batch_size");
    let mut rep = Replay::default();
    let cache = ResultCache::default();
    let mut scratch = QueryScratch::for_index(&index);
    let mut kernel_out = Vec::with_capacity(KERNEL_BLOCK);
    let all_ids: Vec<u32> = (0..index.columns().len() as u32).collect();
    let remote_probes: Vec<RemoteShardProbe> = dep
        .nodes
        .iter()
        .map(|n| RemoteShardProbe::new(n.addr().to_string(), D, Default::default()))
        .collect();
    let unlimited = QueryBudget::unlimited();

    for &(req, ref w) in &picks {
        let req = *req;
        let root = trace.open(req, "replay", None);

        let query = Message::Query {
            deadline_ms: 0,
            max_cost: 0,
            k: K as u32,
            weights: w.as_slice().to_vec(),
        };
        trace.time(req, "wire.encode", Some(root), || {
            for _ in 0..WIRE_REPS {
                std::hint::black_box(encode_frame(req, std::hint::black_box(&query)));
            }
        });

        let (_, _) = trace.time(req, "query.scratch_new", Some(root), || {
            std::hint::black_box(QueryScratch::for_index(&index))
        });
        let (reused, _) = trace.time(req, "query.reused", Some(root), || {
            index.topk_with_scratch(w, K, &mut scratch)
        });
        rep.evaluated.push(reused.cost.evaluated as f64);
        trace.time(req, "query.fresh", Some(root), || index.topk(w, K));

        let reply = encode_frame(
            req,
            &Message::Topk {
                truncated: 0,
                evaluated: reused.cost.evaluated,
                pseudo_evaluated: reused.cost.pseudo_evaluated,
                ids: reused.ids.iter().map(|&id| u64::from(id)).collect(),
                coverage: None,
                scores: None,
            },
        );
        trace.time(req, "wire.decode", Some(root), || {
            for _ in 0..WIRE_REPS {
                std::hint::black_box(decode_payload(std::hint::black_box(&reply[8..])).ok());
            }
        });

        trace.time(req, "columns.score", Some(root), || {
            for block in all_ids.chunks(KERNEL_BLOCK) {
                index.columns().score_block(w, block, &mut kernel_out);
                std::hint::black_box(&kernel_out);
            }
        });

        let t0 = Instant::now();
        let first = cache.probe(&index, w, K);
        let t1 = Instant::now();
        rep.first_probe.push((us(t0, t1), first.is_some()));
        if first.is_some() {
            trace.record(req, "cache.hit", Some(root), t0, t1);
        } else {
            trace.record(req, "cache.probe_miss", Some(root), t0, t1);
            trace.time(req, "cache.miss", Some(root), || cache.topk(&index, w, K));
            let t0 = Instant::now();
            let again = cache.probe(&index, w, K);
            if again.is_some() {
                trace.record(req, "cache.hit", Some(root), t0, Instant::now());
            }
        }

        match dep.kind {
            Kind::ShardedChurn => {
                let router = dep.router.as_ref().expect("sharded-churn has a router");
                let t0 = Instant::now();
                router.topk(w, K, &unlimited);
                let t1 = Instant::now();
                trace.record(req, "shard.router", Some(root), t0, t1);
                let probes = local_probes(dep, w, req, root, trace, &mut rep);
                rep.fanout_us
                    .push(us(t0, t1) - probes.iter().copied().fold(0.0, f64::max));
            }
            Kind::RemoteFanout => {
                let remote = dep.remote.as_ref().expect("remote-fanout has a router");
                let t0 = Instant::now();
                remote.topk(w, K, &unlimited);
                let t1 = Instant::now();
                trace.record(req, "remote.router", Some(root), t0, t1);
                let local = local_probes(dep, w, req, root, trace, &mut rep);
                let mut slowest: f64 = 0.0;
                for (s, probe) in remote_probes.iter().enumerate() {
                    let p0 = Instant::now();
                    let answered = probe.probe(w, K, &unlimited).is_ok();
                    let p1 = Instant::now();
                    if answered {
                        trace.record(req, "remote.probe", Some(root), p0, p1);
                        slowest = slowest.max(us(p0, p1));
                        rep.hop_us.push(us(p0, p1) - local[s]);
                    }
                }
                rep.fanout_us.push(us(t0, t1) - slowest);
            }
            Kind::SingleUniform | Kind::SingleZipf => {}
        }
        trace.close(root);
    }

    // Batches the size the server reported, executor construction included.
    let group = (batch_size.round() as usize).max(1);
    for chunk in picks.chunks(group) {
        let requests: Vec<(Weights, usize, QueryBudget)> = chunk
            .iter()
            .map(|(_, w)| (w.clone(), K, QueryBudget::unlimited()))
            .collect();
        let t0 = Instant::now();
        std::hint::black_box(BatchExecutor::with_threads(&index, 1).run_guarded_each(&requests));
        let t1 = Instant::now();
        trace.record(chunk[0].0, "batch.run", None, t0, t1);
        rep.batch_per_request_us.extend(std::iter::repeat_n(
            us(t0, t1) / chunk.len() as f64,
            chunk.len(),
        ));
    }

    summarize(dep, obs, trace, &rep, build_index_s, batch_size)
}

/// Probes every shard in parallel through `ServedShard::probe`, one
/// child span per probe under a `shard.probes` span; returns each shard's
/// probe time in µs.
fn local_probes(
    dep: &Deployment,
    w: &Weights,
    req: u64,
    root: usize,
    trace: &mut Trace,
    rep: &mut Replay,
) -> Vec<f64> {
    let budget = QueryBudget::unlimited();
    let parent = trace.open(req, "shard.probes", Some(root));
    let timed: Vec<(Instant, Instant, Option<u64>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..dep.shard_count())
            .map(|s| {
                let budget = &budget;
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let r = dep.shard(s).probe(w, K, budget);
                    (t0, Instant::now(), r.ok().map(|(_, cost)| cost.evaluated))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("probe thread"))
            .collect()
    });
    trace.close(parent);
    timed
        .into_iter()
        .map(|(t0, t1, evaluated)| {
            trace.record(req, "shard.probe", Some(parent), t0, t1);
            if let Some(e) = evaluated {
                rep.probe_evaluated.push(e as f64);
            }
            us(t0, t1)
        })
        .collect()
}

fn summarize(
    dep: &Deployment,
    obs: &Observed,
    trace: &Trace,
    rep: &Replay,
    build_index_s: f64,
    batch_size: f64,
) -> Vec<Metric> {
    let by_name = trace.self_us_by_name();
    let spans = |name: &str| sorted(by_name.get(name).map_or(&[][..], Vec::as_slice));
    let p = |name: &str, q: f64| percentile(&spans(name), q);
    let (before, after) = (obs.before, obs.after);

    let columns_us = p("columns.score", 0.5);
    let columns_gb_per_s = if columns_us > 0.0 {
        (N * D * 8) as f64 / (columns_us * 1e3)
    } else {
        0.0
    };
    let ping_us = p("wire.ping", 0.5);

    // What the server does per request, replayed: the batch path, the
    // cache probe in front of it, or the router.
    let batch_p50 = median(&rep.batch_per_request_us);
    let exec_p50 = match dep.kind {
        Kind::SingleUniform => batch_p50,
        Kind::SingleZipf => median(
            &rep.first_probe
                .iter()
                .map(|&(t, hit)| if hit { t } else { t + batch_p50 })
                .collect::<Vec<_>>(),
        ),
        Kind::ShardedChurn => p("shard.router", 0.5),
        Kind::RemoteFanout => p("remote.router", 0.5),
    };
    let router_name = if dep.kind == Kind::RemoteFanout {
        "remote.router"
    } else {
        "shard.router"
    };

    let hits = delta(before, after, "drtopk_cache_hits_total");
    let misses = delta(before, after, "drtopk_cache_misses_total");
    let shard_stat = |f: fn(&drtopk_core::DynamicIndex) -> usize| -> Vec<usize> {
        (0..dep.shard_count())
            .filter_map(|s| dep.shard(s).with_store(|st| f(st.index())))
            .collect()
    };
    let w = obs.writes;
    let write_us =
        |f: fn(&WriteResult) -> &Vec<f64>, q: f64| w.map_or(0.0, |w| percentile(&sorted(f(w)), q));
    let writes_applied = w.map_or(0, |w| w.latencies_us.len());
    let wal_per_write = if writes_applied > 0 {
        obs.wal_bytes.1.saturating_sub(obs.wal_bytes.0) as f64 / writes_applied as f64
    } else {
        0.0
    };
    let median_of =
        |f: fn(&SetupTimes) -> f64| median(&obs.setups.iter().map(f).collect::<Vec<_>>());

    vec![
        Metric::new("host.stream_gb_per_s", obs.stream_gb_per_s, "GB/s"),
        Metric::new("columns.ns_per_tuple", columns_us * 1e3 / N as f64, "ns"),
        Metric::new("columns.gb_per_s", columns_gb_per_s, "GB/s"),
        Metric::new(
            "columns.roofline_frac",
            columns_gb_per_s / obs.stream_gb_per_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        Metric::new("query.reused_p50_us", p("query.reused", 0.5), "us"),
        Metric::new("query.reused_p99_us", p("query.reused", 0.99), "us"),
        Metric::new("query.fresh_p50_us", p("query.fresh", 0.5), "us"),
        Metric::new("query.scratch_new_us", p("query.scratch_new", 0.5), "us"),
        Metric::new("query.evaluated", mean(&rep.evaluated), "tuples"),
        Metric::new("batch.batch_p50_us", p("batch.run", 0.5), "us"),
        Metric::new(
            "server.queue_wait_mean_us",
            hist_mean(before, after, "drtopk_server_queue_wait_seconds") * 1e6,
            "us",
        ),
        Metric::new("server.batch_size_mean", batch_size, "requests"),
        Metric::new(
            "server.sheds",
            delta(before, after, "drtopk_server_sheds_total"),
            "count",
        ),
        Metric::new(
            "server.residual_p50_us",
            obs.p50_us - ping_us - exec_p50,
            "us",
        ),
        Metric::new("wire.ping_p50_us", ping_us, "us"),
        Metric::new(
            "wire.encode_ns",
            p("wire.encode", 0.5) * 1e3 / WIRE_REPS as f64,
            "ns",
        ),
        Metric::new(
            "wire.decode_ns",
            p("wire.decode", 0.5) * 1e3 / WIRE_REPS as f64,
            "ns",
        ),
        Metric::new(
            "cache.hit_rate",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("cache.hit_p50_us", p("cache.hit", 0.5), "us"),
        Metric::new("cache.miss_p50_us", p("cache.miss", 0.5), "us"),
        Metric::new(
            "cache.cert_rejects",
            delta(before, after, "drtopk_cache_cert_rejects_total"),
            "count",
        ),
        Metric::new("shard.router_p50_us", p(router_name, 0.5), "us"),
        Metric::new("shard.router_p99_us", p(router_name, 0.99), "us"),
        Metric::new("shard.probe_p50_us", p("shard.probe", 0.5), "us"),
        Metric::new("shard.fanout_p50_us", median(&rep.fanout_us), "us"),
        Metric::new(
            "shard.retries",
            delta(before, after, "drtopk_shard_retries_total"),
            "count",
        ),
        Metric::new(
            "shard.degraded",
            delta(before, after, "drtopk_shard_degraded_answers_total"),
            "count",
        ),
        Metric::new(
            "dynamic.pending_max",
            shard_stat(|d| d.pending()).into_iter().max().unwrap_or(0) as f64,
            "updates",
        ),
        Metric::new(
            "dynamic.evaluated_per_probe",
            mean(&rep.probe_evaluated),
            "tuples",
        ),
        Metric::new(
            "dynamic.rebuilds",
            shard_stat(|d| d.rebuilds()).into_iter().sum::<usize>() as f64,
            "count",
        ),
        Metric::new("write_p50_us", write_us(|w| &w.latencies_us, 0.5), "us"),
        Metric::new("write_p99_us", write_us(|w| &w.latencies_us, 0.99), "us"),
        Metric::new(
            "durable.insert_p50_us",
            write_us(|w| &w.insert_us, 0.5),
            "us",
        ),
        Metric::new(
            "durable.insert_p99_us",
            write_us(|w| &w.insert_us, 0.99),
            "us",
        ),
        Metric::new(
            "durable.delete_p50_us",
            write_us(|w| &w.delete_us, 0.5),
            "us",
        ),
        Metric::new(
            "durable.lock_wait_p50_us",
            write_us(|w| &w.lock_wait_us, 0.5),
            "us",
        ),
        Metric::new("durable.wal_bytes_per_write", wal_per_write, "bytes"),
        Metric::new("remote.probe_p50_us", p("remote.probe", 0.5), "us"),
        Metric::new("remote.hop_p50_us", median(&rep.hop_us), "us"),
        Metric::new("remote.router_p50_us", p("remote.router", 0.5), "us"),
        Metric::new(
            "remote.failovers",
            delta(before, after, "drtopk_shard_failovers_total"),
            "count",
        ),
        Metric::new(
            "remote.hedges",
            delta(before, after, "drtopk_shard_hedges_total"),
            "count",
        ),
        Metric::new("build.index_s", build_index_s, "s"),
        Metric::new("build.shards_s", median_of(|s| s.shards_s), "s"),
        Metric::new("server.start_ms", median_of(|s| s.start_ms), "ms"),
        Metric::new(
            "trace.overhead_pct",
            (1.0 - obs.qps_traced / obs.qps_untraced.max(f64::MIN_POSITIVE)) * 100.0,
            "%",
        ),
        Metric::new("error_rate", obs.error_rate, "ratio"),
    ]
}
