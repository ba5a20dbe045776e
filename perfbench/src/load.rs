//! Load generation: closed-loop query connections and the open-loop
//! churn writer, with every reply classified and a seeded sample of
//! answers kept for the oracle check.

use crate::churn::{ChurnPlan, WriteOp};
use crate::deploy::{Deployment, Kind, D, K};
use crate::stats::{reservoir, Failure, Tally};
use crate::trace::Trace;
use drtopk_common::{Weights, ZipfWeightWorkload};
use drtopk_server::{Client, ClientError, ErrorCode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct weight vectors in `single-zipf`'s pool; it fits in the cache.
pub const ZIPF_POOL: usize = 64;
/// Zipf exponent of `single-zipf`.
pub const ZIPF_SKEW: f64 = 1.0;
/// Writes per second offered by the churn writer.
pub const WRITE_RATE: f64 = 100.0;
/// Answers per connection per loop kept for the oracle check: a uniform
/// seeded reservoir sample over the whole loop.
const SAMPLE_CAP: usize = 128;
/// In traced loops, every this-many-th query is preceded by a ping on the
/// same connection, so `wire.ping` is timed under the workload's load.
const PING_EVERY: u64 = 64;
/// Client-call spans kept per connection per traced loop (the latest ones;
/// at 300k q/s a traced quarter would otherwise hold millions).
const CLIENT_SPANS: usize = 50_000;
/// Traced requests per connection per loop whose weights are kept for
/// the layer replay: a uniform seeded reservoir sample, like the answers.
const REQUEST_CAP: usize = 512;

/// The weight stream of one connection.
pub enum Source {
    /// A fresh weight vector per query, uniform on the simplex.
    Uniform(StdRng),
    /// Every `stride`-th draw of one shared Zipf sequence, from `pos`.
    Zipf {
        /// The shared draw sequence.
        seq: Arc<Vec<Weights>>,
        /// Next position.
        pos: usize,
        /// Connections sharing the sequence.
        stride: usize,
    },
}

impl Source {
    /// One stream per query connection of `kind`, all derived from `seed`.
    pub fn for_workload(kind: Kind, seed: u64) -> Vec<Source> {
        let conns = kind.query_connections();
        if kind == Kind::SingleZipf {
            // One pool shared by every connection, so the pool is what the
            // cache sees; connections take interleaved draws.
            let seq = Arc::new(
                ZipfWeightWorkload::new(D, ZIPF_POOL, 1 << 17, ZIPF_SKEW, seed).generate(),
            );
            (0..conns)
                .map(|c| Source::Zipf {
                    seq: Arc::clone(&seq),
                    pos: c,
                    stride: conns,
                })
                .collect()
        } else {
            (0..conns)
                .map(|c| Source::Uniform(StdRng::seed_from_u64(seed ^ (0x9E37 + c as u64))))
                .collect()
        }
    }

    /// The next query's weights.
    pub fn next_weights(&mut self) -> Weights {
        match self {
            Source::Uniform(rng) => Weights::random(D, rng),
            Source::Zipf { seq, pos, stride } => {
                let w = seq[*pos % seq.len()].clone();
                *pos += *stride;
                w
            }
        }
    }
}

/// Length of the windows a loop's latencies are grouped by.
pub const WINDOW: Duration = Duration::from_secs(1);
/// Latencies kept per connection per window: a seeded reservoir sample,
/// so the load generator's own memory stays bounded (and out of
/// `peak_rss_mb`) at any query rate; every window's p99 still has well
/// over ten samples beyond it.
const WINDOW_SAMPLES: usize = 8192;

/// One window of a loop.
#[derive(Default, Clone)]
pub struct Window {
    /// Queries answered completely in the window.
    pub answered: u64,
    /// Their latencies (all of them, or a uniform sample), µs.
    pub sample_us: Vec<f64>,
}

/// What the query connections saw during one loop.
#[derive(Default)]
pub struct LoopResult {
    /// Answered queries and their latencies, send to reply, grouped by
    /// the [`WINDOW`] of the loop in which the reply landed.
    pub windows: Vec<Window>,
    /// Sum of the replies' Definition-9 `evaluated`.
    pub evaluated: u64,
    /// Queries answered completely.
    pub answered: u64,
    /// Attempted and failed queries.
    pub tally: Tally,
    /// Sampled `(weights, served ids)` for the oracle check.
    pub samples: Vec<(Weights, Vec<u64>)>,
    /// Weights of a sample of the traced requests, by request id.
    pub requests: Vec<(u64, Weights)>,
    /// Wall time the loop ran, in seconds.
    pub seconds: f64,
}

impl LoopResult {
    /// Merges another loop's observations into this one.
    pub fn absorb(&mut self, other: LoopResult) {
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), Window::default());
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.answered += theirs.answered;
            mine.sample_us.extend(theirs.sample_us);
        }
        self.evaluated += other.evaluated;
        self.answered += other.answered;
        self.tally.absorb(&other.tally);
        self.samples.extend(other.samples);
        self.requests.extend(other.requests);
        self.seconds += other.seconds;
    }

    /// Answered queries per second over the whole loop.
    pub fn qps(&self) -> f64 {
        self.answered as f64 / self.seconds.max(f64::MIN_POSITIVE)
    }

    /// Every kept latency sample, µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.sample_us.iter().copied())
            .collect()
    }

    /// The windows that lie wholly inside the loop; a loop shorter than
    /// one window counts as one.
    pub fn full_windows(&self) -> Vec<Window> {
        let full = ((self.seconds / WINDOW.as_secs_f64()) as usize).max(1);
        (0..full)
            .map(|i| self.windows.get(i).cloned().unwrap_or_default())
            .collect()
    }
}

/// Runs every source as one closed-loop connection against `addr` for
/// `duration`. With `trace`, each client call is recorded as a root span,
/// a sample of their weights is kept for the replay, and pings are
/// interleaved (see [`PING_EVERY`]); request ids are unique across
/// loops of one run through `first_req`.
pub fn closed_loop(
    addr: SocketAddr,
    sources: &mut [Source],
    duration: Duration,
    sample_seed: u64,
    trace: Option<&mut Trace>,
    first_req: u64,
) -> LoopResult {
    let t0 = Instant::now();
    let until = t0 + duration;
    let epoch = trace.as_ref().map(|t| t.epoch());
    let outcomes: Vec<(LoopResult, Option<Trace>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(c, src)| {
                scope.spawn(move || {
                    let req_base = first_req + ((c as u64) << 32);
                    let mut spans = epoch.map(|e| Trace::ring(e, CLIENT_SPANS));
                    let r = connection(
                        addr,
                        src,
                        (t0, until),
                        sample_seed ^ c as u64,
                        spans.as_mut(),
                        req_base,
                    );
                    (r, spans)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("load connection thread"))
            .collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let mut total = LoopResult::default();
    let mut trace = trace;
    for (r, spans) in outcomes {
        total.absorb(r);
        if let (Some(t), Some(s)) = (trace.as_deref_mut(), spans) {
            t.absorb(s);
        }
    }
    total.seconds = seconds;
    total
}

fn connection(
    addr: SocketAddr,
    src: &mut Source,
    (start, until): (Instant, Instant),
    sample_seed: u64,
    mut spans: Option<&mut Trace>,
    req_base: u64,
) -> LoopResult {
    let mut out = LoopResult::default();
    let mut pick = StdRng::seed_from_u64(sample_seed);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.tally.fail(Failure::Transport);
            return out;
        }
    };
    let mut req = req_base;
    while Instant::now() < until {
        let w = src.next_weights();
        if let Some(t) = spans.as_deref_mut() {
            if (req - req_base).is_multiple_of(PING_EVERY) {
                let p0 = Instant::now();
                if client.ping().is_ok() {
                    t.record(req + 1, "wire.ping", None, p0, Instant::now());
                }
            }
        }
        let t0 = Instant::now();
        let reply = client.query(w.as_slice(), K as u32, 0, 0);
        let t1 = Instant::now();
        req += 1;
        if let Some(t) = spans.as_deref_mut() {
            t.record(req, "client.query", None, t0, t1);
            let seen = req - req_base;
            reservoir(
                &mut out.requests,
                REQUEST_CAP,
                seen,
                || (req, w.clone()),
                &mut pick,
            );
        }
        match reply {
            Ok(r) if !r.is_full_coverage() => out.tally.fail(Failure::Degraded),
            Ok(r) if r.truncated != 0 => out.tally.fail(Failure::Truncated),
            Ok(r) => {
                out.tally.ok();
                out.answered += 1;
                out.evaluated += r.evaluated;
                let win = ((t1 - start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                if out.windows.len() <= win {
                    out.windows.resize(win + 1, Window::default());
                }
                let window = &mut out.windows[win];
                window.answered += 1;
                let us = (t1 - t0).as_secs_f64() * 1e6;
                reservoir(
                    &mut window.sample_us,
                    WINDOW_SAMPLES,
                    window.answered,
                    || us,
                    &mut pick,
                );
                reservoir(
                    &mut out.samples,
                    SAMPLE_CAP,
                    out.answered,
                    || (w, r.ids),
                    &mut pick,
                );
            }
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => out.tally.fail(Failure::Shed),
            Err(ClientError::Server { .. }) => out.tally.fail(Failure::ErrorReply),
            Err(_) => {
                out.tally.fail(Failure::Transport);
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// What the churn writer saw.
#[derive(Default)]
pub struct WriteResult {
    /// Latency of every applied write from its scheduled send time, µs.
    pub latencies_us: Vec<f64>,
    /// `insert_with_handle` time inside the shard write lock, µs.
    pub insert_us: Vec<f64>,
    /// `delete` time inside the shard write lock, µs.
    pub delete_us: Vec<f64>,
    /// Wait for the shard write lock, µs.
    pub lock_wait_us: Vec<f64>,
    /// Largest delay of a send past its schedule, µs.
    pub max_lateness_us: f64,
    /// Attempted and failed writes.
    pub tally: Tally,
}

/// Paces writes open-loop at [`WRITE_RATE`] until `until`, each through
/// `ServedShard::with_store_mut` on the shard that owns its handle. The
/// plan advances past every write issued, so it stays the live-set model.
pub fn churn_writer(
    dep: &Deployment,
    plan: &mut ChurnPlan,
    until: Instant,
    mut spans: Option<&mut Trace>,
) -> WriteResult {
    let interval = Duration::from_secs_f64(1.0 / WRITE_RATE);
    let start = Instant::now();
    let mut out = WriteResult::default();
    for i in 0u64.. {
        let scheduled = start + interval * i as u32;
        if scheduled >= until {
            break;
        }
        let now = Instant::now();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        }
        let op = plan.next_op();
        let shard = dep.shard(plan.shard(op.handle()));
        let sent = Instant::now();
        out.max_lateness_us = out
            .max_lateness_us
            .max((sent - scheduled).as_secs_f64() * 1e6);
        let applied = shard.with_store_mut(|st| {
            let locked = Instant::now();
            let r = match &op {
                WriteOp::Insert { h, row } => st.insert_with_handle(*h, row).map(|()| true),
                WriteOp::Delete { h } => st.delete(*h),
            };
            (r, locked, Instant::now())
        });
        let done = Instant::now();
        match applied {
            Some((Ok(true), locked, stored)) => {
                out.tally.ok();
                out.latencies_us
                    .push((done - scheduled).as_secs_f64() * 1e6);
                out.lock_wait_us.push((locked - sent).as_secs_f64() * 1e6);
                let op_us = (stored - locked).as_secs_f64() * 1e6;
                let name = match op {
                    WriteOp::Insert { .. } => {
                        out.insert_us.push(op_us);
                        "durable.insert"
                    }
                    WriteOp::Delete { .. } => {
                        out.delete_us.push(op_us);
                        "durable.delete"
                    }
                };
                if let Some(t) = spans.as_deref_mut() {
                    let req = (1u64 << 62) + i;
                    let root = t.record(req, "client.write", None, sent, done);
                    t.record(req, name, Some(root), locked, stored);
                }
            }
            // A delete of a handle the model holds live found nothing:
            // the store lost a write.
            Some((Ok(false), ..)) => out.tally.fail(Failure::Wrong),
            Some((Err(_), ..)) | None => out.tally.fail(Failure::Transport),
        }
    }
    out
}
