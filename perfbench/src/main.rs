//! The served top-k benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one traffic mix (see `README.md` in this directory) against the
//! real server over loopback TCP, checks a seeded sample of the served
//! answers against a brute-force oracle, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A line before it
//! carries the run's provenance. Exits 1 when an answer is wrong, 2 on a
//! usage error.

mod churn;
mod deploy;
mod host;
mod layers;
mod load;
mod stats;
mod trace;

use churn::ChurnPlan;
use deploy::{Deployment, Kind, SetupTimes, D, DATA_SEED, K, N};
use drtopk_common::{Distribution, Weights, WorkloadSpec};
use load::{closed_loop, LoopResult, Source, WriteResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{median, percentile, sorted, Failure, Tally};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop load before the timed loop: lets caches fill and lazy
/// set-up finish.
const WARMUP: Duration = Duration::from_secs(1);
/// Seeded queries checked against the oracle after `sharded-churn`'s
/// writer has stopped.
const CHURN_CHECKS: usize = 200;
/// Every other churn check asks for this many answers: a random insert or
/// delete almost never reaches a top-10, but each top-1000 holds a few of
/// them, so a lost or stale write shows in the comparison.
const CHURN_CHECK_WIDE_K: usize = 1000;
/// Where runs keep their stores and write their spans, inside the
/// checkout they run from.
const OUT_DIR: &str = ".perfbench";

/// One named number with its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric as measured.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The timed loop's outcome: queries split by tracing, plus the writer.
struct Timed {
    untraced: LoopResult,
    traced: LoopResult,
    writes: Option<WriteResult>,
}

/// Runs the query connections (and, for `sharded-churn`, the writer) for
/// `seconds`. A traced run alternates untraced and traced quarters, so
/// both see the same warm state and `trace.overhead_pct` compares them.
fn timed_loop(
    args: &Args,
    dep: &Deployment,
    sources: &mut [Source],
    plan: Option<&mut ChurnPlan>,
    trace: &mut Option<Trace>,
) -> Timed {
    let total = Duration::from_secs_f64(args.seconds);
    let until = Instant::now() + total;
    let segments: &[bool] = if args.trace {
        &[false, true, false, true]
    } else {
        &[false]
    };
    let epoch = trace.as_ref().map(Trace::epoch);
    std::thread::scope(|scope| {
        let writer = plan.map(|plan| {
            scope.spawn(move || {
                let mut spans = epoch.map(Trace::with_epoch);
                let w = load::churn_writer(dep, plan, until, spans.as_mut());
                (w, spans)
            })
        });
        let mut untraced = LoopResult::default();
        let mut traced = LoopResult::default();
        let seg = total / segments.len() as u32;
        for (i, &traced_seg) in segments.iter().enumerate() {
            let t = if traced_seg { trace.as_mut() } else { None };
            let r = closed_loop(
                dep.server.addr(),
                sources,
                seg,
                args.seed ^ (0x5A17 + i as u64),
                t,
                (i as u64) << 40,
            );
            if traced_seg {
                traced.absorb(r);
            } else {
                untraced.absorb(r);
            }
        }
        let writes = writer.map(|h| {
            let (w, spans) = h.join().expect("churn writer thread");
            if let (Some(t), Some(s)) = (trace.as_mut(), spans) {
                t.absorb(s);
            }
            w
        });
        Timed {
            untraced,
            traced,
            writes,
        }
    })
}

/// Compares sampled served answers with the brute-force oracle; a
/// mismatch turns the sampled success into a `Wrong` failure.
fn check_static(rel: &drtopk_common::Relation, result: &LoopResult, tally: &mut Tally) -> usize {
    for (w, ids) in &result.samples {
        let want: Vec<u64> = drtopk_common::topk_bruteforce(rel, w, K)
            .into_iter()
            .map(u64::from)
            .collect();
        if *ids != want {
            eprintln!(
                "perfbench: wrong answer for {:?}: got {ids:?}, want {want:?}",
                w.as_slice()
            );
            tally.demote(Failure::Wrong);
        }
    }
    result.samples.len()
}

/// After the writer stopped and every query answered: seeded queries
/// through the server, each compared with the oracle over the live set.
fn check_churn(dep: &Deployment, plan: &ChurnPlan, seed: u64, tally: &mut Tally) -> usize {
    let (live, handles) = plan.live_relation();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let Ok(mut client) = drtopk_server::Client::connect(dep.server.addr()) else {
        tally.fail(Failure::Transport);
        return 0;
    };
    for i in 0..CHURN_CHECKS {
        let w = Weights::random(D, &mut rng);
        let k = if i % 2 == 0 { K } else { CHURN_CHECK_WIDE_K };
        match client.query(w.as_slice(), k as u32, 0, 0) {
            Ok(r) if !r.is_full_coverage() => tally.fail(Failure::Degraded),
            Ok(r) if r.truncated != 0 => tally.fail(Failure::Truncated),
            Ok(r) => {
                let want = churn::oracle(&live, &handles, &w, k);
                if r.ids == want {
                    tally.ok();
                } else {
                    let at = r.ids.iter().zip(&want).take_while(|(a, b)| a == b).count();
                    eprintln!(
                        "perfbench: wrong answer after churn for {:?}, k = {k}: rank {at} is {:?}, \
                         want {:?}",
                        w.as_slice(),
                        r.ids.get(at),
                        want.get(at)
                    );
                    tally.fail(Failure::Wrong);
                }
            }
            Err(_) => tally.fail(Failure::Transport),
        }
    }
    CHURN_CHECKS
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let kind = args.kind;
    let rel = WorkloadSpec::new(Distribution::Independent, D, N, DATA_SEED).generate();

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut dep: Option<Deployment> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(old) = dep.take() {
            old.stop();
        }
        let d = Deployment::start(kind, &rel, &work.join(format!("store-{i}")))?;
        setups.push(d.times);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");

    let mut sources = Source::for_workload(kind, args.seed);
    closed_loop(dep.server.addr(), &mut sources, WARMUP, args.seed, None, 0);

    let mut trace = args.trace.then(Trace::new);
    let mut plan =
        (kind == Kind::ShardedChurn).then(|| ChurnPlan::new(&rel, kind.shards(), args.seed));
    let store_root = dep.store_dir.clone().unwrap_or_default();
    let wal_before = layers::wal_bytes(&store_root);
    let before = layers::scrape(&dep)?;
    let timed = timed_loop(args, &dep, &mut sources, plan.as_mut(), &mut trace);
    let after = layers::scrape(&dep)?;
    let wal_after = layers::wal_bytes(&store_root);

    let mut tally = timed.untraced.tally.clone();
    tally.absorb(&timed.traced.tally);
    if let Some(w) = &timed.writes {
        tally.absorb(&w.tally);
    }
    let checked = match &plan {
        Some(plan) => check_churn(&dep, plan, args.seed, &mut tally),
        None => {
            check_static(&rel, &timed.untraced, &mut tally)
                + check_static(&rel, &timed.traced, &mut tally)
        }
    };
    // End-to-end numbers always come from the untraced load.
    let all = &timed.untraced;
    let lat = sorted(&all.latencies_us());

    let peak_rss_mb = host::peak_rss_mb();
    let stream = host::stream_gb_per_s();

    let metrics = if let Some(trace) = trace.as_mut() {
        let obs = layers::Observed {
            rel: &rel,
            requests: &timed.traced.requests,
            before: &before,
            after: &after,
            p50_us: percentile(&lat, 0.5),
            qps_untraced: all.qps(),
            qps_traced: timed.traced.qps(),
            writes: timed.writes.as_ref(),
            wal_bytes: (wal_before, wal_after),
            setups: &setups,
            error_rate: tally.error_rate(),
            stream_gb_per_s: stream,
        };
        layers::measure(&dep, &obs, trace)
    } else {
        // Medians over the loop's one-second windows: a burst of noise
        // from outside the program moves one window, not the result.
        let windows = all.full_windows();
        let per_window =
            |f: &dyn Fn(&load::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        let window_s = load::WINDOW.as_secs_f64().min(all.seconds);
        // A window in which no query was answered is as slow as a window
        // can be, not one with no latency.
        let pct = |q: f64| {
            move |w: &load::Window| match w.answered {
                0 => f64::INFINITY,
                _ => percentile(&sorted(&w.sample_us), q),
            }
        };
        vec![
            Metric::new("qps", per_window(&|w| w.answered as f64 / window_s), "1/s"),
            Metric::new("p50_us", per_window(&pct(0.5)), "us"),
            Metric::new("p99_us", per_window(&pct(0.99)), "us"),
            Metric::new(
                "cost_per_query",
                all.evaluated as f64 / all.answered.max(1) as f64,
                "tuples",
            ),
            Metric::new(
                "setup_s",
                median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    dep.stop();

    let mut spans_file = String::new();
    if let Some(trace) = &trace {
        // One file per workload, replaced by each traced run.
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{}.jsonl", kind.name()));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        spans_file = path.display().to_string();
    }

    let window_qps: Vec<String> = timed
        .untraced
        .full_windows()
        .iter()
        .map(|w| w.answered.to_string())
        .collect();
    let window_pct = |q: f64| -> Vec<String> {
        timed
            .untraced
            .full_windows()
            .iter()
            .map(|w| format!("{:.2}", percentile(&sorted(&w.sample_us), q)))
            .collect()
    };
    let writes = timed.writes.as_ref();
    let write_samples = writes.map_or(0, |w| w.latencies_us.len());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_commit\": \"{}\", \"available_parallelism\": {}, \"host.stream_gb_per_s\": {}, \
         \"n\": {N}, \"d\": {D}, \"k\": {K}, \"data_seed\": {DATA_SEED}, \"query_connections\": {}, \"shards\": {}, \
         \"flush_policy\": \"{}\", \"latency_samples\": {}, \"answered_per_window\": [{}], \"p50_us_per_window\": [{}], \"p99_us_per_window\": [{}], \"write_samples\": {}, \"replayed_requests\": {}, \
         \"writer_max_lateness_us\": {}, \"setup_runs\": {SETUP_REPEATS}, \"oracle_checked\": {checked}, \
         \"failures_by_kind\": {{\"transport\": {}, \"error_reply\": {}, \"shed\": {}, \"degraded\": {}, \
         \"truncated\": {}, \"wrong\": {}}}, \"spans\": \"{spans_file}\"}}}}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_commit(),
        host::available_parallelism(),
        stream,
        kind.query_connections(),
        kind.shards(),
        if kind.shards() > 0 {
            "fsync every WAL append, no automatic checkpoint (DurableOptions::default)"
        } else {
            "none (static index)"
        },
        lat.len(),
        window_qps.join(", "),
        window_pct(0.5).join(", "),
        window_pct(0.99).join(", "),
        write_samples,
        timed.traced.requests.len().min(layers::REPLAY),
        writes.map_or(0.0, |w| w.max_lateness_us),
        tally.by_kind[0],
        tally.by_kind[1],
        tally.by_kind[2],
        tally.by_kind[3],
        tally.by_kind[4],
        tally.by_kind[5],
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = !tally.any_wrong();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}
