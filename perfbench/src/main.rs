//! The uBFT repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fast_flip --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives the stack from outside: `run_wallclock` for the threaded
//! workloads, `ShardedCluster` for the simulator. It times only calls into
//! public functions plus the two hooks a caller owns, the `App` instances
//! and the workload closures. Load is closed-loop: one client per group,
//! issuing its next request when the previous one completes. The threaded
//! workloads inject no message delay, so their latency is CPU time plus
//! thread wake-ups; the simulator uses the paper's testbed latency model.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` prints the end-to-end metrics, from untraced runs;
//! `--trace 1` prints the per-layer metrics, from a traced run, layer
//! microbenchmarks and the simulator. Every metric is printed on every
//! workload; where a metric has no natural source on a workload its
//! nearest one is used (see `README.md`).

mod check;
mod micro;
mod sim;
mod trace;
mod wall;
mod workload;

use std::time::Duration;

use ubft::sim::LatencyStats;

use crate::workload::Workload;

/// Extra set-ups per run, besides the measured runs' own; `setup_s` is the
/// median of all of them.
const SETUP_REPEATS: usize = 20;
/// Fresh deployments per threaded measurement, so that one unlucky
/// placement of threads on cores moves the figures less.
const SLICES: u32 = 5;
/// Requests of the fixed-size threaded run whose peak memory is reported.
const RSS_REQUESTS: u64 = 10_000;
/// Requests of each sim twin.
const TWIN_REQUESTS: u64 = 4_000;
/// Requests of `crash_kv` per second of `--seconds`.
const CRASH_REQUESTS_PER_S: u64 = 600;
/// Untraced/traced deployment pairs of a threaded `--trace 1` run.
const TRACE_PAIRS: u32 = 3;
/// Round trips of the transport microbenchmark.
const HOP_ROUND_TRIPS: usize = 5_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    let name = get("--workload")?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// The result line of one run.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    completed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome { problems: Vec::new(), attempted: 0, completed: 0, metrics: Vec::new() }
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    fn count(&mut self, attempted: u64, completed: u64) {
        self.attempted += attempted;
        self.completed += completed.min(attempted);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Requests that did not complete; all of them when a check failed.
    fn failed(&self) -> u64 {
        match self.problems.is_empty() {
            true => self.attempted - self.completed,
            false => self.attempted,
        }
    }

    fn completed_frac(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn stats_ns(samples: &[u64]) -> LatencyStats {
    let mut s = LatencyStats::new();
    for &ns in samples {
        s.record(ubft::types::Duration::from_nanos(ns));
    }
    s
}

/// The `p`-th percentile in microseconds; 0 when there are no samples.
fn pct_us(s: &mut LatencyStats, p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s.percentile(p).as_micros_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// The median set-up time over the measured runs' own set-ups and
/// [`SETUP_REPEATS`] more.
fn setup_s(w: Workload, seed: u64, measured: impl Iterator<Item = Duration>) -> f64 {
    let extra = (0..SETUP_REPEATS).map(|_| match w.threaded() {
        true => wall::setup_only(w, seed),
        false => sim::setup_only(w, seed),
    });
    median(measured.chain(extra).map(|d| d.as_secs_f64()).collect())
}

/// Checks a simulator run and counts its requests.
fn account_sim(out: &mut Outcome, run: &sim::SimRun) {
    out.check(run.check.clone());
    out.count(run.requested, run.report.completed);
}

/// Checks a threaded run and counts its requests.
fn account_wall(out: &mut Outcome, run: &wall::WallRun) {
    for (g, group) in run.report.groups.iter().enumerate() {
        out.check(check::check_group(g, group));
    }
    out.count(run.issued, run.report.completed);
}

/// The virtual-time and memory figures of a simulator run, and the
/// failover time measured on it or on a crash twin.
fn sim_end_to_end(out: &mut Outcome, run: &sim::SimRun, failover: Result<f64, String>) {
    let mut vt = run.report.latency.clone();
    out.metric("vt_p50_us", pct_us(&mut vt, 50.0), "us");
    out.metric("vt_p99_us", pct_us(&mut vt, 99.0), "us");
    out.metric("failover_us", failover.clone().unwrap_or(0.0), "us");
    out.check(failover.map(|_| ()));
    out.metric("disagg_kib", run.memory.disagg_bytes_per_node as f64 / 1024.0, "KiB");
    out.metric("replica_kib", run.memory.replica_local_bytes as f64 / 1024.0, "KiB");
}

/// The operation counts of a simulator run, per completed request.
fn sim_per_layer(out: &mut Outcome, run: &sim::SimRun) {
    let c = run.report.counters;
    let done = run.report.completed.max(1) as f64;
    let msgs = c.rpc_msgs + c.ctb_msgs + c.cons_msgs + c.direct_msgs;
    out.metric("sim.msgs_per_req", msgs as f64 / done, "count");
    out.metric("sim.signs_per_req", (c.ctb_signs + c.engine_signs) as f64 / done, "count");
    out.metric("sim.verifies_per_req", (c.ctb_verifies + c.engine_verifies) as f64 / done, "count");
    out.metric("sim.reg_ops_per_req", (c.reg_writes + c.reg_reads) as f64 / done, "count");
    out.metric("sim.wall_us_per_req", run.wall_us_per_req(), "us");
}

fn crash_requests(seconds: u64) -> u64 {
    CRASH_REQUESTS_PER_S * seconds
}

/// Median over runs of a figure of each run.
fn median_of<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(runs.iter().map(f).collect())
}

fn p50_us(run: &wall::WallRun) -> f64 {
    pct_us(&mut run.report.latency.clone(), 50.0)
}

fn end_to_end(args: &Args) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    let cfg = w.config(seed);
    let mut out = Outcome::new();
    if w.threaded() {
        let sized = wall::run_requests(w, seed, RSS_REQUESTS / cfg.shards as u64);
        let rss = wall::peak_rss_mib();
        let slice = Duration::from_secs(args.seconds) / SLICES;
        let runs: Vec<wall::WallRun> =
            (0..SLICES).map(|_| wall::run(w, seed, slice, false)).collect();
        let twin = sim::run(w, seed, TWIN_REQUESTS, false);
        for run in std::iter::once(&sized).chain(&runs) {
            account_wall(&mut out, run);
        }
        account_sim(&mut out, &twin);
        let mut latency = LatencyStats::new();
        for run in &runs {
            latency.absorb(run.report.latency.clone());
        }
        out.metric("p50_us", pct_us(&mut latency, 50.0), "us");
        out.metric("p99_us", pct_us(&mut latency, 99.0), "us");
        out.metric("kreq_s", median_of(&runs, |r| r.kreq_s), "kreq/s");
        out.metric("setup_s", setup_s(w, seed, runs.iter().map(|r| r.setup)), "s");
        out.metric("peak_rss_mib", rss, "MiB");
        sim_end_to_end(&mut out, &twin, sim::failover_us(w, seed));
    } else {
        let run = sim::run(w, seed, crash_requests(args.seconds), false);
        let rss = wall::peak_rss_mib();
        account_sim(&mut out, &run);
        // The deployment runs in virtual time only: its latency and
        // throughput are virtual, like the `vt_*` figures.
        let mut vt = run.report.latency.clone();
        out.metric("p50_us", pct_us(&mut vt, 50.0), "us");
        out.metric("p99_us", pct_us(&mut vt, 99.0), "us");
        let virtual_s = run.report.end.as_nanos() as f64 / 1e9;
        out.metric("kreq_s", run.report.completed as f64 / virtual_s / 1e3, "kreq/s");
        out.metric("setup_s", setup_s(w, seed, [run.setup].into_iter()), "s");
        out.metric("peak_rss_mib", rss, "MiB");
        let failover = sim::resumed(&cfg, &mut run.report.latency.clone());
        sim_end_to_end(&mut out, &run, failover);
    }
    let frac = out.completed_frac();
    out.metric("completed_frac", frac, "ratio");
    out
}

/// Microbenchmarks of every layer, on `w`'s payload.
fn layer_micro(out: &mut Outcome, w: Workload, seed: u64) {
    let cfg = w.config(seed);
    let payload = w.source(seed, None).next_payload();
    let mut hops = stats_ns(&micro::transport_hops(payload.len(), HOP_ROUND_TRIPS));
    out.metric("transport.hop_p50_us", pct_us(&mut hops, 50.0), "us");
    out.metric("transport.hop_p99_us", pct_us(&mut hops, 99.0), "us");
    let (sign, verify) = micro::crypto(seed, &payload, 200);
    out.metric("crypto.sign_ns", sign, "ns");
    out.metric("crypto.verify_ns", verify, "ns");
    out.metric("core.codec_ns", micro::codec(&payload, 2_000), "ns");
    out.metric("ctb.tb_ns", micro::tail_broadcast(&cfg, &payload, 1_000), "ns");
    let (write, read) = micro::registers(&cfg, seed, 1_000);
    out.metric("dmem.write_ns", write, "ns");
    out.metric("dmem.read_ns", read, "ns");
}

/// The segment and app metrics of a traced run.
fn trace_metrics(
    out: &mut Outcome,
    issues: &[Vec<trace::IssueSpan>],
    execs: &[Vec<trace::ExecSpan>],
    quorum: usize,
    completed: u64,
) {
    let segs = trace::segments(issues, execs, quorum);
    let mut order = stats_ns(&segs.order);
    let mut reply = stats_ns(&segs.reply);
    let mut exec = stats_ns(&segs.exec);
    let executes = execs.iter().map(Vec::len).sum::<usize>();
    out.metric("order.p50_us", pct_us(&mut order, 50.0), "us");
    out.metric("order.p99_us", pct_us(&mut order, 99.0), "us");
    out.metric("reply.p50_us", pct_us(&mut reply, 50.0), "us");
    out.metric("apps.exec_ns", pct_us(&mut exec, 50.0) * 1e3, "ns");
    out.metric("apps.exec_per_req", executes as f64 / completed.max(1) as f64, "count");
    // A completed request was answered by f + 1 replicas, so each must
    // have executed it before the client issued its next request.
    out.check(match segs.unlinked {
        0 => Ok(()),
        n => Err(format!("{n} requests completed without a quorum of executes")),
    });
}

fn per_layer(args: &Args) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    let quorum = w.config(seed).params.quorum();
    let mut out = Outcome::new();
    if w.threaded() {
        // Untraced and traced deployments alternate, so both see the
        // same host conditions.
        let slice = Duration::from_secs(args.seconds) / (2 * TRACE_PAIRS);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..TRACE_PAIRS {
            plain.push(wall::run(w, seed, slice, false));
            traced.push(wall::run(w, seed, slice, true));
        }
        let twin = sim::run(w, seed, TWIN_REQUESTS, false);
        for run in plain.iter().chain(&traced) {
            account_wall(&mut out, run);
        }
        account_sim(&mut out, &twin);
        let overhead = median_of(&traced, p50_us) - median_of(&plain, p50_us);
        out.metric("trace.overhead_us", overhead, "us");
        // The traced runs do not overlap in time, so their spans pool.
        let groups = traced[0].issues.len();
        let issues: Vec<Vec<_>> = (0..groups)
            .map(|g| traced.iter().flat_map(|r| r.issues[g].clone()).collect())
            .collect();
        let execs: Vec<Vec<_>> =
            (0..groups).map(|g| traced.iter().flat_map(|r| r.execs[g].clone()).collect()).collect();
        let completed = traced.iter().map(|r| r.report.completed).sum();
        trace_metrics(&mut out, &issues, &execs, quorum, completed);
        let reports = traced.iter().flat_map(|r| &r.report.groups);
        let views = reports.clone().map(|g| g.replicas.iter().map(|r| r.final_view).max());
        out.metric("runtime.view_changes", views.flatten().sum::<u64>() as f64, "count");
        let misses: u64 =
            reports.clone().flat_map(|g| &g.replicas).map(|r| r.transfer_misses).sum();
        out.metric("runtime.transfer_misses", misses as f64, "count");
        let lag = reports.map(|g| {
            let lens = g.replicas.iter().map(|r| r.executed.len());
            lens.clone().max().unwrap_or(0) - lens.min().unwrap_or(0)
        });
        out.metric("runtime.exec_lag", lag.max().unwrap_or(0) as f64, "count");
        sim_per_layer(&mut out, &twin);
    } else {
        let requests = crash_requests(args.seconds);
        let plain = sim::run(w, seed, requests, false);
        let traced = sim::run(w, seed, requests, true);
        account_sim(&mut out, &plain);
        account_sim(&mut out, &traced);
        let same = plain.report.latency.clone().sorted_samples()
            == traced.report.latency.clone().sorted_samples()
            && plain.report.counters == traced.report.counters;
        out.check(match same {
            true => Ok(()),
            false => Err("tracing changed the simulated run".into()),
        });
        // Tracing leaves virtual time unchanged (checked above); its cost
        // is the simulator's wall time per request.
        out.metric("trace.overhead_us", traced.wall_us_per_req() - plain.wall_us_per_req(), "us");
        trace_metrics(&mut out, &traced.issues, &traced.execs, quorum, traced.report.completed);
        let views = traced.report.views.iter().map(|v| v.0).max().unwrap_or(0);
        out.metric("runtime.view_changes", views as f64, "count");
        // The simulator keeps checkpoint snapshots, so it serves every
        // state transfer: no misses by construction.
        out.metric("runtime.transfer_misses", 0.0, "count");
        out.metric("runtime.exec_lag", traced.exec_lag as f64, "count");
        sim_per_layer(&mut out, &plain);
    }
    layer_micro(&mut out, w, seed);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fast_flip|sharded_kv|slow_kv|crash_kv> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", out.to_json());
}
