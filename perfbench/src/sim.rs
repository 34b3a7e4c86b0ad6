//! Simulator runs through `ShardedCluster` (one group behaves exactly like
//! `Cluster`): `crash_kv` itself, and the *sim twin* of each threaded
//! workload — the same configuration and seed on `Backend::Sim`, whose
//! virtual-time figures and operation counts repeat bit for bit.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use ubft::core::App;
use ubft::core::PathMode;
use ubft::runtime::memory::MemoryReport;
use ubft::runtime::{RunReport, ShardedCluster, SimConfig};
use ubft::types::Time;

use crate::check;
use crate::trace::{now_ns, payload_digest, ExecSpan, IssueSpan, TimedApp, Trace};
use crate::workload::{leader_crash, Workload, CRASH_AT_MS};

/// Virtual time the replicas get to converge after the last completion.
const SETTLE_US: u64 = 5_000;
/// Virtual time a crash twin runs past the crash: failover takes about
/// 20 ms, so service has long resumed by then.
const AFTER_CRASH_MS: u64 = 40;

/// The outcome of one simulator run.
pub struct SimRun {
    /// Requests asked for.
    pub requested: u64,
    /// The merged report of every group.
    pub report: RunReport,
    /// Memory footprint of the deployment.
    pub memory: MemoryReport,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// From the `ShardedCluster::new` call to the first workload call.
    pub setup: Duration,
    /// Largest minus smallest decided count among live replicas of a group.
    pub exec_lag: u64,
    /// `Err` when the live replicas' state digests disagree.
    pub check: Result<(), String>,
    /// Workload-call spans (traced runs only).
    pub issues: Vec<Vec<IssueSpan>>,
    /// Execute spans (traced runs only).
    pub execs: Vec<Vec<ExecSpan>>,
}

impl SimRun {
    /// The simulator's wall time per completed request, in microseconds.
    pub fn wall_us_per_req(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.report.completed.max(1) as f64
    }
}

/// Runs `requests` requests of `w` in the simulator.
pub fn run(w: Workload, seed: u64, requests: u64, traced: bool) -> SimRun {
    let cfg: SimConfig = w.config(seed);
    let groups = cfg.shards.max(1);
    let n = cfg.params.n();
    let issue_trace = Trace::<IssueSpan>::new(1);
    let exec_trace = Trace::<ExecSpan>::new(groups);
    let first_call: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));

    let make_apps = |g: usize| -> Vec<Box<dyn App>> {
        w.apps(n)
            .into_iter()
            .map(|a| match traced {
                true => Box::new(TimedApp::new(a, exec_trace.recorder(g))) as Box<dyn App>,
                false => a as Box<dyn App>,
            })
            .collect()
    };
    let workload = {
        let first_call = Rc::clone(&first_call);
        let mut source = w.source(seed, None);
        let mut spans = traced.then(|| issue_trace.recorder(0));
        Box::new(move |_| {
            if first_call.get().is_none() {
                first_call.set(Some(now_ns()));
            }
            let payload = source.next_payload();
            if let Some(s) = spans.as_mut() {
                s.push(IssueSpan { at: now_ns(), digest: Some(payload_digest(&payload)) });
            }
            payload
        })
    };

    let launched = now_ns();
    let mut cluster = ShardedCluster::new(cfg.clone(), make_apps, workload);
    let report = cluster.run_until(requests, 0, cfg.stall_deadline(requests)).aggregate;
    let end = now_ns();
    cluster.settle(ubft::types::Duration::from_micros(SETTLE_US));

    let failures = &cfg.failures;
    let live =
        |g: usize| (0..n).filter(move |&r| g != 0 || failures.replica_crash_time(r).is_none());
    let mut check = Ok(());
    let mut exec_lag = 0;
    for g in 0..groups {
        let digests: Vec<_> = live(g).map(|r| cluster.app_digest(g, r)).collect();
        check = check.and(check::check_digests(g, &digests));
        let decided: Vec<u64> = live(g).map(|r| cluster.decided_of(g, r)).collect();
        let lag = decided.iter().max().unwrap_or(&0) - decided.iter().min().unwrap_or(&0);
        exec_lag = exec_lag.max(lag);
    }
    let memory = MemoryReport::measure_sharded(&cluster);
    drop(cluster);

    let setup = Duration::from_nanos(first_call.get().unwrap_or(end) - launched);
    let mut issues = issue_trace.take();
    if let Some(g0) = issues.first_mut() {
        g0.push(IssueSpan { at: end, digest: None });
    }
    SimRun {
        requested: requests,
        report,
        memory,
        wall: Duration::from_nanos(end - launched),
        setup,
        exec_lag,
        check,
        issues,
        execs: exec_trace.take(),
    }
}

/// Builds `w` in the simulator and stops it after one request: the
/// set-up time alone.
pub fn setup_only(w: Workload, seed: u64) -> Duration {
    run(w, seed, 1, false).setup
}

/// The *crash twin* of a failure-free workload: its app, payload and shape
/// on the deployed path (a fast-only deployment has no slow path to fail
/// over with), with the leader of group 0 crashing [`CRASH_AT_MS`] in.
/// Returns the time without service in microseconds of virtual time: with
/// one closed-loop client per group, the largest request latency.
pub fn failover_us(w: Workload, seed: u64) -> Result<f64, String> {
    let mut cfg = w.config(seed);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = leader_crash();
    let n = cfg.params.n();
    let mut source = w.source(seed, None);
    let mut cluster = ShardedCluster::new(
        cfg.clone(),
        |_| w.apps(n).into_iter().map(|a| a as Box<dyn App>).collect(),
        Box::new(move |_| source.next_payload()),
    );
    let end = Time::ZERO + ubft::types::Duration::from_millis(CRASH_AT_MS + AFTER_CRASH_MS);
    let mut latency = cluster.run_until(u64::MAX / 4, 0, end).aggregate.latency;
    resumed(&cfg, &mut latency)
}

/// The largest latency, in microseconds, if it spans a failover: a view
/// change waits at least one progress timeout, so a shorter maximum means
/// no request completed after the crash.
pub fn resumed(cfg: &SimConfig, latency: &mut ubft::sim::LatencyStats) -> Result<f64, String> {
    let max = if latency.is_empty() { ubft::types::Duration::ZERO } else { latency.max() };
    if max < cfg.progress_timeout {
        return Err(format!("no request completed after the leader crash (longest {max})"));
    }
    Ok(max.as_micros_f64())
}
