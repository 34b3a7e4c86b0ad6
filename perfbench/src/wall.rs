//! Wall-clock runs on `Backend::Threads`, driven through
//! `run_wallclock`: the benchmark owns only the apps and the workload
//! closures, and times everything from those two hooks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ubft::core::App;
use ubft::runtime::{run_wallclock, ThreadWorkload, WallOptions, WallReport};

use crate::trace::{now_ns, payload_digest, ExecSpan, IssueSpan, TimedApp, Trace};
use crate::workload::Workload;

/// Leading completions left out of the latency distribution.
const WARMUP: u64 = 500;
/// Time allowed after the last issue for the in-flight request to finish.
const GRACE: Duration = Duration::from_millis(150);
/// Time after that for lagging replicas to drain before their logs are read.
const SETTLE: Duration = Duration::from_millis(100);
/// Issuing budget of the fixed-size run: about ten times its length, it
/// only ends a run that stalls.
const STALL_BUDGET: Duration = Duration::from_secs(20);
/// The same for a set-up-only launch, whose one request takes microseconds.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Workload-call bookkeeping of one group, shared with its closure.
#[derive(Default)]
struct GroupTally {
    issued: AtomicU64,
    first: OnceLock<u64>,
    stop: OnceLock<u64>,
}

/// The outcome of one threaded run.
pub struct WallRun {
    /// What the runtime reported.
    pub report: WallReport,
    /// Requests handed to the clients.
    pub issued: u64,
    /// Completions per second, in thousands, over each group's issuing
    /// interval.
    pub kreq_s: f64,
    /// From the `run_wallclock` call to the first workload call.
    pub setup: Duration,
    /// Workload-call spans per group (traced runs only).
    pub issues: Vec<Vec<IssueSpan>>,
    /// Execute spans per group (traced runs only).
    pub execs: Vec<Vec<ExecSpan>>,
}

/// Runs `w` closed-loop for `budget` of issuing, then lets the last
/// request finish and the replicas drain. With `traced`, every workload
/// call and every execute is recorded as a span.
pub fn run(w: Workload, seed: u64, budget: Duration, traced: bool) -> WallRun {
    launch(w, seed, budget, u64::MAX, SETTLE, traced)
}

/// Runs `w` closed-loop for exactly `per_group` requests per group: a
/// fixed amount of work, whatever the speed of the host.
pub fn run_requests(w: Workload, seed: u64, per_group: u64) -> WallRun {
    launch(w, seed, STALL_BUDGET, per_group, SETTLE, false)
}

/// Launches `w` and stops it after one request per group: the set-up time
/// alone, with nothing measured after it.
pub fn setup_only(w: Workload, seed: u64) -> Duration {
    launch(w, seed, SETUP_BUDGET, 1, Duration::ZERO, false).setup
}

/// Launches `w`; each group's client issues until `budget` has passed
/// since the first issue or it has issued `cap` requests.
fn launch(
    w: Workload,
    seed: u64,
    budget: Duration,
    cap: u64,
    settle: Duration,
    traced: bool,
) -> WallRun {
    let cfg = w.config(seed).with_backend(ubft::runtime::Backend::Threads);
    let groups = cfg.shards.max(1);
    let n = cfg.params.n();
    let start: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
    let tallies: Arc<Vec<GroupTally>> = Arc::new((0..groups).map(|_| Default::default()).collect());
    let issue_trace = Trace::<IssueSpan>::new(groups);
    let exec_trace = Trace::<ExecSpan>::new(groups);
    let budget_ns = budget.as_nanos() as u64;

    let make_apps = |g: usize| -> Vec<Box<dyn App + Send>> {
        let apps = w.apps(n);
        if !traced {
            return apps;
        }
        apps.into_iter()
            .map(|a| Box::new(TimedApp::new(a, exec_trace.recorder(g))) as Box<dyn App + Send>)
            .collect()
    };
    let make_workload = |g: usize| -> ThreadWorkload {
        let start = Arc::clone(&start);
        let tallies = Arc::clone(&tallies);
        let mut source = w.source(seed, (groups > 1).then_some((g, groups)));
        let mut spans = traced.then(|| issue_trace.recorder(g));
        Box::new(move |_| {
            let now = now_ns();
            let t0 = *start.get_or_init(|| now);
            let tally = &tallies[g];
            tally.first.get_or_init(|| now);
            if now >= t0 + budget_ns || tally.issued.load(Ordering::Relaxed) >= cap {
                if tally.stop.set(now).is_ok() {
                    if let Some(s) = spans.as_mut() {
                        s.push(IssueSpan { at: now, digest: None });
                    }
                }
                return None;
            }
            let payload = source.next_payload();
            tally.issued.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = spans.as_mut() {
                s.push(IssueSpan { at: now_ns(), digest: Some(payload_digest(&payload)) });
            }
            Some(payload)
        })
    };
    let capped = cap != u64::MAX;
    let opts = WallOptions {
        requests: if capped { cap * groups as u64 } else { u64::MAX / 4 },
        warmup: if capped { 0 } else { WARMUP },
        deadline: budget + GRACE,
        settle,
    };

    let launched = now_ns();
    let report = run_wallclock(&cfg, make_apps, make_workload, &opts);
    let end = now_ns();

    let setup = Duration::from_nanos(start.get().map_or(end, |&t| t) - launched);
    let mut kreq_s = 0.0;
    for (tally, group) in tallies.iter().zip(&report.groups) {
        let Some(&first) = tally.first.get() else { continue };
        let stop = tally.stop.get().copied().unwrap_or(end);
        if stop > first {
            kreq_s += group.completed as f64 / ((stop - first) as f64 / 1e9) / 1e3;
        }
    }
    let issued = tallies.iter().map(|t| t.issued.load(Ordering::Relaxed)).sum();
    WallRun { report, issued, kreq_s, setup, issues: issue_trace.take(), execs: exec_trace.take() }
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
