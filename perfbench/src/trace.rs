//! Outside-only tracing: spans recorded at the two hooks a caller owns —
//! each workload call (a request issue) and each `App::execute` on each
//! replica — kept in memory and handed over when their owner is dropped.
//!
//! A span is linked to its request by a digest of the payload. Each group
//! has one closed-loop client, so request `i` of a group completes just
//! before that group's next workload call; that splits every request into
//! three segments with no change to the program:
//!
//! * `order`: from the issue to the start of the quorum-completing execute;
//! * `exec`: that execute itself;
//! * `reply`: from its end to the next issue.
//!
//! The quorum-completing execute is the `f + 1`-th to *finish* among the
//! group's replicas, since its reply is the one the client waits for.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ubft::apps::router::fnv1a;
use ubft::core::App;
use ubft::crypto::Digest;
use ubft::types::Duration;

/// Nanoseconds since the first call in this process: one clock shared by
/// every thread, so spans from different threads compare directly.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The payload digest linking spans to a request.
pub fn payload_digest(payload: &[u8]) -> u64 {
    fnv1a(payload)
}

/// A request issue: when it happened and which payload it carried.
#[derive(Clone, Copy, Debug)]
pub struct IssueSpan {
    /// Issue time ([`now_ns`]).
    pub at: u64,
    /// [`payload_digest`] of the request; `None` marks the workload call
    /// that ended the run, which closes the last request's `reply`.
    pub digest: Option<u64>,
}

/// One `App::execute` call on one replica.
#[derive(Clone, Copy, Debug)]
pub struct ExecSpan {
    /// [`payload_digest`] of the executed request.
    pub digest: u64,
    /// Start ([`now_ns`]).
    pub start: u64,
    /// End ([`now_ns`]).
    pub end: u64,
}

/// Spans of one run, per group.
pub struct Trace<T> {
    groups: Mutex<Vec<Vec<T>>>,
}

impl<T> Trace<T> {
    /// An empty trace of `groups` groups.
    pub fn new(groups: usize) -> Arc<Self> {
        Arc::new(Trace { groups: Mutex::new((0..groups).map(|_| Vec::new()).collect()) })
    }

    /// A recorder for `group`; its spans join the trace when it is dropped.
    pub fn recorder(self: &Arc<Self>, group: usize) -> Recorder<T> {
        Recorder { trace: Arc::clone(self), group, spans: Vec::with_capacity(1 << 16) }
    }

    /// Every recorded span of each group.
    pub fn take(&self) -> Vec<Vec<T>> {
        std::mem::take(&mut *self.groups.lock().expect("trace lock poisoned"))
    }
}

/// Records spans locally, without locking, and hands them to its
/// [`Trace`] on drop.
pub struct Recorder<T> {
    trace: Arc<Trace<T>>,
    group: usize,
    spans: Vec<T>,
}

impl<T> Recorder<T> {
    /// Records one span.
    pub fn push(&mut self, span: T) {
        self.spans.push(span);
    }
}

impl<T> Drop for Recorder<T> {
    fn drop(&mut self) {
        if let Ok(mut groups) = self.trace.groups.lock() {
            groups[self.group].append(&mut self.spans);
        }
    }
}

/// An `App` that times each `execute` of the app it wraps and forwards
/// every other call unchanged, so the run it observes is the same run.
pub struct TimedApp {
    inner: Box<dyn App + Send>,
    spans: Recorder<ExecSpan>,
}

impl TimedApp {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: Box<dyn App + Send>, spans: Recorder<ExecSpan>) -> Self {
        TimedApp { inner, spans }
    }
}

impl App for TimedApp {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        let start = now_ns();
        let out = self.inner.execute(request);
        let end = now_ns();
        self.spans.push(ExecSpan { digest: payload_digest(request), start, end });
        out
    }
    fn snapshot_digest(&self) -> Digest {
        self.inner.snapshot_digest()
    }
    fn snapshot_bytes(&self) -> Vec<u8> {
        self.inner.snapshot_bytes()
    }
    fn restore_bytes(&mut self, bytes: &[u8]) {
        self.inner.restore_bytes(bytes)
    }
    fn execute_cost(&self, request: &[u8]) -> Duration {
        self.inner.execute_cost(request)
    }
    fn sequential_model(&self) -> Option<Box<dyn App>> {
        self.inner.sequential_model()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-request segments of one traced run, in nanoseconds.
#[derive(Debug, Default)]
pub struct Segments {
    /// Issue → start of the quorum-completing execute.
    pub order: Vec<u64>,
    /// The quorum-completing execute.
    pub exec: Vec<u64>,
    /// End of that execute → next issue.
    pub reply: Vec<u64>,
    /// Requests for which fewer than `quorum` executes were found.
    pub unlinked: u64,
}

/// Splits each group's requests into segments. `issues[g]` are group
/// `g`'s workload calls in call order; `execs[g]` every execute span of
/// its replicas. Request `i` owns the executes of its digest that start
/// between its issue and the next one.
pub fn segments(issues: &[Vec<IssueSpan>], execs: &[Vec<ExecSpan>], quorum: usize) -> Segments {
    let mut out = Segments::default();
    for (calls, spans) in issues.iter().zip(execs) {
        let mut by_digest: HashMap<u64, Vec<ExecSpan>> = HashMap::new();
        for s in spans {
            by_digest.entry(s.digest).or_default().push(*s);
        }
        for v in by_digest.values_mut() {
            v.sort_by_key(|s| s.start);
        }
        for (i, call) in calls.iter().enumerate() {
            let Some(digest) = call.digest else { continue };
            let next = calls.get(i + 1).map_or(u64::MAX, |c| c.at);
            let Some(cands) = by_digest.get(&digest) else {
                out.unlinked += 1;
                continue;
            };
            let from = cands.partition_point(|s| s.start < call.at);
            let to = cands.partition_point(|s| s.start < next);
            let mut mine: Vec<ExecSpan> = cands[from..to].to_vec();
            if mine.len() < quorum {
                out.unlinked += 1;
                continue;
            }
            mine.sort_by_key(|s| s.end);
            let q = mine[quorum - 1];
            out.order.push(q.start - call.at);
            out.exec.push(q.end - q.start);
            if next != u64::MAX {
                out.reply.push(next.saturating_sub(q.end));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(at: u64, digest: u64) -> IssueSpan {
        IssueSpan { at, digest: Some(digest) }
    }

    fn exec(digest: u64, start: u64, end: u64) -> ExecSpan {
        ExecSpan { digest, start, end }
    }

    #[test]
    fn segments_use_the_quorum_completing_execute() {
        // Two requests with the same payload digest, told apart by time.
        let issues = vec![vec![issue(0, 7), issue(100, 7), IssueSpan { at: 200, digest: None }]];
        let execs = vec![vec![
            exec(7, 10, 20),
            exec(7, 12, 15),
            exec(7, 11, 90),
            exec(7, 110, 120),
            exec(7, 130, 140),
        ]];
        let s = segments(&issues, &execs, 2);
        assert_eq!(s.unlinked, 0);
        // Request 0: executes end at 15, 20, 90 — the second to finish
        // started at 10 and ended at 20.
        assert_eq!(s.order, vec![10, 30]);
        assert_eq!(s.exec, vec![10, 10]);
        assert_eq!(s.reply, vec![80, 60]);
    }

    #[test]
    fn a_request_short_of_a_quorum_is_unlinked() {
        let issues = vec![vec![issue(0, 1), issue(50, 2)]];
        let execs = vec![vec![exec(1, 5, 6), exec(2, 55, 56), exec(2, 57, 58)]];
        let s = segments(&issues, &execs, 2);
        assert_eq!(s.unlinked, 1);
        assert_eq!(s.order, vec![7]);
        assert!(s.reply.is_empty());
    }
}
