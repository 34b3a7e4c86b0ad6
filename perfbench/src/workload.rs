//! The four workloads: deployment shape, application, and the seeded
//! request stream each one drives.

use ubft::apps::workload::{flip_request, kv_request, WorkloadRng};
use ubft::apps::{FlipApp, KvApp, KvFrontend, ShardRouter};
use ubft::core::App;
use ubft::runtime::SimConfig;
use ubft::sim::failure::FailurePlan;
use ubft::types::{Duration, Time};

/// Stretch of protocol timers into wall time on the threaded backend.
pub const TIME_SCALE: u32 = 200;
/// Flip request size, as in the paper's headline measurement.
pub const FLIP_BYTES: usize = 32;
/// When the leader of `crash_kv` crashes, in virtual time.
pub const CRASH_AT_MS: u64 = 20;

/// Replica 0, the leader of view 0, crashes [`CRASH_AT_MS`] into the run.
pub fn leader_crash() -> FailurePlan {
    FailurePlan::none().crash_replica(0, Time::ZERO + Duration::from_millis(CRASH_AT_MS))
}

/// One benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Threads, one group, fast path only, 32 B Flip.
    FastFlip,
    /// Threads, two groups, deployed path, KV mix routed by key.
    ShardedKv,
    /// Threads, one group, slow path only, KV mix. Left out of
    /// `BENCHMARK.json` because every run fails its correctness check:
    /// on threads the slow path stalls and the replicas' execution logs
    /// stop being prefixes of one another. Kept runnable to reproduce that.
    SlowKv,
    /// Simulator, deployed path, KV mix, leader crash early in the run.
    CrashKv,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fast_flip" => Workload::FastFlip,
            "sharded_kv" => Workload::ShardedKv,
            "slow_kv" => Workload::SlowKv,
            "crash_kv" => Workload::CrashKv,
            _ => return None,
        })
    }

    /// Whether the workload runs on `Backend::Threads` (the others run in
    /// the simulator only).
    pub fn threaded(self) -> bool {
        self != Workload::CrashKv
    }

    /// The deployment configuration for `seed`. The threaded run and its
    /// simulator twin use the same configuration.
    pub fn config(self, seed: u64) -> SimConfig {
        let base = SimConfig::paper_default(seed).with_time_scale(TIME_SCALE);
        match self {
            Workload::FastFlip => base.fast_only(),
            Workload::ShardedKv => base.with_shards(2),
            Workload::SlowKv => base.slow_only(),
            Workload::CrashKv => {
                let mut cfg = base;
                cfg.failures = leader_crash();
                cfg
            }
        }
    }

    /// `n` fresh application instances, one per replica.
    pub fn apps(self, n: usize) -> Vec<Box<dyn App + Send>> {
        (0..n)
            .map(|_| -> Box<dyn App + Send> {
                match self {
                    Workload::FastFlip => Box::new(FlipApp::new()),
                    _ => Box::new(KvApp::new(KvFrontend::Redis)),
                }
            })
            .collect()
    }

    /// The request stream for `seed`: the whole stream when `group` is
    /// `None`, otherwise only the requests whose key routes to that group
    /// out of `groups`.
    pub fn source(self, seed: u64, group: Option<(usize, usize)>) -> Source {
        Source {
            rng: WorkloadRng::new(seed ^ 0x0B0E_5EED),
            populated: 0,
            kv: self != Workload::FastFlip,
            shard: group.map(|(g, groups)| (g, ShardRouter::new(groups))),
        }
    }
}

/// A deterministic request stream.
pub struct Source {
    rng: WorkloadRng,
    populated: u64,
    kv: bool,
    shard: Option<(usize, ShardRouter)>,
}

impl Source {
    /// The next request payload of this stream.
    pub fn next_payload(&mut self) -> Vec<u8> {
        loop {
            let p = if self.kv {
                kv_request(&mut self.rng, &mut self.populated)
            } else {
                flip_request(&mut self.rng, FLIP_BYTES)
            };
            match &self.shard {
                Some((g, router)) => {
                    let key = ShardRouter::extract_key(&p).expect("KV requests carry a key");
                    if router.route_key(&key) == *g {
                        return p;
                    }
                }
                None => return p,
            }
        }
    }
}
