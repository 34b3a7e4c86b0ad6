//! Per-replica protocol state: one [`ReplicaNode`] bundles everything a
//! single uBFT replica owns, on either deployment backend. The handlers
//! that drive it live in [`crate::driver`]; whatever depends on time,
//! placement, or fault injection belongs to the backend's
//! [`Host`](crate::driver::Host), not here.

use ubft_core::app::App;
use ubft_core::engine::{Engine, EngineConfig, PathMode};
use ubft_core::lru::LruMap;
use ubft_core::msg::Reply;
use ubft_crypto::{Digest, KeyRing};
use ubft_ctb::ctbcast::{Ctb, CtbConfig, SlowMode};
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, Slot};

use crate::audit::AuditMutation;
use crate::calibration::SimConfig;
use crate::cluster::OpCounters;

/// How many recent checkpoint snapshots a replica retains for serving
/// state transfers to replacement nodes. The joiner always asks for a
/// *recent* stable checkpoint (its `f + 1` join acks name one), so a short
/// history suffices; anything older is covered by a newer checkpoint.
pub(crate) const SNAPSHOT_RETAIN: usize = 4;

/// One retained checkpoint snapshot: everything a certified state transfer
/// hands a lagging replica — the serialized application plus the
/// request-dedup table, each verified by the receiver against the
/// checkpoint certificate's digests.
#[derive(Clone)]
pub(crate) struct Snapshot {
    /// First slot *not* covered.
    pub base: Slot,
    /// Digest the restored application must reproduce.
    pub app_digest: Digest,
    /// Serialized application state.
    pub app_bytes: Vec<u8>,
    /// The dedup table at `base` (certified via
    /// [`CheckpointData::exec_digest`](ubft_core::msg::CheckpointData)).
    pub exec_table: Vec<(ClientId, u64)>,
}

/// The protocol timeouts a replica arms, in virtual time (the threaded
/// host stretches them by [`SimConfig::time_scale`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timeouts {
    /// Progress watchdog base period (doubled per fruitless view change).
    pub progress: Duration,
    /// Slow-path trigger of a slot and of a CTBcast message.
    pub slow_trigger: Duration,
    /// Client-echo fallback.
    pub echo_fallback: Duration,
    /// TBcast retransmission tick.
    pub retransmit: Duration,
}

/// One replica's complete protocol stack.
///
/// A replica owns its consensus engine, its replicated application
/// instance, one CTBcast instance per stream (its own stream as
/// broadcaster, every peer's as receiver), the TBcast endpoints those
/// streams and the consensus lane ride on, its last-reply cache, and the
/// observations both backends report (execution log, op counters).
pub(crate) struct ReplicaNode {
    /// This replica's group-local index.
    pub r: usize,
    /// Clients of the group; replies go to local index `n + c`.
    pub n_clients: usize,
    /// Timeouts the driver arms.
    pub timeouts: Timeouts,
    /// The consensus state machine (Algorithms 2–5).
    pub engine: Engine,
    /// The replicated application.
    pub app: Box<dyn App>,
    /// CTBcast instances, one per stream: `ctbs[s]` handles stream `s`.
    pub ctbs: Vec<Ctb>,
    /// TBcast broadcasters for this replica's side of each CTBcast stream.
    pub ctb_tx: Vec<TailBroadcaster>,
    /// TBcast receivers: `ctb_rx[stream][sender]`.
    pub ctb_rx: Vec<Vec<TailReceiver>>,
    /// Broadcaster for the consensus-level TBcast lane.
    pub cons_tx: TailBroadcaster,
    /// Consensus-lane receivers, one per sender.
    pub cons_rx: Vec<TailReceiver>,
    /// Whether a scheduled crash has taken effect (the simulator sets it;
    /// a crashed replica ignores every input).
    pub crashed: bool,
    /// Consecutive retransmission ticks during which this node's own
    /// CTBcast summary stayed stalled (a boundary crossed but not
    /// certified); past a threshold the driver force-converts the
    /// unsummarized tail to the signed slow path so receivers whose
    /// fast-path unanimity a dead peer broke can still deliver.
    pub summary_stall_ticks: u32,
    /// The last reply sent to each client (PBFT's last-reply table): a
    /// retransmitted request that already executed is answered from here —
    /// the engine's dedup cannot re-execute it, and without the cached
    /// reply a client whose response was lost would stall forever.
    /// Bounded alongside the engine's dedup table by
    /// [`SimConfig::client_cache_cap`]: replica-local, so eviction needs no
    /// cross-replica agreement.
    pub reply_cache: LruMap<ClientId, Reply>,
    /// Every non-noop request this replica executed, in execution order.
    /// Pure observation, recorded so the backend-equivalence suite can
    /// compare decided sequences between the backends request by request.
    pub exec_log: Vec<(ClientId, u64)>,
    /// Primitive operations this replica issued.
    pub counters: OpCounters,
    /// State transfers that found no (verifiable) donor snapshot: the
    /// replica fast-forwarded, so its application state may have diverged.
    pub transfer_misses: u64,
    /// Byzantine behaviour the engine detected: (culprit, why).
    pub byz_reports: Vec<(u32, String)>,
}

impl ReplicaNode {
    /// Replica `r`'s stack as `cfg` prescribes it, at genesis — the one
    /// construction both backends (and replacement nodes) use.
    pub fn new(r: usize, cfg: &SimConfig, ring: KeyRing, app: Box<dyn App>) -> Self {
        let n = cfg.params.n();
        let tail = cfg.params.tail;
        let ctb_cfg = match cfg.path {
            PathMode::FastOnly => CtbConfig { n, tail, fast_enabled: true, slow: SlowMode::Never },
            PathMode::SlowOnly => {
                CtbConfig { n, tail, fast_enabled: false, slow: SlowMode::Always }
            }
            PathMode::FastWithFallback => CtbConfig::deployed(n, tail),
        };
        let me = ReplicaId(r as u32);
        let replicas: Vec<ReplicaId> = cfg.params.replicas().collect();
        let peers: Vec<ReplicaId> = replicas.iter().copied().filter(|p| *p != me).collect();
        // TBcast buffers hold 2t messages (Algorithm 1).
        let cap = 2 * tail;
        let receivers = || -> Vec<TailReceiver> {
            replicas.iter().map(|&sender| TailReceiver::new(sender, cap)).collect()
        };
        ReplicaNode {
            r,
            n_clients: cfg.n_clients.max(1),
            timeouts: Timeouts {
                progress: cfg.progress_timeout,
                slow_trigger: cfg.slow_trigger,
                echo_fallback: cfg.echo_fallback,
                retransmit: cfg.retransmit_period,
            },
            engine: Engine::new(me, engine_config(cfg, r), ring),
            app,
            ctbs: replicas.iter().map(|&s| Ctb::new(me, s, replicas.clone(), ctb_cfg)).collect(),
            ctb_tx: (0..n).map(|_| TailBroadcaster::new(me, peers.clone(), cap)).collect(),
            ctb_rx: (0..n).map(|_| receivers()).collect(),
            cons_tx: TailBroadcaster::new(me, peers, cap),
            cons_rx: receivers(),
            crashed: false,
            summary_stall_ticks: 0,
            // Mirrors the engine's in-flight floor: an entry evicted
            // before its client could possibly need a re-reply would
            // stall that client forever.
            reply_cache: LruMap::new(
                cfg.client_cache_cap.map(|c| c.max(2 * cfg.params.window * cfg.max_batch.max(1))),
            ),
            exec_log: Vec::new(),
            counters: OpCounters::default(),
            transfer_misses: 0,
            byz_reports: Vec::new(),
        }
    }

    /// The replacement node for this crashed replica: a fresh stack with
    /// the application reset to `genesis`. Only what describes the whole
    /// run outlives the incarnation — the execution log, the op counters,
    /// and the diagnostics.
    pub fn reboot(self, cfg: &SimConfig, ring: KeyRing, genesis: &[u8]) -> Self {
        let mut app = self.app;
        app.restore_bytes(genesis);
        ReplicaNode {
            exec_log: self.exec_log,
            counters: self.counters,
            transfer_misses: self.transfer_misses,
            byz_reports: self.byz_reports,
            ..ReplicaNode::new(self.r, cfg, ring, app)
        }
    }

    /// Resident bytes of this node's CTBcast bookkeeping and TB
    /// retransmission buffers (the channel buffers are accounted by the
    /// group, which owns the channel map).
    pub fn protocol_resident_bytes(&self) -> usize {
        let mut total = 0usize;
        for (ctb, tx) in self.ctbs.iter().zip(&self.ctb_tx) {
            total += ctb.resident_bytes();
            total += tx.buffered_bytes();
        }
        total += self.cons_tx.buffered_bytes();
        total
    }
}

/// The key ring of the group `cfg` describes: every replica and client
/// key, derived from the group's seed identically on both backends.
pub(crate) fn key_ring(cfg: &SimConfig) -> KeyRing {
    let n = cfg.params.n() as u32;
    let n_clients = cfg.n_clients.max(1) as u32;
    KeyRing::generate(
        cfg.seed ^ 0x5EED,
        (0..n)
            .map(|i| ProcessId::Replica(ReplicaId(i)))
            .chain((0..n_clients).map(|i| ProcessId::Client(ClientId(i)))),
    )
}

/// The engine configuration a [`SimConfig`] prescribes for one replica.
fn engine_config(cfg: &SimConfig, replica: usize) -> EngineConfig {
    let mut ecfg = EngineConfig::new(cfg.params.clone(), cfg.path);
    ecfg.echo_round = cfg.echo_round;
    if let Some(every) = cfg.summary_every {
        ecfg.summary_half = every;
    }
    ecfg.max_batch = cfg.max_batch.max(1);
    if let Some(depth) = cfg.pipeline_depth {
        ecfg.pipeline_depth = depth.max(1);
    }
    ecfg.record_decisions = cfg.audit;
    ecfg.client_cache_cap = cfg.client_cache_cap;
    if let Some(AuditMutation::DecideEarly { replica: target }) = cfg.audit_mutation {
        ecfg.test_decide_early = target == replica;
    }
    ecfg
}
