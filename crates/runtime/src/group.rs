//! The simulator backend: one consensus group's runtime, its virtual-time
//! [`Host`], and the deployment loop shared by the single-group
//! [`Cluster`](crate::cluster::Cluster) facade and the multi-group
//! [`ShardedCluster`](crate::sharded::ShardedCluster).
//!
//! Replicas are driven by the shared [`driver`](crate::driver) — the same
//! interpreter the threaded backend runs. This module supplies what the
//! driver asks of a host, in virtual time:
//!
//! * **sends** through simulated circular-buffer links on the RDMA fabric
//!   model ([`SimLinkTransport`]), each arrival a receiver-poll event;
//! * **timers, crypto jobs, and register accesses** as events on the
//!   shared queue (signatures and verifications complete after their
//!   calibrated cost; SWMR register quorums run against the simulated
//!   memory nodes);
//! * **cost charging** on two cursors per replica — the event-loop core
//!   and the background crypto worker (§5.4) — and the deferral of
//!   crypto-bearing engine batches behind that worker (`Ev::EngineFx`);
//! * **checkpoint snapshots** retained for certified state transfers;
//! * **fault injection**: scheduled crashes, replacement nodes, and
//!   Byzantine modes, plus the omniscient safety auditor as observer.
//!
//! A [`GroupRuntime`] owns everything one `2f + 1` group needs — its
//! [`ReplicaNode`]s, the channel lanes between them, its partition of the
//! SWMR register banks, and its closed-loop clients — but *not* the fabric
//! or the event queue: those are shared deployment-wide so that many
//! groups can ride one RDMA network and one set of passive memory nodes
//! (the paper's scale-out story). Every event in the shared queue is
//! tagged with the owning group's id; all indices inside a group are
//! group-local and mapped into the global `HostId` space via each group's
//! host-block base.

use ubft_core::app::App;
use ubft_core::client::{Client, ClientEffect};
use ubft_core::engine::{CryptoOps, Effect};
use ubft_core::msg::Reply;
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{RegEntry, VerifyTag};
use ubft_ctb::wire::signed_bytes;
use ubft_dmem::register::{
    ReadOutcome, RegisterBank, RegisterId, RegisterReader, RegisterWriter, WriteOutcome,
};
use ubft_rdma::Fabric;
use ubft_sim::failure::ByzantineMode;
use ubft_sim::net::NetworkModel;
use ubft_sim::stats::LatencyStats;
use ubft_sim::{EventQueue, HostId, SimRng};
use ubft_transport::channel::ChannelSpec;
use ubft_transport::net::Transport;
use ubft_transport::sim_link::SimLinkTransport;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, SeqId, Slot, Time, View};

use crate::audit::{AuditMutation, AuditReport, Auditor};
use crate::calibration::SimConfig;
use crate::cluster::{OpCounters, RunReport};
use crate::driver::{Done, Host, Lane, Observed, Timer};
use crate::node::{key_ring, ReplicaNode, Snapshot, SNAPSHOT_RETAIN};

/// Simulation events. All indices are group-local; the queue tags each
/// event with its group id.
pub(crate) enum Ev {
    Poll {
        lane: Lane,
        from: usize,
        to: usize,
    },
    Flush {
        lane: Lane,
        from: usize,
        to: usize,
    },
    /// A timer replica `r` armed fired.
    Timer {
        r: usize,
        timer: Timer,
    },
    /// A crypto job or register access of replica `r` completed.
    Done {
        r: usize,
        done: Done,
    },
    ClientIssue {
        c: usize,
    },
    /// Client retransmission check: if request `id` is still in flight at
    /// client `c`, re-send it to every replica and re-arm. A request or
    /// reply lost to a partition/crash must not stall the closed loop —
    /// replicas deduplicate, and executed requests are re-answered from
    /// the per-replica last-reply cache.
    ClientRetry {
        c: usize,
        id: ubft_types::RequestId,
    },
    /// Boot the replacement node for crashed replica `r` on `host` (the
    /// fresh host id pre-allocated by the deployment).
    Replace {
        r: usize,
        host: HostId,
    },
    /// Apply an engine-effect batch whose crypto work finishes at this
    /// event's time. Effects stamped in the future must flow through the
    /// queue — applying them early would hand the fabric out-of-order
    /// timestamps, and its per-host-pair FIFO would then pin every later
    /// (normally timed) message behind the future one.
    EngineFx {
        r: usize,
        /// The node incarnation that scheduled the batch; a replacement
        /// bumps it, so a dead incarnation's pending crypto never applies
        /// to its successor.
        epoch: u32,
        fx: Vec<Effect>,
    },
}

/// A group-tagged event in the shared deployment queue.
pub(crate) type GroupEv = (u32, Ev);

/// A group workload source: `None` means "no request available for this
/// group right now" (a sharded source whose pending generation all routed
/// elsewhere); the client retries shortly instead of stalling forever.
pub(crate) type GroupWorkload = Box<dyn FnMut(u64) -> Option<Vec<u8>>>;

/// How long an idle client waits before re-asking an empty workload
/// source. Never fires for single-group deployments (their sources are
/// total functions).
fn workload_retry() -> Duration {
    Duration::from_micros(5)
}

/// Client retransmission timeout: far above every healthy completion (fast
/// path ~11 µs, forced slow path hundreds of µs), so failure-free runs
/// never retransmit; short enough that a lost message costs milliseconds,
/// not the run.
fn client_retry_period() -> Duration {
    Duration::from_micros(1_500)
}

/// Deployment-global run control: the closed loop stops on the *total*
/// completed count, and warmup discarding is likewise global, so a
/// single-group run behaves exactly like the pre-sharding `Cluster`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunCtl {
    pub completed: u64,
    pub target: u64,
    pub warmup: u64,
}

/// The deployment-wide mutable context a group borrows while handling one
/// event: the shared fabric, the shared (group-tagged) event queue, the
/// global run control, and (when enabled) the omniscient safety auditor.
pub(crate) struct Shared<'a> {
    pub fabric: &'a mut Fabric,
    pub events: &'a mut EventQueue<GroupEv>,
    pub ctl: &'a mut RunCtl,
    /// `None` when auditing is off — the hooks below are then no-ops, so
    /// unaudited runs stay bit-for-bit identical to historical behaviour.
    pub audit: &'a mut Option<Auditor>,
}

/// The virtual-time host's per-replica state.
struct SimReplica {
    /// Main-core busy-until cursor (event-loop dispatch serializes here).
    busy: Time,
    /// Crypto-worker busy-until cursor: engine signatures/verifications
    /// serialize here instead of on the main cursor (the paper's
    /// background crypto pool, §5.4).
    crypto_busy: Time,
    /// Engine-effect batches deferred behind crypto completion that have
    /// not been applied yet (see [`Ev::EngineFx`]).
    deferred_fx: u32,
    /// Scheduled time of the most recent deferred batch: later batches —
    /// even crypto-free ones — must apply after it to preserve the
    /// engine's emission order.
    deferred_until: Time,
    /// Incarnation counter, bumped on replacement: deferred batches carry
    /// the epoch that scheduled them and are dropped on mismatch.
    epoch: u32,
    /// SWMR register writers this replica owns: `reg_writers[stream]` is
    /// the writer for this replica's slots in `stream`'s bank.
    reg_writers: Vec<RegisterWriter>,
    /// Recent checkpoint snapshots, oldest first, retained to serve
    /// certified state transfers — to replacement nodes and to replicas
    /// that lagged a whole window behind a partition or asynchrony. Empty
    /// (and never populated) unless the deployment's fault plan schedules
    /// faults, so failure-free runs pay nothing.
    snapshots: Vec<Snapshot>,
}

/// The group's side of the virtual-time host: placement, links, register
/// endpoints, and the per-replica cost cursors.
struct SimNet {
    gid: u32,
    /// First global host id of this group's `n + n_clients` host block.
    host_base: u32,
    /// Current host of each replica: `host_base + r` until a replacement
    /// moves that replica to a freshly allocated host. Clients never move.
    hosts: Vec<HostId>,
    /// The group's message plane: simulated circular-buffer links behind
    /// the [`Transport`] trait (the fabric is the call-site context).
    transport: SimLinkTransport,
    /// `reg_readers[stream][owner]`: shared read endpoints (readers are
    /// host-agnostic; writers live with their owning replica).
    reg_readers: Vec<Vec<RegisterReader>>,
    /// Per-replica host state, in replica order.
    reps: Vec<SimReplica>,
    /// Signs and verifies CTBcast slow-path evidence.
    ring: KeyRing,
    /// Delay from a message's arrival to the receiver's poll picking it up.
    poll_pickup: Duration,
    /// Whether replicas retain checkpoint snapshots.
    keep_snapshots: bool,
}

impl SimNet {
    /// Current host of group-local index `idx` (replica or client).
    fn host_of(&self, idx: usize) -> HostId {
        if idx < self.hosts.len() {
            self.hosts[idx]
        } else {
            HostId(self.host_base + idx as u32)
        }
    }

    /// Opens (or re-opens, dropping the old endpoints) every lane from
    /// replica `from` to replica `to`.
    fn open_replica_links(&mut self, fabric: &mut Fabric, cfg: &SimConfig, from: usize, to: usize) {
        let cap = 2 * cfg.params.tail;
        let spec = ChannelSpec { slots: cap, slot_payload: cfg.slot_payload() };
        let wide_spec = ChannelSpec { slots: cap, slot_payload: cfg.wide_slot_payload() };
        let lanes = (0..cfg.params.n())
            .map(|stream| (Lane::CtbTb { stream }, spec))
            .chain([(Lane::ConsTb, wide_spec), (Lane::Direct, wide_spec)]);
        for (lane, spec) in lanes {
            let (a, b) = (self.host_of(from), self.host_of(to));
            self.transport.open_link(fabric, lane.id(), from as u32, to as u32, a, b, spec);
        }
    }

    /// Opens (or re-opens) both lanes between client node `c_node` and
    /// replica `r`.
    fn open_client_links(&mut self, fabric: &mut Fabric, cfg: &SimConfig, c_node: usize, r: usize) {
        let spec = ChannelSpec { slots: 64, slot_payload: cfg.slot_payload() };
        for (lane, from, to) in [(Lane::ClientReq, c_node, r), (Lane::ClientResp, r, c_node)] {
            let (a, b) = (self.host_of(from), self.host_of(to));
            self.transport.open_link(fabric, lane.id(), from as u32, to as u32, a, b, spec);
        }
    }

    fn push(&self, sh: &mut Shared<'_>, at: Time, ev: Ev) {
        sh.events.push(at, (self.gid, ev));
    }

    fn channel_send(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        bytes: Vec<u8>,
        at: Time,
    ) {
        let rep = self.transport.send(sh.fabric, lane.id(), from as u32, to as u32, &bytes, at);
        self.schedule_send_report(sh, lane, from, to, at, rep);
    }

    /// Turns a [`SendReport`](ubft_transport::net::SendReport) into
    /// virtual-time events: a receiver poll per issued arrival, and a
    /// flush when data stayed staged.
    fn schedule_send_report(
        &self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        at: Time,
        rep: ubft_transport::net::SendReport,
    ) {
        for arrival in rep.arrivals {
            self.push(sh, arrival + self.poll_pickup, Ev::Poll { lane, from, to });
        }
        if let Some(t) = rep.flush_at {
            let t = if t > at { t } else { at + Duration::from_nanos(1) };
            self.push(sh, t, Ev::Flush { lane, from, to });
        }
    }

    /// Reads every owner's register `slot` of `stream`'s bank for replica
    /// `r`, retrying once per owner when a read overlaps a write (§6.1).
    /// Returns parsed entries in replica order and the quorum completion
    /// time.
    fn read_register_slot(
        &self,
        sh: &mut Shared<'_>,
        r: usize,
        stream: usize,
        slot: usize,
        at: Time,
    ) -> (Vec<Option<RegEntry>>, Time) {
        let host = self.host_of(r);
        let readers = &self.reg_readers[stream];
        let mut entries = Vec::with_capacity(readers.len());
        let mut completion = at;
        for reader in readers {
            let mut attempt_at = at;
            let mut parsed = None;
            for _attempt in 0..2 {
                match reader.read(sh.fabric, host, RegisterId(slot), attempt_at) {
                    ReadOutcome::Value { value, completion: c, .. } => {
                        completion = completion.max(c);
                        parsed = RegEntry::from_bytes(&value).ok();
                        break;
                    }
                    ReadOutcome::WriterByzantine { completion: c } => {
                        completion = completion.max(c);
                        break;
                    }
                    ReadOutcome::Retry { completion: c } => {
                        completion = completion.max(c);
                        attempt_at = c;
                    }
                    ReadOutcome::NoQuorum => break,
                    // The reading replica itself hit its crash boundary
                    // (a retry can re-issue past its own scheduled
                    // crash); the continuation is dropped by the crash
                    // checks, so what it "read" is irrelevant.
                    ReadOutcome::IssuerCrashed => break,
                }
            }
            entries.push(parsed);
        }
        (entries, completion)
    }
}

/// The virtual-time [`Host`] of replica `r`, borrowed for one event.
struct SimHost<'a, 'b> {
    cfg: &'a SimConfig,
    net: &'a mut SimNet,
    sh: &'a mut Shared<'b>,
    r: usize,
    /// The other replicas, split around `r` (donor lookups read their
    /// crash flags).
    before: &'a [ReplicaNode],
    after: &'a [ReplicaNode],
}

impl SimHost<'_, '_> {
    fn push(&mut self, at: Time, ev: Ev) {
        self.net.push(self.sh, at, ev);
    }

    fn peer_crashed(&self, q: usize) -> bool {
        if q < self.r {
            self.before[q].crashed
        } else {
            self.after[q - self.r - 1].crashed
        }
    }
}

impl Host for SimHost<'_, '_> {
    fn send(&mut self, lane: Lane, to: usize, bytes: Vec<u8>, at: Time) {
        let mut at = at;
        match self.byzantine(at) {
            // A silent replica stops transmitting entirely; it keeps
            // receiving, which is what distinguishes it from a crash in the
            // logs but not in effect.
            Some(ByzantineMode::Silent) => return,
            // A laggard is correct but slow: every outgoing message is
            // delayed (a gray failure; the fast path must absorb or
            // time out past it).
            Some(ByzantineMode::Laggard) => at += Duration::from_micros(50),
            _ => {}
        }
        self.net.channel_send(self.sh, lane, self.r, to, bytes, at);
    }

    fn arm(&mut self, timer: Timer, after: Duration, at: Time) {
        let r = self.r;
        self.push(at + after, Ev::Timer { r, timer });
    }

    fn sign(&mut self, stream: usize, k: SeqId, fp: Digest, at: Time) {
        let id = ReplicaId(stream as u32);
        let signer = self.net.ring.signer(ProcessId::Replica(id)).expect("replica key");
        let sig = signer.sign(&signed_bytes(id, k, &fp));
        let r = self.r;
        self.push(at + self.cfg.cost.sign_total(), Ev::Done { r, done: Done::Signed { k, sig } });
    }

    fn verify(
        &mut self,
        stream: usize,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
        at: Time,
    ) {
        let id = ReplicaId(stream as u32);
        let ok = self.net.ring.verify(ProcessId::Replica(id), &signed_bytes(id, k, &fp), &sig);
        let (r, done) = (self.r, Done::Verified { stream, tag, ok });
        self.push(at + self.cfg.cost.verify_total(), Ev::Done { r, done });
    }

    fn write_register(&mut self, stream: usize, slot: usize, k: SeqId, bytes: Vec<u8>, at: Time) {
        let r = self.r;
        let host = self.net.host_of(r);
        let writer = &mut self.net.reps[r].reg_writers[stream];
        match writer.write(self.sh.fabric, host, RegisterId(slot), k.0, &bytes, at) {
            WriteOutcome::Done(done) => {
                self.push(done, Ev::Done { r, done: Done::Written { stream, k } });
            }
            // The writer died at a crash boundary (possibly via the
            // δ-cooldown deferring the start past its own crash): its
            // continuation events are dropped by the crash checks, so
            // there is nothing to schedule.
            WriteOutcome::IssuerCrashed => {}
            // Outside the fault model (> f_m memory nodes down); the slow
            // path simply cannot complete.
            WriteOutcome::NoQuorum => {}
        }
    }

    fn read_register(&mut self, stream: usize, slot: usize, k: SeqId, at: Time) {
        let r = self.r;
        let (entries, completion) = self.net.read_register_slot(self.sh, r, stream, slot, at);
        self.push(completion, Ev::Done { r, done: Done::Read { stream, k, entries } });
    }

    fn charge(&mut self, at: Time, extra: Duration) -> Time {
        let rep = &mut self.net.reps[self.r];
        let start = if at > rep.busy { at } else { rep.busy };
        rep.busy = start + self.cfg.cost.dispatch + extra;
        rep.busy
    }

    fn engine_batch(
        &mut self,
        at: Time,
        ops: CryptoOps,
        fx: Vec<Effect>,
    ) -> Option<(Time, Vec<Effect>)> {
        // The event-loop dispatch runs on the replica's main core; crypto is
        // handed to the replica's crypto worker (§5.4 keeps bookkeeping
        // signatures off the critical path), so it delays this batch's
        // *effects* without blocking subsequent message processing.
        let done = self.charge(at, Duration::ZERO);
        let r = self.r;
        let rep = &mut self.net.reps[r];
        if ops.is_zero() && rep.deferred_fx == 0 {
            // The common (crypto-free) path applies effects inline.
            return Some((done, fx));
        }
        // Crypto pushes this batch's effects into the future; route them
        // through the event queue so the fabric only ever sees monotone
        // timestamps per host pair (applying early would stall every later
        // message behind the future arrival in the FIFO network). While any
        // batch is pending, later batches — crypto-free or not — queue
        // strictly behind it: the engine's emission order is a protocol
        // invariant (e.g. a checkpoint must precede proposals into the
        // window it opens).
        let effect_at = if ops.is_zero() {
            done
        } else {
            let cost = Duration::from_nanos(
                self.cfg.cost.sign_total().as_nanos() * ops.signs as u64
                    + self.cfg.cost.verify_total().as_nanos() * ops.verifies as u64,
            );
            let start = if done > rep.crypto_busy { done } else { rep.crypto_busy };
            rep.crypto_busy = start + cost;
            rep.crypto_busy
        };
        let at_eff = if effect_at > rep.deferred_until {
            effect_at
        } else {
            rep.deferred_until + Duration::from_nanos(1)
        };
        rep.deferred_until = at_eff;
        rep.deferred_fx += 1;
        let epoch = rep.epoch;
        self.push(at_eff, Ev::EngineFx { r, epoch, fx });
        None
    }

    fn keeps_snapshots(&self) -> bool {
        self.net.keep_snapshots
    }

    fn retain_snapshot(&mut self, snap: Snapshot) {
        // Bounded history for serving lagging replicas' transfers.
        let snapshots = &mut self.net.reps[self.r].snapshots;
        snapshots.push(snap);
        if snapshots.len() > SNAPSHOT_RETAIN {
            snapshots.remove(0);
        }
    }

    /// Any live peer's retained snapshot of the certified checkpoint. The
    /// transfer is modelled as a bulk fabric fetch: the receiving core is
    /// busy for the bytes' worst-case wire time.
    fn fetch_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Option<(Snapshot, Duration)> {
        let matches = |s: &&Snapshot| {
            s.base == base
                && s.app_digest == app_digest
                && ubft_core::msg::exec_table_digest(&s.exec_table) == exec_digest
        };
        let snap = (0..self.net.reps.len())
            .filter(|&q| q != self.r && !self.peer_crashed(q))
            .find_map(|q| self.net.reps[q].snapshots.iter().find(matches))?;
        Some((snap.clone(), self.cfg.latency.worst_case(snap.app_bytes.len())))
    }

    fn byzantine(&self, at: Time) -> Option<ByzantineMode> {
        self.cfg.failures.byzantine_mode(self.r, at)
    }

    fn audit_mutation(&self) -> Option<AuditMutation> {
        self.cfg.audit_mutation
    }

    fn observe(&mut self, what: Observed<'_>) {
        let Some(aud) = self.sh.audit.as_mut() else { return };
        let (g, r) = (self.net.gid as usize, self.r);
        match what {
            Observed::Decision(rec) => aud.on_decision(g, r, rec),
            Observed::Executed { slot, id, applied, response } => {
                aud.on_execute(g, r, slot, id, applied, response)
            }
            Observed::CheckpointDigest { base, digest } => {
                aud.on_checkpoint_digest(g, r, base, digest)
            }
            Observed::CheckpointAdopted { base } => aud.on_checkpoint_adopted(g, r, base),
            Observed::TransferRestored => aud.on_transfer_restored(g, r),
            Observed::TransferMissed => aud.on_transfer_miss(g, r),
        }
    }
}

/// One consensus group: `2f + 1` [`ReplicaNode`]s, their lanes, their
/// partition of the register banks, and their closed-loop clients.
pub(crate) struct GroupRuntime {
    pub(crate) cfg: SimConfig,
    pub(crate) nodes: Vec<ReplicaNode>,
    net: SimNet,
    /// `reg_banks[stream][owner]`: the SWMR banks themselves, retained so
    /// a replacement node can be re-keyed as a bank's writer.
    reg_banks: Vec<Vec<RegisterBank>>,
    reg_banks_bytes_per_node: usize,
    /// Serialized genesis application state, for resetting a replacement
    /// node's app before its state transfer. Captured only when the fault
    /// plan schedules faults.
    genesis_snapshot: Vec<u8>,
    clients: Vec<Client>,
    issue_times: Vec<Time>,
    /// Consecutive empty workload pulls per client, driving exponential
    /// retry backoff so starved shards cannot flood the event queue.
    idle_backoff: Vec<u32>,
    workload: GroupWorkload,
    /// Not-yet-applied scheduled crash times, one slot per replica
    /// (precomputed from the fault plan so the hot event loop never
    /// rescans it; an entry is cleared once the crash takes effect).
    crash_times: Vec<Option<Time>>,
    /// How many entries of `crash_times` are still pending.
    pending_crashes: usize,
    /// Client requests sent (the replicas count everything else).
    client_msgs: u64,
    pub(crate) latency: LatencyStats,
    pub(crate) completed: u64,
}

impl GroupRuntime {
    /// Builds one group inside an existing deployment: creates the replica
    /// stacks, channels, and register banks on the shared fabric, and
    /// pushes the group's start-up events (engine watchdogs, TBcast
    /// retransmission ticks) onto the shared queue.
    pub(crate) fn new(
        gid: u32,
        cfg: SimConfig,
        host_base: u32,
        mem_hosts: &[HostId],
        apps: Vec<Box<dyn App>>,
        workload: GroupWorkload,
        sh: &mut Shared<'_>,
    ) -> Self {
        let n = cfg.params.n();
        assert_eq!(apps.len(), n, "one app instance per replica");
        let n_clients = cfg.n_clients.max(1);
        let ring = key_ring(&cfg);

        // Checkpoint snapshots are retained whenever the plan schedules
        // *any* fault or an asynchronous prefix — not just replacements: a
        // replica that misses a whole window behind a partition or pre-GST
        // delays heals through the same certified state transfer, and
        // without a retained donor snapshot it would silently fast-forward
        // with diverged state (the chaos auditor caught exactly that).
        // Failure-free runs still pay nothing.
        let keep_snapshots = !cfg.failures.faults().is_empty() || cfg.failures.gst > Time::ZERO;
        let genesis_snapshot = if keep_snapshots { apps[0].snapshot_bytes() } else { Vec::new() };

        // Links, in the shared fabric, addressed by global host ids.
        let mut net = SimNet {
            gid,
            host_base,
            hosts: (0..n as u32).map(|r| HostId(host_base + r)).collect(),
            transport: SimLinkTransport::new(),
            reg_readers: Vec::with_capacity(n),
            reps: Vec::with_capacity(n),
            ring: ring.clone(),
            poll_pickup: cfg.poll_pickup,
            keep_snapshots,
        };
        for from in 0..n {
            for to in (0..n).filter(|&to| to != from) {
                net.open_replica_links(sh.fabric, &cfg, from, to);
            }
        }
        for c in 0..n_clients {
            for r in 0..n {
                net.open_client_links(sh.fabric, &cfg, n + c, r);
            }
        }

        // SWMR register banks: banks[stream][owner], replicated on the
        // shared memory nodes; only `owner` holds the writer. Each group
        // creates its own banks, so the memory nodes' space is partitioned
        // per group. The banks themselves are retained (not just their
        // endpoints): a replacement node is re-keyed as its predecessor's
        // banks' writer.
        let mut reg_banks: Vec<Vec<RegisterBank>> = Vec::with_capacity(n);
        let mut bank_bytes = 0usize;
        for _s in 0..n {
            let mut banks = Vec::with_capacity(n);
            let mut rs = Vec::with_capacity(n);
            for _owner in 0..n {
                let bank = RegisterBank::create(
                    sh.fabric,
                    mem_hosts,
                    cfg.params.tail,
                    RegEntry::encoded_size(),
                    cfg.params.delta,
                );
                bank_bytes += bank.bytes_per_node();
                rs.push(bank.reader());
                banks.push(bank);
            }
            net.reg_readers.push(rs);
            reg_banks.push(banks);
        }
        net.reps = (0..n)
            .map(|owner| SimReplica {
                busy: Time::ZERO,
                crypto_busy: Time::ZERO,
                deferred_fx: 0,
                deferred_until: Time::ZERO,
                epoch: 0,
                reg_writers: (0..n).map(|s| reg_banks[s][owner].writer()).collect(),
                snapshots: Vec::new(),
            })
            .collect();

        let replica_ids: Vec<ReplicaId> = cfg.params.replicas().collect();
        let clients: Vec<Client> = (0..n_clients as u32)
            .map(|i| Client::new(ClientId(i), replica_ids.clone(), cfg.params.quorum()))
            .collect();
        let nodes: Vec<ReplicaNode> = apps
            .into_iter()
            .enumerate()
            .map(|(r, app)| ReplicaNode::new(r, &cfg, ring.clone(), app))
            .collect();
        let crash_times: Vec<Option<Time>> =
            (0..n).map(|r| cfg.failures.replica_crash_time(r)).collect();
        let pending_crashes = crash_times.iter().filter(|t| t.is_some()).count();
        let mut group = GroupRuntime {
            nodes,
            net,
            reg_banks,
            reg_banks_bytes_per_node: bank_bytes,
            genesis_snapshot,
            clients,
            issue_times: vec![Time::ZERO; n_clients],
            idle_backoff: vec![0; n_clients],
            workload,
            crash_times,
            pending_crashes,
            client_msgs: 0,
            latency: LatencyStats::new(),
            completed: 0,
            cfg,
        };
        // Engine start-up (progress watchdogs).
        for r in 0..n {
            let (node, mut host) = group.replica(sh, r);
            node.engine_call(&mut host, Time::ZERO, |e| e.start());
        }
        // TBcast retransmission ticks, staggered so replicas do not burst
        // in lockstep.
        for r in 0..n {
            let offset = Duration::from_nanos(1_000 * (r as u64 + 1));
            let at = Time::ZERO + group.cfg.retransmit_period + offset;
            group.push(sh, at, Ev::Timer { r, timer: Timer::Retransmit });
        }
        group
    }

    /// Replica `r` and its host, borrowed for one event.
    fn replica<'a, 'b>(
        &'a mut self,
        sh: &'a mut Shared<'b>,
        r: usize,
    ) -> (&'a mut ReplicaNode, SimHost<'a, 'b>) {
        let (before, rest) = self.nodes.split_at_mut(r);
        let (node, after) = rest.split_first_mut().expect("replica index");
        (node, SimHost { cfg: &self.cfg, net: &mut self.net, sh, r, before, after })
    }

    fn n(&self) -> usize {
        self.cfg.params.n()
    }

    pub(crate) fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn client_node(&self, c: usize) -> usize {
        self.n() + c
    }

    fn push(&self, sh: &mut Shared<'_>, at: Time, ev: Ev) {
        self.net.push(sh, at, ev);
    }

    /// Applies scheduled replica crashes up to virtual time `t`. O(1) when
    /// nothing is pending, which is every event of a failure-free run.
    pub(crate) fn apply_scheduled_crashes(&mut self, t: Time) {
        if self.pending_crashes == 0 {
            return;
        }
        for r in 0..self.nodes.len() {
            if let Some(ct) = self.crash_times[r] {
                if t >= ct {
                    self.nodes[r].crashed = true;
                    self.crash_times[r] = None;
                    self.pending_crashes -= 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Replacement (uBFT extended version, §replacement)
    // ------------------------------------------------------------------

    /// Boots the replacement node for crashed replica `r` on the freshly
    /// allocated `new_host`: rebuilds every transport endpoint touching
    /// `r`, re-keys `r`'s SWMR bank writers, scans its own stream's bank
    /// tails on the memory nodes for the slow-path high-water mark, and
    /// starts a fresh engine in the join state. Peers' endpoints toward
    /// `r` are re-created here too — in a real deployment that retargeting
    /// is what their `Join` receipt triggers; the simulator, owning both
    /// ends, performs it at boot so the handshake finds working lanes.
    pub(crate) fn replace_replica(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        new_host: HostId,
        at: Time,
    ) {
        assert!(self.nodes[r].crashed, "replacement of a live replica {r}");
        let n = self.n();
        self.net.hosts[r] = new_host;
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_replace(self.net.gid as usize, r);
        }

        // Fresh links for every lane touching r, in both directions (the
        // old node's sender cursors and in-flight slots died with it).
        for peer in (0..n).filter(|&peer| peer != r) {
            self.net.open_replica_links(sh.fabric, &self.cfg, r, peer);
            self.net.open_replica_links(sh.fabric, &self.cfg, peer, r);
        }
        for c in 0..self.n_clients() {
            self.net.open_client_links(sh.fabric, &self.cfg, self.client_node(c), r);
        }

        // Peers' TB receivers for r's lanes start over: the replacement's
        // broadcasters number their frames from 1 again (transport seq
        // and CTBcast ids are independent; the CTBcast ids are adopted).
        let cap = 2 * self.cfg.params.tail;
        for peer in (0..n).filter(|&peer| peer != r) {
            let node = &mut self.nodes[peer];
            for rx in &mut node.ctb_rx {
                rx[r] = ubft_ctb::tbcast::TailReceiver::new(ReplicaId(r as u32), cap);
            }
            node.cons_rx[r] = ubft_ctb::tbcast::TailReceiver::new(ReplicaId(r as u32), cap);
        }

        // The fresh node itself: new stack, genesis application state,
        // re-keyed bank writers, fresh cost cursors.
        let old = self.nodes.remove(r);
        let fresh = old.reboot(&self.cfg, self.net.ring.clone(), &self.genesis_snapshot);
        self.nodes.insert(r, fresh);
        let rep = &mut self.net.reps[r];
        rep.reg_writers = (0..n).map(|s| self.reg_banks[s][r].rekey_writer()).collect();
        rep.snapshots.clear();
        rep.crypto_busy = at;
        rep.epoch += 1;
        rep.deferred_fx = 0;
        rep.deferred_until = Time::ZERO;

        // Step 1 of the join: recover the own-stream tail high-water mark
        // directly from the memory nodes (no replica trusted) — every
        // owner's bank of stream r can witness ids the crashed node
        // slow-pathed.
        let mut reg_floor = SeqId(0);
        let mut done = at;
        for reader in &self.net.reg_readers[r] {
            self.nodes[r].counters.reg_reads += reader.len() as u64;
            let scan = reader.scan_tail(sh.fabric, new_host, at);
            if let Some(ts) = scan.max_ts {
                reg_floor = reg_floor.max(SeqId(ts));
            }
            done = done.max(scan.completion);
        }
        self.net.reps[r].busy = done;

        // Step 2: the Join/JoinAck handshake (engine-driven from here).
        let (node, mut host) = self.replica(sh, r);
        node.engine_call(&mut host, done, |e| e.begin_join(reg_floor));
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// The application state digest of replica `r`.
    pub(crate) fn app_digest(&self, r: usize) -> Digest {
        self.nodes[r].app.snapshot_digest()
    }

    /// First slot replica `r` has not executed.
    pub(crate) fn exec_next(&self, r: usize) -> Slot {
        self.nodes[r].engine.exec_next()
    }

    /// The view replica `r` is in.
    pub(crate) fn view_of(&self, r: usize) -> View {
        self.nodes[r].engine.view()
    }

    /// Individual requests replica `r` has decided.
    pub(crate) fn decided_of(&self, r: usize) -> u64 {
        self.nodes[r].engine.decided_count()
    }

    /// Resident entries in replica `r`'s request-dedup table (bounded by
    /// [`SimConfig::client_cache_cap`]; tests assert eviction kicked in).
    pub(crate) fn dedup_entries(&self, r: usize) -> usize {
        self.nodes[r].engine.exec_table().len()
    }

    /// Final views of every replica, in replica order.
    pub(crate) fn views(&self) -> Vec<View> {
        self.nodes.iter().map(|nd| nd.engine.view()).collect()
    }

    /// Operation counts of the whole group.
    pub(crate) fn counters(&self) -> OpCounters {
        let mut total = OpCounters { rpc_msgs: self.client_msgs, ..OpCounters::default() };
        for nd in &self.nodes {
            total.merge(&nd.counters);
        }
        total
    }

    /// Disaggregated bytes this group's register banks occupy on one
    /// memory node.
    pub(crate) fn disagg_bytes_per_node(&self) -> usize {
        self.reg_banks_bytes_per_node
    }

    /// Bytes replica `r` retains in checkpoint snapshots for serving
    /// replacement-node state transfers (zero unless faults are planned).
    pub(crate) fn replica_snapshot_bytes(&self, r: usize) -> usize {
        self.net.reps[r].snapshots.iter().map(|s| s.app_bytes.len()).sum()
    }

    /// Checkpoint snapshots replica `r` currently retains (the auditor
    /// checks the count against its cap).
    pub(crate) fn snapshot_count(&self, r: usize) -> usize {
        self.net.reps[r].snapshots.len()
    }

    /// Approximate replica-local resident bytes of replica `r`: channel
    /// buffers it hosts, sender mirrors/staging, TB retransmission
    /// buffers, and CTBcast bookkeeping (Table 2).
    pub(crate) fn replica_local_bytes(&self, r: usize) -> usize {
        self.net.transport.resident_bytes_touching(r as u32)
            + self.nodes[r].protocol_resident_bytes()
    }

    /// Per-replica protocol diagnostics, one line each.
    pub(crate) fn diag_lines(&self) -> String {
        let mut s = String::new();
        for nd in &self.nodes {
            let ctb: Vec<String> = (0..self.n())
                .map(|st| {
                    format!(
                        "s{}:dlv{}/fifo{}",
                        st,
                        nd.ctbs[st].max_delivered().0,
                        nd.engine.fifo_position(ReplicaId(st as u32)).0,
                    )
                })
                .collect();
            s.push_str(&format!(
                "  {} crashed={} [{}]\n",
                nd.engine.diag(),
                nd.crashed,
                ctb.join(" ")
            ));
        }
        for nd in &self.nodes {
            for (culprit, why) in &nd.byz_reports {
                s.push_str(&format!("  r{} branded r{culprit} byzantine: {why}\n", nd.r));
            }
        }
        let misses: u64 = self.nodes.iter().map(|nd| nd.transfer_misses).sum();
        if misses > 0 {
            s.push_str(&format!(
                "  {misses} state transfer(s) found no donor snapshot (state may have diverged)\n"
            ));
        }
        s
    }

    // ------------------------------------------------------------------
    // Lanes and clients
    // ------------------------------------------------------------------

    fn on_flush(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let rep = self.net.transport.flush(sh.fabric, lane.id(), from as u32, to as u32, at);
        self.net.schedule_send_report(sh, lane, from, to, at, rep);
    }

    fn on_poll(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let out =
            self.net.transport.recv_poll(sh.fabric, to as u32, Some((lane.id(), from as u32)), at);
        if out.repoll {
            self.push(sh, at + Duration::from_nanos(200), Ev::Poll { lane, from, to });
        }
        for inb in out.delivered {
            if lane == Lane::ClientResp {
                self.on_client_reply(sh, to - self.n(), &inb.payload, at);
            } else {
                let (node, mut host) = self.replica(sh, to);
                node.on_message(&mut host, lane, from, inb.payload, at);
            }
        }
    }

    fn on_client_reply(&mut self, sh: &mut Shared<'_>, c: usize, payload: &[u8], at: Time) {
        if let Ok(reply) = Reply::from_bytes(payload) {
            for e in self.clients[c].on_reply(reply) {
                if let ClientEffect::Complete { .. } = e {
                    self.on_client_complete(sh, c, at);
                }
            }
        }
    }

    fn send_requests(&mut self, sh: &mut Shared<'_>, c: usize, fx: Vec<ClientEffect>, at: Time) {
        for e in fx {
            if let ClientEffect::SendRequest { to, req } = e {
                self.client_msgs += 1;
                let (from, to) = (self.client_node(c), to.0 as usize);
                self.net.channel_send(sh, Lane::ClientReq, from, to, req.to_bytes(), at);
            }
        }
    }

    fn on_client_issue(&mut self, sh: &mut Shared<'_>, c: usize, at: Time) {
        if !self.clients[c].is_idle() {
            return;
        }
        let seq = sh.ctl.completed;
        let Some(payload) = (self.workload)(seq) else {
            // Nothing routed to this group yet; poll the source again with
            // exponential backoff (5 µs doubling to a ~1.3 ms ceiling) so
            // a starved shard's idle clients cannot flood the event queue
            // over a long run.
            let shift = self.idle_backoff[c].min(8);
            self.idle_backoff[c] = self.idle_backoff[c].saturating_add(1);
            self.push(sh, at + workload_retry() * (1u64 << shift), Ev::ClientIssue { c });
            return;
        };
        self.idle_backoff[c] = 0;
        let (id, fx) = self.clients[c].issue(payload);
        self.issue_times[c] = at;
        self.send_requests(sh, c, fx, at);
        self.push(sh, at + client_retry_period(), Ev::ClientRetry { c, id });
    }

    /// The retransmission check for request `id` of client `c` fired.
    fn on_client_retry(
        &mut self,
        sh: &mut Shared<'_>,
        c: usize,
        id: ubft_types::RequestId,
        at: Time,
    ) {
        if self.clients[c].in_flight() != Some(id) {
            return; // completed (or superseded) — nothing to do
        }
        let fx = self.clients[c].retransmit();
        self.send_requests(sh, c, fx, at);
        self.push(sh, at + client_retry_period(), Ev::ClientRetry { c, id });
    }

    fn on_client_complete(&mut self, sh: &mut Shared<'_>, c: usize, at: Time) {
        sh.ctl.completed += 1;
        self.completed += 1;
        if sh.ctl.completed > sh.ctl.warmup {
            self.latency.record(at.since(self.issue_times[c]));
        }
        if sh.ctl.completed < sh.ctl.target {
            self.push(sh, at, Ev::ClientIssue { c });
        }
    }

    /// Dispatches one event popped from the shared queue.
    pub(crate) fn handle(&mut self, sh: &mut Shared<'_>, ev: Ev, t: Time) {
        match ev {
            Ev::Poll { lane, from, to } => self.on_poll(sh, lane, from, to, t),
            Ev::Flush { lane, from, to } => self.on_flush(sh, lane, from, to, t),
            Ev::Timer { r, timer } => {
                let (node, mut host) = self.replica(sh, r);
                node.on_timer(&mut host, timer, t);
            }
            Ev::Done { r, done } => {
                let (node, mut host) = self.replica(sh, r);
                node.on_done(&mut host, done, t);
            }
            Ev::ClientIssue { c } => self.on_client_issue(sh, c, t),
            Ev::ClientRetry { c, id } => self.on_client_retry(sh, c, id, t),
            Ev::Replace { r, host } => self.replace_replica(sh, r, host, t),
            Ev::EngineFx { r, epoch, fx } => {
                let rep = &mut self.net.reps[r];
                if epoch != rep.epoch {
                    return; // scheduled by a dead incarnation
                }
                rep.deferred_fx = rep.deferred_fx.saturating_sub(1);
                let (node, mut host) = self.replica(sh, r);
                node.apply_engine_effects(&mut host, t, fx);
            }
        }
    }
}

// ----------------------------------------------------------------------
// The shared deployment driver
// ----------------------------------------------------------------------

/// A whole deployment: one shared fabric, one shared (group-tagged) event
/// queue, one global run control, and `G ≥ 1` consensus groups.
///
/// Host-ID layout: group `g` occupies the contiguous block
/// `[g·(n + n_clients), (g+1)·(n + n_clients))` — replicas first, then
/// clients — and the `2f_m + 1` shared memory nodes occupy the final
/// `n_mem` ids. With `G = 1` this is exactly the pre-sharding `Cluster`
/// layout, which is what makes the single-group facade bit-for-bit
/// compatible.
pub(crate) struct Deployment {
    pub now: Time,
    pub fabric: Fabric,
    pub events: EventQueue<GroupEv>,
    pub ctl: RunCtl,
    pub groups: Vec<GroupRuntime>,
    /// The omniscient safety auditor ([`SimConfig::with_audit`]); `None`
    /// keeps the run observation-free and bit-for-bit historical.
    pub audit: Option<Auditor>,
}

impl Deployment {
    /// Builds `shards` groups over one fabric. `make_apps(g)` yields group
    /// `g`'s `n` application instances; `make_workload(g)` yields its
    /// request source.
    pub(crate) fn build(
        base: &SimConfig,
        mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
        mut make_workload: impl FnMut(usize) -> GroupWorkload,
    ) -> Self {
        let shards = base.shards.max(1);
        let n = base.params.n();
        let n_clients = base.n_clients.max(1);
        let n_mem = base.params.n_mem();
        let block = n + n_clients;

        // Per-group configurations: group-local seed and fault plan.
        let cfgs: Vec<SimConfig> = (0..shards)
            .map(|g| {
                let mut cfg = base.clone();
                cfg.seed = group_seed(base.seed, g);
                // The group's own plan; `shards` keeps the deployment-wide
                // count (the facades read it for stall deadlines), while
                // the per-shard extras are folded into `failures`.
                cfg.failures = base.shard_plan(g);
                // The asynchrony phase is deployment-global (the network
                // delays *every* group's traffic pre-GST), so every
                // group's plan must carry it — snapshot retention reads
                // it, and a shard that lags a window behind pre-GST
                // delays needs donor snapshots to heal.
                cfg.failures.gst = base.failures.gst;
                cfg.failures.pre_gst_extra = base.failures.pre_gst_extra;
                cfg.shard_failures = Vec::new();
                cfg
            })
            .collect();

        // Replacement nodes get brand-new host ids past the memory nodes,
        // pre-allocated so the host count (and thus the deterministic
        // event schedule) is fixed at build time.
        let mut n_hosts = shards * block + n_mem;
        let mut replacements: Vec<(Time, u32, usize, HostId)> = Vec::new();
        for (g, cfg) in cfgs.iter().enumerate() {
            for (r, _crash_at, rejoin_at) in cfg.failures.replacements() {
                assert!(r < n, "shard {g}: replacement victim {r} out of range");
                let host = HostId(n_hosts as u32);
                n_hosts += 1;
                replacements.push((rejoin_at, g as u32, r, host));
            }
        }

        let rng = SimRng::new(base.seed);
        let mut net = NetworkModel::synchronous(base.latency.clone(), n_hosts)
            .with_gst(base.failures.gst, base.failures.pre_gst_extra);
        // Apply crash schedules, mapped into the global host space.
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for i in 0..n {
                if let Some(t) = cfg.failures.replica_crash_time(i) {
                    net.crash_host(HostId(host_base + i as u32), t);
                }
            }
        }
        // Memory nodes are shared; a crash scheduled by any group's plan
        // takes the earliest scheduled time.
        for i in 0..n_mem {
            if let Some(t) = cfgs.iter().filter_map(|c| c.failures.mem_node_crash_time(i)).min() {
                net.crash_host(HostId((shards * block + i) as u32), t);
            }
        }
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for (a, b, from, until) in cfg.failures.partitions() {
                // Partition endpoints are replica indices by contract
                // (`FailurePlan::partition`). In a multi-shard deployment
                // an index beyond the group's host block would silently
                // land inside the *next* group's block, so reject it
                // loudly; single-group deployments keep the historical
                // raw-host-id behavior.
                assert!(
                    shards == 1 || (a < block && b < block),
                    "shard {g}: partition endpoints ({a}, {b}) must be group-local (< {block})"
                );
                net.add_partition(
                    HostId(host_base + a as u32),
                    HostId(host_base + b as u32),
                    from,
                    until,
                );
            }
        }
        let mut fabric = Fabric::new(net, rng.fork(1));
        let mut events = EventQueue::new();
        let mut ctl = RunCtl::default();
        let mem_hosts: Vec<HostId> =
            (0..n_mem).map(|i| HostId((shards * block + i) as u32)).collect();

        let mut groups = Vec::with_capacity(shards);
        // Groups are built unaudited (nothing decision-relevant happens at
        // construction — engine start-up arms watchdogs only); the auditor
        // reads their shape and sequential models once they exist.
        let mut audit: Option<Auditor> = None;
        for (g, cfg) in cfgs.into_iter().enumerate() {
            let mut sh = Shared {
                fabric: &mut fabric,
                events: &mut events,
                ctl: &mut ctl,
                audit: &mut audit,
            };
            groups.push(GroupRuntime::new(
                g as u32,
                cfg,
                (g * block) as u32,
                &mem_hosts,
                make_apps(g),
                make_workload(g),
                &mut sh,
            ));
        }
        if base.audit {
            audit = Some(Auditor::new(&groups));
        }
        for (rejoin_at, g, r, host) in replacements {
            events.push(rejoin_at, (g, Ev::Replace { r, host }));
        }

        Deployment { now: Time::ZERO, fabric, events, ctl, groups, audit }
    }

    /// Drives the closed loop until `requests + warmup` total completions
    /// or virtual time passes `deadline`.
    pub(crate) fn run_loop(&mut self, requests: u64, warmup: u64, deadline: Time) {
        self.ctl.target = requests + warmup;
        self.ctl.warmup = warmup;
        for g in 0..self.groups.len() {
            for c in 0..self.groups[g].n_clients() {
                self.events.push(
                    Time::ZERO + Duration::from_micros(1 + c as u64),
                    (g as u32, Ev::ClientIssue { c }),
                );
            }
        }
        let max_events = 200_000_000u64;
        while let Some((t, (gid, ev))) = self.events.pop() {
            self.now = t;
            if self.ctl.completed >= self.ctl.target || t > deadline {
                break;
            }
            assert!(self.events.total_pushed() < max_events, "simulation diverged (event flood)");
            let Deployment { fabric, events, ctl, groups, audit, .. } = self;
            // Apply the handling group's scheduled crashes; other groups'
            // crash flags are only read while handling their own events,
            // so they catch up then.
            let group = &mut groups[gid as usize];
            group.apply_scheduled_crashes(t);
            let mut sh = Shared { fabric, events, ctl, audit };
            group.handle(&mut sh, ev, t);
        }
    }

    /// Keeps processing events for `extra` more virtual time *without* a
    /// completion target: in-flight deliveries drain, stragglers (and
    /// replacement nodes) finish catching up. The closed loop stops
    /// issuing once the target is met, so this converges instead of
    /// generating new work.
    pub(crate) fn settle(&mut self, extra: Duration) {
        let deadline = self.now + extra;
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            let Some((t, (gid, ev))) = self.events.pop() else { break };
            self.now = t;
            let Deployment { fabric, events, ctl, groups, audit, .. } = self;
            let group = &mut groups[gid as usize];
            group.apply_scheduled_crashes(t);
            let mut sh = Shared { fabric, events, ctl, audit };
            group.handle(&mut sh, ev, t);
        }
    }

    /// One group's report: its own latency distribution (cloned), its
    /// counters, completions, and views, stamped with the global end time.
    /// The audit verdict is deployment-wide; callers wanting per-shard
    /// slices attach them ([`AuditReport::for_group`]).
    pub(crate) fn shard_report(&self, g: usize) -> RunReport {
        let gr = &self.groups[g];
        RunReport {
            latency: gr.latency.clone(),
            counters: gr.counters(),
            completed: gr.completed,
            end: self.now,
            views: gr.views(),
            audit: None,
        }
    }

    /// The auditor's verdict over everything observed so far (`None` when
    /// auditing is off). Idempotent — the model replays incrementally, so
    /// asking again after [`Deployment::settle`] audits the drained tail.
    pub(crate) fn audit_report(&mut self) -> Option<AuditReport> {
        let Deployment { audit, groups, .. } = self;
        audit.as_mut().map(|a| a.report(groups))
    }

    /// The merged whole-deployment report; takes each group's latency
    /// samples (call [`Deployment::shard_report`] first if per-shard
    /// distributions are wanted). `audit` is the verdict to attach —
    /// callers that already produced one pass it in instead of paying the
    /// model-comparison work twice.
    pub(crate) fn aggregate_report(&mut self, audit: Option<AuditReport>) -> RunReport {
        let mut latency = LatencyStats::new();
        let mut counters = OpCounters::default();
        let mut views = Vec::new();
        for gr in &mut self.groups {
            latency.absorb(std::mem::take(&mut gr.latency));
            counters.merge(&gr.counters());
            views.extend(gr.views());
        }
        RunReport { latency, counters, completed: self.ctl.completed, end: self.now, views, audit }
    }

    /// Per-replica diagnostics for every group.
    pub(crate) fn diag_lines(&self) -> String {
        if self.groups.len() == 1 {
            return self.groups[0].diag_lines();
        }
        self.groups
            .iter()
            .enumerate()
            .map(|(g, gr)| format!(" shard {g}:\n{}", gr.diag_lines()))
            .collect()
    }
}

/// Per-group seed derivation: group 0 keeps the base seed (the facade's
/// bit-for-bit guarantee), later groups fold in a golden-ratio multiple.
pub(crate) fn group_seed(base: u64, g: usize) -> u64 {
    base ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
