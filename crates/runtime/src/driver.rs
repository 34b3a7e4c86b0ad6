//! The replica driver: the one interpreter of the sans-IO protocol effects
//! ([`Effect`], [`CtbEffect`], [`TbEffect`]) and of a replica's inbound
//! lanes, shared by both deployment backends.
//!
//! A [`ReplicaNode`] is driven only through the methods here. Everything
//! that depends on time, placement, or fault injection is asked of the
//! backend through the statically dispatched [`Host`] trait:
//!
//! * the simulator's host (`group.rs`) turns sends, timers, crypto jobs,
//!   and register accesses into virtual-time events on the shared queue,
//!   charges calibrated costs on per-replica cursors, defers crypto-bearing
//!   engine batches behind the crypto worker, retains checkpoint snapshots,
//!   injects scheduled Byzantine behaviour, and feeds the auditor;
//! * the threaded host (`threads.rs`) turns them into in-process sends, an
//!   `Instant` timer heap, crypto-pool jobs, and memory-node RPCs, and
//!   keeps every default of the trait: real time is the cost, nothing is
//!   deferred, no snapshot is kept, no fault is injected, nothing observes.

use ubft_core::engine::{CryptoOps, DecisionRecord, Effect, Engine, TimerKind};
use ubft_core::msg::{Batch, CtbMsg, DirectMsg, Reply, Request, TbMsg};
use ubft_crypto::{Digest, Signature};
use ubft_ctb::ctbcast::{Ctb, CtbEffect, RegEntry, VerifyTag};
use ubft_ctb::tbcast::TbEffect;
use ubft_ctb::wire::{CtbWire, TbAck, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_transport::net::{LaneId, LANE_CLIENT_REQ, LANE_CLIENT_RESP, LANE_CONS_TB, LANE_DIRECT};
use ubft_types::wire::Wire;
use ubft_types::{Duration, ReplicaId, RequestId, SeqId, Slot, Time};

use crate::audit::AuditMutation;
use crate::node::{ReplicaNode, Snapshot};

/// Message lanes between nodes of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Lane {
    /// TBcast traffic of CTBcast stream `stream`.
    CtbTb { stream: usize },
    /// Consensus-level TBcast traffic.
    ConsTb,
    /// Point-to-point protocol messages.
    Direct,
    /// Client requests.
    ClientReq,
    /// Replica replies.
    ClientResp,
}

impl Lane {
    /// The lane's id in the transport's flat [`LaneId`] namespace:
    /// CTBcast stream `s` maps to lane `s`, everything else to the
    /// reserved high ids (stream counts are far below them).
    pub(crate) fn id(self) -> LaneId {
        match self {
            Lane::CtbTb { stream } => stream as LaneId,
            Lane::ConsTb => LANE_CONS_TB,
            Lane::Direct => LANE_DIRECT,
            Lane::ClientReq => LANE_CLIENT_REQ,
            Lane::ClientResp => LANE_CLIENT_RESP,
        }
    }

    /// The inverse of [`Lane::id`] for a group of `n` replicas.
    pub(crate) fn from_id(id: LaneId, n: usize) -> Option<Lane> {
        Some(match id {
            LANE_CONS_TB => Lane::ConsTb,
            LANE_DIRECT => Lane::Direct,
            LANE_CLIENT_REQ => Lane::ClientReq,
            LANE_CLIENT_RESP => Lane::ClientResp,
            s if (s as usize) < n => Lane::CtbTb { stream: s as usize },
            _ => return None,
        })
    }
}

/// A timer a replica arms through [`Host::arm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Timer {
    /// An engine timer.
    Engine(TimerKind),
    /// The slow-path trigger of own-stream CTBcast message `k`.
    CtbSlow(SeqId),
    /// The TBcast retransmission tick (also the summary-stall watchdog).
    Retransmit,
}

/// An asynchronous job a host completed on a replica's behalf.
pub(crate) enum Done {
    /// [`Host::sign`] finished.
    Signed { k: SeqId, sig: Signature },
    /// [`Host::verify`] finished.
    Verified { stream: usize, tag: VerifyTag, ok: bool },
    /// [`Host::write_register`] reached its quorum.
    Written { stream: usize, k: SeqId },
    /// [`Host::read_register`] reached its quorum: one entry per owner.
    Read { stream: usize, k: SeqId, entries: Vec<Option<RegEntry>> },
}

/// What the driver reports to [`Host::observe`] (the simulator's safety
/// auditor consumes these; a pure observer must not change the run).
pub(crate) enum Observed<'a> {
    /// The engine recorded a decision (only when auditing is configured).
    /// Reported before the decision's `Execute` effects run.
    Decision(DecisionRecord),
    /// The replica applied `applied` for request `id` in `slot`, and the
    /// application answered `response`.
    Executed { slot: Slot, id: RequestId, applied: &'a [u8], response: &'a [u8] },
    /// The replica computed its checkpoint digest at `base`.
    CheckpointDigest { base: Slot, digest: Digest },
    /// The engine adopted a certified checkpoint at `base`.
    CheckpointAdopted { base: Slot },
    /// A state transfer restored certified state.
    TransferRestored,
    /// A state transfer found no verifiable donor snapshot.
    TransferMissed,
}

/// What a backend supplies to the driver. Local indices address a group:
/// replica `r` is `r`, client `c` is `n + c`. Every `at` is the time the
/// driver is acting at (virtual on the simulator; the threaded host
/// ignores it).
///
/// The defaults are the failure-free, unmetered answers: no cost, no
/// deferral, no snapshots, no faults, no observer.
pub(crate) trait Host {
    /// Sends `bytes` on `lane` to local index `to`.
    fn send(&mut self, lane: Lane, to: usize, bytes: Vec<u8>, at: Time);
    /// Arms `timer` to fire `after` from `at`.
    fn arm(&mut self, timer: Timer, after: Duration, at: Time);
    /// Signs own-stream message `k` with fingerprint `fp`; completes as
    /// [`Done::Signed`].
    fn sign(&mut self, stream: usize, k: SeqId, fp: Digest, at: Time);
    /// Verifies `sig` over stream `stream`'s message `k`; completes as
    /// [`Done::Verified`].
    fn verify(
        &mut self,
        stream: usize,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
        at: Time,
    );
    /// Writes `bytes` into this replica's register `slot` of `stream`'s
    /// bank with timestamp `k`; completes as [`Done::Written`].
    fn write_register(&mut self, stream: usize, slot: usize, k: SeqId, bytes: Vec<u8>, at: Time);
    /// Reads every owner's register `slot` of `stream`'s bank; completes
    /// as [`Done::Read`].
    fn read_register(&mut self, stream: usize, slot: usize, k: SeqId, at: Time);

    /// Charges one dispatch plus `extra` of work to the replica's core and
    /// returns when it finishes.
    fn charge(&mut self, at: Time, extra: Duration) -> Time {
        let _ = extra;
        at
    }
    /// Takes an engine batch whose crypto work is `ops`: returns the batch
    /// and the time to apply it now, or `None` once the host deferred it
    /// (it later hands it to [`ReplicaNode::apply_engine_effects`]).
    fn engine_batch(
        &mut self,
        at: Time,
        ops: CryptoOps,
        fx: Vec<Effect>,
    ) -> Option<(Time, Vec<Effect>)> {
        let _ = ops;
        Some((at, fx))
    }
    /// Whether the replica should retain checkpoint snapshots.
    fn keeps_snapshots(&self) -> bool {
        false
    }
    /// Retains a checkpoint snapshot of this replica.
    fn retain_snapshot(&mut self, snap: Snapshot) {
        let _ = snap;
    }
    /// A live peer's snapshot matching a certified checkpoint, and what
    /// fetching it costs.
    fn fetch_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Option<(Snapshot, Duration)> {
        let _ = (base, app_digest, exec_digest);
        None
    }
    /// The Byzantine behaviour this replica is scheduled to show at `at`.
    fn byzantine(&self, at: Time) -> Option<ByzantineMode> {
        let _ = at;
        None
    }
    /// The auditor self-test mutation configured for the deployment.
    fn audit_mutation(&self) -> Option<AuditMutation> {
        None
    }
    /// Reports a protocol observation.
    fn observe(&mut self, what: Observed<'_>) {
        let _ = what;
    }
}

/// Consecutive stalled retransmission ticks before the broadcaster
/// force-converts its unsummarized CTBcast tail to the signed slow path
/// (≈ 600 µs at the default 150 µs period — far above a healthy summary
/// round trip, so failure-free runs never pay a signature).
const SUMMARY_STALL_TICKS: u32 = 4;

impl ReplicaNode {
    fn n(&self) -> usize {
        self.ctbs.len()
    }

    // ------------------------------------------------------------------
    // Engine plumbing
    // ------------------------------------------------------------------

    /// Feeds one input to the engine and interprets its effects (a crashed
    /// replica ignores every input).
    pub(crate) fn engine_call<H: Host>(
        &mut self,
        host: &mut H,
        at: Time,
        f: impl FnOnce(&mut Engine) -> Vec<Effect>,
    ) {
        if self.crashed {
            return;
        }
        let fx = f(&mut self.engine);
        let ops = self.engine.take_crypto_ops();
        for rec in self.engine.take_decisions() {
            host.observe(Observed::Decision(rec));
        }
        self.counters.engine_signs += ops.signs as u64;
        self.counters.engine_verifies += ops.verifies as u64;
        if let Some((at, fx)) = host.engine_batch(at, ops, fx) {
            self.apply_engine_effects(host, at, fx);
        }
    }

    /// Interprets an engine batch, in emission order.
    pub(crate) fn apply_engine_effects<H: Host>(
        &mut self,
        host: &mut H,
        at: Time,
        fx: Vec<Effect>,
    ) {
        if self.crashed {
            return; // the node died with its crypto queue
        }
        for e in fx {
            self.engine_effect(host, at, e);
        }
    }

    fn engine_effect<H: Host>(&mut self, host: &mut H, at: Time, e: Effect) {
        let r = self.r;
        match e {
            Effect::CtbBroadcast(msg) => {
                let (_k, cfx) = self.ctbs[r].broadcast(msg.to_bytes());
                for ce in cfx {
                    self.ctb_effect(host, r, at, ce);
                }
            }
            Effect::TbBroadcast(msg) => {
                let (_k, tfx) = self.cons_tx.broadcast(msg.to_bytes());
                self.handle_tb_effects(host, Lane::ConsTb, at, tfx);
            }
            Effect::SendReplica { to, msg } => {
                self.counters.direct_msgs += 1;
                host.send(Lane::Direct, to.0 as usize, msg.to_bytes(), at);
            }
            Effect::Execute { slot, req } => self.execute(host, at, slot, req),
            Effect::RequestSnapshot { base } => {
                let digest = self.app.snapshot_digest();
                host.observe(Observed::CheckpointDigest { base, digest });
                // The dedup table is captured at the same instant as the
                // application digest, so the certified checkpoint covers
                // the *whole* decision-relevant state.
                let table = self.engine.exec_table();
                let exec_digest = ubft_core::msg::exec_table_digest(&table);
                if host.keeps_snapshots() {
                    host.retain_snapshot(Snapshot {
                        base,
                        app_digest: digest,
                        app_bytes: self.app.snapshot_bytes(),
                        exec_table: table,
                    });
                }
                self.engine_call(host, at, |e| e.on_snapshot(base, digest, exec_digest));
            }
            Effect::StateTransfer { base, app_digest, exec_digest } => {
                self.state_transfer(host, base, app_digest, exec_digest, at);
            }
            Effect::AdoptStreams { tails } => {
                for (stream, next) in tails {
                    self.ctbs[stream.0 as usize].adopt_tail(next);
                }
            }
            Effect::ArmTimer { kind } => {
                let after = match kind {
                    // PBFT-style backoff: fruitless view changes double the
                    // watchdog period so slow view changes complete.
                    TimerKind::Progress => {
                        self.timeouts.progress * u64::from(self.engine.progress_backoff())
                    }
                    TimerKind::SlotSlowTrigger(_) => self.timeouts.slow_trigger,
                    TimerKind::EchoFallback(_) => self.timeouts.echo_fallback,
                };
                host.arm(Timer::Engine(kind), after, at);
            }
            Effect::ByzantineDetected { replica, reason } => {
                self.byz_reports.push((replica.0, reason));
            }
            Effect::CheckpointAdopted { base } => {
                host.observe(Observed::CheckpointAdopted { base })
            }
            Effect::ViewChanged { .. } => {}
        }
    }

    /// Applies a decided request, logs it, and answers its client.
    fn execute<H: Host>(&mut self, host: &mut H, at: Time, slot: Slot, req: Request) {
        let mutation = host.audit_mutation();
        // Auditor self-test mutations: deliberately corrupt this replica's
        // execution so the auditor can be shown to catch it. Never active
        // outside mutation tests.
        let corrupted = match mutation {
            Some(AuditMutation::CorruptExecution { replica })
                if replica == self.r && !req.payload.is_empty() =>
            {
                let mut p = req.payload.clone();
                p[0] ^= 0xFF;
                Some(p)
            }
            _ => None,
        };
        let applied: &[u8] = corrupted.as_deref().unwrap_or(&req.payload);
        let cost = self.app.execute_cost(applied);
        let payload = self.app.execute(applied);
        if mutation == Some(AuditMutation::DoubleExecute { replica: self.r }) {
            let _ = self.app.execute(applied);
        }
        host.observe(Observed::Executed { slot, id: req.id, applied, response: &payload });
        let done = host.charge(at, cost);
        if req.is_noop() {
            return;
        }
        self.exec_log.push((req.id.client, req.id.seq));
        if (req.id.client.0 as usize) < self.n_clients {
            let reply = Reply { id: req.id, replica: ReplicaId(self.r as u32), payload };
            // Last-reply table (one entry per client, LRU-bounded when
            // capped), so a retransmitted already-executed request can be
            // re-answered.
            let _ = self.reply_cache.insert(req.id.client, reply.clone(), |_| false);
            self.reply(host, &reply, done);
        }
    }

    fn reply<H: Host>(&mut self, host: &mut H, reply: &Reply, at: Time) {
        self.counters.rpc_msgs += 1;
        host.send(Lane::ClientResp, self.n() + reply.id.client.0 as usize, reply.to_bytes(), at);
    }

    /// Restores the application to the certified state at `base` from a
    /// live peer's retained snapshot, verified against the certified
    /// `app_digest` — the donor is not trusted.
    fn state_transfer<H: Host>(
        &mut self,
        host: &mut H,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
        at: Time,
    ) {
        if base == Slot(0) {
            return; // genesis: a replacement already boots with it
        }
        // No donor (possible only when snapshots are not retained, or after
        // extreme lag), or a donor whose state does not hash to the
        // certified digest: fall back to fast-forwarding, and surface the
        // divergence risk (the next checkpoint retries).
        let Some((snap, cost)) = host.fetch_snapshot(base, app_digest, exec_digest) else {
            self.transfer_missed(host);
            return;
        };
        self.app.restore_bytes(&snap.app_bytes);
        if self.app.snapshot_digest() != app_digest {
            self.transfer_missed(host);
            return;
        }
        host.observe(Observed::TransferRestored);
        let _ = host.charge(at, cost);
        // Hand the certified dedup table to the engine (it re-verifies
        // against the checkpoint's exec_digest and prunes bookkeeping the
        // table proves executed).
        self.engine_call(host, at, |e| e.on_exec_table(base, snap.exec_table));
    }

    fn transfer_missed<H: Host>(&mut self, host: &mut H) {
        self.transfer_misses += 1;
        host.observe(Observed::TransferMissed);
    }

    // ------------------------------------------------------------------
    // CTBcast plumbing
    // ------------------------------------------------------------------

    fn ctb_call<H: Host>(
        &mut self,
        host: &mut H,
        stream: usize,
        at: Time,
        f: impl FnOnce(&mut Ctb) -> Vec<CtbEffect>,
    ) {
        if self.crashed {
            return;
        }
        let fx = f(&mut self.ctbs[stream]);
        let done = host.charge(at, Duration::ZERO);
        for e in fx {
            self.ctb_effect(host, stream, done, e);
        }
    }

    fn ctb_effect<H: Host>(&mut self, host: &mut H, stream: usize, at: Time, e: CtbEffect) {
        match e {
            CtbEffect::Broadcast(wire) => {
                if stream == self.r
                    && host.byzantine(at) == Some(ByzantineMode::EquivocateProposals)
                    && self.equivocate_broadcast(host, at, &wire)
                {
                    return;
                }
                let (_k, tfx) = self.ctb_tx[stream].broadcast(wire.to_bytes());
                self.handle_tb_effects(host, Lane::CtbTb { stream }, at, tfx);
            }
            CtbEffect::Sign { k, fp } => {
                self.counters.ctb_signs += 1;
                host.sign(stream, k, fp, at);
            }
            CtbEffect::Verify { tag, k, fp, sig } => {
                self.counters.ctb_verifies += 1;
                host.verify(stream, tag, k, fp, sig, at);
            }
            CtbEffect::WriteRegister { slot, k, mut entry } => {
                self.counters.reg_writes += 1;
                // A register-corrupting replica stores a garbled fingerprint
                // in its own SWMR slot. Readers must treat the entry as a
                // suspect, fail its signature check, and deliver anyway
                // (§6.1: forged entries cannot block delivery).
                if host.byzantine(at) == Some(ByzantineMode::CorruptRegisters) {
                    let mut fp = *entry.fp.as_bytes();
                    fp[0] ^= 0xFF;
                    fp[31] ^= 0xFF;
                    entry.fp = Digest::from_bytes(fp);
                }
                host.write_register(stream, slot, k, entry.to_bytes(), at);
            }
            CtbEffect::ReadSlot { slot, k } => {
                self.counters.reg_reads += 1;
                host.read_register(stream, slot, k, at);
            }
            CtbEffect::Deliver { k, payload } => {
                let s = ReplicaId(stream as u32);
                match CtbMsg::from_bytes(&payload) {
                    Ok(msg) => self.engine_call(host, at, |e| e.on_ctb_deliver(s, k, msg)),
                    Err(_) => self.engine_call(host, at, |e| e.on_ctb_equivocation(s, k)),
                }
            }
            CtbEffect::Equivocation { k } => {
                let s = ReplicaId(stream as u32);
                self.engine_call(host, at, |e| e.on_ctb_equivocation(s, k));
            }
            CtbEffect::ArmSlowTimer { k } => {
                host.arm(Timer::CtbSlow(k), self.timeouts.slow_trigger, at);
            }
        }
    }

    /// Byzantine equivocation: the broadcaster of its own stream sends
    /// *different* proposals to different receivers under the same CTBcast
    /// id — the exact attack CTBcast exists to stop. Returns `true` when the
    /// frame was handled (it carried a fast-path `LOCK` of a `PREPARE`);
    /// other frames fall through to the honest path so the Byzantine replica
    /// still participates in the rest of the protocol.
    fn equivocate_broadcast<H: Host>(&mut self, host: &mut H, at: Time, wire: &CtbWire) -> bool {
        let CtbWire::Lock { m, .. } = wire else {
            return false;
        };
        let Ok(CtbMsg::Prepare(prep)) = CtbMsg::from_bytes(m) else {
            return false;
        };
        let r = self.r;
        // Register the broadcast with the honest TailBroadcaster (sequence
        // numbers, retransmission buffer, self-delivery) but discard its
        // uniform sends; hand-craft a poisoned variant for odd receivers.
        let (k, tfx) = self.ctb_tx[r].broadcast(wire.to_bytes());
        let mut alt = prep.clone();
        let mut reqs = alt.batch.requests().to_vec();
        if reqs[0].payload.is_empty() {
            reqs[0].payload.push(0xFF);
        } else {
            reqs[0].payload[0] ^= 0xFF;
        }
        alt.batch = Batch::new(reqs);
        let alt_wire = CtbWire::Lock { k, m: CtbMsg::Prepare(alt).to_bytes() };
        let lane = Lane::CtbTb { stream: r };
        for e in tfx {
            match e {
                TbEffect::SendTo { to, wire: tb } => {
                    self.counters.ctb_msgs += 1;
                    let frame = if to.0 % 2 == 1 {
                        TbFrame::Data(TbWire { k: tb.k, payload: alt_wire.to_bytes() })
                    } else {
                        TbFrame::Data(tb)
                    };
                    host.send(lane, to.0 as usize, frame.to_bytes(), at);
                }
                other => self.handle_tb_effects(host, lane, at, vec![other]),
            }
        }
        true
    }

    /// An asynchronous host job completed.
    pub(crate) fn on_done<H: Host>(&mut self, host: &mut H, done: Done, at: Time) {
        match done {
            Done::Signed { k, sig } => {
                let r = self.r;
                self.ctb_call(host, r, at, |c| c.on_sign_done(k, sig));
            }
            Done::Verified { stream, tag, ok } => {
                self.ctb_call(host, stream, at, |c| c.on_verify_done(tag, ok));
            }
            Done::Written { stream, k } => {
                self.ctb_call(host, stream, at, |c| c.on_register_written(k));
            }
            Done::Read { stream, k, entries } => {
                self.ctb_call(host, stream, at, |c| c.on_registers_read(k, entries));
            }
        }
    }

    // ------------------------------------------------------------------
    // TBcast plumbing
    // ------------------------------------------------------------------

    fn handle_tb_effects<H: Host>(
        &mut self,
        host: &mut H,
        lane: Lane,
        at: Time,
        fx: Vec<TbEffect>,
    ) {
        for e in fx {
            match e {
                TbEffect::SendTo { to, wire } => {
                    match lane {
                        Lane::CtbTb { .. } => self.counters.ctb_msgs += 1,
                        Lane::ConsTb => self.counters.cons_msgs += 1,
                        _ => {}
                    }
                    host.send(lane, to.0 as usize, TbFrame::Data(wire).to_bytes(), at);
                }
                TbEffect::SendAck { to, upto } => {
                    // Cumulative acks silence the broadcaster's
                    // retransmission of the buffered tail (§4.2).
                    host.send(lane, to.0 as usize, TbFrame::Ack(TbAck { upto }).to_bytes(), at);
                }
                TbEffect::Deliver { from, k: _, payload } => match lane {
                    Lane::CtbTb { stream } => {
                        if let Ok(wire) = CtbWire::from_bytes(&payload) {
                            self.ctb_call(host, stream, at, |c| c.on_tb_deliver(from, wire));
                        }
                    }
                    Lane::ConsTb => {
                        if let Ok(msg) = TbMsg::from_bytes(&payload) {
                            self.engine_call(host, at, |e| e.on_tb_deliver(from, msg));
                        }
                    }
                    _ => {}
                },
            }
        }
    }

    // ------------------------------------------------------------------
    // Inbound lanes and timers
    // ------------------------------------------------------------------

    /// Dispatches one message that arrived on `lane` from local index
    /// `from` (replica lanes only; replies terminate at clients).
    pub(crate) fn on_message<H: Host>(
        &mut self,
        host: &mut H,
        lane: Lane,
        from: usize,
        payload: Vec<u8>,
        at: Time,
    ) {
        let sender = ReplicaId(from as u32);
        match lane {
            Lane::CtbTb { stream } => match TbFrame::from_bytes(&payload) {
                Ok(TbFrame::Data(wire)) => {
                    let fx = self.ctb_rx[stream][from].on_wire(wire);
                    self.handle_tb_effects(host, lane, at, fx);
                }
                Ok(TbFrame::Ack(ack)) => self.ctb_tx[stream].on_ack(sender, ack.upto),
                Err(_) => {}
            },
            Lane::ConsTb => match TbFrame::from_bytes(&payload) {
                Ok(TbFrame::Data(wire)) => {
                    let fx = self.cons_rx[from].on_wire(wire);
                    self.handle_tb_effects(host, lane, at, fx);
                }
                Ok(TbFrame::Ack(ack)) => self.cons_tx.on_ack(sender, ack.upto),
                Err(_) => {}
            },
            Lane::Direct => {
                if let Ok(msg) = DirectMsg::from_bytes(&payload) {
                    // A censoring leader pretends it never saw the request:
                    // it drops follower echoes (and client requests below)
                    // but participates in everything else.
                    if matches!(msg, DirectMsg::Echo { .. })
                        && host.byzantine(at) == Some(ByzantineMode::CensorRequests)
                    {
                        return;
                    }
                    self.engine_call(host, at, |e| e.on_direct(sender, msg));
                }
            }
            Lane::ClientReq => {
                if let Ok(req) = Request::from_bytes(&payload) {
                    self.counters.rpc_msgs += 1;
                    if host.byzantine(at) == Some(ByzantineMode::CensorRequests) {
                        return;
                    }
                    // A retransmission of an already-executed request is
                    // answered from the last-reply table — the engine's
                    // dedup cannot re-execute it (PBFT's classic re-reply).
                    let cached = self
                        .reply_cache
                        .get(&req.id.client)
                        .filter(|rep| rep.id == req.id)
                        .cloned();
                    match cached {
                        Some(reply) => self.reply(host, &reply, at),
                        None => self.engine_call(host, at, |e| e.on_client_request(req)),
                    }
                }
            }
            Lane::ClientResp => {}
        }
    }

    /// A timer armed through [`Host::arm`] fired.
    pub(crate) fn on_timer<H: Host>(&mut self, host: &mut H, timer: Timer, at: Time) {
        match timer {
            Timer::Engine(kind) => self.engine_call(host, at, |e| e.on_timer(kind)),
            Timer::CtbSlow(k) => {
                let r = self.r;
                self.ctb_call(host, r, at, |c| c.on_slow_timeout(k));
            }
            Timer::Retransmit => self.on_retransmit_tick(host, at),
        }
    }

    /// One TBcast retransmission tick: every broadcaster this replica owns
    /// resends its stale unacknowledged tail (§4.2), then the tick re-arms.
    /// Also the summary-stall watchdog: a crossed-but-uncertified summary
    /// boundary that survives several ticks means some receiver cannot
    /// reach it in FIFO order (its fast-path unanimity died with a peer) —
    /// the only repair is to give the stuck suffix signed slow-path
    /// evidence, because the summary itself needs that receiver's share.
    fn on_retransmit_tick<H: Host>(&mut self, host: &mut H, at: Time) {
        if !self.crashed {
            for s in 0..self.n() {
                let fx = self.ctb_tx[s].retransmit_stale();
                self.handle_tb_effects(host, Lane::CtbTb { stream: s }, at, fx);
            }
            let fx = self.cons_tx.retransmit_stale();
            self.handle_tb_effects(host, Lane::ConsTb, at, fx);

            let sent = self.engine.ctb_sent_count();
            let done = self.engine.ctb_summarized_upto();
            if sent >= done + self.engine.summary_half() {
                self.summary_stall_ticks += 1;
                if self.summary_stall_ticks >= SUMMARY_STALL_TICKS {
                    self.summary_stall_ticks = 0;
                    let r = self.r;
                    let mut fx = Vec::new();
                    for k in done + 1..=sent {
                        fx.extend(self.ctbs[r].force_slow(SeqId(k)));
                    }
                    for e in fx {
                        self.ctb_effect(host, r, at, e);
                    }
                }
            } else {
                self.summary_stall_ticks = 0;
            }
        }
        host.arm(Timer::Retransmit, self.timeouts.retransmit, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::SimConfig;
    use crate::node::key_ring;
    use ubft_core::app::NoopApp;
    use ubft_types::ClientId;

    /// A host that performs nothing and records every request the driver
    /// makes of it; `byz` scripts the replica's Byzantine mode.
    #[derive(Default)]
    struct Recorder {
        sends: Vec<(Lane, usize, Vec<u8>)>,
        timers: Vec<Timer>,
        jobs: usize,
        byz: Option<ByzantineMode>,
    }

    impl Host for Recorder {
        fn send(&mut self, lane: Lane, to: usize, bytes: Vec<u8>, _at: Time) {
            self.sends.push((lane, to, bytes));
        }
        fn arm(&mut self, timer: Timer, _after: Duration, _at: Time) {
            self.timers.push(timer);
        }
        fn sign(&mut self, _: usize, _: SeqId, _: Digest, _: Time) {
            self.jobs += 1;
        }
        fn verify(&mut self, _: usize, _: VerifyTag, _: SeqId, _: Digest, _: Signature, _: Time) {
            self.jobs += 1;
        }
        fn write_register(&mut self, _: usize, _: usize, _: SeqId, _: Vec<u8>, _: Time) {
            self.jobs += 1;
        }
        fn read_register(&mut self, _: usize, _: usize, _: SeqId, _: Time) {
            self.jobs += 1;
        }
        fn byzantine(&self, _at: Time) -> Option<ByzantineMode> {
            self.byz
        }
    }

    impl Recorder {
        fn is_idle(&self) -> bool {
            self.sends.is_empty() && self.timers.is_empty() && self.jobs == 0
        }
    }

    const N: usize = 3;

    /// Replica 0 (the view-0 leader) of a default three-replica group.
    fn leader() -> ReplicaNode {
        let cfg = SimConfig::paper_default(1);
        assert_eq!(cfg.params.n(), N);
        ReplicaNode::new(0, &cfg, key_ring(&cfg), Box::new(NoopApp::new()))
    }

    fn request(seq: u64) -> Request {
        Request { id: RequestId::new(ClientId(0), seq), payload: vec![7; 32] }
    }

    #[test]
    fn fresh_request_reaches_the_engine() {
        let (mut node, mut host) = (leader(), Recorder::default());
        node.on_message(&mut host, Lane::ClientReq, N, request(1).to_bytes(), Time::ZERO);
        assert!(!host.is_idle(), "the leader's engine acts on a new request");
        assert!(host.sends.iter().all(|(lane, ..)| *lane != Lane::ClientResp));
    }

    #[test]
    fn executed_request_is_re_answered_from_the_reply_cache() {
        let (mut node, mut host) = (leader(), Recorder::default());
        let req = request(1);
        node.engine_effect(
            &mut host,
            Time::ZERO,
            Effect::Execute { slot: Slot(0), req: req.clone() },
        );
        assert_eq!(node.exec_log, vec![(ClientId(0), 1)]);
        let [(Lane::ClientResp, to, reply)] = &host.sends[..] else {
            panic!("one reply expected, got {:?}", host.sends.len());
        };
        assert_eq!(*to, N, "client 0 sits at local index n");
        let reply = reply.clone();

        let engine_before = node.engine.diag();
        let mut retry = Recorder::default();
        node.on_message(&mut retry, Lane::ClientReq, N, req.to_bytes(), Time::ZERO);
        assert_eq!(retry.sends, vec![(Lane::ClientResp, N, reply)]);
        assert!(retry.timers.is_empty() && retry.jobs == 0, "the engine was not called");
        assert_eq!(node.engine.diag(), engine_before);
        assert_eq!(node.exec_log.len(), 1, "nothing re-executed");
        // Two replies and one request crossed the client lanes.
        assert_eq!(node.counters.rpc_msgs, 3);
    }

    #[test]
    fn noop_execute_neither_logs_nor_replies() {
        let (mut node, mut host) = (leader(), Recorder::default());
        let req = Request::noop(Slot(4));
        node.engine_effect(&mut host, Time::ZERO, Effect::Execute { slot: Slot(4), req });
        assert!(node.exec_log.is_empty());
        assert!(node.reply_cache.is_empty());
        assert!(host.is_idle());
    }

    #[test]
    fn censoring_host_keeps_requests_from_the_engine() {
        let mut node = leader();
        let mut host = Recorder { byz: Some(ByzantineMode::CensorRequests), ..Recorder::default() };
        node.on_message(&mut host, Lane::ClientReq, N, request(1).to_bytes(), Time::ZERO);
        assert!(host.is_idle());
        assert_eq!(node.counters.rpc_msgs, 1, "the request still arrived");
    }

    #[test]
    fn crashed_replica_ignores_input_but_keeps_ticking() {
        let (mut node, mut host) = (leader(), Recorder::default());
        node.crashed = true;
        node.on_message(&mut host, Lane::ClientReq, N, request(1).to_bytes(), Time::ZERO);
        node.on_timer(&mut host, Timer::Engine(TimerKind::Progress), Time::ZERO);
        assert!(host.is_idle());
        node.on_timer(&mut host, Timer::Retransmit, Time::ZERO);
        assert!(host.sends.is_empty());
        assert_eq!(host.timers, vec![Timer::Retransmit]);
    }

    #[test]
    fn lane_ids_round_trip() {
        let lanes = [
            Lane::CtbTb { stream: 0 },
            Lane::CtbTb { stream: N - 1 },
            Lane::ConsTb,
            Lane::Direct,
            Lane::ClientReq,
            Lane::ClientResp,
        ];
        for lane in lanes {
            assert_eq!(Lane::from_id(lane.id(), N), Some(lane));
        }
        assert_eq!(Lane::from_id(N as LaneId, N), None, "no stream beyond the group");
    }
}
