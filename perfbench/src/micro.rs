//! Layer microbenchmarks: each times public functions of one crate in a
//! tight loop, on the payload size of the workload being run.

use std::hint::black_box;
use std::time::Instant;

use ubft::core::{Reply, Request};
use ubft::crypto::KeyRing;
use ubft::ctb::wire::{fingerprint, signed_bytes};
use ubft::ctb::{RegEntry, TailBroadcaster, TailReceiver, TbEffect};
use ubft::dmem::{ReadOutcome, RegisterBank, RegisterId, WriteOutcome};
use ubft::rdma::Fabric;
use ubft::runtime::SimConfig;
use ubft::sim::{HostId, NetworkModel, SimRng};
use ubft::transport::inproc::{inproc_mesh, InMsg};
use ubft::transport::net::LANE_CLIENT_REQ;
use ubft::types::wire::Wire;
use ubft::types::{ClientId, ProcessId, ReplicaId, RequestId, SeqId, Time};

use crate::trace::now_ns;

/// Timed batches per microbenchmark; the median batch is reported.
const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of `ops` calls of the mean time per call
/// of `op`, in nanoseconds (one untimed batch first).
fn per_op_ns(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut batches: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .skip(1)
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

/// One-way hops through an idle two-node `inproc_mesh`: each message is a
/// send followed by the peer waking in `recv_timeout`, and the sender waits
/// for the echo before the next, so the receiver is always idle. Returns
/// every hop's latency in nanoseconds.
pub fn transport_hops(payload_bytes: usize, round_trips: usize) -> Vec<u64> {
    let (_router, mut eps) = inproc_mesh::<()>(2);
    let b = eps.pop().expect("two endpoints");
    let a = eps.pop().expect("two endpoints");
    let stamp = || {
        let mut p = vec![0u8; payload_bytes.max(8)];
        p[..8].copy_from_slice(&now_ns().to_le_bytes());
        p
    };
    let hop = |p: &[u8]| now_ns() - u64::from_le_bytes(p[..8].try_into().expect("8 bytes"));
    let wait = std::time::Duration::from_secs(5);
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let mut hops = Vec::with_capacity(round_trips);
            while let Some(InMsg::Net(m)) = b.recv_timeout(wait) {
                hops.push(hop(&m.payload));
                if hops.len() == round_trips {
                    break;
                }
                b.router().send_net(LANE_CLIENT_REQ, 1, 0, stamp());
            }
            hops
        });
        let mut hops = Vec::with_capacity(2 * round_trips);
        for i in 0..round_trips {
            a.router().send_net(LANE_CLIENT_REQ, 0, 1, stamp());
            if i + 1 == round_trips {
                break;
            }
            match a.recv_timeout(wait) {
                Some(InMsg::Net(m)) => hops.push(hop(&m.payload)),
                _ => break,
            }
        }
        hops.extend(echo.join().expect("echo thread"));
        hops
    })
}

/// `(sign_ns, verify_ns)`: `KeyRing` signing and verification of the
/// CTBcast signed bytes of `payload`.
pub fn crypto(seed: u64, payload: &[u8], ops: usize) -> (f64, f64) {
    let me = ProcessId::Replica(ReplicaId(0));
    let ring = KeyRing::generate(seed, (0..3).map(|i| ProcessId::Replica(ReplicaId(i))));
    let signer = ring.signer(me).expect("replica 0 has a key");
    let fp = fingerprint(payload);
    let msgs: Vec<Vec<u8>> =
        (0..ops).map(|k| signed_bytes(ReplicaId(0), SeqId(k as u64 + 1), &fp)).collect();
    let sigs: Vec<_> = msgs.iter().map(|m| signer.sign(m)).collect();
    let sign = per_op_ns(ops, |i| {
        black_box(signer.sign(black_box(&msgs[i])));
    });
    let verify = per_op_ns(ops, |i| {
        assert!(ring.verify(me, black_box(&msgs[i]), &sigs[i]), "own signature verifies");
    });
    (sign, verify)
}

/// A `Request` plus its `Reply` encoded and decoded, per request.
pub fn codec(payload: &[u8], ops: usize) -> f64 {
    per_op_ns(ops, |i| {
        let id = RequestId::new(ClientId(0), i as u64);
        let req = Request { id, payload: payload.to_vec() }.to_bytes();
        let req = Request::from_bytes(black_box(&req)).expect("request decodes");
        let reply = Reply { id, replica: ReplicaId(1), payload: req.payload }.to_bytes();
        black_box(Reply::from_bytes(black_box(&reply)).expect("reply decodes"));
    })
}

/// One `TailBroadcaster::broadcast` delivered to two peers through
/// `TailReceiver::on_wire`, their acks fed back.
pub fn tail_broadcast(cfg: &SimConfig, payload: &[u8], ops: usize) -> f64 {
    let cap = 2 * cfg.params.tail;
    let peers = [ReplicaId(1), ReplicaId(2)];
    let mut tx = TailBroadcaster::new(ReplicaId(0), peers.to_vec(), cap);
    let mut rx: Vec<TailReceiver> =
        peers.iter().map(|_| TailReceiver::new(ReplicaId(0), cap)).collect();
    per_op_ns(ops, |_| {
        let (_, fx) = tx.broadcast(payload.to_vec());
        for e in fx {
            if let TbEffect::SendTo { to, wire } = e {
                for back in rx[to.0 as usize - 1].on_wire(wire) {
                    if let TbEffect::SendAck { upto, .. } = back {
                        tx.on_ack(to, upto);
                    }
                }
            }
        }
    })
}

/// `(write_ns, read_ns)`: `RegisterWriter::write` and
/// `RegisterReader::read` of a CTBcast register entry on a simulated
/// fabric with `2f_m + 1` memory nodes.
pub fn registers(cfg: &SimConfig, seed: u64, ops: usize) -> (f64, f64) {
    let n = cfg.params.n();
    let mems: Vec<HostId> = (0..cfg.params.n_mem()).map(|m| HostId((n + m) as u32)).collect();
    let net = NetworkModel::synchronous(cfg.latency.clone(), n + mems.len());
    let mut fabric = Fabric::new(net, SimRng::new(seed));
    let regs = cfg.params.tail;
    let bank =
        RegisterBank::create(&mut fabric, &mems, regs, RegEntry::encoded_size(), cfg.params.delta);
    let mut writer = bank.writer();
    let reader = bank.reader();
    let value = vec![0xA5u8; RegEntry::encoded_size()];
    let mut now = Time::ZERO;
    let mut ts = 0u64;
    let write = per_op_ns(ops, |i| {
        ts += 1;
        match writer.write(&mut fabric, HostId(0), RegisterId(i % regs), ts, &value, now) {
            WriteOutcome::Done(t) => now = t,
            other => panic!("register write failed: {other:?}"),
        }
    });
    now += cfg.params.delta;
    let read =
        per_op_ns(ops, |i| match reader.read(&mut fabric, HostId(1), RegisterId(i % regs), now) {
            ReadOutcome::Value { completion, .. } => now = completion,
            other => panic!("register read failed: {other:?}"),
        });
    (write, read)
}
