//! The outside-in replay: re-execute the exact blocks the wire run
//! committed, on a fresh node built by the same bootstrap, calling each
//! layer's public functions in the order the server does and timing each
//! call as one span. No tracing runs inside the program.
//!
//! Per block, as the single-node pipeline does it: decode each request
//! frame, open its envelope and verify its signature, pre-verify it,
//! plan it, execute it, then execute the block, and make the block's WAL
//! delta durable. Around that the replay also times, on copies, what the
//! node does inside the block: the state root (`StateDb::apply_block` of
//! the block's batch on a mirror state), AES-GCM sealing at the block's
//! receipt and state sizes, and, for the confidential workloads, the
//! PBFT round on four in-memory replicas.

use crate::boot::bootstrap_node;
use crate::gen::Inputs;
use crate::spec::Spec;
use crate::trace::Tracer;
use confide_consensus::{Action, Keyring, Replica, ReplicaConfig, SignedPeerMsg};
use confide_core::context::ExecContext;
use confide_core::node::{ConfideNode, SchedMode, TxOutcome};
use confide_core::tx::{SignedTx, WireTx};
use confide_crypto::{AesGcm, HmacDrbg, VerifyingKey};
use confide_net::demo::{cluster_platform, demo_keys};
use confide_net::frame::read_frame;
use confide_net::{ClusterConfig, Message, DEFAULT_MAX_FRAME};
use confide_storage::{BlockWal, KvStore, StateDb, WalBlock, WalFile};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// What one replay did, beyond its spans.
pub struct Replay {
    /// Wall time of the block loop (bootstrap excluded).
    pub wall_ns: u64,
    /// Blocks and transactions replayed within the compared height range.
    pub range_blocks: u64,
    pub range_txs: u64,
    /// All replayed blocks and transactions.
    pub blocks: u64,
    pub txs: u64,
    pub final_height: u64,
    pub final_root: [u8; 32],
    /// Blocks the executor scheduled statically (no speculation).
    pub static_blocks: u64,
    /// State keys added by the replayed blocks.
    pub keys_added: u64,
    /// WAL bytes made durable by the replayed blocks.
    pub wal_bytes: u64,
    /// Consensus messages and bytes sent by the in-memory replicas.
    pub msgs: u64,
    pub msg_bytes: u64,
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Everything the per-layer calls need beyond the node.
struct Layers {
    keys: confide_core::keys::NodeKeys,
    gcm: AesGcm,
    mirror: StateDb,
    walfile: WalFile,
    wal_path: std::path::PathBuf,
    mesh: Option<Mesh>,
    scratch_rng: HmacDrbg,
    nonce: u64,
}

/// Replay the blocks of `wal` above `genesis_height` and check every
/// root against the wire node's headers. `range` is the `(from, to]`
/// height span whose counts are reported in `range_*`. Without `layers`
/// the replay only re-executes each block (the correctness check of an
/// untraced run); with it, every layer call above runs too.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    spec: &Spec,
    seed: u64,
    inputs: &Inputs,
    wal: &[u8],
    genesis_height: u64,
    range: (u64, u64),
    dir: &Path,
    layers: bool,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let rec = BlockWal::recover(wal);
    check(rec.torn_bytes == 0, || "wire WAL has a torn tail".into())?;
    let mut node = bootstrap_node(seed, inputs);
    check(node.blocks.height() == genesis_height, || {
        format!("replay bootstrap reached height {}", node.blocks.height())
    })?;
    let mut lay = if layers {
        let mut mirror = StateDb::new();
        for wb in rec
            .blocks
            .iter()
            .filter(|b| b.header.height <= genesis_height)
        {
            mirror
                .apply_block(wb.header.height, &wb.batch)
                .map_err(|e| format!("mirror genesis: {e:?}"))?;
        }
        check(mirror.root() == node.state_root(), || {
            "replay bootstrap root differs from the wire node's genesis".into()
        })?;
        let keys = demo_keys(seed);
        let wal_path = dir.join("replay.wal");
        let _ = std::fs::remove_file(&wal_path);
        Some(Layers {
            gcm: AesGcm::new(&keys.k_states).map_err(|e| e.to_string())?,
            keys,
            mirror,
            walfile: WalFile::open(&wal_path).map_err(|e| e.to_string())?,
            wal_path,
            // Confidential blocks are also ordered through four in-memory
            // replicas, so the consensus layers are measured on
            // `conf_fresh`; `pub_100k` is the workload without them.
            mesh: spec.confidential.then(|| Mesh::new(seed, genesis_height)),
            scratch_rng: HmacDrbg::from_u64(seed),
            nonce: 0,
        })
    } else {
        None
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(confide_net::ServerConfig::default().exec_threads);
    let mut out = Replay {
        wall_ns: 0,
        range_blocks: 0,
        range_txs: 0,
        blocks: 0,
        txs: 0,
        final_height: genesis_height,
        final_root: node.state_root(),
        static_blocks: 0,
        keys_added: 0,
        wal_bytes: 0,
        msgs: 0,
        msg_bytes: 0,
    };
    let t0 = Instant::now();
    for wb in rec
        .blocks
        .iter()
        .filter(|b| b.header.height > genesis_height)
    {
        let h = wb.header.height;
        let block = tr.begin("replay.block", h, None);
        let mut wires = Vec::with_capacity(wb.txs.len());
        for (i, bytes) in wb.txs.iter().enumerate() {
            wires.push(WireTx::decode(bytes).map_err(|e| format!("block {h} tx {i}: {e:?}"))?);
        }
        if let Some(lay) = lay.as_mut() {
            wires = ingress(&node, lay, wires, tr, h)?;
        }
        let (res, delta) = tr
            .span("node.execute_block", h, None, || {
                node.execute_block_staged(&wires, threads, SchedMode::Static)
            })
            .map_err(|e| format!("block {h}: {e}"))?;
        check(res.accepted() == wires.len(), || {
            format!("block {h}: {} of {} accepted", res.accepted(), wires.len())
        })?;
        check(node.state_root() == wb.header.state_root, || {
            format!("block {h}: replay root differs from the wire node's")
        })?;
        out.static_blocks += u64::from(res.report.static_schedule);
        if let Some(lay) = lay.as_mut() {
            inside_block(lay, wb, &res.outcomes, &delta.bytes, tr, &mut out)?;
        }
        tr.end(block);
        out.blocks += 1;
        out.txs += wires.len() as u64;
        if h > range.0 && h <= range.1 {
            out.range_blocks += 1;
            out.range_txs += wires.len() as u64;
        }
        out.final_height = h;
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.final_root = node.state_root();
    if let Some(lay) = lay {
        if let Some(mesh) = lay.mesh {
            out.msgs = mesh.msgs;
            out.msg_bytes = mesh.bytes;
        }
        drop(lay.walfile);
        let _ = std::fs::remove_file(&lay.wal_path);
    }
    Ok(out)
}

/// The calls a request meets before its block executes: frame decode,
/// envelope open and signature verify, then the engine's pre-verify, plan
/// and per-transaction execute. Returns the transactions as decoded from
/// their frames.
fn ingress(
    node: &ConfideNode,
    lay: &mut Layers,
    wires: Vec<WireTx>,
    tr: &mut Tracer,
    h: u64,
) -> Result<Vec<WireTx>, String> {
    let mut decoded = Vec::with_capacity(wires.len());
    for (i, tx) in wires.into_iter().enumerate() {
        let frame = Message::SubmitTxWait(tx).to_frame();
        let msg = tr.span("frame.decode", h, Some(i), || {
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME)
        });
        let Ok(Some(Message::SubmitTxWait(tx))) = msg else {
            return Err(format!("block {h} tx {i}: frame does not decode"));
        };
        decoded.push(tx);
    }
    for (i, tx) in decoded.iter().enumerate() {
        let signed = match tx {
            WireTx::Confidential(env) => {
                let (_, plain) = tr
                    .span("envelope.open", h, Some(i), || {
                        env.open(&lay.keys.envelope, b"")
                    })
                    .map_err(|e| format!("block {h} tx {i}: envelope: {e:?}"))?;
                SignedTx::decode(&plain).map_err(|e| format!("tx body: {e:?}"))?
            }
            WireTx::Public(signed) => signed.clone(),
        };
        tr.span("ed25519.verify", h, Some(i), || signed.verify())
            .map_err(|e| format!("block {h} tx {i}: signature: {e:?}"))?;
    }
    let conf = &node.confidential_engine;
    for (i, tx) in decoded.iter().enumerate() {
        if matches!(tx, WireTx::Confidential(_)) {
            tr.span("engine.preverify", h, Some(i), || conf.preverify(tx))
                .map_err(|e| format!("block {h} tx {i}: preverify: {e}"))?;
        }
    }
    let engine_of = |tx: &WireTx| match tx {
        WireTx::Public(_) => &node.public_engine,
        WireTx::Confidential(_) => &node.confidential_engine,
    };
    for (i, tx) in decoded.iter().enumerate() {
        let engine = engine_of(tx);
        tr.span("engine.plan", h, Some(i), || engine.plan_tx(tx));
    }
    // Execute each transaction once more on a scratch context against the
    // pre-block state (same order, so nonces line up), then put back the
    // pre-verification entries that execution consumed.
    let mut scratch = [ExecContext::new(), ExecContext::new()];
    for (i, tx) in decoded.iter().enumerate() {
        let engine = engine_of(tx);
        let ctx = &mut scratch[usize::from(matches!(tx, WireTx::Confidential(_)))];
        let rng = &mut lay.scratch_rng;
        tr.span("engine.execute", h, Some(i), || {
            engine.execute_transaction(&node.state, ctx, tx, rng)
        })
        .map_err(|e| format!("block {h} tx {i}: execute: {e}"))?;
    }
    for (i, tx) in decoded.iter().enumerate() {
        if matches!(tx, WireTx::Confidential(_)) {
            tr.span("replay.refill", h, Some(i), || conf.preverify(tx))
                .map_err(|e| format!("block {h} tx {i}: preverify: {e}"))?;
        }
    }
    Ok(decoded)
}

/// What the node does inside and after a block, timed on copies: AES-GCM
/// at the block's sizes, the state root on the mirror, the WAL fsync of
/// the block's delta, and (confidential workloads) the PBFT round.
fn inside_block(
    lay: &mut Layers,
    wb: &WalBlock,
    outcomes: &[TxOutcome],
    delta: &[u8],
    tr: &mut Tracer,
    out: &mut Replay,
) -> Result<(), String> {
    let h = wb.header.height;
    // Each sealed receipt, and each state value a confidential block
    // writes (receipt and dedup-index records excepted). Sealed sizes
    // carry a 12-byte nonce and a 16-byte tag.
    let receipts: Vec<usize> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok()?.1.as_ref().map(|s| s.len()))
        .collect();
    if !receipts.is_empty() {
        let mut sizes = receipts;
        sizes.extend(wb.batch.ops.iter().filter_map(|(k, v)| {
            let index = k.starts_with(b"receipt|") || k.starts_with(b"wiretx|");
            v.as_ref().filter(|_| !index).map(|v| v.len())
        }));
        let buf = vec![0u8; sizes.iter().copied().max().unwrap_or(0)];
        for len in sizes.into_iter().filter(|&l| l >= 28) {
            lay.nonce += 1;
            let mut n = [0u8; 12];
            n[..8].copy_from_slice(&lay.nonce.to_le_bytes());
            let gcm = &lay.gcm;
            tr.span("gcm.seal", h, None, || gcm.seal(&n, b"", &buf[..len - 28]));
        }
    }
    let before = lay.mirror.kv().len();
    let mirror = &mut lay.mirror;
    let root = tr
        .span("state.root", h, None, || mirror.apply_block(h, &wb.batch))
        .map_err(|e| format!("mirror block {h}: {e:?}"))?;
    check(root == wb.header.state_root, || {
        format!("block {h}: mirror root differs from the header")
    })?;
    out.keys_added += (lay.mirror.kv().len() - before) as u64;
    let walfile = &mut lay.walfile;
    tr.span("wal.fsync", h, None, || walfile.commit_group(&[delta]))
        .map_err(|e| format!("replay WAL: {e}"))?;
    out.wal_bytes += delta.len() as u64;
    if let Some(mesh) = lay.mesh.as_mut() {
        mesh.block(wb.txs.clone(), wb.header.state_root, tr, h)?;
    }
    Ok(())
}

/// Four PBFT replicas of the demo consortium on an in-memory queue,
/// signing and verifying every envelope as the members of a cluster do.
struct Mesh {
    replicas: Vec<Replica>,
    keys: Vec<VerifyingKey>,
    msgs: u64,
    bytes: u64,
}

impl Mesh {
    fn new(seed: u64, height: u64) -> Mesh {
        let peers: Vec<String> = (0..4).map(|i| format!("replica-{i}")).collect();
        let demo = ClusterConfig::demo(0, peers, seed);
        let replicas = (0..4u32)
            .map(|id| {
                let cfg = ReplicaConfig {
                    node_id: id,
                    n: 4,
                    view_timeout_ms: demo.view_timeout_ms,
                    heartbeat_ms: demo.heartbeat_ms,
                    max_inflight: demo.max_inflight,
                    timeout_jitter_ms: demo.timeout_jitter_ms,
                };
                let ring = Keyring::new(
                    cluster_platform(seed, id).consensus_signing_key(),
                    demo.consensus_keys.clone(),
                );
                Replica::with_height(cfg, ring, height, 0)
            })
            .collect();
        Mesh {
            replicas,
            keys: demo.consensus_keys,
            msgs: 0,
            bytes: 0,
        }
    }

    /// Order one block: the leader proposes, every message is signed,
    /// sent, verified and handled until all four replicas commit it.
    fn block(
        &mut self,
        txs: Vec<Vec<u8>>,
        root: [u8; 32],
        tr: &mut Tracer,
        h: u64,
    ) -> Result<(), String> {
        let mut queue: VecDeque<(usize, SignedPeerMsg)> = VecDeque::new();
        let mut committed = 0usize;
        let leader = &mut self.replicas[0];
        let acts = tr
            .span("consensus.replica", h, None, || leader.propose(txs, 0))
            .map_err(|e| format!("block {h}: propose: {e}"))?;
        self.act(0, acts, root, tr, h, &mut queue, &mut committed)?;
        while let Some((to, signed)) = queue.pop_front() {
            let keys = &self.keys;
            tr.span("consensus.msg_verify", h, None, || signed.verify(keys))
                .map_err(|e| format!("block {h}: peer message: {e:?}"))?;
            let replica = &mut self.replicas[to];
            let acts = tr.span("consensus.replica", h, None, || {
                replica.on_msg(signed.from, signed.msg, 0)
            });
            self.act(to, acts, root, tr, h, &mut queue, &mut committed)?;
        }
        check(committed == self.replicas.len(), || {
            format!("block {h}: {committed} of 4 replicas committed")
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn act(
        &mut self,
        from: usize,
        acts: Vec<Action>,
        root: [u8; 32],
        tr: &mut Tracer,
        h: u64,
        queue: &mut VecDeque<(usize, SignedPeerMsg)>,
        committed: &mut usize,
    ) -> Result<(), String> {
        for act in acts {
            match act {
                Action::Broadcast(msg) => {
                    let me = &self.replicas[from];
                    let signed = tr.span("consensus.msg_sign", h, None, || me.sign(msg));
                    let len = signed.encode().len() as u64;
                    for to in (0..self.replicas.len()).filter(|&to| to != from) {
                        self.msgs += 1;
                        self.bytes += len;
                        queue.push_back((to, signed.clone()));
                    }
                }
                Action::Send(to, msg) => {
                    let me = &self.replicas[from];
                    let signed = tr.span("consensus.msg_sign", h, None, || me.sign(msg));
                    self.msgs += 1;
                    self.bytes += signed.encode().len() as u64;
                    queue.push_back((to as usize, signed));
                }
                Action::Execute { seq, .. } => {
                    let me = &mut self.replicas[from];
                    let more = tr.span("consensus.replica", h, None, || {
                        me.on_executed(seq, root, 0)
                    });
                    self.act(from, more, root, tr, h, queue, committed)?;
                }
                Action::CommittedLocal { cert, .. } => {
                    let keys = &self.keys;
                    tr.span("consensus.cert_verify", h, None, || cert.verify(4, keys))
                        .map_err(|e| format!("block {h}: quorum cert: {e:?}"))?;
                    *committed += 1;
                }
                other => return Err(format!("block {h}: unexpected consensus action {other:?}")),
            }
        }
        Ok(())
    }
}
