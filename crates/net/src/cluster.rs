//! The wire-level PBFT cluster runtime: the glue between the
//! transport-agnostic [`confide_consensus::Replica`] state machine and a
//! real [`crate::server::NodeServer`] process.
//!
//! Three pieces live here:
//!
//! * [`ClusterConfig`] — who the peers are, which TEE platform this node
//!   quotes from, and which attestation roots it will trust for the mesh.
//! * [`ClusterShared`] — lock-free counters the connection handlers read
//!   (current view/leader for `NotPrimary` redirects, view-change and
//!   state-sync totals for [`crate::frame::NodeStatus`]).
//! * the **cluster driver** ([`cluster_loop`]) — the thread that replaces
//!   the single-node block pipeline when
//!   [`crate::server::ServerConfig::cluster`] is set. It owns the replica
//!   state machine, batches client jobs into proposals when it is the
//!   leader, executes committed blocks through `execute_block_parallel`
//!   and fsyncs their WAL records, and runs the StateSync client when it
//!   falls behind.
//!
//! ## Attested mesh
//!
//! Peer connections are ordinary T-Protocol connections that first run
//! the K-Protocol MAP join ([`crate::client::Conn::rejoin`]): the dialer
//! quotes its KM enclave, the acceptor counter-quotes and wraps the
//! consortium keys, and the dialer checks the unwrapped `pk_tx` equals
//! its own. Only after that exchange does the acceptor mark the
//! connection *attested* and accept [`crate::frame::Message::Peer`] or
//! `StateSyncReq` frames on it — an unattested socket cannot inject
//! consensus traffic or read the raw WAL. Attestation narrows the fault
//! model but does not eliminate misbehaviour: a compromised host can
//! still replay, delay or mutate traffic around its enclave. Every
//! consensus message therefore travels in a [`SignedPeerMsg`] envelope
//! under the member's enclave-held consensus key, commits carry signed
//! votes that fold into persisted [`QuorumCert`]s, and conflicting signed
//! messages become transferable [`Evidence`] (see `crates/consensus`).
//! The driver can also *play* the Byzantine side: [`ByzantinePreset`]
//! intercepts outbound traffic to equivocate, split votes, corrupt
//! proposals or go silent — the chaos harness the e2e tests drive.

use crate::client::{Conn, NetError};
use crate::frame::Message;
use crate::server::{InFlight, Job, ServerConfig, ServerStats};
use confide_consensus::evidence::{append_framed, read_framed};
use confide_consensus::{
    primary_of, Action, Evidence, Keyring, PeerMsg, ProposeError, QuorumCert, Replica,
    ReplicaConfig, SignedPeerMsg,
};
use confide_core::node::ConfideNode;
use confide_core::tx::WireTx;
use confide_crypto::ed25519::VerifyingKey;
use confide_tee::platform::TeePlatform;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outbound per-peer queue depth. Consensus messages are small and
/// retransmission is built into the protocol (heartbeats, re-broadcast on
/// timeout), so a full queue drops the oldest traffic rather than
/// blocking the driver.
const PEER_QUEUE: usize = 1024;

/// Max WAL bytes served per `StateSyncResp` chunk. Sized so a chunk plus
/// its certificate payload stays well under the 1 MiB frame ceiling.
pub const SYNC_CHUNK_MAX: u32 = 256 * 1024;

/// Max bytes of encoded quorum certificates attached to one sync chunk.
/// A joiner that needs more certs than fit simply re-requests: it only
/// applies the cert-covered prefix, so the next request's `have_height`
/// picks up where the budget ran out.
pub const SYNC_CERT_BUDGET: usize = 300 * 1024;

/// A scripted misbehaviour the driver injects into its *outbound*
/// consensus traffic (inbound handling stays honest, so the faulty node's
/// local state remains well-defined). Used by `confide-node --byzantine`
/// and the chaos e2e tests; composes with [`crate::fault::FaultProxy`]
/// for network-level faults on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantinePreset {
    /// As leader, send one proposal to half the peers and a different
    /// (reordered/padded) proposal for the same (view, seq) to the rest —
    /// the classic equivocation the evidence machinery exists to catch.
    Equivocate,
    /// Send conflicting Prepare/Commit digests to different peers.
    ConflictingVote,
    /// As leader, broadcast proposals whose transaction bytes are
    /// corrupted relative to the copy it executes itself.
    CorruptProposal,
    /// As leader, send nothing at all (no proposals, no heartbeats) and
    /// force the followers to elect around the silence.
    SilentLeader,
}

impl std::str::FromStr for ByzantinePreset {
    type Err = String;
    fn from_str(s: &str) -> Result<ByzantinePreset, String> {
        match s {
            "equivocate" => Ok(ByzantinePreset::Equivocate),
            "conflicting-vote" => Ok(ByzantinePreset::ConflictingVote),
            "corrupt-proposal" => Ok(ByzantinePreset::CorruptProposal),
            "silent-leader" => Ok(ByzantinePreset::SilentLeader),
            other => Err(format!(
                "unknown byzantine preset {other:?} (want equivocate, conflicting-vote, \
                 corrupt-proposal or silent-leader)"
            )),
        }
    }
}

/// Membership + identity of one node in a wire cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// This node's index into `peers`.
    pub node_id: u32,
    /// Advertised `host:port` of every node, indexed by node id (this
    /// node's own entry included — it is what `NotPrimary` redirects
    /// carry when this node leads).
    pub peers: Vec<String>,
    /// The TEE platform this node quotes from when dialling peers.
    pub platform: Arc<TeePlatform>,
    /// Attestation root of every peer's platform, indexed by node id.
    /// The mesh dialer verifies peer `i`'s counter-quote against
    /// `peer_roots[i]`; the server side accepts joins from any of them.
    pub peer_roots: Vec<VerifyingKey>,
    /// Consensus verifying key of every member, indexed by node id — the
    /// consortium roster the replica authenticates peer messages and
    /// quorum certificates against. Derived from each member's platform
    /// provisioning ([`TeePlatform::consensus_public_key`]).
    pub consensus_keys: Vec<VerifyingKey>,
    /// SVN this node's KM enclave quotes at.
    pub svn: u16,
    /// Minimum SVN accepted from peers.
    pub min_svn: u16,
    /// Leader heartbeat period (ms).
    pub heartbeat_ms: u64,
    /// Follower silence window before a view change starts (ms).
    pub view_timeout_ms: u64,
    /// Consensus pipelining window (blocks proposed but not committed).
    pub max_inflight: u64,
    /// Spread for the deterministic per-node view-timeout jitter
    /// ([`confide_consensus::timeout_jitter`]): staggers follower
    /// timeouts so one election round usually settles a dead leader.
    pub timeout_jitter_ms: u64,
    /// Base seed for the joiner side of mesh attestation handshakes
    /// (mixed with a dial counter so ephemeral keys never repeat).
    pub rejoin_seed: u64,
    /// Scripted misbehaviour to inject into outbound consensus traffic
    /// (`None` = honest). See [`ByzantinePreset`].
    pub byzantine: Option<ByzantinePreset>,
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("node_id", &self.node_id)
            .field("peers", &self.peers)
            .field("svn", &self.svn)
            .field("min_svn", &self.min_svn)
            .field("heartbeat_ms", &self.heartbeat_ms)
            .field("view_timeout_ms", &self.view_timeout_ms)
            .field("max_inflight", &self.max_inflight)
            .field("timeout_jitter_ms", &self.timeout_jitter_ms)
            .field("byzantine", &self.byzantine)
            .finish_non_exhaustive()
    }
}

impl ClusterConfig {
    /// Cluster size.
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// Demo-consortium cluster config: deterministic per-node platforms
    /// derived from `cluster_seed` (see [`crate::demo::cluster_platform`]),
    /// so every node can compute every peer's attestation root without
    /// talking to it. Timeouts default to localhost-friendly values.
    pub fn demo(node_id: u32, peers: Vec<String>, cluster_seed: u64) -> ClusterConfig {
        let peer_roots = (0..peers.len() as u32)
            .map(|id| crate::demo::cluster_platform(cluster_seed, id).attestation_public_key())
            .collect();
        let consensus_keys = (0..peers.len() as u32)
            .map(|id| crate::demo::cluster_platform(cluster_seed, id).consensus_public_key())
            .collect();
        ClusterConfig {
            node_id,
            platform: crate::demo::cluster_platform(cluster_seed, node_id),
            peer_roots,
            consensus_keys,
            peers,
            svn: 1,
            min_svn: 1,
            heartbeat_ms: 150,
            view_timeout_ms: 1200,
            max_inflight: 4,
            timeout_jitter_ms: 250,
            rejoin_seed: cluster_seed ^ 0x6d65_7368, // "mesh"
            byzantine: None,
        }
    }
}

/// Live cluster state shared between the driver and connection handlers.
#[derive(Debug)]
pub struct ClusterShared {
    /// This node's id.
    pub node_id: u32,
    /// Current view number.
    pub view: AtomicU64,
    /// Current leader's node id.
    pub leader: AtomicU32,
    /// View changes this node has participated in.
    pub view_changes: AtomicU64,
    /// Blocks applied through StateSync catch-up.
    pub sync_blocks: AtomicU64,
    /// Equivocation evidence records this node has persisted.
    pub evidence: AtomicU64,
    peers: Vec<String>,
}

impl ClusterShared {
    pub(crate) fn new(cfg: &ClusterConfig) -> ClusterShared {
        ClusterShared {
            node_id: cfg.node_id,
            view: AtomicU64::new(0),
            leader: AtomicU32::new(primary_of(0, cfg.n())),
            view_changes: AtomicU64::new(0),
            sync_blocks: AtomicU64::new(0),
            evidence: AtomicU64::new(0),
            peers: cfg.peers.clone(),
        }
    }

    /// The advertised address of the current leader (for `NotPrimary`).
    pub fn leader_addr(&self) -> String {
        let id = self.leader.load(Ordering::Relaxed) as usize;
        self.peers
            .get(id % self.peers.len().max(1))
            .cloned()
            .unwrap_or_default()
    }

    /// Does this node currently believe it is the leader?
    pub fn is_leader(&self) -> bool {
        self.leader.load(Ordering::Relaxed) == self.node_id
    }
}

/// Outbound half of the peer mesh: one sender thread per peer, each
/// owning its socket, re-dialling (with the attestation handshake) on
/// failure. Sends never block the driver; a full queue drops.
struct PeerMesh {
    queues: Vec<Option<SyncSender<SignedPeerMsg>>>,
    threads: Vec<JoinHandle<()>>,
}

impl PeerMesh {
    fn spawn(cfg: &ClusterConfig, expected_pk_tx: [u8; 32], stop: Arc<AtomicBool>) -> PeerMesh {
        let mut queues = Vec::with_capacity(cfg.n());
        let mut threads = Vec::new();
        for (id, addr) in cfg.peers.iter().enumerate() {
            if id as u32 == cfg.node_id {
                queues.push(None);
                continue;
            }
            let (tx, rx) = mpsc::sync_channel::<SignedPeerMsg>(PEER_QUEUE);
            queues.push(Some(tx));
            let addr = addr.clone();
            let platform = Arc::clone(&cfg.platform);
            let root = cfg.peer_roots[id];
            let (svn, min_svn) = (cfg.svn, cfg.min_svn);
            let seed = cfg
                .rejoin_seed
                .wrapping_add((cfg.node_id as u64) << 32)
                .wrapping_add((id as u64) << 16);
            let stop = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name(format!("confide-mesh-{id}"))
                .spawn(move || {
                    peer_sender_loop(
                        addr,
                        platform,
                        root,
                        expected_pk_tx,
                        svn,
                        min_svn,
                        seed,
                        rx,
                        stop,
                    )
                })
                .expect("spawn mesh thread");
            threads.push(handle);
        }
        PeerMesh { queues, threads }
    }

    fn send(&self, to: u32, msg: SignedPeerMsg) {
        if let Some(Some(q)) = self.queues.get(to as usize) {
            let _ = q.try_send(msg);
        }
    }

    fn broadcast(&self, msg: SignedPeerMsg) {
        for q in self.queues.iter().flatten() {
            let _ = q.try_send(msg.clone());
        }
    }
}

/// Dial a peer and run the attestation handshake: K-Protocol MAP join
/// against `root`, then check the unwrapped consortium `pk_tx` equals
/// ours — a peer serving a different consortium (or a MITM substituting
/// keys) fails here, before any consensus traffic flows.
#[allow(clippy::too_many_arguments)]
fn dial_attested(
    addr: &str,
    platform: &Arc<TeePlatform>,
    root: &VerifyingKey,
    expected_pk_tx: [u8; 32],
    svn: u16,
    min_svn: u16,
    seed: u64,
    timeout: Duration,
) -> Result<Conn, NetError> {
    let mut conn = Conn::connect_timeout(addr, timeout)?;
    let keys = conn.rejoin(platform, root, svn, min_svn, seed)?;
    if keys.pk_tx() != expected_pk_tx {
        return Err(NetError::Attestation(
            "peer consortium pk_tx mismatch".into(),
        ));
    }
    Ok(conn)
}

#[allow(clippy::too_many_arguments)]
fn peer_sender_loop(
    addr: String,
    platform: Arc<TeePlatform>,
    root: VerifyingKey,
    expected_pk_tx: [u8; 32],
    svn: u16,
    min_svn: u16,
    seed: u64,
    rx: Receiver<SignedPeerMsg>,
    stop: Arc<AtomicBool>,
) {
    let mut backoff = Duration::from_millis(50);
    let mut dials = 0u64;
    'redial: loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        dials += 1;
        // Each dial mixes the attempt counter into the handshake seed so
        // the joiner's ephemeral key never repeats across reconnects.
        let dial_seed = seed.wrapping_add(dials.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut conn = match dial_attested(
            &addr,
            &platform,
            &root,
            expected_pk_tx,
            svn,
            min_svn,
            dial_seed,
            Duration::from_secs(2),
        ) {
            Ok(c) => c,
            Err(_) => {
                // Peer down or partitioned: drain stale traffic so the
                // queue holds only fresh messages when it comes back.
                while rx.try_recv().is_ok() {}
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(800));
                continue 'redial;
            }
        };
        backoff = Duration::from_millis(50);
        loop {
            match rx.recv_timeout(Duration::from_millis(200)) {
                Ok(msg) => {
                    // Peer frames are fire-and-forget: the server never
                    // replies on an attested mesh connection.
                    if conn.send(&Message::Peer(msg)).is_err() {
                        continue 'redial;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// The cluster driver thread: replaces the block pipeline when the server
/// is in cluster mode. Owns the replica state machine; everything it does
/// is driven by (a) peer messages, (b) client jobs, (c) the clock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cluster_loop(
    node: Arc<RwLock<ConfideNode>>,
    jobs: Receiver<Job>,
    peer_rx: Receiver<SignedPeerMsg>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    cluster: ClusterConfig,
    shared: Arc<ClusterShared>,
    in_flight: InFlight,
    stop: Arc<AtomicBool>,
) {
    let mut driver = match Driver::new(
        node,
        stats,
        config,
        cluster,
        shared,
        in_flight,
        Arc::clone(&stop),
    ) {
        Ok(d) => d,
        Err(e) => {
            // Fail-stop: a durable-log setup failure means this replica
            // cannot honour the "vote implies disk" contract. Refuse to
            // participate rather than vote on state it might lose.
            eprintln!("confide-cluster: driver init failed: {e}; halting replica");
            stop.store(true, Ordering::SeqCst);
            return;
        }
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // The peer-channel wait doubles as the driver's tick granularity.
        match peer_rx.recv_timeout(Duration::from_millis(2)) {
            Ok(msg) => {
                driver.on_peer(msg);
                while let Ok(more) = peer_rx.try_recv() {
                    driver.on_peer(more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        driver.pump_jobs(&jobs);
        driver.maybe_propose();
        driver.tick();
        driver.maybe_sync();
    }
    // Wind down the mesh sender threads.
    for t in driver.mesh.threads.drain(..) {
        let _ = t.join();
    }
}

struct Driver {
    node: Arc<RwLock<ConfideNode>>,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    cluster: ClusterConfig,
    shared: Arc<ClusterShared>,
    in_flight: InFlight,
    stop: Arc<AtomicBool>,
    replica: Replica,
    mesh: PeerMesh,
    epoch: Instant,
    wal_file: Option<(std::fs::File, usize)>,
    /// Durable quorum-certificate sidecar (`<wal>.certs`), kept in
    /// lockstep with the in-memory [`confide_core::node::ConfideNode`]
    /// cert log: the cert is on disk before any client hears "committed".
    cert_file: Option<(std::fs::File, usize)>,
    /// Durable equivocation-evidence sidecar (`<wal>.evidence`).
    evidence_file: Option<std::fs::File>,
    /// Jobs accepted but not yet proposed (leader only).
    pending: VecDeque<Job>,
    first_pending_at: Option<Instant>,
    /// Jobs whose transaction is inside a proposed-but-uncommitted block,
    /// keyed by wire hash. Replies are delivered at CommittedLocal.
    awaiting: HashMap<[u8; 32], Job>,
    /// Replies computed at execution time, delivered at commit time.
    ready: HashMap<u64, Vec<([u8; 32], Message)>>,
    want_sync: Option<u32>,
    last_sync_at: Option<Instant>,
    /// Capped exponential backoff between sync attempts; resets once a
    /// transfer makes progress.
    sync_backoff: Duration,
    sync_dials: u64,
    expected_pk_tx: [u8; 32],
}

impl Driver {
    fn new(
        node: Arc<RwLock<ConfideNode>>,
        stats: Arc<ServerStats>,
        config: ServerConfig,
        cluster: ClusterConfig,
        shared: Arc<ClusterShared>,
        in_flight: InFlight,
        stop: Arc<AtomicBool>,
    ) -> Result<Driver, String> {
        let (expected_pk_tx, height, wal_snapshot, cert_snapshot) = {
            let n = node.read().expect("node lock");
            (
                n.pk_tx(),
                n.blocks.height(),
                config.wal_path.as_ref().map(|_| n.wal_bytes().to_vec()),
                config
                    .wal_path
                    .as_ref()
                    .map(|_| n.cert_sidecar_bytes().to_vec()),
            )
        };
        // Durable logs: same contract as the pipeline's commit stage —
        // rewrite the committed prefix once, then append per block.
        // Setup failures are fail-stop (typed `Err`), not panics.
        let durable = |path: &std::path::Path, snapshot: &[u8]| -> Result<_, String> {
            let mut f = std::fs::File::create(path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            f.write_all(snapshot)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            f.sync_all()
                .map_err(|e| format!("sync {}: {e}", path.display()))?;
            Ok((f, snapshot.len()))
        };
        let mut wal_file = None;
        let mut cert_file = None;
        let mut evidence_file = None;
        if let Some(path) = config.wal_path.as_ref() {
            wal_file = Some(durable(path, &wal_snapshot.expect("wal snapshot"))?);
            cert_file = Some(durable(
                &cert_sidecar_path(path),
                &cert_snapshot.expect("cert snapshot"),
            )?);
            // Evidence is append-only across restarts: accusations stay
            // on the record even after the view moves on.
            let ev_path = evidence_sidecar_path(path);
            let prior = std::fs::read(&ev_path).unwrap_or_default();
            let records = read_framed(&prior)
                .map_err(|e| format!("evidence sidecar {} is corrupt: {e}", ev_path.display()))?;
            shared
                .evidence
                .store(records.len() as u64, Ordering::Relaxed);
            evidence_file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&ev_path)
                    .map_err(|e| format!("open {}: {e}", ev_path.display()))?,
            );
        }
        let rcfg = ReplicaConfig {
            node_id: cluster.node_id,
            n: cluster.n(),
            view_timeout_ms: cluster.view_timeout_ms,
            heartbeat_ms: cluster.heartbeat_ms,
            max_inflight: cluster.max_inflight,
            timeout_jitter_ms: cluster.timeout_jitter_ms,
        };
        if cluster.consensus_keys.len() != cluster.n() {
            return Err(format!(
                "consensus roster has {} keys for {} peers",
                cluster.consensus_keys.len(),
                cluster.n()
            ));
        }
        let keyring = Keyring::new(
            cluster.platform.consensus_signing_key(),
            cluster.consensus_keys.clone(),
        );
        let epoch = Instant::now();
        let replica = Replica::with_height(rcfg, keyring, height, 0);
        let mesh = PeerMesh::spawn(&cluster, expected_pk_tx, Arc::clone(&stop));
        let driver = Driver {
            node,
            stats,
            config,
            cluster,
            shared,
            in_flight,
            stop,
            replica,
            mesh,
            epoch,
            wal_file,
            cert_file,
            evidence_file,
            pending: VecDeque::new(),
            first_pending_at: None,
            awaiting: HashMap::new(),
            ready: HashMap::new(),
            want_sync: None,
            last_sync_at: None,
            sync_backoff: Duration::from_millis(300),
            sync_dials: 0,
            expected_pk_tx,
        };
        driver.publish();
        Ok(driver)
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn publish(&self) {
        self.shared
            .view
            .store(self.replica.view(), Ordering::Relaxed);
        self.shared
            .leader
            .store(self.replica.leader(), Ordering::Relaxed);
        self.shared
            .view_changes
            .store(self.replica.view_changes(), Ordering::Relaxed);
    }

    /// Authenticated inbound path: the replica verifies the envelope
    /// signature, the embedded sender, the commit vote signature and the
    /// equivocation record before any protocol state moves. A rejected
    /// message is logged and dropped — `handle` guarantees it had no
    /// effect.
    fn on_peer(&mut self, signed: SignedPeerMsg) {
        let now = self.now_ms();
        match self.replica.handle(signed, now) {
            Ok(actions) => self.perform(actions),
            Err(e) => {
                eprintln!(
                    "confide-cluster: node {} dropped peer message: {e}",
                    self.cluster.node_id
                );
            }
        }
    }

    /// Outbound signing point — and the Byzantine chaos hook. An honest
    /// node signs the message the replica produced and ships it
    /// everywhere; a node running a [`ByzantinePreset`] splits, corrupts
    /// or swallows its *leader-side* traffic here. Both variants of an
    /// equivocation are genuinely signed with this node's key, which is
    /// exactly what makes the resulting [`Evidence`] irrefutable.
    fn emit(&mut self, to: Option<u32>, msg: PeerMsg) {
        let Some(preset) = self.cluster.byzantine else {
            let signed = self.replica.sign(msg);
            match to {
                Some(id) => self.mesh.send(id, signed),
                None => self.mesh.broadcast(signed),
            }
            return;
        };
        match (preset, &msg) {
            (ByzantinePreset::SilentLeader, _) if self.replica.is_leader() => {
                // Say nothing; let the followers time out around us.
            }
            (ByzantinePreset::Equivocate, PeerMsg::PrePrepare { view, seq, txs })
                if to.is_none() =>
            {
                // Two conflicting, validly-signed proposals for the same
                // slot: pad the second so its digest differs.
                let mut forked = txs.clone();
                forked.push(b"equivocation-fork".to_vec());
                let honest = self.replica.sign(msg.clone());
                let fork = self.replica.sign(PeerMsg::PrePrepare {
                    view: *view,
                    seq: *seq,
                    txs: forked,
                });
                self.split_send(honest, fork);
            }
            (
                ByzantinePreset::ConflictingVote,
                PeerMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from,
                },
            ) if to.is_none() => {
                let honest = self.replica.sign(msg.clone());
                let mut flipped = *digest;
                flipped[0] ^= 0xFF;
                let fork = self.replica.sign(PeerMsg::Prepare {
                    view: *view,
                    seq: *seq,
                    digest: flipped,
                    from: *from,
                });
                self.split_send(honest, fork);
            }
            (ByzantinePreset::CorruptProposal, PeerMsg::PrePrepare { view, seq, txs })
                if to.is_none() && !txs.is_empty() && !txs[0].is_empty() =>
            {
                // Broadcast a proposal whose payload differs from the one
                // this node keeps locally: peers prepare a digest the
                // leader never matches, so the round stalls and the
                // cluster elects around it.
                let mut corrupt = txs.clone();
                corrupt[0][0] ^= 0xFF;
                let signed = self.replica.sign(PeerMsg::PrePrepare {
                    view: *view,
                    seq: *seq,
                    txs: corrupt,
                });
                self.mesh.broadcast(signed);
            }
            _ => {
                let signed = self.replica.sign(msg);
                match to {
                    Some(id) => self.mesh.send(id, signed),
                    None => self.mesh.broadcast(signed),
                }
            }
        }
    }

    /// Deliver one signed statement to the even peers and a conflicting
    /// one to the odd peers — then double-deal the highest peer with the
    /// opposite variant. The double-deal is what real equivocators do: a
    /// clean split can never quorum either digest (each side holds at
    /// most 2 of the 2f+1 votes), so the attacker courts a swing voter
    /// with both stories — and that peer now holds two validly-signed
    /// conflicting statements, the transferable [`Evidence`] pair.
    fn split_send(&mut self, honest: SignedPeerMsg, fork: SignedPeerMsg) {
        let me = self.cluster.node_id;
        for peer in 0..self.cluster.n() as u32 {
            if peer == me {
                continue;
            }
            let variant = if peer % 2 == 0 { &honest } else { &fork };
            self.mesh.send(peer, variant.clone());
        }
        if let Some(swing) = (0..self.cluster.n() as u32).rev().find(|&p| p != me) {
            let other = if swing % 2 == 0 { fork } else { honest };
            self.mesh.send(swing, other);
        }
    }

    fn tick(&mut self) {
        let now = self.now_ms();
        let actions = self.replica.on_tick(now);
        self.perform(actions);
    }

    /// Drain the client job queue. The handlers already validated,
    /// deduped and claimed each job; here the leader additionally answers
    /// late duplicates from the committed index (a resubmission can race
    /// past the handler check) and redirects if leadership moved while
    /// the job sat in the queue.
    fn pump_jobs(&mut self, jobs: &Receiver<Job>) {
        while let Ok(job) = jobs.try_recv() {
            if !self.replica.is_leader() {
                self.redirect(job);
                continue;
            }
            let committed = self
                .node
                .read()
                .expect("node lock")
                .committed_by_wire(&job.wire_hash);
            if let Some((sealed, receipt)) = committed {
                self.stats.deduped.fetch_add(1, Ordering::Relaxed);
                self.release(&job.wire_hash);
                job.reply.send(Message::Committed { sealed, receipt });
                continue;
            }
            if self.first_pending_at.is_none() {
                self.first_pending_at = Some(Instant::now());
            }
            self.pending.push_back(job);
        }
    }

    /// Seal the pending batch into a proposal when it is full or the
    /// linger window expired — the same cut rule as the single-node
    /// batcher, with consensus back-pressure (`max_inflight`) on top.
    fn maybe_propose(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if !self.replica.is_leader() {
            // Leadership moved with jobs queued: bounce them back.
            while let Some(job) = self.pending.pop_front() {
                self.redirect(job);
            }
            self.first_pending_at = None;
            return;
        }
        let full = self.pending.len() >= self.config.max_batch;
        let lingered = self
            .first_pending_at
            .map(|t| t.elapsed() >= self.config.batch_linger)
            .unwrap_or(false);
        if !full && !lingered {
            return;
        }
        let take = self.pending.len().min(self.config.max_batch);
        let batch: Vec<Job> = self.pending.drain(..take).collect();
        self.first_pending_at = if self.pending.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        let tx_bytes: Vec<Vec<u8>> = batch.iter().map(|j| j.tx.encode()).collect();
        let now = self.now_ms();
        match self.replica.propose(tx_bytes, now) {
            Ok(actions) => {
                for job in batch {
                    self.awaiting.insert(job.wire_hash, job);
                }
                self.perform(actions);
            }
            Err(ProposeError::Backpressure) => {
                // Watermark window full: put the batch back and retry
                // once commits free a slot.
                for job in batch.into_iter().rev() {
                    self.pending.push_front(job);
                }
                if self.first_pending_at.is_none() {
                    self.first_pending_at = Some(Instant::now());
                }
            }
            Err(ProposeError::NotLeader) => {
                for job in batch {
                    self.redirect(job);
                }
            }
        }
    }

    fn perform(&mut self, actions: Vec<Action>) {
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(action) = queue.pop_front() {
            match action {
                Action::Broadcast(msg) => self.emit(None, msg),
                Action::Send(to, msg) => self.emit(Some(to), msg),
                Action::Execute { seq, txs, .. } => {
                    let more = self.execute(seq, &txs);
                    queue.extend(more);
                }
                Action::CommittedLocal { seq, cert, .. } => self.committed(seq, cert),
                Action::NeedSync { peer, .. } => {
                    // Don't clobber a pending retry target: after a
                    // failed transfer the driver rotates to the next
                    // member, and the protocol's NeedSync re-arms (which
                    // always name the peer that reported being ahead —
                    // usually the leader) must not drag the retry back to
                    // the dead source before its backoff expires.
                    if self.want_sync.is_none() {
                        self.want_sync = Some(peer);
                    }
                }
                Action::LeaderChanged { .. } => {
                    // Elected or demoted: either way, jobs waiting for a
                    // proposal slot are only valid on the leader.
                    if !self.replica.is_leader() {
                        while let Some(job) = self.pending.pop_front() {
                            self.redirect(job);
                        }
                        self.first_pending_at = None;
                    }
                }
                Action::Evidence(ev) => self.record_evidence(&ev),
            }
        }
        self.publish();
    }

    /// Persist an equivocation record: the two conflicting signed
    /// messages are self-certifying, so the sidecar is a transferable
    /// accusation any consortium auditor can re-verify offline.
    fn record_evidence(&mut self, ev: &Evidence) {
        eprintln!(
            "confide-cluster: node {} recorded equivocation evidence against node {} \
             (view {}, seq {})",
            self.cluster.node_id, ev.accused, ev.view, ev.seq
        );
        if let Some(file) = self.evidence_file.as_mut() {
            let mut buf = Vec::new();
            append_framed(&mut buf, ev);
            if let Err(e) = file.write_all(&buf).and_then(|()| file.sync_all()) {
                eprintln!("confide-cluster: evidence append failed: {e}; halting replica");
                self.stop.store(true, Ordering::SeqCst);
                return;
            }
        }
        self.shared.evidence.fetch_add(1, Ordering::Relaxed);
    }

    /// Execute one committed-order block: the replica guarantees strictly
    /// in-order delivery (`seq == height + 1`). This is the cluster's
    /// durable-commit point — the WAL suffix is fsync'd before
    /// `on_executed` lets the replica broadcast its Commit, so a vote for
    /// "executed" is always backed by disk (the PR-5 contract, now a
    /// consensus-safety requirement: a quorum certificate must imply a
    /// quorum of durable copies).
    fn execute(&mut self, seq: u64, txs_bytes: &[Vec<u8>]) -> Vec<Action> {
        // Undecodable bytes can only come from a buggy peer; the decode
        // verdict is deterministic on every replica, so skipping keeps
        // state identical cluster-wide.
        let mut decoded: Vec<(WireTx, [u8; 32])> = Vec::with_capacity(txs_bytes.len());
        for bytes in txs_bytes {
            if let Ok(tx) = WireTx::decode(bytes) {
                let hash = tx.wire_hash();
                decoded.push((tx, hash));
            }
        }
        let txs: Vec<WireTx> = decoded.iter().map(|(tx, _)| tx.clone()).collect();
        let threads = self.config.exec_threads.max(1);
        let mut durability_fault = None;
        let result = {
            let mut node = self.node.write().expect("node lock");
            let result = node.execute_block_parallel(&txs, threads);
            if result.is_ok() {
                if let Some((file, flushed)) = self.wal_file.as_mut() {
                    let bytes = node.wal_bytes();
                    let io = file
                        .write_all(&bytes[*flushed..])
                        .and_then(|()| file.sync_all());
                    match io {
                        Ok(()) => *flushed = bytes.len(),
                        Err(e) => durability_fault = Some(e),
                    }
                }
            }
            result
        };
        if let Some(e) = durability_fault {
            // Fail-stop, not panic: a replica that cannot make a block
            // durable must not vote for it (a quorum certificate implies
            // a quorum of disk copies). Halt before `on_executed`.
            eprintln!("confide-cluster: wal append for block {seq} failed: {e}; halting replica");
            self.stop.store(true, Ordering::SeqCst);
            return Vec::new();
        }
        for (_, hash) in &decoded {
            self.release(hash);
        }
        let res = match result {
            Ok(res) => res,
            Err(e) => {
                // A commit-level failure on agreed-order input is a local
                // fault (disk, resource). Halting this replica is the safe
                // move — the rest of the cluster keeps going without it.
                eprintln!("confide-cluster: block {seq} failed to execute: {e}; halting replica");
                self.stop.store(true, Ordering::SeqCst);
                return Vec::new();
            }
        };
        self.stats.blocks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .committed
            .fetch_add(res.accepted() as u64, Ordering::Relaxed);
        // Chaos hook: die after the durable-commit point but before the
        // Commit broadcast / any acknowledgement — the worst crash window
        // for the cluster (peers hold a prepared block this node already
        // executed).
        if let Some(limit) = self.config.crash_after {
            if self.stats.blocks.load(Ordering::Relaxed) >= limit {
                eprintln!("confide-cluster: crash-after hook firing at block {limit}");
                std::process::exit(101);
            }
        }
        let mut replies = Vec::with_capacity(decoded.len());
        for ((_, hash), outcome) in decoded.iter().zip(&res.outcomes) {
            let reply = match outcome {
                Ok((receipt, sealed)) => Message::Committed {
                    sealed: sealed.is_some(),
                    receipt: sealed.clone().unwrap_or_else(|| receipt.encode()),
                },
                Err(e) => {
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    Message::Rejected(e.to_string())
                }
            };
            replies.push((*hash, reply));
        }
        self.ready.insert(seq, replies);
        let now = self.now_ms();
        let root = self.node.read().expect("node lock").state_root();
        self.replica.on_executed(seq, root, now)
    }

    /// CommittedLocal: 2f+1 replicas signed "executed and durable" votes
    /// over this height and state root. Persist the assembled quorum
    /// certificate *first* — only then do waiting clients hear about
    /// their transaction, so every acknowledged commit is provable to a
    /// third party from the sidecar alone.
    fn committed(&mut self, seq: u64, cert: QuorumCert) {
        {
            let mut node = self.node.write().expect("node lock");
            node.record_cert(seq, &cert.encode());
            if let Some((file, flushed)) = self.cert_file.as_mut() {
                let bytes = node.cert_sidecar_bytes();
                let io = file
                    .write_all(&bytes[*flushed..])
                    .and_then(|()| file.sync_all());
                match io {
                    Ok(()) => *flushed = bytes.len(),
                    Err(e) => {
                        eprintln!(
                            "confide-cluster: cert append for block {seq} failed: {e}; \
                             halting replica"
                        );
                        self.stop.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
        let Some(replies) = self.ready.remove(&seq) else {
            return;
        };
        for (hash, reply) in replies {
            if let Some(job) = self.awaiting.remove(&hash) {
                job.reply.send(reply);
            }
        }
    }

    fn redirect(&mut self, job: Job) {
        self.release(&job.wire_hash);
        job.reply.send(Message::NotPrimary {
            leader: self.shared.leader_addr(),
        });
    }

    fn release(&self, wire_hash: &[u8; 32]) {
        self.in_flight
            .lock()
            .expect("in-flight lock")
            .remove(wire_hash);
    }

    /// StateSync client: fetch the missing WAL suffix, apply only the
    /// prefix covered by verified quorum certificates, and tell the
    /// replica the new height. A failed transfer rotates to the next
    /// peer under a capped exponential backoff, so a dead or lying sync
    /// source costs one backoff step, not liveness.
    fn maybe_sync(&mut self) {
        let Some(peer) = self.want_sync.take() else {
            return;
        };
        if let Some(last) = self.last_sync_at {
            if last.elapsed() < self.sync_backoff {
                // Too soon — re-arm; NeedSync also re-fires while the
                // gap lasts, but a mid-stream failure must not wait for
                // the protocol to notice again.
                self.want_sync = Some(peer);
                return;
            }
        }
        self.last_sync_at = Some(Instant::now());
        // Count progress even when the transfer errors midway (peer
        // died, read timeout): the blocks already applied are real, and
        // the replica must learn its new height either way.
        let mut applied = 0u64;
        if let Err(e) = self.run_sync(peer, &mut applied) {
            eprintln!(
                "confide-cluster: state sync from {peer} interrupted after {applied} block(s): {e}"
            );
            // Retry against the next member, backing off 300ms → 2.4s.
            let next = self.next_sync_peer(peer);
            self.want_sync = Some(next);
            self.sync_backoff = (self.sync_backoff * 2).min(Duration::from_millis(2400));
        }
        if applied > 0 {
            self.sync_backoff = Duration::from_millis(300);
            let height = self.node.read().expect("node lock").blocks.height();
            let now = self.now_ms();
            let actions = self.replica.on_caught_up(height, now);
            self.perform(actions);
        }
    }

    /// Round-robin over the other members, skipping ourselves.
    fn next_sync_peer(&self, failed: u32) -> u32 {
        let n = self.cluster.n() as u32;
        let mut next = (failed + 1) % n;
        if next == self.cluster.node_id {
            next = (next + 1) % n;
        }
        next
    }

    fn run_sync(&mut self, peer: u32, applied: &mut u64) -> Result<(), NetError> {
        let addr = self
            .cluster
            .peers
            .get(peer as usize)
            .cloned()
            .ok_or(NetError::Disconnected)?;
        self.sync_dials += 1;
        let seed = self
            .cluster
            .rejoin_seed
            .wrapping_add(0x7379_6e63) // "sync"
            .wrapping_add(self.sync_dials.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // The dial timeout doubles as the per-chunk read deadline: a peer
        // that dies mid-stream surfaces as a timeout here, and the caller
        // rotates to a different member.
        let mut conn = dial_attested(
            &addr,
            &self.cluster.platform,
            &self.cluster.peer_roots[peer as usize],
            self.expected_pk_tx,
            self.cluster.svn,
            self.cluster.min_svn,
            seed,
            Duration::from_secs(2),
        )?;
        let mut buf: Vec<u8> = Vec::new();
        let mut got_bytes = false;
        for _ in 0..10_000 {
            let (have, have_height) = {
                let node = self.node.read().expect("node lock");
                (
                    node.wal_bytes().len() as u64 + buf.len() as u64,
                    node.blocks.height(),
                )
            };
            let resp = conn.request(&Message::StateSyncReq {
                from: have,
                max: SYNC_CHUNK_MAX,
                have_height,
            })?;
            let (total, bytes, certs) = match resp {
                Message::StateSyncResp {
                    total,
                    bytes,
                    certs,
                    ..
                } => (total, bytes, certs),
                Message::Rejected(r) => return Err(NetError::Rejected(r)),
                other => return Err(NetError::UnexpectedReply(other.kind())),
            };
            if bytes.is_empty() {
                break;
            }
            got_bytes = true;
            buf.extend_from_slice(&bytes);
            self.apply_certified(&mut buf, &certs, applied)?;
            if have + bytes.len() as u64 >= total {
                break;
            }
        }
        if got_bytes && *applied == 0 {
            // The peer served WAL bytes but none of them carried a
            // verifiable quorum certificate. Treat this as a failed
            // transfer — silently looping here would retry the same
            // uncertified prefix forever — so the caller logs it, backs
            // off, and rotates to a different member.
            return Err(NetError::Rejected("peer served no certified blocks".into()));
        }
        Ok(())
    }

    /// Apply the longest prefix of `buf` whose blocks carry verified
    /// quorum certificates. The serving peer is *untrusted* here: a
    /// forged chunk fails either the cert check (no 2f+1 consortium
    /// signatures over that height/root) or `catch_up_from_wal`'s own
    /// hash-chain and root checks. Verified bytes are drained from
    /// `buf`; uncertified tail bytes stay for the next round.
    fn apply_certified(
        &mut self,
        buf: &mut Vec<u8>,
        certs: &[Vec<u8>],
        applied: &mut u64,
    ) -> Result<(), NetError> {
        // Index the certs that actually verify against the roster.
        let n = self.cluster.n();
        let keys = &self.replica.keyring().keys;
        let mut verified: HashMap<u64, QuorumCert> = HashMap::new();
        for raw in certs {
            let Ok(cert) = QuorumCert::decode(raw) else {
                return Err(NetError::Rejected("malformed sync certificate".into()));
            };
            if cert.verify(n, keys).is_err() {
                return Err(NetError::Rejected(format!(
                    "sync certificate for height {} fails quorum verification",
                    cert.height
                )));
            }
            verified.insert(cert.height, cert);
        }
        // Walk the complete blocks in the buffer and cut at the first
        // height without a verified matching-root certificate.
        let recovery = confide_storage::BlockWal::recover(buf);
        let mut certified_end = 0usize;
        let mut take: Vec<QuorumCert> = Vec::new();
        for (block, end) in recovery.blocks.iter().zip(&recovery.ends) {
            let h = block.header.height;
            match verified.get(&h) {
                Some(cert) if cert.root == block.header.state_root => {
                    certified_end = *end;
                    take.push(cert.clone());
                }
                Some(_) => {
                    return Err(NetError::Rejected(format!(
                        "sync certificate root mismatch at height {h}"
                    )));
                }
                None => break,
            }
        }
        if certified_end == 0 {
            return Ok(());
        }
        let report = {
            let mut node = self.node.write().expect("node lock");
            let report = node
                .catch_up_from_wal(&buf[..certified_end])
                .map_err(|e| NetError::Rejected(format!("state sync apply failed: {e}")))?;
            for cert in &take {
                node.record_cert(cert.height, &cert.encode());
            }
            // Publish per chunk and inside the node lock: a status
            // probe that observes the synced height (read under the
            // same lock) must already see these blocks attributed to
            // state sync, even mid-transfer.
            self.shared
                .sync_blocks
                .fetch_add(report.blocks_applied, Ordering::Relaxed);
            report
        };
        buf.drain(..report.bytes_consumed);
        *applied += report.blocks_applied;
        // Keep the durable files in lockstep with the synced blocks.
        let mut fault = None;
        {
            let node = self.node.read().expect("node lock");
            if let Some((file, flushed)) = self.wal_file.as_mut() {
                let wal = node.wal_bytes();
                if wal.len() > *flushed {
                    match file
                        .write_all(&wal[*flushed..])
                        .and_then(|()| file.sync_all())
                    {
                        Ok(()) => *flushed = wal.len(),
                        Err(e) => fault = Some(e),
                    }
                }
            }
            if let Some((file, flushed)) = self.cert_file.as_mut() {
                let bytes = node.cert_sidecar_bytes();
                if bytes.len() > *flushed && fault.is_none() {
                    match file
                        .write_all(&bytes[*flushed..])
                        .and_then(|()| file.sync_all())
                    {
                        Ok(()) => *flushed = bytes.len(),
                        Err(e) => fault = Some(e),
                    }
                }
            }
        }
        if let Some(e) = fault {
            eprintln!("confide-cluster: durable append during sync failed: {e}; halting replica");
            self.stop.store(true, Ordering::SeqCst);
            return Err(NetError::Disconnected);
        }
        Ok(())
    }
}

/// Serve one `StateSyncReq` against the node's WAL (called from the
/// connection handler on attested connections): returns the chunk at
/// `from`, clamped to [`SYNC_CHUNK_MAX`], plus the quorum certificates
/// for heights above `have_height` (clamped to [`SYNC_CERT_BUDGET`]) so
/// the requester can verify the blocks before applying them.
pub(crate) fn serve_state_sync(
    node: &RwLock<ConfideNode>,
    from: u64,
    max: u32,
    have_height: u64,
) -> Message {
    let node = node.read().expect("node lock");
    let wal = node.wal_bytes();
    let total = wal.len() as u64;
    let start = from.min(total) as usize;
    let len = (max.min(SYNC_CHUNK_MAX) as usize).min(wal.len() - start);
    let mut certs = Vec::new();
    let mut budget = SYNC_CERT_BUDGET;
    for (_, bytes) in node.certs_in(have_height, node.blocks.height()) {
        if bytes.len() + 4 > budget {
            break;
        }
        budget -= bytes.len() + 4;
        certs.push(bytes);
    }
    Message::StateSyncResp {
        height: node.blocks.height(),
        total,
        offset: start as u64,
        bytes: wal[start..start + len].to_vec(),
        certs,
    }
}

/// `<wal>.certs`: the quorum-certificate sidecar next to a WAL file.
pub fn cert_sidecar_path(wal: &std::path::Path) -> std::path::PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(".certs");
    std::path::PathBuf::from(os)
}

/// `<wal>.evidence`: the equivocation-evidence sidecar next to a WAL file.
pub fn evidence_sidecar_path(wal: &std::path::Path) -> std::path::PathBuf {
    let mut os = wal.as_os_str().to_os_string();
    os.push(".evidence");
    std::path::PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_config_derives_matching_roots() {
        let peers = vec!["a:1".into(), "b:2".into(), "c:3".into(), "d:4".into()];
        let c0 = ClusterConfig::demo(0, peers.clone(), 99);
        let c1 = ClusterConfig::demo(1, peers, 99);
        // Every node derives the same root table without communication.
        assert_eq!(c0.peer_roots.len(), 4);
        for i in 0..4 {
            assert_eq!(
                c0.peer_roots[i].0, c1.peer_roots[i].0,
                "root {i} must match across nodes"
            );
        }
        // And each node's own platform quotes under its own root.
        assert_eq!(c0.platform.attestation_public_key().0, c0.peer_roots[0].0);
        assert_eq!(c1.platform.attestation_public_key().0, c1.peer_roots[1].0);
    }

    #[test]
    fn shared_tracks_leader_addr() {
        let cfg = ClusterConfig::demo(
            0,
            vec!["h:1".into(), "h:2".into(), "h:3".into(), "h:4".into()],
            7,
        );
        let shared = ClusterShared::new(&cfg);
        assert!(shared.is_leader());
        assert_eq!(shared.leader_addr(), "h:1");
        shared.leader.store(2, Ordering::Relaxed);
        assert!(!shared.is_leader());
        assert_eq!(shared.leader_addr(), "h:3");
    }
}
