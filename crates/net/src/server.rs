//! The networked node runtime: a nonblocking reactor front end over
//! [`ConfideNode`] feeding a pipelined block producer.
//!
//! Architecture (one process):
//!
//! ```text
//!  reactor thread (reactor.rs)      preverify pool        block pipeline
//!  ───────────────────────────      ──────────────        (pipeline.rs)
//!  nonblocking accept + sweep       validate (§5.2),      ─────────────
//!  frame decode, Ping/pk_tx    ──►  dedup, claim,    ──►  execute ∥
//!  inline, reply sequencing         route to ingest       group fsync ∥
//!  (10k+ connections, 1 thread)     (no node lock)        ordered reply
//! ```
//!
//! Backpressure is explicit at every hop: a full worker queue or ingest
//! ring surfaces as a typed [`Message::Busy`] — transactions are never
//! silently dropped. Cluster mode keeps the same front end but routes
//! validated submissions into the wire-PBFT driver in [`crate::cluster`]
//! instead of the local pipeline.

use crate::error::{Error, ErrorKind as ConfErrorKind};
use crate::frame::{Message, DEFAULT_MAX_FRAME};
use crate::pipeline::{self, CommitItem, Ingest, PipelineStats, WorkerCtx};
use crate::reactor::{self, ConnToken, ReactorConfig, ReactorDeps, ReactorHandle, WorkQueue};
use confide_core::engine::Engine;
use confide_core::node::ConfideNode;
use confide_core::tx::WireTx;
use confide_crypto::ed25519::VerifyingKey;
use confide_storage::WalFile;
use confide_tee::IngestRing;
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs. Construct via [`ServerConfig::builder`] (which
/// validates) or struct-literal over [`Default`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum transactions per block.
    pub max_batch: usize,
    /// Bound of the ingest ring (single-node) or consensus job queue
    /// (cluster); beyond this, submitters get [`Message::Busy`].
    pub queue_depth: usize,
    /// How long the execute stage waits for more transactions after the
    /// first one arrives before sealing a short block.
    pub batch_linger: Duration,
    /// Mid-frame stall bound: a connection holding a partial frame
    /// longer than this is dropped (idle connections between frames are
    /// free under the reactor and live indefinitely).
    pub read_timeout: Duration,
    /// Maximum accepted frame length.
    pub max_frame: usize,
    /// Worker threads for parallel block execution (§6.2). Blocks commit
    /// with results bit-identical to serial execution regardless of this
    /// value; it only changes wall-clock/makespan. Clamped to ≥ 1.
    pub exec_threads: usize,
    /// Preverify worker threads draining the reactor's work queue.
    pub verify_threads: usize,
    /// Bound of the execute → commit queue: how many executed-but-not-
    /// yet-durable blocks may pile up before the execute stage blocks
    /// (which in turn fills the ingest ring and surfaces `Busy`).
    pub pipeline_depth: usize,
    /// Slow-reader bound: a connection buffering more than this many
    /// unflushed reply bytes is dropped.
    pub write_buf_limit: usize,
    /// Durable-commit file: when set, the commit stage appends each
    /// sealed block's WAL record group here (group-fsync'd) **before**
    /// acknowledging the block to any waiter. A crashed process recovers
    /// by feeding the file through `ConfideNode::recover_from_wal` and
    /// respawning.
    pub wal_path: Option<PathBuf>,
    /// Crash hook for chaos testing: after this many blocks have been
    /// sealed *and flushed*, kill the process without replying — the
    /// worst-case crash point (committed but unacknowledged work), which
    /// recovery plus resubmit-dedup must make invisible to clients.
    pub crash_after: Option<u64>,
    /// Consortium-registered platform attestation roots allowed to rejoin
    /// through [`Message::JoinRequest`]. Empty = wire joins disabled.
    pub join_roots: Vec<VerifyingKey>,
    /// SVN this node's KM enclave runs at for join approvals.
    pub join_svn: u16,
    /// Minimum SVN a joiner's quote must carry.
    pub join_min_svn: u16,
    /// Base seed of the per-join approval RNG (each approval mixes in a
    /// join counter so session keys and nonces never repeat).
    pub join_seed: u64,
    /// Consortium cluster membership. `None` runs the single-node block
    /// pipeline; `Some` replaces it with the wire-PBFT driver in
    /// [`crate::cluster`] — submissions are ordered by consensus,
    /// followers redirect clients with [`Message::NotPrimary`], and
    /// attested peers exchange [`Message::Peer`] traffic over this same
    /// port.
    pub cluster: Option<crate::cluster::ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_batch: 256,
            queue_depth: 1024,
            batch_linger: Duration::from_millis(2),
            read_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            exec_threads: 4,
            verify_threads: 2,
            pipeline_depth: 4,
            write_buf_limit: 4 * DEFAULT_MAX_FRAME,
            wal_path: None,
            crash_after: None,
            join_roots: Vec::new(),
            join_svn: 1,
            join_min_svn: 1,
            join_seed: 0x6a6f696e, // "join"
            cluster: None,
        }
    }
}

impl ServerConfig {
    /// Start a validated configuration build.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`]: setters chain, [`build`] validates the
/// whole configuration at once so a bad combination fails loudly before
/// any socket is bound, with a typed [`ErrorKind::Config`] error.
///
/// [`build`]: ServerConfigBuilder::build
/// [`ErrorKind::Config`]: crate::error::ErrorKind::Config
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Max transactions the execute stage folds into one block (≥ 1).
    pub fn max_batch(mut self, v: usize) -> Self {
        self.config.max_batch = v;
        self
    }
    /// Ingest ring capacity; overflow is answered with `Busy` (≥ 1).
    pub fn queue_depth(mut self, v: usize) -> Self {
        self.config.queue_depth = v;
        self
    }
    /// How long the execute stage lingers for stragglers before sealing
    /// a non-full block.
    pub fn batch_linger(mut self, v: Duration) -> Self {
        self.config.batch_linger = v;
        self
    }
    /// Idle-connection reap timeout on the reactor.
    pub fn read_timeout(mut self, v: Duration) -> Self {
        self.config.read_timeout = v;
        self
    }
    /// Max accepted frame size in bytes (≥ 64).
    pub fn max_frame(mut self, v: usize) -> Self {
        self.config.max_frame = v;
        self
    }
    /// Worker threads for parallel block execution (≥ 1).
    pub fn exec_threads(mut self, v: usize) -> Self {
        self.config.exec_threads = v;
        self
    }
    /// Preverify worker threads fed by the reactor (≥ 1).
    pub fn verify_threads(mut self, v: usize) -> Self {
        self.config.verify_threads = v;
        self
    }
    /// Max executed-but-unsynced blocks queued at the commit stage (≥ 1);
    /// the execute stage blocks when the group-commit fsync falls behind.
    pub fn pipeline_depth(mut self, v: usize) -> Self {
        self.config.pipeline_depth = v;
        self
    }
    /// Per-connection outbound buffer cap in bytes (≥ `max_frame`); a
    /// connection that stops reading past this is closed, not buffered.
    pub fn write_buf_limit(mut self, v: usize) -> Self {
        self.config.write_buf_limit = v;
        self
    }
    /// Durable WAL path; enables crash recovery on restart.
    pub fn wal_path(mut self, v: impl Into<PathBuf>) -> Self {
        self.config.wal_path = Some(v.into());
        self
    }
    /// Fault-injection hook: `exit(101)` after this many blocks are
    /// fsynced (requires a `wal_path`).
    pub fn crash_after(mut self, v: u64) -> Self {
        self.config.crash_after = Some(v);
        self
    }
    /// Attestation roots accepted for K-Protocol MAP join requests.
    pub fn join_roots(mut self, v: Vec<VerifyingKey>) -> Self {
        self.config.join_roots = v;
        self
    }
    /// SVN this node advertises when counter-quoting a join.
    pub fn join_svn(mut self, v: u16) -> Self {
        self.config.join_svn = v;
        self
    }
    /// Minimum SVN accepted from a joiner's quote.
    pub fn join_min_svn(mut self, v: u16) -> Self {
        self.config.join_min_svn = v;
        self
    }
    /// Deterministic seed for the join key-wrap nonce stream.
    pub fn join_seed(mut self, v: u64) -> Self {
        self.config.join_seed = v;
        self
    }
    /// Run as a consortium cluster member (requires peers, peer roots,
    /// and join roots — validated in [`ServerConfigBuilder::build`]).
    pub fn cluster(mut self, v: crate::cluster::ClusterConfig) -> Self {
        self.config.cluster = Some(v);
        self
    }

    /// Validate the accumulated configuration.
    pub fn build(self) -> Result<ServerConfig, Error> {
        let c = &self.config;
        let fail = |m: String| Err(Error::new(ConfErrorKind::Config, m));
        if c.max_batch == 0 {
            return fail("max_batch must be >= 1".into());
        }
        if c.queue_depth == 0 {
            return fail("queue_depth must be >= 1".into());
        }
        if c.exec_threads == 0 || c.verify_threads == 0 {
            return fail("exec_threads and verify_threads must be >= 1".into());
        }
        if c.pipeline_depth == 0 {
            return fail("pipeline_depth must be >= 1".into());
        }
        if c.max_frame < 64 {
            return fail(format!("max_frame {} too small (min 64)", c.max_frame));
        }
        if c.write_buf_limit < c.max_frame {
            return fail(format!(
                "write_buf_limit {} smaller than max_frame {} (one reply could never flush)",
                c.write_buf_limit, c.max_frame
            ));
        }
        if c.crash_after.is_some() && c.wal_path.is_none() {
            return fail(
                "crash_after without wal_path: a crash hook on a non-durable node loses data by construction"
                    .into(),
            );
        }
        if let Some(cluster) = &c.cluster {
            if cluster.peers.is_empty() {
                return fail("cluster.peers must not be empty".into());
            }
            if cluster.node_id as usize >= cluster.peers.len() {
                return fail(format!(
                    "cluster.node_id {} out of range for {} peers",
                    cluster.node_id,
                    cluster.peers.len()
                ));
            }
            if cluster.peer_roots.len() != cluster.peers.len() {
                return fail(format!(
                    "cluster.peer_roots has {} keys for {} peers (one attestation root per member)",
                    cluster.peer_roots.len(),
                    cluster.peers.len()
                ));
            }
            if c.join_roots.is_empty() {
                return fail(
                    "cluster mode requires join_roots: the peer mesh attests over the wire join protocol"
                        .into(),
                );
            }
        }
        Ok(self.config)
    }
}

/// Live counters, shared with the reactor/worker/pipeline threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Transactions enqueued.
    pub accepted: AtomicU64,
    /// Submissions turned away with `Busy` (queue or ring full,
    /// duplicate in flight).
    pub busy: AtomicU64,
    /// Submissions rejected at validation or execution.
    pub rejected: AtomicU64,
    /// Blocks sealed.
    pub blocks: AtomicU64,
    /// Transactions committed into blocks.
    pub committed: AtomicU64,
    /// Connections served.
    pub connections: AtomicU64,
    /// Replies that could not be delivered: the connection died (or was
    /// dropped as a slow reader) while its request was in flight. Not
    /// silent data loss — the transaction's fate is still recorded in
    /// the committed block; only the notification bounced.
    pub reply_drops: AtomicU64,
    /// Resubmissions answered from the committed wire-hash index instead
    /// of re-executing (retry-after-crash idempotence).
    pub deduped: AtomicU64,
    /// Wire rejoin requests processed (each burns one approval seed,
    /// approved or not).
    pub joins: AtomicU64,
}

/// Where a job's commit verdict goes.
pub(crate) enum ReplyTo {
    /// Fire-and-forget (`SubmitTx`): the client already got `Accepted`.
    Fire,
    /// Reactor connection: the reply is posted as an ordered directive.
    Conn {
        handle: ReactorHandle,
        conn: ConnToken,
        seq: u64,
    },
}

impl ReplyTo {
    /// Deliver the commit verdict. A reply whose connection has closed
    /// is counted reactor-side in [`ServerStats::reply_drops`], never
    /// silent.
    pub(crate) fn send(self, msg: Message) {
        if let ReplyTo::Conn { handle, conn, seq } = self {
            handle.reply(conn, seq, msg);
        }
    }
}

/// One queued transaction plus the route back to whoever awaits its
/// commit verdict.
pub(crate) struct Job {
    pub(crate) tx: WireTx,
    pub(crate) wire_hash: [u8; 32],
    pub(crate) reply: ReplyTo,
}

/// Wire hashes currently queued or executing — a second submission of the
/// same bytes while the first is in flight is turned away with `Busy`
/// instead of executing twice. On the pipelined path a claim is held
/// until **after** the group fsync that makes its block durable.
pub(crate) type InFlight = Arc<Mutex<HashSet<[u8; 32]>>>;

/// A running node server. Dropping it (or calling
/// [`NodeServer::shutdown`]) stops the reactor, drains the pipeline, and
/// joins every thread.
pub struct NodeServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    pipe: Arc<PipelineStats>,
    stop: Arc<AtomicBool>,
    reactor: Option<ReactorHandle>,
    threads: Vec<JoinHandle<()>>,
    node: Arc<RwLock<ConfideNode>>,
    cluster: Option<Arc<crate::cluster::ClusterShared>>,
}

impl NodeServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `node` on the reactor + pipeline runtime.
    pub fn spawn(
        node: ConfideNode,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<NodeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let pipe = Arc::new(PipelineStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        // Shared handle to the confidential engine so the preverify pool
        // validates envelopes without contending on the node RwLock.
        let conf_engine = Arc::clone(&node.confidential_engine);
        // Dedup index seeded from the node's committed history (nonempty
        // after a WAL recovery), then maintained by the commit stage.
        let durable: pipeline::DurableIndex = Arc::new(Mutex::new(
            node.committed_wire_entries()
                .into_iter()
                .map(|(wire, sealed, receipt)| (wire, (sealed, receipt)))
                .collect(),
        ));
        let node = Arc::new(RwLock::new(node));
        let in_flight: InFlight = Arc::new(Mutex::new(HashSet::new()));
        // The work queue holds decoded-but-unvalidated requests; size it
        // past the ingest bound so non-submit traffic (status, receipts)
        // is not starved by a full block queue.
        let work = WorkQueue::new(config.queue_depth + 1024, config.verify_threads.max(1));
        let handle = ReactorHandle::new();
        // Identity answers are immutable per process: cache once, serve
        // from the reactor without the node lock.
        let (pk_tx, report) = {
            let n = node.read().expect("node lock");
            (n.pk_tx(), n.attestation_report())
        };

        let mut threads: Vec<JoinHandle<()>> = Vec::new();

        // Cluster mode swaps the local pipeline for the consensus
        // driver; the backpressure contract (bounded ingest, typed
        // `Busy`) stays identical, the drain side changes.
        let (ingest, peer_tx, shared) = match config.cluster.clone() {
            Some(cluster) => {
                let shared = Arc::new(crate::cluster::ClusterShared::new(&cluster));
                let (peer_tx, peer_rx) = mpsc::channel();
                let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_depth);
                let node = Arc::clone(&node);
                let stats = Arc::clone(&stats);
                let config2 = config.clone();
                let in_flight = Arc::clone(&in_flight);
                let stop2 = Arc::clone(&stop);
                let shared2 = Arc::clone(&shared);
                threads.push(
                    std::thread::Builder::new()
                        .name("confide-cluster".into())
                        .spawn(move || {
                            crate::cluster::cluster_loop(
                                node, job_rx, peer_rx, stats, config2, cluster, shared2, in_flight,
                                stop2,
                            )
                        })?,
                );
                (Ingest::Cluster(job_tx), Some(peer_tx), Some(shared))
            }
            None => {
                let ring: Arc<IngestRing<Job>> = IngestRing::with_capacity(config.queue_depth);
                let (commit_tx, commit_rx) =
                    mpsc::sync_channel::<CommitItem>(config.pipeline_depth);
                // Durable log: rewrite the committed prefix once at
                // startup (a recovered node's in-memory WAL already
                // replays the old file), then group-append per block.
                let wal = match config.wal_path.as_ref() {
                    Some(path) => {
                        let snapshot = node.read().expect("node lock").wal_bytes().to_vec();
                        let mut f = std::fs::File::create(path)?;
                        f.write_all(&snapshot)?;
                        f.sync_all()?;
                        drop(f);
                        Some(WalFile::open(path)?)
                    }
                    None => None,
                };
                {
                    let node = Arc::clone(&node);
                    let ring = Arc::clone(&ring);
                    let stats = Arc::clone(&stats);
                    let pipe = Arc::clone(&pipe);
                    let config = config.clone();
                    let stop = Arc::clone(&stop);
                    threads.push(
                        std::thread::Builder::new()
                            .name("confide-execute".into())
                            .spawn(move || {
                                pipeline::execute_loop(
                                    node, ring, commit_tx, stats, pipe, config, stop,
                                )
                            })?,
                    );
                }
                {
                    let stats = Arc::clone(&stats);
                    let pipe = Arc::clone(&pipe);
                    let in_flight = Arc::clone(&in_flight);
                    let durable = Arc::clone(&durable);
                    let config = config.clone();
                    threads.push(
                        std::thread::Builder::new()
                            .name("confide-commit".into())
                            .spawn(move || {
                                pipeline::commit_loop(
                                    commit_rx, wal, stats, pipe, in_flight, durable, config,
                                )
                            })?,
                    );
                }
                (Ingest::Ring(ring), None, None)
            }
        };

        let ctx = Arc::new(WorkerCtx {
            node: Arc::clone(&node),
            conf_engine,
            durable,
            stats: Arc::clone(&stats),
            pipe: Arc::clone(&pipe),
            in_flight: Arc::clone(&in_flight),
            handle: handle.clone(),
            work: Arc::clone(&work),
            ingest,
            cluster: shared.clone(),
            config: config.clone(),
        });
        for i in 0..config.verify_threads.max(1) {
            let ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("confide-verify-{i}"))
                    .spawn(move || pipeline::preverify_worker(ctx, i))?,
            );
        }

        {
            let deps = ReactorDeps {
                stats: Arc::clone(&stats),
                work: Arc::clone(&work),
                peer_tx,
                pk_tx,
                report,
                config: ReactorConfig {
                    max_frame: config.max_frame,
                    read_timeout: config.read_timeout,
                    write_buf_limit: config.write_buf_limit,
                },
            };
            let rhandle = handle.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("confide-reactor".into())
                    .spawn(move || reactor::run(listener, rhandle, deps))?,
            );
        }

        Ok(NodeServer {
            addr: local,
            stats,
            pipe,
            stop,
            reactor: Some(handle),
            threads,
            node,
            cluster: shared,
        })
    }

    /// Live cluster state (`None` in single-node mode).
    pub fn cluster(&self) -> Option<&Arc<crate::cluster::ClusterShared>> {
        self.cluster.as_ref()
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Pipeline stage counters (all zero in cluster mode, where the
    /// consensus driver commits blocks).
    pub fn pipeline_stats(&self) -> &PipelineStats {
        &self.pipe
    }

    /// Read access to the underlying node (tests: state inspection).
    pub fn node(&self) -> &Arc<RwLock<ConfideNode>> {
        &self.node
    }

    /// Stop the reactor, drain the pipeline, and join every thread.
    /// Shutdown cascade: reactor exits → closes every connection and
    /// stops the work queue → preverify workers drain and exit →
    /// dropping the last ingest sender lets the execute stage drain →
    /// dropping the commit sender lets the commit stage drain.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.reactor.take() {
            handle.stop();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Validate a submission *before* it is allowed into the ingest path:
/// confidential envelopes are opened and their inner signature verified
/// (the §5.2 pre-verification pipeline, here running on the preverify
/// worker pool — i.e. in parallel with ordering and with other
/// requests), so a garbage envelope never wastes block space.
/// Takes the confidential engine directly — NOT the node lock — so the
/// envelope crypto runs concurrently with block execution (which holds
/// the node write lock for the whole block; routing preverify through
/// `node.read()` would convoy the worker pool behind it).
pub(crate) fn validate(conf_engine: &Engine, tx: &WireTx) -> Result<(), String> {
    match tx {
        WireTx::Public(signed) => signed.verify().map_err(|_| "bad signature".to_string()),
        WireTx::Confidential(_) => conf_engine
            .preverify(tx)
            .map(|_| ())
            .map_err(|e| e.to_string()),
    }
}

/// Try to enter `wire_hash` into the in-flight set. `false` means the
/// same bytes are already queued or executing.
pub(crate) fn claim(in_flight: &InFlight, wire_hash: [u8; 32]) -> bool {
    in_flight.lock().expect("in-flight lock").insert(wire_hash)
}

pub(crate) fn release(in_flight: &InFlight, wire_hash: &[u8; 32]) {
    in_flight.lock().expect("in-flight lock").remove(wire_hash);
}
