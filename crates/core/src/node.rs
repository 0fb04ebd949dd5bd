//! A full CONFIDE node: storage + block store + both execution engines.

use crate::context::{ExecContext, RwSet};
use crate::counters::{OpCounters, TxStats};
use crate::engine::{Engine, EngineConfig, EngineError, TxPlan, VmKind};
use crate::keys::NodeKeys;
use crate::receipt::Receipt;
use crate::tx::WireTx;
use confide_chain::sched::{assign, conflict_groups, worker_loads, SchedError};
use confide_crypto::{sha256, HmacDrbg};
use confide_storage::blockstore::{Block, BlockHeader, BlockStore, BlockStoreError};
use confide_storage::kv::WriteBatch;
use confide_storage::versioned::{StateDb, StateError};
use confide_storage::wal::{BlockWal, CertLog};
use confide_tee::platform::TeePlatform;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Node-level failures.
#[derive(Debug)]
pub enum NodeError {
    /// Engine failure for a specific transaction index.
    Engine(usize, EngineError),
    /// Engine failure while sealing the block's state overlay at commit.
    Commit(EngineError),
    /// State application failure.
    State(StateError),
    /// Block store failure.
    Blocks(BlockStoreError),
    /// Invalid parallel-execution schedule request (e.g. zero threads).
    Sched(SchedError),
    /// WAL replay failure during crash recovery.
    Recover(RecoverError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Engine(i, e) => write!(f, "tx {i}: {e}"),
            NodeError::Commit(e) => write!(f, "commit: {e}"),
            NodeError::State(e) => write!(f, "state: {e}"),
            NodeError::Blocks(e) => write!(f, "blocks: {e}"),
            NodeError::Sched(e) => write!(f, "sched: {e}"),
            NodeError::Recover(e) => write!(f, "recover: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// Why a WAL replay was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// Recovery must start on a freshly constructed node (height 0).
    NotFresh,
    /// The log's next block does not continue this node's chain.
    Height {
        /// The height this node expected to replay next.
        expected: u64,
        /// The height the log carried.
        found: u64,
    },
    /// Replaying a block's batch produced a different Merkle root than
    /// the sealed header recorded pre-crash — storage corruption beyond
    /// what the CRC framing models, or a log from a different node.
    RootMismatch {
        /// Height of the diverging block.
        height: u64,
    },
    /// A logged transaction no longer decodes (index within its block).
    BadTx {
        /// Height of the block carrying it.
        height: u64,
        /// Index within the block.
        index: usize,
    },
    /// Re-running a logged deployment's registry effect failed.
    Deploy(EngineError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NotFresh => f.write_str("node is not fresh (non-zero height)"),
            RecoverError::Height { expected, found } => {
                write!(
                    f,
                    "log height {found} does not continue tip (want {expected})"
                )
            }
            RecoverError::RootMismatch { height } => {
                write!(
                    f,
                    "replayed state root diverges from sealed header at height {height}"
                )
            }
            RecoverError::BadTx { height, index } => {
                write!(f, "undecodable logged tx {index} in block {height}")
            }
            RecoverError::Deploy(e) => write!(f, "deployment replay: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// What [`ConfideNode::recover_from_wal`] rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks replayed from the log.
    pub blocks_replayed: u64,
    /// Post-recovery chain height.
    pub height: u64,
    /// Post-recovery state root (equals the last replayed header's).
    pub state_root: [u8; 32],
    /// Bytes discarded after the last intact commit marker.
    pub torn_bytes: usize,
    /// Deployment transactions whose registry effect was re-run.
    pub deploys_replayed: usize,
}

/// What [`ConfideNode::catch_up_from_wal`] applied from a peer's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Blocks newly applied (heights at or below the tip are skipped).
    pub blocks_applied: u64,
    /// Post-catch-up chain height.
    pub height: u64,
    /// Post-catch-up state root.
    pub state_root: [u8; 32],
    /// Bytes of the fragment forming complete, applied record groups;
    /// the caller keeps the remainder and retries once more data arrives.
    pub bytes_consumed: usize,
}

/// Result of executing one block.
#[derive(Debug)]
pub struct BlockResult {
    /// The appended block.
    pub block: Block,
    /// Plaintext receipts (node-internal; confidential receipts also
    /// stored sealed).
    pub receipts: Vec<Receipt>,
    /// Sealed receipts for confidential transactions (indexed like txs;
    /// None for public).
    pub sealed_receipts: Vec<Option<Vec<u8>>>,
    /// Per-transaction cost accounting.
    pub tx_stats: Vec<TxStats>,
    /// Aggregate counters for the block.
    pub totals: OpCounters,
}

/// Outcome of one transaction in a block executed by the parallel
/// executor: the plaintext receipt plus the sealed receipt (confidential
/// only), or the engine error that evicted the transaction from the block.
pub type TxOutcome = Result<(Receipt, Option<Vec<u8>>), EngineError>;

/// How the parallel block executor derives its conflict groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Optimistic concurrency: speculate every transaction against the
    /// pre-block state, group by the *measured* read/write journals, then
    /// re-execute conflicting groups (the PR 4 pipeline).
    Occ,
    /// Speculation-free: group by the deploy-time static access summaries
    /// instantiated per transaction ([`Engine::plan_tx`]); falls back to
    /// [`SchedMode::Occ`] whenever any transaction in the block lacks a
    /// precise plan. The fallback decision depends only on the
    /// transactions and the deployed code, so every replica agrees on it.
    Static,
}

/// What the parallel block executor measured for one block (§6.2): the
/// conflict-group structure and the per-worker attributed virtual cycles
/// under the LPT schedule. `makespan_cycles / serial_cycles` is the
/// modeled speedup — the same quantity `confide_chain::sched::makespan`
/// prices in the PBFT simulator, now measured on the real executor.
#[derive(Debug, Clone)]
pub struct ParallelExecReport {
    /// Worker threads the schedule was built for.
    pub threads: usize,
    /// Conflict groups discovered from the measured read/write sets
    /// (0 when the block fell back to serial before grouping).
    pub groups: usize,
    /// Attributed cycles per worker under the LPT assignment.
    pub worker_cycles: Vec<u64>,
    /// max(worker_cycles): the block's parallel critical path.
    pub makespan_cycles: u64,
    /// Sum of all transactions' attributed cycles (the 1-thread cost).
    pub serial_cycles: u64,
    /// True when the block was executed serially instead — a deployment
    /// transaction or a cross-group conflict discovered at validation.
    /// The fallback decision is deterministic (it depends only on the
    /// transactions, never on thread count or timing).
    pub serial_fallback: bool,
    /// True when the schedule came from static access summaries and the
    /// block executed without a speculation phase.
    pub static_schedule: bool,
    /// Speculative (phase-1) executions performed: `txs.len()` on the OCC
    /// path, 0 on the static path — the overhead this PR's analysis
    /// removes.
    pub spec_runs: usize,
    /// Aggregate counters burned by the speculation phase (zero on the
    /// static path; the acceptance check that "zero speculation runs"
    /// is observable, not asserted by fiat).
    pub spec_counters: OpCounters,
    /// Cycles spent deriving static plans (envelope peeks) before
    /// execution; 0 on the OCC path.
    pub plan_cycles: u64,
}

/// Result of executing one block on the parallel executor. Identical
/// The WAL bytes one staged block appended — the input of the persist
/// half of the split commit seam ([`ConfideNode::execute_block_staged`]).
/// Acknowledging any transaction of height `height` before `bytes` is
/// durable breaks the crash-safety triad.
#[derive(Debug, Clone)]
pub struct WalDelta {
    /// Height of the block these bytes frame.
    pub height: u64,
    /// The framed record group (header, txs, batch, commit marker).
    pub bytes: Vec<u8>,
}

/// state transition to [`ConfideNode::execute_block_parallel`] at any
/// other thread count — the report is the only part that varies.
#[derive(Debug)]
pub struct ParallelBlockResult {
    /// The appended block (contains only the accepted transactions).
    pub block: Block,
    /// One entry per *input* transaction, in submission order.
    pub outcomes: Vec<TxOutcome>,
    /// Aggregate counters over the accepted transactions.
    pub totals: OpCounters,
    /// Scheduling measurements for this block.
    pub report: ParallelExecReport,
}

impl ParallelBlockResult {
    /// Number of transactions that made it into the block.
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }
}

/// Deterministic per-transaction receipt-sealing RNG. Seeded from the
/// block height and the wire hash only, so every replica — and every
/// thread count — seals a given transaction's receipt with the identical
/// nonce. Uniqueness holds because replay protection admits each wire
/// transaction at one height exactly once.
/// Deterministic LPT load estimate for one executed transaction: the
/// attributed cycles minus the memory-pool-miss share, which depends on
/// pool pressure (concurrency) and would otherwise jitter the schedule
/// and the makespan report across runs.
fn stable_cost(counters: &OpCounters) -> u64 {
    counters
        .total_cycles()
        .saturating_sub(counters.mem_commit_cycles)
        .max(1)
}

/// Debug-mode soundness oracle (the tentpole's enforcement clause): the
/// journaled [`RwSet`] of every executed transaction must be admitted by
/// its static plan's matchers. Compiled out of release builds; in debug
/// builds it turns an under-approximating access summary into a loud
/// deterministic panic instead of a silent wrong-state root.
fn oracle_check(plans: Option<&[Option<TxPlan>]>, i: usize, rw: &RwSet) {
    if cfg!(debug_assertions) {
        if let Some(Some(plan)) = plans.map(|p| p.get(i).and_then(Option::as_ref)) {
            debug_assert!(
                rw.covered_by(&plan.reads, &plan.writes),
                "static access summary under-approximates tx {i}: journal {rw:?} escapes plan {plan:?}"
            );
        }
    }
}

/// State key of the wire-hash → receipt index (dedup seam: a resubmitted
/// transaction resolves to its stored receipt instead of re-executing).
fn wire_index_key(wire_hash: &[u8; 32]) -> Vec<u8> {
    let mut k = b"wiretx|".to_vec();
    k.extend_from_slice(wire_hash);
    k
}

/// Index value: the receipt's tx hash plus a sealed flag.
fn wire_index_value(receipt: &Receipt, sealed: &Option<Vec<u8>>) -> Vec<u8> {
    let mut v = Vec::with_capacity(33);
    v.extend_from_slice(&receipt.tx_hash);
    v.push(sealed.is_some() as u8);
    v
}

fn tx_receipt_rng(height: u64, wire_hash: &[u8; 32]) -> HmacDrbg {
    let mut seed = Vec::with_capacity(29 + 8 + 32);
    seed.extend_from_slice(b"confide/par-exec/receipt-rng|");
    seed.extend_from_slice(&height.to_le_bytes());
    seed.extend_from_slice(wire_hash);
    HmacDrbg::new(&seed)
}

/// Prefix every key of `keys` with the engine namespace byte. The public
/// and confidential engines keep separate block overlays (their writes
/// are invisible to each other in-block), so identical full keys on the
/// two engines are *not* a conflict.
fn namespaced(ns: u8, keys: &BTreeSet<Vec<u8>>) -> BTreeSet<Vec<u8>> {
    keys.iter()
        .map(|k| {
            let mut nk = Vec::with_capacity(1 + k.len());
            nk.push(ns);
            nk.extend_from_slice(k);
            nk
        })
        .collect()
}

/// Phase-1 speculation result for one transaction: executed against the
/// committed pre-block state in a private context.
struct SpecTx {
    outcome: TxOutcome,
    stats: Option<TxStats>,
    /// Attributed cycles (≥ 1), the LPT load estimate.
    cost: u64,
    /// The speculative writes (the private context's overlay).
    overlay: HashMap<Vec<u8>, Option<Vec<u8>>>,
    is_conf: bool,
}

/// Phase-2 result for one multi-transaction conflict group, executed
/// serially (submission order) in a private context pair.
struct GroupExec {
    /// (tx index, outcome, stats) per member, in submission order.
    txs: Vec<(usize, TxOutcome, Option<TxStats>)>,
    pub_overlay: HashMap<Vec<u8>, Option<Vec<u8>>>,
    conf_overlay: HashMap<Vec<u8>, Option<Vec<u8>>>,
    touched: BTreeSet<Vec<u8>>,
    written: BTreeSet<Vec<u8>>,
    /// Measured stable cost of the group (sum of members').
    cost: u64,
}

/// A CONFIDE node. In a real deployment one process; in the simulation one
/// of these per simulated node, all sharing deterministic keys via
/// K-Protocol.
pub struct ConfideNode {
    /// Contract states (versioned, rollback-detecting).
    pub state: StateDb,
    /// The hash-linked chain.
    pub blocks: BlockStore,
    /// Plain execution. `Arc`-shared so a server front end can pre-verify
    /// against the engine without holding the node lock (the engines are
    /// internally synchronized; all their methods take `&self`).
    pub public_engine: Arc<Engine>,
    /// In-enclave execution (`Arc`-shared, same rationale).
    pub confidential_engine: Arc<Engine>,
    /// The block-framed commit log: every sealed block lands here before
    /// the node acknowledges it (durable-commit seam; `confide-node`
    /// flushes it to disk incrementally).
    wal: BlockWal,
    /// Sidecar log of quorum certificates, one opaque record per committed
    /// height. Opaque to the core (encoding and verification live in the
    /// consensus crate); kept out of the block WAL so replica-local vote
    /// subsets never perturb the byte-identical WAL stream.
    certs: CertLog,
    rng: HmacDrbg,
    timestamp_ns: u64,
}

impl ConfideNode {
    /// Stand up a node on a TEE platform with provisioned keys.
    pub fn new(
        platform: Arc<TeePlatform>,
        keys: NodeKeys,
        config: EngineConfig,
        seed: u64,
    ) -> ConfideNode {
        ConfideNode {
            state: StateDb::new(),
            blocks: BlockStore::new(),
            public_engine: Arc::new(Engine::public(config)),
            confidential_engine: Arc::new(Engine::confidential(platform, keys, config)),
            wal: BlockWal::new(),
            certs: CertLog::new(),
            rng: HmacDrbg::from_u64(seed),
            timestamp_ns: 0,
        }
    }

    /// The durable commit log: every block this node has sealed, framed
    /// and CRC'd. A file-backed deployment appends `wal_bytes()[n..]` to
    /// disk after each block (where `n` is the previously flushed length)
    /// and feeds the file back through [`ConfideNode::recover_from_wal`]
    /// on restart.
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// Byte length of the commit log — the flush cursor a file-backed
    /// deployment tracks between incremental appends.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// Record the quorum certificate for `height` in the sidecar log.
    /// Must be called *before* acknowledging the height's transactions, so
    /// every acked block is provable to a light peer.
    pub fn record_cert(&mut self, height: u64, cert: &[u8]) {
        self.certs.append_cert(height, cert);
    }

    /// The raw certificate sidecar bytes (flushed incrementally next to
    /// the WAL, at `<wal>.certs`).
    pub fn cert_sidecar_bytes(&self) -> &[u8] {
        self.certs.bytes()
    }

    /// Byte length of the certificate sidecar — its flush cursor.
    pub fn cert_sidecar_len(&self) -> usize {
        self.certs.len()
    }

    /// Restore the certificate sidecar from recovered file bytes (only
    /// the intact prefix is kept). Call alongside WAL recovery.
    pub fn load_cert_sidecar(&mut self, bytes: &[u8]) {
        self.certs = CertLog::from_recovered(bytes);
    }

    /// The stored certificate for `height`, if any.
    pub fn cert_for(&self, height: u64) -> Option<Vec<u8>> {
        CertLog::recover(self.certs.bytes())
            .certs
            .into_iter()
            .rev()
            .find(|(h, _)| *h == height)
            .map(|(_, c)| c)
    }

    /// All stored certificates for heights in `(from, to]`, ascending.
    pub fn certs_in(&self, from: u64, to: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = CertLog::recover(self.certs.bytes())
            .certs
            .into_iter()
            .filter(|(h, _)| *h > from && *h <= to)
            .collect();
        out.sort_by_key(|(h, _)| *h);
        out.dedup_by_key(|(h, _)| *h);
        out
    }

    /// Highest height with a stored certificate (None when empty).
    pub fn last_certified(&self) -> Option<u64> {
        CertLog::recover(self.certs.bytes())
            .certs
            .iter()
            .map(|(h, _)| *h)
            .max()
    }

    /// The **execute half** of the split commit seam: run
    /// [`ConfideNode::execute_block_sched`] and hand back the WAL delta
    /// this block appended, so the **persist half** (the commit stage of
    /// a pipelined server) can make it durable *outside* the node lock.
    ///
    /// The durability contract moves with the delta: no transaction of
    /// this block may be acknowledged until the returned bytes are
    /// fsynced. Splitting the halves lets execution of block N+1 overlap
    /// the fsync of block N (and lets several deltas share one fsync via
    /// group commit) without weakening ack-implies-durable.
    pub fn execute_block_staged(
        &mut self,
        txs: &[WireTx],
        threads: usize,
        mode: SchedMode,
    ) -> Result<(ParallelBlockResult, WalDelta), NodeError> {
        let from = self.wal.len();
        let res = self.execute_block_sched(txs, threads, mode)?;
        let bytes = self.wal.bytes()[from..].to_vec();
        Ok((
            res,
            WalDelta {
                height: self.blocks.height(),
                bytes,
            },
        ))
    }

    /// Replay a commit log into this **freshly constructed** node:
    /// rebuild the memtable and Merkle roots by re-applying each block's
    /// batch, assert the recovered root equals the sealed header root at
    /// every height, re-link the block store, and re-run the registry
    /// effect of any logged deployment transactions. The torn tail (a
    /// crash mid-append) is discarded — recovery lands on the last block
    /// whose commit marker is intact.
    ///
    /// Genesis-time direct [`ConfideNode::deploy`] calls are not block
    /// transactions and therefore not in the log; reconstruct the node
    /// through the same deterministic bootstrap first (same platform,
    /// keys, config, seed, genesis deploys), then replay.
    pub fn recover_from_wal(&mut self, log: &[u8]) -> Result<RecoveryReport, NodeError> {
        if self.state.height() != 0 || self.blocks.height() != 0 {
            return Err(NodeError::Recover(RecoverError::NotFresh));
        }
        let rec = BlockWal::recover(log);
        let mut deploys_replayed = 0usize;
        for wb in &rec.blocks {
            deploys_replayed += self.replay_wal_block(wb)?;
        }
        self.wal = BlockWal::from_recovered(log);
        Ok(RecoveryReport {
            blocks_replayed: rec.blocks.len() as u64,
            height: self.blocks.height(),
            state_root: self.state.root(),
            torn_bytes: rec.torn_bytes,
            deploys_replayed,
        })
    }

    /// Replay one recovered WAL block onto the tip: re-run deployment
    /// registry effects, re-apply the batch, assert the sealed root, and
    /// re-link the block store. Returns the deploys replayed.
    fn replay_wal_block(
        &mut self,
        wb: &confide_storage::wal::WalBlock,
    ) -> Result<usize, NodeError> {
        let expected = self.state.height() + 1;
        if wb.header.height != expected {
            return Err(NodeError::Recover(RecoverError::Height {
                expected,
                found: wb.header.height,
            }));
        }
        let mut deploys_replayed = 0usize;
        for (index, bytes) in wb.txs.iter().enumerate() {
            let wire = WireTx::decode(bytes).map_err(|_| {
                NodeError::Recover(RecoverError::BadTx {
                    height: wb.header.height,
                    index,
                })
            })?;
            let engine = match &wire {
                WireTx::Public(_) => &self.public_engine,
                WireTx::Confidential(_) => &self.confidential_engine,
            };
            if engine
                .replay_deploy(&wire)
                .map_err(|e| NodeError::Recover(RecoverError::Deploy(e)))?
            {
                deploys_replayed += 1;
            }
        }
        let root = self
            .state
            .apply_block(wb.header.height, &wb.batch)
            .map_err(NodeError::State)?;
        if root != wb.header.state_root {
            return Err(NodeError::Recover(RecoverError::RootMismatch {
                height: wb.header.height,
            }));
        }
        self.blocks
            .append(Block {
                header: wb.header.clone(),
                txs: wb.txs.clone(),
            })
            .map_err(NodeError::Blocks)?;
        self.timestamp_ns = wb.header.timestamp_ns;
        Ok(deploys_replayed)
    }

    /// Apply a fragment of a **peer's** WAL to a *running* node (state
    /// sync). Unlike [`ConfideNode::recover_from_wal`] this does not
    /// require a fresh node: blocks at or below the current tip are
    /// skipped, the next block must continue the chain (a height gap is a
    /// [`RecoverError::Height`] error), and every applied block is
    /// re-framed into the local WAL. Because block sealing is fully
    /// deterministic across replicas, the re-framed bytes are identical to
    /// the peer's — so byte-offset sync cursors remain valid afterwards.
    ///
    /// The fragment may end mid-record-group (a chunked transfer);
    /// complete groups are applied and `bytes_consumed` tells the caller
    /// how much of the fragment was used.
    pub fn catch_up_from_wal(&mut self, fragment: &[u8]) -> Result<CatchUpReport, NodeError> {
        let rec = BlockWal::recover(fragment);
        let mut applied = 0u64;
        for wb in &rec.blocks {
            if wb.header.height <= self.state.height() {
                continue;
            }
            self.replay_wal_block(wb)?;
            self.wal.append_block(&wb.header, &wb.txs, &wb.batch);
            applied += 1;
        }
        Ok(CatchUpReport {
            blocks_applied: applied,
            height: self.blocks.height(),
            state_root: self.state.root(),
            bytes_consumed: rec.consumed,
        })
    }

    /// `pk_tx` for clients.
    ///
    /// Infallible by construction: every `Node` is built with a
    /// confidential engine (see the constructors above), so the inner
    /// `Option` is always `Some`.
    pub fn pk_tx(&self) -> [u8; 32] {
        self.confidential_engine
            .pk_tx()
            .expect("confidential engine")
    }

    /// This node's platform attestation root — what peers verify this
    /// node's quotes against (the consortium registry entry for the
    /// platform).
    pub fn attestation_root(&self) -> confide_crypto::ed25519::VerifyingKey {
        self.confidential_engine
            .tee()
            .expect("confidential engine")
            .platform
            .attestation_public_key()
    }

    /// Member side of a wire rejoin (K-Protocol step 2): verify the
    /// joiner's quoted [`crate::keys::JoinOffer`] against its registered
    /// attestation root and, if genuine, wrap this node's consortium
    /// secrets back together with a counter-quote. This is the seam a
    /// networked server exposes so a crashed node can re-obtain
    /// `k_states` from any surviving member without manual key
    /// distribution.
    pub fn approve_join(
        &self,
        joiner_attestation_root: &confide_crypto::ed25519::VerifyingKey,
        offer: &crate::keys::JoinOffer,
        svn: u16,
        min_svn: u16,
        seed: u64,
    ) -> Result<(Vec<u8>, confide_tee::attestation::Report), crate::keys::KeyProtocolError> {
        let tee = self.confidential_engine.tee().expect("confidential engine");
        crate::keys::approve_join(
            &tee.platform,
            &tee.keys,
            joiner_attestation_root,
            offer,
            svn,
            min_svn,
            seed,
        )
    }

    /// Deploy a contract on the appropriate engine (genesis convenience;
    /// deployments can also travel as transactions). Subject to the same
    /// deploy-time bytecode verification as [`Engine::deploy`].
    pub fn deploy(
        &self,
        address: [u8; 32],
        code: &[u8],
        vm: VmKind,
        confidential: bool,
    ) -> Result<(), crate::engine::EngineError> {
        if confidential {
            self.confidential_engine.deploy(address, code, vm, true)
        } else {
            self.public_engine.deploy(address, code, vm, false)
        }
    }

    /// Run direct-invocation genesis setup against the confidential engine
    /// and commit it as an (empty-transaction) block, keeping the state DB
    /// and the block store in lockstep.
    pub fn run_genesis(
        &mut self,
        f: impl FnOnce(&Engine, &StateDb, &mut ExecContext),
    ) -> Result<(), NodeError> {
        let mut ctx = ExecContext::new();
        f(&self.confidential_engine, &self.state, &mut ctx);
        let height = self.state.height() + 1;
        let batch = self
            .confidential_engine
            .commit_block(&mut ctx, height)
            .map_err(NodeError::Commit)?;
        let state_root = self
            .state
            .apply_block(height, &batch)
            .map_err(NodeError::State)?;
        self.timestamp_ns += 1_000_000;
        let block = Block {
            header: BlockHeader {
                height,
                parent: self.blocks.tip().header.hash(),
                state_root,
                tx_root: Block::tx_root(&[]),
                timestamp_ns: self.timestamp_ns,
            },
            txs: Vec::new(),
        };
        let header = block.header.clone();
        self.blocks.append(block).map_err(NodeError::Blocks)?;
        self.wal.append_block(&header, &[], &batch);
        Ok(())
    }

    /// Pre-verify a batch of transactions (the §5.2 pipeline; done in
    /// parallel with ordering in production). Returns total cycles spent.
    pub fn preverify(&self, txs: &[WireTx]) -> u64 {
        let mut total = 0;
        for tx in txs {
            if let Ok(c) = self.confidential_engine.preverify(tx) {
                total += c;
            }
        }
        total
    }

    /// Execute a block of transactions: public → Public-Engine,
    /// confidential → Confidential-Engine (both write through one state
    /// overlay view per engine, merged at commit), then append the block.
    pub fn execute_block(&mut self, txs: &[WireTx]) -> Result<BlockResult, NodeError> {
        let height = self.state.height() + 1;
        let mut pub_ctx = ExecContext::new();
        let mut conf_ctx = ExecContext::new();
        let mut receipts = Vec::with_capacity(txs.len());
        let mut sealed_receipts = Vec::with_capacity(txs.len());
        let mut tx_stats = Vec::with_capacity(txs.len());
        let mut totals = OpCounters::default();
        for (i, tx) in txs.iter().enumerate() {
            let (engine, ctx) = match tx {
                WireTx::Public(_) => (&self.public_engine, &mut pub_ctx),
                WireTx::Confidential(_) => (&self.confidential_engine, &mut conf_ctx),
            };
            let (receipt, sealed, stats) = engine
                .execute_transaction(&self.state, ctx, tx, &mut self.rng)
                .map_err(|e| NodeError::Engine(i, e))?;
            totals.add(&stats.counters);
            receipts.push(receipt);
            sealed_receipts.push(sealed);
            tx_stats.push(stats);
        }
        // Merge both engines' batches; persist sealed receipts alongside.
        let mut batch = WriteBatch::new();
        for b in [
            self.public_engine.commit_block(&mut pub_ctx, height),
            self.confidential_engine.commit_block(&mut conf_ctx, height),
        ] {
            batch.ops.extend(b.map_err(NodeError::Commit)?.ops);
        }
        let tx_bytes: Vec<Vec<u8>> = txs.iter().map(|t| t.encode()).collect();
        for ((receipt, sealed), wire) in receipts.iter().zip(&sealed_receipts).zip(&tx_bytes) {
            let mut key = b"receipt|".to_vec();
            key.extend_from_slice(&receipt.tx_hash);
            match sealed {
                Some(ct) => batch.put(key, ct.clone()),
                None => batch.put(key, receipt.encode()),
            };
            batch.put(
                wire_index_key(&sha256(wire)),
                wire_index_value(receipt, sealed),
            );
        }
        let state_root = self
            .state
            .apply_block(height, &batch)
            .map_err(NodeError::State)?;
        self.timestamp_ns += 1_000_000;
        let block = Block {
            header: BlockHeader {
                height,
                parent: self.blocks.tip().header.hash(),
                state_root,
                tx_root: Block::tx_root(&tx_bytes),
                timestamp_ns: self.timestamp_ns,
            },
            txs: tx_bytes,
        };
        self.blocks
            .append(block.clone())
            .map_err(NodeError::Blocks)?;
        self.wal.append_block(&block.header, &block.txs, &batch);
        Ok(BlockResult {
            block,
            receipts,
            sealed_receipts,
            tx_stats,
            totals,
        })
    }

    /// Shared commit tail of the parallel executor's paths: seal both
    /// engines' overlays, persist receipts, apply the batch, and append
    /// the block (containing only the accepted transactions' bytes).
    fn seal_block(
        &mut self,
        mut pub_ctx: ExecContext,
        mut conf_ctx: ExecContext,
        outcomes: &[TxOutcome],
        accepted_bytes: Vec<Vec<u8>>,
    ) -> Result<Block, NodeError> {
        let height = self.state.height() + 1;
        let mut batch = WriteBatch::new();
        for b in [
            self.public_engine.commit_block(&mut pub_ctx, height),
            self.confidential_engine.commit_block(&mut conf_ctx, height),
        ] {
            batch.ops.extend(b.map_err(NodeError::Commit)?.ops);
        }
        for ((receipt, sealed), wire) in outcomes.iter().flatten().zip(&accepted_bytes) {
            let mut key = b"receipt|".to_vec();
            key.extend_from_slice(&receipt.tx_hash);
            match sealed {
                Some(ct) => batch.put(key, ct.clone()),
                None => batch.put(key, receipt.encode()),
            };
            batch.put(
                wire_index_key(&sha256(wire)),
                wire_index_value(receipt, sealed),
            );
        }
        let state_root = self
            .state
            .apply_block(height, &batch)
            .map_err(NodeError::State)?;
        self.timestamp_ns += 1_000_000;
        let block = Block {
            header: BlockHeader {
                height,
                parent: self.blocks.tip().header.hash(),
                state_root,
                tx_root: Block::tx_root(&accepted_bytes),
                timestamp_ns: self.timestamp_ns,
            },
            txs: accepted_bytes,
        };
        self.blocks
            .append(block.clone())
            .map_err(NodeError::Blocks)?;
        self.wal.append_block(&block.header, &block.txs, &batch);
        Ok(block)
    }

    /// Execute a block on the **conflict-keyed parallel executor** (§6.2)
    /// with lenient per-transaction semantics, committing a state
    /// transition bit-identical to the same call at any other thread
    /// count.
    ///
    /// Lenient: a transaction that fails (replay, bad envelope, unknown
    /// contract, …) is rolled back via the [`ExecContext`] journal and
    /// *excluded* from the block instead of aborting the whole batch, so
    /// one malicious client cannot poison a block shared with honest
    /// traffic. A block is committed even when every transaction fails;
    /// only commit-level failures return `Err`.
    ///
    /// The pipeline:
    ///
    /// 1. **Speculate** every transaction in isolation against the
    ///    committed pre-block state on `threads` workers, deriving its
    ///    read/write set from the [`ExecContext`] journal.
    /// 2. **Group** transactions whose key sets conflict (a writer and
    ///    any toucher of the same key) with
    ///    [`confide_chain::sched::conflict_groups`]; groups are the §6.2
    ///    conflict keys, measured instead of declared.
    /// 3. **Schedule** groups onto the worker pool with the same LPT
    ///    [`confide_chain::sched::assign`] the PBFT simulator prices, and
    ///    re-execute multi-transaction groups serially-within-group.
    ///    Singleton groups adopt their speculation verbatim.
    /// 4. **Validate** that the executed groups' key sets stayed
    ///    pairwise write-disjoint, then **merge** the group overlays and
    ///    commit in deterministic submission order.
    ///
    /// Deployment transactions (they mutate the shared contract registry
    /// outside the journal) and validation failures fall back to a
    /// serial re-execution of the whole block — a decision that depends
    /// only on the transactions, so every replica and thread count
    /// agrees on it.
    ///
    /// Receipts are sealed with a per-transaction RNG derived from
    /// `(height, wire_hash)`, making the sealed bytes independent of
    /// execution interleaving.
    pub fn execute_block_parallel(
        &mut self,
        txs: &[WireTx],
        threads: usize,
    ) -> Result<ParallelBlockResult, NodeError> {
        self.execute_block_sched(txs, threads, SchedMode::Static)
    }

    /// [`ConfideNode::execute_block_parallel`] with an explicit scheduling
    /// mode. [`SchedMode::Static`] tries the speculation-free fast path
    /// first (deploy-time access summaries → conflict groups) and falls
    /// back to OCC whenever any transaction lacks a precise plan;
    /// [`SchedMode::Occ`] forces the speculative pipeline (the benchmark
    /// baseline). Both commit bit-identical state transitions.
    pub fn execute_block_sched(
        &mut self,
        txs: &[WireTx],
        threads: usize,
        mode: SchedMode,
    ) -> Result<ParallelBlockResult, NodeError> {
        if threads == 0 {
            return Err(NodeError::Sched(SchedError::ZeroThreads));
        }
        // Static mode needs the plans; debug builds compute them in OCC
        // mode too, so the soundness oracle covers every executed
        // transaction regardless of scheduling path.
        let plans: Option<Vec<Option<TxPlan>>> =
            if matches!(mode, SchedMode::Static) || cfg!(debug_assertions) {
                Some(txs.iter().map(|t| self.plan_of(t)).collect())
            } else {
                None
            };
        if matches!(mode, SchedMode::Static) {
            let planned = plans.as_deref().expect("plans computed in static mode");
            if let Some(res) = self.try_execute_block_static(txs, threads, planned)? {
                return Ok(res);
            }
        }
        self.execute_block_occ(txs, threads, plans.as_deref())
    }

    /// The static plan for one wire transaction, from whichever engine
    /// will execute it.
    fn plan_of(&self, tx: &WireTx) -> Option<TxPlan> {
        match tx {
            WireTx::Public(_) => self.public_engine.plan_tx(tx),
            WireTx::Confidential(_) => self.confidential_engine.plan_tx(tx),
        }
    }

    /// The §6.2 fast path: schedule the block purely from static access
    /// plans and execute every conflict group exactly once — zero
    /// speculation runs. Returns `Ok(None)` (try OCC instead) unless
    /// every transaction carries a precise, fully-exact plan.
    fn try_execute_block_static(
        &mut self,
        txs: &[WireTx],
        threads: usize,
        plans: &[Option<TxPlan>],
    ) -> Result<Option<ParallelBlockResult>, NodeError> {
        let mut touched = Vec::with_capacity(txs.len());
        let mut written = Vec::with_capacity(txs.len());
        let mut tx_loads = Vec::with_capacity(txs.len());
        let mut plan_cycles = 0u64;
        for (i, plan) in plans.iter().enumerate() {
            let Some(plan) = plan else { return Ok(None) };
            let Some((t, w)) = plan.exact_sets() else {
                return Ok(None);
            };
            // Same per-engine key namespacing the OCC path applies to its
            // measured journals, so grouping and validation speak one
            // key language.
            let ns = if matches!(txs[i], WireTx::Confidential(_)) {
                b'c'
            } else {
                b'p'
            };
            touched.push(namespaced(ns, &t));
            written.push(namespaced(ns, &w));
            tx_loads.push(plan.cost.max(1));
            plan_cycles += plan.plan_cycles;
        }
        let height = self.state.height() + 1;
        let groups = conflict_groups(&touched, &written);
        let loads: Vec<u64> = groups
            .iter()
            .map(|members| members.iter().map(|&i| tx_loads[i]).sum::<u64>().max(1))
            .collect();
        let assignment = assign(&loads, threads).map_err(NodeError::Sched)?;

        // Execute every group (including singletons — there is no
        // speculation to adopt) serially-within-group on the assigned
        // workers.
        let group_execs = self.execute_groups(txs, height, &groups, &assignment, true, Some(plans));

        // Validation: the *measured* key sets must honor the static
        // grouping — pairwise write-disjoint across groups. A violation
        // means a summary under-approximated (the debug oracle would have
        // fired); fall back to the deterministic serial path rather than
        // commit a racy merge.
        let mut writer_of: HashMap<&[u8], usize> = HashMap::new();
        for (g, exec) in group_execs.iter().enumerate() {
            if let Some(exec) = exec {
                for key in &exec.written {
                    writer_of.insert(key.as_slice(), g);
                }
            }
        }
        let disjoint = group_execs.iter().enumerate().all(|(g, exec)| {
            exec.as_ref().is_none_or(|exec| {
                exec.touched
                    .iter()
                    .all(|key| writer_of.get(key.as_slice()).is_none_or(|&w| w == g))
            })
        });
        if !disjoint {
            let mut res = self.execute_serial_equivalent(txs, threads, groups.len())?;
            res.report.plan_cycles = plan_cycles;
            return Ok(Some(res));
        }

        // Report loads are the measured per-group stable costs, like the
        // OCC path's (the planned costs only shaped the assignment).
        let measured: Vec<u64> = group_execs
            .iter()
            .map(|e| e.as_ref().map_or(1, |x| x.cost.max(1)))
            .collect();
        let worker_cycles = worker_loads(&assignment, &measured);
        let makespan_cycles = worker_cycles.iter().copied().max().unwrap_or(0);
        let serial_cycles: u64 = measured.iter().sum();

        let mut pub_ctx = ExecContext::new();
        let mut conf_ctx = ExecContext::new();
        let mut slots: Vec<Option<(TxOutcome, Option<TxStats>)>> =
            (0..txs.len()).map(|_| None).collect();
        for exec in group_execs.into_iter().flatten() {
            pub_ctx.overlay.extend(exec.pub_overlay);
            conf_ctx.overlay.extend(exec.conf_overlay);
            for (i, outcome, stats) in exec.txs {
                slots[i] = Some((outcome, stats));
            }
        }
        let mut outcomes = Vec::with_capacity(txs.len());
        let mut totals = OpCounters::default();
        let mut accepted_bytes = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let (outcome, stats) = slot.expect("every tx belongs to exactly one group");
            if outcome.is_ok() {
                if let Some(stats) = &stats {
                    totals.add(&stats.counters);
                }
                accepted_bytes.push(txs[i].encode());
            }
            outcomes.push(outcome);
        }
        let block = self.seal_block(pub_ctx, conf_ctx, &outcomes, accepted_bytes)?;
        Ok(Some(ParallelBlockResult {
            block,
            outcomes,
            totals,
            report: ParallelExecReport {
                threads,
                groups: groups.len(),
                worker_cycles,
                makespan_cycles,
                serial_cycles,
                serial_fallback: false,
                static_schedule: true,
                spec_runs: 0,
                spec_counters: OpCounters::default(),
                plan_cycles,
            },
        }))
    }

    /// The speculative (OCC) pipeline — phases 1–4 of the module docs.
    fn execute_block_occ(
        &mut self,
        txs: &[WireTx],
        threads: usize,
        plans: Option<&[Option<TxPlan>]>,
    ) -> Result<ParallelBlockResult, NodeError> {
        let height = self.state.height() + 1;

        // Phase 1: speculate every tx in isolation on the worker pool.
        let (spec, spec_touched, spec_written) = self.speculate_all(txs, height, threads, plans);
        let mut spec_counters = OpCounters::default();
        for s in &spec {
            if let Some(stats) = &s.stats {
                spec_counters.add(&stats.counters);
            }
        }

        // Deployments mutate the contract registry outside any journal;
        // serialize the whole block when one is present. (Public deploys
        // are visible in the wire tx; confidential ones only in the
        // speculation receipt — both checks are thread-count-invariant.)
        let has_deploy = txs
            .iter()
            .any(|t| matches!(t, WireTx::Public(signed) if signed.raw.contract == [0u8; 32]))
            || spec
                .iter()
                .any(|s| matches!(&s.outcome, Ok((receipt, _)) if receipt.contract == [0u8; 32]));
        if has_deploy {
            let mut res = self.execute_serial_equivalent(txs, threads, 0)?;
            res.report.spec_runs = txs.len();
            res.report.spec_counters = spec_counters;
            return Ok(res);
        }

        // Group by the measured conflicts and schedule the groups LPT,
        // exactly as the simulator models it.
        let groups = conflict_groups(&spec_touched, &spec_written);
        let loads: Vec<u64> = groups
            .iter()
            .map(|members| members.iter().map(|&i| spec[i].cost).sum::<u64>().max(1))
            .collect();
        let serial_cycles: u64 = loads.iter().sum();
        let assignment = assign(&loads, threads).map_err(NodeError::Sched)?;
        let worker_cycles = worker_loads(&assignment, &loads);
        let makespan_cycles = worker_cycles.iter().copied().max().unwrap_or(0);

        // Phase 2: re-execute multi-tx groups serially-within-group on
        // the assigned workers; singleton groups adopt their speculation
        // (provably identical: same fresh context, same base state, same
        // per-tx RNG).
        let group_execs = self.execute_groups(txs, height, &groups, &assignment, false, plans);

        // Validation: the executed key sets must still be pairwise
        // write-disjoint across groups (re-execution can follow different
        // control flow than speculation). Any overlap → serial fallback.
        let mut group_touched: Vec<BTreeSet<Vec<u8>>> = Vec::with_capacity(groups.len());
        let mut group_written: Vec<BTreeSet<Vec<u8>>> = Vec::with_capacity(groups.len());
        for (g, members) in groups.iter().enumerate() {
            match &group_execs[g] {
                Some(exec) => {
                    group_touched.push(exec.touched.clone());
                    group_written.push(exec.written.clone());
                }
                None => {
                    let i = members[0];
                    group_touched.push(spec_touched[i].clone());
                    group_written.push(spec_written[i].clone());
                }
            }
        }
        let mut writer_of: HashMap<&[u8], usize> = HashMap::new();
        for (g, written) in group_written.iter().enumerate() {
            for key in written {
                writer_of.insert(key.as_slice(), g);
            }
        }
        let disjoint = group_touched.iter().enumerate().all(|(g, touched)| {
            touched
                .iter()
                .all(|key| writer_of.get(key.as_slice()).is_none_or(|&w| w == g))
        });
        if !disjoint {
            let mut res = self.execute_serial_equivalent(txs, threads, groups.len())?;
            res.report.spec_runs = txs.len();
            res.report.spec_counters = spec_counters;
            return Ok(res);
        }

        // Merge: group overlays are disjoint, so extending the two
        // block-level contexts in group order reproduces the serial
        // overlay exactly; outcomes re-assemble in submission order.
        let mut pub_ctx = ExecContext::new();
        let mut conf_ctx = ExecContext::new();
        let mut slots: Vec<Option<(TxOutcome, Option<TxStats>)>> =
            (0..txs.len()).map(|_| None).collect();
        let mut spec = spec; // consume speculation results by index
        for (g, members) in groups.iter().enumerate() {
            match group_execs[g] {
                Some(ref _exec) => {}
                None => {
                    let i = members[0];
                    let s = std::mem::replace(
                        &mut spec[i],
                        SpecTx {
                            outcome: Err(EngineError::WrongEngine),
                            stats: None,
                            cost: 0,
                            overlay: HashMap::new(),
                            is_conf: false,
                        },
                    );
                    let ctx = if s.is_conf {
                        &mut conf_ctx
                    } else {
                        &mut pub_ctx
                    };
                    ctx.overlay.extend(s.overlay);
                    slots[i] = Some((s.outcome, s.stats));
                }
            }
        }
        for exec in group_execs.into_iter().flatten() {
            pub_ctx.overlay.extend(exec.pub_overlay);
            conf_ctx.overlay.extend(exec.conf_overlay);
            for (i, outcome, stats) in exec.txs {
                slots[i] = Some((outcome, stats));
            }
        }
        let mut outcomes = Vec::with_capacity(txs.len());
        let mut totals = OpCounters::default();
        let mut accepted_bytes = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let (outcome, stats) = slot.expect("every tx belongs to exactly one group");
            if outcome.is_ok() {
                if let Some(stats) = &stats {
                    totals.add(&stats.counters);
                }
                accepted_bytes.push(txs[i].encode());
            }
            outcomes.push(outcome);
        }
        let block = self.seal_block(pub_ctx, conf_ctx, &outcomes, accepted_bytes)?;
        Ok(ParallelBlockResult {
            block,
            outcomes,
            totals,
            report: ParallelExecReport {
                threads,
                groups: groups.len(),
                worker_cycles,
                makespan_cycles,
                serial_cycles,
                serial_fallback: false,
                static_schedule: false,
                spec_runs: txs.len(),
                spec_counters,
                plan_cycles: 0,
            },
        })
    }

    /// Phase 1 of the parallel executor: run every transaction in its own
    /// fresh [`ExecContext`] against the committed pre-block state, on a
    /// work-stealing pool of `threads` scoped workers. Returns the
    /// speculation results plus each transaction's engine-namespaced
    /// touched/written key sets.
    #[allow(clippy::type_complexity)]
    fn speculate_all(
        &self,
        txs: &[WireTx],
        height: u64,
        threads: usize,
        plans: Option<&[Option<TxPlan>]>,
    ) -> (Vec<SpecTx>, Vec<BTreeSet<Vec<u8>>>, Vec<BTreeSet<Vec<u8>>>) {
        let state = &self.state;
        let pub_engine = &self.public_engine;
        let conf_engine = &self.confidential_engine;
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, SpecTx, RwSet)>> = Mutex::new(Vec::with_capacity(txs.len()));
        let workers = threads.min(txs.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= txs.len() {
                        break;
                    }
                    let tx = &txs[i];
                    let is_conf = matches!(tx, WireTx::Confidential(_));
                    let engine = if is_conf { conf_engine } else { pub_engine };
                    let mut ctx = ExecContext::new();
                    let mut rng = tx_receipt_rng(height, &tx.wire_hash());
                    ctx.begin_tx();
                    let (spec, rw) = match engine.execute_transaction(state, &mut ctx, tx, &mut rng)
                    {
                        Ok((receipt, sealed, stats)) => {
                            let rw = ctx.commit_tx();
                            let cost = stable_cost(&stats.counters);
                            (
                                SpecTx {
                                    outcome: Ok((receipt, sealed)),
                                    stats: Some(stats),
                                    cost,
                                    overlay: std::mem::take(&mut ctx.overlay),
                                    is_conf,
                                },
                                rw,
                            )
                        }
                        Err(e) => {
                            let cost = stable_cost(&ctx.counters);
                            let rw = ctx.rollback_tx();
                            (
                                SpecTx {
                                    outcome: Err(e),
                                    stats: None,
                                    cost,
                                    overlay: HashMap::new(),
                                    is_conf,
                                },
                                rw,
                            )
                        }
                    };
                    oracle_check(plans, i, &rw);
                    results
                        .lock()
                        .expect("spec results lock")
                        .push((i, spec, rw));
                });
            }
        });
        let mut collected = results.into_inner().expect("spec results lock");
        collected.sort_by_key(|(i, _, _)| *i);
        let mut spec = Vec::with_capacity(txs.len());
        let mut touched = Vec::with_capacity(txs.len());
        let mut written = Vec::with_capacity(txs.len());
        for (_, s, rw) in collected {
            let ns = if s.is_conf { b'c' } else { b'p' };
            touched.push(namespaced(ns, &rw.touched()));
            written.push(namespaced(ns, &rw.writes));
            spec.push(s);
        }
        (spec, touched, written)
    }

    /// Phase 2 of the parallel executor: each worker executes its
    /// LPT-assigned multi-transaction groups serially-within-group in a
    /// private context pair. Singleton groups are `None` (their
    /// speculation is adopted verbatim). Indexed by group.
    fn execute_groups(
        &self,
        txs: &[WireTx],
        height: u64,
        groups: &[Vec<usize>],
        assignment: &[Vec<usize>],
        include_singletons: bool,
        plans: Option<&[Option<TxPlan>]>,
    ) -> Vec<Option<GroupExec>> {
        let state = &self.state;
        let pub_engine = &self.public_engine;
        let conf_engine = &self.confidential_engine;
        let results: Mutex<Vec<(usize, GroupExec)>> = Mutex::new(Vec::new());
        let results_ref = &results;
        std::thread::scope(|scope| {
            for worker_groups in assignment {
                scope.spawn(move || {
                    for &g in worker_groups {
                        let members = &groups[g];
                        if members.len() < 2 && !include_singletons {
                            continue;
                        }
                        let mut pub_ctx = ExecContext::new();
                        let mut conf_ctx = ExecContext::new();
                        let mut exec = GroupExec {
                            txs: Vec::with_capacity(members.len()),
                            pub_overlay: HashMap::new(),
                            conf_overlay: HashMap::new(),
                            touched: BTreeSet::new(),
                            written: BTreeSet::new(),
                            cost: 0,
                        };
                        for &i in members {
                            let tx = &txs[i];
                            let is_conf = matches!(tx, WireTx::Confidential(_));
                            let (engine, ctx) = if is_conf {
                                (conf_engine, &mut conf_ctx)
                            } else {
                                (pub_engine, &mut pub_ctx)
                            };
                            let ns = if is_conf { b'c' } else { b'p' };
                            let mut rng = tx_receipt_rng(height, &tx.wire_hash());
                            ctx.begin_tx();
                            let (entry, rw, cost) =
                                match engine.execute_transaction(state, ctx, tx, &mut rng) {
                                    Ok((receipt, sealed, stats)) => {
                                        let rw = ctx.commit_tx();
                                        let cost = stable_cost(&stats.counters);
                                        ((i, Ok((receipt, sealed)), Some(stats)), rw, cost)
                                    }
                                    Err(e) => {
                                        let cost = stable_cost(&ctx.counters);
                                        let rw = ctx.rollback_tx();
                                        ((i, Err(e), None), rw, cost)
                                    }
                                };
                            oracle_check(plans, i, &rw);
                            exec.touched.extend(namespaced(ns, &rw.touched()));
                            exec.written.extend(namespaced(ns, &rw.writes));
                            exec.cost += cost;
                            exec.txs.push(entry);
                        }
                        exec.pub_overlay = std::mem::take(&mut pub_ctx.overlay);
                        exec.conf_overlay = std::mem::take(&mut conf_ctx.overlay);
                        results_ref
                            .lock()
                            .expect("group results lock")
                            .push((g, exec));
                    }
                });
            }
        });
        let mut by_group: Vec<Option<GroupExec>> = (0..groups.len()).map(|_| None).collect();
        for (g, exec) in results.into_inner().expect("group results lock") {
            by_group[g] = Some(exec);
        }
        by_group
    }

    /// Deterministic serial fallback of the parallel executor: one
    /// journaled pass over the block in submission order, sealing
    /// receipts with the same per-transaction `(height, wire_hash)` RNG
    /// the parallel phases use, so a block that falls back commits
    /// identically on every replica and at every thread count.
    fn execute_serial_equivalent(
        &mut self,
        txs: &[WireTx],
        threads: usize,
        groups: usize,
    ) -> Result<ParallelBlockResult, NodeError> {
        let height = self.state.height() + 1;
        let mut pub_ctx = ExecContext::new();
        let mut conf_ctx = ExecContext::new();
        let mut outcomes = Vec::with_capacity(txs.len());
        let mut accepted_bytes = Vec::new();
        let mut totals = OpCounters::default();
        let mut serial_cycles = 0u64;
        for tx in txs {
            let (engine, ctx) = match tx {
                WireTx::Public(_) => (&self.public_engine, &mut pub_ctx),
                WireTx::Confidential(_) => (&self.confidential_engine, &mut conf_ctx),
            };
            let mut rng = tx_receipt_rng(height, &tx.wire_hash());
            ctx.begin_tx();
            match engine.execute_transaction(&self.state, ctx, tx, &mut rng) {
                Ok((receipt, sealed, stats)) => {
                    ctx.commit_tx();
                    serial_cycles += stable_cost(&stats.counters);
                    totals.add(&stats.counters);
                    accepted_bytes.push(tx.encode());
                    outcomes.push(Ok((receipt, sealed)));
                }
                Err(e) => {
                    serial_cycles += stable_cost(&ctx.counters);
                    ctx.rollback_tx();
                    outcomes.push(Err(e));
                }
            }
        }
        let block = self.seal_block(pub_ctx, conf_ctx, &outcomes, accepted_bytes)?;
        Ok(ParallelBlockResult {
            block,
            outcomes,
            totals,
            report: ParallelExecReport {
                threads,
                groups,
                worker_cycles: vec![serial_cycles],
                makespan_cycles: serial_cycles,
                serial_cycles,
                serial_fallback: true,
                static_schedule: false,
                spec_runs: 0,
                spec_counters: OpCounters::default(),
                plan_cycles: 0,
            },
        })
    }

    /// The attestation report clients verify before trusting a
    /// wire-delivered `pk_tx` (see [`Engine::attestation_report`]).
    pub fn attestation_report(&self) -> Option<confide_tee::attestation::Report> {
        self.confidential_engine.attestation_report()
    }

    /// Serve an SPV-style state query: the (possibly sealed) value plus a
    /// Merkle inclusion proof against this node's current state root.
    pub fn prove_state(
        &self,
        key: &[u8],
    ) -> Option<(Vec<u8>, confide_storage::merkle::MerkleProof, [u8; 32])> {
        let (value, proof) = self.state.prove(key)?;
        Some((value, proof, self.state.root()))
    }

    /// Fetch a stored (possibly sealed) receipt by transaction hash.
    pub fn stored_receipt(&self, tx_hash: &[u8; 32]) -> Option<Vec<u8>> {
        let mut key = b"receipt|".to_vec();
        key.extend_from_slice(tx_hash);
        self.state.get(&key)
    }

    /// Resolve an already-committed wire transaction by its wire hash:
    /// `(sealed, stored receipt bytes)` when this exact wire payload was
    /// accepted in an earlier block. The server's dedup path — a client
    /// retrying after a lost reply gets its original receipt instead of a
    /// `Replay` rejection (and never a second execution).
    pub fn committed_by_wire(&self, wire_hash: &[u8; 32]) -> Option<(bool, Vec<u8>)> {
        let v = self.state.get(&wire_index_key(wire_hash))?;
        if v.len() != 33 {
            return None;
        }
        let mut tx_hash = [0u8; 32];
        tx_hash.copy_from_slice(&v[..32]);
        let receipt = self.stored_receipt(&tx_hash)?;
        Some((v[32] == 1, receipt))
    }

    /// Enumerate every committed wire transaction as
    /// `(wire_hash, sealed, receipt bytes)` — the full contents of the
    /// wire-hash index. A server front end seeds its own dedup index from
    /// this at spawn so the per-submission dedup check never has to take
    /// the node lock (which block execution holds write-side for whole
    /// blocks at a time).
    pub fn committed_wire_entries(&self) -> Vec<([u8; 32], bool, Vec<u8>)> {
        let prefix = b"wiretx|";
        let mut out = Vec::new();
        for (k, v) in self.state.scan_prefix(prefix) {
            if k.len() != prefix.len() + 32 || v.len() != 33 {
                continue;
            }
            let mut wire_hash = [0u8; 32];
            wire_hash.copy_from_slice(&k[prefix.len()..]);
            let mut tx_hash = [0u8; 32];
            tx_hash.copy_from_slice(&v[..32]);
            if let Some(receipt) = self.stored_receipt(&tx_hash) {
                out.push((wire_hash, v[32] == 1, receipt));
            }
        }
        out
    }

    /// Current state root.
    pub fn state_root(&self) -> [u8; 32] {
        self.state.root()
    }
}

/// Client-side consensus read (§3.3): fetch a proof from one node and
/// accept the value only if (a) the proof verifies against that node's
/// claimed root and (b) at least `quorum` of the consulted nodes report
/// the same root. Returns the (possibly sealed) value.
pub fn consensus_read(nodes: &[&ConfideNode], key: &[u8], quorum: usize) -> Option<Vec<u8>> {
    let (value, proof, claimed_root) = nodes.first()?.prove_state(key)?;
    if !proof.verify(&claimed_root, key, &value) {
        return None;
    }
    let agreeing = nodes
        .iter()
        .filter(|n| n.state_root() == claimed_root)
        .count();
    if agreeing >= quorum {
        Some(value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ConfideClient;
    use crate::keys::{decentralized_join, NodeKeys};

    const BALANCE_SRC: &str = r#"
        export fn main() {
            let who: bytes = json_get(input(), b"to");
            let amt: int = json_get_int(input(), b"amount");
            let key: bytes = concat(b"bal:", who);
            let bal: int = atoi(storage_get(key));
            storage_set(key, itoa(bal + amt));
            ret(itoa(bal + amt));
        }
    "#;

    fn two_nodes() -> (ConfideNode, ConfideNode) {
        let pa = TeePlatform::new(1, 1);
        let pb = TeePlatform::new(2, 2);
        let mut rng = HmacDrbg::from_u64(5);
        let ka = NodeKeys::generate(&mut rng);
        let kb = decentralized_join(&pa, &ka, &pb, 1, 9).unwrap();
        let a = ConfideNode::new(pa, ka, EngineConfig::default(), 100);
        let b = ConfideNode::new(pb, kb, EngineConfig::default(), 100);
        (a, b)
    }

    #[test]
    fn replicas_agree_on_sealed_state_roots() {
        let (mut a, mut b) = two_nodes();
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let contract = [3u8; 32];
        a.deploy(contract, &code, VmKind::ConfideVm, true).unwrap();
        b.deploy(contract, &code, VmKind::ConfideVm, true).unwrap();

        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let (tx1, h1, _) = client
            .confidential_tx(
                &a.pk_tx(),
                contract,
                "main",
                br#"{"to":"alice","amount":100}"#,
            )
            .unwrap();
        let (tx2, _, _) = client
            .confidential_tx(
                &a.pk_tx(),
                contract,
                "main",
                br#"{"to":"alice","amount":-30}"#,
            )
            .unwrap();
        let txs = vec![tx1, tx2];
        let ra = a.execute_block(&txs).unwrap();
        let rb = b.execute_block(&txs).unwrap();
        // Same encrypted state on both replicas (deterministic D-Protocol).
        assert_eq!(a.state_root(), b.state_root());
        assert_eq!(ra.block.header.state_root, rb.block.header.state_root);
        assert_eq!(ra.receipts[1].return_data, b"70");
        // Receipt retrievable and owner-decryptable from either node.
        let sealed = b.stored_receipt(&h1).unwrap();
        let receipt = client.open_receipt(&sealed, &h1).unwrap();
        assert_eq!(receipt.return_data, b"100");
    }

    #[test]
    fn confidential_state_unreadable_via_raw_db() {
        let (mut a, _) = two_nodes();
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let contract = [3u8; 32];
        a.deploy(contract, &code, VmKind::ConfideVm, true).unwrap();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let (tx, _, _) = client
            .confidential_tx(
                &a.pk_tx(),
                contract,
                "main",
                br#"{"to":"alice","amount":12345}"#,
            )
            .unwrap();
        a.execute_block(&[tx]).unwrap();
        // Scan the whole database: the balance value must not appear.
        for (_, v) in a.state.kv().iter() {
            assert!(
                !v.windows(5).any(|w| w == b"12345"),
                "plaintext balance leaked to raw storage"
            );
        }
    }

    #[test]
    fn mixed_public_and_confidential_block() {
        let (mut a, _) = two_nodes();
        let pub_code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let conf_code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        a.deploy([1u8; 32], &pub_code, VmKind::ConfideVm, false)
            .unwrap();
        a.deploy([2u8; 32], &conf_code, VmKind::ConfideVm, true)
            .unwrap();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let ptx = client.public_tx([1u8; 32], "main", br#"{"to":"x","amount":1}"#);
        let (ctx_, _, _) = client
            .confidential_tx(&a.pk_tx(), [2u8; 32], "main", br#"{"to":"y","amount":2}"#)
            .unwrap();
        let result = a.execute_block(&[ptx, ctx_]).unwrap();
        assert!(result.receipts.iter().all(|r| r.success));
        assert!(result.sealed_receipts[0].is_none());
        assert!(result.sealed_receipts[1].is_some());
        // Public state readable in the raw DB; confidential not.
        let pub_key = crate::engine::full_key(&[1u8; 32], b"bal:x");
        assert_eq!(a.state.get(&pub_key).unwrap(), b"1");
        let conf_key = crate::engine::full_key(&[2u8; 32], b"bal:y");
        assert_ne!(a.state.get(&conf_key).unwrap(), b"2");
    }

    #[test]
    fn chain_grows_and_verifies() {
        let (mut a, _) = two_nodes();
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        a.deploy([1u8; 32], &code, VmKind::ConfideVm, false)
            .unwrap();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        for i in 0..5 {
            let tx = client.public_tx(
                [1u8; 32],
                "main",
                format!(r#"{{"to":"u{i}","amount":{i}}}"#).as_bytes(),
            );
            a.execute_block(&[tx]).unwrap();
        }
        assert_eq!(a.blocks.height(), 5);
        assert!(a.blocks.verify_chain());
        a.state.verify_version(5).unwrap();
    }

    #[test]
    fn parallel_block_skips_bad_txs_and_matches_clean_replica() {
        let (mut a, mut b) = two_nodes();
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let contract = [3u8; 32];
        a.deploy(contract, &code, VmKind::ConfideVm, true).unwrap();
        b.deploy(contract, &code, VmKind::ConfideVm, true).unwrap();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let (good1, h1, _) = client
            .confidential_tx(&a.pk_tx(), contract, "main", br#"{"to":"a","amount":5}"#)
            .unwrap();
        let (good2, _, _) = client
            .confidential_tx(&a.pk_tx(), contract, "main", br#"{"to":"a","amount":7}"#)
            .unwrap();
        // Unknown contract: fails at execution, after the nonce write.
        let (bad_contract, _, _) = client
            .confidential_tx(&a.pk_tx(), [0x99; 32], "main", b"{}")
            .unwrap();
        // Replay of good1: stale nonce.
        let replay = good1.clone();
        let res = a
            .execute_block_parallel(&[good1.clone(), bad_contract, replay, good2.clone()], 2)
            .unwrap();
        assert_eq!(res.accepted(), 2);
        assert!(res.outcomes[0].is_ok());
        assert!(matches!(
            res.outcomes[1],
            Err(EngineError::UnknownContract(_))
        ));
        assert!(matches!(res.outcomes[2], Err(EngineError::Replay)));
        assert!(res.outcomes[3].is_ok());
        // Only accepted txs are in the block body.
        assert_eq!(res.block.txs.len(), 2);
        // A replica executing just the accepted txs strictly agrees.
        b.execute_block_parallel(&[good1, good2], 1).unwrap();
        assert_eq!(a.state_root(), b.state_root());
        // Receipt for the first tx stored and owner-decryptable.
        let sealed = a.stored_receipt(&h1).unwrap();
        assert_eq!(client.open_receipt(&sealed, &h1).unwrap().return_data, b"5");
    }

    #[test]
    fn parallel_block_with_all_failures_still_commits_empty_block() {
        let (mut a, _) = two_nodes();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let (bad, _, _) = client
            .confidential_tx(&a.pk_tx(), [0x99; 32], "main", b"{}")
            .unwrap();
        let res = a.execute_block_parallel(&[bad], 2).unwrap();
        assert_eq!(res.accepted(), 0);
        assert!(res.block.txs.is_empty());
        assert_eq!(a.blocks.height(), 1);
    }

    // ── parallel executor (§6.2) ────────────────────────────────────────

    const CONF_CONTRACT: [u8; 32] = [3u8; 32];
    const PUB_CONTRACT: [u8; 32] = [4u8; 32];

    /// A fresh node with deterministic keys: every call yields a replica
    /// that executes identical blocks to identical roots.
    fn fresh_node() -> ConfideNode {
        let platform = TeePlatform::new(1, 1);
        let mut rng = HmacDrbg::from_u64(5);
        let keys = NodeKeys::generate(&mut rng);
        let node = ConfideNode::new(platform, keys, EngineConfig::default(), 100);
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        node.deploy(CONF_CONTRACT, &code, VmKind::ConfideVm, true)
            .unwrap();
        node.deploy(PUB_CONTRACT, &code, VmKind::ConfideVm, false)
            .unwrap();
        node
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A deterministic randomized block: mixed public/confidential txs
    /// from `n_senders` senders over `n_users` hot keys, sprinkled with
    /// replays and unknown-contract failures.
    fn random_block(seed: u64, n_txs: usize, n_senders: usize, n_users: usize) -> Vec<WireTx> {
        let pk_tx = fresh_node().pk_tx();
        let mut state = seed | 1;
        let mut clients: Vec<crate::client::ConfideClient> = (0..n_senders)
            .map(|s| {
                crate::client::ConfideClient::new([s as u8 + 1; 32], [s as u8 + 50; 32], s as u64)
            })
            .collect();
        let mut txs: Vec<WireTx> = Vec::with_capacity(n_txs);
        while txs.len() < n_txs {
            let s = (xorshift(&mut state) % n_senders as u64) as usize;
            let user = xorshift(&mut state) % n_users as u64;
            let amount = xorshift(&mut state) % 100;
            let args = format!(r#"{{"to":"u{user}","amount":{amount}}}"#);
            let tx = match xorshift(&mut state) % 10 {
                0..=4 => {
                    clients[s]
                        .confidential_tx(&pk_tx, CONF_CONTRACT, "main", args.as_bytes())
                        .unwrap()
                        .0
                }
                5..=7 => clients[s].public_tx(PUB_CONTRACT, "main", args.as_bytes()),
                8 if !txs.is_empty() => {
                    // Replay an earlier tx verbatim: must fail identically
                    // at every thread count.
                    let j = (xorshift(&mut state) % txs.len() as u64) as usize;
                    txs[j].clone()
                }
                _ => {
                    clients[s]
                        .confidential_tx(&pk_tx, [0x99; 32], "main", b"{}")
                        .unwrap()
                        .0
                }
            };
            txs.push(tx);
        }
        txs
    }

    /// Flatten a result into comparable bytes: per-tx outcome (receipt +
    /// sealed bytes or error string), accepted tx bytes, and state root.
    fn fingerprint(root: [u8; 32], block: &Block, outcomes: &[TxOutcome]) -> Vec<String> {
        let mut out = vec![format!("root:{root:02x?}"), format!("txs:{:?}", block.txs)];
        for o in outcomes {
            out.push(match o {
                Ok((receipt, sealed)) => format!("ok:{receipt:?}|{sealed:?}"),
                Err(e) => format!("err:{e:?}"),
            });
        }
        out
    }

    #[test]
    fn parallel_execution_is_serial_equivalent_on_randomized_workloads() {
        for seed in [7u64, 21, 99, 1234] {
            let txs = random_block(seed, 24, 5, 4);
            // The serial reference: the deterministic fallback path.
            let mut serial_node = fresh_node();
            let serial = serial_node.execute_serial_equivalent(&txs, 1, 0).unwrap();
            assert!(serial.report.serial_fallback);
            let want = fingerprint(serial_node.state_root(), &serial.block, &serial.outcomes);
            for threads in [1usize, 2, 4, 6] {
                let mut node = fresh_node();
                let res = node.execute_block_parallel(&txs, threads).unwrap();
                assert!(
                    !res.report.serial_fallback,
                    "seed {seed}: unexpected fallback at {threads} threads"
                );
                let got = fingerprint(node.state_root(), &res.block, &res.outcomes);
                assert_eq!(
                    got, want,
                    "seed {seed}, {threads} threads diverged from serial"
                );
                assert_eq!(res.report.threads, threads);
                assert_eq!(
                    res.report.makespan_cycles,
                    res.report.worker_cycles.iter().copied().max().unwrap(),
                );
            }
        }
    }

    /// Warm the engine's code cache so per-tx cost estimates are uniform:
    /// the one-off module decrypt+decode otherwise lands on whichever tx
    /// wins the phase-1 race, jittering the (advisory) makespan report.
    fn warm_up(node: &mut ConfideNode, pk_tx: &[u8; 32]) {
        let mut warm = crate::client::ConfideClient::new([99u8; 32], [98u8; 32], 77);
        let (wtx, _, _) = warm
            .confidential_tx(pk_tx, CONF_CONTRACT, "main", br#"{"to":"warm","amount":1}"#)
            .unwrap();
        node.execute_block_parallel(&[wtx], 1).unwrap();
    }

    #[test]
    fn conflict_free_block_speeds_up_and_four_groups_flatline() {
        // 16 independent senders → 16 singleton-ish groups → near-linear
        // modeled speedup at 4 threads.
        let pk_tx = fresh_node().pk_tx();
        let mut free_txs = Vec::new();
        for s in 0..16u8 {
            let mut c = crate::client::ConfideClient::new([s + 1; 32], [s + 50; 32], s as u64);
            let args = format!(r#"{{"to":"own{s}","amount":1}}"#);
            free_txs.push(
                c.confidential_tx(&pk_tx, CONF_CONTRACT, "main", args.as_bytes())
                    .unwrap()
                    .0,
            );
        }
        let mut node = fresh_node();
        warm_up(&mut node, &pk_tx);
        let res = node.execute_block_parallel(&free_txs, 4).unwrap();
        assert_eq!(res.accepted(), 16);
        assert_eq!(res.report.groups, 16, "independent txs must not merge");
        let speedup = res.report.serial_cycles as f64 / res.report.makespan_cycles as f64;
        assert!(speedup >= 1.8, "modeled speedup {speedup:.2} below 1.8x");

        // 4 senders × 6 sequential txs each → exactly 4 conflict groups
        // (chained via the per-sender nonce key): 6 threads buy nothing
        // over 4 — the paper's flat curve.
        let mut grouped_txs = Vec::new();
        for s in 0..4u8 {
            let mut c = crate::client::ConfideClient::new([s + 1; 32], [s + 50; 32], s as u64);
            for n in 0..6 {
                let args = format!(r#"{{"to":"grp{s}","amount":{n}}}"#);
                grouped_txs.push(
                    c.confidential_tx(&pk_tx, CONF_CONTRACT, "main", args.as_bytes())
                        .unwrap()
                        .0,
                );
            }
        }
        let mut node4 = fresh_node();
        warm_up(&mut node4, &pk_tx);
        let r4 = node4.execute_block_parallel(&grouped_txs, 4).unwrap();
        let mut node6 = fresh_node();
        warm_up(&mut node6, &pk_tx);
        let r6 = node6.execute_block_parallel(&grouped_txs, 6).unwrap();
        assert_eq!(r4.accepted(), 24);
        assert_eq!(r4.report.groups, 4);
        assert_eq!(node4.state_root(), node6.state_root());
        assert_eq!(
            r4.report.makespan_cycles, r6.report.makespan_cycles,
            "no benefit past the conflict-group count"
        );
    }

    #[test]
    fn static_schedule_skips_speculation_and_matches_occ_and_serial() {
        // 8 independent senders on the confidential contract plus 4 on
        // the public one: every tx has a precise static plan, so the
        // default (static) mode must execute with ZERO speculation runs
        // and commit roots byte-identical to forced-OCC and serial.
        let pk_tx = fresh_node().pk_tx();
        let mut txs = Vec::new();
        for s in 0..8u8 {
            let mut c = crate::client::ConfideClient::new([s + 1; 32], [s + 50; 32], s as u64);
            let args = format!(r#"{{"to":"st{s}","amount":2}}"#);
            txs.push(
                c.confidential_tx(&pk_tx, CONF_CONTRACT, "main", args.as_bytes())
                    .unwrap()
                    .0,
            );
        }
        for s in 8..12u8 {
            let mut c = crate::client::ConfideClient::new([s + 1; 32], [s + 50; 32], s as u64);
            let args = format!(r#"{{"to":"st{s}","amount":2}}"#);
            txs.push(c.public_tx(PUB_CONTRACT, "main", args.as_bytes()));
        }

        let mut want: Option<Vec<String>> = None;
        for threads in [1usize, 4] {
            // Static (the default execute_block_parallel mode).
            let mut st = fresh_node();
            let rs = st.execute_block_parallel(&txs, threads).unwrap();
            assert!(
                rs.report.static_schedule,
                "plan-complete block must go static"
            );
            assert_eq!(rs.report.spec_runs, 0, "static path must not speculate");
            assert_eq!(
                rs.report.spec_counters.contract_calls, 0,
                "zero speculation executions, observed via OpCounters"
            );
            assert_eq!(rs.report.spec_counters.vm_instret, 0);
            assert!(!rs.report.serial_fallback);
            assert_eq!(rs.accepted(), 12);
            assert_eq!(rs.report.groups, 12, "independent txs must not merge");
            // Forced OCC: same transition, speculation paid.
            let mut occ = fresh_node();
            let ro = occ
                .execute_block_sched(&txs, threads, SchedMode::Occ)
                .unwrap();
            assert!(!ro.report.static_schedule);
            assert_eq!(ro.report.spec_runs, txs.len());
            assert!(ro.report.spec_counters.contract_calls >= txs.len() as u64);
            // Serial reference.
            let mut serial = fresh_node();
            let rl = serial.execute_serial_equivalent(&txs, threads, 0).unwrap();

            let fs = fingerprint(st.state_root(), &rs.block, &rs.outcomes);
            let fo = fingerprint(occ.state_root(), &ro.block, &ro.outcomes);
            let fl = fingerprint(serial.state_root(), &rl.block, &rl.outcomes);
            assert_eq!(fs, fo, "static vs OCC diverged at {threads} threads");
            assert_eq!(fs, fl, "static vs serial diverged at {threads} threads");
            match &want {
                None => want = Some(fs),
                Some(w) => assert_eq!(&fs, w, "thread count changed the block"),
            }
        }
    }

    #[test]
    fn unplannable_tx_falls_back_to_occ_deterministically() {
        // An unknown-contract tx has no deploy-time summary → no plan →
        // the static mode must fall back to the OCC pipeline, and the
        // result must still match the serial reference.
        let pk_tx = fresh_node().pk_tx();
        let mut c0 = crate::client::ConfideClient::new([1u8; 32], [50u8; 32], 0);
        let mut c1 = crate::client::ConfideClient::new([2u8; 32], [51u8; 32], 1);
        let txs = vec![
            c0.confidential_tx(&pk_tx, CONF_CONTRACT, "main", br#"{"to":"a","amount":1}"#)
                .unwrap()
                .0,
            c1.confidential_tx(&pk_tx, [0x99; 32], "main", b"{}")
                .unwrap()
                .0,
        ];
        let mut node = fresh_node();
        let res = node.execute_block_parallel(&txs, 4).unwrap();
        assert!(
            !res.report.static_schedule,
            "unplannable tx must disable the static fast path"
        );
        assert_eq!(res.report.spec_runs, txs.len(), "OCC fallback speculates");
        let mut serial = fresh_node();
        let rl = serial.execute_serial_equivalent(&txs, 1, 0).unwrap();
        assert_eq!(
            fingerprint(node.state_root(), &res.block, &res.outcomes),
            fingerprint(serial.state_root(), &rl.block, &rl.outcomes)
        );
    }

    #[test]
    fn deployment_tx_forces_deterministic_serial_fallback() {
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let mut payload = vec![0u8, 0u8]; // [vm_kind][confidential]
        payload.extend_from_slice(&code);
        let mut roots = Vec::new();
        for threads in [1usize, 4] {
            let mut node = fresh_node();
            let mut deployer = crate::client::ConfideClient::new([7u8; 32], [8u8; 32], 1);
            let deploy = deployer.public_tx([0u8; 32], "deploy", &payload);
            let mut user = crate::client::ConfideClient::new([9u8; 32], [10u8; 32], 2);
            let spend = user.public_tx(PUB_CONTRACT, "main", br#"{"to":"d","amount":3}"#);
            let res = node
                .execute_block_parallel(&[deploy, spend], threads)
                .unwrap();
            assert!(
                res.report.serial_fallback,
                "deploy must serialize the block"
            );
            assert_eq!(res.accepted(), 2);
            roots.push(node.state_root());
        }
        assert_eq!(roots[0], roots[1]);
    }

    /// [`fresh_node`] plus a confidential EVM replica of the balance
    /// contract, for mixed-engine blocks.
    const EVM_CONTRACT: [u8; 32] = [5u8; 32];

    fn fresh_node_with_evm() -> ConfideNode {
        let node = fresh_node();
        let code = confide_lang::build_evm(BALANCE_SRC).unwrap();
        node.deploy(EVM_CONTRACT, &code, VmKind::Evm, true).unwrap();
        node
    }

    #[test]
    fn mixed_vm_evm_block_takes_occ_fallback_with_identical_roots() {
        // EVM contracts carry no static access summary, so a block with
        // even one EVM tx must never be statically planned: Static mode
        // has to take the whole-block OCC fallback — and still commit
        // byte-identical state roots at every thread count.
        let pk_tx = fresh_node_with_evm().pk_tx();
        let mut txs = Vec::new();
        for s in 0..6u8 {
            let mut c = ConfideClient::new([s + 1; 32], [s + 50; 32], s as u64);
            let args = format!(r#"{{"to":"mx{s}","amount":{}}}"#, s + 1);
            let contract = if s % 2 == 0 {
                CONF_CONTRACT
            } else {
                EVM_CONTRACT
            };
            txs.push(
                c.confidential_tx(&pk_tx, contract, "main", args.as_bytes())
                    .unwrap()
                    .0,
            );
        }
        let mut serial = fresh_node_with_evm();
        let rl = serial.execute_serial_equivalent(&txs, 1, 0).unwrap();
        let want = fingerprint(serial.state_root(), &rl.block, &rl.outcomes);
        for threads in [1usize, 4] {
            let mut node = fresh_node_with_evm();
            let res = node
                .execute_block_sched(&txs, threads, SchedMode::Static)
                .unwrap();
            assert!(
                !res.report.static_schedule,
                "a block containing EVM txs must never be statically planned"
            );
            assert_eq!(
                res.report.spec_runs,
                txs.len(),
                "fallback must speculate the whole block, not a subset"
            );
            assert!(!res.report.serial_fallback);
            assert_eq!(res.accepted(), txs.len());
            let got = fingerprint(node.state_root(), &res.block, &res.outcomes);
            assert_eq!(got, want, "{threads} threads diverged from serial");
        }
    }

    #[test]
    fn zero_threads_is_a_typed_node_error() {
        let mut node = fresh_node();
        match node.execute_block_parallel(&[], 0) {
            Err(NodeError::Sched(SchedError::ZeroThreads)) => {}
            other => panic!("expected sched error, got {other:?}"),
        }
    }

    #[test]
    fn empty_parallel_block_commits() {
        let mut node = fresh_node();
        let res = node.execute_block_parallel(&[], 4).unwrap();
        assert_eq!(res.accepted(), 0);
        assert!(!res.report.serial_fallback);
        assert_eq!(res.report.groups, 0);
        assert_eq!(node.blocks.height(), 1);
    }

    // ── durable commit & WAL recovery ───────────────────────────────────

    /// Commit `n` single-tx blocks of deterministic traffic on `node`.
    fn pump_blocks(node: &mut ConfideNode, n: usize, first_nonce: u64) -> Vec<WireTx> {
        let pk_tx = node.pk_tx();
        let mut client =
            ConfideClient::new([11u8; 32], [12u8; 32], first_nonce.wrapping_mul(31) ^ 0xA5);
        let mut txs = Vec::new();
        for i in 0..n {
            let args = format!(r#"{{"to":"w{}","amount":{}}}"#, i % 3, i + 1);
            let (tx, _, _) = client
                .confidential_tx(&pk_tx, CONF_CONTRACT, "main", args.as_bytes())
                .unwrap();
            node.execute_block_parallel(std::slice::from_ref(&tx), 2)
                .unwrap();
            txs.push(tx);
        }
        txs
    }

    #[test]
    fn wal_recovery_rebuilds_state_chain_and_receipts() {
        let mut node = fresh_node();
        let txs = pump_blocks(&mut node, 5, 0);
        let tip_root = node.state_root();
        let tip_height = node.blocks.height();
        let log = node.wal_bytes().to_vec();

        let mut recovered = fresh_node();
        let report = recovered.recover_from_wal(&log).unwrap();
        assert_eq!(report.blocks_replayed, 5);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.state_root, tip_root);
        assert_eq!(recovered.state_root(), tip_root);
        assert_eq!(recovered.blocks.height(), tip_height);
        assert!(recovered.blocks.verify_chain());
        recovered.state.verify_version(tip_height).unwrap();

        // Every committed receipt survived, via both lookup paths.
        for tx in &txs {
            let (sealed, receipt) = recovered.committed_by_wire(&tx.wire_hash()).unwrap();
            assert!(sealed);
            assert!(!receipt.is_empty());
        }

        // The recovered node continues bit-identically to the survivor.
        let next = pump_blocks(&mut node, 2, 100);
        for tx in &next {
            recovered
                .execute_block_parallel(std::slice::from_ref(tx), 2)
                .unwrap();
        }
        assert_eq!(recovered.state_root(), node.state_root());
        assert_eq!(
            recovered.blocks.tip().header.hash(),
            node.blocks.tip().header.hash()
        );
    }

    #[test]
    fn torn_wal_tail_rolls_back_to_the_last_complete_block() {
        let mut node = fresh_node();
        let mut wal_ends = Vec::new();
        let mut roots = Vec::new();
        for i in 0..4 {
            pump_blocks(&mut node, 1, i * 7 + 1);
            wal_ends.push(node.wal_bytes().len());
            roots.push(node.state_root());
        }
        let log = node.wal_bytes();
        // Cut mid-way through the last block's record group.
        let cut = (wal_ends[2] + wal_ends[3]) / 2;
        let mut recovered = fresh_node();
        let report = recovered.recover_from_wal(&log[..cut]).unwrap();
        assert_eq!(report.blocks_replayed, 3);
        assert!(report.torn_bytes > 0);
        assert_eq!(recovered.state_root(), roots[2]);
        assert_eq!(recovered.blocks.height(), 3);
    }

    #[test]
    fn catch_up_applies_new_blocks_onto_a_running_node() {
        let mut node = fresh_node();
        pump_blocks(&mut node, 5, 0);

        // A lagging replica that executed only the first two blocks.
        let mut lagging = fresh_node();
        let report = lagging
            .catch_up_from_wal(&node.wal_bytes()[..0])
            .expect("empty fragment is a no-op");
        assert_eq!(report.blocks_applied, 0);
        pump_blocks(&mut lagging, 2, 0);
        assert_eq!(lagging.blocks.height(), 2);
        let resume_at = lagging.wal_bytes().len();
        // Determinism: the shared prefix is byte-identical, so the local
        // WAL length is a valid cursor into the peer's log.
        assert_eq!(&node.wal_bytes()[..resume_at], lagging.wal_bytes());

        let report = lagging
            .catch_up_from_wal(&node.wal_bytes()[resume_at..])
            .unwrap();
        assert_eq!(report.blocks_applied, 3);
        assert_eq!(report.height, 5);
        assert_eq!(report.state_root, node.state_root());
        assert_eq!(lagging.state_root(), node.state_root());
        // The re-framed WAL is byte-identical to the peer's.
        assert_eq!(lagging.wal_bytes(), node.wal_bytes());
        assert!(lagging.blocks.verify_chain());

        // Receipts of synced blocks are queryable on the caught-up node.
        for tx in pump_blocks(&mut node, 1, 50) {
            lagging
                .execute_block_parallel(std::slice::from_ref(&tx), 2)
                .unwrap();
        }
        assert_eq!(lagging.state_root(), node.state_root());
    }

    #[test]
    fn catch_up_skips_known_blocks_and_stops_at_torn_chunks() {
        let mut node = fresh_node();
        let mut wal_ends = Vec::new();
        for i in 0..3 {
            pump_blocks(&mut node, 1, i * 3 + 1);
            wal_ends.push(node.wal_bytes().len());
        }
        let mut follower = fresh_node();
        // Overlapping fragment from offset 0 while the follower already
        // has block 1: the known block is skipped, not an error.
        follower
            .catch_up_from_wal(&node.wal_bytes()[..wal_ends[0]])
            .unwrap();
        let report = follower
            .catch_up_from_wal(&node.wal_bytes()[..wal_ends[1]])
            .unwrap();
        assert_eq!(report.blocks_applied, 1);
        assert_eq!(report.height, 2);

        // A chunk ending mid-record-group applies only the complete
        // prefix and reports how many bytes it consumed.
        let cut = (wal_ends[1] + wal_ends[2]) / 2;
        let fragment = &node.wal_bytes()[wal_ends[1]..cut];
        let report = follower.catch_up_from_wal(fragment).unwrap();
        assert_eq!(report.blocks_applied, 0);
        assert_eq!(report.bytes_consumed, 0);
        // Completing the chunk applies the block.
        let report = follower
            .catch_up_from_wal(&node.wal_bytes()[wal_ends[1]..])
            .unwrap();
        assert_eq!(report.blocks_applied, 1);
        assert_eq!(follower.state_root(), node.state_root());

        // A gap (fragment starting beyond the tip) is a typed error.
        let mut gapped = fresh_node();
        match gapped.catch_up_from_wal(&node.wal_bytes()[wal_ends[0]..]) {
            Err(NodeError::Recover(RecoverError::Height {
                expected: 1,
                found: 2,
            })) => {}
            other => panic!("expected height gap, got {other:?}"),
        }
    }

    #[test]
    fn recovery_replays_deployment_transactions_into_the_registry() {
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        let mut payload = vec![0u8, 0u8]; // [vm_kind][public]
        payload.extend_from_slice(&code);
        let mut node = fresh_node();
        let mut deployer = ConfideClient::new([7u8; 32], [8u8; 32], 1);
        let deploy = deployer.public_tx([0u8; 32], "deploy", &payload);
        let res = node.execute_block_parallel(&[deploy], 2).unwrap();
        let Ok((receipt, _)) = &res.outcomes[0] else {
            panic!("deploy rejected");
        };
        let address: [u8; 32] = receipt.return_data.as_slice().try_into().unwrap();
        let spend = deployer.public_tx(address, "main", br#"{"to":"z","amount":4}"#);
        node.execute_block_parallel(&[spend], 2).unwrap();

        let mut recovered = fresh_node();
        let report = recovered.recover_from_wal(node.wal_bytes()).unwrap();
        assert_eq!(report.deploys_replayed, 1);
        assert!(recovered.public_engine.has_contract(&address));
        // The re-registered contract executes against the replayed state.
        let again = deployer.public_tx(address, "main", br#"{"to":"z","amount":1}"#);
        let res = recovered.execute_block_parallel(&[again], 2).unwrap();
        let Ok((receipt, _)) = &res.outcomes[0] else {
            panic!("post-recovery invoke failed: {:?}", res.outcomes[0]);
        };
        assert_eq!(receipt.return_data, b"5"); // 4 + 1
    }

    #[test]
    fn evm_deploys_and_invokes_replay_from_the_wal() {
        // Crash-recovery parity for the EVM: a wire deploy plus a few
        // invokes must replay from the WAL onto a wiped replica, and the
        // recovered contract must continue bit-identically.
        let code = confide_lang::build_evm(BALANCE_SRC).unwrap();
        let mut payload = vec![1u8, 0u8]; // [vm=Evm][public]
        payload.extend_from_slice(&code);
        let mut node = fresh_node();
        let mut deployer = ConfideClient::new([7u8; 32], [8u8; 32], 1);
        let deploy = deployer.public_tx([0u8; 32], "deploy", &payload);
        let res = node.execute_block_parallel(&[deploy], 2).unwrap();
        let Ok((receipt, _)) = &res.outcomes[0] else {
            panic!("EVM deploy rejected: {:?}", res.outcomes[0]);
        };
        assert!(receipt.success, "EVM deploy failed: {receipt:?}");
        let address: [u8; 32] = receipt.return_data.as_slice().try_into().unwrap();
        for amount in [4u64, 2, 1] {
            let args = format!(r#"{{"to":"e","amount":{amount}}}"#);
            let tx = deployer.public_tx(address, "main", args.as_bytes());
            node.execute_block_parallel(&[tx], 2).unwrap();
        }
        let tip_root = node.state_root();

        let mut recovered = fresh_node();
        let report = recovered.recover_from_wal(node.wal_bytes()).unwrap();
        assert_eq!(report.deploys_replayed, 1);
        assert_eq!(report.state_root, tip_root);
        assert_eq!(recovered.state_root(), tip_root);
        assert!(recovered.public_engine.has_contract(&address));

        // Survivor and recovered replica continue in lockstep.
        let again = deployer.public_tx(address, "main", br#"{"to":"e","amount":10}"#);
        node.execute_block_parallel(std::slice::from_ref(&again), 2)
            .unwrap();
        let res = recovered
            .execute_block_parallel(std::slice::from_ref(&again), 2)
            .unwrap();
        let Ok((receipt, _)) = &res.outcomes[0] else {
            panic!("post-recovery EVM invoke failed: {:?}", res.outcomes[0]);
        };
        assert_eq!(receipt.return_data, b"17"); // 4 + 2 + 1 + 10
        assert_eq!(recovered.state_root(), node.state_root());
        assert_eq!(
            recovered.blocks.tip().header.hash(),
            node.blocks.tip().header.hash()
        );
    }

    #[test]
    fn recovery_refuses_non_fresh_nodes_and_foreign_logs() {
        let mut node = fresh_node();
        pump_blocks(&mut node, 1, 3);
        let log = node.wal_bytes().to_vec();
        // Non-fresh: the same node cannot replay on top of itself.
        match node.recover_from_wal(&log) {
            Err(NodeError::Recover(RecoverError::NotFresh)) => {}
            other => panic!("expected NotFresh, got {other:?}"),
        }
        // A *differently keyed* node cannot open the logged confidential
        // envelopes to probe for deployments — replay refuses with a
        // typed error instead of silently rebuilding a registry it could
        // never have owned.
        let mut foreign = {
            let platform = TeePlatform::new(9, 9);
            let mut rng = HmacDrbg::from_u64(77);
            let keys = NodeKeys::generate(&mut rng);
            let node = ConfideNode::new(platform, keys, EngineConfig::default(), 100);
            let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
            node.deploy(CONF_CONTRACT, &code, VmKind::ConfideVm, true)
                .unwrap();
            node
        };
        match foreign.recover_from_wal(&log) {
            Err(NodeError::Recover(RecoverError::Deploy(EngineError::Crypto))) => {}
            other => panic!("expected envelope-open failure, got {other:?}"),
        }
    }

    #[test]
    fn resubmitted_wire_tx_resolves_to_its_stored_receipt() {
        let mut node = fresh_node();
        let pk_tx = node.pk_tx();
        let mut client = ConfideClient::new([11u8; 32], [12u8; 32], 5);
        let (tx, tx_hash, _) = client
            .confidential_tx(&pk_tx, CONF_CONTRACT, "main", br#"{"to":"a","amount":9}"#)
            .unwrap();
        node.execute_block_parallel(std::slice::from_ref(&tx), 2)
            .unwrap();
        let (sealed, receipt) = node.committed_by_wire(&tx.wire_hash()).unwrap();
        assert!(sealed);
        assert_eq!(receipt, node.stored_receipt(&tx_hash).unwrap());
        assert_eq!(
            client.open_receipt(&receipt, &tx_hash).unwrap().return_data,
            b"9"
        );
        // Unknown wire hashes stay unknown.
        assert!(node.committed_by_wire(&[0xEE; 32]).is_none());
    }

    #[test]
    fn crashed_node_rejoins_a_surviving_member_and_replays_its_wal() {
        use crate::keys::{begin_join, finish_join};
        // Consortium of two: A generated the secrets, B MAP-joined.
        let pa = TeePlatform::new(1, 1);
        let pb = TeePlatform::new(2, 2);
        let mut rng = HmacDrbg::from_u64(5);
        let ka = NodeKeys::generate(&mut rng);
        let kb = decentralized_join(&pa, &ka, &pb, 1, 9).unwrap();
        let a = ConfideNode::new(pa, ka, EngineConfig::default(), 100);
        let mut b = ConfideNode::new(pb.clone(), kb, EngineConfig::default(), 100);
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        b.deploy(CONF_CONTRACT, &code, VmKind::ConfideVm, true)
            .unwrap();
        pump_blocks(&mut b, 3, 0);
        let tip_root = b.state_root();
        let log = b.wal_bytes().to_vec();
        drop(b); // crash: in-memory secrets and state are gone

        // The restarted process holds only its platform and the WAL file.
        // It re-obtains the consortium secrets from surviving member A by
        // re-running the MAP join through the node-level seam.
        let (session, offer) = begin_join(&pb, 1, &a.pk_tx(), 41).unwrap();
        let (blob, member_report) = a
            .approve_join(&pb.attestation_public_key(), &offer, 1, 1, 42)
            .unwrap();
        let keys = finish_join(
            session,
            &pb,
            &a.attestation_root(),
            &member_report,
            1,
            1,
            &blob,
        )
        .unwrap();
        assert_eq!(keys.pk_tx(), a.pk_tx());

        // A member that mandates a newer SVN refuses the same joiner.
        let (_s2, offer2) = begin_join(&pb, 1, &a.pk_tx(), 43).unwrap();
        assert!(matches!(
            a.approve_join(&pb.attestation_public_key(), &offer2, 1, 2, 44),
            Err(crate::keys::KeyProtocolError::Attestation(_))
        ));

        // With the re-obtained keys the deterministic bootstrap + WAL
        // replay reproduces the pre-crash node exactly.
        let mut revived = ConfideNode::new(pb, keys, EngineConfig::default(), 100);
        revived
            .deploy(CONF_CONTRACT, &code, VmKind::ConfideVm, true)
            .unwrap();
        let report = revived.recover_from_wal(&log).unwrap();
        assert_eq!(report.blocks_replayed, 3);
        assert_eq!(revived.state_root(), tip_root);
    }

    #[test]
    fn attestation_report_carries_pk_tx_fingerprint() {
        let (a, _) = two_nodes();
        let report = a.attestation_report().unwrap();
        assert_eq!(report.report_data[..32], confide_crypto::sha256(&a.pk_tx()));
    }

    #[test]
    fn cert_sidecar_records_survive_reload_and_answer_queries() {
        let (mut a, _) = two_nodes();
        assert_eq!(a.last_certified(), None);
        a.record_cert(1, &[0x11; 40]);
        a.record_cert(2, &[0x22; 44]);
        a.record_cert(3, &[0x33; 48]);
        assert_eq!(a.last_certified(), Some(3));
        assert_eq!(a.cert_for(2), Some(vec![0x22; 44]));
        assert_eq!(a.cert_for(9), None);
        assert_eq!(
            a.certs_in(1, 3),
            vec![(2, vec![0x22; 44]), (3, vec![0x33; 48])]
        );

        // Reload from file bytes, including a torn tail.
        let mut bytes = a.cert_sidecar_bytes().to_vec();
        let (mut b, _) = two_nodes();
        b.load_cert_sidecar(&bytes);
        assert_eq!(b.last_certified(), Some(3));
        bytes.pop();
        let (mut c, _) = two_nodes();
        c.load_cert_sidecar(&bytes);
        assert_eq!(c.last_certified(), Some(2));
        // Re-certifying the repaired height appends cleanly.
        c.record_cert(3, &[0x44; 48]);
        assert_eq!(c.cert_for(3), Some(vec![0x44; 48]));
    }

    #[test]
    fn table1_shape_counters() {
        // A block whose counters expose the Table 1 categories.
        let (mut a, _) = two_nodes();
        let code = confide_lang::build_vm(BALANCE_SRC).unwrap();
        a.deploy([2u8; 32], &code, VmKind::ConfideVm, true).unwrap();
        let mut client = ConfideClient::new([1u8; 32], [2u8; 32], 3);
        let (tx, _, _) = client
            .confidential_tx(&a.pk_tx(), [2u8; 32], "main", br#"{"to":"a","amount":1}"#)
            .unwrap();
        let result = a.execute_block(&[tx]).unwrap();
        let c = &result.totals;
        assert_eq!(c.verifies, 1);
        assert_eq!(c.decrypts, 1);
        assert!(c.contract_calls >= 1);
        assert!(c.get_storage >= 1);
        assert!(c.set_storage >= 1);
        let rows = c.table1_rows(a.confidential_engine.model());
        assert_eq!(rows.len(), 5);
    }
}
