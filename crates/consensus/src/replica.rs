//! The PBFT replica state machine.
//!
//! [`Replica`] is pure protocol logic: it owns no sockets, no threads, and
//! no clock. The embedding driver feeds it authenticated peer messages
//! ([`Replica::handle`]), proposals ([`Replica::propose`]), execution
//! completions ([`Replica::on_executed`]) and periodic ticks
//! ([`Replica::on_tick`]) with an externally supplied monotonic timestamp,
//! and carries out the returned [`Action`]s: strictly in-order execution
//! under watermark back-pressure, view changes, state-sync detection, and
//! Byzantine defences (signature verification, equivocation evidence,
//! blacklisting). It runs in two places: the wire cluster in `crates/net`
//! and the discrete-event simulator in `crates/chain`, which reproduces the
//! paper's figures on a simulated clock.
//!
//! ## Execute-at-prepared
//!
//! A replica executes a block (and durably logs it) as soon as the entry is
//! *prepared* — 2f+1 matching `Prepare`s including its own — and only then
//! broadcasts `Commit`. Client acknowledgements are released at
//! [`Action::CommittedLocal`], i.e. after a 2f+1 `Commit` quorum, which
//! certifies that a quorum has the block on disk. A prepared entry has 2f+1
//! payload holders, so every view-change quorum of 2f+1 intersects those
//! holders in at least f+1 replicas: the new leader always re-proposes
//! (verbatim, same digest) any block that any replica may have executed. A
//! sequence absent from every suffix in the view-change quorum was prepared
//! nowhere, hence executed nowhere, and may be dropped.
//!
//! ## Byzantine defences
//!
//! [`Replica::handle`] is the production entry point: it verifies the
//! [`SignedPeerMsg`] envelope, refuses blacklisted peers, checks `Commit`
//! certificate votes, and watches for equivocation — two conflicting signed
//! statements for one slot become an [`Evidence`] action, blacklist the
//! offender, and force a view change if the offender leads. Each `Commit`
//! quorum additionally assembles a transferable [`QuorumCert`] delivered
//! with [`Action::CommittedLocal`]. [`Replica::on_msg`] remains the
//! unauthenticated core for in-memory tests and the simulator.

use crate::cert::{sign_vote, vote_bytes, Keyring, QuorumCert};
use crate::evidence::{equivocation_slot, Evidence};
use crate::msg::{block_digest, AuthError, PeerMsg, SignedPeerMsg, SuffixEntry};
use crate::{primary_of, quorum};
use confide_crypto::ed25519::Signature;
use std::collections::{BTreeMap, BTreeSet};

/// Static configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's id (index into the consortium member list).
    pub node_id: u32,
    /// Consortium size.
    pub n: usize,
    /// Leader-silence window before a follower votes to change views (ms).
    pub view_timeout_ms: u64,
    /// Leader heartbeat interval (ms); must be well below the timeout.
    pub heartbeat_ms: u64,
    /// Max proposals in flight beyond the leader's `last_exec` (PBFT
    /// watermark); [`Replica::propose`] refuses with
    /// [`ProposeError::Backpressure`] past it.
    pub max_inflight: u64,
    /// Width of the deterministic per-replica spread added to the view
    /// timeout (ms). Staggered timeouts keep simultaneous leader-death
    /// detections from synchronizing into dueling view changes; 0 disables.
    pub timeout_jitter_ms: u64,
}

impl ReplicaConfig {
    /// Sensible localhost defaults for an `n`-node cluster.
    pub fn localhost(node_id: u32, n: usize) -> ReplicaConfig {
        ReplicaConfig {
            node_id,
            n,
            view_timeout_ms: 1_000,
            heartbeat_ms: 200,
            max_inflight: 4,
            timeout_jitter_ms: 250,
        }
    }
}

/// Deterministic per-replica view-timeout jitter in `[0, spread_ms)`.
///
/// A splitmix64 mix of the node id, so the spread needs no shared
/// configuration beyond the spread width itself and is reproducible in
/// tests and across restarts.
pub fn timeout_jitter(node_id: u32, spread_ms: u64) -> u64 {
    if spread_ms == 0 {
        return 0;
    }
    let mut z = (node_id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % spread_ms
}

/// What the driver must do after feeding the state machine.
// Evidence (two full signed envelopes) dominates the size; actions are
// transient — drained per event, never stored — so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send to every peer (not to self). The driver signs the envelope.
    Broadcast(PeerMsg),
    /// Send to one peer.
    Send(u32, PeerMsg),
    /// Execute this block now (strictly the next in order) and durably log
    /// it, then call [`Replica::on_executed`] with the resulting state root.
    Execute {
        /// Sequence number == resulting chain height.
        seq: u64,
        /// Encoded `WireTx` bodies in execution order.
        txs: Vec<Vec<u8>>,
        /// The block's consensus digest.
        digest: [u8; 32],
    },
    /// A 2f+1 commit quorum exists for `seq`: persist the certificate,
    /// then release client acks.
    CommittedLocal {
        /// Committed sequence number.
        seq: u64,
        /// Digest of the committed block.
        digest: [u8; 32],
        /// Transferable 2f+1 proof of the committed state root.
        cert: QuorumCert,
    },
    /// This replica is behind: fetch WAL state from `peer` (who reported
    /// progress past ours), then call [`Replica::on_caught_up`].
    NeedSync {
        /// A peer known to be ahead.
        peer: u32,
        /// Our current execution height.
        have: u64,
    },
    /// The view changed; `leader` is the new primary.
    LeaderChanged {
        /// The newly installed view.
        view: u64,
        /// Primary of that view.
        leader: u32,
    },
    /// A peer provably equivocated: persist the record durably. The
    /// offender is already blacklisted locally.
    Evidence(Evidence),
}

/// Why a proposal was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposeError {
    /// This replica is not the current primary.
    NotLeader,
    /// The watermark window is full; retry after the next commit.
    Backpressure,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotLeader => write!(f, "not the current primary"),
            ProposeError::Backpressure => write!(f, "watermark window full"),
        }
    }
}

impl std::error::Error for ProposeError {}

/// Why an authenticated message was refused by [`Replica::handle`].
///
/// Every variant is a typed rejection with **no** replica state mutated and
/// no [`Action`] emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandleError {
    /// The signed envelope failed verification.
    Auth(AuthError),
    /// The sender was previously caught equivocating.
    Blacklisted(u32),
    /// A `Commit` carried a certificate vote that does not verify for the
    /// claimed `(height, root)`.
    BadVoteSig(u32),
}

impl std::fmt::Display for HandleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandleError::Auth(e) => write!(f, "authentication failed: {e}"),
            HandleError::Blacklisted(id) => write!(f, "peer {id} is blacklisted"),
            HandleError::BadVoteSig(id) => write!(f, "bad certificate vote from {id}"),
        }
    }
}

impl std::error::Error for HandleError {}

#[derive(Debug)]
struct Entry {
    view: u64,
    digest: [u8; 32],
    txs: Vec<Vec<u8>>,
    has_payload: bool,
    prepares: BTreeSet<u32>,
    /// voter -> (claimed digest, claimed root, detached vote signature).
    #[allow(clippy::type_complexity)]
    commit_votes: BTreeMap<u32, ([u8; 32], [u8; 32], [u8; 64])>,
    /// State root our own execution produced (set by `on_executed`).
    exec_root: Option<[u8; 32]>,
    exec_emitted: bool,
    executed: bool,
}

impl Entry {
    fn fresh(view: u64, digest: [u8; 32], txs: Vec<Vec<u8>>, has_payload: bool) -> Entry {
        Entry {
            view,
            digest,
            txs,
            has_payload,
            prepares: BTreeSet::new(),
            commit_votes: BTreeMap::new(),
            exec_root: None,
            exec_emitted: false,
            executed: false,
        }
    }
}

/// How many executed-block digests/roots to remember for answering
/// re-proposals of sequences we already executed, and for bounding the
/// equivocation watch window. Far above any sane watermark.
const DIGEST_WINDOW: u64 = 256;

/// One PBFT replica (see module docs for the protocol shape).
pub struct Replica {
    cfg: ReplicaConfig,
    keyring: Keyring,
    jitter_ms: u64,
    view: u64,
    /// Highest view-change target we have voted for (>= view).
    vc_target: u64,
    last_exec: u64,
    entries: BTreeMap<u64, Entry>,
    executed_digests: BTreeMap<u64, [u8; 32]>,
    /// Execution roots for recent heights, for re-signing refill votes.
    executed_roots: BTreeMap<u64, [u8; 32]>,
    /// target view -> (voter -> (voter's last_exec, voter's suffix)).
    #[allow(clippy::type_complexity)]
    vc_votes: BTreeMap<u64, BTreeMap<u32, (u64, Vec<SuffixEntry>)>>,
    /// Set when we won an election but must state-sync before installing.
    pending_new_view: Option<u64>,
    /// (sender, tag, view, seq) -> (content id, first signed message).
    #[allow(clippy::type_complexity)]
    equiv_seen: BTreeMap<(u32, u8, u64, u64), ([u8; 32], SignedPeerMsg)>,
    /// Peers caught equivocating; all their traffic is refused.
    blacklist: BTreeSet<u32>,
    evidence_emitted: u64,
    last_progress_ms: u64,
    /// When the oldest still-unexecuted in-flight entry started waiting,
    /// or `None` while the pipeline is drained. Heartbeats do NOT reset
    /// this: a leader that beacons liveness while its proposals can never
    /// quorum (equivocation, corrupted payloads) must still lose the
    /// floor when the stall outlives the view timeout.
    stalled_since_ms: Option<u64>,
    last_hb_ms: u64,
    view_changes: u64,
}

impl Replica {
    /// Build a replica at view 0 with nothing executed.
    pub fn new(cfg: ReplicaConfig, keyring: Keyring, now_ms: u64) -> Replica {
        assert!(cfg.n > 0, "empty consortium");
        assert!((cfg.node_id as usize) < cfg.n, "node_id out of range");
        assert_eq!(keyring.n(), cfg.n, "keyring size != consortium size");
        let jitter_ms = timeout_jitter(cfg.node_id, cfg.timeout_jitter_ms);
        Replica {
            cfg,
            keyring,
            jitter_ms,
            view: 0,
            vc_target: 0,
            last_exec: 0,
            entries: BTreeMap::new(),
            executed_digests: BTreeMap::new(),
            executed_roots: BTreeMap::new(),
            vc_votes: BTreeMap::new(),
            pending_new_view: None,
            equiv_seen: BTreeMap::new(),
            blacklist: BTreeSet::new(),
            evidence_emitted: 0,
            last_progress_ms: now_ms,
            stalled_since_ms: None,
            last_hb_ms: now_ms,
            view_changes: 0,
        }
    }

    /// Resume a replica whose chain already reaches `height` (WAL recovery).
    pub fn with_height(cfg: ReplicaConfig, keyring: Keyring, height: u64, now_ms: u64) -> Replica {
        let mut r = Replica::new(cfg, keyring, now_ms);
        r.last_exec = height;
        r
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Primary of the current view.
    pub fn leader(&self) -> u32 {
        primary_of(self.view, self.cfg.n)
    }

    /// Whether this replica is the current primary.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.cfg.node_id
    }

    /// Last executed sequence number (== local chain height).
    pub fn last_exec(&self) -> u64 {
        self.last_exec
    }

    /// Whether `seq` holds its payload and a 2f+1 `Prepare` quorum. False
    /// once the entry retires at its commit quorum.
    pub fn is_prepared(&self, seq: u64) -> bool {
        self.entries
            .get(&seq)
            .is_some_and(|e| e.has_payload && e.prepares.len() >= self.quorum())
    }

    /// Number of view installations survived so far.
    pub fn view_changes(&self) -> u64 {
        self.view_changes
    }

    /// This replica's signing identity and the consortium key table.
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }

    /// Whether `id` has been caught equivocating.
    pub fn is_blacklisted(&self, id: u32) -> bool {
        self.blacklist.contains(&id)
    }

    /// Evidence records emitted so far.
    pub fn evidence_count(&self) -> u64 {
        self.evidence_emitted
    }

    /// Wrap an outbound message in this replica's signed envelope.
    pub fn sign(&self, msg: PeerMsg) -> SignedPeerMsg {
        SignedPeerMsg::sign(self.cfg.node_id, &self.keyring.signer, msg)
    }

    fn quorum(&self) -> usize {
        quorum(self.cfg.n)
    }

    fn me(&self) -> u32 {
        self.cfg.node_id
    }

    /// Propose the next block (primary only). `txs` are encoded `WireTx`s.
    pub fn propose(&mut self, txs: Vec<Vec<u8>>, now_ms: u64) -> Result<Vec<Action>, ProposeError> {
        if !self.is_leader() || self.pending_new_view.is_some() {
            return Err(ProposeError::NotLeader);
        }
        let next_seq = self
            .entries
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.last_exec)
            .max(self.last_exec)
            + 1;
        if next_seq > self.last_exec + self.cfg.max_inflight {
            return Err(ProposeError::Backpressure);
        }
        let digest = block_digest(next_seq, &txs);
        let mut entry = Entry::fresh(self.view, digest, txs.clone(), true);
        entry.prepares.insert(self.me());
        self.entries.insert(next_seq, entry);
        // A proposal doubles as a liveness beacon; skip the next heartbeat.
        self.last_hb_ms = now_ms;
        let mut actions = vec![Action::Broadcast(PeerMsg::PrePrepare {
            view: self.view,
            seq: next_seq,
            txs,
        })];
        self.check_prepared(next_seq, &mut actions);
        Ok(actions)
    }

    /// Authenticated entry point: verify the envelope, refuse blacklisted
    /// peers, validate `Commit` certificate votes, detect equivocation,
    /// then process. Every `Err` leaves the replica untouched.
    pub fn handle(
        &mut self,
        signed: SignedPeerMsg,
        now_ms: u64,
    ) -> Result<Vec<Action>, HandleError> {
        signed
            .verify(&self.keyring.keys)
            .map_err(HandleError::Auth)?;
        let from = signed.from;
        if self.blacklist.contains(&from) {
            return Err(HandleError::Blacklisted(from));
        }
        if let PeerMsg::Commit {
            seq,
            root,
            vote_sig,
            ..
        } = &signed.msg
        {
            // `verify` bounds `from` to the key table.
            let key = &self.keyring.keys[from as usize];
            if key
                .verify(&vote_bytes(*seq, root), &Signature(*vote_sig))
                .is_err()
            {
                return Err(HandleError::BadVoteSig(from));
            }
        }
        let mut actions = Vec::new();
        if let Some((tag, view, seq, content)) = equivocation_slot(&signed.msg) {
            let slot = (from, tag, view, seq);
            match self.equiv_seen.get(&slot) {
                Some((prev_content, prev_signed)) if *prev_content != content => {
                    // Two valid signatures, one slot, different content:
                    // transferable proof of equivocation.
                    let ev = Evidence {
                        accused: from,
                        view,
                        seq,
                        tag,
                        first: prev_signed.clone(),
                        second: signed,
                    };
                    self.blacklist.insert(from);
                    self.evidence_emitted += 1;
                    actions.push(Action::Evidence(ev));
                    if from == self.leader() && self.pending_new_view.is_none() {
                        // An equivocating leader must not keep the floor.
                        let target = if self.vc_target <= self.view {
                            self.view + 1
                        } else {
                            self.vc_target + 1
                        };
                        self.broadcast_own_vote(target, &mut actions);
                    }
                    return Ok(actions);
                }
                Some(_) => {} // identical retransmission: process normally
                None => {
                    self.equiv_seen.insert(slot, (content, signed.clone()));
                }
            }
        }
        actions.extend(self.on_msg(from, signed.msg, now_ms));
        Ok(actions)
    }

    /// Feed one peer message, trusting `from`. The unauthenticated core of
    /// [`Replica::handle`]; public for in-memory buses and the simulator,
    /// which bypass signatures.
    pub fn on_msg(&mut self, from: u32, msg: PeerMsg, now_ms: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        match msg {
            PeerMsg::PrePrepare { view, seq, txs } => {
                self.handle_preprepare(from, view, seq, txs, now_ms, &mut actions);
            }
            PeerMsg::Prepare {
                view,
                seq,
                digest,
                from,
            } => {
                if seq > self.last_exec {
                    self.record_prepare(view, seq, digest, from);
                    self.check_prepared(seq, &mut actions);
                }
            }
            PeerMsg::Commit {
                view,
                seq,
                digest,
                from,
                root,
                vote_sig,
            } => {
                // A late vote for a sequence whose entry already retired
                // (certified, or state-synced past) is moot.
                if seq > self.last_exec || self.entries.contains_key(&seq) {
                    self.record_commit(view, seq, digest, from, root, vote_sig);
                    self.check_committed(seq, &mut actions);
                }
            }
            PeerMsg::ViewChange {
                target,
                from,
                last_exec,
                suffix,
            } => {
                self.handle_view_change(target, from, last_exec, suffix, now_ms, &mut actions);
            }
            PeerMsg::NewView {
                view,
                from,
                last_exec,
                repropose,
            } => {
                self.handle_new_view(view, from, last_exec, repropose, now_ms, &mut actions);
            }
            PeerMsg::Heartbeat {
                view,
                from,
                last_exec,
            } => {
                if view > self.view && from == primary_of(view, self.cfg.n) {
                    self.enter_view(view, now_ms, &mut actions);
                }
                if view == self.view && from == self.leader() {
                    self.last_progress_ms = now_ms;
                }
                self.maybe_need_sync(from, last_exec, &mut actions);
            }
        }
        actions
    }

    fn handle_preprepare(
        &mut self,
        from: u32,
        view: u64,
        seq: u64,
        txs: Vec<Vec<u8>>,
        now_ms: u64,
        actions: &mut Vec<Action>,
    ) {
        if view < self.view || from != primary_of(view, self.cfg.n) {
            return;
        }
        if view > self.view {
            // A rightful primary announcing a higher view implies it won an
            // election we missed; adopt.
            self.enter_view(view, now_ms, actions);
        }
        self.last_progress_ms = now_ms;
        if seq <= self.last_exec {
            // Re-proposal of a block we already executed (post view change):
            // refill the new quorums without re-executing.
            if self.executed_digests.get(&seq) == Some(&block_digest(seq, &txs)) {
                let digest = block_digest(seq, &txs);
                actions.push(Action::Broadcast(PeerMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from: self.me(),
                }));
                if let Some(root) = self.executed_roots.get(&seq).copied() {
                    let vote_sig = sign_vote(&self.keyring.signer, seq, &root);
                    actions.push(Action::Broadcast(PeerMsg::Commit {
                        view,
                        seq,
                        digest,
                        from: self.me(),
                        root,
                        vote_sig,
                    }));
                }
            }
            return;
        }
        // A primary never proposes beyond its own execution horizon plus the
        // watermark, so a sequence far past ours means we are lagging —
        // unless our next block is already prepared: then the leader is
        // merely one execution ahead and we catch up on our own.
        if seq > self.last_exec + self.cfg.max_inflight && !self.is_prepared(self.last_exec + 1) {
            actions.push(Action::NeedSync {
                peer: from,
                have: self.last_exec,
            });
        }
        let digest = block_digest(seq, &txs);
        let replace = match self.entries.get(&seq) {
            Some(e) => !e.has_payload || (e.digest != digest && view >= e.view) || e.view < view,
            None => true,
        };
        if replace {
            let stale_votes = self
                .entries
                .get(&seq)
                .filter(|e| e.digest == digest)
                .map(|e| (e.prepares.clone(), e.commit_votes.clone()));
            let (mut prepares, commit_votes) = stale_votes.unwrap_or_default();
            prepares.insert(from);
            prepares.insert(self.me());
            let mut entry = Entry::fresh(view, digest, txs, true);
            entry.prepares = prepares;
            entry.commit_votes = commit_votes;
            self.entries.insert(seq, entry);
            // Arm the stall clock: this entry must execute within the
            // view-timeout window or we vote the leader out.
            if self.stalled_since_ms.is_none() {
                self.stalled_since_ms = Some(now_ms);
            }
            actions.push(Action::Broadcast(PeerMsg::Prepare {
                view,
                seq,
                digest,
                from: self.me(),
            }));
        } else {
            let me = self.me();
            if let Some(e) = self.entries.get_mut(&seq) {
                if e.digest == digest {
                    e.prepares.insert(from);
                    e.prepares.insert(me);
                }
            }
        }
        self.check_prepared(seq, actions);
    }

    fn record_prepare(&mut self, view: u64, seq: u64, digest: [u8; 32], from: u32) {
        // A placeholder takes the vote's view, so a vote that outruns the
        // `NewView` installing its view survives that `NewView`.
        let entry = self
            .entries
            .entry(seq)
            .or_insert_with(|| Entry::fresh(view, digest, Vec::new(), false));
        // Votes only count toward the digest we hold; a placeholder adopts
        // the first digest it hears about. A poisoned placeholder cannot
        // stick: the PrePrepare payload replaces it and discards
        // mismatching votes.
        if entry.digest == digest {
            entry.prepares.insert(from);
        }
    }

    fn record_commit(
        &mut self,
        view: u64,
        seq: u64,
        digest: [u8; 32],
        from: u32,
        root: [u8; 32],
        sig: [u8; 64],
    ) {
        let entry = self
            .entries
            .entry(seq)
            .or_insert_with(|| Entry::fresh(view, digest, Vec::new(), false));
        if entry.digest == digest {
            entry
                .commit_votes
                .entry(from)
                .or_insert((digest, root, sig));
        }
    }

    fn check_prepared(&mut self, seq: u64, actions: &mut Vec<Action>) {
        let q = self.quorum();
        if seq != self.last_exec + 1 {
            return; // execution is strictly in order
        }
        let Some(e) = self.entries.get_mut(&seq) else {
            return;
        };
        if e.has_payload && !e.exec_emitted && !e.executed && e.prepares.len() >= q {
            e.exec_emitted = true;
            actions.push(Action::Execute {
                seq,
                txs: e.txs.clone(),
                digest: e.digest,
            });
        }
    }

    /// The driver executed and durably logged `seq`, producing state root
    /// `root`. Emits the `Commit` broadcast (carrying our signed
    /// certificate vote) and chains execution of the next prepared entry.
    pub fn on_executed(&mut self, seq: u64, root: [u8; 32], now_ms: u64) -> Vec<Action> {
        assert_eq!(seq, self.last_exec + 1, "out-of-order execution");
        let mut actions = Vec::new();
        self.last_exec = seq;
        self.last_progress_ms = now_ms;
        let me = self.me();
        let vote_sig = sign_vote(&self.keyring.signer, seq, &root);
        let Some(e) = self.entries.get_mut(&seq) else {
            panic!("executed unknown sequence {seq}");
        };
        e.executed = true;
        e.exec_root = Some(root);
        e.commit_votes.insert(me, (e.digest, root, vote_sig));
        let (view, digest) = (e.view, e.digest);
        self.executed_digests.insert(seq, digest);
        self.executed_roots.insert(seq, root);
        while let Some(first) = self.executed_digests.keys().next().copied() {
            if first + DIGEST_WINDOW <= seq {
                self.executed_digests.remove(&first);
                self.executed_roots.remove(&first);
            } else {
                break;
            }
        }
        // Bound the equivocation watch window alongside.
        self.equiv_seen
            .retain(|(_, _, _, s), _| s + DIGEST_WINDOW > seq);
        actions.push(Action::Broadcast(PeerMsg::Commit {
            view,
            seq,
            digest,
            from: me,
            root,
            vote_sig,
        }));
        self.check_committed(seq, &mut actions);
        self.check_prepared(seq + 1, &mut actions);
        self.rearm_stall_clock(now_ms);
        actions
    }

    /// Execution progressed (or the horizon moved): restart the stall
    /// clock if in-flight work remains, clear it if the pipeline drained.
    fn rearm_stall_clock(&mut self, now_ms: u64) {
        self.stalled_since_ms = if self.entries.keys().any(|&s| s > self.last_exec) {
            Some(now_ms)
        } else {
            None
        };
    }

    fn check_committed(&mut self, seq: u64, actions: &mut Vec<Action>) {
        let q = self.quorum();
        let Some(e) = self.entries.get(&seq) else {
            return;
        };
        let Some(root) = e.exec_root else {
            return; // not executed here yet
        };
        // Only votes naming our digest AND our execution root count toward
        // the certificate; a Byzantine vote for another root is ignored.
        let votes: Vec<(u32, [u8; 64])> = e
            .commit_votes
            .iter()
            .filter(|(_, (d, r, _))| *d == e.digest && *r == root)
            .map(|(id, (_, _, s))| (*id, *s))
            .collect();
        if e.executed && votes.len() >= q {
            let digest = e.digest;
            self.entries.remove(&seq);
            // BTreeMap iteration yields strictly ascending voter ids, the
            // canonical certificate order.
            let cert = QuorumCert {
                height: seq,
                root,
                votes,
            };
            actions.push(Action::CommittedLocal { seq, digest, cert });
        }
    }

    fn maybe_need_sync(&mut self, peer: u32, peer_last_exec: u64, actions: &mut Vec<Action>) {
        if peer_last_exec <= self.last_exec {
            return;
        }
        // If the next block is already prepared locally we will catch up on
        // our own; sync only when the pipeline is actually missing data.
        if !self.is_prepared(self.last_exec + 1) {
            actions.push(Action::NeedSync {
                peer,
                have: self.last_exec,
            });
        }
    }

    /// Own uncommitted suffix, reported in `ViewChange` votes.
    fn suffix(&self) -> Vec<SuffixEntry> {
        self.entries
            .iter()
            .filter(|(seq, _)| **seq > self.last_exec)
            .map(|(seq, e)| SuffixEntry {
                seq: *seq,
                view: e.view,
                prepared: e.prepares.len() >= self.quorum(),
                txs: if e.has_payload {
                    e.txs.clone()
                } else {
                    Vec::new()
                },
            })
            .collect()
    }

    fn broadcast_own_vote(&mut self, target: u64, actions: &mut Vec<Action>) {
        self.vc_target = target;
        let me = self.me();
        let vote = (self.last_exec, self.suffix());
        self.vc_votes.entry(target).or_default().insert(me, vote);
        actions.push(Action::Broadcast(PeerMsg::ViewChange {
            target,
            from: self.me(),
            last_exec: self.last_exec,
            suffix: self.suffix(),
        }));
    }

    fn handle_view_change(
        &mut self,
        target: u64,
        from: u32,
        last_exec: u64,
        suffix: Vec<SuffixEntry>,
        now_ms: u64,
        actions: &mut Vec<Action>,
    ) {
        if target <= self.view {
            return;
        }
        self.vc_votes
            .entry(target)
            .or_default()
            .insert(from, (last_exec, suffix));
        let votes = self.vc_votes[&target].len();
        let f_plus_1 = (self.cfg.n.saturating_sub(1) / 3) + 1;
        // Join rule: f+1 distinct voters cannot all be wrong about the
        // leader being dead — vote along even if our own timer is quiet.
        if votes >= f_plus_1 && self.vc_target < target {
            self.broadcast_own_vote(target, actions);
        }
        let votes = self.vc_votes[&target].len();
        if votes >= self.quorum()
            && primary_of(target, self.cfg.n) == self.me()
            && target > self.view
        {
            let max_le = self.vc_votes[&target]
                .values()
                .map(|(le, _)| *le)
                .max()
                .unwrap_or(0)
                .max(self.last_exec);
            if self.last_exec < max_le {
                // Won the election while behind: sync first, install after.
                self.pending_new_view = Some(target);
                let ahead = self.vc_votes[&target]
                    .iter()
                    .max_by_key(|(_, (le, _))| *le)
                    .map(|(id, _)| *id)
                    .unwrap_or(from);
                actions.push(Action::NeedSync {
                    peer: ahead,
                    have: self.last_exec,
                });
            } else {
                self.install_new_view(target, now_ms, actions);
            }
        }
    }

    fn install_new_view(&mut self, target: u64, now_ms: u64, actions: &mut Vec<Action>) {
        self.pending_new_view = None;
        // Re-proposals must reach back to the *slowest quorum voter's*
        // execution horizon, not ours. A block we executed at prepare
        // quorum may never have gathered a commit quorum (an equivocating
        // leader can split the followers so 2f+1 prepares form on one
        // fork while the rest hold the other): that block has no
        // certificate, so a stranded replica can neither replay it by
        // consensus (its entry was dropped) nor fetch it by cert-verified
        // state sync. Re-proposing down to the quorum floor lets laggards
        // re-run the block and lets the commit quorum — and therefore the
        // certificate — finally form.
        let floor = self
            .vc_votes
            .get(&target)
            .into_iter()
            .flatten()
            .map(|(_, (le, _))| *le)
            .min()
            .unwrap_or(self.last_exec)
            .min(self.last_exec);
        // Merge the quorum's suffixes with our own entries and re-propose
        // every in-flight sequence above the floor, preferring prepared
        // reports, then the highest view.
        let mut candidates: BTreeMap<u64, (bool, u64, Vec<Vec<u8>>)> = BTreeMap::new();
        let mut consider = |seq: u64, prepared: bool, view: u64, txs: &Vec<Vec<u8>>| {
            if txs.is_empty() || seq <= floor {
                return;
            }
            let better = match candidates.get(&seq) {
                Some((p, v, _)) => (prepared, view) > (*p, *v),
                None => true,
            };
            if better {
                candidates.insert(seq, (prepared, view, txs.clone()));
            }
        };
        for (_, (_, suffix)) in self.vc_votes.get(&target).into_iter().flatten() {
            for e in suffix {
                consider(e.seq, e.prepared, e.view, &e.txs);
            }
        }
        let q = self.quorum();
        for (seq, e) in &self.entries {
            if e.has_payload {
                consider(*seq, e.prepares.len() >= q, e.view, &e.txs);
            }
        }
        let mut repropose = Vec::new();
        let mut seq = floor + 1;
        while seq <= self.last_exec || candidates.contains_key(&seq) {
            if let Some((_, _, txs)) = candidates.get(&seq) {
                repropose.push((seq, txs.clone()));
            }
            // A sequence at or below our horizon with no candidate was
            // committed here and its entry retired — it carries a quorum
            // certificate, so laggards state-sync it instead. A gap
            // *above* our horizon (which ends the loop) means no quorum
            // member holds a payload for that sequence, so it was
            // prepared (hence executed) nowhere; everything beyond it is
            // dropped and clients retry.
            seq += 1;
        }
        self.enter_view(target, now_ms, actions);
        self.entries.retain(|s, _| *s <= self.last_exec);
        for (seq, txs) in &repropose {
            if *seq <= self.last_exec {
                // Re-proposal of a block we executed: the retained entry
                // already holds its payload, root and votes.
                continue;
            }
            let digest = block_digest(*seq, txs);
            let mut entry = Entry::fresh(target, digest, txs.clone(), true);
            entry.prepares.insert(self.me());
            self.entries.insert(*seq, entry);
        }
        actions.push(Action::Broadcast(PeerMsg::NewView {
            view: target,
            from: self.me(),
            last_exec: self.last_exec,
            repropose: repropose.clone(),
        }));
        // Refill the new view's quorums for re-proposed blocks we already
        // executed: followers re-vote when they replay the `NewView`, but
        // the leader never processes its own broadcast — without this,
        // recovering laggards end up one Commit vote short of 2f+1 and
        // the block's certificate never forms. Sent *after* the `NewView`
        // so receivers have replaced any conflicting entry first.
        for (seq, txs) in &repropose {
            if *seq > self.last_exec {
                continue;
            }
            let digest = block_digest(*seq, txs);
            if self.executed_digests.get(seq) != Some(&digest) {
                continue;
            }
            actions.push(Action::Broadcast(PeerMsg::Prepare {
                view: target,
                seq: *seq,
                digest,
                from: self.me(),
            }));
            if let Some(root) = self.executed_roots.get(seq).copied() {
                let vote_sig = sign_vote(&self.keyring.signer, *seq, &root);
                actions.push(Action::Broadcast(PeerMsg::Commit {
                    view: target,
                    seq: *seq,
                    digest,
                    from: self.me(),
                    root,
                    vote_sig,
                }));
            }
        }
        self.last_hb_ms = now_ms;
        self.check_prepared(self.last_exec + 1, actions);
    }

    fn handle_new_view(
        &mut self,
        view: u64,
        from: u32,
        leader_last_exec: u64,
        repropose: Vec<(u64, Vec<Vec<u8>>)>,
        now_ms: u64,
        actions: &mut Vec<Action>,
    ) {
        if view <= self.view || from != primary_of(view, self.cfg.n) {
            return;
        }
        self.enter_view(view, now_ms, actions);
        if leader_last_exec > self.last_exec {
            actions.push(Action::NeedSync {
                peer: from,
                have: self.last_exec,
            });
        }
        // Entries of earlier views that the new leader did not re-propose
        // are dead. Votes already cast in this view are not: peers that
        // processed the `NewView` first never send them again.
        let kept: BTreeSet<u64> = repropose.iter().map(|(s, _)| *s).collect();
        self.entries
            .retain(|s, e| *s <= self.last_exec || kept.contains(s) || e.view >= view);
        for (seq, txs) in repropose {
            self.handle_preprepare(from, view, seq, txs, now_ms, actions);
        }
    }

    fn enter_view(&mut self, view: u64, now_ms: u64, actions: &mut Vec<Action>) {
        debug_assert!(view > self.view);
        self.view = view;
        self.view_changes += 1;
        self.vc_target = self.vc_target.max(view);
        self.vc_votes.retain(|t, _| *t > view);
        if self.pending_new_view.is_some_and(|t| t <= view) {
            self.pending_new_view = None;
        }
        self.last_progress_ms = now_ms;
        self.rearm_stall_clock(now_ms);
        actions.push(Action::LeaderChanged {
            view,
            leader: primary_of(view, self.cfg.n),
        });
    }

    /// The driver finished a state sync; the local chain now reaches
    /// `height`. Fires a deferred `NewView` if we won an election while
    /// behind.
    pub fn on_caught_up(&mut self, height: u64, now_ms: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        if height > self.last_exec {
            self.last_exec = height;
            self.entries.retain(|s, e| *s > height && !e.executed);
            self.last_progress_ms = now_ms;
            self.rearm_stall_clock(now_ms);
        }
        if let Some(target) = self.pending_new_view {
            let max_le = self
                .vc_votes
                .get(&target)
                .map(|v| v.values().map(|(le, _)| *le).max().unwrap_or(0))
                .unwrap_or(0);
            if self.last_exec >= max_le {
                self.install_new_view(target, now_ms, &mut actions);
            }
        }
        self.check_prepared(self.last_exec + 1, &mut actions);
        actions
    }

    /// Periodic driver tick: leader heartbeats, follower timeout votes.
    pub fn on_tick(&mut self, now_ms: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.pending_new_view.is_some() {
            return actions; // syncing toward our own NewView
        }
        if self.is_leader() {
            if now_ms.saturating_sub(self.last_hb_ms) >= self.cfg.heartbeat_ms {
                self.last_hb_ms = now_ms;
                actions.push(Action::Broadcast(PeerMsg::Heartbeat {
                    view: self.view,
                    from: self.me(),
                    last_exec: self.last_exec,
                }));
            }
        } else {
            let window = self.cfg.view_timeout_ms + self.jitter_ms;
            let silent = now_ms.saturating_sub(self.last_progress_ms) >= window;
            // A heartbeating leader whose proposals never execute is as
            // dead as a silent one: equivocated or corrupted proposals can
            // never quorum, and the beacon must not keep it on the floor.
            let stalled = self
                .stalled_since_ms
                .is_some_and(|t| now_ms.saturating_sub(t) >= window);
            if silent || stalled {
                // Escalate one target per timeout window, skipping over
                // candidate leaders that are themselves dead. The jittered
                // deadline staggers detection so one replica votes first
                // and the f+1 join rule pulls the rest in behind a single
                // target.
                let target = if self.vc_target <= self.view {
                    self.view + 1
                } else {
                    self.vc_target + 1
                };
                self.last_progress_ms = now_ms;
                if let Some(t) = self.stalled_since_ms.as_mut() {
                    *t = now_ms;
                }
                self.broadcast_own_vote(target, &mut actions);
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const SEED: u64 = 0xC0FF1DE;

    /// In-memory bus driving N replicas with perfect (but reorderable)
    /// links, synchronous execution, a fake clock, and real signatures:
    /// every delivery goes through the authenticated [`Replica::handle`].
    struct Bus {
        replicas: Vec<Replica>,
        rings: Vec<Keyring>,
        /// Delivery queue of (from, to, msg).
        queue: VecDeque<(u32, u32, PeerMsg)>,
        /// Node ids that are crashed (drop everything to/from them).
        dead: BTreeSet<u32>,
        /// Per-replica executed blocks (seq, digest).
        executed: Vec<Vec<(u64, [u8; 32])>>,
        /// Per-replica committed seqs (each carried a verified cert).
        committed: Vec<Vec<u64>>,
        /// Per-replica NeedSync requests observed.
        syncs: Vec<Vec<(u32, u64)>>,
        now: u64,
    }

    impl Bus {
        fn new(n: usize) -> Bus {
            let now = 0;
            let rings: Vec<Keyring> = (0..n as u32)
                .map(|i| Keyring::deterministic(SEED, i, n))
                .collect();
            Bus {
                replicas: (0..n)
                    .map(|i| {
                        let mut cfg = ReplicaConfig::localhost(i as u32, n);
                        cfg.view_timeout_ms = 100;
                        cfg.heartbeat_ms = 20;
                        cfg.timeout_jitter_ms = 30;
                        Replica::new(cfg, rings[i].clone(), now)
                    })
                    .collect(),
                rings,
                queue: VecDeque::new(),
                dead: BTreeSet::new(),
                executed: vec![Vec::new(); n],
                committed: vec![Vec::new(); n],
                syncs: vec![Vec::new(); n],
                now,
            }
        }

        fn absorb(&mut self, node: u32, actions: Vec<Action>) {
            let n = self.replicas.len() as u32;
            for a in actions {
                match a {
                    Action::Broadcast(msg) => {
                        for to in 0..n {
                            if to != node {
                                self.queue.push_back((node, to, msg.clone()));
                            }
                        }
                    }
                    Action::Send(to, msg) => self.queue.push_back((node, to, msg)),
                    Action::Execute { seq, txs, digest } => {
                        assert_eq!(digest, block_digest(seq, &txs));
                        self.executed[node as usize].push((seq, digest));
                        // Tests use the block digest as the stand-in root.
                        let more = self.replicas[node as usize].on_executed(seq, digest, self.now);
                        self.absorb(node, more);
                    }
                    Action::CommittedLocal { seq, digest, cert } => {
                        assert_eq!(cert.height, seq);
                        assert_eq!(cert.root, digest);
                        cert.verify(self.replicas.len(), &self.rings[0].keys)
                            .expect("commit released without a valid certificate");
                        self.committed[node as usize].push(seq);
                    }
                    Action::NeedSync { peer, have } => {
                        self.syncs[node as usize].push((peer, have));
                    }
                    Action::LeaderChanged { .. } => {}
                    Action::Evidence(ev) => {
                        panic!("honest cluster produced evidence: {ev:?}");
                    }
                }
            }
        }

        /// Sign and deliver one message through the authenticated path.
        fn deliver(&mut self, from: u32, to: u32, msg: PeerMsg) {
            let signed = SignedPeerMsg::sign(from, &self.rings[from as usize].signer, msg);
            let actions = self.replicas[to as usize]
                .handle(signed, self.now)
                .expect("honest message rejected");
            self.absorb(to, actions);
        }

        /// Deliver queued messages until quiescence. `reversed` pops from
        /// the back to stress out-of-order tolerance.
        fn pump(&mut self, reversed: bool) {
            while let Some((from, to, msg)) = if reversed {
                self.queue.pop_back()
            } else {
                self.queue.pop_front()
            } {
                if self.dead.contains(&from) || self.dead.contains(&to) {
                    continue;
                }
                self.deliver(from, to, msg);
            }
        }

        fn propose(&mut self, node: u32, txs: Vec<Vec<u8>>) -> Result<(), ProposeError> {
            let actions = self.replicas[node as usize].propose(txs, self.now)?;
            self.absorb(node, actions);
            Ok(())
        }

        fn tick_all(&mut self, advance_ms: u64) {
            self.now += advance_ms;
            for i in 0..self.replicas.len() {
                if self.dead.contains(&(i as u32)) {
                    continue;
                }
                let actions = self.replicas[i].on_tick(self.now);
                self.absorb(i as u32, actions);
            }
        }

        fn live(&self) -> Vec<usize> {
            (0..self.replicas.len())
                .filter(|i| !self.dead.contains(&(*i as u32)))
                .collect()
        }

        fn assert_converged(&self, blocks: usize) {
            let reference = self.executed[self.live()[0]].clone();
            assert_eq!(reference.len(), blocks, "wrong block count");
            for i in self.live() {
                assert_eq!(
                    self.executed[i], reference,
                    "replica {i} diverged from the reference log"
                );
                assert_eq!(
                    self.committed[i].len(),
                    blocks,
                    "replica {i} missing local commits"
                );
            }
        }
    }

    fn block(tag: u8, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![tag, i as u8, 0xCF]).collect()
    }

    /// Replicas for tests that deliver every message by hand.
    fn replicas(n: usize) -> Vec<Replica> {
        (0..n as u32)
            .map(|i| {
                let ring = Keyring::deterministic(SEED, i, n);
                Replica::new(ReplicaConfig::localhost(i, n), ring, 0)
            })
            .collect()
    }

    /// The first message `actions` broadcasts.
    fn broadcast(actions: Vec<Action>) -> PeerMsg {
        actions
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(m) => Some(m),
                _ => None,
            })
            .expect("a broadcast")
    }

    #[test]
    fn four_replicas_commit_in_order() {
        let mut bus = Bus::new(4);
        for b in 0..3 {
            bus.propose(0, block(b, 4)).unwrap();
        }
        bus.pump(false);
        bus.assert_converged(3);
        for r in &bus.replicas {
            assert_eq!(r.last_exec(), 3);
            assert_eq!(r.view(), 0);
        }
    }

    #[test]
    fn late_commit_votes_leave_no_entries_behind() {
        // Each block certifies at 2f+1 = 3 votes; the fourth arrives after
        // its entry retired and must not resurrect it as a placeholder,
        // or the entry map grows with the chain.
        let mut bus = Bus::new(4);
        for b in 0..3 {
            bus.propose(0, block(b, 2)).unwrap();
            bus.pump(false);
        }
        bus.assert_converged(3);
        for r in &bus.replicas {
            assert!(r.entries.is_empty(), "leftover entries: {:?}", r.entries);
        }
    }

    #[test]
    fn out_of_order_delivery_still_converges() {
        let mut bus = Bus::new(4);
        for b in 0..4 {
            bus.propose(0, block(b, 3)).unwrap();
        }
        bus.pump(true); // LIFO delivery: commits arrive before prepares
        bus.assert_converged(4);
    }

    #[test]
    fn single_replica_cluster_self_commits() {
        let mut bus = Bus::new(1);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(1);
    }

    #[test]
    fn watermark_backpressure_and_not_leader() {
        let mut bus = Bus::new(4);
        for b in 0..4 {
            // Queue fills without any delivery: nothing executes.
            bus.propose(0, block(b, 1)).unwrap();
        }
        assert_eq!(
            bus.replicas[0].propose(block(9, 1), 0),
            Err(ProposeError::Backpressure)
        );
        assert_eq!(
            bus.replicas[1].propose(block(9, 1), 0),
            Err(ProposeError::NotLeader)
        );
        bus.pump(false);
        bus.assert_converged(4);
        // Window cleared after commits.
        bus.propose(0, block(9, 1)).unwrap();
        bus.pump(false);
        bus.assert_converged(5);
    }

    #[test]
    fn leader_crash_triggers_view_change_and_reproposal() {
        let mut bus = Bus::new(4);
        bus.propose(0, block(1, 4)).unwrap();
        bus.pump(false);
        bus.assert_converged(1);

        // Leader proposes block 2, the PrePrepare reaches everyone, then the
        // leader dies before any Prepare exchange completes.
        bus.propose(0, block(2, 4)).unwrap();
        // Deliver only the PrePrepares (first 3 queued messages).
        for _ in 0..3 {
            let (from, to, msg) = bus.queue.pop_front().unwrap();
            bus.deliver(from, to, msg);
        }
        bus.queue.clear();
        bus.dead.insert(0);

        // Followers time out, vote, and elect replica 1, which must
        // re-propose block 2 verbatim.
        bus.tick_all(150);
        bus.pump(false);
        for i in bus.live() {
            assert_eq!(bus.replicas[i].view(), 1, "replica {i} stuck in view 0");
            assert_eq!(bus.replicas[i].leader(), 1);
            assert_eq!(bus.replicas[i].last_exec(), 2);
            assert!(bus.replicas[i].view_changes() >= 1);
        }
        bus.assert_converged(2);

        // The new leader keeps making progress.
        bus.propose(1, block(3, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(3);
    }

    #[test]
    fn dead_candidate_escalates_to_next_view() {
        // n=7 tolerates f=2: kill the leader AND the first candidate.
        let mut bus = Bus::new(7);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(1);
        bus.dead.insert(0);
        bus.dead.insert(1);
        // First timeout votes for view 1 (dead candidate), second escalates
        // to view 2 whose primary is alive.
        bus.tick_all(150);
        bus.pump(false);
        bus.tick_all(150);
        bus.pump(false);
        for i in bus.live() {
            assert_eq!(bus.replicas[i].view(), 2, "replica {i} not in view 2");
            assert_eq!(bus.replicas[i].leader(), 2);
        }
        bus.propose(2, block(2, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(2);
    }

    #[test]
    fn heartbeats_prevent_view_change() {
        let mut bus = Bus::new(4);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        // Many quiet intervals shorter than the timeout, bridged by
        // heartbeats: the view must hold.
        for _ in 0..20 {
            bus.tick_all(50);
            bus.pump(false);
        }
        for r in &bus.replicas {
            assert_eq!(r.view(), 0);
        }
        bus.assert_converged(1);
    }

    #[test]
    fn lagging_replica_detects_gap_and_catches_up() {
        let mut bus = Bus::new(4);
        // Replica 3 misses two committed blocks.
        bus.dead.insert(3);
        bus.propose(0, block(1, 2)).unwrap();
        bus.propose(0, block(2, 2)).unwrap();
        bus.pump(false);
        bus.dead.remove(&3);

        // A heartbeat advertising progress triggers NeedSync on 3.
        bus.tick_all(25);
        bus.pump(false);
        let (peer, have) = *bus.syncs[3].last().expect("no NeedSync emitted");
        assert_eq!(peer, 0);
        assert_eq!(have, 0);

        // Driver syncs the WAL out of band and reports back.
        let actions = bus.replicas[3].on_caught_up(2, bus.now);
        bus.absorb(3, actions);
        assert_eq!(bus.replicas[3].last_exec(), 2);

        // And replica 3 participates in the next block normally.
        bus.propose(0, block(3, 2)).unwrap();
        bus.pump(false);
        assert_eq!(bus.executed[3], vec![(3, block_digest(3, &block(3, 2)))]);
        assert_eq!(bus.committed[3], vec![3]);
    }

    #[test]
    fn follower_one_execution_behind_is_not_told_to_sync() {
        // Replicas driven by hand so follower 1 can hold seq 1 prepared but
        // still executing while the leader runs a full window ahead.
        let mut rs = replicas(4);
        let pp1 = broadcast(rs[0].propose(block(1, 1), 0).unwrap());
        let prep1 = broadcast(rs[1].on_msg(0, pp1.clone(), 0));
        let prep2 = broadcast(rs[2].on_msg(0, pp1, 0));
        rs[0].on_msg(1, prep1, 0);
        let exec = rs[0].on_msg(2, prep2.clone(), 0);
        let Some(Action::Execute { digest, .. }) = exec.last() else {
            panic!("leader did not execute seq 1: {exec:?}");
        };
        rs[0].on_executed(1, *digest, 0);
        // Follower 1 reaches the prepare quorum and starts executing seq 1.
        let exec = rs[1].on_msg(2, prep2, 0);
        assert!(matches!(exec.last(), Some(Action::Execute { seq: 1, .. })));

        // The leader legally proposes up to last_exec + max_inflight.
        let window = ReplicaConfig::localhost(0, 4).max_inflight;
        let mut edge = None;
        for b in 2..=1 + window {
            edge = Some(broadcast(rs[0].propose(block(b as u8, 1), 0).unwrap()));
        }
        let edge = edge.unwrap();
        let need_sync = |a: &Action| matches!(a, Action::NeedSync { .. });
        let behind = rs[1].on_msg(0, edge.clone(), 0);
        assert!(!behind.iter().any(need_sync), "spurious sync: {behind:?}");
        // A follower holding nothing at all is genuinely lagging.
        let empty = rs[3].on_msg(0, edge, 0);
        assert!(empty.iter().any(need_sync), "missed lag: {empty:?}");
    }

    #[test]
    fn vote_that_outruns_its_new_view_still_counts() {
        // Member 3 hears member 2's Prepare for view 1's first block before
        // the NewView installing view 1. Member 2 never sends that vote
        // again, so the NewView must not discard it.
        let mut rs = replicas(4);
        let now = 10_000; // past every view timeout: member 0 is silent
        let votes: Vec<PeerMsg> = (1..4).map(|i| broadcast(rs[i].on_tick(now))).collect();
        rs[1].on_msg(2, votes[1].clone(), now);
        let new_view = rs[1]
            .on_msg(3, votes[2].clone(), now)
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(m @ PeerMsg::NewView { .. }) => Some(m),
                _ => None,
            })
            .expect("member 1 installs view 1");
        let pp = broadcast(rs[1].propose(block(1, 2), now).unwrap());
        rs[2].on_msg(1, new_view.clone(), now);
        let prepare = broadcast(rs[2].on_msg(1, pp.clone(), now));

        rs[3].on_msg(2, prepare, now);
        rs[3].on_msg(1, new_view, now);
        let actions = rs[3].on_msg(1, pp, now);
        assert!(
            matches!(actions.last(), Some(Action::Execute { seq: 1, .. })),
            "member 3 lost member 2's early vote: {actions:?}"
        );
    }

    #[test]
    fn elected_leader_syncs_before_new_view() {
        let mut bus = Bus::new(4);
        // Replica 1 (next leader) misses a block, then the leader dies.
        bus.dead.insert(1);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        bus.dead.remove(&1);
        bus.dead.insert(0);

        bus.tick_all(150);
        bus.pump(false);
        // Replica 1 won but is behind: it must have requested a sync and
        // deferred the NewView.
        let (_, have) = *bus.syncs[1].last().expect("elected leader never synced");
        assert_eq!(have, 0);
        assert_eq!(bus.replicas[1].view(), 0, "installed view before syncing");

        let actions = bus.replicas[1].on_caught_up(1, bus.now);
        bus.absorb(1, actions);
        bus.pump(false);
        for i in bus.live() {
            assert_eq!(bus.replicas[i].view(), 1);
        }
        bus.propose(1, block(2, 2)).unwrap();
        bus.pump(false);
        for i in bus.live() {
            assert_eq!(bus.replicas[i].last_exec(), 2);
        }
    }

    #[test]
    fn resumed_replica_starts_at_recovered_height() {
        let ring = Keyring::deterministic(SEED, 2, 4);
        let r = Replica::with_height(ReplicaConfig::localhost(2, 4), ring, 7, 0);
        assert_eq!(r.last_exec(), 7);
        assert_eq!(r.view(), 0);
    }

    #[test]
    fn equivocating_follower_yields_evidence_and_blacklist() {
        let mut bus = Bus::new(4);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        // Node 1 signs two conflicting Prepares for the same slot.
        let prep = |d: u8| PeerMsg::Prepare {
            view: 0,
            seq: 2,
            digest: [d; 32],
            from: 1,
        };
        let sign1 = |m: PeerMsg| SignedPeerMsg::sign(1, &bus.rings[1].signer, m);
        let a1 = bus.replicas[2].handle(sign1(prep(1)), 0).unwrap();
        assert!(!a1.iter().any(|a| matches!(a, Action::Evidence(_))));
        let a2 = bus.replicas[2].handle(sign1(prep(2)), 0).unwrap();
        let ev = a2
            .iter()
            .find_map(|a| match a {
                Action::Evidence(e) => Some(e.clone()),
                _ => None,
            })
            .expect("conflicting signed prepares produced no evidence");
        assert_eq!(ev.accused, 1);
        ev.verify(&bus.rings[0].keys).unwrap();
        assert!(bus.replicas[2].is_blacklisted(1));
        assert_eq!(bus.replicas[2].evidence_count(), 1);
        // Follower equivocation does not force a view change.
        assert!(!a2
            .iter()
            .any(|a| matches!(a, Action::Broadcast(PeerMsg::ViewChange { .. }))));
        // Further traffic from the offender is refused.
        assert!(matches!(
            bus.replicas[2].handle(sign1(prep(3)), 0),
            Err(HandleError::Blacklisted(1))
        ));
    }

    #[test]
    fn equivocating_leader_forces_view_change() {
        let mut bus = Bus::new(4);
        // Leader 0 signs two conflicting PrePrepares for (view 0, seq 1).
        let pp = |tag: u8| PeerMsg::PrePrepare {
            view: 0,
            seq: 1,
            txs: block(tag, 2),
        };
        let sign0 = |m: PeerMsg| SignedPeerMsg::sign(0, &bus.rings[0].signer, m);
        bus.replicas[1].handle(sign0(pp(1)), 0).unwrap();
        let actions = bus.replicas[1].handle(sign0(pp(2)), 0).unwrap();
        assert!(actions.iter().any(|a| matches!(a, Action::Evidence(_))));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Broadcast(PeerMsg::ViewChange { target: 1, .. }))),
            "equivocating leader kept the floor: {actions:?}"
        );
        assert!(bus.replicas[1].is_blacklisted(0));
    }

    #[test]
    fn tampered_or_spoofed_envelopes_rejected_without_effect() {
        let mut bus = Bus::new(4);
        let msg = PeerMsg::Prepare {
            view: 0,
            seq: 1,
            digest: [7; 32],
            from: 1,
        };
        let mut tampered = SignedPeerMsg::sign(1, &bus.rings[1].signer, msg.clone());
        tampered.sig[0] ^= 1;
        assert!(matches!(
            bus.replicas[2].handle(tampered, 0),
            Err(HandleError::Auth(AuthError::BadSignature(1)))
        ));
        // Node 3 signing a body that claims from=1.
        let spoofed = SignedPeerMsg::sign(3, &bus.rings[3].signer, msg);
        assert!(matches!(
            bus.replicas[2].handle(spoofed, 0),
            Err(HandleError::Auth(AuthError::SenderMismatch { .. }))
        ));
        // A signer id outside the consortium.
        let stray = SignedPeerMsg::sign(
            9,
            &bus.rings[0].signer,
            PeerMsg::Heartbeat {
                view: 0,
                from: 9,
                last_exec: 5,
            },
        );
        assert!(matches!(
            bus.replicas[2].handle(stray, 0),
            Err(HandleError::Auth(AuthError::UnknownSigner(9)))
        ));
        // None of it moved the replica.
        assert_eq!(bus.replicas[2].view(), 0);
        assert_eq!(bus.replicas[2].last_exec(), 0);
        assert_eq!(bus.replicas[2].evidence_count(), 0);
    }

    #[test]
    fn forged_commit_vote_rejected() {
        let mut bus = Bus::new(4);
        // Correct envelope, but the detached certificate vote signs a
        // different root than the message claims.
        let bad_vote = sign_vote(&bus.rings[1].signer, 1, &[8; 32]);
        let msg = PeerMsg::Commit {
            view: 0,
            seq: 1,
            digest: [7; 32],
            from: 1,
            root: [9; 32],
            vote_sig: bad_vote,
        };
        let signed = SignedPeerMsg::sign(1, &bus.rings[1].signer, msg);
        assert!(matches!(
            bus.replicas[2].handle(signed, 0),
            Err(HandleError::BadVoteSig(1))
        ));
    }

    #[test]
    fn timeout_jitter_is_deterministic_and_bounded() {
        assert_eq!(timeout_jitter(3, 0), 0);
        let spread = 40;
        let js: Vec<u64> = (0..8).map(|i| timeout_jitter(i, spread)).collect();
        for (i, j) in js.iter().enumerate() {
            assert!(*j < spread);
            assert_eq!(*j, timeout_jitter(i as u32, spread), "not deterministic");
        }
        // The spread must actually spread: not every replica on one value.
        assert!(js.iter().collect::<BTreeSet<_>>().len() > 1);
    }

    #[test]
    fn staggered_timeouts_elect_in_one_round() {
        let mut bus = Bus::new(4);
        bus.propose(0, block(1, 2)).unwrap();
        bus.pump(false);
        bus.dead.insert(0);
        // Walk time forward in fine steps, delivering between steps:
        // replicas time out at distinct jittered instants, the first
        // voter's f+1 join rule pulls the rest in, and exactly one view
        // change installs.
        for _ in 0..40 {
            bus.tick_all(10);
            bus.pump(false);
        }
        for i in bus.live() {
            assert_eq!(bus.replicas[i].view(), 1, "replica {i} overshot view 1");
            assert_eq!(bus.replicas[i].view_changes(), 1, "replica {i} dueled");
        }
        bus.propose(1, block(2, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(2);
    }

    #[test]
    fn stalled_pipeline_votes_out_a_heartbeating_leader() {
        // A Byzantine primary can stall the pipeline while staying
        // "alive": it equivocates or corrupts proposals (so nothing ever
        // quorums) yet keeps heartbeating so the silence timer never
        // fires. The stall clock must vote it out anyway.
        let rings: Vec<Keyring> = (0..4).map(|i| Keyring::deterministic(SEED, i, 4)).collect();
        let mut cfg = ReplicaConfig::localhost(1, 4);
        cfg.view_timeout_ms = 100;
        cfg.heartbeat_ms = 20;
        cfg.timeout_jitter_ms = 0;
        let mut r = Replica::new(cfg, rings[1].clone(), 0);
        let pp = SignedPeerMsg::sign(
            0,
            &rings[0].signer,
            PeerMsg::PrePrepare {
                view: 0,
                seq: 1,
                txs: vec![b"stuck".to_vec()],
            },
        );
        r.handle(pp, 0).unwrap();

        let mut voted_at = None;
        for now in (20..=400).step_by(20) {
            // Fresh heartbeat every tick: the leader is never silent.
            let hb = SignedPeerMsg::sign(
                0,
                &rings[0].signer,
                PeerMsg::Heartbeat {
                    view: 0,
                    from: 0,
                    last_exec: 0,
                },
            );
            r.handle(hb, now).unwrap();
            let actions = r.on_tick(now);
            if actions
                .iter()
                .any(|a| matches!(a, Action::Broadcast(PeerMsg::ViewChange { target: 1, .. })))
            {
                voted_at = Some(now);
                break;
            }
        }
        let at = voted_at.expect("stalled replica never voted out the heartbeating leader");
        assert!(
            (100..=200).contains(&at),
            "stall vote fired at {at}ms, outside one timeout window"
        );

        // Once the stall drains (the entry executes), the clock disarms:
        // continued heartbeats keep the new pipeline quiet.
        let digest = block_digest(1, &[b"stuck".to_vec()]);
        for peer in [2u32, 3] {
            let prep = SignedPeerMsg::sign(
                peer,
                &rings[peer as usize].signer,
                PeerMsg::Prepare {
                    view: 0,
                    seq: 1,
                    digest,
                    from: peer,
                },
            );
            r.handle(prep, at).unwrap();
        }
        r.on_executed(1, [7; 32], at);
        for now in (at + 20..=at + 400).step_by(20) {
            let hb = SignedPeerMsg::sign(
                0,
                &rings[0].signer,
                PeerMsg::Heartbeat {
                    view: 0,
                    from: 0,
                    last_exec: 1,
                },
            );
            r.handle(hb, now).unwrap();
            assert!(
                r.on_tick(now).is_empty(),
                "drained pipeline still voted at {now}ms"
            );
        }
    }

    #[test]
    fn equivocated_prepare_split_heals_via_quorum_floor_repropose() {
        // An equivocating leader sends one payload for seq 1 to replica 2
        // and a conflicting one to replicas 1 and 3. The fork gathers
        // 2f+1 prepares (the leader's implicit vote counts on both
        // sides), so 1 and 3 execute it — but the commit quorum is stuck
        // at two votes, so no certificate ever forms, and replica 2 holds
        // a payload that can never quorum. The new leader must re-propose
        // down to the quorum's *minimum* execution horizon so replica 2
        // re-runs the block by consensus and the certificate finally
        // forms on every survivor.
        let mut bus = Bus::new(4);
        let honest = block(0xAA, 2);
        let fork = block(0xFF, 2);
        for (to, txs) in [(1u32, &fork), (2, &honest), (3, &fork)] {
            bus.deliver(
                0,
                to,
                PeerMsg::PrePrepare {
                    view: 0,
                    seq: 1,
                    txs: txs.clone(),
                },
            );
        }
        bus.pump(false);
        assert_eq!(
            bus.replicas[1].last_exec(),
            1,
            "fork side failed to execute"
        );
        assert_eq!(
            bus.replicas[3].last_exec(),
            1,
            "fork side failed to execute"
        );
        assert_eq!(
            bus.replicas[2].last_exec(),
            0,
            "split side executed a minority digest"
        );
        assert!(
            bus.committed.iter().all(|c| c.is_empty()),
            "a split block must not certify"
        );

        // The equivocator goes dark; the survivors elect replica 1.
        bus.dead.insert(0);
        for _ in 0..40 {
            bus.tick_all(10);
            bus.pump(false);
        }
        for i in bus.live() {
            assert_eq!(bus.replicas[i].view(), 1, "replica {i} not in view 1");
            assert_eq!(
                bus.replicas[i].last_exec(),
                1,
                "replica {i} did not recover seq 1 from the re-proposal"
            );
            assert_eq!(
                bus.committed[i],
                vec![1],
                "replica {i} never certified the recovered block"
            );
        }
        // All survivors converged on the fork digest (the prepared side).
        let fork_digest = block_digest(1, &fork);
        for i in bus.live() {
            assert_eq!(bus.executed[i].last(), Some(&(1, fork_digest)));
        }
        // And the healed cluster keeps committing normally.
        bus.propose(1, block(2, 2)).unwrap();
        bus.pump(false);
        bus.assert_converged(2);
    }
}
