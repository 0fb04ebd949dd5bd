//! The three-stage block pipeline behind the reactor front end.
//!
//! ```text
//!  preverify workers          execute stage             commit stage
//!  ─────────────────          ─────────────             ────────────
//!  batch N+2:                 batch N+1:                batch N:
//!  dedup, claim,       ──►    linger-batch,      ──►    group fsync,
//!  envelope open +            execute_block_staged      release claims,
//!  sig verify                 (node write lock)         ordered replies
//!  (lock-free vs node)        [IngestRing]              [bounded queue]
//! ```
//!
//! The stages overlap: while batch N's WAL delta is being fsync'd, batch
//! N+1 executes under the node write lock and batch N+2 pre-verifies on
//! the worker pool — the exit-less request path of the in-enclave design
//! (requests cross stage boundaries through lock-free/bounded queues,
//! never through a per-request enclave exit).
//!
//! ## Durability (the PR-5 contract on the pipelined path)
//!
//! *No acked receipt may be lost; no transaction may execute twice.*
//!
//! 1. A waiter only hears `Committed` from the **commit stage**, strictly
//!    after its block's WAL delta was fsync'd as part of a group — the
//!    durable-commit point of one fsync per block, amortized over
//!    `group` blocks per `fsync`.
//! 2. The in-flight wire-hash claim of a transaction is held until
//!    **after** that fsync. A resubmission therefore sees either `Busy`
//!    (twin still in flight — not yet durable) or a committed-index hit
//!    that is provably durable: the claim-first order in
//!    [`handle_work`] means a successful claim implies the twin released,
//!    which implies its group fsync completed.
//! 3. Late duplicates caught in the execute stage are answered through
//!    the commit queue (reply-only items) so their replies also sequence
//!    after the twin's group fsync.

use crate::cluster::ClusterShared;
use crate::frame::Message;
use crate::reactor::{ConnToken, ReactorHandle, Work, WorkQueue};
use crate::server::{claim, release, validate, InFlight, Job, ReplyTo, ServerConfig, ServerStats};
use confide_core::keys::JoinOffer;
use confide_core::node::{ConfideNode, SchedMode, WalDelta};
use confide_core::tx::WireTx;
use confide_storage::{WalFile, GROUP_BUCKETS};
use confide_tee::IngestRing;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Live pipeline counters: per-stage busy time (for occupancy), the
/// group-commit histogram, and the durable height watermark. All fields
/// only ever increase; a bench snapshots them before/after its window.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Nanoseconds preverify workers spent handling requests (summed
    /// across the pool — divide by the worker count for per-thread
    /// occupancy).
    pub preverify_ns: AtomicU64,
    /// Nanoseconds the execute stage spent in dedup + block execution.
    pub execute_ns: AtomicU64,
    /// Nanoseconds the commit stage spent in fsync + reply dispatch.
    pub commit_ns: AtomicU64,
    /// Group fsyncs issued (0 when the server runs without a WAL).
    pub fsyncs: AtomicU64,
    /// Blocks made durable across all groups.
    pub fsync_blocks: AtomicU64,
    /// WAL bytes flushed across all groups.
    pub fsync_bytes: AtomicU64,
    /// Largest commit group observed (blocks in one fsync).
    pub max_group: AtomicU64,
    /// Group-size histogram; buckets are [`GROUP_BUCKETS`].
    pub group_hist: [AtomicU64; GROUP_BUCKETS.len()],
    /// Height of the last block whose WAL delta is on disk.
    pub durable_height: AtomicU64,
}

impl PipelineStats {
    /// Histogram bucket index for a group of `blocks` blocks.
    pub fn bucket(blocks: u64) -> usize {
        match blocks {
            0 | 1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        }
    }

    /// Blocks per fsync so far (the amortization factor; ≥ 1.0 once any
    /// group committed).
    pub fn blocks_per_fsync(&self) -> f64 {
        let fsyncs = self.fsyncs.load(Ordering::Relaxed);
        if fsyncs == 0 {
            return 0.0;
        }
        self.fsync_blocks.load(Ordering::Relaxed) as f64 / fsyncs as f64
    }

    fn note_group(&self, blocks: u64, bytes: u64, synced: bool) {
        if synced {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.fsync_blocks.fetch_add(blocks, Ordering::Relaxed);
        self.fsync_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.max_group.fetch_max(blocks, Ordering::Relaxed);
        self.group_hist[PipelineStats::bucket(blocks)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Where validated submissions go: the single-node pipeline ring or the
/// cluster consensus driver's job queue.
pub(crate) enum Ingest {
    /// Single-node: the bounded MPSC ring into the execute stage.
    Ring(Arc<IngestRing<Job>>),
    /// Cluster: the bounded channel into `cluster_loop`.
    Cluster(SyncSender<Job>),
}

/// Server-side mirror of the node's committed wire-hash index,
/// maintained by the commit stage (inserts happen after the group fsync
/// and *before* the claim release, so a dedup hit here is provably
/// durable). Seeded at spawn from [`ConfideNode::committed_wire_entries`]
/// so resubmits of pre-restart commits dedup too. Exists so the
/// per-submission dedup check is a short mutexed map probe instead of a
/// `node.read()` that convoys behind block execution's write lock.
pub(crate) type DurableIndex = Arc<Mutex<HashMap<[u8; 32], (bool, Vec<u8>)>>>;

/// Everything a preverify worker needs, shared across the pool.
pub(crate) struct WorkerCtx {
    pub(crate) node: Arc<RwLock<ConfideNode>>,
    /// Direct engine handle: preverify must never take the node lock
    /// (execute holds it write-side for whole blocks).
    pub(crate) conf_engine: Arc<confide_core::engine::Engine>,
    /// Durable-commit dedup index (single-node pipeline mode only;
    /// cluster mode dedups against the node under consensus ordering).
    pub(crate) durable: DurableIndex,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) pipe: Arc<PipelineStats>,
    pub(crate) in_flight: InFlight,
    pub(crate) handle: ReactorHandle,
    pub(crate) work: Arc<WorkQueue>,
    pub(crate) ingest: Ingest,
    pub(crate) cluster: Option<Arc<ClusterShared>>,
    pub(crate) config: ServerConfig,
}

/// Worker thread body: drain this worker's shard of the reactor's work
/// queue until it stops (shard-per-worker keeps per-connection FIFO —
/// see [`WorkQueue`]).
pub(crate) fn preverify_worker(ctx: Arc<WorkerCtx>, shard: usize) {
    while let Some(work) = ctx.work.pop(shard) {
        let t0 = Instant::now();
        handle_work(&ctx, work);
        ctx.pipe
            .preverify_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Handle one offloaded request. Everything here may take the node
/// *read* lock; only the execute stage takes the write lock.
fn handle_work(ctx: &WorkerCtx, work: Work) {
    let Work {
        conn,
        seq,
        msg,
        attested,
    } = work;
    match msg {
        Message::SubmitTx(tx) => submit(ctx, conn, seq, tx, false),
        Message::SubmitTxWait(tx) => submit(ctx, conn, seq, tx, true),
        Message::GetReceipt(hash) => {
            let stored = ctx.node.read().expect("node lock").stored_receipt(&hash);
            let reply = match stored {
                Some(bytes) => Message::ReceiptIs(bytes),
                None => Message::NotFound,
            };
            ctx.handle.reply(conn, seq, reply);
        }
        Message::GetStatus => {
            let (height, state_root) = {
                let node = ctx.node.read().expect("node lock");
                (node.blocks.height(), node.state_root())
            };
            let status = match &ctx.cluster {
                Some(shared) => crate::frame::NodeStatus {
                    node_id: shared.node_id,
                    view: shared.view.load(Ordering::Relaxed),
                    leader: shared.leader.load(Ordering::Relaxed),
                    height,
                    state_root,
                    view_changes: shared.view_changes.load(Ordering::Relaxed),
                    sync_blocks: shared.sync_blocks.load(Ordering::Relaxed),
                    evidence: shared.evidence.load(Ordering::Relaxed),
                },
                None => crate::frame::NodeStatus {
                    node_id: 0,
                    view: 0,
                    leader: 0,
                    height,
                    state_root,
                    view_changes: 0,
                    sync_blocks: 0,
                    evidence: 0,
                },
            };
            ctx.handle.reply(conn, seq, Message::StatusIs(status));
        }
        Message::JoinRequest { eph_pk, report } => {
            if ctx.config.join_roots.is_empty() {
                ctx.handle
                    .reply(conn, seq, Message::Rejected("wire joins disabled".into()));
                return;
            }
            let offer = JoinOffer { eph_pk, report };
            // Each approval burns a unique seed: wrap_keys derives its
            // ephemeral secret and GCM nonce from it.
            let seed = ctx
                .config
                .join_seed
                .wrapping_add(ctx.stats.joins.fetch_add(1, Ordering::Relaxed));
            let node = ctx.node.read().expect("node lock");
            let mut approved = None;
            let mut last_err = String::from("no join roots configured");
            for root in &ctx.config.join_roots {
                match node.approve_join(
                    root,
                    &offer,
                    ctx.config.join_svn,
                    ctx.config.join_min_svn,
                    seed,
                ) {
                    Ok((blob, member_report)) => {
                        approved = Some(Message::JoinApprove {
                            blob,
                            member_report,
                        });
                        break;
                    }
                    Err(e) => last_err = e.to_string(),
                }
            }
            drop(node);
            match approved {
                // The joiner's quote verified against a consortium root:
                // the reactor marks the socket attested when it flushes
                // this reply.
                Some(reply) => ctx.handle.reply_attest(conn, seq, reply),
                None => ctx.handle.reply(
                    conn,
                    seq,
                    Message::Rejected(format!("join refused: {last_err}")),
                ),
            }
        }
        Message::StateSyncReq {
            from,
            max,
            have_height,
        } => {
            let reply = if attested && ctx.cluster.is_some() {
                crate::cluster::serve_state_sync(&ctx.node, from, max, have_height)
            } else {
                Message::Rejected("state sync requires an attested connection".into())
            };
            ctx.handle.reply(conn, seq, reply);
        }
        // The reactor only offloads the kinds above; anything else is a
        // protocol violation it already answered inline.
        other => {
            ctx.handle.reply_close(
                conn,
                seq,
                Message::Rejected(format!("unexpected message kind {:#04x}", other.kind())),
            );
        }
    }
}

/// Validate + route one submission.
fn submit(ctx: &WorkerCtx, conn: ConnToken, seq: u64, tx: WireTx, wait: bool) {
    let wire_hash = tx.wire_hash();
    let reply_to = if wait {
        ReplyTo::Conn {
            handle: ctx.handle.clone(),
            conn,
            seq,
        }
    } else {
        ReplyTo::Fire
    };
    match &ctx.ingest {
        // Cluster mode checks in the order dedup → redirect → claim →
        // validate → enqueue: `cluster_loop` fsyncs inside
        // `execute` and releases claims right after, so a committed-index
        // hit here is already durable.
        Ingest::Cluster(job_tx) => {
            let committed = ctx
                .node
                .read()
                .expect("node lock")
                .committed_by_wire(&wire_hash);
            if let Some((sealed, receipt)) = committed {
                ctx.stats.deduped.fetch_add(1, Ordering::Relaxed);
                let reply = if wait {
                    Message::Committed { sealed, receipt }
                } else {
                    Message::Accepted(wire_hash)
                };
                ctx.handle.reply(conn, seq, reply);
                return;
            }
            if let Some(shared) = ctx.cluster.as_ref().filter(|s| !s.is_leader()) {
                ctx.handle.reply(
                    conn,
                    seq,
                    Message::NotPrimary {
                        leader: shared.leader_addr(),
                    },
                );
                return;
            }
            if !claim(&ctx.in_flight, wire_hash) {
                ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                ctx.handle.reply(conn, seq, Message::Busy);
                return;
            }
            match validate(&ctx.conf_engine, &tx) {
                Err(reason) => {
                    release(&ctx.in_flight, &wire_hash);
                    ctx.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    ctx.handle.reply(conn, seq, Message::Rejected(reason));
                }
                Ok(()) => match job_tx.try_send(Job {
                    tx,
                    wire_hash,
                    reply: reply_to,
                }) {
                    Ok(()) => {
                        ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
                        if !wait {
                            ctx.handle.reply(conn, seq, Message::Accepted(wire_hash));
                        }
                    }
                    Err(TrySendError::Full(_)) => {
                        release(&ctx.in_flight, &wire_hash);
                        ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                        ctx.handle.reply(conn, seq, Message::Busy);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        release(&ctx.in_flight, &wire_hash);
                        ctx.handle.reply(
                            conn,
                            seq,
                            Message::Rejected("server shutting down".into()),
                        );
                    }
                },
            }
        }
        // Pipeline mode claims FIRST: the commit stage holds claims
        // until after the group fsync, so claim-success ⇒ any twin
        // released ⇒ its fsync completed ⇒ a committed-index hit below
        // is durable. (Checking committed first — the cluster order —
        // would open a window where a not-yet-fsync'd commit is acked.)
        Ingest::Ring(ring) => {
            if !claim(&ctx.in_flight, wire_hash) {
                ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                ctx.handle.reply(conn, seq, Message::Busy);
                return;
            }
            let committed = ctx
                .durable
                .lock()
                .expect("durable index lock")
                .get(&wire_hash)
                .cloned();
            if let Some((sealed, receipt)) = committed {
                release(&ctx.in_flight, &wire_hash);
                ctx.stats.deduped.fetch_add(1, Ordering::Relaxed);
                let reply = if wait {
                    Message::Committed { sealed, receipt }
                } else {
                    Message::Accepted(wire_hash)
                };
                ctx.handle.reply(conn, seq, reply);
                return;
            }
            if let Err(reason) = validate(&ctx.conf_engine, &tx) {
                release(&ctx.in_flight, &wire_hash);
                ctx.stats.rejected.fetch_add(1, Ordering::Relaxed);
                ctx.handle.reply(conn, seq, Message::Rejected(reason));
                return;
            }
            match ring.try_push(Job {
                tx,
                wire_hash,
                reply: reply_to,
            }) {
                Ok(()) => {
                    ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    if !wait {
                        ctx.handle.reply(conn, seq, Message::Accepted(wire_hash));
                    }
                }
                Err(_) => {
                    release(&ctx.in_flight, &wire_hash);
                    ctx.stats.busy.fetch_add(1, Ordering::Relaxed);
                    ctx.handle.reply(conn, seq, Message::Busy);
                }
            }
        }
    }
}

/// One unit crossing the execute → commit boundary.
pub(crate) enum CommitItem {
    /// A sealed block: jobs + their replies (index-aligned) + the WAL
    /// byte delta the block appended.
    Block {
        jobs: Vec<Job>,
        replies: Vec<Message>,
        delta: WalDelta,
        accepted: u64,
    },
    /// Reply-only passthrough (late dedups, commit-level failures):
    /// routed through the commit queue so delivery — and the claim
    /// release — sequences after the group fsync of anything ahead.
    Replies(Vec<(Job, Message)>),
}

// Park slices are coarse on purpose: on a box with few cores the
// execute stage parking in tens-of-microsecond slices monopolizes a
// core just to poll an empty ring — starving the preverify workers
// that would fill it. Millisecond slices cost nothing against the
// linger window and hand the core back to the producers.
const EXEC_IDLE_PARK: Duration = Duration::from_millis(1);
const EXEC_LINGER_PARK: Duration = Duration::from_millis(5);

/// Execute stage: drain the ingest ring into linger-batched blocks,
/// execute each under the node write lock, and push the staged WAL delta
/// plus replies to the commit stage. The bounded commit queue
/// (`pipeline_depth`) is the only backpressure between the stages.
pub(crate) fn execute_loop(
    node: Arc<RwLock<ConfideNode>>,
    ring: Arc<IngestRing<Job>>,
    commit_tx: SyncSender<CommitItem>,
    stats: Arc<ServerStats>,
    pipe: Arc<PipelineStats>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    // Never spawn more per-block exec threads than the machine has
    // cores: past that point the scoped spawns are pure overhead paid on
    // every block.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let threads = config.exec_threads.max(1).min(cores);
    // Adaptive linger: the batching window tracks the previous block's
    // execution time (floored at the configured linger, capped at 50x).
    // When per-block overhead dominates — slow cores, tiny blocks — the
    // window stretches so arrivals amortize it; when execution is fast
    // the window stays at the configured floor and adds no latency.
    let mut linger = config.batch_linger;
    loop {
        let Some(first) = ring.pop() else {
            if stop.load(Ordering::SeqCst) && ring.is_empty() {
                return; // dropping commit_tx drains the commit stage
            }
            std::thread::park_timeout(EXEC_IDLE_PARK);
            continue;
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + linger;
        while batch.len() < config.max_batch {
            match ring.pop() {
                Some(job) => batch.push(job),
                None => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::park_timeout((deadline - now).min(EXEC_LINGER_PARK));
                }
            }
        }
        let t0 = Instant::now();
        // Late dedup: a resubmission can race past the worker's check and
        // sit in the ring behind the block that commits its twin. Route
        // the stored answer through the commit queue (not straight to the
        // reactor) so it delivers after the twin's group fsync.
        let mut dedup: Vec<(Job, Message)> = Vec::new();
        let mut fresh: Vec<Job> = Vec::with_capacity(batch.len());
        {
            let node = node.read().expect("node lock");
            for job in batch {
                match node.committed_by_wire(&job.wire_hash) {
                    Some((sealed, receipt)) => {
                        stats.deduped.fetch_add(1, Ordering::Relaxed);
                        dedup.push((job, Message::Committed { sealed, receipt }));
                    }
                    None => fresh.push(job),
                }
            }
        }
        if !dedup.is_empty() && commit_tx.send(CommitItem::Replies(dedup)).is_err() {
            return;
        }
        if fresh.is_empty() {
            pipe.execute_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            continue;
        }
        let txs: Vec<WireTx> = fresh.iter().map(|j| j.tx.clone()).collect();
        let result =
            node.write()
                .expect("node lock")
                .execute_block_staged(&txs, threads, SchedMode::Static);
        linger = t0
            .elapsed()
            .clamp(config.batch_linger, config.batch_linger * 50);
        pipe.execute_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let item = match result {
            Ok((res, delta)) => {
                let mut replies = Vec::with_capacity(fresh.len());
                for outcome in &res.outcomes {
                    replies.push(match outcome {
                        Ok((receipt, sealed)) => Message::Committed {
                            sealed: sealed.is_some(),
                            receipt: sealed.clone().unwrap_or_else(|| receipt.encode()),
                        },
                        Err(e) => {
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            Message::Rejected(e.to_string())
                        }
                    });
                }
                CommitItem::Block {
                    jobs: fresh,
                    replies,
                    delta,
                    accepted: res.accepted() as u64,
                }
            }
            Err(e) => {
                // Commit-level failure: every job learns, via the commit
                // queue so ordering guarantees hold.
                let msg = format!("block commit failed: {e}");
                stats
                    .rejected
                    .fetch_add(fresh.len() as u64, Ordering::Relaxed);
                CommitItem::Replies(
                    fresh
                        .into_iter()
                        .map(|job| (job, Message::Rejected(msg.clone())))
                        .collect(),
                )
            }
        };
        if commit_tx.send(item).is_err() {
            return;
        }
    }
}

/// Commit stage: drain whatever the execute stage has ready, fsync all
/// pending WAL deltas with **one** `sync_all` (group commit), then — and
/// only then — release in-flight claims and dispatch replies. Exits when
/// the execute stage drops its sender.
pub(crate) fn commit_loop(
    rx: Receiver<CommitItem>,
    mut wal: Option<WalFile>,
    stats: Arc<ServerStats>,
    pipe: Arc<PipelineStats>,
    in_flight: InFlight,
    durable: DurableIndex,
    config: ServerConfig,
) {
    while let Ok(first) = rx.recv() {
        let mut items = vec![first];
        while let Ok(item) = rx.try_recv() {
            items.push(item);
        }
        let t0 = Instant::now();
        let deltas: Vec<&[u8]> = items
            .iter()
            .filter_map(|i| match i {
                CommitItem::Block { delta, .. } => Some(delta.bytes.as_slice()),
                CommitItem::Replies(_) => None,
            })
            .collect();
        let group = deltas.len() as u64;
        if group > 0 {
            let bytes: u64 = deltas.iter().map(|d| d.len() as u64).sum();
            if let Some(w) = wal.as_mut() {
                w.commit_group(&deltas).expect("wal group commit");
            }
            pipe.note_group(group, bytes, wal.is_some());
            let mut new_blocks = 0u64;
            for item in &items {
                if let CommitItem::Block {
                    delta, accepted, ..
                } = item
                {
                    new_blocks += 1;
                    stats.committed.fetch_add(*accepted, Ordering::Relaxed);
                    pipe.durable_height
                        .fetch_max(delta.height, Ordering::Relaxed);
                }
            }
            stats.blocks.fetch_add(new_blocks, Ordering::Relaxed);
            // Chaos hook: die after the durable-commit point (group
            // fsync) but before any acknowledgement or claim release —
            // the worst crash window, now group-wide.
            if let Some(limit) = config.crash_after {
                if stats.blocks.load(Ordering::Relaxed) >= limit {
                    eprintln!("confide-commit: crash-after hook firing at block {limit}");
                    std::process::exit(101);
                }
            }
        }
        // Durable: publish to the dedup index, release claims, then
        // answer. Per job the order is index-insert → release → reply:
        // a resubmitter whose claim succeeds must already see the index
        // entry (the claim-first proof in the module docs).
        let index = |job: &Job, reply: &Message, durable: &DurableIndex| {
            if let Message::Committed { sealed, receipt } = reply {
                durable
                    .lock()
                    .expect("durable index lock")
                    .insert(job.wire_hash, (*sealed, receipt.clone()));
            }
        };
        for item in items {
            match item {
                CommitItem::Block { jobs, replies, .. } => {
                    for (job, reply) in jobs.into_iter().zip(replies) {
                        index(&job, &reply, &durable);
                        release(&in_flight, &job.wire_hash);
                        job.reply.send(reply);
                    }
                }
                CommitItem::Replies(list) => {
                    for (job, reply) in list {
                        index(&job, &reply, &durable);
                        release(&in_flight, &job.wire_hash);
                        job.reply.send(reply);
                    }
                }
            }
        }
        pipe.commit_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_buckets_cover_the_histogram() {
        assert_eq!(PipelineStats::bucket(1), 0);
        assert_eq!(PipelineStats::bucket(2), 1);
        assert_eq!(PipelineStats::bucket(3), 2);
        assert_eq!(PipelineStats::bucket(4), 2);
        assert_eq!(PipelineStats::bucket(5), 3);
        assert_eq!(PipelineStats::bucket(8), 3);
        assert_eq!(PipelineStats::bucket(9), 4);
        assert_eq!(PipelineStats::bucket(16), 4);
        assert_eq!(PipelineStats::bucket(17), 5);
        assert_eq!(PipelineStats::bucket(1000), 5);
        assert_eq!(GROUP_BUCKETS.len(), 6);
    }

    #[test]
    fn blocks_per_fsync_amortizes() {
        let p = PipelineStats::default();
        p.note_group(1, 100, true);
        p.note_group(4, 400, true);
        p.note_group(3, 300, true);
        assert!((p.blocks_per_fsync() - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(p.max_group.load(Ordering::Relaxed), 4);
        assert_eq!(p.group_hist[0].load(Ordering::Relaxed), 1);
        assert_eq!(p.group_hist[2].load(Ordering::Relaxed), 2);
    }
}
