//! The nonblocking reactor: one thread multiplexing every client
//! connection.
//!
//! The thread-per-connection front end topped out at a few hundred
//! sockets (one OS thread + two stacks each); the paper's node holds
//! thousands of open client channels while the enclave pipeline stays
//! busy. This reactor is the zero-dep, `forbid(unsafe_code)`-compatible
//! equivalent of an epoll loop: every socket is nonblocking, the reactor
//! sweeps them with level-triggered `read()` polls, and an **adaptive
//! idle backoff** (exponentially spaced polls for quiet connections)
//! keeps the sweep cost proportional to the *active* set — 10k idle
//! connections cost ~10k/256 syscalls per sweep, not 10k.
//!
//! Division of labour (the reactor thread never touches the node lock —
//! the execute stage holds it for milliseconds at a time):
//!
//! ```text
//!  reactor thread           preverify workers         block pipeline
//!  ───────────────          ─────────────────         ──────────────
//!  accept / read            validate, dedup,          execute ∥ fsync
//!  frame decode      ──►    claim, enqueue      ──►   (pipeline.rs)
//!  Ping/pk_tx inline        (node read lock)
//!  reply sequencing  ◄──    directives          ◄──   commit replies
//!  write buffering
//! ```
//!
//! **Reply ordering.** Clients pipeline requests and read replies in
//! request order. The reactor assigns every request a per-connection
//! sequence number; replies (produced out of order by the worker pool
//! and the commit stage) park in a per-connection reorder map and are
//! flushed strictly in sequence.
//!
//! **Backpressure.** Every queue a request crosses is bounded: a full
//! worker queue or ingest ring surfaces as a typed [`Message::Busy`],
//! never a silent drop; a reader that stops draining replies grows its
//! write buffer to `write_buf_limit` and is then disconnected (counted
//! in `reply_drops`).

use crate::frame::Message;
use crate::server::ServerStats;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Identifies one live connection slot; the generation guards against a
/// directive outliving its connection and landing on a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnToken {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// One offloaded request: everything a preverify worker needs to act
/// without consulting the reactor.
pub(crate) struct Work {
    pub(crate) conn: ConnToken,
    pub(crate) seq: u64,
    pub(crate) msg: Message,
    /// Whether the connection had completed a K-Protocol join when this
    /// frame was parsed. Requests on a connection are parsed in order
    /// and a well-behaved joiner waits for `JoinApprove` before sending
    /// gated traffic, so the snapshot is exact for honest peers and
    /// fail-closed for racing ones.
    pub(crate) attested: bool,
}

struct WorkShard {
    inner: Mutex<VecDeque<Work>>,
    ready: Condvar,
}

/// Bounded handoff from the reactor to the preverify pool. Overflow is
/// the caller's problem (typed `Busy`), never a block on the reactor
/// thread.
///
/// The queue is **sharded by connection**: every request from one
/// connection lands on the same shard, and each shard is drained by
/// exactly one worker. That preserves the protocol's per-connection
/// FIFO — pipelined submissions from one client are claimed, validated,
/// and enqueued to the execute stage in the order they were sent, which
/// the strictly-increasing per-sender nonce rule depends on. A pool
/// draining one shared queue would reorder adjacent requests and turn
/// in-order nonce streams into spurious replay rejects.
pub(crate) struct WorkQueue {
    shards: Vec<WorkShard>,
    stopped: AtomicBool,
    shard_cap: usize,
}

impl WorkQueue {
    /// `cap` is the total budget, split evenly across `shards` (one per
    /// preverify worker).
    pub(crate) fn new(cap: usize, shards: usize) -> Arc<WorkQueue> {
        let shards = shards.max(1);
        Arc::new(WorkQueue {
            shards: (0..shards)
                .map(|_| WorkShard {
                    inner: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            stopped: AtomicBool::new(false),
            shard_cap: (cap / shards).max(16),
        })
    }

    // The large Err is the point: a rejected `Work` is handed back to
    // the caller intact so it can answer `Busy` without a re-decode.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, work: Work) -> Result<(), Work> {
        if self.stopped.load(Ordering::SeqCst) {
            return Err(work);
        }
        let shard = &self.shards[work.conn.idx as usize % self.shards.len()];
        let mut queue = shard.inner.lock().expect("work queue lock");
        if queue.len() >= self.shard_cap {
            return Err(work);
        }
        queue.push_back(work);
        drop(queue);
        shard.ready.notify_one();
        Ok(())
    }

    /// Blocking pop for worker `shard`; `None` means the queue stopped
    /// and drained — time to exit.
    pub(crate) fn pop(&self, shard: usize) -> Option<Work> {
        let shard = &self.shards[shard % self.shards.len()];
        let mut queue = shard.inner.lock().expect("work queue lock");
        loop {
            if let Some(w) = queue.pop_front() {
                return Some(w);
            }
            if self.stopped.load(Ordering::SeqCst) {
                return None;
            }
            queue = shard.ready.wait(queue).expect("work queue lock");
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.ready.notify_all();
        }
    }
}

/// A reply (or connection-state change) posted back to the reactor from
/// a worker or the commit stage.
struct Directive {
    conn: ConnToken,
    seq: u64,
    msg: Message,
    /// Mark the connection attested (successful K-Protocol join).
    attest: bool,
    /// Close the connection once this reply is flushed.
    close: bool,
}

struct ReactorShared {
    directives: Mutex<Vec<Directive>>,
    /// The reactor thread to unpark on new directives / stop.
    thread: Mutex<Option<Thread>>,
    stop: AtomicBool,
}

/// Cheap-clone handle for posting replies into the reactor from any
/// thread.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl ReactorHandle {
    pub(crate) fn new() -> ReactorHandle {
        ReactorHandle {
            shared: Arc::new(ReactorShared {
                directives: Mutex::new(Vec::new()),
                thread: Mutex::new(None),
                stop: AtomicBool::new(false),
            }),
        }
    }

    /// Post an ordered reply for `(conn, seq)`.
    pub(crate) fn reply(&self, conn: ConnToken, seq: u64, msg: Message) {
        self.post(Directive {
            conn,
            seq,
            msg,
            attest: false,
            close: false,
        });
    }

    /// Reply and mark the connection attested (join approved).
    pub(crate) fn reply_attest(&self, conn: ConnToken, seq: u64, msg: Message) {
        self.post(Directive {
            conn,
            seq,
            msg,
            attest: true,
            close: false,
        });
    }

    /// Reply, then close the connection once the reply is flushed.
    pub(crate) fn reply_close(&self, conn: ConnToken, seq: u64, msg: Message) {
        self.post(Directive {
            conn,
            seq,
            msg,
            attest: false,
            close: true,
        });
    }

    fn post(&self, d: Directive) {
        self.shared
            .directives
            .lock()
            .expect("directive lock")
            .push(d);
        self.wake();
    }

    /// Ask the reactor to shut down and wake it.
    pub(crate) fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn wake(&self) {
        if let Some(t) = self.shared.thread.lock().expect("thread slot").as_ref() {
            t.unpark();
        }
    }
}

/// Reactor tuning, distilled from `ServerConfig` at spawn.
pub(crate) struct ReactorConfig {
    pub(crate) max_frame: usize,
    /// Mid-frame stall bound (a partial frame older than this drops the
    /// connection).
    pub(crate) read_timeout: Duration,
    /// Slow-reader bound: unflushed reply bytes beyond this drop the
    /// connection.
    pub(crate) write_buf_limit: usize,
}

/// Everything the reactor needs besides the listener.
pub(crate) struct ReactorDeps {
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) work: Arc<WorkQueue>,
    /// Cluster peer ingress (attested connections only).
    pub(crate) peer_tx: Option<mpsc::Sender<confide_consensus::SignedPeerMsg>>,
    /// Cached identity answers, served inline without the node lock.
    pub(crate) pk_tx: [u8; 32],
    pub(crate) report: Option<confide_tee::attestation::Report>,
    pub(crate) config: ReactorConfig,
}

struct ConnState {
    stream: TcpStream,
    gen: u32,
    /// Raw unparsed inbound bytes.
    rbuf: Vec<u8>,
    /// Encoded outbound bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next request sequence to assign.
    next_seq: u64,
    /// Next reply sequence to flush.
    next_reply: u64,
    /// Out-of-order replies parked until their turn; bool = close after.
    pending: BTreeMap<u64, (Message, bool)>,
    attested: bool,
    /// When the current partial frame started stalling.
    partial_since: Option<Instant>,
    /// Adaptive idle backoff: poll this connection again after
    /// `idle_skip` sweeps; the skip doubles (capped) per empty poll.
    idle_skip: u32,
    idle_level: u32,
    /// Close once `wbuf` and in-order `pending` are flushed.
    closing: bool,
}

const MAX_IDLE_LEVEL: u32 = 8; // 2^8 = 256-sweep spacing for idle conns
const READ_CHUNK: usize = 64 * 1024;
const MAX_READ_PER_SWEEP: usize = 256 * 1024; // per-conn fairness bound
const ACCEPT_BATCH: usize = 1024;
const PARK_IDLE: Duration = Duration::from_micros(500);

/// Run the reactor until [`ReactorHandle::stop`]. Consumes the listener.
pub(crate) fn run(listener: TcpListener, handle: ReactorHandle, deps: ReactorDeps) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    *handle.shared.thread.lock().expect("thread slot") = Some(std::thread::current());
    let mut r = Reactor {
        shared: Arc::clone(&handle.shared),
        deps,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        live: 0,
        scratch: vec![0u8; READ_CHUNK],
    };
    loop {
        if r.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut did_work = false;
        did_work |= r.apply_directives();
        did_work |= r.accept_new(&listener);
        did_work |= r.sweep();
        if !did_work {
            std::thread::park_timeout(PARK_IDLE);
        }
    }
    // Shutdown: drop every connection, then stop the worker pool.
    r.conns.clear();
    r.deps.work.stop();
}

struct Reactor {
    shared: Arc<ReactorShared>,
    deps: ReactorDeps,
    conns: Vec<Option<ConnState>>,
    /// Per-slot generation counters; bumped when a slot's occupant
    /// closes, so a stale [`ConnToken`] can never address the slot's
    /// next tenant.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    scratch: Vec<u8>,
}

impl Reactor {
    fn apply_directives(&mut self) -> bool {
        let drained: Vec<Directive> = {
            let mut q = self.shared.directives.lock().expect("directive lock");
            std::mem::take(&mut *q)
        };
        if drained.is_empty() {
            return false;
        }
        let mut touched: Vec<u32> = Vec::with_capacity(drained.len());
        for d in drained {
            let Some(conn) = self
                .conns
                .get_mut(d.conn.idx as usize)
                .and_then(Option::as_mut)
                .filter(|c| c.gen == d.conn.gen)
            else {
                // The connection died while its request was in flight.
                self.deps.stats.reply_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if d.attest {
                conn.attested = true;
            }
            conn.pending.insert(d.seq, (d.msg, d.close));
            touched.push(d.conn.idx);
        }
        for idx in touched {
            self.pump_out(idx);
        }
        true
    }

    fn accept_new(&mut self, listener: &TcpListener) -> bool {
        let mut any = false;
        for _ in 0..ACCEPT_BATCH {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.deps.stats.connections.fetch_add(1, Ordering::Relaxed);
                    self.insert_conn(stream);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failure (EMFILE under fd pressure):
                // drop out of the batch; the sweep parks briefly and we
                // retry next iteration.
                Err(_) => break,
            }
        }
        any
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        let state = |gen| ConnState {
            stream,
            gen,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_reply: 0,
            pending: BTreeMap::new(),
            attested: false,
            partial_since: None,
            idle_skip: 0,
            idle_level: 0,
            closing: false,
        };
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.conns[idx as usize].is_none());
                self.conns[idx as usize] = Some(state(self.gens[idx as usize]));
            }
            None => {
                self.gens.push(1);
                self.conns.push(Some(state(1)));
            }
        }
    }

    fn sweep(&mut self) -> bool {
        let mut any = false;
        let cfg_read_timeout = self.deps.config.read_timeout;
        for idx in 0..self.conns.len() as u32 {
            let Some(conn) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) else {
                continue;
            };
            // Adaptive idle backoff: skip quiet connections this sweep.
            if conn.idle_skip > 0 && conn.wbuf.len() == conn.wpos && conn.pending.is_empty() {
                conn.idle_skip -= 1;
                continue;
            }
            // Mid-frame stall bound.
            if let Some(t0) = conn.partial_since {
                if t0.elapsed() > cfg_read_timeout {
                    self.close_conn(idx, "mid-frame stall");
                    continue;
                }
            }
            match self.read_conn(idx) {
                ReadResult::Progress => {
                    any = true;
                }
                ReadResult::Quiet => {
                    if let Some(conn) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                        conn.idle_level = (conn.idle_level + 1).min(MAX_IDLE_LEVEL);
                        conn.idle_skip = 1 << conn.idle_level;
                    }
                }
                ReadResult::Gone => {
                    any = true;
                    continue;
                }
            }
            if self
                .conns
                .get(idx as usize)
                .and_then(Option::as_ref)
                .map(|c| c.wbuf.len() > c.wpos || !c.pending.is_empty())
                .unwrap_or(false)
            {
                any |= self.pump_out(idx);
            }
        }
        any
    }

    /// Drain the socket into `rbuf` and parse complete frames.
    fn read_conn(&mut self, idx: u32) -> ReadResult {
        let max_frame = self.deps.config.max_frame;
        let mut total = 0usize;
        let mut got_any = false;
        loop {
            let conn = match self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                Some(c) => c,
                None => return ReadResult::Gone,
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.close_conn(idx, "eof");
                    return ReadResult::Gone;
                }
                Ok(n) => {
                    got_any = true;
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    conn.idle_level = 0;
                    conn.idle_skip = 0;
                    total += n;
                    if !self.parse_frames(idx, max_frame) {
                        return ReadResult::Gone;
                    }
                    if total >= MAX_READ_PER_SWEEP {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx, "read error");
                    return ReadResult::Gone;
                }
            }
        }
        if got_any {
            ReadResult::Progress
        } else {
            ReadResult::Quiet
        }
    }

    /// Parse every complete frame in `rbuf`; returns `false` when the
    /// connection was closed (protocol violation).
    fn parse_frames(&mut self, idx: u32, max_frame: usize) -> bool {
        let mut consumed = 0usize;
        loop {
            enum Parsed {
                // Boxed: a parsed Message dwarfs the other variants.
                Msg(Box<Message>),
                NeedMore,
                Bad(&'static str),
            }
            let parsed = {
                let conn = match self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                    Some(c) => c,
                    None => return false,
                };
                let buf = &conn.rbuf[consumed..];
                if buf.len() < 4 {
                    Parsed::NeedMore
                } else {
                    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
                    if len < 2 {
                        Parsed::Bad("undersized frame")
                    } else if len > max_frame {
                        Parsed::Bad("oversized frame")
                    } else if buf.len() < 4 + len {
                        Parsed::NeedMore
                    } else {
                        match Message::from_payload(&buf[4..4 + len]) {
                            Ok(msg) => {
                                consumed += 4 + len;
                                Parsed::Msg(Box::new(msg))
                            }
                            Err(_) => Parsed::Bad("bad payload"),
                        }
                    }
                }
            };
            match parsed {
                Parsed::Msg(msg) => {
                    if !self.dispatch(idx, *msg) {
                        return false;
                    }
                }
                Parsed::NeedMore => break,
                Parsed::Bad(why) => {
                    self.close_conn(idx, why);
                    return false;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
            if consumed > 0 {
                conn.rbuf.drain(..consumed);
            }
            // Track mid-frame stalls; release the buffer when fully
            // parsed so an idle connection holds no payload memory.
            if conn.rbuf.is_empty() {
                conn.partial_since = None;
                if conn.rbuf.capacity() > READ_CHUNK {
                    conn.rbuf.shrink_to_fit();
                }
            } else if conn.partial_since.is_none() {
                conn.partial_since = Some(Instant::now());
            }
        }
        true
    }

    /// Route one parsed request. Returns `false` when the connection was
    /// closed.
    fn dispatch(&mut self, idx: u32, msg: Message) -> bool {
        let token;
        let seq;
        let attested;
        {
            let conn = match self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                Some(c) => c,
                None => return false,
            };
            token = ConnToken { idx, gen: conn.gen };
            attested = conn.attested;
            // Peer frames are fire-and-forget: no reply slot.
            if let Message::Peer(peer_msg) = msg {
                return match (&self.deps.peer_tx, attested) {
                    (Some(tx), true) => {
                        let _ = tx.send(peer_msg);
                        true
                    }
                    _ => {
                        let s = conn.next_seq;
                        conn.next_seq += 1;
                        conn.pending.insert(
                            s,
                            (
                                Message::Rejected(
                                    "peer traffic requires an attested connection".into(),
                                ),
                                true,
                            ),
                        );
                        self.pump_out(idx);
                        true
                    }
                };
            }
            seq = conn.next_seq;
            conn.next_seq += 1;
        }
        let ready = match msg {
            Message::Ping => Some((Message::Pong, false)),
            Message::GetPkTx => Some((Message::PkTxIs(self.deps.pk_tx), false)),
            Message::GetAttestation => Some((
                match &self.deps.report {
                    Some(r) => Message::AttestationIs(r.clone()),
                    None => Message::Rejected("node runs without a TEE".into()),
                },
                false,
            )),
            m @ (Message::SubmitTx(_)
            | Message::SubmitTxWait(_)
            | Message::GetReceipt(_)
            | Message::GetStatus
            | Message::JoinRequest { .. }
            | Message::StateSyncReq { .. }) => {
                let is_submit = matches!(m, Message::SubmitTx(_) | Message::SubmitTxWait(_));
                match self.deps.work.try_push(Work {
                    conn: token,
                    seq,
                    msg: m,
                    attested,
                }) {
                    Ok(()) => None,
                    Err(_) => {
                        if is_submit {
                            self.deps.stats.busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Some((Message::Busy, false))
                    }
                }
            }
            // A response kind arriving at the server is protocol abuse:
            // answer once, then close.
            other => Some((
                Message::Rejected(format!("unexpected message kind {:#04x}", other.kind())),
                true,
            )),
        };
        if let Some((reply, close)) = ready {
            if let Some(conn) = self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                conn.pending.insert(seq, (reply, close));
            }
        }
        true
    }

    /// Move in-order replies into the write buffer and flush what the
    /// socket will take. Returns true when bytes moved.
    fn pump_out(&mut self, idx: u32) -> bool {
        let write_buf_limit = self.deps.config.write_buf_limit;
        let mut progressed = false;
        let close_now = {
            let conn = match self.conns.get_mut(idx as usize).and_then(Option::as_mut) {
                Some(c) => c,
                None => return false,
            };
            // Sequence replies strictly in request order.
            while let Some((msg, close)) = conn.pending.remove(&conn.next_reply) {
                conn.wbuf.extend_from_slice(&msg.to_frame());
                conn.next_reply += 1;
                progressed = true;
                if close {
                    conn.closing = true;
                    break;
                }
            }
            // Nonblocking flush.
            let mut dead = false;
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            if dead {
                Some("write error")
            } else if conn.wbuf.len() - conn.wpos > write_buf_limit {
                // Slow reader: it stopped draining replies. Cut it loose
                // rather than buffering without bound.
                Some("slow reader (write buffer over limit)")
            } else if conn.closing && conn.wpos == conn.wbuf.len() {
                Some("close after reply")
            } else {
                None
            }
        };
        if let Some(why) = close_now {
            self.close_conn(idx, why);
        }
        progressed
    }

    fn close_conn(&mut self, idx: u32, _why: &str) {
        if let Some(slot) = self.conns.get_mut(idx as usize) {
            if let Some(conn) = slot.take() {
                // Undeliverable parked replies are accounted, not silent.
                let lost = conn.pending.len() as u64;
                if lost > 0 {
                    self.deps
                        .stats
                        .reply_drops
                        .fetch_add(lost, Ordering::Relaxed);
                }
                self.live -= 1;
                // Invalidate every outstanding token for this slot.
                self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
                self.free.push(idx);
                drop(conn);
            }
        }
    }
}

enum ReadResult {
    Progress,
    Quiet,
    Gone,
}
