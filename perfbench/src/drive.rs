//! The benchmark's own client: one thread per connection, requests
//! pipelined on the connection, every reply checked against the request
//! it answers (the server replies in request order per connection).
//!
//! * [`closed`] keeps a fixed window in flight and sends the next request
//!   only when a reply frees a slot.
//! * [`open`] sends each request at its due time whatever the replies do,
//!   and times it from that due time, so a stall also charges the
//!   requests queued behind it.
//!
//! Refusals and timeouts are counted as failures, never retried.

use crate::gen::Prepared;
use confide_core::receipt::Receipt;
use confide_net::Message;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request still unanswered after this long fails as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest single wait for a reply before the loop looks at its clock.
const POLL: Duration = Duration::from_millis(5);
/// Replies this close to the first one belong to the first block.
const FIRST_BURST: Duration = Duration::from_millis(5);

/// What one connection saw.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// `Committed` replies whose receipt verified.
    pub ok: u64,
    pub busy: u64,
    pub rejected: u64,
    pub not_primary: u64,
    pub timeouts: u64,
    pub transport: u64,
    /// Open loop: due time → verified reply, µs.
    pub latency_us: Vec<u64>,
    /// Open loop: how late each send left, µs.
    pub lag_us: Vec<u64>,
    /// Closed loop: when each verified reply arrived.
    pub ok_at: Vec<Instant>,
    /// When the last reply arrived.
    pub last_reply: Option<Instant>,
}

impl Tally {
    /// Steady closed-loop throughput: verified commits after the first
    /// committed block, over the time from that block's replies to the
    /// last reply. The first block is cut after the initial linger, before
    /// the window has filled, so it is left out.
    pub fn steady_tps(&self) -> f64 {
        let mut at = self.ok_at.clone();
        at.sort_unstable();
        let (Some(&first), Some(&last)) = (at.first(), at.last()) else {
            return 0.0;
        };
        let burst = at.partition_point(|&t| t <= first + FIRST_BURST);
        let secs = last.duration_since(first).as_secs_f64();
        if secs > 0.0 {
            (at.len() - burst) as f64 / secs
        } else {
            0.0
        }
    }

    pub fn failed(&self) -> u64 {
        self.busy + self.rejected + self.not_primary + self.timeouts + self.transport
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.busy += o.busy;
        self.rejected += o.rejected;
        self.not_primary += o.not_primary;
        self.timeouts += o.timeouts;
        self.transport += o.transport;
        self.latency_us.extend(o.latency_us);
        self.lag_us.extend(o.lag_us);
        self.ok_at.extend(o.ok_at);
        self.last_reply = self.last_reply.max(o.last_reply);
    }
}

/// A framed client connection, read with short timeouts so one thread can
/// both send on schedule and collect replies. One connection carries a
/// run's traffic from boot to the end of the rate phase.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Set once the connection failed; later sends fail at once.
    dead: bool,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Wire {
            stream,
            buf: Vec::with_capacity(1 << 16),
            dead: false,
        })
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), ()> {
        if self.dead || self.stream.write_all(frame).is_err() {
            self.dead = true;
            return Err(());
        }
        Ok(())
    }

    /// One request and its reply, waiting at most `timeout`.
    pub fn request(&mut self, frame: &[u8], timeout: Duration) -> Result<Message, String> {
        self.send(frame).map_err(|()| "send failed".to_string())?;
        let end = Instant::now() + timeout;
        while Instant::now() < end {
            if let Some(reply) = self.poll(POLL)? {
                return Ok(reply);
            }
        }
        self.dead = true;
        Err("no reply".into())
    }

    /// The next reply, waiting at most `wait` for bytes to arrive.
    fn poll(&mut self, wait: Duration) -> Result<Option<Message>, String> {
        let r = self.poll_inner(wait);
        self.dead |= r.is_err();
        r
    }

    fn poll_inner(&mut self, wait: Duration) -> Result<Option<Message>, String> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if self.buf.len() >= 4 + len {
                    let msg = Message::from_payload(&self.buf[4..4 + len])
                        .map_err(|e| format!("undecodable reply: {e}"))?;
                    self.buf.drain(..4 + len);
                    return Ok(Some(msg));
                }
            }
            self.stream
                .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
                .map_err(|e| e.to_string())?;
            let mut chunk = [0u8; 1 << 14];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// Classify one reply. A `Committed` reply whose receipt does not open
/// (or decode) to a successful receipt for this transaction is a
/// correctness failure: `Err` ends the run.
fn settle(reply: Message, req: &Prepared, t: &mut Tally) -> Result<(), String> {
    match reply {
        Message::Committed { sealed, receipt } => {
            let opened = match &req.k_tx {
                Some(k_tx) if sealed => Receipt::open(&receipt, k_tx, &req.tx_hash).ok(),
                None if !sealed => Receipt::decode(&receipt),
                _ => None,
            };
            match opened {
                Some(r) if r.tx_hash == req.tx_hash && r.success => {
                    t.ok += 1;
                    Ok(())
                }
                _ => Err(format!(
                    "receipt for tx {:02x?} failed verification",
                    &req.tx_hash[..4]
                )),
            }
        }
        Message::Busy => {
            t.busy += 1;
            Ok(())
        }
        Message::Rejected(_) => {
            t.rejected += 1;
            Ok(())
        }
        Message::NotPrimary { .. } => {
            t.not_primary += 1;
            Ok(())
        }
        _ => {
            t.transport += 1;
            Ok(())
        }
    }
}

/// Closed loop: keep `window` requests in flight until every request was
/// sent (or `stop_at` passed), then collect the replies outstanding.
pub fn closed(
    wire: &mut Wire,
    reqs: &[Prepared],
    window: usize,
    stop_at: Instant,
) -> Result<Tally, String> {
    let mut t = Tally::default();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while inflight.len() < window && next < reqs.len() && now < stop_at {
            t.attempted += 1;
            if wire.send(&reqs[next].frame).is_err() {
                t.transport += 1 + inflight.len() as u64;
                return Ok(t);
            }
            inflight.push_back((next, now));
            next += 1;
        }
        let Some(&(_, sent)) = inflight.front() else {
            return Ok(t);
        };
        if now.duration_since(sent) > REPLY_TIMEOUT {
            // Later replies would no longer line up with their requests.
            wire.dead = true;
            t.timeouts += inflight.len() as u64;
            return Ok(t);
        }
        match wire.poll(POLL) {
            Ok(Some(reply)) => {
                let (i, _) = inflight.pop_front().expect("a request in flight");
                let ok = t.ok;
                settle(reply, &reqs[i], &mut t)?;
                let at = Instant::now();
                if t.ok > ok {
                    t.ok_at.push(at);
                }
                t.last_reply = Some(at);
            }
            Ok(None) => {}
            Err(_) => {
                t.transport += inflight.len() as u64;
                return Ok(t);
            }
        }
    }
}

/// Open loop: send request `j` at `t0 + due(j)`, time each reply from its
/// due time, and record how late each send left.
pub fn open(
    wire: &mut Wire,
    reqs: &[Prepared],
    due: impl Fn(usize) -> Duration,
    t0: Instant,
) -> Result<Tally, String> {
    let mut t = Tally {
        latency_us: Vec::with_capacity(reqs.len()),
        lag_us: Vec::with_capacity(reqs.len()),
        ..Tally::default()
    };
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while next < reqs.len() && t0 + due(next) <= now {
            let due_at = t0 + due(next);
            t.attempted += 1;
            t.lag_us.push(now.duration_since(due_at).as_micros() as u64);
            if wire.send(&reqs[next].frame).is_err() {
                t.transport += 1 + inflight.len() as u64;
                return Ok(t);
            }
            inflight.push_back((next, due_at));
            next += 1;
        }
        if next == reqs.len() && inflight.is_empty() {
            return Ok(t);
        }
        if let Some(&(_, due_at)) = inflight.front() {
            if now.saturating_duration_since(due_at) > REPLY_TIMEOUT {
                wire.dead = true;
                t.timeouts += inflight.len() as u64;
                t.attempted += (reqs.len() - next) as u64;
                t.timeouts += (reqs.len() - next) as u64;
                return Ok(t);
            }
        }
        let wait = if next < reqs.len() {
            (t0 + due(next)).saturating_duration_since(now).min(POLL)
        } else {
            POLL
        };
        match wire.poll(wait) {
            Ok(Some(reply)) => {
                let at = Instant::now();
                let (i, due_at) = inflight.pop_front().ok_or("reply without a request")?;
                let ok_before = t.ok;
                settle(reply, &reqs[i], &mut t)?;
                if t.ok > ok_before {
                    t.latency_us
                        .push(at.duration_since(due_at).as_micros() as u64);
                }
                t.last_reply = Some(at);
            }
            Ok(None) => {}
            Err(_) => {
                t.transport += inflight.len() as u64;
                t.attempted += (reqs.len() - next) as u64;
                t.transport += (reqs.len() - next) as u64;
                return Ok(t);
            }
        }
    }
}
